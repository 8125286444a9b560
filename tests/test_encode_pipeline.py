"""End-to-end Ray pipeline tests: encode job -> decode -> bit-identity;
resume (FIXTURES.md F5); pruned reads and point lookup (F6); the
dataset-in/dataset-out stages."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from duckdb_raquet_ray.functions import partition_keys as pk
from duckdb_raquet_ray.pipelines import decode as dec
from duckdb_raquet_ray.pipelines import encode as encj
from duckdb_raquet_ray.sources import tokens as tk
from duckdb_raquet_ray.state import manifest as mf


def _read_all_input(corpus_dir):
    paths = tk.corpus_paths(corpus_dir)
    return pa.concat_tables([pq.read_table(p) for p in paths])


class TestPlanPartitions:
    def test_deterministic_and_covering(self, corpus_dir):
        paths = tk.corpus_paths(corpus_dir)
        items = encj.plan_partitions(paths, target_part_bytes=1 << 20)
        assert items == encj.plan_partitions(paths, target_part_bytes=1 << 20)
        # covers every row exactly once, ids strictly increasing
        pids = [it["partition_id"] for it in items]
        assert pids == sorted(pids) and len(set(pids)) == len(pids)
        by_shard = {}
        for it in items:
            by_shard.setdefault(it["shard"], []).append(it)
        total = 0
        for path, its in by_shard.items():
            md = pq.ParquetFile(path).metadata
            rgs = [rg for it in its for rg in it["row_groups"]]
            assert rgs == list(range(md.num_row_groups))
            total += sum(it["row_range"][1] - it["row_range"][0] for it in its)
        assert total == 4000

    def test_independent_of_target_only_in_boundaries(self, corpus_dir):
        paths = tk.corpus_paths(corpus_dir)
        a = encj.plan_partitions(paths, target_part_bytes=1 << 18)
        b = encj.plan_partitions(paths, target_part_bytes=1 << 24)
        assert len(a) > len(b)


def test_duplicate_input_path_encoded_once(ray_session, corpus_dir, tmp_path):
    """A path listed twice is one shard: one shard index, its rows once."""
    paths = tk.corpus_paths(corpus_dir)
    out = str(tmp_path / "enc")
    meta = encj.encode_job(paths + paths[:1], out, target_part_bytes=1 << 20)
    assert meta["num_rows"] == 4000
    assert mf.load_job_config(out)["shard_order"] == sorted(paths)
    assert encj.plan_partitions(paths + paths, 1 << 20) == encj.plan_partitions(paths, 1 << 20)
    assert dec.verify_job(paths, out)["ok"]


@pytest.fixture(scope="module")
def encoded_dir(ray_session, corpus_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("encoded"))
    meta = encj.encode_job(tk.corpus_paths(corpus_dir), out, target_part_bytes=1 << 20)
    return out, meta


class TestEncodeJob:
    def test_manifest_metadata(self, encoded_dir, corpus_dir):
        out, meta = encoded_dir
        assert meta["num_rows"] == 4000
        assert meta["num_partitions"] >= 4
        assert meta["encoded_bytes"] < meta["input_bytes"]
        entries = list(mf.load_entries(out).values())
        res = mf.validate_entries(entries)
        assert res["is_valid"], res["errors"]

    def test_part_files_exist_sorted(self, encoded_dir):
        out, meta = encoded_dir
        for pid in meta["partition_ids"]:
            assert os.path.exists(os.path.join(out, pk.part_file_name(pid)))

    def test_roundtrip_bit_identical(self, encoded_dir, corpus_dir):
        out, _ = encoded_dir
        decoded = dec.read_encoded(out).take_all()
        original = _read_all_input(corpus_dir)
        got = pa.Table.from_pylist(decoded, schema=original.schema)
        # order: partitions sorted by pid = input order by construction
        assert got.equals(original)

    def test_verify_job(self, encoded_dir, corpus_dir):
        out, _ = encoded_dir
        res = dec.verify_job(tk.corpus_paths(corpus_dir), out, target_part_bytes=1 << 20)
        assert res["ok"] and res["rows"] == 4000

    def test_point_lookup(self, encoded_dir, corpus_dir):
        out, meta = encoded_dir
        pid = meta["partition_ids"][2]
        t = dec.point_lookup(out, pid)
        entries = mf.load_entries(out)
        assert t.num_rows == entries[pid]["n_rows"]
        # matches the exact input row range
        e = entries[pid]
        shard = e["input_shard"]
        lo, hi = e["row_range"]
        orig = pq.read_table(shard).slice(lo, hi - lo)
        assert t.equals(orig)

    def test_column_pruned_read(self, encoded_dir, corpus_dir):
        out, _ = encoded_dir
        rows = dec.read_encoded(out, columns=["doc_id", "n_tok"]).take_all()
        assert set(rows[0].keys()) == {"doc_id", "n_tok"}
        original = _read_all_input(corpus_dir)
        got_col = pa.Table.from_pylist(rows).column("n_tok").combine_chunks()
        assert got_col.equals(original.column("n_tok").combine_chunks().cast(got_col.type))

    def test_shard_pruned_read(self, encoded_dir, corpus_dir):
        out, _ = encoded_dir
        ds = dec.read_encoded_for_shard(out, 1)
        got = pa.Table.from_pylist(ds.take_all())
        orig = pq.read_table(tk.corpus_paths(corpus_dir)[1])
        assert got.num_rows == orig.num_rows
        assert got.column("doc_id").combine_chunks().equals(orig.column("doc_id").combine_chunks())


class TestResume:
    def test_resume_skips_done_and_matches(self, ray_session, corpus_dir, tmp_path):
        """F5: kill after ~half the partitions -> resume -> byte-identical
        output set vs an uninterrupted run."""
        out_full = str(tmp_path / "full")
        out_resume = str(tmp_path / "resumed")
        paths = tk.corpus_paths(corpus_dir)
        encj.encode_job(paths, out_full, target_part_bytes=1 << 20)

        # simulate a crash: run fully, then delete half the outputs and
        # truncate the manifest to the surviving half
        encj.encode_job(paths, out_resume, target_part_bytes=1 << 20)
        entries = sorted(mf.load_entries(out_resume).values(), key=lambda e: e["partition_id"])
        keep = entries[: len(entries) // 2]
        kept_ids = {e["partition_id"] for e in keep}
        for e in entries:
            if e["partition_id"] not in kept_ids:
                os.remove(os.path.join(out_resume, pk.part_file_name(e["partition_id"])))
        with open(os.path.join(out_resume, mf.MANIFEST_JSONL), "w") as fh:
            for e in keep:
                fh.write(json.dumps(e, sort_keys=True) + "\n")
        os.remove(os.path.join(out_resume, mf.MANIFEST_JSON))
        kept_mtimes = {
            pid: os.path.getmtime(os.path.join(out_resume, pk.part_file_name(pid)))
            for pid in kept_ids
        }

        meta2 = encj.encode_job(paths, out_resume, target_part_bytes=1 << 20)

        # (a) completed partitions were skipped (files untouched)
        for pid, mtime in kept_mtimes.items():
            assert os.path.getmtime(os.path.join(out_resume, pk.part_file_name(pid))) == mtime
        # (b) final output byte-identical to the uninterrupted run
        meta1 = mf.load_metadata(out_full)
        assert meta1["partition_ids"] == meta2["partition_ids"]
        for pid in meta1["partition_ids"]:
            a = open(os.path.join(out_full, pk.part_file_name(pid)), "rb").read()
            b = open(os.path.join(out_resume, pk.part_file_name(pid)), "rb").read()
            assert a == b, f"partition {pid} differs after resume"


class TestJobConfigPersistence:
    """ADVICE r1 (medium): resume must re-plan with the SAME partition-size
    parameters, or rows silently fall between old and new partition ids."""

    def test_resume_reuses_persisted_plan(self, ray_session, corpus_dir, tmp_path):
        out = str(tmp_path / "enc")
        paths = tk.corpus_paths(corpus_dir)
        meta1 = encj.encode_job(paths, out, target_part_bytes=1 << 19)
        # resume with NO explicit target: persisted 1<<19 must win (a
        # different default/auto would re-plan different row ranges)
        meta2 = encj.encode_job(paths, out)
        assert meta1["partition_ids"] == meta2["partition_ids"]
        assert mf.load_job_config(out)["target_part_bytes"] == 1 << 19

    def test_resume_explicit_mismatch_raises(self, ray_session, corpus_dir, tmp_path):
        out = str(tmp_path / "enc")
        paths = tk.corpus_paths(corpus_dir)
        encj.encode_job(paths, out, target_part_bytes=1 << 19)
        with pytest.raises(ValueError, match="resume plan mismatch"):
            encj.encode_job(paths, out, target_part_bytes=1 << 20)
        # resume=False re-plans from scratch: allowed (fresh job semantics)
        encj.encode_job(paths, out, target_part_bytes=1 << 22, resume=False)
        assert mf.load_job_config(out)["target_part_bytes"] == 1 << 22

    def test_mode_mismatch_raises(self, ray_session, corpus_dir, tmp_path):
        from duckdb_raquet_ray.pipelines import encode_grouped as eg

        out = str(tmp_path / "enc")
        paths = tk.corpus_paths(corpus_dir)
        encj.encode_job(paths, out, target_part_bytes=1 << 19)
        with pytest.raises(ValueError, match="mode"):
            eg.encode_job_grouped(paths, out, target_group_rows=500)

    def test_validator_flags_mixed_plan(self):
        base = {
            "partition_id": 1, "input_shard": "s.parquet", "n_rows": 10,
            "codecs": {}, "input_bytes": 1, "encoded_bytes": 1, "status": "done",
        }
        overlap = [
            {**base, "partition_id": 1, "row_range": [0, 10]},
            {**base, "partition_id": 2, "row_range": [5, 15], "n_rows": 10},
        ]
        res = mf.validate_entries(overlap)
        assert not res["is_valid"] and any("overlap" in e for e in res["errors"])
        gap = [
            {**base, "partition_id": 1, "row_range": [0, 10]},
            {**base, "partition_id": 2, "row_range": [20, 30], "n_rows": 10},
        ]
        res = mf.validate_entries(gap)
        assert not res["is_valid"] and any("gap" in e for e in res["errors"])
        good = [
            {**base, "partition_id": 1, "row_range": [0, 10]},
            {**base, "partition_id": 2, "row_range": [10, 20], "n_rows": 10},
        ]
        assert mf.validate_entries(good)["is_valid"]


class TestStreamStages:
    def test_dataset_roundtrip(self, ray_session, corpus_dir):
        import ray.data as rd

        from duckdb_raquet_ray.stages import encoder as enc

        paths = tk.corpus_paths(corpus_dir)
        ds = rd.read_parquet(paths)
        encoded = ds.map_batches(enc.encode_batch, batch_size=1000, batch_format="pyarrow")
        decoded = encoded.map_batches(enc.decode_rows, batch_format="pyarrow")
        got = pa.Table.from_pylist(decoded.take_all())
        original = _read_all_input(corpus_dir)
        assert got.num_rows == original.num_rows
        # stream mode doesn't guarantee order; compare sorted by doc_id
        got = got.sort_by("doc_id")
        exp = original.sort_by("doc_id")
        assert got.column("doc_id").combine_chunks().equals(exp.column("doc_id").combine_chunks())
        assert got.column("tokens").combine_chunks().cast(exp.column("tokens").type).equals(
            exp.column("tokens").combine_chunks()
        )


class TestIncrementalAppend:
    def test_appending_shards_encodes_only_new(self, ray_session, tmp_path):
        """Incremental ingest: re-running encode_job with NEW shards appended
        to the input list re-encodes only the new shards' partitions —
        lineage partition ids are pure functions of (shard, part), so old
        ids stay stable and resume skips them."""
        import os
        import time

        from duckdb_raquet_ray.pipelines import decode, encode
        from duckdb_raquet_ray.sources import tokens as tok
        from duckdb_raquet_ray.state import manifest as mf

        corpus = str(tmp_path / "corpus")
        out = str(tmp_path / "enc")
        paths6 = tok.write_corpus(corpus, 3000, 6, row_group_rows=256)
        first4 = paths6[:4]

        encode.encode_job(first4, out, target_part_bytes=1 << 20)
        done1 = mf.done_partition_ids(out)
        mtimes = {
            f: os.path.getmtime(os.path.join(out, f))
            for f in os.listdir(out)
            if f.startswith("part-")
        }
        time.sleep(0.05)

        meta = encode.encode_job(paths6, out, target_part_bytes=1 << 20)
        done2 = mf.done_partition_ids(out)
        assert done1 < done2  # strictly grew, nothing dropped
        # previously-encoded partition files untouched (no re-encode)
        for f, m in mtimes.items():
            assert os.path.getmtime(os.path.join(out, f)) == m
        assert meta["num_rows"] == 3000
        # the full 6-shard set decodes bit-identically
        assert decode.verify_job(paths6, out, target_part_bytes=1 << 20)["ok"]


class TestTokenizeEncodeComposition:
    """Flagship composition: raw text -> tokenize_hashed -> encode_job ->
    stats off the encoded form == stats computed directly on the
    tokenizer's output (bit-identity of the codec chain from raw text)."""

    def test_tokenize_encode_stats_roundtrip(self, ray_session, tmp_path):
        import ray.data as rd

        from duckdb_raquet_ray.pipelines import text as tx
        from duckdb_raquet_ray.pipelines import transforms as tr

        docs = pa.table(
            {
                "doc_id": pa.array(range(200), pa.int64()),
                "text": pa.array(
                    [
                        None if i % 37 == 0 else f"alpha beta{i % 7} gamma {i} " * (1 + i % 5)
                        for i in range(200)
                    ]
                ),
                "source": pa.array([f"s{i % 3}" for i in range(200)]),
            }
        )
        toks = tx.tokenize_hashed(rd.from_arrow(docs), keep_cols=("source",))
        land = tmp_path / "landing"
        toks.write_parquet(str(land))
        files = sorted(str(p) for p in land.glob("*.parquet"))
        enc = str(tmp_path / "enc")
        encj.encode_job(files, enc, target_part_bytes=1 << 18)

        cols = ["doc_id", "n_tok", "source", "tok_count", "tok_min", "tok_max", "tok_sum"]
        got = (
            dec.read_encoded_token_stats(enc)
            .select_columns(cols)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        want = (
            pa.concat_tables(
                tr.token_stats(pq.read_table(f)) for f in files
            )
            .select(cols)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        import pandas.testing as pdt

        pdt.assert_frame_equal(got, want)
        # null-text docs are dropped by the tokenizer
        assert len(got) == 200 - len([i for i in range(200) if i % 37 == 0])


class TestAppendJob:
    """append_job: grow an encoded dir with new shards — existing partition
    ids untouched, decode == one-shot encode of the full corpus, idempotent,
    and encode_job grows a lineage dir by the same rule."""

    def _split_corpus(self, tmp_path):
        base_dir = tmp_path / "base"
        delta_dir = tmp_path / "delta"
        base = tk.write_corpus(str(base_dir), 2000, 2, row_group_rows=512)
        extra = tk.write_corpus(str(delta_dir), 3000, 3, seed=7, row_group_rows=512)
        # the HARD case: one delta shard renamed so it SORTS BEFORE the
        # base shards — append must still index it after them
        early = str(delta_dir / "aaa-early.parquet")
        os.rename(extra[0], early)
        return base, [early] + list(extra[1:])

    def test_append_matches_oneshot_and_keeps_ids(self, ray_session, tmp_path):
        base, delta = self._split_corpus(tmp_path)
        out = str(tmp_path / "enc")
        encj.encode_job(base, out, target_part_bytes=1 << 20)
        before = set(mf.done_partition_ids(out))
        before_mtimes = {
            f: os.path.getmtime(os.path.join(out, f))
            for f in os.listdir(out)
            if f.endswith(".parquet")
        }
        meta = encj.append_job(delta, out)
        after = set(mf.done_partition_ids(out))
        assert before < after  # strictly grew, old ids intact
        # old partition FILES untouched (no rewrite)
        for f, ts in before_mtimes.items():
            assert os.path.getmtime(os.path.join(out, f)) == ts
        # new shard indices come AFTER the base ones, even for aaa-early
        order = mf.load_job_config(out)["shard_order"]
        assert order[: len(base)] == sorted(base)
        assert set(order[len(base):]) == set(delta)
        new_shards = {pk.unpack(p)[0] for p in after - before}
        assert min(new_shards) >= len(base)
        # decoded content == one-shot encode of the same shard order
        got = (
            dec.read_encoded(out)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        want = (
            pa.concat_tables([pq.read_table(p) for p in base + delta])
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert got["doc_id"].tolist() == want["doc_id"].tolist()
        assert got["n_tok"].tolist() == want["n_tok"].tolist()
        assert (
            got["tokens"].map(lambda x: list(x)).tolist()
            == want["tokens"].map(list).tolist()
        )
        assert meta["num_rows"] == len(want)
        # verify gate passes over the appended dir (manifest-driven AND
        # replanned-from-persisted-order paths)
        assert dec.verify_encoded(out)["ok"]
        assert dec.verify_job(base + delta, out)["ok"]

    def test_append_idempotent_and_encode_job_grows_in_order(
        self, ray_session, tmp_path
    ):
        base, delta = self._split_corpus(tmp_path)
        out = str(tmp_path / "enc2")
        encj.encode_job(base, out, target_part_bytes=1 << 20)
        encj.append_job(delta, out)
        n1 = mf.load_metadata(out)["num_rows"]
        stamps = {
            f: os.path.getmtime(os.path.join(out, f))
            for f in os.listdir(out)
            if f.endswith(".parquet")
        }
        encj.append_job(delta, out)  # same delta again: no-op
        assert mf.load_metadata(out)["num_rows"] == n1
        for f, ts in stamps.items():
            assert os.path.getmtime(os.path.join(out, f)) == ts
        # growing the corpus through encode_job follows append_job's rule:
        # a shard that sorts before every recorded one takes the NEXT
        # shard index, and no existing partition file is rewritten
        mid = str(tmp_path / "base" / "aaa-mid.parquet")
        os.rename(tk.write_corpus(str(tmp_path / "mid"), 700, 1, seed=11,
                                  row_group_rows=256)[0], mid)
        blobs = {f: open(os.path.join(out, f), "rb").read() for f in stamps}
        before = set(mf.load_metadata(out)["partition_ids"])
        meta = encj.encode_job(base + delta + [mid], out, target_part_bytes=1 << 20)
        order = mf.load_job_config(out)["shard_order"]
        assert order == sorted(base) + sorted(delta) + [mid]
        assert meta["input_shards"] == order
        added = set(meta["partition_ids"]) - before
        assert {pk.unpack(p)[0] for p in added} == {len(base) + len(delta)}
        for f, ts in stamps.items():
            path = os.path.join(out, f)
            assert os.path.getmtime(path) == ts
            assert open(path, "rb").read() == blobs[f]
        # decode in partition-id order == the shards read in recorded order
        got = dec.read_encoded(out).to_pandas()
        want = pa.concat_tables([pq.read_table(p) for p in order]).to_pandas()
        assert got["doc_id"].tolist() == want["doc_id"].tolist()
        assert got["n_tok"].tolist() == want["n_tok"].tolist()
        assert dec.verify_job(base + delta + [mid], out)["ok"]

    def test_killed_append_resumes(self, ray_session, tmp_path):
        """A SIGKILL between append_job's job.json write and its encode
        leaves an extended shard_order but an UNFINALIZED manifest; the
        next append_job must detect it (finalized input_shards is the
        truth, job.json is written pre-encode) and finish the work."""
        base, delta = self._split_corpus(tmp_path)
        out = str(tmp_path / "enc3")
        encj.encode_job(base, out, target_part_bytes=1 << 20)
        # simulate the kill: persist the grown order WITHOUT encoding
        cfg = mf.load_job_config(out)
        grown = cfg["shard_order"] + sorted(delta)
        mf.persist_job_config(out, {**cfg, "shard_order": grown})
        assert len(mf.load_metadata(out).get("input_shards")) == len(base)
        meta = encj.append_job(delta, out)  # same args as the killed run
        assert meta["num_rows"] == 5000
        assert mf.load_metadata(out)["input_shards"] == grown
        assert dec.verify_encoded(out)["ok"]


def test_float_plane_encode_bit_identical(ray_session, tmp_path):
    """The embeddings shape (int64 key + list<float32> + int32 label)
    through the full encode_job: planner picks a real codec for the
    float child (for_bss = FoR over uint32 bit patterns -> byte-stream
    split -> zstd) and decode is bit-identical."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from duckdb_raquet_ray import blockcodec, planner
    from duckdb_raquet_ray.pipelines import decode, encode

    rng = np.random.default_rng(13)
    n, dim = 400, 16
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(
                list(rng.normal(size=(n, dim)).astype(np.float32)),
                pa.list_(pa.float32()),
            ),
            "label": pa.array(rng.integers(0, 5, n).astype(np.int32)),
        }
    )
    src = str(tmp_path / "emb.parquet")
    pq.write_table(t, src)
    out = str(tmp_path / "enc")
    encode.encode_job([src], out)
    assert decode.verify_job([src], out)["ok"]
    # the float child must take a plane codec, not the raw fallback
    choice = planner.plan_array(t.column("embedding").combine_chunks())
    assert choice["codec"] == "list"
    blob, desc = blockcodec.encode_array(t.column("embedding").combine_chunks(), choice)
    back = blockcodec.decode_array(blob, desc)
    assert back.equals(t.column("embedding").combine_chunks())


def test_string_plane_encode_bit_identical(ray_session, tmp_path):
    """The documents shape (free text + low-cardinality strings + ints)
    through the full encode_job: string-path codecs under the cost
    model, decode bit-identical."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from duckdb_raquet_ray.pipelines import decode, encode

    rng = np.random.default_rng(17)
    n = 500
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(
                [
                    " ".join(rng.choice(words, size=int(rng.integers(3, 30))))
                    for _ in range(n)
                ]
            ),
            "source": pa.array([f"src{i % 5}" for i in range(n)]),
        }
    )
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)
    out = str(tmp_path / "enc")
    encode.encode_job([src], out)
    assert decode.verify_job([src], out)["ok"]


def test_schema_drift_append_refused(ray_session, tmp_path):
    """A shard whose columns/types differ from the dir's schema must be
    refused LOUDLY at plan time — silently encoding it would make decode
    union mixed schemas into a null-filled frame (the corrupted-table
    failure mode an append-heavy corpus hits first)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from duckdb_raquet_ray.pipelines import encode
    from duckdb_raquet_ray.sources import tokens

    paths = tokens.write_corpus(str(tmp_path / "c"), 2000, 1, row_group_rows=512)
    enc_dir = str(tmp_path / "enc")
    encode.encode_job(paths, enc_dir, target_part_bytes=1 << 20)
    drift = pa.table(
        {
            "doc_id": pa.array(["x/doc-0"]),
            "tokens": pa.array([[1, 2]], pa.list_(pa.int32())),
            "lang": pa.array(["en"]),  # extra col, missing n_tok/source
        }
    )
    p = str(tmp_path / "drift.parquet")
    pq.write_table(drift, p)
    with pytest.raises(ValueError, match="schema drift"):
        encode.append_job([p], enc_dir)
    # and at initial-encode time with mixed shards
    with pytest.raises(ValueError, match="schema drift"):
        encode.encode_job([paths[0], p], str(tmp_path / "enc2"))
