"""delete_job: in-place key deletion from an encoded dir — row removal,
partition-granular rewrite, full-partition drop, idempotence, loud
guards, and manifest/rollup consistency."""

import os

import pyarrow.parquet as pq
import pytest

from duckdb_raquet_ray.pipelines import decode, encode
from duckdb_raquet_ray.sources import tokens
from duckdb_raquet_ray.state import manifest as mf


@pytest.fixture()
def enc_dir(ray_session, tmp_path):
    paths = tokens.write_corpus(str(tmp_path / "c"), 6_000, 3, row_group_rows=1024)
    d = str(tmp_path / "enc")
    encode.encode_job(paths, d, target_part_bytes=1 << 20)
    return d, paths


class TestDelete:
    def test_rows_removed_counts_and_contents(self, enc_dir):
        d, paths = enc_dir
        meta0 = mf.load_metadata(d)
        keys = [
            k
            for p in paths
            for k in pq.read_table(p, columns=["doc_id"]).column("doc_id").to_pylist()
            if k.endswith("3")
        ]
        meta = encode.delete_job(d, keys)
        assert meta["num_rows"] == meta0["num_rows"] - len(keys)
        back = decode.read_encoded(d).to_pandas()
        assert len(back) == meta["num_rows"]
        assert not back["doc_id"].str.endswith("3").any()
        # idempotent: nothing left to delete
        meta2 = encode.delete_job(d, keys)
        assert meta2["num_rows"] == meta["num_rows"]

    def test_full_partition_drop(self, enc_dir):
        d, paths = enc_dir
        meta0 = mf.load_metadata(d)
        # delete EVERY key -> every partition file drops, manifest empties
        keys = [
            k
            for p in paths
            for k in pq.read_table(p, columns=["doc_id"]).column("doc_id").to_pylist()
        ]
        meta = encode.delete_job(d, keys)
        assert meta["num_rows"] == 0
        assert meta["num_partitions"] == 0
        import glob as g

        assert not g.glob(os.path.join(d, "part-*.parquet"))
        assert meta0["num_partitions"] > 0

    def test_key_probe_reads_only_the_key_blob(self, enc_dir, monkeypatch):
        # pass 1 finds the affected partitions from the key column alone:
        # the other columns' blobs must never be read
        from duckdb_raquet_ray.functions import partition_keys as pk
        from duckdb_raquet_ray.stages import encoder as enc

        d, _ = enc_dir
        pid = min(mf.load_entries(d))
        real = pq.read_table
        seen = []

        def spy(path, *args, **kwargs):
            seen.append(kwargs.get("columns"))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(pq, "read_table", spy)
        col = encode._key_plane(d, pid, "doc_id")
        assert seen == [["partition_id", "n_rows", "codec_meta", "col_doc_id"]]
        whole = enc.decode_rows(real(os.path.join(d, pk.part_file_name(pid))))
        assert col.to_pylist() == whole.column("doc_id").to_pylist()

    def test_empty_keys_refused(self, enc_dir):
        d, _ = enc_dir
        with pytest.raises(ValueError, match="empty key list"):
            encode.delete_job(d, [])

    def test_unknown_key_column_refused(self, enc_dir):
        d, _ = enc_dir
        with pytest.raises(ValueError, match="not in schema"):
            encode.delete_job(d, ["x"], key_column="nope")

    def test_rollups_reflect_deletion(self, enc_dir):
        d, paths = enc_dir
        t = pq.read_table(paths[0], columns=["doc_id", "source"])
        src0 = t.column("source")[0].as_py()
        keys = [
            k
            for k, s in zip(
                t.column("doc_id").to_pylist(), t.column("source").to_pylist()
            )
            if s == src0
        ][:50]
        def src_count(meta):
            rows = meta["rollups"]["n_tok_by_source"]
            return next(r["count"] for r in rows if r["source"] == src0)

        before = src_count(mf.load_metadata(d))
        meta = encode.delete_job(d, keys)
        assert src_count(meta) == before - len(keys)

    def test_cli_surface(self, enc_dir, tmp_path):
        from duckdb_raquet_ray import cli

        d, paths = enc_dir
        keys = [
            k
            for k in pq.read_table(paths[0], columns=["doc_id"]).column("doc_id").to_pylist()
        ][:10]
        kf = str(tmp_path / "keys.txt")
        open(kf, "w").write("\n".join(keys) + "\n")
        cli.main(["delete", "--out", d, "--keys-file", kf])
        back = decode.read_encoded(d).to_pandas()
        assert not set(keys) & set(back["doc_id"])

    def test_validator_accepts_post_delete_manifest(self, enc_dir):
        # rewritten entries keep the original row_range + deleted_rows:
        # validate_entries must still tile every shard and accept
        # n_rows + deleted_rows == span (no false corruption alarms)
        d, paths = enc_dir
        keys = [
            k
            for k in pq.read_table(paths[0], columns=["doc_id"]).column("doc_id").to_pylist()
        ][:40]
        encode.delete_job(d, keys)
        res = mf.validate_entries(list(mf.load_entries(d).values()))
        assert res["errors"] == [], res["errors"]

    def test_journal_ahead_of_files_heals(self, enc_dir):
        # crash window: entry journaled 'deleted' but the file removal
        # never happened -> the next delete_job run's start-of-run sweep
        # removes the orphan and finalize stays consistent
        import json as _json

        d, paths = enc_dir
        from duckdb_raquet_ray.functions import partition_keys as pk

        pids = sorted(mf.done_partition_ids(d))
        victim = pids[0]
        e = dict(mf.load_entries(d)[victim])
        span = e["row_range"][1] - e["row_range"][0]
        fake = {
            "partition_id": victim,
            "status": "deleted",
            "input_shard": e["input_shard"],
            "n_rows": 0,
            "codecs": {},
            "input_bytes": 0,
            "encoded_bytes": 0,
            "deleted_rows": span,
            "row_range": e["row_range"],
        }
        with open(os.path.join(d, "manifest.jsonl"), "a") as f:
            f.write(_json.dumps(fake) + "\n")
        # file still exists (the crash window) — a fresh delete run heals
        assert os.path.exists(os.path.join(d, pk.part_file_name(victim)))
        meta = encode.delete_job(d, ["no-such-key"])
        assert not os.path.exists(os.path.join(d, pk.part_file_name(victim)))
        assert victim not in meta["partition_ids"]
        back = decode.read_encoded(d).to_pandas()
        assert len(back) == meta["num_rows"]

    def test_interrupted_delete_blocks_different_keys(self, enc_dir):
        # the journal-ahead rewrite window only heals on a SAME-KEYS
        # re-run: the in-progress marker makes a different delete refuse
        import json as _json

        d, paths = enc_dir
        keys = pq.read_table(paths[0], columns=["doc_id"]).column("doc_id").to_pylist()[:5]
        # simulate a crash: marker written, finalize never reached
        open(os.path.join(d, "_DELETE_INPROGRESS.json"), "w").write(
            _json.dumps({"keys_sha": "deadbeefdeadbeef"})
        )
        with pytest.raises(ValueError, match="interrupted before finalize"):
            encode.delete_job(d, keys)
        os.remove(os.path.join(d, "_DELETE_INPROGRESS.json"))
        meta = encode.delete_job(d, keys)  # marker gone -> proceeds
        assert not os.path.exists(os.path.join(d, "_DELETE_INPROGRESS.json"))
        assert meta["num_rows"] > 0

    def test_deleted_rows_self_heal_on_rerun(self, enc_dir):
        # forge the journal-ahead REWRITE window: entry journaled with the
        # reduced counts, file never swapped. A same-keys re-run must
        # converge WITHOUT double-counting deleted_rows (span-derived)
        d, paths = enc_dir
        keys = pq.read_table(paths[0], columns=["doc_id"]).column("doc_id").to_pylist()[:30]
        meta = encode.delete_job(d, keys)
        res = mf.validate_entries(list(mf.load_entries(d).values()))
        assert res["errors"] == []
        # re-run same keys (no hits left): entries unchanged, still valid
        encode.delete_job(d, keys)
        res2 = mf.validate_entries(list(mf.load_entries(d).values()))
        assert res2["errors"] == []

    def test_journal_ahead_rewrite_on_compacted_dir_counts_once(
        self, enc_dir, tmp_path
    ):
        # compacted partitions carry no row_range, so deleted_rows cannot
        # be checked against a span: forge the journal-ahead REWRITE
        # window (entry journaled with the reduced counts, live file never
        # swapped) and require the same-keys re-run to count each erased
        # row once
        import json as _json

        d, _ = enc_dir
        comp = str(tmp_path / "comp")
        encode.compact_job(d, comp, target_part_bytes=2 << 20)
        before = mf.load_entries(comp)
        victim = sorted(mf.done_partition_ids(comp))[0]
        assert before[victim].get("row_range") is None
        total = mf.load_metadata(comp)["num_rows"]
        from duckdb_raquet_ray.functions import partition_keys as pk
        from duckdb_raquet_ray.stages import encoder as enc

        part = enc.decode_rows(
            pq.read_table(os.path.join(comp, pk.part_file_name(victim)))
        )
        gone = part.column("doc_id").to_pylist()[:25]
        n0 = before[victim]["n_rows"]
        forged = dict(before[victim], n_rows=n0 - len(gone), deleted_rows=len(gone))
        with open(os.path.join(comp, "manifest.jsonl"), "a") as f:
            f.write(_json.dumps(forged) + "\n")
        meta = encode.delete_job(comp, gone)
        after = mf.load_entries(comp)[victim]
        assert after["n_rows"] == n0 - len(gone)
        assert after["deleted_rows"] == len(gone)
        assert meta["num_rows"] == total - len(gone)
        back = decode.read_encoded(comp).to_pandas()
        assert len(back) == meta["num_rows"]
        assert not back["doc_id"].isin(gone).any()
