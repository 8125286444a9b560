"""Partition-key math (quadbin.test analogue: round-trip identities,
known goldens) and manifest write/validate/resume (FIXTURES.md F3)."""

import json
import os

import pytest

from duckdb_raquet_ray.functions import partition_keys as pk
from duckdb_raquet_ray.state import manifest as mf


class TestPartitionKeys:
    def test_pack_unpack_roundtrip(self):
        for shard, part in [(0, 0), (1, 2), (1000, 123456), (pk.MAX_SHARD, pk.MAX_PART)]:
            pid = pk.pack(shard, part)
            assert pk.unpack(pid) == (shard, part)
            assert not pk.is_grouped(pid)

    def test_golden_values(self):
        assert pk.pack(0, 0) == 0
        assert pk.pack(1, 0) == 1 << 31
        assert pk.pack(2, 5) == (2 << 31) | 5

    def test_sort_order_matches_lineage(self):
        pids = [pk.pack(s, p) for s in range(5) for p in range(4)]
        assert pids == sorted(pids)

    def test_parent_and_range(self):
        pid = pk.pack(7, 99)
        assert pk.parent(pid) == pk.pack(7, 0)
        lo, hi = pk.shard_range(7)
        assert lo <= pid < hi
        assert pk.pack(8, 0) == hi

    def test_children(self):
        assert pk.children(3, 2) == [pk.pack(3, 0), pk.pack(3, 1)]

    def test_sibling_and_kring(self):
        pid = pk.pack(4, 10)
        assert pk.sibling(pid) == pk.pack(4, 11)
        assert pk.sibling(pid, -1) == pk.pack(4, 9)
        assert pk.sibling(pk.pack(4, 0), -1) is None  # clipped at shard edge
        assert pk.kring(pid, 2) == [pk.pack(4, p) for p in (8, 9, 10, 11, 12)]
        assert pk.kring(pk.pack(4, 0), 1) == [pk.pack(4, 0), pk.pack(4, 1)]
        # a kring never crosses into another shard
        assert all(pk.unpack(p)[0] == 4 for p in pk.kring(pid, 3))

    def test_grouped_roundtrip(self):
        pid = pk.pack_grouped("web", 5)
        assert pk.is_grouped(pid)
        h, salt = pk.unpack_grouped(pid)
        assert salt == 5
        assert h == pk.source_hash("web")
        with pytest.raises(ValueError):
            pk.unpack(pid)

    def test_source_hash_stable(self):
        # sha256-based, never Python's randomized hash()
        assert pk.source_hash("web") == pk.source_hash("web")
        assert pk.source_hash("web") != pk.source_hash("code")

    def test_part_file_name_sorts(self):
        names = [pk.part_file_name(pk.pack(s, p)) for s in range(3) for p in range(3)]
        assert names == sorted(names)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pk.pack(-1, 0)
        with pytest.raises(ValueError):
            pk.pack(0, pk.MAX_PART + 1)


GOLDEN_ENTRY = {
    "partition_id": 17,
    "input_shard": "tokens_input/shard-00002.parquet",
    "row_range": [8192, 12288],
    "n_rows": 4096,
    "codecs": {"doc_id": "fsst", "tokens": "list", "n_tok": "rle", "source": "dict"},
    "fsst_symbol_table_hash": "sha256:abc",
    "input_bytes": 1048576,
    "encoded_bytes": 262144,
    "checksum": "sha256:def",
    "status": "done",
}


class TestMetadataDialects:
    """Version-dispatch policy (the reference reads three metadata
    generations through one parser; raquet_metadata.hpp:1016-1072)."""

    def test_current_version_passes_through(self):
        meta = {"format_version": mf.FORMAT_VERSION, "schema": "s", "num_rows": 1}
        assert mf.migrate_metadata(meta) == meta

    def test_legacy_minor_migrated_in_memory(self):
        legacy = {"format_version": "0.0.9", "schema_str": "old", "num_rows": 1}
        out = mf.migrate_metadata(legacy)
        assert out["schema"] == "old"
        assert out["format_version"] == "0.0.9"  # migration never rewrites
        assert legacy["format_version"] == "0.0.9"

    def test_newer_minor_forward_compatible(self):
        newer = {"format_version": "0.9.0", "schema": "s", "novel_key": 42}
        out = mf.migrate_metadata(newer)
        assert out["novel_key"] == 42

    def test_future_major_refused(self):
        import pytest as _pytest

        with _pytest.raises(ValueError, match="major version"):
            mf.migrate_metadata({"format_version": "1.0.0"})


class TestManifest:
    def test_append_and_load(self, tmp_path):
        w = mf.ManifestWriter(str(tmp_path))
        w.append(GOLDEN_ENTRY)
        w.append({**GOLDEN_ENTRY, "partition_id": 18})
        entries = mf.load_entries(str(tmp_path))
        assert set(entries) == {17, 18}
        assert entries[17]["codecs"]["source"] == "dict"
        w.close()

    def test_torn_tail_tolerated(self, tmp_path):
        w = mf.ManifestWriter(str(tmp_path))
        w.append(GOLDEN_ENTRY)
        w.close()
        with open(os.path.join(tmp_path, mf.MANIFEST_JSONL), "a") as fh:
            fh.write('{"partition_id": 99, "trunc')
        entries = mf.load_entries(str(tmp_path))
        assert set(entries) == {17}

    def test_done_requires_file(self, tmp_path):
        from duckdb_raquet_ray.functions import partition_keys as pk

        w = mf.ManifestWriter(str(tmp_path))
        w.append(GOLDEN_ENTRY)
        w.close()
        assert mf.done_partition_ids(str(tmp_path)) == set()
        open(os.path.join(tmp_path, pk.part_file_name(17)), "wb").close()
        assert mf.done_partition_ids(str(tmp_path)) == {17}

    def test_finalize_metadata(self, tmp_path):
        w = mf.ManifestWriter(str(tmp_path))
        w.append(GOLDEN_ENTRY)
        meta = w.finalize("doc_id: string", extra={"k": "v"})
        w.close()
        loaded = mf.load_metadata(str(tmp_path))
        assert loaded == meta
        assert loaded["num_rows"] == 4096
        assert loaded["encoded_bytes"] == 262144
        assert loaded["partition_ids"] == [17]
        assert loaded["k"] == "v"

    def test_validator_golden(self):
        res = mf.validate_entries([GOLDEN_ENTRY])
        assert res["is_valid"] and not res["errors"]
        assert res["num_rows"] == 4096

    def test_validator_unknown_codec(self):
        bad = json.loads(json.dumps(GOLDEN_ENTRY))
        bad["codecs"]["tokens"] = "quantum"
        res = mf.validate_entries([bad])
        assert not res["is_valid"]
        assert any("unknown codec" in e for e in res["errors"])

    def test_validator_nrows_mismatch(self):
        bad = {**GOLDEN_ENTRY, "n_rows": 5}
        res = mf.validate_entries([bad])
        assert not res["is_valid"]
        assert any("n_rows" in e for e in res["errors"])

    def test_validator_duplicate_pid(self):
        res = mf.validate_entries([GOLDEN_ENTRY, GOLDEN_ENTRY])
        assert not res["is_valid"]

    def test_validator_missing_optional_is_warning(self):
        e = {k: v for k, v in GOLDEN_ENTRY.items() if k not in ("checksum", "fsst_symbol_table_hash")}
        res = mf.validate_entries([e])
        assert res["is_valid"]
        # missing checksum + missing fsst hash + nonzero coverage start
        assert len(res["warnings"]) == 3


class TestTokensSource:
    def test_deterministic(self):
        from duckdb_raquet_ray.sources import tokens as tk

        a = tk.generate_shard(0, 500)
        b = tk.generate_shard(0, 500)
        assert a.equals(b)
        c = tk.generate_shard(1, 500)
        assert not a.equals(c)

    def test_schema_and_invariant(self):
        import pyarrow as pa
        import pyarrow.compute as pc

        from duckdb_raquet_ray.sources import tokens as tk

        t = tk.generate_shard(2, 1000)
        assert t.schema.names == ["doc_id", "tokens", "n_tok", "source"]
        assert t.schema.field("tokens").type == pa.list_(pa.int32())
        assert t.schema.field("n_tok").type == pa.int32()
        # INVARIANT: n_tok == len(tokens)
        assert pc.all(
            pc.equal(pc.list_value_length(t.column("tokens")), t.column("n_tok"))
        ).as_py()
        flat = t.column("tokens").combine_chunks().flatten()
        assert pc.min(flat).as_py() >= 0
        assert pc.max(flat).as_py() < tk.VOCAB

    def test_zipf_skew(self):
        from duckdb_raquet_ray.sources import tokens as tk

        t = tk.generate_shard(0, 5000)
        counts = t.column("source").to_pandas().value_counts()
        assert counts.iloc[0] / 5000 > 0.30  # head key ~40%

    def test_write_corpus_idempotent(self, tmp_path):
        from duckdb_raquet_ray.sources import tokens as tk

        p1 = tk.write_corpus(str(tmp_path), 100, 2)
        m1 = [os.path.getmtime(p) for p in p1]
        p2 = tk.write_corpus(str(tmp_path), 100, 2)
        assert p1 == p2
        assert m1 == [os.path.getmtime(p) for p in p2]


class TestRollupTier:
    def _entry(self, pid, rollup_rows, n_rows=10):
        return {
            "partition_id": pid,
            "n_rows": n_rows,
            "input_bytes": 100,
            "encoded_bytes": 50,
            "status": "done",
            "rollup": {"n_tok_by_source": rollup_rows},
        }

    def test_fold_rollups_across_partitions(self):
        e1 = self._entry(1, [
            {"source": "a", "count": 3, "sum": 30, "min": 5, "max": 15},
            {"source": "b", "count": 2, "sum": 8, "min": 3, "max": 5},
        ])
        e2 = self._entry(2, [
            {"source": "a", "count": 1, "sum": 100, "min": 100, "max": 100},
            {"source": None, "count": 4, "sum": 4, "min": 1, "max": 1},
        ])
        rows = mf.fold_rollups([e1, e2])["n_tok_by_source"]
        by = {r["source"]: r for r in rows}
        assert by["a"] == {"source": "a", "count": 4, "sum": 130, "min": 5, "max": 100}
        assert by["b"]["count"] == 2
        assert by[None]["sum"] == 4
        assert rows[-1]["source"] is None  # null source sorts last

    def test_rollup_partial_matches_pandas(self):
        import numpy as np
        import pyarrow as pa

        from duckdb_raquet_ray.stages import encoder as enc

        rng = np.random.default_rng(2)
        t = pa.table(
            {
                "source": pa.array(rng.choice(["x", "y", None], size=200).tolist()),
                "n_tok": pa.array(rng.integers(1, 99, size=200), type=pa.int32()),
            }
        )
        rows = enc.source_rollup_partial(t)
        df = t.to_pandas()
        for r in rows:
            sub = df[df.source.isna()] if r["source"] is None else df[df.source == r["source"]]
            assert r["count"] == len(sub)
            assert r["sum"] == int(sub.n_tok.sum())
            assert r["min"] == int(sub.n_tok.min())
            assert r["max"] == int(sub.n_tok.max())

    def test_rollup_partial_nulls_match_pandas_reference(self):
        """Null sources form one group sorted last, count covers null
        values, and an all-null n_tok group reports None sum/min/max: the
        rows equal the pandas groupby the rollup used to be."""
        import numpy as np
        import pandas as pd
        import pyarrow as pa

        from duckdb_raquet_ray.stages import encoder as enc

        def reference(t):
            df = pd.DataFrame({"g": t.column("source").to_pandas(), "v": t.column("n_tok").to_pandas()})
            agg = df.groupby("g", dropna=False)["v"].agg(["size", "sum", "min", "max"])
            rows = []
            for g, r in agg.iterrows():
                all_null = pd.isna(r["min"])
                rows.append({
                    "source": None if pd.isna(g) else str(g),
                    "count": int(r["size"]),
                    "sum": None if all_null else int(r["sum"]),
                    "min": None if all_null else int(r["min"]),
                    "max": None if all_null else int(r["max"]),
                })
            rows.sort(key=lambda r: (r["source"] is None, r["source"]))
            return rows

        rng = np.random.default_rng(9)
        src = rng.choice(["web", "code", "books", "empty", None], size=500).tolist()
        n_tok = [
            None if s == "empty" or rng.random() < 0.2 else int(v)
            for s, v in zip(src, rng.integers(0, 5000, size=500))
        ]
        t = pa.table({"source": pa.array(src), "n_tok": pa.array(n_tok, pa.int32())})
        rows = enc.source_rollup_partial(t)
        assert rows == reference(t)
        assert rows[-1]["source"] is None
        assert {r["source"]: r["sum"] for r in rows}["empty"] is None

    def test_finalize_persists_rollups_and_reader_prefers_metadata(self, tmp_path):
        out = str(tmp_path)
        w = mf.ManifestWriter(out)
        w.append(self._entry(1, [{"source": "a", "count": 1, "sum": 7, "min": 7, "max": 7}]))
        w.append(self._entry(2, [{"source": "a", "count": 2, "sum": 4, "min": 1, "max": 3}]))
        meta = w.finalize("schema")
        w.close()
        assert meta["rollups"]["n_tok_by_source"][0]["sum"] == 11
        # reader answers from manifest.json without touching entries
        os.rename(os.path.join(out, "manifest.jsonl"), os.path.join(out, "gone"))
        rows = mf.source_rollup(out)
        assert rows == [{"source": "a", "count": 3, "sum": 11, "min": 1, "max": 7}]
