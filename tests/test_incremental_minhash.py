"""Persisted MinHash-LSH band index + incremental near-dup append:
brute-force parity of the two drop rules, index-update equivalence,
retry idempotence, untouched-bucket guarantee, DuckDB oracle parity."""

from __future__ import annotations

import glob
import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from duckdb_raquet_ray.pipelines import dedup


def _docs(rows: list[tuple[int, str]]) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )


def _cells(table: pa.Table, **kw) -> set[tuple[int, int, int]]:
    t = dedup.minhash_band_rows(table, "text", "doc_id", **kw)
    return set(
        zip(
            t.column("doc_id").to_pylist(),
            t.column("band_id").to_pylist(),
            t.column("band_hash").to_pylist(),
        )
    )


def _brute_incremental(old: pa.Table, new: pa.Table, **kw) -> list[int]:
    """Sequential replica of the spec: old-cell collision drop, then the
    pairwise smaller-key rule among fresh survivors."""
    old_cells = {(b, h) for _, b, h in _cells(old, **kw)}
    new_cells: dict[int, set[tuple[int, int]]] = {}
    for k, b, h in _cells(new, **kw):
        new_cells.setdefault(k, set()).add((b, h))
    fresh = [k for k in new.column("doc_id").to_pylist()
             if not (new_cells[k] & old_cells)]
    kept = []
    for k in sorted(fresh):
        if not any(new_cells[k] & new_cells[j] for j in fresh if j < k):
            kept.append(k)
    order = {k: i for i, k in enumerate(new.column("doc_id").to_pylist())}
    keep_in_order = sorted(kept, key=lambda k: order[k])
    return keep_in_order


BASE = [
    (0, "the quick brown fox jumps over the lazy dog again and again"),
    (1, "pack my box with five dozen liquor jugs for the long trip"),
    (2, "how vexingly quick daft zebras jump over the fence at dawn"),
    (3, "sphinx of black quartz judge my vow before the winter ends"),
]
NEW = [
    (10, "the quick brown fox jumps over the lazy dog again and again x"),  # near-dup of 0
    (11, "a completely different document about distributed data engines"),
    (12, "a completely different document about distributed data engines y"),  # near-dup of 11
    (13, "yet another unique text with no overlap whatsoever in grams"),
]


@pytest.mark.usefixtures("ray_session")
class TestIncrementalMinhash:
    def test_matches_brute_force(self, tmp_path):
        idx = str(tmp_path / "idx")
        dedup.build_minhash_index(rd.from_arrow(_docs(BASE)), idx)
        out = dedup.incremental_minhash_dedup(rd.from_arrow(_docs(NEW)), idx)
        got = sorted(out.to_pandas()["doc_id"])
        assert got == sorted(_brute_incremental(_docs(BASE), _docs(NEW)))
        # the planted near-dup of an indexed doc must be gone, the
        # bigger-key new-new near-dup too, the unique docs kept
        assert 10 not in got and 12 not in got
        assert 11 in got and 13 in got

    def test_update_index_sees_previous_append(self, tmp_path):
        idx = str(tmp_path / "idx")
        dedup.build_minhash_index(rd.from_arrow(_docs(BASE)), idx)
        dedup.incremental_minhash_dedup(
            rd.from_arrow(_docs(NEW)), idx, update_index=True
        ).materialize()
        # a second append of a near-dup of doc 11 (kept + indexed above)
        third = _docs([(20, NEW[1][1] + " z"), (21, "fresh island text entirely new")])
        out = dedup.incremental_minhash_dedup(rd.from_arrow(third), idx)
        got = sorted(out.to_pandas()["doc_id"])
        assert got == [21]

    def test_without_update_second_append_keeps(self, tmp_path):
        idx = str(tmp_path / "idx")
        dedup.build_minhash_index(rd.from_arrow(_docs(BASE)), idx)
        dedup.incremental_minhash_dedup(rd.from_arrow(_docs(NEW)), idx).materialize()
        third = _docs([(20, NEW[1][1] + " z")])
        out = dedup.incremental_minhash_dedup(rd.from_arrow(third), idx)
        assert sorted(out.to_pandas()["doc_id"]) == [20]

    def test_duplicate_index_rows_harmless(self, tmp_path):
        # a retried build/append doubles rows; membership is unchanged
        idx = str(tmp_path / "idx")
        dedup.build_minhash_index(rd.from_arrow(_docs(BASE)), idx)
        dedup.build_minhash_index(rd.from_arrow(_docs(BASE)), idx)
        out = dedup.incremental_minhash_dedup(rd.from_arrow(_docs(NEW)), idx)
        assert sorted(out.to_pandas()["doc_id"]) == sorted(
            _brute_incremental(_docs(BASE), _docs(NEW))
        )

    def test_probe_opens_only_touched_buckets(self, tmp_path, monkeypatch):
        from duckdb_raquet_ray.state import bucket_index

        idx = str(tmp_path / "idx")
        dedup.build_minhash_index(rd.from_arrow(_docs(BASE)), idx)
        touched = {
            int(h) % dedup._INDEX_BUCKETS for _, _, h in _cells(_docs(NEW))
        }
        listed = []
        orig = bucket_index.bucket_files
        monkeypatch.setattr(
            bucket_index, "bucket_files",
            lambda d, buckets: orig(d, listed.extend(buckets) or buckets),
        )
        probe = dedup._BandProbe(idx, "text", "doc_id", 64, 16, 5)
        probe(_docs(NEW))
        assert set(probe._index._cache) <= touched
        assert listed and set(listed) <= touched

    def test_all_new_docs_near_dups_empty_result(self, tmp_path):
        idx = str(tmp_path / "idx")
        dedup.build_minhash_index(rd.from_arrow(_docs(BASE)), idx)
        clones = _docs([(50 + i, t + " q") for i, (_, t) in enumerate(BASE)])
        out = dedup.incremental_minhash_dedup(rd.from_arrow(clones), idx)
        assert out.count() == 0

    def test_oracle_parity(self, tmp_path):
        old_t, new_t = _docs(BASE), _docs(NEW)
        pq.write_table(old_t, tmp_path / "old.parquet")
        pq.write_table(new_t, tmp_path / "new.parquet")
        idx = str(tmp_path / "idx")
        dedup.build_minhash_index(rd.from_arrow(old_t), idx)
        eng = (
            dedup.incremental_minhash_dedup(rd.from_arrow(new_t), idx)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW oldc AS SELECT * FROM read_parquet('{tmp_path}/old.parquet')"
        )
        con.execute(
            f"CREATE VIEW newc AS SELECT * FROM read_parquet('{tmp_path}/new.parquet')"
        )
        ora = (
            con.execute(dedup.incremental_minhash_oracle_sql("newc", "oldc"))
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert list(eng["doc_id"]) == list(ora["doc_id"])
        assert list(eng["text"]) == list(ora["text"])


@pytest.mark.usefixtures("ray_session")
class TestContainmentDedup:
    def test_quote_case_jaccard_misses_containment_catches(self):
        long = (
            "a very long unique document zqxwv about container ships and "
            "ports kjhgf with plenty of extra prose mnbvc that dilutes any "
            "jaccard overlap far below threshold while the quote survives"
        )
        quote = "unique document zqxwv about container ships"
        t = _docs([(1, long), (2, quote), (3, "completely unrelated text")])
        kept_j = sorted(
            dedup.jaccard_dedup(rd.from_arrow(t), threshold=0.9)
            .to_pandas()["doc_id"]
        )
        kept_c = sorted(
            dedup.containment_dedup(rd.from_arrow(t), threshold=0.9)
            .to_pandas()["doc_id"]
        )
        assert kept_j == [1, 2, 3]  # jaccard blind to the quote
        assert kept_c == [1, 3]     # containment drops the contained quote

    def test_contained_doc_drops_not_container(self):
        long = "the quick brown fox jumps over the lazy dog again and again"
        sub = "brown fox jumps over the lazy"
        t = _docs([(10, sub), (11, long)])  # contained doc has SMALLER key
        kept = sorted(
            dedup.containment_dedup(rd.from_arrow(t), threshold=0.9)
            .to_pandas()["doc_id"]
        )
        assert kept == [11]  # the smaller-gram-set doc drops regardless of key

    def test_tie_drops_larger_key(self):
        text = "identical text shared by two docs exactly the same way"
        t = _docs([(5, text), (6, text)])
        kept = sorted(
            dedup.containment_dedup(rd.from_arrow(t), threshold=0.9)
            .to_pandas()["doc_id"]
        )
        assert kept == [5]

    def test_oracle_parity(self, tmp_path):
        rows = [
            (0, "the quick brown fox jumps over the lazy dog near the river"),
            (1, "brown fox jumps over the lazy"),          # contained in 0
            (2, "pack my box with five dozen liquor jugs"),
            (3, "box with five dozen"),                    # contained in 2
            (4, "sphinx of black quartz judge my vow tonight"),
        ]
        t = _docs(rows)
        pq.write_table(t, tmp_path / "c.parquet")
        eng = (
            dedup.containment_dedup(rd.from_arrow(t), threshold=0.9)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW cdocs AS SELECT * FROM read_parquet('{tmp_path}/c.parquet')"
        )
        ora = (
            con.execute(dedup.containment_oracle_sql("cdocs", threshold=0.9))
            .df().sort_values("doc_id").reset_index(drop=True)
        )
        assert list(eng["doc_id"]) == list(ora["doc_id"]) == [0, 2, 4]
