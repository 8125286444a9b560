"""BM25 (rational-idf, log-free) retrieval: DuckDB oracle parity,
partitioning invariance, ranking sanity, degenerate inputs."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from duckdb_raquet_ray.pipelines import retrieval


def _docs(n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "rare", "Mixed", "zz"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(1, 40)))
        for _ in range(n)
    ]
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
        }
    )


def _oracle(t: pa.Table, terms, top):
    con = duckdb.connect()
    con.register("docs", t)
    return con.execute(
        retrieval.bm25_oracle_sql("docs", terms=terms, top=top)
    ).fetchdf()


@pytest.mark.usefixtures("ray_session")
class TestBm25:
    def test_oracle_parity(self):
        t = _docs(250, seed=7)
        got = retrieval.bm25_topk(
            rd.from_arrow(t), ["rare", "beta", "mixed"], top=15
        ).to_pandas()
        want = _oracle(t, ["rare", "beta", "mixed"], 15)
        assert got["doc_id"].tolist() == want["doc_id"].tolist()
        assert got["score_micro"].tolist() == want["score_micro"].tolist()
        assert got["rank"].tolist() == want["rank"].tolist()

    def test_partitioning_invariance(self):
        t = _docs(300, seed=13)
        a = retrieval.bm25_topk(rd.from_arrow(t), ["alpha", "rare"], top=10)
        b = retrieval.bm25_topk(
            rd.from_arrow(t).repartition(17), ["alpha", "rare"], top=10
        )
        assert a.to_pandas().values.tolist() == b.to_pandas().values.tolist()

    def test_rare_term_outranks_common(self):
        # one doc holds the only occurrences of a rare term; a common term
        # appears everywhere — the rare-term doc must rank first
        texts = ["common word filler"] * 20 + ["needle needle common"]
        t = pa.table(
            {
                "doc_id": pa.array(np.arange(21, dtype=np.int64)),
                "text": pa.array(texts, pa.string()),
            }
        )
        out = retrieval.bm25_topk(rd.from_arrow(t), ["needle", "common"], top=3)
        assert out.column("doc_id")[0].as_py() == 20

    def test_case_insensitive_and_no_match(self):
        t = _docs(50, seed=3)
        up = retrieval.bm25_topk(rd.from_arrow(t), ["MIXED"], top=5).to_pandas()
        lo = retrieval.bm25_topk(rd.from_arrow(t), ["mixed"], top=5).to_pandas()
        assert up.values.tolist() == lo.values.tolist()
        none = retrieval.bm25_topk(rd.from_arrow(t), ["absentword"], top=5)
        assert none.num_rows == 0
        assert none.column_names == ["doc_id", "score_micro", "rank"]

    def test_empty_terms_raise(self):
        t = _docs(5, seed=1)
        with pytest.raises(ValueError):
            retrieval.bm25_topk(rd.from_arrow(t), [])


@pytest.mark.usefixtures("ray_session")
class TestTextIndex:
    def test_indexed_equals_direct(self, tmp_path):
        t = _docs(300, seed=19)
        idx = str(tmp_path / "tidx")
        meta = retrieval.build_text_index(rd.from_arrow(t), idx)
        assert meta["n_docs"] == 300
        terms = ["rare", "alpha", "mixed"]
        direct = retrieval.bm25_topk(rd.from_arrow(t), terms, top=12).to_pandas()
        indexed = retrieval.bm25_topk_indexed(idx, terms, top=12).to_pandas()
        assert direct.values.tolist() == indexed.values.tolist()

    def test_probe_opens_only_hashed_buckets(self, tmp_path):
        import glob
        import os

        t = _docs(200, seed=5)
        idx = str(tmp_path / "tidx")
        retrieval.build_text_index(rd.from_arrow(t), idx)
        # corrupt every postings bucket EXCEPT the probed terms' buckets:
        # the probe must still succeed (it never opens them)
        terms = ["rare"]
        keep = {
            int(b)
            for b in retrieval._term_bucket(
                np.array([s.lower() for s in terms], object)
            )
        }
        for d in glob.glob(os.path.join(idx, "tb=*")):
            b = int(d.rsplit("=", 1)[1])
            if b not in keep:
                for f in glob.glob(os.path.join(d, "*.parquet")):
                    with open(f, "wb") as fh:
                        fh.write(b"corrupt")
        out = retrieval.bm25_topk_indexed(idx, terms, top=5).to_pandas()
        want = retrieval.bm25_topk(rd.from_arrow(t), terms, top=5).to_pandas()
        assert out.values.tolist() == want.values.tolist()

    def test_absent_terms_empty(self, tmp_path):
        t = _docs(60, seed=2)
        idx = str(tmp_path / "tidx")
        retrieval.build_text_index(rd.from_arrow(t), idx)
        out = retrieval.bm25_topk_indexed(idx, ["absentword"], top=5)
        assert out.num_rows == 0
        assert out.column_names == ["doc_id", "score_micro", "rank"]


@pytest.mark.usefixtures("ray_session")
class TestAppendTextIndex:
    def test_append_equals_one_shot(self, tmp_path):
        t = _docs(240, seed=31)
        half_a = t.filter(
            pa.compute.equal(pa.compute.bit_wise_and(t["doc_id"], 1), 0)
        )
        half_b = t.filter(
            pa.compute.equal(pa.compute.bit_wise_and(t["doc_id"], 1), 1)
        )
        idx = str(tmp_path / "inc")
        retrieval.build_text_index(rd.from_arrow(half_a), idx)
        meta = retrieval.append_text_index(rd.from_arrow(half_b), idx)
        assert meta["n_docs"] == 240
        full = str(tmp_path / "full")
        retrieval.build_text_index(rd.from_arrow(t), full)
        terms = ["rare", "beta"]
        a = retrieval.bm25_topk_indexed(idx, terms, top=15).to_pandas()
        b = retrieval.bm25_topk_indexed(full, terms, top=15).to_pandas()
        assert a.values.tolist() == b.values.tolist()

    def test_old_files_untouched(self, tmp_path):
        import glob
        import os

        t = _docs(100, seed=8)
        idx = str(tmp_path / "inc")
        retrieval.build_text_index(
            rd.from_arrow(t.slice(0, 50)), idx
        )
        before = {
            f: os.path.getmtime(f)
            for f in glob.glob(os.path.join(idx, "tb=*", "*.parquet"))
        }
        retrieval.append_text_index(rd.from_arrow(t.slice(50)), idx)
        for f, m in before.items():
            assert os.path.getmtime(f) == m  # never rewritten


class TestRrfFuse:
    def _t(self, keys, col="doc_id"):
        import numpy as np
        import pyarrow as pa

        return pa.table(
            {
                col: pa.array(keys, pa.int64()),
                "rank": pa.array(
                    np.arange(1, len(keys) + 1), type=pa.int64()
                ),
            }
        )

    def test_overlap_scores_sum(self):
        from duckdb_raquet_ray.pipelines import retrieval as R

        out = R.rrf_fuse(self._t([5, 7]), self._t([7, 9], "vec_id"), k=10)
        d = {
            r["doc_id"]: (r["rrf_micro"], r["lex_rank"], r["vec_rank"])
            for r in out.to_pylist()
        }
        s = 1_000_000
        assert d[7] == (s // 62 + s // 61, 2, 1)  # both lists
        assert d[5] == (s // 61, 1, 0)
        assert d[9] == (s // 62, 0, 2)
        # 7 fused highest
        assert out.column("doc_id").to_pylist()[0] == 7

    def test_tie_breaks_by_key(self):
        from duckdb_raquet_ray.pipelines import retrieval as R

        # 3 and 4 both rank 1 in exactly one list -> equal score, key asc
        out = R.rrf_fuse(self._t([4]), self._t([3], "vec_id"), k=10)
        assert out.column("doc_id").to_pylist() == [3, 4]

    def test_matches_duckdb_full_outer(self):
        import duckdb

        from duckdb_raquet_ray.pipelines import retrieval as R

        lex, vec = self._t([1, 2, 3]), self._t([3, 4], "vec_id")
        mine = R.rrf_fuse(lex, vec, k=10).to_pandas()
        lex_sql = "SELECT * FROM (VALUES (1,1),(2,2),(3,3)) l(doc_id, rank)"
        vec_sql = "SELECT * FROM (VALUES (3,1),(4,2)) v(vec_id, rank)"
        ref = duckdb.sql(R.rrf_oracle_sql(lex_sql, vec_sql, k=10)).df()
        assert mine["doc_id"].tolist() == ref["doc_id"].tolist()
        assert mine["rrf_micro"].tolist() == ref["rrf_micro"].tolist()
        assert mine["lex_rank"].tolist() == ref["lex_rank"].tolist()
        assert mine["vec_rank"].tolist() == ref["vec_rank"].tolist()

    def test_k_truncates(self):
        from duckdb_raquet_ray.pipelines import retrieval as R

        out = R.rrf_fuse(self._t([1, 2, 3]), self._t([4, 5], "vec_id"), k=2)
        assert out.num_rows == 2


@pytest.mark.usefixtures("ray_session")
class TestPhraseSearch:
    def _docs(self):
        return pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        "the quick fox and the quick fox again",
                        "quick the fox",          # words present, order wrong
                        "THE QUICK fox",          # case-insensitive match
                        None,
                    ]
                ),
            }
        )

    def test_direct_counts(self):
        from duckdb_raquet_ray.pipelines import retrieval

        out = (
            retrieval.phrase_count(rd.from_arrow(self._docs()), ["the", "quick", "fox"])
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert out["n_phrase"].tolist() == [2, 0, 1, 0]

    def test_overlapping_occurrences(self):
        from duckdb_raquet_ray.pipelines import retrieval

        t = pa.table(
            {
                "doc_id": pa.array([0], pa.int64()),
                "text": pa.array(["a a a a"]),
            }
        )
        out = retrieval.phrase_count(rd.from_arrow(t), ["a", "a"]).to_pandas()
        assert out["n_phrase"].tolist() == [3]  # overlapping starts count

    def test_no_cross_doc_match(self):
        from duckdb_raquet_ray.pipelines import retrieval

        t = pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(["ends with alpha", "beta starts here"]),
            }
        )
        out = (
            retrieval.phrase_count(rd.from_arrow(t), ["alpha", "beta"])
            .to_pandas()
        )
        assert out["n_phrase"].sum() == 0

    def test_indexed_equals_direct(self, tmp_path):
        from duckdb_raquet_ray.pipelines import retrieval

        t = self._docs()
        idx = str(tmp_path / "pos")
        retrieval.build_positional_index(rd.from_arrow(t), idx)
        for phrase in (["the", "quick"], ["quick", "fox"], ["fox"], ["zzz"]):
            direct = (
                retrieval.phrase_count(rd.from_arrow(t), phrase)
                .to_pandas()
            )
            dmap = {
                int(r.doc_id): int(r.n_phrase)
                for r in direct.itertuples()
                if r.n_phrase > 0
            }
            it = retrieval.phrase_search_indexed(idx, phrase)
            imap = dict(
                zip(it.column("doc_id").to_pylist(), it.column("n_phrase").to_pylist())
            )
            assert imap == dmap, phrase

    def test_oracle_parity(self, tmp_path):
        import duckdb
        import pyarrow.parquet as pq

        from duckdb_raquet_ray.pipelines import retrieval

        t = self._docs()
        pq.write_table(t, tmp_path / "d.parquet")
        eng = (
            retrieval.phrase_count(rd.from_arrow(t), ["the", "quick"])
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW pd AS SELECT * FROM read_parquet('{tmp_path}/d.parquet')"
        )
        ora = (
            con.execute(retrieval.phrase_oracle_sql("pd", phrase=["the", "quick"]))
            .df().sort_values("doc_id").reset_index(drop=True)
        )
        assert eng["n_phrase"].tolist() == ora["n_phrase"].tolist()


@pytest.mark.usefixtures("ray_session")
class TestBm25Multi:
    def _docs(self):
        texts = [
            "vector merge dup stream table",
            "dup dup vector table query",
            "stream window stream window merge",
            "nothing relevant here at all",
            "query table merge dup",
        ]
        return pa.table(
            {
                "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                "text": pa.array(texts),
            }
        )

    def test_matches_single_query_path(self):
        from duckdb_raquet_ray.pipelines import retrieval

        t = self._docs()
        qs = {"a": ["dup", "vector"], "b": ["stream", "window"]}
        multi = retrieval.bm25_multi(rd.from_arrow(t), qs, top=5).to_pandas()
        for q, terms in qs.items():
            single = retrieval.bm25_topk(
                rd.from_arrow(t), terms, top=5
            ).to_pandas()
            sub = multi[multi["qid"] == q].reset_index(drop=True)
            assert sub["doc_id"].tolist() == single["doc_id"].tolist()
            assert sub["score_micro"].tolist() == single["score_micro"].tolist()
            assert sub["rank"].tolist() == single["rank"].tolist()

    def test_shared_terms_share_stats(self):
        # overlapping queries must not perturb each other's scores
        from duckdb_raquet_ray.pipelines import retrieval

        t = self._docs()
        solo = retrieval.bm25_multi(
            rd.from_arrow(t), {"x": ["merge"]}, top=5
        ).to_pandas()
        joint = retrieval.bm25_multi(
            rd.from_arrow(t), {"x": ["merge"], "y": ["merge", "table"]}, top=5
        ).to_pandas()
        jx = joint[joint["qid"] == "x"].reset_index(drop=True)
        assert jx["score_micro"].tolist() == solo["score_micro"].tolist()

    def test_validation(self):
        from duckdb_raquet_ray.pipelines import retrieval

        with pytest.raises(ValueError):
            retrieval.bm25_multi(rd.from_arrow(self._docs()), {})
        with pytest.raises(ValueError):
            retrieval.bm25_multi(rd.from_arrow(self._docs()), {"q": []})


def test_query_terms_lower_with_simple_mapping(ray_session):
    # query-side lowercase must use the SAME simple case mapping as the
    # document-side split (Arrow utf8_lower == DuckDB lower): Python's
    # full mapping turns 'İ' into 'i'+combining-dot, which would never
    # match the corpus word and silently score 0
    import pyarrow as pa
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import retrieval

    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["İSTANBUL is a big city", "nothing relevant here"]),
        }
    )
    out = retrieval.bm25_topk(rd.from_arrow(t), ["İSTANBUL"], top=2)
    assert out.num_rows == 1
    assert out.column("doc_id")[0].as_py() == 1
    # public phrase API lowers the phrase (the kernel itself takes it
    # pre-lowered — callers own the lowering)
    cnt = {
        r["doc_id"]: r["n_phrase"]
        for r in retrieval.phrase_count(
            rd.from_arrow(t), ["İSTANBUL", "is"]
        ).take_all()
    }
    assert cnt == {1: 1, 2: 0}
