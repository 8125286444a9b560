"""Token-space transforms (mask/clip/map/stats/ndiff) goldens +
distributed Welford grouped stats vs exact numpy."""

import numpy as np
import pyarrow as pa
import pytest

from duckdb_raquet_ray.pipelines import transforms as tr


def make_batch(tokens, n_tok=None, extra=None):
    cols = {
        "doc_id": pa.array([f"d{i}" for i in range(len(tokens))]),
        "tokens": pa.array(tokens, type=pa.list_(pa.int32())),
        "n_tok": pa.array(
            n_tok or [len(t) if t is not None else 0 for t in tokens], type=pa.int32()
        ),
    }
    if extra:
        cols.update(extra)
    return pa.table(cols)


class TestMask:
    def test_range_golden(self):
        b = make_batch([[1, 5, 9], [10, 3]])
        out = tr.mask_tokens_range(b, low=3, high=9)
        assert out.column("tokens").to_pylist() == [[-1, 5, 9], [-1, 3]]

    def test_range_open_bounds(self):
        b = make_batch([[1, 5, 9]])
        assert tr.mask_tokens_range(b, low=None, high=5).column("tokens").to_pylist() == [[1, 5, -1]]
        assert tr.mask_tokens_range(b, low=5, high=None).column("tokens").to_pylist() == [[-1, 5, 9]]

    def test_list_golden(self):
        b = make_batch([[1, 2, 3, 4], [99, 2]])
        out = tr.mask_tokens_list(b, allowed=[2, 99])
        assert out.column("tokens").to_pylist() == [[-1, 2, -1, -1], [99, 2]]

    def test_eq_golden(self):
        b = make_batch([[7, 8, 7]])
        out = tr.mask_tokens_eq(b, value=7)
        assert out.column("tokens").to_pylist() == [[7, -1, 7]]

    def test_null_rows_preserved(self):
        b = make_batch([[1, 2], None, []])
        out = tr.mask_tokens_range(b, low=2, high=2)
        assert out.column("tokens").to_pylist() == [[-1, 2], None, []]

    def test_length_preserved_reencodable(self):
        """The re-encode closure: masked table still encodes/decodes
        bit-exactly (st_value_mask round-trip invariant)."""
        from duckdb_raquet_ray import blockcodec as bc
        from duckdb_raquet_ray import planner

        b = make_batch([[1, 2, 3], [4, 5], [6]])
        out = tr.mask_tokens_range(b, low=2, high=4)
        col = out.column("tokens").combine_chunks()
        blob, desc = bc.encode_array(col, planner.plan_array(col))
        assert bc.decode_array(blob, desc).equals(col)


class TestClip:
    def test_clip_golden(self):
        b = make_batch([[1, 5, 9], [10, 3], []])
        out = tr.clip_tokens(b, low=3, high=9)
        assert out.column("tokens").to_pylist() == [[5, 9], [3], []]
        assert out.column("n_tok").to_pylist() == [2, 1, 0]

    def test_clip_nulls(self):
        b = make_batch([[1, 5], None])
        out = tr.clip_tokens(b, low=5, high=5)
        assert out.column("tokens").to_pylist() == [[5], None]


class TestMap:
    def test_map_golden(self):
        mapping = np.arange(100) * 2
        b = make_batch([[1, 2], [50]])
        out = tr.map_tokens(b, mapping)
        assert out.column("tokens").to_pylist() == [[2, 4], [100]]

    def test_map_out_of_range_default(self):
        mapping = np.arange(10)
        b = make_batch([[5, 99]])
        out = tr.map_tokens(b, mapping, default=-7)
        assert out.column("tokens").to_pylist() == [[5, -7]]


class TestRamp:
    STOPS = [(0, 0), (100, 50), (200, 255)]

    def test_ramp_golden(self):
        b = make_batch([[0, 50, 100, 150, 200]])
        out = tr.ramp_tokens(b, stops=self.STOPS)
        # 50 -> 25, 150 -> halfway 50..255 = 152.5 -> round half up 153
        assert out.column("tokens").to_pylist() == [[0, 25, 50, 153, 255]]

    def test_outside_clamp_vs_nodata(self):
        b = make_batch([[-5, 300]])
        clamped = tr.ramp_tokens(b, stops=self.STOPS, outside="clamp")
        assert clamped.column("tokens").to_pylist() == [[0, 255]]
        nodata = tr.ramp_tokens(b, stops=self.STOPS, outside="nodata")
        assert nodata.column("tokens").to_pylist() == [[tr.SENTINEL, tr.SENTINEL]]

    def test_window_overrides_stops(self):
        b = make_batch([[0, 100, 200]])
        out = tr.ramp_tokens(b, stops=self.STOPS, vmin=50, vmax=150, outside="nodata")
        assert out.column("tokens").to_pylist() == [[tr.SENTINEL, 50, tr.SENTINEL]]

    def test_sentinel_passthrough_and_empty_rows(self):
        b = make_batch([[tr.SENTINEL, 10], [], None])
        out = tr.ramp_tokens(b, stops=self.STOPS)
        assert out.column("tokens").to_pylist() == [[tr.SENTINEL, 5], [], None]

    def test_round_half_up_matches_sql_floor(self):
        # code 152.5 must round UP (floor(x+0.5)), not banker's-round to 152
        b = make_batch([[150]])
        out = tr.ramp_tokens(b, stops=self.STOPS)
        assert out.column("tokens").to_pylist() == [[153]]

    def test_duplicate_stop_value(self):
        # a vertical segment (v1 == v0) must not divide by zero
        b = make_batch([[100]])
        out = tr.ramp_tokens(b, stops=[(0, 0), (100, 50), (100, 80), (200, 255)])
        assert out.column("tokens").to_pylist()[0][0] in (50, 80)


class TestTokenStats:
    def test_golden(self):
        b = make_batch([[1, 2, 3, 4], [], [7]])
        out = tr.token_stats(b)
        assert out.column("tok_count").to_pylist() == [4, 0, 1]
        assert out.column("tok_min").to_pylist() == [1, 0, 7]
        assert out.column("tok_max").to_pylist() == [4, 0, 7]
        assert out.column("tok_sum").to_pylist() == [10, 0, 7]
        assert out.column("tok_mean").to_pylist() == [2.5, 0.0, 7.0]

    def test_sentinel_skipped(self):
        b = make_batch([[1, -1, 3], [-1]])
        out = tr.token_stats(b, sentinel=-1)
        assert out.column("tok_count").to_pylist() == [2, 0]
        assert out.column("tok_sum").to_pylist() == [4, 0]
        assert out.column("tok_min").to_pylist() == [1, 0]

    def test_random_vs_numpy(self):
        rng = np.random.default_rng(5)
        tokens = [rng.integers(0, 1000, size=rng.integers(0, 30)).tolist() for _ in range(200)]
        b = make_batch(tokens)
        out = tr.token_stats(b)
        for i, t in enumerate(tokens):
            if t:
                assert out.column("tok_min")[i].as_py() == min(t)
                assert out.column("tok_max")[i].as_py() == max(t)
                assert out.column("tok_sum")[i].as_py() == sum(t)


class TestNdiff:
    def test_golden_and_zero_rule(self):
        b = pa.table({"a": pa.array([4.0, 0.0, 1.0]), "b": pa.array([2.0, 0.0, 3.0])})
        out = tr.ndiff_columns(b, "a", "b")
        nd = out.column("ndiff").to_pylist()
        assert nd[0] == pytest.approx((4 - 2) / 6)
        assert nd[1] == 0.0  # 0/0 -> 0
        assert nd[2] == pytest.approx(-0.5)


class TestGroupedStats:
    def test_vs_numpy(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats as st

        rng = np.random.default_rng(11)
        keys = rng.choice(["a", "b", "c"], size=5000)
        vals = rng.normal(10, 3, size=5000)
        t = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
        ds = rd.from_arrow(t)
        res = {r["k"]: r for r in st.grouped_stats(ds, "k", "v").take_all()}
        for k in ("a", "b", "c"):
            m = vals[keys == k]
            assert res[k]["cnt"] == len(m)
            assert res[k]["mean_v"] == pytest.approx(m.mean(), rel=1e-9)
            assert res[k]["std_v"] == pytest.approx(m.std(ddof=1), rel=1e-9)
            assert res[k]["min_v"] == m.min()
            assert res[k]["max_v"] == m.max()


class TestExplodeAndPosweight:
    def _fixture(self):
        return pa.table(
            {
                "doc_id": ["a", "b", "c"],
                "n_tok": pa.array([3, 0, 2], type=pa.int32()),
                "source": ["x", "y", "z"],
                "tokens": pa.array([[5, 6, 7], [], [10, 40]], type=pa.list_(pa.int32())),
            }
        )

    def test_explode_long_format(self):
        out = tr.explode_tokens(self._fixture())
        assert out.column("doc_id").to_pylist() == ["a", "a", "a", "c", "c"]
        assert out.column("pos").to_pylist() == [0, 1, 2, 0, 1]
        assert out.column("token").to_pylist() == [5, 6, 7, 10, 40]

    def test_posweight_matches_python(self):
        t = self._fixture()
        out = tr.position_weighted(t)
        expect = [sum(i * v for i, v in enumerate(row)) for row in t.column("tokens").to_pylist()]
        assert out.column("posw").to_pylist() == expect
        assert out.column("doc_id").to_pylist() == ["a", "b", "c"]

    def test_posweight_order_sensitive(self):
        t = self._fixture()
        swapped = pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_tok": t.column("n_tok"),
                "source": t.column("source"),
                "tokens": pa.array([[6, 5, 7], [], [10, 40]], type=pa.list_(pa.int32())),
            }
        )
        a = tr.position_weighted(t).column("posw").to_pylist()
        b = tr.position_weighted(swapped).column("posw").to_pylist()
        assert a[0] != b[0] and a[1:] == b[1:]

    def test_posweight_null_elements_contribute_zero(self):
        t = pa.table(
            {
                "doc_id": ["a"],
                "tokens": pa.array([[7, None, 3]], type=pa.list_(pa.int32())),
            }
        )
        assert tr.position_weighted(t, id_cols=("doc_id",)).column("posw").to_pylist() == [6]


class TestValueHistogram:
    def test_vocab_topk_matches_bruteforce(self, ray_session):
        import collections

        import ray.data as rd

        from duckdb_raquet_ray.stages import stats as st

        rng = np.random.default_rng(7)
        rows = [rng.integers(0, 50, size=rng.integers(1, 30)).tolist() for _ in range(400)]
        t = pa.table({"tokens": pa.array(rows, type=pa.list_(pa.int32()))})
        got = st.vocab_topk(rd.from_arrow(t), vocab_size=50, k=10).to_pandas()
        counts = collections.Counter(x for r in rows for x in r)
        want = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        assert list(zip(got["token"], got["cnt"])) == want

    def test_seqlen_quantiles_percentile_disc(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats as st

        vals = np.concatenate([np.full(50, 3), np.full(30, 10), np.full(20, 99)])
        t = pa.table({"n_tok": pa.array(vals, type=pa.int32())})
        q = st.seqlen_quantiles(rd.from_arrow(t), max_len=128)
        # percentile_disc: value at 1-indexed rank ceil(p*n), n=100
        assert q.iloc[0].to_dict() == {"p25": 3, "p50": 3, "p75": 10, "p90": 99, "p99": 99}


class TestStatsPushdown:
    """Aggregate pushdown over the encoded form (rowcodec.stats_child /
    decode.read_encoded_token_stats) must equal decode + token_stats."""

    def _encode_tmp(self, tmp_path, tokens, dtype=pa.int32()):
        import pyarrow.parquet as pq

        from duckdb_raquet_ray.pipelines import encode

        t = pa.table({
            "doc_id": pa.array([f"d{i}" for i in range(len(tokens))]),
            "tokens": pa.array(tokens, type=pa.list_(dtype)),
            "n_tok": pa.array([len(x) if x is not None else 0 for x in tokens], pa.int32()),
        })
        src = str(tmp_path / "in.parquet")
        pq.write_table(t, src)
        out = str(tmp_path / "enc")
        encode.encode_job([src], out, target_part_bytes=1 << 20)
        return out, t

    def _assert_matches(self, out):
        import functools

        from duckdb_raquet_ray.pipelines import decode
        from duckdb_raquet_ray.pipelines import transforms as tr

        cols = ["doc_id", "n_tok", "tok_count", "tok_min", "tok_max", "tok_sum"]
        fast = decode.read_encoded_token_stats(out).to_pandas()[cols]
        full = decode.read_encoded(out, transform=functools.partial(
            tr.token_stats)).to_pandas()[cols]
        fast = fast.sort_values("doc_id").reset_index(drop=True)
        full = full.sort_values("doc_id").reset_index(drop=True)
        assert fast.equals(full)

    def test_fast_path_matches_full_decode(self, ray_session, tmp_path):
        rng = np.random.default_rng(2)
        tokens = [rng.integers(0, 50_000, size=rng.integers(0, 40)).tolist()
                  for _ in range(300)]
        tokens[7] = []  # empty row exercises the sentinel semantics
        out, _ = self._encode_tmp(tmp_path, tokens)
        self._assert_matches(out)

    def test_negative_values_fall_back_correctly(self, ray_session, tmp_path):
        # negative int32 values violate the no-wrap gate in some partitions;
        # output must STILL match (silent fallback to full decode)
        rng = np.random.default_rng(3)
        tokens = [rng.integers(-1000, 1000, size=rng.integers(1, 30)).tolist()
                  for _ in range(200)]
        out, _ = self._encode_tmp(tmp_path, tokens)
        self._assert_matches(out)

    def test_null_lists_fall_back(self, ray_session, tmp_path):
        tokens = [[1, 2, 3], None, [5], [7, 8]]
        out, _ = self._encode_tmp(tmp_path, tokens)
        from duckdb_raquet_ray.pipelines import decode

        got = decode.read_encoded_token_stats(out).to_pandas().sort_values("doc_id")
        assert got.tok_count.tolist() == [3, 0, 1, 2]
        assert got.tok_sum.tolist() == [6, 0, 5, 15]


class TestGroupedTopk:
    """Per-group token top-k (stages/stats.py:grouped_topk): brute-force
    equality, exact ties (cnt desc / token asc), bucket-count invariance."""

    def _table(self):
        rng = np.random.default_rng(3)
        rows, srcs, toks = 60, [], []
        for i in range(rows):
            src = f"s{i % 3}"
            srcs.append(src)
            toks.append(rng.integers(0, 40, size=rng.integers(1, 30)).tolist())
        return pa.table(
            {
                "source": pa.array(srcs),
                "tokens": pa.array(toks, pa.list_(pa.int64())),
            }
        )

    def _brute(self, t, k):
        import collections

        cnt: dict = collections.defaultdict(collections.Counter)
        for s, ts in zip(t.column("source").to_pylist(), t.column("tokens").to_pylist()):
            cnt[s].update(ts)
        out = []
        for s in sorted(cnt):
            ranked = sorted(cnt[s].items(), key=lambda kv: (-kv[1], kv[0]))[:k]
            out.extend((s, tok, c) for tok, c in ranked)
        return out

    def test_matches_bruteforce(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats as st

        t = self._table()
        got = (
            st.grouped_topk(rd.from_arrow(t), vocab_size=50, k=5)
            .to_pandas()
            .sort_values(["source", "cnt", "token"], ascending=[True, False, True])
        )
        want = self._brute(t, 5)
        assert list(zip(got["source"], got["token"], got["cnt"])) == want

    def test_bucket_count_invariance(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats as st

        t = self._table()
        a = (
            st.grouped_topk(rd.from_arrow(t), vocab_size=50, k=5, n_buckets=2)
            .to_pandas()
            .sort_values(["source", "cnt", "token"])
            .reset_index(drop=True)
        )
        b = (
            st.grouped_topk(rd.from_arrow(t), vocab_size=50, k=5, n_buckets=61)
            .to_pandas()
            .sort_values(["source", "cnt", "token"])
            .reset_index(drop=True)
        )
        assert a.equals(b)


class TestBigramLm:
    """Token-bigram LM (stages/stats.py:bigram_topk + bigram_lm_score):
    brute-force equality, exact top-k ties (cnt desc / key asc), bucket
    invariance, bounded driver state, <2-token docs."""

    def _table(self, rows=80, seed=7):
        rng = np.random.default_rng(seed)
        ids, toks = [], []
        for i in range(rows):
            ids.append(f"d{i:03d}")
            n = int(rng.integers(0, 12))  # includes 0- and 1-token docs
            toks.append(rng.integers(0, 25, size=n).tolist())
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "tokens": pa.array(toks, pa.list_(pa.int32())),
            }
        )

    @staticmethod
    def _brute_lm(t, k):
        import collections

        cnt: collections.Counter = collections.Counter()
        for ts in t.column("tokens").to_pylist():
            for a, b in zip(ts, ts[1:]):
                cnt[(a << 32) | b] += 1
        ranked = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        return dict(ranked)

    def test_table_matches_bruteforce(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats as st

        t = self._table()
        keys, cnts = st.bigram_topk(rd.from_arrow(t), k=10, n_buckets=7)
        want = self._brute_lm(t, 10)
        assert dict(zip(keys.tolist(), cnts.tolist())) == want
        assert list(keys) == sorted(keys)  # sorted for searchsorted probes

    def test_bucket_count_invariance(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats as st

        t = self._table()
        a = st.bigram_topk(rd.from_arrow(t), k=10, n_buckets=2)
        b = st.bigram_topk(rd.from_arrow(t), k=10, n_buckets=61)
        assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()

    def test_score_matches_bruteforce(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats as st

        t = self._table()
        lm = self._brute_lm(t, 10)
        keys = np.array(sorted(lm), dtype=np.int64)
        table = (keys, np.array([lm[k] for k in keys], dtype=np.int64))
        got = (
            st.bigram_lm_score(rd.from_arrow(t), table)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        for _, row in got.iterrows():
            ts = t.column("tokens").to_pylist()[int(row["doc_id"][1:])]
            bgs = [(a << 32) | b for a, b in zip(ts, ts[1:])]
            assert row["n_bigrams"] == len(bgs)
            assert row["n_hit"] == sum(k in lm for k in bgs)
            assert row["hit_sum"] == sum(lm.get(k, 0) for k in bgs)

    def test_driver_rows_bounded(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats as st

        t = self._table(rows=300, seed=11)
        st.bigram_topk(rd.from_arrow(t).repartition(16), k=5, n_buckets=3)
        # driver holds at most n_buckets x k capped rows, never raw partials
        assert st.LAST_BIGRAM_DRIVER_ROWS <= 3 * 5

    def test_empty_and_short_docs(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats as st

        t = pa.table(
            {
                "doc_id": pa.array(["a", "b", "c"]),
                "tokens": pa.array([[], [5], [1, 2]], pa.list_(pa.int32())),
            }
        )
        keys, cnts = st.bigram_topk(rd.from_arrow(t), k=10, n_buckets=3)
        assert keys.tolist() == [(1 << 32) | 2] and cnts.tolist() == [1]
        got = (
            st.bigram_lm_score(rd.from_arrow(t), (keys, cnts))
            .to_pandas()
            .sort_values("doc_id")
        )
        assert got["n_bigrams"].tolist() == [0, 0, 1]
        assert got["hit_sum"].tolist() == [0, 0, 1]


def test_numeric_profile_with_nulls(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as st

    t = pa.table(
        {
            "a": pa.array([1, None, 3, None], pa.int64()),
            "b": pa.array([2.5, 0.5, None, 4.0], pa.float64()),
        }
    )
    out = (
        st.numeric_profile(rd.from_arrow(t), ["a", "b"])
        .to_pandas()
        .set_index("col")
    )
    assert out.loc["a"].tolist() == [4, 2, 1.0, 3.0, 4.0]
    assert out.loc["b"].tolist() == [4, 1, 0.5, 4.0, 7.0]


class TestGroupedMadOutliers:
    """Robust per-group median/MAD outlier stats: exact-integer goldens,
    SQL parity, bucket invariance, null handling, domain guard."""

    def _table(self):
        import pyarrow as pa

        return pa.table(
            {
                "source": pa.array(["a"] * 5 + ["b"] * 4 + [None, "a"]),
                "n_tok": pa.array([1, 2, 3, 4, 100, 7, 7, 7, 7, 9, None], pa.int64()),
            }
        )

    def test_goldens(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats

        out = {
            r["source"]: (r["med2"], r["mad4"], r["n_rows"], r["n_outliers"])
            for r in stats.grouped_mad_outliers(rd.from_arrow(self._table())).take_all()
        }
        # a: values 1,2,3,4,100 (null dropped) -> median 3, MAD 1, outlier 100
        assert out["a"] == (6, 4, 5, 1)
        # b: constant 7s -> MAD 0, no deviation, no outliers
        assert out["b"] == (14, 0, 4, 0)
        # null group folds to '': single value 9
        assert out[""] == (18, 0, 1, 0)

    def test_sql_parity_and_bucket_invariance(self, ray_session):
        import duckdb
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats

        rng = np.random.default_rng(11)
        n = 2000
        t = pa.table(
            {
                "source": pa.array(rng.choice(["w", "c", "b"], n)),
                "n_tok": pa.array(rng.integers(0, 900, n), pa.int64()),
            }
        )
        key = ["med2", "mad4", "n_rows", "n_outliers"]
        eng = (
            stats.grouped_mad_outliers(rd.from_arrow(t))
            .to_pandas().sort_values("source").reset_index(drop=True)
        )
        e2 = (
            stats.grouped_mad_outliers(rd.from_arrow(t), n_buckets=3)
            .to_pandas().sort_values("source").reset_index(drop=True)
        )
        assert eng[key].equals(e2[key])
        con = duckdb.connect()
        con.register("corpus", t)
        ora = (
            con.execute(stats.grouped_mad_oracle_sql("corpus"))
            .df().sort_values("source").reset_index(drop=True)
        )
        for c in key:
            assert eng[c].astype("int64").tolist() == ora[c].astype("int64").tolist(), c

    def test_domain_guard(self, ray_session):
        import pyarrow as pa
        import pytest as _pytest
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats

        t = pa.table(
            {"source": pa.array(["a"]), "n_tok": pa.array([-1], pa.int64())}
        )
        with _pytest.raises(Exception, match="outside"):
            stats.grouped_mad_outliers(rd.from_arrow(t)).take_all()


class TestGroupedTopkRows:
    def _t(self):
        import pyarrow as pa

        return pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
                "source": pa.array(["a", "a", "a", "b", "b", None, "a"]),
                "n_chars": pa.array([10, 30, 20, 5, 5, 9, None], pa.int64()),
            }
        )

    def test_goldens_and_ties(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats

        out = {
            (r["source"], r["rank"]): r["doc_id"]
            for r in stats.grouped_topk_rows(
                rd.from_arrow(self._t()), "source", "n_chars", k=2
            ).take_all()
        }
        # a: 30 (doc 2), 20 (doc 3); null order value (doc 7) never ranks
        assert out[("a", 1)] == 2 and out[("a", 2)] == 3
        # b: tie at 5 -> key ascending
        assert out[("b", 1)] == 4 and out[("b", 2)] == 5
        # null group folds to ''
        assert out[("", 1)] == 6

    def test_sql_parity_and_partition_invariance(self, ray_session):
        import duckdb
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats

        rng = np.random.default_rng(9)
        n = 3000
        t = pa.table(
            {
                "doc_id": pa.array(np.arange(n), pa.int64()),
                "source": pa.array(rng.choice(["x", "y", "z"], n)),
                "n_chars": pa.array(rng.integers(0, 50, n), pa.int64()),
            }
        )
        key = ["source", "doc_id", "n_chars", "rank"]
        eng = (
            stats.grouped_topk_rows(rd.from_arrow(t), "source", "n_chars", k=5)
            .to_pandas().sort_values(["source", "rank"]).reset_index(drop=True)
        )
        e2 = (
            stats.grouped_topk_rows(
                rd.from_arrow(t).repartition(7), "source", "n_chars", k=5
            )
            .to_pandas().sort_values(["source", "rank"]).reset_index(drop=True)
        )
        assert eng[key].equals(e2[key])
        con = duckdb.connect()
        con.register("documents", t)
        ora = (
            con.execute(
                stats.grouped_topk_rows_oracle_sql("documents", "source", "n_chars", k=5)
            )
            .df().sort_values(["source", "rank"]).reset_index(drop=True)
        )
        for c in key:
            assert eng[c].tolist() == ora[c].tolist(), c

    def test_ascending_mode(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats

        out = stats.grouped_topk_rows(
            rd.from_arrow(self._t()), "source", "n_chars", k=1, descending=False
        ).to_pandas().set_index("source")
        assert out.loc["a", "doc_id"] == 1  # smallest n_chars in group a


class TestGroupedCountDistinct:
    def test_goldens_nulls_and_bucket_invariance(self, ray_session):
        import duckdb
        import pyarrow as pa
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats

        t = pa.table(
            {
                "g": pa.array(["a", "a", "a", "b", None, "b"]),
                "v": pa.array([1, 1, 2, 7, 9, None], pa.int64()),
            }
        )
        out = {
            r["g"]: r["n_distinct"]
            for r in stats.grouped_count_distinct(
                rd.from_arrow(t), "g", "v"
            ).take_all()
        }
        assert out == {"a": 2, "b": 1, "": 1}  # null v ignored, null g -> ''
        o2 = {
            r["g"]: r["n_distinct"]
            for r in stats.grouped_count_distinct(
                rd.from_arrow(t).repartition(3), "g", "v", n_buckets=2
            ).take_all()
        }
        assert o2 == out
        con = duckdb.connect()
        con.register("t", t)
        ora = dict(
            con.execute(
                stats.grouped_count_distinct_oracle_sql("t", "g", "v")
            ).fetchall()
        )
        assert ora == out

    def test_non_hashable_value_type_refused_loudly(self, ray_session):
        import pyarrow as pa
        import pytest
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats

        t = pa.table(
            {"g": pa.array(["a", "b"]), "v": pa.array([1.0, 2.5], pa.float64())}
        )
        # distinctness is computed on string renderings; float/decimal/
        # binary renderings can diverge from COUNT(DISTINCT) -> loud refusal
        with pytest.raises(ValueError, match="integer/string/boolean"):
            stats.grouped_count_distinct(rd.from_arrow(t), "g", "v")


class TestEmptyGroupSchemaPinning:
    """0-COLUMN blocks in bucketed (util.bucketed) output streams.

    Ray's sort machinery emits `pyarrow_table_from_pydict({})` — a
    0-column, 0-row block — for every EMPTY sort partition
    (ray/data/_internal/arrow_block.py:394, Ray 2.49). Ray slices groups
    only out of non-empty sorted blocks, and its map operators SKIP
    0-row blocks without calling the UDF, so neither a group UDF nor a
    trailing `map_batches` ever sees an empty batch: the package keeps no
    empty-input guards in such UDFs and no schema-pinning stage after a
    shuffle. That is also the source of the cosmetic
    `streaming_executor_state` "different schema … new schema: ."
    warnings in the bench tail.

    What this repo guarantees instead, pinned here: every block our
    group UDFs actually PRODUCE carries the operator's full typed
    schema; the only schema-less blocks in the stream are Ray's own
    zero-row empties, which no downstream consumer ever reads rows
    from. A Ray upgrade that starts handing UDFs empty batches fails
    `test_udfs_never_see_empty_batches` loudly."""

    def test_udfs_never_see_empty_batches(self, ray_session):
        import ray

        import pyarrow as pa
        import ray.data as rd

        from duckdb_raquet_ray import util

        # one row per CALL, recording the batch the UDF was handed: an
        # empty-input call would surface as a 0 in the output
        def seen(t: pa.Table) -> pa.Table:
            return pa.table(
                {"rows": [t.num_rows], "cols": [t.num_columns]}
            )

        # 3 rows, 2 keys, 6 blocks: most sort partitions are empty
        t = pa.table({"_b": pa.array([0, 1, 1], pa.int32()), "v": [1, 2, 3]})
        grouped = util.bucketed(rd.from_arrow(t).repartition(6), "_b", seen).materialize()
        blocks = [ray.get(ref) for ref in _block_refs(grouped)]
        assert sum(b.num_rows == 0 for b in blocks) > 0  # Ray did emit empties
        calls = pa.concat_tables([b for b in blocks if b.num_rows])
        assert sorted(calls.column("rows").to_pylist()) == [1, 2]
        assert min(calls.column("cols").to_pylist()) == 2

        trailing = grouped.map_batches(seen, batch_format="pyarrow").take_all()
        assert trailing and all(r["rows"] > 0 and r["cols"] > 0 for r in trailing)

        # a map_batches UDF over an empty typed input is never called
        empty = rd.from_arrow(t.slice(0, 0)).map_batches(seen, batch_format="pyarrow")
        assert empty.take_all() == []

    def test_grouped_stats_block_schemas(self, ray_session, tmp_path):
        import ray

        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data as rd

        from duckdb_raquet_ray.pipelines import (
            cluster, cms, dedup, graph, joins, packing, quality, sampling,
        )
        from duckdb_raquet_ray.stages import stats

        # 2 groups through MANY buckets -> most sort partitions are
        # empty -> Ray emits 0-column empties alongside our real blocks
        t = pa.table(
            {
                "g": pa.array(["a", "b"] * 20),
                "v": pa.array(list(range(40)), pa.int64()),
                "k": pa.array(list(range(40)), pa.int64()),
                "tok": pa.array(
                    [[i % 5, (i + 1) % 5] for i in range(40)], pa.list_(pa.int64())
                ),
                "text": pa.array([f"w{i % 7} x y z w{i % 3}" for i in range(40)]),
                "emb": pa.array(
                    [[float(i % 3), 1.0, float(i % 2)] for i in range(40)],
                    pa.list_(pa.float32()),
                ),
                "n_tok": pa.array([2] * 40, pa.int64()),
            }
        )
        ds = rd.from_arrow(t).repartition(4)
        shard = str(tmp_path / "shard.parquet")
        pq.write_table(t.select(["tok", "n_tok"]), shard)
        edges = rd.from_arrow(
            pa.table({"src": [f"s{i % 5}" for i in range(40)],
                      "dst": [f"s{i % 3}" for i in range(40)]})
        ).repartition(4)
        quants = {"p25", "p50", "p75", "p90", "p99"}
        for name, build, want_cols in (
            ("hist", lambda: stats.value_histogram(ds, "tok", 5, flatten=True),
             {"value", "cnt"}),
            ("gtopk", lambda: stats.grouped_topk(ds, "g", "tok", 5, k=2, n_buckets=16),
             {"g", "token", "cnt"}),
            ("bigram", lambda: stats._bigram_buckets(ds, "tok", 10, 16),
             {"key", "cnt"}),
            ("quantiles", lambda: stats.grouped_quantiles(ds, "g", "v", n_buckets=16),
             {"g"} | quants),
            ("quantiles_cont",
             lambda: stats.grouped_quantiles_cont(ds, "g", "v", n_buckets=16),
             {"g"} | {q.replace("p", "q") for q in quants}),
            ("entropy",
             lambda: stats.grouped_token_entropy(ds, "g", "tok", 5, n_buckets=16),
             {"g", "n_tokens", "n_distinct", "entropy_bits"}),
            ("kl", lambda: stats.grouped_kl_divergence(ds, "g", "tok", 5, n_buckets=16),
             {"g", "n_tokens", "kl_bits"}),
            ("mad", lambda: stats.grouped_mad_outliers(ds, "g", "v", n_buckets=16),
             {"g", "med2", "mad4", "n_rows", "n_outliers"}),
            ("distinct", lambda: stats.grouped_count_distinct(ds, "g", "v", n_buckets=16),
             {"g", "n_distinct"}),
            ("topk", lambda: stats.grouped_topk_rows(ds, "g", "v", k=2, key_col="k", n_buckets=16),
             {"g", "v", "k", "rank"}),
            # one bucketed case from each module that shuffles through
            # util.bucketed
            ("stratified", lambda: sampling.stratified_sample(ds, 3, "g", "k", n_buckets=16),
             {"g", "k"}),
            ("cluster", lambda: cluster.cluster_balanced_sample(
                ds, vec_col="emb", key_col="k", k=2, iters=1, per_cluster=3),
             {"cluster", "k"}),
            ("exact_dedup", lambda: dedup.exact_dedup(ds, "text", "k", n_buckets=16),
             set(t.schema.names)),
            ("cms", lambda: cms.cms_registers(ds, "tok", w=8, d=2), {"cell", "cnt"}),
            ("packing", lambda: packing.window_doc_spans([shard], window=8, n_buckets=16),
             {"window_id", "n_segs", "seg_lens", "spans_checksum"}),
            ("dup_spans", lambda: quality.remove_dup_spans(
                ds, text_col="text", key_col="k", n=2, n_buckets=16),
             {"k", "text", "n_removed"}),
            ("pagerank", lambda: graph.domain_pagerank(
                edges, n_buckets=16, edge_driver_limit=0), {"domain", "rank"}),
            ("session", lambda: joins.session_windows(ds, "g", "v", 3, "k", n_buckets=16),
             {"g", "session_id", "n_events", "start_us", "end_us"}),
        ):
            out = build().materialize()
            real, ray_empties = [], 0
            for ref in _block_refs(out):
                blk = ray.get(ref)
                if blk.num_columns == 0:
                    # Ray-internal empty-sort-partition block: must
                    # carry no rows (harmless by construction)
                    assert blk.num_rows == 0, name
                    ray_empties += 1
                else:
                    real.append(blk)
            assert real, name
            for blk in real:
                assert set(blk.schema.names) == want_cols, (name, blk.schema.names)


def _block_refs(ds):
    return [ref for bundle in ds.iter_internal_ref_bundles() for ref, _meta in bundle.blocks]


def _group_coding_table():
    rng = np.random.default_rng(5)
    n = 300
    src = np.array(["a", "b", "", None, "c"], dtype=object)[rng.integers(0, 5, n)]
    n_tok = rng.integers(0, 40, n).astype(object)
    n_tok[rng.random(n) < 0.15] = None
    toks = [
        None if rng.random() < 0.05 else rng.integers(0, 20, rng.integers(0, 8)).tolist()
        for _ in range(n)
    ]
    return pa.table(
        {
            "source": pa.array(src, pa.string()),
            "n_tok": pa.array(n_tok, pa.int64()),
            "tokens": pa.array(toks, pa.list_(pa.int64())),
        }
    )


def _canon(df, cols):
    """sweep_oracles canonicalization: ints exact, floats at %.9g, sorted rows."""
    return sorted(
        tuple(
            v if isinstance(v, str) else ("%.9g" % v if isinstance(v, float) else int(v))
            for v in row
        )
        for row in df[cols].itertuples(index=False)
    )


def test_util_bucketed_is_the_only_map_groups_site():
    """Every wide step shuffles through util.bucketed, so the shuffle
    algorithm is chosen in one place: no other `.map_groups(` call may
    appear in the package."""
    import ast
    import inspect
    import pathlib

    import duckdb_raquet_ray
    from duckdb_raquet_ray import util

    root = pathlib.Path(duckdb_raquet_ray.__file__).parent
    sites = [
        (path.relative_to(root).as_posix(), node.lineno)
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "map_groups"
    ]
    lines, first = inspect.getsourcelines(util.bucketed)
    assert len(sites) == 1, sites
    (where, line), = sites
    assert where == "util.py" and first <= line < first + len(lines), sites


class TestBucketedCore:
    """The shared partial -> `_b` bucket -> run merge -> finalize core."""

    def test_group_codes_match_factorize(self):
        import pandas as pd

        from duckdb_raquet_ray.stages import stats

        rng = np.random.default_rng(0)
        keys = np.array(["x", "", None, "yy", "zé"], dtype=object)
        vals = keys[rng.integers(0, len(keys), 5000)]
        col = pa.chunked_array([pa.array(vals[:2500]), pa.array(vals[2500:])])
        codes, groups = stats._group_codes(col, "g")
        want_codes, want_groups = pd.factorize(col.to_pandas().fillna(""), sort=False)
        assert codes.dtype == np.int64
        assert codes.tolist() == want_codes.tolist()
        assert groups.tolist() == want_groups.tolist()  # first-appearance order

    @pytest.mark.parametrize(
        "op", ["quantiles", "quantiles_cont", "entropy"]
    )
    @pytest.mark.parametrize("n_buckets", [1, 7])
    def test_histogram_ops_match_sql_twin(self, ray_session, op, n_buckets):
        import duckdb
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats

        t = _group_coding_table()
        ds = rd.from_arrow(t).repartition(3)
        engine, sql = {
            "quantiles": (
                lambda: stats.grouped_quantiles(ds, n_buckets=n_buckets),
                stats.grouped_quantiles_oracle_sql("t"),
            ),
            "quantiles_cont": (
                lambda: stats.grouped_quantiles_cont(ds, n_buckets=n_buckets),
                stats.grouped_quantiles_cont_oracle_sql("t"),
            ),
            "entropy": (
                lambda: stats.grouped_token_entropy(ds, vocab_size=20, n_buckets=n_buckets),
                stats.grouped_entropy_oracle_sql("t"),
            ),
        }[op]
        got = engine().to_pandas()
        con = duckdb.connect()
        con.register("t", t)
        want = con.execute(sql).df()
        assert set(got.columns) == set(want.columns)
        cols = list(got.columns)
        assert "" in set(got["source"])  # NULL and '' groups fold together
        assert _canon(got, cols) == _canon(want, cols)

    @pytest.mark.parametrize(
        "op",
        [
            "grouped_topk", "grouped_quantiles", "grouped_quantiles_cont",
            "grouped_token_entropy", "grouped_kl_divergence",
            "grouped_mad_outliers", "grouped_topk_rows",
            "grouped_count_distinct", "grouped_corr",
        ],
    )
    def test_non_string_group_refused_by_name(self, ray_session, op):
        import ray.data as rd

        from duckdb_raquet_ray.stages import stats

        t = pa.table(
            {
                "g": pa.array([1, 2, 1], pa.int64()),
                "v": pa.array([3, 4, 5], pa.int64()),
                "x": pa.array([1.0, 2.0, 4.0]),
                "tok": pa.array([[1, 2], [3], [2, 2]], pa.list_(pa.int64())),
            }
        )
        ds = rd.from_arrow(t)
        build = {
            "grouped_topk": lambda: stats.grouped_topk(ds, "g", "tok", 10, k=2),
            "grouped_quantiles": lambda: stats.grouped_quantiles(ds, "g", "v"),
            "grouped_quantiles_cont": lambda: stats.grouped_quantiles_cont(ds, "g", "v"),
            "grouped_token_entropy": lambda: stats.grouped_token_entropy(ds, "g", "tok", 10),
            "grouped_kl_divergence": lambda: stats.grouped_kl_divergence(ds, "g", "tok", 10),
            "grouped_mad_outliers": lambda: stats.grouped_mad_outliers(ds, "g", "v"),
            "grouped_topk_rows": lambda: stats.grouped_topk_rows(ds, "g", "v", k=1, key_col="x"),
            "grouped_count_distinct": lambda: stats.grouped_count_distinct(ds, "g", "v"),
            "grouped_corr": lambda: stats.grouped_corr(ds, "g", "v", "x"),
        }[op]
        with pytest.raises(Exception, match="group column 'g' has type int64"):
            build().take_all()
