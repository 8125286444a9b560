"""Deterministic mixture sampling / epoch ordering (pipelines/sampling.py)
and the shared mix kernel (functions/detmix.py)."""

import numpy as np
import pytest
import pyarrow as pa
import ray.data as rd

from duckdb_raquet_ray.functions import detmix
from duckdb_raquet_ray.pipelines import sampling


def _docs(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    srcs = rng.choice(["web", "books", "code"], size=n, p=[0.6, 0.2, 0.2])
    return pa.table(
        {
            "doc_id": pa.array([f"{s}/doc-{i:08d}" for i, s in enumerate(srcs)]),
            "source": pa.array(srcs.tolist()),
            "n_tok": pa.array(rng.integers(1, 100, size=n), type=pa.int32()),
        }
    )


class TestDetmix:
    def test_splitmix_known_wrap(self):
        # vectorized == scalar path, and wraps (no overflow error)
        xs = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        v = detmix.splitmix64(xs)
        assert v.dtype == np.uint64 and len(set(v.tolist())) == 4
        assert int(detmix.splitmix64(1)) == int(v[1])

    def test_string_hash_edges(self):
        flat = np.array(["", "a", "a", "ab", "ba", "é"], dtype=object)
        h = detmix.string_hash64(flat)
        assert h[1] == h[2] and h[3] != h[4] and h[0] != h[1]
        # non-ASCII path (byte lengths differ from char lengths) still works
        assert h[5] != h[1]

    def test_seeded_mix_changes_with_seed(self):
        h = detmix.string_hash64(np.array(["x", "y"], dtype=object))
        assert not np.array_equal(detmix.seeded_mix(h, 0), detmix.seeded_mix(h, 1))


class TestMixtureSample:
    def test_rates_and_determinism(self, ray_session):
        t = _docs()
        rates = {"web": 0.25, "books": 1.0}
        a = sampling.source_mixture_sample(rd.from_arrow(t), rates, seed=1).to_pandas()
        b = sampling.source_mixture_sample(
            rd.from_arrow(t).repartition(7), rates, seed=1
        ).to_pandas()
        # identical keep-set regardless of partitioning
        assert sorted(a.doc_id) == sorted(b.doc_id)
        by_src = a.groupby("source").size()
        n_web = (np.asarray(t.column("source")) == "web").sum()
        assert abs(by_src.get("web", 0) / n_web - 0.25) < 0.08  # hash-binomial
        n_books = (np.asarray(t.column("source")) == "books").sum()
        assert by_src.get("books", 0) == n_books  # rate 1.0 keeps all

    def test_default_rate(self, ray_session):
        t = _docs()
        out = sampling.source_mixture_sample(
            rd.from_arrow(t), {"web": 0.0}, default_rate=1.0, seed=2
        ).to_pandas()
        assert (out.source != "web").all()
        assert len(out) == (np.asarray(t.column("source")) != "web").sum()


class TestEpochOrder:
    def test_seeds_give_distinct_stable_orders(self, ray_session):
        t = _docs(n=500)
        o1 = sampling.epoch_order(rd.from_arrow(t), seed=0).to_pandas().doc_id.tolist()
        o1b = sampling.epoch_order(
            rd.from_arrow(t).repartition(5), seed=0
        ).to_pandas().doc_id.tolist()
        o2 = sampling.epoch_order(rd.from_arrow(t), seed=1).to_pandas().doc_id.tolist()
        assert o1 == o1b  # partition-independent
        assert o1 != o2  # seed changes the epoch permutation
        assert sorted(o1) == sorted(o2)  # …but it is a permutation


class TestOracleEdges:
    def test_empty_and_long_keys(self):
        """The SQL kh chain must keep empty keys (splitmix64(0)) and fail
        loudly on keys longer than the pow table."""
        import duckdb

        t = "(SELECT unnest(['', 'a', 'bb']) AS doc_id, 'web' AS source)"
        sql = sampling.epoch_order_oracle_sql(t, seed=0, limit=10)
        df = duckdb.connect().execute(sql).df()
        assert len(df) == 3  # empty key NOT dropped
        h = detmix.seeded_mix(detmix.string_hash64(np.array(["", "a", "bb"], dtype=object)), 0)
        want = sorted(int(x >> np.uint64(1)) for x in h)
        assert sorted(df.epoch_rank.tolist()) == want

        long_t = f"(SELECT repeat('x', 200) AS doc_id, 'web' AS source)"
        with pytest.raises(Exception, match="pow257_64 table"):
            duckdb.connect().execute(
                sampling.epoch_order_oracle_sql(long_t, seed=0, limit=10)
            ).df()


class TestAssignSplits:
    def test_partition_and_fraction_properties(self, ray_session):
        import ray.data as rd

        t = pa.table({"doc_id": pa.array(np.arange(10_000), pa.int64())})
        out = sampling.assign_splits(rd.from_arrow(t), seed=3).to_pandas()
        counts = out["split"].value_counts()
        assert set(counts.index) <= {"train", "val", "test"}
        assert counts["train"] > 9500  # ~98%
        assert 20 < counts.get("val", 0) < 300 and 20 < counts.get("test", 0) < 300
        # stability: same assignment regardless of batch boundaries / subset
        sub = sampling.assign_splits(
            rd.from_arrow(t.slice(5000, 100)), seed=3
        ).to_pandas().set_index("doc_id")["split"]
        full = out.set_index("doc_id")["split"]
        assert (full.loc[sub.index] == sub).all()

    def test_sql_oracle_parity(self, ray_session):
        import duckdb
        import ray.data as rd

        t = pa.table({"doc_id": pa.array(np.arange(500), pa.int64())})
        mine = (
            sampling.assign_splits(rd.from_arrow(t), seed=9)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("docs_arrow", t)
        oracle = (
            con.execute(sampling.splits_oracle_sql("docs_arrow", seed=9))
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert mine["split"].tolist() == oracle["split"].tolist()

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            sampling.split_thresholds({"a": 0.5, "b": 0.2})


class TestLengthBuckets:
    def test_matches_sql_and_handles_overflow(self, ray_session):
        import duckdb
        import pyarrow as pa
        import ray.data as rd

        t = pa.table(
            {
                "doc_id": pa.array(range(8), pa.int64()),
                "n_tok": pa.array([1, 128, 129, 256, 300, 5000, 2048, 2049], pa.int64()),
            }
        )
        got = (
            sampling.length_bucket_stats(rd.from_arrow(t))
            .to_pandas()
            .sort_values("bucket_cap")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("documents", t)
        want = (
            con.execute(sampling.length_buckets_oracle_sql("documents"))
            .df()
            .sort_values("bucket_cap")
            .reset_index(drop=True)
        )
        assert got.to_dict("list") == want.to_dict("list")
        # overflow docs truncate to the last cap with zero waste
        top = got[got.bucket_cap == 2048].iloc[0]
        assert top.n_docs == 3 and top.pad_waste == 0  # 5000, 2048, 2049


class TestTokenBudgetSample:
    def _table(self, n=200, seed=3):
        rng = np.random.default_rng(seed)
        return pa.table({
            "doc_id": pa.array([f"d{i:05d}" for i in range(n)]),
            "source": pa.array(
                [["a", "b", "c"][i % 3] for i in range(n)]
            ),
            "n_tok": pa.array(rng.integers(10, 500, n).astype(np.int32)),
        })

    @staticmethod
    def _expected(t, budgets, seed, default):
        df = t.to_pandas()
        u = detmix.seeded_mix(
            detmix.string_hash64(df["doc_id"].to_numpy(object)), seed
        )
        df = df.assign(u=u).sort_values(["source", "u", "doc_id"])
        keep = []
        for s, g in df.groupby("source"):
            bud = budgets.get(s, default)
            if bud is None:
                keep.extend(g["doc_id"])
                continue
            cum = g["n_tok"].astype("int64").cumsum()
            keep.extend(g.loc[cum <= bud, "doc_id"])
        return sorted(keep)

    def test_exact_prefix_rule(self, ray_session):
        t = self._table()
        budgets = {"a": 3000, "b": 1}  # b: nothing fits
        got = sorted(
            r["doc_id"]
            for r in sampling.token_budget_sample(
                rd.from_arrow(t), budgets, seed=11, default_budget=2000
            ).take_all()
        )
        assert got == self._expected(t, budgets, 11, 2000)
        assert got  # something kept

    def test_default_none_keeps_unlisted_sources_fully(self, ray_session):
        t = self._table(60)
        got = sampling.token_budget_sample(
            rd.from_arrow(t), {"a": 500}, seed=2, default_budget=None
        ).to_pandas()
        full = t.to_pandas()
        for s in ("b", "c"):
            assert (got["source"] == s).sum() == (full["source"] == s).sum()
        assert got.loc[got["source"] == "a", "n_tok"].astype("int64").sum() <= 500

    def test_partition_invariance_and_forced_refinement(self, ray_session):
        t = self._table(300, seed=9)
        budgets = {"a": 4000, "b": 2500, "c": 100}
        ref = self._expected(t, budgets, 5, None)
        for blocks, kw in [(1, {}), (7, {}),
                           (4, dict(n_bins=2, collect_budget=1, max_levels=80))]:
            ds = rd.from_arrow(t).repartition(blocks)
            got = sorted(
                r["doc_id"]
                for r in sampling.token_budget_sample(
                    ds, budgets, seed=5, **kw
                ).take_all()
            )
            assert got == ref, f"blocks={blocks} kw={kw}"

    def test_oracle_parity(self, ray_session):
        import duckdb

        t = self._table(120, seed=4)
        budgets = {"a": 2000, "c": 900}
        got = (
            sampling.token_budget_sample(
                rd.from_arrow(t), budgets, seed=13, default_budget=1500
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        got["n_tok"] = got["n_tok"].astype("int64")
        con = duckdb.connect()
        con.register("docs_arrow", t)
        odf = (
            con.execute(
                sampling.token_budget_oracle_sql(
                    "docs_arrow", budgets, seed=13, default_budget=1500
                )
            )
            .df()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert got.equals(odf)


class TestQuantileFilter:
    def test_oracle_parity_and_partition_invariance(self, ray_session):
        import duckdb
        import ray.data as rd

        from duckdb_raquet_ray.pipelines import sampling as smp

        t = _docs(800, seed=7)
        con = duckdb.connect()
        con.register("corpus", t)
        want = (
            con.sql(
                smp.quantile_filter_oracle_sql("corpus", p=0.5)
                + " ORDER BY doc_id"
            )
            .df()
        )
        for parts in (1, 11):
            got = (
                smp.quantile_filter(rd.from_arrow(t).repartition(parts), p=0.5)
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            assert got["doc_id"].tolist() == want["doc_id"].tolist()
            assert got["n_tok"].tolist() == want["n_tok"].tolist()

    def test_cutoff_is_per_group_median(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.pipelines import sampling as smp

        t = _docs(600, seed=3)
        out = smp.quantile_filter(rd.from_arrow(t), p=0.5).to_pandas()
        df = t.to_pandas()
        for g, sub in df.groupby("source"):
            v = np.sort(sub["n_tok"].to_numpy())
            cut = v[int(np.ceil(0.5 * len(v))) - 1]  # percentile_disc rank
            kept = out[out["source"] == g]["n_tok"]
            assert (kept >= cut).all()
            assert len(kept) == int((sub["n_tok"] >= cut).sum())

    def test_null_values_never_pass(self, ray_session):
        import ray.data as rd

        from duckdb_raquet_ray.pipelines import sampling as smp

        t = pa.table(
            {
                "doc_id": pa.array(["a", "b", "c", "d"]),
                "source": pa.array(["s", "s", "s", "s"]),
                "n_tok": pa.array([5, None, 9, 1], pa.int64()),
            }
        )
        out = smp.quantile_filter(rd.from_arrow(t), p=0.5).to_pandas()
        assert "b" not in set(out["doc_id"])

    def test_no_non_null_value_keeps_no_rows(self, ray_session):
        import duckdb
        import ray.data as rd

        from duckdb_raquet_ray.pipelines import sampling as smp

        t = pa.table(
            {
                "doc_id": pa.array(["a", "b"]),
                "source": pa.array(["s", None]),
                "n_tok": pa.array([None, None], pa.int64()),
            }
        )
        # no group has a cutoff: the SQL twin's join is empty, so is this
        out = smp.quantile_filter(rd.from_arrow(t), p=0.5).take_all()
        assert out == []
        con = duckdb.connect()
        con.register("corpus", t)
        assert con.sql(smp.quantile_filter_oracle_sql("corpus")).fetchall() == []


def test_temperature_rates_rule():
    from duckdb_raquet_ray.pipelines import sampling

    counts = {"web": 8000, "books": 1000, "tiny": 10}
    r = sampling.temperature_rates_from_counts(counts, 0.5)
    # smallest source keeps everything; bigger sources downsample as
    # sqrt(n_small / n_big)
    assert r["tiny"] == 1.0
    assert r["web"] == pytest.approx((10 / 8000) ** 0.5)
    assert r["books"] == pytest.approx((10 / 1000) ** 0.5)
    # tau = 1 is identity
    r1 = sampling.temperature_rates_from_counts(counts, 1.0)
    assert all(v == 1.0 for v in r1.values())
    # tau = 0 targets uniform: rate inversely proportional to n
    r0 = sampling.temperature_rates_from_counts(counts, 0.0)
    assert r0["web"] == pytest.approx(10 / 8000)
    # zero-count sources dropped; bad tau rejected
    assert sampling.temperature_rates_from_counts({"a": 0}, 0.5) == {}
    with pytest.raises(ValueError):
        sampling.temperature_rates_from_counts(counts, 1.5)


def test_temperature_rates_distributed_matches(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import sampling

    srcs = ["a"] * 90 + ["b"] * 9 + ["c"]
    ds = rd.from_arrow(pa.table({"source": pa.array(srcs)}))
    got = sampling.temperature_rates(ds, 0.5)
    want = sampling.temperature_rates_from_counts({"a": 90, "b": 9, "c": 1}, 0.5)
    assert got == want


def test_temperature_sample_flattens_mix(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import sampling

    n = 4000
    srcs = np.where(np.arange(n) % 10 < 9, "big", "small")
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(n)]),
            "source": pa.array(srcs.tolist()),
        }
    )
    rates = sampling.temperature_rates(rd.from_arrow(t), 0.5)
    out = sampling.source_mixture_sample(
        rd.from_arrow(t), rates, seed=3
    ).to_pandas()
    kept = out["source"].value_counts()
    # small kept fully; big downsampled toward sqrt ratio
    assert kept["small"] == 400
    frac_big = kept["big"] / 3600
    assert abs(frac_big - rates["big"]) < 0.05


def test_uniform_sample_exact_k_and_partition_invariant(ray_session):
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(1000, dtype=np.int64)),
            "v": pa.array(np.arange(1000, dtype=np.int64) * 2),
        }
    )
    a = (
        sampling.uniform_sample(rd.from_arrow(t).repartition(1), 50, seed=3)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        sampling.uniform_sample(rd.from_arrow(t).repartition(13), 50, seed=3)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert len(a) == 50
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    # carried columns survive
    assert (a["v"] == a["doc_id"] * 2).all()
    # different seed -> (overwhelmingly) different membership
    c = sampling.uniform_sample(rd.from_arrow(t), 50, seed=4).to_pandas()
    assert set(c["doc_id"]) != set(a["doc_id"])


def test_uniform_sample_k_exceeds_corpus(ray_session):
    t = pa.table({"doc_id": pa.array(np.arange(7, dtype=np.int64))})
    out = sampling.uniform_sample(rd.from_arrow(t), 50, seed=0).to_pandas()
    assert sorted(out["doc_id"]) == list(range(7))


def test_uniform_sample_negative_keys_rejected(ray_session):
    t = pa.table({"doc_id": pa.array([-1, 2], type=pa.int64())})
    with pytest.raises(Exception):
        sampling.uniform_sample(rd.from_arrow(t), 1).to_pandas()
