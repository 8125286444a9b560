"""Distributed k-means (Lloyd's algorithm) over embeddings — integer-exact.

The corpus-curation uses: SemDeDup-style cluster-then-dedup at real
cluster counts, per-cluster corpus balancing, and coarse IVF centroid
training with actual Lloyd refinement (ann.IvfIndex trains on a sample;
this operator is the full-corpus refinement pass).

Why it can carry a full DuckDB value oracle, unlike textbook float
k-means: every step past the (SQL-replicated) int8 quantization is
integer or single-expression double arithmetic —

  * init       — the int8 vectors of the k SMALLEST keys, centroid index
                 = rank of key (the deterministic seed pick shared with
                 dedup.semantic_dedup_int8);
  * assignment — argmin of EXACT int64 squared L2 distance, ties to the
                 lowest centroid index;
  * update     — per-(cluster, dim) mean as floor(sum::DOUBLE / count):
                 one double division + one floor on integer inputs,
                 bit-identical across engines while |sum| < 2^53;
                 empty clusters keep their previous centroid.

Scale shape: each Lloyd iteration is ONE streaming pass — centroids
(k x dim int64, a few KB) broadcast to every task via closure capture,
per-block partial (cluster, dim, sum) + (cluster, count) rows fold
through a distributed groupby-sum whose key domain is k*(dim+1) (design
constants, not corpus-scaled), and the driver holds only the folded
k x (dim+1) rows. No full materialization anywhere; the final
assignment is a streaming map_batches.

Reference parity note: the reference engine has no clustering surface;
this extends the engine's integer-exact-oracle discipline (see
dedup.semantic_dedup_int8, ann.PqCodebook) to iterative training, the
piece the 100 TB curation recipes (SemDeDup, DSIR cluster balancing)
need.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from duckdb_raquet_ray import util
from duckdb_raquet_ray.functions import detmix
from duckdb_raquet_ray.pipelines.ann import _int8_matrix as ann_int8
from duckdb_raquet_ray.pipelines.dedup import _smallest_key_vectors


def _assign(x: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, d) int64 x (k, d) int64 -> (cluster idx int64, dist2 int64).
    Exact integer squared-L2; np.argmin takes the FIRST minimum, i.e.
    ties break to the lowest centroid index (the SQL `ORDER BY d2, j`)."""
    # |x|,|c| <= 127 so the cross term is bounded by d * 127^2 * n-safe
    # int64 headroom; computed blockwise as x.x - 2x.c + c.c
    xx = np.einsum("ij,ij->i", x, x)
    cc = np.einsum("ij,ij->i", cents, cents)
    d2 = xx[:, None] - 2 * (x @ cents.T) + cc[None, :]
    j = np.argmin(d2, axis=1)
    return j.astype(np.int64), d2[np.arange(len(j)), j].astype(np.int64)


def kmeans_int8(
    ds: rd.Dataset,
    *,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    k: int = 8,
    iters: int = 2,
) -> rd.Dataset:
    """Run `iters` Lloyd iterations over the int8-quantized embedding
    column, then emit the final assignment: (key_col, cluster, dist2).

    Deterministic and value-replicable in SQL (`kmeans_oracle_sql`
    unrolls the same iterations as CTE chains). Driver state per
    iteration is the folded k x (dim+1) partial table — O(k * dim),
    never O(blocks)."""
    ds = util.clean_dataset(ds).select_columns([key_col, vec_col])
    _, cents = _smallest_key_vectors(ds, vec_col, key_col, k)
    if cents.shape[0] == 0:
        return rd.from_arrow(
            pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                    "dist2": pa.array([], pa.int64()),
                }
            )
        )
    k_eff, dim = cents.shape

    for _ in range(int(iters)):
        C = cents  # rebind: the closure must capture THIS iteration's value

        def partial(batch: pa.Table, C: np.ndarray = C) -> pa.Table:
            x = ann_int8(batch, vec_col)
            if x.shape[0] == 0:
                return pa.table(
                    {
                        "j": pa.array([], pa.int64()),
                        "i": pa.array([], pa.int64()),
                        "s": pa.array([], pa.int64()),
                    }
                )
            j, _ = _assign(x, C)
            dd = C.shape[1]
            # per-present-cluster (sum vector, count) via ONE sort +
            # reduceat (the repo's grouped-fold idiom) — emits rows only
            # for clusters this block touches
            order = np.argsort(j, kind="stable")
            js = j[order]
            starts = np.flatnonzero(np.r_[True, js[1:] != js[:-1]])
            sums = np.add.reduceat(x[order], starts, axis=0)  # (g, dd) int64
            labels = js[starts]
            cnt = np.diff(np.r_[starts, len(js)]).astype(np.int64)
            g = len(labels)
            jj = np.repeat(labels, dd + 1)
            ii = np.tile(np.r_[np.arange(dd, dtype=np.int64), dd], g)
            ss = np.concatenate(
                [sums, cnt[:, None]], axis=1
            ).reshape(-1)
            keep = ss != 0
            return pa.table(
                {
                    "j": pa.array(jj[keep]),
                    "i": pa.array(ii[keep]),
                    "s": pa.array(ss[keep]),
                }
            )

        folded = (
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["j", "i"])
            .sum("s")
            .take_all()  # <= k * (dim + 1) rows by construction
        )
        sums = np.zeros((k_eff, dim), np.int64)
        cnts = np.zeros(k_eff, np.int64)
        for row in folded:
            j, i, s = int(row["j"]), int(row["i"]), int(row["sum(s)"])
            if i == dim:
                cnts[j] = s
            else:
                sums[j, i] = s
        new = cents.copy()
        nz = cnts > 0
        # floor(sum::DOUBLE / count): the SQL-replicable mean (exact while
        # |sum| < 2^53); empty clusters keep their previous centroid
        new[nz] = np.floor(
            sums[nz].astype(np.float64) / cnts[nz, None].astype(np.float64)
        ).astype(np.int64)
        cents = new

    Cf = cents

    def final(batch: pa.Table) -> pa.Table:
        x = ann_int8(batch, vec_col)
        keys = batch.column(key_col)
        if x.shape[0] == 0:
            return pa.table(
                {
                    key_col: keys,
                    "cluster": pa.array([], pa.int64()),
                    "dist2": pa.array([], pa.int64()),
                }
            )
        j, d2 = _assign(x, Cf)
        return pa.table({key_col: keys, "cluster": pa.array(j), "dist2": pa.array(d2)})

    return ds.map_batches(final, batch_format="pyarrow")


def grouped_centroid_int8(
    ds: rd.Dataset,
    *,
    group_col: str = "label",
    vec_col: str = "embedding",
) -> pa.Table:
    """Per-GROUP embedding centroid over the int8-quantized plane ->
    (group, d, cv, n): cv = floor(sum::DOUBLE / n) per dimension (the
    kmeans update rule, bit-identical across engines while |sum| < 2^53)
    — the domain-embedding-drift profile: a source whose centroid moves
    between snapshots is changing character.

    Scale shape: per-block (group, dim, sum) + (group, count) partials
    via one sort + reduceat, folded through a groupby whose key domain
    is O(groups x dim) — never row-scaled; the driver holds only the
    folded result (the kmeans take_all precedent)."""

    def partial(batch: pa.Table) -> pa.Table:
        x = ann_int8(batch, vec_col)
        g = batch.column(group_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if x.shape[0] == 0:
            return pa.table(
                {
                    "g": pa.array([], pa.int64()),
                    "i": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                }
            )
        dd = x.shape[1]
        order = np.argsort(g, kind="stable")
        gs = g[order]
        starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        sums = np.add.reduceat(x[order], starts, axis=0)
        labels = gs[starts]
        cnt = np.diff(np.r_[starts, len(gs)]).astype(np.int64)
        k = len(labels)
        gg = np.repeat(labels, dd + 1)
        ii = np.tile(np.r_[np.arange(dd, dtype=np.int64), dd], k)
        ss = np.concatenate([sums, cnt[:, None]], axis=1).reshape(-1)
        return pa.table(
            {"g": pa.array(gg), "i": pa.array(ii), "s": pa.array(ss)}
        )

    folded = (
        ds.select_columns([group_col, vec_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["g", "i"])
        .sum("s")
        .to_pandas()  # O(groups x (dim + 1)) rows — the kmeans take_all precedent
    )
    empty = pa.table(
        {
            group_col: pa.array([], pa.int64()),
            "d": pa.array([], pa.int64()),
            "cv": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
    )
    if len(folded) == 0:
        return empty
    dim = int(folded["i"].max())  # every group's count row rides at i == dim
    cnts = folded[folded["i"] == dim].set_index("g")["sum(s)"]
    vals = folded[folded["i"] < dim].sort_values(["g", "i"])
    n = cnts.loc[vals["g"]].to_numpy(np.float64)
    cv = np.floor(vals["sum(s)"].to_numpy(np.float64) / n).astype(np.int64)
    return pa.table(
        {
            group_col: pa.array(vals["g"].to_numpy(np.int64)),
            "d": pa.array(vals["i"].to_numpy(np.int64)),
            "cv": pa.array(cv),
            "n": pa.array(cnts.loc[vals["g"]].to_numpy(np.int64)),
        }
    )


def grouped_centroid_oracle_sql(
    table: str = "embeddings",
    *,
    group_col: str = "label",
    vec_col: str = "embedding",
    key_col: str = "vec_id",
) -> str:
    """DuckDB replica of grouped_centroid_int8: the shared int8
    quantization chain, then floor(sum/count) per (group, dim)."""
    return f"""
WITH e AS (SELECT {group_col} AS g, {vec_col} AS v,
  list_max(list_transform({vec_col}, x -> abs(x::DOUBLE))) AS scale FROM {table}),
t AS (SELECT g, scale, unnest(v) AS x,
  unnest(generate_series(1, len(v))) AS i FROM e),
q AS (SELECT g, i - 1 AS d,
  CASE WHEN scale > 0 THEN round(x::DOUBLE / scale * 127)::BIGINT ELSE 0 END AS qv
  FROM t)
SELECT g::BIGINT AS {group_col}, d::BIGINT AS d,
  CAST(floor(sum(qv)::DOUBLE / count(*)) AS BIGINT) AS cv,
  count(*)::BIGINT AS n
FROM q GROUP BY g, d"""


def _kmeans_ctes(
    table: str, vec_col: str, key_col: str, k: int, iters: int
) -> str:
    """The WITH-body shared by every kmeans-derived oracle: quantize ->
    init -> unrolled Lloyd iterations -> `fa` (final per-(vid, j) dist2)."""
    ctes = [
        f"""e AS (SELECT {key_col} AS vid, {vec_col} AS v,
  list_max(list_transform({vec_col}, x -> abs(x::DOUBLE))) AS scale FROM {table}),
t AS (SELECT vid, scale, unnest(v) AS x,
  unnest(generate_series(1, len(v))) AS i FROM e),
q AS (SELECT vid, i - 1 AS d,
  CASE WHEN scale > 0 THEN round(x::DOUBLE / scale * 127)::BIGINT ELSE 0 END AS qv
  FROM t),
cent AS (
  SELECT vid AS ck, row_number() OVER (ORDER BY vid) - 1 AS j
  FROM (SELECT vid FROM e ORDER BY vid LIMIT {k})
),
c0 AS (SELECT cent.j, q.d, q.qv AS cv FROM cent JOIN q ON q.vid = cent.ck)"""
    ]
    prev = "c0"
    for tno in range(1, int(iters) + 1):
        ctes.append(
            f"""a{tno} AS (
  SELECT vid, j, sum((qv - cv) * (qv - cv))::BIGINT AS d2
  FROM q JOIN {prev} USING (d) GROUP BY vid, j
),
b{tno} AS (
  SELECT vid, j FROM (
    SELECT vid, j, row_number() OVER (PARTITION BY vid ORDER BY d2, j) AS rn
    FROM a{tno}
  ) WHERE rn = 1
),
s{tno} AS (
  SELECT b.j, q.d, CAST(floor(sum(q.qv)::DOUBLE / count(*)) AS BIGINT) AS cv
  FROM b{tno} b JOIN q ON q.vid = b.vid GROUP BY b.j, q.d
),
c{tno} AS (
  SELECT p.j, p.d, coalesce(n.cv, p.cv) AS cv
  FROM {prev} p LEFT JOIN s{tno} n ON n.j = p.j AND n.d = p.d
)"""
        )
        prev = f"c{tno}"
    ctes.append(
        f"""fa AS (
  SELECT vid, j, sum((qv - cv) * (qv - cv))::BIGINT AS d2
  FROM q JOIN {prev} USING (d) GROUP BY vid, j
)"""
    )
    return "WITH " + ",\n".join(ctes)


def kmeans_oracle_sql(
    table: str,
    *,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    k: int = 8,
    iters: int = 2,
) -> str:
    """DuckDB replica of kmeans_int8: the same int8 quantization CTE the
    other embedding oracles share, then `iters` Lloyd iterations UNROLLED
    as CTE pairs (assign -> floor-mean update with empty-cluster
    coalesce), then the final assignment. Integer-exact throughout, so
    (key, cluster, dist2) hash-match by construction."""
    return (
        _kmeans_ctes(table, vec_col, key_col, k, iters)
        + f"""
SELECT vid AS {key_col}, j::BIGINT AS cluster, d2 AS dist2 FROM (
  SELECT vid, j, d2, row_number() OVER (PARTITION BY vid ORDER BY d2, j) AS rn
  FROM fa
) WHERE rn = 1"""
    )


# ---------------------------------------------------------------------------
# cluster-balanced sampling (k-means partition -> equal-sized per-cluster
# pick: the embedding-space diversity sampler — SemDeDup's "spread the
# budget across semantic clusters" step as one composed, oracle-checked op)
# ---------------------------------------------------------------------------


def cluster_balanced_sample(
    ds: rd.Dataset,
    *,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    k: int = 8,
    iters: int = 2,
    per_cluster: int = 20,
    seed: int = 0,
) -> rd.Dataset:
    """-> (cluster, key_col): exactly `per_cluster` rows per k-means
    cluster (fewer iff the cluster is smaller), selected as the
    per-cluster smallest seeded key hashes — membership is a pure row
    function plus an order statistic (the stratified_sample rule, with
    the LEARNED cluster id as the stratum instead of a metadata column).

    Non-negative integer keys only (the hash and its SQL twin wrap
    two's-complement differently on negatives). Scale shape: the kmeans
    passes, then per-block partials already capped at per_cluster rows
    per cluster, one k-bounded groupby caps exactly."""
    assign = kmeans_int8(ds, vec_col=vec_col, key_col=key_col, k=k, iters=iters)
    per = int(per_cluster)

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        keys = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(keys) and keys.min() < 0:
            raise ValueError("cluster_balanced_sample requires non-negative keys")
        cl = t.column("cluster").to_numpy(zero_copy_only=False)
        u = detmix.seeded_mix(detmix.splitmix64(keys.astype(np.uint64)), seed)
        df = pd.DataFrame({"cluster": cl, "kk": keys, "u": u})
        df = df.sort_values(["u", "kk"]).groupby("cluster", sort=False).head(per)
        return pa.table(
            {
                "cluster": pa.array(df["cluster"].to_numpy(np.int64)),
                key_col: pa.array(df["kk"].to_numpy(np.int64)),
                "u": pa.array(df["u"].to_numpy(np.uint64)),
            }
        )

    def cap(g: pa.Table) -> pa.Table:
        import pandas as pd

        df = g.to_pandas().sort_values(["u", key_col]).head(per)
        return pa.table(
            {
                "cluster": pa.array(df["cluster"].to_numpy(np.int64)),
                key_col: pa.array(df[key_col].to_numpy(np.int64)),
            }
        )

    return util.bucketed(assign.map_batches(partial, batch_format="pyarrow"), "cluster", cap)


def cluster_balanced_oracle_sql(
    table: str,
    *,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    k: int = 8,
    iters: int = 2,
    per_cluster: int = 20,
    seed: int = 0,
) -> str:
    """DuckDB replica of cluster_balanced_sample: the kmeans CTE chain,
    then row_number over (seeded hash, key) per cluster."""
    seed_mix = int(detmix.splitmix64(int(seed) % detmix.U64))
    u_expr = detmix.sql_splitmix64(
        f"xor({detmix.sql_splitmix64('vid')}, {seed_mix}::UBIGINT)"
    )
    return (
        _kmeans_ctes(table, vec_col, key_col, k, iters)
        + f""",
asg AS (
  SELECT vid, j FROM (
    SELECT vid, j, row_number() OVER (PARTITION BY vid ORDER BY d2, j) AS rn
    FROM fa
  ) WHERE rn = 1
),
uu AS (SELECT vid, {u_expr} AS u FROM (SELECT DISTINCT vid FROM asg)),
rk AS (
  SELECT asg.j, asg.vid,
         row_number() OVER (PARTITION BY asg.j ORDER BY uu.u, asg.vid) AS rn
  FROM asg JOIN uu USING (vid)
)
SELECT j::BIGINT AS cluster, vid AS {key_col} FROM rk WHERE rn <= {int(per_cluster)}"""
    )
