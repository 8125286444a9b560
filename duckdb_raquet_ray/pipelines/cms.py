"""Count-Min sketch: the mergeable frequency sketch (Cormode & Muthukrishnan
2005, public algorithm) — point-frequency estimates over a token stream in
O(d x w) memory regardless of corpus size. The approximate scale path next
to the EXACT `stages/stats.bigram_topk` / `vocab_topk` (whose shuffles are
information-theoretically corpus-sized on adversarially diverse data):
at 100 TB a CMS answers "how frequent is token/n-gram X" with one
sketch-bounded shuffle and a fixed-size table, overestimating by at most
eps x N with probability 1 - delta (w = ceil(e/eps), d = ceil(ln 1/delta)).

Scale contract: per-block partials are nonzero sketch cells — at most
d x min(distinct_in_block, w) rows regardless of block rows — merged by
ONE groupby-sum (the merge IS the shuffle, like hll_registers /
bloom_build_positions); the dense (d, w) sketch is a design constant the
driver holds and `ray.put`-broadcasts for estimate probes.

Determinism / oracle: row-j position of item x = splitmix64(x XOR seed_j)
mod w — plain modular integer math, replicated exactly in DuckDB
(`cms_registers_oracle_sql` pins every nonzero cell count;
`cms_estimate_oracle_sql` pins the min-over-rows estimate rule, so the
sketch's OVERESTIMATES — its collisions — must match too).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .. import util
from ..functions import detmix

W_DEFAULT = 1 << 12
D_DEFAULT = 4

# per-row seeds, inlined as constants into the SQL twins
_SEED_BASE = 0xC3A5
ROW_SEEDS = tuple(int(detmix.splitmix64(_SEED_BASE + j)) for j in range(16))
U64 = 1 << 64


def _row_positions(x: np.ndarray, w: int, j: int) -> np.ndarray:
    """Row-j cell of items `x` (uint64): splitmix64(x XOR seed_j) mod w."""
    return (detmix.splitmix64(x ^ np.uint64(ROW_SEEDS[j])) % np.uint64(w)).astype(
        np.int64
    )


def _distinct_counts(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct uint64 values, multiplicities). Dense-domain fast path:
    one O(n + domain) bincount instead of np.unique's O(n log n) sort."""
    as_i64 = vals.view(np.int64)
    if len(vals) and (as_i64 >= 0).all() and as_i64.max() < (1 << 22):
        dense = np.bincount(as_i64)
        uniq = np.flatnonzero(dense)
        return uniq.astype(np.uint64), dense[uniq].astype(np.float64)
    uniq, mult = np.unique(vals, return_counts=True)
    return uniq, mult.astype(np.float64)


def _cms_partials(
    t: pa.Table, column: str, w: int, d: int, flatten: bool
) -> pa.Table:
    """Per-block nonzero sketch cells as (cell = j*w + col, cnt) rows."""
    t = util.strip_schema_metadata(t)
    col = t.column(column)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if flatten:
        col = col.flatten()
    vals = np.asarray(col.to_numpy(zero_copy_only=False)).astype(np.uint64)
    if len(vals) == 0:
        return pa.table(
            {"cell": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
        )
    # pre-fold to (distinct value, multiplicity) so the d splitmix passes
    # run over distinct values only (~100x fewer ops on token domains);
    # weighted bincount is float64 internally — exact for counts < 2^53
    uniq, mult = _distinct_counts(vals)
    cells, cnts = [], []
    for j in range(d):
        counts = np.bincount(
            _row_positions(uniq, w, j), weights=mult, minlength=w
        )
        nz = np.nonzero(counts)[0]
        cells.append(nz + j * w)
        cnts.append(counts[nz].astype(np.int64))
    return pa.table(
        {
            "cell": pa.array(np.concatenate(cells).astype(np.int64), pa.int64()),
            "cnt": pa.array(np.concatenate(cnts).astype(np.int64), pa.int64()),
        }
    )


def _sum_by_key(
    g: pa.Table, key: str, val: str, *, min_sum: int | None = None
) -> pa.Table:
    """Vectorized in-bucket groupby-sum: one argsort + np.add.reduceat
    over run boundaries (int64-exact, no float round-trip), optional
    HAVING-style ``min_sum`` filter. Shared by the sketch merge and the
    heavy-hitter verify reduce."""
    k = g.column(key).to_numpy(zero_copy_only=False)
    v = g.column(val).to_numpy(zero_copy_only=False)
    order = np.argsort(k, kind="stable")
    ks, vs = k[order], v[order]
    starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    sums = np.add.reduceat(vs, starts)
    keys = ks[starts]
    if min_sum is not None:
        keep = sums >= min_sum
        keys, sums = keys[keep], sums[keep]
    return pa.table({key: pa.array(keys, pa.int64()), val: pa.array(sums, pa.int64())})


def cms_registers(
    ds: rd.Dataset,
    column: str = "tokens",
    *,
    w: int = W_DEFAULT,
    d: int = D_DEFAULT,
    flatten: bool = True,
) -> rd.Dataset:
    """Merged Count-Min cells (cell int64, cnt int64), nonzero only —
    the value-checkable face of the sketch. One sketch-bounded
    groupby-sum; EXACT counts per cell (the approximation is in reading
    the sketch, never in building it — merge is lossless by linearity)."""
    if d > len(ROW_SEEDS):
        raise ValueError(f"d must be <= {len(ROW_SEEDS)}, got {d}")
    # coarse-bucket merge (the value_histogram shape): a per-cell Ray
    # groupby sorts blocks x cells rows by ~d*w distinct keys (measured
    # 75 s where the kernel itself costs 0.6 s); bucketing cell % 256 and
    # reducing each bucket with one vectorized reduceat makes the merge
    # 256 dense tasks. The FIXED fan-out is justified here because the
    # key domain is d*w — a design constant — never corpus-scaled.
    nb = 256

    def parts(t: pa.Table) -> pa.Table:
        p = _cms_partials(t, column, w, d, flatten)
        cell = p.column("cell").to_numpy()
        return p.append_column("_b", pa.array((cell % nb).astype(np.int32)))

    # large batches on purpose: a partial's row count saturates at
    # d x min(distinct, w) whatever the batch size, so bigger batches mean
    # FEWER duplicate cell rows through the merge (measured 14x fewer
    # partial rows at 16k-row batches vs the 1k default on the bench
    # corpus); memory stays bounded (d x w bincount = a few MB)

    def reduce_bucket(g: pa.Table) -> pa.Table:
        return _sum_by_key(g, "cell", "cnt")

    partials = util.clean_dataset(ds).map_batches(
        parts, batch_format="pyarrow", batch_size=16384
    )
    return util.bucketed(partials, "_b", reduce_bucket)


def cms_build(
    ds: rd.Dataset,
    column: str = "tokens",
    *,
    w: int = W_DEFAULT,
    d: int = D_DEFAULT,
    flatten: bool = True,
) -> np.ndarray:
    """Dense (d, w) int64 sketch. Driver memory O(d x w) — a design
    constant (1 MiB per million cells), never O(corpus)."""
    sk = np.zeros(d * w, np.int64)
    # <= d*w cells total (the design constant); vectorized scatter per
    # batch — never a Python loop over rows
    for b in cms_registers(ds, column, w=w, d=d, flatten=flatten).iter_batches(
        batch_format="pyarrow"
    ):
        sk[b.column("cell").to_numpy()] = b.column("cnt").to_numpy()
    return sk.reshape(d, w)


def cms_estimate(sketch: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Point-frequency estimates: min over rows of the item's cell — the
    classic CMS read (never underestimates; overestimate <= eps x N
    w.h.p.). Vectorized over the query items."""
    d, w = sketch.shape
    items = np.asarray(items).astype(np.uint64)
    est = np.full(len(items), np.iinfo(np.int64).max, np.int64)
    for j in range(d):
        np.minimum(est, sketch[j, _row_positions(items, w, j)], out=est)
    return est


def cms_heavy_hitters(
    ds: rd.Dataset,
    column: str = "tokens",
    *,
    threshold: int,
    w: int = W_DEFAULT,
    d: int = D_DEFAULT,
    flatten: bool = True,
) -> rd.Dataset:
    """EXACT heavy hitters (items with global count >= threshold) with the
    CMS as a shuffle-pruning filter, never an answer-changer: pass 1 builds
    the global sketch (one sketch-bounded groupby, O(d x w) driver
    constant); pass 2 re-streams the corpus, counts each block's distinct
    items, probes the ray.put-broadcast sketch and forwards ONLY candidates
    (est >= threshold) into the final exact groupby-sum + HAVING filter.
    Because a CMS never underestimates, the candidate set is a superset of
    the true heavy hitters — the exact verify pass returns EXACTLY the
    items a full corpus-sized shuffle would, while the shuffle carries only
    (true HH + collision survivors) rows per block instead of every
    distinct item. Output: (token int64, cnt int64). SQL twin:
    `cms_heavy_hitters_oracle_sql` (plain GROUP BY ... HAVING — the sketch
    must be invisible in the result, collisions and all)."""
    sk_ref = ray.put(cms_build(ds, column, w=w, d=d, flatten=flatten))
    thr = int(threshold)

    def candidates(t: pa.Table) -> pa.Table:
        sk = ray.get(sk_ref)
        t = util.strip_schema_metadata(t)
        col = t.column(column)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if flatten:
            col = col.flatten()
        vals = np.asarray(col.to_numpy(zero_copy_only=False)).astype(np.int64)
        empty = pa.table(
            {"token": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
        )
        if len(vals) == 0:
            return empty
        u64, mult = _distinct_counts(vals.astype(np.uint64))
        uniq, cnts = u64.astype(np.int64), mult.astype(np.int64)
        keep = cms_estimate(sk, u64) >= thr
        if not keep.any():
            return empty
        return pa.table(
            {
                "token": pa.array(uniq[keep], pa.int64()),
                "cnt": pa.array(cnts[keep].astype(np.int64), pa.int64()),
            }
        )

    # same coarse-bucket merge as cms_registers: candidate cardinality is
    # sketch-pruned (true HH + collision survivors) and vocab-bounded for
    # token domains, so 256 dense reduce tasks beat a per-token Ray
    # groupby; each bucket owns its tokens end-to-end, so the HAVING
    # filter is exact inside the bucket
    nb = 256

    def cand_bucketed(t: pa.Table) -> pa.Table:
        p = candidates(t)
        tok = p.column("token").to_numpy()
        return p.append_column(
            "_b", pa.array((tok % nb).astype(np.int32))
        )

    def verify_bucket(g: pa.Table) -> pa.Table:
        return _sum_by_key(g, "token", "cnt", min_sum=thr)

    # same large-batch rule: candidate rows per batch saturate at the
    # sketch-pruned candidate count, so bigger batches shrink the verify
    # shuffle too
    cands = util.clean_dataset(ds).map_batches(
        cand_bucketed, batch_format="pyarrow", batch_size=16384
    )
    return util.bucketed(cands, "_b", verify_bucket)


# ---------------------------------------------------------------------------
# SQL twins (DuckDB) — byte-for-byte replicas of the kernels above
# ---------------------------------------------------------------------------


def _sql_row_pos(x_expr: str, w: int, j: int) -> str:
    """SQL twin of _row_positions: splitmix64(x XOR seed_j) % w."""
    return f"({detmix.sql_splitmix64(f'xor(({x_expr})::UBIGINT, {ROW_SEEDS[j]})')} % {w})"


def cms_registers_oracle_sql(
    corpus: str,
    column: str = "tokens",
    *,
    w: int = W_DEFAULT,
    d: int = D_DEFAULT,
) -> str:
    """DuckDB replica of cms_registers over a list column: exact count of
    stream items landing in every cell, nonzero cells only."""
    rows = "\nUNION ALL\n".join(
        f"SELECT ({j * w} + {_sql_row_pos('x', w, j)})::BIGINT AS cell FROM tok"
        for j in range(d)
    )
    return f"""WITH tok AS (SELECT unnest({column}) AS x FROM {corpus}),
cells AS ({rows})
SELECT cell, count(*)::BIGINT AS cnt FROM cells GROUP BY cell"""


def cms_heavy_hitters_oracle_sql(
    corpus: str,
    column: str = "tokens",
    *,
    threshold: int,
) -> str:
    """Oracle for cms_heavy_hitters: the sketch is a pruning filter only,
    so the answer is the plain exact GROUP BY ... HAVING — if any collision
    survivor leaked into (or any true heavy hitter fell out of) the engine
    result, the hash would mismatch."""
    return f"""WITH tok AS (SELECT unnest({column}) AS x FROM {corpus})
SELECT x::BIGINT AS token, count(*)::BIGINT AS cnt
FROM tok GROUP BY x HAVING count(*) >= {int(threshold)}"""


def cms_estimate_oracle_sql(
    corpus: str,
    column: str = "tokens",
    *,
    w: int = W_DEFAULT,
    d: int = D_DEFAULT,
    n_items: int = 64,
) -> str:
    """DuckDB replica of cms_build + cms_estimate for query items
    0..n_items-1: min over the d rows of the item's exact cell count
    (absent cell = 0 via the LEFT JOIN) — collisions and all."""
    rows = "\nUNION ALL\n".join(
        f"SELECT ({j * w} + {_sql_row_pos('x', w, j)})::BIGINT AS cell FROM tok"
        for j in range(d)
    )
    qpos = "\nUNION ALL\n".join(
        f"SELECT token, ({j * w} + {_sql_row_pos('token', w, j)})::BIGINT AS cell "
        "FROM items"
        for j in range(d)
    )
    return f"""WITH tok AS (SELECT unnest({column}) AS x FROM {corpus}),
cells AS ({rows}),
sk AS (SELECT cell, count(*)::BIGINT AS cnt FROM cells GROUP BY cell),
items AS (SELECT unnest(generate_series(0, {n_items - 1})) AS token),
qp AS ({qpos})
SELECT qp.token::BIGINT AS token, min(coalesce(sk.cnt, 0))::BIGINT AS est
FROM qp LEFT JOIN sk ON sk.cell = qp.cell
GROUP BY qp.token"""
