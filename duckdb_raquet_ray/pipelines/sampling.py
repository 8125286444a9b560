"""Deterministic corpus sampling & ordering — source-mixture (domain
weighting) subsampling and seeded epoch shuffling.

Training-data pipelines re-weight domains ("web at 25 %, books at 100 %")
and need a reproducible global shuffle per epoch. Both are implemented as
pure hash decisions per row — `keep iff mix64(key, seed) < threshold` and
`order by mix64(key, seed)` — so they are:

  - embarrassingly parallel (a stateless map_batches filter / key
    assignment; no coordination, no sampling state),
  - stable under any partitioning or cluster size (the decision depends
    only on the row's key), resumable for free,
  - exactly replicable in SQL (functions/detmix.py emits the byte-for-
    byte DuckDB expressions), so both carry value-checked oracles.

Thresholds are INTEGERS fixed at plan time (`floor(rate * 2^64)` computed
once in Python and inlined into both the Ray op and the SQL), so no
float rounding can diverge between the two sides.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from duckdb_raquet_ray import util
from duckdb_raquet_ray.functions import detmix
from duckdb_raquet_ray.stages.stats import grouped_quantiles

U64 = detmix.U64


def rate_thresholds(rates: dict[str, float]) -> dict[str, int]:
    """rate in [0, 1] -> integer keep-threshold on the uint64 hash."""
    out = {}
    for k, r in rates.items():
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"rate for {k!r} must be in [0, 1], got {r}")
        out[k] = U64 if r >= 1.0 else int(r * U64)
    return out


def _seeded_key_hash(kcol, seed: int) -> np.ndarray:
    """uint64 seeded hash of a key COLUMN. Non-string keys hash via their
    decimal text — pure, and exactly the SQL twins' key::VARCHAR under
    the byte-hash CTE (the source_mixture_sample rule, shared so every
    sampler accepts integer keys instead of crashing in string_hash64)."""
    if isinstance(kcol, pa.ChunkedArray):
        kcol = kcol.combine_chunks()
    if not (pa.types.is_string(kcol.type) or pa.types.is_large_string(kcol.type)):
        kcol = pa.compute.cast(kcol, pa.string())
    keys = kcol.to_numpy(zero_copy_only=False)
    return detmix.seeded_mix(detmix.string_hash64(keys), seed)


def source_mixture_sample(
    ds: rd.Dataset,
    rates: dict[str, float],
    key_col: str = "doc_id",
    source_col: str = "source",
    seed: int = 0,
    default_rate: float = 1.0,
) -> rd.Dataset:
    """Keep each row iff mix64(hash(key), seed) < threshold[source] —
    deterministic domain re-weighting. Sources absent from `rates` keep
    `default_rate` of their rows."""
    thr = rate_thresholds(rates)
    default_thr = rate_thresholds({"_": default_rate})["_"]
    seed = int(seed)

    def keep_batch(t: pa.Table) -> pa.Table:
        u = _seeded_key_hash(t.column(key_col), seed)
        # dictionary-encode the (low-cardinality) source column, resolve
        # thresholds per UNIQUE source, then gather per row — no per-row
        # Python. A threshold of 2^64 (rate 1.0) overflows uint64, so
        # full-keep sources get a flag and the rest compare in uint64.
        enc = pa.compute.dictionary_encode(
            pa.compute.fill_null(t.column(source_col).combine_chunks(), "")
        )
        uniq = enc.dictionary.to_pylist()
        vals = [thr.get(s, default_thr) for s in uniq] + [default_thr]
        uniq_full = np.array([v >= U64 for v in vals], bool)
        uniq_lim = np.array(
            [0 if v >= U64 else v for v in vals], np.uint64
        )
        codes = pa.compute.fill_null(enc.indices, len(uniq)).to_numpy()
        keep = uniq_full[codes] | (u < uniq_lim[codes])
        return t.filter(pa.array(keep))

    return ds.map_batches(keep_batch, batch_format="pyarrow")


def uniform_sample(
    ds: rd.Dataset,
    k: int,
    key_col: str = "doc_id",
    seed: int = 0,
) -> rd.Dataset:
    """Exactly `k` rows drawn uniformly (without replacement) from the
    whole corpus — the eval-subset / spot-check selection: keep the k
    SMALLEST seeded key hashes, ties broken by key. Deterministic,
    partition-independent, stable under resume (membership is an order
    statistic of a pure row function, the stratified_sample rule with a
    single implicit stratum).

    Non-negative INTEGER keys only (the stratified_sample hash rule and
    its SQL twin). Scale shape: each block reduces to its local k
    smallest (u, key) rows, the global cap is one dataset-side
    sort+limit over O(blocks x k) candidate rows — the corpus never
    concentrates anywhere."""
    seed = int(seed)
    kk = int(k)

    def partial(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(keys) and keys.min() < 0:
            raise ValueError("uniform_sample requires non-negative keys")
        u = detmix.seeded_mix(detmix.splitmix64(keys.astype(np.uint64)), seed)
        # cut by the GLOBAL rule (_u = u >> 1, then key): ordering by the
        # full-width u here could keep the wrong row of a (u >> 1) tie
        order = np.lexsort((keys, u >> np.uint64(1)))[:kk]
        take = np.sort(order)
        sub = t.take(pa.array(take))
        return sub.append_column(
            "_u", pa.array((u[take] >> np.uint64(1)).astype(np.int64))
        )

    # the sort's reduce concatenates the partials: strip the read blocks'
    # pandas schema metadata first
    cands = util.clean_dataset(ds).map_batches(partial, batch_format="pyarrow")
    return cands.sort(["_u", key_col]).limit(kk)


def uniform_sample_oracle_sql(
    table: str,
    k: int,
    key_col: str = "doc_id",
    seed: int = 0,
    columns: str = "*",
) -> str:
    """SQL replica of :func:`uniform_sample` (same splitmix64 chain as
    the stratified oracle; `_u` included so the engine's carried column
    compares)."""
    seed_mix = int(detmix.splitmix64(int(seed) % U64))
    u_expr = detmix.sql_splitmix64(
        f"xor({detmix.sql_splitmix64(key_col)}, {seed_mix}::UBIGINT)"
    )
    return f"""
SELECT {columns}, ({u_expr} >> 1)::BIGINT AS _u FROM {table}
ORDER BY _u, {key_col} LIMIT {int(k)}"""


def temperature_rates_from_counts(
    counts: dict[str, int], tau: float
) -> dict[str, float]:
    """Temperature re-weighting (the Pile / UniMax / mT5 mixture rule):
    target source proportions p_s proportional to n_s^tau, realized as
    per-source keep rates w_s = n_s^(tau-1) normalized so the LARGEST
    weight keeps everything (tau < 1 downsamples big sources toward a
    flatter mix; tau = 1 is identity, tau = 0 targets a uniform source
    mix). Pure float64 function of the exact integer counts — the same
    rates dict feeds the engine filter and the SQL oracle's inlined
    thresholds (the DSIR plan-time-weights precedent)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    pos = {s: int(n) for s, n in counts.items() if int(n) > 0}
    if not pos:
        return {}
    w = {s: float(n) ** (tau - 1.0) for s, n in pos.items()}
    mx = max(w.values())
    return {s: v / mx for s, v in w.items()}


def temperature_rates(
    ds: rd.Dataset, tau: float, source_col: str = "source"
) -> dict[str, float]:
    """Distributed twin: one skinny groupby-count over the source column
    (O(sources) rows reach the driver), then the shared rule."""
    rows = (
        ds.select_columns([source_col]).groupby(source_col).count().take_all()
    )
    counts = {
        ("" if r[source_col] is None else r[source_col]): int(r["count()"])
        for r in rows
    }
    return temperature_rates_from_counts(counts, tau)


def epoch_order(
    ds: rd.Dataset, key_col: str = "doc_id", seed: int = 0
) -> rd.Dataset:
    """Append `epoch_rank` = mix64(hash(key), seed) >> 1 (int64-safe) and
    sort by it — the reproducible global shuffle for one training epoch.
    Different seeds give independent orders; ranks are stable under any
    partitioning, so a resumed epoch continues where it stopped."""
    seed = int(seed)

    def add_rank(t: pa.Table) -> pa.Table:
        u = _seeded_key_hash(t.column(key_col), seed)
        return t.append_column(
            "epoch_rank", pa.array((u >> np.uint64(1)).astype(np.int64))
        )

    return ds.map_batches(add_rank, batch_format="pyarrow").sort("epoch_rank")


def stratified_sample(
    ds: rd.Dataset,
    k: int,
    group_col: str = "source",
    key_col: str = "doc_id",
    seed: int = 0,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Exactly `k` rows per group (fewer iff the group is smaller) — the
    balanced-subset sampler (eval slices, per-domain inspection sets,
    capped minority upweighting). Selection = the k smallest seeded key
    hashes per group, ties (impossible at uint64 width, but pinned anyway)
    to key ascending — so membership is a pure per-row function plus an
    order statistic, deterministic under any partitioning, and exactly
    replicable in SQL (`stratified_oracle_sql`: row_number over
    (u, key) <= k).

    Scale shape: per-block partials already cap each group at k rows
    (the global k smallest of a group is a subset of the union of
    per-block k smallest), so at most O(groups-in-block x k) rows leave
    any block; bucketing by hash(group) makes the final cap exact
    in-bucket. Output is (group, key) rows — join back on the key for
    full records if needed."""
    seed = int(seed)
    nb = n_buckets if n_buckets is not None else util.scaled_buckets(ds)

    def partials(t: pa.Table) -> pa.Table:
        # keys flow through as STRINGS (int keys -> decimal text, the same
        # coercion their hash uses); tie-order on u collisions is over the
        # decimal text, stated and ~impossible at uint64 width
        keys = (
            pa.compute.cast(t.column(key_col), pa.string())
            .to_numpy(zero_copy_only=False)
        )
        grp = t.column(group_col).to_numpy(zero_copy_only=False)
        u = _seeded_key_hash(t.column(key_col), seed)
        df = pd.DataFrame({"g": grp, "k": keys, "u": u})
        df = df.sort_values(["u", "k"]).groupby("g", sort=False).head(k)
        b = (
            detmix.splitmix64(detmix.string_hash64(df["g"].to_numpy(object)))
            % np.uint64(nb)
        ).astype(np.int32)
        return pa.table(
            {
                "g": pa.array(df["g"].to_numpy(object), pa.string()),
                "k": pa.array(df["k"].to_numpy(object), pa.string()),
                "u": pa.array(df["u"].to_numpy(np.uint64)),
                "_b": pa.array(b),
            }
        )

    def in_bucket(t: pa.Table) -> pa.Table:
        df = t.select(["g", "k", "u"]).to_pandas()
        df = df.sort_values(["u", "k"]).groupby("g", sort=False).head(k)
        df = df.sort_values(["g", "k"])
        return pa.table(
            {
                group_col: pa.array(df["g"].to_numpy(object), pa.string()),
                key_col: pa.array(df["k"].to_numpy(object), pa.string()),
            }
        )

    parts = ds.map_batches(partials, batch_format="pyarrow")
    return util.bucketed(parts, "_b", in_bucket).sort([group_col, key_col])


# ---------------------------------------------------------------------------
# SQL parity oracles (DuckDB)
# ---------------------------------------------------------------------------


def _mix_ctes(table: str, key_col: str, seed: int) -> str:
    """pow257_64 + kh + seeded-mix CTE chain -> ``mx(k, u)``."""
    seed_mixed = int(detmix.splitmix64(seed % U64))
    return f"""WITH pow257_64(j, v) AS (VALUES {detmix.sql_pow257_64_values()}),
{detmix.sql_string_hash_ctes(table, key_col)},
mx AS (SELECT k, {detmix.sql_splitmix64(f"xor(h, {seed_mixed}::UBIGINT)")} AS u FROM kh)"""


def mixture_oracle_sql(
    table: str,
    rates: dict[str, float],
    key_col: str = "doc_id",
    source_col: str = "source",
    seed: int = 0,
    default_rate: float = 1.0,
) -> str:
    """SQL replica of :func:`source_mixture_sample` over `table`."""
    thr = rate_thresholds(rates)
    default_thr = rate_thresholds({"_": default_rate})["_"]
    cases = " ".join(
        f"WHEN '{s}' THEN {'TRUE' if t >= U64 else f'mx.u < {t}::UBIGINT'}"
        for s, t in thr.items()
    )
    default_case = "TRUE" if default_thr >= U64 else f"mx.u < {default_thr}::UBIGINT"
    return f"""{_mix_ctes(table, key_col, seed)}
SELECT d.* FROM {table} d JOIN mx ON mx.k = d.{key_col}
WHERE CASE coalesce(d.{source_col}, '') {cases} ELSE {default_case} END"""


def epoch_order_oracle_sql(
    table: str, key_col: str = "doc_id", seed: int = 0, limit: int = 200
) -> str:
    """SQL replica of :func:`epoch_order` (first `limit` rows by rank)."""
    return f"""{_mix_ctes(table, key_col, seed)}
SELECT d.{key_col}, (mx.u >> 1)::BIGINT AS epoch_rank
FROM {table} d JOIN mx ON mx.k = d.{key_col}
ORDER BY epoch_rank, d.{key_col} LIMIT {limit}"""


def stratified_oracle_sql(
    table: str,
    k: int,
    group_col: str = "source",
    key_col: str = "doc_id",
    seed: int = 0,
) -> str:
    """SQL replica of :func:`stratified_sample`: identical seeded hash
    (shared `_mix_ctes`), identical (u, key) rank rule."""
    return f"""{_mix_ctes(table, key_col, seed)},
rk AS (
  SELECT d.{group_col} AS {group_col}, d.{key_col} AS {key_col},
         row_number() OVER (
           PARTITION BY d.{group_col} ORDER BY mx.u, d.{key_col}
         ) AS rn
  FROM {table} d JOIN mx ON mx.k = d.{key_col}
)
SELECT {group_col}, {key_col} FROM rk WHERE rn <= {k}
ORDER BY {group_col}, {key_col}"""


def split_thresholds(fractions: dict[str, float]) -> list[tuple[str, int]]:
    """Ordered (name, cumulative uint64 threshold) — insertion order
    defines the hash-range layout, last range absorbs rounding."""
    total = sum(fractions.values())
    if not 0.999 <= total <= 1.001:
        raise ValueError(f"split fractions must sum to 1, got {total}")
    out, acc = [], 0.0
    items = list(fractions.items())
    for i, (name, f) in enumerate(items):
        acc += f
        thr = U64 if i == len(items) - 1 else int(acc * U64)
        out.append((name, thr))
    return out


def assign_splits(
    ds: rd.Dataset,
    fractions: dict[str, float] | None = None,
    key_col: str = "doc_id",
    seed: int = 0,
) -> rd.Dataset:
    """Append `split` (train/val/test/...) — the deterministic holdout
    assignment every training pipeline needs: split = the hash range
    mix64(hash(key), seed) falls into. A pure per-row function of the
    key, so membership is stable across partitioning, cluster size,
    resume, and corpus growth (new rows never move old rows between
    splits). Streaming map_batches, no shuffle; exact SQL twin
    `splits_oracle_sql`."""
    fractions = fractions or {"train": 0.98, "val": 0.01, "test": 0.01}
    thr = split_thresholds(fractions)
    names = [n for n, _ in thr]
    bounds = np.array([t for _, t in thr[:-1]], dtype=np.uint64)
    seed = int(seed)

    def tag(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        if keys.dtype != object:  # integer keys hash by decimal string
            keys = keys.astype(str).astype(object)  # = SQL ::VARCHAR
        u = detmix.seeded_mix(detmix.string_hash64(keys), seed)
        idx = np.searchsorted(bounds, u, side="right")
        name_arr = pa.DictionaryArray.from_arrays(
            pa.array(idx.astype(np.int32)), pa.array(names, pa.string())
        )
        return t.append_column("split", name_arr.cast(pa.string()))

    return ds.map_batches(tag, batch_format="pyarrow")


def splits_oracle_sql(
    table: str,
    fractions: dict[str, float] | None = None,
    key_col: str = "doc_id",
    seed: int = 0,
) -> str:
    """SQL replica of :func:`assign_splits` (keys hashed by their VARCHAR
    form, matching the kernel's decimal-string coercion of int keys)."""
    fractions = fractions or {"train": 0.98, "val": 0.01, "test": 0.01}
    thr = split_thresholds(fractions)
    cases = " ".join(
        f"WHEN mx.u < {t}::UBIGINT THEN '{n}'" for n, t in thr[:-1]
    )
    return f"""{_mix_ctes(table, f"{key_col}::VARCHAR", seed)}
SELECT d.{key_col}, CASE {cases} ELSE '{thr[-1][0]}' END AS split
FROM {table} d JOIN mx ON mx.k = d.{key_col}::VARCHAR"""


# ---------------------------------------------------------------------------
# length-bucketed batching stats (padding-efficiency accounting)
# ---------------------------------------------------------------------------

DEFAULT_LENGTH_BOUNDARIES = (128, 256, 512, 1024, 2048)


def length_bucket_stats(
    ds: rd.Dataset,
    *,
    length_col: str = "n_tok",
    boundaries: tuple[int, ...] = DEFAULT_LENGTH_BOUNDARIES,
) -> rd.Dataset:
    """Per-bucket padding accounting for length-bucketed batching (the
    standard trick that cuts pad-token waste when batching variable-length
    sequences to fixed shapes): bucket i holds docs with
    len <= boundaries[i] (first fitting bucket); docs longer than the last
    boundary are TRUNCATED to it (padded_len = cap, waste 0). Emits one
    row per non-empty bucket: (bucket_cap, n_docs, token_sum, pad_waste)
    where pad_waste = sum(cap - min(len, cap)).

    Scale: vectorized searchsorted per batch + a boundaries-sized
    groupby-sum — all integer, so the operator carries a full value
    oracle (`length_buckets_oracle_sql`)."""
    bnd = np.asarray(sorted(boundaries), dtype=np.int64)
    if len(bnd) == 0:
        raise ValueError("need at least one bucket boundary")

    def per_batch(t: pa.Table) -> pa.Table:
        ln = t.column(length_col).to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(bnd, ln, side="left").clip(max=len(bnd) - 1)
        cap = bnd[idx]
        clipped = np.minimum(ln, cap)
        # per-batch partial fold keeps the shuffle at O(buckets)/block
        sums = np.bincount(idx, weights=clipped, minlength=len(bnd)).astype(np.int64)
        waste = np.bincount(idx, weights=cap - clipped, minlength=len(bnd)).astype(np.int64)
        cnt = np.bincount(idx, minlength=len(bnd)).astype(np.int64)
        ne = cnt > 0
        return pa.table(
            {
                "bucket_cap": pa.array(bnd[ne]),
                "n_docs": pa.array(cnt[ne]),
                "token_sum": pa.array(sums[ne]),
                "pad_waste": pa.array(waste[ne]),
            }
        )

    folded = (
        ds.map_batches(per_batch, batch_format="pyarrow")
        .groupby("bucket_cap")
        .sum(["n_docs", "token_sum", "pad_waste"])
    )

    def rename(t: pa.Table) -> pa.Table:
        # name-based (see quality.crossdoc rename rationale)
        return pa.table(
            {
                "bucket_cap": t.column("bucket_cap"),
                "n_docs": t.column("sum(n_docs)"),
                "token_sum": t.column("sum(token_sum)"),
                "pad_waste": t.column("sum(pad_waste)"),
            }
        )

    return folded.map_batches(rename, batch_format="pyarrow")


def length_buckets_oracle_sql(
    table: str = "documents",
    *,
    length_col: str = "n_tok",
    boundaries: tuple[int, ...] = DEFAULT_LENGTH_BOUNDARIES,
) -> str:
    """DuckDB replica of length_bucket_stats."""
    bnd = sorted(boundaries)
    cap_expr = "CASE " + " ".join(
        f"WHEN {length_col} <= {b} THEN {b}" for b in bnd[:-1]
    ) + f" ELSE {bnd[-1]} END"
    return (
        f"SELECT {cap_expr}::BIGINT AS bucket_cap, "
        f"count(*)::BIGINT AS n_docs, "
        f"sum(least({length_col}, {bnd[-1]}))::BIGINT AS token_sum, "
        f"sum({cap_expr} - least({length_col}, {cap_expr}))::BIGINT AS pad_waste "
        f"FROM {table} GROUP BY 1"
    )


# ---------------------------------------------------------------------------
# token-budget mixture sampling (exact per-source token budgets, sort-free)
# ---------------------------------------------------------------------------


def _tb_width(lo: int, hi: int, n_bins: int) -> int:
    """Bucket width for range [lo, hi) — ONE formula shared by driver and
    workers (a mismatch silently mis-indexes the histogram)."""
    return ((hi - lo) + n_bins - 1) // n_bins


def _tb_hist_partial(
    t: pa.Table,
    ranges: dict[str, tuple[int, int]] | None,
    key_col: str,
    source_col: str,
    ntok_col: str,
    seed: int,
    n_bins: int,
) -> pa.Table:
    """Per-block (source, bucket, tok, cnt) partial for the sources still
    ambiguous. `ranges` maps source -> (lo, hi) in u-space; None means
    level 0 (full range, every source). Integer-exact sums (np.add.at on
    int64, never float bincount weights — token totals at corpus scale
    exceed float64's exact-integer range)."""
    u = _seeded_key_hash(t.column(key_col), seed)
    ntok = t.column(ntok_col).to_numpy(zero_copy_only=False).astype(np.int64)
    enc = pa.compute.dictionary_encode(
        pa.compute.fill_null(t.column(source_col).combine_chunks(), "")
    )
    uniq = enc.dictionary.to_pylist()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    out_s: list[str] = []
    out_b: list[np.ndarray] = []
    out_t: list[np.ndarray] = []
    out_c: list[np.ndarray] = []
    for ci, s in enumerate(uniq):
        if ranges is None:
            lo, hi = 0, 1 << 64
        elif s in ranges:
            lo, hi = ranges[s]
        else:
            continue
        width = _tb_width(lo, hi, n_bins)
        m = codes == ci
        if ranges is not None:
            m &= u >= np.uint64(lo)
            if hi < (1 << 64):  # 2^64 overflows uint64; means "no upper bound"
                m &= u < np.uint64(hi)
        if not m.any():
            continue
        b = ((u[m] - np.uint64(lo)) // np.uint64(width)).astype(np.int64)
        nb = -(-(hi - lo) // width)
        tok = np.zeros(nb, np.int64)
        np.add.at(tok, b, ntok[m])
        cnt = np.bincount(b, minlength=nb).astype(np.int64)
        nz = np.flatnonzero(cnt)
        out_s.extend([s] * len(nz))
        out_b.append(nz)
        out_t.append(tok[nz])
        out_c.append(cnt[nz])
    if not out_s:
        return pa.table(
            {"s": pa.array([], pa.string()), "b": pa.array([], pa.int64()),
             "tok": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
        )
    return pa.table(
        {
            "s": pa.array(out_s, pa.string()),
            "b": pa.array(np.concatenate(out_b)),
            "tok": pa.array(np.concatenate(out_t)),
            "cnt": pa.array(np.concatenate(out_c)),
        }
    )


def token_budget_sample(
    ds: rd.Dataset,
    budgets: dict[str, int],
    *,
    key_col: str = "doc_id",
    source_col: str = "source",
    ntok_col: str = "n_tok",
    seed: int = 0,
    default_budget: int | None = None,
    n_bins: int = 1 << 12,
    collect_budget: int = 200_000,
    max_levels: int = 10,
) -> rd.Dataset:
    """Keep, per source, the maximal PREFIX of docs in seeded-hash order
    whose cumulative token count fits that source's budget — "give me
    exactly ~B tokens of web, deterministically" — WITHOUT a global sort:
    the cut hash is found by iterative histogram range refinement over
    u-space (the float_quantiles shape). Sources absent from `budgets`
    keep everything when `default_budget` is None, else get the default.

    Prefix rule (SQL-identical): order docs by (mix64(hash(key), seed),
    key); keep while the running sum of `ntok_col` stays <= budget. The
    first doc that would overflow stops the prefix — later smaller docs
    are NOT pulled in (a cumulative-window rule, replicable exactly in
    SQL; see token_budget_oracle_sql).

    Scale shape: each refinement level is ONE streaming pass emitting
    per-block already-aggregated (source, bucket) partials; the driver
    folds O(sources x n_bins) integers — never rows. n_bins=4096 shrinks
    the 2^64 u-space to a <= collect_budget bucket in <= 6 levels on any
    corpus size; one filtered collect pass ranks the boundary bucket
    exactly; the final filter is a pure per-row predicate (broadcast
    cuts), so the decision is partition-independent and resume-stable."""
    seed = int(seed)

    # cuts: source -> ("all",) | ("ult", X) keep iff u < X
    #               | ("pair", cu, ck) keep iff (u, key) <= (cu, ck)
    cuts: dict[str, tuple] = {}
    pending: dict[str, dict] = {}  # source -> {lo, hi, rem}
    collectible: dict[str, tuple[int, int, int]] = {}  # (lo, hi, rem)

    ranges: dict[str, tuple[int, int]] | None = None  # level-0 sentinel
    for _level in range(max_levels):
        hist: dict[str, dict[int, tuple[int, int]]] = {}
        parts = ds.map_batches(
            lambda t, r=ranges: _tb_hist_partial(
                t, r, key_col, source_col, ntok_col, seed, n_bins
            ),
            batch_format="pyarrow",
        )
        for blk in parts.iter_batches(batch_format="pyarrow"):
            ss = blk.column("s").to_pylist()
            bs = blk.column("b").to_pylist()
            ts = blk.column("tok").to_pylist()
            cs = blk.column("cnt").to_pylist()
            for s, b, tk, c in zip(ss, bs, ts, cs):
                d = hist.setdefault(s, {})
                ot, oc = d.get(b, (0, 0))
                d[b] = (ot + tk, oc + c)
        if ranges is None:
            # discover sources; assign budgets; unlimited -> resolved now
            pending = {}
            for s in hist:
                bud = budgets.get(s, default_budget)
                if bud is None:
                    cuts[s] = ("all",)
                else:
                    pending[s] = {"lo": 0, "hi": 1 << 64, "rem": int(bud)}
        nxt: dict[str, tuple[int, int]] = {}
        for s, st in list(pending.items()):
            lo, hi, rem = st["lo"], st["hi"], st["rem"]
            width = _tb_width(lo, hi, n_bins)
            d = hist.get(s, {})
            crossed = False
            for b in sorted(d):
                tk, c = d[b]
                if tk <= rem:
                    rem -= tk
                    continue
                # bucket b crosses the budget
                blo = lo + b * width
                bhi = min(blo + width, hi)
                if c <= collect_budget or width == 1:
                    collectible[s] = (blo, bhi, rem)
                else:
                    nxt[s] = (blo, bhi)
                    st.update(lo=blo, hi=bhi, rem=rem)
                crossed = True
                break
            if not crossed:
                # whole remaining range fits: keep everything below hi
                cuts[s] = ("ult", hi)
            if s in cuts or s in collectible:
                del pending[s]
        if not nxt:
            break
        ranges = {s: nxt[s] for s in nxt}
    else:
        raise RuntimeError(
            f"token_budget_sample: {sorted(pending)} unresolved after "
            f"{max_levels} levels — raise max_levels or collect_budget"
        )

    if collectible:
        cranges = dict(collectible)

        def collect(t: pa.Table) -> pa.Table:
            keys = t.column(key_col).to_numpy(zero_copy_only=False)
            u = _seeded_key_hash(t.column(key_col), seed)
            ntok = (
                t.column(ntok_col).to_numpy(zero_copy_only=False).astype(np.int64)
            )
            enc = pa.compute.dictionary_encode(
                pa.compute.fill_null(t.column(source_col).combine_chunks(), "")
            )
            uniq = enc.dictionary.to_pylist()
            codes = enc.indices.to_numpy(zero_copy_only=False)
            m = np.zeros(len(t), bool)
            for ci, s in enumerate(uniq):
                r = cranges.get(s)
                if r is None:
                    continue
                sm = (codes == ci) & (u >= np.uint64(r[0]))
                if r[1] < (1 << 64):
                    sm &= u < np.uint64(r[1])
                m |= sm
            src_arr = np.asarray(uniq, object)[codes[m]]
            return pa.table(
                {
                    "s": pa.array(src_arr, pa.string()),
                    "u": pa.array(u[m]),
                    # explicit key type: an all-False mask must not emit a
                    # null-typed column that conflicts across blocks
                    "k": pa.array(keys[m], t.schema.field(key_col).type),
                    "n": pa.array(ntok[m]),
                }
            )

        got = ds.map_batches(collect, batch_format="pyarrow").to_pandas()
        if "s" not in got.columns:
            # Ray's to_pandas drops the schema when every block is empty;
            # an empty collect means no boundary doc fits anywhere
            got = pd.DataFrame({"s": [], "u": [], "k": [], "n": []})
        got = got.sort_values(["s", "u", "k"], kind="mergesort")
        for s, (blo, bhi, rem) in collectible.items():
            g = got[got["s"] == s]
            cum = g["n"].cumsum()
            kept = g[cum <= rem]
            if len(kept):
                cuts[s] = ("pair", int(kept["u"].iloc[-1]), kept["k"].iloc[-1])
            else:
                cuts[s] = ("ult", blo)

    final_cuts = dict(cuts)

    def keep_batch(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        u = _seeded_key_hash(t.column(key_col), seed)
        enc = pa.compute.dictionary_encode(
            pa.compute.fill_null(t.column(source_col).combine_chunks(), "")
        )
        uniq = enc.dictionary.to_pylist()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        keep = np.zeros(len(t), bool)
        for ci, s in enumerate(uniq):
            cut = final_cuts.get(s)
            if cut is None:
                continue
            m = codes == ci
            if cut[0] == "all":
                keep |= m
            elif cut[0] == "ult":
                if cut[1] >= (1 << 64):
                    keep |= m
                else:
                    keep |= m & (u < np.uint64(cut[1]))
            else:
                _, cu, ck = cut
                below = m & (u < np.uint64(cu))
                ties = m & (u == np.uint64(cu))
                keep |= below
                if ties.any():
                    keep[ties] = keys[ties] <= ck
        return t.filter(pa.array(keep))

    return ds.map_batches(keep_batch, batch_format="pyarrow")


def token_budget_oracle_sql(
    table: str,
    budgets: dict[str, int],
    *,
    key_col: str = "doc_id",
    source_col: str = "source",
    ntok_col: str = "n_tok",
    seed: int = 0,
    default_budget: int | None = None,
) -> str:
    """SQL replica of :func:`token_budget_sample`: cumulative window sum
    over the identical seeded-hash order, prefix rule cum <= budget."""
    cases = " ".join(
        f"WHEN '{s}' THEN c.cum <= {int(b)}" for s, b in budgets.items()
    )
    default_case = (
        "TRUE" if default_budget is None else f"c.cum <= {int(default_budget)}"
    )
    return f"""{_mix_ctes(table, key_col, seed)},
c AS (
  SELECT d.{key_col}, d.{source_col}, d.{ntok_col},
         sum(d.{ntok_col}) OVER (
           PARTITION BY coalesce(d.{source_col}, '') ORDER BY mx.u, d.{key_col}
         ) AS cum
  FROM {table} d JOIN mx ON mx.k = d.{key_col}
)
SELECT c.{key_col}, c.{source_col}, c.{ntok_col}::BIGINT AS {ntok_col} FROM c
WHERE CASE coalesce(c.{source_col}, '') {cases} ELSE {default_case} END"""


# ---------------------------------------------------------------------------
# per-group quantile-cutoff filter (keep rows at/above their group's
# percentile_disc(p) — the "drop the short tail per domain" cleaning rule)
# ---------------------------------------------------------------------------


def quantile_filter(
    ds: rd.Dataset,
    *,
    group_col: str = "source",
    value_col: str = "n_tok",
    p: float = 0.5,
    cols: list[str] | None = None,
) -> rd.Dataset:
    """Keep rows whose `value_col` >= their group's EXACT
    percentile_disc(`p`) cutoff — per-domain length floors (the published
    per-source cleaning rule: a 50-token doc is short for books, normal
    for chat; one global floor over- or under-prunes every domain).

    Two streaming passes: the grouped_quantiles fold (per-block
    (group, value, cnt) partials, one bucketed rank scan, O(groups) rows
    out) computes the cutoffs; the driver broadcasts the O(groups) cutoff
    map via closure and one stateless map_batches filters. NULL values
    never pass (SQL comparison semantics); NULL group keys form their own
    group (the grouped_quantiles convention). SQL twin:
    `quantile_filter_oracle_sql`."""
    ds = util.clean_dataset(ds)
    if cols is not None:
        ds = ds.select_columns(cols)
    cuts = grouped_quantiles(ds, group_col, value_col, ps=(p,)).to_pandas()
    # (group, cutoff) rows; with no non-NULL value anywhere there are none
    # (and to_pandas drops the columns too): an empty map keeps no rows,
    # like the SQL twin's join against an empty cutoff table
    cut_of = {g: int(c) for g, c in cuts.itertuples(index=False)}

    def keep(t: pa.Table) -> pa.Table:
        g = t.column(group_col).to_pandas().fillna("")
        v = t.column(value_col).to_numpy(zero_copy_only=False)
        cut = g.map(cut_of).to_numpy(np.float64, na_value=np.inf)
        ok = ~pd.isna(v) & (v.astype(np.float64) >= cut)
        return t.filter(pa.array(ok))

    return ds.map_batches(keep, batch_format="pyarrow")


def quantile_filter_oracle_sql(
    table: str,
    *,
    group_col: str = "source",
    value_col: str = "n_tok",
    p: float = 0.5,
    cols: tuple[str, ...] = ("doc_id", "source", "n_tok"),
) -> str:
    """DuckDB replica of :func:`quantile_filter`: the same
    percentile_disc cutoff per group, join + >= comparison."""
    proj = ", ".join(f"d.{c}" for c in cols)
    return f"""
WITH cut AS (
  SELECT coalesce({group_col}, '') AS g,
         percentile_disc({p}) WITHIN GROUP (ORDER BY {value_col})::BIGINT AS c
  FROM {table} WHERE {value_col} IS NOT NULL
  GROUP BY coalesce({group_col}, '')
)
SELECT {proj} FROM {table} d
JOIN cut ON cut.g = coalesce(d.{group_col}, '')
WHERE d.{value_col} >= cut.c"""
