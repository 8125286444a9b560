"""Distributed grouped statistics in the ST_RegionStats execution shape
(st_region_stats.cpp:330-807): per-input update into a partial state
(:531-541), a combine (:382-411), a finalize (:413-448).

Welford (`grouped_stats`): `map_batches` emits one partial row per
(key, batch) — a pre-aggregation that shrinks the shuffle from O(rows) to
O(keys x batches) — then a small `util.bucketed(partials, key, ...)`
shuffle merges partials with the numerically-stable pairwise formula and
finalizes. stddev is the sample standard deviation (m2/(n-1)) like
compute_band_stats (band_decoder.cpp:226-297), matching DuckDB's
STDDEV_SAMP.

Histogram-shaped statistics (value histograms, grouped top-k, bigrams,
grouped quantiles, entropy, KL, median/MAD, top-k rows, distinct counts)
share one bucketed-reduce core:

  partial   per block, one row per distinct (group, value) pair present
            plus a `_b` bucket = hash(group) % n_buckets, so every
            partial of a group lands in one bucket (`_group_codes` codes
            the group key once: NULL -> '', string keys only);
  shuffle   `util.bucketed(parts, "_b", reduce)`, the package's one
            wide step; `reduce` always sees a non-empty bucket;
  merge     `_group_runs`: the bucket's rows become (group asc, value asc)
            unique pairs with exact int64 counts, one run per group;
  finalize  per group: top-k cut, entropy, KL, percentile_disc,
            percentile_cont, median/MAD.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from duckdb_raquet_ray import util
from duckdb_raquet_ray.functions import detmix
from duckdb_raquet_ray.pipelines.joins import _round_half_away


def welford_partials(batch: pa.Table, key: str, value: str) -> pa.Table:
    """One partial state row per key in this batch (vectorized).

    Keys are grouped over ALL rows (dropna=False: the NULL key forms a
    group, and a key whose values are all NULL still appears with n=0 —
    SQL GROUP BY / COUNT(v) semantics); pandas reductions skip NaN
    values, which is exactly the SQL aggregate null rule."""
    df = pd.DataFrame(
        {
            "k": batch.column(key).to_pandas(),
            "v": batch.column(value).to_numpy(zero_copy_only=False).astype(np.float64),
        }
    )
    g = df.groupby("k", dropna=False)["v"]
    n = g.count()  # non-null count, one scan reused below
    out = pd.DataFrame(
        {
            key: n.index,
            "n": n.to_numpy(),
            "sum": g.sum().to_numpy(),
            "mean": g.mean().to_numpy(),
            "m2": (g.var(ddof=0) * n).fillna(0.0).to_numpy(),
            "min": g.min().to_numpy(),
            "max": g.max().to_numpy(),
        }
    )
    # strip the b'pandas' schema metadata from_pandas attaches: a schema
    # with metadata is unhashable (hash includes a dict), so every
    # downstream block concat logs Ray's "Failed to hash the schemas"
    # warning and defeats its schema-dedup fast path
    return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)


def _combine_and_finalize(group: pa.Table, key: str) -> pa.Table:
    """Pairwise Welford merge of partial states (st_region_stats.cpp:382-411).

    Arrow in, Arrow out with an explicit uniform schema (see
    util.bucketed)."""
    ns = group.column("n").to_numpy(zero_copy_only=False)
    means = group.column("mean").to_numpy(zero_copy_only=False)
    m2s = group.column("m2").to_numpy(zero_copy_only=False)
    n_t, mean_t, m2_t = 0.0, 0.0, 0.0
    for n, mean, m2 in zip(ns, means, m2s):
        if n == 0:
            continue
        delta = mean - mean_t
        tot = n_t + n
        m2_t = m2_t + m2 + delta * delta * n_t * n / tot
        mean_t = mean_t + delta * n / tot
        n_t = tot
    # NaN encodes SQL NULL for the double columns (DuckDB's to-pandas
    # convention): STDDEV_SAMP is NULL for n<2, SUM/MEAN/MIN/MAX are NULL
    # for an all-null group
    std = float(np.sqrt(m2_t / (n_t - 1))) if n_t > 1 else float("nan")
    empty = n_t == 0
    nan = float("nan")
    mins = group.column("min").to_numpy(zero_copy_only=False)
    maxs = group.column("max").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            key: group.column(key).slice(0, 1),
            "cnt": pa.array([int(n_t)], type=pa.int64()),
            "sum_v": pa.array(
                [nan if empty else float(np.nansum(group.column("sum").to_numpy(zero_copy_only=False)))],
                type=pa.float64(),
            ),
            "mean_v": pa.array([nan if empty else mean_t], type=pa.float64()),
            "min_v": pa.array([float(np.nanmin(mins)) if not np.isnan(mins).all() else nan], type=pa.float64()),
            "max_v": pa.array([float(np.nanmax(maxs)) if not np.isnan(maxs).all() else nan], type=pa.float64()),
            "std_v": pa.array([std], type=pa.float64()),
        }
    )


def grouped_stats(ds: rd.Dataset, key: str, value: str) -> rd.Dataset:
    """Per-key {cnt, sum_v, mean_v, min_v, max_v, std_v} — partial+final."""
    partials = ds.map_batches(
        lambda b: welford_partials(b, key, value),
        batch_format="pyarrow",
        batch_size=65536,
    )
    return util.bucketed(partials, key, lambda g: _combine_and_finalize(g, key))


# ---------------------------------------------------------------------------
# the bucketed-reduce core (module level: the package ships to workers by
# value, so these must never be lazily imported inside a stage)
# ---------------------------------------------------------------------------


def _group_codes(
    col: pa.Array | pa.ChunkedArray, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """Code a group-key column -> (int64 code per row, object ndarray of
    the distinct keys in first-appearance order).
    NULL keys fold into '' like the SQL twins' coalesce(g, '').

    String keys only: any other type is refused here with a named error,
    instead of failing inside a worker in the key hash."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_null(col.type):  # an all-NULL column inferred as null
        col = col.cast(pa.string())
    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
        raise ValueError(
            f"group column {name!r} has type {col.type}: grouped statistics "
            "take string group keys only (NULL groups as ''); cast it first"
        )
    enc = pc.dictionary_encode(pc.fill_null(col, ""))
    return (
        enc.indices.to_numpy(zero_copy_only=False).astype(np.int64),
        enc.dictionary.to_numpy(zero_copy_only=False),
    )


def _pair_partial(
    group_col: str, value_name: str, groups: np.ndarray,
    codes: np.ndarray, values: np.ndarray, cnt: np.ndarray, nb: int,
) -> pa.Table:
    """(group, value, cnt, _b) partial rows from coded pairs; bucket =
    string_hash64(group) % nb, hashed once per distinct group."""
    if len(values) == 0:
        return pa.table(
            {
                group_col: pa.array([], pa.string()),
                value_name: pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
                "_b": pa.array([], pa.int32()),
            }
        )
    bucket = (detmix.string_hash64(groups) % np.uint64(nb)).astype(np.int32)
    return pa.table(
        {
            group_col: pa.array(groups[codes], pa.string()),
            value_name: pa.array(values.astype(np.int64)),
            "cnt": pa.array(cnt.astype(np.int64)),
            "_b": pa.array(bucket[codes]),
        }
    )


def _group_runs(
    g: pa.Table, group_col: str, value_col: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge one bucket's (group, value, cnt) rows -> (groups, values,
    cnts, starts): unique pairs in (group asc, value asc) order with
    exact int64 summed counts, `groups` one key per group run and
    `starts` each run's first pair. The sorted pair order is what keeps
    the finalizers' float folds (entropy, KL) bit-stable."""
    codes, uniq = _group_codes(g.column(group_col), group_col)
    srt = np.argsort(uniq, kind="stable")
    rank = np.empty(len(uniq), np.int64)
    rank[srt] = np.arange(len(uniq))
    gr = rank[codes]
    v = g.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
    c = g.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((v, gr))
    gr, v, c = gr[order], v[order], c[order]
    new = np.ones(len(v), bool)
    np.logical_or(gr[1:] != gr[:-1], v[1:] != v[:-1], out=new[1:])
    pairs = np.flatnonzero(new)
    gp = gr[pairs]
    starts = np.flatnonzero(np.r_[True, gp[1:] != gp[:-1]])
    return uniq[srt], v[pairs], np.add.reduceat(c, pairs), starts


# ---------------------------------------------------------------------------
# dense-domain histograms (vocabulary frequency, sequence-length quantiles)
# ---------------------------------------------------------------------------


def _hist_partials(batch: pa.Table, column: str, domain: int, flatten: bool) -> pa.Table:
    """One dense np.bincount per BLOCK, emitted as nonzero (value, cnt)
    rows + a coarse shuffle bucket. The shuffle payload is O(domain) per
    block — independent of how many rows/tokens the block held — which is
    the whole point: a token-frequency groupby shipped row-wise would be
    an all-to-all over every token at 100 TB."""
    col = batch.column(column)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if flatten:
        col = col.flatten()
    vals = col.to_numpy(zero_copy_only=False)
    c = np.bincount(vals, minlength=domain)
    nz = np.flatnonzero(c)
    return pa.table(
        {
            "value": pa.array(nz.astype(np.int64)),
            "cnt": pa.array(c[nz].astype(np.int64)),
            "_b": pa.array((nz % 256).astype(np.int32)),
        }
    )


def _hist_reduce(group: pa.Table) -> pa.Table:
    """Vectorized fine-grained sum inside one coarse bucket (the repo's
    high-cardinality-groupby shape; Arrow out — see _combine_and_finalize)."""
    df = group.select(["value", "cnt"]).to_pandas()
    s = df.groupby("value", sort=True)["cnt"].sum()
    return pa.table(
        {
            "value": pa.array(s.index.to_numpy(np.int64)),
            "cnt": pa.array(s.to_numpy(np.int64)),
        }
    )


def value_histogram(
    ds: rd.Dataset, column: str, domain: int, flatten: bool = False
) -> rd.Dataset:
    """Exact global frequency of every value of a dense int column (or a
    list column's elements with ``flatten=True``): in-block bincount
    partials -> coarse-bucket shuffle -> vectorized in-bucket sum."""
    parts = ds.map_batches(
        lambda t: _hist_partials(t, column, domain, flatten), batch_format="pyarrow"
    )
    return util.bucketed(parts, "_b", _hist_reduce)


def vocab_topk(
    ds: rd.Dataset, column: str = "tokens", vocab_size: int = 50_257, k: int = 100
) -> rd.Dataset:
    """Top-k most frequent tokens (vocabulary coverage — the training-data
    health check). Deterministic cutoff: count desc, token asc."""
    hist = value_histogram(ds, column, vocab_size, flatten=True)
    return (
        hist.rename_columns({"value": "token"})
        .sort(["cnt", "token"], descending=[True, False])
        .limit(k)
    )


def seqlen_quantiles(
    ds: rd.Dataset,
    column: str = "n_tok",
    max_len: int = 1 << 20,
    ps: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.99),
) -> pd.DataFrame:
    """Exact sequence-length quantiles from the full length histogram
    (packing-efficiency planning). The histogram result is O(max_len)
    rows — small — so the final cumulative scan runs on the driver;
    percentile semantics match SQL percentile_disc: the value whose
    1-indexed rank is ceil(p * n)."""
    hist = value_histogram(ds, column, max_len).to_pandas()
    if "value" not in hist.columns:
        # Ray's to_pandas drops the schema when every block is empty
        return pd.DataFrame([{f"p{int(p * 100)}": 0 for p in ps}])
    hist = hist.sort_values("value")
    counts = hist["cnt"].to_numpy(np.int64)
    values = hist["value"].to_numpy(np.int64)
    cum = np.cumsum(counts)
    n = int(cum[-1]) if len(cum) else 0
    out = {}
    for p in ps:
        rank = max(int(np.ceil(p * n)), 1)
        out[f"p{int(p * 100)}"] = int(values[np.searchsorted(cum, rank)]) if n else 0
    return pd.DataFrame([out])


def grouped_topk(
    ds: rd.Dataset,
    group_col: str = "source",
    tokens_col: str = "tokens",
    vocab_size: int = 50_257,
    k: int = 10,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Per-GROUP token top-k — the per-domain vocabulary profile (which
    tokens dominate each source feeds mixture weighting and domain-drift
    checks). Deterministic cutoff per group: cnt desc, token asc.

    Scale shape: each block emits one (group, token, cnt) PARTIAL per
    distinct pair present (np.unique over a dense group*vocab pair id —
    payload O(groups-in-block x vocab) max, independent of block rows),
    bucketed by hash(group) so EVERY partial of a group lands in one
    bucket — the in-bucket reduce can therefore apply the per-group
    top-k cap exactly, and only O(groups x k) rows leave the shuffle."""
    nb = n_buckets or util.scaled_buckets(ds)

    def reduce_bucket(g: pa.Table) -> pa.Table:
        groups, tok, cnt, starts = _group_runs(g, group_col, "token")
        run = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(tok)]))
        # group asc, cnt desc, token asc: each run keeps its index range,
        # so a pair's rank inside its group is its offset from the start
        order = np.lexsort((tok, -cnt, run))
        keep = order[np.arange(len(order)) - starts[run] < k]
        return pa.table(
            {
                group_col: pa.array(groups[run[keep]], pa.string()),
                "token": pa.array(tok[keep]),
                "cnt": pa.array(cnt[keep]),
            }
        )

    parts = ds.map_batches(
        lambda t: _grouped_token_count_partials(t, group_col, tokens_col, vocab_size, nb),
        batch_format="pyarrow",
    )
    return util.bucketed(parts, "_b", reduce_bucket)


# ---------------------------------------------------------------------------
# token-bigram LM: corpus-trained bigram table + per-doc familiarity score
# ---------------------------------------------------------------------------

LAST_BIGRAM_DRIVER_ROWS = 0  # peak driver-held LM rows (tests bound it)


def _doc_bigrams(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, np.ndarray, int]:
    """Vectorized within-doc bigram keys over a list<int> column.

    -> (doc_index int64 per bigram, key int64 = a * 2^32 + b in doc order,
    n_docs). Pairs never cross a document boundary: the last flat index of
    every doc is masked out of the pair-start positions."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    import pyarrow.compute as pc

    lens = (
        pc.fill_null(pc.list_value_length(col), 0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(flat)
    ndocs = len(lens)
    if n < 2:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), ndocs
    keys = (flat[:-1] << np.int64(32)) | flat[1:]
    offsets = np.zeros(ndocs + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    ends = offsets[1:] - 1  # last flat index of each doc
    ends = ends[(ends >= 0) & (ends < n - 1)]
    mask = np.ones(n - 1, dtype=bool)
    mask[ends] = False
    d_idx = np.repeat(
        np.arange(ndocs, dtype=np.int64), np.maximum(lens - 1, 0)
    )
    return d_idx, keys[mask], ndocs


def bigram_topk(
    ds: rd.Dataset,
    tokens_col: str = "tokens",
    k: int = 10_000,
    n_buckets: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Corpus-trained bigram LM table -> (sorted bigram keys int64,
    counts int64), keeping the globally top-`k` most frequent within-doc
    token bigrams (count desc, key asc — deterministic, SQL-replicable).

    Scale shape (the `global_word_df` discipline): per-block (key, cnt)
    partials from one np.unique — payload O(distinct bigrams per block) —
    shuffle ONCE through a corpus-scaled bucket groupby keyed on
    splitmix64(key) (bigram keys are structured ints, not hashes, so they
    pre-mix before the modulus), each bucket sums its keys' exact global
    counts and caps to `k` (a global top-k bigram beats < k bigrams in
    its own bucket, so the per-bucket cap is exact); the driver merges
    O(buckets x k)-bounded capped rows, never raw partials.

    Cost bound (stated, not hidden): the shuffle moves one row per
    (block, distinct-bigram-in-block) pair. Zipfian text collapses this
    hard (the frequent bigrams repeat in every block); an adversarially
    diverse corpus (near-unique bigrams) degrades toward one row per
    bigram OCCURRENCE — a corpus-sized all-to-all, which is also the
    information-theoretic floor for EXACT global top-k on such data.
    Driver state stays O(buckets x k) regardless."""
    global LAST_BIGRAM_DRIVER_ROWS
    nb = n_buckets or util.scaled_buckets(ds)
    hs, cs = [], []
    for b in _bigram_buckets(ds, tokens_col, k, nb).iter_batches(
        batch_format="numpy"
    ):
        if "key" not in b:  # empty groupby partitions emit 0-col blocks
            continue
        hs.append(np.asarray(b["key"], dtype=np.int64))
        cs.append(np.asarray(b["cnt"], dtype=np.int64))
    if not hs:
        LAST_BIGRAM_DRIVER_ROWS = 0
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    allk, allc = np.concatenate(hs), np.concatenate(cs)
    LAST_BIGRAM_DRIVER_ROWS = len(allk)
    if len(allk) > k:
        order = np.lexsort((allk, -allc))[:k]
        keep = np.sort(order)
        allk, allc = allk[keep], allc[keep]
    order = np.argsort(allk)  # buckets are key-disjoint: no re-merge
    return allk[order], allc[order]


def _bigram_buckets(ds: rd.Dataset, tokens_col: str, k: int, nb: int) -> rd.Dataset:
    """The bucketed half of bigram_topk: (key, cnt) rows, each bucket's
    keys with their exact global counts, capped to its top `k`."""
    empty = pa.table(
        {"key": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
    )

    def partials(t: pa.Table) -> pa.Table:
        _, keys, _ = _doc_bigrams(t.column(tokens_col))
        if len(keys) == 0:
            return empty.append_column("_b", pa.array([], pa.int32()))
        u, c = np.unique(keys, return_counts=True)
        bucket = (
            detmix.splitmix64(u.astype(np.uint64)) % np.uint64(nb)
        ).astype(np.int32)
        return pa.table(
            {
                "key": pa.array(u),
                "cnt": pa.array(c.astype(np.int64)),
                "_b": pa.array(bucket),
            }
        )

    def in_bucket(g: pa.Table) -> pa.Table:
        h = g.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
        c = g.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
        u, inv = np.unique(h, return_inverse=True)
        cnt = np.zeros(len(u), np.int64)
        np.add.at(cnt, inv, c)  # exact int64 (float bincount weights lose bits past 2^53)
        if len(u) > k:
            order = np.lexsort((u, -cnt))[:k]  # cnt desc, key asc
            keep = np.sort(order)
            u, cnt = u[keep], cnt[keep]
        return pa.table({"key": pa.array(u), "cnt": pa.array(cnt)})

    parts = ds.map_batches(partials, batch_format="pyarrow")
    return util.bucketed(parts, "_b", in_bucket)


class _BigramLmProbe:
    """Actor-pool stage: the bigram LM table is fetched ONCE per actor in
    __init__ (ray.put broadcast), per-batch vectorized searchsorted."""

    def __init__(self, lm_ref, tokens_col: str):
        import ray

        self.keys, self.cnts = (
            ray.get(lm_ref) if isinstance(lm_ref, ray.ObjectRef) else lm_ref
        )
        self.tokens_col = tokens_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = util.strip_schema_metadata(batch)
        d_idx, keys, ndocs = _doc_bigrams(batch.column(self.tokens_col))
        n_bigrams = np.bincount(d_idx, minlength=ndocs).astype(np.int64)
        n_hit = np.zeros(ndocs, np.int64)
        hit_sum = np.zeros(ndocs, np.int64)
        if len(keys) and len(self.keys):
            idx = np.searchsorted(self.keys, keys).clip(max=len(self.keys) - 1)
            hit = self.keys[idx] == keys
            n_hit = np.bincount(d_idx, weights=hit, minlength=ndocs).astype(np.int64)
            hit_sum = np.bincount(
                d_idx, weights=np.where(hit, self.cnts[idx], 0), minlength=ndocs
            ).astype(np.int64)
        return (
            batch.append_column("n_bigrams", pa.array(n_bigrams))
            .append_column("n_hit", pa.array(n_hit))
            .append_column("hit_sum", pa.array(hit_sum))
        )


def bigram_lm_score(
    ds: rd.Dataset,
    lm_table: tuple[np.ndarray, np.ndarray],
    *,
    tokens_col: str = "tokens",
    concurrency: int | tuple[int, int] = (1, 8),
) -> rd.Dataset:
    """Annotate each doc with `n_bigrams`, `n_hit` (bigrams present in the
    LM table) and `hit_sum` (sum of the table counts over its bigrams) —
    the token-level CCNet-style familiarity signal: high hit_sum/n_bigrams
    = common constructions, low = rare or shuffled junk. Integer outputs
    only, so the DuckDB oracle hash-matches exactly. Broadcast + one
    streaming probe pass, no shuffle."""
    import ray

    keys, cnts = lm_table
    ref = ray.put(
        (np.asarray(keys, dtype=np.int64), np.asarray(cnts, dtype=np.int64))
    )
    return ds.map_batches(
        _BigramLmProbe,
        fn_constructor_kwargs={"lm_ref": ref, "tokens_col": tokens_col},
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def pmi_topk(
    ds: rd.Dataset,
    *,
    tokens_col: str = "tokens",
    k_table: int = 10_000,
    top: int = 50,
    vocab_size: int = 50_257,
) -> pa.Table:
    """Collocation extraction: the `top` most frequent within-doc token
    bigrams annotated with pointwise mutual information ->
    (tok_a, tok_b, cnt, pmi_bits). PMI = log2(p(ab) / (p(a) p(b))) over
    p(ab) = c_ab / T_bigrams and p(x) = c_x / T_tokens — high-PMI pairs
    are multiword constructions, low-PMI frequent pairs are boilerplate
    glue. The classic collocation measure (Church & Hanks 1990) on the
    engine's existing exact folds.

    Scale shape: the capped bigram table (bounded bucket shuffle), the
    exact O(vocab) unigram histogram, and two scalar totals — the PMI
    itself is a per-row pure double expression over exact integers,
    evaluated in one association order on both engines (%.9g-stable by
    construction: no sums of floats anywhere)."""
    keys, cnts = bigram_topk(ds, tokens_col, k=k_table)
    hist = value_histogram(ds, tokens_col, vocab_size, flatten=True).to_pandas()
    uni = np.zeros(vocab_size, np.int64)
    if len(hist):
        uni[hist["value"].to_numpy(np.int64)] = hist["cnt"].to_numpy(np.int64)
    t_uni = int(uni.sum())

    def bi_partial(t: pa.Table) -> pa.Table:
        col = t.column(tokens_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lens = (
            pc.fill_null(pc.list_value_length(col), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        return pa.table(
            {"tb": pa.array([int(np.maximum(lens - 1, 0).sum())], pa.int64())}
        )

    t_bi = int(
        ds.map_batches(bi_partial, batch_format="pyarrow").sum("tb") or 0
    )
    empty = pa.table(
        {
            "tok_a": pa.array([], pa.int64()),
            "tok_b": pa.array([], pa.int64()),
            "cnt": pa.array([], pa.int64()),
            "pmi_bits": pa.array([], pa.float64()),
        }
    )
    if len(keys) == 0 or t_bi == 0 or t_uni == 0:
        return empty
    take = min(int(top), len(keys))
    # bigram_topk returns keys SORTED ascending for the probe path; the
    # top-`top` cut is (cnt desc, key asc) — re-derive it here
    order = np.lexsort((keys, -cnts))[:take]
    ks, cs = keys[order], cnts[order]
    a = (ks >> np.int64(32)).astype(np.int64)
    b = (ks & np.int64(0xFFFFFFFF)).astype(np.int64)
    ca = uni[a].astype(np.float64)
    cb = uni[b].astype(np.float64)
    # one fixed association order — mirrored token-for-token in SQL
    pmi = np.log2(
        (cs.astype(np.float64) * float(t_uni) * float(t_uni))
        / (float(t_bi) * ca * cb)
    )
    out = pa.table(
        {
            "tok_a": pa.array(a),
            "tok_b": pa.array(b),
            "cnt": pa.array(cs.astype(np.int64)),
            "pmi_bits": pa.array(pmi, pa.float64()),
        }
    )
    return out


def pmi_oracle_sql(
    corpus: str,
    *,
    tokens_col: str = "tokens",
    k_table: int = 10_000,
    top: int = 50,
) -> str:
    """DuckDB twin of pmi_topk: the shared capped-bigram CTE, unigram
    counts, the same totals, the same double expression."""
    return f"""WITH bg AS (
  SELECT unnest(list_transform(
    generate_series(1, len({tokens_col}) - 1),
    i -> {tokens_col}[i]::BIGINT * 4294967296 + {tokens_col}[i+1]::BIGINT
  )) AS key
  FROM {corpus}
),
lm AS (
  SELECT key, count(*)::BIGINT AS cnt FROM bg GROUP BY key
  ORDER BY cnt DESC, key ASC LIMIT {int(k_table)}
),
topk AS (SELECT key, cnt FROM lm ORDER BY cnt DESC, key ASC LIMIT {int(top)}),
uni AS (
  SELECT t, count(*)::BIGINT AS cu
  FROM (SELECT unnest({tokens_col}) AS t FROM {corpus}) GROUP BY t
),
tot AS (
  SELECT (SELECT sum(cu) FROM uni)::BIGINT AS t_uni,
         (SELECT sum(greatest(len({tokens_col}) - 1, 0)) FROM {corpus})::BIGINT AS t_bi
)
SELECT (key // 4294967296)::BIGINT AS tok_a,
       (key % 4294967296)::BIGINT AS tok_b,
       cnt,
       log2((cnt::DOUBLE * t_uni * t_uni) / (t_bi::DOUBLE * ua.cu * ub.cu))
         AS pmi_bits
FROM topk CROSS JOIN tot
JOIN uni ua ON ua.t = key // 4294967296
JOIN uni ub ON ub.t = key % 4294967296"""


class _BigramPerplexityProbe:
    """Actor-pool stage: LM table + unigram histogram fetched once per
    actor; per-batch vectorized searchsorted + gather + bincount."""

    def __init__(self, lm_ref, uni_ref, vocab_size: int, tokens_col: str):
        import ray

        self.keys, self.cnts = (
            ray.get(lm_ref) if isinstance(lm_ref, ray.ObjectRef) else lm_ref
        )
        self.uni = ray.get(uni_ref) if isinstance(uni_ref, ray.ObjectRef) else uni_ref
        self.vocab = int(vocab_size)
        self.tokens_col = tokens_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = util.strip_schema_metadata(batch)
        d_idx, keys, ndocs = _doc_bigrams(batch.column(self.tokens_col))
        n_bigrams = np.bincount(d_idx, minlength=ndocs).astype(np.int64)
        h = np.zeros(ndocs, np.float64)
        if len(keys):
            cnt = np.zeros(len(keys), np.int64)
            if len(self.keys):
                idx = np.searchsorted(self.keys, keys).clip(max=len(self.keys) - 1)
                hit = self.keys[idx] == keys
                cnt = np.where(hit, self.cnts[idx], 0)
            a = keys >> np.int64(32)  # key = a * 2^32 + b, tokens < 2^32
            cu = self.uni[a]
            logp = np.log2((cnt + 1).astype(np.float64) / (cu + self.vocab))
            s = np.bincount(d_idx, weights=logp, minlength=ndocs)
            ne = n_bigrams > 0
            h[ne] = -s[ne] / n_bigrams[ne]
        return (
            batch.append_column("n_bigrams", pa.array(n_bigrams))
            .append_column("h_bits", pa.array(h, pa.float64()))
        )


def bigram_perplexity(
    ds: rd.Dataset,
    lm_table: tuple[np.ndarray, np.ndarray],
    *,
    tokens_col: str = "tokens",
    vocab_size: int = 50_257,
    concurrency: int | tuple[int, int] = (1, 8),
) -> rd.Dataset:
    """Per-doc cross-entropy (bits/bigram) under an add-one-smoothed
    bigram LM — the CCNet/Gopher perplexity-filter signal, fully
    deterministic because the model is finite and integer:

        p(w | v) = (c_lm(v, w) + 1) / (c_uni(v) + vocab_size)

    where c_lm comes from the CAPPED `bigram_topk` table (0 when the
    bigram fell below the cap — the capped-table semantics make the 100-TB
    model a bounded broadcast instead of a corpus-sized join) and c_uni is
    the EXACT unigram histogram (one O(vocab) value_histogram pass,
    ray.put once). Perplexity = 2^h_bits; docs with < 2 tokens report 0.
    DuckDB twin at the driver's %.9g float tolerance (the entropy
    precedent)."""
    import ray

    keys, cnts = lm_table
    lm_ref = ray.put(
        (np.asarray(keys, dtype=np.int64), np.asarray(cnts, dtype=np.int64))
    )
    hist = value_histogram(ds, tokens_col, vocab_size, flatten=True).to_pandas()
    uni = np.zeros(vocab_size, np.float64)
    if len(hist):
        uni[hist["value"].to_numpy(np.int64)] = hist["cnt"].to_numpy(np.float64)
    uni_ref = ray.put(uni)
    return ds.map_batches(
        _BigramPerplexityProbe,
        fn_constructor_kwargs={
            "lm_ref": lm_ref,
            "uni_ref": uni_ref,
            "vocab_size": vocab_size,
            "tokens_col": tokens_col,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def grouped_corr(
    ds: rd.Dataset,
    group_col: str,
    x_col: str,
    y_col: str,
    *,
    x_scale: int = 1000,
    y_scale: int = 1,
) -> rd.Dataset:
    """Per-group Pearson correlation of two numeric columns — the
    drift/diagnostic stat next to the Welford family (does doc length
    still track token count per source? does value drift with time per
    event type?).

    INTEGER-EXACT by spec (the cumulative_window fixed-point rationale —
    a near-zero correlation is a catastrophic cancellation, so a float
    power-sum pipeline is not order-hash-stable at ANY tolerance):
    inputs quantize to integer units (x * x_scale, y * y_scale,
    round-half-away like SQL round()), the six power sums (n, sx, sy,
    sxx, syy, sxy) accumulate as EXACT int64, and the final
        r = D(n*sxy - sx*sy) / sqrt(D(n*sxx - sx^2) * D(n*syy - sy^2))
    evaluates each D() cast on an exact integer — one double expression
    in a fixed association order, bit-identical across engines (the
    BM25-rational-idf precedent). Correlation is computed on the
    QUANTIZED values; pick scales so the quantization step is far below
    each column's spread.

    Overflow bound (loud, not silent): per-group sums must satisfy
    n * max(|x|*x_scale)^2 < 2^62. Enforced twice — per block at the
    partial stage AND per GROUP at finalize (per-group max magnitudes
    ride the fold as Max aggregates, since a group spread across many
    blocks can wrap the folded int64 sums without any single block
    tripping the block check). NULL pairs are excluded (SQL corr
    semantics); groups with < 2 rows or zero variance emit NULL."""

    def partials(t: pa.Table) -> pa.Table:
        codes, uniq = _group_codes(t.column(group_col), group_col)
        x = pc.cast(t.column(x_col), pa.float64()).to_numpy(zero_copy_only=False)
        y = pc.cast(t.column(y_col), pa.float64()).to_numpy(zero_copy_only=False)
        ok = ~(np.isnan(x) | np.isnan(y))
        k = len(uniq)
        empty = pa.table(
            {
                group_col: pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "sx": pa.array([], pa.int64()),
                "sy": pa.array([], pa.int64()),
                "sxx": pa.array([], pa.int64()),
                "syy": pa.array([], pa.int64()),
                "sxy": pa.array([], pa.int64()),
                "mx": pa.array([], pa.int64()),
                "my": pa.array([], pa.int64()),
            }
        )
        if k == 0:
            return empty
        c = codes[ok]
        xi = _round_half_away(x[ok] * x_scale)
        yi = _round_half_away(y[ok] * y_scale)
        # Python ints: np.int64 products would overflow silently here
        mx = int(np.abs(xi).max()) if len(xi) else 0
        my = int(np.abs(yi).max()) if len(yi) else 0
        if len(xi) and max(mx * mx, my * my, mx * my) * len(xi) >= 1 << 62:
            raise OverflowError(
                "grouped_corr: quantized power sums would exceed int64 — "
                "lower x_scale/y_scale or pre-shift the columns"
            )
        out = {group_col: pa.array(uniq, pa.string())}
        out["n"] = pa.array(np.bincount(c, minlength=k).astype(np.int64))
        for name, w in (
            ("sx", xi), ("sy", yi), ("sxx", xi * xi), ("syy", yi * yi),
            ("sxy", xi * yi),
        ):
            acc = np.zeros(k, np.int64)
            np.add.at(acc, c, w)
            out[name] = pa.array(acc)
        # per-group max magnitudes ride the fold (Max) so finalize can
        # assert the PER-GROUP bound — the per-block check alone cannot
        # see a group spread across many blocks whose folded sums wrap
        for name, w in (("mx", np.abs(xi)), ("my", np.abs(yi))):
            acc = np.zeros(k, np.int64)
            np.maximum.at(acc, c, w)
            out[name] = pa.array(acc)
        return pa.table(out)

    from ray.data.aggregate import Max, Sum

    folded = (
        ds.select_columns([group_col, x_col, y_col])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(
            Sum("n"), Sum("sx"), Sum("sy"), Sum("sxx"), Sum("syy"), Sum("sxy"),
            Max("mx"), Max("my"),
        )
    )

    def finalize(t: pa.Table) -> pa.Table:
        rows = []
        for i in range(t.num_rows):
            # Python ints: the num/var products overflow int64 but stay
            # EXACT here; each D() cast below rounds an exact integer
            n = int(t.column("sum(n)")[i].as_py())
            sx = int(t.column("sum(sx)")[i].as_py())
            sy = int(t.column("sum(sy)")[i].as_py())
            sxx = int(t.column("sum(sxx)")[i].as_py())
            syy = int(t.column("sum(syy)")[i].as_py())
            sxy = int(t.column("sum(sxy)")[i].as_py())
            mx = int(t.column("max(mx)")[i].as_py() or 0)
            my = int(t.column("max(my)")[i].as_py() or 0)
            if max(mx * mx, my * my, mx * my) * n >= 1 << 62:
                raise OverflowError(
                    "grouped_corr: a group's folded power sums exceeded the "
                    "int64 bound (per-block checks cannot see cross-block "
                    "growth) — lower x_scale/y_scale or pre-shift the columns"
                )
            va, vb = n * sxx - sx * sx, n * syy - sy * sy
            if n < 2 or va <= 0 or vb <= 0:
                rows.append(None)
            else:
                rows.append(
                    np.float64(n * sxy - sx * sy)
                    / np.sqrt(np.float64(va) * np.float64(vb))
                )
        return pa.table(
            {
                group_col: t.column(group_col),
                "n": t.column("sum(n)"),
                "corr_xy": pa.array(rows, pa.float64()),
            }
        )

    return folded.map_batches(finalize, batch_format="pyarrow")


def grouped_corr_oracle_sql(
    table: str,
    group_col: str,
    x_col: str,
    y_col: str,
    *,
    x_scale: int = 1000,
    y_scale: int = 1,
) -> str:
    """DuckDB twin of grouped_corr: the SAME integer quantization (SQL
    round() = round-half-away), EXACT HUGEINT power sums, and the
    identical double expression in the same association order — the
    quotient is bit-identical, not merely tolerant. Approximate
    agreement with the builtin corr() is cross-validated in pytest."""
    qx = f"round({x_col}::DOUBLE * {x_scale})::HUGEINT"
    qy = f"round({y_col}::DOUBLE * {y_scale})::HUGEINT"
    nn = f"count(*) FILTER ({x_col} IS NOT NULL AND {y_col} IS NOT NULL)"
    return f"""WITH s AS (
  SELECT coalesce({group_col}, '') AS g,
    {nn}::HUGEINT AS n,
    coalesce(sum({qx}) FILTER ({y_col} IS NOT NULL), 0) AS sx,
    coalesce(sum({qy}) FILTER ({x_col} IS NOT NULL), 0) AS sy,
    coalesce(sum({qx} * {qx}) FILTER ({y_col} IS NOT NULL), 0) AS sxx,
    coalesce(sum({qy} * {qy}) FILTER ({x_col} IS NOT NULL), 0) AS syy,
    coalesce(sum({qx} * {qy}), 0) AS sxy
  FROM {table} GROUP BY coalesce({group_col}, '')
)
SELECT g AS {group_col}, n::BIGINT AS n,
  CASE WHEN n >= 2
        AND n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
       THEN (n * sxy - sx * sy)::DOUBLE
            / sqrt((n * sxx - sx * sx)::DOUBLE * (n * syy - sy * sy)::DOUBLE)
  END AS corr_xy
FROM s"""


def numeric_profile(
    ds: rd.Dataset, columns: list[str]
) -> rd.Dataset:
    """Per-column data profile over numeric/timestamp columns: one row per
    column with (cnt = total rows, n_null, min_v, max_v, sum_v as
    float64). The schema-health check a landing pipeline runs before
    committing a snapshot.

    Scale shape: per-block partials (one row per column per block —
    pyarrow min_max/sum kernels, no Python over values) combine through
    one tiny groupby; nothing row-sized leaves the workers."""
    import pyarrow.compute as pc

    def partials(t: pa.Table) -> pa.Table:
        names, cnts, nulls, mins, maxs, sums = [], [], [], [], [], []
        for c in columns:
            col = t.column(c)
            if pa.types.is_timestamp(col.type):
                # epoch µs (timestamp -> int64 -> float64; no direct cast)
                col = pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())
            arr = pc.cast(col, pa.float64())
            mm = pc.min_max(arr)
            names.append(c)
            cnts.append(t.num_rows)
            nulls.append(col.null_count)
            mins.append(mm["min"].as_py())
            maxs.append(mm["max"].as_py())
            sums.append(pc.sum(arr).as_py())
        return pa.table(
            {
                "col": pa.array(names, pa.string()),
                "cnt": pa.array(cnts, pa.int64()),
                "n_null": pa.array(nulls, pa.int64()),
                "min_v": pa.array(mins, pa.float64()),
                "max_v": pa.array(maxs, pa.float64()),
                "sum_v": pa.array(sums, pa.float64()),
            }
        )

    from ray.data.aggregate import Max, Min, Sum

    agg = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("col")
        .aggregate(Sum("cnt"), Sum("n_null"), Min("min_v"), Max("max_v"), Sum("sum_v"))
    )

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            ["col", "cnt", "n_null", "min_v", "max_v", "sum_v"]
        )

    return agg.map_batches(rename, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# HyperLogLog distinct-count sketch
# ---------------------------------------------------------------------------


def _bit_length_u64(v: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length of a uint64 array (0 -> 0). Integer
    binary search over the bit positions — no float log2, whose rounding
    near powers of two would corrupt ranks (and the oracle hash)."""
    v = v.copy()
    out = np.zeros(v.shape, np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = v >= np.uint64(1 << s)
        out[big] += s
        v[big] >>= np.uint64(s)
    out[v > 0] += 1
    return out


def _hll_partials(t: pa.Table, column: str, p: int, flatten: bool) -> pa.Table:
    """Per-block register partials: (register, rank) rows for the
    registers this block touches — at most 2^p rows per block regardless
    of row count, so the shuffle payload is sketch-sized, not data-sized."""
    t = util.strip_schema_metadata(t)
    col = t.column(column)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if flatten:
        col = col.flatten()
    vals = col.to_numpy(zero_copy_only=False)
    m = 1 << p
    q = 64 - p
    if len(vals) == 0:
        return pa.table(
            {"register": pa.array([], pa.int64()), "rank": pa.array([], pa.int64())}
        )
    h = detmix.splitmix64(np.asarray(vals).astype(np.uint64))
    idx = (h >> np.uint64(q)).astype(np.int64)
    rem = h & np.uint64((1 << q) - 1)
    rank = np.where(rem == 0, q + 1, q - _bit_length_u64(rem) + 1).astype(np.int64)
    regs = np.zeros(m, np.int64)
    np.maximum.at(regs, idx, rank)
    nz = np.nonzero(regs)[0]
    return pa.table(
        {"register": pa.array(nz, pa.int64()), "rank": pa.array(regs[nz], pa.int64())}
    )


def hll_registers(
    ds: rd.Dataset, column: str = "tokens", p: int = 10, flatten: bool = True
) -> rd.Dataset:
    """HyperLogLog register table (Flajolet et al. 2007) for the distinct
    count of `column` (list elements with ``flatten=True``): register =
    top `p` hash bits, rank = 1 + leading zeros of the remaining 64-p.
    The hash is splitmix64 — plain modular integer math — precisely so a
    DuckDB oracle (`hll_oracle_sql`) reproduces every register exactly;
    only registers with rank > 0 appear (rows = min(2^p, observed)).

    Scale shape: one sketch-sized partial per block (<= 2^p rows), one
    tiny groupby-max — mergeability is the point of the sketch, and the
    merge is the shuffle. Estimate via `hll_estimate` on the result."""
    parts = ds.map_batches(
        lambda t: _hll_partials(t, column, p, flatten), batch_format="pyarrow"
    )
    agg = parts.groupby("register").max("rank")

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["register", "rank"])

    return agg.map_batches(rename, batch_format="pyarrow").sort("register")


def hll_estimate(registers: np.ndarray, ranks: np.ndarray, p: int = 10) -> float:
    """Bias-corrected HLL cardinality estimate from a (register, rank)
    table (absent registers are rank 0). Standard error ~= 1.04/sqrt(2^p).
    Small-range correction: linear counting when E <= 2.5m and any
    register is empty (Flajolet et al. 2007 fig. 3)."""
    m = 1 << p
    full = np.zeros(m, np.float64)
    full[np.asarray(registers, np.int64)] = np.asarray(ranks, np.float64)
    alpha = {4: 0.673, 5: 0.697, 6: 0.709}.get(p, 0.7213 / (1 + 1.079 / m))
    e = alpha * m * m / np.sum(np.exp2(-full))
    zeros = int(np.sum(full == 0))
    if e <= 2.5 * m and zeros:
        return float(m * np.log(m / zeros))
    return float(e)


def hll_oracle_sql(corpus: str, column: str = "tokens", p: int = 10) -> str:
    """DuckDB twin of `hll_registers` over a list<int> column: identical
    splitmix64 hash, register split and rank rule (bin() string length =
    exact integer bit_length — no float log2 on either side)."""
    q = 64 - p
    h_expr = detmix.sql_splitmix64("t")
    return (
        "WITH v AS ("
        f"  SELECT DISTINCT unnest({column})::UBIGINT AS t FROM {corpus}"
        "), r AS ("
        f"  SELECT ({h_expr} >> {q})::BIGINT AS register,"
        f"         ({h_expr} % {1 << q}::UBIGINT) AS rem"
        "  FROM v"
        ") "
        "SELECT register, "
        f"  max(CASE WHEN rem = 0 THEN {q + 1} "
        f"      ELSE {q} - length(bin(rem)) + 1 END)::BIGINT AS rank "
        "FROM r GROUP BY register ORDER BY register"
    )


def _grouped_hll_partials(
    t: pa.Table, group_col: str, column: str, p: int, flatten: bool
) -> pa.Table:
    """Per-block (group, register, rank) partials: <= groups-in-block x
    2^p rows regardless of row count. One hash pass over the flat values;
    the per-(group, register) max folds through one maximum.at on the
    combined key — no Python loop over groups."""
    t = util.strip_schema_metadata(t)
    g = t.column(group_col)
    if isinstance(g, pa.ChunkedArray):
        g = g.combine_chunks()
    if g.null_count:
        # a null group's dictionary index is masked — it would corrupt the
        # combined key below; the loud-null-guard convention (joins.merge)
        raise ValueError(
            f"null {group_col!r} keys: fill_null before grouped sketching"
        )
    col = t.column(column)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    empty = pa.table(
        {
            group_col: pa.array([], g.type),
            "register": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
        }
    )
    if t.num_rows == 0:
        return empty
    if flatten:
        lens = pc.list_value_length(col)
        lens = pc.fill_null(lens, 0).to_numpy(zero_copy_only=False).astype(np.int64)
        vals = col.flatten().to_numpy(zero_copy_only=False)
        row_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
    else:
        vals = col.to_numpy(zero_copy_only=False)
        row_of = np.arange(t.num_rows, dtype=np.int64)
    if len(vals) == 0:
        return empty
    # local group factorization: distinct group values of THIS block
    gd = pc.dictionary_encode(g)
    codes = (
        gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        if hasattr(gd, "indices")
        else gd.combine_chunks().indices.to_numpy(zero_copy_only=False).astype(np.int64)
    )
    uniq = gd.dictionary if hasattr(gd, "dictionary") else gd.combine_chunks().dictionary
    m = 1 << p
    q = 64 - p
    h = detmix.splitmix64(np.asarray(vals).astype(np.uint64))
    idx = (h >> np.uint64(q)).astype(np.int64)
    rem = h & np.uint64((1 << q) - 1)
    rank = np.where(rem == 0, q + 1, q - _bit_length_u64(rem) + 1).astype(np.int64)
    key = codes[row_of] * m + idx
    regs = np.zeros(len(uniq) * m, np.int64)
    np.maximum.at(regs, key, rank)
    nz = np.nonzero(regs)[0]
    return pa.table(
        {
            group_col: uniq.take(pa.array(nz // m)),
            "register": pa.array(nz % m, pa.int64()),
            "rank": pa.array(regs[nz], pa.int64()),
        }
    )


def grouped_hll_registers(
    ds: rd.Dataset,
    group_col: str = "source",
    column: str = "tokens",
    p: int = 10,
    flatten: bool = True,
) -> rd.Dataset:
    """Per-group HLL register table -> (group, register, rank) — the
    domain-drift check (distinct vocabulary per source) at sketch cost.
    Same hash / register / rank rule as `hll_registers`, so the grouped
    oracle (`grouped_hll_oracle_sql`) pins every register per group.

    Scale shape: block partials are sketch-sized PER GROUP PRESENT in the
    block (<= groups x 2^p rows), one groupby-max merges — the shuffle
    payload scales with group-count x sketch size, never with rows."""
    parts = ds.map_batches(
        lambda t: _grouped_hll_partials(t, group_col, column, p, flatten),
        batch_format="pyarrow",
    )
    agg = parts.groupby([group_col, "register"]).max("rank")

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns([group_col, "register", "rank"])

    return agg.map_batches(rename, batch_format="pyarrow").sort(
        [group_col, "register"]
    )


def grouped_hll_oracle_sql(
    corpus: str, group_col: str = "source", column: str = "tokens", p: int = 10
) -> str:
    """DuckDB twin of `grouped_hll_registers`: hll_oracle_sql per group."""
    q = 64 - p
    h_expr = detmix.sql_splitmix64("t")
    return (
        "WITH v AS ("
        f"  SELECT DISTINCT {group_col} AS g, unnest({column})::UBIGINT AS t"
        f"  FROM {corpus}"
        "), r AS ("
        f"  SELECT g, ({h_expr} >> {q})::BIGINT AS register,"
        f"         ({h_expr} % {1 << q}::UBIGINT) AS rem"
        "  FROM v"
        ") "
        f"SELECT g AS {group_col}, register, "
        f"  max(CASE WHEN rem = 0 THEN {q + 1} "
        f"      ELSE {q} - length(bin(rem)) + 1 END)::BIGINT AS rank "
        "FROM r GROUP BY g, register ORDER BY g, register"
    )


# ---------------------------------------------------------------------------
# Exact quantiles over arbitrary float columns (iterative range refinement)
# ---------------------------------------------------------------------------


def _range_hist_fold(
    ds: rd.Dataset, column: str, lo: float, hi: float, hi_incl: bool, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """One streaming pass: per-block bincount of `column` values inside
    [lo, hi) (or [lo, hi]) against linspace edges, folded incrementally on
    the driver — peak driver state is O(n_bins), never O(blocks x bins).
    Returns (edges, counts)."""
    edges = np.unique(np.linspace(lo, hi, n_bins + 1))
    nb = len(edges) - 1

    def partials(t: pa.Table) -> pa.Table:
        v = t.column(column).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        m = (v >= lo) & ((v <= hi) if hi_incl else (v < hi))
        v = v[m]
        b = np.clip(np.searchsorted(edges, v, side="right") - 1, 0, nb - 1)
        c = np.bincount(b, minlength=nb)
        nz = np.flatnonzero(c)
        return pa.table(
            {"b": pa.array(nz.astype(np.int64)), "c": pa.array(c[nz].astype(np.int64))}
        )

    counts = np.zeros(nb, np.int64)
    for blk in ds.map_batches(partials, batch_format="pyarrow").iter_batches(
        batch_format="numpy"
    ):
        if "b" in blk and len(blk["b"]):
            np.add.at(counts, np.asarray(blk["b"]), np.asarray(blk["c"]))
    return edges, counts


def _collect_ranges(
    ds: rd.Dataset, column: str, jobs: list[tuple[float, float, bool]]
) -> list[np.ndarray]:
    """One streaming pass collecting the (histogram-bounded, small) value
    sets of SEVERAL ranges at once — all quantiles resolving at the same
    refinement level share a single scan."""

    def sel(t: pa.Table) -> pa.Table:
        v = t.column(column).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        js, vs = [], []
        for j, (lo, hi, hi_incl) in enumerate(jobs):
            m = (v >= lo) & ((v <= hi) if hi_incl else (v < hi))
            picked = v[m]
            js.append(np.full(len(picked), j, np.int32))
            vs.append(picked)
        return pa.table(
            {
                "j": pa.array(np.concatenate(js), pa.int32()),
                "v": pa.array(np.concatenate(vs), pa.float64()),
            }
        )

    out: list[list[np.ndarray]] = [[] for _ in jobs]
    for blk in ds.map_batches(sel, batch_format="pyarrow").iter_batches(
        batch_format="numpy"
    ):
        if "v" not in blk or not len(blk["v"]):
            continue
        js, vs = np.asarray(blk["j"]), np.asarray(blk["v"], np.float64)
        for j in np.unique(js):
            out[j].append(vs[js == j])
    return [
        np.concatenate(parts) if parts else np.zeros(0, np.float64) for parts in out
    ]


def _pct_label(prefix: str, p: float) -> str:
    """Quantile column label: p50, p99.9 (percentile_disc), q50 (cont)."""
    return f"{prefix}{round(p * 100) if (p * 100) == int(p * 100) else p * 100:g}"


def float_quantiles(
    ds: rd.Dataset,
    column: str,
    ps: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.99),
    n_bins: int = 1 << 14,
    collect_budget: int = 200_000,
    max_levels: int = 8,
) -> pd.DataFrame:
    """EXACT quantiles of an arbitrary float64 column — percentile_disc
    semantics (the value whose 1-indexed rank is ceil(p * n), NULL/NaN
    excluded) — without a global sort: iterative histogram range
    refinement. Each level is one streaming pass that bincounts values
    inside the still-ambiguous range against n_bins linspace edges; a
    quantile resolves when its bucket's population fits `collect_budget`
    (then one filtered pass collects and exactly ranks it) or when its
    range degenerates to a single float. n_bins^levels shrinks any range
    to ulp width in <= 4 levels, so the whole thing is a handful of
    streaming passes independent of row count — the sort-free scale path
    a 100-TB ORDER BY percentile cannot take.

    seqlen_quantiles stays the one-pass special case for dense
    non-negative int domains; this is the general-column path."""
    parts = ds.map_batches(
        lambda t: _minmax_partial(t, column), batch_format="pyarrow"
    )
    n_tot, mn, mx = 0, np.inf, -np.inf
    for blk in parts.iter_batches(batch_format="numpy"):
        if "n" in blk and len(blk["n"]):
            n_tot += int(np.sum(blk["n"]))
            mn = min(mn, float(np.min(blk["mn"])))
            mx = max(mx, float(np.max(blk["mx"])))
    labels = [_pct_label("p", p) for p in ps]
    if n_tot == 0:
        return pd.DataFrame([{lab: float("nan") for lab in labels}])
    # state per quantile: (lo, hi, hi_incl, rank-within-range)
    state = {lab: (mn, mx, True, max(int(np.ceil(p * n_tot)), 1)) for lab, p in zip(labels, ps)}
    resolved: dict[str, float] = {}
    for _ in range(max_levels):
        pending = {k: v for k, v in state.items() if k not in resolved}
        if not pending:
            break
        # group quantiles sharing a range: one histogram pass per range
        by_range: dict[tuple, list[str]] = {}
        for k, v in pending.items():
            by_range.setdefault(v[:3], []).append(k)
        for (lo, hi, hi_incl), ks in by_range.items():
            if lo == hi:
                for k in ks:
                    resolved[k] = lo
                continue
            edges, counts = _range_hist_fold(ds, column, lo, hi, hi_incl, n_bins)
            if len(edges) <= 2:  # ulp-width range: can't split further
                # rank among {lo, hi}: values < hi are all == lo
                n_lo = int(counts[0]) if len(counts) else 0
                for k in ks:
                    rank = state[k][3]
                    resolved[k] = lo if rank <= n_lo else hi
                continue
            cum = np.cumsum(counts)
            collect: list[tuple[str, tuple[float, float, bool], int]] = []
            for k in ks:
                rank = state[k][3]
                b = int(np.searchsorted(cum, rank))
                prev = int(cum[b - 1]) if b else 0
                b_lo, b_hi = float(edges[b]), float(edges[b + 1])
                b_incl = hi_incl and b == len(counts) - 1
                n_in = int(counts[b])
                r_in = rank - prev
                if n_in <= collect_budget:
                    collect.append((k, (b_lo, b_hi, b_incl), r_in))
                else:
                    state[k] = (b_lo, b_hi, b_incl, r_in)
            if collect:  # all same-level resolutions share ONE scan
                vals = _collect_ranges(ds, column, [c[1] for c in collect])
                for (k, _, r_in), v in zip(collect, vals):
                    resolved[k] = float(np.sort(v)[r_in - 1])
    leftover = [k for k in state if k not in resolved]
    if leftover:  # max_levels exhausted: force the exact collect
        vals = _collect_ranges(ds, column, [state[k][:3] for k in leftover])
        for k, v in zip(leftover, vals):
            resolved[k] = float(np.sort(v)[state[k][3] - 1])
    return pd.DataFrame([{lab: resolved[lab] for lab in labels}])


def _minmax_partial(t: pa.Table, column: str) -> pa.Table:
    """Per-block (non-NaN count, min, max) partial for float_quantiles."""
    v = t.column(column).to_numpy(zero_copy_only=False).astype(np.float64)
    v = v[~np.isnan(v)]
    if len(v) == 0:
        return pa.table(
            {"n": pa.array([], pa.int64()), "mn": pa.array([], pa.float64()),
             "mx": pa.array([], pa.float64())}
        )
    return pa.table(
        {"n": pa.array([len(v)], pa.int64()),
         "mn": pa.array([float(v.min())], pa.float64()),
         "mx": pa.array([float(v.max())], pa.float64())}
    )


def float_quantiles_oracle_sql(
    table: str, column: str, ps: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.99)
) -> str:
    """DuckDB twin of `float_quantiles` (percentile_disc semantics)."""
    cols = ", ".join(
        f"percentile_disc({p}) WITHIN GROUP (ORDER BY {column})::DOUBLE AS "
        + _pct_label("p", p)
        for p in ps
    )
    return f"SELECT {cols} FROM {table} WHERE {column} IS NOT NULL"


# ---------------------------------------------------------------------------
# per-group exact quantiles (percentile_disc per group, shuffle-bounded)
# ---------------------------------------------------------------------------


def _grouped_value_hist_partials(
    t: pa.Table, group_col: str, value_col: str, nb: int,
    max_value: int | None = None,
) -> pa.Table:
    """Per-block (group, value, cnt, _b) histogram partials over a SCALAR
    integer column — the scalar twin of _grouped_token_count_partials,
    shared by grouped_quantiles, grouped_quantiles_cont and
    grouped_mad_outliers: one row per distinct (group, value) pair in the
    block (payload O(groups-in-block x distinct values), never O(rows)).
    NULL values are dropped (percentile / median semantics); NULL groups
    fold into ''. With `max_value`, values outside [0, max_value) raise
    loudly (grouped_mad_outliers' input contract)."""
    vals = t.column(value_col).to_numpy(zero_copy_only=False)
    ok = ~pd.isna(vals)
    v = vals[ok].astype(np.int64)
    codes, uniq = _group_codes(t.column(group_col).filter(pa.array(ok)), group_col)
    if len(v) and max_value is not None and (v.min() < 0 or v.max() >= max_value):
        raise ValueError(
            f"{value_col} outside [0, {max_value}): "
            f"range [{v.min()}, {v.max()}] — raise max_value"
        )
    order = np.lexsort((v, codes))
    cs, vs = codes[order], v[order]
    new = np.ones(len(vs), bool)
    np.logical_or(cs[1:] != cs[:-1], vs[1:] != vs[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    cnt = np.diff(np.r_[starts, len(vs)])
    return _pair_partial(group_col, "value", uniq, cs[starts], vs[starts], cnt, nb)


def _disc_at(values: np.ndarray, cum: np.ndarray, n: int, p: float) -> int:
    """percentile_disc: the value whose 1-indexed rank is ceil(p * n)."""
    return int(values[np.searchsorted(cum, max(int(np.ceil(p * n)), 1))])


def _cont_at(values: np.ndarray, cum: np.ndarray, n: int, p: float) -> float:
    """percentile_cont: h = p*(n-1), v[floor h] + frac(h) * (v[floor h + 1]
    - v[floor h]) over the 0-indexed order statistics."""
    h = p * (n - 1)
    lo_i = int(np.floor(h))
    hi_i = min(lo_i + 1, n - 1)
    v_lo = float(values[np.searchsorted(cum, lo_i + 1)])
    v_hi = float(values[np.searchsorted(cum, hi_i + 1)])
    return v_lo + (h - np.floor(h)) * (v_hi - v_lo)


def _grouped_hist_quantiles(
    ds: rd.Dataset, group_col: str, value_col: str, ps: tuple[float, ...],
    n_buckets: int | None, prefix: str, at, typ: pa.DataType,
) -> rd.Dataset:
    """grouped_quantiles / grouped_quantiles_cont: the scalar partials, one
    bucketed run merge, then `at(values, cum, n, p)` per group and p over
    the group's value-sorted histogram."""
    nb = n_buckets or util.scaled_buckets(ds)
    labels = [_pct_label(prefix, p) for p in ps]

    def reduce_bucket(g: pa.Table) -> pa.Table:
        groups, vals, cnt, starts = _group_runs(g, group_col, "value")
        cols: list[list] = [[] for _ in ps]
        for a, b in zip(starts, np.r_[starts[1:], len(vals)]):
            cum = np.cumsum(cnt[a:b])
            for col, p in zip(cols, ps):
                col.append(at(vals[a:b], cum, int(cum[-1]), p))
        return pa.table(
            {
                group_col: pa.array(groups, pa.string()),
                **{lab: pa.array(col, typ) for lab, col in zip(labels, cols)},
            }
        )

    parts = ds.map_batches(
        lambda t: _grouped_value_hist_partials(t, group_col, value_col, nb),
        batch_format="pyarrow",
    )
    return util.bucketed(parts, "_b", reduce_bucket)


def grouped_quantiles(
    ds: rd.Dataset,
    group_col: str = "source",
    value_col: str = "n_tok",
    ps: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.99),
    n_buckets: int | None = None,
) -> rd.Dataset:
    """EXACT percentile_disc per group of an integer column — per-domain
    sequence-length profiles (p50/p95 n_tok per source drive packing and
    mixture decisions). One row per group: (group, p25, p50, ...).

    Scale shape (the grouped_topk discipline): each block emits one
    (group, value, cnt) PARTIAL per distinct pair present — payload
    O(groups-in-block x distinct values), independent of block rows —
    bucketed by hash(group) so a group's whole value histogram lands in
    ONE bucket, where the cumulative rank scan resolves every quantile
    exactly. Only O(groups x len(ps)) rows leave the reduce. NULL values
    are excluded (percentile_disc semantics); NULL group keys fold into
    '' (the SQL twin's coalesce). Suited to int domains whose
    distinct-value count is bounded (lengths, years, counts); arbitrary
    float columns at corpus scale take the float_quantiles refinement
    path instead."""
    return _grouped_hist_quantiles(
        ds, group_col, value_col, ps, n_buckets, "p", _disc_at, pa.int64()
    )


def grouped_quantiles_cont(
    ds: rd.Dataset,
    group_col: str = "source",
    value_col: str = "n_tok",
    ps: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.99),
    n_buckets: int | None = None,
) -> rd.Dataset:
    """INTERPOLATED percentile_cont per group (the Postgres/DuckDB rule:
    h = p*(n-1), result = v[floor h] + (h - floor h)*(v[floor h + 1] -
    v[floor h])) — the continuous twin of :func:`grouped_quantiles`,
    same (group, value, cnt) partial + bucketed exact-rank-scan shape.

    Float caveat: the result is one short double expression; the oracle
    uses DuckDB's percentile_cont builtin, whose internal op order may
    differ in the last ulp — parity holds at the driver's %.9g hash
    tolerance (the token_entropy / Welford precedent)."""
    return _grouped_hist_quantiles(
        ds, group_col, value_col, ps, n_buckets, "q", _cont_at, pa.float64()
    )


def grouped_quantiles_cont_oracle_sql(
    table: str,
    group_col: str = "source",
    value_col: str = "n_tok",
    ps: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.99),
) -> str:
    """DuckDB twin of :func:`grouped_quantiles_cont` (builtin
    percentile_cont; %.9g-tolerance parity, see the engine docstring)."""
    cols = ", ".join(
        f"percentile_cont({p}) WITHIN GROUP (ORDER BY {value_col})::DOUBLE AS "
        + _pct_label("q", p)
        for p in ps
    )
    return (
        f"SELECT coalesce({group_col}, '') AS {group_col}, {cols} "
        f"FROM {table} WHERE {value_col} IS NOT NULL "
        f"GROUP BY coalesce({group_col}, '')"
    )


def grouped_quantiles_oracle_sql(
    table: str,
    group_col: str = "source",
    value_col: str = "n_tok",
    ps: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.99),
) -> str:
    """DuckDB twin of :func:`grouped_quantiles`."""
    cols = ", ".join(
        f"percentile_disc({p}) WITHIN GROUP (ORDER BY {value_col})::BIGINT AS "
        + _pct_label("p", p)
        for p in ps
    )
    return (
        f"SELECT coalesce({group_col}, '') AS {group_col}, {cols} "
        f"FROM {table} WHERE {value_col} IS NOT NULL "
        f"GROUP BY coalesce({group_col}, '')"
    )


def token_entropy(
    ds: rd.Dataset, column: str = "tokens", vocab_size: int = 50_257
) -> pd.DataFrame:
    """Corpus token-distribution health in one row: total tokens, distinct
    tokens, Shannon entropy (bits/token) — the standard diversity check
    before training (a collapsing pipeline shows up as falling entropy).
    Rides the same vocab-bounded dense-histogram partials as vocab_topk
    (O(vocab) rows ever reach the driver, never O(corpus)); the entropy
    fold is H = log2(N) - sum(c*log2 c)/N over the exact counts, summed
    in token order so the float result is deterministic."""
    hist = value_histogram(ds, column, vocab_size, flatten=True).to_pandas()
    if hist.empty:  # zero tokens -> zero blocks survive the groupby
        return pd.DataFrame(
            [{"n_tokens": 0, "n_distinct": 0, "entropy_bits": 0.0}]
        )
    hist = hist.sort_values("value")
    c = hist["cnt"].to_numpy(np.float64)
    n = float(c.sum())
    h = float(np.log2(n) - np.dot(c, np.log2(c)) / n)
    return pd.DataFrame(
        [
            {
                "n_tokens": int(n),
                "n_distinct": int(len(c)),
                "entropy_bits": h,
            }
        ]
    )


def token_entropy_oracle_sql(corpus: str, column: str = "tokens") -> str:
    """DuckDB twin of token_entropy (driver float hashing is %.9g, the
    same tolerance the Welford oracles already rely on)."""
    return f"""WITH tok AS (SELECT unnest({column}) AS x FROM {corpus}),
c AS (SELECT x, count(*)::BIGINT AS cnt FROM tok GROUP BY x)
SELECT sum(cnt)::BIGINT AS n_tokens, count(*)::BIGINT AS n_distinct,
  log2(sum(cnt)::DOUBLE) - sum(cnt::DOUBLE * log2(cnt::DOUBLE)) / sum(cnt)::DOUBLE
    AS entropy_bits
FROM c"""


def _grouped_token_count_partials(
    t: pa.Table, group_col: str, tokens_col: str, vocab_size: int, nb: int
) -> pa.Table:
    """Per-block (group, token, cnt, _b) rows via one dense group*vocab
    pair-id unique — payload O(groups-in-block x vocab), never O(block
    tokens); bucket = hash(group) so a group's whole distribution lands
    in one bucket. Shared by grouped top-k / entropy / KL divergence."""
    col = t.column(tokens_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # fill_null(0): a NULL list row has no elements (flatten drops it,
    # SQL unnest emits no rows) — without the fill, to_numpy goes
    # float64/NaN and np.repeat(codes, lens) raises
    lens = (
        pc.fill_null(pc.list_value_length(col), 0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    if len(flat) and (flat.min() < 0 or flat.max() >= vocab_size):
        # the dense pair-id encoding must never wrap: an out-of-range token
        # would land its count in ANOTHER group's cell silently
        raise ValueError(
            f"{tokens_col} outside [0, {vocab_size}): range "
            f"[{flat.min()}, {flat.max()}] — raise vocab_size"
        )
    codes, uniq = _group_codes(t.column(group_col), group_col)
    pair = np.repeat(codes, lens) * vocab_size + flat
    u, c = np.unique(pair, return_counts=True)
    return _pair_partial(
        group_col, "token", uniq, u // vocab_size, u % vocab_size, c, nb
    )


def grouped_token_entropy(
    ds: rd.Dataset,
    group_col: str = "source",
    tokens_col: str = "tokens",
    vocab_size: int = 50_257,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Per-GROUP token-distribution entropy — the domain-drift twin of
    token_entropy (a source whose entropy collapses is emitting
    boilerplate). Same partial shape as grouped_topk: per-block
    (group, token, cnt) rows via one dense group*vocab pair-id unique
    (payload O(groups-in-block x vocab), never O(block tokens)), bucketed
    by hash(group) so each group's whole distribution lands in one bucket;
    the in-bucket fold sums cnt*log2(cnt) in (group, token) order, so the
    float result is deterministic. Output: one row per group."""
    nb = n_buckets or util.scaled_buckets(ds)

    def partials(t: pa.Table) -> pa.Table:
        return _grouped_token_count_partials(t, group_col, tokens_col, vocab_size, nb)

    def reduce_bucket(g: pa.Table) -> pa.Table:
        groups, _, icnt, starts = _group_runs(g, group_col, "token")
        cnt = icnt.astype(np.float64)
        n = np.add.reduceat(cnt, starts)
        clogc = np.add.reduceat(cnt * np.log2(cnt), starts)
        sizes = np.diff(np.r_[starts, len(cnt)])
        h = np.log2(n) - clogc / n
        return pa.table(
            {
                group_col: pa.array(groups, pa.string()),
                "n_tokens": pa.array(n.astype(np.int64)),
                "n_distinct": pa.array(sizes.astype(np.int64)),
                "entropy_bits": pa.array(h, pa.float64()),
            }
        )

    parts = ds.map_batches(partials, batch_format="pyarrow")
    return util.bucketed(parts, "_b", reduce_bucket)


def grouped_entropy_oracle_sql(
    corpus: str, group_col: str = "source", tokens_col: str = "tokens"
) -> str:
    """DuckDB twin of grouped_token_entropy (engine groups NULL sources
    as '' -> coalesce keeps parity; %.9g float tolerance)."""
    return f"""WITH f AS (
  SELECT coalesce({group_col}, '') AS {group_col}, unnest({tokens_col}) AS t
  FROM {corpus}
),
c AS (SELECT {group_col}, t, count(*)::BIGINT AS cnt FROM f GROUP BY {group_col}, t)
SELECT {group_col}, sum(cnt)::BIGINT AS n_tokens, count(*)::BIGINT AS n_distinct,
  log2(sum(cnt)::DOUBLE) - sum(cnt::DOUBLE * log2(cnt::DOUBLE)) / sum(cnt)::DOUBLE
    AS entropy_bits
FROM c GROUP BY {group_col}"""


def grouped_kl_divergence(
    ds: rd.Dataset,
    group_col: str = "source",
    tokens_col: str = "tokens",
    vocab_size: int = 50_257,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Per-group KL(P_group || P_corpus) over the token distribution —
    the quantitative domain-drift check next to grouped entropy: a
    source whose KL climbs is diverging from the corpus mix.  Always
    finite: every group's support is contained in the corpus's.

    Two passes, both sketch-bounded: (1) the exact O(vocab) corpus
    histogram (value_histogram partials), densified once on the driver
    and ray.put-broadcast; (2) the shared grouped (group, token, cnt)
    partials, folded in-bucket where each group's
    sum cnt*(log2 cnt - log2 corpus_cnt) accumulates in sorted
    (group, token) order — deterministic floats, DuckDB twin at the
    driver's %.9g tolerance (the entropy precedent).

      KL = log2(n_corpus) - log2(n_group)
           + (1/n_group) * sum_t cnt_t * (log2 cnt_t - log2 corpus_t)
    """
    import ray

    nb = n_buckets or util.scaled_buckets(ds)
    hist = value_histogram(ds, tokens_col, vocab_size, flatten=True).to_pandas()
    corpus = np.zeros(vocab_size, np.float64)
    if len(hist):  # empty Dataset.to_pandas drops columns entirely
        corpus[hist["value"].to_numpy(np.int64)] = hist["cnt"].to_numpy(np.float64)
    n_corpus = float(corpus.sum())
    empty = pa.table(
        {
            group_col: pa.array([], pa.string()),
            "n_tokens": pa.array([], pa.int64()),
            "kl_bits": pa.array([], pa.float64()),
        }
    )
    if n_corpus == 0:
        return rd.from_arrow(empty)
    # zero cells are never indexed (a group's tokens all exist in the
    # corpus) but must not hold uninitialized memory
    log_corpus = np.zeros(vocab_size, np.float64)
    np.log2(corpus, out=log_corpus, where=corpus > 0)
    log_corpus_ref = ray.put(log_corpus)
    log_nc = float(np.log2(n_corpus))

    def partials(t: pa.Table) -> pa.Table:
        return _grouped_token_count_partials(t, group_col, tokens_col, vocab_size, nb)

    def reduce_bucket(g: pa.Table) -> pa.Table:
        logc = ray.get(log_corpus_ref)
        groups, tok, icnt, starts = _group_runs(g, group_col, "token")
        cnt = icnt.astype(np.float64)
        n = np.add.reduceat(cnt, starts)
        contrib = np.add.reduceat(cnt * (np.log2(cnt) - logc[tok]), starts)
        kl = log_nc - np.log2(n) + contrib / n
        return pa.table(
            {
                group_col: pa.array(groups, pa.string()),
                "n_tokens": pa.array(n.astype(np.int64)),
                "kl_bits": pa.array(kl, pa.float64()),
            }
        )

    parts = ds.map_batches(partials, batch_format="pyarrow")
    return util.bucketed(parts, "_b", reduce_bucket)


def grouped_kl_oracle_sql(
    corpus: str, group_col: str = "source", tokens_col: str = "tokens"
) -> str:
    """DuckDB twin of grouped_kl_divergence (%.9g float tolerance; the
    engine groups NULL sources as '' -> coalesce keeps parity)."""
    return f"""WITH f AS (
  SELECT coalesce({group_col}, '') AS {group_col}, unnest({tokens_col}) AS t
  FROM {corpus}
),
c AS (SELECT {group_col}, t, count(*)::BIGINT AS cnt FROM f GROUP BY {group_col}, t),
g AS (SELECT t, sum(cnt)::BIGINT AS ct FROM c GROUP BY t),
nc AS (SELECT sum(cnt)::DOUBLE AS n FROM c)
SELECT {group_col}, sum(cnt)::BIGINT AS n_tokens,
  log2((SELECT n FROM nc)) - log2(sum(cnt)::DOUBLE)
  + sum(cnt::DOUBLE * (log2(cnt::DOUBLE) - log2(ct::DOUBLE))) / sum(cnt)::DOUBLE
    AS kl_bits
FROM c JOIN g USING (t)
GROUP BY {group_col}"""


# ---------------------------------------------------------------------------
# grouped robust (median / MAD) outlier statistics — the standard robust
# length-filter rule (|x - median| > k * MAD flags a doc as anomalous for
# its source), exact in integer fixed point so the SQL twin hash-matches.
# ---------------------------------------------------------------------------


def _median2_from_hist(v: np.ndarray, c: np.ndarray) -> int:
    """2x the continuous median (percentile_cont 0.5 — DuckDB median())
    of the multiset {v repeated c}, from a VALUE-SORTED histogram: the
    sum of the two central order statistics (equal when n is odd), an
    exact integer."""
    n = int(c.sum())
    cum = np.cumsum(c)
    lo = (n + 1) // 2
    hi = n // 2 + 1
    return int(v[np.searchsorted(cum, lo)] + v[np.searchsorted(cum, hi)])


def grouped_mad_outliers(
    ds: rd.Dataset,
    group_col: str = "source",
    value_col: str = "n_tok",
    k: int = 3,
    max_value: int = 1 << 20,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Per-GROUP robust outlier statistics over an integer column:
    med2 = 2*median, mad4 = 4*MAD (both exact integers — median of an
    int multiset is at worst a half-integer, so doubling is lossless),
    and n_outliers = rows with |x - median| > k * MAD, tested in pure
    integer arithmetic as 2*|2x - med2| > k*mad4. A group whose MAD is 0
    (constant-length boilerplate) flags every deviating row — the
    desired behavior for that degenerate case. Values must lie in
    [0, max_value); any other value raises.

    Scale shape: one histogram partial per block (payload
    O(groups x distinct values), independent of rows), one hash(group)
    bucket shuffle; each group's full histogram lands in one bucket
    where median, MAD and the outlier count all resolve exactly from
    the histogram — no second pass over the data, nothing row-sized on
    the driver. Output: one row per group. SQL twin:
    `grouped_mad_oracle_sql` (DuckDB median() = percentile_cont(0.5),
    doubled into exact integers)."""
    nb = n_buckets or util.scaled_buckets(ds)
    kk = int(k)

    def partials(t: pa.Table) -> pa.Table:
        return _grouped_value_hist_partials(t, group_col, value_col, nb, max_value)

    def reduce_bucket(g: pa.Table) -> pa.Table:
        groups, val, cnt, starts = _group_runs(g, group_col, "value")
        out_med2, out_mad4, out_n, out_out = [], [], [], []
        for a, b in zip(starts, np.r_[starts[1:], len(val)]):
            v, c = val[a:b], cnt[a:b]  # value-sorted within the group
            med2 = _median2_from_hist(v, c)
            dev2 = np.abs(2 * v - med2)
            # merge equal deviations (values symmetric around the median);
            # np.unique sorts, so du is deviation-ordered
            du, inv = np.unique(dev2, return_inverse=True)
            dcu = np.zeros(len(du), np.int64)
            np.add.at(dcu, inv, c)  # exact int64 fold
            mad4 = _median2_from_hist(du, dcu)
            out_med2.append(med2)
            out_mad4.append(mad4)
            out_n.append(int(c.sum()))
            out_out.append(int(c[2 * dev2 > kk * mad4].sum()))
        return pa.table(
            {
                group_col: pa.array(groups, pa.string()),
                "med2": pa.array(out_med2, pa.int64()),
                "mad4": pa.array(out_mad4, pa.int64()),
                "n_rows": pa.array(out_n, pa.int64()),
                "n_outliers": pa.array(out_out, pa.int64()),
            }
        )

    parts = ds.map_batches(partials, batch_format="pyarrow")
    return util.bucketed(parts, "_b", reduce_bucket)


def grouped_mad_oracle_sql(
    corpus: str,
    group_col: str = "source",
    value_col: str = "n_tok",
    k: int = 3,
) -> str:
    """DuckDB twin of grouped_mad_outliers: median() is
    percentile_cont(0.5) (exact half-integers on int input), doubled
    into exact BIGINTs; the outlier test is the same pure-integer
    comparison."""
    return f"""WITH v AS (
  SELECT coalesce({group_col}, '') AS g, {value_col}::BIGINT AS x
  FROM {corpus} WHERE {value_col} IS NOT NULL
),
m AS (SELECT g, round(2 * median(x))::BIGINT AS med2 FROM v GROUP BY g),
d AS (
  SELECT v.g, abs(2 * v.x - m.med2)::BIGINT AS dev2, m.med2
  FROM v JOIN m ON m.g = v.g
),
mm AS (SELECT g, round(2 * median(dev2))::BIGINT AS mad4 FROM d GROUP BY g)
SELECT d.g AS {group_col}, any_value(d.med2) AS med2, any_value(mm.mad4) AS mad4,
  count(*)::BIGINT AS n_rows,
  sum(CASE WHEN 2 * d.dev2 > {int(k)} * mm.mad4 THEN 1 ELSE 0 END)::BIGINT
    AS n_outliers
FROM d JOIN mm ON mm.g = d.g
GROUP BY d.g"""


# ---------------------------------------------------------------------------
# generic grouped top-k ROWS — the ROW_NUMBER() OVER (PARTITION BY g
# ORDER BY v DESC, key) <= k relational shape (top-N documents per source
# by any score column), the row-level sibling of grouped_topk's
# token-histogram top-k.
# ---------------------------------------------------------------------------


def grouped_topk_rows(
    ds: rd.Dataset,
    group_col: str,
    order_col: str,
    k: int,
    key_col: str = "doc_id",
    descending: bool = True,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Top `k` rows per group by `order_col` (ties -> key ascending, the
    deterministic rule every ranked operator here uses), with a 1-based
    `rank` column. Exactly SQL's QUALIFY row_number() OVER (PARTITION BY
    group ORDER BY v [DESC], key) <= k.

    Scale shape (the stratified_sample discipline): each block pre-cuts
    every group to its local k best — the global top-k of a group is a
    subset of the union of per-block top-ks — so at most
    O(groups-in-block x k) rows leave any block; a hash(group) bucket
    groupby then applies the exact cap in-bucket. NULL order values sort
    last (never rank); NULL groups fold to ''."""
    kk = int(k)
    if kk < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    nb = n_buckets or util.scaled_buckets(ds)
    base = ds.schema().base_schema
    kt = base.field(key_col).type
    vt = base.field(order_col).type
    keep_cols = [group_col, key_col, order_col]

    def _cut(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(
            ["_g", "_v", key_col],
            ascending=[True, not descending, True],
            kind="mergesort",
        )
        return df.groupby("_g", sort=False).head(kk)

    def partials(t: pa.Table) -> pa.Table:
        t = util.strip_schema_metadata(t).select(keep_cols)
        codes, groups = _group_codes(t.column(group_col), group_col)
        v = t.column(order_col)
        valid = ~np.asarray(v.combine_chunks().is_null()) if v.null_count else None
        df = pd.DataFrame(
            {
                "_g": groups[codes],
                "_v": v.to_pandas(),
                key_col: t.column(key_col).to_pandas(),
            }
        )
        if valid is not None:
            df = df[valid]  # NULL order values never rank
        df = _cut(df)
        b = (
            detmix.string_hash64(df["_g"].to_numpy(dtype=object))
            % np.uint64(nb)
        ).astype(np.int32)
        return pa.table(
            {
                group_col: pa.array(df["_g"].to_numpy(dtype=object), pa.string()),
                order_col: pa.array(df["_v"].to_numpy(), type=vt),
                key_col: pa.array(df[key_col].to_numpy(), type=kt),
                "_b": pa.array(b),
            }
        )

    def in_bucket(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "_g": t.column(group_col).to_pandas().to_numpy(dtype=object),
                "_v": t.column(order_col).to_pandas(),
                key_col: t.column(key_col).to_pandas(),
            }
        )
        df = _cut(df)
        rank = df.groupby("_g", sort=False).cumcount() + 1
        return pa.table(
            {
                group_col: pa.array(df["_g"].to_numpy(dtype=object), pa.string()),
                key_col: pa.array(df[key_col].to_numpy(), type=kt),
                order_col: pa.array(df["_v"].to_numpy(), type=vt),
                "rank": pa.array(rank.to_numpy(np.int64)),
            }
        )

    parts = ds.map_batches(partials, batch_format="pyarrow")
    return util.bucketed(parts, "_b", in_bucket)


def grouped_topk_rows_oracle_sql(
    table: str,
    group_col: str,
    order_col: str,
    k: int,
    key_col: str = "doc_id",
    descending: bool = True,
) -> str:
    """DuckDB twin of grouped_topk_rows (NULL groups coalesce to '',
    NULL order values excluded, same tie rule)."""
    direction = "DESC" if descending else "ASC"
    return f"""
SELECT coalesce({group_col}, '') AS {group_col}, {key_col}, {order_col},
  CAST(row_number() OVER (
    PARTITION BY coalesce({group_col}, '')
    ORDER BY {order_col} {direction}, {key_col}
  ) AS BIGINT) AS rank
FROM {table} WHERE {order_col} IS NOT NULL
QUALIFY rank <= {int(k)}"""


# ---------------------------------------------------------------------------
# exact grouped COUNT(DISTINCT value) — the exact twin of the grouped HLL
# sketch (use this when the distinct set is shuffle-affordable, the sketch
# when it is not).
# ---------------------------------------------------------------------------


def grouped_count_distinct(
    ds: rd.Dataset,
    group_col: str,
    value_col: str,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Exact per-group distinct-value count -> (group, n_distinct).

    Scale shape: each block reduces to its DISTINCT (group, value) pairs
    (np.unique over a composite key — payload bounded by the block's
    distinct pairs, never its rows); pairs shuffle ONCE through a
    corpus-scaled bucket groupby keyed on hash(group, value), so each
    pair is counted exactly once globally; buckets emit per-group
    partial counts (O(groups) rows) folded by a tiny groupby-sum. NULL
    groups fold to ''; NULL values are ignored (SQL COUNT(DISTINCT)
    semantics).

    Value-type contract: integer / string / boolean only, enforced loudly
    at plan time (the build_text_index pattern). The distinct identity is
    a 64-bit hash of the value's STRING rendering; for float / decimal /
    binary columns textual rendering can merge values COUNT(DISTINCT)
    separates (or split ones it merges — '1.0' vs '1'), so those types
    are refused rather than silently drifting from SQL semantics."""
    import pyarrow.types as _patypes

    vt = ds.schema().base_schema.field(value_col).type
    if not (
        _patypes.is_integer(vt)
        or _patypes.is_string(vt)
        or _patypes.is_large_string(vt)
        or _patypes.is_boolean(vt)
    ):
        raise ValueError(
            f"{value_col} must be an integer/string/boolean column for "
            f"grouped_count_distinct (got {vt}); distinctness is computed "
            "on the value's string rendering, which is only faithful for "
            "those types — cast or hash the column explicitly first"
        )
    nb = n_buckets or util.scaled_buckets(ds)

    def pairs(t: pa.Table) -> pa.Table:
        codes, groups = _group_codes(t.column(group_col), group_col)
        g = groups[codes]
        v = t.column(value_col)
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        if v.null_count:
            ok = np.asarray(v.is_valid())
            g, v = g[ok], v.filter(pa.array(ok))
        vs = v.cast(pa.string()).to_pandas().to_numpy(dtype=object)
        if len(g) == 0:
            return pa.table(
                {
                    group_col: pa.array([], pa.string()),
                    "vh": pa.array([], pa.uint64()),
                    "_b": pa.array([], pa.int32()),
                }
            )
        # composite 128-bit-ish identity: group hash mixed with value
        # hash; distinct within the block via np.unique on the pair
        gh = detmix.string_hash64(g)
        vh = detmix.string_hash64(vs)
        pair = detmix.splitmix64(gh ^ detmix.splitmix64(vh))
        order = np.lexsort((pair, gh))
        keep = np.r_[True, (gh[order][1:] != gh[order][:-1])
                     | (pair[order][1:] != pair[order][:-1])]
        sel = order[keep]
        return pa.table(
            {
                group_col: pa.array(g[sel], pa.string()),
                "vh": pa.array(pair[sel]),
                "_b": pa.array((pair[sel] % np.uint64(nb)).astype(np.int32)),
            }
        )

    def in_bucket(t: pa.Table) -> pa.Table:
        # a (group, value) pair's hash lands in exactly one bucket, so the
        # in-bucket distinct count per group is a disjoint global partial
        df = pd.DataFrame(
            {
                "g": t.column(group_col).to_pandas().to_numpy(dtype=object),
                "vh": t.column("vh").to_numpy(zero_copy_only=False),
            }
        )
        s = df.drop_duplicates().groupby("g", sort=False).size()
        return pa.table(
            {
                group_col: pa.array(s.index.to_numpy(dtype=object), pa.string()),
                "nd": pa.array(s.to_numpy(np.int64)),
            }
        )

    folded = util.bucketed(
        ds.map_batches(pairs, batch_format="pyarrow"), "_b", in_bucket
    ).groupby(group_col).sum("nd")

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                group_col: t.column(group_col),
                "n_distinct": t.column("sum(nd)").cast(pa.int64()),
            }
        )

    return folded.map_batches(rename, batch_format="pyarrow")


def grouped_count_distinct_oracle_sql(
    table: str, group_col: str, value_col: str
) -> str:
    """DuckDB twin (hash collisions are the only divergence risk —
    ~10^-19 per pair at 64-bit splitmix width, stated like the other
    hash-identity oracles)."""
    return f"""
SELECT coalesce({group_col}, '') AS {group_col},
       count(DISTINCT {value_col})::BIGINT AS n_distinct
FROM {table} WHERE {value_col} IS NOT NULL
GROUP BY coalesce({group_col}, '')"""
