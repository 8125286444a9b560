"""Corpus-quality operators for training-data curation: Gopher-style
repetition metrics and global-document-frequency scoring.

No reference analogue (training-data-pipeline first-class ops, like
`pipelines/dedup` and `pipelines/contamination`); the closest reference
shapes are the per-unit stats kernels (/root/reference/src/
band_stats_v01.cpp) and the broadcast small-side metadata join
(/root/reference/src/raquet_extension.cpp:40-44).

Scale contract (100 TB):
- `repetition_metrics` is embarrassingly parallel — every metric is
  per-document, one `map_batches` pass, no shuffle, nothing on the driver.
- `global_word_df` reduces to one vocabulary-sized table: per-batch
  partial document frequencies (combine inside map_batches) shuffle once
  through a corpus-scaled word-hash bucket groupby that resolves each
  word's exact global df in-bucket and applies the `top_n` cap per
  bucket, so the driver only ever holds O(min(vocab, buckets x top_n))
  rows — never a concat of every block's partial; the corpus itself
  never leaves the workers. Scoring is then a broadcast (`ray.put`) +
  one streaming `map_batches` probe — the same shape as
  `contamination.decontaminate`.

Determinism / oracle: word identity is detmix.string_hash64 on BOTH the
numpy and SQL sides (never the raw string on one side and the hash on
the other — a hash collision must collide identically in both engines),
and every emitted metric is an exact integer, so both operators carry
full DuckDB value oracles.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from .. import util
from ..functions import detmix
from ..functions import words as _words
from .contamination import NGRAM_P, _sql_fold, ngram_doc_hashes

# ---------------------------------------------------------------------------
# shared kernel: flat word-hash stream with per-doc lengths
# ---------------------------------------------------------------------------


def _flat_word_hashes(batch: pa.Table, text_col: str) -> tuple[np.ndarray, np.ndarray]:
    """-> (lens int64 per doc, wh uint64 flat word hashes): lowercase
    whitespace-split words of every doc in the batch, split + hashed by
    the shared Arrow-buffer kernel (functions/words — same split
    semantics as the SQL oracles, no per-doc pandas pass)."""
    return _words.split_ws_hashes(batch.column(text_col))


def _distinct_doc_words(
    lens: np.ndarray, wh: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """-> (doc_index, word_hash) with one row per DISTINCT word per doc
    (lexsort + run-boundary mask — no Python loop)."""
    doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    order = np.lexsort((wh, doc_of))
    d_s, w_s = doc_of[order], wh[order]
    new = np.empty(len(wh), dtype=bool)
    new[0] = True
    np.logical_or(d_s[1:] != d_s[:-1], w_s[1:] != w_s[:-1], out=new[1:])
    return d_s[new], w_s[new]


# ---------------------------------------------------------------------------
# repetition metrics (the published Gopher repetition-filter family:
# duplicate n-gram mass and most-frequent-word mass per document)
# ---------------------------------------------------------------------------


def repetition_batch(batch: pa.Table, *, text_col: str = "text", n: int = 2) -> pa.Table:
    """Append per-doc integer repetition metrics:

    - n_words              whitespace token count
    - n_grams              word-n-gram positions (max(n_words - n + 1, 0))
    - distinct_grams       distinct n-gram hashes
    - dup_gram_positions   gram positions whose gram occurs >= 2x in the doc
    - top_word_count       occurrences of the doc's most frequent word

    (high dup_gram_positions / n_grams or top_word_count / n_words is the
    Gopher drop rule; the fractions are left to the caller so the operator
    stays integer-exact for the value oracle)."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    batch = util.strip_schema_metadata(batch)  # pandas-written parquet input
    lens, wh = _flat_word_hashes(batch, text_col)
    ndocs = len(lens)
    total = int(lens.sum())
    top = np.zeros(ndocs, np.int64)
    distinct = np.zeros(ndocs, np.int64)
    dup = np.zeros(ndocs, np.int64)
    if total:
        doc_of = np.repeat(np.arange(ndocs, dtype=np.int64), lens)
        # per-(doc, word) run lengths -> max = top word count
        order = np.lexsort((wh, doc_of))
        d_s, w_s = doc_of[order], wh[order]
        new = np.empty(total, dtype=bool)
        new[0] = True
        np.logical_or(d_s[1:] != d_s[:-1], w_s[1:] != w_s[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        run_len = np.diff(np.append(starts, total))
        np.maximum.at(top, d_s[starts], run_len)
        # n-gram stream: Horner fold over shifted hash slices, windows
        # masked at doc boundaries (identical to contamination's fold)
        n_pos = total - n + 1
        if n_pos > 0:
            with np.errstate(over="ignore"):  # mod-2^64 wrap is the definition
                acc = wh[:n_pos].copy()
                for j in range(1, n):
                    acc *= NGRAM_P
                    acc += wh[j : j + n_pos]
            valid = doc_of[:n_pos] == doc_of[n - 1 : total]
            g, d = acc[valid], doc_of[:n_pos][valid]
            if len(g):
                order = np.lexsort((g, d))
                d_s, g_s = d[order], g[order]
                new = np.empty(len(g), dtype=bool)
                new[0] = True
                np.logical_or(d_s[1:] != d_s[:-1], g_s[1:] != g_s[:-1], out=new[1:])
                starts = np.flatnonzero(new)
                run_len = np.diff(np.append(starts, len(g)))
                distinct = np.bincount(d_s[starts], minlength=ndocs).astype(np.int64)
                rep = run_len >= 2
                dup = np.bincount(
                    d_s[starts[rep]], weights=run_len[rep], minlength=ndocs
                ).astype(np.int64)
    return (
        batch.append_column("n_words", pa.array(lens))
        .append_column("n_grams", pa.array(np.maximum(lens - n + 1, 0)))
        .append_column("distinct_grams", pa.array(distinct))
        .append_column("dup_gram_positions", pa.array(dup))
        .append_column("top_word_count", pa.array(top))
    )


def repetition_metrics(
    ds: rd.Dataset, *, text_col: str = "text", n: int = 2
) -> rd.Dataset:
    """One streaming map_batches pass — no shuffle, no driver state."""
    return ds.map_batches(
        lambda b: repetition_batch(b, text_col=text_col, n=n),
        batch_format="pyarrow",
    )


def gopher_filter(
    ds: rd.Dataset,
    *,
    max_dup_frac: float | None = None,
    max_top_frac: float | None = None,
) -> rd.Dataset:
    """Drop docs whose repetition metrics exceed the published thresholds
    (dup_gram_positions/n_grams, top_word_count/n_words). Expects the
    columns repetition_metrics appends; docs with zero grams/words are
    kept (no repetition evidence). Vectorized predicate, streaming."""

    def keep(batch: pa.Table) -> pa.Table:
        mask = np.ones(batch.num_rows, dtype=bool)
        if max_dup_frac is not None:
            ng = batch.column("n_grams").to_numpy(zero_copy_only=False)
            dup = batch.column("dup_gram_positions").to_numpy(zero_copy_only=False)
            mask &= dup <= max_dup_frac * ng
        if max_top_frac is not None:
            nw = batch.column("n_words").to_numpy(zero_copy_only=False)
            top = batch.column("top_word_count").to_numpy(zero_copy_only=False)
            mask &= top <= max_top_frac * nw  # empty docs: 0 <= 0, kept
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def repetition_oracle_sql(
    table: str = "documents",
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    n: int = 2,
) -> str:
    """DuckDB replica: identical word split, word hash (detmix CTEs) and
    n-gram fold; every metric is integer-exact. ASCII corpora only, words
    <= 128 chars (detmix.sql_string_hash_ctes hashes at most 128 chars;
    same caveats as contamination_oracle_sql)."""
    ws = r"[ \t\n\r\x0b\x0c]+"
    return f"""
WITH pow257_64(j, v) AS (VALUES {detmix.sql_pow257_64_values()}),
wl AS (
  SELECT {key_col} AS k,
    list_filter(regexp_split_to_array(lower({text_col}), '{ws}'), x -> x <> '') AS wl
  FROM {table}
),
w AS (
  SELECT k, unnest(wl) AS word, unnest(generate_series(1, len(wl))) AS wi FROM wl
),
{detmix.sql_string_hash_ctes("w", "word")},
wh AS (
  SELECT w.k, w.wi, kh.h FROM w JOIN kh ON kh.k = w.word
),
topw AS (
  SELECT k, max(c)::BIGINT AS top_word_count
  FROM (SELECT k, h, count(*) AS c FROM wh GROUP BY k, h) GROUP BY k
),
hl AS (SELECT k, list(h ORDER BY wi) AS hl FROM wh GROUP BY k),
ng AS (
  SELECT k, ({_sql_fold(n)})::UBIGINT AS g
  FROM (
    SELECT k, hl, unnest(generate_series(1, len(hl) - {n} + 1)) AS i
    FROM hl WHERE len(hl) >= {n}
  )
),
gc AS (SELECT k, g, count(*) AS c FROM ng GROUP BY k, g),
rep AS (
  SELECT k, count(*)::BIGINT AS distinct_grams,
         coalesce(sum(c) FILTER (WHERE c >= 2), 0)::BIGINT AS dup_gram_positions
  FROM gc GROUP BY k
)
SELECT d.{key_col} AS doc_id,
  coalesce(len(wl.wl), 0)::BIGINT AS n_words,
  greatest(coalesce(len(wl.wl), 0) - {n} + 1, 0)::BIGINT AS n_grams,
  coalesce(rep.distinct_grams, 0)::BIGINT AS distinct_grams,
  coalesce(rep.dup_gram_positions, 0)::BIGINT AS dup_gram_positions,
  coalesce(topw.top_word_count, 0)::BIGINT AS top_word_count
FROM {table} d
LEFT JOIN wl ON wl.k = d.{key_col}
LEFT JOIN rep ON rep.k = d.{key_col}
LEFT JOIN topw ON topw.k = d.{key_col}
"""


# ---------------------------------------------------------------------------
# global document frequency + commonness scoring (the CCNet-style
# "score each doc against corpus-wide term statistics" shape)
# ---------------------------------------------------------------------------


# diagnostic: rows the driver held at its peak in the last global_word_df
# call (tested to be O(result), never O(blocks x per-block vocab))
LAST_DF_DRIVER_ROWS = 0


def global_word_df(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    top_n: int | None = None,
    n_buckets: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """-> (sorted word hashes uint64, document frequency int64): number of
    docs containing each word, with `top_n` keeping the broadcast side
    bounded at corpus scale (ties broken by hash for determinism).

    Scale shape: per-batch PARTIAL dfs (distinct doc-word inside
    map_batches — docs never span batches, a doc is one row) shuffle ONCE
    through a corpus-scaled bucket groupby (bucket = wh % n, so a word's
    GLOBAL df resolves exactly inside one bucket); capped buckets emit at
    most top_n rows each. The driver therefore holds O(min(vocab,
    buckets x top_n)) rows — never the O(blocks x per-block vocab) concat
    of raw partials, where the same word repeats in every block's partial
    (a word in the global top_n beats < top_n words globally, hence
    < top_n words in its own bucket, so per-bucket capping is EXACT)."""
    global LAST_DF_DRIVER_ROWS
    nb = n_buckets or util.scaled_buckets(ds)

    def partials(batch: pa.Table) -> pa.Table:
        batch = util.strip_schema_metadata(batch)
        lens, wh = _flat_word_hashes(batch, text_col)
        if len(wh) == 0:
            return pa.table(
                {
                    "wh": pa.array([], pa.uint64()),
                    "df": pa.array([], pa.int64()),
                    "_b": pa.array([], pa.int32()),
                }
            )
        _, w_u = _distinct_doc_words(lens, wh)
        u, c = np.unique(w_u, return_counts=True)
        return pa.table(
            {
                "wh": pa.array(u),
                "df": pa.array(c.astype(np.int64)),
                "_b": pa.array((u % np.uint64(nb)).astype(np.int32)),
            }
        )

    def in_bucket(g: pa.Table) -> pa.Table:
        # all partials for a word land in THIS bucket: the sum is its
        # exact global df, and the per-bucket cap keeps every global
        # top_n candidate (see docstring)
        h = g.column("wh").to_numpy(zero_copy_only=False).astype(np.uint64)
        c = g.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        u, inv = np.unique(h, return_inverse=True)
        df = np.bincount(inv, weights=c).astype(np.int64)
        if top_n is not None and len(u) > top_n:
            order = np.lexsort((u, -df))[:top_n]  # by df desc, hash asc
            keep = np.sort(order)
            u, df = u[keep], df[keep]
        return pa.table({"wh": pa.array(u), "df": pa.array(df)})

    hs, cs = [], []
    parts = ds.map_batches(partials, batch_format="pyarrow")
    for b in util.bucketed(parts, "_b", in_bucket).iter_batches(batch_format="numpy"):
        if "wh" not in b:  # empty groupby partitions emit 0-col blocks
            continue
        hs.append(np.asarray(b["wh"], dtype=np.uint64))
        cs.append(np.asarray(b["df"], dtype=np.int64))
    if not hs:
        LAST_DF_DRIVER_ROWS = 0
        return np.zeros(0, np.uint64), np.zeros(0, np.int64)
    allh, allc = np.concatenate(hs), np.concatenate(cs)
    LAST_DF_DRIVER_ROWS = len(allh)
    order = np.argsort(allh)  # buckets are hash-disjoint: no re-merge
    u, df = allh[order], allc[order]
    if top_n is not None and len(u) > top_n:
        order = np.lexsort((u, -df))[:top_n]
        keep = np.sort(order)
        u, df = u[keep], df[keep]
    return u, df


class _DfScoreProbe:
    """Actor-pool stage: (hashes, dfs) fetched ONCE per actor in __init__
    (ray.put broadcast), per-batch vectorized searchsorted probe."""

    def __init__(self, df_ref, text_col: str):
        self.wh, self.df = (
            ray.get(df_ref) if isinstance(df_ref, ray.ObjectRef) else df_ref
        )
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = util.strip_schema_metadata(batch)
        lens, wh = _flat_word_hashes(batch, self.text_col)
        nd = batch.num_rows
        n_distinct = np.zeros(nd, np.int64)
        df_sum = np.zeros(nd, np.int64)
        if len(wh):
            d_u, w_u = _distinct_doc_words(lens, wh)
            n_distinct = np.bincount(d_u, minlength=nd).astype(np.int64)
            if len(self.wh):
                idx = np.searchsorted(self.wh, w_u).clip(max=len(self.wh) - 1)
                hit = self.wh[idx] == w_u
                contrib = np.where(hit, self.df[idx], 0)
                df_sum = np.bincount(d_u, weights=contrib, minlength=nd).astype(
                    np.int64
                )
        return batch.append_column("n_distinct_words", pa.array(n_distinct)).append_column(
            "df_sum", pa.array(df_sum)
        )


def doc_df_score(
    ds: rd.Dataset,
    df_table: tuple[np.ndarray, np.ndarray],
    *,
    text_col: str = "text",
    concurrency: int | tuple[int, int] = (1, 8),
) -> rd.Dataset:
    """Annotate each doc with `n_distinct_words` and `df_sum` (the sum of
    global document frequencies over its distinct words — high mean df =
    boilerplate-common text, low = rare/noisy; the CCNet-style commonness
    signal). Broadcast + streaming probe, no shuffle."""
    wh, df = df_table
    ref = ray.put((np.asarray(wh, dtype=np.uint64), np.asarray(df, dtype=np.int64)))
    return ds.map_batches(
        _DfScoreProbe,
        fn_constructor_kwargs={"df_ref": ref, "text_col": text_col},
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def df_score_oracle_sql(
    table: str = "documents", *, text_col: str = "text", key_col: str = "doc_id"
) -> str:
    """DuckDB replica of global_word_df + doc_df_score over `table`
    (word identity by the SAME detmix hash, so a collision collides
    identically in both engines). ASCII corpora only, words <= 128 chars
    (the detmix SQL CTE hashes at most 128 chars per word)."""
    ws = r"[ \t\n\r\x0b\x0c]+"
    return f"""
WITH pow257_64(j, v) AS (VALUES {detmix.sql_pow257_64_values()}),
wl AS (
  SELECT {key_col} AS k,
    list_filter(regexp_split_to_array(lower({text_col}), '{ws}'), x -> x <> '') AS wl
  FROM {table}
),
w AS (
  SELECT k, unnest(wl) AS word FROM wl
),
{detmix.sql_string_hash_ctes("w", "word")},
dw AS (
  SELECT DISTINCT w.k, kh.h FROM w JOIN kh ON kh.k = w.word
),
dft AS (SELECT h, count(*)::BIGINT AS df FROM dw GROUP BY h),
agg AS (
  SELECT dw.k, count(*)::BIGINT AS n_distinct_words, sum(dft.df)::BIGINT AS df_sum
  FROM dw JOIN dft ON dft.h = dw.h GROUP BY dw.k
)
SELECT d.{key_col} AS doc_id,
  coalesce(agg.n_distinct_words, 0)::BIGINT AS n_distinct_words,
  coalesce(agg.df_sum, 0)::BIGINT AS df_sum
FROM {table} d LEFT JOIN agg ON agg.k = d.{key_col}
"""


# ---------------------------------------------------------------------------
# per-document keyword extraction (the integer tf-idf shape: drop the
# corpus-wide most-common words, then rank a doc's remaining words by
# within-doc term frequency — rare-but-locally-frequent = topical)
# ---------------------------------------------------------------------------


def _doc_word_tf(
    lens: np.ndarray, wh: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-> (doc_index, word_hash, tf) with one row per DISTINCT word per
    doc and its within-doc count — the counting twin of
    :func:`_distinct_doc_words` (same lexsort, run lengths kept)."""
    doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    order = np.lexsort((wh, doc_of))
    d_s, w_s = doc_of[order], wh[order]
    new = np.empty(len(wh), dtype=bool)
    new[0] = True
    np.logical_or(d_s[1:] != d_s[:-1], w_s[1:] != w_s[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    tf = np.diff(np.concatenate((starts, [len(wh)]))).astype(np.int64)
    return d_s[starts], w_s[starts], tf


class _KeywordProbe:
    """Actor-pool stage: stopword hash set fetched ONCE per actor,
    per-batch vectorized tf count + stopword filter + per-doc top-k."""

    def __init__(self, stop_ref, text_col: str, key_col: str, k: int):
        self.stop = (
            ray.get(stop_ref) if isinstance(stop_ref, ray.ObjectRef) else stop_ref
        )
        self.text_col = text_col
        self.key_col = key_col
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = util.strip_schema_metadata(batch)
        keys = batch.column(self.key_col)
        empty = pa.table(
            {
                "doc_id": pa.array([], keys.type),
                "rank": pa.array([], pa.int64()),
                "wh": pa.array([], pa.uint64()),
                "tf": pa.array([], pa.int64()),
            }
        )
        lens, wh = _flat_word_hashes(batch, self.text_col)
        if len(wh) == 0:
            return empty
        d_u, w_u, tf = _doc_word_tf(lens, wh)
        if len(self.stop):
            idx = np.searchsorted(self.stop, w_u).clip(max=len(self.stop) - 1)
            keep = self.stop[idx] != w_u
            d_u, w_u, tf = d_u[keep], w_u[keep], tf[keep]
        if len(d_u) == 0:
            return empty
        # per-doc rank by (tf desc, hash asc): one lexsort, then position
        # within each doc run
        order = np.lexsort((w_u, -tf, d_u))
        d2, w2, t2 = d_u[order], w_u[order], tf[order]
        first = np.empty(len(d2), dtype=bool)
        first[0] = True
        first[1:] = d2[1:] != d2[:-1]
        run_start = np.maximum.accumulate(np.where(first, np.arange(len(d2)), 0))
        rank = np.arange(len(d2), dtype=np.int64) - run_start
        keep = rank < self.k
        return pa.table(
            {
                "doc_id": keys.take(pa.array(d2[keep])),
                "rank": pa.array(rank[keep] + 1),
                "wh": pa.array(w2[keep]),
                "tf": pa.array(t2[keep]),
            }
        )


def doc_keywords(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    k: int = 3,
    stop_top_n: int = 32,
    concurrency: int | tuple[int, int] = (1, 8),
) -> rd.Dataset:
    """Per-doc keyword extraction, integer-exact: the `stop_top_n`
    corpus-wide highest-df words (from :func:`global_word_df`'s exact
    capped table — df desc, hash asc) are dropped as stopwords, the
    remaining words rank within each doc by (tf desc, hash asc), top `k`
    kept. -> rows (doc_id, rank 1-based, wh, tf); docs whose words are
    all stopworded emit nothing. One df build + broadcast + one
    streaming probe pass — no per-doc shuffle."""
    stop_wh, _ = global_word_df(ds, text_col=text_col, top_n=stop_top_n)
    ref = ray.put(np.asarray(stop_wh, dtype=np.uint64))
    return ds.map_batches(
        _KeywordProbe,
        fn_constructor_kwargs={
            "stop_ref": ref,
            "text_col": text_col,
            "key_col": key_col,
            "k": k,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def keywords_oracle_sql(
    table: str = "documents",
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    k: int = 3,
    stop_top_n: int = 32,
) -> str:
    """DuckDB replica of doc_keywords: identical word split + detmix
    hashes, stopwords = row_number over (df DESC, h ASC) <= stop_top_n
    (h is UBIGINT, matching the uint64 lexsort tie rule), keyword rank =
    row_number over (PARTITION BY doc ORDER BY tf DESC, h ASC)."""
    ws = r"[ \t\n\r\x0b\x0c]+"
    return f"""
WITH pow257_64(j, v) AS (VALUES {detmix.sql_pow257_64_values()}),
wl AS (
  SELECT {key_col} AS k,
    list_filter(regexp_split_to_array(lower({text_col}), '{ws}'), x -> x <> '') AS wl
  FROM {table}
),
w AS (
  SELECT k, unnest(wl) AS word FROM wl
),
{detmix.sql_string_hash_ctes("w", "word")},
tf AS (
  SELECT w.k, kh.h, count(*)::BIGINT AS tf
  FROM w JOIN kh ON kh.k = w.word GROUP BY w.k, kh.h
),
df AS (SELECT h, count(*)::BIGINT AS df FROM tf GROUP BY h),
stop AS (
  SELECT h FROM (
    SELECT h, row_number() OVER (ORDER BY df DESC, h ASC) AS rn FROM df
  ) WHERE rn <= {stop_top_n}
),
kw AS (
  SELECT k, h, tf,
    row_number() OVER (PARTITION BY k ORDER BY tf DESC, h ASC) AS rank
  FROM tf WHERE h NOT IN (SELECT h FROM stop)
)
SELECT k AS doc_id, rank::BIGINT AS rank, h AS wh, tf FROM kw WHERE rank <= {k}
"""


# ---------------------------------------------------------------------------
# hashed linear source/quality classifier (the fastText/CCNet shape:
# train a linear model over hashed bag-of-words against a reference class,
# broadcast the weight table once, score the corpus in one streaming pass)
# ---------------------------------------------------------------------------


# diagnostic: rows the driver held at its peak in the last
# train_source_classifier call (tested O(result), never O(blocks x vocab))
LAST_CLS_DRIVER_ROWS = 0

# fixed-point scale for integer word weights (rate difference in 2^-20ths)
CLS_SCALE_BITS = 20


def train_source_classifier(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    label_col: str = "source",
    positive: tuple[str, ...] = (),
    top_n: int = 2048,
    n_buckets: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Train a hashed-bag-of-words linear classifier separating docs whose
    `label_col` is in `positive` from the rest — the published
    quality-filter shape (GPT-3 / LLaMA / CCNet train fastText-style
    models on wiki-vs-web and keep web docs the model scores wiki-like).

    Per distinct word w (detmix hash identity, shared with every SQL
    oracle):  weight(w) = (dfp(w) << 20) // n_pos - (dfn(w) << 20) // n_neg
    — the integer fixed-point difference of per-class document RATES, so
    balanced boilerplate cancels and class-indicative words dominate.
    The table keeps the `top_n` words by (|weight| desc, hash asc).

    -> (sorted word hashes uint64, weights int64, n_pos, n_neg).

    Scale shape (the `global_word_df` discipline): per-block partial
    (word-hash, dfp, dfn) rows shuffle ONCE through a corpus-scaled
    bucket groupby keyed on the hash, each bucket resolves its words'
    exact global class-dfs, computes weights (n_pos/n_neg are plan-time
    scalars from a label-column-only pre-pass) and caps to top_n — exact,
    because a global top-n word beats < n words in its own bucket. The
    driver merges O(buckets x top_n) capped rows. Integer bound:
    dfp << 20 needs dfp < 2^43 docs per class.
    """
    global LAST_CLS_DRIVER_ROWS
    if not positive:
        raise ValueError("positive label set must be non-empty")
    import pyarrow.compute as pc

    pos_set = pa.array(sorted(set(positive)), pa.string())

    def class_counts(t: pa.Table) -> pa.Table:
        p = int(
            pc.sum(pc.cast(pc.is_in(t.column(label_col), value_set=pos_set), pa.int64())).as_py()
            or 0
        )
        return pa.table({"npos": pa.array([p]), "nneg": pa.array([t.num_rows - p])})

    counts = (
        ds.select_columns([label_col])
        .map_batches(class_counts, batch_format="pyarrow")
        .sum(["npos", "nneg"])
    )
    n_pos, n_neg = int(counts["sum(npos)"]), int(counts["sum(nneg)"])
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"both classes must be populated: n_pos={n_pos} n_neg={n_neg}"
        )

    nb = n_buckets or util.scaled_buckets(ds)
    empty = pa.table(
        {
            "wh": pa.array([], pa.uint64()),
            "dfp": pa.array([], pa.int64()),
            "dfn": pa.array([], pa.int64()),
        }
    )

    def partials(batch: pa.Table) -> pa.Table:
        batch = util.strip_schema_metadata(batch)
        lens, wh = _flat_word_hashes(batch, text_col)
        if len(wh) == 0:
            return empty.append_column("_b", pa.array([], pa.int32()))
        doc_pos = pc.is_in(batch.column(label_col), value_set=pos_set).to_numpy(
            zero_copy_only=False
        )
        d_u, w_u = _distinct_doc_words(lens, wh)
        row_pos = doc_pos[d_u]
        u, inv = np.unique(w_u, return_inverse=True)
        dfp = np.bincount(inv, weights=row_pos, minlength=len(u)).astype(np.int64)
        dfn = np.bincount(inv, weights=~row_pos, minlength=len(u)).astype(np.int64)
        return pa.table(
            {
                "wh": pa.array(u),
                "dfp": pa.array(dfp),
                "dfn": pa.array(dfn),
                "_b": pa.array((u % np.uint64(nb)).astype(np.int32)),
            }
        )

    shift = np.int64(CLS_SCALE_BITS)

    def in_bucket(g: pa.Table) -> pa.Table:
        h = g.column("wh").to_numpy(zero_copy_only=False).astype(np.uint64)
        p = g.column("dfp").to_numpy(zero_copy_only=False).astype(np.int64)
        n = g.column("dfn").to_numpy(zero_copy_only=False).astype(np.int64)
        u, inv = np.unique(h, return_inverse=True)
        dfp = np.bincount(inv, weights=p, minlength=len(u)).astype(np.int64)
        dfn = np.bincount(inv, weights=n, minlength=len(u)).astype(np.int64)
        w = (dfp << shift) // np.int64(n_pos) - (dfn << shift) // np.int64(n_neg)
        if len(u) > top_n:
            order = np.lexsort((u, -np.abs(w)))[:top_n]  # |w| desc, hash asc
            keep = np.sort(order)
            u, w = u[keep], w[keep]
        return pa.table({"wh": pa.array(u), "w": pa.array(w)})

    hs, wsl = [], []
    parts = ds.map_batches(partials, batch_format="pyarrow")
    for b in util.bucketed(parts, "_b", in_bucket).iter_batches(batch_format="numpy"):
        if "wh" not in b:  # empty groupby partitions emit 0-col blocks
            continue
        hs.append(np.asarray(b["wh"], dtype=np.uint64))
        wsl.append(np.asarray(b["w"], dtype=np.int64))
    if not hs:
        LAST_CLS_DRIVER_ROWS = 0
        return np.zeros(0, np.uint64), np.zeros(0, np.int64), n_pos, n_neg
    allh, allw = np.concatenate(hs), np.concatenate(wsl)
    LAST_CLS_DRIVER_ROWS = len(allh)
    if len(allh) > top_n:
        order = np.lexsort((allh, -np.abs(allw)))[:top_n]
        keep = np.sort(order)
        allh, allw = allh[keep], allw[keep]
    order = np.argsort(allh)  # buckets are hash-disjoint: no re-merge
    return allh[order], allw[order], n_pos, n_neg


class _ClsProbe:
    """Actor-pool stage: weight table fetched ONCE per actor in __init__
    (ray.put broadcast), per-batch vectorized searchsorted probe."""

    def __init__(self, cls_ref, text_col: str):
        self.wh, self.w = (
            ray.get(cls_ref) if isinstance(cls_ref, ray.ObjectRef) else cls_ref
        )
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = util.strip_schema_metadata(batch)
        lens, wh = _flat_word_hashes(batch, self.text_col)
        nd = batch.num_rows
        n_hits = np.zeros(nd, np.int64)
        score = np.zeros(nd, np.int64)
        if len(wh) and len(self.wh):
            d_u, w_u = _distinct_doc_words(lens, wh)
            idx = np.searchsorted(self.wh, w_u).clip(max=len(self.wh) - 1)
            hit = self.wh[idx] == w_u
            n_hits = np.bincount(d_u, weights=hit, minlength=nd).astype(np.int64)
            score = np.bincount(
                d_u, weights=np.where(hit, self.w[idx], 0), minlength=nd
            ).astype(np.int64)
        return (
            batch.append_column("n_cls_hits", pa.array(n_hits))
            .append_column("cls_score", pa.array(score))
            .append_column("pred_pos", pa.array((score > 0).astype(np.int64)))
        )


def classifier_score(
    ds: rd.Dataset,
    cls_table: tuple[np.ndarray, np.ndarray],
    *,
    text_col: str = "text",
    concurrency: int | tuple[int, int] = (1, 8),
) -> rd.Dataset:
    """Annotate each doc with `n_cls_hits` (distinct words in the weight
    table), `cls_score` (integer sum of their weights — positive means
    the doc reads like the positive class) and `pred_pos` (0/1 sign).
    Broadcast + one streaming probe pass, no shuffle — the quality-filter
    inference shape at any corpus size."""
    wh, w = cls_table
    ref = ray.put((np.asarray(wh, dtype=np.uint64), np.asarray(w, dtype=np.int64)))
    return ds.map_batches(
        _ClsProbe,
        fn_constructor_kwargs={"cls_ref": ref, "text_col": text_col},
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def classifier_oracle_sql(
    table: str = "documents",
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    label_col: str = "source",
    positive: tuple[str, ...] = (),
    top_n: int = 2048,
) -> str:
    """DuckDB replica of train_source_classifier + classifier_score:
    identical word split and detmix hash, integer fixed-point weights
    ((dfp << 20) // n_pos - (dfn << 20) // n_neg — both operands
    non-negative, so DuckDB's truncating // equals numpy's floor //),
    row_number cutoff ordered (abs(w) DESC, h ASC) with h UBIGINT so the
    tie order matches the uint64 lexsort exactly. ASCII corpora only,
    words <= 128 chars (detmix CTE bound)."""
    if not positive:
        raise ValueError("positive label set must be non-empty")
    ws = r"[ \t\n\r\x0b\x0c]+"
    pos_list = ", ".join("'" + p.replace("'", "''") + "'" for p in sorted(set(positive)))
    scale = 1 << CLS_SCALE_BITS
    return f"""
WITH pow257_64(j, v) AS (VALUES {detmix.sql_pow257_64_values()}),
cnt AS (
  SELECT count(*) FILTER (WHERE {label_col} IN ({pos_list}))::BIGINT AS n_pos,
         count(*) FILTER (WHERE {label_col} NOT IN ({pos_list}))::BIGINT AS n_neg
  FROM {table}
),
wl AS (
  SELECT {key_col} AS k, {label_col} IN ({pos_list}) AS pos,
    list_filter(regexp_split_to_array(lower({text_col}), '{ws}'), x -> x <> '') AS wl
  FROM {table}
),
w AS (
  SELECT k, pos, unnest(wl) AS word FROM wl
),
{detmix.sql_string_hash_ctes("w", "word")},
dw AS (
  SELECT DISTINCT w.k, w.pos, kh.h FROM w JOIN kh ON kh.k = w.word
),
dft AS (
  SELECT h, count(*) FILTER (WHERE pos)::BIGINT AS dfp,
         count(*) FILTER (WHERE NOT pos)::BIGINT AS dfn
  FROM dw GROUP BY h
),
wt AS (
  SELECT h, (dfp * {scale} // cnt.n_pos - dfn * {scale} // cnt.n_neg)::BIGINT AS w
  FROM dft, cnt
),
top AS (
  SELECT h, w FROM (
    SELECT h, w, row_number() OVER (ORDER BY abs(w) DESC, h ASC) AS rn FROM wt
  ) WHERE rn <= {top_n}
),
hits AS (
  SELECT dw.k, count(*)::BIGINT AS n_cls_hits, sum(top.w)::BIGINT AS cls_score
  FROM dw JOIN top ON top.h = dw.h GROUP BY dw.k
)
SELECT d.{key_col} AS doc_id,
  coalesce(hits.n_cls_hits, 0)::BIGINT AS n_cls_hits,
  coalesce(hits.cls_score, 0)::BIGINT AS cls_score,
  (coalesce(hits.cls_score, 0) > 0)::BIGINT AS pred_pos
FROM {table} d LEFT JOIN hits ON hits.k = d.{key_col}
"""


# ---------------------------------------------------------------------------
# cross-document duplicate n-grams (exact-substring dup signal)
# ---------------------------------------------------------------------------


def crossdoc_ngram_dup(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    n: int = 8,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Per-doc count of distinct word n-grams that also appear in >= 1
    OTHER document — the exact-substring duplication signal (Lee et al.
    2022, "Deduplicating Training Data Makes Language Models Better"):
    high `dup_grams / distinct_grams` marks boilerplate/mirrored spans
    that whole-doc dedup misses. Output: one row per doc with >= 1
    n-gram — (key, distinct_grams, dup_grams).

    Scale shape: n-gram DF is NOT vocabulary-bounded (O(total grams)),
    so unlike `global_word_df` nothing is merged on the driver. The gram
    stream shuffles ONCE through a CORPUS-SCALED bucket groupby
    (bucket = hash % n, n from util.scaled_buckets so per-bucket payload
    stays ~target bytes at any corpus size; a gram's global df resolves
    entirely inside one bucket); each bucket emits per-doc PARTIAL rows
    (O(docs touched), not O(grams)), folded by a second, doc-sized
    groupby-sum. SQL twin: `crossdoc_dup_oracle_sql`."""
    # gram rows are ~3x the text bytes (8B hash + key per gram): scale the
    # fan-out to the gram stream, not the raw input
    nb = n_buckets or util.scaled_buckets(ds, bytes_per_bucket=8 << 20)

    def pairs(batch: pa.Table) -> pa.Table:
        batch = util.strip_schema_metadata(batch)
        d, g = ngram_doc_hashes(batch, text_col=text_col, n=n)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_b": pa.array((g % np.uint64(nb)).astype(np.int32)),
                "h": pa.array(g.view(np.int64)),
                "k": pa.array(keys[d]),
            }
        )

    def in_bucket(g: pa.Table) -> pa.Table:
        h = g.column("h").to_numpy(zero_copy_only=False)
        k = g.column("k").to_numpy(zero_copy_only=False)
        order = np.lexsort((k, h))
        hs, ks = h[order], k[order]
        # (h, k) pairs are distinct by construction (ngram_doc_hashes is
        # per-doc distinct), so each hash run's length IS its doc-df
        new_h = np.r_[True, hs[1:] != hs[:-1]]
        run_id = np.cumsum(new_h) - 1
        run_sizes = np.bincount(run_id)
        dup = run_sizes[run_id] >= 2
        uk, total = np.unique(ks, return_counts=True)
        dk = np.searchsorted(uk, ks[dup])
        dup_cnt = np.bincount(dk, minlength=len(uk)).astype(np.int64)
        return pa.table(
            {
                key_col: pa.array(uk),
                "distinct_grams": pa.array(total.astype(np.int64)),
                "dup_grams": pa.array(dup_cnt),
            }
        )

    partials = util.bucketed(ds.map_batches(pairs, batch_format="pyarrow"), "_b", in_bucket)
    folded = partials.groupby(key_col).sum(["distinct_grams", "dup_grams"])

    def rename(t: pa.Table) -> pa.Table:
        # name-based, not positional: a column-order change in Ray's
        # groupby-sum output must not silently swap the two counts
        return pa.table(
            {
                key_col: t.column(key_col),
                "distinct_grams": t.column("sum(distinct_grams)"),
                "dup_grams": t.column("sum(dup_grams)"),
            }
        )

    return folded.map_batches(rename, batch_format="pyarrow")


def crossdoc_dup_oracle_sql(
    table: str = "documents",
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    n: int = 8,
) -> str:
    """DuckDB replica of crossdoc_ngram_dup: identical word split / hash /
    n-gram fold (detmix CTEs), DISTINCT (doc, gram), global doc-df per
    gram, per-doc counts. ASCII corpora only, words <= 128 chars (same
    caveats as contamination_oracle_sql)."""
    ws = r"[ \t\n\r\x0b\x0c]+"
    return f"""
WITH pow257_64(j, v) AS (VALUES {detmix.sql_pow257_64_values()}),
wl AS (
  SELECT {key_col} AS k,
    list_filter(regexp_split_to_array(lower({text_col}), '{ws}'), x -> x <> '') AS wl
  FROM {table}
),
w AS (
  SELECT k, unnest(wl) AS word, unnest(generate_series(1, len(wl))) AS wi FROM wl
),
{detmix.sql_string_hash_ctes("w", "word")},
hl AS (
  SELECT w.k, list(kh.h ORDER BY w.wi) AS hl
  FROM w JOIN kh ON kh.k = w.word
  GROUP BY w.k
),
ng AS (
  SELECT DISTINCT k, ({_sql_fold(n)})::UBIGINT AS g
  FROM (
    SELECT k, hl, unnest(generate_series(1, len(hl) - {n} + 1)) AS i
    FROM hl WHERE len(hl) >= {n}
  )
),
gdf AS (SELECT g, count(*) AS df FROM ng GROUP BY g)
SELECT ng.k AS {key_col},
       count(*)::BIGINT AS distinct_grams,
       count(*) FILTER (WHERE gdf.df >= 2)::BIGINT AS dup_grams
FROM ng JOIN gdf USING (g)
GROUP BY ng.k
"""


# ---------------------------------------------------------------------------
# duplicate-span REMOVAL — the rewrite form of the exact-substring dup
# signal above (Lee et al. 2022, ExactSubstr): crossdoc_ngram_dup COUNTS
# duplicated grams; this operator CUTS them out of the text.
# ---------------------------------------------------------------------------


def _orig_words(batch: pa.Table, text_col: str) -> tuple[np.ndarray, pa.Array]:
    """ORIGINAL-case whitespace split -> (lens, flat words) — the rewrite
    must keep the surviving words' case, so the split runs on the raw
    text and the lowercase happens per word at hash time (identical
    order of operations to the SQL twin: split original, hash
    lower(word))."""
    return _words.split_ws(batch.column(text_col))


def ngram_start_hashes(
    batch: pa.Table, *, text_col: str = "text", n: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-> (doc_index int64, start int64 0-based word position, g uint64):
    one row per n-gram OCCURRENCE — NOT distinct, removal needs every
    position. Same word hash (detmix on lower(word)) and Horner fold
    (NGRAM_P mod 2^64) as ngram_doc_hashes, so grams here equal the
    counting operator's grams."""
    import pyarrow.compute as pc

    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    lens, flat_words = _orig_words(batch, text_col)
    total = int(lens.sum())
    if total < n:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.uint64)
    wh = _words.hash_string_array(pc.utf8_lower(flat_words))
    n_pos = total - n + 1
    with np.errstate(over="ignore"):  # mod-2^64 wrap is the definition
        acc = wh[:n_pos].copy()
        for j in range(1, n):
            acc *= NGRAM_P
            acc += wh[j : j + n_pos]
    doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    off = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=off[1:])
    valid = doc_of[:n_pos] == doc_of[n - 1 : total]
    d = doc_of[:n_pos][valid]
    s = np.arange(n_pos, dtype=np.int64)[valid] - off[d]
    return d, s, acc[valid]


def remove_dup_spans(
    ds: rd.Dataset,
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    n: int = 8,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Rewrite every document with its cross-document duplicated word
    n-gram spans REMOVED: for each gram occurring in more than one doc,
    the doc with the SMALLEST key keeps its occurrences (the canonical
    copy); every other doc's occurrence is cut (all n covered word
    positions). Output: (key, text rebuilt from surviving words
    space-joined, n_removed = covered word count). Docs shorter than n
    words pass through (whitespace-normalized, as all docs are).

    The drop rule is order-independent (min key per gram — not
    first-seen), so partitioning cannot change the result; intra-doc
    repeats inside the keeper doc are kept.

    Scale shape (100 TB): two shuffles, both bounded —
    1. the gram-occurrence stream through a CORPUS-SCALED hash bucket
       groupby (a gram's global occurrence set resolves inside one
       bucket; payload ~3x text bytes, the crossdoc_ngram_dup bound),
       emitting only COVERED (key, start) rows — O(duplicated
       occurrences), not O(grams);
    2. one doc-bucketed rewrite join (union-tag + groupby on a key-hash
       bucket, the PairVerifier fetch shape) where the text payload
       moves once.
    Nothing corpus-sized touches the driver. SQL twin:
    `remove_dup_spans_oracle_sql` (ASCII + int-key caveats as the other
    text oracles; min over string keys would compare bytes vs collation).
    """
    nb = n_buckets or util.scaled_buckets(ds, bytes_per_bucket=8 << 20)
    nb2 = util.scaled_buckets(ds)
    kt = ds.schema().base_schema.field(key_col).type

    def _empty_cov() -> pa.Table:
        return pa.table(
            {
                "_db": pa.array([], pa.int32()),
                "k": pa.array([], kt),
                "txt": pa.array([], pa.string()),
                "s": pa.array([], pa.int64()),
            }
        )

    def gram_rows(batch: pa.Table) -> pa.Table:
        batch = util.strip_schema_metadata(batch)
        d, s, g = ngram_start_hashes(batch, text_col=text_col, n=n)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_b": pa.array((g % np.uint64(nb)).astype(np.int32)),
                "h": pa.array(g.view(np.int64)),
                "k": pa.array(keys[d], type=kt),
                "s": pa.array(s),
            }
        )

    def covered_starts(g: pa.Table) -> pa.Table:
        # every occurrence of a gram lands in THIS bucket: the keeper
        # (min key over its docs) resolves here, and each occurrence in
        # any OTHER doc emits one covered (key, start) row
        h = g.column("h").to_numpy(zero_copy_only=False)
        k = g.column("k").to_numpy(zero_copy_only=False)
        s = g.column("s").to_numpy(zero_copy_only=False)
        order = np.lexsort((k, h))
        h, k, s = h[order], k[order], s[order]
        new_h = np.r_[True, h[1:] != h[:-1]]
        run_id = np.cumsum(new_h) - 1
        keeper = k[new_h][run_id]  # min key of each gram's run (k sorted within)
        cut = k != keeper
        if not cut.any():
            return _empty_cov()
        kc, sc = k[cut], s[cut]
        return pa.table(
            {
                "_db": pa.array(_key_hash_buckets(kc, nb2)),
                "k": pa.array(kc, type=kt),
                "txt": pa.nulls(len(kc), pa.string()),
                "s": pa.array(sc),
            }
        )

    def pad_docs(t: pa.Table) -> pa.Table:
        t = util.strip_schema_metadata(t)
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_db": pa.array(_key_hash_buckets(keys, nb2)),
                "k": t.column(key_col),
                "txt": t.column(text_col).cast(pa.string()),
                "s": pa.array(np.full(t.num_rows, -1, np.int64)),
            }
        )

    cov = util.bucketed(ds.map_batches(gram_rows, batch_format="pyarrow"), "_b", covered_starts)
    unioned = ds.map_batches(pad_docs, batch_format="pyarrow").union(cov)

    def rewrite_bucket(g: pa.Table) -> pa.Table:
        sarr = g.column("s").to_numpy(zero_copy_only=False)
        docs = g.filter(pa.array(sarr == -1))
        covs = g.filter(pa.array(sarr >= 0))
        dk_check = docs.column("k").to_numpy(zero_copy_only=False)
        if len(np.unique(dk_check)) != len(dk_check):
            # every row of a key hashes to THIS bucket, so the check is
            # exact corpus-wide; silent searchsorted misattribution of
            # covered positions would otherwise corrupt neighboring docs
            raise ValueError(
                f"remove_dup_spans: duplicate {key_col} in input — keys must "
                "be unique (run exact_dedup first)"
            )
        lens, flat_words = _orig_words(docs, "txt")
        off = np.zeros(len(lens) + 1, np.int64)
        np.cumsum(lens, out=off[1:])
        total = int(off[-1])
        dk = docs.column("k").to_numpy(zero_copy_only=False)
        covered = np.zeros(total, dtype=bool)
        if covs.num_rows and total:
            dorder = np.argsort(dk, kind="stable")
            ck = covs.column("k").to_numpy(zero_copy_only=False)
            cs = covs.column("s").to_numpy(zero_copy_only=False)
            di = dorder[np.searchsorted(dk[dorder], ck)]
            start = off[di] + cs
            end = off[di] + np.minimum(cs + n, lens[di])
            diff = np.zeros(total + 1, np.int64)
            np.add.at(diff, start, 1)
            np.add.at(diff, end, -1)
            covered = np.cumsum(diff[:-1]) > 0
        import pyarrow.compute as pc

        doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        keep = ~covered
        # rebuild each doc from its surviving words with ONE C join:
        # filter the flat word array, regroup by per-doc survivor counts,
        # binary_join with ' ' (replaces the per-doc pandas ' '.join)
        kept_counts = np.bincount(doc_of[keep], minlength=len(lens)).astype(np.int64)
        koff = np.zeros(len(lens) + 1, np.int64)
        np.cumsum(kept_counts, out=koff[1:])
        kept_words = (
            flat_words.filter(pa.array(keep))
            if total
            else pa.array([], pa.string())
        )
        lists = pa.LargeListArray.from_arrays(pa.array(koff), kept_words)
        texts = pc.binary_join(lists, " ")
        n_removed = np.bincount(doc_of[covered], minlength=len(lens)).astype(np.int64)
        return pa.table(
            {
                key_col: pa.array(dk, type=kt),
                text_col: texts.cast(pa.string()),
                "n_removed": pa.array(n_removed),
            }
        )

    return util.bucketed(unioned, "_db", rewrite_bucket)


def _key_hash_buckets(keys: np.ndarray, nb: int) -> np.ndarray:
    """Deterministic doc-bucket id per key (int keys: splitmix64 pre-mix so
    sequential ids spread; strings: detmix hash)."""
    if keys.dtype.kind in "iu":
        return (detmix.splitmix64(keys.astype(np.uint64)) % np.uint64(nb)).astype(
            np.int32
        )
    s = pd.Series(keys).fillna("").to_numpy(dtype=object)
    return (detmix.string_hash64(s) % np.uint64(nb)).astype(np.int32)


def remove_dup_spans_oracle_sql(
    table: str = "documents",
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    n: int = 8,
) -> str:
    """DuckDB replica of remove_dup_spans: split original text, hash
    lower(word) via the detmix CTEs, Horner-fold n-gram occurrences with
    positions, keeper = min key per gram, covered = positions under any
    non-keeper occurrence, rebuilt text = space-joined surviving words."""
    ws = r"[ \t\n\r\x0b\x0c]+"
    return f"""
WITH pow257_64(j, v) AS (VALUES {detmix.sql_pow257_64_values()}),
d0 AS (SELECT {key_col} AS k, coalesce({text_col}, '') AS txt FROM {table}),
wl AS (
  SELECT k, list_filter(regexp_split_to_array(txt, '{ws}'), x -> x <> '') AS wl
  FROM d0
),
w AS (
  SELECT k, unnest(wl) AS word, unnest(generate_series(1, len(wl))) AS wi FROM wl
),
lw AS (SELECT k, wi, word, lower(word) AS lword FROM w),
{detmix.sql_string_hash_ctes("lw", "lword")},
hl AS (
  SELECT lw.k, list(kh.h ORDER BY lw.wi) AS hl
  FROM lw JOIN kh ON kh.k = lw.lword
  GROUP BY lw.k
),
ng AS (
  SELECT k, i AS s, ({_sql_fold(n)})::UBIGINT AS g
  FROM (
    SELECT k, hl, unnest(generate_series(1, len(hl) - {n} + 1)) AS i
    FROM hl WHERE len(hl) >= {n}
  )
),
keeper AS (SELECT g, min(k) AS kk FROM ng GROUP BY g),
cov AS (
  SELECT DISTINCT ng.k, p.wi AS p
  FROM ng
  JOIN keeper ON keeper.g = ng.g AND keeper.kk <> ng.k
  JOIN lw p ON p.k = ng.k AND p.wi BETWEEN ng.s AND ng.s + {n} - 1
),
kept AS (
  SELECT lw.k,
    coalesce(string_agg(lw.word, ' ' ORDER BY lw.wi)
             FILTER (WHERE cov.p IS NULL), '') AS txt,
    count(cov.p)::BIGINT AS n_removed
  FROM lw LEFT JOIN cov ON cov.k = lw.k AND cov.p = lw.wi
  GROUP BY lw.k
)
SELECT d0.k AS {key_col},
       coalesce(kept.txt, '') AS {text_col},
       coalesce(kept.n_removed, 0)::BIGINT AS n_removed
FROM d0 LEFT JOIN kept ON kept.k = d0.k
"""
