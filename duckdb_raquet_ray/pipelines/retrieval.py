"""Text retrieval: BM25 top-k over the documents table — the lexical
sibling of ann.brute_force_topk (retrieval-augmented-training corpora
need both: embedding ANN for semantic lookup, BM25 for exact lexical
grounding / eval-set mining).

Oracle-exactness discipline: the classic BM25 uses ln() in its idf, and
ln is NOT bit-stable across libms — so this operator implements the
LOG-FREE RATIONAL-IDF BM25 variant as its spec (the rule itself, not the
textbook formula, is what both engines implement — the
dedup.semantic_dedup_int8 precedent):

    ridf(t) = (N - df_t + 0.5) / (df_t + 0.5)      [= exp(idf), monotone]
    sat(t,d) = tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl)),  k1=1.2 b=0.75
    score(d) = sum_t floor(ridf * sat * 1e6)        [int64 micro-units]

With k1 = 6/5 and b = 3/4 fixed, sat clears to the integer-operand
double expression (44 tf L) / (20 tf L + 6 L + 18 dl N), L = total
corpus words, N = docs. Every per-(doc, term) score is ONE double
expression over exact-integer operands, evaluated in the same
association order on both sides — bit-identical by IEEE determinism —
then SUMMED as int64 (order-free). Word split = the corpus-wide
convention (lowercase, whitespace split, empties dropped). Split-parity
caveat (shared by every text oracle in this repo): the engine splits on
Python's full whitespace set while the SQL twins split on
[ \t\n\r\x0b\x0c] — texts containing exotic separators (\x1c-\x1f,
\x85, \xa0, Unicode spaces) tokenize differently on the two sides.
ASCII corpora with standard whitespace (every fixture here) are exact.

Scale shape: ONE tokenize pass materializes a skinny per-doc stats
dataset (doc key, dl, one tf column per query term — ~8(m+2) B/doc);
global N / L / df fold through Dataset.sum() (driver holds m+2 ints);
scoring + per-block partial top-k stream over the skinny dataset, the
driver sees only O(blocks x top) candidate rows. The text column is
read exactly once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from duckdb_raquet_ray import util
from duckdb_raquet_ray.functions import detmix
from duckdb_raquet_ray.functions import words as _wk
from duckdb_raquet_ray.state import bucket_index

_WS = r"[ \t\n\r\x0b\x0c]+"


def _lower(s: str) -> str:
    """Arrow simple-case-mapping lowercase — the SAME mapping the
    document side uses (functions/words.split_ws(lower=True)) and the
    SAME mapping DuckDB's lower() applies in every oracle. Python's
    str.lower() is the FULL mapping ('İ' grows a combining dot), so
    lowering query terms with it would make them unmatchable against
    Arrow-lowered corpus words."""
    return pc.utf8_lower(pa.scalar(s, pa.string())).as_py()


def _term_stats(
    ds: rd.Dataset, terms: list[str], text_col: str, key_col: str
) -> rd.Dataset:
    """One streaming tokenize pass -> (key, dl, tf_0..tf_{m-1})."""
    tset = [_lower(t) for t in terms]

    def stats(batch: pa.Table) -> pa.Table:
        lens, flat = _wk.split_ws(batch.column(text_col), lower=True)
        cols = {key_col: batch.column(key_col), "dl": pa.array(lens)}
        n = len(lens)
        if int(lens.sum()) == 0:
            for i in range(len(tset)):
                cols[f"tf{i}"] = pa.array(np.zeros(n, np.int64))
            return pa.table(cols)
        doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
        # one index_in over the flat word array against the m query terms
        hit = pc.index_in(
            flat, value_set=pa.array(tset, pa.string())
        ).to_numpy(zero_copy_only=False)
        for i in range(len(tset)):
            m = hit == i
            cols[f"tf{i}"] = pa.array(
                np.bincount(doc_of[m], minlength=n).astype(np.int64)
            )
        return pa.table(cols)

    return ds.map_batches(stats, batch_format="pyarrow")


def bm25_topk(
    ds: rd.Dataset,
    terms: list[str],
    *,
    top: int = 10,
    text_col: str = "text",
    key_col: str = "doc_id",
) -> pa.Table:
    """Rational-idf BM25 top-`top` -> (key_col, score_micro, rank).

    Rank is 1-based by (score desc, key asc); docs matching no term never
    rank (score 0 rows are dropped, mirroring the oracle's join shape)."""
    if not terms:
        raise ValueError("terms must be non-empty")
    ds = util.clean_dataset(ds).select_columns([key_col, text_col])
    stats = _term_stats(ds, terms, text_col, key_col).materialize()
    m = len(terms)
    sums = stats.sum(["dl"] + [f"tf{i}" for i in range(m)], ignore_nulls=True)
    # Dataset.sum returns None on an empty dataset
    big_l = int(sums["sum(dl)"] or 0) if sums else 0
    n_docs = stats.count()
    if big_l == 0 or n_docs == 0:
        # guard BEFORE the df fold: the fold's Dataset.sum also returns
        # None on an empty corpus and would TypeError below. An empty
        # materialized dataset can be schemaless -> fall back to the input
        try:
            key_type = stats.schema().base_schema.field(key_col).type
        except Exception:
            try:
                key_type = ds.schema().base_schema.field(key_col).type
            except Exception:
                key_type = pa.int64()
        return pa.table(
            {
                key_col: pa.array([], key_type),
                "score_micro": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            }
        )

    def df_partial(b: pa.Table) -> pa.Table:
        cols = {}
        for i in range(m):
            tf = b.column(f"tf{i}").to_numpy(zero_copy_only=False)
            cols[f"df{i}"] = pa.array([int((tf > 0).sum())], pa.int64())
        return pa.table(cols)

    dfs_fold = stats.map_batches(df_partial, batch_format="pyarrow").sum(
        [f"df{i}" for i in range(m)]
    )
    if m == 1:  # Dataset.sum over ONE column returns the bare scalar
        dfs_fold = {"sum(df0)": dfs_fold}
    dfs = np.array([int(dfs_fold[f"sum(df{i})"] or 0) for i in range(m)], np.float64)

    nd = float(n_docs)
    ll = float(big_l)
    # ridf per term: ((2N - 2df) + 1) / (2df + 1) — association order is
    # part of the spec (must match the SQL expression token-for-token)
    ridf = (2.0 * nd - 2.0 * dfs + 1.0) / (2.0 * dfs + 1.0)

    def score(batch: pa.Table) -> pa.Table:
        dl = batch.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
        total = np.zeros(len(dl), np.int64)
        for i in range(m):
            tf = batch.column(f"tf{i}").to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            sat = (44.0 * tf * ll) / (20.0 * tf * ll + 6.0 * ll + 18.0 * dl * nd)
            total += np.floor(ridf[i] * sat * 1000000.0).astype(np.int64)
        keep = total > 0
        kn = batch.column(key_col).to_numpy(zero_copy_only=False)[keep]
        sc = total[keep]
        take = min(top, len(sc))
        idx = np.lexsort((kn, -sc))[:take] if take else np.array([], dtype=int)
        return pa.table(
            {
                key_col: pa.array(kn[idx]),
                "score_micro": pa.array(sc[idx]),
            }
        )

    cands = pa.Table.from_pylist(
        stats.map_batches(score, batch_format="pyarrow", batch_size=65536).take_all()
    )
    if cands.num_rows == 0:
        key_type = stats.schema().base_schema.field(key_col).type
        return pa.table(
            {
                key_col: pa.array([], key_type),
                "score_micro": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            }
        )
    t = cands.sort_by(
        [("score_micro", "descending"), (key_col, "ascending")]
    ).slice(0, top)
    return t.append_column(
        "rank", pa.array(np.arange(1, t.num_rows + 1), type=pa.int64())
    )


def bm25_oracle_sql(
    table: str = "documents",
    *,
    terms: list[str],
    top: int = 10,
    text_col: str = "text",
    key_col: str = "doc_id",
) -> str:
    """DuckDB replica of bm25_topk: same word split, same rational-idf
    spec, the per-(doc, term) double expression written in the SAME
    association order so floor() lands identically."""
    tlits = ", ".join("'" + _lower(t).replace("'", "''") + "'" for t in terms)
    return f"""
WITH wl AS (
  SELECT {key_col} AS k,
    list_filter(regexp_split_to_array(lower({text_col}), '{_WS}'), x -> x <> '') AS wl
  FROM {table}
),
dl AS (SELECT k, len(wl)::BIGINT AS dl FROM wl),
w AS (SELECT k, unnest(wl) AS word FROM wl),
tf AS (
  SELECT k, word, count(*)::BIGINT AS tf FROM w
  WHERE word IN ({tlits}) GROUP BY k, word
),
g AS (SELECT count(*)::BIGINT AS n, sum(dl)::BIGINT AS l FROM dl),
df AS (SELECT word, count(*)::BIGINT AS df FROM tf GROUP BY word),
sc AS (
  SELECT tf.k,
    sum(CAST(floor(
      ((2.0 * g.n - 2.0 * df.df + 1.0) / (2.0 * df.df + 1.0))
      * ((44.0 * tf.tf * g.l)
         / (20.0 * tf.tf * g.l + 6.0 * g.l + 18.0 * dl.dl * g.n))
      * 1000000.0) AS BIGINT))::BIGINT AS score_micro
  FROM tf JOIN dl ON dl.k = tf.k CROSS JOIN g JOIN df ON df.word = tf.word
  GROUP BY tf.k
)
SELECT k AS {key_col}, score_micro,
  CAST(row_number() OVER (ORDER BY score_micro DESC, k) AS BIGINT) AS rank
FROM sc WHERE score_micro > 0
ORDER BY score_micro DESC, k LIMIT {int(top)}
"""


# ---------------------------------------------------------------------------
# persisted inverted index (the BM25 scale path: build once, probe by term —
# the ann.build_ivf_index / dedup.build_content_index discipline applied to
# lexical retrieval; a query opens ONLY the postings buckets its terms hash
# into, never re-tokenizing the corpus)
# ---------------------------------------------------------------------------

TEXT_INDEX_BUCKETS = 64


def _term_bucket(terms) -> np.ndarray:
    # NOTE: detmix/words are imported at module top — a lazy
    # package-internal import here breaks cloudpickled-by-value workers
    # (no package on their sys.path). Accepts an Arrow string array
    # (hashed on its own buffers) or a numpy object array.
    if isinstance(terms, (pa.Array, pa.ChunkedArray)):
        h = _wk.hash_string_array(terms)
    else:
        h = detmix.string_hash64(np.asarray(terms, dtype=object))
    return (h % np.uint64(TEXT_INDEX_BUCKETS)).astype(np.int32)


def _require_int_keys(ds: rd.Dataset, key_col: str) -> None:
    kt = ds.schema().base_schema.field(key_col).type
    if not pa.types.is_integer(kt):
        # the query paths fold postings through int64 numpy (np.concatenate
        # + astype) and type their empty results int64 — enforce the
        # contract at BUILD time instead of crashing at query time
        raise ValueError(
            f"{key_col} must be an integer column for the persisted index "
            f"(got {kt}); map string keys to ids first"
        )


def _postings(ds: rd.Dataset, text_col: str, key_col: str) -> rd.Dataset:
    """One tokenize pass -> postings rows (term, doc, tf, dl, tb): one
    row per (doc, distinct word), carrying the doc's word count so a
    query scores from its terms' postings alone."""

    def explode(batch: pa.Table) -> pa.Table:
        lens, flat = _wk.split_ws(batch.column(text_col), lower=True)
        keys = batch.column(key_col)
        if int(lens.sum()) == 0:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "doc": keys.slice(0, 0),
                    "tf": pa.array([], pa.int64()),
                    "dl": pa.array([], pa.int64()),
                    "tb": pa.array([], pa.int32()),
                }
            )
        doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        # per-(doc, word) counts: dictionary-encode words (C factorize),
        # lexsort, run lengths — no pandas object pass
        de = flat.dictionary_encode()
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((codes, doc_of))
        ds_, cs_ = doc_of[order], codes[order]
        new = np.r_[True, (ds_[1:] != ds_[:-1]) | (cs_[1:] != cs_[:-1])]
        run_id = np.cumsum(new) - 1
        tf = np.bincount(run_id)
        d_idx = ds_[new]
        w_idx = cs_[new]
        terms = de.dictionary.take(pa.array(w_idx))
        return pa.table(
            {
                "term": terms,
                "doc": keys.take(pa.array(d_idx)),
                "tf": pa.array(tf.astype(np.int64)),
                "dl": pa.array(np.asarray(lens, np.int64)[d_idx]),
                "tb": pa.array(_term_bucket(terms)),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def _corpus_counts(ds: rd.Dataset, text_col: str) -> dict:
    """{n_docs, total_words} of `ds` — BM25's N and L (docs without
    words count toward N but write no postings)."""

    def counts(batch: pa.Table) -> pa.Table:
        lens, _ = _wk.split_ws(batch.column(text_col), lower=True)
        return pa.table({"n": [len(lens)], "words": [int(lens.sum())]})

    sums = ds.map_batches(counts, batch_format="pyarrow").sum(["n", "words"])
    return {
        "n_docs": int((sums or {}).get("sum(n)") or 0),
        "total_words": int((sums or {}).get("sum(words)") or 0),
    }


def _text_index_meta(index_dir: str) -> dict:
    """The build meta with N and L folded over every completed append —
    so they count each append exactly once, whatever was killed and
    retried on the way."""
    meta = bucket_index.meta(index_dir)
    for rec in meta.pop("appends").values():
        meta["n_docs"] += rec["n_docs"]
        meta["total_words"] += rec["total_words"]
    return meta


def build_text_index(
    ds: rd.Dataset,
    index_dir: str,
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
) -> dict:
    """Persist the corpus as a lexical index: a bucket index
    (state/bucket_index.py) of postings (term, doc, tf, dl) hive-bucketed
    by term hash under ``tb=<b>/``, with N docs and L total words in its
    marker. Postings rows are per-(doc, distinct word) — the standard
    inverted-file bound. Returns the meta dict."""
    _require_int_keys(ds, key_col)
    ds = util.clean_dataset(ds).select_columns([key_col, text_col])
    meta = {
        **_corpus_counts(ds, text_col),
        "n_buckets": TEXT_INDEX_BUCKETS,
        "text_col": text_col,
        "key_col": key_col,
    }
    bucket_index.build(_postings(ds, text_col, key_col), index_dir, "tb", meta)
    return meta


def bm25_topk_indexed(
    index_dir: str,
    terms: list[str],
    *,
    top: int = 10,
) -> pa.Table:
    """BM25 top-k off the persisted index — byte-identical results to
    :func:`bm25_topk` on the indexed corpus (same rational-idf spec, df/L/N
    from the index), but the query opens ONLY the postings buckets its
    terms hash into (O(matching docs) bytes) and scores from those
    postings alone (each row carries its doc's length).

    Driver bound: the query terms' postings (docs containing a query
    term) — the standard inverted-file working set."""
    if not terms:
        raise ValueError("terms must be non-empty")
    meta = _text_index_meta(index_dir)
    key_col = meta["key_col"]
    tset = [_lower(t) for t in terms]
    nd = float(meta["n_docs"])
    ll = float(meta["total_words"])

    empty = pa.table(
        {
            key_col: pa.array([], pa.int64()),
            "score_micro": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
        }
    )
    if ll == 0 or nd == 0:
        return empty

    # open only the probed buckets, keep only exact term matches
    value_set = pa.array(tset, pa.string())
    buckets = sorted(set(int(x) for x in _term_bucket(np.array(tset, object))))
    post = [
        t.filter(pc.is_in(t.column("term"), value_set=value_set))
        for t in (
            pq.read_table(f, columns=["term", "doc", "tf", "dl"])
            for f in bucket_index.bucket_files(index_dir, buckets)
        )
    ]
    pt = pa.concat_tables(post).combine_chunks() if post else None
    if pt is None or pt.num_rows == 0:
        return empty
    # index_in resolves a repeated query term to its FIRST slot, so a
    # duplicate term scores once (as in bm25_topk)
    term_idx = pc.index_in(pt.column("term"), value_set=value_set).to_numpy(
        zero_copy_only=False
    )
    docs, inv = np.unique(pt.column("doc").to_numpy(zero_copy_only=False), return_inverse=True)
    tf = pt.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
    dl = pt.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
    total = np.zeros(len(docs), np.int64)
    for i in range(len(tset)):
        sel = term_idx == i
        df = float(sel.sum())
        ridf = (2.0 * nd - 2.0 * df + 1.0) / (2.0 * df + 1.0)
        sat = (44.0 * tf[sel] * ll) / (20.0 * tf[sel] * ll + 6.0 * ll + 18.0 * dl[sel] * nd)
        np.add.at(total, inv[sel], np.floor(ridf * sat * 1000000.0).astype(np.int64))
    keep = total > 0
    kk, sc = docs[keep], total[keep]
    idx = np.lexsort((kk, -sc))[:top]
    if not len(idx):
        return empty
    return pa.table(
        {
            key_col: pa.array(kk[idx]),
            "score_micro": pa.array(sc[idx]),
            "rank": pa.array(np.arange(1, len(idx) + 1), type=pa.int64()),
        }
    )


def append_text_index(
    ds_new: rd.Dataset,
    index_dir: str,
    *,
    text_col: str | None = None,
    key_col: str | None = None,
) -> dict:
    """Grow a persisted text index with NEW documents — the incremental
    ingestion story: new postings files land INSIDE the existing hive
    buckets as one bucket-index append, whose marker carries the new
    docs' N / L. Existing files are never rewritten or re-read; cost is
    O(new docs). The append id is a digest of the new docs' (key, text)
    rows, so re-running a completed append is a no-op and retrying a
    killed one converges to the uninterrupted result. Returns the folded
    meta.

    The caller owns key uniqueness across appends (duplicate keys would
    double-count postings — the same contract as encode.append_job)."""
    meta = bucket_index.meta(index_dir)
    if meta["n_buckets"] != TEXT_INDEX_BUCKETS:
        raise ValueError(
            f"index was built with {meta['n_buckets']} buckets, "
            f"this build ships {TEXT_INDEX_BUCKETS}"
        )
    text_col = text_col or meta["text_col"]
    key_col = key_col or meta["key_col"]
    ds = util.clean_dataset(ds_new).select_columns([key_col, text_col])
    append_id = util.row_digest(ds, [key_col, text_col])
    if append_id not in meta["appends"]:
        bucket_index.append(
            _postings(ds, text_col, key_col), index_dir, append_id,
            _corpus_counts(ds, text_col),
        )
    return _text_index_meta(index_dir)


# ---------------------------------------------------------------------------
# hybrid retrieval: reciprocal-rank fusion of a lexical (BM25) and a
# vector (cosine top-k) candidate list — the standard hybrid-search
# combiner (Cormack et al. 2009). Integer-exact by spec: the fused score
# is sum over lists of scale // (rrf_k + rank) (floor division), so the
# SQL twin replicates it with DuckDB's integer //.
# ---------------------------------------------------------------------------


def rrf_fuse(
    lex: pa.Table,
    vec: pa.Table,
    *,
    k: int = 10,
    rrf_k: int = 60,
    scale: int = 1_000_000,
    lex_key: str = "doc_id",
    vec_key: str = "vec_id",
) -> pa.Table:
    """Fuse two ranked candidate tables (each carrying 1-based `rank`)
    into (doc_id, rrf_micro, lex_rank, vec_rank), top-k by
    (rrf_micro desc, key asc); a list the key is absent from contributes
    0 and reports rank 0. Driver-side on two k-sized tables — the
    corpus-scale work happened in the two retrievers."""
    lk = lex.column(lex_key).to_numpy(zero_copy_only=False)
    lr = lex.column("rank").to_numpy(zero_copy_only=False)
    vk = vec.column(vec_key).to_numpy(zero_copy_only=False)
    vr = vec.column("rank").to_numpy(zero_copy_only=False)
    lex_of = dict(zip(lk.tolist(), lr.tolist()))
    vec_of = dict(zip(vk.tolist(), vr.tolist()))
    keys = sorted(set(lex_of) | set(vec_of))
    lrank = np.array([lex_of.get(x, 0) for x in keys], np.int64)
    vrank = np.array([vec_of.get(x, 0) for x in keys], np.int64)
    score = np.where(lrank > 0, scale // (rrf_k + lrank), 0) + np.where(
        vrank > 0, scale // (rrf_k + vrank), 0
    )
    karr = np.asarray(keys)
    order = np.lexsort((karr, -score))[: min(k, len(keys))]
    return pa.table(
        {
            "doc_id": pa.array(karr[order]),
            "rrf_micro": pa.array(score[order]),
            "lex_rank": pa.array(lrank[order]),
            "vec_rank": pa.array(vrank[order]),
        }
    )


def rrf_oracle_sql(
    lex_sql: str,
    vec_sql: str,
    *,
    k: int = 10,
    rrf_k: int = 60,
    scale: int = 1_000_000,
    lex_key: str = "doc_id",
    vec_key: str = "vec_id",
) -> str:
    """DuckDB replica of rrf_fuse: FULL OUTER join of the two ranked
    subqueries (each must expose a 1-based `rank`), identical integer
    floor-division scoring, (score desc, key asc) LIMIT k."""
    return f"""
WITH lex AS ({lex_sql}), vec AS ({vec_sql}),
fused AS (
  SELECT coalesce(lex.{lex_key}, vec.{vec_key}) AS doc_id,
    (CASE WHEN lex.rank IS NULL THEN 0 ELSE {scale} // ({rrf_k} + lex.rank) END
     + CASE WHEN vec.rank IS NULL THEN 0 ELSE {scale} // ({rrf_k} + vec.rank) END
    )::BIGINT AS rrf_micro,
    coalesce(lex.rank, 0)::BIGINT AS lex_rank,
    coalesce(vec.rank, 0)::BIGINT AS vec_rank
  FROM lex FULL OUTER JOIN vec ON vec.{vec_key} = lex.{lex_key}
)
SELECT * FROM fused ORDER BY rrf_micro DESC, doc_id LIMIT {int(k)}
"""


# ---------------------------------------------------------------------------
# exact phrase search (the retrieval feature BM25's bag-of-words misses:
# "new york times" as a SEQUENCE) — a streaming direct path with a full SQL
# oracle, plus a positional-index path that opens only the phrase terms'
# hive buckets and must agree with the direct path exactly
# ---------------------------------------------------------------------------


def phrase_count(
    ds: rd.Dataset,
    phrase: list[str],
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
) -> rd.Dataset:
    """Per-doc count of exact word-sequence occurrences (corpus word
    convention: lowercase, whitespace split) -> (key, n_phrase). One
    streaming vectorized pass: words explode to a flat array with doc
    ids; an m-word match at flat position i is the AND of m shifted
    equality masks plus a same-doc span check — no per-doc Python."""
    if not phrase:
        raise ValueError("empty phrase")
    pw = [_lower(w) for w in phrase]
    return util.clean_dataset(ds).map_batches(
        lambda b: phrase_count_batch(b, pw, text_col=text_col, key_col=key_col),
        batch_format="pyarrow",
    )


def phrase_count_batch(
    batch: pa.Table,
    phrase: list[str],
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
) -> pa.Table:
    """The per-batch phrase kernel (module-level so property tests can
    drive it without a Ray session)."""
    m = len(phrase)
    batch = util.strip_schema_metadata(batch)
    lens, flat = _wk.split_ws(batch.column(text_col), lower=True)
    keys = batch.column(key_col)
    n_docs = len(lens)
    out = np.zeros(n_docs, np.int64)
    total = int(lens.sum())
    if total >= m:
        # exact (collision-free) word equality: one index_in of the flat
        # word array against the DISTINCT phrase terms, then
        # shifted-slice comparisons on the small int codes. index_in
        # resolves duplicates in value_set to the FIRST index, so a
        # repeated phrase word must compare against its first
        # occurrence's code (code_of), and absent words fill to -1
        # (never a valid code).
        uniq = list(dict.fromkeys(phrase))
        code_of = [uniq.index(w) for w in phrase]
        codes = pc.fill_null(
            pc.index_in(flat, value_set=pa.array(uniq, pa.string())), -1
        ).to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
        match = codes[: total - m + 1] == code_of[0]
        for j in range(1, m):
            match &= codes[j : total - m + 1 + j] == code_of[j]
        match &= doc_of[: total - m + 1] == doc_of[m - 1 :]
        if match.any():
            out = np.bincount(
                doc_of[: total - m + 1][match], minlength=n_docs
            ).astype(np.int64)
    return pa.table({key_col: keys, "n_phrase": pa.array(out)})


def phrase_oracle_sql(
    table: str = "documents",
    *,
    phrase: list[str],
    text_col: str = "text",
    key_col: str = "doc_id",
) -> str:
    """DuckDB replica of phrase_count: same word split, list_filter over
    start positions with per-offset word equality."""
    pw = [_lower(w).replace("'", "''") for w in phrase]
    m = len(pw)
    conds = " AND ".join(f"wl[i + {j}] = '{pw[j]}'" for j in range(m))
    return f"""
WITH w AS (
  SELECT {key_col} AS k,
    list_filter(regexp_split_to_array(lower(coalesce({text_col}, '')), '{_WS}'),
                x -> x <> '') AS wl
  FROM {table}
)
SELECT k AS {key_col},
  CASE WHEN len(wl) >= {m} THEN
    len(list_filter(generate_series(1, len(wl) - {m - 1}), i -> {conds}))
  ELSE 0 END::BIGINT AS n_phrase
FROM w"""


def build_positional_index(
    ds: rd.Dataset,
    index_dir: str,
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
) -> int:
    """Persist positional postings (term, doc, pos) as a bucket index
    hive-bucketed by term hash under ``tb=<b>/`` — the phrase-search sibling of
    build_text_index's tf postings (positions cost one row per word
    OCCURRENCE, not per distinct word: the standard positional-index
    bound). A phrase query opens only its terms' buckets. Returns the
    indexed position-row count."""
    _require_int_keys(ds, key_col)
    ds = util.clean_dataset(ds).select_columns([key_col, text_col])

    def explode(batch: pa.Table) -> pa.Table:
        lens, flat = _wk.split_ws(batch.column(text_col), lower=True)
        keys = batch.column(key_col)
        total = int(lens.sum())
        if total == 0:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "doc": keys.slice(0, 0),
                    "pos": pa.array([], pa.int64()),
                    "tb": pa.array([], pa.int32()),
                }
            )
        doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        offsets = np.zeros(len(lens) + 1, np.int64)
        np.cumsum(lens, out=offsets[1:])
        pos = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], lens)
        return pa.table(
            {
                "term": flat,
                "doc": keys.take(pa.array(doc_of)),
                "pos": pa.array(pos),
                "tb": pa.array(_term_bucket(flat)),
            }
        )

    return bucket_index.build(
        ds.map_batches(explode, batch_format="pyarrow"), index_dir, "tb"
    )


def phrase_search_indexed(
    index_dir: str,
    phrase: list[str],
    *,
    key_col: str = "doc_id",
) -> pa.Table:
    """Exact phrase counts off the positional index -> (key, n_phrase),
    matching docs only, EQUAL to phrase_count's nonzero rows on the
    indexed corpus (pinned by test). Opens only the phrase terms'
    buckets; the m-term intersection walks (doc, pos) pairs with
    searchsorted — candidate set shrinks at every step.

    Driver bound (stated): the phrase terms' postings live on the
    driver — O(occurrences of the rarest-first intersection), the same
    bound as bm25_topk_indexed's query-term postings."""
    if not phrase:
        raise ValueError("empty phrase")
    pw = [_lower(w) for w in phrase]

    def term_postings(term: str) -> tuple[np.ndarray, np.ndarray]:
        b = int(_term_bucket(np.asarray([term], dtype=object))[0])
        docs, poss = [], []
        for f in bucket_index.bucket_files(index_dir, [b]):
            t = pq.read_table(f, columns=["term", "doc", "pos"])
            mask = pc.equal(t.column("term"), term)
            sub = t.filter(mask)
            docs.append(sub.column("doc").to_numpy(zero_copy_only=False))
            poss.append(sub.column("pos").to_numpy(zero_copy_only=False))
        if not docs:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        return (
            np.concatenate(docs).astype(np.int64),
            np.concatenate(poss).astype(np.int64),
        )

    # current match set: (doc, pos of the phrase START)
    d, p = term_postings(pw[0])
    for j in range(1, len(pw)):
        if len(d) == 0:
            break
        dj, pj = term_postings(pw[j])
        if len(dj) == 0:
            d = d[:0]
            break
        # membership of (d, p + j) in (dj, pj), fully vectorized:
        # factorize the next term's docs to dense codes, fuse (code, pos)
        # into one int64 key, one sorted searchsorted — no Python loop
        # over candidates (the first term may be a stopword with millions
        # of occurrences)
        uniq = np.unique(dj)
        code_j = np.searchsorted(uniq, dj)
        cand_code = np.searchsorted(uniq, d)
        present = (cand_code < len(uniq)) & (
            uniq[np.minimum(cand_code, len(uniq) - 1)] == d
        )
        stride = np.int64(max(int(pj.max()), int(p.max()) + j) + 1)
        if (len(uniq) + 1) * int(stride) >= 1 << 62:  # fused-key headroom
            raise RuntimeError(
                "phrase_search_indexed: doc-count x max-position exceeds "
                "the fused int64 key range — shard the query"
            )
        key_j = np.sort(code_j * stride + pj)
        want = cand_code * stride + (p + j)
        qpos = np.searchsorted(key_j, want)
        keep = present & (qpos < len(key_j))
        keep[keep] = key_j[qpos[keep]] == want[keep]
        d, p = d[keep], p[keep]
    if len(d) == 0:
        return pa.table(
            {key_col: pa.array([], pa.int64()), "n_phrase": pa.array([], pa.int64())}
        )
    uniq, cnt = np.unique(d, return_counts=True)
    return pa.table(
        {key_col: pa.array(uniq), "n_phrase": pa.array(cnt.astype(np.int64))}
    )


def bm25_multi(
    ds: rd.Dataset,
    queries: dict[str, list[str]],
    *,
    top: int = 10,
    text_col: str = "text",
    key_col: str = "doc_id",
) -> pa.Table:
    """Batch BM25: score EVERY query in one corpus pass ->
    (qid, key_col, score_micro, rank). The production retrieval shape —
    a query batch shares the tokenize pass, the (dl, tf) skinny table
    and the global folds; per-query scoring then runs over the skinny
    stats, never re-reading text. Per-(query, doc) scores are identical
    to bm25_topk's (same expression, same dfs), pinned by test.

    Driver state: O(queries x blocks x top) candidate rows."""
    if not queries or any(not ts for ts in queries.values()):
        raise ValueError("queries must be a non-empty dict of non-empty term lists")
    all_terms = sorted({_lower(t) for ts in queries.values() for t in ts})
    t_idx = {t: i for i, t in enumerate(all_terms)}
    # dict.fromkeys: collapse duplicate (and case-duplicate) terms within a
    # query — bm25_topk and the IN-list SQL oracle count a term ONCE; the
    # raw list would double-add its score
    q_terms = {
        q: list(dict.fromkeys(t_idx[_lower(t)] for t in ts))
        for q, ts in queries.items()
    }

    ds = util.clean_dataset(ds).select_columns([key_col, text_col])
    stats = _term_stats(ds, all_terms, text_col, key_col).materialize()
    m = len(all_terms)
    sums = stats.sum(["dl"] + [f"tf{i}" for i in range(m)], ignore_nulls=True)
    big_l = int(sums["sum(dl)"] or 0) if sums else 0
    n_docs = stats.count()

    def df_partial(b: pa.Table) -> pa.Table:
        cols = {}
        for i in range(m):
            tf = b.column(f"tf{i}").to_numpy(zero_copy_only=False)
            cols[f"df{i}"] = pa.array([int((tf > 0).sum())], pa.int64())
        return pa.table(cols)

    empty = pa.table(
        {
            "qid": pa.array([], pa.string()),
            key_col: pa.array([], pa.int64()),
            "score_micro": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
        }
    )
    if big_l == 0 or n_docs == 0:
        return empty
    dfs_fold = stats.map_batches(df_partial, batch_format="pyarrow").sum(
        [f"df{i}" for i in range(m)]
    )
    if m == 1:
        dfs_fold = {"sum(df0)": dfs_fold}
    dfs = np.array([int(dfs_fold[f"sum(df{i})"] or 0) for i in range(m)], np.float64)
    nd, ll = float(n_docs), float(big_l)
    ridf = (2.0 * nd - 2.0 * dfs + 1.0) / (2.0 * dfs + 1.0)
    qids = sorted(q_terms)

    def score(batch: pa.Table) -> pa.Table:
        dl = batch.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
        kn = batch.column(key_col).to_numpy(zero_copy_only=False)
        sat = {}
        out_q, out_k, out_s = [], [], []
        for q in qids:
            total = np.zeros(len(dl), np.int64)
            for i in q_terms[q]:
                s = sat.get(i)
                if s is None:
                    tf = batch.column(f"tf{i}").to_numpy(
                        zero_copy_only=False
                    ).astype(np.float64)
                    s = np.floor(
                        ridf[i]
                        * ((44.0 * tf * ll)
                           / (20.0 * tf * ll + 6.0 * ll + 18.0 * dl * nd))
                        * 1000000.0
                    ).astype(np.int64)
                    sat[i] = s
                total += s
            keep = total > 0
            sck, sc = kn[keep], total[keep]
            take = min(top, len(sc))
            idx = np.lexsort((sck, -sc))[:take] if take else np.array([], int)
            out_q.extend([q] * take)
            out_k.append(sck[idx])
            out_s.append(sc[idx])
        return pa.table(
            {
                "qid": pa.array(out_q, pa.string()),
                key_col: pa.array(
                    np.concatenate(out_k) if out_k else np.zeros(0, np.int64)
                ),
                "score_micro": pa.array(
                    np.concatenate(out_s) if out_s else np.zeros(0, np.int64)
                ),
            }
        )

    cands = pa.Table.from_pylist(
        stats.map_batches(score, batch_format="pyarrow", batch_size=65536).take_all()
    )
    if cands.num_rows == 0:
        return empty
    df = cands.to_pandas().sort_values(
        ["qid", "score_micro", key_col], ascending=[True, False, True]
    )
    df = df.groupby("qid", sort=True).head(top)
    df["rank"] = df.groupby("qid", sort=False).cumcount() + 1
    return pa.table(
        {
            "qid": pa.array(df["qid"], pa.string()),
            key_col: pa.array(df[key_col].to_numpy()),
            "score_micro": pa.array(df["score_micro"].to_numpy(np.int64)),
            "rank": pa.array(df["rank"].to_numpy(np.int64)),
        }
    )


def bm25_multi_oracle_sql(
    table: str = "documents",
    *,
    queries: dict[str, list[str]],
    top: int = 10,
    text_col: str = "text",
    key_col: str = "doc_id",
) -> str:
    """DuckDB replica of bm25_multi: the per-query oracle UNION ALLed
    with a qid literal (scores identical by the shared expression)."""
    parts = [
        f"SELECT '{q}' AS qid, * FROM ("
        + bm25_oracle_sql(
            table, terms=queries[q], top=top, text_col=text_col, key_col=key_col
        )
        + ")"
        for q in sorted(queries)
    ]
    return " UNION ALL ".join(parts)
