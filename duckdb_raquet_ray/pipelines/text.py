"""Text analysis stages: language-ID, quality metrics, token counting,
document fingerprinting — vectorized per-batch map stages over the
documents table (training-data-pipeline first-class ops; no reference
analogue, SURVEY.md §2.7/§2.8 note the gap).

Compiled regexes and stopword tables are per-actor state
(`map_batches(TextAnalyzer, concurrency=N)`): built once in __init__,
the reference's lazily-initialized thread-local pattern
(/root/reference/src/read_raster.cpp:264-286).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import util
from ..functions import detmix as _detmix
from ..functions import words as _words
from . import dedup as _ddp
from .dedup import _shingle_hashes_ordered

# small per-language stopword tables for the n-gram/stopword heuristic
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "zu", "auf"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "des", "pas", "pour"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una", "que", "por"},
}

# GPT-2-ish BPE pre-tokenizer pattern (public regex from the GPT-2 paper's
# released tokenizer), simplified to ASCII classes. Python sre, not RE2:
# the `\s+(?!\S)` lookahead is not RE2-expressible AND is load-bearing
# for the match COUNT (a run like ' \t' splits into two sre matches where
# a plain `\s+` union yields one — verified by enumeration), so this is
# the one deliberate sre pass left in the analyzer; the ws/punct/digit/
# upper counters run as RE2 class counts in token_count_batch /
# quality_metrics_batch.
_BPE_RE = re.compile(r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+(?!\S)|\s+")


class TextAnalyzer:
    """Actor-pool stage computing all text-analysis columns in one pass."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.bpe = _BPE_RE
        # per-language SORTED stopword hash tables: a stopword hit is
        # EXACTLY equality against an element of text.lower().split()
        # (the oracle's IN-list filter over regexp_split_to_array), so
        # counting runs as one shared split+hash pass (functions/words,
        # Arrow C kernels) plus a searchsorted membership probe per
        # language — no Python-regex pass per language per doc. 64-bit
        # hash equality stands in for string equality (the house
        # hash-identity rule; collision odds ~1e-19 per word).
        self.langs = sorted(_STOPWORDS)
        self.stop_hashes = {
            lang: np.sort(
                _detmix.string_hash64(np.array(sorted(ws), dtype=object))
            )
            for lang, ws in _STOPWORDS.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        # counter columns come from the SAME standalone stage functions the
        # SQL oracles check — one implementation, no drift; the filled
        # Arrow text array is computed ONCE and shared across the Arrow
        # passes, the pandas series only feeds the two kernels that
        # genuinely need Python sre / siphash (bpe lookahead regex,
        # content fingerprint)
        batch = util.strip_schema_metadata(batch)  # pandas-written parquet input
        col = batch.column(self.text_col)
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        filled = pc.fill_null(arr, "")
        out = token_count_batch(batch, self.text_col, _arr=filled)
        out = quality_metrics_batch(out, self.text_col, _arr=filled)
        s = filled.to_pandas()
        bpe_tokens = pa.array(s.str.count(self.bpe).to_numpy(np.int64))
        langs, stop_ratio = self._langid(filled)
        fp = fingerprint_series(s)
        for name, arr_ in (
            ("bpe_tokens", bpe_tokens),
            ("lang_pred", pa.array(langs)),
            ("stop_ratio", pa.array(stop_ratio, type=pa.float64())),
            ("fingerprint", pa.array(fp.astype(np.int64))),
        ):
            out = out.append_column(name, arr_)
        return out

    def _langid(self, arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
        """Stopword-hit language ID: one shared split+hash pass, then a
        sorted-table membership probe + bincount per language. Ties
        break to the first language in sorted order (argmax returns the
        first maximum), the same rule as the regex counter it replaced."""
        lens, wh = _words.split_ws_hashes(arr)
        n_docs = len(lens)
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
        hits = np.zeros((len(self.langs), n_docs), np.int64)
        if len(wh):
            for i, lang in enumerate(self.langs):
                sh = self.stop_hashes[lang]
                idx = np.searchsorted(sh, wh).clip(max=len(sh) - 1)
                m = sh[idx] == wh
                hits[i] = np.bincount(doc_of[m], minlength=n_docs)
        best_idx = hits.argmax(axis=0)
        best_hits = hits[best_idx, np.arange(n_docs)]
        langs = np.where(
            best_hits > 0, np.array(self.langs, dtype=object)[best_idx], "und"
        )
        ratios = np.divide(
            best_hits, lens, out=np.zeros(n_docs, dtype=np.float64), where=lens > 0
        )
        return langs, ratios


def fingerprint_series(s: pd.Series) -> np.ndarray:
    """Deterministic 64-bit content fingerprint per document — vectorized
    (pandas' stable siphash-based hasher, fixed key, C speed). Pure
    function of the text; stable across runs and machines. For *rolling*
    window fingerprints (winnowing-style) use
    pipelines.dedup._shingle_hashes, the polynomial rolling-hash kernel."""
    return pd.util.hash_pandas_object(s, index=False).to_numpy().astype(np.uint64)


def winnow_fingerprints(
    text: str, k: int = 5, window: int = 4
) -> np.ndarray:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken,
    SIGMOD 2003, public algorithm): the minimum rolling k-gram hash of
    every length-`window` window, deduplicated — the standard local
    fingerprint set whose selection is position-robust. Uses the same
    polynomial rolling-hash kernel as the MinHash shingles (imported at
    module level — a lazy relative import breaks by-value worker shipping)."""
    hashes = _shingle_hashes_ordered(text or "", k)
    n = len(hashes)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    if n <= window:
        return np.unique(hashes.min(keepdims=True))
    windows = np.lib.stride_tricks.sliding_window_view(hashes, window)
    return np.unique(windows.min(axis=1))


def _batch_winnow(
    col: "pa.Array | pa.ChunkedArray", k: int, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Winnowed fingerprints for EVERY doc of a batch in one flattened
    pass -> (counts int64 per doc, flat fps uint64 doc-major, sorted
    ascending within each doc). Bit-identical to per-doc
    `winnow_fingerprints` (pinned by test): one zero-copy UTF-8 stream,
    short docs zero-padded to k in place (the _shingle_hashes_ordered
    pad rule), ONE rolling-hash pass with cross-doc windows masked, one
    C sliding-window min over the whole stream, per-doc dedup via
    lexsort — no per-document Python."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    filled = pc.fill_null(arr, "")
    n_docs = len(filled)
    if n_docs == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.uint64)
    # doc-ordered shingle stream (the shared scaffold with
    # dedup._batch_minhash_sigs — pad rule + cross-doc masking live ONCE)
    h, d, n_sh = _ddp._flat_shingle_stream(filled, k)
    sh_off = np.zeros(n_docs + 1, np.int64)
    np.cumsum(n_sh, out=sh_off[1:])
    # window minima: docs with n_sh <= window take ONE min over all
    # their shingles; longer docs take every width-`window` sliding min
    n_win = np.where(n_sh <= window, 1, n_sh - window + 1)
    short = n_sh <= window
    mins_parts: list[np.ndarray] = []
    docs_parts: list[np.ndarray] = []
    if short.any():
        short_min = np.minimum.reduceat(h, sh_off[:-1])[short]
        mins_parts.append(short_min)
        docs_parts.append(np.flatnonzero(short))
    if (~short).any() and len(h) >= window:
        sw = np.lib.stride_tricks.sliding_window_view(h, window).min(axis=1)
        # a global window at shingle-stream position p is a doc window
        # iff it lies fully inside its doc's shingle run
        p = np.arange(len(sw), dtype=np.int64)
        dd = d[p]
        inside = (p - sh_off[dd] + window) <= n_sh[dd]
        keep = inside & ~short[dd]
        mins_parts.append(sw[keep])
        docs_parts.append(dd[keep])
    mins = np.concatenate(mins_parts) if mins_parts else np.zeros(0, np.uint64)
    docs = np.concatenate(docs_parts) if docs_parts else np.zeros(0, np.int64)
    # per-doc unique, ascending (np.unique parity with the scalar path)
    order = np.lexsort((mins, docs))
    mins, docs = mins[order], docs[order]
    if len(mins):
        keep2 = np.empty(len(mins), dtype=bool)
        keep2[0] = True
        np.logical_or(
            docs[1:] != docs[:-1], mins[1:] != mins[:-1], out=keep2[1:]
        )
        mins, docs = mins[keep2], docs[keep2]
    counts = np.bincount(docs, minlength=n_docs).astype(np.int64)
    return counts, mins


def winnow_batch(
    batch: pa.Table, text_col: str = "text", k: int = 5, window: int = 4
) -> pa.Table:
    """Per-document winnowed fingerprint sets as list<uint64> (stage
    form, the flattened _batch_winnow kernel — no per-doc Python)."""
    batch = util.strip_schema_metadata(batch)
    counts, flat = _batch_winnow(batch.column(text_col), k, window)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    col = pa.LargeListArray.from_arrays(pa.array(offsets), pa.array(flat, type=pa.uint64()))
    return batch.append_column("winnow_fp", col)


def winnow_long_batch(
    batch: pa.Table, text_col: str = "text", k: int = 5, window: int = 4
) -> pa.Table:
    """Winnowed fingerprints in LONG format — one (doc_id, fp) row per
    fingerprint, int64 — the oracle-checkable face of winnow_batch (list
    columns stay rows-only by harness convention; the base-257 mod 2^61-1
    k-gram hash is small enough that every term fits plain BIGINT, so the
    whole selection is replicable in ANSI SQL)."""
    counts, flat = _batch_winnow(batch.column(text_col), k, window)
    doc_ids = pa.array(
        np.repeat(batch.column("doc_id").to_numpy(zero_copy_only=False), counts)
    )
    return pa.table({"doc_id": doc_ids, "fp": pa.array(flat.astype(np.int64))})


def _filled_text(batch: pa.Table, text_col: str) -> pa.Array:
    col = batch.column(text_col)
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return pc.fill_null(arr, "")


def token_count_batch(
    batch: pa.Table, text_col: str = "text", _arr: "pa.Array | None" = None
) -> pa.Table:
    """Whitespace token count only (the cheap, oracle-checkable subset).
    One RE2 `\\S+` count pass (pc.count_substring_regex) — the SAME
    regex engine as the DuckDB oracle's regexp_extract_all, so the
    count is engine-identical by construction. RE2's `\\s` is ASCII
    whitespace only, so NBSP, U+2028 and other Unicode spaces do NOT split
    `ws_tokens`, while `functions/words.split_ws` (stop_ratio, BM25 `dl`)
    splits on Unicode whitespace: the counts differ on such text.
    `_arr`: optional precomputed filled Arrow array (the TextAnalyzer hot
    path fills the column once and shares it)."""
    batch = util.strip_schema_metadata(batch)  # pandas-written parquet input
    arr = _filled_text(batch, text_col) if _arr is None else _arr
    n = pc.count_substring_regex(arr, r"\S+").cast(pa.int64())
    return batch.append_column("ws_tokens", n)


def quality_metrics_batch(
    batch: pa.Table, text_col: str = "text", _arr: "pa.Array | None" = None
) -> pa.Table:
    """Integer quality counters (chars/punct/digits/uppercase) — exact,
    SQL-replicable components (RE2 class counts + utf8_length, the
    DuckDB oracle's own engine and semantics); ratios derive
    downstream."""
    batch = util.strip_schema_metadata(batch)  # pandas-written parquet input
    arr = _filled_text(batch, text_col) if _arr is None else _arr
    out = batch
    for name, rx in (
        ("n_chars_m", None),
        ("n_punct", r"[^\w\s]"),
        ("n_digit", r"[0-9]"),
        ("n_upper", r"[A-Z]"),
    ):
        vals = (
            pc.utf8_length(arr) if rx is None else pc.count_substring_regex(arr, rx)
        ).cast(pa.int64())
        out = out.append_column(name, vals)
    return out


# ---------------------------------------------------------------------------
# sentence segmentation stats (RE2 split — engine-identical with DuckDB)
# ---------------------------------------------------------------------------

SENTENCE_SPLIT = r"[.!?]+"
_TRIM_CHARS = " \t\n\r"


def sentence_stats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append `n_sentences` (segments with any non-trim char after an RE2
    split on terminal punctuation) and `sent_chars` (total trimmed segment
    length). pyarrow split_pattern_regex IS RE2 — the same engine as
    DuckDB regexp_split_to_array — and the trim uses an explicit char set
    on both sides, so the counts are engine-identical by construction
    (`sentence_oracle_sql`). Null text propagates to null stats."""
    import pyarrow.compute as pc

    col = batch.column(text_col)
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    segs = pc.split_pattern_regex(arr, SENTENCE_SPLIT)
    # null rows have null segment lists -> treat as 0 segments here, then
    # restore null stats via the mask below
    counts = np.nan_to_num(
        pc.list_value_length(segs).to_numpy(zero_copy_only=False).astype(np.float64)
    ).astype(np.int64)
    flat = pc.utf8_trim(segs.flatten(), _TRIM_CHARS)
    seg_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    nonempty = (seg_len > 0).astype(np.int64)
    offsets = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    c1 = np.zeros(len(nonempty) + 1, np.int64)
    np.cumsum(nonempty, out=c1[1:])
    c2 = np.zeros(len(seg_len) + 1, np.int64)
    np.cumsum(seg_len * nonempty, out=c2[1:])
    n_sent = c1[offsets[1:]] - c1[offsets[:-1]]
    n_chars = c2[offsets[1:]] - c2[offsets[:-1]]
    null_mask = pa.compute.is_null(arr)
    return batch.append_column(
        "n_sentences",
        pa.compute.if_else(null_mask, pa.scalar(None, pa.int64()), pa.array(n_sent)),
    ).append_column(
        "sent_chars",
        pa.compute.if_else(null_mask, pa.scalar(None, pa.int64()), pa.array(n_chars)),
    )


def sentence_stats(ds, text_col: str = "text"):
    return ds.map_batches(
        lambda b: sentence_stats_batch(b, text_col), batch_format="pyarrow"
    )


def sentence_oracle_sql(
    table: str = "documents", *, text_col: str = "text", key_col: str = "doc_id"
) -> str:
    """DuckDB replica of sentence_stats (RE2 split, explicit trim set)."""
    return (
        f"SELECT {key_col}, "
        f"len(list_filter(list_transform("
        f"regexp_split_to_array({text_col}, '{SENTENCE_SPLIT}'), "
        f"x -> trim(x, ' ' || chr(9) || chr(10) || chr(13))), "
        f"x -> x <> ''))::BIGINT AS n_sentences, "
        f"CASE WHEN {text_col} IS NULL THEN NULL ELSE "
        f"coalesce(list_sum(list_transform(list_filter(list_transform("
        f"regexp_split_to_array({text_col}, '{SENTENCE_SPLIT}'), "
        f"x -> trim(x, ' ' || chr(9) || chr(10) || chr(13))), "
        f"x -> x <> ''), x -> length(x))), 0) END::BIGINT AS sent_chars "
        f"FROM {table}"
    )


# ---------------------------------------------------------------------------
# unicode normalization (NFC + lowercase + whitespace collapse)
# ---------------------------------------------------------------------------

# codepoints used by the deterministic fixture mangle (ASCII corpora need
# non-ASCII teeth for the normalize oracle): combining acute + composed O
_COMBINING_ACUTE = "\u0301"
_O_ACUTE_UPPER = "\u00d3"


def mangle_unicode_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Deterministic non-ASCII derivation for ASCII fixtures, the
    chunk_words_batch pattern: 'a' -> 'a'+U+0301 (decomposed acute),
    'o' -> U+00D3 (composed uppercase O-acute), ' ' -> ' \\t ' — three
    plain substring replaces, identical to :func:`mangle_unicode_sql`."""
    t = util.strip_schema_metadata(t)
    arr = t.column(text_col)
    arr = pa.compute.replace_substring(arr, pattern="a", replacement="a" + _COMBINING_ACUTE)
    arr = pa.compute.replace_substring(arr, pattern="o", replacement=_O_ACUTE_UPPER)
    arr = pa.compute.replace_substring(arr, pattern=" ", replacement=" \t ")
    return t.set_column(t.schema.get_field_index(text_col), text_col, arr)


def mangle_unicode_sql(table: str, text_col: str = "text", key_col: str = "doc_id") -> str:
    """Parenthesized subquery twin of :func:`mangle_unicode_batch`."""
    return (
        f"(SELECT {key_col}, replace(replace(replace({text_col}, "
        f"'a', 'a' || chr(769)), 'o', chr(211)), ' ', ' ' || chr(9) || ' ') "
        f"AS {text_col} FROM {table})"
    )


_SCRIPTS = (
    ("n_latin", r"\p{Latin}"),
    ("n_cyrillic", r"\p{Cyrillic}"),
    ("n_han", r"\p{Han}"),
    ("n_greek", r"\p{Greek}"),
    ("n_arabic", r"\p{Arabic}"),
)


def synthesize_scripts_batch(
    batch: pa.Table, *, key_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """Splice a deterministic non-Latin snippet into each row by key % 4
    (Cyrillic / Han / Greek / none) — the script-mix fixture for ASCII
    corpora. SQL twin: synthesize_scripts_sql."""
    import pandas as pd

    ids = pd.Series(batch.column(key_col).to_numpy(zero_copy_only=False))
    txt = batch.column(text_col).to_pandas().fillna("").reset_index(drop=True)
    snippets = pd.Series(
        np.select(
            [ids % 4 == 0, ids % 4 == 1, ids % 4 == 2],
            [" привет мир", " 世界你好", " αβγδ"],
            default="",
        )
    )
    return batch.set_column(
        batch.schema.get_field_index(text_col), text_col,
        pa.array(txt + snippets, pa.string()),
    )


def synthesize_scripts_sql(
    table: str = "documents", *, key_col: str = "doc_id", text_col: str = "text"
) -> str:
    """SQL twin of synthesize_scripts_batch, as a subquery."""
    return (
        f"(SELECT {key_col}, coalesce({text_col}, '') || "
        f"CASE {key_col} % 4 WHEN 0 THEN ' привет мир' "
        f"WHEN 1 THEN ' 世界你好' WHEN 2 THEN ' αβγδ' ELSE '' END "
        f"AS {text_col} FROM {table})"
    )


def script_mix_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc Unicode-script character counts (Latin / Cyrillic / Han /
    Greek / Arabic) — the charset-profiling step of a web pipeline (mixed
    or unexpected scripts flag mojibake, spam and wrong-language docs).
    One RE2 \\p{Script} pass per class (pyarrow = DuckDB's regex engine,
    parity by construction)."""
    import pyarrow.compute as pc

    arr = batch.column(text_col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    out = batch
    for name, pat in _SCRIPTS:
        out = out.append_column(
            name, pc.count_substring_regex(arr, pat).cast(pa.int64())
        )
    return out


def script_mix(ds, text_col: str = "text"):
    return ds.map_batches(
        lambda b: script_mix_batch(util.strip_schema_metadata(b), text_col),
        batch_format="pyarrow",
    )


def script_mix_oracle_sql(
    table: str = "documents", *, text_col: str = "text", key_col: str = "doc_id"
) -> str:
    """DuckDB replica of script_mix (RE2 \\p{Script} both sides)."""
    counts = ", ".join(
        f"len(regexp_extract_all({text_col}, '{pat}'))::BIGINT AS {name}"
        for name, pat in _SCRIPTS
    )
    return f"SELECT {key_col}, {counts} FROM {table}"


def normalize_text_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """One streaming pass: utf8proc lowercase (pyarrow kernel — the SAME
    library DuckDB's lower() uses), NFC composition, RE2 whitespace
    collapse (the engine DuckDB's regexp_replace uses; ASCII \\s on both
    sides), space-only edge trim (DuckDB trim's default set). Appends
    `n_chars` (code points, = DuckDB length()).

    pyarrow's utf8_normalize kernel never COMPOSES in this build (NFC
    behaves as NFD — verified 2026-08-19), so composition runs through
    CPython unicodedata — but only on the rows a vectorized RE2 probe
    flags as non-ASCII: web corpora are overwhelmingly ASCII, so the
    Python path touches a small minority of rows while the ASCII
    majority stays fully vectorized (NFC is the identity on ASCII)."""
    import unicodedata

    batch = util.strip_schema_metadata(batch)
    low = pa.compute.utf8_lower(batch.column(text_col))
    flagged = pa.compute.match_substring_regex(low, r"[^\x00-\x7F]")
    if pa.compute.any(flagged).as_py():
        vals = low.to_pylist()
        low = pa.array(
            [
                unicodedata.normalize("NFC", v) if (f and v is not None) else v
                for v, f in zip(vals, flagged.to_pylist())
            ],
            pa.string(),
        )
    coll = pa.compute.replace_substring_regex(low, pattern=r"\s+", replacement=" ")
    trimmed = pa.compute.utf8_trim(coll, characters=" ")
    out = batch.set_column(
        batch.schema.get_field_index(text_col), text_col, trimmed
    )
    return out.append_column(
        "n_chars", pa.compute.cast(pa.compute.utf8_length(trimmed), pa.int64())
    )


def normalize_text(ds, text_col: str = "text"):
    """Streaming text normalization: NFC + lowercase + whitespace collapse
    + trim, plus an `n_chars` code-point length column. Stateless
    map_batches; no shuffle."""
    return ds.map_batches(
        lambda b: normalize_text_batch(b, text_col), batch_format="pyarrow"
    )


def normalize_oracle_sql(
    table: str = "documents", *, text_col: str = "text", key_col: str = "doc_id"
) -> str:
    """DuckDB replica of normalize_text: nfc_normalize(lower(.)) then the
    identical RE2 collapse and space-only trim; length() = code points."""
    expr = (
        f"trim(regexp_replace(nfc_normalize(lower({text_col})), "
        f"'\\s+', ' ', 'g'), ' ')"
    )
    return (
        f"SELECT {key_col}, {expr} AS {text_col}, "
        f"length({expr})::BIGINT AS n_chars FROM {table}"
    )


# ---------------------------------------------------------------------------
# HTML boilerplate strip (the web-extraction cleaning pass: drop
# comments / script / style / tags, decode common entities, collapse
# whitespace). Byte parity with DuckDB by construction: every regex step
# runs on RE2 on BOTH sides (pyarrow replace_substring_regex == DuckDB
# regexp_replace(..., 'g')), the entity decodes are plain substring
# replaces — the pii.py discipline.
# ---------------------------------------------------------------------------

# order matters and is identical in SQL: blocks first (their bodies may
# contain '<'), then comments, then tags; entities decode AFTER tag
# removal (standard order — a decoded '&lt;b&gt;' must survive as literal
# text, never be re-parsed as a tag), with '&amp;' LAST so '&amp;lt;'
# decodes to the literal '&lt;', not to '<'.
_HTML_REGEX_STEPS = (
    (r"(?s)<script[^>]*>.*?</script>", " "),
    (r"(?s)<style[^>]*>.*?</style>", " "),
    (r"(?s)<!--.*?-->", " "),
    (r"<[^>]*>", " "),
)
_HTML_ENTITY_STEPS = (
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&nbsp;", " "),
    ("&amp;", "&"),
)


def html_strip_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """One streaming pass: strip HTML boilerplate from `text_col` and
    append `n_stripped` (code points removed, int64 — negative never:
    every step only deletes or 1:1-replaces). Null text stays null on
    both sides."""
    batch = util.strip_schema_metadata(batch)
    arr = batch.column(text_col)
    orig_len = pa.compute.utf8_length(arr)
    for pat, rep in _HTML_REGEX_STEPS:
        arr = pa.compute.replace_substring_regex(arr, pattern=pat, replacement=rep)
    for pat, rep in _HTML_ENTITY_STEPS:
        arr = pa.compute.replace_substring(arr, pattern=pat, replacement=rep)
    arr = pa.compute.replace_substring_regex(arr, pattern=r"\s+", replacement=" ")
    arr = pa.compute.utf8_trim(arr, characters=" ")
    out = batch.set_column(batch.schema.get_field_index(text_col), text_col, arr)
    stripped = pa.compute.subtract(
        pa.compute.cast(orig_len, pa.int64()),
        pa.compute.cast(pa.compute.utf8_length(arr), pa.int64()),
    )
    return out.append_column("n_stripped", stripped)


def html_strip(ds, text_col: str = "text"):
    """Streaming HTML boilerplate removal — stateless map_batches, no
    shuffle, nothing on the driver."""
    return ds.map_batches(
        lambda b: html_strip_batch(b, text_col), batch_format="pyarrow"
    )


def _sql_quote(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def html_strip_oracle_sql(
    table: str = "documents", *, text_col: str = "text", key_col: str = "doc_id"
) -> str:
    """DuckDB replica of html_strip: the identical RE2 step chain
    (regexp_replace 'g' == replace_substring_regex), identical entity
    replace order, identical collapse + space trim."""
    expr = text_col
    for pat, rep in _HTML_REGEX_STEPS:
        expr = f"regexp_replace({expr}, {_sql_quote(pat)}, {_sql_quote(rep)}, 'g')"
    for pat, rep in _HTML_ENTITY_STEPS:
        expr = f"replace({expr}, {_sql_quote(pat)}, {_sql_quote(rep)})"
    expr = f"trim(regexp_replace({expr}, '\\s+', ' ', 'g'), ' ')"
    return (
        f"SELECT {key_col}, {expr} AS {text_col}, "
        f"(length({text_col}) - length({expr}))::BIGINT AS n_stripped "
        f"FROM {table}"
    )


def html_mangle_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Deterministic HTML derivation for plain-text fixtures (the
    mangle_unicode_batch pattern): wrap each doc in page chrome with a
    comment, a script whose body contains a bare '<', a style block, and
    entity-encode two substrings — identical to :func:`html_mangle_sql`."""
    t = util.strip_schema_metadata(t)
    arr = t.column(text_col)
    arr = pa.compute.replace_substring(arr, pattern="x", replacement="&lt;x&gt;")
    arr = pa.compute.replace_substring(arr, pattern="  ", replacement=" &nbsp; ")
    pre = '<html><body><!-- hdr --><p class="m">'
    post = (
        "</p><script type=\"text/javascript\">var a = 1 < 2;</script>"
        "<style>p { color: red }</style></body></html>"
    )
    wrapped = pa.compute.binary_join_element_wise(
        pa.array([pre] * t.num_rows),
        arr,
        pa.array([post] * t.num_rows),
        "",
    )
    return t.set_column(t.schema.get_field_index(text_col), text_col, wrapped)


def html_mangle_sql(
    table: str, text_col: str = "text", key_col: str = "doc_id"
) -> str:
    """Parenthesized subquery twin of :func:`html_mangle_batch`."""
    pre = '<html><body><!-- hdr --><p class="m">'
    post = (
        "</p><script type=\"text/javascript\">var a = 1 < 2;</script>"
        "<style>p { color: red }</style></body></html>"
    )
    inner = (
        f"replace(replace({text_col}, 'x', '&lt;x&gt;'), '  ', ' &nbsp; ')"
    )
    return (
        f"(SELECT {key_col}, {_sql_quote(pre)} || {inner} || {_sql_quote(post)} "
        f"AS {text_col} FROM {table})"
    )


# ---------------------------------------------------------------------------
# hashed tokenization: text -> list<int32> token ids (the docs -> tokens
# bridge; feature-hashing over whitespace words, fully SQL-replicable)
# ---------------------------------------------------------------------------


def tokenize_hashed_batch(
    t: pa.Table,
    text_col: str = "text",
    key_col: str = "doc_id",
    vocab: int = 50_257,
    keep_cols: tuple[str, ...] = (),
) -> pa.Table:
    """Vectorized hashed tokenizer: split on ' ', token id =
    string_hash64(word) % vocab (the classic feature-hashing trick) —
    one flattened hash pass per batch, no per-word Python. Emits
    (key, tokens list<int32>, n_tok int64); null-text docs are dropped
    (the SQL twin's string_split(NULL) path). Deliberately the same
    input shape BASELINE.json's corpus carries, so the whole encode /
    pack / stats surface runs downstream of raw documents."""
    t = util.strip_schema_metadata(t)
    col = t.column(text_col)
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    kept = t.filter(pc.is_valid(arr))
    # Arrow single-space split keeps empty segments ('a  b' -> 3 words,
    # one empty) — byte-identical to the SQL twin's string_split(text,
    # ' '); the word hash runs on the flat array's own UTF-8 buffers
    # (functions/words), no pandas object pass
    parts = pc.split_pattern(arr.drop_null(), " ")
    lens = pc.list_value_length(parts).to_numpy(zero_copy_only=False).astype(np.int64)
    if len(lens) and int(lens.sum()):
        flat = pc.list_flatten(parts)
        ids = (_words.hash_string_array(flat) % np.uint64(vocab)).astype(np.int32)
    else:
        ids = np.array([], np.int32)
    csum = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=csum[1:])
    if csum[-1] > np.iinfo(np.int32).max:
        # silent int32 offset wrap would assemble a corrupt ListArray
        # (the chunk_batch rule): fail loudly, the caller lowers batch_size
        raise ValueError(
            f"batch holds {int(csum[-1])} tokens — int32 list offsets "
            "overflow; lower the stage batch_size"
        )
    tokens = pa.ListArray.from_arrays(
        pa.array(csum.astype(np.int32), pa.int32()), pa.array(ids, pa.int32())
    )
    cols = {
        key_col: kept.column(key_col),
        "tokens": tokens,
        "n_tok": pa.array(lens, pa.int64()),
    }
    for c in keep_cols:
        cols[c] = kept.column(c)
    return pa.table(cols)


def tokenize_hashed(
    ds,
    text_col: str = "text",
    key_col: str = "doc_id",
    vocab: int = 50_257,
    keep_cols: tuple[str, ...] = (),
):
    """Streaming docs -> (key, tokens, n_tok, *keep_cols); see
    tokenize_hashed_batch."""
    return ds.map_batches(
        lambda b: tokenize_hashed_batch(b, text_col, key_col, vocab, keep_cols),
        batch_format="pyarrow",
    )


def tokenize_stats_oracle_sql(
    table: str = "documents",
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    vocab: int = 50_257,
) -> str:
    """Pure-SQL re-derivation of per-doc token stats FROM RAW TEXT — the
    oracle for the flagship composition raw docs -> tokenize_hashed ->
    encode_job -> read_encoded_token_stats. The engine side computes the
    same numbers off the ENCODED columnar form, so an exact match pins
    the tokenizer AND the whole codec chain (bit-identical decode) in one
    value check. Same split / detmix hash / % vocab as
    tokenize_oracle_sql."""
    return f"""WITH pow257_64(j, v) AS (VALUES {_detmix.sql_pow257_64_values()}),
w0 AS (
  SELECT {key_col}, source, string_split({text_col}, ' ') AS ws
  FROM {table} WHERE {text_col} IS NOT NULL
),
l AS (
  SELECT {key_col} AS dk, source, ws[i] AS word
  FROM w0, LATERAL unnest(generate_series(1, len(ws))) AS t(i)
),
{_detmix.sql_string_hash_ctes("l", "word")}
SELECT l.dk AS {key_col}, count(*)::BIGINT AS n_tok,
       any_value(l.source) AS source,
       count(*)::BIGINT AS tok_count,
       min(kh.h % {vocab})::BIGINT AS tok_min,
       max(kh.h % {vocab})::BIGINT AS tok_max,
       sum(kh.h % {vocab})::BIGINT AS tok_sum
FROM l JOIN kh ON kh.k = l.word
GROUP BY l.dk"""


def tokenize_oracle_sql(
    table: str = "documents",
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    vocab: int = 50_257,
) -> str:
    """DuckDB twin of tokenize_hashed + transforms.position_weighted:
    identical word split / detmix hash / % vocab, n_tok = word count,
    posw = sum(0-based position x id) — pins every id POSITIONALLY."""
    return f"""WITH pow257_64(j, v) AS (VALUES {_detmix.sql_pow257_64_values()}),
w0 AS (
  SELECT {key_col}, string_split({text_col}, ' ') AS ws
  FROM {table} WHERE {text_col} IS NOT NULL
),
l AS (
  SELECT {key_col} AS dk, i, ws[i] AS word
  FROM w0, LATERAL unnest(generate_series(1, len(ws))) AS t(i)
),
{_detmix.sql_string_hash_ctes("l", "word")}
SELECT l.dk AS {key_col}, count(*)::BIGINT AS n_tok,
       sum((l.i - 1) * (kh.h % {vocab}))::BIGINT AS posw
FROM l JOIN kh ON kh.k = l.word
GROUP BY l.dk"""


# ---------------------------------------------------------------------------
# Sliding-window document chunking (RAG / retrieval prep)
# ---------------------------------------------------------------------------


def chunk_batch(
    batch: pa.Table,
    text_col: str = "text",
    key_col: str = "doc_id",
    *,
    size: int = 256,
    stride: int = 192,
) -> pa.Table:
    """Split each doc into overlapping windows: chunk k covers
    [k*stride, k*stride + size) for k in [0, ceil(len/stride)); empty docs
    emit no chunks. Fully vectorized — per-doc window counts, a single
    multi-range byte gather off the Arrow string buffer, and one output
    StringArray rebuild; no Python loop over docs or chunks. Offsets are
    BYTE offsets (== character offsets on ASCII corpora — the same caveat
    as every string-hashing oracle in this repo)."""
    import pyarrow.compute as pc

    if stride <= 0 or size <= 0:
        raise ValueError(f"size and stride must be positive, got {size}, {stride}")
    batch = util.strip_schema_metadata(batch)
    col = batch.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    a = pc.fill_null(col, "").cast(pa.string())
    if isinstance(a, pa.ChunkedArray):
        a = a.combine_chunks()
    off = np.frombuffer(a.buffers()[1], np.int32)[a.offset : a.offset + len(a) + 1]
    data = np.frombuffer(a.buffers()[2] or b"", np.uint8)
    doc_start = off[:-1].astype(np.int64)
    doc_end = off[1:].astype(np.int64)
    lens = doc_end - doc_start
    nc = (lens + stride - 1) // stride  # 0 for empty docs by construction
    total = int(nc.sum())
    empty = pa.table(
        {
            key_col: batch.column(key_col).slice(0, 0),
            "chunk_id": pa.array([], pa.int64()),
            "chunk_start": pa.array([], pa.int64()),
            "chunk": pa.array([], pa.string()),
        }
    )
    if total == 0:
        return empty
    doc_idx = np.repeat(np.arange(len(a), dtype=np.int64), nc)
    excl = np.cumsum(nc) - nc  # exclusive prefix per doc
    k = np.arange(total, dtype=np.int64) - np.repeat(excl, nc)
    start_rel = k * stride
    start_abs = doc_start[doc_idx] + start_rel
    end_abs = np.minimum(start_abs + size, doc_end[doc_idx])
    out_lens = end_abs - start_abs
    nbytes = int(out_lens.sum())
    if nbytes >= 1 << 31:
        # utf8 offsets are int32; a silent cumsum wrap would assemble a
        # corrupt StringArray — fail loudly, the caller lowers batch_size
        raise ValueError(
            f"chunk output of this batch is {nbytes} bytes (>= 2 GiB int32 "
            "offset limit): pass a smaller batch_size to chunk_docs"
        )
    gexcl = np.cumsum(out_lens) - out_lens
    gather = np.repeat(start_abs - gexcl, out_lens) + np.arange(nbytes, dtype=np.int64)
    out_off = np.zeros(total + 1, np.int32)
    np.cumsum(out_lens, out=out_off[1:])
    chunks = pa.Array.from_buffers(
        pa.utf8(),
        total,
        [None, pa.py_buffer(out_off.tobytes()), pa.py_buffer(data[gather].tobytes())],
    )
    return pa.table(
        {
            key_col: batch.column(key_col).take(pa.array(doc_idx)),
            "chunk_id": pa.array(k, pa.int64()),
            "chunk_start": pa.array(start_rel, pa.int64()),
            "chunk": chunks,
        }
    )


def chunk_docs(
    ds,
    text_col: str = "text",
    key_col: str = "doc_id",
    *,
    size: int = 256,
    stride: int = 192,
):
    """Sliding-window chunking over the corpus — the retrieval-indexing /
    context-window prep stage. Pure streaming flat map (rows fan out
    ~len/stride per doc, bytes fan out ~size/stride); no shuffle."""
    import functools

    return ds.map_batches(
        functools.partial(
            chunk_batch, text_col=text_col, key_col=key_col, size=size, stride=stride
        ),
        batch_format="pyarrow",
    )


def chunk_oracle_sql(
    table: str = "documents",
    text_col: str = "text",
    key_col: str = "doc_id",
    *,
    size: int = 256,
    stride: int = 192,
) -> str:
    """DuckDB twin of chunk_docs: generate_series window starts, substring
    windows — byte-exact on ASCII corpora."""
    return f"""WITH d AS (
  SELECT {key_col}, coalesce({text_col}, '') AS t FROM {table}
),
s AS (
  SELECT {key_col}, t, unnest(generate_series(1, length(t)::BIGINT, {stride})) AS st
  FROM d WHERE length(t) > 0
)
SELECT {key_col},
  ((st - 1) // {stride})::BIGINT AS chunk_id,
  (st - 1)::BIGINT AS chunk_start,
  substring(t, st::INT, {size}) AS chunk
FROM s"""


# ---------------------------------------------------------------------------
# regex named-group extraction — the log/JSON-field parsing map (pyarrow's
# regex engine IS RE2, DuckDB's engine, so extraction is engine-identical
# by construction — the pii.py parity argument applied to user patterns).
# ---------------------------------------------------------------------------


def regex_extract(
    ds,
    pattern: str,
    text_col: str = "text",
    keep_cols: tuple[str, ...] = (),
):
    """Append one column per NAMED GROUP in `pattern`, extracted from the
    FIRST match in `text_col` (null when the row does not match — SQL
    regexp_extract semantics). One vectorized RE2 pass per batch; no
    shuffle. SQL twin: `regex_extract_oracle_sql`."""
    import re as _re

    names = list(_re.compile(pattern).groupindex)
    if not names:
        raise ValueError(
            "pattern has no named groups — use (?P<name>...) so the output "
            "columns have deterministic names"
        )

    def extract(batch: pa.Table) -> pa.Table:
        batch = util.strip_schema_metadata(batch)
        arr = batch.column(text_col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = pc.coalesce(arr.cast(pa.string()), pa.scalar(""))
        structs = pc.extract_regex(arr, pattern)
        out = batch
        if keep_cols:
            out = batch.select([c for c in keep_cols])
        for n in names:
            out = out.append_column(n, pc.struct_field(structs, n))
        return out

    return ds.map_batches(extract, batch_format="pyarrow")


def regex_extract_oracle_sql(
    table: str,
    pattern: str,
    text_col: str = "text",
    select_cols: str = "*",
) -> str:
    """DuckDB twin: regexp_extract with the named-group list form returns
    a STRUCT (RE2, same pattern string); non-matching rows yield NULL
    fields like the engine. The pattern is embedded single-quoted —
    callers with quotes in the pattern must escape them."""
    import re as _re

    names = list(_re.compile(pattern).groupindex)
    name_list = "[" + ", ".join(f"'{n}'" for n in names) + "]"
    pat = pattern.replace("'", "''")
    fields = ", ".join(
        f"CASE WHEN regexp_matches(coalesce({text_col}, ''), '{pat}') "
        f"THEN regexp_extract(coalesce({text_col}, ''), '{pat}', {name_list}).{n} "
        f"END AS {n}"
        for n in names
    )
    return f"SELECT {select_cols}, {fields} FROM {table}"
