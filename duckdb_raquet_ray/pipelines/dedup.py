"""Deduplication suite over document tables — exact, MinHash+LSH, SimHash,
n-gram Jaccard, embedding-cosine near-dup.

No analogue exists in the reference (blocks are unique by construction,
SURVEY.md §2.7); these are the training-data-pipeline operators the engine
adds as first-class components. All follow the same scale shape:

  vectorized per-batch signature computation (map_batches)
    -> explode to (bucket key, doc key) rows            [small rows only]
    -> groupby(bucket) -> candidate pairs                [the one shuffle,
                                                          over signatures,
                                                          never over text]
    -> verify (exact compare / jaccard / cosine)
    -> survivors = all docs minus confirmed dups of a smaller key

Keep-rule everywhere: the duplicate with the smallest key survives —
deterministic, so results are stable across topologies.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from duckdb_raquet_ray import util
from duckdb_raquet_ray.functions import detmix, words
from duckdb_raquet_ray.pipelines import joins
from duckdb_raquet_ray.pipelines.ann import _int8_matrix as ann_int8
from duckdb_raquet_ray.state import bucket_index

# ---------------------------------------------------------------------------
# exact dedup: content hash -> hash-partitioned first-wins
# ---------------------------------------------------------------------------


def _content_hash(batch: pa.Table, text_col: str) -> pa.Table:
    batch = util.strip_schema_metadata(batch)  # pandas-written parquet input
    s = batch.column(text_col).to_pandas()
    h = pd.util.hash_pandas_object(s, index=False).to_numpy()  # stable 64-bit
    return batch.append_column("_h", pa.array(h.astype(np.uint64)))


def exact_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Keep the smallest key per distinct text. Hash-partition + per-group
    first (the guide's exact-dedup shape): the shuffle moves (hash, row)
    pairs; within a hash bucket the actual text is compared, so hash
    collisions cannot merge distinct texts."""
    nb = n_buckets or util.scaled_buckets(ds)

    def keep_first(g: pa.Table) -> pa.Table:
        df = g.select([text_col, key_col]).to_pandas()
        # dropna=False: null-text rows form their own group and are kept —
        # pandas' default silently DELETED every null-text document
        idx = df.groupby(text_col, sort=True, dropna=False)[key_col].idxmin()
        keep = np.sort(idx.to_numpy())
        return g.take(pa.array(keep)).drop_columns(["_h", "_b"])

    def bucketed(b: pa.Table) -> pa.Table:
        t = _content_hash(b, text_col)
        bucket = (t.column("_h").to_numpy() % np.uint64(nb)).astype(np.int32)
        return t.append_column("_b", pa.array(bucket))

    hashed = util.clean_dataset(ds).map_batches(bucketed, batch_format="pyarrow", batch_size=8192)
    return util.bucketed(hashed, "_b", keep_first)


# ---------------------------------------------------------------------------
# shingles + MinHash + LSH
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


_POWERS_CACHE: dict[int, np.ndarray] = {}


def _shingle_powers(k: int) -> np.ndarray:
    # plain dict cache, NOT functools.lru_cache: lru_cache wrappers always
    # pickle by reference, which breaks cloudpickle by-value shipping of
    # this module to Ray workers that cannot import the package
    p = _POWERS_CACHE.get(k)
    if p is None:
        p = np.array([pow(257, k - 1 - i, _MERSENNE) for i in range(k)], dtype=np.uint64)
        _POWERS_CACHE[k] = p
    return p


def _shingle_hashes_ordered(text: str, k: int = 5) -> np.ndarray:
    """Char-k-gram rolling hashes in document order (with repeats) —
    vectorized polynomial rolling hash base 257 mod 2^61-1."""
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    n = len(data)
    if n < k:
        data = np.pad(data, (0, k - n), constant_values=0)
        n = k
    powers = _shingle_powers(k)
    out = np.zeros(n - k + 1, dtype=np.uint64)
    for i in range(k):  # k is tiny (5); inner ops vectorized over windows
        out = (out + (data[i : n - k + 1 + i] * powers[i]) % _MERSENNE) % _MERSENNE
    return out


def _shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Distinct char-k-gram hashes of one document (uint64)."""
    return np.unique(_shingle_hashes_ordered(text, k))


def _minhash_sig(shingles: np.ndarray, perms_a: np.ndarray, perms_b: np.ndarray) -> np.ndarray:
    """num_perm minima of (a*x+b) mod p over the shingle set."""
    if len(shingles) == 0:
        return np.full(len(perms_a), _MERSENNE, dtype=np.uint64)
    # (num_perm, n_shingles) without materializing huge matrices: shingle
    # sets are small (|text| k-grams)
    vals = (shingles[None, :] * perms_a[:, None] + perms_b[:, None]) % np.uint64(_MERSENNE)
    return vals.min(axis=1)


def _perms(num_perm: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def _flat_shingle_stream(
    texts: pa.Array | pa.ChunkedArray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rolling char-k-gram hashes of EVERY doc of a batch in one
    flattened pass -> (h uint64 doc-ordered window hashes, d int64 doc
    index per window, n_sh int64 windows per doc, >= 1 each). The
    shared scaffold under _batch_minhash_sigs and text._batch_winnow:
    one zero-copy UTF-8 stream (functions/words.flat_utf8), sub-k docs
    zero-padded to k IN the flat stream (the _shingle_hashes_ordered
    pad rule, so per-doc parity with the scalar kernel is exact), one
    rolling-hash pass, cross-doc windows masked. Nulls hash as ''."""
    import pyarrow.compute as pc

    filled = pc.fill_null(
        texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts,
        "",
    )
    data, lens = words.flat_utf8(filled)
    n_docs = len(lens)
    if n_docs == 0:
        return np.zeros(0, np.uint64), np.zeros(0, np.int64), np.zeros(0, np.int64)
    pad_lens = np.maximum(lens, k)
    in_off = np.zeros(n_docs + 1, np.int64)
    np.cumsum(lens, out=in_off[1:])
    out_off = np.zeros(n_docs + 1, np.int64)
    np.cumsum(pad_lens, out=out_off[1:])
    padded = np.zeros(int(out_off[-1]), np.uint64)
    if len(data):
        shift = np.repeat(out_off[:-1] - in_off[:-1], lens)
        padded[np.arange(len(data), dtype=np.int64) + shift] = data
    powers = _shingle_powers(k)
    n_sh = pad_lens - k + 1  # >= 1 per doc (padding guarantees it)
    total = int(out_off[-1]) - k + 1
    h = np.zeros(total, np.uint64)
    for i in range(k):  # k is tiny (5); inner ops vectorized over windows
        h = (h + (padded[i : total + i] * powers[i]) % _MERSENNE) % _MERSENNE
    doc_of_pos = np.repeat(np.arange(n_docs, dtype=np.int64), pad_lens)[:total]
    pos_in_doc = np.arange(total, dtype=np.int64) - out_off[doc_of_pos]
    valid = pos_in_doc < n_sh[doc_of_pos]
    return h[valid], doc_of_pos[valid], n_sh


def _batch_minhash_sigs(
    texts: pa.Array | pa.ChunkedArray,
    shingle_k: int,
    perms_a: np.ndarray,
    perms_b: np.ndarray,
) -> np.ndarray:
    """MinHash signatures for EVERY doc of a batch -> (n_docs, num_perm)
    uint64, bit-identical to `_minhash_sig(_shingle_hashes(text, k), a,
    b)` per doc (pinned by property test). Two regimes, measured at the
    ~256-windows/doc crossover:

    - SHORT docs (the per-call-overhead regime the per-doc loop loses
      2-3x): one flattened pass — zero-copy UTF-8 stream
      (functions/words.flat_utf8), short docs zero-padded to k in
      place, ONE rolling-hash pass with cross-doc windows masked, the
      num_perm minima via minimum.reduceat over doc runs (shingle
      multiplicity is irrelevant to a min, so no dedup/sort), modulus
      via the Mersenne fold.
    - LONG docs: the per-doc loop — its np.unique dedup shrinks the
      (num_perm, shingles) matrices and keeps them cache-resident,
      which beats the flattened DRAM-streaming passes there.
    """
    import pyarrow.compute as pc

    filled = pc.fill_null(
        texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts,
        "",
    )
    n_docs = len(filled)
    num_perm = len(perms_a)
    if n_docs == 0:
        return np.empty((0, num_perm), np.uint64)
    k = shingle_k
    lens = pc.binary_length(filled).to_numpy(zero_copy_only=False).astype(np.int64)
    if float(np.mean(np.maximum(lens, k) - k + 1)) > 256.0:
        texts_py = filled.to_pylist()
        sigs = np.empty((n_docs, num_perm), np.uint64)
        for i, txt in enumerate(texts_py):
            sigs[i] = _minhash_sig(_shingle_hashes(txt or "", k), perms_a, perms_b)
        return sigs
    # stream order IS doc order, so no sort is needed, and shingle
    # MULTIPLICITY is irrelevant to a min (the scalar path's np.unique
    # only shrank its matrix): the num_perm minima run straight over the
    # doc-ordered window hashes
    h, d, _n_sh = _flat_shingle_stream(filled, k)
    starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
    # every doc contributes >= 1 window, so doc runs are 1:1 with docs
    sigs = np.empty((n_docs, num_perm), np.uint64)
    M = np.uint64(_MERSENNE)
    sh = np.uint64(61)
    with np.errstate(over="ignore"):  # mod-2^64 wrap matches the scalar path
        for j in range(num_perm):
            v = h * perms_a[j] + perms_b[j]
            # v % (2^61-1) via the Mersenne fold (v = hi*2^61 + lo ==
            # hi + lo mod M; hi <= 7 so ONE conditional subtract
            # finishes) — ~2x cheaper than the hardware modulo and
            # bit-identical to `% M`
            r = (v & M) + (v >> sh)
            r -= np.where(r >= M, M, np.uint64(0))
            sigs[:, j] = np.minimum.reduceat(r, starts)
    return sigs


def minhash_band_rows(
    batch: pa.Table,
    text_col: str = "text",
    key_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
) -> pa.Table:
    """Explode each doc into `bands` (band_id, band_hash, key) rows —
    the shuffle payload is signatures, never text."""
    if num_perm % bands != 0:
        raise ValueError(f"bands ({bands}) must divide num_perm ({num_perm})")
    a, b = _perms(num_perm)
    rows_per_band = num_perm // bands
    n_docs = batch.num_rows
    sigs = _batch_minhash_sigs(batch.column(text_col), shingle_k, a, b)
    # band hash: FNV-style fold over the band's signature rows — one
    # vectorized pass over (docs, bands) instead of a pandas hash per band
    sig_b = sigs.reshape(n_docs, bands, rows_per_band)
    h = np.full((n_docs, bands), np.uint64(1469598103934665603))
    prime = np.uint64(1099511628211)
    for r in range(rows_per_band):
        h = (h * prime) ^ sig_b[:, :, r]
    band_hash = (h >> np.uint64(1)).astype(np.int64)  # non-negative
    kcol = batch.column(key_col)
    if isinstance(kcol, pa.ChunkedArray):
        kcol = kcol.combine_chunks()
    rep_idx = pa.array(np.repeat(np.arange(n_docs, dtype=np.int64), bands))
    return pa.table(
        {
            # take() keeps the corpus key TYPE (int32 stays int32; a 0-row
            # batch keeps a typed empty) — an object-array rebuild would
            # widen to int64 / null and break the verify engine's union
            key_col: kcol.take(rep_idx),
            "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), n_docs)),
            "band_hash": pa.array(band_hash.reshape(-1)),
        }
    )


def minhash_candidate_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """LSH bucket groupby -> unordered candidate pairs (a < b)."""
    nb = n_buckets or util.scaled_buckets(ds)
    band_rows = util.clean_dataset(ds).map_batches(
        lambda t: minhash_band_rows(t, text_col, key_col, num_perm, bands, shingle_k),
        batch_format="pyarrow",
        batch_size=4096,
    )

    def add_bucket(t: pa.Table) -> pa.Table:
        # band_hash is an FNV fold >> 1 — already well mixed for a modulus
        bucket = (
            t.column("band_hash").to_numpy().astype(np.int64) % nb
        ).astype(np.int32)
        return t.append_column("_b", pa.array(bucket))

    def pairs(g: pa.Table) -> pa.Table:
        # vectorized within the bucket: anchor = min key per LSH cell;
        # every other member pairs with its anchor
        df = g.to_pandas()
        anchors = df.groupby(["band_id", "band_hash"])[key_col].transform("min")
        mask = (df[key_col] != anchors).to_numpy()
        out = pd.DataFrame(
            {"a": anchors[mask].to_numpy(), "b": df.loc[mask, key_col].to_numpy()}
        ).drop_duplicates(ignore_index=True)
        kt = g.schema.field(key_col).type
        return pa.table({"a": pa.array(out["a"], type=kt), "b": pa.array(out["b"], type=kt)})

    return util.bucketed(band_rows.map_batches(add_bucket, batch_format="pyarrow"), "_b", pairs)


def jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    """Exact n-gram Jaccard similarity of two documents."""
    sa = _shingle_hashes(text_a or "", k)
    sb = _shingle_hashes(text_b or "", k)
    if len(sa) == 0 and len(sb) == 0:
        return 1.0
    inter = len(np.intersect1d(sa, sb, assume_unique=True))
    return inter / (len(sa) + len(sb) - inter)


def _verify_buckets(arr, n_buckets: int) -> np.ndarray:
    """Deterministic verify-bucket id per key: detmix.string_hash64 % n —
    identical on the driver (bucket map) and in workers (pair tagging)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    s = arr.cast(pa.string()).to_pandas().fillna("").to_numpy(dtype=object)
    return (detmix.string_hash64(s) % np.uint64(n_buckets)).astype(np.int32)


def _empty_verify_table(key_type: pa.DataType) -> pa.Table:
    return pa.table(
        {
            "_vb": pa.array([], pa.int32()),
            "a": pa.array([], key_type),
            "b": pa.array([], key_type),
            "key": pa.array([], key_type),
            "text": pa.array([], pa.string()),
            "kind": pa.array([], pa.int8()),
        }
    )


class PairVerifier:
    """Actor-pool stage: exact n-gram Jaccard over candidate pairs.

    The candidate key->text lookup arrives as an object-store reference
    (`ray.put` once on the driver, fetched ONCE per actor in __init__ —
    zero-copy plasma read, never re-shipped per batch); shingle sets are
    memoized per actor since LSH pairs share anchors."""

    def __init__(self, texts_ref, threshold: float, shingle_k: int):
        import ray

        self.texts = ray.get(texts_ref)
        self.threshold = threshold
        self.k = shingle_k
        self._sh: dict = {}

    def _shingles(self, key) -> np.ndarray:
        v = self._sh.get(key)
        if v is None:
            v = _shingle_hashes(self.texts.get(key, "") or "", self.k)
            self._sh[key] = v
        return v

    def __call__(self, batch: pa.Table) -> pa.Table:
        drops = []
        for a, b in zip(batch.column("a").to_pylist(), batch.column("b").to_pylist()):
            sa, sb = self._shingles(a), self._shingles(b)
            if len(sa) == 0 and len(sb) == 0:
                sim = 1.0
            else:
                inter = len(np.intersect1d(sa, sb, assume_unique=True))
                sim = inter / (len(sa) + len(sb) - inter)
            if sim >= self.threshold:
                drops.append(max(a, b))
        kt = batch.schema.field("a").type
        return pa.table({"drop_key": pa.array(drops, type=kt)})


# diagnostics for the scale tests: candidate-pair count of the last
# verify run, and the driver-held VERIFIED edge count (the only remaining
# driver-side structure — bounded by MAX_DRIVER_EDGES, not by candidates)
LAST_CANDIDATE_PAIRS = 0
LAST_DRIVER_EDGES = 0

# verified near-dup edges the driver will hold for the final drop-set /
# union-find (keys only, ~tens of bytes each). Past this, fail loudly
# instead of silently eating driver memory — the caller should shard the
# corpus or raise the threshold. Candidate pairs are NEVER driver-held.
MAX_DRIVER_EDGES = 50_000_000


def _minhash_verified_edges_ds(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    pairs_override: rd.Dataset | None = None,
    metric: str = "jaccard",
    emit_score: bool = False,
) -> tuple[rd.Dataset | None, pa.DataType | None]:
    """LSH candidates -> DISTRIBUTED exact-Jaccard verify -> the verified
    near-dup edges as a DATASET of (a, b), a < b, Jaccard >= threshold —

    ``metric="containment"`` verifies |A∩B| / min(|A|, |B|) instead (the
    asymmetric quote/partial-duplication signal Jaccard misses when one
    doc is much longer) and emits edges as (a=KEPT, b=DROPPED): the doc
    with the smaller gram set is the contained one and drops, ties drop
    the larger key —
    nothing corpus- or candidate-sized ever lands on the driver. Returns
    (None, None) when LSH yields zero candidate pairs. The shared engine
    behind :func:`_minhash_verified_pairs` (driver edge list, bounded) and
    :func:`minhash_clusters_lp` (fully distributed label propagation).

    Scale shape — NO driver structure scales with candidate-pair count:
      1. candidate pairs stay a Dataset end-to-end,
      2. the pair->text join is a bucketed Dataset-Dataset shuffle: pairs
         flat-map to (key, verify-bucket) NEED rows; needs and the corpus
         co-shuffle on hash(key), and each fetch bucket emits its
         candidates' texts tagged with exactly the verify buckets whose
         pairs reference them (per-bucket payload ~scaled_buckets target,
         duplicates collapsed in-bucket),
      3. Jaccard verification runs inside the verify-bucket groupby
         (map_groups), shingles memoized per bucket."""
    import pandas as pd
    import pyarrow.compute as pc

    global LAST_CANDIDATE_PAIRS

    # pairs_override lets another candidate generator (e.g. the rare-gram
    # exact-Jaccard path, :func:`ngram_candidate_pairs`) reuse the whole
    # distributed pair->text fetch + in-bucket verify machinery
    cand = (
        pairs_override
        if pairs_override is not None
        else minhash_candidate_pairs(ds, text_col, key_col, num_perm, bands, shingle_k)
    )

    def dedup_pairs(t: pa.Table) -> pa.Table:
        keep = pc.not_equal(t.column("a"), t.column("b"))
        return t.filter(keep)

    pairs_ds = cand.map_batches(dedup_pairs, batch_format="pyarrow").materialize()
    LAST_CANDIDATE_PAIRS = pairs_ds.count()
    if LAST_CANDIDATE_PAIRS == 0:
        return None, None
    # verify buckets carry candidate TEXT, so the fan-out scales with the
    # input corpus size, keeping per-bucket text payload ~target bytes
    n_vb = util.scaled_buckets(ds)

    kt = pairs_ds.schema().base_schema.field("a").type

    def tag_pairs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "_vb": pa.array(_verify_buckets(t.column("a"), n_vb)),
                "a": t.column("a"),
                "b": t.column("b"),
                "key": pa.nulls(t.num_rows, kt),
                "text": pa.nulls(t.num_rows, pa.string()),
                "kind": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        )

    # --- distributed pair->text fetch join (no driver key/bucket maps) --
    def needs_rows(t: pa.Table) -> pa.Table:
        """Pairs -> (key, verify bucket) NEED rows, batch-locally deduped
        (pairs sharing an anchor cluster in one batch, so most duplicate
        needs collapse here; the rest collapse in the fetch bucket)."""
        vb = _verify_buckets(t.column("a"), n_vb)
        df = pd.DataFrame(
            {
                "key": np.concatenate(
                    [
                        t.column("a").to_numpy(zero_copy_only=False),
                        t.column("b").to_numpy(zero_copy_only=False),
                    ]
                ),
                "_vb": np.concatenate([vb, vb]),
            }
        ).drop_duplicates()
        return pa.table(
            {
                "key": pa.array(df["key"].to_numpy(), type=kt),
                "_vb": pa.array(df["_vb"].to_numpy(np.int32)),
            }
        )

    n_fb = n_vb  # fetch fan-out: same corpus-scaled sizing

    def pad_needs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "_fb": pa.array(_verify_buckets(t.column("key"), n_fb)),
                "key": t.column("key"),
                "text": pa.nulls(t.num_rows, pa.string()),
                "_vb": t.column("_vb"),
                "kind": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        )

    def pad_corpus(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "_fb": pa.array(_verify_buckets(t.column(key_col), n_fb)),
                "key": t.column(key_col),
                "text": t.column(text_col).cast(pa.string()),
                "_vb": pa.nulls(t.num_rows, pa.int32()),
                "kind": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        )

    fetch_in = (
        pairs_ds.map_batches(needs_rows, batch_format="pyarrow")
        .map_batches(pad_needs, batch_format="pyarrow")
        .union(ds.map_batches(pad_corpus, batch_format="pyarrow"))
    )

    def fetch_bucket(g: pa.Table) -> pa.Table:
        """One fetch bucket: all NEED rows and all corpus rows whose key
        hashes here — emit each needed key's text once per distinct
        verify bucket referencing it."""
        kinds = np.asarray(g.column("kind"))
        nrows = g.filter(pa.array(kinds == 0))
        if nrows.num_rows == 0:
            return _empty_verify_table(kt)
        crows = g.filter(pa.array(kinds == 1))
        ndf = nrows.select(["key", "_vb"]).to_pandas().drop_duplicates()
        texts = pd.Series(
            crows.column("text").to_pylist(), index=crows.column("key").to_pylist()
        )
        texts = texts[~texts.index.duplicated(keep="last")]  # defensive
        txt = ndf["key"].map(texts).astype(object)
        txt = txt.where(txt.notna(), None)
        return pa.table(
            {
                "_vb": pa.array(ndf["_vb"].to_numpy(np.int32)),
                "a": pa.nulls(len(ndf), kt),
                "b": pa.nulls(len(ndf), kt),
                "key": pa.array(ndf["key"].to_numpy(), type=kt),
                "text": pa.array(txt, pa.string()),
                "kind": pa.array(np.ones(len(ndf), dtype=np.int8)),
            }
        )

    cand_texts = util.bucketed(fetch_in, "_fb", fetch_bucket)
    tagged = pairs_ds.map_batches(tag_pairs, batch_format="pyarrow").union(cand_texts)

    def verify_group(g: pa.Table) -> pa.Table:
        """One verify bucket: exact n-gram Jaccard of its pairs against its
        (bucket-local) text slice; shingle sets memoized per bucket since
        LSH pairs share anchors."""
        kinds = np.asarray(g.column("kind"))
        trows = g.filter(pa.array(kinds == 1))
        prows = g.filter(pa.array(kinds == 0))
        texts = dict(
            zip(trows.column("key").to_pylist(), trows.column("text").to_pylist())
        )
        sh: dict = {}

        def shingles(k) -> np.ndarray:
            v = sh.get(k)
            if v is None:
                v = _shingle_hashes(texts.get(k, "") or "", shingle_k)
                sh[k] = v
            return v

        ea, eb, sc = [], [], []
        for a, b in zip(prows.column("a").to_pylist(), prows.column("b").to_pylist()):
            sa, sb = shingles(a), shingles(b)
            if len(sa) == 0 and len(sb) == 0:
                sim = 1.0
                inter = 0
                union = 0
            else:
                inter = len(np.intersect1d(sa, sb, assume_unique=True))
                union = len(sa) + len(sb) - inter
                if metric == "containment":
                    sim = inter / min(len(sa), len(sb))
                else:
                    sim = inter / union
            if sim >= threshold:
                if metric == "containment":
                    # the smaller gram set is the contained doc: drop it;
                    # ties drop the larger key
                    if len(sa) < len(sb) or (len(sa) == len(sb) and a > b):
                        keep, drop = b, a
                    else:
                        keep, drop = a, b
                    ea.append(keep)
                    eb.append(drop)
                else:
                    ea.append(min(a, b))
                    eb.append(max(a, b))
                if emit_score:
                    # pure INTEGER floor — exactly replicable in SQL
                    # ((ni * 1e6) // union), never derived from the float
                    sc.append(
                        1_000_000 if union == 0
                        else (inter * 1_000_000) // union
                    )
        cols = {"a": pa.array(ea, type=kt), "b": pa.array(eb, type=kt)}
        if emit_score:
            cols["sim_micro"] = pa.array(sc, pa.int64())
        return pa.table(cols)

    return util.bucketed(tagged, "_vb", verify_group), kt


def _minhash_verified_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    pairs_override: rd.Dataset | None = None,
    metric: str = "jaccard",
) -> list[tuple]:
    """The verified near-dup EDGE LIST on the driver — keys only, orders
    of magnitude below candidate pairs at any realistic precision, and
    guarded by MAX_DRIVER_EDGES (loud failure, never silent driver
    exhaustion). Past the ceiling, :func:`minhash_clusters_lp` /
    `hash_join(how="anti")` are the fully distributed alternatives.
    See :func:`_minhash_verified_edges_ds` for the distributed shape."""
    global LAST_DRIVER_EDGES
    verified, _ = _minhash_verified_edges_ds(
        ds, text_col, key_col, threshold, num_perm, bands, shingle_k,
        pairs_override=pairs_override, metric=metric,
    )
    if verified is None:
        LAST_DRIVER_EDGES = 0
        return []
    edges: set = set()
    for blk in verified.iter_batches(batch_format="pyarrow"):
        edges.update(
            zip(blk.column("a").to_pylist(), blk.column("b").to_pylist())
        )
        if len(edges) > MAX_DRIVER_EDGES:
            raise RuntimeError(
                f"minhash verify produced > {MAX_DRIVER_EDGES:,} confirmed "
                "near-dup edges — the driver-side edge set would not fit; "
                "shard the corpus, raise the threshold, or raise "
                "dedup.MAX_DRIVER_EDGES explicitly"
            )
    LAST_DRIVER_EDGES = len(edges)
    return sorted(edges)


def minhash_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    distributed_filter: bool = False,
) -> rd.Dataset:
    """Near-dup removal: drop each doc confirmed >= threshold similar to a
    smaller key (see :func:`_minhash_verified_edges_ds` for the
    distributed verify shape).

    Default filter: the confirmed-drop key set broadcasts once
    (`ray.put`) and the corpus streams through a vectorized inverted
    `pc.is_in` — one pass, no shuffle, right while the drop set fits the
    object store (it is bounded by MAX_DRIVER_EDGES). With
    ``distributed_filter=True`` the drop keys stay a DATASET (edges ->
    distinct larger keys) and the corpus anti-joins them through one
    bucketed hash shuffle — nothing edge-sized on the driver, the scale
    path when confirmed near-dups outgrow a sane broadcast."""
    import ray
    import pyarrow.compute as pc

    if distributed_filter:
        verified, kt = _minhash_verified_edges_ds(
            ds, text_col, key_col, threshold, num_perm, bands, shingle_k
        )
        if verified is None:
            return ds

        def drop_rows(t: pa.Table) -> pa.Table:
            # the LARGER key of each verified edge is the drop; in-batch
            # dedupe (full dedupe happens inside the join's key buckets)
            b = t.column("b")
            if isinstance(b, pa.ChunkedArray):
                b = b.combine_chunks()
            return pa.table({"_drop_key": pc.unique(b)})

        drops = verified.map_batches(drop_rows, batch_format="pyarrow")
        return joins.hash_join(
            ds, drops, left_key=key_col, right_key="_drop_key", how="anti"
        )

    edges = _minhash_verified_pairs(
        ds, text_col, key_col, threshold, num_perm, bands, shingle_k
    )
    return _drop_edge_b(ds, edges, key_col)


# ---------------------------------------------------------------------------
# n-gram Jaccard dedup: EXACT candidates from shared rare grams (no
# MinHash approximation), then the same distributed verify machinery
# ---------------------------------------------------------------------------


def ngram_candidate_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    shingle_k: int = 5,
    max_df: int = 8,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Candidate near-dup pairs from SHARED RARE char-k-grams: two docs
    are candidates iff they share at least one gram whose corpus
    document-frequency is in [2, max_df].

    This is the exact-Jaccard analogue of LSH banding: instead of a
    probabilistic signature collision, candidacy is a set-intersection
    witness. The df cap bounds the quadratic blowup — a gram shared by
    df docs contributes C(df, 2) pairs, so per-gram work is <= C(max_df,
    2); ubiquitous grams (stopwords, padding) are exactly the ones that
    carry no near-dup signal. Recall tradeoff, stated: a pair whose
    every shared gram has df > max_df is missed — near-dups share many
    grams, and at any realistic corpus size their shared RARE grams
    (names, numbers, typos) dominate.

    Scale shape: one (gram-hash, key) row per distinct doc gram — the
    shuffle payload is 16-byte rows, never text; bucket = splitmix64(h)
    mod corpus-scaled fan-out, and since bucket is a function of the
    gram, each gram's full df lands in ONE bucket, making the df filter
    exact without a global pass. The same pair can emerge from rare
    grams in different buckets; duplicates cost only redundant verify
    work (bounded by shared-rare-gram count) and collapse at the drop
    set."""
    nb = n_buckets or util.scaled_buckets(ds)

    def gram_rows(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_pylist()
        texts = t.column(text_col).to_pylist()
        kt = t.schema.field(key_col).type
        hs, ks = [], []
        for key, text in zip(keys, texts):  # shingling is per-doc; numpy inside
            h = _shingle_hashes(text or "", shingle_k)
            hs.append(h)
            ks.extend([key] * len(h))
        flat = np.concatenate(hs) if hs else np.zeros(0, dtype=np.uint64)
        bucket = (detmix.splitmix64(flat) % np.uint64(nb)).astype(np.int32)
        return pa.table(
            {
                "_b": pa.array(bucket),
                "h": pa.array(flat.view(np.int64)),
                "k": pa.array(ks, type=kt),
            }
        )

    kt = ds.schema().base_schema.field(key_col).type

    def bucket_pairs(g: pa.Table) -> pa.Table:
        df = g.select(["h", "k"]).to_pandas()
        cnt = df["h"].map(df["h"].value_counts())
        df = df[(cnt >= 2) & (cnt <= max_df)]
        if df.empty:
            return pa.table({"a": pa.array([], kt), "b": pa.array([], kt)})
        m = df.merge(df, on="h")
        m = m[m["k_x"] < m["k_y"]][["k_x", "k_y"]].drop_duplicates()
        return pa.table(
            {
                "a": pa.array(m["k_x"].to_numpy(), type=kt),
                "b": pa.array(m["k_y"].to_numpy(), type=kt),
            }
        )

    grams = util.clean_dataset(ds).map_batches(gram_rows, batch_format="pyarrow", batch_size=4096)
    return util.bucketed(grams, "_b", bucket_pairs)


def jaccard_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    threshold: float = 0.8,
    shingle_k: int = 5,
    max_df: int = 8,
) -> rd.Dataset:
    """EXACT n-gram Jaccard near-dup removal (no MinHash approximation):
    rare-gram candidate pairs (:func:`ngram_candidate_pairs`) through the
    same distributed pair->text fetch + in-bucket exact-Jaccard verify as
    MinHash (:func:`_minhash_verified_edges_ds`), dropping the larger key
    of every pair with Jaccard >= threshold. Same keep-rule, same
    verify kernel — only candidate generation differs, so the two
    pipelines' precision is identical and recall differs exactly by
    (LSH collision probability) vs (shared-rare-gram witness)."""
    pairs = ngram_candidate_pairs(ds, text_col, key_col, shingle_k, max_df)
    edges = _minhash_verified_pairs(
        ds, text_col, key_col, threshold, shingle_k=shingle_k,
        pairs_override=pairs,
    )
    return _drop_edge_b(ds, edges, key_col)


def _drop_edge_b(ds: rd.Dataset, edges: list[tuple], key_col: str) -> rd.Dataset:
    """Drop every edge's `b` key (the dedup keep-rule's loser side) via
    one ray.put broadcast + streaming anti-filter — shared by the
    jaccard and containment paths."""
    import ray
    import pyarrow.compute as pc

    drop_keys = sorted({b for _, b in edges})
    if not drop_keys:
        return ds
    drop_ref = ray.put(pa.array(drop_keys))

    def filter_batch(t: pa.Table) -> pa.Table:
        d = ray.get(drop_ref)
        return t.filter(pc.invert(pc.is_in(t.column(key_col), d)))

    return ds.map_batches(filter_batch, batch_format="pyarrow")


def jaccard_oracle_sql(
    table: str = "documents",
    text_col: str = "text",
    key_col: str = "doc_id",
    threshold: float = 0.8,
    max_df: int = 8,
) -> str:
    """ANSI-SQL (DuckDB) replica of :func:`jaccard_dedup`: the same
    char-5-gram rolling hash as the minhash oracle (base 257 mod 2^61-1,
    every term < 2^43 so plain BIGINT), rare-gram candidacy (df in
    [2, max_df]), exact Jaccard over distinct gram sets, drop the larger
    key of every pair >= threshold. ASCII corpora only (same caveat as
    minhash_oracle_sql)."""
    return f"""
WITH d AS (
  SELECT {key_col} AS k, {text_col} AS t,
         greatest(length({text_col}), 5) - 4 AS n_grams
  FROM {table}
),
ix AS (SELECT k, t, unnest(generate_series(1, n_grams)) AS i FROM d),
sh AS (
  SELECT DISTINCT k,
    ( (CASE WHEN i   <= length(t) THEN ascii(substr(t, i::INT,   1)) ELSE 0 END) * 4362470401
    + (CASE WHEN i+1 <= length(t) THEN ascii(substr(t, i::INT+1, 1)) ELSE 0 END) * 16974593
    + (CASE WHEN i+2 <= length(t) THEN ascii(substr(t, i::INT+2, 1)) ELSE 0 END) * 66049
    + (CASE WHEN i+3 <= length(t) THEN ascii(substr(t, i::INT+3, 1)) ELSE 0 END) * 257
    + (CASE WHEN i+4 <= length(t) THEN ascii(substr(t, i::INT+4, 1)) ELSE 0 END)
    ) % {_MERSENNE} AS h
  FROM ix
),
rare AS (SELECT h FROM sh GROUP BY h HAVING count(*) BETWEEN 2 AND {max_df}),
pairs AS (
  SELECT DISTINCT sa.k AS a, sb.k AS b
  FROM rare r JOIN sh sa ON sa.h = r.h JOIN sh sb ON sb.h = r.h AND sa.k < sb.k
),
sizes AS (SELECT k, count(*) AS ns FROM sh GROUP BY 1),
inter AS (
  SELECT p.a, p.b, count(*) AS ni
  FROM pairs p JOIN sh sa ON sa.k = p.a JOIN sh sb ON sb.k = p.b AND sb.h = sa.h
  GROUP BY 1, 2
),
drops AS (
  SELECT DISTINCT p.b FROM pairs p
  JOIN sizes za ON za.k = p.a
  JOIN sizes zb ON zb.k = p.b
  JOIN inter i ON i.a = p.a AND i.b = p.b
  WHERE i.ni::DOUBLE / (za.ns + zb.ns - i.ni) >= {threshold}
)
SELECT * FROM {table} WHERE {key_col} NOT IN (SELECT b FROM drops)
"""


def containment_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    threshold: float = 0.9,
    shingle_k: int = 5,
    max_df: int = 8,
) -> rd.Dataset:
    """Asymmetric CONTAINMENT near-dup removal: drop a doc when
    |grams(A) ∩ grams(B)| / min(|grams(A)|, |grams(B)|) >= threshold for
    some candidate pair — the quote / boilerplate-embedding /
    partial-duplication case Jaccard structurally misses (a short doc
    fully quoted inside a long one has tiny Jaccard but containment 1).
    The CONTAINED doc (smaller gram set) drops; ties drop the larger
    key. Candidates come from the shared-rare-gram witness
    (:func:`ngram_candidate_pairs`); the verify runs through the same
    distributed pair->text fetch as MinHash/Jaccard with
    ``metric="containment"``."""
    pairs = ngram_candidate_pairs(ds, text_col, key_col, shingle_k, max_df)
    edges = _minhash_verified_pairs(
        ds, text_col, key_col, threshold, shingle_k=shingle_k,
        pairs_override=pairs, metric="containment",
    )
    # containment edges are (kept, dropped): b is the contained doc
    return _drop_edge_b(ds, edges, key_col)


def containment_oracle_sql(
    table: str = "documents",
    text_col: str = "text",
    key_col: str = "doc_id",
    threshold: float = 0.9,
    max_df: int = 8,
) -> str:
    """DuckDB replica of :func:`containment_dedup`: the jaccard oracle's
    rare-gram CTE chain with sim = ni / least(ns_a, ns_b) and the
    contained-doc drop rule (smaller gram set drops; ties drop the
    larger key — pairs have a < b, so the tie drop is b)."""
    return f"""
WITH d AS (
  SELECT {key_col} AS k, {text_col} AS t,
         greatest(length({text_col}), 5) - 4 AS n_grams
  FROM {table}
),
ix AS (SELECT k, t, unnest(generate_series(1, n_grams)) AS i FROM d),
sh AS (
  SELECT DISTINCT k,
    ( (CASE WHEN i   <= length(t) THEN ascii(substr(t, i::INT,   1)) ELSE 0 END) * 4362470401
    + (CASE WHEN i+1 <= length(t) THEN ascii(substr(t, i::INT+1, 1)) ELSE 0 END) * 16974593
    + (CASE WHEN i+2 <= length(t) THEN ascii(substr(t, i::INT+2, 1)) ELSE 0 END) * 66049
    + (CASE WHEN i+3 <= length(t) THEN ascii(substr(t, i::INT+3, 1)) ELSE 0 END) * 257
    + (CASE WHEN i+4 <= length(t) THEN ascii(substr(t, i::INT+4, 1)) ELSE 0 END)
    ) % {_MERSENNE} AS h
  FROM ix
),
rare AS (SELECT h FROM sh GROUP BY h HAVING count(*) BETWEEN 2 AND {max_df}),
pairs AS (
  SELECT DISTINCT sa.k AS a, sb.k AS b
  FROM rare r JOIN sh sa ON sa.h = r.h JOIN sh sb ON sb.h = r.h AND sa.k < sb.k
),
sizes AS (SELECT k, count(*) AS ns FROM sh GROUP BY 1),
inter AS (
  SELECT p.a, p.b, count(*) AS ni
  FROM pairs p JOIN sh sa ON sa.k = p.a JOIN sh sb ON sb.k = p.b AND sb.h = sa.h
  GROUP BY 1, 2
),
drops AS (
  SELECT DISTINCT CASE WHEN za.ns < zb.ns THEN p.a
                       WHEN zb.ns < za.ns THEN p.b
                       ELSE p.b END AS dk
  FROM pairs p
  JOIN sizes za ON za.k = p.a
  JOIN sizes zb ON zb.k = p.b
  JOIN inter i ON i.a = p.a AND i.b = p.b
  WHERE i.ni::DOUBLE / least(za.ns, zb.ns) >= {threshold}
)
SELECT * FROM {table} WHERE {key_col} NOT IN (SELECT dk FROM drops)
"""


def minhash_pairs_scored(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
) -> rd.Dataset:
    """The near-dup SIMILARITY REPORT: verified pairs WITH their exact
    Jaccard as integer micro-units — (a, b, sim_micro), a < b,
    sim_micro = (|A∩B| * 1e6) // |A∪B| (pure integer floor, never the
    float). The audit surface behind dedup decisions: threshold tuning,
    duplicate-cluster inspection, per-pair evidence. Distributed shape =
    the shared verify engine; the result is edge-sized."""
    verified, kt = _minhash_verified_edges_ds(
        ds, text_col, key_col, threshold, num_perm, bands, shingle_k,
        emit_score=True,
    )
    if verified is None:
        # keep the corpus's key type even on the empty path
        ekt = ds.schema().base_schema.field(key_col).type
        return rd.from_arrow(
            pa.table(
                {
                    "a": pa.array([], ekt),
                    "b": pa.array([], ekt),
                    "sim_micro": pa.array([], pa.int64()),
                }
            )
        )

    def dedup_rows(t: pa.Table) -> pa.Table:
        # the same (a, b) can verify in multiple buckets; scores agree,
        # keep one
        df = t.to_pandas().drop_duplicates(subset=["a", "b"])
        return pa.table(
            {
                "a": pa.array(df["a"].to_numpy(), type=kt),
                "b": pa.array(df["b"].to_numpy(), type=kt),
                "sim_micro": pa.array(df["sim_micro"].to_numpy(np.int64)),
            }
        )

    # global dedup of cross-bucket repeats: bucket by hash(a) so equal
    # pairs co-locate
    nb = util.scaled_buckets(ds)

    def add_b(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_b", pa.array(joins._bucket_ids(t.column("a"), nb))
        )

    return util.bucketed(verified.map_batches(add_b, batch_format="pyarrow"), "_b", dedup_rows)


def minhash_pairs_oracle_sql(
    table: str = "documents",
    text_col: str = "text",
    key_col: str = "doc_id",
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
) -> str:
    """DuckDB replica of minhash_pairs_scored: the shared pair CTE
    chain, qualifying pairs with (ni * 1e6) // union."""
    prefix = _minhash_pair_ctes(table, text_col, key_col, num_perm, bands)
    return f"""{prefix}
SELECT p.a, p.b,
  ((coalesce(i.ni, 0) * 1000000) // (za.ns + zb.ns - coalesce(i.ni, 0)))::BIGINT
    AS sim_micro
FROM pairs p
JOIN sizes za ON za.k = p.a
JOIN sizes zb ON zb.k = p.b
LEFT JOIN inter i ON i.a = p.a AND i.b = p.b
WHERE coalesce(i.ni, 0)::DOUBLE / (za.ns + zb.ns - coalesce(i.ni, 0)) >= {threshold}
"""


def minhash_clusters(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
) -> rd.Dataset:
    """Annotate every doc with `cluster_id` = the MIN key of its near-dup
    connected component — transitive closure over the verified LSH edge
    set (a~b, b~c => all three share cluster a even if a~c was never a
    candidate pair). Singletons get their own key.

    Scale: the edge set is O(VERIFIED pairs) — orders of magnitude below
    candidate pairs at any realistic precision, and guarded by
    MAX_DRIVER_EDGES (loud failure, never silent driver exhaustion) — so
    the union-find runs on the driver over KEYS ONLY; the key->cluster
    map broadcasts once and the corpus streams through one vectorized
    searchsorted annotate. Past the ceiling, label-propagation over the
    edge Dataset is the escape hatch (not implemented: 50M edges of keys
    is ~2 GB, far beyond any bench corpus). The SQL twin
    (`minhash_clusters_oracle_sql`) closes the same edge set with a
    recursive CTE."""
    import ray

    edges = _minhash_verified_pairs(
        ds, text_col, key_col, threshold, num_perm, bands, shingle_k
    )
    # union-find, min key as representative: union attaches the larger
    # root under the smaller, so every root is its component's minimum
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    touched = {k for e in edges for k in e}
    keys = np.array(sorted(touched))
    reps = np.array([find(k) for k in keys.tolist()])
    map_ref = ray.put((keys, reps))

    def annotate(t: pa.Table) -> pa.Table:
        ks, rs = ray.get(map_ref)
        k = t.column(key_col).to_numpy(zero_copy_only=False)
        if len(ks):
            pos = np.searchsorted(ks, k).clip(max=len(ks) - 1)
            hit = ks[pos] == k
            cid = np.where(hit, rs[pos], k)
        else:
            cid = k
        return t.append_column("cluster_id", pa.array(cid, type=t.column(key_col).type))

    return ds.map_batches(annotate, batch_format="pyarrow")


def label_propagate_min(
    edges_ds: rd.Dataset,
    kt: pa.DataType,
    max_rounds: int = 64,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Distributed connected components over an EDGE Dataset of (a, b)
    rows -> a (node, lab) Dataset where `lab` is the MIN key of each
    node's component. Min-label propagation iterated to a fixed point;
    NO driver structure scales with edge or node count.

    Round shape (every step a corpus-scaled bucketed shuffle):
      labels(v) <- v                          (endpoints label themselves)
      repeat:
        labels(v) <- min(labels(v), min over edges (u,v) of labels(u),
                         labels(labels(v)))          # pointer jumping
      until the label multiset's uint64 fingerprint (per-block partial
      sums of string_hash64(node || 0x1f || label); the driver folds
      O(blocks) partials) stops changing. Labels only ever decrease, so
      a stable fingerprint IS a fixed point. The labels(labels(v)) term
      is shortcutting: each round the label table itself re-enters the
      propagation as edges (labels(v), v) — sound because labels(v) is
      always a member of v's component (it starts as v and only ever
      takes mins over component members), so the fixed point (component
      min) is untouched while chains collapse in O(log diameter) rounds
      instead of O(diameter); `max_rounds` fails loudly, never
      silently."""
    import pandas as pd
    import pyarrow.compute as pc

    if n_buckets is None:
        # Materialize BEFORE sizing the fan-out: a lazy edge Dataset has
        # no size metadata, so scaled_buckets would fall back to its
        # historical 256 constant — 8x over-fan-out per round for small
        # edge sets. The edges are materialized one map later anyway
        # (the per-round `sym` topology), so this costs nothing extra.
        edges_ds = edges_ds.materialize()
        nb = util.scaled_buckets(edges_ds)
    else:
        nb = n_buckets

    def _c(col):
        return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col

    empty_prop = pa.table(
        {
            "_b": pa.array([], pa.int32()),
            "u": pa.array([], kt),
            "v": pa.array([], kt),
            "lab": pa.array([], kt),
            "kind": pa.array([], pa.int8()),
        }
    )
    empty_lab = pa.table({"node": pa.array([], kt), "lab": pa.array([], kt)})

    def to_sym(t: pa.Table) -> pa.Table:
        """Edges -> both directions, bucketed on hash(u) (the label-source
        end) so one groupby co-locates each node's label with every edge
        it must push that label across."""
        u = pa.concat_arrays([_c(t.column("a")), _c(t.column("b"))])
        v = pa.concat_arrays([_c(t.column("b")), _c(t.column("a"))])
        return pa.table(
            {
                "_b": pa.array(_verify_buckets(u, nb)),
                "u": u,
                "v": v,
                "lab": pa.nulls(len(u), kt),
                "kind": pa.array(np.zeros(len(u), dtype=np.int8)),
            }
        )

    # the edge topology is re-shuffled every round: materialize once
    sym = edges_ds.map_batches(to_sym, batch_format="pyarrow").materialize()

    def tag_node(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_mb", pa.array(_verify_buckets(t.column("node"), nb))
        )

    def min_bucket(g: pa.Table) -> pa.Table:
        df = pa.table(
            {"node": _c(g.column("node")), "lab": _c(g.column("lab"))}
        ).to_pandas()
        m = df.groupby("node", sort=False)["lab"].min()
        return pa.table(
            {
                "node": pa.array(m.index.to_numpy(), type=kt),
                "lab": pa.array(m.to_numpy(), type=kt),
            }
        )

    def init_labels(t: pa.Table) -> pa.Table:
        u = _c(t.column("u"))
        return pa.table({"node": u, "lab": u})

    def pad_labels(t: pa.Table) -> pa.Table:
        n = _c(t.column("node"))
        return pa.table(
            {
                "_b": pa.array(_verify_buckets(n, nb)),
                "u": n,
                "v": pa.nulls(t.num_rows, kt),
                "lab": _c(t.column("lab")),
                "kind": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        )

    def shortcut_edges(t: pa.Table) -> pa.Table:
        """Labels -> pointer-jump edges (u=labels(v), v): v then receives
        labels(labels(v)) from emit_msgs, collapsing label chains
        logarithmically. Self-labels (lab==node) are dropped — they would
        only echo the node's own label back."""
        keep = pc.invert(pc.equal(t.column("node"), t.column("lab")))
        t = t.filter(keep)
        if t.num_rows == 0:
            return empty_prop
        lab = _c(t.column("lab"))
        return pa.table(
            {
                "_b": pa.array(_verify_buckets(lab, nb)),
                "u": lab,
                "v": _c(t.column("node")),
                "lab": pa.nulls(t.num_rows, kt),
                "kind": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        )

    def emit_msgs(g: pa.Table) -> pa.Table:
        """One u-bucket: join labels(u) onto edges (u, v) -> messages
        (v, labels(u))."""
        kinds = np.asarray(g.column("kind"))
        lab_rows = g.filter(pa.array(kinds == 1))
        edge_rows = g.filter(pa.array(kinds == 0))
        if edge_rows.num_rows == 0 or lab_rows.num_rows == 0:
            return empty_lab
        lab = pd.Series(
            lab_rows.column("lab").to_pylist(),
            index=lab_rows.column("u").to_pylist(),
        )
        lab = lab.groupby(level=0).min()  # defensive: pre-min dup labels
        src = pd.Index(edge_rows.column("u").to_pylist()).map(lab)
        out = pd.DataFrame(
            {"node": edge_rows.column("v").to_pylist(), "lab": src}
        ).dropna(subset=["lab"])
        return pa.table(
            {
                "node": pa.array(out["node"].to_numpy(), type=kt),
                "lab": pa.array(out["lab"].to_numpy(), type=kt),
            }
        )

    def fp_partial(t: pa.Table) -> pa.Table:
        """Per-block (fingerprint, row-count) partial of the label set."""
        joined = pc.binary_join_element_wise(
            _c(t.column("node")).cast(pa.string()),
            _c(t.column("lab")).cast(pa.string()),
            "\x1f",
        )
        h = detmix.string_hash64(joined.to_pandas().to_numpy(dtype=object))
        return pa.table(
            {
                "fp": pa.array([int(h.sum(dtype=np.uint64))], pa.uint64()),
                "n": pa.array([t.num_rows], pa.int64()),
            }
        )

    def _fingerprint(labels: rd.Dataset) -> tuple[int, int]:
        fp, n = 0, 0
        for blk in labels.map_batches(
            fp_partial, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow"):
            fp = (fp + int(np.asarray(blk.column("fp")).sum() % (1 << 64))) % (1 << 64)
            n += int(np.asarray(blk.column("n")).sum())
        return fp, n

    # Block-count discipline: union sums its inputs' block counts and
    # groupby preserves them, so without a bound the label blocks would
    # TRIPLE per round (union of msgs+labels+shortcut) — exponential
    # scheduling overhead by round ~6. repartition(nb) pins the round
    # state at nb blocks; nb is corpus-scaled, so block size stays sane.
    tagged = sym.map_batches(init_labels, batch_format="pyarrow").map_batches(
        tag_node, batch_format="pyarrow"
    )
    labels = util.bucketed(tagged, "_mb", min_bucket).repartition(nb).materialize()
    import os as _os
    import time as _time

    _dbg = bool(_os.environ.get("RAQUET_LP_DEBUG"))
    prev = _fingerprint(labels)
    for _rnd in range(max_rounds):
        _t0 = _time.time()
        props = sym.union(
            labels.map_batches(pad_labels, batch_format="pyarrow"),
            labels.map_batches(shortcut_edges, batch_format="pyarrow"),
        )
        msgs = util.bucketed(props, "_b", emit_msgs)
        tagged = msgs.union(labels).map_batches(tag_node, batch_format="pyarrow")
        labels = util.bucketed(tagged, "_mb", min_bucket).repartition(nb).materialize()
        cur = _fingerprint(labels)
        if _dbg:
            print(
                f"[lp] round {_rnd}: {_time.time() - _t0:.1f}s "
                f"fp={cur[0]:#x} n={cur[1]} blocks={labels.num_blocks()}",
                flush=True,
            )
        if cur == prev:
            break
        prev = cur
    else:
        raise RuntimeError(
            f"label propagation did not converge in {max_rounds} rounds — "
            "pathological component diameter; raise max_rounds"
        )
    return labels


def minhash_clusters_lp(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    max_rounds: int = 64,
) -> rd.Dataset:
    """`cluster_id` = min key of the near-dup connected component — the
    fully DISTRIBUTED twin of :func:`minhash_clusters`: the verified-edge
    Dataset flows through :func:`label_propagate_min` (see its docstring
    for the round shape and convergence proof), so NO driver structure
    scales with the edge count (this is the escape hatch minhash_clusters
    documents for edge sets past MAX_DRIVER_EDGES; same output, same SQL
    oracle). The final corpus annotate is a bucketed left hash_join
    (labels may be corpus-order at worst — they are never broadcast);
    untouched keys cluster as themselves."""
    import pyarrow.compute as pc

    edges_ds, kt = _minhash_verified_edges_ds(
        ds, text_col, key_col, threshold, num_perm, bands, shingle_k
    )
    if edges_ds is None:  # no candidates: every doc is its own cluster
        return ds.map_batches(
            lambda t: t.append_column("cluster_id", t.column(key_col)),
            batch_format="pyarrow",
        )
    labels = label_propagate_min(edges_ds, kt, max_rounds)

    joined = joins.hash_join(
        ds,
        labels,
        left_key=key_col,
        right_key="node",
        right_cols=["lab"],
        how="left",
    )

    def finish(t: pa.Table) -> pa.Table:
        lab = t.column("lab")
        cid = pc.coalesce(lab, t.column(key_col))
        return t.drop_columns(["lab"]).append_column("cluster_id", cid)

    return joined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


# splitmix64 finalizer constants (Steele/Lea/Flood, public domain PRNG —
# used here only as a bit mixer so short words still spread over 64 bits)
# word hash: byte-polynomial base 257 mod 2^64 + splitmix64 — chosen over
# pandas' siphash because every step is plain modular integer arithmetic,
# exactly replicable in ANSI SQL (simhash_oracle_sql), which graduates
# SimHash dedup from rows-only to a full value-checked oracle. The shared
# kernel (also behind mixture sampling / epoch ordering) lives in
# functions/detmix.py.
_word_hashes = detmix.string_hash64


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """64-bit SimHash fingerprint per document from word hashes.

    Vectorized across the whole batch: ALL words of all documents are
    hashed in ONE _word_hashes call (elementwise-stable polynomial +
    splitmix64 — SQL-replicable, see simhash_oracle_sql), then each
    bit's +1/-1 vote is segment-summed per document with a cumsum
    difference — 64 C passes instead of a Python loop per doc."""
    batch = util.strip_schema_metadata(batch)  # pandas-written parquet input
    lens, hs = words.split_ws_hashes(batch.column(text_col))
    n_docs = batch.num_rows
    fps = np.zeros(n_docs, dtype=np.uint64)
    total = int(lens.sum())
    if total:
        offsets = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        ne = lens > 0
        votes_pos = np.empty((int(ne.sum()), 64), dtype=np.uint8)
        csum = np.zeros(total + 1, dtype=np.int64)
        for b in range(64):
            bit = ((hs >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
            np.cumsum(bit, out=csum[1:])
            ones = csum[offsets[1:][ne]] - csum[offsets[:-1][ne]]
            votes_pos[:, b] = (2 * ones - lens[ne]) > 0  # sum(2*bit-1) > 0
        fps[ne] = np.packbits(votes_pos, axis=1, bitorder="little").view(np.uint64).ravel()
    return batch.append_column("simhash", pa.array(fps.astype(np.int64), type=pa.int64()))


def simhash_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Drop docs whose exact SimHash fingerprint collides with a smaller
    key (identical-fingerprint dedup; near-dup variants band the 64 bits)."""
    nb = n_buckets or util.scaled_buckets(ds)

    def bucketed(b: pa.Table) -> pa.Table:
        t = simhash_batch(b, text_col)
        # pre-mix: simhash bits are per-position majority votes, NOT a
        # uniform hash — low bits carry vocabulary structure that a plain
        # modulus would turn into bucket skew
        fp = t.column("simhash").to_numpy().view(np.uint64)
        bucket = (detmix.splitmix64(fp) % np.uint64(nb)).astype(np.int32)
        return t.append_column("_b", pa.array(bucket))

    def keep_first(g: pa.Table) -> pa.Table:
        df = g.select(["simhash", key_col]).to_pandas()
        idx = df.groupby("simhash", sort=True)[key_col].idxmin()
        keep = np.sort(idx.to_numpy())
        return g.take(pa.array(keep)).drop_columns(["simhash", "_b"])

    return util.bucketed(ds.map_batches(bucketed, batch_format="pyarrow"), "_b", keep_first)


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------


def _greedy_keep(mn: np.ndarray, threshold: float, block: int = 2048) -> np.ndarray:
    """Indices kept by the greedy smallest-key-anchor rule over normalized
    vectors ``mn`` (rows must already be in keep-priority order): a row
    survives iff no EARLIER SURVIVING row has cosine >= threshold with it.

    Blocked so a degenerate LSH cell (e.g. thousands of identical vectors
    landing in one cell) costs O(block^2) peak memory instead of an
    unbounded c x c similarity matrix (VERDICT r1 flagged the missing
    cap): each block is screened against previously kept vectors in
    block-sized tiles, then greedily deduped within the block — byte-for-
    byte the same survivors as the single-matrix version."""
    n = len(mn)
    keep: list[int] = []
    for s in range(0, n, block):
        chunk = mn[s : s + block]
        m = len(chunk)
        alive = np.ones(m, dtype=bool)
        for t0 in range(0, len(keep), block):
            kb = mn[np.asarray(keep[t0 : t0 + block], dtype=np.int64)]
            alive &= ~((chunk @ kb.T) >= threshold).any(axis=1)
        sims = chunk @ chunk.T
        for i in range(m):
            if alive[i]:
                alive[i + 1 :] &= sims[i, i + 1 :] < threshold
        keep.extend(int(s + i) for i in np.flatnonzero(alive))
    return np.asarray(keep, dtype=np.int64)


def embedding_dedup(
    ds: rd.Dataset,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    threshold: float = 0.98,
    n_planes: int = 12,
    seed: int = 42,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Near-dup by cosine >= threshold. Random-hyperplane LSH buckets the
    shuffle (vectors with cosine ~1 land in the same bucket whp); exact
    pairwise cosine verifies within each bucket; the larger key of each
    confirmed pair is dropped."""
    nb = n_buckets or util.scaled_buckets(ds)

    def bucketize(batch: pa.Table) -> pa.Table:
        arr = batch.column(vec_col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        dim = len(arr[0].as_py())
        rng = np.random.default_rng(seed)
        planes = rng.normal(size=(dim, n_planes))
        m = np.asarray(arr.flatten().to_numpy(zero_copy_only=False), dtype=np.float64).reshape(len(arr), dim)
        bits = (m @ planes > 0).astype(np.uint64)
        bucket = (bits << np.arange(n_planes, dtype=np.uint64)[None, :]).sum(axis=1)
        return batch.append_column("_bucket", pa.array(bucket.astype(np.int64)))

    def dedup_shuffle_bucket(part: pa.Table) -> pa.Table:
        # one coarse shuffle bucket may hold many LSH cells; dedup each
        # cell independently (identical semantics to a per-cell shuffle)
        df = pd.DataFrame(
            {
                "_bucket": part.column("_bucket").to_pandas(),
                key_col: part.column(key_col).to_pandas(),
                "_pos": np.arange(part.num_rows),
            }
        )
        dim = len(part.column(vec_col)[0])
        vecs = part.column(vec_col)
        if isinstance(vecs, pa.ChunkedArray):
            vecs = vecs.combine_chunks()
        mat = vecs.flatten().to_numpy(zero_copy_only=False).astype(np.float64).reshape(-1, dim)
        keep_pos: list[int] = []
        for _, g in df.groupby("_bucket", sort=True):
            g = g.sort_values(key_col)
            pos = g["_pos"].to_numpy()
            m = mat[pos]
            norms = np.linalg.norm(m, axis=1)
            norms[norms == 0] = 1.0
            mn = m / norms[:, None]
            keep_pos.extend(int(p) for p in pos[_greedy_keep(mn, threshold)])
        out = part.take(pa.array(sorted(keep_pos)))
        return out.drop_columns(["_bucket", "_sb"])

    bucketed = util.clean_dataset(ds).map_batches(bucketize, batch_format="pyarrow", batch_size=8192)
    # pre-mix before the modulus: _bucket is a SMALL sign-pattern integer
    # (< 2^n_planes) whose low bits are plane outcomes, not hash entropy
    bucketed = bucketed.map_batches(
        lambda t: t.append_column(
            "_sb",
            pa.array(
                (
                    detmix.splitmix64(
                        t.column("_bucket").to_numpy().astype(np.uint64)
                    )
                    % np.uint64(nb)
                ).astype(np.int32)
            ),
        ),
        batch_format="pyarrow",
    )
    return util.bucketed(bucketed, "_sb", dedup_shuffle_bucket)


# ---------------------------------------------------------------------------
# SQL parity oracle
# ---------------------------------------------------------------------------


def _minhash_perms_values(num_perm: int) -> str:
    a, b = _perms(num_perm)
    return ", ".join(
        f"({p}, {int(a[p])}::HUGEINT, {int(b[p])}::HUGEINT)" for p in range(num_perm)
    )


def _minhash_cells_ctes(
    table: str,
    text_col: str,
    key_col: str,
    num_perm: int,
    bands: int,
    *,
    suffix: str = "",
) -> str:
    """The shingle -> signature -> band-fold chain as suffixable CTEs
    (`d{suffix}` .. `cells{suffix}`, plus `sh{suffix}` for Jaccard
    consumers) so one query can compute band cells for TWO tables (the
    incremental-index oracle). References the shared `perms` CTE; no
    leading WITH."""
    rows_per_band = num_perm // bands
    T = 1 << 64
    offset_basis = 1469598103934665603
    prime = 1099511628211
    c1 = (offset_basis * prime) % T

    s_cols = ", ".join(
        f"max(CASE WHEN p % {rows_per_band} = {r} THEN s END) AS s{r}"
        for r in range(rows_per_band)
    )
    fnv = f"xor({c1}::UBIGINT, s0)"
    for r in range(1, rows_per_band):
        fnv = f"xor((({fnv}::HUGEINT * {prime}) % {T})::UBIGINT, s{r})"
    x = suffix
    return f"""d{x} AS (
  SELECT {key_col} AS k, {text_col} AS t, greatest(length({text_col}), 5) - 4 AS n_grams
  FROM {table}
),
ix{x} AS (SELECT k, t, unnest(generate_series(1, n_grams)) AS i FROM d{x}),
sh{x} AS (
  SELECT DISTINCT k,
    ( (CASE WHEN i   <= length(t) THEN ascii(substr(t, i::INT,   1)) ELSE 0 END) * 4362470401
    + (CASE WHEN i+1 <= length(t) THEN ascii(substr(t, i::INT+1, 1)) ELSE 0 END) * 16974593
    + (CASE WHEN i+2 <= length(t) THEN ascii(substr(t, i::INT+2, 1)) ELSE 0 END) * 66049
    + (CASE WHEN i+3 <= length(t) THEN ascii(substr(t, i::INT+3, 1)) ELSE 0 END) * 257
    + (CASE WHEN i+4 <= length(t) THEN ascii(substr(t, i::INT+4, 1)) ELSE 0 END)
    ) % {_MERSENNE} AS h
  FROM ix{x}
),
sig{x} AS (
  SELECT k, p, (min( ((h::HUGEINT * pa) % {T} + pb) % {T} % {_MERSENNE} ))::UBIGINT AS s
  FROM sh{x} CROSS JOIN perms GROUP BY k, p
),
bandsig{x} AS (
  SELECT k, (p // {rows_per_band})::INT AS band_id, {s_cols}
  FROM sig{x} GROUP BY k, band_id
),
cells{x} AS (
  SELECT k, band_id, (({fnv}) >> 1)::BIGINT AS band_hash FROM bandsig{x}
)"""


def _minhash_pair_ctes(
    table: str,
    text_col: str,
    key_col: str,
    num_perm: int,
    bands: int,
    *,
    recursive: bool = False,
) -> str:
    """Shared DuckDB CTE chain (perms ... pairs/sizes/inter) behind the
    minhash oracles — ends after `inter` so callers append their own
    verdict CTEs. `recursive=True` emits WITH RECURSIVE for callers whose
    continuation contains a recursive CTE."""
    with_kw = "WITH RECURSIVE" if recursive else "WITH"
    cells = _minhash_cells_ctes(table, text_col, key_col, num_perm, bands)
    return f"""
{with_kw} perms(p, pa, pb) AS (VALUES {_minhash_perms_values(num_perm)}),
{cells},
anchors AS (SELECT band_id, band_hash, min(k) AS a FROM cells GROUP BY 1, 2),
pairs AS (
  SELECT DISTINCT an.a, c.k AS b
  FROM cells c JOIN anchors an USING (band_id, band_hash)
  WHERE c.k <> an.a
),
sizes AS (SELECT k, count(*) AS ns FROM sh GROUP BY 1),
inter AS (
  SELECT p.a, p.b, count(*) AS ni
  FROM pairs p JOIN sh sa ON sa.k = p.a JOIN sh sb ON sb.k = p.b AND sb.h = sa.h
  GROUP BY 1, 2
)"""


def minhash_oracle_sql(
    table: str = "documents",
    text_col: str = "text",
    key_col: str = "doc_id",
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
) -> str:
    """ANSI-SQL (DuckDB) replica of :func:`minhash_dedup` over `table` —
    the whole pipeline is deterministic, so near-dup removal is exactly
    value-checkable:

    - k=5-gram polynomial rolling hash (base 257 mod 2^61-1): every term
      < 2^43, plain BIGINT (see text.winnow oracle for the same kernel),
    - minhash sigs min((h*a + b) mod 2^64 mod M): the uint64 wrap is
      replicated with HUGEINT ``% 2^64``; (a, b) come from the same seeded
      generator as :func:`_perms`, inlined as a VALUES list,
    - FNV-1a-style band fold (xor/multiply mod 2^64) and ``>> 1``,
    - LSH cells -> (anchor=min key, member) pairs, exact-Jaccard verify
      over the distinct shingle sets, drop the member when >= threshold.

    ASCII corpora only (the gram hash reads UTF-8 BYTES; ascii(substr())
    equals the byte only for 7-bit text — true for the test tables)."""
    prefix = _minhash_pair_ctes(table, text_col, key_col, num_perm, bands)
    return f"""{prefix},
drops AS (
  SELECT DISTINCT p.b FROM pairs p
  JOIN sizes za ON za.k = p.a
  JOIN sizes zb ON zb.k = p.b
  LEFT JOIN inter i ON i.a = p.a AND i.b = p.b
  WHERE coalesce(i.ni, 0)::DOUBLE / (za.ns + zb.ns - coalesce(i.ni, 0)) >= {threshold}
)
SELECT * FROM {table} WHERE {key_col} NOT IN (SELECT b FROM drops)
"""


def minhash_clusters_oracle_sql(
    table: str = "documents",
    text_col: str = "text",
    key_col: str = "doc_id",
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
) -> str:
    """ANSI-SQL replica of :func:`minhash_clusters`: the SAME verified
    edge set as minhash_oracle_sql (pairs + exact Jaccard >= threshold),
    then a recursive min-label transitive closure — cluster_id = min key
    reachable through edges, singletons map to themselves."""
    prefix = _minhash_pair_ctes(
        table, text_col, key_col, num_perm, bands, recursive=True
    )
    return f"""{prefix},
edges AS (
  SELECT p.a, p.b FROM pairs p
  JOIN sizes za ON za.k = p.a
  JOIN sizes zb ON zb.k = p.b
  LEFT JOIN inter i ON i.a = p.a AND i.b = p.b
  WHERE coalesce(i.ni, 0)::DOUBLE / (za.ns + zb.ns - coalesce(i.ni, 0)) >= {threshold}
),
bidir AS (SELECT a, b FROM edges UNION SELECT b, a FROM edges),
nodes AS (SELECT a AS k FROM bidir GROUP BY 1),
reach(k, r) AS (
  SELECT k, k FROM nodes
  UNION
  SELECT e.b AS k, reach.r FROM reach JOIN bidir e ON e.a = reach.k
),
comp AS (SELECT k, min(r) AS cluster_id FROM reach GROUP BY k)
SELECT t.{key_col}, coalesce(comp.cluster_id, t.{key_col}) AS cluster_id
FROM {table} t LEFT JOIN comp ON comp.k = t.{key_col}
"""


def simhash_oracle_sql(
    table: str = "documents",
    text_col: str = "text",
    key_col: str = "doc_id",
) -> str:
    """ANSI-SQL (DuckDB) replica of :func:`simhash_dedup` over `table`:
    the word hash (_word_hashes: byte polynomial base 257 mod 2^64 +
    splitmix64) and the per-bit majority vote are plain modular integer
    arithmetic, so identical-fingerprint dedup is exactly value-checkable.
    ASCII corpora only (same caveat as minhash_oracle_sql)."""
    T = 1 << 64
    c1, c2, c3 = int(detmix.SM64_C1), int(detmix.SM64_C2), int(detmix.SM64_C3)
    # 257^j mod 2^64, j up to a generous word-length bound
    pw, acc = [], 1
    for _ in range(129):
        pw.append(acc)
        acc = (acc * 257) % T
    pow_vals = ", ".join(f"({j}, {v}::HUGEINT)" for j, v in enumerate(pw))
    # per-bit majority vote -> bit weight, summed into the unsigned fp
    fp_terms = " + ".join(
        f"(CASE WHEN sum(CASE WHEN (h >> {b}) & 1 = 1 THEN 1 ELSE -1 END) > 0 "
        f"THEN {1 << b}::HUGEINT ELSE 0::HUGEINT END)"
        for b in range(64)
    )
    return f"""
WITH pow257(j, v) AS (VALUES {pow_vals}),
w AS (
  -- wi disambiguates REPEATED words in a doc: each occurrence votes
  -- (parallel unnests zip positionally in DuckDB)
  SELECT {key_col} AS k,
    unnest(wl) AS word,
    unnest(generate_series(1, len(wl))) AS wi
  FROM (
    SELECT {key_col},
      list_filter(regexp_split_to_array(lower({text_col}), '[ \\t\\n\\r\\x0b\\x0c]+'), x -> x <> '') AS wl
    FROM {table}
  )
),
ch AS (
  -- words longer than the pow table must fail loudly, not lose terms to
  -- a silent join miss
  SELECT k, wi,
    CASE WHEN length(word) > 128
         THEN error('simhash oracle: word longer than pow257 table')
         ELSE word END AS word,
    unnest(generate_series(1, length(word))) AS i
  FROM w
),
raw AS (
  SELECT k, wi, (sum((ascii(substr(word, i::INT, 1))::HUGEINT * p.v) % {T}) % {T}) AS r
  FROM ch JOIN pow257 p ON p.j = length(ch.word) - ch.i
  GROUP BY k, wi, word, length(word)
),
z1 AS (SELECT k, ((r + {c1}) % {T})::UBIGINT AS z FROM raw),
-- (z * C) mod 2^64 with a 64x64 multiply would overflow INT128, so split
-- z into 32-bit halves: (lo*C mod 2^64 + (hi*C mod 2^32) << 32) mod 2^64
z2 AS (SELECT k, (
    ( ((xor(z, z >> 30) & 4294967295)::HUGEINT * {c2}) % {T}
    + (((xor(z, z >> 30) >> 32)::HUGEINT * {c2}) % 4294967296) * 4294967296
    ) % {T})::UBIGINT AS z FROM z1),
z3 AS (SELECT k, (
    ( ((xor(z, z >> 27) & 4294967295)::HUGEINT * {c3}) % {T}
    + (((xor(z, z >> 27) >> 32)::HUGEINT * {c3}) % 4294967296) * 4294967296
    ) % {T})::UBIGINT AS z FROM z2),
wh AS (SELECT k, xor(z, z >> 31) AS h FROM z3),
fpu AS (SELECT k, ({fp_terms}) AS fpu FROM wh GROUP BY k),
fp AS (
  SELECT d.{key_col} AS k,
    (CASE WHEN coalesce(f.fpu, 0) >= {1 << 63}::HUGEINT
          THEN coalesce(f.fpu, 0) - {T} ELSE coalesce(f.fpu, 0) END)::BIGINT AS simhash
  FROM {table} d LEFT JOIN fpu f ON f.k = d.{key_col}
)
SELECT * FROM {table}
WHERE {key_col} IN (SELECT min(k) FROM fp GROUP BY simhash)
"""


# ---------------------------------------------------------------------------
# integer-exact embedding near-dup (the value-oracle-checkable variant)
# ---------------------------------------------------------------------------


def _embed_planes(n_planes: int, dim: int, seed: int) -> np.ndarray:
    """Deterministic ±1 hyperplanes (n_planes, dim): plane p's signs are
    the low `dim` bits of splitmix64-mixed p — pure integer derivation,
    inlined verbatim into the SQL oracle. dim <= 64 (one u64 per plane)."""
    if dim > 64:
        raise ValueError(f"integer hyperplanes support dim <= 64, got {dim}")
    h = detmix.seeded_mix(np.arange(n_planes, dtype=np.uint64), seed)
    bits = (h[:, None] >> np.arange(dim, dtype=np.uint64)[None, :]) & np.uint64(1)
    return np.where(bits == 1, 1, -1).astype(np.int64)


def embedding_dedup_int8(
    ds: rd.Dataset,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    threshold_pct: int = 99,
    n_bands: int = 4,
    band_planes: int = 8,
    seed: int = 7,
) -> rd.Dataset:
    """Embedding near-dup with a FULL value oracle: every step is integer
    arithmetic past the (already SQL-replicated) int8 quantization, so the
    whole operator replicates in DuckDB (`embedding_dedup_oracle_sql`) —
    unlike :func:`embedding_dedup`, whose float hyperplanes and float
    cosine keep it rows-only.

    - candidate generation: `n_bands` bands of `band_planes` seeded ±1
      hyperplanes; two vectors are candidates iff they share ANY band's
      full sign pattern (banding recovers the recall a single long sign
      pattern loses),
    - verification: cosine >= threshold_pct/100 tested as
      ``dot > 0 AND dot^2 * 10000 >= pct^2 * |a|^2 * |b|^2`` — an exact
      rational comparison, no floats (zero vectors are never similar),
    - drop rule: key k is dropped iff SOME SMALLER key in a shared bucket
      passes — order-independent (not greedy-chained), so partitioning
      cannot change the result.

    Scale: one fixed-fan-out shuffle of (band-bucket, key, q8) rows —
    64 int8 + key per band per vector; all-pairs work is bucket-local."""
    import ray

    first = ds.take(1)
    if not first:
        return ds
    dim = len(first[0][vec_col])
    planes = _embed_planes(n_bands * band_planes, dim, seed)
    planes_ref = ray.put(planes)
    pct = int(threshold_pct)

    def tag(batch: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        q8 = ann_int8(batch, vec_col)
        keys = batch.column(key_col)
        signs = (q8 @ pl.T) >= 0  # (n, n_bands*band_planes)
        out = []
        weights = 1 << np.arange(band_planes, dtype=np.int64)
        for b in range(n_bands):
            s = signs[:, b * band_planes : (b + 1) * band_planes]
            bb = (s * weights[None, :]).sum(axis=1)
            out.append(
                pa.table(
                    {
                        "_eb": pa.array(b * (1 << band_planes) + bb),
                        key_col: keys,
                        "n2": pa.array((q8 * q8).sum(axis=1)),
                        "q8": pa.array(list(q8.astype(np.int8)), pa.list_(pa.int8())),
                    }
                )
            )
        return pa.concat_tables(out)

    def in_bucket(g: pa.Table) -> pa.Table:
        return _int8_drop_keys(g, key_col, pct)

    tagged = util.clean_dataset(ds).map_batches(tag, batch_format="pyarrow")
    return _filter_drop_keys(ds, util.bucketed(tagged, "_eb", in_bucket), key_col)


def _int8_drop_keys(g: pa.Table, key_col: str, pct: int) -> pa.Table:
    """One bucket/cluster of (key, n2, q8 list<int8>) rows -> the keys
    dropped because some SMALLER key in the group passes the exact
    rational cosine test (dot > 0 AND dot^2 * 10^4 >= pct^2 * |a|^2|b|^2)
    — order-independent, so partitioning cannot change the result.
    Integer bound: dim <= 1880 keeps dot^2 * 10^4 inside int64
    (127^4 * dim^2 * 10^4 < 2^63); larger dims raise loudly below."""
    k = g.column(key_col).to_numpy(zero_copy_only=False)
    if len(k) < 2:
        return pa.table({"drop_key": pa.array([], g.column(key_col).type)})
    order = np.argsort(k, kind="stable")
    k = k[order]
    n2 = g.column("n2").to_numpy(zero_copy_only=False)[order]
    q_col = g.column("q8")
    if isinstance(q_col, pa.ChunkedArray):
        q_col = q_col.combine_chunks()
    Q = (
        q_col.flatten().to_numpy(zero_copy_only=False)
        .astype(np.int64).reshape(len(g), -1)[order]
    )
    if Q.shape[1] > 1880:
        raise ValueError(
            f"dim {Q.shape[1]} > 1880: dot^2 * 10^4 would overflow int64 "
            "and silently diverge from the HUGEINT SQL oracle"
        )
    G = Q @ Q.T
    ok = (G > 0) & (G * G * 10000 >= pct * pct * np.outer(n2, n2))
    ok &= np.tri(len(k), k=-1, dtype=bool).T  # strictly upper: i < j
    dropped = k[ok.any(axis=0)]
    return pa.table({"drop_key": pa.array(np.unique(dropped), g.column(key_col).type)})


def _filter_drop_keys(ds: rd.Dataset, verified: rd.Dataset, key_col: str) -> rd.Dataset:
    """Collect (drop_key) blocks, broadcast once, anti-filter the corpus.
    Driver state is O(dropped keys) — the dedup RESULT, not the corpus."""
    import ray

    drop_keys = sorted(
        {
            d
            for blk in verified.iter_batches(batch_format="pyarrow")
            if blk.num_columns and blk.num_rows
            for d in blk.column("drop_key").to_pylist()
        }
    )
    if not drop_keys:
        return ds
    import pyarrow.compute as pc

    drop_ref = ray.put(pa.array(drop_keys))

    def filter_batch(t: pa.Table) -> pa.Table:
        d = ray.get(drop_ref)
        return t.filter(pc.invert(pc.is_in(t.column(key_col), d)))

    return ds.map_batches(filter_batch, batch_format="pyarrow")


def embedding_dedup_oracle_sql(
    table: str = "embeddings",
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    threshold_pct: int = 99,
    n_bands: int = 4,
    band_planes: int = 8,
    seed: int = 7,
    dim: int = 64,
) -> str:
    """DuckDB replica of embedding_dedup_int8: int8 quantization (the
    embedding_quantize rule), inlined ±1 planes, band sign-pattern
    buckets, exact rational cosine test, drop-the-larger-key. Fully
    integer past the quantization — value-identical by construction."""
    planes = _embed_planes(n_bands * band_planes, dim, seed)
    plane_vals = ", ".join(
        f"({p}, {d}, {int(planes[p, d])})"
        for p in range(n_bands * band_planes)
        for d in range(dim)
    )
    pct = int(threshold_pct)
    return f"""
WITH e AS (SELECT {key_col} AS k, {vec_col} AS v,
  list_max(list_transform({vec_col}, x -> abs(x::DOUBLE))) AS scale FROM {table}),
t AS (SELECT k, scale, unnest(v) AS x,
  unnest(generate_series(1, len(v))) AS i FROM e),
q AS (SELECT k, i - 1 AS d,
  CASE WHEN scale > 0 THEN round(x::DOUBLE / scale * 127)::BIGINT ELSE 0 END AS qv
  FROM t),
pl(p, d, v) AS (VALUES {plane_vals}),
sgn AS (
  SELECT q.k, pl.p,
    CASE WHEN sum(q.qv * pl.v) >= 0 THEN 1 ELSE 0 END AS s
  FROM q JOIN pl ON pl.d = q.d GROUP BY q.k, pl.p
),
buck AS (
  SELECT k, p // {band_planes} AS band,
    sum(s * (1::BIGINT << (p % {band_planes})))::BIGINT AS bb
  FROM sgn GROUP BY k, band
),
cand AS (
  SELECT DISTINCT a.k AS a, b.k AS b
  FROM buck a JOIN buck b ON a.band = b.band AND a.bb = b.bb AND a.k < b.k
),
n2 AS (SELECT k, sum(qv * qv)::BIGINT AS n2 FROM q GROUP BY k),
dots AS (
  SELECT c.a, c.b, sum(qa.qv * qb.qv)::BIGINT AS dp
  FROM cand c
  JOIN q qa ON qa.k = c.a
  JOIN q qb ON qb.k = c.b AND qb.d = qa.d
  GROUP BY c.a, c.b
),
drops AS (
  SELECT DISTINCT dots.b FROM dots
  JOIN n2 na ON na.k = dots.a
  JOIN n2 nb ON nb.k = dots.b
  WHERE dp > 0
    AND dp::HUGEINT * dp * 10000 >= {pct}::HUGEINT * {pct} * na.n2 * nb.n2
)
SELECT {key_col} FROM {table} WHERE {key_col} NOT IN (SELECT b FROM drops)
"""


# ---------------------------------------------------------------------------
# semantic dedup: coarse clustering + within-cluster near-dup drop
# (the SemDeDup shape, Abbas et al. 2023 — cluster the embedding space,
# then do all-pairs similarity only INSIDE each cluster)
# ---------------------------------------------------------------------------


def _smallest_key_vectors(
    ds: rd.Dataset, vec_col: str, key_col: str, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """-> (k smallest keys asc, their int8 vectors as (k, dim) int64) —
    the deterministic centroid pick. Per-block partial k-smallest rows,
    incrementally folded on the driver with a running cap, so peak driver
    state is O(k + one block's partial), never O(blocks x k)."""

    def partial(batch: pa.Table) -> pa.Table:
        q8 = ann_int8(batch, vec_col)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        if len(keys) > k:
            idx = np.sort(np.argsort(keys, kind="stable")[:k])
            keys, q8 = keys[idx], q8[idx]
        return pa.table(
            {
                key_col: pa.array(keys),
                "q8": pa.array(list(q8.astype(np.int8)), pa.list_(pa.int8())),
            }
        )

    best_k = best_q = None
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        if b.num_columns == 0 or b.num_rows == 0:
            continue
        keys = b.column(key_col).to_numpy(zero_copy_only=False)
        q_col = b.column("q8")
        if isinstance(q_col, pa.ChunkedArray):
            q_col = q_col.combine_chunks()
        Q = (
            q_col.flatten().to_numpy(zero_copy_only=False)
            .astype(np.int64).reshape(len(keys), -1)
        )
        if best_k is None:
            best_k, best_q = keys, Q
        else:
            best_k = np.concatenate([best_k, keys])
            best_q = np.concatenate([best_q, Q])
        if len(best_k) > k:
            idx = np.sort(np.argsort(best_k, kind="stable")[:k])
            best_k, best_q = best_k[idx], best_q[idx]
    if best_k is None:
        return np.zeros(0, np.int64), np.zeros((0, 0), np.int64)
    order = np.argsort(best_k, kind="stable")
    return best_k[order], best_q[order]


def semantic_dedup_int8(
    ds: rd.Dataset,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    n_clusters: int = 16,
    threshold_pct: int = 95,
) -> rd.Dataset:
    """SemDeDup-style semantic dedup (Abbas et al. 2023): partition the
    embedding space into `n_clusters` coarse clusters, then drop near-
    duplicates by all-pairs similarity INSIDE each cluster only — the
    published trick that makes embedding dedup tractable (cluster count
    grows with corpus, so per-cluster all-pairs work stays bounded).

    Deterministic + fully integer past the (SQL-replicated) int8
    quantization, so the WHOLE operator has a DuckDB value oracle
    (`semantic_dedup_oracle_sql`), unlike float k-means:

    - centroids: the int8 vectors of the `n_clusters` SMALLEST keys
      (rank = centroid index) — a deterministic seed pick in the spirit
      of k-means++ seeding, exact on both sides,
    - assignment: argmax integer dot product against the centroids,
      ties to the lowest centroid index (quantized embeddings have
      comparable norms, so raw-dot argmax tracks cosine argmax; the
      rule itself, not cosine, is the spec both engines implement),
    - drop rule: within a cluster, key k drops iff SOME SMALLER key
      passes ``dot > 0 AND dot^2 * 10^4 >= pct^2 * |a|^2 |b|^2`` —
      the same exact rational cosine test as `embedding_dedup_int8`,
      order-independent.

    Scale shape: centroid pick is a per-block partial top-k fold
    (O(n_clusters) driver state); assignment is one broadcast + one
    streaming pass; the only shuffle is the groupby on cluster id.
    Caveat vs the LSH variant: a cluster IS a skew unit — per-cluster
    work is O(|cluster|^2) by design, so `n_clusters` must scale with
    the corpus (SemDeDup uses ~50k clusters for LAION-scale)."""
    import ray

    ds = util.clean_dataset(ds)
    cent_keys, C = _smallest_key_vectors(ds, vec_col, key_col, n_clusters)
    if len(cent_keys) == 0:
        return ds
    c_ref = ray.put(C)
    pct = int(threshold_pct)

    def tag(batch: pa.Table) -> pa.Table:
        cm = ray.get(c_ref)
        q8 = ann_int8(batch, vec_col)
        dots = q8 @ cm.T
        cl = np.argmax(dots, axis=1).astype(np.int32)  # first max = lowest ci
        return pa.table(
            {
                "_cl": pa.array(cl),
                key_col: batch.column(key_col),
                "n2": pa.array((q8 * q8).sum(axis=1)),
                "q8": pa.array(list(q8.astype(np.int8)), pa.list_(pa.int8())),
            }
        )

    def in_cluster(g: pa.Table) -> pa.Table:
        return _int8_drop_keys(g, key_col, pct)

    verified = util.bucketed(ds.map_batches(tag, batch_format="pyarrow"), "_cl", in_cluster)
    return _filter_drop_keys(ds, verified, key_col)


def semantic_dedup_oracle_sql(
    table: str = "embeddings",
    *,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    n_clusters: int = 16,
    threshold_pct: int = 95,
) -> str:
    """DuckDB replica of semantic_dedup_int8: int8 quantization (the
    embedding_quantize rule), smallest-key centroids (row_number rank =
    centroid index), argmax-dot assignment with the same (dp DESC, ci
    ASC) tie rule, exact rational cosine drop within cluster. Fully
    integer past the quantization — value-identical by construction."""
    pct = int(threshold_pct)
    return f"""
WITH e AS (SELECT {key_col} AS k, {vec_col} AS v,
  list_max(list_transform({vec_col}, x -> abs(x::DOUBLE))) AS scale FROM {table}),
t AS (SELECT k, scale, unnest(v) AS x,
  unnest(generate_series(1, len(v))) AS i FROM e),
q AS (SELECT k, i - 1 AS d,
  CASE WHEN scale > 0 THEN round(x::DOUBLE / scale * 127)::BIGINT ELSE 0 END AS qv
  FROM t),
cent AS (
  SELECT k AS ck, row_number() OVER (ORDER BY k) - 1 AS ci
  FROM (SELECT k FROM e ORDER BY k LIMIT {n_clusters})
),
cq AS (SELECT cent.ci, q.d, q.qv AS cv FROM cent JOIN q ON q.k = cent.ck),
adots AS (
  SELECT q.k, cq.ci, sum(q.qv * cq.cv)::BIGINT AS dp
  FROM q JOIN cq ON cq.d = q.d GROUP BY q.k, cq.ci
),
assign AS (
  SELECT k, ci AS cl FROM (
    SELECT k, ci, row_number() OVER (PARTITION BY k ORDER BY dp DESC, ci ASC) AS rn
    FROM adots
  ) WHERE rn = 1
),
n2 AS (SELECT k, sum(qv * qv)::BIGINT AS n2 FROM q GROUP BY k),
cand AS (
  SELECT a.k AS a, b.k AS b
  FROM assign a JOIN assign b ON a.cl = b.cl AND a.k < b.k
),
pdots AS (
  SELECT c.a, c.b, sum(qa.qv * qb.qv)::BIGINT AS dp
  FROM cand c
  JOIN q qa ON qa.k = c.a
  JOIN q qb ON qb.k = c.b AND qb.d = qa.d
  GROUP BY c.a, c.b
),
drops AS (
  SELECT DISTINCT pdots.b FROM pdots
  JOIN n2 na ON na.k = pdots.a
  JOIN n2 nb ON nb.k = pdots.b
  WHERE dp > 0
    AND dp::HUGEINT * dp * 10000 >= {pct}::HUGEINT * {pct} * na.n2 * nb.n2
)
SELECT {key_col} FROM {table} WHERE {key_col} NOT IN (SELECT b FROM drops)
"""


def synthesize_near_dups_batch(
    batch: pa.Table,
    *,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    every: int = 10,
    key_offset: int = 100_000,
    eps: float = 0.001,
) -> pa.Table:
    """Append a perturbed copy (+eps elementwise, key + key_offset) of
    every `every`-th vector — a deterministic near-dup planting for
    exercising the embedding-dedup oracles on corpora with no natural
    near-dups. SQL twin: `synthesize_near_dups_sql`. All arithmetic is
    float32->float64 then one float64 add, bit-replicable in DuckDB."""
    keys = batch.column(key_col).to_numpy(zero_copy_only=False)
    sel = keys % every == 0
    if not sel.any():
        return batch
    sub = batch.filter(pa.array(sel))
    sub_col = sub.column(vec_col)
    if isinstance(sub_col, pa.ChunkedArray):
        sub_col = sub_col.combine_chunks()
    import pyarrow.compute as pc

    lengths = pc.list_value_length(sub_col).to_numpy(zero_copy_only=False)
    child = sub_col.flatten().to_numpy(zero_copy_only=False).astype(np.float64) + eps
    offsets = np.zeros(len(lengths) + 1, np.int32)
    np.cumsum(lengths, out=offsets[1:])
    planted = pa.table(
        {
            key_col: pa.array(
                keys[sel] + key_offset, type=batch.column(key_col).type
            ),
            vec_col: pa.ListArray.from_arrays(
                pa.array(offsets), pa.array(child, pa.float64())
            ),
        }
    )
    return pa.concat_tables(
        [batch.select([key_col, vec_col]), planted], promote_options="permissive"
    )


def synthesize_near_dups_sql(
    table: str = "embeddings",
    *,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    every: int = 10,
    key_offset: int = 100_000,
    eps: float = 0.001,
) -> str:
    """SQL twin of synthesize_near_dups_batch, as a subquery."""
    return (
        f"(SELECT {key_col}, list_transform({vec_col}, x -> x::DOUBLE) AS {vec_col} "
        f"FROM {table} "
        f"UNION ALL "
        f"SELECT {key_col} + {key_offset} AS {key_col}, "
        f"list_transform({vec_col}, x -> x::DOUBLE + {eps}) AS {vec_col} "
        f"FROM {table} WHERE {key_col} % {every} = 0)"
    )


# ---------------------------------------------------------------------------
# incremental exact dedup: index once, dedup every future append against it
# ---------------------------------------------------------------------------

_INDEX_BUCKETS = 256


def _dual_hash(batch: pa.Table, text_col: str) -> np.ndarray:
    """(n, 2) uint64 — two INDEPENDENT stable 64-bit text hashes (siphash
    + detmix polynomial), i.e. an effective 128-bit content id: at 10^10
    docs the 128-bit birthday bound is ~10^-18, so the index can store
    hashes instead of text. (The 64-bit single-hash exact_dedup compares
    real text in-bucket — an INDEX can't, hence the wider id.)"""
    s = batch.column(text_col).to_pandas().fillna("")
    h1 = pd.util.hash_pandas_object(s, index=False).to_numpy().astype(np.uint64)
    h2 = detmix.string_hash64(s.to_numpy(dtype=object))
    return np.stack([h1, h2], axis=1)


def build_content_index(
    ds: rd.Dataset, index_dir: str, text_col: str = "text"
) -> int:
    """Persist the corpus's content-hash index as a bucket index
    (state/bucket_index.py, `hb=<h1 % 256>/`): O(16 B/doc) on disk, and a future probe opens
    ONLY the buckets its new docs hash into. Returns indexed row count."""

    def hashes(b: pa.Table) -> pa.Table:
        b = util.strip_schema_metadata(b)
        h = _dual_hash(b, text_col)
        return pa.table(
            {
                "h1": pa.array(h[:, 0]),
                "h2": pa.array(h[:, 1]),
                "hb": pa.array((h[:, 0] % _INDEX_BUCKETS).astype(np.int32)),
            }
        )

    hds = util.clean_dataset(ds).map_batches(hashes, batch_format="pyarrow")
    return bucket_index.build(hds, index_dir, "hb")


class _PairIndex:
    """Per-actor view of a bucket index of (a, b) integer pairs bucketed
    by `a % _INDEX_BUCKETS` — the loader behind both incremental probes
    (content hashes and MinHash band cells). Each touched bucket is read
    once per actor and kept lexsorted for searchsorted membership; a
    bucket no batch touches is never opened."""

    def __init__(self, index_dir: str, cols: tuple[str, str], dtype):
        self._dir, self._cols, self._dtype = index_dir, cols, dtype
        self._cache: dict[int, np.ndarray] = {}

    def _bucket(self, b: int) -> np.ndarray:
        got = self._cache.get(b)
        if got is None:
            files = bucket_index.bucket_files(self._dir, [b])
            if files:
                t = pa.concat_tables([pq.read_table(f, columns=list(self._cols)) for f in files])
                h = np.stack(
                    [t.column(c).to_numpy(zero_copy_only=False).astype(self._dtype)
                     for c in self._cols],
                    axis=1,
                )
                got = h[np.lexsort((h[:, 1], h[:, 0]))]
            else:
                got = np.zeros((0, 2), self._dtype)
            self._cache[b] = got
        return got

    def contains(self, pairs: np.ndarray) -> np.ndarray:
        """Bool per row of the (n, 2) `pairs`: is that exact pair indexed?"""
        hit = np.zeros(len(pairs), dtype=bool)
        bucket_of = pairs[:, 0] % _INDEX_BUCKETS
        for b in np.unique(bucket_of).astype(int):
            idx = self._bucket(int(b))
            if len(idx) == 0:
                continue
            rows = np.flatnonzero(bucket_of == b)
            pos = np.searchsorted(idx[:, 0], pairs[rows, 0])
            # scan the (short) run of equal first halves for the second
            for i, p in zip(rows, pos):
                q = p
                while q < len(idx) and idx[q, 0] == pairs[i, 0]:
                    if idx[q, 1] == pairs[i, 1]:
                        hit[i] = True
                        break
                    q += 1
        return hit


def incremental_exact_dedup(
    new_ds: rd.Dataset,
    index_dir: str,
    text_col: str = "text",
    key_col: str = "doc_id",
) -> rd.Dataset:
    """Drop new docs whose content already exists in the INDEXED corpus,
    then exact-dedup the survivors among themselves (smallest key wins) —
    the daily-append workflow: the old corpus is never re-read, only the
    probed index buckets are opened (16 B/doc of hashes, not text).

    Scale: each batch probes only the buckets its rows hash into; the
    per-actor bucket cache keeps a hot append job from re-reading index
    files per batch."""

    class Probe:
        def __init__(self):
            self._index = _PairIndex(index_dir, ("h1", "h2"), np.uint64)

        def __call__(self, batch: pa.Table) -> pa.Table:
            batch = util.strip_schema_metadata(batch)
            return batch.filter(pa.array(~self._index.contains(_dual_hash(batch, text_col))))

    survivors = util.clean_dataset(new_ds).map_batches(
        Probe, batch_format="pyarrow", concurrency=(1, 8)
    )
    return exact_dedup(survivors, text_col, key_col)


def incremental_dedup_oracle_sql(
    new_table: str,
    old_table: str,
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
) -> str:
    """Text-level replica: new docs whose text does not appear in the old
    corpus, then keep the smallest key per distinct text. (The Ray side
    compares 128-bit content hashes — equality of texts implies equality
    of hashes, and a cross-hash collision is ~10^-18 at corpus scale, so
    the text-level oracle is exact on any real table.)

    NULL-vs-empty semantics, verified empirically on both sides: the
    INDEX PROBE coalesces (engine `_dual_hash` fillna('') == the oracle's
    coalesce NOT IN), but the SURVIVOR dedup keeps NULL its own group
    (engine `exact_dedup` groups with dropna=False == SQL GROUP BY, where
    NULL is one group distinct from '') — so a fresh batch holding both a
    NULL and an '' doc keeps one of EACH, identically in both engines."""
    return f"""
WITH fresh AS (
  SELECT * FROM {new_table} n
  WHERE coalesce(n.{text_col}, '') NOT IN
        (SELECT coalesce({text_col}, '') FROM {old_table})
)
SELECT * FROM fresh WHERE {key_col} IN
  (SELECT MIN({key_col}) FROM fresh GROUP BY {text_col})
"""


# ---------------------------------------------------------------------------
# incremental NEAR-dup dedup: persisted MinHash-LSH band index + append probe
# ---------------------------------------------------------------------------


def _band_index_rows(
    b: pa.Table,
    *,
    text_col: str,
    key_col: str,
    num_perm: int,
    bands: int,
    shingle_k: int,
) -> pa.Table:
    """(band_id, band_hash, hb) index rows for one batch — the single
    source of the index layout, shared by the fresh build and the
    `update_index` append (a drifted copy would write files the
    _BandProbe reader mismatches)."""
    b = util.strip_schema_metadata(b)
    t = minhash_band_rows(b, text_col, key_col, num_perm, bands, shingle_k)
    bh = t.column("band_hash").to_numpy()
    return pa.table(
        {
            "band_id": t.column("band_id"),
            "band_hash": t.column("band_hash"),
            "hb": pa.array((bh % _INDEX_BUCKETS).astype(np.int32)),
        }
    )


def build_minhash_index(
    ds: rd.Dataset,
    index_dir: str,
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
) -> int:
    """Persist the corpus's LSH band cells as hive-bucketed Parquet
    (`hb=<band_hash % 256>/`, columns (band_id, band_hash)) — ~12 B per
    (doc, band) on disk, the near-dup sibling of `build_content_index`:
    a future append probes ONLY the buckets its new docs' band hashes
    land in, the old corpus text is never re-read.

    This is the LSH-ONLY dedup tier (drop on band-cell collision, no
    Jaccard verify): the index holds 8-byte folds, never text or shingle
    sets, so a probe is a membership test. At the default 16-band/4-row
    parameters a band collision implies Jaccard ~>= 0.5 with high
    probability; batch-mode `minhash_dedup` remains the verified tier.
    The layout is a bucket index (state/bucket_index.py), so a rebuild
    replaces the prior build and `update_index` appends are marker-gated."""
    cells = util.clean_dataset(ds).map_batches(
        functools.partial(
            _band_index_rows, text_col=text_col, key_col=key_col,
            num_perm=num_perm, bands=bands, shingle_k=shingle_k,
        ),
        batch_format="pyarrow", batch_size=4096,
    )
    # cells = docs x bands
    return bucket_index.build(cells, index_dir, "hb") // bands


class _BandProbe:
    """Actor-pool stage: drop rows whose ANY band cell exists in the
    index. Per-actor bucket cache (lexsorted (band_hash, band_id) pairs
    for searchsorted membership — the content-index Probe's dual-column
    discipline, exact, no combined-hash collision risk)."""

    def __init__(self, index_dir: str, text_col: str, key_col: str,
                 num_perm: int, bands: int, shingle_k: int):
        self._index = _PairIndex(index_dir, ("band_hash", "band_id"), np.int64)
        self._text_col, self._key_col = text_col, key_col
        self._num_perm, self._bands, self._k = num_perm, bands, shingle_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = util.strip_schema_metadata(batch)
        t = minhash_band_rows(
            batch, self._text_col, self._key_col, self._num_perm,
            self._bands, self._k,
        )
        pairs = np.stack(
            [t.column(c).to_numpy(zero_copy_only=False).astype(np.int64)
             for c in ("band_hash", "band_id")],
            axis=1,
        )
        # band rows are emitted doc-major (`bands` consecutive rows/doc)
        doc_hit = self._index.contains(pairs).reshape(batch.num_rows, self._bands).any(axis=1)
        return batch.filter(pa.array(~doc_hit))


def incremental_minhash_dedup(
    new_ds: rd.Dataset,
    index_dir: str,
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    update_index: bool = False,
) -> rd.Dataset:
    """Near-dup daily append against a `build_minhash_index` directory:

    1. drop new docs sharing ANY (band_id, band_hash) cell with the
       index (streaming actor probe; only touched hive buckets open);
    2. among the fresh survivors, drop a doc when a SMALLER-key fresh
       survivor shares a band cell (the pairwise first-wins rule —
       deliberately not transitive-closure, matching the SQL-replicable
       `incremental_minhash_oracle_sql`);
    3. with `update_index=True`, append the KEPT docs' band cells into
       the live hive buckets as one bucket-index append whose id is a
       digest of the kept (key, text) rows (a completed re-run is a
       no-op, a killed one's retry replaces its own partial files).

    Scale shape: text never shuffles — the probe streams, step 2 moves
    (band, hash, key) rows through one corpus-scaled bucket groupby, and
    the drop-key set (O(result), not corpus) broadcasts once."""
    clean = util.clean_dataset(new_ds)
    fresh = clean.map_batches(
        _BandProbe,
        fn_constructor_args=(index_dir, text_col, key_col, num_perm, bands, shingle_k),
        batch_format="pyarrow",
        concurrency=(1, 8),
    ).materialize()

    band = fresh.map_batches(
        lambda t: minhash_band_rows(
            util.strip_schema_metadata(t), text_col, key_col, num_perm, bands, shingle_k
        ),
        batch_format="pyarrow",
        batch_size=4096,
    )
    nb = util.scaled_buckets(fresh)

    def add_bucket(t: pa.Table) -> pa.Table:
        bucket = (t.column("band_hash").to_numpy() % nb).astype(np.int32)
        return t.append_column("_b", pa.array(bucket))

    def cell_drops(g: pa.Table) -> pa.Table:
        kt = g.schema.field(key_col).type
        df = g.select(["band_id", "band_hash", key_col]).to_pandas()
        anchors = df.groupby(["band_id", "band_hash"])[key_col].transform("min")
        dropped = df.loc[(df[key_col] != anchors), key_col].drop_duplicates()
        return pa.table({"drop_key": pa.array(dropped.to_numpy(), type=kt)})

    drops = util.bucketed(band.map_batches(add_bucket, batch_format="pyarrow"), "_b", cell_drops)
    kept = _filter_drop_keys(fresh, drops, key_col).materialize()

    if update_index:
        bucket_index.append(
            kept.map_batches(
                functools.partial(
                    _band_index_rows, text_col=text_col, key_col=key_col,
                    num_perm=num_perm, bands=bands, shingle_k=shingle_k,
                ),
                batch_format="pyarrow", batch_size=4096,
            ),
            index_dir,
            util.row_digest(kept, [key_col, text_col]),
        )
    return kept


def incremental_minhash_oracle_sql(
    new_table: str,
    old_table: str,
    *,
    text_col: str = "text",
    key_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
) -> str:
    """Text-level DuckDB replica of incremental_minhash_dedup: band
    cells recomputed for BOTH tables through the shared suffixed CTE
    chain, old-collision anti-join, then the pairwise smaller-key rule
    among the fresh survivors. ASCII corpora only (the shared gram-hash
    caveat, see minhash_oracle_sql)."""
    cells_old = _minhash_cells_ctes(
        old_table, text_col, key_col, num_perm, bands, suffix="_o"
    )
    cells_new = _minhash_cells_ctes(
        new_table, text_col, key_col, num_perm, bands, suffix="_n"
    )
    return f"""
WITH perms(p, pa, pb) AS (VALUES {_minhash_perms_values(num_perm)}),
{cells_old},
{cells_new},
oldhit AS (
  SELECT DISTINCT n.k FROM cells_n n
  JOIN cells_o o ON o.band_id = n.band_id AND o.band_hash = n.band_hash
),
freshcells AS (
  SELECT * FROM cells_n WHERE k NOT IN (SELECT k FROM oldhit)
),
newdrop AS (
  SELECT DISTINCT c.k FROM freshcells c
  JOIN freshcells m
    ON m.band_id = c.band_id AND m.band_hash = c.band_hash AND m.k < c.k
)
SELECT * FROM {new_table}
WHERE {key_col} NOT IN (SELECT k FROM oldhit UNION ALL SELECT k FROM newdrop)
"""


# ---------------------------------------------------------------------------
# duplicate-LINE removal (paragraph dedup)
# ---------------------------------------------------------------------------


def _explode_lines(t: pa.Table, text_col: str, key_col: str, nb: int) -> pa.Table:
    """Vectorized doc -> line rows: (key, 1-based idx, line, bucket), the
    bucket keyed on the line hash so EVERY occurrence of a line lands in
    one reduce task. Null-text docs are dropped (the SQL twin's
    string_split(NULL) path). The key column keeps its incoming Arrow
    type (int64 doc ids and string ids both work)."""
    import pyarrow.compute as pc

    t = util.strip_schema_metadata(t)
    kt = t.schema.field(key_col).type
    col = t.column(text_col)
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    kept = t.filter(pc.is_valid(arr))
    valid = arr.drop_null()
    # Arrow split keeps empty segments ('a\n\nb' -> 3 lines) — identical
    # to the SQL twin's string_split; flat lines + per-doc counts come
    # out of ONE C pass, and the line hash runs on the flat array's own
    # UTF-8 buffers (no object round trip)
    parts = pc.split_pattern(valid, "\n")
    lens = pc.list_value_length(parts).to_numpy(zero_copy_only=False).astype(np.int64)
    if not len(lens) or int(lens.sum()) == 0:
        return pa.table(
            {
                "k": pa.array([], kt),
                "i": pa.array([], pa.int64()),
                "line": pa.array([], pa.string()),
                "_b": pa.array([], pa.int32()),
            }
        )
    flat = pc.list_flatten(parts)
    parent = pc.list_parent_indices(parts)
    keycol = kept.column(key_col)
    keyarr = (
        keycol.combine_chunks() if isinstance(keycol, pa.ChunkedArray) else keycol
    )
    rep_keys = keyarr.take(parent)
    ends = np.cumsum(lens)
    idx = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(ends - lens, lens) + 1
    b = (words.hash_string_array(flat) % np.uint64(nb)).astype(np.int32)
    return pa.table(
        {
            "k": rep_keys,
            "i": pa.array(idx),
            "line": flat,
            "_b": pa.array(b),
        }
    )


def line_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    key_col: str = "doc_id",
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Corpus-wide duplicate-LINE removal (the Dolma paragraph-dedup
    shape): each distinct line survives only at its FIRST occurrence —
    smallest (key, line index) globally — and every later copy is cut
    from its document; a document whose every line was seen earlier
    disappears entirely. Returns (key, text) with the surviving lines
    rejoined in order.

    Scale shape: two corpus-sized-but-streaming shuffles and nothing
    driver-side — (1) line rows bucketed by hash(line), so first-wins is
    exact in-bucket (actual line STRINGS are compared there, like
    exact_dedup, so 64-bit hash collisions cannot merge distinct lines);
    (2) surviving line rows bucketed by hash(key) and rejoined per doc.
    Both fan-outs are corpus-scaled (util.scaled_buckets)."""
    nb = n_buckets or util.scaled_buckets(ds)

    def explode(t: pa.Table) -> pa.Table:
        return _explode_lines(t, text_col, key_col, nb)

    def first_wins(g: pa.Table) -> pa.Table:
        kt = g.schema.field("k").type
        df = g.select(["k", "i", "line"]).to_pandas()
        df = df.sort_values(["line", "k", "i"], kind="mergesort")
        df = df[~df["line"].duplicated(keep="first")]
        b2 = (
            detmix.string_hash64(df["k"].astype(str).to_numpy(object))
            % np.uint64(nb)
        ).astype(np.int32)
        return pa.table(
            {
                "k": pa.array(df["k"].to_numpy(object), kt),
                "i": pa.array(df["i"].to_numpy(np.int64)),
                "line": pa.array(df["line"].to_numpy(object), pa.string()),
                "_b2": pa.array(b2),
            }
        )

    def reassemble(g: pa.Table) -> pa.Table:
        kt = g.schema.field("k").type
        df = g.select(["k", "i", "line"]).to_pandas()
        df = df.sort_values(["k", "i"], kind="mergesort")
        joined = df.groupby("k", sort=True)["line"].agg("\n".join)
        return pa.table(
            {
                key_col: pa.array(joined.index.to_numpy(object), kt),
                text_col: pa.array(joined.to_numpy(object), pa.string()),
            }
        )

    lines = util.clean_dataset(ds).map_batches(
        explode, batch_format="pyarrow", batch_size=8192
    )
    return util.bucketed(util.bucketed(lines, "_b", first_wins), "_b2", reassemble)


def line_dedup_oracle_sql(
    table: str, text_col: str = "text", key_col: str = "doc_id"
) -> str:
    """DuckDB twin of :func:`line_dedup`: row_number over
    (key, line-index) per line string, string_agg the rn=1 survivors."""
    return f"""
WITH l AS (
  SELECT {key_col} AS k, i, lines[i] AS line
  FROM (SELECT {key_col}, string_split({text_col}, chr(10)) AS lines
        FROM {table}),
       LATERAL unnest(generate_series(1, len(lines))) AS t(i)
), r AS (
  SELECT k, i, line,
         row_number() OVER (PARTITION BY line ORDER BY k, i) AS rn
  FROM l
)
SELECT k AS {key_col}, string_agg(line, chr(10) ORDER BY i) AS {text_col}
FROM r WHERE rn = 1 GROUP BY k ORDER BY k"""


def chunk_words_batch(t: pa.Table, text_col: str = "text", n: int = 4) -> pa.Table:
    """Deterministic multi-line derivation for single-line fixtures: split
    on ' ', rejoin every `n` words as one line. The SQL twin is
    `chunk_words_sql` — identical split/slice/join, no regex engine in
    the loop on either side."""
    t = util.strip_schema_metadata(t)
    s = t.column(text_col).to_pandas()

    def chunk(x):
        if x is None:
            return None
        ws = x.split(" ")
        return "\n".join(
            " ".join(ws[j : j + n]) for j in range(0, len(ws), n)
        )

    out = pa.array([chunk(x) for x in s], pa.string())
    return t.set_column(t.schema.get_field_index(text_col), text_col, out)


def chunk_words_sql(table: str, text_col: str = "text", key_col: str = "doc_id", n: int = 4) -> str:
    """Subquery (parenthesized) producing (key, chunked text) — the SQL
    twin of :func:`chunk_words_batch`."""
    return f"""(
WITH w AS (SELECT {key_col}, string_split({text_col}, ' ') AS ws FROM {table}),
c AS (
  SELECT {key_col}, i,
         array_to_string(ws[(i-1)*{n}+1 : i*{n}], ' ') AS line
  FROM w, LATERAL unnest(generate_series(1, (len(ws)+{n - 1})//{n})) AS t(i)
)
SELECT {key_col}, string_agg(line, chr(10) ORDER BY i) AS {text_col}
FROM c GROUP BY {key_col})"""


def corpus_diff(
    ds_old: rd.Dataset,
    ds_new: rd.Dataset,
    key_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int | None = None,
) -> rd.Dataset:
    """Snapshot diff between two corpus versions — the operational
    what-changed pass behind incremental re-processing (only 'added' /
    'changed' docs need re-encoding, dedup probing, PII re-scan):
    one row per key with status in {added, removed, changed, unchanged}.

    Scale shape: each side streams ONCE through a (key, 128-bit content
    hash, side) map — text itself never shuffles — then one bucketed
    groupby co-locates each key's (<=2) rows and a vectorized in-bucket
    lexsort classifies. Content equality is the `_dual_hash` 128-bit id
    (the build_content_index bound: collisions ~1e-18 at 1e10 docs —
    a collision reads as 'unchanged'; the SQL oracle compares real
    text, so the fixture would catch a systematic hash defect)."""
    nb = n_buckets or max(
        util.scaled_buckets(ds_old), util.scaled_buckets(ds_new)
    )

    kt = ds_new.schema().base_schema.field(key_col).type

    def tag(side: int):
        def fn(b: pa.Table) -> pa.Table:
            b = util.strip_schema_metadata(b)
            h = _dual_hash(b, text_col)
            kcol = b.column(key_col)
            return pa.table(
                {
                    key_col: kcol,
                    "_h1": pa.array(h[:, 0].view(np.int64)),
                    "_h2": pa.array(h[:, 1].view(np.int64)),
                    "_side": pa.array(
                        np.full(b.num_rows, side, np.int8), pa.int8()
                    ),
                    # _verify_buckets: string/int generic (int keys hash
                    # their decimal text) — corpus_diff supports string
                    # doc ids like the rest of the module
                    "_b": pa.array(_verify_buckets(kcol, nb)),
                }
            )

        return fn

    both = ds_old.map_batches(tag(0), batch_format="pyarrow").union(
        ds_new.map_batches(tag(1), batch_format="pyarrow")
    )

    def classify(g: pa.Table) -> pa.Table:
        k = g.column(key_col).to_numpy(zero_copy_only=False)
        h1 = g.column("_h1").to_numpy(zero_copy_only=False)
        h2 = g.column("_h2").to_numpy(zero_copy_only=False)
        side = g.column("_side").to_numpy(zero_copy_only=False)
        order = np.lexsort((side, k))
        ks, s = k[order], side[order]
        first = np.r_[True, ks[1:] != ks[:-1]]
        starts = np.flatnonzero(first)
        sizes = np.diff(np.r_[starts, len(ks)])
        keys = ks[starts]
        status = np.empty(len(keys), dtype=object)
        single = sizes == 1
        # lexsort put side 0 (old) first within a key
        status[single & (s[starts] == 0)] = "removed"
        status[single & (s[starts] == 1)] = "added"
        pair = ~single
        last = starts + sizes - 1
        # keys must be unique per side: >2 rows, or 2 rows from the same
        # side, mean a duplicate-key corpus — classify would lie, so raise
        if (sizes > 2).any() or (pair & (s[starts] == s[last])).any():
            raise ValueError(
                f"corpus_diff: duplicate {key_col} within one side — "
                "diff requires unique keys per snapshot"
            )
        same = (h1[order][starts] == h1[order][last]) & (
            h2[order][starts] == h2[order][last]
        )
        status[pair & same] = "unchanged"
        status[pair & ~same] = "changed"
        return pa.table(
            {key_col: pa.array(keys, type=kt), "status": pa.array(status, pa.string())}
        )

    return util.bucketed(both, "_b", classify)
