"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.

The engine's primary input (BASELINE.json input_hint) is a Parquet table
of pre-tokenized training sequences ``(doc_id:string, tokens:list<int32>,
n_tok:int32, source:string)``.  That table is synthesized
deterministically (seed 42, pure function of (seed, shard) —
duckdb_raquet_ray/sources/tokens.py) under /tmp at small scale; the
oracle SQL reads the very same Parquet shards via ``read_parquet``, so
the encode→decode round-trip queries are value-checked against ground
truth, not merely row-counted.  Float-summation caveats: queries paired
with an oracle only return columns whose values are bit-reproducible
across execution orders (integer-valued aggregates, single-expression
double arithmetic, ranks); genuinely heuristic / non-SQL ops (MinHash,
SimHash, IVF, multimodal stubs) are rows-only by design.
"""

from __future__ import annotations

import functools
import glob
import importlib
import os
import pkgutil
import sys
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------------------
# import bootstrap: the driver may import this module from any cwd, and Ray
# workers spawned before this import cannot be given a new PYTHONPATH — so
# the library is registered for cloudpickle BY-VALUE serialization: every
# function/class shipped into map_batches carries its module along instead
# of requiring `import duckdb_raquet_ray` on the worker.
# ---------------------------------------------------------------------------

_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)


def _bootstrap_by_value() -> None:
    picklers = []
    try:
        from ray import cloudpickle as ray_cp  # what Ray actually serializes with

        picklers.append(ray_cp)
    except Exception:
        pass
    try:
        import cloudpickle

        picklers.append(cloudpickle)
    except Exception:
        pass

    import duckdb_raquet_ray as pkg

    for info in pkgutil.walk_packages(pkg.__path__, prefix=pkg.__name__ + "."):
        importlib.import_module(info.name)
    for name, mod in list(sys.modules.items()):
        if name == pkg.__name__ or name.startswith(pkg.__name__ + "."):
            for cp in picklers:
                try:
                    cp.register_pickle_by_value(mod)
                except Exception:
                    pass


_bootstrap_by_value()

# ---------------------------------------------------------------------------
# deterministic check corpus (the input_hint table) + encoded outputs
# ---------------------------------------------------------------------------

ENGINE_TAG = "r9"  # bump when codec bytes or index layouts change so stale /tmp caches drop
CORPUS_ROWS, CORPUS_SHARDS = 8_000, 4
CORPUS_DIR = f"/tmp/raquet_corpus_check_{CORPUS_ROWS}x{CORPUS_SHARDS}"
ROWS_PER_SHARD = CORPUS_ROWS // CORPUS_SHARDS
ENC_DIR = f"/tmp/raquet_encoded_check_{ENGINE_TAG}"
ENC_GROUPED_DIR = f"/tmp/raquet_encoded_check_grouped_{ENGINE_TAG}"
PART_BYTES = 1 << 20  # small target -> several partitions per shard

STATS_COLS = ["doc_id", "n_tok", "source", "tok_count", "tok_min", "tok_max", "tok_sum"]
MASK_LOW, MASK_HIGH = 100, 40_000
ALLOWED = list(range(0, 50_257, 211))
MAP_MOD = 1009
# continuous ramp spec: absolute (value, code) stops + outside="nodata"
RAMP_STOPS = [(500, 0), (8000, 64), (20000, 128), (45000, 255)]


def _ensure_corpus() -> list[str]:
    from duckdb_raquet_ray.sources import tokens as tok

    return tok.write_corpus(CORPUS_DIR, CORPUS_ROWS, CORPUS_SHARDS, row_group_rows=1024)


def _ensure_encoded() -> str:
    from duckdb_raquet_ray.pipelines import encode

    paths = _ensure_corpus()
    if not os.path.exists(os.path.join(ENC_DIR, "manifest.json")):
        encode.encode_job(paths, ENC_DIR, target_part_bytes=PART_BYTES)
    return ENC_DIR


def _ensure_compacted() -> str:
    """Compacted twin of the check encode dir: the many small partitions
    (PART_BYTES target) merged into ~4x-larger ones by
    encode.compact_job — reading ONLY the encoded part files, never the
    original corpus shards (the 100-TB compaction contract)."""
    from duckdb_raquet_ray.pipelines import encode

    src = _ensure_encoded()
    out = ENC_DIR + "_compacted"
    if not os.path.exists(os.path.join(out, "manifest.json")):
        encode.compact_job(src, out, target_part_bytes=PART_BYTES * 4)
    return out


def _q_compacted_roundtrip(sf_dir: str):
    """Compaction value gate: per-row token stats read from the
    COMPACTED dir must equal the oracle over the raw corpus — the
    decode -> concat -> re-encode cycle preserved every row, every list
    element, and the stats pushdown surface (same oracle as
    roundtrip_stats, different physical layout underneath)."""
    from duckdb_raquet_ray.pipelines import decode

    return _token_stats_view(decode.read_encoded(_ensure_compacted()))


def _ensure_deleted() -> str:
    """Deleted twin of the check encode dir: a copy of the encoded dir
    with every doc whose id ends in '7' erased via encode.delete_job
    (partition-granular in-place rewrite) — the retention/erasure
    operator under a full-corpus value oracle."""
    import shutil

    import pyarrow.parquet as pq_

    from duckdb_raquet_ray.pipelines import encode

    src = _ensure_encoded()
    out = ENC_DIR + "_deleted"
    if not os.path.exists(os.path.join(out, "manifest.json")) or not os.path.exists(
        os.path.join(out, "_DELETED_OK")
    ):
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(src, out)
        keys = [
            k
            for p in _ensure_corpus()
            for k in pq_.read_table(p, columns=["doc_id"]).column("doc_id").to_pylist()
            if k.endswith("7")
        ]
        encode.delete_job(out, keys)
        open(os.path.join(out, "_DELETED_OK"), "w").write("ok")
    return out


def _q_deleted_roundtrip(sf_dir: str):
    """Deletion value gate: per-row token stats read from the dir AFTER
    delete_job must equal the oracle over the raw corpus MINUS the
    deleted keys — every surviving row intact, every deleted row gone,
    stats/rollup surface consistent."""
    from duckdb_raquet_ray.pipelines import decode

    return _token_stats_view(decode.read_encoded(_ensure_deleted()))


def _ensure_encoded_grouped() -> str:
    from duckdb_raquet_ray.pipelines import encode_grouped

    paths = _ensure_corpus()
    if not os.path.exists(os.path.join(ENC_GROUPED_DIR, "manifest.json")):
        encode_grouped.encode_job_grouped(paths, ENC_GROUPED_DIR, target_group_rows=2000)
    return ENC_GROUPED_DIR


def _corpus_ds():
    import ray.data as rd

    return rd.read_parquet(_ensure_corpus())


def _token_stats_view(ds, sentinel: int | None = None):
    """tokens Dataset -> per-row integer summary columns (oracle-safe)."""
    from duckdb_raquet_ray.pipelines import transforms as tr

    stats = ds.map_batches(
        functools.partial(tr.token_stats, sentinel=sentinel),
        batch_format="pyarrow",
        batch_size=4096,
    )
    return stats.select_columns(STATS_COLS)


# ---------------------------------------------------------------------------
# query callables (each takes sf_dir)
# ---------------------------------------------------------------------------


def _q_roundtrip(sf_dir: str):
    from duckdb_raquet_ray.pipelines import decode

    return _token_stats_view(decode.read_encoded(_ensure_encoded()))


def _q_roundtrip_vec_stats(sf_dir: str):
    """FLOAT-PLANE encode/decode roundtrip: the embeddings table (int64
    key + list<float32> + int32 label) through the FULL encode_job —
    the planner picks for_bss for the float child (FoR over the uint32
    bit patterns -> byte-stream split -> zstd, the BYTE_STREAM_SPLIT
    family), decode is bit-identical (verify_job gates it in pytest).
    The oracle re-derives per-row list aggregates from the raw table:
    every decoded float flows into sum/min/max, so a corrupted plane
    hash-mismatches at the driver's float tolerance."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import decode, encode

    src = os.path.join(sf_dir, "embeddings.parquet")
    tag = os.path.basename(os.path.normpath(sf_dir))
    enc_dir = f"/tmp/raquet_encvec_{tag}_{ENGINE_TAG}"
    if not os.path.exists(os.path.join(enc_dir, "manifest.json")):
        encode.encode_job([src], enc_dir)

    def stats(t: pa.Table) -> pa.Table:
        col = t.column("embedding")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        import pyarrow.compute as pc

        child = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        lens = (
            pc.fill_null(pc.list_value_length(col), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        offsets = np.zeros(len(lens) + 1, np.int64)
        np.cumsum(lens, out=offsets[1:])
        ne = lens > 0
        s = np.zeros(len(lens), np.float64)
        mn = np.full(len(lens), np.nan)
        mx = np.full(len(lens), np.nan)
        if ne.any():
            # reduceat, not cumsum-difference: the row sum must accumulate
            # WITHIN the row in element order (the SQL list-sum order) —
            # a running cumsum carries other rows' rounding into the diff
            s[ne] = np.add.reduceat(child, offsets[:-1][ne])
            mn[ne] = np.minimum.reduceat(child, offsets[:-1][ne])
            mx[ne] = np.maximum.reduceat(child, offsets[:-1][ne])
        return pa.table(
            {
                "vec_id": t.column("vec_id"),
                "label": t.column("label"),
                "n_dim": pa.array(lens),
                "v_sum": pa.array(s, pa.float64()),
                "v_min": pa.array(mn, pa.float64()),
                "v_max": pa.array(mx, pa.float64()),
            }
        )

    return decode.read_encoded(enc_dir).map_batches(stats, batch_format="pyarrow")


def _q_roundtrip_doc_stats(sf_dir: str):
    """STRING-PLANE encode/decode roundtrip: the documents table (two
    string columns incl. free text + ints) through the full encode_job —
    the planner's string path (dict / FSST symbol tables / plain, by
    cost model) under a driver oracle. Per-row char stats re-derived
    from the raw table pin every decoded string byte-for-byte at the
    aggregate level (verify_job bit-gates it in pytest)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import decode, encode

    src = os.path.join(sf_dir, "documents.parquet")
    tag = os.path.basename(os.path.normpath(sf_dir))
    enc_dir = f"/tmp/raquet_encdoc_{tag}_{ENGINE_TAG}"
    if not os.path.exists(os.path.join(enc_dir, "manifest.json")):
        encode.encode_job([src], enc_dir)

    def checksum(t: pa.Table) -> pa.Table:
        # position-weighted byte checksum: pins content AND order of
        # every decoded text, not just its length
        txt = t.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        s = txt.to_pandas().fillna("")
        joined = "".join(s.tolist()).encode("utf-8")
        data = np.frombuffer(joined, dtype=np.uint8).astype(np.int64)
        lens = s.str.len().to_numpy(np.int64)
        blens = np.fromiter(
            (len(x.encode("utf-8")) for x in s), np.int64, count=len(s)
        )
        offsets = np.zeros(len(s) + 1, np.int64)
        np.cumsum(blens, out=offsets[1:])
        pos = np.arange(len(data), dtype=np.int64) - np.repeat(
            offsets[:-1], blens
        )
        cs = np.zeros(len(data) + 1, np.int64)
        np.cumsum(data * (pos + 1), out=cs[1:])
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "lang": t.column("lang"),
                "source": t.column("source"),
                "n_chars_col": t.column("n_chars"),
                "text_len": pa.array(lens),
                "text_checksum": pa.array(cs[offsets[1:]] - cs[offsets[:-1]]),
            }
        )

    return decode.read_encoded(enc_dir).map_batches(
        checksum, batch_format="pyarrow"
    )


def _q_roundtrip_stats_pushdown(sf_dir: str):
    """Per-row token stats computed FROM THE ENCODED FORM — aggregate
    pushdown into the codec (rowcodec.stats_child: per-row bases + narrow
    residual buckets give sum/min/max without materializing the token
    plane; 2.4x the full-decode path per core). Same oracle as
    roundtrip_stats: the outputs must be identical."""
    from duckdb_raquet_ray.pipelines import decode

    return decode.read_encoded_token_stats(_ensure_encoded()).select_columns(STATS_COLS)


def _q_roundtrip_grouped(sf_dir: str):
    from duckdb_raquet_ray.pipelines import decode

    return _token_stats_view(decode.read_encoded(_ensure_encoded_grouped()))


def _q_pruned_read(sf_dir: str):
    from duckdb_raquet_ray.pipelines import decode

    return _token_stats_view(decode.read_encoded_for_shard(_ensure_encoded(), 0))


def _q_source_read(sf_dir: str):
    from duckdb_raquet_ray.pipelines import decode

    # the grouped layout's read-side payoff: only source='web' partitions
    # are opened (partition-id pruning on the group key)
    return _token_stats_view(decode.read_encoded_source(_ensure_encoded_grouped(), "web"))


def _q_clip(sf_dir: str):
    from duckdb_raquet_ray.pipelines import transforms as tr

    ds = _corpus_ds().map_batches(
        functools.partial(tr.clip_tokens, low=MASK_LOW, high=MASK_HIGH),
        batch_format="pyarrow",
        batch_size=4096,
    )
    from_stats = _token_stats_view(ds)
    return from_stats.select_columns(["doc_id", "tok_count", "tok_sum"])


def _q_mask_range(sf_dir: str):
    from duckdb_raquet_ray.pipelines import transforms as tr

    ds = _corpus_ds().map_batches(
        functools.partial(tr.mask_tokens_range, low=MASK_LOW, high=MASK_HIGH),
        batch_format="pyarrow",
        batch_size=4096,
    )
    return _token_stats_view(ds, sentinel=tr.SENTINEL).select_columns(
        ["doc_id", "tok_count", "tok_sum"]
    )


def _q_mask_list(sf_dir: str):
    from duckdb_raquet_ray.pipelines import transforms as tr

    ds = _corpus_ds().map_batches(
        functools.partial(tr.mask_tokens_list, allowed=ALLOWED),
        batch_format="pyarrow",
        batch_size=4096,
    )
    return _token_stats_view(ds, sentinel=tr.SENTINEL).select_columns(
        ["doc_id", "tok_count", "tok_sum"]
    )


EQ_VALUE = 4096


def _q_mask_eq(sf_dir: str):
    from duckdb_raquet_ray.pipelines import transforms as tr

    ds = _corpus_ds().map_batches(
        functools.partial(tr.mask_tokens_eq, value=EQ_VALUE),
        batch_format="pyarrow",
        batch_size=4096,
    )
    return _token_stats_view(ds, sentinel=tr.SENTINEL).select_columns(
        ["doc_id", "tok_count", "tok_sum"]
    )


def _q_ramp_tokens(sf_dir: str):
    from duckdb_raquet_ray.pipelines import transforms as tr

    ds = _corpus_ds().map_batches(
        functools.partial(tr.ramp_tokens, stops=RAMP_STOPS, outside="nodata"),
        batch_format="pyarrow",
        batch_size=4096,
    )
    return _token_stats_view(ds, sentinel=tr.SENTINEL).select_columns(
        ["doc_id", "tok_count", "tok_sum"]
    )


def _q_map_tokens(sf_dir: str):
    from duckdb_raquet_ray.pipelines import transforms as tr

    mapping = (np.arange(50_257, dtype=np.int64) % MAP_MOD).astype(np.int32)
    ds = _corpus_ds().map_batches(
        functools.partial(tr.map_tokens, mapping=mapping),
        batch_format="pyarrow",
        batch_size=4096,
    )
    return _token_stats_view(ds).select_columns(["doc_id", "tok_count", "tok_sum"])


def _q_source_stats(sf_dir: str):
    import pandas as pd

    from duckdb_raquet_ray.stages import stats as st

    out = st.grouped_stats(_corpus_ds(), "source", "n_tok").to_pandas()
    # mean recomputed from the exact integer sum so it is bit-identical to
    # the oracle's SUM/COUNT double division (Welford's running mean is
    # numerically stabler but may differ in the last ulp)
    out["mean_v"] = out["sum_v"] / out["cnt"]
    return pd.DataFrame(out[["source", "cnt", "sum_v", "min_v", "max_v", "mean_v"]])


def _q_ws_tokens(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import text

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(text.token_count_batch, batch_format="pyarrow", batch_size=4096)
    return out.select_columns(["doc_id", "ws_tokens"])


def _q_quality(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import text

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(text.quality_metrics_batch, batch_format="pyarrow", batch_size=4096)
    return out.select_columns(["doc_id", "n_chars_m", "n_punct", "n_digit", "n_upper"])


def _q_exact_dedup(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    return dedup.exact_dedup(ds, text_col="text", key_col="doc_id")


def _q_line_dedup(sf_dir: str):
    """Corpus-wide duplicate-LINE removal (Dolma paragraph-dedup shape):
    first occurrence of each line wins globally, later copies are cut
    from their docs. The single-line fixture docs are first chunked into
    4-word lines deterministically on BOTH sides (chunk_words_batch /
    chunk_words_sql). Two streaming bucketed shuffles, nothing
    driver-side (pipelines/dedup.py:line_dedup)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    ds = ds.map_batches(dedup.chunk_words_batch, batch_format="pyarrow")
    return dedup.line_dedup(ds, text_col="text", key_col="doc_id")


def _query_vec(dim: int = 64) -> np.ndarray:
    return np.ones(dim, dtype=np.float64)


def _q_topk(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import ann

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    t = ann.brute_force_topk(ds, _query_vec(), k=10)
    return t.select(["vec_id", "rank"])


def _read_parquet(path: str, columns: list[str] | None = None):
    """``rd.read_parquet`` under the file's schema minus its pandas metadata
    (restricted to ``columns``). A read task joins its batches into one
    block; with that unhashable metadata attached Ray logs "Failed to hash
    the schemas (for deduplication)" inside the read, where a later
    ``util.clean_dataset`` cannot reach."""
    import pyarrow.parquet as pq
    import ray.data as rd

    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=schema)


def _q_ndiff(sf_dir: str):
    from duckdb_raquet_ray.pipelines import transforms as tr

    ds = _read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_discount", "l_tax"],
    )
    out = ds.map_batches(
        functools.partial(tr.ndiff_columns, a="l_discount", b="l_tax"),
        batch_format="pyarrow",
        batch_size=8192,
    )
    return out.select_columns(["l_orderkey", "l_linenumber", "ndiff"])


def _q_events_stats(sf_dir: str):
    import pandas as pd
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as st

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"])
    out = st.grouped_stats(ds, "event_type", "value").to_pandas()
    return pd.DataFrame(out[["event_type", "cnt", "min_v", "max_v"]])


NTOK_LO, NTOK_HI = 500, 2000


def _q_range_read(sf_dir: str):
    """Zone-map range read: manifest stats prune partitions outside the
    n_tok range (no file opened), residual filter inside survivors."""
    from duckdb_raquet_ray.pipelines import decode

    ds = decode.read_encoded_range(_ensure_encoded(), "n_tok", NTOK_LO, NTOK_HI)
    return _token_stats_view(ds)


def _q_manifest_totals(sf_dir: str):
    """Stats passthrough: corpus totals from the manifest ONLY (no blob is
    decoded), value-checked against SQL over the raw corpus."""
    import pandas as pd

    from duckdb_raquet_ray.state import manifest as mf

    t = mf.totals_passthrough(_ensure_encoded(), column="tokens")
    return pd.DataFrame([{k: int(v) for k, v in t.items()}])


def _q_rollup_source_stats(sf_dir: str):
    """Rollup-tier corpus health: per-source n_tok stats answered from the
    manifest's per-source ROLLUP rows ONLY (the overview-pyramid analogue
    — folded once at encode finalize; this query reads O(sources) rows
    from manifest.json, touches no partition file, re-aggregates no
    partials), value-checked against SQL over the raw corpus."""
    import pandas as pd

    from duckdb_raquet_ray.state import manifest as mf

    rows = mf.source_rollup(_ensure_encoded())
    return pd.DataFrame(
        {
            "source": [r["source"] for r in rows],
            "cnt": pd.array([r["count"] for r in rows], dtype="int64"),
            "sum_v": pd.array([float(r["sum"]) for r in rows], dtype="float64"),
            "min_v": pd.array([float(r["min"]) for r in rows], dtype="float64"),
            "max_v": pd.array([float(r["max"]) for r in rows], dtype="float64"),
            "mean_v": pd.array(
                [r["sum"] / r["count"] for r in rows], dtype="float64"
            ),
        }
    )


def _q_vocab_topk(sf_dir: str):
    """Global token-frequency top-100 over the corpus — the vocabulary-
    coverage health check of a training-data pipeline. Scale shape: one
    dense bincount PARTIAL per block (shuffle payload O(vocab)/block,
    independent of block rows), coarse-bucket reduce, deterministic
    (cnt desc, token asc) cutoff."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as st

    ds = rd.read_parquet(_ensure_corpus(), columns=["tokens"])
    return st.vocab_topk(ds, vocab_size=50_257, k=100)


_TEXTIO_ROWS = 2_000


def _jsonl_dir() -> str:
    """Persisted deterministic JSONL landing corpus (pure function of
    (rows, seed) — sources/textio.py); referenced by absolute path in the
    SQL oracle, so ensure it exists whenever either side runs."""
    from duckdb_raquet_ray.sources import textio

    d = f"/tmp/raquet_landing_jsonl_{_TEXTIO_ROWS}"
    textio.write_jsonl_corpus(d, _TEXTIO_ROWS, 4)
    return d


def _csv_dir() -> str:
    from duckdb_raquet_ray.sources import textio

    d = f"/tmp/raquet_landing_csv_{_TEXTIO_ROWS}"
    textio.write_csv_corpus(d, _TEXTIO_ROWS, 4)
    return d


def _q_jsonl_source_stats(sf_dir: str):
    """Landing-zone JSONL ingest (sources/textio.py): Ray's streaming
    JSON reader over the foreign shards, then the per-source health
    aggregate — value-checked against DuckDB read_json_auto over the
    SAME files, so the engine's foreign-format read path is the thing
    under oracle."""
    from duckdb_raquet_ray.sources import textio

    d = _jsonl_dir()
    paths = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".jsonl")
    )
    return textio.source_stats(textio.read_jsonl(paths))


def _jsonl_gz_dir() -> str:
    """Gzip twin of _jsonl_dir (deterministic bytes, mtime=0)."""
    from duckdb_raquet_ray.sources import textio

    d = f"/tmp/raquet_landing_jsonlgz_{_TEXTIO_ROWS}"
    textio.write_jsonl_gz_corpus(d, _TEXTIO_ROWS, 4)
    return d


def _q_jsonl_gz_source_stats(sf_dir: str):
    """Gzip JSONL ingest — the dominant web-corpus interchange form:
    Ray's streaming JSON reader with in-stream gzip decompression per
    task (sources/textio.py:read_jsonl), value-checked against DuckDB
    read_json_auto over the SAME .jsonl.gz files."""
    from duckdb_raquet_ray.sources import textio

    d = _jsonl_gz_dir()
    paths = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".jsonl.gz")
    )
    return textio.source_stats(textio.read_jsonl(paths))


def _csv_gz_dir() -> str:
    """Gzip twin of _csv_dir (deterministic bytes, mtime=0)."""
    from duckdb_raquet_ray.sources import textio

    d = f"/tmp/raquet_landing_csvgz_{_TEXTIO_ROWS}"
    textio.write_csv_gz_corpus(d, _TEXTIO_ROWS, 4)
    return d


def _q_csv_gz_source_stats(sf_dir: str):
    """Gzip CSV ingest: Arrow CSV parser with in-stream gzip
    decompression per task (sources/textio.py:read_csv), value-checked
    against DuckDB read_csv_auto over the SAME .csv.gz files."""
    from duckdb_raquet_ray.sources import textio

    d = _csv_gz_dir()
    paths = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".csv.gz")
    )
    return textio.source_stats(textio.read_csv(paths))


def _q_orc_sink_stats(sf_dir: str):
    """ORC export-sink round trip (the ipc_sink_stats twin for the
    Hive/Trino interchange format): engine writes zstd ORC shards,
    reads its OWN files back column-pruned, aggregates; oracle
    aggregates the parquet view (sources/textio.py:write_orc/read_orc)."""
    import shutil

    import ray.data as rd

    from duckdb_raquet_ray.sources import textio

    out = "/tmp/raquet_orc_sink"
    shutil.rmtree(out, ignore_errors=True)
    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "text"],
    )
    paths = textio.write_orc(ds, out)
    return textio.source_stats(textio.read_orc(paths, columns=["source", "text"]))


def _q_wds_sink_stats(sf_dir: str):
    """WebDataset tar export-sink round trip: write the documents table
    as deterministic tar shards ({key}.txt + {key}.json members,
    content-addressed names), read the WRITTEN tars back through the
    engine's own wds source, aggregate per source — the oracle computes
    the same aggregate over the parquet view, so a dropped/mangled
    member or a mis-grouped sample hash-mismatches
    (sources/textio.py:write_wds/read_wds)."""
    import shutil

    import ray.data as rd

    from duckdb_raquet_ray.sources import textio

    out = "/tmp/raquet_wds_sink"
    shutil.rmtree(out, ignore_errors=True)
    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "text"],
    )
    paths = textio.write_wds(ds, out)
    return textio.source_stats(textio.read_wds(paths))


def _q_jsonl_sink_stats(sf_dir: str):
    """Export-sink round trip: write the documents table out as JSONL
    shards (textio.write_jsonl), read the WRITTEN files back through the
    engine's own JSONL reader, and aggregate — the oracle computes the
    same aggregate over the parquet view directly, so any row the sink
    drops or mangles (quoting, escapes, unicode) hash-mismatches."""
    import shutil

    import ray.data as rd

    from duckdb_raquet_ray.sources import textio

    out = "/tmp/raquet_jsonl_sink"
    shutil.rmtree(out, ignore_errors=True)
    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "text"],
    )
    paths = textio.write_jsonl(ds, out)
    return textio.source_stats(textio.read_jsonl(paths))


def _q_jsonl_gz_sink_stats(sf_dir: str):
    """Gzip export-sink round trip (textio.write_jsonl_gz): the engine
    writes .jsonl.gz shards with in-stream per-task compression, reads
    its OWN files back through the gz read path, aggregates; oracle
    aggregates the parquet view — compression must be lossless or the
    hash mismatches."""
    import shutil

    import ray.data as rd

    from duckdb_raquet_ray.sources import textio

    out = "/tmp/raquet_jsonlgz_sink"
    shutil.rmtree(out, ignore_errors=True)
    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "text"],
    )
    paths = textio.write_jsonl_gz(ds, out)
    return textio.source_stats(textio.read_jsonl(paths))


def _q_ipc_sink_stats(sf_dir: str):
    """Arrow IPC (Feather v2) export-sink round trip: write the documents
    table as IPC shards (textio.write_ipc — per-task tmp->rename publish,
    content-addressed names), read the WRITTEN files back through the
    engine's column-pruned IPC reader, aggregate; oracle aggregates the
    parquet view — a lossless interchange or the hash mismatches."""
    import shutil

    import ray.data as rd

    from duckdb_raquet_ray.sources import textio

    out = "/tmp/raquet_ipc_sink"
    shutil.rmtree(out, ignore_errors=True)
    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "text"],
    )
    paths = textio.write_ipc(ds, out)
    return textio.source_stats(textio.read_ipc(paths, columns=["source", "text"]))


def _q_csv_sink_stats(sf_dir: str):
    """CSV export-sink round trip (the jsonl_sink_stats twin): write the
    documents table as CSV shards, read the WRITTEN files back through
    the engine's own CSV reader, aggregate; oracle aggregates the
    parquet view — quoting/escape fidelity under value hash."""
    import shutil

    import ray.data as rd

    from duckdb_raquet_ray.sources import textio

    out = "/tmp/raquet_csv_sink"
    shutil.rmtree(out, ignore_errors=True)
    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "text"],
    )
    paths = textio.write_csv(ds, out)
    return textio.source_stats(textio.read_csv(paths))


def _q_csv_source_stats(sf_dir: str):
    """Landing-zone CSV ingest — same health aggregate, Arrow CSV parser
    under Ray's reader, DuckDB read_csv_auto as the oracle."""
    from duckdb_raquet_ray.sources import textio

    d = _csv_dir()
    paths = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".csv")
    )
    return textio.source_stats(textio.read_csv(paths))


_HLL_P = 10


def _q_hll_registers(sf_dir: str):
    """HyperLogLog distinct-token sketch (Flajolet et al. 2007): register
    table for the corpus vocabulary cardinality. The hash is splitmix64
    (modular integer math) so every register value-checks in SQL; the
    shuffle moves <= 2^p rows per block — the mergeable-sketch answer to
    "distinct count at 100 TB" where an exact COUNT(DISTINCT) groupby
    would shuffle every token (stages/stats.py:hll_registers)."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as st

    ds = rd.read_parquet(_ensure_corpus(), columns=["tokens"])
    return st.hll_registers(ds, "tokens", p=_HLL_P)


def _q_grouped_quantiles_cont(sf_dir: str):
    """INTERPOLATED per-source quantiles (percentile_cont — the
    Postgres h = p*(n-1) linear rule) via the same (group, value, cnt)
    partial + bucketed rank scan as the disc variant; float parity at
    the driver's %.9g hash tolerance (stats.grouped_quantiles_cont)."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as _st

    ds = rd.read_parquet(_ensure_corpus(), columns=["source", "n_tok"])
    return _st.grouped_quantiles_cont(ds, group_col="source", value_col="n_tok")


def _q_quantile_filter(sf_dir: str):
    """Per-source length-floor cleaning: keep docs whose n_tok >= their
    source's EXACT median (percentile_disc 0.5) — the per-domain cleaning
    rule; cutoffs from the grouped-quantile fold, then one broadcast
    stateless filter pass (sampling.quantile_filter)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import sampling

    ds = rd.read_parquet(_ensure_corpus(), columns=["doc_id", "source", "n_tok"])
    return sampling.quantile_filter(
        ds, group_col="source", value_col="n_tok", p=0.5
    )


def _q_grouped_hll(sf_dir: str):
    """Per-source HLL register table — the domain-drift check (distinct
    vocabulary per source) at sketch cost: block partials are <= groups x
    2^p rows, one groupby-max merges, every register value-checked per
    group (stages/stats.py:grouped_hll_registers)."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as st

    ds = rd.read_parquet(_ensure_corpus(), columns=["source", "tokens"])
    return st.grouped_hll_registers(ds, "source", "tokens", p=_HLL_P)


_STRAT_K = 40
_STRAT_SEED = 11


def _q_stratified_sample(sf_dir: str):
    """Exactly-k-per-source balanced sample (eval slices / per-domain
    inspection sets): k smallest seeded key hashes per group, per-block
    pre-cap so at most O(groups x k) rows leave any block
    (pipelines/sampling.py:stratified_sample)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import sampling

    ds = rd.read_parquet(_ensure_corpus(), columns=["doc_id", "source"])
    return sampling.stratified_sample(ds, k=_STRAT_K, seed=_STRAT_SEED)


def _q_grouped_topk(sf_dir: str):
    """Per-SOURCE token top-10 — the per-domain vocabulary profile
    (mixture-weighting / domain-drift input). One (group, token, cnt)
    partial per distinct pair per block; bucketing by hash(source) makes
    the per-group top-k cap exact in-bucket, so only O(groups x k) rows
    leave the shuffle (stages/stats.py:grouped_topk)."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as st

    ds = rd.read_parquet(_ensure_corpus(), columns=["source", "tokens"])
    return st.grouped_topk(ds, vocab_size=50_257, k=10)


def _q_seqlen_quantiles(sf_dir: str):
    """Exact sequence-length quantiles (packing-efficiency planning) from
    the full n_tok histogram; percentile semantics == SQL percentile_disc."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as st

    ds = rd.read_parquet(_ensure_corpus(), columns=["n_tok"])
    return st.seqlen_quantiles(ds, max_len=1 << 14)


def _q_packed_windows(sf_dir: str):
    """GPT-style sequence packing (concat docs + separator, chop every
    2048 tokens) summarized per window with an order-pinning positional
    checksum — the two-pass prefix-sum operator (pipelines/packing.py):
    shard base offsets planned from a pruned n_tok read, per-shard window
    partials, merge touches only boundary-straddling windows."""
    from duckdb_raquet_ray.pipelines import packing

    return packing.packed_window_stats(_ensure_corpus(), window=2048)


def _q_packed_spans(sf_dir: str):
    """Per-window document-segment lengths (packing.window_doc_spans):
    the attention-mask boundary metadata next to the packed token
    windows, derived from the offset plan + the skinny n_tok column
    only — the token plane is never read. Scalar view: (window_id,
    n_segs, sum of seg lens, rank-weighted checksum)."""
    from duckdb_raquet_ray.pipelines import packing

    ds = packing.window_doc_spans(_ensure_corpus(), window=2048)

    def scalarize(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_columns == 0 or t.num_rows == 0:
            return pa.table(
                {
                    "window_id": pa.array([], pa.int64()),
                    "n_segs": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "spans_checksum": pa.array([], pa.int64()),
                }
            )
        col = t.column("seg_lens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        lens = (
            pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        csum = np.zeros(len(flat) + 1, np.int64)
        np.cumsum(flat, out=csum[1:])
        offsets = np.zeros(len(lens) + 1, np.int64)
        np.cumsum(lens, out=offsets[1:])
        return pa.table(
            {
                "window_id": t.column("window_id"),
                "n_segs": t.column("n_segs"),
                "n_tokens": pa.array(csum[offsets[1:]] - csum[offsets[:-1]]),
                "spans_checksum": t.column("spans_checksum"),
            }
        )

    return ds.map_batches(scalarize, batch_format="pyarrow")


_MIXTURE_RATES = {"web": 0.25, "code": 0.5, "wiki": 0.9, "books": 1.0}
# per-source token budgets (web gets ~100k tokens, code ~55k, misc an
# impossible 1 -> zero kept); every other source gets the 30k default
_TOKEN_BUDGETS = {"web": 100_000, "code": 55_000, "misc": 1}
_TOKEN_BUDGET_DEFAULT = 30_000
_TOKEN_BUDGET_SEED = 7
_MIXTURE_SEED, _EPOCH_SEED = 7, 3


def _q_mixture_sample(sf_dir: str):
    """Deterministic source-mixture subsampling (domain re-weighting):
    keep iff mix64(hash(doc_id), seed) < floor(rate[source] * 2^64) —
    stateless per-row decision, stable under any partitioning, integer
    thresholds fixed at plan time (pipelines/sampling.py)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import sampling

    ds = rd.read_parquet(_ensure_corpus(), columns=["doc_id", "source", "n_tok"])
    return sampling.source_mixture_sample(ds, _MIXTURE_RATES, seed=_MIXTURE_SEED)


_TEMPERATURE_TAU = 0.5
_TEMPERATURE_SEED = 11


def _temperature_rates_corpus() -> dict[str, float]:
    """Plan-time temperature keep-rates from the corpus's EXACT source
    counts (pure function — pyarrow read, no Ray; the DSIR plan-time-
    weights precedent). Shared by the query and the oracle so the
    inlined thresholds are identical."""
    import pyarrow.parquet as _pq

    from duckdb_raquet_ray.pipelines import sampling

    counts: dict[str, int] = {}
    for p in _ensure_corpus():
        col = _pq.read_table(p, columns=["source"]).column("source")
        import pyarrow.compute as _pc

        vc = _pc.value_counts(col.combine_chunks())
        for row in vc.to_pylist():
            s = row["values"] or ""
            counts[s] = counts.get(s, 0) + int(row["counts"])
    return sampling.temperature_rates_from_counts(counts, _TEMPERATURE_TAU)


def _q_temperature_sample(sf_dir: str):
    """Temperature-scaled mixture sampling (the Pile/UniMax tau rule):
    keep-rate_s = n_s^(tau-1) normalized to max 1 over the corpus's
    naturally skewed source counts, then the deterministic per-row
    hash-threshold filter (pipelines/sampling.py:temperature_rates_from_
    counts + source_mixture_sample). tau=0.5 flattens the web-heavy mix;
    the oracle inlines the identical integer thresholds."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import sampling

    rates = _temperature_rates_corpus()
    ds = rd.read_parquet(_ensure_corpus(), columns=["doc_id", "source", "n_tok"])
    return sampling.source_mixture_sample(ds, rates, seed=_TEMPERATURE_SEED)


def _q_tokenize_encode_roundtrip(sf_dir: str):
    """FLAGSHIP composition: raw documents -> tokenize_hashed -> full
    columnar encode_job (planner, FoR/RLE/dict/bitpack codecs, lineage
    manifest) -> per-row token stats read OFF THE ENCODED FORM
    (rowcodec.stats_child pushdown, no token-plane materialization).
    The oracle re-derives the same numbers in pure SQL from the raw
    text, so one value check pins the tokenizer AND bit-identity of the
    whole codec chain end to end."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import decode, encode
    from duckdb_raquet_ray.pipelines import text as _text

    tag = os.path.basename(os.path.normpath(sf_dir))
    enc_dir = f"/tmp/raquet_tokenc_{tag}_{ENGINE_TAG}"
    if not os.path.exists(os.path.join(enc_dir, "manifest.json")):
        land = f"{enc_dir}.landing"
        if not os.path.isdir(land):
            ds = rd.read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text", "source"],
            )
            toks = _text.tokenize_hashed(ds, keep_cols=("source",))
            tmp = f"{land}.tmp-{os.getpid()}"
            toks.write_parquet(tmp)
            os.rename(tmp, land)  # publish-by-rename: kill-safe landing
        files = sorted(glob.glob(os.path.join(land, "*.parquet")))
        encode.encode_job(files, enc_dir, target_part_bytes=1 << 20)
    return decode.read_encoded_token_stats(enc_dir).select_columns(
        ["doc_id", "n_tok", "source", "tok_count", "tok_min", "tok_max", "tok_sum"]
    )


def _q_cms_registers(sf_dir: str):
    """Count-Min sketch BUILD over the corpus token stream
    (pipelines/cms.py): per-block nonzero-cell partials, one
    sketch-bounded groupby-sum — cell counts are EXACT (merge is
    lossless by linearity), so every cell value-checks in SQL."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import cms

    ds = rd.read_parquet(_ensure_corpus(), columns=["tokens"])
    return cms.cms_registers(ds, "tokens")


def _q_cms_estimate(sf_dir: str):
    """Count-Min point-frequency estimates for tokens 0..63: min over
    the d rows of the item's cell — the approximate scale path next to
    the exact vocab_topk shuffle. The SQL twin replicates the min rule
    over exact cell counts, so the sketch's OVERESTIMATES (collisions)
    hash-match too."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import cms

    ds = rd.read_parquet(_ensure_corpus(), columns=["tokens"])
    sk = cms.cms_build(ds, "tokens")
    items = np.arange(64, dtype=np.int64)
    return pa.table(
        {
            "token": pa.array(items, pa.int64()),
            "est": pa.array(cms.cms_estimate(sk, items), pa.int64()),
        }
    )


def _q_token_entropy(sf_dir: str):
    """Corpus token-distribution entropy (stages/stats.token_entropy):
    vocab-bounded dense histogram partials, one driver fold — total /
    distinct / Shannon bits per token, float-checked at the driver's
    %.9g tolerance like the Welford oracles."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as _stats

    return _stats.token_entropy(
        rd.read_parquet(_ensure_corpus(), columns=["tokens"])
    )


def _q_cumulative_window(sf_dir: str):
    """Per-user running rank + running value sum over events — the
    SUM() OVER (PARTITION BY ... ORDER BY ... ROWS UNBOUNDED PRECEDING)
    surface (pipelines/joins.cumulative_window): one bucket shuffle,
    lexsort + cumsum-minus-key-base per bucket, floats added in frame
    order so the running doubles hash at %.9g."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import joins as _joins

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "value"],
    )
    return _joins.cumulative_window(ds, "user_id", "ts", "event_id", "value")


def _q_rolling_window(sf_dir: str):
    """Per-user trailing 5-row sum over events — the ROWS BETWEEN k-1
    PRECEDING AND CURRENT ROW moving-average surface
    (pipelines/joins.rolling_window): one bucket shuffle, lexsort +
    cumsum-difference trailing frames, integer micro-units so the
    compare is exact."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import joins as _joins

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "value"],
    )
    return _joins.rolling_window(ds, "user_id", "ts", "event_id", "value", window_rows=5)


def _q_rolling_time_window(sf_dir: str):
    """Per-user trailing 5-second RANGE window over events
    (pipelines/joins.rolling_time_window): frame bounded by TIMESTAMP
    (equal-ts peers all in frame, SQL RANGE semantics), count +
    fixed-point micro sum, exact compare."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import joins as _joins

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "value"],
    )
    return _joins.rolling_time_window(
        ds, "user_id", "ts", "event_id", "value", range_us=5_000_000
    )


def _q_lag_gap(sf_dir: str):
    """Per-user inter-event gaps — lag() OVER in epoch µs, NULL on each
    key's first row (pipelines/joins.lag_gap_window); integer-exact."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import joins as _joins

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id"],
    )
    return _joins.lag_gap_window(ds, "user_id", "ts", "event_id")


def _q_append_encode(sf_dir: str):
    """Append ingestion (pipelines/encode.append_job): encode half the
    corpus, APPEND the other half into the same dir (new shard indices
    after the old, old partitions untouched), then read the appended dir's
    token stats — the oracle is the FULL-corpus stats, so the result only
    hash-matches if append-then-read == one-shot encode-then-read."""
    from duckdb_raquet_ray.pipelines import encode

    from duckdb_raquet_ray.state import manifest as mf

    paths = _ensure_corpus()
    half = len(paths) // 2
    out = f"/tmp/raquet_encoded_append_check_{ENGINE_TAG}"
    if not os.path.exists(os.path.join(out, "manifest.json")):
        encode.encode_job(paths[:half], out, target_part_bytes=PART_BYTES)
        encode.append_job(paths[half:], out)
    elif len(mf.load_metadata(out).get("input_shards") or []) < len(paths):
        # resume a killed append: job.json is written BEFORE the append
        # encodes, so only the FINALIZED manifest's input_shards proves
        # the append completed (append_job re-runs are idempotent)
        encode.append_job(paths[half:], out)
    from duckdb_raquet_ray.pipelines import decode

    return _token_stats_view(decode.read_encoded(out))


def _q_grouped_entropy(sf_dir: str):
    """Per-source token entropy (stages/stats.grouped_token_entropy):
    dense pair-id partials bucketed by hash(source) — each source's whole
    distribution folds inside one bucket, floats summed in (group, token)
    order for determinism."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as _stats

    return _stats.grouped_token_entropy(
        rd.read_parquet(_ensure_corpus(), columns=["source", "tokens"])
    )


def _q_script_mix(sf_dir: str):
    """Per-doc Unicode-script character counts over deterministically
    spliced Cyrillic/Han/Greek snippets (pipelines/text.py:script_mix —
    RE2 \\p{Script} classes, pyarrow = DuckDB's engine so counts are
    parity-by-construction)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import text as _text

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(_text.synthesize_scripts_batch, batch_format="pyarrow")
    return _text.script_mix(ds).select_columns(
        ["doc_id", "n_latin", "n_cyrillic", "n_han", "n_greek", "n_arabic"]
    )


_PHRASE = ["the", "stream"]


def _q_phrase_count(sf_dir: str):
    """Exact phrase (word-sequence) counts per doc — the retrieval
    feature bag-of-words BM25 misses (retrieval.phrase_count): one
    streaming pass, m shifted equality masks over the exploded word
    array; list_filter-over-start-positions SQL twin."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import retrieval

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return retrieval.phrase_count(ds, _PHRASE)


def _q_phrase_indexed(sf_dir: str):
    """The same phrase off the PERSISTED positional index
    (retrieval.build_positional_index / phrase_search_indexed): only the
    phrase terms' hive buckets open; the result must hash-match the
    direct path's nonzero rows — here pinned directly against the SQL
    oracle."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import retrieval
    from duckdb_raquet_ray.state import bucket_index

    tag = os.path.basename(os.path.normpath(sf_dir))
    idx_dir = f"/tmp/raquet_posidx_{tag}_{ENGINE_TAG}"
    if not os.path.exists(os.path.join(idx_dir, bucket_index.MARKER)):
        ds = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        retrieval.build_positional_index(ds, idx_dir)
    return retrieval.phrase_search_indexed(idx_dir, _PHRASE)


def _q_grouped_kl(sf_dir: str):
    """Per-source KL(P_source || P_corpus) token-distribution divergence
    (stages/stats.grouped_kl_divergence): exact O(vocab) corpus histogram
    broadcast once, the shared grouped partials folded in-bucket with
    deterministic float order; DuckDB twin at %.9g tolerance."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as _stats

    return _stats.grouped_kl_divergence(
        rd.read_parquet(_ensure_corpus(), columns=["source", "tokens"])
    )


def _q_random_projection(sf_dir: str):
    """Johnson-Lindenstrauss sparse random projection of the int8-
    quantized embeddings to 8 dims (ann.random_projection_int8): exact
    int64 matmul per batch, weights a pure function of (dim, out_dim,
    seed) inlined into the SQL oracle as VALUES."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import ann

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    return ann.random_projection_int8(ds, out_dim=8, seed=42)


def _q_ordered_export(sf_dir: str):
    """Globally sorted decode-to-parquet export (decode.export_job
    order_by=doc_id — Ray's range-partitioned sort) followed by the
    positional readback (decode.export_positions): the engine asserts
    row k of the export holds the rank-k doc_id, and the row_number()
    oracle hash-checks every (pos, doc_id, n_tok) triple — a broken
    sort (overlapping files, unsorted rows) cannot pass."""
    import shutil

    from duckdb_raquet_ray.pipelines import decode

    dest = "/tmp/raquet_ordered_export"
    shutil.rmtree(dest, ignore_errors=True)
    decode.export_job(
        _ensure_encoded(), dest, columns=["doc_id", "n_tok"], order_by="doc_id"
    )
    return decode.export_positions(dest, "doc_id", columns=["doc_id", "n_tok"])


def _q_chunk_docs(sf_dir: str):
    """Sliding-window document chunking (pipelines/text.py:chunk_docs):
    vectorized multi-range byte gather, one chunk row per window —
    byte-exact vs the generate_series + substring SQL twin."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import text as _text

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return _text.chunk_docs(ds, size=256, stride=192)


def _q_cms_heavy_hitters(sf_dir: str):
    """EXACT heavy hitters (count >= 100) with the Count-Min sketch as a
    shuffle-pruning candidate filter (pipelines/cms.py): CMS never
    underestimates, so sketch-filtered candidates + one exact verify
    groupby return exactly the plain GROUP BY ... HAVING answer — the
    oracle would catch any collision survivor leaking through."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import cms

    ds = rd.read_parquet(_ensure_corpus(), columns=["tokens"])
    # w >> N/threshold so the sketch actually prunes (mean cell ~24 vs
    # threshold 100 on the 3.1M-token check corpus); the oracle is
    # threshold-only — w must be invisible in the result
    return cms.cms_heavy_hitters(ds, "tokens", threshold=100, w=1 << 17)


# doc_id % mod == rem row split: util.mod_split (the partials shipped to
# workers must target the by-value-registered PACKAGE, not this driver
# module — a foreign-cwd driver run cannot import __ray_entry__ on workers)


def _q_bloom_registers(sf_dir: str):
    """Distributed Bloom filter BUILD (pipelines/bloom.py): word-5-gram
    hashes of the benchmark docs (doc_id % 50 == 7) -> Kirsch-Mitzenmacher
    double-hashed bit positions -> sketch-bounded distinct shuffle ->
    packed uint64 words. The oracle re-derives every nonzero word in
    DuckDB HUGEINT arithmetic, so the packed bitmap value-checks."""
    import ray.data as rd

    from duckdb_raquet_ray import util as _util_mod
    from duckdb_raquet_ray.pipelines import bloom

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    bench = ds.map_batches(
        functools.partial(_util_mod.mod_split, mod=50, rem=7, keep=True),
        batch_format="pyarrow",
    )
    words = bloom.bloom_build(bench, n=5, m_bits=bloom.M_BITS_DEFAULT, k=4)
    return bloom.registers_table(words)


def _q_bloom_decontaminate(sf_dir: str):
    """Bloom-based decontamination: the GPT-3 appendix-C n-gram overlap
    rule at the 100-TB shape — the benchmark set lives in an O(m)-bit
    sketch broadcast once, the corpus streams through one k-bit probe
    pass. The SQL twin replicates the exact bit arithmetic, so even
    Bloom FALSE POSITIVES hash-match (pipelines/bloom.py)."""
    import ray.data as rd

    from duckdb_raquet_ray import util as _util_mod
    from duckdb_raquet_ray.pipelines import bloom

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    bench = ds.map_batches(
        functools.partial(_util_mod.mod_split, mod=50, rem=7, keep=True),
        batch_format="pyarrow",
    )
    words = bloom.bloom_build(bench, n=5, m_bits=bloom.M_BITS_DEFAULT, k=4)
    train = ds.map_batches(
        functools.partial(_util_mod.mod_split, mod=50, rem=7, keep=False),
        batch_format="pyarrow",
    )
    return bloom.bloom_probe(train, words, n=5, concurrency=(1, 4)).select_columns(
        ["doc_id", "bloom_hits", "bloom_flag"]
    )


def _q_tokenize_docs(sf_dir: str):
    """Hashed tokenization (text -> list<int32> ids, feature hashing)
    checked through the position-weighted checksum so every id is pinned
    POSITIONALLY (pipelines/text.py:tokenize_hashed + the
    transforms.position_weighted kernel token_posweight already uses)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import text as _text
    from duckdb_raquet_ray.pipelines import transforms as _tr

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    toks = _text.tokenize_hashed(ds)
    return toks.map_batches(
        lambda b: _tr.position_weighted(b, id_cols=("doc_id", "n_tok")),
        batch_format="pyarrow",
    )


def _q_grouped_quantiles(sf_dir: str):
    """Exact per-source sequence-length quantiles (percentile_disc per
    group): (group, value, cnt) partials bucketed by hash(group), one
    in-bucket cumulative rank scan (stages/stats.py:grouped_quantiles)."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as _stats

    ds = rd.read_parquet(_ensure_corpus(), columns=["source", "n_tok"])
    return _stats.grouped_quantiles(ds, group_col="source", value_col="n_tok")


def _q_token_budget(sf_dir: str):
    """Exact per-source TOKEN-budget sampling: keep the maximal prefix of
    docs in seeded-hash order whose cumulative n_tok fits each source's
    budget — found sort-free by iterative histogram refinement over the
    hash space (pipelines/sampling.py:token_budget_sample); the SQL twin
    is a cumulative window sum over the identical order."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import sampling

    ds = rd.read_parquet(_ensure_corpus(), columns=["doc_id", "source", "n_tok"])
    return sampling.token_budget_sample(
        ds,
        _TOKEN_BUDGETS,
        seed=_TOKEN_BUDGET_SEED,
        default_budget=_TOKEN_BUDGET_DEFAULT,
    )


def _q_epoch_order(sf_dir: str):
    """Seeded reproducible epoch shuffle: first 200 docs by
    mix64(hash(doc_id), seed) — partition-independent rank."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import sampling

    ds = rd.read_parquet(_ensure_corpus(), columns=["doc_id"])
    return sampling.epoch_order(ds, seed=_EPOCH_SEED).limit(200)


def _q_embedding_quantize(sf_dir: str):
    """Symmetric int8 quantization of the embedding table (ANN index
    compression) summarized by exact integer checksums — every float step
    (float32->float64, order-independent max|x|, round-half-away) is
    bit-replicable in SQL (pipelines/ann.py:quantize_int8_batch)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import ann

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    out = ds.map_batches(ann.quantize_int8_batch, batch_format="pyarrow", batch_size=4096)
    return out.select_columns(["vec_id", "q_checksum", "q_l1"])


_PQ_M, _PQ_KSUB = 8, 16


def _pq_codebook(sf_dir: str):
    """Train-or-load the PQ codebook for one sf dir (cached in /tmp so the
    Ray query and its SQL oracle — which inlines the centroids — use the
    SAME codebook within a driver run)."""
    import json

    from duckdb_raquet_ray.pipelines import ann

    tag = os.path.basename(os.path.normpath(sf_dir))
    path = f"/tmp/raquet_pq_{tag}_{ENGINE_TAG}.json"
    if os.path.exists(path):
        with open(path) as f:
            return ann.PqCodebook.from_json(json.load(f))
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    cb = ann.train_pq(ds, m=_PQ_M, ksub=_PQ_KSUB)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(cb.to_json(), f)
    os.replace(tmp, path)
    return cb


def _q_pq_codes(sf_dir: str):
    """Product-quantization encode (the opt-in LOSSY embedding tier:
    64-dim float32 -> 8 uint8 codes, 32x) — integer-exact end to end, so
    the per-vector positional code checksum carries a full value oracle
    (pipelines/ann.py:PqCodebook)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import ann

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    out = ann.pq_encode(ds, _pq_codebook(sf_dir))
    return out.select_columns(["vec_id", "pq_checksum"])


_APPEND_CUT = 250  # key split shared by every incremental-append query
                   # AND its oracle SQL (WHERE key </>= _APPEND_CUT)


def _key_half(lt: bool, key: str = "doc_id", cut: int = _APPEND_CUT):
    """pa.Table filter: keys below (lt=True) / at-or-above `cut`."""

    def f(t):
        import pyarrow as _pa

        k = t.column(key).to_numpy(zero_copy_only=False)
        return t.filter(_pa.array(k < cut if lt else k >= cut))

    return f


def _q_incremental_dedup(sf_dir: str):
    """Daily-append workflow: the first half of the corpus is indexed once
    (16 B/doc hive-bucketed content hashes, dedup.build_content_index);
    the 'new' batch — the second half plus 50 planted copies of indexed
    texts — dedups against the INDEX without re-reading the old corpus
    (only probed hash buckets open). Text-level SQL anti-join oracle."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup
    from duckdb_raquet_ray.state import bucket_index

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def _replant(t: pa.Table) -> pa.Table:
        k = t.column("doc_id").to_numpy(zero_copy_only=False)
        sub = t.filter(pa.array(k < 50))
        return sub.set_column(
            sub.schema.get_field_index("doc_id"), "doc_id",
            pa.array(sub.column("doc_id").to_numpy(zero_copy_only=False) + 1000),
        )

    old = docs.map_batches(_key_half(True), batch_format="pyarrow")
    new = docs.map_batches(_key_half(False), batch_format="pyarrow").union(
        docs.map_batches(_replant, batch_format="pyarrow")
    )
    tag = os.path.basename(os.path.normpath(sf_dir))
    idx_dir = f"/tmp/raquet_incdedup_{tag}_{ENGINE_TAG}"
    if not os.path.exists(os.path.join(idx_dir, bucket_index.MARKER)):
        dedup.build_content_index(old, idx_dir)
    return dedup.incremental_exact_dedup(new, idx_dir).select_columns(
        ["doc_id", "text"]
    )


def _q_incremental_minhash(sf_dir: str):
    """NEAR-dup daily append: the first half of the corpus's LSH band
    cells are indexed once (12 B per (doc, band), hive-bucketed —
    dedup.build_minhash_index); the 'new' batch — the second half plus
    planted near-dup mangles of indexed docs (old-collision drops) and
    of new docs (smaller-key drops) — dedups against the INDEX without
    re-reading old text (only touched band buckets open). Text-level
    SQL oracle recomputes band cells for both halves through the shared
    suffixed CTE chain."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup
    from duckdb_raquet_ray.state import bucket_index

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def _mangle(lo: int, hi: int, offset: int, tail: str):
        def f(t: pa.Table) -> pa.Table:
            k = t.column("doc_id").to_numpy(zero_copy_only=False)
            sub = t.filter(pa.array((k >= lo) & (k < hi)))
            ks = sub.column("doc_id").to_numpy(zero_copy_only=False) + offset
            txt = sub.column("text").to_pandas().fillna("") + tail
            return pa.table(
                {"doc_id": pa.array(ks, pa.int64()), "text": pa.array(txt, pa.string())}
            )

        return f

    old = docs.map_batches(_key_half(True), batch_format="pyarrow")
    new = (
        docs.map_batches(_key_half(False), batch_format="pyarrow")
        .union(docs.map_batches(_mangle(0, 50, 1000, " x"), batch_format="pyarrow"))
        .union(docs.map_batches(_mangle(250, 275, 3000, " y"), batch_format="pyarrow"))
    )
    tag = os.path.basename(os.path.normpath(sf_dir))
    idx_dir = f"/tmp/raquet_mhidx_{tag}_{ENGINE_TAG}"
    # 8 bands x 8 rows: the no-verify tier needs a steep collision curve
    # (P = j^8 per band) so the LSH decision alone approximates the
    # verified tier's 0.8 threshold (j* = (1/8)^(1/8) ~ 0.77)
    if not os.path.exists(os.path.join(idx_dir, bucket_index.MARKER)):
        dedup.build_minhash_index(old, idx_dir, bands=8)
    return dedup.incremental_minhash_dedup(new, idx_dir, bands=8).select_columns(
        ["doc_id", "text"]
    )


def _q_containment_dedup(sf_dir: str):
    """Asymmetric containment dedup (dedup.containment_dedup): planted
    60-char prefixes of every 7th doc are fully CONTAINED in their
    source (tiny Jaccard, containment ~1) and must drop; rare-gram
    candidates + the shared distributed verify with
    metric='containment'. Full SQL value oracle."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def _plant(t: pa.Table) -> pa.Table:
        k = t.column("doc_id").to_numpy(zero_copy_only=False)
        sub = t.filter(pa.array(k % 7 == 0))
        ks = sub.column("doc_id").to_numpy(zero_copy_only=False) + 5000
        # middle slice, not prefix: the synthetic docs share openings, so
        # prefix grams are corpus-common (df > max_df) and carry no
        # rare-gram witness; mid-doc content is doc-specific
        txt = sub.column("text").to_pandas().fillna("").str.slice(20, 80)
        return pa.table(
            {"doc_id": pa.array(ks, pa.int64()), "text": pa.array(txt, pa.string())}
        )

    both = docs.union(docs.map_batches(_plant, batch_format="pyarrow"))
    return dedup.containment_dedup(both, threshold=0.9).select_columns(
        ["doc_id", "text"]
    )


def _q_clean_corpus(sf_dir: str):
    """The composed cleaning pipeline a training run actually executes:
    MinHash near-dup removal -> Gopher repetition drop (dup 2-gram mass
    <= 1/2) -> benchmark decontamination (drop) — three independently
    oracle-checked stages chained into ONE value-checked result. Per-doc
    metrics are pure per-doc functions, so the SQL twin intersects each
    stage's keep-set computed over the full table — equivalent to the
    pipelined order."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import contamination as cont
    from duckdb_raquet_ray.pipelines import dedup, quality

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = dedup.minhash_dedup(docs)
    out = quality.gopher_filter(
        quality.repetition_metrics(out, n=2), max_dup_frac=0.5
    )
    # the benchmark set comes from the ORIGINAL table (doc_id%50==7), and
    # bench docs themselves leave the training set before the probe (the
    # contamination oracle's output domain). Ray's expr filter can't
    # parse a modulo, so these are vectorized pyarrow masks.
    import functools as _ft

    from duckdb_raquet_ray.util import mod_split

    out = out.map_batches(
        _ft.partial(mod_split, mod=50, rem=7, keep=False), batch_format="pyarrow"
    )
    bench = cont.benchmark_ngram_set(
        docs.map_batches(
            _ft.partial(mod_split, mod=50, rem=7, keep=True), batch_format="pyarrow"
        ),
        n=5,
    )
    out = cont.decontaminate(out, bench, n=5, drop=True, concurrency=(1, 4))
    return out.select_columns(["doc_id"])


def _clean_corpus_oracle_sql() -> str:
    from duckdb_raquet_ray.pipelines import contamination as _contamination
    from duckdb_raquet_ray.pipelines import dedup as _dedup
    from duckdb_raquet_ray.pipelines import quality as _quality

    mh = _dedup.minhash_oracle_sql("documents")
    rep = _quality.repetition_oracle_sql("documents", n=2)
    con = _contamination.contamination_oracle_sql("documents", n=5)
    return f"""
SELECT d.doc_id FROM documents d
WHERE d.doc_id IN (SELECT doc_id FROM ({mh}))
  AND d.doc_id IN (SELECT doc_id FROM ({rep})
                   WHERE dup_gram_positions * 2 <= n_grams)
  AND d.doc_id IN (SELECT doc_id FROM ({con}) WHERE contaminated = 0)
"""


_SPLIT_FRACTIONS = {"train": 0.98, "val": 0.01, "test": 0.01}
_SPLIT_SEED = 17


def _q_assign_splits(sf_dir: str):
    """Deterministic train/val/test assignment: split = the hash range
    mix64(hash(doc_id), seed) falls into — stable under partitioning,
    resume, and corpus growth (pipelines/sampling.py:assign_splits)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import sampling

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    return sampling.assign_splits(
        ds, _SPLIT_FRACTIONS, seed=_SPLIT_SEED
    ).select_columns(["doc_id", "split"])


_LEN_BOUNDARIES = (256, 512, 1024, 2048, 4096)


def _q_length_buckets(sf_dir: str):
    """Length-bucketed batching stats (padding-efficiency accounting) over
    the documents table's n_chars."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import sampling

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "n_chars"]
    )
    return sampling.length_bucket_stats(
        ds, length_col="n_chars", boundaries=_LEN_BOUNDARIES
    )


def _q_normalize_docs(sf_dir: str):
    """Unicode normalization (NFC + lowercase + whitespace collapse +
    trim) over deterministically MANGLED docs — the ASCII fixture gets
    non-ASCII teeth from the identical 3-replace derive on both sides
    (pipelines/text.py:mangle_unicode_batch / mangle_unicode_sql)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import text as _text

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return _text.normalize_text(
        ds.map_batches(_text.mangle_unicode_batch, batch_format="pyarrow")
    )


def _q_html_strip(sf_dir: str):
    """HTML boilerplate removal over deterministically HTML-WRAPPED docs
    (page chrome + comment + script-with-bare-'<' + style + entities,
    derived identically on both sides): comments/script/style/tags
    dropped, entities decoded after tag removal, whitespace collapsed —
    every regex step RE2 on both engines, byte parity by construction
    (pipelines/text.py:html_strip / html_mangle_batch)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import text as _text

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return _text.html_strip(
        ds.map_batches(_text.html_mangle_batch, batch_format="pyarrow")
    )


_URL_BLOCKLIST = ["site8.example.org", "site14.example.org", "spam.example.net"]


def _q_url_blocklist(sf_dir: str):
    """URL blocklist document filter (the C4/RefinedWeb URL-filter step)
    over docs with deterministically SPLICED urls: one fused RE2
    alternation (host = blocked domain or subdomain, boundary by
    consumed char — RE2 has no lookaheads) on both engines
    (pipelines/pii.py:url_blocklist_filter)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import pii

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    synth = ds.map_batches(pii.synthesize_urls_batch, batch_format="pyarrow")
    return pii.url_blocklist_filter(synth, _URL_BLOCKLIST).select_columns(
        ["doc_id", "url_blocked"]
    )


def _q_sentence_stats(sf_dir: str):
    """Per-doc sentence segmentation stats (RE2 split both sides,
    explicit trim set — pipelines/text.py:sentence_stats)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import text as _text

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return _text.sentence_stats(ds).select_columns(
        ["doc_id", "n_sentences", "sent_chars"]
    )


def _q_url_scan(sf_dir: str):
    """URL count + first-URL domain per doc (RE2 both sides; deterministic
    URLs spliced — the sf docs are URL-free)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import pii

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(pii.synthesize_urls_batch, batch_format="pyarrow")
    return pii.url_scan(ds).select_columns(["doc_id", "n_urls", "domain"])


def _q_domain_counts(sf_dir: str):
    """Top-20 domains by doc count — the blocklist/mixture-weight feed."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import pii

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(pii.synthesize_urls_batch, batch_format="pyarrow")
    return pii.domain_counts(ds)


def _q_embedding_dedup_int8(sf_dir: str):
    """Integer-exact embedding near-dup (the value-oracle variant of
    embedding_dedup): int8 vectors, seeded ±1 hyperplane bands, rational
    cosine test — every step replicates in SQL. The sf embeddings have no
    natural near-dups (max cosine 0.48), so deterministic +eps copies of
    every 10th vector are planted on BOTH sides
    (dedup.synthesize_near_dups_batch / _sql)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).map_batches(dedup.synthesize_near_dups_batch, batch_format="pyarrow")
    return dedup.embedding_dedup_int8(ds).select_columns(["vec_id"])


def _q_ivfpq_topk(sf_dir: str):
    """Two-level pruned ANN: IVF bucket files + in-file PQ codes — the
    probe reads only (vec_id, pq_code) from probed buckets. Full probe
    makes the candidate set exact, so the ranking equals pq_topk's and
    the same inlined-LUT SQL oracle applies (pipelines/ann.py)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import ann
    from duckdb_raquet_ray.state import bucket_index

    tag = os.path.basename(os.path.normpath(sf_dir))
    idx_dir = f"/tmp/raquet_ivfpq_{tag}_{ENGINE_TAG}"
    if not os.path.exists(os.path.join(idx_dir, bucket_index.MARKER)):
        ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
        # the cached _pq_codebook IS the codebook the SQL oracle inlines —
        # passing it in pins index and oracle to one codebook by construction
        ann.build_ivfpq_index(ds, idx_dir, codebook=_pq_codebook(sf_dir))
    t = ann.ivfpq_topk(idx_dir, _query_vec(), k=10, n_probe=16)
    return t.select(["vec_id", "rank"])


def _q_crossdoc_dup(sf_dir: str):
    """Cross-document duplicate n-grams (exact-substring dup signal, Lee
    et al. 2022): ONE fixed-fan-out bucket shuffle of the gram stream —
    a gram's global doc-frequency resolves inside its bucket, buckets
    emit doc-sized partials, a second tiny groupby folds them
    (pipelines/quality.py:crossdoc_ngram_dup)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import quality

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return quality.crossdoc_ngram_dup(ds)


def _q_dedup_clusters(sf_dir: str):
    """Near-dup connected components: cluster_id = min key reachable
    through verified LSH edges (transitive — a~b, b~c groups all three).
    Driver union-find runs over the O(verified pairs) edge set only; the
    SQL oracle closes the same edges with a recursive CTE
    (pipelines/dedup.py:minhash_clusters)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return dedup.minhash_clusters(ds).select_columns(["doc_id", "cluster_id"])


def _q_dedup_clusters_lp(sf_dir: str):
    """The fully DISTRIBUTED twin of dedup_clusters_docs: the same verified
    LSH edge set closed transitively by min-label propagation iterated
    over the edge DATASET (no driver union-find, no driver edge list),
    annotated back onto the corpus with a bucketed left hash_join — the
    scale path past dedup.MAX_DRIVER_EDGES. Identical output, identical
    recursive-CTE oracle (pipelines/dedup.py:minhash_clusters_lp)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return dedup.minhash_clusters_lp(ds).select_columns(["doc_id", "cluster_id"])


def _q_pii_scan(sf_dir: str):
    """PII detection counts (emails / IPv4 / phones) — RE2 on both sides
    (pyarrow count_substring_regex vs DuckDB regexp_extract_all), so the
    counts are engine-identical (pipelines/pii.py)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import pii

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(pii.synthesize_pii_batch, batch_format="pyarrow")
    return pii.pii_scan(ds).select_columns(["doc_id", "n_email", "n_ipv4", "n_phone"])


def _q_pii_redact(sf_dir: str):
    """PII redaction: byte-identical replacement output vs nested DuckDB
    regexp_replace (same RE2 engine, same pattern order)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import pii

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(pii.synthesize_pii_batch, batch_format="pyarrow")
    return pii.pii_redact(ds).select_columns(["doc_id", "text_redacted"])


def _q_pq_topk(sf_dir: str):
    """ADC top-k over PQ codes: integer LUT gather + sum per row. The SQL
    oracle replicates the full ranking (codes, LUT gather, sim-desc /
    key-asc order) with the codebook and LUT inlined."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import ann

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    t = ann.pq_topk(ds, _pq_codebook(sf_dir), _query_vec(), k=10)
    return t.select(["vec_id", "rank"])


def _q_events_yearly(sf_dir: str):
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data as rd

    def add_year(b: pa.Table) -> pa.Table:
        return b.append_column("y", pc.year(b.column("ts")).cast(pa.int64()))

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type"])
    counts = ds.map_batches(add_year, batch_format="pyarrow").groupby(["y", "event_type"]).count()
    df = counts.to_pandas().rename(columns={"count()": "cnt"})
    return pd.DataFrame(df[["y", "event_type", "cnt"]])


def _q_corpus_diff(sf_dir: str):
    """Snapshot diff (pipelines/dedup.corpus_diff): old = documents; new =
    documents minus doc_id%10==3 (removed), with ' v2' appended where
    %10==4 (changed), plus %10==5 re-keyed +1000000 (added). Text never
    shuffles — only (key, 128-bit content hash, side) rows; the oracle's
    FULL OUTER JOIN compares REAL text, so the hash equality rule itself
    is under value check."""
    import pyarrow.compute as pc
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup as _dedup

    path = os.path.join(sf_dir, "documents.parquet")
    old = rd.read_parquet(path, columns=["doc_id", "text"])

    def keep_not3(b: pa.Table) -> pa.Table:
        import numpy as np

        k = b.column("doc_id").to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(k % 10 != 3))
        k = b.column("doc_id").to_numpy(zero_copy_only=False)
        txt = pc.coalesce(b.column("text"), pa.scalar(""))
        mod = pc.binary_join_element_wise(txt, pa.scalar(" v2"), "")
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "text": pc.if_else(pa.array(k % 10 == 4), mod, txt),
            }
        )

    def added5(b: pa.Table) -> pa.Table:
        import numpy as np

        k = b.column("doc_id").to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(k % 10 == 5))
        return pa.table(
            {
                "doc_id": pc.add(b.column("doc_id"), pa.scalar(1_000_000)),
                "text": pc.coalesce(b.column("text"), pa.scalar("")),
            }
        )

    new = (
        rd.read_parquet(path, columns=["doc_id", "text"])
        .map_batches(keep_not3, batch_format="pyarrow")
        .union(
            rd.read_parquet(path, columns=["doc_id", "text"]).map_batches(
                added5, batch_format="pyarrow"
            )
        )
    )
    return _dedup.corpus_diff(old, new)


def _q_heavy_bigrams(sf_dir: str):
    """EXACT heavy token BIGRAMS (within-doc pairs with count >= 50) by
    composing the bigram fold (key = a*2^32 + b) with the CMS candidate
    filter + exact verify — the sketch answer to 'which n-grams dominate'
    without the corpus-sized exact-top-k shuffle bigram_topk pays on
    adversarial data. Oracle: plain GROUP BY ... HAVING over the same
    fold — sketch invisible, collisions pruned by the verify pass."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import cms
    from duckdb_raquet_ray.stages import stats as _st

    def bigrams(t):
        # the LM table's unit-tested doc-boundary-safe bigram fold
        _, keys, _ = _st._doc_bigrams(t.column("tokens"))
        return pa.table({"bg": pa.array(keys, pa.int64())})

    ds = rd.read_parquet(_ensure_corpus(), columns=["tokens"]).map_batches(
        bigrams, batch_format="pyarrow", batch_size=16384
    )
    out = cms.cms_heavy_hitters(ds, "bg", threshold=50, w=1 << 18, flatten=False)
    return out.map_batches(
        lambda t: t.rename_columns(["key", "cnt"]), batch_format="pyarrow"
    )


def _q_events_rollup(sf_dir: str):
    """GROUP BY ROLLUP(event_type, year) analogue: ONE distributed leaf
    aggregate (the only corpus-sized pass), then the super-aggregate
    levels (per-type totals, grand total) folded from the TINY leaf table
    on the driver — O(types x years) rows, the rollup-tier discipline.
    NULL marks a rolled-up level, exactly like SQL ROLLUP."""
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data as rd

    def add_year(b: pa.Table) -> pa.Table:
        return b.append_column("y", pc.year(b.column("ts")).cast(pa.int64()))

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type"]
    )
    leaf = (
        ds.map_batches(add_year, batch_format="pyarrow")
        .groupby(["event_type", "y"])
        .count()
        .to_pandas()
        .rename(columns={"count()": "cnt"})
    )
    per_type = (
        leaf.groupby("event_type", as_index=False)["cnt"].sum().assign(y=None)
    )
    grand = pd.DataFrame([{"event_type": None, "y": None, "cnt": int(leaf["cnt"].sum())}])
    out = pd.concat([leaf, per_type, grand], ignore_index=True)
    # float64-with-NaN like DuckDB's to-pandas NULL convention (the
    # driver hash formats floats %.9g, NaN -> <NULL>; a pandas Int64
    # would stringify NA as '<NA>' and mismatch)
    out["y"] = out["y"].astype("float64")
    return out[["event_type", "y", "cnt"]]


def _multi_query_vecs():
    """Three deterministic 64-dim query vectors, all exactly-representable
    doubles (ones; alternating +-1; (i+1)/64 ramp — binary fractions), so
    the SQL literal parse is bit-exact."""
    import numpy as np

    ones = np.ones(64)
    alt = np.where(np.arange(64) % 2 == 0, 1.0, -1.0)
    ramp = (np.arange(64) + 1) / 64.0
    return {"ones": ones, "alt": alt, "ramp": ramp}


def _q_topk_multi(sf_dir: str):
    """Batch ANN: three query vectors scored in ONE corpus pass — per
    batch a single (n, dim) @ (dim, 3) matmul, per-query partial top-k,
    driver merge over O(blocks x 3 x k) candidates
    (pipelines/ann.py:brute_force_topk_multi)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import ann

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    t = ann.brute_force_topk_multi(ds, _multi_query_vecs(), k=10)
    return t.select(["qid", "vec_id", "rank"])


def _q_regex_extract(sf_dir: str):
    """Regex named-group extraction over the events props JSON strings
    (the log-parsing map): one vectorized RE2 pass per batch — pyarrow's
    regex engine IS DuckDB's, so extraction is engine-identical by
    construction (pipelines/text.py:regex_extract)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import text as _text

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "props"]
    )
    return _text.regex_extract(
        ds, r'"k":\s*(?P<kval>\d+)', text_col="props", keep_cols=("event_id",)
    )


def _q_grouped_distinct(sf_dir: str):
    """Exact per-event-type distinct user count (COUNT(DISTINCT) GROUP
    BY, the exact twin of the grouped HLL sketch): distinct (group,
    value) pairs per block, ONE pair-hash bucket shuffle counting each
    pair exactly once, per-group partials folded by a tiny groupby-sum
    (stages/stats.grouped_count_distinct)."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as _stats

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "user_id"]
    )
    return _stats.grouped_count_distinct(ds, "event_type", "user_id")


def _q_grouped_topk_rows(sf_dir: str):
    """Generic per-group top-k ROWS (top-3 longest docs per source by
    n_chars): per-block per-group pre-cut (union-of-partials superset
    property), hash(group) bucket groupby applies the exact cap — SQL's
    QUALIFY row_number() OVER (PARTITION BY ... ) <= k
    (stages/stats.grouped_topk_rows)."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as _stats

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "n_chars"],
    )
    return _stats.grouped_topk_rows(ds, "source", "n_chars", k=3)


def _q_mad_outliers(sf_dir: str):
    """Per-source robust (median/MAD) length-outlier statistics in exact
    integer fixed point (med2 = 2*median, mad4 = 4*MAD): one dense-
    histogram partial per block, one hash(source) bucket shuffle, each
    source's median/MAD/outlier-count resolved from its histogram
    in-bucket (stages/stats.grouped_mad_outliers)."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as _stats

    return _stats.grouped_mad_outliers(
        rd.read_parquet(_ensure_corpus(), columns=["source", "n_tok"])
    )


def _q_objectstore_publish_stats(sf_dir: str):
    """Encode -> publish -> read-back -> decode -> stats with every
    partition published through the NON-RENAME (object-store) fsio
    branch: the write stage hands fsio.publish_table a
    SubTreeFileSystem wrapper — which state/fsio.py deliberately does
    NOT treat as local — so each partition takes the
    `open_output_stream` atomic-on-close path the S3/GCS deployment
    uses, end-to-end inside a Ray pipeline. The read-back decodes the
    persisted partitions and re-derives per-source doc/char stats; the
    oracle computes the same stats off the raw table."""
    import functools as _ft
    import glob as _glob
    import shutil

    import ray.data as rd
    from pyarrow import fs as pafs

    from duckdb_raquet_ray import util
    from duckdb_raquet_ray.stages import encoder
    from duckdb_raquet_ray.state import fsio

    src = os.path.join(sf_dir, "documents.parquet")
    tag = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/raquet_objstore_{tag}_{ENGINE_TAG}"
    # batch boundaries are not topology-deterministic: stale partitions
    # from a previous run's batching would double rows on read-back
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)

    def publish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"path": pa.array([], pa.string())})
        enc = encoder.encode_batch(batch, key_column="doc_id")
        pid = enc.column("partition_id")[0].as_py()
        fsys = pafs.SubTreeFileSystem(out, pafs.LocalFileSystem())
        name = f"part-{pid:016x}.parquet"
        fsio.publish_table(enc, name, filesystem=fsys)
        return pa.table({"path": pa.array([name])})

    util.clean_dataset(
        rd.read_parquet(src, columns=["doc_id", "source", "text"])
    ).map_batches(publish, batch_format="pyarrow", batch_size=256).count()

    parts = sorted(_glob.glob(os.path.join(out, "part-*.parquet")))
    back = rd.read_parquet(parts).map_batches(
        _ft.partial(encoder.decode_rows, columns=["source", "text"]),
        batch_format="pyarrow",
    )

    def partials(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n_chars = pc.utf8_length(pc.fill_null(t.column("text"), "")).cast(pa.int64())
        return pa.table(
            {
                "source": t.column("source"),
                "n_docs": pa.array(np.ones(t.num_rows, np.int64)),
                "n_chars": n_chars,
            }
        )

    agg = (
        back.map_batches(partials, batch_format="pyarrow")
        .groupby("source")
        .sum(["n_docs", "n_chars"])
    )

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "source": t.column("source"),
                "n_docs": t.column("sum(n_docs)").cast(pa.int64()),
                "n_chars": t.column("sum(n_chars)").cast(pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow")


def _q_remove_dup_spans(sf_dir: str):
    """Duplicate-span REMOVAL (Lee et al. 2022 ExactSubstr rewrite):
    cross-doc duplicated word 8-grams are cut from every doc except the
    gram's min-key keeper; text is rebuilt from surviving words. Two
    bounded shuffles: gram-occurrence stream through a corpus-scaled
    bucket groupby (emits only covered positions), then one doc-bucketed
    rewrite join (pipelines/quality.py:remove_dup_spans)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import quality

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return quality.remove_dup_spans(ds, n=8)


def _q_semantic_decontaminate(sf_dir: str):
    """Semantic (embedding-cosine) decontamination — the embedding
    analogue of the n-gram rule: corpus vectors are flagged when their
    cosine vs ANY benchmark vector passes the exact rational int8 test.
    The sf embeddings have no natural near-dups, so the benchmark side
    is the planted +eps copies (synthesize_near_dups_batch): every 10th
    corpus vector must hit its copy. Broadcast-once benchmark matrix,
    one streaming int64 matmul per batch — no shuffle (pipelines/
    contamination.py:semantic_decontaminate)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import contamination as cont
    from duckdb_raquet_ray.pipelines import dedup

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).map_batches(dedup.synthesize_near_dups_batch, batch_format="pyarrow")
    bench = ds.filter(expr="vec_id >= 100000")
    corpus = ds.filter(expr="vec_id < 100000")
    out = cont.semantic_decontaminate(corpus, bench, concurrency=(1, 4))
    return out.select_columns(["vec_id", "sem_hits", "contaminated"])


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination (the public GPT-3 appendix-C n-gram
    overlap rule): docs with doc_id % 50 == 7 stand in for the eval
    suite; every training doc is annotated with the count of its distinct
    word-5-grams that appear in the benchmark set. Word hash + n-gram
    fold are deterministic modular arithmetic -> full value oracle."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import contamination as cont

    import functools as _ft

    from duckdb_raquet_ray.util import mod_split

    path = os.path.join(sf_dir, "documents.parquet")
    ds = rd.read_parquet(path, columns=["doc_id", "text"])
    bench = cont.benchmark_ngram_set(
        ds.map_batches(
            _ft.partial(mod_split, mod=50, rem=7, keep=True), batch_format="pyarrow"
        ),
        n=5,
    )
    train = ds.map_batches(
        _ft.partial(mod_split, mod=50, rem=7, keep=False), batch_format="pyarrow"
    )
    out = cont.decontaminate(train, bench, n=5, concurrency=(1, 4))
    return out.select_columns(["doc_id", "ngram_hits", "contaminated"])


def _q_repetition(sf_dir: str):
    """Gopher-style repetition metrics (duplicate word-2-gram mass + top
    word mass per doc) — all-integer, embarrassingly parallel, full value
    oracle (word identity is the detmix hash on BOTH sides)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import quality

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return quality.repetition_metrics(ds, n=2).select_columns(
        [
            "doc_id",
            "n_words",
            "n_grams",
            "distinct_grams",
            "dup_gram_positions",
            "top_word_count",
        ]
    )


_BIGRAM_LM_K = 2_000


def _q_bigram_lm(sf_dir: str):
    """Token-bigram LM familiarity scoring: the corpus-trained top-k
    bigram table (bounded-driver bucket shuffle, stages/stats.bigram_topk)
    is broadcast once; each doc is annotated with integer n_bigrams /
    n_hit / hit_sum in one streaming probe pass — the token-level
    CCNet-style commonness signal."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as st

    ds = rd.read_parquet(_ensure_corpus(), columns=["doc_id", "tokens"])
    lm = st.bigram_topk(ds, k=_BIGRAM_LM_K)
    return st.bigram_lm_score(ds, lm, concurrency=(1, 4)).select_columns(
        ["doc_id", "n_bigrams", "n_hit", "hit_sum"]
    )


def _q_uniform_sample(sf_dir: str):
    """Exactly-100 uniform corpus sample (sampling.uniform_sample): keep
    the 100 smallest seeded key hashes — deterministic, partition-
    independent, per-block partial top-k then one dataset-side
    sort+limit; same splitmix chain as the stratified oracle."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import sampling

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "source"]
    )
    return sampling.uniform_sample(ds, 100, seed=7)


def _q_pmi_topk(sf_dir: str):
    """Collocation extraction (stages/stats.pmi_topk): top-50 within-doc
    token bigrams annotated with pointwise mutual information — per-row
    pure double expressions over exact integer folds (no float sums),
    %.9g-stable by construction."""
    from duckdb_raquet_ray.stages import stats as st

    import ray.data as rd

    ds = rd.read_parquet(_ensure_corpus(), columns=["tokens"])
    return st.pmi_topk(ds, k_table=_BIGRAM_LM_K, top=50)


def _q_lm_perplexity(sf_dir: str):
    """Per-doc cross-entropy under the add-one-smoothed capped bigram LM
    (stages/stats.bigram_perplexity): the CCNet-style perplexity filter —
    capped LM table + exact unigram histogram broadcast once, one
    streaming vectorized probe pass; DuckDB twin at %.9g tolerance."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as st

    ds = rd.read_parquet(_ensure_corpus(), columns=["doc_id", "tokens"])
    lm = st.bigram_topk(ds, k=_BIGRAM_LM_K)
    return st.bigram_perplexity(ds, lm, concurrency=(1, 4)).select_columns(
        ["doc_id", "n_bigrams", "h_bits"]
    )


# the fixture's "wiki-like" half: even-numbered sources (the classifier is
# label-set-parameterized; this split populates both classes at every sf)
_CLS_POSITIVE = tuple(f"src{i}" for i in range(0, 20, 2))


def _q_classifier_score(sf_dir: str):
    """Hashed-bag-of-words linear quality classifier (the fastText/CCNet
    wiki-vs-web filter shape): train integer fixed-point word weights
    against a positive source set via the bounded bucket-shuffle
    discipline, broadcast once, score the corpus in one streaming probe
    pass. Full SQL value oracle (quality.classifier_oracle_sql)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import quality

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "text"],
    )
    wh, w, _, _ = quality.train_source_classifier(ds, positive=_CLS_POSITIVE)
    return quality.classifier_score(ds, (wh, w), concurrency=(1, 4)).select_columns(
        ["doc_id", "n_cls_hits", "cls_score", "pred_pos"]
    )


_DSIR_TARGET = ("src0", "src3", "src6")  # the "wanted" distribution


def _dsir_weights(sf_dir: str):
    """Compute-or-load the DSIR integer bucket-weight table for one sf
    dir (cached in /tmp so the Ray scorer and the SQL oracle — which
    inlines the weights as VALUES — use the SAME plan artifact within a
    driver run, the _pq_codebook discipline)."""
    import json

    import numpy as np

    tag = os.path.basename(os.path.normpath(sf_dir))
    path = f"/tmp/raquet_dsir_{tag}_{ENGINE_TAG}.json"
    if os.path.exists(path):
        with open(path) as f:
            return np.asarray(json.load(f), np.int64)
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dsir

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["source", "text"]
    )
    tgt = list(_DSIR_TARGET)
    target = docs.map_batches(
        lambda b: b.filter(pa.compute.is_in(b.column("source"), pa.array(tgt))),
        batch_format="pyarrow",
    )
    w = dsir.dsir_weights(dsir.bucket_counts(target), dsir.bucket_counts(docs))
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump([int(x) for x in w], f)
    os.replace(tmp, path)
    return w


def _q_dsir_score(sf_dir: str):
    """DSIR hashed-n-gram importance scoring (Xie et al. 2023): integer
    log-ratio bucket weights trained toward the _DSIR_TARGET sources at
    plan time, broadcast once, one streaming gather+reduceat pass —
    integer-exact, full SQL oracle with the weight table inlined
    (pipelines/dsir.py)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dsir

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return dsir.dsir_score(ds, _dsir_weights(sf_dir), concurrency=(1, 4))


def _q_dsir_select(sf_dir: str):
    """DSIR top-k selection: keep the 50 most target-like docs
    (score desc, doc_id asc — deterministic). Each block reduces to its
    local top-k before the global sort, so the sorted stream is
    O(blocks x k)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dsir

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return dsir.dsir_select(ds, _dsir_weights(sf_dir), 50)


def _q_pagerank(sf_dir: str):
    """Domain link-graph PageRank (the CommonCrawl-style URL-quality
    signal): deterministic multi-link splice -> first-host->outlink
    edges -> 3 damped integer power-iteration rounds, all dataset-side
    (one bucketed edge shuffle + per-round hash joins — pipelines/
    graph.py). The oracle unrolls the same int64 floor-division
    iterations as CTE chains, so (domain, rank) hash-match."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import graph

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(graph.synthesize_links_batch, batch_format="pyarrow")
    return graph.domain_pagerank(graph.link_edges(ds), iters=3)


def _q_grouped_corr(sf_dir: str):
    """Per-event-type Pearson correlation of value vs epoch-day ts
    (stages/stats.grouped_corr): six float64 power-sum partials per
    group per block, one tiny groupby fold; the oracle shares the SAME
    power-sum formula (the rule-is-the-spec precedent) at %.9g."""
    import ray.data as rd

    from duckdb_raquet_ray.stages import stats as _stats

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value", "ts"]
    )

    def to_us(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        us = pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")), pa.int64())
        # epoch DAYS, not µs: corr is shift-invariant in exact math but
        # power sums over ~1.7e15 magnitudes cancel catastrophically and
        # the engines' different add orders then differ inside %.9g
        days = pc.divide(us, 86_400_000_000)
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "value": t.column("value"),
                "ts_day": days,
            }
        )

    return _stats.grouped_corr(
        ds.map_batches(to_us, batch_format="pyarrow"), "event_type", "value", "ts_day"
    )


_BM25_QUERIES = {
    "q_dedup": ["dup", "vector"],
    "q_merge": ["merge", "query", "table"],
    "q_stream": ["stream", "window"],
}


def _q_bm25_multi(sf_dir: str):
    """Batch BM25 (retrieval.bm25_multi): a query SET shares one
    tokenize pass + the skinny (dl, tf) table + the global folds;
    per-(query, doc) scores are byte-identical to the single-query
    path's (shared expression). Oracle = the per-query oracle UNION
    ALLed with a qid literal."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import retrieval

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return retrieval.bm25_multi(ds, _BM25_QUERIES, top=15)


def _q_minhash_pairs(sf_dir: str):
    """Near-dup similarity REPORT (dedup.minhash_pairs_scored): every
    verified pair with its exact Jaccard in integer micro-units — the
    audit surface behind the dedup keep/drop decisions. sim_micro =
    (|A∩B| * 1e6) // |A∪B|, pure integer floor, replicated in SQL."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return dedup.minhash_pairs_scored(ds)


def _q_domain_components(sf_dir: str):
    """Weakly-connected components of the domain link graph (graph.
    domain_components -> the shared distributed label-propagation
    kernel): the site-family grouping next to PageRank; recursive
    min-label CTE oracle."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import graph

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(graph.synthesize_links_batch, batch_format="pyarrow")
    return graph.domain_components(graph.link_edges(ds))


def _q_doc_df_score(sf_dir: str):
    """Global document-frequency scoring (the CCNet-style commonness
    signal): vocab-sized partial dfs merged once, broadcast via ray.put,
    streaming searchsorted probe — the corpus never leaves the workers."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import quality

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    df_table = quality.global_word_df(ds)
    return quality.doc_df_score(ds, df_table, concurrency=(1, 4)).select_columns(
        ["doc_id", "n_distinct_words", "df_sum"]
    )


# --- rows-only (heuristic / non-SQL-expressible) ---------------------------


def _q_winnow_docs(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import text

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(text.winnow_batch, batch_format="pyarrow", batch_size=2048)
    return out.select_columns(["doc_id", "winnow_fp"])


def _q_winnow_fps(sf_dir: str):
    """Winnowed fingerprints LONG form (doc_id, fp) — value-hash-checkable:
    the k-gram polynomial hash (base 257 mod 2^61-1, k=5 so every term
    < 2^43) and the window-min selection are both exactly replicable in
    ANSI SQL (see the winnow_fps oracle)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import text

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return ds.map_batches(text.winnow_long_batch, batch_format="pyarrow", batch_size=2048)


def _q_validate_manifest(sf_dir: str):
    import pandas as pd

    from duckdb_raquet_ray.state import manifest as mf

    entries = list(mf.load_entries(_ensure_encoded()).values())
    v = mf.validate_entries(entries)
    return pd.DataFrame(
        [
            {
                "is_valid": v["is_valid"],
                "num_partitions": v["num_partitions"],
                "num_rows": v["num_rows"],
                "n_errors": len(v["errors"]),
                "n_warnings": len(v["warnings"]),
            }
        ]
    )


def _q_verify_bitidentity(sf_dir: str):
    """The north-rule gate as a query: re-read every input row range and its
    encoded partition; per-row token-array equality via pa.Table.equals."""
    import pandas as pd

    from duckdb_raquet_ray.pipelines import decode

    res = decode.verify_job(_ensure_corpus(), _ensure_encoded(), target_part_bytes=PART_BYTES)
    return pd.DataFrame(
        [{"partitions": res["partitions"], "rows": res["rows"], "ok": res["ok"]}]
    )


def _q_minhash_dedup(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    return dedup.minhash_dedup(ds, text_col="text", key_col="doc_id")


def _q_doc_keywords(sf_dir: str):
    """Integer tf-idf keyword extraction: corpus-wide highest-df words
    (exact capped global_word_df table) dropped as stopwords, remaining
    words ranked per doc by (tf desc, hash asc), top k kept. Full SQL
    value oracle (quality.keywords_oracle_sql)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import quality

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return quality.doc_keywords(ds, k=3, stop_top_n=8, concurrency=(1, 4))


def _q_semantic_dedup(sf_dir: str):
    """SemDeDup-style clustered semantic dedup (Abbas et al. 2023):
    smallest-key int8 centroids, argmax-dot cluster assignment, exact
    rational-cosine drop within cluster only — full SQL value oracle
    (dedup.semantic_dedup_oracle_sql). Near-dups planted deterministically
    on both sides (no natural near-dups in the sf embeddings)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).map_batches(dedup.synthesize_near_dups_batch, batch_format="pyarrow")
    return dedup.semantic_dedup_int8(ds).select_columns(["vec_id"])


def _q_jaccard_dedup(sf_dir: str):
    """EXACT n-gram Jaccard near-dup removal (rare-gram candidates, no
    MinHash approximation) — the fourth dedup family, value-replicated
    end-to-end in SQL (dedup.jaccard_oracle_sql)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    return dedup.jaccard_dedup(ds, text_col="text", key_col="doc_id")


def _q_simhash_dedup(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    return dedup.simhash_dedup(ds, text_col="text", key_col="doc_id")


def _q_embedding_dedup(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import dedup

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    return dedup.embedding_dedup(ds, vec_col="embedding", key_col="vec_id")


def _q_ivf_topk(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import ann
    from duckdb_raquet_ray.state import bucket_index

    # persisted bucket layout (built once per sf dir, reused): probes are
    # partition-pruned reads. Probing ALL centroids makes the result exact,
    # which is what the brute-force SQL oracle checks; partial-probe recall
    # is pytest territory (data-dependent).
    tag = os.path.basename(os.path.normpath(sf_dir))
    idx_dir = f"/tmp/raquet_ivf_{tag}_{ENGINE_TAG}"
    if not os.path.exists(os.path.join(idx_dir, bucket_index.MARKER)):
        ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
        ann.build_ivf_index(ds, idx_dir)
    t = ann.ivf_topk_indexed(idx_dir, _query_vec(), k=10, n_probe=16)
    return t.select(["vec_id", "rank"])


def _q_ivf_append_topk(sf_dir: str):
    """Incremental IVF ingest (ann.append_ivf_index): the index is built
    on the first half of the embeddings, the second half appends under
    the FROZEN centroids (a marker-gated bucket-index append —
    killed/re-run appends never duplicate vectors); a full-probe query
    then equals exact brute force over the UNION, which the SQL cosine
    oracle checks."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import ann
    from duckdb_raquet_ray.state import bucket_index

    tag = os.path.basename(os.path.normpath(sf_dir))
    idx_dir = f"/tmp/raquet_ivfapp_{tag}_{ENGINE_TAG}"
    src = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(src)
    if not os.path.exists(os.path.join(idx_dir, bucket_index.MARKER)):
        ann.build_ivf_index(
            ds.map_batches(_key_half(True, key="vec_id"), batch_format="pyarrow"),
            idx_dir,
        )
    # a completed append is a no-op; a killed one is finished here
    ann.append_ivf_index(
        ds.map_batches(_key_half(False, key="vec_id"), batch_format="pyarrow"),
        idx_dir,
        append_id="second-half",
    )
    t = ann.ivf_topk_indexed(idx_dir, _query_vec(), k=10, n_probe=16)
    return t.select(["vec_id", "rank"])


def _q_langid(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import text

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = ds.map_batches(
        text.TextAnalyzer,
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 2),
        num_cpus=1,
    )
    # the content fingerprint (siphash) is not SQL-expressible; keep
    # langid's output SQL-replicable so the query graduates to a
    # value-checked oracle — document fingerprints are value-checked
    # separately via winnow_fps / simhash_dedup_docs / minhash_dedup_docs
    return out.select_columns(["doc_id", "lang_pred", "stop_ratio"])


MEDIA_FEAT_ROWS, MEDIA_FRAME_ROWS = 200, 100


def _media_path(rows: int) -> str:
    """Persisted synthetic media corpus: the Ray pipeline and the SQL
    oracle must read the SAME rows from disk (payloads are printable
    ASCII so DuckDB's sha256(decode(payload)) replicates the fake
    decode hashes — see multimodal.synthesize_media_table)."""
    from duckdb_raquet_ray.pipelines import multimodal as mm

    return mm.persist_media_table(rows, f"/tmp/raquet_media_v2_{rows}.parquet")


def _decoded_media(rows: int):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(_media_path(rows))
    return ds.map_batches(
        mm.ImageDecoder,
        fn_constructor_kwargs={"fake": True},
        batch_format="pyarrow",
        batch_size=mm.suggest_batch_size(4096),
        concurrency=(1, 2),
        num_cpus=1,
    )


def _png_media_path(rows: int) -> str:
    """Persisted REAL-format image corpus (8-bit gray PNG/PGM payloads +
    the flattened pixel values as an independent list<int32> column so
    the SQL oracle value-checks the dependency-free PNG decode itself)."""
    from duckdb_raquet_ray.pipelines import multimodal as mm

    return mm.persist_png_media_table(rows, f"/tmp/raquet_media_png_{rows}.parquet")


def _gif_media_path(rows: int) -> str:
    """Persisted REAL-GIF corpus (plain / interlaced / transparent /
    animated payloads, with the expected composited first frame persisted
    as an independent list<int32> `pixels` column — codecs/gifcodec.py)."""
    from duckdb_raquet_ray.pipelines import multimodal as mm

    return mm.persist_gif_media_table(rows, f"/tmp/raquet_media_gif_{rows}.parquet")


def _jpeg_media_path(rows: int) -> str:
    """Persisted REAL baseline-JPEG corpus (gray + RGB 4:4:4 + RGB 4:2:0
    payloads, with each image's mathematically-forced decode persisted as
    an independent list<int32> `pixels` column — see
    multimodal.synthesize_jpeg_media_table)."""
    from duckdb_raquet_ray.pipelines import multimodal as mm

    return mm.persist_jpeg_media_table(rows, f"/tmp/raquet_media_jpeg_{rows}.parquet")


def _pjpeg_media_path(rows: int) -> str:
    """Persisted PROGRESSIVE-JPEG corpus (SOF2 spectral-selection +
    successive-approximation scans, plus multi-scan sequential SOF0
    rows), each with the forced decode of its exact coefficients as the
    independent `pixels` column."""
    from duckdb_raquet_ray.pipelines import multimodal as mm

    return mm.persist_progressive_jpeg_media_table(
        rows, f"/tmp/raquet_media_pjpeg_{rows}.parquet"
    )


def _q_jpeg_progressive_sums(sf_dir: str):
    """Value-checked PROGRESSIVE-JPEG decode (codecs/jpegcodec.py, T.81
    Annex G: DC/AC first + refinement scans, EOB runs, non-interleaved
    per-component grids; every 4th payload is a multi-scan sequential
    stream): per-image integer strip sums from decode(payload) must
    equal the SQL oracle's sums over the independently persisted
    forced-decode pixels."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(
        _pjpeg_media_path(MEDIA_FEAT_ROWS), columns=["media_id", "payload"]
    )
    return ds.map_batches(
        mm.strip_sums_batch,
        batch_format="pyarrow",
        batch_size=mm.suggest_batch_size(4096),
    )


def _q_jpeg_strip_sums(sf_dir: str):
    """Value-checked REAL baseline-JPEG decode (codecs/jpegcodec.py):
    per-image integer strip sums from decode(payload) must equal the SQL
    oracle's sums over the independently persisted forced-decode pixels —
    a hash match proves the Huffman/bitstream/IDCT pipeline reproduced
    the coefficients' decode exactly."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(
        _jpeg_media_path(MEDIA_FEAT_ROWS), columns=["media_id", "payload"]
    )
    return ds.map_batches(
        mm.strip_sums_batch,
        batch_format="pyarrow",
        batch_size=mm.suggest_batch_size(4096),
    )


def _wav_media_path(rows: int) -> str:
    """Persisted REAL WAV corpus: 16-bit mono PCM from a pure-integer
    sample formula of (audio_key, i), so the SQL oracle regenerates the
    stream and the RIFF/PCM parse is the thing under value-check."""
    from duckdb_raquet_ray.pipelines import multimodal as mm

    return mm.persist_wav_media_table(rows, f"/tmp/raquet_media_wav_{rows}.parquet")


def _q_wav_stats(sf_dir: str):
    """Value-checked REAL audio decode (codecs/audiocodec.py): integer
    sample features from wav_decode(payload) vs the SQL oracle's
    regeneration of the same deterministic sample stream."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(
        _wav_media_path(MEDIA_FEAT_ROWS), columns=["media_id", "payload"]
    )
    return ds.map_batches(
        mm.AudioFeaturizer,
        fn_constructor_kwargs={"fake": False},
        batch_format="pyarrow",
        batch_size=mm.suggest_batch_size(2048),
        concurrency=(1, 2),
        num_cpus=1,
    )


def _q_wav_vad(sf_dir: str):
    """Integer voice-activity segmentation over REAL WAV decode
    (pipelines/multimodal.py:AudioVad): frame mean-|amplitude| gate,
    maximal active runs, and a checksum pinning every segment boundary.
    The SQL oracle regenerates the sample stream and replays the same
    frame/run logic with window functions."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(
        _wav_media_path(MEDIA_FEAT_ROWS), columns=["media_id", "payload"]
    )
    return ds.map_batches(
        mm.AudioVad,
        fn_constructor_kwargs={"fake": False},
        batch_format="pyarrow",
        batch_size=mm.suggest_batch_size(2048),
        concurrency=(1, 2),
        num_cpus=1,
    )


def _mjpeg_media_path(rows: int) -> str:
    """Persisted REAL MJPEG-AVI corpus with per-frame forced-decode pixel
    sums as an independent list<int64> column."""
    from duckdb_raquet_ray.pipelines import multimodal as mm

    return mm.persist_mjpeg_media_table(rows, f"/tmp/raquet_media_avi_{rows}.parquet")


def _webp_media_path(rows: int) -> str:
    """Persisted REAL WebP-VP8L corpus cycling every spec decode path
    (literals / cache+LZ77 / meta-huffman / 14 predictor modes / color
    transform / palette packing), with the lossless source image as the
    independent `pixels` column (multimodal.synthesize_webp_media_table)."""
    from duckdb_raquet_ray.pipelines import multimodal as mm

    return mm.persist_webp_media_table(rows, f"/tmp/raquet_media_webp_{rows}.parquet")


def _webp_lossy_media_path(rows: int) -> str:
    """Persisted lossy-VP8 WEBP corpus (system-libwebp encode) with the
    reference decoder's reconstruction as the `pixels` ground truth
    (multimodal.synthesize_webp_lossy_media_table)."""
    from duckdb_raquet_ray.pipelines import multimodal as mm

    return mm.persist_webp_lossy_media_table(
        rows, f"/tmp/raquet_media_webpv8_{rows}.parquet"
    )


def _q_webp_lossy_strip_sums(sf_dir: str):
    """Value-checked REAL lossy-VP8 webp decode (system-libwebp path,
    codecs/syswebp.py), same strip-sum oracle shape as the other image
    formats — pins the distributed decode plumbing against the reference
    decoder's persisted reconstruction."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(
        _webp_lossy_media_path(MEDIA_FEAT_ROWS), columns=["media_id", "payload"]
    )
    return ds.map_batches(
        mm.strip_sums_batch,
        batch_format="pyarrow",
        batch_size=mm.suggest_batch_size(4096),
    )


def _q_webp_strip_sums(sf_dir: str):
    """Value-checked REAL WebP-VP8L decode, same strip-sum oracle shape
    as png/jpeg/gif_strip_sums."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(
        _webp_media_path(MEDIA_FEAT_ROWS), columns=["media_id", "payload"]
    )
    return ds.map_batches(
        mm.strip_sums_batch,
        batch_format="pyarrow",
        batch_size=mm.suggest_batch_size(4096),
    )


def _gif_anim_path(rows: int) -> str:
    """Persisted animated-GIF corpus with independently computed per-frame
    composited pixel sums (multimodal.synthesize_gif_anim_table)."""
    from duckdb_raquet_ray.pipelines import multimodal as mm

    return mm.persist_gif_anim_table(rows, f"/tmp/raquet_media_gifanim_{rows}.parquet")


def _webp_anim_path(rows: int) -> str:
    """Persisted animated-WebP corpus (VP8X/ANMF dirty-rect VP8L frames)
    with independently computed per-frame expected pixel sums
    (multimodal.synthesize_webp_anim_table)."""
    from duckdb_raquet_ray.pipelines import multimodal as mm

    return mm.persist_webp_anim_table(
        rows, f"/tmp/raquet_media_webpanim_{rows}.parquet"
    )


def _q_webp_frame_sums(sf_dir: str):
    """Value-checked ANIMATED-WebP frame sampling: every 2nd composited
    canvas's pixel sum from the VP8X container walk + VP8L decode +
    dirty-rect compositing (real inter-frame deltas) vs the SQL oracle
    over persisted expected sums."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(
        _webp_anim_path(MEDIA_FRAME_ROWS), columns=["media_id", "payload"]
    )
    return ds.map_batches(
        mm.VideoFrameFeatures,
        fn_constructor_kwargs={"every_k": 2},
        batch_format="pyarrow",
        batch_size=mm.suggest_batch_size(8192),
        concurrency=(1, 2),
    )


def _q_gif_frame_sums(sf_dir: str):
    """Value-checked ANIMATED-GIF frame sampling: every 2nd composited
    frame's pixel sum from the container walk + LZW decode + disposal
    compositing vs the SQL oracle over persisted expected sums."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(
        _gif_anim_path(MEDIA_FRAME_ROWS), columns=["media_id", "payload"]
    )
    return ds.map_batches(
        mm.VideoFrameFeatures,
        fn_constructor_kwargs={"every_k": 2},
        batch_format="pyarrow",
        batch_size=mm.suggest_batch_size(8192),
        concurrency=(1, 2),
    )


def _q_mjpeg_frame_sums(sf_dir: str):
    """Value-checked REAL video decode (MJPEG AVI): every 2nd frame's
    decoded pixel sum from the container walk + JPEG decode vs the SQL
    oracle over the persisted forced-decode frame sums."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(
        _mjpeg_media_path(MEDIA_FRAME_ROWS), columns=["media_id", "payload"]
    )
    return ds.map_batches(
        mm.VideoFrameFeatures,
        fn_constructor_kwargs={"every_k": 2},
        batch_format="pyarrow",
        batch_size=mm.suggest_batch_size(8192),
        concurrency=(1, 2),
        num_cpus=1,
    )


def _q_multimodal(sf_dir: str):
    """REAL (non-fake) image decode: PNG/PGM payloads through the
    dependency-free codec (codecs/imagecodec.py) in an actor pool."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(_png_media_path(MEDIA_FEAT_ROWS), columns=[
        "media_id", "payload", "mime", "width", "height"
    ])
    return ds.map_batches(
        mm.ImageDecoder,
        fn_constructor_kwargs={"fake": False},
        batch_format="pyarrow",
        batch_size=mm.suggest_batch_size(4096),
        concurrency=(1, 2),
        num_cpus=1,
    )


def _q_gif_strip_sums(sf_dir: str):
    """Value-checked REAL GIF decode (container + LZW + interlace +
    transparency composite + first-frame-of-animation), same strip-sum
    oracle shape as png/jpeg_strip_sums."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(
        _gif_media_path(MEDIA_FEAT_ROWS), columns=["media_id", "payload"]
    )
    return ds.map_batches(
        mm.strip_sums_batch,
        batch_format="pyarrow",
        batch_size=mm.suggest_batch_size(4096),
    )


def _q_png_strip_sums(sf_dir: str):
    """Value-checked REAL decode: per-image integer strip sums computed
    from decode(payload) must equal the SQL oracle's sums over the
    independently persisted `pixels` column."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(
        _png_media_path(MEDIA_FEAT_ROWS), columns=["media_id", "payload"]
    )
    return ds.map_batches(
        mm.strip_sums_batch,
        batch_format="pyarrow",
        batch_size=mm.suggest_batch_size(4096),
    )


def _q_multimodal_sums(sf_dir: str):
    from duckdb_raquet_ray.pipelines import multimodal as mm

    out = _decoded_media(MEDIA_FEAT_ROWS)
    return out.map_batches(mm.feature_sums_batch, batch_format="pyarrow", batch_size=4096)


def _q_frame_sample(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import multimodal as mm

    ds = rd.read_parquet(_media_path(MEDIA_FRAME_ROWS))
    return ds.map_batches(
        mm.FrameSampler,
        fn_constructor_kwargs={"fake": True, "every_k": 10},
        batch_format="pyarrow",
        batch_size=16,
        concurrency=(1, 2),
        num_cpus=1,
    )


def _q_point_lookup(sf_dir: str):
    from duckdb_raquet_ray.pipelines import decode
    from duckdb_raquet_ray.state import manifest as mf

    out_dir = _ensure_encoded()
    meta = mf.load_metadata(out_dir)
    pid = meta["partition_ids"][0]
    return decode.point_lookup(out_dir, pid)


def _q_token_posweight(sf_dir: str):
    """Decode with the position-weighted checksum pushed into the decode
    actors: pins in-row token ORDER end-to-end from the encoded files
    (the interleaved-layout parity check, transforms.explode_tokens)."""
    from duckdb_raquet_ray.pipelines import decode
    from duckdb_raquet_ray.pipelines import transforms as tr

    out_dir = _ensure_encoded()
    return decode.read_encoded(out_dir, transform=tr.position_weighted)


def _q_point_lookup_stats(sf_dir: str):
    """Point query + per-row token checksum — the oracle-checkable face of
    point_lookup_partition (list columns stay rows-only by harness
    convention; scalars value-hash)."""
    from duckdb_raquet_ray.pipelines import decode
    from duckdb_raquet_ray.state import manifest as mf

    out_dir = _ensure_encoded()
    meta = mf.load_metadata(out_dir)
    pid = meta["partition_ids"][0]
    t = decode.point_lookup(out_dir, pid)
    tok = t.column("tokens").combine_chunks()
    import pyarrow.compute as pc

    flat = tok.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    lens = pc.list_value_length(tok).to_numpy().astype(np.int64)
    offs = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    sums = np.zeros(len(lens), np.int64)
    ne = lens > 0
    if ne.any():
        sums[ne] = np.add.reduceat(flat, offs[:-1][ne])
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "n_tok": t.column("n_tok"),
            "source": t.column("source"),
            "tok_sum": pa.array(sums, type=pa.int64()),
        }
    )


_WEEK_US = 7 * 86_400_000_000
_SESSION_GAP_US = 3 * 86_400_000_000


def _q_broadcast_join(sf_dir: str):
    """Fact-stream x broadcast-dimension equi-join (orders x customer)."""
    import pyarrow.parquet as pq

    from duckdb_raquet_ray.pipelines import joins

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_mktsegment"]
    )
    ds = _read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    return joins.broadcast_join(ds, cust, "o_custkey", "c_custkey")


def _q_hash_join(sf_dir: str):
    """General large-large bucketed hash equi-join (lineitem x orders):
    neither side broadcasts — both stream through ONE fixed-fan-out
    bucket shuffle, vectorized expand per bucket (joins.hash_join)."""
    from duckdb_raquet_ray.pipelines import joins

    li = _read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"],
    )
    ods = _read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    return joins.hash_join(
        li, ods, left_key="l_orderkey", right_key="o_orderkey",
        right_cols=["o_custkey", "o_totalprice"],
    )


def _bpe_merges(sf_dir: str):
    """Train the byte-level BPE merge table on the documents hash-stride
    sample — deterministic (pure function of doc keys + text)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import bpe

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds, bpe.bpe_train(ds, n_merges=48, sample_mod=4)


def _q_bpe_roundtrip(sf_dir: str):
    """BPE encode -> decode roundtrip: train on the hash-stride sample,
    stream-apply the merges, expand back through the vocab byte LUT —
    must reproduce the text column byte-for-byte (the codec-losslessness
    oracle pattern; the merge STRUCTURE is pinned by tests/test_bpe.py's
    sequential-reference parity)."""
    from duckdb_raquet_ray.pipelines import bpe

    ds, merges = _bpe_merges(sf_dir)
    return bpe.bpe_roundtrip(ds, merges)


def _q_bpe_encode(sf_dir: str):
    """BPE-encoded corpus view (doc_id, n_bpe): rows-only — no SQL can
    replay greedy merge application; losslessness is value-checked by
    bpe_roundtrip_docs and structure by the pytest reference parity."""
    from duckdb_raquet_ray.pipelines import bpe

    ds, merges = _bpe_merges(sf_dir)
    return bpe.bpe_encode(ds, merges).select_columns(["doc_id", "n_bpe"])


_BM25_TERMS = ["dup", "vector", "merge", "query"]


def _q_bm25(sf_dir: str):
    """Rational-idf BM25 top-20 lexical retrieval over documents: one
    tokenize pass -> skinny per-doc term stats, global N/L/df fold,
    streaming score + per-block partial top-k (retrieval.bm25_topk; the
    log-free idf makes every per-(doc,term) score a single IEEE-double
    expression, so the SQL twin hash-matches exactly)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import retrieval

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return retrieval.bm25_topk(ds, _BM25_TERMS, top=20)


def _q_hybrid_rrf(sf_dir: str):
    """Hybrid retrieval: reciprocal-rank fusion of the BM25 lexical
    top-20 and the cosine vector top-20 (retrieval.rrf_fuse) — integer
    floor-division scoring so the FULL OUTER join twin replicates
    exactly. The corpus-scale work is the two streaming retrievers; the
    fuse itself touches 2k rows."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import ann, retrieval

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    lex = retrieval.bm25_topk(docs, _BM25_TERMS, top=20)
    vec = ann.brute_force_topk(emb, _query_vec(), k=20)
    return retrieval.rrf_fuse(lex, vec, k=10)


def _q_cluster_sample(sf_dir: str):
    """Cluster-balanced sampling: k-means partition of the embedding
    space, then exactly 20 per-cluster smallest seeded key hashes — the
    SemDeDup "spread the budget across semantic clusters" step, composed
    and fully value-checked (cluster.cluster_balanced_sample; oracle =
    the unrolled kmeans CTEs + row_number per cluster)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import cluster

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return cluster.cluster_balanced_sample(ds, k=8, iters=2, per_cluster=20)


def _q_bm25_indexed(sf_dir: str):
    """BM25 off the PERSISTED inverted index (built once per sf dir,
    reused): the query opens only the postings buckets its terms hash
    into — never re-tokenizes the corpus — and must produce byte-identical
    scores to the direct pipeline, so it shares bm25_topk_docs' oracle
    (retrieval.build_text_index / bm25_topk_indexed; the
    ivf_topk_indexed discipline applied to lexical retrieval)."""
    from duckdb_raquet_ray.pipelines import retrieval
    from duckdb_raquet_ray.state import bucket_index

    tag = os.path.basename(os.path.normpath(sf_dir))
    idx_dir = f"/tmp/raquet_textidx_{tag}_{ENGINE_TAG}"
    if not os.path.exists(os.path.join(idx_dir, bucket_index.MARKER)):
        import ray.data as rd

        ds = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        retrieval.build_text_index(ds, idx_dir)
    return retrieval.bm25_topk_indexed(idx_dir, _BM25_TERMS, top=20)


def _q_bm25_append(sf_dir: str):
    """Incremental index growth: build the inverted index on the even-key
    half of documents, APPEND the odd-key half (new postings files land
    inside the live hive buckets, meta re-sums — old files never re-read),
    then probe; must equal the one-shot full-corpus build, so it shares
    bm25_topk_docs' oracle (retrieval.append_text_index — the
    encode.append_job discipline applied to retrieval)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import retrieval

    tag = os.path.basename(os.path.normpath(sf_dir))
    # build_text_index clears the dir, so every call rebuilds then appends
    idx_dir = f"/tmp/raquet_textidx_append_{tag}_{ENGINE_TAG}"
    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    import pyarrow as _pa
    import pyarrow.compute as _pc

    def _half(keep_even: bool):
        def f(b: _pa.Table) -> _pa.Table:
            bit = _pc.bit_wise_and(b.column("doc_id"), _pa.scalar(1))
            m = _pc.equal(bit, 0) if keep_even else _pc.equal(bit, 1)
            return b.filter(m)

        return f

    retrieval.build_text_index(
        ds.map_batches(_half(True), batch_format="pyarrow"), idx_dir
    )
    retrieval.append_text_index(
        ds.map_batches(_half(False), batch_format="pyarrow"), idx_dir
    )
    return retrieval.bm25_topk_indexed(idx_dir, _BM25_TERMS, top=20)


def _q_grouped_centroid(sf_dir: str):
    """Per-label embedding centroid (cluster.grouped_centroid_int8):
    floor-mean of the int8 plane per (label, dim) via reduceat partials
    + an O(labels x dim) groupby — the domain-embedding-drift profile.
    Shared quantize chain with the PQ/kmeans oracles."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import cluster as _cluster

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    return _cluster.grouped_centroid_int8(ds)


def _q_kmeans(sf_dir: str):
    """Distributed Lloyd k-means over the embedding table, integer-exact
    end-to-end (int8 quantize -> exact int64 L2 argmin -> floor-mean
    update, 2 iterations): each iteration is one streaming pass with a
    k x (dim+1) groupby-sum fold; the SQL oracle unrolls the SAME
    iterations as CTE chains (cluster.kmeans_oracle_sql)."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import cluster

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return cluster.kmeans_int8(ds, k=8, iters=2)


def _q_semi_join(sf_dir: str):
    """Distributed semi-join (customers WITH at least one order): the
    existence filter at large-large scale — both sides stream through one
    bucket shuffle, left columns out, no expansion (joins.hash_join
    how="semi"; the distributed form of a broadcast keep-set when the
    filter side outgrows a sane ray.put)."""
    from duckdb_raquet_ray.pipelines import joins

    cust = _read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_acctbal"]
    )
    ods = _read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    return joins.hash_join(
        cust, ods, left_key="c_custkey", right_key="o_custkey", how="semi"
    )


def _q_anti_join(sf_dir: str):
    """Distributed anti-join (customers with NO interaction events): the
    blocklist / decontamination filter shape at large-large scale
    (joins.hash_join how="anti" — SQL NOT EXISTS semantics, null left
    keys kept; 1350/1500 customers survive at sf0.01 so the result is
    non-trivially populated)."""
    from duckdb_raquet_ray.pipelines import joins

    cust = _read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_acctbal"]
    )
    ev = _read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return joins.hash_join(
        cust, ev, left_key="c_custkey", right_key="user_id", how="anti"
    )


def _q_full_join(sf_dir: str):
    """Distributed FULL OUTER equi-join (low-key orders x events): both
    unmatched sides survive — left-only orders with null event payload,
    right-only events with every left column null (joins.hash_join
    how="full"; the left restriction to o_custkey < 50 makes BOTH
    unmatched populations non-trivial at sf0.01)."""
    from duckdb_raquet_ray.pipelines import joins

    ods = _read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    ).filter(expr="o_custkey < 50")
    ev = _read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_id"])
    return joins.hash_join(
        ods, ev, left_key="o_custkey", right_key="user_id",
        right_cols=["event_id"], how="full",
    )


# fixed interval grid for the range-join oracle: 60 overlapping 18h windows
# every 12h from 2024-01-01T00:00:00Z (events span 2024-01)
_RJ_BASE_US = 1_704_067_200_000_000
_RJ_STEP_US = 12 * 3_600_000_000
_RJ_WIDTH_US = 18 * 3_600_000_000
_RJ_N = 60


_PROFILE_COLS = ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"]


def _q_profile_orders(sf_dir: str):
    """Per-column data profile (cnt / n_null / min / max / sum, floats;
    timestamps as epoch µs): per-block pyarrow-kernel partials combined
    through one tiny groupby — the pre-commit schema-health check."""
    from duckdb_raquet_ray.stages import stats as st

    ds = _read_parquet(f"{sf_dir}/orders.parquet", columns=_PROFILE_COLS)
    return st.numeric_profile(ds, _PROFILE_COLS)


def _q_float_quantiles(sf_dir: str):
    """EXACT quantiles of an arbitrary float column (percentile_disc
    semantics) without a global sort: iterative histogram range
    refinement — a handful of streaming passes independent of row count
    (stages/stats.py:float_quantiles). seqlen_quantiles is the one-pass
    dense-int special case; this is the general-column path a 100-TB
    ORDER-BY percentile cannot take."""
    from duckdb_raquet_ray.stages import stats as st

    ds = _read_parquet(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    return st.float_quantiles(ds, "o_totalprice")


def _q_range_join(sf_dir: str):
    """Broadcast range (interval) join: every event joined to each of 60
    overlapping 18h calendar windows containing its timestamp (BETWEEN
    semantics, both ends inclusive) — one argsort + two vectorized
    searchsorteds per batch, interval table shipped once per actor."""
    import numpy as np
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import joins

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "ts"])
    k = np.arange(_RJ_N, dtype=np.int64)
    iv = pa.table(
        {
            "interval_id": pa.array(k),
            "lo_us": pa.array(_RJ_BASE_US + k * _RJ_STEP_US),
            "hi_us": pa.array(_RJ_BASE_US + k * _RJ_STEP_US + _RJ_WIDTH_US),
        }
    )
    out = joins.range_join_broadcast(
        ev, iv, left_val="ts", lo_col="lo_us", hi_col="hi_us",
        payload_cols=["interval_id", "lo_us"],
    )

    def to_us(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = pc.cast(pc.cast(b.column("ts"), pa.timestamp("us")), pa.int64())
        return b.drop_columns(["ts"]).append_column("ts_us", ts)

    return out.map_batches(to_us, batch_format="pyarrow")


def _q_asof_join(sf_dir: str):
    """Bucketed-shuffle as-of join (events x orders): latest order per user
    at or before each event, ties to the largest orderkey. Timestamps are
    surfaced as epoch-µs int64 so the value hash is exact."""
    from duckdb_raquet_ray.pipelines import joins

    ev = _read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    ods = _read_parquet(f"{sf_dir}/orders.parquet")
    out = joins.asof_join(
        ev, ods, left_key="user_id", right_key="o_custkey",
        left_ts="ts", right_ts="o_orderdate", tie_col="o_orderkey",
        right_cols=["o_orderkey", "o_orderdate", "o_totalprice"], n_buckets=64,
    )

    def to_us(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        def us(col):
            return pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())

        return pa.table({
            "event_id": b.column("event_id"),
            "user_id": b.column("user_id"),
            "ts_us": us(b.column("ts")),
            "o_orderkey": b.column("o_orderkey"),
            "o_date_us": us(b.column("o_orderdate")),
            "o_totalprice": b.column("o_totalprice"),
        })

    return out.map_batches(to_us, batch_format="pyarrow")


def _rename_window(ds):
    def fix(b: pa.Table) -> pa.Table:
        return b.rename_columns([
            {"count()": "cnt", "min(value)": "min_v", "max(value)": "max_v"}.get(c, c)
            for c in b.column_names
        ])

    return ds.map_batches(fix, batch_format="pyarrow")


def _q_window_tumbling(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import joins

    return _rename_window(joins.window_agg(
        rd.read_parquet(f"{sf_dir}/events.parquet"), "ts", _WEEK_US, "value",
        group_col="event_type",
    ))


def _q_window_sliding(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import joins

    return _rename_window(joins.window_agg(
        rd.read_parquet(f"{sf_dir}/events.parquet"), "ts", _WEEK_US, "value",
        size_us=3 * _WEEK_US,
    ))


def _q_session_windows(sf_dir: str):
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import joins

    return joins.session_windows(
        rd.read_parquet(f"{sf_dir}/events.parquet"), "user_id", "ts",
        _SESSION_GAP_US, "event_id", n_buckets=64,
    )


# ---------------------------------------------------------------------------
# driver contract
# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship: encode → manifest → decode → per-row token stats on the
    deterministic check corpus, after touching the sf0.001 tables."""
    import ray.data as rd

    from duckdb_raquet_ray.pipelines import text

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"])
    docs.map_batches(text.token_count_batch, batch_format="pyarrow").count()
    return _q_roundtrip("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    """Ordered NEWEST/LEAST-DRIVEN FIRST: the driver samples a prefix of
    this dict per round, so round-5 additions lead, then round-4's, then
    every query earlier drivers did not sample, then the veterans —
    guaranteeing each round's correctness file covers the newest ops."""
    _ensure_corpus()
    return {
        # --- round-5 --------------------------------------------------------
        "deleted_roundtrip_stats": _q_deleted_roundtrip,
        "compacted_roundtrip_stats": _q_compacted_roundtrip,
        "webp_frame_sums": _q_webp_frame_sums,
        "jpeg_progressive_sums": _q_jpeg_progressive_sums,
        "objectstore_publish_stats": _q_objectstore_publish_stats,
        # --- round-4, final continuation session ----------------------------
        "remove_dup_spans_docs": _q_remove_dup_spans,
        "mad_outliers_source": _q_mad_outliers,
        "grouped_topk_docs": _q_grouped_topk_rows,
        "grouped_distinct_events": _q_grouped_distinct,
        "regex_extract_events": _q_regex_extract,
        "topk_multi_similar": _q_topk_multi,
        "wds_sink_stats": _q_wds_sink_stats,
        "orc_sink_stats": _q_orc_sink_stats,
        "semantic_decontaminate_vecs": _q_semantic_decontaminate,
        # --- round-4, continuation session ----------------------------------
        "pagerank_domains": _q_pagerank,
        "incremental_minhash_docs": _q_incremental_minhash,
        "grouped_kl_source": _q_grouped_kl,
        "random_projection_vecs": _q_random_projection,
        "jsonl_gz_source_stats": _q_jsonl_gz_source_stats,
        "roundtrip_vec_stats": _q_roundtrip_vec_stats,
        "lm_perplexity_tokens": _q_lm_perplexity,
        "ivf_append_topk": _q_ivf_append_topk,
        "temperature_sample": _q_temperature_sample,
        "script_mix_docs": _q_script_mix,
        "rolling_window_events": _q_rolling_window,
        "containment_dedup_docs": _q_containment_dedup,
        "grouped_centroid_vecs": _q_grouped_centroid,
        "csv_gz_source_stats": _q_csv_gz_source_stats,
        "roundtrip_doc_stats": _q_roundtrip_doc_stats,
        "phrase_count_docs": _q_phrase_count,
        "phrase_indexed_docs": _q_phrase_indexed,
        "domain_components": _q_domain_components,
        "grouped_corr_events": _q_grouped_corr,
        "minhash_pairs_docs": _q_minhash_pairs,
        "bm25_multi_docs": _q_bm25_multi,
        "jsonl_gz_sink_stats": _q_jsonl_gz_sink_stats,
        "packed_spans": _q_packed_spans,
        "pmi_topk_tokens": _q_pmi_topk,
        "uniform_sample_docs": _q_uniform_sample,
        "rolling_time_events": _q_rolling_time_window,
        # --- round-4, closing session ---------------------------------------
        "dsir_score_docs": _q_dsir_score,
        "dsir_select_docs": _q_dsir_select,
        "html_strip_docs": _q_html_strip,
        "url_blocklist_docs": _q_url_blocklist,
        "wav_vad_segments": _q_wav_vad,
        "hybrid_rrf_docs": _q_hybrid_rrf,
        # --- round-4 new ---------------------------------------------------
        "quantile_filter_ntok": _q_quantile_filter,
        "grouped_quantiles_cont_source": _q_grouped_quantiles_cont,
        "grouped_hll_source": _q_grouped_hll,
        "bpe_roundtrip_docs": _q_bpe_roundtrip,
        "bpe_encode_docs": _q_bpe_encode,
        "bm25_topk_docs": _q_bm25,
        "bm25_indexed_docs": _q_bm25_indexed,
        "bm25_append_docs": _q_bm25_append,
        "kmeans_assign_vecs": _q_kmeans,
        "cluster_sample_vecs": _q_cluster_sample,
        "semi_join_customer": _q_semi_join,
        "anti_join_customer": _q_anti_join,
        "full_join_orders_events": _q_full_join,
        "tokenize_encode_roundtrip": _q_tokenize_encode_roundtrip,
        "bloom_registers_docs": _q_bloom_registers,
        "bloom_decontaminate_docs": _q_bloom_decontaminate,
        "cms_registers_tokens": _q_cms_registers,
        "cms_estimate_tokens": _q_cms_estimate,
        "cms_heavy_hitters_tokens": _q_cms_heavy_hitters,
        "chunk_docs": _q_chunk_docs,
        "ordered_export_docs": _q_ordered_export,
        "token_entropy_corpus": _q_token_entropy,
        "grouped_entropy_source": _q_grouped_entropy,
        "append_encode_stats": _q_append_encode,
        "cumulative_window_events": _q_cumulative_window,
        "lag_gap_events": _q_lag_gap,
        "events_rollup": _q_events_rollup,
        "heavy_bigrams_tokens": _q_heavy_bigrams,
        "corpus_diff_docs": _q_corpus_diff,
        "tokenize_docs": _q_tokenize_docs,
        "grouped_quantiles_source": _q_grouped_quantiles,
        "token_budget_sample": _q_token_budget,
        "normalize_docs": _q_normalize_docs,
        "line_dedup_docs": _q_line_dedup,
        "hll_distinct_tokens": _q_hll_registers,
        "stratified_sample_docs": _q_stratified_sample,
        "float_quantiles_orders": _q_float_quantiles,
        "classifier_score_docs": _q_classifier_score,
        "semantic_dedup_vecs": _q_semantic_dedup,
        "doc_keywords": _q_doc_keywords,
        "jaccard_dedup_docs": _q_jaccard_dedup,
        "webp_lossy_strip_sums": _q_webp_lossy_strip_sums,
        "bigram_lm_tokens": _q_bigram_lm,
        "webp_strip_sums": _q_webp_strip_sums,
        "gif_strip_sums": _q_gif_strip_sums,
        "gif_frame_sums": _q_gif_frame_sums,
        "jpeg_strip_sums": _q_jpeg_strip_sums,
        "wav_stats": _q_wav_stats,
        "mjpeg_frame_sums": _q_mjpeg_frame_sums,
        "length_buckets_docs": _q_length_buckets,
        "dedup_clusters_lp_docs": _q_dedup_clusters_lp,
        "grouped_topk_tokens": _q_grouped_topk,
        "jsonl_source_stats": _q_jsonl_source_stats,
        "jsonl_sink_stats": _q_jsonl_sink_stats,
        "ipc_sink_stats": _q_ipc_sink_stats,
        "csv_sink_stats": _q_csv_sink_stats,
        "csv_source_stats": _q_csv_source_stats,
        # --- not sampled by the round-3 driver (verified by judge re-drive) -
        "png_strip_sums": _q_png_strip_sums,
        "point_lookup_stats": _q_point_lookup_stats,
        "token_posweight": _q_token_posweight,
        "langid_docs": _q_langid,
        "winnow_fps": _q_winnow_fps,
        "decontaminate_docs": _q_decontaminate,
        "repetition_docs": _q_repetition,
        "doc_df_score": _q_doc_df_score,
        "multimodal_feature_sums": _q_multimodal_sums,
        "frame_sample": _q_frame_sample,
        "ivf_topk_similar": _q_ivf_topk,
        # rows-only members of the undriven set
        "embedding_dedup": _q_embedding_dedup,
        "multimodal_features": _q_multimodal,
        "point_lookup_partition": _q_point_lookup,
        "winnow_docs": _q_winnow_docs,
        "validate_manifest": _q_validate_manifest,
        "verify_bitidentity": _q_verify_bitidentity,
        # --- round-3 driver-green set (newest families first) ---------------
        "pq_codes": _q_pq_codes,
        "pq_topk_similar": _q_pq_topk,
        "pii_scan_docs": _q_pii_scan,
        "pii_redact_docs": _q_pii_redact,
        "dedup_clusters_docs": _q_dedup_clusters,
        "crossdoc_dup_docs": _q_crossdoc_dup,
        "ivfpq_topk_similar": _q_ivfpq_topk,
        "embedding_dedup_int8": _q_embedding_dedup_int8,
        "url_scan_docs": _q_url_scan,
        "domain_counts_docs": _q_domain_counts,
        "assign_splits_docs": _q_assign_splits,
        "sentence_stats_docs": _q_sentence_stats,
        "clean_corpus_docs": _q_clean_corpus,
        "incremental_dedup_docs": _q_incremental_dedup,
        "rollup_source_stats": _q_rollup_source_stats,
        "minhash_dedup_docs": _q_minhash_dedup,
        "simhash_dedup_docs": _q_simhash_dedup,
        "exact_dedup_docs": _q_exact_dedup,
        "packed_windows": _q_packed_windows,
        "broadcast_join_orders": _q_broadcast_join,
        "bucket_join_lineitem": _q_hash_join,
        "profile_orders": _q_profile_orders,
        "range_join_events": _q_range_join,
        "asof_join_events": _q_asof_join,
        "window_tumbling_events": _q_window_tumbling,
        "window_sliding_events": _q_window_sliding,
        "session_windows_events": _q_session_windows,
        "roundtrip_stats": _q_roundtrip,
        "roundtrip_stats_pushdown": _q_roundtrip_stats_pushdown,
        "roundtrip_grouped_stats": _q_roundtrip_grouped,
        "grouped_source_read": _q_source_read,
        "pruned_read_shard0": _q_pruned_read,
        "range_read_ntok": _q_range_read,
        "manifest_totals": _q_manifest_totals,
        "source_ntok_stats": _q_source_stats,
        "events_type_stats": _q_events_stats,
        "events_yearly": _q_events_yearly,
        "ws_token_count": _q_ws_tokens,
        "quality_metrics": _q_quality,
        "vocab_topk": _q_vocab_topk,
        "seqlen_quantiles": _q_seqlen_quantiles,
        "mixture_sample": _q_mixture_sample,
        "epoch_order": _q_epoch_order,
        "embedding_quantize": _q_embedding_quantize,
        "topk_similar": _q_topk,
        "ndiff_lineitem": _q_ndiff,
        "clip_tokens_sum": _q_clip,
        # --- thrice-green mask/map family (lowest sampling priority) --------
        "map_tokens_sum": _q_map_tokens,
        "ramp_tokens_sum": _q_ramp_tokens,
        "mask_range_sum": _q_mask_range,
        "mask_list_sum": _q_mask_list,
        "mask_eq_sum": _q_mask_eq,
    }


# value of hex pair i (0-based) of digest column d, as an integer
_HEXPAIR = (
    "(strpos('0123456789abcdef', substr(d, 2*i+1, 1))-1)*16"
    " + (strpos('0123456789abcdef', substr(d, 2*i+2, 1))-1)"
)
_HEXPAIR0 = (
    "(strpos('0123456789abcdef', substr(d,1,1))-1)*16"
    " + (strpos('0123456789abcdef', substr(d,2,1))-1)"
)


def _point_lookup_oracle() -> str:
    """SQL for the first planned partition: plan_partitions is a pure
    function of (sorted input files, PART_BYTES) — no Ray, metadata only —
    so the oracle recomputes the same row range the encode job used."""
    from duckdb_raquet_ray.pipelines.encode import plan_partitions

    first = plan_partitions(_ensure_corpus(), PART_BYTES)[0]
    n0 = first["row_range"][1] - first["row_range"][0]
    return (
        "SELECT doc_id, n_tok, source, coalesce(list_sum(tokens), 0)::BIGINT AS tok_sum "
        f"FROM (SELECT * FROM read_parquet('{first['shard']}') LIMIT {n0})"
    )


def oracle_sql() -> dict[str, str]:
    from duckdb_raquet_ray.pipelines import ann as _ann
    from duckdb_raquet_ray.pipelines import bloom as _bloom
    from duckdb_raquet_ray.pipelines import cluster as _cluster
    from duckdb_raquet_ray.pipelines import retrieval as _retrieval
    from duckdb_raquet_ray.pipelines import cms as _cms
    from duckdb_raquet_ray.pipelines import contamination as _contamination
    from duckdb_raquet_ray.pipelines import pii as _pii
    from duckdb_raquet_ray.pipelines import dedup as _dedup
    from duckdb_raquet_ray.pipelines import dsir as _dsir
    from duckdb_raquet_ray.pipelines import graph as _graph
    from duckdb_raquet_ray.pipelines import quality as _quality
    from duckdb_raquet_ray.pipelines import sampling as _sampling
    from duckdb_raquet_ray.pipelines import joins as _joins_mod
    from duckdb_raquet_ray.pipelines import text as _text_ops
    from duckdb_raquet_ray.stages import stats as _stats

    _ensure_corpus()
    corpus = f"read_parquet('{CORPUS_DIR}/shard-*.parquet')"
    # projection matching _q_mixture_sample's column selection
    corpus_cols = f"(SELECT doc_id, source, n_tok FROM {corpus})"
    stats_sql = (
        "SELECT doc_id, n_tok, source, "
        "len(tokens)::BIGINT AS tok_count, "
        "list_min(tokens)::BIGINT AS tok_min, "
        "list_max(tokens)::BIGINT AS tok_max, "
        "list_sum(tokens)::BIGINT AS tok_sum "
        f"FROM {corpus}"
    )
    clip_sql = (
        "SELECT doc_id, "
        f"len(list_filter(tokens, x -> x BETWEEN {MASK_LOW} AND {MASK_HIGH}))::BIGINT AS tok_count, "
        f"coalesce(list_sum(list_filter(tokens, x -> x BETWEEN {MASK_LOW} AND {MASK_HIGH})), 0)::BIGINT AS tok_sum "
        f"FROM {corpus}"
    )
    allowed_lit = "[" + ",".join(str(v) for v in ALLOWED) + "]"
    ones = "[" + ",".join(["1.0"] * 64) + "]"
    return {
        # string-plane roundtrip: position-weighted byte checksum of every
        # decoded text vs the raw table (ASCII fixture: ascii() == byte)
        "roundtrip_doc_stats": (
            "WITH d AS (SELECT doc_id, lang, source, n_chars, "
            "coalesce(text, '') AS t FROM documents), "
            "ix AS (SELECT doc_id, t, "
            "unnest(generate_series(1, length(t))) AS i "
            "FROM d WHERE length(t) > 0), "
            "cs AS (SELECT doc_id, "
            "sum(ascii(substr(t, i::INT, 1))::BIGINT * i)::BIGINT AS c "
            "FROM ix GROUP BY doc_id) "
            "SELECT d.doc_id, d.lang, d.source, d.n_chars AS n_chars_col, "
            "length(d.t)::BIGINT AS text_len, "
            "coalesce(cs.c, 0)::BIGINT AS text_checksum "
            "FROM d LEFT JOIN cs USING (doc_id)"
        ),
        # float-plane roundtrip: every decoded embedding float flows into
        # per-row sum/min/max vs the raw table (decode bit-gate in pytest)
        "roundtrip_vec_stats": (
            "SELECT vec_id, label, len(embedding)::BIGINT AS n_dim, "
            "list_sum(list_transform(embedding, x -> x::DOUBLE)) AS v_sum, "
            "list_min(list_transform(embedding, x -> x::DOUBLE)) AS v_min, "
            "list_max(list_transform(embedding, x -> x::DOUBLE)) AS v_max "
            "FROM embeddings"
        ),
        # near-dup pair report: qualifying pairs + integer-floor Jaccard
        "minhash_pairs_docs": _dedup.minhash_pairs_oracle_sql("documents"),
        # grouped correlation: the SAME power-sum formula on both sides
        "grouped_corr_events": _stats.grouped_corr_oracle_sql(
            "(SELECT event_type, value, epoch_us(ts) // 86400000000 AS ts_day "
            "FROM events)",
            "event_type", "value", "ts_day",
        ),
        # link-graph components: recursive min-label closure
        "domain_components": _graph.components_oracle_sql(
            _graph.synthesize_links_sql("documents")
        ),
        # PageRank: link splice + edge extraction + unrolled integer
        # power iteration, all replicated in SQL (pipelines/graph.py)
        "pagerank_domains": _graph.pagerank_oracle_sql(
            _graph.synthesize_links_sql("documents"), iters=3
        ),
        # DSIR: the plan-time integer weight table (trained at sf0.01,
        # /tmp-cached — the _pq_codebook discipline) inlined as VALUES;
        # scoring is an int64 sum on both sides
        "dsir_score_docs": _dsir.dsir_score_oracle_sql(
            _dsir_weights("/root/testdata/sf0.01")
        ),
        "dsir_select_docs": _dsir.dsir_select_oracle_sql(
            _dsir_weights("/root/testdata/sf0.01"), 50
        ),
        # HLL registers: identical splitmix64 hash / register split / rank
        # rule on both sides (bin() length = exact integer bit_length)
        "hll_distinct_tokens": _stats.hll_oracle_sql(corpus, "tokens", p=_HLL_P),
        "grouped_hll_source": _stats.grouped_hll_oracle_sql(
            corpus, "source", "tokens", p=_HLL_P
        ),
        "quantile_filter_ntok": _sampling.quantile_filter_oracle_sql(
            corpus, group_col="source", value_col="n_tok", p=0.5
        ),
        "grouped_quantiles_cont_source": _stats.grouped_quantiles_cont_oracle_sql(
            corpus, group_col="source", value_col="n_tok"
        ),
        # per-group k smallest seeded hashes; shared _mix_ctes hash chain
        "stratified_sample_docs": _sampling.stratified_oracle_sql(
            corpus_cols, _STRAT_K, seed=_STRAT_SEED
        ),
        # exact percentile_disc parity: both sides return the value at
        # 1-indexed rank ceil(p*n), nulls excluded
        "float_quantiles_orders": _stats.float_quantiles_oracle_sql(
            "orders", "o_totalprice"
        ),
        "roundtrip_stats": stats_sql,
        # compaction: same stats oracle over the SAME raw corpus — the
        # compacted dir must reproduce it through a different layout
        "compacted_roundtrip_stats": stats_sql,
        # deletion: the raw-corpus oracle minus the deleted key set (the
        # engine deleted every doc_id ending in '7')
        "deleted_roundtrip_stats": (
            f"SELECT * FROM ({stats_sql}) WHERE NOT ends_with(doc_id, '7')"
        ),
        "roundtrip_stats_pushdown": stats_sql,
        "roundtrip_grouped_stats": stats_sql,
        # append-then-read must equal one-shot encode-then-read
        "append_encode_stats": stats_sql,
        "grouped_source_read": stats_sql + " WHERE source = 'web'",
        "pruned_read_shard0": (
            stats_sql + f" WHERE CAST(right(doc_id, 12) AS BIGINT) < {ROWS_PER_SHARD}"
        ),
        "clip_tokens_sum": clip_sql,
        "mask_range_sum": clip_sql,
        "mask_list_sum": (
            "SELECT doc_id, "
            f"len(list_filter(tokens, x -> list_contains({allowed_lit}, x)))::BIGINT AS tok_count, "
            f"coalesce(list_sum(list_filter(tokens, x -> list_contains({allowed_lit}, x))), 0)::BIGINT AS tok_sum "
            f"FROM {corpus}"
        ),
        "mask_eq_sum": (
            "SELECT doc_id, "
            f"len(list_filter(tokens, x -> x = {EQ_VALUE}))::BIGINT AS tok_count, "
            f"coalesce(list_sum(list_filter(tokens, x -> x = {EQ_VALUE})), 0)::BIGINT AS tok_sum "
            f"FROM {corpus}"
        ),
        "map_tokens_sum": (
            "SELECT doc_id, len(tokens)::BIGINT AS tok_count, "
            f"coalesce(list_sum(list_transform(tokens, x -> x % {MAP_MOD})), 0)::BIGINT AS tok_sum "
            f"FROM {corpus}"
        ),
        # the piecewise-linear expression mirrors ramp_tokens op-for-op
        # (t*(c1-c0)+c0, floor(y+0.5)) so float64 results hash-match
        "ramp_tokens_sum": (
            "SELECT doc_id, "
            "len(list_filter(tokens, x -> x BETWEEN 500 AND 45000))::BIGINT AS tok_count, "
            "coalesce(list_sum(list_transform("
            "  list_filter(tokens, x -> x BETWEEN 500 AND 45000), "
            "  x -> CASE "
            "    WHEN x <= 500 THEN 0 "
            "    WHEN x >= 45000 THEN 255 "
            "    WHEN x <= 8000 THEN CAST(floor(0 + (x - 500) / (8000.0 - 500) * (64 - 0) + 0.5) AS BIGINT) "
            "    WHEN x <= 20000 THEN CAST(floor(64 + (x - 8000) / (20000.0 - 8000) * (128 - 64) + 0.5) AS BIGINT) "
            "    ELSE CAST(floor(128 + (x - 20000) / (45000.0 - 20000) * (255 - 128) + 0.5) AS BIGINT) "
            "  END)), 0)::BIGINT AS tok_sum "
            f"FROM {corpus}"
        ),
        "source_ntok_stats": (
            "SELECT source, COUNT(*)::BIGINT AS cnt, SUM(n_tok)::DOUBLE AS sum_v, "
            "MIN(n_tok)::DOUBLE AS min_v, MAX(n_tok)::DOUBLE AS max_v, "
            "SUM(n_tok)::DOUBLE / COUNT(*) AS mean_v "
            f"FROM {corpus} GROUP BY source"
        ),
        # the rollup tier must reproduce the same per-source stats the
        # full-scan SQL computes — but from manifest.json alone. Integer
        # sum divided exactly as in _q_source_stats for bit-equal mean.
        "rollup_source_stats": (
            "SELECT source, COUNT(*)::BIGINT AS cnt, SUM(n_tok)::DOUBLE AS sum_v, "
            "MIN(n_tok)::DOUBLE AS min_v, MAX(n_tok)::DOUBLE AS max_v, "
            "SUM(n_tok)::DOUBLE / COUNT(*) AS mean_v "
            f"FROM {corpus} GROUP BY source"
        ),
        "sentence_stats_docs": _text_ops.sentence_oracle_sql("documents"),
        # normalize over the identically-mangled docs (utf8proc lower +
        # NFC + RE2 \s+ collapse on both sides)
        "normalize_docs": _text_ops.normalize_oracle_sql(
            _text_ops.mangle_unicode_sql("documents")
        ),
        # script mix over the identically-spliced docs (RE2 \p{Script})
        "script_mix_docs": _text_ops.script_mix_oracle_sql(
            _text_ops.synthesize_scripts_sql("documents")
        ),
        # html strip over the identically-wrapped docs (RE2 step chain +
        # entity replaces, same order both sides)
        "html_strip_docs": _text_ops.html_strip_oracle_sql(
            _text_ops.html_mangle_sql("documents")
        ),
        "length_buckets_docs": _sampling.length_buckets_oracle_sql(
            "documents", length_col="n_chars", boundaries=_LEN_BOUNDARIES
        ),
        "ws_token_count": (
            r"SELECT doc_id, len(regexp_extract_all(text, '\S+'))::BIGINT AS ws_tokens "
            "FROM documents"
        ),
        # winnowing (SIGMOD 2003) exactly: k=5-gram polynomial rolling hash
        # (base 257 mod 2^61-1; bytes are ASCII here and powers < 2^33, so
        # every term fits BIGINT with no uint64 wrap), zero-padded past the
        # text end, window=4 minima, deduplicated — mirrors
        # text.winnow_fingerprints / dedup._shingle_hashes_ordered
        "winnow_fps": (
            "WITH d AS (SELECT doc_id, text, greatest(length(text), 5) - 4 AS n_grams "
            "FROM documents), "
            "ix AS (SELECT doc_id, text, n_grams, "
            "unnest(generate_series(1, n_grams)) AS i FROM d), "
            "g AS (SELECT doc_id, i, n_grams, "
            "( (CASE WHEN i   <= length(text) THEN ascii(substr(text, i::INT,   1)) ELSE 0 END) * 4362470401 "
            "+ (CASE WHEN i+1 <= length(text) THEN ascii(substr(text, i::INT+1, 1)) ELSE 0 END) * 16974593 "
            "+ (CASE WHEN i+2 <= length(text) THEN ascii(substr(text, i::INT+2, 1)) ELSE 0 END) * 66049 "
            "+ (CASE WHEN i+3 <= length(text) THEN ascii(substr(text, i::INT+3, 1)) ELSE 0 END) * 257 "
            "+ (CASE WHEN i+4 <= length(text) THEN ascii(substr(text, i::INT+4, 1)) ELSE 0 END) "
            ") % 2305843009213693951 AS h FROM ix), "
            "w AS (SELECT doc_id, i, n_grams, min(h) OVER ("
            "PARTITION BY doc_id ORDER BY i ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wm "
            "FROM g) "
            "SELECT DISTINCT doc_id, wm AS fp FROM w "
            "WHERE i <= greatest(n_grams - 3, 1)"
        ),
        # the token regex (?<!\S)word(?!\S) in TextAnalyzer counts exact
        # whitespace-delimited token matches == list_filter equality below;
        # lang CASE order mirrors argmax-first-max over sorted lang names
        "langid_docs": (
            "WITH w AS (SELECT doc_id, "
            r"list_filter(regexp_split_to_array(lower(text), '[ \t\n\r\x0b\x0c]+'), x -> x <> '') AS words "
            "FROM documents), h AS (SELECT doc_id, len(words) AS nw, "
            "len(list_filter(words, x -> x IN ('der','die','das','und','ist','nicht','ein','mit','zu','auf'))) AS h_de, "
            "len(list_filter(words, x -> x IN ('the','and','of','to','a','in','is','that','it','for'))) AS h_en, "
            "len(list_filter(words, x -> x IN ('el','la','los','las','y','es','un','una','que','por'))) AS h_es, "
            "len(list_filter(words, x -> x IN ('le','la','les','et','est','un','une','des','pas','pour'))) AS h_fr "
            "FROM w) SELECT doc_id, "
            "CASE WHEN greatest(h_de,h_en,h_es,h_fr) = 0 THEN 'und' "
            "WHEN h_de >= h_en AND h_de >= h_es AND h_de >= h_fr THEN 'de' "
            "WHEN h_en >= h_es AND h_en >= h_fr THEN 'en' "
            "WHEN h_es >= h_fr THEN 'es' ELSE 'fr' END AS lang_pred, "
            "CASE WHEN nw = 0 THEN 0.0 ELSE greatest(h_de,h_en,h_es,h_fr) / nw::DOUBLE END AS stop_ratio "
            "FROM h"
        ),
        "quality_metrics": (
            "SELECT doc_id, length(text)::BIGINT AS n_chars_m, "
            r"len(regexp_extract_all(text, '[^\w\s]'))::BIGINT AS n_punct, "
            "len(regexp_extract_all(text, '[0-9]'))::BIGINT AS n_digit, "
            "len(regexp_extract_all(text, '[A-Z]'))::BIGINT AS n_upper "
            "FROM documents"
        ),
        "exact_dedup_docs": (
            "SELECT * FROM documents WHERE doc_id IN "
            "(SELECT MIN(doc_id) FROM documents GROUP BY text)"
        ),
        # corpus-wide duplicate-LINE removal over deterministically chunked
        # docs; both sides chunk with the identical 4-word rule
        # (pipelines/dedup.py:chunk_words_sql / chunk_words_batch)
        "line_dedup_docs": _dedup.line_dedup_oracle_sql(
            _dedup.chunk_words_sql("documents")
        ),
        # the whole MinHash+LSH pipeline is deterministic (seeded perms,
        # FNV band fold, anchor-min pairs, exact-Jaccard verify), so
        # near-dup removal gets a FULL value-checked oracle — built next to
        # the kernel it mirrors (pipelines/dedup.py:minhash_oracle_sql)
        "minhash_dedup_docs": _dedup.minhash_oracle_sql("documents"),
        "jaccard_dedup_docs": _dedup.jaccard_oracle_sql("documents"),
        # same verified edge set as minhash_dedup_docs, closed transitively
        # with a recursive min-label CTE (matches the driver union-find)
        "dedup_clusters_docs": _dedup.minhash_clusters_oracle_sql("documents"),
        # the distributed label-propagation twin converges to the same
        # fixed point (min key per connected component) — same oracle
        "dedup_clusters_lp_docs": _dedup.minhash_clusters_oracle_sql("documents"),
        "embedding_dedup_int8": _dedup.embedding_dedup_oracle_sql(
            _dedup.synthesize_near_dups_sql("embeddings")
        ),
        # clustered (SemDeDup) twin: centroids, assignment and drop rule
        # all replicated in SQL over the same planted near-dups
        "semantic_dedup_vecs": _dedup.semantic_dedup_oracle_sql(
            _dedup.synthesize_near_dups_sql("embeddings")
        ),
        "decontaminate_docs": _contamination.contamination_oracle_sql("documents"),
        # embedding analogue: benchmark = the planted +eps copies, exact
        # rational int8 cosine test replicated over the same quantization
        "semantic_decontaminate_vecs": _contamination.semantic_oracle_sql(
            _dedup.synthesize_near_dups_sql("embeddings")
        ),
        # encode -> object-store-branch publish -> read-back -> decode:
        # the decoded partitions must reproduce the raw table's per-source
        # doc/char stats exactly
        "objectstore_publish_stats": (
            "SELECT source, count(*)::BIGINT AS n_docs, "
            "coalesce(sum(length(text)), 0)::BIGINT AS n_chars "
            "FROM documents GROUP BY source"
        ),
        # the rewrite form of crossdoc_dup_docs: same gram fold, min-key
        # keeper rule, covered positions cut, text rebuilt word-joined
        "remove_dup_spans_docs": _quality.remove_dup_spans_oracle_sql("documents"),
        # robust per-source outlier stats: DuckDB median() doubled into
        # exact integers, same pure-integer outlier comparison
        "mad_outliers_source": _stats.grouped_mad_oracle_sql(f"({stats_sql})"),
        "grouped_topk_docs": _stats.grouped_topk_rows_oracle_sql(
            "documents", "source", "n_chars", k=3
        ),
        "grouped_distinct_events": _stats.grouped_count_distinct_oracle_sql(
            "events", "event_type", "user_id"
        ),
        "regex_extract_events": _text_ops.regex_extract_oracle_sql(
            "events", r'"k":\s*(?P<kval>\d+)', text_col="props",
            select_cols="event_id",
        ),
        # batch ANN: ranks only (same float policy as topk_similar)
        "topk_multi_similar": _ann.brute_multi_oracle_sql(_multi_query_vecs(), k=10),
        "repetition_docs": _quality.repetition_oracle_sql("documents"),
        "doc_df_score": _quality.df_score_oracle_sql("documents"),
        # build + score replicated end-to-end: same detmix word hashes,
        # integer fixed-point weights, UBIGINT-ordered top_n cutoff
        "classifier_score_docs": _quality.classifier_oracle_sql(
            "documents", positive=_CLS_POSITIVE
        ),
        # stopword cutoff and per-doc rank both row_number twins of the
        # engine's uint64 lexsort rules (h is UBIGINT on the SQL side)
        "doc_keywords": _quality.keywords_oracle_sql("documents", k=3, stop_top_n=8),
        "crossdoc_dup_docs": _quality.crossdoc_dup_oracle_sql("documents"),
        # SimHash word hash is polynomial + splitmix64 (modular integer
        # math only) precisely so this oracle exists (dedup._word_hashes)
        "simhash_dedup_docs": _dedup.simhash_oracle_sql("documents"),
        "vocab_topk": (
            "SELECT t AS token, count(*)::BIGINT AS cnt "
            f"FROM (SELECT unnest(tokens) AS t FROM {corpus}) "
            "GROUP BY t ORDER BY cnt DESC, token LIMIT 100"
        ),
        # token-bigram LM: key = a * 2^32 + b (within-doc pairs only);
        # the top-k cutoff ties break (cnt DESC, key ASC) in BOTH engines
        "bigram_lm_tokens": (
            "WITH bg AS ("
            "  SELECT doc_id, unnest(list_transform("
            "    generate_series(1, len(tokens) - 1),"
            "    i -> tokens[i]::BIGINT * 4294967296 + tokens[i+1]::BIGINT"
            "  )) AS key"
            f"  FROM {corpus}"
            "), lm AS ("
            "  SELECT key, count(*)::BIGINT AS cnt FROM bg GROUP BY key "
            f"  ORDER BY cnt DESC, key ASC LIMIT {_BIGRAM_LM_K}"
            "), sc AS ("
            "  SELECT bg.doc_id, count(*)::BIGINT AS n_bigrams, "
            "         count(lm.key)::BIGINT AS n_hit, "
            "         coalesce(sum(lm.cnt), 0)::BIGINT AS hit_sum "
            "  FROM bg LEFT JOIN lm USING (key) GROUP BY bg.doc_id"
            ") "
            "SELECT c.doc_id, coalesce(sc.n_bigrams, 0)::BIGINT AS n_bigrams, "
            "       coalesce(sc.n_hit, 0)::BIGINT AS n_hit, "
            "       coalesce(sc.hit_sum, 0)::BIGINT AS hit_sum "
            f"FROM {corpus} c LEFT JOIN sc USING (doc_id)"
        ),
        # exact-k uniform sample: k smallest seeded hashes, ties by key
        "uniform_sample_docs": _sampling.uniform_sample_oracle_sql(
            "(SELECT doc_id, source FROM documents)", 100, seed=7,
            columns="doc_id, source",
        ),
        # PMI collocations: capped bigram table + exact unigram/total folds
        "pmi_topk_tokens": _stats.pmi_oracle_sql(
            corpus, k_table=_BIGRAM_LM_K, top=50
        ),
        # add-one-smoothed bigram cross-entropy: capped LM table + EXACT
        # unigram counts; bits at the driver's %.9g float tolerance
        "lm_perplexity_tokens": (
            "WITH bg AS ("
            "  SELECT doc_id, unnest(list_transform("
            "    generate_series(1, len(tokens) - 1),"
            "    i -> tokens[i]::BIGINT * 4294967296 + tokens[i+1]::BIGINT"
            "  )) AS key"
            f"  FROM {corpus}"
            "), lm AS ("
            "  SELECT key, count(*)::BIGINT AS cnt FROM bg GROUP BY key "
            f"  ORDER BY cnt DESC, key ASC LIMIT {_BIGRAM_LM_K}"
            "), uni AS ("
            "  SELECT t, count(*)::BIGINT AS cu FROM "
            f"  (SELECT unnest(tokens) AS t FROM {corpus}) GROUP BY t"
            "), sc AS ("
            "  SELECT bg.doc_id, count(*)::BIGINT AS n_bigrams, "
            "         -sum(log2((coalesce(lm.cnt, 0) + 1)::DOUBLE "
            "              / (uni.cu + 50257)::DOUBLE)) / count(*) AS h_bits "
            "  FROM bg LEFT JOIN lm USING (key) "
            "  JOIN uni ON uni.t = bg.key // 4294967296 "
            "  GROUP BY bg.doc_id"
            ") "
            "SELECT c.doc_id, coalesce(sc.n_bigrams, 0)::BIGINT AS n_bigrams, "
            "       coalesce(sc.h_bits, 0.0) AS h_bits "
            f"FROM {corpus} c LEFT JOIN sc USING (doc_id)"
        ),
        # landing-zone foreign-format reads: DuckDB parses the SAME jsonl/
        # csv files the engine read — the read path itself is under oracle
        "jsonl_source_stats": (
            "SELECT source, count(*)::BIGINT AS n_docs, "
            "sum(len(text))::BIGINT AS text_chars "
            f"FROM read_json_auto('{_jsonl_dir()}/*.jsonl') "
            "GROUP BY source"
        ),
        "jsonl_gz_source_stats": (
            "SELECT source, count(*)::BIGINT AS n_docs, "
            "sum(len(text))::BIGINT AS text_chars "
            f"FROM read_json_auto('{_jsonl_gz_dir()}/*.jsonl.gz') "
            "GROUP BY source"
        ),
        "csv_source_stats": (
            "SELECT source, count(*)::BIGINT AS n_docs, "
            "sum(len(text))::BIGINT AS text_chars "
            f"FROM read_csv_auto('{_csv_dir()}/*.csv') "
            "GROUP BY source"
        ),
        "csv_gz_source_stats": (
            "SELECT source, count(*)::BIGINT AS n_docs, "
            "sum(len(text))::BIGINT AS text_chars "
            f"FROM read_csv_auto('{_csv_gz_dir()}/*.csv.gz') "
            "GROUP BY source"
        ),
        # export-sink round trip: the engine wrote documents out as JSONL
        # and read its own files back; the oracle aggregates the parquet
        # view directly - any row the sink mangles hash-mismatches
        "jsonl_sink_stats": (
            "SELECT source, count(*)::BIGINT AS n_docs, "
            "sum(len(coalesce(text, '')))::BIGINT AS text_chars "
            "FROM documents GROUP BY source"
        ),
        "wds_sink_stats": (
            "SELECT source, count(*)::BIGINT AS n_docs, "
            "sum(len(coalesce(text, '')))::BIGINT AS text_chars "
            "FROM documents GROUP BY source"
        ),
        "orc_sink_stats": (
            "SELECT source, count(*)::BIGINT AS n_docs, "
            "sum(len(coalesce(text, '')))::BIGINT AS text_chars "
            "FROM documents GROUP BY source"
        ),
        "jsonl_gz_sink_stats": (
            "SELECT source, count(*)::BIGINT AS n_docs, "
            "sum(len(coalesce(text, '')))::BIGINT AS text_chars "
            "FROM documents GROUP BY source"
        ),
        "csv_sink_stats": (
            "SELECT source, count(*)::BIGINT AS n_docs, "
            "sum(len(coalesce(text, '')))::BIGINT AS text_chars "
            "FROM documents GROUP BY source"
        ),
        "ipc_sink_stats": (
            "SELECT source, count(*)::BIGINT AS n_docs, "
            "sum(len(coalesce(text, '')))::BIGINT AS text_chars "
            "FROM documents GROUP BY source"
        ),
        # per-source top-10: same counting, ranked inside each source
        # (engine groups NULL sources as '' -> coalesce keeps parity)
        "grouped_topk_tokens": (
            "WITH f AS (SELECT coalesce(source, '') AS source, "
            f"unnest(tokens) AS t FROM {corpus}), "
            "c AS (SELECT source, t AS token, count(*)::BIGINT AS cnt "
            "FROM f GROUP BY source, t), "
            "r AS (SELECT source, token, cnt, row_number() OVER "
            "(PARTITION BY source ORDER BY cnt DESC, token) AS rn FROM c) "
            "SELECT source, token, cnt FROM r WHERE rn <= 10"
        ),
        # int8 quantization: scale = list_max(|x|) (order-independent),
        # q = round(x/scale*127) — DuckDB round() is half-away-from-zero,
        # exactly the kernel's floor(|y|+0.5) for |y| <= 127.5
        "embedding_quantize": (
            "WITH e AS (SELECT vec_id, embedding, "
            "list_max(list_transform(embedding, x -> abs(x::DOUBLE))) AS scale "
            "FROM embeddings), "
            "t AS (SELECT vec_id, scale, "
            "unnest(embedding) AS x, "
            "unnest(generate_series(1, len(embedding))) AS i FROM e), "
            "q AS (SELECT vec_id, i, CASE WHEN scale > 0 "
            "THEN round(x::DOUBLE / scale * 127)::BIGINT ELSE 0 END AS qv FROM t), "
            "s AS (SELECT vec_id, sum(i * qv)::BIGINT AS q_checksum, "
            "sum(abs(qv))::BIGINT AS q_l1 FROM q GROUP BY vec_id) "
            # LEFT JOIN: an empty embedding list unnests to zero rows but
            # the Ray kernel still emits (vec_id, 0, 0) for it
            "SELECT e.vec_id, coalesce(s.q_checksum, 0) AS q_checksum, "
            "coalesce(s.q_l1, 0) AS q_l1 FROM embeddings e LEFT JOIN s USING (vec_id)"
        ),
        "mixture_sample": _sampling.mixture_oracle_sql(
            corpus_cols, _MIXTURE_RATES, seed=_MIXTURE_SEED
        ),
        # temperature rates from EXACT corpus counts, thresholds inlined
        "temperature_sample": _sampling.mixture_oracle_sql(
            corpus_cols, _temperature_rates_corpus(), seed=_TEMPERATURE_SEED
        ),
        "tokenize_encode_roundtrip": _text_ops.tokenize_stats_oracle_sql(
            "documents"
        ),
        "bloom_registers_docs": _bloom.bloom_registers_oracle_sql(
            "documents", n=5, k=4, where="doc_id % 50 = 7"
        ),
        "bloom_decontaminate_docs": _bloom.bloom_decontaminate_oracle_sql(
            "documents", n=5, k=4, bench_mod=50, bench_rem=7
        ),
        "cms_registers_tokens": _cms.cms_registers_oracle_sql(corpus),
        "cms_estimate_tokens": _cms.cms_estimate_oracle_sql(corpus),
        "cms_heavy_hitters_tokens": _cms.cms_heavy_hitters_oracle_sql(
            corpus, threshold=100
        ),
        # snapshot diff: the oracle compares REAL text over a full outer
        # join; the engine ships only (key, hash, side) rows
        "corpus_diff_docs": (
            "WITH old AS (SELECT doc_id, coalesce(text, '') AS t FROM documents), "
            "new AS ("
            "  SELECT doc_id, CASE WHEN doc_id % 10 = 4 "
            "    THEN coalesce(text, '') || ' v2' ELSE coalesce(text, '') END AS t "
            "  FROM documents WHERE doc_id % 10 <> 3 "
            "  UNION ALL "
            "  SELECT doc_id + 1000000, coalesce(text, '') FROM documents "
            "  WHERE doc_id % 10 = 5"
            ") "
            "SELECT coalesce(o.doc_id, n.doc_id)::BIGINT AS doc_id, "
            "  CASE WHEN o.doc_id IS NULL THEN 'added' "
            "       WHEN n.doc_id IS NULL THEN 'removed' "
            "       WHEN o.t = n.t THEN 'unchanged' ELSE 'changed' END AS status "
            "FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id"
        ),
        # heavy bigrams: same bigram fold as the LM oracle, plain HAVING
        "heavy_bigrams_tokens": (
            "WITH bg AS ("
            "  SELECT unnest(list_transform("
            "    generate_series(1, len(tokens) - 1),"
            "    i -> tokens[i]::BIGINT * 4294967296 + tokens[i+1]::BIGINT"
            "  )) AS key"
            f"  FROM {corpus}"
            ") "
            "SELECT key, count(*)::BIGINT AS cnt FROM bg "
            "GROUP BY key HAVING count(*) >= 50"
        ),
        "chunk_docs": _text_ops.chunk_oracle_sql("documents", size=256, stride=192),
        # ordered export: position k of the sorted export must hold the
        # rank-k key — pins the distributed sort end-to-end
        "ordered_export_docs": (
            "SELECT (row_number() OVER (ORDER BY doc_id) - 1)::BIGINT AS pos, "
            f"doc_id, n_tok FROM {corpus}"
        ),
        "token_entropy_corpus": _stats.token_entropy_oracle_sql(corpus),
        "grouped_entropy_source": _stats.grouped_entropy_oracle_sql(corpus),
        "grouped_kl_source": _stats.grouped_kl_oracle_sql(corpus),
        # JL projection: weights inlined as VALUES (pure function of
        # (dim=64, out_dim=8, seed)); quantize chain shared with PQ
        "random_projection_vecs": _ann.random_projection_oracle_sql(
            "embeddings", dim=64, out_dim=8, seed=42
        ),
        "tokenize_docs": _text_ops.tokenize_oracle_sql("documents"),
        "grouped_quantiles_source": _stats.grouped_quantiles_oracle_sql(corpus),
        "token_budget_sample": _sampling.token_budget_oracle_sql(
            corpus_cols,
            _TOKEN_BUDGETS,
            seed=_TOKEN_BUDGET_SEED,
            default_budget=_TOKEN_BUDGET_DEFAULT,
        ),
        "epoch_order": _sampling.epoch_order_oracle_sql(
            corpus, seed=_EPOCH_SEED, limit=200
        ),
        "assign_splits_docs": _sampling.splits_oracle_sql(
            "documents", _SPLIT_FRACTIONS, seed=_SPLIT_SEED
        ),
        # three oracle-checked stages composed into one value-checked
        # result (per-doc metrics commute with filtering, so stagewise
        # keep-set intersection == the pipelined order)
        "clean_corpus_docs": _clean_corpus_oracle_sql(),
        # containment over docs + planted 60-char prefixes of every 7th
        "containment_dedup_docs": _dedup.containment_oracle_sql(
            "(SELECT doc_id, text FROM documents "
            "UNION ALL SELECT doc_id + 5000 AS doc_id, "
            "substr(coalesce(text, ''), 21, 60) AS text "
            "FROM documents WHERE doc_id % 7 = 0)",
            threshold=0.9,
        ),
        # LSH band-index append: old = doc_id < 250 indexed; new = the
        # rest + planted near-dup mangles of indexed docs (' x', must
        # drop on old collision) and of new docs (' y', smaller key wins)
        "incremental_minhash_docs": _dedup.incremental_minhash_oracle_sql(
            "(SELECT doc_id, text FROM documents WHERE doc_id >= 250 "
            "UNION ALL SELECT doc_id + 1000 AS doc_id, text || ' x' AS text "
            "FROM documents WHERE doc_id < 50 "
            "UNION ALL SELECT doc_id + 3000 AS doc_id, text || ' y' AS text "
            "FROM documents WHERE doc_id >= 250 AND doc_id < 275)",
            "(SELECT doc_id, text FROM documents WHERE doc_id < 250)",
            bands=8,
        ),
        # index halves: old = doc_id < 250; new = the rest + 50 planted
        # re-keyed copies of indexed texts (must all drop)
        "incremental_dedup_docs": _dedup.incremental_dedup_oracle_sql(
            "(SELECT doc_id, text FROM documents WHERE doc_id >= 250 "
            "UNION ALL SELECT doc_id + 1000, text FROM documents WHERE doc_id < 50)",
            "(SELECT doc_id, text FROM documents WHERE doc_id < 250)",
        ),
        # canonical packing order = the numeric doc suffix (globally
        # sequential across shards == file/row order the Ray side reads);
        # each doc contributes its tokens + ONE separator (50256), the
        # stream is cut every 2048, and the per-window checksum weights
        # each token by (1 + position inside the window)
        # window doc-segment spans: blocks (n_tok + 1) intersected with
        # 2048-windows; rank-weighted checksum pins order AND lengths
        "packed_spans": (
            "WITH d AS (SELECT n_tok, "
            "CAST(regexp_extract(doc_id, '([0-9]+)$', 1) AS BIGINT) AS idx "
            f"FROM {corpus}), "
            "o AS (SELECT n_tok + 1 AS blk, coalesce(sum(n_tok + 1) OVER ("
            "ORDER BY idx ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS s "
            "FROM d), "
            "seg AS (SELECT unnest(generate_series((s // 2048)::BIGINT, "
            "((s + blk - 1) // 2048)::BIGINT)) AS w, s, blk FROM o), "
            "sl AS (SELECT w, greatest(s, w * 2048) AS lo, "
            "least(s + blk, (w + 1) * 2048) - greatest(s, w * 2048) AS seg_len FROM seg), "
            "r AS (SELECT w, seg_len, "
            "row_number() OVER (PARTITION BY w ORDER BY lo) AS rn FROM sl) "
            "SELECT w::BIGINT AS window_id, count(*)::BIGINT AS n_segs, "
            "sum(seg_len)::BIGINT AS n_tokens, "
            "sum(seg_len * rn)::BIGINT AS spans_checksum "
            "FROM r GROUP BY w"
        ),
        "packed_windows": (
            "WITH d AS (SELECT tokens, n_tok, "
            "CAST(regexp_extract(doc_id, '([0-9]+)$', 1) AS BIGINT) AS idx "
            f"FROM {corpus}), "
            "o AS (SELECT tokens, n_tok, coalesce(sum(n_tok + 1) OVER ("
            "ORDER BY idx ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS base "
            "FROM d), "
            "t AS (SELECT base, n_tok, tokens, "
            "unnest(generate_series(1, n_tok + 1)) AS i FROM o), "
            "tok AS (SELECT base + i - 1 AS pos, "
            "CASE WHEN i <= n_tok THEN tokens[i::INT] ELSE 50256 END AS tk FROM t) "
            "SELECT (pos // 2048)::BIGINT AS window_id, count(*)::BIGINT AS n_tokens, "
            "sum((pos % 2048 + 1) * tk)::BIGINT AS checksum "
            "FROM tok GROUP BY window_id"
        ),
        "seqlen_quantiles": (
            "SELECT percentile_disc(0.25) WITHIN GROUP (ORDER BY n_tok)::BIGINT AS p25, "
            "percentile_disc(0.5)  WITHIN GROUP (ORDER BY n_tok)::BIGINT AS p50, "
            "percentile_disc(0.75) WITHIN GROUP (ORDER BY n_tok)::BIGINT AS p75, "
            "percentile_disc(0.9)  WITHIN GROUP (ORDER BY n_tok)::BIGINT AS p90, "
            "percentile_disc(0.99) WITHIN GROUP (ORDER BY n_tok)::BIGINT AS p99 "
            f"FROM {corpus}"
        ),
        "topk_similar": (
            "SELECT vec_id, CAST(row_number() OVER "
            f"(ORDER BY list_cosine_similarity(embedding, {ones}::DOUBLE[]) DESC, vec_id) "
            "AS BIGINT) AS rank FROM embeddings "
            f"ORDER BY list_cosine_similarity(embedding, {ones}::DOUBLE[]) DESC, vec_id LIMIT 10"
        ),
        # PQ is integer end-to-end past the int8 step, so BOTH the encode
        # (positional code checksum) and the ADC ranking replicate exactly
        # in SQL with the sf0.01-trained codebook/LUT inlined (the driver's
        # correctness gate runs at sf0.01; queries() trains per sf_dir and
        # the /tmp cache keeps the two sides on one codebook)
        # PII ops: pyarrow's regex engine IS RE2 (DuckDB's engine), so
        # counts and replacements are engine-identical by construction
        "pii_scan_docs": _pii.pii_scan_oracle_sql(_pii.synthesize_pii_sql()),
        "pii_redact_docs": _pii.pii_redact_oracle_sql(_pii.synthesize_pii_sql()),
        "url_scan_docs": _pii.url_scan_oracle_sql(_pii.synthesize_urls_sql()),
        "url_blocklist_docs": (
            "SELECT doc_id, url_blocked FROM ("
            + _pii.url_blocklist_oracle_sql(
                _URL_BLOCKLIST, _pii.synthesize_urls_sql()
            )
            + ")"
        ),
        "domain_counts_docs": _pii.domain_counts_oracle_sql(
            _pii.synthesize_urls_sql()
        ),
        "pq_codes": _ann.pq_codes_oracle_sql(_pq_codebook("/root/testdata/sf0.01")),
        "pq_topk_similar": _ann.pq_topk_oracle_sql(
            _pq_codebook("/root/testdata/sf0.01"), _query_vec(), k=10
        ),
        # full-probe IVF-PQ candidate set = whole corpus, so its ADC
        # ranking is exactly pq_topk's — same inlined-LUT oracle
        "ivfpq_topk_similar": _ann.pq_topk_oracle_sql(
            _pq_codebook("/root/testdata/sf0.01"), _query_vec(), k=10
        ),
        # full-probe IVF over the persisted bucket layout is exact, so the
        # brute-force ranking is its oracle (rank-match per VERDICT r1 #5)
        "ivf_topk_similar": (
            "SELECT vec_id, CAST(row_number() OVER "
            f"(ORDER BY list_cosine_similarity(embedding, {ones}::DOUBLE[]) DESC, vec_id) "
            "AS BIGINT) AS rank FROM embeddings "
            f"ORDER BY list_cosine_similarity(embedding, {ones}::DOUBLE[]) DESC, vec_id LIMIT 10"
        ),
        # append path probes the SAME union the one-shot index holds
        "ivf_append_topk": (
            "SELECT vec_id, CAST(row_number() OVER "
            f"(ORDER BY list_cosine_similarity(embedding, {ones}::DOUBLE[]) DESC, vec_id) "
            "AS BIGINT) AS rank FROM embeddings "
            f"ORDER BY list_cosine_similarity(embedding, {ones}::DOUBLE[]) DESC, vec_id LIMIT 10"
        ),
        "broadcast_join_orders": (
            "SELECT o_orderkey, o_custkey, o_totalprice, c_name, c_mktsegment "
            "FROM orders JOIN customer ON o_custkey = c_custkey"
        ),
        "bucket_join_lineitem": (
            "SELECT l_orderkey, l_linenumber, l_quantity, o_custkey, o_totalprice "
            "FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
        ),
        # losslessness pin: decode(encode(text)) must equal the table
        "bpe_roundtrip_docs": "SELECT doc_id, text FROM documents",
        # log-free rational-idf BM25: per-(doc,term) score is one IEEE
        # double expression in matching association order on both sides
        "bm25_multi_docs": _retrieval.bm25_multi_oracle_sql(
            "documents", queries=_BM25_QUERIES, top=15
        ),
        "phrase_count_docs": _retrieval.phrase_oracle_sql(
            "documents", phrase=_PHRASE
        ),
        # indexed path returns matching docs only
        "phrase_indexed_docs": (
            "SELECT * FROM ("
            + _retrieval.phrase_oracle_sql("documents", phrase=_PHRASE)
            + ") WHERE n_phrase > 0"
        ),
        "bm25_topk_docs": _retrieval.bm25_oracle_sql(
            "documents", terms=_BM25_TERMS, top=20
        ),
        # RRF = FULL OUTER join of the two ranked twins + integer // score
        "hybrid_rrf_docs": _retrieval.rrf_oracle_sql(
            _retrieval.bm25_oracle_sql("documents", terms=_BM25_TERMS, top=20),
            (
                "SELECT vec_id, CAST(row_number() OVER "
                f"(ORDER BY list_cosine_similarity(embedding, {ones}::DOUBLE[]) DESC, vec_id) "
                "AS BIGINT) AS rank FROM embeddings "
                f"ORDER BY list_cosine_similarity(embedding, {ones}::DOUBLE[]) DESC, "
                "vec_id LIMIT 20"
            ),
            k=10,
        ),
        # the indexed path must reproduce the direct pipeline exactly
        "bm25_indexed_docs": _retrieval.bm25_oracle_sql(
            "documents", terms=_BM25_TERMS, top=20
        ),
        # build-half + append-half must equal the one-shot build
        "bm25_append_docs": _retrieval.bm25_oracle_sql(
            "documents", terms=_BM25_TERMS, top=20
        ),
        # unrolled Lloyd iterations as CTE chains; integer-exact past the
        # shared int8 quantization rule
        "grouped_centroid_vecs": _cluster.grouped_centroid_oracle_sql(
            "embeddings"
        ),
        "kmeans_assign_vecs": _cluster.kmeans_oracle_sql(
            "embeddings", k=8, iters=2
        ),
        "cluster_sample_vecs": _cluster.cluster_balanced_oracle_sql(
            "embeddings", k=8, iters=2, per_cluster=20
        ),
        # EXISTS/NOT EXISTS (not IN/NOT IN): matches the engine's null-key
        # rule — semi drops null left keys, anti keeps them
        "semi_join_customer": (
            "SELECT c_custkey, c_name, c_acctbal FROM customer c "
            "WHERE EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)"
        ),
        "anti_join_customer": (
            "SELECT c_custkey, c_name, c_acctbal FROM customer c "
            "WHERE NOT EXISTS (SELECT 1 FROM events e WHERE e.user_id = c.c_custkey)"
        ),
        "full_join_orders_events": (
            "SELECT o.o_orderkey, o.o_custkey, o.o_totalprice, e.event_id "
            "FROM (SELECT * FROM orders WHERE o_custkey < 50) o "
            "FULL JOIN events e ON o.o_custkey = e.user_id"
        ),
        # as-of = latest order with o_orderdate <= event ts per user; ties
        # on the date break to the largest o_orderkey (joins.AsofJoiner)
        "profile_orders": """SELECT 'o_orderkey' AS col, count(*)::BIGINT AS cnt, (count(*) - count(o_orderkey))::BIGINT AS n_null, min(o_orderkey)::DOUBLE AS min_v, max(o_orderkey)::DOUBLE AS max_v, sum(o_orderkey)::DOUBLE AS sum_v FROM orders UNION ALL SELECT 'o_custkey' AS col, count(*)::BIGINT AS cnt, (count(*) - count(o_custkey))::BIGINT AS n_null, min(o_custkey)::DOUBLE AS min_v, max(o_custkey)::DOUBLE AS max_v, sum(o_custkey)::DOUBLE AS sum_v FROM orders UNION ALL SELECT 'o_totalprice' AS col, count(*)::BIGINT AS cnt, (count(*) - count(o_totalprice))::BIGINT AS n_null, min(o_totalprice)::DOUBLE AS min_v, max(o_totalprice)::DOUBLE AS max_v, sum(o_totalprice)::DOUBLE AS sum_v FROM orders UNION ALL SELECT 'o_orderdate' AS col, count(*)::BIGINT AS cnt, (count(*) - count(epoch_us(o_orderdate)))::BIGINT AS n_null, min(epoch_us(o_orderdate))::DOUBLE AS min_v, max(epoch_us(o_orderdate))::DOUBLE AS max_v, sum(epoch_us(o_orderdate))::DOUBLE AS sum_v FROM orders""",
        # interval grid built from the same fixed constants on both sides
        "range_join_events": (
            "WITH iv AS ("
            "  SELECT k AS interval_id,"
            f"        ({_RJ_BASE_US} + k * {_RJ_STEP_US})::BIGINT AS lo_us,"
            f"        ({_RJ_BASE_US} + k * {_RJ_STEP_US} + {_RJ_WIDTH_US})::BIGINT AS hi_us"
            f"  FROM (SELECT unnest(generate_series(0, {_RJ_N - 1})) AS k))"
            " SELECT e.event_id, iv.interval_id, iv.lo_us,"
            "        epoch_us(e.ts)::BIGINT AS ts_us"
            " FROM events e JOIN iv"
            "   ON epoch_us(e.ts) BETWEEN iv.lo_us AND iv.hi_us"
        ),
        "asof_join_events": (
            "SELECT event_id, user_id, epoch_us(ts) AS ts_us, "
            "o_orderkey, epoch_us(o_orderdate) AS o_date_us, o_totalprice FROM ("
            "  SELECT e.event_id, e.user_id, e.ts, o.o_orderkey, o.o_orderdate, o.o_totalprice, "
            "         ROW_NUMBER() OVER (PARTITION BY e.event_id "
            "           ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) rn "
            "  FROM events e JOIN orders o "
            "    ON e.user_id = o.o_custkey AND o.o_orderdate <= e.ts) WHERE rn = 1"
        ),
        "window_tumbling_events": (
            f"SELECT (epoch_us(ts) // {_WEEK_US}) * {_WEEK_US} AS w_us, event_type, "
            "COUNT(*)::BIGINT AS cnt, MIN(value) AS min_v, MAX(value) AS max_v "
            "FROM events GROUP BY 1, 2"
        ),
        "window_sliding_events": (
            "SELECT w_us, COUNT(*)::BIGINT AS cnt, MIN(value) AS min_v, MAX(value) AS max_v "
            f"FROM (SELECT unnest(generate_series(epoch_us(ts) // {_WEEK_US} - 2, "
            f"epoch_us(ts) // {_WEEK_US})) * {_WEEK_US} AS w_us, value FROM events) "
            "GROUP BY 1"
        ),
        "session_windows_events": (
            "WITH x AS (SELECT user_id, epoch_us(ts) t, event_id, "
            "  CASE WHEN lag(epoch_us(ts)) OVER w IS NULL "
            f"         OR epoch_us(ts) - lag(epoch_us(ts)) OVER w > {_SESSION_GAP_US} "
            "       THEN 1 ELSE 0 END brk "
            "  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)), "
            "s AS (SELECT user_id, t, SUM(brk) OVER (PARTITION BY user_id "
            "      ORDER BY t, event_id ROWS UNBOUNDED PRECEDING) sid FROM x) "
            "SELECT user_id, sid::BIGINT AS session_id, COUNT(*)::BIGINT AS n_events, "
            "MIN(t)::BIGINT AS start_us, MAX(t)::BIGINT AS end_us "
            "FROM s GROUP BY 1, 2"
        ),
        "cumulative_window_events": _joins_mod.cumulative_window_oracle_sql("events"),
        "rolling_window_events": _joins_mod.rolling_window_oracle_sql(
            "events", window_rows=5
        ),
        "rolling_time_events": _joins_mod.rolling_time_oracle_sql(
            "events", range_us=5_000_000
        ),
        "lag_gap_events": _joins_mod.lag_gap_oracle_sql("events"),
        # ROLLUP: leaf + per-type totals + grand total, NULL = rolled level
        "events_rollup": (
            "SELECT event_type, year(ts)::BIGINT AS y, count(*)::BIGINT AS cnt "
            "FROM events GROUP BY ROLLUP(event_type, y)"
        ),
        "ndiff_lineitem": (
            "SELECT l_orderkey, l_linenumber, "
            "CASE WHEN l_discount + l_tax = 0 THEN 0.0 "
            "ELSE (l_discount - l_tax) / (l_discount + l_tax) END AS ndiff "
            "FROM lineitem"
        ),
        "events_type_stats": (
            "SELECT event_type, COUNT(*)::BIGINT AS cnt, "
            "MIN(value) AS min_v, MAX(value) AS max_v "
            "FROM events GROUP BY event_type"
        ),
        "range_read_ntok": (
            stats_sql + f" WHERE n_tok BETWEEN {NTOK_LO} AND {NTOK_HI}"
        ),
        "manifest_totals": (
            "SELECT COUNT(*)::BIGINT AS total_rows, "
            "SUM(n_tok)::BIGINT AS total_values, "
            "SUM(list_sum(tokens))::BIGINT AS values_sum, "
            "MIN(list_min(tokens))::BIGINT AS values_min, "
            "MAX(list_max(tokens))::BIGINT AS values_max "
            f"FROM {corpus}"
        ),
        "events_yearly": (
            "SELECT CAST(YEAR(ts) AS BIGINT) AS y, event_type, "
            "COUNT(*)::BIGINT AS cnt FROM events GROUP BY 1, 2"
        ),
        # multimodal fake-decode oracles: payloads are printable ASCII, so
        # DuckDB sha256(decode(payload)) == hashlib.sha256(payload bytes);
        # hex pairs are turned into byte values with strpos arithmetic
        "multimodal_feature_sums": (
            "SELECT media_id, "
            f"CAST(list_sum(list_transform(generate_series(0,31), i -> {_HEXPAIR})) AS BIGINT) AS feat_sum, "
            f"CAST({_HEXPAIR0} AS BIGINT) AS feat_first "
            "FROM (SELECT media_id, sha256(decode(payload)) AS d "
            f"FROM read_parquet('{_media_path(MEDIA_FEAT_ROWS)}'))"
        ),
        # REAL PNG/PGM decode oracle: the SQL side never touches the
        # payload — it recomputes strip sums from the independently
        # persisted pixel list, so a hash match proves the dependency-free
        # decoder reproduced the original pixels exactly
        "png_strip_sums": (
            "SELECT media_id, CAST(((ord-1)*16)//L AS INTEGER) AS strip, "
            "CAST(SUM(val) AS BIGINT) AS strip_sum "
            "FROM (SELECT media_id, unnest(pixels) AS val, "
            "generate_subscripts(pixels,1) AS ord, len(pixels) AS L "
            f"FROM read_parquet('{_png_media_path(MEDIA_FEAT_ROWS)}')) "
            "GROUP BY media_id, strip"
        ),
        # REAL GIF decode oracle: pixels = the numpy-computed expected
        # composite (palette gathers + transparency rank arithmetic),
        # independent of the container/LZW parse under test
        "gif_strip_sums": (
            "SELECT media_id, CAST(((ord-1)*16)//L AS INTEGER) AS strip, "
            "CAST(SUM(val) AS BIGINT) AS strip_sum "
            "FROM (SELECT media_id, unnest(pixels) AS val, "
            "generate_subscripts(pixels,1) AS ord, len(pixels) AS L "
            f"FROM read_parquet('{_gif_media_path(MEDIA_FEAT_ROWS)}')) "
            "GROUP BY media_id, strip"
        ),
        # REAL baseline-JPEG decode oracle: same pattern — the pixels
        # column is the encoder's mathematically-forced decode, persisted
        # independently of the payload bytes the decoder parses
        "jpeg_strip_sums": (
            "SELECT media_id, CAST(((ord-1)*16)//L AS INTEGER) AS strip, "
            "CAST(SUM(val) AS BIGINT) AS strip_sum "
            "FROM (SELECT media_id, unnest(pixels) AS val, "
            "generate_subscripts(pixels,1) AS ord, len(pixels) AS L "
            f"FROM read_parquet('{_jpeg_media_path(MEDIA_FEAT_ROWS)}')) "
            "GROUP BY media_id, strip"
        ),
        # progressive (SOF2) + multi-scan sequential decode against the
        # independently persisted forced-decode pixels
        "jpeg_progressive_sums": (
            "SELECT media_id, CAST(((ord-1)*16)//L AS INTEGER) AS strip, "
            "CAST(SUM(val) AS BIGINT) AS strip_sum "
            "FROM (SELECT media_id, unnest(pixels) AS val, "
            "generate_subscripts(pixels,1) AS ord, len(pixels) AS L "
            f"FROM read_parquet('{_pjpeg_media_path(MEDIA_FEAT_ROWS)}')) "
            "GROUP BY media_id, strip"
        ),
        # REAL MJPEG-AVI decode oracle: every 2nd frame's pixel sum from
        # the persisted forced-decode frame_sums column
        "mjpeg_frame_sums": (
            "SELECT media_id, CAST(ord - 1 AS INTEGER) AS frame_index, "
            "fsum AS frame_pixel_sum "
            "FROM (SELECT media_id, unnest(frame_sums) AS fsum, "
            "generate_subscripts(frame_sums, 1) AS ord "
            f"FROM read_parquet('{_mjpeg_media_path(MEDIA_FRAME_ROWS)}')) "
            "WHERE (ord - 1) % 2 = 0"
        ),
        # lossy-VP8 webp decode oracle: pixels = the reference decoder's
        # reconstruction persisted at fixture-build time (lossy decode has
        # no independent closed form; this pins the distributed plumbing)
        "webp_lossy_strip_sums": (
            "SELECT media_id, CAST(((ord-1)*16)//L AS INTEGER) AS strip, "
            "CAST(SUM(val) AS BIGINT) AS strip_sum "
            "FROM (SELECT media_id, unnest(pixels) AS val, "
            "generate_subscripts(pixels,1) AS ord, len(pixels) AS L "
            f"FROM read_parquet('{_webp_lossy_media_path(MEDIA_FEAT_ROWS)}')) "
            "GROUP BY media_id, strip"
        ),
        # REAL WebP-VP8L decode oracle: pixels = the lossless source image
        "webp_strip_sums": (
            "SELECT media_id, CAST(((ord-1)*16)//L AS INTEGER) AS strip, "
            "CAST(SUM(val) AS BIGINT) AS strip_sum "
            "FROM (SELECT media_id, unnest(pixels) AS val, "
            "generate_subscripts(pixels,1) AS ord, len(pixels) AS L "
            f"FROM read_parquet('{_webp_media_path(MEDIA_FEAT_ROWS)}')) "
            "GROUP BY media_id, strip"
        ),
        # animated GIF: same frame-sum shape over the composited frames
        "gif_frame_sums": (
            "SELECT media_id, CAST(ord - 1 AS INTEGER) AS frame_index, "
            "fsum AS frame_pixel_sum "
            "FROM (SELECT media_id, unnest(frame_sums) AS fsum, "
            "generate_subscripts(frame_sums, 1) AS ord "
            f"FROM read_parquet('{_gif_anim_path(MEDIA_FRAME_ROWS)}')) "
            "WHERE (ord - 1) % 2 = 0"
        ),
        # ANIMATED-WebP compositing oracle: VP8L is lossless and frames
        # replace in place, so composited canvas i == source frame i
        "webp_frame_sums": (
            "SELECT media_id, CAST(ord - 1 AS INTEGER) AS frame_index, "
            "fsum AS frame_pixel_sum "
            "FROM (SELECT media_id, unnest(frame_sums) AS fsum, "
            "generate_subscripts(frame_sums, 1) AS ord "
            f"FROM read_parquet('{_webp_anim_path(MEDIA_FRAME_ROWS)}')) "
            "WHERE (ord - 1) % 2 = 0"
        ),
        # REAL WAV decode oracle: the SQL side regenerates the exact
        # integer sample stream from (audio_key, n_samples) — a hash match
        # proves the RIFF/PCM parse reproduced every 16-bit sample
        "wav_stats": (
            "SELECT media_id, n_samples::BIGINT AS n_samples, "
            "16000::BIGINT AS sample_rate, "
            "sum(abs(s))::BIGINT AS amp_l1, "
            "sum((i + 1) * s)::BIGINT AS amp_checksum "
            "FROM (SELECT media_id, n_samples, "
            "unnest(generate_series(0, n_samples::INT - 1)) AS i, audio_key "
            f"FROM read_parquet('{_wav_media_path(MEDIA_FEAT_ROWS)}')), "
            "LATERAL (SELECT ((audio_key*7919 + i*i*31 + i*991) % 65536) - 32768 AS s) "
            "GROUP BY media_id, n_samples"
        ),
        # VAD twin: regenerate the exact sample stream, replay the frame
        # gate (sum|s| >= T * frame_len) and the maximal-run fold with
        # window functions; the checksum pins every segment boundary
        "wav_vad_segments": (
            "WITH base AS (SELECT media_id, audio_key, n_samples::BIGINT AS n_samples "
            f"FROM read_parquet('{_wav_media_path(MEDIA_FEAT_ROWS)}')), "
            "s AS (SELECT media_id, i, "
            "((audio_key*7919 + i*i*31 + i*991) % 65536) - 32768 AS v "
            "FROM (SELECT media_id, audio_key, "
            "unnest(generate_series(0, n_samples::INT - 1)) AS i FROM base)), "
            "f AS (SELECT media_id, i // 256 AS fi, "
            "(sum(abs(v)) >= 16384 * count(*)) AS act FROM s GROUP BY media_id, i // 256), "
            "r AS (SELECT media_id, fi, act, CASE WHEN act AND NOT "
            "coalesce(lag(act) OVER (PARTITION BY media_id ORDER BY fi), FALSE) "
            "THEN 1 ELSE 0 END AS st FROM f), "
            "g AS (SELECT media_id, fi, act, "
            "sum(st) OVER (PARTITION BY media_id ORDER BY fi) AS seg FROM r), "
            "segs AS (SELECT media_id, seg, min(fi) AS s0, count(*)::BIGINT AS ln "
            "FROM g WHERE act GROUP BY media_id, seg), "
            "agg AS (SELECT media_id, count(*)::BIGINT AS n_segments, "
            "sum((s0 + 1) * 1048573 + ln)::BIGINT AS vad_checksum FROM segs GROUP BY media_id), "
            "acts AS (SELECT media_id, count(*)::BIGINT AS n_frames, "
            "coalesce(sum(CASE WHEN act THEN 1 ELSE 0 END), 0)::BIGINT AS n_active "
            "FROM f GROUP BY media_id) "
            "SELECT b.media_id, coalesce(acts.n_frames, 0) AS n_frames, "
            "coalesce(acts.n_active, 0) AS n_active, "
            "coalesce(agg.n_segments, 0) AS n_segments, "
            "coalesce(agg.vad_checksum, 0) AS vad_checksum "
            "FROM base b LEFT JOIN acts ON acts.media_id = b.media_id "
            "LEFT JOIN agg ON agg.media_id = b.media_id"
        ),
        "frame_sample": (
            "WITH m AS (SELECT media_id, decode(payload) AS p, n_frames, "
            "GREATEST(length(decode(payload)) // GREATEST(n_frames, 1), 1) AS fs "
            f"FROM read_parquet('{_media_path(MEDIA_FRAME_ROWS)}')), "
            "f AS (SELECT media_id, fs, p, unnest(range(0, n_frames, 10)) AS fi FROM m), "
            "h AS (SELECT media_id, fi, sha256(substr(p, fi*fs+1, fs)) AS d FROM f) "
            "SELECT media_id, CAST(fi AS INTEGER) AS frame_index, "
            f"CAST(list_sum(list_transform(generate_series(0,7), i -> ({_HEXPAIR})::HUGEINT "
            "* ([1,256,65536,16777216,4294967296,1099511627776,281474976710656,"
            "72057594037927936][i+1])::HUGEINT)) // 2 AS BIGINT) AS frame_hash "
            "FROM h"
        ),
        # first-partition point lookup with a per-row token checksum; the
        # plan is a pure function of (sorted inputs, PART_BYTES), so the
        # partition's row count is recomputed here from metadata alone
        "point_lookup_stats": _point_lookup_oracle(),
        # order-sensitive checksum: catches any in-row permutation the
        # multiset-style sums cannot
        "token_posweight": (
            "SELECT doc_id, n_tok, source, "
            "coalesce(list_sum(list_transform(generate_series(1, len(tokens)), "
            "i -> (i-1)::BIGINT * tokens[i]::BIGINT)), 0)::BIGINT AS posw "
            f"FROM {corpus}"
        ),
    }
