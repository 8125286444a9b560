"""Partition encode/decode kernels + Ray Data stage callables.

One *partition* (a contiguous row range of one input shard, or one
(source, salt) group) becomes ONE row of the encoded table:

    partition_id: uint64   -- lineage key (functions/partition_keys.py);
                              the `block` column analogue
                              (/root/reference/CLAUDE.md:41-43)
    n_rows:       int64
    codec_meta:   string   -- JSON {column: descriptor}; the per-row
                              metadata the reference broadcasts from its
                              block=0 row (raquet_extension.cpp:36-45) —
                              ours rides along per partition row, so a
                              partition decodes from (row, nothing else)
    col_<name>:   binary   -- one self-contained blob per source column
                              (the band_1..band_N blobs analogue,
                              read_raster.cpp:1068-1077)

The pipeline stages (pipelines/encode.py, pipelines/decode.py) run this
module's functions as Ray tasks (util.map_stage); per-process state — the
retained heap (util.retain_heap) — is module-level, the reference's
lazily-initialized per-thread state (read_raster.cpp:264-286).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pyarrow as pa

from .. import blockcodec as bc
from .. import planner

ENCODED_FIXED_COLS = ("partition_id", "n_rows", "codec_meta")


def read_projection(columns: list[str] | None) -> list[str] | None:
    """Parquet column selection for an encoded file: fixed columns + the
    requested blobs (un-requested blobs are never read)."""
    if columns is None:
        return None
    return list(ENCODED_FIXED_COLS) + [f"col_{c}" for c in columns]


def _stat_col_names(schema: pa.Schema) -> list[str]:
    """Columns that get stat_<name>_{count,min,max} companions: integer
    and list<integer> source columns (mirrors column_stats coverage)."""
    out = []
    for f in schema:
        t = f.type
        if pa.types.is_list(t) or pa.types.is_large_list(t):
            t = t.value_type
        if pa.types.is_integer(t):
            out.append(f.name)
    return out


def _collect_fsst_hashes(desc: dict, out: list[str]) -> None:
    if desc.get("codec") == "fsst" and "fsst" in desc:
        out.append(desc["fsst"]["table_hash"])
    for key in ("child", "dictionary", "lengths", "plane", "indices", "fsst"):
        sub = desc.get(key)
        if isinstance(sub, dict):
            _collect_fsst_hashes(sub, out)


def _codec_summary(desc: dict) -> str:
    c = desc.get("codec", desc.get("kind", "?"))
    if desc.get("kind") == "list":
        return f"list<{_codec_summary(desc['child'])}>"
    return c


def column_stats(table: pa.Table) -> dict[str, dict]:
    """Per-column {count,min,max,sum} plus sampled top-10 values and
    decile quantiles for integer (and list<integer>)
    columns — the reference's optional pre-computed per-tile stats columns
    (/root/reference/src/read_raster.cpp:1079-1090), recorded in the
    manifest entry so scans that only need stats never decode a blob
    (the ST_RasterSummaryStats precomputed-passthrough,
    st_raster_stats.cpp:351-402). Arrow SIMD kernels; adds ~2 cheap
    passes per column."""
    import pyarrow.compute as pc

    stats: dict[str, dict] = {}
    for name in table.column_names:
        col = table.column(name)
        t = col.type
        if pa.types.is_list(t) or pa.types.is_large_list(t):
            col = bc.one_chunk(col).flatten()
            t = col.type
        if not pa.types.is_integer(t):
            continue
        n_valid = len(col) - col.null_count
        if n_valid == 0:
            stats[name] = {"count": 0, "min": None, "max": None, "sum": 0}
            continue
        mm = pc.min_max(col)
        if pa.types.is_uint64(t):
            # arrow's unsigned sum wraps mod 2^64 silently; split into
            # 32-bit halves summed in int64 (exact for < 2^31 rows)
            v = col.drop_null().to_numpy(zero_copy_only=False)
            total = int(
                int((v >> np.uint64(32)).astype(np.int64).sum()) * (1 << 32)
                + int((v & np.uint64(0xFFFFFFFF)).astype(np.int64).sum())
            )
        else:
            total = int(pc.sum(col).as_py())
        s = {
            "count": n_valid,
            "min": mm["min"].as_py(),
            "max": mm["max"].as_py(),
            "sum": total,
        }
        # deterministic stride sample -> top-10 values + decile quantiles,
        # the reference's approx per-band sample statistics
        # (band_stats_v01.cpp:104-181: fixed-seed 1000-value sample feeding
        # top_values and quantile keys); ours is a fixed-stride sample so
        # resumed runs reproduce it bit-exactly
        vals = col.drop_null().to_numpy(zero_copy_only=False)
        if len(vals) > 4096:
            vals = vals[:: len(vals) // 4096]
        if len(vals):
            uniq, counts = np.unique(vals, return_counts=True)
            order = np.lexsort((uniq, -counts))[:10]
            s["top_values"] = [[int(uniq[i]), int(counts[i])] for i in order]
            qs = np.quantile(vals, np.linspace(0.1, 0.9, 9), method="nearest")
            s["quantiles"] = [int(q) for q in qs]
        stats[name] = s
    return stats


def source_rollup_partial(
    table: pa.Table, group_col: str = "source", value_col: str = "n_tok"
) -> list[dict] | None:
    """Per-source partials of ``value_col`` within ONE partition — the base
    level of the overview-pyramid analogue (the reference precomputes
    multi-resolution overviews at ingest so coarse queries never touch
    native-resolution data, read_raster.cpp:1313-1438). Folded across
    partitions at manifest finalize into per-source ROLLUP rows, so a
    corpus-health query is O(sources) metadata reads, re-aggregating
    neither rows nor per-partition partials."""
    if group_col not in table.column_names or value_col not in table.column_names:
        return None
    import pandas as pd

    df = pd.DataFrame(
        {
            "g": table.column(group_col).to_pandas(),
            "v": table.column(value_col).to_pandas(),
        }
    )
    # SQL-aggregate semantics (the rollup answers COUNT(*)/SUM/MIN/MAX
    # queries): count = ALL rows including null values; sum/min/max skip
    # nulls and are null for an all-null group — pandas' 'count' counts
    # only non-null and int() on an all-null group's NaN min would crash
    # the encode job
    agg = df.groupby("g", dropna=False)["v"].agg(["size", "sum", "min", "max"])
    rows = []
    for g, r in agg.iterrows():
        all_null = pd.isna(r["min"])
        rows.append(
            {
                "source": None if pd.isna(g) else str(g),
                "count": int(r["size"]),
                "sum": None if all_null else int(r["sum"]),
                "min": None if all_null else int(r["min"]),
                "max": None if all_null else int(r["max"]),
            }
        )
    rows.sort(key=lambda r: (r["source"] is None, r["source"]))
    return rows


def encode_table(
    table: pa.Table,
    pid: int,
    input_shard: str,
    row_range: tuple[int, int] | None = None,
    plan: dict | None = None,
) -> tuple[pa.Table, dict]:
    """Encode one partition -> (one-row encoded table, manifest entry)."""
    plan = plan or planner.plan_table(table)
    descs: dict[str, dict] = {}
    blobs: dict[str, bytes] = {}
    fsst_hashes: list[str] = []
    for name in table.column_names:
        blob, desc = bc.encode_array(table.column(name), plan[name])
        blobs[name] = blob
        descs[name] = desc
        _collect_fsst_hashes(desc, fsst_hashes)
    # NOTE: no sort_keys — key order IS the column order on decode
    meta_json = json.dumps(descs)
    stats = column_stats(table)
    cols: dict[str, pa.Array] = {
        "partition_id": pa.array([pid], type=pa.uint64()),
        "n_rows": pa.array([table.num_rows], type=pa.int64()),
        "codec_meta": pa.array([meta_json], type=pa.string()),
    }
    for name, blob in blobs.items():
        cols[f"col_{name}"] = pa.array([blob], type=pa.binary())
    # per-column stats as REAL Parquet columns (one row per partition), the
    # reference's band_N_* stats columns (read_raster.cpp:1079-1090): any
    # plain Parquet engine gets zone-map pruning and the summary-stats
    # passthrough without our manifest
    I64_MAX = (1 << 63) - 1

    def _clamp(v):
        # uint64 values above int64 max clamp (bounds only get WIDER, so
        # zone-map pruning stays conservative instead of crashing)
        return None if v is None else min(int(v), I64_MAX)

    for name in _stat_col_names(table.schema):
        s = stats.get(name, {})
        cols[f"stat_{name}_count"] = pa.array([s.get("count", 0)], type=pa.int64())
        cols[f"stat_{name}_min"] = pa.array([_clamp(s.get("min"))], type=pa.int64())
        cols[f"stat_{name}_max"] = pa.array([_clamp(s.get("max"))], type=pa.int64())
    encoded = pa.table(cols)

    checksum = hashlib.sha256()
    for name in table.column_names:
        checksum.update(blobs[name])
    entry = {
        "partition_id": pid,
        "input_shard": input_shard,
        "row_range": list(row_range) if row_range else None,
        "n_rows": table.num_rows,
        "codecs": {name: _codec_summary(d) for name, d in descs.items()},
        "input_bytes": table.nbytes,
        "encoded_bytes": sum(len(b) for b in blobs.values()) + len(meta_json),
        "checksum": "sha256:" + checksum.hexdigest(),
        "stats": stats,
        "status": "done",
    }
    rollup = source_rollup_partial(table)
    if rollup is not None:
        entry["rollup"] = {"n_tok_by_source": rollup}
    if fsst_hashes:
        entry["fsst_symbol_table_hash"] = fsst_hashes[0] if len(fsst_hashes) == 1 else fsst_hashes
    return encoded, entry


def blob_view(batch: pa.Table, name: str, i: int) -> memoryview:
    """Row ``i``'s ``col_<name>`` blob as a zero-copy view of its Arrow
    buffer, read as unsigned bytes ('B'; a pyarrow buffer exports 'b'): the
    codecs slice and read a blob, so section slices stay views, not copies."""
    return memoryview(batch.column(f"col_{name}")[i].as_buffer()).cast("B")


def decode_rows(batch: pa.Table, columns: list[str] | None = None) -> pa.Table:
    """Decode a batch of encoded partition rows back to original rows —
    also encode_batch's inverse as a stateless ``map_batches`` stage."""
    out: list[pa.Table] = []
    metas = batch.column("codec_meta").to_pylist()
    for i in range(batch.num_rows):
        descs = json.loads(metas[i])
        names = [c for c in descs if columns is None or c in columns]
        out.append(pa.table(
            {name: bc.decode_array(blob_view(batch, name, i), descs[name]) for name in names}
        ))
    return pa.concat_tables(out)


def encode_batch(batch: pa.Table, key_column: str | None = None) -> pa.Table:
    """Dataset-in/dataset-out encoder stage (stateless task — use with
    ``map_batches(functools.partial(encode_batch, ...))``): each input batch
    becomes one encoded partition row. Partition ids here are
    content-derived (stable hash of the first doc key + row count) because
    Ray's batch boundaries are not topology-deterministic — use the
    file-writing job (pipelines/encode.py) when exact lineage/resume is
    required. Never called on an empty batch: Ray runs no map_batches UDF
    on an empty block."""
    key_col = key_column or batch.column_names[0]
    first = str(batch.column(key_col)[0].as_py())
    h = hashlib.sha256(f"{first}:{batch.num_rows}".encode())
    # content-fold: with Ray's fixed batch_size every batch has the same
    # row count, so (first key, rows) alone collides whenever a key
    # repeats at batch heads. Fold the IPC-serialized batch bytes — NOT
    # the raw Arrow buffers: Ray's Batcher slices oversized blocks with
    # copy=False, and zero-copy slices share the parent block's buffers
    # verbatim, so buffer-hashing would fold identical bytes for every
    # slice and the collision would survive. IPC serialization truncates
    # to the slice, making the fold slice-respecting.
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, batch.schema) as w:
        w.write_table(batch)
    h.update(sink.getvalue())
    pid = int.from_bytes(h.digest()[:8], "little") >> 1  # keep mode bit clear
    encoded, _ = encode_table(batch, pid, input_shard="<stream>")
    return encoded
