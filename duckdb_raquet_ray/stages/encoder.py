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
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import blockcodec as bc
from .. import planner

ENCODED_FIXED_COLS = ("partition_id", "n_rows", "codec_meta")


def _fixed_width(t: pa.DataType) -> int | None:
    """Byte width of a one-buffer fixed-width type, else None."""
    if pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_temporal(t):
        return t.bit_width // 8 if t.bit_width % 8 == 0 else None
    return None


def _n_leaves(t: pa.DataType) -> int:
    """Parquet leaf columns a field of type ``t`` stores."""
    if pa.types.is_struct(t):
        return sum(_n_leaves(t.field(i).type) for i in range(t.num_fields))
    if pa.types.is_map(t):
        return _n_leaves(t.key_type) + _n_leaves(t.item_type)
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t):
        return _n_leaves(t.value_type)
    return 1


class _Bitmap:
    """Validity of a column being built, allocated at the column's full
    length the first time a row-group array carries a validity buffer:
    the Parquet reader attaches all-valid bitmaps to nullable columns, and
    ``nbytes`` (a manifest entry's ``input_bytes``) counts them. Starts
    all-valid; a copied array with nulls clears its null bits."""

    def __init__(self, cap: int):
        self.cap = cap
        self.buf = None

    def add(self, arr: pa.Array, pos: int) -> None:
        if arr.buffers()[0] is None:
            return
        if self.buf is None:
            self.buf = pa.allocate_buffer((self.cap + 7) // 8)
            np.frombuffer(self.buf, np.uint8)[:] = 0xFF
        if arr.null_count:
            src = np.frombuffer(arr.buffers()[0], np.uint8)
            bits = np.unpackbits(src, count=arr.offset + len(arr), bitorder="little")
            nulls = pos + np.flatnonzero(bits[arr.offset:] == 0)
            clear = np.invert(np.left_shift(1, nulls & 7).astype(np.uint8))
            np.bitwise_and.at(np.frombuffer(self.buf, np.uint8), nulls >> 3, clear)

    def finish(self, n: int) -> pa.Buffer | None:
        if self.buf is None:
            return None
        if n % 8:  # bits past the last value stay clear
            np.frombuffer(self.buf, np.uint8)[n // 8] &= (1 << (n % 8)) - 1
        return self.buf.slice(0, (n + 7) // 8)


class _FixedColumn:
    """A fixed-width column copied into one buffer of ``cap`` values."""

    def __init__(self, t: pa.DataType, cap: int):
        self.type, self.width = t, _fixed_width(t)
        self.data = pa.allocate_buffer(cap * self.width)
        self.valid = _Bitmap(cap)
        self.n = 0

    def add(self, arr: pa.Array) -> None:
        w, k = self.width, len(arr)
        if k:
            src = np.frombuffer(arr.buffers()[1], np.uint8, count=(arr.offset + k) * w)
            np.frombuffer(self.data, np.uint8)[self.n * w:(self.n + k) * w] = src[arr.offset * w:]
        self.valid.add(arr, self.n)
        self.n += k

    def finish(self) -> pa.Array:
        return pa.Array.from_buffers(
            self.type, self.n, [self.valid.finish(self.n), self.data.slice(0, self.n * self.width)],
            null_count=-1,
        )


class _ListColumn:
    """A ``list``/``large_list`` of fixed-width values: offsets sized from
    the row count, values from the leaf chunks' ``num_values`` (an upper
    bound: empty and null lists take a level but no value)."""

    def __init__(self, t: pa.DataType, rows: int, values: int):
        self.type = t
        self.off_dt = np.int64 if pa.types.is_large_list(t) else np.int32
        self.offsets = pa.allocate_buffer((rows + 1) * np.dtype(self.off_dt).itemsize)
        np.frombuffer(self.offsets, self.off_dt)[0] = 0
        self.child = _FixedColumn(t.value_type, values)
        self.valid = _Bitmap(rows)
        self.n = 0

    def add(self, arr: pa.Array) -> None:
        k = len(arr)
        if not k:
            return
        offs = np.frombuffer(arr.buffers()[1], self.off_dt, count=arr.offset + k + 1)[arr.offset:]
        lo = int(offs[0])
        dst = np.frombuffer(self.offsets, self.off_dt)[self.n + 1:self.n + k + 1]
        np.subtract(offs[1:], lo - self.child.n, out=dst)
        self.child.add(arr.values.slice(lo, int(offs[-1]) - lo))
        self.valid.add(arr, self.n)
        self.n += k

    def finish(self) -> pa.Array:
        offsets = self.offsets.slice(0, (self.n + 1) * np.dtype(self.off_dt).itemsize)
        return pa.Array.from_buffers(
            self.type, self.n, [self.valid.finish(self.n), offsets],
            null_count=-1, children=[self.child.finish()],
        )


class _ConcatColumn:
    """A flat string or binary column: its row-group arrays, concatenated
    at the end (the reader gives them a bitmap only where there are nulls,
    and so does the concat)."""

    def __init__(self):
        self.chunks: list[pa.Array] = []

    def add(self, arr: pa.Array) -> None:
        self.chunks.append(arr)

    def finish(self) -> pa.Array:
        return pa.concat_arrays(self.chunks)


def read_partition(shard: str, row_groups: list[int]) -> pa.Table:
    """Read one planned row-group range of ``shard``; the result equals
    ``read_row_groups(row_groups)`` and has the same ``nbytes``.

    Fixed-width, list-of-fixed-width and flat string/binary columns are
    read one row group at a time and copied into buffers allocated once at
    the partition's size (strings: concatenated), so their peak is the
    result plus one row group: the bulk read builds a list column with
    per-value level buffers and growing buffers, ~3x the result at its
    peak. Other types (bool, nested, dictionary) are read whole: a concat
    of their row-group arrays would drop the all-valid bitmaps the reader
    gives them and merge a dictionary column's per-row-group chunks, and
    so move ``nbytes``."""
    pf = pq.ParquetFile(shard)
    md, schema = pf.metadata, pf.schema_arrow
    rows = sum(md.row_group(rg).num_rows for rg in row_groups)
    built, leaf = {}, 0
    for field in schema:
        t = field.type
        if _fixed_width(t):
            built[field.name] = _FixedColumn(t, rows)
        elif (pa.types.is_list(t) or pa.types.is_large_list(t)) and _fixed_width(t.value_type):
            values = sum(md.row_group(rg).column(leaf).num_values for rg in row_groups)
            built[field.name] = _ListColumn(t, rows, values)
        elif (pa.types.is_string(t) or pa.types.is_large_string(t)
              or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
            built[field.name] = _ConcatColumn()
        leaf += _n_leaves(t)
    # single-threaded reads: each task owns its CPUs; pyarrow's default
    # thread pool is sized to the whole machine, and N tasks x N arrow
    # threads thrash the scheduler at high concurrency
    for rg in row_groups if built else ():
        part = pf.read_row_groups([rg], columns=list(built), use_threads=False)
        for name, col in built.items():
            for arr in part.column(name).chunks:
                col.add(arr)
        del part  # free this row group before the next one is read
    rest = [f.name for f in schema if f.name not in built]
    whole = pf.read_row_groups(row_groups, columns=rest, use_threads=False) if rest else None
    return pa.Table.from_arrays(
        [built[f.name].finish() if f.name in built else whole.column(f.name) for f in schema],
        schema=schema,
    )


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
    # SQL-aggregate semantics (the rollup answers COUNT(*)/SUM/MIN/MAX
    # queries): count = ALL rows including null values, null keys form one
    # group; sum/min/max skip nulls and are null for an all-null group.
    # Grouped with numpy ufunc.at over dictionary codes: Arrow's own
    # Table.group_by runs on Acero, whose libraries stay resident in every
    # encode worker after the first call (~5 MB)
    keys = pc.dictionary_encode(table.column(group_col).combine_chunks())
    k = len(keys.dictionary)
    gid = pc.fill_null(keys.indices, k).to_numpy()  # null keys: group k
    v = table.column(value_col).combine_chunks()
    g_ok = gid[pc.is_valid(v).to_numpy(zero_copy_only=False)]
    vals = pc.drop_null(v).to_numpy()
    count = np.bincount(gid, minlength=k + 1)
    has = np.bincount(g_ok, minlength=k + 1) > 0
    sums = np.zeros(k + 1, dtype=np.result_type(vals.dtype, np.int64))
    # cast first: ufunc.at takes its fast path only when the dtypes match
    # (25x on 20k int32 values)
    np.add.at(sums, g_ok, vals.astype(sums.dtype))
    mins = np.zeros(k + 1, dtype=vals.dtype)
    mins[g_ok] = vals  # any member value seeds its group's min and max
    maxs = mins.copy()
    np.minimum.at(mins, g_ok, vals)
    np.maximum.at(maxs, g_ok, vals)
    names = keys.dictionary.to_pylist() + [None]
    rows = [
        {
            "source": None if names[i] is None else str(names[i]),
            "count": int(count[i]),
            "sum": int(sums[i]) if has[i] else None,
            "min": int(mins[i]) if has[i] else None,
            "max": int(maxs[i]) if has[i] else None,
        }
        for i in np.flatnonzero(count)
    ]
    rows.sort(key=lambda r: (r["source"] is None, r["source"]))
    return rows


def encode_table(
    table: pa.Table,
    pid: int,
    input_shard: str,
    row_range: tuple[int, int] | None = None,
    plan: dict | None = None,
) -> tuple[pa.Table, dict]:
    """Encode one partition -> (one-row encoded table, manifest entry).

    The entry's ``input_bytes`` is ``table.nbytes``: the Arrow buffer size
    of the rows as the Parquet reader lays them out, validity bitmaps
    included (it attaches all-valid ones to nullable fixed-width columns
    and list children), so the same rows laid out otherwise — a slice of
    a sorted table, or a concat that drops an all-valid bitmap — report
    another figure."""
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
        # a view of the blob's own bytes: pa.array([blob]) would copy it
        offsets = pa.py_buffer(np.array([0, len(blob)], np.int32))
        cols[f"col_{name}"] = pa.Array.from_buffers(
            pa.binary(), 1, [None, offsets, pa.py_buffer(blob)])
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
