"""Decode/read side: encoded partition dir -> Dataset of original rows.

The read_raquet family re-expressed (SURVEY.md §2.1):

  read_encoded(dir)                     ~ read_raquet(file)
                                          (/root/reference/src/raquet_extension.cpp:36-45)
  read_encoded(dir, partition_ids=...)  ~ spatial-filtered read: driver
                                          computes the wanted id set, only
                                          those part files are opened
                                          (raquet_extension.cpp:49-81 ->
                                          partition pruning at the file level)
  read_encoded(dir, columns=[...])      ~ band projection: blobs are one
                                          binary column per source column,
                                          so Parquet column pruning skips
                                          un-requested blobs entirely
  point_lookup(dir, pid)                ~ read_raquet_at point query
                                          (raquet_extension.cpp:215-263):
                                          one file, one row group, ~one blob
  verify_job(...)                       ~ the round-trip invariant gate
                                          (st_value_mask.cpp:100-114 decode->
                                          encode->decode closure), run as an
                                          embarrassingly parallel comparison

The metadata broadcast pattern: manifest.json is loaded ONCE on the driver
and passed into the decode stage's constructor arguments — the
broadcast-small-side join of the reference's metadata row
(raquet_extension.cpp:40-44), never a shuffle.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from .. import blockcodec as bc
from ..functions import partition_keys as pk
from ..pipelines import transforms as tr
from ..stages import encoder as enc
from ..util import default_concurrency, map_stage, retain_heap
from ..state import fsio
from ..state import manifest as mf
from .encode import plan_partitions, recorded_shard_order


def encoded_part_files(out_dir: str, partition_ids: list[int] | None = None) -> list[str]:
    """Resolve partition files from the manifest (falling back to listdir),
    sorted by partition id — ordered by key by construction."""
    try:
        meta = mf.load_metadata(out_dir)
        pids = meta["partition_ids"]
    except FileNotFoundError:
        pids = sorted(mf.done_partition_ids(out_dir))
    if partition_ids is not None:
        wanted = set(partition_ids)
        pids = [p for p in pids if p in wanted]
    return [os.path.join(out_dir, pk.part_file_name(p)) for p in pids]


def files_per_task(n_files: int, concurrency: int | tuple[int, int] | None) -> int:
    """The scan-sizing rule of every encoded-dir scan (read_encoded,
    read_encoded_token_stats): several files per task, because per-task
    dispatch (~tens of ms) dominates small column-pruned reads when every
    file is its own task, yet about 4 waves of tasks, so they still
    pipeline: ceil(files / (4 * tasks)), capped at 8. Up to 4 files per
    task slot this is 1 file per task."""
    tasks = concurrency[1] if isinstance(concurrency, tuple) else (
        concurrency or default_concurrency())
    return max(1, min(8, -(-n_files // (4 * max(tasks, 1)))))


def _scan(files: list[str], stage, kwargs: dict, concurrency) -> rd.Dataset:
    return map_stage([{"path": f} for f in files], stage, kwargs, concurrency=concurrency,
                     batch_size=files_per_task(len(files), concurrency))


class PartitionDecoder:
    """Decode stage, run as a task (util.map_stage, whose fusion barrier
    keeps it its own operator): a few partition files per input block
    (files_per_task) — read + decode in-process, so the large encoded blobs
    never round-trip through the object store; only the decoded rows enter
    plasma and stream on with backpressure. Every block it sees holds at
    least one path: Ray never calls a map_batches UDF on an empty
    block."""

    def __init__(self, columns: list[str] | None = None, schema=None, transform=None):
        # `schema` is ignored, not an option: it stays only while the
        # benchmark's in-process pass passes it (ROADMAP)
        self.columns = columns
        self.read_cols = enc.read_projection(columns)
        retain_heap()  # see encode.EncodeStage / util.retain_heap
        # compute pushdown: apply a batch transform to each decoded
        # partition IN the decode task, so only the transform's output
        # (often per-row stats or an aggregate — a fraction of the decoded
        # bytes) ever enters the object store. Without it, a decode→compute
        # pipeline ships the full decoded corpus through plasma between the
        # decode stage and the downstream stage — measured as the whole
        # encode/decode throughput gap (VERDICT r1 "close the decode gap").
        self.transform = transform

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for path in batch.column("path").to_pylist():
            t = pq.read_table(path, columns=self.read_cols, use_threads=False)
            decoded = enc.decode_rows(t, self.columns)
            out.append(self.transform(decoded) if self.transform else decoded)
        return pa.concat_tables(out)


def read_encoded(
    out_dir: str,
    *,
    partition_ids: list[int] | None = None,
    columns: list[str] | None = None,
    concurrency: int | tuple[int, int] | None = None,
    transform=None,
) -> rd.Dataset:
    """Encoded dir -> Dataset of decoded original rows (streaming), in
    tasks of files_per_task files each.

    ``transform``: optional per-batch callable (pa.Table -> pa.Table)
    applied inside the decode tasks — compute pushdown so the pipeline
    ships the transform's (usually small) output instead of the full
    decoded rows."""
    return _scan(encoded_part_files(out_dir, partition_ids), PartitionDecoder,
                 {"columns": columns, "transform": transform}, concurrency)


def prune_partitions_parquet(out_dir: str, column: str, lo=None, hi=None) -> list[int]:
    """Zone-map pruning WITHOUT the manifest: every encoded partition file
    carries stat_<col>_{count,min,max} as real Parquet columns (the
    reference's band_N_* stats columns, read_raster.cpp:1079-1090), so any
    plain Parquet engine — or this fallback when manifest.json is lost —
    prunes from tiny one-row column reads. Files lacking the stat columns
    (or with no values) are kept: pruning must never lose data."""
    import glob

    keep: list[int] = []
    stat_cols = [f"stat_{column}_count", f"stat_{column}_min", f"stat_{column}_max"]
    for path in sorted(glob.glob(os.path.join(out_dir, "part-*.parquet"))):
        pf = pq.ParquetFile(path)
        names = set(pf.schema_arrow.names)
        t = pf.read(columns=["partition_id"] + [c for c in stat_cols if c in names])
        pid = t.column("partition_id")[0].as_py()
        if not all(c in names for c in stat_cols):
            keep.append(pid)
            continue
        cnt = t.column(stat_cols[0])[0].as_py()
        mn = t.column(stat_cols[1])[0].as_py()
        mx = t.column(stat_cols[2])[0].as_py()
        if not cnt or mn is None:
            keep.append(pid)
            continue
        if lo is not None and mx < lo:
            continue
        if hi is not None and mn > hi:
            continue
        keep.append(pid)
    return keep


def read_encoded_range(out_dir: str, column: str, lo=None, hi=None, **kw) -> rd.Dataset:
    """Value-range read: zone-map pruning skips partitions whose [min, max]
    cannot intersect [lo, hi] (no blob is even decoded), then a vectorized
    residual filter drops the stragglers inside surviving partitions — the
    spatial-filtered read_raquet(geometry) shape
    (/root/reference/src/raquet_extension.cpp:49-81) over value ranges.
    Pruning decides from the journal's stats (no file opened) when the
    dir has one, else from the in-file stat columns."""
    if os.path.exists(os.path.join(out_dir, mf.MANIFEST_JSONL)):
        pids = mf.prune_partitions(out_dir, column, lo, hi)
    else:
        pids = prune_partitions_parquet(out_dir, column, lo, hi)

    def residual(batch: pa.Table) -> pa.Table:
        col = batch.column(column)
        keep = pc.is_valid(col)
        if lo is not None:
            keep = pc.and_(keep, pc.greater_equal(col, pa.scalar(lo)))
        if hi is not None:
            keep = pc.and_(keep, pc.less_equal(col, pa.scalar(hi)))
        return batch.filter(keep)

    user_transform = kw.pop("transform", None)
    if user_transform is not None:
        # fuse: the residual filter must run BEFORE a pushed-down
        # transform — otherwise the transform sees out-of-range straggler
        # rows, and the residual would then filter the transform's OUTPUT
        # (which may not even carry `column`)
        def fused(batch: pa.Table) -> pa.Table:
            return user_transform(residual(batch))

        return read_encoded(out_dir, partition_ids=pids, transform=fused, **kw)
    ds = read_encoded(out_dir, partition_ids=pids, **kw)
    return ds.map_batches(residual, batch_format="pyarrow")


def read_encoded_source(out_dir: str, source: str, **kw) -> rd.Dataset:
    """Source-pruned read over a GROUPED encode: partition ids are
    pack_grouped(source, salt), so one source's rows live in exactly its
    salted partitions — the read opens only those files (partition-id
    pruning on the group key, the reference's block-key filtered read
    re-keyed on source). This is the read-side payoff of the grouped
    layout: a domain-filtered scan (e.g. "train on source='code' only")
    reads |source| bytes, not |corpus| bytes; a lineage encode must open
    every partition for the same query."""
    meta = mf.load_metadata(out_dir)
    salt_map = meta.get("salt_map")
    if not salt_map:
        raise ValueError(f"{out_dir} is not a grouped-mode encode (no salt_map)")
    have = set(meta["partition_ids"])
    pids = [
        pid
        for s in range(int(salt_map.get(source, 0)))
        if (pid := pk.pack_grouped(source, s)) in have
    ]
    return read_encoded(out_dir, partition_ids=pids, **kw)


class PartitionStatsDecoder:
    """Task stage: per-row token stats straight off the ENCODED
    partition files — aggregate pushdown INTO the codec. The for_rows
    layout already stores per-row bases and narrow residual buckets, so
    (count, sum, min, max) per row needs three narrow segmented reductions
    per bucket instead of materializing, scattering and widening the whole
    token plane (blockcodec.list_token_stats / rowcodec.stats_child).
    Falls back to full decode + token_stats per partition whenever the
    fast path declines (nulls, other codecs, the no-wrap gate), so the
    output is always exactly token_stats'."""

    def __init__(self, tokens_column: str = "tokens"):
        retain_heap()  # see encode.EncodeStage / util.retain_heap
        self.tokens_column = tokens_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        # NB: `tr` is imported at module level on purpose — a lazy
        # package-internal import here breaks cloudpickle by-value worker
        # shipping (ModuleNotFoundError when the driver cwd != repo root)
        out = []
        for path in batch.column("path").to_pylist():
            t = pq.read_table(path, use_threads=False)
            metas = t.column("codec_meta").to_pylist()
            for i in range(t.num_rows):
                descs = json.loads(metas[i])
                others = {
                    name: bc.decode_array(enc.blob_view(t, name, i), descs[name])
                    for name in descs
                    if name != self.tokens_column
                }
                tok_blob = enc.blob_view(t, self.tokens_column, i)
                # one column order for BOTH paths (concat_tables is strict)
                cols = sorted(others) + ["tok_count", "tok_min", "tok_max", "tok_sum"]
                st = bc.list_token_stats(tok_blob, descs[self.tokens_column])
                if st is None:  # fall back: full decode, same output shape
                    full = pa.table(
                        {**others,
                         self.tokens_column: bc.decode_array(
                             tok_blob, descs[self.tokens_column])}
                    )
                    out.append(tr.token_stats(full, column=self.tokens_column).select(cols))
                    continue
                has = st["count"] > 0
                out.append(pa.table({
                    **others,
                    "tok_count": pa.array(st["count"].astype(np.int64)),
                    "tok_min": pa.array(np.where(has, st["min"], 0).astype(np.int64)),
                    "tok_max": pa.array(np.where(has, st["max"], 0).astype(np.int64)),
                    "tok_sum": pa.array(st["sum"].astype(np.int64)),
                }).select(cols))
        return pa.concat_tables(out)


def read_encoded_token_stats(
    out_dir: str,
    *,
    partition_ids: list[int] | None = None,
    tokens_column: str = "tokens",
    concurrency: int | tuple[int, int] | None = None,
) -> rd.Dataset:
    """Encoded dir -> per-row token stats Dataset, computed from the
    encoded representation (PartitionStatsDecoder) — identical output to
    ``read_encoded(transform=token_stats)`` minus the tokens/mean columns,
    at a fraction of the memory traffic. Sized like read_encoded."""
    return _scan(encoded_part_files(out_dir, partition_ids), PartitionStatsDecoder,
                 {"tokens_column": tokens_column}, concurrency)


def read_encoded_for_shard(out_dir: str, shard_idx: int, **kw) -> rd.Dataset:
    """Range-predicate pruning on the lineage key: all partitions of one
    input shard (the block BETWEEN analogue)."""
    lo, hi = pk.shard_range(shard_idx)
    meta = mf.load_metadata(out_dir)
    pids = [p for p in meta["partition_ids"] if lo <= p < hi]
    return read_encoded(out_dir, partition_ids=pids, **kw)


def point_lookup(out_dir: str, pid: int, columns: list[str] | None = None) -> pa.Table:
    """Fetch + decode exactly one partition (driver-side, no Dataset):
    the read_raquet_at path — cheap because file naming is keyed."""
    path = os.path.join(out_dir, pk.part_file_name(pid))
    t = pq.read_table(path, columns=enc.read_projection(columns))
    return enc.decode_rows(t, columns)


def export_job(
    out_dir: str,
    dest_dir: str,
    *,
    columns: list[str] | None = None,
    order_by: str | list[str] | None = None,
) -> int:
    """-> exported ROW count (both branches — the sorted path once
    returned rows while the unsorted path returned file count, an
    ambiguous unit for callers). Decode an encoded dir back to PLAIN
    partitioned Parquet — the export
    sink (the reference's ST_AsPNG / COPY TO export path, SURVEY.md §2.1-2.2).
    One output file per encoded partition (same lineage file name), written
    tmp→rename, so a failed export resumes by skipping existing files —
    the resumable-output rule: never one giant file.

    ``order_by``: export globally sorted by an arbitrary column (the
    reference's user-facing ``ORDER BY block`` COPY contract,
    /root/reference/README.md:80-97, generalized to any key). Uses Ray
    Data's distributed range-partitioned sort — file N's keys precede
    file N+1's and each file is internally sorted, which is exactly what
    downstream row-group min/max pruning needs. The sorted path is an
    all-to-all exchange and is NOT per-file resumable (a re-run rewrites
    the destination); the default unsorted path keeps lineage order and
    per-partition resume."""
    if order_by is not None:
        keys = [order_by] if isinstance(order_by, str) else list(order_by)
        ds = read_encoded(out_dir, columns=columns).sort(keys)
        os.makedirs(dest_dir, exist_ok=True)
        ds.write_parquet(dest_dir)
        return int(mf.load_metadata(out_dir)["num_rows"])  # one decode pass
    files = encoded_part_files(out_dir)
    os.makedirs(dest_dir, exist_ok=True)

    def export_one(batch: pa.Table) -> pa.Table:
        done = []
        for path in batch.column("path").to_pylist():
            name = os.path.basename(path)
            dest = os.path.join(dest_dir, name)
            if not os.path.exists(dest):
                t = pq.read_table(path, columns=enc.read_projection(columns), use_threads=False)
                decoded = enc.decode_rows(t, columns)
                fsio.publish_table(decoded, dest)
            done.append({"file": name})
        return pa.Table.from_pylist(done, schema=pa.schema([("file", pa.string())]))

    ds = rd.from_items([{"path": f} for f in files], override_num_blocks=max(len(files), 1))
    ds.map_batches(export_one, batch_size=1, batch_format="pyarrow", num_cpus=1).count()
    return int(mf.load_metadata(out_dir)["num_rows"])


def _tables_bitexact(a: pa.Table, b: pa.Table) -> bool:
    """Bit-exact row-ordered equality that pa.Table.equals gets wrong for
    NaN (NaN != NaN) and for nullable-flag-only schema differences: fast
    path via equals, fallback via ordered bit-pattern fingerprints."""
    if a.column_names != b.column_names or a.num_rows != b.num_rows:
        return False
    if a.equals(b):
        return True
    return bool(np.array_equal(_row_fingerprints(a), _row_fingerprints(b)))


def _verify_partitions(batch: pa.Table, out_dir: str) -> pa.Table:
    """Re-read the input row range and the encoded partition; compare
    bit-exactly. One work item per row, embarrassingly parallel."""
    results = []
    for item in batch.to_pylist():
        pid = item["partition_id"]
        original = pq.ParquetFile(item["shard"]).read_row_groups(item["row_groups"], use_threads=False)
        decoded = point_lookup(out_dir, pid)
        ok = _tables_bitexact(decoded, original)
        results.append({"partition_id": pid, "ok": ok, "n_rows": original.num_rows})
    return pa.Table.from_pylist(results)


def items_from_manifest(out_dir: str) -> list[dict]:
    """Reconstruct lineage-mode work items from the manifest itself, so
    verification checks exactly the partitioning that was encoded (no
    re-planning — an encode run with auto partition sizing would not
    re-plan identically without the original target)."""
    entries = mf.load_entries(out_dir)
    items: list[dict] = []
    shard_offsets: dict[str, list[int]] = {}
    for pid in sorted(entries):
        e = entries[pid]
        if e.get("status") != "done" or not e.get("row_range"):
            continue  # grouped-mode entries carry no row range
        shard = e["input_shard"]
        offs = shard_offsets.get(shard)
        if offs is None:
            md = pq.ParquetFile(shard).metadata
            offs = [0]
            for i in range(md.num_row_groups):
                offs.append(offs[-1] + md.row_group(i).num_rows)
            shard_offsets[shard] = offs
        lo, hi = e["row_range"]
        rgs = [i for i in range(len(offs) - 1) if offs[i] >= lo and offs[i + 1] <= hi]
        items.append(
            {"partition_id": pid, "shard": shard, "row_groups": rgs, "row_range": [lo, hi]}
        )
    return items


def verify_encoded(out_dir: str) -> dict:
    """Bit-identity gate driven purely by the manifest. Lineage-mode
    partitions verify by direct row-range comparison; grouped-mode
    partitions (no row ranges — rows were shuffled) verify by an
    order-insensitive multiset fingerprint of decoded vs input rows."""
    items = items_from_manifest(out_dir)
    if items:
        return _run_verify(items, out_dir)
    meta = mf.load_metadata(out_dir)
    inputs = meta.get("input_shards")
    if not inputs:
        raise ValueError(f"nothing to verify in {out_dir}: no lineage items and no input_shards")
    return verify_multiset(inputs, out_dir)


_FP_POW_BASE = np.uint64(0x9E3779B97F4A7C15)
_FP_POW_CACHE: dict[str, np.ndarray] = {"powers": np.ones(1, dtype=np.uint64)}


def _fp_powers(n: int) -> np.ndarray:
    """base**i mod 2^64 for i in [0, n) — vectorized cumprod (array-op
    integer overflow wraps silently in numpy; the old per-scalar loop both
    ran in Python and warned on every wrap), cached by max length (plain
    dict — lru_cache pickles by reference and breaks by-value shipping)."""
    cached = _FP_POW_CACHE["powers"]
    if len(cached) >= n:
        return cached[:n]
    powers = np.full(n, _FP_POW_BASE, dtype=np.uint64)
    powers[0] = 1
    np.cumprod(powers, out=powers)  # mod 2^64 wraparound intended
    _FP_POW_CACHE["powers"] = powers
    return powers


def _fixed_width_plane_u64(col: pa.Array) -> np.ndarray:
    """Any fixed-width arrow column -> uint64 BIT PATTERNS (nulls as 0) —
    floats keep their full mantissa, never a lossy int cast."""
    # fill nulls FIRST via the type-aware helper: arrow has no fill_null
    # kernel for halffloat (nullable float16 raised ArrowTypeError here)
    col = bc._fill_nulls_primitive(col)
    t = col.type
    if pa.types.is_boolean(t):
        col = col.cast(pa.uint8())
    elif pa.types.is_date(t) or pa.types.is_timestamp(t):
        col = col.cast(pa.int64())
    plane, _ = bc.to_plane(col.to_numpy(zero_copy_only=False))
    return plane.astype(np.uint64)


def _row_fingerprints(batch: pa.Table) -> np.ndarray:
    """Order-insensitive-summable per-row uint64 fingerprints covering every
    byte of every column (strings/binaries via stable siphash, fixed-width
    values via their full bit patterns, list<numeric> via a
    position-weighted polynomial over the child bit patterns — all
    vectorized). Null positions are folded in separately so a null is
    never confused with a zero."""
    import pandas as pd

    n = batch.num_rows
    fp = np.full(n, np.uint64(0x243F6A8885A308D3))
    mix = np.uint64(0xFF51AFD7ED558CCD)
    null_bit = np.uint64(1) << np.uint64(62)
    for name in sorted(batch.column_names):
        col = batch.column(name)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        if pa.types.is_list(t) or pa.types.is_large_list(t):
            lengths = pc.fill_null(pc.list_value_length(col), -1).to_numpy(zero_copy_only=False)
            flat = col.flatten()
            ct = flat.type
            if (
                pa.types.is_string(ct)
                or pa.types.is_large_string(ct)
                or pa.types.is_binary(ct)
                or pa.types.is_large_binary(ct)
            ):
                # list<string>/list<binary>: siphash the children — the
                # fixed-width plane path would crash on object dtype
                child = pd.util.hash_pandas_object(
                    flat.to_pandas(), index=False
                ).to_numpy().astype(np.uint64)
            else:
                child = _fixed_width_plane_u64(flat)
            if flat.null_count:  # null element != literal zero
                child = child + (~np.asarray(flat.is_valid())).astype(np.uint64) * null_bit
            offs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.maximum(lengths, 0), out=offs[1:])
            pos = np.arange(len(child), dtype=np.int64) - np.repeat(offs[:-1], np.maximum(lengths, 0))
            max_len = int(np.maximum(lengths, 0).max()) if n else 0
            powers = _fp_powers(max_len + 1)
            weighted = (child + np.uint64(1)) * powers[pos]
            csum = np.zeros(len(child) + 1, dtype=np.uint64)
            np.cumsum(weighted, out=csum[1:])  # mod 2^64
            h = (csum[offs[1:]] - csum[offs[:-1]]) + lengths.astype(np.uint64)
        elif (
            pa.types.is_string(t)
            or pa.types.is_large_string(t)
            or pa.types.is_binary(t)
            or pa.types.is_large_binary(t)
        ):
            h = pd.util.hash_pandas_object(col.to_pandas(), index=False).to_numpy()
        else:
            h = _fixed_width_plane_u64(col) + np.uint64(3)
            if col.null_count:
                h = h + (~np.asarray(col.is_valid())).astype(np.uint64) * null_bit
        fp = (fp ^ h) * mix
    return fp


def _fingerprint_agg(ds: rd.Dataset) -> tuple[int, int]:
    """(row count, sum of row fingerprints mod 2^64) — order-insensitive."""
    def agg(batch: pa.Table) -> pa.Table:
        fps = _row_fingerprints(batch)
        return pa.table(
            {
                "n": pa.array([len(fps)], type=pa.int64()),
                "s": pa.array([int(fps.sum(dtype=np.uint64))], type=pa.uint64()),
            }
        )

    rows = ds.map_batches(agg, batch_format="pyarrow").take_all()
    total = sum(r["n"] for r in rows)
    ssum = 0
    for r in rows:
        ssum = (ssum + r["s"]) & ((1 << 64) - 1)
    return total, ssum


def verify_multiset(input_paths: list[str], out_dir: str) -> dict:
    """Order-insensitive equality gate: the decoded corpus and the input
    corpus must agree on (row count, summed per-row fingerprint). Used for
    grouped mode, where partitions are shuffled row sets; collision odds
    are ~2^-64 per corpus."""
    n_in, s_in = _fingerprint_agg(rd.read_parquet(sorted(input_paths)))
    n_out, s_out = _fingerprint_agg(read_encoded(out_dir))
    ok = n_in == n_out and s_in == s_out
    return {
        "partitions": len(encoded_part_files(out_dir)),
        "rows": n_out,
        "mismatched_partitions": [] if ok else ["<multiset mismatch>"],
        "ok": ok,
        "mode": "multiset",
    }


def verify_job(input_paths: list[str], out_dir: str, **encode_plan_kwargs) -> dict:
    """Full-corpus bit-identity gate (per-row token-array equality via
    pa.Table.equals on every partition). Returns summary dict.

    With no explicit plan kwargs, the PERSISTED job.json target is used —
    encode_job auto-sizes target_part_bytes and persists it, so
    re-planning with plan_partitions' default here would verify against
    DIFFERENT partition ranges and report every partition mismatched.
    The shard order is the recorded one (`recorded_shard_order`: appended
    shards keep their indices) when ``input_paths`` names exactly its
    shards; a subset keeps the sorted plan and its caveats. Explicit
    kwargs win."""
    cfg = mf.load_job_config(out_dir) or {}
    if cfg.get("target_part_bytes") is not None:
        encode_plan_kwargs.setdefault("target_part_bytes", cfg["target_part_bytes"])
    order = recorded_shard_order(out_dir, cfg)
    if "shard_order" not in encode_plan_kwargs and set(order) == set(input_paths):
        encode_plan_kwargs["shard_order"] = order
    items = plan_partitions(input_paths, **encode_plan_kwargs)
    return _run_verify(items, out_dir)


def _run_verify(items: list[dict], out_dir: str) -> dict:
    ds = rd.from_items(items, override_num_blocks=len(items))
    res = ds.map_batches(
        functools.partial(_verify_partitions, out_dir=out_dir),
        batch_size=1,
        batch_format="pyarrow",
        num_cpus=1,
    )
    rows = res.take_all()
    bad = [r["partition_id"] for r in rows if not r["ok"]]
    return {
        "partitions": len(rows),
        "rows": sum(r["n_rows"] for r in rows),
        "mismatched_partitions": bad,
        "ok": not bad,
    }


def export_positions(
    dest_dir: str, key: str = "doc_id", columns: list[str] | None = None
) -> rd.Dataset:
    """Positional readback of an ``order_by`` export — the value-checkable
    face of the distributed sort. File order comes from each file's FIRST
    key value (O(files) single-row column reads on the driver — metadata
    scale, not data scale); global position = exclusive row-count prefix
    of that order + in-file row index, attached per file in a distributed
    map. If the sort were broken (overlapping file ranges or unsorted
    rows), position k would not hold the rank-k key and the
    ``row_number() OVER (ORDER BY key)`` oracle would hash-mismatch."""
    files = sorted(
        os.path.join(dest_dir, f)
        for f in os.listdir(dest_dir)
        if f.endswith(".parquet")
    )
    firsts, counts, keep = [], [], []
    for f in files:
        pf = pq.ParquetFile(f)
        n = pf.metadata.num_rows
        if n == 0:
            continue
        first = pf.read_row_group(0, columns=[key]).column(key)[0].as_py()
        keep.append(f)
        firsts.append(first)
        counts.append(n)
    order = sorted(range(len(keep)), key=lambda i: (firsts[i], keep[i]))
    offsets, at = {}, 0
    for i in order:
        offsets[keep[i]] = at
        at += counts[i]

    def annotate(batch: pa.Table) -> pa.Table:
        out = []
        for path in batch.column("path").to_pylist():
            t = pq.read_table(path, columns=columns or [key], use_threads=False)
            pos = offsets[path] + np.arange(t.num_rows, dtype=np.int64)
            out.append(t.add_column(0, "pos", pa.array(pos, pa.int64())))
        return pa.concat_tables(out)

    items = [{"path": f} for f in keep]
    return rd.from_items(items, override_num_blocks=max(len(items), 1)).map_batches(
        annotate, batch_size=1, batch_format="pyarrow", num_cpus=1
    )
