"""Small shared helpers."""

from __future__ import annotations


def strip_schema_metadata(batch):
    """Drop Arrow schema-level metadata (zero-copy). Parquet written by
    pandas carries a b'pandas' metadata blob; a schema with metadata is
    UNHASHABLE (its hash includes a dict), so every downstream Ray block
    concat logs "Failed to hash the schemas (for deduplication)" and
    loses the schema-dedup fast path. Stages whose output derives from an
    externally-read batch (append_column preserves metadata) call this
    once on entry."""
    return batch.replace_schema_metadata(None) if batch.schema.metadata else batch


def clean_dataset(ds):
    """Insert a zero-copy whole-block metadata strip after an external
    read. Needed where a downstream stage sets an explicit batch_size:
    Ray's batch slicer then CONCATENATES raw read blocks BEFORE the stage
    fn runs, and pandas-written parquet blocks carry the unhashable
    b'pandas' schema metadata — per-stage strips can't reach that concat.
    batch_size=None keeps it per-block (no slicing, no copy); Ray fuses
    the stage into the consumer."""
    return ds.map_batches(strip_schema_metadata, batch_format="pyarrow", batch_size=None)


def mod_split(b, *, key_col: str = "doc_id", mod: int, rem: int, keep: bool):
    """Vectorized `key % mod == rem` row split (pa.Table -> pa.Table) —
    the deterministic benchmark/train carve used by the bloom queries.
    Lives in the package (registered pickle-by-value) so shipping it to
    workers never depends on the driver module being importable there."""
    import pyarrow as pa

    m = (b.column(key_col).to_numpy(zero_copy_only=False) % mod) == rem
    return b.filter(pa.array(m if keep else ~m))


DEFAULT_BUCKET_TARGET_BYTES = 32 << 20


def _plan_size_bytes(ds) -> int | None:
    """Best-known byte size of a Dataset from plan METADATA only (never
    triggers execution). Map operators discard size_bytes (output size is
    unknowable pre-execution), so a `read_parquet -> map_batches` chain
    reports None at the tip; walk up the input dependencies to the
    nearest operator with a known size — for sizing shuffle fan-out the
    INPUT byte count is the right proxy anyway."""
    try:
        frontier = [ds._logical_plan.dag]
    except Exception:
        return None
    seen = 0
    while frontier and seen < 64:
        node = frontier.pop(0)
        seen += 1
        try:
            sz = node.infer_metadata().size_bytes
        except Exception:
            sz = None
        if sz:
            return int(sz)
        frontier.extend(getattr(node, "input_dependencies", []) or [])
    return None


def scaled_buckets(
    ds,
    *,
    bytes_per_bucket: int = DEFAULT_BUCKET_TARGET_BYTES,
    lo: int = 32,
    cap: int = 4093,
    fallback: int = 256,
) -> int:
    """Corpus-scaled shuffle fan-out: ceil(input_bytes / bytes_per_bucket)
    clamped to [lo, cap] (the encode_grouped ceil(work/target) discipline).
    A FIXED fan-out makes per-bucket payload O(corpus / constant) — tens
    of GB per in-memory reduce task at 100 TB; scaling the bucket count
    with input size keeps each reduce task ~bytes_per_bucket at any scale.

    The cap is deliberately NOT a power of two, and a computed n landing
    on a power of two is nudged off it — callers whose bucket keys carry
    structure in the low bits additionally pre-mix with detmix.splitmix64
    before the modulus (see encode_grouped.py's write_pieces).

    `ds` is a Ray Dataset (size read from plan METADATA only — never
    triggers execution; unknown sizes use `fallback`, the historical
    constant) or a plain int byte count."""
    if isinstance(ds, int):
        nbytes = ds
    else:
        nbytes = _plan_size_bytes(ds)
    if not nbytes or nbytes <= 0:
        n = fallback
    else:
        n = max(lo, min(cap, -(-int(nbytes) // bytes_per_bucket)))
    if n > 1 and n & (n - 1) == 0:
        # keep low-entropy keys from collapsing on a 2^k modulus; nudge
        # DOWN when at the caller's cap (n+1 would exceed the contract)
        n = n - 1 if n >= cap else n + 1
    return int(n)


class LocalDict(dict):
    """Per-process module state that PICKLES AS EMPTY: by-value shipping
    (cloudpickle) would carry a plain dict's driver contents (encode._KEYS,
    the latest delete's key set) into every task payload. A dict subclass
    on purpose: functools caches pickle by reference and would break the
    by-value shipping to Ray workers."""

    def __reduce__(self):
        return (type(self), ())


_HEAP_RETAINED_PID: int | None = None


def retain_heap() -> None:
    """Make a long-lived worker keep freed memory mapped. Encode is
    PAGE-FAULT bound before it is compute bound at high parallelism:
    measured on a 32-vCPU Firecracker VM (lazily backed memory), per-task
    system time was 0.37 s at 8 concurrent encoders but 2.6 s at 32 — the
    host serializes fault handling, so each fault costs ~7x more under
    concurrency and pins aggregate encode throughput whatever the core
    count. With the freed heap kept mapped, warm in-process
    ``encode_table`` / ``decode_rows`` rounds on the benchmark's two 8
    M-token partitions take 0 minor faults (~9k / ~5.5k without), so the
    codecs need no buffer pool of their own. Both allocators in play are
    covered:

    - glibc malloc (numpy temporaries): allocations over ~128 KB default
      to mmap and are munmapped on free, so every task re-faults its large
      planes (~15 ms per 50 MB warm; under 32-way concurrency the kernel
      serializes fault handling and this dominates wall time — measured as
      in-actor task times 2-8x the same work in a warm single process).
      Raising M_MMAP_THRESHOLD/M_TRIM_THRESHOLD keeps big blocks on the
      brk heap and reusable: the 50 MB alloc+touch drops to ~0.1 ms.
    - pyarrow buffers: route Arrow allocations through the SYSTEM (glibc)
      pool so the mallopt retention above covers them too. pyarrow's
      default jemalloc pool keeps purging even with decay disabled
      (measured: an identical 28 MB parquet read re-faults ~100 MB of
      fresh pages EVERY call under jemalloc decay=-1; under the system
      pool it drops to ~10 MB once warm — 2026-08-19, full task fault
      traffic 1.8 GB/task -> ~0.5 GB). On lazily-backed sandbox VMs a
      first-touch fault costs ~100x a warm one AND the host serializes
      fault handling across processes, so per-task fault bytes are the
      non-scaling term in the 2->8 cpu pair. jemalloc decay is still
      disabled as a fallback for buffers allocated before this runs.

    Call from every stage ``__init__`` (or hot task fn) that moves
    partition-sized arrays; idempotent and ~free when repeated."""
    # pid-keyed, not a bool: the flag travels INTO workers when the module
    # ships by value, and a driver-set True must not make a fresh worker
    # skip the mallopt
    import os

    global _HEAP_RETAINED_PID
    if _HEAP_RETAINED_PID == os.getpid():
        return
    _HEAP_RETAINED_PID = os.getpid()
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except Exception:
        pass  # non-glibc platform
    try:
        import pyarrow as pa

        pa.set_memory_pool(pa.system_memory_pool())
    except Exception:
        pass
    try:
        import pyarrow as pa

        pa.jemalloc_set_decay_ms(-1)
    except Exception:
        pass  # non-jemalloc arrow builds


def default_concurrency() -> int:
    """Default parallelism of a job: the cluster's CPU count (the OS count
    before Ray is up)."""
    import ray

    try:
        n = int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        n = 0
    if n <= 0:
        import os

        n = os.cpu_count() or 4
    return n


def _run_stage(batch, stage, kwargs):
    return stage(**kwargs)(batch)


def map_stage(items: list, stage, kwargs: dict, *, concurrency, num_cpus: int = 1,
              batch_size: int = 1):
    """Run a partition stage class over work items (one block each) as a
    Ray Data TASK stage, each task calling ``stage(**kwargs)(batch)``: the
    stages' per-process state (`retain_heap`'s mapped heap) is
    module-level, so Ray's warm workers serve every job and no CPU
    stays held once a job returns. ``concurrency`` becomes a task count,
    at most one per batch: an int (or None, all CPUs) is a CPU budget split
    into ``num_cpus`` slots, a (min, max) gives its max.
    ``ray_remote_args_fn`` is the fusion barrier: Ray never fuses such an
    operator, so a downstream batched map with the same task count cannot
    absorb the stage and bundle its one-row blocks into one serial task."""
    import ray.data as rd

    if isinstance(concurrency, tuple):
        tasks = concurrency[1]
    else:
        cpus = default_concurrency() if concurrency is None else concurrency
        tasks = cpus // num_cpus
    tasks = max(1, min(tasks, -(-len(items) // batch_size)))
    ds = rd.from_items(items, override_num_blocks=max(len(items), 1))
    return ds.map_batches(
        _run_stage, fn_kwargs={"stage": stage, "kwargs": kwargs}, batch_size=batch_size,
        batch_format="pyarrow", concurrency=tasks, num_cpus=num_cpus, ray_remote_args_fn=dict,
    )


def bucketed(ds, key, reduce):
    """The package's one wide step: shuffle `ds` by its `key` column (or
    columns) and run `reduce` (pa.Table -> pa.Table) once per key group.
    Callers build the keyed dataset themselves — the bucket column, any
    union of sides, their own upstream `batch_size` — so this names the
    shuffle algorithm (today Ray's sort-based groupby) in one place.

    Callers shuffle on a COARSE bucket key and do the fine-grained
    grouping vectorized INSIDE each bucket: Ray's groupby().map_groups
    pays per-group overhead, so grouping by a high-cardinality key
    (content hash, band hash) directly costs ~0.5 ms x millions of groups.
    Bucketing keeps the shuffle payload identical and the result
    unchanged (a full group always lands in one bucket). The bucket COUNT
    is corpus-scaled (`scaled_buckets`) so per-bucket in-memory reduce
    work stays ~constant at any corpus size.

    `reduce` is Arrow in / Arrow out with an explicit uniform schema:
    returning pandas frames from map_groups hits a per-group
    block-building slow path in Ray (measured 25x slower than emitting
    pa.Tables). `reduce` always sees rows: Ray slices groups only out of
    non-empty sorted blocks, and its empty output blocks (0 rows, often 0
    columns) bypass every later `map_batches` UDF — consumers of the
    result skip 0-column batches (pinned by the tests'
    TestEmptyGroupSchemaPinning)."""
    return ds.groupby(key).map_groups(reduce, batch_format="pyarrow")


def row_digest(ds, cols: list[str]) -> str:
    """Order-free digest of the multiset of a dataset's `cols` rows — the
    append id of an index append derived from the appended rows
    themselves, so a retried append recognizes its own earlier
    (complete or killed) attempt, and only an append of the very same
    rows is taken for one. One streaming pass; the driver folds one row
    per block."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(cols).to_pandas()
        h = pd.util.hash_pandas_object(df, index=False).to_numpy().sum(dtype=np.uint64)
        return pa.table({"n": [len(df)], "h": pa.array([h], pa.uint64())})

    parts = ds.select_columns(cols).map_batches(partial, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in parts)
    h = sum(r["h"] for r in parts) % (1 << 64)
    return f"{n:x}-{h:016x}"
