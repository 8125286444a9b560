"""Per-process grow-only scratch buffers for codec temporaries.

Why this exists: the encode kernel is not compute-bound, it is PAGE-FAULT
bound at high parallelism. Encoding one 50 MB partition allocates ~500 MB
of large numpy temporaries; every allocation that size is an mmap that is
munmap'd on free, so the next partition re-faults every page. Measured on
the 32-vCPU sandbox (Firecracker, lazily-backed memory): per-task system
time 0.37 s at 8 concurrent encoders but 2.6 s at 32 — fault handling
serializes host-side and gets ~7x slower per fault under concurrency,
pinning aggregate encode throughput regardless of core count. glibc
malloc tunables (MALLOC_MMAP_THRESHOLD_/MALLOC_TRIM_THRESHOLD_) measurably
did NOT fix it (numpy/arrow large blocks bypass the tuned arena).

The fix is to stop allocating: a Ray worker serves every task of every
job, so codec kernels draw their big temporaries from this module's
per-process pool — named, grow-only buffers that fault once per process
and are reused for every later partition. This is the same reasoning as the
reference's per-thread lazily-initialized scratch state
(/root/reference/src/read_raster.cpp:264-286), applied to numpy.
Each stage `claim`s the pool for its family first. Results NumPy can only
return fresh (``np.repeat`` expansions and boolean-index gathers in
codecs/rowcodec.py) rely instead on ``util.retain_heap``, which keeps
freed blocks mapped on the stages' workers, so a warm partition reuses
them without re-faulting.

Size: the token kernel runs its passes per row-aligned block, so the pool
is O(block) (residuals, masks, the dictionary histogram's int64 chunk)
plus each width bucket's byte streams, not copies of the token plane.
Measured after encoding the two 8 M-token partitions of the benchmark's
``encode_fresh`` corpus: 17.4 MB, 2.2 bytes per int32 token (whole-plane
passes held 151 MB, 18.9 bytes per token).

Contract: a buffer named `tag` is INVALIDATED by the next `buf()`/`arr()`
call with the same tag — callers must finish with (or copy out of) a
scratch array before re-requesting its tag, and must never return scratch
views to callers outside the codec. Plain module dict on purpose:
functools caches pickle by reference and would break cloudpickle by-value
shipping to Ray workers.
"""

from __future__ import annotations

import os

import numpy as np

from ..util import LocalDict


class _Pool(LocalDict):
    """The buffer pool, a LocalDict: pickled with contents it would drag
    the driver's buffers (100s of MB) into every task payload, read-only —
    `out[:] = 0` then raised in the worker (observed live). The family
    that last claimed it rides along as `kind`, resetting with the pool."""

    kind: str | None = None


_BUFS: dict[str, np.ndarray] = _Pool()
_OWNER_PID = os.getpid()

# growth headroom: avoids a re-fault cascade when partition sizes creep up
_SLACK = 1.25


def buf(tag: str, nbytes: int) -> np.ndarray:
    """uint8 scratch array of exactly `nbytes` (view of a pooled backing)."""
    global _OWNER_PID
    if _OWNER_PID != os.getpid():  # forked child: drop inherited buffers
        _BUFS.clear()
        _OWNER_PID = os.getpid()
    backing = _BUFS.get(tag)
    if backing is None or backing.nbytes < nbytes or not backing.flags.writeable:
        backing = np.empty(int(nbytes * _SLACK) + 64, dtype=np.uint8)
        _BUFS[tag] = backing
    return backing[:nbytes]


def arr(tag: str, n: int, dtype) -> np.ndarray:
    """Scratch array of n elements of `dtype` (uninitialized)."""
    dtype = np.dtype(dtype)
    return buf(tag, int(n) * dtype.itemsize).view(dtype)


def clear() -> None:
    """Release all pooled buffers (tests / memory-pressure hook)."""
    _BUFS.clear()


def claim(kind: str) -> None:
    """Hand this process's pool to a stage family ("encode" / "decode"). A
    change of family drops the pool and gives the freed heap back to the
    OS (`util.retain_heap` keeps it mapped), so an encode's planes do not
    stay resident under a decode; a repeat claim is free."""
    if _BUFS.kind == kind:
        return
    _BUFS.clear()
    _BUFS.kind = kind
    import ctypes

    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return  # non-glibc platform
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)
