"""Partition-id lineage keys — the engine's QUADBIN analogue.

The reference's `block` is a dense, sortable, hierarchical 64-bit cell id
whose pure integer math gives O(1) parent/children/range navigation and
turns pruning into a range predicate
(/root/reference/src/include/quadbin.hpp:16-95 encode/decode,
:175-284 hierarchy, README.md:80-81 ORDER BY block). We mirror the *role*,
not the bit layout: a partition id is a pure function of lineage
(input shard index, part index within the shard — or, in grouped mode, the
(source-hash, salt) bucket), so ids are deterministic across runs and
cluster sizes, sortable, and shard-pruning is a range predicate.

Layout (64 bits):
  bit 63      : mode (0 = shard/part lineage, 1 = grouped source/salt bucket)
  mode 0      : bits 62..31 shard index (32 bits), bits 30..0 part index
  mode 1      : bits 62..20 source-hash (43 bits), bits 19..0 salt

Like quadbin, all functions are pure integer math usable on the driver, in
tests, and inside vectorized numpy expressions.
"""

from __future__ import annotations

import hashlib

MODE_BIT = 1 << 63
_PART_BITS = 31
_SALT_BITS = 20
_PART_MASK = (1 << _PART_BITS) - 1
_SALT_MASK = (1 << _SALT_BITS) - 1
MAX_SHARD = (1 << 32) - 1
MAX_PART = _PART_MASK


def pack(shard: int, part: int) -> int:
    """(input shard index, part index within shard) -> partition_id."""
    if not (0 <= shard <= MAX_SHARD and 0 <= part <= MAX_PART):
        raise ValueError(f"shard/part out of range: {shard}, {part}")
    return (shard << _PART_BITS) | part


def unpack(pid: int) -> tuple[int, int]:
    """partition_id -> (shard, part). Raises on grouped-mode ids.

    Accepts numpy integers (pids read from the encoded uint64 column):
    everything is coerced through int() because numpy uint64 refuses
    mixed-type shifts/masks with python ints."""
    pid = int(pid)
    if pid & MODE_BIT:
        raise ValueError("grouped-mode partition id; use unpack_grouped")
    return pid >> _PART_BITS, pid & _PART_MASK


def parent(pid: int) -> int:
    """The shard-level key of a lineage pid (part index zeroed) —
    the quadbin_to_parent analogue (quadbin.hpp:175-199)."""
    pid = int(pid)
    if pid & MODE_BIT:
        raise ValueError("grouped-mode partition id has no shard parent")
    return pid & ~_PART_MASK


def shard_range(shard: int) -> tuple[int, int]:
    """[lo, hi) partition_id range covering one input shard — pruning by
    range predicate, like block BETWEEN for a polyfilled cell list
    (raquet_extension.cpp:49-66)."""
    return pack(shard, 0), pack(shard, MAX_PART) + 1


def children(shard: int, n_parts: int) -> list[int]:
    """All partition ids of one shard (quadbin_to_children analogue)."""
    return [pack(shard, p) for p in range(n_parts)]


def sibling(pid: int, offset: int = 1) -> int | None:
    """The partition `offset` steps away WITHIN the same shard — the
    quadbin sibling navigation (quadbin.hpp:201-232) on lineage keys,
    where adjacency means adjacent row ranges of the same input shard.
    Returns None when the step leaves the shard's part-index space."""
    shard, part = unpack(pid)
    p = part + offset
    if not (0 <= p <= MAX_PART):
        return None
    return pack(shard, p)


def kring(pid: int, k: int = 1) -> list[int]:
    """All partition ids within `k` steps of `pid` in the same shard,
    including `pid` — the quadbin_kring analogue (quadbin.hpp:234-284).
    On lineage keys the ring is the 1-D window of adjacent row-range
    partitions (e.g. fetch surrounding context for a boundary record).
    Ids past either end of the part-index space are clipped."""
    shard, part = unpack(pid)
    lo = max(0, part - k)
    hi = min(MAX_PART, part + k)
    return [pack(shard, p) for p in range(lo, hi + 1)]


def source_hash(source: str) -> int:
    """Stable 43-bit hash of a source key (sha256-based; never Python's
    randomized hash())."""
    h = hashlib.sha256(source.encode("utf-8")).digest()
    return int.from_bytes(h[:8], "little") & ((1 << 43) - 1)


def pack_grouped(source: str, salt: int) -> int:
    """Grouped-mode id for a (source, salt) encoder bucket."""
    if not (0 <= salt <= _SALT_MASK):
        raise ValueError(f"salt out of range: {salt}")
    return MODE_BIT | (source_hash(source) << _SALT_BITS) | salt


def unpack_grouped(pid: int) -> tuple[int, int]:
    """grouped pid -> (source_hash, salt)."""
    pid = int(pid)
    if not pid & MODE_BIT:
        raise ValueError("not a grouped-mode partition id")
    body = pid & ~MODE_BIT
    return body >> _SALT_BITS, body & _SALT_MASK


def is_grouped(pid: int) -> bool:
    return bool(int(pid) & MODE_BIT)


def part_file_name(pid: int) -> str:
    """Deterministic, sort-order-preserving file name for a partition —
    output ordered by key by construction (README.md:80-81 ORDER BY block)."""
    return f"part-{pid:020d}.parquet"
