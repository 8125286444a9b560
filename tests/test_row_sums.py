"""Per-row token sums pinned against an independent reference: the
segmented reductions of transforms.token_stats (fast and sentinel/null
branches) and blockcodec.list_token_stats equal Python-int per-row stats
with sums taken mod 2^64, on fixtures that stress the row boundaries
(interleaved empty rows, single-token rows, one 100k-token row) and the
value range (negative int32, wrapping int64, uint64 at and above 2^63)."""

import numpy as np
import pyarrow as pa
import pytest

from duckdb_raquet_ray import blockcodec as bc
from duckdb_raquet_ray.pipelines import transforms as tr

I64 = np.iinfo(np.int64)


def _wrap(x: int) -> int:
    """Python int -> the int64 with the same value mod 2^64."""
    x %= 1 << 64
    return x - (1 << 64) if x >= 1 << 63 else x


def _rows(lengths, values) -> list[list[int]]:
    ends = np.cumsum(lengths)
    return [values[e - n:e].tolist() for n, e in zip(lengths, ends)]


def _fixture(name: str):
    """-> (rows as Python lists, arrow value type)."""
    rng = np.random.default_rng(sum(map(ord, name)))
    lengths = rng.integers(0, 6, 400)
    lengths[::3] = 0  # empty rows interleaved everywhere
    n = int(lengths.sum())
    if name == "interleaved_empty":
        return _rows(lengths, rng.integers(0, 50_000, n).astype(np.int32)), pa.int32()
    if name == "neg_int32":
        return _rows(lengths, rng.integers(I64.min >> 32, I64.max >> 32, n,
                                           dtype=np.int32, endpoint=True)), pa.int32()
    if name == "wrap_int64":  # 5 values near 2^63 per row: every such sum wraps
        return _rows(lengths, rng.integers(1 << 62, I64.max, n, dtype=np.int64)), pa.int64()
    if name == "wrap_int64_signed":
        return _rows(lengths, rng.integers(I64.min, I64.max, n, dtype=np.int64)), pa.int64()
    if name == "u64_below_2p63":
        return _rows(lengths, rng.integers(1 << 62, (1 << 63) - 1, n, dtype=np.uint64)), pa.uint64()
    if name == "u64_from_2p63":
        vals = rng.integers((1 << 63) - 50, (1 << 63) + 50, n, dtype=np.uint64)
        return _rows(lengths, vals), pa.uint64()
    if name == "single_token":
        return [[int(v)] for v in rng.integers(-7, 1 << 20, 300)], pa.int32()
    if name == "long_row":
        big = rng.integers(0, 1 << 31, 100_000, dtype=np.int64)
        return [[], [3], [], big.tolist(), [], [1, 2]], pa.int64()
    raise KeyError(name)


FIXTURES = ["interleaved_empty", "neg_int32", "wrap_int64", "wrap_int64_signed",
            "u64_below_2p63", "u64_from_2p63", "single_token", "long_row"]


def _reference(rows, skip=None):
    """(count, min, max, sum) per row over the kept values, min/max/sum of
    an empty row 0 — token_stats' output convention. Values are compared
    as given (unsigned stays unsigned) and reported mod 2^64."""
    out = []
    for r in rows:
        vals = [] if r is None else [v for v in r if v is not None and not (skip and skip(v))]
        out.append((len(vals), _wrap(min(vals)), _wrap(max(vals)), _wrap(sum(vals)))
                   if vals else (0, 0, 0, 0))
    return out


def _got(t: pa.Table):
    return list(zip(*(t.column(c).to_pylist()
                      for c in ("tok_count", "tok_min", "tok_max", "tok_sum"))))


def _check_mean(t: pa.Table, ref):
    want = [float(np.float64(s) / np.float64(c)) if c else 0.0 for c, _, _, s in ref]
    assert t.column("tok_mean").to_pylist() == want


@pytest.mark.parametrize("name", FIXTURES)
def test_token_stats_fast_path_matches_reference(name):
    rows, typ = _fixture(name)
    t = tr.token_stats(pa.table({"tokens": pa.array(rows, pa.list_(typ))}))
    ref = _reference(rows)
    assert _got(t) == ref
    _check_mean(t, ref)


@pytest.mark.parametrize("name", [n for n in FIXTURES if not n.startswith("u64")])
@pytest.mark.parametrize("nulls", [False, True])
def test_token_stats_sentinel_and_null_branch_matches_reference(name, nulls):
    rows, typ = _fixture(name)
    rng = np.random.default_rng(5)
    if nulls:  # null elements and null rows, both skipped like nodata
        rows = [None if i % 11 == 5 else [None if rng.random() < 0.2 else v for v in r]
                for i, r in enumerate(rows)]
    flat = [v for r in rows if r for v in r if v is not None]
    sentinel = flat[len(flat) // 2] if flat else -1  # a value that occurs
    t = tr.token_stats(pa.table({"tokens": pa.array(rows, pa.list_(typ))}), sentinel=sentinel)
    ref = _reference(rows, skip=lambda v: v == sentinel)
    assert _got(t) == ref
    _check_mean(t, ref)


def _gate_ok(rows, width: int) -> bool:
    """The stats fast path's no-wrap gate, restated: every non-empty row's
    largest value, as a width-byte unsigned pattern, is below 2^(8w-1)."""
    m = 1 << (8 * width)
    return all(max(v % m for v in r) < m >> 1 for r in rows if r)


@pytest.mark.parametrize("name", FIXTURES)
def test_list_token_stats_matches_reference(name):
    rows, typ = _fixture(name)
    blob, desc = bc.encode_list(pa.array(rows, pa.list_(typ)), {"codec": "for_rows"})
    st = bc.list_token_stats(memoryview(pa.py_buffer(blob)), desc)
    gate = _gate_ok(rows, typ.bit_width // 8)
    assert (st is not None) == gate
    if name == "u64_from_2p63":
        assert not gate  # the fixture exists to reach the gate
    if st is None:
        return
    ref = _reference(rows)
    got = list(zip(*(st[k].tolist() for k in ("count", "min", "max", "sum"))))
    for (c, mn, mx, s), want in zip(got, ref):
        if c == 0:  # empty rows: count/sum 0, min/max the int64 sentinels
            assert (mn, mx, s) == (I64.max, I64.min, 0)
        else:
            assert (c, mn, mx, s) == want
