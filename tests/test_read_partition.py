"""stages/encoder.read_partition: the one reader of a planned row-group
range. It must give the table the bulk ``read_row_groups`` gives — same
values, schema and ``nbytes`` (a manifest's ``input_bytes``) — while its
peak allocation stays near the result's size."""

import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from duckdb_raquet_ray.sources import tokens as tk
from duckdb_raquet_ray.stages import encoder as enc

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tokens(d):
    return tk.write_corpus(str(d), 3000, 1, row_group_rows=256)[0]


def _single_row_group(d):
    return tk.write_corpus(str(d), 700, 1, row_group_rows=1000)[0]


def _write(d, table, rg_rows):
    path = os.path.join(str(d), "t.parquet")
    pq.write_table(table, path, row_group_size=rg_rows)
    return path


def _null_elements(d):
    vals = [[1, None, 3], [None], [4, 5], [6, None]] * 50
    return _write(d, pa.table({"x": pa.array(vals, pa.list_(pa.int32()))}), 37)


def _null_and_empty_lists(d):
    vals = ([[1, 2], None, [], [3], None, [], [7, 8, 9]] * 40)[:250]
    # the last row groups hold no null or empty list
    vals += [[10, 11]] * 60
    return _write(d, pa.table({"x": pa.array(vals, pa.list_(pa.int64()))}), 41)


def _nullable_int32(d):
    v = np.arange(400, dtype=np.int32)
    mask = (v % 7 == 0) & (v < 200)  # nulls only in the first row groups
    t = pa.table({"a": pa.array(v, mask=mask), "f": pa.array(v.astype(np.float64))})
    return _write(d, t, 64)


def _strings(d):
    vals = [None if i % 5 == 0 and i < 150 else f"s{i}" * (i % 4) for i in range(300)]
    return _write(d, pa.table({"s": pa.array(vals, pa.string())}), 50)


def _binary(d):
    vals = [bytes([i % 256]) * (i % 9) for i in range(300)]
    return _write(d, pa.table({"b": pa.array(vals, pa.binary())}), 70)


def _large_list(d):
    rng = np.random.default_rng(3)
    vals = [rng.integers(0, 1000, int(n)).tolist() for n in rng.integers(0, 12, 300)]
    vals[17] = None
    t = pa.table({"x": pa.array(vals, pa.large_list(pa.int16())), "n": pa.array(range(300))})
    return _write(d, t, 45)


def _other_types(d):
    """Types read whole: a concat of row-group arrays would drop their
    all-valid bitmaps and merge dictionary chunks."""
    n = 300
    t = pa.table({
        "flag": pa.array([i % 3 == 0 for i in range(n)]),
        "rec": pa.array([{"x": i, "y": str(i)} if i % 11 else None for i in range(n)]),
        "cat": pa.array([str(i % 5) for i in range(n)]).dictionary_encode(),
        "pair": pa.array([[i, i + 1] for i in range(n)], pa.list_(pa.int32(), 2)),
        "nested": pa.array([[[i]] for i in range(n)]),
        "ts": pa.array(np.arange(n) * 10**6, pa.timestamp("us", tz="UTC")),
        "vec": pa.array([[float(i)] * (i % 3) for i in range(n)], pa.list_(pa.float32())),
    })
    return _write(d, t, 37)


FIXTURES = {
    "tokens_many_row_groups": _tokens,
    "single_row_group": _single_row_group,
    "null_list_elements": _null_elements,
    "null_and_empty_lists": _null_and_empty_lists,
    "nullable_int32": _nullable_int32,
    "strings_with_nulls": _strings,
    "binary": _binary,
    "large_list": _large_list,
    "other_types": _other_types,
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_matches_bulk_read(name, tmp_path):
    path = FIXTURES[name](tmp_path)
    n = pq.ParquetFile(path).metadata.num_row_groups
    ranges = [list(range(n))] + ([[0], list(range(1, n))] if n > 1 else [])
    for rgs in ranges:
        bulk = pq.ParquetFile(path).read_row_groups(rgs, use_threads=False)
        got = enc.read_partition(path, rgs)
        assert got.equals(bulk)
        assert got.schema.equals(bulk.schema, check_metadata=True)
        assert got.nbytes == bulk.nbytes
        for c in bulk.column_names:
            assert got.column(c).null_count == bulk.column(c).null_count
            assert got.column(c).num_chunks == bulk.column(c).num_chunks


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_two_threads_match_bulk_read(name, tmp_path, two_cpus):
    """In a 2-CPU task the helper reads every other row group through its
    own handle and the caller copies them in order: 1, 2 and odd counts."""
    path = FIXTURES[name](tmp_path)
    n = pq.ParquetFile(path).metadata.num_row_groups
    for k in sorted({1, min(2, n), n - 1 + n % 2, n}):  # 1, 2, an odd count, all
        rgs = list(range(n - k, n))
        bulk = pq.ParquetFile(path).read_row_groups(rgs, use_threads=False)
        got = two_cpus(lambda: enc.read_partition(path, rgs))
        assert got.equals(bulk), rgs
        assert got.schema.equals(bulk.schema, check_metadata=True)
        assert got.nbytes == bulk.nbytes
        for c in bulk.column_names:
            assert got.column(c).null_count == bulk.column(c).null_count


_PEAK = """
import os, sys
import pyarrow as pa, pyarrow.parquet as pq
from duckdb_raquet_ray.stages import encoder as enc
path, how = sys.argv[1], sys.argv[2]
n = pq.ParquetFile(path).metadata.num_row_groups
pool = pa.proxy_memory_pool(pa.system_memory_pool())
pa.set_memory_pool(pool)
if how == "reader":
    t = enc.read_partition(path, list(range(n)))
elif how == "two_threads":  # as a 2-CPU task runs it: util.fork_join's helper reads
    from duckdb_raquet_ray import util
    class Read:
        def __call__(self, batch):
            return enc.read_partition(path, list(range(n)))
    t = util._run_stage(None, Read, {}, 2)
else:
    t = pq.ParquetFile(path).read_row_groups(list(range(n)), use_threads=False)
print(pool.max_memory() / t.nbytes, flush=True)
os._exit(0)  # buffers outlive the proxy pool at interpreter teardown
"""


def _peak_ratio(path, how):
    env = {**os.environ, "PYTHONPATH": REPO}
    out = subprocess.run([sys.executable, "-c", _PEAK, path, how], env=env,
                         capture_output=True, text=True, check=True)
    return float(out.stdout.strip())


def test_peak_allocation_near_result_size(tmp_path):
    """The reader's peak Arrow allocation on a 16-row-group token
    partition stays under 1.5x the result's nbytes, with the helper thread
    reading one row group ahead too; the bulk read of the
    same row groups peaks near 3x and more."""
    path = tk.write_corpus(str(tmp_path), 8000, 1, row_group_rows=512)[0]
    assert _peak_ratio(path, "reader") < 1.5
    assert _peak_ratio(path, "two_threads") < 1.5
    assert _peak_ratio(path, "bulk") > 2.0
