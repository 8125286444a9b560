"""util.fork_join: a stage that reserved two CPUs runs a second callable
on one helper thread per process; everywhere else both halves run
inline. The encode sites that fork (read_partition, encode_table,
rowcodec.encode_child) give the bytes the inline path gives."""

import sys
import threading
import time

import numpy as np
import pyarrow as pa
import pytest

from duckdb_raquet_ray import util
from duckdb_raquet_ray.pipelines import encode
from duckdb_raquet_ray.sources import tokens
from duckdb_raquet_ray.stages import encoder as enc


def _thread():
    return threading.get_ident()


def test_inline_outside_a_two_cpu_stage():
    me = _thread()
    assert util.fork_join(_thread, _thread) == (me, me)


def test_one_cpu_stage_runs_inline():
    class Stage:
        def __call__(self, batch):
            return util.fork_join(_thread, _thread)

    a, b = util._run_stage(None, Stage, {}, 1)
    assert a == b == _thread()


def test_second_half_on_the_helper(two_cpus):
    a, b = two_cpus(lambda: util.fork_join(_thread, _thread))
    assert a == _thread() and b != a
    # the gate ends with the stage call
    assert util.fork_join(_thread, _thread) == (a, a)


def test_fork_on_the_helper_runs_inline(two_cpus):
    """One helper thread: a fork called on it must not wait on itself
    (run from a watched thread, so a deadlock fails the test)."""
    def nested():
        return util.fork_join(_thread, _thread)

    out = []
    t = threading.Thread(
        target=lambda: out.append(two_cpus(lambda: util.fork_join(_thread, nested))), daemon=True)
    t.start()
    t.join(30)
    assert out, "a fork on the helper waited on itself"
    a, (b, c) = out[0]
    assert b == c != a


def test_fork_on_the_caller_while_the_helper_is_busy(two_cpus):
    """encode_table's caller half forks again (encode_child) while the
    helper may still run encode_table's other half: the second fork queues
    behind it."""
    order = []

    def slow():
        time.sleep(0.05)
        order.append("outer")

    def inner():
        order.append("inner")

    two_cpus(lambda: util.fork_join(lambda: util.fork_join(lambda: None, inner), slow))
    assert order == ["outer", "inner"]


def test_helper_error_raises_and_the_next_call_works(two_cpus):
    def boom():
        raise KeyError("helper half")

    with pytest.raises(KeyError, match="helper half"):
        two_cpus(lambda: util.fork_join(lambda: 1, boom))
    a, b = two_cpus(lambda: util.fork_join(_thread, _thread))
    assert a != b


def test_caller_error_waits_for_the_helper_half(two_cpus):
    """No write of the helper's half lands after the call has raised."""
    out = np.zeros(4)

    def late_write():
        time.sleep(0.05)
        out[:] = 1

    def fail():
        raise ValueError("caller half")

    with pytest.raises(ValueError, match="caller half"):
        two_cpus(lambda: util.fork_join(fail, late_write))
    assert out.tolist() == [1, 1, 1, 1]


def test_module_pickles_small_after_the_helper_started(two_cpus):
    """The helper pool lives in a util.LocalDict slot: by-value shipping
    of the module (and of a function that reaches it) carries none of it."""
    from ray import cloudpickle as cp

    two_cpus(lambda: util.fork_join(_thread, _thread))
    assert util._FORK, "the helper should have started"
    cp.register_pickle_by_value(util)
    try:
        for obj in (util, util.fork_join, util._run_stage, util.map_stage):
            assert len(cp.dumps(obj)) < 64 * 1024
        restored = cp.loads(cp.dumps(util._FORK))
        assert restored == {} and type(restored) is util.LocalDict
    finally:
        cp.unregister_pickle_by_value(util)


def _two_list_columns(rows=6000):
    rng = np.random.default_rng(7)
    lens = rng.integers(0, 300, rows)
    offsets = np.zeros(rows + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    a = rng.integers(0, 50_000, int(offsets[-1])).astype(np.int32)
    b = (rng.integers(0, 40, int(offsets[-1])) * 997).astype(np.int32)  # dict-friendly
    return pa.table({
        "id": pa.array(np.arange(rows, dtype=np.int64)),
        "a": pa.ListArray.from_arrays(pa.array(offsets), pa.array(a)),
        "src": pa.array([f"s{i % 7}" for i in range(rows)]),
        "b": pa.ListArray.from_arrays(pa.array(offsets[::-1][0] - offsets[::-1]), pa.array(b[::-1])),
        "n_tok": pa.array(lens.astype(np.int32)),
    })


def _encoded_equal(table, two_cpus, monkeypatch, block):
    from duckdb_raquet_ray.codecs import rowcodec

    monkeypatch.setattr(rowcodec, "_BLOCK", block)
    want_t, want_e = enc.encode_table(table, 5, "s", row_range=(0, table.num_rows))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads as finely as possible
    try:
        got_t, got_e = two_cpus(
            lambda: enc.encode_table(table, 5, "s", row_range=(0, table.num_rows)))
    finally:
        sys.setswitchinterval(interval)
    assert got_e == want_e
    assert got_t.equals(want_t)
    assert enc.decode_rows(got_t).equals(table)
    for name in got_t.column_names:
        assert got_t.column(name).to_pylist() == want_t.column(name).to_pylist(), name


@pytest.mark.parametrize("block", [64, 4096, 1 << 16])
def test_two_list_columns_encode_equal(block, two_cpus, monkeypatch):
    """The second list column is encoded on the helper, whose own
    encode_child split runs inline."""
    _encoded_equal(_two_list_columns(), two_cpus, monkeypatch, block)


def test_token_partition_encode_equal(tmp_path, two_cpus, monkeypatch):
    paths = tokens.write_corpus(str(tmp_path), 6000, 1, seed=3, row_group_rows=500)
    item = encode.plan_partitions(paths)[0]
    table = enc.read_partition(item["shard"], item["row_groups"])
    _encoded_equal(table, two_cpus, monkeypatch, 4096)
