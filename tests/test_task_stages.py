"""The partition stages run as Ray Data task stages (util.map_stage): no
CPU stays held after a job, decode never fuses into a downstream map,
encode's temporaries grow by byte streams rather than token planes, and
a delete's key set is built once per worker process. The encoder-family
stages share one rewrite core (encode.publish_partition /
encode.journal_stage): each keeps its own ``__call__``, the grouped
reduce is its own operator, and every job's re-run sweeps publish temps."""

import gc
import glob
import json
import os
import re
import shutil
import time
import tracemalloc

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from duckdb_raquet_ray import planner
from duckdb_raquet_ray.codecs import fsst
from duckdb_raquet_ray.functions import partition_keys as pk
from duckdb_raquet_ray.pipelines import decode, encode
from duckdb_raquet_ray.pipelines import encode_grouped as eg
from duckdb_raquet_ray.pipelines import transforms as tr
from duckdb_raquet_ray.sources import tokens
from duckdb_raquet_ray.stages import encoder as enc
from duckdb_raquet_ray.state import manifest as mf


@pytest.fixture(scope="module")
def enc_dir(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("task_stages")
    paths = tokens.write_corpus(str(root / "c"), 4000, 4, row_group_rows=512)
    d = str(root / "enc")
    encode.encode_job(paths, d, target_part_bytes=1)  # one file per row group
    return d, paths, root


def _wait_all_cpus_free(limit_s: float) -> float:
    """Seconds until every cluster CPU is available again, or inf."""
    total = ray.cluster_resources()["CPU"]
    t0 = time.monotonic()
    while time.monotonic() - t0 < limit_s:
        if ray.available_resources().get("CPU", 0) >= total:
            return time.monotonic() - t0
        time.sleep(0.05)
    return float("inf")


def test_jobs_leave_no_cpus_held_without_gc(enc_dir):
    """An actor pool kept every CPU until the driver's cyclic GC ran; task
    stages release them when the job returns."""
    _, paths, root = enc_dir
    gc.collect()  # earlier tests' pools, if any, are not this test's subject
    assert _wait_all_cpus_free(30) < 30
    gc.disable()
    try:
        encode.encode_job(paths, str(root / "held"), target_part_bytes=1 << 20)
        assert _wait_all_cpus_free(2) < 2
        assert decode.read_encoded(str(root / "held")).count() == 4000
        assert _wait_all_cpus_free(2) < 2
    finally:
        gc.enable()


def _stage_tasks(ds) -> int:
    """Tasks the map_stage operator ran, from the executed dataset's stats."""
    m = re.search(r"Operator \d+ MapBatches\(_run_stage\)(\S*): (\d+) tasks", ds.stats())
    assert m and m.group(1) == "", f"stage fused or missing:\n{ds.stats()}"
    return int(m.group(2))


@pytest.mark.parametrize("downstream", [2, None])
def test_decode_never_fuses_downstream(enc_dir, downstream):
    """A downstream batched map with the decode's own task count would
    fuse with it and bundle every file into one serial task."""
    d, _, _ = enc_dir
    n_files = len(decode.encoded_part_files(d))
    assert n_files >= 6
    ds = decode.read_encoded(d, columns=["n_tok"], concurrency=2).map_batches(
        lambda b: b, batch_size=100_000, batch_format="pyarrow", concurrency=downstream
    ).materialize()
    assert ds.count() == 4000
    assert _stage_tasks(ds) == n_files


def test_range_residual_is_its_own_operator(enc_dir):
    d, _, _ = enc_dir
    ds = decode.read_encoded_range(d, "n_tok", lo=10, hi=100, concurrency=2).materialize()
    _stage_tasks(ds)
    assert re.search(r"Operator \d+ MapBatches\(residual\): ", ds.stats())
    assert all(10 <= v <= 100 for v in ds.to_pandas()["n_tok"])


def test_files_per_task_rule():
    """The fewest files per task that keep to ~4 waves of tasks, capped at
    8 files, never 0."""
    assert decode.files_per_task(6, 1) == 2
    assert decode.files_per_task(6, (1, 1)) == 2
    assert decode.files_per_task(6, 32) == 1
    assert decode.files_per_task(0, 4) == 1
    for n_files in range(1, 400, 7):
        for tasks in (1, 2, 3, 8, 32):
            k = decode.files_per_task(n_files, tasks)
            assert 1 <= k <= 8
            assert k == 8 or -(-n_files // k) <= 4 * tasks
            assert k == 1 or -(-n_files // (k - 1)) > 4 * tasks


@pytest.mark.parametrize("read", ["decode", "pushdown"])
def test_scan_puts_every_file_in_one_task(enc_dir, read):
    """One task slot over 8 files: 2 files per task, 4 tasks, and every
    partition's rows exactly once."""
    d, _, _ = enc_dir
    assert len(decode.encoded_part_files(d)) == 8
    ds = (decode.read_encoded(d, columns=["doc_id"], concurrency=(1, 1)) if read == "decode"
          else decode.read_encoded_token_stats(d, concurrency=(1, 1))).materialize()
    assert _stage_tasks(ds) == 4
    ids = ds.to_pandas()["doc_id"]
    assert len(ids) == 4000 and ids.is_unique


def test_scans_of_no_partitions_are_empty(enc_dir):
    """No file to scan -> no stage call at all (Ray never runs a map_batches
    UDF on an empty block), and the datasets count 0."""
    d, _, _ = enc_dir
    assert decode.read_encoded(d, partition_ids=[]).count() == 0
    assert decode.read_encoded(d, partition_ids=[], transform=tr.token_stats).count() == 0
    assert decode.read_encoded_token_stats(d, partition_ids=[]).count() == 0
    assert decode.read_encoded_range(d, "n_tok", lo=10**9).count() == 0


def test_fsst_column_with_a_full_symbol_table_decodes_from_blob_views(tmp_path):
    """A table of more than 127 symbols (the count byte reads negative as
    a signed byte) decodes through decode_rows and both decode stages,
    which hand the codecs views of the Arrow blobs, not bytes."""
    rng = np.random.default_rng(0)
    alphabet = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789", dtype=np.uint8)
    docs = [rng.choice(alphabet, 40).tobytes().decode() for _ in range(500)]
    assert len(fsst.train("".join(docs).encode()).symbols) > 127
    t = pa.table({"doc_id": docs,
                  "tokens": pa.array([[1, 2, 3]] * len(docs), pa.list_(pa.int32()))})
    plan = planner.plan_table(t)
    plan["doc_id"] = {"codec": "fsst"}
    path = str(tmp_path / "p.parquet")
    pq.write_table(enc.encode_table(t, 0, "shard", plan=plan)[0], path)
    assert enc.decode_rows(pq.read_table(path)).equals(t)
    paths = pa.table({"path": [path]})
    assert decode.PartitionDecoder()(paths).equals(t)
    assert decode.PartitionStatsDecoder()(paths).column("doc_id").equals(t.column("doc_id"))


def _encode_peak(table: pa.Table) -> int:
    """Traced peak bytes (numpy and Python allocations) of one warm
    encode_table call with its plan precomputed."""
    plan = planner.plan_table(table)
    enc.encode_table(table, 0, "shard", plan=plan)
    tracemalloc.start()
    try:
        enc.encode_table(table, 0, "shard", plan=plan)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_encode_peak_grows_by_streams_not_planes(tmp_path):
    """encode_table's temporaries are block-sized plus the bucket byte
    streams, not copies of the token plane: from a 4,096-row partition to
    a 16,384-row one its traced peak grows by under 4 bytes per added
    int32 token (one whole-plane int64 copy alone adds 8)."""
    peaks, toks = [], []
    for rows in (4096, 16384):
        paths = tokens.write_corpus(str(tmp_path / f"c{rows}"), rows, 1, row_group_rows=rows)
        table = pq.read_table(paths[0])
        peaks.append(_encode_peak(table))
        toks.append(pc.sum(pc.list_value_length(table.column("tokens"))).as_py())
    assert peaks[1] - peaks[0] < 4 * (toks[1] - toks[0])


def test_delete_key_set_built_once_per_process(enc_dir, tmp_path, monkeypatch):
    """Two deleter stages on one keys ref (two tasks on one worker) fetch
    and type the key set once; a new ref replaces it."""
    d, _, _ = enc_dir
    d = shutil.copytree(d, str(tmp_path / "del"))
    pids = mf.load_metadata(d)["partition_ids"][:2]
    keys = [
        decode.point_lookup(d, p, columns=["doc_id"]).column("doc_id")[0].as_py()
        for p in pids
    ]
    ref = ray.put(keys)
    gets = []
    real_get = ray.get
    monkeypatch.setattr(
        ray, "get", lambda r, *a, **k: gets.append(r) or real_get(r, *a, **k)
    )
    built = []
    for pid in pids:
        res = encode.PartitionDeleter(d, ref)(
            pa.Table.from_pylist([{"pid": pid, "key_column": "doc_id"}])
        )
        assert res.num_rows == 1 and res.column("staged")[0].as_py()
        built.append([v for k, v in encode._KEYS.items() if isinstance(k, pa.DataType)])
    assert len(gets) == 1
    assert len(built[0]) == 1 and built[1][0] is built[0][0]
    assert sorted(built[0][0].to_pylist()) == sorted(keys)
    other = ray.put(keys[:1])
    assert encode._key_values(other, pa.string()).to_pylist() == keys[:1]
    assert len(gets) == 2


def _first_key(d: str):
    pid = mf.load_metadata(d)["partition_ids"][0]
    return pid, decode.point_lookup(d, pid, columns=["doc_id"]).column("doc_id")[0].as_py()


def test_encoder_stages_own_call_and_return_entry_json(enc_dir, tmp_path):
    """Each encoder-family stage defines ``__call__`` in its own class: the
    benchmark's per-layer pass wraps each class's ``__call__``, and an
    inherited one would nest one class's span inside another's and stay
    wrapped after the tracer restores it."""
    d, paths, _ = enc_dir
    pid, key = _first_key(d)
    table = pq.read_table(paths[0])
    salt_map = {s: 2 for s in table.column("source").to_pandas().fillna(eg.NULL_SOURCE_KEY)}
    pieces = eg.write_pieces(table, salt_map, np.array([], np.uint64), 1, str(tmp_path))
    piece = pieces.column("path")[0].as_py()
    dd = shutil.copytree(d, str(tmp_path / "del"))
    runs = [
        (encode.PartitionEncoder, (str(tmp_path / "e"),), encode.plan_partitions(paths, 1)[:1]),
        (encode.GroupCompactor, (d, str(tmp_path / "c")),
         [{"new_pid": pk.pack(0, 0), "src_pids": mf.load_metadata(d)["partition_ids"][:2]}]),
        (encode.PartitionDeleter, (dd, [key]), [{"pid": pid, "key_column": "doc_id"}]),
        (eg.BucketEncoder, (str(tmp_path / "g"), salt_map), [{"paths": [piece]}]),
    ]
    for cls, args, items in runs:
        assert "__call__" in vars(cls), cls
        res = cls(*args)(pa.Table.from_pylist(items))
        assert res.num_rows >= 1, cls
        assert json.loads(res.column("entry_json")[0].as_py())["status"] == "done"


def test_grouped_reduce_is_its_own_operator(enc_dir, tmp_path, monkeypatch):
    """The grouped reduce runs through the rewrite core as its own
    MapBatches(_run_stage) operator, one task per shuffle bucket."""
    _, paths, _ = enc_dir
    runs = []
    real = encode.map_stage

    def spy(items, stage, *args, **kwargs):
        runs.append((stage, len(items), real(items, stage, *args, **kwargs)))
        return runs[-1][2]

    monkeypatch.setattr(encode, "map_stage", spy)
    out = str(tmp_path / "g")
    eg.encode_job_grouped(paths, out, target_group_rows=200)
    [(stage, n_buckets, ds)] = runs
    assert stage is eg.BucketEncoder and n_buckets >= 2
    assert _stage_tasks(ds) == n_buckets
    assert mf.load_metadata(out)["num_rows"] == 4000


@pytest.mark.parametrize("job", ["encode", "compact", "delete", "grouped"])
def test_rerun_sweeps_publish_temps(enc_dir, tmp_path, job):
    """A kill between a partition's tmp write and its rename leaves a
    publish temp; every job's re-run removes it (the rewrite core's one
    start-of-run sweep) and changes nothing else."""
    d, paths, _ = enc_dir
    out = str(tmp_path / job)
    if job in ("encode", "delete"):
        shutil.copytree(d, out)
    _, key = _first_key(d)
    run = {
        "encode": lambda: encode.encode_job(paths, out, target_part_bytes=1),
        "compact": lambda: encode.compact_job(d, out),
        "delete": lambda: encode.delete_job(out, [key]),
        "grouped": lambda: eg.encode_job_grouped(paths, out),
    }[job]
    run()
    parts = sorted(glob.glob(os.path.join(out, "part-*.parquet")))
    tmp = parts[0] + ".tmp-1-deadbeef"
    with open(tmp, "wb") as f:
        f.write(b"torn")
    meta = run()
    assert not os.path.exists(tmp)
    assert sorted(glob.glob(os.path.join(out, "part-*.parquet"))) == parts
    assert meta["num_rows"] == (3999 if job == "delete" else 4000)
