"""The traced run: per-layer self times, recorded from outside the library.

The run has three parts.

1. A Ray tour: every timed operation of every workload, once, through the
   public jobs (``encode_job``, the three reads, ``compact_job``,
   ``delete_job``, ``encode_job_grouped``), each checked like an untraced
   run. While it runs, ``Dataset.iter_rows`` / ``iter_batches`` are wrapped
   so every dataset the jobs execute reports its operators' remote wall
   and CPU time (``ray.op.<op>.*``) and the grouped shuffle reports its
   driver-side wall.
2. The same work items, executed in this process through the plain stage
   classes (``PartitionEncoder(out_dir)(items)``, ``PartitionDecoder(...)(paths)``
   and their siblings), untraced. Ray wall minus this wall is
   ``ray.overhead_s``.
3. The in-process pass again, with spans around the module-level functions
   of each layer. Spans (name, start, end, parent) stay in memory and are
   written out when the run ends; a layer's metric is the summed self time
   of its spans: the span's duration minus the time its child spans cover.
   Traced minus untraced wall is ``trace.overhead_s``.

The tour and both passes are the same for every workload, so every
per-layer metric is measured in every traced run.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from types import SimpleNamespace

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from duckdb_raquet_ray import blockcodec, planner
from duckdb_raquet_ray.codecs import general, intcodec, rowcodec
from duckdb_raquet_ray.functions import partition_keys as pk
from duckdb_raquet_ray.pipelines import decode, encode, transforms
from duckdb_raquet_ray.stages import encoder
from duckdb_raquet_ray.state import fsio
from duckdb_raquet_ray.state import manifest as mf

import workloads as wl

COLUMNS = ("doc_id", "tokens", "n_tok", "source")
RAY_OPS = ("encode", "decode", "pushdown", "pruned", "compact", "delete", "grouped")
# ops that the in-process pass repeats; ray.overhead_s compares these
INPROC_OPS = ("encode", "decode", "pushdown", "pruned", "compact", "delete")


# -- spans ----------------------------------------------------------------------


def _decode_rows_cols(args, kwargs):
    columns = args[1] if len(args) > 1 else kwargs.get("columns")
    return [c for c in COLUMNS if columns is None or c in columns]


# span name -> (owner, attribute, columns of the per-column children or None).
# A span with a column list names each direct blockcodec child after the
# column it codes, in column order; that is the order encode_table,
# decode_rows and PartitionStatsDecoder visit columns in.
SPANS = {
    "sources.read": (pq.ParquetFile, "read_row_groups", None),
    "decode.read_table": (pq, "read_table", None),
    "planner.plan_table": (planner, "plan_table", None),
    "encoder.encode_table": (encoder, "encode_table", lambda a, k: a[0].column_names),
    "blockcodec.encode_array": (blockcodec, "encode_array", None),
    "rowcodec.encode_child": (rowcodec, "encode_child", None),
    "rowcodec.row_ranges": (rowcodec, "row_ranges", None),
    "rowcodec.fill_rowwise": (rowcodec, "fill_rowwise", None),
    "rowcodec._detect_dict": (rowcodec, "_detect_dict", None),
    "rowcodec._encode_bucket": (rowcodec, "_encode_bucket", None),
    "intcodec.encode_plane": (intcodec, "encode_plane", None),
    "general.compress": (general, "compress", None),
    "encoder.column_stats": (encoder, "column_stats", None),
    "encoder.source_rollup_partial": (encoder, "source_rollup_partial", None),
    "fsio.publish_table": (fsio, "publish_table", None),
    "encoder.decode_rows": (encoder, "decode_rows", _decode_rows_cols),
    "blockcodec.decode_array": (blockcodec, "decode_array", None),
    "rowcodec.decode_child": (rowcodec, "decode_child", None),
    "intcodec.decode_plane": (intcodec, "decode_plane", None),
    "general.decompress": (general, "decompress", None),
    "blockcodec.list_token_stats": (blockcodec, "list_token_stats", None),
    "manifest.append": (mf.ManifestWriter, "append", None),
    "manifest.finalize": (mf.ManifestWriter, "finalize", None),
    "manifest.load_entries": (mf, "load_entries", None),
    "pipelines.PartitionEncoder": (encode.PartitionEncoder, "__call__", None),
    "pipelines.PartitionDecoder": (decode.PartitionDecoder, "__call__", None),
    "pipelines.PartitionStatsDecoder": (
        decode.PartitionStatsDecoder, "__call__",
        lambda a, k: [c for c in COLUMNS if c != a[0].tokens_column],
    ),
    "pipelines.GroupCompactor": (encode.GroupCompactor, "__call__", None),
    "pipelines.PartitionDeleter": (encode.PartitionDeleter, "__call__", None),
}
PER_COLUMN = ("blockcodec.encode_array", "blockcodec.decode_array")


class Tracer:
    """Wraps the functions in SPANS and records one span per call."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for name, (owner, attr, cols) in SPANS.items():
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, orig, cols))
            self._undo.append((owner, attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, name: str, orig, cols):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            label = name
            if name in PER_COLUMN and parent is not None and parent["cols"]:
                label = f"{name}.{parent['cols'][parent['n'] % len(parent['cols'])]}"
                parent["n"] += 1
            span = {
                "id": len(tracer.spans), "name": label,
                "parent": parent["id"] if parent else None,
                "cols": cols(args, kwargs) if cols else None, "n": 0,
                "start": time.perf_counter(), "end": None,
            }
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                return orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()

        return traced

    def self_ms(self) -> dict[str, float]:
        """Summed self time per span name, in ms."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - c) * 1e3
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({k: s[k] for k in ("id", "name", "parent", "start", "end")}))
                f.write("\n")


# -- Ray tour -------------------------------------------------------------------


class DatasetHooks:
    """Wraps Dataset.iter_rows / iter_batches so each dataset executed in
    the driver reports its operators' remote wall and CPU time as soon as
    it is drained (holding the dataset itself would pin its actors)."""

    def __init__(self):
        self.label = None
        self.by_label: dict[str, dict] = {}
        self.shuffle_s = 0.0
        self._undo: list[tuple] = []

    def __enter__(self) -> "DatasetHooks":
        for attr in ("iter_rows", "iter_batches"):
            orig = getattr(rd.Dataset, attr)
            setattr(rd.Dataset, attr, self._wrap(orig))
            self._undo.append((attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        for attr, orig in self._undo:
            setattr(rd.Dataset, attr, orig)

    def _record(self, ds, wall: float) -> None:
        summary = ds._get_stats_summary()
        ops, todo = [], [summary]
        while todo:
            s = todo.pop()
            ops += s.operators_stats
            todo += s.parents
        agg = self.by_label.setdefault(self.label, {"wall_s": 0.0, "cpu_s": 0.0})
        for op in ops:
            agg["wall_s"] += (op.wall_time or {}).get("sum", 0.0)
            agg["cpu_s"] += (op.cpu_time or {}).get("sum", 0.0)
        if any("write_pieces" in op.operator_name for op in ops):
            self.shuffle_s += wall

    def _wrap(self, orig):
        hooks = self

        def hooked(ds, *args, **kwargs):
            inner = orig(ds, *args, **kwargs)

            def drain():
                t0 = time.perf_counter()
                yield from inner
                hooks._record(ds, time.perf_counter() - t0)

            return drain()

        return hooked


def ray_tour(bench, corpus: wl.Corpus, work: str) -> dict:
    """Every workload's timed operations once, under Ray, each checked."""
    hooks = DatasetHooks()
    walls: dict[str, float] = {}
    with hooks:
        def run(label, fn, check):
            hooks.label = label
            bench.op(label, fn, check)
            walls[label] = bench.records[-1]["wall_s"]

        scan = wl.ScanDecode(corpus, work)
        life = wl.LifecycleRewrite(corpus, work)
        grouped = wl.EncodeGrouped(corpus, work)
        hooks.label = "setup"
        bench.op("setup", scan.prepare, scan.check_prepared)
        life.src = scan.src
        for w in (wl.EncodeFresh(corpus, work), scan, life, grouped):
            # a stand-in for Bench that tells the hooks whose datasets run
            w.iteration(SimpleNamespace(op=run))
            hooks.label = "check"
            bench.op("finish", w.finish)
    return {
        "walls": walls, "ray": hooks.by_label, "shuffle_s": hooks.shuffle_s,
        "shuffle": mf.load_metadata(grouped.output_dir)["shuffle"],
        "small_dir": scan.src,
    }


# -- in-process pass ------------------------------------------------------------


def _one_row_batches(items: list[dict]):
    for it in items:
        yield pa.Table.from_pylist([it])


def _finalize(writer: mf.ManifestWriter, schema: pa.Schema, shards: list[str]) -> None:
    try:
        writer.finalize(str(schema), extra={
            "input_shards": shards, "schema_ipc": mf.schema_to_b64(schema)})
    finally:
        writer.close()


def inprocess_pass(corpus: wl.Corpus, small_dir: str, work: str) -> dict:
    """The Ray tour's work items (minus the grouped shuffle, whose stages
    are closures inside ``encode_job_grouped``), run in this process.
    Returns each op's wall and the work it did."""
    walls: dict[str, float] = {}
    schema = pq.ParquetFile(corpus.paths[0]).schema_arrow

    # encode: the same plan encode_fresh's encode_job makes
    out = os.path.join(work, "inproc-enc")
    shutil.rmtree(out, ignore_errors=True)
    items = sorted(encode.plan_partitions(corpus.paths, wl.ENCODE_TARGET_BYTES),
                   key=lambda it: it["decoded_bytes"], reverse=True)
    t0 = time.perf_counter()
    stage = encode.PartitionEncoder(out)
    writer = mf.ManifestWriter(out)
    for batch in _one_row_batches(items):
        for e in stage(batch).column("entry_json").to_pylist():
            writer.append(json.loads(e))
    _finalize(writer, schema, sorted(corpus.paths))
    walls["encode"] = time.perf_counter() - t0

    # the three reads, in read_encoded's file batches (one actor)
    files = decode.encoded_part_files(small_dir)
    per_task = max(1, min(8, len(files) // 4))
    batches = [pa.table({"path": files[i:i + per_task]}) for i in range(0, len(files), per_task)]
    meta_schema = mf.schema_from_b64(mf.load_metadata(small_dir)["schema_ipc"])
    reads = {
        "decode": decode.PartitionDecoder(schema=meta_schema, transform=transforms.token_stats),
        "pushdown": decode.PartitionStatsDecoder(),
        "pruned": decode.PartitionDecoder(columns=["n_tok", "source"], schema=meta_schema),
    }
    for label, stage in reads.items():
        bs = batches if label != "pushdown" else [pa.table({"path": [f]}) for f in files]
        t0 = time.perf_counter()
        for b in bs:
            stage(b)
        walls[label] = time.perf_counter() - t0

    # compact: consecutive partitions grouped to the compaction target
    comp = os.path.join(work, "inproc-compact")
    shutil.rmtree(comp, ignore_errors=True)
    entries = mf.load_entries(small_dir)
    groups, cur, cur_b = [], [], 0
    for pid in sorted(entries):
        b = int(entries[pid]["input_bytes"])
        if cur and cur_b + b > wl.COMPACT_TARGET_BYTES:
            groups.append(cur)
            cur, cur_b = [], 0
        cur.append(pid)
        cur_b += b
    groups.append(cur)
    t0 = time.perf_counter()
    stage = encode.GroupCompactor(small_dir, comp)
    writer = mf.ManifestWriter(comp)
    rewritten = []
    for batch in _one_row_batches(
            [{"new_pid": pk.pack(gi, 0), "src_pids": g} for gi, g in enumerate(groups)]):
        for e in stage(batch).column("entry_json").to_pylist():
            rewritten.append(json.loads(e))
            writer.append(rewritten[-1])
    _finalize(writer, schema, sorted(corpus.paths))
    walls["compact"] = time.perf_counter() - t0

    # delete: every compacted partition holds some of the ~1% sampled keys
    t0 = time.perf_counter()
    stage = encode.PartitionDeleter(comp, corpus.delete_keys)
    writer = mf.ManifestWriter(comp)
    done = mf.load_entries(comp)
    work_items = [{"pid": p, "key_column": "doc_id", "row_range": e.get("row_range"),
                   "input_shard": e.get("input_shard"), "prior_deleted": 0}
                  for p, e in sorted(done.items())]
    for batch in _one_row_batches(work_items):
        res = stage(batch)
        for e, staged in zip(res.column("entry_json").to_pylist(),
                             res.column("staged").to_pylist()):
            entry = json.loads(e)
            writer.append(entry)
            rewritten.append(entry)
            final = os.path.join(comp, pk.part_file_name(entry["partition_id"]))
            if staged:
                os.replace(staged, final)
            else:
                os.remove(final)
    _finalize(writer, schema, sorted(corpus.paths))
    walls["delete"] = time.perf_counter() - t0
    return {"walls": walls, "encoded": out, "rewritten_dir": comp, "rewritten": rewritten}


def pass_counts(corpus: wl.Corpus, res: dict) -> dict[str, int]:
    """Counts of the work an in-process pass did; they repeat exactly."""
    counts = {"partitions": len(decode.encoded_part_files(res["encoded"])), "rows": corpus.rows}
    for c in COLUMNS:
        counts[f"col_bytes.{c}"] = sum(
            pc.sum(pc.binary_length(pq.read_table(p, columns=[f"col_{c}"]).column(0))).as_py()
            for p in decode.encoded_part_files(res["encoded"])
        )
    counts["partitions_rewritten"] = len(res["rewritten"])
    counts["bytes_rewritten"] = sum(int(e["encoded_bytes"]) for e in res["rewritten"])
    return counts


# -- the traced run ---------------------------------------------------------------

PER_LAYER_MS = [
    f"{name}.{c}" if name in PER_COLUMN else name
    for name in SPANS for c in (COLUMNS if name in PER_COLUMN else (None,))
]
# spans whose self time is a remainder after their own children: named
# *_self_ms so the figure is not read as the layer's whole cost
SELF_SUFFIX = {
    "encoder.encode_table", "encoder.decode_rows", "rowcodec.encode_child",
    "pipelines.PartitionEncoder", "pipelines.PartitionDecoder",
    "pipelines.PartitionStatsDecoder", "pipelines.GroupCompactor",
    "pipelines.PartitionDeleter",
}


def layer_metric_name(span: str) -> str:
    return f"{span}_self_ms" if span in SELF_SUFFIX else f"{span}_ms"


def traced_run(bench, corpus: wl.Corpus, work: str, spans_path: str) -> dict:
    tour = ray_tour(bench, corpus, work)
    # the first pass warms this process (imports, scratch pools, page
    # faults); the second is the untraced baseline
    inprocess_pass(corpus, tour["small_dir"], work)
    base = inprocess_pass(corpus, tour["small_dir"], work)
    with Tracer() as tracer:
        traced = inprocess_pass(corpus, tour["small_dir"], work)
    tracer.write(spans_path)
    self_ms = tracer.self_ms()
    for res in (base, traced):
        wl.check_dir(res["encoded"], corpus.table)
        wl.check_dir(res["rewritten_dir"], corpus.table_after_delete)

    metrics: dict[str, tuple] = {}
    for span in PER_LAYER_MS:
        metrics[layer_metric_name(span)] = (self_ms.get(span, 0.0), "ms")
    metrics["ray.overhead_s"] = (
        sum(tour["walls"][op] for op in INPROC_OPS)
        - sum(base["walls"][op] for op in INPROC_OPS), "s")
    for op in RAY_OPS:
        agg = tour["ray"].get(op, {"wall_s": 0.0, "cpu_s": 0.0})
        metrics[f"ray.op.{op}.wall_s"] = (agg["wall_s"], "s")
        metrics[f"ray.op.{op}.cpu_s"] = (agg["cpu_s"], "s")
    metrics["ray.jobs_leaving_cpus_held"] = (bench.held_cpu_ops, "count")
    metrics["ray.held_cpu_wait_s"] = (bench.held_cpu_wait_s, "s")
    metrics["grouped.shuffle_s"] = (tour["shuffle_s"], "s")
    metrics["grouped.piece_files"] = (tour["shuffle"]["piece_files"], "count")
    metrics["grouped.shuffle_bytes"] = (tour["shuffle"]["piece_bytes"], "bytes")
    metrics["trace.overhead_s"] = (
        sum(traced["walls"].values()) - sum(base["walls"].values()), "s")
    for name, value in pass_counts(corpus, traced).items():
        metrics[name] = (value, "bytes" if name.startswith(("col_bytes", "bytes_")) else "count")
    return {
        "metrics": metrics,
        "ray_walls_s": tour["walls"],
        "inprocess_walls_s": base["walls"],
        "traced_walls_s": traced["walls"],
        "spans": len(tracer.spans),
    }
