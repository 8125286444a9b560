"""Benchmark of the columnar encode engine: one command, four workloads.

    python3 perfbench/run.py --workload encode_fresh --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The load is a closed loop: this one
driver runs one job at a time, each job gets an explicit single-worker
``concurrency``, and Ray gets the fewest logical CPUs that can place one
encoder actor (``pipelines.encode.ENCODER_NUM_CPUS``). Every timed job is
watched: a job Ray cannot place, or that stalls, fails the run instead of
hanging it. Every output is checked against the seeded input.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run (perfbench/layers.py).
The line before it is a context record: host window probes, per-op
figures, sizes and failure counts. Exit status is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import logging
import os
import shutil
import statistics
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = os.path.join(ROOT, ".bench_cache")
DEFAULT_ROWS = 40_000
SETUP_REPS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s; this leaves room to shut down
OP_TIMEOUT_S = 60.0  # watchdog limit for one job, set-up jobs included
SHUTDOWN_MARGIN_S = 40.0  # stopping a stalled job, then Ray, then reaping
OBJECT_STORE_BYTES = 400 << 20


class Stalled(Exception):
    """A watched job did not finish within its time limit."""


class ResourceWarnings(logging.Handler):
    """Keeps Ray Data's "cluster resources are not enough" warnings, which
    are the only sign that a job is waiting for CPUs it can never get."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if "hang forever" in msg or "not en" in msg:
            self.lines.append(msg)


class Bench:
    """Times, watches and checks the operations of one run."""

    def __init__(self, ray_cpus: int, deadline: float):
        self.ray_cpus = ray_cpus
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] = []
        self.held_cpu_ops = 0
        self.held_cpu_wait_s = 0.0
        self.warnings = ResourceWarnings()

    def quiesce(self) -> float:
        """Let the previous job's actors go before the next job starts.

        A finished Ray Data job keeps its actor pool, and the CPUs the
        actors reserve, until the driver's cyclic garbage collector frees
        the executor; the next job that needs those CPUs then waits for
        the raylet's periodic GC request (observed: 10-16 s). That wait
        belongs to no job, so it is taken here, outside the job's time, and
        recorded: ``held_cpu_ops`` counts the jobs that left CPUs held, and
        the wait, in seconds, is returned and summed in ``held_cpu_wait_s``."""
        import ray

        t0 = time.perf_counter()
        if ray.available_resources().get("CPU", 0) < self.ray_cpus:
            self.held_cpu_ops += 1
        gc.collect()
        limit = time.monotonic() + 30
        while (ray.available_resources().get("CPU", 0) < self.ray_cpus
               and time.monotonic() < limit):
            time.sleep(0.05)
        waited = time.perf_counter() - t0
        self.held_cpu_wait_s += waited
        return waited

    def op(self, label: str, fn, check=None):
        """Run ``fn`` under the watchdog and time it, then run ``check`` on
        its result, untimed. Raises on any failure."""
        waited = self.quiesce()
        timeout = min(OP_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            raise Stalled(f"{label}: no time left in the run")
        box: dict = {}

        def target():
            try:
                box["value"] = fn()
            except BaseException as e:  # handed to the main thread below
                box["error"] = e

        self.attempted += 1
        worker = threading.Thread(target=target, daemon=True)
        t0 = time.perf_counter()
        worker.start()
        worker.join(timeout)
        wall = time.perf_counter() - t0
        if worker.is_alive():
            self.failed += 1
            for line in self.warnings.lines:
                print(f"ray: {line}", file=sys.stderr)
            # stop the job thread: Ray's shutdown under a thread still
            # waiting inside a job ends this process before it can reap
            # Ray's processes
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(worker.ident), ctypes.py_object(Stalled))
            worker.join(10)
            raise Stalled(f"{label}: no result after {timeout:.0f} s")
        try:
            if "error" in box:
                raise box["error"]
            if check is not None:
                check(box["value"])
        except BaseException:
            self.failed += 1
            raise
        self.records.append({"op": label, "wall_s": wall, "held_cpu_wait_s": waited})
        return box["value"]


def short_alias(directory: str) -> str:
    """A short path to ``directory`` that every process of this user can
    use while this process lives: ``/proc/<pid>/fd/<n>`` of an open
    descriptor of it. Ray binds its Unix sockets under its temp dir, and a
    socket path may hold at most 107 bytes, which a checkout at a deep
    path would exceed; through the alias Ray's files still land in the
    checkout."""
    os.makedirs(directory, exist_ok=True)
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    return f"/proc/{os.getpid()}/fd/{fd}"


def start_ray(ray_cpus: int) -> None:
    import ray
    import ray.data as rd

    # workers import the library from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    ray.init(
        address="local",
        num_cpus=ray_cpus,
        include_dashboard=False,
        _temp_dir=short_alias(os.path.join(CACHE, "ray")),
        object_store_memory=OBJECT_STORE_BYTES,
        log_to_driver=False,
    )
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_auto_log_stats = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload, bench: Bench, seconds: float, corpus_mb: float) -> dict:
    """Repeat the workload's iteration for ``seconds`` (at least twice) and
    reduce it to the end-to-end metrics, each the median over iterations.
    The first iteration is checked but not reported: it also pays for
    starting Ray's task workers, which later jobs of a session reuse."""
    from host import RssSampler
    from workloads import OP_REPORT, dir_stats

    iters: list[list[dict]] = []
    t0 = time.monotonic()
    with RssSampler() as rss:
        while len(iters) < 2 or time.monotonic() - t0 < seconds:
            per_iter = (time.monotonic() - t0) / max(len(iters), 1)
            if len(iters) >= 2 and time.monotonic() + per_iter > bench.deadline:
                break  # another iteration would not fit in the run
            start = len(bench.records)
            workload.iteration(bench)
            iters.append(bench.records[start:])
    bench.op("finish", workload.finish)
    warmup, iters = iters[0], iters[1:]
    job_s = [sum(r["wall_s"] for r in it) for it in iters]
    ops = {}
    for label, (name, unit) in OP_REPORT.items():
        vals = [corpus_mb / r["wall_s"] if unit == "MB/s" else r["wall_s"]
                for it in iters for r in it if r["op"] == label]
        if vals:
            ops[name] = {"unit": unit, **quartiles(vals)}
    out = dir_stats(workload.output_dir)
    return {
        "metrics": {
            "job_s": (statistics.median(job_s), "s"),
            "compression_ratio": (out["compression_ratio"], "ratio"),
            "stored_bytes_per_byte": (out["stored_bytes_per_byte"], "B/B"),
            "peak_rss_mb": (rss.peak_mb, "MB"),
        },
        "ops": ops,
        "output_part_files": out["part_files"],
        "warmup_job_s": sum(r["wall_s"] for r in warmup),
        "iteration_job_s": job_s,
    }


def _nproc() -> int:
    """CPUs as ``nproc`` reports them: it honours OMP_NUM_THREADS."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, default=DEFAULT_ROWS,
                    help="corpus rows (the smoke test runs a tiny corpus)")
    ap.add_argument("--ray-cpus", type=int, default=None,
                    help="Ray logical CPUs (default: what one encoder actor needs)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.monotonic()
    args = parse_args(argv)
    # a job still running after a watchdog stop must not start a second,
    # default Ray instance outside the checkout once this one is shut down
    os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"
    sys.path.insert(0, ROOT)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    try:
        import duckdb_raquet_ray
        from duckdb_raquet_ray.pipelines import encode
    except ImportError as e:
        print(f"cannot import the library from {ROOT}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(duckdb_raquet_ray.__file__).startswith(ROOT + os.sep):
        print(f"the library must come from this checkout ({ROOT}), not from "
              f"{duckdb_raquet_ray.__file__}", file=sys.stderr)
        return 2
    import host
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    ray_cpus = args.ray_cpus or encode.ENCODER_NUM_CPUS
    bench = Bench(ray_cpus, t_start + RUN_LIMIT_S - SHUTDOWN_MARGIN_S)
    logging.getLogger("ray.data").addHandler(bench.warnings)
    work = os.path.join(CACHE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)

    corpus = wl.Corpus(CACHE, args.rows, args.seed)  # untimed: inputs + reference
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": _nproc(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "ray_logical_cpus": ray_cpus,
        "rows": corpus.rows, "shards": wl.SHARDS, "row_group_rows": wl.ROW_GROUP_ROWS,
        "corpus_decoded_bytes": corpus.table.nbytes,
        "window_pre": host.window_probe(),
    }
    result = None
    error = None
    import ray

    try:
        try:
            t0 = time.perf_counter()
            start_ray(ray_cpus)
            ray_init_s = time.perf_counter() - t0
            if args.trace:
                import layers

                spans = os.path.join(CACHE, "trace", f"spans-{args.workload}-seed{args.seed}.jsonl")
                result = layers.traced_run(bench, corpus, work, spans)
            else:
                workload = wl.WORKLOADS[args.workload](corpus, work)
                preps = []
                for _ in range(SETUP_REPS):
                    bench.op("setup", workload.prepare, workload.check_prepared)
                    preps.append(bench.records[-1]["wall_s"])
                result = measure(workload, bench, args.seconds, corpus.table.nbytes / 1e6)
                result["metrics"]["setup_s"] = (statistics.median(preps), "s")
                context["setup"] = {"ray_init_s": ray_init_s, "prepare_s": preps}
        except Exception as e:  # reported below; the run then fails
            error = e
            traceback.print_exc(file=sys.stderr)

        context["window_post"] = host.window_probe()
        context["window_ok"] = host.window_ok(context["window_pre"], context["window_post"])
        context["fail_frac"] = bench.failed / max(bench.attempted, 1)
        context["ops_holding_cpus_before_gc"] = bench.held_cpu_ops
        context["held_cpu_wait_s"] = bench.held_cpu_wait_s
        context["op_log"] = bench.records
        if result is not None:
            context.update({k: v for k, v in result.items() if k != "metrics"})
        correct = error is None and bench.failed == 0 and result is not None
        metrics = {}
        if result is not None:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
        print(json.dumps({"context": context}))
        print(json.dumps({
            "correct": correct,
            "attempted": max(bench.attempted, 1),
            "failed": bench.failed if correct else max(bench.failed, 1),
            "metrics": metrics,
        }), flush=True)
    finally:
        # Ray stops only after the result is out: after a watchdog stop a
        # job thread is still inside Ray, and stopping Ray under it can end
        # this process at once
        ray_procs = host.descendants()
        try:
            ray.shutdown()  # may end in SystemExit when a job thread is stuck
        finally:
            host.reap(ray_procs)
            shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
