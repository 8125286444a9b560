"""Host-side helpers: process discovery under /proc, the Ray worker
peak-RSS sampler, the STREAM / first-touch window probe, and reaping of
every process a run started."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

# One fresh process: STREAM copy+add bandwidth over arrays far larger than
# any CPU cache, then first-touch backing of a fresh anonymous region. The
# second axis is invisible to STREAM: a host whose page-fault path is slow
# slows the encode kernel while STREAM still reads full bandwidth.
_PROBE_CODE = """
import json, time
import numpy as np
n = 4 << 20
a = np.ones(n); b = np.ones(n); c = np.empty(n)
np.copyto(c, a)
best = float("inf")
for _ in range(5):
    t0 = time.perf_counter()
    np.copyto(c, a)
    np.add(a, b, out=c)
    best = min(best, time.perf_counter() - t0)
stream = 5 * 8 * n / best / 1e9
m = 256 << 20
t0 = time.perf_counter()
z = np.zeros(m, dtype=np.uint8)
z[::4096] = 1
fault = m / (time.perf_counter() - t0) / 1e9
print(json.dumps({"stream_gbps": stream, "fault_gbps": fault}))
"""


def window_probe() -> dict:
    """STREAM (GB/s, copy + add, best of 5) and first-touch fault
    bandwidth (GB/s) measured in one fresh single process."""
    import json

    out = subprocess.run(
        [sys.executable, "-c", _PROBE_CODE],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def window_ok(pre: dict, post: dict) -> bool:
    """The host window held across the workload: memory bandwidth and the
    page-fault path after it are still close to what they were before."""
    return (
        post["stream_gbps"] >= 0.7 * pre["stream_gbps"]
        and post["fault_gbps"] >= 0.6 * pre["fault_gbps"]
    )


def _ppid_map() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # the command field may hold spaces and parentheses: split after it
        fields = stat[stat.rfind(b")") + 2:].split()
        out[int(name)] = int(fields[1])
    return out


def descendants(root: int | None = None) -> list[int]:
    """Every live process below ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read()
    except OSError:
        return b""


def _reset_hwm(pid: int) -> None:
    """Set the process's VmHWM back to its current resident set."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssSampler:
    """Largest VmHWM (peak resident set) of any Ray worker process below
    this driver. A sampler is needed because actor processes exit when
    their job ends, taking their high-water mark with them: the known
    workers' VmHWM is read every ``interval`` seconds, and the process
    tree is rescanned for new workers every ``rescan`` seconds. The peaks
    of workers that already exist on entry are reset first, so what they
    did before the sampled phase does not count."""

    def __init__(self, interval: float = 0.05, rescan: float = 0.25):
        self.interval = interval
        self.rescan = rescan
        self.peak_kb = 0
        self._workers: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _find_workers(self) -> None:
        self._workers = [p for p in descendants() if _cmdline(p).startswith(b"ray::")]

    def _sample(self) -> None:
        for pid in self._workers:
            self.peak_kb = max(self.peak_kb, _vm_hwm_kb(pid))

    def _loop(self) -> None:
        next_scan = 0.0
        while not self._stop.is_set():
            if time.monotonic() >= next_scan:
                self._find_workers()
                next_scan = time.monotonic() + self.rescan
            self._sample()
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self._find_workers()
        for pid in self._workers:
            _reset_hwm(pid)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._find_workers()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def reap(pids: list[int], timeout: float = 20.0) -> list[int]:
    """Wait until every pid in ``pids`` has exited; SIGKILL what is still
    alive after ``timeout``. Returns the pids that had to be killed."""
    def alive(pid: int) -> bool:
        try:
            with open(f"/proc/{pid}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            return False
        return stat[stat.rfind(b")") + 2:stat.rfind(b")") + 3] != b"Z"

    deadline = time.monotonic() + timeout
    left = [p for p in pids if alive(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = [p for p in left if alive(p)]
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while [p for p in left if alive(p)] and time.monotonic() < deadline:
        time.sleep(0.05)
    # collect any zombies that are our own children
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG) == (0, 0):
                break
        except ChildProcessError:
            break
    return left
