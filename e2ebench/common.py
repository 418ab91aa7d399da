"""Shared plumbing: program location, thread budget, child processes, stats.

Every process the benchmark starts runs with one BLAS/OpenMP thread, so
the numbers measure the program and not the scheduler of a small box.
Scratch files (tenant directories, suite ``--out`` directories, child
``TMPDIR``) live under ``.e2ebench-work/`` in the checkout and are
removed when a run ends.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench-work"

#: One BLAS/OpenMP thread in every process (the benchmark's own too).
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def bootstrap() -> None:
    """Pin threads and put the checkout's ``src`` first on ``sys.path``.

    Must run before numpy is imported anywhere in this process.
    """
    os.environ.update(THREAD_ENV)
    os.environ.pop("REPRO_FULL_SCALE", None)  # the suite runs at reduced scale
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no program to measure ({SRC / 'repro'} is missing)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """The benchmark's ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def fresh_dir(name: str) -> Path:
    """An empty scratch directory under the work area."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env() -> dict[str, str]:
    """Environment for the program's processes: src on the path, one
    BLAS thread, unbuffered stdout, temp files inside the checkout."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(tmp)
    return env


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Interrupt a child, then kill it if it lingers; always reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)  # the server drains its batchers
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def kill_tree(proc: subprocess.Popen) -> None:
    """SIGKILL a child and its own children (the suite's pool worker)."""
    pids = [proc.pid]
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == proc.pid:
            pids.append(int(stat.parent.name))
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def cleanup_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
