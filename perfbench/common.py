"""Helpers shared by the workloads: locating the program, statistics,
memory, and the per-run scratch directory."""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

#: The checkout the benchmark runs from: the directory above this one.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches and stores, removed when a run ends.
WORK = ROOT / ".perfbench-work"
#: Trace documents of traced runs (kept for inspection).
TRACES = ROOT / ".perfbench-out"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a failure is recorded and kept."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)


class BenchError(RuntimeError):
    """The benchmark cannot run here (program missing, server dead)."""


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}/repro")
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for a child process that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def work_dir(name: str) -> Path:
    """A fresh, empty scratch directory for this process."""
    path = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clean_work() -> None:
    """Remove this process's scratch directories (and the parent, once
    no other run is using it)."""
    for path in WORK.glob(f"{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def mean(values: list[float]) -> float:
    """Mean, for the few, bimodal write latencies: their median jumps
    between the modes from one run to the next, the mean moves with the
    mix (see README.md)."""
    return float(statistics.fmean(values))


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it — the
    nearest-rank value with ten samples above — but never below the
    (upper) median, which it is for fewer than 21 samples."""
    ordered = sorted(values)
    return float(ordered[max(len(ordered) - 11, len(ordered) // 2)])


def peak_rss_mb() -> float:
    """This process's peak resident set size (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process (MB)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for a constant)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return 0.0 if mid == 0 else (q3 - q1) / abs(mid)


def finite(value: float) -> float:
    if not math.isfinite(value):
        raise BenchError(f"non-finite metric value {value!r}")
    return value
