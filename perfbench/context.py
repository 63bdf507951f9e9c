"""Per-run context record: the machine and library facts that explain a
run's figures.  None of it is a metric."""

from __future__ import annotations

import os
import platform
import time


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def membw_gbps(mib: int = 64, reps: int = 5) -> float:
    """Single-stream memory bandwidth: best of *reps* copies of a
    *mib* MiB buffer, counting read + write bytes."""
    import numpy as np

    src = np.ones(mib << 17, dtype=np.float64)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return round(2 * src.nbytes / best / 1e9, 2)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def versions() -> dict:
    import pyarrow
    import ray

    return {
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
    }
