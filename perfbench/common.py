"""Shared helpers: percentiles, setup timing, host stamp, result line."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

#: Prefix of the line a part prints when it reaches a barrier.
BARRIER_PREFIX = "barrier "

#: Latency limit for one call or request: the service's own default
#: deadline (``serve --deadline-ms``), applied to the closed loops too.
LIMIT_MS = 250.0

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def barrier(name: str) -> None:
    """Report reaching ``name`` to ``run.py`` and wait until it says go.

    ``run.py`` releases the parts of one run together once all of them
    have reached ``name``, so they measure over the same seconds.
    """
    print(BARRIER_PREFIX + name, flush=True)
    if not sys.stdin.readline():
        raise SystemExit("run.py closed the barrier pipe")


def timed_setup(build):
    """Run ``build()`` once; returns ``(result, seconds)``."""
    started = time.perf_counter()
    result = build()
    return result, time.perf_counter() - started


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_stamp() -> dict:
    """CPUs, BLAS build and thread settings, interpreter and libraries."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
        blas_conf = blas.get("openblas configuration", "")
    except (KeyError, TypeError, ValueError):
        blas_desc, blas_conf = "unknown", ""
    threads_env = {
        name: os.environ.get(name)
        for name in (
            "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS",
            "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS",
        )
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": blas_desc,
        "blas_config": blas_conf,
        "blas_threads_env": threads_env,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit_result(attempted: int, failed: int, metrics: dict) -> None:
    """Print the run's result as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
