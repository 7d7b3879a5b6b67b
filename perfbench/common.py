"""Shared helpers: locating the program, the environment block, statistics."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Operations per run that the tail percentile must leave beyond it.
TAIL_BEYOND = 10


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def load_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and import repro.

    Refuses to fall back on any other installed copy: the benchmark
    measures the code next to it or nothing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise ProgramMissing(f"imported repro from {repro.__file__}, "
                             f"not from {SRC}")


def child_env() -> dict:
    """Environment for program subprocesses: as found, plus ``src``."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def _blas_threads() -> dict:
    """OpenBLAS libraries mapped into this process and their thread count."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return found
    for path in paths:
        if not os.path.isfile(path):
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """The environment block printed with every result."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    thread_vars = {name: os.environ.get(name) for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    repro_vars = {k: v for k, v in sorted(os.environ.items())
                  if k.startswith("REPRO_")}
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(), "thread_vars": thread_vars,
        "repro_vars": repro_vars,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it: ``(value, percentile)``.  Needs more than ``TAIL_BEYOND`` samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no tail with "
                         f"{TAIL_BEYOND} beyond it")
    rank = n - TAIL_BEYOND          # 1-based rank of the reported sample
    return float(ordered[rank - 1]), 100.0 * rank / n


def self_peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(record: dict) -> None:
    """Print one JSON object on its own line."""
    print(json.dumps(record), flush=True)
