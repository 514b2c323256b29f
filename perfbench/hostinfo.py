"""Environment and host-noise record attached to every benchmark run.

On a shared virtual machine other tenants compete for the same CPUs,
so every run records what it ran on and how busy the host was: load
average and a CPU-rate probe at both ends, and the hypervisor steal
ticks accrued during the run.  Nothing here influences a measurement; it is read-only context for
whoever compares two runs.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import time


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines() if "openblas" in line}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def _steal_ticks():
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def _loadavg():
    parts = _read("/proc/loadavg").split()
    return [float(p) for p in parts[:3]] if len(parts) >= 3 else None


def _probe_cpu_ms() -> float:
    """CPU milliseconds of a fixed pure-Python loop: how fast the host runs us now."""
    c0 = time.process_time()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.process_time() - c0) * 1e3


class NoiseRecord:
    """Load average, steal ticks and a CPU-rate probe, at construction and finish()."""

    def __init__(self):
        self._t0 = time.monotonic()
        self._steal0 = _steal_ticks()
        self._load0 = _loadavg()
        self._probe0 = _probe_cpu_ms()

    def finish(self) -> dict:
        steal1 = _steal_ticks()
        delta = None if self._steal0 is None or steal1 is None else steal1 - self._steal0
        return {
            "wall_s": time.monotonic() - self._t0,
            "loadavg_start": self._load0,
            "loadavg_end": _loadavg(),
            "steal_ticks": delta,
            "ticks_per_s": os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else None,
            "probe_cpu_ms_start": self._probe0,
            "probe_cpu_ms_end": _probe_cpu_ms(),
        }
