"""Kernel micro-loops: the ``kernels`` section of the traced run.

The six loops, the backend loading and the best-of timer are those of
``benchmarks/bench_backends.py``, imported from it.  This module only turns
each loop's time into a per-call metric and keeps the script's bit-parity
check: when both the compiled and the pure-Python backends import, their
results must agree; when only one does, the other is recorded as unmeasured.
"""

import contextlib
import io
import sys
from pathlib import Path

# Metric, unit and scale to one call for each loop of bench_backends.WORKLOADS,
# by the name of its factory; the counts are the loops' own.
PER_CALL = {
    "workload_reg_inc_gamma": ("kernels.reg_inc_gamma_us_per_call", "us/call", 1e6 / 2000),
    "workload_gamma_quantile": ("kernels.gamma_quantile_us_per_call", "us/call", 1e6 / 800),
    "workload_normal_quantile": ("kernels.normal_quantile_us_per_call", "us/call",
                                 1e6 / 19_999),
    # mean 7.67 stays on the inversion branch, mean 115 on PTRS rejection
    "workload_poisson_small": ("kernels.poisson_ns_per_draw.inversion", "ns/draw",
                               1e9 / 100_000),
    "workload_poisson_large": ("kernels.poisson_ns_per_draw.ptrs", "ns/draw", 1e9 / 100_000),
    "workload_uniform": ("kernels.uniform_ns_per_draw", "ns/draw", 1e9 / 200_000),
}


def bench_backends(root: Path):
    """The repository's ``benchmarks/bench_backends.py``, imported as a module."""
    path = str(root / "benchmarks")
    if path not in sys.path:
        sys.path.insert(0, path)
    import bench_backends as module
    return module


def run(root: Path, active, repeats: int) -> tuple:
    """Time each loop on the active backend, best of ``repeats``.

    Returns (metrics, mismatches, note): metrics maps name -> (value, unit);
    mismatches lists the loops on which two importable backends disagree; note
    is what the backend loader printed (the unmeasured compiled backend).
    """
    bench = bench_backends(root)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        backends = bench._load_backends()
    metrics, mismatches = {}, []
    for _, make in bench.WORKLOADS:
        name, unit, per_call = PER_CALL[make.__name__]
        best, result = bench._time(make(active), repeats)
        metrics[name] = (best * per_call, unit)
        results = {repr(result)} | {repr(make(mod)()) for _, mod in backends if mod is not active}
        if len(results) != 1:
            mismatches.append(name)
    metrics["kernels.compiled_backend_measured"] = (
        float(any(name == "compiled" for name, _ in backends)), "count")
    return metrics, mismatches, printed.getvalue().strip()
