#!/usr/bin/env python3
"""Per-kernel timing of spontrad's numerical kernels.

Runs six fixed loops over spontrad._kernels_py and prints the best time of
each.  Usage:  python benchmarks/bench_backends.py [repeats]
"""

import sys
import time


def _load_backends():
    from spontrad import _kernels_py
    return [("python", _kernels_py)]


def _time(fn, repeats):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def workload_reg_inc_gamma(mod):
    def run():
        acc = 0.0
        for s in (0.7, 1.0, 10.0, 131.0, 500.0):
            for i in range(400):
                acc += mod.reg_inc_gamma(s, 0.01 + i * (2.0 * s / 400.0))
        return acc
    return run


def workload_gamma_quantile(mod):
    def run():
        acc = 0.0
        for s in (1.0, 10.0, 131.0, 500.0):
            for i in range(200):
                acc += mod.gamma_quantile(s, i / 200.0)
        return acc
    return run


def workload_normal_quantile(mod):
    def run():
        acc = 0.0
        for i in range(1, 20000):
            acc += mod.normal_quantile(i / 20000.0)
        return acc
    return run


def workload_poisson_small(mod):
    def run():
        rng = mod.Rng(20260823)
        return sum(rng.poisson(7.67) for _ in range(100000))
    return run


def workload_poisson_large(mod):
    def run():
        rng = mod.Rng(20260823)
        return sum(rng.poisson(115.0) for _ in range(100000))
    return run


def workload_uniform(mod):
    def run():
        rng = mod.Rng(99)
        acc = 0.0
        for _ in range(200000):
            acc += rng.uniform()
        return acc
    return run


WORKLOADS = [
    ("reg_inc_gamma (2k evals)", workload_reg_inc_gamma),
    ("gamma_quantile (800 evals)", workload_gamma_quantile),
    ("normal_quantile (20k evals)", workload_normal_quantile),
    ("poisson mean=7.67 (100k)", workload_poisson_small),
    ("poisson mean=115 (100k)", workload_poisson_large),
    ("uniform (200k)", workload_uniform),
]


def main():
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    [(name, mod)] = _load_backends()
    print(f"{'workload':<30}{name:>12}")
    for label, make in WORKLOADS:
        best, _ = _time(make(mod), repeats)
        print(f"{label:<30}{best * 1e3:>10.2f}ms")


if __name__ == "__main__":
    main()
