#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/smoke.py

For every workload it checks that the timed run reports exactly the
end-to-end metrics of BENCHMARK.json and the traced run exactly the per-layer
metrics, each with its unit, and that both judge the outputs correct.  It then
runs each workload against deliberately wrong references, which the
per-operation output checks must catch (the run turns incorrect and a larger
share of operations fails), that a longer run of a workload that goes round a
fixed plan reports the same operations attempted and failed, and that the
benchmark refuses to run without the program's sources.  Exits 0 when all of that holds.
"""

import json
import shutil
import subprocess
import sys
from unittest import mock

import run
from harness import Sizes
import reference

TINY = Sizes(large_bins=400, coverage_trials=200, setup_repeats=1, plan_setup_repeats=1,
             planned_studies=2, cli_rounds=1, planned_limits=100, traced_limits=100,
             chi2_reference_trials=4000,
             limit_chunk=50, kernel_repeats=1, import_repeats=1)
SECONDS = 0.5
SEED = 7
# Workloads that go round a fixed plan of distinct operations.
PLANNED = ("cli-session", "high-count-limits")


EXPECTED_LIMIT = reference.expected_limit
PROBABILITY = reference.CoverageReference.probability


def skewed_limit(command: str):
    """expected_limit with a 0.1% error in the limits it expects for ``command``
    (``limit`` or ``scan``) and the right ones for the other."""
    def expected_limit(argv, spectra):
        want = EXPECTED_LIMIT(argv, spectra)
        if argv[0] == command:
            want["lambda_upper_s_inv"] *= 1.001
        return want
    return lambda: mock.patch.object(reference, "expected_limit", expected_limit)


# Wrong references per workload, none of which the anchor checks read, so only
# the per-operation checks can catch them: a 0.1% error in the expected limit
# payloads, then in the scan curves; coverage probabilities replaced by their
# complements; the two couplings' conversions swapped for the library limits.
WRONG = {
    "cli-session": [skewed_limit("limit"), skewed_limit("scan")],
    "coverage-mc": [lambda: mock.patch.object(
        reference.CoverageReference, "probability",
        lambda self, method, alpha: 1.0 - PROBABILITY(self, method, alpha))],
    "high-count-limits": [lambda: mock.patch.object(reference, "COUPLINGS",
                                                    reference.COUPLINGS[::-1])],
}


def failed_share(outcome) -> float:
    return outcome.failed / max(outcome.attempted, 1)


def declared(kind: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def bare_checkout_refused() -> bool:
    """Only BENCHMARK.json and the benchmark's files: run.py must exit non-zero
    and print no result."""
    bare = run.ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                               "cli-session", "--seed", "1", "--seconds", "1"], cwd=bare,
                              capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return proc.returncode != 0 and not proc.stdout.strip()


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    problems = []
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            _, outcome = run.run_workload(workload, SEED, SECONDS, trace, TINY)
            result = outcome.result()
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != declared(kind):
                problems.append(f"{workload} trace={trace}: metrics {sorted(units)} "
                                f"differ from BENCHMARK.json {kind}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {outcome.wrong[:3]}")
            if trace == 0:
                right = outcome
        if workload in PLANNED:
            # A longer run goes round the plan more often, but reports the same
            # distinct operations attempted and failed.
            _, longer = run.run_workload(workload, SEED, 3 * SECONDS, 0, TINY)
            if (longer.attempted, longer.failed) != (right.attempted, right.failed):
                problems.append(f"{workload}: attempted/failed {longer.attempted}/"
                                f"{longer.failed} in a longer run, {right.attempted}/"
                                f"{right.failed} in a shorter one")
        for index, patch in enumerate(WRONG[workload]):
            with patch():
                _, wrong = run.run_workload(workload, SEED, SECONDS, 0, TINY)
            # Only the per-operation checks add failed operations.
            if wrong.result()["correct"] or failed_share(wrong) <= failed_share(right):
                problems.append(f"{workload}: wrong reference {index} went unnoticed by "
                                f"the per-operation checks (failed {wrong.failed}/"
                                f"{wrong.attempted}, {right.failed}/{right.attempted} "
                                f"with the right one)")
        print(f"{workload}: ok" if not problems else f"{workload}: {problems}")
    if not bare_checkout_refused():
        problems.append("run.py did not refuse a directory without the program")
    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
