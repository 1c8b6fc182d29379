#!/usr/bin/env python3
"""spontrad benchmark: three closed-loop workloads, checked outputs, a traced run.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 35 --trace 0

Workloads (see BENCHMARK.json and workloads.py):
  cli-session        one fresh ``spontrad`` process per command, from a seeded mix
  coverage-mc        one ``spontrad coverage`` study per operation, bayes and chi2
  high-count-limits  in-process posterior_spec + lambda_credible_limit at large y
  all                the three in turn, each in a fresh process with its own
                     result line

With ``--trace 0`` the run is timed and reports the end-to-end metrics; with
``--trace 1`` it runs the same seeded operations in-process with spans around
the program's modules and reports the per-layer metrics.  The code measured is
the checkout's ``src`` tree.  The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.  The line
before it stamps the run (git sha, source hash, Python, backend, nproc, seed),
and the full result with its notes goes to ``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import harness
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("cli-session", "coverage-mc", "high-count-limits")


def source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    # Only this checkout's own repository counts, not one that encloses it.
    return lines[1] if proc.returncode == 0 and Path(lines[0]) == ROOT else None


def stamp(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Where and on what a result was measured, so unlike runs are not compared."""
    import spontrad
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": git_sha(), "src_sha256": source_sha256(ROOT / "src"),
            "python": platform.python_version(), "backend": spontrad.backend_name(),
            "spontrad_version": getattr(spontrad, "__version__", None),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def run_workload(workload: str, seed: int, seconds: float, trace: int, sizes=None) -> tuple:
    """Run one workload; returns (stamp, Outcome).  Also used by smoke.py."""
    with harness.Context(ROOT, workload, seed, sizes or harness.Sizes()) as ctx:
        if trace:
            outcome = tracing.traced_run(ctx, workload, seed, seconds)
        else:
            outcome = workloads.TIMED[workload](ctx, seed, seconds)
        info = stamp(workload, seed, seconds, trace)
        record = dict(stamp=info, result=outcome.result(), wrong=outcome.wrong[:20],
                      notes=outcome.notes)
        name = f"{workload}-seed{seed}-trace{trace}.json"
        (ctx.results / name).write_text(json.dumps(record, indent=2, default=str) + "\n",
                                        encoding="utf-8")
    return info, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spontrad" / "__init__.py").is_file():
        print(f"no spontrad sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        return run_all(args)
    info, outcome = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for reason in outcome.wrong[:5]:
        print(f"wrong: {args.workload}: {reason}", file=sys.stderr)
    named = {k: {"value": v, "unit": u} for k, (v, u) in outcome.notes.get("named", {}).items()}
    print(json.dumps({"stamp": info, "named_metrics": named}))
    print(json.dumps(outcome.result()))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own, so that peak_rss_mb, a
    high-water mark, and the modules a workload imports do not carry over."""
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        *head, last = proc.stdout.splitlines()
        print(*head, sep="\n")
        print(json.dumps(dict(workload=name, **json.loads(last))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
