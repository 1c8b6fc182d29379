"""Shared plumbing: run context, sizes, the spontrad command runner and results."""

import contextlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# What the installed ``spontrad`` console script runs.
ENTRY = "import sys; from spontrad.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 120


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the smoke test shrinks them."""

    large_bins: int = 10_000
    coverage_trials: int = 3000
    # Set-ups before the timed region, and as many again after it: writing the
    # two spectrum files takes ~25 ms, a plan of studies or limits 2-10 ms.
    setup_repeats: int = 5
    plan_setup_repeats: int = 8
    # More studies than a run of 35 s uses even if a study got 30 times faster.
    planned_studies: int = 1024
    # The distinct operations of cli-session (rounds of eleven commands) and
    # high-count-limits, which the timed loop goes round: at the seed commit a
    # round takes about 1.7 s and the limits about 12 s, so a run of 30 s
    # passes over each plan twice or more.  The traced run takes the first
    # traced_limits draws.
    cli_rounds: int = 8
    planned_limits: int = 20_000
    traced_limits: int = 5000
    chi2_reference_trials: int = 40_000
    # Limits between two looks at the clock: long enough (over a millisecond) to time.
    limit_chunk: int = 500
    kernel_repeats: int = 3
    import_repeats: int = 7


class Context:
    """Checkout root, scratch directory and the environment children run in.

    Children see the checkout's ``src`` first on PYTHONPATH, so the code
    measured is the code in this checkout.
    """

    def __init__(self, root: Path, workload: str, seed: int, sizes: Sizes):
        self.root = root
        self.sizes = sizes
        self.work = root / ".perfbench" / f"{workload}-seed{seed}-{os.getpid()}"
        self.results = root / ".perfbench" / "results"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def __enter__(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.results.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)

    def python(self, args, timeout=COMMAND_TIMEOUT_S) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=timeout)


@dataclass
class Command:
    """One spontrad invocation and what it returned."""

    kind: str
    argv: list
    seconds: float = 0.0
    code: int = 0
    stdout: str = ""
    stderr: str = ""


def run_command(ctx: Context, cmd: Command) -> Command:
    """Run ``cmd`` as a fresh ``spontrad`` process; a hang counts as exit -1."""
    t0 = time.perf_counter()
    try:
        proc = ctx.python(["-c", ENTRY, *cmd.argv])
        cmd.code, cmd.stdout, cmd.stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        cmd.code, cmd.stderr = -1, f"timed out after {COMMAND_TIMEOUT_S} s"
    cmd.seconds = time.perf_counter() - t0
    return cmd


def run_in_process(main, cmd: Command) -> Command:
    """Run ``cmd`` through ``spontrad.cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cmd.code = main(cmd.argv)
        except SystemExit as exc:
            cmd.code = exc.code if isinstance(exc.code, int) else 1
    cmd.seconds = time.perf_counter() - t0
    cmd.stdout, cmd.stderr = out.getvalue(), err.getvalue()
    return cmd


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def percentile(values, pct: int) -> float:
    """Percentile ``pct`` (1..99) by statistics.quantiles' exclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


@dataclass
class Outcome:
    """What one run reports: operations, failures, wrong outputs and metrics."""

    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    notes: dict = field(default_factory=dict)

    def fail(self, reason: str, wrong: bool = True) -> None:
        """Count a failed operation; a wrong output also marks the run incorrect."""
        self.failed += 1
        if wrong:
            self.wrong.append(reason)

    def result(self) -> dict:
        return {"correct": not self.wrong, "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}
