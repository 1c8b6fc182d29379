"""The three timed workloads.  Each is a closed loop with one client: a single
process, no extra threads, every operation waiting for the previous one.

End-to-end metrics, reported on every workload with the workload's own unit
of work (a command, a coverage study, a library limit):

- ``latency_p50_ms`` and ``latency_tail_ms``: median and tail latency of one
  operation.  On coverage-mc the median is that of each route's studies,
  averaged over the two routes.  The tail is p90 for cli-session, p75 for
  coverage-mc (few, long operations) and p99 for high-count-limits.
- ``throughput_per_s``: commands per second on cli-session, completed trials
  per second on coverage-mc, successful limits per second on high-count-limits.
- ``peak_rss_mb``: the largest resident set of the harness and its children.
- ``setup_s``: median over repeated set-ups of making the workload's inputs
  with the standard library (``inputs.py``).  The program does not run inside
  this timer, so set-up time moves only when the benchmark changes; the
  warm-up on a pinned paper anchor follows it, untimed and checked.  Half the
  set-ups run before the timed region and half after it, so a slow spell of
  the machine that lasts a second or two moves the median less.

Outputs are checked after the timed region (``reference.py``).

cli-session and high-count-limits run a fixed, seeded plan of distinct
operations (``cycle``): the timed loop goes round the plan for ``--seconds``,
and any operation it did not reach runs after it, untimed.  ``attempted`` and
``failed`` count the plan's distinct operations, so they are the same on every
run with the same seed however many rounds the machine managed; every
execution is checked, and an operation fails if any of its executions does.
coverage-mc fails no operation and counts the studies it ran.
"""

import itertools
import json
import statistics
import time
from array import array

import inputs
import reference
from harness import Command, Context, Outcome, peak_rss_mb, percentile, run_command

Y_BANDS = (("lt1e3", 0, 1e3), ("1e3-1e5", 1e3, 1e5), ("ge1e5", 1e5, float("inf")))


def band_of(y: int) -> str:
    return next(name for name, lo, hi in Y_BANDS if lo <= y < hi)


def timed_setups(make, repeats: int, seconds: list):
    """Call ``make`` ``repeats`` times, adding each duration to ``seconds``;
    returns what the last call made."""
    for _ in range(repeats):
        t0 = time.perf_counter()
        made = make()
        seconds.append(time.perf_counter() - t0)
    return made


def cycle(n_steps: int, seconds: float, step) -> tuple:
    """Run ``step(k % n_steps)`` for k = 0, 1, ... until ``seconds`` have
    passed, then on, untimed, until every step has run once.  A step returns
    the number of operations it ran.

    Returns (seconds the timed steps took, operations they ran).
    """
    k = timed = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        timed += step(k % n_steps)
        k += 1
    wall = time.perf_counter() - t0
    while k < n_steps:
        step(k)
        k += 1
    return wall, timed


def write_cli_inputs(ctx: Context, seed: int) -> tuple:
    """Both spectrum files; returns (paths by name, rows by path)."""
    rng = inputs.make_rng("cli-session", seed, "spectra")
    rows = {"small": inputs.small_spectrum(rng),
            "large": inputs.large_spectrum(rng, ctx.sizes.large_bins)}
    files, spectra = {}, {}
    for name, data in rows.items():
        path = ctx.work / f"{name}.csv"
        path.write_text(inputs.format_spectrum(data), encoding="utf-8")
        files[name] = str(path)
        spectra[str(path)] = data
    return files, spectra


def cli_plan(ctx: Context, seed: int, files: dict) -> list:
    """The run's ``cli_rounds`` seeded rounds of the command mix, each with its
    own output names."""
    rng = inputs.make_rng("cli-session", seed, "commands")
    plan = []
    for index in range(ctx.sizes.cli_rounds):
        prefix = str(ctx.work / f"r{index}-")
        plan.append([Command(kind, argv) for kind, argv
                     in inputs.cli_round(rng, files, prefix, ctx.sizes.large_bins)])
    return plan


def make_cli_inputs(ctx: Context, seed: int) -> tuple:
    """Set-up of cli-session: (spectrum rows by path, flat command plan, rounds)."""
    files, spectra = write_cli_inputs(ctx, seed)
    rounds = cli_plan(ctx, seed, files)
    return spectra, [cmd for commands in rounds for cmd in commands], rounds


def check_commands(ctx: Context, out: Outcome, runs, spectra: dict, n_ops: int) -> None:
    """Check every (operation, command) run; an operation fails once however
    many of its executions fail."""
    schemas = reference.Schemas(ctx.root)
    failed_kinds = out.notes.setdefault("failed_kinds", {})
    failed = set()
    for op, cmd in runs:
        bad = reference.check_command(schemas, cmd.argv, cmd.code, cmd.stdout, cmd.stderr,
                                      spectra, ctx.sizes.large_bins)
        if (cmd.code or bad) and op not in failed:
            failed.add(op)
            out.fail(f"{cmd.kind}: {bad or 'exit ' + str(cmd.code)}", wrong=bool(bad))
            failed_kinds[cmd.kind] = failed_kinds.get(cmd.kind, 0) + 1
        elif bad:
            out.wrong.append(f"{cmd.kind}: {bad}")
    out.attempted = n_ops


def cli_session(ctx: Context, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    setups = []
    spectra, flat, rounds = timed_setups(lambda: make_cli_inputs(ctx, seed),
                                         ctx.sizes.setup_repeats, setups)
    # Warms the program up outside the set-up timer; checked after the timed region.
    anchor = run_command(ctx, Command("anchor", inputs.ANCHOR_LIMIT_ARGV))

    runs = []
    starts = list(itertools.accumulate((len(r) for r in rounds), initial=0))

    def run_round(index):
        runs.extend((starts[index] + i, run_command(ctx, Command(cmd.kind, cmd.argv)))
                    for i, cmd in enumerate(rounds[index]))
        return len(rounds[index])

    wall, n_timed = cycle(len(rounds), seconds, run_round)
    timed = runs[:n_timed]
    rss = peak_rss_mb()
    timed_setups(lambda: make_cli_inputs(ctx, seed), ctx.sizes.setup_repeats, setups)

    payload = reference.parse_json(anchor.stdout) or {}
    bad = (f"anchor command exited {anchor.code}: {anchor.stderr[-200:]}" if anchor.code
           else reference.check_anchor_value(payload.get("lambda_upper_s_inv")))
    if bad:
        out.wrong.append(bad)
    check_commands(ctx, out, runs, spectra, len(flat))
    latencies = [cmd.seconds * 1e3 for _, cmd in timed]
    out.metrics = {
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (percentile(latencies, 90), "ms"),
        "throughput_per_s": (len(timed) / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    out.notes["named"] = {"cmd_latency_p50_ms": out.metrics["latency_p50_ms"],
                          "cmd_latency_p90_ms": out.metrics["latency_tail_ms"],
                          "cmds_per_s": out.metrics["throughput_per_s"]}
    out.notes["executions"] = {"timed": len(timed), "all": len(runs)}
    return out


def plan_studies(ctx: Context, seed: int) -> tuple:
    """The first ``planned_studies`` studies, and the stream that continues them."""
    studies = coverage_studies(ctx, seed)
    return list(itertools.islice(studies, ctx.sizes.planned_studies)), studies


def coverage_studies(ctx: Context, seed: int):
    rng = inputs.make_rng("coverage-mc", seed, "studies")
    index = 0
    while True:
        study = inputs.coverage_study(rng, index, ctx.sizes.coverage_trials)
        yield study, Command(study["method"], inputs.coverage_argv(study))
        index += 1


def check_studies(ctx: Context, out: Outcome, runs) -> list:
    """Check each (study, command); returns the report of each, None if it failed."""
    schemas = reference.Schemas(ctx.root)
    ref = reference.CoverageReference(ctx.sizes.chi2_reference_trials)
    out.attempted = len(runs)
    reports = []
    for study, cmd in runs:
        bad = ref.check(study, cmd.code, cmd.stdout, cmd.stderr, schemas)
        if cmd.code or bad:
            out.fail(f"coverage {study}: {bad or 'exit ' + str(cmd.code)}", wrong=bool(bad))
        reports.append(None if cmd.code or bad else json.loads(cmd.stdout))
    return reports


def coverage_mc(ctx: Context, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    setups = []
    planned, studies = timed_setups(lambda: plan_studies(ctx, seed),
                                    ctx.sizes.plan_setup_repeats, setups)
    anchor = run_command(ctx, Command("anchor", inputs.coverage_argv(inputs.ANCHOR_COVERAGE)))

    runs = []
    studies = itertools.chain(planned, studies)
    t0 = time.perf_counter()
    # Whole bayes/chi2 pairs only, so every run holds the same mix.
    while time.perf_counter() - t0 < seconds or len(runs) % 2:
        study, cmd = next(studies)
        runs.append((study, run_command(ctx, cmd)))
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    timed_setups(lambda: plan_studies(ctx, seed), ctx.sizes.plan_setup_repeats, setups)

    want = inputs.ANCHOR_COVERAGE
    got = reference.parse_json(anchor.stdout) or {}
    if (got.get("covered"), got.get("trials")) != (want["covered"], want["trials"]):
        out.wrong.append(f"coverage anchor: got {got or anchor.stderr[-200:]}, "
                         f"want covered {want['covered']}/{want['trials']}")
    completed = sum(report["trials"] for report in check_studies(ctx, out, runs) if report)
    latencies = [cmd.seconds * 1e3 for _, cmd in runs]
    by_route = {}
    for study, cmd in runs:
        by_route.setdefault(study["method"], []).append(cmd.seconds * 1e3)
    out.metrics = {
        # Half the studies take one route and half the other, so the median of
        # all of them falls in the gap between the two; each route's median does not.
        "latency_p50_ms": (statistics.fmean(map(statistics.median, by_route.values())), "ms"),
        # A run holds about thirty studies, half per route: p75 sits inside the
        # slower route's studies, where p90 would rest on two or three of them.
        "latency_tail_ms": (percentile(latencies, 75), "ms"),
        "throughput_per_s": (completed / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    out.notes["named"] = {"trials_per_s": out.metrics["throughput_per_s"]}
    return out


def unit_grid(spontrad) -> list:
    return [spontrad.EnergyBin(center=float(c), width=1.0, counts=0) for c in range(15, 49)]


def limit_once(spontrad, bins, y, confidence, coupling):
    """One high-count operation: posterior_spec then lambda_credible_limit."""
    spec = spontrad.posterior_spec(y, bins, 1e-7, spontrad.CouplingMode.from_label(coupling))
    return spontrad.lambda_credible_limit(spec, confidence).lambda_upper


# How LimitRecords stores a limit that raised instead of returning.
NUMERICAL, ERROR = -1.0, -2.0


class LimitRecords:
    """Compact record of the high-count loop, one entry per execution.

    Arrays keep the harness's own memory small and flat, so peak_rss_mb does
    not grow with the number of operations a run completes.  A limit that
    raised NumericalError is stored as NUMERICAL, any other error as ERROR
    with its reason in ``errors``.
    """

    def __init__(self):
        self.y, self.confidence = array("q"), array("d")
        self.coupling, self.lam, self.seconds = array("b"), array("d"), array("d")
        self.errors = {}

    def append(self, draw, lam, seconds) -> None:
        y, confidence, coupling = draw
        self.y.append(y)
        self.confidence.append(confidence)
        self.coupling.append(inputs.COUPLINGS.index(coupling))
        self.lam.append(lam)
        self.seconds.append(seconds)

    def __len__(self) -> int:
        return len(self.y)

    def failed_by_band(self, n_ops: int) -> dict:
        """(NumericalErrors, attempted) per y_total band over the first n_ops."""
        counts = {name: [0, 0] for name, _, _ in Y_BANDS}
        for y, lam in zip(self.y[:n_ops], self.lam[:n_ops]):
            counts[band_of(y)][0] += lam == NUMERICAL
            counts[band_of(y)][1] += 1
        return counts


def run_limit(spontrad, bins, draw, records: LimitRecords) -> None:
    """Time one limit and record it; NumericalError is the documented failure,
    any other error is a wrong answer."""
    y, confidence, coupling = draw
    t0 = time.perf_counter()
    try:
        lam = limit_once(spontrad, bins, y, confidence, coupling)
    except spontrad.NumericalError:
        lam = NUMERICAL
    except Exception as exc:  # noqa: BLE001 - any other error is a wrong answer
        lam = ERROR
        records.errors[len(records)] = f"limit y={y}: {type(exc).__name__}: {exc}"
    records.append(draw, lam, time.perf_counter() - t0)


def check_limit_records(out: Outcome, records: LimitRecords, n_ops: int) -> set:
    """Check a run of ``n_ops`` distinct limits; returns the operations that failed.

    Execution j is operation j % n_ops.  The first n_ops executions are checked
    against scipy, and every later one must repeat its operation's first value
    exactly.
    """
    lam = records.lam
    wrong, reason = reference.check_limits(records.y[:n_ops], records.confidence[:n_ops],
                                           records.coupling[:n_ops], lam[:n_ops])
    failed = dict.fromkeys(wrong, (reason, True))
    for j, why in records.errors.items():
        failed.setdefault(j % n_ops, (why, True))
    for j in range(n_ops, len(lam)):
        if lam[j] != lam[j % n_ops]:
            failed.setdefault(j % n_ops, (f"limit {j % n_ops} gave {lam[j % n_ops]!r}, "
                                          f"then {lam[j]!r}", True))
    for op in range(n_ops):
        if lam[op] == NUMERICAL:
            failed.setdefault(op, ("numerical", False))
    for why, is_wrong in failed.values():
        out.fail(why, wrong=is_wrong)
    out.attempted = n_ops
    return set(failed)


def plan_limits(ctx: Context, seed: int) -> list:
    """The run's ``planned_limits`` distinct limit draws."""
    rng = inputs.make_rng("high-count-limits", seed, "draws")
    return inputs.limit_draws(rng, ctx.sizes.planned_limits)


def high_count_limits(ctx: Context, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    setups = []
    draws = timed_setups(lambda: plan_limits(ctx, seed), ctx.sizes.plan_setup_repeats, setups)
    import spontrad
    bins = unit_grid(spontrad)
    anchor = limit_once(spontrad, bins, 130, 0.95, "mass-prop")

    records = LimitRecords()
    chunk = ctx.sizes.limit_chunk

    def run_chunk(index):
        part = draws[index * chunk:(index + 1) * chunk]
        for draw in part:
            run_limit(spontrad, bins, draw, records)
        return len(part)

    busy, timed = cycle(-(-len(draws) // chunk), seconds, run_chunk)
    rss = peak_rss_mb()
    timed_setups(lambda: plan_limits(ctx, seed), ctx.sizes.plan_setup_repeats, setups)

    bad = reference.check_anchor_value(anchor)
    if bad:
        out.wrong.append(bad)
    failed = check_limit_records(out, records, len(draws))
    succeeded = sum(1 for j in range(timed)
                    if records.lam[j] >= 0 and j % len(draws) not in failed)
    ms = [s * 1e3 for s in records.seconds[:timed]]
    out.metrics = {
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_tail_ms": (percentile(ms, 99), "ms"),
        "throughput_per_s": (succeeded / busy, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    out.notes["named"] = {"limits_per_s": out.metrics["throughput_per_s"],
                          "limit_latency_p50_us": (out.metrics["latency_p50_ms"][0] * 1e3, "us"),
                          "limit_latency_p99_us": (out.metrics["latency_tail_ms"][0] * 1e3, "us")}
    out.notes["numerical_failures_by_band"] = records.failed_by_band(len(draws))
    out.notes["executions"] = {"timed": timed, "all": len(records)}
    return out


TIMED = {"cli-session": cli_session, "coverage-mc": coverage_mc,
         "high-count-limits": high_count_limits}
