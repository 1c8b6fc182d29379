"""Traced run: per-layer numbers from spans recorded around the program's calls.

The program is not changed.  ``Tracer.install`` replaces each public function
listed in ``MODULES`` by a wrapper, everywhere a ``spontrad`` module holds a
reference to it, and ``Tracer.remove`` puts the originals back.  A wrapper
records a span (name, start, end, parent, operation id) in memory; a call
made from inside a span of the same module is only counted, since it cannot
change that module's self time.  The spans are written out when the run ends.

Each workload runs its seeded operations in-process twice, untraced and
traced side by side (``alternate``), and ``trace.overhead_ratio`` is the ratio
of the two wall times.  A module's self time is its span time minus the time
its child spans cover; with the harness's own share they add up to the traced
wall time.
"""

import contextlib
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

import kernels_bench
import workloads
from harness import Command, Outcome, run_in_process

MODULES = {
    "cli": ("spontrad.cli", ("main",)),
    "spectrum": ("spontrad.spectrum", ("load_spectrum", "save_spectrum", "format_spectrum",
                                       "select", "total_counts")),
    "synth": ("spontrad.synth", ("sample_spectrum", "alpha_limit_for_trial")),
    "bayes": ("spontrad.bayes", ("posterior_spec", "lambda_credible_limit", "harmonic_sum",
                                 "reg_inc_gamma", "gamma_quantile")),
    "chi2fit": ("spontrad.chi2fit", ("fit_alpha", "alpha_upper_limit", "normal_quantile")),
    "model": ("spontrad.model", ("lambda_from_alpha",)),
    "scan": ("spontrad.scan", ("scan", "log_grid", "save_curves", "format_curves")),
    "svg": ("spontrad.svg", ("save_exclusion_svg", "render_exclusion_svg")),
    # the module spontrad.backend selected: compiled or pure Python
    "kernels": (None, ("reg_inc_gamma", "gamma_quantile", "normal_quantile")),
}

# Work units per call, for the per-bin and per-point metrics.
UNITS = {
    "spectrum.load_spectrum": lambda args, result: len(result.bins),
    "spectrum.save_spectrum": lambda args, result: len(args[0].bins),
    "scan.scan": lambda args, result: len(result.points),
}

BANDS = [name for name, _, _ in workloads.Y_BANDS]

# Every per-layer metric: (name, unit, better).  A traced run reports all of
# them; a layer its workload does not reach reads 0.
PER_LAYER = [
    ("import.python_startup_ms", "ms", "lower"),
    ("import.spontrad_cli_ms", "ms", "lower"),
    ("import.spontrad_self_ms", "ms", "lower"),
    ("cli.self_ms_per_cmd", "ms/cmd", "lower"),
    ("spectrum.load_us_per_bin", "us/bin", "lower"),
    ("spectrum.loads_per_cmd", "count/cmd", "lower"),
    ("spectrum.save_us_per_bin", "us/bin", "lower"),
    ("spectrum.select_us_per_call", "us/call", "lower"),
    ("spectrum.bins_built_per_trial", "count/trial", "lower"),
    ("synth.sample_us_per_trial", "us/trial", "lower"),
    ("synth.limit_us_per_trial.bayes", "us/trial", "lower"),
    ("synth.limit_us_per_trial.chi2", "us/trial", "lower"),
    ("kernels.poisson_ns_per_draw.inversion", "ns/draw", "lower"),
    ("kernels.poisson_ns_per_draw.ptrs", "ns/draw", "lower"),
    ("kernels.uniform_ns_per_draw", "ns/draw", "lower"),
    ("kernels.reg_inc_gamma_us_per_call", "us/call", "lower"),
    ("kernels.gamma_quantile_us_per_call", "us/call", "lower"),
    ("kernels.normal_quantile_us_per_call", "us/call", "lower"),
    ("kernels.reg_inc_gamma_calls_per_limit", "count/limit", "lower"),
    ("kernels.compiled_backend_measured", "count", "higher"),
    *[(f"bayes.limit_us_per_call.{band}", "us/call", "lower") for band in BANDS],
    *[(f"bayes.numerical_error_ratio.{band}", "ratio", "lower") for band in BANDS],
    ("bayes.distinct_totals_ratio", "ratio", "higher"),
    ("chi2fit.fit_us_per_call", "us/call", "lower"),
    ("scan.us_per_point", "us/point", "lower"),
    ("svg.render_ms_per_plot", "ms/plot", "lower"),
    *[(f"{module}.{kind}", unit, "lower") for module in [*MODULES, "harness"]
      for kind, unit in (("self_s", "s"), ("calls", "count")) if (module, kind) != ("harness", "calls")],
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    """Spans and call counts recorded around the program's public functions.

    Spans live in flat arrays (about 34 bytes each), so a traced run of
    several hundred thousand calls stays small.
    """

    def __init__(self):
        self.names = ["harness.op"]            # span name by id; module is its prefix
        self._ids = {"harness.op": 0}
        self.name_id, self.parent, self.op = array("H"), array("l"), array("l")
        self.start, self.end = array("d"), array("d")
        self.stack = []                        # (span index, module) of the open spans
        self.calls = Counter()                 # calls per function, nested ones included
        self.units = Counter()                 # work units per function (bins, points)
        self._op = -1
        self._undo = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _open(self, name_id: int, module: str) -> int:
        index = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self.stack.append((index, module))
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def operation(self, op: int):
        """Root span of one operation; its self time is the harness's."""
        self._op = op
        index = self._open(0, "harness")
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, module: str, qual: str, fn, units):
        stack, calls = self.stack, self.calls
        name_id = self._ids.setdefault(qual, len(self.names))
        if name_id == len(self.names):
            self.names.append(qual)

        def traced(*args, **kwargs):
            calls[qual] += 1
            if stack and stack[-1][1] == module:
                return fn(*args, **kwargs)
            index = self._open(name_id, module)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if units is not None:
                self.units[qual] += units(args, result)
            return result
        return traced

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "spontrad" or n.startswith("spontrad.")]
        for module, (modname, names) in MODULES.items():
            owner = (sys.modules["spontrad.backend"].kernels if modname is None
                     else sys.modules.get(modname))
            for name in names:
                fn = getattr(owner, name, None)
                if fn is None:
                    continue
                wrapper = self._wrap(module, f"{module}.{name}", fn, UNITS.get(f"{module}.{name}"))
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, fn))
        # EnergyBin constructions are counted, not spanned: there are too many.
        energy_bin = getattr(sys.modules.get("spontrad.spectrum"), "EnergyBin", None)
        post_init = getattr(energy_bin, "__post_init__", None)
        if post_init is not None:
            calls = self.calls

            def counted(bin_):
                calls["spectrum.EnergyBin"] += 1
                return post_init(bin_)
            energy_bin.__post_init__ = counted
            self._undo.append((energy_bin, "__post_init__", post_init))

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def spans(self, name: str = None):
        """(name, start, end, parent, op) of every span, or of those called ``name``."""
        for i, name_id in enumerate(self.name_id):
            if name is None or self.names[name_id] == name:
                yield self.names[name_id], self.start[i], self.end[i], self.parent[i], self.op[i]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for span in self.spans():
                fh.write("%s,%r,%r,%d,%d\n" % span)


# The harness's own share of the traced wall time above which the per-module
# self times no longer account for the run.
HARNESS_SHARE_MAX = 0.25


def analyse(tracer: Tracer, wall: float, out: Outcome) -> dict:
    """Self time per module, inclusive time and span count per function.

    The module self times and ``harness.self_s`` add up to ``wall`` by
    construction.  The split is only meaningful if every span was closed and
    lies inside its parent, its children do not overlap (no negative self
    time), and the harness's own share stays small; those are checked.
    """
    covered = [0.0] * len(tracer)
    for name, start, end, parent, _ in tracer.spans():
        if end < start:
            out.wrong.append(f"trace: span {name} was never closed")
            break
        if parent >= 0:
            covered[parent] += end - start
            if not tracer.start[parent] <= start <= end <= tracer.end[parent]:
                out.wrong.append(f"trace: span {name} not inside its parent")
                break
    self_s, inclusive, count = Counter(), Counter(), Counter()
    roots = 0.0
    overlapping = 0
    for (name, start, end, parent, _), child in zip(tracer.spans(), covered):
        own = end - start - child
        overlapping += own < -1e-9
        self_s[name.split(".")[0]] += own
        inclusive[name] += end - start
        count[name] += 1
        roots += (end - start) if parent < 0 else 0.0
    if overlapping:
        out.wrong.append(f"trace: {overlapping} spans have overlapping children")
    self_s["harness"] += wall - roots
    if not 0.0 <= self_s["harness"] <= HARNESS_SHARE_MAX * wall:
        out.wrong.append(f"trace: harness self time {self_s['harness']:.3f} s of "
                         f"{wall:.3f} s is outside [0, {HARNESS_SHARE_MAX}] of the wall time")
    return {"self_s": self_s, "inclusive": inclusive, "count": count}


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def trace_metrics(tracer: Tracer, stats: dict, wall: float, untraced: float) -> dict:
    """Per-layer values every workload reports the same way."""
    calls, units = tracer.calls, tracer.units
    inc, n = stats["inclusive"], stats["count"]
    values = {
        "cli.self_ms_per_cmd": _per(stats["self_s"]["cli"], calls["cli.main"], 1e3),
        "spectrum.load_us_per_bin": _per(inc["spectrum.load_spectrum"],
                                         units["spectrum.load_spectrum"], 1e6),
        "spectrum.loads_per_cmd": _per(calls["spectrum.load_spectrum"], calls["cli.main"]),
        "spectrum.save_us_per_bin": _per(inc["spectrum.save_spectrum"],
                                         units["spectrum.save_spectrum"], 1e6),
        "spectrum.select_us_per_call": _per(inc["spectrum.select"], n["spectrum.select"], 1e6),
        "synth.sample_us_per_trial": _per(inc["synth.sample_spectrum"],
                                          n["synth.sample_spectrum"], 1e6),
        "kernels.reg_inc_gamma_calls_per_limit": _per(calls["kernels.reg_inc_gamma"],
                                                      calls["bayes.lambda_credible_limit"]),
        "chi2fit.fit_us_per_call": _per(inc["chi2fit.fit_alpha"], n["chi2fit.fit_alpha"], 1e6),
        "scan.us_per_point": _per(inc["scan.scan"] + inc["scan.save_curves"],
                                  units["scan.scan"], 1e6),
        "svg.render_ms_per_plot": _per(inc["svg.save_exclusion_svg"],
                                       n["svg.save_exclusion_svg"], 1e3),
        "harness.self_s": stats["self_s"]["harness"],
        "trace.wall_s": wall,
        "trace.overhead_ratio": _per(wall, untraced),
    }
    for module in MODULES:
        values[f"{module}.self_s"] = stats["self_s"][module]
        values[f"{module}.calls"] = sum(c for name, c in calls.items()
                                        if name.startswith(module + ".")
                                        and name != "spectrum.EnergyBin")
    return values


def span_time_by_op(tracer: Tracer, name: str, key) -> dict:
    """Mean duration (us) of the spans called ``name``, grouped by key(op)."""
    groups = defaultdict(list)
    for _, start, end, _, op in tracer.spans(name):
        groups[key(op)].append(end - start)
    return {k: statistics.fmean(v) * 1e6 for k, v in groups.items()}


def alternate(tracer: Tracer, budget: float, prepare, plain, traced, more=lambda n: False):
    """Run step n untraced and traced, alternating which goes first, until the
    untraced steps have taken ``budget`` seconds and ``more(n)`` is false.

    ``prepare(n)`` makes step n's inputs outside the timed region.  Running the
    two side by side puts both under the same machine load.  Returns (untraced
    seconds, traced seconds, steps).
    """
    seconds = [0.0, 0.0]
    n = 0
    while seconds[0] < budget or more(n):
        prepare(n)
        for trace in ((0, 1) if n % 2 == 0 else (1, 0)):
            if trace:
                tracer.install()
            t0 = time.perf_counter()
            (traced if trace else plain)(n)
            seconds[trace] += time.perf_counter() - t0
            if trace:
                tracer.remove()
        n += 1
    return seconds[0], seconds[1], n


def traced_cli_session(ctx, seed, budget, out, tracer):
    from spontrad import cli
    spectra, flat, _ = workloads.make_cli_inputs(ctx, seed)
    pairs = []

    def prepare(n):
        cmd = flat[n % len(flat)]
        pairs.append((Command(cmd.kind, cmd.argv), Command(cmd.kind, cmd.argv)))

    def traced(n):
        with tracer.operation(n):
            run_in_process(cli.main, pairs[n][1])

    untraced, wall, _ = alternate(tracer, budget, prepare,
                                  lambda n: run_in_process(cli.main, pairs[n][0]), traced,
                                  more=lambda n: n < len(flat))
    for plain, cmd in pairs:
        if (plain.code, plain.stdout) != (cmd.code, cmd.stdout):
            out.wrong.append(f"trace changed the output of {cmd.kind}")
    workloads.check_commands(ctx, out, [(n % len(flat), cmd) for n, (_, cmd) in enumerate(pairs)],
                             spectra, len(flat))
    return untraced, wall, {}


def drive_coverage(synth, errors, study: dict, totals: list) -> tuple:
    """run_coverage's loop, calling sample_spectrum and alpha_limit_for_trial."""
    config = synth.SynthConfig(alpha_true=study["alpha"], e_min=15.0, e_max=48.0,
                               bin_width=1.0, seed=study["seed"])
    covered = completed = 0
    for i in range(study["trials"]):
        spectrum = synth.sample_spectrum(config, trial_index=i)
        if study["method"] == "bayes":
            totals.append(sum(b.counts for b in spectrum.bins))
        try:
            limit = synth.alpha_limit_for_trial(spectrum, config, study["method"], 0.95)
        except (errors.SelectionEmptyError, errors.InsufficientDataError):
            continue
        completed += 1
        covered += limit >= config.alpha_true
    return covered, completed


def traced_coverage_mc(ctx, seed, budget, out, tracer):
    from spontrad import cli, errors, synth
    studies = workloads.coverage_studies(ctx, seed)
    runs, traced, totals = [], [], []

    def prepare(n):
        runs.append(next(studies))
        totals.append([])

    def trace(n):
        with tracer.operation(n):
            traced.append(drive_coverage(synth, errors, runs[n][0], totals[n]))

    untraced, wall, _ = alternate(tracer, budget, prepare,
                                  lambda n: run_in_process(cli.main, runs[n][1]), trace,
                                  more=lambda n: n % 2)
    reports = workloads.check_studies(ctx, out, runs)
    for report, (covered, completed) in zip(reports, traced):
        if report and (report["covered"], report["trials"]) != (covered, completed):
            out.wrong.append(f"trace gives covered {covered}/{completed}, the CLI "
                             f"{report['covered']}/{report['trials']}")
    trials = sum(study["trials"] for study, _ in runs)
    by_method = span_time_by_op(tracer, "synth.alpha_limit_for_trial",
                                lambda op: runs[op][0]["method"])
    return untraced, wall, {
        "spectrum.bins_built_per_trial": _per(tracer.calls["spectrum.EnergyBin"], trials),
        "synth.limit_us_per_trial.bayes": by_method.get("bayes", 0.0),
        "synth.limit_us_per_trial.chi2": by_method.get("chi2", 0.0),
        "bayes.distinct_totals_ratio": _per(sum(len(set(t)) for t in totals),
                                            sum(len(t) for t in totals)),
    }


def traced_high_count_limits(ctx, seed, budget, out, tracer):
    import spontrad
    bins = workloads.unit_grid(spontrad)
    draws = workloads.plan_limits(ctx, seed)[:ctx.sizes.traced_limits]
    chunk = ctx.sizes.limit_chunk
    n_chunks = -(-len(draws) // chunk)
    plain, records = workloads.LimitRecords(), workloads.LimitRecords()

    def untraced_step(n):
        start = n % n_chunks * chunk
        for draw in draws[start:start + chunk]:
            workloads.run_limit(spontrad, bins, draw, plain)

    def traced_step(n):
        start = n % n_chunks * chunk
        for draw in draws[start:start + chunk]:
            with tracer.operation(len(records)):
                workloads.run_limit(spontrad, bins, draw, records)

    untraced, wall, _ = alternate(tracer, budget, lambda n: None, untraced_step, traced_step,
                                  more=lambda n: n < n_chunks)
    if records.lam != plain.lam:
        out.wrong.append("trace changed the limits")
    workloads.check_limit_records(out, records, len(draws))
    values = {}
    limit_us = span_time_by_op(tracer, "bayes.lambda_credible_limit",
                               lambda op: workloads.band_of(records.y[op]))
    for band, (failed, attempted) in records.failed_by_band(len(draws)).items():
        values[f"bayes.limit_us_per_call.{band}"] = limit_us.get(band, 0.0)
        values[f"bayes.numerical_error_ratio.{band}"] = _per(failed, attempted)
    return untraced, wall, values


TRACED = {"cli-session": traced_cli_session, "coverage-mc": traced_coverage_mc,
          "high-count-limits": traced_high_count_limits}


def import_metrics(ctx, out: Outcome) -> dict:
    """Interpreter start-up and the import of spontrad.cli, in fresh processes."""
    timer = ("import time; t = time.perf_counter(); import spontrad.cli; "
             "print(time.perf_counter() - t)")
    startup, cli_ms, self_ms = [], [], []
    for _ in range(ctx.sizes.import_repeats):
        t0 = time.perf_counter()
        ctx.python(["-c", "pass"])
        startup.append((time.perf_counter() - t0) * 1e3)
        timed = ctx.python(["-c", timer])
        profiled = ctx.python(["-X", "importtime", "-c", "import spontrad.cli"])
        if timed.returncode or profiled.returncode:
            out.wrong.append(f"import spontrad.cli failed: {(timed.stderr or profiled.stderr)[-200:]}")
            return {}
        cli_ms.append(float(timed.stdout) * 1e3)
        rows = [line.split("|") for line in profiled.stderr.splitlines()
                if line.startswith("import time:") and line.count("|") == 2]
        self_ms.append(sum(int(row[0].split(":")[1]) for row in rows
                           if row[2].strip().split(".")[0] == "spontrad") / 1e3)
    return {"import.python_startup_ms": statistics.median(startup),
            "import.spontrad_cli_ms": statistics.median(cli_ms),
            "import.spontrad_self_ms": statistics.median(self_ms)}


def traced_run(ctx, workload: str, seed: int, seconds: float) -> Outcome:
    import spontrad.backend
    out = Outcome()
    values = import_metrics(ctx, out)
    kernel_values, mismatches, note = kernels_bench.run(
        ctx.root, spontrad.backend.kernels, ctx.sizes.kernel_repeats)
    values.update({name: value for name, (value, _) in kernel_values.items()})
    out.wrong.extend(f"kernel backends disagree on {name}" for name in mismatches)
    if note:
        out.notes["kernels"] = note

    tracer = Tracer()
    untraced, wall, extra = TRACED[workload](ctx, seed, seconds / 3.0, out, tracer)
    values.update(extra)
    values.update(trace_metrics(tracer, analyse(tracer, wall, out), wall, untraced))
    tracer.write(ctx.results / f"spans-{workload}-seed{seed}.csv")
    out.notes["spans"] = len(tracer)
    out.metrics = {name: (float(values.get(name, 0.0)), unit) for name, unit, _ in PER_LAYER}
    return out
