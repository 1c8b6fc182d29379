"""Synthetic Poisson spectra from the 1/E model and coverage studies.

Bin counts are drawn independently as Poisson(alpha_true * width / E_i +
flat_background_per_bin); the background term exercises robustness and is not
part of the physical model.  All randomness flows through the seedable
portable generator in the kernels backend, with per-trial streams derived
from (seed, trial index), so every artifact here is bit-reproducible.
"""

import bisect
import functools
import math
import os
import threading
from collections import Counter

from .backend import kernels
from .bayes import PosteriorSpec, harmonic_sum, lambda_credible_limit
from .chi2fit import alpha_upper_limit, closed_form, fit_alpha, normal_quantile
from .constants import CHI2_MIN_COUNTS, check_confidence, check_method
from .errors import InsufficientDataError, ValidationError
from .spectrum import (MAX_TRIALS, BinnedSpectrum, EnergyBin, RangeSelection, Record,
                       center_grid, checked_integer, select, total_counts)

# Largest bin mean sampled: up to 2**52 every count is exact as a float.
MAX_BIN_MEAN = 2.0 ** 52
# Fewest trials a forked worker is given, so that a fork (a few ms with the
# copy-on-write faults after it) splits only studies whose trials cost more.
MIN_TRIALS_PER_WORKER = 256
# A study draws its trials in blocks of up to _BLOCK_TRIALS lane streams
# (kernels.lane_uniforms), and a block's rows hold at most about
# _BLOCK_UNIFORMS uniforms: a wide grid takes fewer trials per block, and a
# block of one trial takes its scalar stream.
_BLOCK_TRIALS = 256
_BLOCK_UNIFORMS = 2 ** 16
# Most distinct (total, harmonic sum, confidence) bayes limits kept.
_BAYES_MEMO_SIZE = 4096


def _stream_key(value, name: str) -> int:
    """A seed or trial index as an int in [0, 2**64): the streams take its
    low 64 bits, so a wider one would repeat another's stream."""
    value = checked_integer(value, name)
    if not 0 <= value < 2 ** 64:
        raise ValidationError(f"{name} must be in [0, 2**64), got {value}")
    return value


class SynthConfig(Record):
    """Generation model: 1/E amplitude, inclusive center grid, flat background;
    not frozen."""

    __slots__ = ("alpha_true", "e_min", "e_max", "bin_width", "flat_background_per_bin",
                 "seed")

    def __init__(self, alpha_true: float, e_min: float, e_max: float, bin_width: float,
                 flat_background_per_bin: float = 0.0, seed: int = 0):
        if not alpha_true >= 0:
            raise ValidationError(f"alpha_true must be >= 0, got {alpha_true}")
        if not e_min < e_max:
            raise ValidationError(f"e_min {e_min} must be below e_max {e_max}")
        if not bin_width > 0:
            raise ValidationError(f"bin_width must be positive, got {bin_width}")
        if not flat_background_per_bin >= 0:
            raise ValidationError(
                f"flat_background_per_bin must be >= 0, got {flat_background_per_bin}")
        seed = _stream_key(seed, "seed")
        self.alpha_true, self.e_min, self.e_max = alpha_true, e_min, e_max
        self.bin_width, self.flat_background_per_bin, self.seed = (
            bin_width, flat_background_per_bin, seed)

    def centers(self) -> list:
        """Checked bin centers e_min, e_min + w, ... up to and including e_max."""
        return center_grid(self.e_min, self.e_max, self.bin_width)

    def bin_means(self, centers=None) -> list:
        """Poisson mean of each bin: alpha_true * width / E_i + background,
        on centers if given (self.centers() already built)."""
        width = self.bin_width
        return [self.alpha_true * (width / 1.0) / center + self.flat_background_per_bin
                for center in (self.centers() if centers is None else centers)]


class CoverageReport(Record):
    """Outcome of a coverage study.

    trials counts the completed trials (the denominator); trials whose
    spectrum left the chosen route nothing to fit are tallied in skipped
    and excluded.  Not frozen.
    """

    __slots__ = ("trials", "covered", "method", "confidence", "skipped")

    def __init__(self, trials: int, covered: int, method: str, confidence: float,
                 skipped: int = 0):
        if trials < 1:
            raise ValidationError(f"trials must be >= 1, got {trials}")
        if not 0 <= covered <= trials:
            raise ValidationError(f"covered must be in [0, {trials}], got {covered}")
        check_method(method)
        check_confidence(confidence)
        if skipped < 0:
            raise ValidationError(f"skipped must be >= 0, got {skipped}")
        self.trials, self.covered, self.skipped = trials, covered, skipped
        self.method, self.confidence = method, confidence

    @property
    def coverage_fraction(self) -> float:
        return self.covered / self.trials

    @property
    def coverage_stderr(self) -> float:
        """Binomial standard error of coverage_fraction."""
        p = self.coverage_fraction
        return math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def requested_trials(self) -> int:
        return self.trials + self.skipped


def _checked_means(config: SynthConfig, centers: list) -> list:
    """The Poisson means of the checked centers = config.centers(); a mean
    above MAX_BIN_MEAN is rejected before any count is drawn."""
    means = config.bin_means(centers)
    if max(means) > MAX_BIN_MEAN:
        raise ValidationError(
            f"bin mean {max(means):.6g} exceeds 2**52; counts would not be exact")
    return means


def draw_counts(config: SynthConfig, plan, trial_index: int = 0) -> list:
    """One trial's bin counts as plain ints, from the trial's own stream.

    plan is kernels.poisson_plan(config.bin_means()); a study draws every
    trial from the same plan.
    """
    uniform = kernels.Rng(kernels.mix_seed(config.seed, trial_index)).uniform
    return kernels.poisson_counts(plan, uniform)


def _trial_streams(seed: int, start: int, stop: int, plan):
    """The uniform callable of each trial start..stop-1 of seed, in order.

    A block's rows hold about the uniforms a trial draws from plan: one per
    inversion mean and 5/2 per PTRS mean (two per attempt, and PTRS accepts
    about four attempts in five at the means of a coverage study).  A trial
    that draws more goes on in its scalar stream.
    """
    sums, states = plan
    inversion = sum(cdf is not None for cdf in sums)
    ptrs = sum(cdf is None and state is not None for cdf, state in zip(sums, states))
    row = inversion + math.ceil(2.5 * ptrs)
    block = max(1, min(_BLOCK_TRIALS, _BLOCK_UNIFORMS // max(row, 1)))
    for first in range(start, stop, block):
        last = min(first + block, stop)
        if last - first == 1:
            yield kernels.Rng(kernels.mix_seed(seed, first)).uniform
        else:
            yield from kernels.lane_uniforms(seed, first, last, row)


def sample_spectrum(config: SynthConfig, trial_index: int = 0) -> BinnedSpectrum:
    """Draw one spectrum; identical (config, trial_index) gives identical bins.

    trial_index is an integer in [0, 2**64).  The grid and its Poisson plan
    are built on each call, and nothing is kept after it returns.
    """
    trial_index = _stream_key(trial_index, "trial_index")
    centers = config.centers()
    plan = kernels.poisson_plan(_checked_means(config, centers))
    width = config.bin_width
    return BinnedSpectrum(
        bins=tuple(EnergyBin(center=c, width=width, counts=n)
                   for c, n in zip(centers, draw_counts(config, plan, trial_index))),
        source_label=f"synth(seed={config.seed},trial={trial_index})")


@functools.lru_cache(maxsize=_BAYES_MEMO_SIZE)
def _bayes_limit(y_total: int, harmonic: float, confidence: float) -> float:
    # Amplitude-space posterior: expected total = alpha * harmonic_sum,
    # so reuse the rate machinery with a unit conversion factor.
    spec = PosteriorSpec(y_total=y_total, harmonic_sum=harmonic, conversion=1.0)
    return lambda_credible_limit(spec, confidence).lambda_upper


def alpha_limit_for_trial(spectrum: BinnedSpectrum, config: SynthConfig,
                          method: str, confidence: float) -> float:
    """Upper limit on the 1/E amplitude for one synthetic spectrum.

    The chi2 route applies the deployed low-count filter before fitting, so
    coverage measures the real procedure.  The bayes route converts the
    expected-count quantile back to amplitude via the harmonic sum alone;
    no detector conversion enters, both routes bound the same alpha.
    """
    check_method(method)
    if method == "chi2":
        sel = RangeSelection(e_min=config.e_min, e_max=config.e_max,
                             min_counts=CHI2_MIN_COUNTS)
        fit = fit_alpha(select(spectrum, sel))
        return alpha_upper_limit(fit, confidence)
    return _bayes_limit(total_counts(spectrum), harmonic_sum(spectrum.bins), confidence)


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_trials(count, trials: int) -> tuple:
    """Sum count(start, stop) -> (covered, skipped) over trials 0..trials-1.

    The trials are cut into one contiguous range per worker.  The first
    range runs here; each other range runs in a forked child that writes
    "covered skipped" to a pipe and always leaves through os._exit, so it
    never returns into the caller or flushes inherited stdio buffers.
    Trials are deterministic, so a child that writes nothing has failed and
    its range is re-run here; ranges are summed in trial order, so the
    chi2 route's re-run raises the exception its serial loop would.  A
    range that could not be forked also runs here.  A process with other
    threads is never forked, and no child outlives the call.
    """
    workers = max(1, min(_usable_cpus(), trials // MIN_TRIALS_PER_WORKER))
    if workers == 1 or not hasattr(os, "fork") or threading.active_count() != 1:
        return count(0, trials)
    bounds = [trials * k // workers for k in range(workers + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    children = []  # (pid, read end of its pipe), one per range after the first
    reaped = 0
    try:
        for start, stop in ranges[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: the rest run here
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                try:
                    os.write(write_fd, b"%d %d" % count(start, stop))
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, read_fd))
        covered, skipped = count(*ranges[0])
        for k, (start, stop) in enumerate(ranges[1:]):
            reply = b""
            if k < len(children):
                pid, read_fd = children[k]
                # One write shorter than PIPE_BUF arrives whole: one read gets it.
                reply = os.read(read_fd, 64)
                os.waitpid(pid, 0)
                reaped += 1
            c, s = map(int, reply.split()) if reply else count(start, stop)
            covered += c
            skipped += s
        return covered, skipped
    finally:
        if reaped < len(children):
            import signal  # only here: every spontrad command would pay its import
            for pid, _ in children[reaped:]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for _, read_fd in children:
            os.close(read_fd)


def run_coverage(config: SynthConfig, trials: int, method: str,
                 confidence: float) -> CoverageReport:
    """Fraction of per-trial upper limits that lie at or above alpha_true.

    Each trial gives the limit alpha_limit_for_trial gives on
    sample_spectrum(config, i), computed on plain count lists drawn a block
    of trials at a time (_trial_streams).  A bayes limit grows with the
    trial's total count alone, so a range of trials tallies its totals and
    counts those from y* on, the least drawn total whose limit reaches
    alpha_true, found by bisection; the limit memo serves
    alpha_limit_for_trial.  A chi2 limit is alpha_upper_limit's expression
    on closed_form's sums, with the normal quantile taken once per study:
    no FitResult is built and no chi2 is summed.  The grid is checked once,
    as centers; no spectrum is built.  The trials are split across the CPUs
    the process may use (_split_trials); the report does not depend on how.
    """
    trials = checked_integer(trials, "trials")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValidationError(f"{trials} trials exceed the limit of {MAX_TRIALS}")
    check_method(method)
    check_confidence(confidence)
    # Every trial shares this grid: one check raises what a trial's bins would.
    centers = config.centers()
    # The means are the same for every trial, so the sampler state is too.
    plan = kernels.poisson_plan(_checked_means(config, centers))
    # harmonic_sum's double for every trial's bins: (w / 1.0) / c == w / c.
    harmonic = math.fsum(config.bin_width / c for c in centers)
    # Centers ascend from e_min, so the chi2 window is a prefix of the grid.
    window = centers[:sum(c <= config.e_max for c in centers)]
    # alpha_upper_limit's normal quantile, taken once for a chi2 study.
    z = normal_quantile(confidence) if method == "chi2" else None

    def count(start: int, stop: int) -> tuple:
        """(covered, skipped) over trials start..stop-1."""
        totals = Counter()
        covered = skipped = 0
        for uniform in _trial_streams(config.seed, start, stop, plan):
            counts = kernels.poisson_counts(plan, uniform)
            if method == "bayes":
                totals[sum(counts)] += 1
            elif len(kept := [(c, n) for c, n in zip(window, counts) if n >= CHI2_MIN_COUNTS]) < 2:
                skipped += 1
            else:
                alpha_hat, sigma_alpha = closed_form(kept)
                covered += alpha_hat + z * sigma_alpha >= config.alpha_true
        if totals:  # a limit grows with the total: the trials from y* on cover
            drawn = sorted(totals)
            cut = bisect.bisect_left(drawn, True, key=lambda y: _bayes_limit(
                y, harmonic, confidence) >= config.alpha_true)
            covered = sum(totals[y] for y in drawn[cut:])
        return covered, skipped

    covered, skipped = _split_trials(count, trials)
    completed = trials - skipped
    if completed == 0:
        raise InsufficientDataError(
            f"all {trials} trials were skipped; nothing to report")
    return CoverageReport(trials=completed, covered=covered, method=method,
                          confidence=confidence, skipped=skipped)
