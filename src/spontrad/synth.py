"""Synthetic Poisson spectra from the 1/E model and coverage studies.

Bin counts are drawn independently as Poisson(alpha_true * width / E_i +
flat_background_per_bin); the background term exercises robustness and is not
part of the physical model.  All randomness flows through the seedable
portable generator in the kernels backend, with per-trial streams derived
from (seed, trial index), so every artifact here is bit-reproducible.
"""

from dataclasses import dataclass

from .backend import kernels
from .bayes import PosteriorSpec, harmonic_sum, lambda_credible_limit
from .chi2fit import alpha_upper_limit, fit_alpha, fit_counts
from .errors import InsufficientDataError, ValidationError
from .scan import METHODS
from .spectrum import BinnedSpectrum, EnergyBin, RangeSelection, select, total_counts

CHI2_MIN_COUNTS = 5
# Largest bin mean sampled: up to 2**52 every count is exact as a float.
MAX_BIN_MEAN = 2.0 ** 52


@dataclass(frozen=True)
class SynthConfig:
    """Generation model: 1/E amplitude, inclusive center grid, flat background."""

    alpha_true: float
    e_min: float
    e_max: float
    bin_width: float
    flat_background_per_bin: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.alpha_true >= 0:
            raise ValidationError(f"alpha_true must be >= 0, got {self.alpha_true}")
        if not self.e_min < self.e_max:
            raise ValidationError(
                f"e_min {self.e_min} must be below e_max {self.e_max}")
        if not self.bin_width > 0:
            raise ValidationError(f"bin_width must be positive, got {self.bin_width}")
        if not self.flat_background_per_bin >= 0:
            raise ValidationError(
                f"flat_background_per_bin must be >= 0, got {self.flat_background_per_bin}")

    def centers(self) -> list:
        """Bin centers e_min, e_min + w, ... up to and including e_max."""
        n = int((self.e_max - self.e_min) / self.bin_width + 0.5) + 1
        grid = [self.e_min + i * self.bin_width for i in range(n)]
        return [c for c in grid if c <= self.e_max + 1e-9 * self.bin_width]

    def bin_means(self) -> list:
        """Poisson mean of each bin: alpha_true * width / E_i + background."""
        width = self.bin_width
        return [self.alpha_true * (width / 1.0) / center + self.flat_background_per_bin
                for center in self.centers()]


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of a coverage study.

    trials counts the completed trials (the denominator); trials whose
    spectrum left the chosen route nothing to fit are tallied in skipped
    and excluded.
    """

    trials: int
    covered: int
    method: str
    confidence: float
    skipped: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.covered <= self.trials:
            raise ValidationError(
                f"covered must be in [0, {self.trials}], got {self.covered}")
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.confidence < 1.0:
            raise ValidationError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.skipped < 0:
            raise ValidationError(f"skipped must be >= 0, got {self.skipped}")

    @property
    def coverage_fraction(self) -> float:
        return self.covered / self.trials


def _checked_bins(config: SynthConfig) -> tuple:
    """Zero-count bins on the config's grid, validated as one spectrum.

    Every trial shares this grid, so checking it once raises exactly the
    ValidationError that the first trial's bins would.
    """
    width = config.bin_width
    return BinnedSpectrum(bins=tuple(EnergyBin(center=c, width=width, counts=0)
                                     for c in config.centers())).bins


def _checked_means(config: SynthConfig) -> list:
    """The grid's Poisson means, checked before any count is drawn.

    Centers ascend from e_min, so the first bin is the one a non-positive
    energy fails; building it raises that bin's error and keeps bin_means
    off a zero center.  A mean above MAX_BIN_MEAN is rejected.
    """
    EnergyBin(center=config.e_min, width=config.bin_width, counts=0)
    means = config.bin_means()
    if max(means) > MAX_BIN_MEAN:
        raise ValidationError(
            f"bin mean {max(means):.6g} exceeds 2**52; counts would not be exact")
    return means


def draw_counts(config: SynthConfig, means, trial_index: int = 0) -> list:
    """One trial's bin counts as plain ints, from the trial's own stream.

    means is config.bin_means().  Each mean is drawn once, so this uses the
    loop sampler; run_coverage draws the same counts from a Poisson plan.
    """
    poisson = kernels.Rng(kernels.mix_seed(config.seed, trial_index)).poisson
    return [poisson(mean) for mean in means]


def sample_spectrum(config: SynthConfig, trial_index: int = 0) -> BinnedSpectrum:
    """Draw one spectrum; identical (config, trial_index) gives identical bins."""
    centers = config.centers()
    counts = draw_counts(config, _checked_means(config), trial_index)
    width = config.bin_width
    return BinnedSpectrum(
        bins=tuple(EnergyBin(center=c, width=width, counts=n)
                   for c, n in zip(centers, counts)),
        source_label=f"synth(seed={config.seed},trial={trial_index})")


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
    if method == "chi2":
        sel = RangeSelection(e_min=config.e_min, e_max=config.e_max,
                             min_counts=CHI2_MIN_COUNTS)
        fit = fit_alpha(select(spectrum, sel))
        return alpha_upper_limit(fit, confidence)
    if method == "bayes":
        return _bayes_limit(total_counts(spectrum), harmonic_sum(spectrum.bins),
                            confidence)
    raise ValidationError(f"method must be one of {METHODS}, got {method!r}")


def run_coverage(config: SynthConfig, trials: int, method: str,
                 confidence: float) -> CoverageReport:
    """Fraction of per-trial upper limits that lie at or above alpha_true.

    Each trial gives the limit alpha_limit_for_trial gives on
    sample_spectrum(config, i), computed on plain count lists.  A bayes
    limit depends on the trial only through its total count, so it is
    computed once per distinct total.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if method not in METHODS:
        raise ValidationError(f"method must be one of {METHODS}, got {method!r}")
    if not 0.0 < confidence < 1.0:
        raise ValidationError(f"confidence must be in (0, 1), got {confidence}")
    bins = _checked_bins(config)
    means = _checked_means(config)
    centers = [b.center for b in bins]
    # The means are the same for every trial, so the sampler state is too.
    plan = kernels.poisson_plan(means)
    harmonic = harmonic_sum(bins)
    # Centers ascend from e_min, so the chi2 window is a prefix of the grid.
    window = centers[:sum(c <= config.e_max for c in centers)]
    limits = {}
    covered = 0
    skipped = 0
    for i in range(trials):
        counts = kernels.Rng(kernels.mix_seed(config.seed, i)).poisson_counts(plan)
        if method == "bayes":
            y_total = sum(counts)
            limit = limits.get(y_total)
            if limit is None:
                limit = limits[y_total] = _bayes_limit(y_total, harmonic, confidence)
        else:
            kept = [(c, n) for c, n in zip(window, counts) if n >= CHI2_MIN_COUNTS]
            if len(kept) < 2:
                skipped += 1
                continue
            fit = fit_counts([c for c, _ in kept], [n for _, n in kept])
            limit = alpha_upper_limit(fit, confidence)
        if limit >= config.alpha_true:
            covered += 1
    completed = trials - skipped
    if completed == 0:
        raise InsufficientDataError(
            f"all {trials} trials were skipped; nothing to report")
    return CoverageReport(trials=completed, covered=covered, method=method,
                          confidence=confidence, skipped=skipped)
