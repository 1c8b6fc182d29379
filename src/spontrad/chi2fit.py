"""Weighted least-squares fit of the alpha/E model to a counting spectrum.

The chi-square uses Gaussian bin errors sigma_i^2 = y_i (Poisson-variance
approximation, the reason for the minimum-count selection upstream).  With a
single linear parameter the minimum is closed-form:

    alpha_hat = [sum 1/E_i] / [sum 1/(y_i E_i^2)]
    sigma_alpha = [sum 1/(y_i E_i^2)]^(-1/2)

and the one-sided upper bound at confidence q is alpha_hat + z(q)*sigma_alpha.
"""

import math

from .backend import kernels
from .constants import check_confidence
from .errors import InsufficientDataError, ValidationError
from .spectrum import BinnedSpectrum


class FitResult:
    """The chi-square minimum of fit_counts; not frozen."""

    __slots__ = ("alpha_hat", "sigma_alpha", "chi2", "n_bins")

    def __init__(self, alpha_hat: float, sigma_alpha: float, chi2: float, n_bins: int):
        _check_sigma(sigma_alpha)
        if not n_bins > 1:
            raise ValidationError(f"need more bins ({n_bins}) than parameters (1)")
        self.alpha_hat, self.sigma_alpha, self.chi2, self.n_bins = (
            alpha_hat, sigma_alpha, chi2, n_bins)

    @property
    def ndf(self) -> int:
        """Degrees of freedom of the minimum: bins minus the one parameter, alpha."""
        return self.n_bins - 1

    @property
    def reduced_chi2(self) -> float:
        return self.chi2 / self.ndf


def fit_alpha(spectrum: BinnedSpectrum) -> FitResult:
    """Closed-form chi-square minimum of y_i ~ alpha/E_i with sigma_i^2 = y_i.

    Expects a spectrum that already passed the minimum-count selection; a
    zero-count bin (infinite weight) is a precondition breach.
    """
    bins = spectrum.bins
    return fit_counts([b.center for b in bins], [b.counts for b in bins])


def fit_counts(centers, counts) -> FitResult:
    """fit_alpha on parallel lists of bin centers (keV) and integer counts."""
    if len(centers) != len(counts):
        raise ValidationError(f"{len(centers)} bin centers but {len(counts)} counts")
    if len(centers) < 2:
        raise InsufficientDataError(
            f"chi-square fit needs at least 2 bins, got {len(centers)}")
    if 0 in counts:
        raise ValidationError(
            f"zero-count bin at {centers[counts.index(0)]} keV; "
            "apply a min-counts selection first")

    pairs = list(zip(centers, counts))
    alpha_hat, sigma_alpha = closed_form(pairs)
    chi2 = math.fsum((y - alpha_hat / e) ** 2 / y for e, y in pairs)
    return FitResult(alpha_hat=alpha_hat, sigma_alpha=sigma_alpha, chi2=chi2,
                     n_bins=len(centers))


def closed_form(pairs) -> tuple:
    """(alpha_hat, sigma_alpha) of the fit over (center, count) pairs.

    The two sums of the module docstring, without the input checks:
    fit_counts checks the bins first, and a coverage trial keeps two or
    more bins, each of at least constants.CHI2_MIN_COUNTS counts.  A weight
    that overflows to inf gives sigma_alpha 0, which raises the error a
    FitResult raises for it; a weight whose divisor y*E^2 underflows to 0
    raises a ValidationError naming its bin.
    """
    sum_inv_e = math.fsum(1.0 / e for e, _ in pairs)
    try:
        sum_w = math.fsum(1.0 / (y * e * e) for e, y in pairs)
    except ZeroDivisionError:
        e, y = next((e, y) for e, y in pairs if y * e * e == 0)
        raise ValidationError(
            f"bin at {e} keV with {y} counts: its fit weight 1/(counts * E^2) "
            "is beyond the float range") from None
    alpha_hat = sum_inv_e / sum_w
    sigma_alpha = sum_w ** -0.5
    _check_sigma(sigma_alpha)
    return alpha_hat, sigma_alpha


def _check_sigma(sigma_alpha: float) -> None:
    if not sigma_alpha > 0:
        raise ValidationError(f"sigma_alpha must be positive, got {sigma_alpha}")


def normal_quantile(p: float) -> float:
    """One-sided standard normal quantile z(p), 0 < p < 1."""
    try:
        return kernels.normal_quantile(p)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def alpha_upper_limit(fit: FitResult, confidence: float) -> float:
    """One-sided Gaussian upper bound on alpha at the given confidence."""
    check_confidence(confidence)
    return fit.alpha_hat + normal_quantile(confidence) * fit.sigma_alpha
