"""Low-count Poisson upper limit on the collapse rate.

The total count y over the analysis window is Poisson with mean
Lambda(lam) = conversion * harmonic_sum * lam + 1, where conversion is the
counts-keV amplitude per unit collapse rate (exposure factor times the
dimensionless coupling) and harmonic_sum is sum(width_i / E_i).  A uniform
prior in lam makes the posterior over Lambda a gamma density of shape y + 1,
truncated to Lambda >= 1 (lam >= 0) and renormalized; inverting its CDF at
the requested credibility and mapping back through the linear relation gives
the upper limit.
"""

import math

from .backend import kernels
from .constants import ExposureConfig, IGEX_EXPOSURE, check_confidence, conversion
from .errors import NumericalError, ValidationError
from .spectrum import check_float_range, checked_integer


def reg_inc_gamma(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma P(shape, x).

    Domain breaches raise ValidationError; a kernel error on valid inputs
    means the series/continued fraction stalled and raises NumericalError.
    """
    if not (shape > 0 and math.isfinite(shape)):
        raise ValidationError(f"shape must be positive and finite, got {shape}")
    if not (x >= 0 and math.isfinite(x)):
        raise ValidationError(f"x must be >= 0 and finite, got {x}")
    try:
        return kernels.reg_inc_gamma(shape, x)
    except ValueError as exc:
        raise NumericalError(str(exc)) from None


def gamma_quantile(shape: float, p: float) -> float:
    """x such that P(shape, x) = p, for 0 <= p < 1.  Errors as reg_inc_gamma."""
    if not (shape > 0 and math.isfinite(shape)):
        raise ValidationError(f"shape must be positive and finite, got {shape}")
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"p must be in [0, 1), got {p}")
    try:
        return kernels.gamma_quantile(shape, p)
    except ValueError as exc:
        raise NumericalError(str(exc)) from None


def harmonic_sum(bins) -> float:
    """sum of (width_i / 1 keV) / E_i over the bins; 0 for an empty list."""
    return math.fsum((b.width / 1.0) / b.center for b in bins)


class PosteriorSpec:
    """Inputs of the gamma-form posterior over the expected total count; not frozen."""

    __slots__ = ("y_total", "harmonic_sum", "conversion")

    def __init__(self, y_total: int, harmonic_sum: float, conversion: float):
        y = checked_integer(y_total, "y_total")
        if y < 0:
            raise ValidationError(f"y_total must be >= 0, got {y}")
        check_float_range(y, "y_total")
        if not (harmonic_sum > 0 and math.isfinite(harmonic_sum)):
            raise ValidationError(
                f"harmonic_sum must be positive and finite, got {harmonic_sum}")
        if not (conversion > 0 and math.isfinite(conversion)):
            raise ValidationError(
                f"conversion must be positive and finite, got {conversion}")
        self.y_total, self.harmonic_sum, self.conversion = y, harmonic_sum, conversion


class CredibleLimit:
    """Upper limit on the collapse rate and the count-space quantile behind it.

    lambda_cap is the quantile of the expected total count (the capital
    Lambda variable) at the requested credibility.  Not frozen.
    """

    __slots__ = ("lambda_upper", "confidence", "lambda_cap")

    def __init__(self, lambda_upper: float, confidence: float, lambda_cap: float):
        if not lambda_upper >= 0:
            raise ValidationError(f"lambda_upper must be >= 0, got {lambda_upper}")
        check_confidence(confidence)
        self.lambda_upper, self.confidence, self.lambda_cap = lambda_upper, confidence, lambda_cap


def posterior_spec(y_total: int, bins, r_c: float, coupling,
                   exposure: ExposureConfig = IGEX_EXPOSURE) -> PosteriorSpec:
    """Assemble the posterior inputs for a measured total count and bin grid."""
    return PosteriorSpec(y_total=y_total, harmonic_sum=harmonic_sum(bins),
                         conversion=conversion(coupling, r_c, exposure))


def lambda_credible_limit(spec: PosteriorSpec, confidence: float) -> CredibleLimit:
    """Credible upper limit on the collapse rate from the truncated posterior.

    Solves [P(y+1, L) - P(y+1, 1)] / [1 - P(y+1, 1)] = confidence for L and
    returns (L - 1) / (conversion * harmonic_sum).  The 1 is the +1 shift in
    Lambda(lam); it is part of the posterior construction, not of the
    physical expectation.  The truncation to L >= 1 matters only for very
    small y (for y ~ 100, P(y+1, 1) underflows to 0 and the renormalization
    is a no-op).
    """
    check_confidence(confidence)
    shape = spec.y_total + 1.0
    base = reg_inc_gamma(shape, 1.0)
    if base >= 1.0:
        raise NumericalError(
            f"posterior mass entirely below the offset (y={spec.y_total})")
    target = base + confidence * (1.0 - base)
    if target >= 1.0:
        raise ValidationError(
            f"confidence {confidence} is too close to 1 for y_total {spec.y_total}: "
            "its posterior quantile level rounds to 1.0")
    cap = gamma_quantile(shape, target)
    lam = (cap - 1.0) / (spec.conversion * spec.harmonic_sum)
    return CredibleLimit(lambda_upper=max(lam, 0.0), confidence=confidence,
                         lambda_cap=cap)
