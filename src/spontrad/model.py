"""Spontaneous-emission spectral model and the alpha <-> lambda map.

The emission density per quasi-free electron is lambda * D / E with
D = dimensionless_coupling(mass, r_C); folding in the exposure factor c gives
the fit amplitude alpha = c * lambda * D, the expected counts in a 1 keV bin
at energy E being alpha / E.
"""

import math
from dataclasses import dataclass

from .constants import (CODATA2018, CouplingMode, PhysicalConstants,
                        coupling_mass_energy, dimensionless_coupling)
from .errors import ValidationError


@dataclass(frozen=True)
class CslParams:
    """Collapse-model parameter point: rate lam (1/s), length r_c (m)."""

    lam: float
    r_c: float
    coupling: CouplingMode

    def __post_init__(self):
        if not self.lam >= 0:
            raise ValidationError(f"collapse rate must be >= 0, got {self.lam}")
        if not self.r_c > 0:
            raise ValidationError(f"correlation length must be positive, got {self.r_c}")


def emission_rate_density(e_kev: float, params: CslParams,
                          constants: PhysicalConstants = CODATA2018) -> float:
    """Per-electron emission density at photon energy e_kev, in 1/(s keV)."""
    if not e_kev > 0:
        raise ValidationError(f"photon energy must be positive, got {e_kev}")
    mass = coupling_mass_energy(params.coupling, constants)
    return params.lam * dimensionless_coupling(mass, params.r_c, constants) / e_kev


def alpha_from_lambda(params: CslParams, c_exp: float,
                      constants: PhysicalConstants = CODATA2018) -> float:
    """Fit amplitude alpha (counts keV) for a collapse rate: c_exp * lam * D."""
    if not c_exp > 0:
        raise ValidationError(f"exposure factor must be positive, got {c_exp}")
    mass = coupling_mass_energy(params.coupling, constants)
    return c_exp * params.lam * dimensionless_coupling(mass, params.r_c, constants)


def lambda_from_alpha(alpha: float, r_c: float, coupling: CouplingMode,
                      c_exp: float,
                      constants: PhysicalConstants = CODATA2018) -> float:
    """Collapse rate (1/s) reproducing the fit amplitude alpha; inverse of
    alpha_from_lambda."""
    if not alpha >= 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    if not c_exp > 0:
        raise ValidationError(f"exposure factor must be positive, got {c_exp}")
    mass = coupling_mass_energy(coupling, constants)
    conversion = c_exp * dimensionless_coupling(mass, r_c, constants)
    if not (conversion > 0 and math.isfinite(conversion)):
        raise ValidationError(f"conversion must be positive and finite, got {conversion}")
    return alpha / conversion


def expected_counts(params: CslParams, c_exp: float, bins,
                    constants: PhysicalConstants = CODATA2018) -> list:
    """Expected counts per bin, alpha / E_i scaled by the bin width in keV."""
    alpha = alpha_from_lambda(params, c_exp, constants)
    return [alpha / b.center * (b.width / 1.0) for b in bins]
