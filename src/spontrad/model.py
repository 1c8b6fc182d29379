"""The fit amplitude -> collapse rate map of the chi2 route.

The emission density per quasi-free electron is lambda * D / E with
D = dimensionless_coupling(mass, r_C); folding in the exposure factor c gives
the fit amplitude alpha = c * lambda * D, the expected counts in a 1 keV bin
at energy E being alpha / E.
"""

import math

from .constants import CouplingMode, coupling_mass_energy, dimensionless_coupling
from .errors import ValidationError


def lambda_from_alpha(alpha: float, r_c: float, coupling: CouplingMode,
                      c_exp: float) -> float:
    """Collapse rate (1/s) reproducing the fit amplitude alpha: alpha / (c_exp * D)."""
    if not alpha >= 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    if not c_exp > 0:
        raise ValidationError(f"exposure factor must be positive, got {c_exp}")
    conversion = c_exp * dimensionless_coupling(coupling_mass_energy(coupling), r_c)
    if not (conversion > 0 and math.isfinite(conversion)):
        raise ValidationError(f"conversion must be positive and finite, got {conversion}")
    return alpha / conversion
