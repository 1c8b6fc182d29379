"""Upper limits on the spontaneous-collapse rate from X-ray counting spectra.

Two independent routes bound the 1/E emission amplitude alpha and convert it
to a collapse rate at a given correlation length: a Gaussian chi-square fit
with a one-sided quantile (``chi2fit``), and a Poisson-count posterior with a
gamma-form credible bound (``bayes``).  The package exports both routes with
their constants, errors and spectrum types.  The exclusion-curve scan, its
plot and the synthetic studies live in ``spontrad.scan``, ``spontrad.svg``
and ``spontrad.synth``, which ``import spontrad`` does not load.  See the
README for the CLI and file formats.
"""

from .backend import backend_name
from .bayes import (CredibleLimit, PosteriorSpec, gamma_quantile, harmonic_sum,
                    lambda_credible_limit, posterior_spec, reg_inc_gamma)
from .chi2fit import FitResult, alpha_upper_limit, fit_alpha, normal_quantile
from .constants import (CODATA2018, IGEX_EXPOSURE, CouplingMode, ExposureConfig, conversion,
                        coupling_mass_energy, dimensionless_coupling, exposure_factor)
from .errors import (InsufficientDataError, NumericalError, SelectionEmptyError,
                     SpectrumFormatError, SpontradError, ValidationError)
from .spectrum import (BinnedSpectrum, EnergyBin, RangeSelection, load_spectrum, save_spectrum,
                       select, total_counts)

__version__ = "0.1.0"

__all__ = [
    "BinnedSpectrum", "CODATA2018", "CouplingMode", "CredibleLimit", "EnergyBin",
    "ExposureConfig", "FitResult", "IGEX_EXPOSURE", "InsufficientDataError", "NumericalError",
    "PosteriorSpec", "RangeSelection", "SelectionEmptyError", "SpectrumFormatError",
    "SpontradError", "ValidationError", "alpha_upper_limit", "backend_name", "conversion",
    "coupling_mass_energy", "dimensionless_coupling", "exposure_factor", "fit_alpha",
    "gamma_quantile", "harmonic_sum", "lambda_credible_limit", "load_spectrum",
    "normal_quantile", "posterior_spec", "reg_inc_gamma", "save_spectrum", "select",
    "total_counts",
]
