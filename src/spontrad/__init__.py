"""Upper limits on the spontaneous-collapse rate from X-ray counting spectra.

Two independent routes bound the 1/E emission amplitude alpha and convert it
to a collapse rate at a given correlation length: a Gaussian chi-square fit
with a one-sided quantile, and a Poisson-count posterior with a gamma-form
credible bound.  A scan transports either limit across correlation lengths
into exclusion curves.  See the README for the CLI and file formats.

The names below load their submodule on first use (PEP 562), so a process
pays only for the modules it touches; ``from spontrad import X`` works as
for any package.
"""

import importlib
import sys
from types import ModuleType

from .backend import BACKEND, backend_name

__version__ = "0.1.0"

# Public names by the submodule that defines them.
_EXPORTS = {
    "bayes": ("CredibleLimit", "PosteriorSpec", "gamma_quantile", "harmonic_sum",
              "lambda_credible_limit", "posterior_spec", "reg_inc_gamma"),
    "chi2fit": ("FitResult", "alpha_upper_limit", "fit_alpha", "normal_quantile"),
    "constants": ("CODATA2018", "CouplingMode", "ExposureConfig", "IGEX_EXPOSURE", "conversion",
                  "coupling_mass_energy", "dimensionless_coupling", "exposure_factor"),
    "errors": ("InsufficientDataError", "NumericalError", "SelectionEmptyError",
               "SpectrumFormatError", "SpontradError", "ValidationError"),
    "scan": ("ExclusionCurve", "ReferencePoint", "builtin_reference_points", "load_curves",
             "load_overlay_boundary", "log_grid", "save_curves", "scan"),
    "spectrum": ("BinnedSpectrum", "EnergyBin", "RangeSelection", "load_spectrum",
                 "save_spectrum", "select", "total_counts"),
    "svg": ("render_exclusion_svg",),
    "synth": ("CoverageReport", "SynthConfig", "run_coverage", "sample_spectrum"),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["BACKEND", "backend_name", *_SOURCES])


def __getattr__(name):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups are plain attribute hits
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCES))


class _Package(ModuleType):
    """Keeps the import system from binding a submodule over a public name.

    Loading a submodule sets it as an attribute of its package; without
    this, importing ``spontrad.scan`` would make ``spontrad.scan`` the
    module instead of the function ``scan``.
    """

    def __setattr__(self, name, value):
        if not (name in _SOURCES and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
