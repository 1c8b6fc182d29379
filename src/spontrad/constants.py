"""Physical constants, coupling selection and detector exposure factors.

All energies are in MeV (masses as rest energies), lengths in meters unless a
name says otherwise.  The spontaneous-emission spectral density per electron
is ``lambda * dimensionless_coupling(m, r_c) / E`` with the photon energy E in
keV, so the coupling constant absorbs every unit convention in one place.
"""

import math
from enum import Enum
from types import SimpleNamespace

from .errors import ValidationError

FM_PER_M = 1e15
SECONDS_PER_DAY = 8.64e4

# CODATA 2018 values, the one set every formula reads.
CODATA2018 = SimpleNamespace(fine_structure_constant=7.2973525693e-3,
                             hbar_c_mev_fm=197.3269804,
                             proton_mass_mev=938.27208816,
                             electron_mass_mev=0.51099895000)

# Limit constructions: chi-square fit or Poisson-count posterior.
METHODS = ("chi2", "bayes")


def check_method(method) -> None:
    """Reject a limit construction not in METHODS."""
    if method not in METHODS:
        raise ValidationError(f"method must be one of {METHODS}, got {method!r}")


def check_confidence(confidence) -> None:
    """Reject a confidence or credibility level outside (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise ValidationError(f"confidence must be in (0, 1), got {confidence}")

# Fewest counts a bin needs to enter a chi-square fit (its variance is its count).
CHI2_MIN_COUNTS = 5


class CouplingMode(Enum):
    """Which mass enters the emission rate: nucleon (mass-proportional noise
    coupling) or electron (non-mass-proportional)."""

    MASS_PROPORTIONAL = "mass-prop"
    NON_MASS_PROPORTIONAL = "non-mass-prop"

    @classmethod
    def from_label(cls, label: str) -> "CouplingMode":
        for mode in cls:
            if mode.value == label:
                return mode
        raise ValidationError(f"unknown coupling {label!r}; "
                              f"expected one of {[m.value for m in cls]}")


def coupling_mass_energy(coupling: CouplingMode) -> float:
    """Rest energy (MeV) of the particle selected by the coupling mode."""
    if coupling is CouplingMode.MASS_PROPORTIONAL:
        return CODATA2018.proton_mass_mev
    if coupling is CouplingMode.NON_MASS_PROPORTIONAL:
        return CODATA2018.electron_mass_mev
    raise ValidationError(f"unknown coupling mode {coupling!r}")


def dimensionless_coupling(mass_energy_mev: float, r_c_m: float) -> float:
    """Numeric value of e^2 / (4 pi^2 r_C^2 m^2) with e^2 = 4 pi alpha_fs.

    Evaluates alpha_fs * (hbar c / (r_C m c^2))^2 / pi, dimensionless, so the
    per-electron emission density is lambda * D / E  [1/(s keV)] for lambda in
    1/s and E in keV.  Scales as r_C^-2 and m^-2.
    """
    if not mass_energy_mev > 0:
        raise ValidationError(f"mass_energy must be positive, got {mass_energy_mev}")
    if not r_c_m > 0:
        raise ValidationError(f"r_c must be positive, got {r_c_m}")
    ratio = CODATA2018.hbar_c_mev_fm / (r_c_m * FM_PER_M * mass_energy_mev)
    return CODATA2018.fine_structure_constant * ratio * ratio / math.pi


class ExposureConfig:
    """Factors whose product, with SECONDS_PER_DAY, converts a per-electron
    rate into expected counts.

    Defaults are the published IGEX 80 kg day Ge exposure with the 30 outermost
    (quasi-free) electrons per atom emitting.  Not frozen.
    """

    __slots__ = ("atoms_per_kg", "exposure_kg_day", "electrons_per_atom")

    def __init__(self, atoms_per_kg: float = 8.29e24, exposure_kg_day: float = 80.0,
                 electrons_per_atom: float = 30.0):
        values = atoms_per_kg, exposure_kg_day, electrons_per_atom
        for name, value in zip(self.__slots__, values):
            if not (isinstance(value, (int, float)) and value > 0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        self.atoms_per_kg, self.exposure_kg_day, self.electrons_per_atom = values


IGEX_EXPOSURE = ExposureConfig()


def exposure_factor(config: ExposureConfig) -> float:
    """Electron-seconds of exposure: plain product of the factors and SECONDS_PER_DAY."""
    return (config.atoms_per_kg * config.exposure_kg_day
            * SECONDS_PER_DAY * config.electrons_per_atom)


def conversion(coupling: CouplingMode, r_c: float,
               exposure: ExposureConfig = IGEX_EXPOSURE) -> float:
    """Fit amplitude (counts keV) per unit collapse rate (1/s) at r_c meters.

    The per-electron emission density is lambda * D / E with
    D = dimensionless_coupling(mass, r_c); over the exposure's electron-seconds
    c it gives the amplitude alpha = c * D * lambda, the expected counts in a
    1 keV bin at energy E being alpha / E.  Both limit routes divide by c * D.
    """
    value = exposure_factor(exposure) * dimensionless_coupling(coupling_mass_energy(coupling), r_c)
    if not (value > 0 and math.isfinite(value)):
        raise ValidationError(f"conversion must be positive and finite, got {value}")
    return value
