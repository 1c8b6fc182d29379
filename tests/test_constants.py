"""Constants, coupling selection, and the exposure factor."""

import math

import pytest

from spontrad.constants import (CODATA2018, CouplingMode, ExposureConfig, IGEX_EXPOSURE,
                                coupling_mass_energy, dimensionless_coupling,
                                exposure_factor)
from spontrad.errors import ValidationError

# High-precision reference evaluations of alpha_fs*(hbar c/(r_C m))^2/pi,
# frozen from a 40-digit arithmetic run.
D_PROTON_1E7 = 1.0273792807060568e-20
D_ELECTRON_1E7 = 3.4637646978650526e-14


def test_codata_values():
    assert CODATA2018.fine_structure_constant == 7.2973525693e-3
    assert CODATA2018.hbar_c_mev_fm == 197.3269804
    assert CODATA2018.proton_mass_mev == 938.27208816
    assert CODATA2018.electron_mass_mev == 0.51099895000


def test_coupling_mass_selection():
    assert coupling_mass_energy(CouplingMode.MASS_PROPORTIONAL) == 938.27208816
    assert coupling_mass_energy(CouplingMode.NON_MASS_PROPORTIONAL) == 0.51099895000


def test_coupling_labels_round_trip():
    for mode in CouplingMode:
        assert CouplingMode.from_label(mode.value) is mode
    with pytest.raises(ValidationError):
        CouplingMode.from_label("gravity")


def test_dimensionless_coupling_against_reference():
    d_p = dimensionless_coupling(938.27208816, 1e-7)
    d_e = dimensionless_coupling(0.51099895000, 1e-7)
    assert d_p == pytest.approx(D_PROTON_1E7, rel=1e-14)
    assert d_e == pytest.approx(D_ELECTRON_1E7, rel=1e-14)


def test_dimensionless_coupling_scales_as_inverse_squares():
    base = dimensionless_coupling(938.27208816, 1e-7)
    # Power-of-two factors keep the scaling exact in floating point.
    assert dimensionless_coupling(938.27208816, 2e-7) == base / 4.0
    assert dimensionless_coupling(938.27208816, 0.5e-7) == base * 4.0


def test_coupling_ratio_is_mass_ratio_squared():
    d_p = dimensionless_coupling(938.27208816, 1e-7)
    d_e = dimensionless_coupling(0.51099895000, 1e-7)
    expected = (938.27208816 / 0.51099895000) ** 2
    assert d_e / d_p == pytest.approx(expected, rel=1e-12)


def test_dimensionless_coupling_rejects_bad_domain():
    with pytest.raises(ValidationError):
        dimensionless_coupling(-1.0, 1e-7)
    with pytest.raises(ValidationError):
        dimensionless_coupling(938.27, 0.0)


def test_exposure_factor_is_plain_product():
    assert exposure_factor(IGEX_EXPOSURE) == 8.29e24 * 80.0 * 8.64e4 * 30.0
    assert exposure_factor(IGEX_EXPOSURE) == 1.7190144e33


def test_exposure_defaults():
    assert IGEX_EXPOSURE.atoms_per_kg == 8.29e24
    assert IGEX_EXPOSURE.exposure_kg_day == 80.0
    assert IGEX_EXPOSURE.electrons_per_atom == 30.0


def test_exposure_validation():
    with pytest.raises(ValidationError):
        ExposureConfig(exposure_kg_day=0.0)
    with pytest.raises(ValidationError):
        ExposureConfig(electrons_per_atom=-3.0)
    with pytest.raises(ValidationError):
        ExposureConfig(atoms_per_kg=math.inf)


@pytest.mark.parametrize("field", ["atoms_per_kg", "exposure_kg_day", "electrons_per_atom"])
@pytest.mark.parametrize("value", [0.0, -4.0, math.inf, math.nan, "80"])
def test_exposure_rejects_each_field_outside_its_domain(field, value):
    # The only check on these values: the CLI flags and library callers meet it.
    with pytest.raises(ValidationError) as info:
        ExposureConfig(**{field: value})
    assert str(info.value) == f"{field} must be positive and finite, got {value}"
