"""The amplitude -> collapse-rate conversion that both limit routes divide by."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spontrad.bayes import posterior_spec
from spontrad.constants import (CouplingMode, ExposureConfig, IGEX_EXPOSURE, conversion,
                                coupling_mass_energy, dimensionless_coupling, exposure_factor)
from spontrad.errors import ValidationError
from spontrad.spectrum import EnergyBin

C_EXP = exposure_factor(IGEX_EXPOSURE)
MASS = CouplingMode.MASS_PROPORTIONAL
ELECTRON = CouplingMode.NON_MASS_PROPORTIONAL

amplitudes = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False,
                       allow_infinity=False)
lengths = st.floats(min_value=1e-9, max_value=1e-3, allow_nan=False,
                    allow_infinity=False)


def test_reference_value():
    # 143 counts keV at the published exposure, r_C = 1e-7 m, proton mass.
    assert 143.0 / conversion(MASS, 1e-7) == 8.097029465934479e-12


@settings(max_examples=100, deadline=None)
@given(alpha=amplitudes, r_c=lengths)
def test_inverts_c_lambda_d(alpha, r_c):
    # alpha = c * lambda * D for both couplings.
    for coupling in CouplingMode:
        lam = alpha / conversion(coupling, r_c)
        d = dimensionless_coupling(coupling_mass_energy(coupling), r_c)
        assert C_EXP * lam * d == pytest.approx(alpha, rel=1e-12)


def test_linear_in_alpha():
    c = conversion(MASS, 1e-7)
    assert 4.0 * 37.0 / c == 4.0 * (37.0 / c)
    assert 0.0 / c == 0.0


def test_r_c_quadratic_scaling_exact_for_binary_factors():
    assert conversion(MASS, 1e-7) == 4.0 * conversion(MASS, 2e-7)


def test_coupling_changes_lambda_by_mass_ratio_squared():
    lam_p = 143.0 / conversion(MASS, 1e-7)
    lam_e = 143.0 / conversion(ELECTRON, 1e-7)
    assert lam_p / lam_e == pytest.approx((938.27208816 / 0.51099895) ** 2, rel=1e-12)


def test_exposure_scales_linearly():
    half = ExposureConfig(exposure_kg_day=40.0)
    assert conversion(MASS, 1e-7, half) * 2.0 == conversion(MASS, 1e-7)


@pytest.mark.parametrize("coupling", list(CouplingMode), ids=lambda c: c.value)
@pytest.mark.parametrize("exposure", [IGEX_EXPOSURE, ExposureConfig(exposure_kg_day=80,
                                                                    electrons_per_atom=6)],
                         ids=["igex", "six-electrons"])
def test_posterior_spec_carries_the_same_conversion(coupling, exposure):
    bins = [EnergyBin(center=c, width=1.0, counts=0) for c in range(15, 49)]
    spec = posterior_spec(130, bins, 1e-7, coupling, exposure=exposure)
    assert spec.conversion == conversion(coupling, 1e-7, exposure)


TINY = ExposureConfig(atoms_per_kg=1e-200, exposure_kg_day=1e-200, electrons_per_atom=1e-200)


@pytest.mark.parametrize("r_c,exposure,message", [
    (0.0, IGEX_EXPOSURE, "r_c must be positive, got 0.0"),
    (-1e-7, IGEX_EXPOSURE, "r_c must be positive, got -1e-07"),
    (1e-300, IGEX_EXPOSURE, "conversion must be positive and finite, got inf"),
    (float("inf"), IGEX_EXPOSURE, "conversion must be positive and finite, got 0.0"),
    # The exposure factor itself underflows to 0.
    (1e-7, TINY, "conversion must be positive and finite, got 0.0"),
], ids=["zero-r_c", "negative-r_c", "overflow", "underflow", "tiny-exposure"])
def test_validation(r_c, exposure, message):
    with pytest.raises(ValidationError) as info:
        conversion(MASS, r_c, exposure)
    assert str(info.value) == message
