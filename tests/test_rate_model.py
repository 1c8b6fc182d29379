"""The amplitude -> collapse-rate conversion of the chi2 route."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spontrad.constants import (CouplingMode, IGEX_EXPOSURE, coupling_mass_energy,
                                dimensionless_coupling, exposure_factor)
from spontrad.errors import ValidationError
from spontrad.model import lambda_from_alpha

C_EXP = exposure_factor(IGEX_EXPOSURE)
MASS = CouplingMode.MASS_PROPORTIONAL
ELECTRON = CouplingMode.NON_MASS_PROPORTIONAL

amplitudes = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False,
                       allow_infinity=False)
lengths = st.floats(min_value=1e-9, max_value=1e-3, allow_nan=False,
                    allow_infinity=False)


def test_reference_value():
    # 143 counts keV at the published exposure, r_C = 1e-7 m, proton mass.
    assert lambda_from_alpha(143.0, 1e-7, MASS, C_EXP) == 8.097029465934479e-12


@settings(max_examples=100, deadline=None)
@given(alpha=amplitudes, r_c=lengths)
def test_inverts_c_lambda_d(alpha, r_c):
    # alpha = c * lambda * D for both couplings.
    for coupling in CouplingMode:
        lam = lambda_from_alpha(alpha, r_c, coupling, C_EXP)
        d = dimensionless_coupling(coupling_mass_energy(coupling), r_c)
        assert C_EXP * lam * d == pytest.approx(alpha, rel=1e-12)


def test_linear_in_alpha():
    assert (lambda_from_alpha(4.0 * 37.0, 1e-7, MASS, C_EXP)
            == 4.0 * lambda_from_alpha(37.0, 1e-7, MASS, C_EXP))
    assert lambda_from_alpha(0.0, 1e-7, MASS, C_EXP) == 0.0


def test_r_c_quadratic_scaling_exact_for_binary_factors():
    lam1 = lambda_from_alpha(143.0, 1e-7, MASS, C_EXP)
    lam2 = lambda_from_alpha(143.0, 2e-7, MASS, C_EXP)
    assert lam2 == 4.0 * lam1


def test_coupling_changes_lambda_by_mass_ratio_squared():
    lam_p = lambda_from_alpha(143.0, 1e-7, MASS, C_EXP)
    lam_e = lambda_from_alpha(143.0, 1e-7, ELECTRON, C_EXP)
    assert lam_p / lam_e == pytest.approx((938.27208816 / 0.51099895) ** 2, rel=1e-12)


@pytest.mark.parametrize("alpha,r_c,c_exp,message", [
    (-5.0, 1e-7, C_EXP, "alpha must be >= 0, got -5.0"),
    (float("nan"), 1e-7, C_EXP, "alpha must be >= 0, got nan"),
    (143.0, 1e-7, 0.0, "exposure factor must be positive, got 0.0"),
    (143.0, 0.0, C_EXP, "r_c must be positive, got 0.0"),
    (143.0, 1e-300, C_EXP, "conversion must be positive and finite, got inf"),
    (143.0, float("inf"), C_EXP, "conversion must be positive and finite, got 0.0"),
])
def test_validation(alpha, r_c, c_exp, message):
    with pytest.raises(ValidationError) as info:
        lambda_from_alpha(alpha, r_c, MASS, c_exp)
    assert str(info.value) == message
