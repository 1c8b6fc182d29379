"""Poisson-count credible limits: special functions and the posterior math."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaln

from spontrad.bayes import (CredibleLimit, PosteriorSpec, gamma_quantile,
                            harmonic_sum, lambda_credible_limit, posterior_spec,
                            reg_inc_gamma)
from spontrad.constants import CouplingMode
from spontrad.errors import ValidationError
from spontrad.spectrum import EnergyBin

# 40-digit arithmetic references.
P_131_131 = 0.5116190672833556
P_10_5 = 0.03182805730620481
Q_131_95 = 150.37735517848108
LAM_BAYES_MASS = 7.006202483028243e-12
LAM_BAYES_ELECTRON = 2.078093604895034e-18
CONVERSION_MASS_1E7 = 1.7190144e33 * 1.0273792807060568e-20

SHAPES = (1.0, 10.0, 131.0, 500.0)
PROBS = (0.05, 0.5, 0.95, 0.999)


def unit_bins(centers):
    return [EnergyBin(center=c, width=1.0, counts=0) for c in centers]


def gamma_density(s):
    def pdf(x):
        return math.exp((s - 1.0) * math.log(x) - x - gammaln(s))
    return pdf


class TestHarmonicSum:
    def test_analysis_window(self):
        s = harmonic_sum(unit_bins(range(15, 49)))
        assert s == pytest.approx(1.2072348485017923, rel=1e-15)

    def test_single_bin(self):
        assert harmonic_sum(unit_bins([20.0])) == 0.05

    def test_empty(self):
        assert harmonic_sum([]) == 0.0

    def test_width_scaling(self):
        wide = [EnergyBin(center=20.0, width=2.0, counts=0)]
        assert harmonic_sum(wide) == 0.1


class TestRegIncGamma:
    def test_shape_one_closed_form(self):
        assert reg_inc_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0),
                                                        abs=1e-14)

    def test_zero_is_zero(self):
        for s in SHAPES:
            assert reg_inc_gamma(s, 0.0) == 0.0

    def test_reference_values(self):
        assert reg_inc_gamma(131.0, 131.0) == pytest.approx(P_131_131, abs=1e-12)
        assert reg_inc_gamma(10.0, 5.0) == pytest.approx(P_10_5, abs=1e-12)
        assert reg_inc_gamma(500.0, 1000.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s", SHAPES)
    def test_agrees_with_adaptive_integration(self, s):
        for x in (s / 2.0, s, 2.0 * s):
            oracle, err = integrate.quad(gamma_density(s), 0.0, x,
                                         points=[min(x, max(s - 1.0, 0.0))],
                                         limit=200, epsabs=1e-13, epsrel=1e-12)
            assert err < 1e-10
            assert reg_inc_gamma(s, x) == pytest.approx(oracle, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(s=st.floats(min_value=0.1, max_value=700.0, allow_nan=False),
           x1=st.floats(min_value=0.0, max_value=1400.0, allow_nan=False),
           x2=st.floats(min_value=0.0, max_value=1400.0, allow_nan=False))
    def test_monotone_in_x_and_bounded(self, s, x1, x2):
        lo, hi = sorted((x1, x2))
        p_lo, p_hi = reg_inc_gamma(s, lo), reg_inc_gamma(s, hi)
        assert 0.0 <= p_lo <= p_hi <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            reg_inc_gamma(0.0, 1.0)
        with pytest.raises(ValidationError):
            reg_inc_gamma(1.0, -1.0)
        with pytest.raises(ValidationError):
            reg_inc_gamma(math.inf, 1.0)


class TestGammaQuantile:
    def test_shape_one_inverse(self):
        assert gamma_quantile(1.0, 1.0 - math.exp(-1.0)) == pytest.approx(1.0,
                                                                          rel=1e-10)

    def test_reference_value(self):
        assert gamma_quantile(131.0, 0.95) == pytest.approx(Q_131_95, rel=1e-10)

    def test_p_zero(self):
        for s in SHAPES:
            assert gamma_quantile(s, 0.0) == 0.0

    @pytest.mark.parametrize("s", SHAPES)
    @pytest.mark.parametrize("p", PROBS)
    def test_inverts_reg_inc_gamma(self, s, p):
        x = gamma_quantile(s, p)
        assert reg_inc_gamma(s, x) == pytest.approx(p, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(s=st.floats(min_value=0.2, max_value=600.0, allow_nan=False),
           p=st.floats(min_value=1e-6, max_value=1.0 - 1e-9, allow_nan=False))
    def test_inversion_property(self, s, p):
        assert reg_inc_gamma(s, gamma_quantile(s, p)) == pytest.approx(p, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            gamma_quantile(1.0, 1.0)
        with pytest.raises(ValidationError):
            gamma_quantile(-2.0, 0.5)


class TestPosteriorSpec:
    def test_fields_validated(self):
        with pytest.raises(ValidationError):
            PosteriorSpec(y_total=-1, harmonic_sum=1.0, conversion=1.0)
        with pytest.raises(ValidationError):
            PosteriorSpec(y_total=1, harmonic_sum=0.0, conversion=1.0)
        with pytest.raises(ValidationError):
            PosteriorSpec(y_total=1, harmonic_sum=1.0, conversion=-2.0)
        with pytest.raises(ValidationError, match="^y_total must be an integer, got 1.5$"):
            PosteriorSpec(y_total=1.5, harmonic_sum=1.0, conversion=1.0)

    def test_total_past_the_float_range_is_rejected(self):
        # The largest float is 2**1024 - 2**971; from 2**1024 - 2**970 on,
        # an integer rounds past it.
        last = 2 ** 1024 - 2 ** 970 - 1
        assert PosteriorSpec(y_total=last, harmonic_sum=1.0, conversion=1.0).y_total == last
        for y in (last + 1, 10 ** 400):
            with pytest.raises(ValidationError, match=f"y_total of {y.bit_length()} bits "
                                                      "is beyond the float range"):
                PosteriorSpec(y_total=y, harmonic_sum=1.0, conversion=1.0)

    def test_helper_composes_conversion(self):
        spec = posterior_spec(130, unit_bins(range(15, 49)), 1e-7,
                              CouplingMode.MASS_PROPORTIONAL)
        assert spec.y_total == 130
        assert spec.harmonic_sum == pytest.approx(1.2072348485017923, rel=1e-14)
        assert spec.conversion == pytest.approx(CONVERSION_MASS_1E7, rel=1e-12)


class TestCredibleLimit:
    def spec(self, y=130, conversion=CONVERSION_MASS_1E7, s=1.2072348485017923):
        return PosteriorSpec(y_total=y, harmonic_sum=s, conversion=conversion)

    def test_published_scale_mass_proportional(self):
        limit = lambda_credible_limit(self.spec(), 0.95)
        assert limit.lambda_upper == pytest.approx(LAM_BAYES_MASS, rel=1e-12)
        assert limit.lambda_cap == pytest.approx(150.37735517848108, rel=1e-10)

    def test_zero_count_closed_form(self):
        # Shape-1 truncated posterior: Lambda* = 1 - log(1 - q).
        limit = lambda_credible_limit(self.spec(y=0, conversion=1.0, s=1.0), 0.95)
        expected_cap = 1.0 - math.log(0.05)
        assert limit.lambda_cap == pytest.approx(expected_cap, rel=1e-10)
        assert limit.lambda_upper == pytest.approx(expected_cap - 1.0, rel=1e-10)

    def test_monotone_in_confidence(self):
        limits = [lambda_credible_limit(self.spec(), q).lambda_upper
                  for q in (0.5, 0.68, 0.9, 0.95, 0.99)]
        assert limits == sorted(limits)
        assert len(set(limits)) == len(limits)

    def test_monotone_in_counts(self):
        limits = [lambda_credible_limit(self.spec(y=y), 0.95).lambda_upper
                  for y in (0, 10, 50, 130, 400)]
        assert limits == sorted(limits)

    @pytest.mark.parametrize("confidence", [0.01, 0.68, 0.9, 0.95, 0.99, 0.999999])
    def test_monotone_in_counts_across_the_asymptotic_threshold(self, confidence):
        # Shape y + 1 reaches 5e4, where the kernels change method, at y = 49,999.
        limits = [lambda_credible_limit(self.spec(y=y), confidence).lambda_upper
                  for y in range(49_997, 50_002)]
        assert all(a < b for a, b in zip(limits, limits[1:]))

    def test_decreasing_in_conversion_and_harmonic_sum(self):
        base = lambda_credible_limit(self.spec(), 0.95).lambda_upper
        assert lambda_credible_limit(
            self.spec(conversion=2 * CONVERSION_MASS_1E7), 0.95).lambda_upper < base
        assert lambda_credible_limit(
            self.spec(s=2.0), 0.95).lambda_upper < base

    def test_r_c_scaling_is_quadratic(self):
        bins = unit_bins(range(15, 49))
        lam1 = lambda_credible_limit(
            posterior_spec(130, bins, 1e-7, CouplingMode.MASS_PROPORTIONAL),
            0.95).lambda_upper
        lam3 = lambda_credible_limit(
            posterior_spec(130, bins, 3e-7, CouplingMode.MASS_PROPORTIONAL),
            0.95).lambda_upper
        assert lam3 / lam1 == pytest.approx(9.0, rel=1e-10)

    def test_coupling_ratio_is_mass_ratio_squared(self):
        bins = unit_bins(range(15, 49))
        lam_p = lambda_credible_limit(
            posterior_spec(130, bins, 1e-7, CouplingMode.MASS_PROPORTIONAL),
            0.95).lambda_upper
        lam_e = lambda_credible_limit(
            posterior_spec(130, bins, 1e-7, CouplingMode.NON_MASS_PROPORTIONAL),
            0.95).lambda_upper
        assert lam_e / lam_p == pytest.approx((0.51099895 / 938.27208816) ** 2,
                                              rel=1e-10)
        assert lam_e == pytest.approx(LAM_BAYES_ELECTRON, rel=1e-12)

    @pytest.mark.parametrize("y", [0, 3, 130])
    def test_truncated_posterior_normalizes(self, y):
        # The renormalized gamma posterior on [offset, inf) integrates to 1.
        # Beyond s + 40 sqrt(s) the remaining mass is ~exp(-800): ignorable.
        s = y + 1.0
        base = reg_inc_gamma(s, 1.0)
        hi = s + 40.0 * math.sqrt(s) + 50.0
        total, err = integrate.quad(gamma_density(s), 1.0, hi,
                                    points=[max(s, 2.0)], limit=300,
                                    epsabs=1e-12, epsrel=1e-11)
        assert err < 1e-9
        assert total / (1.0 - base) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("y", [0, 3, 130])
    def test_cap_is_renormalized_quantile(self, y):
        # Integrating the truncated, renormalized posterior up to the cap
        # recovers the credibility level (independent integration oracle).
        limit = lambda_credible_limit(self.spec(y=y, conversion=1.0, s=1.0), 0.95)
        s = y + 1.0
        base = reg_inc_gamma(s, 1.0)
        mass, err = integrate.quad(gamma_density(s), 1.0, limit.lambda_cap,
                                   points=[max(s, 2.0)], limit=200)
        assert err < 1e-9
        assert mass / (1.0 - base) == pytest.approx(0.95, abs=1e-8)

    def test_confidence_domain(self):
        with pytest.raises(ValidationError):
            lambda_credible_limit(self.spec(), 0.0)
        with pytest.raises(ValidationError):
            lambda_credible_limit(self.spec(), 1.0)

    def test_result_type_validation(self):
        with pytest.raises(ValidationError):
            CredibleLimit(lambda_upper=-1.0, confidence=0.95, lambda_cap=1.0)
        with pytest.raises(ValidationError):
            CredibleLimit(lambda_upper=1.0, confidence=1.5, lambda_cap=1.0)
