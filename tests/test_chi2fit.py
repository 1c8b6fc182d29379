"""Closed-form chi-square fit against oracles and its documented invariants."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from spontrad.chi2fit import (FitResult, alpha_upper_limit, closed_form, fit_alpha,
                              fit_counts, normal_quantile)
from spontrad.errors import InsufficientDataError, ValidationError
from spontrad.spectrum import BinnedSpectrum, EnergyBin

# Inverse-normal references from a 40-digit erfinv evaluation.
Z_TABLE = {
    0.68: 0.46769879911450823,
    0.95: 1.6448536269514726,
    0.975: 1.9599639845400543,
    0.999: 3.0902323061678136,
}


def spectrum_from(counts, centers=None, width=1.0):
    if centers is None:
        centers = [15.0 + i for i in range(len(counts))]
    return BinnedSpectrum(bins=tuple(
        EnergyBin(center=c, width=width, counts=y) for c, y in zip(centers, counts)))


def chi2_function(spectrum, alpha):
    return math.fsum((b.counts - alpha / b.center) ** 2 / b.counts
                     for b in spectrum.bins)


class TestFitAlpha:
    def test_two_point_hand_example(self):
        # counts lie on y = 100/E, so the minimum is exact and chi2 vanishes.
        fit = fit_alpha(spectrum_from([10, 5], centers=[10.0, 20.0]))
        assert fit.alpha_hat == pytest.approx(100.0, rel=1e-14)
        assert fit.chi2 <= 1e-10
        assert fit.n_bins == 2
        assert fit.ndf == 1

    def test_sigma_closed_form(self):
        fit = fit_alpha(spectrum_from([10, 5], centers=[10.0, 20.0]))
        expected = (1.0 / (10 * 100) + 1.0 / (5 * 400)) ** -0.5
        assert fit.sigma_alpha == pytest.approx(expected, rel=1e-14)

    def test_single_bin_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_alpha(spectrum_from([10]))

    def test_unequal_lists_rejected(self):
        with pytest.raises(ValidationError, match="3 bin centers but 2 counts"):
            fit_counts([15.0, 16.0, 17.0], [10, 12])

    def test_zero_count_bin_rejected(self):
        with pytest.raises(ValidationError):
            fit_alpha(spectrum_from([10, 0, 5]))

    def test_matches_brute_force_minimizer(self):
        rng = random.Random(1234)
        for _ in range(20):
            n = rng.randint(3, 40)
            counts = [rng.randint(1, 500) for _ in range(n)]
            s = spectrum_from(counts)
            fit = fit_alpha(s)
            res = optimize.minimize_scalar(
                lambda a: chi2_function(s, a),
                bounds=(0.0, 20000.0), method="bounded",
                options={"xatol": 1e-10})
            assert fit.alpha_hat == pytest.approx(res.x, rel=1e-6)
            assert fit.chi2 <= chi2_function(s, res.x) + 1e-9

    def test_scale_equivariance_exact(self):
        # Quadrupling every count quarters each weight term exactly, so
        # alpha_hat scales by exactly 4 (binary factor, fsum is exact).
        counts = [17, 23, 9, 41, 12]
        base = fit_alpha(spectrum_from(counts)).alpha_hat
        scaled = fit_alpha(spectrum_from([4 * c for c in counts])).alpha_hat
        assert scaled == 4.0 * base

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.integers(min_value=100, max_value=2000),
           n=st.integers(min_value=2, max_value=20))
    def test_on_curve_data_recovers_alpha(self, alpha, n):
        # Exactly representable on-curve data: E_i = 2^i and amplitude
        # k = alpha * 2^(n-1) make every y_i = k / E_i an exact integer.
        k = alpha * (1 << (n - 1))
        centers = [float(1 << i) for i in range(n)]
        counts = [k >> i for i in range(n)]
        s = BinnedSpectrum(bins=tuple(
            EnergyBin(center=c, width=0.5, counts=y)
            for c, y in zip(centers, counts)))
        fit = fit_alpha(s)
        assert fit.alpha_hat == pytest.approx(float(k), rel=1e-10)
        assert fit.chi2 <= 1e-10 * max(1.0, fit.alpha_hat)


class TestClosedForm:
    def test_equals_the_fit(self):
        centers, counts = [15.0, 16.0, 17.0, 30.0], [12, 7, 9, 5]
        fit = fit_counts(centers, counts)
        assert closed_form(list(zip(centers, counts))) == (fit.alpha_hat, fit.sigma_alpha)

    def test_overflowing_weight_raises_the_fit_error(self):
        # 1e-160**2 is subnormal, so 1/(y E^2) overflows to inf and
        # sigma_alpha = sum_w**-0.5 comes out 0.
        centers, counts = [1e-160, 1.0], [10, 10]
        with pytest.raises(ValidationError) as fitted:
            fit_counts(centers, counts)
        with pytest.raises(ValidationError) as summed:
            closed_form(list(zip(centers, counts)))
        assert str(summed.value) == str(fitted.value) == (
            "sigma_alpha must be positive, got 0.0")
        with pytest.raises(ValidationError) as built:
            FitResult(alpha_hat=0.0, sigma_alpha=0.0, chi2=0.0, n_bins=2)
        assert str(built.value) == str(fitted.value)


class TestFitResult:
    def test_reduced_chi2_identity(self):
        fit = FitResult(alpha_hat=100.0, sigma_alpha=5.0, chi2=12.0, n_bins=13)
        assert fit.ndf == 12
        assert fit.reduced_chi2 == 1.0

    def test_requires_enough_bins(self):
        with pytest.raises(ValidationError):
            FitResult(alpha_hat=1.0, sigma_alpha=1.0, chi2=0.0, n_bins=1)

    def test_requires_positive_sigma(self):
        with pytest.raises(ValidationError):
            FitResult(alpha_hat=1.0, sigma_alpha=0.0, chi2=0.0, n_bins=3)


class TestNormalQuantile:
    @pytest.mark.parametrize("p,z", sorted(Z_TABLE.items()))
    def test_reference_values(self, p, z):
        assert normal_quantile(p) == pytest.approx(z, abs=1e-12)

    def test_median_is_zero(self):
        assert normal_quantile(0.5) == 0.0

    def test_symmetry(self):
        assert normal_quantile(0.025) == pytest.approx(-normal_quantile(0.975),
                                                       abs=1e-12)

    def test_domain(self):
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError):
                normal_quantile(p)

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(min_value=1e-10, max_value=1.0 - 1e-10,
                       allow_nan=False, allow_infinity=False))
    def test_inverts_normal_cdf(self, p):
        x = normal_quantile(p)
        cdf = 0.5 * math.erfc(-x / math.sqrt(2.0))
        assert cdf == pytest.approx(p, abs=1e-12)


class TestUpperLimit:
    def test_published_rounding(self):
        fit = FitResult(alpha_hat=115.0, sigma_alpha=17.0, chi2=0.9 * 14, n_bins=15)
        assert alpha_upper_limit(fit, 0.95) == pytest.approx(142.96, abs=0.01)

    def test_median_limit_is_alpha_hat(self):
        fit = FitResult(alpha_hat=115.0, sigma_alpha=17.0, chi2=1.0, n_bins=10)
        assert alpha_upper_limit(fit, 0.5) == 115.0

    def test_strictly_increasing_in_confidence(self):
        fit = FitResult(alpha_hat=100.0, sigma_alpha=10.0, chi2=1.0, n_bins=10)
        limits = [alpha_upper_limit(fit, q) for q in (0.5, 0.68, 0.9, 0.95, 0.99)]
        assert limits == sorted(limits)
        assert len(set(limits)) == len(limits)

    def test_confidence_domain(self):
        fit = FitResult(alpha_hat=100.0, sigma_alpha=10.0, chi2=1.0, n_bins=10)
        with pytest.raises(ValidationError):
            alpha_upper_limit(fit, 1.0)
