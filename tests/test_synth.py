"""Synthetic spectrum generation and coverage studies."""

import gc
import math
import os
import sys
import threading
import tracemalloc

import pytest
from scipy import special

from spontrad import synth
from spontrad.backend import kernels
from spontrad.bayes import harmonic_sum
from spontrad.constants import CHI2_MIN_COUNTS
from spontrad.errors import (InsufficientDataError, NumericalError, SelectionEmptyError,
                             ValidationError)
from spontrad.synth import (CoverageReport, SynthConfig, alpha_limit_for_trial,
                            draw_counts, run_coverage, sample_spectrum)
from spontrad.spectrum import MAX_GRID_POINTS, total_counts

WINDOW = dict(e_min=15.0, e_max=48.0, bin_width=1.0)
HARMONIC_15_48 = 1.2072348485017923


def changed(config: SynthConfig, **fields) -> SynthConfig:
    """A new (and so checked) config with the given fields changed."""
    values = {name: getattr(config, name) for name in config.__slots__}
    return SynthConfig(**{**values, **fields})


class TestSynthConfig:
    def test_centers_inclusive(self):
        cfg = SynthConfig(alpha_true=1.0, **WINDOW)
        centers = cfg.centers()
        assert centers[0] == 15.0
        assert centers[-1] == 48.0
        assert len(centers) == 34

    def test_grid_at_the_size_cap(self):
        cfg = SynthConfig(alpha_true=1.0, e_min=1.0, e_max=float(MAX_GRID_POINTS),
                          bin_width=1.0)
        assert len(cfg.centers()) == MAX_GRID_POINTS
        with pytest.raises(ValidationError, match="1000001 points exceeds"):
            changed(cfg, e_max=cfg.e_max + 1.0).centers()

    def test_grid_peaks_at_its_result(self):
        # The center past e_max is cut from the built list, not filtered
        # into a copy of it (another 800 KB here), so the peak is the result.
        cfg = SynthConfig(alpha_true=1.0, e_min=1.0, e_max=10 ** 5 - 0.4, bin_width=1.0)
        tracemalloc.start()
        try:
            centers = cfg.centers()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(centers), centers[-1]) == (10 ** 5 - 1, 10 ** 5 - 1.0)
        held = sys.getsizeof(centers) + sum(map(sys.getsizeof, centers))
        assert peak < held + 2 ** 16

    def test_validation(self):
        with pytest.raises(ValidationError):
            SynthConfig(alpha_true=-1.0, **WINDOW)
        with pytest.raises(ValidationError):
            SynthConfig(alpha_true=1.0, e_min=48.0, e_max=15.0, bin_width=1.0)
        with pytest.raises(ValidationError):
            SynthConfig(alpha_true=1.0, e_min=15.0, e_max=48.0, bin_width=0.0)
        with pytest.raises(ValidationError):
            SynthConfig(alpha_true=1.0, flat_background_per_bin=-0.5, **WINDOW)
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValidationError, match=r"seed must be in \[0, 2\*\*64\)"):
                SynthConfig(alpha_true=1.0, seed=seed, **WINDOW)

    @pytest.mark.parametrize("seed", [1.5, "3", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValidationError) as caught:
            SynthConfig(alpha_true=1.0, seed=seed, **WINDOW)
        assert str(caught.value) == f"seed must be an integer, got {seed!r}"


class TestSampleSpectrum:
    def test_deterministic(self):
        cfg = SynthConfig(alpha_true=115.0, seed=42, **WINDOW)
        a = sample_spectrum(cfg)
        b = sample_spectrum(cfg)
        assert a.bins == b.bins

    def test_trial_streams_differ(self):
        cfg = SynthConfig(alpha_true=115.0, seed=42, **WINDOW)
        assert sample_spectrum(cfg, 0).bins != sample_spectrum(cfg, 1).bins

    def test_seed_changes_stream(self):
        a = sample_spectrum(SynthConfig(alpha_true=115.0, seed=1, **WINDOW))
        b = sample_spectrum(SynthConfig(alpha_true=115.0, seed=2, **WINDOW))
        assert a.bins != b.bins

    def test_zero_amplitude_zero_background(self):
        cfg = SynthConfig(alpha_true=0.0, **WINDOW)
        assert all(b.counts == 0 for b in sample_spectrum(cfg).bins)

    def test_mean_total_matches_harmonic_sum(self):
        # E[total] = alpha * sum(1/E_i); 10^4 replicas pin the average to
        # 3 sigma of the Poisson-mean standard error.
        cfg = SynthConfig(alpha_true=115.0, seed=7, **WINDOW)
        replicas = 10_000
        mean_total = 115.0 * HARMONIC_15_48
        avg = sum(total_counts(sample_spectrum(cfg, i))
                  for i in range(replicas)) / replicas
        assert abs(avg - mean_total) < 3.0 * math.sqrt(mean_total / replicas)

    def test_background_adds_counts_pointwise_on_matched_stream(self):
        # Below the sampler's rejection threshold each bin consumes exactly
        # one uniform, so adding background can only raise every count.
        clean = SynthConfig(alpha_true=115.0, seed=11, **WINDOW)
        noisy = SynthConfig(alpha_true=115.0, flat_background_per_bin=2.0,
                            seed=11, **WINDOW)
        for b_clean, b_noisy in zip(sample_spectrum(clean).bins,
                                    sample_spectrum(noisy).bins):
            assert b_noisy.counts >= b_clean.counts

    def test_width_enters_expectation(self):
        cfg = SynthConfig(alpha_true=400.0, e_min=20.0, e_max=30.0, bin_width=2.0,
                          seed=3)
        s = sample_spectrum(cfg)
        assert all(b.width == 2.0 for b in s.bins)
        # mean per bin = alpha*2/E in [26.7, 40]: far from zero, so counts > 0
        assert all(b.counts > 0 for b in s.bins)

    def test_bin_means_bounded_by_exact_float_counts(self):
        # One bin at 1 keV, so its mean is alpha itself.
        top = SynthConfig(alpha_true=2.0 ** 52, e_min=1.0, e_max=1.5, bin_width=1.0)
        assert sample_spectrum(top).bins[0].counts > 2 ** 51
        over = changed(top, alpha_true=math.nextafter(2.0 ** 52, math.inf))
        with pytest.raises(ValidationError, match="2\\*\\*52"):
            sample_spectrum(over)
        with pytest.raises(ValidationError, match="2\\*\\*52"):
            run_coverage(over, 3, "bayes", 0.95)

    @pytest.mark.parametrize("index,message", [
        (1.5, "trial_index must be an integer, got 1.5"),
        (-1, "trial_index must be in [0, 2**64), got -1"),
        # The streams take the index's low 64 bits: 2**64 would repeat trial 0.
        (2 ** 64, "trial_index must be in [0, 2**64), got 18446744073709551616"),
    ])
    def test_trial_index_outside_64_bits_is_rejected(self, index, message):
        cfg = SynthConfig(alpha_true=115.0, seed=42, **WINDOW)
        with pytest.raises(ValidationError) as caught:
            sample_spectrum(cfg, index)
        assert str(caught.value) == message

    def test_trial_index_at_the_top_of_64_bits(self):
        cfg = SynthConfig(alpha_true=115.0, seed=42, **WINDOW)
        top = sample_spectrum(cfg, 2 ** 64 - 1)
        assert top.source_label == f"synth(seed=42,trial={2 ** 64 - 1})"
        assert top.bins != sample_spectrum(cfg, 0).bins

    def test_a_sample_holds_nothing_after_it_returns(self):
        # The grid and Poisson plan live only as long as the call: once the
        # spectrum of 10^4 bins is dropped, nothing of it stays allocated.
        cfg = SynthConfig(alpha_true=1e4, e_min=1.0, e_max=1e4, bin_width=1.0, seed=7)
        assert len(cfg.centers()) == 10 ** 4
        tracemalloc.start()
        try:
            spectrum = sample_spectrum(cfg)
            del spectrum
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 64 * 2 ** 10


def _in_other_thread(fn):
    """fn() in a new thread, which has drawn nothing before."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return out[0]


class TestSpectrumIndependentOfHistoryAndThread:
    def test_equal_int_and_float_configs_keep_their_own_types(self):
        # Equal configs of int and float fields have centers of their own
        # types, whichever of them was drawn before.
        floats = SynthConfig(alpha_true=115.0, seed=1, **WINDOW)
        ints = SynthConfig(alpha_true=115, e_min=15, e_max=48, bin_width=1, seed=1)
        assert floats == ints
        fresh = _in_other_thread(lambda: repr(sample_spectrum(ints)))
        sample_spectrum(floats)
        assert repr(sample_spectrum(ints)) == fresh
        assert type(sample_spectrum(ints).bins[0].center) is int

    def test_a_draw_of_another_seed_changes_no_later_spectrum(self):
        cfg = SynthConfig(alpha_true=1000.0, seed=5, **WINDOW)
        fresh = _in_other_thread(lambda: [sample_spectrum(changed(cfg, seed=6), i)
                                          for i in range(20)])
        sample_spectrum(cfg)
        assert [sample_spectrum(changed(cfg, seed=6), i) for i in range(20)] == fresh

    def test_concurrent_threads_draw_what_one_thread_draws(self):
        # Each call builds its own grid and plan, whose sums its draws grow.
        # Four threads on two CPUs, switching every microsecond, draw the
        # same configs in turn; each must draw what one thread alone draws,
        # which a plan shared by two threads at once could break.
        configs = [SynthConfig(alpha_true=a, seed=3, **WINDOW) for a in (500.0, 1000.0)]

        def spectra():
            return [[sample_spectrum(c, i).bins for c in configs] for i in range(30)]

        want = _in_other_thread(spectra)
        got = {}

        def draw(k):
            got[k] = spectra()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=draw, args=(k,)) for k in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert [got[k] for k in range(4)] == [want] * 4


class TestAlphaLimitForTrial:
    def test_background_inflates_both_limit_routes(self):
        clean_cfg = SynthConfig(alpha_true=115.0, seed=11, **WINDOW)
        noisy_cfg = SynthConfig(alpha_true=115.0, flat_background_per_bin=2.0,
                                seed=11, **WINDOW)
        clean = sample_spectrum(clean_cfg)
        noisy = sample_spectrum(noisy_cfg)
        for method in ("chi2", "bayes"):
            lim_clean = alpha_limit_for_trial(clean, clean_cfg, method, 0.95)
            lim_noisy = alpha_limit_for_trial(noisy, noisy_cfg, method, 0.95)
            assert lim_noisy > lim_clean

    def test_bayes_route_uses_totals_only(self):
        cfg = SynthConfig(alpha_true=115.0, seed=5, **WINDOW)
        s = sample_spectrum(cfg)
        limit = alpha_limit_for_trial(s, cfg, "bayes", 0.95)
        assert limit > 0

    def test_unknown_method(self):
        cfg = SynthConfig(alpha_true=115.0, seed=5, **WINDOW)
        with pytest.raises(ValidationError):
            alpha_limit_for_trial(sample_spectrum(cfg), cfg, "mcmc", 0.95)


class TestRunCoverage:
    def test_single_trial_binary(self):
        cfg = SynthConfig(alpha_true=115.0, seed=9, **WINDOW)
        report = run_coverage(cfg, 1, "bayes", 0.95)
        assert report.covered in (0, 1)
        assert report.trials == 1

    def test_deterministic(self):
        cfg = SynthConfig(alpha_true=115.0, seed=21, **WINDOW)
        a = run_coverage(cfg, 200, "bayes", 0.95)
        b = run_coverage(cfg, 200, "bayes", 0.95)
        assert a == b

    def test_monotone_in_confidence(self):
        cfg = SynthConfig(alpha_true=115.0, seed=30, **WINDOW)
        fractions = [run_coverage(cfg, 400, "bayes", q).coverage_fraction
                     for q in (0.68, 0.95, 0.99)]
        assert fractions[0] <= fractions[1] <= fractions[2]

    def test_half_confidence_covers_about_half(self):
        cfg = SynthConfig(alpha_true=115.0, seed=17, **WINDOW)
        report = run_coverage(cfg, 1000, "bayes", 0.5)
        assert 0.40 < report.coverage_fraction < 0.62

    def test_skipped_trials_excluded_from_denominator(self):
        # Amplitude low enough that the count filter often starves the chi2
        # fit but not always; skipped + trials must account for every
        # request (31/29 split at this amplitude and seed).
        cfg = SynthConfig(alpha_true=50.0, seed=2, **WINDOW)
        report = run_coverage(cfg, 60, "chi2", 0.95)
        assert report.skipped > 0
        assert report.trials > 0
        assert report.trials + report.skipped == 60

    def test_all_trials_skipped_is_an_error(self):
        cfg = SynthConfig(alpha_true=3.0, seed=2, **WINDOW)
        with pytest.raises(InsufficientDataError):
            run_coverage(cfg, 60, "chi2", 0.95)

    def test_validation(self):
        cfg = SynthConfig(alpha_true=115.0, seed=1, **WINDOW)
        with pytest.raises(ValidationError):
            run_coverage(cfg, 0, "bayes", 0.95)
        with pytest.raises(ValidationError):
            run_coverage(cfg, 10, "mcmc", 0.95)
        with pytest.raises(ValidationError):
            run_coverage(cfg, 10, "bayes", 1.0)
        with pytest.raises(ValidationError) as caught:
            run_coverage(cfg, 1.5, "bayes", 0.95)
        assert str(caught.value) == "trials must be an integer, got 1.5"


# (method, alpha_true, background, confidence, seed) -> (trials, covered,
# skipped) of a 60-trial study on WINDOW.  Pinned from the object-building
# trial loop (one EnergyBin per bin, one BinnedSpectrum per trial) that the
# count-list loop replaced; any change here is a change of behaviour.
GOLDEN_TRIALS = 60
GOLDEN_COVERAGE = [
    ('bayes', 50.0, 0.0, 0.68, 2, (60, 37, 0)),
    ('bayes', 50.0, 0.0, 0.68, 7, (60, 37, 0)),
    ('bayes', 50.0, 0.0, 0.68, 20260823, (60, 41, 0)),
    ('bayes', 50.0, 0.0, 0.95, 2, (60, 58, 0)),
    ('bayes', 50.0, 0.0, 0.95, 7, (60, 59, 0)),
    ('bayes', 50.0, 0.0, 0.95, 20260823, (60, 57, 0)),
    ('bayes', 50.0, 2.0, 0.68, 2, (60, 60, 0)),
    ('bayes', 50.0, 2.0, 0.68, 7, (60, 60, 0)),
    ('bayes', 50.0, 2.0, 0.68, 20260823, (60, 60, 0)),
    ('bayes', 50.0, 2.0, 0.95, 2, (60, 60, 0)),
    ('bayes', 50.0, 2.0, 0.95, 7, (60, 60, 0)),
    ('bayes', 50.0, 2.0, 0.95, 20260823, (60, 60, 0)),
    ('bayes', 115.0, 0.0, 0.68, 2, (60, 40, 0)),
    ('bayes', 115.0, 0.0, 0.68, 7, (60, 37, 0)),
    ('bayes', 115.0, 0.0, 0.68, 20260823, (60, 41, 0)),
    ('bayes', 115.0, 0.0, 0.95, 2, (60, 58, 0)),
    ('bayes', 115.0, 0.0, 0.95, 7, (60, 55, 0)),
    ('bayes', 115.0, 0.0, 0.95, 20260823, (60, 55, 0)),
    ('bayes', 115.0, 2.0, 0.68, 2, (60, 60, 0)),
    ('bayes', 115.0, 2.0, 0.68, 7, (60, 60, 0)),
    ('bayes', 115.0, 2.0, 0.68, 20260823, (60, 60, 0)),
    ('bayes', 115.0, 2.0, 0.95, 2, (60, 60, 0)),
    ('bayes', 115.0, 2.0, 0.95, 7, (60, 60, 0)),
    ('bayes', 115.0, 2.0, 0.95, 20260823, (60, 60, 0)),
    ('bayes', 300.0, 0.0, 0.68, 2, (60, 39, 0)),
    ('bayes', 300.0, 0.0, 0.68, 7, (60, 38, 0)),
    ('bayes', 300.0, 0.0, 0.68, 20260823, (60, 42, 0)),
    ('bayes', 300.0, 0.0, 0.95, 2, (60, 58, 0)),
    ('bayes', 300.0, 0.0, 0.95, 7, (60, 56, 0)),
    ('bayes', 300.0, 0.0, 0.95, 20260823, (60, 57, 0)),
    ('bayes', 300.0, 2.0, 0.68, 2, (60, 60, 0)),
    ('bayes', 300.0, 2.0, 0.68, 7, (60, 60, 0)),
    ('bayes', 300.0, 2.0, 0.68, 20260823, (60, 60, 0)),
    ('bayes', 300.0, 2.0, 0.95, 2, (60, 60, 0)),
    ('bayes', 300.0, 2.0, 0.95, 7, (60, 60, 0)),
    ('bayes', 300.0, 2.0, 0.95, 20260823, (60, 60, 0)),
    ('bayes', 1000.0, 0.0, 0.68, 2, (60, 37, 0)),
    ('bayes', 1000.0, 0.0, 0.68, 7, (60, 42, 0)),
    ('bayes', 1000.0, 0.0, 0.68, 20260823, (60, 37, 0)),
    ('bayes', 1000.0, 0.0, 0.95, 2, (60, 58, 0)),
    ('bayes', 1000.0, 0.0, 0.95, 7, (60, 58, 0)),
    ('bayes', 1000.0, 0.0, 0.95, 20260823, (60, 60, 0)),
    ('bayes', 1000.0, 2.0, 0.68, 2, (60, 59, 0)),
    ('bayes', 1000.0, 2.0, 0.68, 7, (60, 60, 0)),
    ('bayes', 1000.0, 2.0, 0.68, 20260823, (60, 60, 0)),
    ('bayes', 1000.0, 2.0, 0.95, 2, (60, 60, 0)),
    ('bayes', 1000.0, 2.0, 0.95, 7, (60, 60, 0)),
    ('bayes', 1000.0, 2.0, 0.95, 20260823, (60, 60, 0)),
    ('chi2', 50.0, 0.0, 0.68, 2, (31, 31, 29)),
    ('chi2', 50.0, 0.0, 0.68, 7, (32, 32, 28)),
    ('chi2', 50.0, 0.0, 0.68, 20260823, (36, 36, 24)),
    ('chi2', 50.0, 0.0, 0.95, 2, (31, 31, 29)),
    ('chi2', 50.0, 0.0, 0.95, 7, (32, 32, 28)),
    ('chi2', 50.0, 0.0, 0.95, 20260823, (36, 36, 24)),
    ('chi2', 50.0, 2.0, 0.68, 2, (60, 60, 0)),
    ('chi2', 50.0, 2.0, 0.68, 7, (60, 60, 0)),
    ('chi2', 50.0, 2.0, 0.68, 20260823, (60, 60, 0)),
    ('chi2', 50.0, 2.0, 0.95, 2, (60, 60, 0)),
    ('chi2', 50.0, 2.0, 0.95, 7, (60, 60, 0)),
    ('chi2', 50.0, 2.0, 0.95, 20260823, (60, 60, 0)),
    ('chi2', 115.0, 0.0, 0.68, 2, (60, 60, 0)),
    ('chi2', 115.0, 0.0, 0.68, 7, (60, 60, 0)),
    ('chi2', 115.0, 0.0, 0.68, 20260823, (60, 60, 0)),
    ('chi2', 115.0, 0.0, 0.95, 2, (60, 60, 0)),
    ('chi2', 115.0, 0.0, 0.95, 7, (60, 60, 0)),
    ('chi2', 115.0, 0.0, 0.95, 20260823, (60, 60, 0)),
    ('chi2', 115.0, 2.0, 0.68, 2, (60, 60, 0)),
    ('chi2', 115.0, 2.0, 0.68, 7, (60, 60, 0)),
    ('chi2', 115.0, 2.0, 0.68, 20260823, (60, 60, 0)),
    ('chi2', 115.0, 2.0, 0.95, 2, (60, 60, 0)),
    ('chi2', 115.0, 2.0, 0.95, 7, (60, 60, 0)),
    ('chi2', 115.0, 2.0, 0.95, 20260823, (60, 60, 0)),
    ('chi2', 300.0, 0.0, 0.68, 2, (60, 18, 0)),
    ('chi2', 300.0, 0.0, 0.68, 7, (60, 24, 0)),
    ('chi2', 300.0, 0.0, 0.68, 20260823, (60, 22, 0)),
    ('chi2', 300.0, 0.0, 0.95, 2, (60, 47, 0)),
    ('chi2', 300.0, 0.0, 0.95, 7, (60, 44, 0)),
    ('chi2', 300.0, 0.0, 0.95, 20260823, (60, 46, 0)),
    ('chi2', 300.0, 2.0, 0.68, 2, (60, 59, 0)),
    ('chi2', 300.0, 2.0, 0.68, 7, (60, 59, 0)),
    ('chi2', 300.0, 2.0, 0.68, 20260823, (60, 60, 0)),
    ('chi2', 300.0, 2.0, 0.95, 2, (60, 60, 0)),
    ('chi2', 300.0, 2.0, 0.95, 7, (60, 60, 0)),
    ('chi2', 300.0, 2.0, 0.95, 20260823, (60, 60, 0)),
    ('chi2', 1000.0, 0.0, 0.68, 2, (60, 15, 0)),
    ('chi2', 1000.0, 0.0, 0.68, 7, (60, 25, 0)),
    ('chi2', 1000.0, 0.0, 0.68, 20260823, (60, 16, 0)),
    ('chi2', 1000.0, 0.0, 0.95, 2, (60, 41, 0)),
    ('chi2', 1000.0, 0.0, 0.95, 7, (60, 46, 0)),
    ('chi2', 1000.0, 0.0, 0.95, 20260823, (60, 38, 0)),
    ('chi2', 1000.0, 2.0, 0.68, 2, (60, 56, 0)),
    ('chi2', 1000.0, 2.0, 0.68, 7, (60, 54, 0)),
    ('chi2', 1000.0, 2.0, 0.68, 20260823, (60, 58, 0)),
    ('chi2', 1000.0, 2.0, 0.95, 2, (60, 60, 0)),
    ('chi2', 1000.0, 2.0, 0.95, 7, (60, 60, 0)),
    ('chi2', 1000.0, 2.0, 0.95, 20260823, (60, 60, 0)),
]


class TestGoldenCoverage:
    @pytest.mark.parametrize("method,alpha,background,confidence,seed,expected",
                             GOLDEN_COVERAGE)
    def test_pinned_counts(self, method, alpha, background, confidence, seed, expected):
        cfg = SynthConfig(alpha_true=alpha, flat_background_per_bin=background,
                          seed=seed, **WINDOW)
        report = run_coverage(cfg, GOLDEN_TRIALS, method, confidence)
        assert (report.trials, report.covered, report.skipped) == expected

    @pytest.mark.parametrize("alpha,background", [(115.0, 0.0), (1000.0, 2.0)])
    def test_count_draws_match_sampled_spectra(self, alpha, background):
        # alpha 1000 puts the low-energy bins on the PTRS sampler.
        cfg = SynthConfig(alpha_true=alpha, flat_background_per_bin=background,
                          seed=20260823, **WINDOW)
        plan = kernels.poisson_plan(cfg.bin_means())
        for i in range(50):
            counts = draw_counts(cfg, plan, i)
            assert all(type(n) is int for n in counts)
            assert counts == [b.counts for b in sample_spectrum(cfg, i).bins]

    def test_invalid_grid_raises_the_bin_error(self):
        # The grid is checked once per study; the error is the first bin's.
        cfg = SynthConfig(alpha_true=115.0, e_min=0.25, e_max=10.0, bin_width=1.0)
        with pytest.raises(ValidationError, match="non-positive energy") as sampled:
            sample_spectrum(cfg)
        for method in ("bayes", "chi2"):
            with pytest.raises(ValidationError) as studied:
                run_coverage(cfg, 10, method, 0.95)
            assert str(studied.value) == str(sampled.value)


@pytest.fixture()
def split(monkeypatch):
    """split(n) makes every study fork into n workers; returns the child pids.

    After the test no child of this process may be left, reaped or not.
    """
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def set_workers(n):
        monkeypatch.setattr(synth, "_usable_cpus", lambda: n)
        monkeypatch.setattr(synth, "MIN_TRIALS_PER_WORKER", 1)
        monkeypatch.setattr(os, "fork", counted_fork)
        return pids

    yield set_workers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_from_trial(monkeypatch, cfg, trials, first_bad):
    """Make a chi2 study's closed-form fit fail for the kept bins of trial
    first_bad and of every later trial whose kept bins no earlier trial had;
    returns the error a serial chi2 study raises."""
    plan = kernels.poisson_plan(cfg.bin_means())
    kept = [tuple((c, n) for c, n in zip(cfg.centers(), draw_counts(cfg, plan, i))
                  if n >= CHI2_MIN_COUNTS) for i in range(trials)]
    assert all(len(bins) >= 2 for bins in kept)  # no trial is skipped
    bad = set(kept[first_bad:]) - set(kept[:first_bad])
    assert kept[first_bad] in bad
    fit = synth.closed_form

    def failing_fit(bins):
        if tuple(bins) in bad:
            raise NumericalError(f"no fit for the bins of trial {kept.index(tuple(bins))}")
        return fit(bins)

    monkeypatch.setattr(synth, "closed_form", failing_fit)
    return f"no fit for the bins of trial {first_bad}"


class TestSplitTrials:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_golden_studies_identical_for_any_split(self, split, workers):
        pids = split(workers)
        for method, alpha, background, confidence, seed, expected in GOLDEN_COVERAGE:
            cfg = SynthConfig(alpha_true=alpha, flat_background_per_bin=background,
                              seed=seed, **WINDOW)
            trials, covered, skipped = expected
            assert run_coverage(cfg, GOLDEN_TRIALS, method, confidence) == CoverageReport(
                trials=trials, covered=covered, method=method, confidence=confidence,
                skipped=skipped)
        assert len(pids) == (workers - 1) * len(GOLDEN_COVERAGE)

    def test_small_study_runs_serially(self, split, monkeypatch):
        pids = split(4)
        monkeypatch.setattr(synth, "MIN_TRIALS_PER_WORKER", 30)
        cfg = SynthConfig(alpha_true=115.0, seed=2, **WINDOW)
        run_coverage(cfg, 59, "bayes", 0.95)
        assert pids == []
        run_coverage(cfg, 60, "bayes", 0.95)
        assert len(pids) == 1

    def test_threaded_caller_is_not_forked(self, split):
        pids = split(3)
        cfg = SynthConfig(alpha_true=115.0, seed=2, **WINDOW)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            report = run_coverage(cfg, GOLDEN_TRIALS, "bayes", 0.95)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert pids == []
        assert (report.trials, report.covered) == (60, 58)

    def test_failed_fork_runs_the_range_here(self, split, monkeypatch):
        pids = split(3)
        fork = os.fork

        def fork_once():
            if pids:
                raise BlockingIOError("no more processes")
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        cfg = SynthConfig(alpha_true=1000.0, seed=7, **WINDOW)
        report = run_coverage(cfg, GOLDEN_TRIALS, "chi2", 0.95)
        assert len(pids) == 1
        assert (report.trials, report.covered, report.skipped) == (60, 46, 0)

    def test_cli_error_identical_when_split(self, split, run_cli, monkeypatch):
        # The first failing trial lies in the last child's range, so the split
        # run prints the error a child raised.
        cfg = SynthConfig(alpha_true=115.0, seed=0, **WINDOW)
        message = _fail_from_trial(monkeypatch, cfg, 20, 15)
        argv = ("coverage", "--method", "chi2", "--alpha", "115", "--trials", 20)
        split(1)
        serial = run_cli(*argv)
        pids = split(3)
        parallel = run_cli(*argv)
        assert len(pids) == 2
        assert serial.code == parallel.code == 4
        assert serial.error["error"]["message"] == message
        assert parallel.err == serial.err
        assert parallel.out == serial.out == ""

    @pytest.mark.parametrize("first_bad", [0, 25, 45])
    def test_failing_trial_raises_the_serial_error(self, split, monkeypatch, first_bad):
        # Which range holds the first failing trial decides who raises it:
        # the parent (0), the first child (25) or the last child (45).
        cfg = SynthConfig(alpha_true=115.0, seed=20260823, **WINDOW)
        message = _fail_from_trial(monkeypatch, cfg, GOLDEN_TRIALS, first_bad)
        split(1)
        with pytest.raises(NumericalError) as serial:
            run_coverage(cfg, GOLDEN_TRIALS, "chi2", 0.95)
        assert str(serial.value) == message
        pids = split(3)
        with pytest.raises(NumericalError) as parallel:
            run_coverage(cfg, GOLDEN_TRIALS, "chi2", 0.95)
        assert len(pids) == 2
        assert str(parallel.value) == str(serial.value)


def _per_trial(cfg, trials, method, confidence=0.95):
    """(covered, skipped) of trials 0..trials-1 by the one-off route:
    alpha_limit_for_trial on sample_spectrum, trial by trial."""
    covered = skipped = 0
    for i in range(trials):
        try:
            limit = alpha_limit_for_trial(sample_spectrum(cfg, i), cfg, method, confidence)
        except (InsufficientDataError, SelectionEmptyError):
            skipped += 1
            continue
        covered += limit >= cfg.alpha_true
    return covered, skipped


class TestBlockDraws:
    @pytest.mark.parametrize("alpha", [115.0, 1000.0, 1e4, 0.0])
    @pytest.mark.parametrize("start,stop", [(0, 600), (255, 258), (1500, 1800), (7, 8)])
    def test_streams_give_each_trials_own_counts(self, alpha, start, stop):
        # Whole and partial blocks, ranges off a block edge, a block of one;
        # at alpha 1e4 every mean takes PTRS and rows often run out, at 0
        # no mean takes a uniform.
        cfg = SynthConfig(alpha_true=alpha, seed=20260823, **WINDOW)
        plan = kernels.poisson_plan(cfg.bin_means())
        drawn = [kernels.poisson_counts(plan, uniform)
                 for uniform in synth._trial_streams(cfg.seed, start, stop, plan)]
        assert drawn == [draw_counts(cfg, plan, i) for i in range(start, stop)]

    @pytest.mark.parametrize("method,alpha,trials,workers", [
        ("bayes", 115.0, 600, 1),    # two whole blocks and a partial one
        ("bayes", 115.0, 3000, 2),   # the second range starts at 1500
        ("chi2", 1000.0, 600, 3),    # three ranges of 200
        ("chi2", 1e4, 520, 2),       # every mean on PTRS
        ("bayes", 1e4, 300, 1),
        ("bayes", 0.0, 300, 2),      # every mean zero
        ("bayes", 115.0, 1, 1),      # a study of one trial
        ("chi2", 1000.0, 257, 1),    # a last block of one trial
        # The README's saw-tooth alphas, each next to the step of y* it is
        # rounded from: there alpha equals the limit of a total.
        ("bayes", 4.48, 300, 2),
        ("bayes", 4.4813193963621085, 300, 2),
        ("bayes", 10.06, 300, 1),
        ("bayes", 10.062775544460406, 300, 1),
        ("bayes", 100.56354743924055, 300, 2),
        ("bayes", 100.6, 300, 2),
        ("bayes", 1000.1, 300, 1),
        ("bayes", 1000.1292556864211, 300, 1),
    ])
    def test_study_matches_the_per_trial_route(self, split, method, alpha, trials, workers):
        cfg = SynthConfig(alpha_true=alpha, seed=20260823, **WINDOW)
        covered, skipped = _per_trial(cfg, trials, method)
        split(workers)
        report = run_coverage(cfg, trials, method, 0.95)
        assert (report.covered, report.skipped) == (covered, skipped)

    def test_bayes_study_bisects_its_drawn_totals(self, split, monkeypatch):
        # A limit grows with the total, so a study finds y* among the
        # totals it drew, in about log2 of their number of limits.
        cfg = SynthConfig(alpha_true=1e4, seed=12345, **WINDOW)
        plan = kernels.poisson_plan(cfg.bin_means())
        drawn = {sum(kernels.poisson_counts(plan, uniform))
                 for uniform in synth._trial_streams(cfg.seed, 0, 3000, plan)}
        calls = []
        limit = synth._bayes_limit

        def counted_limit(y_total, harmonic, confidence):
            calls.append(y_total)
            return limit(y_total, harmonic, confidence)

        monkeypatch.setattr(synth, "_bayes_limit", counted_limit)
        split(1)
        assert run_coverage(cfg, 3000, "bayes", 0.95).covered == 2843
        assert len(calls) <= 10
        assert set(calls) <= drawn

    def test_zero_grid_chi2_study_skips_every_trial(self, split):
        cfg = SynthConfig(alpha_true=0.0, seed=3, **WINDOW)
        assert _per_trial(cfg, 300, "chi2") == (0, 300)
        split(2)
        with pytest.raises(InsufficientDataError, match="all 300 trials were skipped"):
            run_coverage(cfg, 300, "chi2", 0.95)

    @pytest.mark.parametrize("bins,trials", [(10 ** 5, 2), (10 ** 4, 12)])
    def test_making_the_streams_allocates_little(self, monkeypatch, bins, trials):
        # A block's rows hold at most about _BLOCK_UNIFORMS uniforms, so
        # making a stream allocates a few MB at most, however wide the grid:
        # on 10^5 bins a row outgrows the block and each trial takes its
        # scalar stream (under 1 KB), and on 10^4 bins a block holds 6
        # trials (about 4.2 MB).  Two trials of 10^5 bins drawn as lanes
        # would allocate about 23 MB.  Only the making of each stream is
        # traced; the draws from it are not.
        cfg = SynthConfig(alpha_true=1e4, e_min=10.0, e_max=10.0 + (bins - 1) * 0.01,
                          bin_width=0.01, seed=1)
        assert len(cfg.centers()) == bins
        streams = synth._trial_streams
        peaks = []

        def traced(*args):
            made = streams(*args)
            while True:
                tracemalloc.start()
                try:
                    uniform = next(made, None)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                if uniform is None:
                    return
                yield uniform

        monkeypatch.setattr(synth, "_trial_streams", traced)
        monkeypatch.setattr(synth, "MIN_TRIALS_PER_WORKER", 10 ** 9)
        assert run_coverage(cfg, trials, "bayes", 0.95).trials == trials
        assert len(peaks) == trials + 1
        assert max(peaks) < 8 * 2 ** 20


class TestExactBayesCoverage:
    """A bayes limit grows with the trial's total Y, which is Poisson with
    mean mu, the sum of the bin means.  So a study covers with probability
    P(Y >= y*), y* the least total whose limit reaches alpha_true: scipy's
    gammainc(y*, mu), or 1 where y* = 0.  This judges the sampler, the
    plan, the block draws, the fork split and the memo by their statistics,
    apart from the pinned counts."""

    TRIALS = 1000

    @staticmethod
    def _exact(cfg, confidence):
        harmonic = harmonic_sum(sample_spectrum(cfg).bins)

        def reaches(y):
            return synth._bayes_limit(y, harmonic, confidence) >= cfg.alpha_true

        lo, hi = -1, 1
        while not reaches(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:  # reaches(hi), and lo is -1 or does not reach
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
        if hi == 0:
            return 1.0
        return float(special.gammainc(hi, math.fsum(cfg.bin_means())))

    @pytest.mark.parametrize("alpha", [5.0, 50.0, 115.0, 1000.0])
    @pytest.mark.parametrize("background,confidence,window", [
        (0.0, 0.95, WINDOW),
        (0.5, 0.68, dict(e_min=10.0, e_max=30.0, bin_width=0.5)),
        (0.0, 0.9, dict(e_min=20.0, e_max=60.0, bin_width=2.0)),
    ])
    def test_study_within_4_standard_errors(self, alpha, background, confidence, window):
        cfg = SynthConfig(alpha_true=alpha, flat_background_per_bin=background, seed=4242,
                          **window)
        exact = self._exact(cfg, confidence)
        report = run_coverage(cfg, self.TRIALS, "bayes", confidence)
        assert report.trials == self.TRIALS
        bound = 4.0 * math.sqrt(exact * (1.0 - exact) / self.TRIALS)
        assert abs(report.coverage_fraction - exact) <= bound, (exact, report.covered)


class TestChi2StudyTalliesTrialLimits:
    @pytest.mark.parametrize("confidence", [0.68, 0.99])
    @pytest.mark.parametrize("background", [0.0, 2.0])
    @pytest.mark.parametrize("alpha", [50.0, 300.0, 1000.0, 1e4])
    def test_covered_and_skipped_match_the_one_off_route(self, split, alpha, background,
                                                         confidence):
        # The study computes each chi2 limit from the closed-form sums; the
        # one-off route fits a selected spectrum.  A trial with fewer than
        # two bins left is skipped by the study and raises in the route.
        cfg = SynthConfig(alpha_true=alpha, flat_background_per_bin=background,
                          seed=4242, **WINDOW)
        trials = 200
        covered, skipped = _per_trial(cfg, trials, "chi2", confidence)
        for workers in (1, 2):
            split(workers)
            report = run_coverage(cfg, trials, "chi2", confidence)
            assert (report.covered, report.skipped) == (covered, skipped), workers

    def test_overflowing_weight_raises_the_one_off_error(self):
        # Centers near 1e-160 keV square to a subnormal, so a weight
        # 1/(y E^2) overflows to inf and sigma_alpha comes out 0.
        cfg = SynthConfig(alpha_true=100.0, e_min=1e-160, e_max=1e-159,
                          bin_width=1e-160, seed=3)
        with pytest.raises(ValidationError, match="sigma_alpha must be positive") as one:
            alpha_limit_for_trial(sample_spectrum(cfg, 0), cfg, "chi2", 0.95)
        with pytest.raises(ValidationError) as studied:
            run_coverage(cfg, 5, "chi2", 0.95)
        assert str(studied.value) == str(one.value)


class TestCoverageReport:
    def test_fraction_identity(self):
        report = CoverageReport(trials=200, covered=150, method="bayes",
                                confidence=0.95)
        assert report.coverage_fraction == 0.75

    def test_validation(self):
        with pytest.raises(ValidationError):
            CoverageReport(trials=0, covered=0, method="bayes", confidence=0.95)
        with pytest.raises(ValidationError):
            CoverageReport(trials=10, covered=11, method="bayes", confidence=0.95)
        with pytest.raises(ValidationError):
            CoverageReport(trials=10, covered=5, method="mcmc", confidence=0.95)
