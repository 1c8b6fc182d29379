"""Synthetic spectrum generation and coverage studies."""

import math
import os
import threading
from dataclasses import replace

import pytest

from spontrad import synth
from spontrad.backend import kernels
from spontrad.errors import (InsufficientDataError, NumericalError, SelectionEmptyError,
                             ValidationError)
from spontrad.synth import (CoverageReport, SynthConfig, alpha_limit_for_trial,
                            draw_counts, run_coverage, sample_spectrum)
from spontrad.spectrum import MAX_GRID_POINTS, total_counts

WINDOW = dict(e_min=15.0, e_max=48.0, bin_width=1.0)
HARMONIC_15_48 = 1.2072348485017923


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
            replace(cfg, e_max=cfg.e_max + 1.0).centers()

    def test_validation(self):
        with pytest.raises(ValidationError):
            SynthConfig(alpha_true=-1.0, **WINDOW)
        with pytest.raises(ValidationError):
            SynthConfig(alpha_true=1.0, e_min=48.0, e_max=15.0, bin_width=1.0)
        with pytest.raises(ValidationError):
            SynthConfig(alpha_true=1.0, e_min=15.0, e_max=48.0, bin_width=0.0)
        with pytest.raises(ValidationError):
            SynthConfig(alpha_true=1.0, flat_background_per_bin=-0.5, **WINDOW)


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
        over = replace(top, alpha_true=math.nextafter(2.0 ** 52, math.inf))
        with pytest.raises(ValidationError, match="2\\*\\*52"):
            sample_spectrum(over)
        with pytest.raises(ValidationError, match="2\\*\\*52"):
            run_coverage(over, 3, "bayes", 0.95)


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
    """Make the bayes limit fail for every total first drawn at trial
    first_bad or later; returns the error a serial study raises."""
    plan = kernels.poisson_plan(cfg.bin_means())
    totals = [sum(draw_counts(cfg, plan, i)) for i in range(trials)]
    bad = set(totals[first_bad:]) - set(totals[:first_bad])
    assert bad
    limit = synth._bayes_limit

    def failing_limit(y_total, harmonic, confidence):
        if y_total in bad:
            raise NumericalError(f"no limit for total {y_total}")
        return limit(y_total, harmonic, confidence)

    monkeypatch.setattr(synth, "_bayes_limit", failing_limit)
    first = next(t for t in totals[first_bad:] if t in bad)
    return f"no limit for total {first}"


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
        argv = ("coverage", "--method", "bayes", "--alpha", "115", "--trials", 20)
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
            run_coverage(cfg, GOLDEN_TRIALS, "bayes", 0.95)
        assert str(serial.value) == message
        pids = split(3)
        with pytest.raises(NumericalError) as parallel:
            run_coverage(cfg, GOLDEN_TRIALS, "bayes", 0.95)
        assert len(pids) == 2
        assert str(parallel.value) == str(serial.value)


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
        covered = skipped = 0
        for i in range(trials):
            try:
                limit = alpha_limit_for_trial(sample_spectrum(cfg, i), cfg, "chi2",
                                              confidence)
            except (InsufficientDataError, SelectionEmptyError):
                skipped += 1
                continue
            covered += limit >= alpha
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
