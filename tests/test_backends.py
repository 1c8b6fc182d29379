"""Kernels: correctness oracles, stream regression, the Poisson plan.

The special functions are checked against scipy, the RNG and its lane
stream against an independent reimplementation of the published
recurrences, and the Poisson plan against the loop sampler below.
"""

import math

import mpmath
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from spontrad import _kernels_py
from spontrad.spectrum import MAX_TRIALS


@pytest.fixture(params=[pytest.param(_kernels_py, id="python")])
def kern(request):
    return request.param


# --- reference streams -------------------------------------------------------
# Independent reimplementation of the published splitmix64/xoshiro256**
# recurrences, structured unlike the package code on purpose.

_M = 1 << 64


def _ref_splitmix64(x):
    while True:
        x = (x + 0x9E3779B97F4A7C15) % _M
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % _M
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % _M
        yield z ^ (z >> 31)


def _ref_rotl(v, k):
    return ((v << k) % _M) | (v >> (64 - k))


def _ref_output(s1):
    """The xoshiro256** output of a state whose second word is s1."""
    return (_ref_rotl((s1 * 5) % _M, 7) * 9) % _M


class _RefXoshiro:
    def __init__(self, seed):
        gen = _ref_splitmix64(seed)
        self.state = [next(gen) for _ in range(4)]

    def next(self):
        s = self.state
        out = _ref_output(s[1])
        t = (s[1] << 17) % _M
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _ref_rotl(s[3], 45)
        return out


def _ref_uniform(out):
    """The uniform of a 64-bit output: its top 53 bits, scaled by 2**-53.
    The package draws only these, so its low 11 bits are never observed."""
    return (out >> 11) * 2.0 ** -53


def _seeded(seed):
    """The package's xoshiro256** state for Rng(seed)."""
    return _kernels_py._xoshiro_state(seed % _M, _M - 1, 0x9E3779B97F4A7C15)


# --- reference sampler -------------------------------------------------------
# The loop sampler, one draw per call, on any object with a uniform():
# inversion of one uniform below mean 30, Hormann's PTRS from 30.

def poisson(rng, mean):
    if not mean >= 0.0 or not math.isfinite(mean):
        raise ValueError(f"poisson mean must be finite and >= 0, got {mean}")
    if mean == 0.0:
        return 0
    if mean < 30.0:
        return _poisson_inversion(rng, mean)
    return _poisson_ptrs(rng, mean)


def _poisson_inversion(rng, mean):
    u = rng.uniform()
    prob = math.exp(-mean)
    cum = prob
    k = 0
    while u >= cum:
        k += 1
        prob *= mean / k
        cum += prob
        if prob <= 0.0 or k > 10000:
            break
    return k


def _poisson_ptrs(rng, mean):
    mean, loglam, a, b, vr, log_invalpha = _kernels_py._ptrs_constants(mean)
    for _ in range(10000):
        u = rng.uniform() - 0.5
        v = rng.uniform()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= vr:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if (math.log(v) + log_invalpha - math.log(a / (us * us) + b)
                <= k * loglam - mean - _kernels_py.log_gamma(k + 1.0)):
            return int(k)
    raise ValueError(f"poisson rejection sampler failed to accept (mean={mean})")


# First outputs for seed 0, frozen; guards against silent stream changes.
SEED0_FIRST3 = (11091344671253066420, 13793997310169335082, 1900383378846508768)
SEED42_FIRST3 = (1546998764402558742, 6990951692964543102, 12544586762248559009)


class TestIntegerStream:
    @pytest.mark.parametrize("seed,expected", [(0, SEED0_FIRST3),
                                               (42, SEED42_FIRST3)])
    def test_frozen_first_outputs(self, kern, seed, expected):
        rng = kern.Rng(seed)
        assert tuple(rng.uniform() for _ in range(3)) == tuple(map(_ref_uniform, expected))

    @pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 63, 2 ** 64 - 1])
    def test_matches_reference_recurrence(self, kern, seed):
        ref = _RefXoshiro(seed)
        assert _seeded(seed) == ref.state
        stream = kern.uniform_stream(*_seeded(seed))
        assert [next(stream) for _ in range(200)] == [_ref_uniform(ref.next())
                                                      for _ in range(200)]

    @settings(max_examples=50, deadline=None)
    @given(state=st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1),
                          min_size=4, max_size=4))
    def test_steps_from_any_state_match_the_reference(self, state):
        # The scalar stream's seam: the package's step, started from any
        # state, follows the recurrence.
        ref = _RefXoshiro(0)
        ref.state = list(state)
        stream = _kernels_py.uniform_stream(*state)
        assert [next(stream) for _ in range(20)] == [_ref_uniform(ref.next())
                                                     for _ in range(20)]

    def test_outputs_span_53_bits(self, kern):
        rng = kern.Rng(123)
        values = [int(rng.uniform() * 2.0 ** 53) for _ in range(2000)]
        assert all(0 <= v < 2 ** 53 for v in values)
        assert any(v >> 52 for v in values)
        assert any(v & 1 for v in values)

    def test_mix_seed_matches_reference(self, kern):
        for seed, index in ((0, 0), (42, 1), (42, 2), (7, 10 ** 6)):
            expected = next(_ref_splitmix64(
                seed ^ ((index * 0x9E3779B97F4A7C15) % _M)))
            assert kern.mix_seed(seed, index) == expected

    def test_mix_seed_distinct_over_indices(self, kern):
        seeds = {kern.mix_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000


class TestUniform:
    def test_in_unit_interval(self, kern):
        rng = kern.Rng(5)
        values = [rng.uniform() for _ in range(5000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_distribution(self, kern):
        rng = kern.Rng(2024)
        values = [rng.uniform() for _ in range(20_000)]
        d, p = stats.kstest(values, "uniform")
        assert p > 1e-4

    @pytest.mark.parametrize("seed", [0, 42, 2 ** 64 - 1])
    def test_top_53_bits_of_the_reference_stream(self, kern, seed):
        ref = _RefXoshiro(seed)
        rng = kern.Rng(seed)
        assert [rng.uniform() for _ in range(200)] == [(ref.next() >> 11) * 2.0 ** -53
                                                       for _ in range(200)]


class TestLaneStream:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, 2 ** 63, 2 ** 64 - 1]),
                          st.integers(min_value=0, max_value=2 ** 64 - 1)),
           start=st.one_of(st.sampled_from([0, 255, 256, MAX_TRIALS - 1]),
                           st.integers(min_value=0, max_value=MAX_TRIALS - 1)),
           count=st.integers(min_value=1, max_value=300),
           steps=st.integers(min_value=0, max_value=40),
           past=st.integers(min_value=0, max_value=5))
    @example(seed=0, start=0, count=1, steps=0, past=3)
    @example(seed=2 ** 63, start=255, count=300, steps=40, past=5)
    @example(seed=2 ** 64 - 1, start=256, count=2, steps=1, past=5)
    @example(seed=2 ** 64 - 1, start=MAX_TRIALS - 1, count=300, steps=7, past=2)
    def test_rows_and_continuations_are_the_trial_streams(self, seed, start, count, steps,
                                                          past):
        # Each trial's row, then past draws of the scalar stream after it,
        # are the trial's own stream draw for draw.
        streams = _kernels_py.lane_uniforms(seed, start, start + count, steps)
        assert len(streams) == count
        for i, uniform in enumerate(streams, start):
            rng = _kernels_py.Rng(_kernels_py.mix_seed(seed, i))
            draws = steps + past
            assert [uniform() for _ in range(draws)] == [rng.uniform()
                                                         for _ in range(draws)], i


class TestPoisson:
    @pytest.mark.parametrize("mean", [0.4, 3.0, 7.67, 29.9])
    def test_inversion_regime_distribution(self, kern, mean):
        rng = kern.Rng(777)
        n = 20_000
        draws = [rng.poisson(mean) for _ in range(n)]
        kmax = max(draws)
        observed = [0] * (kmax + 2)
        for k in draws:
            observed[k] += 1
        pmf = [stats.poisson.pmf(k, mean) for k in range(kmax + 1)]
        pmf.append(1.0 - sum(pmf))
        # Merge sparse tail cells so the chi-square approximation holds.
        obs_m, exp_m = [], []
        acc_o = acc_e = 0.0
        for o, q in zip(observed, pmf):
            acc_o += o
            acc_e += q * n
            if acc_e >= 5.0:
                obs_m.append(acc_o)
                exp_m.append(acc_e)
                acc_o = acc_e = 0.0
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
        _, p = stats.chisquare(obs_m, exp_m)
        assert p > 1e-4

    @pytest.mark.parametrize("mean", [30.0, 115.0, 1000.0])
    def test_rejection_regime_moments(self, kern, mean):
        rng = kern.Rng(888)
        n = 20_000
        draws = [rng.poisson(mean) for _ in range(n)]
        avg = sum(draws) / n
        var = sum((d - avg) ** 2 for d in draws) / (n - 1)
        assert abs(avg - mean) < 4.0 * math.sqrt(mean / n)
        assert abs(var - mean) < 6.0 * mean * math.sqrt(2.0 / n)

    def test_rejection_regime_distribution(self, kern):
        mean = 115.0
        rng = kern.Rng(999)
        n = 20_000
        draws = [rng.poisson(mean) for _ in range(n)]
        lo = int(mean - 5 * math.sqrt(mean))
        hi = int(mean + 5 * math.sqrt(mean))
        edges = list(range(lo, hi + 1, 4))
        observed = [0] * (len(edges) + 1)
        for k in draws:
            for i, e in enumerate(edges):
                if k < e:
                    observed[i] += 1
                    break
            else:
                observed[-1] += 1
        cdf = [stats.poisson.cdf(e - 1, mean) for e in edges]
        expected = [cdf[0] * n]
        expected += [(b - a) * n for a, b in zip(cdf, cdf[1:])]
        expected.append((1.0 - cdf[-1]) * n)
        _, p = stats.chisquare(observed, expected)
        assert p > 1e-4

    def test_mean_zero(self, kern):
        rng = kern.Rng(1)
        assert rng.poisson(0.0) == 0

    def test_invalid_mean(self, kern):
        rng = kern.Rng(1)
        with pytest.raises(ValueError):
            rng.poisson(-1.0)
        with pytest.raises(ValueError):
            rng.poisson(math.inf)

    def test_inversion_monotone_in_mean_on_matched_stream(self, kern):
        # One uniform per draw makes the sampler the Poisson quantile
        # function, so a larger mean can never produce a smaller count.
        for seed in (3, 14, 159):
            means = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 29.0]
            samples = []
            for mean in means:
                rng = kern.Rng(seed)
                samples.append([rng.poisson(mean) for _ in range(500)])
            for weaker, stronger in zip(samples, samples[1:]):
                assert all(a <= b for a, b in zip(weaker, stronger))


# Means on each side of every sampler switch: zero (no uniform drawn), a
# mean whose exp(-mean) rounds to 1, inversion, its edge, and PTRS.
_PLAN_MEANS = st.lists(st.one_of(
    st.sampled_from([0.0, 1e-300, 29.999999999999996, 30.0]),
    st.floats(min_value=0.0, max_value=30.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=30.0, max_value=200.0, exclude_min=True)), max_size=40)


class _FixedUniform:
    """A stand-in generator whose every uniform is u, to drive the loop sampler."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def _rng_at(u):
    """The package's stream from a state whose next uniform is u, a multiple
    of 2**-53 in [0, 1), as a uniform callable.

    The output of a state depends on its second word alone, as the
    invertible map rotl(s1 * 5, 7) * 9, so s1 is solved for the output
    whose top 53 bits are u * 2**53.
    """
    out = int(u * 2.0 ** 53) << 11
    x = out * pow(9, -1, _M) % _M
    s1 = _ref_rotl(x, 57) * pow(5, -1, _M) % _M
    return _kernels_py.uniform_stream(0, s1, 0, 0).__next__


def _draw_at(plan, u):
    """The count poisson_counts draws from a one-mean plan for uniform u."""
    return _kernels_py.poisson_counts(plan, _rng_at(u))[0]


_TOP = 1.0 - 2.0 ** -53  # the largest uniform


def _grown(mean):
    """A plan for mean whose sums are complete."""
    plan = _kernels_py.poisson_plan([mean])
    _draw_at(plan, _TOP)
    return plan


class TestPoissonPlan:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(means=_PLAN_MEANS, seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_counts_and_state_match_the_loop(self, kern, means, seed):
        # The plan is reused, so later draws meet sums the earlier ones grew.
        plan = kern.poisson_plan(means)
        planned, looped = kern.Rng(seed), kern.Rng(seed)
        for _ in range(3):
            assert kern.poisson_counts(plan, planned.uniform) == [poisson(looped, m)
                                                                  for m in means]
        assert planned.uniform() == looped.uniform()

    def test_long_stream_matches_the_loop(self, kern):
        # The rare PTRS branches (the squeeze edges, the k < 0 cut) need
        # many draws to be reached at all.
        means = [0.1, 7.67, 29.9, 30.0, 47.3, 115.0, 2000.0, 1e6]
        plan = kern.poisson_plan(means)
        planned, looped = kern.Rng(2024), kern.Rng(2024)
        for _ in range(5000):
            assert kern.poisson_counts(plan, planned.uniform) == [poisson(looped, m)
                                                                  for m in means]

    def test_reused_plan_matches_the_loop_with_cold_and_warm_memo(self, kern):
        # A study draws every trial from one plan.  Its PTRS entries share
        # one log-factorial memo: the first pass over the streams fills it,
        # the second pass only reads it.
        means = [30.0, 31.5, 47.3, 64.0, 115.0, 300.0, 700.0]
        plan = kern.poisson_plan(means)
        memo = plan[1][0][-1]
        assert memo == {}
        assert all(cdf is None and tail[-1] is memo for cdf, tail in zip(*plan))

        def draw_every_stream():
            for i in range(2000):
                planned = kern.Rng(kern.mix_seed(11, i))
                looped = kern.Rng(kern.mix_seed(11, i))
                assert kern.poisson_counts(plan, planned.uniform) == [poisson(looped, m)
                                                                      for m in means]
                assert planned.uniform() == looped.uniform()

        draw_every_stream()
        filled = dict(memo)
        assert filled
        draw_every_stream()
        # The warm pass reaches the same k, so it only reads the memo.
        assert memo == filled
        assert all(value == kern.log_gamma(k + 1.0) for k, value in memo.items())

    def test_trial_order_does_not_change_the_counts(self, kern):
        # Each draw grows the sums as far as its uniform reaches, so the
        # trials drawn first decide how the sums grow; the counts and the
        # grown plan must not depend on it.
        means = [0.05, 0.7, 3.0, 7.67, 18.12, 29.9, 47.3, 115.0]
        forwards, backwards = kern.poisson_plan(means), kern.poisson_plan(means)
        trials = range(500)
        ahead = [kern.poisson_counts(forwards, kern.Rng(kern.mix_seed(3, i)).uniform)
                 for i in trials]
        behind = [kern.poisson_counts(backwards, kern.Rng(kern.mix_seed(3, i)).uniform)
                  for i in reversed(trials)]
        assert ahead == behind[::-1]
        assert forwards == backwards

    @pytest.mark.parametrize("mean", [0.5, 7.67, 29.9])
    def test_one_draw_grows_a_fresh_table_only_past_its_uniform(self, kern, mean):
        for i in range(300):
            plan = kern.poisson_plan([mean])
            cdf = plan[0][0]
            assert cdf == [math.exp(-mean)]
            u = kern.Rng(kern.mix_seed(9, i)).uniform()
            k, = kern.poisson_counts(plan, kern.Rng(kern.mix_seed(9, i)).uniform)
            # The sums end at the first one above u, which gives the count.
            assert len(cdf) == k + 1
            assert cdf[-1] > u
            assert k == 0 or cdf[-2] <= u

    @pytest.mark.parametrize("mean", [1e-300, 0.1, 0.5, 3.0, 7.67, 18.12, 29.9])
    def test_table_lookup_equals_the_loop_at_every_edge(self, mean):
        # The uniforms on each side of every running sum, drawn from a
        # fresh plan and from one whose sums are complete.
        grown = _grown(mean)
        edges = {0.0, _TOP}
        for c in grown[0][0]:
            above = math.ceil(c * 2.0 ** 53)
            edges |= {m * 2.0 ** -53 for m in (above - 1, above) if m < 2 ** 53}
        for u in sorted(edges):
            loop = _poisson_inversion(_FixedUniform(u), mean)
            assert _draw_at(_kernels_py.poisson_plan([mean]), u) == loop, u
            assert _draw_at(grown, u) == loop, u

    @pytest.mark.parametrize("mean", [0.1, 18.12])
    def test_tail_is_the_loop_answer_for_saturating_means(self, mean):
        # The running sum stops below the largest uniform, so the loop walks
        # on to the underflow of its term; a draw past the complete sums
        # must say where, the one that completes them and every later one.
        loop = _poisson_inversion(_FixedUniform(_TOP), mean)
        plan = _kernels_py.poisson_plan([mean])
        cdf = plan[0][0]
        assert _draw_at(plan, _TOP) == loop
        assert cdf[-1] <= _TOP
        assert loop > len(cdf)
        complete = list(cdf)
        assert _draw_at(plan, _TOP) == loop
        assert cdf == complete

    def test_generator_at_a_uniform(self):
        for m in (0, 1, 123_456_789, 2 ** 52, 2 ** 53 - 1):
            assert _rng_at(m * 2.0 ** -53)() == m * 2.0 ** -53

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_invalid_mean(self, kern, bad):
        with pytest.raises(ValueError, match="poisson mean"):
            kern.poisson_plan([3.0, bad])


def _lower_gamma(s, x):
    """P(s, x) from scipy, or from mpmath's 1F1 series below s - 4 sqrt(s).

    From about s - 4.5 sqrt(s) down to s - 7.3 sqrt(s), scipy's gammainc
    at large s is off by up to 2e-6 (s = 1e9, x = s - 4.6 sqrt(s), against
    mpmath).  P(s, x) = x**s exp(-x) / Gamma(s + 1) * 1F1(1; s + 1; x).
    """
    if x >= s - 4.0 * math.sqrt(s):
        return float(special.gammainc(s, x))
    with mpmath.workdps(30):
        s_, x_ = mpmath.mpf(s), mpmath.mpf(x)
        return float(mpmath.exp(s_ * mpmath.log(x_) - x_ - mpmath.loggamma(s_ + 1))
                     * mpmath.hyp1f1(1, s_ + 1, x_, maxterms=10**7))


class TestSpecialFunctionOracles:
    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(min_value=1e-3, max_value=170.0, allow_nan=False))
    def test_log_gamma_vs_scipy(self, x):
        assert _kernels_py.log_gamma(x) == pytest.approx(special.gammaln(x),
                                                         rel=1e-12, abs=1e-12)

    def test_log_gamma_small_arguments(self, kern):
        for x in (1e-8, 0.1, 0.25, 0.5):
            assert kern.log_gamma(x) == pytest.approx(special.gammaln(x),
                                                      rel=1e-11)

    def test_log_gamma_domain(self, kern):
        with pytest.raises(ValueError):
            kern.log_gamma(0.0)
        with pytest.raises(ValueError):
            kern.log_gamma(-3.0)

    @settings(max_examples=200, deadline=None)
    @given(s=st.floats(min_value=0.05, max_value=600.0, allow_nan=False),
           frac=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    def test_reg_inc_gamma_vs_scipy(self, s, frac):
        x = frac * s
        assert _kernels_py.reg_inc_gamma(s, x) == pytest.approx(
            special.gammainc(s, x), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(s=st.floats(min_value=0.2, max_value=600.0, allow_nan=False),
           p=st.floats(min_value=1e-6, max_value=1 - 1e-6, allow_nan=False))
    def test_gamma_quantile_vs_scipy(self, s, p):
        # Compared in probability space: where the density is nearly flat
        # the x for a given p is poorly conditioned, but scipy's forward
        # function evaluated at our quantile must still hit p.
        ours = _kernels_py.gamma_quantile(s, p)
        assert special.gammainc(s, ours) == pytest.approx(p, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(s=st.floats(min_value=5e4, max_value=1e9),
           z=st.floats(min_value=-12.0, max_value=12.0))
    def test_reg_inc_gamma_large_shape_vs_oracle(self, s, z):
        x = s + z * math.sqrt(s)
        assert _kernels_py.reg_inc_gamma(s, x) == pytest.approx(_lower_gamma(s, x),
                                                                abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(min_value=5e4, max_value=1e9),
           p=st.floats(min_value=1e-6, max_value=1 - 1e-6, allow_nan=False))
    def test_gamma_quantile_large_shape_vs_oracle(self, s, p):
        ours = _kernels_py.gamma_quantile(s, p)
        assert _lower_gamma(s, ours) == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("s", [5e4, 1e6, 1e9])
    def test_reg_inc_gamma_large_shape_far_tails(self, s):
        for x in (5e-324, 1.0, 0.5 * s):
            assert _kernels_py.reg_inc_gamma(s, x) == 0.0
        for x in (2.0 * s, 1e300):
            assert _kernels_py.reg_inc_gamma(s, x) == 1.0

    @pytest.mark.parametrize("s", [1e12, 1e20, 1e40, 1e300, 1.7e308])
    def test_gamma_quantile_resolves_shapes_past_double_resolution(self, s):
        # Above about 1e31, sqrt(s) is below the spacing of doubles near s
        # and P(s, x) steps from 0 to 1 within a few doubles; the quantile
        # still returns, at p or at the doubles where P steps past it.
        for p in (1e-300, 1e-6, 0.5, 0.99, 1 - 1e-12):
            x = _kernels_py.gamma_quantile(s, p)
            near = 5.0 * math.ulp(x)
            assert (abs(_kernels_py.reg_inc_gamma(s, x) - p) <= 1e-12
                    or _kernels_py.reg_inc_gamma(s, x - near) <= p
                    <= _kernels_py.reg_inc_gamma(s, x + near))

    @pytest.mark.parametrize("s", [1e4, 3e4, 49_999.0])
    def test_asymptotic_expansion_meets_the_series_below_the_threshold(self, s):
        # The expansion already holds below 5e4, and the series agrees with
        # it there to its own accuracy: its prefactor exp(s ln x - x - ln
        # Gamma(s)) cancels terms of size s, which costs up to 2e-11 near
        # the mean at s = 3e4.
        for z in (-8.0, -3.0, -1.0, -0.1, 0.0, 0.5, 2.0, 6.0):
            x = s + z * math.sqrt(s)
            temme = _kernels_py._temme_lower(s, x)
            assert temme == pytest.approx(special.gammainc(s, x), abs=1e-15)
            assert _kernels_py.reg_inc_gamma(s, x) == pytest.approx(temme, abs=5e-11)

    def test_gamma_quantile_below_the_threshold_never_raises(self):
        # Shapes from 1e3 up to the asymptotic branch stay on the series and
        # continued fraction, whose 2000-term caps hold there.  Near the mean
        # the series is good to about 1e-11 at these shapes, so the bracket
        # can close before |P - p| <= 1e-12.
        below = math.nextafter(5e4, 0.0)
        shapes = [1e3 * 50.0 ** (i / 40) for i in range(40)] + [4.99e4, below]
        for s in shapes:
            for p in (1.000001e-6, 1e-4, 0.02, 0.32, 0.5, 0.68, 0.95, 0.9999,
                      1 - 1.000001e-6):
                x = _kernels_py.gamma_quantile(s, p)
                assert _kernels_py.reg_inc_gamma(s, x) == pytest.approx(p, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(min_value=1e-12, max_value=1 - 1e-12, allow_nan=False))
    def test_normal_quantile_vs_scipy(self, p):
        assert _kernels_py.normal_quantile(p) == pytest.approx(
            stats.norm.ppf(p), abs=1e-9)
