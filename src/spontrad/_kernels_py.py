"""Scalar numerical kernels: the package's one implementation of them.

``tests/test_backends.py`` checks them against scipy and the RNG against an
independent implementation of the published recurrences.

Contents:
  * log_gamma          -- Lanczos (g = 7, 9 coefficients), reflection for x < 1/2
  * reg_inc_gamma      -- regularized lower incomplete gamma P(s, x):
                          power series for x < s + 1, Lentz continued fraction
                          for the upper tail otherwise; from shape 5e4 on,
                          Temme's uniform asymptotic expansion instead
                          (DiDonato & Morris, ACM TOMS 12 (1986) 377)
  * gamma_quantile     -- bracketed bisection with Newton polish on P(s, x);
                          from shape 5e4 on, Newton from a Wilson-Hilferty
                          guess inside a bracket of a few sqrt(s)
  * normal_quantile    -- Acklam rational initial guess + one Halley step on
                          the erfc-based normal CDF
  * uniform_stream     -- the xoshiro256** stream from a given state, as
                          uniform doubles; Rng seeds it through splitmix64
  * lane_uniforms      -- the streams of a block of trials of one seed,
                          stepped together in 128-bit lanes of one int and
                          continued by uniform_stream, bit for bit the
                          streams Rng gives them one by one
  * poisson_plan       -- the Poisson sampler's state for a list of means,
                          drawn by poisson_counts from any stream of
                          uniforms: inversion of one uniform below mean 30,
                          on running sums that grow as the draws reach them,
                          and PTRS transformed rejection from 30 with a
                          shared log-factorial memo
"""

import math
import sys
from bisect import bisect_right
from itertools import chain, zip_longest

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2POW53 = 2.0 ** -53

_MAX_SERIES_ITER = 2000
_REL_TOL = 1e-16
_TINY = 1e-300

# Lanczos approximation, g = 7.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.9189385332046727  # log(2*pi)/2


def log_gamma(x):
    """Natural log of the gamma function for x > 0."""
    if not x > 0.0 or math.isinf(x):
        raise ValueError(f"log_gamma requires finite x > 0, got {x}")
    if x < 0.5:
        # Reflection keeps the Lanczos sum in its accurate range.
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def _gamma_prefactor(s, x, gln):
    """exp(s*log(x) - x - log_gamma(s)); underflows cleanly to 0."""
    arg = s * math.log(x) - x - gln
    if arg < -745.0:
        return 0.0
    return math.exp(arg)


def _lower_series(s, x, gln):
    """P(s, x) by the regularized power series, valid for x < s + 1."""
    ap = s
    term = 1.0 / s
    total = term
    for _ in range(_MAX_SERIES_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _REL_TOL:
            return total * _gamma_prefactor(s, x, gln)
    raise ValueError(f"incomplete gamma series failed to converge (s={s}, x={x})")


def _upper_continued_fraction(s, x, gln):
    """Q(s, x) by the Lentz continued fraction, valid for x >= s + 1."""
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_SERIES_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_TOL:
            return _gamma_prefactor(s, x, gln) * h
    raise ValueError(f"incomplete gamma continued fraction failed to converge (s={s}, x={x})")


# From this shape on, P(s, x) and its inverse take Temme's uniform asymptotic
# expansion: near the mean the power series needs about 9*sqrt(s) terms and
# outruns _MAX_SERIES_ITER a little above s = 6e4.
_LARGE_SHAPE = 5e4

# (-1)**k / (k + 2), k = 12 ... 0: lam - 1 - ln(lam) = mu**2 * sum((-mu)**k / (k + 2))
# with mu = lam - 1, to 1e-17 for |mu| < 0.05.
_ETA_SERIES = tuple((-1) ** k / (k + 2) for k in range(12, -1, -1))

# Taylor coefficients in eta of Temme's C_0, C_1 and C_2 (DiDonato & Morris,
# Algorithm 654).  Where exp(-s * eta**2 / 2) is a double at s >= 5e4,
# |eta| < 0.18, and the terms left out are below 1e-17 of the result.
_TEMME_C0 = (-1 / 3, 1 / 12, -2 / 135, 1 / 864, 1 / 2835, -139 / 777600, 1 / 25515,
             -571 / 261273600, -281 / 151559100, 163879 / 197522841600,
             -5221 / 29554024500, 5246819 / 782190452736000, 5459 / 531972441000)
_TEMME_C1 = (-1 / 540, -1 / 288, 1 / 378, -77 / 77760, 1 / 4860, -1 / 2488320,
             -2743 / 151559100, 41969 / 5486745600, -11 / 6823440,
             47207 / 10158317568000)
_TEMME_C2 = (25 / 6048, -139 / 51840, 1 / 1296, 1 / 497664, -6199 / 57736800,
             5531 / 104509440)
# Rows (C_0, C_1, C_2) of the coefficient of eta**k, highest k first, for Horner.
_TEMME_ROWS = tuple(zip_longest(_TEMME_C0, _TEMME_C1, _TEMME_C2, fillvalue=0.0))[::-1]
_TWO_PI = 2.0 * math.pi


def _temme_eta(s, x):
    """eta with eta**2 / 2 = lam - 1 - ln(lam), lam = x / s, signed as lam - 1.

    Near lam = 1 the difference cancels, so it is summed as a series in
    mu = lam - 1 there.  Farther out, where the log form loses up to 1e-11 of
    P's relative accuracy, exp(-s * eta**2 / 2) is below 1e-26 at every
    large shape.
    """
    mu = (x - s) / s
    if abs(mu) < 0.05:
        acc = 0.0
        for c in _ETA_SERIES:
            acc = acc * mu + c
        half = mu * mu * acc
    else:
        half = mu - math.log(x) + math.log(s)
    return math.copysign(math.sqrt(2.0 * half), mu)


def _temme_lower(s, x):
    """P(s, x) for s >= _LARGE_SHAPE by Temme's uniform asymptotic expansion.

    Q(s, x) = erfc(eta * sqrt(s / 2)) / 2 + R and P = 1 - Q, with
    R = exp(-s * eta**2 / 2) / sqrt(2 pi s) * (C_0 + C_1 / s + C_2 / s**2);
    the smaller of P and Q is formed directly, so each tail keeps its
    relative accuracy.
    """
    eta = _temme_eta(s, x)
    t = 0.5 * s * eta * eta
    if t > 745.0:  # both terms are below the smallest double
        return 0.0 if eta < 0.0 else 1.0
    inv = 1.0 / s
    acc = 0.0
    for c0, c1, c2 in _TEMME_ROWS:
        acc = acc * eta + (c0 + (c1 + c2 * inv) * inv)
    r = math.exp(-t) / math.sqrt(_TWO_PI * s) * acc
    tail = 0.5 * math.erfc(math.sqrt(t))
    if eta < 0.0:
        return tail - r
    return 1.0 - (tail + r)


def _temme_density(s, x):
    """x**(s-1) * exp(-x) / Gamma(s) for s >= _LARGE_SHAPE, in the eta form
    sqrt(s / (2 pi)) * exp(-s * eta**2 / 2) / (Gamma*(s) * x).

    Gamma*(s) = Gamma(s) / (sqrt(2 pi / s) * (s / e)**s) by its Stirling
    series.  The direct form, exp((s - 1) ln x - x - log_gamma(s)), cancels
    terms of size s and loses about 6 digits at s = 1e9.
    """
    eta = _temme_eta(s, x)
    inv = 1.0 / s
    gamma_star = 1.0 + inv * (1 / 12 + inv * (1 / 288 - inv * (139 / 51840)))
    return math.sqrt(s / _TWO_PI) * math.exp(-0.5 * s * eta * eta) / (gamma_star * x)


def reg_inc_gamma(s, x):
    """Regularized lower incomplete gamma P(s, x), s > 0, x >= 0."""
    if not s > 0.0 or not math.isfinite(s):
        raise ValueError(f"reg_inc_gamma requires finite shape > 0, got {s}")
    if not x >= 0.0 or not math.isfinite(x):
        raise ValueError(f"reg_inc_gamma requires finite x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if s >= _LARGE_SHAPE:
        return _temme_lower(s, x)
    gln = log_gamma(s)
    if x < s + 1.0:
        return _lower_series(s, x, gln)
    return 1.0 - _upper_continued_fraction(s, x, gln)


def gamma_quantile(s, p):
    """Inverse of reg_inc_gamma in x: smallest x with P(s, x) = p.

    Bracketed bisection refined by Newton steps; the result satisfies
    |P(s, x) - p| <= 1e-12 unless the bracket collapses to machine width
    first (which also pins x).  From shape _LARGE_SHAPE on, Newton starts
    at the Wilson-Hilferty guess, which is within about 0.01 sqrt(s) of
    the quantile for every p, inside a bracket of 3 sqrt(s) to each side.
    """
    if not s > 0.0 or not math.isfinite(s):
        raise ValueError(f"gamma_quantile requires finite shape > 0, got {s}")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"gamma_quantile requires 0 <= p < 1, got {p}")
    if p == 0.0:
        return 0.0

    large = s >= _LARGE_SHAPE
    if large:
        root = math.sqrt(s)
        x = s * (1.0 - 1.0 / (9.0 * s) + normal_quantile(p) / (3.0 * root)) ** 3
        width = 3.0 * root
        lo, hi = x - width, x + width
        # Widening doubles the step, which outgrows the spacing of doubles
        # near s even where sqrt(s) is below it (s above about 1e31).  P is
        # 0 from s - 40 sqrt(s) down, so lo stays positive.
        while reg_inc_gamma(s, hi) < p:
            lo, hi, width = hi, hi + width, 2.0 * width
        while reg_inc_gamma(s, lo) > p:
            lo, hi, width = lo - width, lo, 2.0 * width
    else:
        gln = log_gamma(s)
        lo = 0.0
        hi = s + 10.0 * math.sqrt(s) + 10.0
        while reg_inc_gamma(s, hi) < p:
            lo = hi
            hi *= 2.0
            if hi > 1e300:
                raise ValueError(f"gamma_quantile bracket overflow (s={s}, p={p})")
        x = 0.5 * (lo + hi)

    for _ in range(200):
        f = reg_inc_gamma(s, x) - p
        if abs(f) <= 1e-12:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        # Relative collapse test: quantiles can sit arbitrarily close to
        # zero (small shapes), where an absolute width would stop early.
        if hi - lo <= 1e-15 * hi:
            return x
        if large:
            pdf = _temme_density(s, x)
        else:
            arg = (s - 1.0) * math.log(x) - x - gln
            pdf = math.exp(arg) if arg > -745.0 else 0.0
        if pdf > 0.0:
            step = f / pdf
            cand = x - step
            if lo < cand < hi:
                x = cand
                continue
        x = 0.5 * (lo + hi)
    return x


# Acklam's rational approximation to the inverse normal CDF.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)
_ACKLAM_SPLIT = 0.02425
_SQRT_TWO_PI = 2.5066282746310002


def normal_quantile(p):
    """Inverse standard normal CDF for 0 < p < 1 (abs error well below 1e-9)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires 0 < p < 1, got {p}")
    # Reflect the upper half down: 1 - p is exact for p >= 0.5 (Sterbenz),
    # and the lower-tail residual below avoids the 1 - CDF cancellation
    # that would otherwise cost ~1e-8 accuracy near p = 1.
    flip = p > 0.5
    if flip:
        p = 1.0 - p
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < _ACKLAM_SPLIT:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
             / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    else:
        q = p - 0.5
        r = q * q
        x = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
             / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))
    # One Halley step on the erfc-form CDF takes the estimate to machine
    # precision; with x <= 0 the CDF value is a direct small erfc, so the
    # residual is computed without cancellation.
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    try:
        u = err * _SQRT_TWO_PI * math.exp(0.5 * x * x)
    except OverflowError:  # p below about 1e-315: exp(x*x/2) is beyond the floats
        half = math.exp(0.25 * x * x)
        u = err * _SQRT_TWO_PI * half * half
    x = x - u / (1.0 + 0.5 * x * u)
    return -x if flip else x


def _mix(z, mask):
    """splitmix64's output function on each word of z under mask.

    mask = _MASK64 is one word; a lane mask (see lane_uniforms) is one word
    per 128-bit lane.  Each product is taken on masked words, so a lane's
    product stays inside its lane.
    """
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (z ^ (z >> 31)) & mask


def _xoshiro_state(x, mask, gold):
    """The xoshiro256** state that Rng seeds from x, word by word under mask:
    the four splitmix64 outputs after x.  gold is _GOLDEN in every word."""
    state = []
    for _ in range(4):
        x = (x + gold) & mask
        state.append(_mix(x, mask))
    return state


def mix_seed(seed, index):
    """Stream seed for (seed, index): splitmix64 of seed XOR index*golden.

    index*golden mod 2^64 is a bijection of the index, so distinct indices
    give distinct states; the splitmix64 output scrambles them.
    """
    return _mix(((seed ^ index * _GOLDEN) + _GOLDEN) & _MASK64, _MASK64)


def uniform_stream(s0, s1, s2, s3):
    """The xoshiro256** stream (Blackman & Vigna, ACM TOMS 47 (2021) 36) from
    the state (s0, s1, s2, s3), as uniform doubles in [0, 1): the top 53 bits
    of each 64-bit output, scaled by 2^-53.

    The state lives in the generator's locals, so a draw is one resume that
    makes no further calls.
    """
    while True:
        r = (s1 * 5) & _MASK64
        result = ((((r << 7) | (r >> 57)) & _MASK64) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        yield (result >> 11) * _INV_2POW53


class Rng:
    """xoshiro256** pseudo-random stream, splitmix64-seeded.

    uniform() is the next draw of uniform_stream from the seed's state.
    Deterministic and platform-independent: the integer stream is exact, and
    a uniform uses only the top 53 bits, so every downstream draw is fixed by
    the seed.
    """

    __slots__ = ("uniform",)

    def __init__(self, seed):
        self.uniform = uniform_stream(*_xoshiro_state(seed & _MASK64, _MASK64,
                                                      _GOLDEN)).__next__

    def poisson(self, mean):
        """One Poisson sample, drawn from a plan built for it alone."""
        return poisson_counts(poisson_plan((mean,)), self.uniform)[0]


# A lane stream holds one 64-bit word per stream in a 128-bit lane of one int,
# the word of stream j at bit 128 j.  The 64 bits above each word stay clear,
# so nothing carries into the next lane: a xoshiro256** step's products and
# left shifts reach at most 45 bits past the word, and splitmix64's products
# of a masked word by a 64-bit constant at most 64.  A right shift moves the
# next lane's low bits only into those clear bits, where the mask drops them.  Lanes are read out as 16-byte
# little-endian chunks through array("Q"), which is native-endian, so a
# big-endian host swaps each word's bytes.  array is imported where it is
# used: every command loads this module, and only a coverage study draws
# lanes.
def _lanes(words):
    """One int holding words[j] in lane j."""
    return int.from_bytes(b"".join(word.to_bytes(16, "little") for word in words), "little")


def _words(values, count):
    """The words in lanes 0..count-1 of each of values, in order, as one array."""
    from array import array
    packed = array("Q", b"".join(value.to_bytes(16 * count, "little") for value in values))
    if sys.byteorder == "big":
        packed.byteswap()
    return packed[::2]


def lane_uniforms(seed, start, stop, steps):
    """One uniform callable per trial start..stop-1 of seed, drawn together.

    Trial i's callable gives the stream of Rng(mix_seed(seed, i)).uniform,
    draw for draw.  Its first `steps` uniforms are its row: every trial's
    splitmix64 seeding and xoshiro256** steps run at once, one lane per trial.
    The draws after the row come from uniform_stream at the lane's final
    state, so a trial that needs more uniforms goes on where Rng would.
    """
    count = stop - start
    ones = _lanes([1] * count)
    mask = ones * _MASK64
    gold = ones * _GOLDEN
    top53 = ones * (2 ** 53 - 1)
    x = _lanes([(seed ^ i * _GOLDEN) & _MASK64 for i in range(start, stop)])
    s0, s1, s2, s3 = _xoshiro_state(_mix((x + gold) & mask, mask), mask, gold)
    outputs = []
    for _ in range(steps):
        r = (s1 * 5) & mask
        outputs.append((((((r << 7) | (r >> 57)) & mask) * 9) >> 11) & top53)
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & mask
    flat = [word * _INV_2POW53 for word in _words(outputs, count)]
    state = _words((s0, s1, s2, s3), count)
    return [chain(flat[j::count], uniform_stream(*state[j::count])).__next__
            for j in range(count)]


def poisson_counts(plan, uniform):
    """The counts of plan = poisson_plan(means), one per mean, in order, from
    the uniforms that successive uniform() calls give.

    Below mean 30 a count takes one uniform u and is the first k whose
    running sum exceeds u.  The sums are those of the terms
    exp(-mean) * mean**k / k!, each the last times mean / k: u below
    the last sum bisects them, and u at or past it grows them until one
    exceeds u.  Growth forms the last term again in that order, so it
    is the same double.  The sums stop growing where the next term no
    longer changes them, which happens only past the mode (before it
    each term is over 1/31 of the sum), where the terms only shrink: a
    u at or above that sum walks on until the term underflows, and
    that k is the count.  From 30 on, Hormann's PTRS (Insurance: Math.
    & Econ. 12 (1993) 39) takes pairs of uniforms until one is
    accepted.  A PTRS squeeze miss reads log_gamma(k + 1.0) from the
    plan's memo, and computes and stores it on the first miss at that
    k.  A zero mean takes no uniform.
    """
    counts = []
    for cdf, state in zip(*plan):
        if cdf is None:
            # A zero mean, or PTRS with the constants in state.
            if state is None:
                counts.append(0)
                continue
            mean, loglam, a, b, vr, log_invalpha, log_factorial = state
            for _ in range(10000):
                u = uniform() - 0.5
                v = uniform()
                us = 0.5 - abs(u)
                k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
                if us >= 0.07 and v <= vr:
                    break
                if k < 0 or (us < 0.013 and v > us):
                    continue
                log_k_factorial = log_factorial.get(k)
                if log_k_factorial is None:
                    log_k_factorial = log_factorial[k] = log_gamma(k + 1.0)
                if (math.log(v) + log_invalpha - math.log(a / (us * us) + b)
                        <= k * loglam - mean - log_k_factorial):
                    break
            else:
                raise ValueError(
                    f"poisson rejection sampler failed to accept (mean={mean})")
            counts.append(int(k))
            continue
        u = uniform()
        if u < cdf[-1]:
            counts.append(bisect_right(cdf, u))
            continue
        mean = state
        k = len(cdf) - 1
        prob = cdf[0]
        if k:  # a fresh table has no terms to form again
            for j in range(1, k + 1):
                prob *= mean / j
        cum = cdf[-1]
        while True:
            k += 1
            prob *= mean / k
            if cum + prob > cum:
                cum += prob
                cdf.append(cum)
                if u < cum:
                    break
            elif prob <= 0.0:
                break
        counts.append(k)
    return counts


def _ptrs_constants(mean):
    """PTRS's (mean, log(mean), a, b, v_r, log(1 / alpha)) for one mean."""
    slam = math.sqrt(mean)
    loglam = math.log(mean)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2.0)
    return mean, loglam, a, b, vr, math.log(invalpha)


def poisson_plan(means):
    """The sampler state that poisson_counts draws counts from.

    Two lists, sums and states, one entry per mean: below 30, the inversion
    running sums, at first [exp(-mean)] alone, and the mean; from 30 up,
    None and the PTRS constants + (memo,); for a zero mean, which draws no
    uniform, None and None.  The PTRS entries share one memo, a dict from k
    to log_gamma(k + 1.0) holding one value per distinct k the draws reach.

    Drawing mutates the plan: the sums grow as far as the uniforms reach
    and the memo fills.  Neither changes a count, so one plan serves any
    number of streams in any order; a forked worker grows its own copy.
    One plan is not shared across threads.  Invalid means raise ValueError.
    """
    log_factorial = {}
    sums = []
    states = []
    for mean in means:
        if 0.0 < mean < 30.0:
            sums.append([math.exp(-mean)])
            states.append(mean)
        elif 30.0 <= mean < math.inf:
            sums.append(None)
            states.append(_ptrs_constants(mean) + (log_factorial,))
        elif mean == 0.0:
            sums.append(None)
            states.append(None)
        else:
            raise ValueError(f"poisson mean must be finite and >= 0, got {mean}")
    return sums, states
