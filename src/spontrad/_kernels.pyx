# cython: language_level=3
# cython: boundscheck=False, wraparound=False, cdivision=False
"""Scalar numerical kernels, compiled backend.

Twin of ``spontrad._kernels_py``: same algorithms, same constants, same
operation order, so both backends produce bit-identical results on one
platform (the build disables FP contraction to keep the arithmetic IEEE
step-for-step).  Keep the two files in sync; ``tests/test_backends.py``
enforces agreement.
"""

from libc.math cimport (erfc, exp, fabs, floor, isfinite, isinf, log, sin,
                        sqrt, M_PI)


cdef double _INV_2POW53 = 2.0 ** -53

cdef int _MAX_SERIES_ITER = 2000
cdef double _REL_TOL = 1e-16
cdef double _TINY = 1e-300

# Lanczos approximation, g = 7.
cdef double _LANCZOS_G = 7.0
cdef double[9] _LANCZOS
_LANCZOS[0] = 0.99999999999980993
_LANCZOS[1] = 676.5203681218851
_LANCZOS[2] = -1259.1392167224028
_LANCZOS[3] = 771.32342877765313
_LANCZOS[4] = -176.61502916214059
_LANCZOS[5] = 12.507343278686905
_LANCZOS[6] = -0.13857109526572012
_LANCZOS[7] = 9.9843695780195716e-6
_LANCZOS[8] = 1.5056327351493116e-7
cdef double _HALF_LOG_TWO_PI = 0.9189385332046727  # log(2*pi)/2

# Python-object mirrors of the 64-bit helpers, used where inputs may be
# arbitrary-precision Python ints (seeding); hot paths use C uint64.
_MASK64_PY = (1 << 64) - 1
_GOLDEN_PY = 0x9E3779B97F4A7C15


cdef double _log_gamma_c(double x) except? -1e308:
    if not x > 0.0 or isinf(x):
        raise ValueError(f"log_gamma requires finite x > 0, got {x}")
    if x < 0.5:
        # Reflection keeps the Lanczos sum in its accurate range.
        return log(M_PI / sin(M_PI * x)) - _log_gamma_c(1.0 - x)
    cdef double z = x - 1.0
    cdef double acc = _LANCZOS[0]
    cdef int i
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    cdef double t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * log(t) - t + log(acc)


def log_gamma(double x):
    """Natural log of the gamma function for x > 0."""
    return _log_gamma_c(x)


cdef inline double _gamma_prefactor(double s, double x, double gln):
    # exp(s*log(x) - x - log_gamma(s)); underflows cleanly to 0.
    cdef double arg = s * log(x) - x - gln
    if arg < -745.0:
        return 0.0
    return exp(arg)


cdef double _lower_series(double s, double x, double gln) except? -1e308:
    # P(s, x) by the regularized power series, valid for x < s + 1.
    cdef double ap = s
    cdef double term = 1.0 / s
    cdef double total = term
    cdef int i
    for i in range(_MAX_SERIES_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if fabs(term) < fabs(total) * _REL_TOL:
            return total * _gamma_prefactor(s, x, gln)
    raise ValueError(f"incomplete gamma series failed to converge (s={s}, x={x})")


cdef double _upper_continued_fraction(double s, double x, double gln) except? -1e308:
    # Q(s, x) by the Lentz continued fraction, valid for x >= s + 1.
    cdef double b = x + 1.0 - s
    cdef double c = 1.0 / _TINY
    cdef double d = 1.0 / b
    cdef double h = d
    cdef double an, delta
    cdef int i
    for i in range(1, _MAX_SERIES_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if fabs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if fabs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if fabs(delta - 1.0) < _REL_TOL:
            return _gamma_prefactor(s, x, gln) * h
    raise ValueError(f"incomplete gamma continued fraction failed to converge (s={s}, x={x})")


cdef double _reg_inc_gamma_c(double s, double x) except? -1e308:
    if not s > 0.0 or not isfinite(s):
        raise ValueError(f"reg_inc_gamma requires finite shape > 0, got {s}")
    if not x >= 0.0 or not isfinite(x):
        raise ValueError(f"reg_inc_gamma requires finite x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    cdef double gln = _log_gamma_c(s)
    if x < s + 1.0:
        return _lower_series(s, x, gln)
    return 1.0 - _upper_continued_fraction(s, x, gln)


def reg_inc_gamma(double s, double x):
    """Regularized lower incomplete gamma P(s, x), s > 0, x >= 0."""
    return _reg_inc_gamma_c(s, x)


def gamma_quantile(double s, double p):
    """Inverse of reg_inc_gamma in x: smallest x with P(s, x) = p.

    Bracketed bisection refined by Newton steps; the result satisfies
    |P(s, x) - p| <= 1e-12 unless the bracket collapses to machine width
    first (which also pins x).
    """
    if not s > 0.0 or not isfinite(s):
        raise ValueError(f"gamma_quantile requires finite shape > 0, got {s}")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"gamma_quantile requires 0 <= p < 1, got {p}")
    if p == 0.0:
        return 0.0

    cdef double gln = _log_gamma_c(s)
    cdef double lo = 0.0
    cdef double hi = s + 10.0 * sqrt(s) + 10.0
    while _reg_inc_gamma_c(s, hi) < p:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise ValueError(f"gamma_quantile bracket overflow (s={s}, p={p})")

    cdef double x = 0.5 * (lo + hi)
    cdef double f, arg, pdf, step, cand
    cdef int i
    for i in range(200):
        f = _reg_inc_gamma_c(s, x) - p
        if fabs(f) <= 1e-12:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        # Relative collapse test: quantiles can sit arbitrarily close to
        # zero (small shapes), where an absolute width would stop early.
        if hi - lo <= 1e-15 * hi:
            return x
        arg = (s - 1.0) * log(x) - x - gln
        pdf = exp(arg) if arg > -745.0 else 0.0
        if pdf > 0.0:
            step = f / pdf
            cand = x - step
            if lo < cand < hi:
                x = cand
                continue
        x = 0.5 * (lo + hi)
    return x


# Acklam's rational approximation to the inverse normal CDF.
cdef double[6] _ACKLAM_A
_ACKLAM_A[0] = -3.969683028665376e+01
_ACKLAM_A[1] = 2.209460984245205e+02
_ACKLAM_A[2] = -2.759285104469687e+02
_ACKLAM_A[3] = 1.383577518672690e+02
_ACKLAM_A[4] = -3.066479806614716e+01
_ACKLAM_A[5] = 2.506628277459239e+00
cdef double[5] _ACKLAM_B
_ACKLAM_B[0] = -5.447609879822406e+01
_ACKLAM_B[1] = 1.615858368580409e+02
_ACKLAM_B[2] = -1.556989798598866e+02
_ACKLAM_B[3] = 6.680131188771972e+01
_ACKLAM_B[4] = -1.328068155288572e+01
cdef double[6] _ACKLAM_C
_ACKLAM_C[0] = -7.784894002430293e-03
_ACKLAM_C[1] = -3.223964580411365e-01
_ACKLAM_C[2] = -2.400758277161838e+00
_ACKLAM_C[3] = -2.549732539343734e+00
_ACKLAM_C[4] = 4.374664141464968e+00
_ACKLAM_C[5] = 2.938163982698783e+00
cdef double[4] _ACKLAM_D
_ACKLAM_D[0] = 7.784695709041462e-03
_ACKLAM_D[1] = 3.224671290700398e-01
_ACKLAM_D[2] = 2.445134137142996e+00
_ACKLAM_D[3] = 3.754408661907416e+00
cdef double _ACKLAM_SPLIT = 0.02425
cdef double _SQRT_TWO_PI = 2.5066282746310002


def normal_quantile(double p):
    """Inverse standard normal CDF for 0 < p < 1 (abs error well below 1e-9)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires 0 < p < 1, got {p}")
    # Reflect the upper half down: 1 - p is exact for p >= 0.5 (Sterbenz),
    # and the lower-tail residual below avoids the 1 - CDF cancellation
    # that would otherwise cost ~1e-8 accuracy near p = 1.
    cdef bint flip = p > 0.5
    if flip:
        p = 1.0 - p
    cdef double* a = _ACKLAM_A
    cdef double* b = _ACKLAM_B
    cdef double* c = _ACKLAM_C
    cdef double* d = _ACKLAM_D
    cdef double q, r, x, err, u
    if p < _ACKLAM_SPLIT:
        q = sqrt(-2.0 * log(p))
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
    err = 0.5 * erfc(-x / sqrt(2.0)) - p
    u = err * _SQRT_TWO_PI * exp(0.5 * x * x)
    x = x - u / (1.0 + 0.5 * x * u)
    return -x if flip else x


cdef inline unsigned long long _splitmix64_out(unsigned long long *state):
    # One splitmix64 step: advances *state, returns the scrambled output.
    state[0] = state[0] + 0x9E3779B97F4A7C15ULL
    cdef unsigned long long z = state[0]
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL
    z = z ^ (z >> 31)
    return z


def mix_seed(seed, index):
    """Stream seed for (seed, index): splitmix64 of seed XOR index*golden.

    index*golden mod 2^64 is a bijection of the index, so distinct indices
    give distinct states; the splitmix64 output scrambles them.
    """
    state_py = (seed ^ ((index * _GOLDEN_PY) & _MASK64_PY)) & _MASK64_PY
    cdef unsigned long long state = state_py
    return _splitmix64_out(&state)


cdef inline unsigned long long _rotl(unsigned long long v, int k):
    return (v << k) | (v >> (64 - k))


cdef class Rng:
    """xoshiro256** pseudo-random stream (Blackman & Vigna), splitmix64-seeded.

    Deterministic and platform-independent: the integer stream is exact, and
    uniform() uses only the top 53 bits, so every downstream draw is fixed by
    the seed.
    """

    cdef unsigned long long _s0, _s1, _s2, _s3

    def __init__(self, seed):
        cdef unsigned long long state = seed & _MASK64_PY
        self._s0 = _splitmix64_out(&state)
        self._s1 = _splitmix64_out(&state)
        self._s2 = _splitmix64_out(&state)
        self._s3 = _splitmix64_out(&state)

    cdef unsigned long long _next_u64_c(self):
        cdef unsigned long long s0 = self._s0
        cdef unsigned long long s1 = self._s1
        cdef unsigned long long s2 = self._s2
        cdef unsigned long long s3 = self._s3
        cdef unsigned long long result = _rotl(s1 * 5ULL, 7) * 9ULL
        cdef unsigned long long t = s1 << 17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0 = s0
        self._s1 = s1
        self._s2 = s2
        self._s3 = s3
        return result

    def next_u64(self):
        return self._next_u64_c()

    cdef inline double _uniform_c(self):
        return (self._next_u64_c() >> 11) * _INV_2POW53

    def uniform(self):
        """Uniform double in [0, 1): top 53 bits scaled by 2^-53."""
        return self._uniform_c()

    def poisson(self, double mean):
        """Poisson sample; inversion below mean 30, PTRS rejection above.

        The inversion branch consumes exactly one uniform and is the Poisson
        quantile function of that uniform, hence monotone in the mean for a
        matched stream.
        """
        if not mean >= 0.0 or not isfinite(mean):
            raise ValueError(f"poisson mean must be finite and >= 0, got {mean}")
        if mean == 0.0:
            return 0
        if mean < 30.0:
            return self._poisson_inversion(mean)
        return self._poisson_ptrs(mean)

    cdef long _poisson_inversion(self, double mean):
        cdef double u = self._uniform_c()
        cdef double prob = exp(-mean)
        cdef double cum = prob
        cdef long k = 0
        while u >= cum:
            k += 1
            prob *= mean / k
            cum += prob
            if prob <= 0.0 or k > 10000:
                break
        return k

    cdef long _poisson_ptrs(self, double mean) except? -1:
        # Hormann's transformed rejection with squeeze (PTRS).
        cdef double slam = sqrt(mean)
        cdef double loglam = log(mean)
        cdef double b = 0.931 + 2.53 * slam
        cdef double a = -0.059 + 0.02483 * b
        cdef double invalpha = 1.1239 + 1.1328 / (b - 3.4)
        cdef double vr = 0.9277 - 3.6224 / (b - 2.0)
        cdef double u, v, us, k
        cdef int i
        for i in range(10000):
            u = self._uniform_c() - 0.5
            v = self._uniform_c()
            us = 0.5 - fabs(u)
            k = floor((2.0 * a / us + b) * u + mean + 0.43)
            if us >= 0.07 and v <= vr:
                return <long>k
            if k < 0 or (us < 0.013 and v > us):
                continue
            if (log(v) + log(invalpha) - log(a / (us * us) + b)
                    <= k * loglam - mean - _log_gamma_c(k + 1.0)):
                return <long>k
        raise ValueError(f"poisson rejection sampler failed to accept (mean={mean})")

    def poisson_counts(self, plan):
        """[self.poisson(m) for m in means] for plan = poisson_plan(means)."""
        return [self.poisson(mean) for mean in plan]


def poisson_plan(means):
    """The validated means: the compiled sampler keeps no per-grid state."""
    plan = tuple(means)
    for mean in plan:
        if not mean >= 0.0 or not isfinite(mean):
            raise ValueError(f"poisson mean must be finite and >= 0, got {mean}")
    return plan
