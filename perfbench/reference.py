"""Output checks with references that do not come from the code under test.

Limits are recomputed from the closed-form fit, ``scipy.special.gammaincinv``
and the CODATA 2018 / IGEX exposure numbers written out below; the rate
conversion is itself checked against the paper anchor before use.  JSON
outputs are validated against the repository's ``schemas/*.schema.json``.
scipy, numpy and jsonschema are imported lazily, after the timed region, so
they add neither time nor memory to what is measured.

Every check returns ``None`` when the output is right and a short reason
string when it is not.
"""

import json
import math
from pathlib import Path
from xml.etree import ElementTree

from inputs import ANCHOR_LIMIT, COUPLINGS

# CODATA 2018 and the IGEX exposure (80 kg day, 30 electrons per Ge atom).
FINE_STRUCTURE = 7.2973525693e-3
HBAR_C_MEV_FM = 197.3269804
MASS_MEV = {"mass-prop": 938.27208816, "non-mass-prop": 0.51099895000}
ELECTRON_SECONDS = 8.29e24 * 80.0 * 8.64e4 * 30.0

WINDOW = (14.5, 48.5)
CHI2_MIN_COUNTS = 5
REL_TOL = 1e-8
UNIT_GRID_H = math.fsum(1.0 / c for c in range(15, 49))
EXIT_CODES = {"validation": 2, "io": 3, "numerical": 4}


def close(a, b, rel=REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def conversion(coupling: str, r_c: float) -> float:
    """Expected counts keV per unit collapse rate (1/s)."""
    ratio = HBAR_C_MEV_FM / (r_c * 1e15 * MASS_MEV[coupling])
    return ELECTRON_SECONDS * FINE_STRUCTURE * ratio * ratio / math.pi


def count_quantile(y, confidence):
    """Truncated gamma-posterior quantile of the expected total count.

    Accepts scalars or numpy arrays for both arguments.
    """
    from scipy.special import gammainc, gammaincinv
    base = gammainc(y + 1.0, 1.0)
    return gammaincinv(y + 1.0, base + confidence * (1.0 - base))


def bayes_lambda(y, harmonic, confidence, coupling, r_c) -> float:
    cap = float(count_quantile(y, confidence))
    return max((cap - 1.0) / (conversion(coupling, r_c) * harmonic), 0.0)


def parse_json(text: str):
    """The JSON object ``text`` holds, or None when it holds none."""
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def check_anchor_value(value) -> str:
    if not isinstance(value, float) or not close(value, ANCHOR_LIMIT, 1e-9):
        return f"paper anchor: got {value!r}, want {ANCHOR_LIMIT!r}"
    ref = bayes_lambda(130, UNIT_GRID_H, 0.95, "mass-prop", 1e-7)
    if not close(ref, ANCHOR_LIMIT, 1e-9):
        return f"reference conversion disagrees with the paper anchor: {ref!r}"
    return None


class Schemas:
    """The repository's JSON schemas, loaded from the checkout."""

    def __init__(self, root: Path):
        from jsonschema import Draft202012Validator
        self.validators = {
            path.name.replace(".schema.json", ""):
                Draft202012Validator(json.loads(path.read_text(encoding="utf-8")))
            for path in (root / "schemas").glob("*.schema.json")}

    def check(self, name: str, payload) -> str:
        errors = list(self.validators[name].iter_errors(payload))
        return f"{name} schema: {errors[0].message}" if errors else None


def check_error(schemas: Schemas, code: int, stderr: str) -> str:
    """A failed command must print one schema-valid error object and exit with
    the code its type documents."""
    try:
        payload = json.loads(stderr.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return f"exit {code} without a JSON error object: {stderr.strip()[-200:]!r}"
    bad = schemas.check("error", payload)
    if bad:
        return bad
    want = EXIT_CODES[payload["error"]["type"]]
    return None if code == want else f"exit {code} for a {payload['error']['type']} error"


def read_rows(path) -> list:
    """(center, width, counts) rows of a spectrum CSV written by inputs.py."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [(float(c), float(w), int(n)) for c, w, n in (ln.split(",") for ln in lines[1:])]


def _window(rows, min_counts):
    return [r for r in rows if WINDOW[0] <= r[0] <= WINDOW[1] and r[2] >= min_counts]


def fit(rows, confidence) -> dict:
    """Closed-form chi2 fit of alpha/E with sigma_i^2 = y_i on the default cut."""
    from statistics import NormalDist
    kept = _window(rows, CHI2_MIN_COUNTS)
    sum_inv_e = math.fsum(1.0 / c for c, _, _ in kept)
    sum_w = math.fsum(1.0 / (n * c * c) for c, _, n in kept)
    alpha_hat = sum_inv_e / sum_w
    sigma = sum_w ** -0.5
    chi2 = math.fsum((n - alpha_hat / c) ** 2 / n for c, _, n in kept)
    ndf = len(kept) - 1
    return {"alpha_hat": alpha_hat, "sigma_alpha": sigma, "chi2": chi2, "ndf": ndf,
            "reduced_chi2": chi2 / ndf,
            "alpha_upper": alpha_hat + NormalDist().inv_cdf(confidence) * sigma,
            "confidence": confidence}


def _compare(payload: dict, want: dict) -> str:
    for key, value in want.items():
        got = payload.get(key)
        if isinstance(value, str) or isinstance(value, int) and not isinstance(value, bool):
            ok = got == value
        else:
            ok = isinstance(got, (int, float)) and close(got, value)
        if not ok:
            return f"{key}: got {got!r}, want {value!r}"
    return None


def _opts(argv) -> dict:
    return dict(zip(argv[1::2], argv[2::2]))


def expected_limit(argv, spectra: dict) -> dict:
    """Reference payload of a ``limit`` command (or a scan's reference point)."""
    opts = _opts(argv)
    method = opts.get("--method", "bayes")
    coupling = opts.get("--coupling", "mass-prop")
    confidence = float(opts.get("--cl", 0.95))
    r_c = float(opts.get("--r-c", 1e-7))
    want = {"confidence": confidence, "coupling": coupling, "r_c_m": r_c, "method": method}
    if method == "bayes":
        if "--y-total" in opts:
            y, harmonic = int(opts["--y-total"]), UNIT_GRID_H
        else:
            kept = _window(spectra[opts["--input"]], 0)
            y = sum(n for _, _, n in kept)
            harmonic = math.fsum(w / c for c, w, _ in kept)
        want.update(y_total=y, harmonic_sum=harmonic,
                    lambda_upper_s_inv=bayes_lambda(y, harmonic, confidence, coupling, r_c))
    else:
        if "--alpha-upper" in opts:
            alpha_upper = float(opts["--alpha-upper"])
        else:
            alpha_upper = fit(spectra[opts["--input"]], confidence)["alpha_upper"]
        want.update(alpha_upper=alpha_upper,
                    lambda_upper_s_inv=alpha_upper / conversion(coupling, r_c))
    return want


def check_scan(argv, spectra: dict) -> str:
    """Curve CSV obeys the r^2 law from the reference limit and round-trips
    through ``load_curves``; the SVG is well-formed with both curves."""
    from spontrad.scan import load_curves
    opts = _opts(argv)
    want = expected_limit(argv, spectra)
    lam_ref, r_ref = want["lambda_upper_s_inv"], want["r_c_m"]
    lines = Path(opts["--out"]).read_text(encoding="utf-8").splitlines()
    if lines[0] != "r_c_m,lambda_limit_s_inv,coupling,method,confidence":
        return f"scan CSV header {lines[0]!r}"
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != 2 * 200:
        return f"scan CSV has {len(rows)} rows, want 400"
    for i, (r, lam, coupling, method, confidence) in enumerate(rows):
        ref = lam_ref / conversion(coupling, r_ref) * conversion(want["coupling"], r_ref)
        if (coupling != COUPLINGS[i // 200] or method != want["method"]
                or float(confidence) != want["confidence"]
                or not close(float(lam), ref * (float(r) / r_ref) ** 2)):
            return f"scan CSV row {i + 1}: {rows[i]}"
    loaded = [(repr(r), repr(lam)) for curve in load_curves(opts["--out"])
              for r, lam in curve.points]
    if loaded != [(r, lam) for r, lam, *_ in rows]:
        return "scan CSV does not round-trip through load_curves"
    root = ElementTree.parse(opts["--svg"]).getroot()
    curves = [e for e in root.iter() if e.get("class") == "curve"]
    if not root.tag.endswith("svg") or len(curves) != 2:
        return f"SVG has {len(curves)} curves"
    return None


def check_synth(argv, n_bins: int) -> str:
    """Synthetic spectrum: the requested grid, and a total within 6 sigma of
    its Poisson expectation."""
    opts = _opts(argv)
    rows = read_rows(opts["--out"])
    e_min, width = float(opts["--emin"]), float(opts["--bin-width"])
    alpha, background = float(opts["--alpha"]), float(opts["--background"])
    if len(rows) != n_bins:
        return f"synth wrote {len(rows)} bins, want {n_bins}"
    for i, (c, w, n) in enumerate(rows):
        if abs(c - (e_min + i * width)) > 1e-9 or w != width or n < 0:
            return f"synth row {i + 1}: {(c, w, n)}"
    mean = math.fsum(alpha * width / c + background for c, _, _ in rows)
    total = sum(n for _, _, n in rows)
    return None if abs(total - mean) <= 6.0 * math.sqrt(mean) else \
        f"synth total {total} far from expectation {mean:.1f}"


# What a malformed output raises while it is read back.
UNREADABLE = (ValueError, KeyError, IndexError, OSError, ElementTree.ParseError)


def check_command(schemas: Schemas, argv, code: int, stdout: str, stderr: str,
                  spectra: dict, n_large_bins: int) -> str:
    """Check one cli-session command's outputs; failed commands are checked as errors."""
    if code != 0:
        return check_error(schemas, code, stderr)
    try:
        return _check_output(schemas, argv, stdout, spectra, n_large_bins)
    except UNREADABLE as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _check_output(schemas: Schemas, argv, stdout: str, spectra: dict, n_large_bins: int) -> str:
    command = argv[0]
    if command in ("fit", "limit"):
        payload = json.loads(stdout)
        bad = schemas.check(command + "_result", payload)
        if bad:
            return bad
        if command == "fit":
            opts = _opts(argv)
            return _compare(payload, fit(spectra[opts["--input"]], float(opts["--cl"])))
        return _compare(payload, expected_limit(argv, spectra))
    if command == "scan":
        return check_scan(argv, spectra)
    return check_synth(argv, n_large_bins)


class CoverageReference:
    """Reference coverage of the two study configurations.

    bayes: exact, because the limit grows with the total count Y ~ Poisson(mu):
    coverage = P(Y >= y*) with y* the smallest total whose limit reaches alpha.
    chi2: an independent numpy Monte Carlo of the same procedure.
    """

    def __init__(self, chi2_trials: int):
        self.chi2_trials = chi2_trials
        self._cache = {}

    def probability(self, method: str, alpha: float) -> float:
        key = (method, alpha)
        if key not in self._cache:
            self._cache[key] = (self._bayes(alpha) if method == "bayes"
                                else self._chi2(alpha))
        return self._cache[key]

    @staticmethod
    def _bayes(alpha: float, confidence: float = 0.95) -> float:
        from scipy.special import gammainc
        y = 0
        while (count_quantile(y, confidence) - 1.0) / UNIT_GRID_H < alpha:
            y += 1
        return float(gammainc(y, alpha * UNIT_GRID_H)) if y else 1.0

    def _chi2(self, alpha: float, confidence: float = 0.95) -> float:
        import numpy as np
        from scipy.special import ndtri
        centers = np.arange(15.0, 49.0)
        counts = np.random.default_rng(12345).poisson(alpha / centers,
                                                      (self.chi2_trials, centers.size))
        kept = counts >= CHI2_MIN_COUNTS
        safe = np.where(kept, counts, 1)
        sum_inv_e = (kept / centers).sum(axis=1)
        sum_w = (kept / (safe * centers ** 2)).sum(axis=1)
        upper = sum_inv_e / sum_w + ndtri(confidence) * sum_w ** -0.5
        fit_ok = kept.sum(axis=1) >= 2
        return float(np.mean(upper[fit_ok] >= alpha))

    def check(self, study: dict, code: int, stdout: str, stderr: str,
              schemas: Schemas) -> str:
        """Check one study's report; failed studies are checked as errors."""
        if code != 0:
            return check_error(schemas, code, stderr)
        payload = parse_json(stdout)
        if payload is None:
            return f"stdout is not a JSON object: {stdout[:200]!r}"
        bad = schemas.check("coverage_report", payload) or _compare(
            payload, {"trials": study["trials"], "method": study["method"],
                      "confidence": 0.95, "seed": study["seed"]})
        if bad:
            return bad
        return self.check_covered(study, payload["covered"], payload["trials"])

    def check_covered(self, study: dict, covered: int, trials: int) -> str:
        p = self.probability(study["method"], study["alpha"])
        # The chi2 reference is itself a Monte Carlo, with its own variance.
        extra = trials / self.chi2_trials if study["method"] == "chi2" else 0.0
        spread = math.sqrt(p * (1.0 - p) * trials * (1.0 + extra))
        if abs(covered - p * trials) > 5.0 * spread + 1.0:
            return f"{study['method']} covered {covered}/{trials}, reference p={p:.4f}"
        return None


def check_limits(y, confidence, coupling, lam) -> tuple:
    """Vectorised scipy check of the high-count limits at r_C = 1e-7 m.

    Arguments are parallel sequences; ``coupling`` indexes COUPLINGS and a
    negative ``lam`` marks a failed limit, which is not checked.  Returns
    (indices of the wrong limits, first reason or None).
    """
    import numpy as np
    lam = np.asarray(lam, dtype=float)
    done = lam >= 0
    y = np.asarray(y, dtype=float)[done]
    cl = np.asarray(confidence, dtype=float)[done]
    conv = np.array([conversion(c, 1e-7) for c in COUPLINGS])[np.asarray(coupling)[done]]
    got = lam[done]
    want = np.maximum((count_quantile(y, cl) - 1.0) / (conv * UNIT_GRID_H), 0.0)
    wrong = ~(np.abs(got - want) <= REL_TOL * np.maximum(np.abs(want), 1e-300))
    if not wrong.any():
        return [], None
    i = int(np.argmax(wrong))
    return np.flatnonzero(done)[wrong].tolist(), (f"limit for y={y[i]:.0f} cl={cl[i]}: "
                                                  f"got {float(got[i])!r}, want {float(want[i])!r}")
