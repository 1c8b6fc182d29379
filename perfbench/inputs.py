"""Seeded inputs for the benchmark workloads, built from the standard library only.

Nothing here imports spontrad, so the inputs and the set-up time spent making
them stay fixed while the program changes.  Every function takes a
``random.Random`` seeded from the workload name and the ``--seed`` argument;
the same seed gives the same inputs.
"""

import math
import random

SPECTRUM_HEADER = "center_keV,width_keV,counts"

# Paper-like grid: 34 unit bins centred on 15..48 keV.
SMALL_CENTERS = [float(c) for c in range(15, 49)]
SMALL_WIDTH = 1.0

# Large grid: 10^4 bins of 0.1 keV from 10.05 keV, about 10^6 counts.
LARGE_BINS = 10_000
LARGE_WIDTH = 0.1
LARGE_FIRST_CENTER = 10.05

CONFIDENCES = (0.68, 0.9, 0.95, 0.99)
COUPLINGS = ("mass-prop", "non-mass-prop")
R_C_CHOICES = (1e-8, 1e-7, 1e-6)

# The two coverage configurations studies alternate between.
COVERAGE_CONFIGS = (
    {"method": "bayes", "alpha": 115.0},   # means 2.4-7.7: inversion sampler only
    {"method": "chi2", "alpha": 1000.0},   # means 21-67: inversion and PTRS
)

# Pinned anchors from the paper reproduction (README quick start and ROADMAP).
ANCHOR_LIMIT_ARGV = ["limit", "--y-total", "130", "--bins", "15:48:1"]
ANCHOR_LIMIT = 7.006202483028229e-12
ANCHOR_COVERAGE = {"method": "bayes", "alpha": 115.0, "trials": 2000,
                   "seed": 20260823, "covered": 1883}


def make_rng(workload: str, seed: int, stream: str = "") -> random.Random:
    """Independent, reproducible stream per (workload, seed, stream)."""
    return random.Random(f"{workload}:{seed}:{stream}")


def poisson(rng: random.Random, mean: float) -> int:
    """Poisson draw: multiplication method below 30, rounded normal above."""
    if mean < 30.0:
        limit = math.exp(-mean)
        k, prod = 0, rng.random()
        while prod > limit:
            k += 1
            prod *= rng.random()
        return k
    return max(0, round(rng.gauss(mean, math.sqrt(mean))))


def large_centers(n_bins: int = LARGE_BINS) -> list:
    """Exact decimal centres 10.05, 10.15, ... of the large grid."""
    return [(1005 + 10 * i) / 100.0 for i in range(n_bins)]


def small_spectrum(rng: random.Random) -> list:
    """(center, width, counts) rows of a 34-bin spectrum with ~130 counts.

    Redrawn until at least three bins reach five counts, so the chi2 route's
    default minimum-count cut always leaves a fit.
    """
    while True:
        alpha = rng.uniform(100.0, 160.0)
        rows = [(c, SMALL_WIDTH, poisson(rng, alpha * SMALL_WIDTH / c))
                for c in SMALL_CENTERS]
        if sum(1 for _, _, n in rows if n >= 5) >= 3:
            return rows


def large_params(rng: random.Random) -> dict:
    """1/E amplitude and flat background giving about 10^6 counts in 10^4 bins."""
    return {"alpha": round(rng.uniform(1.6e5, 2.0e5), 3),
            "background": round(rng.uniform(10.0, 20.0), 3)}


def large_spectrum(rng: random.Random, n_bins: int = LARGE_BINS) -> list:
    params = large_params(rng)
    return [(c, LARGE_WIDTH,
             poisson(rng, params["alpha"] * LARGE_WIDTH / c + params["background"]))
            for c in large_centers(n_bins)]


def format_spectrum(rows) -> str:
    lines = [SPECTRUM_HEADER]
    lines.extend(f"{c!r},{w!r},{n}" for c, w, n in rows)
    return "\n".join(lines) + "\n"


def cli_round(rng: random.Random, files: dict, out_prefix: str, n_large_bins: int) -> list:
    """One round of the cli-session mix: every command kind once, shuffled.

    ``files`` maps 'small' and 'large' to spectrum paths; write commands put
    their outputs under ``out_prefix``.  Returns (kind, argv) pairs.
    """
    def physics():
        return ["--coupling", rng.choice(COUPLINGS), "--cl", repr(rng.choice(CONFIDENCES)),
                "--r-c", repr(rng.choice(R_C_CHOICES))]

    small, large = files["small"], files["large"]
    last_center = large_centers(n_large_bins)[-1]
    synth = large_params(rng)
    cmds = [
        # shortcut commands that read no file
        ("limit-shortcut-bayes",
         ["limit", "--y-total", str(rng.randint(1, 2000)), "--bins", "15:48:1"] + physics()),
        ("limit-shortcut-chi2",
         ["limit", "--method", "chi2", "--alpha-upper", repr(round(rng.uniform(50.0, 500.0), 3))]
         + physics()),
        # the 34-bin, paper-like spectrum
        ("fit-small", ["fit", "--input", small, "--cl", repr(rng.choice(CONFIDENCES))]),
        ("limit-small-bayes", ["limit", "--input", small] + physics()),
        ("limit-small-chi2", ["limit", "--method", "chi2", "--input", small] + physics()),
        # the large spectrum
        ("fit-large", ["fit", "--input", large, "--cl", repr(rng.choice(CONFIDENCES))]),
        ("limit-large-chi2", ["limit", "--method", "chi2", "--input", large] + physics()),
        ("limit-large-bayes", ["limit", "--method", "bayes", "--input", large] + physics()),
        ("scan-large", ["scan", "--method", "chi2", "--input", large,
                        "--out", out_prefix + "scan-large.csv",
                        "--svg", out_prefix + "scan-large.svg"] + physics()),
        # writes
        ("synth-large", ["synth", "--alpha", repr(synth["alpha"]),
                         "--background", repr(synth["background"]),
                         "--emin", "10.05", "--emax", repr(last_center),
                         "--bin-width", "0.1", "--seed", str(rng.randrange(2**31)),
                         "--out", out_prefix + "synth.csv"]),
        ("scan-shortcut", ["scan", "--method", "bayes", "--y-total", str(rng.randint(1, 2000)),
                           "--bins", "15:48:1", "--out", out_prefix + "scan-shortcut.csv",
                           "--svg", out_prefix + "scan-shortcut.svg"] + physics()),
    ]
    rng.shuffle(cmds)
    return cmds


def coverage_study(rng: random.Random, index: int, trials: int) -> dict:
    """Study ``index`` of the coverage-mc loop: configurations alternate."""
    return dict(COVERAGE_CONFIGS[index % 2], trials=trials, seed=rng.randrange(2**31))


def coverage_argv(study: dict) -> list:
    return ["coverage", "--method", study["method"], "--alpha", repr(study["alpha"]),
            "--trials", str(study["trials"]), "--seed", str(study["seed"])]


def limit_draws(rng: random.Random, n: int) -> list:
    """(y_total, confidence, coupling) with y_total log-uniform in [1, 10^6]."""
    log_hi = math.log(1e6)
    return [(max(1, round(math.exp(rng.uniform(0.0, log_hi)))),
             rng.choice(CONFIDENCES), rng.choice(COUPLINGS)) for _ in range(n)]
