"""Command-line front end: fit, limit, scan, synth, coverage.

Every command is deterministic given its flags (plus --seed where sampling
is involved).  fit, limit and coverage write JSON, scan and synth CSV/SVG;
each --out and --svg goes through spectrum.write_texts, which replaces a
command's files together.  Pipeline failures print a machine-readable error
object to stderr and exit with 2 (validation), 3 (I/O) or 4 (numerical
non-convergence); argparse keeps its usual usage-error behavior.

The modules that only some commands use are imported where they run:
scan, svg and synth by their commands.  A fit or limit process loads none
of them.
"""

import argparse
import json
import math
import os
import sys

from .bayes import PosteriorSpec, harmonic_sum, lambda_credible_limit
from .chi2fit import alpha_upper_limit, fit_alpha
from .constants import (CHI2_MIN_COUNTS, IGEX_EXPOSURE, METHODS, CouplingMode, ExposureConfig,
                        check_confidence, conversion)
from .errors import NumericalError, ValidationError
from .spectrum import (RangeSelection, center_grid, format_spectrum, load_spectrum,
                       save_spectrum, select, write_texts)

DEFAULT_E_MIN_KEV = 14.5
DEFAULT_E_MAX_KEV = 48.5
DEFAULT_R_C_M = 1e-7
DEFAULT_CONFIDENCE = 0.95
DEFAULT_GRID = "1e-9:1e-3:200"
# --bins is the grid of the --y-total shortcut; an --input file has its own.
BINS_WITHOUT_Y_TOTAL = "--bins applies to --method bayes with --y-total only"


def _split_spec(flag: str, spec: str, last: str, last_type=float) -> tuple:
    """'lo:hi:<last>' -> (float lo, float hi, last_type of the third field)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"{flag} expects lo:hi:{last}, got {spec!r}")
    try:
        return float(parts[0]), float(parts[1]), last_type(parts[2])
    except ValueError:
        raise ValidationError(f"{flag} values must be numbers, got {spec!r}") from None


def _parse_bins(spec: str) -> float:
    """'lo:hi:width' -> sum(width / c) over the checked center_grid(lo, hi,
    width): the double harmonic_sum gives on bins at those centers."""
    lo, hi, width = _split_spec("--bins", spec, "width")
    if not all(map(math.isfinite, (lo, hi, width))):
        raise ValidationError(f"--bins values must be finite, got {spec!r}")
    if not width > 0:
        raise ValidationError(f"--bins width must be positive, got {width}")
    if not lo <= hi:
        raise ValidationError(f"--bins needs lo <= hi, got {spec!r}")
    return math.fsum(width / c for c in center_grid(lo, hi, width))


def _parse_grid(spec: str) -> list:
    """'lo:hi:n' -> n log-spaced correlation lengths from lo to hi meters."""
    from .scan import log_grid
    return log_grid(*_split_spec("--grid", spec, "n", int))


def _physics_inputs(args) -> ExposureConfig:
    """The exposure of the three flags, each defaulting to IGEX_EXPOSURE's."""
    return ExposureConfig(atoms_per_kg=args.atoms_per_kg,
                          exposure_kg_day=args.exposure_kg_day,
                          electrons_per_atom=args.electrons_per_atom)


def _emit_json(args, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        bad = [k for k, v in payload.items() if isinstance(v, float) and not math.isfinite(v)]
        raise NumericalError(f"result out of the float range: {', '.join(bad)}") from None
    if args.out:
        write_texts((args.out, text))
    else:
        sys.stdout.write(text)


def _selected_input(args, default_min_counts: int):
    """The --input spectrum cut to the window and --min-counts; a flag not
    given takes its default (the route's, for --min-counts)."""
    return select(load_spectrum(args.input), RangeSelection(
        e_min=DEFAULT_E_MIN_KEV if args.emin is None else args.emin,
        e_max=DEFAULT_E_MAX_KEV if args.emax is None else args.emax,
        min_counts=default_min_counts if args.min_counts is None else args.min_counts))


def _chi2_fit(args):
    """Chi-square fit of the selected --input spectrum."""
    return fit_alpha(_selected_input(args, CHI2_MIN_COUNTS))


def cmd_fit(args) -> int:
    fit = _chi2_fit(args)
    _emit_json(args, {
        "alpha_hat": fit.alpha_hat,
        "sigma_alpha": fit.sigma_alpha,
        "chi2": fit.chi2,
        "ndf": fit.ndf,
        "reduced_chi2": fit.reduced_chi2,
        "alpha_upper": alpha_upper_limit(fit, args.cl),
        "confidence": args.cl,
    })
    return 0


def _limit_route(args, exposure):
    """Check the limit flags and read, select or fit the input once.

    A run has one input: the route's shortcut (--y-total with --bins, or
    --alpha-upper) or an --input file, which alone takes the window flags.
    Returns payload(coupling): the limit JSON for one coupling, so a scan
    converts the same total and harmonic sum, or fit, for both couplings.
    """
    bayes = args.method == "bayes"
    if bayes and args.alpha_upper is not None:
        raise ValidationError("--alpha-upper applies to --method chi2 only")
    if not bayes and args.y_total is not None:
        raise ValidationError("--y-total applies to --method bayes only")
    shortcut, given = ("--y-total", args.y_total) if bayes else ("--alpha-upper", args.alpha_upper)
    if bayes and given is not None:
        if not args.bins:
            raise ValidationError("--y-total requires --bins lo:hi:width")
        harmonic = _parse_bins(args.bins)
    elif args.bins:
        raise ValidationError(BINS_WITHOUT_Y_TOTAL)
    if given is None and not args.input:
        raise ValidationError(f"{args.method} limit needs --input or {shortcut}"
                              + (" with --bins" if bayes else ""))
    if given is not None:
        if not bayes and not given >= 0:
            raise ValidationError(f"--alpha-upper must be >= 0, got {given}")
        if not bayes:  # the shortcut only echoes --cl
            check_confidence(args.cl)
        if args.input:
            raise ValidationError(f"--input and {shortcut} are two inputs; give one")
        for flag, value in (("--emin", args.emin), ("--emax", args.emax),
                            ("--min-counts", args.min_counts)):
            if value is not None:
                raise ValidationError(f"{flag} applies to --input only, not with {shortcut}")

    if bayes:
        y = given
        if y is None:
            bins = _selected_input(args, 0).bins
            y, harmonic = sum(b.counts for b in bins), harmonic_sum(bins)

        def rate(coupling: CouplingMode) -> tuple:
            spec = PosteriorSpec(y, harmonic, conversion(coupling, args.r_c, exposure))
            lam = lambda_credible_limit(spec, args.cl).lambda_upper
            return lam, {"y_total": y, "harmonic_sum": spec.harmonic_sum}
    else:
        alpha_upper = given
        if alpha_upper is None:
            alpha_upper = alpha_upper_limit(_chi2_fit(args), args.cl)
            if not alpha_upper >= 0:
                raise ValidationError(f"alpha_upper {alpha_upper} from the fit at --cl {args.cl} "
                                      "must be >= 0; give a higher --cl")

        def rate(coupling: CouplingMode) -> tuple:
            return alpha_upper / conversion(coupling, args.r_c, exposure), {
                "alpha_upper": alpha_upper}

    def payload(coupling: CouplingMode) -> dict:
        lam, route_fields = rate(coupling)
        # Checked here, so that scan stops as limit does rather than draw an inf.
        if not math.isfinite(lam):
            raise NumericalError("result out of the float range: lambda_upper_s_inv")
        return {"lambda_upper_s_inv": lam, "confidence": args.cl, "coupling": coupling.value,
                "r_c_m": args.r_c, **route_fields, "method": args.method}
    return payload


def cmd_limit(args) -> int:
    exposure = _physics_inputs(args)
    coupling = CouplingMode.from_label(args.coupling)
    _emit_json(args, _limit_route(args, exposure)(coupling))
    return 0


def _same_file(a, b) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one is missing: compare where they would be made
        return os.path.realpath(a) == os.path.realpath(b)


def cmd_scan(args) -> int:
    from .scan import builtin_reference_points, format_curves, load_overlay_boundary, scan

    if args.overlay and not args.svg:
        raise ValidationError("--overlay is drawn on the --svg plot; give --svg too")
    if args.svg and _same_file(args.svg, args.out):
        raise ValidationError("--svg and --out name the same file; give two paths")
    exposure = _physics_inputs(args)
    grid = _parse_grid(args.grid)
    payload = _limit_route(args, exposure)
    curves = [scan(payload(coupling)["lambda_upper_s_inv"], args.r_c, grid,
                   coupling, args.method, args.cl)
              for coupling in CouplingMode]
    # Every text is made before any file is written, so a bad overlay or a
    # plot that fails leaves --out and --svg as they were.
    outputs = [(args.out, format_curves(curves))]
    if args.svg:
        from .svg import render_exclusion_svg

        overlay = load_overlay_boundary(args.overlay) if args.overlay else ()
        outputs.append((args.svg, render_exclusion_svg(
            curves, references=builtin_reference_points(), overlay=overlay,
            title="collapse-rate exclusion from X-ray emission")))
    write_texts(*outputs)
    return 0


def _synth_config(args):
    from .synth import SynthConfig

    return SynthConfig(alpha_true=args.alpha, e_min=args.emin, e_max=args.emax,
                       bin_width=args.bin_width,
                       flat_background_per_bin=args.background, seed=args.seed)


def cmd_synth(args) -> int:
    from .synth import sample_spectrum

    spectrum = sample_spectrum(_synth_config(args))
    if args.out:
        save_spectrum(spectrum, args.out)
    else:
        sys.stdout.write(format_spectrum(spectrum))
    return 0


def cmd_coverage(args) -> int:
    from .synth import run_coverage

    report = run_coverage(_synth_config(args), args.trials, args.method, args.cl)
    _emit_json(args, {
        "trials": report.trials,
        "covered": report.covered,
        "coverage_fraction": report.coverage_fraction,
        "coverage_stderr": report.coverage_stderr,
        "method": report.method,
        "confidence": report.confidence,
        "seed": args.seed,
        "skipped": report.skipped,
        "requested_trials": report.requested_trials,
    })
    return 0


def _add_window_flags(parser):
    parser.add_argument("--emin", type=float,
                        help="lower edge of the analysis window in keV")
    parser.add_argument("--emax", type=float,
                        help="upper edge of the analysis window in keV")
    parser.add_argument("--min-counts", type=int,
                        help=f"drop bins below this count (chi2 default {CHI2_MIN_COUNTS}, "
                             "bayes 0)")


def _add_limit_flags(parser):
    """The flags limit and scan share: inputs, window, --cl and physics."""
    parser.add_argument("--input", help="spectrum CSV (center_keV,width_keV,counts)")
    parser.add_argument("--y-total", type=int, default=None,
                        help="total observed counts (bayes shortcut, with --bins)")
    parser.add_argument("--bins", help="analysis grid lo:hi:width, inclusive centers")
    parser.add_argument("--alpha-upper", type=float, default=None,
                        help="pre-computed amplitude bound (chi2 shortcut)")
    parser.add_argument("--method", choices=METHODS, default="bayes",
                        help="limit construction")
    _add_window_flags(parser)
    parser.add_argument("--cl", type=float, default=DEFAULT_CONFIDENCE,
                        help="confidence / credibility level")
    parser.add_argument("--atoms-per-kg", type=float, default=IGEX_EXPOSURE.atoms_per_kg,
                        help="atoms per kg of detector (default %(default)s)")
    parser.add_argument("--exposure-kg-day", type=float,
                        default=IGEX_EXPOSURE.exposure_kg_day,
                        help="exposure mass-time product in kg day (default %(default)s)")
    parser.add_argument("--electrons-per-atom", type=float,
                        default=IGEX_EXPOSURE.electrons_per_atom,
                        help="emitting electrons per atom (default %(default)s)")
    parser.add_argument("--r-c", type=float, default=DEFAULT_R_C_M,
                        help="correlation length in meters")
    parser.add_argument("--coupling", choices=[m.value for m in CouplingMode],
                        default=CouplingMode.MASS_PROPORTIONAL.value,
                        help="which mass enters the emission rate")


def _add_synth_flags(parser):
    parser.add_argument("--alpha", type=float, required=True,
                        help="true 1/E amplitude in counts keV")
    parser.add_argument("--emin", type=float, default=15.0,
                        help="first bin center in keV")
    parser.add_argument("--emax", type=float, default=48.0,
                        help="last bin center in keV")
    parser.add_argument("--bin-width", type=float, default=1.0,
                        help="bin width in keV")
    parser.add_argument("--background", type=float, default=0.0,
                        help="flat expected background counts per bin")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spontrad",
        description="Collapse-rate upper limits from binned X-ray emission spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="chi-square fit of the alpha/E model")
    p.add_argument("--input", required=True, help="spectrum CSV")
    _add_window_flags(p)
    p.add_argument("--cl", type=float, default=DEFAULT_CONFIDENCE,
                   help="one-sided confidence level")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("limit", help="upper limit on the collapse rate")
    _add_limit_flags(p)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(handler=cmd_limit)

    p = sub.add_parser("scan", help="exclusion curves over a correlation-length grid")
    _add_limit_flags(p)
    p.add_argument("--grid", default=DEFAULT_GRID,
                   help="correlation-length grid lo:hi:n (log-spaced meters)")
    p.add_argument("--out", required=True, help="curve CSV output path")
    p.add_argument("--svg", help="also render the exclusion plot here")
    p.add_argument("--overlay", help="extra boundary CSV (r_c_m,lambda_s_inv) to draw")
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("synth", help="generate a synthetic Poisson spectrum")
    _add_synth_flags(p)
    p.add_argument("--out", help="write spectrum CSV here instead of stdout")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("coverage", help="frequentist coverage study")
    _add_synth_flags(p)
    p.add_argument("--trials", type=int, default=1000, help="number of trials")
    p.add_argument("--method", choices=METHODS, default="bayes",
                   help="limit construction under test")
    p.add_argument("--cl", type=float, default=DEFAULT_CONFIDENCE,
                   help="confidence / credibility level")
    p.add_argument("--out", help="write JSON report here instead of stdout")
    p.set_defaults(handler=cmd_coverage)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_finite(args)
        return args.handler(args)
    except ValidationError as exc:
        _print_error("validation", exc)
        return 2
    except NumericalError as exc:
        _print_error("numerical", exc)
        return 4
    except OSError as exc:
        _print_error("io", exc)
        return 3


def _check_finite(args) -> None:
    """Reject inf and nan in any float flag before a command runs."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise ValidationError(f"{flag} must be a finite number, got {value}")


def _print_error(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": str(exc)}}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
