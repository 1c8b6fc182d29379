"""Exclusion curves in the collapse-rate vs correlation-length plane.

A limit computed at one correlation length r_ref transports to any other r
through the exact power law lambda_limit(r) = lambda_ref * (r / r_ref)**2,
because the coupling amplitude scales as 1/r**2 and everything else in either
limit route is r-independent.  The sweep therefore never re-runs a fit.

The 1/E emission formula behind the reference limit is a white-noise result;
its validity degrades toward extreme correlation lengths, and the default
grid span mirrors customary plots rather than a derived applicability bound.
"""

import math
from itertools import groupby
from operator import itemgetter

from .constants import CouplingMode, check_confidence, check_method
from .errors import ValidationError
from .spectrum import (Record, check_grid_size, checked_integer, csv_rows, headed_csv_rows,
                       write_texts)

CURVE_CSV_HEADER = "r_c_m,lambda_limit_s_inv,coupling,method,confidence"
OVERLAY_CSV_HEADER = "r_c_m,lambda_s_inv"


class ReferencePoint(Record):
    """A literature (r_c, lambda) marker; lam is the collapse rate in 1/s; not frozen."""

    __slots__ = ("label", "lam", "r_c")

    def __init__(self, label: str, lam: float, r_c: float):
        if not lam > 0:
            raise ValidationError(f"reference lambda must be positive, got {lam}")
        if not r_c > 0:
            raise ValidationError(f"reference r_c must be positive, got {r_c}")
        self.label, self.lam, self.r_c = label, lam, r_c


class ExclusionCurve(Record):
    """Upper-limit polyline: points are (r_c meters, lambda_limit 1/s).

    The region above the curve (larger lambda at fixed r_c) is excluded.
    The points become a tuple of float pairs.  Not frozen.
    """

    __slots__ = ("coupling", "points", "method", "confidence")

    def __init__(self, coupling: CouplingMode, points, method: str, confidence: float):
        points = tuple((float(r), float(lam)) for r, lam in points)
        check_method(method)
        check_confidence(confidence)
        if not points:
            raise ValidationError("exclusion curve needs at least one point")
        for i, (r, lam) in enumerate(points):
            if not (0 < r < math.inf and 0 < lam < math.inf):
                raise ValidationError(
                    f"curve point {i} not positive and finite: ({r}, {lam})")
            if i and not r > points[i - 1][0]:
                raise ValidationError(
                    f"curve points not ascending in r_c at index {i}: {r}")
        self.coupling, self.points, self.method, self.confidence = (
            coupling, points, method, confidence)


def log_grid(lo: float, hi: float, n: int) -> list:
    """n log-spaced values from lo to hi inclusive, endpoints exact."""
    if not (0 < lo < math.inf and 0 < hi < math.inf):
        raise ValidationError(f"grid bounds must be positive and finite, got [{lo}, {hi}]")
    n = checked_integer(n, "grid point count n")
    if n < 1:
        raise ValidationError(f"grid needs at least one point, got n={n}")
    check_grid_size(n, "correlation-length grid")
    if n == 1:
        if lo != hi:
            raise ValidationError(f"single-point grid requires lo == hi, got [{lo}, {hi}]")
        return [lo]
    if not lo < hi:
        raise ValidationError(f"grid bounds must satisfy lo < hi, got [{lo}, {hi}]")
    log_lo, log_hi = math.log(lo), math.log(hi)
    grid = [math.exp(log_lo + (log_hi - log_lo) * i / (n - 1)) for i in range(1, n - 1)]
    return [lo] + grid + [hi]


def scan(lambda_ref: float, r_ref: float, grid, coupling: CouplingMode,
         method: str, confidence: float) -> ExclusionCurve:
    """Transport a reference limit across a sorted r_c grid.

    With grid == [r_ref] the output point is exactly (r_ref, lambda_ref):
    the ratio r/r_ref evaluates to 1.0 and the power law is the identity.
    """
    if not lambda_ref > 0:
        raise ValidationError(f"lambda_ref must be positive, got {lambda_ref}")
    if not r_ref > 0:
        raise ValidationError(f"r_ref must be positive, got {r_ref}")
    grid = [float(r) for r in grid]
    if not grid:
        raise ValidationError("scan grid is empty")
    for i, r in enumerate(grid):
        if not r > 0:
            raise ValidationError(f"grid point {i} not positive: {r}")
        if i and not r > grid[i - 1]:
            raise ValidationError(f"grid not strictly ascending at index {i}: {r}")
    try:
        points = tuple((r, lambda_ref * (r / r_ref) ** 2) for r in grid)
    except OverflowError:
        raise ValidationError(
            f"grid [{grid[0]}, {grid[-1]}] m transports the limit beyond the float range"
        ) from None
    return ExclusionCurve(coupling=coupling, points=points, method=method,
                          confidence=confidence)


def builtin_reference_points() -> list:
    """Customary model-parameter markers: one GRW point and an Adler band.

    The Adler family is a central value with two order-of-magnitude band
    endpoints, all at the same correlation length; two labels in total.
    """
    return [
        ReferencePoint(label="GRW", lam=1e-16, r_c=1e-7),
        ReferencePoint(label="Adler", lam=1e-8, r_c=1e-7),
        ReferencePoint(label="Adler", lam=1e-10, r_c=1e-7),
        ReferencePoint(label="Adler", lam=1e-6, r_c=1e-7),
    ]


def format_curves(curves) -> str:
    """Canonical CSV text for one or more curves (round-trip float reprs)."""
    rows = [CURVE_CSV_HEADER]
    for curve in curves:
        rows.extend(
            f"{r!r},{lam!r},{curve.coupling.value},{curve.method},{curve.confidence!r}"
            for r, lam in curve.points)
    return "\n".join(rows) + "\n"


def save_curves(curves, path) -> None:
    """Write curves as CSV; load_curves gives back equal curves."""
    write_texts((path, format_curves(curves)))


def _curve_fields(fields):
    point = float(fields[0]), float(fields[1])
    return (CouplingMode.from_label(fields[2]), fields[3], float(fields[4])), point


def load_curves(path) -> list:
    """Read a curve CSV back into ExclusionCurve objects.

    Rows are grouped into one curve per maximal run of identical
    (coupling, method, confidence); file order is preserved.
    """
    rows = (row for _, row in headed_csv_rows(path, CURVE_CSV_HEADER, 5, _curve_fields))
    return [ExclusionCurve(coupling=coupling, points=[point for _, point in group],
                           method=method, confidence=confidence)
            for (coupling, method, confidence), group in groupby(rows, key=itemgetter(0))]


def _overlay_fields(fields):
    return float(fields[0]), float(fields[1])


def load_overlay_boundary(path) -> list:
    """Read an externally supplied (r_c, lambda) polyline for plot overlay.

    An empty file (or header-only file) is a valid, empty overlay.  No
    computation is performed on the values beyond positivity and ordering.
    """
    rows = csv_rows(path, OVERLAY_CSV_HEADER, 2, _overlay_fields)
    next(rows, None)  # the header line, if any; a file without one is empty
    points = []
    for lineno, (r, lam) in rows:
        if not (r > 0 and lam > 0):
            raise ValidationError(f"{path}:{lineno}: overlay values must be positive")
        if points and not r > points[-1][0]:
            raise ValidationError(f"{path}:{lineno}: overlay rows not ascending in r_c")
        points.append((r, lam))
    return points
