"""Minimal SVG emitter for log-log exclusion plots.

Hand-rolled on purpose: the picture is a fixed composition of decade grid
lines, per-curve polylines with filled excluded regions above them, point
markers, and one optional overlay polyline.  Elements carry stable class
attributes (curve, excluded, marker, overlay, grid) so tests can count them;
output is a deterministic function of the inputs.  Both axes are log
scales over the data's range padded to whole decades (_data_ranges), and
each maps its range onto the frame between the margins.
"""

import math

from .errors import ValidationError

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 90
MARGIN_RIGHT = 30
MARGIN_TOP = 40
MARGIN_BOTTOM = 70
# The plot frame's edges in pixels.
_LEFT, _TOP = MARGIN_LEFT, MARGIN_TOP
_RIGHT, _BOTTOM = WIDTH - MARGIN_RIGHT, HEIGHT - MARGIN_BOTTOM

_CURVE_COLORS = {
    "mass-prop": "#1f77b4",
    "non-mass-prop": "#d62728",
}
_OVERLAY_COLOR = "#7f7f7f"
_MARKER_COLOR = "#111111"


def _decades(lo: float, hi: float) -> range:
    return range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _data_ranges(curves, references, overlay):
    """(r_lo, r_hi), (lam_lo, lam_hi): every point's range, padded out to
    whole decades so that grid lines frame every feature.

    A padded end beyond the float range, or a lower end that underflows to
    0 (a point below about 1e-323), raises ValidationError.
    """
    points = [point for curve in curves for point in curve.points]
    points += [(ref.r_c, ref.lam) for ref in references]
    points += overlay
    if not points:
        raise ValidationError("nothing to plot")
    rs, lams = zip(*points)
    try:
        r_lo = 10.0 ** math.floor(math.log10(min(rs)))
        r_hi = 10.0 ** math.ceil(math.log10(max(rs)) + 1e-12)
        lam_lo = 10.0 ** math.floor(math.log10(min(lams)))
        lam_hi = 10.0 ** math.ceil(math.log10(max(lams)) + 1e-12)
    except OverflowError:
        raise ValidationError(
            f"plot range r=[{min(rs)}, {max(rs)}], lam=[{min(lams)}, {max(lams)}] "
            "padded to whole decades is beyond the float range") from None
    if not (r_lo > 0 and lam_lo > 0):
        raise ValidationError(
            f"degenerate plot ranges r={(r_lo, r_hi)}, lam={(lam_lo, lam_hi)}")
    return (r_lo, r_hi), (lam_lo, lam_hi)


def render_exclusion_svg(curves, references=(), overlay=(), title="") -> str:
    """Compose the exclusion plot as an SVG document string.

    curves: ExclusionCurve objects (shaded above, labeled by coupling).
    references: ReferencePoint markers.  overlay: (r_c, lam) polyline, may
    be empty.  A point at v on an axis from lo to hi lies at the fraction
    t = (log10(v) - log10(lo)) / (log10(hi) - log10(lo)) of the frame,
    counted from its left edge for r_c and from its bottom edge for lam.
    """
    (r_lo, r_hi), (lam_lo, lam_hi) = _data_ranges(curves, references, overlay)
    log_r_lo, log_lam_lo = math.log10(r_lo), math.log10(lam_lo)
    r_span, lam_span = math.log10(r_hi) - log_r_lo, math.log10(lam_hi) - log_lam_lo

    def x(r: float) -> float:
        return _LEFT + (math.log10(r) - log_r_lo) / r_span * (_RIGHT - _LEFT)

    def y(lam: float) -> float:
        return _TOP + (1.0 - (math.log10(lam) - log_lam_lo) / lam_span) * (_BOTTOM - _TOP)

    def mapped(points) -> list:
        """Each (r_c, lam) point as its formatted (x, y) pixel pair."""
        return [(_fmt(x(r)), _fmt(y(lam))) for r, lam in points]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text class="title" x="{WIDTH / 2:.2f}" y="{MARGIN_TOP - 14:.2f}" '
            f'text-anchor="middle" font-size="16">{title}</text>')

    # Decade grid with tick labels on both axes.
    left, right, top, bottom = map(_fmt, (_LEFT, _RIGHT, _TOP, _BOTTOM))
    for exp in _decades(r_lo, r_hi):
        r = 10.0 ** exp
        if not r_lo <= r <= r_hi:
            continue
        px = _fmt(x(r))
        parts.append(f'<line class="grid" x1="{px}" y1="{top}" x2="{px}" y2="{bottom}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text class="tick" x="{px}" y="{_fmt(_BOTTOM + 18)}" '
                     f'text-anchor="middle" font-size="11">1e{exp}</text>')
    for exp in _decades(lam_lo, lam_hi):
        lam = 10.0 ** exp
        if not lam_lo <= lam <= lam_hi:
            continue
        py = _fmt(y(lam))
        parts.append(f'<line class="grid" x1="{left}" y1="{py}" x2="{right}" y2="{py}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text class="tick" x="{_fmt(_LEFT - 8)}" y="{py}" '
                     f'text-anchor="end" dominant-baseline="middle" '
                     f'font-size="11">1e{exp}</text>')

    # Excluded regions first (underneath), then the curves on top.
    regions, lines = [], []
    for curve in curves:
        coupling = curve.coupling.value
        color = _CURVE_COLORS.get(coupling, "#2ca02c")
        xy = mapped(curve.points)
        points = " ".join(map(",".join, xy))
        regions.append(f'<polygon class="excluded" data-coupling="{coupling}" '
                       f'points="{points} {xy[-1][0]},{top} {xy[0][0]},{top}" '
                       f'fill="{color}" fill-opacity="0.15" stroke="none"/>')
        lines.append(f'<polyline class="curve" data-coupling="{coupling}" '
                     f'data-method="{curve.method}" points="{points}" '
                     f'fill="none" stroke="{color}" stroke-width="2"/>')
    parts += regions + lines

    if overlay:
        parts.append(f'<polyline class="overlay" '
                     f'points="{" ".join(map(",".join, mapped(overlay)))}" '
                     f'fill="none" stroke="{_OVERLAY_COLOR}" stroke-width="2" '
                     f'stroke-dasharray="6 4"/>')

    for ref in references:
        px = x(ref.r_c)
        cy = _fmt(y(ref.lam))
        parts.append(f'<circle class="marker" data-label="{ref.label}" '
                     f'cx="{_fmt(px)}" cy="{cy}" r="4" fill="{_MARKER_COLOR}"/>')
        parts.append(f'<text class="marker-label" x="{_fmt(px + 7)}" '
                     f'y="{cy}" font-size="11" dominant-baseline="middle">'
                     f'{ref.label}</text>')

    # Axis frame and captions.
    middle = _fmt((_TOP + _BOTTOM) / 2)
    parts.append(f'<rect class="frame" x="{left}" y="{top}" '
                 f'width="{_fmt(_RIGHT - _LEFT)}" height="{_fmt(_BOTTOM - _TOP)}" '
                 f'fill="none" stroke="#000000" stroke-width="1.5"/>')
    parts.append(f'<text class="axis-label" x="{_fmt((_LEFT + _RIGHT) / 2)}" '
                 f'y="{HEIGHT - 16:.2f}" text-anchor="middle" font-size="13">'
                 f'correlation length r_C [m]</text>')
    parts.append(f'<text class="axis-label" x="22" y="{middle}" text-anchor="middle" '
                 f'font-size="13" transform="rotate(-90 22 {middle})">'
                 f'collapse rate [1/s]</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
