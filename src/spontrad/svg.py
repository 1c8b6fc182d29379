"""Minimal SVG emitter for log-log exclusion plots.

Hand-rolled on purpose: the picture is a fixed composition of decade grid
lines, per-curve polylines with filled excluded regions above them, point
markers, and one optional overlay polyline.  Elements carry stable class
attributes (curve, excluded, marker, overlay, grid) so tests can count them;
output is a deterministic function of the inputs.
"""

import math

from .errors import ValidationError

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 90
MARGIN_RIGHT = 30
MARGIN_TOP = 40
MARGIN_BOTTOM = 70

_CURVE_COLORS = {
    "mass-prop": "#1f77b4",
    "non-mass-prop": "#d62728",
}
_OVERLAY_COLOR = "#7f7f7f"
_MARKER_COLOR = "#111111"


def _decades(lo: float, hi: float) -> range:
    return range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1)


class _LogLogFrame:
    """Maps (r_c, lam) data coordinates onto the pixel canvas."""

    def __init__(self, r_range, lam_range):
        r_lo, r_hi = r_range
        lam_lo, lam_hi = lam_range
        if not (0 < r_lo < r_hi and 0 < lam_lo < lam_hi):
            raise ValidationError(
                f"degenerate plot ranges r={r_range}, lam={lam_range}")
        self.r_lo, self.r_hi = r_lo, r_hi
        self.lam_lo, self.lam_hi = lam_lo, lam_hi
        self._x0 = MARGIN_LEFT
        self._y0 = MARGIN_TOP
        self._w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        self._h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def x(self, r: float) -> float:
        t = (math.log10(r) - math.log10(self.r_lo)) / (
            math.log10(self.r_hi) - math.log10(self.r_lo))
        return self._x0 + t * self._w

    def y(self, lam: float) -> float:
        t = (math.log10(lam) - math.log10(self.lam_lo)) / (
            math.log10(self.lam_hi) - math.log10(self.lam_lo))
        return self._y0 + (1.0 - t) * self._h

    @property
    def top(self) -> float:
        return float(self._y0)

    @property
    def bottom(self) -> float:
        return float(self._y0 + self._h)

    @property
    def left(self) -> float:
        return float(self._x0)

    @property
    def right(self) -> float:
        return float(self._x0 + self._w)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _points_attr(frame, points) -> str:
    return " ".join(f"{_fmt(frame.x(r))},{_fmt(frame.y(lam))}" for r, lam in points)


def _data_ranges(curves, references, overlay):
    rs = []
    lams = []
    for curve in curves:
        rs.extend(r for r, _ in curve.points)
        lams.extend(lam for _, lam in curve.points)
    for ref in references:
        rs.append(ref.r_c)
        lams.append(ref.lam)
    for r, lam in overlay:
        rs.append(r)
        lams.append(lam)
    if not rs:
        raise ValidationError("nothing to plot")
    # Pad to whole decades so grid lines frame every feature.
    try:
        r_lo = 10.0 ** math.floor(math.log10(min(rs)))
        r_hi = 10.0 ** math.ceil(math.log10(max(rs)) + 1e-12)
        lam_lo = 10.0 ** math.floor(math.log10(min(lams)))
        lam_hi = 10.0 ** math.ceil(math.log10(max(lams)) + 1e-12)
    except OverflowError:
        raise ValidationError(
            f"plot range r=[{min(rs)}, {max(rs)}], lam=[{min(lams)}, {max(lams)}] "
            "padded to whole decades is beyond the float range") from None
    if r_lo == r_hi:
        r_hi = r_lo * 10.0
    if lam_lo == lam_hi:
        lam_hi = lam_lo * 10.0
    return (r_lo, r_hi), (lam_lo, lam_hi)


def render_exclusion_svg(curves, references=(), overlay=(), title="") -> str:
    """Compose the exclusion plot as an SVG document string.

    curves: ExclusionCurve objects (shaded above, labeled by coupling).
    references: ReferencePoint markers.  overlay: (r_c, lam) polyline, may
    be empty.  Values are clamped to nothing; callers pass sane data.
    """
    (r_lo, r_hi), (lam_lo, lam_hi) = _data_ranges(curves, references, overlay)
    frame = _LogLogFrame((r_lo, r_hi), (lam_lo, lam_hi))

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
    for exp in _decades(r_lo, r_hi):
        r = 10.0 ** exp
        if not r_lo <= r <= r_hi:
            continue
        x = _fmt(frame.x(r))
        parts.append(f'<line class="grid" x1="{x}" y1="{_fmt(frame.top)}" '
                     f'x2="{x}" y2="{_fmt(frame.bottom)}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text class="tick" x="{x}" y="{_fmt(frame.bottom + 18)}" '
                     f'text-anchor="middle" font-size="11">1e{exp}</text>')
    for exp in _decades(lam_lo, lam_hi):
        lam = 10.0 ** exp
        if not lam_lo <= lam <= lam_hi:
            continue
        y = _fmt(frame.y(lam))
        parts.append(f'<line class="grid" x1="{_fmt(frame.left)}" y1="{y}" '
                     f'x2="{_fmt(frame.right)}" y2="{y}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text class="tick" x="{_fmt(frame.left - 8)}" y="{y}" '
                     f'text-anchor="end" dominant-baseline="middle" '
                     f'font-size="11">1e{exp}</text>')

    # Excluded regions first (underneath), then the curves on top.
    for curve in curves:
        color = _CURVE_COLORS.get(curve.coupling.value, "#2ca02c")
        poly = _points_attr(frame, curve.points)
        first_x = _fmt(frame.x(curve.points[0][0]))
        last_x = _fmt(frame.x(curve.points[-1][0]))
        top = _fmt(frame.top)
        parts.append(f'<polygon class="excluded" data-coupling="{curve.coupling.value}" '
                     f'points="{poly} {last_x},{top} {first_x},{top}" '
                     f'fill="{color}" fill-opacity="0.15" stroke="none"/>')
    for curve in curves:
        color = _CURVE_COLORS.get(curve.coupling.value, "#2ca02c")
        parts.append(f'<polyline class="curve" data-coupling="{curve.coupling.value}" '
                     f'data-method="{curve.method}" '
                     f'points="{_points_attr(frame, curve.points)}" '
                     f'fill="none" stroke="{color}" stroke-width="2"/>')

    if overlay:
        parts.append(f'<polyline class="overlay" '
                     f'points="{_points_attr(frame, overlay)}" '
                     f'fill="none" stroke="{_OVERLAY_COLOR}" stroke-width="2" '
                     f'stroke-dasharray="6 4"/>')

    for ref in references:
        cx = _fmt(frame.x(ref.r_c))
        cy = _fmt(frame.y(ref.lam))
        parts.append(f'<circle class="marker" data-label="{ref.label}" '
                     f'cx="{cx}" cy="{cy}" r="4" fill="{_MARKER_COLOR}"/>')
        parts.append(f'<text class="marker-label" x="{_fmt(frame.x(ref.r_c) + 7)}" '
                     f'y="{cy}" font-size="11" dominant-baseline="middle">'
                     f'{ref.label}</text>')

    # Axis frame and captions.
    parts.append(f'<rect class="frame" x="{_fmt(frame.left)}" y="{_fmt(frame.top)}" '
                 f'width="{_fmt(frame.right - frame.left)}" '
                 f'height="{_fmt(frame.bottom - frame.top)}" '
                 f'fill="none" stroke="#000000" stroke-width="1.5"/>')
    parts.append(f'<text class="axis-label" x="{(frame.left + frame.right) / 2:.2f}" '
                 f'y="{HEIGHT - 16:.2f}" text-anchor="middle" font-size="13">'
                 f'correlation length r_C [m]</text>')
    parts.append(f'<text class="axis-label" x="22" '
                 f'y="{(frame.top + frame.bottom) / 2:.2f}" text-anchor="middle" '
                 f'font-size="13" transform="rotate(-90 22 '
                 f'{(frame.top + frame.bottom) / 2:.2f})">collapse rate [1/s]</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
