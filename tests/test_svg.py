"""Rendering of the exclusion plot: structure, determinism, geometry."""

import xml.etree.ElementTree as ET

import pytest

from spontrad.constants import CouplingMode
from spontrad.errors import ValidationError
from spontrad.scan import ExclusionCurve, ReferencePoint, log_grid, scan
from spontrad.svg import (
    HEIGHT,
    WIDTH,
    render_exclusion_svg,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def make_curve(coupling=CouplingMode.MASS_PROPORTIONAL, lam_ref=8.1e-12):
    grid = log_grid(1e-9, 1e-3, 40)
    return scan(lam_ref, 1e-7, grid, coupling, "chi2", 0.95)


def by_class(svg_text, cls):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.get("class") == cls]


class TestStructure:
    def test_parses_as_xml(self):
        text = render_exclusion_svg([make_curve()])
        root = ET.fromstring(text)
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("width") == str(WIDTH)
        assert root.get("height") == str(HEIGHT)

    def test_one_curve_one_region(self):
        text = render_exclusion_svg([make_curve()])
        assert len(by_class(text, "curve")) == 1
        assert len(by_class(text, "excluded")) == 1
        assert not by_class(text, "overlay")
        assert not by_class(text, "marker")

    def test_two_curves_carry_coupling_attrs(self):
        curves = [make_curve(CouplingMode.MASS_PROPORTIONAL, 8.1e-12),
                  make_curve(CouplingMode.NON_MASS_PROPORTIONAL, 2.4e-18)]
        text = render_exclusion_svg(curves)
        lines = by_class(text, "curve")
        assert [el.get("data-coupling") for el in lines] == [
            "mass-prop", "non-mass-prop"]
        assert all(el.get("data-method") == "chi2" for el in lines)
        assert len(by_class(text, "excluded")) == 2

    def test_markers_and_labels(self):
        refs = [ReferencePoint("GRW", 1e-16, 1e-7),
                ReferencePoint("Adler", 1e-8, 1e-7)]
        text = render_exclusion_svg([make_curve()], references=refs)
        markers = by_class(text, "marker")
        assert [el.get("data-label") for el in markers] == ["GRW", "Adler"]
        labels = by_class(text, "marker-label")
        assert [el.text for el in labels] == ["GRW", "Adler"]

    def test_overlay_polyline(self):
        overlay = [(1e-8, 1e-11), (1e-6, 1e-9), (1e-4, 1e-7)]
        text = render_exclusion_svg([make_curve()], overlay=overlay)
        (line,) = by_class(text, "overlay")
        assert len(line.get("points").split()) == 3
        assert line.get("stroke-dasharray")

    def test_title_optional(self):
        with_title = render_exclusion_svg([make_curve()], title="exclusion")
        without = render_exclusion_svg([make_curve()])
        assert len(by_class(with_title, "title")) == 1
        assert not by_class(without, "title")

    def test_grid_spans_decades(self):
        text = render_exclusion_svg([make_curve()])
        # r from 1e-9 to 1e-3 and lam over 12-plus decades: ticks on both axes.
        ticks = by_class(text, "tick")
        assert {t.text for t in ticks} >= {"1e-9", "1e-3"}
        assert len(by_class(text, "grid")) == len(ticks)


class TestGeometry:
    def test_region_sits_above_curve(self):
        # Excluded polygon closes through the frame top, so it has exactly
        # two more vertices than the curve and both extras sit at min y.
        text = render_exclusion_svg([make_curve()])
        (line,) = by_class(text, "curve")
        (poly,) = by_class(text, "excluded")
        curve_pts = line.get("points").split()
        poly_pts = poly.get("points").split()
        assert len(poly_pts) == len(curve_pts) + 2
        top_y = min(float(p.split(",")[1]) for p in poly_pts)
        assert all(float(p.split(",")[1]) == top_y for p in poly_pts[-2:])

    def test_larger_lambda_maps_higher_on_canvas(self):
        curves = [make_curve(CouplingMode.MASS_PROPORTIONAL, 8.1e-12),
                  make_curve(CouplingMode.MASS_PROPORTIONAL, 8.1e-10)]
        text = render_exclusion_svg(curves)
        low, high = by_class(text, "curve")
        y_low = float(low.get("points").split()[0].split(",")[1])
        y_high = float(high.get("points").split()[0].split(",")[1])
        assert y_high < y_low

    def test_curve_x_increases_with_r(self):
        text = render_exclusion_svg([make_curve()])
        (line,) = by_class(text, "curve")
        xs = [float(p.split(",")[0]) for p in line.get("points").split()]
        assert xs == sorted(xs)
        assert len(set(xs)) == len(xs)


class TestDeterminism:
    def test_identical_inputs_identical_text(self):
        curves = [make_curve(), make_curve(CouplingMode.NON_MASS_PROPORTIONAL,
                                           2.4e-18)]
        refs = [ReferencePoint("GRW", 1e-16, 1e-7)]
        overlay = [(1e-8, 1e-11), (1e-4, 1e-7)]
        a = render_exclusion_svg(curves, references=refs, overlay=overlay,
                                 title="t")
        b = render_exclusion_svg(curves, references=refs, overlay=overlay,
                                 title="t")
        assert a == b

    def test_render_is_a_byte_stable_svg_document(self):
        text = render_exclusion_svg([make_curve()])
        assert text.encode("utf-8") == render_exclusion_svg([make_curve()]).encode("utf-8")
        assert text.startswith("<svg")


class TestValidation:
    def test_nothing_to_plot(self):
        with pytest.raises(ValidationError, match="nothing"):
            render_exclusion_svg([])

    def test_reference_only_plot_allowed(self):
        text = render_exclusion_svg([], references=[
            ReferencePoint("GRW", 1e-16, 1e-7)])
        assert len(by_class(text, "marker")) == 1
