"""Exclusion-curve construction, scaling structure and curve/overlay CSV."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spontrad.constants import CouplingMode
from spontrad.errors import SpectrumFormatError, ValidationError
from spontrad.scan import (CURVE_CSV_HEADER, ExclusionCurve, OVERLAY_CSV_HEADER,
                           ReferencePoint, builtin_reference_points, load_curves,
                           load_overlay_boundary, log_grid, save_curves, scan)

MASS = CouplingMode.MASS_PROPORTIONAL
ELECTRON = CouplingMode.NON_MASS_PROPORTIONAL


class TestLogGrid:
    def test_endpoints_exact(self):
        grid = log_grid(1e-9, 1e-3, 200)
        assert grid[0] == 1e-9
        assert grid[-1] == 1e-3
        assert len(grid) == 200

    def test_log_spacing_uniform(self):
        grid = log_grid(1e-8, 1e-4, 50)
        steps = [math.log(b) - math.log(a) for a, b in zip(grid, grid[1:])]
        assert max(steps) - min(steps) < 1e-12

    def test_single_point(self):
        assert log_grid(1e-7, 1e-7, 1) == [1e-7]

    def test_validation(self):
        with pytest.raises(ValidationError):
            log_grid(0.0, 1e-3, 5)
        with pytest.raises(ValidationError):
            log_grid(1e-3, 1e-9, 5)
        with pytest.raises(ValidationError):
            log_grid(1e-9, 1e-3, 0)
        with pytest.raises(ValidationError):
            log_grid(1e-8, 1e-7, 1)


class TestScan:
    def test_power_law_values(self):
        curve = scan(8.1e-12, 1e-7, [1e-7], MASS, "chi2", 0.95)
        assert curve.points == ((1e-7, 8.1e-12),)

    def test_two_decade_shift(self):
        curve = scan(8.1e-12, 1e-7, [1e-6], MASS, "chi2", 0.95)
        assert curve.points[0][1] == pytest.approx(8.1e-10, rel=1e-12)
        curve = scan(2.0e-18, 1e-7, [1e-8], ELECTRON, "bayes", 0.95)
        assert curve.points[0][1] == pytest.approx(2.0e-20, rel=1e-12)

    def test_single_point_grid_is_identity(self):
        # r/r_ref evaluates to exactly one, so the reference value passes
        # through bit-for-bit.
        lam_ref = 7.006202483028229e-12
        curve = scan(lam_ref, 1e-7, [1e-7], MASS, "bayes", 0.95)
        assert curve.points[0] == (1e-7, lam_ref)

    def test_log_log_slope_is_two(self):
        curve = scan(8.1e-12, 1e-7, log_grid(1e-9, 1e-3, 200), MASS, "chi2", 0.95)
        pts = curve.points
        for (r1, l1), (r2, l2) in zip(pts, pts[1:]):
            slope = (math.log(l2) - math.log(l1)) / (math.log(r2) - math.log(r1))
            assert slope == pytest.approx(2.0, abs=1e-12)

    def test_coupling_curves_parallel_with_mass_offset(self):
        grid = log_grid(1e-9, 1e-3, 40)
        ratio = (938.27208816 / 0.51099895) ** 2
        lam_p = 8.097029465934479e-12
        lam_e = lam_p / ratio
        curve_p = scan(lam_p, 1e-7, grid, MASS, "chi2", 0.95)
        curve_e = scan(lam_e, 1e-7, grid, ELECTRON, "chi2", 0.95)
        expected_offset = math.log(ratio)
        for (_, lp), (_, le) in zip(curve_p.points, curve_e.points):
            assert math.log(lp) - math.log(le) == pytest.approx(expected_offset,
                                                                abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(lam_ref=st.floats(min_value=1e-20, max_value=1e-6, allow_nan=False),
           r_ref=st.floats(min_value=1e-9, max_value=1e-3, allow_nan=False))
    def test_slope_property(self, lam_ref, r_ref):
        grid = log_grid(1e-9, 1e-3, 17)
        curve = scan(lam_ref, r_ref, grid, MASS, "bayes", 0.9)
        pts = curve.points
        for (r1, l1), (r2, l2) in zip(pts, pts[1:]):
            slope = (math.log(l2) - math.log(l1)) / (math.log(r2) - math.log(r1))
            assert slope == pytest.approx(2.0, abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            scan(1e-12, 1e-7, [], MASS, "chi2", 0.95)
        with pytest.raises(ValidationError):
            scan(1e-12, 1e-7, [1e-7, 1e-8], MASS, "chi2", 0.95)
        with pytest.raises(ValidationError):
            scan(1e-12, 1e-7, [-1e-7], MASS, "chi2", 0.95)
        with pytest.raises(ValidationError):
            scan(-1e-12, 1e-7, [1e-7], MASS, "chi2", 0.95)


class TestExclusionCurve:
    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):
            ExclusionCurve(coupling=MASS, points=((1e-7, 1e-12), (1e-8, 1e-14)),
                           method="chi2", confidence=0.95)
        with pytest.raises(ValidationError):
            ExclusionCurve(coupling=MASS, points=((1e-7, -1e-12),),
                           method="chi2", confidence=0.95)
        with pytest.raises(ValidationError):
            ExclusionCurve(coupling=MASS, points=((1e-7, 1e-12),),
                           method="mcmc", confidence=0.95)
        with pytest.raises(ValidationError):
            ExclusionCurve(coupling=MASS, points=(), method="chi2", confidence=0.95)


class TestReferencePoints:
    def test_builtin_families(self):
        points = builtin_reference_points()
        labels = {p.label for p in points}
        assert labels == {"GRW", "Adler"}
        assert ReferencePoint("GRW", 1e-16, 1e-7) in points
        assert ReferencePoint("Adler", 1e-8, 1e-7) in points
        adler = sorted(p.lam for p in points if p.label == "Adler")
        assert adler == [1e-10, 1e-8, 1e-6]

    def test_positive_required(self):
        with pytest.raises(ValidationError):
            ReferencePoint("x", 0.0, 1e-7)
        with pytest.raises(ValidationError):
            ReferencePoint("x", 1e-16, -1e-7)


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        curves = [
            scan(8.1e-12, 1e-7, log_grid(1e-9, 1e-3, 25), MASS, "chi2", 0.95),
            scan(2.4e-18, 1e-7, log_grid(1e-9, 1e-3, 25), ELECTRON, "chi2", 0.95),
        ]
        path = tmp_path / "curves.csv"
        save_curves(curves, path)
        loaded = load_curves(path)
        assert loaded == curves

    def test_header_written(self, tmp_path):
        path = tmp_path / "curves.csv"
        save_curves([scan(1e-12, 1e-7, [1e-7], MASS, "bayes", 0.95)], path)
        assert path.read_text().splitlines()[0] == CURVE_CSV_HEADER

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text("r,l\n1e-7,1e-12\n")
        with pytest.raises(SpectrumFormatError):
            load_curves(path)


class TestOverlay:
    def test_two_point_polyline(self, tmp_path):
        path = tmp_path / "overlay.csv"
        path.write_text(f"{OVERLAY_CSV_HEADER}\n1e-7,1e-9\n1e-6,1e-10\n")
        assert load_overlay_boundary(path) == [(1e-7, 1e-9), (1e-6, 1e-10)]

    def test_unsorted_rejected(self, tmp_path):
        path = tmp_path / "overlay.csv"
        path.write_text(f"{OVERLAY_CSV_HEADER}\n1e-6,1e-10\n1e-7,1e-9\n")
        with pytest.raises(ValidationError):
            load_overlay_boundary(path)

    def test_empty_file_is_empty_overlay(self, tmp_path):
        path = tmp_path / "overlay.csv"
        path.write_text("")
        assert load_overlay_boundary(path) == []

    def test_header_only_is_empty_overlay(self, tmp_path):
        path = tmp_path / "overlay.csv"
        path.write_text(f"{OVERLAY_CSV_HEADER}\n")
        assert load_overlay_boundary(path) == []

    def test_nonpositive_rejected(self, tmp_path):
        path = tmp_path / "overlay.csv"
        path.write_text(f"{OVERLAY_CSV_HEADER}\n1e-7,0.0\n")
        with pytest.raises(ValidationError):
            load_overlay_boundary(path)


def _csv(tmp_path, text):
    """Write text byte for byte (no newline translation) to a fresh file."""
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def _expect(path, exc_type, message, load):
    with pytest.raises(ValidationError) as info:
        load(path)
    assert type(info.value) is exc_type
    assert str(info.value) == message.replace("{path}", str(path))


C = CURVE_CSV_HEADER
ROW = "1e-07,1e-12,mass-prop,chi2,0.95"

# (id, file text, exact exception type, exact message with {path} for the file)
CURVE_ERRORS = [
    ("wrong-header", "r,l\n1e-7,1e-12\n", SpectrumFormatError,
     "{path}:1: expected header "
     "'r_c_m,lambda_limit_s_inv,coupling,method,confidence', got 'r,l'"),
    ("empty-file", "", SpectrumFormatError,
     "{path}: missing header line 'r_c_m,lambda_limit_s_inv,coupling,method,confidence'"),
    ("comments-only", "# curves\n\n", SpectrumFormatError,
     "{path}: missing header line 'r_c_m,lambda_limit_s_inv,coupling,method,confidence'"),
    ("too-few-fields", f"{C}\n1e-07,1e-12,mass-prop,chi2\n", SpectrumFormatError,
     "{path}:2: expected 5 fields, got 4"),
    ("non-number", f"# c\n{C}\n\n1e-07,x,mass-prop,chi2,0.95\n", SpectrumFormatError,
     "{path}:4: could not convert string to float: 'x'"),
    ("unknown-coupling", f"{C}\n1e-07,1e-12,proton,chi2,0.95\n", SpectrumFormatError,
     "{path}:2: unknown coupling 'proton'; expected one of ['mass-prop', 'non-mass-prop']"),
    ("unknown-method", f"{C}\n1e-07,1e-12,mass-prop,freq,0.95\n", ValidationError,
     "method must be one of ('chi2', 'bayes'), got 'freq'"),
    ("confidence-out-of-range", f"{C}\n1e-07,1e-12,mass-prop,chi2,1.5\n", ValidationError,
     "confidence must be in (0, 1), got 1.5"),
    ("not-ascending", f"{C}\n1e-06,1e-12,mass-prop,chi2,0.95\n{ROW}\n", ValidationError,
     "curve points not ascending in r_c at index 1: 1e-07"),
    # Two faults.  A curve is checked when its group of rows ends: at the
    # first row of the next group, or at the end of the file.
    ("group-fault-before-later-format", f"{C}\n1e-07,1e-12,mass-prop,freq,0.95\n"
     f"{ROW}\n1e-06,1e-12,mass-prop,chi2\n", ValidationError,
     "method must be one of ('chi2', 'bayes'), got 'freq'"),
    ("format-inside-open-group", f"{C}\n1e-07,1e-12,mass-prop,freq,0.95\n"
     "1e-06,1e-12,mass-prop,freq\n", SpectrumFormatError,
     "{path}:3: expected 5 fields, got 4"),
    ("field-count-before-coupling", f"{C}\n1e-07,1e-12\n1e-06,1e-12,proton,chi2,0.95\n",
     SpectrumFormatError, "{path}:2: expected 5 fields, got 2"),
]


@pytest.mark.parametrize("text,exc_type,message", [case[1:] for case in CURVE_ERRORS],
                         ids=[case[0] for case in CURVE_ERRORS])
def test_load_curves_error_messages(tmp_path, text, exc_type, message):
    _expect(_csv(tmp_path, text), exc_type, message, load_curves)


@pytest.mark.parametrize("text,groups", [
    (f"{C}\n", []),
    (f"\n# a\n{C}\n\n{ROW}\n# between\n  \n1e-06,1e-10,mass-prop,chi2,0.95\n"
     "1e-07,1e-18,non-mass-prop,chi2,0.95\n# trailing",
     [(MASS, ((1e-7, 1e-12), (1e-6, 1e-10))), (ELECTRON, ((1e-7, 1e-18),))]),
    (f"{C}\r\n{ROW}\r\n", [(MASS, ((1e-7, 1e-12),))]),
], ids=["header-only", "comments-and-blanks-around-rows", "crlf"])
def test_load_curves_accepts(tmp_path, text, groups):
    curves = load_curves(_csv(tmp_path, text))
    assert [(c.coupling, c.points) for c in curves] == groups
    assert all((c.method, c.confidence) == ("chi2", 0.95) for c in curves)


O = OVERLAY_CSV_HEADER

OVERLAY_ERRORS = [
    ("wrong-header", "r_c_m,lambda\n1e-7,1e-9\n", SpectrumFormatError,
     "{path}:1: expected header 'r_c_m,lambda_s_inv', got 'r_c_m,lambda'"),
    ("row-before-header", "# b\n1e-7,1e-9\n", SpectrumFormatError,
     "{path}:2: expected header 'r_c_m,lambda_s_inv', got '1e-7,1e-9'"),
    ("too-many-fields", f"{O}\n1e-7,1e-9,3\n", SpectrumFormatError,
     "{path}:2: expected 2 fields, got 3"),
    ("non-number", f"{O}\n1e-7,abc\n", SpectrumFormatError,
     "{path}:2: could not convert string to float: 'abc'"),
    ("zero-value", f"{O}\n\n# c\n1e-7,0.0\n", ValidationError,
     "{path}:4: overlay values must be positive"),
    ("negative-r", f"{O}\n-1e-7,1e-9\n", ValidationError,
     "{path}:2: overlay values must be positive"),
    ("unsorted", f"{O}\n1e-6,1e-10\n1e-7,1e-9\n", ValidationError,
     "{path}:3: overlay rows not ascending in r_c"),
    ("repeated-r", f"{O}\n1e-7,1e-10\n1e-7,1e-9\n", ValidationError,
     "{path}:3: overlay rows not ascending in r_c"),
    # Two faults: each row is checked as it is read, so the first in file
    # order wins.
    ("nonpositive-before-field-count", f"{O}\n1e-7,-1\n1e-6\n", ValidationError,
     "{path}:2: overlay values must be positive"),
    ("unsorted-before-non-number", f"{O}\n1e-6,1e-10\n1e-7,1e-9\n1e-5,x\n", ValidationError,
     "{path}:3: overlay rows not ascending in r_c"),
    ("field-count-before-nonpositive", f"{O}\n1e-7\n1e-6,0\n", SpectrumFormatError,
     "{path}:2: expected 2 fields, got 1"),
]


@pytest.mark.parametrize("text,exc_type,message", [case[1:] for case in OVERLAY_ERRORS],
                         ids=[case[0] for case in OVERLAY_ERRORS])
def test_load_overlay_error_messages(tmp_path, text, exc_type, message):
    _expect(_csv(tmp_path, text), exc_type, message, load_overlay_boundary)


@pytest.mark.parametrize("text,points", [
    ("", []),
    ("# only a note\n\n", []),
    (f"{O}\n", []),
    (f"\n# a\n{O}\n1e-7,1e-9\n\n# b\n1e-6,1e-10\n# trailing", [(1e-7, 1e-9), (1e-6, 1e-10)]),
    (f"{O}\r\n1e-7,1e-9\r\n", [(1e-7, 1e-9)]),
], ids=["empty-file", "comments-only", "header-only", "comments-and-blanks-around-rows",
        "crlf"])
def test_load_overlay_accepts(tmp_path, text, points):
    assert load_overlay_boundary(_csv(tmp_path, text)) == points


@pytest.mark.parametrize("load,header", [(load_curves, C), (load_overlay_boundary, O)],
                         ids=["curves", "overlay"])
def test_non_utf8_file_is_a_format_error(tmp_path, load, header):
    path = tmp_path / "f.csv"
    path.write_bytes(header.encode() + b"\n\xff\n")
    _expect(path, SpectrumFormatError,
            "{path}: 'utf-8' codec can't decode byte 0xff in position "
            f"{len(header) + 1}: invalid start byte", load)
