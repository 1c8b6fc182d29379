"""End-to-end CLI behavior: outputs, schemas, exit codes, artifacts."""

import errno
import hashlib
import json
import math
import os
import stat
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import special

import spontrad.cli
import spontrad.spectrum
import spontrad.synth
from spontrad.constants import IGEX_EXPOSURE, ExposureConfig
from spontrad.errors import NumericalError
from spontrad.scan import load_curves
from spontrad.spectrum import MAX_GRID_POINTS, MAX_TRIALS

BAYES_LAMBDA_MP = 7.006202483028229e-12
CHI2_LAMBDA_MP = 8.097029465934479e-12
CHI2_LAMBDA_NMP = 2.401641287497066e-18
DATA = Path(resources.files("spontrad")) / "data"


class TestFit:
    def test_exact_two_point_spectrum(self, run_cli, data_dir, schemas):
        r = run_cli("fit", "--input", data_dir / "two_point_exact.csv",
                    "--emin", 9.5, "--emax", 20.5)
        assert r.code == 0
        jsonschema.validate(r.json, schemas["fit_result"])
        assert r.json["alpha_hat"] == pytest.approx(100.0, rel=1e-12)
        assert r.json["ndf"] == 1
        assert r.json["chi2"] == pytest.approx(0.0, abs=1e-20)
        assert r.json["confidence"] == 0.95

    def test_upper_limit_uses_requested_level(self, run_cli, data_dir):
        tight = run_cli("fit", "--input", data_dir / "two_point_exact.csv",
                        "--emin", 9.5, "--emax", 20.5, "--cl", 0.68).json
        loose = run_cli("fit", "--input", data_dir / "two_point_exact.csv",
                        "--emin", 9.5, "--emax", 20.5, "--cl", 0.999).json
        assert tight["alpha_upper"] < loose["alpha_upper"]

    def test_min_counts_changes_selection(self, run_cli, data_dir):
        both = run_cli("fit", "--input", data_dir / "two_point_exact.csv",
                       "--emin", 9.5, "--emax", 20.5, "--min-counts", 1).json
        assert both["ndf"] == 1
        # Raising the threshold to 6 leaves one bin: too few to fit.
        r = run_cli("fit", "--input", data_dir / "two_point_exact.csv",
                    "--emin", 9.5, "--emax", 20.5, "--min-counts", 6)
        assert r.code == 2

    def test_fixture_fit_matches_frozen_numbers(self, run_cli, data_dir):
        r = run_cli("fit", "--input", data_dir / "synth_igex_like.csv").json
        assert r["alpha_hat"] == pytest.approx(147.98760795936903, rel=1e-12)
        assert r["sigma_alpha"] == pytest.approx(15.135433084733245, rel=1e-12)
        assert r["ndf"] == 14

    def test_out_file(self, run_cli, data_dir, tmp_path):
        out = tmp_path / "fit.json"
        r = run_cli("fit", "--input", data_dir / "two_point_exact.csv",
                    "--emin", 9.5, "--emax", 20.5, "--out", out)
        assert r.code == 0
        assert r.out == ""
        assert json.loads(out.read_text())["alpha_hat"] == pytest.approx(100.0)


class TestLimit:
    def test_bayes_total_counts_shortcut(self, run_cli, schemas):
        r = run_cli("limit", "--method", "bayes", "--y-total", 130,
                    "--bins", "15:48:1")
        assert r.code == 0
        jsonschema.validate(r.json, schemas["limit_result"])
        assert r.json["method"] == "bayes"
        assert r.json["y_total"] == 130
        assert r.json["harmonic_sum"] == pytest.approx(1.2072348485017923,
                                                       rel=1e-12)
        assert r.json["lambda_upper_s_inv"] == pytest.approx(BAYES_LAMBDA_MP,
                                                             rel=1e-12)

    def test_bayes_spectrum_file_matches_shortcut(self, run_cli, data_dir):
        from_file = run_cli("limit", "--method", "bayes",
                            "--input", data_dir / "paper_totals.csv").json
        shortcut = run_cli("limit", "--method", "bayes", "--y-total", 130,
                           "--bins", "15:48:1").json
        assert from_file == shortcut

    def test_chi2_alpha_shortcut(self, run_cli, schemas):
        r = run_cli("limit", "--method", "chi2", "--alpha-upper", 143)
        assert r.code == 0
        jsonschema.validate(r.json, schemas["limit_result"])
        assert r.json["method"] == "chi2"
        assert r.json["alpha_upper"] == 143.0
        assert r.json["lambda_upper_s_inv"] == pytest.approx(CHI2_LAMBDA_MP,
                                                             rel=1e-12)

    def test_coupling_flag(self, run_cli):
        nmp = run_cli("limit", "--method", "chi2", "--alpha-upper", 143,
                      "--coupling", "non-mass-prop").json
        assert nmp["coupling"] == "non-mass-prop"
        assert nmp["lambda_upper_s_inv"] == pytest.approx(CHI2_LAMBDA_NMP,
                                                          rel=1e-12)

    def test_r_c_scaling(self, run_cli):
        base = run_cli("limit", "--method", "bayes", "--y-total", 130,
                       "--bins", "15:48:1").json
        wide = run_cli("limit", "--method", "bayes", "--y-total", 130,
                       "--bins", "15:48:1", "--r-c", 1e-6).json
        assert wide["lambda_upper_s_inv"] == pytest.approx(
            100.0 * base["lambda_upper_s_inv"], rel=1e-9)

    def test_chi2_from_spectrum_file(self, run_cli, data_dir):
        r = run_cli("limit", "--method", "chi2",
                    "--input", data_dir / "synth_igex_like.csv").json
        fit = run_cli("fit", "--input", data_dir / "synth_igex_like.csv").json
        assert r["alpha_upper"] == pytest.approx(fit["alpha_upper"], rel=1e-12)

    def test_routes_agree_on_high_statistics(self, run_cli, tmp_path):
        # With thousands of counts the Gaussian bound and the credible bound
        # must land close; a quarter band is a loose sanity corridor.
        spec = tmp_path / "bright.csv"
        assert run_cli("synth", "--alpha", 5000, "--seed", 7,
                       "--out", spec).code == 0
        chi2 = run_cli("limit", "--method", "chi2", "--input", spec).json
        bayes = run_cli("limit", "--method", "bayes", "--input", spec).json
        ratio = chi2["lambda_upper_s_inv"] / bayes["lambda_upper_s_inv"]
        assert 0.75 < ratio < 1.25

    @pytest.mark.parametrize("flag,value,scale", [
        ("--atoms-per-kg", 4.145e24, 2.0),
        ("--exposure-kg-day", 40, 2.0),
        ("--electrons-per-atom", 4, 30.0 / 4.0),
    ])
    def test_exposure_flag_rescales_limit(self, run_cli, flag, value, scale):
        # The limit is inversely proportional to each exposure factor.
        base = run_cli(*LIMIT_SHORTCUT).json
        scaled = run_cli(*LIMIT_SHORTCUT, flag, value).json
        assert scaled["lambda_upper_s_inv"] == pytest.approx(
            base["lambda_upper_s_inv"] * scale, rel=1e-12)

    def test_exposure_flags_default_to_the_igex_exposure(self, run_cli):
        r = run_cli(*LIMIT_SHORTCUT, "--atoms-per-kg", IGEX_EXPOSURE.atoms_per_kg,
                    "--exposure-kg-day", IGEX_EXPOSURE.exposure_kg_day,
                    "--electrons-per-atom", IGEX_EXPOSURE.electrons_per_atom)
        assert r.json == run_cli(*LIMIT_SHORTCUT).json
        assert r.json["lambda_upper_s_inv"] == BAYES_LAMBDA_MP

    @pytest.mark.parametrize("argv", [["limit"], ["scan", "--out", "curves.csv"]],
                             ids=["limit", "scan"])
    def test_each_exposure_field_has_a_flag_defaulting_to_igex(self, argv):
        args = spontrad.cli.build_parser().parse_args(argv)
        fields = ExposureConfig.__slots__
        assert [getattr(args, f) for f in fields] == [getattr(IGEX_EXPOSURE, f) for f in fields]

    def test_non_positive_exposure_flag_exits_2(self, run_cli):
        r = run_cli(*LIMIT_SHORTCUT, "--electrons-per-atom", -4)
        assert (r.code, r.out) == (2, "")
        assert r.error["error"]["message"] == (
            "electrons_per_atom must be positive and finite, got -4.0")


BOM = "\ufeff"
SPECTRUM = "center_keV,width_keV,counts\n15.0,1.0,3\n16.0,1.0,5\n17.0,1.0,4\n"
# Centers where counts * E^2 underflows to 0.
TINY_SPECTRUM = "center_keV,width_keV,counts\n1e-300,1e-300,6\n2e-300,1e-300,7\n"
TINY_MESSAGE = ("bin at 1e-300 keV with 6 counts: its fit weight 1/(counts * E^2) "
                "is beyond the float range")
LIMIT_SHORTCUT = ("limit", "--y-total", 130, "--bins", "15:48:1")
COLLAPSED = "bins out of order: center 1e+16 keV after 1e+16 keV"
MINUS_ZERO = "bin [-0.0 +- 0.5] keV extends to non-positive energy"
# Two bins exactly one width apart, each wider than half the largest float.
HUGE_WIDTHS = "center_keV,width_keV,counts\n5e307,9e307,1\n1.4e308,9e307,2\n"
TINY_CL = ("--cl", 1e-320)
# An integer past the float range: 10**400 has 1329 bits, 2**1024 is the limit.
HUGE = 10 ** 400
HUGE_SPECTRUM = f"center_keV,width_keV,counts\n15.0,1.0,3\n16.0,1.0,{HUGE}\n17.0,1.0,4\n"
HUGE_MESSAGE = "{tmp}/in.csv:3: count of 1329 bits is beyond the float range"

# (id, input files written to tmp, argv with {tmp}, exit code, message of a failure)
EDGE_CASES = [
    ("bom-spectrum", {"in.csv": BOM + SPECTRUM}, ("limit", "--input", "{tmp}/in.csv"), 0, None),
    ("bom-overlay", {"in.csv": BOM + "r_c_m,lambda_s_inv\n1e-8,1e-12\n"},
     ("scan", "--method", "chi2", "--alpha-upper", 143, "--grid", "1e-9:1e-3:5",
      "--svg", "{tmp}/p.svg", "--overlay", "{tmp}/in.csv"), 0, None),
    ("cl-1e-320-coverage-bayes", {},
     ("coverage", "--method", "bayes", "--alpha", 115, "--trials", 10, *TINY_CL), 0, None),
    ("cl-1e-320-coverage-chi2", {},
     ("coverage", "--method", "chi2", "--alpha", 115, "--trials", 10, *TINY_CL), 0, None),
    ("cl-1e-320-fit", {"in.csv": SPECTRUM},
     ("fit", "--input", "{tmp}/in.csv", "--min-counts", 0, *TINY_CL), 0, None),
    ("cl-1e-320-limit-chi2", {"in.csv": SPECTRUM},
     ("limit", "--method", "chi2", "--input", "{tmp}/in.csv", "--min-counts", 0, *TINY_CL),
     2, "alpha_upper -624.1709290147433 from the fit at --cl 1e-320 must be >= 0; "
     "give a higher --cl"),
    ("cl-near-1-limit-bayes", {}, ("limit", "--y-total", 0, "--bins", "15:48:1",
                                   "--cl", 0.9999999999999999),
     2, "confidence 0.9999999999999999 is too close to 1 for y_total 0: "
     "its posterior quantile level rounds to 1.0"),
    ("huge-y-total", {}, ("limit", "--y-total", HUGE, "--bins", "15:48:1"),
     2, "y_total of 1329 bits is beyond the float range"),
    ("huge-widths-bins", {}, ("limit", "--y-total", 10, "--bins", "5e307:1.4e308:9e307"),
     0, None),
    ("huge-widths-spectrum", {"in.csv": HUGE_WIDTHS},
     ("limit", "--input", "{tmp}/in.csv", "--emax", 1.7e308), 0, None),
    ("huge-counts-fit", {"in.csv": HUGE_SPECTRUM},
     ("fit", "--input", "{tmp}/in.csv", "--min-counts", 0), 2, HUGE_MESSAGE),
    ("huge-counts-limit-chi2", {"in.csv": HUGE_SPECTRUM},
     ("limit", "--method", "chi2", "--input", "{tmp}/in.csv", "--min-counts", 0),
     2, HUGE_MESSAGE),
    ("huge-counts-limit-bayes", {"in.csv": HUGE_SPECTRUM},
     ("limit", "--method", "bayes", "--input", "{tmp}/in.csv"), 2, HUGE_MESSAGE),
    ("tiny-centers-fit", {"in.csv": TINY_SPECTRUM},
     ("fit", "--input", "{tmp}/in.csv", "--emin", 0), 2, TINY_MESSAGE),
    ("tiny-centers-limit-chi2", {"in.csv": TINY_SPECTRUM},
     ("limit", "--method", "chi2", "--input", "{tmp}/in.csv", "--emin", 0), 2, TINY_MESSAGE),
]


# None leaves the flag at its default.
EXPOSURE_VALUES = (None, "1", "1e-300", "1e300", "5e-324", "1.7e308", "0", "-0.0", "-1", "inf")
EXPOSURE_COMMANDS = {
    "limit-bayes": LIMIT_SHORTCUT,
    "limit-chi2": ("limit", "--method", "chi2", "--alpha-upper", 143),
    "scan-bayes": ("scan", *LIMIT_SHORTCUT[1:], "--grid", "1e-9:1e-3:5"),
    "scan-chi2": ("scan", "--method", "chi2", "--alpha-upper", 143, "--grid", "1e-9:1e-3:5"),
}


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"{name} in JSON output")
    return json.loads(text, parse_constant=refuse)


class TestExposureFlags:
    # run_cli keeps no state between calls, and each example writes to a
    # fresh directory, so sharing the fixtures across examples is safe.
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(sorted(EXPOSURE_COMMANDS)),
           values=st.lists(st.sampled_from(EXPOSURE_VALUES), min_size=3, max_size=3))
    @example(command="limit-bayes", values=[None, "5e-324", None])  # exit 4
    @example(command="scan-chi2", values=["1", "1e-300", "1e300"])  # exit 0
    def test_any_exposure_exits_0_2_or_4(self, run_cli, schemas, tmp_path_factory, command,
                                         values):
        tmp = tmp_path_factory.mktemp("exposure")
        out = tmp / "out"
        names = ("atoms-per-kg", "exposure-kg-day", "electrons-per-atom")
        flags = [f"--{name}={value}" for name, value in zip(names, values)
                 if value is not None]
        r = run_cli(*EXPOSURE_COMMANDS[command], *flags, "--out", out)
        assert r.code in (0, 2, 4)
        assert r.out == ""
        if r.code:
            jsonschema.validate(strict_json(r.err), schemas["error"])
            assert list(tmp.iterdir()) == []
        elif command.startswith("limit"):
            jsonschema.validate(strict_json(out.read_text()), schemas["limit_result"])
        else:
            assert len(load_curves(out)) == 2


    def test_limit_and_scan_agree_on_an_overflowing_rate(self, run_cli, tmp_path):
        # The exposure is so small that the rate overflows to inf.
        argv = (*LIMIT_SHORTCUT[1:], "--exposure-kg-day", "5e-324")
        limit = run_cli("limit", *argv)
        scan = run_cli("scan", *argv, "--grid", "1e-9:1e-3:5", "--out", tmp_path / "c.csv")
        assert (scan.code, scan.out, scan.err) == (limit.code, limit.out, limit.err)
        assert limit.code == 4
        assert limit.error["error"]["message"] == (
            "result out of the float range: lambda_upper_s_inv")
        assert list(tmp_path.iterdir()) == []

    def test_both_routes_report_an_underflowing_exposure_alike(self, run_cli):
        tiny = ("--atoms-per-kg", "1e-200", "--exposure-kg-day", "1e-200",
                "--electrons-per-atom", "1e-200")
        chi2 = run_cli("limit", "--method", "chi2", "--alpha-upper", 143, *tiny)
        bayes = run_cli(*LIMIT_SHORTCUT, *tiny)
        assert (chi2.code, chi2.err) == (bayes.code, bayes.err)
        assert chi2.error["error"] == {
            "type": "validation", "message": "conversion must be positive and finite, got 0.0"}


class TestInputCaps:
    """Input files are bounded in bytes and spectrum rows, each a validation
    error checked before the work it guards; the caps are made small here."""

    def test_file_past_the_byte_cap_exits_2_unread(self, run_cli, schemas, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(spontrad.spectrum, "MAX_INPUT_BYTES", 1000)
        path = tmp_path / "in.csv"
        path.write_text("center_keV,width_keV,counts\n" + "#" * 2 ** 22 + "\n")
        tracemalloc.start()
        try:
            r = run_cli("fit", "--input", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (r.code, r.out) == (2, "")
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"] == {
            "type": "validation",
            "message": f"{path}: input exceeds the limit of 1000 bytes"}
        assert peak < 2 ** 20

    def test_file_at_the_byte_cap_is_read(self, tmp_path, monkeypatch):
        text = "center_keV,width_keV,counts\n15.0,1.0,3\n"
        monkeypatch.setattr(spontrad.spectrum, "MAX_INPUT_BYTES", len(text))
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert spontrad.spectrum.load_spectrum(path).bins[0].counts == 3

    @pytest.mark.parametrize("rows,code", [(100, 0), (101, 2), (50_000, 2)])
    def test_rows_past_the_cap_exit_2_before_their_bins(self, run_cli, schemas, tmp_path,
                                                        monkeypatch, rows, code):
        monkeypatch.setattr(spontrad.spectrum, "MAX_SPECTRUM_ROWS", 100)
        monkeypatch.setattr(spontrad.spectrum, "MAX_INPUT_BYTES", 2 ** 20)
        built = []
        energy_bin = spontrad.spectrum.EnergyBin
        monkeypatch.setattr(spontrad.spectrum, "EnergyBin",
                            lambda **fields: built.append(1) or energy_bin(**fields))
        path = tmp_path / "in.csv"
        path.write_text("# comment\ncenter_keV,width_keV,counts\n"
                        + "".join(f"{15 + i},1,3\n" for i in range(rows)))
        tracemalloc.start()
        try:
            r = run_cli("limit", "--input", path, "--emax", 1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.code == code
        assert len(built) == 100
        if code:
            jsonschema.validate(r.error, schemas["error"])
            assert r.error["error"] == {
                "type": "validation",
                "message": f"{path}:103: spectrum exceeds the limit of 100 rows"}
        # 50,000 rows peaked at 3.9 MB here (the bytes, the text and its
        # lines); building all their bins peaked at 11 MB.
        assert peak < 6 * 2 ** 20


class TestLargeCounts:
    """Totals past the power series' reach take the asymptotic kernels."""

    @pytest.mark.parametrize("y", [100_000, 1_000_000_000])
    def test_bayes_limit_agrees_with_scipy(self, run_cli, schemas, y):
        r = run_cli("limit", "--method", "bayes", "--y-total", y, "--bins", "15:48:1")
        assert r.code == 0
        jsonschema.validate(r.json, schemas["limit_result"])
        # The limit is (cap - 1) times a factor of the grid and coupling, which
        # the y = 130 anchor fixes; P(y + 1, 1) is 0 at both totals, so cap is
        # the plain gamma quantile at --cl.
        def cap(total):
            return special.gammaincinv(total + 1.0, 0.95)

        want = BAYES_LAMBDA_MP * (cap(y) - 1.0) / (cap(130) - 1.0)
        assert r.json["lambda_upper_s_inv"] == pytest.approx(want, rel=1e-9)

    def test_bayes_coverage_study_runs(self, run_cli, schemas):
        r = run_cli("coverage", "--method", "bayes", "--alpha", "1e7", "--trials", 10)
        assert r.code == 0
        jsonschema.validate(r.json, schemas["coverage_report"])
        assert r.json["trials"] == 10


class TestExitCodes:
    def test_validation_errors_exit_2(self, run_cli, schemas):
        cases = [
            ("limit", "--method", "chi2", "--y-total", 130,
             "--bins", "15:48:1", "--alpha-upper", 1.0),
            ("limit", "--method", "bayes", "--alpha-upper", 1.0,
             "--y-total", 130, "--bins", "15:48:1"),
            ("limit", "--method", "bayes", "--y-total", 130),
            ("limit", "--method", "bayes"),
            ("limit", "--method", "chi2"),
            ("limit", "--method", "bayes", "--y-total", 130,
             "--bins", "48:15:1"),
            ("limit", "--method", "chi2", "--alpha-upper", -1.0),
        ]
        for argv in cases:
            r = run_cli(*argv)
            assert r.code == 2, argv
            assert r.out == ""
            jsonschema.validate(r.error, schemas["error"])
            assert r.error["error"]["type"] == "validation"

    @pytest.mark.parametrize("command", ["limit", "scan"])
    @pytest.mark.parametrize("route", [
        ("--method", "bayes", "--input", "{data}/synth_igex_like.csv"),
        ("--method", "chi2", "--input", "{data}/synth_igex_like.csv"),
        ("--method", "chi2", "--alpha-upper", 143),
        ("--method", "bayes"),
    ], ids=["bayes-input", "chi2-input", "chi2-alpha-upper", "bayes-no-input"])
    def test_bins_without_y_total_exits_2(self, run_cli, schemas, data_dir, tmp_path,
                                          command, route):
        # --bins is the grid of the --y-total shortcut.  A file brings its
        # own bins, and the chi2 route has no such shortcut, so --bins
        # anywhere else would be taken in place of the file or ignored.
        route = [str(a).format(data=data_dir) for a in route]
        out = tmp_path / "curves.csv"
        extra = ["--grid", "1e-9:1e-3:5", "--out", out] if command == "scan" else []
        r = run_cli(command, *route, "--bins", "15:48:1", *extra)
        assert r.code == 2
        assert r.out == ""
        jsonschema.validate(r.error, schemas["error"])
        assert r.error == {"error": {
            "type": "validation",
            "message": "--bins applies to --method bayes with --y-total only"}}
        assert not out.exists()
        if len(route) > 2:  # the route runs once --bins is dropped
            assert run_cli(command, *route, *extra).code == 0

    @pytest.mark.parametrize("command", ["limit", "scan"])
    @pytest.mark.parametrize("shortcut", [
        ("--y-total", 130, "--bins", "15:48:1"),
        ("--method", "chi2", "--alpha-upper", 143),
    ], ids=["y-total", "alpha-upper"])
    @pytest.mark.parametrize("flag,value", [
        ("--input", "{data}/synth_igex_like.csv"),
        ("--emin", 20),
        ("--emax", 40),
        ("--min-counts", 3),
    ], ids=["input", "emin", "emax", "min-counts"])
    def test_second_input_exits_2(self, run_cli, schemas, data_dir, tmp_path, command,
                                  shortcut, flag, value):
        # A shortcut is the run's input: a file, or a window to cut one,
        # would be parsed and then ignored.
        out = tmp_path / "out.csv"
        extra = ["--grid", "1e-9:1e-3:5"] if command == "scan" else []
        r = run_cli(command, *shortcut, flag, str(value).format(data=data_dir),
                    *extra, "--out", out)
        name = shortcut[0] if shortcut[0] == "--y-total" else shortcut[2]
        message = (f"--input and {name} are two inputs; give one" if flag == "--input"
                   else f"{flag} applies to --input only, not with {name}")
        assert (r.code, r.out) == (2, "")
        jsonschema.validate(r.error, schemas["error"])
        assert r.error == {"error": {"type": "validation", "message": message}}
        assert not out.exists()
        assert run_cli(command, *shortcut, *extra, "--out", out).code == 0

    def test_missing_file_exits_3(self, run_cli, tmp_path, schemas):
        r = run_cli("fit", "--input", tmp_path / "absent.csv")
        assert r.code == 3
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"]["type"] == "io"

    @pytest.mark.parametrize("mark,argv", [
        (mark, argv) for mark in ("", BOM) for argv in [
            ("fit", "--input", "{bad}"),
            ("limit", "--input", "{bad}"),
            ("scan", "--method", "chi2", "--alpha-upper", 143, "--grid", "1e-9:1e-3:5",
             "--out", "{tmp}/c.csv", "--svg", "{tmp}/p.svg", "--overlay", "{bad}"),
        ]], ids=[name + suffix for suffix in ("", "-after-mark")
                 for name in ("fit-input", "limit-input", "scan-overlay")])
    def test_non_utf8_file_exits_2(self, run_cli, schemas, tmp_path, mark, argv):
        # The position is the bad byte's offset in the file, a byte-order mark included.
        bad = tmp_path / "bad.csv"
        prefix = mark.encode("utf-8")
        bad.write_bytes(prefix + b"# \xff\n")
        argv = [str(a).format(bad=bad, tmp=tmp_path) for a in argv]
        r = run_cli(*argv)
        assert r.code == 2
        assert r.out == ""
        jsonschema.validate(r.error, schemas["error"])
        assert r.error == {"error": {"type": "validation", "message": (
            f"{bad}: 'utf-8' codec can't decode byte 0xff in position {len(prefix) + 2}: "
            "invalid start byte")}}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]

    @pytest.mark.parametrize("files,argv,code,message", [case[1:] for case in EDGE_CASES],
                             ids=[case[0] for case in EDGE_CASES])
    def test_edge_inputs_exit_0_or_2(self, run_cli, schemas, tmp_path, files, argv, code,
                                     message):
        # Files with a byte-order mark, a confidence
        # near the smallest float and bin centers whose fit weights underflow.
        for name, text in files.items():
            (tmp_path / name).write_bytes(text.encode("utf-8"))
        argv = [str(a).format(tmp=tmp_path) for a in (*argv, "--out", "{tmp}/out")]
        r = run_cli(*argv)
        assert (r.code, r.out) == (code, "")
        assert "Traceback" not in r.err
        if code:
            jsonschema.validate(r.error, schemas["error"])
            assert r.error == {"error": {"type": "validation",
                                         "message": message.format(tmp=tmp_path)}}
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
            return
        assert r.err == ""
        if any(text.startswith(BOM) for text in files.values()):
            # The same run on the files without their mark writes the same bytes.
            produced = (tmp_path / "out").read_bytes()
            for name, text in files.items():
                (tmp_path / name).write_text(text[len(BOM):], encoding="utf-8")
            assert run_cli(*argv).code == 0
            assert (tmp_path / "out").read_bytes() == produced

    @pytest.mark.parametrize("command", ["limit", "scan"])
    @pytest.mark.parametrize("cl", [2.0, 0.0, 1.0, -0.5])
    def test_chi2_shortcut_confidence_out_of_range_exits_2(self, run_cli, schemas,
                                                            tmp_path, command, cl):
        out = tmp_path / "out"
        r = run_cli(command, "--method", "chi2", "--alpha-upper", 143, "--cl", cl,
                    "--out", out)
        assert (r.code, r.out) == (2, "")
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"]["message"] == f"confidence must be in (0, 1), got {cl}"
        assert list(tmp_path.iterdir()) == []

    def test_numerical_failure_exits_4(self, run_cli, schemas, monkeypatch):
        def explode(spec, confidence):
            raise NumericalError("quantile inversion did not converge")

        monkeypatch.setattr(spontrad.cli, "lambda_credible_limit", explode)
        r = run_cli("limit", "--method", "bayes", "--y-total", 130,
                    "--bins", "15:48:1")
        assert r.code == 4
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"]["type"] == "numerical"

    @pytest.mark.parametrize("argv", [
        ("limit", "--method", "chi2", "--alpha-upper", "inf"),
        ("limit", "--method", "bayes", "--y-total", 130, "--bins", "15:48:1",
         "--r-c", "nan"),
        ("limit", "--method", "bayes", "--y-total", 130, "--bins", "15:inf:1"),
        ("coverage", "--alpha", "inf", "--trials", 3),
        ("fit", "--input", "absent.csv", "--emin=-inf"),
    ])
    def test_non_finite_inputs_exit_2(self, run_cli, schemas, argv):
        r = run_cli(*argv)
        assert r.code == 2
        assert r.out == ""
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"]["type"] == "validation"

    def test_non_finite_result_is_a_json_error(self, run_cli, schemas):
        # Finite inputs whose rate overflows: no Infinity reaches stdout.
        r = run_cli("limit", "--method", "chi2", "--alpha-upper", 1e308,
                    "--r-c", 1e100)
        assert r.code == 4
        assert r.out == ""
        jsonschema.validate(r.error, schemas["error"])
        assert "lambda_upper_s_inv" in r.error["error"]["message"]

    @pytest.mark.parametrize("argv", [
        # The means overflow the float range, or pass 2**52 where counts
        # stop being exact floats.
        ("coverage", "--alpha", 1e308, "--emin", 1, "--emax", 5,
         "--bin-width", 1.5, "--trials", 3),
        ("synth", "--alpha", 1e300),
        # A bin centered at zero energy.
        ("synth", "--alpha", 10, "--emin", 0, "--emax", 5),
        ("coverage", "--alpha", 10, "--emin", 0, "--emax", 5, "--trials", 3),
    ])
    def test_synthetic_grid_out_of_range_exits_2(self, run_cli, schemas, argv):
        r = run_cli(*argv)
        assert r.code == 2
        assert r.out == ""
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"]["type"] == "validation"

    @pytest.mark.parametrize("argv,message", [
        pytest.param(("limit", "--y-total", 10, "--bins", "1e16:1.0000000000000002e16:0.5"),
                     COLLAPSED, id="limit"),
        pytest.param(("scan", "--y-total", 10, "--bins", "1e16:1.0000000000000002e16:0.5",
                      "--grid", "1e-9:1e-3:5"), COLLAPSED, id="scan"),
        pytest.param(("synth", "--alpha", 10, "--emin", 1e16,
                      "--emax", 1.0000000000000002e16, "--bin-width", 0.5),
                     COLLAPSED, id="synth"),
        pytest.param(("coverage", "--alpha", 10, "--emin", 1e16,
                      "--emax", 1.0000000000000002e16, "--bin-width", 0.5, "--trials", 3),
                     COLLAPSED, id="coverage"),
        # The grid is checked before its means, which pass 2**52 here.
        pytest.param(("synth", "--alpha", 0, "--emin", 1e16, "--emax", 1.0000000000000002e16,
                      "--bin-width", 0.5, "--background", 1e16),
                     COLLAPSED, id="synth-mean-past-2**52"),
        # The lowest bin is checked at the lower edge as given, sign and all.
        pytest.param(("limit", "--y-total", 10, "--bins=-0:48:1"),
                     MINUS_ZERO, id="limit-minus-zero"),
        pytest.param(("coverage", "--alpha", 10, "--emin=-0", "--trials", 3),
                     MINUS_ZERO, id="coverage-minus-zero"),
    ])
    def test_collapsed_bin_grid_exits_2(self, run_cli, schemas, tmp_path, argv, message):
        # Steps of 0.5 keV at 1e16 keV round back onto the first center, so
        # every command rejects the grid as a spectrum file's bins; each
        # reports any bad grid with the one checked builder's message.
        out = tmp_path / "out"
        r = run_cli(*argv, "--out", out)
        assert (r.code, r.out) == (2, "")
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"] == {"type": "validation", "message": message}
        assert not out.exists()

    def test_a_grid_builds_at_most_one_bin(self, run_cli, monkeypatch):
        # A --bins or coverage grid is checked as centers: only its lowest
        # bin is built.
        built = []
        energy_bin_init = spontrad.spectrum.EnergyBin.__init__

        def counted_init(self, *args, **kwargs):
            built.append(1)
            energy_bin_init(self, *args, **kwargs)

        monkeypatch.setattr(spontrad.spectrum.EnergyBin, "__init__", counted_init)
        r = run_cli("limit", "--y-total", 10, "--bins", "1:100000:1")
        assert r.code == 0
        assert len(built) <= 1
        built.clear()
        config = spontrad.synth.SynthConfig(alpha_true=115, e_min=1, e_max=100000,
                                            bin_width=1)
        assert spontrad.synth.run_coverage(config, 3, "bayes", 0.95).trials == 3
        assert len(built) <= 1

    @pytest.mark.parametrize("command", ["synth", "coverage"])
    @pytest.mark.parametrize("seed,code", [(-1, 2), (0, 0), (2 ** 64 - 1, 0), (2 ** 64, 2)])
    def test_seed_outside_64_bits_exits_2(self, run_cli, schemas, command, seed, code):
        # The streams take the seed's low 64 bits: 2**64 would repeat seed 0.
        extra = ("--trials", 3) if command == "coverage" else ()
        r = run_cli(command, "--alpha", 115, "--seed", seed, *extra)
        assert r.code == code
        if code:
            assert r.out == ""
            jsonschema.validate(r.error, schemas["error"])
            assert r.error["error"] == {
                "type": "validation", "message": f"seed must be in [0, 2**64), got {seed}"}

    @pytest.mark.parametrize("route", [
        ("--method", "chi2", "--alpha-upper", 100),
        ("--method", "bayes", "--y-total", 130, "--bins", "15:48:1"),
    ])
    @pytest.mark.parametrize("r_c", [1e300, 1e-300])
    def test_conversion_out_of_float_range_exits_2(self, run_cli, schemas, route, r_c):
        # The coupling underflows to 0 at 1e300 m and overflows at 1e-300 m.
        r = run_cli("limit", *route, "--r-c", r_c)
        assert r.code == 2
        assert r.out == ""
        jsonschema.validate(r.error, schemas["error"])
        assert "conversion must be positive and finite" in r.error["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ("limit", "--y-total", 10, "--bins", f"1:{MAX_GRID_POINTS + 1}:1"),
        ("limit", "--y-total", 10, "--bins", "1:1e300:1e-3"),
        ("scan", "--method", "chi2", "--alpha-upper", 143,
         "--grid", f"1e-9:1e-3:{MAX_GRID_POINTS + 1}"),
        ("scan", "--method", "chi2", "--alpha-upper", 143,
         "--grid", f"1e-9:1e-3:{10 ** 30}"),
        ("synth", "--alpha", 10, "--emin", 1, "--emax", MAX_GRID_POINTS + 1),
        ("coverage", "--alpha", 10, "--emin", 1, "--emax", 1e9,
         "--bin-width", 1e-3, "--trials", 3),
    ])
    def test_grid_above_size_cap_exits_2_unbuilt(self, run_cli, schemas, tmp_path, argv):
        # One point above the cap, or a count far beyond memory.  The count
        # is checked first: a 10**6-point list alone takes 8 MB.
        out = tmp_path / "x.csv"
        if argv[0] == "scan":
            argv += ("--out", out)
        tracemalloc.start()
        try:
            r = run_cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.code == 2
        assert r.out == ""
        jsonschema.validate(r.error, schemas["error"])
        assert f"points exceeds the limit of {MAX_GRID_POINTS}" in r.error["error"]["message"]
        assert peak < 2 ** 21
        assert not out.exists()

    def test_usage_errors_keep_argparse_behavior(self, run_cli):
        with pytest.raises(SystemExit) as exc:
            run_cli("limit", "--method", "wat")
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ("fit", "--input", "{data}/synth_igex_like.csv"),
        ("limit", *LIMIT_SHORTCUT[1:]),
        ("scan", "--method", "chi2", "--alpha-upper", 143, "--out", "{tmp}/c.csv"),
    ], ids=["fit", "limit", "scan"])
    @pytest.mark.parametrize("flag", ["--config", "--fine-structure-constant",
                                      "--proton-mass-mev", "--seconds-per-day"])
    def test_only_the_exposure_flags_set_physics(self, run_cli, data_dir, tmp_path, command,
                                                 flag):
        # The exposure comes from flags only: there is no config file, and
        # the physical constants are fixed.
        argv = [str(a).format(data=data_dir, tmp=tmp_path) for a in command]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, flag, tmp_path / "physics.cfg")
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []


class TestSynth:
    def test_byte_identical_runs(self, run_cli, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("synth", "--alpha", 115, "--seed", 42, "--out", a)
        run_cli("synth", "--alpha", 115, "--seed", 42, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_matches_checked_in_fixture(self, run_cli, data_dir):
        r = run_cli("synth", "--alpha", 115, "--seed", 42)
        assert r.out == (data_dir / "synth_igex_like.csv").read_text()

    def test_stdout_equals_file_output(self, run_cli, tmp_path):
        out = tmp_path / "s.csv"
        run_cli("synth", "--alpha", 20, "--seed", 5, "--out", out)
        r = run_cli("synth", "--alpha", 20, "--seed", 5)
        assert r.out == out.read_text()

    def test_seed_changes_output(self, run_cli):
        a = run_cli("synth", "--alpha", 115, "--seed", 1).out
        b = run_cli("synth", "--alpha", 115, "--seed", 2).out
        assert a != b

    def test_invalid_config_exits_2(self, run_cli):
        assert run_cli("synth", "--alpha", -1, "--seed", 0).code == 2

    def test_small_means_grid_is_pinned(self, run_cli):
        # 10^4 bins with means from 1 to 67: both samplers, and inversion
        # sums grown by draws far into their tails.
        r = run_cli("synth", "--alpha", 1e4, "--emin", 15, "--emax", 1015,
                    "--bin-width", 0.1, "--seed", 7)
        assert r.code == 0
        assert hashlib.sha256(r.out.encode()).hexdigest() == (
            "0ef0c6b3c763113037f3db95dff1de035fd2cf0fabb22d506e8303ba60661b95")


class TestScan:
    def test_curve_csv_round_trip(self, run_cli, tmp_path):
        out = tmp_path / "curves.csv"
        r = run_cli("scan", "--method", "chi2", "--alpha-upper", 143,
                    "--grid", "1e-9:1e-3:50", "--out", out)
        assert r.code == 0
        curves = load_curves(out)
        assert len(curves) == 2
        assert {c.coupling.value for c in curves} == {"mass-prop",
                                                      "non-mass-prop"}
        assert all(len(c.points) == 50 for c in curves)
        assert all(c.method == "chi2" for c in curves)

    def test_single_point_grid_matches_limit_command(self, run_cli, tmp_path):
        out = tmp_path / "one.csv"
        run_cli("scan", "--method", "bayes", "--y-total", 130,
                "--bins", "15:48:1", "--grid", "1e-7:1e-7:1", "--out", out)
        limit = run_cli("limit", "--method", "bayes", "--y-total", 130,
                        "--bins", "15:48:1").json
        curves = load_curves(out)
        mp = next(c for c in curves
                  if c.coupling.value == "mass-prop")
        assert mp.points[0] == (1e-7, limit["lambda_upper_s_inv"])

    def test_exposure_flag_rescales_curves(self, run_cli, tmp_path):
        # Halving the exposure doubles every point of both curves.
        argv = ("scan", "--method", "chi2", "--alpha-upper", 143, "--grid", "1e-9:1e-3:5")
        run_cli(*argv, "--out", tmp_path / "base.csv")
        assert run_cli(*argv, "--exposure-kg-day", 40, "--out", tmp_path / "half.csv").code == 0
        for base, half in zip(load_curves(tmp_path / "base.csv"),
                              load_curves(tmp_path / "half.csv")):
            assert base.coupling == half.coupling
            assert [r for r, _ in half.points] == [r for r, _ in base.points]
            assert [lam for _, lam in half.points] == pytest.approx(
                [2.0 * lam for _, lam in base.points], rel=1e-12)

    def test_row_count_default_grid(self, run_cli, tmp_path):
        out = tmp_path / "default.csv"
        run_cli("scan", "--method", "chi2", "--alpha-upper", 143, "--out", out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "r_c_m,lambda_limit_s_inv,coupling,method,confidence"
        assert len(rows) == 1 + 2 * 200

    def test_svg_artifact(self, run_cli, tmp_path):
        out = tmp_path / "curves.csv"
        svg = tmp_path / "plot.svg"
        r = run_cli("scan", "--method", "chi2", "--alpha-upper", 143,
                    "--grid", "1e-9:1e-3:30", "--out", out, "--svg", svg)
        assert r.code == 0
        text = svg.read_text()
        assert text.count('class="curve"') == 2
        assert text.count('class="excluded"') == 2
        assert text.count('class="marker"') == 4
        assert 'class="overlay"' not in text

    def test_svg_overlay(self, run_cli, tmp_path):
        overlay = tmp_path / "boundary.csv"
        overlay.write_text("r_c_m,lambda_s_inv\n1e-8,1e-12\n1e-6,1e-8\n")
        out = tmp_path / "curves.csv"
        svg = tmp_path / "plot.svg"
        run_cli("scan", "--method", "chi2", "--alpha-upper", 143,
                "--grid", "1e-9:1e-3:30", "--out", out,
                "--svg", svg, "--overlay", overlay)
        assert svg.read_text().count('class="overlay"') == 1

    def test_overlay_without_svg_exits_2(self, run_cli, tmp_path, schemas, data_dir):
        # The overlay is only ever drawn on the plot; even a malformed one
        # (a spectrum file) used to pass unread.
        out = tmp_path / "curves.csv"
        r = run_cli("scan", "--method", "chi2", "--alpha-upper", 143,
                    "--grid", "1e-9:1e-3:5", "--out", out,
                    "--overlay", data_dir / "synth_igex_like.csv")
        assert r.code == 2
        jsonschema.validate(r.error, schemas["error"])
        assert "--overlay" in r.error["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("r_c_m,lambda_s_inv\n1e-8,0\n", "{path}:2: overlay values must be positive"),
        ("r_c_m,lambda_s_inv\n1e-8\n", "{path}:2: expected 2 fields, got 1"),
        # The lambda range padded down to a whole decade underflows to 0.
        ("r_c_m,lambda_s_inv\n1e-8,5e-324\n",
         "degenerate plot ranges r=(1e-09, 0.01), lam=(0.0, 0.001)"),
    ], ids=["nonpositive", "field-count", "range-underflow"])
    def test_bad_overlay_writes_nothing(self, run_cli, tmp_path, schemas, text, message):
        overlay = tmp_path / "bad.csv"
        overlay.write_text(text)
        out, svg = tmp_path / "c.csv", tmp_path / "p.svg"
        r = run_cli("scan", "--method", "chi2", "--alpha-upper", 100, "--out", out,
                    "--svg", svg, "--overlay", overlay)
        assert r.code == 2
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"]["message"] == message.replace("{path}", str(overlay))
        assert not out.exists()
        assert not svg.exists()

    def test_missing_overlay_writes_nothing(self, run_cli, tmp_path, schemas):
        out, svg = tmp_path / "c.csv", tmp_path / "p.svg"
        r = run_cli("scan", "--method", "chi2", "--alpha-upper", 100, "--out", out,
                    "--svg", svg, "--overlay", tmp_path / "absent.csv")
        assert r.code == 3
        jsonschema.validate(r.error, schemas["error"])
        assert not out.exists()
        assert not svg.exists()

    @pytest.mark.parametrize("alpha_upper,grid,svg,code,kind", [
        # The plot's lambda range, padded to whole decades, passes 1e308.
        (1e308, "1e-7:0.515:2", "p.svg", 2, "validation"),
        (100, "1e-9:1e-3:5", "nodir/p.svg", 3, "io"),
    ], ids=["range-past-float", "missing-directory"])
    def test_failed_svg_leaves_no_out_file(self, run_cli, tmp_path, schemas, alpha_upper,
                                           grid, svg, code, kind):
        r = run_cli("scan", "--method", "chi2", "--alpha-upper", alpha_upper, "--grid", grid,
                    "--out", tmp_path / "c.csv", "--svg", tmp_path / svg)
        assert (r.code, r.out) == (code, "")
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"]["type"] == kind
        assert list(tmp_path.iterdir()) == []

    def test_failed_svg_keeps_an_existing_out_file(self, run_cli, tmp_path):
        out = tmp_path / "old.csv"
        out.write_text("kept\n")
        r = run_cli("scan", "--method", "chi2", "--alpha-upper", 100, "--grid", "1e-9:1e-3:5",
                    "--out", out, "--svg", tmp_path / "nodir" / "p.svg")
        assert r.code == 3
        assert out.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("svg", ["c.csv", "./c.csv", "link.csv"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_svg_naming_the_out_file_exits_2_unwritten(self, run_cli, tmp_path, schemas,
                                                       monkeypatch, svg, existing):
        monkeypatch.chdir(tmp_path)
        os.symlink("c.csv", "link.csv")
        if existing:
            (tmp_path / "c.csv").write_text("old\n")
        r = run_cli("scan", "--method", "chi2", "--alpha-upper", 100,
                    "--grid", "1e-9:1e-3:5", "--out", "c.csv", "--svg", svg)
        assert (r.code, r.out) == (2, "")
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"]["message"] == (
            "--svg and --out name the same file; give two paths")
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["c.csv", "link.csv"] if existing else ["link.csv"])
        if existing:
            assert (tmp_path / "c.csv").read_text() == "old\n"

    def test_input_spectrum_is_loaded_once(self, run_cli, tmp_path, data_dir, monkeypatch):
        loads = []
        load = spontrad.cli.load_spectrum
        monkeypatch.setattr(spontrad.cli, "load_spectrum",
                            lambda path: loads.append(path) or load(path))
        for method in ("chi2", "bayes"):
            r = run_cli("scan", "--method", method, "--input", data_dir / "synth_igex_like.csv",
                        "--grid", "1e-9:1e-3:5", "--out", tmp_path / f"{method}.csv")
            assert r.code == 0
        assert len(loads) == 2

    def test_bad_grid_exits_2(self, run_cli, tmp_path):
        r = run_cli("scan", "--method", "chi2", "--alpha-upper", 143,
                    "--grid", "1e-3:1e-9:10", "--out", tmp_path / "x.csv")
        assert r.code == 2

    def test_collapsed_grid_exits_2(self, run_cli, tmp_path, schemas):
        # Five log steps from 1e-9 to the next float round to points that do
        # not strictly ascend; scan rejects the grid before writing anything.
        out = tmp_path / "x.csv"
        r = run_cli("scan", "--method", "chi2", "--alpha-upper", 100,
                    "--grid", "1e-9:1.0000000000000002e-9:5", "--out", out)
        assert (r.code, r.out) == (2, "")
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"] == {
            "type": "validation",
            "message": "grid not strictly ascending at index 2: 1.0000000000000007e-09"}
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["1e-300:1e300:5", "1e-9:inf:2"])
    def test_grid_beyond_float_range_exits_2(self, run_cli, tmp_path, schemas, grid):
        out = tmp_path / "x.csv"
        r = run_cli("scan", "--method", "chi2", "--alpha-upper", 143,
                    "--grid", grid, "--out", out)
        assert r.code == 2
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"]["type"] == "validation"
        assert not out.exists()


# Every file a command writes: (argv, the flag naming the file).
SCAN_CHI2 = ("scan", "--method", "chi2", "--alpha-upper", 100, "--grid", "1e-9:1e-3:5")
WRITERS = {
    "fit": (("fit", "--input", DATA / "synth_igex_like.csv"), "--out"),
    "limit": (LIMIT_SHORTCUT, "--out"),
    "coverage": (("coverage", "--alpha", 115, "--trials", 5), "--out"),
    "synth": (("synth", "--alpha", 115), "--out"),
    "scan": (SCAN_CHI2, "--out"),
    "scan-svg": (SCAN_CHI2, "--svg"),
}


def refuse_replace(src, dst):
    raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))


def snapshot(root) -> dict:
    """Each path under root: its bytes, its link target, or that it is a directory."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for path in (os.path.join(dirpath, name) for name in dirnames + filenames):
            if os.path.islink(path):
                state[path] = ("link", os.readlink(path))
            elif os.path.isdir(path):
                state[path] = ("dir",)
            else:
                state[path] = ("file", Path(path).read_bytes())
    return state


@pytest.fixture(params=sorted(WRITERS))
def write(request, run_cli, tmp_path_factory):
    """write(path) runs one command with its file flag naming path.

    scan-svg writes its curves to a directory of their own, so the test's
    directory holds only the file under test.  write.text is what the
    command writes to a new file.
    """
    argv, flag = WRITERS[request.param]
    side = tmp_path_factory.mktemp("writer")
    if request.param == "scan-svg":
        argv = (*argv, "--out", side / "c.csv")

    def run(path):
        return run_cli(*argv, flag, path)

    fresh = side / "fresh"
    assert run(fresh).code == 0
    run.text = fresh.read_text()
    if request.param == "scan":
        assert len(load_curves(fresh)) == 2
    elif request.param == "scan-svg":
        assert run.text.count('class="curve"') == 2
    else:
        assert run.text == run_cli(*argv).out
    return run


class TestOutputFiles:
    """Every --out and --svg: staged beside its target, then replaced."""

    def test_out_file_is_replaced_with_the_mode_of_a_new_file(self, write, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        out.write_text("old\n")
        out.chmod(0o700)  # a new file never has the execute bits
        old_inode = out.stat().st_ino
        fresh.write_text("")
        r = write(out)
        assert r.code == 0
        assert out.read_text() == write.text
        assert out.stat().st_mode == fresh.stat().st_mode
        assert out.stat().st_ino != old_inode
        assert sorted(tmp_path.iterdir()) == [fresh, out]

    @pytest.mark.parametrize("fails", [False, True], ids=["success", "failure"])
    def test_a_users_tmp_file_beside_out_is_left_alone(self, write, tmp_path, monkeypatch,
                                                       fails):
        out, mine = tmp_path / "out", tmp_path / "out.tmp"
        mine.write_text("mine\n")
        if fails:
            monkeypatch.setattr(spontrad.spectrum.os, "replace", refuse_replace)
        r = write(out)
        assert r.code == (3 if fails else 0)
        assert mine.read_text() == "mine\n"
        assert sorted(tmp_path.iterdir()) == ([mine] if fails else [out, mine])

    def test_out_in_a_missing_directory_names_out(self, write, tmp_path, schemas):
        out = tmp_path / "nodir" / "out"
        r = write(out)
        assert (r.code, r.out) == (3, "")
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"] == {
            "type": "io", "message": f"[Errno 2] No such file or directory: '{out}'"}
        assert list(tmp_path.iterdir()) == []

    def test_fifo_out_is_written_in_place(self, write, tmp_path):
        fifo = tmp_path / "out"
        os.mkfifo(fifo)
        # A reader is open first, so opening the FIFO to write does not block.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            r = write(fifo)
            text = os.read(reader, 2 ** 16).decode()
        finally:
            os.close(reader)
        assert r.code == 0
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert text == write.text
        assert list(tmp_path.iterdir()) == [fifo]

    def test_directory_out_exits_3(self, write, tmp_path, schemas):
        out = tmp_path / "d"
        out.mkdir()
        r = write(out)
        assert (r.code, r.out) == (3, "")
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"] == {"type": "io", "message": f"[Errno 21] Is a directory: '{out}'"}
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    def test_symlinked_out_replaces_the_file_it_points_to(self, write, tmp_path):
        real, link = tmp_path / "sub" / "real", tmp_path / "link"
        real.parent.mkdir()
        real.write_text("old\n")
        old_inode = real.stat().st_ino
        link.symlink_to(real)
        r = write(link)
        assert r.code == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == write.text
        assert real.stat().st_ino != old_inode
        assert sorted(tmp_path.rglob("*")) == [link, real.parent, real]

    @pytest.mark.parametrize("argv", [
        ("fit", "--input", DATA / "synth_igex_like.csv", "--out", "{tmp}/a"),
        (*LIMIT_SHORTCUT, "--out", "{tmp}/a"),
        ("coverage", "--alpha", 115, "--trials", 5, "--out", "{tmp}/a"),
        ("synth", "--alpha", 115, "--out", "{tmp}/a"),
        (*SCAN_CHI2, "--out", "{tmp}/a", "--svg", "{tmp}/b"),
    ], ids=["fit", "limit", "coverage", "synth", "scan"])
    def test_a_failed_replace_keeps_every_old_target(self, run_cli, tmp_path, schemas,
                                                     monkeypatch, argv):
        (tmp_path / "a").write_text("old a\n")
        (tmp_path / "b").write_text("old b\n")
        before = snapshot(tmp_path)
        monkeypatch.setattr(spontrad.spectrum.os, "replace", refuse_replace)
        r = run_cli(*(str(a).format(tmp=tmp_path) for a in argv))
        assert (r.code, r.out) == (3, "")
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"] == {
            "type": "io", "message": f"[Errno 18] {os.strerror(errno.EXDEV)}: '{tmp_path}/a'"}
        assert snapshot(tmp_path) == before


# The output property: per command, its valid argv and the argv tail of
# each fault that applies to it; a fault that does not apply is no fault.
BAD_CL = ("--cl", 1.5)
ALPHA_UPPER_PAST_FLOAT = ("--alpha-upper", 1e308, "--r-c", 1)  # lambda overflows: exit 4
OUTPUT_COMMANDS = {
    "fit": (WRITERS["fit"][0], {"bad-cl": BAD_CL}),
    "limit": (("limit", "--method", "chi2", "--alpha-upper", 143),
              {"bad-cl": BAD_CL, "alpha-past-float": ALPHA_UPPER_PAST_FLOAT}),
    "coverage": (WRITERS["coverage"][0],
                 {"bad-cl": BAD_CL, "alpha-past-float": ("--alpha", 1e300)}),
    "synth": (WRITERS["synth"][0], {"alpha-past-float": ("--alpha", 1e300)}),
    "scan": (SCAN_CHI2, {"bad-cl": BAD_CL, "bad-overlay": ("--overlay", "{tmp}/bad.csv"),
                         "alpha-past-float": ALPHA_UPPER_PAST_FLOAT}),
}
FAULTS = ("valid", "bad-cl", "bad-overlay", "alpha-past-float")
OUTPUT_KINDS = ("new", "existing", "missing-dir", "directory", "symlink")


def output_path(tmp, flag: str, kind: str):
    """A path of the given kind for flag, made ready under tmp."""
    path = tmp / flag.lstrip("-")
    if kind == "existing":
        path.write_text(f"old {flag}\n")
    elif kind == "missing-dir":
        path = tmp / "nodir" / path.name
    elif kind == "directory":
        path.mkdir()
    elif kind == "symlink":
        (tmp / "real").mkdir(exist_ok=True)
        (tmp / "real" / path.name).write_text(f"old {flag}\n")
        path.symlink_to(tmp / "real" / path.name)
    return path


class TestOutputProperty:
    # run_cli keeps no state between calls, and each example writes to a
    # fresh directory, so sharing the fixtures across examples is safe.
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(sorted(OUTPUT_COMMANDS)), fault=st.sampled_from(FAULTS),
           out_kind=st.sampled_from(OUTPUT_KINDS),
           svg_kind=st.sampled_from((None, "same-as-out", *OUTPUT_KINDS)))
    @example(command="scan", fault="valid", out_kind="symlink", svg_kind="existing")  # exit 0
    @example(command="scan", fault="valid", out_kind="existing",
             svg_kind="missing-dir")  # exit 3
    def test_only_a_success_changes_files_and_only_its_outputs(
            self, run_cli, schemas, tmp_path_factory, command, fault, out_kind, svg_kind):
        tmp = Path(os.path.realpath(tmp_path_factory.mktemp("outputs")))
        (tmp / "bad.csv").write_text("r_c_m,lambda_s_inv\n1e-8,0\n")
        (tmp / "bystander").write_text("kept\n")
        argv, faults = OUTPUT_COMMANDS[command]
        outputs = [output_path(tmp, "--out", out_kind)]
        argv = [*argv, *(str(a).format(tmp=tmp) for a in faults.get(fault, ())),
                "--out", outputs[0]]
        if command == "scan" and svg_kind:
            outputs.append(outputs[0] if svg_kind == "same-as-out"
                           else output_path(tmp, "--svg", svg_kind))
            argv += ["--svg", outputs[1]]
        before = snapshot(tmp)
        r = run_cli(*argv)
        after = snapshot(tmp)
        assert r.code in (0, 2, 3, 4)
        assert not [path for path in after if path.endswith(".tmp")]
        if r.code:
            jsonschema.validate(strict_json(r.err), schemas["error"])
            assert after == before
        else:
            changed = {path for path in before.keys() | after.keys()
                       if before.get(path) != after.get(path)}
            assert changed <= {os.path.realpath(path) for path in outputs}
            assert all(os.path.isfile(path) for path in outputs)


class TestCoverage:
    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10 ** 18])
    def test_trials_above_the_cap_exit_2_before_any_setup(self, run_cli, schemas,
                                                          monkeypatch, trials):
        def unexpected(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(spontrad.synth, "center_grid", unexpected)
        r = run_cli("coverage", "--alpha", 115, "--trials", trials)
        assert (r.code, r.out) == (2, "")
        jsonschema.validate(r.error, schemas["error"])
        assert r.error["error"] == {
            "type": "validation",
            "message": f"{trials} trials exceed the limit of {MAX_TRIALS}"}

    def test_report_schema_and_determinism(self, run_cli, schemas):
        args = ("coverage", "--alpha", 115, "--seed", 3, "--trials", 40)
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.code == 0
        jsonschema.validate(a.json, schemas["coverage_report"])
        assert a.out == b.out
        assert a.json["trials"] == 40
        assert a.json["seed"] == 3
        assert 0.8 <= a.json["coverage_fraction"] <= 1.0

    def test_method_recorded(self, run_cli):
        r = run_cli("coverage", "--alpha", 115, "--seed", 3, "--trials", 10,
                    "--method", "chi2").json
        assert r["method"] == "chi2"

    def test_skipped_trials_reported(self, run_cli, schemas):
        # Low amplitude: the count cut starves the chi2 fit in 29 of 60 trials.
        r = run_cli("coverage", "--alpha", 50, "--seed", 2, "--trials", 60,
                    "--method", "chi2")
        assert r.code == 0
        jsonschema.validate(r.json, schemas["coverage_report"])
        assert (r.json["trials"], r.json["skipped"]) == (31, 29)
        bayes = run_cli("coverage", "--alpha", 50, "--seed", 2, "--trials", 60).json
        assert (bayes["trials"], bayes["skipped"]) == (60, 0)
        for report in (r.json, bayes):
            assert report["requested_trials"] == report["trials"] + report["skipped"] == 60
        # chi2 covered all 31 completed trials; bayes 58 of 60.
        assert r.json["coverage_stderr"] == 0.0
        assert bayes["coverage_stderr"] == pytest.approx(math.sqrt(58 / 60 * 2 / 60 / 60))
