"""Golden CLI corpus: fixed commands whose outputs must not change by a byte.

Each case runs one ``spontrad`` command in-process and compares its exit
code, stdout, stderr and every file it writes against ``tests/golden/``.
The golden files were written once and are never regenerated: a diff here
means the program's output changed.  ``python tests/test_golden.py`` writes
the files of a newly added case and leaves every existing file untouched.

Arguments are templates: ``{data}`` is the packaged data directory and
``{tmp}`` a fresh directory holding the inputs of ``INPUTS`` and the
command's outputs.
"""

import contextlib
import io
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from spontrad.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

INPUTS = {
    "boundary.csv": "r_c_m,lambda_s_inv\n1e-8,1e-12\n1e-6,1e-8\n",
}

SMALL_GRID = ("--grid", "1e-9:1e-3:13")


def _limit_cases():
    cases = []
    routes = {
        "bayes-shortcut": ("--y-total", "130", "--bins", "15:48:1"),
        "chi2-shortcut": ("--method", "chi2", "--alpha-upper", "143"),
    }
    # Windows that leave the chi-square fit at least two bins.
    windows = {"paper_totals": ("--min-counts", "1"), "synth_igex_like": (),
               "two_point_exact": ("--emin", "5")}
    for name, window in windows.items():
        source = ("--input", f"{{data}}/{name}.csv", *window)
        routes[f"bayes-{name}"] = source
        routes[f"chi2-{name}"] = ("--method", "chi2", *source)
    for route, argv in routes.items():
        for coupling in ("mass-prop", "non-mass-prop"):
            cases.append((f"limit-{route}-{coupling}",
                          ("limit", *argv, "--coupling", coupling)))
    return cases


# (case name, argv template, expected exit code, written files)
CASES = [
    *((name, argv, 0, ()) for name, argv in _limit_cases()),
    ("limit-bayes-options",
     ("limit", "--y-total", "400", "--bins", "10:60:2", "--cl", "0.9", "--r-c", "3e-8",
      "--exposure-kg-day", "80", "--electrons-per-atom", "6"), 0, ()),
    ("limit-chi2-window",
     ("limit", "--method", "chi2", "--input", "{data}/synth_igex_like.csv",
      "--emin", "20", "--emax", "40", "--min-counts", "3", "--cl", "0.99"), 0, ()),
    ("fit-synth_igex_like", ("fit", "--input", "{data}/synth_igex_like.csv"), 0, ()),
    ("fit-paper_totals",
     ("fit", "--input", "{data}/paper_totals.csv", "--cl", "0.9", "--min-counts", "1"), 0, ()),
    ("fit-two_point_exact",
     ("fit", "--input", "{data}/two_point_exact.csv", "--emin", "5", "--emax", "25"), 0, ()),
    ("coverage-bayes", ("coverage", "--alpha", "115", "--seed", "3", "--trials", "40"), 0, ()),
    ("coverage-chi2",
     ("coverage", "--alpha", "50", "--seed", "2", "--trials", "60", "--method", "chi2"), 0, ()),
    ("synth-stdout", ("synth", "--alpha", "115", "--seed", "42"), 0, ()),
    ("synth-file",
     ("synth", "--alpha", "300", "--background", "2.5", "--emin", "10", "--emax", "30",
      "--bin-width", "0.5", "--seed", "7", "--out", "{tmp}/spectrum.csv"), 0, ("spectrum.csv",)),
    ("scan-chi2-shortcut",
     ("scan", "--method", "chi2", "--alpha-upper", "143", *SMALL_GRID,
      "--out", "{tmp}/curves.csv"), 0, ("curves.csv",)),
    ("scan-bayes-shortcut-svg",
     ("scan", "--y-total", "130", "--bins", "15:48:1", *SMALL_GRID,
      "--out", "{tmp}/curves.csv", "--svg", "{tmp}/plot.svg"), 0, ("curves.csv", "plot.svg")),
    ("scan-chi2-input-overlay",
     ("scan", "--method", "chi2", "--input", "{data}/synth_igex_like.csv", *SMALL_GRID,
      "--coupling", "non-mass-prop", "--out", "{tmp}/curves.csv", "--svg", "{tmp}/plot.svg",
      "--overlay", "{tmp}/boundary.csv"), 0, ("curves.csv", "plot.svg")),
    # One point per curve, in a frame of one decade on each axis.
    ("scan-chi2-one-point-svg",
     ("scan", "--method", "chi2", "--alpha-upper", "143", "--grid", "1e-7:1e-7:1",
      "--out", "{tmp}/curves.csv", "--svg", "{tmp}/plot.svg"), 0, ("curves.csv", "plot.svg")),
    ("scan-bayes-input",
     ("scan", "--input", "{data}/paper_totals.csv", "--r-c", "2e-7", "--cl", "0.9",
      "--grid", "1e-8:1e-5:7", "--out", "{tmp}/curves.csv"), 0, ("curves.csv",)),
    ("error-validation",
     ("limit", "--method", "bayes", "--alpha-upper", "1", "--y-total", "130",
      "--bins", "15:48:1"), 2, ()),
    ("error-numerical",
     ("limit", "--method", "chi2", "--alpha-upper", "1e308", "--r-c", "1e100"), 4, ()),
]


def run_case(argv, code, files, tmp: Path) -> dict:
    """Run one case in ``tmp``; returns artifact name -> bytes."""
    for name, text in INPUTS.items():
        (tmp / name).write_text(text, encoding="utf-8")
    data = Path(resources.files("spontrad")) / "data"
    args = [a.format(data=data, tmp=tmp) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(args)
    assert got == code, (args, err.getvalue())
    artifacts = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
    for name in files:
        artifacts[name] = (tmp / name).read_bytes()
    return artifacts


def golden_path(case: str, artifact: str) -> Path:
    return GOLDEN / f"{case}.{artifact}"


@pytest.mark.parametrize("case,argv,code,files", CASES, ids=[c[0] for c in CASES])
def test_golden_cli_output(case, argv, code, files, tmp_path):
    for artifact, got in run_case(argv, code, files, tmp_path).items():
        path = golden_path(case, artifact)
        want = path.read_bytes() if path.exists() else b""
        assert got == want, f"{case}: {artifact} differs from {path.name}"


def test_corpus_has_no_stray_files():
    expected = {golden_path(c, a).name for c, argv, code, files in CASES
                for a in ("stdout", "stderr", *files)}
    stray = {p.name for p in GOLDEN.iterdir()} - expected
    assert not stray


def write_missing() -> None:
    """Write golden files that do not exist yet; empty streams get no file."""
    GOLDEN.mkdir(exist_ok=True)
    for case, argv, code, files in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            artifacts = run_case(argv, code, files, Path(tmp))
        for artifact, content in artifacts.items():
            path = golden_path(case, artifact)
            if content and not path.exists():
                path.write_bytes(content)
                print(f"wrote {path.name}", file=sys.stderr)


if __name__ == "__main__":
    write_missing()
