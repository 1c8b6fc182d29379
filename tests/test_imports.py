"""Start-up contract: each command loads only the spontrad modules it runs,
never ``dataclasses`` or ``inspect``, and the package keeps the names the
benchmark imports.

The module-loading checks run in a fresh interpreter and look at
``sys.modules``, so what an earlier test imported does not leak in.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spontrad

SRC = str(Path(spontrad.__file__).resolve().parent.parent)
DATA = Path(SRC) / "spontrad" / "data"
ROOT = Path(__file__).resolve().parent.parent

# Modules no command may load: importing dataclasses loads inspect, about
# 12 to 19 ms of import time on a shared 2-vCPU host.
SLOW_STDLIB = {"dataclasses", "inspect"}
# Runs main() on argv and prints the spontrad submodules then loaded, and
# which of SLOW_STDLIB.
RUN_COMMAND = f"""
import contextlib, io, json, sys
from spontrad.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
assert code == 0, code
print(json.dumps(sorted(n for n in sys.modules
                        if n.startswith("spontrad.") or n in {sorted(SLOW_STDLIB)})))
"""


def python(code: str, *args, env=None):
    full_env = {**os.environ, "PYTHONPATH": SRC, **(env or {})}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=full_env, timeout=120)


def loaded_by(*argv) -> set:
    result = python(RUN_COMMAND, *argv)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


@pytest.mark.parametrize("argv,absent", [
    (("fit", "--input", DATA / "synth_igex_like.csv"),
     {"scan", "svg", "synth"}),
    (("limit", "--y-total", 130, "--bins", "15:48:1"), {"scan", "svg", "synth"}),
    (("limit", "--method", "chi2", "--input", DATA / "synth_igex_like.csv"),
     {"scan", "svg", "synth"}),
    (("coverage", "--alpha", 115, "--trials", 10), {"scan", "svg"}),
    (("coverage", "--method", "chi2", "--alpha", 115, "--trials", 10),
     {"scan", "svg"}),
    (("synth", "--alpha", 115), {"scan", "svg"}),
    (("scan", "--method", "chi2", "--alpha-upper", 143, "--grid", "1e-9:1e-3:5",
      "--out", "{tmp}/c.csv", "--svg", "{tmp}/c.svg"), {"synth"}),
    (("scan", "--y-total", 130, "--bins", "15:48:1", "--grid", "1e-9:1e-3:5",
      "--out", "{tmp}/c.csv"), {"synth", "svg"}),
], ids=["fit", "limit-bayes", "limit-chi2", "coverage", "coverage-chi2", "synth", "scan",
        "scan-csv"])
def test_command_leaves_unused_modules_unloaded(argv, absent, tmp_path):
    argv = [str(a).format(tmp=tmp_path) for a in argv]
    loaded = loaded_by(*argv)
    assert "spontrad.cli" in loaded
    assert not loaded & {f"spontrad.{name}" for name in absent}
    assert not loaded & SLOW_STDLIB


def test_public_names_resolve_lazily_to_their_definitions():
    # The top level is the core API: importing it loads neither the scan,
    # the plot nor the synthetic studies.
    result = python("""
import importlib, sys
import spontrad
assert not {"spontrad.scan", "spontrad.svg", "spontrad.synth"} & set(sys.modules)
homes = {
    "backend": ("backend_name",),
    "bayes": ("CredibleLimit", "PosteriorSpec", "gamma_quantile", "harmonic_sum",
              "lambda_credible_limit", "posterior_spec", "reg_inc_gamma"),
    "chi2fit": ("FitResult", "alpha_upper_limit", "fit_alpha", "normal_quantile"),
    "constants": ("CODATA2018", "CouplingMode", "ExposureConfig", "IGEX_EXPOSURE", "conversion",
                  "coupling_mass_energy", "dimensionless_coupling", "exposure_factor"),
    "errors": ("InsufficientDataError", "NumericalError", "SelectionEmptyError",
               "SpectrumFormatError", "SpontradError", "ValidationError"),
    "spectrum": ("BinnedSpectrum", "EnergyBin", "RangeSelection", "load_spectrum",
                 "save_spectrum", "select", "total_counts"),
}
assert sorted(spontrad.__all__) == sorted(n for names in homes.values() for n in names)
for home, names in homes.items():
    module = importlib.import_module("spontrad." + home)
    for name in names:
        assert getattr(spontrad, name) is getattr(module, name), name
print("ok")
""")
    assert result.stdout == "ok\n", result.stderr


def test_config_file_names_are_gone():
    # The exposure is set by flags only; the config-file parser is removed.
    assert importlib.util.find_spec("spontrad.config") is None
    for name in ("load_config", "parse_config_text"):
        assert name not in spontrad.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(spontrad, name)


def test_moved_names_import_from_their_modules():
    # The scan, plot and study names are not top-level names: each imports
    # from its module, and ``from spontrad import scan`` gives the module.
    result = python("""
import importlib, sys
import spontrad
moved = {
    "scan": ("ExclusionCurve", "ReferencePoint", "builtin_reference_points", "load_curves",
             "load_overlay_boundary", "log_grid", "save_curves", "scan"),
    "svg": ("render_exclusion_svg",),
    "synth": ("CoverageReport", "SynthConfig", "run_coverage", "sample_spectrum"),
}
for name in ["BACKEND", *moved, *(n for names in moved.values() for n in names)]:
    assert not hasattr(spontrad, name), name
    assert name not in spontrad.__all__, name
for home, names in moved.items():
    module = importlib.import_module("spontrad." + home)
    assert getattr(spontrad, home) is module, home
    for name in names:
        assert hasattr(module, name), name
        assert name == home or not hasattr(spontrad, name), name
from spontrad import scan
assert scan is sys.modules["spontrad.scan"] and callable(scan.scan)
print("ok")
""")
    assert result.stdout == "ok\n", result.stderr


def test_dir_and_star_import_cover_all():
    result = python("""
import spontrad
assert set(spontrad.__all__) <= set(dir(spontrad))
namespace = {}
exec("from spontrad import *", namespace)
assert set(spontrad.__all__) <= set(namespace)
print("ok")
""")
    assert result.stdout == "ok\n", result.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spontrad.no_such_name  # noqa: B018
    assert not hasattr(spontrad, "no_such_name")


def test_kernels_and_backend_name_are_fixed():
    import spontrad._kernels_py
    import spontrad.backend
    assert spontrad.backend.kernels is spontrad._kernels_py
    assert spontrad.backend_name() == "python"
    # SPONTRAD_BACKEND is not read.
    result = python("import spontrad; print(spontrad.backend_name())",
                    env={"SPONTRAD_BACKEND": "compiled"})
    assert result.stdout == "python\n", result.stderr


def test_benchmark_kernel_loops_keep_their_seams():
    # perfbench/kernels_bench.py imports benchmarks/bench_backends.py and
    # reads these names; a change here would otherwise show only there.
    result = python("""
import sys
from pathlib import Path
sys.path.insert(0, str(Path(sys.argv[1]) / "perfbench"))
import kernels_bench
from spontrad import _kernels_py
bench = kernels_bench.bench_backends(Path(sys.argv[1]))
assert bench._load_backends() == [("python", _kernels_py)]
best, value = bench._time(lambda: 7, 2)
assert value == 7 and best >= 0.0
assert [make.__name__ for _, make in bench.WORKLOADS] == list(kernels_bench.PER_CALL)
print("ok")
""", ROOT)
    assert result.stdout == "ok\n", result.stderr
