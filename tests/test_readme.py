"""The README's examples and numbers, reproduced in-process.

The coverage table under "Notes and caveats" and the anchor study after it
are the one copy of these numbers: the tests read them from README.md, run
each study through the CLI's main, and on a mismatch print the line as it
should read.  So are the examples: each ``spontrad`` line of an ``sh`` block
runs through main, the library example runs as written, and the limits the
Quick start prose states are the ones its commands give.
"""

import contextlib
import io
import re
import shlex
import shutil
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
TABLE_HEADER = "| alpha | chi2 covered | chi2 skipped | bayes covered |"


def _table():
    """The flags every study of the table shares, and its rows."""
    trials, seed = re.search(r"`spontrad coverage\s+--trials (\d+) --seed (\d+)`",
                             README).groups()
    rows = []
    # After the header come the rest of its line and the |---| line.
    for line in README.split(TABLE_HEADER, 1)[1].splitlines()[2:]:
        line = line.strip()
        if not line.startswith("|"):
            break
        rows.append(line)
    assert rows
    return ("--trials", trials, "--seed", seed), rows


FLAGS, ROWS = _table()
ANCHOR = re.search(r"`spontrad coverage\s+(--method\s+\w+\s+--alpha\s+\S+\s+--trials\s+\d+"
                   r"\s+--seed\s+\d+)`,\s+covers\s+(\d+/\d+)", README)


def _study(run_cli, *flags):
    result = run_cli("coverage", *flags)
    assert result.code == 0, result.err
    return result.json


def _cell(report):
    return f"{report['covered']}/{report['trials']}"


@pytest.mark.parametrize("row", ROWS, ids=[row.split("|")[1].strip() for row in ROWS])
def test_table_row(run_cli, row):
    alpha = row.split("|")[1].strip()
    chi2 = _study(run_cli, "--method", "chi2", "--alpha", alpha, *FLAGS)
    bayes = _study(run_cli, "--method", "bayes", "--alpha", alpha, *FLAGS)
    want = (f"| {alpha} | {_cell(chi2)} = {chi2['coverage_fraction']:.3f} | "
            f"{chi2['skipped']} | {_cell(bayes)} = {bayes['coverage_fraction']:.3f} |")
    assert row == want, f"the README row should read:\n{want}"


def _section(title: str) -> str:
    """The text of the README's ``## title`` section."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _code_blocks(text: str, language: str) -> list:
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def _commands(text: str) -> list:
    """Each spontrad command of the sh blocks in text, as argv after "spontrad"."""
    return [shlex.split(line)[1:] for block in _code_blocks(text, "sh")
            for line in block.splitlines() if line.startswith("spontrad ")]


COMMANDS = _commands(README)


def test_sh_commands_exit_0(run_cli, data_dir, tmp_path, monkeypatch):
    # The commands that read spectrum.csv get the packaged IGEX-like spectrum.
    shutil.copy(data_dir / "synth_igex_like.csv", tmp_path / "spectrum.csv")
    monkeypatch.chdir(tmp_path)
    assert len(COMMANDS) >= 6
    for argv in COMMANDS:
        result = run_cli(*argv)
        assert result.code == 0, (argv, result.err)
    assert {"curves.csv", "exclusion.svg"} <= {p.name for p in tmp_path.iterdir()}


def test_quick_start_states_the_limits_its_commands_give(run_cli):
    # The prose after the shortcut commands (no input file) gives their
    # limits in order, each to two significant digits.
    quick_start = _section("Quick start")
    stated = re.findall(r"`(?:lambda <= )?(\d\.\de-\d+) 1/s`", quick_start)
    shortcuts = [argv for argv in _commands(quick_start)
                 if argv[0] == "limit" and "--input" not in argv]
    got = [f"{run_cli(*argv).json['lambda_upper_s_inv']:.1e}" for argv in shortcuts]
    assert len(stated) == len(shortcuts) == 3
    assert got == stated, f"the Quick start should state {got}"


def test_library_example_prints_the_limit_its_comment_states():
    (code,) = _code_blocks(_section("Library use"), "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    comment = re.search(r"# (\d\.(\d+)e-\d+)$", code, flags=re.M)
    digits = len(comment.group(2))
    assert f"{float(out.getvalue()):.{digits}e}" == comment.group(1)


def test_anchor_study(run_cli):
    assert ANCHOR, "README.md names no anchor study"
    flags, covers = ANCHOR.groups()
    got = _cell(_study(run_cli, *flags.split()))
    assert got == covers, f"the README should say the anchor study covers {got}"
