"""The README's coverage numbers, reproduced in-process.

The coverage table under "Notes and caveats" and the anchor study after it
are the one copy of these numbers: the tests read them from README.md, run
each study through the CLI's main, and on a mismatch print the line as it
should read.
"""

import re
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


def test_anchor_study(run_cli):
    assert ANCHOR, "README.md names no anchor study"
    flags, covers = ANCHOR.groups()
    got = _cell(_study(run_cli, *flags.split()))
    assert got == covers, f"the README should say the anchor study covers {got}"
