"""Byte-for-byte replay of recorded `quadbetti audit` / `verify` output.

`data/cli_golden.json` holds argv, exit code and stdout of:
every audit name the CLI accepts, in CSV and JSON, and `verify --seed 0`,
recorded before audits were served from one registry; then, recorded before
the grid builders became lists of quadratics over one sign test,
`verify --seed 0 --full --format json` (which carries the shell-k2 lift),
two `deformation-products` runs with other seeds, t values, eps, delta and
resolution, and `smith-cone --radius 2`, which pin the kept cells behind
each Betti vector; then, recorded before every `bounds` row became one dict
of Fractions written by one table helper, the twelve `bounds` and `ci`
tables of `perfbench/golden.json` and `bounds --s 1 --k 3 --aggregate` in
CSV and JSON, whose empty `simple` columns pin that rational columns are
declared, not inferred.  The three `smith-cone` cases were re-recorded when
the audit stopped running the float `ci_probe`: their only change is the
dropped `probe_verdict` key and CSV column.  The five JSON cases that carry
a deformation report were re-recorded when the audit stopped scaling its
family below the grid's sign granularity: each new stdout is the old one
minus its `family_scale` line (two lines in `verify --full`).  Recorded
before undeformed lifts were ranked as one polar cap: `double-cover-products
--k 2 --format json`, which passes on the 122,208-cell lift, and three
coarse lifts that exit 3 because cells on the equator keep the lift whole,
`--k 1 --resolution 20` (lifted (1, 0, 0)), `--k 2 --resolution 5`
((1, 1, 0, 0)) and `--k 1 --resolution 5` ((2, 0, 0)).  Any change to a
column, its order, a key, a verdict or a Betti vector shows up here.

`data/cli_help.json` holds argv, terminal width (COLUMNS), exit code,
stdout and stderr of the top-level and each subcommand's `--help` and of
three usage errors, at widths 40, 80 and 200, recorded before the parser
read the terminal width once per build and took the audit names from a
static list.  argparse's layout is the same from Python 3.10 to 3.12;
3.13 changed it, so the replay runs before 3.13.
"""

import json
import sys
from pathlib import Path

import pytest

from quadbetti.cli import main

DATA = Path(__file__).parent / "data"
CASES = json.loads((DATA / "cli_golden.json").read_text())
HELP_CASES = json.loads((DATA / "cli_help.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_recording(capsys, case):
    code = main(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["code"]


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="recorded with the argparse layout of Python 3.10-3.12")
@pytest.mark.parametrize("case", HELP_CASES, ids=[f"{' '.join(c['argv']) or '(none)'} @{c['columns']}" for c in HELP_CASES])
def test_help_and_usage_errors_match_recording(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", str(case["columns"]))
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])
