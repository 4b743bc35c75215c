"""Byte-for-byte replay of recorded `quadbetti audit` / `verify` output.

`data/cli_golden.json` holds argv, exit code and stdout of:
every audit name the CLI accepts, in CSV and JSON, and `verify --seed 0`,
recorded before audits were served from one registry; then, recorded before
the grid builders became lists of quadratics over one sign test,
`verify --seed 0 --full --format json` (which carries the shell-k2 lift),
two `deformation-products` runs with other seeds, t values, eps, delta and
resolution, and `smith-cone --radius 2`, which pin `family_scale` and the
kept cells behind each Betti vector; then, recorded before every `bounds`
row became one dict of Fractions written by one table helper, the twelve
`bounds` and `ci` tables of `perfbench/golden.json` and
`bounds --s 1 --k 3 --aggregate` in CSV and JSON, whose empty `simple`
columns pin that rational columns are declared, not inferred.  The three
`smith-cone` cases were re-recorded when the audit stopped running the
float `ci_probe`: their only change is the dropped `probe_verdict` key and
CSV column.  Any change to a column, its order, a key, a verdict or a
Betti vector shows up here.
"""

import json
from pathlib import Path

import pytest

from quadbetti.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_recording(capsys, case):
    code = main(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["code"]
