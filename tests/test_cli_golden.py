"""Byte-for-byte replay of recorded `quadbetti audit` / `verify` output.

`data/cli_golden.json` holds, for every audit name the CLI accepts (in CSV
and JSON) and for `verify --seed 0`, the argv, exit code and stdout of the
command line before audits were served from one registry.  Any change to a
column, its order, a key or a verdict shows up here.
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
