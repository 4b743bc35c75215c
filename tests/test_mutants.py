"""The mutant ledger: seeded engine defects and how `verify --full` reads under each.

A mutant replaces names in `harness`, `homology` or `exact`, where their
callers look them up, and `verify --seed 0 --full` runs under it.  A defect
row records the overall verdict and every row it moves off PASS, with that
row's verdict; every other row must stay PASS.  A non-defect row swaps in
code that is slower but right, and the JSON output must stay byte for byte
the recorded one.

The rows so far cover the fold contract, where `grid_block` and
`sphere_region_block` each return one block and its copies, and the audits
rank the block and multiply its vector by the copies; and the rank phase,
where the run path assembles its boundary columns and `GF2Matrix` ranks
them.
"""

import collections
import functools
import json
from pathlib import Path

import pytest
from conftest import run_boundary_by_faces

from quadbetti import exact, harness, homology, quadforms
from quadbetti.cli import main
from quadbetti.harness import INCONCLUSIVE, PASS, overall, run_verification_suite

VERIFY_FULL = ["verify", "--seed", "0", "--full", "--format", "json"]
(RECORDED,) = [c["stdout"] for c in json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
               if c["argv"] == VERIFY_FULL]


def whole_box(real):
    """Non-defect: the whole box, one copy."""
    return lambda system, spec: (quadforms.grid_complex(system, spec), 1)


def whole_lift(real):
    """Non-defect: the whole lift, one copy."""
    return lambda polys, eps, spec: (quadforms.sphere_region_complex(polys, eps, spec), 1)


def box_copies_doubled(real):
    """Every box counted as twice the copies it folds into."""
    def mutant(system, spec):
        block, copies = real(system, spec)
        return block, 2 * copies
    return mutant


def cap_copies_three(real):
    """Every polar cap counted three times instead of twice."""
    def mutant(polys, eps, spec):
        block, copies = real(polys, eps, spec)
        return block, 3 if copies == 2 else copies
    return mutant


def rank_one_short(real):
    """Every nonzero GF(2) rank one short, as if elimination lost its last pivot."""
    return lambda matrix: max(real(matrix) - 1, 0)


def run_columns_bit_by_bit(real):
    """Non-defect: the run path's columns summed one face at a time in plain Python."""
    return run_boundary_by_faces


_GRID_ORACLE_ROWS = [f"grid-oracle-{name}" for name in
                     ("products-k2", "shell-k2", "products-k3", "products-k4", "shell-k3")]
_LIFT_ROWS = ["double-cover-products-k1", "deformation-products-k1", "double-cover-products-k2",
              "double-cover-shell-k2", "deformation-shell-k2"]

# Ten rows: not grid-oracle-products-k4 or double-cover-products-k2.
_RANK_ROWS = ["grid-oracle-products-k2", "grid-oracle-shell-k2", "smith-cone", "alexander-equator",
              "double-cover-products-k1", "deformation-products-k1", "grid-oracle-products-k3",
              "grid-oracle-shell-k3", "double-cover-shell-k2", "deformation-shell-k2"]

# defect -> (the names it replaces, each a module and a dotted path in it, with
# their mutants; the overall verdict of `verify --full`; the rows it moves off
# PASS, with their verdicts)
LEDGER = {
    "box-copies-doubled": ({"harness.grid_block": box_copies_doubled}, INCONCLUSIVE,
                           dict.fromkeys(_GRID_ORACLE_ROWS, INCONCLUSIVE)),
    "cap-copies-three": ({"harness.sphere_region_block": cap_copies_three}, INCONCLUSIVE,
                         dict.fromkeys(_LIFT_ROWS, INCONCLUSIVE)),
    "rank-one-short": ({"exact.GF2Matrix.rank": rank_one_short}, INCONCLUSIVE,
                       dict.fromkeys(_RANK_ROWS, INCONCLUSIVE)),
}
# non-defect -> the names it replaces, with their stand-ins
NON_DEFECTS = {
    "whole-sets-one-copy": {"harness.grid_block": whole_box, "harness.sphere_region_block": whole_lift},
    "run-columns-bit-by-bit": {"homology._run_boundary": run_columns_bit_by_bit},
}
_MODULES = {"harness": harness, "homology": homology, "exact": exact}


def _install(monkeypatch, replacements):
    """Install each replacement on the name it targets, counting the calls each one takes."""
    calls = collections.Counter()
    for target, make in replacements.items():
        module, *path, name = target.split(".")
        owner = functools.reduce(getattr, path, _MODULES[module])
        def counted(*args, _fn=make(getattr(owner, name)), _target=target):
            calls[_target] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name", LEDGER)
def test_defect_moves_its_rows(name, monkeypatch):
    replacements, verdict, moved = LEDGER[name]
    calls = _install(monkeypatch, replacements)
    verdicts = {r["name"]: r["verdict"] for r in run_verification_suite(seed=0, full=True)}
    assert set(calls) == set(replacements)
    assert overall(list(verdicts.values())) == verdict
    assert {row: v for row, v in verdicts.items() if v != PASS} == moved


@pytest.mark.parametrize("name", NON_DEFECTS)
def test_non_defect_keeps_verify_full_byte_identical(name, monkeypatch, capsys):
    replacements = NON_DEFECTS[name]
    calls = _install(monkeypatch, replacements)
    assert main(VERIFY_FULL) == 0
    assert capsys.readouterr().out == RECORDED
    assert set(calls) == set(replacements)
