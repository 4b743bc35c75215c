"""The mutant ledger: seeded engine defects and how `verify --full` reads under each.

A mutant replaces names in `harness`, `homology` or `exact`, where their
callers look them up, and `verify --seed 0 --full` runs under it.  A defect
row records the overall verdict and every row it moves off PASS, with that
row's verdict; every other row must stay PASS.  A non-defect row swaps in
code that is slower but right, and the JSON output must stay byte for byte
the recorded one.

The rows cover the fold contract, where `grid_block` and
`sphere_region_block` each return one block and its copies, and the audits
rank the block and multiply its vector by the copies; the rank phase,
where the run path assembles its boundary columns and `GF2Matrix` ranks
them; the Betti vectors the audits read, the products oracle and the two
bounds they compare with; and the Mayer-Vietoris check.  Blind-spot rows
are defects that leave every row at PASS.  `NEGATIVE_CONTROLS` names, for
every audit of `cli.AUDITS`, a control that reads VIOLATION or the open
ROADMAP items that will add one.
"""

import collections
import dataclasses
import functools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import run_boundary_by_faces

from quadbetti import exact, harness, homology, quadforms
from quadbetti.cli import AUDITS, main
from quadbetti.harness import INCONCLUSIVE, PASS, VIOLATION, overall, run_verification_suite

VERIFY_FULL = ["verify", "--seed", "0", "--full", "--format", "json"]
(RECORDED,) = [c["stdout"] for c in json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
               if c["argv"] == VERIFY_FULL]


def whole_box(real):
    """Non-defect: the whole box, one copy."""
    return lambda system, spec: (quadforms.grid_complex(system, spec), 1)


def whole_lift(real):
    """Non-defect: the whole lift, one copy."""
    return lambda polys, eps, width, dim: (quadforms.sphere_region_complex(polys, eps, width, dim), 1)


def box_copies_doubled(real):
    """Every box counted as twice the copies it folds into."""
    def mutant(system, spec):
        block, copies = real(system, spec)
        return block, 2 * copies
    return mutant


def cap_copies_three(real):
    """Every polar cap counted three times instead of twice."""
    def mutant(polys, eps, width, dim):
        block, copies = real(polys, eps, width, dim)
        return block, 3 if copies == 2 else copies
    return mutant


def rank_one_short(real):
    """Every nonzero GF(2) rank one short, as if elimination lost its last pivot."""
    return lambda matrix: max(real(matrix) - 1, 0)


def rank_one_short_unclamped(real):
    """Every GF(2) rank one short, an empty map's -1 included."""
    return lambda matrix: real(matrix) - 1


def run_columns_bit_by_bit(real):
    """Non-defect: the run path's columns summed one face at a time in plain Python."""
    return run_boundary_by_faces


def bound_one_term_short(real):
    """Every per-degree bound summed to j = min(s, k - i) - 1, one term short."""
    def mutant(s, k, i):
        j = min(s, k - i)
        return real(s, k, i) - Fraction(math.comb(s, j) * math.comb(k + 1, j) * 2**j, 2)
    return mutant


def bound_times_100(real):
    """Every per-degree bound 100 times too large."""
    return lambda s, k, i: 100 * real(s, k, i)


def bound_without_half(real):
    """Every per-degree bound without its factor 1/2."""
    return lambda s, k, i: 2 * real(s, k, i)


def top_betti_one_short(real):
    """The highest nonzero b_d, d >= 1, of every vector one short."""
    def mutant(cx):
        vec = list(real(cx))
        top = [d for d in range(1, len(vec)) if vec[d]]
        if top:
            vec[top[-1]] -= 1
        return tuple(vec)
    return mutant


def b0_one_more(real):
    """Every b_0 one more."""
    def mutant(cx):
        vec = real(cx)
        return (vec[0] + 1,) + tuple(vec[1:])
    return mutant


def products_oracle_b0_one_short(real):
    """The products scenarios' hand oracle with b_0 one short."""
    def mutant(k):
        sc = real(k)
        return dataclasses.replace(sc, oracle_betti=(sc.oracle_betti[0] - 1,) + sc.oracle_betti[1:])
    return mutant


def b_ci_quarter(real):
    """The complete-intersection bound the Smith audit compares with, a quarter of its value."""
    return lambda j, k, degrees: Fraction(real(j, k, degrees), 4)


def b_ci_times_100(real):
    """The complete-intersection bound the Smith audit compares with, 100 times too large."""
    return lambda j, k, degrees: 100 * real(j, k, degrees)


def mv_always_pass(real):
    """The Mayer-Vietoris check that never reads VIOLATION."""
    return lambda union_betti, piece_betti, i: PASS


_GRID_ORACLE_ROWS = [f"grid-oracle-{name}" for name in
                     ("products-k2", "shell-k2", "products-k3", "products-k4", "shell-k3")]
_LIFT_ROWS = ["double-cover-products-k1", "deformation-products-k1", "double-cover-products-k2",
              "double-cover-shell-k2", "deformation-shell-k2"]

# Ten rows: not grid-oracle-products-k4 or double-cover-products-k2.
_RANK_ROWS = ["grid-oracle-products-k2", "grid-oracle-shell-k2", "smith-cone", "alexander-equator",
              "double-cover-products-k1", "deformation-products-k1", "grid-oracle-products-k3",
              "grid-oracle-shell-k3", "double-cover-shell-k2", "deformation-shell-k2"]
# Every row that ranks a grid set: the ten above, grid-oracle-products-k4 and double-cover-products-k2.
_GRID_ROWS = _RANK_ROWS + ["grid-oracle-products-k4", "double-cover-products-k2"]
# The grid rows whose vectors have a nonzero b_d, d >= 1.
_TOP_ROWS = ["grid-oracle-shell-k2", "smith-cone", "alexander-equator", "grid-oracle-shell-k3",
             "double-cover-shell-k2", "deformation-shell-k2"]
# The rows that read the products oracle: the grid-oracle rows and the oracle base of double-cover.
_PRODUCTS_ORACLE_ROWS = ["grid-oracle-products-k2", "double-cover-products-k1", "grid-oracle-products-k3",
                         "grid-oracle-products-k4", "double-cover-products-k2"]

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
    "rank-one-short-unclamped": ({"exact.GF2Matrix.rank": rank_one_short_unclamped}, INCONCLUSIVE,
                                 dict.fromkeys(_RANK_ROWS, INCONCLUSIVE)),
    "bound-one-term-short": ({"harness.bound_betti": bound_one_term_short}, VIOLATION,
                             dict.fromkeys(["bounds-products-k1", "bounds-shell-k2", "bounds-shell-k3"], VIOLATION)),
    "top-betti-one-short": ({"harness.betti": top_betti_one_short}, VIOLATION,
                            {**dict.fromkeys(_TOP_ROWS, INCONCLUSIVE), "mv-disjoint": VIOLATION}),
    "b0-one-more": ({"harness.betti": b0_one_more}, INCONCLUSIVE, dict.fromkeys(_GRID_ROWS, INCONCLUSIVE)),
    "products-oracle-b0-one-short": ({"harness.scenario_products": products_oracle_b0_one_short}, INCONCLUSIVE,
                                     dict.fromkeys(_PRODUCTS_ORACLE_ROWS, INCONCLUSIVE)),
    "b-ci-quarter": ({"harness.b_ci": b_ci_quarter}, INCONCLUSIVE, {"smith-cone": INCONCLUSIVE}),
    # Blind spots: defects that leave every row at PASS.  A looser bound is
    # never contradicted by a true vector, and no verify row reaches the
    # VIOLATION branch of the Mayer-Vietoris check.
    "bound-times-100": ({"harness.bound_betti": bound_times_100}, PASS, {}),
    "bound-without-half": ({"harness.bound_betti": bound_without_half}, PASS, {}),
    "b-ci-times-100": ({"harness.b_ci": b_ci_times_100}, PASS, {}),
    "mv-always-pass": ({"harness.mayer_vietoris_audit": mv_always_pass}, PASS, {}),
}
# non-defect -> the names it replaces, with their stand-ins
NON_DEFECTS = {
    "whole-sets-one-copy": {"harness.grid_block": whole_box, "harness.sphere_region_block": whole_lift},
    "run-columns-bit-by-bit": {"homology._run_boundary": run_columns_bit_by_bit},
}
_MODULES = {"harness": harness, "homology": homology, "exact": exact}

# Each `cli.AUDITS` name -> how it is shown able to fail: ("ledger", defect,
# row), a LEDGER defect that moves that verify row to VIOLATION; ("audit",
# name), an audit that runs the same check on fabricated data and reads
# VIOLATION; or ("roadmap", items), the open ROADMAP items that will add one,
# at least one item per name.
NEGATIVE_CONTROLS = {
    "products-bounds": ("ledger", "bound-one-term-short", "bounds-products-k1"),
    "shell-bounds": ("ledger", "bound-one-term-short", "bounds-shell-k2"),
    "smith-cone": ("roadmap", (9, 12, 25)),
    "double-cover-products": ("roadmap", (13,)),
    "deformation-products": ("roadmap", (10,)),
    "alexander-equator": ("roadmap", (22, 24)),
    "mv-wedge": ("audit", "mv-fabricated-violation"),
    "mv-disjoint": ("ledger", "top-betti-one-short", "mv-disjoint"),
    "mv-three": ("audit", "mv-fabricated-violation"),
    "mv-fabricated-violation": ("audit", "mv-fabricated-violation"),
}


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


def test_unclamped_rank_one_short_reads_a_verdict(monkeypatch, capsys):
    """An engine fault reads as a verdict, never as a usage error (exit 2)."""
    _install(monkeypatch, {"exact.GF2Matrix.rank": rank_one_short_unclamped})
    assert main(["verify", "--seed", "0", "--full"]) in (1, 3)
    assert "error" not in capsys.readouterr().err


def test_every_audit_has_a_negative_control_or_an_item(capsys):
    assert set(NEGATIVE_CONTROLS) == set(AUDITS)
    for kind, *ref in NEGATIVE_CONTROLS.values():
        if kind == "ledger":
            defect, row = ref
            assert LEDGER[defect][2][row] == VIOLATION
        elif kind == "audit":
            assert main(["audit", "--name", ref[0]]) == 1
        else:
            assert kind == "roadmap" and ref[0] and all(isinstance(item, int) for item in ref[0])
