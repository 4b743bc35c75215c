"""The mutant ledger: seeded engine defects and how `verify --full` reads under each.

A mutant replaces names in `harness`, `homology` or `exact`, where their
callers look them up, and `verify --seed 0 --full` runs under it.  A defect
row records the overall verdict and every row it moves off PASS, with that
row's verdict; every other row must stay PASS.  A non-defect row swaps in
code that is slower but right, and the JSON output must stay byte for byte
the recorded one.

`LEDGER`'s 13 defects cover the fold contract (`grid_block` and
`sphere_region_block` return one block and its copies, and the audits
multiply the block's vector by the copies), the rank phase (the run path's
boundary columns and `GF2Matrix.rank`), the Betti vectors the audits read,
the products oracle, the two bounds and the Mayer-Vietoris check; blind-spot
rows are defects that leave every row at PASS.  `CONTROLS` holds 5 coarse
negative controls in the same shape, kept out of that count; with `LEDGER`
they move every verify row off PASS.  `NEGATIVE_CONTROLS` names, for each
`cli.AUDITS` name, the entry that drives `quadbetti audit` off PASS and how
the audit can read VIOLATION.  A new verify row joins the moved rows of the
entries that move it; a new audit name takes a `NEGATIVE_CONTROLS` row.
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
from quadbetti.cli import main
from quadbetti.exact import QuadraticForm
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


def odd_sphere_total(real):
    """Every Betti vector a single point's, so a sphere's total is odd and antipodal pairing breaks."""
    return lambda cx: (1, 0, 0, 0)


def inflated_b1(real):
    """Every b_1 one more."""
    def mutant(cx):
        vec = tuple(real(cx)) + (0, 0)
        return vec[:1] + (vec[1] + 1,) + vec[2:]
    return mutant


def b1_per_cell(real):
    """Every b_1 times the cell count, so a Mayer-Vietoris union's b_1 outgrows its pieces' sum."""
    def mutant(cx):
        vec = tuple(real(cx)) + (0, 0)
        return vec[:1] + (vec[1] * len(cx),) + vec[2:]
    return mutant


def zero_bound(real):
    """Every per-degree bound 0."""
    return lambda s, k, i: Fraction(0)


def huge_family(real):
    """A deformation family a million times too large, so t = 1/1000 is no small step."""
    return lambda n, seed: QuadraticForm.make(n, [[10**6 * a for a in row] for row in real(n, seed).gram])


_GRID_ORACLE_ROWS = [f"grid-oracle-{name}" for name in
                     ("products-k2", "shell-k2", "products-k3", "products-k4", "shell-k3")]
_LIFT_ROWS = ["double-cover-products-k1", "deformation-products-k1", "double-cover-products-k2",
              "double-cover-shell-k2", "deformation-shell-k2"]
_BOUNDS_ROWS = [f"bounds-{name}" for name in ("products-k1", "products-k2", "products-k3", "shell-k2", "shell-k3")]

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
# negative control -> LEDGER's shape, kept out of its count of defects.  These move the
# four rows LEDGER leaves at PASS: bounds-products-k2, bounds-products-k3, mv-wedge, mv-three-arcs.
CONTROLS = {
    "bound-zero": ({"harness.bound_betti": zero_bound}, VIOLATION, dict.fromkeys(_BOUNDS_ROWS, VIOLATION)),
    # alexander-equator compares two point vectors, which agree, and products-k3
    # folds into copies of a point in R^3, whose vector is the mutant's.
    "sphere-total-odd": ({"harness.betti": odd_sphere_total}, INCONCLUSIVE, dict.fromkeys(
        set(_GRID_ROWS) - {"alexander-equator", "grid-oracle-products-k3"}, INCONCLUSIVE)),
    "b1-one-more": ({"harness.betti": inflated_b1}, INCONCLUSIVE, dict.fromkeys(_GRID_ROWS, INCONCLUSIVE)),
    # products-k1's lifted cell sets at t = 0 and t = 1/1000 are the same,
    # so no engine mutant moves its deformation row; an oversized family does.
    # shell-k2's cell sets at t = 0 and t = 1/1000 differ while their Betti
    # vectors agree, so its row passes and this mutant drives it off PASS.
    "b1-per-cell": ({"harness.betti": b1_per_cell}, VIOLATION,
                    {**dict.fromkeys(set(_GRID_ROWS) - {"deformation-products-k1"}, INCONCLUSIVE),
                     **dict.fromkeys(["mv-wedge", "mv-disjoint", "mv-three-arcs"], VIOLATION)}),
    "family-times-a-million": ({"harness.random_pd_form": huge_family}, INCONCLUSIVE,
                               dict.fromkeys(["deformation-products-k1", "deformation-shell-k2"], INCONCLUSIVE)),
}
_ENTRIES = {**LEDGER, **CONTROLS}
_MODULES = {"harness": harness, "homology": homology, "exact": exact}

# Each `cli.AUDITS` name -> (the `_ENTRIES` entry that drives `quadbetti
# audit --name` off PASS at the command line's defaults, or None where the
# audit fails there unmutated; its verdict and exit code; how it is shown able
# to read VIOLATION: ("ledger", defect, row), a LEDGER defect that moves that
# verify row to VIOLATION; ("audit", name), an audit that runs the same check
# on fabricated data; or ("roadmap", items), the open ROADMAP items that will
# add one).  deformation-products fails at its default t = 1/1000, past a sign
# change that moves the products-k2 vector (8, 0, 0, 0) to (2, 2, 0, 0).
NEGATIVE_CONTROLS = {
    "products-bounds": ("bound-zero", VIOLATION, 1, ("ledger", "bound-one-term-short", "bounds-products-k1")),
    "shell-bounds": ("bound-zero", VIOLATION, 1, ("ledger", "bound-one-term-short", "bounds-shell-k2")),
    "smith-cone": ("sphere-total-odd", INCONCLUSIVE, 3, ("roadmap", (9, 12, 25))),
    "double-cover-products": ("b1-one-more", INCONCLUSIVE, 3, ("roadmap", (13,))),
    "deformation-products": (None, INCONCLUSIVE, 3, ("roadmap", (10,))),
    "alexander-equator": ("b1-one-more", INCONCLUSIVE, 3, ("roadmap", (22, 24))),
    "mv-wedge": ("b1-per-cell", VIOLATION, 1, ("audit", "mv-fabricated-violation")),
    "mv-disjoint": ("b1-per-cell", VIOLATION, 1, ("ledger", "top-betti-one-short", "mv-disjoint")),
    "mv-three": ("b1-per-cell", VIOLATION, 1, ("audit", "mv-fabricated-violation")),
    "mv-fabricated-violation": (None, VIOLATION, 1, ("audit", "mv-fabricated-violation")),
}


def _install(monkeypatch, replacements):
    """Install each replacement on the name it targets, counting the calls each one takes."""
    calls = collections.Counter()
    def counting(target, fn):
        def counted(*args, **kwargs):
            calls[target] += 1
            return fn(*args, **kwargs)
        return counted
    for target, make in replacements.items():
        module, *path, name = target.split(".")
        owner = functools.reduce(getattr, path, _MODULES[module])
        monkeypatch.setattr(owner, name, counting(target, make(getattr(owner, name))))
    return calls


@pytest.mark.parametrize("name", _ENTRIES)
def test_defect_moves_its_rows(name, monkeypatch):
    replacements, verdict, moved = _ENTRIES[name]
    calls = _install(monkeypatch, replacements)
    verdicts = {r["name"]: r["verdict"] for r in run_verification_suite(seed=0, full=True)}
    assert set(calls) == set(replacements)
    assert overall(list(verdicts.values())) == verdict
    assert {row: v for row, v in verdicts.items() if v != PASS} == moved


def test_ledger_and_controls_move_every_verify_row():
    assert not LEDGER.keys() & CONTROLS.keys()
    rows = {r["name"] for r in json.loads(RECORDED)["results"]}
    assert set().union(*(moved for _, _, moved in _ENTRIES.values())) == rows


@pytest.mark.parametrize("name", NON_DEFECTS)
def test_non_defect_keeps_verify_full_byte_identical(name, monkeypatch, capsys):
    replacements = NON_DEFECTS[name]
    calls = _install(monkeypatch, replacements)
    assert main(VERIFY_FULL) == 0
    assert capsys.readouterr().out == RECORDED
    assert set(calls) == set(replacements)


def test_install_forwards_keyword_arguments(monkeypatch, capsys):
    """The suite calls `deformation_audit` with keywords, once per deformation row."""
    calls = _install(monkeypatch, {"harness.deformation_audit": lambda real: real})
    assert main(VERIFY_FULL) == 0
    assert capsys.readouterr().out == RECORDED
    assert calls == {"harness.deformation_audit": 2}


def test_unclamped_rank_one_short_reads_a_verdict(monkeypatch, capsys):
    """An engine fault reads as a verdict, never as a usage error (exit 2)."""
    _install(monkeypatch, {"exact.GF2Matrix.rank": rank_one_short_unclamped})
    assert main(["verify", "--seed", "0", "--full"]) in (1, 3)
    assert "error" not in capsys.readouterr().err


def test_every_audit_has_a_negative_control_or_an_item(capsys):
    """Each row's VIOLATION reference holds; `test_harness` checks that the rows cover `cli.AUDITS`."""
    for *_, (kind, *ref) in NEGATIVE_CONTROLS.values():
        if kind == "ledger":
            assert LEDGER[ref[0]][2][ref[1]] == VIOLATION
        elif kind == "audit":
            assert main(["audit", "--name", ref[0]]) == 1
        else:
            assert kind == "roadmap" and ref[0] and all(isinstance(item, int) for item in ref[0])


@pytest.mark.parametrize("name", NEGATIVE_CONTROLS)
def test_negative_control_drives_audit_off_pass(name, monkeypatch, capsys):
    entry, verdict, code, _ = NEGATIVE_CONTROLS[name]
    replacements = _ENTRIES[entry][0] if entry else {}
    calls = _install(monkeypatch, replacements)
    assert main(["audit", "--name", name, "--format", "json"]) == code
    doc = json.loads(capsys.readouterr().out)
    assert doc.get("verdict", doc.get("overall")) == verdict
    assert set(calls) == set(replacements)
