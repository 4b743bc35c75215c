"""Unit tests for scenarios, audits and report serialization."""

import dataclasses
import inspect
import itertools
import json
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from test_homology import cells_of_dim, same_complex

from quadbetti import cli, exact, harness, homology, quadforms
from quadbetti.cli import main
from quadbetti.harness import (
    INCONCLUSIVE,
    PASS,
    VIOLATION,
    Scenario,
    alexander_equator_audit,
    bound_audit,
    deformation_audit,
    double_cover_audit,
    mv_disjoint_example,
    mv_fabricated_example,
    mv_three_arc_example,
    mv_wedge_example,
    pad_betti,
    run_verification_suite,
    scenario_products,
    scenario_shell,
    smith_audit,
)
from quadbetti.exact import QuadraticForm, QuadraticPoly, positive
from quadbetti.homology import betti
from quadbetti.quadforms import (
    DeformationParams,
    GridSpec,
    grid_complex,
    sphere_band_complex,
    sphere_zero_complex,
    sphere_zero_split,
)


CONE = QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])


# Named mutants: each takes the real `harness` global and returns the wrong one.


def odd_sphere_total(real):
    """An engine whose sphere vector breaks antipodal pairing."""
    return lambda cx: (1, 0, 0, 0)


def inflated_b1(real):
    """An engine that adds 1 to every b_1."""
    def inflated(cx):
        vec = tuple(real(cx)) + (0, 0)
        return vec[:1] + (vec[1] + 1,) + vec[2:]
    return inflated


def b1_per_cell(real):
    """An engine that counts each 1-cycle once per cell of the complex, so the
    b_1 of a Mayer-Vietoris union outgrows the sum over its smaller pieces."""
    def scaled(cx):
        vec = tuple(real(cx)) + (0, 0)
        return vec[:1] + (vec[1] * len(cx),) + vec[2:]
    return scaled


def zero_bound(real):
    """A per-degree bound of 0."""
    return lambda s, k, i: Fraction(0)


def huge_family(real):
    """A deformation family a million times too large, so t = 1/1000 is no small step."""
    return lambda n, seed: QuadraticForm.make(n, [[10**6 * a for a in row] for row in real(n, seed).gram])


def diagonal_form(*diag):
    n = len(diag)
    return QuadraticForm.make(n, [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])


class TestScenarios:
    def test_products_oracles(self):
        assert scenario_products(1).oracle_betti == (2, 0)
        assert scenario_products(3).oracle_betti == (8, 0, 0, 0)

    def test_products_grid_k2(self):
        sc = scenario_products(2)
        vec = pad_betti(betti(grid_complex(sc.system, sc.grid)), 3)
        assert vec == (4, 0, 0)

    def test_products_range(self):
        with pytest.raises(ValueError):
            scenario_products(0)
        with pytest.raises(ValueError):
            scenario_products(7)

    def test_shell_oracles(self):
        assert scenario_shell(2, Fraction(1, 2), 1).oracle_betti == (1, 1, 0)
        assert scenario_shell(3, Fraction(1, 2), 1).oracle_betti == (1, 0, 1, 0)

    def test_shell_bad_radii(self):
        with pytest.raises(ValueError):
            scenario_shell(2, 1, 1)
        with pytest.raises(ValueError):
            scenario_shell(2, 2, 1)

    def test_shell_rejects_float_radii(self):
        with pytest.raises(TypeError):
            scenario_shell(2, 0.1, 1)

    def test_scenario_validation(self):
        grid = GridSpec(box=((0, 1),), resolution=Fraction(1, 2))
        with pytest.raises(ValueError):
            Scenario(name="bad", system=(), s=1, k=1, grid=grid)
        with pytest.raises(ValueError):
            Scenario(name="bad", system=(), s=0, k=1, grid=grid, oracle_betti=(1,))

    def test_scenario_axes_must_be_k(self):
        sc = scenario_products(1)
        with pytest.raises(ValueError, match="^grid has 1 axes, scenario has k=3$"):
            Scenario(name="bad", system=sc.system, s=1, k=3, grid=sc.grid)
        with pytest.raises(ValueError, match="^polynomial has 1 variables, scenario has k=2$"):
            Scenario(name="bad", system=sc.system, s=1, k=2, grid=scenario_products(2).grid)


# Each public entry point that takes a rational, called with one value in
# the place it reads.  Every other argument leaves room for all the
# accepted values: the deformation t sits below a delta of 4, and its
# scenario box then leaves the ball, so the audit stops before any grid.
RATIONAL_ENTRY_POINTS = {
    "positive": lambda v: positive(v, "value"),
    "form-gram": lambda v: QuadraticForm.make(1, [[v]]),
    "blend-t": lambda v: QuadraticPoly.make(1).blend(QuadraticPoly.make(1, const=1), v),
    "evaluate-point": lambda v: QuadraticPoly.make(1, quad=[[1]]).evaluate([v]),
    "poly-quad": lambda v: QuadraticPoly.make(1, quad=[[v]]),
    "poly-lin": lambda v: QuadraticPoly.make(1, lin=[v]),
    "poly-const": lambda v: QuadraticPoly.make(1, const=v),
    "grid-box": lambda v: GridSpec(box=((0, v),), resolution=Fraction(1, 2)),
    "grid-resolution": lambda v: GridSpec(box=((0, 3),), resolution=v),
    "symmetric-half-width": lambda v: GridSpec.symmetric(v, Fraction(1, 2), 1),
    "symmetric-resolution": lambda v: GridSpec.symmetric(1, v, 1),
    "params-eps": lambda v: DeformationParams(eps=v, delta=Fraction(1, 4)),
    "params-delta": lambda v: DeformationParams(eps=4, delta=v),
    "shell-r-in": lambda v: scenario_shell(2, v, 4),
    "shell-r-out": lambda v: scenario_shell(2, Fraction(1, 4), v),
    "smith-radius": lambda v: smith_audit([CONE], radius=v),
    "deformation-t": lambda v: deformation_audit(scenario_products(1), DeformationParams(eps=5, delta=4),
                                                 t_values=(0, v)),
    "double-cover-resolution": lambda v: double_cover_audit(scenario_products(1), sphere_resolution=v),
}


@pytest.mark.parametrize("value", [0.5, "0.5", "1e3", True, Decimal("0.5")], ids=repr)
@pytest.mark.parametrize("entry", RATIONAL_ENTRY_POINTS)
def test_rational_entry_points_refuse_inexact_values(entry, value):
    """The library reads rationals as the command line does: every message
    below is one of `parse_rational`'s."""
    with pytest.raises((TypeError, ValueError), match="rational"):
        RATIONAL_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", ["1/2", Fraction(1, 2), 3, np.int64(3)], ids=repr)
@pytest.mark.parametrize("entry", RATIONAL_ENTRY_POINTS)
def test_rational_entry_points_accept_exact_values(entry, value):
    RATIONAL_ENTRY_POINTS[entry](value)


def test_perfbench_reads_the_exact_names_from_their_old_homes(monkeypatch):
    """`perfbench` imports `QuadraticPoly` from `quadforms` and patches `rank`
    on `homology.GF2Matrix`: both are the `exact` objects, so a patched rank
    sees every rank `betti` takes, cell by cell and run by run."""
    assert quadforms.QuadraticPoly is exact.QuadraticPoly
    assert homology.GF2Matrix is exact.GF2Matrix
    rank = exact.GF2Matrix.rank
    seen = []
    monkeypatch.setattr(exact.GF2Matrix, "rank", lambda m: seen.append(m.n_cols) or rank(m))
    circle = sphere_band_complex(1, Fraction(1, 4), 2)
    sc = scenario_shell(3, Fraction(1, 2), 1)
    shell = grid_complex(sc.system, sc.grid)
    assert len(circle) < homology._COLLAPSE_MIN_CELLS <= len(shell)
    for cx, vec in ((circle, (1, 1, 0)), (shell, (1, 0, 1, 0))):
        seen.clear()
        assert betti(cx) == vec
        assert seen


class TestBoundAudit:
    def test_products3_oracle(self):
        rep = bound_audit(scenario_products(3))
        assert rep.overall == PASS
        assert rep.rows[0].betti == 8
        assert rep.rows[0].bound == Fraction(129, 2)

    def test_shell2_oracle(self):
        rep = bound_audit(scenario_shell(2, Fraction(1, 2), 1))
        assert rep.overall == PASS
        assert rep.rows[1].betti == 1
        assert rep.rows[1].bound == Fraction(13, 2)

    def test_products1(self):
        rep = bound_audit(scenario_products(1))
        assert rep.overall == PASS
        assert rep.rows[0].betti == 2
        assert rep.rows[0].bound == Fraction(5, 2)

    def test_fabricated_oracle_violates(self):
        sc = scenario_products(1)
        fake = Scenario(
            name="fake",
            system=sc.system,
            s=1,
            k=1,
            grid=sc.grid,
            oracle_betti=(1000, 0),
            oracle_note="deliberately wrong",
        )
        rep = bound_audit(fake)
        assert rep.overall == VIOLATION

    def test_grid_rows_never_violate(self):
        sc = scenario_products(2)
        rep = bound_audit(sc, sc.grid)
        verdicts = {r.verdict for r in rep.rows} | {rep.total.verdict}
        assert VIOLATION not in verdicts

    @staticmethod
    def boxed_products2(oracle=(4, 0, 0)):
        """products-k2 with its box [-1, 2]^2 as two more rows (x_t + 1)(2 - x_t) >= 0: s = 4 > k."""
        sc = scenario_products(2)
        box_rows = (QuadraticPoly.make(2, quad=[[-1, 0], [0, 0]], lin=[1, 0], const=2),
                    QuadraticPoly.make(2, quad=[[0, 0], [0, -1]], lin=[0, 1], const=2))
        return Scenario(name="boxed-products-k2", system=sc.system + box_rows, s=4, k=2,
                        grid=sc.grid, oracle_betti=oracle, oracle_note="4 squares")

    def test_boxed_set_with_s_above_k(self):
        sc = self.boxed_products2()
        assert [p.evaluate((3, 0)) for p in sc.system[2:]] == [-4, 2]  # (3 + 1)(2 - 3), (0 + 1)(2 - 0)
        for spec in (None, sc.grid):
            rep = bound_audit(sc, spec)
            assert rep.overall == PASS
            assert [r.bound for r in rep.rows] == [Fraction(97, 2), Fraction(25, 2)]
        assert betti(grid_complex(sc.system, sc.grid)) == (4, 0, 0)

    def test_three_intervals_with_s_above_k(self):
        polys = tuple(QuadraticPoly.make(1, quad=[[1]], lin=[-a - b], const=a * b) for a, b in ((0, 1), (2, 3)))
        grid = GridSpec(box=((-1, 4),), resolution=Fraction(1, 4))
        sc = Scenario(name="three-intervals", system=polys, s=2, k=1, grid=grid,
                      oracle_betti=(3, 0), oracle_note="(-inf, 0], [1, 2], [3, inf)")
        for spec in (None, grid):
            rep = bound_audit(sc, spec)
            assert rep.overall == PASS
            assert (rep.rows[0].betti, rep.rows[0].bound) == (3, Fraction(9, 2))
        assert betti(grid_complex(polys, grid)) == (3, 0)

    def test_inflated_oracle_violates_with_s_above_k(self):
        rep = bound_audit(self.boxed_products2(oracle=(49, 0, 0)))  # b_0 bound 97/2
        assert rep.overall == VIOLATION
        assert rep.rows[0].verdict == VIOLATION

    def test_missing_oracle(self):
        sc = scenario_products(1)
        no_oracle = Scenario(
            name="n", system=sc.system, s=1, k=1, grid=sc.grid
        )
        with pytest.raises(ValueError):
            bound_audit(no_oracle)

    def test_report_field_names(self):
        doc = bound_audit(scenario_products(2)).to_dict()
        assert set(doc) >= {"scenario", "s", "k", "rows", "overall"}
        row = doc["rows"][0]
        assert set(row) == {"i", "betti", "bound_num", "bound_den", "verdict"}
        json.dumps(doc)  # serializable

    def test_products_k6_grid_is_ranked_as_one_orthant_block(self):
        # The 12^6-cell box keeps 2^6 solid blocks; closed whole it would
        # allocate several hundred MB, folded to one block about 11 MB.
        sc = scenario_products(6)
        tracemalloc.start()
        try:
            rep = bound_audit(sc, sc.grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.overall == PASS
        assert [r.betti for r in rep.rows] == [64, 0, 0, 0, 0, 0] and rep.total.betti == 64
        assert peak < 64 * 2**20

    def test_every_oracle_scenario_passes(self):
        scenarios = [scenario_products(k) for k in (1, 2, 3, 4)]
        scenarios.append(scenario_shell(2, Fraction(1, 2), 1))
        scenarios.append(scenario_shell(3, Fraction(1, 2), 1))
        for sc in scenarios:
            assert bound_audit(sc).overall == PASS


class TestSmithAudit:
    def test_cone_equality_case(self):
        rep = smith_audit([CONE])
        assert rep.verdict == PASS
        assert rep.sphere_total == 4
        assert rep.projective_total == 2
        assert rep.bound == 2
        assert rep.sphere_total % 2 == 0

    def test_point_pair_on_circle(self):
        # x1^2 - 2 x2^2 cuts the circle in four points, two projectively
        f = QuadraticForm.make(2, [[1, 0], [0, -2]])
        rep = smith_audit([f])
        assert rep.verdict == PASS
        assert rep.sphere_total == 4
        assert rep.projective_total == 2 == rep.bound

    def test_empty_real_zero_set(self):
        pos = QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        rep = smith_audit([pos])
        assert rep.verdict == PASS
        assert rep.sphere_total == 0

    def test_singular_form_rejected(self):
        singular = QuadraticForm.make(3, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError):
            smith_audit([singular])

    def test_float_radius_rejected(self):
        with pytest.raises(TypeError):
            smith_audit([CONE], radius=0.5)

    def test_singular_pencil_rejected(self):
        # Each form is nonsingular, but det(A + tB) = (t^2 - 1)^2: V(A, B) is four real
        # lines meeting in a cycle, outside the theorem (Segre's criterion).
        a, b = diagonal_form(1, 1, -1, -1), diagonal_form(1, -1, 1, -1)
        with pytest.raises(ValueError, match=r"repeated roots, those of t\^2 - 1"):
            smith_audit([a, b])

    def test_pencil_repeated_rational_root_named(self):
        # det(A + tB) = (1 + t)^2 (1 + 2t)(1 + 3t)
        with pytest.raises(ValueError, match="repeated root t = -1$"):
            smith_audit([diagonal_form(1, 1, 1, 1), diagonal_form(1, 1, 2, 3)])

    def test_smooth_pencil_accepted(self):
        # det(A + tB) has the distinct roots -1, -1/2, -1/3, -1/4; the real locus is empty
        a, b = diagonal_form(1, 1, -1, -1), diagonal_form(1, 2, -3, -4)
        assert smith_audit([a, b]).codim == 2
        rep = smith_audit([a, b], radius=2)
        assert (rep.verdict, rep.sphere_total, rep.bound) == (PASS, 0, 4)

    def test_smooth_pencil_with_real_curve(self):
        rep = smith_audit([diagonal_form(1, -1, 1, -1), diagonal_form(1, -2, 3, -4)])
        assert rep.verdict == PASS
        assert rep.sphere_betti == (2, 2, 0, 0, 0)
        assert (rep.projective_total, rep.bound) == (2, 4)

    def test_codimension_three_rejected(self):
        forms = [diagonal_form(1, 1, -1, -1, 1), diagonal_form(1, 2, -3, -4, 1),
                 diagonal_form(1, 1, 1, 1, -1)]
        with pytest.raises(ValueError, match="codimension 3 rejected"):
            smith_audit(forms)

    def test_coarse_grid_exceeds_bound(self):
        # Q grows like radius^2 but tau = radius/4 only like radius, so at
        # radius 5 the band around the cone's two circles breaks into 16 pieces
        rep = smith_audit([CONE], radius=5)
        assert rep.verdict == INCONCLUSIVE
        assert rep.sphere_betti == (16, 0, 0, 0)
        assert (rep.projective_total, rep.bound) == (8, 2)
        assert rep.note == "grid estimate exceeds the bound; refine the grid or tau"

    @pytest.mark.parametrize("forms, pinned", [
        ([CONE], {5: (16, 0, 0, 0), 10**22: (0, 0, 0, 0)}),
        ([diagonal_form(1, 1, -1, -1), diagonal_form(1, 2, -3, -4)], {1: (12, 8, 0, 0, 0), 2: (0,) * 5}),
    ], ids=["cone", "pencil"])
    def test_unit_sphere_reads_every_radius(self, forms, pinned):
        # Smith builds on the unit-sphere grid at tau 1/(4r).  The radius-r grid
        # at width r/8 and tau r/4 is that grid scaled by r, and the band test
        # and |Q| <= tau are homogeneous, so it keeps the same cells.
        n = forms[0].n
        for r in (1, 2, Fraction(1, 2), Fraction(3, 2), 3, 5, 10**22):
            r = Fraction(r)
            reference = sphere_zero_complex(forms, r, r / 8, r / 4)
            unit = sphere_zero_complex(forms, 1, Fraction(1, 8), 1 / (4 * r))
            assert unit.cells == reference.cells, r
            vec = betti(reference)
            assert smith_audit(forms, radius=r).sphere_betti == vec, r
            assert pinned.get(r, vec) == vec, r

    def test_odd_sphere_total_mutant(self, monkeypatch):
        monkeypatch.setattr(harness, "betti", odd_sphere_total(harness.betti))
        rep = smith_audit([CONE])
        assert rep.verdict == INCONCLUSIVE
        assert rep.sphere_total == 1
        assert rep.note == "sphere total is odd, antipodal pairing broken; refine the grid"


class TestDoubleCover:
    def test_products1_doubles_exactly(self):
        rep = double_cover_audit(scenario_products(1))
        assert rep.verdict == PASS
        assert rep.base_betti == (2, 0)
        assert rep.lifted_betti == (4, 0, 0)

    def test_empty_system_gives_two_caps(self):
        sc = Scenario(
            name="caps",
            system=(),
            s=0,
            k=1,
            grid=GridSpec(box=((-1, 1),), resolution=Fraction(1, 4)),
            oracle_betti=(1, 0),
            oracle_note="whole line truncated to a segment",
        )
        rep = double_cover_audit(sc)
        assert rep.verdict == PASS
        assert rep.lifted_betti[0] == 2

    def test_eps_too_large_is_inconclusive(self):
        rep = double_cover_audit(
            scenario_products(1), DeformationParams(eps=2, delta=1)
        )
        assert rep.verdict == INCONCLUSIVE
        assert "shrink eps" in rep.note

    def test_float_resolution_rejected(self):
        with pytest.raises(TypeError):
            double_cover_audit(scenario_products(1), sphere_resolution=1.25)

    def test_float_resolution_rejected_after_an_equal_fraction(self):
        # The lift grid is cached; 1/8 and 0.125 compare and hash equal.
        assert double_cover_audit(scenario_products(1), sphere_resolution=Fraction(1, 8)).verdict == PASS
        with pytest.raises(TypeError):
            double_cover_audit(scenario_products(1), sphere_resolution=0.125)

    def test_ball_boundary(self):
        # The products-k1 box [-1, 2] has corner^2 = 4 = (1/eps)^2 at eps = 1/2:
        # it fits the ball, and at eps = 51/100 it leaves it.
        sc = scenario_products(1)
        inside = DeformationParams(eps=Fraction(1, 2), delta=Fraction(1, 1000))
        outside = DeformationParams(eps=Fraction(51, 100), delta=Fraction(1, 1000))
        assert double_cover_audit(sc, inside).verdict == PASS
        assert deformation_audit(sc, inside).verdict == PASS
        for rep in (double_cover_audit(sc, outside), deformation_audit(sc, outside)):
            assert (rep.verdict, rep.note) == (INCONCLUSIVE, harness._BALL_NOTE)

    def test_shell2_lift(self):
        rep = double_cover_audit(scenario_shell(2, Fraction(1, 2), 1))
        assert rep.verdict == PASS
        assert rep.lifted_betti == (2, 2, 0, 0)

    def test_grid_base_without_oracle(self):
        sc = dataclasses.replace(scenario_products(1), oracle_betti=None)
        rep = double_cover_audit(sc)
        assert rep.verdict == PASS
        assert rep.base_source == "grid"
        assert rep.base_betti == (2, 0)
        assert rep.lifted_betti == (4, 0, 0)


class TestDeformation:
    def test_products1_constant(self):
        rep = deformation_audit(scenario_products(1))
        assert rep.verdict == PASS
        assert len(rep.betti_by_t) == 2
        assert len(set(rep.betti_by_t.values())) == 1

    @pytest.mark.parametrize("t_values", [(Fraction(0),), ()], ids=["t-zero", "empty"])
    def test_no_positive_t_rejected(self, t_values):
        # With no t > 0 the audit would compare the t = 0 vector with itself.
        with pytest.raises(ValueError, match=r"^t values \[0?\] hold no t in \(0, delta=1/1000\]"):
            deformation_audit(scenario_products(1), t_values=t_values)

    def test_t_value_count_is_capped_before_any_lift(self, monkeypatch):
        built = []

        def counted(*args, _real=harness.sphere_region_block):
            built.append(args)
            return _real(*args)

        monkeypatch.setattr(harness, "sphere_region_block", counted)
        ts = [Fraction(i, 10**6) for i in range(harness.MAX_T_VALUES + 1)]
        with pytest.raises(ValueError, match=f"^{len(ts)} distinct t values, above the limit of {harness.MAX_T_VALUES}$"):
            deformation_audit(scenario_products(1), t_values=ts)
        assert built == []
        rep = deformation_audit(scenario_products(1), t_values=ts[:-1])
        assert len(built) == len(rep.betti_by_t) == harness.MAX_T_VALUES

    def test_t_outside_delta_rejected(self):
        with pytest.raises(ValueError):
            deformation_audit(scenario_products(1), t_values=(Fraction(1, 2),))

    def test_float_t_rejected(self):
        with pytest.raises(TypeError):
            deformation_audit(scenario_products(1), t_values=(0.0005,))

    def test_seeded_determinism(self):
        a = deformation_audit(scenario_products(1), seed=5)
        b = deformation_audit(scenario_products(1), seed=5)
        assert a == b

    def test_eps_too_large_is_inconclusive(self):
        rep = deformation_audit(scenario_products(2), DeformationParams(eps=Fraction(1, 2)))
        assert rep.verdict == INCONCLUSIVE
        assert rep.betti_by_t == {}
        assert rep.note == "scenario box exceeds the radius-1/eps ball; shrink eps"


EQUATOR = QuadraticForm.make(3, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])


def _vertex_disjoint_split(res, tau):
    """Band, equator band and complement top cells by the rule on code tuples.

    The complement holds the band's 3-cells none of whose vertices is a
    vertex of the equator band: two closed cubes meet iff they share one.
    """
    band = sphere_band_complex(1, res, 3)
    subset = sphere_zero_complex([EQUATOR], 1, res, tau)
    subset_vertices = set(cells_of_dim(subset, 0))
    complement_tops = [
        c
        for c in cells_of_dim(band, 3)
        if subset_vertices.isdisjoint(itertools.product(*((x - 1, x + 1) for x in c)))
    ]
    return band, subset, complement_tops


class TestAlexander:
    @pytest.mark.parametrize("res, tau", [(Fraction(1, 8), Fraction(1, 4)), (Fraction(1, 6), Fraction(1, 5))])
    def test_complement_matches_vertex_disjoint_rule(self, res, tau):
        band, subset, complement_tops = _vertex_disjoint_split(res, tau)
        split_subset, complement = sphere_zero_split([EQUATOR], 1, res, tau)
        assert same_complex(split_subset, subset)
        assert set(cells_of_dim(complement, 3)) == set(complement_tops)
        assert 0 < len(complement_tops) < band.n_cells(3)

    def test_euler_characteristics(self):
        # At the audit's grid: the sphere band and the two caps have chi = 2,
        # the equator circle chi = 0, each the alternating sum of its Betti vector.
        res = Fraction(1, 8)
        band = sphere_band_complex(1, res, 3)
        subset, complement = sphere_zero_split([EQUATOR], 1, res, 2 * res)
        for cx, chi in ((band, 2), (subset, 0), (complement, 2)):
            alternating = sum((-1) ** i * b for i, b in enumerate(betti(cx)))
            assert sum((-1) ** d * cx.n_cells(d) for d in range(4)) == alternating == chi

    def test_equator_duality(self):
        rep = alexander_equator_audit()
        assert rep.verdict == PASS
        assert rep.subset_reduced == (0, 1, 0)
        assert rep.complement_reduced == (1, 0, 0)

    def test_inflated_b1_mutant(self, monkeypatch):
        monkeypatch.setattr(harness, "betti", inflated_b1(harness.betti))
        rep = alexander_equator_audit()
        assert rep.verdict == INCONCLUSIVE
        assert rep.subset_reduced == (0, 2, 0)
        assert rep.complement_reduced == (1, 1, 0)

    # Vectors no nonempty cubical subset of R^3 has: a nonzero b_3, and b_0 = 0.
    @pytest.mark.parametrize("fault, subset, complement", [
        (lambda v: v[:3] + (1,), (1, 1, 0, 1), (2, 0, 0, 1)),
        (lambda v: (0,) + v[1:], (0, 1, 0, 0), (0, 0, 0, 0)),
    ], ids=["b3-nonzero", "b0-zero"])
    def test_impossible_engine_vector_reads_inconclusive(self, monkeypatch, capsys, fault, subset, complement):
        real = harness.betti
        monkeypatch.setattr(harness, "betti", lambda cx: fault(real(cx)))
        rep = alexander_equator_audit()
        assert rep.verdict == INCONCLUSIVE
        assert rep.note == (f"engine fault: subset Betti vector {list(subset)}; complement Betti vector "
                            f"{list(complement)}, expected b_0 >= 1 and b_3 = 0")
        assert rep.subset_reduced == (subset[0] - 1,) + subset[1:3]
        assert rep.complement_reduced == (complement[0] - 1,) + complement[1:3]
        # Not a usage error: the CLI exits 3, the code for INCONCLUSIVE.
        assert main(["audit", "--name", "alexander-equator"]) == 3
        assert "engine fault" in capsys.readouterr().out


class TestMVExamples:
    def test_wedge(self):
        ex = mv_wedge_example()
        assert ex.verdict == PASS
        assert ex.union_betti == (1, 2)
        assert ex.pieces[(1, 2)][0] == 1

    def test_disjoint(self):
        ex = mv_disjoint_example()
        assert ex.verdict == PASS
        assert ex.union_betti == (2, 2)

    def test_three_arcs(self):
        ex = mv_three_arc_example()
        assert ex.verdict == PASS
        assert len(ex.pieces) == 6

    def test_fabricated(self):
        ex = mv_fabricated_example()
        assert ex.verdict == VIOLATION


class TestSuite:
    def test_default_suite_all_pass(self):
        results = run_verification_suite(seed=0)
        assert results
        assert all(r["verdict"] == PASS for r in results)

    def test_deterministic(self):
        a = run_verification_suite(seed=0)
        b = run_verification_suite(seed=0)
        assert [(r["name"], r["verdict"]) for r in a] == [(r["name"], r["verdict"]) for r in b]

    def test_full_suite_all_pass(self):
        results = run_verification_suite(seed=0, full=True)
        names = {r["name"] for r in results}
        assert "double-cover-products-k2" in names
        assert all(r["verdict"] == PASS for r in results)


# Every `cli.AUDITS` name, driven off PASS through `quadbetti audit` at
# the command line's defaults: audit name -> (the `harness` global the
# mutant replaces, the mutant, the verdict the audit must give).  Where the
# command line cannot reach an input that fails an audit, an engine mutant
# stands in.  Two audits fail on their own default input and run unmutated:
# mv-fabricated-violation, and deformation-products, whose default
# t = 1/1000 lies past a sign change that moves the products-k2 Betti
# vector (8, 0, 0, 0) to (2, 2, 0, 0).
NEGATIVE_CONTROLS = {
    "products-bounds": ("bound_betti", zero_bound, VIOLATION),
    "shell-bounds": ("bound_betti", zero_bound, VIOLATION),
    "smith-cone": ("betti", odd_sphere_total, INCONCLUSIVE),
    "double-cover-products": ("betti", inflated_b1, INCONCLUSIVE),
    "deformation-products": (None, None, INCONCLUSIVE),
    "alexander-equator": ("betti", inflated_b1, INCONCLUSIVE),
    "mv-wedge": ("betti", b1_per_cell, VIOLATION),
    "mv-disjoint": ("betti", b1_per_cell, VIOLATION),
    "mv-three": ("betti", b1_per_cell, VIOLATION),
    "mv-fabricated-violation": (None, None, VIOLATION),
}


def test_every_audit_name_has_a_negative_control():
    assert sorted(NEGATIVE_CONTROLS) == sorted(cli.AUDITS)


@pytest.mark.parametrize("name", NEGATIVE_CONTROLS)
def test_negative_control_drives_audit_off_pass(name, monkeypatch, capsys):
    target, mutant, verdict = NEGATIVE_CONTROLS[name]
    if mutant is not None:
        monkeypatch.setattr(harness, target, mutant(getattr(harness, target)))
    code = main(["audit", "--name", name, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc.get("verdict", doc.get("overall")) == verdict
    assert code == {VIOLATION: 1, INCONCLUSIVE: 3}[verdict]


# Every row of `verify --full`, driven off PASS: row name -> (the `harness`
# global the mutant replaces, the mutant, the verdict the row must read).
# products-k1's lifted cell sets at t = 0 and t = 1/1000 are the same, so no
# engine mutant moves its deformation row; an oversized family does.
SUITE_CONTROLS = {
    "bounds-products-k1": ("bound_betti", zero_bound, VIOLATION),
    "bounds-products-k2": ("bound_betti", zero_bound, VIOLATION),
    "bounds-products-k3": ("bound_betti", zero_bound, VIOLATION),
    "grid-oracle-products-k2": ("betti", inflated_b1, INCONCLUSIVE),
    "bounds-shell-k2": ("bound_betti", zero_bound, VIOLATION),
    "grid-oracle-shell-k2": ("betti", inflated_b1, INCONCLUSIVE),
    "smith-cone": ("betti", odd_sphere_total, INCONCLUSIVE),
    "mv-wedge": ("betti", b1_per_cell, VIOLATION),
    "mv-disjoint": ("betti", b1_per_cell, VIOLATION),
    "mv-three-arcs": ("betti", b1_per_cell, VIOLATION),
    "alexander-equator": ("betti", inflated_b1, INCONCLUSIVE),
    "double-cover-products-k1": ("betti", inflated_b1, INCONCLUSIVE),
    "deformation-products-k1": ("random_pd_form", huge_family, INCONCLUSIVE),
    "grid-oracle-products-k3": ("betti", inflated_b1, INCONCLUSIVE),
    "grid-oracle-products-k4": ("betti", inflated_b1, INCONCLUSIVE),
    "bounds-shell-k3": ("bound_betti", zero_bound, VIOLATION),
    "grid-oracle-shell-k3": ("betti", inflated_b1, INCONCLUSIVE),
    "double-cover-products-k2": ("betti", inflated_b1, INCONCLUSIVE),
    "double-cover-shell-k2": ("betti", inflated_b1, INCONCLUSIVE),
    "deformation-shell-k2": ("random_pd_form", huge_family, INCONCLUSIVE),
}


def test_every_suite_row_has_a_negative_control():
    assert [r["name"] for r in run_verification_suite(full=True)] == list(SUITE_CONTROLS)


@pytest.mark.parametrize("mutant", list(dict.fromkeys(m for _, m, _ in SUITE_CONTROLS.values())),
                         ids=lambda m: m.__name__)
def test_suite_negative_controls_drive_rows_off_pass(mutant, monkeypatch):
    rows = {name: (target, verdict) for name, (target, m, verdict) in SUITE_CONTROLS.items() if m is mutant}
    (target,) = {target for target, _ in rows.values()}
    monkeypatch.setattr(harness, target, mutant(getattr(harness, target)))
    verdicts = {r["name"]: r["verdict"] for r in run_verification_suite(full=True)}
    assert {name: verdicts[name] for name in rows} == {name: v for name, (_, v) in rows.items()}


def test_suite_passes_the_seed_to_its_deformation_rows(monkeypatch):
    # The rows call `deformation_audit` through this module's globals, so the
    # recorder sees both; seeds 0-9 give the same output, so no golden case would.
    real = harness.deformation_audit
    calls = []

    def recording(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments["sc"].name, bound.arguments["seed"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "deformation_audit", recording)
    run_verification_suite(seed=3, full=True)
    assert calls == [("products-k1", 3), ("shell-k2", 3)]


def test_deformation_audit_sees_cell_changes_under_a_mutant(monkeypatch):
    """shell-k2's cell sets at t = 0 and t = 1/1000 differ while their Betti
    vectors agree, so the audit passes, and an engine whose b_1 grows with
    the cell count drives it off PASS."""
    sc = scenario_shell(2, Fraction(1, 2), 1)
    assert deformation_audit(sc).verdict == PASS
    monkeypatch.setattr(harness, "betti", b1_per_cell(harness.betti))
    assert deformation_audit(sc).verdict == INCONCLUSIVE


# The t values and family seeds of the sphere-lift benchmark's deformation ops.
_MENU_T = tuple(Fraction(1, 4000) * n for n in range(1, 5))
_MENU_SEEDS = range(8)


def test_undeformed_lifts_take_the_cap_and_deformed_lifts_do_not(monkeypatch):
    """Each lift of `verify --full` and of the sphere-lift benchmark's ops, in
    call order, by the copies `sphere_region_block` returns: the double
    covers and every deformation audit's t = 0 lift are built as one polar
    cap, 2 copies; every t > 0 lift, whose seeded family has linear terms, is
    built whole, 1 copy."""
    real = harness.sphere_region_block
    calls = []

    def recording(*args):
        block, copies = real(*args)
        calls.append(copies)
        return block, copies

    monkeypatch.setattr(harness, "sphere_region_block", recording)

    def caps(audit):
        calls.clear()
        assert audit().verdict == PASS
        return calls[:]

    calls.clear()
    run_verification_suite(full=True)
    # double-cover and deformation products-k1, double-cover products-k2 and
    # shell-k2, deformation shell-k2
    assert calls == [2, 2, 1, 2, 2, 2, 1]
    shell = scenario_shell(2, Fraction(1, 2), 1)
    for sc in (scenario_products(1), scenario_products(2), shell):
        assert caps(lambda: double_cover_audit(sc)) == [2]
    for sc in (scenario_products(1), shell):
        for seed in _MENU_SEEDS:
            assert caps(lambda: deformation_audit(sc, t_values=(0,) + _MENU_T, seed=seed)) == [2] + [1] * 4


def test_every_complex_verify_full_ranks_passes_the_euler_check(monkeypatch):
    """Every complex `verify --full` ranks, through this module's `betti`: the
    Euler characteristic from its cell counts equals the alternating sum of
    the vector ranked.  That is 30 complexes: the box blocks, the polar caps,
    the whole deformed lifts, the Smith and Alexander sphere sets and the
    Mayer-Vietoris pieces.  A lost fold or cap ranks a larger complex, which
    the pinned total cell count shows."""
    real = harness.betti
    ranked = []

    def checked(cx):
        vec = real(cx)
        ranked.append((sum((-1) ** d * cx.n_cells(d) for d in range(cx.ambient_dim + 1)),
                       sum((-1) ** i * b for i, b in enumerate(vec)), len(cx)))
        return vec

    monkeypatch.setattr(harness, "betti", checked)
    assert all(r["verdict"] == PASS for r in run_verification_suite(full=True))
    assert len(ranked) == 30
    assert all(chi == alternating for chi, alternating, _ in ranked)
    assert sum(cells for _, _, cells in ranked) == 223055
