"""Unit tests for scenarios, audits and report serialization."""

import dataclasses
import json
from fractions import Fraction

import pytest

from quadbetti import harness
from quadbetti.harness import (
    Scenario,
    alexander_equator_audit,
    bound_audit,
    deformation_audit,
    double_cover_audit,
    mv_disjoint_example,
    mv_fabricated_example,
    mv_three_arc_example,
    mv_wedge_example,
    run_verification_suite,
    scenario_products,
    scenario_shell,
    smith_audit,
)
from quadbetti.homology import INCONCLUSIVE, PASS, VIOLATION, betti, pad_betti
from quadbetti.quadforms import (
    DeformationParams,
    GridSpec,
    QuadraticForm,
    grid_complex,
)


CONE = QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])


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

    def test_hypothesis_s_le_k(self):
        sc = scenario_shell(2, Fraction(1, 2), 1)
        bad = Scenario(
            name="bad", system=sc.system + sc.system[:1], s=3, k=2, grid=sc.grid
        )
        with pytest.raises(ValueError):
            bound_audit(bad)

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

    def test_odd_sphere_total_mutant(self, monkeypatch):
        # named mutant: an engine whose sphere vector breaks antipodal pairing
        monkeypatch.setattr(harness, "betti", lambda cx: (1, 0, 0, 0))
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

    def test_single_t_zero_trivially_passes(self):
        rep = deformation_audit(scenario_products(1), t_values=(Fraction(0),))
        assert rep.verdict == PASS

    def test_t_outside_delta_rejected(self):
        with pytest.raises(ValueError):
            deformation_audit(scenario_products(1), t_values=(Fraction(1, 2),))

    def test_float_t_rejected(self):
        with pytest.raises(TypeError):
            deformation_audit(scenario_products(1), t_values=(0.0005,))

    def test_family_scale_reported(self):
        rep = deformation_audit(scenario_products(1))
        assert 0 < rep.family_scale < 1

    def test_seeded_determinism(self):
        a = deformation_audit(scenario_products(1), seed=5)
        b = deformation_audit(scenario_products(1), seed=5)
        assert a == b

    def test_eps_too_large_is_inconclusive(self):
        rep = deformation_audit(scenario_products(2), DeformationParams(eps=Fraction(1, 2)))
        assert rep.verdict == INCONCLUSIVE
        assert rep.betti_by_t == {}
        assert rep.family_scale == 0
        assert rep.note == "scenario box exceeds the radius-1/eps ball; shrink eps"


class TestAlexander:
    def test_equator_duality(self):
        rep = alexander_equator_audit()
        assert rep.verdict == PASS
        assert rep.subset_reduced == (0, 1, 0)
        assert rep.complement_reduced == (1, 0, 0)

    def test_inflated_b1_mutant(self, monkeypatch):
        # named mutant: an engine that adds 1 to every b_1
        real = harness.betti

        def inflated(cx):
            vec = pad_betti(real(cx), 3)
            return vec[:1] + (vec[1] + 1,) + vec[2:]

        monkeypatch.setattr(harness, "betti", inflated)
        rep = alexander_equator_audit()
        assert rep.verdict == INCONCLUSIVE
        assert rep.subset_reduced == (0, 2, 0)
        assert rep.complement_reduced == (1, 1, 0)


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
        assert all(r.verdict == PASS for r in results)

    def test_deterministic(self):
        a = run_verification_suite(seed=0)
        b = run_verification_suite(seed=0)
        assert [(r.name, r.verdict) for r in a] == [(r.name, r.verdict) for r in b]

    def test_full_suite_all_pass(self):
        results = run_verification_suite(seed=0, full=True)
        names = {r.name for r in results}
        assert "double-cover-products-k2" in names
        assert all(r.verdict == PASS for r in results)
