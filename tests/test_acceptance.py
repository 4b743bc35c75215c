"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Timing budgets are asserted with the stated limits.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from quadbetti.bounds import b_ci, b_quad, bound_aggregate, bound_betti, q_quad
from quadbetti.cli import main as cli_main
from quadbetti.harness import (
    INCONCLUSIVE,
    PASS,
    VIOLATION,
    bound_audit,
    deformation_audit,
    double_cover_audit,
    mv_disjoint_example,
    mv_fabricated_example,
    mv_three_arc_example,
    mv_wedge_example,
    pad_betti,
    scenario_products,
    scenario_shell,
    smith_audit,
)
from quadbetti.exact import QuadraticForm
from quadbetti.homology import CubicalComplex, betti, close_under_faces, make_cube
from quadbetti.quadforms import grid_complex
from test_homology import dd_is_zero


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    print(f"[criterion {number}] {label}: PASS")


def test_criterion_1_complete_intersection_values():
    with criterion(1, "exact complete-intersection Betti totals"):
        cases = [
            ((1, 2, (2,)), 2),  # smooth conic, complex P^1
            ((1, 3, (2,)), 4),  # quadric surface
            ((2, 3, (2, 2)), 4),  # elliptic curve
            ((3, 3, (2, 2, 2)), 8),  # Bezout point count
            ((1, 2, (3,)), 4),  # plane cubic
            ((1, 3, (4,)), 24),  # quartic K3 surface
        ]
        for args, expected in cases:
            start = time.perf_counter()
            assert b_ci(*args) == expected
            assert time.perf_counter() - start < 0.001


def test_criterion_2_q_property_suite():
    with criterion(2, "closed forms and bounds for the q recurrence"):
        start = time.perf_counter()
        for k in range(1, 201):
            assert q_quad(1, k) == k + (1 - (-1) ** k) // 2
        for k in range(2, 201):
            assert q_quad(2, k) == (-1) ** k * k + k
        for k in range(2, 61):
            for j in range(2, k + 1):
                cap = 2 ** (j - 1) * math.comb(k, j - 1)
                assert abs(q_quad(j, k)) <= cap
                if (k - j) % 2 == 1:
                    assert 2 * (k - j + 1) - q_quad(j, k) <= cap
        assert time.perf_counter() - start < 5.0


def test_criterion_3_b_quad_suite():
    with criterion(3, "all-quadrics Betti totals and their binomial cap"):
        for k in range(1, 201):
            if k % 2 == 0:
                assert b_quad(1, k) == q_quad(0, k - 1) == k
            else:
                assert b_quad(1, k) == q_quad(0, k) == k + 1
        for k in range(2, 61):
            for j in range(2, k + 1):
                assert b_quad(j, k) <= 2 ** (j - 1) * math.comb(k, j - 1)


def test_criterion_4_bound_chain():
    with criterion(4, "per-degree bound below 3^s binomial below exp form"):
        start = time.perf_counter()
        for k in range(4, 61):
            for s in range(2, k // 2 + 1):
                agg = bound_aggregate(s, k)
                assert agg.simple == Fraction(3**s * math.comb(k + 1, s), 2)
                assert float(agg.simple) <= agg.exp_form * (1 + 1e-9)
                # exact: 2718/1000 < e, so this right side is below (1/2)(3e(k+1)/s)^s
                assert agg.simple <= Fraction(1, 2) * (3 * Fraction(2718, 1000) * (k + 1) / s) ** s
                for i in range(k):
                    assert bound_betti(s, k, i) <= agg.simple
        assert time.perf_counter() - start < 10.0


def test_criterion_5_products_end_to_end():
    with criterion(5, "coordinate-products scenario end to end"):
        for k in (1, 2, 3):
            sc = scenario_products(k)
            vec = betti(grid_complex(sc.system, sc.grid))
            assert vec[0] == 2**k
            assert all(v == 0 for v in vec[1:])
            report = bound_audit(sc)
            assert report.overall == PASS
            assert report.rows[0].betti <= bound_betti(k, k, 0)
        assert bound_betti(3, 3, 0) == Fraction(129, 2)
        start = time.perf_counter()
        sc = scenario_products(4)
        vec = betti(grid_complex(sc.system, sc.grid))
        assert vec == (16, 0, 0, 0, 0)
        assert bound_audit(sc).overall == PASS
        assert time.perf_counter() - start < 30.0


def test_criterion_6_homology_engine():
    with criterion(6, "homology engine oracles and boundary-squared"):
        start = time.perf_counter()
        hollow = close_under_faces(
            [
                make_cube([(0, 1), (0, 0)]),
                make_cube([(0, 1), (1, 1)]),
                make_cube([(0, 0), (0, 1)]),
                make_cube([(1, 1), (0, 1)]),
            ]
        )
        assert betti(hollow) == (1, 1)
        solid = close_under_faces([make_cube([(0, 1)] * 3)])
        surface = CubicalComplex(3, solid.cells - {make_cube([(0, 1)] * 3)})
        assert betti(surface) == (1, 0, 1)
        boxes = [
            make_cube([(2 * a, 2 * a + 1), (2 * b, 2 * b + 1), (2 * c, 2 * c + 1)])
            for a in range(2)
            for b in range(2)
            for c in range(2)
        ]
        assert betti(close_under_faces(boxes))[0] == 8
        rng = random.Random(0)
        for _ in range(500):
            ambient = rng.randint(1, 4)
            cubes = []
            for _ in range(rng.randint(1, 6)):
                intervals = []
                for _ in range(ambient):
                    m = rng.randint(-3, 3)
                    intervals.append((m, m + 1) if rng.random() < 0.6 else (m, m))
                cubes.append(make_cube(intervals))
            assert dd_is_zero(close_under_faces(cubes))
        assert time.perf_counter() - start < 10.0


def test_criterion_7_shell_scenarios():
    with criterion(7, "annulus and spherical shell grid homology"):
        start = time.perf_counter()
        sc2 = scenario_shell(2, Fraction(1, 2), 1)
        assert sc2.grid.resolution <= Fraction(1, 20)
        assert pad_betti(betti(grid_complex(sc2.system, sc2.grid)), 3) == (1, 1, 0)
        assert bound_audit(sc2).overall == PASS
        assert time.perf_counter() - start < 10.0
        start = time.perf_counter()
        sc3 = scenario_shell(3, Fraction(1, 2), 1)
        assert sc3.grid.resolution <= Fraction(1, 10)
        assert pad_betti(betti(grid_complex(sc3.system, sc3.grid)), 4) == (1, 0, 1, 0)
        assert bound_audit(sc3).overall == PASS
        assert time.perf_counter() - start < 60.0


def test_criterion_8_projective_audits():
    with criterion(8, "projective halving, double cover, deformation"):
        cone = QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        rep = smith_audit([cone])
        assert rep.verdict == PASS
        assert rep.projective_total == 2 == b_ci(1, 2, (2,))
        for k in (1, 2):
            dc = double_cover_audit(scenario_products(k))
            assert dc.verdict == PASS
            assert dc.lifted_betti == pad_betti(
                tuple(2 * b for b in dc.base_betti), k + 2
            )
        ts = (Fraction(0), Fraction(1, 1000))
        for sc in (scenario_products(1), scenario_shell(2, Fraction(1, 2), 1)):
            de = deformation_audit(sc, t_values=ts)
            assert de.verdict == PASS
            assert len(set(de.betti_by_t.values())) == 1
        # products-k2's first sign change is at t = 25/353358: below it no
        # cell moves, and by t = 1/1000 the Betti vector has moved too.
        de = deformation_audit(scenario_products(2), t_values=ts)
        assert de.verdict == INCONCLUSIVE
        assert de.betti_by_t == {"0": (8, 0, 0, 0), "1/1000": (2, 2, 0, 0)}
        de = deformation_audit(scenario_products(2), t_values=(Fraction(0), Fraction(1, 100000)))
        assert de.verdict == PASS
        assert de.betti_by_t == {"0": (8, 0, 0, 0), "1/100000": (8, 0, 0, 0)}


def test_criterion_9_mayer_vietoris_and_exit_code():
    with criterion(9, "union bounds pass and fabricated data is flagged"):
        assert mv_wedge_example().verdict == PASS
        assert mv_disjoint_example().verdict == PASS
        assert mv_three_arc_example().verdict == PASS
        assert mv_fabricated_example().verdict == VIOLATION
        assert cli_main(["audit", "--name", "mv-fabricated-violation",
                         "--output", "/dev/null"]) == 1
