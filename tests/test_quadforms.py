"""Unit tests for exact quadratic data and grid complexes."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import betti_by_cells
from hypothesis import given, settings, strategies as st

from quadbetti.exact import (
    QuadraticForm,
    QuadraticPoly,
    check_smooth_pencil,
    dehomogenize,
    det,
    format_rational,
    homogenize,
    is_nonsingular_quadric,
    parse_rational,
    random_pd_form,
)
from quadbetti.harness import _lift_spec, pad_betti, scenario_products, scenario_shell
from quadbetti.homology import _run_complex, betti, close_under_faces
from quadbetti.quadforms import (
    DeformationParams,
    MAX_GRID_CELLS,
    GridSpec,
    _INT64_SAFE,
    _GridScale,
    _ScaledPoly,
    _band_mask,
    _sphere_band,
    _top_cells,
    ci_probe,
    grid_complex,
    sphere_band_complex,
    sphere_region_cap,
    sphere_region_complex,
    sphere_zero_complex,
)


def is_positive_definite(f: QuadraticForm) -> bool:
    """Sylvester's test: every leading principal minor is positive, exactly."""
    return all(det([row[:t] for row in f.gram[:t]]) > 0 for t in range(1, f.n + 1))


def random_poly(rng, k):
    quad = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            quad[i][j] = quad[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    lin = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
    return QuadraticPoly.make(k, quad=quad, lin=lin, const=Fraction(rng.randint(-4, 4)))


class TestRationals:
    def test_parse(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational(5) == Fraction(5)

    @pytest.mark.parametrize("bad", ["1.5", "3e2", "1/0", "1 / 2 / 3", ""])
    def test_reject_decimal_strings(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_reject_floats(self):
        with pytest.raises(TypeError, match="floats are not exact rationals"):
            parse_rational(1.5)
        with pytest.raises(TypeError):
            parse_rational(True)

    def test_fraction_returned_and_numpy_ints_converted(self):
        q = Fraction(3, 4)
        assert parse_rational(q) is q
        for value in (np.int64(-3), np.uint8(3)):
            p = parse_rational(value)
            assert p == int(value) and type(p.numerator) is int and type(p.denominator) is int

    def test_format(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(-6)) == "-6"


class TestQuadraticData:
    def test_evaluate(self):
        # x^2 - x at x = 3 is 6
        p = QuadraticPoly.make(1, quad=[[1]], lin=[-1], const=0)
        assert p.evaluate([3]) == 6

    def test_cross_term_convention(self):
        # gram [[0,1/2],[1/2,0]] represents x1*x2
        f = QuadraticForm.make(2, [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
        assert f.evaluate([3, 5]) == 15

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            QuadraticPoly.make(2, quad=[[0, 1], [0, 0]])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            QuadraticPoly.make(1, quad=[[0.5]])


class TestHomogenize:
    def test_mixed_poly(self):
        p = QuadraticPoly.make(1, quad=[[1]], lin=[-1], const=1)
        f = homogenize(p)
        # X1^2 - X1 X2 + X2^2
        assert f.gram == (
            (Fraction(1), Fraction(-1, 2)),
            (Fraction(-1, 2), Fraction(1)),
        )

    def test_already_homogeneous(self):
        p = QuadraticPoly.make(2, quad=[[1, 0], [0, -1]])
        f = homogenize(p)
        assert f.gram[2] == (0, 0, 0)
        assert f.gram[0][2] == 0

    def test_constant_lifts_to_square(self):
        p = QuadraticPoly.make(2, const=1)
        f = homogenize(p)
        assert f.evaluate([0, 0, 1]) == 1
        assert f.gram[2][2] == 1

    def test_dehomogenize_inverts(self):
        rng = random.Random(2)
        for _ in range(30):
            p = random_poly(rng, rng.randint(1, 4))
            assert dehomogenize(homogenize(p)) == p

    def test_restriction_recovers_values(self):
        rng = random.Random(3)
        p = random_poly(rng, 3)
        f = homogenize(p)
        point = [Fraction(1, 3), Fraction(-2), Fraction(5, 7)]
        assert f.evaluate(point + [Fraction(1)]) == p.evaluate(point)


class TestPDForms:
    def test_always_positive_definite(self):
        for seed in range(12):
            f = random_pd_form(3, seed)
            assert is_positive_definite(f)

    def test_deterministic(self):
        assert random_pd_form(4, 9) == random_pd_form(4, 9)

    def test_seeds_differ(self):
        assert random_pd_form(3, 1) != random_pd_form(3, 2)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            random_pd_form(0, 1)

    def test_pd_implies_nonsingular(self):
        for seed in range(8):
            f = random_pd_form(4, seed)
            assert is_nonsingular_quadric(f)


class TestDeform:
    """The family (1 - t) * P + t * H that `harness.deformation_audit` lifts with `QuadraticPoly.blend`."""

    @staticmethod
    def family(p, h, t):
        """The reference for `blend`: each coefficient (1 - t) a + t b in plain Fraction arithmetic."""
        def mix(a, b):
            return (1 - t) * a + t * b

        return QuadraticPoly(p.k, tuple(tuple(map(mix, ra, rb)) for ra, rb in zip(p.quad, h.quad)),
                             tuple(map(mix, p.lin, h.lin)), mix(p.const, h.const))

    def test_endpoints(self):
        p = QuadraticPoly.make(2, quad=[[1, 0], [0, 0]], const=-1)
        h = QuadraticPoly.make(2, quad=[[0, 0], [0, 1]], lin=[1, 0])
        assert p.blend(h, Fraction(0)) == p
        assert p.blend(h, Fraction(1)) == h

    def test_halfway(self):
        p = QuadraticPoly.make(2, quad=[[1, 0], [0, 0]], const=-1)
        h = QuadraticPoly.make(2, quad=[[0, 0], [0, 1]], lin=[1, 0])
        mid = p.blend(h, Fraction(1, 2))
        assert mid.quad == ((Fraction(1, 2), 0), (0, Fraction(1, 2)))
        assert (mid.lin, mid.const) == ((Fraction(1, 2), 0), Fraction(-1, 2))

    def test_linearity_in_t(self):
        rng = random.Random(4)
        p = random_poly(rng, 3)
        h = dehomogenize(random_pd_form(4, 2))
        for _ in range(10):
            a = Fraction(rng.randint(0, 8), 8)
            b = Fraction(rng.randint(0, 8), 8)
            mid = p.blend(h, (a + b) / 2)
            assert mid == p.blend(h, a).blend(p.blend(h, b), Fraction(1, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            random_poly(random.Random(0), 3).blend(random_poly(random.Random(0), 2), Fraction(1, 2))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 2**32), st.fractions())
    def test_blend_is_the_family(self, k, seed, t):
        # Any rational t, and coefficients whose numerators and denominators pass 2**64.
        rng = random.Random(seed)
        p, h = random_poly(rng, k), dehomogenize(random_pd_form(k + 1, seed))
        f = Fraction(rng.randint(1, 2**70), rng.randint(1, 2**70))
        p = QuadraticPoly.make(k, quad=[[f * a for a in row] for row in p.quad],
                               lin=[f * a for a in p.lin], const=f * p.const)
        assert p.blend(h, t) == self.family(p, h, t)
        assert h.blend(p, t) == self.family(h, p, t)

    def test_blend_rejects_a_dimension_mismatch_and_floats(self):
        p, h = random_poly(random.Random(0), 2), random_poly(random.Random(0), 3)
        with pytest.raises(ValueError, match="variable count mismatch"):
            p.blend(h, Fraction(1, 2))
        with pytest.raises(TypeError, match="floats"):
            p.blend(p, 0.5)


class TestDefiniteness:
    """Sylvester's test, the oracle of `TestPDForms`, can fail."""

    def test_identity_pd(self):
        assert is_positive_definite(QuadraticForm.make(2, [[1, 0], [0, 1]]))

    def test_indefinite(self):
        assert not is_positive_definite(QuadraticForm.make(2, [[1, 0], [0, -1]]))

    def test_off_diagonal_pd(self):
        # 2x^2 + 2xy + 2y^2: minors 2 and 3
        assert is_positive_definite(QuadraticForm.make(2, [[2, 1], [1, 2]]))

    def test_nonsingular_examples(self):
        assert is_nonsingular_quadric(QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        xy = QuadraticForm.make(2, [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
        assert is_nonsingular_quadric(xy)
        rank_one = QuadraticForm.make(2, [[1, 0], [0, 0]])
        assert not is_nonsingular_quadric(rank_one)


@st.composite
def rational_matrices(draw):
    """Square rational matrices up to 5x5, many with zero pivots or singular.

    Zero entries are drawn often, so elimination meets zero pivots that need
    a row swap; a copied multiple of another row makes a matrix singular.
    """
    n = draw(st.integers(1, 5))
    nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    entry = st.one_of(st.just(Fraction(0)), nonzero, nonzero)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        scale = draw(entry)
        rows[i] = [scale * x for x in rows[j]]
    return rows


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rational_matrices())
def test_det_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows]).det()
    assert det(rows) == Fraction(int(want.p), int(want.q))


@st.composite
def congruent_diagonal_pencils(draw):
    """(A, B, repeated): P^T diag(a) P and P^T diag(b) P for a unimodular integer P.

    det(A + tB) = det(P)^2 prod(a_i + t b_i), so it has a repeated root iff two
    of the ratios a_i / b_i are equal, which is the independent answer.
    """
    n = draw(st.integers(3, 6))
    nonzero = st.integers(-4, 4).filter(bool)
    a = [draw(nonzero) for _ in range(n)]
    b = [draw(nonzero) for _ in range(n)]
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        scale = draw(nonzero)
        a[j], b[j] = scale * a[i], scale * b[i]
    # P = L U, unit triangular with small integer entries, so det P = 1
    small = st.integers(-2, 2)
    low = [[1 if r == c else draw(small) if r > c else 0 for c in range(n)] for r in range(n)]
    up = [[1 if r == c else draw(small) if r < c else 0 for c in range(n)] for r in range(n)]
    p = [[sum(low[r][m] * up[m][c] for m in range(n)) for c in range(n)] for r in range(n)]

    def congruent(diag):
        return QuadraticForm.make(n, [[sum(p[m][r] * diag[m] * p[m][c] for m in range(n))
                                       for c in range(n)] for r in range(n)])

    ratios = {Fraction(x, y) for x, y in zip(a, b)}
    return congruent(a), congruent(b), len(ratios) < n


@settings(derandomize=True, max_examples=150, deadline=None)
@given(congruent_diagonal_pencils())
def test_smooth_pencil_check_matches_diagonal_ratios(pencil):
    a, b, repeated = pencil
    if repeated:
        with pytest.raises(ValueError, match="singular intersection rejected"):
            check_smooth_pencil(a, b)
    else:
        check_smooth_pencil(a, b)


class TestSmoothPencil:
    def test_singular_member_rejected(self):
        cone = QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        rank_two = QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        for a, b in ((cone, rank_two), (rank_two, cone)):
            with pytest.raises(ValueError, match="singular quadric rejected"):
                check_smooth_pencil(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="variable count mismatch"):
            check_smooth_pencil(random_pd_form(3, 0), random_pd_form(4, 0))

    def test_polynomial_written_exactly(self):
        # det(A + tB) = (1 + t)(1 + t/2)(1 + t/2)(1/3 + t): coefficients stay rational
        a = QuadraticForm.make(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                   [0, 0, 0, Fraction(1, 3)]])
        b = QuadraticForm.make(4, [[1, 0, 0, 0], [0, Fraction(1, 2), 0, 0],
                                   [0, 0, Fraction(1, 2), 0], [0, 0, 0, 1]])
        with pytest.raises(ValueError) as info:
            check_smooth_pencil(a, b)
        assert str(info.value) == (
            "singular intersection rejected: det(A + tB) = 1/4*t^4 + 4/3*t^3 + 29/12*t^2"
            " + 5/3*t + 1/3 has the repeated root t = -2")


class TestCiProbe:
    def test_cone_likely_nonsingular(self):
        cone = QuadraticForm.make(
            4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
        )
        rep = ci_probe([cone], samples=16, seed=0, tol=1e-6)
        assert rep.verdict == "LIKELY_NONSINGULAR"
        assert rep.zeros_found > 0

    def test_degenerate_detected(self):
        sq = QuadraticForm.make(2, [[1, 0], [0, 0]])
        rep = ci_probe([sq], samples=16, seed=0, tol=1e-6)
        assert rep.verdict == "SINGULARITY_SUSPECTED"
        assert rep.min_jacobian_sv < 1e-6

    def test_empty_zero_set(self):
        pos = QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        rep = ci_probe([pos], samples=8, seed=0)
        assert rep.verdict == "UNKNOWN"
        assert rep.zeros_found == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ci_probe([random_pd_form(2, 0), random_pd_form(3, 0)])


class TestGridSpec:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            GridSpec(box=((0, 1),), resolution=Fraction(2, 7))
        GridSpec(box=((0, 1),), resolution=Fraction(1, 4))

    def test_no_axes_refused(self):
        with pytest.raises(ValueError, match="at least one axis"):
            GridSpec(box=(), resolution=1)
        with pytest.raises(ValueError, match="at least one axis"):
            GridSpec.symmetric(1, 1, 0)

    def test_symmetric_snaps_up(self):
        spec = GridSpec.symmetric(Fraction(5, 4), Fraction(1, 10), 3)
        assert spec.box[0] == (Fraction(-13, 10), Fraction(13, 10))

    def test_center(self):
        spec = GridSpec(box=((-1, 2),), resolution=Fraction(1, 4))
        assert spec.shape == (12,)
        assert spec.center((0,)) == (Fraction(-7, 8),)


class TestGridComplex:
    def test_two_components(self):
        p = QuadraticPoly.make(1, quad=[[1]], lin=[-1], const=0)
        spec = GridSpec(box=((-1, 2),), resolution=Fraction(1, 4))
        cx = grid_complex([p], spec)
        assert betti(cx)[0] == 2

    def test_empty_system_keeps_box(self):
        spec = GridSpec(box=((-1, 1), (-1, 1)), resolution=Fraction(1, 2))
        assert betti(grid_complex([], spec)) == (1, 0, 0)

    def test_whole_box_runs_along_the_last_axis(self):
        spec = GridSpec.symmetric(2, Fraction(1, 4), 2)
        # y^2 <= 1/16 keeps two rows of 16 cells: 30 adjacent pairs along
        # axis 0, 16 along axis 1; the box still runs along the last axis.
        strip = QuadraticPoly.make(2, quad=[[0, 0], [0, -1]], const=Fraction(1, 16))
        assert _top_cells(spec, [strip])[1] == -1
        cx = grid_complex([strip], spec)
        assert cx._frame.strides[1] == 1 and len(cx._first) == 33 and betti(cx) == (1, 0, 0)
        assert _top_cells(spec, [])[1] == -1 and grid_complex([], spec)._frame.strides[1] == 1

    def test_whole_box_allocates_no_more_than_its_cells(self):
        # One cell on 20 axes: a mask padded by one cell per axis would
        # take 2**20 bytes.
        spec = GridSpec(box=((0, 1),) * 20, resolution=1)
        tracemalloc.start()
        try:
            cells, run_axis = _top_cells(spec, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cells.tolist() == [[0] * 20] and run_axis == -1
        assert peak < 2**16

    def test_infeasible_system(self):
        p = QuadraticPoly.make(2, quad=[[-1, 0], [0, -1]], const=-1)
        spec = GridSpec(box=((-1, 1), (-1, 1)), resolution=Fraction(1, 2))
        assert len(grid_complex([p], spec)) == 0

    def test_monotone_in_system(self):
        rng = random.Random(9)
        spec = GridSpec(box=((-2, 2), (-2, 2)), resolution=Fraction(1, 2))
        system = [random_poly(rng, 2) for _ in range(3)]
        cells_all = grid_complex(system, spec).cells
        cells_sub = grid_complex(system[:2], spec).cells
        assert cells_all <= cells_sub

    def test_output_face_closed(self):
        rng = random.Random(10)
        spec = GridSpec(box=((-2, 2), (-2, 2)), resolution=Fraction(1, 2))
        cx = grid_complex([random_poly(rng, 2)], spec)
        _run_complex(cx)  # raises unless cx is face-closed

    def test_center_rule_matches_fraction_evaluation(self):
        rng = random.Random(12)
        spec = GridSpec(
            box=((Fraction(-3, 2), Fraction(3, 2)),) * 2, resolution=Fraction(1, 4)
        )
        system = [random_poly(rng, 2) for _ in range(2)]
        cx = grid_complex(system, spec)
        expected_tops = set()
        for jvec in itertools.product(range(12), repeat=2):
            center = spec.center(jvec)
            if all(p.evaluate(center) >= 0 for p in system):
                expected_tops.add(tuple(2 * j + 1 for j in jvec))
        got_tops = {c for c in cx.cells if sum(x & 1 for x in c) == 2}
        assert got_tops == expected_tops

    def test_variable_count_checked(self):
        p = QuadraticPoly.make(3)
        spec = GridSpec(box=((0, 1), (0, 1)), resolution=Fraction(1, 2))
        with pytest.raises(ValueError):
            grid_complex([p], spec)


def _band_cells(spec, r):
    """Cells whose closed cube meets the radius-r sphere, by Fraction interval arithmetic."""
    h = spec.resolution
    for jvec in itertools.product(*map(range, spec.shape)):
        lo_sq = hi_sq = Fraction(0)
        for (lo, _), j in zip(spec.box, jvec):
            a, b = lo + j * h, lo + (j + 1) * h
            lo_sq += 0 if a <= 0 <= b else min(a * a, b * b)
            hi_sq += max(a * a, b * b)
        if lo_sq <= r * r <= hi_sq:
            yield jvec


# Centers are odd multiples of 1/4 on both grids, so x^2 - y^2 = +-1/2 at
# (3/4, 1/4) and (1/4, 3/4), and the eps = 1 cap y^2 - x^2 and y - 5/4 are 0
# at (5/4, 5/4) on the radius-2 circle.
_SADDLE = QuadraticForm.make(2, [[1, 0], [0, -1]])
_HALF_MINUS_SADDLE = QuadraticPoly.make(2, quad=[[-1, 0], [0, 1]], const=Fraction(1, 2))
_HALF_PLUS_SADDLE = QuadraticPoly.make(2, quad=[[1, 0], [0, -1]], const=Fraction(1, 2))
_CAP_EPS_1 = QuadraticPoly.make(2, quad=[[-1, 0], [0, 1]])
_ABOVE_LINE = QuadraticPoly.make(2, lin=[0, 1], const=Fraction(-5, 4))
_SMALL = GridSpec.symmetric(Fraction(3, 2), Fraction(1, 2), 2)
_LARGE = GridSpec.symmetric(Fraction(5, 2), Fraction(1, 2), 2)

# builder call, its grid, its sphere radius (None: the whole box), and the
# quadratics that must be >= 0 at a kept center
BOUNDARY_CASES = {
    "grid": (lambda: grid_complex([_HALF_MINUS_SADDLE, _HALF_PLUS_SADDLE], _SMALL),
             _SMALL, None, [_HALF_MINUS_SADDLE, _HALF_PLUS_SADDLE]),
    "zero": (lambda: sphere_zero_complex([_SADDLE], 1, _SMALL, Fraction(1, 2)),
             _SMALL, 1, [_HALF_MINUS_SADDLE, _HALF_PLUS_SADDLE]),
    "band": (lambda: sphere_band_complex(1, _SMALL), _SMALL, 1, []),
    "region": (lambda: sphere_region_complex([_ABOVE_LINE], 1, _LARGE),
               _LARGE, 2, [_CAP_EPS_1, _ABOVE_LINE]),
}


@pytest.mark.parametrize("name", BOUNDARY_CASES)
def test_center_rule_keeps_centers_on_the_boundary(name):
    build, spec, radius, polys = BOUNDARY_CASES[name]
    cells = itertools.product(*map(range, spec.shape)) if radius is None else _band_cells(spec, radius)
    centers = {jvec: spec.center(jvec) for jvec in cells}

    def tops(strict=None):
        return {
            tuple(2 * j + 1 for j in jvec)
            for jvec, c in centers.items()
            if all(p.evaluate(c) > 0 if i == strict else p.evaluate(c) >= 0
                   for i, p in enumerate(polys))
        }

    expected = tops()
    assert expected
    for i in range(len(polys)):
        assert tops(strict=i) != expected  # each quadratic is 0 at a center that decides a cell
    assert {c for c in build().cells if all(x & 1 for x in c)} == expected


def _abs_at_most(form, tau):
    """The pair tau - Q, tau + Q, both >= 0 exactly where |Q| <= tau."""
    return [QuadraticPoly.make(form.n, quad=gram, const=tau)
            for gram in ([[-a for a in row] for row in form.gram], form.gram)]


def _cap(eps, n):
    """(1/eps)^2 x_n^2 - |x_1..x_{n-1}|^2, the projective-ball truncation of a lift."""
    diag = [-1] * (n - 1) + [1 / Fraction(eps) ** 2]
    return QuadraticPoly.make(n, quad=[[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _huge_poly(rng, k):
    """Random quadratic whose coefficient numerators reach 10**20 over denominators up to 9."""
    def coeff():
        return Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 9))
    quad = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            quad[i][j] = quad[j][i] = coeff()
    return QuadraticPoly.make(k, quad=quad, lin=[coeff() for _ in range(k)], const=coeff())


_HUGE = 10**20
# On the diagonals x^2 = y^2 the sign of (3H+1)/3 x^2 - H y^2 - 1/4 is that of
# x^2/3 - 1/4, which rounding the two terms of size H to floats would lose.
_WIDE_SADDLE = QuadraticPoly.make(2, quad=[[Fraction(3 * _HUGE + 1, 3), 0], [0, -_HUGE]],
                                  const=Fraction(-1, 4))
_WIDE_CONE = QuadraticForm.make(3, [[Fraction(3 * _HUGE + 1, 3), 0, 0], [0, -_HUGE, 0], [0, 0, 0]])
# Box edges over a large odd denominator P make the grid's integer scale 8P,
# so the band's bound n U^2 passes 2**62.
_P = 10**12 + 39
_OFF_LATTICE = GridSpec(box=((-1 - Fraction(1, _P), 1 - Fraction(1, _P)),) * 2, resolution=Fraction(1, 4))
_CUBE = GridSpec.symmetric(Fraction(5, 4), Fraction(1, 4), 3)
_QUARTERS = GridSpec.symmetric(Fraction(3, 2), Fraction(1, 4), 2)
_rng = random.Random(13)
_SMALL_POLY = random_poly(_rng, 2)
_SMALL_FORM = QuadraticForm.make(3, [[1, Fraction(1, 2), 0], [Fraction(1, 2), -1, Fraction(1, 3)],
                                     [0, Fraction(1, 3), Fraction(-1, 2)]])
_UPPER = QuadraticPoly.make(2, lin=[0, 1])
_HUGE_2 = _huge_poly(_rng, 2)
_SADDLE_2 = QuadraticForm.make(2, [[1, 0], [0, -1]])

# builder call, its grid, its sphere radius (None: the whole box), and the
# quadratics that must be >= 0 at a kept center; grid_complex with small
# coefficients is covered by TestGridComplex; the names ending in -wide
# are inputs whose precomputed bound passes 2**62, so the builder computes
# with Python ints.
CENTER_CASES = {
    "zero": (lambda: sphere_zero_complex([_SMALL_FORM], 1, _CUBE, Fraction(1, 2)),
             _CUBE, 1, _abs_at_most(_SMALL_FORM, Fraction(1, 2))),
    "band": (lambda: sphere_band_complex(1, _CUBE), _CUBE, 1, []),
    # the radius-5/4 circle passes through the grid vertices (3/4, 1) and (1, 3/4),
    # so it touches cells at their nearest and at their farthest corner
    "band-corners": (lambda: sphere_band_complex(Fraction(5, 4), _QUARTERS), _QUARTERS,
                     Fraction(5, 4), []),
    "region": (lambda: sphere_region_complex([_SMALL_POLY], 1, _LARGE), _LARGE, 2,
               [_cap(1, 2), _SMALL_POLY]),
    "grid-coefficients-wide": (lambda: grid_complex([_WIDE_SADDLE, _HUGE_2], _LARGE), _LARGE, None,
                               [_WIDE_SADDLE, _HUGE_2]),
    "zero-coefficients-wide": (lambda: sphere_zero_complex([_WIDE_CONE], 1, _CUBE, Fraction(1, 4)),
                               _CUBE, 1, _abs_at_most(_WIDE_CONE, Fraction(1, 4))),
    "region-coefficients-wide": (lambda: sphere_region_complex([_WIDE_SADDLE], 1, _LARGE), _LARGE, 2,
                                 [_cap(1, 2), _WIDE_SADDLE]),
    "band-grid-wide": (lambda: sphere_band_complex(Fraction(3, 4), _OFF_LATTICE), _OFF_LATTICE,
                       Fraction(3, 4), []),
    "zero-grid-wide": (lambda: sphere_zero_complex([_SADDLE_2], Fraction(3, 4), _OFF_LATTICE,
                                                   Fraction(1, 4)),
                       _OFF_LATTICE, Fraction(3, 4), _abs_at_most(_SADDLE_2, Fraction(1, 4))),
    "region-grid-wide": (lambda: sphere_region_complex([_UPPER], Fraction(5, 2), _OFF_LATTICE),
                         _OFF_LATTICE, Fraction(4, 5), [_cap(Fraction(5, 2), 2), _UPPER]),
}


@pytest.mark.parametrize("name", CENTER_CASES)
def test_builders_match_fraction_evaluation(name):
    build, spec, radius, polys = CENTER_CASES[name]
    if name.endswith("-wide"):
        scale = _GridScale(spec).scale
        coeffs = [x for p in polys for x in (p.const, *p.lin, *itertools.chain(*p.quad))]
        # a band's mask bound is at least scale^2 and the centers' bound, the
        # polynomials' magnitude, at least their largest numerator
        assert max([scale * scale if radius else 0] + [abs(x.numerator) for x in coeffs]) >= _INT64_SAFE
    cells = list(itertools.product(*map(range, spec.shape)) if radius is None
                 else _band_cells(spec, radius))
    expected = {
        tuple(2 * j + 1 for j in jvec)
        for jvec in cells
        if all(p.evaluate(spec.center(jvec)) >= 0 for p in polys)
    }
    assert expected
    if polys:
        assert len(expected) < len(cells)
    assert {c for c in build().cells if all(x & 1 for x in c)} == expected


@pytest.mark.parametrize("name", ["band", "band-corners", "band-grid-wide"])
def test_shared_band_matches_fraction_reference(name):
    _, spec, radius, _ = CENTER_CASES[name]
    r = Fraction(radius)
    expected = np.array(list(_band_cells(spec, r)))
    _sphere_band.cache_clear()
    first = _sphere_band(spec, r)
    assert _sphere_band.cache_info().misses == 1
    again = _sphere_band(spec, r)
    assert _sphere_band.cache_info().hits == 1 and again is first
    band, succ = first
    # Axis-major: one contiguous row per axis, at the narrowest dtype, in
    # no more bytes than one index per cell and axis.
    assert band.flags.c_contiguous and np.array_equal(band.T, expected)
    assert band.dtype == np.min_scalar_type(max(spec.shape) - 1)
    assert band.base is None and band.nbytes == expected.size * band.itemsize
    for table in (band, succ):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0
    # Row a of the successor table: the row of each cell's +1 neighbour
    # along axis a, or the cell count where the neighbour is not in the band.
    row_of = {tuple(c): i for i, c in enumerate(expected.tolist())}
    want = [[row_of.get(tuple(c[:a] + [c[a] + 1] + c[a + 1:]), len(expected)) for c in expected.tolist()]
            for a in range(spec.dim)]
    assert succ.dtype == np.min_scalar_type(len(expected)) and succ.tolist() == want
    assert np.array_equal(_top_cells(spec, (), r)[0], expected)


def test_top_cells_returns_a_private_intp_array():
    spec, r = _QUARTERS, Fraction(5, 4)
    first, _ = _top_cells(spec, (), r)
    # One contiguous column per axis, as np.argwhere gives the whole box.
    assert first.dtype == np.intp and first.flags.writeable and first.flags.f_contiguous
    expected = first.copy()
    first[:] = 0
    assert np.array_equal(_top_cells(spec, (), r)[0], expected)
    assert np.array_equal(_sphere_band(spec, r)[0].T, expected)


# Unit circles on grids whose long axis passes 128 and 256 cells, so the
# shared band is stored as uint8 and uint16 and its codes 2*j + 1 pass 255.
@pytest.mark.parametrize("res, dtype, cells_above", [(Fraction(1, 64), np.uint8, 128),
                                                     (Fraction(1, 128), np.uint16, 256)])
def test_narrow_band_indices_do_not_wrap(res, dtype, cells_above):
    spec = GridSpec.symmetric(1 + 4 * res, res, 2)
    assert max(spec.shape) > cells_above
    band, _ = _sphere_band(spec, Fraction(1))
    assert band.dtype == dtype
    if dtype == np.uint8:
        expected = np.array(list(_band_cells(spec, Fraction(1))))
    else:  # the reference loop is slow at this size; the mask over Python ints is exact
        gs = _GridScale(spec)
        lows = [lo + gs.step * np.arange(n).astype(object) for lo, n in zip(gs.lo, spec.shape)]
        expected = np.argwhere(_band_mask(lows, gs.step, Fraction(gs.scale) ** 2))
    assert np.array_equal(band.T, expected)
    tops, _ = _top_cells(spec, (), 1)
    assert np.array_equal(tops, expected) and (2 * tops + 1).max() > 255
    assert betti(sphere_band_complex(1, spec)) == (1, 1, 0)


def test_centers_past_int64_with_no_polynomial():
    """Scaled centers past 2**63 are held as Python ints even when no
    polynomial, whose magnitude would bound them, is evaluated."""
    spec = GridSpec(box=((-2**63, 2**63),) * 2, resolution=2**62)
    assert _GridScale(spec).lo[0] < -2**63
    assert np.array_equal(_top_cells(spec, ())[0], np.argwhere(np.ones(spec.shape, dtype=bool)))
    assert np.array_equal(_top_cells(spec, (), 2**62)[0], np.array(list(_band_cells(spec, Fraction(2**62)))))


@st.composite
def scaled_poly_cases(draw):
    """(a rational polynomial in 1-4 variables, a grid scale, integer points as columns, their bound)."""
    k = draw(st.integers(1, 4))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-60, max_value=60, max_denominator=24))
    quad = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            quad[i][j] = quad[j][i] = draw(entry)
    poly = QuadraticPoly.make(k, quad=quad, lin=[draw(entry) for _ in range(k)], const=draw(entry))
    # Small scales and points keep every value inside int64; large ones pass it.
    scale = draw(st.one_of(st.integers(1, 1000), st.integers(1, 2**40)))
    bound = draw(st.sampled_from([10**3, 2**33]))
    point = st.lists(st.integers(-bound, bound), min_size=k, max_size=k)
    points = draw(st.lists(point, min_size=1, max_size=6))
    return poly, scale, [list(c) for c in zip(*points)], bound


def _old_scaled_terms(poly, scale):
    """The integer terms as `_ScaledPoly` formed them in Fraction arithmetic, int(lcm * x)."""
    dens = [x.denominator for x in (poly.const, *poly.lin, *itertools.chain(*poly.quad))]
    lcm = math.lcm(*dens)
    quad = []
    for i in range(poly.k):
        for j in range(i, poly.k):
            if poly.quad[i][j]:
                quad.append((i, j, int((1 if i == j else 2) * lcm * poly.quad[i][j])))
    lin = [(i, int(lcm * b * scale)) for i, b in enumerate(poly.lin) if b]
    return quad, lin, int(lcm * poly.const) * scale * scale, lcm


@settings(derandomize=True, max_examples=200, deadline=None)
@given(scaled_poly_cases())
def test_scaled_poly_terms_and_signs_match_fraction_arithmetic(case):
    """`_ScaledPoly` forms its terms in integers: they equal int(lcm * x) of
    the Fraction coefficients, and its values are lcm * scale**2 * P(u / scale)
    exactly, so their signs are those of P, on int64 arrays when the
    magnitude bound allows them and always on Python-int arrays."""
    poly, scale, columns, bound = case
    e = _ScaledPoly(poly, scale)
    quad, lin, const, lcm = _old_scaled_terms(poly, scale)
    assert (e.quad_terms, e.lin_terms, e.const_term) == (quad, lin, const)
    dtypes = [object] + ([np.int64] if e.magnitude(bound) < _INT64_SAFE else [])
    for dtype in dtypes:
        values = e.values([np.array(c, dtype=dtype) for c in columns])
        for v, point in zip(np.broadcast_to(values, (len(columns[0]),)).tolist(), zip(*columns)):
            exact = poly.evaluate([Fraction(u, scale) for u in point])
            assert v == lcm * scale * scale * exact
            assert (v > 0) - (v < 0) == (exact > 0) - (exact < 0)


@st.composite
def grid_specs(draw):
    """A grid of 1-3 axes with rational bounds and resolution."""
    res = draw(st.fractions(min_value=Fraction(1, 60), max_value=5, max_denominator=60))
    box = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.fractions(min_value=-40, max_value=40, max_denominator=36))
        box.append((lo, lo + res * draw(st.integers(1, 30))))
    return GridSpec(box=tuple(box), resolution=res)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(grid_specs())
def test_grid_shape_and_integer_view_match_fraction_arithmetic(spec):
    """A spec's shape, kept from its width check, is (hi - lo) / h per axis
    and takes no part in eq, hash or repr; `_GridScale` forms its scale,
    step and lower bounds in integers, equal to the Fraction products."""
    assert spec.shape == tuple(int((hi - lo) / spec.resolution) for lo, hi in spec.box)
    twin = GridSpec(box=spec.box, resolution=spec.resolution)
    assert twin == spec and hash(twin) == hash(spec) and "shape" not in repr(spec)
    gs = _GridScale(spec)
    assert gs.scale == 2 * math.lcm(spec.resolution.denominator, *(lo.denominator for lo, _ in spec.box))
    assert gs.step == spec.resolution * gs.scale and gs.step % 2 == 0
    assert gs.lo == [lo * gs.scale for lo, _ in spec.box]
    assert gs.u_max == max((abs(b * gs.scale) for axis in spec.box for b in axis), default=0)


class TestSphereComplexes:
    def setup_method(self):
        self.spec = GridSpec.symmetric(Fraction(5, 4), Fraction(1, 8), 3)

    def test_equator_band_is_circle(self):
        # the zero set of X3^2 on the unit sphere is the equator
        eq = QuadraticForm.make(3, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        vec = pad_betti(betti(sphere_zero_complex([eq], 1, self.spec, Fraction(1, 8))), 2)
        assert vec == (1, 1)

    def test_cone_gives_two_circles(self):
        cone = QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        vec = pad_betti(betti(sphere_zero_complex([cone], 1, self.spec, Fraction(1, 4))), 2)
        assert vec == (2, 2)

    def test_positive_form_has_no_zeros(self):
        pos = QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert len(sphere_zero_complex([pos], 1, self.spec, Fraction(1, 4))) == 0

    def test_band_complex_is_a_sphere(self):
        assert betti(sphere_band_complex(1, self.spec)) == (1, 0, 1, 0)

    def test_box_must_contain_sphere(self):
        # a valid band on the same grid is cached first; the check still runs on every call
        small = GridSpec.symmetric(Fraction(1, 2), Fraction(1, 8), 3)
        assert betti(sphere_band_complex(Fraction(1, 2), small)) == (1, 0, 1, 0)
        for _ in range(2):
            with pytest.raises(ValueError, match="does not contain"):
                sphere_band_complex(1, small)

    def test_oversized_grid_rejected_before_work(self):
        side = 2**11
        spec = GridSpec(box=((0, side), (0, side + 1)), resolution=1)
        assert side * (side + 1) > MAX_GRID_CELLS
        # a valid band at the same radius is cached first; the limit is still checked on every call
        sphere_band_complex(1, GridSpec.symmetric(2, Fraction(1, 4), 2))
        for _ in range(2):
            with pytest.raises(ValueError, match="above the limit"):
                grid_complex([], spec)
            with pytest.raises(ValueError, match="above the limit"):
                sphere_band_complex(1, GridSpec.symmetric(2, Fraction(1, 1024), 2))

    def test_region_complex_empty_system_gives_two_caps(self):
        spec = GridSpec.symmetric(21, Fraction(1, 2), 2)
        cx = sphere_region_complex([], Fraction(1, 10), spec)
        assert betti(cx)[0] == 2

    # The lifts `double_cover_audit` builds at its defaults.  The shell-k2 lift
    # is a thin ring near each pole, so its top cells are adjacent least often
    # along the last axis, the homogenizing one.
    @pytest.mark.parametrize("scenario, run_axis, runs, last_axis_runs", [
        (scenario_shell(2, Fraction(1, 2), 1), 1, 4472, 8720),
        (scenario_products(2), 2, 13448, 13448),
        (scenario_products(1), 1, 172, 172),
    ], ids=["shell-k2", "products-k2", "products-k1"])
    def test_lift_runs_along_the_axis_of_most_adjacent_top_cells(self, scenario, run_axis, runs, last_axis_runs):
        eps = Fraction(1, 10)
        polys = [homogenize(p).as_poly() for p in scenario.system]
        cx = sphere_region_complex(polys, eps, _lift_spec(eps, scenario.k + 1))
        assert cx._frame.strides.index(1) == run_axis and len(cx._first) == runs
        last = close_under_faces(np.array(sorted(cx.cells)), ambient_dim=scenario.k + 1)
        assert last.cells == cx.cells and len(last._first) == last_axis_runs


def _lift_polys(scenario):
    return [homogenize(p).as_poly() for p in scenario.system]


def _check_cap(polys, eps, spec) -> bool:
    """Whether `sphere_region_cap` returns a cap; if it does, the whole lift
    must be that cap plus its point reflection, with disjoint closures, so
    its Betti numbers and Euler characteristic are twice the cap's and it
    runs along the cap's axis."""
    cap = sphere_region_cap(polys, eps, spec)
    if cap is None:
        return False
    whole = sphere_region_complex(polys, eps, spec)
    assert tuple(2 * b for b in betti(cap)) == betti(whole)
    assert 2 * cap.euler_characteristic() == whole.euler_characteristic()
    # Cell codes run from 0 to 2n on an axis of n cells; the reflection maps x to 2n - x.
    mirror = {tuple(2 * n - x for x, n in zip(c, spec.shape)) for c in cap.cells}
    assert cap.cells.isdisjoint(mirror) and cap.cells | mirror == whole.cells
    assert cap._frame.strides.index(1) == whole._frame.strides.index(1)
    return True


@pytest.mark.parametrize("scenario", [scenario_products(1), scenario_products(2),
                                      scenario_shell(2, Fraction(1, 2), 1)],
                         ids=["products-k1", "products-k2", "shell-k2"])
def test_undeformed_lift_is_its_cap_and_the_reflection(scenario):
    eps = Fraction(1, 10)
    assert _check_cap(_lift_polys(scenario), eps, _lift_spec(eps, scenario.k + 1))


@st.composite
def even_lifts(draw):
    """Systems with no linear part on small lift grids symmetric about 0,
    with an even or odd cell count per axis, coarse enough at the largest
    widths that the truncation keeps cells on the middle layers."""
    dim = draw(st.integers(2, 3))
    eps = draw(st.sampled_from([Fraction(1), Fraction(1, 2)]))
    h = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]))
    m = math.ceil(4 / eps / h) + draw(st.integers(0, 3))  # the box holds the radius-2/eps sphere
    spec = GridSpec(box=((-m * h / 2, m * h / 2),) * dim, resolution=h)
    polys = []
    for _ in range(draw(st.integers(0, 2))):
        quad = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                quad[i][j] = quad[j][i] = draw(st.integers(-3, 3))
        polys.append(QuadraticPoly.make(dim, quad=quad, const=draw(st.integers(-16, 16))))
    return polys, eps, spec


@settings(derandomize=True, max_examples=80, deadline=None)
@given(even_lifts())
def test_cap_of_an_even_system_matches_the_whole_lift(lift):
    _check_cap(*lift)


class TestCapRefusals:
    """Each condition of `sphere_region_cap`, broken once on an input whose
    repaired twin does take the cap."""

    eps = Fraction(1, 10)

    def test_linear_term(self):
        sc = scenario_products(1)
        polys = _lift_polys(sc)
        family = [dehomogenize(random_pd_form(sc.k + 2, 0))]
        t = Fraction(1, 1000)  # the deformation audit's default t
        deformed = [p.blend(h, t) for p, h in zip(polys, family)]
        spec = _lift_spec(self.eps, sc.k + 1)
        assert sphere_region_cap(deformed, self.eps, spec) is None
        assert _check_cap(polys, self.eps, spec)

    def test_box_off_centre(self):
        h = Fraction(1, 2)
        off = GridSpec(box=((-21, 22), (-21, 22)), resolution=h)
        assert sphere_region_cap([], self.eps, off) is None
        assert betti(sphere_region_complex([], self.eps, off)) == (2, 0, 0)
        assert _check_cap([], self.eps, GridSpec.symmetric(22, h, 2))

    def test_kept_cell_on_the_middle_layer(self):
        polys = _lift_polys(scenario_products(1))
        coarse = _lift_spec(self.eps, 2, 20)
        assert sphere_region_cap(polys, self.eps, coarse) is None
        assert betti(sphere_region_complex(polys, self.eps, coarse)) == (1, 0, 0)
        assert _check_cap(polys, self.eps, _lift_spec(self.eps, 2))


# Each builder on a nonempty and, where one exists, an empty input: the
# unit circle on a 2-D grid, and the lift of the empty system and of
# -1 >= 0.  No grid that contains the sphere has an empty band.
_CIRCLE_GRID = GridSpec.symmetric(Fraction(5, 4), Fraction(1, 8), 2)
_LIFT_GRID = _lift_spec(Fraction(1, 10), 2)
_CONE_2D = QuadraticForm.make(2, [[1, 0], [0, -1]])
_SQUARES_2D = QuadraticForm.make(2, [[1, 0], [0, 1]])
_NEVER = QuadraticPoly.make(2, const=-1)
BUILDER_LENGTH_CASES = {
    "grid": (lambda: grid_complex([QuadraticPoly.make(2, quad=[[1, 0], [0, 1]], const=-1)], _CIRCLE_GRID),
             _CIRCLE_GRID, False),
    "grid-empty": (lambda: grid_complex([_NEVER], _CIRCLE_GRID), _CIRCLE_GRID, True),
    "zero": (lambda: sphere_zero_complex([_CONE_2D], 1, _CIRCLE_GRID, Fraction(1, 4)), _CIRCLE_GRID, False),
    "zero-empty": (lambda: sphere_zero_complex([_SQUARES_2D], 1, _CIRCLE_GRID, Fraction(1, 4)),
                   _CIRCLE_GRID, True),
    "band": (lambda: sphere_band_complex(1, _CIRCLE_GRID), _CIRCLE_GRID, False),
    "region": (lambda: sphere_region_complex([], Fraction(1, 10), _LIFT_GRID), _LIFT_GRID, False),
    "region-empty": (lambda: sphere_region_complex([_NEVER], Fraction(1, 10), _LIFT_GRID), _LIFT_GRID, True),
}


@pytest.mark.parametrize("case", BUILDER_LENGTH_CASES)
def test_builder_betti_has_an_entry_per_grid_axis_and_one_more(case):
    """A builder's complex is empty or its top cells span every grid axis, so
    `betti` gives b_0..b_dim on either rank path; `harness` reads builder
    vectors without padding them."""
    build, spec, empty = BUILDER_LENGTH_CASES[case]
    cx = build()
    assert (len(cx) == 0) == empty
    assert len(betti(cx)) == len(betti_by_cells(cx)) == spec.dim + 1


class TestDeformationParams:
    def test_defaults(self):
        params = DeformationParams()
        assert params.eps == Fraction(1, 10)
        assert params.delta == Fraction(1, 1000)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            DeformationParams(eps=Fraction(1, 1000), delta=Fraction(1, 10))
