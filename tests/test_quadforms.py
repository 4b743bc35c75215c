"""Unit tests for exact quadratic data and grid complexes."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import betti_by_cells
from hypothesis import assume, example, given, settings, strategies as st

from quadbetti import homology, quadforms
from quadbetti.exact import (
    QuadraticForm,
    QuadraticPoly,
    check_smooth_pencil,
    dehomogenize,
    det,
    homogenize,
    is_nonsingular_quadric,
    parse_rational,
    random_pd_form,
)
from quadbetti.harness import (
    CONE,
    _jsonable,
    alexander_equator_audit,
    pad_betti,
    scenario_products,
    scenario_shell,
    smith_audit,
)
from quadbetti.homology import CubicalComplex, _run_complex, betti, close_grid, close_under_faces
from quadbetti.quadforms import (
    DeformationParams,
    MAX_GRID_CELLS,
    GridSpec,
    _INT64_SAFE,
    _ScaledPoly,
    _band_mask,
    _band_tops,
    _box_mask,
    _candidates,
    _check_axes,
    _fold,
    _sphere_cells,
    ci_probe,
    grid_block,
    grid_complex,
    sphere_band_complex,
    sphere_region_block,
    sphere_region_complex,
    sphere_zero_complex,
    sphere_zero_split,
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
        assert _jsonable(Fraction(3, 4)) == "3/4"
        assert _jsonable(Fraction(-6)) == "-6"

    @given(st.fractions())
    @example(Fraction(0))
    @example(Fraction(-1, 2**70))
    def test_format_writes_numerator_over_denominator(self, q):
        # Reports write a rational as "p/q", or "p" when it is an integer.
        expected = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        assert _jsonable(q) == expected


class TestQuadraticData:
    def test_evaluate(self):
        # x^2 - x at x = 3 is 6
        p = QuadraticPoly.make(1, quad=[[1]], lin=[-1], const=0)
        assert p.evaluate([3]) == 6

    def test_cross_term_convention(self):
        # gram [[0,1/2],[1/2,0]] represents x1*x2
        f = QuadraticForm.make(2, [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
        assert f.as_poly().evaluate([3, 5]) == 15

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
        assert f.as_poly().evaluate([0, 0, 1]) == 1
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
        assert f.as_poly().evaluate(point + [Fraction(1)]) == p.evaluate(point)


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
def test_det_matches_the_leibniz_sum(rows):
    # The sum over permutations, signed by their inversion count, shares no
    # code with elimination; n <= 5 keeps it to at most 120 terms.
    n = len(rows)
    want = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        want += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    assert det(rows) == want


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
        for system, tops in (([strip], 32), ([], 256)):
            mask = _box_mask(spec, system)
            cx = grid_complex(system, spec)
            assert cx._frame.strides[1] == 1 and np.count_nonzero(mask) == tops
            assert {c for c in cx.cells if all(x & 1 for x in c)} == {
                tuple(2 * j + 1 for j in jvec) for jvec in np.argwhere(mask).tolist()}
        cx = grid_complex([strip], spec)
        assert len(cx._first) == 33 and betti(cx) == (1, 0, 0)

    def test_whole_box_allocates_no_more_than_its_cells(self):
        # One cell on 20 axes: a mask padded by one cell per axis would
        # take 2**20 bytes.
        spec = GridSpec(box=((0, 1),) * 20, resolution=1)
        tracemalloc.start()
        try:
            cells = np.argwhere(_box_mask(spec, []))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cells.tolist() == [[0] * 20]
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


def _products(k, a, box=(-1, 2), res=Fraction(1, 4)):
    """X_i (X_i - a) >= 0, i = 1..k, on box^k.  On the default grid its mask is
    2^k orthant blocks, mirror images about 1/2, for every a in (7/8, 9/8]."""
    system = [QuadraticPoly.make(k, quad=[[int(r == c == i) for c in range(k)] for r in range(k)],
                                 lin=[-a if r == i else 0 for r in range(k)]) for i in range(k)]
    return system, GridSpec(box=(box,) * k, resolution=res)


def _block_matches_box(system, spec) -> int:
    """Check `grid_block` against the whole box and return its copy count."""
    block, copies = grid_block(system, spec)
    full = grid_complex(system, spec)
    assert isinstance(block, CubicalComplex) and block.ambient_dim == spec.dim
    assert tuple(copies * b for b in betti(block)) == betti(full)
    assert copies * block.euler_characteristic() == full.euler_characteristic()
    assert copies * len(block) == len(full)
    # The block runs along the last axis, as the box does.
    assert block._frame.strides[-1] == 1 or len(block) == 0
    return copies


class TestGridBlock:
    @pytest.mark.parametrize("a", ["15/16", "1", "17/16", "9/8"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_products_fold_to_one_orthant_block(self, k, a):
        system, spec = _products(k, Fraction(a))
        assert _block_matches_box(system, spec) == 2**k
        block, _ = grid_block(system, spec)
        # One solid 4^k block of the 12^k grid, whose lower halves are 6 cells.
        assert betti(block)[0] == 1 and block.n_cells(k) == 4**k
        assert {c for c in block.cells if all(x & 1 for x in c)} == {
            tuple(2 * j + 1 for j in jvec) for jvec in itertools.product(range(4), repeat=k)}

    def test_curated_products_fold(self):
        for k in (1, 2, 3, 4):
            sc = scenario_products(k)
            assert _block_matches_box(sc.system, sc.grid) == 2**k

    @pytest.mark.parametrize("k", [2, 3])
    def test_shells_do_not_fold(self, k):
        sc = scenario_shell(k, Fraction(1, 2), 1)
        assert _block_matches_box(sc.system, sc.grid) == 1

    def test_random_systems(self):
        rng = random.Random(35)
        folded = 0
        for _ in range(60):
            k = rng.randint(1, 3)
            half = Fraction(rng.randint(1, 4), 2)
            lo = -half if rng.random() < 0.7 else -half - Fraction(1, 2)
            spec = GridSpec(box=((lo, half),) * k, resolution=Fraction(1, 2) if k == 3 else Fraction(1, 4))
            system = [random_poly(rng, k) for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.6:
                # Even polynomials on a symmetric box give symmetric masks.
                system = [QuadraticPoly.make(k, quad=p.quad, const=p.const) for p in system]
            folded += _block_matches_box(system, spec) > 1
        assert 10 <= folded <= 50

    def test_centered_disk_keeps_its_middle_slab(self):
        # Symmetric, but the middle layers are kept: no fold.
        disk = QuadraticPoly.make(2, quad=[[-1, 0], [0, -1]], const=1)
        for res in (Fraction(1, 2), Fraction(2, 5)):  # 8 and 10 cells: even m
            spec = GridSpec.symmetric(2, res, 2)
            assert _block_matches_box([disk], spec) == 1
        spec = GridSpec(box=((-2, 2),) * 2, resolution=Fraction(4, 9))  # 9 cells: odd m
        assert _block_matches_box([disk], spec) == 1

    def test_unequal_blocks_do_not_fold_their_axis(self):
        # x (x - 3/2) >= 0 on [-1, 2] at 1/4: 4 cells below 0, 2 above 3/2, the
        # middle layers empty, but the mask is not its mirror image.
        system, spec = _products(1, Fraction(3, 2))
        assert _block_matches_box(system, spec) == 1
        # In 2-D the first axis still folds and the second does not.
        (x, _), spec = _products(2, Fraction(1))
        (_, y), _ = _products(2, Fraction(3, 2))
        assert _block_matches_box([x, y], spec) == 2
        block, _ = grid_block([x, y], spec)
        assert max(c[0] for c in block.cells) <= 2 * 6 and max(c[1] for c in block.cells) > 2 * 6

    @pytest.mark.parametrize("res, m", [(Fraction(3, 13), 13), (Fraction(3, 14), 14), (Fraction(1, 4), 12)])
    def test_odd_and_even_cell_counts(self, res, m):
        system, spec = _products(2, Fraction(1), res=res)
        assert spec.shape == (m, m)
        assert _block_matches_box(system, spec) == 4
        block, _ = grid_block(system, spec)
        assert max(c[0] for c in block.cells) <= 2 * (m // 2)

    def test_empty_system_and_empty_set(self):
        spec = GridSpec(box=((-1, 1),) * 2, resolution=Fraction(1, 2))
        assert _block_matches_box([], spec) == 1
        empty = QuadraticPoly.make(2, const=-1)
        assert _block_matches_box([empty], spec) == 4 and betti(grid_block([empty], spec)[0]) == (0, 0, 0)

    def test_checks_run_before_any_array(self):
        spec = GridSpec(box=((0, 1),) * 2, resolution=Fraction(1, 2))
        with pytest.raises(ValueError, match="variables"):
            grid_block([QuadraticPoly.make(3)], spec)
        big = GridSpec(box=((0, 1),) * 23, resolution=Fraction(1, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="above the limit"):
                grid_block([], big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


def _affine_grid_case(name, value):
    """(system, spec) of an affine-grid benchmark scenario at one menu value:
    the products X_i (X_i - a) >= 0 on [-1, 2]^k at resolution 1/4, or the
    shell value <= |x| <= 1."""
    k = int(name[-1])
    if name.startswith("products"):
        return _products(k, Fraction(value))
    sc = scenario_shell(k, Fraction(value), 1)
    return sc.system, sc.grid


# Each affine-grid scenario at each menu value, with its box's Betti vector.
AFFINE_GRID = [
    *((f"products-k{k}", a, (2**k,) + (0,) * k) for k in (3, 4) for a in ("15/16", "1", "17/16", "9/8")),
    *(("shell-k2", r, (1, 1, 0)) for r in ("2/5", "9/20", "1/2", "11/20", "3/5")),
    *(("shell-k3", r, (1, 0, 1, 0)) for r in ("1/2", "11/20", "3/5")),
]


@pytest.mark.parametrize("name, value, vector", AFFINE_GRID, ids=[f"{n}-{v}" for n, v, _ in AFFINE_GRID])
def test_box_builds_close_the_mask_with_no_code_array(monkeypatch, name, value, vector):
    """`grid_block` and `grid_complex` close the kept-cell mask directly: with
    `np.argwhere` and `homology._encode` raising, each still gives the box's vector."""
    system, spec = _affine_grid_case(name, value)

    def refuse(*args, **kwargs):
        raise AssertionError("a box build formed a code array")

    monkeypatch.setattr(np, "argwhere", refuse)
    monkeypatch.setattr(homology, "_encode", refuse)
    block, copies = grid_block(system, spec)
    assert tuple(copies * b for b in betti(block)) == betti(grid_complex(system, spec)) == vector


def _sphere_spec(dim, radius, width):
    """The grid of a set on the radius-r sphere in dim variables at cell width
    `width`, as `_candidates` forms it: `GridSpec.symmetric(r + 2 width, width, dim)`."""
    return GridSpec.symmetric(Fraction(radius) + 2 * Fraction(width), width, dim)


# The unit sphere's cell width in the Smith and Alexander audits, and the lifts'
# default one at eps = 1/10: r/32 = 1/(16 eps) for r = 2/eps.
_UNIT_WIDTH = Fraction(1, 8)
_LIFT_WIDTH = Fraction(5, 8)
_PATH_CONES = [QuadraticForm.make(2, [[1, 0], [0, -1]]), QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])]
# The products-k1 lift takes the polar cap at its default width and is refused
# it at width 20, whose middle layers hold lift candidates.
_PATH_LIFTS = {"cap": _LIFT_WIDTH, "refused": 20}
SPHERE_PATH_CASES = {
    "band": (lambda: [(sphere_band_complex(1, _UNIT_WIDTH, dim), 1) for dim in (2, 3)],
             [(1, 1, 0), (1, 0, 1, 0)]),
    "zero": (lambda: [(sphere_zero_complex([f], 1, _UNIT_WIDTH, Fraction(1, 4)), 1) for f in _PATH_CONES],
             [(4, 0, 0), (2, 2, 0, 0)]),
    "split": (lambda: [(cx, 1) for f in _PATH_CONES for cx in sphere_zero_split([f], 1, _UNIT_WIDTH, Fraction(1, 4))],
              [(4, 0, 0), (4, 0, 0), (2, 2, 0, 0), (3, 1, 0, 0)]),
    "region": (lambda: [(sphere_region_complex(_lift_polys(scenario_products(1)), Fraction(1, 10), w, 2), 1)
                        for w in _PATH_LIFTS.values()],
               [(4, 0, 0), (1, 0, 0)]),
    "block-cap": (lambda: [sphere_region_block(_lift_polys(scenario_products(1)), Fraction(1, 10),
                                               _PATH_LIFTS["cap"], 2)],
                  [(4, 0, 0)]),
    "block-refused": (lambda: [sphere_region_block(_lift_polys(scenario_products(1)), Fraction(1, 10),
                                                   _PATH_LIFTS["refused"], 2)],
                      [(1, 0, 0)]),
}


@pytest.mark.parametrize("case", SPHERE_PATH_CASES)
def test_sphere_builds_close_in_the_grid_frame(monkeypatch, case):
    """Every sphere builder closes its kept band rows through `close_grid`, on
    the cap path and the refused one: with `np.argwhere` and
    `homology._encode` raising, each still gives its vector."""
    build, vectors = SPHERE_PATH_CASES[case]

    def refuse(*args, **kwargs):
        raise AssertionError("a sphere build formed a code array")

    monkeypatch.setattr(np, "argwhere", refuse)
    monkeypatch.setattr(homology, "_encode", refuse)
    assert [tuple(copies * b for b in betti(cx)) for cx, copies in build()] == vectors


@st.composite
def mirrored_masks(draw):
    """A random half-mask mirrored along random axes, each with an empty
    middle slab of one layer (odd m) or two (even m), and the axes it was
    mirrored along with their parities.  One kept cell lies in the middle
    slab of every other axis, so those never fold."""
    dim = draw(st.integers(1, 3))
    shape = [draw(st.integers(2, 5)) for _ in range(dim)]
    half = np.array(draw(st.lists(st.booleans(), min_size=math.prod(shape), max_size=math.prod(shape))),
                    dtype=bool).reshape(shape)
    mirrored = draw(st.lists(st.sampled_from(range(dim)), unique=True))
    odd = {a: draw(st.booleans()) for a in mirrored}
    for a in mirrored:
        if not odd[a]:
            half[(slice(None),) * a + (-1,)] = False
    half[tuple(0 if a in odd else (n - 1) // 2 for a, n in enumerate(shape))] = True
    full = half
    for a in draw(st.permutations(mirrored)):
        pad = np.zeros(full.shape[:a] + (int(odd[a]),) + full.shape[a + 1:], dtype=bool)
        full = np.concatenate([full, pad, np.flip(full, a)], axis=a)
    return half, full, len(mirrored)


@settings(max_examples=60, deadline=None)
@given(mirrored_masks())
def test_fold_recovers_a_mirrored_mask(case):
    half, full, n_mirrored = case
    block, copies = _fold(full)
    assert copies == 2**n_mirrored and np.array_equal(block, half)
    close = lambda mask: close_under_faces(2 * np.argwhere(mask) + 1, ambient_dim=mask.ndim, run_axis=-1)
    assert tuple(copies * b for b in betti(close(block))) == betti(close(full))
    assert copies * close(block).euler_characteristic() == close(full).euler_characteristic()


def test_equal_specs_and_polynomials_hash_once_and_alike():
    # Two built alike, and one with the same box written out.
    specs = [GridSpec.symmetric(Fraction(5, 2), Fraction(1, 8), 3) for _ in range(2)]
    specs.append(GridSpec(box=((Fraction(-5, 2), Fraction(5, 2)),) * 3, resolution=Fraction(1, 8)))
    for twin in specs[1:]:
        assert specs[0] is not twin and specs[0] == twin and hash(specs[0]) == hash(twin)
    polys = [QuadraticPoly.make(2, quad=[[1, Fraction(1, 3)], [Fraction(1, 3), 2]], lin=[1, 0], const=Fraction(-5, 7))
             for _ in range(2)]
    assert polys[0] is not polys[1] and polys[0] == polys[1] and hash(polys[0]) == hash(polys[1])
    assert hash(polys[0]) == hash((polys[0].k, polys[0].quad, polys[0].lin, polys[0].const))
    assert polys[0] != QuadraticPoly.make(2) and "_hash" not in repr(polys[0]) + repr(specs[0])
    # blend builds its result positionally, and still hashes as an equal make() would.
    blended = polys[0].blend(polys[1], Fraction(1, 3))
    assert blended == polys[0] and hash(blended) == hash(polys[0])
    # Equal radii and widths, however written, read one candidate entry.
    _candidates.cache_clear()
    keys = (("2", "1/8"), (2, Fraction(1, 8)), (Fraction(4, 2), Fraction(2, 16)))
    cells = [_sphere_cells((), 3, r, w)[1] for r, w in keys]
    assert _candidates.cache_info().misses == 1 and _candidates.cache_info().hits == 2
    assert all(np.array_equal(c, cells[0]) for c in cells[1:])


def test_a_miss_forms_the_grid_and_a_hit_forms_none(monkeypatch):
    """Two identical builds form one `GridSpec`, on the first one's cache miss."""
    formed = []

    def counted(self, _real=GridSpec.__post_init__):
        formed.append(self)
        return _real(self)

    want = _sphere_spec(2, 20, _LIFT_WIDTH)
    monkeypatch.setattr(GridSpec, "__post_init__", counted)
    _candidates.cache_clear()
    sphere_region_block([], Fraction(1, 10), _LIFT_WIDTH, 2)
    assert formed == [want]
    formed.clear()
    sphere_region_block([], Fraction(1, 10), _LIFT_WIDTH, 2)
    assert formed == []


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


# Centers are odd multiples of 1/4 on every grid below, so x^2 - y^2 = +-1/2 at
# (3/4, 1/4) and (1/4, 3/4), and the eps = 1 cap y^2 - x^2 and y - 5/4 are 0
# at (5/4, 5/4) on the radius-2 circle.
_SADDLE = QuadraticForm.make(2, [[1, 0], [0, -1]])
_HALF_MINUS_SADDLE = QuadraticPoly.make(2, quad=[[-1, 0], [0, 1]], const=Fraction(1, 2))
_HALF_PLUS_SADDLE = QuadraticPoly.make(2, quad=[[1, 0], [0, -1]], const=Fraction(1, 2))
_CAP_EPS_1 = QuadraticPoly.make(2, quad=[[-1, 0], [0, 1]])
_ABOVE_LINE = QuadraticPoly.make(2, lin=[0, 1], const=Fraction(-5, 4))
_SMALL = GridSpec.symmetric(Fraction(3, 2), Fraction(1, 2), 2)
_LARGE = GridSpec.symmetric(Fraction(5, 2), Fraction(1, 2), 2)
# The grids of the unit circle and of the eps = 1 lift, at width 1/2.
_UNIT_HALVES = _sphere_spec(2, 1, Fraction(1, 2))
_LIFT_HALVES = _sphere_spec(2, 2, Fraction(1, 2))

# builder call, its grid, its sphere radius (None: the whole box), and the
# quadratics that must be >= 0 at a kept center
BOUNDARY_CASES = {
    "grid": (lambda: grid_complex([_HALF_MINUS_SADDLE, _HALF_PLUS_SADDLE], _SMALL),
             _SMALL, None, [_HALF_MINUS_SADDLE, _HALF_PLUS_SADDLE]),
    "zero": (lambda: sphere_zero_complex([_SADDLE], 1, Fraction(1, 2), Fraction(1, 2)),
             _UNIT_HALVES, 1, [_HALF_MINUS_SADDLE, _HALF_PLUS_SADDLE]),
    "band": (lambda: sphere_band_complex(1, Fraction(1, 2), 2), _UNIT_HALVES, 1, []),
    "region": (lambda: sphere_region_complex([_ABOVE_LINE], 1, Fraction(1, 2), 2),
               _LIFT_HALVES, 2, [_CAP_EPS_1, _ABOVE_LINE]),
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
# The radius-2**30 circle at width 2**26 has 36 x 36 cells, and its band's
# bound dim * u_max^2 passes 2**62, so the band mask is formed on Python ints
# while the centers stay int64; the radius-2**62 circle of the eps = 2**-61
# lift at width 2**60 has 12 x 12 cells, and its own bound u_max passes
# 2**62, so its centers are Python ints too.
_WIDE_R, _WIDE_W = 2**30, 2**26
_WIDE_GRID = _sphere_spec(2, _WIDE_R, _WIDE_W)
_WIDER_EPS, _WIDER_W = Fraction(1, 2**61), 2**60
_WIDER_GRID = _sphere_spec(2, 2 / _WIDER_EPS, _WIDER_W)
_CUBE = _sphere_spec(3, 1, Fraction(1, 4))
_QUARTERS = _sphere_spec(2, Fraction(5, 4), Fraction(1, 4))
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
# are inputs for which a bound taken first passes 2**62, the grid's or a
# polynomial's own, so that kernel computes with Python ints.
CENTER_CASES = {
    "zero": (lambda: sphere_zero_complex([_SMALL_FORM], 1, Fraction(1, 4), Fraction(1, 2)),
             _CUBE, 1, _abs_at_most(_SMALL_FORM, Fraction(1, 2))),
    "band": (lambda: sphere_band_complex(1, Fraction(1, 4), 3), _CUBE, 1, []),
    # the radius-5/4 circle passes through the grid vertices (3/4, 1) and (1, 3/4),
    # so it touches cells at their nearest and at their farthest corner
    "band-corners": (lambda: sphere_band_complex(Fraction(5, 4), Fraction(1, 4), 2), _QUARTERS,
                     Fraction(5, 4), []),
    "region": (lambda: sphere_region_complex([_SMALL_POLY], 1, Fraction(1, 2), 2), _LIFT_HALVES, 2,
               [_cap(1, 2), _SMALL_POLY]),
    "grid-coefficients-wide": (lambda: grid_complex([_WIDE_SADDLE, _HUGE_2], _LARGE), _LARGE, None,
                               [_WIDE_SADDLE, _HUGE_2]),
    "zero-coefficients-wide": (lambda: sphere_zero_complex([_WIDE_CONE], 1, Fraction(1, 4), Fraction(1, 4)),
                               _CUBE, 1, _abs_at_most(_WIDE_CONE, Fraction(1, 4))),
    "region-coefficients-wide": (lambda: sphere_region_complex([_WIDE_SADDLE], 1, Fraction(1, 2), 2),
                                 _LIFT_HALVES, 2, [_cap(1, 2), _WIDE_SADDLE]),
    "band-grid-wide": (lambda: sphere_band_complex(_WIDE_R, _WIDE_W, 2), _WIDE_GRID, _WIDE_R, []),
    # |x^2 - y^2| <= r^2 / 4 on the radius-r circle: the cells near its diagonals
    "zero-grid-wide": (lambda: sphere_zero_complex([_SADDLE_2], _WIDE_R, _WIDE_W, _WIDE_R**2 // 4),
                       _WIDE_GRID, _WIDE_R, _abs_at_most(_SADDLE_2, _WIDE_R**2 // 4)),
    "region-grid-wide": (lambda: sphere_region_complex([_UPPER], _WIDER_EPS, _WIDER_W, 2),
                         _WIDER_GRID, 2 / _WIDER_EPS, [_cap(_WIDER_EPS, 2), _UPPER]),
    # A Python-int evaluator beside an int64 one in one build, on int64 centers.
    "grid-mixed-wide": (lambda: grid_complex([_WIDE_SADDLE, _UPPER], _LARGE), _LARGE, None,
                        [_WIDE_SADDLE, _UPPER]),
    "region-mixed-wide": (lambda: sphere_region_complex([_WIDE_SADDLE, _UPPER], 1, Fraction(1, 2), 2),
                          _LIFT_HALVES, 2, [_cap(1, 2), _WIDE_SADDLE, _UPPER]),
}


@pytest.mark.parametrize("name", CENTER_CASES)
def test_builders_match_fraction_evaluation(name):
    build, spec, radius, polys = CENTER_CASES[name]
    if name.endswith("-wide"):
        coeffs = [x for p in polys for x in (p.const, *p.lin, *itertools.chain(*p.quad))]
        # a band's mask bound is dim * u_max^2, and an evaluator's bound at
        # least its polynomial's largest numerator
        assert max([spec.dim * spec.u_max**2 if radius else 0] + [abs(x.numerator) for x in coeffs]) >= _INT64_SAFE
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
    _candidates.cache_clear()
    first = _candidates(spec.dim, r, spec.resolution, None)
    assert _candidates.cache_info().misses == 1
    again = _candidates(spec.dim, r, spec.resolution, None)
    assert _candidates.cache_info().hits == 1 and again is first
    assert first[0] == spec
    band, succ = first[1:3]
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
    assert np.array_equal(_sphere_cells((), spec.dim, r, spec.resolution)[1], band)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8),
       st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4))
@example(2, Fraction(1, 2), Fraction(5, 2))  # r + 2w = 2 snaps up to 4w
@example(3, Fraction(2, 3), Fraction(3, 4))  # r + 2w = 11/6 snaps up to 3w
def test_candidate_entry_forms_the_grid_and_band_of_its_key(dim, width, ratio):
    """The entry of (dim, r, width) holds the grid `GridSpec.symmetric(r + 2w, w, dim)`,
    the box snapped up to a multiple of w where w does not divide r + 2w, and
    the band of the Fraction reference on it."""
    r = width * ratio
    spec, band = _candidates(dim, r, width, None)[:2]
    assert spec == GridSpec.symmetric(r + 2 * width, width, dim)
    assert spec.box[0][1] >= r + 2 * width
    assert np.array_equal(band.T, np.array(list(_band_cells(spec, r))))


@st.composite
def band_keys(draw):
    """A `_candidates` key with no eps: dim 1-4, a radius r, rational or an
    integer up to 2**62, and a cell width r / ratio."""
    dim = draw(st.integers(1, 4))
    if draw(st.booleans()):
        r = Fraction(draw(st.integers(1, 2**62)))
    else:
        r = draw(st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=64))
    ratio = draw(st.fractions(min_value=Fraction(1, 4), max_value=24, max_denominator=6))
    return dim, r, r / ratio


@settings(max_examples=60, deadline=None)
@given(band_keys())
@example((1, Fraction(2**62), Fraction(2**62, 3)))  # the two points of a 1-D sphere
@example((4, Fraction(1), Fraction(1, 8)))  # the 20**4-cell grid of the Smith audit's pencil
def test_every_band_is_nonempty_at_the_narrowest_index_dtype(key):
    """Every grid of a `_candidates` entry contains its sphere, so the band
    holds at least the cell of (r, 0, ..., 0), and its indices are stored
    at the narrowest dtype that holds the longest axis's."""
    dim, r, width = key
    spec = _sphere_spec(dim, r, width)
    assume(math.prod(spec.shape) <= MAX_GRID_CELLS)
    _, band, succ = _candidates(dim, r, width, None)[:3]
    assert band.shape[0] == dim and band.shape[1] >= 1
    assert band.dtype == np.min_scalar_type(max(spec.shape) - 1)
    assert succ.shape == band.shape and succ.dtype == np.min_scalar_type(band.shape[1])


def test_sphere_cells_and_band_tops_return_private_arrays():
    r, w = Fraction(5, 4), Fraction(1, 4)
    _, first, _, copies = _sphere_cells((), 2, r, w)
    # The band's (dim, n) rows at its dtype, one contiguous row per axis, in
    # an array of their own rather than a view of the cached band.
    band = _candidates(2, r, w, None)[1]
    assert copies == 1 and first.dtype == band.dtype and first.flags.writeable and first.flags.c_contiguous
    assert first.base is None and not np.shares_memory(first, band)
    expected = first.copy()
    first[:] = 0
    assert np.array_equal(_sphere_cells((), 2, r, w)[1], expected)
    assert np.array_equal(band, expected)
    # The cap's top cells, built from the cached candidates, are private too.
    eps = Fraction(1, 10)
    cap, copies = sphere_region_block([], eps, _LIFT_WIDTH, 2)
    assert copies == 2
    _, band, succ, rows, _, cap_rows = _candidates(2, 2 / eps, _LIFT_WIDTH, eps)
    cells, _ = _band_tops(band, succ, rows[:cap_rows], np.ones(cap_rows, dtype=bool))
    assert cells.shape == (2, cap_rows) and cells.dtype == band.dtype and cells.flags.writeable
    assert cells.flags.c_contiguous and cells.base is None and not np.shares_memory(cells, band)
    assert {tuple(2 * j + 1 for j in c) for c in cells.T.tolist()} == {c for c in cap.cells if all(x & 1 for x in c)}
    cells[:] = 0
    assert sphere_region_block([], eps, _LIFT_WIDTH, 2)[0].cells == cap.cells


# A width over a denominator past 2**62, whose grid's own bound u_max
# passes 2**62, so its lift candidates hold Python ints: the 12 cells of
# width w = 1/2 + 1/(6 (2**63 + 1)) span [-6w, 6w] on each axis, since the
# box half-width 2 + 2w snaps up to 6w.  An eps so small that the
# truncation's own bound passes 2**62, and a lift width so coarse that its
# middle layers hold candidates.
_WIDE_WIDTH = Fraction(1, 2) + Fraction(1, 6 * (2**63 + 1))
# The grid of the Smith and Alexander audits on the unit sphere.
_UNIT_SPHERE_GRID = _sphere_spec(3, 1, _UNIT_WIDTH)


@pytest.mark.parametrize("dim, width, eps, dtype, truncation_wide, capped", [
    (2, _LIFT_WIDTH, Fraction(1, 10), np.int64, False, True),
    (2, _WIDE_WIDTH, Fraction(1), object, True, True),
    (2, 2**30, Fraction(1, 2**31), np.int64, True, False),
    (2, 20, Fraction(1, 10), np.int64, False, False),
    (3, _UNIT_WIDTH, None, np.int64, False, False),
], ids=["lift", "grid-wide", "truncation-wide", "coarse-lift", "no-eps"])
def test_cap_candidates_match_fraction_reference(dim, width, eps, dtype, truncation_wide, capped):
    """The lift candidates are the band rows whose center the truncation
    keeps, the upper cap's first, and the cap's row count is None exactly
    when a kept row lies in the middle layers of the last axis.  With no
    eps, on the unit sphere, they are every band row in band order, and the
    cap count is None."""
    r = Fraction(1) if eps is None else 2 / eps
    spec = _sphere_spec(dim, r, width)
    m = spec.shape[-1]
    assert (spec.u_max >= _INT64_SAFE) == (dtype is object)
    cells = list(_band_cells(spec, r))
    if eps is None:
        want, want_cap = list(range(len(cells))), None
    else:
        trunc = _cap(eps, spec.dim)
        assert _ScaledPoly(trunc, spec).wide == truncation_wide
        kept = [i for i, jvec in enumerate(cells) if trunc.evaluate(spec.center(jvec)) >= 0]
        upper = [i for i in kept if cells[i][-1] > m // 2]
        middle = [i for i in kept if (m - 1) // 2 <= cells[i][-1] <= m // 2]
        assert 0 < len(upper) < len(kept) <= len(cells) and bool(middle) != capped
        want, want_cap = upper + [i for i in kept if i not in upper], len(upper) if capped else None
    _candidates.cache_clear()
    first = _candidates(dim, r, width, eps)
    assert _candidates.cache_info().misses == 1
    again = _candidates(dim, r, width, eps)
    assert _candidates.cache_info().hits == 1 and again is first
    got_spec, band, _, rows, centers, cap_rows = first
    assert got_spec == spec
    assert np.array_equal(band.T, np.array(cells))
    assert rows.dtype == np.min_scalar_type(len(cells)) and rows.tolist() == want
    assert cap_rows == want_cap
    assert centers.dtype == dtype and centers.shape == (spec.dim, len(want))
    assert centers.T.tolist() == [[x * spec.scale for x in spec.center(cells[i])] for i in want]
    for table in first[1:5]:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[..., 0] = 0


def test_cap_candidates_one_entry_per_eps():
    _candidates.cache_clear()
    caps = [sphere_region_block([], eps, _LIFT_WIDTH, 2) for eps in (Fraction(1, 10), Fraction(1, 9))]
    assert [copies for _, copies in caps] == [2, 2]
    caps = [cap.cells for cap, _ in caps]
    assert _candidates.cache_info().misses == _candidates.cache_info().currsize == 2
    assert [sphere_region_block([], eps, _LIFT_WIDTH, 2)[0].cells for eps in (Fraction(1, 10), Fraction(1, 9))] == caps
    # The whole lift reads the same entry as its cap, and is the cap and its disjoint reflection.
    for eps, cap in zip((Fraction(1, 10), Fraction(1, 9)), caps):
        assert len(sphere_region_complex([], eps, _LIFT_WIDTH, 2)) == 2 * len(cap)
    assert _candidates.cache_info().misses == 2 and caps[0] != caps[1]


def test_unit_sphere_audits_read_one_entry():
    """The Smith build at every radius, both Alexander complexes and the unit
    band read one entry, every band row with its center: 1,184 rows in
    2,368 + 28,416 bytes.  A pencil in four variables reads the 4-D unit
    sphere's entry, one more, at every radius too."""
    _candidates.cache_clear()
    smith_audit([CONE])
    for r in (2, Fraction(1, 2), Fraction(3, 2), 3):
        smith_audit([CONE], radius=r)
    alexander_equator_audit()
    sphere_band_complex(1, _UNIT_WIDTH, 3)
    assert _candidates.cache_info().misses == _candidates.cache_info().currsize == 1
    _, _, _, rows, centers, cap = _candidates(3, Fraction(1), _UNIT_WIDTH, None)
    assert (len(rows), rows.nbytes, centers.nbytes, cap) == (1184, 2368, 28416, None)
    pencil = [QuadraticForm.make(4, [[d[i] if i == j else 0 for j in range(4)] for i in range(4)])
              for d in ((1, 1, -1, -1), (1, 2, -3, -4))]
    for r in (1, 2):
        smith_audit(pencil, radius=r)
    assert _candidates.cache_info().misses == _candidates.cache_info().currsize == 2


def test_warm_sphere_builds_form_no_centers(monkeypatch):
    """Once an entry is warm, a sphere build reads its centers from it: only
    a cache miss and `_box_mask` form per-axis bounds."""
    calls = []

    def counted(self, *args, _real=GridSpec._lows, **kwargs):
        calls.append((args, kwargs))
        return _real(self, *args, **kwargs)

    eps = Fraction(1, 10)
    polys = _lift_polys(scenario_products(2))

    def builds():
        smith_audit([CONE])
        alexander_equator_audit()
        sphere_region_block(polys, eps, _LIFT_WIDTH, 3)
        sphere_region_complex(polys, eps, _LIFT_WIDTH, 3)

    builds()
    monkeypatch.setattr(GridSpec, "_lows", counted)
    builds()
    assert calls == []
    _box_mask(_UNIT_SPHERE_GRID, ())
    assert len(calls) == 1
    _candidates.cache_clear()
    builds()
    assert len(calls) == 1 + 2 * 2


def test_cap_with_wide_polynomial_matches_fraction_reference():
    """A polynomial whose own bound passes 2**62 is evaluated on Python ints,
    which its evaluator converts exactly from the cached int64 centers."""
    eps = Fraction(1, 10)
    r = 2 / eps
    spec = _sphere_spec(2, r, _LIFT_WIDTH)
    assert _ScaledPoly(_WIDE_SADDLE, spec).wide
    cap, copies = sphere_region_block([_WIDE_SADDLE], eps, _LIFT_WIDTH, 2)
    assert copies == 2 and _candidates(2, r, _LIFT_WIDTH, eps)[4].dtype == np.int64
    expected = {
        tuple(2 * j + 1 for j in jvec)
        for jvec in _band_cells(spec, r)
        if jvec[-1] >= (spec.shape[-1] - 1) // 2
        and all(p.evaluate(spec.center(jvec)) >= 0 for p in (_cap(eps, 2), _WIDE_SADDLE))
    }
    assert expected and {c for c in cap.cells if all(x & 1 for x in c)} == expected
    assert _check_block([_WIDE_SADDLE], eps, _LIFT_WIDTH, 2) == 2


def test_mixed_width_evaluators_in_one_build():
    """A Python-int evaluator and an int64 one share a build's int64 centers,
    and both bind: the box and the lift keep fewer cells than either alone."""
    evals = [_ScaledPoly(p, _LARGE) for p in (_WIDE_SADDLE, _UPPER)]
    assert [e.wide for e in evals] == [True, False]
    systems = ([_WIDE_SADDLE, _UPPER], [_WIDE_SADDLE], [_UPPER])
    assert [len(grid_complex(polys, _LARGE)) for polys in systems] == [142, 266, 231]
    assert [len(sphere_region_complex(polys, 1, Fraction(1, 2), 2)) for polys in systems] == [18, 36, 61]
    assert _candidates(2, Fraction(2), Fraction(1, 2), Fraction(1))[4].dtype == np.int64


# Unit circles on grids whose long axis passes 128 and 256 cells, so the
# shared band is stored as uint8 and uint16 and its codes 2*j + 1 pass 255.
@pytest.mark.parametrize("res, dtype, cells_above", [(Fraction(1, 64), np.uint8, 128),
                                                     (Fraction(1, 128), np.uint16, 256)])
def test_narrow_band_indices_do_not_wrap(res, dtype, cells_above):
    spec = _sphere_spec(2, 1, res)
    assert max(spec.shape) > cells_above
    band = _candidates(2, Fraction(1), res, None)[1]
    assert band.dtype == dtype
    if dtype == np.uint8:
        expected = np.array(list(_band_cells(spec, Fraction(1))))
    else:  # the reference loop is slow at this size; the mask over Python ints is exact
        lows = spec._lows(bound=_INT64_SAFE)
        assert lows[0].dtype == object
        expected = np.argwhere(_band_mask(lows, spec.step, Fraction(spec.scale) ** 2))
    assert np.array_equal(band.T, expected)
    tops = _sphere_cells((), 2, 1, res)[1]
    assert tops.dtype == dtype and np.array_equal(tops.T, expected)
    cx = sphere_band_complex(1, res, 2)
    assert max(map(max, cx.cells)) > 2 * cells_above and betti(cx) == (1, 1, 0)


def test_centers_past_int64_with_no_polynomial():
    """Scaled centers past 2**63 are held as Python ints even when no
    polynomial, whose own bound would cover them, is evaluated: the grid of
    the radius-2**62 circle at width 2**60, [-3 * 2**61, 3 * 2**61]^2, as a
    box and as the sphere's."""
    spec = _sphere_spec(2, 2**62, 2**60)
    assert spec.lo[0] < -2**63 and spec.shape == (12, 12)
    assert np.array_equal(np.argwhere(_box_mask(spec, ())), np.argwhere(np.ones(spec.shape, dtype=bool)))
    cx = grid_complex((), spec)
    assert cx._frame.strides[1] == 1
    assert cx.cells == grid_complex((), GridSpec(box=((0, 12),) * 2, resolution=1)).cells
    assert np.array_equal(_sphere_cells((), 2, 2**62, 2**60)[1].T, np.array(list(_band_cells(spec, Fraction(2**62)))))


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
# 2**40 x^2 - 1 at scale 2 and u = 2**20 + 1: its value 2**80 + 2**61 +
# 2**40 - 4 wraps in int64, though the point fits in int64.
@example((QuadraticPoly.make(1, quad=[[2**40]], const=-1), 2, [[2**20 + 1]], 2**21))
def test_scaled_poly_terms_and_signs_match_fraction_arithmetic(case):
    """`_ScaledPoly` forms its terms in integers: they equal int(lcm * x) of
    the Fraction coefficients.  It is wide exactly when a partial sum of its
    terms at points with |u_i| <= u_max can reach 2**62, and its values are
    lcm * scale**2 * P(u / scale) exactly, so their signs are those of P,
    on int64 arrays and on Python-int arrays alike, whatever its bound."""
    poly, scale, columns, bound = case
    e = _ScaledPoly(poly, SimpleNamespace(scale=scale, u_max=bound))
    quad, lin, const, lcm = _old_scaled_terms(poly, scale)
    assert (e.quad_terms, e.lin_terms, e.const_term) == (quad, lin, const)
    magnitude = (abs(const) + sum(abs(a) for _, _, a in quad) * bound**2
                 + sum(abs(b) for _, b in lin) * bound)
    assert e.wide == (magnitude >= _INT64_SAFE)
    assert all(abs(u) < 2**63 for c in columns for u in c)
    for dtype in (object, np.int64):
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
    """A spec's shape, kept from its width check, is (hi - lo) / h per axis;
    its integer view, scale, step, lower bounds and u_max, is formed in
    integers, equal to the Fraction products; and none of them is in its
    repr."""
    assert spec.shape == tuple(int((hi - lo) / spec.resolution) for lo, hi in spec.box)
    twin = GridSpec(box=spec.box, resolution=spec.resolution)
    assert twin == spec and hash(twin) == hash(spec)
    assert repr(spec) == f"GridSpec(box={spec.box!r}, resolution={spec.resolution!r})"
    assert spec.scale == 2 * math.lcm(spec.resolution.denominator, *(lo.denominator for lo, _ in spec.box))
    assert spec.step == spec.resolution * spec.scale and spec.step % 2 == 0
    assert spec.lo == tuple(lo * spec.scale for lo, _ in spec.box)
    assert spec.u_max == max((abs(b * spec.scale) for axis in spec.box for b in axis), default=0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(grid_specs(), grid_specs())
# Equal shape, step and lower bound; only the scales, 4 and 2, differ.
@example(GridSpec(box=((0, 1),), resolution=Fraction(1, 2)), GridSpec(box=((0, 2),), resolution=1))
@example(GridSpec.symmetric(Fraction(5, 2), Fraction(1, 8), 1),
         GridSpec(box=((Fraction(-5, 2), Fraction(5, 2)),), resolution=Fraction(1, 8)))
def test_grid_specs_are_equal_iff_box_and_resolution_are(a, b):
    """Eq and hash read the integer view, which fixes box and resolution:
    two specs are equal exactly when their boxes and resolutions are, and
    equal specs hash alike."""
    assert (a == b) == ((a.box, a.resolution) == (b.box, b.resolution))
    if a == b:
        assert hash(a) == hash(b)


class TestSphereComplexes:
    # the unit sphere's grid in the audits, at width 1/8
    width = _UNIT_WIDTH

    def test_equator_band_is_circle(self):
        # the zero set of X3^2 on the unit sphere is the equator
        eq = QuadraticForm.make(3, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        vec = pad_betti(betti(sphere_zero_complex([eq], 1, self.width, Fraction(1, 8))), 2)
        assert vec == (1, 1)

    def test_cone_gives_two_circles(self):
        cone = QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        vec = pad_betti(betti(sphere_zero_complex([cone], 1, self.width, Fraction(1, 4))), 2)
        assert vec == (2, 2)

    def test_positive_form_has_no_zeros(self):
        pos = QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert len(sphere_zero_complex([pos], 1, self.width, Fraction(1, 4))) == 0

    def test_band_complex_is_a_sphere(self):
        assert betti(sphere_band_complex(1, self.width, 3)) == (1, 0, 1, 0)

    # The complement of a great circle is two caps, whose top cells are
    # adjacent most often along the two axes across the caps' direction, the
    # higher of them picked.  The equator's caps point along the last axis,
    # so the middle axis is picked; those of x1^2 point along the first.
    @pytest.mark.parametrize("gram, run_axis", [
        ([[0, 0, 0], [0, 0, 0], [0, 0, 1]], 1),
        ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], 2),
    ], ids=["equator", "x1^2"])
    def test_split_complement_runs_along_its_own_axis(self, gram, run_axis):
        _, complement = sphere_zero_split([QuadraticForm.make(3, gram)], 1, self.width, Fraction(1, 4))
        _, band, succ, rows, _, _ = _candidates(3, Fraction(1), self.width, None)
        tops = {c for c in complement.cells if all(x & 1 for x in c)}
        keep = np.array([tuple(2 * j + 1 for j in c) in tops for c in band.T.tolist()])
        cells, axis = _band_tops(band, succ, rows, keep)
        assert axis == run_axis and complement._frame.strides[axis] == 1
        last = close_grid(_UNIT_SPHERE_GRID.shape, cells)
        assert last._frame.strides[-1] == 1 and last.cells == complement.cells
        assert betti(complement) == betti(last) == (2, 0, 0, 0)
        assert complement.euler_characteristic() == last.euler_characteristic() == 2

    def test_oversized_grid_rejected_before_work(self, monkeypatch):
        side = 2**11
        spec = GridSpec(box=((0, side), (0, side + 1)), resolution=1)
        assert side * (side + 1) > MAX_GRID_CELLS
        # The unit circle's grid at width 1/1024 has 2,052 cells per axis, and
        # the eps = 1 lift's 4,100.
        fine = Fraction(1, 1024)
        assert math.prod(_sphere_spec(2, 1, fine).shape) > MAX_GRID_CELLS
        # a valid band and cap of the same radii are cached first; the limit
        # and eps are still checked on every call, before any array is formed
        # and before any cache entry is made
        sphere_band_complex(1, Fraction(1, 4), 2)
        assert sphere_region_block([], 1, Fraction(1, 4), 2)[1] == 2
        entries = _candidates.cache_info().currsize

        def refuse(*args, **kwargs):
            raise AssertionError("an oversized build formed an array")

        monkeypatch.setattr(quadforms, "_band", refuse)
        monkeypatch.setattr(GridSpec, "_lows", refuse)
        for _ in range(2):
            with pytest.raises(ValueError, match="above the limit"):
                grid_complex([], spec)
            with pytest.raises(ValueError, match="above the limit"):
                sphere_band_complex(1, fine, 2)
            with pytest.raises(ValueError, match="above the limit"):
                sphere_region_block([], 1, fine, 2)
            with pytest.raises(TypeError, match="floats"):
                sphere_region_block([], 1.0, Fraction(1, 4), 2)
        assert _candidates.cache_info().currsize == entries

    def test_region_complex_empty_system_gives_two_caps(self):
        cx = sphere_region_complex([], Fraction(1, 10), Fraction(1, 2), 2)
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
        cx = sphere_region_complex(polys, eps, _LIFT_WIDTH, scenario.k + 1)
        assert cx._frame.strides.index(1) == run_axis and len(cx._first) == runs
        last = close_under_faces(np.array(sorted(cx.cells)), ambient_dim=scenario.k + 1)
        assert last.cells == cx.cells and len(last._first) == last_axis_runs


def _lift_polys(scenario):
    return [homogenize(p).as_poly() for p in scenario.system]


def _check_block(polys, eps, width, dim) -> int:
    """`sphere_region_block`'s copies, checked against the whole lift: the
    lift's Betti numbers and Euler characteristic are copies times the
    block's; with one copy the block is the lift, and with two it is the
    upper cap, whose point reflection, disjoint from it, completes the lift
    and which runs along the lift's axis."""
    block, copies = sphere_region_block(polys, eps, width, dim)
    whole = sphere_region_complex(polys, eps, width, dim)
    assert copies in (1, 2)
    assert tuple(copies * b for b in betti(block)) == betti(whole)
    assert copies * block.euler_characteristic() == whole.euler_characteristic()
    if copies == 1:
        assert block.cells == whole.cells
        return copies
    # Cell codes run from 0 to 2n on an axis of n cells; the reflection maps x to 2n - x.
    mirror = {tuple(2 * n - x for x, n in zip(c, _sphere_spec(dim, 2 / eps, width).shape)) for c in block.cells}
    assert block.cells.isdisjoint(mirror) and block.cells | mirror == whole.cells
    assert block._frame.strides.index(1) == whole._frame.strides.index(1)
    return copies


@pytest.mark.parametrize("scenario", [scenario_products(1), scenario_products(2),
                                      scenario_shell(2, Fraction(1, 2), 1)],
                         ids=["products-k1", "products-k2", "shell-k2"])
def test_undeformed_lift_is_its_cap_and_the_reflection(scenario):
    eps = Fraction(1, 10)
    assert _check_block(_lift_polys(scenario), eps, _LIFT_WIDTH, scenario.k + 1) == 2


@st.composite
def even_lifts(draw):
    """Systems on small lift grids, coarse enough at the largest widths that
    the truncation keeps cells on the middle layers, at widths that divide
    the box half-width 2/eps + 2 width or make it snap up.  Most have no
    linear part, so they may take the cap; the others draw linear terms and
    are built whole."""
    dim = draw(st.integers(2, 3))
    eps = draw(st.sampled_from([Fraction(1), Fraction(1, 2)]))
    h = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2), Fraction(3)]))
    linear = draw(st.integers(0, 3)) == 0
    polys = []
    for _ in range(draw(st.integers(0, 2))):
        quad = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                quad[i][j] = quad[j][i] = draw(st.integers(-3, 3))
        lin = [draw(st.integers(-3, 3)) for _ in range(dim)] if linear else None
        polys.append(QuadraticPoly.make(dim, quad=quad, lin=lin, const=draw(st.integers(-16, 16))))
    return polys, eps, h, dim


@settings(derandomize=True, max_examples=120, deadline=None)
@given(even_lifts())
def test_cap_of_an_even_system_matches_the_whole_lift(lift):
    _check_block(*lift)


class TestCapRefusals:
    """Each condition of `sphere_region_block`'s cap, broken once on an input
    whose repaired twin does take the cap: the broken one is built whole,
    with one copy."""

    eps = Fraction(1, 10)

    def _whole(self, polys, width, dim):
        block, copies = sphere_region_block(polys, self.eps, width, dim)
        assert copies == 1
        assert block.cells == sphere_region_complex(polys, self.eps, width, dim).cells

    def test_linear_term(self):
        sc = scenario_products(1)
        polys = _lift_polys(sc)
        family = [dehomogenize(random_pd_form(sc.k + 2, 0))]
        t = Fraction(1, 1000)  # the deformation audit's default t
        deformed = [p.blend(h, t) for p, h in zip(polys, family)]
        self._whole(deformed, _LIFT_WIDTH, sc.k + 1)
        assert _check_block(polys, self.eps, _LIFT_WIDTH, sc.k + 1) == 2

    def test_kept_cell_on_the_middle_layer(self):
        polys = _lift_polys(scenario_products(1))
        self._whole(polys, 20, 2)
        assert betti(sphere_region_complex(polys, self.eps, 20, 2)) == (1, 0, 0)
        assert _check_block(polys, self.eps, _LIFT_WIDTH, 2) == 2


# The curated lifts at the audits' default width, which take the cap, and the
# two coarse lifts whose middle layers hold lift candidates.
@pytest.mark.parametrize("scenario, width, copies", [
    (scenario_products(1), _LIFT_WIDTH, 2),
    (scenario_products(2), _LIFT_WIDTH, 2),
    (scenario_shell(2, Fraction(1, 2), 1), _LIFT_WIDTH, 2),
    (scenario_products(1), 20, 1),
    (scenario_products(2), 5, 1),
], ids=["products-k1", "products-k2", "shell-k2", "products-k1-coarse", "products-k2-coarse"])
def test_cap_is_decided_before_the_system_is_evaluated(scenario, width, copies, monkeypatch):
    """`sphere_region_block` checks and evaluates the system once: on the cap
    prefix of the lift candidates when it returns the cap, and on all of them
    when it returns the lift, as `sphere_region_complex` does."""
    eps = Fraction(1, 10)
    dim, polys = scenario.k + 1, _lift_polys(scenario)
    sizes, checks = [], []

    def counted(evals, u, shape, _real=quadforms._satisfied):
        assert len(evals) == len(polys)  # the truncation is not evaluated again
        sizes.append(shape)
        return _real(evals, u, shape)

    def counted_checks(*args, _real=_check_axes):
        checks.append(args)
        return _real(*args)

    monkeypatch.setattr(quadforms, "_satisfied", counted)
    monkeypatch.setattr(quadforms, "_check_axes", counted_checks)
    block, got = sphere_region_block(polys, eps, width, dim)
    _, _, _, rows, _, cap_rows = _candidates(dim, 2 / eps, width, eps)
    assert got == copies and len(checks) == 1
    assert sizes == [cap_rows if copies == 2 else len(rows)]
    sphere_region_complex(polys, eps, width, dim)
    assert len(checks) == 2 and sizes[1:] == [len(rows)]
    assert _check_block(polys, eps, width, dim) == copies


# Each builder on a nonempty and, where one exists, an empty input: the
# unit circle on a 2-D grid, and the lift of the empty system and of
# -1 >= 0.  No grid that contains the sphere has an empty band.
_CIRCLE_GRID = _sphere_spec(2, 1, _UNIT_WIDTH)
_CONE_2D = QuadraticForm.make(2, [[1, 0], [0, -1]])
_SQUARES_2D = QuadraticForm.make(2, [[1, 0], [0, 1]])
_NEVER = QuadraticPoly.make(2, const=-1)
BUILDER_LENGTH_CASES = {
    "grid": (lambda: grid_complex([QuadraticPoly.make(2, quad=[[1, 0], [0, 1]], const=-1)], _CIRCLE_GRID),
             2, False),
    "grid-empty": (lambda: grid_complex([_NEVER], _CIRCLE_GRID), 2, True),
    "zero": (lambda: sphere_zero_complex([_CONE_2D], 1, _UNIT_WIDTH, Fraction(1, 4)), 2, False),
    "zero-empty": (lambda: sphere_zero_complex([_SQUARES_2D], 1, _UNIT_WIDTH, Fraction(1, 4)),
                   2, True),
    "band": (lambda: sphere_band_complex(1, _UNIT_WIDTH, 2), 2, False),
    "region": (lambda: sphere_region_complex([], Fraction(1, 10), _LIFT_WIDTH, 2), 2, False),
    "region-empty": (lambda: sphere_region_complex([_NEVER], Fraction(1, 10), _LIFT_WIDTH, 2), 2, True),
}


@pytest.mark.parametrize("case", BUILDER_LENGTH_CASES)
def test_builder_betti_has_an_entry_per_grid_axis_and_one_more(case):
    """A builder's complex is empty or its top cells span every grid axis, so
    `betti` gives b_0..b_dim on either rank path; `harness` reads builder
    vectors without padding them."""
    build, dim, empty = BUILDER_LENGTH_CASES[case]
    cx = build()
    assert (len(cx) == 0) == empty
    assert len(betti(cx)) == len(betti_by_cells(cx)) == dim + 1


class TestDeformationParams:
    def test_defaults(self):
        params = DeformationParams()
        assert params.eps == Fraction(1, 10)
        assert params.delta == Fraction(1, 1000)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            DeformationParams(eps=Fraction(1, 1000), delta=Fraction(1, 10))
