"""Unit tests for the cubical complex and GF(2) homology engine."""

import random
import re

import numpy as np
import pytest
from conftest import betti_by_cells

from quadbetti import homology
from quadbetti.exact import GF2Matrix
from quadbetti.harness import PASS, VIOLATION, mayer_vietoris_audit, pad_betti
from quadbetti.homology import (
    CubicalComplex,
    betti,
    close_under_faces,
    cube_dim,
    make_cube,
)


def cube_faces(cube):
    """Codim-1 faces of a code tuple, both ends of every odd axis: the reference the engine's faces are checked against."""
    return [cube[:a] + (code + step,) + cube[a + 1:] for a, code in enumerate(cube) if code & 1 for step in (-1, 1)]


def gf2_rank(rows):
    """`GF2Matrix.rank` of a 0/1 matrix given as rows."""
    rows = [[int(x) & 1 for x in row] for row in rows]
    columns = [sum(row[c] << r for r, row in enumerate(rows)) for c in range(len(rows[0]) if rows else 0)]
    return GF2Matrix(len(rows), columns).rank()


def cells_of_dim(cx, d):
    """The d-cells of cx as code tuples, in flat order."""
    return sorted(c for c in cx.cells if cube_dim(c) == d)


def same_complex(a, b):
    """Whether two complexes have the same ambient dimension and the same cells."""
    return a.ambient_dim == b.ambient_dim and a.cells == b.cells


def boundaries(cx):
    """The boundary maps of cx from `homology._boundary`, cells in flat order; entry d - 1 maps the d-cells."""
    flat = cx._flat()
    dims = cx._frame.dims(flat)
    groups = [flat[dims == d] for d in range(max(cx.dim, 0) + 1)]
    return [homology._boundary(cx._frame, groups, d) for d in range(1, len(groups))]


def dd_is_zero(cx):
    """Whether the boundary of every boundary column of cx is zero."""
    maps = boundaries(cx)
    for lower, upper in zip(maps, maps[1:]):
        for col in upper.columns:
            acc = 0
            for r in range(col.bit_length()):
                if col >> r & 1:
                    acc ^= lower.columns[r]
            if acc:
                return False
    return True


def solid_cube_complex(d):
    return close_under_faces([make_cube([(0, 1)] * d)])


def hollow_square(x=0, y=0):
    edges = [
        make_cube([(x, x + 1), (y, y)]),
        make_cube([(x, x + 1), (y + 1, y + 1)]),
        make_cube([(x, x), (y, y + 1)]),
        make_cube([(x + 1, x + 1), (y, y + 1)]),
    ]
    return close_under_faces(edges)


def cube_surface():
    solid = solid_cube_complex(3)
    top = make_cube([(0, 1)] * 3)
    return CubicalComplex(3, solid.cells - {top})


def solid_block():
    """The 2x2x2 block of unit cubes."""
    return close_under_faces([(2 * i + 1, 2 * j + 1, 2 * k + 1) for i in range(2) for j in range(2) for k in range(2)])


def random_closed_complex(rng, max_ambient=4, max_cubes=6):
    ambient = rng.randint(1, max_ambient)
    cubes = []
    for _ in range(rng.randint(1, max_cubes)):
        intervals = []
        for _ in range(ambient):
            m = rng.randint(-3, 3)
            intervals.append((m, m + 1) if rng.random() < 0.6 else (m, m))
        cubes.append(make_cube(intervals))
    return close_under_faces(cubes)


class TestCubeEncoding:
    def test_roundtrip(self):
        c = make_cube([(0, 1), (2, 2), (-3, -2)])
        assert c == (1, 4, -5)
        assert cube_dim(c) == 2

    def test_rejects_wide_interval(self):
        with pytest.raises(ValueError):
            make_cube([(0, 2)])

    def test_faces_of_square(self):
        sq = make_cube([(0, 1), (0, 1)])
        faces = cells_of_dim(close_under_faces([sq]), 1)
        assert faces == sorted(cube_faces(sq)) and len(faces) == 4
        assert all(cube_dim(f) == 1 for f in faces)

    def test_all_faces_count(self):
        sq = make_cube([(0, 1), (0, 1)])
        assert len(close_under_faces([sq])) == 9  # 4 vertices + 4 edges + itself


class TestCloseUnderFaces:
    def test_square_closure(self):
        cx = close_under_faces([make_cube([(0, 1), (0, 1)])])
        assert cx.n_cells(0) == 4
        assert cx.n_cells(1) == 4
        assert cx.n_cells(2) == 1
        homology._run_complex(cx)  # raises unless cx is face-closed

    def test_empty(self):
        cx = close_under_faces([])
        assert len(cx) == 0
        assert cx.ambient_dim == 0 and cx.cells == frozenset() and cx.dim == -1
        assert betti(cx) == (0,)

    def test_empty_with_ambient_dim(self):
        cx = close_under_faces([], ambient_dim=3)
        assert cx.ambient_dim == 3 and len(cx) == 0 and cx.dim == -1
        assert [cx.n_cells(d) for d in range(4)] == [0, 0, 0, 0]
        homology._run_complex(cx)
        assert betti(cx) == betti_by_cells(cx) == (0, 0, 0, 0)
        assert same_complex(cx, CubicalComplex(3, []))

    def test_ambient_dim_zero(self):
        cx = close_under_faces([()])
        assert cx.ambient_dim == 0 and cx.cells == {()} and cx.dim == 0
        assert cx.n_cells(0) == 1 and cx.euler_characteristic() == 1
        assert betti(cx) == betti_by_cells(cx) == (1,)
        assert same_complex(cx, CubicalComplex(0, [()]))
        assert same_complex(close_under_faces([(), ()], ambient_dim=0), cx)

    def test_ambient_dim_zero_run_complex(self, collapse_always):
        cx = close_under_faces([()])
        table = homology._run_complex(cx)
        assert cx._first.tolist() == cx._last.tolist() == [0] and table.shape == (1, 0)
        assert homology._collapse(table).tolist() == [0]
        assert betti(cx) == (1,)

    def test_isolated_vertices(self):
        cx = close_under_faces([make_cube([(0, 0)]), make_cube([(2, 2)])])
        assert len(cx) == 2
        assert betti(cx) == (2,)

    def test_mixed_ambient_rejected(self):
        with pytest.raises(ValueError):
            close_under_faces([make_cube([(0, 1)]), make_cube([(0, 1), (0, 0)])])

    def test_code_array_past_int64(self):
        # 22 axes of 8 frame positions each: flat indices reach 2**66
        cubes = [(0,) * 22, (2,) * 22, (1,) + (2,) * 21, (0,) * 21 + (1,)]
        cx = close_under_faces(np.array(cubes), ambient_dim=22)
        assert cx._frame.strides[0] * (cx._frame.spans[0] + 1) == 2**66
        assert same_complex(cx, close_under_faces(cubes)) and len(cx) == 6
        assert betti(cx) == (2, 0)

    def test_object_frame_collapse(self, collapse_always):
        cubes = [(0,) * 22, (2,) * 22, (1,) + (2,) * 21, (0,) * 21 + (1,)]
        cx = close_under_faces(np.array(cubes), ambient_dim=22)
        assert cx._first.dtype == cx._last.dtype == object
        assert betti(cx) == betti_by_cells(cx) == (2, 0)

    def test_code_array_axis_count_checked(self):
        with pytest.raises(ValueError, match="axes"):
            close_under_faces(np.ones((2, 3), dtype=np.int64), ambient_dim=2)


class TestGF2Rank:
    def test_identity(self):
        assert gf2_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_all_ones(self):
        assert gf2_rank([[1, 1], [1, 1]]) == 1

    def test_zero(self):
        assert gf2_rank([[0, 0], [0, 0]]) == 0

    def test_numpy_input(self):
        assert gf2_rank(np.eye(4, dtype=int)) == 4

    def test_permutation_invariance(self):
        rng = random.Random(11)
        for _ in range(25):
            rows = [[rng.randint(0, 1) for _ in range(7)] for _ in range(5)]
            base = gf2_rank(rows)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert gf2_rank(shuffled) == base
            transposed_cols = list(range(7))
            rng.shuffle(transposed_cols)
            permuted = [[row[c] for c in transposed_cols] for row in rows]
            assert gf2_rank(permuted) == base

    def test_matches_numpy_float_rank(self):
        # over GF(2) the rank may differ from the rational rank, but for a
        # permutation matrix both agree
        rng = np.random.default_rng(3)
        for _ in range(10):
            perm = rng.permutation(6)
            mat = np.zeros((6, 6), dtype=int)
            mat[np.arange(6), perm] = 1
            assert gf2_rank(mat) == 6


class TestChainComplex:
    def test_shapes_of_square(self):
        maps = boundaries(close_under_faces([make_cube([(0, 1), (0, 1)])]))
        assert [(m.n_rows, m.n_cols) for m in maps] == [(4, 4), (4, 1)]

    def test_dd_zero_on_randoms(self):
        rng = random.Random(5)
        for _ in range(100):
            cx = random_closed_complex(rng)
            assert dd_is_zero(cx)

    def test_not_face_closed_detected(self):
        solid = close_under_faces([make_cube([(0, 1), (0, 1)])])
        broken = CubicalComplex(2, solid.cells - {make_cube([(0, 0), (0, 0)])})
        with pytest.raises(ValueError):
            boundaries(broken)


class TestBetti:
    def test_hollow_square_is_circle(self):
        assert betti(hollow_square()) == (1, 1)

    def test_solid_square_is_contractible(self):
        assert pad_betti(betti(solid_cube_complex(2)), 3) == (1, 0, 0)

    def test_cube_surface_is_sphere(self):
        assert betti(cube_surface()) == (1, 0, 1)

    def test_single_cube_closures(self):
        for d in range(5):
            expected = (1,) + (0,) * d
            assert betti(solid_cube_complex(d)) == expected

    def test_disjoint_union_adds(self):
        a = hollow_square(0, 0)
        b = hollow_square(5, 5)
        union = CubicalComplex(2, a.cells | b.cells)
        assert betti(union) == tuple(
            x + y for x, y in zip(betti(a), betti(b))
        )

    def test_euler_consistency(self):
        rng = random.Random(17)
        for _ in range(60):
            cx = random_closed_complex(rng)
            vec = betti(cx)
            euler = sum((-1) ** d * v for d, v in enumerate(vec))
            assert euler == cx.euler_characteristic()

    def test_collapse_agrees_with_direct(self, collapse_always):
        rng = random.Random(23)
        for _ in range(60):
            cx = random_closed_complex(rng)
            assert betti(cx) == betti_by_cells(cx)

    def test_empty_complex(self):
        assert betti(CubicalComplex(3, frozenset())) == (0, 0, 0, 0)

    @pytest.mark.parametrize("collapse", [True, False])
    @pytest.mark.parametrize("missing", [(0, 0), (1, 0)])
    def test_not_face_closed_rejected(self, monkeypatch, collapse, missing):
        # Without the corner (0, 0) collapse once gave (0, 0, 0); without the
        # bottom edge (1, 0) it gave (2, 0, 0).
        monkeypatch.setattr(homology, "_COLLAPSE_MIN_CELLS", 0 if collapse else float("inf"))
        solid = close_under_faces([make_cube([(0, 1), (0, 1)])])
        broken = CubicalComplex(2, solid.cells - {missing})
        with pytest.raises(ValueError, match=rf"complex is not face-closed: missing \({missing[0]}, {missing[1]}\)"):
            betti(broken)


    def test_edge_without_vertices_rejected(self):
        edge = CubicalComplex(1, [(1,)])
        with pytest.raises(ValueError, match=r"complex is not face-closed: missing \(0,\)"):
            homology._run_complex(edge)
        with pytest.raises(ValueError, match=r"complex is not face-closed: missing \(0,\)"):
            betti(edge)

    @pytest.mark.parametrize("missing", [(10, 10), (9, 10), (10, 9)], ids=["vertex", "axis-0-edge", "last-axis-edge"])
    def test_large_complex_missing_face_rejected(self, missing):
        # 1,089 cells: enough for betti to rank the run complex, which checks
        # closure run by run.  Each missing cell splits the run of its line.
        solid = close_under_faces([(2 * i + 1, 2 * j + 1) for i in range(16) for j in range(16)])
        assert len(solid) >= homology._COLLAPSE_MIN_CELLS
        homology._run_complex(solid)
        broken = CubicalComplex(2, solid.cells - {missing})
        for rank in (betti, betti_by_cells):
            with pytest.raises(ValueError, match=rf"complex is not face-closed: missing \({missing[0]}, {missing[1]}\)"):
                rank(broken)


class TestClearedColumns:
    """`betti` gives the columns of the pivot rows of the map above zero
    columns, but still looks up their faces."""

    @pytest.mark.parametrize("collapse", [True, False])
    @pytest.mark.parametrize("build", [solid_block, cube_surface])
    def test_every_missing_face_is_named(self, monkeypatch, build, collapse):
        # The cube surface is the 2-sphere, whose edge columns clearing blanks most.
        monkeypatch.setattr(homology, "_COLLAPSE_MIN_CELLS", 0 if collapse else float("inf"))
        cells = build().cells
        faces = {f for c in cells for f in cube_faces(c)}
        assert faces < cells
        for face in sorted(faces):
            broken = CubicalComplex(3, cells - {face})
            with pytest.raises(ValueError, match=rf"complex is not face-closed: missing {re.escape(repr(face))}$"):
                betti(broken)

    def test_cube_surface_clears_its_edges(self, monkeypatch):
        # The 2-sphere's 12 edges: ranking the 6 squares leaves 5 pivot rows,
        # so 5 edge columns are zero and rank the same as the full map.
        seen = []
        rank = homology.GF2Matrix.rank

        def recording(m):
            seen.append((m.n_rows, m.n_cols, sum(1 for col in m.columns if col)))
            return rank(m)

        monkeypatch.setattr(homology.GF2Matrix, "rank", recording)
        assert betti(cube_surface()) == (1, 0, 1)
        assert seen == [(12, 6, 6), (8, 12, 7)]


class _Rounds(Exception):
    """Raised in place of the free-face rounds on the run complex."""


class TestRunComplex:
    """`betti` ranks a complex of _COLLAPSE_MIN_CELLS cells or more through its
    run complex, and runs the free-face rounds only when the run complex has
    that many runs too."""

    @pytest.fixture
    def no_rounds(self, monkeypatch):
        def collapse(table):
            raise _Rounds
        monkeypatch.setattr(homology, "_collapse", collapse)

    @pytest.fixture
    def run_complexes(self, monkeypatch):
        """The complexes `betti` builds the run complex of, in call order."""
        seen = []
        run_complex = homology._run_complex
        monkeypatch.setattr(homology, "_run_complex", lambda c: seen.append(c) or run_complex(c))
        return seen

    def test_complex_below_the_switch_is_ranked_cell_by_cell(self, run_complexes):
        n = homology._COLLAPSE_MIN_CELLS - 1
        vertices = CubicalComplex(1, [(2 * i,) for i in range(n)])
        assert len(vertices) == n and betti(vertices) == (n,)
        assert run_complexes == []

    def test_complex_at_the_switch_is_ranked_through_its_runs(self, run_complexes):
        n = homology._COLLAPSE_MIN_CELLS
        vertices = CubicalComplex(1, [(2 * i,) for i in range(n)])
        assert len(vertices) == n and betti(vertices) == (n,)
        assert len(run_complexes) == 1 and run_complexes[0] is vertices

    def test_small_run_complex_is_ranked_directly(self, no_rounds):
        from quadbetti.exact import homogenize
        from quadbetti.harness import _lift_spec, scenario_products
        from quadbetti.quadforms import DeformationParams, sphere_region_complex

        eps = DeformationParams().eps
        polys = [homogenize(p).as_poly() for p in scenario_products(1).system]
        lift = sphere_region_complex(polys, eps, _lift_spec(eps, 2))
        assert len(lift) == 1092 and len(lift._first) == 172
        assert betti(lift) == betti_by_cells(lift) == (4, 0, 0)

    def test_the_two_ways_share_no_assembly_code(self, monkeypatch):
        # Each way ranks the 1,092-cell products-k1 lift with the other's
        # assembly removed, so a fault in one way's face lookup cannot bend
        # the other's vector too.
        from quadbetti.exact import homogenize
        from quadbetti.harness import _lift_spec, scenario_products
        from quadbetti.quadforms import DeformationParams, sphere_region_complex

        def removed(*args):
            raise AssertionError("the other way's assembly ran")

        eps = DeformationParams().eps
        polys = [homogenize(p).as_poly() for p in scenario_products(1).system]
        lift = sphere_region_complex(polys, eps, _lift_spec(eps, 2))
        with monkeypatch.context() as patch:
            for name in ("_run_complex", "_collapse", "_run_boundary"):
                patch.setattr(homology, name, removed)
            assert betti_by_cells(lift) == (4, 0, 0)
        monkeypatch.setattr(homology, "_boundary", removed)
        assert betti(lift) == (4, 0, 0)

    def test_large_run_complex_reaches_the_rounds(self, no_rounds):
        from fractions import Fraction

        from quadbetti.harness import scenario_shell
        from quadbetti.quadforms import grid_complex

        sc = scenario_shell(3, Fraction(1, 2), 1)
        grid = grid_complex(sc.system, sc.grid)
        assert len(grid._first) >= homology._COLLAPSE_MIN_CELLS
        with pytest.raises(_Rounds):
            betti(grid)

    def test_isolated_vertex_runs_are_all_kept(self, monkeypatch):
        # 23 x 23 isolated vertices in the plane: 529 runs of one cell, even on
        # both axes, so every entry of the face table is the filler.  `betti`
        # calls the rounds on them, and the filler's count, 2 per run, never
        # reads free, so no run is removed.
        side = 23
        assert side * side >= homology._COLLAPSE_MIN_CELLS
        vertices = close_under_faces([(2 * i, 2 * j) for i in range(side) for j in range(side)])
        table = homology._run_complex(vertices)
        n = side * side
        assert table.shape == (n, 2) and (table == n).all()
        kept = []
        collapse = homology._collapse
        monkeypatch.setattr(homology, "_collapse", lambda table: kept.append(collapse(table)) or kept[-1])
        assert betti(vertices) == (n,)
        assert len(kept) == 1 and kept[0].tolist() == list(range(n))

    def test_every_ufunc_at_call_gets_1d_intp_indices(self, monkeypatch):
        # 2-D indices in np.add.at and np.subtract.at gave wrong sums and a
        # crash on numpy 2.4.6, and int32 ones ran 8 times as long.
        calls = []

        class At:
            def __init__(self, ufunc):
                self.ufunc = ufunc

            def __getattr__(self, name):
                return getattr(self.ufunc, name)

            def at(self, a, indices, values):
                indices = np.asarray(indices)
                calls.append((self.ufunc.__name__, indices.ndim, indices.dtype, len(indices), np.shape(values)))
                return self.ufunc.at(a, indices, values)

        class Numpy:
            add, subtract = At(np.add), At(np.subtract)

            def __getattr__(self, name):
                return getattr(np, name)

        # An 11 x 11 x 11 block: 23 x 23 lines along the run axis, one run each.
        solid = close_under_faces([(2 * i + 1, 2 * j + 1, 2 * k + 1) for i in range(11) for j in range(11)
                                   for k in range(11)])
        assert len(solid._first) >= homology._COLLAPSE_MIN_CELLS
        monkeypatch.setattr(homology, "np", Numpy())
        assert betti(solid) == (1, 0, 0, 0)
        assert {name for name, *_ in calls} == {"add", "subtract"}
        for call in calls:
            _, ndim, dtype, length, shape = call
            assert ndim == 1 and dtype == np.intp and shape in ((), (length,)), call

    def test_live_run_with_a_removed_face_raises(self, monkeypatch, collapse_always):
        # The unit square's cells form three runs along y: the left side, the
        # bottom edge with the square and the top edge, and the right side.
        # The top edge tops the middle run, and its ends top the other two.
        # Rounds that dropped the left side's run and kept the top edge would
        # be wrong, and ranking must say so.
        square = solid_cube_complex(2)
        table = homology._run_complex(square)
        assert table.tolist() == [[3, 3], [0, 2], [3, 3]]
        monkeypatch.setattr(homology, "_collapse", lambda table: np.array([1, 2]))
        with pytest.raises(ValueError, match="run complex is not closed: a live run has the removed face 0$"):
            betti(square)


class TestPadBetti:
    def test_pads_and_guards(self):
        assert pad_betti((1, 1), 4) == (1, 1, 0, 0)
        assert pad_betti((1, 0, 0), 2) == (1, 0)
        with pytest.raises(ValueError):
            pad_betti((1, 0, 2), 2)


class TestMayerVietoris:
    def test_wedge_numbers(self):
        pieces = {(1,): (1, 1), (2,): (1, 1), (1, 2): (1, 0)}
        assert mayer_vietoris_audit((1, 2), pieces, 1) == PASS

    def test_disjoint_union_degree_zero(self):
        pieces = {(1,): (1, 1), (2,): (1, 1)}
        assert mayer_vietoris_audit((2, 2), pieces, 0) == PASS

    def test_fabricated_violation(self):
        pieces = {(1,): (1, 1), (2,): (1, 1), (1, 2): (1, 0)}
        assert mayer_vietoris_audit((1, 10), pieces, 1) == VIOLATION

    def test_missing_subset_is_an_error(self):
        pieces = {(1,): (1, 1), (2,): (1, 1)}
        with pytest.raises(ValueError, match="inconclusive"):
            mayer_vietoris_audit((1, 2), pieces, 1)

    def test_short_vectors_read_as_zero(self):
        pieces = {(1,): (1,), (2,): (1,), (1, 2): (0,)}
        assert mayer_vietoris_audit((2,), pieces, 1) == PASS

    def test_no_piece_data_is_an_error(self):
        for i in (0, 2):
            with pytest.raises(ValueError, match="^no piece Betti data given; audit is inconclusive$"):
                mayer_vietoris_audit((1, 0, 0), {}, i)
