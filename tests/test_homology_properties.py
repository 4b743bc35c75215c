"""Property tests of face closure and Betti numbers against independent oracles.

Inputs are random sets of top cells in small 2-D and 3-D boxes.  Closure is
compared with a stack-based closure kept here as the reference, and Betti
numbers with the Euler characteristic of the raw cell counts, with the
no-collapse path and, for the whole vector, with `scipy.ndimage.label` on
the occupancy array: b_0 counts components under full (vertex) adjacency,
b_{d-1} the bounded components of the complement under face adjacency
(Alexander duality), b_d is 0 and in 3-D b_1 follows from the Euler
characteristic.  The same duality check runs on the 2-D and 3-D builds of
`test_builder_snapshot.py`, and on every complex of dimension 2 or 3 that
`verify --full` computes Betti numbers of and that is the closure of its top
cells.

A second set of inputs, cubes of any dimension with negative codes and
repeats in 1-D to 4-D, compares the flat-index engine with the tuple engine
it replaced: the stack closure for cells and counts per dimension, and
free-face collapse on code tuples followed by tuple boundary ranks for the
Betti numbers.  These inputs are below the size at which `betti` collapses
first, so the collapse tests force the rounds on.  The face table of the
run complex is checked against one built from code tuples, also with 22
extra axes, whose flat indices are Python ints; the run complex for its
Euler characteristic and for Betti numbers ranked from that table; and what
the free-face rounds leave of it for closure, Euler characteristic, the
absence of free runs and repeatability.  Complexes with 22 extra axes are
also compared with the same cubes in an int64 frame.

Code arrays are read column by column, so the same codes as a C-ordered
array, a Fortran-ordered array and code tuples must give one complex on
every run axis.  A complex stores its runs, so two more checks read them
directly: the closed runs of a code array against the runs of the stack
closure, and the counts per dimension, which come from run lengths and end
parities, against the dimensions of the cells on complexes that are not
face-closed, whose runs may start or end odd on the last axis.  Both run
in an int64 frame and with 22 extra axes.  A large complex with faces
removed must make `betti` name one of them.
"""

import re
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest
from conftest import betti_by_cells, run_boundary_by_faces
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy import ndimage
from test_builder_snapshot import BUILDS, SNAPSHOT
from test_homology import cells_of_dim, cube_faces, hollow_square, same_complex, solid_cube_complex

from quadbetti import harness, homology
from quadbetti.exact import GF2Matrix
from quadbetti.harness import pad_betti
from quadbetti.homology import (
    CubicalComplex,
    betti,
    close_grid,
    close_under_faces,
    cube_dim,
)
from quadbetti.quadforms import grid_block

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)
# For tests that take the `collapse_always` fixture: its patch holds for every example.
COLLAPSING = settings(SETTINGS, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def top_cells(draw):
    """(ambient dimension, box side, sorted cell index vectors)."""
    dim = draw(st.sampled_from([2, 3]))
    side = 5 if dim == 2 else 3
    index = st.tuples(*[st.integers(0, side - 1)] * dim)
    return dim, side, sorted(draw(st.sets(index, max_size=side**dim)))


def _cubes(cells):
    return [tuple(2 * j + 1 for j in jvec) for jvec in cells]


def _chi(cx):
    return sum((-1) ** d * cx.n_cells(d) for d in range(cx.ambient_dim + 1))


def _duality_betti(mask, chi):
    """b_0 .. b_d of the closed top cells marked in `mask`, without the homology engine.

    b_0 is the number of components of the marked cells under full (vertex)
    adjacency.  By Alexander duality b_{d-1} is the number of bounded
    components of the complement: the components of the unmarked cells under
    face adjacency in the box padded by one cell, less the one that holds the
    padding.  b_d = 0, and for d = 3, b_1 = b_0 + b_2 - chi.
    """
    dim = mask.ndim
    _, b0 = ndimage.label(mask, structure=np.ones((3,) * dim, dtype=bool))
    _, outside = ndimage.label(~np.pad(mask, 1))
    top = outside - 1
    if dim == 2:
        return (b0, top, 0)
    return (b0, b0 + top - chi, top, 0)


def _stack_closure(cubes):
    """Reference closure: depth-first walk over codim-1 faces."""
    cells = set()
    stack = list(cubes)
    while stack:
        c = stack.pop()
        if c in cells:
            continue
        cells.add(c)
        stack.extend(cube_faces(c))
    return cells


@SETTINGS
@given(top_cells())
def test_closure_matches_stack_closure(case):
    dim, _, cells = case
    cx = close_under_faces(_cubes(cells), ambient_dim=dim)
    assert cx.ambient_dim == dim
    assert cx.cells == _stack_closure(_cubes(cells))


@SETTINGS
@given(top_cells())
def test_euler_characteristic_matches_betti(case):
    dim, _, cells = case
    cx = close_under_faces(_cubes(cells), ambient_dim=dim)
    assert _chi(cx) == sum((-1) ** i * b for i, b in enumerate(betti(cx)))


@COLLAPSING
@given(top_cells())
def test_collapse_preserves_betti(collapse_always, case):
    dim, _, cells = case
    cx = close_under_faces(_cubes(cells), ambient_dim=dim)
    assert betti(cx) == betti_by_cells(cx)


@SETTINGS
@given(top_cells())
def test_betti_matches_components_and_duality(case):
    dim, side, cells = case
    mask = np.zeros((side,) * dim, dtype=bool)
    for jvec in cells:
        mask[jvec] = True
    cx = close_under_faces(_cubes(cells), ambient_dim=dim)
    assert pad_betti(betti(cx), dim + 1) == _duality_betti(mask, _chi(cx))


def _top_mask(cx):
    """Occupancy array of the top cells of cx, over their bounding box."""
    index = (np.array(cells_of_dim(cx, cx.ambient_dim)) - 1) // 2
    index -= index.min(axis=0)
    mask = np.zeros(index.max(axis=0) + 1, dtype=bool)
    mask[tuple(index.T)] = True
    return mask


@pytest.mark.parametrize("name", [n for n in BUILDS if len(SNAPSHOT[n]["n_cells"]) in (3, 4)])
def test_builds_match_duality(name):
    cx = BUILDS[name][0]()
    assert pad_betti(betti(cx), cx.ambient_dim + 1) == _duality_betti(_top_mask(cx), _chi(cx))


def test_verify_full_complexes_match_duality(monkeypatch):
    """Every 2-D and 3-D complex of `verify --full` that is the closure of its top cells."""
    computed = []

    def recording_betti(cx):
        vec = betti(cx)
        computed.append((cx, vec))
        return vec

    monkeypatch.setattr(harness, "betti", recording_betti)
    harness.run_verification_suite(0, full=True)
    checked = 0
    for cx, vec in computed:
        if cx.ambient_dim not in (2, 3) or cx.n_cells(cx.ambient_dim) == 0:
            continue
        if not same_complex(close_under_faces(cells_of_dim(cx, cx.ambient_dim), ambient_dim=cx.ambient_dim), cx):
            continue
        assert pad_betti(vec, cx.ambient_dim + 1) == _duality_betti(_top_mask(cx), _chi(cx)), cx
        checked += 1
    assert checked >= 14, f"only {checked} of {len(computed)} complexes checked"


# ---------------------------------------------------------------------------
# Differential tests against the tuple engine the flat-index engine replaced:
# free-face collapse on code tuples, then boundary ranks of the tuple core.


def _unique_coface(cube, live):
    found = None
    for axis, code in enumerate(cube):
        if code & 1:
            continue
        for delta in (-1, 1):
            cand = cube[:axis] + (code + delta,) + cube[axis + 1 :]
            if cand in live:
                if found is not None:
                    return None
                found = cand
    return found


def _collapsed_core(cells):
    """Remove free (face, coface) pairs until none remain (tuple reference)."""
    live = set(cells)
    count = {}
    for c in live:
        for f in cube_faces(c):
            count[f] = count.get(f, 0) + 1
    queue = deque(sorted(f for f, n in count.items() if n == 1))
    while queue:
        f = queue.popleft()
        if f not in live or count.get(f) != 1:
            continue
        coface = _unique_coface(f, live)
        if coface is None:
            continue
        live.discard(f)
        live.discard(coface)
        for g in cube_faces(coface):
            n = count.get(g, 0) - 1
            count[g] = n
            if n == 1:
                queue.append(g)
        for g in cube_faces(f):
            n = count.get(g, 0) - 1
            count[g] = n
            if n == 1:
                queue.append(g)
    return live


def _tuple_betti(cells, top):
    """b_0 .. b_top from GF(2) boundary ranks of the collapsed tuple core."""
    by_dim = {}
    for c in _collapsed_core(cells):
        by_dim.setdefault(cube_dim(c), []).append(c)
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        index = {c: r for r, c in enumerate(by_dim.get(d - 1, []))}
        columns = [sum(1 << index[f] for f in cube_faces(c)) for c in by_dim.get(d, [])]
        ranks[d] = GF2Matrix(len(index), columns).rank()
    return tuple(len(by_dim.get(d, ())) - ranks[d] - ranks[d + 1] for d in range(top + 1))


@st.composite
def mixed_cubes(draw):
    """(ambient dimension, cubes): 1-D to 4-D, negative codes, any cube dimension, repeats."""
    dim = draw(st.integers(1, 4))
    # A narrow code range makes cubes meet, so cycles and voids occur.
    code = st.integers(-3, 2 if dim < 3 else 1)
    cubes = draw(st.lists(st.tuples(*[code] * dim), max_size=(16, 16, 12, 6)[dim - 1]))
    # Boundaries of unit cubes: spheres S^(dim-1), alone or glued to the rest.
    for corner in draw(st.lists(st.tuples(*[st.integers(-2, 1)] * dim), max_size=2)):
        cubes += cube_faces(tuple(2 * m + 1 for m in corner))
    if cubes:
        cubes += draw(st.lists(st.sampled_from(cubes), max_size=3))
    return dim, cubes


@COLLAPSING
@given(mixed_cubes())
def test_flat_engine_matches_tuple_engine(collapse_always, case):
    dim, cubes = case
    cx = close_under_faces(cubes, ambient_dim=dim)
    want = _stack_closure(cubes)
    assert cx.cells == want and len(cx) == len(want)
    for d in range(-1, dim + 2):
        assert cx.n_cells(d) == sum(1 for c in want if cube_dim(c) == d)
    assert cx.dim == max(map(cube_dim, want), default=-1)
    assert same_complex(cx, CubicalComplex(dim, want))
    if want:
        vec = betti(cx)
        assert vec == betti(CubicalComplex(dim, want))
        assert vec == _tuple_betti(want, cx.dim) == betti_by_cells(cx)


@SETTINGS
@given(mixed_cubes())
def test_code_array_matches_code_tuples(case):
    dim, cubes = case
    cx = close_under_faces(np.array(cubes, dtype=np.int64).reshape(len(cubes), dim), ambient_dim=dim)
    ref = close_under_faces(cubes, ambient_dim=dim)
    assert (cx._frame.lo, cx._frame.strides) == (ref._frame.lo, ref._frame.strides)
    assert np.array_equal(cx._first, ref._first) and np.array_equal(cx._last, ref._last)


@SETTINGS
@given(mixed_cubes(), st.sampled_from([0, 22]))
def test_code_layouts_give_one_complex_on_every_run_axis(case, extra):
    """The codes as a C-ordered array, a Fortran-ordered array and code
    tuples give one frame, runs, cells and Betti vector on every run axis,
    in an int64 frame and, with 22 extra axes, in an object frame."""
    dim, cubes = case
    n = dim + extra
    tuples = [(0,) * extra + c for c in cubes]
    codes = np.array(tuples, dtype=np.int64).reshape(len(cubes), n)
    for run_axis in (0, *range(extra, n)):
        ref = close_under_faces(tuples, ambient_dim=n, run_axis=run_axis)
        want = betti(ref)
        for layout in (codes, np.asfortranarray(codes)):
            cx = close_under_faces(layout, ambient_dim=n, run_axis=run_axis)
            assert (cx._frame.lo, cx._frame.strides) == (ref._frame.lo, ref._frame.strides)
            assert np.array_equal(cx._first, ref._first) and np.array_equal(cx._last, ref._last)
            assert cx.cells == ref.cells and betti(cx) == want


# ---------------------------------------------------------------------------
# The run complex, its free-face rounds, and complexes whose flat indices do
# not fit in int64.


def _tuple_runs(cells):
    """The runs of the code tuples `cells` in flat order: the maximal lists of
    cells that share their codes off the last axis and step by one on it."""
    runs = []
    for c in sorted(cells):
        if runs and runs[-1][-1][:-1] == c[:-1] and runs[-1][-1][-1] + 1 == c[-1]:
            runs[-1].append(c)
        else:
            runs.append([c])
    return runs


def _tuple_face_table(cells, dim):
    """The top of every run, and the face table of the run complex built from code tuples."""
    runs = _tuple_runs(cells)
    run_of = {c: r for r, run in enumerate(runs) for c in run}
    tops = [run[-1] for run in runs]
    rows = [[run_of[t[:a] + (t[a] + delta,) + t[a + 1:]] if t[a] & 1 else len(runs)
             for a in range(dim - 1) for delta in (-1, 1)] for t in tops]
    return tops, np.array(rows, dtype=np.intp).reshape(len(runs), 2 * max(dim - 1, 0))


def _run_dims(cx, runs):
    return cx._frame.dims(cx._last[runs]).tolist()


def _table_betti(table, dims, top):
    """b_0 .. b_top of the run complex with face table `table` and run dimensions `dims`."""
    n = len(table)
    by_dim = [[r for r in range(n) if dims[r] == d] for d in range(top + 1)]
    ranks = [0] * (top + 2)
    for d in range(1, top + 1):
        index = {r: i for i, r in enumerate(by_dim[d - 1])}
        columns = [sum(1 << index[f] for f in table[r].tolist() if f < n) for r in by_dim[d]]
        ranks[d] = GF2Matrix(len(index), columns).rank()
    return tuple(len(by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(top + 1))


@SETTINGS
@given(mixed_cubes())
def test_run_face_table_matches_tuple_runs(case):
    dim, cubes = case
    narrow = close_under_faces(cubes, ambient_dim=dim)
    # 22 constant axes in front put the frame past 2**63 positions and keep
    # the cubes' own last axis last.
    wide = close_under_faces([(0,) * 22 + c for c in cubes], ambient_dim=dim + 22)
    assert narrow._last.dtype == np.int64 and wide._last.dtype == object
    for cx in (narrow, wide):
        table = homology._run_complex(cx)
        tops, want = _tuple_face_table(cx.cells, cx.ambient_dim)
        assert list(cx._frame.decode(cx._last)) == tops
        assert table.shape == want.shape and np.array_equal(table, want)


@SETTINGS
@given(mixed_cubes())
def test_face_table_is_one_run_major_intp_array(case):
    # Row r holds run r's faces, columns 2a and 2a + 1 the two sides of the
    # a-th axis off the run axis, both filler or both a run.  The tops grow
    # with r, so down a column the runs named never decrease.
    dim, cubes = case
    for extra in (0, 22):
        cx = close_under_faces([(0,) * extra + c for c in cubes], ambient_dim=dim + extra)
        table = homology._run_complex(cx)
        n = len(cx._last)
        assert table.shape == (n, 2 * (dim + extra - 1)) and table.dtype == np.intp
        assert table.flags.c_contiguous
        filler = table == n
        assert np.array_equal(filler[:, 0::2], filler[:, 1::2]) and (table <= n).all()
        for column, is_filler in zip(table.T, filler.T):
            runs = column[~is_filler]
            assert (runs[1:] >= runs[:-1]).all()


@COLLAPSING
@given(mixed_cubes())
# An edge along the run axis: one run, whose top is a vertex.
@example((2, [(0, 1)]))
@example((3, [(0, 0, 2)]))
def test_betti_reads_the_top_dimension_from_the_runs(collapse_always, case):
    dim, cubes = case
    for extra in (0, 22):
        cx = close_under_faces([(0,) * extra + c for c in cubes], ambient_dim=dim + extra)
        assert cx._last.dtype == (object if extra else np.int64)
        # With `_dim_counts` unset, betti fails if it counts the cells per dimension.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CubicalComplex, "_dim_counts", None)
            vector = betti(cx)
        assert len(vector) == (cx.dim + 1 if len(cx) else dim + extra + 1)


@SETTINGS
@given(st.one_of(top_cells().map(lambda case: (case[0], _cubes(case[2]))), mixed_cubes()))
def test_run_complex_has_the_chi_and_homology_of_the_complex(case):
    dim, cubes = case
    cx = close_under_faces(cubes, ambient_dim=dim)
    table = homology._run_complex(cx)
    dims = _run_dims(cx, slice(None))
    assert sum((-1) ** d for d in dims) == cx.euler_characteristic()
    if cubes:
        assert _table_betti(table, dims, cx.dim) == betti_by_cells(cx)


@SETTINGS
@given(st.one_of(top_cells().map(lambda case: (case[0], _cubes(case[2]))), mixed_cubes()))
def test_collapsed_run_complex_is_closed_with_no_free_run_and_the_same_chi(case):
    dim, cubes = case
    cx = close_under_faces(cubes, ambient_dim=dim)
    table = homology._run_complex(cx)
    live = homology._collapse(table)
    alive = set(live.tolist())
    cofaces = dict.fromkeys(alive, 0)
    for g in alive:
        for f in table[g].tolist():
            if f < len(table):
                assert f in alive, "a live run has a removed face"
                cofaces[f] += 1
    assert 1 not in cofaces.values(), "a free run is left"
    assert sum((-1) ** d for d in _run_dims(cx, live)) == cx.euler_characteristic()
    assert np.array_equal(homology._collapse(table), live)


@COLLAPSING
@given(mixed_cubes())
def test_object_frame_matches_int64_frame(collapse_always, case):
    dim, cubes = case
    narrow = close_under_faces(cubes, ambient_dim=dim)
    # 22 more axes, all at code 0, put the frame past 2**63 positions; the
    # complex is the same up to those constant coordinates.
    wide = close_under_faces([c + (0,) * 22 for c in cubes], ambient_dim=dim + 22)
    assert narrow._last.dtype == np.int64 and wide._last.dtype == object
    assert {c[:dim] for c in wide.cells} == narrow.cells and len(wide) == len(narrow)
    assert [wide.n_cells(d) for d in range(dim + 2)] == [narrow.n_cells(d) for d in range(dim + 2)]
    if cubes:
        assert betti(wide) == betti(narrow) == betti_by_cells(wide)


# Cube [1,2]x[0,1]x[0,1], and one unit higher, over empty space, the cubes
# [1,2]x[1,2]x[1,2] and [2,3]x[0,1]x[1,2], which share the edge x = 2, y = 1.
OVERHANG = [(3, 1, 1), (3, 3, 3), (5, 1, 3)]


def test_run_complex_of_an_overhang_follows_paths_up_their_runs(collapse_always):
    cx = close_under_faces(OVERHANG)
    table = homology._run_complex(cx)
    tops, want = _tuple_face_table(cx.cells, 3)
    assert list(cx._frame.decode(cx._last)) == tops and np.array_equal(table, want)
    # The low cube's top square is the top of its run.  Its faces at x = 2 and
    # y = 1 are the lowest of the lines that run on up the two high cubes, so
    # its boundary names the tops of those runs.
    low = tops.index((3, 1, 2))
    assert {tops[f] for f in table[low].tolist() if f < len(tops)} == {(2, 1, 2), (4, 1, 4), (3, 0, 2), (3, 2, 4)}
    assert betti(cx) == betti_by_cells(cx) == (1, 0, 0, 0)


def test_run_complex_on_an_object_frame(collapse_always):
    # 22 constant axes in front put the frame past 2**63 positions and leave
    # the overhang's z axis last.
    narrow = close_under_faces(OVERHANG)
    wide = close_under_faces([(0,) * 22 + c for c in OVERHANG])
    assert wide._last.dtype == object
    narrow_table, wide_table = map(homology._run_complex, (narrow, wide))
    assert len(wide._last) == len(narrow._last)
    assert (wide_table[:, :44] == len(wide._last)).all() and np.array_equal(wide_table[:, 44:], narrow_table)
    assert np.array_equal(homology._collapse(wide_table), homology._collapse(narrow_table))
    assert betti(wide) == betti(narrow) == (1, 0, 0, 0)


def _run_boundaries(cx):
    """betti(cx), and the arguments and result of every `_run_boundary` call it makes."""
    calls = []
    real = homology._run_boundary

    def recorded(table, groups, d, cleared=()):
        cleared = list(cleared)
        matrix = real(table, groups, d, cleared)
        calls.append(((table, groups, d, cleared), matrix))
        return matrix

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_run_boundary", recorded)
        return betti(cx), calls


def _check_run_boundaries(calls):
    """Each matrix equals the plain-Python one, its cleared columns are 0, and its entries are Python ints."""
    for args, matrix in calls:
        want = run_boundary_by_faces(*args)
        assert (matrix.n_rows, matrix.n_cols) == (want.n_rows, want.n_cols)
        assert matrix.columns == want.columns
        assert all(type(column) is int for column in matrix.columns)
        assert not any(matrix.columns[j] for j in args[3])


@COLLAPSING
@given(mixed_cubes())
# The overhang in a frame past 2**63 positions, whose flat indices are Python ints.
@example((25, [(0,) * 22 + c for c in OVERHANG]))
def test_run_boundary_matches_columns_summed_face_by_face(collapse_always, case):
    dim, cubes = case
    cx = close_under_faces(cubes, ambient_dim=dim)
    if len(cx):
        vector, calls = _run_boundaries(cx)
        assert vector == betti_by_cells(cx)
        _check_run_boundaries(calls)


def test_run_boundary_of_the_shell_k3_core():
    # The free-face rounds cannot shrink a closed 2-sphere, so the shell-k3
    # grid block keeps 642 of its 1,626 runs.  Its boundary matrices span
    # several 64-bit words per column: 320 rows for the 160 2-runs, and 320
    # columns over the 162 0-runs, half of them cleared.  No 3-run is live,
    # so no map is formed from dimension 3.
    sc = harness.scenario_shell(3, Fraction(1, 2), 1)
    block, copies = grid_block(sc.system, sc.grid)
    assert copies == 1 and len(block._first) == 1626
    vector, calls = _run_boundaries(block)
    assert vector == (1, 0, 1, 0)
    assert [(args[2], m.n_rows, m.n_cols, len(args[3])) for args, m in calls] == [
        (2, 320, 160, 0), (1, 162, 320, 159)]
    _check_run_boundaries(calls)


@pytest.mark.parametrize("cx, vector, dims", [
    (solid_cube_complex(3), (1, 0, 0, 0), [3, 2, 1]),
    (hollow_square(), (1, 1), [1]),
], ids=["solid-cube", "hollow-square"])
def test_cell_path_forms_a_map_per_nonempty_dimension(cx, vector, dims):
    """Ranked cell by cell, `betti` forms one map per dimension d >= 1 that holds a cell, and none other."""
    calls = []
    real = homology._boundary

    def recorded(frame, groups, d, cleared=()):
        calls.append((d, len(groups[d])))
        return real(frame, groups, d, cleared)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_boundary", recorded)
        got = betti(cx)
    assert got == betti_by_cells(cx) == vector
    assert [d for d, _ in calls] == dims and all(n for _, n in calls)


# ---------------------------------------------------------------------------
# Runs as the stored form: closure on runs, counts from runs, and the missing
# face of a large complex.


@SETTINGS
@given(mixed_cubes())
def test_closed_runs_of_a_code_array_match_the_stack_closure(case):
    dim, cubes = case
    for extra in (0, 22):
        padded = [(0,) * extra + c for c in cubes]
        cx = close_under_faces(np.array(padded, dtype=np.int64).reshape(len(cubes), dim + extra), ambient_dim=dim + extra)
        assert cx._first.dtype == cx._last.dtype == (object if extra else np.int64)
        runs = _tuple_runs(_stack_closure(padded))
        assert list(zip(cx._frame.decode(cx._first), cx._frame.decode(cx._last))) == [(r[0], r[-1]) for r in runs]


@SETTINGS
@given(mixed_cubes())
# A run that starts odd, (1,) to (2,), and one that ends odd, (4,) to (5,).
@example((1, [(1,), (2,), (4,), (5,)]))
def test_counts_from_runs_match_the_cell_dimensions(case):
    dim, cubes = case
    want = Counter(map(cube_dim, set(cubes)))
    for extra in (0, 22):
        cx = CubicalComplex(dim + extra, [(0,) * extra + c for c in cubes])
        assert cx._last.dtype == (object if extra else np.int64)
        assert [cx.n_cells(d) for d in range(-1, dim + 2)] == [want[d] for d in range(-1, dim + 2)]
        assert cx.dim == max(want, default=-1) and len(cx) == len(set(cubes))
        assert cx.euler_characteristic() == sum((-1) ** d * n for d, n in want.items())


# ---------------------------------------------------------------------------
# Grids: `close_grid` on a mask and on the index array of the same kept
# cells, on every run axis, against `close_under_faces` on their code tuples.


@st.composite
def grid_masks(draw):
    """A boolean mask of 1 to 4 axes of 0 to 7 cells, each cell kept with one
    drawn chance: 0 gives the empty mask and 1 the full one.  One axis in
    about eight masks has no cell."""
    shape = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    if draw(st.integers(0, 7)) == 7:
        shape[draw(st.integers(0, len(shape) - 1))] = 0
    chance = draw(st.sampled_from([0.5, 0.25, 0.75, 0, 1]))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape) < chance


@SETTINGS
@given(grid_masks())
# A fold of an empty mask leaves axes of no cells.
@example(np.zeros((3, 0, 2), dtype=bool))
def test_close_grid_closes_as_the_code_tuples(mask):
    dim = mask.ndim
    # The kept cells' indices, (dim, n) in lexicographic order, at a narrow dtype as the band keeps them.
    index = np.array(mask.nonzero(), dtype=np.uint8).reshape(dim, -1)
    codes = [tuple(2 * j + 1 for j in c) for c in index.T.tolist()]
    ref = close_under_faces(codes, ambient_dim=dim)
    want = len(ref), ref.cells, [ref.n_cells(d) for d in range(-1, dim + 2)], betti(ref)
    # The frames differ, but the runs are the same cells in the same order, so
    # the run complex and its free-face rounds are the same too.
    runs = lambda c: list(zip(c._frame.decode(c._first), c._frame.decode(c._last)))
    for run_axis in range(dim):
        ref_runs = runs(close_under_faces(codes, ambient_dim=dim, run_axis=run_axis))
        for cells in (mask, index):
            cx = close_grid(mask.shape, cells, run_axis)
            assert cx.ambient_dim == dim and cx._frame.strides[run_axis] == 1 and runs(cx) == ref_runs
            assert (len(cx), cx.cells, [cx.n_cells(d) for d in range(-1, dim + 2)], betti(cx)) == want


# ---------------------------------------------------------------------------
# The run axis: any axis can be the frame's stride-1 axis.


def _on_run_axis(cells, dim, run_axis):
    """The complex of the code tuples `cells`, face-closed or not, in a frame with stride 1 on `run_axis`."""
    frame, flat = homology._encode(list(cells), dim, run_axis)
    return CubicalComplex._from_runs(dim, frame, *homology._merge(flat, flat))


@SETTINGS
@given(mixed_cubes(), st.sampled_from([0, 22]), st.data())
def test_every_run_axis_gives_the_complex_of_the_last_axis(case, extra, data):
    dim, cubes = case
    n = dim + extra
    codes = np.array([(0,) * extra + c for c in cubes], dtype=np.int64).reshape(len(cubes), n)
    ref = close_under_faces(codes, ambient_dim=n)
    assert ref._last.dtype == (object if extra else np.int64)

    def summary(cx):
        return betti(cx), len(cx), [cx.n_cells(d) for d in range(-1, n + 2)], cx.euler_characteristic(), cx.cells

    want = summary(ref)
    faces = sorted({f for c in ref.cells for f in cube_faces(c)})
    gone = data.draw(st.sampled_from(faces)) if faces else None
    for run_axis in (0, *range(extra, n)):
        cx = close_under_faces(codes, ambient_dim=n, run_axis=run_axis)
        assert cx._frame.strides[run_axis] == 1
        assert summary(cx) == want
        if gone is None:
            continue
        # One face removed: both ways of ranking name it, in its codes.
        broken = _on_run_axis(ref.cells - {gone}, n, run_axis)
        for rank in (betti, homology._run_complex):
            with pytest.raises(ValueError, match=re.escape(f"complex is not face-closed: missing {gone!r}")):
                rank(broken)


def test_run_axis_out_of_range_is_rejected():
    with pytest.raises(ValueError, match="run axis 2 is not one of the 2 axes"):
        close_under_faces([(1, 1)], run_axis=2)
    assert close_under_faces([(1, 1)], run_axis=-2)._frame.strides[0] == 1


# The 16 x 16 square of unit squares, 1,089 cells: `betti` ranks its run complex.
SOLID = close_under_faces([(2 * i + 1, 2 * j + 1) for i in range(16) for j in range(16)])


@SETTINGS
@given(st.sets(st.sampled_from(sorted(c for c in SOLID.cells if cube_dim(c) < 2)), min_size=1, max_size=6),
       st.sampled_from([0, 22]))
def test_large_complex_with_missing_faces_names_one(gone, extra):
    cells = {(0,) * extra + c for c in SOLID.cells - gone}
    broken = CubicalComplex(2 + extra, cells)
    assert len(broken) >= homology._COLLAPSE_MIN_CELLS and broken._last.dtype == (object if extra else np.int64)
    with pytest.raises(ValueError, match=r"complex is not face-closed: missing ") as info:
        betti(broken)
    face = tuple(map(int, re.findall(r"-?\d+", str(info.value).split("missing ")[1])))
    assert face not in cells and any(face in cube_faces(c) for c in cells)
