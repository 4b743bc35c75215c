"""Property tests of face closure and Betti numbers against independent oracles.

Inputs are random sets of top cells in small 2-D and 3-D boxes.  Closure is
compared with a stack-based closure kept here as the reference, and Betti
numbers with the Euler characteristic of the raw cell counts, with the
no-collapse path and, for b_0, with `scipy.ndimage.label` on the occupancy
array under full (vertex) connectivity.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from quadbetti.homology import betti, close_under_faces, cube_faces

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def top_cells(draw):
    """(ambient dimension, box side, sorted cell index vectors)."""
    dim = draw(st.sampled_from([2, 3]))
    side = 5 if dim == 2 else 3
    index = st.tuples(*[st.integers(0, side - 1)] * dim)
    return dim, side, sorted(draw(st.sets(index, max_size=side**dim)))


def _cubes(cells):
    return [tuple(2 * j + 1 for j in jvec) for jvec in cells]


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
    chi = sum((-1) ** d * cx.n_cells(d) for d in range(dim + 1))
    assert chi == sum((-1) ** i * b for i, b in enumerate(betti(cx)))


@SETTINGS
@given(top_cells())
def test_collapse_preserves_betti(case):
    dim, _, cells = case
    cx = close_under_faces(_cubes(cells), ambient_dim=dim)
    assert betti(cx) == betti(cx, precollapse=False)


@SETTINGS
@given(top_cells())
def test_b0_matches_connected_components(case):
    dim, side, cells = case
    mask = np.zeros((side,) * dim, dtype=bool)
    for jvec in cells:
        mask[jvec] = True
    _, components = ndimage.label(mask, structure=np.ones((3,) * dim, dtype=bool))
    assert betti(close_under_faces(_cubes(cells), ambient_dim=dim))[0] == components
