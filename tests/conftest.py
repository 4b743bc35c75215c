"""Fixtures and helpers shared by the test modules.

`homology._COLLAPSE_MIN_CELLS` is the one switch between the two ways
`betti` ranks a complex: through its run complex, or cell by cell.  Tests
reach either way by patching it: to 0 for the run complex and the free-face
rounds on every complex, to infinity for the cell-level cross-check.
`run_boundary_by_faces` is the plain-Python reference for the boundary
matrices of the run complex.
"""

import pytest

from quadbetti import homology
from quadbetti.exact import GF2Matrix


@pytest.fixture
def collapse_always(monkeypatch):
    """`betti` runs the free-face collapse rounds on every complex, however small."""
    monkeypatch.setattr(homology, "_COLLAPSE_MIN_CELLS", 0)


def betti_by_cells(cx):
    """`betti` of cx ranked cell by cell, never through the run complex, however large cx is."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_COLLAPSE_MIN_CELLS", float("inf"))
        return homology.betti(cx)


def run_boundary_by_faces(table, groups, d, cleared=()):
    """The matrix `homology._run_boundary` builds, in plain Python, one face at a time.

    Column j is the sum of 1 << row over the faces of the j-th live d-run,
    each row its face's position among the live (d-1)-runs, and the columns
    at the positions `cleared` are 0.
    """
    n = len(table)
    row_of = {r: i for i, r in enumerate(groups[d - 1].tolist())}
    columns = [sum(1 << row_of[f] for f in table[r].tolist() if f < n) for r in groups[d].tolist()]
    for j in cleared:
        columns[j] = 0
    return GF2Matrix(len(row_of), columns)
