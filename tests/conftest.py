"""Fixtures and helpers shared by the test modules.

`homology._COLLAPSE_MIN_CELLS` is the one switch between the two ways
`betti` ranks a complex: through its run complex, or cell by cell.  Tests
reach either way by patching it: to 0 for the run complex and the free-face
rounds on every complex, to infinity for the cell-level cross-check.
"""

import pytest

from quadbetti import homology


@pytest.fixture
def collapse_always(monkeypatch):
    """`betti` runs the free-face collapse rounds on every complex, however small."""
    monkeypatch.setattr(homology, "_COLLAPSE_MIN_CELLS", 0)


def betti_by_cells(cx):
    """`betti` of cx ranked cell by cell, never through the run complex, however large cx is."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_COLLAPSE_MIN_CELLS", float("inf"))
        return homology.betti(cx)
