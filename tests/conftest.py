"""Fixtures shared by the test modules."""

import pytest

from quadbetti import homology


@pytest.fixture
def collapse_always(monkeypatch):
    """`betti` runs the free-face collapse rounds on every complex, however small."""
    monkeypatch.setattr(homology, "_COLLAPSE_MIN_CELLS", 0)
