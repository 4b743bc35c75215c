"""Replay of recorded grid-builder output.

`data/builder_snapshot.json` holds, for every builder input below, the cell
count per dimension and a sha256 of `repr(sorted(cells))`, plus the Betti
vector of the affine grids.  The values were recorded before the four grid
builders were folded into one builder core, so any change to which cells a
builder keeps, or to face closure, shows up here.  Every entry also
records its run axis, the stride-1 axis of the complex.  The run axes, the
three undeformed caps and the deformed shell-k2 lift were recorded before
the sphere band was stored axis-major and the code arrays were read column
by column.  A cap entry is the block `sphere_region_block` returns, with
two copies, for the undeformed lift of the same name.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from quadbetti.exact import QuadraticForm, dehomogenize, homogenize, random_pd_form
from quadbetti.harness import scenario_products, scenario_shell
from quadbetti.homology import betti
from quadbetti.quadforms import (
    grid_complex,
    sphere_band_complex,
    sphere_region_block,
    sphere_region_complex,
    sphere_zero_complex,
)

SNAPSHOT = json.loads((Path(__file__).parent / "data" / "builder_snapshot.json").read_text())

# The unit sphere's cell width, in 3 variables: the grid of the Smith and Alexander audits.
UNIT_WIDTH = Fraction(1, 8)
EQUATOR = QuadraticForm.make(3, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
CONE = QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
EPS = Fraction(1, 10)
# The lift's default cell width, r/32 at r = 2/eps.
LIFT_WIDTH = 1 / (16 * EPS)


def _affine(sc):
    return lambda: grid_complex(sc.system, sc.grid)


def _cap(polys, eps, width, dim):
    """The block of `sphere_region_block`; every recorded cap input takes the cap."""
    block, copies = sphere_region_block(polys, eps, width, dim)
    assert copies == 2
    return block


def _lift(sc, builder=sphere_region_complex):
    polys = [homogenize(p).as_poly() for p in sc.system]
    return lambda: builder(polys, EPS, LIFT_WIDTH, sc.k + 1)


def _deformed_lift(sc, t, seed):
    """The lift `deformation_audit` builds at t for the family seed `seed`."""
    family = [dehomogenize(random_pd_form(sc.k + 2, seed + i)) for i in range(sc.s)]
    polys = [homogenize(p).as_poly().blend(h, t) for p, h in zip(sc.system, family)]
    return lambda: sphere_region_complex(polys, EPS, LIFT_WIDTH, sc.k + 1)


SHELL2 = scenario_shell(2, Fraction(1, 2), 1)

# name -> (builder call, record the Betti vector)
BUILDS = {
    **{f"grid-products-k{k}": (_affine(scenario_products(k)), True) for k in range(1, 5)},
    "grid-shell-k2": (_affine(SHELL2), True),
    "grid-shell-k3": (_affine(scenario_shell(3, Fraction(1, 2), 1)), True),
    "band-unit-sphere": (lambda: sphere_band_complex(1, UNIT_WIDTH, 3), False),
    "zero-equator": (lambda: sphere_zero_complex([EQUATOR], 1, UNIT_WIDTH, Fraction(1, 8)), False),
    "zero-cone": (lambda: sphere_zero_complex([CONE], 1, UNIT_WIDTH, Fraction(1, 4)), False),
    "lift-products-k1": (_lift(scenario_products(1)), False),
    "lift-products-k2": (_lift(scenario_products(2)), False),
    "lift-shell-k2": (_lift(SHELL2), False),
    "cap-products-k1": (_lift(scenario_products(1), _cap), False),
    "cap-products-k2": (_lift(scenario_products(2), _cap), False),
    "cap-shell-k2": (_lift(SHELL2, _cap), False),
    "deformed-lift-shell-k2": (_deformed_lift(SHELL2, Fraction(1, 2000), 1), False),
}


def snapshot(name):
    build, affine = BUILDS[name]
    cx = build()
    rec = {
        "n_cells": [cx.n_cells(d) for d in range(cx.ambient_dim + 1)],
        "sha256": hashlib.sha256(repr(sorted(cx.cells)).encode()).hexdigest(),
        "run_axis": cx._frame.strides.index(1),
    }
    if affine:
        rec["betti"] = list(betti(cx))
    return rec


def test_every_input_is_recorded():
    assert sorted(SNAPSHOT) == sorted(BUILDS)


@pytest.mark.parametrize("name", list(BUILDS))
def test_builder_matches_recording(name):
    assert snapshot(name) == SNAPSHOT[name]
