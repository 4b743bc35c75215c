"""Grid complexes of the sets cut out by the exact quadratics of `exact`.

Their `fractions.Fraction` coefficients are read by `parse_rational`, which
refuses floats everywhere so that membership tests and sign evaluations
are exact.  The one deliberate exception is `ci_probe`, a floating-point
diagnostic that no audit calls: the Smith audit checks the smoothness of
its intersection exactly (`exact.is_nonsingular_quadric`, `exact.check_smooth_pencil`).

Grid complexes use the center-point rule.  Every builder is a list of
quadratics, and a candidate top cell is kept iff each of them is >= 0 at
its center; the sign is decided exactly, as the sign of an integer value
at the integer-scaled center.  The candidates are the whole box, or the
sphere band: the cells whose closed cube the sphere actually crosses
(exact interval arithmetic on the squared radius), which keeps the band
free of pinholes at any resolution.  `grid_complex` passes its system,
`sphere_band_complex` nothing, `sphere_zero_complex` the pair tau - Q and
tau + Q per form (so |Q| <= tau), and `sphere_region_complex` the
projective-ball truncation (1/eps)^2 x_{k+1}^2 - |x_1..x_k|^2 ahead of
its system.  `sphere_zero_split` returns `sphere_zero_complex`'s set
together with its closed complement on the sphere, the band cells whose
closed cube misses every kept cell.

The builder decides all candidates in one numpy array pass: the whole box
by broadcasting per-axis centers, the band as a mask from per-axis min and
max squares and then the polynomials at its cells.  The band depends only
on the grid and the radius, so it is computed once per (grid, radius) in a
process and shared read-only (`_sphere_band`): axis-major, one contiguous
row of cell indices per axis, at the narrowest unsigned dtype that holds
them, so the centers of an axis are gathered in one pass.  A spec keeps
the cell count per axis that its width check computes, its integer view
(`_GridScale`) takes int arithmetic alone, and a lift's truncation is
built once per (eps, dimension), so a repeated lift pays little beyond its
cells and its own polynomials.  The builder computes in int64
when a bound taken beforehand shows that no value it forms reaches 2**62
in absolute value, and otherwise runs the same array code on Python ints
(dtype=object); no float enters.  `_top_cells` returns the grid indices of
the kept cells, one row per cell and one contiguous column per axis, and
their run axis: the last axis on the whole box, and on a band the axis
along which the most of them are adjacent; `_build` closes them under
faces with runs along that axis.

An undeformed lift is two antipodal copies of one set, and
`sphere_region_cap` builds only the upper one.  It returns the closed upper
polar cap of `sphere_region_complex(polys, eps, spec)`, the face closure
of its top cells above x_{k+1} = 0, when all three of these hold, each
checked exactly, and None otherwise:

1. the box is symmetric about 0 on every axis;
2. no polynomial of the lifted system, the truncation included, has a
   linear part, so P(-c) = P(c) at every integer-scaled center c;
3. no kept top cell's closed cube meets x_{k+1} = 0, that is, lies in
   the layers floor((m - 1) / 2) .. floor(m / 2) of the m cells of the
   last axis.  The truncation keeps them empty unless the grid is coarse.

Proof that the lift is then the cap plus its point reflection, with
disjoint closures.  The reflection j -> n - 1 - j on every axis maps the
grid onto itself and negates every center (1).  It leaves the band
unchanged, since `_band_mask` reads only per-axis minimum and maximum
squares, and it keeps the sign of every polynomial (2).  So the kept top
cells are symmetric, and by (3) they split into those above the middle
layers and their reflections below, whose closed cubes lie in x_{k+1} > 0
and x_{k+1} < 0.  The homology of a disjoint union adds up, so every Betti
number of the lift and its Euler characteristic are twice the cap's.  No
two kept cells are adjacent across the middle layers, so the adjacent
pairs that pick the run axis halve, and the cap keeps the lift's run axis.
Only the band cells of the upper half are evaluated, which halves the
center evaluation, the closure and the ranking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exact import QuadraticForm, QuadraticPoly, parse_rational, positive
from .homology import CubicalComplex, close_under_faces

__all__ = [
    "CiProbeReport",
    "ci_probe",
    "DeformationParams",
    "GridSpec",
    "grid_complex",
    "sphere_zero_complex",
    "sphere_zero_split",
    "sphere_band_complex",
    "sphere_region_complex",
    "sphere_region_cap",
]


@dataclass(frozen=True)
class CiProbeReport:
    """Floating-point evidence about transversality of a form system."""

    verdict: str  # LIKELY_NONSINGULAR | SINGULARITY_SUSPECTED | UNKNOWN
    zeros_found: int
    min_jacobian_sv: Optional[float]
    tol: float


def ci_probe(
    forms: Sequence[QuadraticForm], samples: int = 16, seed: int = 0, tol: float = 1e-6
) -> CiProbeReport:
    """Numerically hunt for common zeros on the unit sphere and rate the Jacobian.

    Seeded random restarts refined by Gauss-Newton on the residual map
    (all form values, plus the sphere constraint).  At every approximate
    zero found, the smallest singular value of the stacked gradients is
    recorded.  This is a heuristic diagnostic only; it never proves
    anything and its verdicts must not gate exact checks.
    """
    if not forms:
        raise ValueError("need at least one form")
    n = forms[0].n
    if any(f.n != n for f in forms):
        raise ValueError("variable count mismatch")
    mats = [np.array([[float(x) for x in row] for row in f.gram]) for f in forms]
    rng = np.random.default_rng(seed)
    zeros_found = 0
    min_sv: Optional[float] = None
    for _ in range(int(samples)):
        x = rng.normal(size=n)
        x /= max(np.linalg.norm(x), 1e-12)
        ok = True
        for _ in range(60):
            res = np.array([x @ m @ x for m in mats] + [x @ x - 1.0])
            if not np.all(np.isfinite(res)):
                ok = False
                break
            if np.linalg.norm(res) < 1e-13:
                break
            jac = np.vstack([2.0 * (m @ x) for m in mats] + [2.0 * x])
            step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
            x = x + step
        if not ok:
            continue
        res = np.array([x @ m @ x for m in mats] + [x @ x - 1.0])
        if np.linalg.norm(res) <= 1e-9:
            zeros_found += 1
            grads = np.vstack([2.0 * (m @ x) for m in mats])
            svals = np.linalg.svd(grads, compute_uv=False)
            smallest = float(svals[-1]) if svals.size else 0.0
            min_sv = smallest if min_sv is None else min(min_sv, smallest)
    if zeros_found == 0:
        verdict = "UNKNOWN"
    elif min_sv is not None and min_sv > tol:
        verdict = "LIKELY_NONSINGULAR"
    else:
        verdict = "SINGULARITY_SUSPECTED"
    return CiProbeReport(
        verdict=verdict, zeros_found=zeros_found, min_jacobian_sv=min_sv, tol=float(tol)
    )


@dataclass(frozen=True)
class DeformationParams:
    """Concrete stand-ins for the 'sufficiently small' deformation scales.

    eps sets the sphere radius 2/eps used by lifts, delta caps the
    deformation time.  Requires 0 < delta < eps.
    """

    eps: Fraction = Fraction(1, 10)
    delta: Fraction = Fraction(1, 1000)

    def __post_init__(self):
        object.__setattr__(self, "eps", parse_rational(self.eps))
        object.__setattr__(self, "delta", parse_rational(self.delta))
        if not 0 < self.delta < self.eps:
            raise ValueError(f"need 0 < delta < eps, got delta={self.delta}, eps={self.eps}")


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned rational box split into cells of one rational width.

    Every box width must be an integer multiple of the resolution.  Cell
    j on an axis covers [lo + j*h, lo + (j+1)*h]; the membership rule is
    the center point.
    """

    box: Tuple[Tuple[Fraction, Fraction], ...]
    resolution: Fraction
    # The cell count per axis, kept from the width check: derived, so it
    # takes no part in init, eq, hash or repr.
    shape: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.box:
            raise ValueError("a grid needs at least one axis")
        box = tuple((parse_rational(lo), parse_rational(hi)) for lo, hi in self.box)
        res = positive(self.resolution, "resolution")
        shape = []
        for lo, hi in box:
            if hi <= lo:
                raise ValueError(f"empty axis interval [{lo}, {hi}]")
            cells = (hi - lo) / res
            if cells.denominator != 1:
                raise ValueError(
                    f"axis width {hi - lo} is not a multiple of resolution {res}"
                )
            shape.append(cells.numerator)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "shape", tuple(shape))

    @property
    def dim(self) -> int:
        return len(self.box)

    def center(self, jvec: Sequence[int]) -> Tuple[Fraction, ...]:
        h = self.resolution
        return tuple(
            lo + (2 * j + 1) * h / 2 for (lo, _), j in zip(self.box, jvec)
        )

    @staticmethod
    def symmetric(half_width, resolution, dim: int) -> "GridSpec":
        """Box [-H, H]^dim with H snapped up to a multiple of the resolution."""
        h = positive(resolution, "resolution")
        half = parse_rational(half_width)
        n = -((-half) // h)  # ceil division for Fractions
        half = n * h
        return GridSpec(box=((-half, half),) * dim, resolution=h)


class _GridScale:
    """Integer view of a grid: all cell bounds and centers scaled to ints.

    It is built per call in int arithmetic alone: the scale is a multiple
    of every denominator, so each scaled value is numerator * (scale //
    denominator).  Kept on the spec instead, it would stay alive with every
    spec a caller holds.
    """

    def __init__(self, spec: GridSpec):
        res = spec.resolution
        self.scale = 2 * math.lcm(res.denominator, *(lo.denominator for lo, _ in spec.box))
        self.step = res.numerator * (self.scale // res.denominator)
        assert self.step % 2 == 0
        self.lo = [lo.numerator * (self.scale // lo.denominator) for lo, _ in spec.box]
        self.shape = spec.shape
        # Bound on every scaled cell bound and center, and on r * scale for a sphere in the box.
        self.u_max = max(max(-lo, lo + self.step * n) for lo, n in zip(self.lo, self.shape))

    def lows(self, wide: bool, offset: int = 0) -> List[np.ndarray]:
        """Scaled lower cell bounds per axis plus `offset`, in int64 or, if `wide`, Python ints.

        The centers are the lower bounds plus step // 2.
        """
        dtype = object if wide else np.int64
        return [lo + offset + self.step * np.arange(n, dtype=dtype) for lo, n in zip(self.lo, self.shape)]


class _ScaledPoly:
    """Sign-faithful integer evaluator: a positive multiple of P(u/scale) at integer points u."""

    def __init__(self, poly: QuadraticPoly, scale: int):
        dens = [poly.const.denominator]
        dens.extend(x.denominator for x in poly.lin)
        dens.extend(x.denominator for row in poly.quad for x in row)
        lcm = math.lcm(*dens)

        def times_lcm(x: Fraction) -> int:
            # lcm * x in integers: lcm is a multiple of every denominator.
            return x.numerator * (lcm // x.denominator)

        qt = []
        for i in range(poly.k):
            row = poly.quad[i]
            if row[i]:
                qt.append((i, i, times_lcm(row[i])))
            for j in range(i + 1, poly.k):
                if row[j]:
                    qt.append((i, j, 2 * times_lcm(row[j])))
        self.quad_terms = qt
        self.lin_terms = [
            (i, times_lcm(b) * scale) for i, b in enumerate(poly.lin) if b
        ]
        self.const_term = times_lcm(poly.const) * scale * scale

    def magnitude(self, u_max: int) -> int:
        """Bound on every partial sum of `values` at points with |u_i| <= u_max."""
        return (abs(self.const_term)
                + sum(abs(a) for _, _, a in self.quad_terms) * u_max * u_max
                + sum(abs(b) for _, b in self.lin_terms) * u_max)

    def values(self, u: Sequence[np.ndarray]) -> np.ndarray:
        """Values at the points whose coordinate arrays `u` broadcast together."""
        total = self.const_term
        for i, j, a in self.quad_terms:
            total = total + a * u[i] * u[j]
        for i, b in self.lin_terms:
            total = total + b * u[i]
        return total


# Largest grid box, in top cells, that a builder accepts.  It is checked
# before any array is allocated; the largest grid the audits and the suite
# build is the 3-D sphere lift of 68**3 = 314,432 cells.
MAX_GRID_CELLS = 2**22

# The builder computes in int64 when every value it forms is below this in
# absolute value, and otherwise in arrays of Python ints (dtype=object).
_INT64_SAFE = 2**62


def _sphere_radius(radius, spec: GridSpec) -> Fraction:
    """The radius as an exact positive rational whose sphere the grid box contains."""
    r = positive(radius, "radius")
    for lo, hi in spec.box:
        if lo > -r or hi < r:
            raise ValueError(
                f"grid box does not contain the radius-{r} sphere on axis [{lo}, {hi}]"
            )
    return r


def _band_mask(lows: Sequence[np.ndarray], step: int, thr: Fraction) -> np.ndarray:
    """Mask of the cells whose closed cube the sphere sum(x_i^2) = thr crosses.

    `lows` holds the scaled lower cell bounds per axis.  Exact interval
    arithmetic on x^2: a cell is in the band iff
    sum(min x_i^2) <= thr <= sum(max x_i^2) over the closed cube.  The sums
    over all axes but the last are compared with the last axis's terms
    moved to the other side, so no integer array of the full shape is made.
    """
    mins, maxs = [], []
    for a in lows:
        b = a + step
        sq_a, sq_b = a * a, b * b
        mins.append(np.where((a <= 0) & (b >= 0), 0, np.minimum(sq_a, sq_b)))
        maxs.append(np.maximum(sq_a, sq_b))
    band = np.less_equal.outer(functools.reduce(np.add.outer, mins[:-1], 0), math.floor(thr) - mins[-1])
    band &= np.greater_equal.outer(functools.reduce(np.add.outer, maxs[:-1], 0), math.ceil(thr) - maxs[-1])
    return band


@functools.lru_cache(maxsize=4)
def _sphere_band(spec: GridSpec, r: Fraction) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only grid indices of the cells the radius-r sphere crosses, axis
    by axis, and their successor table.

    The band is a (dim, n) array, row a holding the axis-a index of each
    of the n band cells, in lexicographic order of the cells: one
    contiguous row per axis, so `_top_cells` gathers an axis's centers in
    one pass.  Row a of the successor table holds, for each band cell, the
    index of its +1 neighbour along axis a, or n where that neighbour is
    not in the band; `_top_cells` counts adjacent kept cells through it.
    Computed once per (grid, radius) and shared by every caller.  Four
    entries cover the distinct bands of one `verify --full`: the 2-D and
    3-D lifts, and the unit sphere that the Smith cone and the Alexander
    audit share.  The mask is exact in int64 when its own bound
    dim * u_max**2 stays below 2**62, and uses Python ints otherwise.  The
    cache keeps its bands for the life of the process, so both arrays are
    stored at the narrowest unsigned dtype that holds them: the indices at
    that of the longest axis (uint8 on every audit's grid), the successor
    table at that of the cell count.  On the 68**3 lift grid, whose band
    has 19,256 cells, that is 3 x 19,256 bytes (57,768) of indices and
    3 x 19,256 uint16 entries (115,536 bytes) of successors.
    """
    gs = _GridScale(spec)
    shape = gs.shape
    mask = _band_mask(gs.lows(spec.dim * gs.u_max**2 >= _INT64_SAFE), gs.step, r * r * gs.scale * gs.scale)
    at = mask.nonzero()
    n = len(at[0])
    succ = np.full((spec.dim, n), n, dtype=np.min_scalar_type(n))
    if n:
        # The cells are in lexicographic order, so their grid keys ascend.
        keys = np.ravel_multi_index(at, shape)
        stride = 1
        for a in reversed(range(spec.dim)):
            after = keys + stride
            pos = keys.searchsorted(after)
            there = (at[a] < shape[a] - 1) & (keys.take(pos, mode="clip") == after)
            succ[a, there] = pos[there]
            stride *= shape[a]
    band = np.empty((spec.dim, n), dtype=np.min_scalar_type(max(shape) - 1))
    for row, index in zip(band, at):
        row[:] = index
    band.flags.writeable = succ.flags.writeable = False
    return band, succ


def _top_cells(
    spec: GridSpec, polys: Sequence[QuadraticPoly], radius=None, upper: bool = False
) -> Tuple[np.ndarray, int]:
    """Grid indices, one cell per row in lexicographic order, of the candidate
    cells where every polynomial is >= 0 at the center, and their run axis.

    The candidates are the whole box or, given a radius, the cells the
    radius sphere crosses; with `upper` only the band cells whose last
    index is at least floor((m - 1) / 2), m the cell count of the last
    axis.  The band is computed once per (grid, radius) by `_sphere_band`,
    shared read-only and kept at a narrow dtype; the indices returned are
    a fresh intp array with one contiguous column per axis, the layout
    `np.argwhere` gives the whole box.  Each center is tested exactly,
    as the sign of an integer `_ScaledPoly` value at the integer-scaled
    center, in one array pass: over the whole box by broadcasting per-axis
    centers, over the band at its cells.  The arrays are int64 when a
    bound computed first shows that no value reaches 2**62, and hold
    Python ints otherwise.  A box above MAX_GRID_CELLS is rejected before
    any array is allocated or any band is looked up.

    The run axis is -1, the last axis, on the whole box.  On a band it is
    the axis along which the most pairs of kept cells are adjacent, the
    highest one among ties, counted through the band's successor table:
    closure and `betti` work run by run, and runs along it are the longest
    on average.
    """
    for p in polys:
        if p.k != spec.dim:
            raise ValueError(f"polynomial has {p.k} variables, grid has {spec.dim} axes")
    r = None if radius is None else _sphere_radius(radius, spec)
    shape = spec.shape
    size = math.prod(shape)
    if size > MAX_GRID_CELLS:
        raise ValueError(f"grid has {size} cells, above the limit of {MAX_GRID_CELLS}")
    gs = _GridScale(spec)
    evals = [_ScaledPoly(p, gs.scale) for p in polys]
    # every center is at most u_max, and every value at most a magnitude
    wide = gs.u_max >= _INT64_SAFE or any(e.magnitude(gs.u_max) >= _INT64_SAFE for e in evals)
    centers = gs.lows(wide, gs.step // 2)
    if r is None:
        u = np.ix_(*centers)
        keep = np.ones(shape, dtype=bool)
    else:
        band, succ = _sphere_band(spec, r)
        if upper:
            rows = (band[-1] >= (shape[-1] - 1) // 2).nonzero()[0]
            cand = band.take(rows, axis=1)
        else:
            rows, cand = slice(None), band
        u = [c.take(ix) for c, ix in zip(centers, cand)]
        keep = np.ones(cand.shape[1], dtype=bool)
    for e in evals:
        keep &= e.values(u) >= 0
    if r is None:
        return np.argwhere(keep), -1
    # The band cells kept; a last False stands for the neighbours outside the band.
    after = np.zeros(band.shape[1] + 1, dtype=bool)
    after[:-1][rows] = keep
    kept = after.nonzero()[0]
    pairs = [np.count_nonzero(after.take(s.take(kept))) for s in succ]
    # intp keeps the codes 2*j + 1 of a uint8 band from wrapping.
    return band.take(kept, axis=1).astype(np.intp).T, max(range(spec.dim), key=lambda a: (pairs[a], a))


def _build(spec: GridSpec, polys: Sequence[QuadraticPoly], radius=None) -> CubicalComplex:
    """Face closure of the cells `_top_cells` keeps, with the run axis it picks."""
    cells, run_axis = _top_cells(spec, polys, radius)
    return close_under_faces(2 * cells + 1, ambient_dim=spec.dim, run_axis=run_axis)


def grid_complex(system: Sequence[QuadraticPoly], spec: GridSpec) -> CubicalComplex:
    """Face closure of every grid cell whose center satisfies all inequalities.

    Membership is P >= 0 for every polynomial of the system, decided
    exactly; the empty system keeps the whole box.  Cube coordinates are
    grid units (cell indices), not box coordinates.
    """
    return _build(spec, system)


def sphere_zero_complex(
    forms: Sequence[QuadraticForm], radius, spec: GridSpec, tau
) -> CubicalComplex:
    """Cubical band around the common zero set of forms on a sphere.

    Keeps the sphere-crossing cells whose center c has |Q(c)| <= tau for
    every form; tau should scale with the resolution (the audits default
    to twice the cell width).
    """
    return _build(spec, _zero_polys(forms, tau), radius)


def sphere_zero_split(forms: Sequence[QuadraticForm], radius, spec: GridSpec,
                      tau) -> Tuple[CubicalComplex, CubicalComplex]:
    """`sphere_zero_complex(forms, radius, spec, tau)` and its closed complement
    on the sphere, the face closure of the band cells whose closed cube misses
    every kept cell.  Two closed grid cubes meet iff their indices differ by at
    most 1 on every axis, so the kept cells are marked on the grid padded by
    one, and the marks are grown by one step along each axis in turn.
    """
    cells, run_axis = _top_cells(spec, _zero_polys(forms, tau), radius)
    near = np.zeros([n + 2 for n in spec.shape], dtype=bool)
    near[tuple(cells.T + 1)] = True
    # Along each axis the padding is empty until this axis is grown, so no
    # mark rolls around the end.
    for axis in range(spec.dim):
        near = near | np.roll(near, 1, axis) | np.roll(near, -1, axis)
    # intp keeps the padding offset of a uint8 band from wrapping.
    band = _sphere_band(spec, _sphere_radius(radius, spec))[0].astype(np.intp)
    rest = band[:, ~near[tuple(band + 1)]]
    return (close_under_faces(2 * cells + 1, ambient_dim=spec.dim, run_axis=run_axis),
            close_under_faces(2 * rest.T + 1, ambient_dim=spec.dim))


def _zero_polys(forms: Sequence[QuadraticForm], tau) -> List[QuadraticPoly]:
    """Polynomials whose common nonnegative set is |Q| <= tau for every form Q."""
    t = positive(tau, "tau")
    if not forms:
        raise ValueError("need at least one form")
    # |Q(c)| <= tau  <=>  tau - Q(c) >= 0 and tau + Q(c) >= 0
    return [QuadraticPoly.make(f.n, quad=gram, const=t)
            for f in forms for gram in ([[-a for a in row] for row in f.gram], f.gram)]


def sphere_band_complex(radius, spec: GridSpec) -> CubicalComplex:
    """Face closure of every grid cell the radius-r sphere crosses."""
    return _build(spec, (), radius)


@functools.lru_cache(maxsize=4)
def _truncation(e: Fraction, dim: int) -> QuadraticPoly:
    """The projective-ball truncation (1/e)^2 * c_dim^2 - |c_1..c_{dim-1}|^2,
    built once per (eps, grid dimension)."""
    diag = [-1] * (dim - 1) + [1 / e**2]
    return QuadraticPoly.make(dim, quad=[[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)])


def _lift_system(polys: Sequence[QuadraticPoly], eps, dim: int) -> Tuple[List[QuadraticPoly], Fraction]:
    """The lift's system, the projective-ball truncation ahead of `polys`, and its radius 2/eps."""
    e = positive(eps, "eps")
    return [_truncation(e, dim), *polys], 2 / e


def sphere_region_complex(
    polys: Sequence[QuadraticPoly], eps, spec: GridSpec
) -> CubicalComplex:
    """Lift of an inequality system onto the sphere of radius 2/eps.

    The grid must be (k+1)-dimensional for polynomials in k+1 variables.
    A sphere-crossing cell is kept iff its center c satisfies every
    P(c) >= 0 and the projective-ball truncation
    |c_1..c_k|^2 <= (1/eps)^2 * c_{k+1}^2, which keeps the region off the
    equator and makes each polar copy correspond to the affine set
    truncated to the ball of radius 1/eps.
    """
    system, r = _lift_system(polys, eps, spec.dim)
    return _build(spec, system, r)


def sphere_region_cap(
    polys: Sequence[QuadraticPoly], eps, spec: GridSpec
) -> Optional[CubicalComplex]:
    """The closed upper polar cap of `sphere_region_complex(polys, eps, spec)`
    when that lift is the cap plus its point reflection with disjoint
    closures, and None otherwise.

    The cap is the face closure of the lift's top cells above x_{k+1} = 0,
    with the lift's run axis; every Betti number and the Euler
    characteristic of the lift are then twice the cap's.  Only the band
    cells with last index at least floor((m - 1) / 2), m the cell count of
    the last axis, are evaluated.  See the module docstring for the three
    conditions and the proof.
    """
    system, r = _lift_system(polys, eps, spec.dim)
    if any(lo != -hi for lo, hi in spec.box) or any(any(p.lin) for p in system):
        return None
    cells, run_axis = _top_cells(spec, system, r, upper=True)
    # The layers whose closed cubes meet x_{k+1} = 0 are floor((m - 1) / 2) .. floor(m / 2).
    if np.any(cells[:, -1] <= spec.shape[-1] // 2):
        return None
    return close_under_faces(2 * cells + 1, ambient_dim=spec.dim, run_axis=run_axis)
