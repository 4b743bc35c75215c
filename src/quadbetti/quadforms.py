"""Grid complexes of the sets cut out by the exact quadratics of `exact`.

Their `fractions.Fraction` coefficients are read by `parse_rational`, which
refuses floats everywhere so that membership tests and sign evaluations
are exact.  The one deliberate exception is `ci_probe`, a floating-point
diagnostic that no audit calls: the Smith audit checks the smoothness of
its intersection exactly (`exact.is_nonsingular_quadric`, `exact.check_smooth_pencil`).

Grid complexes use the center-point rule.  Every builder is a list of
quadratics, and a candidate top cell is kept iff each of them is >= 0 at
its center; the sign is decided exactly, as the sign of an integer value
at the integer-scaled center.  The candidates are the whole box, the
sphere band: the cells whose closed cube the sphere actually crosses
(exact interval arithmetic on the squared radius), which keeps the band
free of pinholes at any resolution, or a lift's band cut by the
projective-ball truncation (1/eps)^2 x_{k+1}^2 - |x_1..x_k|^2 >= 0 at the
center.  `grid_complex` passes its system, `sphere_band_complex` nothing,
`sphere_zero_complex` the pair tau - Q and tau + Q per form (so
|Q| <= tau), and `sphere_region_complex` its system.  `sphere_zero_split`
returns `sphere_zero_complex`'s set together with its closed complement on
the sphere, the band cells whose closed cube misses every kept cell.

The builder decides all candidates in one numpy array pass: the whole box
by broadcasting per-axis centers, the band as a mask from per-axis min and
max squares and then the polynomials at its cells.  A sphere builder takes
a cell width, not a grid: every sphere set reads one read-only cache entry
per (dimension, radius, width, eps or None) in a process (`_candidates`),
which builds and holds its grid, the box [-(r + 2 width), r + 2 width]^dim
snapped up to a multiple of the width, so the box contains the sphere and
is symmetric about 0 by construction.  The entry holds that spec, the band,
axis-major, one contiguous row of cell indices per axis at the narrowest
unsigned dtype that holds them, its successor table, the candidate rows and
their integer centers, and the cap's row count.  With no eps the candidates
are every band row; a lift's are the band rows the truncation keeps, the
upper polar cap's first, so the truncation is evaluated once per entry.  A
build evaluates only its own polynomials, on the cached centers.  On the
68**3 lift grid an entry keeps 17,680 rows, in 459,680 bytes of rows and
centers; on the unit-sphere grid of the Smith and Alexander audits it keeps
all 1,184 band rows, in 2,368 + 28,416 bytes.  A spec is one value with its
integer view: its width check derives, in int arithmetic alone, the scale,
an even multiple of every denominator, the scaled cell width, the scaled
lower bound and cell count per axis, and the bound u_max on every scaled
cell bound and center.  The view fixes box and resolution exactly, so a
spec's equality and hash read it, in ints, and every build and cache miss
reads it from the spec.  Each integer kernel picks its width from its own
bound, taken before it forms a value, and runs the same array code in int64
or on Python ints (dtype=object): `GridSpec._lows` forms per-axis cell
bounds and centers in int64 unless u_max, or its caller's bound on the
values formed from them, reaches 2**62, and an evaluator (`_ScaledPoly`)
casts its inputs to Python ints, whatever their dtype, when a partial sum
of its terms at points up to u_max can.  So cached int64 centers serve
every polynomial, no caller picks an integer width, and no float enters.
Every builder closes its kept cells with `homology.close_grid`, in the
grid's own frame.  `_sphere_cells` returns the grid's shape, the grid
indices of the kept band cells as a (dim, n) array at the band's dtype and
their run axis, the axis along which the most of them are adjacent, and the
sphere builders close them with runs along that axis.  The box is closed
from its kept-cell mask (`_box_mask`), whole or folded, with runs along the
last axis.  No code array is formed.

An undeformed lift is two antipodal copies of one set.
`sphere_region_block` returns the closed upper polar cap of
`sphere_region_complex(polys, eps, width, dim)`, the face closure of its
top cells above x_{k+1} = 0, and 2 copies when both of these hold, each
checked exactly, and otherwise the whole lift and 1 copy:

1. no polynomial has a linear part, so P(-c) = P(c) at every
   integer-scaled center c (the truncation has none by construction);
2. no lift candidate, a band cell the truncation keeps, lies in the layers
   floor((m - 1) / 2) .. floor(m / 2) of the m cells of the last axis,
   whose closed cubes meet x_{k+1} = 0.

Grid and eps alone decide condition 2, once per `_candidates` entry,
whose cap count is None unless it holds; condition 1 is decided per
build.

Proof that the lift is then the cap plus its point reflection, with
disjoint closures.  The box is symmetric about 0 on every axis by
construction, so the reflection j -> n - 1 - j on every axis maps the
grid onto itself and negates every center.  It leaves the band
unchanged, since `_band_mask` reads only per-axis minimum and maximum
squares, and it keeps the sign of every polynomial and of the truncation
(1).  So the kept top cells are symmetric; one in the middle layers would
be a candidate, so by (2) they split into those above the middle layers
and their reflections below, whose closed cubes lie in x_{k+1} > 0 and
x_{k+1} < 0.  The homology of a disjoint union adds up, so every Betti
number of the lift and its Euler characteristic are twice the cap's.  No
two kept cells are adjacent across the middle layers, so the adjacent
pairs that pick the run axis halve, and the cap keeps the lift's run axis.
Since (2) is decided per entry, a build decides the cap before it
evaluates its own polynomials, once, on the cap's rows alone, and a cap
costs about half a lift in closure and ranking.

A box grid folds the same way, read off its kept-cell mask alone, with no
float and no look at the polynomials.  `grid_block` takes `grid_complex`'s
mask and, for each axis in turn, with m its current cell count, keeps the
layers 0 .. floor(m / 2) - 1 and doubles its count of copies when no kept
cell lies in the layers floor((m - 1) / 2) .. floor(m / 2), whose closed
cubes meet the mirror plane, and the mask equals its image under the
reflection j -> m - 1 - j.  Proof that the box is then the block plus its
mirror image: the reflection maps the grid onto itself cube by cube, so the
two halves' closures are isomorphic; the lower kept cubes lie at grid
coordinates <= floor((m - 1) / 2) and the upper ones >= floor(m / 2) + 1,
so the closures are disjoint; and the Betti numbers and Euler
characteristic of a disjoint union add.  Each fold is tested on the mask
the earlier ones left, which stays mirror-symmetric along every later axis,
so by induction the box's vector is `copies` times the block's.  The
test reads the mask alone: the products grids X_i (X_i - a) >= 0 on
[-1, 2]^k at width 1/4 fold to one orthant block for every a in
(7/8, 9/8], and a shell pays one middle-slab test per axis.  So both
`grid_block` and `sphere_region_block` return (block, copies), and a caller
ranks the block alone and multiplies its vector by copies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exact import QuadraticForm, QuadraticPoly, parse_rational, positive
from .homology import CubicalComplex, close_grid

__all__ = [
    "CiProbeReport",
    "ci_probe",
    "DeformationParams",
    "GridSpec",
    "grid_block",
    "grid_complex",
    "sphere_zero_complex",
    "sphere_zero_split",
    "sphere_band_complex",
    "sphere_region_complex",
    "sphere_region_block",
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


# Each integer kernel computes in int64 when its own bound keeps every value it
# forms below this in absolute value, and otherwise in arrays of Python ints
# (dtype=object): `GridSpec._lows` from u_max or its caller's bound,
# `_ScaledPoly.values` from its terms at u_max.
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned rational box split into cells of one rational width.

    A grid needs at least one axis, and every box width must be an integer
    multiple of the resolution.  Cell j on an axis covers
    [lo + j*h, lo + (j+1)*h]; the membership rule is the center point.
    """

    box: Tuple[Tuple[Fraction, Fraction], ...] = field(compare=False)
    resolution: Fraction = field(compare=False)
    # The integer view, derived by the width check in int arithmetic: every
    # cell bound and center times `scale`, an even multiple of every
    # denominator, is an int.  Cell j on axis a covers
    # [lo[a] + j*step, lo[a] + (j+1)*step] / scale, and shape[a] cells span
    # the axis.  These four fix box and resolution exactly, so eq and hash
    # read them, all in ints; u_max bounds every scaled cell bound and
    # center, and r * scale for a sphere in the box.
    scale: int = field(init=False, repr=False)
    step: int = field(init=False, repr=False)
    lo: Tuple[int, ...] = field(init=False, repr=False)
    shape: Tuple[int, ...] = field(init=False, repr=False)
    u_max: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.box:
            raise ValueError("a grid needs at least one axis")
        box = tuple((parse_rational(lo), parse_rational(hi)) for lo, hi in self.box)
        res = positive(self.resolution, "resolution")
        scale = 2 * math.lcm(res.denominator, *(b.denominator for axis in box for b in axis))
        step = res.numerator * (scale // res.denominator)
        lows, shape, u_max = [], [], 0
        for lo, hi in box:
            if hi <= lo:
                raise ValueError(f"empty axis interval [{lo}, {hi}]")
            a, b = (x.numerator * (scale // x.denominator) for x in (lo, hi))
            cells, rest = divmod(b - a, step)
            if rest:
                raise ValueError(
                    f"axis width {hi - lo} is not a multiple of resolution {res}"
                )
            lows.append(a)
            shape.append(cells)
            u_max = max(u_max, -a, b)
        for name, value in (("box", box), ("resolution", res), ("scale", scale), ("step", step),
                            ("lo", tuple(lows)), ("shape", tuple(shape)), ("u_max", u_max)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.box)

    def center(self, jvec: Sequence[int]) -> Tuple[Fraction, ...]:
        h = self.resolution
        return tuple(
            lo + (2 * j + 1) * h / 2 for (lo, _), j in zip(self.box, jvec)
        )

    def _lows(self, offset: int = 0, bound: int = 0) -> List[np.ndarray]:
        """Scaled lower cell bounds per axis plus `offset`: int64 unless u_max, or
        `bound` on the values the caller forms from them, reaches 2**62, and
        Python ints otherwise.  The centers are the lower bounds plus step // 2.
        """
        dtype = object if max(self.u_max, bound) >= _INT64_SAFE else np.int64
        return [lo + offset + self.step * np.arange(n, dtype=dtype) for lo, n in zip(self.lo, self.shape)]

    @staticmethod
    def symmetric(half_width, resolution, dim: int) -> "GridSpec":
        """Box [-H, H]^dim with H snapped up to a multiple of the resolution."""
        h = positive(resolution, "resolution")
        half = parse_rational(half_width)
        n = -((-half) // h)  # ceil division for Fractions
        half = n * h
        return GridSpec(box=((-half, half),) * dim, resolution=h)


class _ScaledPoly:
    """Sign-faithful integer evaluator: a positive multiple of P(u/scale) at
    integer points u of a grid spec's integer view, |u_i| <= u_max."""

    def __init__(self, poly: QuadraticPoly, spec: GridSpec):
        scale = spec.scale
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
        # Whether a partial sum of `values` can reach 2**62 at points with |u_i| <= u_max.
        self.wide = (abs(self.const_term) + sum(abs(a) for _, _, a in qt) * spec.u_max**2
                     + sum(abs(b) for _, b in self.lin_terms) * spec.u_max) >= _INT64_SAFE

    def values(self, u: Sequence[np.ndarray]) -> np.ndarray:
        """Values at the points whose coordinate arrays `u` broadcast together,
        computed on Python ints when `wide`, whatever the arrays' dtype."""
        if self.wide:
            u = [x.astype(object) for x in u]
        total = self.const_term
        for i, j, a in self.quad_terms:
            total = total + a * u[i] * u[j]
        for i, b in self.lin_terms:
            total = total + b * u[i]
        return total


# Largest grid box, in top cells, that a builder accepts, checked before any
# array is allocated.  The largest the audits and tests build is the products-k6
# box, whose 12**6 = 2,985,984-cell mask, 71% of it, is formed before the fold.
MAX_GRID_CELLS = 2**22


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


def _band(spec: GridSpec, r: Fraction) -> Tuple[np.ndarray, np.ndarray]:
    """Grid indices of the cells the radius-r sphere crosses, axis by axis,
    and their successor table.

    The band is a (dim, n) array, row a holding the axis-a index of each
    of the n band cells, in lexicographic order of the cells: one
    contiguous row per axis, so an axis's centers are gathered in one pass.
    It is never empty: every `_candidates` grid contains its sphere, and
    the cell holding the point (r, 0, ..., 0) passes `_band_mask`, so n >= 1.
    Row a of the successor table holds, for each band cell, the index of
    its +1 neighbour along axis a, or n where that neighbour is not in the
    band; `_band_tops` counts adjacent kept cells through it.  The mask is
    formed from the spec's integer view, exact in int64 when its own bound
    dim * u_max**2 stays below 2**62, and on Python ints otherwise.
    `_candidates` keeps both arrays for the life of the process, so they
    are stored at the narrowest unsigned dtype that holds them: the indices
    at that of the longest axis (uint8 on every audit's grid), the successor
    table at that of the cell count.  On the 68**3 lift grid, whose band has
    19,256 cells, that is 3 x 19,256 bytes (57,768) of indices and
    3 x 19,256 uint16 entries (115,536 bytes) of successors.
    """
    shape = spec.shape
    mask = _band_mask(spec._lows(bound=spec.dim * spec.u_max**2), spec.step, r * r * spec.scale * spec.scale)
    at = mask.nonzero()
    n = len(at[0])
    succ = np.full((spec.dim, n), n, dtype=np.min_scalar_type(n))
    # The cells are in lexicographic order, so their grid keys ascend.
    keys = np.ravel_multi_index(at, shape)
    stride = 1
    for a in reversed(range(spec.dim)):
        after = keys + stride
        pos = keys.searchsorted(after)
        there = (at[a] < shape[a] - 1) & (keys.take(pos, mode="clip") == after)
        succ[a, there] = pos[there]
        stride *= shape[a]
    return np.array(at, dtype=np.min_scalar_type(max(shape) - 1)), succ


def _check_axes(polys: Sequence[QuadraticPoly], dim: int) -> None:
    """A build's first check: every polynomial has one variable per grid axis."""
    for p in polys:
        if p.k != dim:
            raise ValueError(f"polynomial has {p.k} variables, grid has {dim} axes")


def _check_cells(spec: GridSpec) -> None:
    """Refuses a grid of more than MAX_GRID_CELLS cells, before any array is allocated."""
    size = math.prod(spec.shape)
    if size > MAX_GRID_CELLS:
        raise ValueError(f"grid has {size} cells, above the limit of {MAX_GRID_CELLS}")


@functools.lru_cache(maxsize=4)
def _candidates(dim: int, r: Fraction, width: Fraction, e: Optional[Fraction]
                ) -> Tuple[GridSpec, np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[int]]:
    """The grid of a set on the radius-r sphere in dim variables and its
    read-only candidate cells, once per (dim, radius, width, eps or None)
    in a process, and shared by every builder.

    On a miss the grid is formed as `GridSpec.symmetric(r + 2 * width,
    width, dim)`, the box [-(r + 2 width), r + 2 width]^dim snapped up to a
    multiple of the width, and its cell count is checked against
    MAX_GRID_CELLS before `_band` allocates anything; a hit forms no spec.
    Returns that spec; the band and its successor table (`_band`); the
    candidate rows of the band, at the narrowest unsigned dtype: every band
    row in band order when e is None, and otherwise the rows of the lift
    onto the radius-2/e sphere where the projective-ball truncation
    (1/e)^2 * x_dim^2 - |x_1..x_{dim-1}|^2 is >= 0 at the center, the
    upper polar cap's rows, with last index above floor(m / 2), m the last
    axis's cell count, first; their integer-scaled centers as one (dim, n)
    array, int64 unless the grid's own bound u_max reaches 2**62, which
    every evaluator reads whatever its own width; and the cap's row count,
    None when e is None or when a kept row lies in the layers
    floor((m - 1) / 2) .. floor(m / 2) (condition 2 of the module
    docstring).  Four entries cover the three of one `verify --full`: the
    2-D and 3-D lifts and the unit sphere of the Alexander audit and of the
    Smith audit, which reads the unit entry at every radius, its tau scaled
    by 1/radius.  Every caller passes all four arguments, radius and width
    parsed to Fractions, since `lru_cache` keys a call by the arguments as
    passed; so equal values, however written, read one entry.
    """
    spec = GridSpec.symmetric(r + 2 * width, width, dim)
    _check_cells(spec)
    # The band is built in its own frame, so its mask is freed before the centers are formed.
    band, succ = _band(spec, r)
    axes = spec._lows(spec.step // 2)
    rows, cap = np.arange(band.shape[1]), None
    if e is not None:
        diag = [-1] * (dim - 1) + [1 / e**2]
        quad = [[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
        trunc = _ScaledPoly(QuadraticPoly.make(dim, quad=quad), spec)
        kept = trunc.values([c.take(ix) for c, ix in zip(axes, band)]) >= 0
        m, last = spec.shape[-1], band[-1]
        upper = last > m // 2
        # The kept centers are gathered afresh rather than filtered out of those
        # of the whole band, so the two are never held at once.
        rows = np.concatenate([(kept & upper).nonzero()[0], (kept & ~upper).nonzero()[0]])
        # Condition 2 of the module docstring: no kept row lies in the middle layers.
        if not np.count_nonzero(kept & (last >= (m - 1) // 2) & ~upper):
            cap = np.count_nonzero(kept & upper)
    centers = np.stack([c.take(ix) for c, ix in zip(axes, band.take(rows, axis=1))])
    rows = rows.astype(np.min_scalar_type(band.shape[1]))
    for table in (band, succ, rows, centers):
        table.flags.writeable = False
    return spec, band, succ, rows, centers, cap


def _satisfied(evals: Sequence[_ScaledPoly], u, shape) -> np.ndarray:
    """Mask, of the given shape, of the points `u` where every evaluator is >= 0."""
    keep = np.ones(shape, dtype=bool)
    for e in evals:
        keep &= e.values(u) >= 0
    return keep


def _box_mask(spec: GridSpec, polys: Sequence[QuadraticPoly]) -> np.ndarray:
    """Mask of the box cells where every polynomial is >= 0 at the center, by
    broadcasting per-axis centers.  A box build's checks come first, before
    any array: variable counts, then MAX_GRID_CELLS.  Each polynomial is
    evaluated on the spec's integer view by a `_ScaledPoly`, which picks its
    own width."""
    _check_axes(polys, spec.dim)
    _check_cells(spec)
    return _satisfied([_ScaledPoly(p, spec) for p in polys], np.ix_(*spec._lows(spec.step // 2)), spec.shape)


def _band_tops(band: np.ndarray, succ: np.ndarray, rows, keep: np.ndarray) -> Tuple[np.ndarray, int]:
    """The cells of the band rows `rows` that `keep` marks, as a fresh (dim, n)
    array of grid indices at the band's dtype, and their run axis: the axis
    along which the most pairs of them are adjacent, the highest one among
    ties, counted through the band's successor table.  Closure and `betti`
    work run by run, and runs along it are the longest on average."""
    # The band cells kept; a last False stands for the neighbours outside the band.
    after = np.zeros(band.shape[1] + 1, dtype=bool)
    after[:-1][rows] = keep
    kept = after.nonzero()[0]
    pairs = [np.count_nonzero(after.take(s.take(kept))) for s in succ]
    return band.take(kept, axis=1), max(range(len(succ)), key=lambda a: (pairs[a], a))


def _sphere_cells(polys: Sequence[QuadraticPoly], dim: int, radius, width, e: Optional[Fraction] = None,
                  fold: bool = False) -> Tuple[Tuple[int, ...], np.ndarray, int, int]:
    """The grid shape of `_candidates(dim, radius, width, e)`, the candidates
    where every polynomial is >= 0 at the center, as `_band_tops` returns
    them, and 1; or, when `fold` and the module docstring's conditions hold,
    those of the cap's prefix and 2.  The variable counts, radius and width
    are checked before the cache lookup, and only `polys` are evaluated, on
    the cached centers, by evaluators on the entry's spec."""
    _check_axes(polys, dim)
    spec, band, succ, rows, u, cap = _candidates(dim, positive(radius, "radius"), positive(width, "width"), e)
    copies = 1
    if fold and cap is not None and not any(any(p.lin) for p in polys):
        rows, u, copies = rows[:cap], u[:, :cap], 2
    keep = _satisfied([_ScaledPoly(p, spec) for p in polys], u, len(rows))
    return (spec.shape, *_band_tops(band, succ, rows, keep), copies)


def grid_complex(system: Sequence[QuadraticPoly], spec: GridSpec) -> CubicalComplex:
    """Face closure of every grid cell whose center satisfies all inequalities.

    Membership is P >= 0 for every polynomial of the system, decided
    exactly; the empty system keeps the whole box.  Cube coordinates are
    grid units (cell indices), not box coordinates; runs go along the last axis.
    """
    return close_grid(spec.shape, _box_mask(spec, system))


def _fold(keep: np.ndarray) -> Tuple[np.ndarray, int]:
    """A box mask folded axis by axis (module docstring) and its copy count; mirrors are
    compared only where the middle slab, tested first on a view, is empty."""
    copies = 1
    for axis in range(keep.ndim):
        m = keep.shape[axis]
        lead = (slice(None),) * axis
        if not np.count_nonzero(keep[lead + (slice((m - 1) // 2, m // 2 + 1),)]):
            lower = keep[lead + (slice(m // 2),)]
            if not np.count_nonzero(lower != np.flip(keep, axis)[lead + (slice(m // 2),)]):
                keep, copies = lower, 2 * copies
    return keep, copies


def grid_block(system: Sequence[QuadraticPoly], spec: GridSpec) -> Tuple[CubicalComplex, int]:
    """One mirror block of `grid_complex(system, spec)`, run along the last axis
    as the box is, and `copies`: every Betti number and the Euler characteristic
    of the box are `copies` times the block's (fold and proof: module docstring)."""
    keep, copies = _fold(_box_mask(spec, system))
    return close_grid(keep.shape, keep), copies


def sphere_zero_complex(forms: Sequence[QuadraticForm], radius, width, tau) -> CubicalComplex:
    """Cubical band around the common zero set of forms on a sphere.

    Keeps the cells of width `width` that the radius-r sphere crosses, in
    as many variables as the forms have, whose center c has |Q(c)| <= tau
    for every form; tau should scale with the width (the audits take twice
    the cell width).
    """
    polys = _zero_polys(forms, tau)
    return close_grid(*_sphere_cells(polys, polys[0].k, radius, width)[:3])


def sphere_zero_split(forms: Sequence[QuadraticForm], radius, width,
                      tau) -> Tuple[CubicalComplex, CubicalComplex]:
    """`sphere_zero_complex(forms, radius, width, tau)` and its closed complement
    on the sphere, the face closure of the band cells whose closed cube misses
    every kept cell.  Two closed grid cubes meet iff their indices differ by at
    most 1 on every axis, so the kept cells are marked on the grid padded by
    one, and the marks are grown by one step along each axis in turn.  Each
    complex runs along the axis `_band_tops` picks for its own cells.
    """
    polys = _zero_polys(forms, tau)
    shape, cells, run_axis, _ = _sphere_cells(polys, polys[0].k, radius, width)
    near = np.zeros([n + 2 for n in shape], dtype=bool)
    inner = (slice(1, -1),) * len(shape)
    near[inner][tuple(cells)] = True
    # Along each axis the padding is empty until this axis is grown, so no
    # mark rolls around the end.
    for axis in range(len(shape)):
        near = near | np.roll(near, 1, axis) | np.roll(near, -1, axis)
    _, band, succ, rows, _, _ = _candidates(len(shape), positive(radius, "radius"), positive(width, "width"), None)
    away = _band_tops(band, succ, rows, ~near[inner][tuple(band)])
    return close_grid(shape, cells, run_axis), close_grid(shape, *away)


def _zero_polys(forms: Sequence[QuadraticForm], tau) -> List[QuadraticPoly]:
    """Polynomials whose common nonnegative set is |Q| <= tau for every form Q."""
    t = positive(tau, "tau")
    if not forms:
        raise ValueError("need at least one form")
    # |Q(c)| <= tau  <=>  tau - Q(c) >= 0 and tau + Q(c) >= 0
    return [QuadraticPoly.make(f.n, quad=gram, const=t)
            for f in forms for gram in ([[-a for a in row] for row in f.gram], f.gram)]


def sphere_band_complex(radius, width, dim: int) -> CubicalComplex:
    """Face closure of every cell of width `width` that the radius-r sphere in
    dim variables crosses, on the grid of `_candidates`."""
    return close_grid(*_sphere_cells((), dim, radius, width)[:3])


def sphere_region_complex(polys: Sequence[QuadraticPoly], eps, width, dim: int) -> CubicalComplex:
    """Lift of an inequality system onto the sphere of radius 2/eps.

    The grid has cells of width `width` and dim = k+1 axes, for polynomials
    in k+1 variables.  A sphere-crossing cell is kept iff its center c
    satisfies every P(c) >= 0 and the projective-ball truncation
    |c_1..c_k|^2 <= (1/eps)^2 * c_{k+1}^2, which keeps the region off the
    equator and makes each polar copy correspond to the affine set
    truncated to the ball of radius 1/eps.
    """
    e = positive(eps, "eps")
    return close_grid(*_sphere_cells(polys, dim, 2 / e, width, e)[:3])


def sphere_region_block(polys: Sequence[QuadraticPoly], eps, width, dim: int) -> Tuple[CubicalComplex, int]:
    """One antipodal block of `sphere_region_complex(polys, eps, width, dim)` and
    `copies`: the lift's Betti numbers and Euler characteristic are `copies`
    times the block's.  The block is the closed upper polar cap, with the
    lift's run axis, and copies 2 when the module docstring's conditions hold,
    tested before `polys` are evaluated; otherwise the whole lift, and 1."""
    e = positive(eps, "eps")
    shape, cells, run_axis, copies = _sphere_cells(polys, dim, 2 / e, width, e, fold=True)
    return close_grid(shape, cells, run_axis), copies
