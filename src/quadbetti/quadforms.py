"""Exact quadratic polynomials and forms, plus grid approximation of their sets.

All coefficients are `fractions.Fraction`, read by `parse_rational`, which
refuses floats everywhere so that membership tests and sign evaluations
are exact.  The one deliberate exception is `ci_probe`, a floating-point
diagnostic that no audit calls: the Smith audit checks the smoothness of
its intersection exactly (`is_nonsingular_quadric`, `check_smooth_pencil`).

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
import numbers
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .homology import CubicalComplex, close_under_faces

__all__ = [
    "parse_rational",
    "format_rational",
    "QuadraticPoly",
    "QuadraticForm",
    "homogenize",
    "dehomogenize",
    "random_pd_form",
    "is_nonsingular_quadric",
    "check_smooth_pencil",
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

_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?")


def parse_rational(value) -> Fraction:
    """Read an exact input: a Fraction as it is, any other rational number
    (numpy ints too) or a "p/q" string; floats, bools, decimal strings and
    every other type are refused, in library calls as on the command line."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected rational, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, numbers.Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, float):
        raise TypeError(f"floats are not exact rationals: {value!r}")
    if isinstance(value, str):
        s = value.strip()
        if not _RATIONAL_RE.fullmatch(s):
            raise ValueError(f"not a decimal-free rational string: {value!r}")
        return Fraction(s)
    raise TypeError(f"cannot parse rational from {type(value).__name__}")


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _positive(value, name: str) -> Fraction:
    q = parse_rational(value)
    if q <= 0:
        raise ValueError(f"{name} must be positive, got {q}")
    return q


def _symmetric_matrix(rows, n: int) -> Tuple[Tuple[Fraction, ...], ...]:
    mat = tuple(tuple(parse_rational(x) for x in row) for row in rows)
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ValueError(f"expected a {n}x{n} matrix")
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i][j] != mat[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    return mat


def _zeros(n: int) -> Tuple[Fraction, ...]:
    return tuple(Fraction(0) for _ in range(n))


@dataclass(frozen=True)
class QuadraticPoly:
    """Polynomial of total degree <= 2 in k variables.

    Stored as x^T quad x + lin . x + const with `quad` symmetric, so the
    coefficient of x_i x_j (i != j) is 2 * quad[i][j].
    """

    k: int
    quad: Tuple[Tuple[Fraction, ...], ...]
    lin: Tuple[Fraction, ...]
    const: Fraction

    @classmethod
    def make(cls, k: int, quad=None, lin=None, const=0) -> "QuadraticPoly":
        k = int(k)
        if k < 0:
            raise ValueError("variable count must be nonnegative")
        qm = _symmetric_matrix(quad, k) if quad is not None else tuple(_zeros(k) for _ in range(k))
        lv = tuple(parse_rational(x) for x in lin) if lin is not None else _zeros(k)
        if len(lv) != k:
            raise ValueError(f"linear part must have {k} entries")
        return cls(k=k, quad=qm, lin=lv, const=parse_rational(const))

    def evaluate(self, point: Sequence) -> Fraction:
        pt = [parse_rational(x) for x in point]
        if len(pt) != self.k:
            raise ValueError(f"expected {self.k} coordinates, got {len(pt)}")
        total = self.const
        for i in range(self.k):
            xi = pt[i]
            row = self.quad[i]
            if row[i]:
                total += row[i] * xi * xi
            for j in range(i + 1, self.k):
                if row[j]:
                    total += 2 * row[j] * xi * pt[j]
            if self.lin[i]:
                total += self.lin[i] * xi
        return total

    def blend(self, other: "QuadraticPoly", t) -> "QuadraticPoly":
        """(1 - t) * self + t * other, each coefficient formed once as one Fraction.

        With t = u / v, the coefficient blended from a and b is
        ((v - u) a_n b_d + u b_n a_d) / (v a_d b_d), reduced once, and the
        lower triangle of `quad` mirrors the upper one.
        """
        if other.k != self.k:
            raise ValueError("variable count mismatch")
        t = parse_rational(t)
        u, v = t.numerator, t.denominator
        w = v - u

        def mix(a: Fraction, b: Fraction) -> Fraction:
            return Fraction(w * a.numerator * b.denominator + u * b.numerator * a.denominator,
                            v * a.denominator * b.denominator)

        k = self.k
        quad = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                quad[i][j] = quad[j][i] = mix(self.quad[i][j], other.quad[i][j])
        return QuadraticPoly(k, tuple(map(tuple, quad)), tuple(map(mix, self.lin, other.lin)),
                             mix(self.const, other.const))


@dataclass(frozen=True)
class QuadraticForm:
    """Homogeneous degree-2 polynomial x^T gram x with symmetric Gram matrix."""

    n: int
    gram: Tuple[Tuple[Fraction, ...], ...]

    @classmethod
    def make(cls, n: int, gram) -> "QuadraticForm":
        n = int(n)
        if n < 1:
            raise ValueError("variable count must be >= 1")
        return cls(n=n, gram=_symmetric_matrix(gram, n))

    def evaluate(self, point: Sequence) -> Fraction:
        return self.as_poly().evaluate(point)

    def as_poly(self) -> QuadraticPoly:
        return QuadraticPoly(self.n, self.gram, _zeros(self.n), Fraction(0))

    def scaled(self, factor) -> "QuadraticForm":
        f = parse_rational(factor)
        return QuadraticForm(self.n, tuple(tuple(f * a for a in row) for row in self.gram))

    def __rmul__(self, factor) -> "QuadraticForm":
        return self.scaled(factor)


def homogenize(p: QuadraticPoly) -> QuadraticForm:
    """Degree-2 homogenization with one extra variable.

    The quadratic part is kept, linear terms pick up the new variable and
    the constant becomes its square, so restricting the new variable to 1
    recovers the input polynomial.
    """
    k = p.k
    rows = []
    for i in range(k):
        rows.append(tuple(p.quad[i]) + (p.lin[i] / 2,))
    rows.append(tuple(b / 2 for b in p.lin) + (p.const,))
    return QuadraticForm(k + 1, tuple(rows))


def dehomogenize(f: QuadraticForm) -> QuadraticPoly:
    """Substitute 1 for the last variable; inverse of `homogenize`."""
    n = f.n
    if n < 1:
        raise ValueError("form must have at least one variable")
    k = n - 1
    quad = tuple(tuple(f.gram[i][j] for j in range(k)) for i in range(k))
    lin = tuple(2 * f.gram[i][k] for i in range(k))
    return QuadraticPoly(k, quad, lin, f.gram[k][k])


def random_pd_form(n: int, seed: int) -> QuadraticForm:
    """Seeded positive definite form with exact rational (integer) coefficients.

    Built as M^T M + I for a random integer matrix M, which is positive
    definite by construction; deterministic per seed.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = random.Random(seed)
    m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    gram = [
        [
            Fraction(sum(m[r][i] * m[r][j] for r in range(n)) + (1 if i == j else 0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return QuadraticForm(n, tuple(tuple(row) for row in gram))


def _det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free-enough Gaussian elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        pval = m[col][col]
        det *= pval
        for r in range(col + 1, n):
            f = m[r][col] / pval
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def is_nonsingular_quadric(f: QuadraticForm) -> bool:
    """A quadric hypersurface is nonsingular iff its Gram matrix is invertible."""
    return _det(f.gram) != 0


def _poly_rem(f: List[Fraction], g: List[Fraction]) -> List[Fraction]:
    """Remainder of f by g; coefficients lowest degree first, no trailing zeros."""
    r = list(f)
    while len(r) >= len(g):
        q, shift = r[-1] / g[-1], len(r) - len(g)
        for m, c in enumerate(g):
            r[shift + m] -= q * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _poly_text(p: Sequence[Fraction]) -> str:
    terms = [(m, c) for m, c in enumerate(p) if c][::-1]
    text = ""
    for m, c in terms:
        coef = format_rational(abs(c)) if abs(c) != 1 or m == 0 else ""
        power = "" if m == 0 else "t" if m == 1 else f"t^{m}"
        sign = ("-" if c < 0 else "") if not text else (" - " if c < 0 else " + ")
        text += sign + coef + ("*" if coef and power else "") + power
    return text


def check_smooth_pencil(a: QuadraticForm, b: QuadraticForm) -> None:
    """Raise ValueError unless V(A, B) is a smooth codimension-2 complete intersection.

    Segre's criterion: for nonsingular A and B, the intersection of the two
    quadrics is smooth of codimension 2 iff f(t) = det(A + tB) has n distinct
    complex roots (M. Reid, *The complete intersection of two or more
    quadrics*, PhD thesis, Cambridge 1972).  Since det B != 0, f has degree n
    and the pencil has no singular member at t = infinity, so the test is
    that f is squarefree over Q: gcd(f, f') is a constant.  f is interpolated
    exactly from its values at t = 0..n (Newton's divided differences) and
    the gcd is taken by Euclid on Fractions.  The error names the repeated
    root, or the polynomial whose roots the repeated roots are.
    """
    n = a.n
    if b.n != n:
        raise ValueError("variable count mismatch")
    coef = [
        _det([[x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(a.gram, b.gram)])
        for t in range(n + 1)
    ]
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / level
    # Newton form sum_i coef[i] * t (t - 1) ... (t - i + 1), expanded by Horner.
    f = [coef[n]]
    for i in range(n - 1, -1, -1):
        f = [coef[i] - i * f[0]] + [f[m - 1] - i * f[m] for m in range(1, len(f))] + [f[-1]]
    if f[0] == 0 or f[-1] == 0:  # det A, det B
        raise ValueError("singular quadric rejected (Gram matrix not invertible)")
    g, h = f, [m * c for m, c in enumerate(f)][1:]
    while h:
        g, h = h, _poly_rem(g, h)
    if len(g) > 1:
        g = [c / g[-1] for c in g]
        where = (f"the repeated root t = {format_rational(-g[0])}" if len(g) == 2
                 else f"repeated roots, those of {_poly_text(g)}")
        raise ValueError(f"singular intersection rejected: det(A + tB) = {_poly_text(f)} "
                         f"has {where}")


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
        res = _positive(self.resolution, "resolution")
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
        h = _positive(resolution, "resolution")
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
    r = _positive(radius, "radius")
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
    t = _positive(tau, "tau")
    if not forms:
        raise ValueError("need at least one form")
    # |Q(c)| <= tau  <=>  tau - Q(c) >= 0 and tau + Q(c) >= 0
    return [QuadraticPoly(g.n, g.gram, _zeros(g.n), t) for f in forms for g in (-1 * f, f)]


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
    e = _positive(eps, "eps")
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
