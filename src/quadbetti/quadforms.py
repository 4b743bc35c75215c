"""Exact quadratic polynomials and forms, plus grid approximation of their sets.

All coefficients are `fractions.Fraction`; floats are rejected everywhere
(including the text format) so that membership tests and sign evaluations
are exact.  The one deliberate exception is `ci_probe`, a floating-point
diagnostic whose verdicts never feed exact PASS / VIOLATION logic.

Grid complexes use the center-point rule: a top-dimensional cell belongs
to a system of inequalities iff its center satisfies every one of them
under exact rational evaluation.  Sphere bands consist of the cells whose
closed cube the sphere actually crosses (exact interval arithmetic on the
squared radius), which keeps the band free of pinholes at any resolution.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .homology import CubicalComplex, close_under_faces

__all__ = [
    "parse_rational",
    "format_rational",
    "QuadraticPoly",
    "QuadraticForm",
    "homogenize",
    "dehomogenize",
    "make_p_eps",
    "random_pd_form",
    "deform",
    "is_positive_definite",
    "is_nonsingular_quadric",
    "CiProbeReport",
    "ci_probe",
    "DeformationParams",
    "GridSpec",
    "grid_complex",
    "sphere_zero_complex",
    "sphere_band_complex",
    "sphere_region_complex",
    "system_to_dict",
    "system_from_dict",
    "dump_system",
    "load_system",
]

_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?")


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int or a "p/q" string; floats rejected."""
    if isinstance(value, bool):
        raise TypeError(f"expected rational, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
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


def _fr(value) -> Fraction:
    """Coerce to Fraction, rejecting floats to protect exactness."""
    if isinstance(value, float):
        raise TypeError(f"floats are not allowed in exact data: {value!r}")
    return Fraction(value)


def _symmetric_matrix(rows, n: int) -> Tuple[Tuple[Fraction, ...], ...]:
    mat = tuple(tuple(_fr(x) for x in row) for row in rows)
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
        lv = tuple(_fr(x) for x in lin) if lin is not None else _zeros(k)
        if len(lv) != k:
            raise ValueError(f"linear part must have {k} entries")
        return cls(k=k, quad=qm, lin=lv, const=_fr(const))

    def evaluate(self, point: Sequence) -> Fraction:
        pt = [_fr(x) for x in point]
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

    def __add__(self, other: "QuadraticPoly") -> "QuadraticPoly":
        if not isinstance(other, QuadraticPoly):
            return NotImplemented
        if other.k != self.k:
            raise ValueError("variable count mismatch")
        quad = tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.quad, other.quad)
        )
        lin = tuple(a + b for a, b in zip(self.lin, other.lin))
        return QuadraticPoly(self.k, quad, lin, self.const + other.const)

    def scaled(self, factor) -> "QuadraticPoly":
        f = _fr(factor)
        quad = tuple(tuple(f * a for a in row) for row in self.quad)
        lin = tuple(f * a for a in self.lin)
        return QuadraticPoly(self.k, quad, lin, f * self.const)

    def __rmul__(self, factor) -> "QuadraticPoly":
        return self.scaled(factor)


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

    def __add__(self, other: "QuadraticForm") -> "QuadraticForm":
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("variable count mismatch")
        gram = tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.gram, other.gram)
        )
        return QuadraticForm(self.n, gram)

    def scaled(self, factor) -> "QuadraticForm":
        f = _fr(factor)
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


def make_p_eps(eps, k: int) -> QuadraticPoly:
    """Sphere polynomial (2/eps)^2 - sum of squares in k+1 variables."""
    e = _fr(eps)
    if e <= 0:
        raise ValueError(f"eps must be positive, got {e}")
    n = k + 1
    quad = tuple(
        tuple(Fraction(-1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )
    return QuadraticPoly(n, quad, _zeros(n), (2 / e) ** 2)


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


def deform(q: QuadraticForm, h: QuadraticForm, t) -> QuadraticForm:
    """Coefficientwise convex combination (1-t) q + t h."""
    tt = _fr(t)
    if not 0 <= tt <= 1:
        raise ValueError(f"t must lie in [0, 1], got {tt}")
    if q.n != h.n:
        raise ValueError("variable count mismatch")
    return (1 - tt) * q + tt * h


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


def is_positive_definite(f: QuadraticForm) -> bool:
    """Sylvester test: every leading principal minor is > 0, exactly."""
    for t in range(1, f.n + 1):
        sub = [row[:t] for row in f.gram[:t]]
        if _det(sub) <= 0:
            return False
    return True


def is_nonsingular_quadric(f: QuadraticForm) -> bool:
    """A quadric hypersurface is nonsingular iff its Gram matrix is invertible."""
    return _det(f.gram) != 0


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
    deformation time.  Requires 0 < delta < eps and 0 <= t <= 1.
    """

    eps: Fraction = Fraction(1, 10)
    delta: Fraction = Fraction(1, 1000)
    t: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "eps", _fr(self.eps))
        object.__setattr__(self, "delta", _fr(self.delta))
        object.__setattr__(self, "t", _fr(self.t))
        if not 0 < self.delta < self.eps:
            raise ValueError(f"need 0 < delta < eps, got delta={self.delta}, eps={self.eps}")
        if not 0 <= self.t <= 1:
            raise ValueError(f"need 0 <= t <= 1, got t={self.t}")


def _positive_resolution(value) -> Fraction:
    res = _fr(value)
    if res <= 0:
        raise ValueError(f"resolution must be positive, got {res}")
    return res


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned rational box split into cells of one rational width.

    Every box width must be an integer multiple of the resolution.  Cell
    j on an axis covers [lo + j*h, lo + (j+1)*h]; the membership rule is
    the center point.
    """

    box: Tuple[Tuple[Fraction, Fraction], ...]
    resolution: Fraction

    def __post_init__(self):
        box = tuple((_fr(lo), _fr(hi)) for lo, hi in self.box)
        res = _positive_resolution(self.resolution)
        for lo, hi in box:
            if hi <= lo:
                raise ValueError(f"empty axis interval [{lo}, {hi}]")
            if ((hi - lo) / res).denominator != 1:
                raise ValueError(
                    f"axis width {hi - lo} is not a multiple of resolution {res}"
                )
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "resolution", res)

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(int((hi - lo) / self.resolution) for lo, hi in self.box)

    def center(self, jvec: Sequence[int]) -> Tuple[Fraction, ...]:
        h = self.resolution
        return tuple(
            lo + (2 * j + 1) * h / 2 for (lo, _), j in zip(self.box, jvec)
        )

    @staticmethod
    def symmetric(half_width, resolution, dim: int) -> "GridSpec":
        """Box [-H, H]^dim with H snapped up to a multiple of the resolution."""
        h = _positive_resolution(resolution)
        half = _fr(half_width)
        n = -((-half) // h)  # ceil division for Fractions
        half = n * h
        return GridSpec(box=((-half, half),) * dim, resolution=h)


class _GridScale:
    """Integer view of a grid: all cell bounds and centers scaled to ints."""

    def __init__(self, spec: GridSpec):
        dens = [spec.resolution.denominator]
        dens.extend(lo.denominator for lo, _ in spec.box)
        self.scale = 2 * math.lcm(*dens)
        self.spec = spec
        step = spec.resolution * self.scale
        assert step.denominator == 1 and step.numerator % 2 == 0
        self.step = int(step)
        self.lo = [int(lo * self.scale) for lo, _ in spec.box]

    def bound(self, axis: int, j: int) -> int:
        return self.lo[axis] + self.step * j

    def center_vec(self, jvec: Sequence[int]) -> Tuple[int, ...]:
        half = self.step // 2
        return tuple(
            self.lo[ax] + self.step * j + half for ax, j in enumerate(jvec)
        )


class _ScaledPoly:
    """Sign-faithful integer evaluator: value(u) = P(u/scale) * mult, mult > 0."""

    def __init__(self, poly: QuadraticPoly, scale: int):
        dens = [poly.const.denominator]
        dens.extend(x.denominator for x in poly.lin)
        dens.extend(x.denominator for row in poly.quad for x in row)
        lcm = math.lcm(*dens)
        self.mult = lcm * scale * scale
        qt = []
        for i in range(poly.k):
            row = poly.quad[i]
            if row[i]:
                qt.append((i, i, int(lcm * row[i])))
            for j in range(i + 1, poly.k):
                if row[j]:
                    qt.append((i, j, int(2 * lcm * row[j])))
        self.quad_terms = qt
        self.lin_terms = [
            (i, int(lcm * b * scale)) for i, b in enumerate(poly.lin) if b
        ]
        self.const_term = int(lcm * poly.const) * scale * scale

    def value(self, u: Sequence[int]) -> int:
        total = self.const_term
        for i, j, a in self.quad_terms:
            total += a * u[i] * u[j]
        for i, b in self.lin_terms:
            total += b * u[i]
        return total


# Largest grid box, in top cells, that a builder accepts.  It is checked
# before any cell is visited; the largest grid the audits and the suite build
# is the 3-D sphere lift of 68**3 = 314,432 cells.
MAX_GRID_CELLS = 2**22


def _evaluators(
    polys: Sequence[QuadraticPoly], spec: GridSpec, noun: str = "polynomial"
) -> List[_ScaledPoly]:
    """Integer evaluators of the polynomials at the grid's scaled cell centers."""
    for p in polys:
        if p.k != spec.dim:
            raise ValueError(f"{noun} has {p.k} variables, grid has {spec.dim} axes")
    scale = _GridScale(spec).scale
    return [_ScaledPoly(p, scale) for p in polys]


def _sphere_radius(radius, spec: GridSpec) -> Fraction:
    """The radius as an exact positive rational whose sphere the grid box contains."""
    r = _fr(radius)
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    for lo, hi in spec.box:
        if lo > -r or hi < r:
            raise ValueError(
                f"grid box does not contain the radius-{r} sphere on axis [{lo}, {hi}]"
            )
    return r


def _sphere_band_cells(spec: GridSpec, radius: Fraction) -> Iterator[Tuple[int, ...]]:
    """Indices of top cells whose closed cube the radius-r sphere crosses, lazily.

    Exact per-axis interval arithmetic on x^2: a cell is in the band iff
    sum(min x_i^2) <= r^2 <= sum(max x_i^2) over the closed cube.
    """
    gs = _GridScale(spec)
    n = spec.dim
    shape = spec.shape
    thr = radius * radius * gs.scale * gs.scale
    tn, td = thr.numerator, thr.denominator
    mins: List[List[int]] = []
    maxs: List[List[int]] = []
    for ax in range(n):
        mrow, xrow = [], []
        for j in range(shape[ax]):
            a = gs.bound(ax, j)
            b = a + gs.step
            mrow.append(0 if a <= 0 <= b else min(a * a, b * b))
            xrow.append(max(a * a, b * b))
        mins.append(mrow)
        maxs.append(xrow)
    suffix_max = [0] * (n + 1)
    for ax in range(n - 1, -1, -1):
        suffix_max[ax] = suffix_max[ax + 1] + max(maxs[ax])
    jvec = [0] * n

    def descend(ax: int, msum: int, xsum: int) -> Iterator[Tuple[int, ...]]:
        if msum * td > tn or (xsum + suffix_max[ax]) * td < tn:
            return
        mrow, xrow = mins[ax], maxs[ax]
        if ax == n - 1:
            for j in range(shape[ax]):
                if (msum + mrow[j]) * td <= tn <= (xsum + xrow[j]) * td:
                    jvec[ax] = j
                    yield tuple(jvec)
            return
        for j in range(shape[ax]):
            jvec[ax] = j
            yield from descend(ax + 1, msum + mrow[j], xsum + xrow[j])

    yield from descend(0, 0, 0)


def _build(spec: GridSpec, cells: Iterable[Sequence[int]],
           keep: Callable[[Tuple[int, ...]], bool]) -> CubicalComplex:
    """Face closure of the candidate cells whose integer-scaled center passes `keep`.

    `cells` is consumed lazily, so a box above MAX_GRID_CELLS is rejected
    before any cell is visited.
    """
    size = math.prod(spec.shape)
    if size > MAX_GRID_CELLS:
        raise ValueError(f"grid has {size} cells, above the limit of {MAX_GRID_CELLS}")
    center = _GridScale(spec).center_vec
    tops = [tuple(2 * j + 1 for j in jvec) for jvec in cells if keep(center(jvec))]
    return close_under_faces(tops, ambient_dim=spec.dim)


def grid_complex(system: Sequence[QuadraticPoly], spec: GridSpec) -> CubicalComplex:
    """Face closure of every grid cell whose center satisfies all inequalities.

    Membership is P >= 0 for every polynomial of the system, decided
    exactly; the empty system keeps the whole box.  Cube coordinates are
    grid units (cell indices), not box coordinates.
    """
    evals = _evaluators(system, spec)
    box = itertools.product(*map(range, spec.shape))
    return _build(spec, box, lambda u: all(e.value(u) >= 0 for e in evals))


def sphere_zero_complex(
    forms: Sequence[QuadraticForm], radius, spec: GridSpec, tau
) -> CubicalComplex:
    """Cubical band around the common zero set of forms on a sphere.

    Keeps the sphere-crossing cells whose center c has |Q(c)| <= tau for
    every form; tau should scale with the resolution (the audits default
    to twice the cell width).
    """
    r = _sphere_radius(radius, spec)
    t = _fr(tau)
    if t <= 0:
        raise ValueError(f"tau must be positive, got {t}")
    if not forms:
        raise ValueError("need at least one form")
    evals = _evaluators([f.as_poly() for f in forms], spec, "form")
    # |Q(c)| <= tau  <=>  |value| * tau_den <= tau_num * mult
    bounds = [(e, t.numerator * e.mult, t.denominator) for e in evals]
    return _build(spec, _sphere_band_cells(spec, r),
                  lambda u: all(abs(e.value(u)) * td <= tn for e, tn, td in bounds))


def sphere_band_complex(radius, spec: GridSpec) -> CubicalComplex:
    """Face closure of every grid cell the radius-r sphere crosses."""
    r = _sphere_radius(radius, spec)
    return _build(spec, _sphere_band_cells(spec, r), lambda u: True)


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
    e = _fr(eps)
    if e <= 0:
        raise ValueError(f"eps must be positive, got {e}")
    evals = _evaluators(polys, spec)
    r = _sphere_radius(2 / e, spec)
    # |x_pre|^2 <= (1/eps)^2 x_last^2  <=>  p^2 * sum(u_i^2) <= q^2 * u_last^2
    p2 = e.numerator * e.numerator
    q2 = e.denominator * e.denominator

    def keep(u: Tuple[int, ...]) -> bool:
        return (p2 * sum(x * x for x in u[:-1]) <= q2 * u[-1] * u[-1]
                and all(ev.value(u) >= 0 for ev in evals))

    return _build(spec, _sphere_band_cells(spec, r), keep)


# ---------------------------------------------------------------------------
# Text format: structured key-value document for quadratic systems.
# Rationals travel as decimal-free strings ("p/q" or "p"); floats rejected.


def system_to_dict(system: Sequence[QuadraticPoly]) -> Dict:
    if not system:
        raise ValueError("cannot serialize an empty system")
    k = system[0].k
    if any(p.k != k for p in system):
        raise ValueError("variable count mismatch in system")
    return {
        "k": k,
        "polys": [
            {
                "quad": [[format_rational(x) for x in row] for row in p.quad],
                "lin": [format_rational(x) for x in p.lin],
                "const": format_rational(p.const),
            }
            for p in system
        ],
    }


def system_from_dict(doc: Dict) -> List[QuadraticPoly]:
    if not isinstance(doc, dict) or "k" not in doc or "polys" not in doc:
        raise ValueError("system document needs 'k' and 'polys' fields")
    k = doc["k"]
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError(f"'k' must be a nonnegative integer, got {k!r}")
    polys = []
    for rec in doc["polys"]:
        quad = [[parse_rational(x) for x in row] for row in rec["quad"]]
        lin = [parse_rational(x) for x in rec["lin"]]
        const = parse_rational(rec["const"])
        polys.append(QuadraticPoly.make(k, quad=quad, lin=lin, const=const))
    return polys


def dump_system(system: Sequence[QuadraticPoly], fp) -> None:
    json.dump(system_to_dict(system), fp, indent=2, sort_keys=True)
    fp.write("\n")


def load_system(fp) -> List[QuadraticPoly]:
    return system_from_dict(json.load(fp))
