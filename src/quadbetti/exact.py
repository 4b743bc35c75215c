"""Exact rationals, quadratic polynomials and forms, and the algebra on them.

`parse_rational` reads every exact input and refuses floats.  Beside the
data live exact determinants, polynomial remainders, Segre's smoothness
test of a pencil and rank over GF(2).  The module imports only the
standard library, so exact work loads no numpy.
"""

from __future__ import annotations

import numbers
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "parse_rational",
    "positive",
    "QuadraticPoly",
    "QuadraticForm",
    "homogenize",
    "dehomogenize",
    "random_pd_form",
    "det",
    "is_nonsingular_quadric",
    "poly_rem",
    "check_smooth_pencil",
    "GF2Matrix",
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


def positive(value, name: str) -> Fraction:
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

    def as_poly(self) -> QuadraticPoly:
        return QuadraticPoly(self.n, self.gram, _zeros(self.n), Fraction(0))


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


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free-enough Gaussian elimination."""
    m = [list(row) for row in rows]
    n = len(m)
    value = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            value = -value
        pval = m[col][col]
        value *= pval
        for r in range(col + 1, n):
            f = m[r][col] / pval
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return value


def is_nonsingular_quadric(f: QuadraticForm) -> bool:
    """A quadric hypersurface is nonsingular iff its Gram matrix is invertible."""
    return det(f.gram) != 0


def poly_rem(f: List[Fraction], g: List[Fraction]) -> List[Fraction]:
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
        coef = str(abs(c)) if abs(c) != 1 or m == 0 else ""
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
        det([[x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(a.gram, b.gram)])
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
        g, h = h, poly_rem(g, h)
    if len(g) > 1:
        g = [c / g[-1] for c in g]
        where = (f"the repeated root t = {-g[0]}" if len(g) == 2
                 else f"repeated roots, those of {_poly_text(g)}")
        raise ValueError(f"singular intersection rejected: det(A + tB) = {_poly_text(f)} "
                         f"has {where}")


class GF2Matrix:
    """GF(2) matrix stored as column bitsets (bit r of column c = entry r, c)."""

    __slots__ = ("n_rows", "n_cols", "columns", "pivot_rows")

    def __init__(self, n_rows: int, columns: Iterable[int]):
        self.n_rows = n_rows
        self.columns = tuple(columns)
        self.n_cols = len(self.columns)
        self.pivot_rows: Optional[List[int]] = None

    def rank(self) -> int:
        """Rank over GF(2), by incremental elimination of the columns.

        Each vector of the basis built is keyed by its top row, which no
        other one has; `pivot_rows` records those rows, one per pivot.
        """
        pivots: Dict[int, int] = {}
        for v in self.columns:
            while v:
                top = v.bit_length() - 1
                p = pivots.get(top)
                if p is None:
                    pivots[top] = v
                    break
                v ^= p
        self.pivot_rows = list(pivots)
        return len(pivots)
