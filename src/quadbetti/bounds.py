"""Exact bound formulas and Betti-sum recurrences for quadric intersections.

Everything in this module is pure integer / rational arithmetic.  The
recurrences return plain Python ints (arbitrary precision; binomials blow
past 64 bits well inside the tested ranges) and the halved binomial sums
are returned as `fractions.Fraction`, never silently floored.  The module
imports only the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

__all__ = [
    "q_quad",
    "b_quad",
    "c_ci",
    "b_ci",
    "b_ci_bound",
    "bound_betti",
    "AggregateBounds",
    "bound_aggregate",
]


def _check_indices(j: int, k: int) -> None:
    if j < 0:
        raise ValueError(f"j must be nonnegative, got {j}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if j > k:
        raise ValueError(f"j must not exceed k, got j={j}, k={k}")


def q_quad(j: int, k: int) -> int:
    """Auxiliary sum for smooth intersections of j quadrics in projective k-space.

    Three-case recurrence: k + 1 when j = 0, 2**j when j = k, and
    2*q(j-1, k-1) - q(j, k-1) in between.  Values may be negative.  This
    is `c_ci` with every degree equal to 2.
    """
    return c_ci(j, k, (2,) * j)


def b_quad(j: int, k: int) -> int:
    """Total mod-2 Betti number of a smooth intersection of j quadrics in P^k."""
    return b_ci(j, k, (2,) * j)


def _normalized_degrees(degrees: Sequence[int]) -> tuple:
    out = tuple(int(d) for d in degrees)
    for d in out:
        if d < 1:
            raise ValueError(f"degrees must be >= 1, got {d}")
    return out


def c_ci(j: int, k: int, degrees: Sequence[int]) -> int:
    """Degree-sequence recurrence underlying complete-intersection Betti totals.

    The last degree recurses out: c(j, k, d) = d_j * c(j-1, k-1, d[:-1])
    - (d_j - 1) * c(j, k-1, d), with c(0, k) = k + 1 and c(k, k) = prod(d).
    Evaluated one degree at a time, without recursion: row i holds
    c(i, i + t, d[:i]) for t = 0 .. k - j.
    """
    d = _normalized_degrees(degrees)
    _check_indices(j, k)
    if len(d) != j:
        raise ValueError(f"expected {j} degrees, got {len(d)}")
    row = range(1, k - j + 2)  # c(0, t) = t + 1, a range so that j = 0 lists nothing
    head = 1
    for dj in d:
        head *= dj
        prev, row = row, [head]
        for t in range(1, k - j + 1):
            row.append(dj * prev[t] - (dj - 1) * row[t - 1])
    return row[-1]


def b_ci(j: int, k: int, degrees: Sequence[int]) -> int:
    """Total mod-2 Betti number of a smooth complete intersection in P^k.

    The intersection has codimension j and is cut out by hypersurfaces of
    the given degrees; with all degrees equal to 2 this coincides with
    `b_quad(j, k)`.
    """
    c = c_ci(j, k, degrees)
    b = c if (k - j) % 2 == 0 else 2 * (k - j + 1) - c
    assert b >= 0, (j, k, degrees, b)
    return b


def b_ci_bound(j: int, k: int, top: int = 2) -> int:
    """Upper bound on `b_ci(j, k, d)` for degrees d at most `top`, without the recurrence.

    With D = max(top, 2): |c_ci(j, k, d)| <= D**j * (D - 1)**(k - j) * C(k + 1, j + 1),
    and b_ci is c_ci or 2 (k - j + 1) - c_ci, so the bound adds 2 (k + 1).
    For degree 2 it reads 2**j * C(k + 1, j + 1) + 2 (k + 1).

    Proof.  Write e_i(t) = c(i, i + t, d[:i]), the rows of `c_ci`.  Then
    e_0(t) = t + 1, e_i(0) = d_i e_{i-1}(0), and for t >= 1
    e_i(t) = d_i e_{i-1}(t) - (d_i - 1) e_i(t - 1).  In generating functions
    E_i(x) = sum_t e_i(t) x^t this is E_i(x) (1 + (d_i - 1) x) = d_i E_{i-1}(x)
    with E_0(x) = (1 - x)**-2, so E_j(x) = prod(d) (1 - x)**-2 prod_i
    (1 + (d_i - 1) x)**-1.  The coefficients of (1 + a x)**-1 are (-a)**t, so
    each |e_j(t)| is at most the coefficient of x^t in the same product with
    every sign made positive: prod(d) (1 - x)**-2 prod_i (1 - (d_i - 1) x)**-1.
    Coefficientwise, 1 - (d_i - 1) x and 1 - x may both be replaced by
    1 - (D - 1) x (as D - 1 >= 1 and D - 1 >= d_i - 1), and prod(d) by D**j,
    which leaves D**j [x^t] (1 - (D - 1) x)**-(j + 2) =
    D**j (D - 1)**t C(t + j + 1, j + 1).  Put t = k - j.
    """
    _check_indices(j, k)
    d = max(int(top), 2)
    return d**j * (d - 1) ** (k - j) * math.comb(k + 1, j + 1) + 2 * (k + 1)


def _term_sum(s: int, k: int, top: int) -> int:
    """sum_{j=0}^{top} C(s, j) * C(k+1, j) * 2**j, the paper's sum before halving."""
    return sum(math.comb(s, j) * math.comb(k + 1, j) * 2**j for j in range(top + 1))


def bound_betti(s: int, k: int, i: int) -> Fraction:
    """Exact upper bound on b_i of a set in R^k cut out by s quadratic inequalities.

    Returns (1/2) * sum_{j=0}^{min(s, k-i)} C(s, j) * C(k+1, j) * 2**j as an
    exact rational; the half is kept unrounded.
    """
    if not 1 <= s <= k:
        raise ValueError(f"need 1 <= s <= k, got s={s}, k={k}")
    if not 0 <= i <= k - 1:
        raise ValueError(f"need 0 <= i <= k-1, got i={i}, k={k}")
    return Fraction(_term_sum(s, k, min(s, k - i)), 2)


@dataclass(frozen=True)
class AggregateBounds:
    """Aggregate bound bundle for s quadratic inequalities in R^k.

    `simple` is (1/2) * 3**s * C(k+1, s), defined only for 2 <= s <= k/2;
    `exp_form` is the float comparison value (1/2) * (3e(k+1)/s)**s, NOT exact
    and math.inf where it overflows; `total` is the exact bound (1/2) * k *
    sum_{j<=s} C(s, j) * C(k+1, j) * 2**j on the sum of all Betti numbers.
    """

    simple: Optional[Fraction]
    exp_form: Optional[float]
    total: Fraction


def bound_aggregate(s: int, k: int) -> AggregateBounds:
    """Aggregate bounds for s quadratic inequalities in R^k.

    Raises outside 1 <= s <= k.  The `simple` / `exp_form` fields are gated
    independently on 2 <= s <= k/2 and are None when that fails.
    """
    if not 1 <= s <= k:
        raise ValueError(f"need 1 <= s <= k, got s={s}, k={k}")
    total = Fraction(k * _term_sum(s, k, s), 2)
    simple: Optional[Fraction] = None
    exp_form: Optional[float] = None
    if 2 <= s and 2 * s <= k:
        simple = Fraction(3**s * math.comb(k + 1, s), 2)
        try:
            exp_form = 0.5 * (3.0 * math.e * (k + 1) / s) ** s
        except OverflowError:
            exp_form = math.inf
    return AggregateBounds(simple=simple, exp_form=exp_form, total=total)
