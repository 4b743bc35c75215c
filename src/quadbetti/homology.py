"""Cubical complexes and mod-2 homology via bit-packed boundary ranks.

Cells are elementary cubes: products of integer intervals that are either
degenerate [m, m] or unit [m, m+1].  Internally a cube is a flat tuple of
per-axis codes, one int per axis:

    code 2*m     -> degenerate interval [m, m]
    code 2*m + 1 -> unit interval [m, m+1]

so the two codim-1 faces along an odd axis are code-1 and code+1, cube
dimension is the number of odd codes, and cubes hash fast.  Grid units are
plain ints and may be negative.

Betti numbers are computed over the two-element field: b_d equals
(#d-cells) - rank(boundary_d) - rank(boundary_{d+1}).  `betti` first
shrinks the complex by elementary free-face collapses (homotopy
preserving, so the ranks are unchanged); pass precollapse=False for the
direct computation.  Ranks use Gaussian elimination on int bitsets.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "PASS",
    "VIOLATION",
    "INCONCLUSIVE",
    "Cube",
    "make_cube",
    "cube_intervals",
    "cube_dim",
    "cube_faces",
    "cube_all_faces",
    "CubicalComplex",
    "close_under_faces",
    "GF2Matrix",
    "gf2_rank",
    "ChainComplex",
    "chain_complex",
    "betti",
    "pad_betti",
    "mayer_vietoris_audit",
]

PASS = "PASS"
VIOLATION = "VIOLATION"
INCONCLUSIVE = "INCONCLUSIVE"

Cube = Tuple[int, ...]


def make_cube(intervals: Iterable[Tuple[int, int]]) -> Cube:
    """Encode per-axis intervals [lo, hi] (hi = lo or lo+1) as a cube."""
    codes = []
    for lo, hi in intervals:
        lo = int(lo)
        hi = int(hi)
        if hi == lo:
            codes.append(2 * lo)
        elif hi == lo + 1:
            codes.append(2 * lo + 1)
        else:
            raise ValueError(f"interval [{lo}, {hi}] is neither degenerate nor unit")
    return tuple(codes)


def cube_intervals(cube: Cube) -> Tuple[Tuple[int, int], ...]:
    """Decode a cube back into per-axis (lo, hi) interval pairs."""
    out = []
    for code in cube:
        m = code >> 1
        out.append((m, m + (code & 1)))
    return tuple(out)


def cube_dim(cube: Cube) -> int:
    return sum(code & 1 for code in cube)


def cube_faces(cube: Cube) -> List[Cube]:
    """Codim-1 faces: both endpoints of every unit axis."""
    out = []
    for axis, code in enumerate(cube):
        if code & 1:
            out.append(cube[:axis] + (code - 1,) + cube[axis + 1 :])
            out.append(cube[:axis] + (code + 1,) + cube[axis + 1 :])
    return out


def cube_all_faces(cube: Cube) -> List[Cube]:
    """All faces of every dimension, the cube itself included."""
    choices = []
    for code in cube:
        if code & 1:
            choices.append((code - 1, code, code + 1))
        else:
            choices.append((code,))
    return [tuple(c) for c in itertools.product(*choices)]


def _group_by_dim(cells: Iterable[Cube]) -> Dict[int, List[Cube]]:
    """Cells grouped by dimension, each group sorted."""
    out: Dict[int, List[Cube]] = {}
    for c in cells:
        out.setdefault(cube_dim(c), []).append(c)
    for group in out.values():
        group.sort()
    return out


class CubicalComplex:
    """Immutable set of elementary cubes sharing one ambient dimension.

    Construct through `close_under_faces` to guarantee face-closure; the
    homology routines assume it.
    """

    __slots__ = ("ambient_dim", "cells", "__dict__")

    def __init__(self, ambient_dim: int, cells: Iterable[Cube]):
        self.ambient_dim = int(ambient_dim)
        cellset = frozenset(cells)
        for c in cellset:
            if len(c) != self.ambient_dim:
                raise ValueError(
                    f"cube {c!r} has {len(c)} axes, ambient dimension is {self.ambient_dim}"
                )
        self.cells = cellset

    def __eq__(self, other):
        if not isinstance(other, CubicalComplex):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.cells == other.cells

    def __hash__(self):
        return hash((self.ambient_dim, self.cells))

    def __len__(self):
        return len(self.cells)

    def __repr__(self):
        return f"CubicalComplex(ambient_dim={self.ambient_dim}, n_cells={len(self.cells)})"

    @cached_property
    def _by_dim(self) -> Dict[int, List[Cube]]:
        return _group_by_dim(self.cells)

    @property
    def dim(self) -> int:
        """Largest cell dimension present (-1 for the empty complex)."""
        return max(self._by_dim, default=-1)

    def cells_of_dim(self, d: int) -> List[Cube]:
        return list(self._by_dim.get(d, ()))

    def n_cells(self, d: int) -> int:
        return len(self._by_dim.get(d, ()))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(cells) for d, cells in self._by_dim.items())

    def is_face_closed(self) -> bool:
        for c in self.cells:
            for f in cube_faces(c):
                if f not in self.cells:
                    return False
        return True


def close_under_faces(
    cubes: Iterable[Cube], ambient_dim: Optional[int] = None
) -> CubicalComplex:
    """Smallest face-closed complex containing the given cubes.

    The ambient dimension defaults to the axis count of the first cube;
    `CubicalComplex` rejects any cube with another axis count.
    """
    cells = set()
    for c in cubes:
        if ambient_dim is None:
            ambient_dim = len(c)
        cells.update(cube_all_faces(c))
    return CubicalComplex(0 if ambient_dim is None else ambient_dim, cells)


def _bitset_rank(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of int-encoded vectors, by incremental elimination."""
    pivots: Dict[int, int] = {}
    rank = 0
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = v
                rank += 1
                break
            v ^= p
    return rank


class GF2Matrix:
    """GF(2) matrix stored as column bitsets (bit r of column c = entry r, c)."""

    __slots__ = ("n_rows", "n_cols", "columns")

    def __init__(self, n_rows: int, n_cols: int, columns: Sequence[int]):
        if len(columns) != n_cols:
            raise ValueError("column count mismatch")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.columns = tuple(columns)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "GF2Matrix":
        rows = [[int(x) & 1 for x in row] for row in rows]
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        if any(len(row) != n_cols for row in rows):
            raise ValueError("ragged rows")
        columns = [0] * n_cols
        for r, row in enumerate(rows):
            bit = 1 << r
            for c, x in enumerate(row):
                if x:
                    columns[c] |= bit
        return cls(n_rows, n_cols, columns)

    def rank(self) -> int:
        return _bitset_rank(self.columns)

    def __repr__(self):
        return f"GF2Matrix({self.n_rows}x{self.n_cols})"


def gf2_rank(matrix) -> int:
    """Rank over the two-element field.

    Accepts a GF2Matrix, or any matrix-like of 0/1 entries (list of rows or
    a numpy array).  Deterministic, and invariant under row/column order.
    """
    if isinstance(matrix, GF2Matrix):
        return matrix.rank()
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    return GF2Matrix.from_rows(rows).rank()


@dataclass(frozen=True)
class ChainComplex:
    """Counts of cells per dimension plus boundary matrices over GF(2).

    boundaries[d] is the boundary map from (d+1)-cells to d-cells for
    d = 0 .. top-1, i.e. the matrix usually written as boundary_{d+1};
    its columns are indexed by (d+1)-cells and rows by d-cells.
    """

    counts: Tuple[int, ...]
    boundaries: Tuple[GF2Matrix, ...]

    def boundary(self, d: int) -> Optional[GF2Matrix]:
        """Boundary map out of d-cells (None for d = 0 or d beyond top)."""
        if 1 <= d <= len(self.boundaries):
            return self.boundaries[d - 1]
        return None

    def dd_is_zero(self) -> bool:
        """Check that composing consecutive boundary maps gives zero."""
        for d in range(1, len(self.boundaries)):
            lower = self.boundaries[d - 1]
            upper = self.boundaries[d]
            for col in upper.columns:
                acc = 0
                c = col
                while c:
                    b = c & (-c)
                    acc ^= lower.columns[b.bit_length() - 1]
                    c ^= b
                if acc:
                    return False
        return True


def _chain_from_cells(by_dim: Dict[int, List[Cube]], top: int) -> ChainComplex:
    counts = tuple(len(by_dim.get(d, ())) for d in range(top + 1))
    boundaries = []
    for d in range(1, top + 1):
        lower = by_dim.get(d - 1, [])
        upper = by_dim.get(d, [])
        index = {c: r for r, c in enumerate(lower)}
        columns = []
        for cell in upper:
            bits = 0
            for f in cube_faces(cell):
                try:
                    bits |= 1 << index[f]
                except KeyError:
                    raise ValueError(f"complex is not face-closed: missing {f!r}")
            columns.append(bits)
        boundaries.append(GF2Matrix(len(lower), len(upper), columns))
    return ChainComplex(counts=counts, boundaries=tuple(boundaries))


def chain_complex(c: CubicalComplex) -> ChainComplex:
    """Boundary matrices of a face-closed complex, cells in sorted order."""
    top = max(c.dim, 0)
    by_dim = {d: c.cells_of_dim(d) for d in range(top + 1)}
    return _chain_from_cells(by_dim, top)


def _unique_coface(cube: Cube, live: set) -> Optional[Cube]:
    found = None
    for axis, code in enumerate(cube):
        if code & 1:
            continue
        for delta in (-1, 1):
            cand = cube[:axis] + (code + delta,) + cube[axis + 1 :]
            if cand in live:
                if found is not None:
                    return None
                found = cand
    return found


def _collapsed_core(cells: frozenset) -> set:
    """Remove free (face, coface) pairs until none remain.

    Each removal is an elementary collapse, so the homotopy type (hence
    every Betti number) of the complex is preserved.
    """
    live = set(cells)
    count: Dict[Cube, int] = {}
    for c in live:
        for f in cube_faces(c):
            count[f] = count.get(f, 0) + 1
    queue = deque(sorted(f for f, n in count.items() if n == 1))
    while queue:
        f = queue.popleft()
        if f not in live or count.get(f) != 1:
            continue
        coface = _unique_coface(f, live)
        if coface is None:
            continue
        live.discard(f)
        live.discard(coface)
        for g in cube_faces(coface):
            n = count.get(g, 0) - 1
            count[g] = n
            if n == 1:
                queue.append(g)
        for g in cube_faces(f):
            n = count.get(g, 0) - 1
            count[g] = n
            if n == 1:
                queue.append(g)
    return live


def betti(c: CubicalComplex, precollapse: bool = True) -> Tuple[int, ...]:
    """Mod-2 Betti numbers b_0 .. b_top of a face-closed complex.

    top is the largest cell dimension present; the empty complex yields an
    all-zero vector of length ambient_dim + 1.
    """
    if not c.cells:
        return (0,) * (c.ambient_dim + 1)
    top = max(map(cube_dim, c.cells))
    core = _collapsed_core(c.cells) if precollapse else c.cells
    cc = _chain_from_cells(_group_by_dim(core), top)
    ranks = [m.rank() for m in cc.boundaries]
    out = []
    for d in range(top + 1):
        n_d = cc.counts[d] if d < len(cc.counts) else 0
        r_d = ranks[d - 1] if 1 <= d <= len(ranks) else 0
        r_up = ranks[d] if d < len(ranks) else 0
        out.append(n_d - r_d - r_up)
    return tuple(out)


def pad_betti(v: Sequence[int], length: int) -> Tuple[int, ...]:
    """Right-pad a Betti vector with zeros (error if nonzero entries are cut)."""
    v = tuple(v)
    if len(v) > length and any(v[length:]):
        raise ValueError(f"cannot truncate nonzero Betti entries from {v}")
    return (v + (0,) * length)[:length]


def _betti_entry(v: Sequence[int], i: int) -> int:
    if i < 0 or i >= len(v):
        return 0
    return v[i]


def mayer_vietoris_audit(union_betti: Sequence[int], piece_betti: Mapping, i: int) -> str:
    """Check b_i(union) against the Mayer-Vietoris style intersection bound.

    `piece_betti` maps each nonempty index set J (tuple or frozenset of
    1-based piece indices, 1 <= |J| <= i+1) to the Betti vector of the
    corresponding intersection of pieces; the piece count is the largest
    index that occurs.  Returns PASS when
    b_i(union) <= sum_{j=1}^{i+1} sum_{|J|=j} b_{i-j+1}(intersection_J),
    VIOLATION otherwise.  A missing index set raises (no verdict).
    """
    if i < 0:
        raise ValueError(f"homology degree must be nonnegative, got {i}")
    pieces = {}
    for key, vec in piece_betti.items():
        fkey = frozenset(int(x) for x in key)
        if not fkey or min(fkey) < 1:
            raise ValueError(f"piece index sets must be nonempty sets of 1-based ints, got {key!r}")
        pieces[fkey] = tuple(vec)
    ell = max(max(J) for J in pieces)
    bound = 0
    for j in range(1, i + 2):
        for J in itertools.combinations(range(1, ell + 1), j):
            key = frozenset(J)
            if key not in pieces:
                raise ValueError(
                    f"missing Betti data for intersection {list(J)}; audit is inconclusive"
                )
            bound += _betti_entry(pieces[key], i - j + 1)
    return PASS if _betti_entry(tuple(union_betti), i) <= bound else VIOLATION
