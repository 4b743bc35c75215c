"""Cubical complexes and mod-2 homology via bit-packed boundary ranks.

Cells are elementary cubes: products of integer intervals that are either
degenerate [m, m] or unit [m, m+1].  At the interface a cube is a flat
tuple of per-axis codes, one int per axis:

    code 2*m     -> degenerate interval [m, m]
    code 2*m + 1 -> unit interval [m, m+1]

so the two codim-1 faces along an odd axis are code-1 and code+1, and cube
dimension is the number of odd codes.  Grid units are plain ints and may be
negative.  `close_under_faces` also takes an int array of codes, one cube
per row, so a caller holding many cubes in numpy never builds the tuples.

Inside a complex each cell is one int on the doubled lattice, the implicit
cubical complex of Wagner, Chen and Vucini (also used by CubicalRipser).
Each complex fixes a frame over the bounding box of its codes: per axis an
even lowest code lo_a, at least two below the smallest code, and a span of
2^b_a positions reaching at least two above the largest; the last axis has
stride 1 and stride_a = stride_{a+1} * 2^b_{a+1}.  A cell is

    flat = sum_a (code_a - lo_a) * stride_a

and a complex stores the set of its flat indices.  Since lo_a is even and
every stride is a power of two, bit log2(stride_a) of a flat index is the
parity of code_a: the odd-axis mask of a cell is flat & sum_a stride_a, and
its popcount is the cell dimension.  The codim-1 faces of a cell are
flat -/+ stride_a over the odd axes a, its cofaces flat -/+ stride_a over
the even axes; the padding keeps every such neighbour inside the box, so no
offset wraps onto another cell.  The frame tabulates both offset lists once
per mask.  Face closure adds, axis by axis, both faces of every cell that
is odd on that axis.  Flat order is the lexicographic order of the code
tuples, and code tuples are decoded only on request (`cells`,
`cells_of_dim`, a missing face in an error message).

Betti numbers are computed over the two-element field: b_d equals
(#d-cells) - rank(boundary_d) - rank(boundary_{d+1}).  `betti` counts the
cofaces of every cell in one pass, which also checks face closure, then
removes free (face, coface) pairs from a queue of flat indices.  These
elementary collapses preserve the homotopy type, so the boundary ranks of
the remaining core give the same numbers; pass precollapse=False for the
direct computation.  Ranks use Gaussian elimination on int bitsets.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Collection, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

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


class _Frame:
    """Power-of-two strides over the padded bounding box of some codes, and per-mask offsets."""

    __slots__ = ("lo", "spans", "strides", "base", "parity", "faces", "cofaces")

    def __init__(self, bounds: Sequence[Tuple[int, int]]):
        """`bounds` holds the least and the largest code on each axis."""
        lows: List[int] = []
        spans: List[int] = []
        strides: List[int] = []
        stride, base = 1, 0
        for least, largest in reversed(bounds):
            # An even lo puts each code's parity in bit 0 of its position, and a
            # margin of two codes keeps every face and coface inside the box.
            lo = (least - 2) & -2
            span = (1 << (largest + 2 - lo).bit_length()) - 1
            lows.append(lo)
            spans.append(span)
            strides.append(stride)
            base += lo * stride
            stride *= span + 1
        lows.reverse()
        spans.reverse()
        strides.reverse()
        self.lo, self.spans, self.strides, self.base = lows, spans, strides, base
        self.parity = sum(strides)
        self.faces: Dict[int, List[int]] = {}
        self.cofaces: Dict[int, List[int]] = {}

    def decode(self, flats: Collection[int]) -> Iterator[Cube]:
        """Code tuples of the flat indices, in their order."""
        if not self.strides:
            return iter([()] * len(flats))
        return zip(*[[(f // s & w) + lo for f in flats]
                     for s, w, lo in zip(self.strides, self.spans, self.lo)])

    def tabulate(self, flats: Iterable[int]) -> set:
        """Fill the face and coface offsets of the masks of `flats`; returns those masks."""
        masks = set(map(self.parity.__and__, flats))
        for m in masks:
            if m not in self.faces:
                odd: List[int] = []
                even: List[int] = []
                for s in self.strides:
                    (odd if m & s else even).extend((-s, s))
                self.faces[m] = odd
                self.cofaces[m] = even
        return masks


def _encode(cubes: Union[Collection[Cube], np.ndarray], ambient_dim: int) -> Tuple[_Frame, set]:
    """Frame around the cubes, and the set of their flat indices.

    `cubes` holds code tuples, or is an (N, ambient_dim) int array of codes,
    one cube per row, whose flat indices are one matrix product.
    """
    if isinstance(cubes, np.ndarray):
        if cubes.ndim != 2 or cubes.shape[1] != ambient_dim:
            raise ValueError(f"code array of shape {cubes.shape} has no {ambient_dim} axes")
        bounds = zip(cubes.min(0).tolist(), cubes.max(0).tolist()) if len(cubes) else ()
        frame = _Frame(list(bounds) or [(0, 0)] * ambient_dim)
        # Every flat index is below the frame's size, so int64 holds each
        # partial sum of (code - lo) * stride when the size does.
        size = frame.strides[0] * (frame.spans[0] + 1) if ambient_dim else 1
        dtype = np.int64 if size < 2**63 else object
        offsets = cubes.astype(dtype, copy=False) - np.array(frame.lo, dtype=dtype)
        return frame, set((offsets @ np.array(frame.strides, dtype=dtype)).tolist())
    if set(map(len, cubes)) - {ambient_dim}:
        c = next(c for c in cubes if len(c) != ambient_dim)
        raise ValueError(f"cube {c!r} has {len(c)} axes, ambient dimension is {ambient_dim}")
    frame = _Frame([(min(col), max(col)) for col in zip(*cubes)] if cubes else [(0, 0)] * ambient_dim)
    strides, base = frame.strides, frame.base
    return frame, {sum(map(mul, c, strides)) - base for c in cubes}


def _sorted_by_dim(flat: Iterable[int], parity: int) -> Dict[int, List[int]]:
    """Flat indices grouped by cell dimension, each group sorted."""
    out: Dict[int, List[int]] = {}
    for f in flat:
        out.setdefault((f & parity).bit_count(), []).append(f)
    for group in out.values():
        group.sort()
    return out


class CubicalComplex:
    """Immutable set of elementary cubes sharing one ambient dimension.

    Construct through `close_under_faces` to guarantee face-closure; the
    homology routines assume it, and `betti` raises when a face is missing.
    """

    __slots__ = ("ambient_dim", "_frame", "_flat", "_cells", "__dict__")

    def __init__(self, ambient_dim: int, cells: Iterable[Cube]):
        self.ambient_dim = int(ambient_dim)
        self._cells = frozenset(cells)
        self._frame, self._flat = _encode(self._cells, self.ambient_dim)

    @classmethod
    def _from_flat(cls, ambient_dim: int, frame: _Frame, flat: set) -> "CubicalComplex":
        self = cls.__new__(cls)
        self.ambient_dim = ambient_dim
        self._frame = frame
        self._flat = flat
        self._cells = None
        return self

    @property
    def cells(self) -> frozenset:
        """The cells as code tuples, decoded on first use."""
        if self._cells is None:
            self._cells = frozenset(self._frame.decode(self._flat))
        return self._cells

    def __eq__(self, other):
        if not isinstance(other, CubicalComplex):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.cells == other.cells

    def __hash__(self):
        return hash((self.ambient_dim, self.cells))

    def __len__(self):
        return len(self._flat)

    def __repr__(self):
        return f"CubicalComplex(ambient_dim={self.ambient_dim}, n_cells={len(self)})"

    @cached_property
    def _dims(self) -> Dict[int, List[int]]:
        return _sorted_by_dim(self._flat, self._frame.parity)

    @property
    def dim(self) -> int:
        """Largest cell dimension present (-1 for the empty complex)."""
        return max(self._dims, default=-1)

    def cells_of_dim(self, d: int) -> List[Cube]:
        return list(self._frame.decode(self._dims.get(d, ())))

    def n_cells(self, d: int) -> int:
        return len(self._dims.get(d, ()))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(flats) for d, flats in self._dims.items())

    def is_face_closed(self) -> bool:
        try:
            _coface_counts(self)
        except ValueError:
            return False
        return True


def close_under_faces(
    cubes: Union[Iterable[Cube], np.ndarray], ambient_dim: Optional[int] = None
) -> CubicalComplex:
    """Smallest face-closed complex containing the given cubes.

    The cubes are code tuples, or the rows of an int array of codes.  The
    ambient dimension defaults to the axis count of the first cube; a cube
    with another axis count raises ValueError.
    """
    if not isinstance(cubes, np.ndarray):
        cubes = list(cubes)
    if ambient_dim is None:
        ambient_dim = len(cubes[0]) if len(cubes) else 0
    frame, cells = _encode(cubes, ambient_dim)
    for s in frame.strides:
        for f in [f for f in cells if f & s]:
            cells.add(f - s)
            cells.add(f + s)
    return CubicalComplex._from_flat(ambient_dim, frame, cells)


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


def _chain(c: CubicalComplex, flat: Iterable[int], top: int) -> ChainComplex:
    """Boundary matrices of the face-closed subcomplex `flat` of c, cells in sorted order."""
    faces, parity = c._frame.faces, c._frame.parity
    by_dim = _sorted_by_dim(flat, parity)
    counts = tuple(len(by_dim.get(d, ())) for d in range(top + 1))
    boundaries = []
    for d in range(1, top + 1):
        lower = by_dim.get(d - 1, [])
        upper = by_dim.get(d, [])
        index = {f: r for r, f in enumerate(lower)}
        columns = []
        for f in upper:
            bits = 0
            for off in faces[f & parity]:
                bits |= 1 << index[f + off]
            columns.append(bits)
        boundaries.append(GF2Matrix(len(lower), len(upper), columns))
    return ChainComplex(counts=counts, boundaries=tuple(boundaries))


def _coface_counts(c: CubicalComplex) -> Dict[int, int]:
    """Coface count of every cell of c; ValueError if c is not face-closed."""
    flat = c._flat
    live = dict.fromkeys(flat, 0)
    for s in c._frame.strides:
        for f in flat:
            if f & s:
                try:
                    live[f - s] += 1
                    live[f + s] += 1
                except KeyError as exc:
                    missing = next(c._frame.decode(exc.args))
                    raise ValueError(f"complex is not face-closed: missing {missing!r}") from None
    return live


def chain_complex(c: CubicalComplex) -> ChainComplex:
    """Boundary matrices of a face-closed complex, cells in sorted order."""
    _coface_counts(c)
    c._frame.tabulate(c._flat)
    return _chain(c, c._flat, max(c.dim, 0))


def _collapse(c: CubicalComplex, live: Dict[int, int]) -> Dict[int, int]:
    """Remove free (face, coface) pairs until none remain.

    `live` maps each cell to its number of cofaces and is reduced in place
    to the core.  Each removal is an elementary collapse, so the homotopy
    type (hence every Betti number) of the complex is preserved.
    """
    faces, cofaces, parity = c._frame.faces, c._frame.cofaces, c._frame.parity
    queue = deque(sorted(f for f, n in live.items() if n == 1))
    pop, push = queue.popleft, queue.append
    while queue:
        f = pop()
        if live.get(f) != 1:
            continue
        for off in cofaces[f & parity]:
            g = f + off
            if g in live:
                break
        # Every face of a live cell is live; f, a face of g, is deleted last.
        del live[g]
        for off in faces[g & parity]:
            h = g + off
            n = live[h] - 1
            live[h] = n
            if n == 1:
                push(h)
        for off in faces[f & parity]:
            h = f + off
            n = live[h] - 1
            live[h] = n
            if n == 1:
                push(h)
        del live[f]
    return live


def betti(c: CubicalComplex, precollapse: bool = True) -> Tuple[int, ...]:
    """Mod-2 Betti numbers b_0 .. b_top of a face-closed complex.

    top is the largest cell dimension present; the empty complex yields an
    all-zero vector of length ambient_dim + 1.  A complex that is not
    face-closed raises ValueError.
    """
    if not c._flat:
        return (0,) * (c.ambient_dim + 1)
    top = max(map(int.bit_count, c._frame.tabulate(c._flat)))
    live = _coface_counts(c)
    cc = _chain(c, _collapse(c, live) if precollapse else live, top)
    ranks = [0, *(m.rank() for m in cc.boundaries), 0]
    return tuple([n - ranks[d] - ranks[d + 1] for d, n in enumerate(cc.counts)])


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
