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
2^b_a positions reaching at least two above the largest.  One axis, the run
axis, has stride 1; the others keep their order above it, each stride the
product of the spans of the axes below it.  The run axis is the last one
unless the caller of `close_under_faces` picks another: the grid builders
pick the axis along which the most pairs of their top cells are adjacent.
A cell is

    flat = sum_a (code_a - lo_a) * stride_a

stored as int64 when the frame holds fewer than 2^63 positions and as a
Python int (dtype object) otherwise; one code path serves both.  Since lo_a is even
and every stride is a power of two, flat & stride_a is nonzero exactly when
code_a is odd, and a cell's dimension is the popcount of flat & parity,
where parity is the sum of the strides.  The codim-1 faces of a cell are
flat -/+ stride_a over the odd axes a, its cofaces flat -/+ stride_a over
the even axes; the padding keeps every such neighbour inside the box, so no
offset wraps onto another cell.  Flat order is the lexicographic order of
the code tuples with the run axis moved last.

A complex stores its runs: the maximal stretches of consecutive flat
indices, as two sorted arrays of the first and the last index of each.  A
line along the run axis (stride 1) starts and ends with two padding codes
that hold no cell, so a run never reaches the next line: all its cells
share their codes on the other axes, and with p the popcount of those
parities its cells even on the run axis have dimension p and the odd ones
p + 1.  So the count of cells per dimension follows from each run's length
and the parity of its ends.  The cells themselves are listed from the runs
only to rank a small complex directly and to decode code tuples (`cells`, a
missing face in an error message).

Face closure works on runs.  An odd cell's two faces on the run axis are
its neighbours in the line, so every run end odd on the run axis widens by
one; then all ends are even.  Then, axis by axis off the run axis, the runs
odd on the axis are appended shifted by -stride and by +stride and merged
again: the first and the last indices are sorted each on their own, and a
run ends at the i-th last index exactly when the (i + 1)-th first index lies
more than one beyond it.  Code arrays from the grid builders arrive in
lexicographic order, which is flat order when the run axis is the last, so
they enter such a frame without a sort; on another run axis one stable sort
orders them.

Betti numbers are computed over the two-element field: b_d equals
(#d-cells) - rank(boundary_d) - rank(boundary_{d+1}), with the ranks by
Gaussian elimination on int bitsets.  Cell by cell, a dict of the
(d-1)-cells finds the faces of the d-cells and checks face closure; the
run complex (below) finds its faces by binary searches of sorted runs.

The boundary maps are ranked from the top dimension down, with clearing
(C. Chen and M. Kerber, "Persistent homology computation with a twist",
EuroCG 2011).  Elimination keys each basis vector of the span of the
columns of boundary_{d+1} by its top row, a d-cell e.  That vector is
e + (lower d-cells) = boundary_{d+1}(z) for some chain z, and its boundary
is zero, so the column of e in boundary_d is the sum of columns of lower
d-cells.  By induction on e, dropping the columns of all these pivot rows
keeps the span of boundary_d, and so its rank; they are ranked as zero
columns.  Their faces are still looked up, so a missing face still raises.

`betti` ranks a complex K of at least _COLLAPSE_MIN_CELLS cells through its
run complex, the Morse complex of a matching along the run axis (R. Forman,
"Morse theory for cell complexes", Adv. Math. 134, 1998), in the same way,
and a smaller complex cell by cell; that cell count is the one switch
between the two.  In a face-closed complex a run starts and ends on an even
code, as an odd cell's two faces on the run axis are its neighbours in the
line.  So closure is checked run by run: the ends of every run must be even,
and along each axis where a run's code is odd, the run shifted by -stride
and by +stride must be there.

The matching pairs e with e + 1 in every run, e even on the run axis.  It
leaves one critical cell per run, its top t_r, even on the run axis, whose
dimension is the number of other axes where the run's code is odd.  A
gradient path goes from a cell e to its partner e + 1 and on to a facet of
e + 1 other than e.  The facets e + 1 -/+ stride_a off the run axis are odd
on it, so they are paired downward and end the path; only e + 2 goes on.
So paths climb their own run, and the matching is acyclic.  A facet
t_r -/+ stride_a of a top, along an axis a where t_r is odd, is even on the
run axis: it is the top of its run, or the one path from it climbs to that
top.  The 2p facets of a p-dimensional top lie on 2p distinct lines, hence
in 2p distinct runs, so over GF(2) the boundary of run r in the Morse
complex is the set of runs that hold t_r -/+ stride_a for the axes a off the
run axis where t_r is odd, and the run complex has the homology of K.  One
binary search of the run tops per axis and sign finds these runs and checks
closure: a shifted run is there when the first run whose top is not below
its top starts at or below its first cell.

When the run complex itself has at least _COLLAPSE_MIN_CELLS runs, free-face
rounds shrink it.  A round takes the free runs f, those with exactly one
live coface g, keeps one f per g, and removes all those pairs at once.  If g
had a live coface h, the coefficient of f in the boundary of the boundary of
h would count the live cofaces of f in the boundary of h: g alone, so it
would be 1, yet the boundary of a boundary is zero.  So g has no live
coface, no run is both an f and a g, and the pairs of a round are disjoint.
Each pair (f, g) spans a quotient g -> f of the live complex that is
acyclic, and the live runs left form a subcomplex with the same homology.

The run complex is one face table with a row per run: the runs that hold
t_r - stride_a and t_r + stride_a, two columns per axis off the run axis,
or the run count n in both where t_r is even on the axis.  The rounds keep
their counts in n + 1 slots, so every such filler entry lands in slot n
and a round reads the rows of its removed runs whole, with no filtering.
Along each axis a run names a face on both sides, where t_r is odd, or on
neither, where it is even.  So each row holds an even number of filler
entries, the count in slot n starts even and stays even as rows are
removed, and it never reads as free.
"""

from __future__ import annotations

import itertools
from functools import partial
from operator import mul
from typing import Collection, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .exact import GF2Matrix

__all__ = [
    "Cube",
    "make_cube",
    "cube_dim",
    "CubicalComplex",
    "close_under_faces",
    "betti",
]

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


def cube_dim(cube: Cube) -> int:
    return sum(code & 1 for code in cube)


class _Frame:
    """Power-of-two strides over the padded bounding box of some codes."""

    __slots__ = ("lo", "spans", "strides", "cross", "shifts", "parity", "base", "dtype")

    def __init__(self, bounds: Sequence[Tuple[int, int]], run_axis: int = -1):
        """`bounds` holds the least and the largest code on each axis.

        The run axis gets stride 1; the other axes keep their order above it.
        """
        order = list(range(len(bounds)))
        if order:
            order.append(order.pop(run_axis))
        lows, spans, strides = [0] * len(order), [0] * len(order), [0] * len(order)
        stride, base = 1, 0
        for a in reversed(order):
            least, largest = bounds[a]
            # An even lo puts each code's parity in bit 0 of its position, and a
            # margin of two codes keeps every face and coface inside the box.
            lo = (least - 2) & -2
            span = (1 << (largest + 2 - lo).bit_length()) - 1
            lows[a], spans[a], strides[a] = lo, span, stride
            base += lo * stride
            stride *= span + 1
        self.lo, self.spans, self.strides, self.base = lows, spans, strides, base
        # The strides of the axes off the run axis, in axis order.
        self.cross = [strides[a] for a in order[:-1]]
        self.shifts = [s.bit_length() - 1 for s in strides]
        # The stride bits: a cell's dimension is the popcount of its flat index masked by them.
        self.parity = sum(strides)
        # Every flat index, and every sum or difference of one with a stride
        # that the engine forms, is below the frame's size `stride`.
        self.dtype = np.int64 if stride < 2**63 else object

    def dims(self, flat: np.ndarray) -> np.ndarray:
        """The dimension of each cell: the number of stride bits its flat index sets."""
        return np.bitwise_count(flat & self.parity)

    def codes(self, flat: np.ndarray) -> np.ndarray:
        """The codes of the flat indices, one cube per row."""
        shifts, spans, lo = (np.array(v, dtype=self.dtype) for v in (self.shifts, self.spans, self.lo))
        return ((flat[:, None] >> shifts) & spans) + lo

    def flat(self, columns: np.ndarray) -> np.ndarray:
        """The flat indices of the cubes whose codes on axis a are row a of an int array, in their order.

        The sum of (code_a - lo_a) * stride_a is taken axis by axis, so every
        partial sum is a flat index inside the frame, below its size.
        """
        columns = columns.astype(self.dtype, copy=False)
        total = np.zeros(columns.shape[1], dtype=self.dtype)
        for codes, lo, stride in zip(columns, self.lo, self.strides):
            total += (codes - lo) * stride
        return total

    def decode(self, flat: np.ndarray) -> Iterator[Cube]:
        """Code tuples of the flat indices, in their order."""
        if not self.strides:
            return iter([()] * len(flat))
        return zip(*self.codes(flat).T.tolist())


def _encode(
    cubes: Union[Collection[Cube], np.ndarray], ambient_dim: int, run_axis: int = -1
) -> Tuple[_Frame, np.ndarray]:
    """Frame around the cubes with stride 1 on `run_axis`, and the sorted array of their flat indices.

    `cubes` holds code tuples, or is an (N, ambient_dim) int array of codes,
    one cube per row, read axis by axis.
    """
    if isinstance(cubes, np.ndarray):
        if cubes.ndim != 2 or cubes.shape[1] != ambient_dim:
            raise ValueError(f"code array of shape {cubes.shape} has no {ambient_dim} axes")
        # One contiguous row per axis.  A reduction over a C-ordered (N, 3)
        # array runs row by row: on the 3,898 top cells of a deformed
        # shell-k2 lift, min(0) takes 83 us on them and 3 us once they are
        # column-major (timeit, min of 7 x 200).  The grid builders hand over
        # column-major arrays, which are read in place; any other is copied
        # once.
        columns = np.asfortranarray(cubes).T
        bounds = list(zip(columns.min(1).tolist(), columns.max(1).tolist())) if len(cubes) else [(0, 0)] * ambient_dim
        frame = _Frame(bounds, run_axis)
        flat = frame.flat(columns)
        # The grid builders list their cubes in lexicographic order of the
        # codes, which is flat order when the run axis is the last;
        # otherwise one stable sort merges the ascending runs in a single
        # pass.  It is also the sort closure already loads: numpy's default
        # sort maps more code on first use, and with it here the peak RSS of
        # `perfbench/run.py` rose by a median 0.41 MB on sphere-lift and
        # 0.45 MB on cli-small, in each of 6 runs a side.
        if np.count_nonzero(flat[1:] < flat[:-1]):
            flat = np.sort(flat, kind="stable")
        return frame, flat
    if set(map(len, cubes)) - {ambient_dim}:
        c = next(c for c in cubes if len(c) != ambient_dim)
        raise ValueError(f"cube {c!r} has {len(c)} axes, ambient dimension is {ambient_dim}")
    frame = _Frame([(min(col), max(col)) for col in zip(*cubes)] if cubes else [(0, 0)] * ambient_dim, run_axis)
    strides, base = frame.strides, frame.base
    return frame, np.array(sorted({sum(map(mul, c, strides)) - base for c in cubes}), dtype=frame.dtype)


def _merge(first: np.ndarray, last: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The maximal runs covering stretches of flat indices, given the sorted
    first indices and, sorted on their own, the last indices of the stretches.

    A cell x with last[i] < x < first[i + 1] lies in no stretch: the i + 1
    stretches that start below x all end below it.  Every other cell from
    first[0] to last[-1] lies in one, so the runs start at first[0] and after
    each such gap, and end before each gap and at last[-1].
    """
    if not len(first):
        return first, last
    gap = first[1:] > last[:-1] + 1
    return first[np.concatenate(([True], gap))], last[np.concatenate((gap, [True]))]


def _cells(first: np.ndarray, last: np.ndarray) -> Iterator[int]:
    """The flat indices of the cells of the runs [first, last], in ascending order.

    A Python iterator: the complexes whose cells are listed are small, or
    are decoded into a Python tuple per cell anyway, and on them a few numpy
    calls cost more than a pass over the cells.
    """
    return itertools.chain.from_iterable(map(range, first.tolist(), map((1).__add__, last.tolist())))


class CubicalComplex:
    """Immutable set of elementary cubes sharing one ambient dimension.

    Construct through `close_under_faces` to guarantee face-closure; the
    homology routines assume it, and `betti` raises when a face is missing.
    """

    __slots__ = ("ambient_dim", "_frame", "_first", "_last", "_len", "_counts", "_cells")

    def __init__(self, ambient_dim: int, cells: Iterable[Cube]):
        cells = frozenset(cells)
        frame, flat = _encode(cells, int(ambient_dim))
        self._store(int(ambient_dim), frame, *_merge(flat, flat), len(flat))
        self._cells = cells

    @classmethod
    def _from_runs(cls, ambient_dim: int, frame: _Frame, first: np.ndarray, last: np.ndarray) -> "CubicalComplex":
        self = cls.__new__(cls)
        self._store(ambient_dim, frame, first, last, int(np.add.reduce(last - first)) + len(first))
        return self

    def _store(self, ambient_dim: int, frame: _Frame, first: np.ndarray, last: np.ndarray, n_cells: int) -> None:
        """Keep the runs and the number of cells; the cells are counted by dimension and decoded on first use."""
        self.ambient_dim, self._frame, self._first, self._last = ambient_dim, frame, first, last
        self._len, self._counts, self._cells = n_cells, None, None

    def _flat(self) -> np.ndarray:
        return np.fromiter(_cells(self._first, self._last), self._frame.dtype, len(self))

    def _dim_counts(self) -> List[int]:
        """The number of cells of each dimension up to the top one.

        The cells of a run even on the run axis have the dimension p of its
        first cell with the run axis, bit 0, masked off, and the odd ones p + 1.
        """
        if self._counts is None:
            first, last = self._first, self._last
            # On an object frame the popcounts are Python ints.
            p = self._frame.dims(first & -2).astype(np.intp)
            odd = (((last + 1) >> 1) - (first >> 1)).astype(np.int64, copy=False)
            counts = np.zeros(self.ambient_dim + 2, dtype=np.int64)
            np.add.at(counts, p, (last - first + 1).astype(np.int64, copy=False) - odd)
            np.add.at(counts, p + 1, odd)
            counts = counts.tolist()
            while counts and not counts[-1]:
                counts.pop()
            self._counts = counts
        return self._counts

    @property
    def cells(self) -> frozenset:
        """The cells as code tuples, decoded on first use."""
        if self._cells is None:
            self._cells = frozenset(self._frame.decode(self._flat()))
        return self._cells

    def __len__(self):
        return self._len

    def __repr__(self):
        return f"CubicalComplex(ambient_dim={self.ambient_dim}, n_cells={len(self)})"

    @property
    def dim(self) -> int:
        """Largest cell dimension present (-1 for the empty complex)."""
        return len(self._dim_counts()) - 1

    def n_cells(self, d: int) -> int:
        counts = self._dim_counts()
        return counts[d] if 0 <= d < len(counts) else 0

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self._dim_counts()))


def close_under_faces(
    cubes: Union[Iterable[Cube], np.ndarray], ambient_dim: Optional[int] = None, *, run_axis: int = -1
) -> CubicalComplex:
    """Smallest face-closed complex containing the given cubes.

    The cubes are code tuples, or the rows of an int array of codes.  The
    ambient dimension defaults to the axis count of the first cube; a cube
    with another axis count raises ValueError.  The closure is built on
    runs along `run_axis`, by default the last axis, as the module
    docstring describes; the run axis changes how the cells are stored and
    ranked, not which cells there are.
    """
    if not isinstance(cubes, np.ndarray):
        cubes = list(cubes)
    if ambient_dim is None:
        ambient_dim = len(cubes[0]) if len(cubes) else 0
    if ambient_dim and not -ambient_dim <= run_axis < ambient_dim:
        raise ValueError(f"run axis {run_axis} is not one of the {ambient_dim} axes")
    frame, flat = _encode(cubes, ambient_dim, run_axis)
    odd = flat & 1
    first, last = _merge(flat - odd, flat + odd)
    for s in frame.cross:
        odd = (first & s) != 0
        if np.count_nonzero(odd):
            ends = []
            for x in (first, last):
                y = x[odd]
                ends.append(np.sort(np.concatenate((x, y - s, y + s)), kind="stable"))
            first, last = _merge(*ends)
    return CubicalComplex._from_runs(ambient_dim, frame, first, last)


# `betti` ranks a complex of at least this many cells through its run
# complex, and runs the free-face rounds on the run complex only when it has
# this many runs.  Timeit, min of 7 x 200 in each of 3 processes, 2-core VM,
# through the run complex with the rounds on: an 8-cell hollow square ranks
# in 8-13 us directly and in 44-65 us through its 4 runs; the 324-cell
# products-k2 grid in 225-352 us directly and in 76-109 us through its 36
# runs; the 1,092-cell products-k1 lift in 829-1,263 us directly and in
# 224-330 us through its 172 runs.
_COLLAPSE_MIN_CELLS = 512


def _run_complex(c: CubicalComplex) -> np.ndarray:
    """Face table of the run complex of c; ValueError naming a missing face unless c is face-closed.

    The module docstring gives the conditions and the search.  The table is
    one C-contiguous intp array with a row per run.  Column 2a of row r
    holds the run that holds t_r - stride_a, and column 2a + 1 the run that
    holds t_r + stride_a, along the a-th axis off the run axis; where t_r is
    even on that axis both entries are the run count n, which names no run.
    """
    frame, first, last = c._frame, c._first, c._last
    for ends, step in ((first, -1), (last, 1)):
        odd = (ends & 1) != 0
        if np.count_nonzero(odd):
            raise _missing_face(frame, ends[odd] + step)
    n = len(last)
    table = np.full((n, 2 * len(frame.cross)), n, dtype=np.intp)
    for a, s in enumerate(frame.cross):
        odd = ((last & s) != 0).nonzero()[0]
        starts, tops = first[odd], last[odd]
        for column, t in ((2 * a, -s), (2 * a + 1, s)):
            runs = last.searchsorted(tops + t)
            gone = odd[~((runs < n) & (first.take(runs, mode="clip") <= starts + t))]
            if len(gone):
                cells = np.fromiter(_cells(first[gone[:1]] + t, last[gone[:1]] + t), frame.dtype)
                holder = last.searchsorted(cells)
                raise _missing_face(frame, cells[(holder == n) | (first.take(holder, mode="clip") > cells)])
            table[odd, column] = runs
    return table


def _collapse(table: np.ndarray) -> np.ndarray:
    """Ascending indices of the runs that free-face rounds leave of the run complex with face table `table`.

    Each run keeps its number of live cofaces and the sum of their indices,
    which is the index of its one live coface when it has exactly one.  A
    round removes the pairs (f, g) of free runs f and their cofaces g, one f
    per g, which the module docstring shows to be exact, and updates the two
    counts of the faces of the removed runs; those faces are the only runs
    that can become free.  The counts have one more slot, n, where every
    filler entry of the table lands; its count stays even, so it never
    reads free.
    """
    n, width = table.shape
    # np.add.at and np.subtract.at get 1-D intp indices, and values of the
    # same length or one scalar.  On numpy 2.4.6, 2-D intp indices with 1-D
    # values broadcast over them read past the values (wrong sums at 2 x 3,
    # a crash at 8 x 13,448).
    faces = table.ravel()
    count = np.bincount(faces, minlength=n + 1)
    total = np.zeros(n + 1, dtype=np.intp)
    np.add.at(total, faces, np.arange(n).repeat(width))
    alive = np.ones(n, dtype=bool)
    pick = np.empty(n, dtype=np.intp)
    free = (count == 1).nonzero()[0]
    # The rounds gather with take and compress, which skip the general
    # indexing machinery: most rounds touch a few runs, so per-call cost
    # dominates.  On the products-k2 lift the 33 rounds took a median
    # 1.78 ms this way against 2.24 ms with subscripts (timeit, 21 x min of
    # 3 x 10, 2-core VM).
    while len(free):
        coface = total.take(free)
        # One of the writes to pick[g] survives; that free run becomes g's pair.
        positions = np.arange(len(free))
        pick[coface] = positions
        first = pick.take(coface) == positions
        gone = np.concatenate((free.compress(first), coface.compress(first)))
        alive[gone] = False
        faces = table.take(gone, axis=0).ravel()
        np.subtract.at(count, faces, 1)
        np.subtract.at(total, faces, gone.repeat(width))
        # A removed f lost its one live coface with g, so no removed run counts 1.
        free = faces.compress(count.take(faces) == 1)
    return alive.nonzero()[0]


_bit = (1).__lshift__  # _bit(r) == 1 << r


def _missing_face(frame: _Frame, faces: np.ndarray) -> ValueError:
    face = next(frame.decode(faces[:1]))
    return ValueError(f"complex is not face-closed: missing {face!r}")


def _boundary(frame: _Frame, groups: Sequence[Sequence[int]], d: int, cleared: Iterable[int] = ()) -> GF2Matrix:
    """Boundary matrix from the d-cells to the (d-1)-cells, `groups[d]` and `groups[d - 1]` as ascending flat indices.

    The faces x - stride_a and x + stride_a of each d-cell x, along each
    axis a where x is odd, are looked up in a dict of the (d-1)-cells, which
    gives their rows and checks that they are there; the first face missing,
    cell by cell and axis by axis, raises.  The columns of the d-cells at the
    positions `cleared` are zero; their faces are looked up all the same.
    """
    rows = {x: _bit(i) for i, x in enumerate(groups[d - 1])}
    columns = []
    for x in groups[d]:
        column = 0
        for s in frame.strides:
            if x & s:
                for face in (x - s, x + s):
                    if face not in rows:
                        raise _missing_face(frame, np.array([face], dtype=frame.dtype))
                    column |= rows[face]
        columns.append(column)
    for j in cleared:
        columns[j] = 0
    return GF2Matrix(len(rows), columns)


def _run_boundary(table: np.ndarray, groups: Sequence[np.ndarray], d: int, cleared: Iterable[int] = ()) -> GF2Matrix:
    """Boundary matrix of the run complex with face table `table` from the live d-runs to the live (d-1)-runs.

    `groups[d]` holds the ascending indices of the live d-runs.  Their faces
    are found among the live (d-1)-runs by one binary search.  A live run
    whose face is not live raises ValueError: the free-face rounds remove a
    face only with its last live coface.  The columns of the d-runs at the
    positions `cleared` are zero.
    """
    faces = table[groups[d]]
    faces = faces[faces < len(table)].reshape(-1, 2 * d)
    lower = groups[d - 1]
    rows = lower.searchsorted(faces)
    # take() needs a value to read; with `lower` empty every face is missing.
    missing = lower.take(rows, mode="clip") != faces if len(lower) else np.ones(faces.shape, dtype=bool)
    if np.count_nonzero(missing):
        raise ValueError(f"run complex is not closed: a live run has the removed face {faces[missing][0]}")
    rows = rows.tolist()
    for r in cleared:
        rows[r] = ()
    return GF2Matrix(len(lower), [sum(map(_bit, r)) for r in rows])


def betti(c: CubicalComplex) -> Tuple[int, ...]:
    """Mod-2 Betti numbers b_0 .. b_top of a face-closed complex.

    top is the largest cell dimension present; the empty complex yields an
    all-zero vector of length ambient_dim + 1.  A complex that is not
    face-closed raises ValueError.  The boundary maps are ranked from the
    top dimension down, each with the columns of the pivot rows of the one
    above cleared (module docstring).
    """
    n_cells = len(c)
    if not n_cells:
        return (0,) * (c.ambient_dim + 1)
    if n_cells >= _COLLAPSE_MIN_CELLS:
        table = _run_complex(c)
        n = len(table)
        runs = _collapse(table) if n >= _COLLAPSE_MIN_CELLS else np.arange(n)
        # A run's cells have the dimension p of its top and, when it holds
        # more than one cell, p + 1 for the odd ones.
        dims = c._frame.dims(c._last)
        top = int((dims + (c._last > c._first)).max())
        dims = dims[runs]
        groups = [runs[dims == d] for d in range(top + 1)]
        boundary = partial(_run_boundary, table)
    else:
        # Fewer than _COLLAPSE_MIN_CELLS cells: one pass in Python sorts the
        # cells by dimension.
        groups = [[] for _ in range(c.ambient_dim + 1)]
        for x in _cells(c._first, c._last):
            groups[(x & c._frame.parity).bit_count()].append(x)
        while not groups[-1]:
            groups.pop()
        boundary = partial(_boundary, c._frame)
    ranks = [0] * (len(groups) + 1)
    cleared: Sequence[int] = ()
    for d in range(len(groups) - 1, 0, -1):
        matrix = boundary(groups, d, cleared)
        ranks[d] = matrix.rank()
        cleared = matrix.pivot_rows
    return tuple([len(g) - ranks[d] - ranks[d + 1] for d, g in enumerate(groups)])
