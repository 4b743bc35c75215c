"""Curated scenarios with known topology and the audits that check the bounds.

Verdict vocabulary: VIOLATION is reserved for exact contradictions, which
would mean a bug: an oracle Betti number exceeding an exact bound, or a
Mayer-Vietoris check on exact cubical pieces whose union's b_i exceeds
the sum over its pieces' intersections (`mv-fabricated-violation` reads
it); every approximation-sourced mismatch is INCONCLUSIVE and comes with a
refinement hint (finer grid, smaller eps or t).  Oracle Betti vectors
are hardcoded with a provenance note and never computed by the code under
audit.

Every grid set an audit builds from a system is ranked by `_block_betti`.
The module holds no grid: Smith and Alexander pass the unit sphere and
width 1/8 to the builders, and the lift audits the radius-2/eps sphere and
the lift's width.  It imports no numpy and no private name of another
module, so it reaches grid cells only through the builders, and `cli` takes
its exit code from `overall`.  Every report serializes through `to_dict`
and names its CSV rows with `csv_table`, and each audit builds its report
in one place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .bounds import b_ci, bound_aggregate, bound_betti
from .exact import (
    QuadraticForm,
    QuadraticPoly,
    check_smooth_pencil,
    dehomogenize,
    homogenize,
    is_nonsingular_quadric,
    parse_rational,
    positive,
    random_pd_form,
)
from .homology import CubicalComplex, betti, close_under_faces, make_cube
from .quadforms import (
    DeformationParams,
    GridSpec,
    grid_block,
    sphere_region_block,
    sphere_zero_complex,
    sphere_zero_split,
)

__all__ = [
    "PASS",
    "VIOLATION",
    "INCONCLUSIVE",
    "overall",
    "pad_betti",
    "mayer_vietoris_audit",
    "Scenario",
    "scenario_products",
    "scenario_shell",
    "AuditRow",
    "BoundAuditReport",
    "bound_audit",
    "SmithReport",
    "smith_audit",
    "DoubleCoverReport",
    "double_cover_audit",
    "DeformationReport",
    "deformation_audit",
    "AlexanderReport",
    "alexander_equator_audit",
    "MVExample",
    "mv_wedge_example",
    "mv_disjoint_example",
    "mv_three_arc_example",
    "mv_fabricated_example",
    "CONE",
    "run_verification_suite",
]

PASS = "PASS"
VIOLATION = "VIOLATION"
INCONCLUSIVE = "INCONCLUSIVE"


def pad_betti(v: Sequence[int], length: int) -> Tuple[int, ...]:
    """Right-pad a Betti vector with zeros (error if nonzero entries are cut)."""
    v = tuple(v)
    if len(v) > length and any(v[length:]):
        raise ValueError(f"cannot truncate nonzero Betti entries from {v}")
    return (v + (0,) * length)[:length]


@dataclass(frozen=True)
class Scenario:
    """Inequality system with an optional hand-derived Betti oracle."""

    name: str
    system: Tuple[QuadraticPoly, ...]
    s: int
    k: int
    grid: GridSpec
    oracle_betti: Optional[Tuple[int, ...]] = None
    oracle_note: str = ""

    def __post_init__(self):
        if self.s != len(self.system):
            raise ValueError(f"s={self.s} but system has {len(self.system)} polynomials")
        # The audits read b_0..b_k from grid complexes unpadded, so the grid
        # and every polynomial must have k axes.
        if self.grid.dim != self.k:
            raise ValueError(f"grid has {self.grid.dim} axes, scenario has k={self.k}")
        for p in self.system:
            if p.k != self.k:
                raise ValueError(f"polynomial has {p.k} variables, scenario has k={self.k}")
        if self.oracle_betti is not None and len(self.oracle_betti) != self.k + 1:
            raise ValueError(
                f"oracle must list b_0..b_{self.k} ({self.k + 1} entries), "
                f"got {len(self.oracle_betti)}"
            )


def scenario_products(k: int) -> Scenario:
    """The coordinate-product system X_i(X_i - 1) >= 0, i = 1..k.

    Its solution set is the union of 2^k unbounded contractible 'quadrant'
    pieces, one per choice of X_i <= 0 or X_i >= 1, so the oracle is
    b_0 = 2^k and nothing above.  On the recommended box [-1, 2]^k at
    resolution 1/4 the grid reproduces each piece as a solid block.
    """
    if not 1 <= k <= 6:
        raise ValueError(f"desk scale is 1 <= k <= 6, got {k}")
    system = []
    for i in range(k):
        quad = [
            [Fraction(1) if (a == i and b == i) else Fraction(0) for b in range(k)]
            for a in range(k)
        ]
        lin = [Fraction(-1) if a == i else Fraction(0) for a in range(k)]
        system.append(QuadraticPoly.make(k, quad=quad, lin=lin, const=0))
    grid = GridSpec(box=((Fraction(-1), Fraction(2)),) * k, resolution=Fraction(1, 4))
    return Scenario(
        name=f"products-k{k}",
        system=tuple(system),
        s=k,
        k=k,
        grid=grid,
        oracle_betti=(2**k,) + (0,) * k,
        oracle_note="2^k contractible quadrant pieces (product structure)",
    )


def scenario_shell(k: int, r_in, r_out) -> Scenario:
    """Spherical shell r_in <= |x| <= r_out, which retracts to the (k-1)-sphere."""
    if not 2 <= k <= 3:
        raise ValueError(f"desk scale is 2 <= k <= 3, got {k}")
    rin = parse_rational(r_in)
    rout = parse_rational(r_out)
    if not 0 < rin < rout:
        raise ValueError(f"need 0 < r_in < r_out, got {rin}, {rout}")
    neg_identity = [
        [Fraction(-1) if a == b else Fraction(0) for b in range(k)] for a in range(k)
    ]
    identity = [
        [Fraction(1) if a == b else Fraction(0) for b in range(k)] for a in range(k)
    ]
    outer = QuadraticPoly.make(k, quad=neg_identity, const=rout * rout)
    inner = QuadraticPoly.make(k, quad=identity, const=-rin * rin)
    res = Fraction(1, 20) if k == 2 else Fraction(1, 10)
    grid = GridSpec.symmetric(rout * Fraction(5, 4), res, k)
    oracle = [0] * (k + 1)
    oracle[0] = 1
    oracle[k - 1] += 1  # sphere S^{k-1}: b_0 = b_{k-1} = 1
    return Scenario(
        name=f"shell-k{k}",
        system=(outer, inner),
        s=2,
        k=k,
        grid=grid,
        oracle_betti=tuple(oracle),
        oracle_note=f"shell between radii {rin} and {rout} retracts onto a midsphere S^{k - 1}",
    )


# ---------------------------------------------------------------------------
# Report serialization, shared by every audit report.


def _jsonable(value):
    if isinstance(value, _Report):
        return value.to_dict()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {",".join(map(str, key)) if isinstance(key, tuple) else key: _jsonable(v)
                for key, v in value.items()}
    return value


class _Report:
    """Base of the report dataclasses: one serializer and one CSV shape.

    Fields serialize in declaration order; a Fraction becomes "p/q", a tuple
    a list and a tuple dict key "a,b".
    """

    def to_dict(self) -> Dict:
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}

    def csv_table(self) -> Tuple[List[str], List[Dict]]:
        """Columns and rows of the CSV output; by default the document is the one row."""
        doc = self.to_dict()
        return list(doc), [doc]


@dataclass(frozen=True)
class AuditRow(_Report):
    i: int
    betti: int
    bound: Fraction
    verdict: str

    def to_dict(self) -> Dict:
        """The bound splits into the ints bound_num and bound_den (CSV columns)."""
        return {"i": self.i, "betti": self.betti, "bound_num": self.bound.numerator,
                "bound_den": self.bound.denominator, "verdict": self.verdict}


@dataclass(frozen=True)
class BoundAuditReport(_Report):
    scenario: str
    s: int
    k: int
    rows: Tuple[AuditRow, ...]
    total: AuditRow
    overall: str
    params: Dict[str, str] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return self.overall

    def csv_table(self) -> Tuple[List[str], List[Dict]]:
        return list(self.total.to_dict()), [r.to_dict() for r in self.rows]


def overall(verdicts: Sequence[str]) -> str:
    """The worst of the verdicts: VIOLATION, then INCONCLUSIVE, then PASS."""
    if VIOLATION in verdicts:
        return VIOLATION
    if INCONCLUSIVE in verdicts:
        return INCONCLUSIVE
    return PASS


def _block_betti(built: Tuple[CubicalComplex, int]) -> Tuple[int, ...]:
    """Betti vector of the set a `(block, copies)` pair of `grid_block` or
    `sphere_region_block` stands for: `copies` times the block's, so a mirror
    or antipodal copy is never closed or ranked.  The Smith and Alexander
    audits rank their whole sphere sets: Smith's odd-total guard needs both
    antipodal halves, and the equator band straddles x_3 = 0.  An undeformed
    lift at the default resolution comes back as its polar cap, with 2
    copies; a deformed lift, whose seeded family has linear terms, and a
    coarse lift whose middle layers hold lift candidates come back whole,
    with 1 copy."""
    block, copies = built
    return tuple(copies * b for b in betti(block))


def bound_audit(sc: Scenario, spec: Optional[GridSpec] = None) -> BoundAuditReport:
    """Compare per-degree Betti numbers of a scenario against the exact bounds.

    Without a spec the hardcoded oracle vector is audited and a failed
    comparison is a VIOLATION.  With a GridSpec the Betti numbers
    come from grid homology, and a failed comparison is only INCONCLUSIVE
    (grid values approximate; they cannot falsify a bound).
    """
    params: Dict[str, str] = {}
    if spec is None:
        if sc.oracle_betti is None:
            raise ValueError(f"scenario {sc.name} has no oracle Betti vector")
        vec = sc.oracle_betti
        fail = VIOLATION
        params["oracle_note"] = sc.oracle_note
    else:
        vec = _block_betti(grid_block(sc.system, spec))
        fail = INCONCLUSIVE
        params["resolution"] = str(spec.resolution)
    rows = []
    for i in range(sc.k):
        bound = bound_betti(sc.s, sc.k, i)
        rows.append(AuditRow(i=i, betti=vec[i], bound=bound,
                             verdict=PASS if vec[i] <= bound else fail))
    total_bound = bound_aggregate(sc.s, sc.k).total
    total_val = sum(vec)
    total = AuditRow(i=-1, betti=total_val, bound=total_bound,
                     verdict=PASS if total_val <= total_bound else fail)
    verdict = overall([r.verdict for r in rows] + [total.verdict])
    if verdict == INCONCLUSIVE:
        params["hint"] = "halve the grid resolution or supply an oracle"
    return BoundAuditReport(
        scenario=sc.name, s=sc.s, k=sc.k, rows=tuple(rows), total=total,
        overall=verdict, params=params,
    )


@dataclass(frozen=True)
class SmithReport(_Report):
    verdict: str
    sphere_betti: Tuple[int, ...]
    sphere_total: int
    projective_total: int
    bound: int
    codim: int
    proj_dim: int
    note: str = ""


def smith_audit(forms: Sequence[QuadraticForm], radius=1) -> SmithReport:
    """Check the projective zero set of a quadric tuple against its bound.

    The zero set is approximated on the unit sphere (grid width 1/8, 20
    cells per axis) at band half-width tau = 1/(4 * radius), its total
    Betti number is halved (the sphere set double-covers the projective set
    under the antipodal map; halving can only undercount, which keeps the
    audited inequality sound), and the result is compared with the exact
    total for a smooth degree-2 complete intersection of the same
    codimension.  Grid-based throughout, so the verdict is PASS
    or INCONCLUSIVE, never VIOLATION.

    A grid vector with b_{n-1} >= 1 misreads the zero set Z, whatever the
    bound: every form is nonsingular, so nonzero, and Z is a proper closed
    subset of S^{n-1}, so H_{n-1}(Z; GF(2)) = 0 by Alexander duality.  A
    small radius gives that reading, since its large tau keeps the whole
    band of the sphere.  The verdict is then INCONCLUSIVE, from the vector
    already ranked.  The report carries at most one note: an odd sphere
    total, a top-degree reading or the bound exceeded, in that order, and
    a note alone makes the verdict INCONCLUSIVE.

    The cells are those of the radius-r sphere at grid width r/8 and tau
    r/4: that grid is the unit one scaled by r, and both tests are
    homogeneous, since the sphere crosses the cube r*C iff the unit sphere
    crosses C, and |Q(r*c)| <= r/4 iff |Q(c)| <= 1/(4r).  So the kept cells,
    their run axis and the Betti vector are the same, and Smith at every
    radius reads the one unit-sphere grid and candidate entry.

    The bound holds for smooth complete intersections only, so that
    hypothesis is checked exactly, with no float, before any grid work; a
    ValueError is raised when it fails.  The codimension is checked first:
    it is rejected above the projective dimension, and from 3 up, where no
    exact check is implemented.  Then one exact test runs.  One form must be
    nonsingular (invertible Gram matrix), which is the whole hypothesis.
    Two forms A, B must be nonsingular and pass Segre's criterion: det(A + tB)
    has n distinct roots (`exact.check_smooth_pencil`, which tests both; M.
    Reid, *The complete intersection of two or more quadrics*, PhD thesis,
    Cambridge 1972).
    """
    if not forms:
        raise ValueError("need at least one form")
    n = forms[0].n
    codim = len(forms)
    proj_dim = n - 1
    if codim > proj_dim:
        raise ValueError(f"codimension {codim} exceeds projective dimension {proj_dim}")
    if codim > 2:
        raise ValueError(f"codimension {codim} rejected: smoothness is checked exactly "
                         "only up to codimension 2")
    if codim == 2:
        check_smooth_pencil(*forms)
    elif not is_nonsingular_quadric(forms[0]):
        raise ValueError("singular quadric rejected (Gram matrix not invertible)")
    r = positive(radius, "radius")
    vec = betti(sphere_zero_complex(forms, 1, Fraction(1, 8), 1 / (4 * r)))
    total = sum(vec)
    bound = b_ci(codim, proj_dim, (2,) * codim)
    projective_total = total // 2
    top = pad_betti(vec, n + 1)[n - 1]
    if total % 2:
        # Cannot fire on a grid: the box is symmetric and the antipodal map acts freely on
        # the band cells, so chi is even and so is the GF(2) total.  Kept as a guard.
        note = "sphere total is odd, antipodal pairing broken; refine the grid"
    elif top:
        note = (f"sphere set reads b_{n - 1} = {top}, but a nonsingular form's zero set is a "
                f"proper subset of the sphere, where b_{n - 1} = 0; raise the radius")
    elif projective_total > bound:
        note = "grid estimate exceeds the bound; refine the grid or tau"
    else:
        note = ""
    return SmithReport(
        verdict=INCONCLUSIVE if note else PASS,
        sphere_betti=vec,
        sphere_total=total,
        projective_total=projective_total,
        bound=bound,
        codim=codim,
        proj_dim=proj_dim,
        note=note,
    )


def _lift(sc: Scenario, eps: Fraction, resolution) -> Optional[Tuple[Fraction, List[QuadraticPoly]]]:
    """The cell width of a scenario's lift onto the radius-2/eps sphere,
    `resolution`, or r/32 = 1/(16 eps) when it is None, and its homogenized
    system; or None when the scenario box leaves the radius-1/eps ball, and
    the audit then reports INCONCLUSIVE with its lift fields at their
    defaults (both reports take keyword arguments only)."""
    if sum(max(lo * lo, hi * hi) for lo, hi in sc.grid.box) > 1 / eps**2:
        return None
    width = 1 / (16 * eps) if resolution is None else positive(resolution, "resolution")
    return width, [homogenize(p).as_poly() for p in sc.system]


# Note of a lift report whose scenario box leaves the ball; its lift fields keep their defaults.
_BALL_NOTE = "scenario box exceeds the radius-1/eps ball; shrink eps"


@dataclass(frozen=True, kw_only=True)
class DoubleCoverReport(_Report):
    scenario: str
    verdict: str
    base_betti: Tuple[int, ...] = ()
    base_source: str = "none"
    lifted_betti: Tuple[int, ...] = ()
    eps: Fraction
    note: str = ""


def double_cover_audit(
    sc: Scenario,
    params: Optional[DeformationParams] = None,
    sphere_resolution=None,
) -> DoubleCoverReport:
    """Check that lifting a scenario onto the sphere of radius 2/eps doubles Betti.

    The lifted set consists of two polar copies of the affine set (each cap
    is a graph over the truncating ball, and the homogenized inequalities
    restrict to the originals there), so every Betti number must double.
    Uses the oracle vector when the scenario has one, else the affine grid
    vector.  If the scenario's box pokes outside the ball of radius 1/eps
    the verdict is INCONCLUSIVE with guidance to shrink eps.
    """
    params = params or DeformationParams()
    eps = params.eps
    lift = _lift(sc, eps, sphere_resolution)
    if lift is None:
        return DoubleCoverReport(scenario=sc.name, verdict=INCONCLUSIVE, eps=eps, note=_BALL_NOTE)
    width, polys = lift
    if sc.oracle_betti is not None:
        base = sc.oracle_betti
        base_source = "oracle"
    else:
        base = _block_betti(grid_block(sc.system, sc.grid))
        base_source = "grid"
    lifted = _block_betti(sphere_region_block(polys, eps, width, sc.k + 1))
    expected = pad_betti(tuple(2 * b for b in base), sc.k + 2)
    ok = lifted == expected
    return DoubleCoverReport(
        scenario=sc.name,
        verdict=PASS if ok else INCONCLUSIVE,
        base_betti=base,
        base_source=base_source,
        lifted_betti=lifted,
        eps=eps,
        note="" if ok else "doubling mismatch; refine the sphere grid or shrink eps",
    )


@dataclass(frozen=True, kw_only=True)
class DeformationReport(_Report):
    scenario: str
    verdict: str
    betti_by_t: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    eps: Fraction
    delta: Fraction
    note: str = ""

    def csv_table(self) -> Tuple[List[str], List[Dict]]:
        return ["t", "betti"], [{"t": t, "betti": list(v)} for t, v in self.betti_by_t.items()]


# Most distinct t values one deformation audit takes, checked before any lift
# is built: each t costs one whole deformed lift (products-k2: about 11 ms).
# Every test, menu and golden lists at most 5.
MAX_T_VALUES = 64


def deformation_audit(
    sc: Scenario,
    params: Optional[DeformationParams] = None,
    t_values: Sequence = (Fraction(0), Fraction(1, 1000)),
    sphere_resolution=None,
    seed: int = 0,
) -> DeformationReport:
    """Blend the lifted system toward a positive definite family and re-audit.

    For each t the system (1-t) * P_h + t * H, with H the seeded positive
    definite family, is lifted onto the sphere and its grid Betti vector
    computed; the verdict is PASS when every vector matches the t = 0
    vector, and INCONCLUSIVE otherwise.  "Sufficiently small" is the
    requested t values: a t past a sign change at some cell center can
    change the cell set and its Betti vector (products-k2 at t = 1/1000
    reads (2, 2, 0, 0) against (8, 0, 0, 0) at t = 0).  The closed-set grid
    approximation stands in for both the open and the closed deformed sets.
    The t = 0 reference is reported whether or not `t_values` holds 0.  More
    than MAX_T_VALUES distinct t values, a t outside [0, delta], or a list
    with no t in (0, delta], which would compare nothing, raises ValueError
    before any lift is built.
    """
    params = params or DeformationParams()
    ts = sorted({parse_rational(t) for t in t_values})
    if len(ts) > MAX_T_VALUES:
        raise ValueError(f"{len(ts)} distinct t values, above the limit of {MAX_T_VALUES}")
    for t in ts:
        if not 0 <= t <= params.delta:
            raise ValueError(f"t={t} outside [0, delta={params.delta}]")
    if not any(ts):
        raise ValueError(f"t values [{', '.join(map(str, ts))}] hold no t in "
                         f"(0, delta={params.delta}], so the audit would compare nothing")
    lift = _lift(sc, params.eps, sphere_resolution)
    if lift is None:
        return DeformationReport(scenario=sc.name, verdict=INCONCLUSIVE, eps=params.eps,
                                 delta=params.delta, note=_BALL_NOTE)
    width, base_polys = lift
    family = [
        dehomogenize(random_pd_form(sc.k + 2, seed + i)) for i in range(sc.s)
    ]
    reference = _block_betti(sphere_region_block(base_polys, params.eps, width, sc.k + 1))
    betti_by_t = {"0": reference}
    betti_by_t.update((str(t), _block_betti(sphere_region_block(
        [p.blend(h, t) for p, h in zip(base_polys, family)], params.eps, width, sc.k + 1))) for t in ts if t)
    constant = all(v == reference for v in betti_by_t.values())
    return DeformationReport(
        scenario=sc.name,
        verdict=PASS if constant else INCONCLUSIVE,
        betti_by_t=betti_by_t,
        eps=params.eps,
        delta=params.delta,
        note="" if constant else "Betti drift across t; try smaller --t-values",
    )


@dataclass(frozen=True)
class AlexanderReport(_Report):
    verdict: str
    subset_reduced: Tuple[int, ...]
    complement_reduced: Tuple[int, ...]
    sphere_dim: int
    note: str = ""


def _reduced(vec: Sequence[int]) -> Tuple[int, ...]:
    """Reduced b_0 .. b_2 of a nonempty set with Betti vector `vec`: b_0 - 1, b_1, b_2."""
    vec = tuple(vec) + (0, 0, 0)
    return (vec[0] - 1,) + vec[1:3]


def alexander_equator_audit() -> AlexanderReport:
    """Duality spot-check on the unit 2-sphere with the equator circle as subset.

    Compares reduced homology ranks of the complement (two polar caps)
    with reduced ranks of the subset in complementary degree.  Both sides
    are taken reduced; over a field, cohomology ranks equal homology
    ranks, so reduced homology numbers stand in for reduced cohomology.
    The grid width is 1/8 and the equator band half-width tau is 1/4.  A
    Betti vector that no nonempty cubical subset of R^3 has, with b_0 = 0
    or an entry past b_2, reads INCONCLUSIVE with a note naming it, so an
    engine fault never exits 2, the code for a usage error.
    """
    equator = QuadraticForm.make(3, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])  # X3^2 vanishes on the equator plane
    subset, complement = sphere_zero_split([equator], 1, Fraction(1, 8), Fraction(1, 4))
    vectors = {"subset": betti(subset), "complement": betti(complement)}
    # Both sets are nonempty cubical subsets of R^3, so b_0 >= 1 and b_3 = 0;
    # a vector that breaks either is an engine fault, reported, not raised.
    faults = [f"{side} Betti vector {list(v)}" for side, v in vectors.items() if v[0] < 1 or any(v[3:])]
    sub_red, comp_red = (_reduced(v) for v in vectors.values())
    k = 2
    if faults:
        note = f"engine fault: {'; '.join(faults)}, expected b_0 >= 1 and b_3 = 0"
    elif any(comp_red[i] != sub_red[k - i - 1] for i in range(k)):
        note = "reduced ranks mismatch; refine the grid"
    else:
        note = ""
    return AlexanderReport(
        verdict=INCONCLUSIVE if note else PASS,
        subset_reduced=sub_red,
        complement_reduced=comp_red,
        sphere_dim=k,
        note=note,
    )


# ---------------------------------------------------------------------------
# The Mayer-Vietoris check, and example inputs generated with the homology engine.


def mayer_vietoris_audit(union_betti: Sequence[int], piece_betti: Mapping, i: int) -> str:
    """Check b_i(union) against the Mayer-Vietoris style intersection bound.

    `piece_betti` maps each nonempty index set J (tuple or frozenset of
    1-based piece indices, 1 <= |J| <= i+1) to the Betti vector of the
    corresponding intersection of pieces; the piece count is the largest
    index that occurs.  Returns PASS when
    b_i(union) <= sum_{j=1}^{i+1} sum_{|J|=j} b_{i-j+1}(intersection_J),
    VIOLATION otherwise.  A vector shorter than a degree it is read at
    reads 0 there.  No piece data, or a missing index set, raises (no
    verdict).
    """
    if i < 0:
        raise ValueError(f"homology degree must be nonnegative, got {i}")
    # Every degree read is at most i, so i + 1 zeros extend each vector far enough.
    zeros = (0,) * (i + 1)
    pieces = {}
    for key, vec in piece_betti.items():
        fkey = frozenset(int(x) for x in key)
        if not fkey or min(fkey) < 1:
            raise ValueError(f"piece index sets must be nonempty sets of 1-based ints, got {key!r}")
        pieces[fkey] = tuple(vec) + zeros
    if not pieces:
        raise ValueError("no piece Betti data given; audit is inconclusive")
    ell = max(max(J) for J in pieces)
    bound = 0
    for j in range(1, i + 2):
        for J in itertools.combinations(range(1, ell + 1), j):
            key = frozenset(J)
            if key not in pieces:
                raise ValueError(
                    f"missing Betti data for intersection {list(J)}; audit is inconclusive"
                )
            bound += pieces[key][i - j + 1]
    return PASS if (tuple(union_betti) + zeros)[i] <= bound else VIOLATION


@dataclass(frozen=True)
class MVExample(_Report):
    name: str
    union_betti: Tuple[int, ...]
    pieces: Dict[Tuple[int, ...], Tuple[int, ...]]
    degree: int
    verdict: str

    def csv_table(self) -> Tuple[List[str], List[Dict]]:
        return ["name", "degree", "verdict"], [
            {"name": self.name, "degree": self.degree, "verdict": self.verdict}]


def _hollow_square(x: int, y: int) -> CubicalComplex:
    edges = [
        make_cube([(x, x + 1), (y, y)]),
        make_cube([(x, x + 1), (y + 1, y + 1)]),
        make_cube([(x, x), (y, y + 1)]),
        make_cube([(x + 1, x + 1), (y, y + 1)]),
    ]
    return close_under_faces(edges)


def _mv_example(name, pieces: Sequence[CubicalComplex], degree, union_override=None) -> MVExample:
    """Audit the union of `pieces` against their intersections of up to degree + 1 pieces.

    The face-closed pieces share an ambient dimension.  The union and the
    intersections are set operations on the pieces' decoded cells; the
    pieces are small, so that costs fewer numpy calls than merging them in
    a common frame.  Unions and intersections of face-closed complexes are
    face-closed, and the intersection of one piece is that piece.
    """
    ambient_dim = pieces[0].ambient_dim
    cells = [c.cells for c in pieces]
    union_betti = union_override or betti(CubicalComplex(ambient_dim, frozenset().union(*cells)))
    parts = {}
    for size in range(1, degree + 2):
        for J in itertools.combinations(range(len(pieces)), size):
            meet = pieces[J[0]] if size == 1 else CubicalComplex(
                ambient_dim, frozenset.intersection(*(cells[j] for j in J)))
            parts[tuple(j + 1 for j in J)] = betti(meet)
    return MVExample(
        name=name,
        union_betti=tuple(union_betti),
        pieces=parts,
        degree=degree,
        verdict=mayer_vietoris_audit(union_betti, parts, degree),
    )


def mv_wedge_example() -> MVExample:
    """Two circles joined at one point: b_1 = 2 against bound 0 + 0 + 1 + ..."""
    return _mv_example("mv-wedge", [_hollow_square(0, 0), _hollow_square(1, 1)], degree=1)


def mv_disjoint_example() -> MVExample:
    """Two far-apart circles; checks the degree-1 bound with an empty overlap."""
    return _mv_example("mv-disjoint", [_hollow_square(0, 0), _hollow_square(3, 0)], degree=1)


def _three_arcs() -> List[CubicalComplex]:
    """The unit square's boundary as three arcs: bottom and right, top, left."""
    return [
        close_under_faces([make_cube([(0, 1), (0, 0)]), make_cube([(1, 1), (0, 1)])]),
        close_under_faces([make_cube([(0, 1), (1, 1)])]),
        close_under_faces([make_cube([(0, 0), (0, 1)])]),
    ]


def mv_three_arc_example() -> MVExample:
    """A circle covered by three arcs meeting pairwise in single vertices."""
    return _mv_example("mv-three-arcs", _three_arcs(), degree=1)


def mv_fabricated_example() -> MVExample:
    """Deliberately inflated union Betti vector: the checker must flag it."""
    return _mv_example(
        "mv-fabricated-violation", _three_arcs(), degree=1, union_override=(1, 10)
    )


# ---------------------------------------------------------------------------
# Batch runner used by the command line front end.

# The smith-cone audit's form, x^2 + y^2 = z^2; `cli.AUDITS` reads it too.
CONE = QuadraticForm.make(3, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])


def _grid_matches_oracle(sc: Scenario) -> Dict:
    vec = _block_betti(grid_block(sc.system, sc.grid))
    return {"name": f"grid-oracle-{sc.name}", "verdict": PASS if vec == sc.oracle_betti else INCONCLUSIVE,
            "note": f"grid {list(vec)} vs oracle {list(sc.oracle_betti)}"}


# (row name, audit call given the seed); every audit runs at its own defaults.
# Rows reach the audits through this module's globals, so a wrapper installed
# on a module attribute sees every call.
_SUITE = (
    ("bounds-products-k1", lambda seed: bound_audit(scenario_products(1))),
    ("bounds-products-k2", lambda seed: bound_audit(scenario_products(2))),
    ("bounds-products-k3", lambda seed: bound_audit(scenario_products(3))),
    ("grid-oracle-products-k2", lambda seed: _grid_matches_oracle(scenario_products(2))),
    ("bounds-shell-k2", lambda seed: bound_audit(scenario_shell(2, Fraction(1, 2), 1))),
    ("grid-oracle-shell-k2", lambda seed: _grid_matches_oracle(scenario_shell(2, Fraction(1, 2), 1))),
    ("smith-cone", lambda seed: smith_audit([CONE])),
    ("mv-wedge", lambda seed: mv_wedge_example()),
    ("mv-disjoint", lambda seed: mv_disjoint_example()),
    ("mv-three-arcs", lambda seed: mv_three_arc_example()),
    ("alexander-equator", lambda seed: alexander_equator_audit()),
    ("double-cover-products-k1", lambda seed: double_cover_audit(scenario_products(1))),
    ("deformation-products-k1", lambda seed: deformation_audit(scenario_products(1), seed=seed)),
)
_SUITE_FULL = (
    ("grid-oracle-products-k3", lambda seed: _grid_matches_oracle(scenario_products(3))),
    ("grid-oracle-products-k4", lambda seed: _grid_matches_oracle(scenario_products(4))),
    ("bounds-shell-k3", lambda seed: bound_audit(scenario_shell(3, Fraction(1, 2), 1))),
    ("grid-oracle-shell-k3", lambda seed: _grid_matches_oracle(scenario_shell(3, Fraction(1, 2), 1))),
    ("double-cover-products-k2", lambda seed: double_cover_audit(scenario_products(2))),
    ("double-cover-shell-k2", lambda seed: double_cover_audit(scenario_shell(2, Fraction(1, 2), 1))),
    ("deformation-shell-k2", lambda seed: deformation_audit(scenario_shell(2, Fraction(1, 2), 1), seed=seed)),
)


def run_verification_suite(seed: int = 0, full: bool = False) -> List[Dict]:
    """The rows `verify` writes for the built-in scenario and audit batch, deterministic given
    seed: name, verdict, note and, for an audit report, the report's `document`."""
    rows: List[Dict] = []
    for name, audit in _SUITE + (_SUITE_FULL if full else ()):
        report = audit(seed)
        if not isinstance(report, dict):
            note = (f"projective total {report.projective_total} vs bound {report.bound}"
                    if isinstance(report, SmithReport) else "")
            report = {"name": name, "verdict": report.verdict, "note": note, "document": report.to_dict()}
        rows.append(report)
    return rows
