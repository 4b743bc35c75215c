"""Op lists for the benchmark workloads, and the checker for their results.

An op is one library audit call (`harness.*_audit`) or one `cli.main(argv)`
call run in-process with stdout captured.  The workload seed fixes the op
order and draws every op's parameters from the menus in `menus.json`; the
program only sees the resulting scenarios and argv.

Every check compares against values written down here by hand (oracle Betti
vectors, the bound formula, expected exit codes) or against `golden.json`,
the `bounds` / `ci` table output recorded at the commit that defined the
benchmark.  Nothing is compared against a value the code under test computes
during the run.  Free-text notes, `family_scale` and the float
`probe_verdict` are never compared.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from quadbetti import cli, harness
from quadbetti.quadforms import DeformationParams, GridSpec, QuadraticPoly

HERE = Path(__file__).resolve().parent
MENUS: Dict = json.loads((HERE / "menus.json").read_text())
GOLDEN_PATH = HERE / "golden.json"


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # error message, or None when correct


# ---------------------------------------------------------------------------
# Hand-derived oracles.


def products_oracle(k: int) -> Tuple[int, ...]:
    """{x_i <= 0 or x_i >= a for every i}: 2^k contractible orthant blocks."""
    return (2**k,) + (0,) * k


def shell_oracle(k: int) -> Tuple[int, ...]:
    """A shell r_in <= |x| <= r_out retracts onto S^{k-1}: b_0 = b_{k-1} = 1."""
    vec = [0] * (k + 1)
    vec[0] += 1
    vec[k - 1] += 1
    return tuple(vec)


def lifted(oracle: Sequence[int]) -> List[int]:
    """The lift onto the sphere is two polar copies: every Betti number doubles."""
    return [2 * b for b in oracle] + [0]


def bound(s: int, k: int, i: int) -> Fraction:
    """(1/2) sum_{j <= min(s, k-i)} C(s, j) C(k+1, j) 2^j, written out independently."""
    return Fraction(
        sum(math.comb(s, j) * math.comb(k + 1, j) * 2**j for j in range(min(s, k - i) + 1)), 2
    )


def total_bound(s: int, k: int) -> Fraction:
    return Fraction(k * sum(math.comb(s, j) * math.comb(k + 1, j) * 2**j for j in range(s + 1)), 2)


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# The smith-cone audit: x^2 + y^2 = z^2 meets a sphere in two disjoint
# circles (b = 2, 2); the projective conic is one circle, total 2, and a
# smooth plane conic has mod-2 Betti total 2.  The band lives in 3-cells.
SMITH = {"verdict": "PASS", "sphere_betti": [2, 2, 0, 0], "sphere_total": 4,
         "projective_total": 2, "bound": 2, "codim": 1, "proj_dim": 2}
# Equator band of the 2-sphere is a circle (reduced 0, 1, 0); its complement
# is two polar caps (reduced 1, 0, 0).
ALEXANDER = {"verdict": "PASS", "subset_reduced": [0, 1, 0],
             "complement_reduced": [1, 0, 0], "sphere_dim": 2}
# Vectors run to the top cell dimension present (ambient + 1 when empty).
_THREE_ARC_PIECES = {"1": [1, 0], "2": [1, 0], "3": [1, 0], "1,2": [1], "1,3": [1], "2,3": [1]}
MV = {
    # Two unit squares sharing one corner: a wedge of two circles.
    "mv-wedge": {"union_betti": [1, 2], "degree": 1, "verdict": "PASS",
                 "pieces": {"1": [1, 1], "2": [1, 1], "1,2": [1]}},
    # Two far-apart squares with an empty overlap.
    "mv-disjoint": {"union_betti": [2, 2], "degree": 1, "verdict": "PASS",
                    "pieces": {"1": [1, 1], "2": [1, 1], "1,2": [0, 0, 0]}},
    # A square covered by three arcs meeting pairwise in single vertices.
    "mv-three-arcs": {"union_betti": [1, 1], "degree": 1, "verdict": "PASS",
                      "pieces": _THREE_ARC_PIECES},
    # The same cover with an inflated union vector: must be a VIOLATION.
    "mv-fabricated-violation": {"union_betti": [1, 10], "degree": 1, "verdict": "VIOLATION",
                                "pieces": _THREE_ARC_PIECES},
}
VERIFY_NAMES = [
    "bounds-products-k1", "bounds-products-k2", "bounds-products-k3",
    "grid-oracle-products-k2", "bounds-shell-k2", "grid-oracle-shell-k2", "smith-cone",
    "mv-wedge", "mv-disjoint", "mv-three-arcs", "alexander-equator",
    "double-cover-products-k1", "deformation-products-k1",
]


# ---------------------------------------------------------------------------
# Document checks.  Each takes the report shape `to_dict` / the CLI emits.


def _diff(doc: Dict, want: Dict) -> Optional[str]:
    for key, value in want.items():
        if doc.get(key) != value:
            return f"{key}: got {doc.get(key)!r}, want {value!r}"
    return None


def check_bound_doc(doc: Dict, scenario: str, s: int, k: int, oracle: Sequence[int]) -> Optional[str]:
    def row(i, b, q):
        return {"i": i, "betti": b, "bound_num": q.numerator, "bound_den": q.denominator,
                "verdict": "PASS"}

    return _diff(doc, {
        "scenario": scenario, "s": s, "k": k, "overall": "PASS",
        "rows": [row(i, oracle[i], bound(s, k, i)) for i in range(k)],
        "total": row(-1, sum(oracle), total_bound(s, k)),
    })


def check_double_cover_doc(doc: Dict, scenario: str, oracle: Sequence[int]) -> Optional[str]:
    return _diff(doc, {"scenario": scenario, "verdict": "PASS", "base_betti": list(oracle),
                       "base_source": "oracle", "lifted_betti": lifted(oracle), "eps": "1/10"})


def check_deformation_doc(doc: Dict, scenario: str, oracle: Sequence[int],
                          t_values: Sequence[Fraction]) -> Optional[str]:
    by_t = {fmt(t): lifted(oracle) for t in t_values}
    return _diff(doc, {"scenario": scenario, "verdict": "PASS", "betti_by_t": by_t,
                       "eps": "1/10", "delta": "1/1000"})


def check_verify_doc(doc: Dict, seed: int) -> Optional[str]:
    results = doc.get("results", [])
    names = [r.get("name") for r in results]
    if doc.get("seed") != seed or names != VERIFY_NAMES:
        return f"verify seed {doc.get('seed')!r} / names {names!r} differ from the suite"
    docs = {}
    for r in results:
        if r.get("verdict") != "PASS":
            return f"{r['name']}: verdict {r.get('verdict')!r}"
        docs[r["name"]] = r.get("document")
    checks = [check_bound_doc(docs[f"bounds-products-k{k}"], f"products-k{k}", k, k,
                              products_oracle(k)) for k in (1, 2, 3)]
    checks += [
        check_bound_doc(docs["bounds-shell-k2"], "shell-k2", 2, 2, shell_oracle(2)),
        _diff(docs["smith-cone"], SMITH),
        _diff(docs["alexander-equator"], ALEXANDER),
        check_double_cover_doc(docs["double-cover-products-k1"], "products-k1", products_oracle(1)),
        check_deformation_doc(docs["deformation-products-k1"], "products-k1", products_oracle(1),
                              (Fraction(0), Fraction(1, 1000))),
    ]
    checks += [_diff(docs[name], dict(MV[name], name=name))
               for name in ("mv-wedge", "mv-disjoint", "mv-three-arcs")]
    return next((f"verify: {c}" for c in checks if c), None)


# ---------------------------------------------------------------------------
# Op builders.  Menu entries arrive as strings, exactly as menus.json has them.


def _report_op(label: str, call: Callable, check: Callable[[Dict], Optional[str]]) -> Op:
    return Op(label, call, lambda report: check(report.to_dict()))


def products_scenario(k: int, threshold: Fraction) -> harness.Scenario:
    """X_i (X_i - a) >= 0 on [-1, 2]^k at resolution 1/4."""
    polys = []
    for i in range(k):
        quad = [[1 if r == c == i else 0 for c in range(k)] for r in range(k)]
        lin = [-threshold if r == i else 0 for r in range(k)]
        polys.append(QuadraticPoly.make(k, quad=quad, lin=lin))
    return harness.Scenario(
        name=f"products-k{k}-a{fmt(threshold)}", system=tuple(polys), s=k, k=k,
        grid=GridSpec(box=((Fraction(-1), Fraction(2)),) * k, resolution=Fraction(1, 4)),
        oracle_betti=products_oracle(k), oracle_note="2^k contractible orthant blocks",
    )


def grid_products_op(k: int, threshold: str) -> Op:
    sc = products_scenario(k, Fraction(threshold))
    return _report_op(f"grid {sc.name}", lambda: harness.bound_audit(sc, sc.grid),
                      lambda doc: check_bound_doc(doc, sc.name, k, k, products_oracle(k)))


def grid_shell_op(k: int, r_in: str, r_out: str) -> Op:
    sc = harness.scenario_shell(k, Fraction(r_in), Fraction(r_out))
    return _report_op(f"grid {sc.name} r_in={r_in} r_out={r_out}",
                      lambda: harness.bound_audit(sc, sc.grid),
                      lambda doc: check_bound_doc(doc, sc.name, 2, k, shell_oracle(k)))


def _lift_scenario(which: str) -> harness.Scenario:
    if which == "shell-k2":
        return harness.scenario_shell(2, Fraction(1, 2), 1)
    return harness.scenario_products(int(which[-1]))


def double_cover_op(which: str) -> Op:
    sc = _lift_scenario(which)
    return _report_op(f"double-cover {sc.name}",
                      lambda: harness.double_cover_audit(sc, DeformationParams()),
                      lambda doc: check_double_cover_doc(doc, sc.name, sc.oracle_betti))


def deformation_op(which: str, t: str, family_seed: str) -> Op:
    sc = _lift_scenario(which)
    ts = (Fraction(0), Fraction(t))
    seed = int(family_seed)
    return _report_op(
        f"deformation {sc.name} t={t} family_seed={seed}",
        lambda: harness.deformation_audit(sc, DeformationParams(), t_values=ts, seed=seed),
        lambda doc: check_deformation_doc(doc, sc.name, sc.oracle_betti, ts),
    )


def run_cli(argv: Sequence[str]) -> Tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_op(argv: Sequence[str], check: Callable[[str], Optional[str]], code: int = 0) -> Op:
    def verify(result) -> Optional[str]:
        got, out, err = result
        if got != code:
            return f"exit code {got}, want {code}: {err.strip()[:200]}"
        return check(out)

    argv = list(argv)
    return Op("quadbetti " + " ".join(argv), lambda: run_cli(argv), verify)


def cli_json_op(argv: Sequence[str], check: Callable[[Dict], Optional[str]], code: int = 0) -> Op:
    return cli_op(list(argv) + ["--format", "json"], lambda out: check(json.loads(out)), code)


@functools.lru_cache(maxsize=None)
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def table_op(argv: str) -> Op:
    def check(out: str) -> Optional[str]:
        want = golden().get(argv)
        if want is None:
            return f"no golden output recorded for {argv!r}"
        return None if out == want else "table differs from the recorded output"

    return cli_op(argv.split(), check)


def mv_op(cli_name: str) -> Op:
    name = "mv-three-arcs" if cli_name == "mv-three" else cli_name
    want = dict(MV[name], name=name)
    code = 1 if want["verdict"] == "VIOLATION" else 0
    return cli_json_op(["audit", "--name", cli_name], lambda doc: _diff(doc, want), code)


def cli_shell_bounds_op(shell_k: str, shell_r_in: str, shell_r_out: str) -> Op:
    k = int(shell_k)
    return cli_json_op(
        ["audit", "--name", "shell-bounds", "--k", shell_k, "--r-in", shell_r_in,
         "--r-out", shell_r_out],
        lambda doc: check_bound_doc(doc, f"shell-k{k}", 2, k, shell_oracle(k)),
    )


def cli_deformation_op(t: str, family_seed: str) -> Op:
    ts = (Fraction(0), Fraction(t))
    return cli_json_op(
        ["audit", "--name", "deformation-products", "--k", "1", "--t-values", f"0,{t}",
         "--seed", family_seed],
        lambda doc: check_deformation_doc(doc, "products-k1", products_oracle(1), ts),
    )


@dataclass(frozen=True)
class Slot:
    """One kind of op: the menus it draws from and how to build it."""

    menus: Tuple[str, ...]
    make: Callable[..., Op]


SLOTS: Dict[str, Slot] = {
    "grid-products-k3": Slot(("threshold",), lambda threshold: grid_products_op(3, threshold)),
    "grid-products-k4": Slot(("threshold",), lambda threshold: grid_products_op(4, threshold)),
    "grid-shell-k2": Slot(("shell_k2_r_in", "shell_r_out"),
                          lambda shell_k2_r_in, shell_r_out: grid_shell_op(2, shell_k2_r_in, shell_r_out)),
    "grid-shell-k3": Slot(("shell_k3_r_in", "shell_r_out"),
                          lambda shell_k3_r_in, shell_r_out: grid_shell_op(3, shell_k3_r_in, shell_r_out)),
    "double-cover-products-k1": Slot((), lambda: double_cover_op("products-k1")),
    "double-cover-products-k2": Slot((), lambda: double_cover_op("products-k2")),
    "double-cover-shell-k2": Slot((), lambda: double_cover_op("shell-k2")),
    "deformation-products-k1": Slot(("t", "family_seed"),
                                    lambda t, family_seed: deformation_op("products-k1", t, family_seed)),
    "deformation-products-k2": Slot(("t", "family_seed"),
                                    lambda t, family_seed: deformation_op("products-k2", t, family_seed)),
    "deformation-shell-k2": Slot(("t", "family_seed"),
                                 lambda t, family_seed: deformation_op("shell-k2", t, family_seed)),
    "cli-verify": Slot(("verify_seed",), lambda verify_seed: cli_json_op(
        ["verify", "--seed", verify_seed], lambda doc: check_verify_doc(doc, int(verify_seed)))),
    "cli-smith-cone": Slot(("smith_radius",), lambda smith_radius: cli_json_op(
        ["audit", "--name", "smith-cone", "--radius", smith_radius], lambda doc: _diff(doc, SMITH))),
    "cli-alexander-equator": Slot((), lambda: cli_json_op(
        ["audit", "--name", "alexander-equator"], lambda doc: _diff(doc, ALEXANDER))),
    "cli-mv-wedge": Slot((), lambda: mv_op("mv-wedge")),
    "cli-mv-disjoint": Slot((), lambda: mv_op("mv-disjoint")),
    "cli-mv-three": Slot((), lambda: mv_op("mv-three")),
    "cli-mv-fabricated-violation": Slot((), lambda: mv_op("mv-fabricated-violation")),
    "cli-products-bounds": Slot(("products_k",), lambda products_k: cli_json_op(
        ["audit", "--name", "products-bounds", "--k", products_k],
        lambda doc: check_bound_doc(doc, f"products-k{products_k}", int(products_k),
                                    int(products_k), products_oracle(int(products_k))))),
    "cli-shell-bounds": Slot(("shell_k", "shell_r_in", "shell_r_out"), cli_shell_bounds_op),
    "cli-double-cover-products-k1": Slot((), lambda: cli_json_op(
        ["audit", "--name", "double-cover-products", "--k", "1"],
        lambda doc: check_double_cover_doc(doc, "products-k1", products_oracle(1)))),
    "cli-deformation-products-k1": Slot(("t", "family_seed"), cli_deformation_op),
    "cli-bounds-table": Slot(("bounds_argv",), lambda bounds_argv: table_op(bounds_argv)),
    "cli-ci-table": Slot(("ci_argv",), lambda ci_argv: table_op(ci_argv)),
}


def draw_op(workload: str, slot: str, rng: random.Random) -> Op:
    menus = MENUS[workload]["menus"]
    return SLOTS[slot].make(**{m: rng.choice(menus[m]) for m in SLOTS[slot].menus})


def pass_count(workload: str, seconds: int) -> int:
    """Passes per run: the run's work is fixed by --seconds, not by how fast the code is.

    `nominal_pass_s` is one pass's scaled time at the commit that defined
    the benchmark, so that commit measures for about --seconds at the
    nominal machine speed, and a parent and its change do identical work at
    the same --seconds.
    """
    return max(3, round(seconds / MENUS[workload]["nominal_pass_s"]))


def op_passes(workload: str, seed: int, n_passes: int) -> List[List[Op]]:
    """Each pass holds every slot of the workload its fixed number of times,
    with fresh parameters, in seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    slots = MENUS[workload]["slots"]
    out = []
    for _ in range(n_passes):
        ops = [draw_op(workload, slot, rng) for slot, count in slots.items() for _ in range(count)]
        rng.shuffle(ops)
        out.append(ops)
    return out


def warmup_op(workload: str, seed: int) -> Op:
    return draw_op(workload, MENUS[workload]["warmup"], random.Random(f"{workload}/{seed}/warmup"))


def run_checked(op: Op) -> Optional[str]:
    """Run an op untimed and return its check's error, if any."""
    try:
        return op.check(op.call())
    except Exception as exc:  # a crash is a failed op, reported with the rest
        return f"raised {exc!r}"
