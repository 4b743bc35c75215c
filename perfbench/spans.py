"""Span tracer for the traced benchmark run, kept in memory and written at exit.

The public entry points of each layer are wrapped by replacing every module
attribute that refers to them: `harness`, `quadforms` and `cli` import by
name, so patching only the defining module would miss their calls.  A span
is (name, start, end, parent, op); spans of one op share the op index.  A
span's self time is its duration minus its children's, so the self times of
all spans add up to the durations of the root `bench.op` spans, i.e. to the
traced wall time.

The traced run also cross-checks every complex a builder returns: its Euler
characteristic from `n_cells` must equal the alternating sum of its Betti
vector.  The counts are read after the op returns, outside every span, so
no grouping work moves between spans.
"""

from __future__ import annotations

import functools
import json
import math
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import quadbetti
from quadbetti import bounds, cli, harness, homology, quadforms

BUILDERS = ("grid_complex", "sphere_zero_complex", "sphere_band_complex", "sphere_region_complex")
AUDITS = ("bound_audit", "smith_audit", "double_cover_audit", "deformation_audit",
          "alexander_equator_audit", "mv_wedge_example", "mv_disjoint_example",
          "mv_three_arc_example", "mv_fabricated_example")
TARGETS = (
    (quadforms, BUILDERS + ("ci_probe",)),
    (homology, ("close_under_faces", "betti")),
    (harness, AUDITS + ("run_verification_suite", "scenario_products", "scenario_shell")),
    (bounds, ("bound_betti", "bound_aggregate", "b_ci")),
    (cli, ("main",)),
)
MODULES = (quadbetti, bounds, homology, quadforms, harness, cli)

# Span record fields.
NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op = -1
        self._built: list = []  # complexes builders returned during the current op
        self._betti: Dict[int, tuple] = {}  # id(complex) -> its Betti vector
        self._patched: list = []
        self._recording = True

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    rec[INFO] = info(args, result)
                return result
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def _on_build(self, args, complex_):
        self._built.append(complex_)

    def _on_close(self, args, complex_):
        cubes = args[0]
        return (len(cubes) if hasattr(cubes, "__len__") else 0, len(complex_.cells))

    def _on_betti(self, args, vec):
        c = args[0]
        if any(c is b for b in self._built):
            self._betti[id(c)] = vec
        return (len(c.cells), vec)

    def install(self) -> None:
        infos = dict.fromkeys(BUILDERS, self._on_build)
        infos.update(close_under_faces=self._on_close, betti=self._on_betti)
        for fn_name in AUDITS:
            infos[fn_name] = lambda args, rep: getattr(rep, "overall", getattr(rep, "verdict", None))
        for module, names in TARGETS:
            layer = module.__name__.rsplit(".", 1)[-1]
            for fn_name in names:
                fn = getattr(module, fn_name)
                traced = self._wrap(f"{layer}.{fn_name}", fn, infos.get(fn_name))
                for owner in MODULES:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            setattr(owner, attr, traced)
                            self._patched.append((owner, attr, fn))
        rank = homology.GF2Matrix.rank
        homology.GF2Matrix.rank = self._wrap("homology.rank", rank, lambda args, r: (args[0].n_rows, args[0].n_cols))
        self._patched.append((homology.GF2Matrix, "rank", rank))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def run_op(self, index: int, call: Callable):
        self._op = index
        return self._wrap("bench.op", call)()

    def euler_errors(self) -> Optional[str]:
        """Check chi == alternating Betti sum for the current op's built complexes."""
        errors = []
        self._recording = False
        try:
            for c in self._built:
                vec = self._betti.get(id(c))
                if vec is None:
                    vec = homology.betti(c)
                chi = sum((-1) ** d * c.n_cells(d) for d in range(c.ambient_dim + 1))
                alt = sum((-1) ** i * b for i, b in enumerate(vec))
                if chi != alt:
                    errors.append(f"{c!r}: Euler characteristic {chi} != alternating Betti sum {alt}")
        except Exception as exc:  # reported as this op's failure
            errors.append(f"Euler check raised {exc!r}")
        finally:
            self._recording = True
            self._built.clear()
            self._betti.clear()
        return "; ".join(errors) or None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fp:
            for rec in self.spans:
                fp.write(json.dumps({"op": rec[OP], "name": rec[NAME], "start": rec[START] - t0,
                                     "end": rec[END] - t0, "parent": rec[PARENT]}) + "\n")


def span_cost(samples: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, from a no-op."""
    def noop():
        return None

    traced = Tracer()._wrap("calibrate", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(samples):
        noop()
    t1 = clock()
    for _ in range(samples):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / samples)


def layer_metrics(spans: List[list], passes: int, cost: float) -> Dict[str, float]:
    """Per-pass layer totals; raises if self times do not add up to the wall time."""
    n = len(spans)
    dur = [rec[END] - rec[START] for rec in spans]
    child = [0.0] * n
    ranks: Dict[int, List[int]] = {}
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += dur[i]
            if rec[NAME] == "homology.rank":
                ranks.setdefault(rec[PARENT], []).append(i)
    own = [d - c for d, c in zip(dur, child)]
    m = dict.fromkeys([
        "quadforms.build_self_s", "quadforms.builds", "quadforms.top_cells", "quadforms.probe_s",
        "homology.close_s", "homology.closed_cells", "homology.betti_s", "homology.rank_s",
        "homology.collapse_s", "homology.core_cells", "homology.rank_cols",
        "harness.self_s", "harness.audits", "harness.inconclusive", "bounds.self_s", "bounds.calls",
        "cli.self_s", "bench.self_s", "traced.wall_s",
    ], 0.0)
    betti_in = 0
    builder_names = {f"quadforms.{b}" for b in BUILDERS}
    for i, rec in enumerate(spans):
        name, info = rec[NAME], rec[INFO]
        layer, fn_name = name.split(".", 1)
        if name in builder_names:
            m["quadforms.build_self_s"] += own[i]
            m["quadforms.builds"] += 1
        elif name == "quadforms.ci_probe":
            m["quadforms.probe_s"] += own[i]
        elif name == "homology.close_under_faces":
            m["homology.close_s"] += own[i]
            if info:
                m["homology.closed_cells"] += info[1]
                if rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] in builder_names:
                    m["quadforms.top_cells"] += info[0]
        elif name == "homology.betti":
            m["homology.betti_s"] += dur[i]
            m["homology.collapse_s"] += own[i]
            if info:
                betti_in += info[0]
                kids = [j for j in ranks.get(i, []) if spans[j][INFO]]
                # The core is what reaches the boundary matrices: the rows of the
                # first map plus the columns of every map; with no map, b_0 cells.
                m["homology.core_cells"] += (spans[kids[0]][INFO][0] + sum(spans[j][INFO][1] for j in kids)
                                             if kids else sum(info[1]))
        elif name == "homology.rank":
            m["homology.rank_s"] += own[i]
            m["homology.rank_cols"] += info[1] if info else 0
        elif layer == "harness":
            m["harness.self_s"] += own[i]
            if fn_name in AUDITS:
                m["harness.audits"] += 1
                m["harness.inconclusive"] += info == "INCONCLUSIVE"
        elif layer == "bounds":
            m["bounds.self_s"] += own[i]
            m["bounds.calls"] += 1
        elif layer == "cli":
            m["cli.self_s"] += own[i]
        elif name == "bench.op":
            m["bench.self_s"] += own[i]
            m["traced.wall_s"] += dur[i]
    self_sum = sum(m[k] for k in ("quadforms.build_self_s", "quadforms.probe_s", "homology.close_s",
                                  "homology.collapse_s", "homology.rank_s", "harness.self_s",
                                  "bounds.self_s", "cli.self_s", "bench.self_s"))
    if not math.isclose(self_sum, m["traced.wall_s"], rel_tol=1e-9, abs_tol=1e-9):
        raise RuntimeError(f"layer self times sum to {self_sum}, traced wall is {m['traced.wall_s']}")
    m = {k: v / passes for k, v in m.items()}
    m["homology.collapse_ratio"] = m["homology.core_cells"] * passes / betti_in if betti_in else 0.0
    m["trace_overhead_frac"] = cost * n / passes / m["traced.wall_s"] if m["traced.wall_s"] else 0.0
    return m
