"""quadbetti benchmark: wall time to an audit verdict, one closed-loop client.

    python3 perfbench/run.py --workload affine-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a quadbetti checkout; it imports the package from
`src/` there and nowhere else.  The ops run in-process, one after another:
the next op starts when the previous one returns.  `--seconds` fixes how many
passes over the workload's op list a run makes (see `ops.pass_count`).

Op times are scaled by a reference loop timed between ops, which removes
most of the machine-speed drift of a shared host (see `reference_s`).
With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1` the same passes run with every layer's entry points wrapped in
spans, the last line holds the per-layer metrics, and the spans are written
to `perfbench/out/`.  Every op's result is checked; the exit code is 1 when
any check failed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_TUPLES = 20000
REF_EVERY_S = 0.25
# Reference loop time on the machine the baseline was measured on (2-core
# sandbox, CPython 3.11).  Scaled times are seconds at that machine's speed.
REF_NOMINAL_S = 0.0057


def load_program() -> None:
    init = ROOT / "src" / "quadbetti" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no quadbetti sources at {init.parent}; run from a quadbetti checkout")
    sys.path.insert(0, str(init.parent.parent))
    import quadbetti

    if Path(quadbetti.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported quadbetti from {quadbetti.__file__}, not {init}")


def reference_s() -> float:
    """Time of a fixed pure-Python loop of tuple hashing, with the collector off.

    The program's speed on a shared machine drifts by tens of percent over
    seconds to minutes; this loop drifts with it, so op times divided by the
    loop time measured around them no longer carry that drift.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        cells = set()
        for i in range(REF_TUPLES):
            cells.add((i, i * 7 % 1000, i & 255))
        return time.perf_counter() - t0
    finally:
        gc.enable()


class SpeedTrack:
    """Reference samples taken between ops, at most every REF_EVERY_S."""

    def __init__(self):
        self.times, self.durations = [], []
        self.sample()

    def sample(self) -> None:
        d = reference_s()
        self.times.append(time.perf_counter())
        self.durations.append(d)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, start: float) -> float:
        """REF_NOMINAL_S over the mean of the samples just before and just after `start`."""
        i = bisect.bisect_right(self.times, start)
        around = self.durations[max(i - 1, 0):i + 1]
        return REF_NOMINAL_S / statistics.fmean(around)


def run_passes(passes, tracer=None):
    """Closed loop over every op.

    Returns per-op latencies scaled to the nominal machine speed, the scaled
    time of each pass, the unscaled total, the median reference-loop time and
    the failures.
    """
    speed = SpeedTrack()
    starts, raw, pass_of, failures = [], [], [], []
    index = 0
    for p, ops_in_pass in enumerate(passes):
        gc.collect()
        for op in ops_in_pass:
            error = None
            t0 = time.perf_counter()
            try:
                result = tracer.run_op(index, op.call) if tracer else op.call()
            except Exception as exc:  # a crash is a failed op, not the end of the run
                error = f"raised {exc!r}"
            dt = time.perf_counter() - t0
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"check raised {exc!r}"
            if tracer:
                error = error or tracer.euler_errors()
            if error:
                failures.append(f"{op.label}: {error}")
            starts.append(t0)
            raw.append(dt)
            pass_of.append(p)
            index += 1
            speed.maybe_sample()
    speed.sample()
    latencies = [dt * speed.scale(t0) for t0, dt in zip(starts, raw)]
    pass_walls = [0.0] * len(passes)
    for p, dt in zip(pass_of, latencies):
        pass_walls[p] += dt
    return latencies, pass_walls, sum(raw), statistics.median(speed.durations), failures


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    ref_before = reference_s()
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import ops

    if args.workload not in ops.MENUS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(ops.MENUS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    n_passes = ops.pass_count(args.workload, args.seconds)
    passes = ops.op_passes(args.workload, args.seed, n_passes)
    warmup_error = ops.run_checked(ops.warmup_op(args.workload, args.seed))
    setup_s = (time.perf_counter() - t0) * REF_NOMINAL_S / statistics.fmean([ref_before, reference_s()])
    failures = [f"warm-up: {warmup_error}"] if warmup_error else []
    attempted = 1

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        latencies, pass_walls, unscaled_s, ref_s, run_failures = run_passes(passes, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    failures += run_failures
    attempted += len(latencies)

    if tracer:
        metrics = spans.layer_metrics(tracer.spans, n_passes, spans.span_cost())
        metrics["bench.ref_loop_s"] = ref_s
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
        units = {k: ("s" if k.endswith("_s") else "fraction" if k.endswith(("_frac", "_ratio"))
                     else "count") for k in metrics}
        print(f"{len(tracer.spans)} spans over {n_passes} passes; values are per pass")
    else:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        op_tail, pct = tail(latencies)
        metrics = {
            "wall_s": statistics.median(pass_walls),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": op_tail,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_kb / 1024,
        }
        units = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"{args.workload}: {n_passes} passes, {len(latencies)} timed ops; "
              f"op_tail_s is p{pct:.1f} of {len(latencies)} samples (10 beyond it); "
              f"ops took {unscaled_s:.2f} s unscaled, {sum(latencies):.2f} s scaled; "
              f"reference loop median {ref_s * 1000:.2f} ms (nominal {REF_NOMINAL_S * 1000:.2f}); "
              f"failed_frac {len(failures) / attempted:.4f} ({len(failures)}/{attempted})")

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
