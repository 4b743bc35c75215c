"""Command line front end: bound tables, intersection tables, audits.

Exit codes: 0 all PASS, 1 any VIOLATION, 2 usage error, 3 inconclusive
results (and no violation), 4 internal error: any other exception, such
as a RecursionError, a MemoryError or a bug, which is never a verdict and
so never exits 1.  In an audit report a bound row's bound is the ints
bound_num, bound_den and any other rational a "p/q" string, in CSV and
JSON alike; the `bounds` and `ci` tables split a rational column into
<name>_num and <name>_den in CSV and write "num/den" in JSON.  Outputs
are byte-identical across reruns with the same flags and seed.  One
parser serves every `main` call of a process; help and usage errors are
laid out at the terminal width read when they are written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Dict, List, Optional, Sequence

# Only `bounds` at import: `verify` and `audit` import the grid engine, and with
# it numpy, where they use it, so `bounds` and `ci` never load numpy.
from .bounds import bound_aggregate, bound_betti, b_ci, b_ci_bound

__all__ = ["main", "build_parser"]


# Largest table, in requested (s, k, i) or (j, k) combinations, that `bounds`
# and `ci` accept.  It is counted from the ranges before any value is listed
# or any bound is computed.
MAX_TABLE_ROWS = 2**20

# Largest work of one row, checked over every requested row before any value
# is computed: binomial terms of one `bounds` sum, and recurrence steps,
# j * (k - j + 1), of one `ci` total.
MAX_BOUND_TERMS = 2**11
MAX_CI_STEPS = 2**20

# The audits `audit --name` runs.  Each entry takes the `harness` module and
# the parsed flags.  `_cmd_audit` imports `harness` only when an audit runs,
# so `--help` and every usage error load no numpy.  Entries look the audits
# up on the module when called, so a wrapper installed on a `harness`
# attribute sees every call.
AUDITS = {
    "products-bounds": lambda h, a: h.bound_audit(h.scenario_products(a.k)),
    "shell-bounds": lambda h, a: h.bound_audit(h.scenario_shell(a.k, a.r_in, a.r_out)),
    "smith-cone": lambda h, a: h.smith_audit([h.CONE], radius=a.radius),
    "double-cover-products": lambda h, a: h.double_cover_audit(
        h.scenario_products(a.k), a.params, sphere_resolution=a.resolution),
    "deformation-products": lambda h, a: h.deformation_audit(
        h.scenario_products(a.k), a.params, t_values=a.t_values, sphere_resolution=a.resolution,
        seed=a.seed),
    "alexander-equator": lambda h, a: h.alexander_equator_audit(),
    "mv-wedge": lambda h, a: h.mv_wedge_example(),
    "mv-disjoint": lambda h, a: h.mv_disjoint_example(),
    "mv-three": lambda h, a: h.mv_three_arc_example(),
    "mv-fabricated-violation": lambda h, a: h.mv_fabricated_example(),
}


def _check_table_size(rows: int) -> None:
    if rows > MAX_TABLE_ROWS:
        raise ValueError(f"table has {rows} rows, above the limit of {MAX_TABLE_ROWS}")


def _check_row_work(work: int, limit: int, unit: str) -> None:
    if work > limit:
        raise ValueError(f"one row needs {work} {unit}, above the limit of {limit}")


def _check_ci_digits(pairs: Sequence[tuple], top: int) -> None:
    """Refuse a `ci` table whose totals might not print, before any is computed.

    Python refuses to write an int of more than `sys.get_int_max_str_digits()`
    decimal digits (0 means no limit; interpreters before that limit have
    none).  A total is accepted only when `bounds.b_ci_bound`, whose proof
    is in its docstring, shows it is below 10**limit.  Bit lengths decide
    most cases without forming that power, since 2**(3 * limit) < 10**limit
    < 2**(4 * limit): a bound under 3 * limit bits is accepted at once, and
    when the bound's powers alone reach 4 * limit bits they are not formed.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    d = max(top, 2)
    largest_k: Dict[int, int] = {}
    for j, k in pairs:  # the bound grows with k, so the largest k of each j decides
        largest_k[j] = max(k, largest_k.get(j, k))
    for j, k in largest_k.items():
        if j * (d.bit_length() - 1) + (k - j) * ((d - 1).bit_length() - 1) < 4 * limit:
            bound = b_ci_bound(j, k, d)
            if bound.bit_length() <= 3 * limit or bound < 10**limit:
                continue
        raise ValueError(f"the total for j={j}, k={k} may exceed {limit} digits, "
                         "the limit of sys.get_int_max_str_digits()")


def _parse_range(text: str) -> List[int]:
    """Accept '3', '2:5' (inclusive) or '1,3,5'; counted before it is listed."""
    spans = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ":" in chunk:
            lo, hi = chunk.split(":", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty range {chunk!r}")
        else:
            lo = hi = int(chunk)
        spans.append((lo, hi))
    _check_table_size(sum(hi - lo + 1 for lo, hi in spans))
    return [v for lo, hi in spans for v in range(lo, hi + 1)]


def _emit(fmt: str, out, document: Dict, columns: List[str], rows: List[Dict]) -> None:
    """Write the CSV table (columns, rows) or the JSON document."""
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(col, "") for col in columns])
    else:
        out.write(json.dumps(document, indent=2, sort_keys=True))
        out.write("\n")


def _emit_table(fmt: str, out, columns: List[str], rows: List[Dict],
                rationals: Sequence[str] = ()) -> None:
    """Write rows as a CSV table or as the JSON document {"rows": rows}.

    Each column named in `rationals` holds Fractions: CSV splits it into
    <name>_num and <name>_den (both empty in a row without it), JSON writes
    "num/den" with the denominator always present.
    """
    if fmt == "json":
        rows = [{key: f"{v.numerator}/{v.denominator}" if key in rationals else v
                 for key, v in row.items()} for row in rows]
        _emit(fmt, out, {"rows": rows}, columns, rows)
        return
    split = {col: (f"{col}_num", f"{col}_den") for col in rationals}
    csv_rows = []
    for row in rows:
        flat = dict(row)
        for col, (num, den) in split.items():
            if col in row:
                flat[num], flat[den] = row[col].numerator, row[col].denominator
        csv_rows.append(flat)
    _emit(fmt, out, {}, [part for col in columns for part in split.get(col, (col,))], csv_rows)


def _exit_code(verdicts: Sequence[str]) -> int:
    from .harness import INCONCLUSIVE, VIOLATION, overall

    return {VIOLATION: 1, INCONCLUSIVE: 3}.get(overall(verdicts), 0)


def _cmd_bounds(args, out) -> int:
    svals = _parse_range(args.s)
    kvals = _parse_range(args.k)
    if args.aggregate:
        _check_table_size(len(svals) * len(kvals))
        pairs = [(s, k) for k in kvals for s in svals if 1 <= s and 1 <= k]
        if not pairs:
            raise ValueError("no valid (s, k) combinations in the requested ranges")
        _check_row_work(max(min(s, k) + 1 for s, k in pairs), MAX_BOUND_TERMS, "terms")
        rows = []
        for s, k in pairs:
            agg = bound_aggregate(s, k)
            row: Dict = {"s": s, "k": k, "total": agg.total}
            if agg.simple is not None:
                row.update(simple=agg.simple, nonexact_exp_form=repr(agg.exp_form))
            rows.append(row)
        _emit_table(args.format, out, ["s", "k", "simple", "total", "nonexact_exp_form"],
                    rows, rationals=("simple", "total"))
        return 0
    given_i = _parse_range(args.i) if args.i else None
    _check_table_size(len(svals) * sum(max(k, 0) if given_i is None else len(given_i) for k in kvals))
    triples = [(s, k, i) for k in kvals for s in svals
               for i in (range(k) if given_i is None else given_i)
               if 1 <= s and 0 <= i <= k - 1]
    if not triples:
        raise ValueError("no valid (s, k, i) combinations in the requested ranges")
    _check_row_work(max(min(s, k - i) + 1 for s, k, i in triples), MAX_BOUND_TERMS, "terms")
    columns = ["s", "k", "i", "bound"]
    if args.compare_classical:
        columns += ["nonrigorous_sd_pow_k", "nonrigorous_k_pow_s"]
    rows = []
    for s, k, i in triples:
        row = {"s": s, "k": k, "i": i, "bound": bound_betti(s, k, i)}
        if args.compare_classical:
            row["nonrigorous_sd_pow_k"] = (2 * s) ** k
            row["nonrigorous_k_pow_s"] = k**s
        rows.append(row)
    _emit_table(args.format, out, columns, rows, rationals=("bound",))
    return 0


def _cmd_ci(args, out) -> int:
    kvals = _parse_range(args.k)
    if args.degrees:
        degrees = tuple(int(d) for d in args.degrees.split(","))
        j = len(degrees)
        if args.j is not None and int(args.j) != j:
            raise ValueError(f"--j {args.j} disagrees with {j} degrees")
        jvals = [j]
    else:
        if args.j is None:
            raise ValueError("need --j or --degrees")
        jvals = _parse_range(args.j)
        degrees = None
    _check_table_size(len(kvals) * len(jvals))
    pairs = [(j, k) for k in kvals for j in jvals if 0 <= j <= k]
    if not pairs:
        raise ValueError("no valid (j, k) combinations in the requested ranges")
    _check_row_work(max(j * (k - j + 1) for j, k in pairs), MAX_CI_STEPS, "recurrence steps")
    _check_ci_digits(pairs, max(degrees or (2,)))
    rows = []
    for j, k in pairs:
        degs = degrees if degrees is not None else (2,) * j
        rows.append({"j": j, "k": k, "degrees": ";".join(map(str, degs)),
                     "betti_total": b_ci(j, k, degs)})
    _emit_table(args.format, out, ["j", "k", "degrees", "betti_total"], rows)
    return 0


def _cmd_verify(args, out) -> int:
    from . import harness

    results = harness.run_verification_suite(seed=args.seed, full=args.full)
    _emit(args.format, out, {"seed": args.seed, "results": results}, ["name", "verdict", "note"], results)
    return _exit_code([r["verdict"] for r in results])


def _cmd_audit(args, out) -> int:
    from . import harness
    from .exact import parse_rational
    from .quadforms import DeformationParams

    flags = argparse.Namespace(
        k=args.k,
        r_in=parse_rational(args.r_in),
        r_out=parse_rational(args.r_out),
        radius=parse_rational(args.radius),
        params=DeformationParams(eps=parse_rational(args.eps), delta=parse_rational(args.delta)),
        t_values=[parse_rational(t) for t in args.t_values.split(",")],
        resolution=None if args.resolution is None else parse_rational(args.resolution),
        seed=args.seed,
    )
    report = AUDITS[args.name](harness, flags)
    _emit(args.format, out, report.to_dict(), *report.csv_table())
    return _exit_code([report.verdict])


def build_parser() -> argparse.ArgumentParser:
    """A fresh command line parser.

    Help and usage errors are laid out by argparse's default formatter,
    which reads the terminal width when it formats them.  Each subcommand
    sets its handler as the default `run`, which `main` calls.  `main`
    keeps one parser for the life of the process, since building the four
    subcommands costs about ten parses and parsing leaves a parser
    unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="quadbetti",
        description="Betti bound tables and verification audits for quadratic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="per-degree bound table")
    p_bounds.set_defaults(run=_cmd_bounds)
    p_bounds.add_argument("--s", required=True, help="value, a:b range, or comma list")
    p_bounds.add_argument("--k", required=True)
    p_bounds.add_argument("--i", default=None, help="defaults to all valid degrees")
    p_bounds.add_argument("--aggregate", action="store_true",
                          help="emit aggregate bounds instead of per-degree rows")
    p_bounds.add_argument("--compare-classical", action="store_true",
                          help="append illustrative non-rigorous reference columns")

    p_ci = sub.add_parser("ci", help="complete-intersection Betti totals")
    p_ci.set_defaults(run=_cmd_ci)
    p_ci.add_argument("--j", default=None)
    p_ci.add_argument("--k", required=True)
    p_ci.add_argument("--degrees", default=None, help="comma list, e.g. 2,2,3")

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--full", action="store_true", help="include the slow audits")

    p_audit = sub.add_parser("audit", help="run one named audit")
    p_audit.set_defaults(run=_cmd_audit)
    p_audit.add_argument("--name", required=True, choices=AUDITS)
    p_audit.add_argument("--k", type=int, default=2)
    p_audit.add_argument("--r-in", dest="r_in", default="1/2")
    p_audit.add_argument("--r-out", dest="r_out", default="1")
    p_audit.add_argument("--radius", default="1")
    p_audit.add_argument("--eps", default="1/10")
    p_audit.add_argument("--delta", default="1/1000")
    p_audit.add_argument("--t-values", dest="t_values", default="0,1/1000")
    p_audit.add_argument("--resolution", default=None)

    for p in (p_bounds, p_ci, p_verify, p_audit):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="file path; defaults to stdout")
        p.add_argument("--seed", type=int, default=0)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    buffer = io.StringIO()
    try:
        code = args.run(args, buffer)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # only on this path, so a normal run does not pay its import

        print(f"error: internal: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 4
    text = buffer.getvalue()
    if args.output:
        try:
            with open(args.output, "w") as fp:
                fp.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
