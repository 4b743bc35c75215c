"""Command line behavior: tables, exit codes, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import quadbetti
from quadbetti import cli
from quadbetti.bounds import bound_aggregate
from quadbetti.cli import main
from quadbetti.quadforms import _candidates

DATA = Path(__file__).parent / "data"
GOLDEN_CASES = json.loads((DATA / "cli_golden.json").read_text())
HELP_CASES = json.loads((DATA / "cli_help.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCiCommand:
    def test_single_row(self, capsys):
        code, out = run_cli(capsys, "ci", "--j", "1", "--k", "3", "--degrees", "2")
        assert code == 0
        assert out.splitlines() == ["j,k,degrees,betti_total", "1,3,2,4"]

    def test_all_two_default(self, capsys):
        code, out = run_cli(capsys, "ci", "--j", "2", "--k", "3")
        assert code == 0
        assert out.splitlines()[1] == "2,3,2;2,4"

    def test_ranges(self, capsys):
        code, out = run_cli(capsys, "ci", "--j", "1", "--k", "2:4")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_degrees_j_conflict(self, capsys):
        code, _ = run_cli(capsys, "ci", "--j", "2", "--k", "3", "--degrees", "2")
        assert code == 2

    @pytest.mark.parametrize("j, row", [("1", "1,3000,2,3000"), ("2", "2,3000,2;2,6000")])
    def test_large_k_needs_no_recursion(self, capsys, j, row):
        code, out = run_cli(capsys, "ci", "--j", j, "--k", "3000")
        assert code == 0
        assert out.splitlines()[1:] == [row]


class TestBoundsCommand:
    def test_example_row(self, capsys):
        code, out = run_cli(capsys, "bounds", "--s", "2", "--k", "4", "--i", "0")
        assert code == 0
        assert out.splitlines() == ["s,k,i,bound_num,bound_den", "2,4,0,61,2"]

    def test_json_matches_csv_content(self, capsys):
        code, csv_out = run_cli(capsys, "bounds", "--s", "2", "--k", "4")
        assert code == 0
        code, json_out = run_cli(
            capsys, "bounds", "--s", "2", "--k", "4", "--format", "json"
        )
        assert code == 0
        csv_rows = [line.split(",") for line in csv_out.splitlines()[1:]]
        json_rows = json.loads(json_out)["rows"]
        assert len(csv_rows) == len(json_rows)
        for cr, jr in zip(csv_rows, json_rows):
            assert [int(cr[0]), int(cr[1]), int(cr[2])] == [jr["s"], jr["k"], jr["i"]]
            assert f"{cr[3]}/{cr[4]}" == jr["bound"]

    def test_aggregate(self, capsys):
        code, out = run_cli(capsys, "bounds", "--s", "2", "--k", "4", "--aggregate")
        assert code == 0
        row = out.splitlines()[1].split(",")
        # total = (1/2) * 4 * (1 + 20 + 40) = 122
        assert row[:6] == ["2", "4", "45", "1", "122", "1"]

    def test_compare_classical_columns(self, capsys):
        code, out = run_cli(
            capsys, "bounds", "--s", "2", "--k", "3", "--i", "0", "--compare-classical"
        )
        assert code == 0
        header = out.splitlines()[0]
        assert "nonrigorous_sd_pow_k" in header and "nonrigorous_k_pow_s" in header
        assert out.splitlines()[1].endswith("64,9")

    @pytest.mark.parametrize("s, k, total_digits", [(400, 800, 420), (2047, 4094, 2141)])
    def test_aggregate_float_overflow_reads_inf(self, capsys, s, k, total_digits):
        code, out = run_cli(capsys, "bounds", "--s", str(s), "--k", str(k), "--aggregate")
        assert code == 0
        agg = bound_aggregate(s, k)
        row = out.splitlines()[1].split(",")
        assert row == [str(s), str(k), str(agg.simple.numerator), str(agg.simple.denominator),
                       str(agg.total.numerator), str(agg.total.denominator), "inf"]
        assert len(row[4]) == total_digits

    def test_s_above_k_prints_the_bound(self, capsys):
        code, out = run_cli(capsys, "bounds", "--s", "5", "--k", "2")
        assert code == 0
        assert out.splitlines() == ["s,k,i,bound_num,bound_den", "5,2,0,151,2", "5,2,1,31,2"]
        code, out = run_cli(capsys, "bounds", "--s", "5", "--k", "3", "--aggregate")
        assert code == 0
        # total = 3 * bound_betti(5, 3, 0) = (3/2) * (1 + 40 + 240 + 320)
        assert out.splitlines()[1] == "5,3,,,1803,2,"


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (("bounds", "--s", "1", "--k", "5:3"), "empty range '5:3'"),
        (("bounds", "--s", "0", "--k", "3", "--aggregate"),
         "no valid (s, k) combinations in the requested ranges"),
        (("ci", "--k", "3"), "need --j or --degrees"),
        (("ci", "--j", "5", "--k", "3"), "no valid (j, k) combinations in the requested ranges"),
        (("audit", "--name", "double-cover-products", "--k", "1", "--resolution", ""),
         "not a decimal-free rational string: ''"),
        (("audit", "--name", "mv-wedge", "--resolution", ""), "not a decimal-free rational string: ''"),
        (("bounds", "--s", "0", "--k", "3"), "no valid (s, k, i) combinations in the requested ranges"),
        # `DeformationParams` parses --eps, then --delta, and then orders them.
        (("audit", "--name", "mv-wedge", "--eps", "0.1"), "not a decimal-free rational string: '0.1'"),
        (("audit", "--name", "mv-wedge", "--eps", "0.1", "--delta", "0.01"),
         "not a decimal-free rational string: '0.1'"),
        (("audit", "--name", "mv-wedge", "--eps", "1/20", "--delta", "1/10"),
         "need 0 < delta < eps, got delta=1/10, eps=1/20"),
        # An empty value is a value, not an absent flag.
        (("bounds", "--s", "1", "--k", "3", "--i", ""), "invalid literal for int() with base 10: ''"),
        (("ci", "--j", "2", "--k", "6", "--degrees", ""), "invalid literal for int() with base 10: ''"),
        (("ci", "--j", "2", "--k", "6", "--output", ""), "[Errno 2] No such file or directory: ''"),
        (("ci", "--j", "1:3", "--k", "4", "--degrees", "2,2"), "--j 1:3 disagrees with 2 degrees"),
    ])
    def test_exits_two_with_error_line(self, capsys, argv, message):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def _parse(parser, argv, capsys):
    try:
        result = sorted(vars(parser.parse_args(argv)).items())
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["audit", "--help"], ["bounds", "-h"], ["ci", "--help"], ["verify", "--help"],
    ["audit"], ["audit", "--name", "bogus"], ["audit", "--name", "mv-three", "--k", "x"],
    ["audit", "--name", "mv-three", "extra"], ["verify", "--bogus"], ["ci", "--k", "3", "--nope", "1"],
    ["bounds", "--s", "2", "--k", "4", "--format", "xml"],
    ["audit", "--name", "smith-cone", "--radius", "1/2", "--format", "json"],
    ["bounds", "--s", "1:3", "--k", "3:6", "--aggregate"], ["verify", "--full", "--seed", "2"],
])
def test_one_subcommand_parser_acts_as_the_full_parser(capsys, argv):
    # main reuses one parser per process; every parse through it, the first
    # and any later one, must read as a parse by a freshly built parser.
    reused = cli._parser()
    fresh = _parse(cli.build_parser(), argv, capsys)
    assert _parse(reused, argv, capsys) == fresh
    assert _parse(reused, argv, capsys) == fresh


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="recorded with the argparse layout of Python 3.10-3.12")
def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    # Help, a bad choice and a bad format exit through the parser; the recorded
    # runs after them must read as in a process that ran nothing before.
    monkeypatch.setenv("COLUMNS", "80")
    help_cases = {(tuple(c["argv"]), c["columns"]): c for c in HELP_CASES}
    for argv in (["audit", "--help"], ["audit", "--name", "bogus"]):
        case = help_cases[tuple(argv), 80]
        assert main(argv) == case["code"]
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (case["stdout"], case["stderr"])
    assert main(["bounds", "--s", "2", "--k", "4", "--format", "xml"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice: 'xml'" in captured.err
    golden = {tuple(c["argv"]): c for c in GOLDEN_CASES}
    for argv in (["audit", "--name", "mv-three", "--format", "json"], ["bounds", "--s", "1:3", "--k", "3:6"]):
        case = golden[tuple(argv)]
        assert main(argv) == case["code"]
        assert capsys.readouterr() == (case["stdout"], "")


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="recorded with the argparse layout of Python 3.10-3.12")
def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    # The parser lays out help at the width of the terminal it is printed to,
    # not at that of the terminal it was built for.
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(20):
        assert main(["bounds", "--s", "2", "--k", "4", "--i", "0"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("COLUMNS", "200")
    case = next(c for c in HELP_CASES if c["argv"] == ["audit", "--help"] and c["columns"] == 200)
    assert main(["audit", "--help"]) == case["code"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])
    assert len(builds) == 1


def test_per_process_caches_leave_output_unchanged(capsys):
    # Sphere candidate entries, lift specs and the parser are kept per process;
    # a run that finds them filled must print what a fresh process prints.
    argv = ["verify", "--seed", "3", "--full", "--format", "json"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    src = str(Path(quadbetti.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "quadbetti", *argv], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert outputs == [done.stdout, done.stdout]


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="recorded with the argparse layout of Python 3.10-3.12")
def test_fresh_process_lays_out_help_at_its_terminal_width():
    # The in-process replays reuse a built parser; this is the first parser of
    # a new interpreter, laid out at the COLUMNS it was started with.
    case = next(c for c in HELP_CASES if c["argv"] == ["audit", "--help"] and c["columns"] == 40)
    src = str(Path(quadbetti.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "quadbetti", *case["argv"]], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src, "COLUMNS": "40"})
    assert (done.returncode, done.stdout, done.stderr) == (case["code"], case["stdout"], case["stderr"])


def test_python_dash_m_entry_point():
    src = str(Path(quadbetti.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "quadbetti", "bounds", "--s", "2", "--k", "4", "--i", "0"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["s,k,i,bound_num,bound_den", "2,4,0,61,2"]


class TestVerifyCommand:
    def test_default_suite_exit_zero(self, capsys):
        code, out = run_cli(capsys, "verify", "--seed", "0")
        assert code == 0
        assert "bounds-products-k3,PASS" in out

    def test_byte_identical_rerun(self, capsys):
        for argv, entries in ((["--seed", "0"], 2), (["--full"], 3)):
            _candidates.cache_clear()
            _, first = run_cli(capsys, "verify", *argv, "--format", "json")
            # one sphere candidate entry per grid, radius and eps: the unit
            # sphere and the 2-D lift, and with --full the 3-D lift
            assert _candidates.cache_info().misses == entries, argv
            _, second = run_cli(capsys, "verify", *argv, "--format", "json")
            assert first == second, argv
            # the second run builds no sphere candidates: every one is a cache hit
            assert _candidates.cache_info().misses == entries, argv


class TestAuditCommand:
    def test_fabricated_violation_exits_one(self, capsys):
        code, out = run_cli(capsys, "audit", "--name", "mv-fabricated-violation")
        assert code == 1
        assert "VIOLATION" in out

    def test_mv_wedge_passes(self, capsys):
        code, out = run_cli(capsys, "audit", "--name", "mv-wedge")
        assert code == 0

    def test_inconclusive_exits_three(self, capsys):
        code, out = run_cli(
            capsys, "audit", "--name", "double-cover-products", "--k", "1",
            "--eps", "2", "--delta", "1",
        )
        assert code == 3

    def test_deformation_outside_ball_exits_three(self, capsys):
        code, out = run_cli(
            capsys, "audit", "--name", "deformation-products", "--k", "2",
            "--eps", "1/2", "--format", "json",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["verdict"] == "INCONCLUSIVE"
        assert doc["betti_by_t"] == {}

    def test_deformation_shows_its_reference_without_t_zero(self, capsys):
        # Every t is compared with the t = 0 vector, so it is reported even
        # when --t-values leaves 0 out.
        code, out = run_cli(
            capsys, "audit", "--name", "deformation-products", "--k", "2",
            "--t-values", "1/1000", "--format", "json",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["verdict"] == "INCONCLUSIVE"
        assert doc["betti_by_t"] == {"0": [8, 0, 0, 0], "1/1000": [2, 2, 0, 0]}

    def test_deformation_without_positive_t_is_usage_error(self, capsys):
        assert main(["audit", "--name", "deformation-products", "--k", "1", "--t-values", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: t values [0] hold no t in (0, delta=1/1000], so the audit would compare nothing\n"

    def test_too_many_t_values_is_usage_error_before_any_lift(self, capsys, monkeypatch):
        from quadbetti import harness

        monkeypatch.setattr(harness, "_lift", lambda *args: pytest.fail("a lift was built"))
        ts = ",".join(f"{i}/1000000" for i in range(harness.MAX_T_VALUES + 1))
        assert main(["audit", "--name", "deformation-products", "--k", "1", "--t-values", ts]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {len(ts.split(','))} distinct t values, above the limit of {harness.MAX_T_VALUES}\n"

    def test_unknown_name_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "audit", "--name", "nope")
        assert code == 2

    def test_name_prefix_is_not_a_match(self, capsys):
        code, out = run_cli(capsys, "audit", "--name", "products-bounds-xyz")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("--name", "double-cover-products", "--resolution=-1/4"),
        ("--name", "double-cover-products", "--resolution", "0"),
        ("--name", "deformation-products", "--resolution", "0"),
    ])
    def test_zero_resolution_is_usage_error(self, capsys, argv):
        assert main(["audit", *argv]) == 2
        assert "resolution must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["0", "-1"])
    def test_smith_radius_error_names_the_radius(self, capsys, radius):
        assert main(["audit", "--name", "smith-cone", "--radius", radius]) == 2
        assert f"radius must be positive, got {radius}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("--name", "double-cover-products", "--k", "6"),
        ("--name", "deformation-products", "--k", "3"),
        ("--name", "double-cover-products", "--k", "1", "--resolution", "1/100"),
    ])
    def test_oversized_grid_is_usage_error(self, capsys, argv):
        assert main(["audit", *argv]) == 2
        assert "above the limit" in capsys.readouterr().err

    def test_products_bounds_json(self, capsys):
        code, out = run_cli(
            capsys, "audit", "--name", "products-bounds", "--k", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"] == "products-k2"
        assert doc["overall"] == "PASS"
        assert doc["rows"][0]["bound_den"] == 2

    def test_smith_cone(self, capsys):
        code, out = run_cli(capsys, "audit", "--name", "smith-cone", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["projective_total"] == 2


class TestTableLimit:
    @pytest.mark.parametrize("argv", [
        ("bounds", "--s", "2", "--k", "1:1048577"),
        ("bounds", "--s", "1:2000", "--k", "1:2000"),
        ("bounds", "--s", "2", "--k", "2000000"),
        ("bounds", "--s", "2", "--k", "5", "--i", "0:1048576"),
        ("bounds", "--s", "1:1100", "--k", "1:1000", "--aggregate"),
        ("ci", "--j", "2", "--k", "1:1048577"),
        ("ci", "--j", "1:1100", "--k", "1:1000"),
    ])
    def test_oversized_table_rejected_before_work(self, capsys, monkeypatch, argv):
        def no_work(*args):
            raise AssertionError("a table row was computed")

        for name in ("bound_betti", "bound_aggregate", "b_ci"):
            monkeypatch.setattr(cli, name, no_work)
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: table has ")
        assert f"above the limit of {cli.MAX_TABLE_ROWS}" in captured.err

    def test_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TABLE_ROWS", 6)
        assert main(["ci", "--j", "1:2", "--k", "1:3"]) == 0
        assert main(["ci", "--j", "1:2", "--k", "1:4"]) == 2
        assert main(["bounds", "--s", "1:2", "--k", "3"]) == 0
        assert main(["bounds", "--s", "1:2", "--k", "1:3"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: table has 8 rows, above the limit of 6",
            "error: table has 12 rows, above the limit of 6",
        ]


class TestRowWorkLimit:
    @pytest.mark.parametrize("argv, unit, limit", [
        (("ci", "--j", "1", "--k", "100000000"), "recurrence steps", "MAX_CI_STEPS"),
        (("ci", "--j", "1:3", "--k", "2000000"), "recurrence steps", "MAX_CI_STEPS"),
        (("bounds", "--s", "4000", "--k", "4000", "--i", "0"), "terms", "MAX_BOUND_TERMS"),
        (("bounds", "--s", "2,4000", "--k", "4000"), "terms", "MAX_BOUND_TERMS"),
        (("bounds", "--s", "4000", "--k", "4000", "--aggregate"), "terms", "MAX_BOUND_TERMS"),
    ])
    def test_heavy_row_rejected_before_work(self, capsys, monkeypatch, argv, unit, limit):
        def no_work(*args):
            raise AssertionError("a table row was computed")

        for name in ("bound_betti", "bound_aggregate", "b_ci"):
            monkeypatch.setattr(cli, name, no_work)
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: one row needs ")
        assert f"{unit}, above the limit of {getattr(cli, limit)}" in captured.err

    @pytest.mark.parametrize("argv, last_row", [
        (("bounds", "--s", "1", "--k", "100000000", "--i", "0"), "1,100000000,0,200000003,2"),
        (("ci", "--j", "1", "--k", "1000000"), "1,1000000,2,1000000"),
        (("ci", "--j", "0", "--k", "100000000"), "0,100000000,,100000001"),
    ])
    def test_light_row_with_huge_k_runs(self, capsys, argv, last_row):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == last_row

    def test_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CI_STEPS", 6)
        monkeypatch.setattr(cli, "MAX_BOUND_TERMS", 3)
        assert main(["ci", "--j", "2", "--k", "4"]) == 0  # 2 * 3 steps
        assert main(["ci", "--j", "2", "--k", "5"]) == 2  # 2 * 4 steps
        assert main(["bounds", "--s", "2", "--k", "5", "--i", "3"]) == 0  # 3 terms
        assert main(["bounds", "--s", "3", "--k", "5", "--i", "2"]) == 2  # 4 terms
        assert main(["bounds", "--s", "3", "--k", "6", "--aggregate"]) == 2  # 4 terms
        assert capsys.readouterr().err.splitlines() == [
            "error: one row needs 8 recurrence steps, above the limit of 6",
            "error: one row needs 4 terms, above the limit of 3",
            "error: one row needs 4 terms, above the limit of 3",
        ]


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int-to-str limit")


@needs_digit_limit
class TestCiDigitLimit:
    @pytest.mark.parametrize("argv, j, k", [
        (("ci", "--j", "100000", "--k", "100000"), 100000, 100000),
        (("ci", "--j", "1000000", "--k", "1000000"), 1000000, 1000000),
        (("ci", "--j", "1", "--k", "1000000", "--degrees", "1000000000000"), 1, 1000000),
    ])
    def test_unprintable_total_rejected_before_work(self, capsys, monkeypatch, argv, j, k):
        def no_work(*args):
            raise AssertionError("a table row was computed")

        monkeypatch.setattr(cli, "b_ci", no_work)
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the total for j={j}, k={k} may exceed {sys.get_int_max_str_digits()} "
            "digits, the limit of sys.get_int_max_str_digits()\n")

    def test_limit_follows_the_interpreter_setting(self, capsys):
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            assert run_cli(capsys, "ci", "--j", "1000", "--k", "1000")[0] == 0  # 302 digits
            assert run_cli(capsys, "ci", "--j", "2200", "--k", "2200")[0] == 2  # 663 digits
            sys.set_int_max_str_digits(0)  # no limit
            code, out = run_cli(capsys, "ci", "--j", "20000", "--k", "20000")
            assert code == 0
            assert out.splitlines()[-1].rsplit(",", 1)[1] == str(2**20000)
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("argv, last_row", [
        # (k + 1) * 3^k would pass 4300 digits at k = 9100; the total has five
        (("ci", "--j", "2", "--k", "9100"), "2,9100,2;2,18200"),
        (("ci", "--j", "0", "--k", "100000"), "0,100000,,100001"),
    ])
    def test_small_total_with_large_k_prints(self, capsys, argv, last_row):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == last_row


def _fresh_process(argvs, module):
    """Run each argv through cli.main in one new interpreter: its exit codes and
    whether `module` was loaded, as printed."""
    src = str(Path(quadbetti.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, sys\n"
        "from quadbetti import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {argvs!r}]\n"
        f"print(codes, {module!r} in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_audit_and_verify_leave_numpy_random_unloaded():
    # numpy loads numpy.random lazily; only a float probe used to pull it in.
    argvs = [["audit", "--name", "smith-cone"], ["verify", "--full"]]
    assert _fresh_process(argvs, "numpy.random") == "[0, 0] False\n"


@pytest.mark.parametrize("argv, code", [(["bounds", "--s", "1:3", "--k", "6"], 0), (["ci", "--j", "2", "--k", "6"], 0),
                                        (["--help"], 0), (["audit", "--help"], 0),
                                        (["audit", "--name", "bogus"], 2), (["bounds", "--k", "3"], 2),
                                        (["bounds", "--s", "1:3", "--k", "6", "--aggregate"], 0),
                                        (["bounds", "--s", "5", "--k", "3"], 0),
                                        (["bounds", "--s", "1000000", "--k", "3", "--aggregate"], 0),
                                        (["bounds", "--help"], 0), (["ci", "--help"], 0), (["verify", "--help"], 0)],
                         ids=["bounds", "ci", "help", "audit-help", "audit-unknown-name", "bounds-without-s",
                              "bounds-aggregate", "bounds-s-above-k", "bounds-aggregate-huge-s",
                              "bounds-help", "ci-help", "verify-help"])
def test_exact_commands_leave_numpy_unloaded(argv, code):
    # Neither the package root nor cli imports the grid engine or the report
    # dataclasses for these; help and the usage errors take the audit names
    # from the keys of cli.AUDITS.
    for module in ("numpy", "dataclasses"):
        assert _fresh_process([argv], module) == f"[{code}] False\n", module


def _terminal_reads(capsys, monkeypatch, argv) -> int:
    """How often `main(argv)` on a warm parser reads the terminal size."""
    cli._parser()
    calls = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
    main(argv)
    capsys.readouterr()
    return len(calls)


@pytest.mark.parametrize("argv", [["--help"], ["audit", "--name", "mv-wedge", "--bogus"], ["bounds", "--k", "3"]])
def test_parser_reads_the_terminal_width_once(capsys, monkeypatch, argv):
    # Help and a usage error read it to lay out what they print.
    assert _terminal_reads(capsys, monkeypatch, argv) == 1


def test_warm_parser_runs_an_audit_without_reading_the_terminal_width(capsys, monkeypatch):
    assert _terminal_reads(capsys, monkeypatch, ["audit", "--name", "mv-wedge"]) == 0


def test_audit_and_verify_call_no_float_linear_algebra(capsys, monkeypatch):
    import numpy.linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("norm", "lstsq", "svd"):
        monkeypatch.setattr(numpy.linalg, name, forbidden)
    assert main(["audit", "--name", "smith-cone"]) == 0
    assert main(["verify", "--full"]) == 0
    assert capsys.readouterr().err == ""


class TestOutputFile:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code = main(["ci", "--j", "1", "--k", "3", "--output", str(target)])
        assert code == 0
        assert target.read_text().splitlines()[1] == "1,3,2,4"

    def test_missing_directory_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code = main(["ci", "--j", "1", "--k", "3", "--output", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not target.parent.exists()

    def test_usage_error_without_subcommand(self, capsys):
        assert main([]) == 2


@pytest.fixture
def fresh_parser():
    """Each subcommand's parser holds its handler, so a test that patches a
    `cli._cmd_*` handler needs a parser built after the patch; and the tests
    after it need one built after the patch is undone."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


@pytest.mark.usefixtures("fresh_parser")
class TestInternalError:
    @pytest.mark.parametrize("exc", [RuntimeError("boom"), RecursionError("deep"), KeyError("k")])
    def test_crash_exits_4_not_violation(self, capsys, monkeypatch, exc):
        def crash(args, out):
            raise exc

        monkeypatch.setattr(cli, "_cmd_audit", crash)
        code = main(["audit", "--name", "mv-wedge"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.splitlines()[0] == f"error: internal: {exc!r}"

    def test_usage_errors_still_exit_2(self, capsys, monkeypatch):
        def bad(args, out):
            raise TypeError("not a rational")

        monkeypatch.setattr(cli, "_cmd_audit", bad)
        assert main(["audit", "--name", "mv-wedge"]) == 2
        assert capsys.readouterr().err == "error: not a rational\n"
