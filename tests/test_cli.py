"""Command line behavior: tables, exit codes, determinism."""

import json

import pytest

from quadbetti.cli import main


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

    def test_invalid_combo_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "bounds", "--s", "5", "--k", "2")
        assert code == 2


class TestVerifyCommand:
    def test_default_suite_exit_zero(self, capsys):
        code, out = run_cli(capsys, "verify", "--seed", "0")
        assert code == 0
        assert "bounds-products-k3,PASS" in out

    def test_byte_identical_rerun(self, capsys):
        _, first = run_cli(capsys, "verify", "--seed", "0", "--format", "json")
        _, second = run_cli(capsys, "verify", "--seed", "0", "--format", "json")
        assert first == second


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

    def test_unknown_name_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "audit", "--name", "nope")
        assert code == 2

    def test_name_prefix_is_not_a_match(self, capsys):
        code, out = run_cli(capsys, "audit", "--name", "products-bounds-xyz")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("--name", "smith-cone", "--radius", "0"),
        ("--name", "double-cover-products", "--resolution", "0"),
        ("--name", "deformation-products", "--resolution", "0"),
    ])
    def test_zero_resolution_is_usage_error(self, capsys, argv):
        assert main(["audit", *argv]) == 2
        assert "resolution must be positive" in capsys.readouterr().err

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
