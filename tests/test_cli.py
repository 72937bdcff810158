"""CLI surface: subcommand grammar, the three output formats, the exit-code
contract (0 pass / 1 mismatch / 2 usage / 3 internal error), and JSON
round-tripping."""

import json
import sys

import pytest
from click.testing import CliRunner

from glaisher.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_count_csv(runner):
    result = runner.invoke(main, ["count", "--family", "C", "--m", "3",
                                  "--n-max", "6", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "n,value", "0,1", "1,0", "2,0", "3,1", "4,1", "5,2", "6,3",
    ]


def test_count_json_uses_decimal_strings(runner):
    result = runner.invoke(main, ["count", "--family", "D", "--m", "3",
                                  "--n-max", "3", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["counts"] == ["1", "1", "2", "3"]
    assert all(isinstance(c, str) for c in payload["counts"])


def test_count_text_default(runner):
    result = runner.invoke(main, ["count", "--family", "B", "--m", "2",
                                  "--n-max", "4"])
    assert result.exit_code == 0
    assert "B_2 counts" in result.output


def test_count_bj_requires_j(runner):
    result = runner.invoke(main, ["count", "--family", "Bj", "--m", "3",
                                  "--n-max", "4"])
    assert result.exit_code == 2


def test_count_bj_with_j(runner):
    result = runner.invoke(main, ["count", "--family", "Bj", "--m", "3",
                                  "--j", "2", "--n-max", "5", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output.splitlines()[1:] == [
        "0,0", "1,0", "2,1", "3,1", "4,2", "5,3",
    ]


def test_count_rejects_bad_family(runner):
    result = runner.invoke(main, ["count", "--family", "Z", "--m", "3"])
    assert result.exit_code == 2


def test_count_rejects_over_ceiling(runner):
    result = runner.invoke(main, ["count", "--family", "A", "--m", "3",
                                  "--n-max", "5001"])
    assert result.exit_code == 2


def test_expand_epsilon_triangular(runner):
    result = runner.invoke(main, ["expand", "--series", "epsilon", "--m", "3",
                                  "--precision", "12", "--route", "triangular",
                                  "--format", "csv"])
    assert result.exit_code == 0
    values = [row.split(",")[1] for row in result.output.splitlines()[1:]]
    assert values == ["2", "-1", "-2", "0", "-1", "0", "0", "1", "0", "0",
                      "0", "2", "0"]


def test_expand_p_polynomial(runner):
    result = runner.invoke(main, ["expand", "--series", "P", "--m", "2",
                                  "--format", "csv"])
    assert result.exit_code == 0
    assert result.output.splitlines()[1:] == ["0,1"]


def test_expand_closed3_requires_m3(runner):
    result = runner.invoke(main, ["expand", "--series", "epsilon", "--m", "4",
                                  "--route", "closed3"])
    assert result.exit_code == 2


def test_expand_bj_lhs_finite(runner):
    result = runner.invoke(main, ["expand", "--series", "Bj-lhs", "--m", "2",
                                  "--N-sum", "1", "--precision", "6",
                                  "--format", "csv"])
    assert result.exit_code == 0
    values = [row.split(",")[1] for row in result.output.splitlines()[1:]]
    assert values == ["1"] * 7


def test_verify_pass_exit_zero(runner):
    result = runner.invoke(main, ["verify", "--theorem", "T1.3", "--m", "4",
                                  "--n-max", "150", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["status"] == "pass"
    assert payload["first_failure"] is None


def test_verify_json_round_trips_byte_identically(runner):
    result = runner.invoke(main, ["verify", "--theorem", "T1.2", "--m", "3",
                                  "--n-max", "40", "--format", "json"])
    assert result.exit_code == 0
    body = result.output.rstrip("\n")
    assert json.dumps(json.loads(body), indent=2) == body
    payload = json.loads(body)
    assert list(payload) == ["theorem", "m", "range", "status",
                             "first_failure", "elapsed_ms", "routes"]


@pytest.mark.parametrize("args,keys", [
    pytest.param(["count", "--family", "Bj", "--m", "4", "--j", "3",
                  "--n-max", "60"],
                 ["command", "family", "m", "j", "n_max", "counts"], id="count"),
    pytest.param(["expand", "--series", "epsilon", "--m", "5",
                  "--precision", "60", "--route", "definition"],
                 ["command", "series", "m", "precision", "route",
                  "coefficients"], id="expand"),
    pytest.param(["density", "--m", "4", "--x", "900"],
                 ["command", "m", "x", "nonzero_count", "N_x", "ratio",
                  "ratio_decimal", "window_bound", "bound_satisfied"],
                 id="density"),
])
def test_json_round_trips_byte_identically(runner, args, keys):
    result = runner.invoke(main, args + ["--format", "json"])
    assert result.exit_code == 0
    body = result.output.rstrip("\n")
    assert json.dumps(json.loads(body), indent=2) == body
    assert list(json.loads(body)) == keys


def test_verify_mismatch_exit_one(runner):
    result = runner.invoke(main, ["verify", "--theorem", "T1.4", "--m", "4",
                                  "--n-max", "40", "--format", "json"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["status"] == "fail"
    assert payload["first_failure"]["n"] == 2


def test_verify_t16_passes(runner):
    result = runner.invoke(main, ["verify", "--theorem", "T1.6", "--m", "3",
                                  "--n-max", "500"])
    assert result.exit_code == 0
    assert "PASS" in result.output


def test_verify_usage_error_exit_two(runner):
    result = runner.invoke(main, ["verify", "--theorem", "T1.5", "--m", "4"])
    assert result.exit_code == 2


def test_verify_csv(runner):
    result = runner.invoke(main, ["verify", "--theorem", "T1.9", "--m", "2",
                                  "--N-sum", "1", "--precision", "50",
                                  "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].startswith("theorem,m,")
    assert ",pass," in lines[1]


def test_density_json(runner):
    result = runner.invoke(main, ["density", "--m", "3", "--x", "1000",
                                  "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["nonzero_count"] == 46
    assert payload["N_x"] == 954
    assert payload["ratio"] == "954/1000"
    assert payload["ratio_decimal"] == "0.954000"
    assert payload["bound_satisfied"] is True
    body = result.output.rstrip("\n")
    assert json.dumps(json.loads(body), indent=2) == body


def test_density_m2(runner):
    result = runner.invoke(main, ["density", "--m", "2", "--x", "1000",
                                  "--format", "json"])
    assert json.loads(result.output)["nonzero_count"] == 1


def test_density_csv_header(runner):
    result = runner.invoke(main, ["density", "--m", "2", "--x", "100",
                                  "--format", "csv"])
    assert result.output.splitlines()[0] == \
        "m,x,nonzero_count,N_x,ratio,ratio_decimal,window_bound,bound_satisfied"


def test_out_writes_file(runner, tmp_path):
    target = tmp_path / "counts.csv"
    result = runner.invoke(main, ["count", "--family", "A", "--m", "2",
                                  "--n-max", "3", "--format", "csv",
                                  "--out", str(target)])
    assert result.exit_code == 0
    assert result.output == ""
    assert target.read_text().splitlines() == ["n,value", "0,1", "1,1",
                                               "2,1", "3,2"]


def test_deterministic_output(runner):
    args = ["density", "--m", "4", "--x", "600", "--format", "json"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


def test_density_m5_bound_holds_at_5000(runner):
    result = runner.invoke(main, ["density", "--m", "5", "--x", "5000",
                                  "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["bound_satisfied"] is True


def test_verify_t19_requires_block_count(runner):
    result = runner.invoke(main, ["verify", "--theorem", "T1.9", "--m", "3",
                                  "--precision", "50"])
    assert result.exit_code == 2


def test_negative_range_rejected(runner):
    result = runner.invoke(main, ["count", "--family", "A", "--m", "2",
                                  "--n-max", "-3"])
    assert result.exit_code == 2


def test_version_needs_no_installed_metadata(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "version 0.1.0" in result.output


@pytest.mark.parametrize("ceiling", ["abc", "-1", "2.5"])
def test_bad_ceiling_is_a_one_line_usage_error(ceiling):
    runner = CliRunner(env={"GLAISHER_CEILING": ceiling})
    result = runner.invoke(main, ["count", "--family", "A", "--m", "3",
                                  "--n-max", "5"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"Error: GLAISHER_CEILING must be a non-negative integer, got '{ceiling}'"
    ]


def test_density_bound_violation_exits_one_with_report(monkeypatch, runner):
    from glaisher.series import Series, Z

    module = sys.modules["glaisher.verify"]
    monkeypatch.setattr(module, "epsilon", lambda m, precision, route:
                        Series(Z, [1] * (precision + 1)))
    result = runner.invoke(main, ["density", "--m", "3", "--x", "1000",
                                  "--format", "json"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["bound_satisfied"] is False
    assert payload["nonzero_count"] == 1000
    assert payload["window_bound"] == 46


def test_unexpected_exception_is_a_one_line_internal_error(monkeypatch, runner):
    def broken(spec, n_max):
        raise RuntimeError("table store\nunavailable")

    monkeypatch.setattr("glaisher.cli.count_table", broken)
    result = runner.invoke(main, ["count", "--family", "A", "--m", "3",
                                  "--n-max", "5"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "Error: internal error: RuntimeError: table store unavailable"
    ]
