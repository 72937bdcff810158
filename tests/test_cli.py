"""CLI surface: subcommand grammar, the three output formats, the exit-code
contract (0 pass / 1 mismatch / 2 usage / 3 internal error), and JSON
round-tripping."""

import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glaisher
from glaisher.cli import _json, main
from glaisher.verify import THEOREMS


class _Stream(io.StringIO):
    """A captured stream that also copies what it is given into `mixed`."""

    def __init__(self, mixed):
        super().__init__()
        self.mixed = mixed

    def write(self, text):
        self.mixed.write(text)
        return super().write(text)


class Result:
    def __init__(self, exit_code, stdout, stderr, output):
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.output = output  # stdout and stderr, interleaved as written


class CliRunner:
    """Runs the CLI in this process with stdout and stderr captured, and
    with `env` set in os.environ for the call; the exit code is the one
    main's SystemExit carries."""

    def __init__(self, env=None):
        self.env = env or {}

    def invoke(self, cli, args):
        mixed = io.StringIO()
        out, err = _Stream(mixed), _Stream(mixed)
        saved = {key: os.environ.get(key) for key in self.env}
        old_streams = sys.stdout, sys.stderr
        os.environ.update(self.env)
        sys.stdout, sys.stderr = out, err
        try:
            cli(args=args, prog_name="glaisher")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else \
                (0 if exc.code is None else 1)
        finally:
            sys.stdout, sys.stderr = old_streams
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        return Result(code, out.getvalue(), err.getvalue(), mixed.getvalue())


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


# the commands whose work is P_m's size, m(m - 1)/2 cells at most, each
# with the function it does that work in
_P_COMMANDS = {
    "density": ("glaisher.cli.density_report", ["density", "--x", "10"]),
    "expand": ("glaisher.genfun.p_polynomial", ["expand", "--series", "P"]),
}


@pytest.mark.parametrize("command", sorted(_P_COMMANDS))
def test_m_over_the_P_m_bound_is_a_usage_error_before_any_work(
        monkeypatch, runner, tmp_path, command):
    # 101 * 100 / 2 = 5050 cells exceed the default ceiling of 5000
    target, args = _P_COMMANDS[command]
    calls = []
    monkeypatch.setattr(target, lambda *args: calls.append(args))
    out = tmp_path / "out.txt"
    result = runner.invoke(main, args + ["--m", "101", "--out", str(out)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == (
        f"glaisher {command}: error: --m 101: P_m's m(m - 1)/2 cells = 5050 "
        "exceeds the ceiling 5000 (override with GLAISHER_CEILING)")
    assert calls == []
    assert out.read_bytes() == b""


def test_m_100_is_within_the_P_m_bound(runner):
    from glaisher.genfun import p_polynomial
    from glaisher.verify import density_report

    result = runner.invoke(main, ["expand", "--series", "P", "--m", "100",
                                  "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["coefficients"] == \
        [str(c) for c in p_polynomial(100).coeffs]
    result = runner.invoke(main, ["density", "--m", "100", "--x", "60",
                                  "--format", "json"])
    assert result.exit_code == 0
    stats = density_report(100, 60)
    payload = json.loads(result.output)
    assert (payload["nonzero_count"], payload["window_bound"]) == \
        (stats.nonzero_count, stats.window_bound)


@pytest.mark.parametrize("command", sorted(_P_COMMANDS))
def test_ceiling_override_lets_m_101_through(command):
    result = CliRunner(env={"GLAISHER_CEILING": "5050"}).invoke(
        main, _P_COMMANDS[command][1] + ["--m", "101", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["m"] == 101


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


_PRECISION_THEOREMS = ("T1.5", "T1.9", "C1.10")


@st.composite
def _verify_args(draw):
    theorem = draw(st.sampled_from(THEOREMS))
    if theorem in ("T1.5", "T1.6"):
        m = draw(st.sampled_from([None, 3]))
    else:
        m = draw(st.integers(2, 7))
    size = "--precision" if theorem in _PRECISION_THEOREMS else "--n-max"
    args = ["verify", "--theorem", theorem, size, str(draw(st.integers(0, 60)))]
    if m is not None:
        args += ["--m", str(m)]
    if theorem == "T1.9":
        args += ["--N-sum", str(draw(st.integers(1, 6)))]
    return args


@settings(deadline=None, database=None, max_examples=60)
@given(_verify_args())
def test_verify_json_round_trips_for_random_valid_arguments(args):
    result = CliRunner().invoke(main, args + ["--format", "json"])
    body = result.output.rstrip("\n")
    assert json.dumps(json.loads(body), indent=2) == body
    payload = json.loads(body)
    assert list(payload) == ["theorem", "m", "range", "status",
                             "first_failure", "elapsed_ms", "routes"]
    assert result.exit_code == (0 if payload["status"] == "pass" else 1)


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


_AWKWARD = ['say "hi"', "back\\slash", "nul\x00 tab\t newline\n unit\x1f",
            "del\x7f", "café", "∑ \U0001d11e", "", "plain"]


@pytest.mark.parametrize("payload", [
    pytest.param(_AWKWARD, id="strings"),
    pytest.param({text: text for text in _AWKWARD}, id="keys"),
    pytest.param(["plain", "", "0", "-12"], id="plain-strings"),
    pytest.param([], id="empty-list"),
    pytest.param({}, id="empty-dict"),
    pytest.param([[], [1, [2, []]], [[[]]], ["a", 3, None]], id="nested"),
    pytest.param([None, True, False, 0, -7, 10 ** 40], id="scalars"),
    pytest.param({"first_failure": {"n": 5, "lhs": "A(5)=7",
                                    "rhs": 'B(5)="8"', "ok": False,
                                    "nested": {"deep": [], "none": None}},
                  "range": [0, 40], "routes": ["counts"]}, id="dict"),
    pytest.param({"first_failure": None, "range": [0, 40], "routes": []},
                 id="none-in-place-of-dict"),
    pytest.param("say \"é\"", id="bare-string"),
    pytest.param(None, id="bare-none"),
])
def test_json_writer_matches_json_dumps(payload):
    # `_json` builds the --format json text without the json module, except
    # for a string it must escape
    assert _json(payload) == json.dumps(payload, indent=2)


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


def test_verify_range_error_names_the_missing_argument(runner):
    result = runner.invoke(main, ["verify", "--theorem", "T1.2", "--m", "3",
                                  "--precision", "10"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == \
        "glaisher verify: error: n_max is required for this check"


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


# each command's work, by the name the command reads it under, and the
# command; `count` and `expand` import their layer when they run
_OUT_COMMANDS = {
    "count_table": ("glaisher.partitions.count_table",
                    ["count", "--family", "A", "--m", "3"]),
    "epsilon": ("glaisher.genfun.epsilon",
                ["expand", "--series", "epsilon", "--m", "3"]),
    "verify": ("glaisher.cli.verify",
               ["verify", "--theorem", "T1.2", "--m", "3"]),
    "density_report": ("glaisher.cli.density_report",
                       ["density", "--m", "3", "--x", "100"]),
}


def _stub_work(monkeypatch, runner, tmp_path, work) -> list:
    """Replace the command's work by a stub that records its calls, and
    check that the stub is the one the command reaches: with a writable
    --out it is called once."""
    target, args = _OUT_COMMANDS[work]
    calls = []
    monkeypatch.setattr(target, lambda *args, **kwargs: calls.append(args))
    runner.invoke(main, args + ["--out", str(tmp_path / "reached.out")])
    assert len(calls) == 1
    calls.clear()
    return calls


@pytest.mark.parametrize("work", sorted(_OUT_COMMANDS))
def test_out_in_a_missing_directory_is_a_one_line_usage_error(
        monkeypatch, runner, tmp_path, work):
    # reported before any work is done, with the path and the OS reason
    calls = _stub_work(monkeypatch, runner, tmp_path, work)
    target = tmp_path / "missing" / "x.json"
    result = runner.invoke(main, _OUT_COMMANDS[work][1] + ["--out", str(target)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"Error: cannot write --out {str(target)!r}: No such file or directory"
    ]
    assert calls == []
    assert not target.parent.exists()


@pytest.mark.parametrize("work", sorted(_OUT_COMMANDS))
def test_out_naming_a_directory_is_a_one_line_usage_error(
        monkeypatch, runner, tmp_path, work):
    calls = _stub_work(monkeypatch, runner, tmp_path, work)
    result = runner.invoke(main, _OUT_COMMANDS[work][1] + ["--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"Error: cannot write --out {str(tmp_path)!r}: ")
    assert calls == []


@pytest.mark.parametrize("args, message", [
    (["count", "--family", "Bj", "--m", "3"], "family Bj requires j"),
    (["count", "--family", "A", "--m", "3", "--n-max", "-1"],
     "--n-max must be non-negative"),
    (["expand", "--series", "A", "--m", "1"], "m must be >= 2"),
    (["expand", "--series", "epsilon", "--route", "closed3", "--m", "4"],
     "route closed3 is only valid for m = 3"),
    (["verify", "--theorem", "T1.5", "--m", "4", "--precision", "10"],
     "T1.5 is specific to m = 3"),
    (["density", "--m", "3", "--x", "0"], "x must be >= 1"),
])
def test_usage_error_leaves_an_empty_out_file(runner, tmp_path, args, message):
    # --out is opened before the command checks its arguments, as a shell
    # redirection would be, so every command leaves the same empty file
    target = tmp_path / "out.txt"
    result = runner.invoke(main, args + ["--out", str(target)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == \
        f"glaisher {args[0]}: error: {message}"
    assert target.read_bytes() == b""


def test_bad_out_wins_over_a_bad_argument(runner, tmp_path):
    target = tmp_path / "missing" / "x.json"
    result = runner.invoke(main, ["count", "--family", "A", "--m", "3",
                                  "--n-max", "-1", "--out", str(target)])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        f"Error: cannot write --out {str(target)!r}: No such file or directory"
    ]


_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).with_name("golden") / "regenerate.py")
_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_golden)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("args", [
    pytest.param(["count", "--family", "Bj", "--j", "2", "--m", "4",
                  "--n-max", "40"], id="count"),
    pytest.param(["expand", "--series", "epsilon", "--route", "definition",
                  "--m", "5", "--precision", "60"], id="expand"),
    pytest.param(["verify", "--theorem", "T1.4", "--m", "4", "--n-max", "40"],
                 id="verify"),
    pytest.param(["density", "--m", "3", "--x", "500"], id="density"),
])
def test_out_holds_the_bytes_stdout_gets(runner, tmp_path, args, fmt):
    # one output path: the --out file gets what stdout would, byte for
    # byte, but for a verify report's elapsed time
    args = args + ["--format", fmt]
    printed = runner.invoke(main, args)
    target = tmp_path / f"out.{fmt}"
    written = runner.invoke(main, args + ["--out", str(target)])
    assert written.exit_code == printed.exit_code
    assert written.output == ""
    assert printed.stdout.endswith("\n") and not printed.stdout.endswith("\n\n")
    assert _golden._normalised(target.read_bytes().decode()) == \
        _golden._normalised(printed.stdout)


def test_out_holds_the_report_of_a_mismatch(runner, tmp_path):
    target = tmp_path / "report.json"
    result = runner.invoke(main, ["verify", "--theorem", "T1.4", "--m", "4",
                                  "--n-max", "40", "--format", "json",
                                  "--out", str(target)])
    assert result.exit_code == 1
    assert result.output == ""
    assert json.loads(target.read_text())["status"] == "fail"


def _run_on_a_tty(args):
    """Run the CLI in a fresh process whose stdout is a pseudo-terminal;
    return what it printed there."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(glaisher.__file__).resolve().parents[1]))
    env.pop("NO_COLOR", None)
    master, slave = os.openpty()
    try:
        proc = subprocess.run([sys.executable, "-m", "glaisher", *args],
                              stdout=slave, env=env, timeout=120)
    finally:
        os.close(slave)
    chunks = []
    while True:
        try:
            chunk = os.read(master, 4096)
        except OSError:  # EIO: the terminal's last writer has closed it
            break
        if not chunk:
            break
        chunks.append(chunk)
    os.close(master)
    assert proc.returncode == 0
    return b"".join(chunks).decode()


@pytest.mark.skipif(not hasattr(os, "openpty"), reason="needs a pty")
def test_text_verdict_is_coloured_only_on_the_terminal(tmp_path):
    target = tmp_path / "report.txt"
    args = ["verify", "--theorem", "T1.3", "--m", "4", "--n-max", "10",
            "--format", "text"]
    assert _run_on_a_tty(args + ["--out", str(target)]) == ""
    report = target.read_text()
    assert "\x1b" not in report
    assert report.startswith("T1.3 (m = 4) over [0, 10]: PASS\n")
    assert "\x1b[32mPASS\x1b[0m" in _run_on_a_tty(args)


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


def test_start_up_imports_neither_click_nor_dataclasses_nor_inspect():
    # without site-packages, so a third-party import fails outright;
    # fractions (and the decimal it pulls in) loads only for density_report
    src = str(Path(glaisher.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import glaisher.cli; "
            "loaded = {'click', 'dataclasses', 'inspect', 'fractions', "
            "'decimal'} & set(sys.modules); "
            "assert not loaded, loaded; glaisher.cli.main(['--help'])")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("Usage: ")


_ENGINE = {"glaisher.genfun", "glaisher.series", "glaisher.kernels"}


@pytest.mark.parametrize("args,loads", [
    pytest.param(["--help"], set(), id="help"),
    pytest.param(["--version"], set(), id="version"),
    pytest.param(["count", "--family", "C", "--m", "3", "--n-max", "20"],
                 {"glaisher.partitions"}, id="count"),
    pytest.param(["count", "--family", "C", "--m", "3", "--n-max", "20",
                  "--format", "csv"], {"glaisher.partitions", "csv"},
                 id="count-csv"),
    pytest.param(["expand", "--series", "epsilon", "--m", "3", "--precision",
                  "20", "--route", "definition", "--format", "json"],
                 _ENGINE | {"glaisher._definition"}, id="expand"),
    pytest.param(["expand", "--series", "D", "--m", "3", "--precision", "20"],
                 _ENGINE, id="expand-D"),
    pytest.param(["density", "--m", "3", "--x", "200", "--format", "json"],
                 _ENGINE, id="density"),
    pytest.param(["verify", "--theorem", "T1.3", "--m", "3", "--n-max", "20"],
                 {"glaisher._checkers", "glaisher.partitions"}, id="verify"),
])
def test_each_command_loads_only_the_layers_it_runs(args, loads):
    # `import glaisher.cli` loads no layer but `verify`, and neither json
    # nor csv; the command then adds exactly the modules in `loads`, so no
    # command loads fractions or decimal (`density` prints N_x/x itself),
    # no --format json loads json, and only the definition route loads
    # `_definition`
    src = str(Path(glaisher.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import glaisher.cli\n"
            "def ours(names):\n"
            "    return {n for n in names if n.startswith('glaisher.') or "
            "n in ('json', 'csv', 'fractions', 'decimal')}\n"
            "before = ours(sys.modules)\n"
            "try:\n"
            "    glaisher.cli.main(sys.argv[2:])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(sorted(before), file=sys.stderr)\n"
            "print(sorted(ours(sys.modules) - before), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src, *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        repr(["glaisher.cli", "glaisher.verify"]), repr(sorted(loads))]


@pytest.mark.parametrize("args", [
    pytest.param(["count", "--family", "A", "--m", "3", "--bogus", "1"],
                 id="unknown-option"),
    pytest.param(["count", "--fam", "A", "--m", "3"], id="abbreviated-option"),
    pytest.param(["expand", "--series", "Q", "--m", "3"], id="bad-choice"),
    pytest.param(["density", "--m", "3"], id="missing-required"),
    pytest.param(["verify", "--theorem", "T1.2", "--m", "three"],
                 id="non-integer"),
    pytest.param(["tally", "--m", "3"], id="unknown-command"),
    pytest.param([], id="no-command"),
])
def test_grammar_errors_exit_two_with_empty_stdout(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr


@pytest.mark.parametrize("command", [[], ["count"], ["expand"], ["verify"],
                                     ["density"]])
def test_help_exits_zero(runner, command):
    result = runner.invoke(main, command + ["--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith("Usage: glaisher")
    assert result.stderr == ""


def test_version_line(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.stdout == "glaisher, version 0.1.0\n"


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
    monkeypatch.setattr("glaisher.genfun.triangular_stream", lambda m, x:
                        ((n, 1) for n in range(x)))
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

    monkeypatch.setattr("glaisher.partitions.count_table", broken)
    result = runner.invoke(main, ["count", "--family", "A", "--m", "3",
                                  "--n-max", "5"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "Error: internal error: RuntimeError: table store unavailable"
    ]
