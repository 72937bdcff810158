"""Self-tests of the benchmark: on a tiny version of every workload the
named spans all fire, tracing leaves every output unchanged and correct,
and the runner refuses a directory that holds no program.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = 0.05
SEED = 7

INT_KERNELS = {f"series.kernel.int.{k}" for k in
               ("mul_one_minus_uqk", "div_one_minus_uqk", "add_scaled_shifted")}
EXPECTED_SPANS = {
    "cyclotomic": INT_KERNELS | {
        "cli", "verify.verify", "series.map_ring",
        "series.kernel.cyc.mul_one_minus_uqk",
        "series.kernel.cyc.add_scaled_shifted",
        "genfun.p_polynomial", "genfun.gf_C", "genfun.gf_D",
        "partitions.count_C", "partitions.count_D",
        *(f"genfun.epsilon.{r}" for r in
          ("definition", "triangular", "qbinomial", "identity", "closed3"))},
    "counting": INT_KERNELS | {
        "cli", "verify.verify", "genfun.gf_regular", "genfun.gf_Bj_lhs",
        "genfun.epsilon.triangular", "partitions.count_table",
        *(f"partitions.{f}" for f in
          ("count_A", "count_bounded_mult", "count_B", "count_Bj", "count_C",
           "count_D"))},
    "density": {
        "series.kernel.int.mul_one_minus_uqk",
        "series.kernel.int.add_scaled_shifted",
        "cli", "verify.density_report", "genfun.epsilon.triangular",
        "genfun.epsilon.qbinomial", "genfun.p_polynomial"},
    "api-session": {
        "verify.verify", "genfun.gf_regular",
        *(f"partitions.{f}" for f in
          ("count_A", "count_bounded_mult", "count_B", "count_Bj", "count_C",
           "count_D"))},
}


@pytest.fixture(autouse=True)
def fresh_budget():
    run.OUT.mkdir(exist_ok=True)
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    run.T_START = perf_counter()


def assert_linked(spans: list[dict]):
    for rec in spans:
        assert rec["end"] is not None and rec["end"] >= rec["start"]
        if rec["parent"] is not None:
            parent = spans[rec["parent"]]
            assert parent["start"] <= rec["start"] <= rec["end"] <= parent["end"]


@pytest.mark.parametrize("workload", sorted(workloads.DECKS))
def test_cli_spans_fire_and_outputs_match(workload):
    checker = checks.Checker()
    span_file = run.OUT / "test-spans.jsonl"
    names = set()
    for op in workloads.DECKS[workload](SEED, size=TINY):
        plain = run.spawn(run.glaisher_argv(op), run.child_env(op.env))
        traced = run.spawn(run.glaisher_argv(op, span_file), run.child_env(op.env))
        assert traced["rc"] == plain["rc"], op.key
        assert checks.canonical(op.kind, traced["out"]) == \
            checks.canonical(op.kind, plain["out"]), op.key
        assert checker.op_problems(op, traced["rc"], traced["out"]) == [], op.key
        spans = run.read_spans(span_file)
        assert_linked(spans)
        assert [r["name"] for r in spans if r["parent"] is None] == ["cli"]
        names |= {r["name"] for r in spans}
    assert EXPECTED_SPANS[workload] <= names, EXPECTED_SPANS[workload] - names


def test_api_session_spans_fire_and_results_match():
    stream = workloads.api_stream(SEED, size=TINY)
    plan, result = run.write_plan(stream), run.OUT / "test-api-result.json"
    span_file = run.OUT / "test-spans.jsonl"
    plain = run.session(plan, result)
    traced = run.session(plan, result, span_file)
    assert traced["results"] == plain["results"]
    assert checks.Checker().session_problems(stream, plain["results"]) == (0, [])
    spans = run.read_spans(span_file)
    assert_linked(spans)
    assert EXPECTED_SPANS["api-session"] <= {r["name"] for r in spans}
    assert not any(r["name"].startswith("series.kernel.cyc") for r in spans)


def test_table_builds_are_observed():
    """count_D walked upwards to n = 130 builds tables of 64, 128 and 256
    cells (doubling), against 131 cells needed."""
    import spans as sp
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import spans, json\n"
        "t = spans.Tracer(); spans.install(t)\n"
        "import glaisher\n"
        "for n in range(131): glaisher.count_D(3, n)\n"
        "print(json.dumps(t.spans))\n")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)],
                         env=run.child_env(), capture_output=True, text=True,
                         check=True).stdout
    got = sp.layer_metrics([json.loads(out)])
    assert got["partitions.calls"] == 131
    assert got["partitions.table_builds"] == 3
    assert got["partitions.cells_built"] == 64 + 128 + 256
    assert got["partitions.cells_needed"] == 131


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "counting",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_loop_gauges_the_run():
    gauge = run.Gauge()
    for _ in range(3):
        gauge.sample()
    gauge.check()
    assert gauge.scale() == run.REF_NOMINAL_S / sorted(gauge.walls)[1]
    gauge.outs.add(b"0\n")
    with pytest.raises(RuntimeError):
        gauge.check()


def test_same_seed_same_inputs():
    for make in workloads.DECKS.values():
        assert [op.key for op in make(3)] == [op.key for op in make(3)]
        assert [op.key for op in make(3)] != [op.key for op in make(4)]
    assert workloads.api_stream(3) == workloads.api_stream(3)
    assert workloads.api_stream(3) != workloads.api_stream(4)


def test_default_seed_is_pinned():
    """Changing a deck changes its ops; the pins must follow (pin.py)."""
    pins = checks.load_pins()
    for make in workloads.DECKS.values():
        assert all(op.key in pins for op in make(run.DEFAULT_SEED))
    assert checks.stream_key(workloads.api_stream(run.DEFAULT_SEED)) in pins
