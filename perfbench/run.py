#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for glaisher.

    python3 perfbench/run.py --workload cyclotomic --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from src/.
Workloads (see workloads.py for why each exists):

  cyclotomic, counting, density
      CLI ops, each a fresh `python -m glaisher` process, one at a time,
      closed loop, one client.  An op's latency runs from spawn to exit.
  api-session
      Fresh processes that each import glaisher once and run the seed's
      stream of Python API calls; latency is per call.

--trace 0 measures the end-to-end metrics.  Between ops the runner also
spawns a fixed reference loop (refloop.py), and every timing it reports is
scaled by REF_NOMINAL_S over the run's median reference time: speed drift
of the shared host moves both alike and cancels.  The raw wall times are
printed above the result line.  --trace 1 runs one round of the
seed's ops twice, untraced and with every layer wrapped in spans (spans.py),
and reports the per-layer metrics; the spans, with parent links, go to
perfbench/out/.  Either way every op's output is checked after the timed
region (checks.py), and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_SAMPLES = 9
REF_NOMINAL_S = 0.24  # the reference loop's wall time at the nominal speed
IMPORTTIME_SAMPLES = 5
RUN_BUDGET_S = 170.0  # every run must exit within 180 s
T_START = perf_counter()


class Budget(Exception):
    """The run's wall-clock budget ran out while a child was running."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


def spawn(argv: list[str], env: dict) -> dict:
    """Run one child to completion: stdout, exit code, wall time from spawn
    to exit, and the child's own max RSS (from wait4)."""
    remaining = RUN_BUDGET_S - (perf_counter() - T_START)
    with open(OUT / "child-stderr.txt", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        chunks, killed = [], False
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            fd = proc.stdout.fileno()
            while True:
                left = remaining - (perf_counter() - t0)
                if left <= 0:
                    proc.kill()
                    killed = True
                    break
                if not sel.select(left):
                    continue
                data = os.read(fd, 1 << 16)
                if not data:
                    break
                chunks.append(data)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if killed:
        raise Budget(" ".join(argv))
    res = {"out": b"".join(chunks), "rc": proc.returncode, "wall": wall,
           "rss_mb": usage.ru_maxrss / 1024}
    if proc.returncode not in (0, 1):
        res["err"] = stderr_tail()
    return res


def stderr_tail() -> str:
    text = (OUT / "child-stderr.txt").read_text(encoding="utf-8", errors="replace")
    return text[-600:]


def glaisher_argv(op: workloads.Op, spans_path: Path | None = None) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "glaisher", *op.args]
    return [sys.executable, str(HERE / "child.py"), "cli", str(spans_path),
            *op.args]


class Gauge:
    """Wall times of the reference loop, spawned between ops: how fast the
    machine ran during the run.  A program change cannot move them."""

    def __init__(self):
        self.walls: list[float] = []
        self.outs: set[bytes] = set()

    def sample(self) -> None:
        res = spawn([sys.executable, str(HERE / "refloop.py")], child_env())
        self.walls.append(res["wall"])
        self.outs.add(res["out"] if res["rc"] == 0 else b"exit %d" % res["rc"])

    def scale(self) -> float:
        """Factor that takes a wall time of this run to the nominal speed."""
        return REF_NOMINAL_S / statistics.median(self.walls)

    def check(self) -> None:
        """A reference loop that did other work would gauge nothing."""
        import refloop
        if self.outs != {refloop.checksum().encode() + b"\n"}:
            raise RuntimeError(f"reference loop printed {self.outs}")


def setup_s(samples: int, gauge: Gauge) -> float:
    """Median wall time of a fresh `python -m glaisher --help`: interpreter
    start, `import glaisher`, click, and the CLI's entry point.  Each sample
    is followed by one of the reference loop."""
    walls = []
    for _ in range(samples):
        res = spawn([sys.executable, "-m", "glaisher", "--help"], child_env())
        if res["rc"] != 0 or b"Usage" not in res["out"]:
            raise RuntimeError(f"glaisher --help failed: {res.get('err')}")
        walls.append(res["wall"])
        gauge.sample()
    return statistics.median(walls)


def import_times() -> dict:
    """Cumulative import time of glaisher and click, from -X importtime."""
    got = {"glaisher": [], "click": []}
    for _ in range(IMPORTTIME_SAMPLES):
        spawn([sys.executable, "-X", "importtime", "-m", "glaisher", "--help"],
              child_env())
        for line in (OUT / "child-stderr.txt").read_text().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in got:
                got[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {f"setup.import.{k}_s": statistics.median(v) if v else 0.0
            for k, v in got.items()}


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------


def metadata(seed: int, workload: str) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "glaisher").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    import glaisher
    backend = getattr(glaisher, "backend_name", None)
    env = workloads.DENSITY_CEILING if workload == "density" else None
    return {
        "workload": workload, "seed": seed, "git_sha": sha,
        "src_sha256": src.hexdigest(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": backend() if callable(backend) else None,
        "GLAISHER_PURE_PYTHON": os.environ.get("GLAISHER_PURE_PYTHON"),
        "GLAISHER_CEILING": env or os.environ.get("GLAISHER_CEILING"),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Tally:
    """Attempted / failed ops, with the reasons printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, what: str, problems: list[str], count: int = 1, failed=None):
        self.attempted += count
        if problems:
            self.failed += count if failed is None else failed
            for p in problems[:5]:
                print(f"perfbench: FAIL {what}: {p}", file=sys.stderr)


def check_cli_records(records, tally: Tally) -> None:
    """Full checks once per distinct op; repeats must hash the same."""
    from checks import Checker, canonical, digest
    checker = Checker()
    first = {}
    for op, res in records:
        try:
            canon = digest(canonical(op.kind, res["out"]))
        except ValueError:
            canon = None
        if op.key in first:
            same = canon is not None and canon == first[op.key]
            tally.add(op.key, [] if same else ["output differs between runs"])
            continue
        first[op.key] = canon
        problems = checker.op_problems(op, res["rc"], res["out"])
        if problems and "err" in res:
            problems.append(res["err"])
        tally.add(op.key, problems)


def another_round(t0: float, r0: float, seconds: float) -> bool:
    """Start another round when at least half of one still fits, so a run
    lasts about `seconds` and holds only whole rounds."""
    now = perf_counter()
    return now - t0 + (now - r0) / 2 < seconds


def summarize(groups: list[list[float]]) -> dict:
    """Throughput, the ops of all whole rounds (CLI) or sessions (API) over
    their summed op time, and the median latency over all ops."""
    flat = [lat for g in groups for lat in g]
    return {"ops_per_s": len(flat) / sum(flat),
            "op_p50_s": statistics.median(flat), "_samples": len(flat)}


def run_cli(workload: str, seed: int, seconds: float, tally: Tally,
            gauge: Gauge) -> dict:
    deck = workloads.DECKS[workload](seed)
    records, groups = [], []
    t0 = perf_counter()
    while True:  # whole rounds, so every run does the same mix
        r0 = perf_counter()
        for op in deck:
            records.append((op, spawn(glaisher_argv(op), child_env(op.env))))
            gauge.sample()
        groups.append([res["wall"] for _, res in records[-len(deck):]])
        if not another_round(t0, r0, seconds):
            break
    elapsed = perf_counter() - t0
    check_cli_records(records, tally)
    return {**summarize(groups), "_elapsed": elapsed,
            "peak_rss_mb": max(res["rss_mb"] for _, res in records)}


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def trace_cli(workload: str, seed: int, tally: Tally) -> tuple[dict, list]:
    """One round of the deck, each op untraced and then traced."""
    import spans as sp
    deck = workloads.DECKS[workload](seed)
    records, traces = [], []
    wall_u = wall_t = out_bytes = 0.0
    span_file = OUT / "child-spans.jsonl"
    for idx, op in enumerate(deck):
        plain = spawn(glaisher_argv(op), child_env(op.env))
        traced = spawn(glaisher_argv(op, span_file), child_env(op.env))
        records += [(op, plain), (op, traced)]
        spans = read_spans(span_file)
        for rec in spans:
            rec["op"] = idx
        traces.append(spans)
        wall_u += plain["wall"]
        wall_t += traced["wall"]
        out_bytes += len(traced["out"])
    check_cli_records(records, tally)
    metrics = sp.layer_metrics(traces)
    metrics["cli.output_bytes"] = int(out_bytes)
    metrics["trace.overhead_ratio"] = wall_t / wall_u
    metrics["trace.untraced_s"] = wall_t - metrics.pop("top_span_s")
    return metrics, traces


def session(plan: Path, result: Path, spans_path: Path | None = None) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "api", str(plan), str(result)]
    if spans_path is not None:
        argv.append(str(spans_path))
    res = spawn(argv, child_env())
    if res["rc"] != 0:
        raise RuntimeError(f"api session failed: {res.get('err')}")
    with open(result, encoding="utf-8") as fh:
        res.update(json.load(fh))
    return res


def check_sessions(stream, sessions, tally: Tally) -> None:
    from checks import Checker
    failed, problems = Checker().session_problems(stream, sessions[0]["results"])
    tally.add("api-session", problems, len(stream), failed)
    for res in sessions[1:]:
        same = res["results"] == sessions[0]["results"]
        tally.add("api-session", [] if same else ["a session answered differently"],
                  len(stream), 0 if same else len(stream))


def write_plan(stream) -> Path:
    plan = OUT / "api-plan.json"
    plan.write_text(json.dumps(stream), encoding="utf-8")
    return plan


def run_api(seed: int, seconds: float, tally: Tally, gauge: Gauge) -> dict:
    stream = workloads.api_stream(seed)
    plan, result = write_plan(stream), OUT / "api-result.json"
    sessions, groups = [], []
    t0 = perf_counter()
    while True:
        r0 = perf_counter()
        sessions.append(session(plan, result))
        gauge.sample()
        groups.append(sessions[-1]["latencies"])
        if not another_round(t0, r0, seconds):
            break
    elapsed = perf_counter() - t0
    check_sessions(stream, sessions, tally)
    raw = [lat for res in sessions for lat in res["latencies"]]
    return {**summarize(groups), "_elapsed": elapsed,
            "_p99": statistics.quantiles(raw, n=100)[98],
            "peak_rss_mb": max(res["rss_mb"] for res in sessions)}


def trace_api(seed: int, tally: Tally) -> tuple[dict, list]:
    import spans as sp
    stream = workloads.api_stream(seed)
    plan, result = write_plan(stream), OUT / "api-result.json"
    span_file = OUT / "child-spans.jsonl"
    plain = session(plan, result)
    traced = session(plan, result, span_file)
    check_sessions(stream, [plain, traced], tally)
    traces = [read_spans(span_file)]
    metrics = sp.layer_metrics(traces)
    metrics["cli.output_bytes"] = 0
    metrics["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
    metrics["trace.untraced_s"] = traced["wall"] - metrics.pop("top_span_s")
    return metrics, traces


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(metrics: dict, units: dict) -> dict:
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "glaisher" / "__init__.py").is_file():
        print(f"perfbench: no glaisher sources at {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    tally = Tally()
    w = args.workload
    if args.trace:
        metrics = import_times()
        if w == "api-session":
            layer, traces = trace_api(args.seed, tally)
        else:
            layer, traces = trace_cli(w, args.seed, tally)
        metrics.update(layer)
        trace_path = OUT / f"trace-{w}-seed{args.seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as fh:
            for proc, spans in enumerate(traces):
                for rec in spans:
                    fh.write(json.dumps({"proc": proc, **rec}) + "\n")
        units = declared("per_layer")
        print(f"perfbench {w} seed={args.seed} trace=1: spans in {trace_path}")
        for name in units:
            print(f"  {name:40s} {metrics[name]:.6g} {units[name]}")
    else:
        gauge = Gauge()
        raw = {"setup_s": setup_s(SETUP_SAMPLES, gauge)}
        if w == "api-session":
            raw.update(run_api(args.seed, args.seconds, tally, gauge))
        else:
            raw.update(run_cli(w, args.seed, args.seconds, tally, gauge))
        gauge.check()
        scale = gauge.scale()
        metrics = {**raw, "ops_per_s": raw["ops_per_s"] / scale}
        for name in ("setup_s", "op_p50_s", "_p99"):
            if name in raw:
                metrics[name] = raw[name] * scale
        units = declared("end_to_end")
        print(f"perfbench {w} seed={args.seed} trace=0: "
              f"{metrics['_samples']} ops in {metrics['_elapsed']:.2f} s; "
              f"reference loop median {REF_NOMINAL_S / scale:.4f} s "
              f"(n={len(gauge.walls)}), scale {scale:.4f}")
        print(f"  {'metric':14s} {'at nominal':>12s} {'raw wall':>12s}")
        for name in units:
            print(f"  {name:14s} {metrics[name]:12.6g} {raw[name]:12.6g} "
                  f"{units[name]}")
        if "_p99" in metrics:
            print(f"  {'op_p99_s':14s} {metrics['_p99']:12.6g} {raw['_p99']:12.6g} "
                  f"s (n={metrics['_samples']})")
    print(f"  fail_ratio     {tally.failed}/{tally.attempted}")
    print("meta " + json.dumps(metadata(args.seed, w)))
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": report(metrics, units)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
