#!/usr/bin/env python3
"""Write pins.json: the sha256 of every default-seed op's canonical output.

    python3 perfbench/pin.py

Run from the root of a source checkout.  Each output is pinned only after
it passes the independent cross-checks.  The pins record the outputs of the
commit that introduced the benchmark; regenerate them only when an output
contract changes on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.SRC))
    checker = checks.Checker()
    checker.pins = {}
    pins = {}
    for name, make in workloads.DECKS.items():
        for op in make(run.DEFAULT_SEED):
            res = run.spawn(run.glaisher_argv(op), run.child_env(op.env))
            problems = checker.op_problems(op, res["rc"], res["out"])
            if problems:
                print(f"{name}: {op.key}: {problems}", file=sys.stderr)
                return 1
            pins[op.key] = checks.digest(checks.canonical(op.kind, res["out"]))
    stream = workloads.api_stream(run.DEFAULT_SEED)
    res = run.session(run.write_plan(stream), run.OUT / "api-result.json")
    failed, problems = checker.session_problems(stream, res["results"])
    if failed or problems:
        print(f"api-session: {problems}", file=sys.stderr)
        return 1
    pins[checks.stream_key(stream)] = checks.digest(
        json.dumps(res["results"]).encode())
    checks.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n",
                                encoding="utf-8")
    print(f"pinned {len(pins)} outputs in {checks.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
