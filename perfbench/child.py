"""Child processes of the benchmark.

    child.py cli <spans.jsonl> <glaisher args...>
        Run one `glaisher` command with every layer wrapped in spans; the
        command's stdout and exit code are untouched, the spans go to the
        file.  (Untraced CLI ops run `python -m glaisher` itself.)

    child.py api <plan.json> <result.json> [<spans.jsonl>]
        One long-lived API session: import glaisher once, run the plan's
        call stream in order, time each call, and write the latencies and
        the canonical results.  With a spans path, wrap the layers first.

The session needs `glaisher` importable (PYTHONPATH=src).
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def canonical_report(report) -> dict:
    """A verify report without its wall-clock field."""
    first = report.first_failure
    return {"theorem": report.theorem, "m": report.m,
            "range": list(report.range), "status": report.status,
            "first_failure": list(first) if first else None,
            "routes": list(report.routes)}


def run_cli(spans_path: str, argv: list[str]) -> None:
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    cli = sys.modules["glaisher.cli"]
    rec = tracer.begin("cli")
    try:
        cli.main(args=argv, prog_name="glaisher")
    finally:
        tracer.end(rec)
        tracer.dump(spans_path)


def run_api(plan_path: str, result_path: str, spans_path: str | None) -> None:
    import glaisher

    tracer = None
    if spans_path:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    with open(plan_path, encoding="utf-8") as fh:
        stream = json.load(fh)
    calls = []
    for name, *args in stream:
        if name == "verify":
            theorem, m, n_max = args
            calls.append((glaisher.verify, (theorem, m, n_max)))
        else:
            calls.append((getattr(glaisher, name), tuple(args)))
    latencies = []
    results = []
    t_start = perf_counter()
    for fn, args in calls:
        t0 = perf_counter()
        r = fn(*args)
        latencies.append(perf_counter() - t0)
        results.append(r)
    session_s = perf_counter() - t_start
    out = {"session_s": session_s, "latencies": latencies,
           "results": [str(r) if isinstance(r, int) else canonical_report(r)
                       for r in results]}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    if tracer is not None:
        tracer.dump(spans_path)


def main(argv: list[str]) -> None:
    mode, *rest = argv
    if mode == "cli":
        run_cli(rest[0], rest[1:])
    elif mode == "api":
        run_api(rest[0], rest[1], rest[2] if len(rest) > 2 else None)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
