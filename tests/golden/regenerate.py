"""Write the golden CLI corpus, `cli.json` beside this script.

For every argv in `ARGVS`, the corpus holds the exit code of `glaisher`
and the sha256 of its stdout, run in-process through `cli.main` with
`GLAISHER_CEILING` unset.  The one figure that changes from run to run,
a verify report's elapsed time (`elapsed_ms` in json and csv,
`elapsed: ... ms` in text), is removed before hashing.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

`tests/test_golden.py` replays the corpus, so a change that moves any
hash must say why.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

from glaisher.cli import FORMATS, main as cli_main

CORPUS = Path(__file__).with_name("cli.json")


def _argvs() -> list[list[str]]:
    out = [["--version"]]

    def each_format(*argv):
        out.extend([*argv, "--format", fmt] for fmt in FORMATS)

    for family, m, extra in (("A", "3", ()), ("B", "3", ()),
                             ("Bj", "4", ("--j", "2")), ("C", "3", ()),
                             ("D", "3", ())):
        each_format("count", "--family", family, "--m", m, *extra,
                    "--n-max", "40")
    for series, extra in (("A", ()), ("B", ()), ("Bj-lhs", ()),
                          ("Bj-lhs", ("--N-sum", "3")), ("C", ()), ("D", ())):
        each_format("expand", "--series", series, "--m", "3",
                    "--precision", "40", *extra)
    for m in ("3", "5"):
        for route in ("definition", "triangular", "qbinomial", "identity"):
            each_format("expand", "--series", "epsilon", "--route", route,
                        "--m", m, "--precision", "60")
        each_format("expand", "--series", "P", "--m", m)
    each_format("expand", "--series", "epsilon", "--route", "closed3",
                "--m", "3", "--precision", "60")
    for argv in (("T1.2", "--m", "3", "--n-max", "60"),
                 ("E1.4", "--m", "4", "--n-max", "60"),
                 ("T1.3", "--m", "4", "--n-max", "60"),
                 ("T1.4", "--m", "3", "--n-max", "60"),
                 ("T1.4", "--m", "4", "--n-max", "40"),  # a mismatch: exit 1
                 ("T1.5", "--precision", "100"),
                 ("T1.6", "--n-max", "100"),
                 ("T1.8", "--m", "3", "--n-max", "60"),
                 ("T1.8", "--m", "4", "--n-max", "40"),  # a mismatch: exit 1
                 ("T1.9", "--m", "4", "--N-sum", "5", "--precision", "60"),
                 ("C1.10", "--m", "3", "--precision", "100")):
        each_format("verify", "--theorem", *argv)
    each_format("density", "--m", "3", "--x", "500")
    for m in (*range(2, 9), 20, 60):
        out.append(["expand", "--series", "epsilon", "--route", "qbinomial",
                    "--m", str(m), "--precision", "300", "--format", "csv"])
        out.append(["expand", "--series", "P", "--m", str(m),
                    "--format", "csv"])
    for m in (*range(2, 9), 20):
        out.append(["density", "--m", str(m), "--x", "2000",
                    "--format", "json"])
    out += [  # one-line usage errors: exit 2, nothing on stdout
        ["count", "--family", "Bj", "--m", "3"],
        ["count", "--family", "A", "--m", "3", "--n-max", "5001"],
        ["count", "--fam", "A", "--m", "3"],
        ["expand", "--series", "epsilon", "--route", "closed3", "--m", "4"],
        ["expand", "--series", "A", "--m", "1"],
        ["verify", "--theorem", "T1.5", "--m", "4", "--precision", "10"],
        ["verify", "--theorem", "T1.9", "--m", "4", "--precision", "10"],
        ["density", "--m", "3", "--x", "-1"],
        ["tabulate"],
    ]
    return out


ARGVS = _argvs()


def _normalised(stdout: str) -> str:
    """stdout without a verify report's elapsed time."""
    stdout = re.sub(r'\n *"elapsed_ms": \d+,', "", stdout)
    stdout = re.sub(r"   elapsed: \d+ ms", "", stdout)
    if stdout.startswith("theorem,m,"):
        stdout = re.sub(r",(elapsed_ms|\d+)$", "", stdout, flags=re.M)
    return stdout


def run(argv: list[str]) -> dict:
    """The exit code and the sha256 of the normalised stdout of one call."""
    out = io.StringIO()
    saved_env = os.environ.pop("GLAISHER_CEILING", None)
    saved_streams = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    try:
        cli_main(args=argv, prog_name="glaisher")
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr = saved_streams
        if saved_env is not None:
            os.environ["GLAISHER_CEILING"] = saved_env
    digest = hashlib.sha256(_normalised(out.getvalue()).encode()).hexdigest()
    return {"argv": argv, "exit": code, "sha256": digest}


def main() -> None:
    corpus = [run(argv) for argv in ARGVS]
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} entries to {CORPUS}")


if __name__ == "__main__":
    main()
