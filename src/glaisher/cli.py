"""Command-line front end: counting, series expansion, identity verification,
and density scans, with json / csv / text output.

The grammar is stdlib `argparse`, with abbreviations off on every parser,
so an option parses only under its full name.  Every call is a fresh
process, so the module loads at start-up only the stdlib modules the
grammar needs, the package constants and the `verify` layer (which the
package loads anyway).  Each command imports the layer it runs when it
runs: `count` loads `partitions` and `expand` loads `genfun` (and
`_definition` for `--route definition`); `csv` loads only for
`--format csv`.  No command loads `json`: `_json` writes the same text by
joins.

Every command prints through one output path, `_emit`: `main` opens
`--out`, then the command checks its arguments, does its work and hands
`_emit` a JSON payload, CSV rows and a text builder; `_emit` alone reads
`--format` and writes the one it names to the `--out` file or to stdout.
`count` and `expand`, one (n, value) row per cell, go through
`_emit_values`.  A `ValueError` from a command is a bad argument: `main`
reports it under the command's usage (exit 2).

Exit codes: 0 all checks pass, 1 a mathematical mismatch was found (a
failed identity, or a density census above its window bound), 2 usage or
configuration error, 3 internal error (any other exception, reported in
one line on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import EPSILON_ROUTES, __version__
from .verify import THEOREMS, density_report, verify

DEFAULT_RANGE = 200
FORMATS = ("json", "csv", "text")
SERIES_CHOICES = ("A", "B", "Bj-lhs", "C", "D", "epsilon", "P")

EXAMPLES = """\
Exact partition counting and q-series identity verification.

Examples:
    glaisher count --family C --m 3 --n-max 6 --format csv
    glaisher expand --series epsilon --m 3 --precision 12 --route triangular
    glaisher verify --theorem T1.3 --m 4 --n-max 150
    glaisher density --m 3 --x 1000
"""


class ConfigError(Exception):
    """A bad environment setting or --out path: a usage error (exit 2),
    reported in one line with no usage text."""


def _check_bound(value: int, name: str):
    if value < 0:
        raise ValueError(f"{name} must be non-negative")
    raw = os.environ.get("GLAISHER_CEILING", "5000")
    try:
        ceiling = int(raw)
        if ceiling < 0:
            raise ValueError(raw)
    except ValueError:
        raise ConfigError(
            f"GLAISHER_CEILING must be a non-negative integer, got {raw!r}"
        ) from None
    if value > ceiling:
        raise ValueError(
            f"{name} = {value} exceeds the ceiling {ceiling} "
            f"(override with GLAISHER_CEILING)"
        )


def _check_p_cells(m: int):
    """Bound --m where the work is P_m's size: its row [m - 1, j]_q holds
    at most m(m - 1)/2 cells (none for m < 2, which the command rejects)."""
    _check_bound(max(m, 0) * (m - 1) // 2, f"--m {m}: P_m's m(m - 1)/2 cells")


def _open_out(opts) -> None:
    """Open the --out file before the command checks its arguments, so a
    path that cannot be written (a missing directory, a directory itself)
    is a one-line configuration error (exit 2), not an internal error after
    the computation.  Like a shell redirection, this creates or truncates
    the file first, so a usage error leaves it empty.  `main` calls this
    once for every command, and closes the file when the command ends."""
    if opts.out is None:
        return
    try:
        opts.fh = open(opts.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(
            f"cannot write --out {opts.out!r}: {exc.strerror or exc}"
        ) from None


def _plain(s: str) -> bool:
    """Whether `json.dumps` writes `s` as it is between two quotes: it
    escapes a quote, a backslash and every character outside printable
    ASCII."""
    return s.isascii() and s.isprintable() and '"' not in s and "\\" not in s


def _json(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2)`, built by joins, for the values a
    payload holds: dicts with string keys, lists, strings, ints, bools and
    None.  `indent` is the newline and indentation of the line `value`
    starts on.  `json` loads only for a string that needs escaping.  A
    list of strings none of which needs escaping is two joins, so the
    count and coefficient lists print at C speed."""
    if isinstance(value, str):
        if _plain(value):
            return f'"{value}"'
        import json

        return json.dumps(value)
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{_json(key, inner)}: {_json(v, inner)}"
                 for key, v in value.items()]
    else:  # a list
        brackets = "[]"
        if set(map(type, value)) == {str} and _plain("".join(value)):
            items = ['"' + ('",' + inner + '"').join(value) + '"']
        else:
            items = [_json(v, inner) for v in value]
    if not items:
        return brackets
    return (brackets[0] + inner + ("," + inner).join(items) + indent
            + brackets[1])


def _emit(opts, payload, header, rows, text) -> None:
    """Print a command's result in its --format, to the --out file or to
    stdout, ending in one newline: `payload` as indented JSON (`_json`),
    `header` and `rows` as CSV, or the string `text()` returns.  `csv`
    loads only for its own format, and `text` is called only for text."""
    if opts.fmt == "json":
        body = _json(payload)
    elif opts.fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        body = buf.getvalue().rstrip("\n")
    else:
        body = text()
    print(body, file=opts.fh or sys.stdout, flush=True)


def _emit_values(opts, payload, title, values) -> None:
    """Print one (n, value) row per cell of `values`, under `title` in text."""
    def text():
        width = max(map(len, values))
        return "\n".join([title] + [f"{n:>6}  {v:>{width}}"
                                    for n, v in enumerate(values)])
    _emit(opts, payload, ("n", "value"), enumerate(values), text)


def _styled(text: str, ok: bool, fh) -> str:
    """Colour a verdict only for a terminal: text bound for --out (fh) stays
    plain."""
    if fh is not None or os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{32 if ok else 31}m{text}\x1b[0m"


def _ratio_decimal(num: int, den: int, places: int = 6) -> str:
    whole, rem = divmod(num, den)
    frac = rem * 10 ** places // den
    return f"{whole}.{frac:0{places}d}"


def count(opts) -> int:
    """Tabulate exact counts (n, value) for one family."""
    from .partitions import FamilySpec, count_table

    family, m, j, n_max = opts.family, opts.m, opts.j, opts.n_max
    _check_bound(n_max, "--n-max")
    spec = FamilySpec(family, m, j)
    values = [str(c) for c in count_table(spec, n_max).counts]
    payload = {
        "command": "count",
        "family": family,
        "m": m,
        "j": j,
        "n_max": n_max,
        "counts": values,
    }
    title = (f"{family}_{m}" + (f"^({j})" if j is not None else "")
             + f" counts for n = 0..{n_max}")
    _emit_values(opts, payload, title, values)
    return 0


def expand(opts) -> int:
    """Expand a generating function to (exponent, coefficient) rows."""
    from .genfun import epsilon, gf_Bj_lhs, gf_C, gf_D, gf_regular, p_polynomial

    series_name, m, precision, route = (
        opts.series_name, opts.m, opts.precision, opts.route)
    _check_bound(precision, "--precision")
    if series_name == "P":
        _check_p_cells(m)
    if series_name in ("A", "B"):
        s = gf_regular(m, f"{series_name}_product", precision)
    elif series_name == "Bj-lhs":
        s = gf_Bj_lhs(m, opts.n_sum, precision)
    elif series_name == "C":
        s = gf_C(m, precision)
    elif series_name == "D":
        s = gf_D(m, precision)
    elif series_name == "epsilon":
        s = epsilon(m, precision, route)
    else:  # the finite polynomial prefix, at its natural degree
        s = p_polynomial(m)
    values = [str(c) for c in s.coeffs]
    payload = {
        "command": "expand",
        "series": series_name,
        "m": m,
        "precision": s.precision,
        "route": route if series_name == "epsilon" else None,
        "coefficients": values,
    }
    _emit_values(opts, payload, f"{series_name} (m = {m}) to q^{s.precision}",
                 values)
    return 0


def verify_cmd(opts) -> int:
    """Check one identity and report the first mismatch, if any.

    Exits 0 on pass, 1 on a mathematical mismatch, 2 on usage errors,
    3 on an internal error.
    """
    n_max, precision, n_sum = opts.n_max, opts.precision, opts.n_sum
    if n_max is None and precision is None:
        n_max = precision = DEFAULT_RANGE
    for val, name in ((n_max, "--n-max"), (precision, "--precision"),
                      (n_sum, "--N-sum")):
        if val is not None:
            _check_bound(val, name)
    report = verify(opts.theorem, m=opts.m, n_max=n_max,
                    precision=precision, n_sum=n_sum)
    failed = report.first_failure
    n, lhs, rhs = failed or ("", "", "")
    lo, hi = report.range
    payload = {
        "theorem": report.theorem,
        "m": report.m,
        "range": [lo, hi],
        "status": report.status,
        "first_failure": None if failed is None else {
            "n": n,
            "lhs": lhs,
            "rhs": rhs,
        },
        "elapsed_ms": report.elapsed_ms,
        "routes": list(report.routes),
    }
    header = ("theorem", "m", "range_lo", "range_hi", "status", "first_n",
              "lhs", "rhs", "elapsed_ms")
    row = (report.theorem, report.m, lo, hi, report.status, n, lhs, rhs,
           report.elapsed_ms)

    def text():
        verdict = _styled(report.status.upper(), report.passed, opts.fh)
        lines = [f"{report.theorem} (m = {report.m}) over [{lo}, {hi}]: "
                 + verdict,
                 f"routes: {', '.join(report.routes)}   "
                 f"elapsed: {report.elapsed_ms} ms"]
        if failed:
            lines.append(f"first failure at n = {n}: {lhs} != {rhs}")
        lines += [f"note [{key}]: {val}" for key, val in report.notes.items()]
        return "\n".join(lines)
    _emit(opts, payload, header, [row], text)
    return 0 if report.passed else 1


def density(opts) -> int:
    """Count vanishing correction coefficients below x and check the
    window sparsity bound.

    Exits 0 when the census is within the bound, 1 when it breaks it.
    """
    _check_bound(opts.x, "--x")
    _check_p_cells(opts.m)
    stats = density_report(opts.m, opts.x)
    payload = {
        "command": "density",
        "m": stats.m,
        "x": stats.x,
        "nonzero_count": stats.nonzero_count,
        "N_x": stats.N_x,
        "ratio": f"{stats.N_x}/{stats.x}",
        "ratio_decimal": _ratio_decimal(stats.N_x, stats.x),
        "window_bound": stats.window_bound,
        "bound_satisfied": stats.bound_satisfied,
    }
    header = [key for key in payload if key != "command"]
    _emit(opts, payload, header, [[payload[key] for key in header]],
          lambda: "\n".join([
              f"correction-series census for m = {stats.m}, n < {stats.x}",
              f"nonzero coefficients: {stats.nonzero_count}",
              f"vanishing coefficients (E(n) = 0): {stats.N_x}",
              f"ratio: {payload['ratio']} = {payload['ratio_decimal']}",
              f"window bound: {stats.window_bound} "
              f"(satisfied: {stats.bound_satisfied})",
          ]))
    return 0 if stats.bound_satisfied else 1


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


class _HelpFormatter(argparse.RawDescriptionHelpFormatter):
    """Help text as written, under a capitalised "Usage:" line."""

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


_PARSER_OPTIONS = {"allow_abbrev": False, "add_help": False,
                   "formatter_class": _HelpFormatter}


def _add_help(parser) -> None:
    parser.add_argument("--help", action="help",
                        help="Show this message and exit.")


def _command(subparsers, name: str, run):
    """The parser of one subcommand, described by its function's docstring."""
    doc = "\n".join(line.strip() for line in run.__doc__.splitlines())
    parser = subparsers.add_parser(name, help=doc.split("\n\n")[0],
                                   description=doc, **_PARSER_OPTIONS)
    parser.set_defaults(run=run, parser=parser)
    return parser


def _add_output(parser) -> None:
    """The options every command ends with: --format, --out and --help."""
    parser.add_argument("--format", dest="fmt", choices=FORMATS,
                        default="text", help="(default: %(default)s)")
    parser.add_argument("--out", default=None,
                        help="Write to a file instead of stdout.")
    _add_help(parser)


def _parser(prog: str) -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog=prog, description=EXAMPLES,
                                   **_PARSER_OPTIONS)
    root.add_argument("--version", action="version",
                      version=f"%(prog)s, version {__version__}",
                      help="Show the version and exit.")
    _add_help(root)
    root.set_defaults(fh=None)
    subs = root.add_subparsers(title="Commands", metavar="COMMAND",
                               dest="command", required=True)

    p = _command(subs, "count", count)
    p.add_argument("--family", choices=("A", "B", "Bj", "C", "D"),
                   required=True, help="Counting family.")
    p.add_argument("--m", type=int, required=True, help="Modulus m >= 2.")
    p.add_argument("--j", type=int, default=None,
                   help="Residue branch for family Bj (1 <= j <= m-1).")
    p.add_argument("--n-max", dest="n_max", type=int, default=DEFAULT_RANGE,
                   help="Largest n to count.  (default: %(default)s)")
    _add_output(p)

    p = _command(subs, "expand", expand)
    p.add_argument("--series", dest="series_name", choices=SERIES_CHOICES,
                   required=True, help="Series to expand.")
    p.add_argument("--m", type=int, required=True, help="Modulus m >= 2.")
    p.add_argument("--precision", type=int, default=DEFAULT_RANGE,
                   help="Truncation precision N.  (default: %(default)s)")
    p.add_argument("--N-sum", dest="n_sum", type=int, default=None,
                   help="Block count for Bj-lhs (omit for the infinite sum).")
    p.add_argument("--route", choices=EPSILON_ROUTES, default="triangular",
                   help="Route for the epsilon series.  "
                        "(default: %(default)s)")
    _add_output(p)

    p = _command(subs, "verify", verify_cmd)
    p.add_argument("--theorem", choices=THEOREMS, required=True,
                   help="Identity to check.")
    p.add_argument("--m", type=int, default=None, help="Modulus m >= 2.")
    p.add_argument("--n-max", dest="n_max", type=int, default=None,
                   help="Largest n to check (count-level identities).")
    p.add_argument("--precision", type=int, default=None,
                   help="Series precision (series-level identities).")
    p.add_argument("--N-sum", dest="n_sum", type=int, default=None,
                   help="Block count for T1.9.")
    _add_output(p)

    p = _command(subs, "density", density)
    p.add_argument("--m", type=int, required=True, help="Modulus m >= 2.")
    p.add_argument("--x", type=int, required=True, help="Scan bound (n < x).")
    _add_output(p)
    return root


def _prog_name() -> str:
    name = os.path.basename(sys.argv[0])
    return "python -m glaisher" if name == "__main__.py" else name


def _fail(message: str, code: int) -> int:
    print(f"Error: {message}", file=sys.stderr)
    return code


def main(args=None, prog_name=None):
    """Run one command from `args` (default: the process arguments) and
    exit through SystemExit with its code.  `--out` is opened first, as a
    shell redirection would be, then the command runs.  A `ValueError` from
    the command is a bad argument, reported under its usage (exit 2); any
    other exception it does not turn into an exit code itself becomes exit
    3, so that exit 1 keeps meaning a mathematical mismatch."""
    opts = _parser(prog_name or _prog_name()).parse_args(args)
    try:
        _open_out(opts)
        code = opts.run(opts)
    except ValueError as exc:
        opts.parser.error(str(exc))
    except ConfigError as exc:
        code = _fail(str(exc), 2)
    except Exception as exc:
        detail = " ".join(str(exc).split())
        code = _fail(f"internal error: {type(exc).__name__}"
                     + (f": {detail}" if detail else ""), 3)
    finally:
        if opts.fh is not None:
            opts.fh.close()
    sys.exit(code)


if __name__ == "__main__":
    main()
