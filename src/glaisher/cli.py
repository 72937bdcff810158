"""Command-line front end: counting, series expansion, identity verification,
and density scans, with json / csv / text output.

Exit codes: 0 all checks pass, 1 a mathematical mismatch was found,
2 usage or configuration error.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys

import click

from . import __version__
from .genfun import (
    EPSILON_ROUTES,
    epsilon,
    gf_Bj_lhs,
    gf_C,
    gf_D,
    gf_regular,
    p_polynomial,
)
from .partitions import FamilySpec, count_table
from .verify import THEOREMS, density_report, verify

DEFAULT_RANGE = 200
FORMATS = ("json", "csv", "text")
SERIES_CHOICES = ("A", "B", "Bj-lhs", "C", "D", "epsilon", "P")


class ConfigError(click.ClickException):
    """A bad environment setting: a usage error (exit 2), reported in one
    line with no usage text."""

    exit_code = 2


def _ceiling() -> int:
    raw = os.environ.get("GLAISHER_CEILING", "5000")
    try:
        value = int(raw)
        if value < 0:
            raise ValueError(raw)
    except ValueError:
        raise ConfigError(
            f"GLAISHER_CEILING must be a non-negative integer, got {raw!r}"
        ) from None
    return value


def _check_bound(value: int, name: str):
    if value < 0:
        raise click.UsageError(f"{name} must be non-negative")
    if value > _ceiling():
        raise click.UsageError(
            f"{name} = {value} exceeds the ceiling {_ceiling()} "
            f"(override with GLAISHER_CEILING)"
        )


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _csv_rows(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _styled(text: str, ok: bool) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return click.style(text, fg="green" if ok else "red")


def _ratio_decimal(num: int, den: int, places: int = 6) -> str:
    whole, rem = divmod(num, den)
    frac = rem * 10 ** places // den
    return f"{whole}.{frac:0{places}d}"


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact partition counting and q-series identity verification.

    \b
    Examples:
        glaisher count --family C --m 3 --n-max 6 --format csv
        glaisher expand --series epsilon --m 3 --precision 12 --route triangular
        glaisher verify --theorem T1.3 --m 4 --n-max 150
        glaisher density --m 3 --x 1000
    """


@main.command()
@click.option("--family", type=click.Choice(["A", "B", "Bj", "C", "D"]),
              required=True, help="Counting family.")
@click.option("--m", type=int, required=True, help="Modulus m >= 2.")
@click.option("--j", type=int, default=None,
              help="Residue branch for family Bj (1 <= j <= m-1).")
@click.option("--n-max", "n_max", type=int, default=DEFAULT_RANGE,
              show_default=True, help="Largest n to count.")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="text",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write to a file instead of stdout.")
def count(family, m, j, n_max, fmt, out):
    """Tabulate exact counts (n, value) for one family."""
    _check_bound(n_max, "--n-max")
    try:
        spec = FamilySpec(family, m, j)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    table = count_table(spec, n_max)
    rows = [(n, str(c)) for n, c in enumerate(table.counts)]
    if fmt == "json":
        payload = {
            "command": "count",
            "family": family,
            "m": m,
            "j": j,
            "n_max": n_max,
            "counts": [str(c) for c in table.counts],
        }
        _emit(json.dumps(payload, indent=2), out)
    elif fmt == "csv":
        _emit(_csv_rows(("n", "value"), rows), out)
    else:
        width = max(len(r[1]) for r in rows)
        lines = [f"{family}_{m}" + (f"^({j})" if j is not None else "") +
                 f" counts for n = 0..{n_max}"]
        lines += [f"{n:>6}  {v:>{width}}" for n, v in rows]
        _emit("\n".join(lines), out)


@main.command()
@click.option("--series", "series_name", type=click.Choice(SERIES_CHOICES),
              required=True, help="Series to expand.")
@click.option("--m", type=int, required=True, help="Modulus m >= 2.")
@click.option("--precision", type=int, default=DEFAULT_RANGE, show_default=True,
              help="Truncation precision N.")
@click.option("--N-sum", "n_sum", type=int, default=None,
              help="Block count for Bj-lhs (omit for the infinite sum).")
@click.option("--route", type=click.Choice(EPSILON_ROUTES), default="triangular",
              show_default=True, help="Route for the epsilon series.")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="text",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def expand(series_name, m, precision, n_sum, route, fmt, out):
    """Expand a generating function to (exponent, coefficient) rows."""
    _check_bound(precision, "--precision")
    if m < 2:
        raise click.UsageError("m must be >= 2")
    try:
        if series_name == "A":
            s = gf_regular(m, "A_product", precision)
        elif series_name == "B":
            s = gf_regular(m, "B_product", precision)
        elif series_name == "Bj-lhs":
            s = gf_Bj_lhs(m, n_sum, precision)
        elif series_name == "C":
            s = gf_C(m, precision)
        elif series_name == "D":
            s = gf_D(m, precision)
        elif series_name == "epsilon":
            s = epsilon(m, precision, route)
        else:  # the finite polynomial prefix, at its natural degree
            s = p_polynomial(m)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = [(n, str(c)) for n, c in enumerate(s.coeffs)]
    if fmt == "json":
        payload = {
            "command": "expand",
            "series": series_name,
            "m": m,
            "precision": s.precision,
            "route": route if series_name == "epsilon" else None,
            "coefficients": [str(c) for c in s.coeffs],
        }
        _emit(json.dumps(payload, indent=2), out)
    elif fmt == "csv":
        _emit(_csv_rows(("n", "value"), rows), out)
    else:
        width = max(len(r[1]) for r in rows)
        lines = [f"{series_name} (m = {m}) to q^{s.precision}"]
        lines += [f"{n:>6}  {v:>{width}}" for n, v in rows]
        _emit("\n".join(lines), out)


def _report_payload(report) -> dict:
    first = None
    if report.first_failure is not None:
        n, lhs, rhs = report.first_failure
        first = {"n": n, "lhs": lhs, "rhs": rhs}
    return {
        "theorem": report.theorem,
        "m": report.m,
        "range": list(report.range),
        "status": report.status,
        "first_failure": first,
        "elapsed_ms": report.elapsed_ms,
        "routes": list(report.routes),
    }


@main.command(name="verify")
@click.option("--theorem", type=click.Choice(THEOREMS), required=True,
              help="Identity to check.")
@click.option("--m", type=int, default=None, help="Modulus m >= 2.")
@click.option("--n-max", "n_max", type=int, default=None,
              help="Largest n to check (count-level identities).")
@click.option("--precision", type=int, default=None,
              help="Series precision (series-level identities).")
@click.option("--N-sum", "n_sum", type=int, default=None,
              help="Block count for T1.9.")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="text",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def verify_cmd(theorem, m, n_max, precision, n_sum, fmt, out):
    """Check one identity and report the first mismatch, if any.

    Exits 0 on pass, 1 on a mathematical mismatch, 2 on usage errors.
    """
    if n_max is None and precision is None:
        n_max = precision = DEFAULT_RANGE
    for val, name in ((n_max, "--n-max"), (precision, "--precision"),
                      (n_sum, "--N-sum")):
        if val is not None:
            _check_bound(val, name)
    try:
        report = verify(theorem, m=m, n_max=n_max, precision=precision,
                        n_sum=n_sum)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "json":
        _emit(json.dumps(_report_payload(report), indent=2), out)
    elif fmt == "csv":
        n, lhs, rhs = report.first_failure or ("", "", "")
        _emit(_csv_rows(
            ("theorem", "m", "range_lo", "range_hi", "status",
             "first_n", "lhs", "rhs", "elapsed_ms"),
            [(report.theorem, report.m, report.range[0], report.range[1],
              report.status, n, lhs, rhs, report.elapsed_ms)],
        ), out)
    else:
        lines = [
            f"{report.theorem} (m = {report.m}) over "
            f"[{report.range[0]}, {report.range[1]}]: "
            + _styled(report.status.upper(), report.passed),
            f"routes: {', '.join(report.routes)}   "
            f"elapsed: {report.elapsed_ms} ms",
        ]
        if report.first_failure:
            n, lhs, rhs = report.first_failure
            lines.append(f"first failure at n = {n}: {lhs} != {rhs}")
        for key, val in report.notes.items():
            lines.append(f"note [{key}]: {val}")
        _emit("\n".join(lines), out)
    if not report.passed:
        sys.exit(1)


@main.command()
@click.option("--m", type=int, required=True, help="Modulus m >= 2.")
@click.option("--x", type=int, required=True, help="Scan bound (n < x).")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="text",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def density(m, x, fmt, out):
    """Count vanishing correction coefficients below x and check the
    window sparsity bound."""
    _check_bound(x, "--x")
    try:
        stats = density_report(m, x)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    fraction = f"{stats.N_x}/{stats.x}"
    decimal = _ratio_decimal(stats.N_x, stats.x)
    if fmt == "json":
        payload = {
            "command": "density",
            "m": stats.m,
            "x": stats.x,
            "nonzero_count": stats.nonzero_count,
            "N_x": stats.N_x,
            "ratio": fraction,
            "ratio_decimal": decimal,
            "window_bound": stats.window_bound,
            "bound_satisfied": stats.bound_satisfied,
        }
        _emit(json.dumps(payload, indent=2), out)
    elif fmt == "csv":
        _emit(_csv_rows(
            ("m", "x", "nonzero_count", "N_x", "ratio", "ratio_decimal",
             "window_bound", "bound_satisfied"),
            [(stats.m, stats.x, stats.nonzero_count, stats.N_x, fraction,
              decimal, stats.window_bound, stats.bound_satisfied)],
        ), out)
    else:
        _emit("\n".join([
            f"correction-series census for m = {stats.m}, n < {stats.x}",
            f"nonzero coefficients: {stats.nonzero_count}",
            f"vanishing (identity holds): {stats.N_x}",
            f"ratio: {fraction} = {decimal}",
            f"window bound: {stats.window_bound} "
            f"(satisfied: {stats.bound_satisfied})",
        ]), out)


if __name__ == "__main__":
    main()
