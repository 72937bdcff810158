"""Correctness checks for every op, run after the timed region.

An op passes when
  * its exit code and verdict are right (T1.4 at m = 4 must keep failing,
    at n = 2, with the pinned witness);
  * the sha256 of its canonical output equals the pin in `pins.json`, when
    the op has one (the default seed's ops all do);
  * its output agrees with the package's own independent routes: epsilon
    coefficients across the definition / triangular / qbinomial routes,
    count vectors against the generating functions and the brute-force
    oracle, and the density census against the qbinomial route.

The checks import glaisher from src/ into the benchmark process itself.
"""

from __future__ import annotations

import hashlib
import json
from math import isqrt
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")
VERIFY_KEYS = ["theorem", "m", "range", "status", "first_failure",
               "elapsed_ms", "routes"]
BRUTE_NS = list(range(31)) + [40]  # brute force is exponential; sample n <= 40


def canonical(kind: str, out: bytes) -> bytes:
    """Output with run-dependent fields removed (verify's elapsed_ms)."""
    if kind != "verify":
        return out
    obj = json.loads(out)
    obj.pop("elapsed_ms", None)
    return json.dumps(obj).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stream_key(stream: list) -> str:
    return "api-session " + digest(json.dumps(stream).encode())[:16]


def load_pins() -> dict:
    if PINS_PATH.is_file():
        return json.loads(PINS_PATH.read_text(encoding="utf-8"))
    return {}


class Checker:
    """Reference values from in-process glaisher, computed once per run at
    the largest size any op needs."""

    def __init__(self):
        import glaisher
        self.g = glaisher
        self.pins = load_pins()
        self._series: dict = {}
        self._expand_out: dict = {}

    # -- references ----------------------------------------------------------

    def series(self, family: str, m: int, n: int) -> tuple:
        """Coefficients 0..n of the family's generating function."""
        got = self._series.get((family, m))
        if got is None or len(got) <= n:
            g = self.g
            make = {"A": lambda: g.gf_regular(m, "A_product", n),
                    "B": lambda: g.gf_regular(m, "B_product", n),
                    "C": lambda: g.gf_C(m, n),
                    "D": lambda: g.gf_D(m, n)}[family]
            got = make().coeffs
            self._series[(family, m)] = got
        return got[: n + 1]

    def bj_rows(self, m: int, n: int) -> tuple[list, list[str]]:
        """Every residue's Bj counts 0..n from the in-process DP, and a
        problem if their sum differs from the no-multiple product (E1.4)."""
        g = self.g
        rows = [g.count_table(g.FamilySpec("Bj", m, j), n).counts
                for j in range(1, m)]
        total = [sum(col) for col in zip(*rows)]
        if total[1:] == list(self.series("B", m, n)[1:]):
            return rows, []
        return rows, [f"sum_j Bj(m={m}) differs from the B_product series"]

    def count_problems(self, family: str, m: int, j, counts: list[int]) -> list[str]:
        n = len(counts) - 1
        g = self.g
        bad = []
        if family == "Bj":
            rows, bad = self.bj_rows(m, n)
            if list(rows[j - 1]) != counts:
                bad.append("Bj vector differs from the in-process DP")
            if j == m - 1 and counts != list(self.series("C", m, n + 1)[1:]):
                bad.append("B^(m-1)(n) differs from the gf_C coefficient at n+1")
        elif counts != list(self.series(family, m, n)):
            bad.append(f"{family} counts differ from the generating function")
        spec = g.FamilySpec(family, m, j)
        for k in BRUTE_NS:
            if k <= n and g.brute_force_count(spec, k) != counts[k]:
                bad.append(f"{family}({k}) differs from brute force")
                break
        return bad

    # -- CLI ops -------------------------------------------------------------

    def op_problems(self, op, rc: int, out: bytes) -> list[str]:
        bad = []
        pin = self.pins.get(op.key)
        try:
            canon = canonical(op.kind, out)
            payload = json.loads(out)
        except ValueError:
            return [f"exit {rc}, output is not JSON"]
        if pin is not None and digest(canon) != pin:
            bad.append("output hash differs from the pinned hash")
        check = getattr(self, f"_check_{op.kind}")
        bad += check(op, rc, payload)
        return bad

    def _check_verify(self, op, rc, rep):
        bad = []
        if list(rep) != VERIFY_KEYS:
            bad.append(f"verify JSON keys {list(rep)}")
        p = op.params
        if rep.get("theorem") != p["theorem"] or rep.get("m") != p["m"] \
                or rep.get("range", [None, None])[1] != p["n"]:
            bad.append("verify report names another check")
        if op.expect_fail is not None:
            if rc != 1 or rep.get("status") != "fail":
                bad.append(f"expected a failing verdict, got exit {rc} "
                           f"status {rep.get('status')}")
            elif rep.get("first_failure") != op.expect_fail:
                bad.append(f"first failure {rep.get('first_failure')}")
        elif rc != 0 or rep.get("status") != "pass" or rep.get("first_failure"):
            bad.append(f"expected pass, got exit {rc} status {rep.get('status')}")
        return bad

    def _check_expand(self, op, rc, payload):
        if rc != 0:
            return [f"exit {rc}"]
        p = op.params
        m, prec, route = p["m"], p["precision"], p["route"]
        got = [int(c) for c in payload["coefficients"]]
        if len(got) != prec + 1 or payload.get("route") != route:
            return ["expand payload has the wrong shape"]
        self._expand_out[(m, prec, route)] = got

        def reference(name):
            # the CLI's own output of the other route when a deck has it
            # (the qbinomial op follows its triangular twin), else in-process
            return (self._expand_out.get((m, prec, name))
                    or list(self.g.epsilon(m, prec, name).coeffs))

        others = {"definition": ("triangular", "qbinomial"),
                  "triangular": ("qbinomial",),
                  "qbinomial": ("triangular",)}[route]
        return [f"{route} coefficients differ from the {name} route"
                for name in others if reference(name) != got]

    def _check_count(self, op, rc, payload):
        if rc != 0:
            return [f"exit {rc}"]
        p = op.params
        counts = [int(c) for c in payload["counts"]]
        if len(counts) != p["n"] + 1 or payload.get("family") != p["family"]:
            return ["count payload has the wrong shape"]
        return self.count_problems(p["family"], p["m"], p["j"], counts)

    def _check_density(self, op, rc, payload):
        if rc != 0:
            return [f"exit {rc}"]
        m, x = op.params["m"], op.params["x"]
        g = self.g
        nonzero = sum(1 for c in g.epsilon(m, x - 1, "qbinomial").coeffs if c)
        zeros = x - nonzero
        p_support = sum(1 for c in g.p_polynomial(m).coeffs if c)
        bound = (2 ** (m - 1) - m) * (isqrt(2 * x) + 1) + p_support
        whole, rem = divmod(zeros, x)
        want = {"command": "density", "m": m, "x": x, "nonzero_count": nonzero,
                "N_x": zeros, "ratio": f"{zeros}/{x}",
                "ratio_decimal": f"{whole}.{rem * 10 ** 6 // x:06d}",
                "window_bound": bound, "bound_satisfied": nonzero <= bound}
        return [f"density {k} = {payload.get(k)!r}, qbinomial census gives {v!r}"
                for k, v in want.items() if payload.get(k) != v]

    # -- API session -----------------------------------------------------------

    def session_problems(self, stream: list, results: list) -> tuple[int, list[str]]:
        """Failed call count and problems for one session's results."""
        if len(results) != len(stream):
            return len(stream), ["session returned the wrong number of results"]
        bad, failed = [], 0
        pin = self.pins.get(stream_key(stream))
        if pin is not None and digest(json.dumps(results).encode()) != pin:
            bad.append("session results hash differs from the pinned hash")
        values: dict = {}
        for call, res in zip(stream, results):
            if call[0] == "verify":
                if res.get("status") != "pass":
                    failed += 1
                    bad.append(f"{call} did not pass")
            elif values.setdefault(tuple(call), res) != res:
                failed += 1
                bad.append(f"{call} answered differently within one session")
        by_table: dict = {}  # (family, m, j) -> {n: count}
        for key, res in values.items():
            family, m, j, n = _table_key(key)
            by_table.setdefault((family, m, j), {})[n] = int(res)
        wrong = set()
        for (family, m, j), got in sorted(by_table.items(), key=str):
            n_top = max(got)
            if family == "Bj":
                rows, problems = self.bj_rows(m, n_top)
                ref = rows[j - 1]
                bad += problems
            else:
                ref = self.series(family, m, n_top)
            wrong |= {(family, m, j, n) for n, v in got.items() if ref[n] != v}
            small = sorted(n for n in got if n <= 40)
            spec = self.g.FamilySpec(family, m, j)
            wrong |= {(family, m, j, n) for n in small[:: max(1, len(small) // 4)]
                      if self.g.brute_force_count(spec, n) != got[n]}
        bad += [f"count_{f}(m={m}, j={j}, n={n}) is wrong"
                for f, m, j, n in sorted(wrong, key=str)]
        failed += sum(1 for call in stream
                      if call[0] != "verify" and _table_key(call) in wrong)
        return failed, bad


def _table_key(call) -> tuple:
    """(family, m, j, n) of a count_* call."""
    name, m, *rest = call
    family = name[len("count_"):]
    return family, m, rest[0] if family == "Bj" else None, rest[-1]
