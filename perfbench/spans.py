"""Outside-in spans around the public functions of each glaisher layer.

Nothing here edits the package.  `install(tracer)` rebinds each public
function of the verify, genfun, partitions and series layers, and each
series kernel, in every module namespace that holds it, to a wrapper that
records one span per call.  Spans stay in memory and are written out once,
at the end.  `layer_metrics` turns a run's spans into per-layer numbers.

Span names are `<layer>.<function>`; epsilon spans carry the route
(`genfun.epsilon.definition`) and kernel spans the coefficient ring
(`series.kernel.cyc.mul_one_minus_uqk`).
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from time import perf_counter

KERNELS = ("conv_truncated", "mul_one_minus_uqk", "div_one_minus_uqk",
           "add_scaled_shifted")
VERIFY_API = ("verify", "density_report")
GENFUN_API = ("epsilon", "gf_regular", "gf_C", "gf_D", "gf_Bj_lhs",
              "p_polynomial")
# table lookups: each one reads (and may rebuild) one cached DP table
LOOKUPS = ("count_A", "count_B", "count_Bj", "count_C", "count_D",
           "count_bounded_mult")
SERIES_API = ("map_ring",)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.lookup_depth = 0

    def begin(self, name: str) -> dict:
        rec = {"id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def end(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _namespaces():
    """Every module that imports a layer's public names.  `glaisher.verify`
    is the re-exported function, so the module comes from sys.modules."""
    import glaisher
    for name in ("cli", "genfun", "partitions", "series"):
        importlib.import_module(f"glaisher.{name}")
    return [glaisher, sys.modules["glaisher.cli"], sys.modules["glaisher.verify"],
            sys.modules["glaisher.genfun"], sys.modules["glaisher.partitions"],
            sys.modules["glaisher.series"]]


def _rebind(holders, original, wrapper) -> None:
    for ns in holders:
        for attr, val in list(vars(ns).items()):
            if val is original:
                setattr(ns, attr, wrapper)


def _plain(tracer, name, fn):
    def wrapper(*args, **kwargs):
        rec = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(rec)
    wrapper.__wrapped__ = fn
    return wrapper


def _epsilon(tracer, fn):
    import inspect
    default = inspect.signature(fn).parameters["route"].default

    def wrapper(m, precision, route=default):
        rec = tracer.begin(f"genfun.epsilon.{route}")
        try:
            return fn(m, precision, route)
        finally:
            tracer.end(rec)
    wrapper.__wrapped__ = fn
    return wrapper


def _kernel_work(name, args):
    """Inner-loop iterations a kernel call performs, computed from its
    argument lengths (zero coefficients that the loop skips included), and
    whether each iteration multiplies by a scalar other than 1."""
    if name == "conv_truncated":
        a, b, nmax = args[0], args[1], args[2]
        work = sum(min(nmax - i, len(b) - 1) + 1
                   for i in range(min(len(a) - 1, nmax) + 1))
        return work, True, args[3]
    if name == "add_scaled_shifted":
        acc, src, shift, scale = args
        hi = min(len(acc) - 1 - shift, len(src) - 1)
        return max(hi + 1, 0), scale != 1, acc[0] if acc else 0
    c, u, k = args
    n = len(c) - 1
    return (n - k + 1 if 1 <= k <= n else 0), u != 1, c[0]


def _kernel(tracer, name, fn):
    def wrapper(*args):
        work, scaled, sample = _kernel_work(name, args)
        ring = "int" if type(sample) is int else "cyc"
        rec = tracer.begin(f"series.kernel.{ring}.{name}")
        rec["updates"] = work
        rec["scaled"] = scaled
        try:
            return fn(*args)
        finally:
            tracer.end(rec)
    wrapper.__wrapped__ = fn
    return wrapper


def _lookup(tracer, name, fn, partitions):
    """Span for one table lookup.  Builds are observed from outside: the
    sizes in `partitions._cache` before and after the outermost lookup."""
    import inspect
    params = list(inspect.signature(fn).parameters)
    n_pos = params.index("n")

    def sizes():
        cache = getattr(partitions, "_cache", None)
        if not isinstance(cache, dict):
            return {}
        return {k: v[0] for k, v in cache.items()
                if isinstance(v, tuple) and isinstance(v[0], int)}

    def wrapper(*args, **kwargs):
        outer = tracer.lookup_depth == 0
        before = sizes() if outer else None
        rec = tracer.begin(f"partitions.{name}")
        tracer.lookup_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.lookup_depth -= 1
            tracer.end(rec)
            if outer:
                built = [s for k, s in sizes().items() if before.get(k) != s]
                n = args[n_pos] if len(args) > n_pos else kwargs["n"]
                rest = args[:n_pos] + args[n_pos + 1:]
                rec["lookup"] = [name, *rest, *sorted(kwargs.items())]
                rec["n"] = n
                rec["builds"] = len(built)
                rec["cells"] = sum(built)
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions in every namespace holding them."""
    holders = _namespaces()
    _, _, verify, genfun, partitions, series = holders

    def bind(module, attr, make):
        original = getattr(module, attr, None)
        if original is not None:
            _rebind(holders, original, make(original))

    for attr in VERIFY_API:
        bind(verify, attr, lambda f, a=attr: _plain(tracer, f"verify.{a}", f))
    bind(genfun, "epsilon", lambda f: _epsilon(tracer, f))
    for attr in GENFUN_API[1:]:
        bind(genfun, attr, lambda f, a=attr: _plain(tracer, f"genfun.{a}", f))
    for attr in LOOKUPS:
        bind(partitions, attr,
             lambda f, a=attr: _lookup(tracer, a, f, partitions))
    bind(partitions, "count_table",
         lambda f: _plain(tracer, "partitions.count_table", f))
    for attr in SERIES_API:
        bind(series, attr, lambda f, a=attr: _plain(tracer, f"series.{a}", f))

    # The kernels are reached through a module object (today the one that
    # `glaisher._backend` picks, bound as `kernels` in the layers).  Wrap
    # them on that object, and wherever a layer bound a kernel by name.
    kernel_mods = {id(m): m for ns in holders
                   for m in [getattr(ns, "kernels", None)]
                   if isinstance(m, types.ModuleType)}
    for attr in KERNELS:
        originals = {id(f): f for ns in [*holders, *kernel_mods.values()]
                     for f in [getattr(ns, attr, None)] if callable(f)}
        for original in originals.values():
            _rebind([*holders, *kernel_mods.values()], original,
                     _kernel(tracer, attr, original))


# ---------------------------------------------------------------------------
# per-layer numbers from spans
# ---------------------------------------------------------------------------

EPSILON_ROUTES = ("definition", "triangular", "qbinomial", "identity",
                  "closed3")


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - c for rec, c in zip(spans, child)]


def layer_metrics(traces: list[list[dict]]) -> dict:
    """Aggregate the spans of several processes (one list per process)."""
    out = {"cli.self_s": 0.0, "verify.calls": 0, "verify.self_s": 0.0}
    for route in EPSILON_ROUTES:
        out[f"genfun.epsilon.{route}.self_s"] = 0.0
    for fn in GENFUN_API[1:]:
        out[f"genfun.{fn}.self_s"] = 0.0
    for ring in ("int", "cyc"):
        for what in ("calls", "self_s", "coeff_updates"):
            out[f"series.kernel.{ring}.{what}"] = 0 if what != "self_s" else 0.0
    out.update({"series.map_ring.self_s": 0.0,
                "ring.cyc_mults": 0, "ring.cyc_adds": 0,
                "partitions.calls": 0, "partitions.busy_s": 0.0,
                "partitions.table_builds": 0, "partitions.build_s": 0.0,
                "partitions.cells_built": 0})
    cells_needed = builds_calls = 0
    top_s = 0.0
    for spans in traces:
        needed: dict[str, int] = {}  # tables are per process
        selfs = self_times(spans)
        for rec, self_s in zip(spans, selfs):
            name, dur = rec["name"], rec["end"] - rec["start"]
            parent = spans[rec["parent"]]["name"] if rec["parent"] is not None else ""
            if rec["parent"] is None:
                top_s += dur
            layer = name.split(".", 1)[0]
            if name == "cli":
                out["cli.self_s"] += self_s
            elif layer == "verify":
                out["verify.calls"] += 1
                out["verify.self_s"] += self_s
            elif layer == "genfun":
                out[f"{name}.self_s"] += self_s
            elif name.startswith("series.kernel."):
                ring = name.split(".")[2]
                out[f"series.kernel.{ring}.calls"] += 1
                out[f"series.kernel.{ring}.self_s"] += self_s
                out[f"series.kernel.{ring}.coeff_updates"] += rec["updates"]
                if ring == "cyc":
                    key = "ring.cyc_mults" if rec["scaled"] else "ring.cyc_adds"
                    out[key] += rec["updates"]
            elif name == "series.map_ring":
                out["series.map_ring.self_s"] += self_s
            elif layer == "partitions":
                if not parent.startswith("partitions."):
                    out["partitions.busy_s"] += dur
                if "lookup" in rec:
                    out["partitions.calls"] += 1
                    out["partitions.table_builds"] += rec["builds"]
                    out["partitions.cells_built"] += rec["cells"]
                    if rec["builds"]:
                        builds_calls += 1
                        out["partitions.build_s"] += dur
                    ident = json.dumps(rec["lookup"])
                    needed[ident] = max(needed.get(ident, 0), rec["n"] + 1)
        cells_needed += sum(needed.values())
    calls = out["partitions.calls"]
    out["partitions.hit_ratio"] = (calls - builds_calls) / calls if calls else 0.0
    out["partitions.cells_needed"] = cells_needed
    out["partitions.build_waste"] = (out["partitions.cells_built"] / cells_needed
                                     if cells_needed else 0.0)
    out["top_span_s"] = top_s
    return out
