"""Exact partition counting and q-series identity verification.

Five layers: cyclotomic scalar arithmetic (`ring`), truncated exact power
series over Z (`series`), combinatorial counters with a brute-force oracle
(`partitions`), generating functions and the correction-series routes
(`genfun`), and theorem checking / density scans (`verify`), fronted by the
`glaisher` CLI.  Z[zeta_m] appears only as scalars (`CycInt`), and no
route builds one.  The cyclotomic `definition` route expands the root-1
product alone over Z[x]/(x^m - 1), each residue list packed into one
int, and sums it over the roots j = 1..m-1 by the character sum
sum_j zeta_m^(j r) = m [r = 0] - 1: the series is the integer
combination m W_0 - sum_r W_r of the residue ints.

Every CLI call is a fresh process, and a process that runs one layer
should not compile the others.  So importing the package loads only
`__version__`, the CLI grammar's constants (`EPSILON_ROUTES` and
`FAMILIES` here, `THEOREMS` in `verify`) and the `verify` front: its
checkers, in `_checkers`, load only when a check runs, with the layers
they read.  Every other public name, the submodules included, is
loaded on first use (PEP 562).  In the CLI, `--help` and `--version`
load none of `ring`, `series`, `kernels`,
`partitions` or `genfun`; `count` loads `partitions` alone; `expand` and
`density` load `genfun` with the `series` and `kernels` it is built on,
and no `partitions` or `ring` (the `definition` route adds
`_definition`, its packed arithmetic); `verify` loads `_checkers` and
what its theorem checks.  No command loads `ring`: only `map_ring` and
the Z[zeta_m] names themselves import it.  No command loads `json`.
"""

__version__ = "0.1.0"

# The choices of `expand --route` and `count --family`; `genfun` and
# `partitions` read them from here, so that building the CLI grammar loads
# no series or counting code.
EPSILON_ROUTES = ("definition", "triangular", "qbinomial", "identity", "closed3")
FAMILIES = ("A", "B", "Bj", "C", "D")

from .verify import (
    DensityStats,
    IdentityReport,
    THEOREMS,
    density_report,
    verify,
)

_SUBMODULES = ("genfun", "kernels", "partitions", "ring", "series")

# Each lazily loaded public name, by the submodule that defines it.
_LAZY = {
    "ring": ("CycInt", "CycPoly", "chi", "cyc_as_integer", "cyc_root_power",
             "cyclotomic_polynomial", "euler_phi"),
    "series": ("CoefficientRangeError", "NotIntegerCoefficientError",
               "PochSpec", "PrecisionMismatchError", "Series",
               "inv_pochhammer", "map_ring", "pochhammer", "qbinomial",
               "qbinomial_poly"),
    "partitions": ("BRUTE_FORCE_LIMIT", "CountTable", "FamilySpec",
                   "brute_force_count", "count_A", "count_B", "count_Bj",
                   "count_C", "count_D", "count_bounded_mult", "count_table"),
    "genfun": ("epsilon", "gf_Bj_lhs", "gf_C", "gf_D", "gf_regular",
               "p_polynomial"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([
    "EPSILON_ROUTES", "DensityStats", "IdentityReport", "THEOREMS",
    "density_report", "verify", *_SUBMODULES, *_HOME,
])


def __getattr__(name):
    module = name if name in _SUBMODULES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
