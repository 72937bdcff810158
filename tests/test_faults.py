"""The checker fault matrix: one small output fault in each primitive the
checkers build on, against every `verify` selector.

A checker is worth running only while its two sides share no algebra, so
that a fault on one side shows as a mismatch.  Each primitive is faulted
through its module attribute, where every caller looks it up, with the
table cache emptied, and each selector runs at size 200, at m = 3 and also
at m = 5 where it takes an m.  The matrix counts the faulted primitive's
calls, and every cell commits one outcome:

  F  the report differs from the clean run's;
  R  the check raises ArithmeticError from a remainder check;
  .  the report is the clean one, and the primitive was never called;
  P  the report is the clean one although the primitive was called: a pass
     cell, committed with its reason in _BLIND or _CLEAN_FAIL.

T1.4 and T1.8 at m = 5 fail on clean code (criterion 3c's finding), so a
cell there reads F only when the fault changes the report.
"""

from functools import cache

import pytest

from glaisher import _definition, genfun, kernels, partitions
from glaisher.verify import THEOREMS, verify

_SIZE = 200
_N_SUM = 40  # T1.9's blocks: its sum stops at q^119 (m = 3) and q^199 (m = 5)

_RUNS = [(t, m) for t in THEOREMS
         for m in ((3,) if t in ("T1.5", "T1.6") else (3, 5))]


def _bump(out):
    """The last cell of a list (of the last list, for a list of lists) is
    one too large."""
    cell = out
    while isinstance(cell[-1], list):
        cell = cell[-1]
    cell[-1] += 1
    return out


def _bump_result(real):
    return lambda *args, **kwargs: _bump(real(*args, **kwargs))


def _bump_in_place(real):
    def faulty(c, *args):
        real(c, *args)
        _bump(c)
    return faulty


def _plus_one(real):
    # on a packed int, the cell in the lowest slot is one too large
    return lambda *args, **kwargs: real(*args, **kwargs) + 1


def _bump_stream(real):
    def faulty(*args):
        items = list(real(*args))
        n, c = items[-1]
        items[-1] = (n, c + 1)
        return iter(items)
    return faulty


_FAULTS = {
    "kernels.conv_truncated": _bump_result,
    "kernels.mul_one_minus_uqk": _bump_in_place,
    "kernels.div_one_minus_uqk": _bump_in_place,
    "kernels.add_scaled_shifted": _bump_in_place,
    "partitions._unpack": _bump_result,
    "_definition._unpack_signed": _bump_result,
    "_definition._mul_packed_pair": _bump_in_place,
    "_definition._top_product": _bump_result,
    "partitions._window": _plus_one,
    "_definition._window": _plus_one,
    "partitions._over": _plus_one,
    "partitions._allow_part": _plus_one,
    "partitions._allow_large_parts": _plus_one,
    "genfun._euler_inverse": _bump_result,
    "genfun.triangular_stream": _bump_stream,
    "genfun._qbinomial_row": _bump_result,
}

_MODULES = {"kernels": kernels, "partitions": partitions, "genfun": genfun,
            "_definition": _definition}

# one group per selector, in THEOREMS order, one cell per m (3, then 5)
#                                 T1.2 E1.4 T1.3 T1.4 T1.5 T1.6 T1.8 T1.9 C1.10
_MATRIX = {
    "kernels.conv_truncated":        "FF .. .. FP . . .. .. FF",
    "kernels.mul_one_minus_uqk":     ".. .. .. RR . . FP FF ..",
    "kernels.div_one_minus_uqk":     "FF .. .. RR . . FP FF FF",
    "kernels.add_scaled_shifted":    "FF .. .. FP . . .. .. FF",
    "partitions._unpack":            "FF FF PP FP . F FP .. ..",
    "_definition._unpack_signed":    ".. .. .. FF F . .. .. ..",
    "_definition._mul_packed_pair":  ".. .. .. F. F . .. .. ..",
    "_definition._top_product":      ".. .. .. FF F . .. .. ..",
    "partitions._window":            "FF FF FF FP . F FP .. ..",
    "_definition._window":           ".. .. .. FF F . .. .. ..",
    "partitions._over":              "FF FF PP PP . P FP .. ..",
    "partitions._allow_part":        "FF FF FF FP . F FP .. ..",
    "partitions._allow_large_parts": "FF FF .. FP . F FP .. ..",
    "genfun._euler_inverse":         "FF .. .. FP . . .. .. FF",
    "genfun.triangular_stream":      ".. .. .. FP . . FP .. ..",
    "genfun._qbinomial_row":         ".. .. .. FP . . .. .. ..",
}

# the pass cells where the selector calls the faulted primitive on both
# sides of its comparison and still passes (T1.2's two, under `_unpack`
# and `_allow_large_parts`, closed when it also compared count A with
# A_product, which reads no table)
_BLIND = {
    ("partitions._unpack", "T1.3"):
        "Bj and C both decode through it, and the last cells, Bj(200) and "
        "C(201), are the pair T1.3 compares",
    ("partitions._over", "T1.3"):
        "Bj adds its large parts and C its large blocks in one window each, "
        "so Bj(200) and C(201) both gain 1",
    ("partitions._over", "T1.4"):
        "at m = 3 cell 200 of C gains 1 and of D gains 3 (its block window "
        "and two power-sum levels), so 3*C = D + E still holds",
    ("partitions._over", "T1.6"):
        "as in T1.4: at m = 3 cell 200 of C gains 1 and of D gains 3",
}

# the selectors that fail on clean code, so a fault past their first
# mismatch leaves the report as it was
_CLEAN_FAIL = {
    ("T1.4", 5): "the walk stops at the clean mismatch at n = 2, below the "
                 "cells this fault changes",
    ("T1.8", 5): "the walk stops at the clean mismatch at n = 1, below the "
                 "cells this fault changes",
}


def _report(theorem, m):
    """The report without its timing, or "R" when a remainder check
    raises."""
    try:
        report = verify(theorem, m, n_max=_SIZE, precision=_SIZE,
                        n_sum=_N_SUM if theorem == "T1.9" else None)
    except ArithmeticError as exc:
        assert "left a remainder" in str(exc)
        return "R"
    return report._replace(elapsed_ms=0)


@cache
def _clean(theorem, m):
    return _report(theorem, m)


def _row(monkeypatch, primitive):
    """The matrix row of one fault, grouped as in _MATRIX."""
    module, name = primitive.split(".")
    module = _MODULES[module]
    calls = []
    faulty = _FAULTS[primitive](getattr(module, name))

    def counted(*args, **kwargs):
        calls.append(1)
        return faulty(*args, **kwargs)

    groups = {}
    for theorem, m in _RUNS:
        clean = _clean(theorem, m)
        monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(partitions, "_cache", {})
        calls.clear()
        got = _report(theorem, m)
        monkeypatch.undo()
        cell = ("R" if got == "R" else "F" if got != clean
                else "P" if calls else ".")
        groups[theorem] = groups.get(theorem, "") + cell
    return " ".join(groups.values())


@pytest.mark.parametrize("primitive", sorted(_FAULTS))
def test_fault_matrix_row(monkeypatch, primitive):
    row = _row(monkeypatch, primitive)
    assert row == _MATRIX[primitive]
    # every pass cell with calls has its reason
    cells = [c for c in row if c != " "]
    for (theorem, m), cell in zip(_RUNS, cells):
        if cell == "P":
            assert ((theorem, m) in _CLEAN_FAIL
                    or (primitive, theorem) in _BLIND), (theorem, m)


def test_fault_matrix_is_complete_and_live():
    # every listed primitive is faulted and called by some selector, so a
    # primitive the checkers stop calling fails here instead of going stale
    assert sorted(_MATRIX) == sorted(_FAULTS)
    assert not [p for p, row in _MATRIX.items() if set(row) <= {".", " "}]
    # every committed reason still explains some pass cell
    for primitive, theorem in _BLIND:
        cells = [c for c in _MATRIX[primitive] if c != " "]
        assert any(cell == "P" and t == theorem
                   for (t, m), cell in zip(_RUNS, cells)
                   if (t, m) not in _CLEAN_FAIL), (primitive, theorem)
