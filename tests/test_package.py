"""The package's public surface: the names `import glaisher` exported when
it imported every layer at start-up still resolve, to the objects their
layers define, now that all but `verify` load on first use."""

import importlib
import inspect
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import glaisher

# The public names of `dir(glaisher)` when the package imported every layer
# eagerly, by the module that defines each; `EPSILON_ROUTES` is defined by
# the package itself and read by `genfun`.
_DEFINED_IN = {
    "ring": ("CycInt", "CycPoly", "chi", "cyc_as_integer", "cyc_root_power",
             "cyclotomic_polynomial", "euler_phi"),
    "series": ("CoefficientRangeError", "NotIntegerCoefficientError",
               "PochSpec", "PrecisionMismatchError", "Series",
               "inv_pochhammer", "map_ring", "pochhammer", "qbinomial",
               "qbinomial_poly"),
    "partitions": ("BRUTE_FORCE_LIMIT", "CountTable", "FamilySpec",
                   "brute_force_count", "count_A", "count_B", "count_Bj",
                   "count_C", "count_D", "count_bounded_mult", "count_table"),
    "genfun": ("EPSILON_ROUTES", "epsilon", "gf_Bj_lhs", "gf_C", "gf_D",
               "gf_regular", "p_polynomial"),
    "verify": ("DensityStats", "IdentityReport", "THEOREMS",
               "density_report", "verify"),
}
_SUBMODULES = ("genfun", "kernels", "partitions", "ring", "series")
_PUBLIC = sorted([*_SUBMODULES, *(n for ns in _DEFINED_IN.values()
                                  for n in ns)])


def _fresh(code: str) -> str:
    """Run `code` in a new interpreter without site-packages that imports
    glaisher from this source tree; return its stdout."""
    src = str(Path(glaisher.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; sys.path.insert(0, {src!r})\n{code}"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_public_name_resolves_to_its_layers_object():
    _fresh(f"""
import importlib
import glaisher
assert set({_PUBLIC!r}) <= set(dir(glaisher)), "dir"
for module, names in {_DEFINED_IN!r}.items():
    for name in names:
        value = getattr(glaisher, name)
        home = importlib.import_module("glaisher." + module)
        assert value is getattr(home, name), name
for name in {_SUBMODULES!r}:
    assert getattr(glaisher, name) is sys.modules["glaisher." + name], name
""")


def test_star_import_binds_the_same_names():
    out = _fresh("""
import glaisher
names = {}
exec("from glaisher import *", names)
del names["__builtins__"]
assert all(value is getattr(glaisher, name) for name, value in names.items())
print(sorted(names))
""")
    assert out.strip() == repr(_PUBLIC)
    assert sorted(glaisher.__all__) == _PUBLIC


def test_verify_stays_the_function():
    # importing the submodule binds the package attribute to the module
    # only on the submodule's first import, which the package makes itself
    _fresh("""
import glaisher
import glaisher.cli
function = sys.modules["glaisher.verify"].verify
assert glaisher.verify is function
try:
    glaisher.cli.main(["verify", "--theorem", "T1.4", "--m", "3",
                       "--n-max", "10", "--format", "json"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert glaisher.verify is function
import glaisher.verify
assert glaisher.verify is function
from glaisher import verify
assert verify is function
""")


@pytest.mark.parametrize("name", ["no_such_name", "_check_precision",
                                  "backend_name"])
def test_unknown_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(glaisher, name)
    assert getattr(glaisher, name, None) is None


def _functions(module):
    """The functions `module` defines, with the methods and property
    getters of the classes it defines."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                if inspect.isfunction(attr):
                    yield attr


def test_every_annotation_names_a_type_its_module_binds():
    # annotations are strings (`from __future__ import annotations`), so a
    # name the module never binds shows only when a tool resolves it
    unresolved = []
    for info in pkgutil.iter_modules(glaisher.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module("glaisher." + info.name)
        for function in _functions(module):
            try:
                typing.get_type_hints(function)
            except NameError as exc:
                unresolved.append(
                    f"{module.__name__}.{function.__qualname__}: {exc}")
    assert unresolved == []
