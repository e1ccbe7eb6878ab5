"""The package contract: ``import altbase`` is lazy, and the first lookup binds the whole library.

Each check runs in a child interpreter, so that the package is imported
fresh and nothing the test process loaded already can hide a load.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SUBMODULES = ("core", "digitset", "errors", "expr", "measure", "oracle")
# the public names that the package has always exported, by defining submodule
EXPORTED = {
    "core": (
        "AlternateBase", "CantorBaseStream", "DigitWord", "StatePoint", "entropy", "evaluate",
        "greedy_expand", "greedy_expand_cantor", "greedy_step", "lazy_expand", "lazy_step",
        "new_base", "phi", "shift_base",
    ),
    "digitset": (
        "DigitSet", "DisagreementReport", "compare_transforms", "compare_transforms_lazy",
        "delta_set", "f_beta", "greedy_delta_step", "is_allowable", "lazy_delta_step",
        "nondecreasing_by_criterion", "tilde",
    ),
    "errors": (
        "AlphabetError", "AltBaseError", "DomainError", "NotAllowable", "ParseError",
        "SearchTooLarge", "SingularSystem", "TruncationTooShallow",
    ),
    "measure": (
        "DensitySpec", "IntervalMeasureQuery", "PiecewiseLinearMap", "compose_map", "density_eval",
        "frequency", "gora_density", "measure_interval", "mu_product", "preimage", "slot_densities",
    ),
    "oracle": (
        "EmpiricalStats", "SplitMix64", "TupleSearchResult", "birkhoff_frequency",
        "empirical_histogram", "lex_greatest", "lex_least",
    ),
}
NAMES = sorted(name for names in EXPORTED.values() for name in names)
DEFINED_IN = {name: module for module, names in EXPORTED.items() for name in names}


def _child(code: str):
    """Run ``code`` in a fresh interpreter that imports this checkout; return its stdout as JSON."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'altbase')"


def test_import_loads_no_submodule():
    loaded = _child(f"import json, sys\nimport altbase\nprint(json.dumps({_LOADED}))")
    assert loaded == ["altbase"]


def test_benchmark_imports_load_the_library():
    # bench/workloads.py's two lines, then bench/worker.py's LIBRARY_MODULES, read after them
    code = f"""
import json, sys
import altbase
from altbase import expr
sys.path.insert(0, {str(ROOT / "bench")!r})
from worker import LIBRARY_MODULES
print(json.dumps([
    [m for m in LIBRARY_MODULES if m not in sys.modules],
    [n for n in {NAMES!r} if n not in vars(altbase)],
    {_LOADED},
]))
"""
    missing, unbound, loaded = _child(code)
    assert missing == [] and unbound == []
    assert loaded == ["altbase"] + [f"altbase.{m}" for m in SUBMODULES]


def test_exported_names_are_the_defining_objects():
    code = f"""
import json, sys
import altbase
before = dir(altbase)
star = {{}}
exec("from altbase import *", star)
print(json.dumps({{
    "all": altbase.__all__,
    "dir_before": before,
    "dir_after": dir(altbase),
    "star": sorted(set(star) - {{"__builtins__"}}),
    "defined_in": {{n: getattr(altbase, n).__module__ for n in altbase.__all__}},
    "same": [n for n in altbase.__all__
             if getattr(altbase, n) is vars(sys.modules[getattr(altbase, n).__module__])[n]],
}}))
"""
    got = _child(code)
    assert sorted(got["all"]) == NAMES
    assert got["star"] == NAMES
    public = sorted(NAMES + list(SUBMODULES))
    for listing in (got["dir_before"], got["dir_after"]):
        assert [n for n in listing if not n.startswith("_")] == public
    assert got["defined_in"] == {n: f"altbase.{m}" for n, m in DEFINED_IN.items()}
    assert sorted(got["same"]) == NAMES


def test_names_are_plain_entries_after_the_first_lookup():
    # a lookup that reached the package __getattr__ again would be recorded
    code = f"""
import json
import altbase
altbase.new_base
first = altbase.__getattr__
calls = []
altbase.__getattr__ = lambda name: calls.append(name) or first(name)
plain = [n for n in {NAMES + list(SUBMODULES)!r} if vars(altbase)[n] is getattr(altbase, n)]
print(json.dumps([calls, plain]))
"""
    calls, plain = _child(code)
    assert calls == []
    assert sorted(plain) == sorted(NAMES + list(SUBMODULES))


def test_unknown_names_raise_attribute_error_without_loading():
    code = f"""
import json, sys
import altbase
print(json.dumps([hasattr(altbase, "no_such_name"), hasattr(altbase, "cli"), {_LOADED}]))
"""
    assert _child(code) == [False, False, ["altbase"]]


THREADS = 8  # more threads than cores; each makes a first lookup of a different name
FIRST_LOOKUPS = (
    "new_base", "DigitSet", "DomainError", "expr", "gora_density", "SplitMix64", "phi", "frequency",
)
_CONCURRENT = f"""
import json, sys, threading
import altbase

sys.setswitchinterval(1e-6)
barrier = threading.Barrier({THREADS})
results = {{}}

def look_up(name):
    barrier.wait(timeout=60)
    try:
        results[name] = getattr(altbase, name)
    except Exception as exc:
        results[name] = exc

threads = [threading.Thread(target=look_up, args=(n,)) for n in {FIRST_LOOKUPS!r}]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)

def defining_object(name):
    if name in {SUBMODULES!r}:
        return sys.modules["altbase." + name]
    return vars(sys.modules["altbase." + {DEFINED_IN!r}[name]])[name]

print(json.dumps({{
    "alive": sum(t.is_alive() for t in threads),
    "errors": [repr(v) for v in results.values() if isinstance(v, Exception)],
    "wrong": [n for n, v in results.items() if v is not defining_object(n)],
    "unbound": [n for n in altbase.__all__ if n not in vars(altbase)],
    "looked_up": sorted(results),
}}))
"""


@pytest.mark.parametrize("attempt", range(4))
def test_concurrent_first_lookups(attempt):
    got = _child(_CONCURRENT)
    assert got == {
        "alive": 0, "errors": [], "wrong": [], "unbound": [], "looked_up": sorted(FIRST_LOOKUPS),
    }
