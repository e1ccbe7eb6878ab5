"""Expansions of real numbers in alternate bases and their dynamics.

``import altbase`` loads no submodule. The first lookup of a public name or a
submodule (``altbase.new_base``, ``from altbase import expr``) imports them all
and binds every public name into the package, so later lookups are plain
attribute reads; the import system's per-module locks make it thread-safe.
"""

# each submodule and the public names the package takes from it
_EXPORTS = {
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
    "expr": (),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Load every submodule and bind each public name not bound yet, then return ``name``."""
    if name not in _EXPORTS and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import sys

    for module, names in _EXPORTS.items():
        qualified = f"{__name__}.{module}"
        __import__(qualified)  # unlike importlib.import_module, reported by python -X importtime
        found = vars(sys.modules[qualified])
        for n in names:
            globals().setdefault(n, found[n])
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
