"""Accelerated Collatz map on odd integers and its quotient structure.

The map sends odd x to (3x+1) / 2^v, where v is the exact power of two in
3x+1.  Restricted to odd numbers not divisible by 3 it is surjective with
small, fully describable preimage sets, which makes the equivalence
classes "same n-th image" computable on windows.  This package provides
the map algebra (core), the class machinery (quotient), windowed summary
structures (bookkeeping), an orbit cache (cache), a lemma check suite
against brute-force oracles (lemmas), and a range sweep engine (verify,
with its sieve and kernel in jump and its pass from 1 in prefix), all
exposed through one CLI (cli).
"""

import importlib

# Each public name by the submodule that defines it.  The submodule is
# imported on first access to one of its names (PEP 562), so a subcommand
# loads only the modules it runs.
_SOURCES = {
    "bookkeeping": (
        "BookkeepingWindow",
        "SufficientSetReport",
        "census_class_of_one",
        "class_matrices",
        "connected_class",
        "row_tail_analysis",
        "sufficient_set_check",
        "sufficient_set_members",
    ),
    "cache": ("CacheEntry", "OrbitCache"),
    "core": (
        "OrbitRecord",
        "collatz_step",
        "is_u0",
        "iterate",
        "nu2",
        "orbit",
        "preimages",
        "shift",
        "tau",
        "u0_range",
        "xi",
    ),
    "errors": ("CacheError", "DomainError", "ResourceLimitError"),
    "lemmas": ("CHECK_IDS", "LemmaCheckResult", "run_lemma_suite"),
    "quotient": (
        "ClassWindow",
        "DeltaSequence",
        "MergeResult",
        "class_inf",
        "class_n",
        "delta_inf",
        "delta_n",
        "delta_sequence",
        "merge",
        "partition_n",
        "strict_inclusion_witness",
        "tstar_apply",
    ),
    "verify": ("RangeVerificationReport", "verify_conjecture_range"),
}
_HOME = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
