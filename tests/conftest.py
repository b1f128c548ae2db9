"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def no_ambient_cache(monkeypatch):
    """Ignore the caller's COLLATZ_CACHE: no test reads or writes the user's
    cache unless it sets the variable itself.  child_env copies os.environ
    after this has run, so spawned CLIs do not see it either."""
    monkeypatch.delenv("COLLATZ_CACHE", raising=False)


@pytest.fixture
def child_env():
    """Environment for a child Python that imports the `collatzq` under test.

    The child's PYTHONPATH is led by the source root of the `collatzq` the
    tests import, so the child runs the same code even when another copy is
    installed or the suite was started without PYTHONPATH.
    """
    import collatzq

    source_root = str(Path(collatzq.__file__).resolve().parents[1])
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([source_root] + ([pythonpath] if pythonpath else []))
    return env


@pytest.fixture
def run_module(child_env):
    """Run `python -m collatzq ARGS...` in a child process (see child_env)."""

    def _run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "collatzq", *argv],
            capture_output=True,
            text=True,
            env=child_env,
        )

    return _run


@pytest.fixture
def split_sweep():
    """split(lo, m, hi, max_steps): the report of [lo, hi], lo > 1, folded from
    those of [lo, m] and [m + 1, hi], as a caller that sweeps the two windows
    in separate processes folds them: counts add, maxima take the max, and
    findings concatenate."""
    from collatzq import RangeVerificationReport, verify_conjecture_range

    def _split(lo, m, hi, max_steps=10_000):
        a = verify_conjecture_range(lo, m, max_steps)
        b = verify_conjecture_range(m + 1, hi, max_steps)
        return RangeVerificationReport(
            lo=lo,
            hi=hi,
            elements_checked=a.elements_checked + b.elements_checked,
            all_reach_one=a.all_reach_one and b.all_reach_one,
            max_steps_observed=max(a.max_steps_observed, b.max_steps_observed),
            max_excursion_observed=max(a.max_excursion_observed, b.max_excursion_observed),
            cycles_found=a.cycles_found + b.cycles_found,
            truncated_elements=a.truncated_elements + b.truncated_elements,
        )

    return _split


@pytest.fixture
def per_element_suffset():
    """scan(lo, hi): the (histogram, violations) of nu2(3*tau(x) + 1) over
    u0_range(lo, hi), evaluated element by element: the oracle for
    sufficient_set_check's count of x mod 18."""
    from collatzq import nu2, tau, u0_range

    def _scan(lo, hi):
        hist = {"1": 0, "2": 0, "3": 0, "4": 0, "other": 0}
        violations = []
        for x in u0_range(lo, hi):
            e = nu2(3 * tau(x) + 1)
            if 1 <= e <= 4:
                hist[str(e)] += 1
            else:
                hist["other"] += 1
                violations.append(x)
        return hist, violations

    return _scan


@pytest.fixture(scope="session")
def per_element_census():
    """first_hit(n_max, bound): how many elements of u0_range(1, bound) first
    reach 1 at each step 0..n_max, found by iterating every element forward:
    the oracle for census_class_of_one's walk and for its sweep fallback."""
    from collatzq.quotient import _meets

    def _first_hit(n_max, bound):
        first_hit = [0] * (n_max + 1)
        for _, i in _meets([1], n_max, bound):
            first_hit[i] += 1
        return first_hit

    return _first_hit


@pytest.fixture(scope="session")
def reference_envelope():
    """envelope(value): (text, rows), the JSON text and the CSV rows that the
    envelope writer must produce for value, built by first copying value with
    the number rule applied (every int under a key of cli._NUMBER_KEYS, at
    any depth, becomes a decimal string unless a key of cli._STRUCTURAL_KEYS
    stops the rule) and then serializing the copy with json.dumps and a plain
    flatten: the oracle for cli._json_chunks and cli._flatten."""
    import json

    from collatzq.cli import _NUMBER_KEYS, _STRUCTURAL_KEYS

    def _encode(value, number=False):
        if isinstance(value, dict):
            return {k: _encode(v, (number or k in _NUMBER_KEYS) and k not in _STRUCTURAL_KEYS)
                    for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            if number and all(type(v) is int for v in value):
                return [str(v) for v in value]
            return [_encode(v, number) for v in value]
        if number and isinstance(value, int) and not isinstance(value, bool):
            return str(value)
        return value

    def _rows(value, prefix):
        if isinstance(value, dict) and value:
            for k, v in value.items():
                yield from _rows(v, f"{prefix}.{k}" if prefix else str(k))
        elif isinstance(value, list) and value:
            for i, v in enumerate(value):
                yield from _rows(v, f"{prefix}.{i}")
        else:
            yield (prefix, value if isinstance(value, str) else json.dumps(value))

    def _envelope(value):
        encoded = _encode(value)
        return json.dumps(encoded, indent=2) + "\n", list(_rows(encoded, ""))

    return _envelope
