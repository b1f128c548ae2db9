"""Acceptance gate: the nine shipping criteria, one visible line each.

Run with plain `pytest`; each criterion prints its own PASS/FAIL line to the
terminal even without -s, then asserts.  Scales match the stated targets, so
this module is the slowest in the suite (tens of seconds, dominated by the
ten-million sweep and the million-element scans).
"""

import json
import random
import time

import pytest

from collatzq import (
    class_n,
    collatz_step,
    delta_inf,
    delta_sequence,
    census_class_of_one,
    iterate,
    run_lemma_suite,
    strict_inclusion_witness,
    sufficient_set_check,
    tau,
    tstar_apply,
    u0_range,
    verify_conjecture_range,
    xi,
)
from collatzq.core import _step


@pytest.fixture
def announce(capsys):
    def _announce(num, label, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        tail = f"  [{detail}]" if detail else ""
        with capsys.disabled():
            print(f"\nacceptance {num}: {status}  {label}{tail}", flush=True)
        assert ok, f"acceptance criterion {num} failed: {label} {detail}"

    return _announce


def test_criterion_1_worked_values(announce):
    start = time.perf_counter()
    ok = (
        collatz_step(17) == 13
        and collatz_step(13) == 5
        and collatz_step(5) == 1
        and iterate(17, 3) == 1
        and tau(5) == 13
        and xi(5) == 3
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    announce(1, "worked values exact", ok, f"{elapsed:.3f}s")


def test_criterion_2_lemma_suite(announce):
    start = time.perf_counter()
    results = run_lemma_suite(100_000, n_cap=50, sample_seed=0)
    elapsed = time.perf_counter() - start
    failures = sum(len(r.failures) for r in results)
    ok = failures == 0 and len(results) == 15 and elapsed < 300.0
    announce(2, "lemma suite zero failures at bound 1e5", ok,
             f"{failures} failures, {elapsed:.1f}s")


def test_criterion_3_conjecture_sweep(announce, split_sweep):
    start = time.perf_counter()
    report = verify_conjecture_range(1, 10_000_000, max_steps=10_000)
    elapsed = time.perf_counter() - start
    ok = (
        report.all_reach_one
        and not report.cycles_found
        and not report.truncated_elements
        and report.elements_checked == 3_333_333
        and elapsed < 120.0
    )
    # Above 1 a window split in two, as two processes would sweep it, folds
    # to the report of the whole.
    single = verify_conjecture_range(10**12, 10**12 + 100_000)
    split = split_sweep(10**12, 10**12 + 54_321, 10**12 + 100_000)
    ok = ok and single == split
    announce(3, "sweep of [1, 1e7] reaches 1, split independent", ok,
             f"{report.elements_checked} elements, {elapsed:.1f}s in one process")


def test_criterion_4_oracle_equivalence(announce):
    rng = random.Random(424242)
    agree = True
    for _ in range(200):
        x = rng.randrange(1, 10_001)
        while x % 2 == 0 or x % 3 == 0:
            x = rng.randrange(1, 10_001)
        n = rng.randint(0, 8)
        bound = rng.randint(1, 100_000)
        scan = class_n(x, n, bound, method="scan").members
        bfs = class_n(x, n, bound, method="bfs").members
        if scan != bfs:
            agree = False
            break

    # independent level-1 minimum: one grouped forward pass over the window
    mins: dict[int, int] = {}
    for z in u0_range(1, 1_000_000):
        y = _step(z)
        if y not in mins:
            mins[y] = z
    identity = all(
        tau(collatz_step(x)) == mins[_step(x)] for x in u0_range(1, 1_000_000)
    )
    ok = agree and identity
    announce(4, "scan/bfs agree on 200 triples; delta_1 = tau(step) to 1e6", ok)


def test_criterion_5_quotient_structure(announce):
    rng = random.Random(51015)
    ok = True
    detail = ""
    for _ in range(100):
        x = rng.randrange(1, 10_001)
        while x % 2 == 0 or x % 3 == 0:
            x = rng.randrange(1, 10_001)
        n = rng.randint(0, 10)

        window = 2_000
        lower = set(class_n(x, n, window).members)
        upper = set(class_n(x, n + 1, window).members)
        if not lower <= upper:
            ok, detail = False, f"nesting broke at x={x}, n={n}"
            break

        z = strict_inclusion_witness(x, n, search_cap=10**80)
        same_next = iterate(z, n + 1) == iterate(x, n + 1)
        differs = iterate(z, n) != iterate(x, n)
        if not (same_next and differs):
            ok, detail = False, f"witness broke at x={x}, n={n}, z={z}"
            break

        seq = delta_sequence(x, 10).values
        if any(a < b for a, b in zip(seq, seq[1:])) or seq[-1] < 1:
            ok, detail = False, f"delta sequence broke at x={x}"
            break
    announce(5, "nesting, witnesses, monotone minima for 100 seeded bases", ok, detail)


def test_criterion_6_limit_level_coherence(announce):
    ok = True
    detail = ""
    for x in u0_range(1, 10_000):
        if delta_inf(x, 1_000) != (1, True):
            ok, detail = False, f"delta_inf broke at x={x}"
            break
        if tstar_apply(x, 1_000) != 1:
            ok, detail = False, f"tstar broke at x={x}"
            break
    announce(6, "delta_inf = (1, certified) and tstar = 1 on [1, 1e4]", ok, detail)


def test_criterion_7_census(announce):
    counts = census_class_of_one(2, 100)
    exact = counts == [(0, 1), (1, 3), (2, 5)]
    sets_ok = (
        class_n(1, 0, 100).members == [1]
        and class_n(1, 1, 100).members == [1, 5, 85]
        and class_n(1, 2, 100).members == [1, 5, 13, 53, 85]
    )
    big = [c for _, c in census_class_of_one(20, 100_000)]
    monotone = all(a <= b for a, b in zip(big, big[1:]))
    ok = exact and sets_ok and monotone
    announce(7, "census of the class of 1: exact small values, monotone growth", ok,
             f"counts(2,100)={[c for _, c in counts]}")


def test_criterion_8_sufficient_set(announce, per_element_suffset):
    # The scan evaluates tau at every element; sufficient_set_check counts
    # residues mod 18 by proof, and must agree with it.
    start = time.perf_counter()
    hist, violations = per_element_suffset(1, 1_000_000)
    report = sufficient_set_check(1_000_000)
    elapsed = time.perf_counter() - start
    ok = (not violations and hist["other"] == 0 and not report.violations
          and report.tau_nu2_histogram == hist and elapsed < 60.0)
    announce(8, "sufficient set clean at 1e6", ok,
             f"{len(violations)} violations, {elapsed:.1f}s")


def _envelope(proc):
    """The child's JSON envelope, or None if it exited non-zero or printed none."""
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def _child_failure(run, proc):
    stderr = proc.stderr.strip().splitlines()
    return f"{run} run exit {proc.returncode}: {stderr[-1] if stderr else 'no stderr'}"


def test_criterion_9_cache_integrity(announce, run_module, tmp_path):
    label = "cache: identical warm/cold payloads, corrupt line diagnosed"
    path = str(tmp_path / "acceptance.jsonl")
    args = ["verify", "range", "--from", "1", "--to", "2000", "--cache", path, "--quiet"]
    first = run_module(*args)
    second = run_module(*args)
    env1, env2 = _envelope(first), _envelope(second)
    for run, proc, envelope in (("cold", first, env1), ("warm", second, env2)):
        if envelope is None:
            announce(9, label, False, _child_failure(run, proc))  # raises
    identical = json.dumps(env1["result"]) == json.dumps(env2["result"])
    warm_hits = env2["cache_stats"]["hits"] > 0

    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    lines[2] = "garbage\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    corrupt = run_module(*args)
    names_line = corrupt.returncode == 2 and "line 3" in corrupt.stderr

    ok = (
        first.returncode == 0
        and second.returncode == 0
        and identical
        and warm_hits
        and names_line
    )
    announce(9, label, ok, f"hits={env2['cache_stats']['hits']}")
