"""Verification engine: lemma suite wiring, range sweep semantics."""

import functools
import json
import multiprocessing
import os
import random
import tracemalloc
from array import array

import pytest

from collatzq import (
    CHECK_IDS,
    DomainError,
    OrbitCache,
    RangeVerificationReport,
    ResourceLimitError,
    run_lemma_suite,
    u0_range,
    verify_conjecture_range,
)
from collatzq import core
from collatzq import jump as jump_mod
from collatzq import lemmas as lemmas_mod
from collatzq import prefix as prefix_mod
from collatzq import verify as verify_mod
from collatzq.core import _u0_count


def naive_reach(x, budget):
    """Full naive orbit: (steps_to_one | None, max seen)."""
    v, s, mx = x, 0, x
    while v != 1 and s < budget:
        t = 3 * v + 1
        while t % 2 == 0:
            t //= 2
        v = t
        s += 1
        mx = max(mx, v)
    return (s if v == 1 else None), mx


def stepwise_segment(x, max_steps):
    """The segment of x one accelerated step at a time: the loop that the
    jump kernel replaced in the sweep from 1, kept as the kernel's oracle.

    (kind, steps, value, seg_max), as jump._segment_outcome(x, max_steps, 0):
    ("drop", s, v, m) after s steps to v < x, ("cycle", s, x, m) on a return
    to x, ("truncated", max_steps, 0, m) when the budget runs out.
    """
    v, mx, s = x, x, 0
    while s < max_steps:
        t = 3 * v + 1
        v = t >> ((t & -t).bit_length() - 1)
        s += 1
        if v < x:
            return ("drop", s, v, mx)
        if v > mx:
            mx = v
        if v == x:
            return ("cycle", s, v, mx)
    return ("truncated", s, 0, mx)


def usable_cores(monkeypatch, cores):
    """Report `cores` usable CPUs in the affinity mask, while cpu_count()
    reports 64; None is a platform with no affinity call whose cpu_count()
    is unknown.  No sweep may read either."""
    if cores is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)


@functools.cache
def _holder_records(hi, max_steps):
    records = {}
    steps_best = peak_best = 0
    for x in u0_range(1, hi):
        orbit = core.orbit(x, keep_prefix=True)
        path = orbit.trajectory_prefix
        lows, low = [0], x
        for i, v in enumerate(path):
            if v < low:
                lows.append(i)
                low = v
        defined = all(b - a <= max_steps for a, b in zip(lows, lows[1:]))
        drop = lows[1] if len(lows) > 1 else len(path)
        peak = max(path[:min(drop, max_steps + 1)])
        holder = False
        if defined and orbit.steps_to_one > steps_best:
            steps_best = orbit.steps_to_one
            holder = True
        if peak > peak_best:
            peak_best = peak
            holder = True
        if holder and defined:
            records[x] = (orbit.steps_to_one, orbit.max_excursion)
    return records


def record_holders(hi, max_steps=10_000, upto=None):
    """{x: (steps to 1, orbit maximum)} of the record holders of [1, hi]
    whose steps a sweep with max_steps defines, from core.orbit alone.

    x holds a delay record when its steps to 1 beat every smaller element's,
    and a path record when its segment peak (the orbit's largest value before
    it first drops below x, within max_steps steps) beats every smaller
    element's, which without truncations makes its orbit maximum beat theirs.
    x's steps are defined when each stretch between successive new minima of
    its orbit takes at most max_steps steps.  Holding a record depends only
    on the elements up to x, so the holders of [1, hi] are those of any
    longer prefix [1, upto] that lie in [1, hi].
    """
    records = _holder_records(upto or hi, max_steps)
    return {x: rec for x, rec in records.items() if x <= hi}


class TestLemmaSuite:
    def test_fifteen_checks_in_order(self):
        results = run_lemma_suite(100, n_cap=5, sample_seed=1)
        assert [r.check_id for r in results] == CHECK_IDS
        assert len(results) == 15

    def test_zero_failures_midscale(self):
        results = run_lemma_suite(2_000, n_cap=30, sample_seed=7)
        assert all(not r.failures for r in results)
        assert all(r.instances_tested > 0 for r in results)

    def test_deterministic_given_seed(self):
        a = run_lemma_suite(300, n_cap=10, sample_seed=3)
        b = run_lemma_suite(300, n_cap=10, sample_seed=3)
        assert [(r.check_id, r.instances_tested, r.failures) for r in a] == [
            (r.check_id, r.instances_tested, r.failures) for r in b
        ]

    def test_rejects_tiny_bound(self):
        with pytest.raises(DomainError):
            run_lemma_suite(99)

    def test_rejects_bad_cap(self):
        with pytest.raises(DomainError):
            run_lemma_suite(100, n_cap=0)

    def test_broken_quasi_inverse_is_caught_and_replayable(self, monkeypatch):
        real_tau = lemmas_mod.core.tau

        def lying_tau(y):
            return 11 if y == 7 else real_tau(y)

        monkeypatch.setattr(lemmas_mod.core, "tau", lying_tau)
        results = {r.check_id: r for r in run_lemma_suite(100, n_cap=5, sample_seed=1)}
        tau_check = results["L-TAU"]
        assert tau_check.failures
        bad = [f for f in tau_check.failures if f.get("y") == 7]
        assert bad and bad[0]["tau"] == 11

    def test_step_compatibility_rules_name_their_direction(self, monkeypatch):
        # A merge that leaves some decided pairs undecided breaks both
        # directions of L-INF and L-TSWD, each under its own reason.
        real_merge = lemmas_mod.quotient.merge

        def forgetful_merge(x, z, cap):
            res = real_merge(x, z, cap)
            if (7 * x + 3 * z + cap) % 5 == 0:
                return res._replace(merge_time=None)
            return res

        monkeypatch.setattr(lemmas_mod.quotient, "merge", forgetful_merge)
        results = {r.check_id: r for r in run_lemma_suite(1000, sample_seed=3)}
        for check_id, reasons in [
            ("L-INF", {"images failed to merge": "merge_time",
                       "originals failed to merge": "image_merge_time"}),
            ("L-TSWD", {"not well-defined": "merge_time", "not injective": "image_merge_time"}),
        ]:
            failures = results[check_id].failures
            assert {f["reason"] for f in failures} == set(reasons)
            for f in failures:
                assert set(f) == {"x", "z", reasons[f["reason"]], "reason"}


# One fault per failure payload of the lemma checks: each lies on one input
# and is called as lie(real, *args).  Each case runs its check alone, since a
# fault may break another check (a preimage table without key 5 makes L-D1
# raise KeyError), and looks for the payload the fault must produce.
def _shift_lie(real, x, k=1):
    return real(x, k) + 2 if (x, k) == (1, 1) else real(x, k)


def _preimages_lie(at):
    def lie(real, y, bound, u0_only=False):
        found = real(y, bound, u0_only=u0_only)
        return found[:-1] if (y, u0_only) == at else found
    return lie


def _table_lie(real, zs, ymax):
    table = real(zs, ymax)
    del table[5]
    return table


def _class_lie(real, x, n, bound, method="scan"):
    # 5 is in every window and has the restricted preimage 13.
    win = real(x, n, bound, method=method)
    return win._replace(members=sorted({*win.members, 5}))


_TAU_5_IMAGE = 3 * core.tau(5) + 1

_LEMMA_FAULTS = [
    pytest.param("L-TS", core, "shift", _shift_lie,
                 {"x", "step_of_shift", "step"}, {"x": 1}, id="L-TS"),
    pytest.param("L-TSK", core, "shift", _shift_lie,
                 {"x", "k", "step_of_shift", "step"}, {"x": 1, "k": 1}, id="L-TSK"),
    pytest.param("L-SCF", core, "shift", _shift_lie,
                 {"x", "k", "closed_form", "iterated"}, {"x": 1, "k": 1}, id="L-SCF"),
    pytest.param("L-XI", core, "xi", lambda real, y: 7 if y == 5 else real(y),
                 {"y", "xi", "brute_min"}, {"y": 5, "xi": 7}, id="L-XI"),
    pytest.param("L-PRE", core, "preimages", _preimages_lie((5, False)),
                 {"y", "bound", "chain", "brute"}, {"y": 5}, id="L-PRE-chain"),
    pytest.param("L-PRE", core, "preimages", _preimages_lie((7, True)),
                 {"y", "bound", "chain_u0", "brute_u0"}, {"y": 7}, id="L-PRE-chain_u0"),
    pytest.param("L-SURJ", lemmas_mod, "_preimage_table", _table_lie,
                 {"y", "searched_up_to"}, {"y": 5}, id="L-SURJ"),
    pytest.param("L-FIX", core, "collatz_step", lambda real, x: 5 if x == 5 else real(x),
                 {"x"}, {"x": 5}, id="L-FIX"),
    pytest.param("L-A2", lemmas_mod.quotient, "strict_inclusion_witness",
                 lambda real, x, n, search_cap: x,
                 {"x", "n", "witness", "same_at_next_level", "differs_at_level"},
                 {"same_at_next_level": True, "differs_at_level": False}, id="L-A2"),
    pytest.param("L-A6", lemmas_mod.quotient, "class_n", _class_lie,
                 {"x", "n", "z", "in_level_n_plus_1", "image_in_level_n"},
                 {"z": 5, "in_level_n_plus_1": True, "image_in_level_n": False}, id="L-A6"),
    pytest.param("L-CI", lemmas_mod.quotient, "class_n", _class_lie,
                 {"x", "n", "image", "reason"}, {"image": 1, "reason": "image left the class"},
                 id="L-CI-image"),
    pytest.param("L-CI", lemmas_mod.quotient, "class_n", _class_lie,
                 {"x", "n", "member", "reason"}, {"member": 5, "reason": "member not covered"},
                 id="L-CI-member"),
    pytest.param("L-D1", lemmas_mod.quotient, "delta_n", lambda real, x, n: real(x, n) + 2,
                 {"x", "delta_1", "brute_level1_min"}, {}, id="L-D1"),
    pytest.param("L-SUFF", core, "nu2", lambda real, y: 9 if y == _TAU_5_IMAGE else real(y),
                 {"x", "tau", "nu2"}, {"x": 5, "nu2": 9}, id="L-SUFF"),
]


class TestLemmaFailureBranches:
    @pytest.mark.parametrize("check_id, module, name, lie, keys, values", _LEMMA_FAULTS)
    def test_fault_reaches_the_failure_payload(self, monkeypatch, check_id, module, name,
                                               lie, keys, values):
        monkeypatch.setattr(module, name, functools.partial(lie, getattr(module, name)))
        check = dict(lemmas_mod._CHECKS)[check_id]
        _, _, failures = check(100, 5, random.Random(f"0:{check_id}"))
        assert any(set(f) == keys and values.items() <= f.items() for f in failures), failures

    def test_cli_prints_the_real_payloads(self, monkeypatch, capsys):
        from collatzq.cli import main

        monkeypatch.setattr(core, "shift", functools.partial(_shift_lie, core.shift))
        code = main(["verify", "lemmas", "--bound", "100"])
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == 3
        assert result["all_passed"] is False
        failures = {c["check_id"]: c["failures"] for c in result["checks"] if c["failure_count"]}
        # Every int under "failures" is in the number space except the
        # structural ones: the shift count k stays an int.
        assert failures == {
            "L-TS": [{"x": "1", "step_of_shift": "11", "step": "1"}],
            "L-TSK": [{"x": "1", "k": 1, "step_of_shift": "11", "step": "1"}],
            "L-SCF": [{"x": "1", "k": 1, "closed_form": "7", "iterated": "5"}],
        }


class TestRangeSweep:
    def test_small_range_exact_statistics(self):
        report = verify_conjecture_range(1, 100, max_steps=100)
        assert report.elements_checked == 33
        assert report.all_reach_one
        assert report.cycles_found == []
        assert report.truncated_elements == []
        want_steps = max(naive_reach(x, 10_000)[0] for x in u0_range(1, 100))
        want_exc = max(naive_reach(x, 10_000)[1] for x in u0_range(1, 100))
        assert report.max_steps_observed == want_steps == 43
        assert report.max_excursion_observed == want_exc == 3_077

    def test_thousand_range(self):
        report = verify_conjecture_range(1, 1_000, max_steps=1_000)
        assert report.elements_checked == 333
        assert report.all_reach_one
        assert report.max_steps_observed == 65

    def test_budget_truncation_set(self):
        report = verify_conjecture_range(1, 100, max_steps=10)
        assert not report.all_reach_one
        assert report.truncated_elements == [31, 47, 71, 91]
        assert report.cycles_found == []

    def test_truncated_elements_really_need_more(self):
        # every truncated element stays at or above itself for the whole budget
        budget = 10
        for x in verify_conjecture_range(1, 100, max_steps=budget).truncated_elements:
            v = x
            for _ in range(budget):
                t = 3 * v + 1
                while t % 2 == 0:
                    t //= 2
                v = t
                assert v >= x

    # Above 1 a caller shares a window among processes by splitting it: one
    # worker's report must equal the fold of two workers' reports.  The split
    # is not a multiple of 2^16, so a sieve period straddles it.
    def test_worker_counts_agree(self, split_sweep):
        lo, hi = 10**12, 10**12 + 100_000
        assert verify_conjecture_range(lo, hi) == split_sweep(lo, lo + 54_321, hi)

    def test_worker_counts_agree_with_findings(self, split_sweep):
        lo, hi = 2**64, 2**64 + 100_000
        a = verify_conjecture_range(lo, hi, max_steps=9)
        assert a == split_sweep(lo, lo + 54_321, hi, max_steps=9)
        assert a.truncated_elements and not a.all_reach_one

    def test_split_consistency(self):
        full = verify_conjecture_range(1, 2_000, max_steps=500)
        left = verify_conjecture_range(1, 997, max_steps=500)
        right = verify_conjecture_range(998, 2_000, max_steps=500)
        assert full.all_reach_one == (left.all_reach_one and right.all_reach_one)
        assert full.elements_checked == left.elements_checked + right.elements_checked
        assert full.max_excursion_observed == max(
            left.max_excursion_observed, right.max_excursion_observed
        )

    def test_split_consistency_under_truncation(self):
        full = verify_conjecture_range(1, 100, max_steps=10)
        left = verify_conjecture_range(1, 50, max_steps=10)
        right = verify_conjecture_range(51, 100, max_steps=10)
        assert full.truncated_elements == left.truncated_elements + right.truncated_elements
        assert full.all_reach_one == (left.all_reach_one and right.all_reach_one)

    def test_upper_segment_statistics(self):
        report = verify_conjecture_range(51, 200, max_steps=200)
        assert report.all_reach_one
        assert report.elements_checked == len(list(u0_range(51, 200)))
        # steps are segment-local for lo > 1: check against a direct recompute
        best = 0
        for x in u0_range(51, 200):
            v, s = x, 0
            while v >= x:
                t = 3 * v + 1
                while t % 2 == 0:
                    t //= 2
                v = t
                s += 1
            best = max(best, s)
        assert report.max_steps_observed == best

    def test_synthetic_cycle_reported(self, monkeypatch):
        real = jump_mod._segment_outcome

        def fake(x, max_steps, peak):
            if x == 25:
                return ("cycle", 4, 25, max(peak, 99))
            return real(x, max_steps, peak)

        monkeypatch.setattr(jump_mod, "_segment_outcome", fake)
        report = verify_conjecture_range(1, 100, workers=1)
        assert report.cycles_found == [25]
        assert not report.all_reach_one

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lo": 0, "hi": 10},
            {"lo": 5, "hi": 4},
            {"lo": 1, "hi": 10, "max_steps": 0},
            {"lo": 1, "hi": 10, "workers": 0},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(DomainError):
            verify_conjecture_range(**kwargs)


class TestRangeSweepWithCache:
    def test_cold_then_warm_identical(self, tmp_path):
        holders = len(record_holders(2_000))
        cache = OrbitCache(tmp_path / "c.jsonl")
        cold = verify_conjecture_range(1, 2_000, cache=cache)
        assert (cache.hits, cache.misses) == (0, holders)
        warm_cache = OrbitCache(tmp_path / "c.jsonl")
        warm = verify_conjecture_range(1, 2_000, cache=warm_cache)
        assert warm == cold
        assert warm_cache.hits == holders
        assert warm_cache.misses == 0

    def test_matches_uncached_run(self, tmp_path):
        cache = OrbitCache(tmp_path / "c.jsonl")
        cached = verify_conjecture_range(1, 3_000, cache=cache)
        plain = verify_conjecture_range(1, 3_000)
        assert cached == plain

    def test_warm_sweep_over_per_element_file(self, tmp_path):
        # Earlier versions stored one record per element.  A warm sweep over
        # such a file offers only its record holders, all hits, and leaves
        # the records of every other element as they are.
        path = tmp_path / "c.jsonl"
        lines = [json.dumps({"format": "collatz-cache", "version": 1})]
        for x in u0_range(1, 3_000):
            orbit = core.orbit(x)
            lines.append(json.dumps({"x": str(x), "steps": orbit.steps_to_one,
                                     "max": str(orbit.max_excursion)}))
        path.write_text("\n".join(lines) + "\n")
        before = path.read_bytes()
        cache = OrbitCache(path)
        assert len(cache) == len(lines) - 1
        report = verify_conjecture_range(1, 3_000, cache=cache)
        assert (cache.hits, cache.misses) == (len(record_holders(3_000)), 0)
        assert report == verify_conjecture_range(1, 3_000)
        assert path.read_bytes() == before

    def test_partial_warm_cache(self, tmp_path):
        path = tmp_path / "c.jsonl"
        seed_cache = OrbitCache(path)
        steps7, exc7 = naive_reach(7, 1_000)
        seed_cache.store(7, steps7, exc7)
        cache = OrbitCache(path)
        report = verify_conjecture_range(1, 500, cache=cache)
        assert cache.hits == 1
        assert report == verify_conjecture_range(1, 500)

    def test_cached_totals_are_full_orbit_values(self, tmp_path):
        # Brute force: the stored keys are the delay and path record holders
        # of [1, hi] by core.orbit, and every record is that orbit.
        for hi in (1, 5, 200, 2_000, 20_000):
            path = tmp_path / f"{hi}.jsonl"
            verify_conjecture_range(1, hi, cache=OrbitCache(path))
            lines = path.read_text().splitlines()[1:]
            stored = {int(rec["x"]): (rec["steps"], int(rec["max"]))
                      for rec in map(json.loads, lines)}
            assert len(stored) == len(lines)
            assert stored == record_holders(hi, upto=20_000)
            for x, record in stored.items():
                orbit = core.orbit(x)
                assert record == (orbit.steps_to_one, orbit.max_excursion) == naive_reach(x, 10_000)

    def test_wrong_composed_total_is_caught_before_it_is_stored(self, tmp_path, monkeypatch):
        # 31 holds a record of [1, 100]; one step too many in its segment
        # disagrees with its orbit, which the sweep recomputes before storing.
        real = jump_mod._segment_outcome

        def one_step_too_many(x, max_steps, peak):
            kind, s, v, mx = real(x, max_steps, peak)
            return (kind, s + (x == 31), v, mx)

        monkeypatch.setattr(jump_mod, "_segment_outcome", one_step_too_many)
        with pytest.raises(RuntimeError, match="x=31"):
            verify_conjecture_range(1, 100, cache=OrbitCache(tmp_path / "c.jsonl"))
        assert len(OrbitCache(tmp_path / "c.jsonl")) == 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed, max_steps", [(0, 10), (1, 40), (2, 10_000), (3, 40)])
    def test_cold_then_longer_and_shorter_warm_runs(self, tmp_path, seed, max_steps, workers):
        # A cold prefix, then warm prefixes past and short of it: each report
        # is the uncached one, each record holder is looked up once, and
        # every stored record is the exact orbit.
        rng = random.Random(seed)
        cold_hi = rng.randint(15_000, 30_000)
        longest = cold_hi + rng.randint(1, 15_000)
        path = tmp_path / "c.jsonl"
        for hi in (cold_hi, longest, rng.randint(1, cold_hi - 1)):
            cache = OrbitCache(path)
            report = verify_conjecture_range(1, hi, max_steps=max_steps, workers=workers, cache=cache)
            assert report == verify_conjecture_range(1, hi, max_steps=max_steps)
            assert cache.hits + cache.misses == len(record_holders(hi, max_steps, longest))
            if hi == cold_hi:
                assert cache.hits == 0
                assert report.truncated_elements or max_steps == 10_000
            else:
                assert cache.misses == len(record_holders(hi, max_steps, longest)
                                           .keys() - record_holders(cold_hi, max_steps, longest).keys())
        records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert records
        for rec in records:
            orbit = core.orbit(int(rec["x"]))
            assert (rec["steps"], int(rec["max"])) == (orbit.steps_to_one, orbit.max_excursion)

    def test_cache_ignored_above_one(self, tmp_path):
        cache = OrbitCache(tmp_path / "c.jsonl")
        verify_conjecture_range(5, 100, cache=cache)
        assert (cache.hits, cache.misses) == (0, 0)
        assert len(OrbitCache(tmp_path / "c.jsonl")) == 0


class TestPrefixMemoryCap:
    @pytest.mark.parametrize("cached", [False, True])
    def test_oversized_prefix_refused_before_iterating(self, tmp_path, monkeypatch, cached):
        def no_iteration(x, max_steps, peak):
            raise AssertionError(f"iterated {x} before refusing the sweep")

        monkeypatch.setattr(jump_mod, "_segment_outcome", no_iteration)
        cache = OrbitCache(tmp_path / "c.jsonl") if cached else None
        with pytest.raises(ResourceLimitError, match="physical memory"):
            verify_conjecture_range(1, 10**15, workers=2, cache=cache)
        if cached:
            assert (cache.hits, cache.misses) == (0, 0)

    def test_cap_counts_the_arrays_a_sweep_holds(self, monkeypatch):
        # The one per-element array is the 4-byte total of every third integer.
        hi = 3_000
        totals = 4 * (hi // 3 + 1)
        need = prefix_mod._prefix_bytes(hi)
        assert totals < need
        monkeypatch.setattr(core, "_physical_memory", lambda: need)
        assert verify_conjecture_range(1, hi).all_reach_one
        monkeypatch.setattr(core, "_physical_memory", lambda: need - 1)
        with pytest.raises(ResourceLimitError):
            verify_conjecture_range(1, hi)
        # Above 1 the sweep keeps no per-element arrays.
        assert verify_conjecture_range(2, hi).all_reach_one

    def test_cached_estimate_covers_measured_peak(self, tmp_path):
        # One estimate serves a sweep with or without a cache: it must cover
        # a cached sweep's measured peak without being vacuous.  At 4 bytes a
        # slot, hi = 60000 holds the 80 KB of totals that hi = 30000 held at 8.
        hi = 60_000
        cache = OrbitCache(tmp_path / "c.jsonl")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            verify_conjecture_range(1, hi, cache=cache)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        need = prefix_mod._prefix_bytes(hi)
        assert peak <= need <= 2 * peak

    def test_findings_are_held_once(self):
        # Each truncation of --max-steps 1 is held once, as an int in its
        # ascending list: about 40 bytes, where a record-holder entry and a
        # sorted copy held it three times (112 bytes).
        hi = 300_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = verify_conjecture_range(1, hi, max_steps=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        found = len(report.truncated_elements)
        assert found == 50_000 and not report.cycles_found
        assert peak <= prefix_mod._prefix_bytes(hi) + 64 * found

    def test_cached_sweep_refused_at_its_own_cost(self, tmp_path, monkeypatch):
        hi = 3_000
        need = prefix_mod._prefix_bytes(hi)
        monkeypatch.setattr(core, "_physical_memory", lambda: need - 1)
        cache = OrbitCache(tmp_path / "c.jsonl")
        with pytest.raises(ResourceLimitError, match="physical memory"):
            verify_conjecture_range(1, hi, cache=cache)
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
        monkeypatch.setattr(core, "_physical_memory", lambda: need)
        assert verify_conjecture_range(1, hi, cache=cache).all_reach_one


def per_element_prefixes(his, max_steps, segment=stepwise_segment):
    """{hi: per_element_prefix(hi, max_steps, segment)} for every hi in his,
    from one pass."""
    totals = array("q", [-1]) * (max(his) // 3 + 1)
    totals[0] = 0
    holders = {1: 0}
    steps_max, exc_max = 0, 1
    cycles, truncated = [], []
    out = {}
    pending = sorted(his, reverse=True)
    for x in u0_range(5, pending[0]):
        while pending[-1] < x:
            summary = (_u0_count(1, x - 1), steps_max, exc_max, cycles[:], truncated[:])
            out[pending.pop()] = (summary, dict(holders))
        kind, s, v, mx = segment(x, max_steps)
        if kind == "drop":
            up = totals[v // 3]
            total = s + up if up >= 0 else -1
        else:
            total = -1
            (cycles if kind == "cycle" else truncated).append(x)
        totals[x // 3] = total
        if total > steps_max:
            steps_max = total
            holders[x] = total
        if mx > exc_max:
            exc_max = mx
            if total >= 0:
                holders[x] = total
    for hi in pending:
        out[hi] = ((_u0_count(1, hi), steps_max, exc_max, cycles, truncated), holders)
    return out


def per_element_prefix(hi, max_steps, segment=stepwise_segment):
    """((count, steps_max, exc_max, cycles, truncated), holders) of [1, hi]
    from one ascending pass of segment(x, max_steps) over every element
    above 1: the pass the strided sweep from 1 replaced, kept as its oracle.

    1 reaches 1 in 0 steps and holds the first record.  totals[x // 3] is
    x's exact steps to 1, or -1 where a cycle or truncation upstream leaves
    it undefined; a drop target is a smaller restricted-domain element, so
    its total is known before x's.  holders maps each x where steps_max
    rises, and each x with a defined total whose segment peak beats every
    earlier segment peak, to its total.
    """
    return per_element_prefixes([hi], max_steps, segment)[hi]


def _block_edges(top):
    # The first element of each block of the strided pass below top: a head
    # [1, 4096), then blocks [B, B + min(B // 8, 2**15)).
    edges = [4096]
    while edges[-1] < top:
        edges.append(edges[-1] + min(edges[-1] // 8, 1 << 15))
    return edges


class TestStridedPrefixPass:
    """The strided sweep from 1 against the per-element pass it replaced."""

    @pytest.mark.parametrize("max_steps", [*range(1, 12), 40, 10_000])
    def test_matches_per_element_pass(self, max_steps):
        rng = random.Random(max_steps)
        top = 300_000 if max_steps >= 40 else 70_000
        edges = [e for e in _block_edges(top) if e < top]
        his = {1, 2, 4095, 4096, 4097, top,
               *(e + d for e in (edges[1], edges[len(edges) // 2], edges[-1]) for d in (-1, 0, 1)),
               *(k * 2**16 + d for k in range(1, top >> 16) for d in (-1, 1)),
               rng.randint(4097, top), rng.randint(4097, top)}
        want = per_element_prefixes(his, max_steps)
        for hi in sorted(his):
            assert prefix_mod._sweep_prefix(hi, max_steps)[:2] == want[hi], hi

    @pytest.mark.parametrize("max_steps", [1, 5, 26, 10_000])
    def test_totals_are_exact_steps_to_one(self, max_steps):
        # The census counts these totals: each defined one is x's exact steps
        # to 1, every x that reaches 1 within max_steps steps has one, and
        # the slot past hi holds none.
        hi = 40_000  # its slot 13333 is 40001's
        totals = prefix_mod._sweep_prefix(hi, max_steps)[2]
        assert len(totals) == hi // 3 + 1 and totals[-1] < 0
        for x in u0_range(1, hi):
            steps = core.orbit(x).steps_to_one
            total = totals[x // 3]
            assert total == steps if total >= 0 else steps > max_steps, x

    def test_strided_members_that_may_hold_path_records_are_iterated(self, monkeypatch):
        # A seam whose segment peaks are the starts themselves, except on the
        # strided class 3 (mod 16) outside the predecessor rule's x = 11, 35
        # (mod 36): there every member beats every earlier peak, so each is a
        # path record, which the pass finds only by iterating the parts whose
        # peak bound beats the running peak.
        real = jump_mod._segment_outcome

        def flat_peaks(x, max_steps, peak):
            kind, s, v, mx = real(x, max_steps, peak)
            return (kind, s, v, mx if x % 16 == 3 and x % 36 not in (11, 35) else max(peak, x))

        monkeypatch.setattr(jump_mod, "_segment_outcome", flat_peaks)
        got = prefix_mod._sweep_prefix(20_000, 10_000)[:2]
        assert got == per_element_prefix(20_000, 10_000, lambda z, m: flat_peaks(z, m, 0))
        assert {x for x in u0_range(4096, 20_000) if x % 16 == 3 and x % 36 not in (11, 35)} \
            <= got[1].keys()

    def test_holders_have_defined_totals(self):
        # Half the elements are truncated at one step, and a path record
        # among them is not a record holder: the cache stores only holders,
        # each with its total.
        summary, holders, totals = prefix_mod._sweep_prefix(300_000, 1)
        assert len(summary[4]) == 50_000
        assert holders and all(t >= 0 and totals[x // 3] == t for x, t in holders.items())

    @pytest.mark.parametrize("kind", ["cycle", "truncated"])
    def test_injected_finding_leaves_strided_descendants_undefined(self, monkeypatch, kind):
        # s = 4127 is a sieve survivor past the head, iterated by the pass.
        # x = 44021 = 1 (mod 4) is strided and drops to s in one step, and
        # the iterated y = 46375 drops to x.  A finding at s leaves x's total
        # undefined, and so y's: y, given a peak that makes it a path record,
        # is not held, in the strided pass as in the per-element oracle.
        s, x, y, hi = 4127, 44021, 46375, 50_000
        real = jump_mod._segment_outcome
        assert s in jump_mod._sieve_table().survivors
        assert stepwise_segment(x, 10_000)[:3] == ("drop", 1, s)
        assert stepwise_segment(y, 10_000)[:3] == ("drop", 5, x)
        iterated = set()

        def peak_at_y(v, max_steps, peak):
            iterated.add(v)
            kind_, steps, w, mx = real(v, max_steps, peak)
            return (kind_, steps, w, max(peak, 10**40) if v == y else mx)

        monkeypatch.setattr(jump_mod, "_segment_outcome", peak_at_y)
        clean = prefix_mod._sweep_prefix(hi, 10_000)
        assert clean[1][y] >= 0
        assert s in iterated and y in iterated and x not in iterated

        def finding_at_s(v, max_steps, peak):
            if v != s:
                return peak_at_y(v, max_steps, peak)
            top = real(s, max_steps, peak)[3]
            return (kind, max_steps, 0, top) if kind == "truncated" else (kind, 4, s, top)

        monkeypatch.setattr(jump_mod, "_segment_outcome", finding_at_s)
        got = prefix_mod._sweep_prefix(hi, 10_000)
        assert got[:2] == per_element_prefix(hi, 10_000, lambda z, m: finding_at_s(z, m, 0))
        assert got[2][y // 3] < 0 and y not in got[1]
        assert got[0][3 if kind == "cycle" else 4] == [s]
        report = verify_conjecture_range(1, hi)
        assert not report.all_reach_one


class TestWorkerClamp:
    """Every sweep runs in the calling process and starts none, whatever
    `workers` and the usable CPUs: above 1 as one _sieve_window call over the
    whole window, from 1 as one ascending pass.  Each case passes a `workers`
    and a CPU count that the sweep must ignore."""

    @pytest.fixture(autouse=True)
    def no_process_starts(self, monkeypatch):
        def start(process):
            raise AssertionError("a sweep started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)

    @pytest.mark.parametrize("cores, workers, hi", [
        (None, 8, 10**12 + 100_000),  # cpu_count() unknown
        (1, 8, 10**12 + 100_000),     # one usable core
        (64, 8, 10**12 + 9_998),      # two windows narrower than a sieve period
        (64, 8, 10**12 + 19_998),
        (64, 1, 10**12 + 100_000),
    ])
    def test_one_process_sweeps_the_window_once(self, monkeypatch, cores, workers, hi):
        lo = 10**12
        calls = []
        sieve_window = verify_mod._sieve_window
        usable_cores(monkeypatch, cores)
        monkeypatch.setattr(verify_mod, "_sieve_window",
                            lambda *args: calls.append(args) or sieve_window(*args))
        report = verify_conjecture_range(lo, hi, max_steps=9, workers=workers)
        assert calls == [(lo, hi, 9)]
        assert report == per_element_report(lo, hi, 9)

    @pytest.mark.parametrize("cores, workers", [(2, 5_000), (64, 5_000), (None, 8), (4, 3)])
    def test_sweep_from_one_starts_no_pool(self, monkeypatch, cores, workers):
        want = verify_conjecture_range(1, 40_000, workers=1)
        usable_cores(monkeypatch, cores)
        assert verify_conjecture_range(1, 40_000, workers=workers) == want


def per_element_report(lo, hi, max_steps, segment=stepwise_segment):
    """The report of [lo, hi], lo > 1, aggregated from segment(x, max_steps) on every element."""
    steps = exc = count = 0
    cycles, truncated = [], []
    for x in u0_range(lo, hi):
        kind, s, _, mx = segment(x, max_steps)
        count += 1
        exc = max(exc, mx)
        if kind == "drop":
            steps = max(steps, s)
        elif kind == "cycle":
            cycles.append(x)
        else:
            truncated.append(x)
    return RangeVerificationReport(
        lo=lo,
        hi=hi,
        elements_checked=count,
        all_reach_one=not cycles and not truncated,
        max_steps_observed=steps,
        max_excursion_observed=exc,
        cycles_found=cycles,
        truncated_elements=truncated,
    )


def segment_by_division(x, budget):
    """(steps until the trajectory of x drops below x, peak before it), or None."""
    v, peak = x, x
    for s in range(1, budget + 1):
        t = 3 * v + 1
        while t % 2 == 0:
            t //= 2
        v = t
        if v < x:
            return s, peak
        peak = max(peak, v)
    return None


class TestResidueSieve:
    MOD = 2**16
    REGIONS = {"low": (2, 5_000), "mid": (10**12, 10**13), "high": (2**64, 2**66)}

    @pytest.mark.parametrize("max_steps", [*range(1, 12), 10_000])
    @pytest.mark.parametrize("region", REGIONS)
    def test_matches_per_element_oracle(self, region, max_steps):
        rng = random.Random(f"{region}:{max_steps}")
        start, end = self.REGIONS[region]
        widths = [rng.randrange(0, 60), rng.randrange(60, 3_000)]
        if region != "low":
            widths.append(self.MOD + rng.randrange(1, self.MOD // 4))
        for width in widths:
            lo = rng.randrange(start, end - width)
            hi = lo + width
            want = per_element_report(lo, hi, max_steps)
            assert verify_conjecture_range(lo, hi, max_steps) == want

    @pytest.mark.parametrize("max_steps", [1, 3, 9])
    @pytest.mark.parametrize("lo, hi", [
        (2**16 - 5_000, 2**16 + 5_000), (10**12, 10**12 + 200_000), (2**64, 2**64 + 200_000)])
    def test_findings_ascend_across_sieve_periods(self, lo, hi, max_steps):
        # The report holds the window's own findings lists, unsorted, so the
        # window must visit its elements in order, period by period.
        _, _, _, cycles, truncated = verify_mod._sieve_window(lo, hi, max_steps)
        want = per_element_report(lo, hi, max_steps)
        assert truncated == sorted(truncated) and truncated
        assert (cycles, truncated) == (want.cycles_found, want.truncated_elements)

    def test_window_of_five_thousand_from_two(self):
        for max_steps in (3, 10_000):
            want = per_element_report(2, 5_000, max_steps)
            assert verify_conjecture_range(2, 5_000, max_steps, workers=2) == want

    def test_sixteen_bits_leave_2114_survivors(self):
        table = verify_mod._sieve_table()
        assert len(table.survivors) == 2114
        assert len(table.classes) == 790
        sieved = [r for _, _, _, r0, period in table.classes for r in range(r0, self.MOD, period)]
        assert len(sieved) == len(set(sieved)) == self.MOD // 2 - 2114
        assert sorted(sieved + list(table.survivors)) == list(range(1, self.MOD, 2))

    def test_sieve_is_the_stopping_time_tree(self):
        # A class r mod 2**j is where 3**c_i(r) < 2**i first holds, at i = j,
        # with the bounds of _entry(r, j); a survivor has 3**c_i > 2**i for
        # every i <= 16.
        table = verify_mod._sieve_table()
        for mul, add, s, r, period in table.classes:
            j = period.bit_length() - 1
            entry = jump_mod._entry(r, j)
            assert r < period and entry[0] < period
            assert (mul, add, s) == (entry[4], entry[6], entry[2])
            assert all(jump_mod._entry(r % 2**i, i)[0] > 2**i for i in range(1, j))
        for r in table.survivors:
            assert all(jump_mod._entry(r % 2**i, i)[0] > 2**i for i in range(1, 17))

    def test_sieved_members_drop_at_the_class_step(self):
        # Every odd x in (1, 2**17), which holds every member at or below a
        # class threshold, and one member of each class above 2**64, against
        # trial division: each drops at exactly its class's step, under the
        # class's peak bound.
        table = verify_mod._sieve_table()
        big = 2**64 * 12_345
        for mul, add, s, r0, period in table.classes:
            assert 1 <= s <= 10
            members = [x for x in range(r0, 2 * self.MOD, period) if x > 1]
            for x in members + [big + r0]:
                seg = segment_by_division(x, 20)
                assert seg is not None and seg[0] == s, (x, s, seg)
                assert seg[1] <= mul * (x // period) + add
        for x in table.survivors:
            assert segment_by_division(x + big, 10) is None

    def test_top_member_is_the_largest_restricted_member(self):
        rng = random.Random(5)
        for _ in range(1_000):
            period = 2 ** rng.randrange(2, 12)
            r = rng.randrange(1, period, 2)
            lo = rng.choice([2, 10**12, 2**64]) + rng.randrange(10**5)
            hi = lo + rng.randrange(3 * period)
            want = max((x for x in range(lo, hi + 1) if x % period == r and x % 3), default=0)
            assert verify_mod._top_member(r, period, lo, hi) == want

    def test_synthetic_cycle_above_one_reported(self, monkeypatch):
        table = verify_mod._sieve_table()
        lo = 2**64
        x = next(lo + r for r in table.survivors if (lo + r) % 3)
        real = jump_mod._segment_outcome

        def fake(z, max_steps, peak):
            if z == x:
                return ("cycle", 4, z, max(peak, 99))
            return real(z, max_steps, peak)

        monkeypatch.setattr(jump_mod, "_segment_outcome", fake)
        report = verify_conjecture_range(lo, lo + 1_000, workers=1)
        assert report.cycles_found == [x]
        assert not report.all_reach_one


def t1_by_division(n):
    """(3n+1)/2 for odd n, n/2 for even n, deciding parity by trial division."""
    return (3 * n + 1) // 2 if n % 2 == 1 else n // 2


class TestJumpKernel:
    """The k = 8 jump table, and the segment kernel against stepwise_segment."""

    # The first prototype of the kernel tested for a drop only after the
    # next step, not right after a jump's halvings: 22 steps instead of 21.
    TRAP = 1_000_000_000_031

    def test_table_against_trial_division(self):
        # Each entry from two members 256*a + b, a = 0 and a = big: the j-th
        # T1 image is mul_j * a + add_j, so the pair gives mul_j and add_j.
        table = jump_mod._jump_table()
        big = 2**64 + 12_345
        assert len(table) == 256
        for b, entry in enumerate(table):
            small, large = b, big * 256 + b
            muls, adds, odd = [], [], 0
            for j in range(1, 9):
                odd += small % 2
                small, large = t1_by_division(small), t1_by_division(large)
                mul, rest = divmod(large - small, big)
                assert rest == 0 and mul == 3**odd * 2 ** (8 - j), (b, j)
                muls.append(mul)
                adds.append(small)
            assert entry == (3**odd, adds[-1], odd, min(muls), max(muls), min(adds), max(adds))

    def test_entry_against_trial_division(self):
        # _entry(b, j) for every b < 2**j with j <= 8 and for random b with j
        # up to 16, from two members 2**j*a + b, a = 0 and a = big.
        rng = random.Random(14)
        big = 2**64 + 12_345
        cases = [(b, j) for j in range(1, 9) for b in range(1 << j)]
        cases += [(rng.randrange(1 << j), j) for j in range(9, 17) for _ in range(100)]
        for b, j in cases:
            small, large = b, (big << j) + b
            muls, adds, odd = [], [], 0
            for i in range(1, j + 1):
                odd += small % 2
                small, large = t1_by_division(small), t1_by_division(large)
                mul, rest = divmod(large - small, big)
                assert rest == 0 and mul == 3**odd * 2 ** (j - i), (b, j, i)
                muls.append(mul)
                adds.append(small)
            want = (3**odd, adds[-1], odd, min(muls), max(muls), min(adds), max(adds))
            assert jump_mod._entry(b, j) == want, (b, j)

    @pytest.mark.parametrize("max_steps", [*range(1, 26), 10_000])
    def test_trap(self, max_steps):
        x = self.TRAP
        assert x % verify_mod._SIEVE_MOD in verify_mod._sieve_table().survivors
        assert stepwise_segment(x, 10_000)[:2] == ("drop", 21)
        kind, s, v, mx = stepwise_segment(x, max_steps)
        rng = random.Random(max_steps)
        for peak in (0, x, mx - 1, mx, 10**15, rng.randrange(x, 1_000 * x), 2**300):
            assert jump_mod._segment_outcome(x, max_steps, peak) == (kind, s, v, max(peak, mx))
        # Earlier survivors of the window raise the peak, so x's blocks jump.
        lo, hi = x - 3_000, x + 100
        assert verify_conjecture_range(lo, hi, max_steps) == per_element_report(lo, hi, max_steps)

    def test_first_survivor_sets_the_peak(self):
        # The window's largest segment peak is its first element's, a
        # survivor that starts with the window's peak at 0: every block it
        # could jump would hide a rise of the peak.
        lo, hi = 8_823_613_244_095, 8_823_613_246_095
        assert lo % verify_mod._SIEVE_MOD in verify_mod._sieve_table().survivors
        want = per_element_report(lo, hi, 10_000)
        assert want.max_excursion_observed == stepwise_segment(lo, 10_000)[3]
        assert want.max_excursion_observed > 1_000 * lo
        assert verify_conjecture_range(lo, hi) == want

    def test_matches_segment_outcome(self):
        # All four fields, the drop value among them, for every kind of peak:
        # 3000 draws in each region.
        rng = random.Random(13)
        for start, end in [(2, 10**6), (10**12, 10**13), (2**64, 2**66)] * 3_000:
            x = rng.randrange(start, end) | 1
            max_steps = rng.choice([rng.randrange(1, 40), 10_000])
            kind, s, v, mx = stepwise_segment(x, max_steps)
            peak = rng.choice([0, x, mx - 1, mx, rng.randrange(x, 1_000 * x), 2**300])
            got = jump_mod._segment_outcome(x, max_steps, peak)
            assert got == (kind, s, v, max(peak, mx)), (x, max_steps, peak)

    @pytest.mark.parametrize("peak", [0, 1, 2, 10**6])
    def test_trivial_cycle_found_at_its_step(self, peak):
        # 1 -> 1 is the one cycle the kernel can meet without a fake: every
        # block from 1 holds 1 again, so the block must not be jumped.
        assert stepwise_segment(1, 10_000) == ("cycle", 1, 1, 1)
        assert jump_mod._segment_outcome(1, 10_000, peak) == ("cycle", 1, 1, max(peak, 1))
