"""Verification engine: lemma suite wiring, range sweep semantics."""

import functools
import json
import random
import tracemalloc

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
from collatzq import verify as verify_mod


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
        real_tau = verify_mod.core.tau

        def lying_tau(y):
            return 11 if y == 7 else real_tau(y)

        monkeypatch.setattr(verify_mod.core, "tau", lying_tau)
        results = {r.check_id: r for r in run_lemma_suite(100, n_cap=5, sample_seed=1)}
        tau_check = results["L-TAU"]
        assert tau_check.failures
        bad = [f for f in tau_check.failures if f.get("y") == 7]
        assert bad and bad[0]["tau"] == 11

    def test_step_compatibility_rules_name_their_direction(self, monkeypatch):
        # A merge that leaves some decided pairs undecided breaks both
        # directions of L-INF and L-TSWD, each under its own reason.
        real_merge = verify_mod.quotient.merge

        def forgetful_merge(x, z, cap):
            res = real_merge(x, z, cap)
            if (7 * x + 3 * z + cap) % 5 == 0:
                return res._replace(merge_time=None)
            return res

        monkeypatch.setattr(verify_mod.quotient, "merge", forgetful_merge)
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
    pytest.param("L-SURJ", verify_mod, "_preimage_table", _table_lie,
                 {"y", "searched_up_to"}, {"y": 5}, id="L-SURJ"),
    pytest.param("L-FIX", core, "collatz_step", lambda real, x: 5 if x == 5 else real(x),
                 {"x"}, {"x": 5}, id="L-FIX"),
    pytest.param("L-A2", verify_mod.quotient, "strict_inclusion_witness",
                 lambda real, x, n, search_cap: x,
                 {"x", "n", "witness", "same_at_next_level", "differs_at_level"},
                 {"same_at_next_level": True, "differs_at_level": False}, id="L-A2"),
    pytest.param("L-A6", verify_mod.quotient, "class_n", _class_lie,
                 {"x", "n", "z", "in_level_n_plus_1", "image_in_level_n"},
                 {"z": 5, "in_level_n_plus_1": True, "image_in_level_n": False}, id="L-A6"),
    pytest.param("L-CI", verify_mod.quotient, "class_n", _class_lie,
                 {"x", "n", "image", "reason"}, {"image": 1, "reason": "image left the class"},
                 id="L-CI-image"),
    pytest.param("L-CI", verify_mod.quotient, "class_n", _class_lie,
                 {"x", "n", "member", "reason"}, {"member": 5, "reason": "member not covered"},
                 id="L-CI-member"),
    pytest.param("L-D1", verify_mod.quotient, "delta_n", lambda real, x, n: real(x, n) + 2,
                 {"x", "delta_1", "brute_level1_min"}, {}, id="L-D1"),
    pytest.param("L-SUFF", core, "nu2", lambda real, y: 9 if y == _TAU_5_IMAGE else real(y),
                 {"x", "tau", "nu2"}, {"x": 5, "nu2": 9}, id="L-SUFF"),
]


class TestLemmaFailureBranches:
    @pytest.mark.parametrize("check_id, module, name, lie, keys, values", _LEMMA_FAULTS)
    def test_fault_reaches_the_failure_payload(self, monkeypatch, check_id, module, name,
                                               lie, keys, values):
        monkeypatch.setattr(module, name, functools.partial(lie, getattr(module, name)))
        check = dict(verify_mod._CHECKS)[check_id]
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

    def test_worker_counts_agree(self):
        a = verify_conjecture_range(1, 100_000, workers=1)
        b = verify_conjecture_range(1, 100_000, workers=2)
        assert a == b

    def test_worker_counts_agree_with_findings(self):
        a = verify_conjecture_range(1, 5_000, max_steps=12, workers=1)
        b = verify_conjecture_range(1, 5_000, max_steps=12, workers=3)
        assert a == b
        assert not a.all_reach_one

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
        real = verify_mod._segment_outcome

        def fake(x, max_steps):
            if x == 25:
                return ("cycle", 4, 25, 99)
            return real(x, max_steps)

        monkeypatch.setattr(verify_mod, "_segment_outcome", fake)
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
        real = verify_mod._segment_outcome

        def one_step_too_many(x, max_steps):
            kind, s, v, mx = real(x, max_steps)
            return (kind, s + (x == 31), v, mx)

        monkeypatch.setattr(verify_mod, "_segment_outcome", one_step_too_many)
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
        def no_iteration(x, max_steps):
            raise AssertionError(f"iterated {x} before refusing the sweep")

        monkeypatch.setattr(verify_mod, "_segment_outcome", no_iteration)
        cache = OrbitCache(tmp_path / "c.jsonl") if cached else None
        with pytest.raises(ResourceLimitError, match="physical memory"):
            verify_conjecture_range(1, 10**15, workers=2, cache=cache)
        if cached:
            assert (cache.hits, cache.misses) == (0, 0)

    def test_cap_counts_the_arrays_a_sweep_holds(self, monkeypatch):
        hi = 3_000
        segs, drops, _ = verify_mod._sweep_chunk((1, hi, 10_000))
        arrays = 8 * (hi // 3 + 1) + len(segs) * segs.itemsize + len(drops) * drops.itemsize
        need = verify_mod._prefix_bytes(hi)
        assert arrays < need
        monkeypatch.setattr(verify_mod, "_physical_memory", lambda: need)
        assert verify_conjecture_range(1, hi).all_reach_one
        monkeypatch.setattr(verify_mod, "_physical_memory", lambda: need - 1)
        with pytest.raises(ResourceLimitError):
            verify_conjecture_range(1, hi)
        # Above 1 the sweep keeps no per-element arrays.
        assert verify_conjecture_range(2, hi).all_reach_one

    def test_cached_estimate_covers_measured_peak(self, tmp_path):
        # One estimate serves a sweep with or without a cache: it must cover
        # a cached sweep's measured peak without being vacuous.
        hi = 30_000
        cache = OrbitCache(tmp_path / "c.jsonl")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            verify_conjecture_range(1, hi, cache=cache)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        need = verify_mod._prefix_bytes(hi)
        assert peak <= need <= 2 * peak

    def test_cached_sweep_refused_at_its_own_cost(self, tmp_path, monkeypatch):
        hi = 3_000
        need = verify_mod._prefix_bytes(hi)
        monkeypatch.setattr(verify_mod, "_physical_memory", lambda: need - 1)
        cache = OrbitCache(tmp_path / "c.jsonl")
        with pytest.raises(ResourceLimitError, match="physical memory"):
            verify_conjecture_range(1, hi, cache=cache)
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
        monkeypatch.setattr(verify_mod, "_physical_memory", lambda: need)
        assert verify_conjecture_range(1, hi, cache=cache).all_reach_one


class TestWorkerClamp:
    """A pool never starts more processes than there are chunks or cores."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        return sizes

    @pytest.mark.parametrize("lo, hi", [(1, 40_000), (10**12, 10**12 + 100_000)])
    @pytest.mark.parametrize("cores, workers, started", [
        (2, 5_000, 2),     # clamped to the cores
        (64, 5_000, None),  # clamped to the chunks
        (None, 8, 1),      # cpu_count() unknown: one process, so no pool
        (4, 3, 3),         # asked for fewer than both
    ])
    def test_processes_started(self, pool_sizes, monkeypatch, lo, hi, cores, workers, started):
        chunks = len(verify_mod._chunk_spans(lo, hi, workers))
        assert chunks > 1
        monkeypatch.setattr(verify_mod.os, "cpu_count", lambda: cores)
        report = verify_conjecture_range(lo, hi, workers=workers)
        assert report == verify_conjecture_range(lo, hi, workers=1)
        procs = chunks if started is None else started
        assert pool_sizes == ([procs] if procs > 1 else [])  # one pool, none for one process


def per_element_report(lo, hi, max_steps):
    """The report of [lo, hi], lo > 1, aggregated from _segment_outcome on every element."""
    steps = exc = count = 0
    cycles, truncated = [], []
    for x in u0_range(lo, hi):
        kind, s, _, mx = verify_mod._segment_outcome(x, max_steps)
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
            for workers in (1, 2):
                assert verify_conjecture_range(lo, hi, max_steps, workers) == want

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
        real = verify_mod._survivor_outcome

        def fake(z, max_steps, peak):
            if z == x:
                return ("cycle", 4, max(peak, 99))
            return real(z, max_steps, peak)

        monkeypatch.setattr(verify_mod, "_survivor_outcome", fake)
        report = verify_conjecture_range(lo, lo + 1_000, workers=1)
        assert report.cycles_found == [x]
        assert not report.all_reach_one


def t1_by_division(n):
    """(3n+1)/2 for odd n, n/2 for even n, deciding parity by trial division."""
    return (3 * n + 1) // 2 if n % 2 == 1 else n // 2


class TestJumpKernel:
    """The k = 8 jump table and the survivor kernel against _segment_outcome."""

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
        assert verify_mod._segment_outcome(x, 10_000)[:2] == ("drop", 21)
        kind, s, _, mx = verify_mod._segment_outcome(x, max_steps)
        for peak in (0, x, 10**15, 2**200):
            assert jump_mod._survivor_outcome(x, max_steps, peak) == (kind, s, max(peak, mx))
        # Earlier survivors of the window raise the peak, so x's blocks jump.
        lo, hi = x - 3_000, x + 100
        assert verify_conjecture_range(lo, hi, max_steps) == per_element_report(lo, hi, max_steps)

    def test_first_survivor_sets_the_peak(self):
        # The window's largest segment peak is its first element's, a
        # survivor that starts with the chunk's peak at 0: every block it
        # could jump would hide a rise of the peak.
        lo, hi = 8_823_613_244_095, 8_823_613_246_095
        assert lo % verify_mod._SIEVE_MOD in verify_mod._sieve_table().survivors
        want = per_element_report(lo, hi, 10_000)
        assert want.max_excursion_observed == verify_mod._segment_outcome(lo, 10_000)[3]
        assert want.max_excursion_observed > 1_000 * lo
        assert verify_conjecture_range(lo, hi) == want

    def test_matches_segment_outcome(self):
        rng = random.Random(13)
        for _ in range(3_000):
            x = rng.choice([rng.randrange(2, 10**6), rng.randrange(10**12, 10**13),
                            rng.randrange(2**64, 2**66)]) | 1
            max_steps = rng.choice([rng.randrange(1, 40), 10_000])
            kind, s, _, mx = verify_mod._segment_outcome(x, max_steps)
            peak = rng.choice([0, x, mx - 1, mx, rng.randrange(x, 1_000 * x), 2**300])
            got = jump_mod._survivor_outcome(x, max_steps, peak)
            assert got == (kind, s, max(peak, mx)), (x, max_steps, peak)

    @pytest.mark.parametrize("peak", [0, 1, 2, 10**6])
    def test_trivial_cycle_found_at_its_step(self, peak):
        # 1 -> 1 is the one cycle the kernel can meet without a fake: every
        # block from 1 holds 1 again, so the block must not be jumped.
        assert jump_mod._survivor_outcome(1, 10_000, peak) == ("cycle", 1, max(peak, 1))
