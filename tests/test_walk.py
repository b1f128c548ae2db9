"""The preimage-tree walker against the forward scans it replaces, and its budget."""

import random
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzq import (
    ResourceLimitError,
    census_class_of_one,
    class_n,
    u0_range,
)
from collatzq import quotient as quotient_mod

small_u0 = st.tuples(st.integers(min_value=0, max_value=350), st.sampled_from([1, 5])).map(
    lambda t: 6 * t[0] + t[1]
)
levels = st.integers(min_value=0, max_value=12)
bounds = st.integers(min_value=1, max_value=5_000)


def raw_iter(v, n):
    for _ in range(n):
        t = 3 * v + 1
        while t % 2 == 0:
            t //= 2
        v = t
    return v


def walk_or_none(fn, *args):
    """fn(*args) on the walker alone, or None when the walk passed its budget."""
    try:
        return fn(*args)
    except ResourceLimitError:
        return None


def walk_census(n_max, bound):
    return [len(level) for level in quotient_mod._walk(1, n_max, bound)]


class TestWalkMatchesScan:
    @given(small_u0, levels, bounds)
    @example(1, 0, 1)
    @example(1, 0, 5_000)
    @example(1, 9, 1)
    @example(2_051, 4, 100)  # bound < x
    @example(7, 0, 3)  # the base lies outside the window
    # 31 + 1 = 2^5, so 31 -> 47 -> 71 -> 107 -> 161 halves once per step and
    # each node z with r levels to go meets z + 1 = (3/2)^r * (bound + 1):
    # the member 31 survives only if the prune test keeps that equality.
    @example(31, 4, 31)
    @settings(max_examples=80, deadline=None)
    def test_class_bfs(self, x, n, bound):
        assert (class_n(x, n, bound, method="bfs").members
                == class_n(x, n, bound, method="scan").members)

    @given(levels, bounds)
    @example(0, 1)
    @example(0, 5_000)
    @example(12, 1)
    @settings(max_examples=60, deadline=None)
    def test_census(self, per_element_census, n_max, bound):
        first_hit = per_element_census(n_max, bound)
        assert census_class_of_one(n_max, bound) == list(enumerate(accumulate(first_hit)))
        assert walk_or_none(walk_census, n_max, bound) in (None, first_hit)


class TestBudget:
    def test_benchmark_sizes_stay_within_budget(self):
        # The census and class-bfs ops of the structure benchmark, at their
        # largest level, finish on the walk itself.
        assert len(walk_census(20, 200_000)) == 21
        assert len(quotient_mod._walk_class(1, 22, 10**6, quotient_mod._BFS_FLOOR)) == 50_266

    def test_class_bfs_over_budget_raises(self):
        # 7 reaches 1 in 5 steps, so this is the class of 1 at level 60: the
        # shallow levels are pruned only above (3/2)^59 * 101.
        with pytest.raises(ResourceLimitError, match="method 'scan'"):
            class_n(7, 60, 100, method="bfs")
        assert class_n(7, 60, 100).members == list(u0_range(1, 100))

    def test_census_over_budget_returns_the_scan_answer(self):
        n_max, bound = 60, 100
        with pytest.raises(ResourceLimitError):
            walk_census(n_max, bound)
        want = [(n, sum(1 for z in u0_range(1, bound) if raw_iter(z, n) == 1))
                for n in range(n_max + 1)]
        assert census_class_of_one(n_max, bound) == want

    def test_deep_census_stops_walking_at_its_budget(self, per_element_census):
        # At level 30_000 one shift chain from 1 holds about 8_700 nodes of
        # up to 17_500 bits.  The walk must raise before it builds that
        # chain, so the census holds little beyond its own answer.
        tracemalloc.start()
        try:
            got = census_class_of_one(30_000, 100)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 1 << 20
        first_hit = per_element_census(30_000, 100)
        assert got == list(enumerate(accumulate(first_hit)))

    def test_deep_class_bfs_over_budget_raises(self):
        # The shallow levels' pruning bound has about 17_500 bits, so a
        # level's room is charged in 64-bit words of it, not in nodes.
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="method 'scan'"):
                class_n(7, 30_000, 100, method="bfs")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_deepest_class_bfs_raises_before_building_the_bound(self):
        # 3**(10**7 - 1) alone takes seconds and 2 MB; no node of its
        # 91_401 words fits the 65_570 words of a level, so it is not built.
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="hold 0 nodes"):
                class_n(7, 10**7, 100, method="bfs")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


# Bounds around the sweep's head (4096), its first block edge (4608) and 2**15,
# 2**16; levels from the walk's answers to well past its budget.
GRID_BOUNDS = [1, 2, 100, 4_095, 4_096, 4_097, 4_607, 4_608, 4_609, 2**15 - 1, 2**15 + 1,
               2**16 + 1]
GRID_LEVELS = [0, 1, 25, 60, 150]


class TestCensusFallback:
    def test_census_matches_per_element_census_on_a_grid(self, per_element_census):
        # Past the walk's budget the census counts the totals of one sweep of
        # the window; enough pairs land there that the grid tests both routes.
        over_budget = 0
        for bound in GRID_BOUNDS:
            for n_max in GRID_LEVELS:
                first_hit = per_element_census(n_max, bound)
                assert census_class_of_one(n_max, bound) == list(
                    enumerate(accumulate(first_hit))), (n_max, bound)
                over_budget += walk_or_none(walk_census, n_max, bound) is None
        assert over_budget >= 30


class TestPruningBound:
    def test_convergent_is_below_log2_3(self):
        p, q = quotient_mod._LOG2_3_BELOW
        assert 2**p < 3**q

    def test_room_and_comparisons_match_the_built_power(self):
        # Over a grid of (r, bound, cap, level), the room from the bit-length
        # bound equals the room from the built power, and a stand-in compares
        # with every child as the power does.
        rng = random.Random(7)
        rs = [0, 1, 2, 3, 40, 63, 64, 65, 110, 111, 1_000, 29_999] + rng.sample(range(30_000), 20)
        for r in rs:
            for bound in (1, 2, 100, 10**6, 2**64 + 3):
                top = 3**r * (bound + 1) >> r
                words = top.bit_length() // 64 + 1
                for cap in {0, 1, words - 1, words, words + 1, 65_570}:
                    for longest in (1, 5, 10**6, max(top // 8, 1), top, 4 * top + 3):
                        level = [1, longest]
                        got_top, got_words = quotient_mod._pruning_bound(r, bound, cap, level)
                        assert cap // got_words == cap // words, (r, bound, cap)
                        if got_top != top:
                            assert got_words > cap
                            children = [5, (4 * longest - 1) // 3, (2 * longest - 1) // 3]
                            assert all((z <= got_top) == (z <= top) for z in children)
