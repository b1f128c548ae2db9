"""Class machinery: windows, minima, merges, witnesses, partitions."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzq import (
    DomainError,
    ResourceLimitError,
    class_inf,
    class_n,
    collatz_step,
    delta_inf,
    delta_n,
    delta_sequence,
    iterate,
    merge,
    partition_n,
    shift,
    strict_inclusion_witness,
    tstar_apply,
    u0_range,
)
from collatzq import quotient as quotient_mod


def raw_step(v):
    t = 3 * v + 1
    while t % 2 == 0:
        t //= 2
    return t


def raw_iter(v, n):
    for _ in range(n):
        v = raw_step(v)
    return v


def brute_class(x, n, bound):
    tx = raw_iter(x, n)
    return [z for z in u0_range(1, bound) if raw_iter(z, n) == tx]


class TestClassN:
    def test_worked_values(self):
        assert class_n(1, 1, 100).members == [1, 5, 85]
        assert class_n(5, 1, 100).members == [1, 5, 85]
        assert class_n(17, 1, 300).members == [17, 277]
        assert class_n(7, 0, 100).members == [7]

    def test_scan_matches_brute_force(self):
        for x, n, bound in [(7, 3, 500), (25, 2, 400), (1, 2, 300), (11, 5, 1000)]:
            assert class_n(x, n, bound).members == brute_class(x, n, bound)

    def test_bfs_matches_scan_seeded_grid(self):
        rng = random.Random(99)
        for _ in range(60):
            x = rng.choice(list(u0_range(1, 200)))
            n = rng.randint(0, 6)
            bound = rng.randint(50, 3_000)
            scan = class_n(x, n, bound, method="scan")
            bfs = class_n(x, n, bound, method="bfs")
            assert scan.members == bfs.members

    def test_base_always_member_when_in_window(self):
        for x in u0_range(1, 60):
            assert x in class_n(x, 4, 100).members

    def test_shift_stability_inside_class(self):
        # at level >= 1 a class window is closed under the shift, both ways
        for x, n, bound in [(7, 2, 2_000), (5, 1, 2_000), (13, 3, 5_000)]:
            members = set(class_n(x, n, bound).members)
            for z in members:
                s = shift(z, 1)
                if s <= bound and s % 3 != 0:
                    assert s in members
                if z % 4 == 1 and z > 1:
                    down = (z - 1) // 4
                    if down % 2 == 1 and down % 3 != 0:
                        assert down in members

    def test_pullback_identity(self):
        # preimage of the level-n class of the image is the level-(n+1) class
        bound = 800
        for x in [7, 11, 25]:
            for n in range(4):
                up = set(class_n(x, n + 1, bound).members)
                want = {
                    z
                    for z in u0_range(1, bound)
                    if raw_iter(raw_step(z), n) == raw_iter(raw_step(x), n)
                }
                assert up == want

    def test_rejects_bad_method(self):
        with pytest.raises(DomainError):
            class_n(7, 1, 100, method="magic")

    def test_rejects_negative_level(self):
        with pytest.raises(DomainError):
            class_n(7, -1, 100)


class TestDelta:
    def test_worked_values(self):
        assert delta_n(5, 1) == 1
        assert delta_n(7, 4) == 7
        assert delta_n(7, 2) == 7

    def test_delta_one_closed_form(self):
        from collatzq import tau

        for x in u0_range(1, 3_000):
            assert delta_n(x, 1) == tau(collatz_step(x))

    def test_sequence_worked_values(self):
        seq = delta_sequence(7, 5)
        assert seq.values == [7, 7, 7, 7, 7, 1]
        assert seq.stabilization_index == 5
        assert delta_sequence(17, 1).values == [17, 17]
        assert delta_sequence(17, 1).stabilization_index is None
        one = delta_sequence(1, 3)
        assert one.values == [1, 1, 1, 1]
        assert one.stabilization_index == 0

    def test_sequence_nonincreasing_floor_one(self):
        for x in u0_range(1, 200):
            seq = delta_sequence(x, 8)
            for a, b in zip(seq.values, seq.values[1:]):
                assert a >= b >= 1

    def test_sequence_matches_brute_minimum(self):
        for x in [7, 11, 17, 29]:
            for n in range(5):
                tx = raw_iter(x, n)
                z = 1
                while raw_iter(z, n) != tx or z % 3 == 0:
                    z += 2
                assert delta_n(x, n) == z

    def test_level_zero_is_x_without_a_scan(self, monkeypatch):
        # The level-0 class is {x}, so no candidate below x is tested.
        from collatzq import quotient as quotient_mod

        def no_scan(z, n):
            raise AssertionError(f"tested candidate {z} at level 0")

        monkeypatch.setattr(quotient_mod, "_iterate", no_scan)
        assert delta_n(10**12 + 1, 0) == 10**12 + 1
        assert delta_n(1, 0) == 1

    def test_small_minimum_of_a_large_base_is_found_at_once(self, monkeypatch):
        # x = 31 * 4^k + (4^k - 1)/3 has T(x) = T(31) = 47, so from level 1 on
        # its minima are 31's.  Finding them tests at most the 11 candidates
        # up to 31 per level and holds no more than a few values, however
        # wide the preimage tree of T^n(x) within [1, x] is (here a walk of
        # that tree would hold about 180 KB).  Each candidate test computes
        # one image through quotient._iterate, and delta_n computes one more,
        # x's own; delta_sequence steps x's image instead.
        import tracemalloc

        from collatzq import quotient as quotient_mod

        x = 31 * 4**7 + (4**7 - 1) // 3
        want = delta_sequence(31, 20).values[1:]
        image = quotient_mod._iterate
        tested = []

        def counting(z, n):
            tested.append(z)
            return image(z, n)

        monkeypatch.setattr(quotient_mod, "_iterate", counting)
        tracemalloc.start()
        try:
            assert delta_n(x, 20) == want[-1]
            assert tested[0] == x and len(tested) <= 1 + 11
            assert delta_sequence(x, 20).values[1:] == want
            assert len(tested) <= 1 + 11 * 21
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_384

    def test_levels_past_one_hold_no_trajectory(self):
        # 7 reaches 1 in 5 steps, so a level of 10^7 costs what level 5 costs:
        # every image stops at its first 1.
        want_inf = class_inf(7, 30, 100).members
        want_n = class_n(7, 100, 30).members
        for check in (
            lambda: delta_n(7, 10**7) == 1,
            lambda: class_inf(7, 30, 10**7).members == want_inf,
            lambda: class_n(7, 10**7, 30).members == want_n,
        ):
            tracemalloc.start()
            try:
                assert check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 65_536

    def test_a_huge_base_holds_one_image(self):
        # A candidate is tested against T^n x alone, so memory does not grow
        # with the orbit of x; keeping that orbit took 10-38 MB here.  Both
        # bases reach 1 within the level (in 38358 and 19794 steps).
        every = list(u0_range(1, 100))
        for check in (
            lambda: class_n(2**8001 - 1, 40000, 100, "scan").members == every,
            lambda: class_inf(2**8001 - 1, 100, 40000).members == every,
            lambda: delta_n(2**4001 - 1, 20000) == 1,
        ):
            tracemalloc.start()
            try:
                assert check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 65_536

    def test_minimum_generates_the_same_class(self):
        # the minimum is itself a member, and using it as base changes nothing
        for x in [7, 17, 25, 97]:
            for n in range(4):
                d = delta_n(x, n)
                assert d in class_n(x, n, x).members
                assert class_n(d, n, 800).members == class_n(x, n, 800).members


def raw_path(v, n):
    # T^0 v .. T^n v by the raw step.
    path = [v]
    for _ in range(n):
        path.append(raw_step(path[-1]))
    return path


def scan_min(x, n):
    # The oracle of delta_n: the first candidate of [1, x) in x's level-n class, else x.
    tx = raw_iter(x, n)
    return next((z for z in u0_range(1, x - 1) if raw_iter(z, n) == tx), x)


def scan_minima(x, n_max):
    # The oracle of delta_sequence, by one upward scan: a z whose orbit meets
    # x's at level i is in every class from level i on, so the first such z
    # is each level's minimum.  One that meets it at level 1 settles every
    # level but 0, whose minimum is x, so the scan stops there.
    values = [x] * (n_max + 1)
    path = raw_path(x, n_max)
    for z in u0_range(1, x - 1):
        v, i = z, 0
        while i <= n_max and v != path[i]:
            v, i = raw_step(v), i + 1
        if i <= n_max:
            values[i:] = [min(m, z) for m in values[i:]]
            if i == 1:
                break
    return values


U0_TO_1E6 = st.tuples(st.integers(min_value=0, max_value=166_665), st.sampled_from([1, 5])).map(
    lambda t: 6 * t[0] + t[1]
)
# x = 31 * 4^k + (4^k - 1)/3 has T(x) = T(31): its minima are 31's from level 1 on.
SHIFTED_31 = [31 * 4**k + (4**k - 1) // 3 for k in (1, 7, 9)]


class TestRace:
    """delta_n races the walk against the scan; the scan stays the oracle."""

    @given(U0_TO_1E6, st.integers(min_value=0, max_value=40))
    @example(SHIFTED_31[0], 20)
    @example(SHIFTED_31[1], 20)
    @example(SHIFTED_31[2], 20)
    @example(999_995, 0)
    @example(999_997, 1)
    @example(871, 60)  # T^60(871) is not yet 1
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_race_equals_scan(self, x, n):
        assert delta_n(x, n) == scan_min(x, n)
        assert delta_sequence(x, n).values == scan_minima(x, n)

    def test_walk_past_its_cap_is_dropped_and_the_scan_answers(self, monkeypatch):
        # At level 60 the walk from T^60(x) passes _BFS_FLOOR nodes, so its
        # turns stop there, and the scan alone goes on, past 2^18 candidates,
        # to the minimum, x itself.  The walk is what holds memory: a level
        # holds at most _BFS_FLOOR 64-bit words, and a node of w words takes
        # under 28 + 9w bytes plus two 8-byte list slots, so the two live
        # levels take under 2 * 64 bytes per word of the cap.  The scan holds
        # one trajectory; tracing it would make the test take 30 s.
        x = 1_000_427
        walk = quotient_mod._walk
        turns, peaks = [], []

        def traced(*args, limit):
            turns.append(limit)
            tracemalloc.start()
            try:
                yield from walk(*args, limit=limit)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(quotient_mod, "_walk", traced)
        assert delta_n(x, 60) == x
        assert turns == [1 << k for k in range(17)] and turns[-1] == quotient_mod._BFS_FLOOR
        assert max(peaks) < 2 * 64 * quotient_mod._BFS_FLOOR
        monkeypatch.undo()
        assert scan_min(x, 60) == x


class TestMerge:
    def test_worked_values(self):
        assert merge(7, 17, 100).merge_time == 5
        assert merge(5, 1, 10).merge_time == 1
        assert merge(7, 17, 3).merge_time is None
        assert merge(7, 7, 10).merge_time == 0

    def test_symmetry(self):
        rng = random.Random(5)
        pool = list(u0_range(1, 500))
        for _ in range(100):
            x, z = rng.choice(pool), rng.choice(pool)
            assert merge(x, z, 50).merge_time == merge(z, x, 50).merge_time

    def test_merge_finds_the_brute_first_meeting(self):
        # merge steps two orbits and must give the first level where the
        # images agree.
        pool = list(u0_range(1, 200))
        paths = {x: raw_path(x, 60) for x in pool}
        for n in (1, 2, 5, 20, 60):
            for x in pool:
                for z in pool:
                    want = next(
                        (i for i in range(n + 1) if paths[x][i] == paths[z][i]), None
                    )
                    assert merge(x, z, n).merge_time == want

    def test_merge_time_is_first_agreement(self):
        rng = random.Random(6)
        pool = list(u0_range(1, 400))
        for _ in range(60):
            x, z = rng.choice(pool), rng.choice(pool)
            m = merge(x, z, 200).merge_time
            assert m is not None
            assert raw_iter(x, m) == raw_iter(z, m)
            if m > 0:
                assert raw_iter(x, m - 1) != raw_iter(z, m - 1)


class TestLimitLevel:
    def test_everything_small_merges_with_one(self):
        win = class_inf(1, 30, 100)
        assert win.members == [1, 5, 7, 11, 13, 17, 19, 23, 25, 29]
        assert win.exact_within_bound

    def test_tiny_cap_leaves_undecided(self):
        win = class_inf(7, 30, 1)
        assert win.members == [7, 29]
        assert not win.exact_within_bound

    def test_delta_inf_certified(self):
        assert delta_inf(7, 100) == (1, True)
        assert delta_inf(1, 5) == (1, True)
        assert delta_inf(7, 2) == (7, False)

    def test_tstar_collapses_to_one(self):
        for x in u0_range(1, 500):
            assert tstar_apply(x, 1_000) == 1


class TestWitness:
    def test_worked_values(self):
        assert strict_inclusion_witness(7, 1) == 241
        assert strict_inclusion_witness(1, 0) == 5

    def test_postconditions(self):
        rng = random.Random(17)
        pool = list(u0_range(1, 2_000))
        for _ in range(60):
            x = rng.choice(pool)
            n = rng.randint(0, 6)
            z = strict_inclusion_witness(x, n, search_cap=10**40)
            assert z % 2 == 1 and z % 3 != 0
            assert raw_iter(z, n) != raw_iter(x, n)
            assert raw_iter(z, n + 1) == raw_iter(x, n + 1)

    def test_search_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            strict_inclusion_witness(7, 1, search_cap=10)
        # The chain 5, 13, 17, 11 passes the cap only at the intermediate 17.
        with pytest.raises(ResourceLimitError):
            strict_inclusion_witness(1, 3, search_cap=16)

    def test_witness_in_window_class(self):
        x, n = 7, 1
        z = strict_inclusion_witness(x, n)
        up = class_n(x, n + 1, z + 1).members
        same = class_n(x, n, z + 1).members
        assert z in up
        assert z not in same


class TestPartition:
    def test_cells_cover_window_disjointly(self):
        bound = 600
        for n in (0, 1, 3):
            cells = partition_n(bound, n)
            seen = []
            for cell in cells:
                assert cell.members == sorted(cell.members)
                assert cell.base == cell.members[0]
                seen.extend(cell.members)
            assert sorted(seen) == list(u0_range(1, bound))
            assert len(seen) == len(set(seen))

    def test_refines_next_level(self):
        bound = 400
        fine = partition_n(bound, 2)
        coarse_index = {}
        for i, cell in enumerate(partition_n(bound, 3)):
            for z in cell.members:
                coarse_index[z] = i
        for cell in fine:
            assert len({coarse_index[z] for z in cell.members}) == 1

    def test_orbits_stop_stepping_at_one(self, monkeypatch):
        # Every element of [1, 1000] reaches 1 within 65 steps, so level 10^4
        # takes about 7_500 steps in all; stepping 1 -> 1 on to 10^4 would
        # take 3.3 million.
        from collatzq import core

        step = core._step
        steps = 0

        def counting(v):
            nonlocal steps
            steps += 1
            return step(v)

        monkeypatch.setattr(core, "_step", counting)
        cells = partition_n(1000, 10**4)
        assert steps < 10**5
        assert [c.members for c in cells] == [list(u0_range(1, 1000))]

    def test_level_zero_is_discrete(self):
        cells = partition_n(100, 0)
        assert all(len(c.members) == 1 for c in cells)


class TestNesting:
    def test_windows_nest_upward(self):
        bound = 1_000
        for x in [7, 17, 25, 49]:
            prev = set(class_n(x, 0, bound).members)
            for n in range(1, 7):
                cur = set(class_n(x, n, bound).members)
                assert prev <= cur
                prev = cur


class TestIterateConsistency:
    def test_two_sided_walk_respects_classes(self):
        # f applied k then -k forward is the identity on the restricted domain
        for x in u0_range(1, 100):
            y = iterate(x, 3)
            assert raw_iter(x, 3) == y
