"""Windowed summaries: matrices, row tails, census, sufficient set."""

import tracemalloc

import pytest

from collatzq import (
    DomainError,
    SufficientSetReport,
    census_class_of_one,
    class_inf,
    class_matrices,
    class_n,
    connected_class,
    delta_sequence,
    iterate,
    nu2,
    row_tail_analysis,
    sufficient_set_check,
    sufficient_set_members,
    u0_range,
)


def raw_iter(v, n):
    for _ in range(n):
        t = 3 * v + 1
        while t % 2 == 0:
            t //= 2
        v = t
    return v


class TestClassMatrices:
    def test_minima_rows_around_seven(self):
        window = class_matrices(7, k_min=-1, k_max=1, n_max=2, bound=10_000)
        assert [window.minima[(-1, n)] for n in range(3)] == [37, 37, 19]
        assert [window.minima[(0, n)] for n in range(3)] == [7, 7, 7]
        assert [window.minima[(1, n)] for n in range(3)] == [11, 11, 11]
        assert window.delta_star_window == min(window.minima.values())

    def test_cells_match_class_n(self):
        # class_n's scan and the matrix rows share one helper, so each cell is
        # also checked against forward iteration by trial division.
        bound, n_max = 500, 12
        window = class_matrices(7, k_min=-1, k_max=2, n_max=n_max, bound=bound)
        for k in range(-1, 3):
            base = iterate(7, k)
            for n in range(n_max + 1):
                cell = window.class_cells[(k, n)]
                assert (cell.base, cell.level, cell.bound) == (base, n, bound)
                assert cell.members == class_n(base, n, bound).members
                image = raw_iter(base, n)
                want = [z for z in u0_range(1, bound) if raw_iter(z, n) == image]
                assert cell.members == want

    def test_minima_match_delta_sequence(self):
        window = class_matrices(25, k_min=-2, k_max=2, n_max=6, bound=2_000)
        for k in range(-2, 3):
            base = iterate(25, k)
            values = delta_sequence(base, 6).values
            assert [window.minima[(k, n)] for n in range(7)] == values

    def test_requires_base_between_offsets(self):
        with pytest.raises(DomainError):
            class_matrices(7, k_min=1, k_max=3)

    def test_rows_nonincreasing_and_absorb_at_one(self):
        window = class_matrices(25, k_min=-2, k_max=2, n_max=8, bound=2_000)
        for k in range(-2, 3):
            row = [window.minima[(k, n)] for n in range(9)]
            for a, b in zip(row, row[1:]):
                assert a >= b
            if 1 in row:
                assert all(v == 1 for v in row[row.index(1):])

    def test_window_minimum_shrinks_with_the_window(self):
        small = class_matrices(7, k_min=-1, k_max=1, n_max=2, bound=2_000)
        wider = class_matrices(7, k_min=-2, k_max=2, n_max=2, bound=2_000)
        deeper = class_matrices(7, k_min=-1, k_max=1, n_max=7, bound=2_000)
        assert wider.delta_star_window <= small.delta_star_window
        assert deeper.delta_star_window <= small.delta_star_window


class TestRowTails:
    def test_row_that_reaches_one(self):
        window = class_matrices(7, k_min=0, k_max=0, n_max=5, bound=100)
        tails = row_tail_analysis(window)
        assert tails[0] == (5, 1)

    def test_constant_row(self):
        window = class_matrices(1, k_min=0, k_max=0, n_max=4, bound=100)
        assert row_tail_analysis(window)[0] == (0, 1)

    def test_tail_invariant(self):
        # from the reported column to the window end the row is constant
        window = class_matrices(49, k_min=-2, k_max=2, n_max=8, bound=5_000)
        tails = row_tail_analysis(window)
        for k, (start, value) in tails.items():
            row = [window.minima[(k, n)] for n in range(9)]
            assert all(v == value for v in row[start:])
            if start > 0:
                assert row[start - 1] != value


class TestConnectedClass:
    def test_union_of_orbit_classes(self):
        # The definition: the union of the limit windows of the 2K + 1
        # iterates, exact when every one of them is.
        win = connected_class(7, 30, 2, 200)
        assert win.exact_within_bound
        for x in (1, 5, 7, 25, 77033):
            for k_range in (0, 1, 2, 5):
                for cap in (1, 3, 40, 200):
                    for bound in (1, 30, 300):
                        windows = [class_inf(iterate(x, k), bound, cap)
                                   for k in range(-k_range, k_range + 1)]
                        pieces = set().union(*(w.members for w in windows))
                        win = connected_class(x, bound, k_range, cap)
                        assert win.members == sorted(pieces), (x, k_range, cap, bound)
                        assert win.exact_within_bound == all(
                            w.exact_within_bound for w in windows), (x, k_range, cap, bound)

    def test_many_iterates_hold_one_value_at_a_time(self):
        # b = iterate(7, -4000) has about 12000 bits; its orbit is walked
        # once, keeping only the values up to the window's largest image.
        tracemalloc.start()
        try:
            win = connected_class(7, 10, 4000, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # T^1000 b is not yet 1, so the 8001 windows differ and none is exact.
        assert win.members == [1, 5, 7] and not win.exact_within_bound
        assert peak < 65_536

    def test_contains_base_window_class(self):
        base_only = set(class_inf(11, 100, 300).members)
        assert base_only <= set(connected_class(11, 100, 2, 300).members)


class TestSufficientSet:
    def test_members_small_window(self):
        assert sufficient_set_members(30) == list(u0_range(1, 30))

    def test_first_non_members(self):
        members = set(sufficient_set_members(100))
        assert 53 not in members
        assert 85 not in members
        assert nu2(3 * 85 + 1) == 8

    def test_membership_definition(self):
        members = set(sufficient_set_members(1_000))
        for x in u0_range(1, 1_000):
            assert (x in members) == (1 <= nu2(3 * x + 1) <= 4)

    @pytest.mark.parametrize("bounds", [range(1, 301), [10_000, 123_457]])
    def test_residue_rule_is_the_definition(self, bounds):
        # The members come from x mod 32; the definition's nu2 is taken here
        # from the lowest set bit of 3x + 1.
        for bound in bounds:
            want = [x for x in u0_range(1, bound)
                    if 1 <= ((3 * x + 1) & -(3 * x + 1)).bit_length() - 1 <= 4]
            assert sufficient_set_members(bound) == want, bound

    def test_check_zero_violations(self):
        report = sufficient_set_check(5_000)
        assert report.violations == []
        assert report.tau_nu2_histogram["other"] == 0

    def test_histogram_small_window(self):
        report = sufficient_set_check(20)
        assert report.tau_nu2_histogram == {"1": 2, "2": 3, "3": 1, "4": 1, "other": 0}

    def test_histogram_counts_match_definition(self, per_element_suffset):
        bound = 2_000
        report = sufficient_set_check(bound)
        hist, violations = per_element_suffset(1, bound)
        assert report == SufficientSetReport(bound, violations, hist)
        assert sum(hist.values()) == len(list(u0_range(1, bound)))

    def test_every_bound_to_2000_matches_the_scan(self, per_element_suffset):
        # The scan of [1, b] grows one element window at a time.
        hist = {"1": 0, "2": 0, "3": 0, "4": 0, "other": 0}
        violations = []
        for b in range(1, 2_001):
            step_hist, step_violations = per_element_suffset(b, b)
            hist = {e: hist[e] + step_hist[e] for e in hist}
            violations += step_violations
            assert sufficient_set_check(b) == SufficientSetReport(b, violations, hist), b

    @pytest.mark.parametrize("bound", [10**k + d for k in range(6) for d in (-1, 0, 1)
                                       if 10**k + d >= 1])
    def test_powers_of_ten_match_the_scan(self, bound, per_element_suffset):
        hist, violations = per_element_suffset(1, bound)
        assert sufficient_set_check(bound) == SufficientSetReport(bound, violations, hist)

    @pytest.mark.parametrize("lo", [10**12, 2**64], ids=["1e12", "2^64"])
    def test_far_window_difference_matches_the_scan(self, lo, per_element_suffset):
        hi = lo + 3_000
        below, above = sufficient_set_check(lo), sufficient_set_check(hi)
        hist, violations = per_element_suffset(lo + 1, hi)
        assert {e: above.tau_nu2_histogram[e] - below.tau_nu2_histogram[e] for e in hist} == hist
        assert above.violations == below.violations == violations == []


class TestCensus:
    def test_worked_values(self):
        assert census_class_of_one(2, 100) == [(0, 1), (1, 3), (2, 5)]

    def test_matches_direct_class_sizes(self):
        bound = 2_000
        counts = census_class_of_one(6, bound)
        for n, c in counts:
            assert c == len(class_n(1, n, bound).members)

    def test_nondecreasing(self):
        counts = [c for _, c in census_class_of_one(20, 100_000)]
        for a, b in zip(counts, counts[1:]):
            assert a <= b

    def test_counts_elements_reaching_one_within_n(self):
        from collatzq import orbit

        bound = 1_000
        counts = dict(census_class_of_one(8, bound))
        for n in range(9):
            want = sum(
                1 for x in u0_range(1, bound) if orbit(x).steps_to_one <= n
            )
            assert counts[n] == want

    def test_derived_sets(self):
        assert class_n(1, 0, 100).members == [1]
        assert class_n(1, 1, 100).members == [1, 5, 85]
        assert class_n(1, 2, 100).members == [1, 5, 13, 53, 85]
