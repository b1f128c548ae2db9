"""Map algebra: worked values, domain gates, orbit outcomes."""

import pytest

from collatzq import (
    DomainError,
    OrbitRecord,
    collatz_step,
    is_u0,
    iterate,
    nu2,
    orbit,
    preimages,
    shift,
    tau,
    u0_range,
    xi,
)
from collatzq.core import _orbit_impl


def raw_step(v):
    t = 3 * v + 1
    while t % 2 == 0:
        t //= 2
    return t


class TestCollatzStep:
    def test_worked_values(self):
        assert collatz_step(17) == 13
        assert collatz_step(13) == 5
        assert collatz_step(5) == 1
        assert collatz_step(9) == 7
        assert collatz_step(1) == 1

    def test_matches_raw_division(self):
        for x in range(1, 20_001, 2):
            assert collatz_step(x) == raw_step(x)

    def test_image_avoids_multiples_of_three(self):
        for x in range(1, 10_001, 2):
            assert collatz_step(x) % 3 != 0

    @pytest.mark.parametrize("bad", [0, -3, 4, 10])
    def test_rejects_non_odd(self, bad):
        with pytest.raises(DomainError):
            collatz_step(bad)


class TestNu2:
    def test_exact_powers(self):
        assert nu2(1) == 0
        assert nu2(2) == 1
        assert nu2(12) == 2
        assert nu2(160) == 5
        assert nu2(2**80 * 7) == 80

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            nu2(0)
        with pytest.raises(DomainError):
            nu2(-4)

    def test_step_decomposition(self):
        for x in range(1, 5_001, 2):
            t = 3 * x + 1
            assert collatz_step(x) << nu2(t) == t


class TestShift:
    def test_single_shift(self):
        assert shift(1) == 5
        assert shift(5) == 21

    def test_closed_form_s3(self):
        assert shift(1, 3) == 85
        v = 1
        for _ in range(3):
            v = 4 * v + 1
        assert v == 85

    def test_closed_form_matches_iteration(self):
        for x in range(1, 201, 2):
            v = x
            for k in range(8):
                assert shift(x, k) == v
                v = 4 * v + 1

    def test_step_invariance(self):
        for x in range(1, 2_001, 2):
            assert collatz_step(shift(x, 1)) == collatz_step(x)
            assert collatz_step(shift(x, 3)) == collatz_step(x)

    def test_rejects_negative_k(self):
        with pytest.raises(DomainError):
            shift(5, -1)


class TestXiTau:
    def test_worked_values(self):
        assert xi(5) == 3
        assert xi(1) == 1
        assert xi(7) == 9
        assert tau(5) == 13
        assert tau(1) == 1
        assert tau(7) == 37

    def test_xi_is_minimal_preimage(self):
        # brute: smallest odd z with raw_step(z) == y
        for y in u0_range(1, 400):
            z = 1
            while raw_step(z) != y:
                z += 2
            assert xi(y) == z

    def test_tau_is_minimal_restricted_preimage(self):
        for y in u0_range(1, 400):
            z = 1
            while z % 3 == 0 or raw_step(z) != y:
                z += 2
            assert tau(y) == z

    def test_tau_section_property(self):
        for y in u0_range(1, 5_000):
            t = tau(y)
            assert t % 3 != 0
            assert collatz_step(t) == y

    def test_xi_may_leave_restricted_domain(self):
        assert xi(5) % 3 == 0

    def test_reject_multiples_of_three(self):
        with pytest.raises(DomainError):
            xi(9)
        with pytest.raises(DomainError):
            tau(9)


class TestIterate:
    def test_forward(self):
        assert iterate(17, 2) == 5
        assert iterate(17, 3) == 1
        assert iterate(5, 0) == 5

    def test_backward(self):
        assert iterate(5, -1) == 13
        assert iterate(5, -2) == 17
        assert iterate(1, -5) == 1

    def test_round_trip(self):
        for x in u0_range(1, 300):
            for k in range(4):
                assert iterate(iterate(x, -k), k) == x

    def test_forward_requires_restricted_domain(self):
        with pytest.raises(DomainError):
            iterate(9, 1)


class TestPreimages:
    def test_worked_values(self):
        assert preimages(5, 100) == [3, 13, 53]
        assert preimages(5, 100, u0_only=True) == [13, 53]
        assert preimages(1, 100, u0_only=True) == [1, 5, 85]

    def test_exhaustive_against_scan(self):
        bound = 2_000
        for y in u0_range(1, 120):
            brute = [z for z in range(1, bound + 1, 2) if raw_step(z) == y]
            assert preimages(y, bound) == brute
            assert preimages(y, bound, u0_only=True) == [z for z in brute if z % 3 != 0]

    def test_multiple_of_three_rejected(self):
        with pytest.raises(DomainError):
            preimages(9, 100)


class TestU0Range:
    def test_small_window(self):
        assert list(u0_range(1, 30)) == [1, 5, 7, 11, 13, 17, 19, 23, 25, 29]

    def test_agrees_with_filter(self):
        for lo in range(1, 40):
            for hi in range(lo - 1, lo + 40):
                want = [x for x in range(lo, hi + 1) if x % 2 and x % 3]
                assert list(u0_range(lo, hi)) == want

    def test_is_u0(self):
        members = set(u0_range(1, 200))
        for x in range(1, 201):
            assert is_u0(x) == (x in members)
        assert not is_u0(0)
        assert not is_u0(-5)


class TestOrbit:
    def test_worked_trajectory(self):
        rec = orbit(7, keep_prefix=True)
        assert rec == OrbitRecord(
            start=7,
            steps_to_one=5,
            max_excursion=17,
            trajectory_prefix=[7, 11, 17, 13, 5, 1],
            truncated=False,
        )

    def test_trivial_orbit(self):
        rec = orbit(1)
        assert rec.steps_to_one == 0
        assert rec.max_excursion == 1
        assert not rec.truncated
        assert rec.cycle_value is None

    def test_prefix_omitted_by_default(self):
        assert orbit(27).trajectory_prefix is None

    def test_truncation(self):
        rec = orbit(31, max_steps=10)
        assert rec.truncated
        assert rec.steps_to_one is None
        assert rec.cycle_value is None

    def test_steps_match_raw(self):
        for x in range(1, 501, 2):
            v, s, mx = x, 0, x
            while v != 1:
                v = raw_step(v)
                s += 1
                mx = max(mx, v)
            rec = orbit(x)
            assert rec.steps_to_one == s
            assert rec.max_excursion == mx

    def test_rejects_even(self):
        with pytest.raises(DomainError):
            orbit(6)

    def test_synthetic_cycle_detected_both_modes(self):
        # a fake step map with the cycle 11 -> 17 -> 11 entered from 7
        table = {7: 11, 11: 17, 17: 11}
        for keep in (False, True):
            rec = _orbit_impl(table.__getitem__, 7, 1_000, keep)
            assert rec.cycle_value in (11, 17)
            assert rec.steps_to_one is None
            assert not rec.truncated
            if keep:
                prefix = rec.trajectory_prefix
                assert prefix[0] == 7 and prefix[-1] == rec.cycle_value
                assert all(table[a] == b for a, b in zip(prefix, prefix[1:]))

    def test_synthetic_cycle_exact_budget(self):
        table = {7: 11, 11: 17, 17: 11}
        rec = _orbit_impl(table.__getitem__, 7, 4, False)
        assert rec.cycle_value is not None or rec.truncated


class TestFixedPoint:
    def test_exhaustive_small(self):
        hits = [x for x in range(1, 1_000_001, 2) if collatz_step(x) == x]
        assert hits == [1]

    def test_sampled_large(self):
        import random

        rng = random.Random(20260819)
        for _ in range(2_000):
            x = rng.randrange(10**6, 10**8) | 1
            if x != 1:
                assert collatz_step(x) != x
