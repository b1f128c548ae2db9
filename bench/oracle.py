"""Reference computations that judge the outputs of collatzq.

Nothing here imports collatzq: every expected value is derived from the
definition of the accelerated step with plain loops, so a defect in the
library cannot hide on both sides of a comparison.  These run outside the
timed region of the benchmark.
"""

from __future__ import annotations

from bisect import bisect_right


def step(v: int) -> int:
    """One accelerated step on odd v: 3v+1 with every factor of 2 divided out."""
    t = 3 * v + 1
    while t % 2 == 0:
        t //= 2
    return t


def iterate(v: int, n: int) -> int:
    for _ in range(n):
        v = step(v)
    return v


def u0_count(lo: int, hi: int) -> int:
    """How many integers in [lo, hi] are congruent to 1 or 5 mod 6."""

    def upto(n: int) -> int:
        if n < 1:
            return 0
        q, r = divmod(n, 6)
        return 2 * q + (r >= 1) + (r >= 5)

    return upto(hi) - upto(lo - 1)


def u0(lo: int, hi: int) -> list[int]:
    """The integers in [lo, hi] congruent to 1 or 5 mod 6, ascending."""
    return [z for z in range(lo, hi + 1) if z % 6 in (1, 5)]


class PrefixStats:
    """Exact steps-to-one and trajectory peak for every element of [1, hi].

    Each element is iterated until it drops below itself, then its totals
    are completed from the already-known smaller element it dropped to.
    Stored as running maxima so that any prefix [1, n] with n <= hi can be
    queried.
    """

    def __init__(self, hi: int):
        self.hi = hi
        steps = [0] * (hi // 3 + 1)
        peaks = [0] * (hi // 3 + 1)
        self._xs: list[int] = []
        self._best: list[tuple[int, int]] = []
        best_steps = best_peak = 0
        for x in u0(1, hi):
            v, s, peak = x, 0, x
            while v >= x and v != 1:
                v = step(v)
                s += 1
                if v == x:
                    raise ArithmeticError(f"cycle through {x}")
                peak = max(peak, v)
            if v < x:
                s += steps[v // 3]
                peak = max(peak, peaks[v // 3])
            steps[x // 3], peaks[x // 3] = s, peak
            if s > best_steps or peak > best_peak:
                best_steps, best_peak = max(best_steps, s), max(best_peak, peak)
                self._xs.append(x)
                self._best.append((best_steps, best_peak))

    def maxima(self, n: int) -> tuple[int, int]:
        """(max steps to one, max trajectory peak) over the elements of [1, n]."""
        if not 1 <= n <= self.hi:
            raise ValueError(f"prefix {n} outside [1, {self.hi}]")
        return self._best[bisect_right(self._xs, n) - 1]


def class_members(x: int, n: int, bound: int) -> list[int]:
    """Elements z of [1, bound] (1 or 5 mod 6) whose n-th image equals that of x."""
    target = iterate(x, n)
    return [z for z in u0(1, bound) if iterate(z, n) == target]


def census_counts(n_max: int, bound: int) -> list[int]:
    """For n = 0..n_max, how many elements of [1, bound] reach 1 within n steps."""
    first_hit = [0] * (n_max + 1)
    for z in u0(1, bound):
        v = z
        for i in range(n_max + 1):
            if v == 1:
                first_hit[i] += 1
                break
            v = step(v)
    counts, running = [], 0
    for hits in first_hit:
        running += hits
        counts.append(running)
    return counts


def partition_cells(bound: int, n: int) -> list[list[int]]:
    """Elements of [1, bound] grouped by their n-th image, by ascending minimum."""
    groups: dict[int, list[int]] = {}
    for z in u0(1, bound):
        groups.setdefault(iterate(z, n), []).append(z)
    return sorted(groups.values(), key=lambda members: members[0])
