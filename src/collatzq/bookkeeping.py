"""Windowed bookkeeping over the two-sided iteration: class matrices,
minimal-element matrices, row tails, and the sufficient-set check.

The windows here are finite rectangles of an infinite picture: rows are
indexed by a signed iteration offset k (backward rows walk the tau chain),
columns by the equivalence level n.  Row k, column n holds the level-n
class (or its minimal element) of the k-th iterate of the base.

Observed structure -- rows whose minima settle into a constant tail -- is
reported as an observation within the window, never certified beyond it,
except where the floor 1 is reached (from there the value provably stays).
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .core import _require_at_least, _require_u0, _trajectory, iterate, nu2, tau, u0_range
from .errors import DomainError, ResourceLimitError
from .quotient import ClassWindow, _meets, _walk, class_inf, delta_sequence

__all__ = [
    "BookkeepingWindow",
    "SufficientSetReport",
    "census_class_of_one",
    "class_matrices",
    "connected_class",
    "row_tail_analysis",
    "sufficient_set_check",
    "sufficient_set_members",
]


class BookkeepingWindow(NamedTuple):
    """A finite rectangle of the class and minima matrices of one base.

    class_cells[(k, n)] is the level-n class window of the k-th iterate;
    minima[(k, n)] is its exact minimal element (not windowed -- computed by
    scan, so it is correct even when it exceeds the window bound).
    row_stabilization[k] is the first column from which row k is constant
    through the end of the window.  delta_star_window is the minimum over
    the whole rectangle.
    """

    base: int
    k_min: int
    k_max: int
    n_max: int
    bound: int
    class_cells: dict[tuple[int, int], ClassWindow]
    minima: dict[tuple[int, int], int]
    row_stabilization: dict[int, int]
    delta_star_window: int


class SufficientSetReport(NamedTuple):
    """Result of the membership check for minimal preimages.

    For every x in the window, the 2-adic valuation of 3*tau(x)+1 is
    bucketed; the claim under test is that it always lands in {1, 2, 3, 4},
    i.e. the minimal preimage of every element lies in the sufficient set.
    """

    bound: int
    violations: list[int]
    tau_nu2_histogram: dict[str, int]


def class_matrices(
    x: int,
    k_min: int = -3,
    k_max: int = 3,
    n_max: int = 10,
    bound: int = 10_000,
) -> BookkeepingWindow:
    """Build the class and minima rectangle for base x.

    Minima come from the exact level scan (via delta_sequence, which also
    caps each scan at the previous level's minimum); each row's class cells
    come from one windowed scan with the given bound.
    """
    _require_u0(x)
    if not (k_min <= 0 <= k_max):
        raise DomainError(f"window must straddle k=0, got [{k_min}, {k_max}]")
    _require_at_least(n_max, 0, "n_max")
    _require_at_least(bound, 1, "bound")
    cells: dict[tuple[int, int], ClassWindow] = {}
    minima: dict[tuple[int, int], int] = {}
    row_stab: dict[int, int] = {}
    for k in range(k_min, k_max + 1):
        base_k = iterate(x, k)
        row = delta_sequence(base_k, n_max).values
        # Orbits that meet stay together, so the level-n cell is the z that
        # meet the base's orbit by level n: one scan fills the whole row.
        met = list(_meets(_trajectory(base_k, n_max), n_max, bound))
        for n in range(n_max + 1):
            cells[(k, n)] = ClassWindow(base=base_k, level=n, bound=bound,
                                        members=[z for z, i in met if i <= n])
            minima[(k, n)] = row[n]
        s = n_max
        while s > 0 and row[s - 1] == row[n_max]:
            s -= 1
        row_stab[k] = s
    return BookkeepingWindow(
        base=x,
        k_min=k_min,
        k_max=k_max,
        n_max=n_max,
        bound=bound,
        class_cells=cells,
        minima=minima,
        row_stabilization=row_stab,
        delta_star_window=min(minima.values()),
    )


def row_tail_analysis(window: BookkeepingWindow) -> dict[int, tuple[int, int]]:
    """Per row: (first column from which the row is constant, that constant).

    A tail value of 1 is final in the strong sense (the floor is absorbing);
    any other tail is an observation about this window only.
    """
    return {
        k: (window.row_stabilization[k], window.minima[(k, window.n_max)])
        for k in range(window.k_min, window.k_max + 1)
    }


def connected_class(x: int, bound: int, k_range: int, cap: int) -> ClassWindow:
    """Window of the coarsest relation: elements whose forward orbit meets
    the orbit of some two-sided iterate of x.

    Computed as the union of the limit-level class windows of the iterates
    f^k x for |k| <= k_range.  The union over all k would be T-invariant;
    the finite k_range makes this a window approximation, so the test suite
    checks invariance as two inclusions on decided members only.
    """
    _require_u0(x)
    _require_at_least(k_range, 0, "k_range")
    members: set[int] = set()
    exact = True
    for k in range(-k_range, k_range + 1):
        w = class_inf(iterate(x, k), bound, cap)
        members.update(w.members)
        exact = exact and w.exact_within_bound
    return ClassWindow(base=x, level=None, bound=bound,
                       members=sorted(members), exact_within_bound=exact)


def sufficient_set_check(bound: int) -> SufficientSetReport:
    """Check that the minimal preimage of every window element lies in the
    sufficient set {z : 1 <= nu2(3z+1) <= 4}.

    This is the reduction step: if every element of the sufficient set
    reaches 1, so does everything, because walking any trajectory backward
    by minimal preimages immediately lands in the set.
    """
    _require_at_least(bound, 1, "bound")
    hist = {"1": 0, "2": 0, "3": 0, "4": 0, "other": 0}
    violations: list[int] = []
    for x in u0_range(1, bound):
        e = nu2(3 * tau(x) + 1)
        if 1 <= e <= 4:
            hist[str(e)] += 1
        else:
            hist["other"] += 1
            violations.append(x)
    return SufficientSetReport(bound=bound, violations=violations,
                               tau_nu2_histogram=hist)


def sufficient_set_members(bound: int) -> list[int]:
    """Restricted-domain elements of [1, bound] with nu2(3x+1) in {1,2,3,4}."""
    _require_at_least(bound, 1, "bound")
    return [x for x in u0_range(1, bound) if 1 <= nu2(3 * x + 1) <= 4]


def census_class_of_one(n_max: int, bound: int) -> list[tuple[int, int]]:
    """Sizes of the class of 1 at levels 0..n_max within [1, bound].

    A window element belongs to the level-n class of 1 exactly when its
    trajectory hits 1 within n steps, so first-hit counts per level yield
    every level's count; counts are nondecreasing in n by nesting.  The
    first-hit counts are read off the preimage tree of 1, whose level d
    holds exactly the elements first hitting 1 at step d; when that walk
    passes its budget, a forward scan of the window counts them instead.
    """
    _require_at_least(n_max, 0, "n_max")
    _require_at_least(bound, 1, "bound")
    try:
        first_hit = [len(level) for level in _walk(1, n_max, bound)]
    except ResourceLimitError:
        first_hit = _census_scan(n_max, bound)
    return list(enumerate(accumulate(first_hit)))


def _census_scan(n_max: int, bound: int) -> list[int]:
    # First-hit counts per level by iterating every window element forward.
    first_hit = [0] * (n_max + 1)
    for _, i in _meets([1], n_max, bound):
        first_hit[i] += 1
    return first_hit
