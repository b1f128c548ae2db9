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

from collections import Counter
from itertools import accumulate
from typing import NamedTuple

from .core import (_iterate, _require_at_least, _require_fits, _require_u0, _step, _u0_count,
                   iterate, u0_range)
from .errors import DomainError, ResourceLimitError
from .quotient import ClassWindow, _walk, delta_sequence

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
    bucketed; it always lands in {1, 2, 3, 4} (see sufficient_set_check),
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
    come from one windowed scan with the given bound.  The row holds its
    base's orbit T^0 .. T^n_max, and each candidate is stepped once against
    it, recording the first level at which the two meet.  Each row's base is
    one step on from the row above's, as iterate(x, k + 1) == T(iterate(x, k))
    for every k.  A rectangle whose cells cannot fit in physical memory
    raises ResourceLimitError before the first row.
    """
    _require_u0(x)
    if not (k_min <= 0 <= k_max):
        raise DomainError(f"window must straddle k=0, got [{k_min}, {k_max}]")
    _require_at_least(n_max, 0, "n_max")
    _require_at_least(bound, 1, "bound")
    base_k = iterate(x, k_min)
    # Per cell: 512 bytes for its record, keys and list, and 16 per window
    # element it may hold (a list slot with room to grow, and a share of the int).
    n_cells = (k_max - k_min + 1) * (n_max + 1)
    _require_fits(n_cells * (512 + 16 * _u0_count(1, bound)),
                  f"a matrix of {n_cells} cells over [1, {bound}]")
    cells: dict[tuple[int, int], ClassWindow] = {}
    minima: dict[tuple[int, int], int] = {}
    row_stab: dict[int, int] = {}
    for k in range(k_min, k_max + 1):
        row = delta_sequence(base_k, n_max).values
        # Orbits that meet stay together, so the level-n cell is the z that
        # meet the base's orbit by level n: one scan fills the whole row.
        ys = list(accumulate(range(n_max), lambda v, _: _step(v), initial=base_k))
        met = []
        for z in u0_range(1, bound):
            v = z
            for i, y in enumerate(ys):
                if v == y:
                    met.append((z, i))
                    break
                v = _step(v)
        for n in range(n_max + 1):
            cells[(k, n)] = ClassWindow(base=base_k, level=n, bound=bound,
                                        members=[z for z, i in met if i <= n])
            minima[(k, n)] = row[n]
        s = n_max
        while s > 0 and row[s - 1] == row[n_max]:
            s -= 1
        row_stab[k] = s
        base_k = _step(base_k)
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

    This is the union of the limit-level class windows (class_inf, same cap)
    of the iterates f^k x for |k| <= K = k_range.  With b = f^-K x, z is in
    it exactly when T^cap z is one of T^(cap+i) b for 0 <= i <= 2K, so one
    walk of b's orbit, keeping the values up to the window's largest
    T^cap z, builds the set every candidate is tested against.  The union is
    exact when each of its windows is, that is when every candidate's
    T^cap z equals all 2K + 1 of those values.  As 1 is the only fixed point
    of T, that needs K == 0 or T^cap b == 1, and every candidate a member.
    The union over all k would be T-invariant; the finite k_range makes this
    a window approximation, so the test suite checks invariance as two
    inclusions on decided members only.
    """
    _require_u0(x)
    _require_at_least(k_range, 0, "k_range")
    _require_at_least(bound, 1, "bound")
    _require_at_least(cap, 1, "cap")
    v = root = _iterate(iterate(x, -k_range), cap)
    top = max(_iterate(z, cap) for z in u0_range(1, bound))
    images: set[int] = set()
    for _ in range(2 * k_range + 1):
        if v <= top:
            images.add(v)
        v = _step(v)
    members = [z for z in u0_range(1, bound) if _iterate(z, cap) in images]
    exact = (k_range == 0 or root == 1) and len(members) == _u0_count(1, bound)
    return ClassWindow(base=x, level=None, bound=bound, members=members, exact_within_bound=exact)


def sufficient_set_check(bound: int) -> SufficientSetReport:
    """Check that the minimal preimage of every window element lies in the
    sufficient set {z : 1 <= nu2(3z+1) <= 4}.

    This is the reduction step: if every element of the sufficient set
    reaches 1, so does everything, because walking any trajectory backward
    by minimal preimages immediately lands in the set.

    Proof, for x in the restricted domain: 3*xi(x) + 1 is 4x if x = 1 and
    2x if x = 2 (mod 3).  If 3 does not divide xi, tau = xi and nu2 is 2
    or 1.  Else tau = 4*xi + 1, 3*tau + 1 is 16x or 8x and nu2 is 4 or 3;
    3 | xi exactly when x = 7 or 5 (mod 9) in the two cases.  So x mod 18
    gives nu2 (11, 17: 1; 1, 13: 2; 5: 3; 7: 4), the histogram counts
    residues and there are no violations.  L-SUFF still checks each element.
    """
    _require_at_least(bound, 1, "bound")
    q, r = divmod(bound, 18)
    residues = {"1": (11, 17), "2": (1, 13), "3": (5,), "4": (7,), "other": ()}
    hist = {e: sum(q + (r >= c) for c in cs) for e, cs in residues.items()}
    return SufficientSetReport(bound=bound, violations=[], tau_nu2_histogram=hist)


def sufficient_set_members(bound: int) -> list[int]:
    """Restricted-domain elements of [1, bound] with nu2(3x+1) in {1,2,3,4}."""
    _require_at_least(bound, 1, "bound")
    # A window element costs `suffset --members` about 110 bytes at its peak,
    # its member entry in the envelope included (measured RSS, bound 1e6).
    _require_fits(128 * _u0_count(1, bound), f"a sufficient-set member list of [1, {bound}]")
    # 3x + 1 is even, and 32 divides it exactly when x = 21 (mod 32).
    return [x for x in u0_range(1, bound) if x % 32 != 21]


def census_class_of_one(n_max: int, bound: int) -> list[tuple[int, int]]:
    """Sizes of the class of 1 at levels 0..n_max within [1, bound].

    A window element belongs to the level-n class of 1 exactly when its
    trajectory hits 1 within n steps, so first-hit counts per level yield
    every level's count; counts are nondecreasing in n by nesting.  The
    first-hit counts are read off the preimage tree of 1, whose level d
    holds exactly the elements first hitting 1 at step d.  Past the walk's
    budget they are the histogram of the window's exact steps to 1, from one
    prefix._sweep_prefix (which charges its memory) with segments cut at
    n_max + 1 steps, which leaves a total undefined only above n_max.
    """
    _require_at_least(n_max, 0, "n_max")
    _require_at_least(bound, 1, "bound")
    # A level costs `census` about 435 bytes at its peak, most of it the
    # envelope's {"level", "count"} entry (measured RSS, levels 5e4 to 2e5).
    _require_fits(512 * (n_max + 1), f"a census of levels 0..{n_max}")
    try:
        first_hit = [len(level) for level in _walk(1, n_max, bound)]
    except ResourceLimitError:
        from .prefix import _sweep_prefix

        steps = Counter(_sweep_prefix(bound, n_max + 1)[2])
        first_hit = [steps[t] for t in range(n_max + 1)]
    return list(enumerate(accumulate(first_hit)))
