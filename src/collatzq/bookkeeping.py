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

from .core import (_require_at_least, _require_fits, _require_u0, _step, _trajectory, _u0_count,
                   iterate, nu2, u0_range)
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
    come from one windowed scan with the given bound.  Each row's base is
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
        met = list(_meets(_trajectory(base_k, n_max), n_max, bound))
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

    Computed as the union of the limit-level class windows of the iterates
    f^k x for |k| <= k_range.  The union over all k would be T-invariant;
    the finite k_range makes this a window approximation, so the test suite
    checks invariance as two inclusions on decided members only.
    """
    _require_u0(x)
    _require_at_least(k_range, 0, "k_range")
    # The window of iterate(x, -k_range) holds its trajectory, which passes
    # through all 2K + 1 iterates when cap allows.  A tau step adds under 3
    # bits, so each is below the width iterate charges for the walk back,
    # which is refused first.
    width = (x.bit_length() + 3 * k_range) // 8
    _require_fits(width, f"a backward iteration of {k_range} steps")
    _require_fits((min(cap, 2 * k_range) + 1) * (width + 32),
                  f"a connected class over {2 * k_range + 1} iterates")
    members: set[int] = set()
    exact = True
    base = iterate(x, -k_range)
    for _ in range(2 * k_range + 1):
        w = class_inf(base, bound, cap)
        members.update(w.members)
        exact = exact and w.exact_within_bound
        base = _step(base)
    return ClassWindow(base=x, level=None, bound=bound,
                       members=sorted(members), exact_within_bound=exact)


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
    return [x for x in u0_range(1, bound) if 1 <= nu2(3 * x + 1) <= 4]


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
