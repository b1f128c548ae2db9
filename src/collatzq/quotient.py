"""Equivalence classes of the accelerated Collatz map and their minimal elements.

Two elements of the restricted domain are equivalent at level n when their
n-th forward images agree; they are equivalent "in the limit" when their
images agree at some (equivalently, every later) level.  Classes grow with
the level, the minimal element of a class can only shrink, and the floor is
1.  The conjecture, in this language: everything is equivalent to 1 in the
limit.

Windowed computations below are exact within their stated bound.  The
limit-level relation is only semi-decidable, so window results carry an
``exact_within_bound`` flag: an undecided candidate is *never* reported as
non-equivalent, it just stops the window from being certified complete.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, NamedTuple

from .core import (_iterate, _meet, _require_at_least, _require_u0, _step, _trajectory,
                    _u0_count, tau, u0_range)
from .errors import DomainError, ResourceLimitError

__all__ = [
    "ClassWindow",
    "DeltaSequence",
    "MergeResult",
    "class_inf",
    "class_n",
    "delta_inf",
    "delta_n",
    "delta_sequence",
    "merge",
    "partition_n",
    "strict_inclusion_witness",
    "tstar_apply",
]


class ClassWindow(NamedTuple):
    """Members of one equivalence class intersected with [1, bound].

    level is the equivalence level; None marks the limit-level relation.
    For finite levels the member list is exact and complete within the
    bound.  For the limit level, exact_within_bound records whether every
    candidate in the window was decided within the iteration cap.
    """

    base: int
    level: int | None
    bound: int
    members: list[int]
    exact_within_bound: bool = True


class DeltaSequence(NamedTuple):
    """Minimal class elements of one base at levels 0..N.

    values[n] is the smallest element equivalent to the base at level n.
    The sequence is nonincreasing with floor 1.  stabilization_index is the
    first level whose value is 1 -- from there on the value is provably
    constant forever; a merely repeating value above 1 may still drop later,
    so no index is claimed for it.
    """

    base: int
    values: list[int]
    stabilization_index: int | None = None


class MergeResult(NamedTuple):
    """Outcome of the synchronous equivalence test for a pair.

    merge_time is the first level at which the forward images agree, or
    None when the pair stayed distinct for the whole cap (undecided -- not
    a proof of non-equivalence).
    """

    left: int
    right: int
    merge_time: int | None
    cap: int


def _meets(targets: list[int], n: int, bound: int) -> Iterator[tuple[int, int]]:
    # (z, i) for each z in [1, bound], ascending, whose orbit meets targets (a
    # base's trajectory) by level n, i the first level at which it does.
    for z in u0_range(1, bound):
        i = _meet(z, targets, n)
        if i is not None:
            yield z, i


def _level_min(targets: list[int], n: int, upto: int) -> int:
    # The smallest element meeting targets by level n; upto is one, so the
    # scan ends there at the latest.
    return next((z for z, _ in _meets(targets, n, upto - 1)), upto)


def class_n(x: int, n: int, bound: int, method: str = "scan") -> ClassWindow:
    """The level-n class of x intersected with [1, bound], ascending.

    Two independent routes are provided and must agree:

    * ``scan``: test every restricted-domain candidate in the window by
      forward iteration (the definitional route).
    * ``bfs``: walk the preimage tree of the n-th image of x (see _walk).
      It has no fallback, so a walk that passes its node budget raises
      ResourceLimitError; the scan has no such limit.

    The scan is the reference; the tree walk is the fast route and is
    cross-checked against the scan in the test suite, never trusted alone.
    """
    _require_u0(x)
    _require_at_least(n, 0, "level")
    _require_at_least(bound, 1, "bound")
    if method == "scan":
        members = [z for z, _ in _meets(_trajectory(x, n), n, bound)]
    elif method == "bfs":
        members = sorted(_walk_class(_iterate(x, n), n, bound, _BFS_FLOOR))
    else:
        raise DomainError(f"unknown method {method!r}, expected 'scan' or 'bfs'")
    return ClassWindow(base=x, level=n, bound=bound, members=members)


# Nodes a bfs walk may append beyond the forward scan's cost, so that small
# windows never exhaust it.  The census falls back to the scan instead, so
# it gets no floor.
_BFS_FLOOR = 1 << 16


def _walk(root: int, n: int, bound: int, floor: int = 0) -> Iterator[list[int]]:
    """Yield the restricted-domain nodes in [1, bound] of levels 0..n of the
    preimage tree of root.

    Level d holds the z with T^d(z) == root, except that 1's self-loop is
    skipped: below 1, level d holds the z whose orbit first reaches 1 at
    step d.  Each level is built by expanding the shift chain of every
    node of the level above.  A preimage z of v has z + 1 >= 2(v + 1)/3, so
    a node with r levels to go is pruned when z * 2^r > 3^r * (bound + 1):
    none of its descendants could fall in the window.  Unpruned nodes above
    the bound, and multiples of 3, are expanded but not yielded.

    The budget follows the forward scan's cost, the window's candidates
    times n levels, plus floor.  The walk appends at most that many nodes,
    and a level's nodes, each charged the 64-bit words of its pruning bound,
    come to at most the window's candidates plus floor, so memory stays near
    that of a class list.  A level stops one node past either limit, before
    a deep shift chain is built, and the walk raises ResourceLimitError.
    """
    window = bound // 3 + 1
    budget, widest = window * n + floor, window + floor
    left = budget
    level = [root]
    yield [z for z in level if z <= bound and z % 3]
    for depth in range(n):
        r = n - depth - 1  # backward levels remaining below the children
        cap = min(left, widest)
        top, words = _pruning_bound(r, bound, cap, level)
        room = cap // words
        nxt: list[int] = []
        for v in level:
            if v % 3 == 0:
                continue  # multiples of 3 have no preimage
            z = (4 * v - 1) // 3 if v % 3 == 1 else (2 * v - 1) // 3
            if z == v:
                z = 5  # 1 is its own smallest preimage
            while z <= top and len(nxt) <= room:
                nxt.append(z)
                z = 4 * z + 1
            if len(nxt) > room:
                raise ResourceLimitError(
                    f"preimage-tree walk of level {n} within [1, {bound}] passed its "
                    f"budget at depth {depth + 1}: a node there is charged "
                    f"{'' if room else 'at least '}{words} 64-bit words, so the level's "
                    f"{cap} words hold {room} nodes; method 'scan' computes the same class"
                )
        left -= len(nxt)
        level = nxt
        yield [z for z in level if z <= bound and z % 3]


# A convergent of the continued fraction of log2(3) below it:
# 2**176251 < 3**111202.
_LOG2_3_BELOW = (176251, 111202)


def _pruning_bound(r: int, bound: int, cap: int, level: list[int]) -> tuple[int, int]:
    # (top, words) for the children of level, with r levels to go below them
    # and cap words of room: top is 3**r * (bound + 1) >> r, and each child is
    # charged words, the 64-bit words of top.  The power is built only when a
    # node could fit the room or a child could be about as long as the power.
    # Otherwise no node fits, and every child is below a power of 2 at most
    # top, which stands in for it; words is then a lower bound, above cap.
    # bit_length(3**r) is floor(r * log2(3)) + 1, and a product's bit length
    # is its factors' sum or one less, so top has at least short bits.
    short = max(r * _LOG2_3_BELOW[0] // _LOG2_3_BELOW[1] + (bound + 1).bit_length() - r, 0)
    longest = max(map(int.bit_length, level), default=0) + 2  # a child's bits, at most
    if cap > short // 64 or longest >= short:
        top = 3**r * (bound + 1) >> r
        return top, top.bit_length() // 64 + 1
    return 1 << longest, short // 64 + 1


def _walk_class(y: int, n: int, bound: int, floor: int) -> list[int]:
    # Unsorted members in [1, bound] of the level-n class whose n-th image is
    # y.  Below 1 the walk skips the self-loop, so the class of 1 is the
    # union of the walk's levels.
    members: list[int] = []
    for depth, level in enumerate(_walk(y, n, bound, floor)):
        if y == 1 or depth == n:
            members += level
    return members


def delta_n(x: int, n: int) -> int:
    """Smallest element equivalent to x at level n.

    Exact upward scan: x itself is a member, so the scan terminates at x in
    the worst case.
    """
    _require_u0(x)
    _require_at_least(n, 0, "level")
    if n == 0:
        return x  # the level-0 class is {x}
    return _level_min(_trajectory(x, n), n, x)


def delta_sequence(x: int, n_max: int) -> DeltaSequence:
    """Minimal class elements of x at levels 0..n_max.

    Classes are nested upward, so each level's scan only needs to run up to
    the previous minimum; the result is still exact.
    """
    _require_u0(x)
    _require_at_least(n_max, 0, "n_max")
    targets = _trajectory(x, n_max)
    values = [x]
    for n in range(1, n_max + 1):
        values.append(_level_min(targets, n, values[-1]))
    stab = values.index(1) if 1 in values else None
    return DeltaSequence(base=x, values=values, stabilization_index=stab)


def merge(x: int, z: int, cap: int) -> MergeResult:
    """First level at which the images of x and z agree, up to cap.

    Symmetric in its arguments.  A None merge_time means undecided within
    the cap, nothing more.
    """
    _require_u0(x)
    _require_u0(z, "z")
    _require_at_least(cap, 1, "cap")
    if x == z:
        return MergeResult(x, z, 0, cap)
    # Two live orbits in O(1) memory that stop where they meet, at 1 at the latest;
    # _meet would hold min(cap, sigma(x)) values of x: gigabytes for x of 10^5 bits.
    a, b = x, z
    for n in range(1, cap + 1):
        a = _step(a)
        b = _step(b)
        if a == b:
            return MergeResult(x, z, n, cap)
    return MergeResult(x, z, None, cap)


def delta_inf(x: int, n_cap: int) -> tuple[int, bool]:
    """Limit of the minimal-element sequence, certified when possible.

    If the trajectory of x reaches 1 within n_cap steps then the minimum is
    1 at that level and stays 1 forever: (1, True).  Otherwise the exact
    level-n_cap minimum is returned as an upper bound with a False flag --
    a repeating value above 1 is never a certificate.
    """
    _require_u0(x)
    _require_at_least(n_cap, 1, "n_cap")
    if _meet(x, [1], n_cap) is not None:  # [1] is _trajectory(1, n_cap)
        return 1, True
    return delta_n(x, n_cap), False


def class_inf(x: int, bound: int, cap: int) -> ClassWindow:
    """Limit-level class of x intersected with [1, bound].

    Every candidate is merged against x with the given cap.  Undecided
    candidates are excluded from the member list and clear the
    exact_within_bound flag; they are never reported as non-members.
    """
    _require_u0(x)
    _require_at_least(bound, 1, "bound")
    _require_at_least(cap, 1, "cap")
    # Orbits that merge stay merged, so merging within cap steps is equality
    # at level cap; the window is exact when every candidate is a member.
    members = [z for z, _ in _meets(_trajectory(x, cap), cap, bound)]
    return ClassWindow(base=x, level=None, bound=bound, members=members,
                       exact_within_bound=len(members) == _u0_count(1, bound))


def tstar_apply(x: int, n_cap: int) -> int:
    """The induced map on classes, evaluated on minimal representatives.

    Sends the class of x to the class of its image; the returned value is
    the certified (or best-known, per delta_inf) minimal element of the
    image class.
    """
    _require_u0(x)
    value, _ = delta_inf(_step(x), n_cap)
    return value


def partition_n(bound: int, n: int) -> list[ClassWindow]:
    """Partition of the window [1, bound] into level-n classes.

    Cells are keyed by the exact n-th forward image, listed by ascending
    minimal member.  Cells are disjoint and cover the window.
    """
    _require_at_least(bound, 1, "bound")
    _require_at_least(n, 0, "level")
    groups: dict[int, list[int]] = {}
    for z in u0_range(1, bound):
        groups.setdefault(_iterate(z, n), []).append(z)
    cells = sorted(groups.values(), key=lambda ms: ms[0])
    return [
        ClassWindow(base=ms[0], level=n, bound=bound, members=ms)
        for ms in cells
    ]


def strict_inclusion_witness(x: int, n: int, search_cap: int = 10**6) -> int:
    """An element of the level-(n+1) class of x that is not in its level-n class.

    Construction: take the n-th image y of x and shift it off itself --
    once when y = 1 mod 3, twice when y = 2 mod 3 (a single shift would
    leave the restricted domain) -- then walk the tau chain n levels back
    down.  The result z satisfies T^n z != T^n x but T^(n+1) z = T^(n+1) x.

    Backward values grow; any intermediate exceeding search_cap raises
    ResourceLimitError (a budget failure, not a mathematical one).
    """
    _require_u0(x)
    _require_at_least(n, 0, "level")
    _require_at_least(search_cap, 1, "search_cap")
    target = 4 * _iterate(x, n) + 1
    if target % 3 == 0:
        target = 4 * target + 1
    for z in accumulate(range(n), lambda z, _: tau(z), initial=target):
        if z > search_cap:
            raise ResourceLimitError(
                f"witness construction for x={x}, n={n} exceeded search_cap={search_cap}"
            )
    return z
