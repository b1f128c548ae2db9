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

from dataclasses import dataclass
from typing import Iterator

from .core import _iterate, _require_u0, _step, _u0_count, tau, u0_range
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


@dataclass
class ClassWindow:
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


@dataclass
class DeltaSequence:
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


@dataclass
class MergeResult:
    """Outcome of the synchronous equivalence test for a pair.

    merge_time is the first level at which the forward images agree, or
    None when the pair stayed distinct for the whole cap (undecided -- not
    a proof of non-equivalence).
    """

    left: int
    right: int
    merge_time: int | None
    cap: int


def _trajectory(x: int, n: int) -> list[int]:
    out = [x]
    v = x
    for _ in range(n):
        v = _step(v)
        out.append(v)
    return out


def _level_equal(z: int, targets: list[int], n: int) -> bool:
    # Does T^n z equal targets[n]?  Once the trajectory of z touches the
    # target trajectory at matching depth the tails coincide, so bail early.
    v = z
    for i in range(n):
        if v == targets[i]:
            return True
        v = _step(v)
    return v == targets[n]


def _level_min(targets: list[int], n: int, upto: int) -> int:
    # The smallest element whose n-th image is targets[n], scanning upward
    # from 1; upto is known to be one, so the scan ends there at the latest.
    return next((z for z in u0_range(1, upto - 1) if _level_equal(z, targets, n)), upto)


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
    if n < 0:
        raise DomainError(f"level must be >= 0, got {n}")
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    if method == "scan":
        members = _class_scan(x, n, bound)
    elif method == "bfs":
        members = sorted(_walk_class(_iterate(x, n), n, bound, _BFS_FLOOR))
    else:
        raise DomainError(f"unknown method {method!r}, expected 'scan' or 'bfs'")
    return ClassWindow(base=x, level=n, bound=bound, members=members)


def _class_scan(x: int, n: int, bound: int) -> list[int]:
    targets = _trajectory(x, n)
    return [z for z in u0_range(1, bound) if _level_equal(z, targets, n)]


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
    and no level holds more nodes than the window has candidates plus
    floor, so memory stays near that of a class list.  Past either limit
    it raises ResourceLimitError.
    """
    window = bound // 3 + 1
    budget, widest = window * n + floor, window + floor
    left = budget
    level = [root]
    yield [z for z in level if z <= bound and z % 3]
    for depth in range(n):
        r = n - depth - 1  # backward levels remaining below the children
        limit = 3**r * (bound + 1)
        p2 = 1 << r
        room = min(left, widest)
        nxt: list[int] = []
        for v in level:
            if v % 3 == 0:
                continue  # multiples of 3 have no preimage
            z = (4 * v - 1) // 3 if v % 3 == 1 else (2 * v - 1) // 3
            if z == v:
                z = 5  # 1 is its own smallest preimage
            while z * p2 <= limit:
                nxt.append(z)
                z = 4 * z + 1
            if len(nxt) > room:
                raise ResourceLimitError(
                    f"preimage-tree walk of level {n} within [1, {bound}] passed its "
                    f"budget of {budget} nodes, at most {widest} per level; "
                    f"method 'scan' computes the same class"
                )
        left -= len(nxt)
        level = nxt
        yield [z for z in level if z <= bound and z % 3]


def _walk_class(y: int, n: int, bound: int, floor: int = 0) -> list[int]:
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
    if n < 0:
        raise DomainError(f"level must be >= 0, got {n}")
    if n == 0:
        return x  # the level-0 class is {x}
    return _level_min(_trajectory(x, n), n, x)


def delta_sequence(x: int, n_max: int) -> DeltaSequence:
    """Minimal class elements of x at levels 0..n_max.

    Classes are nested upward, so each level's scan only needs to run up to
    the previous minimum; the result is still exact.
    """
    _require_u0(x)
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
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
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    if x == z:
        return MergeResult(x, z, 0, cap)
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
    if n_cap < 1:
        raise DomainError(f"n_cap must be >= 1, got {n_cap}")
    v = x
    if v == 1:
        return 1, True
    for _ in range(n_cap):
        v = _step(v)
        if v == 1:
            return 1, True
    return delta_n(x, n_cap), False


def class_inf(x: int, bound: int, cap: int) -> ClassWindow:
    """Limit-level class of x intersected with [1, bound].

    Every candidate is merged against x with the given cap.  Undecided
    candidates are excluded from the member list and clear the
    exact_within_bound flag; they are never reported as non-members.
    """
    _require_u0(x)
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    # Orbits that merge stay merged, so merging within cap steps is equality
    # at level cap; the window is exact when every candidate is a member.
    members = _class_scan(x, cap, bound)
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
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    if n < 0:
        raise DomainError(f"level must be >= 0, got {n}")
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
    if n < 0:
        raise DomainError(f"level must be >= 0, got {n}")
    if search_cap < 1:
        raise DomainError(f"search_cap must be >= 1, got {search_cap}")
    target = 4 * _iterate(x, n) + 1
    if target % 3 == 0:
        target = 4 * target + 1
    z = target
    if z > search_cap:
        raise ResourceLimitError(
            f"witness construction for x={x}, n={n} exceeded search_cap={search_cap}"
        )
    for _ in range(n):
        z = tau(z)
        if z > search_cap:
            raise ResourceLimitError(
                f"witness construction for x={x}, n={n} exceeded search_cap={search_cap}"
            )
    return z
