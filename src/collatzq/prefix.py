"""The sweep of [1, hi]: exact steps to 1 for every element, and its record holders.

``verify_conjecture_range`` imports this module only for lo == 1, and the
census only past its walk's budget, so a sweep above 1 and a shallow census
never compile it.  totals[x // 3] holds the exact steps to 1 of the
restricted-domain element x (x // 3 numbers them 0, 1, 2, ... in order), or a
negative value where a cycle or a truncation upstream leaves them undefined.
Each total comes from a smaller element's, so the pass runs upwards: a head
[1, 4096) element by element, then blocks [B, B + min(B // 8, 2**15)).  A
block fills most of its totals with strided array slices, by two rules, and
iterates the rest (about 18 % of its elements) in ascending order through
``jump._segment_outcome``, the same kernel as a sweep above 1.

* **Strided parts.**  On a stopping-time class x = r (mod 2**j) of
  ``jump._sieve_table`` (Terras 1976), write x = a * 2**j + r.  Then
  T1^j(x) = 3**c * a + T1^j(r), and every member above 1 drops below itself
  at T step c, to d = T^c(x) = (3**c * a + T1^j(r)) >> g with
  g = nu2(3**c * a + T1^j(r)).  So total(x) = c + total(d).  g is fixed by a
  mod 2**(g+1), hence by x mod 2**(j+g+1) =: P.  Split the class by g <= 6
  and then by x mod 3: on one part x moves in steps of 3P, so x // 3 moves
  in steps of P, a in steps of 3 * 2**(g+1), and d in steps of 2 * 3**(c+1),
  so d // 3 moves in steps of 2 * 3**c (d is never a multiple of 3).  One
  part of one block is therefore one slice assignment, as in the k-step
  lookup of Barina (2021).  The classes with j <= 5 (1 mod 4, 3 mod 16,
  11 mod 32 and 23 mod 32) hold 3/4 of the odd residues.
* **Predecessor rule.**  For x = 11 or 35 (mod 36), y = (2x - 1) / 3 is an
  odd non-multiple of 3 with T(y) = x and y < x.  When y's total is
  defined, y's segment passes through all of x's, so x's total is defined
  too and is total(y) - 1; where it is not, x is iterated.  Here x moves in
  steps of 36 and y in steps of 24: slot strides 12 and 8.

Every target of both rules lies below its block: the largest class ratio
is 3**3 / 2**5, so d < 27x/32 + 1, and y < 2x/3; for x < 9B/8 both are
below B once B >= 4096.  An undefined total stays undefined through the
slices: it is a sentinel far below zero, still negative after any chain of
+ c and - 1.

Record holders: a delay record (steps to 1 above every smaller element's)
is read off each block's totals with C-level ``max`` and ``index``.  A path
record (segment peak above every earlier segment peak) can only be an
iterated element: a predecessor-rule element's segment lies inside its
predecessor's, and a strided part is applied only when the peak bound of
its class, ``hi_mul * (x >> j) + hi_add``, cannot beat the running peak for
its top member in the block; otherwise its members are iterated too.  The
orbit of x passes only through segments of elements up to x, so without
findings these peaks are exactly the path records.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import TYPE_CHECKING, Iterator

from . import core, jump
from .core import _require_fits, _u0_count, u0_range
from .jump import _entry, _sieve_table

if TYPE_CHECKING:
    from .cache import OrbitCache

_HEAD = 4096  # [1, _HEAD) is iterated element by element
_MAX_BLOCK = 1 << 15  # keeps a block's temporaries inside the 64 KiB of _prefix_bytes
_MAX_G = 6  # the largest g of a strided part
_UNDEFINED = -(1 << 30)  # an undefined total, still negative after any chain of + c and - 1


def _prefix_bytes(hi: int) -> int:
    # What a sweep of [1, hi] holds at once: the 4-byte totals slot of every
    # third integer, and 64 KiB for the rest: the part table, a block's flags
    # and slices, the record holders and, with a cache, their records.
    return 4 * (hi // 3 + 1) + (1 << 16)


def _parts(max_steps: int) -> list[tuple[int, ...]]:
    # Each strided part x = x0 (mod 3P) as (x0, 3P, P, c, 3**c, T1^j(r), g, j,
    # hi_mul, hi_add, 2 * 3**c), over the classes with j <= 5 that drop
    # within max_steps.
    parts = []
    for hi_mul, hi_add, c, r, period in _sieve_table().classes:
        if period > 32 or c > max_steps:
            continue
        j = period.bit_length() - 1
        mul, add = _entry(r, j)[:2]
        for g in range(_MAX_G + 1):
            # The a mod 2**(g+1) with mul * a + add = 2**g (mod 2**(g+1)).
            a = ((1 << g) - add) * pow(mul, -1, 2 << g) % (2 << g)
            step = period << (g + 1)
            parts += ((x0, 3 * step, step, c, mul, add, g, j, hi_mul, hi_add, 2 * mul)
                      for x0 in range(r + (a << j), 3 * step, step) if x0 % 3)
    return parts


def _mark(todo: bytearray, first: int, x0: int, mod: int, flag: bytes) -> None:
    # Set todo[i] to flag for each x = first + 2i with x = x0 (mod mod), mod even.
    i = (x0 - first) % mod // 2
    todo[i::mod // 2] = flag * len(range(i, len(todo), mod // 2))


def _fill(totals: array, view: memoryview, parts: list, lo: int, end: int,
          exc_max: int) -> Iterator[int]:
    # Fill the totals of [lo, end) that the two rules give, and return the
    # elements left to iterate, ascending.  Every target lies below lo.
    first = lo | 1
    todo = bytearray(b"\1") * ((end - first + 1) // 2)  # todo[i] for x = first + 2i
    _mark(todo, first, 3, 6, b"\0")
    for r in (11, 35):
        x0 = lo + (r - lo) % 36
        if x0 < end:
            n = (end - 1 - x0) // 36 + 1
            y = (2 * x0 - 1) // 9
            ys = view[y:y + 8 * n:8]
            totals[x0 // 3:x0 // 3 + 12 * n:12] = array("i", map((-1).__add__, ys))
            _mark(todo, first, r, 36, b"\0")
            if min(ys) < 0:
                for i, t in enumerate(ys):
                    if t < 0:
                        todo[(x0 - first) // 2 + 18 * i] = 1
    for x0, mod, step, c, mul, add, g, j, hi_mul, hi_add, d_step in parts:
        x0 = lo + (x0 - lo) % mod
        if x0 >= end or hi_mul * ((x0 + mod * ((end - 1 - x0) // mod)) >> j) + hi_add > exc_max:
            continue
        n = (end - 1 - x0) // mod + 1
        d = ((mul * (x0 >> j) + add) >> g) // 3
        totals[x0 // 3:x0 // 3 + step * n:step] = array(
            "i", map(c.__add__, view[d:d + d_step * n:d_step]))
        _mark(todo, first, x0, mod, b"\0")
    return compress(range(first, end, 2), todo)


def _sweep_prefix(hi: int, max_steps: int) -> tuple:
    # ((count, steps_max, exc_max, cycles, truncated), holders, totals) of
    # [1, hi].  1, the kernel's cycle 1 -> 1, is seeded with 0 steps.
    # holders maps each record holder to its total, -1 where it is undefined.
    _require_fits(_prefix_bytes(hi), f"a sweep of [1, {hi}]")
    segment = jump._segment_outcome
    parts = _parts(max_steps)
    totals = array("i", [_UNDEFINED]) * (hi // 3 + 1)
    totals[0] = 0
    view = memoryview(totals)
    holders: dict[int, int] = {1: 0}
    steps_max, exc_max = 0, 1
    cycles: list[int] = []
    truncated: list[int] = []
    lo, end = 1, min(hi + 1, _HEAD)
    while lo <= hi:
        xs = (u0_range(5, end - 1) if lo == 1
              else _fill(totals, view, parts, lo, end, exc_max))
        for x in xs:
            kind, s, v, mx = segment(x, max_steps, exc_max)
            if kind != "drop":
                (cycles if kind == "cycle" else truncated).append(x)
                total = _UNDEFINED
            elif (total := totals[v // 3]) >= 0:
                total += s
            totals[x // 3] = total
            if mx > exc_max:
                exc_max = mx
                holders[x] = max(total, -1)
        # The delay records of the block: its first maximum, if it beats
        # steps_max, then the same on the slots before it.
        k0, k1 = _u0_count(1, lo - 1), _u0_count(1, end - 1)
        best = top = max(view[k0:k1], default=-1)
        while best > steps_max:
            k1 = totals.index(best, k0, k1)
            holders[3 * k1 + 1 + (k1 & 1)] = best
            best = max(view[k0:k1], default=-1)
        steps_max = max(steps_max, top)
        lo, end = end, min(hi + 1, end + min(end // 8, _MAX_BLOCK))
    return (_u0_count(1, hi), steps_max, exc_max, cycles, truncated), holders, totals


def _store_records(cache: OrbitCache, holders: dict[int, int]) -> None:
    # Each record holder whose steps are defined, in ascending order: its
    # exact orbit from core.orbit, checked against the composed total, and
    # one batch store, which counts hits and misses and raises CacheError
    # for a cached record that disagrees.
    records = []
    for x, total in sorted(holders.items()):
        if total < 0:
            continue
        orbit = core.orbit(x, max(total, 1))
        if orbit.steps_to_one != total:
            raise RuntimeError(
                f"x={x} reaches 1 in {orbit.steps_to_one} steps, but the sweep composed {total}"
            )
        records.append((x, total, orbit.max_excursion))
    cache.store_many(records)
