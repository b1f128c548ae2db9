"""The residue sieve of a sweep above 1, and the jump kernel that both
sweeps iterate their elements through.

Let T1(n) be (3n+1)/2 for odd n and n/2 for even n, and c_j(b) the odd
steps among the first j from b.  For n = a*2**j + b and i <= j,
T1^i(n) = 3**c_i(b) * 2**(j-i) * a + T1^i(b) (Terras 1976), so the residue
b mod 2**j fixes the first j parities of n, and ``_entry(b, j)`` bounds
every T1^i(n), i = 1..j.  Each odd value among them is a value of the
accelerated map T.  One tree of these entries gives both tables:

* the sieve mod 2**16: b heads Terras's stopping-time class once
  3**c_j(b) < 2**j, and every member above 1 drops below itself at T step
  c_j(b); the residues still undecided at j = 16 survive;
* the k = 8 jump table, the k-step lookup of Oliveira e Silva (2010) and
  Barina (2021), from which the kernel skips blocks of 8 T1 steps.

The tables live apart from ``verify`` so that compiling ``verify`` from
source, the memory peak of a short sweep, does not grow with them, and the
sweep from 1 (``prefix``), which a census past its walk also runs, imports
this module without ``verify``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

_JUMP_BITS = 8
_SIEVE_BITS = 16
_SIEVE_MOD = 1 << _SIEVE_BITS
# Each sweep's charge per finding; `verify range` holds 46-111 bytes a finding (measured RSS).
_FINDING_BYTES = 128


def _entry(b: int, j: int) -> tuple[int, int, int, int, int, int, int]:
    """The T1 parity entry of the residue b mod 2**j.

    (3**c, T1^j(b), c, lo_mul, hi_mul, lo_add, hi_add): c counts the odd
    steps among the j, lo_mul and hi_mul are the min and max over i = 1..j
    of 3**c_i << (j - i), and lo_add and hi_add those of T1^i(b).
    """
    v, c, muls, adds = b, 0, [], []
    for i in range(1, j + 1):
        if v & 1:
            v, c = (3 * v + 1) >> 1, c + 1
        else:
            v >>= 1
        muls.append(3**c << (j - i))
        adds.append(v)
    return (3**c, v, c, min(muls), max(muls), min(adds), max(adds))


@functools.cache
def _jump_table() -> tuple[tuple[int, ...], ...]:
    """The entry of each b < 2**_JUMP_BITS, built once per process.

    Plain tuples, because unpacking one is faster than unpacking a NamedTuple.
    """
    return tuple(_entry(b, _JUMP_BITS) for b in range(1 << _JUMP_BITS))


class _SieveTable(NamedTuple):
    survivors: tuple[int, ...]  # odd residues mod 2**16 whose drop is undecided
    # The stopping-time classes x = r (mod period), period = 2**j <= 2**16,
    # as (hi_mul, hi_add, s, r, period) with _entry(r, j)'s bounds: each
    # member above 1 drops at step s, and its segment peak is at most
    # hi_mul * (x >> j) + hi_add.
    classes: tuple[tuple[int, int, int, int, int], ...]


@functools.cache
def _sieve_table() -> _SieveTable:
    """The sieve mod 2**_SIEVE_BITS, built once per process on first use."""
    # On a class x = r (mod 2**j), 2**j * T1^j(x) = 3**c * x + d with
    # d = 2**j * T1^j(r) - 3**c * r, so each member above d / (2**j - 3**c)
    # drops at T step c.  The largest such threshold is 24, and the only
    # member at or below its class's threshold is 1.
    survivors: list[int] = []
    classes: list[tuple[int, int, int, int, int]] = []
    stack = [(1, 1, 3, 2)]  # (b, j, 3**c_j(b), T1^j(b)) of an undecided residue
    while stack:
        b, j, p, v = stack.pop()
        if p < 1 << j:
            _, _, c, _, hi_mul, _, hi_add = _entry(b, j)
            classes.append((hi_mul, hi_add, c, b, 1 << j))
        elif j == _SIEVE_BITS:
            survivors.append(b)
        else:
            # T1^j(b + 2**j) = p + v, so the two halves step on different parities.
            for r, w in ((b, v), (b + (1 << j), p + v)):
                stack.append((r, j + 1, 3 * p, (3 * w + 1) >> 1) if w & 1
                             else (r, j + 1, p, w >> 1))
    return _SieveTable(tuple(sorted(survivors)), tuple(classes))


def _segment_outcome(x: int, max_steps: int, peak: int) -> tuple[str, int, int, int]:
    """Iterate the accelerated map T from x until it drops strictly below x.

    Returns (kind, steps, value, max(peak, seg_max)), seg_max the largest
    value from x on: ("drop", s, v, m) for a drop to v < x after s steps,
    ("cycle", s, x, m) for a return to x, the least element of a cycle
    (1 -> 1 among them), and ("truncated", max_steps, 0, m) when the budget
    runs out.  A block of _JUMP_BITS T1 steps is jumped only when each T1
    value in it is above x and at most the running peak, and the block fits
    the budget; every other step is taken exactly.  So a drop lands on its
    exact value and step, no return to x is jumped over, a truncation stops
    at exactly max_steps, and no value jumped over exceeds the running peak:
    a peak returned above the one passed in is the exact segment peak.
    """
    table, k, mask = _jump_table(), _JUMP_BITS, (1 << _JUMP_BITS) - 1
    v, s = x, 0
    if peak < x:
        peak = x
    while s < max_steps:
        a = v >> k
        mul, add, c, lo_mul, hi_mul, lo_add, hi_add = table[v & mask]
        if lo_mul * a + lo_add > x and hi_mul * a + hi_add <= peak and s + c <= max_steps:
            # The block may end inside the halvings of its last odd step.
            t = mul * a + add
            s += c
        else:
            t = 3 * v + 1
            s += 1
        v = t >> ((t & -t).bit_length() - 1)
        if v < x:
            return ("drop", s, v, peak)
        if v > peak:
            peak = v
        if v == x:
            return ("cycle", s, v, peak)
    return ("truncated", s, 0, peak)
