"""The k-step jump kernel for the sieve survivors of a sweep above 1.

The k-step lookup of Oliveira e Silva (2010) and Barina (2021).  Let T1(n)
be (3n+1)/2 for odd n and n/2 for even n, and c_j(b) the odd steps among
the first j from b.  For n = a*2**k + b and j <= k,
T1^j(n) = 3**c_j(b) * 2**(k-j) * a + T1^j(b), so one entry per b < 2**k
gives T1^k(n) and a lower and an upper bound on every T1^j(n), j = 1..k.
Each odd value among them is a value of the accelerated map T.

The kernel lives apart from ``verify`` so that compiling ``verify`` from
source, the memory peak of a short sweep, does not grow with it.
"""

from __future__ import annotations

import functools

_JUMP_BITS = 8


@functools.cache
def _jump_table() -> tuple[tuple[int, ...], ...]:
    """The entry of each b < 2**k, k = _JUMP_BITS, built once per process.

    An entry is (3**c, T1^k(b), c, lo_mul, hi_mul, lo_add, hi_add): c counts
    the odd steps among the k, lo_mul and hi_mul are the min and max over j
    of 3**c_j << (k - j), and lo_add and hi_add those of T1^j(b).  Plain
    tuples, because unpacking one is faster than unpacking a NamedTuple.
    """
    k = _JUMP_BITS
    table = []
    for b in range(1 << k):
        v, c, muls, adds = b, 0, [], []
        for j in range(1, k + 1):
            if v & 1:
                v, c = (3 * v + 1) >> 1, c + 1
            else:
                v >>= 1
            muls.append(3**c << (k - j))
            adds.append(v)
        table.append((3**c, v, c, min(muls), max(muls), min(adds), max(adds)))
    return tuple(table)


def _survivor_outcome(x: int, max_steps: int, peak: int) -> tuple[str, int, int]:
    """verify._segment_outcome(x, max_steps) for a chunk whose running peak is peak.

    Returns (kind, steps, max(peak, seg_max)).  A block of _JUMP_BITS T1
    steps is jumped when no value in it can be at or below x or above the
    peak, and it fits the budget; every other step is taken exactly.
    """
    table, k, mask = _jump_table(), _JUMP_BITS, (1 << _JUMP_BITS) - 1
    v = x
    if peak < x:
        peak = x
    s = 0
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
            return ("drop", s, peak)
        if v > peak:
            peak = v
        if v == x:
            return ("cycle", s, peak)
    return ("truncated", s, peak)
