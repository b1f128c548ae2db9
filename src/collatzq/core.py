"""Primitives for the accelerated Collatz map on odd integers.

All arithmetic is exact Python-int arithmetic; values may grow without bound.

Conventions used throughout the package:

* "odd domain": odd positive integers.
* "restricted domain" (U0): odd positive integers not divisible by 3.
  The accelerated step always lands in the restricted domain, and multiples
  of 3 have no preimage at all, so the restricted domain is where the
  interesting structure lives.

The central maps:

* ``collatz_step`` -- x -> (3x+1) / 2^nu2(3x+1), one accelerated step.
* ``shift``        -- x -> 4x+1 (k-fold via a closed form).  Applying the
  shift never changes the image under ``collatz_step``; the full preimage
  set of any value is a single shift chain.
* ``xi``           -- the smallest odd preimage of a value.
* ``tau``          -- the smallest preimage inside the restricted domain;
  a right inverse of ``collatz_step``.
* ``iterate``      -- two-sided iteration: forward via ``collatz_step``,
  backward via the ``tau`` chain.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from .errors import DomainError

__all__ = [
    "OrbitRecord",
    "collatz_step",
    "is_u0",
    "iterate",
    "nu2",
    "orbit",
    "preimages",
    "shift",
    "tau",
    "u0_range",
    "xi",
]


def _require_odd(x: int, name: str = "x") -> int:
    if x < 1 or x % 2 == 0:
        raise DomainError(f"{name} must be an odd positive integer, got {x}")
    return x


def _require_u0(x: int, name: str = "x") -> int:
    _require_odd(x, name)
    if x % 3 == 0:
        raise DomainError(f"{name} must not be divisible by 3, got {x}")
    return x


def _require_at_least(value: int, floor: int, name: str) -> int:
    if value < floor:
        raise DomainError(f"{name} must be >= {floor}, got {value}")
    return value


def is_u0(x: int) -> bool:
    """True when x is odd, positive, and not divisible by 3."""
    return x >= 1 and x % 2 == 1 and x % 3 != 0


def u0_range(lo: int, hi: int) -> Iterator[int]:
    """Yield the restricted-domain elements in [lo, hi], ascending.

    These are exactly the integers congruent to 1 or 5 mod 6.
    """
    if lo < 1:
        lo = 1
    r = lo % 6
    x = lo + min((1 - r) % 6, (5 - r) % 6)
    step = 4 if x % 6 == 1 else 2
    while x <= hi:
        yield x
        x += step
        step = 6 - step


def _u0_count(lo: int, hi: int) -> int:
    # How many elements u0_range(lo, hi) yields, for lo >= 1, without iterating.
    def upto(n: int) -> int:
        q, r = divmod(n, 6)
        return 2 * q + (r >= 1) + (r >= 5)

    return upto(hi) - upto(lo - 1)


def nu2(y: int) -> int:
    """Exponent of the largest power of 2 dividing y (y >= 1)."""
    if y < 1:
        raise DomainError(f"nu2 requires a positive integer, got {y}")
    return (y & -y).bit_length() - 1


def _step(v: int) -> int:
    # Unvalidated accelerated step for hot loops. Callers guarantee odd v >= 1.
    t = 3 * v + 1
    return t >> ((t & -t).bit_length() - 1)


def _trajectory(x: int, n: int) -> list[int]:
    # T^0 x .. T^n x, cut after the first 1 as T(1) = 1. Callers guarantee odd x >= 1.
    out = [x]
    for _ in range(n):
        if x == 1:
            break
        x = _step(x)
        out.append(x)
    return out


def _meet(z: int, targets: list[int], n: int) -> int | None:
    # The first i <= n with T^i z == T^i x, where targets = _trajectory(x, n)
    # and an index past its end reads 1; None when the orbits stay apart.
    # Orbits that meet stay together, so this decides T^n z == T^n x.
    k = len(targets) - 1
    for i in range(n):
        if z == (targets[i] if i <= k else 1):
            return i
        z = _step(z)
    return n if z == (targets[n] if n <= k else 1) else None


def _iterate(v: int, n: int) -> int:
    # n unvalidated accelerated steps. Callers guarantee odd v >= 1.
    return _trajectory(v, n)[-1]


def collatz_step(x: int) -> int:
    """One accelerated step: 3x+1 with every factor of 2 divided out.

    Defined on odd positive x.  The result is odd, positive, and never
    divisible by 3 (3x+1 is not a multiple of 3, and halving preserves that).
    """
    return _step(_require_odd(x))


def shift(x: int, k: int = 1) -> int:
    """k-fold application of x -> 4x+1, via the closed form 4^k x + (4^k - 1)/3.

    Every element of the shift chain of x has the same image under
    ``collatz_step`` as x itself.
    """
    _require_odd(x)
    _require_at_least(k, 0, "shift count")
    if k == 0:
        return x
    p = 1 << (2 * k)
    return p * x + (p - 1) // 3


def xi(y: int) -> int:
    """Smallest odd preimage of y under the accelerated step.

    Defined only for y in the restricted domain: multiples of 3 have no
    preimage.  Depending on y mod 3 the minimal preimage is (4y-1)/3 or
    (2y-1)/3.  Note the result itself may be divisible by 3.
    """
    _require_u0(y, "y")
    if y % 3 == 1:
        return (4 * y - 1) // 3
    return (2 * y - 1) // 3


def tau(x: int) -> int:
    """Smallest preimage of x inside the restricted domain.

    collatz_step(tau(x)) == x always; tau is the canonical way to walk a
    trajectory backward without leaving the restricted domain.  When the
    minimal odd preimage xi(x) is a multiple of 3, the next element of its
    shift chain is the answer.
    """
    z = xi(x)
    if z % 3 == 0:
        z = 4 * z + 1
    return z


def iterate(x: int, k: int) -> int:
    """Two-sided iteration inside the restricted domain.

    k >= 0 applies the accelerated step k times; k < 0 walks the tau chain
    -k times.  Backward then forward returns to x, and 1 is fixed for all k.
    """
    _require_u0(x)
    if k >= 0:
        return _iterate(x, k)
    for _ in range(-k):
        x = tau(x)
    return x


def preimages(y: int, bound: int, u0_only: bool = False) -> list[int]:
    """All odd z <= bound with collatz_step(z) == y, in increasing order.

    The full preimage set of y is the shift chain xi(y), 4*xi(y)+1, ...;
    enumeration stops once the chain passes the bound (each shift roughly
    quadruples the value).  With u0_only, multiples of 3 are dropped --
    exactly one element in every three consecutive chain elements.
    """
    _require_u0(y, "y")
    _require_at_least(bound, 1, "bound")
    out: list[int] = []
    z = xi(y)
    while z <= bound:
        if not u0_only or z % 3 != 0:
            out.append(z)
        z = 4 * z + 1
    return out


class OrbitRecord(NamedTuple):
    """Summary of a forward trajectory under the accelerated step.

    Exactly one of three outcomes holds: the trajectory reached 1
    (steps_to_one set), it revisited an earlier value other than 1
    (cycle_value set -- a headline finding, never folded into truncation),
    or the step budget ran out (truncated).
    """

    start: int
    steps_to_one: int | None
    max_excursion: int
    trajectory_prefix: list[int] | None
    truncated: bool
    cycle_value: int | None = None


def orbit(x: int, max_steps: int = 10_000, keep_prefix: bool = False) -> OrbitRecord:
    """Iterate the accelerated step from x until 1, a cycle, or max_steps.

    Any odd positive start is accepted: the forward step is defined on all
    of them, multiples of 3 simply never recur.  One loop serves every
    caller: a Brent-style checkpoint (Brent 1980) catches any cycle on the
    value stream in constant memory, and with keep_prefix the visited values
    are also recorded.
    """
    _require_odd(x)
    _require_at_least(max_steps, 1, "max_steps")
    return _orbit_impl(_step, x, max_steps, keep_prefix)


def _orbit_impl(
    step: Callable[[int], int], x: int, max_steps: int, keep_prefix: bool
) -> OrbitRecord:
    # The checkpoint moves to the current value after 1, 2, 4, ... steps,
    # so a cycle of length L is caught within about 2L steps of entering it.
    prefix = [x] if keep_prefix else None
    mx = v = checkpoint = x
    steps = lam = 0
    power = 1
    while v != 1:
        if steps == max_steps:
            return OrbitRecord(x, None, mx, prefix, True)
        v = step(v)
        steps += 1
        if prefix is not None:
            prefix.append(v)
        if v > mx:
            mx = v
        if v == checkpoint:
            return OrbitRecord(x, None, mx, prefix, False, cycle_value=v)
        lam += 1
        if lam == power:
            checkpoint = v
            power <<= 1
            lam = 0
    return OrbitRecord(x, steps, mx, prefix, False)
