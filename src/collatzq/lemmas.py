"""The lemma check suite: the structural claims behind the quotient
machinery, replayed against independent oracles on a window.

The oracle side is deliberately naive (forward evaluation with trial
division, grouped minima, exhaustive membership), so a bug in the closed
forms or the class computations cannot hide on both sides of a check.  The
suite lives apart from ``verify``, so a range sweep compiles neither it nor
the ``quotient`` module it checks.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

from . import core, quotient
from .core import _require_at_least, _require_fits, u0_range
from .errors import DomainError

__all__ = ["LemmaCheckResult", "run_lemma_suite", "CHECK_IDS"]


class LemmaCheckResult(NamedTuple):
    """One check of the suite: what was tested, how much, and what failed.

    Every entry of ``failures`` is a plain dict of concrete inputs and the
    disagreeing values, sufficient to replay the instance by hand.
    """

    check_id: str
    range_description: str
    instances_tested: int
    failures: list[dict]
    elapsed: float = 0.0


# --------------------------------------------------------------------------
# independent oracle helpers: forward evaluation by trial division only

def _raw_step(v: int) -> int:
    t = 3 * v + 1
    while t % 2 == 0:
        t //= 2
    return t


def _raw_iter(v: int, n: int) -> int:
    for _ in range(n):
        v = _raw_step(v)
    return v


def _preimage_table(zs, ymax: int) -> dict[int, list[int]]:
    # The z of zs grouped by their image, for images up to ymax; each group
    # keeps the order of zs, so from an ascending zs its minimum comes first.
    table: dict[int, list[int]] = {}
    for z in zs:
        y = _raw_step(z)
        if y <= ymax:
            table.setdefault(y, []).append(z)
    return table


def _draw_u0(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        z = rng.randrange(lo, hi + 1)
        if z % 2 == 1 and z % 3 != 0:
            return z


# --------------------------------------------------------------------------
# the check suite

def _check_shift_invariance(bound, n_cap, rng):
    fails = []
    inst = 0
    for x in range(1, bound + 1, 2):
        inst += 1
        left = core.collatz_step(core.shift(x, 1))
        right = core.collatz_step(x)
        if left != right:
            fails.append({"x": x, "step_of_shift": left, "step": right})
    return f"odd x in [1, {bound}]", inst, fails


def _check_shift_invariance_k(bound, n_cap, rng):
    fails = []
    inst = 0
    for x in range(1, bound + 1, 2):
        right = core.collatz_step(x)
        for k in range(1, 6):
            inst += 1
            left = core.collatz_step(core.shift(x, k))
            if left != right:
                fails.append({"x": x, "k": k, "step_of_shift": left, "step": right})
    return f"odd x in [1, {bound}], k in [1, 5]", inst, fails


def _check_shift_closed_form(bound, n_cap, rng):
    fails = []
    inst = 0
    for x in range(1, bound + 1, 2):
        v = x
        for k in range(6):
            inst += 1
            if core.shift(x, k) != v:
                fails.append({"x": x, "k": k, "closed_form": core.shift(x, k), "iterated": v})
            v = 4 * v + 1
    return f"odd x in [1, {bound}], k in [0, 5]", inst, fails


def _check_min_preimage(bound, n_cap, rng):
    # Grouped forward pass: ascending odd z, first hit per image is the
    # brute-force minimal preimage.
    brute = _preimage_table(range(1, (4 * bound) // 3 + 2, 2), bound)
    fails = []
    inst = 0
    for y in u0_range(1, bound):
        inst += 1
        got = core.xi(y)
        want = brute[y][0] if y in brute else None
        if got != want:
            fails.append({"y": y, "xi": got, "brute_min": want})
    return f"restricted domain in [1, {bound}]", inst, fails


def _check_preimage_sets(bound, n_cap, rng):
    pbound = 4 * bound
    brute = _preimage_table(range(1, pbound + 1, 2), bound)
    fails = []
    inst = 0
    for y in u0_range(1, bound):
        inst += 1
        want = brute.get(y, [])
        got = core.preimages(y, pbound, u0_only=False)
        if got != want:
            fails.append({"y": y, "bound": pbound, "chain": got, "brute": want})
            continue
        inst += 1
        got_u0 = core.preimages(y, pbound, u0_only=True)
        want_u0 = [z for z in want if z % 3 != 0]
        if got_u0 != want_u0:
            fails.append({"y": y, "bound": pbound, "chain_u0": got_u0, "brute_u0": want_u0})
    return f"restricted domain in [1, {bound}], preimages up to {pbound}", inst, fails


def _check_surjectivity(bound, n_cap, rng):
    # Pure coverage: forward images of restricted-domain elements must hit
    # every window element (no inverse formulas involved).
    covered = _preimage_table(u0_range(1, 6 * bound), bound)
    fails = []
    inst = 0
    for y in u0_range(1, bound):
        inst += 1
        if y not in covered:
            fails.append({"y": y, "searched_up_to": 6 * bound})
    return f"restricted domain in [1, {bound}]", inst, fails


def _check_quasi_inverse(bound, n_cap, rng):
    # tau is a right inverse, stays in the restricted domain, and is the
    # *minimal* restricted preimage (brute minimum from a forward pass).
    brute = _preimage_table(u0_range(1, (16 * bound) // 3 + 2), bound)
    fails = []
    inst = 0
    for y in u0_range(1, bound):
        inst += 1
        t = core.tau(y)
        want = brute[y][0] if y in brute else None
        if core.collatz_step(t) != y or t % 3 == 0 or t != want:
            fails.append({"y": y, "tau": t, "step_of_tau": core.collatz_step(t),
                          "brute_min_u0": want})
    return f"restricted domain in [1, {bound}]", inst, fails


def _check_fixed_points(bound, n_cap, rng):
    fails = []
    inst = 0
    for x in range(1, bound + 1, 2):
        inst += 1
        if core.collatz_step(x) == x and x != 1:
            fails.append({"x": x})
    return f"odd x in [1, {bound}]", inst, fails


def _check_strict_inclusion(bound, n_cap, rng):
    fails = []
    inst = 0
    for _ in range(100):
        x = _draw_u0(rng, 1, bound)
        n = rng.randint(0, 8)
        inst += 1
        z = quotient.strict_inclusion_witness(x, n, search_cap=10**60)
        same_next = _raw_iter(z, n + 1) == _raw_iter(x, n + 1)
        differs_now = _raw_iter(z, n) != _raw_iter(x, n)
        if not (same_next and differs_now and z % 3 != 0 and z % 2 == 1):
            fails.append({"x": x, "n": n, "witness": z,
                          "same_at_next_level": same_next, "differs_at_level": differs_now})
    return f"100 sampled (x, n), x in [1, {bound}], n in [0, 8]", inst, fails


def _check_class_pullback(bound, n_cap, rng):
    # Level-(n+1) membership must coincide with level-n membership of the
    # images, for every candidate in a small window.
    win = min(bound, 2500)
    fails = []
    inst = 0
    for _ in range(12):
        x = _draw_u0(rng, 1, min(bound, 500))
        n = rng.randint(0, 4)
        members = set(quotient.class_n(x, n + 1, win, method="scan").members)
        tx_n = _raw_iter(_raw_step(x), n)
        for z in u0_range(1, win):
            inst += 1
            in_class = z in members
            image_matches = _raw_iter(_raw_step(z), n) == tx_n
            if in_class != image_matches:
                fails.append({"x": x, "n": n, "z": z,
                              "in_level_n_plus_1": in_class,
                              "image_in_level_n": image_matches})
    return f"12 sampled (x, n) against the window [1, {win}]", inst, fails


def _check_class_images(bound, n_cap, rng):
    # Pushforward: images of a level-(n+1) class land in the level-n class
    # of the image, and cover every member that has a preimage in range.
    win = min(bound, 2000)
    fails = []
    inst = 0
    for _ in range(10):
        x = _draw_u0(rng, 1, min(bound, 400))
        n = rng.randint(0, 4)
        members = quotient.class_n(x, n + 1, win, method="scan").members
        tx = _raw_step(x)
        tx_n = _raw_iter(tx, n)
        images = sorted({_raw_step(z) for z in members})
        image_set = set(images)
        for w in images:
            inst += 1
            if _raw_iter(w, n) != tx_n:
                fails.append({"x": x, "n": n, "image": w, "reason": "image left the class"})
        img_win = (3 * win + 1) // 2
        for w in quotient.class_n(tx, n, img_win, method="scan").members:
            inst += 1
            if core.preimages(w, win, u0_only=True) and w not in image_set:
                fails.append({"x": x, "n": n, "member": w, "reason": "member not covered"})
    return f"10 sampled (x, n) against the window [1, {win}]", inst, fails


def _step_compat_failures(x, z, n_cap, reasons):
    # Limit-level equivalence of a decided pair must agree with one forward
    # step in both directions: x ~ z gives T(x) ~ T(z), and T(x) ~ T(z)
    # gives x ~ z (merging one level later).  reasons names each direction.
    fails = []
    m = quotient.merge(x, z, n_cap).merge_time
    mi = quotient.merge(core.collatz_step(x), core.collatz_step(z), n_cap).merge_time
    if m is not None and mi is None:
        fails.append({"x": x, "z": z, "merge_time": m, "reason": reasons[0]})
    if mi is not None and quotient.merge(x, z, n_cap + 1).merge_time is None:
        fails.append({"x": x, "z": z, "image_merge_time": mi, "reason": reasons[1]})
    return fails


def _check_limit_pullback(bound, n_cap, rng):
    win = min(bound, 1200)
    fails = []
    inst = 0
    for _ in range(8):
        x = _draw_u0(rng, 1, min(bound, 300))
        for z in u0_range(1, win):
            inst += 1
            fails += _step_compat_failures(
                x, z, n_cap, ("images failed to merge", "originals failed to merge"))
    return f"8 sampled x against the window [1, {win}], cap {n_cap}", inst, fails


def _check_induced_map(bound, n_cap, rng):
    # The induced map on classes is well-defined and injective on decided
    # pairs: equivalent elements keep equivalent images and vice versa.
    fails = []
    inst = 0
    for _ in range(60):
        x = _draw_u0(rng, 1, bound)
        z = _draw_u0(rng, 1, bound)
        inst += 1
        fails += _step_compat_failures(x, z, n_cap, ("not well-defined", "not injective"))
    return f"60 sampled pairs in [1, {bound}], cap {n_cap}", inst, fails


def _check_delta_one(bound, n_cap, rng):
    # Exhaustive: the level-1 minimum (grouped brute force) is tau of the image.
    # An image of z <= bound is at most (3 * bound + 1) / 2, so none is dropped.
    brute = _preimage_table(u0_range(1, bound), 2 * bound)
    fails = []
    inst = 0
    for x in u0_range(1, bound):
        inst += 1
        want = brute[_raw_step(x)][0]
        got = core.tau(core.collatz_step(x))
        if got != want:
            fails.append({"x": x, "tau_of_step": got, "brute_level1_min": want})
    for _ in range(40):
        x = _draw_u0(rng, 1, bound)
        inst += 1
        d = quotient.delta_n(x, 1)
        want = brute[_raw_step(x)][0]
        if d != want:
            fails.append({"x": x, "delta_1": d, "brute_level1_min": want})
    return f"restricted domain in [1, {bound}] plus 40 sampled delta_n calls", inst, fails


def _check_sufficient_set(bound, n_cap, rng):
    fails = []
    inst = 0
    for x in u0_range(1, bound):
        inst += 1
        e = core.nu2(3 * core.tau(x) + 1)
        if not 1 <= e <= 4:
            fails.append({"x": x, "tau": core.tau(x), "nu2": e})
    return f"restricted domain in [1, {bound}]", inst, fails


_CHECKS = [
    ("L-TS", _check_shift_invariance),
    ("L-TSK", _check_shift_invariance_k),
    ("L-SCF", _check_shift_closed_form),
    ("L-XI", _check_min_preimage),
    ("L-PRE", _check_preimage_sets),
    ("L-SURJ", _check_surjectivity),
    ("L-TAU", _check_quasi_inverse),
    ("L-FIX", _check_fixed_points),
    ("L-A2", _check_strict_inclusion),
    ("L-A6", _check_class_pullback),
    ("L-CI", _check_class_images),
    ("L-INF", _check_limit_pullback),
    ("L-TSWD", _check_induced_map),
    ("L-D1", _check_delta_one),
    ("L-SUFF", _check_sufficient_set),
]

CHECK_IDS = [check_id for check_id, _ in _CHECKS]


def run_lemma_suite(bound: int, n_cap: int = 50, sample_seed: int = 0) -> list[LemmaCheckResult]:
    """Run every check against the window [1, bound].

    Exhaustive checks cover the whole window; sampled checks draw their
    instances from a generator seeded with sample_seed, so a run is fully
    reproducible.  An undecided merge never counts as a failure -- only a
    decided instance can contradict a claim.
    """
    if bound < 100:
        raise DomainError(f"bound must be >= 100 for a meaningful suite, got {bound}")
    _require_at_least(n_cap, 1, "n_cap")
    # A unit of bound costs the suite about 90 bytes at its peak, most of it
    # the brute-force preimage tables (measured RSS, bounds 1e5 to 1e6).
    _require_fits(128 * bound, f"a lemma suite over [1, {bound}]")
    results = []
    for check_id, fn in _CHECKS:
        rng = random.Random(f"{sample_seed}:{check_id}")
        start = time.perf_counter()
        desc, instances, failures = fn(bound, n_cap, rng)
        results.append(LemmaCheckResult(
            check_id=check_id,
            range_description=desc,
            instances_tested=instances,
            failures=failures,
            elapsed=time.perf_counter() - start,
        ))
    return results
