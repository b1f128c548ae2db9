"""Brute-force verification: a lemma check suite and a range sweep engine.

Two layers:

* ``run_lemma_suite`` replays the structural claims behind the quotient
  machinery against independent oracles on a window.  The oracle side is
  deliberately naive (forward evaluation with trial division, grouped
  minima, exhaustive membership), so a bug in the closed forms or the
  class computations cannot hide on both sides of a check.

* ``verify_conjecture_range`` sweeps an interval and certifies that every
  restricted-domain element reaches 1.  Per element it iterates only until
  the trajectory drops strictly below its start: combined with the verified
  prefix below ``lo`` (other sweeps in any order, or nothing when lo == 1)
  a simple induction gives the full claim, and the per-element work is independent
  of processing order, so any split of the window produces the identical
  report.  Every sweep runs in the calling process.  Above 1 it is sieved by
  Terras's (1976) stopping-time classes mod 2**j, j <= 16, so each class is
  settled once per window and only the survivors are iterated.  From 1 one
  ascending pass (``prefix``, loaded only then) composes exact steps to 1:
  most totals are copied from a smaller element's with strided slices, since
  a stopping-time class fixes a drop target affine in x.  Both sweeps iterate
  through one kernel, ``jump._segment_outcome``, 8 parity steps at a time
  where no value skipped can decide the report.  An orbit cache takes no
  part in the sweep: afterwards it receives the record holders, each
  recomputed from its full orbit, and any record it already holds must agree.

Findings -- a cycle or a truncated element -- are first-class results,
reported loudly in the output record, never folded into other outcomes.
"""

from __future__ import annotations

import random
import time
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from . import core, quotient
from .core import _require_at_least, _u0_count, u0_range
from .errors import DomainError
from .jump import _SIEVE_MOD, _sieve_table
from . import jump

if TYPE_CHECKING:
    from .cache import OrbitCache

__all__ = [
    "LemmaCheckResult",
    "RangeVerificationReport",
    "run_lemma_suite",
    "verify_conjecture_range",
    "CHECK_IDS",
]


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


class RangeVerificationReport(NamedTuple):
    """Aggregate outcome of one range sweep.

    all_reach_one is true exactly when no cycle was found and no element
    exhausted its step budget.  When lo == 1 the step statistics are exact
    steps-to-one (composed across the verified prefix); for lo > 1 they
    count only the steps observed before each element dropped below itself.
    """

    lo: int
    hi: int
    elements_checked: int
    all_reach_one: bool
    max_steps_observed: int
    max_excursion_observed: int
    cycles_found: list[int]
    truncated_elements: list[int]


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


# --------------------------------------------------------------------------
# range sweep

def _top_member(r: int, period: int, lo: int, hi: int) -> int:
    """The largest x = r (mod period) in [lo, hi] with x % 3 != 0, or 0.

    period is a power of 2, so of two neighbours at most one is a multiple of 3.
    """
    x = hi - (hi - r) % period
    if x % 3 == 0:
        x -= period
    return x if x >= lo else 0


def _sieve_window(lo: int, hi: int, max_steps: int) -> tuple:
    # (count, steps_max, exc_max, cycles, truncated): the aggregate of
    # jump._segment_outcome over the elements of [lo, hi], lo > 1.  Only the
    # survivors and the classes that drop beyond max_steps are iterated, with
    # the running peak; every other class is settled whole.
    segment = jump._segment_outcome
    survivors, classes = _sieve_table()
    mod = _SIEVE_MOD
    residues = [*survivors, *chain.from_iterable(
        range(r, mod, period) for _, _, s, r, period in classes if s > max_steps)]
    steps_max = exc_max = 0
    cycles: list[int] = []
    truncated: list[int] = []
    for x in (base + r for base in range(lo - lo % mod, hi + 1, mod) for r in residues):
        if lo <= x <= hi and x % 3:
            kind, s, _, mx = segment(x, max_steps, exc_max)
            if kind == "drop":
                steps_max = max(steps_max, s)
            elif kind == "cycle":
                cycles.append(x)
            else:
                truncated.append(x)
            exc_max = max(exc_max, mx)

    for hi_mul, hi_add, s, r, period in classes:
        if s <= max_steps and (x := _top_member(r, period, lo, hi)):
            steps_max = max(steps_max, s)
            if hi_mul * (x // period) + hi_add > exc_max:
                exc_max = segment(x, max_steps, exc_max)[3]
    return (_u0_count(lo, hi), steps_max, exc_max, cycles, truncated)


def verify_conjecture_range(
    lo: int,
    hi: int,
    max_steps: int = 10_000,
    workers: int = 1,
    cache: OrbitCache | None = None,
) -> RangeVerificationReport:
    """Verify that every restricted-domain element of [lo, hi] reaches 1.

    Each element is iterated only until its trajectory drops strictly below
    it.  Elements below lo must be verified too, by other sweeps in any
    order (there are none when lo == 1); within the range the usual
    induction closes the argument.  The per-element outcome does not depend on
    processing order, so any split of the window produces the identical
    report: for lo > 1 the reports of [lo, m] and [m + 1, hi] fold into that
    of [lo, hi] (counts add, maxima take the max, findings concatenate).

    A trajectory that returns to its start is a cycle; one that exhausts
    max_steps while at or above its start is truncated.  Either finding is
    reported in its own list and forces all_reach_one to False.

    When lo == 1 the report's step statistics are exact steps-to-one,
    composed in one ascending pass over blocks, which also finds the
    record holders: the delay records (steps to 1 above every smaller
    element's) and the path records (orbit maximum above every smaller
    element's).  An attached cache never supplies a number to the report.
    Each record holder whose steps are defined is recomputed with
    core.orbit, checked against the composed total and stored; a cached
    record that disagrees raises CacheError.  For lo > 1 exact totals are
    not derivable from the range alone, so statistics are segment-local
    and no cache is read or written.

    Every sweep runs in the calling process; a caller that wants more cores
    sweeps disjoint windows in separate processes and folds their reports.
    From 1 the sweep keeps a 4-byte total per element; one that would need
    more than physical memory raises ResourceLimitError before iterating.
    ``workers`` is validated but has no effect.
    """
    _require_at_least(lo, 1, "lo")
    if hi < lo:
        raise DomainError(f"range is empty: lo={lo}, hi={hi}")
    _require_at_least(max_steps, 1, "max_steps")
    _require_at_least(workers, 1, "workers")
    if lo == 1:
        from . import prefix

        summary, holders = prefix._sweep_prefix(hi, max_steps)[:2]
        if cache is not None:
            prefix._store_records(cache, holders)
    else:
        summary = _sieve_window(lo, hi, max_steps)
    checked, steps_max, exc_max, cycles, truncated = summary
    return RangeVerificationReport(
        lo=lo, hi=hi, elements_checked=checked, all_reach_one=not cycles and not truncated,
        max_steps_observed=steps_max, max_excursion_observed=exc_max,
        cycles_found=sorted(cycles), truncated_elements=sorted(truncated))
