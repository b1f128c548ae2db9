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
  prefix below ``lo`` (a preceding pass, or nothing when lo == 1) a simple
  induction gives the full claim, and the per-element work is independent
  of processing order, so worker count never changes a reported number.
  Above 1 the sweep is sieved by Terras's (1976) stopping-time classes mod
  2**j, j <= 16: every member drops at its class's step, so each class is
  settled once per chunk and only the survivors are iterated.  A survivor
  advances in blocks of 8 parity steps read from a 256-entry table whenever
  no value in the block can decide the report, and one exact step
  otherwise; ``jump`` builds both tables from one parity entry, and every
  reported number is unchanged.  From 1 the chunks return each element's
  segment, and one ascending pass composes the segments into exact steps
  to 1.  An orbit cache takes no part in the sweep: afterwards it receives
  the record holders, each recomputed from its full orbit, and any record
  it already holds for them must agree.

Findings -- a cycle or a truncated element -- are first-class results,
reported loudly in the output record, never folded into other outcomes.
"""

from __future__ import annotations

import os
import random
import time
from array import array
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from . import core, quotient
from .core import _require_at_least, _u0_count, u0_range
from .errors import DomainError, ResourceLimitError
from .jump import _SIEVE_MOD, _jump_table, _sieve_table, _survivor_outcome

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

def _segment_outcome(x: int, max_steps: int) -> tuple[str, int, int, int]:
    """Iterate from x until the trajectory drops strictly below x.

    Returns (kind, steps, value, seg_max):
      * ("drop", s, v, m): dropped to v < x after s steps, peak m.
        x == 1 is terminal by convention: ("drop", 0, 0, 1).
      * ("cycle", s, x, m): returned to x itself -- a nontrivial cycle
        (every cycle is caught this way at its minimal element).
      * ("truncated", max_steps, 0, m): budget exhausted while still >= x.
    """
    if x == 1:
        return ("drop", 0, 0, 1)
    v = x
    mx = x
    s = 0
    while s < max_steps:
        t = 3 * v + 1
        v = t >> ((t & -t).bit_length() - 1)
        s += 1
        if v < x:
            return ("drop", s, v, mx)
        if v > mx:
            mx = v
        if v == x:
            return ("cycle", s, v, mx)
    return ("truncated", s, 0, mx)


def _sweep_chunk(args: tuple[int, int, int]) -> tuple:
    # (segs, drops, climbs) over the elements of [lo, hi]: each segment's
    # length and drop target (-1 for a cycle, -2 for a truncation), and the
    # (x, peak) of each element whose segment peak beats every earlier
    # element's peak in the chunk.
    lo, hi, max_steps = args
    segs = array("i")
    drops = array("q")
    climbs: list[tuple[int, int]] = []
    top = 0
    for x in u0_range(lo, hi):
        kind, s, v, mx = _segment_outcome(x, max_steps)
        segs.append(s)
        drops.append(v if kind == "drop" else -1 if kind == "cycle" else -2)
        if mx > top:
            top = mx
            climbs.append((x, mx))
    return (segs, drops, climbs)


def _top_member(r: int, period: int, lo: int, hi: int) -> int:
    """The largest x = r (mod period) in [lo, hi] with x % 3 != 0, or 0.

    period is a power of 2, so of two neighbours at most one is a multiple of 3.
    """
    x = hi - (hi - r) % period
    if x % 3 == 0:
        x -= period
    return x if x >= lo else 0


def _sieve_chunk(args: tuple[int, int, int]) -> tuple:
    # (count, steps_max, exc_max, cycles, truncated): the aggregate of
    # _segment_outcome over the elements of [lo, hi], lo > 1.  Only the
    # survivors and the classes that drop beyond max_steps are iterated, by
    # _survivor_outcome; every other class is settled whole.
    lo, hi, max_steps = args
    survivors, classes = _sieve_table()
    mod = _SIEVE_MOD
    residues = [*survivors, *chain.from_iterable(
        range(r, mod, period) for _, _, s, r, period in classes if s > max_steps)]
    steps_max = exc_max = 0
    cycles: list[int] = []
    truncated: list[int] = []
    for x in (base + r for base in range(lo - lo % mod, hi + 1, mod) for r in residues):
        if lo <= x <= hi and x % 3:
            kind, s, mx = _survivor_outcome(x, max_steps, exc_max)
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
                exc_max = _survivor_outcome(x, max_steps, exc_max)[2]
    return (_u0_count(lo, hi), steps_max, exc_max, cycles, truncated)


def _prefix_bytes(hi: int) -> int:
    # What a sweep of [1, hi] holds at once: the 8-byte totals slot of every
    # third integer, 12 bytes of chunk arrays (segment length and drop
    # target) per element, which growth by append over-allocates by up to
    # 1/16, and 64 KiB for the rest: the chunks' climbs, the record holders
    # and, with a cache, their records.
    return 8 * (hi // 3 + 1) + 13 * _u0_count(1, hi) + (1 << 16)


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _chunk_spans(lo: int, hi: int, workers: int) -> list[tuple[int, int]]:
    span = hi - lo + 1
    n_chunks = min(max(1, workers * 4), max(1, span // 10_000 + 1))
    width = -(-span // n_chunks)
    out = []
    a = lo
    while a <= hi:
        b = min(a + width - 1, hi)
        out.append((a, b))
        a = b + 1
    return out


def verify_conjecture_range(
    lo: int,
    hi: int,
    max_steps: int = 10_000,
    workers: int = 1,
    cache: OrbitCache | None = None,
) -> RangeVerificationReport:
    """Verify that every restricted-domain element of [lo, hi] reaches 1.

    Each element is iterated only until its trajectory drops strictly below
    it.  Elements below lo must have been verified by a preceding pass (or
    there are none, when lo == 1); within the range the usual induction
    closes the argument.  The per-element outcome does not depend on
    processing order, so any worker count produces the identical report.

    A trajectory that returns to its start is a cycle; one that exhausts
    max_steps while at or above its start is truncated.  Either finding is
    reported in its own list and forces all_reach_one to False.

    When lo == 1 the report's step statistics are exact steps-to-one,
    composed from the segments in one ascending pass, which also finds the
    record holders: the delay records (steps to 1 above every smaller
    element's) and the path records (orbit maximum above every smaller
    element's).  An attached cache never supplies a number to the report.
    Each record holder whose steps are defined is recomputed with
    core.orbit, checked against the composed total and stored; a cached
    record that disagrees raises CacheError.  For lo > 1 exact totals are
    not derivable from the range alone, so statistics are segment-local
    and no cache is read or written; the residue classes mod 2**j, j <= 16,
    that provably drop at a fixed step are then settled per class instead
    of per element, and the rest jump 8 parity steps at a time where no
    value skipped can change the report, with the same report.

    A sweep from 1 keeps per-element state, about 20 bytes per element; one
    that would need more than the machine's physical memory raises
    ResourceLimitError before any element is iterated.
    """
    _require_at_least(lo, 1, "lo")
    if hi < lo:
        raise DomainError(f"range is empty: lo={lo}, hi={hi}")
    _require_at_least(max_steps, 1, "max_steps")
    _require_at_least(workers, 1, "workers")
    if lo == 1:
        need, have = _prefix_bytes(hi), _physical_memory()
        if need > have:
            raise ResourceLimitError(
                f"a sweep of [1, {hi}] needs about {need} bytes of per-element state, "
                f"more than the {have} bytes of physical memory; sweep a shorter "
                f"prefix and continue above it with lo > 1"
            )
        kernel = _sweep_chunk
    else:
        kernel = _sieve_chunk
        _sieve_table()  # both built before the pool forks, so workers inherit them
        _jump_table()

    spans = _chunk_spans(lo, hi, workers)
    args = [(a, b, max_steps) for a, b in spans]
    # A fork pool starts all its workers at the first submit, so ask for no
    # more than there are chunks or cores, and run one in-process; same report.
    procs = min(workers, len(args), os.cpu_count() or 1)
    if procs == 1:
        chunks = [kernel(a) for a in args]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=procs) as pool:
            chunks = list(pool.map(kernel, args))
    if lo == 1:
        summary, holders = _resolve(hi, spans, chunks)
        chunks = [summary]
        if cache is not None:
            _store_records(cache, holders)

    checked = steps_max = exc_max = 0
    cycles: list[int] = []
    truncated: list[int] = []
    for count, c_steps, c_exc, c_cycles, c_trunc in chunks:
        checked += count
        steps_max = max(steps_max, c_steps)
        exc_max = max(exc_max, c_exc)
        cycles.extend(c_cycles)
        truncated.extend(c_trunc)

    return RangeVerificationReport(
        lo=lo,
        hi=hi,
        elements_checked=checked,
        all_reach_one=not cycles and not truncated,
        max_steps_observed=steps_max,
        max_excursion_observed=exc_max,
        cycles_found=sorted(cycles),
        truncated_elements=sorted(truncated),
    )


def _resolve(hi: int, spans: list[tuple[int, int]], results: list) -> tuple:
    # ((count, steps_max, exc_max, cycles, truncated), holders) of [1, hi]
    # from one ascending pass.  totals[x // 3] is x's exact steps to 1, or -1
    # where a cycle or truncation upstream leaves it undefined; a drop target
    # is a smaller restricted-domain element, so it is resolved before x.
    # holders maps each record holder to its total: each x where steps_max
    # rises, and each chunk climb whose peak beats every earlier segment
    # peak.  The orbit of x passes only through segments of elements up to
    # x, so without findings these climbs are exactly the path records.
    totals = array("q", [-1]) * (hi // 3 + 1)
    holders: dict[int, int] = {}
    steps_max = exc_max = 0
    cycles: list[int] = []
    truncated: list[int] = []
    for (a, b), (segs, drops, climbs) in zip(spans, results):
        for x, s, d in zip(u0_range(a, b), segs, drops):
            if d > 0:
                up = totals[d // 3]
                total = s + up if up >= 0 else -1
            elif d == 0:
                total = s
            else:
                total = -1
                (cycles if d == -1 else truncated).append(x)
            totals[x // 3] = total
            if total > steps_max:
                steps_max = total
                holders[x] = total
        for x, peak in climbs:
            if peak > exc_max:
                exc_max = peak
                holders[x] = totals[x // 3]
    return (_u0_count(1, hi), steps_max, exc_max, cycles, truncated), holders


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
