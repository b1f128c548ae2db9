"""The range sweep engine: certify that every restricted-domain element of
an interval reaches 1.

``verify_conjecture_range`` iterates each element only until its trajectory
drops strictly below its start: combined with the verified prefix below
``lo`` (other sweeps in any order, or nothing when lo == 1) a simple
induction gives the full claim, and the per-element work is independent of
processing order, so any split of the window produces the identical report.
Every sweep runs in the calling process.  Above 1 it is sieved by Terras's
(1976) stopping-time classes mod 2**j, j <= 16, so each class is settled
once per window and only the survivors are iterated.  From 1 one ascending
pass (``prefix``, loaded only then) composes exact steps to 1: most totals
are copied from a smaller element's with strided slices, since a
stopping-time class fixes a drop target affine in x.  Both sweeps iterate
through one kernel, ``jump._segment_outcome``, 8 parity steps at a time
where no value skipped can decide the report.  An orbit cache takes no part
in the sweep: afterwards it receives the record holders, each recomputed
from its full orbit, and any record it already holds must agree.

Findings -- a cycle or a truncated element -- are first-class results,
reported loudly in the output record, never folded into other outcomes.

The lemma check suite lives in ``lemmas``, which a sweep never loads; its
public names still resolve here, importing it on first access.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from .core import _require_at_least, _u0_count
from .errors import DomainError
from .jump import _SIEVE_MOD, _sieve_table
from . import jump

if TYPE_CHECKING:
    from .cache import OrbitCache

__all__ = ["RangeVerificationReport", "verify_conjecture_range"]


def __getattr__(name):
    # PEP 562: the suite's public names, from the module that defines them.
    if name not in ("CHECK_IDS", "LemmaCheckResult", "run_lemma_suite"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import lemmas
    return getattr(lemmas, name)


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
