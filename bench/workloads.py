"""The end-to-end workloads: seeded rounds of collatzq CLI invocations.

A workload is an endless sequence of rounds.  A round is a short list of
ops; each op is one ``python -m collatzq ...`` invocation, run by a single
client one at a time (a closed loop).  The seed fixes every input.  Sizes
are fixed or drawn from narrow ranges, so the cost of a round does not
depend on the seed and runs with different seeds stay comparable.

Every op carries a check of its output envelope against ``oracle``.  A
check also sees the envelopes of the earlier ops of its round, by kind, so
cached sweeps can be compared byte for byte with the uncached one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import oracle

# Op kinds per workload, in round order.
KINDS = {
    "range-high": ["sweep"],
    "range-prefix": ["uncached", "cold", "warm"],
    "structure": ["lemmas", "class-bfs", "census", "suffset", "partition"],
}
SWEEP_KINDS = ("sweep", "uncached", "cold", "warm")

# range-high: windows per round, and how many of them start above 2**64.
# At this commit those fail with OverflowError (ROADMAP item 4); they stay
# in the mix so the defect shows as failed ops, and its fix as fewer.
WINDOWS_PER_ROUND = 8
HIGH_WINDOWS_PER_ROUND = 2


@dataclass
class Op:
    kind: str
    argv: list[str]
    # check(envelope, earlier envelopes of the round by kind) -> problem or None
    check: Callable[[dict, dict], str | None]
    params: dict


@dataclass
class Round:
    ops: list[Op]
    files: list[Path] = field(default_factory=list)  # removed after the round


@dataclass
class Context:
    tmp: Path  # fresh directory for the cache files of this run
    nproc: int
    tiny: bool = False  # smoke-test sizes
    _memo: dict = field(default_factory=dict)

    def oracle(self, fn, *args):
        """fn(*args), computed once per run: oracle inputs repeat across rounds."""
        key = (fn.__qualname__, args)
        if key not in self._memo:
            self._memo[key] = fn(*args)
        return self._memo[key]


def rounds(workload: str, seed: int, ctx: Context) -> Iterator[Round]:
    rng = random.Random(f"{workload}:{seed}")
    make = _ROUNDS[workload]
    index = 0
    while True:
        yield make(rng, ctx, index)
        index += 1


def _diff(result: dict, want: dict) -> str | None:
    bad = {k: (result.get(k), v) for k, v in want.items() if result.get(k) != v}
    return f"got/expected {bad}" if bad else None


# --------------------------------------------------------------------------
# sweeps

def _check_sweep(lo: int, hi: int, prefix_hi: int, ctx: Context, env: dict, earlier: dict):
    want = {
        "lo": str(lo),
        "hi": str(hi),
        "elements_checked": oracle.u0_count(lo, hi),
        "all_reach_one": True,
        "cycles_found": [],
        "truncated_elements": [],
    }
    if lo == 1:
        steps, peak = ctx.oracle(oracle.PrefixStats, prefix_hi).maxima(hi)
        want["max_steps_observed"] = steps
        want["max_excursion_observed"] = str(peak)
    return _diff(env["result"], want)


def _check_cached(kind: str, lo: int, hi: int, prefix_hi: int, ctx: Context,
                  env: dict, earlier: dict):
    problem = _check_sweep(lo, hi, prefix_hi, ctx, env, earlier)
    if problem:
        return problem
    base = earlier.get("uncached")
    if base is not None and json.dumps(env["result"]) != json.dumps(base["result"]):
        return "result payload differs from the uncached sweep"
    stats = env.get("cache_stats")
    if stats is None:
        return "no cache_stats in the envelope"
    if kind == "warm" and stats["hits"] == 0:
        return "warm sweep read nothing from the cache"
    return None


def _sweep_op(kind: str, lo: int, hi: int, ctx: Context, prefix_hi: int = 0,
              cache: Path | None = None) -> Op:
    argv = ["verify", "range", "--from", str(lo), "--to", str(hi), "--jobs", str(ctx.nproc)]
    if cache is None:
        check = partial(_check_sweep, lo, hi, prefix_hi, ctx)
    else:
        argv += ["--cache", str(cache)]
        check = partial(_check_cached, kind, lo, hi, prefix_hi, ctx)
    return Op(kind, argv, check, {"lo": lo, "hi": hi})


def _range_high(rng: random.Random, ctx: Context, index: int) -> Round:
    # Why: the per-element segment kernel and chunk dispatch to the worker
    # pool do nearly all the work; totals resolution and the cache are
    # bypassed.  The kernel rate is the same at every magnitude, so the
    # windows above 2**64 change the failure count, not the rate.
    width = 10**3 if ctx.tiny else 10**6
    high = rng.sample(range(WINDOWS_PER_ROUND), HIGH_WINDOWS_PER_ROUND)
    ops = []
    for i in range(WINDOWS_PER_ROUND):
        lo = rng.randrange(2**64, 2**66) if i in high else rng.randrange(10**12, 10**13)
        ops.append(_sweep_op("sweep", lo, lo + width - 1, ctx))
    return Round(ops)


def _range_prefix(rng: random.Random, ctx: Context, index: int) -> Round:
    # Why: the only workload that uses the cache, both ways (every record
    # a write, then every record a read), and the only one with lo == 1
    # totals resolution.  --jobs is passed to the cached sweeps too, so a
    # parallel cached path shows when it lands.
    lo_n, hi_n = (900, 1100) if ctx.tiny else (490_000, 510_000)
    n = rng.randint(lo_n, hi_n)
    path = ctx.tmp / f"cache-{index}.jsonl"
    ops = [
        _sweep_op("uncached", 1, n, ctx, hi_n),
        _sweep_op("cold", 1, n, ctx, hi_n, cache=path),
        _sweep_op("warm", 1, n, ctx, hi_n, cache=path),
    ]
    return Round(ops, files=[path])


# --------------------------------------------------------------------------
# structure

def _check_lemmas(env: dict, earlier: dict):
    r = env["result"]
    checks = r["checks"]
    if not r["all_passed"] or any(c["failure_count"] for c in checks):
        return "lemma suite reported failures"
    if not checks or len({c["check_id"] for c in checks}) != len(checks):
        return "lemma check ids missing or repeated"
    if r["total_instances"] != sum(c["instances"] for c in checks):
        return "total_instances is not the sum over checks"
    return None


def _check_class(x: int, n: int, bound: int, window: int, ctx: Context, env: dict, earlier: dict):
    r = env["result"]
    members = [int(z) for z in r["members"]]
    if r["count"] != len(members) or members != sorted(members) or (members and members[-1] > bound):
        return "member list is inconsistent with count or bound"
    want = ctx.oracle(oracle.class_members, x, n, window)
    if [z for z in members if z <= window] != want:
        return f"members up to {window} differ from a scan"
    return None


def _check_census(n_max: int, bound: int, ctx: Context, env: dict, earlier: dict):
    counts = env["result"]["counts"]
    if [c["level"] for c in counts] != list(range(n_max + 1)):
        return "census levels are not 0..n_max"
    values = [c["count"] for c in counts]
    if any(a > b for a, b in zip(values, values[1:])):
        return "census counts decrease"
    if values != ctx.oracle(oracle.census_counts, n_max, bound):
        return "census counts differ from the oracle"
    return None


def _check_suffset(bound: int, env: dict, earlier: dict):
    r = env["result"]
    if r["violation_count"] != 0 or r["violations"]:
        return "sufficient-set violations reported"
    if sum(r["tau_nu2_histogram"].values()) != oracle.u0_count(1, bound):
        return "histogram does not cover the window"
    return None


def _check_partition(bound: int, n: int, ctx: Context, env: dict, earlier: dict):
    cells = env["result"]["cells"]
    got = [[int(z) for z in c["members"]] for c in cells]
    if env["result"]["cell_count"] != len(cells):
        return "cell_count differs from the cell list"
    if any(c["base"] != c["members"][0] or c["size"] != len(c["members"]) for c in cells):
        return "cell base or size inconsistent with its members"
    if got != ctx.oracle(oracle.partition_cells, bound, n):
        return "cells differ from the oracle partition"
    return None


def _reaches_one_within(n: int, bound: int) -> list[int]:
    return [z for z in oracle.u0(1, bound) if oracle.iterate(z, n) == 1]


def _structure(rng: random.Random, ctx: Context, index: int) -> Round:
    # Why: uses core, quotient and bookkeeping and writes large envelopes
    # (0.5-1 MB for class-bfs and partition); never touches the sweep
    # pipeline or the cache, so a sweep or cache change predicts no change.
    # The seed picks inputs, not sizes: the lemma bound varies by 5% and the
    # class level cycles through its range, so the cost of a run's rounds is
    # the same for every seed.
    tiny = ctx.tiny
    lemma_bound = rng.randint(*((100, 105) if tiny else (39_000, 41_000)))
    lemma_seed = rng.randrange(10**6)
    n = (3 if tiny else 18) + index % 5
    class_bound, window = (10**3, 10**3) if tiny else (10**6, 2 * 10**4)
    # Bases whose n-th image is 1: their level-n class is the class of 1,
    # the large one, so every round writes an envelope of the same size.
    x = rng.choice(ctx.oracle(_reaches_one_within, n, 10**3 if tiny else 10**4))
    census_n, census_bound = (5, 500) if tiny else (20, 200_000)
    suff_bound = 500 if tiny else 500_000
    part_bound, part_n = (500, 3) if tiny else (20_000, 3)
    ops = [
        Op("lemmas",
           ["verify", "lemmas", "--bound", str(lemma_bound), "--seed", str(lemma_seed)],
           _check_lemmas, {"bound": lemma_bound, "seed": lemma_seed}),
        Op("class-bfs",
           ["class", str(x), "--n", str(n), "--bound", str(class_bound), "--method", "bfs"],
           partial(_check_class, x, n, class_bound, window, ctx),
           {"x": x, "n": n, "bound": class_bound, "window": window}),
        Op("census", ["census", "--n-max", str(census_n), "--bound", str(census_bound)],
           partial(_check_census, census_n, census_bound, ctx), {}),
        Op("suffset", ["suffset", "--bound", str(suff_bound)],
           partial(_check_suffset, suff_bound), {}),
        Op("partition", ["partition", "--bound", str(part_bound), "--n", str(part_n)],
           partial(_check_partition, part_bound, part_n, ctx), {}),
    ]
    return Round(ops)


_ROUNDS = {
    "range-high": _range_high,
    "range-prefix": _range_prefix,
    "structure": _structure,
}
