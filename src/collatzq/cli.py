"""Command-line front end.

Every invocation emits exactly one output envelope to stdout:

    {"command": ..., "parameters": ..., "result": ..., "timing": ...,
     "cache_stats": ...}   (cache_stats only when a cache is attached)

Serialization convention: values that live in the number space (elements,
bounds, excursions, minima) are decimal strings, so arbitrary precision
survives JSON; structural quantities (levels, step counts, sizes, worker
counts, seeds) are plain integers.  Handlers return plain Python values, and
the rule is applied once, by ``_encode``, to the keys named in
``_NUMBER_KEYS``.  Inside a lemma failure payload the shift count ``k``, the
level ``n``, ``merge_time``, ``image_merge_time`` and ``nu2`` stay integers
(``_STRUCTURAL_KEYS``); every other int there is a decimal string.

Each leaf parser names its handler, so the parser is the one list of
commands.  A handler returns only ``(result, exit_code)``.  ``main`` echoes
the parsed options under ``parameters``: every option of the command except
the output format and the cache options, in declaration order, with defaults
filled in; an option left unset (None) is omitted.  A handler that fills in
a default writes it back to the namespace, so the echo shows the value used.

Exit status: 0 success; 1 usage error; 2 domain, resource (out of memory
among them), or cache error; 3 mathematical finding (a cycle, a lemma
failure, a sufficient-set violation, or a range that could not be fully
verified); 4 internal error (a defect in collatzq, reported in one line).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from .errors import CacheError, DomainError, ResourceLimitError

if TYPE_CHECKING:
    from .cache import OrbitCache

__all__ = ["main"]

_FAILURE_SAMPLE_LIMIT = 20


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1; argparse's default is 2, which this tool
    # reserves for domain and cache errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    # Each option sits only on the commands that read it: the output format
    # on every leaf command, the cache on the two that take one.  main
    # attaches a cache exactly when the parsed namespace has a "cache".
    # Each leaf parser names its handler ("run"); a verify leaf also sets
    # "command", over the "verify" that the top-level subparsers stored.
    output = argparse.ArgumentParser(add_help=False)
    fmt = output.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON envelope output (default)")
    fmt.add_argument("--csv", action="store_true", help="flattened key,value CSV output")
    cached = argparse.ArgumentParser(add_help=False, parents=[output])
    cached.add_argument("--cache", metavar="PATH",
                        help="orbit cache file (overrides COLLATZ_CACHE)")
    cached.add_argument("--quiet", action="store_true",
                        help="suppress informational notices on stderr")

    parser = _Parser(prog="collatzq",
                     description="Accelerated Collatz map, quotient classes, and verification.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("orbit", parents=[cached], help="forward trajectory of one element")
    p.set_defaults(run=_cmd_orbit)
    p.add_argument("x", type=int)
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--trace", action="store_true", help="include the full trajectory")

    p = sub.add_parser("map", parents=[output], help="apply one map to one element")
    p.set_defaults(run=_cmd_map)
    p.add_argument("x", type=int)
    p.add_argument("--op", choices=["T", "S", "xi", "tau", "f"], default="T")
    p.add_argument("--k", type=int, default=None,
                   help="iteration count for S (>= 0) and f (signed)")

    p = sub.add_parser("preimage", parents=[output], help="preimages of an element up to a bound")
    p.set_defaults(run=_cmd_preimage)
    p.add_argument("y", type=int)
    p.add_argument("--bound", type=int, default=10_000)
    p.add_argument("--u0-only", action="store_true")

    p = sub.add_parser("class", parents=[output], help="level-n equivalence class on a window")
    p.set_defaults(run=_cmd_class)
    p.add_argument("x", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, default=10_000)
    p.add_argument("--method", choices=["scan", "bfs"], default="scan")

    p = sub.add_parser("class-inf", parents=[output], help="limit-level class on a window")
    p.set_defaults(run=_cmd_class_inf)
    p.add_argument("x", type=int)
    p.add_argument("--bound", type=int, default=10_000)
    p.add_argument("--cap", type=int, default=1_000)

    p = sub.add_parser("delta", parents=[output], help="minimal class element at one or many levels")
    p.set_defaults(run=_cmd_delta)
    p.add_argument("x", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--n", type=int, default=None)
    mode.add_argument("--sequence", action="store_const", const=True)
    p.add_argument("--max-n", type=int, default=None,
                   help="last level for --sequence (default 10)")

    p = sub.add_parser("merge", parents=[output], help="first level at which two elements merge")
    p.set_defaults(run=_cmd_merge)
    p.add_argument("x", type=int)
    p.add_argument("z", type=int)
    p.add_argument("--cap", type=int, default=1_000)

    p = sub.add_parser("tstar", parents=[output], help="induced map on minimal representatives")
    p.set_defaults(run=_cmd_tstar)
    p.add_argument("x", type=int)
    p.add_argument("--cap", type=int, default=1_000)

    p = sub.add_parser("partition", parents=[output], help="level-n partition of a window")
    p.set_defaults(run=_cmd_partition)
    p.add_argument("--bound", type=int, default=10_000)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("witness", parents=[output],
                       help="element separating consecutive levels")
    p.set_defaults(run=_cmd_witness)
    p.add_argument("x", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--search-cap", type=int, default=10**6)

    p = sub.add_parser("matrix", parents=[output],
                       help="bookkeeping window: classes and minima around a base")
    p.set_defaults(run=_cmd_matrix)
    p.add_argument("x", type=int)
    p.add_argument("--k-min", type=int, default=-3)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--bound", type=int, default=10_000)

    p = sub.add_parser("census", parents=[output], help="class-of-one growth per level")
    p.set_defaults(run=_cmd_census)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--bound", type=int, default=10_000)

    p = sub.add_parser("suffset", parents=[output], help="sufficient set check or membership")
    p.set_defaults(run=_cmd_suffset)
    p.add_argument("--bound", type=int, default=10_000)
    p.add_argument("--members", action="store_true")

    p = sub.add_parser("appendix-class", parents=[output],
                       help="union of limit-level classes along a two-sided orbit")
    p.set_defaults(run=_cmd_appendix_class)
    p.add_argument("x", type=int)
    p.add_argument("--bound", type=int, default=10_000)
    p.add_argument("--k-range", type=int, default=3)
    p.add_argument("--cap", type=int, default=1_000)

    pv = sub.add_parser("verify", help="verification commands")
    vsub = pv.add_subparsers(dest="verify_mode", required=True, parser_class=_Parser)

    p = vsub.add_parser("lemmas", parents=[output], help="run the lemma check suite")
    p.set_defaults(run=_cmd_verify_lemmas, command="verify lemmas")
    p.add_argument("--bound", type=int, default=10_000)
    p.add_argument("--n-cap", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = vsub.add_parser("range", parents=[cached], help="verify a range reaches 1")
    p.set_defaults(run=_cmd_verify_range, command="verify range")
    p.add_argument("--from", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-steps", type=int, default=10_000)

    return parser


# --------------------------------------------------------------------------
# command handlers, each named by its leaf parser: each returns (result,
# exit_code) as plain Python values; main echoes the parsed options as the
# parameters and encodes both (see _ECHO_SKIP and _NUMBER_KEYS)

def _cmd_orbit(ns, cache):
    from . import core
    rec = core.orbit(ns.x, max_steps=ns.max_steps, keep_prefix=ns.trace)
    # The cache checks the computed record (a disagreeing one is CacheError)
    # and never supplies it.
    if cache is not None and rec.steps_to_one is not None:
        cache.store(ns.x, rec.steps_to_one, rec.max_excursion)
    result = {
        "start": rec.start,
        "steps_to_one": rec.steps_to_one,
        "max_excursion": rec.max_excursion,
        "truncated": rec.truncated,
        "cycle_value": rec.cycle_value,
    }
    if rec.trajectory_prefix is not None:
        result["trajectory"] = rec.trajectory_prefix
    return result, 3 if rec.cycle_value is not None else 0


def _cmd_map(ns, cache):
    from . import core
    op, x, k = ns.op, ns.x, ns.k
    if op in ("T", "xi", "tau") and k is not None:
        raise DomainError(f"--k does not apply to op {op}")
    if op == "T":
        value = core.collatz_step(x)
    elif op == "xi":
        value = core.xi(x)
    elif op == "tau":
        value = core.tau(x)
    else:
        ns.k = k = 1 if k is None else k
        value = core.shift(x, k) if op == "S" else core.iterate(x, k)
    return {"input": x, "op": op, "value": value}, 0


def _cmd_preimage(ns, cache):
    from . import core
    pres = core.preimages(ns.y, ns.bound, u0_only=ns.u0_only)
    return {"preimages": pres, "count": len(pres)}, 0


def _cmd_class(ns, cache):
    from . import quotient
    win = quotient.class_n(ns.x, ns.n, ns.bound, method=ns.method)
    result = {
        "base": win.base,
        "level": win.level,
        "bound": win.bound,
        "members": win.members,
        "count": len(win.members),
    }
    return result, 0


def _cmd_class_inf(ns, cache):
    from . import quotient
    win = quotient.class_inf(ns.x, ns.bound, ns.cap)
    result = {
        "base": win.base,
        "bound": win.bound,
        "members": win.members,
        "count": len(win.members),
        "exact_within_bound": win.exact_within_bound,
    }
    return result, 0


def _cmd_delta(ns, cache):
    from . import quotient
    if ns.sequence:
        if ns.max_n is None:
            ns.max_n = 10
        seq = quotient.delta_sequence(ns.x, ns.max_n)
        result = {
            "values": seq.values,
            "stabilization_index": seq.stabilization_index,
        }
        return result, 0
    if ns.max_n is not None:
        raise DomainError("--max-n applies only with --sequence")
    if ns.n is None:
        ns.n = 1
    return {"value": quotient.delta_n(ns.x, ns.n)}, 0


def _cmd_merge(ns, cache):
    from . import quotient
    res = quotient.merge(ns.x, ns.z, ns.cap)
    return {"merge_time": res.merge_time, "decided": res.merge_time is not None}, 0


def _cmd_tstar(ns, cache):
    from . import quotient
    return {"value": quotient.tstar_apply(ns.x, ns.cap)}, 0


def _cmd_partition(ns, cache):
    from . import quotient
    cells = quotient.partition_n(ns.bound, ns.n)
    result = {
        "cell_count": len(cells),
        "cells": [
            {"base": c.base, "size": len(c.members),
             "members": c.members}
            for c in cells
        ],
    }
    return result, 0


def _cmd_witness(ns, cache):
    from . import quotient
    z = quotient.strict_inclusion_witness(ns.x, ns.n, search_cap=ns.search_cap)
    return {"witness": z}, 0


def _cmd_matrix(ns, cache):
    from . import bookkeeping
    window = bookkeeping.class_matrices(ns.x, k_min=ns.k_min, k_max=ns.k_max,
                                        n_max=ns.n_max, bound=ns.bound)
    tails = bookkeeping.row_tail_analysis(window)
    rows = []
    for k in range(ns.k_min, ns.k_max + 1):
        stab, tail_value = tails[k]
        rows.append({
            "k": k,
            "minima": [window.minima[(k, n)] for n in range(ns.n_max + 1)],
            "cell_sizes": [len(window.class_cells[(k, n)].members)
                           for n in range(ns.n_max + 1)],
            "stabilizes_at": stab,
            "tail_value": tail_value,
        })
    result = {"rows": rows, "delta_star_window": window.delta_star_window}
    return result, 0


def _cmd_census(ns, cache):
    from . import bookkeeping
    counts = bookkeeping.census_class_of_one(ns.n_max, ns.bound)
    result = {"counts": [{"level": n, "count": c} for n, c in counts]}
    return result, 0


def _cmd_suffset(ns, cache):
    from . import bookkeeping
    if ns.members:
        members = bookkeeping.sufficient_set_members(ns.bound)
        return {"members": members, "count": len(members)}, 0
    report = bookkeeping.sufficient_set_check(ns.bound)
    result = {
        "violations": report.violations,
        "violation_count": len(report.violations),
        "tau_nu2_histogram": report.tau_nu2_histogram,
    }
    return result, 3 if report.violations else 0


def _cmd_appendix_class(ns, cache):
    from . import bookkeeping
    win = bookkeeping.connected_class(ns.x, ns.bound, ns.k_range, ns.cap)
    result = {
        "base": win.base,
        "members": win.members,
        "count": len(win.members),
        "exact_within_bound": win.exact_within_bound,
    }
    return result, 0


def _cmd_verify_lemmas(ns, cache):
    from . import verify
    results = verify.run_lemma_suite(ns.bound, n_cap=ns.n_cap, sample_seed=ns.seed)
    total_failures = sum(len(r.failures) for r in results)
    checks = []
    for r in results:
        checks.append({
            "check_id": r.check_id,
            "range": r.range_description,
            "instances": r.instances_tested,
            "failure_count": len(r.failures),
            "failures": r.failures[:_FAILURE_SAMPLE_LIMIT],
            "elapsed": round(r.elapsed, 6),
        })
    result = {"checks": checks, "all_passed": total_failures == 0,
              "total_instances": sum(r.instances_tested for r in results)}
    return result, 3 if total_failures else 0


def _cmd_verify_range(ns, cache):
    from . import verify
    report = verify.verify_conjecture_range(getattr(ns, "from"), ns.to,
                                            max_steps=ns.max_steps, workers=ns.jobs,
                                            cache=cache)
    return report._asdict(), 0 if report.all_reach_one else 3


# The number-space rule, in one place: under these keys, at any depth, every
# int (not bool) is emitted as a decimal string, so arbitrary precision
# survives JSON.  Every other int is a structural quantity and stays an int.
_NUMBER_KEYS = frozenset({
    "x", "y", "z", "bound", "search_cap", "from", "to", "lo", "hi",
    "start", "max_excursion", "cycle_value", "trajectory", "input", "value",
    "values", "preimages", "base", "members", "witness", "minima", "tail_value",
    "delta_star_window", "violations", "failures", "max_excursion_observed",
    "cycles_found", "truncated_elements",
})
# Structural keys under a number key (a lemma failure payload): the
# inherited rule stops there.
_STRUCTURAL_KEYS = frozenset({"k", "n", "merge_time", "image_merge_time", "nu2"})


def _encode(value, number=False):
    if isinstance(value, dict):
        return {k: _encode(v, (number or k in _NUMBER_KEYS) and k not in _STRUCTURAL_KEYS)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if number and all(type(v) is int for v in value):
            return [str(v) for v in value]
        return [_encode(v, number) for v in value]
    if number and isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return value


# The parsed options that are not echoed under "parameters": the command's
# name and handler, the output format and the cache options.
_ECHO_SKIP = frozenset({"command", "verify_mode", "run", "json", "csv", "cache", "quiet"})


def _resolve_cache(ns) -> OrbitCache | None:
    # A sweep that does not start at 1 never reads or writes a cache, so it
    # refuses the flag and opens no COLLATZ_CACHE file.
    if getattr(ns, "from", 1) != 1:
        if ns.cache:
            raise DomainError("--cache applies only to sweeps from 1")
        return None
    path = ns.cache or os.environ.get("COLLATZ_CACHE")
    if not path:
        return None
    from .cache import OrbitCache
    cache = OrbitCache(path)
    if cache.created and not ns.quiet:
        print(f"collatzq: created new cache file at {path}", file=sys.stderr)
    return cache


def _emit_json(env) -> str:
    # dump writes chunks as they come; dumps with indent first lists them all.
    buf = io.StringIO()
    json.dump(env, buf, indent=2)
    buf.write("\n")
    return buf.getvalue()


def _csv_scalar(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _flatten(value, prefix):
    # Yields the (key, value) rows one at a time.  An empty list or dict is
    # a row of its own ("[]" or "{}"), so a reader can tell an empty
    # container from a missing key.
    if isinstance(value, dict) and value:
        for k, v in value.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(value, list) and value:
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}.{i}")
    else:
        yield (prefix, _csv_scalar(value))


def _emit_csv(env) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(_flatten(env, ""))
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1

    try:
        cache = _resolve_cache(ns) if "cache" in ns else None
        start = time.perf_counter()
        result, code = ns.run(ns, cache)
        params = {k: v for k, v in vars(ns).items()
                  if v is not None and k not in _ECHO_SKIP}
        # Rebinding frees the plain values before the envelope is serialized.
        params, result = _encode(params), _encode(result)
        env = {
            "command": ns.command,
            "parameters": params,
            "result": result,
            "timing": round(time.perf_counter() - start, 6),
        }
        if cache is not None:
            env["cache_stats"] = {"hits": cache.hits, "misses": cache.misses}
        text = _emit_csv(env) if ns.csv else _emit_json(env)
    except (DomainError, ResourceLimitError) as exc:
        print(f"collatzq: error: {exc}", file=sys.stderr)
        return 2
    except CacheError as exc:
        print(f"collatzq: cache error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # A resource error, not a defect; its message is usually empty.
        print("collatzq: error: out of memory", file=sys.stderr)
        return 2
    except Exception as exc:
        # A defect, not a usage error: one line and an exit code of its own.
        print(f"collatzq: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(text)
    return code
