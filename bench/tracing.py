"""Traced in-process run of collatzq: the per-layer metrics.

The layers are the package's modules: cli, verify, cache, core, quotient
and bookkeeping.  One pass runs, in this process:

* one CLI op of every kind through ``cli.main``, with the inputs of the
  first round that the end-to-end workloads generate for the seed;
* ``verify_conjecture_range`` with one worker and with nproc workers, on a
  range-high window and on range-prefix's [1, N]; the reports must be equal;
* ``run_lemma_suite`` with the structure workload's bound and seed;
* seeded samples of core's ``orbit``, ``tau`` and ``u0_range``, and the scan
  route of ``class_n`` on a small window.

Passes alternate untraced and traced, one pair at least, and another pair
only while it is expected to end within ``seconds``.  Only a traced pass wraps anything, and then only the coarse
public entry points in ``_targets``.  Per-element functions (collatz_step,
_step, OrbitCache.lookup) are never wrapped; their work is read from public
counters.  Per-layer values are medians over the traced passes, and
trace.overhead_s is the median of traced minus untraced pass time.
"""

from __future__ import annotations

import functools
import io
import json
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import oracle
import workloads

IMPORT_REPEATS = 5


class Tracer:
    """Spans kept in memory: id, name, start, end and the enclosing span's id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
        return traced

    @contextmanager
    def installed(self, targets):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for (owner, attr, name), (_, _, original) in zip(targets, saved):
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def total(self, name: str, since: int) -> float:
        """Summed duration of the spans called name opened at or after index since."""
        return sum(s["end"] - s["start"] for s in self.spans[since:] if s["name"] == name)

    def self_time(self) -> dict:
        """Per span name: calls, total time, and self time (minus child spans)."""
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        table: dict[str, dict] = {}
        for s in self.spans:
            row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s["end"] - s["start"]
            row["self_s"] += s["end"] - s["start"] - children[s["id"]]
        return table


def _targets(cq) -> list[tuple]:
    return [
        (cq.cli, "main", "cli.main"),
        (cq.verify, "verify_conjecture_range", "verify.verify_conjecture_range"),
        (cq.verify, "run_lemma_suite", "verify.run_lemma_suite"),
        (cq.OrbitCache, "__init__", "cache.OrbitCache.__init__"),
        (cq.OrbitCache, "store_many", "cache.OrbitCache.store_many"),
        (cq.quotient, "class_n", "quotient.class_n"),
        (cq.quotient, "partition_n", "quotient.partition_n"),
        (cq.bookkeeping, "census_class_of_one", "bookkeeping.census_class_of_one"),
        (cq.bookkeeping, "sufficient_set_check", "bookkeeping.sufficient_set_check"),
    ]


@dataclass
class TraceResult:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)  # outputs that failed a check
    problems: list[str] = field(default_factory=list)  # every failure, wrong or not
    spans: list[dict] = field(default_factory=list)  # of the last traced pass
    self_time: dict = field(default_factory=dict)


class _Pass:
    """One pass over the plan; records metrics, and spans when traced."""

    def __init__(self, cq, plan: dict, ctx: workloads.Context, result: TraceResult,
                 tracer: Tracer | None):
        self.cq, self.plan, self.ctx, self.result, self.tracer = cq, plan, ctx, result, tracer
        self.metrics: dict = {}
        self.envelopes: dict = {}
        self.busy = 0.0  # time spent in collatzq calls, checks excluded

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def fail(self, what: str, wrong: bool) -> None:
        self.result.failed += 1
        self.result.problems.append(what)
        if wrong:
            self.result.wrong.append(what)

    def attempt(self, what: str, fn) -> None:
        """Run one step; an exception fails it, a returned string is a wrong output."""
        self.result.attempted += 1
        try:
            problem = fn()
        except Exception as exc:  # a crash in the program under test is a failed op
            self.fail(f"{what}: raised {exc!r}", wrong=False)
            return
        if problem:
            self.fail(f"{what}: {problem}", wrong=True)

    def spans_since(self) -> int:
        return len(self.tracer.spans) if self.tracer else 0

    def cli_op(self, kind: str) -> str | None:
        op = self.plan[kind]
        out, err = io.StringIO(), io.StringIO()
        since = self.spans_since()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cq.cli.main(op.argv)
        wall = time.perf_counter() - start
        self.busy += wall
        self.envelopes[kind] = None
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()[-300:]}")
        text = out.getvalue()
        envelope = json.loads(text)
        problem = op.check(envelope, self.envelopes)
        if problem:
            return problem
        self.envelopes[kind] = envelope
        self.put(f"cli.outside_handler_s.{kind}", wall - envelope["timing"], "s")
        self.put(f"cli.envelope_bytes.{kind}", len(text.encode()), "B")
        if self.tracer:
            self._layer_spans(kind, envelope, since)
        return None

    def _layer_spans(self, kind: str, envelope: dict, since: int) -> None:
        total = functools.partial(self.tracer.total, since=since)
        if kind == "cold":
            stats = envelope["cache_stats"]
            path = Path(self.plan[kind].argv[-1])
            records = path.read_bytes().count(b"\n") - 1
            size = path.stat().st_size
            lookups = stats["hits"] + stats["misses"]
            self.put("cache.store_s", total("cache.OrbitCache.store_many"), "s")
            self.put("cache.records_written", records, "count")
            self.put("cache.file_bytes", size, "B")
            self.put("cache.bytes_per_record", size / records if records else 0.0, "B")
            self.put("cache.lookups", lookups, "count")
            self.put("cache.hit_ratio.cold", stats["hits"] / lookups if lookups else 0.0, "ratio")
        elif kind == "warm":
            stats = envelope["cache_stats"]
            lookups = stats["hits"] + stats["misses"]
            records = Path(self.plan[kind].argv[-1]).read_bytes().count(b"\n") - 1
            load = total("cache.OrbitCache.__init__")
            self.put("cache.load_s", load, "s")
            self.put("cache.load_records_per_s", records / load, "1/s")
            self.put("cache.hit_ratio.warm", stats["hits"] / lookups if lookups else 0.0, "ratio")
        elif kind == "class-bfs":
            self.put("quotient.class_bfs_s", total("quotient.class_n"), "s")
            self.put("quotient.class_bfs_members", envelope["result"]["count"], "count")
        elif kind == "partition":
            self.put("quotient.partition_s", total("quotient.partition_n"), "s")
        elif kind == "census":
            self.put("bookkeeping.census_s", total("bookkeeping.census_class_of_one"), "s")
        elif kind == "suffset":
            self.put("bookkeeping.suffset_s", total("bookkeeping.sufficient_set_check"), "s")

    def sweep_pair(self, label: str, lo: int, hi: int) -> str | None:
        verify = self.cq.verify
        nproc = self.ctx.nproc
        start = time.perf_counter()
        one = verify.verify_conjecture_range(lo, hi, workers=1)
        t1 = time.perf_counter() - start
        start = time.perf_counter()
        many = verify.verify_conjecture_range(lo, hi, workers=nproc)
        tn = time.perf_counter() - start
        self.busy += t1 + tn
        if one != many:
            return f"reports differ between 1 and {nproc} workers on [{lo}, {hi}]"
        if one.elements_checked != oracle.u0_count(lo, hi) or not one.all_reach_one:
            return f"wrong report on [{lo}, {hi}]: {one}"
        self.put(f"verify.range_s.w1.{label}", t1, "s")
        self.put(f"verify.range_s.wN.{label}", tn, "s")
        self.put(f"verify.scaling_eff.{label}", t1 / (nproc * tn), "ratio")
        if label == "range-high":
            self.put("verify.elements_per_s.w1.range-high", one.elements_checked / t1, "1/s")
        return None

    def lemma_suite(self) -> str | None:
        params = self.plan["lemmas"].params
        start = time.perf_counter()
        results = self.cq.verify.run_lemma_suite(params["bound"], sample_seed=params["seed"])
        self.busy += time.perf_counter() - start
        for r in results:
            self.put(f"verify.lemma_s.{r.check_id}", r.elapsed, "s")
        self.put("verify.lemma_instances", sum(r.instances_tested for r in results), "count")
        bad = [r.check_id for r in results if r.failures]
        return f"lemma checks failed: {bad}" if bad else None

    def class_scan(self) -> str | None:
        p = self.plan["class-bfs"].params
        start = time.perf_counter()
        members = self.cq.quotient.class_n(p["x"], p["n"], p["window"], method="scan").members
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        self.put("quotient.class_scan_s", elapsed, "s")
        if members != self.ctx.oracle(oracle.class_members, p["x"], p["n"], p["window"]):
            return "scan route differs from the oracle"
        bfs = self.envelopes.get("class-bfs")
        if bfs and [int(z) for z in bfs["result"]["members"] if int(z) <= p["window"]] != members:
            return "bfs and scan routes disagree on the window"
        return None

    def core_samples(self, seed: int) -> str | None:
        core = self.cq.core
        rng = random.Random(f"core:{seed}")
        tiny = self.ctx.tiny

        def rate(name, work, fn):
            start = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - start
            self.busy += elapsed
            self.put(name, work(out) / elapsed, "1/s")
            return out

        starts = [rng.randrange(10**6, 10**9) | 1 for _ in range(50 if tiny else 3000)]
        steps = rate("core.orbit_steps_per_s", sum,
                     lambda: [core.orbit(x).steps_to_one for x in starts])
        values = [6 * rng.randrange(1, 10**12) + rng.choice((1, 5))
                  for _ in range(500 if tiny else 50_000)]
        taus = rate("core.tau_per_s", len, lambda: [core.tau(v) for v in values])
        lo = rng.randrange(10**12, 10**13)
        hi = lo + (6_000 if tiny else 600_000)
        count = rate("core.u0_range_per_s", int, lambda: sum(1 for _ in core.u0_range(lo, hi)))
        for x, s in list(zip(starts, steps))[:20]:
            n, v = 0, x
            while v != 1:
                v, n = oracle.step(v), n + 1
            if n != s:
                return f"orbit({x}) took {s} steps, oracle {n}"
        if any(oracle.step(t) != v for t, v in list(zip(taus, values))[:200]):
            return "tau is not a preimage"
        if count != oracle.u0_count(lo, hi):
            return f"u0_range({lo}, {hi}) yielded {count}"
        return None

    def run(self, seed: int) -> float:
        """Run every step of the plan; returns the time spent inside collatzq."""
        for path in self.plan["files"]:
            path.unlink(missing_ok=True)
        for kind in (k for kinds in workloads.KINDS.values() for k in kinds):
            self.attempt(f"cli {kind}", functools.partial(self.cli_op, kind))
        for path in self.plan["files"]:
            path.unlink(missing_ok=True)
        high, prefix = self.plan["sweep"].params, self.plan["uncached"].params
        self.attempt("range-high sweeps", functools.partial(
            self.sweep_pair, "range-high", high["lo"], high["hi"]))
        self.attempt("range-prefix sweeps", functools.partial(
            self.sweep_pair, "range-prefix", prefix["lo"], prefix["hi"]))
        self.attempt("lemma suite", self.lemma_suite)
        self.attempt("class scan", self.class_scan)
        self.attempt("core samples", functools.partial(self.core_samples, seed))
        return self.busy


def _plan(seed: int, ctx: workloads.Context) -> dict:
    """The first op of each kind from the seed's first round of every workload."""
    plan: dict = {}
    for workload in workloads.KINDS:
        rnd = next(workloads.rounds(workload, seed, ctx))
        for op in rnd.ops:
            # Windows above 2**64 fail at this commit (ROADMAP item 4); the
            # end-to-end run counts them, the layers are timed on one that
            # completes.
            if op.kind == "sweep" and op.params["lo"] >= 2**64:
                continue
            plan.setdefault(op.kind, op)
        if workload == "range-prefix":
            plan["files"] = rnd.files
    return plan


def _import_s(root: Path, env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import collatzq.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


def _import_package(root: Path) -> SimpleNamespace:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import collatzq
    from collatzq import bookkeeping, cli, core, quotient, verify
    if not Path(collatzq.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"collatzq imported from {collatzq.__file__}, not {src}")
    return SimpleNamespace(cli=cli, verify=verify, OrbitCache=collatzq.OrbitCache,
                           quotient=quotient, bookkeeping=bookkeeping, core=core)


def run(root: Path, env: dict, seed: int, seconds: float, tmp: Path, nproc: int,
        tiny: bool = False) -> TraceResult:
    cq = _import_package(root)
    ctx = workloads.Context(tmp=tmp, nproc=nproc, tiny=tiny)
    plan = _plan(seed, ctx)
    result = TraceResult()
    traced: list[dict] = []
    overheads: list[float] = []
    start = time.perf_counter()
    pair_s = 0.0
    while not traced or time.perf_counter() - start + pair_s < seconds:
        pair_start = time.perf_counter()
        untraced_s = _Pass(cq, plan, ctx, result, None).run(seed)
        tracer = Tracer()
        one = _Pass(cq, plan, ctx, result, tracer)
        with tracer.installed(_targets(cq)):
            traced_s = one.run(seed)
        traced.append(one.metrics)
        overheads.append(traced_s - untraced_s)
        result.spans = [{**s, "start": s["start"] - tracer.spans[0]["start"],
                         "end": s["end"] - tracer.spans[0]["start"]} for s in tracer.spans]
        result.self_time = tracer.self_time()
        pair_s = time.perf_counter() - pair_start
    units = {name: unit for m in traced for name, (_, unit) in m.items()}
    for name, unit in units.items():
        values = [m[name][0] for m in traced if name in m]
        result.metrics[name] = (statistics.median(values), unit)
    result.metrics["cli.import_s"] = (_import_s(root, env), "s")
    result.metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return result
