"""Benchmark for collatzq: seeded CLI workloads and a traced per-layer run.

Run from the repository root; the program is imported from ``src``, no
install step is needed:

    python3 bench/run.py --workload range-high --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload structure --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke

``--trace 0`` runs the workload (see ``workloads``) as a closed loop: one
client runs one ``python -m collatzq`` process at a time, timed from the
outside, until the ops have used ``--seconds`` of wall time; the last round
is always completed.  Sweeps pass ``--jobs`` equal to the number of usable
cores.  It prints the end-to-end metrics of BENCHMARK.json, with op times
counted in reference loops (see ``Launcher``).

``--trace 1`` runs the in-process traced suite (see ``tracing``), which is the
same for every workload, and prints the per-layer metrics.

``--smoke`` runs one round of every workload and one traced pass at tiny
sizes, checks every output, and checks that the metric names printed match
BENCHMARK.json.

Every line of stdout is JSON.  The lines before the last record the
environment, the generated op list and the outcome of every op.  The last
line is ``{"correct", "attempted", "failed", "metrics"}``.  An op has failed
when it exits nonzero, crashes, or its output fails its check; ``correct``
is false when some output was wrong, that is a check failed on an op that
exited 0.  Exit status: 0 when every output was correct, 1 when one was
wrong, 2 when collatzq could not be run at all (nothing is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_FIRST = 3  # trivial invocations before the first round
REF_REUSE_S = 0.25  # how old a reference time may be to count as before the next op
# The reference loop's time on an idle core of the 2-core, 2 GHz machine the
# benchmark was defined on; converts reference loops back to seconds.
REF_NOMINAL_S = 0.030


class Unrunnable(Exception):
    """collatzq cannot be run from this checkout."""


@dataclass
class Outcome:
    kind: str
    argv: list[str]
    wall_s: float
    wall_ref: float  # wall time in reference loops
    rss_mb: float
    exit: int
    envelope: dict | None
    stderr_tail: str | None  # last stderr line of a failed op
    problem: str | None  # the op answered, but its output failed its check

    @property
    def ok(self) -> bool:
        return self.exit == 0 and self.problem is None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("COLLATZ_CACHE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Launcher:
    """One launch.py per core, for the whole run; a context manager.

    The first starts every op.  Around each op all of them run the
    reference loop at once, and the op's time is also reported as a
    multiple of that loop's mean time, which cancels the swings in core
    speed that a shared machine shows from one second to the next.
    """

    def __init__(self, tmp: Path, nproc: int):
        self.tmp = tmp
        script = str(Path(__file__).with_name("launch.py"))
        self.procs = [subprocess.Popen([sys.executable, script], cwd=ROOT, env=child_env(),
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                      for _ in range(nproc)]
        self._last_ref: tuple[float, float] | None = None  # (taken at, mean loop time)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc in self.procs:
            proc.stdin.close()
        for proc in self.procs:
            proc.wait()

    def _ask(self, procs: list, request: dict) -> list[dict]:
        for proc in procs:
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
        replies = []
        for proc in procs:
            line = proc.stdout.readline()
            if not line:
                raise Unrunnable(f"launcher exited with {proc.wait()}")
            replies.append(json.loads(line))
        return replies

    def reference(self) -> float:
        """Mean time of the reference loop, run on every core at once."""
        ref = statistics.fmean(r["wall_s"] for r in self._ask(self.procs, {"reference": True}))
        self._last_ref = (time.perf_counter(), ref)
        return ref

    def invoke(self, argv: list[str]) -> tuple[float, float, float, int, str, str]:
        """Run ``python -m collatzq argv``.

        Returns (wall s, wall in reference loops, peak RSS MB, exit, stdout,
        stderr).  The reference time is the mean of the loop just before
        and just after the op; one taken after the previous op counts as
        before if it is recent.
        """
        fresh = self._last_ref is not None and time.perf_counter() - self._last_ref[0] < REF_REUSE_S
        before = self._last_ref[1] if fresh else self.reference()
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path)}
        reply = self._ask(self.procs[:1], request)[0]
        after = self.reference()
        return (reply["wall_s"], reply["wall_s"] / ((before + after) / 2),
                reply["maxrss_kb"] / 1024, reply["exit"],
                out_path.read_text(), err_path.read_text())


def execute(op: workloads.Op, earlier: dict, launcher: Launcher) -> Outcome:
    wall, wall_ref, rss, code, out, err = launcher.invoke(op.argv)
    envelope = problem = tail = None
    if code == 0:
        try:
            envelope = json.loads(out)
            problem = op.check(envelope, earlier)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problem = f"unreadable envelope: {exc!r}"
    else:
        lines = err.strip().splitlines()
        tail = lines[-1] if lines else ""
    outcome = Outcome(op.kind, op.argv, wall, wall_ref, rss, code, envelope, tail, problem)
    earlier[op.kind] = envelope if outcome.ok else None
    return outcome


def setup_probe(launcher: Launcher) -> tuple[float, float]:
    """One trivial invocation (interpreter start, import, parser build).

    Returns its wall time, in seconds and in reference loops.
    """
    if not (ROOT / "src" / "collatzq" / "__init__.py").is_file():
        raise Unrunnable(f"no collatzq package under {ROOT / 'src'}")
    wall, wall_ref, _, code, out, err = launcher.invoke(["map", "1", "--op", "T"])
    try:
        value = json.loads(out)["result"]["value"] if code == 0 else None
    except (ValueError, KeyError) as exc:
        raise Unrunnable(f"unreadable envelope from a trivial invocation: {exc!r}") from exc
    if value != "1":
        raise Unrunnable(f"trivial invocation failed (exit {code}): {err.strip()[-300:]}")
    return wall, wall_ref


def run_workload(workload: str, seed: int, seconds: float, launcher: Launcher, nproc: int,
                 tiny: bool = False) -> tuple[list[Outcome], list[tuple[float, float]]]:
    """Run whole rounds until the ops have used ``seconds`` of wall time.

    Returns the outcomes and the setup probes, made before the first round
    and after every round so that they sample the whole run.
    """
    setup = [setup_probe(launcher) for _ in range(SETUP_FIRST)]
    ctx = workloads.Context(tmp=launcher.tmp, nproc=nproc, tiny=tiny)
    outcomes: list[Outcome] = []
    busy = 0.0
    for rnd in workloads.rounds(workload, seed, ctx):
        earlier: dict = {}
        for op in rnd.ops:
            outcome = execute(op, earlier, launcher)
            outcomes.append(outcome)
            busy += outcome.wall_s
        for path in rnd.files:
            path.unlink(missing_ok=True)
        setup.append(setup_probe(launcher))
        if busy >= seconds:
            return outcomes, setup


def end_to_end(outcomes: list[Outcome], setup: list[tuple[float, float]]) -> dict:
    """The metrics of BENCHMARK.json's end_to_end list.

    collatzq is a batch tool, so its end-to-end figure is work completed per
    unit of time by the closed-loop client: ops_per_ref.  Time is counted in
    reference loops (see Launcher): on a shared machine the same op's wall
    time swings by up to 2x between runs, its ratio to the loop much less.
    Failed ops count in the time but not in the ops.  Per-kind medians, in
    seconds and in reference loops, are in the report line (op_report).

    setup_s is the median setup probe in seconds at the nominal speed: its
    time in reference loops times REF_NOMINAL_S.  The raw median is in the
    report line.
    """
    ok = [o for o in outcomes if o.ok]
    if not ok:
        raise Unrunnable("no op of the workload succeeded")
    return {
        "setup_s": {"value": statistics.median(r for _, r in setup) * REF_NOMINAL_S, "unit": "s"},
        "ops_per_ref": {"value": len(ok) / sum(o.wall_ref for o in outcomes), "unit": "1/ref"},
        "peak_rss_mb": {"value": max(o.rss_mb for o in outcomes), "unit": "MB"},
    }


def op_report(outcomes: list[Outcome], setup: list[tuple[float, float]]) -> dict:
    """Per-kind figures in seconds and in reference loops, for the record."""
    metrics = {}
    kinds = {}
    for kind in dict.fromkeys(o.kind for o in outcomes):
        mine = [o for o in outcomes if o.kind == kind]
        ok = [o for o in mine if o.ok]
        kinds[kind] = {"ops": len(mine), "failed": len(mine) - len(ok)}
        if ok:
            metrics[f"p50_s.{kind}"] = {"value": statistics.median(o.wall_s for o in ok), "unit": "s"}
            metrics[f"p50_ref.{kind}"] = {"value": statistics.median(o.wall_ref for o in ok),
                                          "unit": "ref"}
    metrics["setup_wall_s"] = {"value": statistics.median(w for w, _ in setup), "unit": "s"}
    metrics["ops_per_s"] = {"value": sum(o.ok for o in outcomes) / sum(o.wall_s for o in outcomes),
                            "unit": "1/s"}
    metrics["error_rate"] = {"value": sum(not o.ok for o in outcomes) / len(outcomes),
                             "unit": "ratio"}
    sweeps = [o for o in outcomes if o.ok and o.kind in workloads.SWEEP_KINDS]
    if sweeps:
        elements = sum(o.envelope["result"]["elements_checked"] for o in sweeps)
        metrics["elements_per_s"] = {"value": elements / sum(o.wall_s for o in sweeps),
                                     "unit": "1/s"}
    return {
        "kinds": kinds,
        "metrics": metrics,
        "ops": [{"kind": o.kind, "argv": o.argv, "wall_s": o.wall_s, "wall_ref": o.wall_ref,
                 "rss_mb": o.rss_mb, "exit": o.exit, "stderr_tail": o.stderr_tail,
                 "problem": o.problem}
                for o in outcomes],
    }


def git_sha() -> str | None:
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(nproc: int) -> dict:
    return {"nproc": nproc, "python": platform.python_version(),
            "git_sha": git_sha(), "loadavg": os.getloadavg(), "platform": platform.platform()}


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def benchmark(args, launcher: Launcher, nproc: int) -> bool:
    setup_probe(launcher)  # raises, before anything is printed, if collatzq cannot run
    emit({"environment": environment(nproc),
          "args": {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace}})
    if args.trace:
        result = tracing.run(ROOT, child_env(), args.seed, args.seconds, launcher.tmp, nproc)
        emit({"spans": result.spans, "self_time": result.self_time,
              "problems": result.problems})
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result.metrics.items()}
        correct, attempted, failed = not result.wrong, result.attempted, result.failed
    else:
        outcomes, setup = run_workload(args.workload, args.seed, args.seconds, launcher, nproc)
        metrics = end_to_end(outcomes, setup)
        emit({"workload": args.workload, **op_report(outcomes, setup)})
        correct = not any(o.problem for o in outcomes)
        attempted, failed = len(outcomes), sum(not o.ok for o in outcomes)
    emit({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
    return correct


def smoke(launcher: Launcher, nproc: int) -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.KINDS:
        outcomes, setup = run_workload(workload, 0, 0, launcher, nproc, tiny=True)
        report = op_report(outcomes, setup)
        emit({"smoke": workload, "kinds": report["kinds"], "metrics": report["metrics"]})
        problems += [f"{workload}: {o.kind} {o.argv}: {o.problem}" for o in outcomes if o.problem]
        if set(report["kinds"]) != set(workloads.KINDS[workload]):
            problems.append(f"{workload}: ran kinds {sorted(report['kinds'])}")
        names = set(end_to_end(outcomes, setup))
        if names != {m["name"] for m in spec["end_to_end"]}:
            problems.append(f"{workload}: end-to-end names {sorted(names)} differ from BENCHMARK.json")
    result = tracing.run(ROOT, child_env(), 0, 0, launcher.tmp, nproc, tiny=True)
    emit({"smoke": "traced", "attempted": result.attempted, "failed": result.failed})
    problems += result.problems
    if set(result.metrics) != {m["name"] for m in spec["per_layer"]}:
        problems.append("per-layer names differ from BENCHMARK.json: "
                        f"{sorted(set(result.metrics) ^ {m['name'] for m in spec['per_layer']})}")
    if {w["name"] for w in spec["workloads"]} != set(workloads.KINDS):
        problems.append("workload names differ from BENCHMARK.json")
    emit({"smoke": "done", "problems": problems})
    return not problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.KINDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, names check")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    nproc = len(os.sched_getaffinity(0))
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        with Launcher(tmp, nproc) as launcher:
            ok = smoke(launcher, nproc) if args.smoke else benchmark(args, launcher, nproc)
    except Unrunnable as exc:
        print(f"bench: cannot run collatzq: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
