"""Each invocation loads only the modules it runs.

Every case runs in a fresh interpreter, because the suite itself has long
since imported every submodule.
"""

import json
import subprocess
import sys
import textwrap

import pytest

POOL = ["concurrent.futures.process", "multiprocessing"]
SWEEP_AND_POOL = [
    "collatzq.verify",
    "collatzq.lemmas",
    "collatzq.quotient",
    "collatzq.bookkeeping",
    "collatzq.cache",
    *POOL,
]


def run_child(env, code):
    """Run `code` in a fresh interpreter; return what it prints as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after_main(env, argv):
    """Run cli.main(argv) in a fresh interpreter: its exit code, every module
    loaded when it returns, and the modules loaded before collatzq was."""
    return run_child(env, f"""
        import contextlib, io, json, sys
        preloaded = sorted(sys.modules)
        from collatzq import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main({argv!r})
        print(json.dumps({{"code": code, "modules": sorted(sys.modules),
                          "preloaded": preloaded}}))
    """)


def test_package_import_loads_no_submodule(child_env):
    loaded = run_child(child_env, """
        import json, sys
        import collatzq
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("collatzq."))))
    """)
    assert loaded == []


def test_map_loads_neither_sweep_nor_pool(child_env):
    out = modules_after_main(child_env, ["map", "1", "--op", "T"])
    assert out["code"] == 0
    assert "collatzq.core" in out["modules"]
    assert [m for m in SWEEP_AND_POOL if m in out["modules"]] == []


def test_verify_lemmas_loads_no_pool(child_env):
    # The suite imports its module directly: neither a sweep nor its tables.
    out = modules_after_main(child_env, ["verify", "lemmas", "--bound", "100"])
    assert out["code"] == 0
    assert "collatzq.lemmas" in out["modules"]
    unwanted = ["collatzq.verify", "collatzq.jump", "collatzq.prefix", *POOL]
    assert [m for m in unwanted if m in out["modules"]] == []


@pytest.mark.parametrize("argv, runs", [
    (["verify", "range", "--from", str(10**12 + 1), "--to", str(10**12 + 100_000)],
     "collatzq.verify"),
    (["verify", "range", "--from", str(2**64 + 1), "--to", str(2**64 + 100_000)],
     "collatzq.verify"),
    (["verify", "lemmas", "--bound", "100"], "collatzq.lemmas"),
], ids=["range-1e12", "range-2^64", "lemmas"])
def test_sweeps_above_one_and_lemmas_skip_the_prefix_pass(child_env, argv, runs):
    out = modules_after_main(child_env, argv)
    assert out["code"] == 0
    assert runs in out["modules"]
    assert "collatzq.prefix" not in out["modules"]


@pytest.mark.parametrize("argv", [
    ["verify", "range", "--from", "1", "--to", "30000"],
    ["verify", "range", "--from", str(10**12 + 1), "--to", str(10**12 + 100_000)],
], ids=["from-1", "above-1"])
def test_verify_range_loads_neither_the_suite_nor_quotient(child_env, argv):
    out = modules_after_main(child_env, argv)
    assert out["code"] == 0
    assert "collatzq.verify" in out["modules"]
    assert [m for m in ["collatzq.lemmas", "collatzq.quotient"] if m in out["modules"]] == []


def test_lemma_names_resolve_through_verify_lazily(child_env):
    through_package = run_child(child_env, """
        import json, sys
        import collatzq
        collatzq.run_lemma_suite
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("collatzq."))))
    """)
    assert "collatzq.lemmas" in through_package
    assert "collatzq.verify" not in through_package
    out = run_child(child_env, """
        import json, sys
        from collatzq import verify
        on_import = "collatzq.lemmas" in sys.modules
        from collatzq import lemmas
        try:
            verify._CHECKS
            private = "resolved"
        except AttributeError as exc:
            private = str(exc)
        print(json.dumps({
            "on_import": on_import,
            "same": [verify.run_lemma_suite is lemmas.run_lemma_suite,
                     verify.LemmaCheckResult is lemmas.LemmaCheckResult,
                     verify.CHECK_IDS is lemmas.CHECK_IDS],
            "private": private,
        }))
    """)
    assert out["on_import"] is False
    assert out["same"] == [True, True, True]
    # Only the suite's three public names are re-exported, never a private one.
    assert out["private"] == "module 'collatzq.verify' has no attribute '_CHECKS'"


def test_sweep_from_one_loads_the_prefix_pass(child_env):
    out = modules_after_main(child_env, ["verify", "range", "--from", "1", "--to", "30000"])
    assert out["code"] == 0
    assert "collatzq.prefix" in out["modules"]


@pytest.mark.parametrize("argv, loads_prefix", [
    (["census", "--n-max", "20", "--bound", "2000"], False),
    # The walk passes its budget, so the census counts a sweep's totals.
    (["census", "--n-max", "60", "--bound", "100"], True),
], ids=["walk", "sweep"])
def test_census_loads_the_prefix_pass_only_past_its_walk(child_env, argv, loads_prefix):
    out = modules_after_main(child_env, argv)
    assert out["code"] == 0
    assert ("collatzq.prefix" in out["modules"]) is loads_prefix
    assert "collatzq.verify" not in out["modules"]


@pytest.mark.parametrize("argv", [
    ["map", "1", "--op", "T"],
    ["class", "1", "--n", "5", "--bound", "1000", "--method", "bfs"],
    ["suffset", "--bound", "1000"],
    ["verify", "lemmas", "--bound", "100"],
    ["verify", "range", "--from", "1", "--to", "30000"],
    ["verify", "range", "--from", "1000001", "--to", "1100000"],
], ids=" ".join)
def test_commands_load_neither_dataclasses_nor_inspect(child_env, argv):
    # The records are named tuples; a @dataclass anywhere on a command's
    # path loads dataclasses and, through it, inspect.  Whatever the
    # interpreter's site already loaded does not count against collatzq.
    out = modules_after_main(child_env, argv)
    assert out["code"] == 0
    loaded = set(out["modules"]) - set(out["preloaded"])
    assert sorted(loaded & {"dataclasses", "inspect"}) == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_range_jobs_loads_no_pool(child_env, jobs):
    # --jobs selects nothing: a sweep from 1, and one above 1, run in-process.
    out = modules_after_main(child_env, ["verify", "range", "--from", "1", "--to", "30000",
                                         "--jobs", jobs])
    assert out["code"] == 0
    assert [m for m in POOL if m in out["modules"]] == []
    out = modules_after_main(child_env, ["verify", "range", "--from", "1000001",
                                         "--to", "1100000", "--jobs", jobs])
    assert out["code"] == 0
    assert [m for m in POOL if m in out["modules"]] == []


def sweep_with_cores(env, cores, lo, hi, jobs="1"):
    """Run `verify range --from LO --to HI` in a fresh interpreter with
    `cores` CPUs in its affinity mask: its exit code and result, and whether
    a pool module was loaded."""
    return run_child(env, f"""
        import contextlib, io, json, os, sys
        from collatzq import cli

        os.sched_getaffinity = lambda pid: set(range({cores}))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "range", "--from", "{lo}", "--to", "{hi}",
                             "--jobs", "{jobs}"])
        print(json.dumps({{"code": code, "result": json.loads(buf.getvalue())["result"],
                          "pooled": any(m in sys.modules for m in {POOL!r})}}))
    """)


def test_verify_range_loads_no_pool_on_a_wide_window(child_env):
    # 4e6 + 1 integers on two usable CPUs, wide enough for a pool to pay: in-process.
    out = sweep_with_cores(child_env, 2, 10**12 + 1, 10**12 + 4_000_001, jobs="2")
    assert (out["code"], out["pooled"]) == (0, False)


def test_verify_range_on_one_core_runs_in_process(child_env):
    two = sweep_with_cores(child_env, 1, 1000001, 1100000, jobs="2")
    assert two["pooled"] is False
    assert two == sweep_with_cores(child_env, 1, 1000001, 1100000, jobs="1")
    assert two["code"] == 0


def test_exports_resolve_to_their_home_objects(child_env):
    out = run_child(child_env, """
        import importlib, json
        import collatzq
        from collatzq import OrbitCache, verify_conjecture_range

        def home(name):
            obj = getattr(collatzq, name)
            module = getattr(obj, "__module__", None)
            if module is None:  # a plain value: the submodule that exports it
                module = next(
                    m.__name__ for m in map(importlib.import_module, [
                        "collatzq.core", "collatzq.quotient", "collatzq.bookkeeping",
                        "collatzq.cache", "collatzq.lemmas", "collatzq.verify"])
                    if name in m.__all__)
            return getattr(importlib.import_module(module), name) is obj

        names = [n for n in collatzq.__all__ if n != "__version__"]
        try:
            collatzq.no_such_name
            unknown = "resolved"
        except AttributeError as exc:
            unknown = str(exc)
        print(json.dumps({
            "mismatched": [n for n in names if not home(n)],
            "from_import": OrbitCache is collatzq.cache.OrbitCache
            and verify_conjecture_range is collatzq.verify.verify_conjecture_range,
            "not_in_dir": [n for n in collatzq.__all__ if n not in dir(collatzq)],
            "version": collatzq.__version__,
            "unknown": unknown,
        }))
    """)
    assert out["mismatched"] == []
    assert out["from_import"] is True
    assert out["not_in_dir"] == []
    assert out["version"] == "0.1.0"
    assert out["unknown"] == "module 'collatzq' has no attribute 'no_such_name'"
