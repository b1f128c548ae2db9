"""Each invocation loads only the modules it runs.

Every case runs in a fresh interpreter, because the suite itself has long
since imported every submodule.
"""

import json
import subprocess
import sys
import textwrap

import pytest

SWEEP_AND_POOL = [
    "collatzq.verify",
    "collatzq.quotient",
    "collatzq.bookkeeping",
    "collatzq.cache",
    "concurrent.futures.process",
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
    out = modules_after_main(child_env, ["verify", "lemmas", "--bound", "100"])
    assert out["code"] == 0
    assert "collatzq.verify" in out["modules"]
    assert "concurrent.futures.process" not in out["modules"]


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
def test_verify_range_loads_the_pool_only_for_workers(child_env, jobs):
    argv = ["verify", "range", "--from", "1", "--to", "30000", "--jobs", jobs]
    out = modules_after_main(child_env, argv)
    assert out["code"] == 0
    assert ("concurrent.futures.process" in out["modules"]) == (jobs != "1")


def test_verify_range_on_one_core_runs_in_process(child_env):
    # With one core a pool would hold one process, so none is started.
    out = run_child(child_env, """
        import contextlib, io, json, os, sys
        from collatzq import cli

        os.cpu_count = lambda: 1

        def run(jobs):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["verify", "range", "--from", "1000001", "--to", "1100000",
                                 "--jobs", jobs])
            return [code, json.loads(buf.getvalue())["result"]]

        two = run("2")
        pooled = "concurrent.futures.process" in sys.modules
        print(json.dumps({"two": two, "pooled": pooled, "one": run("1")}))
    """)
    assert out["pooled"] is False
    assert out["two"] == out["one"]
    assert out["one"][0] == 0


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
                        "collatzq.cache", "collatzq.verify"])
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
