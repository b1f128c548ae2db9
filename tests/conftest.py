"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def no_ambient_cache(monkeypatch):
    """Ignore the caller's COLLATZ_CACHE: no test reads or writes the user's
    cache unless it sets the variable itself.  child_env copies os.environ
    after this has run, so spawned CLIs do not see it either."""
    monkeypatch.delenv("COLLATZ_CACHE", raising=False)


@pytest.fixture
def child_env():
    """Environment for a child Python that imports the `collatzq` under test.

    The child's PYTHONPATH is led by the source root of the `collatzq` the
    tests import, so the child runs the same code even when another copy is
    installed or the suite was started without PYTHONPATH.
    """
    import collatzq

    source_root = str(Path(collatzq.__file__).resolve().parents[1])
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([source_root] + ([pythonpath] if pythonpath else []))
    return env


@pytest.fixture
def run_module(child_env):
    """Run `python -m collatzq ARGS...` in a child process (see child_env)."""

    def _run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "collatzq", *argv],
            capture_output=True,
            text=True,
            env=child_env,
        )

    return _run
