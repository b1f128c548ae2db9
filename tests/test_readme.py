"""The README's shell examples, run as written."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from collatzq import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def fold_script():
    """The Python that the README's split-and-fold example feeds to python3."""
    return re.search(r"python3 - part\*\.json <<'EOF'\n(.*?)\nEOF\n", README.read_text(),
                     re.S).group(1)


def sweep(capsys, tmp_path, name, lo, hi, max_steps=10_000):
    assert cli.main(["verify", "range", "--from", str(lo), "--to", str(hi),
                     "--max-steps", str(max_steps)]) in (0, 3)
    out = capsys.readouterr().out
    path = tmp_path / name
    path.write_text(out)
    return path, json.loads(out)["result"]


def fold(tmp_path, paths):
    script = tmp_path / "fold.py"
    script.write_text(fold_script())
    return subprocess.run([sys.executable, str(script), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("max_steps", [9, 10_000])
def test_fold_of_contiguous_parts_equals_one_sweep(capsys, tmp_path, max_steps):
    lo, m, hi = 10**12 + 1, 10**12 + 70_000, 10**12 + 150_000
    _, whole = sweep(capsys, tmp_path, "whole.json", lo, hi, max_steps)
    # Passed out of order, as a shell glob may list them.
    right, _ = sweep(capsys, tmp_path, "part1.json", m + 1, hi, max_steps)
    left, _ = sweep(capsys, tmp_path, "part0.json", lo, m, max_steps)
    proc = fold(tmp_path, [right, left])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == whole


@pytest.mark.parametrize("parts, message", [
    ([(2_000, 2_999), (3_001, 4_000)], "fold: a part ends at 2999 but the next starts at 3001"),
    ([(2_000, 3_000), (3_000, 4_000)], "fold: a part ends at 3000 but the next starts at 3000"),
    ([(1, 999), (1_000, 2_000)], "fold: a part starts at 1, and only sweeps above 1 fold"),
    ([(1_000, 1_999, 40), (2_000, 3_000, 10_000)],
     "fold: the parts were swept with different --max-steps"),
], ids=["gap", "overlap", "from-one", "mixed-max-steps"])
def test_fold_refuses_a_bad_split(capsys, tmp_path, parts, message):
    paths = [sweep(capsys, tmp_path, f"part{i}.json", *part)[0] for i, part in enumerate(parts)]
    proc = fold(tmp_path, paths)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message + "\n")
