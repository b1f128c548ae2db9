"""Golden envelopes: every subcommand's output, byte for byte.

Each case runs `cli.main` in-process and compares its exit code, stdout and
stderr with `golden_envelopes.json`.  Only the wall-clock fields vary from
run to run: the envelope's `timing` and each lemma check's `elapsed` are
masked in both JSON and CSV output before the comparison.

After a deliberate change to an envelope, rewrite the data with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of `golden_envelopes.json` like code.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from collatzq import LemmaCheckResult
from collatzq.cli import main

GOLDEN = Path(__file__).with_name("golden_envelopes.json")

# (id, argv, setup).  setup is None, "cold" (a fresh --cache file), "warm"
# (the same invocation run once before on the cache file), or
# "lemma-failures" (run_lemma_suite patched by _failing_suite).
_CASES = [
    ("orbit", ["orbit", "27"], None),
    ("orbit-trace", ["orbit", "7", "--trace"], None),
    ("orbit-truncated", ["orbit", "27", "--max-steps", "5"], None),
    ("map-T", ["map", "17"], None),
    ("map-xi", ["map", "5", "--op", "xi"], None),
    ("map-tau", ["map", "5", "--op", "tau"], None),
    ("map-S", ["map", "1", "--op", "S", "--k", "3"], None),
    ("map-f-back", ["map", "5", "--op", "f", "--k", "-2"], None),
    ("map-f-forward", ["map", "7", "--op", "f", "--k", "4"], None),
    ("map-big", ["map", str(2**80 + 1), "--op", "tau"], None),
    ("preimage", ["preimage", "5", "--bound", "1000"], None),
    ("preimage-u0", ["preimage", "5", "--bound", "1000", "--u0-only"], None),
    ("class-scan", ["class", "17", "--n", "1", "--bound", "300"], None),
    ("class-bfs", ["class", "17", "--n", "2", "--bound", "300", "--method", "bfs"], None),
    ("class-inf", ["class-inf", "7", "--bound", "60", "--cap", "200"], None),
    ("delta-n", ["delta", "7", "--n", "6"], None),
    ("delta-default", ["delta", "43"], None),
    ("delta-sequence", ["delta", "7", "--sequence", "--max-n", "5"], None),
    ("merge", ["merge", "7", "17", "--cap", "100"], None),
    ("merge-undecided", ["merge", "7", "17", "--cap", "3"], None),
    ("tstar", ["tstar", "7"], None),
    ("partition", ["partition", "--bound", "60", "--n", "1"], None),
    ("witness", ["witness", "7", "--n", "1"], None),
    ("matrix", ["matrix", "7", "--k-min", "-1", "--k-max", "1", "--n-max", "2",
                "--bound", "100"], None),
    ("census", ["census", "--n-max", "3", "--bound", "100"], None),
    ("suffset", ["suffset", "--bound", "300"], None),
    ("suffset-members", ["suffset", "--bound", "100", "--members"], None),
    ("appendix-class", ["appendix-class", "7", "--bound", "30", "--k-range", "2",
                        "--cap", "200"], None),
    ("verify-lemmas", ["verify", "lemmas", "--bound", "150", "--n-cap", "10",
                       "--seed", "4"], None),
    ("verify-lemmas-failures", ["verify", "lemmas", "--bound", "100"], "lemma-failures"),
    ("verify-range-prefix", ["verify", "range", "--from", "1", "--to", "200"], None),
    ("verify-range-above", ["verify", "range", "--from", "1001", "--to", "3000"], None),
    ("verify-range-2-64", ["verify", "range", "--from", str(2**64),
                           "--to", str(2**64 + 300)], None),
    ("verify-range-truncated", ["verify", "range", "--from", "1", "--to", "100",
                                "--max-steps", "5"], None),
    ("orbit-cold", ["orbit", "27"], "cold"),
    ("orbit-warm", ["orbit", "27"], "warm"),
    ("orbit-trace-warm", ["orbit", "7", "--trace"], "warm"),
    ("orbit-truncated-cold", ["orbit", "27", "--max-steps", "5"], "cold"),
    ("verify-range-cold", ["verify", "range", "--from", "1", "--to", "300"], "cold"),
    ("verify-range-warm", ["verify", "range", "--from", "1", "--to", "300"], "warm"),
]

# Every case in both output formats; "--json" spells out the default.
CASES = [
    (f"{name}.{fmt}", [*argv, f"--{fmt}"], setup)
    for name, argv, setup in _CASES
    for fmt in ("json", "csv")
]

_NUMBER = r"-?\d[\d.eE+-]*"
_MASKS = [
    (re.compile(rf'("(?:timing|elapsed)": ){_NUMBER}'), r'\1"*"'),
    (re.compile(rf"^((?:timing|result\.checks\.\d+\.elapsed),){_NUMBER}$", re.M), r"\1*"),
]


def mask(text):
    for pattern, repl in _MASKS:
        text = pattern.sub(repl, text)
    return text


def _failing_suite(bound, n_cap=50, sample_seed=0):
    # More failures than the envelope samples, holding every container and
    # scalar kind a failure payload may carry.
    failures = [
        {
            "x": 6 * i + 1,
            "pair": (i, -i),
            "path": [[i, True], None, (2**70 + i,)],
            "nested": {"y": i, "ok": False},
            "agrees": False,
            "note": None,
            "ratio": 0.5,
            "label": f"case {i}",
        }
        for i in range(23)
    ]
    return [
        LemmaCheckResult("L-TS", "stub failing check", 23, failures, 0.25),
        LemmaCheckResult("L-TSK", "stub passing check", 4, [], 0.0),
    ]


def run_case(argv, setup, tmpdir, patch):
    """Run one case; return (exit code, masked stdout, stderr)."""
    if setup in ("cold", "warm"):
        argv = [*argv, "--cache", str(Path(tmpdir) / "cache.jsonl"), "--quiet"]
    if setup == "lemma-failures":
        patch("collatzq.verify.run_lemma_suite", _failing_suite)
    runs = 2 if setup == "warm" else 1
    for _ in range(runs):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return code, mask(out.getvalue()), err.getvalue()


def test_case_ids_match_golden_data():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(case_id for case_id, _, _ in CASES)


@pytest.mark.parametrize(
    "case_id, argv, setup", CASES, ids=[case_id for case_id, _, _ in CASES]
)
def test_golden_envelope(case_id, argv, setup, tmp_path, monkeypatch):
    expected = json.loads(GOLDEN.read_text())[case_id]
    code, out, err = run_case(argv, setup, tmp_path, monkeypatch.setattr)
    assert (code, err) == (expected["exit"], "")
    assert out == expected["stdout"]


def test_mask_covers_exactly_the_wall_clock_fields():
    golden = json.loads(GOLDEN.read_text())
    for case_id, _, _ in CASES:
        out = golden[case_id]["stdout"]
        masked = out.count('"*"') if case_id.endswith(".json") else out.count(",*\n")
        checks = 2 if "failures" in case_id else 15 if "lemmas" in case_id else 0
        assert masked == 1 + checks, case_id


def _regenerate():
    data = {}
    for case_id, argv, setup in CASES:
        with tempfile.TemporaryDirectory() as tmpdir, pytest.MonkeyPatch.context() as mp:
            code, out, err = run_case(argv, setup, tmpdir, mp.setattr)
        if err:
            sys.exit(f"{case_id}: unexpected stderr: {err}")
        data[case_id] = {"exit": code, "stdout": out}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} envelopes to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
