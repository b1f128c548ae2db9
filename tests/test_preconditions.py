"""Every precondition message, pinned whole.

One case per check that rejects an argument with a DomainError: each
public entry point is called once with one argument out of range, and the
message must match exactly.  The 28 "must be >= floor" rules come first,
in module order, then the hand-worded ones.  Last come the refusals of
state that cannot fit in physical memory (ResourceLimitError), and a check
that the per-level and per-element estimates behind them cover what a
command holds.
"""

import os
import re
import subprocess
import sys

import pytest

from collatzq import bookkeeping, core, lemmas, quotient, verify
from collatzq.cli import main
from collatzq.errors import DomainError, ResourceLimitError


def case(id, call, text):
    return pytest.param(call, text, id=id)


AT_LEAST = [
    case("shift-k", lambda: core.shift(7, -1), "shift count must be >= 0, got -1"),
    case("preimages-bound", lambda: core.preimages(7, 0), "bound must be >= 1, got 0"),
    case("orbit-max_steps", lambda: core.orbit(7, max_steps=0),
         "max_steps must be >= 1, got 0"),
    case("class_n-level", lambda: quotient.class_n(7, -1, 10), "level must be >= 0, got -1"),
    case("class_n-bound", lambda: quotient.class_n(7, 1, 0), "bound must be >= 1, got 0"),
    case("delta_n-level", lambda: quotient.delta_n(7, -1), "level must be >= 0, got -1"),
    case("delta_sequence-n_max", lambda: quotient.delta_sequence(7, -1),
         "n_max must be >= 0, got -1"),
    case("merge-cap", lambda: quotient.merge(7, 5, 0), "cap must be >= 1, got 0"),
    case("delta_inf-n_cap", lambda: quotient.delta_inf(7, 0), "n_cap must be >= 1, got 0"),
    case("class_inf-bound", lambda: quotient.class_inf(7, 0, 10), "bound must be >= 1, got 0"),
    case("class_inf-cap", lambda: quotient.class_inf(7, 10, 0), "cap must be >= 1, got 0"),
    case("partition_n-bound", lambda: quotient.partition_n(0, 1), "bound must be >= 1, got 0"),
    case("partition_n-level", lambda: quotient.partition_n(10, -1),
         "level must be >= 0, got -1"),
    case("witness-level", lambda: quotient.strict_inclusion_witness(7, -1),
         "level must be >= 0, got -1"),
    case("witness-search_cap", lambda: quotient.strict_inclusion_witness(7, 1, 0),
         "search_cap must be >= 1, got 0"),
    case("class_matrices-n_max", lambda: bookkeeping.class_matrices(7, n_max=-1),
         "n_max must be >= 0, got -1"),
    case("class_matrices-bound", lambda: bookkeeping.class_matrices(7, bound=0),
         "bound must be >= 1, got 0"),
    case("connected_class-k_range", lambda: bookkeeping.connected_class(7, 10, -1, 5),
         "k_range must be >= 0, got -1"),
    case("connected_class-bound", lambda: bookkeeping.connected_class(7, 0, 2, 5),
         "bound must be >= 1, got 0"),
    case("connected_class-cap", lambda: bookkeeping.connected_class(7, 10, 2, 0),
         "cap must be >= 1, got 0"),
    case("sufficient_set_check-bound", lambda: bookkeeping.sufficient_set_check(0),
         "bound must be >= 1, got 0"),
    case("sufficient_set_members-bound", lambda: bookkeeping.sufficient_set_members(0),
         "bound must be >= 1, got 0"),
    case("census-n_max", lambda: bookkeeping.census_class_of_one(-1, 10),
         "n_max must be >= 0, got -1"),
    case("census-bound", lambda: bookkeeping.census_class_of_one(5, 0),
         "bound must be >= 1, got 0"),
    case("lemma_suite-n_cap", lambda: lemmas.run_lemma_suite(100, n_cap=0),
         "n_cap must be >= 1, got 0"),
    case("range-lo", lambda: verify.verify_conjecture_range(0, 10), "lo must be >= 1, got 0"),
    case("range-max_steps", lambda: verify.verify_conjecture_range(1, 10, max_steps=0),
         "max_steps must be >= 1, got 0"),
    case("range-workers", lambda: verify.verify_conjecture_range(1, 10, workers=0),
         "workers must be >= 1, got 0"),
]

HAND_WORDED = [
    case("lemma_suite-bound", lambda: lemmas.run_lemma_suite(99),
         "bound must be >= 100 for a meaningful suite, got 99"),
    case("range-empty", lambda: verify.verify_conjecture_range(10, 9),
         "range is empty: lo=10, hi=9"),
    case("class_matrices-window", lambda: bookkeeping.class_matrices(7, k_min=1),
         "window must straddle k=0, got [1, 3]"),
    case("class_n-method", lambda: quotient.class_n(7, 1, 10, method="dfs"),
         "unknown method 'dfs', expected 'scan' or 'bfs'"),
    case("collatz_step-odd", lambda: core.collatz_step(4),
         "x must be an odd positive integer, got 4"),
    case("xi-u0", lambda: core.xi(9), "y must not be divisible by 3, got 9"),
    case("merge-u0", lambda: quotient.merge(7, 9, 5), "z must not be divisible by 3, got 9"),
    case("nu2-positive", lambda: core.nu2(0), "nu2 requires a positive integer, got 0"),
]


@pytest.mark.parametrize("call, text", AT_LEAST + HAND_WORDED)
def test_message_is_exact(call, text):
    with pytest.raises(DomainError, match="^" + re.escape(text) + "$"):
        call()


def test_cli_k_rule_is_one_exact_line(capsys):
    # The CLI's other rule, --max-n without --sequence, is pinned in test_cli.
    assert main(["map", "7", "--op", "T", "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "collatzq: error: --k does not apply to op T\n")


# Physical memory is pinned, so the refusals read the same on every machine.
GIB = 1 << 30
LEVELS = 2**64 + 1  # past sys.maxsize: a list of that many levels cannot even be indexed

TOO_BIG = [
    case("census-levels", lambda: bookkeeping.census_class_of_one(LEVELS, 10),
         "a census of levels 0..18446744073709551617 needs about 9444732965739290428416 bytes, "
         "more than the 1073741824 bytes of physical memory"),
    case("delta_sequence-levels", lambda: quotient.delta_sequence(7, LEVELS),
         "a delta sequence of levels 0..18446744073709551617 needs about "
         "2361183241434822607104 bytes, more than the 1073741824 bytes of physical memory"),
    case("iterate-backward", lambda: core.iterate(7, -LEVELS),
         "a backward iteration of 18446744073709551617 steps needs about "
         "6917529027641081856 bytes, more than the 1073741824 bytes of physical memory"),
    case("connected_class-walk-back",
         lambda: bookkeeping.connected_class(7, 10, 40_000_000_000, 10**5),
         "a backward iteration of 40000000000 steps needs about 15000000000 bytes, "
         "more than the 1073741824 bytes of physical memory"),
    case("range-prefix", lambda: verify.verify_conjecture_range(1, 10**15),
         "a sweep of [1, 1000000000000000] needs about 1333333333398872 bytes, "
         "more than the 1073741824 bytes of physical memory"),
    case("lemma_suite-window", lambda: lemmas.run_lemma_suite(LEVELS),
         "a lemma suite over [1, 18446744073709551617] needs about 2361183241434822606976 "
         "bytes, more than the 1073741824 bytes of physical memory"),
    case("partition-window", lambda: quotient.partition_n(LEVELS, 3),
         "a partition of [1, 18446744073709551617] needs about 3935305402391371011840 bytes, "
         "more than the 1073741824 bytes of physical memory"),
    case("suffset-members", lambda: bookkeeping.sufficient_set_members(LEVELS),
         "a sufficient-set member list of [1, 18446744073709551617] needs about "
         "787061080478274202368 bytes, more than the 1073741824 bytes of physical memory"),
    case("class_matrices-cells", lambda: bookkeeping.class_matrices(7, k_max=LEVELS, bound=10),
         "a matrix of 202914184810805067831 cells over [1, 10] needs about "
         "113631943494050837985360 bytes, more than the 1073741824 bytes of physical memory"),
]


@pytest.mark.parametrize("call, text", TOO_BIG)
def test_refusal_is_exact(call, text, monkeypatch):
    monkeypatch.setattr(core, "_physical_memory", lambda: GIB)
    with pytest.raises(ResourceLimitError, match="^" + re.escape(text) + "$"):
        call()


LEVEL_BYTES = {"a census": 512, "a delta sequence": 128}


@pytest.mark.parametrize("argv, what", [
    (["census", "--n-max", str(LEVELS), "--bound", "10"], "a census"),
    (["delta", "7", "--sequence", "--max-n", str(LEVELS)], "a delta sequence"),
])
def test_cli_refuses_unfit_levels_in_one_line(capsys, monkeypatch, argv, what):
    monkeypatch.setattr(core, "_physical_memory", lambda: GIB)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"collatzq: error: {what} of levels 0..{LEVELS} needs about "
                            f"{LEVEL_BYTES[what] * (LEVELS + 1)} bytes, more than the {GIB} "
                            f"bytes of physical memory\n")


def test_census_past_its_walk_refuses_an_unfit_sweep_in_one_line(capsys, monkeypatch):
    # 61 levels fit, the walk passes its budget, and the sweep of [1, 100]
    # that would count first hits instead does not fit.
    monkeypatch.setattr(core, "_physical_memory", lambda: 40_000)
    assert main(["census", "--n-max", "60", "--bound", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("collatzq: error: a sweep of [1, 100] needs about 65672 bytes, "
                            "more than the 40000 bytes of physical memory\n")


@pytest.mark.parametrize("lo", [1, 3])
def test_sweep_refuses_findings_past_memory_in_one_line(capsys, monkeypatch, tmp_path, lo):
    # Just above the up-front charge of a sweep from 1 (one above 1 has none),
    # the truncations of --max-steps 1 outgrow memory within a few blocks or
    # one sieve period, while the default budget, which finds nothing, runs.
    from collatzq import jump, prefix

    have = prefix._prefix_bytes(300_000) + 1
    monkeypatch.setattr(core, "_physical_memory", lambda: have)
    path = tmp_path / "c.jsonl"
    argv = ["verify", "range", "--from", str(lo), "--to", "300000",
            *(["--cache", str(path)] if lo == 1 else [])]  # a cache serves sweeps from 1 only
    assert main([*argv, "--max-steps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    found, need = map(int, re.fullmatch(
        rf"collatzq: error: a sweep of \[{lo}, 300000\] with (\d+) findings so far needs about "
        rf"(\d+) bytes, more than the {have} bytes of physical memory\n", captured.err).groups())
    assert need == (have - 1 if lo == 1 else 0) + jump._FINDING_BYTES * found > have
    assert not path.exists()
    assert main([*argv, "--quiet"]) == 0


@pytest.mark.parametrize("argv", [
    ["map", "7", "--op", "f", "--k", str(-LEVELS)],
    ["appendix-class", "7", "--bound", "10", "--k-range", str(LEVELS)],
    ["matrix", "7", "--k-min", str(-LEVELS), "--bound", "10"],
], ids=["map", "appendix-class", "matrix"])
def test_cli_refuses_unfit_backward_iteration_in_one_line(capsys, monkeypatch, argv):
    # Each walked the tau chain until memory ran out.
    monkeypatch.setattr(core, "_physical_memory", lambda: GIB)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"collatzq: error: a backward iteration of {LEVELS} steps needs "
                            f"about {(3 + 3 * LEVELS) // 8} bytes, more than the {GIB} bytes "
                            f"of physical memory\n")


MATRIX_CELLS = (LEVELS + 4) * 11  # rows -3..LEVELS, levels 0..10


@pytest.mark.parametrize("argv, what, nbytes", [
    (["partition", "--bound", str(LEVELS), "--n", "3"], f"a partition of [1, {LEVELS}]",
     640 * core._u0_count(1, LEVELS)),
    (["suffset", "--members", "--bound", str(LEVELS)],
     f"a sufficient-set member list of [1, {LEVELS}]", 128 * core._u0_count(1, LEVELS)),
    (["matrix", "7", "--k-max", str(LEVELS), "--bound", "10"],
     f"a matrix of {MATRIX_CELLS} cells over [1, 10]", MATRIX_CELLS * (512 + 16 * 3)),
    (["verify", "lemmas", "--bound", str(10**15)], f"a lemma suite over [1, {10**15}]",
     128 * 10**15),
], ids=["partition", "suffset-members", "matrix", "lemmas"])
def test_cli_refuses_unfit_windows_in_one_line(capsys, monkeypatch, argv, what, nbytes):
    # Each grew its member lists, its rows or its preimage tables until memory
    # ran out.
    monkeypatch.setattr(core, "_physical_memory", lambda: GIB)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"collatzq: error: {what} needs about {nbytes} bytes, more than "
                            f"the {GIB} bytes of physical memory\n")


# A process's peak RSS counts the memory of its parent up to the exec, so
# the command runs under a bare interpreter, never under this test process.
_PEAK = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "collatzq", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss * 1024)
"""


def peak_rss(env, argv):
    """The peak resident bytes of one `python -m collatzq` run."""
    out = subprocess.run([sys.executable, "-c", _PEAK, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    code, peak = map(int, out.split())
    assert code == 0
    return peak


def estimate(call):
    """The bytes that call's refusal names, with no physical memory to fit in."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_physical_memory", lambda: 0)
        with pytest.raises(ResourceLimitError) as exc:
            call()
    return int(re.search(r"needs about (\d+) bytes", str(exc.value)).group(1))


@pytest.mark.parametrize("argv, call", [
    (["delta", "7", "--sequence", "--max-n", "300000"],
     lambda: quotient.delta_sequence(7, 300_000)),
    (["census", "--n-max", "100000", "--bound", "100"],
     lambda: bookkeeping.census_class_of_one(100_000, 100)),
    (["partition", "--bound", "300000", "--n", "3"], lambda: quotient.partition_n(300_000, 3)),
    (["verify", "lemmas", "--bound", "100000"], lambda: lemmas.run_lemma_suite(100_000)),
    (["suffset", "--members", "--bound", "1000000"],
     lambda: bookkeeping.sufficient_set_members(1_000_000)),
    # From k = 0, so no backward iteration is charged first.
    (["matrix", "7", "--k-min", "0", "--k-max", "5000", "--bound", "10"],
     lambda: bookkeeping.class_matrices(7, k_min=0, k_max=5_000, bound=10)),
    (["matrix", "7", "--k-min", "0", "--k-max", "1000", "--bound", "1000"],
     lambda: bookkeeping.class_matrices(7, k_min=0, k_max=1_000, bound=1_000)),
], ids=["delta-sequence", "census", "partition", "lemmas", "suffset-members",
        "matrix-bound-10", "matrix-bound-1000"])
def test_estimate_covers_the_measured_peak(child_env, argv, call):
    # What the command holds beyond a command that holds nothing.
    held = peak_rss(child_env, argv) - peak_rss(child_env, ["map", "1", "--op", "T"])
    assert held <= estimate(call)
