"""CLI envelope, exit codes, cache plumbing, output formats."""

import argparse
import importlib.metadata
import json
import shutil
import subprocess
import sys
import sysconfig

import pytest

from collatzq import LemmaCheckResult, OrbitCache, SufficientSetReport
from collatzq import cli as cli_mod
from collatzq import core
from collatzq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class TestWorkedExamples:
    def test_orbit_17(self, capsys):
        code, env, _ = run_json(capsys, "orbit", "17")
        assert code == 0
        assert env["command"] == "orbit"
        assert env["result"]["steps_to_one"] == 3
        assert env["result"]["max_excursion"] == "17"

    def test_map_tau_5(self, capsys):
        code, env, _ = run_json(capsys, "map", "5", "--op", "tau")
        assert code == 0
        assert env["result"]["value"] == "13"

    def test_census_counts(self, capsys):
        code, env, _ = run_json(capsys, "census", "--n-max", "2", "--bound", "100")
        assert code == 0
        assert [c["count"] for c in env["result"]["counts"]] == [1, 3, 5]

    def test_map_defaults_to_step(self, capsys):
        _, env, _ = run_json(capsys, "map", "17")
        assert env["result"]["value"] == "13"

    def test_map_shift_k(self, capsys):
        _, env, _ = run_json(capsys, "map", "1", "--op", "S", "--k", "3")
        assert env["result"]["value"] == "85"

    def test_map_two_sided(self, capsys):
        _, env, _ = run_json(capsys, "map", "5", "--op", "f", "--k", "-2")
        assert env["result"]["value"] == "17"

    def test_orbit_trace(self, capsys):
        _, env, _ = run_json(capsys, "orbit", "7", "--trace")
        assert env["result"]["trajectory"] == ["7", "11", "17", "13", "5", "1"]

    def test_preimage(self, capsys):
        _, env, _ = run_json(capsys, "preimage", "5", "--bound", "100")
        assert env["result"]["preimages"] == ["3", "13", "53"]

    def test_class_bfs(self, capsys):
        _, env, _ = run_json(
            capsys, "class", "17", "--n", "1", "--bound", "300", "--method", "bfs"
        )
        assert env["result"]["members"] == ["17", "277"]

    def test_delta_sequence(self, capsys):
        _, env, _ = run_json(capsys, "delta", "7", "--sequence", "--max-n", "5")
        assert env["result"]["values"] == ["7", "7", "7", "7", "7", "1"]
        assert env["result"]["stabilization_index"] == 5

    def test_witness(self, capsys):
        _, env, _ = run_json(capsys, "witness", "7", "--n", "1")
        assert env["result"]["witness"] == "241"

    def test_matrix_rows(self, capsys):
        _, env, _ = run_json(
            capsys, "matrix", "7", "--k-min", "-1", "--k-max", "1", "--n-max", "2"
        )
        rows = {row["k"]: row for row in env["result"]["rows"]}
        assert rows[-1]["minima"] == ["37", "37", "19"]
        assert rows[0]["minima"] == ["7", "7", "7"]
        assert rows[1]["minima"] == ["11", "11", "11"]

    def test_suffset(self, capsys):
        code, env, _ = run_json(capsys, "suffset", "--bound", "1000")
        assert code == 0
        assert env["result"]["violation_count"] == 0

    def test_appendix_class(self, capsys):
        _, env, _ = run_json(
            capsys, "appendix-class", "7", "--bound", "30", "--k-range", "2", "--cap", "200"
        )
        assert env["result"]["exact_within_bound"] is True
        assert "7" in env["result"]["members"]

    def test_verify_lemmas_small(self, capsys):
        code, env, _ = run_json(
            capsys, "verify", "lemmas", "--bound", "150", "--n-cap", "10", "--seed", "4"
        )
        assert code == 0
        assert env["result"]["all_passed"] is True
        assert len(env["result"]["checks"]) == 15

    def test_verify_range(self, capsys):
        code, env, _ = run_json(capsys, "verify", "range", "--from", "1", "--to", "1000")
        assert code == 0
        assert env["result"]["all_reach_one"] is True
        assert env["result"]["elements_checked"] == 333
        assert env["result"]["max_steps_observed"] == 65

    def test_verify_range_above_two_to_the_64(self, capsys):
        lo, hi = 2**64, 2**64 + 1_000
        code, env, _ = run_json(capsys, "verify", "range", "--from", str(lo), "--to", str(hi))
        assert code == 0
        assert env["result"]["all_reach_one"] is True

        def u0_upto(n):  # how many of 1..n are 1 or 5 mod 6
            return 2 * (n // 6) + (n % 6 >= 1) + (n % 6 >= 5)

        assert env["result"]["elements_checked"] == u0_upto(hi) - u0_upto(lo - 1) == 334


class TestEnvelope:
    def test_canonical_round_trip_bytes(self, capsys):
        for argv in [
            ("orbit", "27"),
            ("class", "17", "--n", "1", "--bound", "300"),
            ("verify", "range", "--from", "1", "--to", "200"),
            ("partition", "--bound", "60", "--n", "1"),
        ]:
            _, out, _ = run_cli(capsys, *argv)
            assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_json_text_is_not_built_twice(self):
        # A census envelope of 10^5 rows: dumps with indent would hold a list
        # of every chunk beside the text, about 9 times the text.
        import tracemalloc

        rows = [{"level": n, "count": 3 * n} for n in range(10**5)]
        env = {"command": "census", "parameters": {"n_max": 10**5 - 1, "bound": 100},
               "result": {"counts": rows}, "timing": 0.5}
        want = json.dumps(env, indent=2) + "\n"
        tracemalloc.start()
        try:
            got = cli_mod._emit_json(env)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 3 * len(want)

    def test_csv_rows_are_streamed(self):
        # A census envelope of 10^4 rows: a list of every (key, value) row
        # beside the text would hold about 10 times the text.
        import tracemalloc

        rows = [{"level": n, "count": 3 * n} for n in range(10**4)]
        env = {"command": "census", "parameters": {"n_max": 10**4 - 1, "bound": 100},
               "result": {"counts": rows}, "timing": 0.5}
        want = "key,value\n" + "".join(f"{k},{v}\n" for k, v in cli_mod._flatten(env, ""))
        tracemalloc.start()
        try:
            got = cli_mod._emit_csv(env)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 6 * len(want)

    def test_envelope_shape(self, capsys):
        _, env, _ = run_json(capsys, "merge", "7", "17", "--cap", "100")
        assert list(env.keys()) == ["command", "parameters", "result", "timing"]
        assert env["parameters"] == {"x": "7", "z": "17", "cap": 100}
        assert env["result"]["merge_time"] == 5
        assert isinstance(env["timing"], float)

    def test_csv_contains_same_content(self, capsys):
        _, json_out, _ = run_cli(capsys, "class", "17", "--n", "1", "--bound", "300")
        env = json.loads(json_out)
        code, csv_out, _ = run_cli(
            capsys, "class", "17", "--n", "1", "--bound", "300", "--csv"
        )
        assert code == 0
        rows = {}
        lines = csv_out.strip().splitlines()
        assert lines[0] == "key,value"
        for line in lines[1:]:
            key, value = line.split(",", 1)
            rows[key] = value
        for key, value in cli_mod._flatten(env, ""):
            if key == "timing":
                continue
            assert rows[key] == value

    def test_failure_payloads_keep_structural_ints(self):
        # Inside "failures" every int is a number unless its key is structural.
        failures = [
            {"x": 1, "k": 1, "step": 1},
            {"x": 7, "n": 3, "witness": 241},
            {"x": 7, "z": 9, "merge_time": 4, "image_merge_time": 5},
            {"x": 5, "tau": 13, "nu2": 6},
        ]
        assert cli_mod._encode({"failures": failures}) == {"failures": [
            {"x": "1", "k": 1, "step": "1"},
            {"x": "7", "n": 3, "witness": "241"},
            {"x": "7", "z": "9", "merge_time": 4, "image_merge_time": 5},
            {"x": "5", "tau": "13", "nu2": 6},
        ]}

    def test_stdout_has_exactly_one_envelope(self, capsys):
        _, out, _ = run_cli(capsys, "orbit", "17")
        assert out.count('"command"') == 1
        assert out.endswith("\n") and not out.endswith("\n\n")


class TestExitCodes:
    def test_usage_error_unknown_command(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_usage_error_missing_required(self, capsys):
        code, _, err = run_cli(capsys, "class", "17")
        assert code == 1

    def test_usage_error_no_command(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_domain_error_xi_of_multiple_of_three(self, capsys):
        code, out, err = run_cli(capsys, "map", "9", "--op", "xi")
        assert code == 2
        assert out == ""
        assert "divisible by 3" in err

    def test_domain_error_even_input(self, capsys):
        assert run_cli(capsys, "orbit", "6")[0] == 2

    @pytest.mark.parametrize("level", [(), ("--n", "2")])
    def test_delta_max_n_only_with_sequence(self, capsys, level):
        code, out, err = run_cli(capsys, "delta", "7", *level, "--max-n", "3")
        assert (code, out) == (2, "")
        assert err == "collatzq: error: --max-n applies only with --sequence\n"

    def test_delta_sequence_max_n_defaults_to_ten(self, capsys):
        _, env, _ = run_json(capsys, "delta", "7", "--sequence")
        assert env["parameters"]["max_n"] == 10
        assert len(env["result"]["values"]) == 11

    def test_resource_error(self, capsys):
        code, _, err = run_cli(capsys, "witness", "7", "--n", "1", "--search-cap", "10")
        assert code == 2
        assert "search_cap" in err

    def test_resource_error_class_bfs_over_budget(self, capsys):
        code, out, err = run_cli(capsys, "class", "7", "--n", "60", "--bound", "100",
                                 "--method", "bfs")
        assert code == 2
        assert out == ""
        assert err.startswith("collatzq: error: preimage-tree walk of level 60")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n, charge, room", [
        # 3**29999 * 101 >> 29999 has 17555 bits: 275 words a node.
        ("30000", "275", 238),
        # Not one node fits, so the pruning bound is never built, only
        # bounded below.
        ("10000000", "at least 91401", 0),
    ])
    def test_class_bfs_budget_message_says_what_was_charged(self, capsys, n, charge, room):
        code, out, err = run_cli(capsys, "class", "7", "--n", n, "--bound", "100",
                                 "--method", "bfs")
        assert code == 2
        assert out == ""
        assert err == (
            f"collatzq: error: preimage-tree walk of level {n} within [1, 100] passed its "
            f"budget at depth 1: a node there is charged {charge} 64-bit words, so the "
            f"level's 65570 words hold {room} nodes; method 'scan' computes the same class\n"
        )

    @pytest.mark.parametrize("cached", [False, True])
    def test_resource_error_oversized_prefix_sweep(self, capsys, tmp_path, cached):
        argv = ["verify", "range", "--from", "1", "--to", str(10**15), "--jobs", "2"]
        if cached:
            argv += ["--cache", str(tmp_path / "c.jsonl"), "--quiet"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("collatzq: error: a sweep of [1, 1000000000000000] needs")
        assert "physical memory" in err

    def test_finding_truncated_range(self, capsys):
        code, env, _ = run_json(
            capsys, "verify", "range", "--from", "1", "--to", "100", "--max-steps", "10"
        )
        assert code == 3
        assert env["result"]["truncated_elements"] == ["31", "47", "71", "91"]

    def test_finding_lemma_failure(self, capsys, monkeypatch):
        def fake_suite(bound, n_cap=50, sample_seed=0):
            return [
                LemmaCheckResult(
                    check_id="L-TS",
                    range_description="stub",
                    instances_tested=1,
                    failures=[{"x": 3, "left": 5, "right": 7}],
                    elapsed=0.0,
                )
            ]

        monkeypatch.setattr("collatzq.verify.run_lemma_suite", fake_suite)
        code, env, _ = run_json(capsys, "verify", "lemmas", "--bound", "100")
        assert code == 3
        assert env["result"]["all_passed"] is False
        assert env["result"]["checks"][0]["failures"] == [
            {"x": "3", "left": "5", "right": "7"}
        ]

    def test_finding_suffset_violation(self, capsys, monkeypatch):
        def fake_check(bound):
            return SufficientSetReport(
                bound=bound,
                violations=[85],
                tau_nu2_histogram={"1": 0, "2": 0, "3": 0, "4": 0, "other": 1},
            )

        monkeypatch.setattr("collatzq.bookkeeping.sufficient_set_check", fake_check)
        code, env, _ = run_json(capsys, "suffset", "--bound", "100")
        assert code == 3
        assert env["result"]["violations"] == ["85"]

    def test_internal_error_exits_four_in_one_line(self, capsys, monkeypatch):
        def broken_merge(x, z, cap):
            raise RuntimeError("merge state lost")

        monkeypatch.setattr("collatzq.quotient.merge", broken_merge)
        code, out, err = run_cli(capsys, "merge", "7", "17")
        assert code == 4
        assert out == ""
        assert err == "collatzq: internal error: RuntimeError: merge state lost\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="relies on Linux honouring RLIMIT_AS for the child")
    def test_out_of_memory_exits_two_in_one_line(self, child_env):
        import resource

        limit = 120 * 2**20

        def cap_address_space():  # runs in the child only, before exec
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "collatzq", "census", "--n-max", "400000", "--bound", "100"],
            capture_output=True, text=True, env=child_env, preexec_fn=cap_address_space,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "collatzq: error: out of memory\n"

    def test_corrupt_cache_exits_two_naming_line(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"format": "collatz-cache", "version": 1}\n'
            '{"x": "5", "steps": "bad", "max": "5"}\n'
        )
        code, out, err = run_cli(capsys, "orbit", "17", "--cache", str(path))
        assert code == 2
        assert out == ""
        assert "line 2" in err and str(path) in err


class TestCachePlumbing:
    def test_orbit_cache_stats_and_reuse(self, capsys, tmp_path):
        path = str(tmp_path / "c.jsonl")
        code, env, err = run_json(capsys, "orbit", "27", "--cache", path)
        assert code == 0
        assert env["cache_stats"] == {"hits": 0, "misses": 1}
        assert "created new cache file" in err
        code, env2, err2 = run_json(capsys, "orbit", "27", "--cache", path)
        assert env2["cache_stats"] == {"hits": 1, "misses": 0}
        assert env2["result"] == env["result"]
        assert err2 == ""

    def test_quiet_suppresses_creation_notice(self, capsys, tmp_path):
        path = str(tmp_path / "c.jsonl")
        _, _, err = run_cli(capsys, "orbit", "17", "--cache", path, "--quiet")
        assert err == ""

    def test_env_var_used(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("COLLATZ_CACHE", str(path))
        _, env, _ = run_json(capsys, "orbit", "17")
        assert env["cache_stats"] == {"hits": 0, "misses": 1}
        assert path.exists()
        assert OrbitCache(path).lookup(17) is not None

    def test_flag_overrides_env_var(self, capsys, tmp_path, monkeypatch):
        env_path = tmp_path / "env.jsonl"
        flag_path = tmp_path / "flag.jsonl"
        monkeypatch.setenv("COLLATZ_CACHE", str(env_path))
        run_json(capsys, "orbit", "17", "--cache", str(flag_path))
        assert flag_path.exists()
        assert not env_path.exists()

    def test_no_cache_no_stats(self, capsys, monkeypatch):
        monkeypatch.delenv("COLLATZ_CACHE", raising=False)
        _, env, _ = run_json(capsys, "orbit", "17")
        assert "cache_stats" not in env

    def test_trace_checks_and_stores_like_any_orbit(self, capsys, tmp_path):
        path = str(tmp_path / "c.jsonl")
        _, env, _ = run_json(capsys, "orbit", "7", "--trace", "--cache", path)
        assert env["cache_stats"] == {"hits": 0, "misses": 1}
        _, env2, _ = run_json(capsys, "orbit", "7", "--trace", "--cache", path)
        assert env2["cache_stats"] == {"hits": 1, "misses": 0}
        assert env2["result"] == env["result"]

    @pytest.mark.parametrize("trace", [(), ("--trace",)])
    def test_planted_wrong_orbit_record_exits_two(self, capsys, tmp_path, trace):
        path = tmp_path / "c.jsonl"
        OrbitCache(path).store(31, 999, 9232)
        code, out, err = run_cli(capsys, "orbit", "31", *trace, "--cache", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("collatzq: cache error: ") and "x=31" in err

    def test_cache_flag_above_one_exits_two(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        code, out, err = run_cli(capsys, "verify", "range", "--from", "1001", "--to", "1100",
                                 "--cache", str(path))
        assert (code, out) == (2, "")
        assert err == "collatzq: error: --cache applies only to sweeps from 1\n"
        assert not path.exists()

    def test_env_var_above_one_opens_no_cache(self, capsys, tmp_path, monkeypatch):
        args = ("verify", "range", "--from", "1001", "--to", "1100")
        _, plain, _ = run_json(capsys, *args)
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("COLLATZ_CACHE", str(path))
        code, env, err = run_json(capsys, *args)
        assert (code, err) == (0, "")
        assert "cache_stats" not in env
        assert json.dumps(env["result"]) == json.dumps(plain["result"])
        assert not path.exists()

    def test_verify_range_cache_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "c.jsonl")
        args = ("verify", "range", "--from", "1", "--to", "500", "--cache", path, "--quiet")
        _, env1, _ = run_json(capsys, *args)
        _, env2, _ = run_json(capsys, *args)
        assert json.dumps(env1["result"]) == json.dumps(env2["result"])
        assert env1["cache_stats"]["hits"] == 0
        assert env2["cache_stats"]["hits"] > 0
        assert env2["cache_stats"]["misses"] == 0

    def test_planted_wrong_record_never_reaches_the_report(self, capsys, tmp_path):
        # 31 holds a delay and a path record of [1, 2000]; 29 holds neither.
        args = ("verify", "range", "--from", "1", "--to", "2000", "--quiet")
        _, plain, _ = run_json(capsys, *args)
        holder = tmp_path / "holder.jsonl"
        OrbitCache(holder).store(31, 999, core.orbit(31).max_excursion)
        code, out, err = run_cli(capsys, *args, "--cache", str(holder))
        assert (code, out) == (2, "")
        assert err.startswith("collatzq: cache error: ") and "x=31" in err
        other = tmp_path / "other.jsonl"
        OrbitCache(other).store(29, 999, 10**9)
        code, env, _ = run_json(capsys, *args, "--cache", str(other))
        assert code == 0
        assert json.dumps(env["result"]) == json.dumps(plain["result"])
        assert env["cache_stats"]["hits"] == 0

    @pytest.mark.parametrize("tail, command", [
        ("", ("orbit", "17")),  # the path is a directory
        ("missing/c.jsonl", ("verify", "range", "--from", "1", "--to", "50")),
    ])
    def test_unusable_cache_path_exits_two(self, capsys, tmp_path, tail, command):
        path = tmp_path / tail
        code, out, err = run_cli(capsys, *command, "--cache", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("collatzq: cache error: ") and str(path) in err

    def test_non_ascii_cache_exits_two_naming_line(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(
            b'{"format": "collatz-cache", "version": 1}\n'
            b'{"x": "7", "steps": 5, "max": "17"}\n'
            b'{"x": "9", "steps": 13, "max": "5\xc22"}\n'
        )
        code, out, err = run_cli(capsys, "orbit", "17", "--cache", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}: line 3: non-ASCII byte 0xc2" in err

    def test_store_after_unterminated_last_line(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"format": "collatz-cache", "version": 1}\n'
            '{"x": "7", "steps": 5, "max": "17"}'
        )
        code, env, _ = run_json(capsys, "orbit", "11", "--cache", str(path))
        assert code == 0
        assert env["cache_stats"] == {"hits": 0, "misses": 1}
        code, env2, err = run_json(capsys, "orbit", "11", "--cache", str(path))
        assert code == 0, err
        assert env2["cache_stats"] == {"hits": 1, "misses": 0}
        assert env2["result"] == env["result"]
        code, env3, _ = run_json(capsys, "orbit", "7", "--cache", str(path))
        assert code == 0 and env3["cache_stats"] == {"hits": 1, "misses": 0}

    def test_torn_last_line_exits_two(self, capsys, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"format": "collatz-cache", "version": 1}\n'
            '{"x": "7", "steps": 5, "max": "17"}\n'
            '{"x": "11", "steps": 4, "m'
        )
        code, out, err = run_cli(capsys, "orbit", "11", "--cache", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}: line 3: torn append" in err


# One invocation per leaf command that gives every option the command accepts
# except --json, which only spells out the default.  delta takes two, since
# --n and --sequence exclude each other.  "{cache}" stands for a cache path.
_EVERY_OPTION = {
    "orbit": [["orbit", "27", "--max-steps", "500", "--trace", "--csv",
               "--cache", "{cache}", "--quiet"]],
    "map": [["map", "5", "--op", "S", "--k", "2", "--csv"]],
    "preimage": [["preimage", "5", "--bound", "100", "--u0-only", "--csv"]],
    "class": [["class", "17", "--n", "1", "--bound", "300", "--method", "bfs", "--csv"]],
    "class-inf": [["class-inf", "7", "--bound", "60", "--cap", "200", "--csv"]],
    "delta": [["delta", "7", "--n", "2", "--csv"],
              ["delta", "7", "--sequence", "--max-n", "3", "--csv"]],
    "merge": [["merge", "7", "17", "--cap", "100", "--csv"]],
    "tstar": [["tstar", "7", "--cap", "100", "--csv"]],
    "partition": [["partition", "--bound", "60", "--n", "1", "--csv"]],
    "witness": [["witness", "7", "--n", "1", "--search-cap", "1000", "--csv"]],
    "matrix": [["matrix", "7", "--k-min", "-1", "--k-max", "1", "--n-max", "2",
                "--bound", "100", "--csv"]],
    "census": [["census", "--n-max", "2", "--bound", "100", "--csv"]],
    "suffset": [["suffset", "--bound", "100", "--members", "--csv"]],
    "appendix-class": [["appendix-class", "7", "--bound", "30", "--k-range", "2",
                        "--cap", "200", "--csv"]],
    "verify lemmas": [["verify", "lemmas", "--bound", "100", "--n-cap", "5", "--seed", "1",
                       "--csv"]],
    "verify range": [["verify", "range", "--from", "1", "--to", "300", "--jobs", "1",
                      "--max-steps", "500", "--csv", "--cache", "{cache}", "--quiet"]],
}
_CACHED = ("orbit", "verify range")
_UNCACHED = [name for name in _EVERY_OPTION if name not in _CACHED]


def _leaf_parsers(parser, prefix=""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, f"{prefix} {name}".strip())
            return
    yield prefix, parser


def _fill(argv, cache):
    return [str(cache) if a == "{cache}" else a for a in argv]


class TestOptionScope:
    """Each command accepts exactly the options it reads."""

    @pytest.fixture
    def reads(self, monkeypatch):
        # parse_args parses into a namespace that records every attribute
        # read once parsing is done, so argparse's own reads do not count.
        seen = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                seen.add(name)
                return super().__getattribute__(name)

        build = cli_mod._build_parser

        def recording_build():
            parser = build()
            parse = parser.parse_args

            def parse_args(args=None):
                ns = parse(args, Recording())
                seen.clear()
                return ns

            parser.parse_args = parse_args
            return parser

        monkeypatch.setattr(cli_mod, "_build_parser", recording_build)
        return seen

    def test_table_covers_every_leaf_command(self):
        leaves = [name for name, _ in _leaf_parsers(cli_mod._build_parser())]
        assert sorted(_EVERY_OPTION) == sorted(leaves)
        assert len(_UNCACHED) == 14

    @pytest.mark.parametrize("name", sorted(_EVERY_OPTION))
    def test_every_accepted_option_is_read(self, capsys, tmp_path, reads, name):
        leaf = dict(_leaf_parsers(cli_mod._build_parser()))[name]
        actions = [a for a in leaf._actions if not isinstance(a, argparse._HelpAction)]
        given, read = set(), set()
        for argv in _EVERY_OPTION[name]:
            given.update(a for a in argv if a.startswith("--"))
            code, out, err = run_cli(capsys, *_fill(argv, tmp_path / "c.jsonl"))
            assert (code, err) == (0, ""), argv
            assert out.startswith("key,value\n")
            read |= reads
        options = {a.option_strings[-1] for a in actions if a.option_strings}
        assert given == options - {"--json"}
        assert {a.dest for a in actions} - read == {"json"}

    @pytest.mark.parametrize("option", [["--cache", "{cache}"], ["--quiet"]],
                             ids=["cache", "quiet"])
    @pytest.mark.parametrize("name", _UNCACHED)
    def test_uncached_command_refuses_cache_options(self, capsys, tmp_path, name, option):
        cache = tmp_path / "c.jsonl"
        argv = _fill([*_EVERY_OPTION[name][0], *option], cache)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: " + " ".join(argv[-len(option):]) in err
        assert not cache.exists()

    @pytest.mark.parametrize("option", [["--json"], ["--csv"], ["--cache", "{cache}"],
                                        ["--quiet"]], ids=["json", "csv", "cache", "quiet"])
    def test_verify_group_takes_no_option(self, capsys, tmp_path, option):
        cache = tmp_path / "c.jsonl"
        argv = _fill(["verify", *option, "range", "--from", "1", "--to", "300"], cache)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert not cache.exists()


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


class TestEntryPoints:
    @pytest.mark.skipif(
        not _distribution_installed("collatzq"),
        reason="no collatzq distribution is installed, so no collatzq console "
        "script exists; `pip install -e .` creates it",
    )
    def test_console_script(self):
        # An unactivated venv has the script in its scripts directory, not on PATH.
        scripts = sysconfig.get_path("scripts")
        script = shutil.which("collatzq", path=scripts) or shutil.which("collatzq")
        assert script is not None, (
            f"collatzq is installed but no collatzq script is in {scripts} or on PATH"
        )
        proc = subprocess.run(
            [script, "map", "5", "--op", "tau"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["value"] == "13"

    def test_module_invocation(self, run_module):
        proc = run_module("orbit", "17")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["steps_to_one"] == 3
