"""CLI envelope, exit codes, cache plumbing, output formats."""

import importlib.metadata
import json
import shutil
import subprocess
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
        flat: list[tuple[str, str]] = []
        cli_mod._flatten(env, "", flat)
        for key, value in flat:
            if key == "timing":
                continue
            assert rows[key] == value

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
