"""CLI surface: subcommands, exit codes, header/seed recording, byte-identical
reruns, the shared parser and ``python -m agectl``."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from agectl import cli
from agectl.cli import main
from agectl.solver import relative_value_iteration


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_low_cost_linear(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--utility", "linear", "--M", "12", "--p", "0.54",
            "--G", "0.99", "--P", "0", "--B", "0",
        )
        assert code == 0
        assert "s,1" in out
        assert "always_active,True" in out

    def test_step_multi_optimum(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--utility", "step", "--v", "12", "--k", "3",
            "--M", "21", "--p", "0.5", "--G", "6",
        )
        assert code == 0
        assert "all_optima,2 3" in out

    def test_crosscheck_row_is_tight(self, capsys):
        code, out, _ = run(capsys, "solve", "--M", "10", "--p", "0.4", "--G", "1.5")
        assert code == 0
        row = next(l for l in out.splitlines() if l.startswith("crosscheck"))
        assert abs(float(row.split(",")[1])) <= 1e-6

    def test_parameter_error_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "--M", "1", "--p", "0.5")
        assert code == 2
        assert "M" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--M", "12", "--p", "0.54", "--G", "nan"),
            ("--M", "4", "--p", "0.54", "--utility", "tabular", "--values", "3,nan,1,0"),
            ("--M", "12", "--p", "0.54", "--utility", "step", "--v", "1", "--k", "0"),
            # inf printed the all-inactive policy with exit 0, nan ran out of sweeps (exit 3)
            ("--M", "12", "--p", "0.54", "--G", "0.99", "--tol", "inf"),
            ("--M", "12", "--p", "0.54", "--G", "0.99", "--tol", "nan"),
        ],
        ids=["nan-scan-cost", "nan-utility-value", "zero-step-cutoff", "inf-tol", "nan-tol"],
    )
    def test_invalid_value_exits_2(self, capsys, argv):
        code, _, err = run(capsys, "solve", *argv)
        assert code == 2
        assert err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_rise_under_the_slack_exits_2_naming_both_ages(self, capsys):
        # u(2) tops u(1) by 2**-44, under SLACK_TOL: a utility takes no slack
        code, out, err = run(capsys, "solve", "--M", "3", "--p", "0.5", "--utility", "tabular",
                             "--values", "1,1.0000000000000568,0")
        assert (code, out) == (2, "")
        assert err == ("agectl: utility must be non-increasing: "
                       "u(2) = 1.0000000000000568 > u(1) = 1.0\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_non_finite_value_exits_2_naming_its_age(self, capsys):
        # the message held the whole tuple of values: 2,544 bytes at M = 500
        values = ",".join(["nan"] + ["1"] * 499)
        code, out, err = run(capsys, "solve", "--M", "500", "--p", "0.5", "--utility", "tabular",
                             "--values", values)
        assert (code, out, err) == (2, "", "agectl: utility must be finite: u(1) = nan\n")

    def test_values_past_the_float_range_exit_3_at_the_first_span_not_finite(
            self, capsys, monkeypatch):
        # RVI's span turns nan at sweep 13; this stopped only after every one
        # of the 1e6 sweeps
        monkeypatch.setattr(cli, "solve_user_problem", relative_value_iteration)
        values = ",".join(["1e308"] * 11 + ["0"])
        code, _, err = run(capsys, "solve", "--M", "12", "--p", "0.54", "--utility", "tabular",
                           "--values", values)
        assert code == 3
        assert err == "agectl: no convergence after 13 iterations (residual nan)\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p3g", [(), ("--P3G", "4")], ids=["wifi", "3g"])
    def test_values_past_the_float_range_exit_3(self, capsys, p3g):
        # with 3G this exited 0 with gain,inf and warned in the solver
        values = ",".join(["1e308"] * 11 + ["0"])
        code, out, err = run(capsys, "solve", "--M", "12", "--p", "0.54", "--utility", "tabular",
                             "--values", values, *p3g)
        assert (code, out) == (3, "")
        assert err == "agectl: no convergence after 1 iterations (residual nan)\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_long_step_cycle_answers(self, capsys):
        # closed form s* = 587; RVI's ~3 s*^2 sweeps ran out of 1e6 and exited 3
        code, out, _ = run(capsys, "solve", "--utility", "step", "--v", "5", "--k", "600",
                           "--M", "1200", "--p", "0.54", "--G", "0.05")
        assert code == 0
        fields = dict(line.split(",") for line in out.splitlines() if not line.startswith("#"))
        assert fields["s"] == "587"
        assert fields["closed_form_best"] == fields["gain"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_two_threshold_grid_at_tiny_p(self, capsys):
        # 1 - q^(j + 1) cancelled to 0 at p = 1e-20: a division by zero and
        # closed_form_best,inf.  (1, 3) and (3, 3) both earn 6.366666666666667:
        # the search picked (1, 3) next to the solver's s = 3
        code, out, _ = run(capsys, "solve", "--M", "10", "--p", "1e-20", "--P3G", "5",
                           "--P", "0.2", "--B", "0.1", "--G", "3e-21")
        assert code == 0
        lines = out.splitlines()
        assert "closed_form_best,6.36666666667" in lines
        assert {"s,3", "s_3G,3", "all_optima,3"} <= set(lines)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, code, policy, err", [
        # the 3G term overflowed outside the solver's errstate
        (("--p", "1e-300", "--G", "1e308", "--P", "0", "--P3G", "1e308"), 0, ["policy,00"], ""),
        # the WiFi term did the same.  Never activating is right; exit 3 is
        # policy iteration's all-WiFi start, whose values overflow to nan
        (("--p", "0.9999999999999999", "--G", "1e308", "--P", "1e308", "--P3G", "inf"), 3, [],
         "agectl: no convergence after 1 iterations (residual nan)\n"),
    ], ids=["3g-term", "wifi-term"])
    def test_action_terms_past_the_float_range_do_not_warn(self, capsys, argv, code, policy, err):
        got, out, got_err = run(capsys, "solve", "--M", "2", *argv)
        assert (got, got_err) == (code, err)
        assert [line for line in out.splitlines() if line.startswith("policy,")] == policy

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "solve", "--no-such-flag")
        assert exc.value.code == 1


class TestSweep:
    def test_full_threshold_column(self, capsys):
        code, out, _ = run(capsys, "sweep", "--M", "12", "--p", "0.54", "--G", "0.99")
        assert code == 0
        data = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert data[0] == "s,reward,age"
        assert len(data) == 1 + 13  # s spans 1..M+1

    def test_grid_mode_monotone(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--M", "12", "--p", "0.54",
            "--grid", "G=0.99,7.92,17.82,34.98",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        thresholds = [int(r.split(",")[1]) for r in rows]
        assert thresholds == sorted(thresholds)

    @pytest.mark.parametrize(
        "grid", [("--grid", "Q=0,5"), ("--P", "0", "--grid", "B=0,5")],
        ids=["unknown-parameter", "bonus-above-price"],
    )
    def test_bad_grid_leaves_existing_output_unchanged(self, capsys, tmp_path, grid):
        out_path = tmp_path / "res.csv"
        out_path.write_text("earlier results\n")
        code, _, err = run(
            capsys, "sweep", "--M", "12", "--p", "0.54", *grid, "--output", str(out_path),
        )
        assert code == 2
        assert err
        assert out_path.read_text() == "earlier results\n"

    @pytest.mark.parametrize("grid", ["G", "G=", "G=1,,2"])
    def test_malformed_grid_names_the_flag(self, capsys, grid):
        # these printed "could not convert string to float: ''"
        code, out, err = run(capsys, "sweep", "--M", "12", "--p", "0.54", "--grid", grid)
        assert (code, out) == (2, "")
        assert err == f"agectl: --grid takes NAME=V1,V2,…, e.g. 'G=0.99,7.92', got {grid!r}\n"


class TestPublisher:
    def test_reference_instance_reaches_full_sponsorship(self, capsys):
        code, out, _ = run(
            capsys, "publisher", "--N", "20", "--T", "11", "--p", "0.54",
            "--M", "30", "--G", "0.4", "--P", "40",
        )
        assert code == 0
        assert "feasible,True" in out
        assert "bonus_hi,40" in out

    def test_infeasible_is_analysis_outcome_not_crash(self, capsys):
        code, out, _ = run(
            capsys, "publisher", "--N", "500", "--T", "2", "--p", "0.9", "--M", "10",
        )
        assert code == 0
        assert "feasible,False" in out

    @pytest.mark.parametrize("n", ["20", "1" + "0" * 400], ids=["inf-ratio", "n-past-float"])
    def test_budget_past_the_float_range_is_infeasible(self, capsys, n):
        # both crashed with OverflowError (exit 1) in target_threshold
        code, out, _ = run(
            capsys, "publisher", "--N", n, "--T", "1e-320", "--p", "0.54",
            "--M", "30", "--G", "0.4", "--P", "40",
        )
        assert code == 0
        assert out.endswith("target_threshold,31\nfeasible,False\n")

    def test_equal_slopes_at_tiny_p_answer(self, capsys):
        # at p = 1e-300 every pi_1(s) rounds to 1e-300, so the bonus edges divide
        # by +0.0; it raised RuntimeWarning in bonus_edges.  The expected age
        # there is M up to 1e-299, not the -1 that 1 - q^(M-s) cancelling gave
        code, out, _ = run(
            capsys, "publisher", "--M", "12", "--p", "1e-300", "--G", "12", "--P", "1e308",
            "--B", "0.01", "--utility", "step", "--v", "1", "--k", "12", "--N", "50",
            "--T", "0.5",
        )
        assert code == 0
        assert "feasible,True" in out
        assert out.endswith("threshold,1\nbonus_lo,0\nbonus_hi,1e+308\nrate,5e-299\nage,12\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ("--M", "2", "--p", "5e-324", "--G", "0", "--P", "3", "--utility", "step", "--v", "1",
         "--k", "41", "--N", "500", "--T", "2"),
        ("--M", "40", "--p", "5e-324", "--G", "5e-324", "--P", "1e308", "--B", "3", "--P3G", "1e15",
         "--N", "3", "--T", "1e308"),
        ("--M", "12", "--p", "5e-324", "--G", "0", "--P", "3", "--N", "500", "--T", "1e-320"),
    ], ids=["step", "3g", "budget-past-float"])
    def test_cycle_past_the_float_range_keeps_any_budget(self, capsys, argv):
        # (1 - p)/p is inf at p = 5e-324: target_threshold raised OverflowError,
        # and with N/T inf as well ValueError (inf - inf is nan)
        code, out, _ = run(capsys, "publisher", *argv)
        assert code == 0
        fields = dict(line.split(",") for line in out.splitlines() if not line.startswith("#"))
        assert fields["target_threshold"] == "1" and fields["rate"] == "0"
        assert 1 <= float(fields["age"]) <= int(argv[1])


class TestLearn:
    def test_analytic_preset_run(self, capsys):
        code, out, _ = run(
            capsys, "learn", "--preset", "long-rounds", "--env", "analytic",
            "--rounds", "220", "--seed", "5",
        )
        assert code == 0
        assert "# seed=5" in out
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "round,bonus,requests,rate"
        assert len(rows) == 1 + 220

    def test_reruns_are_byte_identical(self, capsys):
        argv = ["learn", "--env", "chain", "--rounds", "230", "--seed", "11"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_header_records_rounds_and_traces(self, capsys, tmp_path, monkeypatch):
        # identical headers must reproduce identical rows: two argv that differ
        # in one flag and print different rows must print different headers
        monkeypatch.chdir(tmp_path)
        for seed, name in ((3, "a.txt"), (4, "b.txt")):
            assert run(capsys, "gen-traces", "--shifts", "3", "--seed", str(seed),
                       "--output", name)[0] == 0
        pairs = [
            (("--env", "chain", "--seed", "11", "--rounds", "400"),
             ("--env", "chain", "--seed", "11", "--rounds", "205")),
            (("--env", "trace", "--rounds", "205", "--traces", "a.txt"),
             ("--env", "trace", "--rounds", "205", "--traces", "b.txt")),
        ]
        for argv_pair in pairs:
            headers, rows = [], []
            for argv in argv_pair:
                code, out, _ = run(capsys, "learn", *argv)
                assert code == 0
                lines = out.splitlines()
                headers.append([l for l in lines if l.startswith("#")])
                rows.append([l for l in lines if not l.startswith("#")])
            assert rows[0] != rows[1]
            assert headers[0] != headers[1]
            assert "# rounds=205" in headers[1]
        assert "# traces=b.txt" in headers[1]

    def test_negative_population_exits_2(self, capsys):
        code, out, err = run(capsys, "learn", "--env", "analytic", "--N", "-3", "--rounds", "203")
        assert code == 2
        assert "at least one user" in err

    @pytest.mark.parametrize("argv, message", [
        (("--rounds", "200"), "need 1 <= --drop round (200) < --rounds (200)"),
        (("--drop", "20@0"), "need 1 <= --drop round (0) < --rounds (400)"),
        (("--drop", "20@300", "--rounds", "250"), "need 1 <= --drop round (300) < --rounds (250)"),
        (("--drop", "20"), "--drop takes N@ROUND, e.g. '20@200', got '20'"),
        (("--drop", "x@5"), "--drop takes N@ROUND, e.g. '20@200', got 'x@5'"),
        (("--drop", "20@5@9"), "--drop takes N@ROUND, e.g. '20@200', got '20@5@9'"),
    ], ids=["rounds-at-drop", "drop-at-0", "drop-past-rounds", "no-round", "bad-count", "two-rounds"])
    def test_drop_and_rounds_errors_name_the_flags(self, capsys, argv, message):
        # these said "max_rounds must be >= 1" or printed an int() parse error
        code, out, err = run(capsys, "learn", "--env", "analytic", *argv)
        assert code == 2
        assert out == ""
        assert err == f"agectl: {message}\n"

    @pytest.mark.parametrize("n", ["1" + "0" * 400, "1" + "0" * 307],
                             ids=["n-past-float", "user-slots-past-float"])
    def test_population_past_the_float_range_exits_2(self, capsys, n):
        # expected_rate_env's served count raised OverflowError
        code, out, err = run(capsys, "learn", "--env", "analytic", "--N", n)
        assert code == 2
        assert out == ""
        assert "population too large" in err and n in err

    def test_population_past_memory_exits_2(self, capsys, monkeypatch):
        # numpy's per-user arrays for N = 1e13 raised _ArrayMemoryError (exit 1)
        def unallocatable(*args):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(cli.learning, "chain_sim_env", unallocatable)
        code, out, err = run(capsys, "learn", "--env", "chain", "--N", "10000000000000")
        assert code == 2
        assert out == ""
        assert err == "agectl: out of memory: Unable to allocate 72.8 TiB for an array\n"

    @pytest.mark.parametrize("flags", [("--N", "10000000000000"), ("--drop", "10000000000000@200")])
    def test_trace_population_past_memory_exits_2_before_any_user(self, capsys, monkeypatch, tmp_path, flags):
        # cmd_learn built N UserAssignments, one Python object each, before any check
        def no_user(*args, **kwargs):
            raise AssertionError("a UserAssignment was built")

        monkeypatch.setattr(cli.tracesim, "UserAssignment", no_user)
        path = tmp_path / "c.txt"
        path.write_text("s0 0110\n")
        code, out, err = run(capsys, "learn", "--env", "trace", "--traces", str(path), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith(f"agectl: out of memory: {flags[0]} 10000000000000: a 100-slot round")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", "# a comment and no traces\n"])
    def test_trace_env_without_traces_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        code, out, err = run(capsys, "learn", "--env", "trace", "--traces", str(path))
        assert code == 2
        assert out == ""
        assert "no traces" in err

    def test_unknown_preset_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "learn", "--preset", "bogus")
        assert exc.value.code == 1  # argparse choice check: usage error


class TestSimulateAndGen:
    def test_gen_then_simulate(self, capsys, tmp_path):
        corpus_path = tmp_path / "corpus.txt"
        code, out, _ = run(
            capsys, "gen-traces", "--shifts", "5", "--seed", "3",
            "--output", str(corpus_path),
        )
        assert code == 0
        assert corpus_path.exists()

        code, out, _ = run(
            capsys, "simulate", "--traces", str(corpus_path), "--utility", "linear",
            "--M", "12", "--b", "0.2", "--replications", "4",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert rows[0].startswith("shift_id,p_hat,s_trace,s_model")
        assert len(rows) == 1 + 5

    @pytest.mark.parametrize("argv", [["--shifts", "-1"], ["--median-p", "2"],
                                      ["--median-p", "nan"], ["--median-p", "-0.5"]])
    def test_invalid_corpus_settings_exit_2(self, capsys, tmp_path, argv):
        out_path = tmp_path / "corpus.txt"
        code, out, err = run(capsys, "gen-traces", *argv, "--output", str(out_path))
        assert code == 2
        assert not out_path.exists()
        assert err.startswith("agectl: ")

    def test_missing_trace_file_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--traces", "missing.txt", "--M", "12", "--p", "0.5")
        assert code == 2

    def test_output_file_has_headers(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--M", "8", "--p", "0.5", "--G", "1", "--output", str(out_path),
        )
        assert code == 0
        content = out_path.read_text()
        assert content.startswith("# agectl sweep\n")
        assert "# p=0.5" in content



class TestConfigOverlay:
    """Each flag replaces one key of the --config file; --b sets G after the merge."""

    @staticmethod
    def config(tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_tabular_config_with_its_own_M(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "tab.cfg", "p = 0.5\nM = 4\nG = 0.3\n"
                          "utility.form = tabular\nutility.values = 3,2,1,0\n")
        code, alone, _ = run(capsys, "solve", "--config", cfg)
        assert code == 0
        code, out, err = run(capsys, "solve", "--config", cfg, "--M", "4")
        assert (code, err) == (0, "")
        assert out == alone

    def test_step_config_keeps_v_and_k_under_a_new_M(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "step.cfg", "p = 0.5\nM = 21\nG = 6\n"
                          "utility.form = step\nutility.v = 12\nutility.k = 3\n")
        code, out, _ = run(capsys, "solve", "--config", cfg, "--M", "20")
        assert code == 0
        code, flags, _ = run(capsys, "solve", "--utility", "step", "--v", "12", "--k", "3",
                             "--M", "20", "--p", "0.5", "--G", "6")
        assert code == 0
        assert out == flags

    def test_b_uses_M_from_the_config(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "params.cfg", PARAMS_CFG)
        code, out, _ = run(capsys, "solve", "--config", cfg, "--b", "0.5")
        assert code == 0
        assert "# M=12\n" in out and "# G=5.5\n" in out

    def test_P3G_infinity_means_no_3g(self, capsys):
        code, out, _ = run(capsys, "solve", "--M", "12", "--p", "0.54", "--P", "1",
                           "--P3G", "infinity")
        assert code == 0
        assert "# P3G=inf\n" in out
        assert "2" not in next(l for l in out.splitlines() if l.startswith("policy,"))

    def test_config_M_below_2_exits_2(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "m1.cfg", "p = 0.5\nM = 1\n")
        code, _, err = run(capsys, "solve", "--config", cfg)
        assert code == 2
        assert "M" in err

    @pytest.mark.parametrize("flags, text, key", [
        (("--M", "3", "--P3G", "abc"), None, "P3G"),
        (("--M", "3", "--utility", "tabular", "--values", "1,x,0"), None, "utility.values"),
        ((), "M = 3\nP3G = abc\n", "P3G"),
        ((), "M = 3\nutility.form = tabular\nutility.values = 1,x,0\n", "utility.values"),
        ((), "M = 12.5\n", "M"),
        ((), "M = 3\nutility.form = step\nutility.v = 1\nutility.k = x\n", "utility.k"),
    ], ids=["flag-P3G", "flag-values", "config-P3G", "config-values", "config-M", "config-k"])
    def test_an_unparsable_value_names_its_key(self, capsys, tmp_path, flags, text, key):
        # these printed only "could not convert string to float: 'abc'" or
        # "invalid literal for int() with base 10: '12.5'"
        config = () if text is None else ("--config", self.config(tmp_path, "bad.cfg", text))
        code, out, err = run(capsys, "solve", "--p", "0.5", *flags, *config)
        assert (code, out) == (2, "")
        assert err.startswith(f"agectl: parameter '{key}': ") and err.count("\n") == 1

    def test_simulate_defaults_p_under_a_config_without_it(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = self.config(tmp_path, "nop.cfg", "M = 12\nG = 0.99\n")
        assert run(capsys, "gen-traces", "--shifts", "2", "--seed", "1",
                   "--output", "corpus.txt")[0] == 0
        code, out, _ = run(capsys, "simulate", "--config", cfg, "--traces", "corpus.txt",
                           "--replications", "2")
        assert code == 0
        assert "# p=0.5\n" in out

# stdout as (byte count, sha256): the replay-driven subcommands recorded before
# the replay loops were folded into one kernel, and ``sweep``, ``publisher``,
# ``learn --env analytic`` and ``gen-traces`` before main() switched to one
# parser per process; the ``learn`` digests again after its header gained
# ``rounds`` and, for the trace env, ``traces``; the ``solve`` rows again when
# policy iteration replaced RVI as the solver, which changed their gain,
# iterations, residual and crosscheck lines only
RECORDED_STDOUT = {
    "learn-chain": (5688, "31783b2d1b49afa69b87e365fb79368a292ae7b97f1803b99c83d7f932ef9301"),
    "learn-trace": (9151, "0ded52769ce55561c417c06c93c9b09e0c98fb77c002471ea785f3e0a80c67d0"),
    "simulate": (563, "c5b10ad2b85893d9803694d945a24b9289df5386366ad87a18436c73b9bb10c2"),
    "solve-linear": (325, "35bdda6ce51f52225b9caab92ab4507399a78949ae7527fb3cfce99bf2194c6b"),
    "solve-step": (276, "887cef911a3b5d0d582c52347acfa26c06017281bac16b2b36449c433931e022"),
    "solve-config-3g": (509, "6886140e91e073667395d37767df33f6eadbd0ed6d7458671730c84b0a9846ab"),
    "solve-linear-300-3g": (607, "2a609c3bab6d2bc3e921afc69793c765280a8236af6197ed0e4aa593c7c854a6"),
    "sweep-full": (447, "e74bbd3056e53db5fc015f3f05e481aa7c2736a8754094f6cbf0753ebfeac806"),
    "sweep-grid-G": (147, "94eb021ecbb720aefcfff758815ca8e0dea0b4285057b2003c449b88b5550370"),
    "publisher-feasible": (217, "bea8b049fe60c2b41671d7fa49ddf00ea1c4c9519c21859c2ad78689e643b074"),
    "publisher-infeasible": (140, "9ef7c05f97f4a722f09f638ddcfdccf2fd6a92ba961f958608ab9d3c495bc99e"),
    "learn-analytic": (14824, "a4fcfeb8cbe056d10a7f4b4ce3ed98503640865daf56ed1e6c7125e65ea76aa7"),
    "gen-traces": (947, "44b0ac4ab823213c4106e39b9438bb3a0e394f9d9f87581fd745223ae7725e19"),
    # pi_1(s) differences that round to 0, and rewards of -inf: the bonus edges
    # must stay total there
    "solve-tiny-p": (311, "f809052301a72e3d530b11aad1561690e07296107129847a91e5928857939b8b"),
    "solve-huge-G": (279, "7ad7d0acc41780392449669077e1443aa9986f33cd1b92ea0b2c6fe9df481228"),
    "sweep-tiny-p-grid-B": (118, "72ecebd0c2a7b909b06e411e0db0157496667378128f2a953c47a65a9c7c2f2b"),
}

#: the README's params.cfg example
PARAMS_CFG = """\
# params.cfg
p = 0.54
M = 12
G = 0.99
P = 0
# "inf" means no 3G plan
P3G = inf
B = 0
utility.form = linear
"""


def test_replay_outputs_are_byte_stable(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # the simulate header records the trace path
    assert run(capsys, "gen-traces", "--shifts", "5", "--seed", "3", "--output", "corpus.txt")[0] == 0
    argvs = {
        "learn-chain": ("learn", "--env", "chain", "--rounds", "230", "--seed", "11"),
        "learn-trace": ("learn", "--env", "trace", "--traces", "corpus.txt"),
        "simulate": ("simulate", "--traces", "corpus.txt", "--utility", "linear",
                     "--M", "12", "--b", "0.2"),
    }
    for name, argv in argvs.items():
        code, out, _ = run(capsys, *argv)
        data = out.encode()
        assert code == 0
        assert (len(data), hashlib.sha256(data).hexdigest()) == RECORDED_STDOUT[name], name


def test_solve_outputs_are_byte_stable(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "params.cfg").write_text(PARAMS_CFG)
    argvs = {
        "solve-linear": ("solve", "--utility", "linear", "--M", "12", "--p", "0.54",
                         "--G", "0.99", "--P", "0", "--B", "0"),
        "solve-step": ("solve", "--utility", "step", "--v", "12", "--k", "3", "--M", "21",
                       "--p", "0.5", "--G", "6"),
        "solve-config-3g": ("solve", "--config", "params.cfg", "--P3G", "3.0",
                            "--format", "table"),
        # a two-threshold optimum (WiFi band, then 3G): 7 policy iteration
        # steps, where RVI took 2344 sweeps
        "solve-linear-300-3g": ("solve", "--utility", "linear", "--M", "300", "--p", "0.3",
                                "--G", "100", "--P", "10", "--P3G", "400", "--B", "5"),
        "solve-tiny-p": ("solve", "--M", "12", "--p", "1e-300", "--G", "1e-9", "--P", "3"),
        "solve-huge-G": ("solve", "--M", "12", "--p", "0.54", "--G", "1e308"),
    }
    for name, argv in argvs.items():
        code, out, _ = run(capsys, *argv)
        data = out.encode()
        assert code == 0
        assert (len(data), hashlib.sha256(data).hexdigest()) == RECORDED_STDOUT[name], name


def test_remaining_subcommand_outputs_are_byte_stable(capsys):
    argvs = {
        "sweep-full": ("sweep", "--M", "12", "--p", "0.54", "--G", "0.99"),
        "sweep-grid-G": ("sweep", "--M", "12", "--p", "0.54",
                         "--grid", "G=0.99,7.92,17.82,34.98"),
        "publisher-feasible": ("publisher", "--N", "20", "--T", "11", "--p", "0.54",
                               "--M", "30", "--G", "0.4", "--P", "40"),
        "publisher-infeasible": ("publisher", "--N", "500", "--T", "2", "--p", "0.9",
                                 "--M", "10"),
        "learn-analytic": ("learn", "--preset", "long-rounds", "--env", "analytic",
                           "--seed", "0"),
        "gen-traces": ("gen-traces", "--shifts", "5", "--seed", "3"),
        "sweep-tiny-p-grid-B": ("sweep", "--M", "12", "--p", "1e-300", "--G", "1e-9",
                                "--P", "3", "--grid", "B=0,1,2"),
    }
    for name, argv in argvs.items():
        code, out, _ = run(capsys, *argv)
        data = out.encode()
        assert code == 0
        assert (len(data), hashlib.sha256(data).hexdigest()) == RECORDED_STDOUT[name], name


def test_shared_parser_is_built_once_and_keeps_no_state(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    builds, make_parser = [], cli.make_parser

    def counted_make_parser():
        builds.append(1)
        return make_parser()

    monkeypatch.setattr(cli, "make_parser", counted_make_parser)
    cli._shared_parser.cache_clear()
    try:
        solve = ("solve", "--M", "10", "--p", "0.4", "--G", "1.5")
        code, first, _ = run(capsys, *solve)
        assert code == 0

        with pytest.raises(SystemExit) as exc:
            main(["solve", "--no-such-flag"])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: agectl")

        # simulate without --p reads p = 0.5 from its own base mapping, and that
        # default does not leak into a later solve on the shared parser
        assert run(capsys, "gen-traces", "--shifts", "2", "--seed", "1",
                   "--output", "corpus.txt")[0] == 0
        code, out, _ = run(capsys, "simulate", "--traces", "corpus.txt", "--M", "12",
                           "--replications", "2")
        assert code == 0
        assert "# p=0.5\n" in out
        code, _, err = run(capsys, "solve", "--M", "10")
        assert code == 2
        assert "contact probability required" in err

        code, again, _ = run(capsys, *solve)
        assert code == 0
        assert again == first
        assert len(builds) == 1
    finally:
        cli._shared_parser.cache_clear()   # drop the parser built through the patch


def test_main_dispatches_to_the_current_subcommand_function(capsys, monkeypatch):
    assert run(capsys, "sweep", "--M", "4", "--p", "0.5")[0] == 0   # parser now built
    seen = []

    def patched(args):
        seen.append(args.M)
        return 7

    monkeypatch.setattr(cli, "cmd_sweep", patched)
    assert main(["sweep", "--M", "12", "--p", "0.54"]) == 7
    assert seen == [12]


def test_python_dash_m_runs_the_cli(capsys):
    argv = ("solve", "--M", "10", "--p", "0.4", "--G", "1.5")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "agectl", *argv],
                          capture_output=True, env=env, timeout=120)
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()
