"""CLI surface: subcommands, exit codes, header/seed recording, byte-identical
reruns."""
import pytest

from agectl.cli import main


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
        ],
        ids=["nan-scan-cost", "nan-utility-value", "zero-step-cutoff"],
    )
    def test_invalid_value_exits_2(self, capsys, argv):
        code, _, err = run(capsys, "solve", *argv)
        assert code == 2
        assert err

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
