"""Tests for the command-line runner: flag parsing, config validation, CSV
shapes, header echoes, reproducibility (including across --jobs), output
routing, and exit codes (0 pass, 1 check failure, 2 usage/regime error)."""

import warnings

import numpy as np
import pytest

from spikequery.cli import (
    OUTPUT_DIR_ENV,
    RunConfig,
    UsageError,
    cmd_bounds,
    cmd_simulate,
    config_from_namespace,
    config_header,
    build_parser,
    main,
)
from spikequery.verify import CSV_HEADER, McReport, McRow


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# spikequery ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestConfigHeader:
    def test_deterministic_and_excludes_execution_fields(self):
        config = RunConfig(
            subcommand="simulate", d=100, lam=3.0, T=5, trials=4, seed=2,
            alg="power", jobs=8, output="/tmp/x.csv",
        )
        line = config_header(config)
        assert line.startswith("# spikequery simulate ")
        assert "jobs=" not in line
        assert "output=" not in line
        assert "seed=2" in line
        assert "lam=3" in line
        twin = RunConfig(
            subcommand="simulate", d=100, lam=3.0, T=5, trials=4, seed=2,
            alg="power", jobs=1, output=None,
        )
        assert config_header(twin) == line

    def test_range_and_grid_rendering(self):
        config = RunConfig(subcommand="bounds", d=10, t_range=(1, 30), seed=0)
        assert "t_range=1:30" in config_header(config)
        config = RunConfig(subcommand="scaling", d_grid=(256, 1024), seed=0)
        assert "d_grid=256,1024" in config_header(config)


class TestValidation:
    def parse(self, argv):
        return config_from_namespace(build_parser().parse_args(argv))

    def test_simulate_constraints_named(self):
        with pytest.raises(UsageError, match="T must be >= 1"):
            self.parse(["simulate", "--alg", "power", "--d", "100",
                        "--lambda", "3", "--T", "0"])
        with pytest.raises(UsageError, match="lambda must be >= 0"):
            self.parse(["simulate", "--alg", "power", "--d", "100",
                        "--lambda", "-1", "--T", "3"])
        with pytest.raises(UsageError, match="trials must be >= 1"):
            self.parse(["simulate", "--alg", "power", "--d", "100",
                        "--lambda", "3", "--T", "3", "--trials", "0"])

    def test_bounds_t_exclusivity(self):
        base = ["bounds", "--d", "100", "--lambda", "8"]
        with pytest.raises(UsageError, match="exactly one of"):
            self.parse(base)
        with pytest.raises(UsageError, match="exactly one of"):
            self.parse(base + ["--T", "3", "--T-range", "1:5"])

    def test_bounds_domains(self):
        with pytest.raises(UsageError, match="gamma must lie in"):
            self.parse(["bounds", "--d", "100", "--gamma", "1.5",
                        "--eps", "0.1", "--T", "3"])
        with pytest.raises(UsageError, match="requires --lambda"):
            self.parse(["bounds", "--d", "100", "--delta", "0.05", "--T", "3"])
        with pytest.raises(UsageError, match="nothing to tabulate"):
            self.parse(["bounds", "--d", "100", "--T", "3"])

    def test_scaling_regime_checked_before_work(self):
        with pytest.raises(UsageError, match="at d=128"):
            self.parse(["scaling", "--alg", "power", "--d-grid", "128",
                        "--lambda", "1.5"])
        with pytest.raises(UsageError, match="target must exceed"):
            self.parse(["scaling", "--alg", "power", "--d-grid", "256",
                        "--lambda", "8", "--target", "0.1"])

    def test_verify_all_rejects_overrides(self):
        with pytest.raises(UsageError, match="single check"):
            self.parse(["verify", "--check", "all", "--d", "50"])


class TestExitCodes:
    def test_usage_errors_exit_two(self, capsys):
        assert run_main(["simulate"], capsys)[0] == 2  # missing required flags
        assert run_main(["verify", "--check", "nonsense"], capsys)[0] == 2
        assert run_main(
            ["simulate", "--alg", "power", "--d", "100", "--lambda", "3",
             "--T", "0"], capsys)[0] == 2

    def test_regime_error_message_on_stderr(self, capsys):
        code, _, err = run_main(
            ["scaling", "--alg", "power", "--d-grid", "128", "--lambda", "1.5"],
            capsys,
        )
        assert code == 2
        assert "error:" in err and "d=128" in err

    def test_verify_check_regime_error_exits_two(self, capsys):
        # n=1 would divide conditional-law's sample covariances by n-1=0
        for check, n in (("sphere-tail", "100"), ("conditional-law", "1")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _, err = run_main(["verify", "--check", check, "--n", n], capsys)
            assert code == 2
            assert check in err

    @pytest.mark.parametrize(
        "valid, usage_error",
        [
            (["simulate", "--alg", "power", "--d", "20", "--lambda", "3",
              "--T", "2", "--trials", "2"],
             ["simulate", "--alg", "power", "--d", "20", "--lambda", "3",
              "--T", "0"]),
            (["bounds", "--d", "1000", "--lambda", "8", "--T", "2"],
             ["bounds", "--d", "1000", "--lambda", "8"]),
            (["verify", "--check", "gauss-quadratic", "--d", "5", "--n", "20000"],
             ["verify", "--check", "sphere-tail", "--n", "100"]),
            (["scaling", "--alg", "power", "--d-grid", "128", "--lambda", "8",
              "--trials", "2"],
             ["scaling", "--alg", "power", "--d-grid", "128", "--lambda", "1.5"]),
        ],
        ids=["simulate", "bounds", "verify", "scaling"],
    )
    def test_exit_code_contract(self, valid, usage_error, capsys):
        code, out, err = run_main(valid, capsys)
        assert code == 0
        assert out and "Traceback" not in err
        code, _, err = run_main(usage_error, capsys)
        assert code == 2
        assert any(line.startswith("error:") for line in err.splitlines())
        assert "Traceback" not in err

    def test_failing_check_exits_one(self, capsys, monkeypatch, tmp_path):
        bad = McReport(
            "kd", 5, 0, rows=(McRow("rigged", 2.0, 1.0, 0.0, False),)
        )
        monkeypatch.setattr("spikequery.cli.run_check", lambda *a, **k: bad)
        code, out, _ = run_main(
            ["verify", "--check", "kd", "--output", str(tmp_path / "v.csv")],
            capsys,
        )
        assert code == 1
        assert "[FAIL] kd" in out
        assert "FAIL" in (tmp_path / "v.csv").read_text()


class TestSimulate:
    def test_shape_contract(self, capsys):
        code, out, _ = run_main(
            ["simulate", "--alg", "power", "--d", "100", "--lambda", "4",
             "--T", "4", "--trials", "6", "--seed", "7"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "trial", "T", "rayleigh_ratio", "spike_overlap",
            "step_overlap_1", "step_overlap_2", "step_overlap_3", "step_overlap_4",
        ]
        assert len(rows) == 7  # 6 trials + median summary
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4", "5", "median"]
        for r in rows:
            assert len(r) == len(header)
            assert 0.0 <= float(r[3]) <= 1.0

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        argv = ["simulate", "--alg", "lanczos", "--d", "120", "--lambda", "3",
                "--T", "5", "--trials", "4", "--seed", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        argv = ["simulate", "--alg", "power", "--d", "80", "--lambda", "4",
                "--T", "3", "--trials", "6", "--seed", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--jobs", "3", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_random_baseline_median_overlap_small(self, capsys):
        code, out, _ = run_main(
            ["simulate", "--alg", "random", "--d", "2000", "--lambda", "2",
             "--T", "10", "--trials", "11", "--seed", "1"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        summary = rows[-1]
        assert summary[0] == "median"
        assert float(summary[header.index("spike_overlap")]) <= 0.05


class TestBounds:
    def test_detection_sweep_monotone(self, capsys):
        code, out, _ = run_main(
            ["bounds", "--d", "100000000", "--lambda", "8",
             "--T-range", "1:30"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        tv = [r for r in rows if r[0] == "detection-tv"]
        assert len(tv) == 30
        raws = [float(r[3]) for r in tv]
        assert all(b > a for a, b in zip(raws, raws[1:]))
        values = [float(r[2]) for r in tv]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v <= 1.0 for v in values)

    def test_schedules_side_by_side(self, capsys):
        code, out, _ = run_main(
            ["bounds", "--d", "1000000", "--lambda", "2", "--delta", "0.05",
             "--T", "4"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        kinds = {r[0] for r in rows}
        assert {"kl-schedule", "chi-schedule-exact", "chi-schedule-closed"} <= kinds
        chi_exact = [float(r[2]) for r in rows if r[0] == "chi-schedule-exact"]
        chi_closed = [float(r[2]) for r in rows if r[0] == "chi-schedule-closed"]
        assert len(chi_exact) == len(chi_closed) == 5  # T + 1 entries
        assert all(e <= c + 1e-9 for e, c in zip(chi_exact, chi_closed))

    def test_min_queries_row_with_threshold(self, capsys):
        code, out, _ = run_main(
            ["bounds", "--d", "1000000", "--lambda", "8", "--T", "3",
             "--threshold", "0.5"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        mq = [r for r in rows if r[0] == "min-queries-detection-tv"]
        assert len(mq) == 1
        assert int(mq[0][1]) >= 0

    def test_regime_violation_per_row_not_fatal(self, capsys):
        code, out, _ = run_main(
            ["bounds", "--d", "1000", "--lambda", "2", "--delta", "0.05",
             "--T", "3"], capsys)
        assert code == 0  # detection rows carry the error, schedules still emit
        _, rows = parse_csv(out)
        det = [r for r in rows if r[0] == "detection-tv"]
        assert det and "lam must exceed 2" in det[0][-1]
        assert any(r[0] == "chi-schedule-exact" for r in rows)

    def test_long_sweep_saturates_without_traceback(self, capsys):
        # (c1*lam)^T passes the float range at T = 203
        code, out, err = run_main(
            ["bounds", "--d", "1000", "--lambda", "8", "--T-range", "0:400"], capsys)
        assert code == 0
        assert "Traceback" not in err and "Error" not in err
        _, rows = parse_csv(out)
        tv = [r for r in rows if r[0] == "detection-tv"]
        assert len(tv) == 401
        assert all(0.0 <= float(r[2]) <= 1.0 for r in tv)

    def test_long_schedule_saturates_without_warnings(self, capsys):
        # the chi-squared closed form passes the float range well before T=400
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(
                ["bounds", "--d", "1000", "--lambda", "8", "--delta", "0.05",
                 "--T", "400"], capsys)
        assert code == 0
        assert err == ""
        _, rows = parse_csv(out)
        closed = [float(r[2]) for r in rows if r[0] == "chi-schedule-closed"]
        assert len(closed) == 401
        assert closed[-1] == float("inf")
        assert all(b >= a for a, b in zip(closed, closed[1:]))

    def test_constant_override_echoed(self, capsys):
        code, out, _ = run_main(
            ["bounds", "--d", "1000", "--lambda", "8", "--T", "2",
             "--c1-detection", "2.0"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        det = [r for r in rows if r[0] == "detection-tv"]
        assert float(det[0][header.index("c1")]) == 2.0
        assert "c1_detection=2" in out.splitlines()[0]


class TestVerifyCommand:
    def test_single_check_pass(self, capsys):
        code, out, err = run_main(
            ["verify", "--check", "kd", "--quick", "--seed", "3"], capsys)
        assert code == 0
        assert out.splitlines()[1] == CSV_HEADER
        assert "[pass] kd" in err  # summary goes to stderr when CSV is stdout

    def test_csv_to_file_summary_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "kd.csv"
        code, out, _ = run_main(
            ["verify", "--check", "kd", "--quick", "--seed", "3",
             "--output", str(path)], capsys)
        assert code == 0
        assert "[pass] kd" in out
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# spikequery verify")
        assert lines[1] == CSV_HEADER

    def test_override_flags_reach_check(self, capsys):
        code, out, _ = run_main(
            ["verify", "--check", "sphere-tail", "--quick", "--n", "11000",
             "--seed", "4"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r[2] == "11000" for r in rows)


class TestScaling:
    def test_columns_and_consistency(self, capsys):
        code, out, _ = run_main(
            ["scaling", "--alg", "power", "--d-grid", "128,256", "--lambda", "8",
             "--target", "0.9", "--trials", "5", "--seed", "11"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["d", "median_queries", "theory_min_queries", "gamma"]
        assert [int(r[0]) for r in rows] == [128, 256]
        for r in rows:
            assert float(r[1]) >= int(r[2]) - 1  # empirical respects the bound
            assert 0.0 < float(r[3]) < 1.0

    def test_reproducible_across_jobs(self, tmp_path):
        argv = ["scaling", "--alg", "power", "--d-grid", "128,256",
                "--lambda", "8", "--trials", "4", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--jobs", "2", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOutputRouting:
    def test_env_var_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "results"))
        code, _, _ = run_main(
            ["verify", "--check", "kd", "--quick", "--seed", "3"], capsys)
        assert code == 0
        assert (tmp_path / "results" / "verify.csv").exists()

    def test_explicit_output_wins_over_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "envdir"))
        target = tmp_path / "direct.csv"
        run_main(["verify", "--check", "kd", "--quick", "--seed", "3",
                  "--output", str(target)], capsys)
        assert target.exists()
        assert not (tmp_path / "envdir").exists()
