"""Tests for the command-line runner: flag parsing, config validation, CSV
shapes, header echoes, reproducibility (including across --jobs), output
routing, and exit codes (0 pass, 1 check failure, 2 usage/regime error)."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import spikequery
from spikequery import (
    AlgorithmConfig,
    LazySpikedInstance,
    instances,
    make_lazy_spiked,
    open_session,
    run,
    score,
    verify,
)
from spikequery.cli import (
    OUTPUT_DIR_ENV,
    RunConfig,
    UsageError,
    _column_medians,
    _fmt,
    cmd_bounds,
    cmd_simulate,
    config_from_namespace,
    config_header,
    build_parser,
    main,
)
from spikequery.verify import (
    CHECKS,
    CSV_HEADER,
    LAZY_TRIAL_ARRAYS,
    QUICK_PARAMS,
    McReport,
    McRow,
)


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

    @pytest.mark.parametrize("alg", ["power", "lanczos", "random"])
    def test_rows_match_library_score(self, alg, capsys):
        seed, d, T = 4, 40, 6
        code, out, _ = run_main(
            ["simulate", "--alg", alg, "--d", str(d), "--lambda", "3",
             "--T", str(T), "--trials", "3", "--seed", str(seed)], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        for i in range(3):
            rng = instances.as_rng(instances.trial_seed(seed, i))
            inst = make_lazy_spiked(d, 3.0, seed=rng)
            session = open_session(inst, budget=T)
            run(session, AlgorithmConfig(kind=alg, seed=rng))
            s = score(session.transcript, inst)
            assert rows[i] == (
                [str(i), str(session.transcript.queries_made),
                 _fmt(s.rayleigh_ratio), _fmt(s.spike_overlap)]
                + [_fmt(x) for x in s.step_overlaps]
            )

    def test_all_nan_step_column_prints_nan(self, capsys):
        # lanczos closes its Krylov space at d = 5, so steps 6-8 are NaN in
        # every trial: their median is nan, and no RuntimeWarning is raised
        code, out, _ = run_main(
            ["simulate", "--alg", "lanczos", "--d", "5", "--lambda", "3",
             "--T", "8", "--trials", "4", "--seed", "3"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[-1][-3:] == ["nan"] * 3
        assert "nan" not in rows[-1][:-3]

    def test_random_baseline_median_overlap_small(self, capsys):
        code, out, _ = run_main(
            ["simulate", "--alg", "random", "--d", "2000", "--lambda", "2",
             "--T", "10", "--trials", "11", "--seed", "1"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        summary = rows[-1]
        assert summary[0] == "median"
        assert float(summary[header.index("spike_overlap")]) <= 0.05


@pytest.mark.parametrize("n", [1, 2, 5, 6, 11])
def test_column_medians_match_np_median(n):
    rng = np.random.default_rng(n)
    table = rng.standard_normal((n, 6))
    table[rng.random((n, 6)) < 0.3] = np.nan
    table[:, 0] = rng.integers(0, 4, n)  # whole numbers, as in the T column
    table[:, 5] = np.nan
    expected = [np.median(c[~np.isnan(c)]) if np.any(~np.isnan(c)) else np.nan
                for c in table.T]
    assert np.array_equal(_column_medians(table), expected, equal_nan=True)


@pytest.mark.parametrize("argv", [
    ["simulate", "--alg", "power", "--d", "20", "--lambda", "3", "--T", "2", "--trials", "2"],
    ["scaling", "--alg", "power", "--d-grid", "64", "--lambda", "8", "--trials", "2"],
])
def test_negative_seed_exits_zero(argv, capsys):
    code, out, err = run_main(argv + ["--seed", "-3"], capsys)
    assert code == 0, err
    assert "seed=-3" in out.splitlines()[0]


def test_seed_domain_is_integers_mod_2_64(capsys):
    # every check opens its streams from the seed taken mod 2^64, as the
    # trial streams do, so -1 and 2^64 - 1 give the same data rows
    code, minus_one, _ = run_main(["verify", "--check", "all", "--quick", "--seed", "-1"], capsys)
    assert code == 0
    code, top, _ = run_main(
        ["verify", "--check", "all", "--quick", "--seed", str(2**64 - 1)], capsys
    )
    assert code == 0
    assert minus_one.splitlines()[1:] == top.splitlines()[1:]


_EXTREME_ARGV = [
    ["bounds", "--d", "1000", "--lambda", "1e200", "--delta", "0.1", "--T", "3"],
    ["bounds", "--d", "1000", "--lambda", "1.4e154", "--delta", "0.1", "--T", "3"],
    ["bounds", "--d", "1000", "--lambda", "inf", "--delta", "0.1", "--T", "3"],
    ["bounds", "--d", "1", "--lambda", "1e300", "--eta", "1e300", "--delta", "0.999999",
     "--delta0", "1e-300", "--threshold", "0.999", "--T-range", "0:5", "--kd", "1e300",
     "--c1-estimation", "1e300", "--c1-detection", "1e-300"],
    ["bounds", "--d", str(10**30), "--gamma", "1e-300", "--eps", "0.999999",
     "--lambda", "1e-300", "--delta", "1e-300", "--T", "400", "--threshold", "1e-300"],
    ["bounds", "--d", str(10**400), "--lambda", "3", "--delta", "0.1", "--T", "3"],
    ["simulate", "--alg", "power", "--d", "2", "--lambda", "1e150", "--T", "5",
     "--trials", "2", "--seed", "-1"],
    ["simulate", "--alg", "lanczos", "--d", "2", "--lambda", "1e150", "--T", "5",
     "--trials", "2", "--seed", str(2**70)],
    ["simulate", "--alg", "random", "--d", "2", "--lambda", "0", "--T", "9", "--trials", "1"],
    ["simulate", "--alg", "power", "--d", "2", "--lambda", "1e300", "--T", "3", "--trials", "1"],
    ["simulate", "--alg", "lanczos", "--d", "3", "--lambda", "inf", "--T", "3", "--trials", "1"],
    ["scaling", "--alg", "lanczos", "--d-grid", "2,3", "--lambda", "1e150", "--trials", "2",
     "--max-T", "3", "--seed", "-1"],
    ["scaling", "--alg", "power", "--d-grid", "64", "--lambda", "inf", "--trials", "1"],
    ["scaling", "--alg", "power", "--d-grid", "2", "--lambda", "8", "--trials", "1",
     "--delta0", "1e-300", "--kd", "1e300"],
] + [
    ["verify", "--check", check, "--quick", "--seed", "-1"] for check in sorted(CHECKS)
] + [
    ["verify", "--check", check, "--d", "2", "--n", "2", "--seed", str(-(2**70))]
    for check in sorted(CHECKS)
] + [
    ["verify", "--check", check, "--d", "1000000000000", "--quick", "--n", "1"]
    for check in ("overlap-growth", "detection-gap", "reduction-events")
] + [
    ["verify", "--check", check, "--d", "200000", "--quick"]
    for check in ("gauss-quadratic", "conditional-law")
] + [
    ["simulate", "--alg", "power", "--d", "1000000000000", "--lambda", "3", "--T", "6",
     "--trials", "1"],
    ["scaling", "--alg", "power", "--d-grid", "1000000000000", "--lambda", "8",
     "--trials", "1"],
]


@pytest.mark.parametrize("argv", _EXTREME_ARGV, ids=lambda argv: " ".join(argv)[:60])
def test_extreme_values_exit_without_traceback(argv, capsys):
    code, _, err = run_main(argv, capsys)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:  # a failed check; no other subcommand reports one
        assert argv[0] == "verify"


@pytest.mark.parametrize("check", ["overlap-growth", "detection-gap"])
def test_instance_larger_than_memory_is_a_usage_error(check, capsys):
    # one trial thread holds per instance LAZY_TRIAL_ARRAYS (T, d) arrays
    # and the T x T compression
    code, _, err = run_main(
        ["verify", "--check", check, "--d", "1000000000000", "--quick", "--n", "1"], capsys
    )
    per_trial = {"overlap-growth": 1, "detection-gap": 2}[check]
    T = QUICK_PARAMS[check]["T"]
    need = 8 * per_trial * (10**12 * LAZY_TRIAL_ARRAYS * T + T * T)
    assert code == 2
    assert f"and a {T} x {T} compression" in err
    assert f"needs {need} bytes" in err and "bytes of physical memory" in err


def _physical_memory(monkeypatch, pages):
    """Make the process see ``pages`` pages of 4096 bytes of physical memory."""
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}
    monkeypatch.setattr(instances.os, "sysconf", lambda name: sizes[name])


@pytest.mark.parametrize("jobs, threads", [([], 2), (["--jobs", "1"], 1), (["--jobs", "5"], 3)])
def test_simulate_larger_than_memory_is_a_usage_error(jobs, threads, monkeypatch, capsys):
    # a trial thread holds LAZY_TRIAL_ARRAYS (T, d) arrays, and T +
    # 2 NORM_SOLVE_ROWS rows more once the norm solve regrows the instance,
    # with its compression and the solve's Lanczos coefficients, two squares
    # of T + NORM_SOLVE_ROWS rows; --jobs caps the threads, which are at most
    # the trials and by default the cores
    monkeypatch.setattr(instances.os, "sched_getaffinity", lambda pid: set(range(2)))
    _physical_memory(monkeypatch, 1000)
    d, T = 100_000, 6
    code, out, err = run_main(
        ["simulate", "--alg", "power", "--d", str(d), "--lambda", "3", "--T", str(T),
         "--trials", "3"] + jobs, capsys)
    square = T + instances.NORM_SOLVE_ROWS
    need = 8 * threads * (
        d * (LAZY_TRIAL_ARRAYS * T + T + 2 * instances.NORM_SOLVE_ROWS) + 2 * square**2
    )
    assert code == 2 and out == ""
    assert f"needs {need} bytes, more than the 4096000 bytes of physical memory" in err
    assert (f"and {T + 2 * instances.NORM_SOLVE_ROWS} rows of length {d} and two "
            f"{square} x {square} arrays for the norm solve") in err


def test_simulate_regrowth_past_memory_is_refused_without_a_traceback(monkeypatch, capsys):
    # the up-front count holds the session and the solve's first reserve;
    # a null instance's solve reveals more than that reserve and doubles
    # the instance's arrays, which a machine of 400 pages (1.6 MB) refuses
    # before allocating them.  A scaling trial is a simulate trial, and at
    # lambda = 0.2, below the BBP threshold 1 (with --kd small enough that
    # the regime check passes), its solve regrows as on a null instance
    _physical_memory(monkeypatch, 400)
    d, T = 2000, 6
    rows = 2 * (T + instances.NORM_SOLVE_ROWS) + 1
    need = 8 * (2 * rows * d + rows * rows + rows)
    for argv, prefix in (
        (["simulate", "--alg", "power", "--d", str(d), "--lambda", "0", "--T", str(T)],
         f"simulate at d={d}"),
        (["scaling", "--alg", "power", "--d-grid", str(d), "--lambda", "0.2", "--kd", "0.01",
          "--max-T", str(T)], "scaling"),
    ):
        code, out, err = run_main(argv + ["--trials", "1", "--jobs", "1"], capsys)
        assert code == 2 and out == ""
        assert err == (f"error: {prefix}: a lazy instance of dimension {d} grown to "
                       f"{rows} revealed directions needs {need} bytes, more than the "
                       f"1638400 bytes of physical memory\n")


def test_simulate_lets_other_errors_through(monkeypatch):
    # only the memory refusal becomes an exit code
    def failing(*args, **kwargs):
        raise ValueError("not a memory refusal")

    monkeypatch.setattr("spikequery.cli.score", failing)
    with pytest.raises(ValueError, match="not a memory refusal"):
        main(["simulate", "--alg", "power", "--d", "50", "--lambda", "3", "--T", "2",
              "--trials", "1", "--jobs", "1"])


@pytest.mark.parametrize("jobs, threads", [([], 2), (["--jobs", "1"], 1)])
def test_scaling_instances_larger_than_memory_are_a_usage_error(
    jobs, threads, monkeypatch, capsys
):
    # a trial thread holds a simulate trial at the largest grid d with a
    # budget of max-T (64): LAZY_TRIAL_ARRAYS (T, d) arrays, T +
    # 2 NORM_SOLVE_ROWS rows more and two squares of T + NORM_SOLVE_ROWS rows
    monkeypatch.setattr(instances.os, "sched_getaffinity", lambda pid: set(range(2)))
    _physical_memory(monkeypatch, 1000)
    d, T = 100_000, 64
    code, out, err = run_main(
        ["scaling", "--alg", "power", "--d-grid", f"{d},500", "--lambda", "8",
         "--trials", "3"] + jobs, capsys)
    square = T + instances.NORM_SOLVE_ROWS
    need = 8 * threads * (
        d * (LAZY_TRIAL_ARRAYS * T + T + 2 * instances.NORM_SOLVE_ROWS) + 2 * square**2
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: scaling at d={d}: {threads} trial threads of 1 lazy "
                          f"instances, each with {LAZY_TRIAL_ARRAYS} {T} x {d} arrays")
    assert f"needs {need} bytes, more than the 4096000 bytes of physical memory" in err


def test_simulate_trial_holds_no_dxd_array(monkeypatch, capsys):
    # one trial at d = 2e5, where a d x d array would be 320 GB: the lazy
    # instance holds two rows of d floats per revealed direction (the T
    # queries', the norm solve's and at most one more), in arrays the norm
    # solve regrows once, to NORM_SOLVE_ROWS rows beyond those in use; the
    # session and the solve a few rows more (the peak measured 5.5 revealed
    # rows, at 24 reveals).  A scaling trial is a simulate trial, with its
    # candidates' quotients read from the finished session
    reveals = []
    reveal = LazySpikedInstance._reveal

    def counting(self, b):
        reveals.append(b)
        return reveal(self, b)

    monkeypatch.setattr(LazySpikedInstance, "_reveal", counting)
    d, T = 200_000, 6
    for argv in (["simulate", "--alg", "power", "--d", str(d), "--lambda", "3",
                  "--T", str(T)],
                 ["scaling", "--alg", "power", "--d-grid", str(d), "--lambda", "3",
                  "--max-T", str(T)]):
        reveals.clear()
        tracemalloc.start()
        try:
            code, _, _ = run_main(argv + ["--trials", "1", "--jobs", "1"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert T < len(reveals) < 64
        assert peak < 10 * len(reveals) * d * 8


@pytest.mark.parametrize("check", ["gauss-quadratic", "conditional-law"])
@pytest.mark.parametrize("d", ["200000", "1000000000000"])
def test_check_arrays_larger_than_memory_are_a_usage_error(check, d, capsys):
    code, _, err = run_main(["verify", "--check", check, "--d", d, "--quick"], capsys)
    assert code == 2
    assert f" {d} x {d} arrays " in err and "bytes of physical memory" in err


def test_reduction_events_larger_than_memory_is_a_usage_error(capsys):
    # refused before the K_d estimate's first instance draws its theta; a
    # trial is counted as simulate's are, with its solve's first reserve
    code, out, err = run_main(
        ["verify", "--check", "reduction-events", "--d", "1000000000000", "--quick",
         "--n", "1"], capsys)
    T, square = 12, 12 + instances.NORM_SOLVE_ROWS
    need = 8 * (10**12 * (LAZY_TRIAL_ARRAYS * T + T + 2 * instances.NORM_SOLVE_ROWS)
                + 2 * square**2)
    assert (code, out) == (2, "")
    assert err.startswith("error: check 'reduction-events': 1 trial threads of 1 lazy")
    assert f"needs {need} bytes" in err and "bytes of physical memory" in err


@pytest.mark.parametrize("check", ["reduction-events", "kd"])
def test_spectra_solve_regrowth_past_memory_is_refused_without_a_traceback(
    check, monkeypatch, capsys
):
    # on one core, reduction-events' up-front count (80.2 pages at d = 300)
    # passes; the first quick null solve reveals more than its first reserve
    # of NORM_SOLVE_ROWS rows and doubles the instance's arrays, which a
    # machine of 85 pages refuses before allocating them
    monkeypatch.setattr(instances.os, "sched_getaffinity", lambda pid: {0})
    _physical_memory(monkeypatch, 85)
    code, out, err = run_main(["verify", "--check", check, "--quick"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: check '{check}': a lazy instance of dimension 300 grown to ")
    assert err.endswith(" bytes of physical memory\n")


def test_override_a_check_does_not_take_is_a_usage_error(capsys):
    code, out, err = run_main(["verify", "--check", "kd", "--d", "300"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: check 'kd': no parameter d; it takes d_grid, n, seed\n"


def test_type_error_inside_a_check_is_not_a_usage_error(monkeypatch):
    def broken(**params):
        raise TypeError("a bug in the check")

    monkeypatch.setitem(CHECKS, "kd", broken)
    with pytest.raises(TypeError, match="a bug in the check"):
        main(["verify", "--check", "kd", "--quick"])


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


class TestThreadCount:
    """Trials run on every available core unless --jobs caps them; the
    output is that of one core."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--alg", "lanczos", "--d", "300", "--lambda", "3",
         "--T", "8", "--trials", "5", "--seed", "4"],
        ["scaling", "--alg", "power", "--d-grid", "128,256", "--lambda", "8",
         "--trials", "3", "--seed", "6"],
    ])
    def test_one_and_three_cores_byte_identical(self, argv, monkeypatch, capsys):
        runs = []
        for cores in (1, 3):
            monkeypatch.setattr(
                instances.os, "sched_getaffinity", lambda pid, k=cores: set(range(k))
            )
            runs.append(run_main(argv, capsys))
        assert runs[0][0] == 0
        assert runs[0] == runs[1]


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


class TestSharedParser:
    """``main`` reuses one parser per process; a call must not see what
    earlier calls parsed, printed or failed on."""

    CALLS = [
        ["verify", "--check", "conditional-law", "--n", "1"],  # a usage error
        ["--help"],
        ["bounds", "--d", "1000", "--lambda", "8", "--T", "2"],
        ["simulate", "--alg", "power", "--d", "50", "--lambda", "3", "--T", "3",
         "--trials", "2", "--seed", "4"],
    ]

    SCRIPT = """
import contextlib, io, json, sys
from spikequery import cli
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""

    def run_together(self, calls):
        """(exit code, stdout, stderr) of each call, all made in order in one
        fresh interpreter."""
        src = str(Path(spikequery.__file__).resolve().parents[1])
        env = dict(os.environ, COLUMNS="80",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(calls)],
            capture_output=True, text=True, env=env, check=True,
        )
        return [tuple(json.loads(line)) for line in done.stdout.splitlines()]

    def test_each_call_answers_as_in_a_fresh_interpreter(self):
        alone = [self.run_together([argv])[0] for argv in self.CALLS]
        assert [code for code, _, _ in alone] == [2, 0, 0, 0]
        assert alone[1][1].startswith("usage: spikequery")
        assert self.run_together(self.CALLS) == alone
        assert self.run_together(self.CALLS[::-1]) == alone[::-1]

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()
