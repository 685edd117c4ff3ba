"""Command-line experiment runner tying instances, algorithms, bounds, and
verification into reproducible batch runs with CSV outputs.

Four subcommands:

  simulate   per-trial algorithm runs on matrix-free instances
             (make_lazy_spiked): Rayleigh ratio, spike overlap
             <v_hat, theta>^2, and per-step scaled overlaps
             d <b_k, theta>^2, plus a median row.
  bounds     tabulates the closed-form bounds and tau schedules over T.
  verify     drives the Monte-Carlo verification checks; exit 0 iff all pass.
  scaling    median queries-to-target of simulate trials next to the
             theoretical minimum query count at the matched eigenratio.

Every run writes a single '#' header line echoing the full configuration and
seed; re-running the same command line reproduces the output byte for byte
(trial i draws from the i-th spawn child of the base seed's SeedSequence,
and results merge in trial order however many threads run them: --jobs caps
the threads of simulate and scaling, by default every available core).
Output goes to --output when given, else to
$SPIKEQUERY_OUTPUT_DIR/<subcommand>.csv when that variable is set, else to
stdout.  Floats are printed at 12 significant digits.  Exit codes: 0 pass,
1 check failure, 2 usage or regime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields
from functools import cache, partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algorithms import ALGORITHM_KINDS, AlgorithmConfig, queries_to_target, run
from .bounds import (
    C1_DETECTION_DEFAULT,
    C1_ESTIMATION_DEFAULT,
    KD_ASYMPTOTIC,
    chi_tau_schedule,
    detection_error_bound,
    detection_tv_bound,
    estimation_success_bound,
    gamma_of,
    kl_tau_schedule,
    main_theorem_bound,
    min_queries,
)
from .instances import (
    MemoryLimitError,
    as_rng,
    make_lazy_spiked,
    map_trials,
    trial_seed,
)
from .oracle import open_session, score
from .verify import (
    CHECKS,
    _require_lazy_trials_fit,
    reports_summary,
    reports_to_csv,
    run_check,
)

OUTPUT_DIR_ENV = "SPIKEQUERY_OUTPUT_DIR"

#: Largest spike strength simulate and scaling accept: beyond about 1e154
#: the squared norm of a response overflows a double.
LAMBDA_MAX = 1e150


class UsageError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """One validated CLI invocation; fields unused by the subcommand are None."""

    subcommand: str
    d: Optional[int] = None
    lam: Optional[float] = None
    gamma: Optional[float] = None
    eps: Optional[float] = None
    eta: Optional[float] = None
    delta: Optional[float] = None
    delta0: Optional[float] = None
    T: Optional[int] = None
    t_range: Optional[Tuple[int, int]] = None
    alg: Optional[str] = None
    trials: Optional[int] = None
    n: Optional[int] = None
    seed: int = 0
    output: Optional[str] = None
    jobs: Optional[int] = None
    c1_estimation: Optional[float] = None
    c1_detection: Optional[float] = None
    kd: Optional[float] = None
    threshold: Optional[float] = None
    target: Optional[float] = None
    d_grid: Optional[Tuple[int, ...]] = None
    check: Optional[str] = None
    quick: Optional[bool] = None
    max_T: Optional[int] = None


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


# Execution details that do not shape the data rows; excluded from the header
# echo so equivalent runs produce byte-identical files no matter where they
# write or how many workers they fan across.
_NON_DATA_FIELDS = ("subcommand", "output", "jobs")


def config_header(config: RunConfig) -> str:
    """The '#' comment line echoing the data-determining config and seed."""
    parts = [f"# spikequery {config.subcommand}"]
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        value = getattr(config, f.name)
        if f.name in _NON_DATA_FIELDS or value is None:
            continue
        if f.name == "t_range":
            rendered = f"{value[0]}:{value[1]}"
        elif f.name == "d_grid":
            rendered = ",".join(str(v) for v in value)
        else:
            rendered = _fmt(value)
        parts.append(f"{f.name}={rendered}")
    return " ".join(parts)


# ------------------------------------------------------------------- parsing

def _parse_t_range(text: str) -> Tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":")
        return int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")


def _parse_d_grid(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the four subcommands, built on the first call and
    shared by every later one in the process (``main`` reuses it); parsing
    leaves it unchanged, and callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="spikequery",
        description="Reproducible experiment runner for the spiked-matrix "
        "query model: simulations, closed-form bounds, Monte-Carlo "
        "verification, and scaling comparisons.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
        p.add_argument(
            "--output",
            help=f"output CSV path (default ${OUTPUT_DIR_ENV}/<subcommand>.csv, "
            "else stdout)",
        )

    p = sub.add_parser("simulate", help="per-trial algorithm runs with overlaps")
    p.add_argument("--alg", required=True, choices=list(ALGORITHM_KINDS))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--T", type=int, required=True, help="query budget per trial")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--jobs", type=int, help="trial threads (default: all cores)")
    common(p)

    p = sub.add_parser("bounds", help="tabulate closed-form bounds over T")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--gamma", type=float, help="eigenratio for the main bound")
    p.add_argument("--eps", type=float, help="Rayleigh defect for the main bound")
    p.add_argument("--eta", type=float, help="overlap target for the estimation bound")
    p.add_argument("--delta", type=float, help="enables the tau schedules")
    p.add_argument("--delta0", type=float, help="enables the detection error bound")
    p.add_argument("--T", type=int)
    p.add_argument("--T-range", dest="t_range", type=_parse_t_range, metavar="LO:HI")
    p.add_argument("--threshold", type=float, help="adds min-queries rows")
    p.add_argument("--c1-estimation", dest="c1_estimation", type=float)
    p.add_argument("--c1-detection", dest="c1_detection", type=float)
    p.add_argument("--kd", type=float, help="noise-norm constant override")
    common(p)

    p = sub.add_parser("verify", help="run Monte-Carlo verification checks")
    p.add_argument(
        "--check", required=True, choices=sorted(CHECKS) + ["all"],
    )
    p.add_argument("--quick", action="store_true", help="reduced-n parameter sets")
    p.add_argument("--d", type=int, help="dimension override for a single check")
    p.add_argument("--n", type=int, help="sample-count override for a single check")
    common(p)

    p = sub.add_parser("scaling", help="empirical vs theoretical query counts")
    p.add_argument("--alg", required=True, choices=list(ALGORITHM_KINDS))
    p.add_argument("--d-grid", dest="d_grid", type=_parse_d_grid, required=True,
                   metavar="D1,D2,...")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--target", type=float, default=0.9,
                   help="Rayleigh ratio to reach (default 0.9)")
    p.add_argument("--trials", type=int, default=9)
    p.add_argument("--delta0", type=float, default=0.05,
                   help="confidence level matching gamma (default 0.05)")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="crossing level for min-queries (default 0.5)")
    p.add_argument("--max-T", dest="max_T", type=int, default=64)
    p.add_argument("--kd", type=float, help="noise-norm constant override")
    p.add_argument("--jobs", type=int, help="trial threads (default: all cores)")
    common(p)

    return parser


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise UsageError(msg)


def config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    """Build and validate a RunConfig; raises UsageError naming the violated
    constraint before any work starts."""
    known = {f.name for f in fields(RunConfig)}
    config = RunConfig(**{k: v for k, v in vars(ns).items() if k in known})
    c = config

    if c.jobs is not None:
        _require(c.jobs >= 1, f"jobs must be >= 1, got {c.jobs}")
    if c.trials is not None:
        _require(c.trials >= 1, f"trials must be >= 1, got {c.trials}")

    if c.subcommand == "simulate":
        _require(c.d >= 2, f"d must be >= 2, got {c.d}")
        _require(c.lam >= 0, f"lambda must be >= 0, got {c.lam}")
        _require(c.lam <= LAMBDA_MAX, f"lambda must be <= {LAMBDA_MAX:g}, got {c.lam}")
        _require(c.T >= 1, f"T must be >= 1, got {c.T}")
        try:  # a trial holds a lazy instance's arrays, its session's and its score's
            _require_lazy_trials_fit(c.d, c.T, c.trials, 1, workers=c.jobs, scored=True)
        except ValueError as exc:
            raise UsageError(f"simulate at d={c.d}: {exc}")

    elif c.subcommand == "bounds":
        # the bounds take d into float arithmetic
        _require(1 <= c.d <= sys.float_info.max,
                 f"d must lie in [1, {sys.float_info.max:g}], got {c.d}")
        _require(
            (c.T is None) != (c.t_range is None),
            "exactly one of --T and --T-range is required",
        )
        if c.T is not None:
            _require(c.T >= 0, f"T must be >= 0, got {c.T}")
        if c.t_range is not None:
            lo, hi = c.t_range
            _require(0 <= lo <= hi, f"T-range needs 0 <= LO <= HI, got {lo}:{hi}")
        for name in ("gamma", "eps", "delta", "delta0", "threshold"):
            value = getattr(c, name)
            if value is not None:
                _require(0 < value < 1, f"{name} must lie in (0, 1), got {value}")
        if c.eta is not None:
            _require(c.eta >= 0, f"eta must be >= 0, got {c.eta}")
        for name in ("c1_estimation", "c1_detection", "kd"):
            value = getattr(c, name)
            if value is not None:
                _require(value > 0, f"{name} must be positive, got {value}")
        for needs_lam in ("eta", "delta", "delta0"):
            if getattr(c, needs_lam) is not None:
                _require(c.lam is not None, f"--{needs_lam} requires --lambda")
        _require(
            c.eta is not None
            or (c.gamma is not None and c.eps is not None)
            or c.lam is not None,
            "nothing to tabulate: provide --eta, --gamma with --eps, or --lambda",
        )

    elif c.subcommand == "verify":
        if c.check == "all":
            _require(
                c.d is None and c.n is None,
                "--d/--n overrides apply to a single check, not --check all",
            )
        if c.d is not None:
            _require(c.d >= 2, f"d must be >= 2, got {c.d}")
        if c.n is not None:
            _require(c.n >= 1, f"n must be >= 1, got {c.n}")

    elif c.subcommand == "scaling":
        _require(len(c.d_grid) >= 1, "d-grid must be nonempty")
        for d in c.d_grid:
            _require(d >= 2, f"every d in the grid must be >= 2, got {d}")
        _require(0 <= c.target < 1, f"target must lie in [0, 1), got {c.target}")
        _require(0 < c.delta0 < 1, f"delta0 must lie in (0, 1), got {c.delta0}")
        _require(0 < c.threshold < 1, f"threshold must lie in (0, 1), got {c.threshold}")
        _require(c.max_T >= 1, f"max-T must be >= 1, got {c.max_T}")
        _require(c.lam <= LAMBDA_MAX, f"lambda must be <= {LAMBDA_MAX:g}, got {c.lam}")
        if c.kd is not None:
            _require(c.kd > 0, f"kd must be positive, got {c.kd}")
        kd = c.kd if c.kd is not None else KD_ASYMPTOTIC
        for d in c.d_grid:
            try:
                gamma = gamma_of(d, c.lam, c.delta0, kd=kd)
            except ValueError as exc:
                raise UsageError(f"at d={d}: {exc}")
            _require(
                c.target > gamma,
                f"target must exceed the matched eigenratio gamma = {gamma:.6g} "
                f"at d={d} so the main bound applies, got {c.target}",
            )
        d = max(c.d_grid)
        try:  # a trial is simulate's, at the largest d and a budget of max-T
            _require_lazy_trials_fit(d, c.max_T, len(c.d_grid) * c.trials, 1,
                                     workers=c.jobs, scored=True)
        except ValueError as exc:
            raise UsageError(f"scaling at d={d}: {exc}")

    return config


# -------------------------------------------------------------- trial fanout

def _simulate_trial(config: RunConfig, i: int) -> Tuple:
    rng = as_rng(trial_seed(config.seed, i))
    inst = make_lazy_spiked(config.d, config.lam, seed=rng)
    session = open_session(inst, budget=config.T)
    run(session, AlgorithmConfig(kind=config.alg, seed=rng))
    made = session.transcript.queries_made
    s = score(session.transcript, inst)
    # unused budget after early termination
    step_overlaps = list(s.step_overlaps) + [math.nan] * (config.T - made)
    return (i, made, s.rayleigh_ratio, s.spike_overlap, step_overlaps)


def _scaling_trial(c: RunConfig, g: int) -> int:
    """Trial g runs at d_grid[g // trials], seeded by its index over the grid."""
    return queries_to_target(
        c.alg, c.d_grid[g // c.trials], c.lam, c.target, seed=trial_seed(c.seed, g),
        max_T=c.max_T,
    )


def _column_medians(table) -> np.ndarray:
    """Median of each column of a 2-D table over its non-NaN entries (the
    value np.median gives on them), NaN for a column with none; one sort of
    the whole table, NaNs last."""
    a = np.sort(np.asarray(table, dtype=float), axis=0)
    k = np.count_nonzero(~np.isnan(a), axis=0)[None]
    # k = 0 picks NaNs, and NaN arithmetic raises no warning
    lo = np.take_along_axis(a, (k - 1) // 2, axis=0)
    hi = np.take_along_axis(a, k // 2, axis=0)
    return ((lo + hi) / 2)[0]


# --------------------------------------------------------------- subcommands

def cmd_simulate(config: RunConfig) -> str:
    T = config.T
    try:  # a norm solve that outgrows the up-front count refuses to grow
        results = map_trials(partial(_simulate_trial, config), config.trials, config.jobs)
    except MemoryLimitError as exc:
        raise UsageError(f"simulate at d={config.d}: {exc}")

    columns = ["trial", "T", "rayleigh_ratio", "spike_overlap"] + [
        f"step_overlap_{k}" for k in range(1, T + 1)
    ]
    lines = [config_header(config), ",".join(columns)]
    for i, made, ratio, overlap, steps in results:
        lines.append(
            ",".join([str(i), str(made), _fmt(ratio), _fmt(overlap)]
                     + [_fmt(s) for s in steps])
        )
    medians = _column_medians([[made, ratio, overlap] + steps
                               for _, made, ratio, overlap, steps in results])
    lines.append(",".join(["median"] + [_fmt(m) for m in medians]))
    return "\n".join(lines) + "\n"


BOUNDS_COLUMNS = "bound,T,value,raw,vacuous,c1,error"


def _csv_safe(msg: str) -> str:
    return msg.replace(",", ";")


def _bound_sweep(label, fn, base_params, t_values, c1) -> List[str]:
    rows = []
    for T in t_values:
        try:
            rep = fn(T=T, **base_params)
            rows.append(
                f"{label},{T},{_fmt(rep.value)},{_fmt(rep.raw)},"
                f"{_fmt(rep.vacuous)},{_fmt(c1)},"
            )
        except ValueError as exc:
            rows.append(f"{label},{T},,,,{_fmt(c1)},{_csv_safe(str(exc))}")
    return rows


def cmd_bounds(config: RunConfig) -> str:
    c = config
    t_values = (
        list(range(c.t_range[0], c.t_range[1] + 1)) if c.t_range else [c.T]
    )
    c1_est = c.c1_estimation if c.c1_estimation is not None else C1_ESTIMATION_DEFAULT
    c1_det = c.c1_detection if c.c1_detection is not None else C1_DETECTION_DEFAULT

    rows: List[str] = []
    min_query_jobs: List[Tuple[str, Dict, float]] = []

    if c.eta is not None:
        params = {"d": c.d, "eta": c.eta, "lam": c.lam, "c1": c1_est}
        rows += _bound_sweep("estimation-success", estimation_success_bound,
                             params, t_values, c1_est)
        min_query_jobs.append(("estimation", params, c1_est))

    if c.gamma is not None and c.eps is not None:
        params = {"d": c.d, "gamma": c.gamma, "eps": c.eps}
        rows += _bound_sweep("main-theorem", main_theorem_bound, params, t_values, "")
        min_query_jobs.append(("main", params, ""))

    if c.lam is not None:
        params = {"d": c.d, "lam": c.lam, "c1": c1_det}
        rows += _bound_sweep("detection-tv", detection_tv_bound, params, t_values, c1_det)
        min_query_jobs.append(("detection-tv", params, c1_det))
        if c.delta0 is not None:
            params = dict(params, delta0=c.delta0)
            if c.kd is not None:
                params["kd"] = c.kd
            rows += _bound_sweep("detection-error", detection_error_bound,
                                 params, t_values, c1_det)
            min_query_jobs.append(("detection-error", params, c1_det))

    if c.delta is not None:
        t_sched = max(t_values)
        for label, build in (
            ("kl-schedule", lambda: kl_tau_schedule(c.d, c.lam, t_sched)),
            ("chi-schedule-exact",
             lambda: chi_tau_schedule(c.d, c.lam, c.delta, t_sched).exact),
            ("chi-schedule-closed",
             lambda: chi_tau_schedule(c.d, c.lam, c.delta, t_sched).closed_form),
        ):
            try:
                schedule = build()
                saturated = _fmt(schedule.saturated)
                for k, tau in enumerate(schedule.taus, start=1):
                    rows.append(f"{label},{k},{_fmt(tau)},{_fmt(tau)},{saturated},,")
            except ValueError as exc:
                rows.append(f"{label},{t_sched},,,,,{_csv_safe(str(exc))}")

    if c.threshold is not None:
        for kind, params, c1 in min_query_jobs:
            try:
                t_star = min_queries(kind, params, c.threshold)
                rows.append(
                    f"min-queries-{kind},{t_star},{_fmt(c.threshold)},,,{_fmt(c1)},"
                )
            except ValueError as exc:
                rows.append(f"min-queries-{kind},,,,,{_fmt(c1)},{_csv_safe(str(exc))}")

    return "\n".join([config_header(config), BOUNDS_COLUMNS] + rows) + "\n"


def cmd_verify(config: RunConfig) -> Tuple[str, str, int]:
    names = list(CHECKS) if config.check == "all" else [config.check]
    overrides = {}
    if config.d is not None:
        overrides["d"] = config.d
    if config.n is not None:
        overrides["n"] = config.n
    reports = []
    for name in names:
        try:
            reports.append(
                run_check(
                    name,
                    quick=bool(config.quick),
                    seed=config.seed,
                    overrides=overrides or None,
                )
            )
        except ValueError as exc:
            raise UsageError(f"check {name!r}: {exc}")
    csv_text = config_header(config) + "\n" + reports_to_csv(reports)
    summary = reports_summary(reports)
    code = 0 if all(r.passed for r in reports) else 1
    return csv_text, summary, code


def cmd_scaling(config: RunConfig) -> str:
    c = config
    kd = c.kd if c.kd is not None else KD_ASYMPTOTIC
    try:  # a norm solve that outgrows the up-front count refuses to grow
        results = map_trials(partial(_scaling_trial, c), len(c.d_grid) * c.trials, c.jobs)
    except MemoryLimitError as exc:
        raise UsageError(f"scaling: {exc}")

    lines = [config_header(config), "d,median_queries,theory_min_queries,gamma"]
    for j, d in enumerate(c.d_grid):
        counts = results[j * c.trials : (j + 1) * c.trials]
        gamma = gamma_of(d, c.lam, c.delta0, kd=kd)
        theory = min_queries(
            "main", {"d": d, "gamma": gamma, "eps": 1.0 - c.target}, c.threshold
        )
        median = _column_medians(np.reshape(counts, (-1, 1)))[0]
        lines.append(f"{d},{_fmt(median)},{theory},{_fmt(gamma)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- entry

def _resolve_output(config: RunConfig) -> Optional[Path]:
    if config.output:
        return Path(config.output)
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir:
        return Path(env_dir) / f"{config.subcommand}.csv"
    return None


def _emit(text: str, target: Optional[Path]) -> None:
    if target is None:
        sys.stdout.write(text)
    else:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w") as fh:
            fh.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the usage error
        return int(exc.code or 0)

    try:
        config = config_from_namespace(ns)
        target = _resolve_output(config)
        if config.subcommand == "simulate":
            _emit(cmd_simulate(config), target)
            return 0
        if config.subcommand == "bounds":
            _emit(cmd_bounds(config), target)
            return 0
        if config.subcommand == "scaling":
            _emit(cmd_scaling(config), target)
            return 0
        csv_text, summary, code = cmd_verify(config)
        _emit(csv_text, target)
        stream = sys.stdout if target is not None else sys.stderr
        stream.write(summary)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
