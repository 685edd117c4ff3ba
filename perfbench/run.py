#!/usr/bin/env python3
"""Benchmark for the spikequery query laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload in turn
    python3 perfbench/run.py --smoke

Run from the repository root.  Load is a closed loop from one client: one
process calls ``spikequery.cli.main`` in-process, waits for it, checks its
output and sends the next operation.  An operation is one CLI call, or for
``verify-quick`` one call per check.  Every operation gets its own CLI seed,
drawn from ``--seed``.  BLAS is pinned to ``BLAS_THREADS`` threads.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced operations and reports the per-layer metrics, plus the
tracing overhead as the ratio of the two median latencies.  The last line of
standard output is the result as one JSON object; the lines before it are a
readable summary and the environment.  The full record, spans included, goes
to ``perfbench/out/``.

``--smoke`` runs every workload at a tiny size, traced and untraced, and
fails unless every metric in ``BENCHMARK.json`` is emitted with its unit.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: BLAS threads for every workload; at most nproc on any machine with a CPU.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Cold starts timed for setup_s, after one untimed start that warms the
#: file cache; the median is reported.
SETUP_REPEATS = 5

#: The checks of ``verify --check all``, in its order.
VERIFY_CHECKS = (
    "sphere-tail",
    "conditional-law",
    "gauss-quadratic",
    "reduction-events",
    "overlap-growth",
    "detection-gap",
    "kd",
)


@dataclass(frozen=True)
class Workload:
    commands: Tuple[str, ...]  # one operation: these CLI calls at one seed, without --seed
    tiny: Tuple[str, ...]  # the same operation at smoke-test size


# Why each workload was chosen, and which layer it stresses: perfbench/README.md.
# verify-quick runs `verify --check all --quick` as one call per check: the
# same run_check calls at the same seed, each timed and checked on its own.
WORKLOADS: Dict[str, Workload] = {
    "sim-power-d2000": Workload(
        ("simulate --alg power --d 2000 --lambda 3 --T 6 --trials 1",),
        ("simulate --alg power --d 64 --lambda 3 --T 6 --trials 1",),
    ),
    "sim-lanczos-T64": Workload(
        ("simulate --alg lanczos --d 1000 --lambda 3 --T 64 --trials 1",),
        ("simulate --alg lanczos --d 64 --lambda 3 --T 16 --trials 1",),
    ),
    "verify-quick": Workload(
        tuple(f"verify --check {name} --quick" for name in VERIFY_CHECKS),
        ("verify --check kd --quick",),
    ),
}


@dataclass
class Op:
    argv: List[str]
    seconds: float
    rc: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str]
    call: int  # position of the CLI call within its operation
    traced: bool = False
    ok: bool = False
    reason: Optional[str] = None
    rayleigh: Optional[float] = None


def calls_for(workload: str, seed: int, tiny: bool) -> List[List[str]]:
    """The CLI calls (argv lists) that make up one operation at ``seed``."""
    spec = WORKLOADS[workload]
    return [c.split() + ["--seed", str(seed)] for c in (spec.tiny if tiny else spec.commands)]


def run_op(cli, argv: List[str], call: int) -> Op:
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # any exception is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Op(argv, seconds, rc, out.getvalue(), err.getvalue(), error, call)


def run_operation(cli, workload: str, seed: int, tiny: bool) -> List[Op]:
    return [run_op(cli, argv, i) for i, argv in enumerate(calls_for(workload, seed, tiny))]


# ------------------------------------------------------------ output checks

def check_simulate(op: Op) -> Tuple[Optional[str], Optional[float]]:
    """(failure reason or None, rayleigh ratio of trial 0)."""
    opts = {k.lstrip("-"): v for k, v in zip(op.argv[1::2], op.argv[2::2])}
    T, trials = int(opts["T"]), int(opts["trials"])
    lines = op.stdout.splitlines()
    if len(lines) != trials + 3:
        return f"expected {trials + 3} lines, got {len(lines)}", None
    head = lines[0].split()
    if head[:3] != ["#", "spikequery", "simulate"]:
        return "missing config header", None
    echo = dict(tok.split("=", 1) for tok in head[3:])
    expected = {
        "alg": opts["alg"] == echo.get("alg"),
        "d": int(echo.get("d", -1)) == int(opts["d"]),
        "lam": float(echo.get("lam", "nan")) == float(opts["lambda"]),
        "T": int(echo.get("T", -1)) == T,
        "trials": int(echo.get("trials", -1)) == trials,
        "seed": int(echo.get("seed", -1)) == int(opts["seed"]),
    }
    wrong = [k for k, good in expected.items() if not good]
    if wrong:
        return f"header does not echo {wrong}", None
    columns = ["trial", "T", "rayleigh_ratio", "spike_overlap"] + [
        f"step_overlap_{k}" for k in range(1, T + 1)
    ]
    if lines[1].split(",") != columns:
        return "unexpected CSV columns", None
    if not lines[-1].startswith("median,"):
        return "missing median row", None
    first = None
    for row in lines[2:-1]:
        fields = row.split(",")
        if len(fields) != len(columns):
            return "ragged CSV row", None
        made, ratio, overlap = int(fields[1]), float(fields[2]), float(fields[3])
        if not 0 <= made <= T:
            return f"T={made} exceeds the budget {T}", None
        if not -1.0 <= ratio <= 1.0 + 1e-9:
            return f"rayleigh_ratio {ratio} outside [-1, 1+1e-9]", None
        if not 0.0 <= overlap <= 1.0:
            return f"spike_overlap {overlap} outside [0, 1]", None
        first = ratio if first is None else first
    return None, first


def check_verify(op: Op) -> Tuple[Optional[str], Optional[float]]:
    lines = op.stdout.splitlines()
    if op.rc != 0:
        failing = [ln.strip() for ln in op.stderr.splitlines() if "FAIL" in ln]
        return f"exit {op.rc}: {failing[:3]}", None
    if len(lines) < 3 or not lines[0].startswith("# spikequery verify"):
        return "missing config header", None
    if lines[1] != "check,label,n,empirical,bound,stderr,pass":
        return "unexpected CSV columns", None
    return None, None


def check(op: Op) -> None:
    if op.error is not None:
        op.reason = op.error
    elif op.rc != 0 and op.argv[0] != "verify":
        op.reason = f"exit {op.rc}: {op.stderr.strip()[:200]}"
    else:
        checker = check_simulate if op.argv[0] == "simulate" else check_verify
        try:
            op.reason, op.rayleigh = checker(op)
        except (ValueError, KeyError, IndexError) as exc:
            op.reason = f"unparseable output: {exc}"
    op.ok = op.reason is None


# ------------------------------------------------------------- measurement

def measure_setup(workload: str, seed: int) -> List[float]:
    """Wall time of cold processes that import the CLI and run one tiny
    operation of the workload: interpreter start, imports and warm-up.  One
    untimed start first warms the file cache.  The exit codes are not checked
    here: the timed loop checks every operation's output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    code = (
        "import json, sys; from spikequery import cli\n"
        "for argv in json.loads(sys.argv[1]): cli.main(argv)"
    )
    calls = json.dumps(calls_for(workload, seed, tiny=True))
    samples = []
    for _ in range(1 + SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, calls],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120,
        )
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.decode()[-500:]}")
    return samples[1:]


def p95(latencies: List[float]) -> float:
    """Nearest-rank 95th percentile: the maximum of fewer than 20 samples,
    the second largest of 20 to 39, so one stray slow call does not set it.

    On a shared cloud host (measured on a 2-core KVM guest) the CPU switches
    between a fast speed and one about 1.5x slower for seconds at a time.  A
    high percentile reads the slow speed whenever a twentieth of the run had
    it; a median or a mean follows the share of the run spent at each speed,
    which differs from run to run."""
    xs = sorted(latencies)
    return xs[math.ceil(0.95 * len(xs)) - 1]


def tail(latencies: List[float]) -> Tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, i.e. the 11th largest sample.  With ten or fewer samples no
    percentile qualifies and the maximum is reported as percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def per_call_sum(ops: List[Op], calls: int, stat) -> float:
    """``stat`` of the latencies of each CLI call of an operation, summed over
    its ``calls`` calls; 0 unless every call has a passed sample."""
    by_call: Dict[int, List[float]] = defaultdict(list)
    for op in ops:
        if op.ok:
            by_call[op.call].append(op.seconds)
    if len(by_call) < calls:
        return 0.0
    return sum(stat(xs) for xs in by_call.values())


def per_op(value: float, n: int) -> float:
    return value / n if n else 0.0


def layer_metrics(tracer, n: int, ops: List[Op]) -> Dict[str, float]:
    """Per-layer metrics over the ``n`` traced operations among ``ops``."""
    names = [rec[3] for rec in tracer.spans]
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    for _op, _idx, parent, name, _start, dur, own in tracer.spans:
        parent_name = names[parent] if parent >= 0 else ""
        layer, parent_layer = name.split(".")[0], parent_name.split(".")[0]
        # a call counts where it enters the function (or layer) from outside
        for key, enters in ((name, parent_name != name), (layer, parent_layer != layer)):
            calls[key] += enters
            self_s[key] += own
            total_s[key] += dur

    counts = tracer.counts
    traced = [op for op in ops if op.traced]
    m: Dict[str, float] = {}
    for fn in ("make_spiked", "spectral_norm", "sample_goe", "check_membership"):
        m[f"instances.{fn}.calls"] = per_op(calls.get(f"instances.{fn}", 0), n)
        m[f"instances.{fn}.s"] = per_op(self_s.get(f"instances.{fn}", 0.0), n)
    sizes = tracer.instance_bytes
    m["instances.bytes_per_instance"] = statistics.fmean(sizes) if sizes else 0.0

    queries = calls.get("oracle.query", 0)
    m["oracle.query.calls"] = per_op(queries, n)
    m["oracle.query.s"] = per_op(self_s.get("oracle.query", 0.0), n)
    m["oracle.finalize.s"] = per_op(self_s.get("oracle.finalize", 0.0), n)
    m["oracle.matvecs_per_query"] = per_op(counts["matvecs"], queries)
    m["oracle.useful_query_frac"] = per_op(counts["useful_steps"], counts["transcript_steps"])
    m["oracle.matvec_flops"] = per_op(counts["matvec_flops"], n)
    m["oracle.matvec_bytes"] = per_op(counts["matvec_bytes"], n)

    m["algorithms.run.calls"] = per_op(calls.get("algorithms.run", 0), n)
    m["algorithms.run.self_s"] = per_op(self_s.get("algorithms.run", 0.0), n)
    m["algorithms.ritz_from_pairs.calls"] = per_op(calls.get("algorithms.ritz_from_pairs", 0), n)
    m["algorithms.ritz_from_pairs.s"] = per_op(self_s.get("algorithms.ritz_from_pairs", 0.0), n)
    m["algorithms.early_terminations"] = per_op(counts["early_terminations"], n)

    for layer in ("bounds", "divergences"):
        m[f"{layer}.calls"] = per_op(calls.get(layer, 0), n)
        m[f"{layer}.s"] = per_op(self_s.get(layer, 0.0), n)

    for check_name in VERIFY_CHECKS:
        span = f"verify.{check_name}"
        m[f"{span}.s"] = per_op(total_s.get(span, 0.0), n)
        m[f"{span}.self_s"] = per_op(self_s.get(span, 0.0), n)
        margins = tracer.margins.get(check_name)
        m[f"{span}.min_margin_se"] = min(margins) if margins else 0.0

    m["cli.self_s"] = per_op(self_s.get("cli.main", 0.0), n)
    m["cli.output_bytes"] = per_op(
        sum(len(op.stdout.encode()) + len(op.stderr.encode()) for op in traced), n
    )
    ratios = [op.rayleigh for op in ops if op.ok and op.rayleigh is not None]
    m["cli.rayleigh_ratio_p50"] = statistics.median(ratios) if ratios else 0.0

    calls = 1 + max(op.call for op in ops)
    fast = per_call_sum([op for op in ops if not op.traced], calls, statistics.median)
    slow = per_call_sum(traced, calls, statistics.median)
    m["trace.overhead_frac"] = slow / fast - 1.0 if fast and slow else 0.0
    return m


def environment() -> Dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        llc = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
        llc_bytes = int(llc) if llc.isdigit() else None
    except (OSError, subprocess.SubprocessError):
        llc_bytes = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc_bytes,
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> Dict:
    """One benchmark run; returns the full record."""
    from spikequery import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"spikequery imported from {cli.__file__}, not from {SRC}")
    from tracing import Tracer

    setup = None if trace else measure_setup(workload, seed)
    rng = random.Random(seed)
    tracer = Tracer(VERIFY_CHECKS) if trace else None

    first_seed = rng.getrandbits(31)
    # one untimed operation at the first seed: warm-up, and the replay reference
    warm = run_operation(cli, workload, first_seed, tiny)
    for op in warm:
        check(op)

    ops: List[Op] = []
    durations: List[float] = []  # per operation
    traced_ops = 0
    op_seed = first_seed
    start = time.perf_counter()
    while True:
        traced = trace and len(durations) % 2 == 0
        if traced:
            tracer.op = len(durations)
            tracer.install()
        try:
            batch = run_operation(cli, workload, op_seed, tiny)
        finally:
            if traced:
                tracer.uninstall()
        for op in batch:
            op.traced = traced
            check(op)
        ops += batch
        durations.append(sum(op.seconds for op in batch))
        traced_ops += traced
        # stop when one more operation would likely overshoot the deadline
        # by more than stopping now falls short of it
        if time.perf_counter() - start + statistics.median(durations) / 2 >= seconds:
            break
        op_seed = rng.getrandbits(31)
    wall = time.perf_counter() - start

    for replay, ref in zip(ops, warm):
        if replay.ok and (replay.rc, replay.stdout, replay.stderr) != (ref.rc, ref.stdout, ref.stderr):
            replay.ok = False
            replay.reason = "output differs from a replay at the same seed"

    checked = warm + ops
    failures = [f"{' '.join(op.argv)}: {op.reason}" for op in checked if not op.ok]
    record: Dict = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(checked),
        "failed": len(failures),
        "failures": failures[:10],
        "environment": environment(),
    }
    if trace:
        record["metrics"] = layer_metrics(tracer, traced_ops, ops)
        record["traced_ops"] = traced_ops
        record["absent"] = tracer.absent
        record["computed"] = ["oracle.matvec_flops", "oracle.matvec_bytes"]
        record["spans"] = tracer.spans
    else:
        n_calls = len(warm)
        good = [d for k, d in enumerate(durations)
                if all(op.ok for op in ops[k * n_calls:(k + 1) * n_calls])]
        ratios = [op.rayleigh for op in ops if op.ok and op.rayleigh is not None]
        record["metrics"] = {
            "setup_s": statistics.median(setup),
            # the p95 latency of an operation, per CLI call for verify-quick
            "op_s_p95": per_call_sum(ops, n_calls, p95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_samples_s"] = setup
        record["latencies_s"] = [[op.call, op.seconds] for op in ops]
        record["operations"] = len(durations)
        record["op_s_p50"] = statistics.median(good) if good else None
        record["op_s_tail"], record["op_s_tail_percentile"] = tail(good) if good else (None, None)
        record["ops_per_s"] = len(good) / wall
        record["failed_frac"] = len(failures) / len(checked)
        record["rayleigh_ratio_p50"] = statistics.median(ratios) if ratios else None
    return record


# ------------------------------------------------------------------ output

def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result_line(record: Dict, spec: Dict) -> str:
    kind = "per_layer" if record["trace"] else "end_to_end"
    metrics = {
        m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
        for m in spec[kind]
    }
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def summary(record: Dict, spec: Dict) -> List[str]:
    kind = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    lines = [f"workload {record['workload']} seed {record['seed']} trace {record['trace']}"]
    for name, value in record["metrics"].items():
        lines.append(f"  {name:<40} {value:>14.6g} {units.get(name, '')}")
    if not record["trace"]:
        lines.append(f"  not in the result line ({record['operations']} operations):")
        for name, unit in (("op_s_p50", "s"), ("op_s_tail", "s"), ("ops_per_s", "1/s"),
                           ("failed_frac", "frac"), ("rayleigh_ratio_p50", "ratio")):
            value = record[name]
            lines.append(f"  {name:<40} " + (f"{value:>14.6g} {unit}" if value is not None
                                             else f"{'n/a':>14}"))
        if record["op_s_tail"] is not None:
            lines.append(f"  {'op_s_tail percentile':<40} {record['op_s_tail_percentile']:>14.4g} %")
    else:
        lines.append(f"  traced operations: {record['traced_ops']}; absent names: {record['absent']}")
        lines.append(f"  computed, not measured: {record['computed']}")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    lines.append("environment " + json.dumps(record["environment"], sort_keys=True))
    return lines


def save(record: Dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w") as fh:
        json.dump(record, fh)


def smoke(spec: Dict) -> int:
    """Every workload at a tiny size, untraced then traced: each run must pass
    its checks and emit exactly the metrics BENCHMARK.json lists, as finite
    numbers.  Units come from BENCHMARK.json."""
    problems = []
    listed = {w["name"] for w in spec["workloads"]}
    if listed != set(WORKLOADS):
        problems.append(f"BENCHMARK.json lists {sorted(listed)}, run.py has {sorted(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace in (False, True):
            record = bench(workload, seed=1, seconds=0.5, trace=trace, tiny=True)
            where = f"{workload} trace={int(trace)}"
            expected = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            emitted = record["metrics"]
            if set(emitted) != expected:
                problems.append(f"{where}: missing {sorted(expected - set(emitted))}, "
                                f"unlisted {sorted(set(emitted) - expected)}")
            problems += [f"{where}: {name} = {value!r}" for name, value in emitted.items()
                         if not (isinstance(value, (int, float)) and math.isfinite(value))]
            problems += [f"{where}: {failure}" for failure in record["failures"]]
            print(f"smoke {where}: {len(emitted)} metrics, {record['attempted']} operations")
    for problem in problems:
        print("smoke FAILED:", problem)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if not (SRC / "spikequery" / "cli.py").is_file():
        print(f"error: no spikequery sources under {SRC}", file=sys.stderr)
        return 1
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("SPIKEQUERY_OUTPUT_DIR", None)  # the CLI must write to stdout
    sys.path.insert(0, str(SRC))
    spec = load_spec()

    if args.smoke:
        return smoke(spec)
    if args.workload == "all":  # one process per workload, as peak_rss_mb needs
        for workload in WORKLOADS:
            rc = subprocess.run([
                sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]).returncode
            if rc != 0:
                return rc
        return 0
    try:
        record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:  # the program cannot be set up: no result
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save(record)
    for line in summary(record, spec):
        print(line)
    print(result_line(record, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
