"""Time the scoring of lazy power trials and count the directions its norm
solve reveals, and merge the result into ``BENCH_reduced_solve.json``.

A trial is ``simulate``'s: a lazy instance (``make_lazy_spiked``), a power
session of budget T = 6, then ``score``.  For each (d, lam) the tool times
``score`` alone (the norm solve and v_hat^T M v_hat) and reads off the
instance how many directions its solve revealed and where: in reduced
coordinates, and how many rows of length d their basis E took.  It runs
with one BLAS thread and no plotting or other dependency beyond NumPy:

    python3 tools/solve_cost.py                       # d in {2e3, 1e5, 1e6}, lam in {0, 3}
    python3 tools/solve_cost.py --d 2000 --lam 3 --trials 50
    python3 tools/solve_cost.py --src ../parent/src --key parent

``--src`` measures another checkout's package (the reveal counts of a
version without reduced coordinates are read off the instance itself);
``--key`` names the entry the result is stored under, so that several
runs share one file.  Other entries of the file are kept.
"""

from __future__ import annotations

import os

# before NumPy is first imported: one BLAS thread, as the benchmark runs with
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
T = 6


def trial(d: int, lam: float, seed: int) -> dict:
    """Score one power trial; its score time and the solve's reveals."""
    from spikequery import AlgorithmConfig, make_lazy_spiked, open_session, run, score
    from spikequery.instances import as_rng, trial_seed

    rng = as_rng(trial_seed(seed, 0))
    inst = make_lazy_spiked(d, lam, seed=rng)
    session = open_session(inst, budget=T)
    run(session, AlgorithmConfig(kind="power", seed=rng))
    start = time.perf_counter()
    score(session.transcript, inst)
    seconds = time.perf_counter() - start
    reduced = getattr(inst, "_coords", None)
    basis = getattr(inst, "_E", None)
    return {
        "score_s": seconds,
        # the solve's directions and v_hat's, wherever they were revealed
        "reveals": (reduced or inst)._size - T,
        "reduced": reduced is not None,
        "basis_rows": 0 if basis is None else len(basis),
    }


def measure(grid, trials: int) -> list:
    rows = []
    for d, lam in grid:
        n = trials if trials else (20 if d <= 10_000 else 3)
        runs = [trial(d, lam, seed) for seed in range(n)]
        times = sorted(r["score_s"] for r in runs)
        rows.append({
            "d": d,
            "lam": lam,
            "trials": n,
            "score_s_median": median(times),
            "score_s_max": times[-1],
            "reveals_median": median(r["reveals"] for r in runs),
            "reveals_max": max(r["reveals"] for r in runs),
            "reduced_trials": sum(r["reduced"] for r in runs),
            "basis_rows_max": max(r["basis_rows"] for r in runs),
        })
        print(json.dumps(rows[-1]), flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, nargs="+", default=[2_000, 100_000, 1_000_000])
    parser.add_argument("--lam", type=float, nargs="+", default=[0.0, 3.0])
    parser.add_argument("--trials", type=int, default=0,
                        help="trials per (d, lam); default 20 up to d = 10^4, else 3")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--key", default="solve_cost")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_reduced_solve.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    rows = measure([(d, lam) for d in args.d for lam in args.lam], args.trials)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record[args.key] = {
        "command": " ".join(["python3 tools/solve_cost.py", *(argv or sys.argv[1:])]),
        "what": f"score() of lazy power trials, T = {T}: wall seconds of score alone, "
                f"and the directions its norm solve revealed",
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "blas_threads": 1},
        "rows": rows,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
