"""Run the CLI comparison corpus in process and print one JSON line per call.

The corpus is the fixed set of 168 ``spikequery`` calls against which a
change's outputs are compared with its parent's:

- ``simulate --alg {power,lanczos,random} --d {500,1000,2000} --lambda 3
  --T {6,64} --trials 2`` at seeds 1-8 (144 calls);
- ``simulate --alg {power,lanczos,random} --d {300,2000} --lambda 0 --T 6
  --trials 2`` at seeds 1-2 (12 calls), the null instances on which the
  norm solve runs longest;
- ``simulate --alg lanczos --d 30 --lambda 3 --T 40 --trials 3`` at seeds 1-3;
- ``verify --check all --quick`` at seeds 0-4;
- ``scaling --alg lanczos --d-grid 200,300,600 --lambda 4 --trials 3`` at
  seeds 1-3;
- ``verify --check conditional-law --n 1`` (a usage error).

Each call runs through ``spikequery.cli.main`` with one BLAS thread, and its
line holds the argv, the exit code and the sha256 of its stdout and of its
stderr.  The package is imported from the ``src`` directory of the checkout
that holds this file, so two checkouts compare with one ``diff``:

    python3 tools/cli_corpus.py > new.jsonl
    python3 ../parent/tools/cli_corpus.py > old.jsonl   # or a saved run
    diff old.jsonl new.jsonl
"""

from __future__ import annotations

import os

# before NumPy is first imported: one BLAS thread, as the tier-1 suite and
# the benchmark run with
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Dict, List

SRC = Path(__file__).resolve().parents[1] / "src"


def corpus() -> List[List[str]]:
    """The argv of every call, in the order they run."""
    calls = [
        f"simulate --alg {alg} --d {d} --lambda 3 --T {T} --trials 2 --seed {seed}"
        for seed in range(1, 9)
        for alg in ("power", "lanczos", "random")
        for d in (500, 1000, 2000)
        for T in (6, 64)
    ]
    calls += [
        f"simulate --alg {alg} --d {d} --lambda 0 --T 6 --trials 2 --seed {seed}"
        for seed in (1, 2)
        for alg in ("power", "lanczos", "random")
        for d in (300, 2000)
    ]
    calls += [f"simulate --alg lanczos --d 30 --lambda 3 --T 40 --trials 3 --seed {s}"
              for s in (1, 2, 3)]
    calls += [f"verify --check all --quick --seed {s}" for s in range(5)]
    calls += [f"scaling --alg lanczos --d-grid 200,300,600 --lambda 4 --trials 3 --seed {s}"
              for s in (1, 2, 3)]
    calls.append("verify --check conditional-law --n 1")
    return [call.split() for call in calls]


def digest(argv: List[str]) -> Dict:
    """Run one call in process; its argv, exit code and output digests."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from spikequery import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def main() -> int:
    for argv in corpus():
        print(json.dumps(digest(argv)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
