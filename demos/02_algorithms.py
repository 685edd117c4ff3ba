"""Power iteration, Lanczos, and the random baseline under a query budget.

All three algorithms see the matrix only through the budgeted session's
matvec. The first table follows each method's candidate output step by step
on a single instance (Rayleigh quotient relative to the true norm): a run of
budget t makes the first t queries of a longer run, so its output is the
candidate after step t. The second tabulates the median number of queries each method
needs to reach 90 percent of the spectral norm as the dimension grows:
the adaptive methods scale like log d, the nonadaptive baseline does not
get there at all within the budget cap.
"""

import numpy as np

from spikequery import (
    ALGORITHM_KINDS,
    AlgorithmConfig,
    make_spiked,
    open_session,
    queries_to_target,
    run,
    spectral_norm,
    trial_seed,
)


def trajectory_table():
    d, lam, T = 1200, 2.5, 8
    inst = make_spiked(d, lam, seed=11)
    norm = spectral_norm(inst.matrix)
    print(f"Candidate quality per query at d = {d}, lam = {lam} "
          f"(Rayleigh quotient / ||M||):")
    print(f"{'step':>4}  " + "  ".join(f"{k:>8}" for k in ALGORITHM_KINDS))

    columns = {}
    for kind in ALGORITHM_KINDS:
        ratios = []
        for t in range(1, T + 1):
            out, _ = run(open_session(inst, budget=t), AlgorithmConfig(kind=kind, seed=12))
            ratios.append(float(out @ inst.matrix @ out) / norm)
        columns[kind] = ratios

    for step in range(T):
        cells = "  ".join(f"{columns[k][step]:>8.4f}" for k in ALGORITHM_KINDS)
        print(f"{step + 1:>4}  {cells}")
    print("Power and Lanczos converge within a handful of adaptive queries;")
    print("the nonadaptive baseline's Ritz value barely moves.")
    print()


def queries_to_target_table():
    target, lam, trials, max_T = 0.9, 3.0, 9, 64
    dims = (256, 512, 1024)
    print(f"Median queries to reach {target:.0%} of ||M|| "
          f"(lam = {lam}, {trials} trials, budget cap {max_T}):")
    print(f"{'d':>6}  " + "  ".join(f"{k:>8}" for k in ALGORITHM_KINDS))
    for j, d in enumerate(dims):
        cells = []
        for kind in ALGORITHM_KINDS:
            counts = [
                queries_to_target(kind, d, lam, target,
                                  seed=trial_seed(13, 100 * j + i), max_T=max_T)
                for i in range(trials)
            ]
            med = float(np.median(counts))
            cells.append(f"{'>' + str(max_T):>8}" if med > max_T else f"{med:>8.0f}")
        print(f"{d:>6}  " + "  ".join(cells))
    print("Doubling d nudges the adaptive methods by at most a query or two")
    print("(the log d scaling of the lower bounds); the random baseline never")
    print("reaches the target within the cap.")
    print()


def main():
    print("=" * 72)
    print("Algorithms against the budgeted oracle")
    print("=" * 72)
    print()
    trajectory_table()
    queries_to_target_table()
    print("Done.")


if __name__ == "__main__":
    main()
