"""Query algorithms run against the oracle: power iteration, Lanczos, random.

All three see the hidden matrix only through unit-vector queries.  Power
iteration re-normalizes responses; Lanczos builds an orthonormal Krylov
basis (full orthogonalization against all prior directions) and outputs the
Rayleigh-Ritz maximizer; the non-adaptive baseline queries independent
random directions and extracts the same Ritz maximizer from whatever
subspace it happened to observe.  The Ritz pair is the session's
(``QuerySession.ritz``): the top eigenpair of the compression H = B^T M B
that the session grows by one row and column per query from the query and
its response alone, so the algorithms keep no basis of their own.
Lanczos's next direction is its last response off the session's basis
(``QuerySession.residual``), read from H and the query's coefficients on
the basis with one pass over it, and a second only where the first cancels
most of the response.  ``run`` is the one entry
point for all three kinds: it spends the session's budget and solves the
Ritz problem once, after the last query, where ``iterate_candidates``
solves it after every query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .instances import (
    DEGENERATE_TOL,
    Seed,
    as_rng,
    make_spiked,
    sample_uniform_sphere,
    spectral_norm,
)
from .oracle import QuerySession, open_session

ALGORITHM_KINDS = ("power", "lanczos", "random")


@dataclass(frozen=True)
class AlgorithmConfig:
    """Which algorithm to run and how to initialize it.

    The run uses the whole budget of its session.  init None draws the
    starting vector uniformly from the sphere; a supplied init must be a
    finite unit vector.
    """

    kind: str = "power"
    seed: Seed = None
    init: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ALGORITHM_KINDS:
            raise ValueError(f"kind must be one of {ALGORITHM_KINDS}, got {self.kind!r}")
        if self.init is not None:
            init = np.asarray(self.init, dtype=float)
            if not np.all(np.isfinite(init)):
                raise ValueError("supplied init has non-finite entries")
            if abs(np.linalg.norm(init) - 1.0) > 1e-8:
                raise ValueError("supplied init must be unit norm")
            object.__setattr__(self, "init", init)


def _initial_vector(config: AlgorithmConfig, d: int, rng: np.random.Generator) -> np.ndarray:
    if config.init is not None:
        if config.init.shape != (d,):
            raise ValueError(
                f"init has dimension {config.init.shape}, session needs ({d},)"
            )
        return config.init.astype(float, copy=True)
    return sample_uniform_sphere(d, rng)


def iterate_candidates(
    session: QuerySession, config: AlgorithmConfig
) -> Iterator[np.ndarray]:
    """Run the configured algorithm one query at a time.

    Yields the algorithm's current output candidate after each query (the
    vector it would finalize with if stopped there).  Stops when the
    session's budget is spent, or earlier on Krylov breakdown.
    """
    for candidate in _steps(session, config, session.remaining):
        yield candidate()[0]


def _steps(
    session: QuerySession, config: AlgorithmConfig, T: int
) -> Iterator[Callable[[], Tuple[np.ndarray, Optional[float]]]]:
    """Make up to T queries, yielding after each one a callable that
    computes the current candidate and its Ritz value (None for power
    iteration, which has no Ritz problem).  The callable reads the
    algorithm's state, so it is valid only until the generator resumes."""
    d = session.dim
    rng = as_rng(config.seed)
    v = _initial_vector(config, d, rng)

    if config.kind == "power":
        for _ in range(T):
            w = session.query(v)
            norm = math.sqrt(w.dot(w))
            v = w / norm if norm > 0 else v
            yield lambda v=v: (v.copy(), None)
        return

    if config.kind == "lanczos":
        direction = v
        for t in range(T):
            w = session.query(direction)
            yield session.ritz
            if t == T - 1:
                return  # no query follows to take a next direction
            # next direction: the response off all prior queries' span (full
            # reorthogonalization), unit-normalized
            r = session.residual()
            rnorm = math.sqrt(r.dot(r))
            if rnorm <= DEGENERATE_TOL * math.sqrt(w.dot(w)):  # <=: w = 0 closes too
                return  # Krylov space closed
            direction = r / rnorm
        return

    # random-nonadaptive: i.i.d. sphere queries, Ritz over the observed span
    for _ in range(T):
        session.query(sample_uniform_sphere(d, rng))
        yield session.ritz


def run(
    session: QuerySession, config: AlgorithmConfig
) -> Tuple[np.ndarray, Optional[float]]:
    """Run the configured algorithm to the end, finalize the session, and
    return the output with its Ritz value (None for power iteration).

    Power iteration outputs its final iterate; Lanczos and the random
    baseline output the Ritz maximizer of the span they queried, computed
    once, after the last query.  On Lanczos breakdown (the response's
    residual against the queried span at most DEGENERATE_TOL times its
    norm) the run stops before the session's budget is spent and the
    finalized transcript is flagged early_termination.
    """
    budget = session.remaining
    candidate = None
    made = 0
    for candidate in _steps(session, config, budget):
        made += 1
    v_hat, value = (None, None) if candidate is None else candidate()
    if v_hat is None:
        raise ValueError("algorithm produced no candidate (empty budget?)")
    session.finalize(v_hat, early_termination=made < budget)
    return v_hat, value


def queries_to_target(
    kind: str,
    d: int,
    lam: float,
    target_ratio: float,
    seed: Seed = None,
    max_T: int = 64,
) -> int:
    """Smallest query count at which the algorithm's candidate output reaches
    a Rayleigh quotient of target_ratio * ||M|| on a fresh instance.

    One instance and one growing session per call; returns max_T + 1 when the
    target is never met within the budget.  Evaluation uses ground truth (the
    caller-side instance), the algorithm itself still sees only the oracle.
    """
    if not (0 <= target_ratio < 1):
        raise ValueError(f"target_ratio must lie in [0, 1), got {target_ratio}")
    if max_T < 1:
        raise ValueError(f"max_T must be >= 1, got {max_T}")
    # one generator for both the instance and the algorithm's own randomness,
    # so the two never replay the same stream
    rng = as_rng(seed)
    # validated before the d x d instance is built; it draws nothing from rng
    config = AlgorithmConfig(kind=kind, seed=rng)
    inst = make_spiked(d, lam, seed=rng)
    norm = spectral_norm(inst)
    session = open_session(inst, budget=max_T)
    for T, candidate in enumerate(iterate_candidates(session, config), start=1):
        if float(candidate @ inst.matrix @ candidate) >= target_ratio * norm:
            return T
    return max_T + 1
