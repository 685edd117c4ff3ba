"""Query algorithms run against the oracle: power iteration, Lanczos, random.

All three see the hidden matrix only through unit-vector queries.  Power
iteration re-normalizes responses; Lanczos builds an orthonormal Krylov
basis (full orthogonalization against all prior directions) and outputs the
Rayleigh-Ritz maximizer; the non-adaptive baseline queries independent
random directions and extracts the same Ritz maximizer from whatever
subspace it happened to observe.  The Ritz computation itself runs on
(query, response) pairs alone: orthonormalizing the queries while applying
the identical linear operations to the responses yields the compressed
quadratic form H = B^T M B without ever touching M.  It is incremental:
each accepted pair costs one two-pass Gram-Schmidt step against the basis
so far (the oracle's kernel) and adds one row and column to H, so a run of
T queries costs O(T^2 d) in all.  A run that only needs its output solves
the Ritz problem once, after the last query; ``iterate_candidates`` solves
it after every query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .instances import Seed, as_rng, make_spiked, sample_uniform_sphere, spectral_norm
from .oracle import QuerySession, _orthogonalize, open_session

#: Residual norm below which the Krylov space has closed (Lanczos breakdown).
BREAKDOWN_TOL = 1e-10

ALGORITHM_KINDS = ("power", "lanczos", "random")


@dataclass(frozen=True)
class AlgorithmConfig:
    """Which algorithm to run and how to initialize it.

    budget None means "use the whole session budget".  init None draws the
    starting vector uniformly from the sphere; a supplied init must be unit.
    shift adds shift*v to each power-method response before normalizing
    (spectral shift by a multiple of the identity, computed client-side).
    """

    kind: str = "power"
    budget: Optional[int] = None
    seed: Seed = None
    init: Optional[np.ndarray] = None
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in ALGORITHM_KINDS:
            raise ValueError(f"kind must be one of {ALGORITHM_KINDS}, got {self.kind!r}")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.init is not None:
            init = np.asarray(self.init, dtype=float)
            if abs(np.linalg.norm(init) - 1.0) > 1e-8:
                raise ValueError("supplied init must be unit norm")
            object.__setattr__(self, "init", init)


class _RitzAccumulator:
    """Incremental Rayleigh-Ritz over the span of (query, response) pairs.

    Keeps the orthonormal basis Q (rows), its images MQ and the symmetrized
    compressed form H = (Q MQ^T + MQ Q^T)/2, preallocated for ``capacity``
    directions (at most d).  ``add`` orthogonalizes a query against Q and
    carries its response through the same combinations, then appends one
    row to Q and MQ and one row and column to H; a query whose residual
    falls below BREAKDOWN_TOL adds nothing.
    """

    def __init__(self, d: int, capacity: int):
        rows = min(capacity, d)
        self._Q = np.empty((rows, d))
        self._MQ = np.empty((rows, d))
        self._H = np.empty((rows, rows))
        self._k = 0

    def residual(self, v: np.ndarray) -> np.ndarray:
        """v with its component in the span of the accepted queries removed."""
        return _orthogonalize(self._Q[: self._k], v)[0]

    def add(self, v: np.ndarray, w: np.ndarray) -> None:
        k = self._k
        if k == self._Q.shape[0]:
            return  # the basis already spans every direction it can hold
        r, img = _orthogonalize(self._Q[:k], v, self._MQ[:k], w)
        rnorm = np.linalg.norm(r)
        if rnorm < BREAKDOWN_TOL:
            return
        self._Q[k] = r / rnorm
        self._MQ[k] = img / rnorm
        h = (self._MQ[: k + 1] @ self._Q[k] + self._Q[: k + 1] @ self._MQ[k]) / 2.0
        self._H[k, : k + 1] = h
        self._H[: k + 1, k] = h
        self._k = k + 1

    def top(self) -> Tuple[Optional[np.ndarray], float]:
        """Top Ritz vector lifted to R^d and its Ritz value; (None, -inf)
        while no direction has been accepted."""
        k = self._k
        if k == 0:
            return None, -np.inf
        vals, vecs = np.linalg.eigh(self._H[:k, :k])
        v_hat = vecs[:, -1] @ self._Q[:k]
        v_hat /= np.linalg.norm(v_hat)
        return v_hat, float(vals[-1])


def ritz_from_pairs(
    queries: Sequence[np.ndarray], responses: Sequence[np.ndarray]
) -> Tuple[Optional[np.ndarray], float]:
    """Rayleigh-Ritz maximizer over the span of observed query directions.

    Feeds every (query, response) pair to a Ritz accumulator, which
    orthonormalizes the queries while carrying the responses through the
    same linear combinations.  Returns the top eigenvector of the
    compressed form B^T M B lifted back to R^d, plus its Ritz value.
    Returns (None, -inf) if no direction survives orthonormalization.
    """
    if len(queries) == 0:
        return None, -np.inf
    acc = _RitzAccumulator(np.shape(queries[0])[0], len(queries))
    for v, w in zip(queries, responses):
        acc.add(v, w)
    return acc.top()


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
    vector it would finalize with if stopped there).  Stops after the
    configured budget, or earlier on Krylov breakdown.
    """
    for candidate in _steps(session, config):
        yield candidate()[0]


def _steps(
    session: QuerySession, config: AlgorithmConfig
) -> Iterator[Callable[[], Tuple[np.ndarray, Optional[float]]]]:
    """Make the configured algorithm's queries, yielding after each one a
    callable that computes the current candidate and its Ritz value (None
    for power iteration, which has no Ritz problem).  The callable reads the
    algorithm's state, so it is valid only until the generator resumes."""
    d = session.dim
    rng = as_rng(config.seed)
    T = session.remaining if config.budget is None else min(config.budget, session.remaining)
    v = _initial_vector(config, d, rng)

    if config.kind == "power":
        for _ in range(T):
            w = session.query(v)
            y = w + config.shift * v
            norm = np.linalg.norm(y)
            v = y / norm if norm > 0 else v
            yield lambda v=v: (v.copy(), None)
        return

    ritz = _RitzAccumulator(d, T)
    if config.kind == "lanczos":
        direction = v
        for _ in range(T):
            w = session.query(direction)
            ritz.add(direction, w)
            yield ritz.top
            # next direction: response orthogonalized against all prior
            # queries (full reorthogonalization), unit-normalized
            r = ritz.residual(w)
            rnorm = np.linalg.norm(r)
            if rnorm < BREAKDOWN_TOL:
                return  # Krylov space closed
            direction = r / rnorm
        return

    # random-nonadaptive: i.i.d. sphere queries, Ritz over the observed span
    for _ in range(T):
        direction = sample_uniform_sphere(d, rng)
        ritz.add(direction, session.query(direction))
        yield ritz.top


def _run(
    session: QuerySession, config: AlgorithmConfig
) -> Tuple[np.ndarray, Optional[float]]:
    """Run to the end, finalize the session, and return the output with its
    Ritz value (None for power iteration).  The candidate is computed once,
    after the last query."""
    budget = session.remaining if config.budget is None else min(config.budget, session.remaining)
    candidate = None
    made = 0
    for candidate in _steps(session, config):
        made += 1
    v_hat, value = (None, None) if candidate is None else candidate()
    if v_hat is None:
        raise ValueError("algorithm produced no candidate (empty budget?)")
    session.finalize(v_hat, early_termination=made < budget)
    return v_hat, value


def run_power(session: QuerySession, config: AlgorithmConfig) -> np.ndarray:
    """Power iteration: v <- normalize(M v), output the final iterate."""
    if config.kind != "power":
        config = AlgorithmConfig(
            "power", config.budget, config.seed, config.init, config.shift
        )
    return _run(session, config)[0]


def run_lanczos(session: QuerySession, config: AlgorithmConfig) -> np.ndarray:
    """Krylov + Rayleigh-Ritz: output the Ritz maximizer of the Krylov space.

    On breakdown (Krylov residual below 1e-10) the current Ritz vector is
    returned and the finalized transcript is flagged early_termination.
    """
    if config.kind != "lanczos":
        config = AlgorithmConfig("lanczos", config.budget, config.seed, config.init)
    return _run(session, config)[0]


def run_random_nonadaptive(session: QuerySession, config: AlgorithmConfig) -> np.ndarray:
    """Non-adaptive baseline: i.i.d. random queries, Ritz over what they span."""
    if config.kind != "random":
        config = AlgorithmConfig("random", config.budget, config.seed, config.init)
    return _run(session, config)[0]


RUNNERS = {
    "power": run_power,
    "lanczos": run_lanczos,
    "random": run_random_nonadaptive,
}


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
    inst = make_spiked(d, lam, seed=rng)
    norm = spectral_norm(inst.matrix)
    session = open_session(inst, budget=max_T)
    config = AlgorithmConfig(kind=kind, seed=rng)
    for T, candidate in enumerate(iterate_candidates(session, config), start=1):
        if float(candidate @ inst.matrix @ candidate) >= target_ratio * norm:
            return T
    return max_T + 1
