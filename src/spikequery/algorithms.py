"""Query algorithms run against the oracle: power iteration, Lanczos, random.

All three see the hidden matrix only through unit-vector queries, and
``run`` is the one loop for all three.  Power iteration re-normalizes
responses.  Lanczos takes each next direction from the session's
``residual()``, its last response off the span of all prior queries (full
orthogonalization), and outputs the Rayleigh-Ritz maximizer of that span;
the non-adaptive baseline queries independent random directions and outputs
the same maximizer of what it observed.  The Ritz pair is the session's
(``QuerySession.ritz``), solved once, after the last query, from the
compression H = B^T M B that the session grows from the queries and their
responses alone.  ``queries_to_target`` reads every step's candidate
quotient from the finished session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .instances import (
    DEGENERATE_TOL,
    Seed,
    as_rng,
    make_lazy_spiked,
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
    T, d = session.remaining, session.dim
    if T < 1:
        raise ValueError("algorithm produced no candidate (empty budget?)")
    if config.init is not None and config.init.shape != (d,):
        raise ValueError(f"init has dimension {config.init.shape}, session needs ({d},)")
    rng = as_rng(config.seed)
    v = sample_uniform_sphere(d, rng) if config.init is None else config.init.copy()
    for t in range(T):
        if config.kind == "random":  # i.i.d. sphere queries
            session.query(sample_uniform_sphere(d, rng))
            continue
        w = session.query(v)
        if config.kind == "power":
            norm = math.sqrt(w.dot(w))
            v = w / norm if norm > 0 else v
        elif t < T - 1:  # Lanczos, with a query still to make
            # next direction: the response off all prior queries' span (full
            # reorthogonalization), unit-normalized
            r = session.residual()
            rnorm = math.sqrt(r.dot(r))
            if rnorm <= DEGENERATE_TOL * math.sqrt(w.dot(w)):  # <=: w = 0 closes too
                break  # Krylov space closed
            v = r / rnorm
    v_hat, value = (v, None) if config.kind == "power" else session.ritz()
    session.finalize(v_hat, early_termination=session.remaining > 0)
    return v_hat, value


def _candidate_quotients(session: QuerySession, kind: str) -> np.ndarray:
    """v^T M v of each step's candidate output v in a finished ``run`` of
    the given kind, read from its session.  A power candidate is the next
    step's query, so its quotient is that query's product with its
    response; the final output's takes one apply of the session's operator
    that no query charges (``_rayleigh``, as ``score`` reads it).  A Lanczos or random candidate's
    is its Ritz value, the top eigenvalue of H's leading k x k block for the
    basis size k after the step."""
    steps = session.transcript.steps
    if kind == "power":
        last = session._basis._op._rayleigh(session.transcript.final_output)
        return np.array([float(st.query @ st.raw_response) for st in steps[1:]] + [last])
    H = session.compression()
    sizes = np.cumsum([not st.degenerate for st in steps])
    return np.array([np.linalg.eigvalsh(H[:k, :k])[-1] for k in sizes])


def queries_to_target(
    kind: str,
    d: int,
    lam: float,
    target_ratio: float,
    seed: Seed = None,
    max_T: int = 64,
) -> int:
    """Smallest query count at which the algorithm's candidate output reaches
    a Rayleigh quotient of target_ratio * ||M|| on a fresh instance, or
    max_T + 1 when no candidate within the budget does.

    A ``simulate`` trial with a stopping rule applied afterwards: one
    ``run`` of budget max_T on a matrix-free instance (``make_lazy_spiked``),
    then each step's candidate quotient (``_candidate_quotients``) against
    ||M||, which ``spectral_norm`` solves for after the run.  The algorithm
    sees only the oracle; the reads after the run are charged to no session.
    """
    if not (0 <= target_ratio < 1):
        raise ValueError(f"target_ratio must lie in [0, 1), got {target_ratio}")
    if max_T < 1:
        raise ValueError(f"max_T must be >= 1, got {max_T}")
    # one generator for both the instance and the algorithm's own randomness,
    # so the two never replay the same stream
    rng = as_rng(seed)
    # validated before the instance draws its theta from rng
    config = AlgorithmConfig(kind=kind, seed=rng)
    inst = make_lazy_spiked(d, lam, seed=rng)
    session = open_session(inst, budget=max_T)
    run(session, config)
    norm = spectral_norm(inst)
    met = np.flatnonzero(_candidate_quotients(session, kind) >= target_ratio * norm)
    return int(met[0]) + 1 if met.size else max_T + 1
