"""Budgeted exact matrix-vector query oracle with projected-response records.

An algorithm interacts with a hidden symmetric matrix M only through
``session.query(v) -> Mv`` for unit vectors v, up to a budget of T calls,
then commits to a final unit vector via ``session.finalize(v_hat)``.  Each
charged query applies M once, to v, and leaves one record, a
``TranscriptStep``: the query, its raw response, and the equivalent reduced
view.

A session reads every matrix as an ``instances._RevealedOperator``: a lazy
instance itself, a dense matrix wrapped without a copy.  Applying it to a
query decomposes the query against the directions revealed so far
(``instances._orthogonalize``) and reveals its direction off them.  Those
directions are the session's basis B; the operator keeps each one's image
M b_i (on a dense matrix carried from the query's response, or applied
where carrying would lose digits; on a lazy instance read from the noise
it drew) and the compression H = B M B^T.  H is a function of the queries
and responses alone, so an algorithm may read it: ``session.ritz()`` is the
Rayleigh-Ritz pair of the span of the queries, from the operator's one
eigendecomposition of H per basis size, and ``session.residual()`` the last
response off that span, w - B^T (H c) for the last query B^T c, with one
pass over the basis where the query's response alone would take two.

Each step i that adds a basis direction b_i has a projected response
P_{i-1} M b_i, where P_{i-1} projects onto the orthogonal complement of the
earlier basis.  It is computed when read (``TranscriptStep.
projected_response``, on a step from ``session.projected_view(i)`` or from
the sealed transcript), from the image and H's column i, with no apply of
M.  Raw responses are exactly recoverable from the projected records, so
the two views carry the same information.

The session object deliberately exposes no handle to M or to the planted
spike: scoring against ground truth takes the instance as an explicit
argument.  ``score`` reads M only through applies made after the session
is finalized, which no session charges, so it scores a matrix-free
instance (``make_lazy_spiked``) as it scores a dense one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .instances import (
    LazySpikedInstance,
    Operand,
    SpikedInstance,
    _RevealedOperator,
    _frozen,
    _operator,
    _require_symmetric,
    spectral_norm,
)

#: Unit-norm tolerance for queries and final outputs.
UNIT_TOL = 1e-8


class BudgetExhaustedError(RuntimeError):
    """Raised when a session has no queries left."""


class SessionFinalizedError(RuntimeError):
    """Raised on queries after finalize, or on double finalize."""


class _Basis:
    """The orthonormal basis B of a session's queries, as rows, their images
    M b_j, and the compression H = B M B^T: the first rows of those of the
    operator the session queries (``instances._RevealedOperator``), read
    through it at every use, since its norm solve regrows them.  A query
    reveals its direction off the rows as the next row, or none for a
    degenerate query.  The operator must have revealed nothing before the
    session, in which it reserves min(budget, d) rows, and reveal fresh
    directions only through it while it takes queries.

    Row j's projected response P_{j-1} M b_j is its image less its
    components H[i, j] b_i on the rows before it, computed when read with
    no apply of M.

    Each query keeps its response w and its coefficients c on the rows (the
    decomposition's, with the new row's |r| appended), so that the
    response's residual against the rows is read from H (``residual``).
    """

    def __init__(self, op: _RevealedOperator, capacity: int):
        if op._size:
            raise ValueError(
                "a lazy instance opens a session only before it reveals any "
                "direction; draw a fresh one with make_lazy_spiked"
            )
        op._reserve(capacity)
        self._op = op
        self._size = 0
        # the last query's response, its coefficients on the rows, and
        # whether it added a row
        self._last: Optional[Tuple[np.ndarray, np.ndarray, bool]] = None

    def __len__(self) -> int:
        return self._size

    @property
    def rows(self) -> np.ndarray:
        """The rows in use, as a view."""
        return self._op._Q[: self._size]

    @property
    def H(self) -> np.ndarray:
        """The compression on the rows in use, as a view."""
        return self._op._H[: self._size, : self._size]

    def query(self, v: np.ndarray) -> Tuple[np.ndarray, Optional[int]]:
        """M v, and the index of the row that v's direction off the rows
        adds; None when v adds none, being numerically in their span (its
        residual below DEGENERATE_TOL) or the basis full."""
        k = self._size
        if self._op._size != k:
            raise RuntimeError("the instance revealed directions outside its session")
        w, c = self._op._apply(v)
        added = self._op._size > k
        self._last = w, c, added
        if not added:
            return w, None
        self._size = k + 1
        return w, k

    def eigh(self) -> Tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh`` of H: the operator's own, made once per size of
        H and shared with its norm solve (read-only), unless a norm solve
        has revealed more rows since the session."""
        if self._op._size == self._size:
            return self._op._eigh()
        return np.linalg.eigh(self.H)

    def residual(self) -> np.ndarray:
        """The last response less its part on the rows (``QuerySession.
        residual``)."""
        w, c, added = self._last
        B = self.rows
        r = w - (self.H @ c) @ B
        if not added or 2.0 * float(r @ r) < float(w @ w):
            r -= (B @ r) @ B
        return r

    def projected(self, j: int) -> np.ndarray:
        image = self._op._image(np.eye(1, j + 1, j)[0])  # M Q^T e_j
        return image - self.H[:j, j] @ self.rows[:j]


@dataclass(frozen=True)
class TranscriptStep:
    """The record of one query, made when the query is.  A degenerate step
    adds no basis direction: its ``basis_vector`` is None and its
    ``projected_response`` the zero vector.  Otherwise the projected
    response is computed at each read, from the session's carried image of
    the basis vector and its compression."""

    step: int
    query: np.ndarray
    raw_response: np.ndarray
    basis_vector: Optional[np.ndarray]
    degenerate: bool
    _basis: _Basis = field(repr=False, compare=False)
    _index: Optional[int] = field(repr=False, compare=False)

    @property
    def projected_response(self) -> np.ndarray:
        if self._index is None:
            return _frozen(np.zeros(self.query.shape[0]))
        return _frozen(self._basis.projected(self._index))


@dataclass(frozen=True)
class Transcript:
    """Sealed record of a finished session: all steps plus the final output.

    It keeps the session's basis, with the images and the compression from
    which the projected responses are computed when read; no read applies
    M.  A lazy instance draws nothing along directions it has revealed, so
    scoring it, which reveals more, leaves those reads unchanged."""

    steps: Tuple[TranscriptStep, ...]
    final_output: np.ndarray
    budget: int
    dim: int
    early_termination: bool = False

    def __len__(self) -> int:
        return len(self.steps) + 1  # the final output counts as an entry

    @property
    def queries_made(self) -> int:
        return len(self.steps)


def _check_query_vector(v: np.ndarray, d: int, what: str = "query") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (d,):
        raise ValueError(f"{what} must be a vector of length {d}, got shape {v.shape}")
    # one pass: |v| is sqrt(v v), as np.linalg.norm computes it, and the
    # entries need a scan only when that sum is not finite (a NaN or an inf
    # among them, or finite entries whose squares overflow).  np.vdot makes
    # the same BLAS dot as v.dot but raises no floating-point warning, so an
    # overflow is an inf here, not NumPy's RuntimeWarning
    s = float(np.vdot(v, v))
    if not math.isfinite(s) and not np.all(np.isfinite(v)):
        raise ValueError(f"{what} has non-finite entries")
    if abs(math.sqrt(s) - 1.0) > UNIT_TOL:
        raise ValueError(f"{what} must be unit norm (tol {UNIT_TOL})")
    return v


class QuerySession:
    """Single-owner mutable state for one algorithm run against one matrix.

    ``query`` records each step as its ``TranscriptStep`` and extends the
    basis, its images and the compression H; the projected response of each
    basis direction is computed when read.  The basis and its images are
    preallocated (min(budget, d), d) arrays, and H a square of that many
    rows, so the stored reduced view never exceeds d rows.  ``finalize``
    seals the same step records into the transcript.
    """

    def __init__(self, matrix: Operand, budget: int):
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        # The only handle to the hidden matrix is the basis's operator; the
        # session has no attribute that stores or returns the matrix itself.
        op = _operator(matrix)
        self._dim = op.dim
        self._budget = int(budget)
        # the basis of R^d never holds more than d vectors, whatever the budget
        self._basis = _Basis(op, min(self._budget, self._dim))
        self._steps: List[TranscriptStep] = []
        self._transcript: Optional[Transcript] = None

    # ------------------------------------------------------------ properties

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def budget(self) -> int:
        return self._budget

    @property
    def queries_made(self) -> int:
        return len(self._steps)

    @property
    def remaining(self) -> int:
        return self._budget - len(self._steps)

    @property
    def finalized(self) -> bool:
        return self._transcript is not None

    @property
    def basis_size(self) -> int:
        return len(self._basis)

    def basis(self) -> np.ndarray:
        """Orthonormalized query directions accumulated so far, as columns."""
        return self._basis.rows.T.copy()

    def compression(self) -> np.ndarray:
        """H = B^T M B for the basis B of ``basis()``, as a copy."""
        return self._basis.H.copy()

    def ritz(self) -> Tuple[Optional[np.ndarray], float]:
        """The Rayleigh-Ritz maximizer over the span of the queries so far,
        lifted to R^d, and its Ritz value: the top eigenpair of
        ``compression()``.  (None, -inf) while no query has added a
        direction.  On a lazy instance the eigendecomposition is the
        instance's, which its norm solve reads too."""
        if len(self._basis) == 0:
            return None, -np.inf
        vals, vecs = self._basis.eigh()
        v_hat = vecs[:, -1] @ self._basis.rows
        v_hat /= math.sqrt(v_hat.dot(v_hat))
        return v_hat, float(vals[-1])

    def residual(self) -> np.ndarray:
        """The last query's raw response w with its component in the span of
        the queries so far removed.  The query is B^T c on the basis B for
        its coefficients c, so that component is B^T (H c), read from the
        compression in one pass over the basis; a second pass runs only
        where 2 |r|^2 < |w|^2, or where the query added no direction
        (degenerate, or the basis full).  RuntimeError before any query."""
        if not self._steps:
            raise RuntimeError("no query made yet: residual() reads the last response")
        return self._basis.residual()

    # ------------------------------------------------------------- operations

    def query(self, v: np.ndarray) -> np.ndarray:
        if self.finalized:
            raise SessionFinalizedError("session is finalized; no further queries")
        if self.remaining <= 0:
            raise BudgetExhaustedError(f"budget of {self._budget} queries exhausted")
        v = _check_query_vector(v, self._dim)
        w, idx = self._basis.query(v)
        self._steps.append(
            TranscriptStep(
                step=len(self._steps) + 1,
                query=_frozen(v.copy()),
                raw_response=_frozen(w),
                basis_vector=None if idx is None else _frozen(self._basis.rows[idx]),
                degenerate=idx is None,
                _basis=self._basis,
                _index=idx,
            )
        )
        return w.copy()

    def projected_view(self, i: int) -> TranscriptStep:
        """The record of step i (1-based), the same object the sealed
        transcript holds; its projected response is computed when read."""
        if not (1 <= i <= self.queries_made):
            raise IndexError(f"step index {i} out of range 1..{self.queries_made}")
        return self._steps[i - 1]

    def finalize(self, v_hat: np.ndarray, early_termination: bool = False) -> Transcript:
        """Seal the session's step records with its final output.  No
        projected response is computed here; each is computed when read."""
        if self.finalized:
            raise SessionFinalizedError("session already finalized")
        v_hat = _check_query_vector(v_hat, self._dim, what="final output")
        self._transcript = Transcript(
            steps=tuple(self._steps),
            final_output=_frozen(v_hat.copy()),
            budget=self._budget,
            dim=self._dim,
            early_termination=bool(early_termination),
        )
        return self._transcript

    @property
    def transcript(self) -> Optional[Transcript]:
        """The finalized transcript, or None while the session is open."""
        return self._transcript


def open_session(inst: Operand, budget: int) -> QuerySession:
    """Start a budgeted query session against an instance or a bare matrix.

    A bare matrix is checked in full and made read-only in place, as an
    instance's matrix is, so that every response and carried image of the
    session is one matrix's.  A lazy instance is queried itself, and must
    not have revealed a direction yet (ValueError otherwise): its revealed
    directions, their images and its compression become the session's, in
    min(budget, d) rows of its storage made up front, and reading projected
    responses back draws nothing from it.
    """
    return QuerySession(_operator(inst, lambda M: _frozen(_require_symmetric(M))), budget)


@dataclass(frozen=True)
class Score:
    """Ground-truth metrics of a finished transcript against its instance."""

    rayleigh_ratio: float
    spike_overlap: float  # <v_hat, theta>^2
    step_overlaps: np.ndarray  # d * <b_k, theta>^2 per step, 0 for degenerate


def _step_overlaps(steps: Sequence[TranscriptStep], theta: np.ndarray) -> np.ndarray:
    """d <b_k, theta>^2 for each step's basis direction b_k, 0 for a
    degenerate step."""
    d = theta.shape[0]
    return np.array(
        [
            0.0 if st.basis_vector is None else d * float(st.basis_vector @ theta) ** 2
            for st in steps
        ]
    )


def score(transcript: Transcript, inst: Union[SpikedInstance, LazySpikedInstance]) -> Score:
    """Rayleigh ratio of the output, spike overlap, and per-step overlaps.

    The Rayleigh ratio v_hat^T M v_hat / ||M|| reads M through applies that
    no session charges, made after the session is finalized, so the
    transcript is unchanged: ||M|| from ``spectral_norm``, then v_hat^T M
    v_hat from the operator (``_rayleigh``: one apply of v_hat, which on a
    lazy instance also reads a v_hat within DEGENERATE_TOL of the revealed
    span to second order).  On a lazy instance, which the session must have
    queried, the norm solve starts from the span of the queries and reveals
    only the directions it expands that span by, and the apply of v_hat at
    most one more.  Where the solve expands the span it reveals them in the
    instance's reduced coordinates, on the span of the queries, their
    responses and theta (``LazySpikedInstance._reduce``), and v_hat, which
    lies in that span (a Ritz vector of the queries, or power's normalized
    last response), is read there.  Reading the transcript's projected
    responses afterwards still draws nothing, since their directions were
    revealed by the queries.
    """
    if getattr(inst, "theta", None) is None:
        raise ValueError("score needs a SpikedInstance or a LazySpikedInstance")
    if transcript.dim != inst.dim:
        raise ValueError(
            f"transcript dimension {transcript.dim} != instance dimension {inst.dim}"
        )
    v_hat = transcript.final_output
    norm = spectral_norm(inst)
    ratio = _operator(inst)._rayleigh(v_hat) / norm
    overlap = float(v_hat @ inst.theta) ** 2
    return Score(
        rayleigh_ratio=ratio,
        spike_overlap=overlap,
        step_overlaps=_step_overlaps(transcript.steps, inst.theta),
    )
