"""Budgeted exact matrix-vector query oracle with projected-response records.

An algorithm interacts with a hidden symmetric matrix M only through
``session.query(v) -> Mv`` for unit vectors v, up to a budget of T calls,
then commits to a final unit vector via ``session.finalize(v_hat)``.  Each
charged query applies M once, to v, and leaves one record, a
``TranscriptStep``: the query, its raw response, and the equivalent reduced
view.  Queries are orthonormalized on the fly by one kernel,
``instances._orthogonalize``: classical Gram-Schmidt as block products
against a preallocated basis array, with a second pass only where the first
cancels most of the query, returning the residual and the coefficients it
took off (on a matrix-free instance, the instance's own decomposition of
the query, whose revealed directions are the basis).  The session keeps one
compression of M, H = B M B^T on the basis B, grown by one row per query
that adds a direction, and the image M b_i of each direction: carried from
the query's response through those coefficients (or, where carrying would
lose digits, applied to b_i), or on a matrix-free instance read from the
noise it drew for b_i.  H is a
function of the queries and responses alone, so an algorithm may read it:
``session.ritz()`` is the Rayleigh-Ritz pair of the span of the queries.

Each step i that adds a basis direction b_i has a projected response
P_{i-1} M b_i, where P_{i-1} projects onto the orthogonal complement of the
earlier basis.  It is computed when read (``TranscriptStep.
projected_response``, on a step from ``session.projected_view(i)`` or from
the sealed transcript), from the carried image and H's column i, with no
apply of M.  Raw responses are exactly recoverable from the projected
records, so the two views carry the same information;
``reconstruct_raw_responses`` realizes that round trip.

The session object deliberately exposes no handle to M or to the planted
spike: scoring against ground truth takes the instance as an explicit
argument.  ``score`` reads M only through applies made after the session
is finalized, which no session charges, so it scores a matrix-free
instance (``make_lazy_spiked``) as it scores a dense one.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .instances import (
    DEGENERATE_TOL,
    LazySpikedInstance,
    SpikedInstance,
    _frozen,
    _orthogonalize,
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
    """The orthonormal basis B of a session's queries, as the rows of a
    (capacity, d) array, their images M b_j, and the compression
    H = B M B^T, each grown by one row (and H by one column) per query that
    adds a direction.

    Against a matrix the three are preallocated here.  A query's direction
    is its residual against the rows (``_orthogonalize``), normalized, and
    its image is carried from the query's response w as w - c @ images,
    with c the coefficients the kernel took off the query.  Where the
    residual keeps less than 1/sqrt(2) of the query, carrying would lose
    the digits that cancel, so M is applied to the direction itself (an
    apply no query is charged for).
    Against a lazy instance they are the instance's own: applying it to a
    query decomposes the query against its revealed directions and reveals
    its new direction as the next row, or none for a degenerate query,
    writing that row of H; the images are read from its noise images
    (``LazySpikedInstance._image``).  They are read through the instance
    at every use, since its norm solve regrows them.  The instance must
    have revealed nothing before the session, and be applied to fresh
    directions only through it while it takes queries.

    Row j's projected response P_{j-1} M b_j is its image less its
    components H[i, j] b_i on the rows before it, computed when read with
    no apply of M.
    """

    def __init__(
        self,
        apply: Callable[[np.ndarray], np.ndarray],
        capacity: int,
        d: int,
        lazy: Optional[LazySpikedInstance] = None,
    ):
        self._apply = apply
        self._lazy = lazy
        if lazy is None:
            self._Q = np.empty((capacity, d))
            self._MQ = np.empty((capacity, d))
            self._H = np.empty((capacity, capacity))
        else:
            if lazy._size:
                raise ValueError(
                    "a lazy instance opens a session only before it reveals any "
                    "direction; draw a fresh one with make_lazy_spiked"
                )
            lazy._reserve(capacity)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def rows(self) -> np.ndarray:
        """The rows in use, as a view."""
        Q = self._Q if self._lazy is None else self._lazy._Q
        return Q[: self._size]

    @property
    def H(self) -> np.ndarray:
        """The compression on the rows in use, as a view."""
        H = self._H if self._lazy is None else self._lazy._H
        return H[: self._size, : self._size]

    def query(self, v: np.ndarray) -> Tuple[np.ndarray, Optional[int]]:
        """M v, and the index of the row that v's direction off the rows
        adds; None when v adds none, being numerically in their span (its
        residual below DEGENERATE_TOL) or the basis full."""
        k = self._size
        if self._lazy is not None:
            if self._lazy._size != k:
                raise RuntimeError(
                    "the lazy instance revealed directions outside its session"
                )
            w = self._apply(v)
            if self._lazy._size == k:
                return w, None
        else:
            w = self._apply(v)
            if k == len(self._Q):
                return w, None
            r, c = _orthogonalize(self._Q[:k], v)
            rnorm = np.linalg.norm(r)
            if rnorm < DEGENERATE_TOL:
                return w, None
            b = self._Q[k]
            np.divide(r, rnorm, out=b)
            # M r = M v - c (M Q), carried while r keeps its digits
            self._MQ[k] = (
                (w - c @ self._MQ[:k]) / rnorm if 2.0 * rnorm**2 >= 1.0 else self._apply(b)
            )
            h = (self._MQ[: k + 1] @ b + self._Q[: k + 1] @ self._MQ[k]) / 2.0
            self._H[k, : k + 1] = h
            self._H[: k + 1, k] = h
        self._size = k + 1
        return w, k

    def projected(self, j: int) -> np.ndarray:
        if self._lazy is None:
            image = self._MQ[j]
        else:
            image = self._lazy._image(np.eye(1, j + 1, j)[0])  # M Q^T e_j
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
    # one pass: |v| is sqrt(v.dot(v)), as np.linalg.norm computes it, and
    # the entries need a scan only when that sum is not finite (a NaN or an
    # inf among them, or finite entries whose squares overflow)
    s = float(v.dot(v))
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

    def __init__(self, matrix: Union[np.ndarray, LazySpikedInstance], budget: int):
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        # The only handle to the hidden matrix is this bound matvec; the
        # session has no attribute that stores or returns the matrix itself.
        self._apply = matrix.__matmul__
        self._dim = int(matrix.shape[0])
        self._budget = int(budget)
        # the basis of R^d never holds more than d vectors, whatever the budget
        self._basis = _Basis(
            self._apply,
            min(self._budget, self._dim),
            self._dim,
            matrix if isinstance(matrix, LazySpikedInstance) else None,
        )
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
        direction."""
        if len(self._basis) == 0:
            return None, -np.inf
        vals, vecs = np.linalg.eigh(self._basis.H)
        v_hat = vecs[:, -1] @ self._basis.rows
        v_hat /= np.linalg.norm(v_hat)
        return v_hat, float(vals[-1])

    def residual(self, v: np.ndarray) -> np.ndarray:
        """v with its component in the span of the queries so far removed
        (one ``_orthogonalize`` against the basis)."""
        return _orthogonalize(self._basis.rows, v)[0]

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


def open_session(
    inst: Union[SpikedInstance, LazySpikedInstance, np.ndarray], budget: int
) -> QuerySession:
    """Start a budgeted query session against an instance or a bare matrix.

    A bare float matrix is made read-only in place, as an instance's matrix
    is, so that every response and carried image of the session is one
    matrix's.  A lazy instance is queried itself, and must not have revealed
    a direction yet (ValueError otherwise): its revealed directions, their
    images and its compression become the session's, in min(budget, d) rows
    of its storage made up front, and reading projected responses back
    draws nothing from it.
    """
    if isinstance(inst, SpikedInstance):
        matrix = inst.matrix
    elif isinstance(inst, LazySpikedInstance):
        matrix = inst
    else:
        matrix = _frozen(_require_symmetric(inst))
    return QuerySession(matrix, budget)


def reconstruct_raw_responses(transcript: Transcript) -> List[np.ndarray]:
    """Rebuild every raw response from the projected records alone.

    Inductively, M b_i = y_i + sum_{j<i} b_j (Mb_j . b_i) with y_i the
    projected response, and each raw query expands in the accumulated basis,
    so M v^(i) follows by linearity.  Round-trip accuracy is limited only by
    the orthonormalization floating-point error.
    """
    basis: List[np.ndarray] = []
    images: List[np.ndarray] = []
    out: List[np.ndarray] = []
    for st in transcript.steps:
        if not st.degenerate:
            mb = st.projected_response.copy()
            for b, img in zip(basis, images):
                mb += b * (img @ st.basis_vector)
            basis.append(st.basis_vector)
            images.append(mb)
        if basis:
            B = np.column_stack(basis)
            coeffs = B.T @ st.query
            out.append(np.column_stack(images) @ coeffs)
        else:
            out.append(np.zeros(transcript.dim))
    return out


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


def score(
    transcript: Transcript, inst: Union[SpikedInstance, LazySpikedInstance]
) -> Score:
    """Rayleigh ratio of the output, spike overlap, and per-step overlaps.

    The Rayleigh ratio v_hat^T M v_hat / ||M|| reads M through applies that
    no session charges, made after the session is finalized, so the
    transcript is unchanged: ||M|| from ``spectral_norm``, then v_hat^T M
    v_hat from one apply of v_hat (on a lazy instance through
    ``LazySpikedInstance._rayleigh``, which also reads a v_hat within
    DEGENERATE_TOL of the revealed span to second order).  On a lazy
    instance, which the session must have queried, the norm solve starts
    from the span of the queries and reveals only the directions it expands
    that span by, and the apply of v_hat at most one more; reading the
    transcript's projected responses afterwards still draws nothing, since
    their directions were revealed by the queries.
    """
    if isinstance(inst, SpikedInstance):
        def quadratic(v: np.ndarray) -> float:
            return float(v @ (inst.matrix @ v))
    elif isinstance(inst, LazySpikedInstance):
        quadratic = inst._rayleigh
    else:
        raise ValueError("score needs a SpikedInstance or a LazySpikedInstance")
    if transcript.dim != inst.dim:
        raise ValueError(
            f"transcript dimension {transcript.dim} != instance dimension {inst.dim}"
        )
    v_hat = transcript.final_output
    norm = spectral_norm(inst)
    ratio = quadratic(v_hat) / norm
    overlap = float(v_hat @ inst.theta) ** 2
    return Score(
        rayleigh_ratio=ratio,
        spike_overlap=overlap,
        step_overlaps=_step_overlaps(transcript.steps, inst.theta),
    )


def _vector_hash(v: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()[:12]


def transcript_rows(
    transcript: Transcript, inst: Optional[SpikedInstance] = None
) -> List[Tuple]:
    """Line-oriented transcript record: (step, query hash, overlap, proj norm).

    The overlap column is d * <b_k, theta>^2 when the instance is supplied
    (the quantity the tau-schedules bound), empty otherwise; the final
    output appears as step T+1 with its own hash and overlap <v_hat, theta>^2.
    """
    rows: List[Tuple] = []
    if inst is None:
        overlaps = [""] * len(transcript.steps)
    else:
        overlaps = _step_overlaps(transcript.steps, inst.theta).tolist()
    for st, ov in zip(transcript.steps, overlaps):
        rows.append(
            (
                st.step,
                _vector_hash(st.query),
                ov,
                float(np.linalg.norm(st.projected_response)),
            )
        )
    v_hat = transcript.final_output
    ov = "" if inst is None else float(v_hat @ inst.theta) ** 2
    rows.append((len(transcript.steps) + 1, _vector_hash(v_hat), ov, ""))
    return rows
