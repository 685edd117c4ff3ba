"""Budgeted exact matrix-vector query oracle with projected-response records.

An algorithm interacts with a hidden symmetric matrix M only through
``query(session, v) -> Mv`` for unit vectors v, up to a budget of T calls,
then commits to a final unit vector via ``finalize``.  Each charged query
applies M once, to v.  Alongside the raw responses the session maintains
the equivalent reduced view: queries are orthonormalized on the fly
(classical Gram-Schmidt, two passes, as block products against a
preallocated basis array), and each step i that adds a basis direction b_i
has a projected response P_{i-1} M b_i, where P_{i-1} projects onto the
orthogonal complement of the earlier basis.  The projected responses are
computed when first read (``projected_view``, ``finalize``): the images of
all basis directions not yet imaged come from one block product with M,
and each is then projected against the directions before it.  Raw
responses are exactly recoverable from the projected records, so the two
views carry the same information; ``reconstruct_raw_responses`` realizes
that round trip.

The session object deliberately exposes no handle to M or to the planted
spike: scoring against ground truth takes the instance as an explicit
argument.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .instances import SpikedInstance, _frozen, _require_symmetric, spectral_norm

#: Residual norm below which a query adds no new basis direction.
DEGENERATE_TOL = 1e-10

#: Unit-norm tolerance for queries and final outputs.
UNIT_TOL = 1e-8


class BudgetExhaustedError(RuntimeError):
    """Raised when a session has no queries left."""


class SessionFinalizedError(RuntimeError):
    """Raised on queries after finalize, or on double finalize."""


class ProjectedStep(NamedTuple):
    """Reduced view of one query: new basis direction and projected response.

    ``query`` is None and ``response`` the zero vector when the step was
    degenerate (the raw query lay in the span of earlier queries).
    """

    query: Optional[np.ndarray]
    response: np.ndarray
    degenerate: bool


@dataclass(frozen=True)
class TranscriptStep:
    step: int
    query: np.ndarray
    raw_response: np.ndarray
    basis_vector: Optional[np.ndarray]
    projected_response: np.ndarray
    degenerate: bool


@dataclass(frozen=True)
class Transcript:
    """Sealed record of a finished session: all steps plus the final output."""

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
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} has non-finite entries")
    if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
        raise ValueError(f"{what} must be unit norm (tol {UNIT_TOL})")
    return v


def _orthogonalize(
    Q: np.ndarray,
    v: np.ndarray,
    images: Optional[np.ndarray] = None,
    w: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Residual of v against the orthonormal rows of Q, by classical
    Gram-Schmidt in two passes (CGS2), each pass one block ``Q @ r`` and one
    ``c @ Q`` product.

    When images and w are given, the same combinations of the rows of images
    are subtracted from w: with images[j] = M Q[j] and w = M v, the second
    return value is M applied to the residual.  Returns fresh arrays; the
    inputs are not modified.
    """
    r = np.array(v, dtype=float)
    img = None if w is None else np.array(w, dtype=float)
    for _ in range(2):
        c = Q @ r
        r -= c @ Q
        if img is not None:
            img -= c @ images
    return r, img


class QuerySession:
    """Single-owner mutable state for one algorithm run against one matrix.

    ``query`` records the raw query and response and extends the basis; the
    projected response of each basis direction waits until it is read.  The
    basis and the projected responses are preallocated (min(budget, d), d)
    arrays, so the stored reduced view never exceeds d rows.
    """

    def __init__(self, matrix: np.ndarray, budget: int):
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        # The only handle to the hidden matrix is this bound matvec; the
        # session has no attribute that stores or returns the matrix itself.
        self._apply = matrix.__matmul__
        self._dim = int(matrix.shape[0])
        self._budget = int(budget)
        self._queries: List[np.ndarray] = []
        self._raw_responses: List[np.ndarray] = []
        # basis rows 0.._basis_size-1 are in use; the basis of R^d never
        # holds more than d vectors, whatever the budget
        self._basis = np.empty((min(self._budget, self._dim), self._dim))
        self._basis_size = 0
        self._step_basis: List[Optional[int]] = []  # step -> basis index or None
        # row j holds P_{j-1} M b_j for j < _projected_size; the rows from
        # _projected_size to _basis_size are computed on the next read
        self._projected = np.empty_like(self._basis)
        self._projected_size = 0
        self._final: Optional[np.ndarray] = None
        self._early_termination = False
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
        return len(self._queries)

    @property
    def remaining(self) -> int:
        return self._budget - len(self._queries)

    @property
    def finalized(self) -> bool:
        return self._final is not None

    @property
    def basis_size(self) -> int:
        return self._basis_size

    def basis(self) -> np.ndarray:
        """Orthonormalized query directions accumulated so far, as columns."""
        return self._basis[: self._basis_size].T.copy()

    # ------------------------------------------------------------- operations

    def query(self, v: np.ndarray) -> np.ndarray:
        if self.finalized:
            raise SessionFinalizedError("session is finalized; no further queries")
        if self.remaining <= 0:
            raise BudgetExhaustedError(f"budget of {self._budget} queries exhausted")
        v = _check_query_vector(v, self._dim)
        w = self._apply(v)

        k = self._basis_size
        prior = self._basis[:k]
        r, _ = _orthogonalize(prior, v)
        rnorm = np.linalg.norm(r)

        if rnorm < DEGENERATE_TOL or k == self._basis.shape[0]:
            self._step_basis.append(None)
        else:
            self._basis[k] = r / rnorm
            self._basis_size = k + 1
            self._step_basis.append(k)

        self._queries.append(v.copy())
        self._raw_responses.append(w)
        return w.copy()

    def _project_pending(self) -> None:
        """Fill the projected responses of the basis rows added since the
        last read: their images under M in one block product, then each
        image orthogonalized against the basis rows before it."""
        lo, hi = self._projected_size, self._basis_size
        if lo == hi:
            return
        images = self._apply(self._basis[lo:hi].T).T
        for j in range(lo, hi):
            self._projected[j] = _orthogonalize(self._basis[:j], images[j - lo])[0]
        self._projected_size = hi

    def projected_view(self, i: int) -> ProjectedStep:
        """Reduced view of step i (1-based): new basis direction, projected response."""
        if not (1 <= i <= self.queries_made):
            raise IndexError(f"step index {i} out of range 1..{self.queries_made}")
        idx = self._step_basis[i - 1]
        if idx is None:
            return ProjectedStep(None, np.zeros(self._dim), True)
        self._project_pending()
        return ProjectedStep(self._basis[idx].copy(), self._projected[idx].copy(), False)

    def finalize(self, v_hat: np.ndarray, early_termination: bool = False) -> Transcript:
        if self.finalized:
            raise SessionFinalizedError("session already finalized")
        v_hat = _check_query_vector(v_hat, self._dim, what="final output")
        self._final = v_hat.copy()
        self._early_termination = bool(early_termination)
        self._project_pending()
        steps = []
        for k in range(self.queries_made):
            idx = self._step_basis[k]
            steps.append(
                TranscriptStep(
                    step=k + 1,
                    query=_frozen(self._queries[k]),
                    raw_response=_frozen(self._raw_responses[k]),
                    basis_vector=None if idx is None else _frozen(self._basis[idx]),
                    projected_response=_frozen(
                        np.zeros(self._dim) if idx is None else self._projected[idx]
                    ),
                    degenerate=idx is None,
                )
            )
        self._transcript = Transcript(
            steps=tuple(steps),
            final_output=_frozen(self._final),
            budget=self._budget,
            dim=self._dim,
            early_termination=self._early_termination,
        )
        return self._transcript

    @property
    def transcript(self) -> Optional[Transcript]:
        """The finalized transcript, or None while the session is open."""
        return self._transcript


def open_session(inst: Union[SpikedInstance, np.ndarray], budget: int) -> QuerySession:
    """Start a budgeted query session against an instance or a bare matrix."""
    if isinstance(inst, SpikedInstance):
        matrix = inst.matrix
    else:
        matrix = _require_symmetric(np.asarray(inst, dtype=float))
    return QuerySession(matrix, budget)


def query(session: QuerySession, v: np.ndarray) -> np.ndarray:
    return session.query(v)


def projected_view(session: QuerySession, i: int) -> ProjectedStep:
    return session.projected_view(i)


def finalize(
    session: QuerySession, v_hat: np.ndarray, early_termination: bool = False
) -> Transcript:
    return session.finalize(v_hat, early_termination=early_termination)


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
    spike_overlap: float
    step_overlaps: np.ndarray  # d * <b_k, theta>^2 per step, 0 for degenerate


def score(transcript: Transcript, inst: SpikedInstance) -> Score:
    """Rayleigh ratio of the output, spike overlap, and per-step overlaps."""
    if transcript.dim != inst.dim:
        raise ValueError(
            f"transcript dimension {transcript.dim} != instance dimension {inst.dim}"
        )
    v_hat = transcript.final_output
    norm = spectral_norm(inst.matrix)
    ratio = float(v_hat @ inst.matrix @ v_hat) / norm
    overlap = float(v_hat @ inst.theta) ** 2
    d = inst.dim
    per_step = np.array(
        [
            0.0 if st.degenerate else d * float(st.basis_vector @ inst.theta) ** 2
            for st in transcript.steps
        ]
    )
    return Score(rayleigh_ratio=ratio, spike_overlap=overlap, step_overlaps=per_step)


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
    d = transcript.dim
    for st in transcript.steps:
        if inst is None:
            ov = ""
        elif st.degenerate:
            ov = 0.0
        else:
            ov = d * float(st.basis_vector @ inst.theta) ** 2
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
