"""Deformed-Wigner instances and their spectral ground truth.

The hard inputs studied here are rank-one deformations of a Gaussian
orthogonal ensemble matrix,

    M = lam * theta theta^T + W / sqrt(d),

with theta uniform on the unit sphere and W symmetric Gaussian noise
(off-diagonal variance 1, diagonal variance 2).  This module samples such
instances, exposes a full-eigendecomposition oracle for ground truth, and
checks membership in the bounded-eigenratio class (top eigenvalue positive
and dominant, every other eigenvalue at most gamma times it in magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Tuple, Union

import numpy as np
from scipy.sparse.linalg import eigsh

Seed = Union[None, int, np.integer, np.random.Generator, np.random.SeedSequence]

#: Largest dimension the dense eigendecomposition oracle accepts by default.
SPECTRUM_DIM_CAP = 8192

#: Edge of the square tiles in which the d x d passes below walk the matrix.
#: A tile and its mirror image across the diagonal are read together, so a
#: transposed read stays in cache instead of striding through the whole
#: matrix.  Measured with one thread at d in {1000, 1500, 2000, 2048, 3000,
#: 4000}, 128 is within a third of the faster of 64 and 256 at every d, where
#: 64 is 2x slower at d = 2000 and 256 is 1.6x slower at d = 2048.  At
#: d = 4096 64 is 2x faster than 128, and 128 still beats one whole-matrix
#: comparison 2.6x.
TILE = 128

#: Largest dimension at which spectral_norm runs the dense eigensolver.  Above
#: it one Lanczos solve for the largest-magnitude eigenvalue is as fast or
#: faster, also on null instances, whose extreme eigenvalues nearly tie.
DENSE_NORM_MAX_DIM = 256

#: Conservative value of E||W||/sqrt(d) for GOE noise, used by threshold
#: formulas that need a concrete constant.  The empirical estimate at
#: laboratory sizes sits a little below this (about 1.97 at d = 500).
KD_ASYMPTOTIC = 2.0


def as_rng(seed: Seed) -> np.random.Generator:
    """Coerce a seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def trial_seed(seed: int, trial: int) -> int:
    """Per-trial stream seed: base seed XOR trial index (64-bit)."""
    return (int(seed) ^ int(trial)) & 0xFFFFFFFFFFFFFFFF


def _mirror_tiles(d: int) -> Iterator[Tuple[slice, slice]]:
    """Index slices (I, J) of the tiles on and above the diagonal of a d x d
    matrix; tile (J, I) is the mirror image of tile (I, J)."""
    for i in range(0, d, TILE):
        for j in range(i, d, TILE):
            yield slice(i, i + TILE), slice(j, j + TILE)


def _row_blocks(d: int) -> Iterator[slice]:
    """Index slices of consecutive blocks of TILE rows of a d-row matrix."""
    for i in range(0, d, TILE):
        yield slice(i, i + TILE)


def _is_symmetric(M: np.ndarray) -> bool:
    """array_equal(M, M.T) for a square M, compared one tile pair at a time."""
    return all(np.array_equal(M[I, J], M[J, I].T) for I, J in _mirror_tiles(M.shape[0]))


def _require_symmetric(M: np.ndarray, name: str = "M") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    if not _is_symmetric(M):
        raise ValueError(f"{name} must be exactly symmetric")
    return M


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def sample_goe(d: int, seed: Seed = None) -> np.ndarray:
    """Draw a d x d GOE matrix: N(0,1) above the diagonal, N(0,2) on it.

    Built as (X + X^T)/sqrt(2) for X with i.i.d. standard normal entries,
    which is exactly symmetric in floating point and has the stated
    entrywise variances.  X is symmetrized in place, one tile and its mirror
    at a time, so the draw is the only d x d array allocated.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    rng = as_rng(seed)
    x = rng.standard_normal((d, d))
    for I, J in _mirror_tiles(d):
        s = x[I, J] + x[J, I].T
        x[I, J] = s
        x[J, I] = s.T
    x /= np.sqrt(2.0)
    return x


def sample_uniform_sphere(d: int, seed: Seed = None) -> np.ndarray:
    """Draw a uniform unit vector in R^d (normalized standard Gaussian)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    rng = as_rng(seed)
    while True:
        v = rng.standard_normal(d)
        norm = np.linalg.norm(v)
        if norm > 0:
            return v / norm


@dataclass(frozen=True)
class SpikedInstance:
    """A planted-spike matrix M = lam * theta theta^T + noise / sqrt(d)."""

    theta: np.ndarray
    lam: float
    noise: np.ndarray
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        theta = _frozen(self.theta)
        noise = _frozen(_require_symmetric(self.noise, "noise"))
        matrix = _frozen(_require_symmetric(self.matrix, "matrix"))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "matrix", matrix)
        if self.lam < 0 or not np.isfinite(self.lam):
            raise ValueError(f"spike strength must be finite and >= 0, got {self.lam}")
        if abs(np.linalg.norm(theta) - 1.0) > 1e-12:
            raise ValueError("theta must be a unit vector (tol 1e-12)")
        d = theta.shape[0]
        if noise.shape != (d, d) or matrix.shape != (d, d):
            raise ValueError(
                f"noise {noise.shape} and matrix {matrix.shape} must be d x d "
                f"for theta of length d = {d}"
            )
        # max |matrix - (lam theta theta^T + noise/sqrt(d))|, a block of rows
        # at a time; np.max keeps a NaN, as one whole-matrix pass would
        scale = np.sqrt(d)
        worst = []
        for rows in _row_blocks(d):
            diff = self.lam * np.outer(theta[rows], theta)
            diff += noise[rows] / scale
            diff -= matrix[rows]
            worst.append(np.max(np.abs(diff, out=diff)))
        if np.max(worst) > 1e-10:
            raise ValueError("matrix does not equal lam*theta theta^T + noise/sqrt(d)")

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


def make_spiked(d: int, lam: float, seed: Seed = None) -> SpikedInstance:
    """Sample theta uniform on the sphere, W from the GOE, and assemble M.

    M is noise/sqrt(d) with lam theta theta^T added in place, a block of rows
    at a time.  Both terms are exactly symmetric in floating point, and so is
    their sum.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if lam < 0 or not np.isfinite(lam):
        raise ValueError(f"spike strength must be finite and >= 0, got {lam}")
    rng = as_rng(seed)
    theta = sample_uniform_sphere(d, rng)
    noise = sample_goe(d, rng)
    matrix = noise / np.sqrt(d)
    for rows in _row_blocks(d):
        matrix[rows] += lam * np.outer(theta[rows], theta)
    return SpikedInstance(theta=theta, lam=float(lam), noise=noise, matrix=matrix)


@dataclass(frozen=True)
class SpectrumSummary:
    """Full eigendecomposition digest of a symmetric matrix.

    eigenvalues are sorted descending; eigenratio is max_{j>=2} |lam_j|/lam_1,
    defined only when lam_1 > 0 (None otherwise).
    """

    eigenvalues: np.ndarray
    top_vector: np.ndarray
    op_norm: float
    eigenratio: Optional[float]


def spectrum(M: np.ndarray, dim_cap: int = SPECTRUM_DIM_CAP) -> SpectrumSummary:
    """Dense symmetric eigendecomposition, capped at desk scale."""
    M = _require_symmetric(M)
    d = M.shape[0]
    if d > dim_cap:
        raise ValueError(f"spectrum oracle capped at d <= {dim_cap}, got {d}")
    vals, vecs = np.linalg.eigh(M)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    top = vecs[:, order[0]]
    op_norm = float(max(abs(vals[0]), abs(vals[-1])))
    if vals[0] > 0 and d > 1:
        ratio = float(np.max(np.abs(vals[1:])) / vals[0])
    elif vals[0] > 0:
        ratio = 0.0
    else:
        ratio = None
    return SpectrumSummary(
        eigenvalues=_frozen(vals),
        top_vector=_frozen(top),
        op_norm=op_norm,
        eigenratio=ratio,
    )


def spectral_norm(M: np.ndarray) -> float:
    """Operator norm of a symmetric matrix.

    Uses the dense solver up to d = DENSE_NORM_MAX_DIM (256) and, above it,
    one iterative Lanczos solve for the largest-magnitude eigenvalue
    (deterministic start vector), which is the operator norm by definition;
    the two agree to about 1e-14 relative on symmetric input.
    """
    M = _require_symmetric(M)
    d = M.shape[0]
    if d <= DENSE_NORM_MAX_DIM:
        vals = np.linalg.eigvalsh(M)
        return float(max(abs(vals[0]), abs(vals[-1])))
    v0 = np.full(d, 1.0 / np.sqrt(d))
    return float(abs(eigsh(M, k=1, which="LM", v0=v0, tol=0)[0][0]))


class Membership(NamedTuple):
    """Result of the eigenratio-class test, with a violating index if any.

    witness is a 1-based eigenvalue index: 1 means the top eigenvalue itself
    fails (not positive, or not the largest in magnitude); j >= 2 points at
    the first eigenvalue with |lam_j| > gamma * lam_1.
    """

    is_member: bool
    witness: Optional[int]


def check_membership(M: np.ndarray, gamma: float) -> Membership:
    """Test lam_1(M) = ||M|| > 0 and |lam_j| <= gamma * lam_1 for all j >= 2."""
    if not (0 <= gamma < 1):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    return _membership_of_spectrum(spectrum(M).eigenvalues, gamma)


def _membership_of_spectrum(vals: np.ndarray, gamma: float) -> Membership:
    """The eigenratio-class test on eigenvalues sorted descending."""
    lam1 = vals[0]
    if lam1 <= 0 or abs(vals[-1]) > lam1:
        return Membership(False, 1)
    rest = np.abs(vals[1:])
    # a few ulps of slack so gamma = eigenratio(M) itself always passes
    bad = np.nonzero(rest > gamma * lam1 * (1.0 + 4 * np.finfo(float).eps))[0]
    if bad.size:
        return Membership(False, int(bad[0]) + 2)
    return Membership(True, None)


def rayleigh(M: np.ndarray, v: np.ndarray) -> float:
    """Rayleigh quotient v^T M v for a unit vector v (tol 1e-8)."""
    M = _require_symmetric(M)
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("rayleigh requires a unit vector (tol 1e-8)")
    return float(v @ M @ v)
