"""Deformed-Wigner instances and their spectral ground truth.

The hard inputs studied here are rank-one deformations of a Gaussian
orthogonal ensemble matrix,

    M = lam * theta theta^T + W / sqrt(d),

with theta uniform on the unit sphere and W symmetric Gaussian noise
(off-diagonal variance 1, diagonal variance 2), drawn from its d(d+1)/2
free entries: the upper triangle, diagonal included, in row-major order,
mirrored below.  This module samples such instances and solves for their
operator norm.

A ``SpikedInstance`` stores theta and M, one d x d array, and checks both;
W is not kept.  ``make_spiked`` builds M in the buffer of the GOE draw.

``make_lazy_spiked`` draws an instance of the same law that never forms M:
a ``LazySpikedInstance`` draws W only along the directions it is applied
to, by the GOE's orthogonal invariance, and after k of them holds
(2k + 1) d floats and the k x k compression of M to their span.

Query sessions and norm solves read every matrix as a ``_RevealedOperator``:
the directions revealed so far, their images and the compression of M to
their span.  A lazy instance is one; a dense matrix is wrapped in one
without a copy (``_operator``).  ``spectral_norm`` solves on that span
(``_revealed_span_extremes``) for lazy instances and above
DENSE_NORM_MAX_DIM, revealing more only where the span falls short.  On a
lazy instance it reveals them in reduced coordinates
(``LazySpikedInstance._reduce``): on an orthonormal basis E of the span of
the k revealed directions, their images and theta, at most 2k + 1 more
rows of length d, after which a reveal draws O(k) numbers instead of d.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, List, Optional, Tuple, TypeVar, Union

import numpy as np

Seed = Union[None, int, np.integer, np.random.Generator, np.random.SeedSequence]

#: Edge of the square tiles in which the d x d passes below walk the matrix
#: (and the height of the row blocks in which a GOE draw is made).
#: A tile and its mirror image across the diagonal are read together, so a
#: transposed read stays in cache instead of striding through the whole
#: matrix.  Measured with one thread at d in {1000, 1500, 2000, 2048, 3000,
#: 4000}, 128 is within a third of the faster of 64 and 256 at every d, where
#: 64 is 2x slower at d = 2000 and 256 is 1.6x slower at d = 2048.  At
#: d = 4096 64 is 2x faster than 128, and 128 still beats one whole-matrix
#: comparison 2.6x.
TILE = 128

#: Largest dimension at which spectral_norm runs the dense eigensolver.  Above
#: it the Lanczos solve of ``_revealed_span_extremes`` is as fast or faster,
#: also on null instances, whose extreme eigenvalues nearly tie.
DENSE_NORM_MAX_DIM = 256

#: Rows a norm solve reserves at once, beyond those revealed, for the
#: directions it reveals (``_RevealedSpan``): rows of length d on a dense
#: operator, and on a lazy instance rows of its reduced coordinates, which
#: take at most one axis more per row (``LazySpikedInstance._reduce``), so
#: that they cost O(k^2) floats at any d.  The solve reserves them at its
#: first restart, so a span that passes its first check, such as a
#: converged Lanczos session's, grows nothing.  At lam = 3
#: the solve revealed at most 24 over 20 seeds each of power and random at
#: d = 2000, T = 6, 18 after power at d = 10^6, and none after Lanczos at
#: d = 1000, T = 64; on null instances it reveals more, and the instance
#: grows past these rows by doubling.
NORM_SOLVE_ROWS = 32

#: Residual norm, relative to the vector's, below which a vector adds no new
#: basis direction: a degenerate oracle query, or a Krylov breakdown of
#: Lanczos (``algorithms``) and of the norm solve (``_RevealedSpan``).
DEGENERATE_TOL = 1e-10

#: Conservative value of E||W||/sqrt(d) for GOE noise, used by threshold
#: formulas that need a concrete constant.  The empirical estimate at
#: laboratory sizes sits a little below this (about 1.97 at d = 500).
KD_ASYMPTOTIC = 2.0


def as_rng(seed: Seed) -> np.random.Generator:
    """Coerce a seed, SeedSequence, or Generator into a Generator.  An
    integer seed is taken mod 2^64, as in ``trial_seed``, so a negative one
    is usable too; seeds in [0, 2^64) open their usual streams."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        seed = int(seed) % 2**64
    return np.random.default_rng(seed)


def trial_seed(seed: int, trial: int) -> np.random.SeedSequence:
    """Per-trial stream: the trial-th spawn child of SeedSequence(seed), with
    the base seed taken mod 2^64 so that a negative one is usable too.

    Streams of different (seed, trial) pairs are independent, and none
    replays the base stream as_rng(seed), whose spawn key is empty.
    """
    return np.random.SeedSequence(int(seed) % 2**64, spawn_key=(int(trial),))


R = TypeVar("R")


def available_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # platforms without CPU affinity


def map_trials(fn: Callable[[int], R], n: int, workers: Optional[int] = None) -> List[R]:
    """[fn(i) for i in range(n)], run on up to ``workers`` threads (default:
    available_cores()), returned in index order.

    Trials that draw from their own ``trial_seed`` stream give the same
    results on any number of threads.  NumPy and BLAS release the GIL, so
    the threads overlap the native work; Python code in ``fn`` runs one
    thread at a time.  With one worker the trials run inline and no thread
    starts.  If trials raise, the exception of the lowest-index failing
    trial propagates and trials not yet started are cancelled.
    """
    if workers is None:
        workers = available_cores()
    workers = min(n, workers)
    if workers <= 1:
        return [fn(i) for i in range(n)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, i) for i in range(n)]
        try:
            return [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


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
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    if not _is_symmetric(M):
        raise ValueError(f"{name} must be exactly symmetric")
    return M


class MemoryLimitError(ValueError):
    """Raised when the arrays a computation would hold are larger than the
    machine's physical memory, so that it could never finish."""


def _require_fits(
    what: str, d: int, matrices: int, rows: int = 0, floats: int = 0
) -> None:
    """Raise MemoryLimitError when ``matrices`` d x d float64 arrays plus
    ``rows`` more float64 rows of length d and ``floats`` more float64s are
    larger than the machine's physical memory; ``what`` names them in the
    message.  Platforms without ``os.sysconf`` are not checked."""
    if not hasattr(os, "sysconf"):
        return
    need = 8 * (d * (matrices * d + rows) + floats)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise MemoryLimitError(
            f"{what} needs {need} bytes, more than the {have} bytes of "
            f"physical memory"
        )


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _orthogonalize(Q: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(r, c): the residual r of v against the orthonormal rows of Q, and
    the coefficients c with r = v - c Q, by classical Gram-Schmidt: one
    pass, one block ``Q @ r`` and one ``c @ Q`` product, and a second pass
    only when the first left less than 1/sqrt(2) of v's norm
    (2 |r|^2 < |v|^2), the reorthogonalization test of Daniel, Gragg,
    Kaufman and Stewart (Math. Comp. 1976).  Where the first pass cancels
    less, its residual is already orthogonal to Q to working precision;
    where it cancels more, the second pass restores that, and a third is
    never needed ("twice is enough": Giraud, Langou and Rozloznik, 2005).

    c sums the coefficients of both passes, so a caller that keeps the
    images M Q[j] as the rows of an array forms M r as M v - c @ images.
    Returns fresh arrays; the inputs are not modified.
    """
    r = np.array(v, dtype=float)
    vv = float(r @ r)
    c = Q @ r
    r -= c @ Q
    if 2.0 * float(r @ r) < vv:
        again = Q @ r
        r -= again @ Q
        c += again
    return r, c


@lru_cache(maxsize=16)
def _packed_layout(d: int, s: int) -> Tuple[np.ndarray, np.ndarray]:
    """(index, diagonal) of the leading s columns of a d x d GOE draw in its
    packed free entries: index[r, c] is the position of entry
    (min(r, c), max(r, c)) of the upper triangle in row-major order, and
    diagonal the positions of the first s diagonal entries; all lie in the
    triangle's first s rows.  Both are read-only.  They are cached because
    the GOE checks fill a slab at a time: recomputing the d x d index per
    slab of full draws took quick gauss-quadratic from 0.30 to 0.38 s and
    conditional-law from 0.21 to 0.26 s (median of 9, two trial threads,
    one BLAS thread)."""
    r, c = np.arange(d)[:, None], np.arange(s)
    lo, hi = np.minimum(r, c), np.maximum(r, c)
    index = lo * d - lo * (lo - 1) // 2 + hi - lo
    diagonal = c * d - c * (c - 1) // 2
    index.setflags(write=False)
    diagonal.setflags(write=False)
    return index, diagonal


def _fill_goe(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill x, a stack of m d x s arrays, with the leading s columns of m
    successive GOE draws from rng, and return it.

    A draw takes from rng only its first p = s d - s(s - 1)/2 free entries,
    the rows of its packed upper triangle that its s columns read, so at
    s = d x holds m successive sample_goe draws.  When s < d or one block of
    TILE rows holds a whole matrix, the p entries of all m draws are made at
    once, the diagonal ones scaled by sqrt(2), and x gathered from them by
    one ``np.take``, which runs without the GIL, so trial threads filling
    their own draws overlap.  A whole matrix above TILE is made a block of
    TILE rows at a time, scattered into the block's upper triangle through a
    (TILE, d) mask and mirrored tile by tile.  Successive generator draws
    concatenate, so the result does not depend on TILE.
    """
    m, d, s = x.shape
    root2 = np.sqrt(2.0)
    if d <= TILE or s < d:
        index, diagonal = _packed_layout(d, s)
        z = rng.standard_normal((m, s * d - s * (s - 1) // 2))
        z[:, diagonal] *= root2
        # mode="clip" writes straight into x; the default would buffer
        np.take(z, index, axis=1, out=x, mode="clip")
        return x
    if m > 1:  # matrix j's entries all come before matrix j+1's
        for j in range(m):
            _fill_goe(x[j : j + 1], rng)
        return x
    upper = np.arange(d) >= np.arange(TILE)[:, None]  # column >= row
    for i in range(0, d, TILE):
        I = slice(i, i + TILE)
        b, w = min(TILE, d - i), d - i
        mask = upper[:b, :w]
        z = rng.standard_normal((m, b * w - b * (b - 1) // 2))
        r = np.arange(b)  # row r's packed entries start with its diagonal one
        z[:, r * w - r * (r - 1) // 2] *= root2
        # boolean masks of the indexed array's full shape take numpy's fast path
        block = x[:, I, i:]
        block[np.broadcast_to(mask, block.shape)] = z.ravel()
        diag = x[:, I, I]
        lower = np.broadcast_to(~mask[:, :b], diag.shape)
        diag[lower] = diag.transpose(0, 2, 1)[lower]
        for j in range(i + TILE, d, TILE):
            J = slice(j, j + TILE)
            x[:, J, I] = x[:, I, J].transpose(0, 2, 1)
    return x


def sample_goe(d: int, seed: Seed = None) -> np.ndarray:
    """Draw a d x d GOE matrix: N(0,1) above the diagonal, N(0,2) on it.

    Only the d(d+1)/2 free entries are drawn: the upper triangle, diagonal
    included, in row-major order, as z ~ N(0, 1) off the diagonal and
    sqrt(2) z on it, mirrored below, so the matrix is exactly symmetric.
    Above TILE the draw is made and scattered a block of rows at a time, so
    the matrix is the only d x d array allocated; at d <= TILE the whole
    draw is gathered through a cached d x d index (_packed_layout).
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return _fill_goe(np.empty((1, d, d)), as_rng(seed))[0]


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


def _check_lam(lam: float) -> None:
    if lam < 0 or not np.isfinite(lam):
        raise ValueError(f"spike strength must be finite and >= 0, got {lam}")


def _check_spike(theta: np.ndarray, lam: float) -> None:
    """Raise ValueError unless lam is finite and >= 0 and theta is a finite
    1-D unit vector (tol 1e-12)."""
    _check_lam(lam)
    if theta.ndim != 1:
        raise ValueError(f"theta must be a 1-D vector, got shape {theta.shape}")
    # a NaN slips past the tolerance test below, which compares with >
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta has non-finite entries")
    if abs(np.linalg.norm(theta) - 1.0) > 1e-12:
        raise ValueError("theta must be a unit vector (tol 1e-12)")


@dataclass(frozen=True)
class SpikedInstance:
    """A planted-spike matrix M = lam * theta theta^T + noise / sqrt(d).

    Only theta and M are stored, and both are checked: theta a finite 1-D
    unit vector, lam finite and >= 0, and matrix finite, exactly symmetric
    and d x d.  Every such M is of this form, with noise = sqrt(d) (M -
    lam theta theta^T), so noise is neither taken nor kept.
    """

    theta: np.ndarray
    lam: float
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        theta = _frozen(self.theta)
        _check_spike(theta, self.lam)
        matrix = _frozen(_require_symmetric(self.matrix, "matrix"))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "matrix", matrix)
        d = theta.shape[0]
        if matrix.shape != (d, d):
            raise ValueError(
                f"matrix {matrix.shape} must be d x d for theta of length d = {d}"
            )

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


def make_spiked(d: int, lam: float, seed: Seed = None) -> SpikedInstance:
    """Sample theta uniform on the sphere, W from the GOE, and assemble M.

    M is built in the buffer of the GOE draw: a block of rows at a time, W
    is divided by sqrt(d) in place and lam theta theta^T added, so M is the
    only d x d array.  Both terms are exactly symmetric in floating point,
    and so is their sum, which ``SpikedInstance`` checks.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    _check_lam(lam)
    rng = as_rng(seed)
    theta = sample_uniform_sphere(d, rng)
    matrix = sample_goe(d, rng)
    scale = np.sqrt(d)
    for rows in _row_blocks(d):
        block = matrix[rows]
        block /= scale
        block += lam * np.outer(theta[rows], theta)
    return SpikedInstance(theta, float(lam), matrix)


class _RevealedOperator:
    """A symmetric d x d matrix M as sessions and norm solves read it: the
    directions it has revealed as the orthonormal rows of Q, their images as
    the rows of U, and H = Q M Q^T, in arrays whose first ``_size`` rows are
    in use.  A subclass reveals a unit b orthogonal to Q with its row of H
    (``_reveal``), applies M to v and reveals v's direction off Q unless v
    lies within DEGENERATE_TOL of their span (``_apply``: M v and v's
    coefficients on Q), and forms M Q^T s (``_image``) and v^T M v
    (``_rayleigh``) with no reveal.  ``_eigh`` is made once per size of H,
    shared by a session's Ritz pair and its norm solve.  ``_reserve`` refuses
    a growth past physical memory (``MemoryLimitError``).  One thread uses
    an operator at a time.

    Q and U hold their rows in the first ``_width`` of their columns, d of
    them unless the operator works in reduced coordinates
    (``LazySpikedInstance._reduce``); a norm solve expands the operator
    ``_reduce`` returns, which is the operator itself unless it is lazy.
    """

    #: How the refusal of a growth names the operator.
    _NAME = "an operator"
    #: Arrays of one float per revealed direction, grown with Q.
    _ROW_VALUES: Tuple[str, ...] = ()
    #: The operator a norm solve expands, once one has reduced it.
    _coords: Optional["_RevealedOperator"] = None

    def __init__(self, d: int):
        self._dim = d
        self._width = d
        self._Q = np.empty((0, d))
        self._U = np.empty_like(self._Q)
        self._H = np.empty((0, 0))
        self._size = 0
        self._eig: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def shape(self) -> Tuple[int, int]:
        return self.dim, self.dim

    def _reserve(self, rows: int) -> None:
        """Make room for ``rows`` revealed directions (at most d) in Q, U, H
        and the ``_ROW_VALUES``, and in reduced coordinates for the one axis
        each of them may add.  Q and U start zeroed, as the reduced axes not
        yet in use are; only the rows in use are copied, and a large zeroed
        array is mapped lazily, so the pages of the rest are not touched
        before a reveal writes them.
        A growth whose arrays are larger than physical memory is refused
        with MemoryLimitError (``_require_fits``), before anything is
        allocated."""
        rows = min(rows, self.dim)
        if rows > len(self._Q):
            cols = min(self.dim, self._width + rows - self._size)
            axes = "" if cols == self.dim else f" on {cols} axes"
            _require_fits(
                f"{self._NAME} of dimension {self.dim} grown to {rows} revealed "
                f"directions{axes}", self.dim, 0, 0,
                2 * rows * cols + rows * rows + len(self._ROW_VALUES) * rows,
            )
            k, w = self._size, self._width
            for name, shape, in_use, alloc in (
                ("_Q", (rows, cols), np.s_[:k, :w], np.zeros),
                ("_U", (rows, cols), np.s_[:k, :w], np.zeros),
                ("_H", (rows, rows), np.s_[:k, :k], np.empty),
            ) + tuple((name, (rows,), np.s_[:k], np.empty) for name in self._ROW_VALUES):
                grown = alloc(shape)
                grown[in_use] = getattr(self, name)[in_use]
                setattr(self, name, grown)

    def _reduce(self) -> "_RevealedOperator":
        """The operator a norm solve expands past its first check: this one."""
        return self

    def _eigh(self) -> Tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh`` of the compression H on the revealed rows, made
        once per size of H and shared by its readers (read-only)."""
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self._H[: self._size, : self._size])
            vals.setflags(write=False)
            vecs.setflags(write=False)
            self._eig = vals, vecs
        return self._eig

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """M v by ``_apply``, or M applied to each column of a (d, m) block in
        order."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.dim:
            raise ValueError(
                f"M is {self.dim} x {self.dim}; cannot apply it to shape {v.shape}"
            )
        if v.ndim == 1:
            return self._apply(v)[0]
        out = np.empty(v.shape)
        for j in range(v.shape[1]):
            out[:, j] = self._apply(v[:, j])[0]
        return out

    def _norm(self) -> float:
        """The operator norm, by Rayleigh-Ritz on the revealed span
        (``_revealed_span_extremes``)."""
        return float(np.max(np.abs(_revealed_span_extremes(self))))


class LazySpikedInstance(_RevealedOperator):
    """A planted-spike matrix M = lam * theta theta^T + W / sqrt(d) whose GOE
    noise W is drawn only along the directions M is applied to.

    By the orthogonal invariance of the GOE, W along a unit direction b
    orthogonal to the directions q_j revealed so far is what they reveal
    plus fresh noise:

        W b = sum_j <W q_j, b> q_j + xi b + P g,

    since <q_j, W b> = <W q_j, b> for symmetric W, with xi ~ N(0, 2) and
    g ~ N(0, I_d) fresh draws and P the projection off span(q_j, b).  With
    b taken as the next direction q_k and h_j = <W q_j, b> for j < k,
    h_k = xi, that is

        W b = g + sum_j (h_j - <q_j, g>) q_j,

    which ``_reveal`` forms in three passes over the revealed rows.  The
    instance keeps the q_j as the orthonormal rows of Q and the W q_j as the
    rows of U (``_RevealedOperator``).  Applying M to v = Q^T c + |r| b,
    with r the residual of v against Q and c its coefficients
    (``_orthogonalize``), reveals W b, appends b to Q and W b to U, and
    returns

        lam theta <theta, v> + (U^T c + |r| W b) / sqrt(d).

    A v whose residual is at most DEGENERATE_TOL |v| lies in the revealed
    span and draws nothing, so applying M again to a direction already
    revealed, or reading a session's projected responses, adds no row.
    Every answer is therefore one matrix's, and that matrix has the law of
    ``make_spiked``'s.

    M is known on span(Q) without a reveal: M Q^T s = lam theta <Q theta, s>
    + U^T s / sqrt(d) (``_image``).  So each reveal also writes the new row
    and column of the compression H = Q M Q^T, lam <q_j, theta> <b, theta> +
    <q_j, W b> / sqrt(d), from the coefficients <q_j, W b> it draws W b from,
    and keeps Q theta.

    After k reveals the instance holds theta, Q and U, (2k + 1) d floats, H,
    k^2 floats, and no d x d array.  xi and g are drawn from the instance's
    generator in the order of the reveals.  ``spectral_norm`` solves on
    span(Q) from H (``_RevealedSpan``); a solve that expands the span
    expands the instance's reduced form (``_reduce``), whose basis E takes
    at most 2k + 1 rows of length d, and there a reveal draws O(k) numbers,
    not d.
    """

    _NAME = "a lazy instance"
    _ROW_VALUES = ("_qtheta",)
    #: The basis E of the reduced coordinates, once made (``_reduce``).
    _E: Optional[np.ndarray] = None

    def __init__(self, theta: np.ndarray, lam: float, seed: Seed = None):
        theta = _frozen(theta)
        _check_spike(theta, lam)
        super().__init__(theta.shape[0])
        self.theta = theta
        self.lam = float(lam)
        self._rng = as_rng(seed)
        self._qtheta = np.empty(0)

    def _reveal(self, b: np.ndarray) -> np.ndarray:
        """Draw W b for a unit b orthogonal to the rows of Q, append b to Q,
        W b to U and <b, theta> to Q theta, write b's row and column of H,
        and return W b.

        With b as Q's row k, W b = g + (h - t) Q for h_j = <W q_j, b> (the
        fresh xi for j = k) and t = Q g: three passes over the (k, d) rows,
        U b, Q g and (h - t) Q.  g's residual against Q is never formed or
        normalized, only W b, whose entries carry an absolute error of order
        eps max(|g|, |h|) however much of g the projection cancels, so one
        pass is enough even when k nears d.

        In reduced coordinates (``_reduce``) the same passes run over the
        ``_width`` axes in use, which hold Q, U and theta, and g is drawn
        there.  Its part on the d - _width axes not in use, which the
        projection does not touch, is drawn as its length
        sqrt(chi^2_{d - _width}) along the next of them, which the reveal
        takes into use.  At _width = d, as before a reduction, g is d
        normals.  An instance that has been reduced reveals nothing more
        itself (ValueError)."""
        if self._E is not None:
            raise ValueError(
                "this lazy instance's norm solve drew the rest of M in reduced "
                "coordinates: M applies only to vectors in the span of the "
                "directions it revealed before; draw a fresh instance with "
                "make_lazy_spiked"
            )
        k, w, d = self._size, self._width, self.dim
        if k == len(self._Q):
            self._reserve(2 * k + 1)
        Q = self._Q[: k + 1, :w]
        Q[k] = b
        g = self._rng.standard_normal(w)
        h = np.empty(k + 1)  # <q_j, W b>, b's included
        np.matmul(self._U[:k, :w], b, out=h[:k])
        h[k] = math.sqrt(2.0) * self._rng.standard_normal()
        wb = self._U[k, :w]
        t = Q @ g
        np.subtract(h, t, out=t)
        np.matmul(t, Q, out=wb)
        wb += g
        if w < d:
            self._U[k, w] = math.sqrt(self._rng.chisquare(d - w))
            self._width = w + 1
            wb = self._U[k, : w + 1]
        n = len(self.theta)
        self._qtheta[k] = tb = float(b[:n] @ self.theta)
        row = self._H[k, : k + 1]
        np.multiply(self._qtheta[: k + 1], self.lam * tb, out=row)
        row += h / math.sqrt(self.dim)
        self._H[: k + 1, k] = row
        self._size = k + 1
        self._eig = None
        return wb

    def _image(self, s: np.ndarray) -> np.ndarray:
        """M Q^T s, for coefficients s on the first len(s) rows of Q, with no
        reveal."""
        k = len(s)
        w = s @ self._U[:k, : self._width]
        w /= math.sqrt(self.dim)
        n = len(self.theta)
        w[:n] += (self.lam * float(self._qtheta[:k] @ s)) * self.theta
        return w

    def _apply(self, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(M v, c), with c v's coefficients on the rows of Q after the
        apply: v = Q^T c to working precision, unless v lay within
        DEGENERATE_TOL of the span, whose residual c leaves out."""
        k, w = self._size, self._width
        r, c = _orthogonalize(self._Q[:k, :w], v)
        wv = c @ self._U[:k, :w]  # W (v - r)
        rnorm = math.sqrt(r.dot(r))
        if rnorm > DEGENERATE_TOL * math.sqrt(v.dot(v)):
            wb = self._reveal(r / rnorm)
            if len(wb) > w:  # the reveal took an axis into use
                wv = np.append(wv, 0.0)
            wv += rnorm * wb
            c = np.append(c, rnorm)
        wv /= math.sqrt(self.dim)
        n = len(self.theta)
        wv[:n] += self.lam * float(self.theta @ v[:n]) * self.theta
        return wv, c

    def _rayleigh(self, v: np.ndarray) -> float:
        """v^T M v, with M applied to v by ``_apply``, which reveals v's
        direction off the revealed span.  ``_apply`` answers a v within
        DEGENERATE_TOL of the span as if it lay in it, and so leaves out
        v^T W r / sqrt(d) for v's residual r, a term of first order in |r|.
        Here it is added back from the revealed rows, which fix the part of
        W r on the span (<q_j, W r> = <W q_j, r>), so only r^T W r / sqrt(d)
        is left out.

        A reduced instance (``_reduce``) reads v^T M v of a v within
        DEGENERATE_TOL of span(E) from its reduced form, at v's coordinates
        E v, and leaves v's part off span(E) out; another v raises
        ValueError."""
        if self._E is not None:
            c = self._E @ v
            r = v - c @ self._E
            if r.dot(r) > DEGENERATE_TOL**2 * v.dot(v):
                raise ValueError(
                    "this lazy instance's norm solve drew the rest of M in reduced "
                    "coordinates on the span of its revealed directions, their "
                    "images and theta; v^T M v is known only for v in that span"
                )
            red = self._coords
            return red._rayleigh(np.pad(c, (0, red._width - len(c))))
        wv = self._apply(v)[0]
        k, n = self._size, len(v)
        Q = self._Q[:k, :n]
        r = _orthogonalize(Q, v)[0]
        return float(v @ wv[:n]) + float((Q @ v) @ (self._U[:k, :n] @ r)) / math.sqrt(self.dim)

    def _reduce(self) -> "LazySpikedInstance":
        """The instance in reduced coordinates, made at the first call, which
        a norm solve expands in its place.

        Let E be an orthonormal basis of span(Q, U, theta): Q's k rows, then
        the directions of theta and of U's rows off the rows before them,
        each dropped where its residual is within DEGENERATE_TOL of its
        norm.  E has at most 2k + 1 rows, and k + 2 after a power or Lanczos
        session, whose images but the last lie in span(Q, theta).  The
        noise not yet revealed, W on the complement of span(Q), is a GOE
        there, invariant under its rotations; so in the coordinates of an
        orthonormal basis [E; Z] of R^d, for any completion Z, this is an
        instance of the same law with Q = [I_k 0], U's rows U E^T and theta
        E theta, and the same H.  The reduced instance has those rows on its
        first len(E) axes, and keeps at least one axis beyond Q's in use (an
        axis of Z, which holds nothing yet), so that a Krylov space closed
        in its span continues on an axis in use (``_RevealedSpan.expand``).
        Its reveals draw O(_width) numbers and make O(k _width) flops
        (``_reveal``).

        This instance keeps its own rows, so a session's reads and applies
        in span(Q) are unchanged; it reads v^T M v in span(E) from the
        reduced instance (``_rayleigh``), and refuses a reveal."""
        if self._coords is None:
            k = self._size
            E = np.empty((2 * k + 1, self.dim))
            E[:k] = self._Q[:k]
            m = k
            for x in (self.theta, *self._U[:k]):
                r = _orthogonalize(E[:m], x)[0]
                rnorm = math.sqrt(r.dot(r))
                if rnorm > DEGENERATE_TOL * math.sqrt(x.dot(x)):
                    np.divide(r, rnorm, out=E[m])
                    m += 1
            self._E = E[:m]
            self._coords = _ReducedInstance(self, self._E)
        return self._coords


class _ReducedInstance(LazySpikedInstance):
    """A lazy instance in reduced coordinates (``LazySpikedInstance._reduce``),
    which a norm solve expands as it is."""

    def __init__(self, inst: LazySpikedInstance, E: np.ndarray):
        k, m, d = inst._size, len(E), inst.dim
        _RevealedOperator.__init__(self, d)
        self.theta = _frozen(E @ inst.theta)
        self.lam, self._rng = inst.lam, inst._rng
        self._width, self._size = max(m, min(d, k + 1)), k
        self._Q = np.zeros((k, self._width))
        np.fill_diagonal(self._Q, 1.0)
        self._U = np.zeros((k, self._width))
        np.matmul(inst._U[:k], E.T, out=self._U[:, :m])
        self._H = inst._H[:k, :k].copy()
        self._qtheta = inst._qtheta[:k].copy()

    def _reduce(self) -> "_ReducedInstance":
        return self


class _DenseOperator(_RevealedOperator):
    """A d x d symmetric array as a ``_RevealedOperator``, not copied: U's
    rows are the images M b, applied as ``matrix @ b``, so a counting view
    of the array counts them.  ``_apply`` applies M to v once; the image of
    v's direction r / |r| is carried as (M v - c U) / |r| for v's
    coefficients c, or applied where r keeps less than 1/sqrt(2) of v and
    carrying would lose digits.  A residual below DEGENERATE_TOL, or a full
    Q, adds no direction.  b's row of H is (U b + Q M b) / 2.
    """

    def __init__(self, matrix: np.ndarray):
        super().__init__(matrix.shape[0])
        self._matrix = matrix

    def _reveal(self, b: np.ndarray, image: Optional[np.ndarray] = None) -> None:
        """Append the unit b, orthogonal to Q, to Q, its image (M b applied,
        unless carried in as ``image``) to U, and its row and column to H."""
        k = self._size
        if k == len(self._Q):
            self._reserve(2 * k + 1)
        Q, U = self._Q[: k + 1], self._U[: k + 1]
        Q[k] = b
        U[k] = self._matrix @ Q[k] if image is None else image
        h = (U @ Q[k] + Q @ U[k]) / 2.0
        self._H[k, : k + 1] = h
        self._H[: k + 1, k] = h
        self._size = k + 1
        self._eig = None

    def _apply(self, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        k = self._size
        w = self._matrix @ v
        r, c = _orthogonalize(self._Q[:k], v)
        rnorm = math.sqrt(r.dot(r))
        if rnorm >= DEGENERATE_TOL and k < len(self._Q):
            # M r = M v - c U, carried while r keeps its digits
            carried = (w - c @ self._U[:k]) / rnorm if 2.0 * rnorm**2 >= 1.0 else None
            self._reveal(r / rnorm, carried)
            c = np.append(c, rnorm)
        return w, c

    def _image(self, s: np.ndarray) -> np.ndarray:
        return s @ self._U[: len(s)]

    def _rayleigh(self, v: np.ndarray) -> float:
        return float(v @ (self._matrix @ v))

    def _norm(self) -> float:
        """The dense eigensolver's up to DENSE_NORM_MAX_DIM, else the
        revealed-span solve's."""
        if self.dim > DENSE_NORM_MAX_DIM:
            return super()._norm()
        vals = np.linalg.eigvalsh(self._matrix)
        return float(max(abs(vals[0]), abs(vals[-1])))


Operand = Union[SpikedInstance, LazySpikedInstance, np.ndarray]


def _operator(
    M: Operand, bare: Callable[[np.ndarray], np.ndarray] = lambda M: M
) -> _RevealedOperator:
    """M as an operator: a lazy instance (any ``_RevealedOperator``) as it
    is; an instance's matrix, checked when the instance was built, or a bare
    array after ``bare`` (which may check it), in a fresh ``_DenseOperator``."""
    if isinstance(M, _RevealedOperator):
        return M
    if isinstance(M, SpikedInstance):
        return _DenseOperator(M.matrix)
    return _DenseOperator(bare(M))


def make_lazy_spiked(d: int, lam: float, seed: Seed = None) -> LazySpikedInstance:
    """Sample theta uniform on the sphere and return the matrix-free
    instance that draws its GOE noise from the same generator as it is
    applied (``LazySpikedInstance``); the instances of ``make_spiked`` have
    the same law."""
    _check_lam(lam)  # before the O(d) draw of theta
    rng = as_rng(seed)
    return LazySpikedInstance(sample_uniform_sphere(d, rng), lam, rng)


def _next_check(k: int, now: Tuple[float, float], goals: Tuple[float, float],
                last: Optional[Tuple[int, Tuple[float, float]]]) -> int:
    """Step of the next convergence check of a norm solve, made at basis
    size k with residuals ``now`` against their ``goals``.

    Each residual still above its goal is extrapolated at its geometric rate
    since the previous check ``last`` = (step, residuals) to the step where
    it meets the goal; the check goes to the latest such step, but at most
    k steps ahead, and k steps ahead when a rate is not known or not falling.
    """
    if last is None:
        return 2 * k
    k0, before = last
    steps = 1
    for r, r0, goal in zip(now, before, goals):
        if r <= goal:
            continue
        if goal > 0 and r < r0:
            steps = max(steps, math.ceil(math.log(goal / r) * (k - k0) / math.log(r / r0)))
        else:
            steps = k
    return k + min(steps, k)


def _top_index(vals: np.ndarray) -> int:
    """Index of the value of largest magnitude among ascending ``vals``."""
    return len(vals) - 1 if abs(vals[-1]) >= abs(vals[0]) else 0


class _Checks:
    """The convergence checks of a norm solve (``_revealed_span_extremes``):
    the stopping rule, and the basis size ``at`` of the next check.

    A check reads the Ritz values ``vals`` of the solve's compression
    (ascending, at least two) and the residual norms ``residual(i)`` of
    their Ritz vectors.  With theta the Ritz value of largest magnitude, r
    its residual, gap the distance from theta to the nearest other Ritz
    value, theta' the Ritz value at the other end and r' its residual, the
    check passes once both
      - r^2 / gap <= tol |M|, the quadratic bound on theta's error, with |M|
        the largest Ritz magnitude and tol the float epsilon or ``rtol``, and
      - |theta'| + r' <= |theta|, so theta' cannot overtake theta.
    A failed check sets the next one where the residuals' rates predict the
    two bounds to hold (``_next_check``), or with ``rtol`` 8 steps on:
    ``_next_check``'s jumps of up to k overshoot where a residual stalls
    before it falls, as on null instances.  With ``top`` = 2 the largest
    Ritz value must also have r^2 / gap <= tol |M| with its own r and gap,
    and the rule above is applied to the others.
    """

    def __init__(self, first: int, rtol: Optional[float] = None, top: int = 1):
        self.at = first
        self._last: Optional[Tuple[int, Tuple[float, float]]] = None
        self.rtol, self.top = rtol, top

    def ends(self, k: int) -> List[int]:
        """Indices of the ``top`` largest of k ascending values, then the smallest."""
        return [max(k - 1 - i, 0) for i in range(self.top)] + [0]

    def passed(self, k: int, vals: np.ndarray, residual: Callable[[int], float]) -> bool:
        """Whether the check at basis size k passes."""
        tol = np.finfo(float).eps if self.rtol is None else self.rtol
        scale = max(abs(vals[0]), abs(vals[-1]))

        def gap(i: int) -> float:  # from vals[i] to the nearest other Ritz value
            return float(np.min(np.abs(np.delete(vals, i) - vals[i])))

        rest = len(vals) - self.top  # the largest value the rule above reads
        if any(residual(i) ** 2 > tol * scale * gap(i) for i in range(rest + 1, len(vals))):
            self.at = k + 8
            return False
        top = _top_index(vals[: rest + 1])
        end = rest - top
        theta, other, g = abs(vals[top]), abs(vals[end]), gap(top)
        now = (residual(top), residual(end))
        if now[0] ** 2 <= tol * scale * g and other + now[1] <= theta:
            return True
        if self.rtol is None:
            goals = (math.sqrt(tol * scale * g), theta - other)
            self.at, self._last = _next_check(k, now, goals, self._last), (k, now)
        else:
            self.at = k + 8
        return False


class _RevealedSpan:
    """Rayleigh-Ritz on the directions an operator (``_RevealedOperator``)
    has revealed, and a Krylov expansion of them that reveals at most one
    direction per step.

    M is known on span(Q) without a reveal (``_image``), so the operator's
    compression H = Q M Q^T and the residual of every Ritz vector Q^T s are
    known too.  Each direction the expansion reveals adds its row to H,
    written by the operator's reveal; the operator's Q and H are the only
    basis and compression, read through it since the solve regrows them.
    On an operator that has revealed nothing, the span starts from
    1/sqrt(d), revealed.  The first ``restart`` swaps the operator for the
    one it expands (``_reduce``: a lazy instance's reduced coordinates, in
    which Q's rows and H are the same), reserves NORM_SOLVE_ROWS rows of it
    and makes the array of Lanczos coefficients, so a span that passes the
    first check allocates and copies nothing.  A span made on an operator
    that a solve has reduced before continues on its reduced form.

    ``expand`` makes one step of Lanczos on K(M, x) from the start vector x
    of ``restart``, with the Lanczos vectors u_j kept as coefficients on the
    rows of Q.  It reveals the part of M u_j off span(Q), orthogonalized
    once, and takes u_{j+1} from the coefficients of M u_j on the grown span,
    orthogonalized against u_1 ... u_j.  A u_j whose image lies in the span
    (residual at most DEGENERATE_TOL |M u_j|) reveals nothing; when K(M, x)
    closes in the span, the expansion continues from a fresh direction, a
    fixed-seed Gaussian vector on the operator's axes in use orthogonalized
    against Q, as ARPACK does.  Short of k = d some axis in use lies off Q:
    every axis of a dense operator or of an instance not reduced, and in
    reduced coordinates the axis each reveal takes into use, or the spare
    one the reduction keeps.
    """

    def __init__(self, inst: _RevealedOperator):
        inst = inst._coords or inst
        self._inst = inst
        if inst._size == 0:
            inst._reveal(np.full(inst.dim, 1.0 / math.sqrt(inst.dim)))
        # row j: u_{j+1} on the rows of Q; made at the first restart
        self._lanczos: Optional[np.ndarray] = None
        self._j = 0  # Lanczos vectors made since the last restart

    @property
    def k(self) -> int:
        return self._inst._size

    @property
    def H(self) -> np.ndarray:
        return self._inst._H[: self.k, : self.k]

    def eigh(self) -> Tuple[np.ndarray, np.ndarray]:
        """The operator's eigendecomposition of H (``_eigh``)."""
        return self._inst._eigh()

    def _rows(self) -> np.ndarray:
        """Q's rows, on the operator's axes in use."""
        return self._inst._Q[: self.k, : self._inst._width]

    def _reveal(self, b: np.ndarray) -> None:
        """Reveal the unit b, orthogonal to Q; the instance adds its row to H."""
        inst, k = self._inst, self.k
        inst._reveal(b)
        if k == len(self._lanczos):
            cap = len(inst._Q)
            grown = np.zeros((cap, cap))
            grown[:k, :k] = self._lanczos[:k, :k]
            self._lanczos = grown

    def residual(self, s: np.ndarray, value: float) -> float:
        """|M x - value x| for x = Q^T s."""
        w = self._inst._image(s)
        w -= value * (s @ self._rows()[: len(s)])
        return math.sqrt(float(w @ w))

    def restart(self, s: np.ndarray) -> None:
        """Start the Lanczos expansion from the unit vector Q^T s."""
        if self._lanczos is None:  # the first: reduce and reserve once for the solve
            inst = self._inst = self._inst._reduce()
            inst._reserve(inst._size + NORM_SOLVE_ROWS)
            cap = len(inst._Q)
            self._lanczos = np.zeros((cap, cap))
        self._lanczos[0, : len(s)] = s
        self._j = 1

    def expand(self) -> None:
        """One Lanczos step; on a complete span (k = d) it does nothing."""
        k, j, d = self.k, self._j, self._inst.dim
        Q = self._rows()
        u = self._lanczos[j - 1, :k]
        c = self.H @ u  # M u's coefficients on the span
        w = self._inst._image(u)
        # M u off the span: its known part on the span subtracted, then the
        # rounding left on the span by the kernel
        r = _orthogonalize(Q, w - c @ Q)[0]
        rho = math.sqrt(float(r @ r))
        if rho > DEGENERATE_TOL * math.sqrt(float(w @ w)):
            self._reveal(r / rho)
            c = np.append(c, rho)
        size = math.sqrt(float(c @ c))
        c = _orthogonalize(self._lanczos[:j, : len(c)], c)[0]
        beta = math.sqrt(float(c @ c))
        if beta <= DEGENERATE_TOL * size:  # <=: M u = 0 closes too
            if self.k == d:
                return
            # K(M, x) closed in the span: continue from a fresh direction
            Q = self._rows()
            fresh = np.random.default_rng(self.k).standard_normal(Q.shape[1])
            r = _orthogonalize(Q, fresh)[0]
            self._reveal(r / math.sqrt(float(r @ r)))
            c = np.zeros(self.k)
            c[-1] = beta = 1.0
        self._lanczos[j, : len(c)] = c / beta
        self._j = j + 1


def _revealed_span_extremes(
    inst: _RevealedOperator, rtol: Optional[float] = None, top: int = 1
) -> np.ndarray:
    """[lam_1, ..., lam_top, lam_d] of an operator's matrix, by
    Rayleigh-Ritz on the span of the directions it has revealed, at the
    first check (``_Checks``) that passes: at top = 1 the norm's stopping
    rule, which certifies the largest magnitude, and at top = 2 also lam_1
    and rest = max(lam_2, -lam_d), to eps or to ``rtol`` |M|.

    The first check is made on the span as it stands, so a span that
    already meets it, such as a converged Lanczos session's, is solved with
    no reveal.  After each check that fails, the expansion
    (``_RevealedSpan.expand``) restarts from the span's top Ritz vector, as
    thick-restart Lanczos does (Wu and Simon, SIAM J. Matrix Anal. Appl.
    2000), or with ``rtol`` from the last revealed direction: once lam_1
    has converged, M adds almost nothing new to its Ritz vector, and
    expanding from it stalled lam_2 and lam_d until k = d.  A power or
    Lanczos session's span is a Krylov space and both restarts keep it one,
    so there the solve is Lanczos continued from the session's steps; on an
    operator that has revealed nothing it is Lanczos from 1/sqrt(d).  On a
    lazy instance the expansion runs in its reduced coordinates
    (``LazySpikedInstance._reduce``).  Each check reads the operator's
    eigendecomposition of H (``_eigh``), so the first shares the session's
    Ritz solve.  At k = d the values are those of H.
    """
    span = _RevealedSpan(inst)
    d = inst.dim
    checks = _Checks(span.k, rtol, top)
    while span.k < d:
        if span.k >= checks.at:
            vals, vecs = span.eigh()
            if span.k > 1 and checks.passed(  # one Ritz value has no gap to test
                span.k, vals, lambda i: span.residual(vecs[:, i], vals[i])
            ):
                return vals[checks.ends(span.k)]
            span.restart(vecs[:, _top_index(vals)] if rtol is None
                         else np.eye(1, span.k, span.k - 1)[0])
        span.expand()
    return np.linalg.eigvalsh(span.H)[checks.ends(d)]


def spectral_norm(M: Operand) -> float:
    """Operator norm of a symmetric matrix, or of an instance's matrix.

    An instance's matrix is read as it is, since the instance checked it
    when built; a bare matrix is checked in full first.  Up
    to d = DENSE_NORM_MAX_DIM (256) a dense matrix takes the dense
    eigensolver; above it, and on a lazy instance at every d,
    ``_revealed_span_extremes`` solves for the largest-magnitude eigenvalue
    by Rayleigh-Ritz on the revealed directions (a dense matrix's fresh
    operator from 1/sqrt(d); a lazy instance's from a session's queries),
    grown along a Krylov space.  So a lazy norm is that of the matrix its
    answers belong to; the directions it reveals are drawn from its
    generator, in the instance's reduced coordinates
    (``LazySpikedInstance._reduce``), at O(k) draws and O(k^2) flops each
    for a span of k directions.  After a solve that expands the span, the
    instance applies M only in the span it revealed before the solve, and
    reads v^T M v only in the span of those directions, their images and
    theta (ValueError otherwise).
    """
    return _operator(M, _require_symmetric)._norm()


def _is_member(vals: np.ndarray, gamma: float) -> bool:
    """Whether eigenvalues sorted descending lie in the bounded-eigenratio
    class: lam_1 > 0 the largest in magnitude, and |lam_j| <= gamma lam_1
    for every j >= 2."""
    lam1 = vals[0]
    if lam1 <= 0 or abs(vals[-1]) > lam1:
        return False
    # a few ulps of slack so gamma = eigenratio(M) itself always passes
    return not np.any(np.abs(vals[1:]) > gamma * lam1 * (1.0 + 4 * np.finfo(float).eps))
