"""Deformed-Wigner instances and their spectral ground truth.

The hard inputs studied here are rank-one deformations of a Gaussian
orthogonal ensemble matrix,

    M = lam * theta theta^T + W / sqrt(d),

with theta uniform on the unit sphere and W symmetric Gaussian noise
(off-diagonal variance 1, diagonal variance 2), drawn from its d(d+1)/2
free entries: the upper triangle, diagonal included, in row-major order,
mirrored below.  This module samples such
instances, exposes a full-eigendecomposition oracle for ground truth, and
checks membership in the bounded-eigenratio class (top eigenvalue positive
and dominant, every other eigenvalue at most gamma times it in magnitude).

An instance stores theta and M, one d x d array; W is not kept.
``make_spiked`` builds M in the buffer of the GOE draw and skips the checks
that hold by construction; a ``SpikedInstance`` built by hand, which takes
W as an init-only argument, is checked in full.

``make_lazy_spiked`` draws an instance of the same law that never forms M:
a ``LazySpikedInstance`` draws W only along the directions it is applied
to, by the GOE's orthogonal invariance, and after k of them holds
(2k + 1) d floats and the k x k compression of M to their span.  It
answers matrix-vector products, and so serves a query session, and
``spectral_norm`` solves its operator norm by Rayleigh-Ritz on the
directions it has revealed, revealing more only where their span falls
short; it has no dense spectrum.
"""

from __future__ import annotations

import math
import os
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple, TypeVar, Union

import numpy as np

Seed = Union[None, int, np.integer, np.random.Generator, np.random.SeedSequence]

#: Largest dimension the dense eigendecomposition oracle accepts by default.
SPECTRUM_DIM_CAP = 8192

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
#: it the Lanczos solve of ``_lanczos_norm`` is as fast or faster, also on
#: null instances, whose extreme eigenvalues nearly tie.
DENSE_NORM_MAX_DIM = 256

#: Rows a lazy instance reserves at once, beyond those it has revealed, for
#: the directions its norm solve reveals (``_RevealedSpan``).  The solve
#: reserves them at its first restart, so a span that passes its first
#: check, such as a converged Lanczos session's, grows nothing.  At lam = 3
#: the solve revealed at most 24 over 20 seeds each of power and random at
#: d = 2000, T = 6, 18 after power at d = 10^6, and none after Lanczos at
#: d = 1000, T = 64; on null instances it reveals more, and the instance
#: grows past these rows by doubling.
NORM_SOLVE_ROWS = 32

#: Residual norm, relative to the vector's, below which a vector adds no new
#: basis direction: a degenerate oracle query, or a Krylov breakdown of
#: Lanczos (``algorithms``) and of ``_lanczos_norm``.
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
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
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
def _packed_layout(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """(index, diagonal) of the d(d+1)/2 packed free entries of a d x d GOE
    draw: index[r, c] is the position of entry (min(r, c), max(r, c)) of the
    upper triangle in row-major order, and diagonal the positions of the
    diagonal entries.  Both are read-only.  They are cached because the GOE
    checks fill a slab at a time: recomputing them per slab took quick
    gauss-quadratic from 0.30 to 0.38 s and conditional-law from 0.21 to
    0.26 s (median of 9, two trial threads, one BLAS thread)."""
    r = np.arange(d)
    lo, hi = np.minimum.outer(r, r), np.maximum.outer(r, r)
    index = lo * d - lo * (lo - 1) // 2 + hi - lo
    diagonal = r * d - r * (r - 1) // 2
    index.setflags(write=False)
    diagonal.setflags(write=False)
    return index, diagonal


def _fill_goe(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill x, a stack of m d x d matrices, with m successive sample_goe
    draws from rng, and return it.

    When one block of TILE rows holds a whole matrix, the packed draw of all
    m matrices is made at once, its diagonal entries scaled by sqrt(2), and
    every entry of x gathered from it by one ``np.take``, which runs without
    the GIL, so trial threads filling their own draws overlap.  Above TILE
    the draw is made a block of TILE rows at a time, scattered into the
    block's upper triangle through a (TILE, d) mask and mirrored tile by
    tile.  Successive generator draws concatenate, so the result does not
    depend on TILE.
    """
    m, d = x.shape[0], x.shape[-1]
    root2 = np.sqrt(2.0)
    if d <= TILE:
        index, diagonal = _packed_layout(d)
        z = rng.standard_normal((m, d * (d + 1) // 2))
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

    Only theta and M are stored; noise is an init-only argument and is not
    kept.  An instance built by hand is checked in full: theta a finite 1-D
    unit vector, lam finite and >= 0, noise and matrix finite, exactly
    symmetric and d x d, and matrix equal to lam theta theta^T +
    noise / sqrt(d) (tol 1e-10).  ``make_spiked`` builds its instances
    through a trusted path that only freezes theta and M, since there these
    facts hold by construction.
    """

    theta: np.ndarray
    lam: float
    noise: InitVar[np.ndarray]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self, noise: np.ndarray):
        theta = _frozen(self.theta)
        noise = _require_symmetric(noise, "noise")
        matrix = _frozen(_require_symmetric(self.matrix, "matrix"))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "matrix", matrix)
        _check_spike(theta, self.lam)
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

    @classmethod
    def _trusted(cls, theta: np.ndarray, lam: float, matrix: np.ndarray) -> "SpikedInstance":
        """An instance from parts that satisfy every invariant by
        construction: theta and matrix are frozen, not checked."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "theta", _frozen(theta))
        object.__setattr__(inst, "lam", lam)
        object.__setattr__(inst, "matrix", _frozen(matrix))
        return inst

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


def make_spiked(d: int, lam: float, seed: Seed = None) -> SpikedInstance:
    """Sample theta uniform on the sphere, W from the GOE, and assemble M.

    M is built in the buffer of the GOE draw: a block of rows at a time, W
    is divided by sqrt(d) in place and lam theta theta^T added, so M is the
    only d x d array.  Both terms are exactly symmetric in floating point,
    and so is their sum; the entries are finite, and theta is a unit
    vector.  The instance is therefore returned without the O(d^2) checks a
    hand-built ``SpikedInstance`` runs.
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
    return SpikedInstance._trusted(theta, float(lam), matrix)


class LazySpikedInstance:
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
    rows of U.  Applying M to v = Q^T c + |r| b, with r the residual of v
    against Q and c its coefficients (``_orthogonalize``), reveals W b,
    appends b to Q and W b to U, and returns

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
    and keeps Q theta.  The eigendecomposition of H is made once per size of
    H (``_eigh``): a session's Ritz pair and the first check of its norm
    solve read the same one, and a reveal, which grows H, drops it.

    The instance offers what a ``QuerySession`` reads of a matrix: ``shape``
    and ``@`` on a vector or a (d, m) block, whose columns are applied in
    order.  After k reveals it holds theta, Q and U, (2k + 1) d floats, H,
    k^2 floats, and no d x d array.  A session opened on it before its first
    reveal preallocates min(budget, d) rows and takes Q, U and H as its
    basis, images and compression, read through the instance: the
    decomposition above is the session's Gram-Schmidt step.
    ``spectral_norm`` solves on span(Q) from H (``_RevealedSpan``); a solve
    that expands the span reserves NORM_SOLVE_ROWS more rows at once for the
    directions it reveals, so the arrays are regrown then, and a regrowth
    past physical memory is refused (``MemoryLimitError``).  xi and g are
    drawn from the instance's generator in the order of the reveals.  The
    instance changes as it is applied, so one thread uses it at a time.
    """

    def __init__(self, theta: np.ndarray, lam: float, seed: Seed = None):
        theta = _frozen(theta)
        _check_spike(theta, lam)
        self.theta = theta
        self.lam = float(lam)
        self._rng = as_rng(seed)
        self._Q = np.empty((0, theta.shape[0]))
        self._U = np.empty_like(self._Q)
        self._H = np.empty((0, 0))
        self._qtheta = np.empty(0)
        self._size = 0
        self._eig: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.dim, self.dim

    def _reserve(self, rows: int) -> None:
        """Make room for ``rows`` revealed directions (at most d) in Q, U, H
        and Q theta.  Only the rows in use are copied, so the pages of the
        rest are not touched before a reveal writes them.  A growth whose
        arrays are larger than physical memory is refused with
        MemoryLimitError (``_require_fits``), before anything is allocated."""
        rows = min(rows, self.dim)
        if rows > len(self._Q):
            _require_fits(
                f"a lazy instance of dimension {self.dim} grown to {rows} "
                f"revealed directions", self.dim, 0, 2 * rows, rows * rows + rows,
            )
            k = self._size
            for name, shape, in_use in (
                ("_Q", (rows, self.dim), np.s_[:k]),
                ("_U", (rows, self.dim), np.s_[:k]),
                ("_H", (rows, rows), np.s_[:k, :k]),
                ("_qtheta", (rows,), np.s_[:k]),
            ):
                grown = np.empty(shape)
                grown[in_use] = getattr(self, name)[in_use]
                setattr(self, name, grown)

    def _reveal(self, b: np.ndarray) -> np.ndarray:
        """Draw W b for a unit b orthogonal to the rows of Q, append b to Q,
        W b to U and <b, theta> to Q theta, write b's row and column of H,
        and return W b.

        With b as Q's row k, W b = g + (h - t) Q for h_j = <W q_j, b> (the
        fresh xi for j = k) and t = Q g: three passes over the (k, d) rows,
        U b, Q g and (h - t) Q.  g's residual against Q is never formed or
        normalized, only W b, whose entries carry an absolute error of order
        eps max(|g|, |h|) however much of g the projection cancels, so one
        pass is enough even when k nears d."""
        k = self._size
        if k == len(self._Q):
            self._reserve(2 * k + 1)
        Q = self._Q[: k + 1]
        Q[k] = b
        g = self._rng.standard_normal(self.dim)
        h = np.empty(k + 1)  # <q_j, W b>, b's included
        np.matmul(self._U[:k], b, out=h[:k])
        h[k] = math.sqrt(2.0) * self._rng.standard_normal()
        wb = self._U[k]
        t = Q @ g
        np.subtract(h, t, out=t)
        np.matmul(t, Q, out=wb)
        wb += g
        self._qtheta[k] = tb = float(b @ self.theta)
        row = self._H[k, : k + 1]
        np.multiply(self._qtheta[: k + 1], self.lam * tb, out=row)
        row += h / math.sqrt(self.dim)
        self._H[: k + 1, k] = row
        self._size = k + 1
        self._eig = None
        return wb

    def _eigh(self) -> Tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh`` of the compression H on the revealed rows, made
        once per size of H and shared by its readers (read-only)."""
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self._H[: self._size, : self._size])
            vals.setflags(write=False)
            vecs.setflags(write=False)
            self._eig = vals, vecs
        return self._eig

    def _image(self, s: np.ndarray) -> np.ndarray:
        """M Q^T s, for coefficients s on the first len(s) rows of Q, with no
        reveal."""
        k = len(s)
        w = s @ self._U[:k]
        w /= math.sqrt(self.dim)
        w += (self.lam * float(self._qtheta[:k] @ s)) * self.theta
        return w

    def _apply(self, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(M v, c), with c v's coefficients on the rows of Q after the
        apply: v = Q^T c to working precision, unless v lay within
        DEGENERATE_TOL of the span, whose residual c leaves out."""
        k = self._size
        r, c = _orthogonalize(self._Q[:k], v)
        wv = c @ self._U[:k]  # W (v - r)
        rnorm = math.sqrt(r.dot(r))
        if rnorm > DEGENERATE_TOL * math.sqrt(v.dot(v)):
            wv += rnorm * self._reveal(r / rnorm)
            c = np.append(c, rnorm)
        wv /= math.sqrt(self.dim)
        wv += self.lam * float(self.theta @ v) * self.theta
        return wv, c

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
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

    def _rayleigh(self, v: np.ndarray) -> float:
        """v^T M v, with M applied to v by ``@``, which reveals v's direction
        off the revealed span.  ``@`` answers a v within DEGENERATE_TOL of
        the span as if it lay in it, and so leaves out v^T W r / sqrt(d) for
        v's residual r, a term of first order in |r|.  Here it is added back
        from the revealed rows, which fix the part of W r on the span
        (<q_j, W r> = <W q_j, r>), so only r^T W r / sqrt(d) is left out."""
        w = self @ v
        k = self._size
        Q = self._Q[:k]
        r = _orthogonalize(Q, v)[0]
        return float(v @ w) + float((Q @ v) @ (self._U[:k] @ r)) / math.sqrt(self.dim)


def make_lazy_spiked(d: int, lam: float, seed: Seed = None) -> LazySpikedInstance:
    """Sample theta uniform on the sphere and return the matrix-free
    instance that draws its GOE noise from the same generator as it is
    applied (``LazySpikedInstance``); the instances of ``make_spiked`` have
    the same law."""
    _check_lam(lam)  # before the O(d) draw of theta
    rng = as_rng(seed)
    return LazySpikedInstance(sample_uniform_sphere(d, rng), lam, rng)


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


def _tridiagonal(diag: List[float], off: List[float]) -> np.ndarray:
    """The symmetric tridiagonal matrix with the given diagonal and
    off-diagonal (one entry shorter)."""
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


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
    """The convergence checks of a norm solve (``_lanczos_norm``,
    ``_revealed_span_norm``): the stopping rule, and the basis size ``at``
    of the next check.

    A check reads the Ritz values ``vals`` of the solve's compression
    (ascending, at least two) and the residual norms ``residual(i)`` of the
    Ritz vectors at the two ends.  With theta the Ritz value of largest
    magnitude, r its residual, gap the distance from theta to the nearest
    other Ritz value, theta' the Ritz value at the other end and r' its
    residual, the check passes once both
      - r^2 / gap <= eps |theta|, the quadratic bound on theta's error, with
        eps the float epsilon, and
      - |theta'| + r' <= |theta|, so theta' cannot overtake theta.
    A failed check sets the next one where the residuals' rates predict the
    two bounds to hold (``_next_check``).
    """

    def __init__(self, first: int):
        self.at = first
        self._last: Optional[Tuple[int, Tuple[float, float]]] = None

    def passed(
        self, k: int, vals: np.ndarray, residual: Callable[[int], float]
    ) -> Optional[float]:
        """|theta| if the check at basis size k passes, else None."""
        eps = np.finfo(float).eps
        top = _top_index(vals)
        end = len(vals) - 1 - top
        theta, other = abs(vals[top]), abs(vals[end])
        gap = float(np.min(np.abs(np.delete(vals, top) - vals[top])))
        now = (residual(top), residual(end))
        if now[0] ** 2 <= eps * theta * gap and other + now[1] <= theta:
            return float(theta)
        goals = (math.sqrt(eps * theta * gap), theta - other)
        self.at, self._last = _next_check(k, now, goals, self._last), (k, now)
        return None


def _lanczos_norm(apply: Callable[[np.ndarray], np.ndarray], d: int) -> float:
    """Largest eigenvalue magnitude of the symmetric linear map ``apply`` on
    R^d, by Lanczos from the start vector 1/sqrt(d), one ``apply`` per step.

    Every new direction is orthogonalized against the whole basis by
    ``_orthogonalize`` (full reorthogonalization), so the tridiagonal T_k of
    alpha_j = <q_j, A q_j> and beta_j = |A q_j - its projection on the
    basis| is the compression of A to the Krylov basis, and the residual of
    its Ritz pair (theta_i, s_i) is beta_k |s_i[-1]|.  T_k is solved only at
    the checks of ``_Checks``, the first at k = 8, and the solve stops at the
    first that passes.

    When A q_k lies in the basis (a Krylov breakdown, beta_k <= DEGENERATE_TOL
    |A q_k|), the basis spans an invariant subspace; as ARPACK does, the
    solve couples it to nothing (beta_k = 0) and continues from a fresh
    direction, a fixed-seed Gaussian vector orthogonalized against the basis.
    It makes no check at a breakdown and ends at k = d at the latest, with
    the largest magnitude among all eigenvalues of T_d.  The zero map gives
    0.0.
    """
    Q = np.empty((min(d, 64), d))
    diag: List[float] = []
    off: List[float] = []  # off[j] couples q_j and q_{j+1}; 0 after a breakdown
    q = np.full(d, 1.0 / np.sqrt(d))
    checks = _Checks(8)
    for k in range(1, d + 1):  # k: basis size once q is in
        if k > len(Q):
            Q = np.concatenate([Q, np.empty((min(d, 2 * len(Q)) - len(Q), d))])
        Q[k - 1] = q
        w = apply(q)
        diag.append(float(q @ w))
        if k == d:
            break
        r = _orthogonalize(Q[:k], w)[0]
        beta = float(np.linalg.norm(r))
        if beta <= DEGENERATE_TOL * np.linalg.norm(w):  # <=: A q = 0 closes too
            off.append(0.0)
            fresh = np.random.default_rng(k).standard_normal(d)
            r = _orthogonalize(Q[:k], fresh)[0]
            q = r / np.linalg.norm(r)
            continue
        off.append(beta)
        q = r / beta
        if k < checks.at:
            continue
        vals, vecs = np.linalg.eigh(_tridiagonal(diag, off[:-1]))
        norm = checks.passed(k, vals, lambda i: beta * abs(vecs[-1, i]))
        if norm is not None:
            return norm
    vals = np.linalg.eigvalsh(_tridiagonal(diag, off))
    return float(max(abs(vals[0]), abs(vals[-1])))


class _RevealedSpan:
    """Rayleigh-Ritz on the directions a lazy instance has revealed, and a
    Krylov expansion of them that reveals at most one direction per step.

    M is known on span(Q) without a reveal (``LazySpikedInstance._image``),
    so the instance's compression H = Q M Q^T and the residual of every
    Ritz vector Q^T s are known too.  Each direction the expansion reveals
    adds its row to H, written by the instance's reveal; the instance's Q
    and H are the only basis and compression, read through the instance
    since the solve regrows them.  On an instance that has revealed nothing,
    the span starts from 1/sqrt(d), revealed.  The first ``restart`` reserves
    NORM_SOLVE_ROWS rows of the instance and makes the array of Lanczos
    coefficients, so a span that passes the first check allocates and
    copies nothing.

    ``expand`` makes one step of Lanczos on K(M, x) from the start vector x
    of ``restart``, with the Lanczos vectors u_j kept as coefficients on the
    rows of Q.  It reveals the part of M u_j off span(Q), orthogonalized
    once, and takes u_{j+1} from the coefficients of M u_j on the grown span,
    orthogonalized against u_1 ... u_j.  A u_j whose image lies in the span
    (residual at most DEGENERATE_TOL |M u_j|) reveals nothing; when K(M, x)
    closes in the span, the expansion continues from a fresh direction, a
    fixed-seed Gaussian vector orthogonalized against Q, as
    ``_lanczos_norm`` does.
    """

    def __init__(self, inst: LazySpikedInstance):
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
        w -= value * (s @ self._inst._Q[: len(s)])
        return math.sqrt(float(w @ w))

    def restart(self, s: np.ndarray) -> None:
        """Start the Lanczos expansion from the unit vector Q^T s."""
        if self._lanczos is None:  # the first: reserve once for the solve
            inst = self._inst
            inst._reserve(inst._size + NORM_SOLVE_ROWS)
            cap = len(inst._Q)
            self._lanczos = np.zeros((cap, cap))
        self._lanczos[0, : len(s)] = s
        self._j = 1

    def expand(self) -> None:
        """One Lanczos step; on a complete span (k = d) it does nothing."""
        k, j, d = self.k, self._j, self._inst.dim
        Q = self._inst._Q[:k]
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
            fresh = np.random.default_rng(self.k).standard_normal(d)
            r = _orthogonalize(self._inst._Q[: self.k], fresh)[0]
            self._reveal(r / math.sqrt(float(r @ r)))
            c = np.zeros(self.k)
            c[-1] = beta = 1.0
        self._lanczos[j, : len(c)] = c / beta
        self._j = j + 1


def _revealed_span_norm(inst: LazySpikedInstance) -> float:
    """Largest eigenvalue magnitude of a lazy instance's matrix, by
    Rayleigh-Ritz on the span of the directions it has revealed.

    The first check (``_Checks``) is made on the span as it stands, so a
    span that already meets the stopping rule, such as a converged Lanczos
    session's, is scored with no reveal.  After each check that fails, the
    expansion (``_RevealedSpan.expand``) restarts from the span's top Ritz
    vector, as thick-restart Lanczos does (Wu and Simon, SIAM J. Matrix
    Anal. Appl. 2000).  A power or Lanczos session's span is a Krylov space
    and this restart keeps it one, so there the solve is Lanczos continued
    from the session's steps.  Each check reads the instance's
    eigendecomposition of H (``LazySpikedInstance._eigh``), so the first
    shares the session's Ritz solve.  Once the span is all of R^d (k = d),
    the norm is that of H.
    """
    span = _RevealedSpan(inst)
    d = inst.dim
    checks = _Checks(span.k)
    while span.k < d:
        if span.k >= checks.at:
            vals, vecs = inst._eigh()
            if span.k > 1:  # one Ritz value has no gap to test
                norm = checks.passed(
                    span.k, vals, lambda i: span.residual(vecs[:, i], vals[i])
                )
                if norm is not None:
                    return norm
            span.restart(vecs[:, _top_index(vals)])
        span.expand()
    vals = np.linalg.eigvalsh(span.H)
    return float(max(abs(vals[0]), abs(vals[-1])))


def spectral_norm(M: Union[SpikedInstance, LazySpikedInstance, np.ndarray]) -> float:
    """Operator norm of a symmetric matrix, or of an instance's matrix.

    An instance's matrix is read as it is, since it is finite and exactly
    symmetric by construction; a bare matrix is checked in full first.
    Uses the dense solver up to d = DENSE_NORM_MAX_DIM (256) and, above it,
    the Lanczos solve of ``_lanczos_norm`` for the largest-magnitude
    eigenvalue, which is the operator norm by definition; the two agree to
    about 1e-14 relative on symmetric input.

    A lazy instance is solved at every d by ``_revealed_span_norm``:
    Rayleigh-Ritz on the directions it has revealed, a session's queries
    among them, grown one revealed direction at a time along a Krylov
    space, with ``_lanczos_norm``'s stopping rule.  So the norm is that of
    the matrix its answers belong to, not an asymptotic value.  Directions
    revealed before stay as they are; the new ones are drawn from the
    instance's generator.
    """
    if isinstance(M, LazySpikedInstance):
        return _revealed_span_norm(M)
    M = M.matrix if isinstance(M, SpikedInstance) else _require_symmetric(M)
    d = M.shape[0]
    if d <= DENSE_NORM_MAX_DIM:
        vals = np.linalg.eigvalsh(M)
        return float(max(abs(vals[0]), abs(vals[-1])))
    return _lanczos_norm(M.__matmul__, d)


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
    # a NaN slips past the tolerance test, which compares with >
    if not np.all(np.isfinite(v)):
        raise ValueError("rayleigh requires a finite vector")
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("rayleigh requires a unit vector (tol 1e-8)")
    return float(v @ M @ v)
