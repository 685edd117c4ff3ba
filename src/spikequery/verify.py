"""Monte-Carlo verification harness for the probabilistic lemmas and
identities behind the bounds: spherical concentration, the conditional law of
projected responses, the Gaussian quadratic identity, the reduction-event
conjunction with its deterministic overlap geometry, overlap-growth
schedules, the detection gap, and the noise-norm constant.

Every check returns an McReport whose rows share one pass convention:
empirical <= bound + 3 * stderr.  Rows that verify a theoretical lower bound
put the theoretical value in the empirical slot, so the convention still
reads left-to-right.  Reports are reproducible bit-for-bit from (seed,
parameters) and serialize to CSV plus a human-readable summary.

Five checks run on the available cores through map_trials.  The
per-instance checks (reduction-events, overlap-growth, detection-gap) run
one trial per task on every core; gauss-quadratic and conditional-law split
their n GOE draws into chunks whose layout depends on (n, d) alone
(_chunk_draws) and run one chunk per task on at most SLAB_WORKERS threads.
Trial or chunk j draws from its own trial_seed(seed, j) stream, and the
results are combined in index order, so a report is byte-identical for any
number of threads.  sphere-tail and kd run in the calling thread.

overlap-growth and detection-gap read only a run's transcript, theta and
Ritz value, so their trials query matrix-free instances
(``make_lazy_spiked``): a trial holds O(T d) floats and no d x d array, and
--d reaches 10^6.  reduction-events reads dense spectra and stays dense.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .algorithms import ALGORITHM_KINDS, AlgorithmConfig, run
from .bounds import (
    KD_ASYMPTOTIC,
    chi_tau_schedule,
    detection_error_bound,
    f_overlap,
    gamma_of,
)
from .divergences import TruncationEvent
from .instances import (
    NORM_SOLVE_ROWS,
    SPECTRUM_DIM_CAP,
    Seed,
    _fill_goe,
    _membership_of_spectrum,
    _require_fits,
    as_rng,
    available_cores,
    make_lazy_spiked,
    make_spiked,
    map_trials,
    sample_goe,
    sample_uniform_sphere,
    spectral_norm,
    trial_seed,
)
from .oracle import open_session


@dataclass(frozen=True)
class McRow:
    """One comparison: passes iff empirical <= bound + 3 * stderr."""

    label: str
    empirical: float
    bound: float
    stderr: float
    passed: bool


def one_sided_row(label: str, empirical: float, bound: float, stderr: float = 0.0) -> McRow:
    empirical, bound, stderr = float(empirical), float(bound), float(stderr)
    return McRow(label, empirical, bound, stderr, empirical <= bound + 3.0 * stderr)


@dataclass(frozen=True)
class McReport:
    check_name: str
    n_samples: int
    seed: Seed
    params: Mapping[str, float] = field(default_factory=dict)
    rows: Tuple[McRow, ...] = ()
    notes: str = ""

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


CSV_HEADER = "check,label,n,empirical,bound,stderr,pass"


def report_csv_rows(report: McReport) -> list:
    rows = []
    for r in report.rows:
        rows.append(
            f"{report.check_name},{r.label},{report.n_samples},"
            f"{r.empirical:.12g},{r.bound:.12g},{r.stderr:.12g},"
            f"{'pass' if r.passed else 'FAIL'}"
        )
    return rows


def reports_to_csv(reports: Sequence[McReport]) -> str:
    lines = [CSV_HEADER]
    for rep in reports:
        lines.extend(report_csv_rows(rep))
    return "\n".join(lines) + "\n"


def reports_summary(reports: Sequence[McReport]) -> str:
    lines = []
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        lines.append(f"[{status}] {rep.check_name} (n={rep.n_samples}, seed={rep.seed})")
        for r in rep.rows:
            mark = "ok  " if r.passed else "FAIL"
            lines.append(
                f"    {mark} {r.label}: empirical {r.empirical:.6g} "
                f"vs bound {r.bound:.6g} (stderr {r.stderr:.3g})"
            )
        if rep.notes:
            lines.append(f"    note: {rep.notes}")
    overall = all(rep.passed for rep in reports)
    lines.append("overall: " + ("all checks passed" if overall else "FAILURES present"))
    return "\n".join(lines) + "\n"


def _binom_se(phat: float, n: int) -> float:
    return math.sqrt(max(phat * (1.0 - phat), 0.0) / n)


#: Arrays of min(T, d) rows of length d that a trial of overlap-growth,
#: detection-gap or simulate holds per instance: the lazy instance's revealed
#: directions, which are also the session's basis, and their images under
#: the noise, from which the session reads its basis images, and the
#: session's step records' queries and raw responses.
LAZY_TRIAL_ARRAYS = 4


def _require_lazy_trials_fit(
    d: int, T: int, n: int, per_trial: int, workers: Optional[int] = None,
    scored: bool = False,
) -> None:
    """_require_fits for n trials of a lazy check, each holding
    ``per_trial`` instances of LAZY_TRIAL_ARRAYS (min(T, d), d) arrays and
    the min(T, d) x min(T, d) compression H, on as many threads as
    map_trials starts with ``workers`` (default: every available core).

    A ``scored`` instance (simulate's) is counted with min(T, d) +
    2 NORM_SOLVE_ROWS rows of length d more: a norm solve whose first check
    fails regrows the instance's two row arrays once, by NORM_SOLVE_ROWS
    rows, while the step records keep views of the old directions.  It
    regrows H to min(T, d) + NORM_SOLVE_ROWS rows too, and keeps the Lanczos
    coefficients of its expansion in one more square of that size.  A solve
    that passes its first check, as a converged Lanczos session's does,
    reserves none of this.  That bounds the solve on spiked instances; on
    null ones it can reveal more rows than it reserves, and the instance
    refuses (``MemoryLimitError``) a regrowth past physical memory when it
    is made (``LazySpikedInstance._reserve``)."""
    threads = min(n, available_cores() if workers is None else workers)
    rows = min(T, d)
    what = f"{LAZY_TRIAL_ARRAYS} {rows} x {d} arrays"
    if scored:
        solve, square = rows + 2 * NORM_SOLVE_ROWS, rows + NORM_SOLVE_ROWS
        what += (f", and {solve} rows of length {d} and two {square} x {square} "
                 f"arrays for the norm solve")
        floats = 2 * square**2
    else:
        solve = 0
        what += f" and a {rows} x {rows} compression"
        floats = rows**2
    _require_fits(
        f"{threads} trial threads of {per_trial} lazy instances, each with {what},",
        d, 0, threads * per_trial * (LAZY_TRIAL_ARRAYS * rows + solve),
        threads * per_trial * floats,
    )


def _unit_vector(d: int, i: int) -> np.ndarray:
    """The i-th standard basis vector of R^d (0-based)."""
    if i >= d:
        raise ValueError(f"the default vector e_{i + 1} needs d >= {i + 1}, got {d}")
    e = np.zeros(d)
    e[i] = 1.0
    return e


def _concrete_seed(seed: Seed) -> int:
    """Pin a usable integer seed so the report is reproducible even when the
    caller did not supply one."""
    if seed is None:
        return int(np.random.SeedSequence().entropy) & 0x7FFFFFFFFFFFFFFF
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63))
    return int(seed)


#: Elements in one slab of Monte-Carlo draws: the GOE checks draw and apply
#: max(1, SLAB // d^2) matrices at a time, and a chunk of them holds at
#: least SLAB // d draws (_chunk_draws); verify_sphere_tail draws
#: max(1, SLAB // d) Gaussian rows at a time.  The passes over a slab run in
#: cache.  Measured at the quick parameters (best of 5, one BLAS thread, one
#: and two trial threads on a 2-core host), gauss-quadratic takes 0.56/0.34,
#: 0.58/0.28, 0.50/0.30 and 0.51/0.28 s at 2^14, 2^15, 2^16 and 2^17, and
#: conditional-law 0.42/0.21, 0.34/0.18, 0.40/0.19 and 0.32/0.17 s: level
#: within the host's noise.  2^15 (256 KiB; 13 draws a slab at d = 50) is
#: kept because every trial thread holds a slab and a chunk's temporaries,
#: and on two and on eight threads the tracemalloc peak of quick
#: conditional-law is 10.3/11.4, 10.0/12.4, 10.8/15.4 and 12.3/16.8 MiB at
#: the four sizes (its two response arrays take 9.2 MiB).
SLAB = 2**15

#: Most threads that gauss-quadratic and conditional-law run their chunks
#: on.  Each thread holds a slab of draws, its packed draw and, in
#: gauss-quadratic, its chunk's two matvec arrays (at d = 50 about 0.4 and
#: 0.9 MiB), so the cap keeps a check's memory peak the same on any host
#: with at least this many cores: 7.6 and 12.4 MiB for quick gauss-quadratic
#: and conditional-law.
SLAB_WORKERS = 8

#: Most chunks the n draws of a GOE check are split into; gauss-quadratic
#: holds one d x d sum per chunk until they are added.
MAX_CHUNKS = 64


def _chunk_draws(n: int, d: int) -> int:
    """Draws per chunk of n GOE draws at dimension d:
    max(SLAB // d, d, ceil(n / MAX_CHUNKS)).

    verify_gauss_quadratic and verify_conditional_law split their n draws
    into chunks of this many (the last one shorter), and chunk j draws from
    trial_seed(seed, j), so the layout, and with it every report, depends on
    (n, d) alone and not on the number of threads.  SLAB // d draws make each
    chunk's (draws, d) matvec arrays one slab; at least d draws keep
    gauss-quadratic's d x d sum per chunk no larger than them, and at most
    MAX_CHUNKS chunks bound how many of those sums are held.
    """
    return max(SLAB // d, d, -(-n // MAX_CHUNKS))


def _goe_batch(
    rng: np.random.Generator, m: int, d: int, slab: Optional[np.ndarray] = None
) -> np.ndarray:
    """m GOE draws stacked as an (m, d, d) array, made in the first m
    matrices of slab when it is given; matrix j equals the j-th of m
    successive ``sample_goe(d, rng)`` calls.  Meant for slab-sized batches
    (see _goe_matvecs)."""
    return _fill_goe(np.empty((m, d, d)) if slab is None else slab[:m], rng)


def _goe_matvecs(
    rng: np.random.Generator,
    m: int,
    d: int,
    vectors: Sequence[np.ndarray],
    out: Optional[Sequence[np.ndarray]] = None,
) -> list:
    """W_j @ v for m GOE draws W_j and each v in vectors, one (m, d) array
    per vector, written into the arrays of out when it is given.

    The draws are made a slab of max(1, SLAB // d^2) matrices at a time
    through _goe_batch, from the same generator in the same order, so every
    W_j and every W_j @ v is bit-identical to _goe_batch(rng, m, d) @ v;
    each slab is applied to each vector in one stacked matvec while it is in
    cache, and no chunk-sized matrix array is formed.  Every slab is made in
    one buffer, so one slab is held at a time.
    """
    if out is None:
        out = [np.empty((m, d)) for _ in vectors]
    step = max(1, SLAB // (d * d))
    slab = np.empty((min(step, m), d, d))
    for k in range(0, m, step):
        w = _goe_batch(rng, min(step, m - k), d, slab)
        for y, v in zip(out, vectors):
            np.matmul(w, v, out=y[k : k + len(w)])
    return out


def _sphere_overlaps(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """|<e_1, theta_i>| for n uniform unit vectors theta_i = g_i / ||g_i||.

    The (n, d) Gaussian draw is made max(1, SLAB // d) rows at a time, from
    the same generator in the same order, and only the n overlaps are kept;
    they are bit-identical to those of one (n, d) draw.
    """
    overlaps = np.empty(n)
    step = max(1, SLAB // d)
    for k in range(0, n, step):
        g = rng.standard_normal((min(step, n - k), d))
        overlaps[k : k + len(g)] = np.abs(g[:, 0]) / np.linalg.norm(g, axis=1)
    return overlaps


# ---------------------------------------------------------------- the checks

def verify_sphere_tail(
    d: int,
    n: int,
    t_grid: Sequence[float] = (0.5, 1.0, 1.5, 2.0),
    seed: Seed = None,
) -> McReport:
    """Tails of the spike-direction overlap: for uniform theta and fixed v,
    Pr[sqrt(d) |<v, theta>| >= sqrt(2) + t] <= exp(-t^2 / 2), plus the median
    cap Pr[|<theta, v>| >= sqrt(2/d)] <= 0.55."""
    if n < 10_000:
        raise ValueError(f"need n >= 10000 for tail resolution, got {n}")
    seed = _concrete_seed(seed)
    rng = as_rng(seed)
    overlaps = _sphere_overlaps(rng, n, d)
    scaled = math.sqrt(d) * overlaps
    rows = []
    for t in t_grid:
        phat = float(np.mean(scaled >= math.sqrt(2.0) + t))
        rows.append(
            one_sided_row(f"tail t={t:g}", phat, math.exp(-t * t / 2.0), _binom_se(phat, n))
        )
    med = float(np.mean(overlaps >= math.sqrt(2.0 / d)))
    rows.append(one_sided_row("median cap", med, 0.55, _binom_se(med, n)))
    return McReport(
        check_name="sphere-tail",
        n_samples=n,
        seed=seed,
        params={"d": d},
        rows=tuple(rows),
    )


def verify_conditional_law(
    d: int,
    n: int,
    query_sequence: Optional[Sequence[np.ndarray]] = None,
    lam: float = 0.0,
    spike: Optional[np.ndarray] = None,
    seed: Seed = None,
) -> McReport:
    """Law of the projected responses for a fixed orthonormal query sequence.

    Over n fresh noise draws, the i-th projected response should have mean
    lam <u, v_i> P_{i-1} u and covariance (P_{i-1} + v_i v_i^T) / d, and the
    responses at different steps should be uncorrelated.  The cross-covariance
    row allows the expected extreme of d^2 null z-scores on top of the 3-sigma
    slack; a literal 3-sigma cap on the max of d^2 entries would false-fail
    with probability approaching one as d grows.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 for sample covariances, got {n}")
    k = 2 if query_sequence is None else len(query_sequence)
    # k projectors and, for each step, at least sigma, the sample covariance
    # and their difference; k response arrays of n rows
    _require_fits(
        f"conditional-law with {k + 3} {d} x {d} arrays and {k * n} response rows",
        d, k + 3, k * n,
    )
    if query_sequence is None:
        query_sequence = [_unit_vector(d, 0), _unit_vector(d, 1)]
    queries = [np.asarray(v, dtype=float) for v in query_sequence]
    gram = np.array([[a @ b for b in queries] for a in queries])
    if np.max(np.abs(gram - np.eye(k))) > 1e-8:
        raise ValueError("query sequence must be orthonormal (tol 1e-8)")
    u = _unit_vector(d, 0) if spike is None else np.asarray(spike, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-8:
        raise ValueError("spike must be a unit vector")

    seed = _concrete_seed(seed)
    responses = [np.empty((n, d)) for _ in range(k)]
    projectors = []
    P = np.eye(d)
    for v in queries:
        projectors.append(P.copy())
        P = P - np.outer(v, v)

    size = _chunk_draws(n, d)
    scale = math.sqrt(d)

    def chunk(j: int) -> None:
        """Rows [j size, j size + m) of every response array, from the m
        noise draws of chunk j."""
        block = slice(j * size, min(n, (j + 1) * size))
        out = [r[block] for r in responses]
        _goe_matvecs(as_rng(trial_seed(seed, j)), len(out[0]), d, queries, out)
        for resp, v, P in zip(out, queries, projectors):
            resp /= scale
            resp += lam * (u @ v) * u
            np.matmul(resp, P.T, out=resp)

    map_trials(chunk, -(-n // size), workers=min(SLAB_WORKERS, available_cores()))
    return McReport(
        check_name="conditional-law",
        n_samples=n,
        seed=seed,
        params={"d": d, "lam": lam, "k": k},
        rows=_conditional_law_rows(queries, projectors, responses, lam, u),
    )


def _conditional_law_rows(
    queries: Sequence[np.ndarray],
    projectors: Sequence[np.ndarray],
    responses: Sequence[np.ndarray],
    lam: float,
    u: np.ndarray,
) -> Tuple[McRow, ...]:
    """verify_conditional_law's rows for the (n, d) arrays of n projected
    responses to each query, the projectors P_{i-1} off the queries before
    it, and the spike lam u; the arrays are centered in place."""
    n, d = responses[0].shape
    rows = []
    for i, v in enumerate(queries):
        P = projectors[i]
        mean_theory = lam * (u @ v) * (P @ u)
        sigma = P + np.outer(v, v)
        emp_mean = responses[i].mean(axis=0)
        se_mean = math.sqrt(np.trace(sigma) / d / n)
        rows.append(
            one_sided_row(
                f"mean step {i + 1}",
                float(np.linalg.norm(emp_mean - mean_theory)),
                0.0,
                se_mean,
            )
        )
        centered = responses[i]
        centered -= emp_mean  # in place; the cross-covariance reuses it
        emp_cov = centered.T @ centered / (n - 1)
        rel = np.linalg.norm(emp_cov - sigma / d) / np.linalg.norm(sigma / d)
        rows.append(one_sided_row(f"cov step {i + 1} rel-frobenius", float(rel), 0.10))

    if len(queries) >= 2:
        cross = responses[0].T @ responses[1] / (n - 1)
        var_a = np.diag(projectors[0] + np.outer(queries[0], queries[0])) / d
        var_b = np.diag(projectors[1] + np.outer(queries[1], queries[1])) / d
        se_entry = math.sqrt(float(np.max(var_a)) * float(np.max(var_b)) / n)
        extreme = se_entry * math.sqrt(2.0 * math.log(d * d))
        rows.append(
            one_sided_row(
                "cross-cov max entry", float(np.max(np.abs(cross))), extreme, se_entry
            )
        )
    return tuple(rows)


def _gauss_quadratic_sd(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Standard deviation of each entry of one draw of W v1 (W v2)^T, for W
    from the GOE and unit v1, v2.  (W v1)_i and (W v2)_j are jointly
    Gaussian with variances 1 + v1_i^2 and 1 + v2_j^2 and covariance
    delta_ij <v1, v2> + v2_i v1_j, so by Isserlis the entry's variance is
    (1 + v1_i^2)(1 + v2_j^2) + (delta_ij <v1, v2> + v2_i v1_j)^2."""
    cov = np.outer(v2, v1)
    cov[np.diag_indices(len(v1))] += float(v1 @ v2)
    var = np.outer(1.0 + v1**2, 1.0 + v2**2)
    var += cov**2
    return np.sqrt(var)


def verify_gauss_quadratic(
    d: int,
    n: int,
    v1: Optional[np.ndarray] = None,
    v2: Optional[np.ndarray] = None,
    seed: Seed = None,
    tol: float = 0.05,
) -> McReport:
    """E[W v1 v2^T W] = v2 v1^T + <v1, v2> I, checked entrywise by MC: the
    largest error over the d^2 entries, each in units of its single-draw
    standard deviation (``_gauss_quadratic_sd``, at least 1), is at most
    tol.  So every entry is held to the same number of standard errors,
    tol sqrt(n), as an entry of unit variance.

    Chunk j of the n draws (see _chunk_draws) draws from trial_seed(seed, j)
    and sums its own W v1 (W v2)^T; the chunks run through map_trials and
    their sums are added in chunk order."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    size = _chunk_draws(n, d)
    chunks = -(-n // size)
    # one sum per chunk and one draw
    _require_fits(f"gauss-quadratic with {chunks + 1} {d} x {d} arrays", d, chunks + 1)
    v1 = _unit_vector(d, 0) if v1 is None else np.asarray(v1, dtype=float)
    v2 = _unit_vector(d, 1) if v2 is None else np.asarray(v2, dtype=float)
    for name, v in (("v1", v1), ("v2", v2)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError(f"{name} must be a unit vector")
    seed = _concrete_seed(seed)

    def chunk(j: int) -> np.ndarray:
        m = min(size, n - j * size)
        y1, y2 = _goe_matvecs(as_rng(trial_seed(seed, j)), m, d, (v1, v2))
        return y1.T @ y2

    sums = map_trials(chunk, chunks, workers=min(SLAB_WORKERS, available_cores()))
    err = sums[0]
    for part in sums[1:]:
        err += part
    err /= n  # the empirical E[W v1 v2^T W]; its theory value is taken off
    err -= np.outer(v2, v1)
    err[np.diag_indices(d)] -= float(v1 @ v2)
    err /= _gauss_quadratic_sd(v1, v2)
    row = one_sided_row("max standardized entry error", float(np.max(np.abs(err))), tol)
    return McReport(
        check_name="gauss-quadratic",
        n_samples=n,
        seed=seed,
        params={"d": d},
        rows=(row,),
    )


def _deterministic_overlap_grid(lam: float, grid_size: int, seed: Seed) -> float:
    """Worst F-bound violation over a sphere grid at d=3 on a synthetic
    M = lam theta theta^T + W with exactly known ||W||; the overlap lemma
    says the violation must be <= 0."""
    rng = as_rng(seed)
    theta = np.eye(3)[0]
    a = rng.standard_normal((3, 3))
    w_noise = (a + a.T) / 2.0
    w_noise *= 0.4 * lam / np.linalg.norm(w_noise, 2)
    M = lam * np.outer(theta, theta) + w_noise
    k2 = float(theta @ M @ theta)
    gamma = float(np.linalg.norm(w_noise, 2)) / k2

    idx = np.arange(grid_size)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * idx
    z = 1.0 - 2.0 * (idx + 0.5) / grid_size
    r = np.sqrt(1.0 - z * z)
    grid = np.column_stack([np.cos(phi) * r, np.sin(phi) * r, z])

    worst = -math.inf
    for w in grid:
        eps = max(0.0, 1.0 - float(w @ M @ w) / k2)
        if eps > gamma:
            continue  # outside the lemma's stated regime
        bound = f_overlap(min(eps, 1.0 - gamma), gamma)
        worst = max(worst, bound - abs(float(w @ theta)))
    return worst


def verify_reduction_events(
    d: int,
    lam: float,
    delta0: float,
    n: int,
    seed: Seed = None,
    lanczos_budget: int = 12,
    grid_size: int = 1000,
) -> McReport:
    """Conjunction frequency of the three reduction events.

    Per instance: (1) the top eigenvalue is at least lam minus the deviation
    term and the rest are within K_d plus it; (2) the matrix is gamma-member
    at gamma(d, lam, delta0); (3) the Lanczos output's spike overlap clears
    the F bound at its achieved epsilon.  The conjunction must hold with
    frequency >= 1 - 2 delta0 - 3 stderr.  A deterministic grid sub-check of
    the overlap lemma at d=3 runs alongside.

    Trial i draws from trial_seed(seed, i); the K_d estimate draws from the
    base stream as_rng(seed) and the d=3 grid from trial_seed(seed, n), the
    first spawn child no trial uses, so no two of them share a stream.
    """
    if not (0 < delta0 < 1):
        raise ValueError(f"delta0 must lie in (0, 1), got {delta0}")
    if d > SPECTRUM_DIM_CAP:  # the dense spectrum oracle's cap
        raise ValueError(f"spectrum oracle capped at d <= {SPECTRUM_DIM_CAP}, got {d}")
    seed = _concrete_seed(seed)
    rng = as_rng(seed)
    dev = 2.0 * math.sqrt(math.log(1.0 / delta0) / d)

    kd_draws = [spectral_norm(sample_goe(d, rng)) / math.sqrt(d) for _ in range(10)]
    kd_hat = float(np.mean(kd_draws))
    if lam <= kd_hat + dev:
        raise ValueError(
            f"regime violation: need lam > K_d + deviation = {kd_hat + dev:.4f}, "
            f"got lam = {lam}"
        )
    gamma = gamma_of(d, lam, delta0, kd=kd_hat)

    def trial(i: int) -> Tuple[bool, bool, bool]:
        t_rng = as_rng(trial_seed(seed, i))
        inst = make_spiked(d, lam, seed=t_rng)
        # both spectral items read only eigenvalues, so one eigvalsh (no
        # eigenvectors) serves them; reversed to descending order
        vals = np.linalg.eigvalsh(inst.matrix)[::-1]
        top = float(vals[0])
        rest = float(np.max(np.abs(vals[1:])))
        item1 = top >= lam - dev and rest <= kd_hat + dev
        item2 = _membership_of_spectrum(vals, gamma).is_member

        session = open_session(inst, budget=min(lanczos_budget, d))
        v_hat, _ = run(session, AlgorithmConfig(kind="lanczos", seed=t_rng))
        quad = float(inst.theta @ inst.matrix @ inst.theta)
        eps_hat = max(0.0, 1.0 - float(v_hat @ inst.matrix @ v_hat) / quad)
        if eps_hat > gamma:
            item3 = True  # outside the overlap lemma's regime
        else:
            needed = f_overlap(min(eps_hat, 1.0 - gamma), gamma)
            item3 = abs(float(v_hat @ inst.theta)) >= needed - 1e-12
        return item1, item2, item3

    hits = 0
    first_fail = ""
    for i, (item1, item2, item3) in enumerate(map_trials(trial, n)):
        if item1 and item2 and item3:
            hits += 1
        elif not first_fail:
            first_fail = f"trial {i}: item1={item1} item2={item2} item3={item3}"

    fail_frac = 1.0 - hits / n
    rows = [
        one_sided_row(
            "conjunction failure fraction", fail_frac, 2.0 * delta0, _binom_se(fail_frac, n)
        ),
        one_sided_row(
            "d=3 grid overlap-lemma violation",
            _deterministic_overlap_grid(lam, grid_size, trial_seed(seed, n)),
            0.0,
            1e-9,
        ),
    ]
    return McReport(
        check_name="reduction-events",
        n_samples=n,
        seed=seed,
        params={"d": d, "lam": lam, "delta0": delta0, "kd_hat": kd_hat, "gamma": gamma},
        rows=tuple(rows),
        notes=first_fail,
    )


def verify_overlap_growth(
    algorithm_kind: str,
    d: int,
    lam: float,
    delta: float,
    T: int,
    n: int,
    seed: Seed = None,
) -> McReport:
    """Schedule violations of the closed-form overlap growth cap.

    Runs n independent trials of the algorithm with budget T, each on its
    own matrix-free instance (make_lazy_spiked); a trial violates if any orthonormalized query direction (or the final output, as
    the (T+1)-th vector) has d <v, theta>^2 above the closed-form schedule
    tau_1 (2 lam^2 c)^{k-1}.  The violation fraction must stay below
    2 delta / (1 - delta); the first query alone must stay below delta.
    """
    if algorithm_kind not in ALGORITHM_KINDS:
        raise ValueError(f"algorithm_kind must be one of {ALGORITHM_KINDS}")
    if lam < 1.0:
        raise ValueError(f"schedule regime needs lam >= 1, got {lam}")
    _require_lazy_trials_fit(d, T, n, 1)
    seed = _concrete_seed(seed)
    schedule = chi_tau_schedule(d, lam, delta, T).closed_form
    event_cap = schedule.taus

    def trial(i: int) -> Tuple[bool, bool]:
        """(any violation, a first-query violation) of trial i."""
        t_rng = as_rng(trial_seed(seed, i))
        inst = make_lazy_spiked(d, lam, seed=t_rng)
        session = open_session(inst, budget=T)
        v_hat, _ = run(session, AlgorithmConfig(kind=algorithm_kind, seed=t_rng))
        transcript = session.transcript
        steps = min(T, len(transcript.steps))
        event = TruncationEvent(schedule, inst.theta, steps)
        overlaps = event.overlaps(transcript)
        bad = bool(np.any(overlaps > event_cap[:steps]))
        if d * float(v_hat @ inst.theta) ** 2 > event_cap[min(T, len(event_cap) - 1)]:
            bad = True
        return bad, bool(overlaps[0] > event_cap[0])

    outcomes = map_trials(trial, n)
    violations = sum(bad for bad, _ in outcomes)
    first_violations = sum(first for _, first in outcomes)

    frac = violations / n
    first_frac = first_violations / n
    mass = 2.0 * delta / (1.0 - delta)
    rows = [
        one_sided_row("violation fraction", frac, mass, _binom_se(frac, n)),
        one_sided_row("first-query violation", first_frac, delta, _binom_se(first_frac, n)),
    ]
    return McReport(
        check_name="overlap-growth",
        n_samples=n,
        seed=seed,
        params={"kind": algorithm_kind, "d": d, "lam": lam, "delta": delta, "T": T},
        rows=tuple(rows),
    )


def verify_detection_gap(
    d: int,
    lam: float,
    T: int,
    n: int,
    seed: Seed = None,
    delta0: float = 0.05,
) -> McReport:
    """Null vs spiked discrimination through the Lanczos Ritz value.

    Each trial runs Lanczos on a null and a spiked matrix-free instance
    (make_lazy_spiked).  Thresholds the Ritz value after T queries at
    (2 + lam) / 2 and reports type-I, type-II, and their sum next to the
    theoretical lower bound on the error of any T-query test (which the
    empirical sum must respect).
    """
    if lam <= 2.0:
        raise ValueError(f"detection gap needs lam > 2, got {lam}")
    _require_lazy_trials_fit(d, T, n, 2)
    seed = _concrete_seed(seed)
    threshold = (2.0 + lam) / 2.0

    def trial(i: int) -> Tuple[bool, bool]:
        """(type-I error, type-II error) of trial i."""
        t_rng = as_rng(trial_seed(seed, i))
        null_inst = make_lazy_spiked(d, 0.0, seed=t_rng)
        alt_inst = make_lazy_spiked(d, lam, seed=t_rng)
        stats = []
        for inst in (null_inst, alt_inst):
            session = open_session(inst, budget=min(T, d))
            # the statistic is the run's own final Ritz value
            _, ritz = run(session, AlgorithmConfig(kind="lanczos", seed=t_rng))
            stats.append(ritz)
        return stats[0] >= threshold, stats[1] < threshold

    outcomes = map_trials(trial, n)
    type1 = sum(e1 for e1, _ in outcomes)
    type2 = sum(e2 for _, e2 in outcomes)

    p1, p2 = type1 / n, type2 / n
    err_sum = p1 + p2
    se_sum = math.sqrt(_binom_se(p1, n) ** 2 + _binom_se(p2, n) ** 2)
    lower = detection_error_bound(d, lam, T, delta0)
    rows = [
        one_sided_row("type-I error", p1, 0.1, _binom_se(p1, n)),
        one_sided_row("lower bound consistency", lower.value, err_sum, se_sum),
    ]
    return McReport(
        check_name="detection-gap",
        n_samples=n,
        seed=seed,
        params={
            "d": d,
            "lam": lam,
            "T": T,
            "threshold": threshold,
            "type2": p2,
            "error_sum": err_sum,
            "theory_lower": lower.value,
        },
        rows=tuple(rows),
        notes=f"error sum {err_sum:.4f} at T={T}; theoretical floor {lower.value:.4f}"
        + (" (vacuous)" if lower.vacuous else ""),
    )


def verify_kd(
    d_grid: Sequence[int] = (200, 500),
    n: int = 20,
    seed: Seed = None,
) -> McReport:
    """Empirical noise-norm constant ||W|| / sqrt(d) per dimension.

    Means must sit in [1.85, 2.05]; the sample spread must respect the
    Gaussian-Lipschitz cap sqrt(2/d) with a 1.6x allowance for estimating a
    standard deviation from few samples.  The trend toward 2 is reported in
    the notes, not asserted.
    """
    if n < 10:
        raise ValueError(f"need n >= 10, got {n}")
    seed = _concrete_seed(seed)
    rng = as_rng(seed)
    rows = []
    means = []
    for d in d_grid:
        norms = np.array(
            [spectral_norm(sample_goe(d, rng)) / math.sqrt(d) for _ in range(n)]
        )
        mean = float(norms.mean())
        se = float(norms.std(ddof=1) / math.sqrt(n))
        means.append((d, mean))
        rows.append(one_sided_row(f"mean upper d={d}", mean, 2.05, se))
        rows.append(one_sided_row(f"mean lower d={d}", 1.85, mean, se))
        rows.append(
            one_sided_row(
                f"stdev d={d}", float(norms.std(ddof=1)), 1.6 * math.sqrt(2.0 / d)
            )
        )
    trend = ", ".join(f"d={d}: {m:.4f}" for d, m in means)
    return McReport(
        check_name="kd",
        n_samples=n,
        seed=seed,
        params={"d_grid": tuple(d_grid)},
        rows=tuple(rows),
        notes=f"means {trend} (trend reported, not asserted)",
    )


# ------------------------------------------------------------ check registry

DEFAULT_PARAMS: Dict[str, Dict] = {
    "sphere-tail": {"d": 200, "n": 100_000},
    "conditional-law": {"d": 100, "n": 20_000},
    "gauss-quadratic": {"d": 50, "n": 100_000},
    "reduction-events": {"d": 1000, "lam": 4.0, "delta0": 0.1, "n": 200},
    "overlap-growth": {
        "algorithm_kind": "power",
        "d": 2000,
        "lam": 3.0,
        "delta": 0.05,
        "T": 6,
        "n": 500,
    },
    "detection-gap": {"d": 1024, "lam": 8.0, "T": 3, "n": 100},
    "kd": {"d_grid": (200, 500), "n": 20},
}

QUICK_PARAMS: Dict[str, Dict] = {
    "sphere-tail": {"d": 200, "n": 20_000},
    "conditional-law": {"d": 50, "n": 12_000},
    "gauss-quadratic": {"d": 50, "n": 20_000},
    "reduction-events": {"d": 300, "lam": 4.0, "delta0": 0.1, "n": 50},
    "overlap-growth": {
        "algorithm_kind": "power",
        "d": 500,
        "lam": 3.0,
        "delta": 0.05,
        "T": 5,
        "n": 60,
    },
    "detection-gap": {"d": 500, "lam": 8.0, "T": 3, "n": 40},
    "kd": {"d_grid": (300,), "n": 10},
}

CHECKS = {
    "sphere-tail": verify_sphere_tail,
    "conditional-law": verify_conditional_law,
    "gauss-quadratic": verify_gauss_quadratic,
    "reduction-events": verify_reduction_events,
    "overlap-growth": verify_overlap_growth,
    "detection-gap": verify_detection_gap,
    "kd": verify_kd,
}


def run_check(
    name: str, quick: bool = False, seed: Seed = 0, overrides: Optional[Dict] = None
) -> McReport:
    """Run one named check with its default (or quick) parameter set.

    An override that names no parameter of the check is a ValueError that
    lists the parameters it takes, raised before the check starts."""
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
    check = CHECKS[name]
    params = dict((QUICK_PARAMS if quick else DEFAULT_PARAMS)[name])
    if overrides:
        takes = inspect.signature(check).parameters
        unknown = [key for key in overrides if key not in takes]
        if unknown:
            raise ValueError(
                f"no parameter {', '.join(unknown)}; it takes {', '.join(takes)}"
            )
        params.update(overrides)
    return check(seed=seed, **params)
