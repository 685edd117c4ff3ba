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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .algorithms import ALGORITHM_KINDS, AlgorithmConfig, RUNNERS, _run
from .bounds import (
    KD_ASYMPTOTIC,
    chi_tau_schedule,
    detection_error_bound,
    f_overlap,
    gamma_of,
)
from .divergences import TruncationEvent
from .instances import (
    SPECTRUM_DIM_CAP,
    Seed,
    _membership_of_spectrum,
    as_rng,
    make_spiked,
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


def _concrete_seed(seed: Seed) -> int:
    """Pin a usable integer seed so the report is reproducible even when the
    caller did not supply one."""
    if seed is None:
        return int(np.random.SeedSequence().entropy) & 0x7FFFFFFFFFFFFFFF
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63))
    return int(seed)


#: Elements in one slab of Monte-Carlo draws: the GOE checks draw, symmetrize
#: and apply max(1, SLAB // d^2) matrices at a time, verify_sphere_tail draws
#: max(1, SLAB // d) Gaussian rows at a time, so the passes over a slab run
#: in cache.  Measured with one thread at the quick parameters, 2^14, 2^15,
#: 2^16 and 2^17 lie within 3% of each other on each check (gauss-quadratic
#: 1.08 s at 2^15, against 1.37 s with one array per 2e7-element chunk), so
#: 2^15 (256 KiB; 13 draws a slab at d = 50) sits mid-range.
SLAB = 2**15


def _goe_batch(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    """m GOE draws (X + X^T)/sqrt(2) stacked as an (m, d, d) array.

    X is symmetrized and divided in place; numpy buffers the overlapping
    transposed operand, one copy of the batch.  Meant for slab-sized batches
    (see _goe_matvecs).
    """
    x = rng.standard_normal((m, d, d))
    x += x.transpose(0, 2, 1)
    x /= math.sqrt(2.0)
    return x


def _goe_matvecs(
    rng: np.random.Generator, m: int, d: int, vectors: Sequence[np.ndarray]
) -> list:
    """W_j @ v for m GOE draws W_j and each v in vectors, one (m, d) array
    per vector.

    The draws are made a slab of max(1, SLAB // d^2) matrices at a time
    through _goe_batch, from the same generator in the same order, so every
    W_j and every W_j @ v is bit-identical to _goe_batch(rng, m, d) @ v;
    each slab is applied to each vector in one stacked matvec while it is in
    cache, and no chunk-sized matrix array is formed.
    """
    out = [np.empty((m, d)) for _ in vectors]
    step = max(1, SLAB // (d * d))
    for k in range(0, m, step):
        w = _goe_batch(rng, min(step, m - k), d)
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
    if query_sequence is None:
        query_sequence = [np.eye(d)[0], np.eye(d)[1]]
    queries = [np.asarray(v, dtype=float) for v in query_sequence]
    k = len(queries)
    gram = np.array([[a @ b for b in queries] for a in queries])
    if np.max(np.abs(gram - np.eye(k))) > 1e-8:
        raise ValueError("query sequence must be orthonormal (tol 1e-8)")
    u = np.eye(d)[0] if spike is None else np.asarray(spike, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-8:
        raise ValueError("spike must be a unit vector")

    seed = _concrete_seed(seed)
    rng = as_rng(seed)
    responses = [np.empty((n, d)) for _ in range(k)]
    projectors = []
    P = np.eye(d)
    for v in queries:
        projectors.append(P.copy())
        P = P - np.outer(v, v)

    chunk = max(1, int(2e7 // (d * d)))
    done = 0
    while done < n:
        m = min(chunk, n - done)
        wv = _goe_matvecs(rng, m, d, queries)
        for i, v in enumerate(queries):
            resp = wv[i] / math.sqrt(d) + lam * (u @ v) * u
            responses[i][done : done + m] = resp @ projectors[i].T
        done += m

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
        centered = responses[i] - emp_mean
        emp_cov = centered.T @ centered / (n - 1)
        rel = np.linalg.norm(emp_cov - sigma / d) / np.linalg.norm(sigma / d)
        rows.append(one_sided_row(f"cov step {i + 1} rel-frobenius", float(rel), 0.10))

    if k >= 2:
        a = responses[0] - responses[0].mean(axis=0)
        b = responses[1] - responses[1].mean(axis=0)
        cross = a.T @ b / (n - 1)
        var_a = np.diag(projectors[0] + np.outer(queries[0], queries[0])) / d
        var_b = np.diag(projectors[1] + np.outer(queries[1], queries[1])) / d
        se_entry = math.sqrt(float(np.max(var_a)) * float(np.max(var_b)) / n)
        extreme = se_entry * math.sqrt(2.0 * math.log(d * d))
        rows.append(
            one_sided_row(
                "cross-cov max entry", float(np.max(np.abs(cross))), extreme, se_entry
            )
        )

    return McReport(
        check_name="conditional-law",
        n_samples=n,
        seed=seed,
        params={"d": d, "lam": lam, "k": k},
        rows=tuple(rows),
    )


def verify_gauss_quadratic(
    d: int,
    n: int,
    v1: Optional[np.ndarray] = None,
    v2: Optional[np.ndarray] = None,
    seed: Seed = None,
    tol: float = 0.05,
) -> McReport:
    """E[W v1 v2^T W] = v2 v1^T + <v1, v2> I, checked entrywise by MC."""
    v1 = np.eye(d)[0] if v1 is None else np.asarray(v1, dtype=float)
    v2 = np.eye(d)[1] if v2 is None else np.asarray(v2, dtype=float)
    for name, v in (("v1", v1), ("v2", v2)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError(f"{name} must be a unit vector")
    seed = _concrete_seed(seed)
    rng = as_rng(seed)
    acc = np.zeros((d, d))
    chunk = max(1, int(2e7 // (d * d)))
    done = 0
    while done < n:
        m = min(chunk, n - done)
        y1, y2 = _goe_matvecs(rng, m, d, (v1, v2))
        acc += np.einsum("ia,ib->ab", y1, y2)
        done += m
    emp = acc / n
    theory = np.outer(v2, v1) + float(v1 @ v2) * np.eye(d)
    err = float(np.max(np.abs(emp - theory)))
    row = one_sided_row("max entry error", err, tol)
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
    """
    if not (0 < delta0 < 1):
        raise ValueError(f"delta0 must lie in (0, 1), got {delta0}")
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
    if d > SPECTRUM_DIM_CAP:  # the dense spectrum oracle's cap
        raise ValueError(f"spectrum oracle capped at d <= {SPECTRUM_DIM_CAP}, got {d}")

    hits = 0
    first_fail = ""
    for i in range(n):
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
        v_hat = RUNNERS["lanczos"](session, AlgorithmConfig(kind="lanczos", seed=t_rng))
        quad = float(inst.theta @ inst.matrix @ inst.theta)
        eps_hat = max(0.0, 1.0 - float(v_hat @ inst.matrix @ v_hat) / quad)
        if eps_hat > gamma:
            item3 = True  # outside the overlap lemma's regime
        else:
            needed = f_overlap(min(eps_hat, 1.0 - gamma), gamma)
            item3 = abs(float(v_hat @ inst.theta)) >= needed - 1e-12
        if item1 and item2 and item3:
            hits += 1
        elif not first_fail:
            first_fail = (
                f"trial {i}: item1={item1} item2={item2} item3={item3}"
            )

    fail_frac = 1.0 - hits / n
    rows = [
        one_sided_row(
            "conjunction failure fraction", fail_frac, 2.0 * delta0, _binom_se(fail_frac, n)
        ),
        one_sided_row(
            "d=3 grid overlap-lemma violation",
            _deterministic_overlap_grid(lam, grid_size, seed),
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

    Runs n independent trials of the algorithm with budget T; a trial
    violates if any orthonormalized query direction (or the final output, as
    the (T+1)-th vector) has d <v, theta>^2 above the closed-form schedule
    tau_1 (2 lam^2 c)^{k-1}.  The violation fraction must stay below
    2 delta / (1 - delta); the first query alone must stay below delta.
    """
    if algorithm_kind not in ALGORITHM_KINDS:
        raise ValueError(f"algorithm_kind must be one of {ALGORITHM_KINDS}")
    if lam < 1.0:
        raise ValueError(f"schedule regime needs lam >= 1, got {lam}")
    seed = _concrete_seed(seed)
    schedule = chi_tau_schedule(d, lam, delta, T).closed_form
    event_cap = schedule.taus

    violations = 0
    first_violations = 0
    for i in range(n):
        t_rng = as_rng(trial_seed(seed, i))
        inst = make_spiked(d, lam, seed=t_rng)
        session = open_session(inst, budget=T)
        v_hat = RUNNERS[algorithm_kind](
            session, AlgorithmConfig(kind=algorithm_kind, seed=t_rng)
        )
        transcript = session.transcript
        steps = min(T, len(transcript.steps))
        event = TruncationEvent(schedule, inst.theta, steps)
        overlaps = event.overlaps(transcript)
        bad = bool(np.any(overlaps > event_cap[:steps]))
        if overlaps[0] > event_cap[0]:
            first_violations += 1
        if d * float(v_hat @ inst.theta) ** 2 > event_cap[min(T, len(event_cap) - 1)]:
            bad = True
        if bad:
            violations += 1

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

    Thresholds the Ritz value after T queries at (2 + lam) / 2 and reports
    type-I, type-II, and their sum next to the theoretical lower bound on
    the error of any T-query test (which the empirical sum must respect).
    """
    if lam <= 2.0:
        raise ValueError(f"detection gap needs lam > 2, got {lam}")
    seed = _concrete_seed(seed)
    threshold = (2.0 + lam) / 2.0
    type1 = 0
    type2 = 0
    for i in range(n):
        t_rng = as_rng(trial_seed(seed, i))
        null_inst = make_spiked(d, 0.0, seed=t_rng)
        alt_inst = make_spiked(d, lam, seed=t_rng)
        stats = []
        for inst in (null_inst, alt_inst):
            session = open_session(inst, budget=min(T, d))
            # the statistic is the run's own final Ritz value
            _, ritz = _run(session, AlgorithmConfig(kind="lanczos", seed=t_rng))
            stats.append(ritz)
        if stats[0] >= threshold:
            type1 += 1
        if stats[1] < threshold:
            type2 += 1

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
    """Run one named check with its default (or quick) parameter set."""
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
    params = dict((QUICK_PARAMS if quick else DEFAULT_PARAMS)[name])
    if overrides:
        params.update(overrides)
    return CHECKS[name](seed=seed, **params)
