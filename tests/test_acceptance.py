"""End-to-end acceptance gate.

Eleven checks, one test each, covering every layer of the package at
production parameters: instance statistics, the Monte-Carlo verification
harness at full sample sizes, the chi-squared likelihood closed form against
direct simulation, the generalized f-divergence laws and the Fano inversion,
the overlap-growth and reduction-event guarantees, the empirical-versus-
theoretical query scaling picture, the schedule recursions, and the
command-line quick verification suite.  Each test makes one clear pass/fail
decision at a stated tolerance; none depends on another.

These run longer than the unit suites (a few minutes total).  Select just
this file with `pytest tests/test_acceptance.py -v`.
"""

import math
import subprocess
import sys
import time

import numpy as np

from spikequery import (
    CHI2_PLUS1_GENERATOR,
    KL_GENERATOR,
    ConvexGenerator,
    DiscreteMeasure,
    chi2_fano_value_bound,
    chi_tau_schedule,
    d_f,
    g_chi,
    gamma_of,
    gen_fano_value_bound,
    kl_tau_schedule,
    min_queries,
    queries_to_target,
    sample_goe,
    sample_uniform_sphere,
    scaled_generator,
    spectral_norm,
    trial_seed,
    verify_conditional_law,
    verify_gauss_quadratic,
    verify_overlap_growth,
    verify_reduction_events,
    verify_sphere_tail,
)


def random_orthonormal(d, k, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return [q[:, j].copy() for j in range(k)]


def test_01_goe_norm_concentration():
    """Mean of ||W|| / sqrt(d) over 20 draws at d = 500 lands in [1.85, 2.05]
    (the K_d -> 2 limit minus the finite-d edge correction), in under 30 s."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    d = 500
    draws = [spectral_norm(sample_goe(d, rng)) / math.sqrt(d) for _ in range(20)]
    mean = float(np.mean(draws))
    elapsed = time.monotonic() - start
    assert 1.85 <= mean <= 2.05, f"mean normalized GOE norm {mean:.4f}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_02_sphere_tail_bounds():
    """Uniform-sphere overlap tails at d = 200, n = 100000: the empirical
    tail of sqrt(d) <theta, e_1> stays below exp(-t^2/2) + 3 se at each
    t in {0.5, 1, 1.5, 2}, and the median overlap cap holds."""
    report = verify_sphere_tail(d=200, n=100_000, seed=102)
    for row in report.rows:
        assert row.passed, f"{row.label}: {row.empirical:.5f} > {row.bound:.5f}"


def test_03_conditional_response_law():
    """Conditional response law at d = 100, n = 20000: empirical mean of
    each step response within 3 se componentwise and empirical covariance
    within 10 percent relative Frobenius of the closed form, for the null
    law and for a spiked instance."""
    for lam, seed in ((0.0, 103), (1.5, 1103)):
        report = verify_conditional_law(d=100, n=20_000, lam=lam, seed=seed)
        for row in report.rows:
            assert row.passed, (
                f"lam={lam} {row.label}: {row.empirical:.5f} > {row.bound:.5f}"
            )


def test_04_gaussian_quadratic_forms():
    """Quadratic-form identities of the GOE at d = 50, n = 100000: empirical
    moments of (v1' W v1, v1' W v2) match (variance 2, variance 1,
    covariance 0) to max standardized entry error 0.05."""
    report = verify_gauss_quadratic(d=50, n=100_000, seed=104)
    for row in report.rows:
        assert row.passed, f"{row.label}: {row.empirical:.5f} > {row.bound:.5f}"


def test_05_chi2_cross_moment_closed_form():
    """The closed form g_chi for the null-conditional cross moment of two
    likelihood ratios matches direct Monte Carlo at d = 20, lam = 0.5,
    n = 1e6 to 5 percent relative error, on 5 random configurations whose
    exponents stay at most 1 in magnitude."""
    d, lam, n, chunk = 20, 0.5, 1_000_000, 200_000
    rng = np.random.default_rng(105)
    checked = 0
    while checked < 5:
        k = int(rng.integers(1, 5))
        queries = random_orthonormal(d, k, rng)
        u = sample_uniform_sphere(d, rng)
        s = sample_uniform_sphere(d, rng)
        i = k
        closed = g_chi(u, s, queries, i, lam, d)
        exponents = (
            abs(math.log(closed)),
            abs(math.log(g_chi(u, u, queries, i, lam, d))),
            abs(math.log(g_chi(s, s, queries, i, lam, d))),
        )
        if max(exponents) > 1.0:
            continue

        vi = queries[i - 1]
        P = np.eye(d) - sum(np.outer(v, v) for v in queries[: i - 1])
        pinv = P - 0.5 * np.outer(vi, vi)
        sqrt_sigma = P + (math.sqrt(2.0) - 1.0) * np.outer(vi, vi)
        mu_u = lam * (vi @ u) * (P @ u)
        mu_s = lam * (vi @ s) * (P @ s)
        shift = 0.5 * d * (mu_u @ pinv @ mu_u + mu_s @ pinv @ mu_s)
        coeff = pinv @ (mu_u + mu_s)

        total, done = 0.0, 0
        while done < n:
            m = min(chunk, n - done)
            w = (rng.standard_normal((m, d)) @ sqrt_sigma) / math.sqrt(d)
            total += float(np.exp(d * (w @ coeff) - shift).sum())
            done += m
        estimate = total / n
        assert abs(estimate - closed) <= 0.05 * closed, (
            f"config {checked}: MC {estimate:.5f} vs closed {closed:.5f}"
        )
        checked += 1


def test_06_overlap_growth_all_algorithms():
    """Schedule violation frequency at d = 2000, lam = 3, delta = 0.05,
    T = 6 over 500 trials stays below 2 delta / (1 - delta) + 3 se for the
    power, Lanczos, and random baselines alike (and the first-query row
    below delta + 3 se)."""
    for kind in ("power", "lanczos", "random"):
        report = verify_overlap_growth(
            algorithm_kind=kind, d=2000, lam=3.0, delta=0.05, T=6, n=500, seed=106
        )
        for row in report.rows:
            assert row.passed, (
                f"{kind} {row.label}: {row.empirical:.5f} > {row.bound:.5f}"
            )


def test_07_divergence_laws_and_fano_inversion():
    """Generalized f-divergence laws on random non-normalized measures, 100
    cases each at tolerance 1e-9 for both generators: joint convexity,
    the normalization identity via the scaled generator, linearity in the
    generator, and data processing under column-stochastic channels.  Then
    the chi-squared Fano closed form against the generic bisection on 100
    random (V0, p, info) triples at 1e-6."""
    rng = np.random.default_rng(107)
    tol = 1e-9

    def draw(k):
        return DiscreteMeasure(rng.uniform(0.1, 2.0, k))

    for f in (CHI2_PLUS1_GENERATOR, KL_GENERATOR):
        for _ in range(100):
            k = int(rng.integers(2, 8))
            mu1, nu1, mu2, nu2 = draw(k), draw(k), draw(k), draw(k)
            alpha = float(rng.uniform(0.05, 0.95))

            mix_mu = DiscreteMeasure(alpha * mu1.masses + (1 - alpha) * mu2.masses)
            mix_nu = DiscreteMeasure(alpha * nu1.masses + (1 - alpha) * nu2.masses)
            assert d_f(mix_mu, mix_nu, f) <= (
                alpha * d_f(mu1, nu1, f) + (1 - alpha) * d_f(mu2, nu2, f) + tol
            )

            g = scaled_generator(f, mu1.total, nu1.total)
            assert abs(
                d_f(mu1, nu1, f) - d_f(mu1.normalized(), nu1.normalized(), g)
            ) <= tol

            beta = float(rng.uniform(0.2, 3.0))
            a = float(rng.uniform(-1.0, 1.0))
            c = float(rng.uniform(-1.0, 1.0))
            h = ConvexGenerator(
                lambda x: beta * f(x) + a * x + c, math.inf, check=False
            )
            expected = beta * d_f(mu1, nu1, f) + a * mu1.total + c * nu1.total
            assert abs(d_f(mu1, nu1, h) - expected) <= tol

            m = int(rng.integers(2, 8))
            channel = rng.uniform(0.05, 1.0, (m, k))
            channel /= channel.sum(axis=0)
            assert d_f(channel @ mu1.masses, channel @ nu1.masses, f) <= (
                d_f(mu1, nu1, f) + tol
            )

    for _ in range(100):
        V0 = float(rng.uniform(0.05, 0.9))
        p = float(rng.uniform(0.1, 1.0))
        info = float(rng.uniform(0.0, 3.0 * p * p / V0))
        closed = chi2_fano_value_bound(V0, p, info)
        bisected = gen_fano_value_bound(
            V0, p, 1.0, info, CHI2_PLUS1_GENERATOR, tol=1e-9
        )
        assert abs(closed - bisected) <= 1e-6, (
            f"V0={V0:.3f} p={p:.3f} info={info:.3f}: "
            f"closed {closed:.8f} vs bisection {bisected:.8f}"
        )


def test_08_reduction_event_conjunction():
    """The three reduction events (norm deviation, membership of the spiked
    matrix, Lanczos certificate agreement) hold jointly with frequency at
    least 1 - 2 delta0 - 3 se at d = 1000, lam = 4, delta0 = 0.1 over 200
    trials, and the deterministic F-bound holds exhaustively on the d = 3
    grid oracle."""
    report = verify_reduction_events(d=1000, lam=4.0, delta0=0.1, n=200, seed=108)
    for row in report.rows:
        assert row.passed, f"{row.label}: {row.empirical:.5f} > {row.bound:.5f}"
    grid_rows = [r for r in report.rows if "grid" in r.label]
    assert grid_rows and all(r.empirical <= 0.0 for r in grid_rows)


def test_09_query_scaling_and_detection_ratio():
    """Empirical query counts against the theory: median queries_to_target
    at ratio 0.9 for power iteration is nondecreasing over d in
    {256, 1024, 4096} at lam = 8 and exceeds the main-theorem minimum minus
    one at every d; and the detection-threshold query count doubles from
    d = 1e6 to d = 1e12 (ratio within [1.8, 2.2])."""
    lam, trials = 8.0, 9
    medians = []
    for j, d in enumerate((256, 1024, 4096)):
        counts = [
            queries_to_target("power", d, lam, 0.9, seed=trial_seed(109, 64 * j + i))
            for i in range(trials)
        ]
        med = float(np.median(counts))
        medians.append(med)
        gamma = gamma_of(d, lam, 0.05)
        theory = min_queries(
            "main", {"d": d, "gamma": gamma, "eps": 0.1}, threshold=0.5
        )
        assert med > theory - 1, f"d={d}: median {med} vs theory {theory}"
    assert medians == sorted(medians), f"medians not nondecreasing: {medians}"

    t_small = min_queries("detection-tv", {"d": 10**6, "lam": lam}, threshold=0.9)
    t_large = min_queries("detection-tv", {"d": 10**12, "lam": lam}, threshold=0.9)
    ratio = t_large / t_small
    assert 1.8 <= ratio <= 2.2, f"detection query ratio {ratio:.3f}"


def test_10_schedule_recursions():
    """Schedule structure: the first KL-schedule increment grows affinely in
    log d over d in {1e3, ..., 1e9} (least-squares R^2 at least 0.95), and
    the exact chi-squared recursion is dominated entrywise by its closed
    form over the full (delta, lam, T) grid."""
    dims = [10**k for k in range(3, 10)]
    increments = []
    for d in dims:
        sched = kl_tau_schedule(d, lam=1.0, T=1)
        assert not sched.saturated and sched.taus.size == 2
        increments.append(float(sched.taus[1] - sched.taus[0]))
    x = np.log(np.array(dims, dtype=float))
    y = np.array(increments)
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    r_squared = 1.0 - float(residual @ residual) / float(
        ((y - y.mean()) @ (y - y.mean()))
    )
    assert r_squared >= 0.95, f"R^2 = {r_squared:.4f}"

    for delta in (0.5, 0.2, 0.1, 0.05, 0.01):
        for lam in (1.0, 1.5, 2.0, 3.0, 5.0, 8.0):
            for T in (1, 5, 10, 20):
                pair = chi_tau_schedule(10**6, lam, delta, T)
                assert pair.exact.taus.size == T + 1
                assert np.all(
                    pair.exact.taus <= pair.closed_form.taus * (1 + 1e-12)
                ), f"delta={delta} lam={lam} T={T}"


def test_11_cli_quick_suite(tmp_path):
    """`spikequery verify --check all --quick` exits 0 (every quick check
    passes) in under five minutes."""
    out = tmp_path / "verify.csv"
    start = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "spikequery.cli",
            "verify",
            "--check",
            "all",
            "--quick",
            "--seed",
            "0",
            "--output",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    assert "overall:" in proc.stdout
    assert out.exists() and "check,label,n,empirical,bound,stderr,pass" in out.read_text()
