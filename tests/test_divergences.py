import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spikequery.bounds import TauSchedule, chi_tau_schedule
from spikequery.divergences import (
    CHI2_PLUS1_GENERATOR,
    KL_GENERATOR,
    ConvexGenerator,
    DiscreteMeasure,
    TruncationEvent,
    chi2_fano_value_bound,
    chi2_plus1,
    d_f,
    gaussian_kl,
    gen_fano_value_bound,
    g_chi,
    global_fano_bound,
    kl,
    likelihood_product_bound,
    phi_f,
    scaled_generator,
    sphere_mgf_bound,
    truncated_chi2_tv,
)
from spikequery.instances import make_spiked, sample_uniform_sphere
from spikequery.oracle import open_session


def random_orthonormal(d, k, rng):
    m = rng.standard_normal((d, k))
    q, _ = np.linalg.qr(m)
    return [q[:, j].copy() for j in range(k)]


class TestDiscreteMeasure:
    def test_total_and_probability_flag(self):
        m = DiscreteMeasure(np.array([0.25, 0.75]))
        assert m.total == pytest.approx(1.0, abs=1e-15)
        assert m.is_probability
        assert not DiscreteMeasure(np.array([0.25, 0.5])).is_probability

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.5, -0.1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([]))

    def test_masses_frozen(self):
        m = DiscreteMeasure(np.array([0.5, 0.5]))
        with pytest.raises((ValueError, RuntimeError)):
            m.masses[0] = 1.0

    def test_normalized(self):
        m = DiscreteMeasure(np.array([2.0, 6.0])).normalized()
        assert m.masses == pytest.approx([0.25, 0.75])
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.0, 0.0])).normalized()


class TestConvexGenerator:
    def test_convex_evaluator_passes_spot_check(self):
        ConvexGenerator(lambda x: x * x, math.inf, name="x^2")
        ConvexGenerator(lambda x: -math.log(x), math.inf, name="-log")

    def test_concave_evaluator_rejected(self):
        with pytest.raises(ValueError, match="midpoint convexity"):
            ConvexGenerator(math.sqrt, 0.0, name="sqrt")


class TestTruncationEvent:
    def schedule(self, taus):
        return TauSchedule(taus=np.asarray(taus, dtype=float), kind="manual")

    def test_spike_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            TruncationEvent(self.schedule([1.0]), np.array([1.0, 1.0]), 1)

    def test_horizon_range(self):
        u = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="horizon"):
            TruncationEvent(self.schedule([1.0, 2.0]), u, 3)
        with pytest.raises(ValueError, match="horizon"):
            TruncationEvent(self.schedule([1.0]), u, 0)

    def test_overlap_predicate_on_transcript(self):
        d = 16
        inst = make_spiked(d, 2.0, seed=7)
        u = inst.theta
        session = open_session(inst, budget=3)
        session.query(u)                       # overlap d * 1 = 16
        w = np.zeros(d)
        w[0], w[1] = u[1], -u[0]
        session.query(w / np.linalg.norm(w))   # orthogonalized against u
        session.query(u)                       # repeat: degenerate, overlap 0
        t = session.finalize(u)

        tight = TruncationEvent(self.schedule([d - 1.0, d, d]), u, 3)
        loose = TruncationEvent(self.schedule([d + 1.0, d, d]), u, 3)
        assert not tight.holds(t)
        assert loose.holds(t)
        overlaps = loose.overlaps(t)
        assert overlaps[0] == pytest.approx(d, abs=1e-8)
        assert overlaps[2] == 0.0

    def test_horizon_beyond_transcript_rejected(self):
        inst = make_spiked(8, 1.5, seed=3)
        session = open_session(inst, budget=2)
        session.query(np.eye(8)[0])
        t = session.finalize(np.eye(8)[1])
        ev = TruncationEvent(self.schedule([4.0, 4.0]), inst.theta, 2)
        with pytest.raises(ValueError, match="steps"):
            ev.holds(t)


class TestDF:
    def test_chi2_self_divergence_is_one(self):
        nu = np.array([0.2, 0.5, 0.3])
        assert d_f(nu, nu, CHI2_PLUS1_GENERATOR) == pytest.approx(1.0, abs=1e-12)

    def test_kl_self_divergence_is_zero(self):
        nu = np.array([0.2, 0.5, 0.3])
        assert d_f(nu, nu, KL_GENERATOR) == pytest.approx(0.0, abs=1e-12)

    def test_worked_chi2_value(self):
        assert d_f([0.3, 0.2], [0.5, 0.5], CHI2_PLUS1_GENERATOR) == pytest.approx(
            0.26, abs=1e-12
        )

    def test_escaped_mass_with_infinite_slope(self):
        assert d_f([0.3, 0.2], [1.0, 0.0], CHI2_PLUS1_GENERATOR) == math.inf
        assert d_f([0.3, 0.2], [1.0, 0.0], KL_GENERATOR) == math.inf

    def test_zero_mass_off_support_is_ignored(self):
        value = d_f([0.3, 0.0], [0.6, 0.0], CHI2_PLUS1_GENERATOR)
        assert value == pytest.approx(0.6 * 0.25, abs=1e-12)

    def test_zero_nu_rejected(self):
        with pytest.raises(ValueError, match="positive total"):
            d_f([0.3, 0.2], [0.0, 0.0], CHI2_PLUS1_GENERATOR)

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError, match="support"):
            d_f([0.3, 0.2], [1.0], CHI2_PLUS1_GENERATOR)

    def test_chi2_distance_like_lower_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(2, 8)
            mu = rng.random(n) + 1e-3
            nu = rng.random(n) + 1e-3
            value = chi2_plus1(mu, nu)
            assert value >= mu.sum() ** 2 / nu.sum() - 1e-12
        nu = rng.random(5) + 1e-3
        mu = 0.7 * nu
        assert chi2_plus1(mu, nu) == pytest.approx(mu.sum() ** 2 / nu.sum(), rel=1e-12)


class TestSpecializations:
    def test_chi2_of_half_mass(self):
        nu = np.array([0.5, 0.3, 0.2])
        assert chi2_plus1(0.5 * nu, nu) == pytest.approx(0.25, abs=1e-12)

    def test_kl_two_point_masses(self):
        assert kl([0.3], [0.5]) == pytest.approx(0.3 * math.log(0.3 / 0.5), abs=1e-12)


class TestPhiF:
    def test_worked_value(self):
        assert phi_f(0.5, 0.5, 1.0, 1.0, CHI2_PLUS1_GENERATOR) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_chi2_closed_form(self):
        a, b, p, q = 0.3, 0.4, 0.8, 1.2
        expect = a**2 / b + (p - a) ** 2 / (q - b)
        assert phi_f(a, b, p, q, CHI2_PLUS1_GENERATOR) == pytest.approx(expect)

    def test_minimum_at_proportional_point(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = rng.uniform(0.2, 1.0)
            q = rng.uniform(0.5, 2.0)
            b = rng.uniform(0.05, 0.95) * q
            floor = q * CHI2_PLUS1_GENERATOR(p / q)
            a_star = (p / q) * b
            assert phi_f(a_star, b, p, q, CHI2_PLUS1_GENERATOR) == pytest.approx(floor)
            for a in np.linspace(0, p, 9):
                assert phi_f(a, b, p, q, CHI2_PLUS1_GENERATOR) >= floor - 1e-12

    def test_joint_convexity_random_midpoints(self):
        rng = np.random.default_rng(17)
        p, q = 1.0, 1.0
        for f in (CHI2_PLUS1_GENERATOR, KL_GENERATOR):
            for _ in range(60):
                a1, a2 = rng.uniform(0.01, 0.99, size=2) * p
                b1, b2 = rng.uniform(0.01, 0.99, size=2) * q
                mid = phi_f((a1 + a2) / 2, (b1 + b2) / 2, p, q, f)
                assert mid <= (phi_f(a1, b1, p, q, f) + phi_f(a2, b2, p, q, f)) / 2 + 1e-9

    def test_boundaries(self):
        assert phi_f(0.0, 0.0, 1.0, 1.0, CHI2_PLUS1_GENERATOR) == pytest.approx(1.0)
        assert phi_f(0.5, 0.0, 1.0, 1.0, CHI2_PLUS1_GENERATOR) == math.inf
        assert phi_f(1.0, 1.0, 1.0, 1.0, CHI2_PLUS1_GENERATOR) == pytest.approx(1.0)
        assert phi_f(0.5, 1.0, 1.0, 1.0, CHI2_PLUS1_GENERATOR) == math.inf

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            phi_f(1.2, 0.5, 1.0, 1.0, CHI2_PLUS1_GENERATOR)
        with pytest.raises(ValueError):
            phi_f(0.5, 1.2, 1.0, 1.0, CHI2_PLUS1_GENERATOR)
        with pytest.raises(ValueError):
            phi_f(0.5, 0.5, 1.0, 0.0, CHI2_PLUS1_GENERATOR)


class TestGenFano:
    def test_zero_information_returns_blind_guess(self):
        assert gen_fano_value_bound(0.3, 0.8, 1.0, 0.0, CHI2_PLUS1_GENERATOR) == (
            pytest.approx(0.24)
        )

    def test_huge_information_returns_total_mass_cap(self):
        assert gen_fano_value_bound(0.3, 0.8, 1.0, 1e6, CHI2_PLUS1_GENERATOR) == (
            pytest.approx(0.8)
        )

    def test_domain_errors(self):
        f = CHI2_PLUS1_GENERATOR
        with pytest.raises(ValueError):
            gen_fano_value_bound(1.0, 0.8, 1.0, 1.0, f)
        with pytest.raises(ValueError):
            gen_fano_value_bound(0.3, 0.0, 1.0, 1.0, f)
        with pytest.raises(ValueError):
            gen_fano_value_bound(0.3, 0.8, 0.0, 1.0, f)
        with pytest.raises(ValueError):
            gen_fano_value_bound(0.3, 0.8, 1.0, -1.0, f)

    def test_closed_form_matches_bisection(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            V0 = rng.uniform(0.05, 0.9)
            p = rng.uniform(0.1, 1.0)
            info = rng.uniform(0.0, 3.0 * p * p / V0)
            closed = chi2_fano_value_bound(V0, p, info)
            bisected = gen_fano_value_bound(V0, p, 1.0, info, CHI2_PLUS1_GENERATOR)
            assert closed == pytest.approx(bisected, abs=1e-6)

    def test_closed_form_regimes(self):
        assert chi2_fano_value_bound(0.3, 0.8, 0.5) == pytest.approx(0.24)
        at_cap = chi2_fano_value_bound(0.3, 0.8, 0.64 / 0.3)
        assert at_cap == pytest.approx(0.8, abs=1e-12)
        grid = [chi2_fano_value_bound(0.3, 0.8, t) for t in np.linspace(0, 3, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))


class TestGlobalFano:
    def test_worked_value(self):
        assert global_fano_bound(math.exp(-10.0), 0.0) == pytest.approx(
            math.log(2.0) / 10.0
        )

    def test_clipped_when_blind_guess_is_easy(self):
        assert global_fano_bound(0.999999, 1.0) == 1.0

    def test_monotone_in_information(self):
        grid = [global_fano_bound(0.01, t) for t in np.linspace(0, 4, 30)]
        assert all(b >= a for a, b in zip(grid, grid[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            global_fano_bound(1.0, 1.0)
        with pytest.raises(ValueError):
            global_fano_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            global_fano_bound(0.5, -1.0)


class TestTruncatedChi2TV:
    def test_no_truncation_identical_distributions(self):
        assert truncated_chi2_tv(1.0, 1.0) == 0.0

    def test_all_mass_truncated_is_vacuous(self):
        assert truncated_chi2_tv(1.0, 0.0) == 1.0

    def test_worked_value(self):
        assert truncated_chi2_tv(1.04, 1.0) == pytest.approx(0.1, abs=1e-12)

    def test_radicand_clamped(self):
        assert truncated_chi2_tv(0.5, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            truncated_chi2_tv(1.0, 1.5)
        with pytest.raises(ValueError):
            truncated_chi2_tv(-0.1, 0.5)


class TestGaussianKL:
    def test_equal_means(self):
        assert gaussian_kl(np.ones(3), np.ones(3), np.eye(3)) == 0.0

    def test_identity_covariance(self):
        mu1 = np.array([1.0, 0.0, 0.0])
        assert gaussian_kl(mu1, np.zeros(3), np.eye(3)) == pytest.approx(0.5)

    def test_pseudo_inverse_on_support(self):
        sigma = np.diag([1.0, 1.0, 0.0])
        dmu = np.array([1.0, 1.0, 0.0])
        assert gaussian_kl(dmu, np.zeros(3), sigma) == pytest.approx(1.0)

    def test_kernel_component_rejected(self):
        sigma = np.diag([1.0, 1.0, 0.0])
        dmu = np.array([1.0, 0.0, 0.5])
        with pytest.raises(ValueError, match="kernel"):
            gaussian_kl(dmu, np.zeros(3), sigma)

    def test_asymmetric_covariance_rejected(self):
        sigma = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            gaussian_kl(np.ones(2), np.zeros(2), sigma)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            gaussian_kl(np.ones(2), np.zeros(2), np.diag([1.0, -1.0]))

    def test_rescaled_covariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        sigma = a @ a.T
        dmu = rng.standard_normal(4)
        base = gaussian_kl(dmu, np.zeros(4), sigma)
        scaled = gaussian_kl(dmu, np.zeros(4), sigma / 50.0)
        assert scaled == pytest.approx(50.0 * base, rel=1e-9)


class TestGChi:
    def test_orthogonal_spike_gives_one(self):
        d = 8
        v = np.eye(d)[0]
        u = np.eye(d)[1]
        assert g_chi(u, u, [v], 1, 2.0, d) == pytest.approx(1.0)

    def test_spike_aligned_with_first_query(self):
        d, lam = 20, 0.5
        v = np.eye(d)[0]
        assert g_chi(v, v, [v], 1, lam, d) == pytest.approx(
            math.exp(lam**2 * d / 2.0), rel=1e-12
        )

    def test_matches_explicit_pseudo_inverse_quadratic_form(self):
        rng = np.random.default_rng(31)
        d, lam = 12, 0.9
        for _ in range(20):
            k = int(rng.integers(1, 5))
            queries = random_orthonormal(d, k, rng)
            u = sample_uniform_sphere(d, rng)
            s = sample_uniform_sphere(d, rng)
            i = int(rng.integers(1, k + 1))
            vi = queries[i - 1]
            P = np.eye(d) - sum(np.outer(v, v) for v in queries[: i - 1])
            pinv = P - 0.5 * np.outer(vi, vi)
            exponent = lam**2 * d * (vi @ u) * (vi @ s) * (u @ P @ pinv @ P @ s)
            assert g_chi(u, s, queries, i, lam, d) == pytest.approx(
                math.exp(exponent), rel=1e-10
            )

    def test_non_orthonormal_rejected(self):
        d = 6
        v = np.ones(d) / math.sqrt(d)
        with pytest.raises(ValueError, match="orthonormal"):
            g_chi(v, v, [v, v], 2, 1.0, d)

    def test_index_and_dimension_errors(self):
        v = np.eye(4)[0]
        with pytest.raises(IndexError):
            g_chi(v, v, [v], 2, 1.0, 4)
        with pytest.raises(ValueError, match="dimension"):
            g_chi(v, v, [v], 1, 1.0, 5)

    def test_monte_carlo_cross_moment(self):
        rng = np.random.default_rng(47)
        d, lam, n = 20, 0.5, 200_000
        k = 3
        queries = random_orthonormal(d, k, rng)
        u = sample_uniform_sphere(d, rng)
        s = sample_uniform_sphere(d, rng)
        i = k
        vi = queries[i - 1]
        P = np.eye(d) - sum(np.outer(v, v) for v in queries[: i - 1])
        pinv = P - 0.5 * np.outer(vi, vi)
        sqrt_sigma = P + (math.sqrt(2.0) - 1.0) * np.outer(vi, vi)
        mu_u = lam * (vi @ u) * (P @ u)
        mu_s = lam * (vi @ s) * (P @ s)

        w = (rng.standard_normal((n, d)) @ sqrt_sigma) / math.sqrt(d)
        log_ru = d * (w @ (pinv @ mu_u)) - 0.5 * d * (mu_u @ pinv @ mu_u)
        log_rs = d * (w @ (pinv @ mu_s)) - 0.5 * d * (mu_s @ pinv @ mu_s)
        samples = np.exp(log_ru + log_rs)
        closed = g_chi(u, s, queries, i, lam, d)
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - closed) <= max(4.0 * se, 0.05 * closed)


class TestLikelihoodProductBound:
    def test_orthogonal_spikes(self):
        d = 10
        u, s = np.eye(d)[0], np.eye(d)[1]
        taus = [2.0, 3.0]
        expect = math.exp(1.5**2 * (5.0**2 / d))
        assert likelihood_product_bound(u, s, taus, 1.5, d, 2) == pytest.approx(expect)

    def test_zero_signal(self):
        d = 10
        u = np.eye(d)[0]
        assert likelihood_product_bound(u, u, [1.0, 1.0], 0.0, d, 2) == 1.0

    def test_schedule_sum_past_the_float_range_caps_at_inf(self):
        # S = sum of taus overflows: S^2 / d is inf, and a zero overlap
        # times S is 0 by the 0 * inf = 0 convention, not a NaN that hides it
        u, s = np.eye(4)[0], np.eye(4)[1]
        taus = [8.988465674311579e307, 8.98846567431158e307]
        assert likelihood_product_bound(u, s, taus, 1.0, 1) == math.inf
        assert likelihood_product_bound(u, s, taus, 0.0, 1) == 1.0

    def test_schedule_validation(self):
        u = np.eye(4)[0]
        with pytest.raises(ValueError, match="positive"):
            likelihood_product_bound(u, u, [1.0, -1.0], 1.0, 4, 2)
        with pytest.raises(ValueError, match="T must"):
            likelihood_product_bound(u, u, [1.0], 1.0, 4, 2)

    def test_dominates_g_chi_product_on_feasible_configurations(self):
        rng = np.random.default_rng(59)
        d = 50
        for _ in range(100):
            T = int(rng.integers(1, 6))
            lam = rng.uniform(0.5, 2.0)
            queries = random_orthonormal(d, T, rng)
            u = sample_uniform_sphere(d, rng)
            s = sample_uniform_sphere(d, rng)
            coords_u = np.array([v @ u for v in queries])
            coords_s = np.array([v @ s for v in queries])
            taus = d * np.maximum(coords_u**2, coords_s**2) + 1e-9
            product = math.prod(
                g_chi(u, s, queries, i, lam, d) for i in range(1, T + 1)
            )
            cap = likelihood_product_bound(u, s, taus, lam, d, T)
            assert product <= cap * (1.0 + 1e-10)


class TestSphereMGFBound:
    def test_zero_argument(self):
        assert sphere_mgf_bound(0.0, 50) == 1.0

    def test_worked_value(self):
        expect = math.exp(1.0 + 5.0 * math.sqrt(0.02))
        assert sphere_mgf_bound(5.0, 100) == pytest.approx(expect, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sphere_mgf_bound(-1.0, 10)
        with pytest.raises(ValueError):
            sphere_mgf_bound(1.0, 0)

    def test_monte_carlo_dominance(self):
        rng = np.random.default_rng(61)
        d, n = 100, 100_000
        g = rng.standard_normal((n, d))
        overlaps = np.abs(g[:, 0] / np.linalg.norm(g, axis=1))
        for lam in (1.0, 5.0, 10.0):
            empirical = np.exp(lam * overlaps).mean()
            assert empirical <= sphere_mgf_bound(lam, d)


measure_arrays = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.tuples(
        *(
            st.lists(
                st.floats(min_value=1e-3, max_value=5.0),
                min_size=n,
                max_size=n,
            )
            for _ in range(4)
        )
    )
)


class TestFDivergenceProperties:
    @settings(max_examples=60, deadline=None)
    @given(measure_arrays, st.floats(min_value=0.05, max_value=0.95))
    def test_joint_convexity(self, arrays, alpha):
        mu1, nu1, mu2, nu2 = (np.array(a) for a in arrays)
        for f in (CHI2_PLUS1_GENERATOR, KL_GENERATOR):
            mixed = d_f(alpha * mu1 + (1 - alpha) * mu2, alpha * nu1 + (1 - alpha) * nu2, f)
            split = alpha * d_f(mu1, nu1, f) + (1 - alpha) * d_f(mu2, nu2, f)
            assert mixed <= split + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(measure_arrays)
    def test_normalization_identity(self, arrays):
        mu, nu = np.array(arrays[0]), np.array(arrays[1])
        for f in (CHI2_PLUS1_GENERATOR, KL_GENERATOR):
            g = scaled_generator(f, mu.sum(), nu.sum())
            assert d_f(mu, nu, f) == pytest.approx(
                d_f(mu / mu.sum(), nu / nu.sum(), g), abs=1e-9, rel=1e-9
            )

    def test_linearity(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            mu = rng.random(n) + 1e-3
            nu = rng.random(n) + 1e-3
            alpha = rng.uniform(-2.0, 2.0)
            beta = rng.uniform(0.1, 3.0)
            for f in (CHI2_PLUS1_GENERATOR, KL_GENERATOR):
                combo = ConvexGenerator(
                    lambda x, f=f, a=alpha, b=beta: b * f(x) + a,
                    beta * f.slope_at_infinity,
                    check=False,
                )
                assert d_f(mu, nu, combo) == pytest.approx(
                    alpha * nu.sum() + beta * d_f(mu, nu, f), abs=1e-9, rel=1e-9
                )

    def test_data_processing(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            n = int(rng.integers(2, 21))
            k = int(rng.integers(2, 21))
            mu = rng.random(n) + 1e-3
            nu = rng.random(n) + 1e-3
            channel = rng.random((k, n)) + 1e-3
            channel /= channel.sum(axis=0, keepdims=True)
            for f in (CHI2_PLUS1_GENERATOR, KL_GENERATOR):
                assert d_f(channel @ mu, channel @ nu, f) <= d_f(mu, nu, f) + 1e-9


# Whole-domain contracts: a valid value (never NaN; inf where the exponent
# leaves the float range) or ValueError, with lambda up to 1e300 and beyond.
_finite_or_not = st.floats(allow_nan=True, allow_infinity=True)
_lam_any = st.one_of(st.floats(0.0, 1e300), _finite_or_not)


def _unit_vectors(d, k, seed, basis):
    """k orthonormal vectors of R^d: the first k standard basis vectors (so
    that a spike on the last axis has exactly zero overlaps), or random."""
    if basis:
        return [np.eye(d)[j] for j in range(k)]
    return random_orthonormal(d, k, np.random.default_rng(seed))


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 6),
    data=st.data(),
    lam=_lam_any,
    seed=st.integers(0, 2**32 - 1),
    basis=st.booleans(),
)
@example(d=4, data=None, lam=1e300, seed=0, basis=True)
@example(d=4, data=None, lam=math.inf, seed=0, basis=True)
def test_g_chi_total_on_domain(d, data, lam, seed, basis):
    k = 1 if data is None else data.draw(st.integers(1, d))
    i = 1 if data is None else data.draw(st.integers(1, k))
    queries = _unit_vectors(d, k, seed, basis)
    spikes = _unit_vectors(d, d, seed + 1, basis)
    u, s = spikes[-1], spikes[0]
    try:
        value = g_chi(u, s, queries, i, lam, d)
    except ValueError:
        return
    assert not math.isnan(value) and value >= 0.0


@settings(max_examples=300, deadline=None)
@given(
    taus=st.lists(st.one_of(st.floats(1e-3, 1e3), _finite_or_not), max_size=6),
    lam=_lam_any,
    d=st.one_of(st.integers(-2, 10**4), st.integers(1, 10**30)),
    T=st.one_of(st.none(), st.integers(-1, 7)),
    seed=st.integers(0, 2**32 - 1),
    basis=st.booleans(),
)
@example(taus=[], lam=1e300, d=10, T=None, seed=0, basis=True)
@example(taus=[1.0, math.inf], lam=0.0, d=10, T=None, seed=0, basis=True)
@example(taus=[1.0, 2.0], lam=1e200, d=10, T=None, seed=0, basis=True)
@example(
    taus=[8.988465674311579e307, 8.98846567431158e307], lam=0.0, d=1, T=None, seed=0,
    basis=True,
)
def test_likelihood_product_bound_total_on_domain(taus, lam, d, T, seed, basis):
    u, s = _unit_vectors(4, 2, seed, basis)
    try:
        value = likelihood_product_bound(u, s, taus, lam, d, T)
    except ValueError:
        return
    assert not math.isnan(value) and value >= 1.0


@settings(max_examples=300, deadline=None)
@given(
    lambda_arg=_lam_any,
    d=st.one_of(st.integers(-2, 10**4), st.integers(1, 10**30)),
)
@example(lambda_arg=1e3, d=10)
@example(lambda_arg=1e200, d=10)
def test_sphere_mgf_bound_total_on_domain(lambda_arg, d):
    try:
        value = sphere_mgf_bound(lambda_arg, d)
    except ValueError:
        return
    assert not math.isnan(value) and value >= 1.0


class TestLikelihoodChain:
    def test_truncated_second_moment_chain(self):
        rng = np.random.default_rng(73)
        d, lam, T, n = 24, 0.8, 3, 120_000
        queries = random_orthonormal(d, T, rng)
        u = sample_uniform_sphere(d, rng)
        coords = np.array([v @ u for v in queries])
        taus = d * coords**2 + 1e-9

        log_ratio = np.zeros(n)
        feasible = np.ones(n, dtype=bool)
        for i in range(1, T + 1):
            vi = queries[i - 1]
            P = np.eye(d) - sum(np.outer(v, v) for v in queries[: i - 1])
            pinv = P - 0.5 * np.outer(vi, vi)
            sqrt_sigma = P + (math.sqrt(2.0) - 1.0) * np.outer(vi, vi)
            mu_u = lam * (vi @ u) * (P @ u)
            w = (rng.standard_normal((n, d)) @ sqrt_sigma) / math.sqrt(d)
            log_ratio += 2.0 * (d * (w @ (pinv @ mu_u)) - 0.5 * d * (mu_u @ pinv @ mu_u))

        samples = np.exp(log_ratio) * feasible
        second_moment = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(n)
        product = math.prod(g_chi(u, u, queries, i, lam, d) for i in range(1, T + 1))
        schedule_cap = math.exp(lam**2 * taus.sum())

        assert second_moment <= product + 5.0 * se + 0.05 * product
        assert product <= schedule_cap * (1.0 + 1e-10)
        assert abs(second_moment - product) <= max(5.0 * se, 0.05 * product)
