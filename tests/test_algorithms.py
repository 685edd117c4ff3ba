import math

import numpy as np
import pytest

from spikequery.algorithms import (
    ALGORITHM_KINDS,
    AlgorithmConfig,
    RUNNERS,
    iterate_candidates,
    queries_to_target,
    ritz_from_pairs,
    run_lanczos,
    run_power,
    run_random_nonadaptive,
)
from spikequery.instances import SpikedInstance, make_spiked, rayleigh, spectral_norm
from spikequery.oracle import open_session


def diagonal_instance(diag, lam=0.0):
    d = len(diag)
    theta = np.zeros(d)
    theta[0] = 1.0
    matrix = np.diag(np.asarray(diag, dtype=float))
    noise = (matrix - lam * np.outer(theta, theta)) * math.sqrt(d)
    return SpikedInstance(theta=theta, lam=lam, noise=noise, matrix=matrix)


def rank_one_instance(theta, lam):
    matrix = lam * np.outer(theta, theta)
    return SpikedInstance(
        theta=theta, lam=lam, noise=np.zeros_like(matrix), matrix=matrix
    )


def overlap(v, theta):
    return float(v @ theta) ** 2


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            AlgorithmConfig(kind="gradient")

    def test_init_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            AlgorithmConfig(init=np.array([1.0, 1.0]))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            AlgorithmConfig(budget=-1)

    def test_kinds_enumeration(self):
        assert set(ALGORITHM_KINDS) == {"power", "lanczos", "random"}
        assert set(RUNNERS) == set(ALGORITHM_KINDS)


class TestRitzFromPairs:
    def test_empty_pairs(self):
        vec, val = ritz_from_pairs([], [])
        assert vec is None and val == -math.inf

    def test_single_pair_is_rayleigh(self):
        inst = diagonal_instance([3.0, 1.0, 0.5])
        q = np.array([3.0, 4.0, 0.0]) / 5.0
        vec, val = ritz_from_pairs([q], [inst.matrix @ q])
        assert val == pytest.approx(rayleigh(inst.matrix, q))
        assert abs(vec @ q) == pytest.approx(1.0, abs=1e-12)

    def test_full_basis_recovers_top_eigenpair(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        m = (a + a.T) / 2.0
        qs = [np.eye(6)[j] for j in range(6)]
        vec, val = ritz_from_pairs(qs, [m @ q for q in qs])
        w, v = np.linalg.eigh(m)
        assert val == pytest.approx(w[-1], abs=1e-10)
        assert overlap(vec, v[:, -1]) == pytest.approx(1.0, abs=1e-10)

    def test_duplicate_queries_are_harmless(self):
        m = np.diag([2.0, 1.0])
        q = np.eye(2)[0]
        vec, val = ritz_from_pairs([q, q], [m @ q, m @ q])
        assert val == pytest.approx(2.0)


class TestPowerMethod:
    def test_converges_on_diagonal_gap(self):
        inst = diagonal_instance([3.0] + [1.0] * 19)
        session = open_session(inst, budget=30)
        out = run_power(session, AlgorithmConfig(kind="power", seed=5))
        assert overlap(out, inst.theta) >= 1.0 - 1e-6

    def test_fixed_point_on_identity(self):
        inst = diagonal_instance([1.0] * 8)
        session = open_session(inst, budget=5)
        init = np.ones(8) / math.sqrt(8.0)
        out = run_power(session, AlgorithmConfig(kind="power", init=init))
        assert out @ init == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_under_seed(self):
        inst = make_spiked(64, 3.0, seed=11)
        outs = []
        for _ in range(2):
            session = open_session(inst, budget=6)
            outs.append(run_power(session, AlgorithmConfig(kind="power", seed=9)))
        assert np.array_equal(outs[0], outs[1])

    def test_uses_entire_budget(self):
        inst = make_spiked(32, 2.0, seed=1)
        session = open_session(inst, budget=7)
        run_power(session, AlgorithmConfig(kind="power", seed=2))
        assert session.queries_made == 7

    def test_shift_changes_iterates_not_fixed_points(self):
        inst = diagonal_instance([3.0] + [1.0] * 15)
        session = open_session(inst, budget=25)
        out = run_power(session, AlgorithmConfig(kind="power", seed=5, shift=0.5))
        assert overlap(out, inst.theta) >= 1.0 - 1e-6


class TestLanczos:
    def test_full_dimension_run_is_exact(self):
        inst = make_spiked(12, 2.5, seed=13)
        session = open_session(inst, budget=12)
        out = run_lanczos(session, AlgorithmConfig(kind="lanczos", seed=3))
        w, v = np.linalg.eigh(inst.matrix)
        assert overlap(out, v[:, -1]) >= 1.0 - 1e-8

    def test_rank_one_matrix_two_queries(self):
        rng = np.random.default_rng(17)
        theta = rng.standard_normal(10)
        theta /= np.linalg.norm(theta)
        inst = rank_one_instance(theta, 5.0)
        session = open_session(inst, budget=2)
        out = run_lanczos(session, AlgorithmConfig(kind="lanczos", seed=23))
        assert overlap(out, theta) >= 1.0 - 1e-8

    def test_breakdown_stops_early(self):
        inst = diagonal_instance([2.0, 1.0, 0.5])
        init = np.eye(3)[0]
        session = open_session(inst, budget=3)
        out = run_lanczos(session, AlgorithmConfig(kind="lanczos", init=init))
        assert session.queries_made == 1
        assert overlap(out, init) == pytest.approx(1.0, abs=1e-12)
        assert session.transcript.early_termination

    def test_ritz_value_monotone_in_budget(self):
        inst = make_spiked(40, 2.0, seed=29)
        values = []
        for budget in range(1, 9):
            session = open_session(inst, budget=budget)
            out = run_lanczos(session, AlgorithmConfig(kind="lanczos", seed=31))
            values.append(rayleigh(inst.matrix, out))
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_beats_power_at_matched_budget(self):
        wins = 0
        trials = 12
        for trial in range(trials):
            inst = make_spiked(600, 3.0, seed=100 + trial)
            sessions = [open_session(inst, budget=8) for _ in range(2)]
            power = run_power(sessions[0], AlgorithmConfig(kind="power", seed=trial))
            lanczos = run_lanczos(sessions[1], AlgorithmConfig(kind="lanczos", seed=trial))
            if rayleigh(inst.matrix, lanczos) >= rayleigh(inst.matrix, power) - 1e-12:
                wins += 1
        assert wins >= trials - 1


class TestRandomNonadaptive:
    def test_queries_are_independent_of_responses(self):
        inst = make_spiked(50, 3.0, seed=37)
        flat = diagonal_instance([1.0] * 50)
        t_spiked = None
        t_flat = None
        for inst_, store in ((inst, "spiked"), (flat, "flat")):
            session = open_session(inst_, budget=5)
            run_random_nonadaptive(session, AlgorithmConfig(kind="random", seed=41))
            t = session.transcript
            if store == "spiked":
                t_spiked = t
            else:
                t_flat = t
        for a, b in zip(t_spiked.steps, t_flat.steps):
            assert np.array_equal(a.query, b.query)

    def test_near_orthogonal_output_in_high_dimension(self):
        overlaps = []
        for trial in range(10):
            inst = make_spiked(1500, 2.0, seed=43 + trial)
            session = open_session(inst, budget=8)
            out = run_random_nonadaptive(
                session, AlgorithmConfig(kind="random", seed=trial)
            )
            overlaps.append(overlap(out, inst.theta))
        assert np.median(overlaps) <= 0.05


class TestIterateCandidates:
    def test_yields_one_candidate_per_query(self):
        inst = make_spiked(30, 2.0, seed=47)
        session = open_session(inst, budget=5)
        config = AlgorithmConfig(kind="power", seed=7)
        candidates = list(iterate_candidates(session, config))
        assert len(candidates) == 5
        assert session.queries_made == 5
        for c in candidates:
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-10)

    def test_prefix_property_matches_full_run(self):
        inst = make_spiked(30, 2.0, seed=47)
        session_a = open_session(inst, budget=3)
        partial = list(iterate_candidates(session_a, AlgorithmConfig(kind="power", seed=7)))
        session_b = open_session(inst, budget=5)
        full = list(iterate_candidates(session_b, AlgorithmConfig(kind="power", seed=7)))
        for a, b in zip(partial, full):
            assert np.array_equal(a, b)


class TestIncrementalRitz:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["lanczos", "random"])
    def test_candidates_match_from_scratch_ritz(self, kind, seed):
        d, T = 200, 64
        inst = make_spiked(d, 3.0, seed=seed)
        m = inst.matrix
        norm = spectral_norm(m)
        session = open_session(inst, budget=T)
        config = AlgorithmConfig(kind=kind, seed=seed + 100)
        candidates = list(iterate_candidates(session, config))
        assert len(candidates) == T
        steps = session.finalize(candidates[-1]).steps
        queries = np.column_stack([st.query for st in steps])
        for t, cand in enumerate(candidates, start=1):
            basis, _ = np.linalg.qr(queries[:, :t])
            vals, vecs = np.linalg.eigh(basis.T @ m @ basis)
            assert overlap(cand, basis @ vecs[:, -1]) >= 1.0 - 1e-10
            assert abs(rayleigh(m, cand) - vals[-1]) <= 1e-10 * norm
        vec, val = ritz_from_pairs(
            [st.query for st in steps], [st.raw_response for st in steps]
        )
        assert overlap(vec, candidates[-1]) >= 1.0 - 1e-10
        assert abs(val - vals[-1]) <= 1e-10 * norm


class TestQueriesToTarget:
    def test_target_domain(self):
        with pytest.raises(ValueError, match="target"):
            queries_to_target("power", 16, 2.0, 1.0)
        with pytest.raises(ValueError, match="target"):
            queries_to_target("power", 16, 2.0, -0.1)

    def test_zero_target_met_by_first_candidate(self):
        assert queries_to_target("power", 16, 2.0, 0.0, seed=1) == 1

    def test_pure_spike_regime_converges_fast(self):
        rng = np.random.default_rng(83)
        theta = rng.standard_normal(12)
        theta /= np.linalg.norm(theta)
        inst = rank_one_instance(theta, 3.0)
        session = open_session(inst, budget=3)
        out = run_power(session, AlgorithmConfig(kind="power", seed=5))
        assert overlap(out, theta) >= 1.0 - 1e-10

    def test_sentinel_when_budget_exhausted(self):
        assert queries_to_target("random", 400, 1.5, 0.999, seed=5, max_T=3) == 4

    def test_strong_spike_found_quickly(self):
        counts = [
            queries_to_target("lanczos", 128, 10.0, 0.9, seed=s, max_T=32)
            for s in range(5)
        ]
        assert max(counts) <= 4

    def test_deterministic_under_seed(self):
        a = queries_to_target("power", 64, 4.0, 0.8, seed=19, max_T=16)
        b = queries_to_target("power", 64, 4.0, 0.8, seed=19, max_T=16)
        assert a == b

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            queries_to_target("subspace", 16, 2.0, 0.5)


class TestOneRitzSolve:
    def test_lanczos_run_solves_ritz_once(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        inst = make_spiked(200, 3.0, seed=61)
        session = open_session(inst, budget=64)
        run_lanczos(session, AlgorithmConfig(kind="lanczos", seed=5))
        assert session.queries_made == 64
        assert calls == [(64, 64)]

    @pytest.mark.parametrize(
        "kind, d, T",
        [("power", 200, 64), ("lanczos", 200, 64), ("random", 200, 64),
         ("lanczos", 30, 40)],
        ids=["power", "lanczos", "random", "lanczos-breakdown"],
    )
    def test_run_output_is_last_candidate(self, kind, d, T):
        inst = make_spiked(d, 3.0, seed=67)
        session_a = open_session(inst, budget=T)
        out = RUNNERS[kind](session_a, AlgorithmConfig(kind=kind, seed=9))
        session_b = open_session(inst, budget=T)
        candidates = list(iterate_candidates(session_b, AlgorithmConfig(kind=kind, seed=9)))
        assert session_a.queries_made == len(candidates)
        assert np.array_equal(out, candidates[-1])
        if (kind, d) == ("lanczos", 30):
            # the Krylov space of R^30 closes before the budget is spent
            assert len(candidates) < T
            assert session_a.transcript.early_termination
