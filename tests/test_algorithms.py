import math
from dataclasses import fields

import numpy as np
import pytest

from spikequery.algorithms import (
    ALGORITHM_KINDS,
    AlgorithmConfig,
    _candidate_quotients,
    queries_to_target,
    run,
)
from spikequery.instances import (
    SpikedInstance,
    make_lazy_spiked,
    make_spiked,
    sample_uniform_sphere,
    spectral_norm,
)
from spikequery.oracle import open_session


def diagonal_instance(diag, lam=0.0):
    d = len(diag)
    theta = np.zeros(d)
    theta[0] = 1.0
    return SpikedInstance(theta=theta, lam=lam, matrix=np.diag(np.asarray(diag, dtype=float)))


def rank_one_instance(theta, lam):
    return SpikedInstance(theta=theta, lam=lam, matrix=lam * np.outer(theta, theta))


def overlap(v, theta):
    return float(v @ theta) ** 2


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            AlgorithmConfig(kind="gradient")

    def test_init_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            AlgorithmConfig(init=np.array([1.0, 1.0]))

    def test_init_must_be_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            AlgorithmConfig(init=np.full(4, np.nan))

    def test_budget_lives_in_the_session(self):
        assert [f.name for f in fields(AlgorithmConfig)] == ["kind", "seed", "init"]

    def test_kinds_enumeration(self):
        assert set(ALGORITHM_KINDS) == {"power", "lanczos", "random"}
        inst = make_spiked(16, 2.0, seed=0)
        for kind in ALGORITHM_KINDS:
            session = open_session(inst, budget=3)
            out, _ = run(session, AlgorithmConfig(kind=kind, seed=1))
            assert session.finalized
            assert np.array_equal(session.transcript.final_output, out)


def session_ritz(m, queries):
    """The Ritz pair of a session on the bare matrix m after the queries."""
    session = open_session(m, budget=max(len(queries), 1))
    for q in queries:
        session.query(q)
    return session.ritz()


class TestRitzFromPairs:
    """The session's Ritz pair, read from the compression it grows from its
    (query, response) pairs."""

    def test_empty_pairs(self):
        vec, val = session_ritz(np.eye(3), [])
        assert vec is None and val == -math.inf

    def test_single_pair_is_rayleigh(self):
        inst = diagonal_instance([3.0, 1.0, 0.5])
        q = np.array([3.0, 4.0, 0.0]) / 5.0
        vec, val = session_ritz(inst.matrix, [q])
        assert val == pytest.approx(q @ inst.matrix @ q)
        assert abs(vec @ q) == pytest.approx(1.0, abs=1e-12)

    def test_full_basis_recovers_top_eigenpair(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        m = (a + a.T) / 2.0
        vec, val = session_ritz(m, [np.eye(6)[j] for j in range(6)])
        w, v = np.linalg.eigh(m)
        assert val == pytest.approx(w[-1], abs=1e-10)
        assert overlap(vec, v[:, -1]) == pytest.approx(1.0, abs=1e-10)

    def test_duplicate_queries_are_harmless(self):
        m = np.diag([2.0, 1.0])
        q = np.eye(2)[0]
        vec, val = session_ritz(m, [q, q])
        assert val == pytest.approx(2.0)


class TestPowerMethod:
    def test_converges_on_diagonal_gap(self):
        inst = diagonal_instance([3.0] + [1.0] * 19)
        session = open_session(inst, budget=30)
        out, _ = run(session, AlgorithmConfig(kind="power", seed=5))
        assert overlap(out, inst.theta) >= 1.0 - 1e-6

    def test_fixed_point_on_identity(self):
        inst = diagonal_instance([1.0] * 8)
        session = open_session(inst, budget=5)
        init = np.ones(8) / math.sqrt(8.0)
        out, _ = run(session, AlgorithmConfig(kind="power", init=init))
        assert out @ init == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_under_seed(self):
        inst = make_spiked(64, 3.0, seed=11)
        outs = []
        for _ in range(2):
            session = open_session(inst, budget=6)
            outs.append(run(session, AlgorithmConfig(kind="power", seed=9))[0])
        assert np.array_equal(outs[0], outs[1])

    def test_uses_entire_budget(self):
        inst = make_spiked(32, 2.0, seed=1)
        session = open_session(inst, budget=7)
        run(session, AlgorithmConfig(kind="power", seed=2))
        assert session.queries_made == 7


class TestLanczos:
    def test_full_dimension_run_is_exact(self):
        inst = make_spiked(12, 2.5, seed=13)
        session = open_session(inst, budget=12)
        out, _ = run(session, AlgorithmConfig(kind="lanczos", seed=3))
        w, v = np.linalg.eigh(inst.matrix)
        assert overlap(out, v[:, -1]) >= 1.0 - 1e-8

    def test_rank_one_matrix_two_queries(self):
        rng = np.random.default_rng(17)
        theta = rng.standard_normal(10)
        theta /= np.linalg.norm(theta)
        inst = rank_one_instance(theta, 5.0)
        session = open_session(inst, budget=2)
        out, _ = run(session, AlgorithmConfig(kind="lanczos", seed=23))
        assert overlap(out, theta) >= 1.0 - 1e-8

    def test_breakdown_stops_early(self):
        inst = diagonal_instance([2.0, 1.0, 0.5])
        init = np.eye(3)[0]
        session = open_session(inst, budget=3)
        out, _ = run(session, AlgorithmConfig(kind="lanczos", init=init))
        assert session.queries_made == 1
        assert overlap(out, init) == pytest.approx(1.0, abs=1e-12)
        assert session.transcript.early_termination

    @pytest.mark.parametrize("lam", [3.0, 1e6, 1e150])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("make", [make_spiked, make_lazy_spiked])
    def test_breakdown_is_relative_to_the_response(self, make, d, lam):
        # the Krylov space closes after d queries, whatever the scale of M;
        # at d = 3 and lam = 1e150 it closes after 2, since W's part of
        # M q_2, of order 1, is below the rounding of lam theta <theta, q_2>
        closes = 2 if (d, lam) == (3, 1e150) else d
        for seed in range(3):
            rng = np.random.default_rng(seed)
            session = open_session(make(d, lam, seed=rng), budget=6)
            run(session, AlgorithmConfig(kind="lanczos", seed=rng))
            t = session.transcript
            assert t.queries_made == closes
            assert t.early_termination
            assert not any(st.degenerate for st in t.steps)

    def test_ritz_value_monotone_in_budget(self):
        inst = make_spiked(40, 2.0, seed=29)
        values = []
        for budget in range(1, 9):
            session = open_session(inst, budget=budget)
            out, _ = run(session, AlgorithmConfig(kind="lanczos", seed=31))
            values.append(out @ inst.matrix @ out)
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_beats_power_at_matched_budget(self):
        wins = 0
        trials = 12
        for trial in range(trials):
            inst = make_spiked(600, 3.0, seed=100 + trial)
            sessions = [open_session(inst, budget=8) for _ in range(2)]
            power, _ = run(sessions[0], AlgorithmConfig(kind="power", seed=trial))
            lanczos, _ = run(sessions[1], AlgorithmConfig(kind="lanczos", seed=trial))
            if lanczos @ inst.matrix @ lanczos >= power @ inst.matrix @ power - 1e-12:
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
            run(session, AlgorithmConfig(kind="random", seed=41))
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
            out, _ = run(session, AlgorithmConfig(kind="random", seed=trial))
            overlaps.append(overlap(out, inst.theta))
        assert np.median(overlaps) <= 0.05


class TestRun:
    def test_prefix_property_matches_full_run(self):
        # a shorter budget runs the same first queries, for every kind
        inst = make_spiked(30, 2.0, seed=47)
        for kind in ALGORITHM_KINDS:
            transcripts = []
            for budget in (3, 5):
                session = open_session(inst, budget=budget)
                run(session, AlgorithmConfig(kind=kind, seed=7))
                transcripts.append(session.transcript)
            short, full = transcripts
            assert short.queries_made == 3 and full.queries_made == 5
            for a, b in zip(short.steps, full.steps[:3]):
                assert np.array_equal(a.query, b.query)


def _candidates_from_scratch(m, kind, seed, queries):
    """Each step's candidate output, recomputed with the dense matrix m:
    power iterates from the run's starting vector, or the top Ritz vector
    of the span of the queries so far."""
    if kind == "power":
        v = sample_uniform_sphere(m.shape[0], np.random.default_rng(seed))
        out = []
        for _ in queries:
            w = m @ v
            v = w / np.linalg.norm(w)
            out.append(v)
        return out
    out = []
    for t in range(1, len(queries) + 1):
        basis, _ = np.linalg.qr(np.column_stack(queries[:t]))
        basis = basis[:, : min(t, m.shape[0])]
        _, vecs = np.linalg.eigh(basis.T @ m @ basis)
        out.append(basis @ vecs[:, -1])
    return out


class TestIncrementalRitz:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["lanczos", "random"])
    def test_candidates_match_from_scratch_ritz(self, kind, seed):
        # each step's candidate quotient is the top Ritz value of the span of
        # the queries so far, and the output is that span's top Ritz vector
        d, T = 200, 64
        inst = make_spiked(d, 3.0, seed=seed)
        m = inst.matrix
        norm = spectral_norm(m)
        session = open_session(inst, budget=T)
        out, _ = run(session, AlgorithmConfig(kind=kind, seed=seed + 100))
        steps = session.transcript.steps
        assert len(steps) == T
        quotients = _candidate_quotients(session, kind)
        queries = np.column_stack([st.query for st in steps])
        for t in range(1, T + 1):
            basis, _ = np.linalg.qr(queries[:, :t])
            vals, vecs = np.linalg.eigh(basis.T @ m @ basis)
            assert abs(quotients[t - 1] - vals[-1]) <= 1e-10 * norm
        assert overlap(out, basis @ vecs[:, -1]) >= 1.0 - 1e-10
        assert abs(out @ m @ out - vals[-1]) <= 1e-10 * norm
        # a fresh session fed the same queries, one Ritz solve at the end
        vec, val = session_ritz(m, [st.query for st in steps])
        assert overlap(vec, out) >= 1.0 - 1e-10
        assert abs(val - vals[-1]) <= 1e-10 * norm


class TestCandidateQuotients:
    @pytest.mark.parametrize(
        "kind, d, lam, T",
        [("power", 200, 3.0, 20), ("lanczos", 200, 3.0, 64), ("random", 200, 3.0, 64),
         ("power", 60, 1e4, 40), ("lanczos", 30, 3.0, 40)],
        ids=["power", "lanczos", "random", "power-degenerate", "lanczos-breakdown"],
    )
    def test_match_candidates_from_scratch(self, kind, d, lam, T):
        # the quotient read from the finished session after each step equals
        # v^T M v of that step's candidate v, recomputed from scratch
        inst = make_spiked(d, lam, seed=d + T)
        m = inst.matrix
        norm = spectral_norm(m)
        session = open_session(inst, budget=T)
        run(session, AlgorithmConfig(kind=kind, seed=5))
        steps = session.transcript.steps
        quotients = _candidate_quotients(session, kind)
        assert quotients.shape == (len(steps),)
        candidates = _candidates_from_scratch(m, kind, 5, [st.query for st in steps])
        expected = [float(v @ m @ v) / float(v @ v) for v in candidates]
        assert np.max(np.abs(quotients - expected)) <= 1e-12 * norm
        if kind == "power":
            # the candidate after step t is the query of step t + 1
            for v, st in zip(candidates, steps[1:]):
                assert np.max(np.abs(v - st.query)) <= 1e-12
        if lam > 100:  # power converges to within DEGENERATE_TOL of its span
            assert any(st.degenerate for st in steps)
        if d < T:  # the Krylov space of R^d closes before the budget is spent
            assert len(steps) < T and session.transcript.early_termination


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
        out, _ = run(session, AlgorithmConfig(kind="power", seed=5))
        assert overlap(out, theta) >= 1.0 - 1e-10

    def test_sentinel_when_budget_exhausted(self):
        assert queries_to_target("random", 400, 1.5, 0.999, seed=5, max_T=3) == 4

    def test_strong_spike_found_quickly(self):
        # over seeds 1000-1599 the count was at most 3 in 77% of trials, 4 in
        # 21%, 5 in 2% and 6 in 0.2%
        counts = [
            queries_to_target("lanczos", 128, 10.0, 0.9, seed=s, max_T=32)
            for s in range(5)
        ]
        assert np.median(counts) <= 3
        assert max(counts) <= 5

    def test_deterministic_under_seed(self):
        a = queries_to_target("power", 64, 4.0, 0.8, seed=19, max_T=16)
        b = queries_to_target("power", 64, 4.0, 0.8, seed=19, max_T=16)
        assert a == b

    def test_unknown_kind_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="kind"):
            queries_to_target("subspace", 16, 2.0, 0.5)

        def no_build(*args, **kwargs):
            raise AssertionError("instance built before the kind was validated")

        monkeypatch.setattr("spikequery.algorithms.make_lazy_spiked", no_build)
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
        run(session, AlgorithmConfig(kind="lanczos", seed=5))
        assert session.queries_made == 64
        assert calls == [(64, 64)]

    @pytest.mark.parametrize(
        "kind, d, T",
        [("power", 200, 64), ("lanczos", 200, 64), ("random", 200, 64),
         ("lanczos", 30, 40)],
        ids=["power", "lanczos", "random", "lanczos-breakdown"],
    )
    def test_run_output_is_last_candidate(self, kind, d, T):
        # the output is power's last normalized response, or the Ritz
        # maximizer of a fresh session fed the run's queries
        inst = make_spiked(d, 3.0, seed=67)
        session = open_session(inst, budget=T)
        out, ritz = run(session, AlgorithmConfig(kind=kind, seed=9))
        steps = session.transcript.steps
        if kind == "power":
            w = steps[-1].raw_response
            assert np.array_equal(out, w / np.linalg.norm(w))
            assert ritz is None
        else:
            vec, val = session_ritz(inst.matrix, [st.query for st in steps])
            assert np.array_equal(out, vec) and ritz == val
            norm = spectral_norm(inst.matrix)
            assert abs(ritz - out @ inst.matrix @ out) <= 1e-10 * norm
        if (kind, d) == ("lanczos", 30):
            # the Krylov space of R^30 closes before the budget is spent
            assert len(steps) < T
            assert session.transcript.early_termination
