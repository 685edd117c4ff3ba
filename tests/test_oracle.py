"""Unit tests for the budgeted query oracle and transcript mechanics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikequery import make_spiked, sample_goe, sample_uniform_sphere, spectrum
from spikequery.oracle import (
    BudgetExhaustedError,
    QuerySession,
    SessionFinalizedError,
    finalize,
    open_session,
    projected_view,
    query,
    reconstruct_raw_responses,
    score,
    transcript_rows,
)


def _unit(v):
    return v / np.linalg.norm(v)


# -------------------------------------------------------------- open_session

def test_budget_enforced():
    sess = open_session(np.eye(4), budget=3)
    rng = np.random.default_rng(0)
    for _ in range(3):
        query(sess, _unit(rng.standard_normal(4)))
    with pytest.raises(BudgetExhaustedError):
        query(sess, _unit(rng.standard_normal(4)))


def test_zero_budget_rejected():
    with pytest.raises(ValueError):
        open_session(np.eye(4), budget=0)


def test_session_hides_matrix():
    inst = make_spiked(12, 2.0, seed=0)
    sess = open_session(inst, budget=2)
    public = [a for a in dir(sess) if not a.startswith("_")]
    assert set(public) == {
        "basis",
        "basis_size",
        "budget",
        "dim",
        "finalize",
        "finalized",
        "projected_view",
        "queries_made",
        "query",
        "remaining",
        "transcript",
    }
    for name in ("matrix", "instance", "theta", "noise", "instance_matrix"):
        assert not hasattr(sess, name)


def test_transcript_initially_empty():
    sess = open_session(np.eye(4), budget=2)
    assert sess.queries_made == 0
    assert sess.basis().shape == (4, 0)


# --------------------------------------------------------------------- query

def test_query_identity():
    sess = open_session(np.eye(5), budget=1)
    v = _unit(np.arange(1.0, 6.0))
    assert np.allclose(query(sess, v), v, atol=1e-14)


def test_query_diag():
    sess = open_session(np.diag([2.0, 0.0]), budget=1)
    w = query(sess, np.array([1.0, 0.0]))
    assert np.array_equal(w, [2.0, 0.0])


def test_query_exactness():
    inst = make_spiked(64, 3.0, seed=5)
    sess = open_session(inst, budget=4)
    rng = np.random.default_rng(1)
    norm = spectrum(inst.matrix).op_norm
    for _ in range(4):
        v = _unit(rng.standard_normal(64))
        w = query(sess, v)
        assert np.linalg.norm(w - inst.matrix @ v) <= 1e-10 * norm


def test_repeated_query_consumes_budget_no_new_basis():
    sess = open_session(sample_goe(6, seed=2), budget=3)
    v = _unit(np.ones(6))
    query(sess, v)
    query(sess, v)
    assert sess.queries_made == 2
    assert sess.basis_size == 1
    step = projected_view(sess, 2)
    assert step.degenerate
    assert step.query is None
    assert np.array_equal(step.response, np.zeros(6))


def test_query_rejects_non_unit_and_nonfinite():
    sess = open_session(np.eye(3), budget=2)
    with pytest.raises(ValueError):
        query(sess, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        query(sess, np.array([np.nan, 0.0, 0.0]))


# ------------------------------------------------------------ projected_view

def test_first_projected_equals_raw():
    M = sample_goe(8, seed=3)
    sess = open_session(M, budget=1)
    v = _unit(np.arange(1.0, 9.0))
    w = query(sess, v)
    step = projected_view(sess, 1)
    assert np.allclose(step.query, v, atol=1e-12)
    assert np.allclose(step.response, w, atol=1e-12)


def test_orthogonal_queries_on_identity():
    sess = open_session(np.eye(4), budget=2)
    v1 = np.array([1.0, 0.0, 0.0, 0.0])
    v2 = np.array([0.0, 1.0, 0.0, 0.0])
    query(sess, v1)
    query(sess, v2)
    step = projected_view(sess, 2)
    assert np.allclose(step.response, v2, atol=1e-12)


def test_projected_view_out_of_range():
    sess = open_session(np.eye(3), budget=1)
    query(sess, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(IndexError):
        projected_view(sess, 2)
    with pytest.raises(IndexError):
        projected_view(sess, 0)


def test_projected_orthogonal_to_prior_span():
    inst = make_spiked(30, 2.0, seed=7)
    sess = open_session(inst, budget=6)
    rng = np.random.default_rng(4)
    for _ in range(6):
        query(sess, _unit(rng.standard_normal(30)))
    B = sess.basis()
    for i in range(2, 7):
        step = projected_view(sess, i)
        prior = B[:, : i - 1]
        assert np.max(np.abs(prior.T @ step.response)) <= 1e-8


# ------------------------------------------------------------------ finalize

def test_finalize_seals_session():
    sess = open_session(np.eye(3), budget=2)
    query(sess, np.array([1.0, 0.0, 0.0]))
    t = finalize(sess, np.array([0.0, 1.0, 0.0]))
    assert t.queries_made == 1
    assert len(t) == 2
    with pytest.raises(SessionFinalizedError):
        query(sess, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(SessionFinalizedError):
        finalize(sess, np.array([0.0, 0.0, 1.0]))


def test_finalize_records_output_exactly():
    sess = open_session(np.eye(3), budget=1)
    v_hat = _unit(np.array([1.0, 2.0, 2.0]))
    t = finalize(sess, v_hat)
    assert np.array_equal(t.final_output, v_hat)


def test_transcript_immutable():
    sess = open_session(np.eye(3), budget=1)
    query(sess, np.array([1.0, 0.0, 0.0]))
    t = finalize(sess, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        t.final_output[0] = 5.0
    with pytest.raises(Exception):
        t.budget = 99


# ------------------------------------------------------- invariants on paths

def test_gram_matrix_near_identity_under_adversarial_queries():
    # queries nearly parallel to each other stress the orthonormalization
    d = 40
    M = sample_goe(d, seed=11)
    sess = open_session(M, budget=12)
    rng = np.random.default_rng(8)
    base = _unit(rng.standard_normal(d))
    for k in range(12):
        v = _unit(base + 1e-7 * rng.standard_normal(d))
        query(sess, v)
    B = sess.basis()
    G = B.T @ B
    assert np.max(np.abs(G - np.eye(B.shape[1]))) <= 1e-8


def test_raw_responses_recoverable_from_projected():
    inst = make_spiked(25, 1.5, seed=9)
    sess = open_session(inst, budget=8)
    rng = np.random.default_rng(10)
    base = _unit(rng.standard_normal(25))
    for k in range(8):
        # mix of fresh, correlated, and exactly repeated queries
        if k == 3:
            v = base
        elif k == 5:
            v = _unit(base + 0.01 * rng.standard_normal(25))
        else:
            v = _unit(rng.standard_normal(25))
        if k == 0:
            v = base
        query(sess, v)
    t = finalize(sess, _unit(rng.standard_normal(25)))
    rebuilt = reconstruct_raw_responses(t)
    for st, w in zip(t.steps, rebuilt):
        assert np.linalg.norm(st.raw_response - w) <= 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10))
def test_basis_orthonormal_random_paths(seed, T):
    d = 15
    rng = np.random.default_rng(seed)
    sess = open_session(sample_goe(d, seed=seed), budget=T)
    for _ in range(T):
        query(sess, _unit(rng.standard_normal(d)))
    B = sess.basis()
    assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) <= 1e-8


def test_power_session_round_trips_through_near_dependent_queries():
    # power iterates converge, so late queries lie within 1e-6 of the span
    # of the earlier ones; their basis directions come from tiny residuals
    d, T = 1000, 40
    inst = make_spiked(d, 3.0, seed=5)
    sess = open_session(inst, budget=T)
    v = sample_uniform_sphere(d, seed=6)
    residuals = []
    for _ in range(T):
        B = sess.basis()
        residuals.append(np.linalg.norm(v - B @ (B.T @ v)))
        v = _unit(query(sess, v))
    t = finalize(sess, v)
    fresh = [r for r, st in zip(residuals, t.steps) if not st.degenerate]
    assert min(fresh) < 1e-6
    for st, w in zip(t.steps, reconstruct_raw_responses(t)):
        assert np.linalg.norm(st.raw_response - w) <= 1e-8
    B = sess.basis()
    assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) <= 1e-8


def test_basis_storage_capped_at_dimension():
    d, budget = 6, 100_000
    tracemalloc.start()
    try:
        sess = open_session(sample_goe(d, seed=12), budget=budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget * d * 8 // 100  # not one basis row per budgeted query
    rng = np.random.default_rng(13)
    for _ in range(d + 3):
        query(sess, _unit(rng.standard_normal(d)))
    assert sess.basis_size == d
    B = sess.basis()
    assert np.max(np.abs(B.T @ B - np.eye(d))) <= 1e-8


# ----------------------------------------------- matvecs and lazy images

class CountingMatrix(np.ndarray):
    """A view of a matrix that records how many vectors each ``@`` applies it to."""

    def __matmul__(self, other):
        other = np.asarray(other)
        self.columns.append(1 if other.ndim == 1 else other.shape[-1])
        return np.matmul(self.view(np.ndarray), other)


def _counting(M):
    view = M.view(CountingMatrix)
    view.columns = []
    return view


def test_each_query_applies_matrix_once():
    d = 20
    M = _counting(sample_goe(d, seed=21))
    # QuerySession directly: open_session would strip the subclass
    sess = QuerySession(M, budget=8)
    rng = np.random.default_rng(22)
    v = _unit(rng.standard_normal(d))
    for k in range(8):
        if k not in (2, 5):  # steps 3 and 6 repeat a query exactly
            v = _unit(rng.standard_normal(d))
        query(sess, v)
        assert M.columns == [1] * (k + 1)
    assert sess.basis_size == 6
    finalize(sess, v)
    assert M.columns == [1] * 8 + [6]  # one block product for the basis images


def test_images_computed_once_across_a_mid_session_read():
    d = 20
    M = _counting(sample_goe(d, seed=23))
    sess = QuerySession(M, budget=7)
    rng = np.random.default_rng(24)
    for _ in range(4):
        query(sess, _unit(rng.standard_normal(d)))
    projected_view(sess, 2)
    projected_view(sess, 4)
    assert M.columns == [1] * 4 + [4]
    for _ in range(3):
        query(sess, _unit(rng.standard_normal(d)))
    finalize(sess, _unit(rng.standard_normal(d)))
    assert M.columns == [1] * 4 + [4] + [1] * 3 + [3]


def _reference_projected(M, steps):
    """Per step: M b_i one vector at a time, then two classical Gram-Schmidt
    passes against b_1..b_{i-1}; the zero vector for degenerate steps."""
    out, basis = [], []
    for st in steps:
        if st.degenerate:
            out.append(np.zeros(M.shape[0]))
            continue
        y = M @ st.basis_vector
        if basis:
            Q = np.array(basis)
            for _ in range(2):
                y = y - (Q @ y) @ Q
        out.append(y)
        basis.append(st.basis_vector)
    return out


def _assert_projected_match_reference(M, t):
    norm = np.max(np.abs(np.linalg.eigvalsh(M)))
    for st, ref in zip(t.steps, _reference_projected(M, t.steps)):
        assert np.linalg.norm(st.projected_response - ref) <= 1e-12 * norm
        if st.degenerate:
            assert np.array_equal(st.projected_response, np.zeros(t.dim))


def test_lazy_projected_responses_match_reference():
    d = 30
    M = sample_goe(d, seed=25)
    sess = open_session(M, budget=10)
    rng = np.random.default_rng(26)
    v = _unit(rng.standard_normal(d))
    early = []
    for k in range(10):
        if k not in (3, 7):  # exact repeats: degenerate steps
            v = _unit(rng.standard_normal(d))
        query(sess, v)
        if k == 4:  # read mid-session, then keep querying
            early = [projected_view(sess, i) for i in range(1, 6)]
    t = finalize(sess, v)
    assert [st.degenerate for st in t.steps].count(True) == 2
    _assert_projected_match_reference(M, t)
    for st, view in zip(t.steps, early):
        assert np.array_equal(st.projected_response, view.response)
        assert view.degenerate == st.degenerate


def test_lazy_projected_responses_beyond_dimension():
    d, budget = 6, 10
    M = sample_goe(d, seed=27)
    sess = open_session(M, budget=budget)
    rng = np.random.default_rng(28)
    for _ in range(budget):
        query(sess, _unit(rng.standard_normal(d)))
    t = finalize(sess, _unit(rng.standard_normal(d)))
    assert [st.degenerate for st in t.steps] == [False] * d + [True] * (budget - d)
    _assert_projected_match_reference(M, t)


def test_lazy_projected_responses_of_near_dependent_power_session():
    d, T = 1000, 40
    inst = make_spiked(d, 3.0, seed=5)
    sess = open_session(inst, budget=T)
    v = sample_uniform_sphere(d, seed=6)
    for _ in range(T):
        v = _unit(query(sess, v))
    t = finalize(sess, v)
    _assert_projected_match_reference(inst.matrix, t)


# --------------------------------------------------------------------- score

def test_score_pure_spike():
    d = 16
    theta = sample_uniform_sphere(d, seed=1)
    M = 3.0 * np.outer(theta, theta)
    # assemble an instance with zero noise
    from spikequery import SpikedInstance

    inst = SpikedInstance(theta=theta, lam=3.0, noise=np.zeros((d, d)), matrix=M)
    sess = open_session(inst, budget=1)
    query(sess, theta)
    t = finalize(sess, theta)
    s = score(t, inst)
    assert abs(s.rayleigh_ratio - 1.0) <= 1e-10
    assert abs(s.spike_overlap - 1.0) <= 1e-12
    assert np.allclose(s.step_overlaps, [d])


def test_score_orthogonal_output():
    d = 16
    theta = np.zeros(d)
    theta[0] = 1.0
    from spikequery import SpikedInstance

    inst = SpikedInstance(
        theta=theta, lam=2.0, noise=np.zeros((d, d)), matrix=2.0 * np.outer(theta, theta)
    )
    sess = open_session(inst, budget=1)
    perp = np.zeros(d)
    perp[1] = 1.0
    query(sess, perp)
    t = finalize(sess, perp)
    s = score(t, inst)
    assert s.spike_overlap == 0.0


def test_score_dimension_mismatch():
    inst = make_spiked(8, 1.0, seed=0)
    other = make_spiked(9, 1.0, seed=0)
    sess = open_session(inst, budget=1)
    t = finalize(sess, np.eye(8)[0])
    with pytest.raises(ValueError):
        score(t, other)


def test_transcript_rows_shape():
    inst = make_spiked(10, 2.0, seed=3)
    sess = open_session(inst, budget=2)
    rng = np.random.default_rng(0)
    query(sess, _unit(rng.standard_normal(10)))
    query(sess, _unit(rng.standard_normal(10)))
    t = finalize(sess, _unit(rng.standard_normal(10)))
    rows = transcript_rows(t, inst)
    assert len(rows) == 3
    assert [r[0] for r in rows] == [1, 2, 3]
    assert all(isinstance(r[1], str) and len(r[1]) == 12 for r in rows)
    # same transcript, same rows (deterministic hashing)
    assert rows == transcript_rows(t, inst)
