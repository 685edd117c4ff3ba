"""Unit tests for the budgeted query oracle and transcript mechanics."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, ks_2samp, kstest
from scipy.stats import norm as normal

from spikequery import (
    AlgorithmConfig,
    LazySpikedInstance,
    make_lazy_spiked,
    make_spiked,
    run,
    sample_goe,
    sample_uniform_sphere,
    spectral_norm,
)
from spikequery import instances, oracle
from spikequery.oracle import (
    BudgetExhaustedError,
    QuerySession,
    SessionFinalizedError,
    open_session,
    score,
)


def _unit(v):
    return v / np.linalg.norm(v)


def reconstruct_raw_responses(transcript):
    """Every raw response rebuilt from the projected records alone, which
    checks the images the session carries for its basis directions.

    Inductively, M b_i = y_i + sum_{j<i} b_j (Mb_j . b_i) with y_i the
    projected response, and each raw query expands in the accumulated basis,
    so M v^(i) follows by linearity.  Round-trip accuracy is limited only by
    the orthonormalization floating-point error.
    """
    basis, images, out = [], [], []
    for st in transcript.steps:
        if not st.degenerate:
            mb = st.projected_response.copy()
            for b, img in zip(basis, images):
                mb += b * (img @ st.basis_vector)
            basis.append(st.basis_vector)
            images.append(mb)
        if basis:
            B = np.column_stack(basis)
            out.append(np.column_stack(images) @ (B.T @ st.query))
        else:
            out.append(np.zeros(transcript.dim))
    return out


# -------------------------------------------------------------- open_session

def test_budget_enforced():
    sess = open_session(np.eye(4), budget=3)
    rng = np.random.default_rng(0)
    for _ in range(3):
        sess.query(_unit(rng.standard_normal(4)))
    with pytest.raises(BudgetExhaustedError):
        sess.query(_unit(rng.standard_normal(4)))


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
        "compression",
        "dim",
        "finalize",
        "finalized",
        "projected_view",
        "queries_made",
        "query",
        "remaining",
        "residual",
        "ritz",
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
    assert np.allclose(sess.query(v), v, atol=1e-14)


def test_query_diag():
    sess = open_session(np.diag([2.0, 0.0]), budget=1)
    w = sess.query(np.array([1.0, 0.0]))
    assert np.array_equal(w, [2.0, 0.0])


def test_query_exactness():
    inst = make_spiked(64, 3.0, seed=5)
    sess = open_session(inst, budget=4)
    rng = np.random.default_rng(1)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(inst.matrix))))
    for _ in range(4):
        v = _unit(rng.standard_normal(64))
        w = sess.query(v)
        assert np.linalg.norm(w - inst.matrix @ v) <= 1e-10 * norm


def test_repeated_query_consumes_budget_no_new_basis():
    sess = open_session(sample_goe(6, seed=2), budget=3)
    v = _unit(np.ones(6))
    sess.query(v)
    sess.query(v)
    assert sess.queries_made == 2
    assert sess.basis_size == 1
    step = sess.projected_view(2)
    assert step.degenerate
    assert step.basis_vector is None
    assert np.array_equal(step.projected_response, np.zeros(6))


def test_each_query_leaves_one_record():
    sess = open_session(sample_goe(6, seed=4), budget=4)
    rng = np.random.default_rng(5)
    v = _unit(rng.standard_normal(6))
    for k in range(4):
        if k != 2:  # step 3 repeats step 2: a degenerate record
            v = _unit(rng.standard_normal(6))
        sess.query(v)
    assert set(vars(sess)) == {"_dim", "_budget", "_basis", "_steps", "_transcript"}
    open_views = [sess.projected_view(i) for i in range(1, 5)]
    t = sess.finalize(v)
    assert [st.degenerate for st in t.steps] == [False, False, True, False]
    for i in range(1, 5):
        assert sess.projected_view(i) is t.steps[i - 1]
        assert open_views[i - 1] is t.steps[i - 1]


def test_query_rejects_non_unit_and_nonfinite():
    sess = open_session(np.eye(3), budget=2)
    with pytest.raises(ValueError):
        sess.query(np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        sess.query(np.array([np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("v, message", [
    ([np.nan, 0.0, 0.0], "non-finite entries"),
    ([np.inf, 0.0, 0.0], "non-finite entries"),
    ([-np.inf, 0.0, 0.0], "non-finite entries"),
    ([np.inf, -np.inf, 0.0], "non-finite entries"),
    ([np.nan, np.inf, 1.0], "non-finite entries"),
    ([1e200, 0.0, 0.0], "unit norm"),  # finite, but its square overflows
    ([1e200, -1e200, 1.0], "unit norm"),
    ([1.0, 1.0, 0.0], "unit norm"),
    ([1.0 + 2e-8, 0.0, 0.0], "unit norm"),
    ([0.0, 0.0, 0.0], "unit norm"),
])
def test_query_check_names_what_is_wrong(v, message):
    # the squares of 1e200 overflow: the check raises its ValueError, with no
    # NumPy RuntimeWarning, which the suite's filterwarnings makes an error
    with pytest.raises(ValueError, match=f"query (has|must be) {message}"):
        oracle._check_query_vector(np.array(v), 3)
    with pytest.raises(ValueError, match=f"final output (has|must be) {message}"):
        oracle._check_query_vector(np.array(v), 3, what="final output")
    sess = open_session(np.eye(3), budget=1)
    with pytest.raises(ValueError, match=message):
        sess.query(np.array(v))


def test_query_check_takes_the_unit_norm_as_np_linalg_norm_does():
    # the check's |v| is sqrt(v.dot(v)), bit for bit np.linalg.norm's, so a
    # vector at the edge of UNIT_TOL is accepted or refused as before
    rng = np.random.default_rng(3)
    for d in (1, 3, 50, 1000):
        for _ in range(50):
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            v *= 1.0 + rng.uniform(-1.5, 1.5) * oracle.UNIT_TOL
            assert np.sqrt(v.dot(v)) == np.linalg.norm(v)
            accepted = abs(np.linalg.norm(v) - 1.0) <= oracle.UNIT_TOL
            try:
                oracle._check_query_vector(v, d)
            except ValueError:
                assert not accepted
            else:
                assert accepted


# ------------------------------------------------------------ projected_view

def test_first_projected_equals_raw():
    M = sample_goe(8, seed=3)
    sess = open_session(M, budget=1)
    v = _unit(np.arange(1.0, 9.0))
    w = sess.query(v)
    step = sess.projected_view(1)
    assert np.allclose(step.basis_vector, v, atol=1e-12)
    assert np.allclose(step.projected_response, w, atol=1e-12)


def test_orthogonal_queries_on_identity():
    sess = open_session(np.eye(4), budget=2)
    v1 = np.array([1.0, 0.0, 0.0, 0.0])
    v2 = np.array([0.0, 1.0, 0.0, 0.0])
    sess.query(v1)
    sess.query(v2)
    step = sess.projected_view(2)
    assert np.allclose(step.projected_response, v2, atol=1e-12)


def test_projected_view_out_of_range():
    sess = open_session(np.eye(3), budget=1)
    sess.query(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(IndexError):
        sess.projected_view(2)
    with pytest.raises(IndexError):
        sess.projected_view(0)


def test_projected_orthogonal_to_prior_span():
    inst = make_spiked(30, 2.0, seed=7)
    sess = open_session(inst, budget=6)
    rng = np.random.default_rng(4)
    for _ in range(6):
        sess.query(_unit(rng.standard_normal(30)))
    B = sess.basis()
    for i in range(2, 7):
        step = sess.projected_view(i)
        prior = B[:, : i - 1]
        assert np.max(np.abs(prior.T @ step.projected_response)) <= 1e-8


# ------------------------------------------------------------------ finalize

def test_finalize_seals_session():
    sess = open_session(np.eye(3), budget=2)
    sess.query(np.array([1.0, 0.0, 0.0]))
    t = sess.finalize(np.array([0.0, 1.0, 0.0]))
    assert t.queries_made == 1
    assert len(t) == 2
    with pytest.raises(SessionFinalizedError):
        sess.query(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(SessionFinalizedError):
        sess.finalize(np.array([0.0, 0.0, 1.0]))


def test_finalize_records_output_exactly():
    sess = open_session(np.eye(3), budget=1)
    v_hat = _unit(np.array([1.0, 2.0, 2.0]))
    t = sess.finalize(v_hat)
    assert np.array_equal(t.final_output, v_hat)


def test_transcript_immutable():
    sess = open_session(np.eye(3), budget=1)
    sess.query(np.array([1.0, 0.0, 0.0]))
    t = sess.finalize(np.array([0.0, 1.0, 0.0]))
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
        sess.query(v)
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
        sess.query(v)
    t = sess.finalize(_unit(rng.standard_normal(25)))
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
        sess.query(_unit(rng.standard_normal(d)))
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
        v = _unit(sess.query(v))
    t = sess.finalize(v)
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
        sess.query(_unit(rng.standard_normal(d)))
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
        sess.query(v)
        assert M.columns == [1] * (k + 1)
    assert sess.basis_size == 6
    t = sess.finalize(v)
    assert M.columns == [1] * 8  # sealing applies nothing
    for st in t.steps:
        st.projected_response  # read from the carried images
    assert M.columns == [1] * 8


def test_images_computed_once_across_a_mid_session_read():
    d = 20
    M = _counting(sample_goe(d, seed=23))
    sess = QuerySession(M, budget=7)
    rng = np.random.default_rng(24)
    for _ in range(4):
        sess.query(_unit(rng.standard_normal(d)))
    early = [sess.projected_view(i).projected_response for i in (2, 4)]
    assert M.columns == [1] * 4
    for _ in range(2):
        sess.query(_unit(rng.standard_normal(d)))
    # a query that keeps less than 1/sqrt(2) of itself off the span: its
    # carried image would lose the digits that cancel, so its direction is
    # applied once, as it is added
    b1 = sess.basis()[:, 0]
    sess.query(_unit(b1 + 0.1 * _unit(rng.standard_normal(d))))
    assert sess.basis_size == 7
    assert M.columns == [1] * 6 + [1, 1]
    t = sess.finalize(_unit(rng.standard_normal(d)))
    for st in t.steps:
        st.projected_response
    assert M.columns == [1] * 6 + [1, 1]  # sealing and reading apply nothing
    for i, y in zip((2, 4), early):
        assert np.array_equal(t.steps[i - 1].projected_response, y)
    _assert_projected_match_reference(np.asarray(M), t)


def test_dense_session_and_score_copy_no_matrix():
    # the operator of a dense instance wraps its matrix as it is: a session,
    # its finalize and score, whose norm solve runs on another operator of
    # the same matrix, allocate nothing of the matrix's size
    d = 2000
    inst = make_spiked(d, 3.0, seed=33)
    tracemalloc.start()
    try:
        session = open_session(inst, budget=6)
        run(session, AlgorithmConfig(kind="power", seed=34))
        s = score(session.transcript, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert session.queries_made == 6 and session.finalized
    assert 0.0 < s.rayleigh_ratio <= 1.0
    assert peak < 8 * d * d


def test_bare_matrix_is_read_only_under_a_sealed_transcript():
    M = sample_goe(6, seed=25)
    sess = open_session(M, budget=2)
    sess.query(_unit(np.arange(1.0, 7.0)))
    t = sess.finalize(_unit(np.ones(6)))
    with pytest.raises(ValueError):
        M[0, 0] = 1.0
    assert np.allclose(t.steps[0].projected_response, t.steps[0].raw_response, atol=1e-12)


def test_dropped_session_and_transcript_free_the_matrix_without_gc():
    # a reference cycle between session and transcript would keep M alive
    # until the cyclic collector runs, one d x d array per finished trial
    M = sample_goe(6, seed=26)
    alive = weakref.ref(M)
    gc.disable()
    try:
        sess = open_session(M, budget=2)
        sess.query(_unit(np.arange(1.0, 7.0)))
        t = sess.finalize(_unit(np.ones(6)))
        t.steps[0].projected_response
        del M, sess, t
        assert alive() is None
    finally:
        gc.enable()


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
        sess.query(v)
        if k == 4:  # read mid-session, then keep querying
            early = [sess.projected_view(i) for i in range(1, 6)]
    t = sess.finalize(v)
    assert [st.degenerate for st in t.steps].count(True) == 2
    _assert_projected_match_reference(M, t)
    for st, view in zip(t.steps, early):
        assert np.array_equal(st.projected_response, view.projected_response)
        assert view.degenerate == st.degenerate


def test_lazy_projected_responses_beyond_dimension():
    d, budget = 6, 10
    M = sample_goe(d, seed=27)
    sess = open_session(M, budget=budget)
    rng = np.random.default_rng(28)
    for _ in range(budget):
        sess.query(_unit(rng.standard_normal(d)))
    t = sess.finalize(_unit(rng.standard_normal(d)))
    assert [st.degenerate for st in t.steps] == [False] * d + [True] * (budget - d)
    _assert_projected_match_reference(M, t)


def test_lazy_projected_responses_of_near_dependent_power_session():
    d, T = 1000, 40
    inst = make_spiked(d, 3.0, seed=5)
    sess = open_session(inst, budget=T)
    v = sample_uniform_sphere(d, seed=6)
    for _ in range(T):
        v = _unit(sess.query(v))
    t = sess.finalize(v)
    _assert_projected_match_reference(inst.matrix, t)


# ------------------------------------------------------ matrix-free instances

def _counting_reveals(monkeypatch):
    """A list that grows by one per direction any lazy instance reveals."""
    reveals = []
    reveal = LazySpikedInstance._reveal

    def counting(self, b):
        reveals.append(b)
        return reveal(self, b)

    monkeypatch.setattr(LazySpikedInstance, "_reveal", counting)
    return reveals


@pytest.mark.parametrize("d, budget", [(200, 8), (5, 12)])
@pytest.mark.parametrize("kind", ["power", "lanczos", "random"])
def test_lazy_instance_reveals_one_direction_per_fresh_query(kind, d, budget, monkeypatch):
    reveals = _counting_reveals(monkeypatch)
    inst = make_lazy_spiked(d, 3.0, seed=1)
    session = open_session(inst, budget=budget)
    run(session, AlgorithmConfig(kind=kind, seed=2))
    steps = session.transcript.steps
    fresh = sum(not st.degenerate for st in steps)
    assert len(reveals) == fresh == session.basis_size == min(len(steps), d)
    assert inst._Q.shape == (min(budget, d), d)  # preallocated, never grown
    for i, st in enumerate(steps, start=1):
        assert session.projected_view(i) is st
        assert st.projected_response.shape == (d,)
    assert len(reveals) == fresh
    assert np.array_equal(np.array(reveals), session.basis().T)


def test_lazy_instance_repeated_query_is_degenerate_and_draws_nothing(monkeypatch):
    reveals = _counting_reveals(monkeypatch)
    d = 100
    v = sample_uniform_sphere(d, seed=3)
    session = open_session(make_lazy_spiked(d, 2.0, seed=4), budget=3)
    first = session.query(v)
    again = session.query(v)
    assert len(reveals) == 1
    assert session.projected_view(2).degenerate
    assert np.max(np.abs(again - first)) <= 1e-12


def test_lazy_session_needs_an_instance_that_revealed_nothing():
    d = 50
    inst = make_lazy_spiked(d, 2.0, seed=11)
    inst @ sample_uniform_sphere(d, seed=12)
    with pytest.raises(ValueError, match="before it reveals"):
        open_session(inst, budget=3)
    used = make_lazy_spiked(d, 2.0, seed=13)
    run(open_session(used, budget=3), AlgorithmConfig(kind="power", seed=14))
    with pytest.raises(ValueError, match="before it reveals"):
        open_session(used, budget=3)
    # a direction revealed behind an open session's back stops its next query
    inst = make_lazy_spiked(d, 2.0, seed=15)
    session = open_session(inst, budget=3)
    session.query(sample_uniform_sphere(d, seed=16))
    inst @ sample_uniform_sphere(d, seed=17)
    with pytest.raises(RuntimeError, match="outside its session"):
        session.query(sample_uniform_sphere(d, seed=18))


@pytest.mark.parametrize("kind", ["power", "lanczos", "random"])
def test_lazy_session_decomposes_each_query_once(kind, monkeypatch):
    # the instance's decomposition of a query is the session's Gram-Schmidt
    # step: neither side orthogonalizes the query a second time
    decomposed = []
    kernel = instances._orthogonalize

    def counting(Q, v, *args):
        decomposed.append(np.array(v))
        return kernel(Q, v, *args)

    monkeypatch.setattr(instances, "_orthogonalize", counting)
    d, T = 200, 8
    inst = make_lazy_spiked(d, 3.0, seed=19)
    session = open_session(inst, budget=T)
    run(session, AlgorithmConfig(kind=kind, seed=20))
    queries = [st.query for st in session.transcript.steps]
    assert len(queries) == T
    of_queries = [v for v in decomposed if any(np.array_equal(v, q) for q in queries)]
    assert len(of_queries) == T
    assert np.shares_memory(session._basis.rows, inst._Q)  # one store of the basis


def _project_off(B, x):
    """x minus its projection on the orthonormal columns of B."""
    return x - B @ (B.T @ x)


def test_lazy_instance_projected_responses_match_its_completed_matrix():
    # the session's projected responses are those of the dense matrix the
    # instance answers for, completed afterwards along e_1..e_d
    d = 12
    inst = make_lazy_spiked(d, 2.5, seed=5)
    session = open_session(inst, budget=4)
    run(session, AlgorithmConfig(kind="lanczos", seed=6))
    M = np.column_stack([inst @ e for e in np.eye(d)])
    for st in session.transcript.steps:
        reference = _project_off(session.basis()[:, : st.step - 1], M @ st.basis_vector)
        assert np.max(np.abs(st.projected_response - reference)) <= 1e-12


@pytest.mark.parametrize("kind", ["power", "lanczos", "random"])
def test_dense_compression_is_that_of_the_basis(kind):
    # H grows from the carried images, which power's near-dependent queries
    # take from an apply of their directions instead
    d, T = 300, 40
    inst = make_spiked(d, 3.0, seed=31)
    session = open_session(inst, budget=T)
    v_hat, value = run(session, AlgorithmConfig(kind=kind, seed=32))
    B, H = session.basis(), session.compression()
    norm = spectral_norm(inst)
    assert H.shape == (session.basis_size,) * 2
    assert np.array_equal(H, H.T)
    assert np.max(np.abs(H - B.T @ inst.matrix @ B)) <= 1e-12 * norm
    vec, top = session.ritz()
    assert top == np.linalg.eigh(H)[0][-1]
    if kind != "power":
        assert np.array_equal(vec, v_hat) and top == value


@pytest.mark.parametrize("budget", [4, 30])
@pytest.mark.parametrize("d", [12, 40])
@pytest.mark.parametrize("kind", ["power", "lanczos", "random"])
def test_lazy_compression_is_that_of_its_completed_matrix(kind, d, budget):
    # the compression and projected responses a session reads from the
    # instance are those of the dense matrix the instance answers for,
    # completed afterwards along e_1..e_d; scoring, which regrows the
    # instance's arrays when it reveals a direction, leaves them as they were
    inst = make_lazy_spiked(d, 2.5, seed=d + budget)
    session = open_session(inst, budget=budget)
    run(session, AlgorithmConfig(kind=kind, seed=7))
    t = session.transcript
    H = session.compression()
    before = [st.projected_response for st in t.steps]
    queried = inst._size
    score(t, inst)
    assert inst._size > queried or len(inst._Q) == min(budget, d)
    assert np.array_equal(session.compression(), H)
    for st, y in zip(t.steps, before):
        assert np.array_equal(st.projected_response, y)
    M = np.column_stack([inst @ e for e in np.eye(d)])
    norm = np.max(np.abs(np.linalg.eigvalsh((M + M.T) / 2)))
    B = session.basis()
    assert np.max(np.abs(H - B.T @ M @ B)) <= 1e-12 * norm
    for st in t.steps:
        if st.degenerate:
            continue
        k = len([s for s in t.steps[: st.step - 1] if not s.degenerate])
        reference = _project_off(B[:, :k], M @ st.basis_vector)
        assert np.linalg.norm(st.projected_response - reference) <= 1e-12 * norm
    # as on a dense matrix; a degenerate query's response is that of its
    # projection on the span, off by up to DEGENERATE_TOL |W| / sqrt(d)
    for st, w in zip(t.steps, reconstruct_raw_responses(t)):
        assert np.linalg.norm(st.raw_response - w) <= 1e-8


@pytest.mark.parametrize("budget", [4, 30])
@pytest.mark.parametrize("lam", [0.0, 1.5, 3.0, 1e150])
@pytest.mark.parametrize("d", [2, 3, 17, 40])
@pytest.mark.parametrize("kind", ["power", "lanczos", "random"])
def test_lazy_score_is_that_of_its_completed_matrix(kind, d, lam, budget):
    # score reads v_hat^T M v_hat and ||M|| of the matrix the instance
    # answers for, which completing it along e_1..e_d afterwards fixes
    rng = np.random.default_rng(100 * d + int(lam % 97))
    inst = make_lazy_spiked(d, lam, seed=rng)
    session = open_session(inst, budget=budget)
    v_hat, _ = run(session, AlgorithmConfig(kind=kind, seed=rng))
    queried = inst._size
    norm_solve = spectral_norm(inst)
    if kind == "lanczos" and budget == 30:
        # a span that already meets the stopping rule: the solve reveals nothing
        assert inst._size == queried
    s = score(session.transcript, inst)
    M = np.column_stack([inst @ e for e in np.eye(d)])
    norm = np.max(np.abs(np.linalg.eigvalsh((M + M.T) / 2)))
    assert abs(norm_solve - norm) <= 1e-12 * norm
    assert abs(s.rayleigh_ratio - float(v_hat @ M @ v_hat) / norm) <= 1e-12
    assert abs(spectral_norm(inst) - norm) <= 1e-12 * norm
    assert s.spike_overlap == float(v_hat @ inst.theta) ** 2


def _counting_solve_reveals(monkeypatch):
    """A list that grows by one per direction a lazy norm solve reveals."""
    reveals = []
    reveal = instances._RevealedSpan._reveal

    def counting(self, b):
        reveals.append(b)
        return reveal(self, b)

    monkeypatch.setattr(instances._RevealedSpan, "_reveal", counting)
    return reveals


@pytest.mark.parametrize(
    "kind, d, T",
    [("power", 400, 6), ("lanczos", 400, 6), ("random", 400, 6), ("lanczos", 1000, 64)],
)
def test_lazy_score_charges_no_query_and_reveals_only_its_solve(kind, d, T, monkeypatch):
    reveals = _counting_reveals(monkeypatch)
    solve = _counting_solve_reveals(monkeypatch)
    inst = make_lazy_spiked(d, 3.0, seed=9)
    session = open_session(inst, budget=T)
    run(session, AlgorithmConfig(kind=kind, seed=10))
    transcript = session.transcript
    steps, v_hat = transcript.steps, transcript.final_output.copy()
    assert len(reveals) == T
    score(transcript, inst)
    assert transcript.queries_made == session.queries_made == T
    assert session.transcript is transcript and transcript.steps is steps
    assert np.array_equal(transcript.final_output, v_hat)
    # the solve's own expansion directions, then v_hat's when it lies off
    # their span; a Ritz vector of the queried span never does
    extra = len(reveals) - T
    assert len(solve) <= extra <= len(solve) + (kind == "power")
    # the instance grew at most once: by the solve's reservation when the
    # solve expanded the span, else only for v_hat's direction, by doubling
    assert extra <= instances.NORM_SOLVE_ROWS
    if solve:
        assert inst._Q.shape == (T + instances.NORM_SOLVE_ROWS, d)
    else:
        assert inst._Q.shape == (2 * T + 1 if extra else T, d)
    if T == 64:
        assert extra == 0  # a converged Lanczos session is scored with no reveal
    # the queries' directions stay revealed: reading back draws nothing
    state = inst._rng.bit_generator.state
    for st in transcript.steps:
        st.projected_response
    assert inst._rng.bit_generator.state == state


def test_converged_lanczos_trial_is_scored_with_one_eigensolve_and_no_reserve(monkeypatch):
    # the session's Ritz pair and the norm solve's first check read one
    # eigendecomposition of H; a span that passes that check reserves no
    # rows and makes no Lanczos-coefficient array
    eighs, reserves, spans = [], [], []
    eigh, reserve, span_init = (np.linalg.eigh, LazySpikedInstance._reserve,
                                instances._RevealedSpan.__init__)

    def counting_eigh(a, *args, **kwargs):
        eighs.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def counting_reserve(self, rows):
        reserves.append(rows)
        return reserve(self, rows)

    def keeping_span(self, inst):
        spans.append(self)
        span_init(self, inst)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(LazySpikedInstance, "_reserve", counting_reserve)
    monkeypatch.setattr(instances._RevealedSpan, "__init__", keeping_span)
    d, T = 1000, 64
    inst = make_lazy_spiked(d, 3.0, seed=9)
    session = open_session(inst, budget=T)
    v_hat, value = run(session, AlgorithmConfig(kind="lanczos", seed=10))
    assert reserves == [T]  # the session's, at open
    queried = inst._size
    s = score(session.transcript, inst)
    assert inst._size == queried  # converged: nothing revealed
    assert eighs == [(T, T)]
    assert reserves == [T] and inst._Q.shape == (T, d)
    assert len(spans) == 1 and spans[0]._lanczos is None
    assert s.rayleigh_ratio == pytest.approx(value / spectral_norm(inst), rel=1e-12)


def test_ritz_after_an_expanding_norm_solve_is_that_of_the_session_span():
    # score's norm solve reveals more rows of the lazy instance; the
    # session's Ritz pair stays that of the span of its queries
    d, T = 400, 6
    inst = make_lazy_spiked(d, 3.0, seed=9)
    session = open_session(inst, budget=T)
    run(session, AlgorithmConfig(kind="power", seed=10))
    vec, value = session.ritz()
    score(session.transcript, inst)
    assert inst._size > T
    again, value_again = session.ritz()
    assert np.array_equal(again, vec) and value_again == value


def test_norm_solve_that_expands_reserves_once_and_drops_the_shared_eigensolve():
    # a power session's span fails the first check: the solve reserves its
    # rows at the restart, and each reveal drops the cached eigensolve
    d, T = 400, 6
    inst = make_lazy_spiked(d, 3.0, seed=9)
    session = open_session(inst, budget=T)
    run(session, AlgorithmConfig(kind="power", seed=10))
    first = inst._eigh()
    assert inst._eigh() is first  # one per size of H
    norm = spectral_norm(inst)
    assert inst._size > T
    assert inst._Q.shape == (T + instances.NORM_SOLVE_ROWS, d)
    vals, vecs = inst._eigh()
    assert vals.shape == (inst._size,) and vals is not first[0]
    assert not vals.flags.writeable and not vecs.flags.writeable
    H = inst._H[: inst._size, : inst._size]
    assert np.array_equal(vals, np.linalg.eigh(H)[0])
    assert abs(norm - max(abs(vals[0]), abs(vals[-1]))) <= 1e-12 * norm


def _cgs2_residual_error(session, w):
    """max |session.residual() - the CGS2 residual of w against the basis|."""
    reference = instances._orthogonalize(session.basis().T, w)[0]
    return float(np.max(np.abs(session.residual() - reference)))


@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
@pytest.mark.parametrize(
    "kind, d, lam, T",
    [("power", 300, 3.0, 20), ("lanczos", 300, 3.0, 40), ("random", 300, 3.0, 20),
     ("power", 60, 1e4, 40), ("random", 8, 3.0, 14), ("lanczos", 30, 3.0, 40)],
    ids=["power", "lanczos", "random", "power-degenerate", "random-full",
         "lanczos-breakdown"],
)
def test_residual_is_the_cgs2_residual_of_the_last_response(kind, d, lam, T, lazy):
    # after every query of a run, replayed into a fresh session on an equal
    # instance: near-dependent power queries that turn degenerate, random
    # queries past a full basis of R^d, Lanczos to its breakdown
    make = make_lazy_spiked if lazy else make_spiked
    ran = open_session(make(d, lam, seed=d + T), budget=T)
    run(ran, AlgorithmConfig(kind=kind, seed=3))
    steps = ran.transcript.steps
    inst = make(d, lam, seed=d + T)
    session = open_session(inst, budget=T)
    errors = []
    for st in steps:
        w = session.query(st.query)
        assert np.array_equal(w, st.raw_response)
        errors.append(_cgs2_residual_error(session, w))
    if lam > 100:  # power converges to within DEGENERATE_TOL of its span
        assert any(st.degenerate for st in steps)
    if d < T:
        assert session.basis_size == d
    norm = spectral_norm(inst)
    assert max(errors) <= 1e-12 * norm


@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
def test_residual_of_a_repeated_query_is_the_cgs2_residual(lazy):
    d = 50
    inst = (make_lazy_spiked if lazy else make_spiked)(d, 3.0, seed=21)
    session = open_session(inst, budget=4)
    u, v = sample_uniform_sphere(d, seed=22), sample_uniform_sphere(d, seed=23)
    errors = []
    for q in (u, v, u, (u + v) / np.linalg.norm(u + v)):
        w = session.query(q)
        errors.append(_cgs2_residual_error(session, w))
    assert [st.degenerate for st in (session.projected_view(i) for i in range(1, 5))] == [
        False, False, True, True]
    assert max(errors) <= 1e-12 * spectral_norm(inst)


def test_residual_needs_a_query():
    with pytest.raises(RuntimeError, match="no query"):
        open_session(np.eye(3), budget=1).residual()


class _CountingRows(np.ndarray):
    """A view of basis rows that counts the block products made with it."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingRows.products += 1
        plain = lambda x: x.view(np.ndarray) if isinstance(x, _CountingRows) else x
        if "out" in kwargs:
            kwargs["out"] = tuple(plain(x) for x in kwargs["out"])
        return getattr(ufunc, method)(*map(plain, inputs), **kwargs)


@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
def test_lanczos_residual_makes_one_block_product_fewer(lazy, monkeypatch):
    # each Lanczos query's next direction: one pass over the basis fewer than
    # orthogonalizing the response against it, second passes included
    d, T = 400, 32
    inst = (make_lazy_spiked if lazy else make_spiked)(d, 3.0, seed=41)
    session = open_session(inst, budget=T)
    op = session._basis._op  # the lazy instance itself, or the matrix's operator
    op._Q = op._Q.view(_CountingRows)
    counts = []
    residual = session.residual

    def counted():
        w = session.projected_view(session.queries_made).raw_response
        _CountingRows.products = 0
        instances._orthogonalize(session._basis.rows, w)
        kernel = _CountingRows.products
        _CountingRows.products = 0
        r = residual()
        counts.append((kernel, _CountingRows.products))
        return r

    monkeypatch.setattr(session, "residual", counted)
    run(session, AlgorithmConfig(kind="lanczos", seed=42))
    assert len(counts) == T - 1  # none after the last query
    assert all(new == kernel - 1 for kernel, new in counts)
    assert {kernel for kernel, _ in counts} == {2, 4}  # second passes are taken


@pytest.mark.parametrize("kind", ["power", "lanczos", "random"])
def test_lazy_rayleigh_ratio_is_at_most_one(kind):
    # The norm solve's span holds the span of the queries, so by interlacing
    # its top Ritz value bounds that of every vector in the queried span:
    # Lanczos and random output one, and their ratio exceeds 1 only by the
    # rounding of v_hat^T M v_hat, a few eps (up to 9 eps seen over 300
    # converged Lanczos trials, as on the dense completion).  Power's output
    # lies one step off the queried span, and its ratio is bounded by the
    # stopping rule's quadratic bound, also after degenerate steps, where
    # v_hat lies within DEGENERATE_TOL of the span (T = 64).
    eps = np.finfo(float).eps
    for d, lam, T, seed in itertools.product((300, 1000), (0.0, 1.5, 3.0), (6, 64), range(3)):
        rng = np.random.default_rng([d, int(2 * lam), T, seed])
        inst = make_lazy_spiked(d, lam, seed=rng)
        session = open_session(inst, budget=T)
        run(session, AlgorithmConfig(kind=kind, seed=rng))
        ratio = score(session.transcript, inst).rayleigh_ratio
        assert ratio <= 1.0 + (1e-12 if kind == "power" else 16 * eps), (d, lam, T, seed)


def test_null_solve_compression_is_the_lanczos_tridiagonal_of_a_goe(monkeypatch):
    # At lam = 0 a Lanczos session and the norm solve that continues it build
    # H = Q M Q^T on the Krylov space of the session's start vector, which is
    # independent of W.  So H is the Lanczos tridiagonal of GOE / sqrt(d):
    # independent alpha_k ~ N(0, 2/d) and beta_k ~ chi_{d-k} / sqrt(d)
    # (Trotter, Adv. Math. 1984; Dumitriu and Edelman, J. Math. Phys. 2002).
    # Rows 1..12 come from the session's queries, 13..24 from the solve,
    # which checks at 12 and restarts from the top Ritz vector; at d = 10^4
    # there is no dense reference to compare with.
    d, T, K, n = 10_000, 12, 24, 120

    class Enough(Exception):
        pass

    expand = instances._RevealedSpan.expand

    def stop_at_K(self):
        if self.k >= K:
            raise Enough(self.H.copy())
        expand(self)

    def trial(i):
        rng = instances.as_rng(instances.trial_seed(2024, i))
        inst = make_lazy_spiked(d, 0.0, seed=rng)
        run(open_session(inst, budget=T), AlgorithmConfig(kind="lanczos", seed=rng))
        try:
            spectral_norm(inst)
        except Enough as stop:
            return stop.args[0]
        raise AssertionError("the solve converged before K rows")

    monkeypatch.setattr(instances._RevealedSpan, "expand", stop_at_K)
    H = np.array(instances.map_trials(trial, n))
    assert H.shape == (n, K, K)
    band = np.abs(np.subtract.outer(np.arange(K), np.arange(K))) <= 1
    assert np.max(np.abs(H[:, ~band])) <= 1e-12
    # each entry through its own distribution function: U(0, 1) under the law
    alpha = normal.cdf(np.diagonal(H, axis1=1, axis2=2) * np.sqrt(d / 2))
    beta = chi2.cdf(np.diagonal(H, offset=1, axis1=1, axis2=2) ** 2 * d, d - np.arange(1, K))
    # one test per entry, and one per entry kind over the session's rows and
    # over the solve's, which catches a small error common to many entries;
    # family-wise level 0.01
    tests = {f"alpha_{k + 1}": alpha[:, k] for k in range(K)}
    tests.update({f"beta_{k + 1}": beta[:, k] for k in range(K - 1)})
    tests.update({
        "session alphas": alpha[:, :T], "solve alphas": alpha[:, T:],
        "session betas": beta[:, : T - 1], "solve betas": beta[:, T - 1 :],
    })
    for name, u in tests.items():
        p = kstest(u.ravel(), "uniform").pvalue
        assert p > 0.01 / len(tests), f"{name}: KS p = {p:.2g}"


class TestLazyScoreLaw:
    """Scores of runs on matrix-free instances have the law of scores of runs
    on dense ones, at the spike power iteration finds and on the null
    instances whose extreme eigenvalues nearly tie, where the norm solve
    takes longest."""

    CASES = [(0, "power", 3.0), (1, "lanczos", 0.0)]
    # two KS tests (Rayleigh ratio and ||M||) per case, at family-wise level 0.01
    ALPHA = 0.01 / (2 * len(CASES))

    @staticmethod
    def _statistics(make, kind, lam, seed, monkeypatch):
        """(rayleigh_ratio, ||M||) of 500 trials at d = 300, T = 5, with
        ||M|| the value score divides by."""
        d, T = 300, 5
        norms = {}

        def recording(inst):
            norms[id(inst)] = norm = spectral_norm(inst)
            return norm

        monkeypatch.setattr(oracle, "spectral_norm", recording)

        def trial(i):
            rng = instances.as_rng(instances.trial_seed(seed, i))
            inst = make(d, lam, seed=rng)
            session = open_session(inst, budget=T)
            run(session, AlgorithmConfig(kind=kind, seed=rng))
            return score(session.transcript, inst).rayleigh_ratio, norms.pop(id(inst))

        return np.array(instances.map_trials(trial, 500))

    @pytest.mark.parametrize("case, kind, lam", CASES)
    def test_scores_match_dense_scores_in_law(self, case, kind, lam, monkeypatch):
        lazy = self._statistics(make_lazy_spiked, kind, lam, 2 * case + 40, monkeypatch)
        dense = self._statistics(make_spiked, kind, lam, 2 * case + 41, monkeypatch)
        for column, name in enumerate(["rayleigh_ratio", "norm"]):
            p = ks_2samp(lazy[:, column], dense[:, column]).pvalue
            assert p > self.ALPHA, f"{kind} lam={lam} {name}: KS p = {p:.2g}"


def test_score_rejects_what_is_not_an_instance():
    M = sample_goe(5, seed=11)
    session = open_session(M, budget=1)
    t = session.finalize(np.eye(5)[0])
    with pytest.raises(ValueError, match="SpikedInstance or a LazySpikedInstance"):
        score(t, M)


# --------------------------------------------------------------------- score

def test_score_pure_spike():
    d = 16
    theta = sample_uniform_sphere(d, seed=1)
    M = 3.0 * np.outer(theta, theta)
    # assemble an instance with zero noise
    from spikequery import SpikedInstance

    inst = SpikedInstance(theta=theta, lam=3.0, matrix=M)
    sess = open_session(inst, budget=1)
    sess.query(theta)
    t = sess.finalize(theta)
    s = score(t, inst)
    assert abs(s.rayleigh_ratio - 1.0) <= 1e-10
    assert abs(s.spike_overlap - 1.0) <= 1e-12
    assert np.allclose(s.step_overlaps, [d])


def test_score_orthogonal_output():
    d = 16
    theta = np.zeros(d)
    theta[0] = 1.0
    from spikequery import SpikedInstance

    inst = SpikedInstance(theta=theta, lam=2.0, matrix=2.0 * np.outer(theta, theta))
    sess = open_session(inst, budget=1)
    perp = np.zeros(d)
    perp[1] = 1.0
    sess.query(perp)
    t = sess.finalize(perp)
    s = score(t, inst)
    assert s.spike_overlap == 0.0


def test_score_dimension_mismatch():
    inst = make_spiked(8, 1.0, seed=0)
    other = make_spiked(9, 1.0, seed=0)
    sess = open_session(inst, budget=1)
    t = sess.finalize(np.eye(8)[0])
    with pytest.raises(ValueError):
        score(t, other)
