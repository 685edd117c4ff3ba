"""Unit tests for instance generation, the spectral ground-truth oracle and
the trial map."""

import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

from spikequery import instances
from spikequery import (
    LazySpikedInstance,
    Membership,
    SpikedInstance,
    check_membership,
    make_lazy_spiked,
    make_spiked,
    rayleigh,
    sample_goe,
    sample_uniform_sphere,
    spectral_norm,
    spectrum,
)


# ---------------------------------------------------------------- sample_goe

def _goe_reference(d, rng):
    """The GOE draw by its definition: the upper triangle, diagonal included,
    packed in row-major order from one generator call, diagonal times sqrt(2),
    mirrored below."""
    w = np.zeros((d, d))
    w[np.triu_indices(d)] = rng.standard_normal(d * (d + 1) // 2)
    w[np.diag_indices(d)] *= np.sqrt(2.0)
    rows, cols = np.triu_indices(d, 1)
    w[cols, rows] = w[rows, cols]
    return w


@pytest.mark.parametrize("d", [1, 2, 127, 128, 129, 300])
def test_goe_matches_packed_triangle_reference(d):
    assert np.array_equal(sample_goe(d, seed=d), _goe_reference(d, np.random.default_rng(d)))


@pytest.mark.parametrize("d", [1, 2, 50, 127, 128])
def test_one_block_fill_of_a_stack_is_successive_reference_draws(d):
    assert d <= instances.TILE  # one np.take gather per stack
    stack = instances._fill_goe(np.empty((3, d, d)), np.random.default_rng(d))
    rng = np.random.default_rng(d)
    for w in stack:
        assert np.array_equal(w, _goe_reference(d, rng))


@pytest.mark.parametrize("tile", [64, 37])
def test_goe_and_spiked_matrix_do_not_depend_on_tile(tile, monkeypatch):
    d = 300
    goe, spiked = sample_goe(d, seed=4), make_spiked(d, 2.0, seed=5).matrix
    monkeypatch.setattr(instances, "TILE", tile)
    assert np.array_equal(sample_goe(d, seed=4), goe)
    assert np.array_equal(make_spiked(d, 2.0, seed=5).matrix, spiked)


@pytest.mark.parametrize("d", [1, 129, 300])
def test_make_spiked_draws_theta_then_the_free_entries(d):
    g = np.random.default_rng(8)
    make_spiked(d, 1.5, seed=g)
    fresh = np.random.default_rng(8)
    fresh.standard_normal(d + d * (d + 1) // 2)
    assert g.standard_normal() == fresh.standard_normal()


def test_goe_d1_is_variance_two_gaussian():
    draws = np.array([sample_goe(1, seed=t)[0, 0] for t in range(10_000)])
    assert 1.9 <= draws.var() <= 2.1, f"d=1 GOE entry variance {draws.var():.3f}"


def test_goe_deterministic_under_seed():
    a = sample_goe(5, seed=42)
    b = sample_goe(5, seed=42)
    assert np.array_equal(a, b)


def test_goe_exactly_symmetric():
    W = sample_goe(37, seed=7)
    assert np.array_equal(W, W.T)


def test_goe_rejects_zero_dim():
    with pytest.raises(ValueError):
        sample_goe(0)


def _assert_goe_entry_variances_d3(draws):
    """Entry variances of a stack of 3 x 3 draws: 2 on the diagonal and 1
    off it, each within 3 standard errors."""
    n = draws.shape[0]
    # variance of the empirical variance of N(0, s^2) is ~ 2 s^4 / n
    for i in range(3):
        se = 2.0 * np.sqrt(2.0 / n)
        v = draws[:, i, i].var()
        assert abs(v - 2.0) <= 3 * se, f"diag ({i},{i}) variance {v:.3f}"
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        se = np.sqrt(2.0 / n)
        v = draws[:, i, j].var()
        assert abs(v - 1.0) <= 3 * se, f"offdiag ({i},{j}) variance {v:.3f}"


def test_goe_entrywise_variances_d3():
    _assert_goe_entry_variances_d3(np.stack([sample_goe(3, seed=t) for t in range(20_000)]))


def test_goe_norm_scale_d500():
    norms = [
        spectral_norm(sample_goe(500, seed=1000 + t)) / np.sqrt(500)
        for t in range(20)
    ]
    mean = float(np.mean(norms))
    assert 1.85 <= mean <= 2.05, f"mean ||W||/sqrt(d) = {mean:.4f}"


# ------------------------------------------------------- sample_uniform_sphere

def test_sphere_d1_is_sign():
    vals = {float(sample_uniform_sphere(1, seed=t)[0]) for t in range(50)}
    assert vals <= {1.0, -1.0} and len(vals) == 2


def test_sphere_unit_norm():
    for t in range(20):
        v = sample_uniform_sphere(64, seed=t)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_sphere_isotropy_first_coordinate():
    rng = np.random.default_rng(11)
    draws = np.array([sample_uniform_sphere(100, rng)[0] ** 2 for _ in range(100_000)])
    assert 0.009 <= draws.mean() <= 0.011, f"E<e1,v>^2 = {draws.mean():.5f}"


def test_sphere_tail_at_t1_d200():
    rng = np.random.default_rng(5)
    d, n = 200, 100_000
    overlaps = np.abs(np.array([sample_uniform_sphere(d, rng)[0] for _ in range(n)]))
    freq = np.mean(np.sqrt(d) * overlaps >= np.sqrt(2.0) + 1.0)
    bound = np.exp(-0.5)
    slack = 3 * np.sqrt(bound * (1 - bound) / n)
    assert freq <= bound + slack, f"tail freq {freq:.4f} vs bound {bound:.4f}"


def test_sphere_rejects_zero_dim():
    with pytest.raises(ValueError):
        sample_uniform_sphere(0)


# ---------------------------------------------------------------- make_spiked

def _noise_of(d, seed):
    """The GOE draw inside make_spiked(d, lam, seed), regenerated from the
    same generator: theta is drawn first, then the noise."""
    rng = np.random.default_rng(seed)
    sample_uniform_sphere(d, rng)
    return sample_goe(d, rng)


def test_spiked_lambda_zero_is_pure_noise():
    inst = make_spiked(30, 0.0, seed=3)
    assert np.max(np.abs(inst.matrix - _noise_of(30, 3) / np.sqrt(30))) <= 1e-15


def test_spiked_reproducible_theta():
    a = make_spiked(50, 2.0, seed=9)
    b = make_spiked(50, 2.0, seed=9)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.matrix, b.matrix)


def test_spiked_top_eigenvalue_bracket():
    # lam=4, d=1000: top eigenvalue lands in [lam-0.3, lam+0.5] essentially
    # always (frequency at least 0.95 over 100 trials).
    hits = 0
    for t in range(100):
        inst = make_spiked(1000, 4.0, seed=t)
        v0 = np.full(1000, 1.0 / np.sqrt(1000))
        lam1 = eigsh(inst.matrix, k=1, which="LA", v0=v0, tol=0)[0][0]
        hits += 3.7 <= lam1 <= 4.5
    assert hits >= 95, f"top-eigenvalue bracket hit {hits}/100 trials"


def test_spiked_invariants_enforced():
    inst = make_spiked(20, 1.5, seed=0)
    noise = _noise_of(20, 0)
    assert abs(np.linalg.norm(inst.theta) - 1.0) <= 1e-12
    recon = inst.lam * np.outer(inst.theta, inst.theta) + noise / np.sqrt(20)
    assert np.max(np.abs(inst.matrix - recon)) <= 1e-10
    SpikedInstance(theta=inst.theta, lam=inst.lam, noise=noise, matrix=inst.matrix)
    with pytest.raises(ValueError):
        SpikedInstance(theta=inst.theta * 2.0, lam=inst.lam, noise=noise, matrix=inst.matrix)
    with pytest.raises(ValueError):
        SpikedInstance(theta=inst.theta, lam=inst.lam, noise=noise, matrix=inst.matrix + 1.0)


def test_spiked_noise_is_required_in_positional_order():
    inst = make_spiked(6, 2.0, seed=0)
    noise = _noise_of(6, 0)
    built = SpikedInstance(inst.theta, inst.lam, noise, inst.matrix)
    assert np.array_equal(built.matrix, inst.matrix)
    with pytest.raises(TypeError):
        SpikedInstance(theta=inst.theta, lam=inst.lam, matrix=inst.matrix)


@pytest.mark.parametrize("lam", [0.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 257, 1000])
def test_spiked_matrix_bit_identical_to_reference_formula(d, lam):
    # theta, then the GOE noise by its definition from the same generator,
    # M = lam theta theta^T + noise/sqrt(d), then (M + M^T)/2
    rng = np.random.default_rng(17)
    theta = sample_uniform_sphere(d, rng)
    noise = _goe_reference(d, rng)
    m = lam * np.outer(theta, theta) + noise / np.sqrt(d)
    reference = (m + m.T) / 2.0
    inst = make_spiked(d, lam, seed=17)
    assert np.array_equal(inst.theta, theta)
    assert np.array_equal(inst.matrix, reference)
    assert instances._is_symmetric(inst.matrix)
    assert np.all(np.isfinite(inst.matrix))


def test_spiked_rejects_dimension_mismatch():
    inst = make_spiked(6, 1.0, seed=0)
    noise = _noise_of(6, 0)
    with pytest.raises(ValueError):
        SpikedInstance(theta=np.array([1.0]), lam=1.0, noise=noise, matrix=inst.matrix)


def test_spiked_rejects_nan_theta():
    inst = make_spiked(5, 1.0, seed=0)
    noise = _noise_of(5, 0)
    with pytest.raises(ValueError, match="non-finite"):
        SpikedInstance(theta=np.full(5, np.nan), lam=1.0, noise=noise, matrix=inst.matrix)
    one_nan = inst.theta.copy()
    one_nan[2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        SpikedInstance(theta=one_nan, lam=1.0, noise=noise, matrix=inst.matrix)


def test_spiked_rejects_theta_not_1d():
    with pytest.raises(ValueError, match="1-D"):
        SpikedInstance(
            theta=np.float64(1.0), lam=1.0, noise=np.zeros((1, 1)), matrix=np.zeros((1, 1))
        )
    inst = make_spiked(4, 1.0, seed=0)
    with pytest.raises(ValueError, match="1-D"):
        SpikedInstance(
            theta=inst.theta.reshape(4, 1), lam=1.0, noise=_noise_of(4, 0), matrix=inst.matrix
        )


def test_spiked_holds_one_dxd_array():
    import tracemalloc

    d = 1000
    tracemalloc.start()
    try:
        inst = make_spiked(d, 3.0, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * d * d, f"peak {peak} B for one {8 * d * d} B matrix"
    assert "noise" not in vars(inst)


def test_spiked_arrays_immutable():
    inst = make_spiked(10, 1.0, seed=1)
    with pytest.raises(ValueError):
        inst.matrix[0, 0] = 99.0


# ------------------------------------------------- the orthogonalization kernel

class _CountingRows(np.ndarray):
    """Orthonormal rows that count the ``Q @ r`` products made with them:
    one per Gram-Schmidt pass."""

    def __matmul__(self, other):
        self.passes += 1
        return np.matmul(self.view(np.ndarray), other)


def _kernel_input(d, k, rho, seed):
    """(k orthonormal rows of R^d, a unit v whose residual against them has
    norm rho)."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((d, k)))[0].T.copy()
    g = rng.standard_normal(d)
    for _ in range(3):  # b orthogonal to the rows to working precision
        g -= (Q @ g) @ Q
    a = rng.standard_normal(k)
    v = rho * g / np.linalg.norm(g) + math.sqrt(1.0 - rho**2) * (a / np.linalg.norm(a)) @ Q
    return Q, v


@pytest.mark.parametrize("rho", [1.0, 0.72, 0.70, 1e-4, 1e-8])
@pytest.mark.parametrize("d, k", [(50, 1), (50, 20), (1000, 5), (1000, 200)])
def test_orthogonalize_makes_a_second_pass_exactly_when_the_first_cancels(d, k, rho):
    Q, v = _kernel_input(d, k, rho, seed=d + k)
    first = v - (Q @ v) @ Q  # the first pass, as the kernel makes it
    rows = Q.view(_CountingRows)
    rows.passes = 0
    given = v.copy()
    r, c = instances._orthogonalize(rows, v)
    assert np.array_equal(v, given)  # the input is not modified
    assert rows.passes == (2 if 2.0 * (first @ first) < v @ v else 1)
    if rho in (0.72, 1.0):  # more than 1/sqrt(2) of v survives the first pass
        assert rows.passes == 1
    else:
        assert rows.passes == 2
    assert np.linalg.norm(r) == pytest.approx(rho, rel=1e-6)
    # orthogonal to the rows within 4 k eps of its own norm (measured: 0.33)
    eps = np.finfo(float).eps
    assert np.max(np.abs(Q @ r)) <= 4 * k * eps * np.linalg.norm(r)
    # r = v - c Q: c sums both passes' coefficients
    assert np.max(np.abs(r + c @ Q - v)) <= 1e-14 * np.linalg.norm(v)
    assert np.max(np.abs(Q @ r)) <= 1e-14 * np.linalg.norm(v)


@pytest.mark.parametrize("rho", [1.0, 1e-4, 1e-8])
@pytest.mark.parametrize("d, k", [(50, 20), (1000, 200)])
def test_orthogonalize_carries_images_to_the_residual(d, k, rho):
    Q, v = _kernel_input(d, k, rho, seed=d - k)
    M = sample_goe(d, seed=k) / math.sqrt(d)
    w = M @ v
    r, c = instances._orthogonalize(Q, v)
    img = w - c @ (Q @ M)  # row j of Q @ M: M q_j
    scale = np.max(np.abs(np.linalg.eigvalsh(M))) * np.linalg.norm(v)
    assert np.linalg.norm(img - M @ r) <= 1e-12 * scale


# --------------------------------------------------------- make_lazy_spiked

def _completed(inst):
    """The matrix a lazy instance answers for, column j its answer to e_j."""
    return np.column_stack([inst @ e for e in np.eye(inst.dim)])


@pytest.mark.parametrize("lam", [0.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 17, 40])
def test_lazy_instance_completion_is_symmetric_and_read_back_draws_nothing(d, lam):
    inst = make_lazy_spiked(d, lam, seed=d)
    M = _completed(inst)
    assert np.max(np.abs(M - M.T)) <= 1e-12
    state = inst._rng.bit_generator.state
    assert np.array_equal(inst @ np.eye(d), M)  # one block of revealed directions
    assert inst._rng.bit_generator.state == state


@pytest.mark.parametrize("basis", ["standard", "random"])
@pytest.mark.parametrize("lam", [0.0, 3.0])
@pytest.mark.parametrize("d", [17, 40])
def test_lazy_completion_keeps_u_exact_past_half_the_dimension(d, lam, basis):
    # past k = d/2 the fresh draw's projection cancels most of it; W b is
    # still formed in one pass, and U stays the revealed rows of W
    inst = make_lazy_spiked(d, lam, seed=d)
    O = np.eye(d) if basis == "standard" else np.linalg.qr(
        np.random.default_rng(d).standard_normal((d, d)))[0]
    M = (inst @ O) @ O.T
    assert inst._size == d
    W = math.sqrt(d) * (M - lam * np.outer(inst.theta, inst.theta))
    assert np.max(np.abs(inst._U[:d] - inst._Q[:d] @ W)) <= 1e-12


def test_lazy_instance_completion_has_goe_entry_variances():
    draws = np.empty((20_000, 3, 3))
    for t in range(len(draws)):
        inst = make_lazy_spiked(3, 2.0, seed=t)
        draws[t] = np.sqrt(3) * (_completed(inst) - 2.0 * np.outer(inst.theta, inst.theta))
    _assert_goe_entry_variances_d3(draws)


def test_lazy_instance_draws_theta_first_and_a_block_column_by_column():
    d = 50
    inst = make_lazy_spiked(d, 1.5, seed=4)
    assert np.array_equal(inst.theta, sample_uniform_sphere(d, np.random.default_rng(4)))
    V = np.random.default_rng(5).standard_normal((d, 4))
    twin = make_lazy_spiked(d, 1.5, seed=4)
    assert np.array_equal(inst @ V, np.column_stack([twin @ v for v in V.T]))
    assert inst.shape == (d, d)


def test_lazy_instance_answers_are_linear_in_the_query():
    d = 30
    inst = make_lazy_spiked(d, 2.0, seed=6)
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(d), rng.standard_normal(d)
    ma, mb = inst @ a, inst @ b
    assert np.max(np.abs(inst @ (2.0 * a - b) - (2.0 * ma - mb))) <= 1e-12
    assert np.array_equal(inst @ np.zeros(d), np.zeros(d))


def test_lazy_instance_refuses_to_grow_past_physical_memory(monkeypatch):
    # by _require_fits's rule, on Q, U, H and Q theta of the grown size,
    # before anything is allocated; d = 10^6 is never allocated here
    d = 10**6
    inst = LazySpikedInstance(np.eye(1, d, 0)[0], 3.0, seed=1)
    pages = 8 * (2 * 100 * d + 100 * 100 + 100) // 4096  # short of 100 rows
    monkeypatch.setattr(instances.os, "sysconf",
                        lambda name: {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}[name])
    inst._reserve(2)
    with pytest.raises(instances.MemoryLimitError, match="grown to 100 revealed") as exc:
        inst._reserve(100)
    assert isinstance(exc.value, ValueError)
    assert inst._Q.shape == inst._U.shape == (2, d) and inst._H.shape == (2, 2)


def test_lazy_instance_rejects_bad_spikes_and_shapes():
    with pytest.raises(ValueError, match="spike strength"):
        make_lazy_spiked(5, -1.0, seed=0)
    with pytest.raises(ValueError, match="spike strength"):
        make_lazy_spiked(10**12, float("nan"))  # before theta's 8 TB draw
    with pytest.raises(ValueError, match="unit vector"):
        LazySpikedInstance(np.ones(4), 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        LazySpikedInstance(np.full(4, np.nan), 1.0)
    with pytest.raises(ValueError, match="dimension must be positive"):
        make_lazy_spiked(0, 1.0)
    with pytest.raises(ValueError, match="cannot apply"):
        make_lazy_spiked(5, 1.0, seed=0) @ np.ones(4)


# ------------------------------------------------------ blocked symmetry check

_T = instances.TILE


def test_symmetry_kernel_accepts_symmetric():
    for d in (1, 2, _T - 1, _T, _T + 1, 2 * _T + 37):
        M = sample_goe(d, seed=d)
        assert instances._is_symmetric(M)
        instances._require_symmetric(M)


@pytest.mark.parametrize(
    "d, i, j",
    [
        (2 * _T + 37, 3, 5),  # inside a diagonal tile
        (2 * _T + 37, 5, 3),  # same tile, below the diagonal
        (2 * _T + 37, 2, _T + 9),  # off-diagonal tile, above
        (2 * _T + 37, _T + 9, 2),  # its mirror tile
        (2 * _T + 37, 2 * _T + 36, 2 * _T + 1),  # ragged last diagonal tile
        (2 * _T + 37, 0, 2 * _T + 36),  # ragged last column of tiles
        (2 * _T + 37, 2 * _T + 36, _T - 1),  # ragged last row of tiles
        (7, 6, 0),  # smaller than one tile
        (2, 0, 1),
    ],
)
def test_symmetry_kernel_rejects_one_flipped_entry(d, i, j):
    M = sample_goe(d, seed=d)
    M[i, j] += 1.0  # (j, i) keeps its value
    assert not np.array_equal(M, M.T)
    assert not instances._is_symmetric(M)
    with pytest.raises(ValueError, match="exactly symmetric"):
        instances._require_symmetric(M)
    with pytest.raises(ValueError):
        spectral_norm(M)


# ------------------------------------------------------------------- spectrum

def test_spectrum_identity():
    s = spectrum(np.eye(6))
    assert np.allclose(s.eigenvalues, 1.0)
    assert s.eigenratio == 1.0
    assert s.op_norm == 1.0


def test_spectrum_diag_example():
    s = spectrum(np.diag([3.0, 1.0, -2.0]))
    assert s.op_norm == 3.0
    assert abs(s.eigenratio - 2.0 / 3.0) <= 1e-15
    assert np.array_equal(s.eigenvalues, [3.0, 1.0, -2.0])


def test_spectrum_rank_one():
    theta = sample_uniform_sphere(40, seed=2)
    s = spectrum(5.0 * np.outer(theta, theta))
    assert abs(s.eigenvalues[0] - 5.0) <= 1e-10
    assert abs(abs(s.top_vector @ theta) - 1.0) <= 1e-10


def test_spectrum_eigenpair_residual():
    M = sample_goe(128, seed=13)
    s = spectrum(M)
    resid = np.linalg.norm(M @ s.top_vector - s.eigenvalues[0] * s.top_vector)
    assert resid <= 1e-8 * s.op_norm


def test_spectrum_dim_cap():
    with pytest.raises(ValueError):
        spectrum(np.eye(10), dim_cap=8)


def test_spectrum_rejects_nonfinite():
    M = np.eye(3)
    M[0, 1] = M[1, 0] = np.nan
    with pytest.raises(ValueError):
        spectrum(M)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
def test_spectrum_reconstructs_matrix(d, seed):
    M = sample_goe(d, seed=seed)
    vals, vecs = np.linalg.eigh(M)
    recon = (vecs * vals) @ vecs.T
    assert np.linalg.norm(recon - M) <= 1e-8


def test_spectral_norm_matches_dense_at_large_d():
    inst = make_spiked(2048, 3.0, seed=4)
    dense = float(np.max(np.abs(np.linalg.eigvalsh(inst.matrix))))
    assert abs(spectral_norm(inst.matrix) - dense) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [300, 1000, 1100, 2048])
@pytest.mark.parametrize("lam", [0.0, 3.0])
def test_iterative_spectral_norm_matches_dense(lam, d, seed):
    # null instances have a two-sided spectrum whose extremes nearly tie in
    # magnitude; spiked ones have a separated top eigenvalue
    M = make_spiked(d, lam, seed=seed).matrix
    dense = float(np.max(np.abs(np.linalg.eigvalsh(M))))
    assert abs(spectral_norm(M) - dense) <= 1e-12 * dense


@pytest.mark.parametrize("d", [300, 1000])
@pytest.mark.parametrize("lam", [0.0, 3.0])
def test_spectral_norm_matches_scipy_eigsh(lam, d):
    # scipy's ARPACK, solved to machine precision, as an independent reference
    M = make_spiked(d, lam, seed=7).matrix
    v0 = np.full(d, 1.0 / np.sqrt(d))
    reference = abs(float(eigsh(M, k=1, which="LM", v0=v0, tol=0)[0][0]))
    assert abs(spectral_norm(M) - reference) <= 1e-12 * reference


def test_lanczos_norm_needs_few_matvecs():
    # scipy's eigsh(tol=0) takes 41 matvecs on this instance
    M = make_spiked(1000, 3.0, seed=0).matrix
    calls = []

    def apply(v):
        calls.append(1)
        return M @ v

    norm = instances._lanczos_norm(apply, 1000)
    assert len(calls) <= 26
    assert abs(norm - np.max(np.abs(np.linalg.eigvalsh(M)))) <= 1e-12 * norm


def _degenerate_matrices(d):
    """Matrices above the dense cutoff on which Krylov spaces close early."""
    v0 = np.full(d, 1.0 / np.sqrt(d))
    u = np.zeros(d)
    u[:2] = [1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)]  # orthogonal to v0
    return {
        "zero": (np.zeros((d, d)), 0.0),
        # the space of v0 closes after one step, at the eigenvalue 0.1
        "hidden spike": (0.1 * np.outer(v0, v0) + 5.0 * np.outer(u, u), 5.0),
        "identity": (np.eye(d), 1.0),
        "-3 identity": (-3.0 * np.eye(d), 3.0),
        "alternating diagonal": (np.diag(np.where(np.arange(d) % 2 == 0, 1.0, -1.0)), 1.0),
    }


@pytest.mark.parametrize("name", ["zero", "hidden spike", "identity", "-3 identity",
                                  "alternating diagonal"])
def test_spectral_norm_of_degenerate_matrices(name):
    d = 300
    assert d > instances.DENSE_NORM_MAX_DIM
    M, expected = _degenerate_matrices(d)[name]
    norm = spectral_norm(M)
    assert abs(norm - expected) <= 1e-12 * max(expected, 1.0)
    if expected == 0.0:
        assert norm == 0.0


def test_spectral_norm_trusts_an_instance_and_checks_a_bare_matrix(monkeypatch):
    inst = make_spiked(300, 3.0, seed=6)
    expected = spectral_norm(inst.matrix)

    def refuse(*args, **kwargs):
        raise AssertionError("an instance's matrix was re-checked")

    monkeypatch.setattr(instances, "_require_symmetric", refuse)
    assert spectral_norm(inst) == expected
    monkeypatch.undo()
    flipped = np.array(inst.matrix)
    flipped[0, 1] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        spectral_norm(flipped)


# ----------------------------------------------------------- check_membership

def test_membership_examples():
    assert check_membership(np.diag([1.0, 0.5]), 0.6) == Membership(True, None)
    assert check_membership(np.diag([1.0, 0.5]), 0.4) == Membership(False, 2)
    assert check_membership(np.diag([-2.0, 1.0]), 0.9) == Membership(False, 1)


def test_membership_rejects_bad_gamma():
    with pytest.raises(ValueError):
        check_membership(np.eye(2), 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=32), st.integers(min_value=0, max_value=2**32 - 1))
def test_membership_consistent_with_own_eigenratio(d, seed):
    M = sample_goe(d, seed=seed)
    s = spectrum(M)
    if s.eigenvalues[0] > 0 and s.eigenvalues[0] == s.op_norm and s.eigenratio < 1:
        assert check_membership(M, s.eigenratio).is_member


# ------------------------------------------------------------------- rayleigh

def test_rayleigh_examples():
    assert rayleigh(np.diag([3.0, 1.0]), np.array([1.0, 0.0])) == 3.0
    M = sample_goe(32, seed=21)
    s = spectrum(M)
    assert abs(rayleigh(M, s.top_vector) - s.eigenvalues[0]) <= 1e-8
    v = sample_uniform_sphere(17, seed=3)
    assert abs(rayleigh(np.eye(17), v) - 1.0) <= 1e-12


def test_rayleigh_rejects_non_unit():
    with pytest.raises(ValueError):
        rayleigh(np.eye(3), np.array([1.0, 1.0, 0.0]))


def test_rayleigh_rejects_non_finite_vector():
    with pytest.raises(ValueError, match="finite"):
        rayleigh(np.eye(4), np.full(4, np.nan))


# ----------------------------------------------------------------- map_trials

def _cores(monkeypatch, k):
    """Make the process see k available cores."""
    monkeypatch.setattr(instances.os, "sched_getaffinity", lambda pid: set(range(k)))


def test_map_trials_keeps_index_order_when_trials_finish_out_of_order():
    finished = []

    def fn(i):
        time.sleep(0.02 * (4 - i))  # the last trial started finishes first
        finished.append(i)
        return i * i

    assert instances.map_trials(fn, 5, workers=5) == [0, 1, 4, 9, 16]
    assert finished != sorted(finished)


def test_map_trials_raises_the_lowest_index_failure():
    def fn(i):
        if i == 1:
            time.sleep(0.1)  # trial 3 fails first in time
            raise ValueError("trial 1")
        if i == 3:
            raise KeyError("trial 3")
        return i

    with pytest.raises(ValueError, match="trial 1"):
        instances.map_trials(fn, 5, workers=3)


@pytest.mark.parametrize(
    "n, workers, cores", [(0, None, 4), (1, None, 4), (5, 1, 4), (5, None, 1)]
)
def test_map_trials_starts_no_thread_with_one_worker(n, workers, cores, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    _cores(monkeypatch, cores)
    caller = threading.get_ident()
    assert instances.map_trials(lambda i: (i, threading.get_ident()), n, workers) == [
        (i, caller) for i in range(n)
    ]


@pytest.mark.parametrize("workers, cores", [(3, 1), (None, 3)])
def test_map_trials_runs_trials_concurrently(workers, cores, monkeypatch):
    # every trial waits for the other two: three threads run at once, also
    # when the cap exceeds the cores this process sees
    _cores(monkeypatch, cores)
    barrier = threading.Barrier(3, timeout=10)

    def fn(i):
        barrier.wait()
        return threading.get_ident()

    assert len(set(instances.map_trials(fn, 3, workers))) == 3


# --------------------------------------------------------------- trial_seed

def _first_draws(seed):
    return instances.as_rng(seed).standard_normal(4)


def test_trial_seed_is_the_spawn_child():
    child = np.random.SeedSequence(7).spawn(3)[2]
    assert np.array_equal(_first_draws(instances.trial_seed(7, 2)), _first_draws(child))


def test_trial_streams_are_distinct():
    assert not np.array_equal(
        _first_draws(instances.trial_seed(0, 1)), _first_draws(instances.trial_seed(1, 0))
    )
    for seed in (0, 5):
        assert not np.array_equal(_first_draws(instances.trial_seed(seed, 0)), _first_draws(seed))


def test_trial_seed_takes_a_negative_base_mod_2_64():
    assert np.array_equal(
        _first_draws(instances.trial_seed(-1, 3)), _first_draws(instances.trial_seed(2**64 - 1, 3))
    )
