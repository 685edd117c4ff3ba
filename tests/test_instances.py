"""Unit tests for instance generation and the spectral ground-truth oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

from spikequery import instances
from spikequery import (
    Membership,
    SpikedInstance,
    check_membership,
    make_spiked,
    rayleigh,
    sample_goe,
    sample_uniform_sphere,
    spectral_norm,
    spectrum,
)


# ---------------------------------------------------------------- sample_goe

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


def test_goe_entrywise_variances_d3():
    draws = np.stack([sample_goe(3, seed=t) for t in range(20_000)])
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

def test_spiked_lambda_zero_is_pure_noise():
    inst = make_spiked(30, 0.0, seed=3)
    assert np.max(np.abs(inst.matrix - inst.noise / np.sqrt(30))) <= 1e-15


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
    assert abs(np.linalg.norm(inst.theta) - 1.0) <= 1e-12
    recon = inst.lam * np.outer(inst.theta, inst.theta) + inst.noise / np.sqrt(20)
    assert np.max(np.abs(inst.matrix - recon)) <= 1e-10
    with pytest.raises(ValueError):
        SpikedInstance(
            theta=inst.theta * 2.0, lam=inst.lam, noise=inst.noise, matrix=inst.matrix
        )
    with pytest.raises(ValueError):
        SpikedInstance(
            theta=inst.theta, lam=inst.lam, noise=inst.noise, matrix=inst.matrix + 1.0
        )


@pytest.mark.parametrize("lam", [0.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 257, 1000])
def test_spiked_matrix_bit_identical_to_reference_formula(d, lam):
    # the formula make_spiked used before in-place assembly: theta, then the
    # GOE noise from the same generator, M = lam theta theta^T + noise/sqrt(d),
    # then (M + M^T)/2
    rng = np.random.default_rng(17)
    theta = sample_uniform_sphere(d, rng)
    x = rng.standard_normal((d, d))
    noise = (x + x.T) / np.sqrt(2.0)
    m = lam * np.outer(theta, theta) + noise / np.sqrt(d)
    reference = (m + m.T) / 2.0
    inst = make_spiked(d, lam, seed=17)
    assert np.array_equal(inst.theta, theta)
    assert np.array_equal(inst.noise, noise)
    assert np.array_equal(inst.matrix, reference)


def test_spiked_rejects_dimension_mismatch():
    inst = make_spiked(6, 1.0, seed=0)
    with pytest.raises(ValueError):
        SpikedInstance(theta=np.array([1.0]), lam=1.0, noise=inst.noise, matrix=inst.matrix)


def test_spiked_arrays_immutable():
    inst = make_spiked(10, 1.0, seed=1)
    with pytest.raises(ValueError):
        inst.matrix[0, 0] = 99.0


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
