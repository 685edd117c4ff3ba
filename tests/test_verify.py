"""Tests for the Monte-Carlo verification harness.

Parameter sets here are kept light; the full-scale runs live in
tests/test_acceptance.py.  Beyond running each check, this file pins the
shared pass convention (one-sided, 3 stderr slack), bit-for-bit
reproducibility from the recorded seed, the CSV and summary formats, the
error conditions, and two invariants that cut across modules: the
sqrt(2)-Lipschitz tail of the spike quadratic form and the per-step KL cap
on the conditional response laws.  Runs on matrix-free instances are
compared in law with runs on dense ones.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import beta, ks_2samp, kstest

from spikequery.algorithms import ALGORITHM_KINDS, AlgorithmConfig, run
from spikequery.bounds import chi_tau_schedule
from spikequery.divergences import TruncationEvent, gaussian_kl
from spikequery.instances import (
    LazySpikedInstance,
    as_rng,
    make_lazy_spiked,
    make_spiked,
    sample_goe,
    sample_uniform_sphere,
    trial_seed,
)
from spikequery.oracle import open_session
from spikequery import instances, verify
from spikequery.verify import (
    CHECKS,
    CSV_HEADER,
    DEFAULT_PARAMS,
    McReport,
    McRow,
    QUICK_PARAMS,
    one_sided_row,
    report_csv_rows,
    reports_summary,
    reports_to_csv,
    run_check,
    verify_conditional_law,
    verify_detection_gap,
    verify_gauss_quadratic,
    verify_kd,
    verify_overlap_growth,
    verify_reduction_events,
    verify_sphere_tail,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestRowAndReportPlumbing:
    def test_one_sided_row_boundary(self):
        assert one_sided_row("x", 1.0, 0.7, 0.1).passed
        assert not one_sided_row("x", 1.0001, 0.7, 0.1).passed
        assert one_sided_row("x", 0.5, 0.5, 0.0).passed
        assert not one_sided_row("x", 0.5 + 1e-12, 0.5, 0.0).passed

    def test_report_passed_aggregates_rows(self):
        good = McRow("a", 0.0, 1.0, 0.0, True)
        bad = McRow("b", 2.0, 1.0, 0.0, False)
        assert McReport("t", 10, 0, rows=(good,)).passed
        assert not McReport("t", 10, 0, rows=(good, bad)).passed
        assert McReport("t", 10, 0, rows=()).passed

    def test_csv_row_format(self):
        rep = McReport(
            "mycheck", 12, 7, rows=(McRow("some label", 0.5, 0.25, 0.01, False),)
        )
        (line,) = report_csv_rows(rep)
        fields = line.split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "mycheck"
        assert fields[1] == "some label"
        assert int(fields[2]) == 12
        assert float(fields[3]) == 0.5
        assert float(fields[4]) == 0.25
        assert float(fields[5]) == 0.01
        assert fields[6] == "FAIL"

    def test_csv_document_shape(self):
        rep = McReport("c", 5, 1, rows=(McRow("r", 0.0, 1.0, 0.0, True),))
        doc = reports_to_csv([rep, rep])
        lines = doc.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert doc.endswith("\n")

    def test_summary_marks_and_overall(self):
        good = McReport("g", 5, 1, rows=(McRow("r", 0.0, 1.0, 0.0, True),))
        bad = McReport("b", 5, 1, rows=(McRow("r", 2.0, 1.0, 0.0, False),), notes="hi")
        text = reports_summary([good, bad])
        assert "[pass] g" in text
        assert "[FAIL] b" in text
        assert "note: hi" in text
        assert text.rstrip().endswith("FAILURES present")
        assert reports_summary([good]).rstrip().endswith("all checks passed")


class TestSphereTail:
    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 10000"):
            verify_sphere_tail(100, 5_000, seed=0)

    def test_t_zero_trivially_passes(self):
        rep = verify_sphere_tail(80, 10_000, t_grid=(0.0,), seed=1)
        assert rep.rows[0].bound == 1.0
        assert rep.passed

    def test_modest_run_passes_with_median_row(self):
        rep = verify_sphere_tail(100, 20_000, seed=2)
        assert rep.passed
        labels = [r.label for r in rep.rows]
        assert labels[-1] == "median cap"
        assert len(labels) == 5
        assert rep.rows[-1].bound == 0.55

    def test_reproducible_and_seed_sensitive(self):
        a = verify_sphere_tail(100, 10_000, seed=3)
        b = verify_sphere_tail(100, 10_000, seed=3)
        c = verify_sphere_tail(100, 10_000, seed=4)
        assert reports_to_csv([a]) == reports_to_csv([b])
        assert reports_to_csv([a]) != reports_to_csv([c])


class TestConditionalLaw:
    def test_requires_orthonormal_queries(self):
        e1 = np.eye(30)[0]
        with pytest.raises(ValueError, match="orthonormal"):
            verify_conditional_law(30, 10_000, query_sequence=[e1, e1], seed=0)

    def test_requires_unit_spike(self):
        with pytest.raises(ValueError, match="unit"):
            verify_conditional_law(30, 10_000, spike=2.0 * np.eye(30)[0], seed=0)

    def test_null_law_passes(self):
        rep = verify_conditional_law(40, 10_000, seed=5)
        assert rep.passed
        labels = [r.label for r in rep.rows]
        assert "mean step 1" in labels
        assert "cov step 2 rel-frobenius" in labels
        assert "cross-cov max entry" in labels

    def test_projection_kills_spike_in_second_step(self):
        # With u = v1 the step-2 mean lam (u.v2) P1 u vanishes twice over:
        # u is orthogonal to v2 and P1 annihilates u.
        rep = verify_conditional_law(40, 8_000, lam=2.0, seed=6)
        assert rep.passed

    def test_spiked_mean_matches(self):
        d = 40
        spike = unit(np.eye(d)[0] + np.eye(d)[1])
        rep = verify_conditional_law(d, 8_000, lam=1.5, spike=spike, seed=7)
        assert rep.passed


class TestGaussQuadratic:
    def test_requires_unit_vectors(self):
        with pytest.raises(ValueError, match="unit"):
            verify_gauss_quadratic(10, 1000, v1=np.full(10, 1.0), seed=0)

    def test_same_direction_small_d(self):
        e1 = np.eye(2)[0]
        rep = verify_gauss_quadratic(2, 40_000, v1=e1, v2=e1, seed=8, tol=0.1)
        assert rep.passed

    def test_orthogonal_directions(self):
        rep = verify_gauss_quadratic(6, 40_000, seed=9, tol=0.1)
        assert rep.passed

    @pytest.mark.parametrize("seed", [273144812, 2047396679, 1131839233])
    def test_quick_passes_where_the_unstandardized_maximum_failed(self, seed):
        # entry (0, 1)'s single-draw variance is 4, and the raw maximum read
        # 0.0513, 0.0511 and 0.0528 at these CLI seeds, past tol 0.05
        rep = run_check("gauss-quadratic", quick=True, seed=seed)
        assert rep.passed
        assert rep.rows[0].label == "max standardized entry error"

    def test_entry_sd_matches_monte_carlo(self):
        d, n = 4, 200_000
        rng = np.random.default_rng(60)
        v1, v2 = unit(rng.standard_normal(d)), unit(rng.standard_normal(d))
        a = rng.standard_normal((n, d, d))
        w = (a + a.transpose(0, 2, 1)) / math.sqrt(2.0)  # off-diagonal var 1, diagonal 2
        products = (w @ v1)[:, :, None] * (w @ v2)[:, None, :]
        empirical = products.std(axis=0)
        sd = verify._gauss_quadratic_sd(v1, v2)
        assert np.all(sd >= 1.0)
        # the sd of a sample sd is under 1% here
        assert np.max(np.abs(empirical / sd - 1.0)) < 0.03

    def test_quick_size_still_fails_a_mutated_sampler(self, monkeypatch):
        fill_goe = verify._fill_goe

        def inflated(x, rng):
            w = fill_goe(x, rng)  # the leading s columns of each draw
            diagonal = np.einsum("mii->mi", w[:, : w.shape[2]]).copy()
            w *= 1.1
            np.einsum("mii->mi", w[:, : w.shape[2]])[...] = diagonal
            return w

        monkeypatch.setattr(verify, "_fill_goe", inflated)
        for seed in (0, 1):
            assert not run_check("gauss-quadratic", quick=True, seed=seed).passed


class TestReductionEvents:
    def test_regime_violation(self):
        with pytest.raises(ValueError, match="regime violation"):
            verify_reduction_events(200, 1.5, 0.1, 5, seed=10)

    def test_delta_domain(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="delta0"):
                verify_reduction_events(200, 4.0, bad, 5, seed=10)

    def test_dimension_domain(self):
        # a 1 x 1 matrix has no lam_2 for events (1) and (2) to read
        with pytest.raises(ValueError, match="d >= 2"):
            verify_reduction_events(1, 10.0, 0.1, 5, seed=10)

    def test_modest_conjunction_passes(self):
        rep = verify_reduction_events(200, 4.0, 0.1, 30, seed=11)
        assert rep.passed
        assert 1.5 < rep.params["kd_hat"] < 2.2
        assert 0.0 < rep.params["gamma"] < 1.0
        labels = [r.label for r in rep.rows]
        assert "conjunction failure fraction" in labels
        assert "d=3 grid overlap-lemma violation" in labels

    def test_kd_grid_and_trials_draw_from_distinct_streams(self, monkeypatch):
        opened = []

        def recording_as_rng(seed):
            opened.append(seed)
            return as_rng(seed)

        monkeypatch.setattr(verify, "as_rng", recording_as_rng)
        n = 4
        verify_reduction_events(200, 4.0, 0.1, n, seed=13, grid_size=50)
        # the K_d stream, one per trial, the grid's
        assert len(opened) == n + 2
        first = {tuple(np.random.default_rng(s).standard_normal(4)) for s in opened}
        assert len(first) == n + 2

    def test_large_lambda_regime(self):
        # At lam far above the noise level the F bound approaches
        # sqrt(1 - eps) and Lanczos recovers the spike almost exactly.
        rep = verify_reduction_events(100, 50.0, 0.1, 15, seed=12)
        assert rep.passed


class TestOverlapGrowth:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="algorithm_kind"):
            verify_overlap_growth("newton", 100, 3.0, 0.05, 3, 10, seed=0)

    def test_lambda_domain(self):
        with pytest.raises(ValueError, match="lam >= 1"):
            verify_overlap_growth("power", 100, 0.5, 0.05, 3, 10, seed=0)

    @pytest.mark.parametrize("kind", sorted(ALGORITHM_KINDS))
    def test_modest_run_passes(self, kind):
        rep = verify_overlap_growth(kind, 300, 3.0, 0.05, 4, 40, seed=13)
        assert rep.passed
        assert rep.rows[0].label == "violation fraction"
        assert rep.rows[1].bound == 0.05

    def test_spike_aware_probe_violates_immediately(self):
        # Sanity inversion: a probe that reads the hidden spike and queries
        # it directly sits outside the query model, and the schedule flags
        # it at the first step in every trial.
        d, lam, delta = 300, 3.0, 0.05
        schedule = chi_tau_schedule(d, lam, delta, 3).closed_form
        tau1 = schedule.taus[0]
        assert tau1 < d
        hits = 0
        n = 25
        for i in range(n):
            inst = make_spiked(d, lam, seed=as_rng(1000 + i))
            session = open_session(inst, budget=1)
            session.query(inst.theta)
            transcript = session.finalize(inst.theta)
            event = TruncationEvent(schedule, inst.theta, 1)
            if event.overlaps(transcript)[0] > tau1:
                hits += 1
        assert hits == n


class TestDetectionGap:
    def test_lambda_domain(self):
        with pytest.raises(ValueError, match="lam > 2"):
            verify_detection_gap(100, 2.0, 3, 10, seed=0)

    def test_full_budget_near_zero_error(self):
        rep = verify_detection_gap(24, 8.0, 24, 40, seed=14)
        assert rep.passed
        assert rep.params["error_sum"] <= 0.05

    def test_error_sum_decreases_and_crosses(self):
        d, lam, n = 512, 8.0, 40
        errs = {}
        for T in (1, 2, 3, 4, 5, 6):
            rep = verify_detection_gap(d, lam, T, n, seed=15)
            assert rep.rows[0].passed  # type-I calibration at every T
            errs[T] = rep.params["error_sum"]
        assert errs[6] <= errs[1] + 1e-9
        assert errs[6] <= 0.1
        crossing = min(T for T, e in errs.items() if e <= 0.1)
        assert crossing <= 3.0 * math.log(d) / math.log(lam)


class TestKd:
    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 10"):
            verify_kd((200,), 5, seed=0)

    def test_band_and_spread(self):
        rep = verify_kd((150, 300), 12, seed=16)
        assert rep.passed
        assert len(rep.rows) == 6
        assert "d=150" in rep.notes and "d=300" in rep.notes


class TestRunCheckRegistry:
    def test_registry_keys_align(self):
        assert set(CHECKS) == set(DEFAULT_PARAMS) == set(QUICK_PARAMS)

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_check("no-such-check")

    def test_override_merge(self):
        rep = run_check("kd", quick=True, seed=17, overrides={"n": 10, "d_grid": (100,)})
        assert rep.n_samples == 10
        assert tuple(rep.params["d_grid"]) == (100,)

    def test_quick_check_passes(self):
        assert run_check("gauss-quadratic", quick=True, seed=18).passed


class TestReproducibility:
    def test_none_seed_is_pinned(self):
        rep = verify_sphere_tail(60, 10_000, seed=None)
        assert isinstance(rep.seed, int)
        again = verify_sphere_tail(60, 10_000, seed=rep.seed)
        assert reports_to_csv([rep]) == reports_to_csv([again])

    def test_generator_seed_is_pinned(self):
        rep = verify_sphere_tail(60, 10_000, seed=np.random.default_rng(3))
        assert isinstance(rep.seed, int)

    def test_gauss_quadratic_bitwise(self):
        a = verify_gauss_quadratic(20, 20_000, seed=19)
        b = verify_gauss_quadratic(20, 20_000, seed=19)
        assert reports_to_csv([a]) == reports_to_csv([b])

    def test_kd_bitwise(self):
        a = run_check("kd", quick=True, seed=20, overrides={"d_grid": (120,), "n": 10})
        b = run_check("kd", quick=True, seed=20, overrides={"d_grid": (120,), "n": 10})
        assert reports_to_csv([a]) == reports_to_csv([b])


def _whole_chunk_matvecs(rng, m, d, vectors, out=None):
    """Reference: the free entries of all m GOE matrices of a chunk drawn as
    one (m, d(d+1)/2) array, each row the upper triangle of one matrix in
    row-major order, diagonal times sqrt(2), mirrored; then one stacked
    matvec per vector, copied into out when it is given."""
    z = rng.standard_normal((m, d * (d + 1) // 2))
    w = np.zeros((m, d, d))
    rows, cols = np.triu_indices(d)
    w[:, rows, cols] = z
    w[:, cols, rows] = z
    diag = np.arange(d)
    w[:, diag, diag] *= math.sqrt(2.0)
    products = [w @ v for v in vectors]
    if out is None:
        return products
    for y, product in zip(out, products):
        y[...] = product
    return out


def _chunk_and_step(n, d):
    """(draws per chunk of n GOE draws, draws per slab) at dimension d."""
    return verify._chunk_draws(n, d), max(1, verify.SLAB // (d * d))


class TestStreamedDrawsBitIdentical:
    """The streamed checks give the reports of the whole-chunk draw."""

    def test_shapes_cover_the_edges(self):
        chunk, step = _chunk_and_step(1000, 50)
        # two chunks, each ending in a partial slab
        assert chunk < 1000 < 2 * chunk and chunk % step and (1000 - chunk) % step
        chunk, step = _chunk_and_step(1000, 30)
        assert 1000 < chunk and 1000 % step  # one chunk
        chunk, step = _chunk_and_step(600, 190)
        assert step == 1 and 3 * chunk < 600 < 4 * chunk  # one draw a slab, 4 chunks
        assert 10_007 % (verify.SLAB // 200) and 10_000 % (verify.SLAB // 60)

    @pytest.mark.parametrize("m, d, tile", [(13, 50, 128), (3, 50, 37), (2, 129, 64), (1, 300, 128)])
    def test_goe_batch_is_successive_sample_goe(self, m, d, tile, monkeypatch):
        # the column draw at s = d
        monkeypatch.setattr(instances, "TILE", tile)
        batch = verify._fill_goe(np.empty((m, d, d)), as_rng(56))
        rng = as_rng(56)
        for w in batch:
            assert np.array_equal(w, sample_goe(d, rng))

    @pytest.mark.parametrize("d, n", [(50, 1000), (190, 600), (50, 1)])
    def test_gauss_quadratic(self, d, n, monkeypatch):
        rng = as_rng(50)
        v1, v2 = unit(rng.standard_normal(d)), unit(rng.standard_normal(d))
        streamed = verify_gauss_quadratic(d, n, v1, v2, seed=51)
        monkeypatch.setattr(verify, "_goe_matvecs", _whole_chunk_matvecs)
        reference = verify_gauss_quadratic(d, n, v1, v2, seed=51)
        assert streamed.rows == reference.rows
        assert reports_to_csv([streamed]) == reports_to_csv([reference])

    @pytest.mark.parametrize("d, n", [(30, 1000), (190, 600)])
    def test_conditional_law_spiked_two_queries(self, d, n, monkeypatch):
        rng = as_rng(52)
        q, _ = np.linalg.qr(rng.standard_normal((d, 2)))
        queries = [q[:, 0], q[:, 1]]
        spike = unit(rng.standard_normal(d))
        args = (d, n, queries, 1.5, spike)
        streamed = verify_conditional_law(*args, seed=53)
        monkeypatch.setattr(verify, "_goe_matvecs", _whole_chunk_matvecs)
        reference = verify_conditional_law(*args, seed=53)
        assert streamed.rows == reference.rows
        assert reports_to_csv([streamed]) == reports_to_csv([reference])

    @pytest.mark.parametrize("d, n", [(50, 1000), (190, 600), (50, 1)])
    def test_gauss_quadratic_chunk_j_draws_from_trial_seed_j(self, d, n):
        rng = as_rng(57)
        v1, v2 = unit(rng.standard_normal(d)), unit(rng.standard_normal(d))
        size = verify._chunk_draws(n, d)
        acc = np.zeros((d, d))
        for j, start in enumerate(range(0, n, size)):
            chunk_rng = as_rng(trial_seed(58, j))
            y1, y2 = verify._goe_matvecs(chunk_rng, min(size, n - start), d, (v1, v2))
            acc += y1.T @ y2
        err = acc / n - np.outer(v2, v1) - (v1 @ v2) * np.eye(d)
        err = np.max(np.abs(err / verify._gauss_quadratic_sd(v1, v2)))
        rep = verify_gauss_quadratic(d, n, v1, v2, seed=58)
        assert rep.rows[0].empirical == float(err)

    @pytest.mark.parametrize("name, d, n", [
        ("gauss-quadratic", 50, 1000), ("conditional-law", 30, 2500),
        ("conditional-law", 190, 600),
    ])
    def test_chunk_j_opens_trial_seed_j(self, name, d, n, monkeypatch):
        calls = []
        goe_matvecs = verify._goe_matvecs

        def recording(rng, m, *args):
            calls.append((repr(rng.bit_generator.state), m))
            return goe_matvecs(rng, m, *args)

        monkeypatch.setattr(verify, "_goe_matvecs", recording)
        run_check(name, seed=59, overrides={"d": d, "n": n})
        size = verify._chunk_draws(n, d)
        expected = [
            (repr(as_rng(trial_seed(59, j)).bit_generator.state), min(size, n - start))
            for j, start in enumerate(range(0, n, size))
        ]
        assert len(expected) > 1
        assert sorted(calls) == sorted(expected)

    @pytest.mark.parametrize("d, n", [(200, 10_007), (60, 10_000), (200, 1), (1, 3)])
    def test_sphere_overlaps(self, d, n):
        rng = as_rng(54)
        g0 = rng.standard_normal(n)
        norm2 = g0 * g0 + (rng.chisquare(d - 1, n) if d > 1 else 0.0)
        reference = np.abs(g0) / np.sqrt(norm2)
        assert np.array_equal(verify._sphere_overlaps(as_rng(54), n, d), reference)

    def test_sphere_tail_report(self):
        d, n = 200, 10_007
        rng = as_rng(55)
        g0 = rng.standard_normal(n)
        overlaps = np.abs(g0) / np.sqrt(g0 * g0 + rng.chisquare(d - 1, n))
        scaled = math.sqrt(d) * overlaps
        t_grid = (0.5, 1.0, 1.5, 2.0)
        expected = [float(np.mean(scaled >= math.sqrt(2.0) + t)) for t in t_grid]
        expected.append(float(np.mean(overlaps >= math.sqrt(2.0 / d))))
        rep = verify_sphere_tail(d, n, t_grid, seed=55)
        assert [r.empirical for r in rep.rows] == expected


class TestColumnDraws:
    """The GOE checks draw only the leading s columns their vectors read."""

    @pytest.mark.parametrize("d, s", [(1, 1), (50, 1), (50, 2), (50, 49), (130, 3), (300, 299)])
    def test_packed_layout_is_the_leading_columns(self, d, s):
        index, diagonal = instances._packed_layout(d, s)
        full_index, full_diagonal = instances._packed_layout(d, d)
        assert np.array_equal(index, full_index[:, :s])
        assert np.array_equal(diagonal, full_diagonal[:s])

    @pytest.mark.parametrize("m, d, s", [(3, 50, 2), (4, 7, 1), (2, 130, 5), (1, 300, 299)])
    def test_column_draw_is_the_scattered_prefix(self, m, d, s):
        rng = as_rng(61)
        z = rng.standard_normal((m, s * d - s * (s - 1) // 2))
        reference = np.zeros((m, d, s))
        for j in range(m):
            pos = 0
            for r in range(s):  # packed row r holds entries (r, r), ..., (r, d - 1)
                for c in range(r, d):
                    value = z[j, pos] * (math.sqrt(2.0) if c == r else 1.0)
                    reference[j, c, r] = value
                    if c < s:
                        reference[j, r, c] = value
                    pos += 1
        w = verify._fill_goe(np.empty((m, d, s)), as_rng(61))
        assert np.array_equal(w, reference)
        if s > 1:
            assert np.array_equal(w[:, 1, 0], w[:, 0, 1])
        # the matvecs of vectors supported on the first s coordinates read them
        v = [np.eye(d)[0], np.eye(d)[s - 1]]
        y = verify._goe_matvecs(as_rng(61), m, d, v)
        assert np.array_equal(y[0], w[:, :, 0]) and np.array_equal(y[1], w[:, :, s - 1])

    @pytest.mark.parametrize("d", [2, 200])
    def test_sphere_overlap_is_beta_distributed(self, d):
        # theta_1^2 ~ Beta(1/2, (d - 1)/2) for theta uniform on the sphere
        overlaps = verify._sphere_overlaps(as_rng(62), 20_000, d)
        assert kstest(overlaps**2, beta(0.5, (d - 1) / 2.0).cdf).pvalue > 0.01


def _quick_peak(name):
    """tracemalloc peak of one quick run of the named check, in bytes."""
    tracemalloc.start()
    try:
        run_check(name, quick=True, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["gauss-quadratic", "conditional-law", "sphere-tail"])
def test_quick_check_memory_peak(name):
    # one chunk of GOE draws held as one array is 160 MB, the quick
    # sphere-tail draw as one (n, d) array 32 MB; conditional-law holds its
    # two (n, d) response arrays and slab-sized temporaries, where centered
    # copies of them took it to 2.9x the two arrays
    limit = 32 * 2**20
    if name == "conditional-law":
        p = QUICK_PARAMS[name]
        limit = 1.5 * 2 * p["n"] * p["d"] * 8
    assert _quick_peak(name) < limit


def _cores(monkeypatch, k):
    """Make the process see k available cores."""
    monkeypatch.setattr(instances.os, "sched_getaffinity", lambda pid: set(range(k)))


@pytest.mark.parametrize("cores", [3, 8, 64])
@pytest.mark.parametrize("name", ["gauss-quadratic", "conditional-law"])
def test_chunked_checks_memory_peak_on_many_cores(name, cores, monkeypatch):
    # each thread holds one chunk's slab and temporaries on top; at most
    # SLAB_WORKERS threads run
    _cores(monkeypatch, cores)
    test_quick_check_memory_peak(name)


def test_gauss_quadratic_holds_at_most_max_chunks_sums(monkeypatch):
    # a slab of 256 elements puts d = 20 above sqrt(SLAB), where a chunk of
    # d draws would make n / d = 1000 chunks and hold 1000 d x d sums
    monkeypatch.setattr(verify, "SLAB", 256)
    d, n = 20, 20_000
    assert -(-n // verify._chunk_draws(n, d)) == verify.MAX_CHUNKS
    _cores(monkeypatch, 1)
    tracemalloc.start()
    try:
        verify_gauss_quadratic(d, n, seed=3, tol=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # twice the sums and one chunk's two (n / MAX_CHUNKS, d) matvec arrays;
    # 1000 sums would take 3.2 MB
    sums, matvecs = verify.MAX_CHUNKS * 8 * d * d, 2 * 8 * d * -(-n // verify.MAX_CHUNKS)
    assert peak < 2 * (sums + matvecs)


@pytest.mark.parametrize("name, per_trial", [("overlap-growth", 1), ("detection-gap", 2)])
def test_trial_checks_hold_few_instances_under_the_pool(name, per_trial, monkeypatch):
    # three threads each hold one trial's instances; two more d x d arrays
    # cover the draw being turned into an instance
    _cores(monkeypatch, 3)
    d = QUICK_PARAMS[name]["d"]
    assert _quick_peak(name) <= (3 * per_trial + 2) * 8 * d * d


class TestCertifiedSpectra:
    """The extreme eigenvalues reduction-events and kd read off a lazy
    instance are those of its matrix to SPECTRUM_RTOL |M|, and have the law
    of a dense instance's."""

    @staticmethod
    def _certified(d, lam, rng):
        """(instance, [lam_1, rest]) as a reduction-events trial reads them,
        after its budget-12 Lanczos session, with rest = max(lam_2, -lam_d);
        at lam = 0 (instance, [||M||]) as kd reads it."""
        inst = make_lazy_spiked(d, lam, seed=rng)
        if not lam:
            vals = instances._revealed_span_extremes(inst, verify.SPECTRUM_RTOL)
            return inst, [np.max(np.abs(vals))]
        run(open_session(inst, budget=12), AlgorithmConfig(kind="lanczos", seed=rng))
        vals = instances._revealed_span_extremes(inst, verify.SPECTRUM_RTOL, top=2)
        return inst, [vals[0], np.max(np.abs(vals[1:]))]

    @pytest.mark.parametrize("lam", [0.0, 4.0])
    @pytest.mark.parametrize("d", [40, 150])
    def test_certified_values_are_those_of_the_completed_span(self, d, lam):
        # the span continued to k = d holds the whole spectrum of the matrix
        for seed in range(5):
            inst, vals = self._certified(d, lam, as_rng(trial_seed(d, seed)))
            span = instances._RevealedSpan(inst)
            span.restart(np.eye(1, span.k, span.k - 1)[0])
            while span.k < d:
                span.expand()
            exact = np.linalg.eigvalsh(span.H)
            scale = np.max(np.abs(exact))
            reference = [exact[-1], np.max(np.abs(exact[:-1]))] if lam else [scale]
            assert np.max(np.abs(np.subtract(vals, reference))) <= verify.SPECTRUM_RTOL * scale

    def test_rest_and_null_norm_match_dense_in_law(self):
        # 400 draws a side at d = 100: lam_1 and rest = max(lam_2, -lam_d)
        # after the reduction-events session at lam = 4, and ||W|| / sqrt(d);
        # three two-sample KS tests at family-wise level 0.01
        d, n = 100, 400
        lazy, dense = np.empty((n, 3)), np.empty((n, 3))
        for i in range(n):
            lazy[i, :2] = self._certified(d, 4.0, as_rng(trial_seed(300, i)))[1]
            vals = np.linalg.eigvalsh(make_spiked(d, 4.0, seed=trial_seed(301, i)).matrix)
            dense[i, :2] = vals[-1], np.max(np.abs(vals[:-1]))
        lazy[:, 2] = verify._null_norms(d, n, as_rng(302))
        rng = as_rng(303)
        dense[:, 2] = [np.max(np.abs(np.linalg.eigvalsh(sample_goe(d, rng)))) / math.sqrt(d)
                       for _ in range(n)]
        for column, name in enumerate(["lam_1", "rest", "null norm"]):
            p = ks_2samp(lazy[:, column], dense[:, column]).pvalue
            assert p > 0.01 / 3, f"{name}: KS p = {p:.2g}"


class TestLazyInstanceLaw:
    """Runs on matrix-free instances have the law of runs on dense ones, and
    their projected responses the conditional law."""

    # 30 two-sample KS tests below, at family-wise level 0.01
    ALPHA = 0.01 / 30

    @staticmethod
    def _statistics(make, kind, lam, T, seed):
        """Per-step d <b_k, theta>^2, the final <v_hat, theta>^2 and, for a
        Ritz output, its value, as the columns of one row per trial; 1000
        trials at d = 300."""
        d = 300

        def trial(i):
            rng = as_rng(trial_seed(seed, i))
            inst = make(d, lam, seed=rng)
            session = open_session(inst, budget=T)
            v_hat, ritz = run(session, AlgorithmConfig(kind=kind, seed=rng))
            steps = session.transcript.steps
            row = [d * float(st.basis_vector @ inst.theta) ** 2 for st in steps]
            row.append(float(v_hat @ inst.theta) ** 2)
            return row + ([] if ritz is None else [ritz])

        return np.array(instances.map_trials(trial, 1000))

    @pytest.mark.parametrize(
        "case, kind, lam, T",
        [(0, "power", 3.0, 5), (1, "lanczos", 3.0, 5), (2, "random", 3.0, 5),
         (3, "lanczos", 0.0, 3), (4, "lanczos", 8.0, 3)],
    )
    def test_runs_match_dense_runs_in_law(self, case, kind, lam, T):
        lazy = self._statistics(make_lazy_spiked, kind, lam, T, seed=2 * case)
        dense = self._statistics(make_spiked, kind, lam, T, seed=2 * case + 1)
        assert lazy.shape == dense.shape == (1000, T + 1 + (kind != "power"))
        for column in range(lazy.shape[1]):
            p = ks_2samp(lazy[:, column], dense[:, column]).pvalue
            assert p > self.ALPHA, f"{kind} lam={lam} column {column}: KS p = {p:.2g}"

    def test_projected_responses_meet_the_conditional_law(self):
        # verify_conditional_law's rows on responses drawn through sessions
        d, n, lam = 40, 8_000, 1.5
        u = unit(np.eye(d)[0] + np.eye(d)[1])
        queries = list(np.linalg.qr(as_rng(70).standard_normal((d, 3)))[0].T)
        responses = [np.empty((n, d)) for _ in queries]
        rng = as_rng(71)
        for i in range(n):
            session = open_session(LazySpikedInstance(u, lam, rng), budget=len(queries))
            for v in queries:
                session.query(v)
            for j, resp in enumerate(responses):
                resp[i] = session.projected_view(j + 1).projected_response
        projectors, P = [], np.eye(d)
        for v in queries:
            projectors.append(P)
            P = P - np.outer(v, v)
        rows = verify._conditional_law_rows(queries, projectors, responses, lam, u)
        assert len(rows) == 7  # a mean and a covariance row per step, one cross row
        assert all(r.passed for r in rows), rows


def test_lazy_overlap_growth_holds_o_of_T_d_floats(monkeypatch):
    # one trial thread at d = 2e5, where a d x d array would be 320 GB: the
    # instance and the session hold LAZY_TRIAL_ARRAYS = 4 (T, d) arrays (the
    # revealed directions, their noise images, the queries and the raw
    # responses), and the passes of a query a few d-vectors more (the peak
    # measured 6.0 T d 8 B)
    _cores(monkeypatch, 1)
    d, T = 200_000, 5
    tracemalloc.start()
    try:
        verify_overlap_growth("lanczos", d, 3.0, 0.05, T, 2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verify.LAZY_TRIAL_ARRAYS == 4
    assert peak <= 7 * T * d * 8


class TestThreadCountInvariance:
    """A threaded check's CSV and summary are the same inline and on three
    threads."""

    CASES = {
        # 5 and 8 chunks
        "gauss-quadratic": lambda: verify_gauss_quadratic(30, 5000, seed=23, tol=0.1),
        "conditional-law": lambda: verify_conditional_law(40, 6000, lam=1.5, seed=24),
        # three trials fail here, the first of them trial 0
        "reduction-events": lambda: verify_reduction_events(80, 3.0, 0.95, 16, seed=22),
        "overlap-growth": lambda: verify_overlap_growth("lanczos", 200, 3.0, 0.05, 4, 12, seed=5),
        "detection-gap": lambda: verify_detection_gap(120, 8.0, 2, 12, seed=6),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_and_three_threads_byte_identical(self, name, monkeypatch):
        texts = []
        interval = sys.getswitchinterval()
        for cores in (1, 3):
            _cores(monkeypatch, cores)
            sys.setswitchinterval(1e-5)  # interleave the trial threads often
            try:
                rep = self.CASES[name]()
            finally:
                sys.setswitchinterval(interval)
            texts.append(reports_to_csv([rep]) + reports_summary([rep]))
        assert texts[0] == texts[1]
        if name == "reduction-events":
            assert "note: trial 0: item1=False" in texts[0]


class TestLipschitzTailInvariant:
    """Pr[|theta^T W theta| >= t] <= 2 exp(-t^2 / 4) for unit theta.

    The quadratic form theta^T W theta is exactly N(0, 2) for every unit
    theta (variance 2 sum(theta_i^2)^2), so a large-n scalar route samples
    the true law directly; a smaller full-matrix route with a fresh random
    theta per draw confirms the reduction.
    """

    T_GRID = (1.0, 2.0, 3.0)

    @staticmethod
    def check_tails(samples, t_grid):
        n = samples.size
        for t in t_grid:
            phat = float(np.mean(np.abs(samples) >= t))
            bound = 2.0 * math.exp(-t * t / 4.0)
            se = math.sqrt(max(phat * (1 - phat), 0.0) / n)
            assert phat <= bound + 3.0 * se

    def test_scalar_route_large_n(self):
        rng = as_rng(31)
        samples = rng.normal(0.0, math.sqrt(2.0), 100_000)
        self.check_tails(samples, self.T_GRID)

    def test_matrix_route(self):
        d, n = 50, 2_500
        rng = as_rng(32)
        samples = np.empty(n)
        for i in range(n):
            w = sample_goe(d, rng)
            theta = sample_uniform_sphere(d, rng)
            samples[i] = theta @ w @ theta
        self.check_tails(samples, (1.0, 2.0))


class TestKlWarmupInvariant:
    def test_per_step_kl_cap(self):
        # KL between the two conditional response laws at one step is at
        # most (lam^2 d / 2)(a^2 + b^2 - 2 a b <u0, u1>) with a = <u0, v>,
        # b = <u1, v>, for any projector P off past queries and any current
        # query v in its range.
        d = 20
        rng = as_rng(41)
        for _ in range(100):
            k = int(rng.integers(0, 6))
            if k:
                q, _ = np.linalg.qr(rng.standard_normal((d, k)))
                P = np.eye(d) - q @ q.T
            else:
                P = np.eye(d)
            v = unit(P @ rng.standard_normal(d))
            u0 = unit(rng.standard_normal(d))
            u1 = unit(rng.standard_normal(d))
            lam = float(rng.uniform(0.5, 3.0))
            m0 = lam * float(u0 @ v) * (P @ u0)
            m1 = lam * float(u1 @ v) * (P @ u1)
            sigma = P + np.outer(v, v)
            kl = gaussian_kl(m0, m1, sigma / d)
            a, b = float(u0 @ v), float(u1 @ v)
            cap = (lam**2 * d / 2.0) * (a * a + b * b - 2 * a * b * float(u0 @ u1))
            assert kl <= cap + 1e-9
