"""Unit tests for closed-form bounds, thresholds, and tau-schedules."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikequery.bounds import (
    C1_DETECTION_DEFAULT,
    C1_ESTIMATION_DEFAULT,
    C1_MAIN_DEFAULT,
    C_FACTOR_CAP,
    C_FACTOR_CAP_HALF,
    TauSchedule,
    c_factor,
    chi_tau_schedule,
    detection_error_bound,
    detection_tv_bound,
    estimation_success_bound,
    f_overlap,
    f_overlap_floor,
    gamma_of,
    kl_tau_schedule,
    main_theorem_bound,
    min_queries,
)


# ------------------------------------------------------------------ constants

def test_constant_values():
    assert abs(C_FACTOR_CAP - 13.656854249492378) < 1e-14
    assert abs(C_FACTOR_CAP_HALF - c_factor(0.5, 1.0)) < 1e-12
    assert abs(C_FACTOR_CAP_HALF - 17.27977639143566) < 1e-11
    assert abs(C1_ESTIMATION_DEFAULT - 2 * C_FACTOR_CAP) < 1e-14
    assert abs(C1_MAIN_DEFAULT - 0.09567085809127246) < 1e-15
    assert abs(C1_DETECTION_DEFAULT - 4.1568950421481246) < 1e-13


# ------------------------------------------------------------------ f_overlap

def test_f_overlap_examples():
    assert f_overlap(0.0, 0.0) == 1.0
    assert abs(f_overlap(0.19, 1e-9) - 0.9) <= 1e-6
    assert abs(f_overlap(0.1, 0.2) - 0.7182458365518543) <= 1e-12


def test_f_overlap_domain():
    with pytest.raises(ValueError):
        f_overlap(0.9, 0.2)  # eps > 1 - gamma
    with pytest.raises(ValueError):
        f_overlap(0.1, 1.0)


def test_f_overlap_monotone_grid():
    gammas = np.linspace(0.0, 0.8, 9)
    for g in gammas:
        epss = np.linspace(0.0, 1 - g, 12)
        vals = [f_overlap(e, g) for e in epss]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), f"not dec. in eps at g={g}"
    for e in np.linspace(0.0, 0.19, 5):
        gs = np.linspace(0.0, 0.8, 9)
        vals = [f_overlap(e, g) for g in gs]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), f"not dec. in gamma at e={e}"


def test_f_overlap_floor_examples():
    assert abs(f_overlap_floor(0.5, 0.0) - 0.25) <= 1e-10
    # both min arguments vanish as eps -> 1 - gamma
    assert f_overlap_floor(0.699999, 0.3) <= 1e-4


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.98), st.floats(min_value=0.0, max_value=0.98))
def test_f_overlap_dominates_floor(eps_frac, gamma):
    eps = eps_frac * (1 - gamma)
    if eps <= 0 or eps >= 1 - gamma:
        return
    assert f_overlap(eps, gamma) >= f_overlap_floor(eps, gamma) - 1e-12


def test_f_overlap_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = rng.uniform(0, 0.99)
        e = rng.uniform(0, 1 - g)
        v = f_overlap(e, g)
        assert 0.0 <= v <= 1.0


# ------------------------------------------------------------------- gamma_of

def test_gamma_of_examples():
    assert abs(gamma_of(10**6, 4.0, math.exp(-1)) - 0.5007503751875937) <= 1e-12
    assert abs(gamma_of(10**6, 3.0, 0.01) - 0.6690544894869764) <= 1e-12
    # lambda very large: gamma -> kd / lambda
    assert abs(gamma_of(10**8, 1000.0, 0.5) - 2.0 / 1000.0) <= 1e-4


def test_gamma_of_regime_errors():
    d, delta0 = 100, 0.1
    dev = 2 * math.sqrt(math.log(1 / delta0) / d)
    with pytest.raises(ValueError):
        gamma_of(d, 2.0 + 2 * dev, delta0)  # gamma == 1 exactly
    with pytest.raises(ValueError):
        gamma_of(d, dev / 2, delta0)  # denominator negative
    with pytest.raises(ValueError):
        gamma_of(d, 5.0, 1.5)


# ------------------------------------------------------------ kl_tau_schedule

def test_kl_schedule_frozen_values():
    s = kl_tau_schedule(10**6, 1.0, 8)
    assert s.kind == "kl"
    assert s.saturated and s.horizon == 4
    expect = [37.54517744447956, 1588.0578059152667, 39346.03485470995, 460352.36072864954]
    assert np.allclose(s.taus, expect, rtol=1e-10)


def test_kl_schedule_strictly_increasing():
    for d, lam in [(10**4, 0.5), (10**6, 1.0), (10**9, 2.0), (10**3, 1.0)]:
        s = kl_tau_schedule(d, lam, 10)
        assert np.all(np.diff(s.taus) > 0), f"not increasing at d={d}, lam={lam}"


def test_kl_schedule_monotone_in_d():
    a = kl_tau_schedule(10**6, 1.0, 3)
    b = kl_tau_schedule(2 * 10**6, 1.0, 3)
    assert b.taus[1] > a.taus[1]
    assert np.all(b.taus[: len(a.taus)] >= a.taus)


def test_kl_first_increment_exactly_affine_in_logd():
    # tau_2 - tau_1 = const + (L_1/C1) * log d with L_1 independent of d,
    # so the first increment regresses onto log d with R^2 = 1
    ds = [10**k for k in range(3, 10)]
    y = np.array([kl_tau_schedule(d, 1.0, 3).increments()[0] for d in ds])
    x = np.log(ds)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    r2 = 1 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
    assert r2 >= 1 - 1e-12


def test_kl_schedule_saturation_flag():
    s = kl_tau_schedule(10**3, 1.0, 5)
    assert s.saturated
    assert s.horizon == 2
    assert np.allclose(s.taus, [37.54517744447956, 484.71046526464283], rtol=1e-10)
    big = kl_tau_schedule(10**9, 0.5, 4)
    assert not big.saturated
    assert len(big.taus) == 5  # tau_1 .. tau_{T+1}


def test_kl_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        kl_tau_schedule(100, 0.0, 5)
    with pytest.raises(ValueError):
        kl_tau_schedule(100, 1.0, 0)
    with pytest.raises(ValueError):
        kl_tau_schedule(100, 1.0, 5, C1=-1.0)


def test_tau_schedule_type_validates():
    with pytest.raises(ValueError):
        TauSchedule(np.array([1.0, -2.0]), "kl")
    with pytest.raises(ValueError):
        TauSchedule(np.array([]), "kl")


# ------------------------------------------------------------------- c_factor

def test_c_factor_examples():
    assert abs(c_factor(0.5, 1.0) - 17.27977639143566) <= 1e-11
    assert abs(c_factor(1e-8, 100.0) - 1.2937168573657603) <= 1e-12
    # joint limit toward 1
    assert 1.0 < c_factor(1e-30, 1000.0) < 1.14


def test_c_factor_decreasing_in_lambda():
    for delta in (0.5, 0.1, 0.01):
        vals = [c_factor(delta, lam) for lam in (1.0, 1.5, 2.0, 4.0, 8.0, 32.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_c_factor_domain():
    with pytest.raises(ValueError):
        c_factor(1.0, 2.0)
    with pytest.raises(ValueError):
        c_factor(0.5, 0.5)


def test_c_factor_capped():
    rng = np.random.default_rng(1)
    for _ in range(100):
        delta = rng.uniform(1e-6, math.exp(-1))
        lam = rng.uniform(1.0, 50.0)
        assert c_factor(delta, lam) <= C_FACTOR_CAP + 1e-9


# ----------------------------------------------------------- chi_tau_schedule

def test_chi_tau1_values():
    assert abs(chi_tau_schedule(100, 1.0, math.exp(-1), 3).exact.taus[0] - 8.0) <= 1e-12
    assert abs(chi_tau_schedule(100, 1.0, 0.5, 3).exact.taus[0] - 6.716512805750682) <= 1e-12


def test_chi_tau2_algebraic():
    cs = chi_tau_schedule(100, 2.0, 0.25, 4)
    tau1 = cs.exact.taus[0]
    expect = (math.sqrt(2.0) + math.sqrt(2.0 * (4.0 * tau1 + tau1))) ** 2
    assert abs(cs.exact.taus[1] - expect) <= 1e-10
    # defining equation holds at every step
    for k in range(2, len(cs.exact.taus) + 1):
        lhs = 0.5 * (math.sqrt(cs.exact.taus[k - 1]) - math.sqrt(2.0)) ** 2
        rhs = 4.0 * cs.exact.taus[: k - 1].sum() + (k - 1) * tau1
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, rhs)


def test_chi_closed_form_geometric():
    cs = chi_tau_schedule(100, 2.0, 0.1, 6)
    growth = 2.0 * 4.0 * c_factor(0.1, 2.0)
    ratios = cs.closed_form.taus[1:] / cs.closed_form.taus[:-1]
    assert np.allclose(ratios, growth, rtol=1e-12)


def test_chi_violation_mass_param():
    cs = chi_tau_schedule(100, 1.0, 0.05, 3)
    assert abs(cs.exact.params["violation_mass"] - 2 * 0.05 / 0.95) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.005, max_value=0.6),
    st.floats(min_value=1.0, max_value=10.0),
    st.integers(min_value=1, max_value=20),
)
def test_chi_exact_dominated_by_closed_form(delta, lam, T):
    cs = chi_tau_schedule(1000, lam, delta, T)
    assert np.all(cs.exact.taus <= cs.closed_form.taus * (1 + 1e-9))


# -------------------------------------------------------------- bound reports

def test_estimation_bound_examples():
    r = estimation_success_bound(100, 0.0, 2.0, 1)
    assert abs(r.raw - 2.0 / (1.0 - math.exp(-1.0))) <= 1e-12
    assert r.vacuous and r.value == 1.0
    r = estimation_success_bound(10**6, 0.5, 2.0, 1)
    arg = -(10**6) * 0.5 / (4.0 * (C1_ESTIMATION_DEFAULT * 4.0))
    assert arg < -1100
    assert r.raw == 0.0 or r.raw < 1e-300  # e^{-1144}, underflows to 0
    assert not r.vacuous
    # T large -> vacuous
    r = estimation_success_bound(10**6, 0.5, 2.0, 50)
    assert r.vacuous


def test_estimation_bound_monotone_in_T():
    vals = [estimation_success_bound(10**6, 0.3, 2.0, T).raw for T in range(8)]
    assert all(a <= b + 1e-300 for a, b in zip(vals, vals[1:]))


def test_main_theorem_examples():
    vals = [main_theorem_bound(10**5, 0.2, 0.1, T).raw for T in range(10)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 12.0
    with pytest.raises(ValueError):
        main_theorem_bound(10**5, 1.0 / C1_MAIN_DEFAULT + 1.0, 0.1, 2)
    with pytest.raises(ValueError):
        main_theorem_bound(10**5, 0.2, 0.9, 2)  # eps >= 1 - gamma


def test_main_theorem_min_queries_matches_inversion():
    mq = min_queries("main", {"d": 10**6, "gamma": 0.1, "eps": 0.1}, 0.5)
    F = f_overlap(0.1, 0.1)
    closed = math.log(10**6 * F**2 / (4 * math.log(24))) / (
        2 * math.log(1 / (C1_MAIN_DEFAULT * 0.1))
    )
    assert abs(mq - closed) <= 1.0


def test_detection_tv_examples():
    r = detection_tv_bound(10**8, 8.0, 0)
    assert abs(r.raw - 0.11726562767032965) <= 1e-14
    vals = [detection_tv_bound(10**8, 8.0, T).raw for T in range(6)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        detection_tv_bound(10**8, 2.0, 1)


def test_detection_tv_log_clamp():
    # (c1*lam)^T > d: log clamped, vacuous forced
    r = detection_tv_bound(100, 8.0, 4)
    assert r.vacuous
    assert r.value == 1.0


def test_detection_tstar_scaling():
    t6 = min_queries("detection-tv", {"d": 10**6, "lam": 8.0}, 0.9)
    t12 = min_queries("detection-tv", {"d": 10**12, "lam": 8.0}, 0.9)
    assert t6 == 1 and t12 == 2
    assert 1.8 <= t12 / t6 <= 2.2


def test_detection_error_composition():
    tv = detection_tv_bound(10**8, 8.0, 1)
    r = detection_error_bound(10**8, 8.0, 1, 0.01)
    assert abs(r.raw - (1.0 - tv.raw - 0.03)) <= 1e-12
    assert r.value == max(0.0, r.raw)
    # floored at 0 for huge T
    r = detection_error_bound(10**6, 8.0, 50, 1.0 / 3.0)
    assert r.value == 0.0 and r.vacuous


def test_detection_error_regime():
    with pytest.raises(ValueError):
        detection_error_bound(100, 2.0, 1, 0.01)  # below threshold
    with pytest.raises(ValueError):
        detection_error_bound(100, 8.0, 1, 1.2)


def test_detection_error_informative_at_T0():
    r = detection_error_bound(10**8, 8.0, 0, 0.01)
    assert 0.8 <= r.value < 1.0
    assert not r.vacuous


# Whole-domain contracts: each bound returns a value in [0, 1] that is
# monotone in T, or raises ValueError; no T overflows the growth factor.
_finite_or_not = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(
    d=st.one_of(st.integers(-2, 10**4), st.integers(1, 10**30)),
    eta=st.one_of(st.floats(0.0, 1.0), _finite_or_not),
    lam=st.one_of(st.floats(1.0, 1e3), _finite_or_not),
    T=st.integers(-1, 5000),
)
def test_estimation_bound_total_on_domain(d, eta, lam, T):
    try:
        lo = estimation_success_bound(d, eta, lam, T)
        hi = estimation_success_bound(d, eta, lam, T + 1)
    except ValueError:
        return
    assert 0.0 <= lo.value <= hi.value <= 1.0
    assert lo.vacuous == (lo.raw >= 1.0)


@settings(max_examples=300, deadline=None)
@given(
    d=st.one_of(st.integers(-2, 10**4), st.integers(1, 10**30)),
    lam=st.one_of(st.floats(2.0, 1e3), _finite_or_not),
    T=st.integers(-1, 5000),
)
def test_detection_tv_bound_total_on_domain(d, lam, T):
    try:
        lo = detection_tv_bound(d, lam, T)
        hi = detection_tv_bound(d, lam, T + 1)
    except ValueError:
        return
    assert 0.0 <= lo.value <= hi.value <= 1.0
    assert lo.raw <= hi.raw
    if lo.raw >= 1.0:
        assert lo.vacuous


@settings(max_examples=300, deadline=None)
@given(
    d=st.one_of(st.integers(-(10**30), 10**4), st.integers(1, 10**30)),
    gamma=st.one_of(st.floats(0.0, 0.2), _finite_or_not),
    eps=st.one_of(st.floats(0.0, 1.0), _finite_or_not),
    T=st.integers(-1, 5000),
    c1=st.one_of(
        st.just(C1_MAIN_DEFAULT), st.floats(-1.0, 0.0), st.floats(1e-3, 10.0), _finite_or_not
    ),
)
@example(d=10**5, gamma=0.05, eps=0.1, T=2, c1=0.0)
@example(d=10**5, gamma=0.05, eps=0.1, T=2, c1=-1.0)
@example(d=10**5, gamma=0.05, eps=0.1, T=2, c1=math.nan)
@example(d=10**5, gamma=0.05, eps=0.1, T=2, c1=math.inf)
@example(d=-(10**30), gamma=0.05, eps=0.1, T=0, c1=C1_MAIN_DEFAULT)
def test_main_theorem_bound_total_on_domain(d, gamma, eps, T, c1):
    try:
        lo = main_theorem_bound(d, gamma, eps, T, c1=c1)
        hi = main_theorem_bound(d, gamma, eps, T + 1, c1=c1)
    except ValueError:
        return
    assert 0.0 <= lo.value <= hi.value <= 1.0
    assert lo.vacuous == (lo.raw >= 1.0)


def test_bounds_saturate_instead_of_overflowing():
    tv = detection_tv_bound(1000, 8.0, 400)
    assert tv.raw == math.inf and tv.value == 1.0 and tv.vacuous
    est = estimation_success_bound(1000, 0.5, 8.0, 400)
    assert est.value == 1.0 and est.vacuous
    err = detection_error_bound(1000, 8.0, 400, 0.01)
    assert err.value == 0.0 and err.vacuous


# ---------------------------------------------------------------- min_queries

def test_min_queries_threshold_domain():
    with pytest.raises(ValueError):
        min_queries("main", {"d": 100, "gamma": 0.1, "eps": 0.1}, 1.5)
    with pytest.raises(ValueError):
        min_queries("nope", {"d": 100}, 0.5)


def test_min_queries_sentinel():
    # detection error bound never drops to 1e-6 within a tiny cap at T=0..2
    q = min_queries("estimation", {"d": 10**15, "eta": 1.0, "lam": 1.0}, 0.5, cap=3)
    assert q == 4  # sentinel cap+1 (c1*lam^2 > 1 grows too slowly from 1e-15)


def test_min_queries_doubling_logd():
    q1 = min_queries("main", {"d": 10**6, "gamma": 0.1, "eps": 0.1}, 0.5)
    q2 = min_queries("main", {"d": 10**12, "gamma": 0.1, "eps": 0.1}, 0.5)
    assert q2 >= 2 * q1 - 1


def test_estimation_half_crossing_affine_in_log_d_eta():
    # continuous T solving bound = 0.5 must regress onto log(d*eta) with
    # R^2 >= 0.99 at fixed lambda
    lam = 2.0

    log_base = math.log(C1_ESTIMATION_DEFAULT * lam**2)
    log_half_level = math.log(math.log((2.0 / (1.0 - math.exp(-1.0))) / 0.5))

    def t_half(d, eta):
        # bound(T) = 0.5  <=>  log(d*eta/4) - T*log_base = log_half_level;
        # bisect the monotone left side in T (log space avoids overflow)
        lo, hi = 0.0, 400.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if math.log(d * eta / 4.0) - mid * log_base > log_half_level:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    points = [(10**k, eta) for k in range(4, 13, 2) for eta in (0.1, 0.5, 0.9)]
    x = np.array([math.log(d * eta) for d, eta in points])
    y = np.array([t_half(d, eta) for d, eta in points])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    r2 = 1 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
    assert r2 >= 0.99
