"""Closed-form bounds, overlap thresholds, and query schedules.

Everything here is a deterministic function of its arguments: the overlap
guarantee F(eps, gamma) and its floor, the eigenratio threshold
gamma(d, lambda, delta0), the two tau-schedules bounding how fast adaptive
queries can align with the spike (a KL-based recursion whose increments
grow like log d, and a chi-squared recursion with a geometric closed-form
companion), and the probability bounds for estimation success and
detection, together with a scan-based inverter giving the minimal query
count at which each bound crosses a threshold.

Probability bounds are reported clipped to [0, 1] with the raw value kept
alongside and a vacuity flag; the universal constants baked into the
defaults are exposed and overridable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

import numpy as np

from .instances import KD_ASYMPTOTIC

# Upper bound on c_factor(delta, lam) over delta <= 1/e, lam >= 1:
# 2 / ((1/2) * (1 - 1/sqrt(2))).
C_FACTOR_CAP = 2.0 / (0.5 * (1.0 - 1.0 / math.sqrt(2.0)))

#: Default c1 for the estimation success bound: 2 * C_FACTOR_CAP (~27.31).
C1_ESTIMATION_DEFAULT = 2.0 * C_FACTOR_CAP

#: Default c1 for the main overlap theorem: 1 / (2 sqrt(2 * C_FACTOR_CAP)).
C1_MAIN_DEFAULT = 1.0 / (2.0 * math.sqrt(2.0 * C_FACTOR_CAP))

# Upper bound on c_factor(delta, lam) over delta <= 1/2, lam >= 1, attained
# at (1/2, 1); written out so it is available before c_factor is defined.
C_FACTOR_CAP_HALF = 2.0 / (0.5 * (1.0 - math.sqrt(1.0 / (1.0 + math.log(2.0)))))

#: Default c1 for the detection bounds: sqrt(C_FACTOR_CAP_HALF) (~4.157),
#: the per-query base of (c1*lam)^T / d^(1/4).
C1_DETECTION_DEFAULT = math.sqrt(C_FACTOR_CAP_HALF)


def f_overlap(eps: float, gamma: float) -> float:
    """Guaranteed spike overlap F(eps, gamma) for near-optimal Rayleigh vectors.

    F = sqrt((g/(1-g))^2 + 1 - eps/(1-g)) - g/(1-g), defined for
    gamma in [0,1) and eps in [0, 1-gamma]; decreasing in both arguments,
    with F(0,0) = 1 and F -> sqrt(1-eps) as gamma -> 0.
    """
    if not (0 <= gamma < 1):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    if not (0 <= eps <= 1 - gamma):
        raise ValueError(f"eps must lie in [0, 1 - gamma] = [0, {1 - gamma}], got {eps}")
    r = gamma / (1.0 - gamma)
    val = math.sqrt(r * r + 1.0 - eps / (1.0 - gamma)) - r
    return min(max(val, 0.0), 1.0)


def f_overlap_floor(eps: float, gamma: float) -> float:
    """Simple lower bound on f_overlap:
    (1/(2 sqrt 2)) * min{ sqrt(1 - eps/(1-gamma)), (1-gamma-eps)/gamma }."""
    if not (0 <= gamma < 1):
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    if not (0 < eps < 1 - gamma):
        raise ValueError(f"eps must lie in (0, 1 - gamma) = (0, {1 - gamma}), got {eps}")
    first = math.sqrt(1.0 - eps / (1.0 - gamma))
    second = (1.0 - gamma - eps) / gamma if gamma > 0 else math.inf
    return min(first, second) / (2.0 * math.sqrt(2.0))


def gamma_of(d: int, lam: float, delta0: float, kd: float = KD_ASYMPTOTIC) -> float:
    """Eigenratio threshold gamma(d, lambda, delta0) of the spiked instance.

    With probability at least 1 - 2*delta0 the instance lies in the
    eigenratio class at gamma = (kd + dev) / (lambda - dev) where
    dev = 2*sqrt(log(1/delta0)/d).  Requires the result to be a valid
    eigenratio, i.e. lambda large enough that gamma < 1.
    """
    if not (0 < delta0 < 1):
        raise ValueError(f"delta0 must lie in (0, 1), got {delta0}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    dev = 2.0 * math.sqrt(math.log(1.0 / delta0) / d)
    den = lam - dev
    if den <= 0:
        raise ValueError(f"regime violation: lambda = {lam} <= 2 sqrt(log(1/delta0)/d) = {dev}")
    gamma = (kd + dev) / den
    if gamma >= 1:
        raise ValueError(
            f"regime violation: lambda = {lam} too small for a valid eigenratio "
            f"(needs lambda > {kd + 2 * dev})"
        )
    return gamma


# ------------------------------------------------------------- tau schedules

@dataclass(frozen=True)
class TauSchedule:
    """Overlap thresholds tau_1..tau_m with the recursion that produced them.

    The schedule bounds d * <u, v^(k)>^2 for the orthonormalized queries of
    any budgeted algorithm; saturated marks a KL schedule truncated where
    the information argument left the recursion's validity region (tau
    comparable to d), with horizon the number of entries actually emitted.
    """

    taus: np.ndarray
    kind: str
    params: Dict[str, float] = field(default_factory=dict)
    saturated: bool = False
    horizon: Optional[int] = None

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        if taus.ndim != 1 or taus.size == 0:
            raise ValueError("schedule must be a nonempty vector")
        if not np.all(taus > 0):
            raise ValueError("all schedule entries must be positive")
        taus.setflags(write=False)
        object.__setattr__(self, "taus", taus)

    def __len__(self) -> int:
        return int(self.taus.size)

    def increments(self) -> np.ndarray:
        return np.diff(self.taus)


def kl_tau_schedule(
    d: int,
    lam: float,
    T: int,
    C1: float = 0.125,
    C2: float = 4.0,
    base_mass: float = 0.5,
) -> TauSchedule:
    """KL-recursion schedule tau_1..tau_{T+1}.

    tau_1 solves exp(C2 - C1*tau_1) = base_mass; afterward
    tau_{k+1} = C2/C1 + (L_k/C1) * (1 + log(C1*d / L_k)) with
    L_k = log 2 + (lam^2/2) * (k + sum_{i<=k} tau_i).  The per-step growth
    factor is O(log d).  Once L_k >= C1*d the inner log is nonpositive, the
    recursion stops certifying growth, and the schedule truncates with
    saturated=True.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if C1 <= 0:
        raise ValueError(f"C1 must be positive, got {C1}")
    if not (0 < base_mass < 1):
        raise ValueError(f"base_mass must lie in (0, 1), got {base_mass}")
    taus = [(C2 + math.log(1.0 / base_mass)) / C1]
    saturated = False
    for k in range(1, T + 1):
        L = math.log(2.0) + (lam**2 / 2.0) * (k + sum(taus))
        if L >= C1 * d:
            saturated = True
            break
        taus.append(C2 / C1 + (L / C1) * (1.0 + math.log(C1 * d / L)))
    taus = np.array(taus)
    incs = np.diff(taus)
    params = {
        "d": d,
        "lam": lam,
        "T": T,
        "C1": C1,
        "C2": C2,
        "base_mass": base_mass,
        "max_increment_over_logd": float(np.max(incs) / math.log(d)) if incs.size else 0.0,
    }
    return TauSchedule(
        taus=taus,
        kind="kl",
        params=params,
        saturated=saturated,
        horizon=len(taus),
    )


def c_factor(delta: float, lam: float) -> float:
    """Growth factor c(delta, lambda) of the chi-squared schedule:
    (1 + 1/lam^2) / ((1 - 1/(2 lam^2)) * (1 - sqrt(1/(1 + log(1/delta))))).

    Decreasing in lambda, tending to 1 as delta -> 0 and lambda -> infinity
    jointly; capped by C_FACTOR_CAP for delta <= 1/e.
    """
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if lam < 1:
        raise ValueError(f"lam must be >= 1, got {lam}")
    num = 1.0 + 1.0 / lam**2
    den = (1.0 - 1.0 / (2.0 * lam**2)) * (1.0 - math.sqrt(1.0 / (1.0 + math.log(1.0 / delta))))
    return num / den


class ChiTauSchedules(NamedTuple):
    exact: TauSchedule
    closed_form: TauSchedule


def chi_tau_schedule(d: int, lam: float, delta: float, T: int) -> ChiTauSchedules:
    """Chi-squared schedule tau_1..tau_{T+1}: exact recursion plus companion.

    tau_1 = 2 (sqrt(log(1/delta)) + 1)^2; the exact entries solve
    (1/2)(sqrt(tau_k) - sqrt 2)^2 = lam^2 sum_{i<k} tau_i + (k-1) tau_1,
    and the closed form is tau_1 * (2 lam^2 c(delta, lam))^{k-1}, which
    dominates the exact sequence entrywise; closed-form entries beyond the
    float range are inf.  An algorithm violating the schedule at any step
    has probability mass at most 2 delta/(1 - delta).
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    c = c_factor(delta, lam)  # validates delta and lam
    tau1 = 2.0 * (math.sqrt(math.log(1.0 / delta)) + 1.0) ** 2
    exact = [tau1]
    for k in range(2, T + 2):
        rhs = lam**2 * sum(exact) + (k - 1) * tau1
        exact.append((math.sqrt(2.0) + math.sqrt(2.0 * rhs)) ** 2)
    growth = 2.0 * lam**2 * c
    with np.errstate(over="ignore"):
        closed = tau1 * growth ** np.arange(T + 1)
    params = {"d": d, "lam": lam, "delta": delta, "T": T, "c_factor": c,
              "violation_mass": 2.0 * delta / (1.0 - delta)}
    return ChiTauSchedules(
        exact=TauSchedule(np.array(exact), "chi-squared-exact", dict(params)),
        closed_form=TauSchedule(closed, "chi-squared-closed-form", dict(params)),
    )


# ------------------------------------------------------------- bound reports

@dataclass(frozen=True)
class BoundReport:
    """An evaluated probability bound: clipped value, raw value, vacuity.

    For upper bounds (success probability, TV distance) vacuous means the
    raw value reached 1; for the detection error lower bound it means the
    raw value dropped to 0 or below.  constants echoes the c1 actually used.
    """

    kind: str
    value: float
    raw: float
    vacuous: bool
    params: Dict[str, float]
    constants: Dict[str, object]


#: Largest x with math.exp(x) finite.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _exp(x: float) -> float:
    """math.exp that saturates at inf instead of raising OverflowError."""
    return math.inf if x > _LOG_FLOAT_MAX else math.exp(x)


def _upper_bound_report(kind, raw, params, constants, force_vacuous=False) -> BoundReport:
    vacuous = bool(raw >= 1.0 or force_vacuous)
    return BoundReport(
        kind=kind,
        value=float(min(max(raw, 0.0), 1.0)),
        raw=float(raw),
        vacuous=vacuous,
        params=params,
        constants=constants,
    )


def estimation_success_bound(
    d: int, eta: float, lam: float, T: int, c1: float = C1_ESTIMATION_DEFAULT
) -> BoundReport:
    """Upper bound on the probability any T-query algorithm reaches spike
    overlap eta: (2/(1 - 1/e)) * exp(-d*eta / (4 (c1 lam^2)^T)).

    The exponent is evaluated in log space, so no T overflows it."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not eta >= 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if not (1 <= lam < math.inf):
        raise ValueError(f"lam must be >= 1 and finite, got {lam}")
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    if not (0 < c1 < math.inf):
        raise ValueError(f"c1 must be positive and finite, got {c1}")
    if eta == 0:
        exponent = 0.0
    else:
        exponent = _exp(
            math.log(d) + math.log(eta) - math.log(4.0)
            - T * (math.log(c1) + 2.0 * math.log(lam))
        )
    raw = (2.0 / (1.0 - math.exp(-1.0))) * math.exp(-exponent)
    return _upper_bound_report(
        "estimation_success",
        raw,
        {"d": d, "eta": eta, "lam": lam, "T": T},
        {"c1": c1, "note": "default 2*C_FACTOR_CAP" if c1 == C1_ESTIMATION_DEFAULT else "override"},
    )


def main_theorem_bound(
    d: int, gamma: float, eps: float, T: int, c1: float = C1_MAIN_DEFAULT
) -> BoundReport:
    """Upper bound on the probability any T-query algorithm achieves
    Rayleigh quotient (1-eps)||M|| on an eigenratio-gamma instance:
    12 * exp(-(d/4) F(eps,gamma)^2 (c1*gamma)^{2T})."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not (0 < c1 < math.inf):
        raise ValueError(f"c1 must be positive and finite, got {c1}")
    if not (0 < gamma < 1.0 / c1):
        raise ValueError(f"hypothesis violated: gamma must lie in (0, 1/c1) = (0, {1.0 / c1}), got {gamma}")
    if not (0 < gamma < 1):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not (0 < eps < 1 - gamma):
        raise ValueError(f"hypothesis violated: eps must lie in (0, 1 - gamma) = (0, {1 - gamma}), got {eps}")
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    F = f_overlap(eps, gamma)
    raw = 12.0 * math.exp(-(d / 4.0) * F**2 * (c1 * gamma) ** (2 * T))
    return _upper_bound_report(
        "main_theorem",
        raw,
        {"d": d, "gamma": gamma, "eps": eps, "T": T, "f_overlap": F},
        {"c1": c1, "note": "default 1/(2 sqrt(2*C_FACTOR_CAP))" if c1 == C1_MAIN_DEFAULT else "override"},
    )


def detection_tv_bound(
    d: int, lam: float, T: int, c1: float = C1_DETECTION_DEFAULT
) -> BoundReport:
    """Upper bound on the TV distance between null and spiked transcripts
    after T queries: sqrt(2) (c1 lam)^T d^{-1/4} (sqrt(log(d/(c1 lam)^T)) + 4).

    The inner log is clamped at 0 when (c1 lam)^T > d; the bound is outside
    its validity region there and is reported vacuous.  The growth term is
    evaluated in log space, so no T overflows it; raw saturates at inf.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not (2 < lam < math.inf):
        raise ValueError(f"lam must exceed 2 and be finite, got {lam}")
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    if not (0 < c1 < math.inf):
        raise ValueError(f"c1 must be positive and finite, got {c1}")
    log_growth = T * (math.log(c1) + math.log(lam))
    clamped = log_growth > math.log(d)
    log_term = 0.0 if clamped else math.log(d) - log_growth
    raw = _exp(
        0.5 * math.log(2.0) + log_growth - 0.25 * math.log(d)
        + math.log(math.sqrt(log_term) + 4.0)
    )
    return _upper_bound_report(
        "detection_tv",
        raw,
        {"d": d, "lam": lam, "T": T},
        {"c1": c1, "note": "default sqrt(C_FACTOR_CAP_HALF)" if c1 == C1_DETECTION_DEFAULT else "override"},
        force_vacuous=clamped,
    )


def detection_error_bound(
    d: int,
    lam: float,
    T: int,
    delta0: float,
    c1: float = C1_DETECTION_DEFAULT,
    kd: float = KD_ASYMPTOTIC,
) -> BoundReport:
    """Lower bound on type-I + type-II error of any T-query detection rule:
    1 - detection_tv_bound - 3*delta0, floored at 0 (vacuous there)."""
    if not (0 < delta0 < 1):
        raise ValueError(f"delta0 must lie in (0, 1), got {delta0}")
    threshold = kd + 4.0 * math.sqrt(math.log(1.0 / delta0) / d)
    if lam < threshold:
        raise ValueError(
            f"regime violation: lam = {lam} below detection threshold {threshold}"
        )
    tv = detection_tv_bound(d, lam, T, c1=c1)
    raw = 1.0 - tv.raw - 3.0 * delta0
    return BoundReport(
        kind="detection_error",
        value=float(max(raw, 0.0)),
        raw=float(raw),
        vacuous=bool(raw <= 0.0),
        params={"d": d, "lam": lam, "T": T, "delta0": delta0, "kd": kd},
        constants=tv.constants,
    )


_BOUND_EVALUATORS = {
    "estimation": (estimation_success_bound, ("d", "eta", "lam"), "ge"),
    "main": (main_theorem_bound, ("d", "gamma", "eps"), "ge"),
    "detection-tv": (detection_tv_bound, ("d", "lam"), "ge"),
    "detection-error": (detection_error_bound, ("d", "lam"), "le"),
}


def min_queries(
    bound_kind: str, params: Dict[str, float], threshold: float, cap: int = 512
) -> int:
    """Smallest T at which the named bound crosses the threshold.

    Upper bounds (estimation/main success probability, detection TV) start
    tiny and grow with T; the scan returns the first T where the clipped
    value reaches the threshold, i.e. the query count below which the bound
    still forbids the event at that probability.  The detection error lower
    bound decreases with T, so its scan returns the first T where it drops
    to the threshold.  Returns cap + 1 when no crossing occurs by T = cap.
    """
    if not (0 < threshold < 1):
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if bound_kind not in _BOUND_EVALUATORS:
        raise ValueError(
            f"unknown bound kind {bound_kind!r}; choose from {sorted(_BOUND_EVALUATORS)}"
        )
    fn, _, direction = _BOUND_EVALUATORS[bound_kind]
    extra = dict(params)
    for T in range(cap + 1):
        report = fn(**extra, T=T)
        if direction == "ge" and report.value >= threshold:
            return T
        if direction == "le" and report.value <= threshold:
            return T
    return cap + 1
