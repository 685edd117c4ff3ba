"""Generalized f-divergences on finite non-normalized measures, plus the
Gaussian closed forms and information-to-risk converters used by the bounds.

The f-divergence here extends the classical one to arbitrary finite
nonnegative measures:

    D_f(mu, nu) = sum_{nu_x > 0} nu_x f(mu_x / nu_x) + f'(inf) * mu{nu = 0},

with f'(inf) = lim f(x)/x and the convention 0 * f'(inf) = 0.  The chi^2+1
divergence (f = x^2, the second moment of the likelihood ratio) and KL
(f = x log x) are the two instances everything else uses.  phi_f is the
two-point reduction of D_f; gen_fano_value_bound inverts it into a cap on
the value any estimator can achieve given an information budget.  The
Gaussian pieces are the pseudo-inverse KL formula, the step-wise likelihood
ratio product closed form g_chi, its schedule-level exponential bound, and
the sphere MGF bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .bounds import TauSchedule, _exp, _square
from .oracle import Transcript, _step_overlaps

MeasureLike = Union["DiscreteMeasure", Sequence[float], np.ndarray]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite nonnegative measure on an indexed support; not necessarily
    normalized."""

    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("measure needs a nonempty 1-d mass vector")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValueError("masses must be finite and nonnegative")
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @property
    def total(self) -> float:
        return float(self.masses.sum())

    @property
    def is_probability(self) -> bool:
        return abs(self.total - 1.0) <= 1e-12

    def __len__(self) -> int:
        return int(self.masses.size)

    def normalized(self) -> "DiscreteMeasure":
        if self.total <= 0:
            raise ValueError("cannot normalize the zero measure")
        return DiscreteMeasure(self.masses / self.total)


def as_measure(m: MeasureLike) -> DiscreteMeasure:
    return m if isinstance(m, DiscreteMeasure) else DiscreteMeasure(np.asarray(m, dtype=float))


@dataclass(frozen=True)
class TruncationEvent:
    """The event that every query up to a horizon has small spike overlap:
    {for all i <= horizon: d <u, v^(i)>^2 <= tau_i}, evaluated against the
    orthonormalized query directions of a transcript.  Degenerate steps have
    no direction and contribute overlap zero."""

    tau_schedule: TauSchedule
    u: np.ndarray
    horizon: int

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 1:
            raise ValueError("spike must be a vector")
        if abs(np.linalg.norm(u) - 1.0) > 1e-8:
            raise ValueError("spike must be a unit vector (tol 1e-8)")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        if not (1 <= self.horizon <= len(self.tau_schedule)):
            raise ValueError(
                f"horizon must lie in 1..{len(self.tau_schedule)}, got {self.horizon}"
            )

    def overlaps(self, transcript: Transcript) -> np.ndarray:
        """d <u, v^(i)>^2 for i = 1..horizon."""
        if self.horizon > len(transcript.steps):
            raise ValueError(
                f"transcript has {len(transcript.steps)} steps, horizon is {self.horizon}"
            )
        if transcript.dim != self.u.size:
            raise ValueError("spike dimension does not match the transcript")
        return _step_overlaps(transcript.steps[: self.horizon], self.u)

    def holds(self, transcript: Transcript) -> bool:
        return bool(
            np.all(self.overlaps(transcript) <= self.tau_schedule.taus[: self.horizon])
        )


class ConvexGenerator:
    """A convex f: (0, inf) -> R with its slope at infinity, f(0+) included.

    Midpoint convexity is spot-checked on a log-spaced grid at construction
    (tolerance 1e-9), which catches accidental non-convex evaluators without
    pretending to verify convexity everywhere.
    """

    def __init__(
        self,
        fn: Callable[[float], float],
        slope_at_infinity: float,
        name: str = "f",
        check: bool = True,
    ):
        self.fn = fn
        self.slope_at_infinity = float(slope_at_infinity)
        self.name = name
        if check:
            grid = np.logspace(-3, 3, 25)
            for x in grid[::4]:
                for y in grid[::3]:
                    mid = fn((x + y) / 2.0)
                    if mid > (fn(x) + fn(y)) / 2.0 + 1e-9:
                        raise ValueError(
                            f"{name} fails midpoint convexity at ({x:g}, {y:g})"
                        )

    def __call__(self, x: float) -> float:
        return float(self.fn(x))

    def __repr__(self):
        return f"ConvexGenerator({self.name}, slope_at_infinity={self.slope_at_infinity})"


def _xlogx(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(x)


#: f(x) = x^2: D_f is the second moment of the likelihood ratio (chi^2 + 1).
CHI2_PLUS1_GENERATOR = ConvexGenerator(lambda x: x * x, math.inf, name="x^2", check=False)

#: f(x) = x log x: D_f is KL for probability measures.
KL_GENERATOR = ConvexGenerator(_xlogx, math.inf, name="x log x", check=False)


def scaled_generator(f: ConvexGenerator, mu_total: float, nu_total: float) -> ConvexGenerator:
    """The generator g(x) = |nu| f(|mu| x / |nu|) realizing the normalization
    identity D_f(mu, nu) = D_g(mu/|mu|, nu/|nu|)."""
    if mu_total <= 0 or nu_total <= 0:
        raise ValueError("totals must be positive to normalize")
    slope = mu_total * f.slope_at_infinity if f.slope_at_infinity != 0 else 0.0
    return ConvexGenerator(
        lambda x: nu_total * f(mu_total * x / nu_total),
        slope,
        name=f"{f.name} scaled",
        check=False,
    )


def d_f(mu: MeasureLike, nu: MeasureLike, f: ConvexGenerator) -> float:
    """Generalized f-divergence D_f(mu, nu); +inf when mu has mass off nu's
    support and f'(inf) = +inf."""
    mu, nu = as_measure(mu), as_measure(nu)
    if len(mu) != len(nu):
        raise ValueError("measures must share an indexed support")
    if nu.total <= 0:
        raise ValueError("nu must have positive total mass")
    on = nu.masses > 0
    ratios = mu.masses[on] / nu.masses[on]
    total = float(sum(w * f(r) for w, r in zip(nu.masses[on], ratios)))
    escaped = float(mu.masses[~on].sum())
    if escaped > 0:
        total += f.slope_at_infinity * escaped  # 0 * f'(inf) = 0 handled by the guard
    return total


def chi2_plus1(mu: MeasureLike, nu: MeasureLike) -> float:
    """Second moment of the likelihood ratio, sum (mu_x/nu_x)^2 nu_x."""
    return d_f(mu, nu, CHI2_PLUS1_GENERATOR)


def kl(mu: MeasureLike, nu: MeasureLike) -> float:
    """D_f with f = x log x (the KL divergence for probability measures)."""
    return d_f(mu, nu, KL_GENERATOR)


def phi_f(a: float, b: float, p: float, q: float, f: ConvexGenerator) -> float:
    """Two-point reduction of D_f:
    phi_f(a, b; p, q) = b f(a/b) + (q-b) f((p-a)/(q-b)), with the b -> 0 and
    b -> q boundaries taken as limits (a * f'(inf) style terms)."""
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    if not (0 <= a <= p):
        raise ValueError(f"need 0 <= a <= p, got a={a}, p={p}")
    if not (0 <= b <= q):
        raise ValueError(f"need 0 <= b <= q, got b={b}, q={q}")
    if b == 0:
        first = 0.0 if a == 0 else a * f.slope_at_infinity
    else:
        first = b * f(a / b)
    rem = q - b
    if rem == 0:
        second = 0.0 if p - a == 0 else (p - a) * f.slope_at_infinity
    else:
        second = rem * f((p - a) / rem)
    return float(first + second)


def gen_fano_value_bound(
    V0: float, p: float, q: float, info: float, f: ConvexGenerator, tol: float = 1e-9
) -> float:
    """Largest achievable value V* consistent with an information budget.

    Any estimator's value V obeys either V <= p*V0 (no better than the blind
    guess) or phi_f(V, q*V0; p, q) <= info.  phi_f(., q*V0; p, q) is minimized
    at V = p*V0 and nondecreasing to the right of it, so the cap is found by
    bisection on [p*V0, p] to the stated tolerance.
    """
    if not (0 < V0 < 1):
        raise ValueError(f"V0 must lie in (0, 1), got {V0}")
    if not (0 < p <= 1):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    if info < 0:
        raise ValueError(f"info must be >= 0, got {info}")
    lo = p * V0
    hi = p
    if phi_f(lo, q * V0, p, q, f) > info:
        return lo
    if phi_f(hi, q * V0, p, q, f) <= info:
        return hi
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if phi_f(mid, q * V0, p, q, f) <= info:
            lo = mid
        else:
            hi = mid
    return lo


def chi2_fano_value_bound(V0: float, p: float, info: float) -> float:
    """Closed form of gen_fano_value_bound for f = x^2, q = 1:
    p*V0 + sqrt(V0 (1-V0) (info - p^2)), capped at p (the phi minimum is p^2,
    so budgets below p^2 pin the value at the blind guess p*V0)."""
    if not (0 < V0 < 1):
        raise ValueError(f"V0 must lie in (0, 1), got {V0}")
    if not (0 < p <= 1):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if info < 0:
        raise ValueError(f"info must be >= 0, got {info}")
    if info <= p * p:
        return p * V0
    return min(p, p * V0 + math.sqrt(V0 * (1.0 - V0) * (info - p * p)))


def global_fano_bound(V0_mass: float, info: float) -> float:
    """(info + log 2) / log(1/V0_mass), clipped at 1: the probability of a
    zero-loss action given accumulated information and blind-guess mass."""
    if not (0 < V0_mass < 1):
        raise ValueError(f"V0_mass must lie in (0, 1), got {V0_mass}")
    if info < 0:
        raise ValueError(f"info must be >= 0, got {info}")
    return min(1.0, (info + math.log(2.0)) / math.log(1.0 / V0_mass))


def truncated_chi2_tv(chi_term: float, p: float) -> float:
    """TV bound from a truncated second moment and the truncation mass p:
    (1/2) sqrt(max(chi_term - 1, 0)) + (sqrt(2(1-p)) + (1-p)) / 2, clipped
    at 1.  A chi_term below 1 (possible after truncation) clamps the
    radicand to zero."""
    if not (0 <= p <= 1):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if chi_term < 0:
        raise ValueError(f"chi_term must be >= 0, got {chi_term}")
    main = 0.5 * math.sqrt(max(chi_term - 1.0, 0.0))
    slack = (math.sqrt(2.0 * (1.0 - p)) + (1.0 - p)) / 2.0
    return min(1.0, main + slack)


def gaussian_kl(mu1: np.ndarray, mu2: np.ndarray, sigma: np.ndarray) -> float:
    """KL between N(mu1, Sigma) and N(mu2, Sigma) with shared, possibly
    singular covariance: (1/2) (mu1-mu2)^T Sigma^+ (mu1-mu2).

    The mean difference must lie in the range of Sigma (else the measures
    are mutually singular and the divergence is infinite): components in the
    kernel above 1e-8 (relative to the difference norm) are rejected.
    """
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if mu1.shape != mu2.shape or sigma.shape != (mu1.size, mu1.size):
        raise ValueError("shape mismatch between means and covariance")
    if not np.allclose(sigma, sigma.T, atol=1e-10):
        raise ValueError("covariance must be symmetric")
    dmu = mu1 - mu2
    vals, vecs = np.linalg.eigh(sigma)
    top = vals[-1]
    if top < 0 or vals[0] < -1e-10 * max(top, 1.0):
        raise ValueError("covariance must be positive semidefinite")
    support = vals > 1e-10 * max(top, 0.0)
    coords = vecs.T @ dmu
    kernel_norm = float(np.linalg.norm(coords[~support]))
    if kernel_norm > 1e-8 * max(1.0, float(np.linalg.norm(dmu))):
        raise ValueError(
            "mean difference has a kernel component "
            f"(norm {kernel_norm:.3e}); divergence is infinite"
        )
    quad = float(np.sum(coords[support] ** 2 / vals[support]))
    return 0.5 * quad


def _exp_of_product(exponent: float) -> float:
    """exp of a product of non-NaN factors, saturating at inf.  Such a
    product is NaN only as 0 * inf, a zero factor against one that
    overflowed or is infinite; it is taken as 0, by the module's
    0 * f'(inf) = 0 convention."""
    return 1.0 if math.isnan(exponent) else _exp(exponent)


def _times(a: float, b: float) -> float:
    """a * b for non-NaN factors, with 0 * inf taken as 0 (the module's
    0 * f'(inf) = 0 convention) and a product past the float range as inf."""
    return 0.0 if a == 0.0 or b == 0.0 else a * b


def g_chi(
    u: np.ndarray,
    s: np.ndarray,
    queries: Sequence[np.ndarray],
    i: int,
    lam: float,
    d: int,
) -> float:
    """Closed form of the conditional likelihood-ratio cross moment at step i.

    For orthonormal queries v^(1)..v^(i) and unit spikes u, s, the null-
    conditional expectation of the product of likelihood ratios for spikes u
    and s at step i equals

        exp{ lam^2 d <v_i,u><v_i,s> (<u,s> - sum_{j<i} <v_j,u><v_j,s>
                                             - (1/2) <v_i,u><v_i,s>) },

    which is the quadratic form through the pseudo-inverse of the step
    covariance P_{i-1} + v_i v_i^T (whose pseudo-inverse is
    P_{i-1} - v_i v_i^T / 2).
    """
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (1 <= i <= len(queries)):
        raise IndexError(f"step {i} out of range 1..{len(queries)}")
    Q = np.column_stack([np.asarray(v, dtype=float) for v in queries[:i]])
    if Q.shape[0] != d or u.shape != (d,) or s.shape != (d,):
        raise ValueError(f"vectors must have dimension d = {d}")
    gram = Q.T @ Q
    if np.max(np.abs(gram - np.eye(i))) > 1e-8:
        raise ValueError("queries must be orthonormal (tol 1e-8)")
    cu = Q.T @ u
    cs = Q.T @ s
    cross = float(u @ s) - float(cu[:-1] @ cs[:-1]) - 0.5 * float(cu[-1] * cs[-1])
    a, b = float(cu[-1]), float(cs[-1])
    if any(map(math.isnan, (lam, a, b, cross))):
        raise ValueError("lam, u and s must not produce NaN overlaps")
    return _exp_of_product(_square(lam) * d * a * b * cross)


def likelihood_product_bound(
    u: np.ndarray,
    s: np.ndarray,
    taus: Sequence[float],
    lam: float,
    d: int,
    T: Optional[int] = None,
) -> float:
    """Exponential cap on the product of step ratios over a feasible schedule:
    exp{ lam^2 ( |<u,s>| sum_i tau_i + (sum_i tau_i)^2 / d ) } using the
    first T schedule entries."""
    taus = np.asarray(taus, dtype=float)
    if T is None:
        T = taus.size
    if not (0 <= T <= taus.size):
        raise ValueError(f"T must lie in 0..{taus.size}, got {T}")
    if not np.all(taus[:T] > 0):
        raise ValueError("schedule entries must be positive")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    overlap = abs(float(np.asarray(u, dtype=float) @ np.asarray(s, dtype=float)))
    if math.isnan(lam) or math.isnan(overlap):
        raise ValueError("lam and <u, s> must not be NaN")
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        S = float(taus[:T].sum())
    return _exp(_times(_square(lam), _times(overlap, S) + S * (S / d)))


def sphere_mgf_bound(lambda_arg: float, d: int) -> float:
    """MGF cap for the absolute overlap of a uniform spike with any fixed
    unit vector: E[exp(lam |<theta, v>|)] <= exp(4 lam^2 / d + lam sqrt(2/d))."""
    if not lambda_arg >= 0:
        raise ValueError(f"lambda_arg must be >= 0, got {lambda_arg}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return _exp(4.0 * _square(lambda_arg) / d + lambda_arg * math.sqrt(2.0 / d))
