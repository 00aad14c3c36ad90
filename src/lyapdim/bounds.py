"""Dimension-bound engine for scalar delay comparisons.

Implements the Lambert-type scalar estimate d*(kappa) = (a + b e^{kappa tau})/kappa + 1,
its closed-form minimizer via the root of p e^{p+1} = a/b, trace-exponent sums
alpha_plus, and the spatio-temporal rescaling that sharpens the bound: its
minimum over the one-parameter family of equivalent problems is one more
scalar estimate, at half the delay, so it too is a Lambert-W root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dde import _mg_fprime
from .errors import InputError, NumericalFailure

__all__ = [
    "BoundProblem",
    "DimensionBound",
    "lambert_root",
    "scalar_bound",
    "scaled_bound",
    "alpha_plus",
    "mackey_glass_bound",
    "mackey_glass_scaled_bound",
    "suarez_schopf_bound",
    "suarez_schopf_scaled_bound",
    "mackey_glass_lambda",
    "mackey_glass_ball_radius",
]


@dataclass(frozen=True)
class BoundProblem:
    """Scalar comparison data: delay tau, delay-free aggregate a, squared
    delayed aggregate b > 0, and an optional volume-derivative supremum."""

    tau: float
    a: float
    b: float
    vdot_sup: float = 0.0

    def __post_init__(self):
        if not all(
            math.isfinite(v) for v in (self.tau, self.a, self.b, self.vdot_sup)
        ):
            raise InputError("parameters must be finite")
        if not self.tau > 0:
            raise InputError(f"tau must be positive, got {self.tau}")
        if not self.b > 0:
            raise InputError(f"b must be positive, got {self.b}")


@dataclass(frozen=True)
class DimensionBound:
    """Result of a dimension estimate.

    d_star: the bound itself; p_star: root of the transcendental optimality
    condition; kappa_opt: optimal exponential weight rate; scale_opt: optimal
    rescaling parameter when produced by scaled_bound; provenance: short tag
    of the producing route.
    """

    d_star: float
    p_star: float
    kappa_opt: float
    scale_opt: float | None = None
    provenance: str = ""


# W_0(x) = sum_k mu_k q^k, q = sqrt(2 (1 + e x)), about the branch point
# x = -1/e (Corless et al. 1996, eq. 4.22; highest power first); W_{-1} is the
# same series at -q
_BRANCH_POINT_SERIES = (
    -221.0 / 8505.0, 769.0 / 17280.0, -43.0 / 540.0, 11.0 / 72.0, -1.0 / 3.0, 1.0, -1.0
)


def _branch_point_series(q):
    """The series above at q, real or complex, by Horner's rule."""
    w = 0.0
    for mu in _BRANCH_POINT_SERIES:
        w = w * q + mu
    return w


def lambert_root(c: float) -> float:
    """Unique real root p >= -1 of p e^{p+1} = c, which is W_0(c/e).

    The map is monotone increasing on [-1, inf) with range [-1, inf), so the
    root exists iff c >= -1.  Halley's method on p e^{p+1} - c, from the
    branch-point series where 1 + c < 0.3 (returned as is within q < 1e-2,
    where it is exact to rounding and the iteration is ill-conditioned), a
    log1p guess for moderate c and L1 - L2 + L2/L1 for large c.
    """
    c = float(c)
    if not math.isfinite(c):
        raise InputError(f"c must be finite, got {c}")
    if c < -1.0:
        raise InputError(f"p e^(p+1) = c has no real root p >= -1 for c = {c} < -1")
    if 1.0 + c < 0.3:
        q = math.sqrt(2.0 * (1.0 + c))  # 1 + c is exact here
        w = _branch_point_series(q)
        if q < 1e-2:
            return max(w, -1.0)
    elif c < 3.0 * math.e:
        l = math.log1p(c / math.e)
        w = l * (1.0 - math.log1p(l) / (2.0 + l))
    else:
        l1 = math.log(c) - 1.0
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    for _ in range(100):
        if w >= 0.0:  # the e^{-w} form, so that exp cannot overflow
            f = w - c * math.exp(-w - 1.0)
            w_next = w - f / (w + 1.0 - (w + 2.0) * f / (2.0 * w + 2.0))
        else:
            ew = math.exp(w + 1.0)
            f = w * ew - c
            w_next = w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        if abs(w_next - w) <= 1e-8 * abs(w_next):
            # rounding can put the root of c near -1 just below the branch point
            return max(w_next, -1.0)
        w = w_next
    raise NumericalFailure(f"Halley's method did not converge for c = {c}")


def scalar_bound(prob: BoundProblem) -> DimensionBound:
    """Minimize (a + b e^{kappa tau})/kappa + 1 over kappa > 0.

    The minimum is tau*b*e^{p*+1} + 1 at kappa* = (p*+1)/tau where p* solves
    p e^{p+1} = a/b; the boundary case a + b = 0 is the kappa -> 0+ limit
    with value b*tau + 1.  A nonzero vdot_sup shifts the delay-free aggregate
    by 2*vdot_sup, since the trace-sum curve it enters is halved.
    """
    a_eff = prob.a + 2.0 * prob.vdot_sup
    if a_eff + prob.b < 0.0:
        raise InputError(
            f"scalar estimate needs a + b >= 0, got {a_eff} + {prob.b} < 0"
        )
    if a_eff + prob.b == 0.0:
        d = prob.b * prob.tau + 1.0
        return DimensionBound(d, -1.0, 0.0, None, "scalar-lemma-boundary")
    p = lambert_root(a_eff / prob.b)
    d = prob.tau * prob.b * math.exp(p + 1.0) + 1.0
    kappa = (p + 1.0) / prob.tau
    return DimensionBound(d, p, kappa, None, "scalar-lemma")


def scaled_bound(prob: BoundProblem) -> DimensionBound:
    """Minimize the scalar estimate over the rescaled family of prob, in
    closed form.

    prob is the s = 1 member of a(s) = 1 + s (a' - 1), b(s) = s^2 b,
    tau(s) = tau/s, with a' = a + 2 vdot_sup as in scalar_bound.  With
    u = kappa/s the estimate is (1/s + a' - 1 + s b e^{u tau})/u + 1; its
    minimum over s, at s = e^{-u tau/2}/sqrt(b), leaves the scalar estimate
    of (tau/2, a' - 1, 2 sqrt(b)) with root p'.  So the optimal scale
    s* = e^{-(p'+1)}/sqrt(b) and the slope in tau, sqrt(b) e^{p'+1}, do not
    depend on tau; p* = 2p' + 1 and kappa* = s* u* belong to the member s*.
    Where a' - 1 + 2 sqrt(b) < 0 the minimum lies on a(s) + b(s) = 0, at its
    smaller root s_lo, with value s_lo b tau + 1.
    """
    shift = prob.a + 2.0 * prob.vdot_sup - 1.0
    root_b = math.sqrt(prob.b)
    if shift + 2.0 * root_b < 0.0:
        # b s^2 + shift s + 1 = 0 has roots s_lo < s_hi with s_lo s_hi = 1/b;
        # the discriminant is factored so that it cannot overflow
        disc = math.sqrt(-shift - 2.0 * root_b) * math.sqrt(-shift + 2.0 * root_b)
        s_lo = 2.0 / (disc - shift)
        return DimensionBound(
            s_lo * prob.b * prob.tau + 1.0, -1.0, 0.0, s_lo, "scalar-lemma-rescaled-boundary"
        )
    half = scalar_bound(BoundProblem(0.5 * prob.tau, shift, 2.0 * root_b))
    s = math.exp(-(half.p_star + 1.0)) / root_b
    return DimensionBound(
        half.d_star, 2.0 * half.p_star + 1.0, half.kappa_opt * s, s, "scalar-lemma-rescaled"
    )


def alpha_plus(m: int, eigen_sup: Sequence[float], kappa0: float, vdot_sup: float = 0.0) -> float:
    """Upper bound on the sum of the m largest uniform exponents.

    eigen_sup holds the worst-case sorted (nonincreasing) eigenvalues of the
    symmetrized head matrix; every direction beyond the K ones lying above
    -kappa0 contributes -kappa0, which also dominates any remaining head
    eigenvalue below that level.
    """
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")
    lam = np.asarray(eigen_sup, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise InputError("eigen_sup must be a nonempty 1-d sequence")
    if np.any(np.diff(lam) > 1e-12 * max(1.0, float(np.abs(lam).max()))):
        raise InputError("eigen_sup must be sorted nonincreasing")
    K = int(np.sum(lam >= -kappa0))
    head = float(lam[: min(m, K)].sum())
    return vdot_sup + 0.5 * head - 0.5 * kappa0 * max(0, m - K)


def mackey_glass_ball_radius(beta: float, gamma: float, k: float) -> float:
    """Radius of the absorbing ball: (beta/gamma) k^{-1} (k-1)^{(k-1)/k}."""
    if not (beta > 0 and gamma > 0 and k > 1):
        raise InputError("need beta > 0, gamma > 0, k > 1")
    return (beta / gamma) * (k - 1.0) ** ((k - 1.0) / k) / k


def mackey_glass_lambda(beta: float, gamma: float, k: float, mode: str = "rough") -> float:
    """Bound on |F'| feeding the delayed aggregate.

    rough: max(1, (k-1)^2 / 4k), valid on all of R.  tight: maximum of |F'|
    over the absorbing ball |y| <= R0.  F' falls from 1 at y = 0 to its dip
    -(k-1)^2 / 4k at y^k = (k+1)/(k-1) and rises toward 0 beyond it, so the
    tight value is the rough one when the ball reaches the dip and
    max(1, -F'(R0)) when it ends before.
    """
    rough = max(1.0, (k - 1.0) ** 2 / (4.0 * k))
    if mode == "rough":
        return rough
    if mode != "tight":
        raise InputError(f"unknown lambda mode {mode!r}")
    r0 = mackey_glass_ball_radius(beta, gamma, k)
    if r0 >= ((k + 1.0) / (k - 1.0)) ** (1.0 / k):
        return rough
    return max(1.0, -float(_mg_fprime(r0, k)))


_ORIGIN_ATTRACTS = DimensionBound(0.0, -1.0, 0.0, None, "origin-global-attractor")


def _mackey_glass_problem(
    beta: float, gamma: float, k: float, tau: float, lambda_mode: str
) -> BoundProblem | None:
    """Comparison problem a = 1 - 2 gamma, b = (beta Lambda)^2 at delay tau,
    or None where beta <= gamma: the origin then attracts everything and
    there is nothing to estimate."""
    if not (beta > 0 and gamma >= 0 and k > 1 and tau > 0):
        raise InputError("need beta > 0, gamma >= 0, k > 1, tau > 0")
    if beta <= gamma:
        return None
    lam = mackey_glass_lambda(beta, gamma, k, lambda_mode)
    return BoundProblem(tau, 1.0 - 2.0 * gamma, (beta * lam) ** 2)


def mackey_glass_bound(
    beta: float, gamma: float, k: float, tau: float, lambda_mode: str = "rough"
) -> DimensionBound:
    """Dimension bound for the Mackey-Glass system at the given parameters."""
    prob = _mackey_glass_problem(beta, gamma, k, tau, lambda_mode)
    return _ORIGIN_ATTRACTS if prob is None else scalar_bound(prob)


def mackey_glass_scaled_bound(
    beta: float, gamma: float, k: float, tau: float, lambda_mode: str = "rough"
) -> DimensionBound:
    """Rescaled Mackey-Glass bound: scaled_bound of the family
    a(s) = 1 - 2 s gamma, b(s) = (s beta Lambda)^2, tau(s) = tau/s."""
    prob = _mackey_glass_problem(beta, gamma, k, tau, lambda_mode)
    return _ORIGIN_ATTRACTS if prob is None else scaled_bound(prob)


def _suarez_schopf_problem(alpha: float, gamma: float, tau: float) -> BoundProblem:
    """Comparison problem a = 1 + 2 gamma, b = alpha^2 at delay tau; the cubic
    term has nonnegative derivative and only helps, so it is dropped."""
    if not (alpha > 0 and gamma > 0 and tau > 0):
        raise InputError("need alpha, gamma, tau > 0")
    return BoundProblem(tau, 1.0 + 2.0 * gamma, alpha**2)


def suarez_schopf_bound(alpha: float, gamma: float, tau: float) -> DimensionBound:
    """Dimension bound for the delayed-oscillator model."""
    return scalar_bound(_suarez_schopf_problem(alpha, gamma, tau))


def suarez_schopf_scaled_bound(alpha: float, gamma: float, tau: float) -> DimensionBound:
    """Rescaled delayed-oscillator bound: scaled_bound of the family
    a(s) = 1 + 2 s gamma, b(s) = (s alpha)^2, tau(s) = tau/s."""
    return scaled_bound(_suarez_schopf_problem(alpha, gamma, tau))
