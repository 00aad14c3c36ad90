"""Characteristic roots of scalar linear delay equations p = a + b e^{-tau p}.

Substituting w = tau (p - a) turns the equation into w e^w = z with
z = b tau e^{-a tau}, so the roots are exactly p_k = a + W_k(z)/tau, one per
branch k of the Lambert W function (Corless et al., "On the Lambert W
function", Adv. Comput. Math. 5, 1996).  Branches are enumerated until the
left-out ones lie below the requested roots.  Every branch is computed with
numpy and math alone: W_k for k >= 1 solves w + log w = log|z| + i arg z +
2 pi i k by Halley's method in one vectorised pass, which holds where z
itself over- or underflows; the central branches are scalar solves (the real
W_0 by bounds.lambert_root, the nonreal W_0 and the real W_{-1} near the
branch point -1/e from its series).  Counts are certified independently by
the argument principle, sampling h only on one segment of the line Re p = c:
Rouche's bound closes the contour.  On top of the root sets: Kaplan-Yorke
local dimensions, unstable-direction counts, and least-squares slope fits of
either quantity against the delay.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import cocycle
from .bounds import _branch_point_series, lambert_root
from .errors import InputError, NeedsMoreRootsError, NumericalFailure

__all__ = [
    "CharProblem",
    "RootSet",
    "SlopeFit",
    "char_roots",
    "determined_roots",
    "local_dimension",
    "unstable_count",
    "halfplane_count",
    "asymptotic_slope",
]

_LOG_SPACE_BEYOND = 600.0  # |log z| above which z itself over- or underflows
_EPS = np.finfo(float).eps
_MAX_SEGMENT_SAMPLES = 300000
_ROUCHE_THETA = 0.9  # bound on |b e^{-tau p}/(a - p)| off the sampled segment
_SPLIT_KNOTS = np.linspace(0.0, 1.0, 5)  # a step split into four equal parts


@dataclass(frozen=True)
class CharProblem:
    a: float
    b: float
    tau: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.b, self.tau)):
            raise InputError("parameters must be finite")
        if not self.tau > 0:
            raise InputError(f"tau must be positive, got {self.tau}")

    def h(self, p):
        """Characteristic residual a + b e^{-tau p} - p."""
        return self.a + self.b * np.exp(-self.tau * p) - p


@dataclass
class RootSet:
    """Roots sorted by nonincreasing real part (ties: nonincreasing imaginary
    part).  Double roots appear as repeated entries with multiplicity 2."""

    roots: np.ndarray
    count_requested: int
    residuals: np.ndarray
    multiplicities: np.ndarray
    partial: bool = False

    def __len__(self):
        return self.roots.size

    def real_parts(self) -> np.ndarray:
        return self.roots.real


@dataclass(slots=True)
class SlopeFit:
    """Least-squares line through (taus, values).  taus is the caller's grid,
    sorted only if need be; one array per fit holds statistics and values."""

    taus: np.ndarray
    fit: np.ndarray  # slope, intercept, R^2, then the values

    slope = property(lambda self: float(self.fit[0]))
    intercept = property(lambda self: float(self.fit[1]))
    r_squared = property(lambda self: float(self.fit[2]))
    values = property(lambda self: self.fit[3:])
    low_confidence = property(lambda self: self.r_squared < 0.99)

    @property
    def half_decade_slopes(self) -> tuple[float, float]:
        """Slopes over the two uppermost half-decades (nan below two points)."""
        top, r, slopes = self.taus[-1], math.sqrt(10.0), []
        for hi, lo in ((top, top / r), (top / r, top / 10.0)):
            m = (self.taus >= lo - 1e-9) & (self.taus <= hi + 1e-9)
            slopes.append(_fit_line(self.taus[m], self.values[m])[0] if m.sum() >= 2 else math.nan)
        return slopes[0], slopes[1]

    @property
    def half_decade_spread(self) -> float:
        lo, hi = self.half_decade_slopes
        return abs(lo - hi)


def _halley_step(w, L, log):
    """Halley's step for f(w) = w + log w - L, on numpy arrays or scalars."""
    f = w + log(w) - L
    u = w + 1.0
    return f * w / (u + 0.5 * f / u)


def _log_space_w(L) -> np.ndarray:
    """Solutions of w + log w = L, the branch values W_k(z) for L = log z +
    2 pi i k, k >= 1 (|L| >= 2 pi), by Halley's method from the asymptotic
    start L - l + l/L, l = log L: one or two steps, stopping once every step
    is below 1e-6 |w| (convergence is cubic).  A further term of the series
    in the start saves no step for |log z| below about 50."""
    L = np.asarray(L, dtype=complex)
    l = np.log(L)
    w = L - l + l / L
    for _ in range(50):
        step = _halley_step(w, L, np.log)
        w = w - step
        if np.abs(step / w).max() <= 1e-6:
            return w
    raise NumericalFailure(f"Lambert W did not converge on the chain at {L[0]}")


def _central_branch(L, log, q: complex = math.inf):
    """A central branch value as the solution of w + log w = L by Halley's
    method: W_0 of z < -1/e (L = log|z| + i pi, cmath.log, q = i sqrt(-2d)),
    the real W_{-1} of -1/e < z < 0 (L = log|z|, log(w) = log(-w),
    q = -sqrt(2d)), d = 1 + e z, or W_0 of an overflowing z (q = inf).  The
    start is the branch-point series at q where |q| < 0.775 (returned as is
    within |q| < 1e-2, where it is exact to rounding and the iteration is
    ill-conditioned), else L - l + l/L, l = log L."""
    if abs(q) < 0.775:
        w = _branch_point_series(q)
        if abs(q) < 1e-2:
            return w
    else:
        l = log(L)
        w = L - l + l / L
    for _ in range(50):
        step = _halley_step(w, L, log)
        w -= step
        if abs(step) <= 1e-8 * abs(w):
            return w
    raise NumericalFailure(f"Lambert W did not converge at log-space argument {L}")


def _real_wm1(log_abs_z: float, d: float) -> float:
    # complex iterations wander off the real axis across the cut of log
    return _central_branch(log_abs_z, lambda w: math.log(-w), -math.sqrt(2.0 * d))


def _central_w(a: float, b: float, tau: float, log_abs_z: float):
    """Branches 0 and -1 as (real values, their multiplicity, nonreal value
    with Im > 0).  A nonreal W_{-1} is conj W_0 (z < -1/e) or conj W_1
    (z > 0), which the conjugate closure supplies."""
    if log_abs_z < -_LOG_SPACE_BEYOND:
        # W_0(z) = z (1 + O(z)) is exact to double once z underflows
        real = [math.copysign(math.exp(log_abs_z), b)]
        return real + ([_real_wm1(log_abs_z, 1.0)] if b < 0.0 else []), 1, []
    if log_abs_z > _LOG_SPACE_BEYOND:  # z overflows: W_0 solves w + log w = log z
        if b > 0.0:
            return [_central_branch(log_abs_z, math.log)], 1, []
        return [], 1, [_central_branch(complex(log_abs_z, math.pi), cmath.log)]
    z = b * tau * math.exp(-a * tau)
    d = 1.0 + math.e * z
    if abs(d) <= 8.0 * _EPS * (1.0 + abs(a) * tau):
        return [-1.0, -1.0], 2, []  # z = -1/e to rounding: w = -1 is double
    if d < 0.0:
        q = 1j * math.sqrt(-2.0 * d)
        return [], 1, [_central_branch(complex(log_abs_z, math.pi), cmath.log, q)]
    real = [lambert_root(math.e * z)]
    return real + ([_real_wm1(log_abs_z, d)] if b < 0.0 else []), 1, []


def char_roots(prob: CharProblem, count: int) -> RootSet:
    """The count roots with largest real parts, from Lambert-W branches.

    Branches 0 and -1 plus 1..K (and the conjugates) are evaluated, doubling
    K until branch K+1, and with it every branch left out, lies strictly
    below the count-th real part.  b = 0 collapses to the single root p = a,
    so count > 1 sets the partial flag.  At z = -1/e (to rounding) branches
    0 and -1 merge into the double root a - 1/tau.
    """
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    a, b, tau = prob.a, prob.b, prob.tau
    if b == 0.0:
        roots = np.array([complex(a)])
        return RootSet(roots, count, np.abs(prob.h(roots)), np.ones(1, dtype=int), count > 1)
    log_abs_z = math.log(abs(b) * tau) - a * tau
    real, real_mult, upper = _central_w(a, b, tau, log_abs_z)
    K = count // 2 + 4
    while True:
        ks = np.arange(1, K + 2)
        chain = _log_space_w(log_abs_z + 1j * (math.pi * (b < 0.0) + 2.0 * math.pi * ks))
        up = np.concatenate([np.asarray(upper, dtype=complex), chain[:-1]]) / tau  # p - a
        # Re p from |p - a| = |b| e^{-tau Re p}: a + Re w/tau cancels where
        # Re p is small, with rounding errors that share a sign over the
        # hundreds of roots local_dimension sums; |b|/|p - a| shares none
        up.real = np.log(abs(b) / np.abs(up)) / tau
        roots = np.concatenate([a + np.asarray(real, dtype=complex) / tau, up, up.conj()])
        order = np.lexsort((-roots.imag, -roots.real))[:count]
        if order.size == count and a + chain[-1].real / tau < roots[order[-1]].real:
            break
        K *= 2
    mult = np.where(order < len(real), real_mult, 1)
    return RootSet(roots[order], count, np.abs(prob.h(roots[order])), mult)


def local_dimension(rs: RootSet) -> float:
    """Kaplan-Yorke value (cocycle.kaplan_yorke) of the real parts:
    j + S_j/|Re p_{j+1}| at the first negative partial sum S_{j+1}."""
    re = rs.real_parts()
    if re.size == 0:
        raise NeedsMoreRootsError("empty root set")
    if not (np.cumsum(re) < 0.0).any():
        raise NeedsMoreRootsError(
            f"partial sums still nonnegative after {re.size} roots; request more"
        )
    return cocycle.kaplan_yorke(re, re.size)


def unstable_count(rs: RootSet) -> int:
    """Number of roots with strictly positive real part."""
    re = rs.real_parts()
    if re.size == 0 or re.min() > 0.0:
        raise NeedsMoreRootsError(
            "every returned root is unstable; the count is not certified"
        )
    return int(np.sum(re > 0.0))


_QUANTITIES = {"local_dimension": local_dimension, "unstable_count": unstable_count}


def _segment_phase(prob: CharProblem, c: float, Y: float) -> float:
    """Phase change of h along c -> c + iY: four samples per half-turn of
    e^{-tau p}, then passes that split every step whose phase moves by 1.5
    or more into four equal parts and sample only those steps again (the
    settled steps are summed once).  A sample within a few rounding errors
    of zero means a root on the segment."""
    size = max(64, math.ceil(4.0 * prob.tau * Y / math.pi))
    floor = 16.0 * _EPS * (abs(prob.a) + abs(prob.b) * math.exp(-prob.tau * c) + abs(c) + Y)
    t = (np.arange(size) / (size - 1.0))[None, :]  # rows of knots
    samples, settled = size, 0.0
    for _ in range(40):
        vals = prob.h(c + 1j * Y * t)
        if (np.abs(vals) <= floor).any():
            raise NumericalFailure("characteristic root on the contour")
        dphi = np.angle(vals[:, 1:] / vals[:, :-1])
        bad = np.abs(dphi) >= 1.5
        if not bad.any():
            return settled + float(dphi.sum())
        settled += float(dphi[~bad].sum())
        lo, hi = t[:, :-1][bad], t[:, 1:][bad]
        samples += 3 * lo.size
        if samples > _MAX_SEGMENT_SAMPLES:
            break
        t = lo[:, None] + (hi - lo)[:, None] * _SPLIT_KNOTS
    raise NumericalFailure("contour refinement did not settle")


def halfplane_count(prob: CharProblem, c: float) -> int:
    """Exact number of characteristic roots with Re p > c (multiplicity
    counted), by the argument principle on one sampled segment.

    With theta = _ROUCHE_THETA, every root right of c has |p - a| <
    |b| e^{-tau c} = theta rho, so the segment |Im p| <= Y = sqrt(rho^2 -
    (a - c)^2) of Re p = c and the arc of |p - a| = rho right of it enclose
    them all.  On the arc h = (a - p)(1 + x) with |x| = |b e^{-tau p}/(a - p)|
    <= theta < 1 (Rouche's bound), so its phase there follows from the
    endpoints.  h has real coefficients, so the count is the phase change
    along the upper half over pi; only c + iY -> c is sampled, and Y = 0
    gives [c < a].  A root on the segment nudges c right by 3e-7, at most
    eight times.
    """
    a, b, tau = prob.a, prob.b, prob.tau
    if b == 0.0:
        return int(a > c)
    for _ in range(8):
        try:
            rho = abs(b) * math.exp(-tau * c) / _ROUCHE_THETA
        except OverflowError:
            rho = math.inf
        Y = math.sqrt(max(rho * rho - (a - c) ** 2, 0.0))
        if Y == 0.0:
            return int(c < a)  # h winds as a - p along the whole circle
        if 4.0 * tau * Y / math.pi > _MAX_SEGMENT_SAMPLES:
            raise NumericalFailure(f"contour segment of height {Y:.3g} needs too many samples")
        # the arc from a + rho to c + iY turns a - p from -pi to atan2(-Y, a - c)
        # and 1 + x from 0 to its principal argument at c + iY
        top = complex(c, Y)
        arc = math.pi + math.atan2(-Y, a - c) + cmath.phase(1.0 + b * cmath.exp(-tau * top) / (a - top))
        try:
            w = (arc - _segment_phase(prob, c, Y)) / math.pi
        except NumericalFailure:
            c += 3e-7  # nudge off a root sitting on the segment
            continue
        n = round(w)
        if abs(w - n) > 1e-6 or n < 0:
            raise NumericalFailure(f"winding number {w} is not a nonnegative integer")
        return n
    raise NumericalFailure("could not certify the half-plane count")


def determined_roots(prob: CharProblem, *quantities: str) -> RootSet:
    """Leading roots from one char_roots call, enough to determine each named
    quantity ("unstable_count", "local_dimension"), each certified by
    halfplane_count: the unstable count at c = 0, the local dimension at the
    midpoint below the root where the partial sum turns negative.  Raises
    NumericalFailure when a certificate disagrees.  With b = 0 the single
    root p = a is returned as is.
    """
    if not quantities or not set(quantities) <= _QUANTITIES.keys():
        raise InputError(f"quantities must be among {sorted(_QUANTITIES)}, got {quantities}")
    if prob.b == 0.0:
        return char_roots(prob, 1)
    # chain roots at frequency v have real part below about log(|b|/v)/tau,
    # tau/pi of them per unit frequency, and at most two real roots exceed
    # zero, each by at most D/2; so the partial sums turn negative by the V
    # with V (1 + log(|b|/V)) = -pi D
    b, D = abs(prob.b), 2.0 * max(prob.a + abs(prob.b), 0.0)
    V = b * math.exp(1.0 + lambert_root(math.pi * D / b))  # W_0(pi D/(e |b|))
    rs = char_roots(prob, int(prob.tau * V / math.pi) + 16)
    re = rs.real_parts()
    for q in quantities:
        if q == "unstable_count":
            c, n = 0.0, unstable_count(rs)
        else:
            neg = np.flatnonzero(np.cumsum(re) < 0.0)
            lower = re[re < re[neg[0]]] if neg.size else re[:0]
            if lower.size == 0:
                raise NeedsMoreRootsError(f"local dimension undetermined at tau={prob.tau}")
            c = 0.5 * (re[neg[0]] + lower[0])
            n = int(np.sum(re > c))
        certified = halfplane_count(prob, c)
        if certified != n:
            raise NumericalFailure(
                f"{q}: {n} roots above Re p = {c!r}, the argument principle counts {certified}"
            )
    return rs


def asymptotic_slope(
    prob_family: Callable[[float], CharProblem],
    quantity: str,
    taus: Sequence[float],
) -> SlopeFit:
    """Least-squares slope (with intercept) of a per-tau spectral quantity.

    quantity is "local_dimension" or "unstable_count", each value certified
    by determined_roots.  Requires >= 8 grid points spanning at least a
    decade; R^2 below 0.99 raises the low-confidence flag.  Also reports
    slopes over the two uppermost half-decades as a stability diagnostic.
    """
    taus = np.asarray(taus, dtype=float)
    if (np.diff(taus) < 0.0).any():
        taus = np.sort(taus)
    if taus.size < 8:
        raise InputError(f"need at least 8 grid points, got {taus.size}")
    if taus[-1] < 10.0 * taus[0]:
        raise InputError("grid must span at least one decade")
    if quantity not in _QUANTITIES:
        raise InputError(f"unknown quantity {quantity!r}")
    fn = _QUANTITIES[quantity]
    vals = np.array([float(fn(determined_roots(prob_family(t), quantity))) for t in taus])
    return SlopeFit(taus, np.concatenate([_fit_line(taus, vals), vals]))


def _fit_line(x: np.ndarray, y: np.ndarray):
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((y - A @ np.array([slope, intercept])) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2
