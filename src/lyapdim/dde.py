"""Delay-differential-equation ground truth.

Method-of-steps RK4 integration with cubic-Hermite dense output (the step
size divides the delay, so derivative breakpoints always sit on grid nodes
and every lookup interval is one-sided), model definitions, invariant-ball
checks, linearized monodromy matrices on a uniform history grid, and
numerical Lyapunov spectra via windowed QR accumulation: every delay
window's monodromy is built once, by one RK4 recurrence over all windows,
into one (windows, B, B) array that both the QR pass and its seed frame
read.

A model splits its right side in two: delayed(xd), the part that reads only
the delayed state, and rhs(t, x, d), which combines the current state with
d = delayed(xd).  Within one delay interval every delayed argument (the
nodes, the Hermite midpoints and their derivatives) lies in the interval
before it, so the integrator evaluates delayed once per interval, in one
numpy call, and runs only the state recurrence step by step: on floats for
one scalar equation, on (B, n) arrays for a batch, with the same
arithmetic in the same order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import cocycle
from .bounds import _mg_fprime
from .errors import InputError, NumericalFailure

__all__ = [
    "DelayModel",
    "HistorySegment",
    "Trajectory",
    "BallReport",
    "SpectrumReport",
    "mackey_glass",
    "mackey_glass_equilibria",
    "suarez_schopf",
    "suarez_schopf_equilibria",
    "linear_scalar",
    "integrate",
    "invariant_ball_check",
    "linearized_monodromy",
    "numerical_lyapunov_spectrum",
]


@dataclass
class DelayModel:
    """Single-delay system x'(t) = rhs(t, x(t), delayed(x(t - tau))).

    delayed(xd) maps delayed states of shape (..., n) elementwise over the
    leading axes to an array of the same shape; the integrator calls it on
    a whole delay interval of nodes and midpoints at once.  rhs(t, x, d)
    gets a float t, and x and d either as floats (one scalar equation,
    integrated alone) or as arrays of shape (B, n), so it must use only
    arithmetic that both support.  jac(t, x, xd) returns the pair of
    Jacobians (d f/d x, d f/d xd) of f = rhs(t, x, delayed(xd)), each of
    shape (..., n, n); it takes states of shape (..., n) and t batched like
    them, with shape (...).
    """

    n: int
    tau: float
    delayed: Callable
    rhs: Callable
    jac: Callable


class BallReport(NamedTuple):
    passed: bool
    max_norm: float
    witness_sample: int | None
    witness_time: float | None


class SpectrumReport(NamedTuple):
    lambdas: np.ndarray
    lambdas_half: np.ndarray
    horizon: float
    windows: int
    ky: float | None


def mackey_glass(beta: float, gamma: float, k: float, tau: float) -> DelayModel:
    """x' = -gamma x + beta xd / (1 + |xd|^k)."""

    def delayed(xd):
        # only ever called on arrays: numpy's ** rounds differently on scalars
        return beta * (xd / (1.0 + np.abs(xd) ** k))

    def rhs(t, x, d):
        return -gamma * x + d

    def jac(t, x, xd):
        one = np.ones_like(np.asarray(x, dtype=float))
        return -gamma * one[..., None], (beta * _mg_fprime(xd, k))[..., None]

    return DelayModel(1, tau, delayed, rhs, jac)


def mackey_glass_equilibria(beta: float, gamma: float, k: float) -> tuple[float, ...]:
    """0 always; the symmetric pair +-(beta/gamma - 1)^{1/k} when beta > gamma."""
    if beta <= gamma:
        return (0.0,)
    xbar = (beta / gamma - 1.0) ** (1.0 / k)
    return (0.0, xbar, -xbar)


def suarez_schopf(alpha: float, tau: float, forcing: float = 0.0, gamma: float = 1.0) -> DelayModel:
    """x' = gamma x - alpha xd - x^3 + forcing * sin t."""

    def delayed(xd):
        return -alpha * xd

    def rhs(t, x, d):
        return gamma * x + d - x**3 + forcing * math.sin(t)

    def jac(t, x, xd):
        x = np.asarray(x, dtype=float)
        return (gamma - 3.0 * x**2)[..., None], np.full_like(x, -alpha)[..., None]

    return DelayModel(1, tau, delayed, rhs, jac)


def suarez_schopf_equilibria(alpha: float, gamma: float = 1.0) -> tuple[float, ...]:
    """Solutions of gamma x - alpha x - x^3 = 0: zero, plus +-sqrt(gamma - alpha)
    when gamma > alpha."""
    if gamma <= alpha:
        return (0.0,)
    xbar = math.sqrt(gamma - alpha)
    return (0.0, xbar, -xbar)


def linear_scalar(a: float, b: float, tau: float) -> DelayModel:
    """x' = a x + b xd; characteristic roots p = a + b e^{-tau p}."""

    def delayed(xd):
        return b * xd

    def rhs(t, x, d):
        return a * x + d

    def jac(t, x, xd):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, a)[..., None], np.full_like(x, b)[..., None]

    return DelayModel(1, tau, delayed, rhs, jac)


def _hermite(u, v0, d0, v1, d1, h):
    """Cubic Hermite on one interval; u in [0,1], h the interval length."""
    u2, u3 = u * u, u * u * u
    return (
        (2 * u3 - 3 * u2 + 1) * v0
        + (u3 - 2 * u2 + u) * h * d0
        + (-2 * u3 + 3 * u2) * v1
        + (u3 - u2) * h * d1
    )


def _hermite_deriv(u, v0, d0, v1, d1, h):
    u2 = u * u
    return (
        (6 * u2 - 6 * u) * v0 / h
        + (3 * u2 - 4 * u + 1) * d0
        + (-6 * u2 + 6 * u) * v1 / h
        + (3 * u2 - 2 * u) * d1
    )


@dataclass
class HistorySegment:
    """Uniform-grid history on [-tau, 0] with nodal values and derivatives."""

    tau: float
    values: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        self.derivs = np.atleast_2d(np.asarray(self.derivs, dtype=float))
        if self.values.shape != self.derivs.shape or self.values.shape[0] < 2:
            raise InputError("values and derivs must share shape (M+1, n), M >= 1")

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def intervals(self) -> int:
        return self.values.shape[0] - 1

    @classmethod
    def from_function(cls, fn, tau: float, n: int = 1, M: int = 256, dfn=None):
        theta = np.linspace(-tau, 0.0, M + 1)
        vals = np.array([np.atleast_1d(fn(t)) for t in theta], dtype=float)
        if dfn is not None:
            ders = np.array([np.atleast_1d(dfn(t)) for t in theta], dtype=float)
        else:
            eps = 1e-6 * tau
            ders = np.empty_like(vals)
            for i, t in enumerate(theta):
                lo, hi = max(t - eps, -tau), min(t + eps, 0.0)
                ders[i] = (np.atleast_1d(fn(hi)) - np.atleast_1d(fn(lo))) / (hi - lo)
        return cls(tau, vals.reshape(M + 1, n), ders.reshape(M + 1, n))

    @classmethod
    def constant(cls, x, tau: float, M: int = 64):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        vals = np.tile(x, (M + 1, 1))
        return cls(tau, vals, np.zeros_like(vals))

    def _locate(self, theta):
        theta = np.asarray(theta, dtype=float)
        ok = (-self.tau - 1e-9 <= theta) & (theta <= 1e-9)
        if not ok.all():
            raise InputError(
                f"theta={theta[~ok][0]} lies outside the history range [{-self.tau}, 0]"
            )
        h = self.tau / self.intervals
        g = (theta + self.tau) / h
        i = np.clip(np.floor(g).astype(int), 0, self.intervals - 1)
        u = (g - i)[..., None]
        return u, self.values[i], self.derivs[i], self.values[i + 1], self.derivs[i + 1], h

    def eval(self, theta) -> np.ndarray:
        """History at theta: shape (n,) for a scalar, (..., n) for an array."""
        return _hermite(*self._locate(theta))

    def eval_deriv(self, theta) -> np.ndarray:
        return _hermite_deriv(*self._locate(theta))

    def resampled(self, M: int) -> "HistorySegment":
        if M == self.intervals:
            return self
        theta = np.linspace(-self.tau, 0.0, M + 1)
        return HistorySegment(self.tau, self.eval(theta), self.eval_deriv(theta))


@dataclass
class Trajectory:
    """Dense RK4 output on nodes -tau, -tau+dt, ..., T.

    derivs[i] is the right-side derivative at node i; the left-side
    derivative at t = 0 (the history end) is kept separately so history-side
    interpolation stays fourth order across the breakpoint.
    """

    model: DelayModel
    dt: float
    values: np.ndarray
    derivs: np.ndarray
    hist_end_deriv: np.ndarray
    step_halving_error: float | None = None

    @property
    def t_start(self) -> float:
        return -self.model.tau

    @property
    def t_end(self) -> float:
        return self.t_start + self.dt * (self.values.shape[0] - 1)

    @property
    def _m_hist(self) -> int:
        return round(self.model.tau / self.dt)

    def value(self, t) -> np.ndarray:
        """State at t: shape (n,) for a scalar t, (..., n) for an array."""
        t = np.asarray(t, dtype=float)
        ok = (self.t_start - 1e-9 <= t) & (t <= self.t_end + 1e-9)
        if not ok.all():
            raise InputError(
                f"t={t[~ok][0]} lies outside the stored range [{self.t_start}, {self.t_end}]"
            )
        g = (t - self.t_start) / self.dt
        i = np.clip(np.floor(g + 1e-12).astype(int), 0, self.values.shape[0] - 2)
        u = (g - i)[..., None]
        # the interval ending at the history breakpoint takes its left-side derivative
        at_break = (i + 1 == self._m_hist)[..., None]
        d1 = np.where(at_break, self.hist_end_deriv, self.derivs[i + 1])
        return _hermite(u, self.values[i], self.derivs[i], self.values[i + 1], d1, self.dt)

    def segment_at(self, t: float) -> HistorySegment:
        """History segment ending at node time t (t - t_start on the grid)."""
        g = (t - self.t_start) / self.dt
        i = round(g)
        if abs(g - i) > 1e-9 or i < self._m_hist or i >= self.values.shape[0]:
            raise InputError(f"t={t} is not a stored node with a full history behind it")
        m = self._m_hist
        vals = self.values[i - m : i + 1].copy()
        ders = self.derivs[i - m : i + 1].copy()
        return HistorySegment(self.model.tau, vals, ders)


# the default RK4 step is tau / _STEPS_PER_TAU
_STEPS_PER_TAU = 128


def _check_dt(tau: float, dt: float) -> int:
    """The number of steps dt per delay tau, which must be a whole number >= 10."""
    if not 0.0 < tau < math.inf:
        raise InputError(f"tau must be finite and positive, got {tau}")
    q = tau / dt if dt > 0.0 else math.nan
    m = round(q) if math.isfinite(q) else 0
    if m < 10 or abs(m * dt - tau) > 1e-9 * tau:
        raise InputError(f"dt must divide tau with tau/dt >= 10, got tau={tau}, dt={dt}")
    return m


def _integrate_batch(model: DelayModel, vals0, ders0, steps: int, dt: float):
    """Core stepping loop on batched node arrays of shape (K, B, n).

    Runs one delay interval of m steps at a time: model.delayed once on the
    interval's delayed nodes and once on its Hermite midpoints, then the RK4
    state recurrence step by step, on floats when B n = 1 and on (B, n)
    arrays otherwise.  Nonfinite states are looked for once per interval
    and reported at the first nonfinite node.
    """
    m = vals0.shape[0] - 1
    B, n = vals0.shape[1], vals0.shape[2]
    K = m + steps + 1
    vals = np.empty((K, B, n))
    ders = np.empty((K, B, n))
    vals[: m + 1] = vals0
    ders[: m + 1] = ders0
    hist_end = ders0[m].copy()
    rhs, delayed = model.rhs, model.delayed
    # a scalar equation steps on Python floats, which cost a fraction of a
    # numpy call and round the same for + and *
    rows = (lambda a: a.reshape(-1).tolist()) if B * n == 1 else list
    half, sixth = 0.5 * dt, dt / 6.0
    v = rows(vals[m : m + 1])[0]
    for i0 in range(0, steps, m):
        c = min(m, steps - i0)
        dn = rows(delayed(vals[i0 : i0 + c + 1]))
        xs, ks = [], []
        try:
            if i0 and c == m:
                # the last midpoint ends on this interval's first derivative;
                # in the first interval that slot still holds hist_end
                ders[m + i0] = rhs(i0 * dt, v, dn[0])
            lo, hi = slice(i0, i0 + c), slice(i0 + 1, i0 + c + 1)
            dm = rows(delayed(0.5 * (vals[lo] + vals[hi]) + 0.125 * dt * (ders[lo] - ders[hi])))
            for s in range(c):
                t = (i0 + s) * dt
                k1 = rhs(t, v, dn[s])
                k2 = rhs(t + half, v + half * k1, dm[s])
                k3 = rhs(t + half, v + half * k2, dm[s])
                k4 = rhs(t + dt, v + dt * k3, dn[s + 1])
                v = v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                ks.append(k1)
                xs.append(v)
        except OverflowError:
            # a float ** past the double range, where numpy returns inf: the
            # node this step would reach is the nonfinite one
            xs.append(math.nan)
        block = np.array(xs).reshape(-1, B, n)
        finite = np.isfinite(block).all(axis=(1, 2))
        if not finite.all():
            t = (i0 + int(np.argmin(finite))) * dt
            raise NumericalFailure(f"nonfinite state at t = {t + dt:.6g}", t=t + dt)
        vals[m + i0 + 1 : m + i0 + c + 1] = block
        ders[m + i0 : m + i0 + c] = np.array(ks).reshape(c, B, n)
    try:
        ders[K - 1] = rhs(steps * dt, v, dn[c])
    except OverflowError:
        ders[K - 1] = math.nan
    if not np.isfinite(ders[K - 1]).all():
        # a finite last state can still have a nonfinite derivative
        raise NumericalFailure(f"nonfinite derivative at t = {steps * dt:.6g}", t=steps * dt)
    return vals, ders, hist_end


def integrate(
    model: DelayModel,
    h0: HistorySegment,
    T: float,
    dt: float,
    error_estimate: bool = False,
) -> Trajectory:
    """Method-of-steps RK4 from the history h0 over [0, T].

    dt must divide tau (>= 10 substeps); delayed stage lookups then either
    hit stored nodes or the midpoint of one completed interval, where the
    cubic Hermite interpolant keeps the full fourth order.  Breakpoints at
    multiples of tau coincide with nodes, so no step straddles one.
    """
    m = _check_dt(model.tau, dt)
    steps = cocycle._steps_of(T, dt)
    h = h0.resampled(m)
    vals0 = h.values[:, None, :]
    ders0 = h.derivs[:, None, :]
    vals, ders, hist_end = _integrate_batch(model, vals0, ders0, steps, dt)
    traj = Trajectory(model, dt, vals[:, 0, :], ders[:, 0, :], hist_end[0])
    if error_estimate:
        fine = integrate(model, h0, T, dt / 2.0, error_estimate=False)
        diff = np.abs(traj.values[m:] - fine.values[2 * m :: 2, :]).max()
        traj.step_halving_error = float(diff)
    return traj


def invariant_ball_check(
    model: DelayModel,
    R: float,
    sample_count: int,
    T: float,
    dt: float | None = None,
    seed: int = 0,
    histories: Sequence[HistorySegment] | None = None,
) -> BallReport:
    """Integrate random histories with sup norm below R and check the ball
    stays positively invariant (tolerance factor 1 + 1e-6).

    Histories default to random three-harmonic trigonometric polynomials
    scaled to sup norms in (0.3 R, 0.999 R); explicit histories override.
    """
    if not R > 0:
        raise InputError("R must be positive")
    dt = model.tau / 64.0 if dt is None else dt
    m = _check_dt(model.tau, dt)
    steps = cocycle._steps_of(T, dt)
    if histories is None:
        rng = np.random.default_rng(seed)
        fine = np.linspace(-model.tau, 0.0, 8 * m + 1)
        histories = []
        for _ in range(sample_count):
            coef = rng.normal(size=(model.n, 4, 2))
            target = R * rng.uniform(0.3, 0.999)
            sup = np.abs(_trig_eval(coef, fine, model.tau)).max()
            scale = target / sup if sup > 0 else 0.0
            histories.append(_trig_history(coef, model.tau, m, scale=scale))
    if not histories:
        raise InputError(f"need sample_count >= 1 or histories, got sample_count={sample_count}")
    segs = [h.resampled(m) for h in histories]
    vals0 = np.stack([h.values for h in segs], axis=1)
    ders0 = np.stack([h.derivs for h in segs], axis=1)

    try:
        vals, _, _ = _integrate_batch(model, vals0, ders0, steps, dt)
    except NumericalFailure as exc:
        return BallReport(False, math.inf, None, exc.t)
    norms = np.abs(vals).max(axis=2)  # sup norm per (node, sample)
    max_norm = float(norms.max())
    if max_norm <= R * (1.0 + 1e-6):
        return BallReport(True, max_norm, None, None)
    node, samp = np.unravel_index(int(np.argmax(norms > R * (1.0 + 1e-6))), norms.shape)
    return BallReport(False, max_norm, int(samp), float(node * dt - model.tau))


def _trig_history(
    coef, tau: float, M: int = 128, offset: float = 0.0, scale: float = 1.0
) -> HistorySegment:
    """offset + scale * the three-harmonic trig polynomial of coef (n, 4, 2),
    on M + 1 uniform nodes of [-tau, 0]: the random history of
    numerical_lyapunov_spectrum, invariant_ball_check and the CLI."""
    theta = np.linspace(-tau, 0.0, M + 1)
    vals = offset + scale * _trig_eval(coef, theta, tau)
    return HistorySegment(tau, vals, scale * _trig_eval(coef, theta, tau, deriv=True))


def _trig_eval(coef, theta, tau, deriv=False):
    """Three-harmonic trig polynomial with constant term; coef (n, 4, 2)."""
    out = np.full((theta.size, coef.shape[0]), 0.0 if deriv else coef[:, 0, 0])
    for k in range(1, 4):
        w = k * math.pi / tau
        a, b, wt = coef[:, k, 0], coef[:, k, 1], w * theta[:, None]
        if deriv:
            out += -a * w * np.sin(wt) + b * w * np.cos(wt)
        else:
            out += a * np.cos(wt) + b * np.sin(wt)
    return out


# Cubic Lagrange weights at x + 1/2 for stencil nodes x - row .. x - row + 3:
# row 0 on a delay segment's first interval, 1 inside it, 2 on its last, so
# the stencil never reaches across the kinks propagating from the history
# junction.
_MID_WEIGHTS = (
    np.array([[5.0, 15.0, -5.0, 1.0], [-1.0, 9.0, 9.0, -1.0], [1.0, -5.0, 15.0, 5.0]]) / 16.0
)


def linearized_monodromy(
    model: DelayModel, traj: Trajectory, t0: float | np.ndarray, N: int = 64
) -> np.ndarray:
    """Matrix of the linearized history-to-history map over [t0, t0 + tau].

    Coordinates: n components at each of N+1 uniform history nodes, node 0 at
    theta = -tau, node N at theta = 0.  Columns are responses to basis
    histories, integrated by RK4 with quartic-accurate midpoint lookups from
    the identity history's node ladder.  t0 is one window start, which gives
    one (B, B) matrix with B = n (N+1), or a 1-D array of starts, which gives
    their windows stacked as (windows, B, B).  All windows run one recurrence
    on a leading window axis: every step reads its delayed nodes from one
    shared copy of the identity history, and the Jacobians at every stage
    time of every window come from one batched model.jac call.
    """
    tau = model.tau
    if N < 3:
        raise InputError(f"need N >= 3 history intervals for the midpoint stencil, got {N}")
    starts = np.asarray(t0, dtype=float)
    if starts.ndim > 1 or starts.size == 0:
        raise InputError(f"t0 must be one window start or a 1-D array of them, got shape {starts.shape}")
    t = starts.reshape(-1)
    if t.min() < traj.t_start + tau - 1e-9 or t.max() + tau > traj.t_end + 1e-9:
        raise InputError("trajectory does not cover the requested window")
    n, B, K = model.n, model.n * (N + 1), t.size
    h = tau / N

    s = (t[:, None] + np.arange(N) * h).reshape(-1)
    stages = np.stack([s, s + 0.5 * h, s + h])  # (3, K N): RK4 stage times
    J0, Jd = model.jac(stages, traj.value(stages), traj.value(stages - tau))
    A = np.asarray(J0, dtype=float).reshape(3, K, N, n, n)
    D = np.asarray(Jd, dtype=float).reshape(3, K, N, n, n)
    r = np.arange(N)
    rows = (r > 0).astype(int) + (r == N - 1)

    hist = np.eye(B).reshape(1, N + 1, n, B)
    X = np.empty((K, N + 1, n, B))
    X[:, 0] = hist[:, N]
    for i in range(N):
        V = X[:, i]
        lo = i - rows[i]
        # one product per step: every window reads the one shared identity
        # history, so dm is (1, n, B) and broadcasts over the windows
        dm = (_MID_WEIGHTS[rows[i]] @ hist[:, lo : lo + 4].reshape(-1, 4, n * B)).reshape(-1, n, B)
        a, d = A[:, :, i], D[:, :, i]  # (3, K, n, n): this step's stages
        k1 = a[0] @ V + d[0] @ hist[:, i]
        k2 = a[1] @ (V + 0.5 * h * k1) + d[1] @ dm
        k3 = a[1] @ (V + 0.5 * h * k2) + d[1] @ dm
        k4 = a[2] @ (V + h * k3) + d[2] @ hist[:, i + 1]
        X[:, i + 1] = V + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    out = X.reshape(K, B, B)
    return out if starts.ndim else out[0]


def numerical_lyapunov_spectrum(
    model: DelayModel,
    burn_in: float,
    horizon: float,
    m: int,
    N: int = 64,
    dt: float | None = None,
    seed: int = 0,
) -> SpectrumReport:
    """Exponents of the linearized flow along an attractor trajectory.

    Integrates the model from a random history past burn_in, builds the
    tau-window monodromy sequence on an (N+1)-node history grid once, as one
    (windows, B, B) array from one batched linearized_monodromy call, and
    feeds it as a matrix cocycle to one order-m QR pass, whose seed frame
    reads the same array: exponent j is the mean of log|R_jj| over the
    full horizon, with last-half means as the convergence diagnostic.  ky is
    cocycle.kaplan_yorke (the first negative partial sum) when a partial sum
    of the m computed exponents is negative, else None.  N < 1, and windows
    that would not fit in physical memory, are rejected before any work.
    """
    tau = model.tau
    dt = tau / _STEPS_PER_TAU if dt is None else dt
    _check_dt(tau, dt)
    for name, value in (("burn_in", burn_in), ("horizon", horizon)):
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite, got {value}")
    if N < 1:
        raise InputError(f"N must be at least 1, got {N}")
    if not 1 <= m <= model.n * (N + 1):
        raise InputError(f"need 1 <= m <= {model.n * (N + 1)} (the discretized dimension), got {m}")
    windows = max(4, round(horizon / tau))
    burn_windows = max(1, round(burn_in / tau))
    need = windows * (model.n * (N + 1)) ** 2 * 8  # bytes of the dense windows
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise InputError(
            f"{windows} dense windows at N = {N} need {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of memory here"
        )
    coef = np.random.default_rng(seed).normal(size=(model.n, 4, 2))
    h0 = _trig_history(coef, tau, offset=0.1, scale=0.05)
    # the trajectory runs two delays past burn-in before the first window
    # and one past the last
    traj = integrate(model, h0, (burn_windows + windows + 3) * tau, dt)
    fibers = linearized_monodromy(model, traj, (burn_windows + 2 + np.arange(windows)) * tau, N)
    coc = cocycle.MatrixCocycle((0,), lambda q: q + 1, fibers.__getitem__, model.n * (N + 1), tau)
    log_r = cocycle.volume_growth_qr(coc, 0, m, windows * tau).log_r
    half = windows // 2
    lam = log_r.sum(axis=0) / (windows * tau)
    lam_half = log_r[half:].sum(axis=0) / ((windows - half) * tau)
    ky = cocycle.kaplan_yorke(lam, m) if np.cumsum(lam).min() < 0.0 else None
    return SpectrumReport(lam, lam_half, windows * tau, windows, ky)
