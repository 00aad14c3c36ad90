"""Finite-dimensional cocycle laboratory, sampled at one step h: fiber(q) is
the propagator over one step from base state q, and horizons are whole steps.

Volume growth by QR re-orthonormalization, uniform Lyapunov exponents as
maxima of per-base growth rates, Kaplan-Yorke and exact Lyapunov dimensions,
Lyapunov metrics with their infinitesimal growth exponents, a Liouville
trace-formula checker, and the finite-base variational principle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import tensor
from .errors import InputError

__all__ = [
    "MatrixCocycle",
    "ExponentReport",
    "VolumeGrowth",
    "MetricResult",
    "DimensionResult",
    "EvpResult",
    "volume_growth_qr",
    "uniform_exponents",
    "kaplan_yorke",
    "lyapunov_dimension",
    "lyapunov_metric",
    "liouville_check",
    "evp_finite_base",
]


@dataclass(frozen=True)
class MatrixCocycle:
    """A matrix cocycle over a finite collection of labeled base states.

    base_step advances a base state by one sampling step h; fiber(q) is the
    n x n propagator over that one step starting at q.  The propagator over k
    steps is the product fiber(q_{k-1}) ... fiber(q_0) along the base orbit.
    """

    base_points: tuple
    base_step: Callable
    fiber: Callable
    dim: int
    h: float = 1.0


class VolumeGrowth(NamedTuple):
    log_omega: float
    per_step: np.ndarray
    collapsed: bool
    log_r: np.ndarray


@dataclass
class ExponentReport:
    m: int
    lambdas: np.ndarray
    horizon: float


class MetricResult(NamedTuple):
    value: float
    alpha: float
    warned: bool


class DimensionResult(NamedTuple):
    value: float
    saturated: bool


class EvpResult(NamedTuple):
    rates: list
    max_rate: float


def _steps_of(T: float, h: float) -> int:
    """The number of steps h in T, which must be a whole number >= 1."""
    q = T / h if h > 0.0 else math.nan
    k = round(q) if math.isfinite(q) else 0
    if k < 1 or abs(k * h - T) > 1e-9 * max(1.0, abs(T)):
        raise InputError(f"T={T} is not a positive whole number of steps {h}")
    return k


def _seed_frame(coc: MatrixCocycle, q, m: int, steps: int) -> np.ndarray:
    """Initial m-frame: right singular vectors of a short leading product.

    Aligning the frame with the dominant singular subspace makes the
    accumulated QR volume match log omega_m of the full product instead of
    lagging it by the fixed misalignment of an arbitrary start frame.
    """
    probe = min(steps, 64)
    P = coc.fiber(q)
    for i in range(probe):
        if i > 0:
            P = coc.fiber(q) @ P
        q = coc.base_step(q)
        nrm = np.linalg.norm(P)
        if nrm > 1e100 or (0.0 < nrm < 1e-100):
            P = P / nrm
    _, _, Vh = np.linalg.svd(P)
    return Vh[:m].conj().T


def volume_growth_qr(coc: MatrixCocycle, q, m: int, T: float) -> VolumeGrowth:
    """log omega_k of the propagator over [0, T] from q, for every k <= m,
    accumulated by one pass of QR re-orthonormalization, one step h at a time.

    log_r[i, k] is log|R_kk| at step i.  Householder QR treats the leading
    columns of the nested seed frame first, so the column sums of log_r[:, :k]
    make the order-k run: log omega_k = log_r[:, :k].sum() (Benettin et al.,
    1980).  per_step (row sums), log_omega and collapsed are for order m.  A
    vanishing or nonfinite R_jj drops columns j.. of the frame: they read
    -inf from that step on, and the orders below j carry on unchanged.
    """
    if not 1 <= m <= coc.dim:
        raise InputError(f"need 1 <= m <= {coc.dim}, got {m}")
    steps = _steps_of(T, coc.h)
    Q = _seed_frame(coc, q, m, steps)
    log_r = np.full((steps, m), -math.inf)
    for i in range(steps):
        Z = coc.fiber(q) @ Q
        q = coc.base_step(q)
        Q, R = np.linalg.qr(Z)
        d = np.abs(np.diag(R))
        ok = (d > 0.0) & np.isfinite(d)
        k = d.size if ok.all() else int(np.argmin(ok))
        log_r[i, :k] = np.log(d[:k])
        Q = Q[:, :k]
        if k == 0:
            break
    per_step = log_r.sum(axis=1)
    return VolumeGrowth(float(per_step.sum()), per_step, Q.shape[1] < m, log_r)


def _log_omega_table(coc: MatrixCocycle, m: int, T: float) -> np.ndarray:
    """log omega_k over [0, T] for k = 0..m (columns) at each base point
    (rows), one order-m pass per base point."""
    table = np.zeros((len(coc.base_points), m + 1))
    for i, q in enumerate(coc.base_points):
        table[i, 1:] = np.cumsum(volume_growth_qr(coc, q, m, T).log_r.sum(axis=0))
    return table


def uniform_exponents(coc: MatrixCocycle, m_max: int, T: float) -> ExponentReport:
    """Uniform exponents from differenced maxima of m-volume growth.

    The sum of the first m exponents is the max over base points of the
    m-volume growth rate; individual exponents come out by differencing, so
    they need not be ordered.  One order-m_max pass per base point gives
    every order.
    """
    if not 1 <= m_max <= coc.dim:
        raise InputError(f"need 1 <= m_max <= {coc.dim}, got {m_max}")
    sums = _log_omega_table(coc, m_max, T).max(axis=0)
    # a collapsed order (log omega = -inf) keeps exponent -inf, where
    # differencing would take -inf - -inf
    lam = np.full(m_max, -math.inf)
    np.subtract(sums[1:], sums[:-1], out=lam, where=sums[1:] > -math.inf)
    return ExponentReport(m_max, lam / T, T)


def kaplan_yorke(lambdas: Sequence[float], n: int) -> float:
    """Kaplan-Yorke formula on exponents given for m = 1..n.

    j + S_j/|lambda_{j+1}| at the first negative partial sum S_{j+1}, so the
    value is the smallest order d with negative interpolated sum, as in
    lyapunov_dimension; 0 when the top exponent is negative, n when no
    partial sum is negative.  S_j is a small difference of many terms and
    |lambda_{j+1}| can be small too, so S_j is summed exactly rounded.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.size < n or n < 1:
        raise InputError(f"need exponents for m = 1..{n}, got {lam.size}")
    cums = np.cumsum(lam[:n])
    neg = np.flatnonzero(cums < 0.0)
    if neg.size == 0:
        return float(n)
    j = int(neg[0])
    return j + math.fsum(lam[:j].tolist()) / abs(float(lam[j])) if j > 0 else 0.0


def lyapunov_dimension(coc: MatrixCocycle, T: float) -> DimensionResult:
    """inf of the orders d where the sup-over-base d-volume growth is negative.

    log omega_{m+g} = (1 - g) t_m + g t_{m+1} is linear in g, so on [m, m + 1]
    the d where every base point contracts is an intersection of half-lines,
    whose start is exact; a cocycle that never contracts saturates at dim.
    """
    n = coc.dim
    table = _log_omega_table(coc, n, T)
    if table[:, n].max() >= 0.0:
        return DimensionResult(float(n), True)
    for m in range(n):
        # a collapsed order (t_{m+1} = -inf) is negative for every g > 0
        live = table[:, m + 1] > -math.inf
        a = table[live, m]
        s = table[live, m + 1] - a
        # a + g s is never negative when a, s >= 0; otherwise a falling line
        # is negative past g = a/(-s) and a rising one before it
        if (a[s >= 0.0] >= 0.0).any():
            continue
        g_lo = float((a[s < 0.0] / -s[s < 0.0]).max(initial=0.0))
        g_hi = float((-a[s > 0.0] / s[s > 0.0]).min(initial=1.0))
        if g_lo < g_hi:
            return DimensionResult(m + g_lo, False)
    return DimensionResult(float(n), False)


def lyapunov_metric(
    coc: MatrixCocycle,
    nu: float,
    T: float,
    p: float,
    q,
    xi: np.ndarray,
) -> MetricResult:
    """Adapted-norm value n_q(xi) = (int_0^T ||e^{-nu t} Xi^t xi||^p dt)^{1/p}
    and the infinitesimal growth exponent it certifies.

    alpha = nu + (||e^{-nu T} Xi^T xi||^p - ||xi||^p) / (p n_q^p); when the
    observed growth of xi over [0, T] reaches nu the result carries a warning
    flag (nu was not actually above the top exponent); an annihilated xi
    has growth -inf and never warns.
    """
    if p < 1:
        raise InputError(f"need p >= 1, got {p}")
    xi = np.asarray(xi, dtype=float)
    nx = float(np.linalg.norm(xi))
    if nx == 0.0:
        raise InputError("xi = 0 gives a degenerate metric value")
    steps = _steps_of(T, coc.h)
    norms = np.zeros(steps + 1)
    norms[0] = nx
    v = xi.copy()
    for i in range(steps):
        v = coc.fiber(q) @ v
        q = coc.base_step(q)
        norms[i + 1] = np.linalg.norm(v)
    t_grid = coc.h * np.arange(steps + 1)
    integrand = (np.exp(-nu * t_grid) * norms) ** p
    integral = _composite_quadrature(integrand, coc.h)
    n_q = integral ** (1.0 / p)
    alpha = nu + (integrand[-1] - integrand[0]) / (p * integral)
    warned = bool(norms[-1] > 0.0 and (math.log(norms[-1]) - math.log(nx)) / T >= nu)
    return MetricResult(n_q, alpha, warned)


def _composite_quadrature(y: np.ndarray, dt: float) -> float:
    """Simpson on an even number of intervals; odd counts get a trapezoid
    panel appended."""
    k = y.size - 1
    if k == 0:
        raise InputError("need at least one quadrature interval")
    total = 0.0
    if k % 2 == 1:
        total += 0.5 * dt * (y[-2] + y[-1])
        y = y[:-1]
        k -= 1
    if k >= 2:
        total += dt / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())
    return total


def liouville_check(A_path: Callable, frame: np.ndarray, T: float, dt: float) -> float:
    """Max relative gap between the evolved Gram volume of a frame and the
    exponential of the integrated projected trace.

    The frame (columns) moves under v' = A(t) v; alongside, z' = tr(Q^T A Q)
    with Q an orthonormal basis of the current frame, integrated by the same
    RK4 stages.  Returns max over step ends of |vol/vol0 - e^z| / e^z.
    """
    V = np.asarray(frame, dtype=float)
    if V.ndim != 2:
        raise InputError("frame must be an (n, m) array of column vectors")
    sv = np.linalg.svd(V, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise InputError("frame is degenerate at t = 0")
    steps = _steps_of(T, dt)
    m = V.shape[1]
    vol0 = math.sqrt(abs(tensor.wedge_gram(V.T, V.T)))

    def rhs(t, V, _z):
        A = A_path(t)
        Q, _ = np.linalg.qr(V)
        return A @ V, float(np.trace(Q.T @ A @ Q))

    z = 0.0
    worst = 0.0
    t = 0.0
    for _ in range(steps):
        k1V, k1z = rhs(t, V, z)
        k2V, k2z = rhs(t + 0.5 * dt, V + 0.5 * dt * k1V, z + 0.5 * dt * k1z)
        k3V, k3z = rhs(t + 0.5 * dt, V + 0.5 * dt * k2V, z + 0.5 * dt * k2z)
        k4V, k4z = rhs(t + dt, V + dt * k3V, z + dt * k3z)
        V = V + dt / 6.0 * (k1V + 2.0 * k2V + 2.0 * k3V + k4V)
        z = z + dt / 6.0 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        t += dt
        vol = math.sqrt(abs(tensor.wedge_gram(V.T, V.T)))
        worst = max(worst, abs(vol / vol0 - math.exp(z)) / math.exp(z))
    return worst


def evp_finite_base(coc: MatrixCocycle, m: int) -> EvpResult:
    """Per-equilibrium m-volume growth rates and their maximum.

    Every base point must be fixed under base_step, so its fiber over one
    step h is a constant matrix M and the rate is lim_k log omega_m(M^k)/(k h)
    = (sum of the m largest log|eig M|)/h, since sigma_i(M^k)^{1/k} tends to
    |lambda_i(M)| (Yamamoto 1967).  A zero eigenvalue among them gives -inf.
    """
    if not 1 <= m <= coc.dim:
        raise InputError(f"need 1 <= m <= {coc.dim}, got {m}")
    for q in coc.base_points:
        if not _same_state(coc.base_step(q), q):
            raise InputError(f"base point {q!r} is not an equilibrium")
    rates = []
    for q in coc.base_points:
        with np.errstate(divide="ignore"):
            log_mod = np.log(np.abs(np.linalg.eigvals(coc.fiber(q))))
        rates.append((q, float(np.sort(log_mod)[::-1][:m].sum()) / coc.h))
    return EvpResult(rates, max(r for _, r in rates))


def _same_state(a, b) -> bool:
    try:
        return bool(a == b)
    except Exception:
        return np.array_equal(np.asarray(a), np.asarray(b))