"""Discretized delay-operator calculus on R^n x L2(-tau, 0; R^n).

The phase space pairs a head vector with a tail function on [-tau, 0],
discretized per partition segment by Chebyshev-Lobatto collocation with
Clenshaw-Curtis quadrature.  Partition nodes are duplicated so one-sided
limits (and the discontinuous piecewise-exponential weight) are represented
exactly.  Segments are indexed from the right: segment j lives on
[-tau_{j+1}, -tau_j] and carries the weight rate kappa_j.

Within a segment the collocation nodes ascend in theta, and each
differentiation matrix D acts on values in that order.  The quadrature
weights are solved from exact Chebyshev moments; the cosine Vandermonde
system behind them is well conditioned at these nodes up to order 512.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateMetricError, InputError

__all__ = [
    "DelayOperatorSpec",
    "WeightProfile",
    "TailGrid",
    "DiscretizedElement",
    "weighted_inner",
    "apply_L",
    "apply_L_star",
    "symmetrize_S",
    "symmetrized_matrix",
]


def _square(M, n, name):
    A = np.asarray(M, dtype=float)
    if A.shape != (n, n):
        raise InputError(f"{name} must be {n}x{n}, got {A.shape}")
    if not np.isfinite(A).all():
        raise InputError(f"{name} must be finite")
    return A


def _finite(values, name) -> tuple:
    vals = tuple(float(v) for v in values)
    if not all(map(math.isfinite, vals)):
        raise InputError(f"{name} must be finite, got {vals}")
    return vals


def _ascending(partition) -> tuple:
    part = _finite(partition, "partition nodes")
    if any(b <= a for a, b in zip(part, part[1:])):
        raise InputError("partition must be strictly ascending")
    return part


def _same_partition(a, b) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= 1e-12 for x, y in zip(a, b))


@dataclass(frozen=True, eq=False)
class DelayOperatorSpec:
    """Structure of L(x, phi) = (L0 phi(0) + L_tau phi(-tau) + sum_j L_j phi(-tau_j)
    + sum_i int M_i phi, phi')."""

    n: int
    tau: float
    L0: np.ndarray
    L_tau: np.ndarray
    taps: tuple = ()
    kernels: tuple = ()

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise InputError(f"tau must be positive and finite, got {self.tau}")
        object.__setattr__(self, "L0", _square(self.L0, self.n, "L0"))
        object.__setattr__(self, "L_tau", _square(self.L_tau, self.n, "L_tau"))
        taps = tuple((float(t), _square(M, self.n, f"tap at {t}")) for t, M in self.taps)
        lags = [t for t, _ in taps]
        if any(not 0.0 < t < self.tau for t in lags) or any(
            t2 <= t1 for t1, t2 in zip(lags, lags[1:])
        ):
            raise InputError("tap lags must be strictly increasing inside (0, tau)")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "kernels", tuple(self.kernels))

    def partition(self) -> np.ndarray:
        """Ascending boundary list -tau < -tau_J < ... < -tau_1 < 0."""
        lags = [t for t, _ in self.taps]
        return np.array([-self.tau] + [-t for t in reversed(lags)] + [0.0])


@dataclass(frozen=True)
class WeightProfile:
    """Piecewise-exponential weight rho(theta) = e^{kappa_j theta} on segment j."""

    kappas: tuple
    partition: tuple

    def __post_init__(self):
        kappas = _finite(self.kappas, "weight rates")
        part = _ascending(self.partition)
        if len(kappas) != len(part) - 1:
            raise InputError(
                f"{len(kappas)} rates need {len(kappas) + 1} partition nodes, got {len(part)}"
            )
        if abs(part[-1]) > 1e-12 or part[0] >= 0:
            raise InputError("partition must run from -tau < 0 to 0")
        object.__setattr__(self, "kappas", kappas)
        object.__setattr__(self, "partition", part)

    @property
    def tau(self) -> float:
        return -self.partition[0]

    @property
    def n_segments(self) -> int:
        return len(self.kappas)

    def segment_bounds(self, j: int) -> tuple[float, float]:
        part = self.partition
        return part[-(j + 2)], part[-(j + 1)]

    def rho(self, j: int, theta):
        return np.exp(self.kappas[j] * np.asarray(theta, dtype=float))

    def delta(self, j: int) -> float:
        """Jump e^{-kappa_{j-1} tau_j} - e^{-kappa_j tau_j} at node -tau_j, j >= 1."""
        if not 1 <= j <= self.n_segments - 1:
            raise InputError(f"interior node index must be in 1..{self.n_segments - 1}")
        node = self.segment_bounds(j)[1]
        return float(np.exp(self.kappas[j - 1] * node) - np.exp(self.kappas[j] * node))


class _Segment(NamedTuple):
    theta: np.ndarray
    D: np.ndarray
    w: np.ndarray


def _lobatto_segment(order: int, left: float, right: float) -> _Segment:
    """Chebyshev-Lobatto nodes cos(j pi/order) ascending on [left, right], the
    spectral differentiation matrix on them and the Clenshaw-Curtis weights."""
    j = np.arange(order + 1)
    x = -np.cos(np.pi * j / order)
    c = np.where((j == 0) | (j == order), 2.0, 1.0) * (-1.0) ** j
    D = np.outer(c, 1.0 / c) / (np.subtract.outer(x, x) + np.eye(order + 1))
    D -= np.diag(D.sum(axis=1))
    # rows: T_k at the classical descending nodes cos(j pi/order); the
    # moments of T_k on [-1, 1] are 2 / (1 - k^2) for even k, 0 for odd
    V = np.cos(np.outer(j, j) * np.pi / order)
    moments = np.zeros(order + 1)
    moments[::2] = 2.0 / (1.0 - j[::2].astype(float) ** 2)
    w = np.linalg.solve(V, moments)[::-1]
    half = 0.5 * (right - left)
    return _Segment(left + half * (x + 1.0), D / half, w * half)


class TailGrid:
    """Per-segment collocation data, segment j indexed from the right."""

    def __init__(self, partition: Sequence[float], order: int | Sequence[int] = 32):
        self.partition = _ascending(partition)
        nseg = len(self.partition) - 1
        if nseg < 1:
            raise InputError("need at least one segment")
        orders = [order] * nseg if np.isscalar(order) else list(order)
        if len(orders) != nseg:
            raise InputError(f"need {nseg} orders, got {len(orders)}")
        if not all(isinstance(o, Real) and 1 <= o < math.inf and o % 1 == 0 for o in orders):
            raise InputError(f"orders must be whole numbers >= 1, got {orders}")
        self.orders = tuple(int(o) for o in orders)
        part = self.partition
        self.segments = [
            _lobatto_segment(o, part[-(j + 2)], part[-(j + 1)]) for j, o in enumerate(self.orders)
        ]

    @classmethod
    def for_profile(cls, profile: WeightProfile, order: int | Sequence[int] = 32):
        return cls(profile.partition, order)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def matches(self, other: "TailGrid") -> bool:
        return self.orders == other.orders and _same_partition(self.partition, other.partition)


@dataclass
class DiscretizedElement:
    """Head vector plus per-segment tail samples (segment j from the right,
    nodes ascending in theta; duplicated values at interior partition nodes
    carry the one-sided limits)."""

    head: np.ndarray
    tails: list
    grid: TailGrid

    def __post_init__(self):
        self.head = np.atleast_1d(np.asarray(self.head, dtype=float))
        self.tails = [np.asarray(t, dtype=float) for t in self.tails]
        n = self.head.shape[0]
        if len(self.tails) != self.grid.n_segments:
            raise InputError("one tail block per grid segment required")
        for j, t in enumerate(self.tails):
            want = (self.grid.segments[j].theta.size, n)
            if t.shape != want:
                raise InputError(f"tail block {j} must have shape {want}, got {t.shape}")

    @classmethod
    def from_functions(cls, grid: TailGrid, head, fn):
        """fn: callable theta-array -> (len, n) values, or a list per segment."""
        fns = fn if isinstance(fn, (list, tuple)) else [fn] * grid.n_segments
        head = np.atleast_1d(np.asarray(head, dtype=float))
        tails = [
            np.asarray(f(seg.theta), dtype=float).reshape(seg.theta.size, head.size)
            for f, seg in zip(fns, grid.segments)
        ]
        return cls(head, tails, grid)

    @property
    def n(self) -> int:
        return self.head.shape[0]

    def value_at_zero(self) -> np.ndarray:
        return self.tails[0][-1]

    def value_at_minus_tau(self) -> np.ndarray:
        return self.tails[-1][0]

    def node_limits(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(left limit, right limit) of the tail at interior node -tau_j."""
        return self.tails[j][-1], self.tails[j - 1][0]

    def sup_scale(self) -> float:
        mags = [float(np.abs(self.head).max(initial=0.0))]
        mags += [float(np.abs(t).max(initial=0.0)) for t in self.tails]
        return max(1.0, *mags)

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.head] + [t.ravel() for t in self.tails])

    @classmethod
    def from_flat(cls, grid: TailGrid, vec: np.ndarray, n: int):
        vec = np.asarray(vec, dtype=float)
        ends = n + n * np.cumsum([seg.theta.size for seg in grid.segments])
        if vec.ndim != 1 or vec.size != ends[-1]:
            raise InputError(f"flat vector must have length {ends[-1]}, got {vec.shape}")
        head, *tails = np.split(vec, [n, *ends[:-1]])
        return cls(head, [t.reshape(-1, n) for t in tails], grid)


def _check_profile(profile: WeightProfile, grid: TailGrid):
    if not _same_partition(profile.partition, grid.partition):
        raise InputError("weight profile partition does not match the grid")


def _check_layout(spec: DelayOperatorSpec, n: int, partition):
    """Interior nodes must sit at the tap lags, where each tap reads its limits."""
    if n != spec.n or not _same_partition(spec.partition(), partition):
        raise InputError(
            f"layout must be n = {spec.n}, nodes {spec.partition().tolist()}; "
            f"got n = {n}, nodes {list(partition)}"
        )


def weighted_inner(v: DiscretizedElement, w: DiscretizedElement, profile: WeightProfile) -> float:
    """<x, y> + sum_j int_seg_j rho_j <phi, psi>; no panel crosses a node."""
    if not v.grid.matches(w.grid):
        raise InputError("elements live on different grids")
    _check_profile(profile, v.grid)
    total = float(v.head @ w.head)
    for j, seg in enumerate(v.grid.segments):
        rho = profile.rho(j, seg.theta)
        total += float(np.sum(seg.w * rho * np.sum(v.tails[j] * w.tails[j], axis=1)))
    return total


def _kernel_integral(spec: DelayOperatorSpec, v: DiscretizedElement) -> np.ndarray:
    """sum_i int M_i(theta) phi(theta) dtheta over the whole tail."""
    out = np.zeros(spec.n)
    for kernel in spec.kernels:
        for seg, tail in zip(v.grid.segments, v.tails):
            for wq, th, val in zip(seg.w, seg.theta, tail):
                out += wq * (np.asarray(kernel(th), dtype=float) @ val)
    return out


# relative tolerance, against the sup-scale, of the domain and adjoint
# boundary conditions that apply_L and apply_L_star check
_DOMAIN_TOL = 1e-8


def _domain_residuals(v: DiscretizedElement) -> list[float]:
    """|tail(0) - head|, then the jump |left - right| at each interior node."""
    pairs = [(v.value_at_zero(), v.head)] + [v.node_limits(j) for j in range(1, v.grid.n_segments)]
    return [float(np.linalg.norm(a - b)) for a, b in pairs]


def apply_L(spec: DelayOperatorSpec, v: DiscretizedElement) -> DiscretizedElement:
    """(x, phi) -> (L0 phi(0) + L_tau phi(-tau) + sum taps + kernel integrals, phi').

    v must sit in the discrete domain: continuous tail with tail(0) = head,
    checked to _DOMAIN_TOL * sup-scale.
    """
    _check_layout(spec, v.n, v.grid.partition)
    scale = v.sup_scale()
    bad = [r for r in _domain_residuals(v) if r > _DOMAIN_TOL * scale]
    if bad:
        raise InputError(f"element violates domain continuity, residuals {bad}")
    head = spec.L0 @ v.value_at_zero() + spec.L_tau @ v.value_at_minus_tau()
    for j, (_, M) in enumerate(spec.taps, start=1):
        left, right = v.node_limits(j)
        head = head + M @ (0.5 * (left + right))
    if spec.kernels:
        head = head + _kernel_integral(spec, v)
    tails = [seg.D @ tail for seg, tail in zip(v.grid.segments, v.tails)]
    return DiscretizedElement(head, tails, v.grid)


def adjoint_residuals(
    spec: DelayOperatorSpec, profile: WeightProfile, w: DiscretizedElement
) -> list[float]:
    """Boundary-condition residuals of the adjoint domain: the -tau condition
    rho(-tau) psi(-tau) = L_tau^T y, then the jump condition at each interior
    node: Delta_j(rho psi) = L_j^T y."""
    y = w.head
    J = w.grid.n_segments - 1
    rho_at_tau = float(profile.rho(J, -profile.tau))
    res = [float(np.linalg.norm(spec.L_tau.T @ y - rho_at_tau * w.value_at_minus_tau()))]
    for j, (_, M) in enumerate(spec.taps, start=1):
        node = profile.segment_bounds(j)[1]
        left, right = w.node_limits(j)
        jump = float(profile.rho(j - 1, node)) * right - float(profile.rho(j, node)) * left
        res.append(float(np.linalg.norm(jump - M.T @ y)))
    return res


def _with_kernels(spec, profile, j, seg, head, out):
    """out + (sum_i M_i^T / rho_j) head on segment j, accumulated in place."""
    for kernel in spec.kernels:
        rho = profile.rho(j, seg.theta)
        for i, th in enumerate(seg.theta):
            out[i] += (np.asarray(kernel(th), dtype=float).T @ head) / rho[i]
    return out


def apply_L_star(
    spec: DelayOperatorSpec,
    profile: WeightProfile,
    w: DiscretizedElement,
) -> DiscretizedElement:
    """Adjoint action (y, psi) -> (L0^T y + rho(0) psi(0),
    -psi' - (rho'/rho) psi + (sum M_i^T / rho) y).

    rho'/rho is kappa_j exactly on each open segment.  The adjoint boundary
    conditions must hold to _DOMAIN_TOL * sup-scale.
    """
    _check_layout(spec, w.n, w.grid.partition)
    _check_profile(profile, w.grid)
    scale = w.sup_scale()
    res = adjoint_residuals(spec, profile, w)
    if any(r > _DOMAIN_TOL * scale for r in res):
        raise InputError(f"adjoint boundary conditions violated, residuals {res}")
    head = spec.L0.T @ w.head + w.value_at_zero()  # rho(0) = 1
    tails = [
        _with_kernels(spec, profile, j, seg, w.head, -(seg.D @ tail) - profile.kappas[j] * tail)
        for j, (seg, tail) in enumerate(zip(w.grid.segments, w.tails))
    ]
    return DiscretizedElement(head, tails, w.grid)


def _bound_matrix(spec: DelayOperatorSpec, profile: WeightProfile) -> np.ndarray:
    """The head block of 2 S_L; the one admissibility rule for a weight: a
    bounded symmetrization exists only when every jump Delta_j is positive."""
    rho_at_tau = float(profile.rho(profile.n_segments - 1, -profile.tau))
    M = spec.L0 + spec.L0.T + np.eye(spec.n) + spec.L_tau @ spec.L_tau.T / rho_at_tau
    for j, (_, Lj) in enumerate(spec.taps, start=1):
        d = profile.delta(j)
        if d <= 1e-14:
            node = profile.segment_bounds(j)[1]
            raise DegenerateMetricError(
                f"weight jump Delta_{j} = {d:.3e} at node {node} is not positive; "
                "no bounded symmetrization exists"
            )
        M = M + Lj @ Lj.T / d
    return M


def symmetrize_S(
    spec: DelayOperatorSpec, profile: WeightProfile, v: DiscretizedElement
) -> DiscretizedElement:
    """Additive symmetrization S_L(x, phi) = 1/2 (y, psi):
    y = (L0 + L0^T + rho(0) I + L_tau L_tau^T / rho(-tau)
         + sum_j L_j L_j^T / Delta_j) x + sum_i int M_i phi,
    psi_j = -kappa_j phi_j + (sum_i M_i^T / rho_j) x.
    _check_layout checks the nodes, _bound_matrix every Delta_j > 0."""
    _check_layout(spec, v.n, v.grid.partition)
    _check_profile(profile, v.grid)
    y = _bound_matrix(spec, profile) @ v.head
    if spec.kernels:
        y = y + _kernel_integral(spec, v)
    tails = [
        _with_kernels(spec, profile, j, seg, v.head, -profile.kappas[j] * tail)
        for j, (seg, tail) in enumerate(zip(v.grid.segments, v.tails))
    ]
    return DiscretizedElement(0.5 * y, [0.5 * t for t in tails], v.grid)


def symmetrized_matrix(spec: DelayOperatorSpec, profile: WeightProfile):
    """Head-block matrix M of 2 S_L and its nonincreasing eigenvalues.

    Valid for kernel-free operators; the rest of the 2 S_L spectrum is the
    rates -kappa_j, each of infinite multiplicity in the continuum limit.
    _check_layout checks the profile's nodes, _bound_matrix every Delta_j > 0.
    """
    if spec.kernels:
        raise InputError("the head-block bound matrix requires empty kernels")
    _check_layout(spec, spec.n, profile.partition)
    M = _bound_matrix(spec, profile)
    ev = np.linalg.eigvalsh(M)[::-1]
    return M, ev
