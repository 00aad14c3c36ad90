"""Reference values computed without lyapdim.

The roots of p = a + b e^{-tau p} are exactly p_k = a + W_k(z)/tau with
z = b tau e^{-a tau}, one root per branch k of the Lambert W function
(Corless et al., "On the Lambert W function", Adv. Comput. Math. 5, 1996).
When |a| tau is large z leaves the double range, so the branches are found
from w + log w = log z + 2 pi i k instead, with log z kept in closed form.
From the roots come the Kaplan-Yorke local dimension and the unstable count;
the dimension bounds are the closed form tau b e^{p+1} + 1 with
p = W_0(c/e), c = a/b.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import lambertw

LOG_SPACE_BEYOND = 600.0  # |a| tau above which e^{-a tau} is not formed


def _newton_log_branch(L: complex) -> complex:
    """Solution of w + log w = L near the asymptotic start L - log L."""
    w = L - cmath.log(L)
    for _ in range(100):
        step = (w + cmath.log(w) - L) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= 1e-16 * abs(w):
            break
    return w


def _w_log_space(log_abs_z: float, negative: bool, k: int) -> complex:
    """W_k(z) for z = +-e^{log_abs_z} with log_abs_z far outside the double
    range of e^x."""
    if k == 0 and log_abs_z < 0.0:
        # W_0(z) = z (1 + O(z)) for tiny z; underflow to 0 is exact to double
        return complex((-1.0 if negative else 1.0) * math.exp(log_abs_z))
    if k == -1 and negative and log_abs_z < 0.0:
        # the real branch below -1: w + log(-w) = log|z|
        w = log_abs_z - math.log(-log_abs_z)
        for _ in range(100):
            step = (w + math.log(-w) - log_abs_z) / (1.0 + 1.0 / w)
            w -= step
            if abs(step) <= 1e-16 * abs(w):
                break
        return complex(w)
    arg = math.pi if negative else 0.0
    return _newton_log_branch(complex(log_abs_z, arg + 2.0 * math.pi * k))


def branch_roots(a: float, b: float, tau: float, K: int) -> np.ndarray:
    """Roots from branches -K..K, sorted by nonincreasing real part (ties by
    nonincreasing imaginary part), as lyapdim's RootSet orders them."""
    if b == 0.0:
        return np.array([complex(a)])
    p = np.array([_root(a, b, tau, k) for k in range(-K, K + 1)])
    return p[np.lexsort((-p.imag, -p.real))]


def _root(a: float, b: float, tau: float, k: int) -> complex:
    """The root on branch k."""
    if abs(a) * tau <= LOG_SPACE_BEYOND:
        w = complex(lambertw(b * tau * math.exp(-a * tau), k))
    else:
        w = _w_log_space(math.log(abs(b) * tau) - a * tau, b < 0.0, k)
    return a + w / tau


def _roots_until(a: float, b: float, tau: float, done) -> np.ndarray:
    """Enumerate branches until done(sorted_roots, re_bound) holds, where
    re_bound bounds the real part of every root left out."""
    K = 8
    while True:
        p = branch_roots(a, b, tau, K)
        left_out = max(_root(a, b, tau, k).real for k in (-K - 1, K + 1))
        if done(p, left_out):
            return p
        K *= 2
        if K > 1 << 16:
            raise RuntimeError(f"branch enumeration did not close at tau={tau}")


def _ky(re: np.ndarray) -> float:
    if re[0] < 0.0:
        return 0.0
    cums = np.cumsum(re)
    j = int(np.argmax(cums < 0.0))
    return j + cums[j - 1] / abs(re[j]) if j > 0 else 0.0


def local_dimension(a: float, b: float, tau: float) -> float:
    """Kaplan-Yorke value j + S_j/|Re p_{j+1}| of the real parts."""

    def done(p, left_out):
        cums = np.cumsum(p.real)
        neg = np.flatnonzero(cums < 0.0)
        return neg.size > 0 and left_out < p[neg[0]].real

    return float(_ky(_roots_until(a, b, tau, done).real))


def unstable_count(a: float, b: float, tau: float) -> int:
    """Number of roots with positive real part."""
    p = _roots_until(a, b, tau, lambda p, left_out: left_out <= 0.0)
    return int(np.sum(p.real > 0.0))


def leading_roots(a: float, b: float, tau: float, count: int) -> np.ndarray:
    """The count roots with the largest real parts."""
    p = _roots_until(
        a, b, tau, lambda p, left_out: p.size > count and left_out < p[count - 1].real
    )
    return p[:count]


def line_slope(x, y) -> float:
    """Least-squares slope with intercept."""
    return float(np.polyfit(np.asarray(x, float), np.asarray(y, float), 1)[0])


# ------------------------------------------------------------------ bounds


def scalar_bound(tau: float, a: float, b: float) -> float:
    """min over kappa > 0 of (a + b e^{kappa tau})/kappa + 1, for a + b > 0."""
    p = float(lambertw(a / b / math.e, 0).real)
    return tau * b * math.exp(p + 1.0) + 1.0


def _mg_lambda(k: float) -> float:
    return max(1.0, (k - 1.0) ** 2 / (4.0 * k))


def mackey_glass_bound(beta: float, gamma: float, k: float, tau: float) -> float:
    """Unscaled Mackey-Glass bound with the global derivative bound Lambda."""
    return scalar_bound(tau, 1.0 - 2.0 * gamma, (beta * _mg_lambda(k)) ** 2)


def mackey_glass_scaled_bound(beta: float, gamma: float, k: float, tau: float) -> float:
    """Minimum over the rescaling s of the bound for a(s) = 1 - 2 s gamma,
    b(s) = (s beta Lambda)^2, tau(s) = tau/s; a dense scan then Brent."""
    lam = _mg_lambda(k)

    def d(x):
        s = 10.0**x
        a, b = 1.0 - 2.0 * s * gamma, (s * beta * lam) ** 2
        return scalar_bound(tau / s, a, b) if a + b > 0.0 else math.inf

    xs = np.linspace(-3.0, 3.0, 3001)
    i = int(np.argmin([d(x) for x in xs]))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    res = minimize_scalar(d, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return float(res.fun)


def mackey_glass_ball_radius(beta: float, gamma: float, k: float) -> float:
    """Absorbing-ball radius (beta/gamma) (k-1)^{(k-1)/k} / k."""
    return (beta / gamma) * (k - 1.0) ** ((k - 1.0) / k) / k


def mackey_glass_plus_linearization(beta: float, gamma: float, k: float):
    """(a, b) of the linearization at the equilibrium x^k = beta/gamma - 1:
    a = -gamma, b = beta F'(x) with F'(y) = (1 + (1 - k) y^k)/(1 + y^k)^2."""
    yk = beta / gamma - 1.0
    return -gamma, beta * (1.0 + (1.0 - k) * yk) / (1.0 + yk) ** 2
