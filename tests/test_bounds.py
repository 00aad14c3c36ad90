"""Scalar dimension-bound engine.  Oracles: Lambert-W branch enumeration via
mpmath (p e^{p+1} = c is p = W(c/e)), brute-force minimization over kappa,
and frozen classical-parameter values."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapdim import bounds
from lyapdim.errors import InputError

mpmath.mp.dps = 40


def lambert_oracle(c: float) -> float:
    """p e^{p+1} = c  <=>  p e^p = c/e  <=>  p = W_0(c/e) for c >= -1."""
    return float(mpmath.lambertw(mpmath.mpf(c) / mpmath.e))


# ------------------------------------------------------------ lambert_root


def test_lambert_root_against_lambertw():
    for c in [-1.0 + 1e-9, -0.5, -0.1, 0.0, 1e-6, 0.5, 1.0, 4.8773, 100.0, 1e8]:
        got = bounds.lambert_root(c)
        assert got == pytest.approx(lambert_oracle(c), rel=1e-11, abs=1e-11)
        # direct residual check too
        assert got * math.exp(got + 1.0) == pytest.approx(c, abs=1e-10 * (1 + abs(c)))


def test_lambert_root_edges():
    assert bounds.lambert_root(-1.0) == -1.0
    assert bounds.lambert_root(0.0) == 0.0
    with pytest.raises(InputError):
        bounds.lambert_root(-1.0000001)
    with pytest.raises(InputError):
        bounds.lambert_root(float("nan"))
    with pytest.raises(InputError):
        bounds.lambert_root(float("inf"))


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.0, 1e6))
def test_lambert_root_property(c):
    got = bounds.lambert_root(c)
    assert got >= -1.0
    assert got * math.exp(got + 1.0) == pytest.approx(c, abs=1e-9 * (1.0 + abs(c)))


def test_lambert_root_dense_grid_against_mpmath():
    # relative error against 30 digits over c in -1 + 10^[-15, -1], [-1, 5]
    # and 10^[-8, 300]; within 1e-2 of the branch point c = -1 the root is
    # ill-conditioned (dW/dc ~ 1/sqrt(2 (1 + c))), and elsewhere the worst
    # error is no worse than scipy's W_0 on the same grid
    from scipy.special import lambertw

    cs = np.concatenate([
        -1.0 + 10.0 ** np.linspace(-15.0, -1.0, 301),
        np.linspace(-1.0, 5.0, 301),
        10.0 ** np.linspace(-8.0, 300.0, 301),
    ])
    ours, theirs = [], []
    with mpmath.workdps(30):
        for c in map(float, cs):
            want = mpmath.lambertw(mpmath.mpf(c) / mpmath.e)
            scale = abs(want) if want != 0 else mpmath.mpf(1)
            scipy_w = max(float(lambertw(c / math.e).real), -1.0)
            ours.append(float(abs(bounds.lambert_root(c) - want) / scale))
            theirs.append(float(abs(scipy_w - want) / scale))
    ours, theirs = np.array(ours), np.array(theirs)
    away = 1.0 + cs >= 1e-2
    assert ours.max() <= 1e-13
    assert ours[away].max() <= theirs[away].max()


def test_lambert_root_classical_value():
    # c = a/b at the classical chaotic parameter set of the delayed
    # feedback oscillator: a = 0.8, b = (beta * Lambda)^2 = (0.2 * 2.025)^2
    c = 0.8 / 0.164025
    p = bounds.lambert_root(c)
    assert p == pytest.approx(0.8034, abs=5e-4)
    assert p == pytest.approx(lambert_oracle(c), rel=1e-12)


# ------------------------------------------------------------ scalar_bound


def brute_force_bound(a, b, tau, n=400001, lo=1e-6, hi=60.0):
    ks = np.linspace(lo, hi, n)
    vals = (a + b * np.exp(ks * tau)) / ks + 1.0
    i = int(np.argmin(vals))
    return float(vals[i]), float(ks[i])


def test_scalar_bound_matches_brute_force():
    for a, b, tau in [(0.8, 0.164025, 2.0), (1.0, 0.5625, 1.596), (0.3, 0.9, 5.0)]:
        res = bounds.scalar_bound(bounds.BoundProblem(tau, a, b))
        d_bf, k_bf = brute_force_bound(a, b, tau)
        assert res.d_star == pytest.approx(d_bf, rel=1e-8)
        assert res.kappa_opt == pytest.approx(k_bf, rel=1e-3)
        assert res.provenance == "scalar-lemma"
        # closed form consistency
        assert res.kappa_opt == pytest.approx((res.p_star + 1.0) / tau, rel=1e-12)
        assert res.d_star == pytest.approx(
            tau * b * math.exp(res.p_star + 1.0) + 1.0, rel=1e-12
        )


def test_scalar_bound_vdot_shift():
    # vdot_sup enters as a + 2*vdot_sup
    plain = bounds.scalar_bound(bounds.BoundProblem(2.0, 1.0, 0.5))
    shifted = bounds.scalar_bound(bounds.BoundProblem(2.0, 0.6, 0.5, vdot_sup=0.2))
    assert shifted.d_star == pytest.approx(plain.d_star, rel=1e-12)
    assert shifted.p_star == pytest.approx(plain.p_star, rel=1e-12)


def test_scalar_bound_boundary_case():
    res = bounds.scalar_bound(bounds.BoundProblem(3.0, -0.5, 0.5))
    assert res.d_star == pytest.approx(0.5 * 3.0 + 1.0)
    assert res.provenance == "scalar-lemma-boundary"
    assert res.kappa_opt == 0.0
    # the boundary value is the kappa -> 0+ limit of the objective
    for k in (1e-3, 1e-5, 1e-7):
        val = (-0.5 + 0.5 * math.exp(k * 3.0)) / k + 1.0
        assert val >= res.d_star
        assert val == pytest.approx(res.d_star, abs=1e-2)


def test_scalar_bound_infeasible():
    with pytest.raises(InputError):
        bounds.scalar_bound(bounds.BoundProblem(1.0, -2.0, 0.5))
    # vdot_sup can push a feasible problem infeasible
    with pytest.raises(InputError):
        bounds.scalar_bound(bounds.BoundProblem(1.0, 0.0, 0.5, vdot_sup=-0.3))


def test_bound_problem_validation():
    with pytest.raises(InputError):
        bounds.BoundProblem(0.0, 1.0, 1.0)
    with pytest.raises(InputError):
        bounds.BoundProblem(1.0, 1.0, -1.0)
    with pytest.raises(InputError):
        bounds.BoundProblem(1.0, float("inf"), 1.0)
    with pytest.raises(InputError):
        bounds.BoundProblem(1.0, float("nan"), 1.0)


# ------------------------------------------------------------ scaled_bound


def scan_over_scale(prob, s):
    """Dense-scan oracle for scaled_bound: the least scalar estimate
    tau(s) b(s) e^{p+1} + 1, p = W_0(a(s)/(b(s) e)) by scipy, over the members
    a(s) = 1 + s (a' - 1), b(s) = s^2 b, tau(s) = tau/s of the rescaled family
    (a' = a + 2 vdot_sup) at the scales s; members with a(s) + b(s) < 0 are
    skipped."""
    from scipy.special import lambertw

    a = 1.0 + s * (prob.a + 2.0 * prob.vdot_sup - 1.0)
    b = s * s * prob.b
    ok = a + b >= 0.0
    p = np.maximum(lambertw(a[ok] / b[ok] / math.e).real, -1.0)
    return float((prob.tau / s[ok] * b[ok] * np.exp(p + 1.0) + 1.0).min())


def test_scaled_bound_never_worse_and_matches_scan():
    s = np.logspace(-2, 1, 20001)
    for prob in (
        bounds.BoundProblem(1.596, 3.0, 0.75**2),  # oscillator, alpha = 0.75, gamma = 1
        bounds.BoundProblem(22.0, 0.8, (0.2 * 2.025) ** 2),  # Mackey-Glass, classical
        bounds.BoundProblem(5.0, -0.5, 1.0),  # a' - 1 < 0, still interior
        bounds.BoundProblem(2.0, 0.2, 1.3, vdot_sup=0.15),
    ):
        plain = bounds.scalar_bound(prob)
        scaled = bounds.scaled_bound(prob)
        assert scaled.d_star <= plain.d_star + 1e-9
        assert scaled.provenance == "scalar-lemma-rescaled"
        assert scaled.d_star == pytest.approx(scan_over_scale(prob, s), rel=1e-7)
        # the fields describe the optimal member s*: its scalar estimate
        # has root p* and rate kappa*
        s_opt = scaled.scale_opt
        a1 = prob.a + 2.0 * prob.vdot_sup
        member = bounds.scalar_bound(
            bounds.BoundProblem(prob.tau / s_opt, 1.0 + s_opt * (a1 - 1.0), s_opt**2 * prob.b)
        )
        assert member.d_star == pytest.approx(scaled.d_star, rel=1e-12)
        assert member.p_star == pytest.approx(scaled.p_star, rel=1e-9, abs=1e-12)
        assert member.kappa_opt == pytest.approx(scaled.kappa_opt, rel=1e-9)


def test_scaled_bound_boundary_regime():
    # a' - 1 + 2 sqrt(b) = -5 + 4 < 0: the members with a(s) + b(s) =
    # 4 s^2 - 5 s + 1 >= 0 are s <= 1/4 and s >= 1, and the least estimate is
    # the boundary value s b tau + 1 = 2 at s = 1/4; a golden-section search
    # over s stopped at 2.00218
    prob = bounds.BoundProblem(1.0, -4.0, 4.0)
    res = bounds.scaled_bound(prob)
    assert res.d_star == pytest.approx(2.0, rel=1e-15)
    assert res.scale_opt == pytest.approx(0.25, rel=1e-15)
    assert (res.p_star, res.kappa_opt) == (-1.0, 0.0)
    assert res.provenance == "scalar-lemma-rescaled-boundary"
    # the scan only approaches the boundary value, like sqrt(1/4 - s)
    scan = scan_over_scale(prob, np.logspace(-4, 2, 20001))
    assert res.d_star <= scan <= res.d_star + 0.05
    scan = scan_over_scale(prob, 0.25 - np.logspace(-14, -1, 2001))
    assert res.d_star <= scan <= res.d_star + 1e-5


def test_scaled_bound_scale_and_slope_do_not_depend_on_tau():
    runs = [(tau, bounds.mackey_glass_scaled_bound(0.2, 0.1, 10.0, tau))
            for tau in (2.0, 22.0, 100.0, 1e4)]
    slope = (runs[0][1].d_star - 1.0) / runs[0][0]
    for tau, res in runs:
        assert (res.d_star - 1.0) / tau == pytest.approx(slope, rel=1e-13)
        assert res.scale_opt == runs[0][1].scale_opt
        assert res.p_star == runs[0][1].p_star


# ------------------------------------------------------------ alpha_plus


def test_alpha_plus_piecewise_formula():
    lam = [2.0, 1.0, -0.5, -3.0]
    k0 = 1.0  # K = 3 entries >= -1
    for m in range(1, 7):
        K = 3
        head = sum(lam[: min(m, K)])
        want = 0.5 * head - 0.5 * k0 * max(0, m - K)
        assert bounds.alpha_plus(m, lam, k0) == pytest.approx(want)
    # vdot enters additively
    assert bounds.alpha_plus(2, lam, k0, vdot_sup=0.7) == pytest.approx(
        bounds.alpha_plus(2, lam, k0) + 0.7
    )


def test_alpha_plus_concavity_in_m():
    lam = [1.5, 0.3, -0.2, -1.1, -4.0]
    vals = [bounds.alpha_plus(m, lam, 0.8) for m in range(1, 9)]
    diffs = np.diff(vals)
    assert np.all(np.diff(diffs) <= 1e-12)  # increments nonincreasing


def test_alpha_plus_validation():
    with pytest.raises(InputError):
        bounds.alpha_plus(0, [1.0], 1.0)
    with pytest.raises(InputError):
        bounds.alpha_plus(1, [], 1.0)
    with pytest.raises(InputError):
        bounds.alpha_plus(1, [0.0, 1.0], 1.0)  # not sorted nonincreasing


# ---------------------------------------------- model-specific assemblies


def test_mackey_glass_lambda_rough():
    assert bounds.mackey_glass_lambda(2.0, 1.0, 10.0) == pytest.approx(
        max(1.0, 81.0 / 40.0)
    )
    assert bounds.mackey_glass_lambda(2.0, 1.0, 2.0) == pytest.approx(1.0)
    with pytest.raises(InputError):
        bounds.mackey_glass_lambda(2.0, 1.0, 10.0, mode="weird")


def test_mackey_glass_lambda_tight_le_rough():
    # beta/gamma = 2 reaches the dip of F' for every k; 1.2 at k = 20 ends
    # inside it (tight 4.29087, rough 4.5125), and 1.3 at k = 8 ends where
    # |F'| < 1
    for beta, k in ((2.0, 4.0), (2.0, 7.0), (2.0, 10.0), (1.2, 20.0), (1.3, 8.0)):
        tight = bounds.mackey_glass_lambda(beta, 1.0, k, mode="tight")
        rough = bounds.mackey_glass_lambda(beta, 1.0, k, mode="rough")
        assert tight <= rough + 1e-12
        # oracle: dense max of |F'| over the ball
        r0 = bounds.mackey_glass_ball_radius(beta, 1.0, k)
        ys = np.linspace(0.0, r0, 2000001)
        yk = ys**k
        grid = float(np.abs((1.0 + (1.0 - k) * yk) / (1.0 + yk) ** 2).max())
        assert tight == pytest.approx(grid, rel=1e-9)
    assert bounds.mackey_glass_lambda(1.2, 1.0, 20.0, mode="tight") == pytest.approx(
        4.29087, abs=5e-6)


def _numpy_mg_fprime(y, k):
    # F' as numpy evaluated it before it moved into bounds
    yk = np.abs(y) ** k
    return (1.0 + (1.0 - k) * yk) / (1.0 + yk) ** 2


def test_mg_fprime_keeps_its_bits():
    # one abs(y) ** k definition serves arrays (np.absolute, numpy's **) and
    # floats (Python's **) with the bits of the numpy formula
    rng = np.random.default_rng(25)
    y, k = rng.uniform(-5.0, 5.0, 20000), rng.uniform(1.0, 40.0, 20000)
    assert np.array_equal(bounds._mg_fprime(y, k), _numpy_mg_fprime(y, k))
    for yi, ki in zip(y[:2000].tolist(), k[:2000].tolist()):
        got = bounds._mg_fprime(yi, ki)
        assert type(got) is float and got == _numpy_mg_fprime(yi, ki)


def test_mackey_glass_lambda_tight_keeps_its_bits():
    # the grid ends the ball before the dip of F' 114 times, where tight is
    # max(1, -F'(R0)), and reaches it 336 times, where tight is rough
    inside = 0
    for beta, gamma, k in itertools.product(
        np.linspace(0.11, 0.6, 15).tolist(), (0.1, 0.2, 0.5), np.linspace(1.5, 30.0, 15).tolist()
    ):
        if beta <= gamma:
            continue
        r0 = bounds.mackey_glass_ball_radius(beta, gamma, k)
        tight = bounds.mackey_glass_lambda(beta, gamma, k, "tight")
        if r0 < ((k + 1.0) / (k - 1.0)) ** (1.0 / k):
            inside += 1
            assert tight == max(1.0, -float(_numpy_mg_fprime(r0, k)))
        else:
            assert tight == bounds.mackey_glass_lambda(beta, gamma, k, "rough")
    assert inside == 114


def test_mackey_glass_ball_radius():
    # closed form (beta/gamma) (k-1)^{(k-1)/k} / k at the classical parameters
    r0 = bounds.mackey_glass_ball_radius(2.0, 1.0, 10.0)
    assert r0 == pytest.approx(2.0 * 9.0**0.9 / 10.0, rel=1e-14)
    # oracle: largest fixed point of the ball-invariance condition is where
    # gamma * R = beta * max_y y/(1+y^k) evaluated at the max point y*=...
    with pytest.raises(InputError):
        bounds.mackey_glass_ball_radius(2.0, 1.0, 1.0)
    with pytest.raises(InputError):
        bounds.mackey_glass_ball_radius(-2.0, 1.0, 10.0)


def test_mackey_glass_bound_classical_slope():
    # frozen: at beta=0.2, gamma=0.1, k=10, the coefficient of tau is
    # b e^{p*+1} with b=(0.2*2.025)^2 and p* the root for c=0.8/b
    b = (0.2 * 2.025) ** 2
    p = bounds.lambert_root(0.8 / b)
    coeff = b * math.exp(p + 1.0)
    assert coeff == pytest.approx(0.9957, abs=5e-4)
    for tau in (2.0, 17.0, 22.0, 100.0):
        res = bounds.mackey_glass_bound(0.2, 0.1, 10.0, tau)
        assert res.d_star == pytest.approx(coeff * tau + 1.0, rel=1e-12)
        assert res.d_star <= 0.9958 * tau + 1.0


def test_mackey_glass_bound_trivial_attractor():
    res = bounds.mackey_glass_bound(0.1, 0.2, 10.0, 5.0)
    assert res.d_star == 0.0
    assert res.provenance == "origin-global-attractor"
    with pytest.raises(InputError):
        bounds.mackey_glass_bound(-1.0, 0.1, 10.0, 5.0)


def test_mackey_glass_scaled_bound_frozen():
    res = bounds.mackey_glass_scaled_bound(0.2, 0.1, 10.0, 22.0)
    assert res.scale_opt == pytest.approx(1.00431, abs=1e-3)
    plain = bounds.mackey_glass_bound(0.2, 0.1, 10.0, 22.0)
    assert res.d_star <= plain.d_star + 1e-9


def test_suarez_schopf_bound_frozen():
    res = bounds.suarez_schopf_bound(0.75, 1.0, 1.596)
    # p* solves p e^{p+1} = (1 + 2)/0.5625
    assert res.p_star == pytest.approx(0.843807, abs=1e-5)
    assert res.p_star == pytest.approx(lambert_oracle(3.0 / 0.5625), rel=1e-12)
    assert res.d_star == pytest.approx(6.675, abs=5e-3)
    with pytest.raises(InputError):
        bounds.suarez_schopf_bound(0.0, 1.0, 1.596)


def test_suarez_schopf_scaled_bound_frozen():
    res = bounds.suarez_schopf_scaled_bound(0.75, 1.0, 1.596)
    assert res.scale_opt == pytest.approx(0.346771, abs=1e-4)
    # frozen: s* e^{p*(s*)+1} at the optimal scale
    assert res.scale_opt * math.exp(res.p_star + 1.0) == pytest.approx(5.1267, abs=1e-3)
    assert res.d_star == pytest.approx(5.603, abs=5e-3)
    assert res.d_star < bounds.suarez_schopf_bound(0.75, 1.0, 1.596).d_star


def test_bound_speed():
    import time

    t0 = time.perf_counter()
    bounds.mackey_glass_bound(0.2, 0.1, 10.0, 22.0)
    bounds.suarez_schopf_bound(0.75, 1.0, 1.596)
    dt = time.perf_counter() - t0
    assert dt < 0.01
