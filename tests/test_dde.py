"""Delay integration, monodromy matrices, finite-time spectra, ball checks.

Oracles: closed-form method-of-steps solutions (polynomial per segment, which
RK4 with node-aligned breakpoints reproduces exactly), characteristic roots
through e^{p tau}, and pure-decay exponentials."""

import math

import numpy as np
import pytest

from lyapdim import charroots as cr
from lyapdim import cocycle, dde
from lyapdim.errors import InputError, NumericalFailure


def eig_sorted(M_or_vals):
    vals = np.asarray(M_or_vals)
    if vals.ndim == 2:
        vals = np.linalg.eigvals(vals)
    return vals[np.lexsort((-np.angle(vals), -np.abs(vals)))]


# ------------------------------------------------------------ models


def test_equilibria():
    assert dde.mackey_glass_equilibria(0.2, 0.1, 10.0) == (0.0, 1.0, -1.0)
    assert dde.mackey_glass_equilibria(0.1, 0.2, 10.0) == (0.0,)
    zero, plus, minus = dde.suarez_schopf_equilibria(0.75)
    assert zero == 0.0
    assert plus == pytest.approx(0.5)
    assert minus == pytest.approx(-0.5)
    assert dde.suarez_schopf_equilibria(1.5) == (0.0,)


def jacobian_consistency(model: dde.DelayModel, samples: int = 20, seed: int = 0) -> float:
    """Max relative gap between a model's Jacobians and central differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    eps = 1e-6
    for _ in range(samples):
        t = float(rng.uniform(0.0, 10.0))
        x = rng.uniform(-1.5, 1.5, model.n)
        xd = rng.uniform(-1.5, 1.5, model.n)
        J0, Jd = model.jac(t, x, xd)
        J0 = np.asarray(J0, dtype=float).reshape(model.n, model.n)
        Jd = np.asarray(Jd, dtype=float).reshape(model.n, model.n)
        for j in range(model.n):
            e = np.zeros(model.n)
            e[j] = eps
            d = model.delayed(xd)
            col0 = (model.rhs(t, x + e, d) - model.rhs(t, x - e, d)) / (2 * eps)
            cold = (model.rhs(t, x, model.delayed(xd + e)) - model.rhs(t, x, model.delayed(xd - e))) / (2 * eps)
            scale = max(1.0, float(np.abs(J0).max()), float(np.abs(Jd).max()))
            worst = max(
                worst,
                float(np.abs(col0 - J0[:, j]).max()) / scale,
                float(np.abs(cold - Jd[:, j]).max()) / scale,
            )
    return worst


def test_jacobian_consistency():
    for model in (
        dde.linear_scalar(0.3, -0.8, 1.0),
        dde.mackey_glass(0.2, 0.1, 10.0, 2.0),
        dde.suarez_schopf(0.75, 1.596, forcing=0.2),
    ):
        assert jacobian_consistency(model) < 1e-5


# ------------------------------------------------------------ histories


def test_history_segment_construction_and_eval():
    h = dde.HistorySegment.from_function(
        lambda t: math.cos(t), 1.0, dfn=lambda t: -math.sin(t)
    )
    assert h.n == 1
    assert h.intervals == 256
    for th in (-1.0, -0.77, -0.25, 0.0):
        assert h.eval(th)[0] == pytest.approx(math.cos(th), abs=1e-10)
        assert h.eval_deriv(th)[0] == pytest.approx(-math.sin(th), abs=1e-7)
    r = h.resampled(64)
    assert r.intervals == 64
    assert r.eval(-0.4)[0] == pytest.approx(math.cos(-0.4), abs=1e-8)
    assert h.resampled(256) is h
    c = dde.HistorySegment.constant([2.0, -1.0], 3.0)
    assert np.allclose(c.eval(-1.7), [2.0, -1.0])
    assert np.allclose(c.eval_deriv(-1.7), 0.0)
    with pytest.raises(InputError):
        dde.HistorySegment(1.0, np.ones((3, 1)), np.ones((4, 1)))
    with pytest.raises(InputError):
        dde.HistorySegment(1.0, np.ones((1, 2)), np.ones((1, 2)))


# ------------------------------------------------------------ integrate


def reference_integrate_batch(model, vals0, ders0, steps, dt):
    """The stepping loop with every stage on (B, n) arrays and the delayed
    term taken at each stage, the reference dde._integrate_batch must match."""
    m = vals0.shape[0] - 1
    B, n = vals0.shape[1], vals0.shape[2]
    K = m + steps + 1
    vals = np.empty((K, B, n))
    ders = np.empty((K, B, n))
    vals[: m + 1] = vals0
    ders[: m + 1] = ders0
    hist_end = ders0[m].copy()

    def f(t, x, xd):
        return model.rhs(t, x, model.delayed(xd))

    def mid(idx):
        d1 = hist_end if idx + 1 == m else ders[idx + 1]
        return 0.5 * (vals[idx] + vals[idx + 1]) + 0.125 * dt * (ders[idx] - d1)

    for i in range(steps):
        node = m + i
        t = i * dt
        v = vals[node]
        k1 = f(t, v, vals[node - m])
        ders[node] = k1
        xmid = mid(node - m)
        k2 = f(t + 0.5 * dt, v + 0.5 * dt * k1, xmid)
        k3 = f(t + 0.5 * dt, v + 0.5 * dt * k2, xmid)
        k4 = f(t + dt, v + dt * k3, vals[node - m + 1])
        vals[node + 1] = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(vals[node + 1])):
            raise NumericalFailure(f"nonfinite state at t = {t + dt:.6g}", t=t + dt)
    ders[K - 1] = f(steps * dt, vals[K - 1], vals[K - 1 - m])
    return vals, ders, hist_end


def reference_integrate(model, h0, T, dt):
    m = round(model.tau / dt)
    h = h0.resampled(m)
    vals, ders, hist_end = reference_integrate_batch(
        model, h.values[:, None, :], h.derivs[:, None, :], round(T / dt), dt
    )
    return vals[:, 0], ders[:, 0], hist_end[0]


def reference_trig_eval(coef, theta, tau, deriv=False):
    """dde._trig_eval one component and one harmonic at a time."""
    out = np.zeros((theta.size, coef.shape[0]))
    for c in range(coef.shape[0]):
        out[:, c] = 0.0 if deriv else coef[c, 0, 0]
        for k in range(1, 4):
            w = k * math.pi / tau
            a, b = coef[c, k, 0], coef[c, k, 1]
            if deriv:
                out[:, c] += -a * w * np.sin(w * theta) + b * w * np.cos(w * theta)
            else:
                out[:, c] += a * np.cos(w * theta) + b * np.sin(w * theta)
    return out


def trig_history(tau, seed, offset=0.0, scale=1.0):
    coef = np.random.default_rng(seed).normal(size=(1, 4, 2))
    theta = np.linspace(-tau, 0.0, 129)
    vals = offset + scale * reference_trig_eval(coef, theta, tau)
    return dde.HistorySegment(tau, vals, scale * reference_trig_eval(coef, theta, tau, deriv=True))


@pytest.mark.parametrize("n, tau, M", [(1, 22.0, 128), (1, 1.596, 512), (3, 2.0, 64)])
def test_trig_eval_equals_the_reference_loop_bit_for_bit(n, tau, M):
    coef = np.random.default_rng(n).normal(size=(n, 4, 2))
    theta = np.linspace(-tau, 0.0, M + 1)
    for deriv in (False, True):
        got = dde._trig_eval(coef, theta, tau, deriv=deriv)
        assert np.array_equal(got, reference_trig_eval(coef, theta, tau, deriv=deriv))


@pytest.mark.parametrize(
    "model, h0, T, dt",
    [
        (dde.mackey_glass(0.2, 0.1, 10.0, 22.0), dde.HistorySegment.constant(0.5, 22.0), 726.0, 22.0 / 128),
        (dde.mackey_glass(0.2, 0.1, 10.0, 22.0), trig_history(22.0, 3, 0.6, 0.3), 726.0, 22.0 / 128),
        # exactly the interval that ends on the history breakpoint
        (dde.linear_scalar(0.3, -1.0, 1.0), trig_history(1.0, 5), 1.0, 1.0 / 32),
        # inside it, and a partial last interval after two full ones
        (dde.linear_scalar(0.3, -1.0, 1.0), trig_history(1.0, 5), 0.5, 1.0 / 32),
        (dde.linear_scalar(0.3, -1.0, 1.0), trig_history(1.0, 5), 2.0 + 5.0 / 32, 1.0 / 32),
    ],
    ids=["mackey_glass-constant", "mackey_glass-random", "linear-breakpoint", "linear-first-partial",
         "linear-last-partial"],
)
def test_integrate_equals_the_reference_loop_bit_for_bit(model, h0, T, dt):
    traj = dde.integrate(model, h0, T, dt)
    vals, ders, hist_end = reference_integrate(model, h0, T, dt)
    assert np.array_equal(traj.values, vals)
    assert np.array_equal(traj.derivs, ders)
    assert np.array_equal(traj.hist_end_deriv, hist_end)


def test_integrate_suarez_schopf_forced_near_the_reference_loop():
    # floats round x**3 differently from numpy arrays, so the last bits may move
    model = dde.suarez_schopf(0.75, 1.596, forcing=0.2)
    h0 = trig_history(1.596, 7, 0.1, 0.3)
    T, dt = 50 * 1.596, 1.596 / 128
    traj = dde.integrate(model, h0, T, dt)
    for got, want in zip((traj.values, traj.derivs, traj.hist_end_deriv), reference_integrate(model, h0, T, dt)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_invariant_ball_batch_equals_the_reference_loop(monkeypatch):
    runs = []
    batch = dde._integrate_batch

    def recorded(*args):
        out = batch(*args)
        runs.append((args, out))
        return out

    monkeypatch.setattr(dde, "_integrate_batch", recorded)
    mg = dde.mackey_glass(0.2, 0.1, 10.0, 22.0)
    rep = dde.invariant_ball_check(mg, 2.0 * 9.0**0.9 / 10.0, 100, 5 * 22.0, seed=0)
    ((args, out),) = runs
    assert rep.passed and args[1].shape == (65, 100, 1)
    for got, want in zip(out, reference_integrate_batch(*args)):
        assert np.array_equal(got, want)


def test_integrate_pure_decay():
    model = dde.linear_scalar(-1.0, 0.0, 1.0)
    traj = dde.integrate(model, dde.HistorySegment.constant(1.0, 1.0), 3.0, 1e-2)
    assert traj.value(3.0)[0] == pytest.approx(math.exp(-3.0), abs=1e-9)
    assert traj.value(1.234)[0] == pytest.approx(math.exp(-1.234), abs=1e-9)


def test_integrate_method_of_steps_closed_form():
    # x' = -x(t-1), x = 1 on [-1, 0]: polynomial of degree j on [j-1, j]
    model = dde.linear_scalar(0.0, -1.0, 1.0)
    traj = dde.integrate(model, dde.HistorySegment.constant(1.0, 1.0), 3.0, 1.0 / 64)

    def exact(t):
        if t <= 1.0:
            return 1.0 - t
        if t <= 2.0:
            return 1.0 - t + (t - 1.0) ** 2 / 2.0
        return 1.0 - t + (t - 1.0) ** 2 / 2.0 - (t - 2.0) ** 3 / 6.0

    for t in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 0.7109375):
        assert traj.value(t)[0] == pytest.approx(exact(t), abs=1e-12)


def test_integrate_fourth_order_convergence():
    model = dde.linear_scalar(0.3, -1.0, 1.0)
    h0 = dde.HistorySegment.from_function(
        lambda t: math.cos(t), 1.0, dfn=lambda t: -math.sin(t)
    )
    ref = dde.integrate(model, h0, 3.0, 1.0 / 512).value(3.0)[0]
    errs = [
        abs(dde.integrate(model, h0, 3.0, 1.0 / k).value(3.0)[0] - ref)
        for k in (16, 32, 64)
    ]
    assert errs[-1] <= 1e-10
    for a, b in zip(errs, errs[1:]):
        assert math.log2(a / b) >= 3.8


def test_integrate_error_estimate_field():
    model = dde.linear_scalar(0.0, -1.0, 1.0)
    traj = dde.integrate(
        model, dde.HistorySegment.constant(1.0, 1.0), 2.0, 1.0 / 32, error_estimate=True
    )
    assert traj.step_halving_error is not None
    assert traj.step_halving_error <= 1e-10


def test_integrate_equilibrium_is_fixed():
    mg = dde.mackey_glass(0.2, 0.1, 10.0, 2.0)
    xbar = dde.mackey_glass_equilibria(0.2, 0.1, 10.0)[1]
    traj = dde.integrate(mg, dde.HistorySegment.constant(xbar, 2.0), 10.0, 2.0 / 32)
    assert np.abs(traj.values - xbar).max() <= 1e-12


def test_integrate_validation():
    model = dde.linear_scalar(0.0, -1.0, 1.0)
    h0 = dde.HistorySegment.constant(1.0, 1.0)
    with pytest.raises(InputError):
        dde.integrate(model, h0, 2.0, 0.3)  # dt does not divide tau
    with pytest.raises(InputError):
        dde.integrate(model, h0, 2.0, 0.25)  # fewer than 10 substeps per tau
    with pytest.raises(InputError):
        dde.integrate(model, h0, 2.05, 1.0 / 16)  # dt does not divide T


def test_trajectory_segment_at():
    model = dde.linear_scalar(0.0, -1.0, 1.0)
    traj = dde.integrate(model, dde.HistorySegment.constant(1.0, 1.0), 3.0, 1.0 / 16)
    seg = dde.Trajectory.segment_at(traj, 2.0)
    assert seg.tau == 1.0
    assert seg.intervals == 16
    assert seg.values[-1, 0] == pytest.approx(traj.value(2.0)[0], abs=1e-14)
    assert seg.values[0, 0] == pytest.approx(traj.value(1.0)[0], abs=1e-14)
    with pytest.raises(InputError):
        traj.segment_at(2.01)  # not a node
    with pytest.raises(InputError):
        traj.segment_at(-0.5)  # no full history behind it
    with pytest.raises(InputError):
        traj.segment_at(3.5)  # beyond the end


def test_lookups_reject_times_outside_the_stored_range():
    # extrapolating the last Hermite interval to t=24 gives 0.9538 where the
    # trajectory integrated to T=44 reads 0.9709, so lookups outside the
    # stored range must refuse rather than answer
    mg = dde.mackey_glass(0.2, 0.1, 10.0, 22.0)
    hist = dde.HistorySegment.constant(0.5, 22.0)
    traj = dde.integrate(mg, hist, 22.0, 22.0 / 128)
    assert np.isfinite(traj.value(-22.0)).all() and np.isfinite(traj.value(22.0)).all()
    for t in (24.0, -22.5):
        with pytest.raises(InputError):
            traj.value(t)
    assert hist.eval(-22.0)[0] == 0.5 and hist.eval_deriv(0.0)[0] == 0.0
    for theta in (5.0, -22.5):
        with pytest.raises(InputError):
            hist.eval(theta)
        with pytest.raises(InputError):
            hist.eval_deriv(theta)


def test_array_lookups_equal_scalar_lookups_bit_for_bit():
    mg = dde.mackey_glass(0.2, 0.1, 10.0, 22.0)
    rng = np.random.default_rng(4)
    hist = dde.HistorySegment.from_function(lambda t: 0.5 + 0.2 * math.sin(t), 22.0, M=40)
    traj = dde.integrate(mg, hist, 44.0, 22.0 / 128)
    # random times plus every node, the history breakpoint and both range ends
    ts = np.concatenate([rng.uniform(-22.0, 44.0, 200), traj.t_start + traj.dt * np.arange(385)])
    got = traj.value(ts.reshape(5, -1))
    assert got.shape == (5, ts.size // 5, 1)
    assert np.array_equal(got.reshape(-1, 1), np.array([traj.value(t) for t in ts]))
    thetas = np.concatenate([rng.uniform(-22.0, 0.0, 100), np.linspace(-22.0, 0.0, 41)])
    for fn in (hist.eval, hist.eval_deriv):
        assert np.array_equal(fn(thetas), np.array([fn(th) for th in thetas]))
    assert traj.value(3.0).shape == hist.eval(-3.0).shape == (1,)
    # the last history interval ends on the history's own derivative (0 for a
    # constant), not on the solution's right derivative at t = 0 (here -1)
    lin = dde.integrate(
        dde.linear_scalar(0.0, -1.0, 1.0), dde.HistorySegment.constant(1.0, 1.0), 2.0, 1.0 / 16
    )
    assert np.array_equal(lin.value(np.array([-1.5, -0.5, -0.25]) / 16), np.ones((3, 1)))
    # one element out of range rejects the whole batch
    with pytest.raises(InputError):
        traj.value(np.array([0.0, 10.0, 44.5]))
    for fn in (hist.eval, hist.eval_deriv):
        with pytest.raises(InputError):
            fn(np.array([-1.0, 0.5]))


@pytest.mark.parametrize(
    "offset, scale", [(0.1, 0.05), (0.0, 0.3), (0.0, None)], ids=["spectrum", "cli", "ball"]
)
def test_trig_history_is_the_reference_recipe(offset, scale):
    tau, seed = 22.0, 3
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(1, 4, 2))
    if scale is None:  # the ball's: a sup norm drawn from (0.3 R, 0.999 R), here R = 1
        sup = np.abs(dde._trig_eval(coef, np.linspace(-tau, 0.0, 8 * 128 + 1), tau)).max()
        scale = rng.uniform(0.3, 0.999) / sup
    got = dde._trig_history(coef, tau, offset=offset, scale=scale)
    want = trig_history(tau, seed, offset, scale)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.derivs, want.derivs)


def test_nonfinite_and_nonpositive_steps_are_input_errors():
    model = dde.linear_scalar(-1.0, 0.5, 1.0)
    h0 = dde.HistorySegment.constant(1.0, 1.0)
    for T, dt in ((math.nan, 1.0 / 16), (math.inf, 1.0 / 16), (1.0, math.nan), (1.0, 0.0), (1.0, 1e-320)):
        with pytest.raises(InputError):
            dde.integrate(model, h0, T, dt)
    for tau in (math.nan, math.inf, 0.0):
        with pytest.raises(InputError, match="^tau "):
            dde.numerical_lyapunov_spectrum(dde.linear_scalar(-1.0, 0.5, tau), 5.0, 8.0, m=1, N=8)
    for burn_in, horizon in ((math.inf, 8.0), (5.0, math.nan)):
        with pytest.raises(InputError):
            dde.numerical_lyapunov_spectrum(model, burn_in, horizon, m=1, N=8)


# ------------------------------------------------------- invariant ball


def test_invariant_ball_mackey_glass():
    mg = dde.mackey_glass(0.2, 0.1, 10.0, 2.0)
    r0 = 2.0 * 9.0**0.9 / 10.0
    rep = dde.invariant_ball_check(mg, r0, sample_count=20, T=20.0, seed=1)
    assert rep.passed
    assert rep.max_norm <= r0
    assert rep.witness_sample is None


def test_invariant_ball_detects_escape():
    grow = dde.linear_scalar(1.0, 0.0, 1.0)
    rep = dde.invariant_ball_check(grow, 1.0, sample_count=5, T=5.0, seed=0)
    assert not rep.passed
    assert rep.max_norm > 1.0
    assert rep.witness_sample is not None
    assert rep.witness_time is not None and rep.witness_time >= 0.0


def test_invariant_ball_blowup_time_is_the_failing_step():
    model = dde.linear_scalar(5.0, 0.0, 1.0)
    hist = dde.HistorySegment.constant(1.0, 1.0)
    dt = 1.0 / 64
    with np.errstate(over="ignore", invalid="ignore"):
        rep = dde.invariant_ball_check(model, 10.0, 0, 200.0, histories=[hist])
        steps = round(rep.witness_time / dt)
        assert np.isfinite(dde.integrate(model, hist, (steps - 1) * dt, dt).values).all()
        with pytest.raises(NumericalFailure) as exc:
            dde.integrate(model, hist, steps * dt, dt)
    assert not rep.passed and rep.max_norm == math.inf
    assert rep.witness_time == exc.value.t == steps * dt


def test_invariant_ball_blowup_on_floats_is_the_failing_step():
    # a scalar equation steps on floats, where x**3 past the double range
    # raises OverflowError instead of giving inf
    model = dde.suarez_schopf(0.75, 2.0)
    hist = dde.HistorySegment.constant(20.0, 2.0)
    dt = 2.0 / 16
    rep = dde.invariant_ball_check(model, 100.0, 0, 20.0, dt=dt, histories=[hist])
    steps = round(rep.witness_time / dt)
    assert np.isfinite(dde.integrate(model, hist, (steps - 1) * dt, dt).values).all()
    with pytest.raises(NumericalFailure) as exc:
        dde.integrate(model, hist, steps * dt, dt)
    assert not rep.passed and rep.max_norm == math.inf
    assert rep.witness_time == exc.value.t == steps * dt


def test_nonfinite_end_derivative_fails_loudly():
    # the state at t = 1/8 is finite (4.6e103), its cube is not
    model = dde.suarez_schopf(0.75, 1.0)
    hist = dde.HistorySegment.constant(6.893601091731659, 1.0)
    assert np.isfinite(dde.integrate(model, hist, 1.0 / 16, 1.0 / 16).derivs).all()
    with pytest.raises(NumericalFailure) as exc:
        dde.integrate(model, hist, 2.0 / 16, 1.0 / 16)
    assert exc.value.t == 2.0 / 16


def test_invariant_ball_explicit_histories():
    mg = dde.mackey_glass(0.2, 0.1, 10.0, 2.0)
    r0 = 2.0 * 9.0**0.9 / 10.0
    hists = [dde.HistorySegment.constant(0.9 * r0, 2.0), dde.HistorySegment.constant(-0.5 * r0, 2.0)]
    rep = dde.invariant_ball_check(mg, r0, sample_count=0, T=10.0, histories=hists)
    assert rep.passed
    with pytest.raises(InputError):
        dde.invariant_ball_check(mg, 0.0, sample_count=1, T=1.0)


@pytest.mark.parametrize(
    "T, sample_count",
    [(0.3, 20), (0.0, 20), (-1.0, 20), (math.nan, 20), (20.0, 0)],
    ids=["partial-step", "zero-T", "negative-T", "nan-T", "no-samples"],
)
def test_invariant_ball_rejects_bad_input(T, sample_count):
    # T = 0.3 is not a whole number of steps 1/32: it would run 0.3125
    mg = dde.mackey_glass(0.2, 0.1, 10.0, 2.0)
    with pytest.raises(InputError):
        dde.invariant_ball_check(mg, 2.0 * 9.0**0.9 / 10.0, sample_count, T, dt=1.0 / 32)


def test_invariant_ball_random_path_is_its_explicit_path(monkeypatch):
    runs = []
    batch = dde._integrate_batch

    def recorded(*args):
        out = batch(*args)
        runs.append((args, out))
        return out

    monkeypatch.setattr(dde, "_integrate_batch", recorded)
    mg = dde.mackey_glass(0.2, 0.1, 10.0, 2.0)
    R, tau, m = 2.0 * 9.0**0.9 / 10.0, 2.0, 64
    rng = np.random.default_rng(5)
    hists = []
    for _ in range(6):
        coef = rng.normal(size=(1, 4, 2))
        target = R * rng.uniform(0.3, 0.999)
        sup = np.abs(dde._trig_eval(coef, np.linspace(-tau, 0.0, 8 * m + 1), tau)).max()
        hists.append(dde._trig_history(coef, tau, m, scale=target / sup))
    drawn = dde.invariant_ball_check(mg, R, 6, 20.0, seed=5)
    given = dde.invariant_ball_check(mg, R, 0, 20.0, histories=hists)
    assert drawn == given
    (drawn_args, drawn_out), (given_args, given_out) = runs
    for got, want in zip((*drawn_args[1:3], *drawn_out), (*given_args[1:3], *given_out)):
        assert np.array_equal(got, want)


# ------------------------------------------------------- monodromy


def test_monodromy_eigenvalues_linear_model():
    model = dde.linear_scalar(-1.0, 0.5, 1.0)
    traj = dde.integrate(model, dde.HistorySegment.constant(1.0, 1.0), 4.0, 1.0 / 64)
    M = dde.linearized_monodromy(model, traj, 1.0, N=48)
    got = eig_sorted(M)[:3]
    roots = cr.char_roots(cr.CharProblem(-1.0, 0.5, 1.0), 6)
    want = eig_sorted(np.exp(roots.roots[:3]))
    assert np.all(np.abs(got - want) <= 1e-5 * np.abs(want))


def test_monodromy_eigenvalues_mackey_glass_equilibrium():
    beta, gamma, k, tau = 0.2, 0.1, 10.0, 2.0
    mg = dde.mackey_glass(beta, gamma, k, tau)
    xbar = dde.mackey_glass_equilibria(beta, gamma, k)[1]
    traj = dde.integrate(mg, dde.HistorySegment.constant(xbar, tau), 8.0, tau / 32)
    M = dde.linearized_monodromy(mg, traj, tau, N=48)
    got = eig_sorted(M)[:2]
    y = beta / gamma - 1.0
    fp = (1.0 + (1.0 - k) * y) / (1.0 + y) ** 2
    roots = cr.char_roots(cr.CharProblem(-gamma, beta * fp, tau), 4)
    want = eig_sorted(np.exp(roots.roots[:2] * tau))
    assert np.all(np.abs(got - want) <= 1e-7 * np.abs(want))


@pytest.mark.parametrize(
    "model, xbar, a, b",
    [
        # x^10 = beta/gamma - 1 = 1: a = -gamma, b = beta F'(1) = 0.2 (1 - 9)/4
        (dde.mackey_glass(0.2, 0.1, 10.0, 22.0), 1.0, -0.1, -0.4),
        # x^2 = gamma - alpha: a = gamma - 3 x^2, b = -alpha
        (dde.suarez_schopf(0.75, 22.0), 0.5, 0.25, -0.75),
    ],
    ids=["mackey_glass-plus", "suarez_schopf-plus"],
)
def test_equilibrium_volume_rates_converge_to_char_roots(model, xbar, a, b):
    # at an equilibrium the linearized cocycle is constant, so the m-volume
    # rates of one window's monodromy (evp_finite_base) are partial sums of
    # the characteristic roots' real parts, to fourth order in tau/N, and
    # their Kaplan-Yorke value is the local dimension (6.87 and 17.41 here)
    tau = model.tau
    roots = cr.char_roots(cr.CharProblem(a, b, tau), 24)
    want = np.cumsum(roots.real_parts()[:16])
    local_dim = cr.local_dimension(roots)
    errs, ky_errs = [], []
    for N in (32, 64, 128):
        traj = dde.integrate(model, dde.HistorySegment.constant(xbar, tau), tau, tau / N)
        M = dde.linearized_monodromy(model, traj, 0.0, N)
        coc = cocycle.MatrixCocycle(("plus",), lambda q: q, lambda q: M, M.shape[0], tau)
        sums = np.array([cocycle.evp_finite_base(coc, m).max_rate for m in range(1, 21)])
        errs.append(np.abs(sums[:16] - want).max())
        ky_errs.append(abs(cocycle.kaplan_yorke(np.diff(sums, prepend=0.0), 20) - local_dim))
    # measured: the errors shrink about 15 times per doubling of N
    assert errs[0] >= 10.0 * errs[1] >= 100.0 * errs[2]
    assert ky_errs[0] >= 10.0 * ky_errs[1] >= 100.0 * ky_errs[2]
    assert ky_errs[2] <= 1e-4 * local_dim


def test_monodromy_composition_exact():
    model = dde.linear_scalar(-1.0, 0.5, 1.0)
    traj = dde.integrate(model, dde.HistorySegment.constant(1.0, 1.0), 5.0, 1.0 / 32)
    M2 = dde.linearized_monodromy(model, traj, 1.0, 24, span=2)
    Ma = dde.linearized_monodromy(model, traj, 1.0, 24)
    Mb = dde.linearized_monodromy(model, traj, 2.0, 24)
    rel = np.linalg.norm(M2 - Mb @ Ma) / np.linalg.norm(M2)
    assert rel <= 1e-12


def test_monodromy_coverage_guard():
    model = dde.linear_scalar(-1.0, 0.5, 1.0)
    traj = dde.integrate(model, dde.HistorySegment.constant(1.0, 1.0), 3.0, 1.0 / 16)
    with pytest.raises(InputError):
        dde.linearized_monodromy(model, traj, -0.5, 16)
    with pytest.raises(InputError):
        dde.linearized_monodromy(model, traj, 2.5, 16)  # needs up to 3.5


def test_mid_weights_reproduce_cubics_at_the_midpoint():
    rng = np.random.default_rng(11)
    for row, w in enumerate(dde._MID_WEIGHTS):
        # stencil nodes 0..3 with the midpoint of interval `row`; integer
        # coefficients keep every value, weight product and sum exact
        coef = rng.integers(-50, 51, size=4).astype(float)
        nodes = np.polyval(coef, np.arange(4.0))
        assert float(w @ nodes) == np.polyval(coef, row + 0.5)


def test_monodromy_calls_jac_once():
    model = dde.mackey_glass(0.2, 0.1, 10.0, 2.0)
    traj = dde.integrate(model, dde.HistorySegment.constant(0.7, 2.0), 8.0, 2.0 / 32)
    calls = []
    jac = model.jac

    def counting_jac(t, x, xd):
        calls.append(np.shape(t))
        return jac(t, x, xd)

    model.jac = counting_jac
    M1 = dde.linearized_monodromy(model, traj, 2.0, 16)
    M2 = dde.linearized_monodromy(model, traj, 2.0, 16, span=3)
    # every stage time of a window comes in one batch: 3 stages x span * N steps
    assert calls == [(3, 16), (3, 48)]
    assert M1.shape == M2.shape == (17, 17)


def test_monodromy_needs_three_history_intervals():
    # the midpoint stencil spans four nodes inside one delay segment
    model = dde.linear_scalar(-1.0, 0.5, 1.0)
    traj = dde.integrate(model, dde.HistorySegment.constant(1.0, 1.0), 3.0, 1.0 / 16)
    assert dde.linearized_monodromy(model, traj, 1.0, 3).shape == (4, 4)
    for N in (1, 2):
        with pytest.raises(InputError):
            dde.linearized_monodromy(model, traj, 1.0, N)


# ------------------------------------------------------- spectra


def test_spectrum_linear_model_converges_like_1_over_T():
    model = dde.linear_scalar(-1.0, 0.5, 1.0)
    top = cr.char_roots(cr.CharProblem(-1.0, 0.5, 1.0), 4).real_parts()[0]
    r20 = dde.numerical_lyapunov_spectrum(model, burn_in=5.0, horizon=20.0, m=1, N=48, seed=3)
    r40 = dde.numerical_lyapunov_spectrum(model, burn_in=5.0, horizon=40.0, m=1, N=48, seed=3)
    e20 = abs(r20.lambdas[0] - top)
    e40 = abs(r40.lambdas[0] - top)
    assert e40 <= 0.1
    # finite-horizon error decays like 1/T: doubling T about halves it
    assert e40 <= 0.65 * e20
    assert r40.ky == 0.0  # stable system
    assert r40.windows == 40


def test_spectrum_ky_is_the_cocycle_formula():
    # roots 0.40, then a pair at -2.83: one positive exponent
    model = dde.linear_scalar(0.2, 0.3, 1.0)
    rep = dde.numerical_lyapunov_spectrum(model, 2.0, 12.0, m=3, N=16, seed=1)
    assert 1.0 < rep.ky < 2.0
    assert rep.ky == cocycle.kaplan_yorke(rep.lambdas, 3)
    top = dde.numerical_lyapunov_spectrum(model, 2.0, 12.0, m=1, N=16, seed=1)
    assert top.ky is None  # no partial sum is negative
    # the order-1 pass is the leading column of the order-3 pass
    assert top.lambdas[0] == pytest.approx(rep.lambdas[0], abs=1e-13)
    assert top.lambdas_half[0] == pytest.approx(rep.lambdas_half[0], abs=1e-13)


def test_spectrum_builds_each_window_once(monkeypatch):
    # _seed_frame and the QR pass read the same windows: one monodromy each
    calls = []
    build = dde.linearized_monodromy

    def counted(*args, **kwargs):
        calls.append(args[2])
        return build(*args, **kwargs)

    monkeypatch.setattr(dde, "linearized_monodromy", counted)
    model = dde.mackey_glass(0.2, 0.1, 10.0, 22.0)
    rep = dde.numerical_lyapunov_spectrum(model, 22.0, 440.0, m=3, N=16, seed=0)
    assert rep.windows == 20
    assert len(calls) == rep.windows == len(set(calls))


def test_spectrum_validation():
    model = dde.linear_scalar(-1.0, 0.5, 1.0)
    with pytest.raises(InputError):
        dde.numerical_lyapunov_spectrum(model, 1.0, 8.0, m=200, N=10)
    for m in (0, -1):
        with pytest.raises(InputError):
            dde.numerical_lyapunov_spectrum(model, 1.0, 8.0, m=m, N=10)


def test_spectrum_order_at_the_discretized_dimension():
    # N = 8 history intervals give n (N + 1) = 9 coordinates
    model = dde.linear_scalar(-1.0, 0.5, 1.0)
    rep = dde.numerical_lyapunov_spectrum(model, 2.0, 4.0, m=9, N=8, seed=2)
    assert rep.lambdas.shape == (9,) and np.isfinite(rep.lambdas).all()
    with pytest.raises(InputError):
        dde.numerical_lyapunov_spectrum(model, 2.0, 4.0, m=10, N=8, seed=2)
