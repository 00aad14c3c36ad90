"""Weighted delay-operator calculus: inner products, L, its adjoint, the
additive symmetrization, head-block bound matrices, and the admissibility
rule of a weight and a tap layout.

Adjoint-domain elements are built exactly: with eta = rho * psi, the boundary
conditions become eta(-tau) = L_tau^T y and jumps Delta(eta) = L_j^T y at the
interior nodes, solvable by per-segment constants on top of any smooth G."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lyapdim import delayop as dop
from lyapdim.errors import DegenerateMetricError, InputError

TAU = 1.3
KAPPA = 0.7


def scalar_spec():
    return dop.DelayOperatorSpec(1, TAU, [[-0.3]], [[0.8]])


def scalar_profile():
    return dop.WeightProfile((KAPPA,), (-TAU, 0.0))


def two_d_setup(kappas=(0.4, 0.9)):
    rng = np.random.default_rng(5)
    tau1 = 0.5
    L0 = rng.normal(size=(2, 2))
    L_tau = rng.normal(size=(2, 2))
    L1 = rng.normal(size=(2, 2))
    spec = dop.DelayOperatorSpec(2, TAU, L0, L_tau, taps=((tau1, L1),))
    profile = dop.WeightProfile(kappas, (-TAU, -tau1, 0.0))
    return spec, profile, rng


def adjoint_element(spec, profile, grid, y, G):
    """Exact D(L*) element: psi_j = (G + c_j) / rho_j with the constants
    chained through the boundary and jump conditions."""
    J = profile.n_segments - 1
    cs = [None] * (J + 1)
    cs[J] = spec.L_tau.T @ y - G(np.array([-profile.tau]))[0]
    for j in range(J, 0, -1):
        cs[j - 1] = cs[j] + spec.taps[j - 1][1].T @ y

    def fw(j):
        kj = profile.kappas[j]

        def f(th):
            th = np.asarray(th)
            return (G(th) + cs[j][None, :]) / np.exp(kj * th)[:, None]

        return f

    return dop.DiscretizedElement.from_functions(grid, y, [fw(j) for j in range(J + 1)])


# ------------------------------------------------------- structures


def test_spec_validation():
    with pytest.raises(InputError):
        dop.DelayOperatorSpec(1, 0.0, [[1.0]], [[1.0]])
    with pytest.raises(InputError):
        dop.DelayOperatorSpec(1, 1.0, [[1.0, 0.0]], [[1.0]])
    with pytest.raises(InputError):
        dop.DelayOperatorSpec(1, 1.0, [[1.0]], [[1.0]], taps=((1.5, [[1.0]]),))
    with pytest.raises(InputError):
        dop.DelayOperatorSpec(
            1, 1.0, [[1.0]], [[1.0]], taps=((0.6, [[1.0]]), (0.4, [[1.0]]))
        )
    spec = dop.DelayOperatorSpec(
        1, 1.0, [[1.0]], [[1.0]], taps=((0.25, [[2.0]]), (0.5, [[3.0]]))
    )
    assert spec.partition().tolist() == [-1.0, -0.5, -0.25, 0.0]


def test_profile_validation_and_delta():
    with pytest.raises(InputError):
        dop.WeightProfile((1.0,), (-1.0, -0.5, 0.0))  # rate count mismatch
    with pytest.raises(InputError):
        dop.WeightProfile((1.0, 2.0), (-1.0, -1.5, 0.0))  # not ascending
    with pytest.raises(InputError):
        dop.WeightProfile((1.0,), (-1.0, 0.5))  # must end at 0
    prof = dop.WeightProfile((0.4, 0.9), (-1.0, -0.25, 0.0))
    assert prof.tau == 1.0
    assert prof.n_segments == 2
    assert prof.segment_bounds(0) == (-0.25, 0.0)
    assert prof.segment_bounds(1) == (-1.0, -0.25)
    want = math.exp(0.4 * -0.25) - math.exp(0.9 * -0.25)
    assert prof.delta(1) == pytest.approx(want, rel=1e-15)
    with pytest.raises(InputError):
        prof.delta(0)
    assert prof.rho(1, -0.5) == pytest.approx(math.exp(-0.45))


@pytest.mark.parametrize(
    "make",
    [
        lambda: dop.DelayOperatorSpec(1, math.inf, [[0.1]], [[0.2]]),
        lambda: dop.DelayOperatorSpec(1, math.nan, [[0.1]], [[0.2]]),
        lambda: dop.DelayOperatorSpec(1, 1.0, [[math.nan]], [[0.2]]),
        lambda: dop.DelayOperatorSpec(1, 1.0, [[0.1]], [[0.2]], taps=((0.5, [[math.inf]]),)),
        lambda: dop.WeightProfile((0.5,), (-math.inf, 0.0)),
        lambda: dop.WeightProfile((0.5, 0.7), (-1.0, math.nan, 0.0)),
        lambda: dop.WeightProfile((math.nan,), (-1.0, 0.0)),
        lambda: dop.WeightProfile((0.5, -math.inf), (-1.0, -0.5, 0.0)),
        lambda: dop.TailGrid([-math.inf, 0.0], 8),
    ],
    ids=["tau-inf", "tau-nan", "L0-nan", "tap-inf", "partition-inf", "partition-nan",
         "rate-nan", "rate-inf", "grid-inf"],
)
def test_non_finite_operator_inputs_are_rejected(make):
    with pytest.raises(InputError):
        make()


@pytest.mark.parametrize(
    "partition, order",
    [
        ([-1.0, 0.0], 0),
        ([-1.0, 0.0], -3),
        ([-1.0, 0.0], 2.5),
        ([-1.0, 0.0], math.nan),
        ([-1.0, 0.0], math.inf),
        ([-1.0, 0.0], "8"),
        ([-1.0, -0.5, 0.0], (8, 0)),
        ([0.0, -1.0], 8),
        ([-1.0, -1.0, 0.0], 8),
    ],
)
def test_tail_grid_rejects_bad_orders_and_partitions(partition, order):
    with pytest.raises(InputError):
        dop.TailGrid(partition, order)


def test_tail_grid_takes_whole_orders_of_any_numeric_type():
    grids = [dop.TailGrid([-1.0, -0.5, 0.0], o) for o in (4, 4.0, np.int64(4), (4, 4.0))]
    assert {g.orders for g in grids} == {(4, 4)}
    assert all(type(o) is int for g in grids for o in g.orders)
    for g in grids[1:]:
        assert g.matches(grids[0])
        for a, b in zip(g.segments, grids[0].segments):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_element_roundtrip_and_views():
    _, profile, rng = two_d_setup()
    grid = dop.TailGrid.for_profile(profile, (8, 12))
    head = rng.normal(size=2)
    v = dop.DiscretizedElement.from_functions(
        grid, head, lambda th: np.stack([np.cos(th), np.sin(th)], axis=1)
    )
    flat = v.flatten()
    back = dop.DiscretizedElement.from_flat(grid, flat, 2)
    assert np.array_equal(back.head, v.head)
    for a, b in zip(back.tails, v.tails):
        assert np.array_equal(a, b)
    assert np.allclose(v.value_at_zero(), [1.0, 0.0])
    assert np.allclose(v.value_at_minus_tau(), [math.cos(TAU), math.sin(-TAU)])
    left, right = v.node_limits(1)
    assert np.allclose(left, right)  # same smooth function on both sides
    with pytest.raises(InputError):
        dop.DiscretizedElement.from_flat(grid, flat[:-1], 2)
    with pytest.raises(InputError):
        dop.DiscretizedElement(head, [v.tails[0]], grid)


# ------------------------------------------------------- weighted_inner


def test_weighted_inner_closed_form():
    profile = scalar_profile()
    grid = dop.TailGrid.for_profile(profile, 32)
    one = dop.DiscretizedElement.from_functions(grid, [0.0], lambda th: np.ones_like(th))
    got = dop.weighted_inner(one, one, profile)
    want = (1.0 - math.exp(-KAPPA * TAU)) / KAPPA
    assert got == pytest.approx(want, abs=1e-12)


def test_weighted_inner_quad_oracle_two_segments():
    spec, profile, rng = two_d_setup()
    grid = dop.TailGrid.for_profile(profile, 40)

    def fv(th):
        th = np.asarray(th)
        return np.stack([np.cos(1.3 * th), np.exp(0.4 * th)], axis=1)

    def fw(th):
        th = np.asarray(th)
        return np.stack([np.sin(0.7 * th) + 1.0, th**2], axis=1)

    xv, xw = rng.normal(size=2), rng.normal(size=2)
    v = dop.DiscretizedElement.from_functions(grid, xv, fv)
    w = dop.DiscretizedElement.from_functions(grid, xw, fw)

    def integrand(th, j):
        a = fv(np.array([th]))[0]
        b = fw(np.array([th]))[0]
        return math.exp(profile.kappas[j] * th) * float(a @ b)

    want = float(xv @ xw)
    for j in range(profile.n_segments):
        lo, hi = profile.segment_bounds(j)
        want += quad(integrand, lo, hi, args=(j,), epsabs=1e-13)[0]
    assert dop.weighted_inner(v, w, profile) == pytest.approx(want, rel=1e-11)


def test_weighted_inner_grid_mismatch():
    profile = scalar_profile()
    g1 = dop.TailGrid.for_profile(profile, 16)
    g2 = dop.TailGrid.for_profile(profile, 24)
    a = dop.DiscretizedElement.from_functions(g1, [1.0], lambda th: np.ones_like(th))
    b = dop.DiscretizedElement.from_functions(g2, [1.0], lambda th: np.ones_like(th))
    with pytest.raises(InputError):
        dop.weighted_inner(a, b, profile)
    other = dop.WeightProfile((0.3, 0.5), (-TAU, -0.4, 0.0))
    with pytest.raises(InputError):
        dop.weighted_inner(a, a, other)


# ------------------------------------------------------- apply_L


def test_apply_L_action_and_derivative():
    spec, profile, rng = two_d_setup()
    grid = dop.TailGrid.for_profile(profile, 32)

    def fv(th):
        th = np.asarray(th)
        return np.stack([np.cos(1.3 * th), np.exp(0.4 * th)], axis=1)

    def dfv(th):
        th = np.asarray(th)
        return np.stack([-1.3 * np.sin(1.3 * th), 0.4 * np.exp(0.4 * th)], axis=1)

    v = dop.DiscretizedElement.from_functions(grid, fv(np.array([0.0]))[0], fv)
    out = dop.apply_L(spec, v)
    tap_lag, M1 = spec.taps[0]
    want_head = (
        spec.L0 @ fv(np.array([0.0]))[0]
        + spec.L_tau @ fv(np.array([-TAU]))[0]
        + M1 @ fv(np.array([-tap_lag]))[0]
    )
    assert np.allclose(out.head, want_head, atol=1e-12)
    for j, seg in enumerate(grid.segments):
        assert np.allclose(out.tails[j], dfv(seg.theta), atol=1e-9)


def test_apply_L_domain_guards():
    spec = scalar_spec()
    profile = scalar_profile()
    grid = dop.TailGrid.for_profile(profile, 16)
    bad_head = dop.DiscretizedElement.from_functions(grid, [2.0], lambda th: np.cos(th))
    with pytest.raises(InputError):
        dop.apply_L(spec, bad_head)
    spec2, profile2, _ = two_d_setup()
    grid2 = dop.TailGrid.for_profile(profile2, 16)
    disc = dop.DiscretizedElement.from_functions(
        grid2,
        [1.0, 0.0],
        [
            lambda th: np.stack([np.ones_like(th), np.zeros_like(th)], axis=1),
            lambda th: np.stack([np.zeros_like(th), np.zeros_like(th)], axis=1),
        ],
    )
    with pytest.raises(InputError):
        dop.apply_L(spec2, disc)
    wrong_layout = dop.DiscretizedElement.from_functions(grid, [1.0], lambda th: np.cos(th) * 0 + 1.0)
    with pytest.raises(InputError):
        dop.apply_L(spec2, wrong_layout)


# ------------------------------------------------------- adjoint identity


def test_apply_L_star_rejects_wrong_boundary():
    spec = scalar_spec()
    profile = scalar_profile()
    grid = dop.TailGrid.for_profile(profile, 16)
    w = dop.DiscretizedElement.from_functions(grid, [1.0], lambda th: np.cos(th))
    with pytest.raises(InputError):
        dop.apply_L_star(spec, profile, w)


def test_adjoint_identity_smooth_scalar():
    spec = scalar_spec()
    profile = scalar_profile()
    grid = dop.TailGrid.for_profile(profile, 48)
    fv = lambda th: 1.2 * np.cos(1.1 * np.asarray(th))
    v = dop.DiscretizedElement.from_functions(grid, [1.2], fv)
    y = np.array([0.9])
    G = lambda th: (np.cos(0.9 * np.asarray(th)) + 0.3 * np.sin(2.0 * np.asarray(th)) + 0.4)[
        :, None
    ]
    w = adjoint_element(spec, profile, grid, y, G)
    lhs = dop.weighted_inner(dop.apply_L(spec, v), w, profile)
    rhs = dop.weighted_inner(v, dop.apply_L_star(spec, profile, w), profile)
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def kink_defect_scalar(order: int) -> float:
    spec = scalar_spec()
    profile = scalar_profile()
    grid = dop.TailGrid.for_profile(profile, order)
    fv = lambda th: 1.2 * np.cos(1.1 * np.asarray(th)) + np.abs(np.asarray(th) + 0.45) ** 1.5
    v = dop.DiscretizedElement.from_functions(grid, [fv(np.array([0.0]))[0]], fv)
    y = np.array([0.9])

    def G(th):
        th = np.asarray(th)
        return (
            np.cos(0.9 * th) + 0.3 * np.sin(2.0 * th) + 0.4 + np.abs(th + 0.85) ** 1.5
        )[:, None]

    w = adjoint_element(spec, profile, grid, y, G)
    lhs = dop.weighted_inner(dop.apply_L(spec, v), w, profile)
    rhs = dop.weighted_inner(v, dop.apply_L_star(spec, profile, w), profile)
    return abs(lhs - rhs)


def kink_defect_2d(order: int) -> float:
    spec, profile, rng = two_d_setup()
    grid = dop.TailGrid.for_profile(profile, order)
    u = rng.normal(size=2)
    x2 = rng.normal(size=2)
    y2 = rng.normal(size=2)

    def fv(th):
        th = np.asarray(th)
        return np.cos(1.1 * th)[:, None] * x2[None, :] + (
            np.abs(th + 0.9) ** 1.5
        )[:, None] * u[None, :]

    v = dop.DiscretizedElement.from_functions(grid, fv(np.array([0.0]))[0], fv)

    def G(th):
        th = np.asarray(th)
        base = np.stack(
            [np.cos(0.9 * th) + 0.3 * np.sin(2 * th), np.sin(1.3 * th) - 0.2 * np.cos(th)],
            axis=1,
        )
        return base + (np.abs(th + 0.3) ** 1.5)[:, None] * np.array([0.5, -0.7])[None, :]

    w = adjoint_element(spec, profile, grid, y2, G)
    lhs = dop.weighted_inner(dop.apply_L(spec, v), w, profile)
    rhs = dop.weighted_inner(v, dop.apply_L_star(spec, profile, w), profile)
    return abs(lhs - rhs)


def test_adjoint_identity_kink_convergence():
    for defect in (kink_defect_scalar, kink_defect_2d):
        errs = [defect(o) for o in (32, 64, 128)]
        assert errs[-1] <= 1e-8
        for a, b in zip(errs, errs[1:]):
            assert math.log2(a / b) >= 2.0


def test_adjoint_identity_with_kernel():
    # kernel contributions cancel exactly at matched quadrature nodes
    profile = scalar_profile()
    grid = dop.TailGrid.for_profile(profile, 24)
    spec = dop.DelayOperatorSpec(
        1, TAU, [[-0.3]], [[0.8]], kernels=(lambda th: [[math.sin(th)]],)
    )
    fv = lambda th: 1.2 * np.cos(1.1 * np.asarray(th))
    v = dop.DiscretizedElement.from_functions(grid, [1.2], fv)
    y = np.array([0.9])
    G = lambda th: (np.cos(0.9 * np.asarray(th)) + 0.4)[:, None]
    w = adjoint_element(spec, profile, grid, y, G)
    lhs = dop.weighted_inner(dop.apply_L(spec, v), w, profile)
    rhs = dop.weighted_inner(v, dop.apply_L_star(spec, profile, w), profile)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# ------------------------------------------------- symmetrization


def cross_element(grid, x):
    """Scalar intersection element: tail(0) = x and rho(-tau) tail(-tau)
    = L_tau^T x for the scalar spec."""
    target = 0.8 * x * math.exp(KAPPA * TAU)
    slope = (math.cos(1.1 * TAU) - target / x) / TAU if x else 0.0
    return dop.DiscretizedElement.from_functions(
        grid, [x], lambda th: x * (np.cos(1.1 * np.asarray(th)) + slope * np.asarray(th))
    )


def test_symmetrization_identity_scalar():
    profile = scalar_profile()
    grid = dop.TailGrid.for_profile(profile, 32)
    v = cross_element(grid, 1.0)
    w = cross_element(grid, 0.37)
    # kernels leave both boundary conditions alone, so v stays in both domains
    for kernels in ((), (lambda th: [[0.3 * math.cos(th)]],)):
        spec = dop.DelayOperatorSpec(1, TAU, [[-0.3]], [[0.8]], kernels=kernels)
        sv = dop.symmetrize_S(spec, profile, v)
        lhs = 2.0 * dop.weighted_inner(sv, w, profile)
        rhs = dop.weighted_inner(dop.apply_L(spec, v), w, profile) + dop.weighted_inner(
            dop.apply_L_star(spec, profile, v), w, profile
        )
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        # element-level: 2 S v = L v + L* v (the derivative terms cancel exactly)
        Lv = dop.apply_L(spec, v)
        Lsv = dop.apply_L_star(spec, profile, v)
        assert np.allclose(2.0 * sv.head, Lv.head + Lsv.head, atol=1e-12)
        for a, b, c in zip(sv.tails, Lv.tails, Lsv.tails):
            assert np.allclose(2.0 * a, b + c, atol=1e-12)


def test_symmetrization_identity_2d_with_tap():
    # intersection of both domains with a tap forces L_1^T y = 0: pick the
    # tap with a nontrivial left kernel and run the head inside it
    rng = np.random.default_rng(11)
    tau1 = 0.5
    L0 = rng.normal(size=(2, 2))
    L_tau = rng.normal(size=(2, 2))
    L1 = np.array([[1.0, 0.0], [2.0, 0.0]])  # ker L1^T = span (-2, 1)
    spec = dop.DelayOperatorSpec(2, TAU, L0, L_tau, taps=((tau1, L1),))
    profile = dop.WeightProfile((0.4, 0.9), (-TAU, -tau1, 0.0))
    grid = dop.TailGrid.for_profile(profile, 32)
    y = 0.8 * np.array([-2.0, 1.0])
    v_tau = math.exp(profile.kappas[1] * TAU) * (L_tau.T @ y)

    # global quadratic tail through phi(0) = y, phi(-tau1) = 0, phi(-tau) = v_tau
    th_pts = np.array([0.0, -tau1, -TAU])
    V = np.vander(th_pts, 3)  # columns th^2, th, 1
    coef = np.linalg.solve(V, np.stack([y, np.zeros(2), v_tau]))

    def fv(th):
        th = np.asarray(th)
        return np.vander(th, 3) @ coef

    v = dop.DiscretizedElement.from_functions(grid, y, fv)
    sv = dop.symmetrize_S(spec, profile, v)
    Lv = dop.apply_L(spec, v)
    Lsv = dop.apply_L_star(spec, profile, v)
    assert np.allclose(2.0 * sv.head, Lv.head + Lsv.head, atol=1e-10)
    for a, b, c in zip(sv.tails, Lv.tails, Lsv.tails):
        assert np.allclose(2.0 * a, b + c, atol=1e-10)


def test_symmetrize_pure_tail_scales_by_rates():
    spec, profile, _ = two_d_setup()
    grid = dop.TailGrid.for_profile(profile, 16)

    def bump(th):
        th = np.asarray(th)
        return np.stack([np.sin(th) ** 2, np.cos(th)], axis=1)

    v = dop.DiscretizedElement.from_functions(grid, np.zeros(2), bump)
    sv = dop.symmetrize_S(spec, profile, v)
    assert np.allclose(sv.head, 0.0)
    for j, (a, b) in enumerate(zip(sv.tails, v.tails)):
        assert np.allclose(2.0 * a, -profile.kappas[j] * b, atol=1e-14)


def test_symmetrized_matrix_scalar_closed_form():
    beta, gamma, k = 0.2, 0.1, 10.0
    fp = (2.0 - k) / 4.0
    profile = scalar_profile()
    spec = dop.DelayOperatorSpec(1, TAU, [[-gamma]], [[beta * fp]])
    M, ev = dop.symmetrized_matrix(spec, profile)
    want = 1.0 - 2.0 * gamma + beta**2 * math.exp(KAPPA * TAU) * fp**2
    assert M.shape == (1, 1)
    assert ev[0] == pytest.approx(want, abs=1e-12)


def test_symmetrized_matrix_2d_oracle_and_order():
    spec, profile, _ = two_d_setup()
    M, ev = dop.symmetrized_matrix(spec, profile)
    rho_tau = math.exp(profile.kappas[1] * -TAU)
    want = (
        spec.L0
        + spec.L0.T
        + np.eye(2)
        + spec.L_tau @ spec.L_tau.T / rho_tau
        + spec.taps[0][1] @ spec.taps[0][1].T / profile.delta(1)
    )
    assert np.allclose(M, want, atol=1e-12)
    assert np.allclose(ev, np.sort(np.linalg.eigvalsh(want))[::-1], atol=1e-12)
    assert np.all(np.diff(ev) <= 1e-12)


def test_symmetrized_matrix_guards():
    spec, profile, _ = two_d_setup()
    kspec = dop.DelayOperatorSpec(
        1, TAU, [[-0.3]], [[0.8]], kernels=(lambda th: [[1.0]],)
    )
    with pytest.raises(InputError):
        dop.symmetrized_matrix(kspec, scalar_profile())
    with pytest.raises(InputError, match="layout"):
        dop.symmetrized_matrix(scalar_spec(), profile)  # one segment against two


# ------------------------------------------------- admissibility


def hat_quotients(spec, profile, grids):
    """Largest Rayleigh quotient <L v, v> / <v, v> over the continuous hat
    elements e_c at the interior node, one per grid: the oracle of the rule."""
    quotients = []
    for grid in grids:
        best = -math.inf
        for c in range(spec.n):
            tails = [np.zeros((seg.theta.size, spec.n)) for seg in grid.segments]
            tails[1][-1, c] = tails[0][0, c] = 1.0
            v = dop.DiscretizedElement(np.zeros(spec.n), tails, grid)
            num = dop.weighted_inner(dop.apply_L(spec, v), v, profile)
            best = max(best, num / dop.weighted_inner(v, v, profile))
        quotients.append(best)
    return quotients


def test_hat_quotients_grow_with_the_sign_of_minus_delta():
    # on a hat of width ~ 1/order^2 the boundary term -Delta_1 / 2 dominates:
    # quotients grow x4 per doubling, unbounded above exactly when Delta_1 < 0
    spec, profile, _ = two_d_setup()
    grids = [dop.TailGrid.for_profile(profile, o) for o in (32, 64, 128, 256)]
    for kappas in ((0.4, 0.9), (0.9, 0.4), (0.65, 0.67), (0.67, 0.65)):
        weight = dop.WeightProfile(kappas, profile.partition)
        delta = weight.delta(1)  # +-0.181, +-7.2e-3
        qs = hat_quotients(spec, weight, grids)
        assert all(math.copysign(1.0, q) == -math.copysign(1.0, delta) for q in qs)
        for a, b in zip(qs, qs[1:]):
            assert b / a == pytest.approx(4.0, abs=2e-3)
        if delta > 0:
            dop.symmetrized_matrix(spec, weight)
        else:
            with pytest.raises(DegenerateMetricError, match="Delta_1"):
                dop.symmetrized_matrix(spec, weight)


@pytest.mark.parametrize(
    "kappas, raises",
    [((0.4, 0.9), False), ((0.4, 0.4 + 1e-12), False), ((0.4, 0.4 + 1e-14), True),
     ((0.4, 0.4), True), ((0.4, 0.4 - 1e-12), True), ((0.9, 0.4), True)],
)
def test_symmetrization_raises_exactly_where_a_jump_is_not_positive(kappas, raises):
    spec, _, rng = two_d_setup()
    weight = dop.WeightProfile(kappas, (-TAU, -0.5, 0.0))
    assert (weight.delta(1) <= 1e-14) == raises
    grid = dop.TailGrid.for_profile(weight, 8)
    v = dop.DiscretizedElement.from_functions(
        grid, rng.normal(size=2), lambda th: np.stack([np.cos(th), th], axis=1)
    )
    for call in (lambda: dop.symmetrize_S(spec, weight, v),
                 lambda: dop.symmetrized_matrix(spec, weight)):
        if raises:
            with pytest.raises(DegenerateMetricError, match="Delta_1 = .* at node -0.5"):
                call()
        else:
            call()


def test_every_operator_call_checks_the_tap_layout():
    # the tap sits at lag 0.5, the grid's interior node at -0.3
    spec, _, rng = two_d_setup()
    moved = dop.WeightProfile((0.4, 0.9), (-TAU, -0.3, 0.0))
    grid = dop.TailGrid.for_profile(moved, 16)
    y = rng.normal(size=2)
    v = dop.DiscretizedElement.from_functions(
        grid, y, lambda th: np.ones((th.size, 1)) * y[None, :]
    )
    G = lambda th: np.stack([np.cos(th), np.sin(th)], axis=1)
    w = adjoint_element(spec, moved, grid, y, G)
    for call in (lambda: dop.apply_L(spec, v),
                 lambda: dop.apply_L_star(spec, moved, w),
                 lambda: dop.symmetrize_S(spec, moved, v),
                 lambda: dop.symmetrized_matrix(spec, moved)):
        with pytest.raises(InputError, match="layout"):
            call()
