"""Matrix cocycles: QR volume growth, uniform exponents, Kaplan-Yorke,
dimension down-crossing, adapted norms, volume/trace consistency.

Oracles: omega_m of explicit products (short horizons, where the direct SVD
is itself reliable), determinant multiplicativity (long horizons), and
closed-form diagonal/equilibrium cocycles."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from lyapdim import cocycle as cy
from lyapdim import tensor
from lyapdim.errors import InputError


def constant_cocycle(A: np.ndarray, h: float = 0.25) -> cy.MatrixCocycle:
    E = expm(h * A)
    return cy.MatrixCocycle(("o",), lambda q: q, lambda q: E, A.shape[0], h)


def diag_equilibria(rate_table: dict, h: float = 0.5) -> cy.MatrixCocycle:
    n = len(next(iter(rate_table.values())))
    steps = {q: np.diag(np.exp(h * np.asarray(r, dtype=float))) for q, r in rate_table.items()}
    return cy.MatrixCocycle(tuple(rate_table), lambda q: q, steps.__getitem__, n, h)


# ------------------------------------------------------- volume_growth_qr


def test_qr_volume_matches_svd_short_horizon():
    # moderate spectral spread keeps the direct SVD oracle itself accurate
    r = np.random.default_rng(7)
    for n in (2, 3, 4):
        A = 0.4 * r.normal(size=(n, n))
        coc = constant_cocycle(A)
        T = 5.0
        P = expm(T * A)
        assert np.linalg.cond(P) < 1e8
        for m in range(1, n + 1):
            g = cy.volume_growth_qr(coc, "o", m, T)
            assert not g.collapsed
            assert g.log_omega == pytest.approx(
                math.log(tensor.omega_d(P, m)), rel=1e-9, abs=1e-9
            )
            assert g.per_step.size == 20
            assert g.per_step.sum() == pytest.approx(g.log_omega)


def test_qr_full_volume_matches_trace_long_horizon():
    # m = n: log omega_n = T tr(A) exactly, stable at any horizon
    r = np.random.default_rng(8)
    for n in (2, 4):
        A = r.normal(size=(n, n))
        coc = constant_cocycle(A)
        T = 40.0
        g = cy.volume_growth_qr(coc, "o", n, T)
        assert g.log_omega == pytest.approx(T * np.trace(A), rel=1e-10)


def test_qr_volume_time_varying_product():
    r = np.random.default_rng(9)
    k, n = 8, 3
    mats = [r.normal(size=(n, n)) for _ in range(k)]

    coc = cy.MatrixCocycle(
        tuple(range(k)),
        lambda q: (q + 1) % k,
        mats.__getitem__,
        n,
        1.0,
    )
    P = np.eye(n)
    for M in mats:
        P = M @ P
    for m in (1, 2, 3):
        g = cy.volume_growth_qr(coc, 0, m, float(k))
        assert g.log_omega == pytest.approx(
            math.log(tensor.omega_d(P, m)), rel=1e-10, abs=1e-10
        )


def test_qr_volume_collapse_flag():
    M = np.diag([1.0, 0.0])
    coc = cy.MatrixCocycle(("o",), lambda q: q, lambda q: M, 2, 1.0)
    g = cy.volume_growth_qr(coc, "o", 2, 4.0)
    assert g.collapsed
    assert g.log_omega == -math.inf


def test_one_pass_gives_every_order():
    # the cumulated column sums of log|R_kk| are log omega_k for every k <= m,
    # checked against the singular values of the product, not against a QR
    r = np.random.default_rng(11)
    for _ in range(12):
        n = int(r.integers(2, 6))
        A = 0.4 * r.normal(size=(n, n))
        T = 4.0
        P = expm(T * A)
        assert np.linalg.cond(P) < 1e8
        g = cy.volume_growth_qr(constant_cocycle(A), "o", n, T)
        assert g.log_r.shape == (16, n)
        want = np.cumsum(np.log(np.linalg.svd(P, compute_uv=False)))
        assert np.allclose(np.cumsum(g.log_r.sum(axis=0)), want, rtol=0.0, atol=1e-8)


def test_qr_collapse_keeps_lower_orders():
    M = np.diag([2.0, 0.5, 0.0])
    coc = cy.MatrixCocycle(("o",), lambda q: q, lambda q: M, 3, 1.0)
    g = cy.volume_growth_qr(coc, "o", 3, 4.0)
    assert g.collapsed and g.log_omega == -math.inf
    assert np.isfinite(g.log_r[:, :2]).all()
    assert np.isneginf(g.log_r[:, 2]).all()
    # the orders below the collapse run on as their own passes would
    g2 = cy.volume_growth_qr(coc, "o", 2, 4.0)
    assert not g2.collapsed
    assert np.allclose(g.log_r[:, :2], g2.log_r, rtol=0.0, atol=1e-15)
    rep = cy.uniform_exponents(coc, 3, T=4.0)
    assert rep.lambdas[:2] == pytest.approx([math.log(2.0), math.log(0.5)], abs=1e-15)
    assert rep.lambdas[2] == -math.inf
    # two collapsed orders: each reads -inf, not -inf - -inf = nan, and the
    # dimension stops where the first collapse starts, with no 0 * -inf
    M0 = np.diag([2.0, 0.0, 0.0])
    coc0 = cy.MatrixCocycle(("o",), lambda q: q, lambda q: M0, 3, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep0 = cy.uniform_exponents(coc0, 3, T=4.0)
        dim0 = cy.lyapunov_dimension(coc0, 4.0)
    assert rep0.lambdas[0] == pytest.approx(math.log(2.0), abs=1e-15)
    assert rep0.lambdas[1] == rep0.lambdas[2] == -math.inf
    assert dim0 == (1.0, False)


def test_qr_volume_validation():
    coc = constant_cocycle(np.eye(2))
    with pytest.raises(InputError):
        cy.volume_growth_qr(coc, "o", 3, 1.0)
    with pytest.raises(InputError):
        cy.volume_growth_qr(coc, "o", 1, 1.1)  # h = 0.25 does not divide T


@pytest.mark.parametrize(
    "T, h", [(math.nan, 0.25), (math.inf, 0.25), (-math.inf, 0.25), (0.0, 0.25), (-1.0, 0.25), (1.0, 0.0)]
)
def test_qr_horizon_must_be_a_positive_whole_number_of_steps(T, h):
    with pytest.raises(InputError):
        cy.volume_growth_qr(constant_cocycle(np.eye(2), h), "o", 1, T)


# ---------------------------------------------------- uniform exponents


def test_uniform_exponents_two_equilibria():
    coc = diag_equilibria({"P": (1.0, -2.0), "Q": (0.5, -0.1)})
    rep = cy.uniform_exponents(coc, 2, T=8.0)
    # per-m maxima: S_1 = 1 (at P), S_2 = 0.4 (at Q); differencing mixes them
    assert rep.lambdas[0] == pytest.approx(1.0, abs=1e-12)
    assert rep.lambdas[1] == pytest.approx(-0.6, abs=1e-12)


def test_uniform_exponents_non_monotone():
    coc = diag_equilibria(
        {
            "A": (1.0, -1.0, -1.0),
            "B": (0.5, 0.0, -1.0),
            "C": (0.2, 0.2, 0.2),
        }
    )
    rep = cy.uniform_exponents(coc, 3, T=8.0)
    want = np.array([1.0, -0.5, 0.1])
    assert np.allclose(rep.lambdas, want, atol=1e-12)
    # not sorted: the third exponent exceeds the second
    assert rep.lambdas[2] > rep.lambdas[1]
    assert cy.kaplan_yorke(rep.lambdas, 3) == 3.0


def test_uniform_exponents_match_evp():
    table = {
        "A": (1.0, -1.0, -1.0),
        "B": (0.5, 0.0, -1.0),
        "C": (0.2, 0.2, 0.2),
    }
    coc = diag_equilibria(table)
    rep = cy.uniform_exponents(coc, 3, T=8.0)
    sums = np.cumsum(rep.lambdas)
    for m in (1, 2, 3):
        evp = cy.evp_finite_base(coc, m)
        assert evp.max_rate == pytest.approx(sums[m - 1], abs=1e-12)
        # per-equilibrium rates are the sums of the m largest diagonal rates
        for q, r in evp.rates:
            want = float(np.sort(table[q])[::-1][:m].sum())
            assert r == pytest.approx(want, abs=1e-12)


def test_evp_rejects_moving_base_points():
    coc = cy.MatrixCocycle((0,), lambda q: q + 1, lambda q: np.eye(2), 2, 1.0)
    with pytest.raises(InputError):
        cy.evp_finite_base(coc, 1)
    fixed = cy.MatrixCocycle((0,), lambda q: q, lambda q: np.eye(2), 2, 1.0)
    for m in (0, 3):
        with pytest.raises(InputError):
            cy.evp_finite_base(fixed, m)


def power_cocycle(M: np.ndarray, h: float) -> cy.MatrixCocycle:
    """One equilibrium whose fiber over one step h is M."""
    return cy.MatrixCocycle(("o",), lambda q: q, lambda q: M, M.shape[0], h)


def test_evp_non_normal_triangular():
    # the rates are sums of the m largest log|M_ii| / h, however large the
    # off-diagonal part; finite horizons see the transient growth instead
    diag = np.array([1.5, -3.0, 0.2, 0.9])
    M = np.diag(diag) + np.triu(np.random.default_rng(5).normal(scale=50.0, size=(4, 4)), 1)
    h = 0.5
    logs = np.sort(np.log(np.abs(diag)))[::-1]
    for m in range(1, 5):
        rate = cy.evp_finite_base(power_cocycle(M, h), m).max_rate
        assert rate == pytest.approx(logs[:m].sum() / h, abs=1e-12)


def test_evp_rotation_scaling_pair_split_by_m():
    # eigenvalues 0.8 e^{+-i 0.7} and 2: m = 2 takes 2 and half of the pair
    th = 0.7
    M = np.zeros((3, 3))
    M[:2, :2] = 0.8 * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    M[2, 2] = 2.0
    M[0, 2] = 5.0
    want = np.cumsum([math.log(2.0), math.log(0.8), math.log(0.8)]) / 0.25
    for m in range(1, 4):
        assert cy.evp_finite_base(power_cocycle(M, 0.25), m).max_rate == pytest.approx(
            want[m - 1], abs=1e-12
        )


def test_evp_zero_eigenvalue_is_minus_infinity_without_warning():
    M = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = [cy.evp_finite_base(power_cocycle(M, 1.0), m).max_rate for m in (1, 2, 3)]
    assert rates[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert rates[1] == pytest.approx(0.0, abs=1e-12)
    assert rates[2] == -math.inf


# ---------------------------------------------------- kaplan_yorke


def test_kaplan_yorke_formula():
    assert cy.kaplan_yorke([0.5, 0.0, -1.0], 3) == pytest.approx(2.5)
    assert cy.kaplan_yorke([-0.1, -0.5], 2) == 0.0
    assert cy.kaplan_yorke([1.0, 0.5], 2) == 2.0  # saturated at n
    assert cy.kaplan_yorke([1.0, -1.0, -2.0], 3) == pytest.approx(2.0)  # tie included
    # the first negative partial sum, not the last nonnegative one (3.4 here)
    assert cy.kaplan_yorke([1.0, -2.0, 3.0, -5.0], 4) == 1.5
    with pytest.raises(InputError):
        cy.kaplan_yorke([1.0], 2)
    with pytest.raises(InputError):
        cy.kaplan_yorke([1.0], 0)


# ---------------------------------------------------- lyapunov_dimension


def test_lyapunov_dimension_closed_form():
    coc = constant_cocycle(np.diag([1.0, -2.0]))
    res = cy.lyapunov_dimension(coc, T=8.0)
    assert not res.saturated
    assert res.value == pytest.approx(1.5, abs=1e-12)
    # agrees with Kaplan-Yorke on the exponents and obeys the sandwich
    rep = cy.uniform_exponents(coc, 2, T=8.0)
    ky = cy.kaplan_yorke(rep.lambdas, 2)
    assert ky - 1.0 < res.value <= ky + 1e-12


def test_lyapunov_dimension_is_kaplan_yorke_on_one_base_point():
    # with one base point the sup over the base is that point's own volume
    # growth, so the down-crossing is the Kaplan-Yorke formula itself
    r = np.random.default_rng(3)
    for _ in range(50):
        n = int(r.integers(2, 6))
        coc = diag_equilibria({"o": r.normal(size=n) - 0.3}, h=0.5)
        want = cy.kaplan_yorke(cy.uniform_exponents(coc, n, T=4.0).lambdas, n)
        assert cy.lyapunov_dimension(coc, T=4.0).value == pytest.approx(want, abs=1e-12)
    for _ in range(5):
        A = 0.5 * r.normal(size=(3, 3)) - 0.4 * np.eye(3)
        coc = constant_cocycle(A)
        want = cy.kaplan_yorke(cy.uniform_exponents(coc, 3, T=4.0).lambdas, 3)
        assert cy.lyapunov_dimension(coc, T=4.0).value == pytest.approx(want, abs=1e-12)


def test_lyapunov_dimension_saturation_and_zero():
    grow = constant_cocycle(np.diag([1.0, 0.5]))
    res = cy.lyapunov_dimension(grow, T=6.0)
    assert res == (2.0, True)
    decay = constant_cocycle(np.diag([-1.0, -2.0]))
    res0 = cy.lyapunov_dimension(decay, T=6.0)
    assert res0.value == 0.0
    assert not res0.saturated


def test_lyapunov_dimension_two_point_base():
    coc = diag_equilibria({"P": (1.0, -2.0), "Q": (0.9, -1.0)})
    # interpolated sup rates on [1,2]: max(1 - 2g, 0.9 - g); the second branch
    # keeps the max nonnegative until g = 0.9
    res = cy.lyapunov_dimension(coc, T=8.0)
    assert res.value == pytest.approx(1.9, abs=1e-12)
    assert not res.saturated
    # a base point whose full trace is positive saturates the estimate
    sat = cy.lyapunov_dimension(
        diag_equilibria({"P": (1.0, -2.0), "Q": (0.5, -0.1)}), T=8.0
    )
    assert sat == (2.0, True)


# ---------------------------------------------------- lyapunov_metric


def test_lyapunov_metric_scalar_closed_form():
    a, nu, T, dt = -0.3, 0.1, 4.0, 0.01
    coc = constant_cocycle(np.array([[a]]), h=dt)
    res = cy.lyapunov_metric(coc, nu, T, p=2.0, q="o", xi=np.array([1.5]))
    pa = 2.0 * (a - nu)
    want_norm = (1.5**2 * (math.exp(pa * T) - 1.0) / pa) ** 0.5
    assert res.value == pytest.approx(want_norm, rel=1e-7)
    # the certified exponent collapses to the true rate a
    assert res.alpha == pytest.approx(a, abs=1e-7)
    assert not res.warned


def test_lyapunov_metric_warns_when_nu_too_small():
    a, dt = -0.3, 0.01
    coc = constant_cocycle(np.array([[a]]), h=dt)
    res = cy.lyapunov_metric(coc, -0.5, 4.0, p=2.0, q="o", xi=np.array([1.0]))
    assert res.warned


def test_lyapunov_metric_p1_and_validation():
    a, dt = -0.5, 0.01
    coc = constant_cocycle(np.array([[a]]), h=dt)
    res = cy.lyapunov_metric(coc, 0.0, 3.0, p=1.0, q="o", xi=np.array([2.0]))
    want = 2.0 * (1.0 - math.exp(a * 3.0)) / 0.5
    assert res.value == pytest.approx(want, rel=1e-7)
    with pytest.raises(InputError):
        cy.lyapunov_metric(coc, 0.0, 3.0, p=0.5, q="o", xi=np.array([1.0]))
    with pytest.raises(InputError):
        cy.lyapunov_metric(coc, 0.0, 3.0, p=2.0, q="o", xi=np.array([0.0]))


def test_lyapunov_metric_annihilated_vector():
    # xi dies in one step: growth -inf < nu, so no warning; the norms are
    # (1, 0, 0, 0, 0), so n_q^2 = Simpson = 1/3 and alpha = nu - 1/(2/3)
    coc = cy.MatrixCocycle(("o",), lambda q: q, lambda q: np.diag([1.0, 0.0]), 2, 1.0)
    res = cy.lyapunov_metric(coc, 0.0, 4.0, p=2.0, q="o", xi=np.array([0.0, 1.0]))
    assert res.value == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-14)
    assert res.alpha == pytest.approx(-1.5, rel=1e-14)
    assert res.warned is False


# ---------------------------------------------------- liouville_check


def periodic_path(seed):
    r = np.random.default_rng(seed)
    A0 = r.normal(size=(4, 4))
    A1 = r.normal(size=(4, 4))

    def A(t):
        return A0 + math.sin(2.0 * math.pi * t) * A1

    return A


def test_liouville_check_accuracy_and_order():
    A = periodic_path(3)
    r = np.random.default_rng(4)
    V = r.normal(size=(4, 2))
    e1 = cy.liouville_check(A, V, T=2.0, dt=2e-3)
    e2 = cy.liouville_check(A, V, T=2.0, dt=1e-3)
    assert e2 <= 1e-5
    order = math.log2(e1 / e2)
    assert order >= 3.5


def test_liouville_check_validation():
    A = periodic_path(5)
    with pytest.raises(InputError):
        cy.liouville_check(A, np.ones(4), T=1.0, dt=1e-2)
    V = np.ones((4, 2))  # rank 1
    with pytest.raises(InputError):
        cy.liouville_check(A, V, T=1.0, dt=1e-2)
