"""Package-level acceptance checks.

Each test covers one numbered criterion, prints a single [PASS]/[FAIL] line
with the measured values (visible with `pytest -s`), and asserts every
sub-check at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from lyapdim import bounds, cli, cocycle as cy, dde, delayop as dop, tensor
from lyapdim import charroots as cr


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {num:2d} {label}: {detail}")
    assert ok, f"criterion {num} {label}: {detail}"


# ---------------------------------------------------------------- 1-3


def test_c01_classical_gain_root_and_bound(capsys):
    b = (0.2 * 2.025) ** 2  # squared delayed gain 0.164025
    bounds.lambert_root(0.8 / b)
    t0 = time.perf_counter()
    p = bounds.lambert_root(0.8 / b)
    elapsed = time.perf_counter() - t0
    coeff = b * math.exp(p + 1.0)
    rc = cli.main(["bound", "--model", "mackey_glass", "--beta", "0.2",
                   "--gamma", "0.1", "--k", "10", "--tau", "22"])
    out = capsys.readouterr().out
    d22 = float(out.strip().split("\n")[-1].split(",")[2])
    ok = (
        abs(p - 0.8034) <= 5e-4
        and abs(coeff - 0.9957) <= 5e-4
        and rc == 0
        and "0.9958*tau + 1" in out
        and d22 <= 0.9958 * 22.0 + 1.0
        and elapsed < 1e-3
    )
    verdict(1, "classical-gain root/slope", ok,
            f"p*={p:.6f} coeff={coeff:.6f} d*(22)={d22:.4f} t={elapsed*1e6:.0f}us")


def test_c02_oscillator_root_and_bound():
    bounds.suarez_schopf_bound(0.75, 1.0, 1.596)
    t0 = time.perf_counter()
    res = bounds.suarez_schopf_bound(0.75, 1.0, 1.596)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(res.p_star - 0.843807) <= 1e-5
        and abs(res.d_star - 6.675) <= 5e-3
        and elapsed < 1e-3
    )
    verdict(2, "oscillator root/bound", ok,
            f"p*={res.p_star:.6f} d*={res.d_star:.4f} t={elapsed*1e6:.0f}us")


def test_c03_rescaled_bounds():
    t0 = time.perf_counter()
    ss = bounds.suarez_schopf_scaled_bound(0.75, 1.0, 1.596)
    mg = bounds.mackey_glass_scaled_bound(0.2, 0.1, 10.0, 22.0)
    elapsed = time.perf_counter() - t0
    prod = ss.scale_opt * math.exp(ss.p_star + 1.0)
    ok = (
        abs(ss.scale_opt - 0.346771) <= 1e-4
        and abs(prod - 5.1267) <= 1e-3
        and abs(ss.d_star - 5.603) <= 5e-3
        and abs(mg.scale_opt - 1.00431) <= 1e-3
        and elapsed < 1e-2
    )
    verdict(3, "rescaled bounds", ok,
            f"kappa*={ss.scale_opt:.6f} kappa*e^(p*+1)={prod:.4f} "
            f"d*={ss.d_star:.4f} mg kappa*={mg.scale_opt:.5f} t={elapsed*1e3:.2f}ms")


# ---------------------------------------------------------------- 4-5


def test_c04_root_sums_tau22():
    t0 = time.perf_counter()
    rs = cr.char_roots(cr.CharProblem(-0.1, -0.4, 22.0), 128)
    re = rs.real_parts()
    s14, s15 = float(re[:14].sum()), float(re[:15].sum())
    nu = cr.unstable_count(rs)
    dim = cr.local_dimension(rs)
    rs0 = cr.char_roots(cr.CharProblem(-0.1, 0.2, 22.0), 64)
    nu0 = cr.unstable_count(rs0)
    dim0 = cr.local_dimension(rs0)
    elapsed = time.perf_counter() - t0
    ok = (
        s14 >= 0.03
        and s15 < 0.0
        and nu == 6
        and 14.0 < dim < 15.0
        and nu0 == 1
        and 3.0 < dim0 < 4.0
        and elapsed < 1.0
    )
    verdict(4, "root sums at tau=22", ok,
            f"S14={s14:.7f} S15={s15:.7f} N_u={nu} dim={dim:.7f}; "
            f"zero-eq N_u={nu0} dim={dim0:.7f} t={elapsed:.2f}s")


def test_c05_dimension_growth_slopes():
    taus = np.logspace(1.0, math.log10(500.0), 12)
    fams = {
        "mg": lambda t: cr.CharProblem(-0.1, -0.4, t),
        "ss": lambda t: cr.CharProblem(0.25, -0.75, t),
        "ss0": lambda t: cr.CharProblem(1.0, -0.75, t),
    }
    t0 = time.perf_counter()
    fit = {
        (name, q): cr.asymptotic_slope(fam, q, taus)
        for name, fam in fams.items()
        for q in ("local_dimension", "unstable_count")
        if not (name == "ss0" and q == "unstable_count")
    }
    elapsed = time.perf_counter() - t0
    # smooth fits must be half-decade stable to 0.01, staircases to 0.02
    stable = all(
        abs(f.half_decade_slopes[0] - f.half_decade_slopes[1])
        <= (0.02 if q == "unstable_count" else 0.01)
        for (name, q), f in fit.items()
    )
    vals = {k: f.slope for k, f in fit.items()}
    ok = (
        abs(vals[("mg", "local_dimension")] - 0.2936) <= 0.01
        and abs(vals[("mg", "unstable_count")] - 0.1232) <= 0.01
        and abs(vals[("ss", "local_dimension")] - 0.961) <= 0.02
        and abs(vals[("ss", "unstable_count")] - 0.225) <= 0.01
        and abs(vals[("ss0", "local_dimension")] - 1.645) <= 0.02
        and stable
        and elapsed < 120.0
    )
    verdict(5, "dimension growth slopes", ok,
            f"mg C_L={vals[('mg', 'local_dimension')]:.4f} "
            f"mg C_u={vals[('mg', 'unstable_count')]:.4f} "
            f"ss C_L={vals[('ss', 'local_dimension')]:.4f} "
            f"ss C_u={vals[('ss', 'unstable_count')]:.4f} "
            f"ss0 C_L={vals[('ss0', 'local_dimension')]:.4f} "
            f"stable={stable} t={elapsed:.0f}s")


# ---------------------------------------------------------------- 6-8


def test_c06_compound_norm_identity():
    r = np.random.default_rng(106)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(r.integers(1, 7))
        L = r.normal(size=(n, n))
        sv = tensor.singular_values(L)
        for m in range(1, n + 1):
            lhs = float(np.linalg.norm(tensor.compound_multiplicative(L, m), 2))
            rhs = float(np.prod(sv[:m]))
            worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    verdict(6, "compound norm identity", ok,
            f"1000 matrices, worst rel err {worst:.2e} t={elapsed:.1f}s")


def test_c07_horn_and_interpolation():
    r = np.random.default_rng(107)
    t0 = time.perf_counter()
    horn_bad = interp_bad = 0
    for _ in range(1000):
        n = int(r.integers(2, 7))
        A = r.normal(size=(n, n))
        B = r.normal(size=(n, n))
        d = float(r.uniform(0.0, n))
        if tensor.omega_d(B @ A, d) > tensor.omega_d(A, d) * tensor.omega_d(B, d) * (
            1.0 + 1e-12
        ) + 1e-300:
            horn_bad += 1
        di = float(r.uniform(0.0, n - 0.01))
        m, g = int(math.floor(di)), di - math.floor(di)
        sv = tensor.singular_values(A)
        want = float(np.prod(sv[:m])) ** (1.0 - g) * float(np.prod(sv[: m + 1])) ** g
        if abs(tensor.omega_d(A, di) - want) > 1e-12 * max(want, 1e-300):
            interp_bad += 1
    elapsed = time.perf_counter() - t0
    ok = horn_bad == 0 and interp_bad == 0 and elapsed < 10.0
    verdict(7, "product inequality + interpolation", ok,
            f"1000 pairs, violations horn={horn_bad} interp={interp_bad} t={elapsed:.1f}s")


def test_c08_trace_numbers_vs_frames():
    r = np.random.default_rng(108)
    t0 = time.perf_counter()
    frame_bad = 0
    worst_eig = 0.0
    for _ in range(500):
        n = int(r.integers(2, 7))
        A = r.normal(size=(n, n))
        S = 0.5 * (A + A.T)
        k = int(r.integers(1, n + 1))
        top = float(tensor.trace_numbers(A, k).sum())
        Q = np.linalg.qr(r.normal(size=(200, n, k)))[0]
        traces = np.einsum("fni,nm,fmi->f", Q, S, Q)
        frame_bad += int(np.sum(traces > top + 1e-9))
        m = int(r.integers(1, n + 1))
        lam = float(np.linalg.eigvalsh(tensor.compound_additive(S, m)).max())
        ref = float(tensor.trace_numbers(A, m).sum())
        worst_eig = max(worst_eig, abs(lam - ref) / max(abs(ref), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = frame_bad == 0 and worst_eig <= 1e-9 and elapsed < 30.0
    verdict(8, "trace numbers dominate frames", ok,
            f"500 matrices x 200 frames, violations={frame_bad} "
            f"eig rel err {worst_eig:.2e} t={elapsed:.1f}s")


# ---------------------------------------------------------------- 9-10


def test_c09_nonmonotone_exponents():
    table = {
        "A": (1.0, -1.0, -1.0),
        "B": (0.5, 0.0, -1.0),
        "C": (0.2, 0.2, 0.2),
    }
    coc = cy.MatrixCocycle(
        tuple(table),
        lambda q: q,
        lambda q: np.diag(np.exp(0.5 * np.asarray(table[q]))),
        3,
        0.5,
    )
    rep = cy.uniform_exponents(coc, 3, T=8.0)
    lam_ok = np.allclose(rep.lambdas, [1.0, -0.5, 0.1], atol=1e-12)
    sums = np.cumsum(rep.lambdas)
    evp_ok = all(
        cy.evp_finite_base(coc, m).max_rate == pytest.approx(sums[m - 1], abs=1e-12)
        for m in (1, 2, 3)
    )
    ky = cy.kaplan_yorke(rep.lambdas, 3)
    ok = lam_ok and evp_ok and ky == 3.0
    verdict(9, "non-monotone exponents", ok,
            f"lambdas={tuple(float(v) for v in rep.lambdas)} evp={evp_ok} ky={ky}")


def test_c10_volume_trace_formula():
    r = np.random.default_rng(110)
    A0 = r.normal(size=(4, 4))
    A1 = r.normal(size=(4, 4))
    A = lambda t: A0 + math.sin(2.0 * math.pi * t) * A1
    V = r.normal(size=(4, 2))
    t0 = time.perf_counter()
    e1 = cy.liouville_check(A, V, T=2.0, dt=2e-3)
    e2 = cy.liouville_check(A, V, T=2.0, dt=1e-3)
    elapsed = time.perf_counter() - t0
    order = math.log2(e1 / e2)
    ok = e2 <= 1e-5 and order >= 3.5 and elapsed < 5.0
    verdict(10, "volume trace formula", ok,
            f"err(1e-3)={e2:.2e} order={order:.2f} t={elapsed:.1f}s")


# ---------------------------------------------------------------- 11

TAU, KAPPA = 1.3, 0.7


def adjoint_element(spec, profile, grid, y, G):
    """Element of the adjoint domain: eta = rho psi with eta(-tau) = L_tau^T y
    and tap-sized jumps at interior nodes, built on a smooth base G."""
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


def kinkless(th, c, pts):
    """|th - c|^{3/2} minus its polynomial interpolant through pts, so the
    result vanishes at every pt while keeping the interior kink."""
    th = np.asarray(th)
    V = np.vander(np.asarray(pts), len(pts))
    coef = np.linalg.solve(V, np.abs(np.asarray(pts) - c) ** 1.5)
    return np.abs(th - c) ** 1.5 - np.vander(th, len(pts)) @ coef


def scalar_setup(order):
    spec = dop.DelayOperatorSpec(1, TAU, [[-0.3]], [[0.8]])
    profile = dop.WeightProfile((KAPPA,), (-TAU, 0.0))
    return spec, profile, dop.TailGrid.for_profile(profile, order)


def two_d_setup(order):
    rng = np.random.default_rng(11)
    tau1 = 0.5
    L0 = rng.normal(size=(2, 2))
    L_tau = rng.normal(size=(2, 2))
    L1 = np.array([[1.0, 0.0], [2.0, 0.0]])  # ker L1^T = span (-2, 1)
    spec = dop.DelayOperatorSpec(2, TAU, L0, L_tau, taps=((tau1, L1),))
    profile = dop.WeightProfile((0.4, 0.9), (-TAU, -tau1, 0.0))
    return spec, profile, dop.TailGrid.for_profile(profile, order)


def adjoint_defect_scalar(order):
    spec, profile, grid = scalar_setup(order)
    fv = lambda th: 1.2 * np.cos(1.1 * np.asarray(th)) + np.abs(np.asarray(th) + 0.45) ** 1.5
    v = dop.DiscretizedElement.from_functions(grid, [fv(np.array([0.0]))[0]], fv)

    def G(th):
        th = np.asarray(th)
        return (np.cos(0.9 * th) + 0.3 * np.sin(2.0 * th) + 0.4 + np.abs(th + 0.85) ** 1.5)[:, None]

    w = adjoint_element(spec, profile, grid, np.array([0.9]), G)
    lhs = dop.weighted_inner(dop.apply_L(spec, v), w, profile)
    rhs = dop.weighted_inner(v, dop.apply_L_star(spec, profile, w), profile)
    return abs(lhs - rhs)


def adjoint_defect_2d(order):
    spec, profile, grid = two_d_setup(order)
    rng = np.random.default_rng(23)
    u, x2, y2 = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)

    def fv(th):
        th = np.asarray(th)
        return np.cos(1.1 * th)[:, None] * x2[None, :] + (np.abs(th + 0.9) ** 1.5)[
            :, None
        ] * u[None, :]

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


def sym_defect_scalar(order):
    spec, profile, grid = scalar_setup(order)

    def crossing(x, c, amp):
        # tail(0) = x and rho(-tau) tail(-tau) = L_tau^T x, plus an interior kink
        target = 0.8 * x * math.exp(KAPPA * TAU)
        slope = (math.cos(1.1 * TAU) - target / x) / TAU

        def f(th):
            th = np.asarray(th)
            return x * (np.cos(1.1 * th) + slope * th) + amp * kinkless(th, c, [0.0, -TAU])

        return dop.DiscretizedElement.from_functions(grid, [x], f)

    v = crossing(1.0, -0.45, 0.6)
    w = crossing(0.37, -0.85, 0.8)
    lhs = 2.0 * dop.weighted_inner(dop.symmetrize_S(spec, profile, v), w, profile)
    rhs = dop.weighted_inner(dop.apply_L(spec, v), w, profile) + dop.weighted_inner(
        v, dop.apply_L(spec, w), profile
    )
    return abs(lhs - rhs)


def sym_defect_2d(order):
    spec, profile, grid = two_d_setup(order)
    th_pts = [0.0, -0.5, -TAU]
    V = np.vander(np.array(th_pts), 3)

    def crossing(scale, c, amp_vec):
        # head in ker L1^T, tail through the three boundary values, plus a kink
        y = scale * np.array([-2.0, 1.0])
        v_tau = math.exp(profile.kappas[1] * TAU) * (spec.L_tau.T @ y)
        coef = np.linalg.solve(V, np.stack([y, np.zeros(2), v_tau]))

        def f(th):
            th = np.asarray(th)
            return np.vander(th, 3) @ coef + kinkless(th, c, th_pts)[:, None] * amp_vec[None, :]

        return dop.DiscretizedElement.from_functions(grid, y, f)

    v = crossing(0.8, -0.9, np.array([0.5, -0.7]))
    w = crossing(-0.6, -0.3, np.array([-0.4, 0.9]))
    lhs = 2.0 * dop.weighted_inner(dop.symmetrize_S(spec, profile, v), w, profile)
    rhs = dop.weighted_inner(dop.apply_L(spec, v), w, profile) + dop.weighted_inner(
        v, dop.apply_L(spec, w), profile
    )
    return abs(lhs - rhs)


def test_c11_delay_symmetrization():
    t0 = time.perf_counter()
    orders = {}
    for name, defect in (
        ("adj1", adjoint_defect_scalar),
        ("adj2", adjoint_defect_2d),
        ("sym1", sym_defect_scalar),
        ("sym2", sym_defect_2d),
    ):
        errs = [defect(o) for o in (32, 64, 128)]
        orders[name] = min(math.log2(a / b) for a, b in zip(errs, errs[1:]))
    beta, gamma, k = 0.2, 0.1, 10.0
    fp = (2.0 - k) / 4.0
    spec, profile, _ = scalar_setup(32)
    mspec = dop.DelayOperatorSpec(1, TAU, [[-gamma]], [[beta * fp]])
    _, ev = dop.symmetrized_matrix(mspec, profile)
    want = 1.0 - 2.0 * gamma + beta**2 * math.exp(KAPPA * TAU) * fp**2
    eig_err = abs(ev[0] - want)
    elapsed = time.perf_counter() - t0
    ok = all(o >= 2.0 for o in orders.values()) and eig_err <= 1e-10 and elapsed < 30.0
    verdict(11, "delay symmetrization", ok,
            "orders " + " ".join(f"{k_}={v:.2f}" for k_, v in orders.items())
            + f" eig err {eig_err:.2e} t={elapsed:.1f}s")


# ---------------------------------------------------------------- 12-13


def test_c12_numerical_ky_under_bound():
    t0 = time.perf_counter()
    rows = []
    ok = True
    for tau in (17.0, 22.0, 30.0):
        mg = dde.mackey_glass(0.2, 0.1, 10.0, tau)
        rep = dde.numerical_lyapunov_spectrum(
            mg, burn_in=50.0 * tau, horizon=100.0 * tau, m=6, seed=2
        )
        bound = bounds.mackey_glass_bound(0.2, 0.1, 10.0, tau).d_star
        rows.append((tau, rep.lambdas[0], rep.ky, bound))
        ok = ok and 2.0 <= rep.ky <= bound and bound <= 0.9958 * tau + 1.0
        if tau == 22.0:
            ok = ok and rep.lambdas[0] > 0.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    # the reported observable range [2, 3.6] is a plausibility window only
    detail = " ".join(
        f"tau={t:.0f}(lam1={l:.5f} ky={k_:.4f} bound={b:.2f})" for t, l, k_, b in rows
    )
    verdict(12, "numerical ky under bound", ok, detail + f" t={elapsed:.0f}s")


def test_c13_invariant_ball():
    r0 = bounds.mackey_glass_ball_radius(0.2, 0.1, 10.0)
    tau = 22.0
    mg = dde.mackey_glass(0.2, 0.1, 10.0, tau)
    t0 = time.perf_counter()
    rep = dde.invariant_ball_check(mg, r0, 100, 50.0 * tau, seed=0)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and rep.max_norm <= r0 and elapsed < 120.0
    verdict(13, "invariant ball", ok,
            f"100 histories T={50 * tau:.0f}, max |x|={rep.max_norm:.7f} "
            f"R0={r0:.7f} t={elapsed:.0f}s")
