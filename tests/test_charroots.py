"""Characteristic roots of p = a + b e^{-tau p}.

Primary oracle: Lambert-W branch enumeration.  Substituting w = tau (p - a)
turns the characteristic equation into w e^w = tau b e^{-tau a}, so the full
root set is p = a + W_k(tau b e^{-tau a}) / tau over all integer branches k.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lyapdim import charroots as cr
from lyapdim.errors import InputError, NeedsMoreRootsError, NumericalFailure

mpmath.mp.dps = 30


def lambertw_roots(a: float, b: float, tau: float, count: int) -> np.ndarray:
    """Top `count` roots by (Re desc, Im desc), from branch enumeration."""
    x = tau * b * math.exp(-tau * a)
    ps = []
    for k in range(-(count + 10), count + 11):
        w = mpmath.lambertw(x, k)
        if not mpmath.isnan(w):
            ps.append(a + complex(w) / tau)
    ps = np.array(ps)
    order = np.lexsort((-ps.imag, -ps.real))
    return ps[order][:count]


def sort_roots(z: np.ndarray) -> np.ndarray:
    return z[np.lexsort((-z.imag, -z.real))]


def mp_leading_roots(a: float, b: float, tau: float, count: int) -> np.ndarray:
    """Like lambertw_roots, with z = tau b e^{-tau a} formed in mpmath, so it
    holds where z leaves the double range."""
    a_, tau_ = mpmath.mpf(a), mpmath.mpf(tau)
    z = mpmath.mpf(b) * tau_ * mpmath.exp(-a_ * tau_)
    ps = np.array(
        [complex(a_ + mpmath.lambertw(z, k) / tau_) for k in range(-(count + 4), count + 5)]
    )
    return sort_roots(ps)[:count]


def assert_leading_roots(got: np.ndarray, want: np.ndarray, tol) -> None:
    """Same real parts in order, and every root near an oracle root; robust
    to a swap of roots whose real parts agree to rounding."""
    n = got.size
    assert np.all(np.abs(np.sort(got.real)[::-1] - want.real[:n]) <= np.broadcast_to(tol, want.shape)[:n])
    for g in got:
        i = int(np.argmin(np.abs(want - g)))
        assert abs(want[i] - g) <= np.broadcast_to(tol, want.shape)[i]


PROBLEMS = [
    (-0.1, -0.4, 22.0),
    (-0.1, 0.2, 22.0),
    (1.0, -0.5625, 1.596),
    (0.5, 1.5, 3.0),
    (-2.0, -3.0, 0.7),
]


def test_char_roots_match_lambertw_branches():
    for a, b, tau in PROBLEMS:
        n = 12
        got = cr.char_roots(cr.CharProblem(a, b, tau), n)
        want = lambertw_roots(a, b, tau, n)
        assert got.roots.size == n
        assert not got.partial
        scale = 1.0 + np.abs(want)
        assert np.all(np.abs(sort_roots(got.roots) - want) <= 1e-9 * scale)


def test_char_roots_residuals_order_conjugacy():
    for a, b, tau in PROBLEMS:
        rs = cr.char_roots(cr.CharProblem(a, b, tau), 17)
        prob = cr.CharProblem(a, b, tau)
        assert np.all(rs.residuals <= 1e-9 * (1.0 + np.abs(rs.roots)))
        assert np.all(np.diff(rs.real_parts()) <= 1e-12)
        # conjugate closure away from the truncation tier
        tier = rs.roots.real.min() + 1e-9
        nonreal = rs.roots[np.abs(rs.roots.imag) > 1e-10 * (1 + np.abs(rs.roots))]
        for z in nonreal[nonreal.real > tier]:
            assert np.min(np.abs(nonreal - z.conjugate())) < 1e-8 * (1 + abs(z))


def test_char_roots_no_delay_term():
    rs = cr.char_roots(cr.CharProblem(0.7, 0.0, 5.0), 1)
    assert rs.roots.tolist() == [0.7 + 0j]
    assert not rs.partial
    rs3 = cr.char_roots(cr.CharProblem(0.7, 0.0, 5.0), 3)
    assert rs3.partial
    assert len(rs3) == 1


def test_char_problem_validation():
    with pytest.raises(InputError):
        cr.CharProblem(0.0, 1.0, 0.0)
    with pytest.raises(InputError):
        cr.CharProblem(float("inf"), 1.0, 1.0)
    with pytest.raises(InputError):
        cr.CharProblem(0.0, float("nan"), 1.0)
    with pytest.raises(InputError):
        cr.char_roots(cr.CharProblem(0.0, 1.0, 1.0), 0)


def test_double_root_exact_branch_point():
    # tau b e^{-tau a} = -1/e merges branches 0 and -1 at p = a - 1/tau
    rs = cr.char_roots(cr.CharProblem(1.0, -1.0, 1.0), 4)
    assert rs.multiplicities[0] == 2
    assert rs.multiplicities[1] == 2
    assert rs.roots[0] == rs.roots[1]
    assert abs(rs.roots[0] - 0.0) < 1e-12
    assert abs(rs.roots[0].imag) == 0.0


def test_double_root_generic_parameters():
    tau, a = 2.0, 0.3
    b = -math.exp(tau * a - 1.0) / tau
    rs = cr.char_roots(cr.CharProblem(a, b, tau), 6)
    want = a - 1.0 / tau
    assert rs.roots[0] == pytest.approx(want, abs=1e-10)
    assert rs.roots[0] == rs.roots[1]
    assert tuple(rs.multiplicities[:2]) == (2, 2)
    # simple roots further down keep multiplicity 1
    assert np.all(rs.multiplicities[2:] == 1)


def test_halfplane_count_matches_enumeration():
    for a, b, tau in PROBLEMS:
        want_all = lambertw_roots(a, b, tau, 40)
        for c in (-0.05, 0.0, 0.12):
            want = int(np.sum(want_all.real > c))
            assert cr.halfplane_count(cr.CharProblem(a, b, tau), c) == want


@pytest.mark.parametrize("a, b", [(-0.1, -0.4), (0.25, -0.75), (1.0, -0.75)])
@pytest.mark.parametrize("tau", [50.0, 125.0, 500.0])
def test_halfplane_count_large_delay_against_lambertw(a, b, tau):
    # e^{-tau p} turns with period 2 pi/tau along the contour; edges sampled
    # at a fixed density alias at these delays and return wrong, even
    # negative, counts
    for c in (0.0, -1.5 / tau):
        # Re p > c  <=>  |W| < R, and |Im W_k| > (2|k| - 2) pi for k != 0
        R = abs(b) * tau * math.exp(-tau * c)
        K = int(R / (2.0 * math.pi)) + 2
        z = mpmath.mpf(b) * tau * mpmath.exp(-mpmath.mpf(a) * tau)
        want = sum(
            1 for k in range(-K, K + 1) if a + float(mpmath.re(mpmath.lambertw(z, k))) / tau > c
        )
        assert cr.halfplane_count(cr.CharProblem(a, b, tau), c) == want


@pytest.mark.parametrize(
    "a, b, tau, c, want",
    [
        (-0.1, -0.4, 125.0, 0.0, 16),
        (0.25, -0.75, 50.0, -0.024, 40),
        (1.0, -0.75, 125.0, -0.0124, 136),
        # Y = 0, nothing to sample: a + |b| e^{-tau c} < c, no root reaches
        # the line; and a right of c, where the one root near a counts
        (-2.25, -0.41, 14.25, 0.0, 0),
        (1.0, 0.1, 5.0, 0.0, 1),
        # the double root p = 0 of p = 1 - e^{-p} on or near the real end of
        # the segment turns the phase by 2 pi within a short stretch
        (1.0, -1.0, 1.0, 0.0, 0),
        (1.0, -1.0, 1.0, -1e-3, 2),
        (1.0, -1.0, 1.0, 1e-3, 0),
        # a on the line Re p = c: the factor a - p vanishes on the segment
        (0.0, -1.0, 10.0, 0.0, 4),
        # sampling the whole enclosing rectangle needed more than the cap
        (0.71314858775206, 0.9750817822991673, 9872.151301872756, -2.884541698468667e-4, 52801),
    ],
)
def test_halfplane_count_regressions(a, b, tau, c, want):
    prob = cr.CharProblem(a, b, tau)
    assert cr.halfplane_count(prob, c) == want
    assert int(np.sum(cr.char_roots(prob, want + 4).real_parts() > c)) == want


def assert_count_matches_char_roots(prob, c):
    n = cr.halfplane_count(prob, c)
    re = cr.char_roots(prob, n + 2).real_parts()
    assume(np.min(np.abs(re - c)) > 1e-6)  # clear of the contour nudge
    assert int(np.sum(re > c)) == n


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-3.0, 3.0),
    st.floats(0.1, 1.5),
    st.sampled_from([-1.0, 1.0]),
    st.floats(0.5, 500.0),
    st.floats(-2.0, 2.0),
)
def test_halfplane_count_matches_char_roots(a, b_mag, b_sign, tau, c_tau):
    assert_count_matches_char_roots(cr.CharProblem(a, b_sign * b_mag, tau), c_tau / tau)


def test_halfplane_count_overflowing_radius_raises():
    # e^{-tau c} overflows (c = -1), or only the squared radius does (c = -0.5)
    for c in (-1.0, -0.5):
        with pytest.raises(NumericalFailure):
            cr.halfplane_count(cr.CharProblem(0.0, 1.0, 1000.0), c)


def test_non_integer_or_negative_winding_raises(monkeypatch):
    # the phase sampled along the segment must close to a nonnegative
    # integer count; a wrong phase is reported, never rounded into a count
    prob = cr.CharProblem(0.5, 1.5, 3.0)
    assert cr.halfplane_count(prob, 0.0) == 1
    sampled = cr._segment_phase
    monkeypatch.setattr(cr, "_segment_phase", lambda *args: sampled(*args) + 0.5)
    with pytest.raises(NumericalFailure):
        cr.halfplane_count(prob, 0.0)
    monkeypatch.setattr(cr, "_segment_phase", lambda *args: sampled(*args) + 6.0 * math.pi)
    with pytest.raises(NumericalFailure):
        cr.halfplane_count(prob, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(700.0, 1500.0),
    st.floats(0.2, 2.0),
    st.sampled_from([-1.0, 1.0]),
    st.floats(0.05, 2.0),
    st.sampled_from([-1.0, 1.0]),
    st.floats(-3.0, 3.0),
)
def test_halfplane_count_log_space_against_char_roots(a_tau, a_mag, a_sign, b_mag, b_sign, c_tau):
    # |a| tau this large puts the roots on the log-space branches
    a, tau = a_sign * a_mag, a_tau / a_mag
    assert_count_matches_char_roots(cr.CharProblem(a, b_sign * b_mag, tau), c_tau / tau)


def lambert_branches(log_abs_z: float, sign: float, K: int) -> np.ndarray:
    """W_{-1}, W_0, W_1..W_K of z = sign e^{log_abs_z} as char_roots builds
    them: the central branches, then the chain (a nonreal W_{-1} is the
    conjugate of W_0 or of W_1)."""
    real, _, upper = cr._central_w(-log_abs_z, sign, 1.0, log_abs_z)
    chain = cr._log_space_w(log_abs_z + 1j * (math.pi * (sign < 0) + 2.0 * math.pi * np.arange(1, K + 1)))
    w0 = complex(real[0]) if real else upper[0]
    wm1 = complex(real[1]) if len(real) == 2 else (w0 if upper else chain[0]).conjugate()
    return np.concatenate([[wm1, w0], chain])


# (log|z|, sign): z = -(1 - d)/e on either side of the series/iteration
# switches at d = 5e-5 (q = 1e-2) and d = 0.3, on both sides of -1/e; far
# from it; and |log z| on either side of 600, where z itself leaves the
# double range
BRANCH_CASES = [
    *[(math.log1p(-d) - 1.0, -1.0) for d in (1e-10, 4e-5, 6e-5, 0.29, 0.31, 0.9)],
    *[(math.log1p(d) - 1.0, -1.0) for d in (1e-10, 4e-5, 6e-5, 0.29, 0.31, 5.0)],
    *[(lz, s) for lz in (-700.0, -601.0, -599.0, -20.0, 0.0, 7.0, 230.0, 599.0, 601.0) for s in (-1.0, 1.0)],
]


@pytest.mark.parametrize("log_abs_z, sign", BRANCH_CASES)
def test_lambert_branches_against_mpmath(log_abs_z, sign):
    K = 40
    got = lambert_branches(log_abs_z, sign, K)
    z = sign * mpmath.exp(mpmath.mpf(log_abs_z))
    want = np.array([complex(mpmath.lambertw(z, k)) for k in range(-1, K + 1)])
    # z is formed from log|z| with a relative rounding error of about
    # eps (1 + |log z|), which moves W by that times |W/(1 + W)|
    eps_z = 4 * np.finfo(float).eps * (1.0 + abs(log_abs_z))
    tol = 1e-15 * np.abs(want) + eps_z * np.abs(want / (1.0 + want))
    assert np.all(np.abs(got - want) <= tol), np.abs(got - want) / tol


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-1.0, 1.0),
    st.floats(0.5, 20.0),
    st.floats(-12.0, -2.0),
    st.sampled_from([-1.0, 1.0]),
    st.floats(-1.0, 1.0),
)
def test_halfplane_count_near_branch_point(a, tau, log_delta, side, offset):
    # z = -(1 + delta)/e: a near-double root at a - 1/tau, c within 1/tau of it
    b = -(1.0 + side * 10.0**log_delta) * math.exp(a * tau - 1.0) / tau
    assert_count_matches_char_roots(cr.CharProblem(a, b, tau), a + (offset - 1.0) / tau)


def test_halfplane_count_counts_multiplicity():
    # double root at 0 contributes 2 to the count over Re > -0.5
    assert cr.halfplane_count(cr.CharProblem(1.0, -1.0, 1.0), -0.5) == 2
    assert cr.halfplane_count(cr.CharProblem(0.7, 0.0, 5.0), 0.0) == 1
    assert cr.halfplane_count(cr.CharProblem(-0.7, 0.0, 5.0), 0.0) == 0


def test_unstable_count_frozen_and_uncertified():
    rs = cr.char_roots(cr.CharProblem(-0.1, -0.4, 22.0), 64)
    assert cr.unstable_count(rs) == 4
    rs0 = cr.char_roots(cr.CharProblem(-0.1, 0.2, 22.0), 16)
    assert cr.unstable_count(rs0) == 1
    # a window showing only unstable roots certifies nothing
    few = cr.char_roots(cr.CharProblem(-0.1, -0.4, 22.0), 2)
    assert np.all(few.real_parts() > 0)
    with pytest.raises(NeedsMoreRootsError):
        cr.unstable_count(few)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(700.0, 1500.0),
    st.floats(0.2, 2.0),
    st.sampled_from([-1.0, 1.0]),
    st.floats(0.05, 2.0),
    st.sampled_from([-1.0, 1.0]),
)
def test_char_roots_log_space_against_mpmath(a_tau, a_mag, a_sign, b_mag, b_sign):
    # |a| tau this large puts z = tau b e^{-tau a} outside the double range
    a, tau, b = a_sign * a_mag, a_tau / a_mag, b_sign * b_mag
    rs = cr.char_roots(cr.CharProblem(a, b, tau), 10)
    want = mp_leading_roots(a, b, tau, 12)
    assert_leading_roots(rs.roots, want, 1e-9 * (1.0 + np.abs(want)))
    assert np.all(rs.residuals <= 1e-9 * (1.0 + np.abs(rs.roots)))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-1.0, 1.0),
    st.floats(0.5, 20.0),
    st.floats(-12.0, -2.0),
    st.sampled_from([-1.0, 1.0]),
)
def test_char_roots_near_branch_point(a, tau, log_delta, side):
    # z = -(1 + delta)/e: branches 0 and -1 split by about sqrt(2 |delta|)
    b = -(1.0 + side * 10.0**log_delta) * math.exp(a * tau - 1.0) / tau
    rs = cr.char_roots(cr.CharProblem(a, b, tau), 6)
    want = mp_leading_roots(a, b, tau, 8)
    # a relative rounding eps of z moves W by eps |W/(1 + W)|
    eps_z = 16 * np.finfo(float).eps * (3.0 + abs(a) * tau)
    w = tau * (want - a)
    tol = 1e-12 * (1.0 + np.abs(want)) + eps_z * np.abs(w / (1.0 + w)) / tau
    assert_leading_roots(rs.roots, want, tol)


def test_unstable_count_slope_at_large_delay():
    # delays the eigenvalue route could not reach: the unstable chain fills
    # |Im p| < sqrt(b^2 - a^2), tau/pi roots per unit frequency
    a, b = -0.1, -0.4
    taus = np.logspace(3.0, 4.0, 8)
    fit = cr.asymptotic_slope(lambda t: cr.CharProblem(a, b, t), "unstable_count", taus)
    assert fit.slope == pytest.approx(math.sqrt(b * b - a * a) / math.pi, abs=1e-3)


def test_determined_roots_certifies_both_quantities():
    prob = cr.CharProblem(-0.1, -0.4, 22.0)
    rs = cr.determined_roots(prob, "unstable_count", "local_dimension")
    assert cr.unstable_count(rs) == 4
    assert cr.local_dimension(rs) == pytest.approx(6.8729903, abs=1e-5)
    # the single root of a delay-free problem is all there is
    assert cr.determined_roots(cr.CharProblem(-0.7, 0.0, 5.0), "local_dimension").roots.tolist() == [-0.7 + 0j]
    with pytest.raises(InputError):
        cr.determined_roots(prob, "spectral_abscissa")
    with pytest.raises(InputError):
        cr.determined_roots(prob)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-3.0, 3.0),
    st.floats(-2.0, 0.5),
    st.sampled_from([-1.0, 1.0]),
    st.floats(-1.0, 2.5),
)
def test_determined_roots_certifies_random_problems(a, log_b, b_sign, log_tau):
    prob = cr.CharProblem(a, b_sign * 10.0**log_b, 10.0**log_tau)
    rs = cr.determined_roots(prob, "unstable_count", "local_dimension")
    assert cr.unstable_count(rs) == cr.halfplane_count(prob, 0.0)
    assert cr.local_dimension(rs) >= 0.0


def test_determined_roots_with_a_double_root_at_zero():
    # p = 1 - e^{-p}: z = -1/e, and p = 0 is a double root on the line Re p = 0
    rs = cr.determined_roots(cr.CharProblem(1.0, -1.0, 1.0), "unstable_count", "local_dimension")
    assert cr.unstable_count(rs) == 0
    assert cr.local_dimension(rs) == 2.0


def test_determined_roots_raises_on_disagreeing_certificate(monkeypatch):
    prob = cr.CharProblem(-0.1, -0.4, 22.0)
    monkeypatch.setattr(cr, "halfplane_count", lambda p, c: 5)
    for q in ("unstable_count", "local_dimension"):
        with pytest.raises(NumericalFailure):
            cr.determined_roots(prob, q)


def make_rootset(reals):
    z = np.asarray(reals, dtype=complex)
    return cr.RootSet(z, z.size, np.zeros(z.size), np.ones(z.size, dtype=int))


def test_local_dimension_formula():
    # last nonnegative partial sum at j=3: 3 + 1.1/2.0
    assert cr.local_dimension(make_rootset([1.0, 0.5, -0.4, -2.0])) == pytest.approx(3.55)
    # exact-zero partial sum is included
    assert cr.local_dimension(make_rootset([1.0, -1.0, -0.5])) == pytest.approx(2.0)
    # leading root already negative
    assert cr.local_dimension(make_rootset([-0.3, -1.0])) == 0.0
    with pytest.raises(NeedsMoreRootsError):
        cr.local_dimension(make_rootset([1.0, -0.2, -0.3]))  # sums stay >= 0


def test_local_dimension_at_large_delay_against_mpmath():
    # about 540 real parts near zero are summed and divided by |Re p| of
    # about 3e-3; a + Re W_k/tau cancels, and its rounding errors share a
    # sign, which put the sum 4.4e-12 off
    a, b, tau = 1.0, -0.75, 500.0
    rs = cr.determined_roots(cr.CharProblem(a, b, tau), "local_dimension")
    got = cr.local_dimension(rs)
    a_, tau_ = mpmath.mpf(a), mpmath.mpf(tau)
    z = mpmath.mpf(b) * tau_ * mpmath.exp(-a_ * tau_)
    K = int(got) // 2 + 8
    re = sorted((mpmath.re(a_ + mpmath.lambertw(z, k) / tau_) for k in range(-K, K + 1)), reverse=True)
    s, j = mpmath.mpf(0), 0
    while s + re[j] >= 0:
        s, j = s + re[j], j + 1
    want = j + s / abs(re[j])
    assert abs(got - want) <= 1e-13


def test_local_dimension_frozen_values():
    rs = cr.char_roots(cr.CharProblem(-0.1, -0.4, 22.0), 128)
    re = rs.real_parts()
    assert float(re[:14].sum()) == pytest.approx(-0.4007833, abs=1e-6)
    assert float(re[:15].sum()) == pytest.approx(-0.4755319, abs=1e-6)
    assert cr.local_dimension(rs) == pytest.approx(6.8729903, abs=1e-5)
    rs0 = cr.char_roots(cr.CharProblem(-0.1, 0.2, 22.0), 64)
    assert cr.local_dimension(rs0) == pytest.approx(3.0648951, abs=1e-5)


def test_asymptotic_slope_validation():
    fam = lambda t: cr.CharProblem(-0.1, -0.4, t)
    with pytest.raises(InputError):
        cr.asymptotic_slope(fam, "local_dimension", np.linspace(10, 100, 7))
    with pytest.raises(InputError):
        cr.asymptotic_slope(fam, "local_dimension", np.linspace(10, 90, 12))
    with pytest.raises(InputError):
        cr.asymptotic_slope(fam, "spectral_abscissa", np.logspace(1, 2, 12))


def test_asymptotic_slope_short_range():
    fam = lambda t: cr.CharProblem(-0.1, -0.4, t)
    taus = np.logspace(1, 2, 9)
    fit = cr.asymptotic_slope(fam, "local_dimension", taus)
    assert fit.slope == pytest.approx(0.294, abs=0.01)
    assert fit.r_squared > 0.999
    assert not fit.low_confidence
    assert fit.half_decade_spread < 0.01
    assert fit.values.shape == taus.shape
    # integer staircase fits poorly over one decade: flag must trip
    fu = cr.asymptotic_slope(fam, "unstable_count", taus)
    assert fu.slope == pytest.approx(math.sqrt(0.16 - 0.01) / math.pi, abs=0.02)
    assert fu.low_confidence


def test_asymptotic_slope_sorts_a_descending_grid():
    fam = lambda t: cr.CharProblem(-0.1, -0.4, t)
    taus = np.logspace(1, 2, 9)
    up = cr.asymptotic_slope(fam, "local_dimension", taus)
    down = cr.asymptotic_slope(fam, "local_dimension", taus[::-1])
    assert np.array_equal(down.taus, up.taus)
    assert np.array_equal(down.values, up.values)
    assert down.slope == up.slope


def test_sorting_convention():
    rs = cr.char_roots(cr.CharProblem(0.5, 1.5, 3.0), 9)
    z = rs.roots
    for i in range(z.size - 1):
        assert (z[i].real, -z[i].imag) <= (z[i + 1].real, -z[i + 1].imag) or (
            z[i].real >= z[i + 1].real
        )
    # equal real parts within a conjugate pair order +Im before -Im
    for i in range(z.size - 1):
        if abs(z[i].real - z[i + 1].real) < 1e-14:
            assert z[i].imag >= z[i + 1].imag - 1e-14
