"""Exterior-power volume calculus: wedge Grams, compounds, omega_d, trace
numbers.  Oracles: direct determinant/permutation sums, scipy expm, eigsums."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lyapdim import tensor
from lyapdim.errors import InputError


def rng(seed=0):
    return np.random.default_rng(seed)


# ------------------------------------------------------------- wedge_gram


def gram_det_oracle(u, v, metric=None):
    m = u.shape[0]
    if metric is None:
        G = u @ v.T
    else:
        G = u @ metric @ v.T
    return np.linalg.det(G) / math.factorial(m)


def perm_sum_oracle(u, v):
    """Straight permutation expansion of det[<u_i, v_j>] / m!."""
    m = u.shape[0]
    G = u @ v.T
    total = 0.0
    for perm in itertools.permutations(range(m)):
        sign = 1.0
        seen = list(perm)
        # inversion count parity
        inv = sum(
            1 for i in range(m) for j in range(i + 1, m) if seen[i] > seen[j]
        )
        sign = -1.0 if inv % 2 else 1.0
        total += sign * np.prod([G[i, perm[i]] for i in range(m)])
    return total / math.factorial(m)


def test_wedge_gram_matches_permutation_sum():
    r = rng(11)
    for _ in range(30):
        n = int(r.integers(1, 6))
        m = int(r.integers(1, min(n, 4) + 1))
        u = r.normal(size=(m, n))
        v = r.normal(size=(m, n))
        got = tensor.wedge_gram(u, v)
        assert got == pytest.approx(perm_sum_oracle(u, v), rel=1e-10, abs=1e-12)


def test_wedge_gram_with_metric():
    r = rng(12)
    for _ in range(20):
        n = int(r.integers(2, 6))
        m = int(r.integers(1, n + 1))
        u = r.normal(size=(m, n))
        v = r.normal(size=(m, n))
        Q = r.normal(size=(n, n))
        M = Q @ Q.T + n * np.eye(n)
        got = tensor.wedge_gram(u, v, metric=M)
        assert got == pytest.approx(gram_det_oracle(u, v, M), rel=1e-9, abs=1e-12)


def test_wedge_gram_rejects_bad_metric():
    u = np.eye(2)
    with pytest.raises(InputError):
        tensor.wedge_gram(u, u, metric=np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(InputError):
        tensor.wedge_gram(u, u, metric=np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric


def test_wedge_gram_antisymmetry():
    r = rng(13)
    u = r.normal(size=(3, 5))
    v = r.normal(size=(3, 5))
    swapped = u[[1, 0, 2]]
    assert tensor.wedge_gram(swapped, v) == pytest.approx(
        -tensor.wedge_gram(u, v), rel=1e-12
    )


# ----------------------------------------------------- compounds


def test_compound_multiplicative_sizes_and_identity():
    for n in range(1, 6):
        for m in range(1, n + 1):
            C = tensor.compound_multiplicative(np.eye(n), m)
            d = math.comb(n, m)
            assert C.shape == (d, d)
            assert np.allclose(C, np.eye(d))


def test_compound_multiplicative_is_multiplicative():
    r = rng(21)
    for _ in range(25):
        n = int(r.integers(2, 6))
        m = int(r.integers(1, n + 1))
        A = r.normal(size=(n, n))
        B = r.normal(size=(n, n))
        left = tensor.compound_multiplicative(B @ A, m)
        right = tensor.compound_multiplicative(B, m) @ tensor.compound_multiplicative(A, m)
        assert np.allclose(left, right, atol=1e-9 * max(1.0, np.abs(right).max()))


def test_compound_norm_identity():
    r = rng(22)
    for _ in range(100):
        n = int(r.integers(1, 7))
        m = int(r.integers(1, n + 1))
        L = r.normal(size=(n, n))
        sv = tensor.singular_values(L)
        lhs = np.linalg.norm(tensor.compound_multiplicative(L, m), 2)
        rhs = float(np.prod(sv[:m]))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_additive_compound_entries_combinatorial():
    # direct cross-check of the combinatorial entry rules on a symbolic-ish case
    n, m = 4, 2
    r = rng(23)
    T = r.normal(size=(n, n))
    idx = tensor.wedge_indices(n, m)
    C = tensor.compound_additive(T, m)
    for p_row, I in enumerate(idx):
        for p_col, J in enumerate(idx):
            inter = set(I) & set(J)
            if I == J:
                want = sum(T[i, i] for i in I)
            elif len(inter) == m - 1:
                (ri,) = set(I) - inter
                (sj,) = set(J) - inter
                pi = I.index(ri)
                qj = J.index(sj)
                want = (-1.0) ** (pi + qj) * T[ri, sj]
            else:
                want = 0.0
            assert C[p_row, p_col] == pytest.approx(want, abs=1e-12)


def test_additive_compound_generates_multiplicative():
    r = rng(24)
    for _ in range(15):
        n = int(r.integers(2, 6))
        m = int(r.integers(1, n + 1))
        T = r.normal(size=(n, n))
        t = 0.7
        lhs = expm(t * tensor.compound_additive(T, m))
        rhs = tensor.compound_multiplicative(expm(t * T), m)
        assert np.allclose(lhs, rhs, atol=1e-8 * max(1.0, np.abs(rhs).max()))


def test_additive_compound_trace():
    r = rng(25)
    for n, m in ((3, 2), (5, 3), (6, 4)):
        T = r.normal(size=(n, n))
        C = tensor.compound_additive(T, m)
        assert np.trace(C) == pytest.approx(
            math.comb(n - 1, m - 1) * np.trace(T), rel=1e-12
        )


def test_additive_compound_integer_input():
    T = np.array([[1, 2], [3, 4]])
    C = tensor.compound_additive(T, 1)
    assert C.dtype.kind == "f"
    assert np.allclose(C, T)


# ----------------------------------------------------- omega_d


def test_omega_d_integer_orders():
    r = rng(31)
    L = r.normal(size=(5, 5))
    sv = tensor.singular_values(L)
    for m in range(1, 6):
        assert tensor.omega_d(L, m) == pytest.approx(np.prod(sv[:m]), rel=1e-10)


def test_omega_d_interpolation_identity():
    r = rng(32)
    for _ in range(100):
        n = int(r.integers(2, 6))
        L = r.normal(size=(n, n))
        d = float(r.uniform(0.0, n - 1))
        m, g = int(math.floor(d)), d - math.floor(d)
        want = tensor.omega_d(L, m) ** (1.0 - g) * tensor.omega_d(L, m + 1) ** g
        assert tensor.omega_d(L, d) == pytest.approx(want, rel=1e-11, abs=1e-300)


def test_omega_d_horn_submultiplicative():
    r = rng(33)
    for _ in range(200):
        n = int(r.integers(2, 6))
        A = r.normal(size=(n, n))
        B = r.normal(size=(n, n))
        d = float(r.uniform(0.0, n))
        lhs = tensor.omega_d(B @ A, d)
        rhs = tensor.omega_d(A, d) * tensor.omega_d(B, d)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-300


def test_omega_d_scaling_covariance():
    r = rng(34)
    L = r.normal(size=(4, 4))
    for d in (0.5, 1.0, 2.25, 4.0):
        for c in (0.3, 2.0):
            assert tensor.omega_d(c * L, d) == pytest.approx(
                abs(c) ** d * tensor.omega_d(L, d), rel=1e-10
            )


def test_omega_d_edges():
    L = np.diag([3.0, 2.0, 0.0])
    assert tensor.omega_d(L, 0.0) == pytest.approx(1.0)
    # rank-deficient: omega_3 = 0, fractional d > 2 collapses too
    assert tensor.omega_d(L, 3.0) == 0.0
    assert tensor.omega_d(L, 2.5) == 0.0
    assert tensor.omega_d(L, 2.0) == pytest.approx(6.0)
    # orders above the dimension read the missing singular values as zero
    assert tensor.omega_d(L, 3.5) == 0.0
    with pytest.raises(InputError):
        tensor.omega_d(L, -0.5)


def svd_slack(d, *mats):
    """Relative error bound of omega_d over the given matrices: the SVD gets
    each sigma_i to about n eps sigma_1 absolute, so relative n eps
    sigma_1/sigma_i, summed over the ceil(d) factors."""
    k = math.ceil(d)
    total = 0.0
    for M in mats:
        sv = np.linalg.svd(M, compute_uv=False)
        total += 4.0 * M.shape[0] * np.finfo(float).eps * float(np.sum(sv[0] / sv[:k]))
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.floats(0.1, 4.9), st.integers(0, 2**32 - 1))
@example(n=3, d=3.0, seed=7057046)  # sigma_3(B) = 2.5e-6: excess 2.3e-11
def test_omega_d_horn_property(n, d, seed):
    d = min(d, float(n))
    r = np.random.default_rng(seed)
    A = r.normal(size=(n, n))
    B = r.normal(size=(n, n))
    lhs = tensor.omega_d(B @ A, d)
    rhs = tensor.omega_d(A, d) * tensor.omega_d(B, d)
    assert lhs <= rhs * (1.0 + svd_slack(d, A, B, B @ A)) + 1e-300


# ----------------------------------------------------- trace numbers


def test_trace_numbers_match_symmetric_eigs():
    r = rng(41)
    for _ in range(50):
        n = int(r.integers(2, 7))
        A = r.normal(size=(n, n))
        S = 0.5 * (A + A.T)
        want = np.sort(np.linalg.eigvalsh(S))[::-1]
        got = tensor.trace_numbers(A, n)
        assert np.allclose(got, want, atol=1e-10)
        k = int(r.integers(1, n + 1))
        assert np.allclose(tensor.trace_numbers(A, k), want[:k], atol=1e-10)


def test_trace_numbers_dominate_frame_traces():
    r = rng(42)
    for _ in range(50):
        n = int(r.integers(2, 6))
        A = r.normal(size=(n, n))
        S = 0.5 * (A + A.T)
        k = int(r.integers(1, n + 1))
        top = tensor.trace_numbers(A, k).sum()
        for _ in range(50):
            Q = np.linalg.qr(r.normal(size=(n, k)))[0]
            assert np.trace(Q.T @ S @ Q) <= top + 1e-9


def test_trace_numbers_vs_additive_compound_top_eig():
    r = rng(43)
    for _ in range(30):
        n = int(r.integers(2, 6))
        A = r.normal(size=(n, n))
        S = 0.5 * (A + A.T)
        m = int(r.integers(1, n + 1))
        lam_max = float(np.linalg.eigvalsh(tensor.compound_additive(S, m)).max())
        assert lam_max == pytest.approx(
            tensor.trace_numbers(A, m).sum(), rel=1e-9, abs=1e-9
        )


def test_singular_values_descending():
    r = rng(44)
    L = r.normal(size=(6, 6))
    sv = tensor.singular_values(L)
    assert np.all(np.diff(sv) <= 1e-12)
    assert np.all(sv >= 0)
