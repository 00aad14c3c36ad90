"""Chebyshev-Lobatto collocation primitives for the delay-operator module.

Nodes are returned in ascending order on the requested interval; the
differentiation matrix acts on values in that same order.
"""

from __future__ import annotations

import numpy as np


def lobatto_nodes(order: int) -> np.ndarray:
    """Chebyshev-Lobatto points cos(j*pi/order), reordered ascending on [-1, 1]."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return -np.cos(np.pi * np.arange(order + 1) / order)


def differentiation_matrix(order: int) -> np.ndarray:
    """Spectral differentiation matrix on ascending Lobatto nodes of [-1, 1]."""
    N = order
    if N < 1:
        raise ValueError("order must be >= 1")
    x = lobatto_nodes(N)
    c = np.ones(N + 1)
    c[0] = c[N] = 2.0
    c = c * (-1.0) ** np.arange(N + 1)
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return D


def clenshaw_curtis_weights(order: int) -> np.ndarray:
    """Quadrature weights matching lobatto_nodes(order) on [-1, 1].

    Solved from exact Chebyshev moments; the cosine Vandermonde system is
    well conditioned at these nodes for the orders used here (<= 512).
    """
    N = order
    if N < 1:
        raise ValueError("order must be >= 1")
    j = np.arange(N + 1)
    # rows: T_k evaluated at the classical descending nodes cos(j*pi/N)
    V = np.cos(np.outer(j, j) * np.pi / N)
    moments = np.zeros(N + 1)
    moments[0] = 2.0
    even = np.arange(2, N + 1, 2)
    moments[even] = 2.0 / (1.0 - even.astype(float) ** 2)
    w = np.linalg.solve(V, moments)
    return w[::-1].copy()


def scaled_segment(order: int, left: float, right: float):
    """Nodes, differentiation matrix and weights mapped to [left, right]."""
    if not right > left:
        raise ValueError("need right > left")
    half = 0.5 * (right - left)
    theta = left + half * (lobatto_nodes(order) + 1.0)
    D = differentiation_matrix(order) / half
    w = clenshaw_curtis_weights(order) * half
    return theta, D, w
