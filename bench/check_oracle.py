"""Check the benchmark's Lambert-W oracle against mpmath at 30 digits.

Run from the repository root:  python3 bench/check_oracle.py
Exits 0 when every point agrees, 1 otherwise.
"""

from __future__ import annotations

import math
import sys

import mpmath
import numpy as np

import oracle

mpmath.mp.dps = 30

# (a, b, tau): the three benchmark families, |a| tau beyond the double range
# of e^{-a tau} on both sides, and the double root at z = -1/e
POINTS = [
    (-0.1, -0.4, 22.0),
    (0.25, -0.75, 250.0),
    (1.0, -0.75, 250.0),
    (0.25, -0.75, 5000.0),
    (-0.1, -0.4, 8000.0),
    (1.0, 0.5, 1000.0),
    (0.1, -math.exp(0.5 - 1.0) / 5.0, 5.0),
]
K = 12


def mp_roots(a, b, tau, K=K):
    z = mpmath.mpf(b) * tau * mpmath.exp(-mpmath.mpf(a) * tau)
    p = [complex(a + mpmath.lambertw(z, k) / tau) for k in range(-K, K + 1)]
    return np.array(sorted(p, key=lambda r: (-r.real, -r.imag)))


def main() -> int:
    ok = True
    for a, b, tau in POINTS:
        want = mp_roots(a, b, tau)
        got = oracle.branch_roots(a, b, tau, K)
        # match as sets: ties in real part may order differently
        err = max(float(np.min(np.abs(want - g))) / (1.0 + abs(g)) for g in got)
        good = err <= 1e-10
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}  a={a:g} b={b:.6g} tau={tau:g}: "
              f"max rel root error {err:.1e} over {got.size} branches")
    for a, b, tau in POINTS[:3]:
        re = mp_roots(a, b, tau, 160).real
        want = oracle._ky(re)
        got = oracle.local_dimension(a, b, tau)
        good = abs(got - want) <= 1e-9 * max(1.0, want)
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}  local dimension a={a:g} tau={tau:g}: "
              f"{got!r} vs {want!r}")
    for beta, gamma, k, tau in ((0.2, 0.1, 10.0, 22.0), (0.2, 0.1, 10.0, 300.0)):
        lam = max(1.0, (k - 1.0) ** 2 / (4.0 * k))
        a, b = 1.0 - 2.0 * gamma, (beta * lam) ** 2
        kappa = mpmath.findroot(
            lambda x: mpmath.diff(lambda y: (a + b * mpmath.exp(y * tau)) / y, x), 0.05
        )
        want = float((a + b * mpmath.exp(kappa * tau)) / kappa + 1)
        got = oracle.mackey_glass_bound(beta, gamma, k, tau)
        good = abs(got - want) <= 1e-10 * want
        ok &= good
        print(f"{'PASS' if good else 'FAIL'}  Mackey-Glass bound tau={tau:g}: "
              f"{got!r} vs direct minimum {want!r}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
