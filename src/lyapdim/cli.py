"""Command-line front end.

Subcommands: bound (analytic dimension bounds), roots (characteristic root
tables), simulate (trajectory CSV), lyap (numerical spectra), verify
(invariant suites), sweep (parameter grids with a worker pool).  Exit codes:
0 success, 1 numerical failure, 2 configuration error.  All output is
deterministic for a fixed config and seed; CSV carries the schema header
"# lyapdim v1".
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds, charroots, cocycle, dde, delayop, tensor
from .errors import InputError, NeedsMoreRootsError, NumericalFailure

CSV_HEADER = "# lyapdim v1"


# ---------------------------------------------------------------- config


def _read_config(path: str) -> dict:
    cfg = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, val = line.split("=", 1)
                cfg[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from None
    return cfg


_ON_OFF = {"true": True, "yes": True, "on": True, "false": False, "no": False, "off": False}
_KINDS = {int: "an integer", float: "a number"}


def _config_value(key: str, action: argparse.Action, text: str):
    """A config-file value cast as its flag's would be: by the flag's type
    and choices, or as an on/off word for a flag that takes no value."""
    if action.nargs == 0:
        if text.lower() not in _ON_OFF:
            raise InputError(f"{key} must be on or off, got {text!r}")
        return _ON_OFF[text.lower()]
    try:
        value = text if action.type is None else action.type(text)
    except ValueError:
        try:  # a fractional integer setting shows as the number it is
            shown = float(text)
        except ValueError:
            shown = text
        raise InputError(f"{key} must be {_KINDS[action.type]}, got {shown!r}") from None
    if action.choices is not None and value not in action.choices:
        raise InputError(f"{key} must be one of {', '.join(action.choices)}, got {text!r}")
    return value


def _require(opts: dict, *names: str):
    missing = [n for n in names if opts.get(n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise InputError(f"missing required parameter(s): {flags}")


# ---------------------------------------------------------------- output


class _Writer:
    def __init__(self, path: str | None, fmt: str):
        self.path = path
        self.fmt = fmt
        self.comments: list[str] = []
        self.columns: list[str] = []
        self.rows: list[list] = []

    def comment(self, text: str):
        self.comments.append(text)

    def table(self, columns, rows):
        self.columns = list(columns)
        self.rows = [list(r) for r in rows]

    @staticmethod
    def _fmt(v):
        if isinstance(v, float):
            return repr(v)
        return str(v)

    def flush(self):
        if self.fmt == "csv":
            lines = [CSV_HEADER]
            lines += [f"# {c}" for c in self.comments]
            if self.columns:
                lines.append(",".join(self.columns))
            lines += [",".join(self._fmt(v) for v in row) for row in self.rows]
            text = "\n".join(lines) + "\n"
        else:
            payload = {
                "schema": "lyapdim v1",
                "comments": self.comments,
                "columns": self.columns,
                "rows": self.rows,
            }
            text = json.dumps(payload, sort_keys=True) + "\n"
        if self.path:
            with open(self.path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


# ---------------------------------------------------------------- models


@dataclass(frozen=True)
class _Model:
    """One model as the subcommands see it.

    params maps each parameter to its default, None where it is required.
    Each role takes the resolved parameters with tau: bound and
    scaled_bound give a bounds.DimensionBound, delay_model the
    dde.DelayModel, and equilibria the states (0, +xbar, -xbar), or (0,)
    where the symmetric pair does not exist.  A role left None is one the
    model does not have.  reference pairs parameter values with the
    published figures `bound` cites at them.
    """

    params: dict
    bound: Callable | None = None
    scaled_bound: Callable | None = None
    delay_model: Callable | None = None
    equilibria: Callable | None = None
    reference: tuple = ()


_MODELS = {
    "mackey_glass": _Model(
        dict(beta=None, gamma=None, k=None, lambda_mode="rough"),
        bound=lambda p: bounds.mackey_glass_bound(
            p["beta"], p["gamma"], p["k"], p["tau"], p["lambda_mode"]),
        scaled_bound=lambda p: bounds.mackey_glass_scaled_bound(
            p["beta"], p["gamma"], p["k"], p["tau"], p["lambda_mode"]),
        delay_model=lambda p: dde.mackey_glass(p["beta"], p["gamma"], p["k"], p["tau"]),
        equilibria=lambda p: dde.mackey_glass_equilibria(p["beta"], p["gamma"], p["k"]),
        reference=(dict(beta=0.2, gamma=0.1, k=10.0, lambda_mode="rough"),
                   "coefficient 0.9957, bound <= 0.9958*tau + 1"),
    ),
    "suarez_schopf": _Model(
        dict(alpha=None, gamma=1.0, forcing=0.0),
        bound=lambda p: bounds.suarez_schopf_bound(p["alpha"], p["gamma"], p["tau"]),
        scaled_bound=lambda p: bounds.suarez_schopf_scaled_bound(p["alpha"], p["gamma"], p["tau"]),
        delay_model=lambda p: dde.suarez_schopf(p["alpha"], p["tau"], p["forcing"], p["gamma"]),
        equilibria=lambda p: dde.suarez_schopf_equilibria(p["alpha"], p["gamma"]),
        reference=(dict(alpha=0.75, gamma=1.0, tau=1.596), "bound 6.675 unscaled, 5.603 rescaled"),
    ),
    "custom": _Model(
        dict(a=None, b=None),
        bound=lambda p: bounds.scalar_bound(bounds.BoundProblem(p["tau"], p["a"], p["b"])),
    ),
    "linear": _Model(
        dict(a=None, b=None),
        delay_model=lambda p: dde.linear_scalar(p["a"], p["b"], p["tau"]),
    ),
}

def _model(opts: dict, role: str) -> tuple[_Model, dict]:
    """The registry entry opts["model"] names, which must have the role, and
    its parameters resolved as flag > config file > registry default."""
    _require(opts, "model", "tau")
    name = opts["model"]
    entry = _MODELS.get(name)
    if getattr(entry, role, None) is None:
        what = "unknown model" if entry is None else f"no {role.replace('_', ' ')} for model"
        have = ", ".join(n for n, e in _MODELS.items() if getattr(e, role) is not None)
        raise InputError(f"{what} {name!r}; choose from {have}")
    p = {key: default if opts.get(key) is None else opts[key] for key, default in entry.params.items()}
    _require(p, *p)
    p["tau"] = opts["tau"]
    return entry, p


# ---------------------------------------------------------------- bound


def cmd_bound(args) -> int:
    role = "scaled_bound" if args.scaled else "bound"
    entry, p = _model(vars(args), role)
    res = getattr(entry, role)(p)
    w = _Writer(args.output, args.format)
    if entry.reference and all(
        p[key] == v if isinstance(v, str) else math.isclose(p[key], v)
        for key, v in entry.reference[0].items()
    ):
        w.comment(f"reference: {entry.reference[1]}")
    tau = p["tau"]
    coeff = (res.d_star - 1.0) / tau if res.d_star > 0 else 0.0
    w.table(
        ["model", "tau", "d_star", "p_star", "kappa_opt", "scale_opt", "lambda_mode", "slope_per_tau", "provenance"],
        [[
            args.model,
            tau,
            float(res.d_star),
            float(res.p_star),
            float(res.kappa_opt),
            float(res.scale_opt) if res.scale_opt is not None else "",
            p.get("lambda_mode", ""),
            float(coeff),
            res.provenance,
        ]],
    )
    w.flush()
    return 0


# ---------------------------------------------------------------- roots


_EQUILIBRIA = ("zero", "plus", "minus")


def _equilibrium_problem(opts) -> charroots.CharProblem:
    """Characteristic problem of the model linearized, through its own
    Jacobian, at the equilibrium opts["equilibrium"]."""
    entry, p = _model(opts, "equilibria")
    eq = opts["equilibrium"]
    states, i = entry.equilibria(p), _EQUILIBRIA.index(eq)
    if i >= len(states):
        raise InputError(f"{opts['model']} has no {eq!r} equilibrium at these parameters")
    x = np.array([states[i]])
    J0, Jd = entry.delay_model(p).jac(0.0, x, x)
    return charroots.CharProblem(J0.item(), Jd.item(), p["tau"])


def cmd_roots(args) -> int:
    if args.model:
        prob = _equilibrium_problem(vars(args))
    else:
        _require(vars(args), "a", "b", "tau")
        prob = charroots.CharProblem(args.a, args.b, args.tau)
    w = _Writer(args.output, args.format)
    if args.count is not None:
        rs = charroots.char_roots(prob, args.count)
    else:
        rs = charroots.determined_roots(prob, "unstable_count", "local_dimension")
    w.comment(f"a {prob.a!r} b {prob.b!r} tau {prob.tau!r}")
    try:
        nu = charroots.unstable_count(rs)
        w.comment(f"N_u {nu}")
    except NeedsMoreRootsError:
        w.comment("N_u undetermined")
    try:
        dim = float(charroots.local_dimension(rs))
        w.comment(f"local_dimension {dim!r}")
        w.comment(f"N_L {int(math.floor(dim))}")
    except NeedsMoreRootsError:
        w.comment("local_dimension undetermined")
    if rs.partial:
        w.comment("partial: fewer certified roots than requested")
    w.table(
        ["index", "re", "im", "residual"],
        [
            [i, float(p.real), float(p.imag), float(r)]
            for i, (p, r) in enumerate(zip(rs.roots, rs.residuals))
        ],
    )
    w.flush()
    return 0


# ---------------------------------------------------------------- simulate


def _build_model(opts) -> dde.DelayModel:
    entry, p = _model(opts, "delay_model")
    return entry.delay_model(p)


def _build_history(spec: str, model: dde.DelayModel, seed: int) -> dde.HistorySegment:
    if spec.startswith("const:"):
        try:
            value = float(spec[len("const:"):])
        except ValueError:
            raise InputError(f"history const:VALUE needs a number, got {spec!r}") from None
        return dde.HistorySegment.constant(value, model.tau)
    if spec == "random":
        coef = np.random.default_rng(seed).normal(size=(model.n, 4, 2))
        return dde._trig_history(coef, model.tau, scale=0.3)
    raise InputError(f"unknown history spec {spec!r} (use const:VALUE or random)")


def cmd_simulate(args) -> int:
    opts = vars(args)
    _require(opts, "model", "tau", "T")
    model = _build_model(opts)
    dt = args.dt if args.dt is not None else model.tau / dde._STEPS_PER_TAU
    traj = dde.integrate(model, _build_history(args.history, model, args.seed), args.T, dt)
    w = _Writer(args.output, args.format)
    m = round(model.tau / traj.dt)
    w.table(
        ["t"] + [f"x_{i+1}" for i in range(model.n)],
        [
            [float(-model.tau + i * traj.dt)] + [float(v) for v in traj.values[i]]
            for i in range(m, traj.values.shape[0])
        ],
    )
    w.flush()
    return 0


# ---------------------------------------------------------------- lyap


def cmd_lyap(args) -> int:
    model = _build_model(vars(args))
    tau = model.tau
    burn_in = args.burn_in if args.burn_in is not None else 50.0 * tau
    horizon = args.horizon if args.horizon is not None else 100.0 * tau
    rep = dde.numerical_lyapunov_spectrum(
        model, burn_in, horizon, args.m, N=args.N, dt=args.dt, seed=args.seed
    )
    w = _Writer(args.output, args.format)
    w.comment(f"windows {rep.windows} horizon {float(rep.horizon)!r}")
    w.comment(f"lambda1_positive {bool(rep.lambdas[0] > 0)}")
    w.comment(f"ky {float(rep.ky)!r}" if rep.ky is not None else "ky undetermined")
    w.table(
        ["j", "lambda", "lambda_last_half"],
        [
            [j + 1, float(rep.lambdas[j]), float(rep.lambdas_half[j])]
            for j in range(rep.lambdas.size)
        ],
    )
    w.flush()
    return 0


# ---------------------------------------------------------------- verify


def _suite_tensor(seed: int):
    rng = np.random.default_rng(seed)
    checks = []
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        L = rng.normal(size=(n, n))
        sv = tensor.singular_values(L)
        lhs = np.linalg.norm(tensor.compound_multiplicative(L, m), 2)
        worst = max(worst, abs(lhs - np.prod(sv[:m])) / max(1.0, np.prod(sv[:m])))
    checks.append(("compound-norm identity", worst <= 1e-9, f"max rel err {worst:.2e}"))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, n))
        d = float(rng.uniform(0.0, n))
        lhs = tensor.omega_d(B @ A, d)
        rhs = tensor.omega_d(A, d) * tensor.omega_d(B, d)
        worst = max(worst, lhs - rhs * (1.0 + 1e-12))
    checks.append(("submultiplicativity", worst <= 0.0, f"max excess {worst:.2e}"))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        L = rng.normal(size=(n, n))
        d = float(rng.uniform(0.0, n - 1))
        mfl, g = int(math.floor(d)), d - math.floor(d)
        lhs = tensor.omega_d(L, d)
        rhs = tensor.omega_d(L, mfl) ** (1.0 - g) * tensor.omega_d(L, mfl + 1) ** g
        worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
    checks.append(("interpolation identity", worst <= 1e-12, f"max rel err {worst:.2e}"))
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 7))
        A = rng.normal(size=(n, n))
        beta = tensor.trace_numbers(A, n)
        ok = ok and bool(np.all(np.diff(beta) <= 1e-12))
        m = int(rng.integers(1, n + 1))
        S = 0.5 * (A + A.T)
        top = np.linalg.eigvalsh(tensor.compound_additive(S, m)).max()
        ok = ok and abs(top - beta[:m].sum()) <= 1e-9 * max(1.0, abs(top))
    checks.append(("trace numbers vs additive compound", ok, ""))
    return checks


def _suite_bounds(seed: int):
    rng = np.random.default_rng(seed)
    checks = []
    worst = 0.0
    mono_ok = True
    prev_c, prev_p = None, None
    for c in np.sort(rng.uniform(-1.0, 50.0, 200)):
        p = bounds.lambert_root(float(c))
        worst = max(worst, abs(p * math.exp(p + 1.0) - c))
        if prev_c is not None and c > prev_c:
            mono_ok = mono_ok and p > prev_p - 1e-15
        prev_c, prev_p = c, p
    checks.append(("root residuals <= 1e-12", worst <= 1e-12, f"max {worst:.2e}"))
    checks.append(("root monotonicity", mono_ok, ""))
    ok = True
    for _ in range(25):
        b = float(rng.uniform(0.05, 3.0))
        a = float(rng.uniform(-b, 3.0))
        tau = float(rng.uniform(0.2, 30.0))
        res = bounds.scalar_bound(bounds.BoundProblem(tau, a, b))
        if res.kappa_opt > 0:
            def d_of(kap):
                return (a + b * math.exp(kap * tau)) / kap + 1.0
            ok = ok and d_of(res.kappa_opt + 1e-4) >= res.d_star - 1e-12
            ok = ok and d_of(res.kappa_opt - 1e-4) >= res.d_star - 1e-12
            ok = ok and abs(d_of(res.kappa_opt) - res.d_star) <= 1e-9 * res.d_star
    checks.append(("local-minimum certificate", ok, ""))
    ok = True
    for _ in range(25):
        b = float(rng.uniform(0.05, 3.0))
        a = float(rng.uniform(-b + 1e-6, 3.0))
        tau = float(rng.uniform(0.2, 30.0))
        res = bounds.scalar_bound(bounds.BoundProblem(tau, a, b))
        kap = res.kappa_opt
        lam1 = a + b * math.exp(kap * tau)
        sigma = lambda mm: 0.5 * lam1 - 0.5 * kap * (mm - 1.0)
        root = 1.0 + lam1 / kap
        ok = ok and abs(sigma(root)) <= 1e-9
        ok = ok and abs(root - res.d_star) <= 1e-9 * max(1.0, res.d_star)
    checks.append(("trace-sum curve root equals d*", ok, ""))
    return checks


def _suite_charroots(seed: int):
    rng = np.random.default_rng(seed)
    checks = []
    ok_res, ok_conj = True, True
    for _ in range(5):
        prob = charroots.CharProblem(
            float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.5, 1.5)), float(rng.uniform(1.0, 15.0))
        )
        if prob.b == 0.0:
            continue
        rs = charroots.char_roots(prob, 24)
        ok_res = ok_res and bool(
            np.all(rs.residuals <= 1e-10 * (1.0 + np.abs(rs.roots)))
        )
        # truncation at count may orphan one pair member in the last Re tier
        tier = rs.roots.real.min() + 1e-9
        nonreal = rs.roots[np.abs(rs.roots.imag) > 1e-10]
        for z in nonreal[nonreal.real > tier]:
            ok_conj = ok_conj and np.min(np.abs(nonreal - z.conjugate())) <= 1e-8
    checks.append(("root residuals", ok_res, ""))
    checks.append(("conjugate symmetry", ok_conj, ""))
    ok = True
    for _ in range(3):
        prob = charroots.CharProblem(
            float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-1.0, 1.0)), float(rng.uniform(2.0, 12.0))
        )
        c = float(rng.uniform(-0.05, 0.05))
        rs = charroots.char_roots(prob, 48)
        direct = int(np.sum(rs.roots.real > c))
        ok = ok and direct == charroots.halfplane_count(prob, c)
    checks.append(("argument-principle counts", ok, ""))
    prob = charroots.CharProblem(-0.1, -0.4, 22.0)
    r1 = charroots.char_roots(prob, 16).roots.real
    r2 = charroots.char_roots(prob, 32).roots.real[:16]
    checks.append(
        ("doubling stability", bool(np.max(np.abs(r1 - r2)) <= 1e-9), "")
    )
    return checks


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by scaling and squaring: A / 2^s has 1-norm at most 1/2, where
    the degree-18 Taylor remainder is below 1e-22, then s squarings."""
    norm = float(np.linalg.norm(A, 1))
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.0 else 0
    X = A / 2.0**s
    E = term = np.eye(A.shape[0])
    for k in range(1, 19):
        term = term @ X / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def _suite_cocycle(seed: int):
    rng = np.random.default_rng(seed)
    checks = []
    ok = True
    for _ in range(10):
        n = int(rng.integers(2, 5))
        A = rng.normal(size=(n, n))
        E = _expm(A)
        coc = cocycle.MatrixCocycle((0,), lambda q: q, lambda q: E, n, 1.0)
        m = int(rng.integers(1, n + 1))
        g = cocycle.volume_growth_qr(coc, 0, m, 5.0)
        # the SVD gets the small singular values of expm(5A) to an absolute,
        # not relative, error, so a sum of their logs can miss the
        # tolerance; the full volume is exact by Liouville's formula, and
        # below full order the 2-norm of the m-th compound is the product
        # of the m leading singular values
        if m == n:
            direct = 5.0 * float(np.trace(A))
        else:
            E5 = np.linalg.matrix_power(E, 5)
            direct = math.log(np.linalg.norm(tensor.compound_multiplicative(E5, m), 2))
        ok = ok and abs(g.log_omega - direct) <= 1e-6
        # full-dimension long horizon against determinant multiplicativity
        g_n = cocycle.volume_growth_qr(coc, 0, n, 20.0)
        ok = ok and abs(g_n.log_omega - 20.0 * np.linalg.slogdet(E)[1]) <= 1e-8
    checks.append(("QR matches product SVD", ok, ""))
    rates = [np.diag([1.0, -1.0, -1.0]), np.diag([0.5, 0.0, -1.0]), np.diag([0.2, 0.2, 0.2])]
    coc = cocycle.MatrixCocycle(
        (0, 1, 2), lambda q: q, lambda q: np.diag(np.exp(np.diag(rates[q]))), 3, 1.0
    )
    rep = cocycle.uniform_exponents(coc, 3, 32.0)
    ok = np.allclose(rep.lambdas, [1.0, -0.5, 0.1], atol=1e-12)
    checks.append(("three-equilibria exponents", bool(ok), ""))
    checks.append(
        ("saturated dimension", cocycle.kaplan_yorke(rep.lambdas, 3) == 3.0, "")
    )
    ok = True
    for _ in range(5):
        n = 3
        A = rng.normal(size=(n, n)) - 1.5 * np.eye(n)
        E = _expm(A * 0.5)
        coc = cocycle.MatrixCocycle((0,), lambda q: q, lambda q: E, n, 0.5)
        ky = cocycle.kaplan_yorke(cocycle.uniform_exponents(coc, n, 40.0).lambdas, n)
        ld = cocycle.lyapunov_dimension(coc, 40.0).value
        ok = ok and (ky - 1.0 < ld + 1e-6) and (ld <= ky + 1e-6)
    checks.append(("dimension sandwich", ok, ""))
    return checks


def _suite_delayop(seed: int):
    rng = np.random.default_rng(seed)
    checks = []
    kappa, tau = 0.7, 1.3
    profile = delayop.WeightProfile((kappa,), (-tau, 0.0))
    grid = delayop.TailGrid.for_profile(profile, 32)
    one = delayop.DiscretizedElement.from_functions(grid, [0.0], lambda th: np.ones_like(th))
    got = delayop.weighted_inner(one, one, profile)
    want = (1.0 - math.exp(-kappa * tau)) / kappa
    checks.append(("weighted inner closed form", abs(got - want) <= 1e-10, f"err {abs(got-want):.2e}"))

    spec = delayop.DelayOperatorSpec(1, tau, [[-0.3]], [[0.8]])
    v = delayop.DiscretizedElement.from_functions(
        grid, [math.cos(0.0)], lambda th: np.cos(1.1 * th)
    )
    y = rng.normal(size=1)
    shift = float(rng.normal())

    def gfun(th):
        return np.cos(0.9 * th) + 0.3 * np.sin(2.0 * th) + shift

    cJ = 0.8 * y[0] - gfun(-tau)
    w = delayop.DiscretizedElement.from_functions(
        grid, y, lambda th: (gfun(th) + cJ) / np.exp(kappa * th)
    )
    lhs = delayop.weighted_inner(delayop.apply_L(spec, v), w, profile)
    rhs = delayop.weighted_inner(v, delayop.apply_L_star(spec, profile, w), profile)
    checks.append(("adjoint identity (smooth)", abs(lhs - rhs) <= 1e-8, f"defect {abs(lhs-rhs):.2e}"))

    # intersection elements: tail(0) = head and rho(-tau) tail(-tau) = L_tau^T head
    def cross(x):
        target = 0.8 * x * math.exp(kappa * tau)
        slope = (math.cos(1.1 * tau) - target / x) / tau if x else 0.0
        return lambda th: x * (np.cos(1.1 * th) + slope * th)

    v2 = delayop.DiscretizedElement.from_functions(grid, [1.0], cross(1.0))
    w2 = delayop.DiscretizedElement.from_functions(grid, [0.37], cross(0.37))
    sv = delayop.symmetrize_S(spec, profile, v2)
    lhs2 = 2.0 * delayop.weighted_inner(sv, w2, profile)
    rhs2 = delayop.weighted_inner(
        delayop.apply_L(spec, v2), w2, profile
    ) + delayop.weighted_inner(delayop.apply_L_star(spec, profile, v2), w2, profile)
    checks.append(("symmetrization identity", abs(lhs2 - rhs2) <= 1e-8, f"defect {abs(lhs2-rhs2):.2e}"))

    beta, gamma, k = 0.2, 0.1, 10.0
    fp = (2.0 - k) / 4.0
    spec_mg = delayop.DelayOperatorSpec(1, tau, [[-gamma]], [[beta * fp]])
    _, ev = delayop.symmetrized_matrix(spec_mg, profile)
    lam_want = 1.0 - 2.0 * gamma + beta**2 * math.exp(kappa * tau) * fp**2
    checks.append(("scalar head eigenvalue", abs(ev[0] - lam_want) <= 1e-10, ""))
    return checks


def _suite_dde(seed: int):
    checks = []
    model = dde.linear_scalar(-1.0, 0.0, 1.0)
    traj = dde.integrate(model, dde.HistorySegment.constant(1.0, 1.0), 3.0, 1e-2)
    err = abs(traj.value(3.0)[0] - math.exp(-3.0))
    checks.append(("pure decay", err <= 1e-8, f"err {err:.2e}"))
    lin = dde.linear_scalar(0.0, -1.0, 1.0)
    traj = dde.integrate(lin, dde.HistorySegment.constant(1.0, 1.0), 2.0, 1.0 / 64.0)
    e1 = abs(traj.value(0.5)[0] - 0.5)
    e2 = abs(traj.value(1.5)[0] - (1.0 - 1.5 + 0.25 / 2.0))
    checks.append(("method-of-steps closed form", max(e1, e2) <= 1e-10, ""))
    mg = dde.mackey_glass(0.2, 0.1, 10.0, 2.0)
    xbar = dde.mackey_glass_equilibria(0.2, 0.1, 10.0)[1]
    traj = dde.integrate(mg, dde.HistorySegment.constant(xbar, 2.0), 10.0, 2.0 / 32.0)
    drift = np.abs(traj.values - xbar).max()
    checks.append(("equilibrium fixed point", drift <= 1e-12, f"drift {drift:.2e}"))
    traj = dde.integrate(lin, dde.HistorySegment.constant(1.0, 1.0), 5.0, 1.0 / 32.0)
    M2 = dde.linearized_monodromy(lin, traj, 1.0, 24, span=2)
    Ma = dde.linearized_monodromy(lin, traj, 1.0, 24)
    Mb = dde.linearized_monodromy(lin, traj, 2.0, 24)
    rel = np.linalg.norm(M2 - Mb @ Ma) / np.linalg.norm(M2)
    checks.append(("monodromy composition", rel <= 1e-6, f"rel {rel:.2e}"))
    return checks


_SUITES = {
    "tensor": _suite_tensor,
    "bounds": _suite_bounds,
    "charroots": _suite_charroots,
    "cocycle": _suite_cocycle,
    "delayop": _suite_delayop,
    "dde": _suite_dde,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    lines = []
    for name in names:
        for check, ok, detail in _SUITES[name](args.seed):
            status = "PASS" if ok else "FAIL"
            failures += 0 if ok else 1
            suffix = f"  ({detail})" if detail else ""
            lines.append(f"{status}  {name}: {check}{suffix}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if failures else 0


# ---------------------------------------------------------------- sweep


def _parse_range(text: str) -> np.ndarray:
    try:
        start, stop, pts, spacing = text.split(":")
        start, stop, pts = float(start), float(stop), int(pts)
    except ValueError:
        raise InputError(f"range must be start:stop:points:lin|log, got {text!r}") from None
    if pts < 2 or not -math.inf < start < stop < math.inf:
        raise InputError("range needs finite start < stop and points >= 2")
    if spacing == "log":
        if start <= 0:
            raise InputError("log spacing needs start > 0")
        return np.logspace(math.log10(start), math.log10(stop), pts)
    if spacing == "lin":
        return np.linspace(start, stop, pts)
    raise InputError(f"unknown spacing {spacing!r}")


# each sweep quantity and the columns of its table
_SWEEP_COLUMNS = {"bound": ["tau", "d_star"], "local_dim": ["tau", "local_dim"],
                  "unstable": ["tau", "n_unstable"], "lyap": ["tau", "lambda_1", "ky"]}


def _sweep_cell(opts):
    tau, kind = opts["tau"], opts["quantity"]
    if kind == "bound":
        entry, p = _model(opts, "bound")
        return [tau, float(entry.bound(p).d_star)]
    if kind == "lyap":
        model = _build_model(opts)
        rep = dde.numerical_lyapunov_spectrum(model, 50.0 * tau, 80.0 * tau, opts["m"], seed=opts["seed"])
        return [tau, float(rep.lambdas[0]), float(rep.ky) if rep.ky is not None else ""]
    prob = _equilibrium_problem(opts)
    if kind == "local_dim":
        rs = charroots.determined_roots(prob, "local_dimension")
        return [tau, float(charroots.local_dimension(rs))]
    rs = charroots.determined_roots(prob, "unstable_count")
    return [tau, float(charroots.unstable_count(rs))]


def cmd_sweep(args) -> int:
    opts = vars(args)
    _require(opts, "model", "tau_range")
    if args.jobs < 1:
        raise InputError(f"jobs must be at least 1, got {args.jobs}")
    cells = [dict(opts, tau=float(t)) for t in _parse_range(args.tau_range)]
    jobs = min(args.jobs, len(cells))
    if jobs > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(jobs) as pool:
            rows = pool.map(_sweep_cell, cells)
    else:
        rows = [_sweep_cell(c) for c in cells]
    w = _Writer(args.output, args.format)
    if args.quantity in ("local_dim", "unstable"):
        slope, intercept, _ = charroots._fit_line(np.array([r[0] for r in rows]),
                                                  np.array([r[1] for r in rows]))
        w.comment(f"slope {slope!r} intercept {intercept!r}")
    w.table(_SWEEP_COLUMNS[args.quantity], rows)
    w.flush()
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and each subcommand's name mapped to its parser and its
    flags' actions by destination: every setting is declared once, in its
    add_argument call, and config-file values are cast through it."""
    ap = argparse.ArgumentParser(
        prog="lyapdim",
        description="Upper bounds and numerical ground truth for Lyapunov "
        "dimensions of delay systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, help, model=True):
        p = sub.add_parser(name, help=help)
        actions = {}
        commands[name] = (p, actions)

        def flag(*names, **kw):
            action = p.add_argument(*names, **kw)
            actions[action.dest] = action

        flag("--config", help="key=value config file; flags override")
        flag("--output", help="output path (default stdout)")
        flag("--format", default="csv", choices=("csv", "json"))
        flag("--seed", type=int, default=0)
        if model:
            flag("--model")
            for param in ("beta", "gamma", "k", "alpha", "forcing", "a", "b", "tau"):
                flag(f"--{param}", type=float)
        return flag

    flag = command("bound", "analytic dimension bound")
    flag("--scaled", action="store_true")
    flag("--lambda-mode", choices=("rough", "tight"))

    flag = command("roots", "characteristic root table")
    flag("--equilibrium", default="plus", choices=_EQUILIBRIA)
    flag("--count", type=int)

    flag = command("simulate", "integrate a model, emit trajectory CSV")
    flag("--T", type=float)
    flag("--dt", type=float)
    flag("--history", default="const:0.5")

    flag = command("lyap", "numerical Lyapunov spectrum")
    flag("--m", type=int, default=6)
    flag("--N", type=int, default=64)
    flag("--burn-in", type=float)
    flag("--horizon", type=float)
    flag("--dt", type=float)

    flag = command("verify", "run module invariant suites", model=False)
    flag("--suite", default="all", choices=("all", *_SUITES))

    flag = command("sweep", "quantity over a tau grid")
    flag("--equilibrium", default="plus", choices=_EQUILIBRIA)
    flag("--quantity", default="bound", choices=tuple(_SWEEP_COLUMNS))
    flag("--tau-range")
    flag("--lambda-mode", choices=("rough", "tight"))
    flag("--m", type=int, default=6)
    flag("--jobs", type=int, default=1)

    return ap, commands


def _parse_args(argv) -> argparse.Namespace:
    """Settings as flag > config file > declared default: the config file's
    values for its subcommand's flags, each cast as that flag's would be,
    become the subcommand's defaults, and argv is parsed again over them.
    Keys of other subcommands are ignored; a key of none is an error."""
    ap, commands = build_parser()
    args = ap.parse_args(argv)
    if args.config:
        p, actions = commands[args.command]
        cfg = _read_config(args.config)
        known = {key for _, acts in commands.values() for key in acts}
        unknown = [key for key in cfg if key not in known]
        if unknown:
            raise InputError(f"config key {unknown[0]!r} is not a setting of any subcommand")
        p.set_defaults(**{key: _config_value(key, actions[key], text)
                          for key, text in cfg.items() if key in actions})
        args = ap.parse_args(argv)
    return args


_DISPATCH = {
    "bound": cmd_bound,
    "roots": cmd_roots,
    "simulate": cmd_simulate,
    "lyap": cmd_lyap,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return _DISPATCH[args.command](args)
    except SystemExit as exc:  # argparse's exit, after --help or a rejected flag
        return int(exc.code) if exc.code else 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, NeedsMoreRootsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
