"""The benchmark's workloads: inputs made from a seed, the timed items, and
the checks of each item's output against the oracle.

A workload yields rounds; a round is a fixed list of items, and the timed
phase always runs whole rounds.  Each item's check runs after the timed
phase and returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


# ---------------------------------------------------------------- root-slopes

# (label, a, b, quantities): Mackey-Glass and Suarez-Schopf at their symmetric
# equilibria, and Suarez-Schopf at zero, where only the dimension is fitted
FAMILIES = (
    ("mackey-glass", -0.1, -0.4, ("local_dimension", "unstable_count")),
    ("suarez-schopf", 0.25, -0.75, ("local_dimension", "unstable_count")),
    ("suarez-schopf-zero", 1.0, -0.75, ("local_dimension",)),
)
TAU_GRID = np.logspace(1.0, math.log10(125.0), 12)


def _slope_item(label, a, b, quantities, taus) -> Item:
    from lyapdim import charroots

    def run():
        family = lambda t: charroots.CharProblem(a, b, t)  # noqa: E731
        return {q: charroots.asymptotic_slope(family, q, taus) for q in quantities}

    def check(fits):
        problems = []
        for q, fit in fits.items():
            fn = oracle.local_dimension if q == "local_dimension" else oracle.unstable_count
            want = np.array([fn(a, b, t) for t in taus])
            bad = [
                (t, g, w)
                for t, g, w in zip(taus, fit.values, want)
                if not _close(g, w, 1e-8 if q == "local_dimension" else 0.0)
            ]
            if bad:
                problems.append(f"{label} {q}: (tau, got, oracle) {bad[:3]}")
            slope = oracle.line_slope(taus, want)
            if not _close(fit.slope, slope, 1e-8):
                problems.append(f"{label} {q}: slope {fit.slope!r} vs oracle fit {slope!r}")
        return problems

    return Item(f"slopes-{label}", run, check)


def root_slopes_round(rng) -> list[Item]:
    # a shift below one part in a million gives every round fresh keys for
    # lyapdim's root cache without moving any root-count bucket, so every
    # round does the same work and none is served from the cache
    taus = TAU_GRID * (1.0 + 1e-6 * rng.random())
    return [_slope_item(*fam, taus) for fam in FAMILIES]


# ---------------------------------------------------------------- cli-calls

MG = (0.2, 0.1, 10.0)  # Mackey-Glass beta, gamma, k
MG_FLAGS = ["--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1", "--k", "10"]
CSV_HEADER = "# lyapdim v1"
SIM_TAU, SIM_T = 22.0, 440.0
# "QR matches product SVD" fails here: the 7th random matrix's SVD reference
# misses its 1e-6 tolerance by 2e-7 (see CHANGES.md)
VERIFY_FAILING_SEED = "1858796044"


def _comments(lines) -> dict:
    return dict(line[2:].split(" ", 1) for line in lines if line.startswith("# ") and " " in line[2:])


def _table(lines) -> list[list[str]]:
    body = [line for line in lines if not line.startswith("#")]
    return [row.split(",") for row in body[1:]]


def _csv_problems(name, proc) -> tuple[list, list]:
    lines = proc.stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"{name}: output does not start with {CSV_HEADER!r}"], lines
    return [], lines


def _check_bound(tau, scaled):
    def check(proc):
        problems, lines = _csv_problems("bound", proc)
        if problems:
            return problems
        got = float(_table(lines)[0][2])
        fn = oracle.mackey_glass_scaled_bound if scaled else oracle.mackey_glass_bound
        want = fn(*MG, tau)
        if not _close(got, want, 1e-8):
            problems.append(f"bound scaled={scaled} tau={tau}: {got!r} vs oracle {want!r}")
        return problems

    return check


def _check_roots(proc):
    problems, lines = _csv_problems("roots", proc)
    if problems:
        return problems
    a, b = oracle.mackey_glass_plus_linearization(*MG)
    notes = _comments(lines)
    rows = _table(lines)
    got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    # two extra oracle roots cover a conjugate pair cut at the table's end
    want = oracle.leading_roots(a, b, 22.0, got.size + 2)
    err = max(float(np.min(np.abs(want - g))) / (1.0 + abs(g)) for g in got)
    if err > 1e-9:
        problems.append(f"roots: worst root misses the oracle by {err:.1e}")
    if int(notes.get("N_u", -1)) != oracle.unstable_count(a, b, 22.0):
        problems.append(f"roots: N_u {notes.get('N_u')} vs oracle")
    ld = oracle.local_dimension(a, b, 22.0)
    if not _close(float(notes.get("local_dimension", "nan")), ld, 1e-8):
        problems.append(f"roots: local_dimension {notes.get('local_dimension')} vs oracle {ld!r}")
    return problems


def _check_simulate(proc):
    problems, lines = _csv_problems("simulate", proc)
    if problems:
        return problems
    rows = _table(lines)
    expected = round(SIM_T / (SIM_TAU / 128.0)) + 1
    if len(rows) != expected:
        problems.append(f"simulate: {len(rows)} rows, expected {expected}")
    r0 = oracle.mackey_glass_ball_radius(*MG)
    peak = max(abs(float(r[1])) for r in rows)
    if peak > r0:
        problems.append(f"simulate: |x| reaches {peak!r}, outside the ball {r0!r}")
    return problems


def _check_sweep(lo, hi, points):
    def check(proc):
        problems, lines = _csv_problems("sweep", proc)
        if problems:
            return problems
        rows = _table(lines)
        taus = np.logspace(math.log10(lo), math.log10(hi), points)
        if len(rows) != points:
            return [f"sweep: {len(rows)} rows, expected {points}"]
        for (t, d), want_t in zip(rows, taus):
            want = oracle.mackey_glass_bound(*MG, float(t))
            if not (_close(float(t), want_t, 1e-12) and _close(float(d), want, 1e-8)):
                problems.append(f"sweep: row tau={t} d={d} vs oracle {want!r}")
        return problems

    return check


def _check_verify(proc):
    lines = proc.stdout.splitlines()
    if not lines or any(not line.startswith("PASS") for line in lines):
        return [f"verify: {[line for line in lines if not line.startswith('PASS')]}"]
    return []


def _check_lyap(proc):
    problems, lines = _csv_problems("lyap", proc)
    if problems:
        return problems
    rows = _table(lines)
    values = [float(v) for r in rows for v in r[1:]]
    if len(rows) != 6 or not all(math.isfinite(v) for v in values):
        problems.append(f"lyap: expected 6 finite exponent rows, got {rows}")
    return problems


def cli_calls_round(rng, traced: bool = False) -> list[Item]:
    tau = float(rng.uniform(15.0, 30.0))
    x0 = float(rng.uniform(0.2, 1.2))
    lo, hi = float(rng.uniform(5.0, 15.0)), float(rng.uniform(200.0, 500.0))
    seed_lyap = int(rng.integers(0, 2**31))
    calls = [
        ("bound", ["bound", *MG_FLAGS, "--tau", repr(tau)], _check_bound(tau, False)),
        ("bound-scaled", ["bound", *MG_FLAGS, "--tau", repr(tau), "--scaled"], _check_bound(tau, True)),
        ("roots", ["roots", *MG_FLAGS, "--tau", "22", "--equilibrium", "plus"], _check_roots),
        (
            "simulate",
            ["simulate", *MG_FLAGS, "--tau", repr(SIM_TAU), "--T", repr(SIM_T), "--history", f"const:{x0!r}"],
            _check_simulate,
        ),
        (
            "sweep",
            ["sweep", *MG_FLAGS, "--quantity", "bound", "--tau-range", f"{lo!r}:{hi!r}:12:log"],
            _check_sweep(lo, hi, 12),
        ),
        # verify fails at some seeds, where the cocycle suite's own SVD
        # reference misses its tolerance, so a seed drawn per round would
        # make the failed share differ from run to run.  The full suite runs
        # at its default seed, which passes, and the cocycle suite at a seed
        # where it fails, which counts in `failed` in every round.
        ("verify", ["verify", "--suite", "all"], _check_verify),
        ("verify-cocycle", ["verify", "--suite", "cocycle", "--seed", VERIFY_FAILING_SEED], _check_verify),
        (
            "lyap",
            ["lyap", *MG_FLAGS, "--tau", "22", "--burn-in", "220", "--horizon", "440", "--seed", str(seed_lyap)],
            _check_lyap,
        ),
    ]
    return [Item(name, functools.partial(run_cli, argv, traced), check) for name, argv, check in calls]


def run_cli(argv: list, traced: bool = False) -> subprocess.CompletedProcess:
    """One lyapdim call in a fresh interpreter; traced calls go through
    traced_cli.py, which reports its spans on the last line of stderr."""
    prog = [os.path.join(HERE, "traced_cli.py")] if traced else ["-m", "lyapdim.cli"]
    proc = subprocess.run(
        [sys.executable, *prog, *argv], capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"lyapdim {argv[0]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc
