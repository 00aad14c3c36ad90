"""Command-line interface: subcommands, config precedence, output formats,
exit codes, determinism, worker pools."""

import contextlib
import gc
import itertools
import json
import math
import multiprocessing
import shlex
import subprocess
import sys
import types
from pathlib import Path

import mpmath
import numpy as np
import pytest

from lyapdim import bounds, charroots, cli, cocycle, dde, delayop, tensor


def run_cli(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0] == "# lyapdim v1"
    comments = [l[2:] for l in lines[1:] if l.startswith("# ")]
    data = [l for l in lines[1:] if not l.startswith("#")]
    cols = data[0].split(",") if data else []
    rows = [l.split(",") for l in data[1:]]
    return comments, cols, rows


# ------------------------------------------------------------- bound


def test_bound_mackey_glass_classical(capsys):
    rc, out, _ = run_cli(
        ["bound", "--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1",
         "--k", "10", "--tau", "22"],
        capsys,
    )
    assert rc == 0
    comments, cols, rows = parse_csv(out)
    assert any("0.9958*tau + 1" in c for c in comments)
    assert len(rows) == 1
    row = dict(zip(cols, rows[0]))
    want = bounds.mackey_glass_bound(0.2, 0.1, 10.0, 22.0)
    assert float(row["d_star"]) == want.d_star
    assert float(row["slope_per_tau"]) == pytest.approx(0.9957153, abs=5e-6)
    assert row["provenance"] == "scalar-lemma"
    assert float(row["d_star"]) <= 0.9958 * 22.0 + 1.0


def test_bound_suarez_schopf_scaled(capsys):
    rc, out, _ = run_cli(
        ["bound", "--model", "suarez_schopf", "--alpha", "0.75", "--gamma", "1",
         "--tau", "1.596", "--scaled"],
        capsys,
    )
    assert rc == 0
    comments, cols, rows = parse_csv(out)
    assert any("6.675 unscaled, 5.603 rescaled" in c for c in comments)
    row = dict(zip(cols, rows[0]))
    assert float(row["d_star"]) == pytest.approx(5.603, abs=5e-3)
    assert float(row["scale_opt"]) == pytest.approx(0.346771, abs=1e-4)
    assert row["provenance"] == "scalar-lemma-rescaled"


def test_scaled_bound_checks_what_the_bound_checks(capsys):
    mg = ["bound", "--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1", "--k", "10",
          "--tau", "22"]
    for bad in (["--beta", "-1"], ["--k", "0.5"], ["--tau", "-5"]):
        unscaled = run_cli(mg + bad, capsys)
        assert unscaled[0] == 2 and "need beta > 0, gamma >= 0, k > 1, tau > 0" in unscaled[2]
        assert run_cli(mg + bad + ["--scaled"], capsys) == unscaled


def test_bound_custom_json(capsys):
    rc, out, _ = run_cli(
        ["bound", "--model", "custom", "--a", "0.8", "--b", "0.164025",
         "--tau", "2", "--format", "json"],
        capsys,
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == "lyapdim v1"
    row = dict(zip(payload["columns"], payload["rows"][0]))
    want = bounds.scalar_bound(bounds.BoundProblem(2.0, 0.8, 0.164025))
    assert row["d_star"] == want.d_star
    assert row["p_star"] == pytest.approx(0.8034, abs=5e-4)


def test_bound_exit_codes(capsys):
    rc, _, err = run_cli(["bound", "--model", "mackey_glass", "--beta", "0.2",
                          "--gamma", "0.1", "--k", "10"], capsys)
    assert rc == 2
    assert "--tau" in err
    rc, _, _ = run_cli(["bound", "--model", "unknown", "--tau", "2"], capsys)
    assert rc == 2
    rc, _, _ = run_cli(["bound", "--model", "custom", "--a", "1", "--b", "inf",
                        "--tau", "2"], capsys)
    assert rc == 2


def test_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nmodel = custom\na = 0.8\nb = 0.164025\ntau = 5\n")
    rc, out, _ = run_cli(["bound", "--config", str(cfg)], capsys)
    assert rc == 0
    _, cols, rows = parse_csv(out)
    assert float(dict(zip(cols, rows[0]))["tau"]) == 5.0
    # flags override config values
    rc, out, _ = run_cli(["bound", "--config", str(cfg), "--tau", "2"], capsys)
    assert rc == 0
    _, cols, rows = parse_csv(out)
    assert float(dict(zip(cols, rows[0]))["tau"]) == 2.0
    bad = tmp_path / "bad.cfg"
    bad.write_text("tau 5\n")
    rc, _, err = run_cli(["bound", "--config", str(bad)], capsys)
    assert rc == 2
    assert "key=value" in err
    rc, _, _ = run_cli(["bound", "--config", str(tmp_path / "absent.cfg")], capsys)
    assert rc == 2
    # the file can set any flag of its subcommand, where the output goes too
    rc, out, _ = run_cli(["bound", "--config", str(cfg)], capsys)
    to_file = tmp_path / "to_file.cfg"
    to_file.write_text(cfg.read_text() + f"output = {tmp_path / 'out.csv'}\n")
    assert run_cli(["bound", "--config", str(to_file)], capsys) == (0, "", "")
    assert (tmp_path / "out.csv").read_text() == out


_MG_TAU = ["--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1", "--k", "10", "--tau", "2"]


@pytest.mark.parametrize(
    "line, argv, flags",
    [
        ("format = json", ["bound", *_MG_TAU], ["--format", "json"]),
        ("seed = 7", ["simulate", *_MG_TAU, "--T", "4", "--history", "random"], ["--seed", "7"]),
        ("scaled = Yes", ["bound", *_MG_TAU], ["--scaled"]),
    ],
)
def test_config_value_acts_as_its_flag(line, argv, flags, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    via_flags = run_cli(argv + flags, capsys)
    assert via_flags[0] == 0
    assert run_cli(argv + ["--config", str(cfg)], capsys) == via_flags
    assert via_flags != run_cli(argv, capsys)


_LINEAR = ["--model", "linear", "--a", "-1", "--b", "0.5", "--tau", "1"]


@pytest.mark.parametrize(
    "key, argv",
    [
        ("T", ["simulate", *_LINEAR]),
        ("dt", ["simulate", *_LINEAR, "--T", "2"]),
        ("m", ["lyap", *_LINEAR, "--N", "8"]),
        ("N", ["lyap", *_LINEAR, "--m", "2"]),
        ("count", ["roots", "--a", "-0.1", "--b", "-0.4", "--tau", "22"]),
        ("burn_in", ["lyap", *_LINEAR, "--m", "2", "--N", "8"]),
        ("horizon", ["lyap", *_LINEAR, "--m", "2", "--N", "8"]),
        ("jobs", ["sweep", "--model", "custom", "--a", "0.8", "--b", "0.164025",
                  "--quantity", "bound", "--tau-range", "1:2:3:lin"]),
    ],
)
def test_malformed_config_value_exits_2(key, argv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = abc\n")
    rc, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
    assert rc == 2
    what = "a number" if key in ("T", "dt", "burn_in", "horizon") else "an integer"
    assert out == "" and err == f"error: {key} must be {what}, got 'abc'\n"


_SWEEP_CUSTOM = ["sweep", "--model", "custom", "--a", "0.8", "--b", "0.164025"]


@pytest.mark.parametrize(
    "line, argv, message",
    [
        ("a = abc", ["roots", "--b", "-0.4", "--tau", "22"], "a must be a number, got 'abc'"),
        ("scaled = maybe", ["bound", *_MG_TAU], "scaled must be on or off, got 'maybe'"),
        ("quantity = entropy", [*_SWEEP_CUSTOM, "--tau-range", "1:2:3:lin"],
         "quantity must be one of bound, local_dim, unstable, lyap, got 'entropy'"),
        ("tau_range = 1:2:x:lin", _SWEEP_CUSTOM,
         "range must be start:stop:points:lin|log, got '1:2:x:lin'"),
        ("tau-range = 1:2:3.5:lin", _SWEEP_CUSTOM,
         "range must be start:stop:points:lin|log, got '1:2:3.5:lin'"),
        ("history = const:abc", ["simulate", *_LINEAR, "--T", "2"],
         "history const:VALUE needs a number, got 'const:abc'"),
        ("jobs = 0", [*_SWEEP_CUSTOM, "--tau-range", "1:2:3:lin"], "jobs must be at least 1, got 0"),
        ("seed = -1", ["simulate", *_LINEAR, "--T", "2", "--history", "random"],
         "seed must be a non-negative integer, got -1"),
    ],
)
def test_config_value_checked_as_its_flag_exits_2(line, argv, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    rc, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_config_key_of_no_subcommand_exits_2(tmp_path, capsys):
    # keys of other subcommands are ignored; a misspelt one is not
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon = 5\n")
    assert run_cli(["bound", *_MG_TAU, "--config", str(cfg)], capsys) == run_cli(["bound", *_MG_TAU], capsys)
    cfg.write_text("sacled = true\n")
    rc, out, err = run_cli(["bound", *_MG_TAU, "--config", str(cfg)], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: config key 'sacled' is not a setting of any subcommand\n"


def test_fractional_integer_setting_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 2.5\n")
    rc, out, err = run_cli(["lyap", *_LINEAR, "--N", "8", "--config", str(cfg)], capsys)
    assert rc == 2
    assert out == "" and err == "error: m must be an integer, got 2.5\n"


def test_bound_determinism(tmp_path):
    argv = ["bound", "--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1",
            "--k", "10", "--tau", "22", "--scaled"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--output", str(p1)]) == 0
    assert cli.main(argv + ["--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


# ------------------------------------------------------------- roots


def test_roots_custom_problem(capsys):
    rc, out, _ = run_cli(
        ["roots", "--a", "-0.1", "--b", "-0.4", "--tau", "22", "--count", "32"],
        capsys,
    )
    assert rc == 0
    comments, cols, rows = parse_csv(out)
    assert "N_u 4" in comments
    assert any(c.startswith("local_dimension ") for c in comments)
    assert cols == ["index", "re", "im", "residual"]
    assert len(rows) == 32
    want = charroots.char_roots(charroots.CharProblem(-0.1, -0.4, 22.0), 32)
    got_re = np.array([float(r[1]) for r in rows])
    assert np.allclose(got_re, want.real_parts(), atol=1e-12)
    assert max(float(r[3]) for r in rows) <= 1e-9


def test_roots_count_says_what_it_cannot_certify(capsys):
    # a fixed --count certifies nothing it has too few roots for
    argv = ["roots", "--a", "-0.1", "--b", "-0.4", "--tau", "22", "--count", "2"]
    rc, out, _ = run_cli(argv, capsys)
    comments, _, rows = parse_csv(out)
    assert (rc, len(rows)) == (0, 2)
    assert comments == ["a -0.1 b -0.4 tau 22.0", "N_u undetermined",
                        "local_dimension undetermined"]
    # a = 0.5, b = 0 has the one root 0.5: fewer than the three asked for
    rc, out, _ = run_cli(["roots", "--a", "0.5", "--b", "0", "--tau", "1", "--count", "3"], capsys)
    comments, _, rows = parse_csv(out)
    assert (rc, rows) == (0, [["0", "0.5", "0.0", "0.0"]])
    assert comments == ["a 0.5 b 0.0 tau 1.0", "N_u undetermined", "local_dimension undetermined",
                        "partial: fewer certified roots than requested"]


def test_roots_growth_until_certified(capsys):
    rc, out, _ = run_cli(["roots", "--a", "-0.1", "--b", "-0.4", "--tau", "22"], capsys)
    assert rc == 0
    comments, _, rows = parse_csv(out)
    assert "N_u 4" in comments
    nl = [c for c in comments if c.startswith("N_L ")]
    assert nl == ["N_L 6"]
    dim = float(next(c.split()[1] for c in comments if c.startswith("local_dimension")))
    assert dim == pytest.approx(6.8729903, abs=1e-5)
    assert len(rows) >= 15


def test_roots_equilibrium_mapping(capsys):
    # chaotic-branch linearization of the classical feedback oscillator
    rc, out, _ = run_cli(
        ["roots", "--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1",
         "--k", "10", "--tau", "22", "--equilibrium", "plus", "--count", "8"],
        capsys,
    )
    assert rc == 0
    comments, _, rows = parse_csv(out)
    assert any(c.startswith("a -0.1 b -0.4 tau 22.0") for c in comments)
    # zero equilibrium keeps the raw delayed gain
    rc, out, _ = run_cli(
        ["roots", "--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1",
         "--k", "10", "--tau", "22", "--equilibrium", "zero"],
        capsys,
    )
    assert rc == 0
    comments, _, _ = parse_csv(out)
    assert any(c.startswith("a -0.1 b 0.2") for c in comments)
    assert "N_u 1" in comments
    # oscillator zero equilibrium: growth a = gamma, delayed -alpha
    rc, out, _ = run_cli(
        ["roots", "--model", "suarez_schopf", "--alpha", "0.75", "--gamma", "1",
         "--tau", "1.596", "--equilibrium", "zero", "--count", "4"],
        capsys,
    )
    assert rc == 0
    comments, _, _ = parse_csv(out)
    assert any(c.startswith("a 1.0 b -0.75") for c in comments)
    # symmetric equilibria require gamma > alpha
    rc, _, _ = run_cli(
        ["roots", "--model", "suarez_schopf", "--alpha", "1.5", "--gamma", "1",
         "--tau", "1.596", "--equilibrium", "plus"],
        capsys,
    )
    assert rc == 2


# ------------------------------------------------------------- simulate


def test_simulate_linear_decay(capsys):
    rc, out, _ = run_cli(
        ["simulate", "--model", "linear", "--a", "-1", "--b", "0", "--tau", "1",
         "--T", "2", "--dt", "0.0625", "--history", "const:1.0"],
        capsys,
    )
    assert rc == 0
    _, cols, rows = parse_csv(out)
    assert cols == ["t", "x_1"]
    assert len(rows) == 33  # nodes at t = 0 .. 2
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == 1.0
    assert float(rows[-1][1]) == pytest.approx(math.exp(-2.0), abs=1e-7)


def test_simulate_history_specs(capsys):
    rc, _, _ = run_cli(
        ["simulate", "--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1",
         "--k", "10", "--tau", "2", "--T", "4", "--history", "random", "--seed", "7"],
        capsys,
    )
    assert rc == 0
    rc, _, _ = run_cli(
        ["simulate", "--model", "linear", "--a", "0", "--b", "-1", "--tau", "1",
         "--T", "1", "--history", "parabola"],
        capsys,
    )
    assert rc == 2
    rc, out, err = run_cli(["simulate", *_LINEAR, "--T", "1", "--history", "const:abc"], capsys)
    assert (rc, out) == (2, "") and err.startswith("error: history const:VALUE needs a number")


# ------------------------------------------------------------- lyap


def test_lyap_stable_linear(capsys):
    rc, out, _ = run_cli(
        ["lyap", "--model", "linear", "--a", "-1", "--b", "0.5", "--tau", "1",
         "--m", "2", "--N", "32", "--burn-in", "3", "--horizon", "12"],
        capsys,
    )
    assert rc == 0
    comments, cols, rows = parse_csv(out)
    assert "lambda1_positive False" in comments
    assert "ky 0.0" in comments
    assert cols == ["j", "lambda", "lambda_last_half"]
    assert len(rows) == 2
    assert float(rows[0][1]) < 0.0


def test_lyap_mackey_glass_frozen(capsys):
    rc, out, _ = run_cli(
        ["lyap", "--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1", "--k", "10",
         "--tau", "22", "--burn-in", "220", "--horizon", "440", "--seed", "7"],
        capsys,
    )
    assert rc == 0
    comments, _, rows = parse_csv(out)
    lam = np.array([float(r[1]) for r in rows])
    want = [0.013728035088953523, 0.005766216101028951, -0.019196933932594525,
            -0.03251736428488062, -0.04620210228504269, -0.05684107440810501]
    assert np.allclose(lam, want, rtol=0.0, atol=1e-10)
    ky = float(next(c for c in comments if c.startswith("ky ")).split()[1])
    assert ky == pytest.approx(3.009143338149525, abs=1e-10)
    assert ky == cocycle.kaplan_yorke(lam, 6)


def test_lyap_m_zero_exits_2():
    res = subprocess.run(
        [sys.executable, "-m", "lyapdim.cli", "lyap", *_LINEAR, "--m", "0", "--N", "8",
         "--burn-in", "3", "--horizon", "4"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: need 1 <= m <= 9") and "Traceback" not in res.stderr


# ------------------------------------------------------------- verify


def test_verify_single_suite(capsys):
    rc, out, _ = run_cli(["verify", "--suite", "tensor"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines
    assert all(l.startswith("PASS") for l in lines)


def test_verify_json_holds_the_checks_of_the_csv_lines(capsys):
    rc, out, _ = run_cli(["verify", "--suite", "delayop", "--format", "json"], capsys)
    payload = json.loads(out)
    assert rc == 0 and payload["schema"] == "lyapdim v1"
    assert payload["columns"] == ["status", "suite", "check", "detail"]
    _, lines, _ = run_cli(["verify", "--suite", "delayop"], capsys)
    assert [f"{status}  {suite}: {check}" + (f"  ({detail})" if detail else "")
            for status, suite, check, detail in payload["rows"]] == lines.splitlines()


def test_verify_cocycle_ill_conditioned_seed(capsys):
    # the 7th matrix here has singular values of expm(5A) spanning 2e10; a
    # reference summing logs of SVD values missed the 1e-6 tolerance
    rc, out, _ = run_cli(["verify", "--suite", "cocycle", "--seed", "1858796044"], capsys)
    assert rc == 0
    assert all(l.startswith("PASS") for l in out.strip().split("\n"))


def test_dimension_sandwich_builds_one_table_per_cocycle(monkeypatch):
    # 10 x 2 passes against the SVD, one per base point of the three
    # equilibria, and one per sandwich cocycle for both of its sides
    runs = []
    qr = cocycle.volume_growth_qr

    def counted(coc, q, m, T):
        runs.append(T)
        return qr(coc, q, m, T)

    monkeypatch.setattr(cocycle, "volume_growth_qr", counted)
    checks = cli._suite_cocycle(0)
    assert all(ok for _, ok, _ in checks)
    assert len(runs) == 20 + 3 + 5 and runs.count(40.0) == 5


def test_suite_expm_matches_scipy():
    # the cocycle suite's random matrices: ten n x n with n in 2..4, and
    # five 0.5 (A - 1.5 I) with A 3 x 3; where scipy's expm is more than
    # 1e-13 off (seeds 22, 25 and 29 among these), the numpy one must be
    # closer than it to 30-digit mpmath
    from scipy.linalg import expm

    def rel(x, y):
        return np.linalg.norm(x - y) / np.linalg.norm(y)

    for seed in range(30):
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(10):
            n = int(rng.integers(2, 5))
            mats.append(rng.normal(size=(n, n)))
            rng.integers(1, n + 1)
        mats += [0.5 * (rng.normal(size=(3, 3)) - 1.5 * np.eye(3)) for _ in range(5)]
        for A in mats:
            got, want = cli._expm(A), expm(A)
            if rel(got, want) > 1e-13:
                with mpmath.workdps(30):
                    exact = np.array(mpmath.expm(mpmath.matrix(A.tolist())).tolist(), dtype=float)
                assert rel(got, exact) < min(rel(want, exact), 1e-13)


def test_verify_unknown_suite(capsys):
    rc, _, _ = run_cli(["verify", "--suite", "nonsense"], capsys)
    assert rc == 2


# ------------------------------------------------------------- sweep


def test_sweep_bound(capsys):
    rc, out, _ = run_cli(
        ["sweep", "--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1",
         "--k", "10", "--quantity", "bound", "--tau-range", "10:100:5:log"],
        capsys,
    )
    assert rc == 0
    comments, cols, rows = parse_csv(out)
    assert cols == ["tau", "d_star"]
    assert len(rows) == 5
    assert not any(c.startswith("slope") for c in comments)
    slope = (float(rows[-1][1]) - 1.0) / float(rows[-1][0])
    assert slope == pytest.approx(0.9957153, abs=1e-4)


def test_sweep_local_dim_with_slope(capsys):
    rc, out, _ = run_cli(
        ["sweep", "--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1",
         "--k", "10", "--equilibrium", "plus", "--quantity", "local_dim",
         "--tau-range", "10:80:6:log"],
        capsys,
    )
    assert rc == 0
    comments, cols, rows = parse_csv(out)
    assert cols == ["tau", "local_dim"]
    slope_line = next(c for c in comments if c.startswith("slope"))
    slope = float(slope_line.split()[1])
    assert slope == pytest.approx(0.294, abs=0.015)


def test_sweep_parallel_matches_serial(tmp_path):
    argv = ["sweep", "--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1",
            "--k", "10", "--equilibrium", "plus", "--quantity", "unstable",
            "--tau-range", "10:60:6:log"]
    serial, parallel, via_cfg = tmp_path / "s.csv", tmp_path / "p.csv", tmp_path / "c.csv"
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("jobs = 3\n")
    assert cli.main(argv + ["--output", str(serial)]) == 0
    assert cli.main(argv + ["--output", str(parallel), "--jobs", "2"]) == 0
    assert cli.main(argv + ["--output", str(via_cfg), "--config", str(cfg)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    assert serial.read_bytes() == via_cfg.read_bytes()


def test_sweep_lyap_row_is_lyap_with_its_stated_recipe(capsys):
    # README: a 50 tau burn-in, an 80 tau horizon, N = 64 and the default step
    seed = ["--m", "4", "--seed", "3"]
    rc, out, _ = run_cli(["sweep", *_MG, "--quantity", "lyap", "--tau-range", "20:22:2:lin", *seed],
                         capsys)
    _, cols, rows = parse_csv(out)
    assert (rc, cols) == (0, ["tau", "lambda_1", "ky"])
    assert rows[-1] == ["22.0", "0.008007541832617773", "2.38408518708108"]
    for tau, lambda_1, ky in rows:
        t = float(tau)
        rc, out, _ = run_cli(["lyap", *_MG, "--tau", tau, *seed, "--burn-in", repr(50.0 * t),
                              "--horizon", repr(80.0 * t)], capsys)
        comments, _, spectrum = parse_csv(out)
        assert rc == 0 and f"ky {ky}" in comments and spectrum[0][1] == lambda_1


def test_sweep_validation(capsys):
    base = ["sweep", "--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1",
            "--k", "10"]
    rc, _, _ = run_cli(base + ["--quantity", "bound", "--tau-range", "10:100:5"], capsys)
    assert rc == 2
    rc, _, _ = run_cli(base + ["--quantity", "bound", "--tau-range", "100:10:5:log"], capsys)
    assert rc == 2
    rc, _, _ = run_cli(base + ["--quantity", "entropy", "--tau-range", "10:100:5:log"], capsys)
    assert rc == 2
    for bad in ("1:2:x:lin", "1:2:3.5:lin", "nan:2:3:lin", "1:inf:3:lin"):
        rc, out, err = run_cli(base + ["--quantity", "bound", "--tau-range", bad], capsys)
        assert (rc, out) == (2, "") and err.startswith("error: range"), bad
    for bad, message in (("0:10:3:log", "log spacing needs start > 0"),
                         ("1:2:3:geo", "unknown spacing 'geo'")):
        rc, out, err = run_cli(base + ["--quantity", "bound", "--tau-range", bad], capsys)
        assert (rc, out, err) == (2, "", f"error: {message}\n"), bad
    rc, out, err = run_cli(base + ["--quantity", "lyap", "--m", "0", "--tau-range", "10:12:2:lin"],
                           capsys)
    assert (rc, out) == (2, "") and err.startswith("error: need 1 <= m")


def test_sweep_pool_never_outnumbers_its_cells(monkeypatch, capsys):
    sizes = []

    def pool(size):
        sizes.append(size)
        return contextlib.nullcontext(types.SimpleNamespace(map=lambda f, xs: list(map(f, xs))))

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: types.SimpleNamespace(Pool=pool))
    argv = [*_SWEEP_CUSTOM, "--tau-range", "1:2:3:lin"]
    serial = run_cli(argv, capsys)
    assert serial[0] == 0
    assert run_cli(argv + ["--jobs", "8"], capsys) == serial
    assert run_cli(argv + ["--jobs", "2"], capsys) == serial
    assert sizes == [3, 2]
    for jobs in ("0", "-3"):
        rc, out, err = run_cli(argv + ["--jobs", jobs], capsys)
        assert (rc, out, err) == (2, "", f"error: jobs must be at least 1, got {jobs}\n")
    assert sizes == [3, 2]


# ------------------------------------------------------------- model registry


_SS = ["--model", "suarez_schopf", "--alpha", "0.75"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # a gamma of 0 reaches the bound, which rejects it
        (["sweep", *_SS, "--gamma", "0", "--quantity", "bound", "--tau-range", "1:2:3:lin"],
         "gamma"),
        (["bound", *_SS, "--gamma", "0", "--tau", "1.596"], "gamma"),
        (["sweep", "--model", "mackey", "--a", "0.8", "--b", "0.164025", "--quantity", "bound",
          "--tau-range", "1:2:3:lin"], "unknown model 'mackey'"),
        (["sweep", "--model", "foo", "--quantity", "bound", "--tau-range", "1:2:3:lin"],
         "unknown model 'foo'"),
        (["sweep", "--model", "mackey_glass", "--quantity", "bound", "--tau-range", "1:2:3:lin"],
         "--beta"),
        (["bound", "--model", "custom", "--a", "0.8", "--b", "0.164025", "--tau", "2",
          "--scaled"], "no scaled bound for model 'custom'"),
        (["simulate", "--model", "custom", "--a", "0", "--b", "-1", "--tau", "1", "--T", "1"],
         "no delay model for model 'custom'"),
        (["roots", "--model", "linear", "--a", "-0.1", "--b", "-0.4", "--tau", "22"],
         "no equilibria for model 'linear'"),
        # non-finite numbers, each named as given
        (["lyap", *_MG_TAU, "--horizon", "nan"], "horizon must be finite"),
        (["lyap", *_MG_TAU, "--burn-in", "inf"], "burn_in must be finite"),
        (["lyap", *_MG_TAU, "--tau", "nan"], "error: tau must be finite"),
        (["simulate", *_MG_TAU, "--T", "nan"], "T=nan"),
        (["simulate", *_MG_TAU, "--T", "inf"], "T=inf"),
        # numpy's generators take no negative seed
        (["lyap", *_MG_TAU, "--seed", "-1"], "argument --seed: invalid non-negative int value: '-1'"),
        (["simulate", *_MG_TAU, "--T", "4", "--history", "random", "--seed", "-5"],
         "argument --seed: invalid non-negative int value: '-5'"),
        # N is checked, against the machine's memory too, before anything is built
        (["lyap", *_MG_TAU, "--N", "-3"], "error: N must be at least 1, got -3"),
        (["lyap", *_MG_TAU, "--N", "100000000"], "error: 100 dense windows at N = 100000000 need"),
    ],
    ids=["sweep-gamma-0", "bound-gamma-0", "sweep-misspelt-model", "sweep-unknown-model",
         "sweep-missing-params", "bound-custom-scaled", "simulate-custom", "roots-linear",
         "lyap-horizon-nan", "lyap-burn-in-inf", "lyap-tau-nan", "simulate-T-nan", "simulate-T-inf",
         "lyap-seed-negative", "simulate-seed-negative", "lyap-N-negative", "lyap-N-too-large"],
)
def test_model_input_outside_the_registry_fails_loudly(argv, message, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == "" and message in err and "Traceback" not in err


def test_suarez_schopf_gamma_defaults_to_one_everywhere(capsys):
    ss = [*_SS, "--tau", "1.596"]
    for argv in (
        ["bound", *ss],
        ["roots", *ss, "--equilibrium", "plus", "--count", "4"],
        ["simulate", *ss, "--T", "3.192"],
        ["sweep", *_SS, "--quantity", "bound", "--tau-range", "1:2:3:lin"],
    ):
        implicit = run_cli(argv, capsys)
        assert implicit == run_cli(argv + ["--gamma", "1"], capsys)
        assert implicit[0] == 0, argv


def test_registry_linearization_matches_closed_forms():
    for beta, gamma, k in itertools.product((0.2, 0.5), (0.1, 0.15), (6.0, 10.0)):
        base = dict(model="mackey_glass", beta=beta, gamma=gamma, k=k, tau=22.0)
        xbar = (beta / gamma - 1.0) ** (1.0 / k)
        yk = xbar**k
        fprime = (1.0 + (1.0 - k) * yk) / (1.0 + yk) ** 2
        for eq, want in (("plus", (-gamma, beta * fprime)), ("minus", (-gamma, beta * fprime)),
                         ("zero", (-gamma, beta))):
            prob = cli._equilibrium_problem(dict(base, equilibrium=eq))
            assert (prob.a, prob.b) == pytest.approx(want, rel=1e-14, abs=0.0)
            assert prob.tau == 22.0
    for alpha, gamma in itertools.product((0.3, 0.6, 0.75), (1.0, 1.3, 2.0)):
        base = dict(model="suarez_schopf", alpha=alpha, gamma=gamma, tau=1.596)
        for eq, want in (("plus", (3.0 * alpha - 2.0 * gamma, -alpha)),
                         ("minus", (3.0 * alpha - 2.0 * gamma, -alpha)),
                         ("zero", (gamma, -alpha))):
            prob = cli._equilibrium_problem(dict(base, equilibrium=eq))
            assert (prob.a, prob.b) == pytest.approx(want, rel=1e-14, abs=0.0)


# ------------------------------------------------------------- plumbing


def test_bad_subcommand_and_help(capsys):
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "bound" in out and "sweep" in out


def test_readme_cli_examples_exit_0(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("lyapdim ")]
    assert len(lines) >= 7
    for line in lines:
        argv = shlex.split(line)[1:]
        assert cli.main(argv + ["--output", str(tmp_path / "out")]) == 0, line


def test_jobs_is_a_sweep_flag(capsys):
    rc, _, err = run_cli(["bound", "--model", "custom", "--a", "0.8", "--b", "0.164025",
                          "--tau", "2", "--jobs", "2"], capsys)
    assert rc == 2
    assert "--jobs" in err


def test_module_exports_exist():
    # the benchmark tracer wraps every __all__ name, so a stale one breaks it
    for module in (bounds, charroots, cocycle, dde, delayop, tensor):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_console_script_installed():
    res = subprocess.run(
        [sys.executable, "-m", "lyapdim.cli", "bound", "--model", "custom",
         "--a", "0.8", "--b", "0.164025", "--tau", "2"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert res.stdout.startswith("# lyapdim v1")


def test_module_entry_writes_what_main_writes(tmp_path):
    # `python -m lyapdim.cli` runs entry(), without the cyclic collector
    argv = ["lyap", *_MG, "--tau", "22", "--burn-in", "220", "--horizon", "440", "--seed", "7"]
    assert cli.main(argv + ["--output", str(tmp_path / "main.csv")]) == 0
    res = subprocess.run(
        [sys.executable, "-m", "lyapdim.cli", *argv, "--output", str(tmp_path / "entry.csv")],
        capture_output=True,
        text=True,
    )
    assert (res.returncode, res.stdout, res.stderr) == (0, "", "")
    assert (tmp_path / "entry.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


def test_module_entry_numerical_failure_exits_1():
    # Suarez-Schopf at tau = 300 blows up under the default step
    res = subprocess.run(
        [sys.executable, "-m", "lyapdim.cli", "lyap", "--model", "suarez_schopf",
         "--alpha", "0.75", "--tau", "300", "--m", "4"],
        capture_output=True,
        text=True,
    )
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == "numerical failure: nonfinite state at t = 79.6875\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, capsys):
    was = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        assert cli.main(["verify", "--suite", "dde"]) == 0
        assert cli.main(["bound", "--model", "custom", "--a", "0.8", "--tau", "2"]) == 2
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


def test_entry_runs_main_without_the_collector(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 3)
    was = gc.isenabled()
    try:
        with pytest.raises(SystemExit) as exc:
            cli.entry()
    finally:
        gc.unfreeze()
        if was:
            gc.enable()
    assert exc.value.code == 3 and seen == [False]


_QUIET_PROBE = """
import contextlib, io, json, sys
from lyapdim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]), file=sys.__stdout__)
"""


def test_simulate_lyap_and_verify_write_nothing_to_stderr():
    # numpy prints RuntimeWarnings (overflow, invalid value) to stderr once
    # per location, so one interpreter running all three calls sees each
    mg = ["--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1", "--k", "10", "--tau", "22"]
    calls = [
        ["simulate", *mg, "--T", "440", "--history", "const:0.5"],
        ["lyap", *mg, "--burn-in", "220", "--horizon", "440", "--seed", "7"],
        ["verify", "--suite", "all"],
    ]
    res = subprocess.run(
        [sys.executable, "-c", _QUIET_PROBE, json.dumps(calls)], capture_output=True, text=True
    )
    assert res.returncode == 0 and json.loads(res.stdout) == [0, 0, 0]
    assert res.stderr == ""


_MG = ["--model", "mackey_glass", "--beta", "0.2", "--gamma", "0.1", "--k", "10"]
_SCIPY_PROBE = """
import contextlib, io, json, sys
from lyapdim.cli import main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = main(argv) if argv else 0
print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("scipy")), out.getvalue(),
                  sorted(m for m in sys.modules if m == "numpy" or m.startswith("lyapdim."))]))
"""


def _scipy_after(argv):
    res = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(argv)], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bound", *_MG, "--tau", "22"],
        ["bound", *_MG, "--tau", "22.5", "--scaled"],
        ["sweep", *_MG, "--quantity", "bound", "--tau-range", "10:100:4:log"],
        ["simulate", *_MG, "--tau", "2", "--T", "4"],
        ["lyap", *_LINEAR, "--m", "2", "--N", "8", "--burn-in", "3", "--horizon", "4"],
        ["verify", "--suite", "cocycle"],
        ["verify", "--suite", "bounds"],
        ["verify", "--suite", "dde"],
    ],
    ids=["import", "bound", "bound-scaled", "sweep-bound", "simulate", "lyap",
         "verify-cocycle", "verify-bounds", "verify-dde"],
)
def test_commands_without_root_finding_never_import_scipy(argv):
    rc, scipy_modules, _, _ = _scipy_after(argv)
    assert rc == 0
    assert scipy_modules == []


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--a", "-0.1", "--b", "-0.4", "--tau", "22"],
        ["sweep", *_MG, "--quantity", "local_dim", "--tau-range", "10:500:6:log"],
        ["sweep", *_MG, "--quantity", "unstable", "--tau-range", "10:500:6:log"],
        ["verify", "--suite", "all"],
        ["verify", "--suite", "charroots"],
    ],
    ids=["roots", "sweep-local-dim", "sweep-unstable", "verify-all", "verify-charroots"],
)
def test_root_finding_commands_never_import_scipy(argv):
    # every Lambert-W branch comes from numpy and math
    rc, scipy_modules, out, _ = _scipy_after(argv)
    assert rc == 0
    assert scipy_modules == []
    if argv[0] == "roots":
        comments, cols, rows = parse_csv(out)
        assert "N_u 4" in comments and cols == ["index", "re", "im", "residual"] and rows


_BOUND_ONLY = {"lyapdim.bounds", "lyapdim.cli", "lyapdim.errors"}
_INTEGRATOR = _BOUND_ONLY | {"numpy", "lyapdim.dde", "lyapdim.cocycle", "lyapdim.tensor"}


@pytest.mark.parametrize(
    "argv, loads",
    [
        ([], _BOUND_ONLY),
        (["bound", *_MG, "--tau", "22"], _BOUND_ONLY),
        (["bound", *_MG, "--tau", "22", "--lambda-mode", "tight"], _BOUND_ONLY),
        (["bound", *_MG, "--tau", "22.5", "--scaled"], _BOUND_ONLY),
        (["bound", "--model", "suarez_schopf", "--alpha", "0.75", "--tau", "1.596", "--scaled"],
         _BOUND_ONLY),
        (["bound", "--model", "custom", "--a", "0.8", "--b", "0.164025", "--tau", "2"], _BOUND_ONLY),
        (["sweep", *_MG, "--quantity", "bound", "--tau-range", "10:100:4:log"],
         _BOUND_ONLY | {"numpy"}),
        (["simulate", *_MG, "--tau", "2", "--T", "4"], _INTEGRATOR),
        (["lyap", *_LINEAR, "--m", "2", "--N", "8", "--burn-in", "3", "--horizon", "4"], _INTEGRATOR),
        (["verify", "--suite", "cocycle"], _BOUND_ONLY | {"numpy", "lyapdim.cocycle", "lyapdim.tensor"}),
    ],
    ids=["import", "bound", "bound-tight", "bound-scaled", "bound-suarez-schopf", "bound-custom",
         "sweep-bound", "simulate", "lyap", "verify-cocycle"],
)
def test_each_command_loads_only_the_layers_it_runs(argv, loads):
    # `bound` is closed-form arithmetic in bounds, so it starts without numpy
    rc, _, _, loaded = _scipy_after(argv)
    assert rc == 0
    assert set(loaded) <= loads, sorted(set(loaded) - loads)
