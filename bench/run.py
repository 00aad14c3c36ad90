"""lyapdim benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src, with
BLAS held at one thread.  Each run starts fresh interpreters:

- one worker that runs whole rounds of the workload for S seconds, checks
  every output against the oracle, and reports items_per_s, item_p50_s and
  peak_rss_mb (its own peak memory, or that of the largest CLI process it
  ran);
- set-up probes, run while the worker pauses before its first item and then
  every few seconds of its timed work, each timed from its spawn until
  lyapdim is imported and warmed; their median is setup_s.  Spreading them
  over the run makes them see the machine's speed as the items do.

With --trace 1 the worker alternates untraced and traced rounds and the
per-layer metrics are printed instead.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("root-slopes", "cli-calls")
WORKER_TIMEOUT = 150.0  # seconds; a run must end within 180


def bench_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_time(env) -> float:
    """Seconds from spawning an interpreter until it reports lyapdim
    imported and warmed."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, "--setup-only"], env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit("set-up probe failed")
    return ready - t0


def run_worker(args, env) -> tuple[dict, list[float]]:
    """Run the worker, timing a set-up probe whenever it asks for one;
    return its report and the probe times."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups, last = [], ""
    with subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as proc:
        expired = threading.Event()

        def stop():
            expired.set()
            proc.kill()

        timer = threading.Timer(WORKER_TIMEOUT, stop)
        timer.start()
        try:
            for line in proc.stdout:
                if line.strip() == "probe":
                    setups.append(setup_time(env))
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                elif line.strip():
                    last = line
        finally:
            proc.stdin.close()  # a worker waiting for "go" then stops
            proc.wait()
            timer.cancel()
    if expired.is_set():
        raise SystemExit(f"worker did not finish within {WORKER_TIMEOUT} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited {proc.returncode}")
    return json.loads(last), setups


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "lyapdim", "__init__.py")):
        print(f"error: no lyapdim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    env = bench_env()

    metrics = {}
    report, setups = run_worker(args, env)
    if args.trace == 0:
        metrics["setup_s"] = statistics.median(setups)
        metrics.update({k: report[k] for k in ("items_per_s", "item_p50_s", "peak_rss_mb")})
        wanted = spec["end_to_end"]
    else:
        metrics.update(report["per_layer"])
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
