"""One run of one benchmark workload, in a fresh interpreter started by run.py.

    worker.py --setup-only
        import lyapdim, warm it up, print "ready" and exit (a set-up probe)
    worker.py --workload NAME --seed N --seconds S --trace 0|1
        set up, run whole rounds of the workload until S seconds have passed,
        check every output against the oracle, and print one JSON line;
        with --trace 0 it also prints "probe" now and then and waits for
        "go" on stdin while run.py times a set-up probe

With --trace 1 the rounds alternate untraced and traced, so the tracing
overhead is measured against untraced rounds of the same run; the spans go
to bench/out/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
PROBE_EVERY = 6.0  # seconds of timed work between set-up probes


def blas_threads() -> list[int]:
    """Thread counts reported by every OpenBLAS library loaded here."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return counts


def setup():
    """Import every layer and warm it on inputs no timed item uses."""
    import numpy as np

    import lyapdim.cli  # noqa: F401  (imports every layer)
    from lyapdim import bounds, charroots, dde, tensor

    bounds.mackey_glass_scaled_bound(0.2, 0.1, 10.0, 3.0)
    charroots.local_dimension(charroots.char_roots(charroots.CharProblem(-0.3, 0.2, 2.0), 16))
    model = dde.mackey_glass(0.2, 0.1, 10.0, 2.0)
    traj = dde.integrate(model, dde.HistorySegment.constant(0.5, 2.0), 8.0, 2.0 / 16.0)
    dde.linearized_monodromy(model, traj, 2.0, N=8)
    tensor.compound_multiplicative(np.eye(3), 2)
    np.linalg.qr(np.eye(8))
    threads = blas_threads()
    if any(t != 1 for t in threads):
        raise SystemExit(f"BLAS runs {threads} threads; the benchmark needs 1")


def _rounds(workload: str):
    import workloads

    return {
        "root-slopes": workloads.root_slopes_round,
        "cli-calls": workloads.cli_calls_round,
    }[workload]


def _adopt_cli_spans(tracer, proc, item_span):
    """Take the spans a traced CLI call reported on its last stderr line."""
    from tracer import SPANS_MARKER

    last = proc.stderr.rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith(SPANS_MARKER):
        raise RuntimeError("traced CLI call reported no spans")
    tracer.adopt(json.loads(last[len(SPANS_MARKER):]), item_span.id)


def _pause_for_probe() -> float:
    """Ask run.py to time one set-up probe, wait until it has, and return
    how long the pause took."""
    t0 = time.perf_counter()
    print("probe", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("run.py did not answer a probe request")
    return time.perf_counter() - t0


def run_rounds(workload: str, seed: int, seconds: float, tracer=None):
    """Whole rounds until `seconds` of timed work have passed; with a tracer,
    untraced and traced rounds alternate and the run ends after a traced one.
    Without one, the worker pauses before the first item and then every
    PROBE_EVERY seconds of timed work while run.py times a set-up probe, so
    the probes sample the machine's speed over the whole run; pauses are not
    timed."""
    import numpy as np

    make_round = _rounds(workload)
    rng = np.random.default_rng(seed)
    records = []  # (item, result, seconds, traced); result None when it raised
    rounds = 0
    start = time.perf_counter()
    paused = 0.0
    last_probe = -PROBE_EVERY

    def timed() -> float:
        return time.perf_counter() - start - paused

    while True:
        traced = tracer is not None and rounds % 2 == 1
        items = make_round(rng, traced) if workload == "cli-calls" else make_round(rng)
        if traced:
            tracer.install()
        for item in items:
            if tracer is None and timed() - last_probe >= PROBE_EVERY:
                paused += _pause_for_probe()
                last_probe = timed()
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.request = len(records)
                    with tracer.span("bench.item") as span:
                        result = item.run()
                        if workload == "cli-calls":
                            _adopt_cli_spans(tracer, result, span)
                else:
                    result = item.run()
            except Exception:
                traceback.print_exc()
                result = None
            records.append((item, result, time.perf_counter() - t0, traced))
        if traced:
            tracer.uninstall()
        rounds += 1
        if timed() >= seconds and (tracer is None or rounds % 2 == 0):
            break
    return records, rounds, timed()


def peak_rss_mb() -> float:
    """Peak resident memory of the processes that did the workload's work:
    the largest CLI process this worker waited for if it ran any, else the
    worker itself."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (children or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0


def _probe(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, timeout=60).stdout


def _cli_probes(n: int = 3) -> dict[str, float]:
    """Bare interpreter start, and a fresh `import lyapdim.cli` timed inside
    the importing process."""
    bare = []
    for _ in range(n):
        t0 = time.perf_counter()
        _probe("pass")
        bare.append(time.perf_counter() - t0)
    imports = [
        float(_probe("import time; t = time.perf_counter(); import lyapdim.cli; "
                     "print(time.perf_counter() - t)"))
        for _ in range(n)
    ]
    return {"cli.interp_s": statistics.median(bare), "cli.import_s": statistics.median(imports)}


def traced_metrics(workload, seed, tracer, records, rounds) -> dict[str, float]:
    from tracer import layer_metrics, self_times

    traced_rounds = rounds // 2
    metrics = layer_metrics(tracer.spans, traced_rounds)
    metrics.update(_cli_probes())
    plain = sum(d for _, _, d, traced in records if not traced) / (rounds - traced_rounds)
    traced_time = sum(d for _, _, d, traced in records if traced) / traced_rounds
    own = self_times(tracer.spans)
    layer_self = sum(own[s.id] for s in tracer.spans if s.name != "bench.item") / traced_rounds
    metrics["trace.overhead_frac"] = traced_time / plain - 1.0
    metrics["trace.self_sum_frac"] = layer_self / plain
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "traced_rounds": traced_rounds,
                   "metrics": metrics, "spans": tracer.dump()}, fh)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    records, rounds, wall = run_rounds(args.workload, args.seed, args.seconds, tracer)
    peak_mb = peak_rss_mb()
    done = [(item, result, d) for item, result, d, _ in records if result is not None]
    problems = []
    for item, result, _ in done:
        problems += item.check(result)
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    out = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(records) - len(done),
        "items_per_s": len(done) / wall,
        "item_p50_s": statistics.median(d for _, _, d in done) if done else 0.0,
        "peak_rss_mb": peak_mb,
    }
    if tracer is not None:
        out["per_layer"] = traced_metrics(args.workload, args.seed, tracer, records, rounds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
