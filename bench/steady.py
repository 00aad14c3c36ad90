"""Steadiness check: two interleaved sets of runs of the same code.

    python3 bench/steady.py

Run from the repository root.  For each workload in BENCHMARK.json, pair i
of ten runs set A with seed 1000+i and set B with seed 2000+i, A first on
even i and B first on odd i, so drift in the machine's speed falls on both
sets alike.  For every end-to-end metric it prints each set's median and
quartiles, the spread (Q3 - Q1) / median, and how much worse B's median is
than A's, against the bounds in BENCHMARK.json; and the share of failed
operations in each set.  Everything is also written to
bench/out/steady.json.  Exits 1 if a spread or a median shift exceeds its
bound, a run is incorrect, or the failed shares differ.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    report, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"A": [], "B": []}
        for i in range(RUNS):
            for side in ("AB" if i % 2 == 0 else "BA"):
                seed = (1000 if side == "A" else 2000) + i
                runs[side].append(one_run(workload, seed, seconds))
                print(f"{workload} {side} seed {seed}: {json.dumps(runs[side][-1])}",
                      file=sys.stderr, flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summary([r["metrics"][name]["value"] for r in runs["A"]])
            b = summary([r["metrics"][name]["value"] for r in runs["B"]])
            shift = (b["median"] - a["median"]) / a["median"]
            worse = shift if m["better"] == "lower" else -shift
            good = worse <= bound and max(a["spread"], b["spread"]) <= bound
            ok &= good
            rows[name] = {"A": a, "B": b, "worse": worse, "bound": bound, "ok": good}
            print(f"{workload:13s} {name:12s} A {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] "
                  f"spread {a['spread']:.3f} | B {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] "
                  f"spread {b['spread']:.3f} | B worse by {worse:+.3f} (bound {bound}) "
                  f"{'ok' if good else 'FAIL'}")
        shares = {s: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for s, rs in runs.items()}
        correct = all(r["correct"] for rs in runs.values() for r in rs)
        ok &= correct and shares["A"] == shares["B"]
        print(f"{workload:13s} failed share A {shares['A']} B {shares['B']}, all correct: {correct}")
        report[workload] = {"metrics": rows, "failed_share": shares, "correct": correct, "runs": runs}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
