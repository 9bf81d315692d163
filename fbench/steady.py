#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload repeatedly, each time with another seed, and reports for
every end-to-end metric its median, quartiles and spread (the distance
between the first and third quartile as a share of the median, as
`statistics.quantiles(values, n=4)` gives them) against the metric's bound
in BENCHMARK.json. A metric whose spread exceeds a third of its bound is
named as not steady; `setup_s` is reported but its spread is not judged.
With `--sets 2` it repeats the whole series and names any metric whose
second median is worse than the first by more than its bound.

    python3 fbench/steady.py [--workloads train,score] [--runs 10] [--sets 1]
                             [--seconds N] [--first-seed 1]

Run it from the repository root. Raw results go to fbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(cfg, workload, seed, seconds):
    cmd = cfg["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def worse(metric, first, second):
    """Relative change from first to second in the metric's bad direction."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        cfg = json.load(f)
    seconds = args.seconds or cfg["run_seconds"]
    names = [w["name"] for w in cfg["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    metrics = cfg["end_to_end"]

    raw = {}
    unsteady = []
    for w in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + s * 1000 + i
                r = run_once(cfg, w, seed, seconds)
                if not r["correct"] or r["failed"]:
                    unsteady.append(f"{w}: seed {seed} reported failures")
                results.append(r)
                print(f"{w} set {s + 1} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                      + f" wall={r['wall_s']:.1f}s", flush=True)
            sets.append(results)
        raw[w] = sets
        print(f"\n{w}: {args.runs} runs x {args.sets} set(s), {seconds} s each")
        print(f"  {'metric':<14} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14}"
              f" {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            medians = []
            for s, results in enumerate(sets):
                vals = [r["metrics"][m["name"]]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med) if med else float("inf")
                medians.append(med)
                if m["name"] == "setup_s":
                    verdict = "not judged"
                elif spread < m["bound"] / 3:
                    verdict = "steady"
                elif spread <= m["bound"]:
                    verdict = "NOT STEADY (within bound)"
                    unsteady.append(f"{w}: {m['name']} spread {spread:.3f} > bound/3")
                else:
                    verdict = "NOT STEADY (over bound)"
                    unsteady.append(f"{w}: {m['name']} spread {spread:.3f} > bound {m['bound']}")
                print(f"  {m['name']:<14} {s + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g}"
                      f" {spread:>8.3f} {m['bound']:>6}  {verdict}")
            if len(medians) == 2:
                drift = worse(m, medians[0], medians[1])
                flag = "ok" if drift <= m["bound"] else "WORSE THAN BOUND"
                if flag != "ok":
                    unsteady.append(f"{w}: {m['name']} second median worse by {drift:.3f}")
                print(f"  {m['name']:<14} second median worse by {drift:+.3f}: {flag}")
        print(flush=True)

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"steady-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump({"seconds": seconds, "runs": args.runs, "results": raw}, f, indent=1)
    print(f"raw results: {path}")
    if unsteady:
        print("not steady:")
        for u in unsteady:
            print(f"  {u}")
        return 1
    print("every judged metric is steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
