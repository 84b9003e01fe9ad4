#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--out runs.json]

Runs perfbench/run.py once per (workload, seed) with BENCHMARK.json's
run_seconds and prints, per workload and end-to-end metric, the median, the
quartiles (statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median next
to the metric's bound. Spreads above a third of the bound are flagged;
setup_s is exempt (its median, not its spread, is compared between commits).
Exits nonzero when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed, trace=0):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", help="also write every run's result here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)

    runs, bad = {}, False
    for w in workloads:
        for s in seeds:
            code, result = run_once(bench, w, s)
            runs.setdefault(w, []).append({"seed": s, "exit": code, "result": result})
            ok = code == 0 and result is not None and result.get("correct")
            bad |= not ok
            print(f"{w} seed {s}: exit {code}{'' if ok else '  FAILED'}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)

    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs[w]
                    if r["result"] and m["name"] in r["result"]["metrics"]]
            if len(vals) < 2:
                print(f"  {m['name']:24} missing")
                bad = True
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s":
                if spread > m["bound"]:
                    flag, bad = "  OVER BOUND", True
                elif spread > m["bound"] / 3:
                    flag = "  above bound/3"
            print(f"  {m['name']:24} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {m['bound']:6.2f}{flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
