#!/usr/bin/env python3
"""Replays the acceptance procedure of BENCHMARK.json's contract.

For every workload: ten runs of the benchmark command, each on another seed;
per end-to-end metric the distance between the first and third quartile of
the ten values as a share of their median must stay within the metric's
bound (a third of it is the target). The whole thing is done twice, and the
second set's median may not be worse than the first's by more than the
bound. Run from the repository root:

    python3 benchmark/spread.py [--workload NAME ...] [--runs 10] [--sets 2]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        medians = []
        for s in range(args.sets):
            start = time.time()
            seeds = range(args.first_seed + s * args.runs,
                          args.first_seed + (s + 1) * args.runs)
            rows = [run(bench["command"], w, seed, bench["run_seconds"]) for seed in seeds]
            took = (time.time() - start) / len(rows)
            medians.append({})
            for m in bench["end_to_end"]:
                vals = [r[m["name"]] for r in rows]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q3 - q1) / med
                medians[-1][m["name"]] = med
                verdict = "ok" if spread <= m["bound"] / 3 else (
                    "WIDE" if spread <= m["bound"] or m["name"] == "setup_s" else "FAIL")
                ok &= verdict != "FAIL"
                print(f"{w:<14} set {s + 1} {m['name']:<16} median {med:<14.6g} "
                      f"spread {spread:7.2%}  bound {m['bound']:.0%}  {verdict}"
                      f"  ({took:.1f} s/run)", flush=True)
        for m in bench["end_to_end"]:
            first, last = medians[0][m["name"]], medians[-1][m["name"]]
            worse = (last - first) / first * (1 if m["better"] == "lower" else -1)
            verdict = "ok" if worse <= m["bound"] else "FAIL"
            ok &= verdict == "ok"
            print(f"{w:<14} drift {m['name']:<16} {worse:+7.2%}  bound {m['bound']:.0%}  {verdict}",
                  flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
