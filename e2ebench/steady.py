#!/usr/bin/env python3
"""Steadiness command: runs every workload repeatedly in separate sets.

    python3 e2ebench/steady.py [--runs 10] [--sets 2] [--seconds S]

Run from the root of a checkout. Each set runs every workload untraced
--runs times, round-robin across workloads, with a fresh seed per run (set
k, run i uses seed 1 + k * runs + i). --seconds defaults to run_seconds in
BENCHMARK.json. For each workload and end-to-end metric it prints each set's
median, first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, then how much worse each later set's median is than the
first's.

The verdict follows the acceptance rule: every spread within its bound
(except setup_s, which is one cold set-up per process and left to the
median over runs), no median worse than the first set's by more than the
bound, every run correct, and the same share of failed operations in every
set. A spread above a third of its bound, the target for a steady metric,
is marked "ABOVE 1/3" and counted, but does not fail the verdict. All
results go to <build>/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (the build-and-run wrapper beside this file)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steady: %s seed %d exited %d" % (workload, seed,
                                                   proc.returncode))
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf")}


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("steady: --runs must be at least 2 for quartiles")
    workloads = [w["name"] for w in spec["workloads"]]
    bench.build()

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for k in range(args.sets):
        for i in range(args.runs):
            seed = 1 + k * args.runs + i
            for w in workloads:
                out = one_run(w, seed, args.seconds)
                results[w][k].append(out)
                print("set %d run %d %s seed %d: %s" % (
                    k + 1, i + 1, w, seed, json.dumps(out["metrics"])),
                    flush=True)

    ok = True
    above_third = 0
    report = {}
    for w in workloads:
        print("\n== %s (%d sets x %d runs, %d s) ==" % (
            w, args.sets, args.runs, args.seconds))
        shares = set()
        for runs in results[w]:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.add(failed / attempted)
            if not all(r["correct"] for r in runs):
                print("  INCORRECT: a run failed its checks")
                ok = False
        if len(shares) != 1:
            print("  FAILED SHARE differs between sets: %s" % sorted(shares))
            ok = False
        report[w] = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            sets = [summarize([r["metrics"][name]["value"] for r in runs])
                    for runs in results[w]]
            report[w][name] = sets
            line = "  %-28s" % name
            for s in sets:
                line += "  med %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%" % (
                    s["median"], s["q1"], s["q3"], 100 * s["spread"])
            bound = m["bound"]
            first = sets[0]["median"]
            for s in sets[1:]:
                worse = ((s["median"] - first) if m["better"] == "lower"
                         else (first - s["median"])) / abs(first)
                line += "  worse %+.2f%%" % (100 * worse)
                if worse > bound:
                    line += " DRIFT"
                    ok = False
            widest = max(s["spread"] for s in sets)
            if name != "setup_s" and widest > bound:
                line += " OVER BOUND(%.2f%%)" % (100 * bound)
                ok = False
            elif name != "setup_s" and widest > bound / 3:
                line += " ABOVE 1/3(%.2f%%)" % (100 * bound / 3)
                above_third += 1
            print(line)
    with open(os.path.join(bench.build_dir(), "steady.json"), "w") as f:
        json.dump({"args": vars(args), "summary": report, "runs": results},
                  f, indent=1)
    print("\nsteady: %s; %d spread(s) above a third of their bound" % (
        "all within bounds" if ok else "NOT within bounds", above_third))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
