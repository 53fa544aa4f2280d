#!/usr/bin/env python3
"""Steadiness check of the step benchmark.

Runs every workload in BENCHMARK.json several times at its run_seconds,
in two interleaved sets of runs, each run with its own seed and the
workload order alternating from round to round. For every end-to-end
metric it prints each set's median and quartiles, the spread
(interquartile distance over the median) and the drift (the second set's
median over the first's, minus one), and whether the spread and the
drift's size stay within the metric's bound. It exits 1 if any does not,
or if the two sets' shares of failed operations differ.

Run from the repository root:

    python3 stepbench/steadiness.py --runs 10
"""

import argparse
import json
import statistics
import subprocess
import sys

# Interleaved sets of runs whose medians must agree.
SETS = 2


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} reported incorrect output:\n{done.stderr}")
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    # results[workload][set] = list of result objects
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = opts.first_seed
    for r in range(opts.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for s in range(SETS):
            for w in order:
                res = run_once(bench["command"], w, seed, seconds)
                seed += 1
                results[w][s].append(res)
                shown = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}"
                                 for m in metrics)
                print(f"[round {r + 1} set {s + 1}] {w} seed {seed - 1}: {shown}", flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<18}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}  verdict")
        shares = []
        for s in range(SETS):
            runs = results[w][s]
            shares.append(sum(x["failed"] for x in runs) / sum(x["attempted"] for x in runs))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s in range(SETS):
                values = [x["metrics"][name]["value"] for x in results[w][s]]
                med, q1, q3, spread = summary(values)
                meds.append(med)
                steady = spread <= bound
                ok &= steady
                print(f"  {name:<18}{s + 1:>4}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                      f"{spread:>9.3f}{bound:>7.2f}  {'steady' if steady else 'SPREAD TOO WIDE'}")
            drift = meds[1] / meds[0] - 1
            agree = abs(drift) <= bound
            ok &= agree
            print(f"  {'':<18}{'':>4}{'drift':>12}{drift:>+12.3f}{'':>21}{bound:>7.2f}  "
                  f"{'sets agree' if agree else 'SETS DISAGREE'}")
        print(f"  failed share per set: {shares}")
        ok &= len(set(shares)) == 1
    print("\nall metrics steady and both sets agree" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
