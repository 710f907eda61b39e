#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload named,
and prints per metric the median, the quartiles and the spread (third minus
first quartile, as a share of the median) next to the metric's bound.

    python3 perfbench/spread.py --workload cell-spill --seeds 5
    python3 perfbench/spread.py --all --seeds 10 --first-seed 100

Run it from the repository root.  Exits 1 if a run is incorrect or a
spread (other than setup_s's) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]] if args.all else args.workload
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    ok = True
    for workload in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(bench, workload, seed, args.trace)
            ok &= result["correct"] and result["failed"] == 0
            results.append(result)
        print(f"{workload}: {len(results)} runs, "
              f"all correct: {all(r['correct'] for r in results)}")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = metric.get("bound")
            flag = ""
            if bound is not None and metric["name"] != "setup_s" and not spread <= bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  above a third of the bound"
            bound_text = f" bound {bound}" if bound is not None else ""
            print(f"  {metric['name']:<28} median {med:<14.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}{bound_text}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
