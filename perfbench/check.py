#!/usr/bin/env python3
"""Self-check and baseline collection for the perfbench benchmark.

Run from the root of the repository:

    python3 perfbench/check.py self-check
    python3 perfbench/check.py baseline [--runs 10] [--out FILE]

`self-check` makes one short run (`--seconds 1`, one pass of every input
set) of each workload with tracing off and on, and asserts that the printed
metric names and units are exactly those in BENCHMARK.json and that no
operation failed.

`baseline` makes two independent sets of `--runs` runs of every workload,
each run with its own seed, and one traced run per workload. It prints, per
set and workload, each end-to-end metric's median, quartiles and spread
(quartile distance over median, as `statistics.quantiles(values, n=4)`
gives the quartiles), and the traced per-layer table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(spec, workload, seed, seconds, trace):
    """One benchmark run; returns its result object."""
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def self_check(spec):
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(spec, workload["name"], 0, 1, trace)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                sys.exit(f"{workload['name']} trace {trace}: metrics {printed} != {expected}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                sys.exit(f"{workload['name']} trace {trace}: {result['failed']} of "
                         f"{result['attempted']} operations failed")
            print(f"ok {workload['name']} trace {trace}: {len(printed)} metrics, "
                  f"{result['attempted']} operations, failed_share 0")


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def baseline(spec, runs):
    result = {"run_seconds": spec["run_seconds"], "runs_per_set": runs, "sets": [],
              "traced": {}}
    for index in range(2):
        summary = {}
        for workload in spec["workloads"]:
            name = workload["name"]
            values = {}
            for i in range(runs):
                seed = index * runs + i
                r = run(spec, name, seed, spec["run_seconds"], 0)
                if not r["correct"]:
                    sys.exit(f"{name} seed {seed}: {r['failed']} operations failed")
                for metric, m in r["metrics"].items():
                    values.setdefault(metric, []).append(m["value"])
            summary[name] = {metric: summarize(v) for metric, v in values.items()}
            for metric, s in summary[name].items():
                print(f"set {index + 1} {name} {metric}: median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}",
                      file=sys.stderr)
        result["sets"].append(summary)
    for workload in spec["workloads"]:
        name = workload["name"]
        r = run(spec, name, 0, spec["run_seconds"], 1)
        result["traced"][name] = {metric: m["value"] for metric, m in r["metrics"].items()}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["self-check", "baseline"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write the baseline JSON here instead of stdout")
    args = parser.parse_args()
    spec = load_spec()
    if args.mode == "self-check":
        self_check(spec)
        return
    text = json.dumps(baseline(spec, args.runs), indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
