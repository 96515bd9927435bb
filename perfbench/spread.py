"""Run the benchmark several times and report the spread of each metric.

    python3 perfbench/spread.py --workload torus --seeds 1 2 3 4 5 \
        [--seconds 40] [--log perfbench/out/spread_torus.jsonl]

Run from the root of a checkout.  Runs perfbench/run.py once per seed,
one run at a time, and prints for each end-to-end metric its median,
its first and third quartiles (statistics.quantiles, n=4) and the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json.  Each run's result line is appended to --log.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--log", default=None)
    args = p.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(json.dumps(dict(res, seed=seed, workload=args.workload)) + "\n")
        row = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {row}", flush=True)
        for k, v in res["metrics"].items():
            values[k].append(v["value"])
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        print(f"{args.workload} {m['name']}: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
              f"spread {(q3 - q1) / med:.4f} (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
