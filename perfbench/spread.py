"""Run-to-run spread of the end-to-end metrics, one run per seed.

Usage: python3 perfbench/spread.py --workload NAME [--seeds 10]
                                   [--first-seed 1] [--seconds S]

Runs perfbench/run.py once per seed, serially, and prints for each metric
the median of the per-run values and the distance between their first and
third quartiles (statistics.quantiles, n=4) as a share of that median.
Compare that share with the metric's `bound` in BENCHMARK.json: a bound
should stay at least three times the spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds),
            flush=True)
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        print(f"{name:12s} median {med:.4g}  spread {(q3 - q1) / med:.3f}  "
              f"bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
