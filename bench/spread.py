#!/usr/bin/env python3
"""Checks the benchmark's steadiness the way its driver does.

Runs every workload of BENCHMARK.json ten times, each time with another
seed, and prints for each end-to-end metric the distance between the first
and third quartile of its ten values as a share of their median, next to a
third of the metric's bound. Run it twice (another --first-seed) and pass the
first run's file as --against to see whether a second median is worse than
the first by more than the bound.

Run from the repository root: python3 bench/spread.py [--against FILE]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    ap.add_argument("--out", default=str(ROOT / "bench" / "out" / "spread.json"))
    ap.add_argument("--against", help="an earlier --out file to hold the medians to")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    values = {}
    for name in names:
        values[name] = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            started = time.time()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for m in bounds:
                values[name][m].append(result["metrics"][m]["value"])
            print(f"# {name} seed {seed}: {time.time() - started:.1f} s", file=sys.stderr)

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(values, indent=1))
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    steady = True
    print(f"{'workload':<18} {'metric':<20} {'median':>16} {'spread':>8} {'bound/3':>8} {'vs first':>9}")
    for name, metrics in values.items():
        for m, vs in metrics.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            third = bounds[m]["bound"] / 3
            flag = "" if m == "setup_s" or spread <= third else "  <-- unsteady"
            steady &= not flag
            drift = ""
            if name in earlier:
                first = statistics.median(earlier[name][m])
                worse = (med - first) / first if bounds[m]["better"] == "lower" else (first - med) / first
                drift = f"{worse:+9.3f}"
                if worse > bounds[m]["bound"]:
                    flag += "  <-- median worse than the first run's by more than the bound"
                    steady = False
            print(f"{name:<18} {m:<20} {med:>16.6g} {spread:>8.4f} {third:>8.4f} {drift:>9}{flag}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
