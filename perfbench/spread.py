"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload, one run at a time,
and prints for every metric the median and the distance between the first
and third quartile as a share of the median, next to the metric's bound
from BENCHMARK.json. Run from the root of a checkout:

    python3 perfbench/spread.py --workloads toeplitz-mul,pade-p62 --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from stats import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            walls.append(time.perf_counter() - t0)
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: wrong result")
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        print(f"{name:15s} run wall s: max={max(walls):.1f} mean={sum(walls) / len(walls):.1f}")
        for metric, vs in values.items():
            spread = quartile_spread(vs)
            worst = max(worst, spread / bounds[metric])
            print(f"{name:15s} {metric:12s} median={statistics.median(vs):.6g} spread={spread:.4f} "
                  f"bound={bounds[metric]} values={[round(v, 4) for v in vs]}", flush=True)
    print(f"largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
