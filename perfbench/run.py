"""dispmat benchmark: runs each workload in a fresh single-threaded process,
checks every result, and prints its metrics.

Run from the root of a source checkout (the library is imported from
./src):

    python3 perfbench/run.py --workload toeplitz-mul --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of the
traced run. Full results, with the machine description, and the traced
run's spans go to .perfbench_out/. The exit status is non-zero, and no
result is printed, when any result is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("toeplitz-mul", "toeplitz-solve", "families-mul", "pade-p62")
OUT_DIR = ".perfbench_out"
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model}


def run_workload(name: str, args, root: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", os.path.join(root, OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"{name}: worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(result: dict) -> None:
    name = result["workload"]
    for metric, m in result["metrics"].items():
        print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
    for key, value in result["detail"].items():
        print(f"{name}  detail {key} = {value}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dispmat", "__init__.py")):
        print("run from the root of a dispmat checkout: src/dispmat not found",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = machine()
    print(f"machine: nproc={env['nproc']} cpu={env['cpu_model']!r}")
    results = []
    for name in names:
        result = run_workload(name, args, root)
        result["machine"] = env
        report(result)
        path = os.path.join(root, OUT_DIR,
                            f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
