"""One workload in one process: oracle cross-check, set-up rounds, then the
closed-loop measurement (or the traced run). Started by run.py, which sets
the thread environment; prints its result as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import dispmat  # noqa: E402
import speed  # noqa: E402
from stats import tail  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Clock, Mismatch  # noqa: E402

SETUP_ROUNDS = 5
MAX_ATTEMPTS = 8

# independent input streams derived from the run seed
ORACLE, SETUP, TIMED, TRACE_PLAIN, TRACE_TRACED = range(5)

# the traced run's metrics, in the order they are reported
PER_LAYER = {
    "field.ntt.calls": "count",
    "field.ntt.self_s": "s",
    "field.ntt.butterflies": "count",
    "field.ntt.butterflies_per_s": "1/s",
    "field.conv.calls": "count",
    "field.conv.self_s": "s",
    "field.conv.small_share": "share",
    "field.mat_mul.self_s": "s",
    "field.arr.calls": "count",
    "polymat.pm_mul.calls": "count",
    "polymat.pm_mul.self_s": "s",
    "structmul.struct_mul.calls": "count",
    "structmul.struct_mul.self_s": "s",
    "structmul.mulQ.self_s": "s",
    "structmul.mul_rec.calls": "count",
    "structmul.mul_rec.self_s": "s",
    "poly.family_build.self_s": "s",
    "poly.xgcd.calls": "count",
    "poly.xgcd.self_s": "s",
    "operators.inverse_table.calls": "count",
    "operators.inverse_table.self_s": "s",
    "operators.op_invertible.self_s": "s",
    "poly.red_family.self_s": "s",
    "poly.crt_family.self_s": "s",
    "poly.comb_family.self_s": "s",
    "poly.geom_eval.self_s": "s",
    "poly.geom_interp.self_s": "s",
    "poly.poly_divrem.calls": "count",
    "poly.poly_divrem.self_s": "s",
    "poly.series_inv.calls": "count",
    "operators.y_apply_family.self_s": "s",
    "operators.modmul_apply.self_s": "s",
    "generators.to_basic.self_s": "s",
    "poly.red_transposed.self_s": "s",
    "generators.to_hankel.self_s": "s",
    "generators.from_hankel_inverse.self_s": "s",
    "generators.gen_compress.self_s": "s",
    "generators.gen_matvec.calls": "count",
    "generators.gen_matvec.self_s": "s",
    "structsolve.largest_rec.calls": "count",
    "structsolve.largest_rec.self_s": "s",
    "structsolve.precond.self_s": "s",
    "structsolve.densify_from_last_row.self_s": "s",
    "structsolve.lp_inv.ok_share": "share",
    "cli.pade_solve.attempts": "count",
    "cli.pade_generator.self_s": "s",
    "trace.overhead_share": "share",
}


def layer_value(name: str, rows: dict, counts: dict) -> float:
    """``<layer>.calls`` and ``.self_s`` come from the spans (or the call
    counter of a target without spans); ``<layer>.<counter>_share`` is a
    counter over the layer's calls; ``<layer>.<counter>_per_s`` is a counter
    over the layer's self time; any other quantity is a counter."""
    layer, quantity = name.rsplit(".", 1)
    if quantity == "calls":
        return counts.get(name, rows[layer]["calls"] if layer in rows else 0)
    if quantity == "self_s":
        return rows[layer]["self_s"]
    for suffix, base in (("_share", "calls"), ("_per_s", "self_s")):
        if quantity.endswith(suffix):
            num = counts.get(f"{layer}.{quantity[: -len(suffix)]}", 0)
            den = rows[layer][base]
            return num / den if den else 0.0
    return counts.get(name, 0)


def _rng(seed: int, stream: int, i: int):
    return np.random.default_rng([seed, stream, i])


def attempts(wl, inst):
    """The call, retried with the next seed while it returns the failure
    tag; the retries count in the operation's latency. Returns (result,
    attempts, failed)."""
    seed = getattr(inst, "seed", 0)
    n = 0
    while True:
        n += 1
        result, failed = wl.call(inst, seed + n - 1)
        if not failed or n == MAX_ATTEMPTS:
            return result, n, failed


class Tally:
    """Per-operation latencies (scaled by the speed index, and raw wall
    time), construction times (scaled by the same index) and attempt
    counts."""

    def __init__(self):
        self.lat: list[float] = []
        self.wall: list[float] = []
        self.build: list[float] = []
        self.attempts = 0
        self.failed_attempts = 0
        self.failed_ops = 0

    def add(self, wall, idx, build, attempts, failed):
        self.wall.append(wall)
        self.lat.append(wall / idx)
        self.build.append(build / idx)
        self.attempts += attempts
        self.failed_attempts += attempts - 1 + int(failed)
        self.failed_ops += int(failed)


def do_op(wl, ctx, rng, i, tally, defer=None):
    clock = Clock()
    inst = wl.prepare(ctx, rng, i, clock)
    wall, idx, (result, n, failed) = speed.timed(wl.reference, lambda: attempts(wl, inst))
    tally.add(wall, idx, clock.s, n, failed)
    if not failed:
        if defer is None:
            wl.check(inst, result)
        else:
            defer.append((inst, result))


def setup_rounds(wl, seed):
    """Rounds of: the shared context, one operation's inputs and one
    warm-up call; SETUP_ROUNDS of them where the warm-up counts as set-up,
    else one. The context's construction and the warm-up call are timed
    apart, and the speed index is sampled around the round, outside both
    timers. The operation's own construction is left out here; the closed
    loop measures it. Returns the last context and each round's scaled
    (context s, warm-up s)."""
    rounds = []
    for r in range(SETUP_ROUNDS if wl.warmup_is_setup else 1):
        rng = _rng(seed, SETUP, r)
        before = speed.sample(wl.reference)
        clock = Clock()
        ctx = wl.context(rng, clock)
        inst = wl.prepare(ctx, rng, 0, Clock())
        t0 = time.perf_counter()
        result, _, failed = attempts(wl, inst)
        warm = time.perf_counter() - t0
        idx = speed.index(wl.reference, before, speed.sample(wl.reference))
        rounds.append((clock.s / idx, warm / idx))
        if not failed:
            wl.check(inst, result)
    return ctx, rounds


def measure(wl, ctx, seed, seconds):
    """Operations until ``seconds`` have passed and at least the workload's
    ``min_ops`` ran, ending on a whole cycle."""
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < wl.min_ops or i % wl.cycle:
        do_op(wl, ctx, _rng(seed, TIMED, i), i, tally)
        i += 1
    return tally


def traced(wl, ctx, seed, out_dir):
    """Untraced then traced passes of trace_ops operations each (inputs of
    each pass fixed by the seed); counts come from the traced pass."""
    plain = Tally()
    for i in range(wl.trace_ops):
        do_op(wl, ctx, _rng(seed, TRACE_PLAIN, i), i, plain)
    tally = Tally()
    pending = []
    tracer = Tracer()
    with tracer:
        for i in range(wl.trace_ops):
            tracer.op_id = i
            do_op(wl, ctx, _rng(seed, TRACE_TRACED, i), i, tally, defer=pending)
        tracer.op_id = -1
    for inst, result in pending:  # checks run untraced so they add no spans
        wl.check(inst, result)
    tracer.write(os.path.join(out_dir, f"spans-{wl.name}-seed{seed}.csv"))

    rows, counts = tracer.summary(), tracer.counts
    metrics = {name: (layer_value(name, rows, counts), unit)
               for name, unit in PER_LAYER.items() if name != "trace.overhead_share"}
    metrics["trace.overhead_share"] = (sum(tally.lat) / sum(plain.lat) - 1.0, "share")
    return plain, tally, metrics, {"spans": len(tracer.spans)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(dispmat.__file__).startswith(src):
        print(f"dispmat imported from {dispmat.__file__}, not from {src}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)

    wl = WORKLOADS[args.workload]()
    try:
        wl.oracle_check(_rng(args.seed, ORACLE, 0))
        ctx, rounds = setup_rounds(wl, args.seed)
        if args.trace:
            plain, tally, metrics, detail = traced(wl, ctx, args.seed, args.out)
            attempted = plain.attempts + tally.attempts
            failed = plain.failed_ops + tally.failed_ops
        else:
            tally = measure(wl, ctx, args.seed, args.seconds)
            lat = tally.lat
            value, pct, n = tail(lat)
            context_s = statistics.median(r[0] for r in rounds)
            warmup_s = statistics.median(r[1] for r in rounds)
            build_s = statistics.median(tally.build)
            setup_s = context_s + build_s + (warmup_s if wl.warmup_is_setup else 0.0)
            metrics = {
                "ops_per_s": (len(lat) / (sum(lat) + sum(tally.build)), "1/s"),
                "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                "op_tail_ms": (value * 1e3, "ms"),
                "setup_s": (setup_s, "s"),
                "ok_share": (1.0 - tally.failed_attempts / tally.attempts, "share"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            detail = {
                "ops": len(lat),
                "op_tail_percentile": pct,
                "op_tail_samples": n,
                "failed_share": tally.failed_attempts / tally.attempts,
                "setup_context_s": context_s,
                "setup_warmup_s": warmup_s,
                "setup_warmup_counted": wl.warmup_is_setup,
                "op_construct_p50_ms": build_s * 1e3,
                "op_p50_wall_ms": statistics.median(tally.wall) * 1e3,
                "speed_index": statistics.median(w / x for w, x in zip(tally.wall, lat)),
            }
            attempted, failed = tally.attempts, tally.failed_ops
    except Mismatch as exc:
        print(f"{args.workload}: wrong result: {exc}", file=sys.stderr)
        return 1
    detail.update(python=platform.python_version(), numpy=np.__version__)
    print(json.dumps({
        "workload": args.workload,
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
