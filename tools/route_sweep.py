"""Time the two routes of product_chain's middle product and the two forms of
PrimeField.ntt, the measurements behind structmul's route rule and ntt's
one-slab cut.

    python3 tools/route_sweep.py [--part route|kernel|all] [--reps K] [--seed S]

Run it single-threaded (OPENBLAS_NUM_THREADS=1) on an otherwise idle
machine; `dispmat` is imported from the `src` directory next to `tools`.

route: for a random monic, non-binomial Q of degree n, blocks U (alpha, n),
V (alpha, n) and W (beta, n) of residues modulo Q, the sum
R_i = sum_k U_k·(V_k·W_i mod Q) through `mulQ` (the alpha^(ω−1) recursion)
and through `_mul_direct` (every pair product, reduced, then one pm_mul),
at n in 64 … 2048 and alpha, beta in {2, 4, 8, 16}.  Both sides build the
modulus's `Moduli` inside the timing, as a fresh family pays it once.  The
two results are compared, and each line prints both times and their ratio
direct/mulQ; structmul's rule is read off where that ratio stays below 1.

kernel: the transform of a (rows, n) block of residues by ntt's one-slab
form (`_ntt_merged`) and by its slab form (`_ntt_slabs`), over 998244353,
checked equal: n from 32 to 8192 (one row above 2048) and blocks of up to
two slabs, both sides of the cut in n and in rows·n.  Each line prints both
times, their ratio one-slab/slab and the form ntt picks.

Every time is the best of K alternated repetitions (default 7), each the
mean of enough calls to run about 2 ms.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from dispmat.field import _NTT_MERGED_MAX, _NTT_SLAB, get_field  # noqa: E402
from dispmat.poly import Moduli  # noqa: E402
from dispmat.structmul import _DIRECT_PAIRS, _mul_direct, mulQ  # noqa: E402

ROUTE_NS = (64, 128, 256, 512, 1024, 2048)
ROUTE_WIDTHS = (2, 4, 8, 16)
KERNEL_NS = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)
KERNEL_ROWS = tuple(1 << k for k in range(11))


def best_of(fns, reps: int) -> list[float]:
    """Best mean seconds per call of each function, alternating them."""
    calls = []
    for fn in fns:
        start = time.perf_counter()
        fn()
        calls.append(max(1, int(2e-3 / max(time.perf_counter() - start, 1e-7))))
    best = [float("inf")] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            for _ in range(calls[i]):
                fn()
            best[i] = min(best[i], (time.perf_counter() - start) / calls[i])
    return best


def route(reps: int, seed: int) -> None:
    f = get_field(998244353)
    rng = np.random.default_rng(seed)
    print(f"# route: direct below alpha·beta <= {_DIRECT_PAIRS}; times in ms")
    print("#     n alpha  beta    mulQ  direct  direct/mulQ  rule")
    for n in ROUTE_NS:
        Q = np.append(rng.integers(0, f.p, n), 1)
        for alpha in ROUTE_WIDTHS:
            for beta in ROUTE_WIDTHS:
                U, V = rng.integers(0, f.p, (2, alpha, n))
                W = rng.integers(0, f.p, (beta, n))
                via_q = mulQ(f, U, V, W, Q)
                direct = _mul_direct(f, U, V, W, Moduli.of(f, Q))
                if not np.array_equal(via_q, direct):
                    raise SystemExit(f"routes differ at n={n}, alpha={alpha}, beta={beta}")
                tq, td = best_of([lambda: mulQ(f, U, V, W, Q),
                                  lambda: _mul_direct(f, U, V, W, Moduli.of(f, Q))], reps)
                rule = "direct" if alpha * beta <= _DIRECT_PAIRS else "mulQ"
                print(f"{n:7d} {alpha:5d} {beta:5d} {tq * 1e3:7.2f} {td * 1e3:7.2f}"
                      f"  {td / tq:11.2f}  {rule}", flush=True)


def kernel(reps: int, seed: int) -> None:
    f = get_field(998244353)
    rng = np.random.default_rng(seed)
    print(f"# kernel: one-slab form for rows·n <= {_NTT_SLAB} and n <= {_NTT_MERGED_MAX};"
          " times in microseconds")
    print("#  rows     n      slab  one-slab  one-slab/slab  ntt takes")
    for n in KERNEL_NS:
        plan = f._ntt_plan(n, False)
        merged = f._ntt_merged_form(n, False, len(plan.passes))
        for rows in KERNEL_ROWS:
            if rows * n > 2 * _NTT_SLAB or (n > 2 * _NTT_MERGED_MAX and rows > 1):
                continue
            src = rng.integers(0, f.p, (rows, n))
            if not np.array_equal(f._ntt_merged(src, merged), f._ntt_slabs(src, plan.passes)):
                raise SystemExit(f"forms differ at rows={rows}, n={n}")
            ts, tm = best_of([lambda: f._ntt_slabs(src, plan.passes),
                              lambda: f._ntt_merged(src, merged)], reps)
            takes = "one-slab" if plan.merged is not None and rows * n <= _NTT_SLAB else "slab"
            print(f"{rows:7d} {n:5d} {ts * 1e6:9.1f} {tm * 1e6:9.1f}  {tm / ts:13.2f}  {takes}",
                  flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--part", choices=("route", "kernel", "all"), default="all")
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--seed", type=int, default=20)
    args = ap.parse_args(argv)
    if args.part in ("kernel", "all"):
        kernel(args.reps, args.seed)
    if args.part in ("route", "all"):
        route(args.reps, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
