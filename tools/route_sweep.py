"""Time the two routes of product_chain's middle product, its binomial
product at several piece lengths, the two forms of PrimeField.ntt, the two
routes of the solver's entry points and densify's step block, the
measurements behind structmul's route rule and piece length, ntt's
one-slab cut, structsolve's crossover rule and generators._DENSIFY_BLOCK,
PrimeField.row_reduce and polymat.points_product on the shapes their
callers give them, and the three routes of PrimeField.conv, the
measurement behind its Toeplitz bound.

    python3 tools/route_sweep.py [--part route|pieces|kernel|solver|densify|elim|points|
                                         toeplitz|all] [--reps K] [--seed S]

Run it single-threaded (OPENBLAS_NUM_THREADS=1) on an otherwise idle
machine; `dispmat` is imported from the `src` directory next to `tools`.

route: for a random monic, non-binomial Q of degree n, blocks U (alpha, n),
V (alpha, n) and W (beta, n) of residues modulo Q, the sum
R_i = sum_k U_k·(V_k·W_i mod Q) through mulQ's core `_mulQ` (the
alpha^(ω−1) recursion) and through `_mul_direct` (every pair product,
reduced, then one pm_mul), at n in 64 … 2048 and alpha, beta in
{2, 4, 8, 16}.  These are the two calls product_chain makes, on its
family's modulus stack.  Each side builds a fresh `Moduli` of Q inside
the timing and pays the Newton series it needs on it, as the first
product on a fresh family does; neither copies or reduces its blocks,
which the chain passes as residues.  The two results are compared, and
each line prints both times and their ratio direct/mulQ; structmul's rule
is read off where that ratio stays below 1.

pieces: the sum R_i = sum_k U_k·(V_k·W_i mod x^n − c) that product_chain
takes for several columns and a binomial Q, by `_mul_pieces` at piece
lengths L from n/32 to n/2 (L = n/2 is the former half-length sum), for a
random c and random blocks U (alpha, n), V (alpha, n) and W (beta, n):
n from 256 to 8192 and alpha = beta in {4, 8, 16} over 998244353, plus
n = 2048, alpha = 4, beta = 16 over 998244353 and n = 512, alpha = beta = 4
over the 62-bit prime.  Every result must equal `_mul_direct`'s.  Each
line prints the generator side's time (`_pieces_side`), the per-call
time, its ratio to the time at L = n/2, and marks the length
`_piece_length` picks.

kernel: the transform of a (rows, n) block of residues by ntt's one-slab
form and by its slab form, both built for the length (`_ntt_merged_form`,
`_ntt_slab_form`) and run slab by slab (`_ntt_run`), over 998244353,
checked equal: n from 32 to 8192 (one row above 2048) and blocks of up to
two slabs, both sides of the length cut.  Each line prints both times,
their ratio one-slab/slab and the form ntt's plan for the length holds.

solver: solve_generator and inv_generator on a fresh Toeplitz-like
generator (Sylvester, x^m − φ and x^m − ψ, Q side transposed, random G and
H of length alpha) on both sides of the entry rule, dense below
min(m, n) < c·(alpha + 6): the dense route (densify and one elimination)
against the structured route (shift core and Las Vegas search), at m from
c·(alpha + 2), the crossover on the shift core's width alone (below
c·(alpha + 6) the structured side hands its whole block to the dense base
case), through c·(alpha + 6) + 16, with
c = DENSE_PER_WIDTH = 28 and alpha in {2, 6} over 998244353, and
c = DENSE_PER_WIDTH_OBJECT = 16 and alpha in {2, 4} over the 62-bit prime.
The two routes must return the planted solution and the same canonical
inverse generator, the entry point must take the route its rule names,
and an entry call that takes the structured route must split its block:
no `_base_case` call of that entry call may get the full min(m, n).
Each line prints both
routes' medians, their ratio dense/structured, the width of the
compressed shift core, the route the entry point took, and the
`product_chain` and `gen_compress` calls one structured call makes (every
binding counted: structsolve's own, and structmul's and generators',
which gen_matvec, densify and from_hankel_inverse reach).  The routes
alternate, one call each on a new generator object per repetition; the
median is over K repetitions over 998244353 and K // 2 + 1 over the
62-bit prime.  Rows at m in {1024, 2048}, alpha = 6, over 998244353 time
the structured route alone, where the dense side is too slow to sweep:
the solve must return the planted solution and the inverse must map the
right-hand side back to it.

densify: generators.densify with _DENSIFY_BLOCK at its value T, at T // 2
and at 2T, on fresh generators of length alpha: toeplitz-solve's shape
(Sylvester, x^64 − φ and x^64 − ψ, Q side transposed, alpha = 6),
pade-p62's operator (Stein, 8 random monic blocks of degree 3 against
x^25 − φ over the 62-bit prime, alpha = 3), and m = n in {256, 1024}
over 998244353 with P random monic in 1 or 16 blocks against one random
monic Q of degree n (Sylvester, alpha = 6), with M_P (P side untransposed,
Q side transposed) and with M_Pᵗ (the other way round).  The three arrays
must be equal.  Each line prints the three times and their ratios to the
time at T.

elim: PrimeField.row_reduce on the shapes its callers give it: [A | b]
(_dense_solve) and [A | I] (_dense_inverse, _base_case) for random A at m
in {64, 256, 512}, and the rank-6 64×64 D′ that _column_decompose factors
for an inverse at toeplitz-solve's size, over 998244353 (int64), and
pade-p62's 24×48 [A | I] base case over the 62-bit prime (object dtype).
Each result must equal the oracle's (`oracle._row_reduce`, a Python loop
that takes most of the part's run time at m = 512).  Each line prints the
time, the pivot count and the pivot steps between reductions,
max(1, slack − 1).

points: polymat.points_product over 998244353, one matrix product per
evaluation point of (rows, k, points) by (k, cols, points) residues, on the
shapes the workloads give it: the piecewise product's two per call on
toeplitz-mul (m = n = 2048, alpha = beta = 8) and on criterion 7's
m = 8192, and pm_mul's on families-mul and toeplitz-solve.  The former
kernel, an int64 einsum in slices of slack − 1 inner terms each reduced
mod p, is kept here as the reference (_einsum_points); the product itself
is PrimeField.points_mat_mul on a right operand split once into float64
limbs (points_operand), as the generator store keeps it.  The two results
are compared, and each line prints the einsum's time, the product's, the
split's (which pm_mul pays per call) and the ratios product/einsum and
(product + split)/einsum.

toeplitz: a block convolution through each of PrimeField.conv's three
kernels, the Toeplitz route (_conv_toeplitz), the NTT (_conv_ntt) and the
limb kernel (_conv_limbs): on the block shapes families-mul sent to the
NTT before the Toeplitz route, over 998244353 and over 2^31 − 1 (no
transform there), and on a grid of rows × (nodes, L) by (nodes, L + 1)
over 998244353, L from 16 to 512, 1 to 64 rows per node and 1 to 16 nodes.
A kernel is left out (-) where the prime has no transform that long, where
the Toeplitz matrices would hold more than 2^21 entries, or where the limb
kernel would take more than 2^22 term products.  The results are compared,
and each line prints the entries of the Toeplitz matrices, the three
times, the ratio toeplitz/ntt (toeplitz/limb where there is no NTT) and the
route conv takes; the bound _TOEPLITZ_FLOATS is read off where that ratio
crosses 1.

Every route, pieces, kernel, densify, elim, points and toeplitz time is the
best of K alternated repetitions (default 7), each the mean of enough calls
to run about 2 ms.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from dispmat import generators, structmul, structsolve  # noqa: E402
from dispmat.field import BENCH_PRIME, _NTT_MERGED_MAX, _NTT_SLAB, get_field  # noqa: E402
from dispmat.generators import Generator, densify, gen_matvec  # noqa: E402
from dispmat.operators import STEIN, SYLVESTER, DisplacementOperator  # noqa: E402
from dispmat.oracle import _row_reduce  # noqa: E402
from dispmat.poly import Moduli, family_build  # noqa: E402
from dispmat.polymat import points_operand, points_product  # noqa: E402
from dispmat.structmul import (  # noqa: E402
    _DIRECT_PAIRS, _mul_direct, _mul_pieces, _mulQ, _piece_length, _pieces_side, mulQ)

ROUTE_NS = (64, 128, 256, 512, 1024, 2048)
ROUTE_WIDTHS = (2, 4, 8, 16)
PIECES_NS = (256, 512, 1024, 2048, 4096, 8192)
PIECES_WIDTHS = (4, 8, 16)
KERNEL_NS = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)
KERNEL_ROWS = tuple(1 << k for k in range(11))
ELIM_SIZES = (64, 256, 512)
# (workload, rows, k, cols, points) of points_product's calls
POINTS_SHAPES = (("toeplitz-mul", 8, 8, 8, 512), ("toeplitz-mul", 8, 16, 16, 512),
                 ("families-mul", 4, 4, 1, 256), ("families-mul", 1, 4, 1, 256),
                 ("toeplitz-solve", 1, 6, 1, 128),
                 ("criterion 7 m=8192", 8, 8, 8, 2048), ("criterion 7 m=8192", 8, 16, 16, 2048))
SOLVER_LARGE = (1024, 2048)
# the block convolutions families-mul sent to the NTT at 998244353 before the
# Toeplitz route
TOEPLITZ_FAMILIES = (((4, 4, 1, 127), (1, 127)), ((4, 4, 1, 127), (1, 129)),
                     ((4, 2, 64), (2, 65)), ((4, 8, 16), (8, 17)), ((4, 4, 32), (4, 33)),
                     ((4, 128), (256,)), ((4, 128), (4, 1, 128)), ((4, 255), (383,)),
                     ((4, 128), (1, 1, 128)), ((129,), (4, 128)), ((1, 4, 1, 127), (1, 127)),
                     ((1, 4, 1, 127), (1, 129)), ((1, 2, 64), (2, 65)), ((1, 8, 16), (8, 17)),
                     ((1, 4, 32), (4, 33)), ((4, 1, 127), (1, 127)), ((4, 1, 127), (1, 129)),
                     ((4, 2, 64), (2, 64)), ((1, 2, 64), (2, 64)), ((4, 4, 32), (4, 32)),
                     ((4, 8, 16), (8, 16)), ((1, 4, 32), (4, 32)), ((1, 8, 16), (8, 16)))
TOEPLITZ_LENGTHS = (16, 32, 64, 128, 256, 512)
TOEPLITZ_ROWS = (1, 4, 16, 64)
TOEPLITZ_NODES = (1, 2, 4, 8, 16)
# the largest Toeplitz matrices (entries) and limb-kernel product (term
# products) the toeplitz part times
TOEPLITZ_TIMED_FLOATS = 1 << 21
TOEPLITZ_TIMED_TERMS = 1 << 22


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
                via_q = _mulQ(f, U, V, W, Moduli.of(f, Q))
                direct = _mul_direct(f, U, V, W, Moduli.of(f, Q))
                if not np.array_equal(via_q, direct) or \
                        not np.array_equal(via_q, mulQ(f, U, V, W, Q)):
                    raise SystemExit(f"routes differ at n={n}, alpha={alpha}, beta={beta}")
                tq, td = best_of([lambda: _mulQ(f, U, V, W, Moduli.of(f, Q)),
                                  lambda: _mul_direct(f, U, V, W, Moduli.of(f, Q))], reps)
                rule = "direct" if alpha * beta <= _DIRECT_PAIRS else "mulQ"
                print(f"{n:7d} {alpha:5d} {beta:5d} {tq * 1e3:7.2f} {td * 1e3:7.2f}"
                      f"  {td / tq:11.2f}  {rule}", flush=True)


def pieces(reps: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    cases = [(998244353, n, width, width) for n in PIECES_NS for width in PIECES_WIDTHS]
    cases += [(998244353, 2048, 4, 16), (BENCH_PRIME, 512, 4, 4)]
    print("# pieces: L = _piece_length(n, alpha, 2n − 1), marked *; times in ms,"
          " per call against L = n/2")
    print(f"#{'p':>19s} {'n':>5s} {'alpha':>5s} {'beta':>5s} {'L':>5s} {'side':>8s}"
          f" {'call':>8s}  {'call/halves':>11s}  rule")
    for p, n, alpha, beta in cases:
        f = get_field(p)
        c = int(rng.integers(0, f.p))
        Q = f.zeros(n + 1)
        Q[0], Q[n] = (-c) % f.p, 1
        U, V = f.arr(rng.integers(0, f.p, (alpha, n))), f.arr(rng.integers(0, f.p, (alpha, n)))
        W = f.arr(rng.integers(0, f.p, (beta, n)))
        want = _mul_direct(f, U, V, W, Moduli.of(f, Q))
        lengths = [n >> k for k in range(5, 0, -1)]
        sides = [_pieces_side(f, U, V, n, c, L) for L in lengths]
        for L, side in zip(lengths, sides):
            if not np.array_equal(_mul_pieces(f, side, W), want):
                raise SystemExit(f"pieces differ at p={p}, n={n}, alpha={alpha}, "
                                 f"beta={beta}, L={L}")
        built = best_of([lambda L=L: _pieces_side(f, U, V, n, c, L) for L in lengths], reps)
        calls = best_of([lambda s=side: _mul_pieces(f, s, W) for side in sides], reps)
        rule = _piece_length(n, alpha, 2 * n - 1)
        for L, tb, tc in zip(lengths, built, calls):
            print(f"{p:20d} {n:5d} {alpha:5d} {beta:5d} {L:5d} {tb * 1e3:8.2f} {tc * 1e3:8.2f}"
                  f"  {tc / calls[-1]:11.2f}  {'*' if L == rule else ''}", flush=True)


def kernel(reps: int, seed: int) -> None:
    f = get_field(998244353)
    rng = np.random.default_rng(seed)
    print(f"# kernel: one-slab form for n <= {_NTT_MERGED_MAX} in at most two passes,"
          f" slab by slab ({_NTT_SLAB} elements); times in microseconds")
    print("#  rows     n      slab  one-slab  one-slab/slab  ntt takes")
    for n in KERNEL_NS:
        slab, one_slab = f._ntt_slab_form(n, False), f._ntt_merged_form(n, False)
        takes = "one-slab" if f._ntt_plan(n, False).merged else "slab"
        for rows in KERNEL_ROWS:
            if rows * n > 2 * _NTT_SLAB or (n > 2 * _NTT_MERGED_MAX and rows > 1):
                continue
            src = rng.integers(0, f.p, (rows, n))
            if not np.array_equal(f._ntt_run(src, one_slab), f._ntt_run(src, slab)):
                raise SystemExit(f"forms differ at rows={rows}, n={n}")
            ts, tm = best_of([lambda: f._ntt_run(src, slab),
                              lambda: f._ntt_run(src, one_slab)], reps)
            print(f"{rows:7d} {n:5d} {ts * 1e6:9.1f} {tm * 1e6:9.1f}  {tm / ts:13.2f}  {takes}",
                  flush=True)


def _solver_points(per_width: int, alpha: int) -> list[int]:
    lo, hi = per_width * (alpha + 2), per_width * (alpha + 6)
    return [*range(lo, hi, per_width // 2), hi - 1, hi, hi + 16]


def _toeplitz_like(f, rng, m: int, alpha: int):
    phi = int(rng.integers(0, f.p))
    psi = (phi + 1 + int(rng.integers(0, f.p - 1))) % f.p
    op = DisplacementOperator(SYLVESTER, family_build(f, [[-phi % f.p] + [0] * (m - 1) + [1]]),
                              family_build(f, [[-psi % f.p] + [0] * (m - 1) + [1]]), False, True)
    return op, rng.integers(0, f.p, (m, alpha)), rng.integers(0, f.p, (m, alpha))


def _median_iqr_ms(times: list[float]) -> tuple[float, float]:
    q1, q2, q3 = np.percentile(times, [25, 50, 75]) * 1e3
    return float(q2), float(q3 - q1)


def _count_calls(counts: dict) -> None:
    """Count product_chain and gen_compress calls into counts, on every
    binding the solver reaches: structsolve imports both by name, gen_matvec
    and densify import product_chain from structmul when called, and
    from_hankel_inverse calls generators' own gen_compress."""
    for module, name in ((structmul, "product_chain"), (structsolve, "product_chain"),
                         (generators, "gen_compress"), (structsolve, "gen_compress")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        setattr(module, name, counted)


def solver(reps: int, seed: int) -> None:
    cases = ((998244353, structsolve.DENSE_PER_WIDTH, (2, 6), reps),
             (BENCH_PRIME, structsolve.DENSE_PER_WIDTH_OBJECT, (2, 4), reps // 2 + 1))
    rng = np.random.default_rng(seed)
    blocks, base_case = [], structsolve._base_case
    counts = {"product_chain": 0, "gen_compress": 0}

    def counted_base_case(f, G, H, u):
        blocks.append(min(len(G), len(H)))
        return base_case(f, G, H, u)

    structsolve._base_case = counted_base_case
    _count_calls(counts)
    print("# solver: dense below min(m, n) < c·(alpha + 6); medians and interquartile"
          " ranges in ms; chains and compressions: product_chain and gen_compress"
          " calls in one structured call")
    print(f"#{'p':>19s} {'alpha':>6s} {'m':>5s} {'op':>5s} {'dense':>8s} {'iqr':>6s}"
          f" {'structured':>11s} {'iqr':>6s}  {'dense/structured':>16s} {'core':>5s}"
          f"  {'entry':>10s} {'chains':>7s} {'compressions':>13s}")
    points = [(p, per_width, alpha, m, k) for p, per_width, widths, k in cases
              for alpha in widths for m in _solver_points(per_width, alpha)]
    points += [(998244353, None, 6, m, reps) for m in SOLVER_LARGE]
    for p, per_width, alpha, m, k in points:
        f = get_field(p)
        op, G, H = _toeplitz_like(f, rng, m, alpha)
        x0 = rng.integers(0, f.p, m)
        b = gen_matvec(Generator(G, H, op), x0)
        core = structsolve._shift_core(Generator(G, H, op))[1].alpha
        lv_seed = next(s for s in range(16) if structsolve._structured_inv_generator(
            Generator(G, H, op), s).ok and structsolve._structured_solve_generator(
            Generator(G, H, op), b, s).ok)
        sides = {
            "solve": (lambda g: structsolve._dense_solve(f, densify(g), b),
                      lambda g: structsolve._structured_solve_generator(g, b, lv_seed),
                      lambda g: structsolve.solve_generator(g, b, lv_seed)),
            "inv": (structsolve._dense_inv_generator,
                    lambda g: structsolve._structured_inv_generator(g, lv_seed),
                    lambda g: structsolve.inv_generator(g, lv_seed)),
        }
        for name, (dense, structured, entry) in sides.items():
            counts.update(product_chain=0, gen_compress=0)
            res = structured(Generator(G, H, op))
            chains, compressions = counts["product_chain"], counts["gen_compress"]
            if not res.ok:
                raise SystemExit(f"the structured route failed at p={p}, alpha={alpha}, "
                                 f"m={m}, {name}")
            if per_width is None:
                # structured only: the dense side is too slow here, so the
                # inverse is checked on the planted system, A⁻¹·b = x0
                x = res.x if name == "solve" else gen_matvec(res.generator, b)
                if not np.array_equal(x, x0):
                    raise SystemExit(f"the structured route is wrong at m={m}, {name}")
                ts, qs = _median_iqr_ms([_timed(structured, Generator(G, H, op))
                                         for _ in range(k)])
                print(f"{p:20d} {alpha:6d} {m:5d} {name:>5s} {'-':>8s} {'-':>6s} {ts:11.2f}"
                      f" {qs:6.2f}  {'-':>16s} {core:5d}  {'-':>10s} {chains:7d}"
                      f" {compressions:13d}", flush=True)
                continue
            res = [dense(Generator(G, H, op)), res]
            blocks.clear()
            res.append(entry(Generator(G, H, op)))
            if res[2].route == structsolve.STRUCTURED and max(blocks) >= m:
                raise SystemExit(f"the structured entry did not split at p={p}, "
                                 f"alpha={alpha}, m={m}, {name}")
            if not all(r.ok for r in res):
                raise SystemExit(f"a route failed at p={p}, alpha={alpha}, m={m}, {name}")
            if name == "solve":
                same = all(np.array_equal(r.x, x0) for r in res)
            else:
                same = all(np.array_equal(r.generator.G, res[0].generator.G) and
                           np.array_equal(r.generator.H, res[0].generator.H)
                           for r in res)
            rule = structsolve.DENSE if structsolve._entry_is_dense(f, m, alpha) \
                else structsolve.STRUCTURED
            if not same or res[2].route != rule:
                raise SystemExit(f"routes differ at p={p}, alpha={alpha}, m={m}, {name}")
            times = ([], [])
            for rep_i in range(k):
                for side in ((0, 1) if rep_i % 2 == 0 else (1, 0)):
                    times[side].append(_timed((dense, structured)[side], Generator(G, H, op)))
            (td, qd), (ts, qs) = _median_iqr_ms(times[0]), _median_iqr_ms(times[1])
            print(f"{p:20d} {alpha:6d} {m:5d} {name:>5s} {td:8.2f} {qd:6.2f} {ts:11.2f}"
                  f" {qs:6.2f}  {td / ts:16.2f} {core:5d}  {res[2].route:>10s} {chains:7d}"
                  f" {compressions:13d}", flush=True)


def _timed(fn, gen) -> float:
    start = time.perf_counter()
    fn(gen)
    return time.perf_counter() - start


def _monic(f, rng, degree: int) -> list[int]:
    return [int(c) for c in rng.integers(0, f.p, degree)] + [1]


def _densify_cases(rng):
    """(label, field, kind, P blocks, Q blocks, transpose_p, transpose_q, alpha)."""
    f, f62 = get_field(998244353), get_field(BENCH_PRIME)
    phi, psi = f.p - 3, f.p - 5
    yield ("toeplitz-solve m=64", f, SYLVESTER, [[phi] + [0] * 63 + [1]],
           [[psi] + [0] * 63 + [1]], False, True, 6)
    yield ("pade-p62 24x25", f62, STEIN, [_monic(f62, rng, 3) for _ in range(8)],
           [[f62.p - 7] + [0] * 24 + [1]], False, True, 3)
    for m in (256, 1024):
        for blocks in (1, 16):
            for tp in (False, True):
                yield (f"m={m} P blocks={blocks} {'M_Pt' if tp else 'M_P '}", f, SYLVESTER,
                       [_monic(f, rng, m // blocks) for _ in range(blocks)],
                       [_monic(f, rng, m)], tp, not tp, 6)


def densify_block(reps: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    block = generators._DENSIFY_BLOCK
    sizes = (block // 2, block, 2 * block)
    print(f"# densify: _DENSIFY_BLOCK = {block}; times in ms")
    print("# shape                       " + "".join(f"  T={t:<5d}" for t in sizes)
          + "  T/2:T  2T:T")
    for label, f, kind, ps, qs, tp, tq, alpha in _densify_cases(rng):
        op = DisplacementOperator(kind, family_build(f, ps), family_build(f, qs), tp, tq)
        G = f.arr(rng.integers(0, min(f.p, 1 << 62), (op.m, alpha)))
        H = f.arr(rng.integers(0, min(f.p, 1 << 62), (op.n, alpha)))

        def at(t):
            def run():
                generators._DENSIFY_BLOCK = t
                try:
                    return densify(Generator(G, H, op))
                finally:
                    generators._DENSIFY_BLOCK = block
            return run

        runs = [at(t) for t in sizes]
        want = runs[1]()
        if not all(np.array_equal(run(), want) for run in runs):
            raise SystemExit(f"densify differs across block sizes at {label}")
        times = best_of(runs, reps)
        print(f"{label:30s}" + "".join(f" {t * 1e3:8.2f}" for t in times)
              + f"  {times[0] / times[1]:5.2f} {times[2] / times[1]:5.2f}", flush=True)


def _elim_cases(rng):
    """(label, field, matrix) for each shape the elim part times."""
    f, f62 = get_field(998244353), get_field(BENCH_PRIME)
    for m in ELIM_SIZES:
        A = f.arr(rng.integers(0, f.p, (m, m)))
        yield f"[A | b] {m}x{m + 1}", f, np.concatenate([A, f.arr(rng.integers(0, f.p, (m, 1)))],
                                                         axis=1)
        yield f"[A | I] {m}x{2 * m}", f, np.concatenate([A, np.eye(m, dtype=f.dtype)], axis=1)
    yield "D' rank 6 64x64", f, f.mat_mul(f.arr(rng.integers(0, f.p, (64, 6))),
                                          f.arr(rng.integers(0, f.p, (6, 64))))
    A = f62.arr(rng.integers(0, f62.p, (24, 24)))
    yield "[A | I] 24x48 p62", f62, np.concatenate([A, np.eye(24, dtype=f62.dtype)], axis=1)


def elim(reps: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    print("# elim: row_reduce on its callers' shapes; times in ms")
    print("# shape                        dtype       ms  pivots  period")
    for label, f, M in _elim_cases(rng):
        R, pivots, _ = f.row_reduce(M)
        want_R, want_pivots = _row_reduce(f, M)
        if pivots != want_pivots or R.tolist() != want_R.tolist():
            raise SystemExit(f"row_reduce differs from the oracle at {label}")
        (t,) = best_of([lambda: f.row_reduce(M)], reps)
        dtype = "object" if f.dtype is object else "int64"
        print(f"{label:30s} {dtype:6s} {t * 1e3:9.2f} {len(pivots):7d} {max(1, f._slack - 1):7d}",
              flush=True)


def _einsum_points(f, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """points_product's former int64 kernel: einsum over slices of slack − 1
    inner terms, each reduced mod p with the sum so far."""
    step = max(1, f._slack - 1)
    acc = None
    for lo in range(0, va.shape[1], step):
        part = np.einsum("iks,kjs->ijs", va[:, lo:lo + step], vb[lo:lo + step])
        acc = part % f.p if acc is None else (acc + part) % f.p
    return acc


def points(reps: int, seed: int) -> None:
    f = get_field(998244353)
    rng = np.random.default_rng(seed)
    print("# points: points_product against the former int64 einsum; times in microseconds")
    print(f"# {'workload':18s} {'rows':>4s} {'k':>3s} {'cols':>4s} {'points':>6s} {'einsum':>8s}"
          f" {'product':>8s} {'split':>7s}  product/einsum  (product+split)/einsum")
    for name, rows, k, cols, count in POINTS_SHAPES:
        va = rng.integers(0, f.p, (rows, k, count))
        vb = rng.integers(0, f.p, (k, cols, count))
        kept = points_operand(f, vb)
        if not np.array_equal(points_product(f, va, kept), _einsum_points(f, va, vb)):
            raise SystemExit(f"points_product differs at {name} {(rows, k, cols, count)}")
        te, tp, ts = best_of([lambda: _einsum_points(f, va, vb),
                              lambda: points_product(f, va, kept),
                              lambda: points_operand(f, vb)], reps)
        print(f"  {name:18s} {rows:4d} {k:3d} {cols:4d} {count:6d} {te * 1e6:8.1f} {tp * 1e6:8.1f}"
              f" {ts * 1e6:7.1f}  {tp / te:14.2f}  {(tp + ts) / te:21.2f}", flush=True)


def _toeplitz_line(f, label: str, a, b, reps: int) -> None:
    """Time conv's three kernels on the block (a, b) and print one line; a
    kernel the shape cannot take, or that would run too long or too large,
    prints -."""
    la, lb = a.shape[-1], b.shape[-1]
    ra, rb = math.prod(a.shape[:-1]), math.prod(b.shape[:-1])
    need = la + lb - 1
    entries = min(ra * lb, rb * la) * need
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    fns = {}
    if entries <= TOEPLITZ_TIMED_FLOATS:
        fns["toeplitz"] = lambda: f._conv_toeplitz(a, b, lead)
    if 1 << (need - 1).bit_length() <= f.ntt_capacity():
        fns["ntt"] = lambda: f._conv_ntt(a, b)
    if math.prod(lead) * la * lb <= TOEPLITZ_TIMED_TERMS:
        fns["limb"] = lambda: f._conv_limbs(a, b)
    results = [fn() for fn in fns.values()]
    if any(not np.array_equal(got, results[0]) for got in results):
        raise SystemExit(f"kernels differ at p={f.p} {a.shape} x {b.shape}")
    times = dict(zip(fns, best_of(list(fns.values()), reps)))
    cells = [f"{times[k] * 1e6:9.1f}" if k in times else f"{'-':>9s}"
             for k in ("toeplitz", "ntt", "limb")]
    base = times.get("ntt", times.get("limb"))
    ratio = f"{times['toeplitz'] / base:6.2f}" if "toeplitz" in times and base else f"{'-':>6s}"
    print(f"  {label:34s} {entries:8d} {' '.join(cells)}  {ratio}  {_conv_route(f, a, b)}",
          flush=True)


def _conv_route(f, a, b) -> str:
    """The route conv takes on the block (a, b), read off the kernel it calls."""
    taken = []
    kernels = ("_conv_toeplitz", "_conv_ntt", "_conv_limbs")
    for name in kernels:
        setattr(f, name, lambda *args, _n=name, _k=getattr(f, name): taken.append(_n) or _k(*args))
    try:
        f.conv(a, b)
    finally:
        for name in kernels:
            delattr(f, name)
    return taken[0][len("_conv_"):]


def toeplitz(reps: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    print("# toeplitz: conv of a block by the Toeplitz route, the NTT and the limb kernel;"
          " times in microseconds, ratio toeplitz/(ntt, else limb)")
    print(f"# {'p, a x b':34s} {'entries':>8s} {'toeplitz':>9s} {'ntt':>9s} {'limb':>9s}"
          f"  {'ratio':>6s}  route   (entries: of the Toeplitz matrices)")
    for p in (998244353, 2**31 - 1):
        f = get_field(p)
        print(f"# families-mul's block shapes, p = {p}")
        for sa, sb in TOEPLITZ_FAMILIES:
            _toeplitz_line(f, f"{sa} x {sb}", rng.integers(0, p, sa), rng.integers(0, p, sb), reps)
    f = get_field(998244353)
    print("# rows x (nodes, L) by (nodes, L + 1), p = 998244353")
    for length in TOEPLITZ_LENGTHS:
        for rows in TOEPLITZ_ROWS:
            for nodes in TOEPLITZ_NODES:
                sa, sb = (rows, nodes, length), (nodes, length + 1)
                _toeplitz_line(f, f"{sa} x {sb}", rng.integers(0, f.p, sa),
                               rng.integers(0, f.p, sb), reps)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--part", choices=("route", "pieces", "kernel", "solver", "densify", "elim",
                                       "points", "toeplitz", "all"), default="all")
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--seed", type=int, default=20)
    args = ap.parse_args(argv)
    if args.part in ("kernel", "all"):
        kernel(args.reps, args.seed)
    if args.part in ("route", "all"):
        route(args.reps, args.seed)
    if args.part in ("pieces", "all"):
        pieces(args.reps, args.seed)
    if args.part in ("solver", "all"):
        solver(args.reps, args.seed)
    if args.part in ("densify", "all"):
        densify_block(args.reps, args.seed)
    if args.part in ("elim", "all"):
        elim(args.reps, args.seed)
    if args.part in ("points", "all"):
        points(args.reps, args.seed)
    if args.part in ("toeplitz", "all"):
        toeplitz(args.reps, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
