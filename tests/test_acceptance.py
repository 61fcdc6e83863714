"""Acceptance suite: one test per release criterion, one printed verdict per
criterion (visible with `pytest -s` or in failure output).

These are the checks the library must pass wholesale before a release:
exact-equality property sweeps against the dense oracle routes, Las Vegas
failure-rate bounds, a wall-clock scaling probe, and the approximation demo's
residue identity.  Seeds are fixed; every run tests the same instances.
"""

import time

import numpy as np
import pytest

from dispmat.field import DEFAULT_PRIME, get_field
from dispmat.poly import (
    comb_family,
    comb_family_inv,
    crt_family,
    family_build,
    is_zero,
    poly_add,
    poly_mod,
    poly_mul,
    red_family,
    red_transposed,
    trim,
)
from dispmat.operators import STEIN, SYLVESTER, DisplacementOperator
from dispmat.generators import (
    Generator,
    gen_matvec,
    hankel_operator,
    reconstruct_dense,
)
from dispmat.structmul import mul_unbalanced, mulQ, struct_mul
from dispmat import cli
from dispmat.structsolve import (
    FAILURE,
    NO_SOLUTION,
    OK,
    SINGULAR,
    inv_generator,
    solve_generator,
)
from dispmat.oracle import (
    Singular,
    dense_apply_operator,
    dense_inv,
    dense_mul,
    dense_rank,
    dense_solve,
)
from dispmat.cli import draw_operator, pade_solve, plant_pade

from conftest import both_routes, expected_route

F = get_field(DEFAULT_PRIME)


def _report(num: int, label: str, failures: list, detail: str = ""):
    ok = not failures
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line + "; first failures: " + "; ".join(map(str, failures[:5]))


def _variant(trial: int):
    kind = SYLVESTER if trial & 1 == 0 else STEIN
    return kind, bool(trial & 2), bool(trial & 4)


_FLAVORS = ("general", "single_power", "geometric")


def _rand_gen(rng, op, alpha):
    G = F.arr(rng.integers(0, F.p, (op.m, alpha)))
    H = F.arr(rng.integers(0, F.p, (op.n, alpha)))
    return Generator(G, H, op)


# ---------------------------------------------------------------------------


def test_criterion_1_reconstruction_soundness():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    failures = []
    for trial in range(500):
        kind, tp, tq = _variant(trial)
        flavor = _FLAVORS[trial % 3]
        m = int(rng.integers(1, 49))
        n = int(rng.integers(1, 49))
        op = draw_operator(F, rng, m, n, kind, flavor, tp, tq)
        alpha = int(rng.integers(1, min(m, n, 6) + 1))
        gen = _rand_gen(rng, op, alpha)
        a = reconstruct_dense(gen)
        lhs = dense_apply_operator(op, a)
        rhs = dense_mul(F, gen.G, gen.H.T)
        if not np.array_equal(lhs, rhs):
            failures.append((trial, kind, tp, tq, flavor, m, n, alpha))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s over the 60s budget")
    _report(1, "reconstruction soundness", failures,
            f"500 instances, 8 variants, 3 flavors, {elapsed:.1f}s")


def test_criterion_2_multiplication_equivalence():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    failures = []
    seen = {"stein": 0, "alpha<beta": 0, "beta<alpha": 0}
    for trial in range(200):
        kind, tp, tq = _variant(trial)
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        op = draw_operator(F, rng, m, n, kind, _FLAVORS[trial % 3], tp, tq)
        alpha = int(rng.integers(1, min(m, n, 8) + 1))
        beta = int(rng.integers(1, 9))
        gen = _rand_gen(rng, op, alpha)
        B = F.arr(rng.integers(0, F.p, (n, beta)))
        got = struct_mul(gen, B)
        want = dense_mul(F, reconstruct_dense(gen), B)
        if not np.array_equal(got, want):
            failures.append((trial, kind, m, n, alpha, beta))
        if kind == STEIN:
            seen["stein"] += 1
        if alpha < beta:
            seen["alpha<beta"] += 1
        if beta < alpha:
            seen["beta<alpha"] += 1
    for key, count in seen.items():
        if count == 0:
            failures.append(f"coverage hole: no {key} instance")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s over the 60s budget")
    _report(2, "fast product vs dense", failures,
            f"200 instances ({seen['stein']} Stein), {elapsed:.1f}s")


def test_criterion_3_trilinear_oracle_equivalence():
    rng = np.random.default_rng(1003)
    failures = []
    non_pow2 = 0
    for trial in range(200):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, 65))
        alpha = int(rng.integers(1, min(n, 8) + 1))
        beta = int(rng.integers(1, 9))
        if n & (n - 1):
            non_pow2 += 1
        U = [F.arr(rng.integers(0, F.p, m)) for _ in range(alpha)]
        V = [F.arr(rng.integers(0, F.p, n)) for _ in range(alpha)]
        W = [F.arr(rng.integers(0, F.p, n)) for _ in range(beta)]
        if trial % 2 == 0:
            # truncated product, i.e. the modulus x^n
            got = mul_unbalanced(F, U, V, W, m, n)
            want = []
            for w in W:
                acc = F.zeros(0)
                for u, v in zip(U, V):
                    acc = poly_add(F, acc, poly_mul(F, u, poly_mul(F, v, w)[:n]))
                r = F.zeros(m + n - 1)
                r[: len(acc)] = acc
                want.append(r)
            match = all(np.array_equal(g, w) for g, w in zip(got, want))
        else:
            if trial % 4 == 1:
                Q = F.zeros(n + 1)
                Q[n] = 1  # Q = x^n through the modular route as well
            else:
                Q = np.append(F.arr(rng.integers(0, F.p, n)), F.arr([1]))
            got = mulQ(F, U, V, W, Q)
            match = True
            for g, w in zip(got, W):
                acc = F.zeros(0)
                for u, v in zip(U, V):
                    acc = poly_add(
                        F, acc, poly_mul(F, u, poly_mod(F, poly_mul(F, v, w), Q)))
                if not np.array_equal(trim(F, g), trim(F, acc)):
                    match = False
        if not match:
            failures.append((trial, m, n, alpha, beta))
    if non_pow2 < 50:
        failures.append("coverage hole: too few non-power-of-two sizes")
    _report(3, "trilinear products vs naive triple loop", failures,
            f"200 instances, {non_pow2} with non-power-of-two n")


# After the drawn sizes, criteria 4 and 5 run a few small and very
# rectangular shapes, min(m, n) <= 5: dense on both routes.
SMALL_SQUARE = (1, 2, 3, 5)
SMALL_PLANTED = (4, 4, 5, 5)  # rank < m for both kinds of planted matrix
SMALL_TALL = ((40, 1), (25, 2), (11, 5))
SMALL_WIDE = ((1, 40), (2, 25), (5, 11))
SMALL_SHAPES = SMALL_TALL + SMALL_WIDE + tuple((m, m) for m in SMALL_SQUARE)


def test_criterion_4_inversion(monkeypatch):
    # once at the default crossover, once with the structured route forced
    for forced in both_routes(monkeypatch):
        _criterion_4(forced)


def _check_route(failures: list, res, forced: bool, q: int, alpha: int):
    if res.route != expected_route(forced, q, alpha):
        failures.append(f"route {res.route} at min(m, n)={q} alpha={alpha}")


def _criterion_4(forced: bool):
    rng = np.random.default_rng(1004)
    t0 = time.perf_counter()
    failures = []
    fail_tags = 0
    done = 0
    eye_cache = {}
    while done < 100 + len(SMALL_SQUARE):
        m = int(rng.integers(12, 65)) if done < 100 else SMALL_SQUARE[done - 100]
        alpha = int(rng.integers(1, min(m, 4) + 1))
        gen = _rand_gen(rng, hankel_operator(F, m, m), alpha)
        a = reconstruct_dense(gen)
        res = inv_generator(gen, rng_seed=done)
        _check_route(failures, res, forced, m, alpha)
        if res.status == SINGULAR:
            if dense_rank(F, a) == m:
                failures.append(f"false singular at m={m}")
                done += 1
            continue  # genuinely singular draw: not an invertible instance
        done += 1
        if res.status == FAILURE:
            fail_tags += 1
            continue
        ainv = reconstruct_dense(res.generator)
        if m not in eye_cache:
            eye_cache[m] = F.arr(np.eye(m, dtype=object))
        if not np.array_equal(dense_mul(F, ainv, a), eye_cache[m]):
            failures.append(f"wrong inverse at m={m} alpha={alpha}")
    if fail_tags / 100 >= 0.6:
        failures.append(f"failure rate {fail_tags}/100 not below 0.6")

    planted_singular = planted_failures = 0
    for trial in range(50 + len(SMALL_PLANTED)):
        m = int(rng.integers(16, 49)) if trial < 50 else SMALL_PLANTED[trial - 50]
        if trial % 2 == 0:
            r = int(rng.integers(1, 4))
            u = F.arr(rng.integers(0, F.p, (m, r)))
            v = F.arr(rng.integers(0, F.p, (r, m)))
            a = dense_mul(F, u, v)
        else:  # strictly lower triangular Toeplitz: nilpotent; its width
            # under hankel_operator is m − 1, so both runs take it dense
            a = F.zeros((m, m))
            c = F.arr(rng.integers(0, F.p, m - 1))
            for k in range(1, m):
                for i in range(k, m):
                    a[i, i - k] = c[k - 1]
        d = F.zeros((m, m))
        d[1:] = a[:-1]
        d = (d - np.roll(a, 1, axis=1)) % F.p
        from dispmat.generators import _column_decompose

        B, C = _column_decompose(F, d)
        gen = Generator(B, F.arr(C.T), hankel_operator(F, m, m))
        res = inv_generator(gen, rng_seed=1000 + trial)
        _check_route(failures, res, forced, m, gen.alpha)
        if res.status == OK:
            failures.append(f"false inverse on planted singular m={m}")
        elif res.status == SINGULAR:
            planted_singular += 1
        else:
            planted_failures += 1
    if planted_singular < 20:
        failures.append(
            f"only {planted_singular}/50 planted singular instances detected")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s over the 120s budget")
    route = "structured route" if forced else "default route"
    _report(4, f"inversion, {route}", failures,
            f"{done} inversions ({fail_tags} failure tags), "
            f"{planted_singular}/{trial + 1} planted singulars, {elapsed:.1f}s")


def test_criterion_5_solve(monkeypatch):
    # once at the default crossover, once with the structured route forced
    for forced in both_routes(monkeypatch):
        _criterion_5(forced)


def _criterion_5(forced: bool):
    rng = np.random.default_rng(1005)
    failures = []

    consistent_failures = 0
    for trial in range(100 + len(SMALL_SHAPES)):
        if trial < 100:
            m, n = int(rng.integers(12, 49)), int(rng.integers(12, 49))
        else:
            m, n = SMALL_SHAPES[trial - 100]
        alpha = int(rng.integers(1, min(m, n, 4) + 1))
        gen = _rand_gen(rng, hankel_operator(F, m, n), alpha)
        a = reconstruct_dense(gen)
        x0 = F.arr(rng.integers(0, F.p, n))
        b = F.mat_mul(a, x0.reshape(-1, 1)).ravel()
        res = solve_generator(gen, b, rng_seed=trial)
        _check_route(failures, res, forced, min(m, n), alpha)
        if res.status == FAILURE:
            consistent_failures += 1
            continue
        if res.status != OK or not np.array_equal(
                F.mat_mul(a, res.x.reshape(-1, 1)).ravel(), b):
            failures.append(f"consistent trial {trial}: {res.status}")
    if consistent_failures / 100 >= 0.6:
        failures.append(f"consistent failure rate {consistent_failures}/100")

    inconsistent_failures = 0
    done = 0
    while done < 50 + len(SMALL_TALL):
        if done < 50:
            n = int(rng.integers(10, 25))
            m = n + int(rng.integers(1, 13))
        else:
            m, n = SMALL_TALL[done - 50]
        alpha = int(rng.integers(1, min(n, 3) + 1))
        gen = _rand_gen(rng, hankel_operator(F, m, n), alpha)
        a = reconstruct_dense(gen)
        b = F.arr(rng.integers(0, F.p, m))
        if dense_solve(F, a, b) is not None:
            continue
        done += 1
        res = solve_generator(gen, b, rng_seed=500 + done)
        _check_route(failures, res, forced, n, alpha)
        if res.status == FAILURE:
            inconsistent_failures += 1
        elif res.status != NO_SOLUTION:
            failures.append(f"inconsistent instance got {res.status}")
    if inconsistent_failures / 50 >= 0.6:
        failures.append(f"inconsistent failure rate {inconsistent_failures}/50")

    homogeneous_failures = 0
    for trial in range(50 + len(SMALL_WIDE)):
        if trial < 50:
            m = int(rng.integers(10, 25))
            n = m + int(rng.integers(1, 9))  # wide: kernel guaranteed
        else:
            m, n = SMALL_WIDE[trial - 50]
        alpha = int(rng.integers(1, min(m, 3) + 1))
        gen = _rand_gen(rng, hankel_operator(F, m, n), alpha)
        a = reconstruct_dense(gen)
        res = solve_generator(gen, F.zeros(m), rng_seed=900 + trial)
        _check_route(failures, res, forced, m, alpha)
        if res.status == FAILURE:
            homogeneous_failures += 1
            continue
        if res.status != OK or not np.any(res.x) \
                or np.any(F.mat_mul(a, res.x.reshape(-1, 1))):
            failures.append(f"homogeneous trial {trial}: {res.status}")
    if homogeneous_failures / 50 >= 0.6:
        failures.append(f"homogeneous failure rate {homogeneous_failures}/50")

    route = "structured route" if forced else "default route"
    _report(5, f"solve, {route}", failures,
            f"{100 + len(SMALL_SHAPES)} consistent / {done} inconsistent / "
            f"{trial + 1} homogeneous "
            f"(failure tags {consistent_failures}/{inconsistent_failures}/"
            f"{homogeneous_failures})")


def test_criterion_6_rank_invariance_under_inversion():
    rng = np.random.default_rng(1006)
    failures = []
    done = 0
    while done < 100:
        kind = SYLVESTER if done % 2 == 0 else STEIN
        _, tp, tq = _variant(done)
        m = int(rng.integers(2, 11))
        op = draw_operator(F, rng, m, m, kind, _FLAVORS[done % 3], tp, tq)
        gen = _rand_gen(rng, op, int(rng.integers(1, min(m, 4) + 1)))
        a = reconstruct_dense(gen)
        try:
            ainv = dense_inv(F, a)
        except Singular:
            continue
        done += 1
        swapped = DisplacementOperator(
            op.kind, op.fam_q, op.fam_p,
            transpose_p=op.transpose_q, transpose_q=op.transpose_p)
        r1 = dense_rank(F, dense_apply_operator(op, a))
        r2 = dense_rank(F, dense_apply_operator(swapped, ainv))
        if r1 != r2:
            failures.append(f"{kind} m={m}: rank {r1} vs {r2}")
    _report(6, "displacement rank invariance under inversion", failures,
            "100 invertible instances, both kinds")


def test_criterion_7_scaling_probe():
    rng = np.random.default_rng(1007)
    failures = []
    alpha = beta = 8
    sizes = [1 << 10, 1 << 11, 1 << 12, 1 << 13]
    gens = {}
    blocks = {}
    for m in sizes:
        gen = _rand_gen(rng, hankel_operator(F, m, m), alpha)
        B = F.arr(rng.integers(0, F.p, (m, beta)))
        gens[m], blocks[m] = gen, B
        struct_mul(gen, B)  # warm the transform caches before timing
    m = 1 << 12
    gen, B = gens[m], blocks[m]
    gen_matvec(gen, B[:, 0])  # warm
    # each repetition times every size and the naive loop back to back, so a
    # change in machine speed between repetitions hits all of them alike
    runs = {size: [] for size in sizes}
    naive_runs = []
    for _ in range(5):
        for size in sizes:
            t0 = time.perf_counter()
            struct_mul(gens[size], blocks[size])
            runs[size].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for i in range(beta):
            gen_matvec(gen, B[:, i])
        naive_runs.append(time.perf_counter() - t0)
    medians = {size: sorted(r)[2] for size, r in runs.items()}
    ratios = [medians[2 * size] / medians[size] for size in sizes[:-1]]
    for size, ratio in zip(sizes[:-1], ratios):
        if ratio > 3.0:
            failures.append(f"t({2 * size})/t({size}) = {ratio:.2f} > 3.0")

    speedup = sorted(naive_runs)[2] / medians[m]
    if speedup < 1.5:
        failures.append(f"speedup over repeated products only {speedup:.2f}x")
    _report(7, "quasi-linear scaling probe", failures,
            "doubling ratios " + ", ".join(f"{r:.2f}" for r in ratios)
            + f"; {speedup:.2f}x over {beta}-fold single products at m=4096")


def test_criterion_8_crt_layer_roundtrips():
    rng = np.random.default_rng(1008)
    failures = []
    max_blocks = 0
    for trial in range(100):
        if trial == 0:
            degs = [1] * 128  # widest family: 128 linear blocks
        elif trial == 1:
            degs = [16] * 4  # deepest blocks allowed
        elif trial < 70:
            d = int(rng.integers(1, 129))
            degs = [int(rng.integers(1, 17)) for _ in range(d)]
        else:
            total = int(rng.integers(1, 33))
            degs = []
            while total:
                k = int(rng.integers(1, min(total, 8) + 1))
                degs.append(k)
                total -= k
        max_blocks = max(max_blocks, len(degs))
        polys = []
        for k in degs:
            c = F.arr(rng.integers(0, F.p, k + 1))
            c[k] = 1
            polys.append(c)
        try:
            fam = family_build(F, polys)
        except ValueError:
            failures.append(f"trial {trial}: family draw not coprime")
            continue
        total = fam.total_degree
        a = F.arr(rng.integers(0, F.p, total))
        back = crt_family(fam, red_family(fam, a))
        padded = F.zeros(total)
        padded[: len(back)] = back
        if not np.array_equal(padded, a):
            failures.append(f"trial {trial}: red/crt roundtrip")
        parts = F.arr(rng.integers(0, F.p, total))
        combd = comb_family(fam, parts)
        back_parts = comb_family_inv(fam, combd)
        if not np.array_equal(parts, back_parts):
            failures.append(f"trial {trial}: comb roundtrip")
        if trial >= 70:
            # dense transposed reduction for small formats
            W = F.zeros((total, total))
            e = F.zeros(total)
            for j in range(total):
                e[j] = 1
                W[:, j] = red_family(fam, e.copy())
                e[j] = 0
            u = F.arr(rng.integers(0, F.p, total))
            if not np.array_equal(red_transposed(fam, u),
                                  F.mat_mul(W.T, u.reshape(-1, 1)).ravel()):
                failures.append(f"trial {trial}: transposed reduction")
            if not np.array_equal(
                    red_transposed(fam, red_transposed(fam, u, inverse=True)), u):
                failures.append(f"trial {trial}: transposed inverse roundtrip")
    _report(8, "CRT layer roundtrips", failures,
            f"100 families, up to {max_blocks} blocks")


def test_criterion_9_pade_demo(monkeypatch):
    # once at the default crossover, once with the structured route forced;
    # every solve pade_solve makes is checked for its route
    real = cli.solve_generator
    for forced in both_routes(monkeypatch):
        failures = []

        def routed(gen, *args, **kwargs):
            res = real(gen, *args, **kwargs)
            _check_route(failures, res, forced, min(gen.m, gen.n), gen.alpha)
            return res

        monkeypatch.setattr(cli, "solve_generator", routed)
        _criterion_9(forced, failures)


def _criterion_9(forced: bool, failures: list):
    solved = 0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        d = 1 + seed % 2
        alpha = 2 + (seed // 2) % 2
        total = int(rng.integers(max(d, alpha - 1), 65))
        base, extra = divmod(total + 1, alpha)
        bounds = [base + (i < extra) for i in range(alpha)]
        db, dx = divmod(total, d)
        block_degrees = [db + (i < dx) for i in range(d)]
        if min(block_degrees) < 1 or min(bounds) < 1:
            continue
        inst = plant_pade(F, bounds, block_degrees=block_degrees, seed=seed)
        out = pade_solve(F, inst.moduli, inst.residues, inst.bounds, seed=seed)
        if out["tag"] == FAILURE:
            continue
        if out["tag"] != OK:
            failures.append(f"seed {seed}: planted instance got {out['tag']}")
            continue
        solved += 1
        parts = out["f"]
        if not any(np.any(part) for part in parts):
            failures.append(f"seed {seed}: zero output")
        for part, bound in zip(parts, inst.bounds):
            if len(trim(F, part)) > bound:
                failures.append(f"seed {seed}: degree bound broken")
        fam = family_build(F, inst.moduli)
        for i, P in enumerate(fam.polys):
            acc = F.zeros(0)
            for part, R in zip(parts, inst.residues[i]):
                acc = poly_add(F, acc, poly_mul(F, F.arr(part), F.arr(R)))
            if not is_zero(trim(F, poly_mod(F, acc, P))):
                failures.append(f"seed {seed}: residue identity broken at block {i}")
    if solved < 10:
        failures.append(f"only {solved}/20 seeds produced a solution")
    route = "structured route" if forced else "default route"
    _report(9, f"simultaneous approximation demo, {route}", failures,
            f"{solved}/20 seeds solved, residue identity exact")
