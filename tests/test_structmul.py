"""Trilinear polynomial products and the fast structured matrix product.

Every fast routine is checked against the literal triple loop it replaces:
R_j = sum_k U_k · (V_k·W_j mod x^n) (or mod Q), formed with schoolbook
polynomial arithmetic."""

import numpy as np
import pytest

from dispmat import structmul
from dispmat.field import get_field
from dispmat.poly import as_poly, poly_add, poly_mod, poly_mul, trim
from dispmat.structmul import (
    MUL_CUTOFF,
    PreconditionViolated,
    mulQ,
    mul_rec,
    mul_unbalanced,
    struct_mul,
)
from dispmat.generators import gen_matvec, reconstruct_dense
from dispmat.operators import STEIN, SYLVESTER, DisplacementOperator, op_invertible
from dispmat.oracle import dense_mul, dense_solve_displacement

from conftest import rand_family, rand_generator, rand_operator


def _naive_truncated(f, U, V, W, m, n):
    out = []
    for w in W:
        acc = f.zeros(0)
        for u, v in zip(U, V):
            inner = poly_mul(f, f.arr(v), f.arr(w))[:n]
            acc = poly_add(f, acc, poly_mul(f, f.arr(u), inner))
        r = f.zeros(m + n - 1)
        r[: len(acc)] = acc
        out.append(r)
    return out


def _naive_modular(f, U, V, W, Q):
    out = []
    for w in W:
        acc = f.zeros(0)
        for u, v in zip(U, V):
            inner = poly_mod(f, poly_mul(f, f.arr(v), f.arr(w)), Q)
            acc = poly_add(f, acc, poly_mul(f, f.arr(u), inner))
        out.append(acc)
    return out


def _rand_polys(f, rng, count, length):
    return [f.arr(rng.integers(0, f.p, length)) for _ in range(count)]


# ---------------------------------------------------------------------------
# the recursion and its padding entry


@pytest.mark.parametrize("cutoff", [None, 2])
def test_mul_matches_triple_loop(any_field, cutoff, monkeypatch):
    # any alpha, beta and n: alpha > n and beta != alpha included
    f = any_field
    if cutoff is not None:
        monkeypatch.setattr(structmul, "MUL_CUTOFF", cutoff)
    rng = np.random.default_rng(3)
    for trial in range(12):
        n = int(rng.integers(1, 20))
        m = int(rng.integers(1, 20))
        alpha = int(rng.integers(1, n + 1)) if trial % 3 else int(rng.integers(n, n + 6))
        beta = alpha if trial % 2 else int(rng.integers(1, 12))
        U = _rand_polys(f, rng, alpha, m)
        V = _rand_polys(f, rng, alpha, n)
        W = _rand_polys(f, rng, beta, n)
        got = mul_unbalanced(f, U, V, W, m, n)
        want = _naive_truncated(f, U, V, W, m, n)
        assert got.shape == (beta, m + n - 1)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_mul_unbalanced_takes_blocks_and_lists(f):
    rng = np.random.default_rng(4)
    m, n = 7, 11
    U = f.arr(rng.integers(0, f.p, (3, m)))
    V = f.arr(rng.integers(0, f.p, (3, n + 4)))  # longer rows count mod x^n
    W = f.arr(rng.integers(0, f.p, (5, n)))
    got = mul_unbalanced(f, U, V, W, m, n)
    assert np.array_equal(got, mul_unbalanced(f, list(U), list(V), list(W), m, n))
    for g, w in zip(got, _naive_truncated(f, U, V, W, m, n)):
        assert np.array_equal(g, w)


def test_mul_rec_inner_dimension(f, monkeypatch):
    # gamma > 1 sums over an inner axis before the truncated product, and
    # W may have its own row count bbar
    monkeypatch.setattr(structmul, "MUL_CUTOFF", 2)
    rng = np.random.default_rng(5)
    for abar, bbar, gamma, nu, m in [(4, 4, 2, 8, 5), (2, 2, 2, 16, 3), (8, 8, 1, 4, 9),
                                     (1, 1, 1, 1, 4), (2, 8, 1, 16, 6), (8, 2, 2, 8, 3),
                                     (1, 4, 1, 8, 5), (4, 1, 1, 4, 7)]:
        U = f.arr(rng.integers(0, f.p, (abar, m)))
        V = f.arr(rng.integers(0, f.p, (abar, gamma, nu)))
        W = f.arr(rng.integers(0, f.p, (bbar, gamma, nu)))
        got = mul_rec(f, U, V, W, m, nu, gamma)
        assert got.shape == (bbar, m + nu - 1)
        for j in range(bbar):
            acc = f.zeros(0)
            for k in range(abar):
                inner = f.zeros(0)
                for c in range(gamma):
                    inner = poly_add(f, inner, poly_mul(f, V[k, c], W[j, c]))
                acc = poly_add(f, acc, poly_mul(f, U[k], inner[:nu]))
            want = f.zeros(m + nu - 1)
            want[: len(acc)] = acc
            assert np.array_equal(got[j], want)


def test_mul_preconditions(f):
    rng = np.random.default_rng(7)
    U = _rand_polys(f, rng, 3, 4)
    with pytest.raises(PreconditionViolated):
        mul_unbalanced(f, U, U[:2], U, 4, 8)
    assert mul_unbalanced(f, [], [], [], 4, 8).shape == (0, 11)
    # alpha = 3 > n = 2 needs no slicing: the recursion stops at nu = 1
    W = _rand_polys(f, rng, 2, 2)
    got = mul_unbalanced(f, U, U, W, 4, 2)
    for g, w in zip(got, _naive_truncated(f, U, U, W, 4, 2)):
        assert np.array_equal(g, w)


def test_mul_unbalanced_all_regimes(f, monkeypatch):
    monkeypatch.setattr(structmul, "MUL_CUTOFF", 4)
    rng = np.random.default_rng(11)
    for alpha, beta in [(1, 7), (3, 1), (4, 4), (5, 2), (2, 9), (3, 8)]:
        n = max(alpha, 5)
        m = int(rng.integers(1, 12))
        U = _rand_polys(f, rng, alpha, m)
        V = _rand_polys(f, rng, alpha, n)
        W = _rand_polys(f, rng, beta, n)
        got = mul_unbalanced(f, U, V, W, m, n)
        want = _naive_truncated(f, U, V, W, m, n)
        assert len(got) == beta
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_mul_unbalanced_degenerate_counts(f):
    n, m = 5, 4
    W = _rand_polys(f, np.random.default_rng(13), 3, n)
    got = mul_unbalanced(f, [], [], W, m, n)
    assert got.shape == (3, m + n - 1) and not np.any(got)
    U = _rand_polys(f, np.random.default_rng(13), 2, m)
    assert mul_unbalanced(f, U, U, [], m, n).shape == (0, m + n - 1)
    got = mul_unbalanced(f, U, U, W, m, 1)  # alpha = 2 > n = 1
    for g, w in zip(got, _naive_truncated(f, U, U, W, m, 1)):
        assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# arbitrary monic modulus


def test_mulQ_matches_modular_triple_loop(any_field, monkeypatch):
    f = any_field
    monkeypatch.setattr(structmul, "MUL_CUTOFF", 4)
    rng = np.random.default_rng(17)
    moduli = [
        as_poly(f, [0, 0, 0, 0, 1]),          # x^4
        as_poly(f, [f.p - 1, 0, 0, 0, 0, 1]),  # x^5 - 1
        as_poly(f, [0, 1]),                     # x, the n = 1 edge
    ]
    for _ in range(4):
        deg = int(rng.integers(2, 9))
        moduli.append(np.append(f.arr(rng.integers(0, f.p, deg)), f.arr([1])))
    for Q in moduli:
        n = len(Q) - 1
        alpha = int(rng.integers(1, n + 1))
        beta = int(rng.integers(1, 5))
        m = int(rng.integers(1, 10))
        U = _rand_polys(f, rng, alpha, m)
        V = _rand_polys(f, rng, alpha, n)
        W = _rand_polys(f, rng, beta, n)
        got = mulQ(f, U, V, W, Q)
        want = _naive_modular(f, U, V, W, Q)
        assert len(got) == beta
        for g, w in zip(got, want):
            assert np.array_equal(trim(f, g), trim(f, w))


def test_mulQ_without_transform_room_matches_triple_loop():
    """2^31-1 has no transform for these lengths, so mulQ hands each sum to
    the direct route; above degree 32 its reductions divide by Newton."""
    f = get_field(2**31 - 1)
    rng = np.random.default_rng(61)
    for n in (1, 40, 57):
        Q = np.append(f.arr(rng.integers(0, f.p, n)), f.arr([1]))
        alpha = int(rng.integers(1, min(n, 5) + 1))
        m = int(rng.integers(1, 80))
        U = _rand_polys(f, rng, alpha, m)
        V = _rand_polys(f, rng, alpha, 2 * n)
        W = _rand_polys(f, rng, int(rng.integers(1, 5)), 2 * n)
        got = mulQ(f, U, V, W, Q)
        want = _naive_modular(f, U, V, W, Q)
        assert len(got) == len(W)
        for g, w in zip(got, want):
            assert len(g) == m + n - 1
            assert np.array_equal(trim(f, g), trim(f, w))


def test_mulQ_preconditions(f):
    U = _rand_polys(f, np.random.default_rng(19), 2, 3)
    Q = as_poly(f, [1, 2, 1])
    with pytest.raises(PreconditionViolated):
        mulQ(f, U, U, U, as_poly(f, [1, 2]))  # not monic
    with pytest.raises(PreconditionViolated):
        mulQ(f, U, U, U, as_poly(f, [5]))  # degree 0
    with pytest.raises(PreconditionViolated):
        mulQ(f, U + U, U + U, U, Q)  # alpha = 4 > deg Q = 2
    with pytest.raises(PreconditionViolated):
        mulQ(f, U, U[:1], U, Q)


# ---------------------------------------------------------------------------
# structured matrix times dense block


def test_struct_mul_matches_dense_product(any_field, monkeypatch):
    f = any_field
    rng = np.random.default_rng(23)
    for _ in range(12):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        op = rand_operator(f, rng, m, n)
        alpha = int(rng.integers(1, min(m, n) + 1))
        gen = rand_generator(f, rng, op, alpha)
        beta = int(rng.integers(1, 6))
        B = f.arr(rng.integers(0, f.p, (n, beta)))
        # the cutoff-4 recursion only on the side under test: the reference
        # keeps the default cutoff, so it takes the direct pm_mul path
        with monkeypatch.context() as mp:
            mp.setattr(structmul, "MUL_CUTOFF", 4)
            got = struct_mul(gen, B)
        want = dense_mul(f, reconstruct_dense(gen), B)
        assert np.array_equal(got, want)


# 2^31-1 and 2^62-57 have two-adicity 1: every product takes the limb
# kernel and the routes that need no transform (pm_mul entrywise, and mulQ's
# hand-off to the direct sum).  2013265921 and 2281701377 send pm_mul and
# mulQ through the transform at slack floor(2^63/p^2) = 2 and 1.  Every
# draw has more than _DIRECT_PAIRS pair products alpha·beta, so a general Q
# takes mulQ, and the transform primes reach its recursion.
@pytest.mark.parametrize("p", [2**31 - 1, 2**62 - 57, 2013265921, 2281701377])
def test_struct_mul_matches_oracle_across_primes(p, monkeypatch):
    f = get_field(p)
    monkeypatch.setattr(structmul, "MUL_CUTOFF", 4)
    recursions = []
    real_rec = structmul.mul_rec
    monkeypatch.setattr(structmul, "mul_rec",
                        lambda *args: recursions.append(args) or real_rec(*args))
    rng = np.random.default_rng(29)
    for _ in range(8):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        op = rand_operator(f, rng, m, n)
        alpha = int(rng.integers(1, min(m, n) + 1))
        gen = rand_generator(f, rng, op, alpha)
        A = dense_solve_displacement(op, f.mat_mul(gen.G, gen.H.T))
        beta = structmul._DIRECT_PAIRS // alpha + int(rng.integers(1, 4))
        B = f.arr(rng.integers(0, 2**62, (n, beta)))
        assert np.array_equal(struct_mul(gen, B), dense_mul(f, A, B))
    assert bool(recursions) == (f.two_adicity > 1)


@pytest.mark.parametrize("kind", [SYLVESTER, STEIN])
def test_product_chain_routes_a_general_q_by_pair_count(f, kind, monkeypatch):
    """A general (non-binomial) Q takes the direct sum up to _DIRECT_PAIRS
    pair products alpha·beta or for one column, and mulQ's core _mulQ, on
    the family's own modulus stack, above it; both match the dense product
    on both sides of the rule."""
    rng = np.random.default_rng(31)
    while True:
        op = DisplacementOperator(kind, rand_family(f, rng, 20), rand_family(f, rng, 20))
        if op.fam_q.levels[-1].binomial is None and op_invertible(op):
            break
    routes = []
    for name in ("_mulQ", "_mul_direct"):
        real = getattr(structmul, name)
        monkeypatch.setattr(structmul, name,
                            lambda *args, real=real, name=name: routes.append(name) or real(*args))
    rule = structmul._DIRECT_PAIRS
    for alpha, beta in ((1, 2), (2, 8), (4, 4), (16, 1), (1, rule), (2, 9), (4, 5), (5, 4),
                        (17, 1), (20, 3)):
        gen = rand_generator(f, rng, op, alpha)
        B = f.arr(rng.integers(0, f.p, (op.n, beta)))
        A = dense_solve_displacement(op, f.mat_mul(gen.G, gen.H.T))
        want = dense_mul(f, A, B)
        routes.clear()
        assert np.array_equal(struct_mul(gen, B), want), (alpha, beta)
        direct = beta == 1 or alpha * beta <= rule
        assert routes == (["_mul_direct"] if direct else ["_mulQ"]), (alpha, beta)


@pytest.mark.parametrize("transpose_p", [False, True])
def test_struct_mul_never_inverts_the_q_symmetrizer(f, transpose_p, monkeypatch):
    """With an untransposed Q side, A·B = Y_P^{−e1}·Ã·Y_Q⁻¹·B and Ã's chain
    starts with Y_Q, so the product must not apply Y_Q⁻¹ at all."""
    from dispmat.operators import sylvester_op
    from dispmat.poly import Moduli

    rng = np.random.default_rng(53)
    fam_p, fam_q = rand_family(f, rng, 9), rand_family(f, rng, 8)
    op = sylvester_op(fam_p, fam_q, transpose_p=transpose_p, transpose_q=False)
    gen = rand_generator(f, rng, op, 3)
    B = f.arr(rng.integers(0, f.p, (8, 4)))
    A = dense_solve_displacement(op, f.mat_mul(gen.G, gen.H.T))

    # the symmetrizer of a family runs on all its blocks in one call, on
    # the family's leaf stack
    inverted = []
    symmetrize = Moduli.symmetrize

    def recording(stack, X, inverse=False):
        if inverse:
            inverted.append(stack)
        return symmetrize(stack, X, inverse)

    monkeypatch.setattr(Moduli, "symmetrize", recording)
    got = struct_mul(gen, B)
    assert np.array_equal(got, dense_mul(f, A, B))
    assert not any(stack is fam_q.levels[0] for stack in inverted)
    assert bool(inverted) == transpose_p  # Y_P⁻¹ on the output side only


def test_struct_mul_columns_agree_with_matvec(f):
    rng = np.random.default_rng(29)
    op = rand_operator(f, rng, 12, 10)
    gen = rand_generator(f, rng, op, 3)
    B = f.arr(rng.integers(0, f.p, (10, 4)))
    out = struct_mul(gen, B)
    for i in range(4):
        assert np.array_equal(out[:, i], gen_matvec(gen, B[:, i]))


def test_struct_mul_vector_and_empty_inputs(f):
    rng = np.random.default_rng(31)
    op = rand_operator(f, rng, 5, 5)
    gen = rand_generator(f, rng, op, 2)
    v = f.arr(rng.integers(0, f.p, 5))
    out = struct_mul(gen, v)
    assert out.shape == (5, 1)
    assert np.array_equal(out[:, 0], gen_matvec(gen, v))
    assert struct_mul(gen, f.zeros((5, 0))).shape == (5, 0)


def test_struct_mul_preconditions(f):
    rng = np.random.default_rng(37)
    op = rand_operator(f, rng, 4, 4)
    gen = rand_generator(f, rng, op, 2)
    with pytest.raises(PreconditionViolated):
        struct_mul(gen, f.zeros((5, 2)))
    wide = rand_generator(f, rng, rand_operator(f, rng, 8, 3), 3)
    fatter = rand_generator(f, rng, wide.operator, 3)
    # alpha > n cannot happen through rand_generator; build it by hand
    from dispmat.generators import Generator

    bad = Generator(f.zeros((8, 4)), f.zeros((3, 4)), wide.operator)
    with pytest.raises(PreconditionViolated):
        struct_mul(bad, f.zeros((3, 1)))


def test_default_cutoff_is_sane():
    assert MUL_CUTOFF >= 1


def test_mul_rec_shape_contract(f):
    U = f.zeros((2, 4))
    V = f.zeros((2, 1, 3))
    with pytest.raises(PreconditionViolated):
        mul_rec(f, U, V, V.copy(), 4, 3, 1)  # nu = 3 is not a power of two
    V = f.zeros((2, 1, 4))
    with pytest.raises(PreconditionViolated):
        mul_rec(f, U, V, f.zeros((2, 1, 2)), 4, 4, 1)  # W has the wrong shape
    # a W with its own row count must still match V's gamma and nu
    with pytest.raises(PreconditionViolated):
        mul_rec(f, U, V, f.zeros((4, 2, 4)), 4, 4, 1)  # W's gamma differs
    with pytest.raises(PreconditionViolated):
        mul_rec(f, U, V, f.zeros((4, 1, 8)), 4, 4, 1)  # W's nu differs
    with pytest.raises(PreconditionViolated):
        mul_rec(f, U, V, f.zeros((3, 1, 4)), 4, 4, 1)  # bbar = 3
    with pytest.raises(PreconditionViolated):
        mul_rec(f, U, f.zeros((2, 4, 1)), f.zeros((8, 4, 1)), 4, 1, 4)  # gamma > abar


@pytest.mark.parametrize("p", [998244353, 2013265921, 2281701377, 4611685941117976577])
def test_piecewise_sum_matches_direct_sum(p):
    """The middle product modulo a binomial x^n − c, taken in pieces, equals
    the direct sum at every piece length L from 1 to n + 1 (so L ∤ n and
    L ≥ n occur), for random m and n, c in {0, 1, −1} and a random c, with an
    all-zero column: the generator side of U and V first, then the
    per-call side of W."""
    from dispmat.poly import Moduli
    from dispmat.structmul import _mul_direct, _mul_pieces, _pieces_side

    f = get_field(p)
    rng = np.random.default_rng(71)
    for trial in range(24):
        n, m = int(rng.integers(1, 41)), int(rng.integers(1, 41))
        alpha, beta = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        c = [0, 1, f.p - 1, int(rng.integers(0, f.p))][trial % 4]
        Q = f.zeros(n + 1)
        Q[0], Q[n] = (-c) % f.p, 1
        U = f.arr(rng.integers(0, f.p, (alpha, m)))
        V = f.arr(rng.integers(0, f.p, (alpha, n)))
        W = f.arr(rng.integers(0, f.p, (beta, n)))
        W[-1] = 0
        want = _mul_direct(f, U, V, W, Moduli.of(f, Q))
        for L in range(1, n + 2):
            got = _mul_pieces(f, _pieces_side(f, U, V, n, c, L), W)
            assert np.array_equal(got, want), (n, m, alpha, beta, c, L)


@pytest.mark.parametrize("m, n, alpha, L", [
    (64, 64, 4, 16),    # n/alpha = 16
    (96, 96, 2, 64),    # 48 is nearer 64 than 32 on the log scale
    (100, 100, 3, 32),  # 33.3
    (5, 5, 5, 1),       # n/alpha = 1
    (1, 64, 1, 32),     # 64, cut to half of the 64-point full product
])
def test_product_chain_stores_the_rule_piece_length(f, m, n, alpha, L):
    """A product with several columns on a binomial Q keeps its generator
    side under "pieces", cut at the power of two nearest n/alpha, as the
    float64 limb stacks points_product takes: K = ⌈n/L⌉ pieces of V and
    K + alpha rows by D = ⌈(m + n − 1)/L⌉ pieces of the stack, points
    first, at the 2L points of a piece product."""
    from dispmat.generators import Generator
    from dispmat.poly import family_build

    rng = np.random.default_rng(m + n + alpha)
    op = DisplacementOperator(SYLVESTER, family_build(f, [[f.p - 3] + [0] * (m - 1) + [1]]),
                              family_build(f, [[f.p - 5] + [0] * (n - 1) + [1]]), False, True)
    gen = Generator(rng.integers(0, f.p, (m, alpha)), rng.integers(0, f.p, (n, alpha)), op)
    B = f.arr(rng.integers(0, f.p, (n, 3)))
    assert np.array_equal(struct_mul(gen, B), dense_mul(f, reconstruct_dense(gen), B))
    side = gen._store[3]["pieces"]
    K, D, size = -(-n // L), -(-(m + n - 1) // L), 1 << (2 * L - 2).bit_length()
    assert side.L == L and side.K == K
    assert side.v_rev.dtype == side.stack.dtype == np.float64
    assert side.v_rev.shape == (2, size, K, alpha) and side.stack.shape == (2, size, K + alpha, D)
