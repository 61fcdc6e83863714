"""Divide-and-conquer solver on the shift-operator format, stage by stage.

Every stage is compared against plain dense linear algebra: unpivoted
elimination for the regular-leading-block size, explicit inverses for the
recovered generators, and `dense_solve` for solution/kernel claims."""

import itertools
import re

import numpy as np
import pytest

from dispmat import operators, structsolve
from dispmat.field import BENCH_PRIME, DEFAULT_PRIME, PrimeField, get_field
from dispmat.poly import DimensionMismatch
from dispmat.generators import (
    Generator,
    _column_decompose,
    densify,
    gen_compress,
    gen_matvec,
    gen_transpose,
    hankel_operator,
    reconstruct_dense,
    shift_operator,
)
from dispmat.oracle import (
    Singular,
    dense_apply_operator,
    dense_inv,
    dense_mul,
    dense_rank,
    dense_solve,
    dense_solve_displacement,
)
from dispmat.structmul import PreconditionViolated
from dispmat.structsolve import (
    DENSE,
    FAILURE,
    NO_SOLUTION,
    OK,
    SINGULAR,
    STRUCTURED,
    InvResult,
    SolveResult,
    TriangularToeplitzPreconditioner,
    _base_case,
    _gen_block_12,
    _gen_block_21,
    _triple,
    densify_from_last_row,
    inv_generator,
    largest_rec,
    lp_inv,
    precond,
    solve_generator,
)

from conftest import (both_routes, expected_route, force_structured, rand_generator,
                      rand_operator)


def _shift_displacement(f, A):
    """Z_{m,0}·A − A·Z_{n,0}ᵗ densely: the partly-regular operator behind
    the (G, H, last-row) triples."""
    D = f.zeros(A.shape)
    D[1:, :] = A[:-1, :]
    D[:, 1:] = (D[:, 1:] - A[:, :-1]) % f.p
    return D


def _cyclic_displacement(f, A):
    """Z_{m,0}·A − A·Z_{n,1}ᵗ densely: the invertible Toeplitz/Hankel-type
    operator behind plain (G, H) pairs."""
    D = f.zeros(A.shape)
    D[1:, :] = A[:-1, :]
    return (D - np.roll(A, 1, axis=1)) % f.p


def _triple_from_dense(f, A):
    """(G, H, last row) describing a dense A in the solver's input format."""
    B, C = _column_decompose(f, _shift_displacement(f, A))
    return B, f.arr(C.T), A[-1].copy()


def _unpivoted_ell(f, A):
    """Size of the largest leading principal block that eliminates without
    row exchanges — the quantity largest_rec must reproduce."""
    q = min(A.shape)
    W = np.asarray(A, dtype=object).copy() % f.p
    for k in range(q):
        if int(W[k, k]) % f.p == 0:
            return k
        piv = f.inv(int(W[k, k]))
        for i in range(k + 1, q):
            fac = (W[i, k] * piv) % f.p
            W[i, k:q] = (W[i, k:q] - fac * W[k, k:q]) % f.p
    return q


# ---------------------------------------------------------------------------
# the compressed format itself


def test_densify_and_entry_extraction(any_field):
    f = any_field
    rng = np.random.default_rng(101)
    for _ in range(12):
        m = int(rng.integers(1, 13))
        n = int(rng.integers(1, 13))
        A = f.arr(rng.integers(0, f.p, (m, n)))
        G, H, u = _triple_from_dense(f, A)
        assert np.array_equal(densify_from_last_row(f, G, H, u), A)
        # rows and columns are read off the triple's generator (_triple)
        t = _triple(f, G, H, u)
        for i, e in enumerate(f.arr(np.eye(m, dtype=np.int64))):
            assert np.array_equal(gen_matvec(gen_transpose(t), e), A[i])
        for j, e in enumerate(f.arr(np.eye(n, dtype=np.int64))):
            assert np.array_equal(gen_matvec(t, e), A[:, j])


def test_triple_is_a_generator_under_the_invertible_shift(any_field):
    # _triple reads (G, H, u) as ([G | e₀], [H | u]) under
    # ∇_{Z_{m,1}, Z_{n,0}ᵗ}; compressed, its width is that operator's
    # displacement rank of A, which is 0 exactly when A = 0: lp_inv's rank
    # certificate
    f = any_field
    rng = np.random.default_rng(107)
    shapes = [(1, 1), (1, 6), (6, 1), (5, 5), (4, 9), (9, 4)]
    zero_widths = 0
    for (m, n), fill in itertools.product(shapes, ("zero", "rank1", "random")):
        if fill == "zero":
            A = f.zeros((m, n))
        elif fill == "rank1":
            A = f.mat_mul(f.arr(rng.integers(0, f.p, (m, 1))),
                          f.arr(rng.integers(0, f.p, (1, n))))
        else:
            A = f.arr(rng.integers(0, f.p, (m, n)))
        G, H, u = _triple_from_dense(f, A)
        t = _triple(f, G, H, u)
        assert t.operator is shift_operator(f, m, 1, n, 0)
        assert np.array_equal(densify(t), A)
        width = gen_compress(t).alpha
        assert width == dense_rank(f, dense_apply_operator(t.operator, A))
        assert (width == 0) == (not np.any(A))
        zero_widths += width == 0
    assert zero_widths >= len(shapes)


def test_bordered_block_generators(any_field):
    f = any_field
    rng = np.random.default_rng(103)
    for _ in range(8):
        m = int(rng.integers(3, 12))
        n = int(rng.integers(3, 12))
        A = f.arr(rng.integers(0, f.p, (m, n)))
        G, H, u = _triple_from_dense(f, A)
        split = int(rng.integers(1, min(m, n)))
        row_l, col_l = A[split - 1].copy(), A[:, split - 1].copy()
        rows = int(rng.integers(1, m - split + 1))
        g21 = _gen_block_21(f, G, H, split, rows, row_l, col_l)
        assert np.array_equal(reconstruct_dense(g21), A[split : split + rows, :split])
        cols = int(rng.integers(1, n - split + 1))
        g12 = _gen_block_12(f, G, H, split, cols, row_l, col_l)
        assert np.array_equal(reconstruct_dense(g12), A[:split, split : split + cols])
        # the Schur step compresses the full blocks once and reads every
        # later block off them: the leading k rows of A₂₁'s compressed G
        # (k columns of A₁₂'s compressed H) generate the leading block
        a21 = gen_compress(_gen_block_21(f, G, H, split, m - split, row_l, col_l))
        a12 = gen_compress(_gen_block_12(f, G, H, split, n - split, row_l, col_l))
        for k in range(1, m - split + 1):
            lead = Generator(a21.G[:k], a21.H, shift_operator(f, k, 0, split, 1))
            assert np.array_equal(reconstruct_dense(lead), A[split : split + k, :split])
        for k in range(1, n - split + 1):
            lead = Generator(a12.G, a12.H[:k], shift_operator(f, split, 1, k, 0))
            assert np.array_equal(reconstruct_dense(lead), A[:split, split : split + k])


# ---------------------------------------------------------------------------
# regular leading blocks


def _schur_down_to_2alpha(mp):
    """Recurse down to min(m, n) < 2α, below the dense crossover, and count
    the calls largest_rec makes to itself (lp_inv's call counts too)."""
    mp.setattr(structsolve, "DENSE_PER_WIDTH", 2)
    mp.setattr(structsolve, "DENSE_PER_WIDTH_OBJECT", 2)
    calls = []
    real = structsolve.largest_rec
    mp.setattr(structsolve, "largest_rec", lambda *a: calls.append(1) or real(*a))
    return calls


def test_largest_rec_on_identity(f, monkeypatch):
    calls = _schur_down_to_2alpha(monkeypatch)
    for m in (1, 2, 3, 5, 8):
        A = f.arr(np.eye(m, dtype=int))
        G, H, u = _triple_from_dense(f, A)
        calls.clear()
        ell, Y, Z, v = largest_rec(f, G, H, u)
        assert bool(calls) == (m >= 2 * G.shape[1] > 0)
        assert ell == m
        assert np.array_equal(Y, (f.p - G) % f.p)
        assert np.array_equal(Z, H)
        e1 = f.zeros(m)
        e1[0] = 1
        assert np.array_equal(v, e1)


def test_largest_rec_frozen_small_cases(f):
    G, H, u = _triple_from_dense(f, f.arr([[1, 0], [0, 0]]))
    ell, *_ = largest_rec(f, G, H, u)
    assert ell == 1
    res = lp_inv(f, G, H, u)
    assert res.ok and res.r == 1

    # nonzero rank but a zero leading entry: no regular leading block at all
    G, H, u = _triple_from_dense(f, f.arr([[0, 1], [1, 0]]))
    ell, *_ = largest_rec(f, G, H, u)
    assert ell == 0
    assert lp_inv(f, G, H, u).status == FAILURE


@pytest.mark.parametrize("rows, ell", [
    ([[0, 1], [1, 0]], 0),                    # the first pivot needs a swap
    ([[0, 0], [0, 1]], 0),                    # the first column has no pivot
    ([[1, 0, 0], [0, 0, 1], [0, 1, 0]], 1),   # a swap at the second step
    ([[1, 2], [2, 4]], 1),                    # the second column has no pivot
    ([[2, 1], [1, 3]], 2),
])
def test_base_case_stops_at_the_first_swap(any_field, rows, ell):
    f = any_field
    A = f.arr(rows)
    G, H, u = _triple_from_dense(f, A)
    got, Y, Z, v = _base_case(f, G, H, u)
    assert got == ell == _unpivoted_ell(f, A)
    if ell:
        Ai = dense_inv(f, A[:ell, :ell])
        assert np.array_equal(Y, (f.p - dense_mul(f, Ai, G[:ell])) % f.p)
        assert np.array_equal(v, Ai[0])


def test_largest_rec_matches_dense_elimination(any_field):
    f = any_field
    rng = np.random.default_rng(107)
    for _ in range(25):
        m = int(rng.integers(1, 18))
        n = int(rng.integers(1, 18))
        A = f.arr(rng.integers(0, f.p, (m, n)))
        G, H, u = _triple_from_dense(f, A)
        ell, Y, Z, v = largest_rec(f, G, H, u)
        assert ell == _unpivoted_ell(f, A)
        if ell:
            Ai = dense_inv(f, A[:ell, :ell])
            assert np.array_equal(Y, (f.p - dense_mul(f, Ai, G[:ell])) % f.p)
            assert np.array_equal(Z, dense_mul(f, Ai.T.copy(), H[:ell]))
            assert np.array_equal(v, Ai[0])


def _toeplitz_like(f, rng, m, n, alpha):
    G = f.arr(rng.integers(0, f.p, (m, alpha)))
    H = f.arr(rng.integers(0, f.p, (n, alpha)))
    return reconstruct_dense(Generator(G, H, hankel_operator(f, m, n)))


def _toeplitz(f, rng, m, n):
    t = f.arr(rng.integers(0, f.p, m + n - 1))
    return t[np.subtract.outer(np.arange(m), np.arange(n)) + n - 1]


def _zero_pivot(f, A, k):
    """A with A[k, k] moved so that the k-th pivot of elimination without
    row exchanges is zero: the pivot is A[k, k] − A[k, :k]·A_k⁻¹·A[:k, k]."""
    A = A.copy()
    lead = dense_mul(f, dense_mul(f, A[k:k + 1, :k], dense_inv(f, A[:k, :k])),
                     A[:k, k:k + 1])
    A[k, k] = int(lead[0, 0]) % f.p
    return A


def test_largest_rec_recurses_at_any_shape(f, monkeypatch):
    # low displacement rank, so min(m, n) >= 2α and the Schur-complement
    # recursion runs (a dense random A only ever reaches the base case), at
    # square, tall and wide shapes that are not powers of two
    rng = np.random.default_rng(109)
    calls = _schur_down_to_2alpha(monkeypatch)
    sizes = [s for s in range(17, 41) if s & (s - 1)]
    short = certified_deficient = 0
    for trial in range(12):
        q, k = sorted(int(x) for x in rng.choice(sizes, 2, replace=False))
        m, n = [(k, k), (k, q), (q, k)][trial % 3]
        if trial % 4 == 1:  # rank r < min(m, n) through an inner dimension r;
            # Zᵗ·T − T·Zᵗ has rank <= 2 for a Toeplitz T, so the product
            # keeps a low shift-displacement rank
            r = min(m, n) - int(rng.integers(1, 6))
            A = dense_mul(f, _toeplitz_like(f, rng, m, r, 2), _toeplitz(f, rng, r, n))
        elif trial % 4 == 3:  # a zero pivot inside: ℓ < rank
            A = _zero_pivot(f, _toeplitz_like(f, rng, m, n, 2),
                            int(rng.integers(1, min(m, n))))
        else:
            A = _toeplitz_like(f, rng, m, n, int(rng.integers(1, 4)))
        G, H, u = _triple_from_dense(f, A)
        assert 2 * G.shape[1] <= min(m, n)
        calls.clear()
        ell, Y, Z, v = largest_rec(f, G, H, u)
        assert calls
        assert ell == _unpivoted_ell(f, A)
        if ell:
            Ai = dense_inv(f, A[:ell, :ell])
            assert np.array_equal(Y, (f.p - dense_mul(f, Ai, G[:ell])) % f.p)
            assert np.array_equal(Z, dense_mul(f, Ai.T.copy(), H[:ell]))
            assert np.array_equal(v, Ai[0])
        res = lp_inv(f, G, H, u)
        true_rank = dense_rank(f, A)
        if res.ok:
            assert res.r == ell == true_rank
            assert np.array_equal(res.Y, Y) and np.array_equal(res.v, v)
            certified_deficient += true_rank < min(m, n)
        else:
            assert res.status == FAILURE
            assert ell < true_rank
        short += ell < min(m, n)
    assert short >= 5 and certified_deficient >= 2


def test_largest_full_width_corner(f):
    # m = n = alpha = 3, not a power of two: the generator is as wide as the
    # matrix, with last columns of G that do and do not lie in the span of
    # the others.  These random triples need not keep the triple contract in
    # row 0.  Only the dense base case runs here, and it reads the triple as
    # the generator ([G | e₀], [H | u]) under ∇_{Z_{m,1}, Z_{n,0}ᵗ}
    # (_triple), so A is that generator's matrix, as densify_from_last_row
    # gives it; its last row is u only where the contract holds.
    rng = np.random.default_rng(113)
    for trial in range(40):
        m = 3
        G = f.arr(rng.integers(0, f.p, (m, m)))
        if trial % 2:
            G[:, m - 1] = G[:, 0]
        H = f.arr(rng.integers(0, f.p, (m, m)))
        u = f.arr(rng.integers(0, f.p, m))
        A = densify_from_last_row(f, G, H, u)
        ell, Y, Z, v = largest_rec(f, G, H, u)
        assert ell == _unpivoted_ell(f, A)
        if ell:
            Ai = dense_inv(f, A[:ell, :ell])
            assert np.array_equal(Y, (f.p - dense_mul(f, Ai, G[:ell])) % f.p)
            assert np.array_equal(v, Ai[0])


def test_lp_inv_accepts_generators_wider_than_the_matrix(any_field):
    # dependent columns widen the triple past min(m, n) without changing A
    f = any_field
    rng = np.random.default_rng(131)
    widened = 0
    for _ in range(12):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(2, 10))
        A = f.arr(rng.integers(0, f.p, (m, n)))
        G, H, u = _triple_from_dense(f, A)
        extra = min(m, n) + 2 - G.shape[1]
        mix = f.arr(rng.integers(0, f.p, (G.shape[1], extra)))
        Gw = np.concatenate([G, f.mat_mul(G, mix)], axis=1)
        Hw = np.concatenate([H, f.zeros((n, extra))], axis=1)
        assert Gw.shape[1] > min(m, n)
        assert np.array_equal(densify_from_last_row(f, Gw, Hw, u), A)
        res = lp_inv(f, Gw, Hw, u)
        narrow = lp_inv(f, G, H, u)
        assert (res.status, res.r) == (narrow.status, narrow.r)
        if not res.ok:
            continue
        ell = res.r
        assert ell == _unpivoted_ell(f, A)
        if ell:
            Ai = dense_inv(f, A[:ell, :ell])
            assert np.array_equal(res.Y, (f.p - dense_mul(f, Ai, Gw[:ell])) % f.p)
            assert np.array_equal(res.Z, dense_mul(f, Ai.T.copy(), Hw[:ell]))
            assert np.array_equal(res.v, Ai[0])
        widened += 1
    assert widened >= 4


def test_lp_inv_certifies_rank(f):
    rng = np.random.default_rng(127)
    checked = 0
    for _ in range(40):
        m = int(rng.integers(1, 14))
        n = int(rng.integers(1, 14))
        A = f.arr(rng.integers(0, f.p, (m, n)))
        G, H, u = _triple_from_dense(f, A)
        if G.shape[1] > min(m, n):
            continue
        res = lp_inv(f, G, H, u)
        true_rank = dense_rank(f, A)
        true_ell = _unpivoted_ell(f, A)
        if res.ok:
            # ok is a certificate: the reported r is the actual rank
            assert res.r == true_ell == true_rank
        else:
            assert res.status == FAILURE
            assert true_ell < true_rank  # only non-generic profiles may fail
        checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# preconditioning


def test_preconditioner_requires_unit_head(f):
    with pytest.raises(PreconditionViolated):
        TriangularToeplitzPreconditioner(f, f.arr([2, 1, 1]))
    with pytest.raises(PreconditionViolated):
        TriangularToeplitzPreconditioner(f, f.zeros(0))


def test_preconditioner_matches_dense_toeplitz(f):
    # vectors and blocks of 1, 3 and 0 columns, over an int64 and the
    # object-dtype field; at m = 300 a block takes the transform
    rng = np.random.default_rng(131)
    for fld, m in itertools.product((f, get_field(BENCH_PRIME)), (7, 1, 300)):
        v = fld.arr(np.concatenate([[1], rng.integers(0, fld.p, m - 1)]))
        U = fld.zeros((m, m))
        for j in range(m):
            U[j:, j] = v[: m - j]
        u = TriangularToeplitzPreconditioner(fld, v)
        x = fld.arr(rng.integers(0, fld.p, m))
        assert np.array_equal(u.apply(x), fld.mat_mul(U, x.reshape(-1, 1)).ravel())
        assert np.array_equal(
            u.apply_transpose(x), fld.mat_mul(U.T, x.reshape(-1, 1)).ravel()
        )
        for k in (1, 3, 0):
            X = fld.arr(rng.integers(0, fld.p, (m, k)))
            assert u.apply(X).shape == u.apply_transpose(X).shape == (m, k)
            assert np.array_equal(u.apply(X), fld.mat_mul(U, X))
            assert np.array_equal(u.apply_transpose(X), fld.mat_mul(U.T, X))


def test_precond_conjugates_and_widens(any_field):
    f = any_field
    rng = np.random.default_rng(137)
    for _ in range(8):
        m = int(rng.integers(1, 11))
        n = int(rng.integers(1, 11))
        alpha = int(rng.integers(0, 4))
        G = f.arr(rng.integers(0, f.p, (m, alpha)))
        H = f.arr(rng.integers(0, f.p, (n, alpha)))
        A = reconstruct_dense(Generator(G, H, hankel_operator(f, m, n)))
        v1 = f.arr(np.concatenate([[1], rng.integers(0, f.p, m - 1)]))
        v2 = f.arr(np.concatenate([[1], rng.integers(0, f.p, n - 1)]))
        U1 = f.zeros((m, m))
        for j in range(m):
            U1[j:, j] = v1[: m - j]
        U2 = f.zeros((n, n))
        for j in range(n):
            U2[j:, j] = v2[: n - j]
        At = dense_mul(f, dense_mul(f, f.arr(U1.T.copy()), A), U2)
        Gt, Ht, ut = precond(f, G, H, TriangularToeplitzPreconditioner(f, v1),
                             TriangularToeplitzPreconditioner(f, v2))
        assert Gt.shape[1] == alpha + 4 and Ht.shape[1] == alpha + 4
        assert np.array_equal(
            dense_mul(f, Gt, f.arr(Ht.T.copy())), _shift_displacement(f, At)
        )
        assert np.array_equal(ut, At[-1])


def test_precond_with_unit_vectors_is_identity(f):
    rng = np.random.default_rng(139)
    m, n, alpha = 6, 5, 2
    G = f.arr(rng.integers(0, f.p, (m, alpha)))
    H = f.arr(rng.integers(0, f.p, (n, alpha)))
    A = reconstruct_dense(Generator(G, H, hankel_operator(f, m, n)))
    e1m, e1n = f.zeros(m), f.zeros(n)
    e1m[0] = e1n[0] = 1
    Gt, Ht, ut = precond(f, G, H, TriangularToeplitzPreconditioner(f, e1m),
                         TriangularToeplitzPreconditioner(f, e1n))
    assert np.array_equal(Gt[:, :alpha], G)
    assert np.array_equal(ut, A[-1])
    assert np.array_equal(
        dense_mul(f, Gt, f.arr(Ht.T.copy())), _shift_displacement(f, A)
    )


# ---------------------------------------------------------------------------
# inversion on the shift format
#
# The shift format is reached through the entry points on hankel_operator.
# Every test of an entry point runs twice (conftest.both_routes): at the
# default crossover, where these sizes are solved densely, and with the
# structured route forced, where every call with min(m, n) >= α + 6
# must run the Las Vegas search (conftest.expected_route).


def test_inv_random_instances(f, monkeypatch):
    for forced in both_routes(monkeypatch):
        rng = np.random.default_rng(149)
        failures = runs = 0
        for trial in range(30):
            m = int(rng.integers(1, 24))
            alpha = int(rng.integers(1, min(m, 4) + 1))
            G = f.arr(rng.integers(0, f.p, (m, alpha)))
            H = f.arr(rng.integers(0, f.p, (m, alpha)))
            gen = Generator(G, H, hankel_operator(f, m, m))
            A = reconstruct_dense(gen)
            try:
                expected = dense_inv(f, A)
            except Singular:
                expected = None
            res = inv_generator(gen, rng_seed=trial)
            assert res.route == expected_route(forced, m, alpha)
            runs += 1
            if res.status == FAILURE:
                failures += 1
                continue
            if expected is None:
                assert res.status == SINGULAR
            else:
                assert res.ok
                assert np.array_equal(reconstruct_dense(res.generator), expected)
                assert res.generator.alpha <= alpha + 2
        assert failures <= runs * 0.4


def test_inv_detects_planted_singular(f, monkeypatch):
    for forced in both_routes(monkeypatch):
        rng = np.random.default_rng(151)
        singular_calls = 0
        for trial in range(20):
            m = int(rng.integers(2, 18))
            if trial % 2 == 0:
                a = f.arr(rng.integers(0, f.p, m)).reshape(-1, 1)
                b = f.arr(rng.integers(0, f.p, m)).reshape(1, -1)
                A = dense_mul(f, a, b)
            else:  # strictly lower-triangular Toeplitz: nilpotent; its width
                # under hankel_operator is m − 1, so both runs take it dense
                A = f.zeros((m, m))
                c = f.arr(rng.integers(0, f.p, m - 1))
                for k in range(1, m):
                    for i in range(k, m):
                        A[i, i - k] = c[k - 1]
            B, C = _column_decompose(f, _cyclic_displacement(f, A))
            gen = Generator(B, f.arr(C.T), hankel_operator(f, m, m))
            assert np.array_equal(reconstruct_dense(gen), A)
            res = inv_generator(gen, rng_seed=trial)
            assert res.route == expected_route(forced, m, gen.alpha)
            assert res.status in (SINGULAR, FAILURE)
            if res.status == SINGULAR:
                singular_calls += 1
        assert singular_calls >= (14 if forced else 20)


def test_inv_detects_planted_singular_hankel(f, monkeypatch):
    """J·T for a strictly lower-triangular Toeplitz T is a singular Hankel
    matrix of width 2 under hankel_operator, so the forced run takes it
    through the Las Vegas route."""
    for forced in both_routes(monkeypatch):
        rng = np.random.default_rng(157)
        singular_calls = 0
        for trial in range(12):
            m = int(rng.integers(8, 30))
            c = f.arr(rng.integers(0, f.p, m - 1))
            A = f.zeros((m, m))
            for k in range(1, m):
                for i in range(k, m):
                    A[m - 1 - i, i - k] = c[k - 1]
            B, C = _column_decompose(f, _cyclic_displacement(f, A))
            gen = Generator(B, f.arr(C.T), hankel_operator(f, m, m))
            assert gen.alpha <= 2
            assert np.array_equal(reconstruct_dense(gen), A)
            res = inv_generator(gen, rng_seed=trial)
            assert res.route == expected_route(forced, m, gen.alpha)
            assert res.status in (SINGULAR, FAILURE)
            if res.status == SINGULAR:
                singular_calls += 1
        assert singular_calls >= (10 if forced else 12)


def test_inv_rejects_bad_shapes(f):
    # a non-square shift format is refused; a generator longer than m is
    # accepted and goes dense (here A = 0, so singular)
    wide = Generator(f.zeros((3, 1)), f.zeros((4, 1)), hankel_operator(f, 3, 4))
    with pytest.raises(DimensionMismatch):
        inv_generator(wide)
    res = inv_generator(Generator(f.zeros((2, 3)), f.zeros((2, 3)), hankel_operator(f, 2, 2)))
    assert (res.status, res.route) == (SINGULAR, DENSE)


def test_solve_rejects_bad_shapes(f, monkeypatch):
    # the shapes are checked before the route is chosen, so both routes
    # raise the same errors
    rng = np.random.default_rng(153)
    op = rand_operator(f, rng, 4, 3)
    gen = rand_generator(f, rng, op, 2)
    shift = Generator(f.zeros((3, 1)), f.zeros((4, 1)), hankel_operator(f, 3, 4))
    for forced in both_routes(monkeypatch):
        with pytest.raises(DimensionMismatch):
            solve_generator(shift, f.zeros(2))
        with pytest.raises(DimensionMismatch):
            solve_generator(gen, f.zeros(3))
        with pytest.raises(DimensionMismatch):
            inv_generator(gen)


def test_solve_and_matvec_refuse_non_vector_shapes(f, monkeypatch):
    # a right-hand side must have shape (m,) and a vector shape (n,): a
    # column (m, 1), a block (m, 2), a row or a scalar is refused with its
    # shape named, on both routes, where the route used to decide what
    # happened to it
    rng = np.random.default_rng(154)
    op = rand_operator(f, rng, 12, 12)
    gen = rand_generator(f, rng, op, 2)
    x = f.arr(rng.integers(0, f.p, 12))
    for forced in both_routes(monkeypatch):
        for shape in ((12, 1), (12, 2), (1, 12), ()):
            with pytest.raises(DimensionMismatch, match=re.escape(f"shape {shape}")):
                solve_generator(gen, f.zeros(shape))
            with pytest.raises(DimensionMismatch, match=re.escape(f"shape {shape}")):
                gen_matvec(gen, f.zeros(shape))
        res = solve_generator(gen, gen_matvec(gen, x))
        assert res.route == expected_route(forced, 12, 2)
        assert np.array_equal(gen_matvec(gen, res.x), gen_matvec(gen, x))


# ---------------------------------------------------------------------------
# solving on the shift format


# After the drawn sizes, the solve tests run a few small and very
# rectangular shapes, min(m, n) <= 5: dense on both routes.
SMALL_TALL = ((12, 1), (9, 2), (7, 5))
SMALL_WIDE = ((1, 12), (2, 9), (5, 7))
SMALL_SHAPES = SMALL_TALL + SMALL_WIDE + ((1, 1), (3, 3))


def test_solve_consistent_systems(f, monkeypatch):
    for forced in both_routes(monkeypatch):
        rng = np.random.default_rng(157)
        failures = 0
        for trial in range(15 + len(SMALL_SHAPES)):
            if trial < 15:
                m, n = int(rng.integers(8, 18)), int(rng.integers(8, 18))
            else:
                m, n = SMALL_SHAPES[trial - 15]
            alpha = int(rng.integers(1, min(m, n, 4) + 1))
            G = f.arr(rng.integers(0, f.p, (m, alpha)))
            H = f.arr(rng.integers(0, f.p, (n, alpha)))
            gen = Generator(G, H, hankel_operator(f, m, n))
            A = reconstruct_dense(gen)
            x0 = f.arr(rng.integers(0, f.p, n))
            b = f.mat_mul(A, x0.reshape(-1, 1)).ravel()
            res = solve_generator(gen, b, rng_seed=trial)
            assert res.route == expected_route(forced, min(m, n), alpha)
            if res.status == FAILURE:
                failures += 1
                continue
            assert res.ok
            assert np.array_equal(f.mat_mul(A, res.x.reshape(-1, 1)).ravel(), b)
        assert failures <= 5


def test_solve_homogeneous_finds_kernel_vectors(f, monkeypatch):
    for forced in both_routes(monkeypatch):
        rng = np.random.default_rng(163)
        failures = 0
        for trial in range(15 + len(SMALL_SHAPES)):
            if trial < 15:
                m, n = int(rng.integers(10, 16)), int(rng.integers(10, 16))
            else:
                m, n = SMALL_SHAPES[trial - 15]
            alpha = int(rng.integers(1, min(m, n, 3) + 1))
            G = f.arr(rng.integers(0, f.p, (m, alpha)))
            H = f.arr(rng.integers(0, f.p, (n, alpha)))
            gen = Generator(G, H, hankel_operator(f, m, n))
            A = reconstruct_dense(gen)
            res = solve_generator(gen, f.zeros(m), rng_seed=trial)
            assert res.route == expected_route(forced, min(m, n), alpha)
            if res.status == FAILURE:
                failures += 1
                continue
            assert res.ok
            assert not np.any(f.mat_mul(A, res.x.reshape(-1, 1)))
            if dense_rank(f, A) < n:
                assert np.any(res.x)  # a singular A must yield a nonzero witness
        assert failures <= 5


def test_solve_flags_inconsistent_systems(f, monkeypatch):
    for forced in both_routes(monkeypatch):
        rng = np.random.default_rng(167)
        failures = no_solution = 0
        for trial in range(20 + len(SMALL_TALL)):
            if trial < 20:
                m = int(rng.integers(12, 18))
                n = int(rng.integers(10, m))  # tall systems are usually inconsistent
            else:
                m, n = SMALL_TALL[trial - 20]
            alpha = int(rng.integers(1, min(m, n, 3) + 1))
            G = f.arr(rng.integers(0, f.p, (m, alpha)))
            H = f.arr(rng.integers(0, f.p, (n, alpha)))
            gen = Generator(G, H, hankel_operator(f, m, n))
            A = reconstruct_dense(gen)
            b = f.arr(rng.integers(0, f.p, m))
            res = solve_generator(gen, b, rng_seed=trial)
            assert res.route == expected_route(forced, min(m, n), alpha)
            if res.status == FAILURE:
                failures += 1
                continue
            expected = dense_solve(f, A, b)
            if res.ok:
                assert expected is not None
                assert np.array_equal(f.mat_mul(A, res.x.reshape(-1, 1)).ravel(), b)
            else:
                assert res.status == NO_SOLUTION
                assert expected is None
                no_solution += 1
        assert failures <= 6
        assert no_solution > 5


# ---------------------------------------------------------------------------
# routing from arbitrary operators


def test_inv_generator_any_operator(f, monkeypatch):
    for forced in both_routes(monkeypatch):
        rng = np.random.default_rng(173)
        inversions = failures = 0
        for trial in range(24):
            m = int(rng.integers(2, 41))
            op = rand_operator(f, rng, m, m)
            gen = rand_generator(f, rng, op, int(rng.integers(1, 4)))
            A = reconstruct_dense(gen)
            try:
                expected = dense_inv(f, A)
            except Singular:
                expected = None
            res = inv_generator(gen, rng_seed=trial)
            assert res.route == expected_route(forced, m, gen.alpha)
            if res.status == FAILURE:
                failures += 1
                continue
            if expected is None:
                assert res.status == SINGULAR
                continue
            assert res.ok
            assert np.array_equal(reconstruct_dense(res.generator), expected)
            # the inverse lives under the swapped operator
            assert res.generator.operator.fam_p is op.fam_q
            assert res.generator.operator.fam_q is op.fam_p
            inversions += 1
            # and it is immediately usable for products
            r = f.arr(rng.integers(0, f.p, m))
            assert np.array_equal(
                gen_matvec(res.generator, gen_matvec(gen, r)), r
            )
        assert inversions >= 10
        assert failures <= 10


def test_inv_generator_shares_the_inverse_operator(f, monkeypatch):
    # the inverse's operator is a value of the input operator: repeated
    # inversions hand back one object, whose inverse table is built once;
    # and the generator is the canonical one, the same arrays for any seed
    for forced in both_routes(monkeypatch):
        rng = np.random.default_rng(177)
        for kind in (operators.SYLVESTER, operators.STEIN):
            for tp in (False, True):
                for tq in (False, True):
                    for _ in range(20):
                        op = rand_operator(f, rng, 10, 10, kind=kind)
                        op = operators.DisplacementOperator(kind, op.fam_p, op.fam_q, tp, tq)
                        gen = rand_generator(f, rng, op, 2)
                        first = inv_generator(gen, rng_seed=1)
                        if first.ok:
                            break
                    assert first.ok
                    second = inv_generator(gen, rng_seed=2)
                    assert second.ok
                    assert first.route == second.route == expected_route(forced, 10, 2)
                    assert first.generator.operator is second.generator.operator
                    assert first.generator.operator is operators.inverse_operator(op)
                    assert np.array_equal(first.Y, second.Y)
                    assert np.array_equal(first.Z, second.Z)


def test_solve_generator_any_operator(f, monkeypatch):
    for forced in both_routes(monkeypatch):
        rng = np.random.default_rng(179)
        solved = failures = 0
        for trial in range(24):
            m = int(rng.integers(2, 41))
            op = rand_operator(f, rng, m, m)
            gen = rand_generator(f, rng, op, int(rng.integers(1, 4)))
            A = reconstruct_dense(gen)
            if dense_rank(f, A) < m:
                continue
            x0 = f.arr(rng.integers(0, f.p, m))
            b = f.mat_mul(A, x0.reshape(-1, 1)).ravel()
            res = solve_generator(gen, b, rng_seed=trial)
            assert res.route == expected_route(forced, m, gen.alpha)
            if res.status == FAILURE:
                failures += 1
                continue
            assert res.ok
            assert np.array_equal(res.x, x0)
            solved += 1
        assert solved >= 8
        assert failures <= 8


def test_repeated_solve_builds_no_binomial_table(f, monkeypatch):
    # the shift operators of the recursion are shared values: a second
    # solve over the same Toeplitz-like generator reuses every inverse
    # table; the structured route is forced, so the recursion runs
    rng = np.random.default_rng(183)
    m = 64
    gen = Generator(f.arr(rng.integers(0, f.p, (m, 2))), f.arr(rng.integers(0, f.p, (m, 2))),
                    hankel_operator(f, m, m))
    b = f.arr(rng.integers(0, f.p, m))
    calls = _schur_down_to_2alpha(monkeypatch)
    first = solve_generator(gen, b, rng_seed=1)
    assert first.route == STRUCTURED and len(calls) > 1
    tables = []
    real = operators._binomial_case
    monkeypatch.setattr(operators, "_binomial_case",
                        lambda *args: tables.append(args) or real(*args))
    second = solve_generator(gen, b, rng_seed=1)
    assert tables == [] and second.route == STRUCTURED
    assert first.ok and second.ok and np.array_equal(second.x, first.x)
    assert np.array_equal(gen_matvec(gen, second.x), b)


@pytest.mark.parametrize("p", [2**31 - 1, 2**62 - 57, 2013265921, 2281701377])
def test_solve_generator_matches_oracle_across_primes(p, monkeypatch):
    f = get_field(p)
    for forced in both_routes(monkeypatch):
        rng = np.random.default_rng(181)
        solved = 0
        for trial in range(16):
            m = int(rng.integers(2, 16))
            op = rand_operator(f, rng, m, m)
            gen = rand_generator(f, rng, op, int(rng.integers(1, 3)))
            A = dense_solve_displacement(op, f.mat_mul(gen.G, gen.H.T))
            if dense_rank(f, A) < m:
                continue
            x0 = f.arr(rng.integers(0, 2**62, m))
            res = solve_generator(gen, f.mat_mul(A, x0.reshape(-1, 1)).ravel(), rng_seed=trial)
            assert res.route == expected_route(forced, m, gen.alpha)
            if res.status == FAILURE:
                continue
            assert res.ok and np.array_equal(res.x, x0)
            solved += 1
        assert solved >= 5


@pytest.mark.parametrize("p", [DEFAULT_PRIME, BENCH_PRIME], ids=["default", "p62"])
def test_dense_route_answers_every_status_but_failure(p):
    # below the crossover: a singular A is reported singular, a homogeneous
    # singular system gets a nonzero kernel vector, an inconsistent one gets
    # no_solution, every variant, and failure never appears
    f = get_field(p)
    rng = np.random.default_rng(187)
    m = 9
    for trial in range(16):
        kind = (operators.SYLVESTER, operators.STEIN)[trial % 2]
        op = rand_operator(f, rng, m, m, kind=kind)
        op = operators.DisplacementOperator(kind, op.fam_p, op.fam_q,
                                            bool(trial & 2), bool(trial & 4))
        r = int(rng.integers(1, m - 1))
        A = dense_mul(f, f.arr(rng.integers(0, f.p, (m, r))), f.arr(rng.integers(0, f.p, (r, m))))
        B, C = _column_decompose(f, dense_apply_operator(op, A))
        gen = Generator(B, f.arr(C.T), op)
        assert np.array_equal(reconstruct_dense(gen), A)

        res = inv_generator(gen, rng_seed=trial)
        assert (res.status, res.route) == (SINGULAR, DENSE)
        res = solve_generator(gen, f.zeros(m), rng_seed=trial)
        assert (res.status, res.route) == (OK, DENSE)
        assert np.any(res.x) and not np.any(f.mat_mul(A, res.x.reshape(-1, 1)))
        while True:
            b = f.arr(rng.integers(0, f.p, m))
            if dense_solve(f, A, b) is None:
                break
        res = solve_generator(gen, b, rng_seed=trial)
        assert (res.status, res.route, res.x) == (NO_SOLUTION, DENSE, None)
        b = f.mat_mul(A, f.arr(rng.integers(0, f.p, (m, 1)))).ravel()
        res = solve_generator(gen, b, rng_seed=trial)
        assert (res.status, res.route) == (OK, DENSE)
        assert np.array_equal(f.mat_mul(A, res.x.reshape(-1, 1)).ravel(), b)


def test_dense_inverse_edge_cases(f, monkeypatch):
    # inv_generator below the crossover: a generator longer than m is
    # accepted, α = 0 (A = 0) is singular, a planted singular A is singular
    # in every variant and never failure, the rule reads the generator's α
    # on inv_generator and solve_generator, and a non-square format is
    # refused before anything is densified
    rng = np.random.default_rng(197)
    m = 4
    while True:
        op = rand_operator(f, rng, m, m)
        gen = rand_generator(f, rng, op, m + 2)
        A = reconstruct_dense(gen)
        if dense_rank(f, A) == m:
            break
    res = inv_generator(gen)
    assert (res.status, res.route) == (OK, DENSE)
    assert np.array_equal(reconstruct_dense(res.generator), dense_inv(f, A))
    assert res.generator.alpha == dense_rank(f, dense_apply_operator(op, A)) <= m
    res = inv_generator(rand_generator(f, rng, op, 0))
    assert (res.status, res.route) == (SINGULAR, DENSE)

    m = 8
    for kind, tp, tq in itertools.product((operators.SYLVESTER, operators.STEIN),
                                          (False, True), (False, True)):
        op = rand_operator(f, rng, m, m, kind=kind)
        op = operators.DisplacementOperator(kind, op.fam_p, op.fam_q, tp, tq)
        for r in (1, m - 1):
            A = dense_mul(f, f.arr(rng.integers(0, f.p, (m, r))),
                          f.arr(rng.integers(0, f.p, (r, m))))
            B, C = _column_decompose(f, dense_apply_operator(op, A))
            res = inv_generator(Generator(B, f.arr(C.T), op), rng_seed=r)
            assert (res.status, res.route) == (SINGULAR, DENSE)

    # the rule is checked once, on the widest triple the search receives,
    # α + 6: with the structured route forced, m = α + 5 stays dense and
    # m = α + 6 takes the shift core and the preconditioned search
    cores, searches = [], []
    real_core, real_search = structsolve._shift_core, structsolve._search
    monkeypatch.setattr(structsolve, "_shift_core", lambda g: cores.append(g.m) or real_core(g))
    monkeypatch.setattr(structsolve, "_search",
                        lambda f, G, *a: searches.append(len(G)) or real_search(f, G, *a))
    with monkeypatch.context() as mp:
        force_structured(mp)
        for m, route in ((8, DENSE), (9, STRUCTURED)):
            gen = rand_generator(f, rng, rand_operator(f, rng, m, m), 3)
            assert inv_generator(gen).route == route
            assert solve_generator(gen, f.zeros(m)).route == route
    assert cores == searches == [9, 9]

    densified = []
    real = structsolve.densify
    monkeypatch.setattr(structsolve, "densify", lambda *a: densified.append(1) or real(*a))
    gen = rand_generator(f, rng, rand_operator(f, rng, 5, 4), 2)
    for forced in both_routes(monkeypatch):
        with pytest.raises(DimensionMismatch):
            inv_generator(gen)
    assert densified == []


def test_structured_entry_splits_at_its_first_level(f, monkeypatch):
    # the entry rule and largest_rec's base-case rule are one check on one
    # width, α + 6: at the default constants a 256×256 Toeplitz-like
    # generator with α = 6 (256 < 28·12) is solved and inverted densely,
    # and on both routes no call that reports the structured route hands
    # _base_case a block of its full min(m, n)
    rng = np.random.default_rng(211)
    m = 256
    gen = Generator(f.arr(rng.integers(0, f.p, (m, 6))), f.arr(rng.integers(0, f.p, (m, 6))),
                    hankel_operator(f, m, m))
    assert solve_generator(gen, f.arr(rng.integers(0, f.p, m))).route == DENSE
    assert inv_generator(gen).route == DENSE
    blocks = []
    real = structsolve._base_case
    monkeypatch.setattr(structsolve, "_base_case",
                        lambda f, G, H, u: blocks.append(min(len(G), len(H))) or real(f, G, H, u))
    for forced in both_routes(monkeypatch):
        structured = 0
        for alpha in (1, 2, 4):
            for q in (alpha + 5, alpha + 6, alpha + 7, 2 * alpha + 11, 2 * alpha + 12):
                for m, n in ((q, q), (q, q + 3), (q + 3, q)):
                    gen = rand_generator(f, rng, rand_operator(f, rng, m, n), alpha)
                    b = f.arr(rng.integers(0, f.p, m))
                    calls = [lambda: solve_generator(gen, b)]
                    if m == n:
                        calls.append(lambda: inv_generator(gen))
                    for call in calls:
                        blocks.clear()
                        res = call()
                        assert res.route == expected_route(forced, q, alpha)
                        if res.route == STRUCTURED:
                            structured += 1
                            assert blocks and max(blocks) < q
        assert bool(structured) == forced


def test_zero_core_runs_the_search(any_field, monkeypatch):
    # A = 0 carried by a generator of length 1 (G = 0): above the entry
    # rule its shift core compresses to width 0, and the preconditioned
    # search still reports singular and finds a nonzero kernel vector
    f = any_field
    rng = np.random.default_rng(199)
    force_structured(monkeypatch)
    for op in (hankel_operator(f, 7, 7), rand_operator(f, rng, 8, 8), hankel_operator(f, 7, 9)):
        gen = Generator(f.zeros((op.m, 1)), f.arr(rng.integers(1, f.p, (op.n, 1))), op)
        assert structsolve._shift_core(gen)[1].alpha == 0
        if op.m == op.n:
            res = inv_generator(gen)
            assert (res.status, res.route) == (SINGULAR, STRUCTURED)
        res = solve_generator(gen, f.zeros(op.m))
        assert (res.status, res.route) == (OK, STRUCTURED)
        assert np.any(res.x)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, BENCH_PRIME], ids=["default", "p62"])
def test_dense_crossover_changes_no_result(p, monkeypatch):
    # each variant solved and inverted once through the Schur recursion and
    # once densely at the default crossover: the same arrays, and the
    # oracle's; twice, the second time on a generator with a dependent
    # column, whose inverse has a canonical width below α on both routes
    f = get_field(p)
    rng = np.random.default_rng(191)
    m = 24
    for dependent, kind, tp, tq in itertools.product(
            (False, True), (operators.SYLVESTER, operators.STEIN), (False, True), (False, True)):
        while True:
            op = rand_operator(f, rng, m, m, kind=kind)
            op = operators.DisplacementOperator(kind, op.fam_p, op.fam_q, tp, tq)
            gen = rand_generator(f, rng, op, 2)
            if dependent:
                G = np.hstack([gen.G, (gen.G[:, :1] + 2 * gen.G[:, 1:]) % f.p])
                gen = Generator(G, np.hstack([gen.H, rand_generator(f, rng, op, 1).H]), op)
            A = reconstruct_dense(gen)
            if dense_rank(f, A) == m:
                break
        x0 = f.arr(rng.integers(0, f.p, m))
        b = f.mat_mul(A, x0.reshape(-1, 1)).ravel()
        seed = next(s for s in range(20) if inv_generator(gen, rng_seed=s).ok)
        with monkeypatch.context() as mp:
            calls = _schur_down_to_2alpha(mp)
            xs, gs = solve_generator(gen, b, rng_seed=seed), inv_generator(gen, rng_seed=seed)
            assert calls
        xd, gd = solve_generator(gen, b, rng_seed=seed), inv_generator(gen, rng_seed=seed)
        assert xs.ok and xd.ok and gs.ok and gd.ok
        assert (xs.route, gs.route, xd.route, gd.route) == (STRUCTURED, STRUCTURED,
                                                            DENSE, DENSE)
        assert np.array_equal(xs.x, xd.x) and np.array_equal(xd.x, x0)
        assert np.array_equal(gs.Y, gd.Y) and np.array_equal(gs.Z, gd.Z)
        assert np.array_equal(reconstruct_dense(gd.generator), dense_inv(f, A))
        assert gd.generator.alpha == (2 if dependent else gen.alpha)


def test_small_solve_runs_one_dense_elimination(f, monkeypatch):
    # a 64×64 Toeplitz-like system with α = 6 lies below the crossover:
    # solve_generator densifies A and eliminates [A | b] once, inv_generator
    # eliminates [A | I] and then D′ = L′(A⁻¹) once, and neither runs the
    # shift core, a compression, a preconditioner or the recursion
    rng = np.random.default_rng(193)
    m = 64
    gen = Generator(f.arr(rng.integers(0, f.p, (m, 6))), f.arr(rng.integers(0, f.p, (m, 6))),
                    hankel_operator(f, m, m))
    x0 = f.arr(rng.integers(0, f.p, m))
    b = gen_matvec(gen, x0)
    calls = {}
    for name in ("largest_rec", "precond", "to_hankel", "from_hankel_inverse",
                 "gen_compress", "compress_pair", "product_chain", "lp_inv"):
        real = getattr(structsolve, name)
        monkeypatch.setattr(structsolve, name,
                            lambda *a, _n=name, _r=real: calls.setdefault(_n, []).append(1) or _r(*a))
    reductions = []
    real_reduce = PrimeField.row_reduce
    monkeypatch.setattr(PrimeField, "row_reduce",
                        lambda self, M: reductions.append(M.shape) or real_reduce(self, M))
    res = solve_generator(gen, b, rng_seed=1)
    assert res.ok and res.route == DENSE and np.array_equal(res.x, x0)
    assert calls == {} and reductions == [(m, m + 1)]
    reductions.clear()
    res = inv_generator(gen, rng_seed=1)
    assert res.ok and res.route == DENSE
    assert calls == {} and reductions == [(m, 2 * m), (m, m)]
    assert np.array_equal(gen_matvec(gen, gen_matvec(res.generator, x0)), x0)


def test_result_dataclass_flags(f):
    assert InvResult(OK).ok and not InvResult(FAILURE).ok
    assert InvResult(FAILURE).Y is None and InvResult(FAILURE).Z is None
    assert SolveResult(NO_SOLUTION).x is None
    assert not SolveResult(SINGULAR).ok
