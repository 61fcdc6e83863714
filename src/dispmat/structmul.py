"""Fast multiplication of a structured matrix by a dense block of vectors.

The workhorse is a trilinear product: given alpha polynomials U_k (degree
< m) and V_k, and beta polynomials W_j (degree < n), compute

    R_j = sum_k U_k · (V_k · W_j  mod  x^n)

by splitting the truncation degree in half while doubling the inner
dimension, so the work stays in polynomial-matrix products whose batched
transforms are shared across all index pairs, for any alpha and beta.
mulQ lifts the x^n truncation to an arbitrary monic modulus with the
reversed-quotient trick, and product_chain wires that into the
reconstruction chain: the one route by which the library multiplies an
(m x n) structured matrix by beta vectors, whether through struct_mul,
gen_matvec or densify.  For a general modulus and several columns the chain
takes mulQ only above _DIRECT_PAIRS = 16 pair products (alpha·beta); up to
it the classical sum of every pair product (_mul_direct) ran faster on all
but one shape from n = 64 to 2048 (tools/route_sweep.py, BENCH_20.json).
For several columns and a binomial Q = x^n − c it takes _mul_pieces, which
cuts V and W into pieces of length L ≈ n/alpha: one anti-diagonal of piece
products straddles x^n and takes a round trip per pair, the rest is one
matrix product per point with a stack the generator builds once.  From
n = 256 to 8192 at alpha = beta in {4, 8, 16} that L took 0.27-0.92 of the
time at L = n/2, the former half-length sum (tools/route_sweep.py, BENCH_29.json).
The generator keeps V's pieces and the stack as the right operands of
PrimeField.points_mat_mul (points_operand: float64 limb stacks on int64
fields), so a call splits neither.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .field import PrimeField
from .generators import Generator, to_basic
from .operators import STEIN, SingularOperator, inverse_table, modmul_apply, y_apply_family
from .poly import (
    Moduli,
    comb_family,
    crt_family,
    padded,
    red_family,
    stacked,
    trim,
)
from .polymat import pm_mul

MUL_CUTOFF = 16

# product_chain takes the direct sum for a general Q up to this many pair
# products alpha·beta (or one column), mulQ above it (tools/route_sweep.py,
# BENCH_20.json)
_DIRECT_PAIRS = 16


class PreconditionViolated(ValueError):
    """An input shape constraint (alpha <= n and friends) was broken."""


def _chunked_product(f: PrimeField, U: np.ndarray, M: np.ndarray,
                     m: int, width: int) -> np.ndarray:
    """Uᵗ·M for U of shape (abar, m) and an (abar, cols, bound) polynomial
    matrix M.  Returns (cols, m + bound − 1).

    Splitting the rows of U into width-slices keeps the transform length at
    width + bound when the entries of M are much shorter than the rows; once
    the bounds are comparable the slices only multiply the number of
    transforms, so the full-row product is taken in one round instead."""
    rows = U.shape[0]
    _, cols, bound = M.shape
    nchunks = -(-m // width)
    size_direct = 1 << max(1, (m + bound - 2).bit_length())
    size_chunked = 1 << max(1, (width + bound - 2).bit_length())
    work_direct = (rows + rows * cols + cols) * size_direct * size_direct.bit_length()
    work_chunked = (2 * nchunks * cols + nchunks * cols) * size_chunked * size_chunked.bit_length()
    if size_direct <= f.ntt_capacity() and work_direct < work_chunked:
        return pm_mul(f, U[None], M)[0]
    # the rows cut into width-slices: U_k = sum_t x^{t*width} * uhat[t, k]
    uhat = stacked(f, U, rows, nchunks * width).reshape(rows, nchunks, width).transpose(1, 0, 2)
    out = f.zeros((cols, m + bound - 1))
    P = pm_mul(f, uhat, M)
    seg = P.shape[2]
    for t in range(nchunks):
        lo = t * width
        hi = min(lo + seg, m + bound - 1)
        if lo >= m + bound - 1:
            break
        out[:, lo:hi] = (out[:, lo:hi] + P[t, :, : hi - lo]) % f.p
    return out


def mul_rec(f: PrimeField, U: np.ndarray, V: np.ndarray, W: np.ndarray,
            m: int, nu: int, gamma: int) -> np.ndarray:
    """R_j = sum_k U_k · (sum_c V_{k,c}·W_{j,c}  mod  x^nu).

    U: (abar, m); V: (abar, gamma, nu); W: (bbar, gamma, nu).  nu, gamma,
    abar and bbar must be powers of two with gamma <= min(abar, bbar).
    Splitting nu in half doubles gamma; at gamma = min(abar, bbar) (or
    nu <= MUL_CUTOFF) the product is taken directly.  Returns
    (bbar, m + nu − 1).
    """
    abar, bbar = U.shape[0], W.shape[0]
    for name, val in (("nu", nu), ("gamma", gamma), ("abar", abar), ("bbar", bbar)):
        if val < 1 or val & (val - 1):
            raise PreconditionViolated(f"{name} = {val} is not a power of two")
    if gamma > min(abar, bbar):
        raise PreconditionViolated(f"gamma = {gamma} exceeds min(abar, bbar) = {min(abar, bbar)}")
    if V.shape != (abar, gamma, nu) or W.shape != (bbar, gamma, nu):
        raise PreconditionViolated(
            f"V and W must have shape {(abar, gamma, nu)} and {(bbar, gamma, nu)}, "
            f"got {V.shape} and {W.shape}")

    width = max(1, -(-m // abar))

    if gamma == min(abar, bbar) or nu <= MUL_CUTOFF:
        M = pm_mul(f, V, W.transpose(1, 0, 2), out_bound=nu)
        return _chunked_product(f, U, M, m, width)[:, : m + nu - 1]

    nu2 = nu // 2
    V0, V1 = V[:, :, :nu2], V[:, :, nu2:]
    W0, W1 = W[:, :, :nu2], W[:, :, nu2:]
    M0 = pm_mul(f, V0, W0.transpose(1, 0, 2))
    out = f.zeros((bbar, m + nu - 1))
    full = _chunked_product(f, U, M0, m, width)
    out[:, : full.shape[1]] = full
    Vn = np.concatenate([V0, V1], axis=1)
    Wn = np.concatenate([W1, W0], axis=1)
    rec = mul_rec(f, U, Vn, Wn, m, nu2, 2 * gamma)
    out[:, nu2: nu2 + rec.shape[1]] = (out[:, nu2: nu2 + rec.shape[1]] + rec) % f.p
    return out


def mul_unbalanced(f: PrimeField, U, V, W, m: int, n: int) -> np.ndarray:
    """R_j = sum_k U_k·(V_k·W_j mod x^n) for alpha = len(U) = len(V) and any
    beta = len(W), as a block (beta, m + n − 1); U, V and W are blocks of
    rows or lists of polynomials.  The one entry of mul_rec: it pads alpha,
    beta and n to powers of two, and moves W up by the padding of n, so
    that V_k·x^δW_j mod x^(n+δ) = x^δ·(V_k·W_j mod x^n)."""
    alpha, beta = len(U), len(W)
    if len(V) != alpha:
        raise PreconditionViolated("U and V must have equal length")
    if alpha == 0 or beta == 0:
        return f.zeros((beta, m + n - 1))
    nbar = 1 << (n - 1).bit_length()
    delta = nbar - n
    abar, bbar = 1 << (alpha - 1).bit_length(), 1 << (beta - 1).bit_length()
    Ub = stacked(f, U, abar, m)
    Vb = stacked(f, V, abar, nbar)[:, None]
    Wb = stacked(f, W, bbar, nbar, shift=delta)[:, None]
    R = mul_rec(f, Ub, Vb, Wb, m, nbar, 1)
    return R[:beta, delta: delta + m + n - 1]


def mulQ(f: PrimeField, U, V, W, Q) -> np.ndarray:
    """R_i = sum_k U_k·(V_k·W_i mod Q) for a monic modulus Q of degree n and
    blocks U (alpha, m), V (alpha, ·), W (beta, ·), left unreduced: a block
    (beta, m + n − 1).  V and W are reduced modulo Q first, one array step
    each.

    The remainders are never formed: with T = sum_k U_k·V_k and the
    reversed-quotient product S̃ over x^{n−1},
        R_i = T·W_i − Q·rev(S̃_i).
    At deg Q = 1, or when the prime has no transform of length m + n − 1,
    the sum goes to _mul_direct instead.
    """
    Q = trim(f, Q)
    n = len(Q) - 1
    if n < 1 or int(Q[-1]) != 1:
        raise PreconditionViolated("Q must be monic of degree >= 1")
    U, V, W = f.arr(U), f.arr(V), f.arr(W)
    alpha, beta = len(U), len(W)
    if len(V) != alpha:
        raise PreconditionViolated("U and V must have equal length")
    if alpha > n:
        raise PreconditionViolated(f"alpha = {alpha} exceeds deg Q = {n}")
    if alpha == 0 or beta == 0 or not U.shape[-1]:
        return f.zeros((beta, max(1, U.shape[-1]) + n - 1))
    modulus = Moduli.of(f, Q)
    V, W = modulus.rem(V[:, None, :])[:, 0], modulus.rem(W[:, None, :])[:, 0]
    return _mulQ(f, U, V, W, modulus)


def _mulQ(f: PrimeField, U: np.ndarray, V: np.ndarray, W: np.ndarray,
          modulus: Moduli) -> np.ndarray:
    """mulQ's sum on the stack of its one modulus Q, which keeps the Newton
    series for later calls (product_chain passes its family's levels[-1]),
    for field arrays U (alpha, m), V (alpha, n) and W (beta, n), V and W
    residues modulo Q, 1 <= alpha <= n and m, beta >= 1."""
    Q = modulus.polys[0]
    n, m = len(Q) - 1, U.shape[-1]
    out_len = m + n - 1
    size = 1 << max(1, (out_len - 1).bit_length())
    if n == 1 or size > f.ntt_capacity():
        return _mul_direct(f, U, V, W, modulus)

    Vt = f.conv(V[:, ::-1], modulus.series(n - 1)[0])[:, : n - 1]
    S = mul_unbalanced(f, U[:, ::-1], Vt, W[:, :0:-1], m, n - 1)

    # Both terms of T·W_i − Q·rev(S̃_i) overshoot out_len and the tails
    # cancel exactly, so a wraparound product of size >= out_len is exact.
    # That lets one batched transform round serve every column at half the
    # linear-product length.
    vT = np.sum(f.ntt(padded(f, U, size)) * f.ntt(padded(f, V, size)) % f.p, axis=0) % f.p
    Qm = padded(f, Q, size)
    if len(Q) > size:  # fold the modulus, it can overhang by one slot
        Qm[0] = (Qm[0] + Q[size]) % f.p
    vals = (vT * f.ntt(padded(f, W, size))
            - f.ntt(Qm) * f.ntt(padded(f, S[:, ::-1], size))) % f.p
    return f.ntt(vals, invert=True)[:, :out_len]


def _basic_side(gen: Generator):
    """(basic operator, BasicTransform, gamma = crt_P(G̃), eta = crt_Q(H̃)) of
    a generator on an invertible operator, one row of gamma and eta per
    generator column, kept in the generator's store.  The conjugated
    generator G̃, H̃ of to_basic is not kept: it can be the generator
    itself."""
    def build():
        basic, tf = to_basic(gen)
        op = basic.operator
        gammas, etas = crt_family(op.fam_p, basic.G.T), crt_family(op.fam_q, basic.H.T)
        gammas.setflags(write=False)
        etas.setflags(write=False)
        return op, tf, gammas, etas

    return gen.cached("basic", build)


def _mul_direct(f: PrimeField, U: np.ndarray, V: np.ndarray, W: np.ndarray,
                modulus: Moduli) -> np.ndarray:
    """R_i = sum_k U_k·(V_k·W_i mod Q) for the one modulus Q of modulus and
    blocks U (alpha, ·), V (alpha, ·), W (beta, ·), as a block (beta,
    len U + deg Q − 1): every product V_k·W_i and its reduction in one array
    step each, then one polynomial-matrix product with U.  Cheaper than
    mulQ's transforms up to _DIRECT_PAIRS pair products, free of its
    alpha <= deg Q limit, and the route of mulQ itself where it has no
    transform."""
    T = modulus.rem(f.conv(V, W[:, None, :])[..., None, :])[..., 0, :]
    return pm_mul(f, T, U[:, None, :])[:, 0, :]


def _points(need: int) -> int:
    """The transform length of a product of need coefficients."""
    return 1 << max(0, (need - 1).bit_length())


def _piece_length(n: int, alpha: int, need: int) -> int:
    """The power of two nearest n/alpha, which balances _mul_pieces's round
    trip (∝ alpha·beta·L) against its block product (∝ beta·(n/L + alpha)·
    (m + n)), at most half the transform length of need = m + n − 1."""
    return max(1, min(1 << max(0, round(math.log2(n / alpha))), _points(need) // 2))


def _staggered(X: np.ndarray, L: int) -> np.ndarray:
    """Row r of X (rows, D·L) times x^(rL) modulo x^(DL) − 1."""
    rows, D = len(X), X.shape[-1] // L
    lag = (np.arange(D) - np.arange(rows)[:, None]) % D
    return X.reshape(rows, D, L)[np.arange(rows)[:, None], lag].reshape(rows, -1)


def _overlap_add(f: PrimeField, pieces: np.ndarray, L: int, D: int) -> np.ndarray:
    """sum_j x^(jL)·pieces[:, j] modulo x^(DL) − 1, for rows of at most D
    residue products of pieces of length L, each of 2L − 1 terms or padded:
    the low half of piece j lands in slot j, its high half in slot j + 1
    (slot 0 for j = D − 1).  Each slot sums at most two residues, below 2p."""
    rows, count = pieces.shape[:2]
    high = min(2 * L, pieces.shape[-1]) - L
    out = f.zeros((rows, D, L))
    out[:, :count] = pieces[..., :L]
    out[:, 1:count + 1, :high] += pieces[:, :D - 1, L:L + high]
    if count == D:
        out[:, 0, :high] += pieces[:, D - 1, L:L + high]
    out -= out // f.p * f.p
    return out.reshape(rows, -1)


class _Pieces(NamedTuple):
    """The generator side of _mul_pieces at piece length L, K = ⌈n/L⌉ and
    D = ⌈out_len/L⌉, out_len = m + n − 1, at size ≥ 2L − 1 points, as the
    right operands of points_mat_mul (float64 limb stacks on int64 fields):
    v_rev of the (K, alpha, size) values whose [b, k] is piece K − 1 − b of
    V_k, and stack of the (K + alpha, D, size) values of the pieces of Y_b
    over those of −G_k."""

    L: int
    K: int
    out_len: int
    v_rev: np.ndarray
    stack: np.ndarray


def _pieces_side(f: PrimeField, U: np.ndarray, V: np.ndarray, n: int, c: int,
                 L: int) -> _Pieces:
    """What _mul_pieces takes from U, V, c and L alone, computed once for
    all its right-hand blocks."""
    alpha, m = U.shape
    K, D, Du = -(-n // L), -(-(m + n - 1) // L), -(-m // L)
    size, delta, S = _points(2 * L - 1), K * L - n, D * L
    # aligned to x^n: V_k = sum_a x^(aL − δ)·v_a
    v = f.ntt(padded(f, stacked(f, V, alpha, K * L, delta).reshape(alpha, K, L), size))
    u = f.ntt(padded(f, padded(f, U, Du * L).reshape(alpha, Du, L), size))
    # Z_a = sum_k U_k·v_a mod x^S − 1, from the pieces of U
    z = f.ntt(f.points_mat_mul(u.transpose(1, 0, 2), f.points_operand(v)), invert=True)
    z = _overlap_add(f, z.transpose(1, 0, 2), L, D)
    # row b: sum_a x^(aL − δ)·Z_a over a + b < K, then Y_b with the rest folded
    P = (np.cumsum(_staggered(np.roll(z, -delta, axis=-1), L), axis=0) % f.p)[::-1]
    Y = _staggered((P + c * np.roll(P[0] - P, -n, axis=-1)) % f.p, L)
    G = padded(f, U, S)
    G = (c * G - np.roll(G, n, axis=-1)) % f.p  # −(x^n − c)·U_k mod x^S − 1
    stack = f.ntt(padded(f, np.concatenate([Y, G]).reshape(K + alpha, D, L), size))
    return _Pieces(L, K, m + n - 1, f.points_operand(v[:, ::-1].transpose(1, 0, 2)),
                   f.points_operand(stack))


def _mul_pieces(f: PrimeField, side: _Pieces, W: np.ndarray) -> np.ndarray:
    """R_i = sum_k U_k·(V_k·W_i mod x^n − c) for the blocks U (alpha, m) and
    V (alpha, n) of side = _pieces_side(f, U, V, n, c, L) and W (beta, n),
    as a block (beta, m + n − 1), every transform of length 2L (L a power
    of two).

    Cut into K = ⌈n/L⌉ pieces of length L, W_i = sum_b x^(bL)·w_b and V_k
    = sum_a x^(aL − δ)·v_a, δ = KL − n (V aligned to x^n).  Products v_a·w_b
    with a + b < K − 1 stay below x^n, those with a + b ≥ K lie above it and
    fold by x^n = c, and only M = sum_(a+b=K−1) v_a·w_b, at x^(n−L),
    straddles it.  With x^e(s) = x^(sL − δ) folded once when sL − δ ≥ n,
        V_k·W_i mod (x^n − c) = sum_(a,b) x^e(a+b)·v_a·w_b − (x^n − c)·(M div x^L),
    so with Z_a = sum_k U_k·v_a and Y_b = sum_a x^e(a+b)·Z_a,
        R_i = sum_b w_b·Y_b − sum_k (M_ki div x^L)·(x^n − c)·U_k:
    one matrix product per point of [w | top] by the stack [Y; −G], summed
    modulo x^(DL) − 1, where R_i fits.  Per call: W's pieces forward, M's
    round trip (alpha·beta rows), the output's inverse (beta·D rows) and
    two points_mat_mul calls on the kept operands of side.
    """
    L, K, size = side.L, side.K, _points(2 * side.L - 1)
    w = f.ntt(padded(f, padded(f, W, K * L).reshape(len(W), K, L), size))
    M = f.ntt(f.points_mat_mul(w, side.v_rev), invert=True)
    top = f.ntt(padded(f, M[..., L:2 * L - 1], size))
    out = f.ntt(f.points_mat_mul(np.concatenate([w, top], axis=1), side.stack), invert=True)
    return _overlap_add(f, out, L, out.shape[1])[:, : side.out_len]


def product_chain(gen: Generator, B: np.ndarray) -> np.ndarray:
    """A·B for any generator length; every product in the library runs here.

    With Ã = Y_P^{e1}·A·Y_Q^{e2} on the basic operator, A·B =
    Y_P^{−e1}·Ã·Y_Q^{−e2}·B, and Ã's chain starts with Y_Q blockwise, so
    each side's symmetrizer is applied at most once: Y_Q only when e2 is
    unset, Y_P⁻¹ only when e1 is set.  Right to left: comb_Q on the columns,
    the alpha-term middle product taken modulo Q (reversed coefficients for
    Stein), the reduction to the blocks of P, and the blockwise modular
    products with the inverses of Q.  Every stage takes all beta columns of
    B (and all alpha columns of G and H) as one block.  The middle product
    goes through mulQ above _DIRECT_PAIRS = 16 pair products alpha·beta,
    and through the direct sum up to it, for a single column, for
    alpha > n and for a binomial Q: for several columns and a binomial Q
    the piecewise sum (_mul_pieces), when the prime has its transforms.
    The rule is read off the sweep of tools/route_sweep.py (BENCH_20.json,
    a 2-core Xeon VM): up to 16 pair products the direct sum took
    0.66-0.99 of mulQ's time on every shape from n = 64 to 2048 but
    n = 2048, alpha = 2, beta = 8 (1.08), and from 32 on it lost on most
    shapes at n >= 1024.

    What depends on the generator alone is kept in its store
    (Generator.cached) by the first product that needs it: the basic
    operator, the transform, gamma and eta, and the generator side of the
    piecewise sum ("pieces").  Later products on the generator start from
    there.
    """
    f = gen.field
    beta = B.shape[1]
    if gen.alpha == 0 or beta == 0:
        return f.zeros((gen.m, beta))

    table = inverse_table(gen.operator)
    if table is None:
        raise SingularOperator("operator is not invertible")
    op, tf, gammas, etas = _basic_side(gen)
    fam_p, fam_q = op.fam_p, op.fam_q
    m, n = op.m, op.n
    stein = op.kind == STEIN

    cols = comb_family(fam_q, B.T if tf.e2 else y_apply_family(fam_q, B.T))
    lhs = gammas[:, ::-1] if stein else gammas
    c = fam_q.levels[-1].binomial
    if c is not None and beta > 1 and _points(m + n - 1) <= f.ntt_capacity():
        L = _piece_length(n, gen.alpha, m + n - 1)
        R = _mul_pieces(f, gen.cached("pieces", lambda: _pieces_side(f, lhs, etas, n, c, L)), cols)
    elif beta == 1 or gen.alpha * beta <= _DIRECT_PAIRS or gen.alpha > n or c is not None:
        R = _mul_direct(f, lhs, etas, cols, fam_q.levels[-1])
    else:
        R = _mulQ(f, lhs, etas, cols, fam_q.levels[-1])
    if stein:
        R = R[:, ::-1]
    out = modmul_apply(table, fam_p, red_family(fam_p, R))
    return tf.p_side(out.T, inverse=True)


def struct_mul(gen: Generator, B: np.ndarray) -> np.ndarray:
    """A·B for a structured A given by its generator and a dense n x beta
    block B, sharing the polynomial transforms across all beta columns."""
    B = gen.field.arr(B)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if B.shape[0] != gen.n:
        raise PreconditionViolated(f"B has {B.shape[0]} rows, expected {gen.n}")
    if gen.alpha > gen.n:
        raise PreconditionViolated(
            f"generator length {gen.alpha} exceeds column format {gen.n}")
    return product_chain(gen, B)
