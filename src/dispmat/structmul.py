"""Fast multiplication of a structured matrix by a dense block of vectors.

The workhorse is a balanced trilinear product: given polynomial vectors
U (entries of degree < m), V and W (degree < n), compute

    R_j = sum_k U_k · (V_k · W_j  mod  x^n)

by splitting the truncation degree in half while doubling the inner
dimension, so the work stays in square polynomial-matrix products whose
batched transforms are shared across all index pairs.  mulQ lifts the x^n
truncation to an arbitrary monic modulus with the reversed-quotient trick,
and product_chain wires that into the reconstruction chain: the one route
by which the library multiplies an (m x n) structured matrix by beta
vectors, whether through struct_mul, gen_matvec or reconstruct_dense.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField
from .generators import Generator, to_basic
from .operators import STEIN, SingularOperator, inverse_table, modmul_apply
from .poly import (
    comb_family,
    crt_family,
    padded,
    poly_add,
    poly_mod,
    poly_mul,
    poly_rev,
    red_family,
    series_inv,
    symmetrize_apply,
    trim,
)
from .polymat import pm_mul

MUL_CUTOFF = 16


class PreconditionViolated(ValueError):
    """An input shape constraint (alpha <= n and friends) was broken."""


def _stack(f: PrimeField, polys, rows: int, bound: int, shift: int = 0) -> np.ndarray:
    """rows x bound array whose row i holds polys[i] moved up by shift and
    cut at bound; rows past the last polynomial stay zero."""
    out = f.zeros((rows, bound))
    for i, p in enumerate(polys):
        k = min(len(p), bound - shift)
        out[i, shift: shift + k] = p[:k]
    return out


def _chunked_product(f: PrimeField, U: np.ndarray, M: np.ndarray,
                     m: int, width: int) -> np.ndarray:
    """Uᵗ·M for U of shape (abar, m); M is an abar x abar (or gamma x abar)
    polynomial matrix (rows, cols, bound).  Returns (abar, m + bound − 1).

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
    uhat = _stack(f, U, rows, nchunks * width).reshape(rows, nchunks, width).transpose(1, 0, 2)
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

    U: (abar, m); V, W: (abar, gamma, nu).  nu, gamma, and abar must be
    powers of two with gamma <= abar.  Splitting nu in half doubles gamma;
    at gamma = abar (or nu <= MUL_CUTOFF) the product is taken directly.
    Returns (abar, m + nu − 1).
    """
    abar = U.shape[0]
    for name, val in (("nu", nu), ("gamma", gamma), ("abar", abar)):
        if val < 1 or val & (val - 1):
            raise PreconditionViolated(f"{name} = {val} is not a power of two")
    if gamma > abar:
        raise PreconditionViolated(f"gamma = {gamma} exceeds abar = {abar}")
    if V.shape != (abar, gamma, nu) or W.shape != (abar, gamma, nu):
        raise PreconditionViolated(
            f"V and W must have shape {(abar, gamma, nu)}, got {V.shape} and {W.shape}")

    width = max(1, -(-m // abar))

    if gamma == abar or nu <= MUL_CUTOFF:
        M = pm_mul(f, V, W.transpose(1, 0, 2), out_bound=nu)
        return _chunked_product(f, U, M, m, width)[:, : m + nu - 1]

    nu2 = nu // 2
    V0, V1 = V[:, :, :nu2], V[:, :, nu2:]
    W0, W1 = W[:, :, :nu2], W[:, :, nu2:]
    M0 = pm_mul(f, V0, W0.transpose(1, 0, 2))
    out = f.zeros((abar, m + nu - 1))
    full = _chunked_product(f, U, M0, m, width)
    out[:, : full.shape[1]] = full
    Vn = np.concatenate([V0, V1], axis=1)
    Wn = np.concatenate([W1, W0], axis=1)
    rec = mul_rec(f, U, Vn, Wn, m, nu2, 2 * gamma)
    out[:, nu2: nu2 + rec.shape[1]] = (out[:, nu2: nu2 + rec.shape[1]] + rec) % f.p
    return out


def mul(f: PrimeField, U, V, W, m: int, n: int) -> list[np.ndarray]:
    """Balanced case: len(U) = len(V) = len(W) = alpha <= n.
    Returns alpha polynomials R_j = sum_k U_k·(V_k·W_j mod x^n), each of
    length m + n − 1."""
    alpha = len(U)
    if not (len(V) == len(W) == alpha):
        raise PreconditionViolated("U, V, W must have equal length")
    if alpha == 0:
        return []
    if alpha > n:
        raise PreconditionViolated(f"alpha = {alpha} exceeds n = {n}")
    nbar = 1 << (n - 1).bit_length()
    delta = nbar - n
    abar = 1 << (alpha - 1).bit_length()
    Ub = _stack(f, U, abar, m)
    Vb = _stack(f, V, abar, nbar).reshape(abar, 1, nbar)
    Wb = _stack(f, W, abar, nbar, shift=delta).reshape(abar, 1, nbar)
    R = mul_rec(f, Ub, Vb, Wb, m, nbar, 1)
    return list(R[:alpha, delta: delta + m + n - 1])


def _mul_any(f: PrimeField, U, V, W, m: int, n: int) -> list[np.ndarray]:
    """General dispatcher: no constraint tying len(U) to len(W) or n."""
    alpha, beta = len(U), len(W)
    if beta == 0:
        return []
    if alpha == 0:
        return [f.zeros(m + n - 1) for _ in range(beta)]
    if alpha > n:
        out = [f.zeros(m + n - 1) for _ in range(beta)]
        for lo in range(0, alpha, n):
            part = _mul_any(f, U[lo: lo + n], V[lo: lo + n], W, m, n)
            for i in range(beta):
                out[i] = (out[i] + part[i]) % f.p
        return out
    if beta > alpha:
        out = []
        for lo in range(0, beta, alpha):
            out.extend(_mul_any(f, U, V, W[lo: lo + alpha], m, n))
        return out
    if beta < alpha:
        out = [f.zeros(m + n - 1) for _ in range(beta)]
        for lo in range(0, alpha, beta):
            Uc = list(U[lo: lo + beta]) + [[]] * max(0, lo + beta - alpha)
            Vc = list(V[lo: lo + beta]) + [[]] * max(0, lo + beta - alpha)
            part = mul(f, Uc, Vc, W, m, n)
            for i in range(beta):
                out[i] = (out[i] + part[i]) % f.p
        return out
    return mul(f, U, V, W, m, n)


def mul_unbalanced(f: PrimeField, U, V, W, m: int, n: int) -> list[np.ndarray]:
    """R_i = sum_k U_k·(V_k·W_i mod x^n) for len(W) = beta independent of
    alpha = len(U): the wide side is cut into balanced slabs."""
    if len(U) != len(V):
        raise PreconditionViolated("U and V must have equal length")
    if len(U) > n:
        raise PreconditionViolated(f"alpha = {len(U)} exceeds n = {n}")
    return _mul_any(f, U, V, W, m, n)


def mulQ(f: PrimeField, U, V, W, Q) -> list[np.ndarray]:
    """R_i = sum_k U_k·(V_k·W_i mod Q) for a monic modulus Q of degree n,
    left unreduced (length m + n − 1).

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
    alpha, beta = len(U), len(W)
    if len(V) != alpha:
        raise PreconditionViolated("U and V must have equal length")
    if alpha > n:
        raise PreconditionViolated(f"alpha = {alpha} exceeds deg Q = {n}")
    U = [trim(f, u) for u in U]
    V = [poly_mod(f, v, Q) for v in V]
    W = [poly_mod(f, w, Q) for w in W]
    m = max([1] + [len(u) for u in U])
    out_len = m + n - 1
    if alpha == 0 or beta == 0:
        return [f.zeros(out_len) for _ in range(beta)]

    size = 1 << max(1, (out_len - 1).bit_length())
    if n == 1 or size > f.ntt_capacity():
        return [padded(f, r, out_len) for r in _mul_direct(f, U, V, W, Q)]

    qrev_inv = series_inv(f, poly_rev(f, Q, n), n - 1)
    Ut = [poly_rev(f, u, m - 1) for u in U]
    Vt = [padded(f, poly_mul(f, poly_rev(f, v, n - 1), qrev_inv), n - 1)
          for v in V]
    Wt = [padded(f, poly_rev(f, w, n - 1), n - 1) for w in W]
    S = _mul_any(f, Ut, Vt, Wt, m, n - 1)

    # Both terms of T·W_i − Q·rev(S̃_i) overshoot out_len and the tails
    # cancel exactly, so a wraparound product of size >= out_len is exact.
    # That lets one batched transform round serve every column at half the
    # linear-product length.
    Um, Vm = _stack(f, U, alpha, size), _stack(f, V, alpha, size)
    vT = np.sum(f.ntt(Um) * f.ntt(Vm) % f.p, axis=0) % f.p
    Qm = f.zeros(size)
    Qm[: min(len(Q), size)] = Q[:size]
    if len(Q) > size:  # fold the modulus, it can overhang by one slot
        tail = Q[size:]
        Qm[: len(tail)] = (Qm[: len(tail)] + tail) % f.p
    vQ = f.ntt(Qm)
    Wm = _stack(f, W, beta, size)
    Sm = _stack(f, [poly_rev(f, s, m + n - 3) for s in S], beta, size)
    vals = (vT * f.ntt(Wm) - vQ * f.ntt(Sm)) % f.p
    return list(f.ntt(vals, invert=True)[:, :out_len])


def _basic_data(gen: Generator):
    """gamma_k = crt_P(G-column blocks), eta_k = crt_Q(H-column blocks), and
    the per-block modular inverses of Q."""
    op = gen.operator
    fam_p, fam_q = op.fam_p, op.fam_q
    table = inverse_table(op)
    if table is None:
        raise SingularOperator("operator is not invertible")
    gammas = [crt_family(fam_p, fam_p.split_vector(gen.G[:, k])) for k in range(gen.alpha)]
    etas = [crt_family(fam_q, fam_q.split_vector(gen.H[:, k])) for k in range(gen.alpha)]
    return gammas, etas, table


def _mul_direct(f: PrimeField, U, V, W, Q) -> list[np.ndarray]:
    """R_i = sum_k U_k·(V_k·W_i mod Q), one product and one reduction per
    term: cheaper than mulQ's transforms for a single column, free of its
    alpha <= deg Q limit, and the route of mulQ itself where it has no
    transform."""
    out = []
    for w in W:
        acc = f.zeros(0)
        for u, v in zip(U, V):
            acc = poly_add(f, acc, poly_mul(f, u, poly_mod(f, poly_mul(f, v, w), Q)))
        out.append(acc)
    return out


def product_chain(gen: Generator, B: np.ndarray) -> np.ndarray:
    """A·B for any generator length; every product in the library runs here.

    With Ã = Y_P^{e1}·A·Y_Q^{e2} on the basic operator, A·B =
    Y_P^{−e1}·Ã·Y_Q^{−e2}·B, and Ã's chain starts with Y_Q blockwise, so
    each side's symmetrizer is applied at most once: Y_Q only when e2 is
    unset, Y_P⁻¹ only when e1 is set.  Right to left: comb_Q on each column,
    the alpha-term middle product taken modulo Q (reversed coefficients for
    Stein), the reduction to the blocks of P, and the blockwise modular
    products with the inverses of Q.  The middle product goes through mulQ,
    except for a single column or alpha > n, where the direct sum is used.
    """
    f = gen.field
    beta = B.shape[1]
    if gen.alpha == 0 or beta == 0:
        return f.zeros((gen.m, beta))

    basic, tf = to_basic(gen)
    op = basic.operator
    fam_p, fam_q = op.fam_p, op.fam_q
    m, n = op.m, op.n
    gammas, etas, table = _basic_data(basic)
    stein = op.kind == STEIN

    cols = []
    for i in range(beta):
        parts = fam_q.split_vector(B[:, i])
        if not tf.e2:
            parts = [symmetrize_apply(f, Qj, blk) for Qj, blk in zip(fam_q.polys, parts)]
        cols.append(comb_family(fam_q, parts))

    lhs = [poly_rev(f, g, m - 1) for g in gammas] if stein else gammas
    if beta == 1 or gen.alpha > n:
        R = _mul_direct(f, lhs, etas, cols, fam_q.product)
    else:
        R = mulQ(f, lhs, etas, cols, fam_q.product)

    out = f.zeros((m, beta))
    for i in range(beta):
        r = poly_rev(f, R[i], m + n - 2) if stein else R[i]
        blocks = red_family(fam_p, r)
        for j, (s, k, P) in enumerate(zip(fam_p.offsets, fam_p.degrees, fam_p.polys)):
            out[s: s + k, i] = modmul_apply(f, table[j], P, blocks[j])
    return tf.p_side(out, inverse=True)


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
