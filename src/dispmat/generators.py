"""Compressed representations of structured matrices.

A matrix A is carried around as a pair (G, H) with L(A) = G·Hᵗ for a
displacement operator L built from polynomial families P and Q.  When L is
invertible this determines A uniquely, and everything else — reconstruction,
matrix-vector products, transposition, compression, and the transformations
that move a generator between operators — works directly on the pair without
ever forming A.

The closed-form reconstruction applies to the two *basic* operators
∇_{M_P,M_Qᵗ} and Δ_{M_P,M_Qᵗ}; the six other variants are conjugated into a
basic one by symmetrizers (to_basic), and the basic ones are conjugated into
the Toeplitz/Hankel-type operator by the multiplicative L/R transformation
(to_hankel) that the solver relies on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import PrimeField
from .operators import (
    STEIN,
    SYLVESTER,
    DisplacementOperator,
    SingularOperator,
    inverse_operator,
    inverse_table,
    op_invertible,
    y_apply_family,
)
from .poly import (
    DimensionMismatch,
    PolyFamily,
    family_build,
    frozen,
    red_family,
    red_transposed,
)

RECONSTRUCT_LIMIT = 1 << 20

# steps of densify's column recurrence taken as one running sum and one
# table product (tools/route_sweep.py --part densify, BENCH_24.json)
_DENSIFY_BLOCK = 8


@dataclass
class Generator:
    """L-generator (G, H) of length alpha.

    The work of a product that depends on the generator alone is kept in a
    store (``cached``) and shared by every later product.  G and H become
    read-only when the store first fills; rebinding G, H or the operator
    drops the store."""

    G: np.ndarray
    H: np.ndarray
    operator: DisplacementOperator
    _store: tuple | None = dc_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        f = self.field
        self.G = f.arr(self.G)
        self.H = f.arr(self.H)
        if self.G.ndim == 1:
            self.G = self.G.reshape(-1, 1)
        if self.H.ndim == 1:
            self.H = self.H.reshape(-1, 1)
        self._check_shapes()

    @classmethod
    def _built(cls, G: np.ndarray, H: np.ndarray,
               operator: DisplacementOperator) -> Generator:
        """A generator on blocks the library built itself, which already
        follow the array contract (2-D, f.dtype, residues in [0, p)): taken
        as they are, without the copy and reduction of the constructor."""
        gen = object.__new__(cls)
        gen.G, gen.H, gen.operator, gen._store = G, H, operator, None
        gen._check_shapes()
        return gen

    def cached(self, key, fn):
        """fn(), computed on the first call for key and kept for later ones.

        The store holds a fixed set of keys ("basic" and "pieces", filled
        by structmul.product_chain), and so is bounded; it is keyed on the
        identity of G, H and the operator, and freed with the generator.
        Its values must not refer to the generator, so that a generator
        never sits in a reference cycle.  On first use G and H are made
        read-only, or replaced by read-only copies where they view a
        writable array."""
        store = self._store
        if store is None or store[0] is not self.G or store[1] is not self.H \
                or store[2] is not self.operator:
            self.G, self.H = _read_only(self.G), _read_only(self.H)
            store = self._store = (self.G, self.H, self.operator, {})
        kept = store[3]
        if key not in kept:
            kept[key] = fn()
        return kept[key]

    def _check_shapes(self) -> None:
        if self.G.shape[1] != self.H.shape[1]:
            raise DimensionMismatch(
                f"G has {self.G.shape[1]} columns, H has {self.H.shape[1]}")
        if self.G.shape[0] != self.operator.m or self.H.shape[0] != self.operator.n:
            raise DimensionMismatch(
                f"generator rows {self.G.shape[0]}x{self.H.shape[0]} do not match "
                f"operator format {self.operator.shape}")

    @property
    def field(self) -> PrimeField:
        return self.operator.field

    @property
    def alpha(self) -> int:
        return self.G.shape[1]

    @property
    def m(self) -> int:
        return self.operator.m

    @property
    def n(self) -> int:
        return self.operator.n


def _read_only(a: np.ndarray) -> np.ndarray:
    """a marked read-only when no other array can write its data, else a
    frozen copy of it."""
    if a.base is None or (isinstance(a.base, np.ndarray) and not a.base.flags.writeable):
        a.setflags(write=False)
        return a
    return frozen(a)


# ---------------------------------------------------------------------------
# operator normalization (symmetrizer conjugation)


@dataclass
class BasicTransform:
    """Records Ã = Y_P^{e1}·A·Y_Q^{e2} so callers can undo the conjugation.

    e1 is set when the row side carried a transposed companion matrix, e2
    when the column side carried an untransposed one.
    """

    e1: bool
    e2: bool
    fam_p: PolyFamily
    fam_q: PolyFamily

    @property
    def is_identity(self) -> bool:
        return not (self.e1 or self.e2)

    def p_side(self, X: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Y_P^{±e1}·X for a vector or a block of columns."""
        return _y_side(self.fam_p, self.e1, X, inverse)

    def q_side(self, X: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Y_Q^{±e2}·X for a vector or a block of columns."""
        return _y_side(self.fam_q, self.e2, X, inverse)


def _y_side(fam: PolyFamily, e: bool, X: np.ndarray, inverse: bool) -> np.ndarray:
    if not e:
        return X
    return y_apply_family(fam, X.T, inverse).T


def to_basic(gen: Generator) -> tuple[Generator, BasicTransform]:
    """Conjugate any of the eight operator variants into the basic one of the
    same kind: Ã = Y_P^{e1}·A·Y_Q^{e2} with G̃ = Y_P^{e1}G and H̃ = Y_Q^{e2}H.
    """
    op = gen.operator
    tf = BasicTransform(op.transpose_p, not op.transpose_q, op.fam_p, op.fam_q)
    if tf.is_identity:
        return gen, tf
    return Generator._built(tf.p_side(gen.G), tf.q_side(gen.H), op.basic()), tf


# ---------------------------------------------------------------------------
# public operations


def _vector(f: PrimeField, v, size: int, what: str) -> np.ndarray:
    """v as residues of shape (size,); any other shape, a column (size, 1)
    included, is refused with a DimensionMismatch that names it."""
    v = f.arr(v)
    if v.shape != (size,):
        raise DimensionMismatch(f"{what} has shape {v.shape}, expected ({size},)")
    return v


def gen_matvec(gen: Generator, u: np.ndarray) -> np.ndarray:
    """A·u without materializing A: the product chain on one column."""
    from .structmul import product_chain  # structmul builds on this module

    u = _vector(gen.field, u, gen.n, "vector")
    return product_chain(gen, u.reshape(-1, 1))[:, 0]


def reconstruct_dense(gen: Generator) -> np.ndarray:
    """densify(gen), refused above RECONSTRUCT_LIMIT entries.  Testing/CLI
    scale only."""
    if gen.m * gen.n > RECONSTRUCT_LIMIT:
        raise ValueError(f"reconstruct_dense is intended for m*n <= {RECONSTRUCT_LIMIT}")
    return densify(gen)


def _companion_rows(fam: PolyFamily, transposed: bool):
    """x ↦ M·x for M = M_P (or M_Pᵗ), on a block of rows X (c, m) holding
    one vector x per row, reduced: a shift inside each block of P plus that
    block's feedback through the low coefficients of its modulus."""
    f = fam.field
    offs = np.asarray(fam.offsets)
    ends = offs + np.asarray(fam.degrees) - 1
    low = np.concatenate([P[:k] for P, k in zip(fam.polys, fam.degrees)])
    if transposed:  # x_i takes x_{i+1}; a block's last entry −Σ_i P_i·x_i
        def apply(X):
            Y = np.empty_like(X)
            Y[:, :-1] = X[:, 1:]
            Y[:, ends] = (-np.add.reduceat(low * X % f.p, offs, axis=1)) % f.p
            return Y

        return apply
    last = np.repeat(ends, fam.degrees)  # the last entry of each entry's block

    def apply(X):  # x_i takes x_{i−1}; every entry −P_i·x_last
        Y = np.empty_like(X)
        Y[:, 1:] = X[:, :-1]
        Y[:, offs] = 0
        return (Y - low * X[:, last] % f.p) % f.p

    return apply


def densify(gen: Generator) -> np.ndarray:
    """The unique dense A with L(A) = G·Hᵗ, for every operator variant, in
    O(m·n·(alpha + _DENSIFY_BLOCK)) array work plus one product-chain
    column per block of Q.

    Column by column inside each companion block of N (N = M_Q, or M_Qᵗ
    when transpose_q), the displacement is a recurrence
    a_t = M·a_{t−1} + e_t from a start a_0, with M the row side.  With a_j
    the block's columns, d_j those of D = G·Hᵗ and q_j the low coefficients
    of the block's modulus:
      Sylvester, N = M_Q:   a_{j+1} = M·a_j − d_j, forward from a_0;
      Sylvester, N = M_Qᵗ:  a_{j−1} = M·a_j + q_j·a_{k−1} − d_j, backward;
      Stein, N = M_Q:       a_j = M·a_{j+1} + d_j, backward from a_{k−1};
      Stein, N = M_Qᵗ:      a_j = M·a_{j−1} − q_j·M·a_{k−1} + d_j, forward
                            from a_{−1} = 0, with a_{k−1} known first.
    The column that starts each block comes from product_chain (all of them
    in one call), and the one equation per block the recurrence leaves
    unused holds because L is invertible.

    On each block of P, a residue ring F[x]/(P_i), M_P is the product by x
    (Kailath, Kung and Morf 1979; Pan 2001, ch. 4), so T = _DENSIFY_BLOCK
    steps are one sum, a_{s+τ} = x^τ·a_s + Σ_{r≤τ} x^{τ−r}·e_{s+r} mod P:
    a running sum (one cumsum) down the diagonals of a (T + 1)-row array
    per leaf of P, the leaves aligned at the top, whose T overflow
    coefficients one product with the table x^{k_i+j} mod P_i (j < T)
    folds.  Under M_Pᵗ a vector is the first k_i terms of a linear
    recurrent sequence with characteristic polynomial P_i, which M_Pᵗ
    shifts: the same table extends each term of the sum by T terms, and
    the running sum is read in windows.  The blocks of Q longer than the
    block's first step go side by side.  Raises SingularOperator for an
    operator that is not invertible."""
    from .structmul import product_chain

    op = gen.operator
    f = op.field
    p = f.p
    if inverse_table(op) is None:
        raise SingularOperator("operator is not invertible")
    fam_p, fam_q = op.fam_p, op.fam_q
    M = _companion_rows(fam_p, op.transpose_p)
    # blocks of Q longest first, so the blocks a step takes are a prefix
    degs = np.asarray(fam_q.degrees)
    order = np.argsort(-degs, kind="stable")
    degs, offs = degs[order], np.asarray(fam_q.offsets)[order]
    ends = offs + degs - 1
    stein, tq = op.kind == STEIN, op.transpose_q
    seeds = ends if stein or tq else offs

    At = f.zeros((op.n + 1, op.m))  # Aᵗ, one column of A per row, and a spare row
    E = f.zeros((op.n, len(seeds)))
    E[seeds, np.arange(len(seeds))] = 1
    At[seeds] = first = product_chain(gen, E).T
    T = _DENSIFY_BLOCK
    steps = -(-(int(degs[0]) - 1) // T) * T
    if not steps:
        return np.ascontiguousarray(At[:-1].T)

    # leaf layout (d, …, w): block i of P first in row i, its top at column w
    d, w = len(fam_p), max(fam_p.degrees)
    slots = np.concatenate([i * w + w - k + np.arange(k) for i, k in enumerate(fam_p.degrees)])

    def leaves(X):
        if d * w != op.m:
            Y = f.zeros(X.shape[:-1] + (d * w,))
            Y[..., slots] = X
            X = Y
        return np.moveaxis(X.reshape(X.shape[:-1] + (d, w)), -2, 0)

    # table (d, T, w): x^{k_i+j} mod P_i for j < T, from x^{k_i} mod P_i by
    # T − 1 steps of M_P
    low = np.concatenate([P[:k] for P, k in zip(fam_p.polys, fam_p.degrees)])
    rows = [(p - low[None]) % p]
    shift = _companion_rows(fam_p, False)
    for _ in range(T - 1):
        rows.append(shift(rows[-1]))
    table = leaves(np.concatenate(rows))

    def extend(X):  # leaf rows (d, c, w) read as sequences: their next T terms
        return (X[:, :, None] * table[:, None] % p).sum(-1) % p

    # step t of block i of Q writes column pos[t − 1, i] from its increment
    # e_t: ±d_src, plus q_src times a_{k−1} (Sylvester) or −M·a_{k−1} (Stein)
    # when N = M_Qᵗ.  Steps past a block's end are computed, never written.
    t = np.arange(1, steps + 1)[:, None]
    forward = stein == tq
    src = offs + t - 1 if forward else ends - t + 1 - stein
    pos = src if stein else src + (1 if forward else -1)
    valid = t < degs
    src = np.where(valid, src, 0)
    G = gen.G if stein else (p - gen.G) % p
    inc = f.mat_mul(gen.H, G.T)[src]
    if tq:
        q = np.concatenate([Q[:k] for Q, k in zip(fam_q.polys, fam_q.degrees)])[src][..., None]
        fed = (p - M(first)) % p if stein else first
        inc = (inc + q * fed % p) % p
    inc = leaves(inc)  # (d, steps, blocks of Q, w)
    if op.transpose_p:  # the increments' next T terms, through those of G and fed
        terms = f.mat_mul(gen.H[src], extend(leaves(G.T))[:, None])
        if tq:
            terms = (terms + q * extend(leaves(fed))[:, None] % p) % p
        inc = np.concatenate([inc, terms], axis=-1)
    start = leaves(f.zeros(first.shape) if stein and tq else first)
    out = np.empty((steps, len(degs), d, w), dtype=f.dtype)
    # a leaf's segment of a running-sum row: room for T shifts either way
    W = w + 2 * T + 1
    for s in range(0, steps, T):
        L = int(np.count_nonzero(degs > s + 1))
        row = L * W
        buf = f.zeros((d, (T + 1) * row + T + 1))
        if op.transpose_p:  # row r of diag shifted right by r: row t reads windows
            run = buf[:, :(T + 1) * (row - 1)].reshape(d, T + 1, row - 1)
            diag = buf[:, :(T + 1) * row].reshape(d, T + 1, L, W)
            diag[:, 0, :, :w] = start[:, :L]
            diag[:, 0, :, w:w + T] = extend(start[:, :L])
            diag[:, 1:, :, :w + T] = inc[:, s:s + T, :L]
            np.cumsum(run, axis=1, out=run)
            new = diag[:, 1:, :, :w] % p
        else:  # row r of diag shifted left by r: row t holds x^t·a_s + …
            run = buf[:, :(T + 1) * (row + 1)].reshape(d, T + 1, row + 1)
            diag = buf[:, T:T + (T + 1) * row].reshape(d, T + 1, L, W)
            diag[:, 0, :, :w] = start[:, :L]
            diag[:, 1:, :, :w] = inc[:, s:s + T, :L]
            np.cumsum(run, axis=1, out=run)
            over = (diag[:, 1:, :, w:w + T] % p).reshape(d, T * L, T)
            new = (diag[:, 1:, :, :w] + f.mat_mul(over, table).reshape(d, T, L, w)) % p
        out[s:s + T, :L] = new.transpose(1, 2, 0, 3)
        start = new[:, -1]
    out = out.reshape(steps, len(degs), d * w)
    At[np.where(valid, pos, op.n)] = out if d * w == op.m else out[..., slots]
    return np.ascontiguousarray(At[:-1].T)


def displacement(op: DisplacementOperator, A: np.ndarray) -> np.ndarray:
    """L(A) for a dense A: M·A − A·N (Sylvester) or A − M·A·N (Stein), with
    M and N applied by _companion_rows (A·N row by row, as Nᵗ)."""
    f = op.field
    left = _companion_rows(op.fam_p, op.transpose_p)
    right = _companion_rows(op.fam_q, not op.transpose_q)
    if op.kind == STEIN:
        return (A - left(right(A).T).T) % f.p
    return (left(A.T).T - right(A)) % f.p


def gen_transpose(gen: Generator) -> Generator:
    """Generator of Aᵗ under the swapped operator.

    Sylvester: ∇_{Nᵗ,Mᵗ}(Aᵗ) = (−H)·Gᵗ.  Stein: Δ_{Nᵗ,Mᵗ}(Aᵗ) = H·Gᵗ.
    """
    op = gen.operator
    f = op.field
    swapped = op.cached("transposed", lambda: DisplacementOperator(
        op.kind, op.fam_q, op.fam_p,
        transpose_p=not op.transpose_q, transpose_q=not op.transpose_p))
    H = gen.H if op.kind == STEIN else (f.p - gen.H) % f.p
    return Generator._built(H, gen.G, swapped)


def _column_decompose(f: PrimeField, M: np.ndarray):
    """Write M = B·C with B made of M's pivot columns (full column rank) and
    C the nonzero rows of M's reduced row echelon form.  (B, Cᵗ) is the
    canonical generator of M: it depends on M alone."""
    R, pivots, _ = f.row_reduce(M)
    return M[:, pivots], R[: len(pivots)]


def compress_pair(f: PrimeField, G: np.ndarray, H: np.ndarray):
    """The canonical generator (G₂, H₂) of D = G·Hᵗ: G₂ is made of D's pivot
    columns and H₂ᵗ of the nonzero rows of D's reduced row echelon form, so
    the width is rank(D) and the arrays depend on D alone, not on (G, H).

    Two thin elimination passes, D is never formed: factor G = B·C with B
    of full column rank; then D = B·K with K = C·Hᵗ, so D and K share
    their reduced echelon form and D's pivot columns are B·K[:, pivots].
    """
    if G.shape[1] == 0:
        return G, H
    B, C = _column_decompose(f, G)
    K = f.mat_mul(C, H.T)
    R, pivots, _ = f.row_reduce(K)
    return f.mat_mul(B, K[:, pivots]), R[: len(pivots)].T


def gen_compress(gen: Generator) -> Generator:
    """The canonical generator of the same matrix (compress_pair): length
    exactly rank(G·Hᵗ)."""
    if gen.alpha == 0:
        return gen
    G2, H2 = compress_pair(gen.field, gen.G, gen.H)
    return Generator._built(G2, H2, gen.operator)


# ---------------------------------------------------------------------------
# reduction to the Toeplitz/Hankel-type operator


@functools.lru_cache(maxsize=256)
def shift_operator(f: PrimeField, m: int, phi: int, n: int, psi: int) -> DisplacementOperator:
    """The basic Sylvester operator of the binomials x^m − φ and x^n − ψ.

    One shared instance per argument tuple, so its families, transpose,
    inverse operator and inverse table are built once; the 256 most
    recently used are kept.  Callers must not mutate it.
    """
    fam_p = family_build(f, [[-phi % f.p] + [0] * (m - 1) + [1]])
    fam_q = family_build(f, [[-psi % f.p] + [0] * (n - 1) + [1]])
    return DisplacementOperator(SYLVESTER, fam_p, fam_q)


def hankel_operator(f: PrimeField, m: int, n: int) -> DisplacementOperator:
    """∇_{Z_{m,0}, Z_{n,1}ᵗ}: the basic Sylvester operator for ([x^m], [x^n−1])."""
    return shift_operator(f, m, 0, n, 1)


def hankel_inverse_operator(f: PrimeField, m: int, n: int) -> DisplacementOperator:
    """∇_{Z_{n,1}ᵗ, Z_{m,0}}: where the inverse (or the solver's output
    transformation) of a ∇_{Z_{m,0},Z_{n,1}ᵗ}-structured matrix lives."""
    return inverse_operator(hankel_operator(f, m, n))


def side_map(fam: PolyFamily, v: np.ndarray) -> np.ndarray:
    """J·W_Pᵗ·Y_P⁻¹·v for the family P, on a vector or a block of rows:
    L·v on the row family, Rᵗ·v on the column family."""
    return red_transposed(fam, y_apply_family(fam, v, inverse=True))[..., ::-1]


def side_map_t(fam: PolyFamily, v: np.ndarray) -> np.ndarray:
    """Y_P⁻¹·W_P·J·v, the transpose of side_map (Y_P is symmetric), on a
    vector or a block of rows: Lᵗ·v on the row family, R·v on the column
    family."""
    return y_apply_family(fam, red_family(fam, v[..., ::-1]), inverse=True)


@dataclass
class HankelContext:
    """Vectors for A′ = L·A·R (and B = A′·J for Stein).

    L = J_m·W_Pᵗ·Y_P⁻¹ is side_map on P, R = Y_Q⁻¹·W_Q·J_n is side_map_t on
    Q; both are invertible.  u and r are the rank-one correction vectors of
    their displacement identities; the other two, t and s, are always e₀.
    """

    gen: Generator
    u: np.ndarray
    r: np.ndarray


def _unit(f: PrimeField, size: int, idx: int) -> np.ndarray:
    e = f.zeros(size)
    e[idx] = 1
    return e


def _hstack(mats) -> np.ndarray:
    """Vectors and matrices side by side, a vector as one column."""
    cols = [m.reshape(len(m), 1) if m.ndim == 1 else m for m in mats]
    return np.concatenate(cols, axis=1)


def to_hankel(gen: Generator) -> tuple[Generator, HankelContext]:
    """Generator of the Toeplitz/Hankel-type core of A.

    Sylvester: the core is A′ = L·A·R with
      G′ = [t | LG | LAr],  H′ = [RᵗAᵗu | RᵗH | s].
    Stein: the core is B = A′·J_n; conjugating the Stein displacement of A′
    through J_n gives the ∇-generator
      G″ = [t | LG | Z_{m,0}·LAr],  H_B = −Z_{n,1}·J_n·[−RᵗM_Q Aᵗu | RᵗH | s].
    """
    op = gen.operator
    if not op.is_basic:
        raise ValueError("to_hankel expects a basic operator; call to_basic first")
    if not op_invertible(op):
        raise SingularOperator("operator is not invertible")
    f = op.field
    m, n = op.m, op.n
    fam_p, fam_q = op.fam_p, op.fam_q

    t = _unit(f, m, 0)
    s = _unit(f, n, 0)
    # u = Y_P⁻¹ W_P m⃗ = Lᵗ·J·m⃗ with m⃗ the low coefficients of P (P − x^m)
    u = side_map_t(fam_p, fam_p.product[:m][::-1])
    # r = −Y_Q⁻¹ W_Q (n⃗ + s) = −R·J·(n⃗ + s)
    nvec = fam_q.product[:n].copy()
    nvec[0] = (nvec[0] + 1) % f.p
    r = (f.p - side_map_t(fam_q, nvec[::-1])) % f.p

    ctx = HankelContext(gen=gen, u=u, r=r)

    lg = side_map(fam_p, gen.G.T).T
    rth = side_map(fam_q, gen.H.T).T
    l_a_r = side_map(fam_p, gen_matvec(gen, r))
    at_u = gen_matvec(gen_transpose(gen), u)

    hop = hankel_operator(f, m, n)
    if op.kind == SYLVESTER:
        H = _hstack([side_map(fam_q, at_u), rth, s])
        return Generator._built(_hstack([t, lg, l_a_r]), H, hop), ctx

    # Stein: shift the last G column, pre-multiply Aᵗu by M_Q, and conjugate
    # the H side through −Z_{n,1}·J_n
    z0_lar = np.concatenate([f.zeros(1), l_a_r[:-1]])
    mq_at_u = _companion_rows(fam_q, False)(at_u[None])[0]
    H = _hstack([(f.p - side_map(fam_q, mq_at_u)) % f.p, rth, s])
    hb = (f.p - np.roll(H[::-1], 1, axis=0)) % f.p
    return Generator._built(_hstack([t, lg, z0_lar]), hb, hop), ctx


def from_hankel_inverse(ctx: HankelContext, inv_gen: Generator) -> Generator:
    """Generator of A⁻¹ from a generator of the inverted core.

    inv_gen carries (Y, Z) = (−core⁻¹·G_core, core⁻ᵗ·H_core) under
    ∇_{Z_{m,1}ᵗ, Z_{m,0}}; the result lives under inverse_operator of A's
    operator — Sylvester ∇_{M_Qᵗ,M_P} or its Stein analog — with length
    inv_gen.alpha + 2, left for the caller to compress.
    """
    gen = ctx.gen
    f = gen.field
    m, n = gen.m, gen.n
    if m != n:
        raise DimensionMismatch("inverse unwinding requires a square matrix")
    op = gen.operator
    fam_p, fam_q = op.fam_p, op.fam_q
    Y, Z = inv_gen.G, inv_gen.H
    inv_t = gen_transpose(inv_gen)

    e0 = _unit(f, m, 0)  # both t and s
    core_inv_of_t = gen_matvec(inv_gen, e0)
    swapped = inverse_operator(op)

    lt = functools.partial(side_map_t, fam_p)  # Lᵗ
    rq = functools.partial(side_map_t, fam_q)  # R

    if op.kind == SYLVESTER:
        # ∇_{M_Qᵗ,M_P}(A⁻¹) = [r | RY | R·A′⁻¹t]·[Lᵗ·A′⁻ᵗs | LᵗZ | u]ᵗ
        a_inv_t = core_inv_of_t
        a_invt_s = gen_matvec(inv_t, e0)
        G = _hstack([ctx.r, rq(Y.T).T, rq(a_inv_t)])
        H = _hstack([lt(a_invt_s), lt(Z.T).T, ctx.u])
        return Generator._built(G, H, swapped)

    # Stein: core is B = A′·J, A′⁻¹ = J·B⁻¹ and A′⁻ᵗ = B⁻ᵗ·J.
    # Δ_{M_Qᵗ,M_P}(A⁻¹) =
    #   [R·J·Z_{m,1}·Y_B | M_Qᵗ·R·J·B⁻¹t | r]·[Lᵗ·Z_B | u | −Lᵗ·Z_{m,0}ᵗ·B⁻ᵗJs]ᵗ
    b_inv_t = core_inv_of_t
    b_invt_js = gen_matvec(inv_t, e0[::-1])
    G = _hstack([rq(np.roll(Y, 1, axis=0)[::-1].T).T,
                 _companion_rows(fam_q, True)(rq(b_inv_t[::-1])[None])[0],
                 ctx.r])
    z0t_bts = np.concatenate([b_invt_js[1:], f.zeros(1)])
    H = _hstack([lt(Z.T).T, ctx.u, (f.p - lt(z0t_bts)) % f.p])
    return Generator._built(G, H, swapped)


# ---------------------------------------------------------------------------
# serialization


def gen_to_dict(gen: Generator) -> dict:
    from .operators import op_to_dict

    return {
        "G": [[str(int(x)) for x in row] for row in gen.G],
        "H": [[str(int(x)) for x in row] for row in gen.H],
        "operator": op_to_dict(gen.operator),
    }


def gen_from_dict(f: PrimeField, d: dict) -> Generator:
    from .operators import op_from_dict

    op = op_from_dict(f, d["operator"])
    G = np.asarray([[int(x) for x in row] for row in d["G"]], dtype=object).reshape(op.m, -1)
    H = np.asarray([[int(x) for x in row] for row in d["H"]], dtype=object).reshape(op.n, -1)
    return Generator(G, H, op)
