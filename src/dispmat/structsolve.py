"""Inversion and linear solving for structured matrices, on two routes.

The entry points are inv_generator and solve_generator, for a generator of
length α under any invertible displacement operator.  Each decides its
route once, after its shape checks and before anything else runs
(_entry_is_dense): dense when below_crossover(f, min(m, n), α + 6), or
when α = 0 (then A = 0).  α + 6 is the widest triple largest_rec can
receive (to_hankel gives the shift core α + 2 and precond adds 4), and
largest_rec takes its base case on the same rule, so every structured
call splits at its first level.  The dense route forms A once
(generators.densify) and eliminates once, [A | b] or [A | I]: the answer
is deterministic, rng_seed is unused and failure cannot occur.
inv_generator then forms D′ = L′(A⁻¹) densely under L′ =
inverse_operator(op) and factors it once.  Otherwise A goes through the
shift core (_shift_core) to the private Las Vegas cores _inv and _solve,
which always run the preconditioned search, so a result's route
STRUCTURED means that search ran.  inv_generator returns the canonical
generator of D′ (see generators.compress_pair) on both routes, so its
arrays depend on A alone.

The structured route works on matrices A carried as (G, H, u): a generator
under the singular shift operator ∇_{Z_{m,0}, Z_{n,0}ᵗ} together with A's
last row u, which pins down the matrix where that operator alone cannot.
As Z_{m,1} = Z_{m,0} + e₀·e_{m−1}ᵗ, the triple is the generator
([G | e₀], [H | u]) of A under the invertible ∇_{Z_{m,1}, Z_{n,0}ᵗ}
(_triple), and A is read only through it: densify rebuilds it, gen_matvec
gives a column and, on the transposed generator, a row.  Every leading
principal block inherits the triple by plain truncation, and Schur
complements inherit it by a rank-preserving update — which is what drives
the divide-and-conquer search for the largest nonsingular leading block
and, from it, inversion and solving.  The search runs on any m×n as given,
halving at ⌈m/2⌉, ⌈n/2⌉; nothing is padded.  A block below the crossover
(on its own, preconditioned width) is not split: one elimination of
[A_q | I_q] gives ℓ and A_ℓ⁻¹ densely.

A step of the search builds its block's triple generator and the
transposed one once and reads its border (row m₁−1, row and column ℓ−1)
off the two.  It compresses A₁₁⁻¹ and the bordered blocks A₂₁ and A₁₂
once each; the blocks at the Schur complement's split ℓ_S are the leading
ℓ_S rows of A₂₁ and columns of A₁₂, generated by the leading rows of the
compressed G (or H) as the shift Z_{k,0} (or Z_{k,0}ᵗ) on that side reads
only leading rows.  Columns that go through the same generator share one
product: [Z | A₁₁⁻ᵗu₁] through A₁₂ᵗ for [H_S | u_S], and [Z_S | w]
through A₂₁ᵗ and then A₁₁⁻ᵗ for the top of Z and v.

The triple contract: G·Hᵗ = ∇_{Z_{m,0},Z_{n,0}ᵗ}(A) in every row, row 0
included.  Truncation to a leading block needs it: a triple that breaks it
in row 0 stands for a matrix whose last row is not u, and its truncations
do not stand for that matrix's leading blocks.  The library makes every
triple (precond, _schur, truncation) and keeps it.

On the structured route randomness enters only through two triangular
Toeplitz preconditioners with unit diagonal whose coefficients are drawn
from a bounded sample set; they put a generic-rank-profile matrix in front
of the recursion with high probability, and every returned result is exact
— failure is always an explicit status, never a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import PrimeField
from .generators import (
    Generator,
    compress_pair,
    densify,
    displacement,
    from_hankel_inverse,
    gen_compress,
    gen_matvec,
    gen_transpose,
    hankel_inverse_operator,
    hankel_operator,
    shift_operator,
    side_map,
    side_map_t,
    to_basic,
    to_hankel,
    _column_decompose,
    _hstack,
    _unit,
    _vector,
)
from .operators import STEIN, inverse_operator
from .poly import DimensionMismatch
from .structmul import PreconditionViolated, product_chain

OK = "ok"
SINGULAR = "singular"
FAILURE = "failure"
NO_SOLUTION = "no_solution"

# the route a result took (see below_crossover)
DENSE = "dense"
STRUCTURED = "structured"

# Below min(m, n) < DENSE_PER_WIDTH·w, w the width of a shift-format
# generator, dense elimination beats the recursion; object-dtype fields
# cross over sooner (BENCH_9.json and BENCH_25.json have the sweeps).  28
# and 16 were measured when row_reduce still reduced mod p after every pivot
# step; re-deriving them for its delayed reduction, which makes the dense
# route and the recursion's base cases cheaper, is ROADMAP item 10(b).  Both
# stay at least 1: precond's triples are at least 4 wide, so a block that
# splits has min(m, n) >= 4, its halves are smaller and the recursion
# ends.  The tests force the structured route by setting both to 1.
DENSE_PER_WIDTH = 28
DENSE_PER_WIDTH_OBJECT = 16


def below_crossover(f: PrimeField, q: int, alpha: int) -> bool:
    """The crossover rule for q = min(m, n) and a shift-format generator of
    length alpha, the one rule of both routes: largest_rec takes its base
    case on its triple's width, and the entry points stay dense on α + 6,
    the widest triple the search can receive (_entry_is_dense)."""
    per_width = DENSE_PER_WIDTH_OBJECT if f.dtype is object else DENSE_PER_WIDTH
    return alpha == 0 or q < alpha * per_width


def _entry_is_dense(f: PrimeField, q: int, alpha: int) -> bool:
    """The entry points' route rule for q = min(m, n) and a generator of
    length alpha: below the crossover on α + 6, the shift core's α + 2
    plus precond's 4, or α = 0 (then A = 0)."""
    return alpha == 0 or below_crossover(f, q, alpha + 6)


@dataclass
class LpInvResult:
    """Outcome of the leading-principal-inverse search: on success, r is the
    rank, Y = −A_r⁻¹·G[:r], Z = A_r⁻ᵗ·H[:r], and v is the first row of
    A_r⁻¹."""

    status: str
    r: int | None = None
    Y: np.ndarray | None = None
    Z: np.ndarray | None = None
    v: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return self.status == OK


@dataclass
class InvResult:
    """status, the inverse generator when ok, and the route taken (DENSE
    or STRUCTURED)."""

    status: str
    generator: Generator | None = None
    route: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def Y(self) -> np.ndarray | None:
        return None if self.generator is None else self.generator.G

    @property
    def Z(self) -> np.ndarray | None:
        return None if self.generator is None else self.generator.H


@dataclass
class SolveResult:
    """status, the solution when ok, and the route taken (DENSE or
    STRUCTURED)."""

    status: str
    x: np.ndarray | None = None
    route: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == OK


class TriangularToeplitzPreconditioner:
    """Unit lower-triangular Toeplitz matrix U(v): column j is v shifted down
    by j.  Applies in one convolution; A⁻¹ = U(v₂)·Ã⁻¹·U(v₁)ᵗ never needs
    U(v)⁻¹."""

    def __init__(self, f: PrimeField, v: np.ndarray):
        self.f = f
        self.v = v
        if self.v.ndim != 1 or len(self.v) == 0 or int(self.v[0]) != 1:
            raise PreconditionViolated("preconditioner vector must start with 1")
        self.m = len(self.v)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """U(v)·X for a vector or a block of columns."""
        return self.f.conv(self.v, X.T)[..., : self.m].T

    def apply_transpose(self, X: np.ndarray) -> np.ndarray:
        """U(v)ᵗ·X for a vector or a block of columns."""
        return self.f.conv(self.v[::-1], X.T)[..., self.m - 1:].T


# ---------------------------------------------------------------------------
# the (G, H, last row) representation


def _triple(f: PrimeField, G: np.ndarray, H: np.ndarray, u: np.ndarray) -> Generator:
    """The triple (G, H, u) as a generator of the same A under the
    invertible ∇_{Z_{m,1}, Z_{n,0}ᵗ}: Z_{m,1} = Z_{m,0} + e₀·e_{m−1}ᵗ adds
    e₀·uᵗ to the displacement, so the generator is ([G | e₀], [H | u])."""
    m, n = G.shape[0], H.shape[0]
    return Generator._built(_hstack([G, _unit(f, m, 0)]), _hstack([H, u]),
                            shift_operator(f, m, 1, n, 0))


def densify_from_last_row(f: PrimeField, G: np.ndarray, H: np.ndarray,
                          u: np.ndarray) -> np.ndarray:
    """The dense A of the triple (G, H, u)."""
    return densify(_triple(f, G, H, u))


# ---------------------------------------------------------------------------
# bordered generators of the partition blocks


def _gen_block_21(f: PrimeField, G, H, split: int, rows: int,
                  row_l, col_l) -> Generator:
    """A[split:split+rows, :split] under ∇_{Z_{rows,0}, Z_{split,1}ᵗ}:
    G·Hᵗ picks up −e₁·(row above)ᵗ and −(last col)·e₁ᵗ corrections."""
    Gb = _hstack([G[split: split + rows],
                  (f.p - _unit(f, rows, 0)) % f.p,
                  (f.p - col_l[split: split + rows]) % f.p])
    Hb = _hstack([H[:split], row_l[:split], _unit(f, split, 0)])
    return Generator._built(Gb, Hb, shift_operator(f, rows, 0, split, 1))


def _gen_block_12(f: PrimeField, G, H, split: int, cols: int,
                  row_l, col_l) -> Generator:
    """A[:split, split:split+cols] under ∇_{Z_{split,1}, Z_{cols,0}ᵗ}."""
    Gb = _hstack([G[:split], col_l[:split], _unit(f, split, 0)])
    Hb = _hstack([H[split: split + cols], _unit(f, cols, 0),
                  row_l[split: split + cols]])
    return Generator._built(Gb, Hb, shift_operator(f, split, 1, cols, 0))


def _gen_block_inv(f: PrimeField, Y: np.ndarray, Z: np.ndarray,
                   v: np.ndarray) -> Generator:
    """A_r⁻¹ under ∇_{Z_{r,1}ᵗ, Z_{r,0}} from the search output:
    the generator is ([Y | e_r], [Z | v])."""
    r = Y.shape[0]
    Gb = _hstack([Y, _unit(f, r, r - 1)])
    Hb = _hstack([Z, v])
    return Generator._built(Gb, Hb, hankel_inverse_operator(f, r, r))


# ---------------------------------------------------------------------------
# the Schur step


def _border(f: PrimeField, t: Generator, tt: Generator, ell: int):
    """Row and column ℓ−1 of A, which border every block of the partition
    at ℓ, read off A's triple generator t and its transpose tt."""
    return gen_matvec(tt, _unit(f, t.m, ell - 1)), gen_matvec(t, _unit(f, t.n, ell - 1))


def _schur(f: PrimeField, G, H, u, ell: int, Y, Z, inv11_t, row_l, col_l):
    """(G, H, last row) of the Schur complement S = A₂₂ − A₂₁·A₁₁⁻¹·A₁₂ of
    the leading ℓ×ℓ block, from the search output (Y, Z) for A₁₁ and the
    transposed generator of A₁₁⁻¹: G_S = G₂ − A₂₁·A₁₁⁻¹·G₁ and
    [H_S | u_S] = [H₂ | u₂] − A₁₂ᵗ·A₁₁⁻ᵗ·[H₁ | u₁], with A₁₁⁻ᵗ·H₁ = Z.
    Also returns the compressed generators of A₂₁ and A₁₂, whose leading
    rows and columns generate the blocks at any later split."""
    m, n = G.shape[0], H.shape[0]
    # the bordered blocks carry two extra columns that are often dependent,
    # so their products run on the compressed generators (Pan 2001, ch. 4)
    a21 = gen_compress(_gen_block_21(f, G, H, ell, m - ell, row_l, col_l))
    a12 = gen_compress(_gen_block_12(f, G, H, ell, n - ell, row_l, col_l))
    GS = (G[ell:] + product_chain(a21, Y)) % f.p
    Zu = _hstack([Z, gen_matvec(inv11_t, u[:ell])])
    HuS = (_hstack([H[ell:], u[ell:]]) - product_chain(gen_transpose(a12), Zu)) % f.p
    return GS, HuS[:, :-1], HuS[:, -1], a21, a12


# ---------------------------------------------------------------------------
# the recursive search for the largest nonsingular leading block


def _base_case(f: PrimeField, G, H, u):
    """largest_rec's result by dense elimination of [A_ℓ | I_ℓ], ℓ = min(m, n)
    first: when every pivot lands on the diagonal the right half is A_ℓ⁻¹,
    and only a smaller ℓ takes a second elimination."""
    A = densify_from_last_row(f, G, H, u)
    ell, k = None, min(A.shape)
    while k != ell:
        ell = k
        eye = np.eye(ell, dtype=f.dtype)
        R, pivots, order = f.row_reduce(np.concatenate([A[:ell, :ell], eye], axis=1))
        # the leading blocks stay nonsingular exactly as long as elimination
        # pivots on the diagonal without a row swap
        k = next((k for k, c in enumerate(pivots) if c != k or order[k] != k), ell)
    alpha = G.shape[1]
    if ell == 0:
        return 0, f.zeros((0, alpha)), f.zeros((0, alpha)), f.zeros(0)
    Ai = R[:, ell:]
    Y = (f.p - f.mat_mul(Ai, G[:ell])) % f.p
    Z = f.mat_mul(Ai.T, H[:ell])
    v = Ai[0].copy()
    return ell, Y, Z, v


def largest_rec(f: PrimeField, G, H, u):
    """Largest ℓ with all leading k×k blocks nonsingular for k ≤ ℓ, plus
    Y = −A_ℓ⁻¹G[:ℓ], Z = A_ℓ⁻ᵗH[:ℓ], and the first row v of A_ℓ⁻¹.

    Any shape and generator length work: the split is at ⌈m/2⌉, ⌈n/2⌉, and
    below the crossover (below_crossover on min(m, n) and the triple's
    width) the dense base case takes over.  (G, H, u) must keep the triple
    contract of the module docstring in row 0 too.
    """
    m, n = G.shape[0], H.shape[0]
    if below_crossover(f, min(m, n), G.shape[1]):
        return _base_case(f, G, H, u)

    m1, n1 = (m + 1) // 2, (n + 1) // 2
    t = _triple(f, G, H, u)
    tt = gen_transpose(t)
    row_m1 = gen_matvec(tt, _unit(f, m, m1 - 1))
    sub = largest_rec(f, G[:m1], H[:n1], row_m1[:n1])
    ell, Y11, Z11, v11 = sub
    if ell < min(m1, n1):
        return sub

    row_l = row_m1 if ell == m1 else gen_matvec(tt, _unit(f, m, ell - 1))
    col_l = gen_matvec(t, _unit(f, n, ell - 1))
    inv11 = gen_compress(_gen_block_inv(f, Y11, Z11, v11))
    inv11_t = gen_transpose(inv11)
    GS, HS, uS, a21, a12 = _schur(f, G, H, u, ell, Y11, Z11, inv11_t, row_l, col_l)

    m2, n2 = m - ell, n - ell
    if m2 == 1:
        s11 = int(uS[0]) % f.p
    elif n2 == 1:
        s11 = int(f.mat_mul(GS[1:2], HS[0:1].T)[0, 0]) % f.p
    else:
        s11 = (-int(f.mat_mul(GS[0:1], HS[1:2].T)[0, 0])) % f.p
    if s11 == 0:
        return sub

    ell_s, YS, ZS, vS = largest_rec(f, GS, HS, uS)
    if ell_s == 0:
        return sub

    # A₂₁ and A₁₂ at ℓ_S are leading blocks of those at ℓ: truncate
    b12 = Generator._built(a12.G, a12.H[:ell_s], shift_operator(f, ell, 1, ell_s, 0))
    b21_t = gen_transpose(Generator._built(a21.G[:ell_s], a21.H,
                                           shift_operator(f, ell_s, 0, ell, 1)))
    invS_t = gen_transpose(_gen_block_inv(f, YS, ZS, vS))

    Ytop = (Y11 - product_chain(inv11, product_chain(b12, YS))) % f.p
    w = (f.p - gen_matvec(invS_t, gen_matvec(gen_transpose(b12), v11))) % f.p
    # [Ztop | vtop] = [Z₁₁ | v₁₁] − A₁₁⁻ᵗ·A₂₁ᵗ·[Z_S | w]
    Zv = (_hstack([Z11, v11])
          - product_chain(inv11_t, product_chain(b21_t, _hstack([ZS, w])))) % f.p

    Y = np.concatenate([Ytop, YS], axis=0)
    Z = np.concatenate([Zv[:, :-1], ZS], axis=0)
    v = np.concatenate([Zv[:, -1], w])
    return ell + ell_s, Y, Z, v


def lp_inv(f: PrimeField, G, H, u) -> LpInvResult:
    """Rank and leading-principal inverse data when A has generic rank
    profile; Failure when the largest nonsingular leading block is smaller
    than the rank (the Schur complement test catches it)."""
    m, n = G.shape[0], H.shape[0]
    ell, Y, Z, v = largest_rec(f, G, H, u)
    if ell == min(m, n):
        return LpInvResult(OK, ell, Y, Z, v)

    if ell == 0:
        GS, HS, uS = G, H, u
    else:
        t = _triple(f, G, H, u)
        inv_t = gen_transpose(_gen_block_inv(f, Y, Z, v))
        GS, HS, uS, _, _ = _schur(f, G, H, u, ell, Y, Z, inv_t,
                                  *_border(f, t, gen_transpose(t), ell))

    # the rank is ℓ exactly when the Schur complement vanishes, i.e. when
    # the generator of its triple compresses to width 0
    if gen_compress(_triple(f, GS, HS, uS)).alpha == 0:
        return LpInvResult(OK, ell, Y, Z, v)
    return LpInvResult(FAILURE)


# ---------------------------------------------------------------------------
# preconditioning


def precond(f: PrimeField, G, H, u1: TriangularToeplitzPreconditioner,
            u2: TriangularToeplitzPreconditioner):
    """Generator and last row of Ã = U(v₁)ᵗ·A·U(v₂) under
    ∇_{Z_{m,0}, Z_{n,0}ᵗ}, from a ∇_{Z_{m,0}, Z_{n,1}ᵗ}-generator of A and
    the preconditioners u1 = U(v₁), u2 = U(v₂) of lengths m and n.

    The commutator of the shift with a unit-triangular Toeplitz factor is
    rank two on each side, so the width grows by exactly four, and the first
    α columns stay U(v₁)ᵗG and U(v₂)ᵗH.  G and H must follow the array
    contract (see poly); they are used as they are."""
    m, n = G.shape[0], H.shape[0]
    gen = Generator._built(G, H, hankel_operator(f, m, n))
    tgen = gen_transpose(gen)

    v1a, v2a = u1.v, u2.v
    g1 = _hstack([np.concatenate([f.zeros(1), v1a[::-1][:-1]]),
                  (f.p - _unit(f, m, 0)) % f.p])
    h1 = _hstack([_unit(f, m, m - 1),
                  np.concatenate([v1a[1:], f.zeros(1)])])
    g2 = _hstack([np.roll(v2a, -1), (f.p - _unit(f, n, n - 1)) % f.p])
    h2 = _hstack([_unit(f, n, 0),
                  np.concatenate([f.zeros(1), v2a[::-1][:-1]])])

    ath1 = u2.apply_transpose(product_chain(tgen, h1))
    Gt = _hstack([u1.apply_transpose(G), g1, u1.apply_transpose(product_chain(gen, g2))])
    Ht = _hstack([u2.apply_transpose(H), ath1, h2])
    # Ã's last row is U(v₂)ᵗ·Aᵗ·U(v₁)·e_{m−1}, and U(v₁)·e_{m−1} = e_{m−1}
    # is h1's first column
    return Gt, Ht, ath1[:, 0]


def _sample_vector(f: PrimeField, rng, size: int, bound: int) -> np.ndarray:
    out = f.zeros(size)
    out[0] = 1
    if size > 1:
        out[1:] = rng.integers(0, bound, size - 1).astype(f.dtype)
    return out


def _search(f: PrimeField, G, H, rng_seed: int):
    """The randomized search shared by _inv and _solve: draw v₁, v₂ from a set
    of min(2q(q+1), p) values, q = min(m, n), and run lp_inv on
    Ã = U(v₁)ᵗ·A·U(v₂).  Returns U(v₁), U(v₂), Ã's (G, H, last row) and the
    search result."""
    m, n = G.shape[0], H.shape[0]
    q = min(m, n)
    bound = min(2 * q * (q + 1), f.p)
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    u1 = TriangularToeplitzPreconditioner(f, _sample_vector(f, rng, m, bound))
    u2 = TriangularToeplitzPreconditioner(f, _sample_vector(f, rng, n, bound))
    triple = precond(f, G, H, u1, u2)
    return u1, u2, triple, lp_inv(f, *triple)


# ---------------------------------------------------------------------------
# the dense route, below the crossover


def _dense_inverse(f: PrimeField, A: np.ndarray) -> np.ndarray | None:
    """A⁻¹ from one elimination of [A | I], or None when A is singular."""
    m = A.shape[0]
    R, pivots, _ = f.row_reduce(np.concatenate([A, np.eye(m, dtype=f.dtype)], axis=1))
    if pivots[-1] != m - 1:  # [A | I] has m pivots; one lies right of A
        return None
    return R[:, m:]


def _dense_inv_generator(gen: Generator) -> InvResult:
    """The canonical generator of A⁻¹ under L′ = inverse_operator(op), or
    singular: A⁻¹ from [A | I], then D′ = L′(A⁻¹) formed densely and
    factored once (_column_decompose)."""
    f = gen.field
    Ai = _dense_inverse(f, densify(gen))
    if Ai is None:
        return InvResult(SINGULAR, route=DENSE)
    iop = inverse_operator(gen.operator)
    G, Ht = _column_decompose(f, displacement(iop, Ai))
    return InvResult(OK, Generator._built(G, Ht.T, iop), DENSE)


def _dense_solve(f: PrimeField, A: np.ndarray, b: np.ndarray) -> SolveResult:
    """A·x = b from one elimination of [A | b]: no_solution when b takes a
    pivot, else the solution on the pivot columns plus, when A has a free
    column, the kernel vector that is 1 on the first one, so that b = 0
    with a singular or wide A gives a nonzero x."""
    n = A.shape[1]
    R, pivots, _ = f.row_reduce(np.concatenate([A, b.reshape(-1, 1)], axis=1))
    r = len(pivots)
    if r and pivots[-1] == n:
        return SolveResult(NO_SOLUTION, route=DENSE)
    x = f.zeros(n)
    x[pivots] = R[:r, n]
    free = next((c for c, pc in enumerate(pivots) if pc != c), r)
    if free < n:
        x[free] = 1
        x[pivots] = (x[pivots] - R[:r, free]) % f.p
    return SolveResult(OK, x, DENSE)


# ---------------------------------------------------------------------------
# the Las Vegas cores on the shift format


def _inv(f: PrimeField, G, H, rng_seed: int) -> InvResult:
    """(−A⁻¹G, A⁻ᵗH) under ∇_{Z_{m,1}ᵗ, Z_{m,0}} for a square A given by a
    ∇_{Z_{m,0}, Z_{m,1}ᵗ}-generator, or singular, or failure when the random
    preconditioning missed (probability < 1/2).  inv_generator passes a
    compressed shift core; any generator of length ≤ m works."""
    m, alpha = G.shape
    u1, u2, _, res = _search(f, G, H, rng_seed)
    if not res.ok:
        return InvResult(FAILURE, route=STRUCTURED)
    if res.r < m:
        return InvResult(SINGULAR, route=STRUCTURED)
    # A⁻¹ = U(v₂)·Ã⁻¹·U(v₁)ᵗ, and the first α columns of Ã's generator
    # are U(v₁)ᵗG and U(v₂)ᵗH
    out = Generator._built(u2.apply(res.Y[:, :alpha]), u1.apply(res.Z[:, :alpha]),
                           hankel_inverse_operator(f, m, m))
    return InvResult(OK, out, STRUCTURED)


def _solve(f: PrimeField, G, H, b, rng_seed: int) -> SolveResult:
    """One solution of A·x = b for A given by a ∇_{Z_{m,0}, Z_{n,1}ᵗ}-
    generator: a nonzero one when b = 0 and A has a kernel, no_solution for
    an inconsistent system, or failure when the randomized rank-profile
    normalization missed.  solve_generator passes a compressed shift core;
    any generator of length ≤ min(m, n) works."""
    m, n = G.shape[0], H.shape[0]
    u1, u2, (Gt, Ht, ut), res = _search(f, G, H, rng_seed)
    if not res.ok:
        return SolveResult(FAILURE, route=STRUCTURED)
    r = res.r
    bt = u1.apply_transpose(b)
    t = _triple(f, Gt, Ht, ut) if r < max(m, n) else None
    # x̃ = [A_r⁻¹·c; −1; 0]: below full column rank, a nonzero representative
    # even when b = 0, pivoting on the first free column Ã·e_r, which the
    # rank profile makes dependent on A_r, so c = b̃[:r] + (Ã·e_r)[:r]
    xt = f.zeros(n)
    if r:
        c = bt[:r] if r == n else (bt[:r] + gen_matvec(t, _unit(f, n, r))[:r]) % f.p
        xt[:r] = gen_matvec(_gen_block_inv(f, res.Y, res.Z, res.v), c)
    if r < n:
        xt[r] = f.p - 1
    # below full row rank, b̃ may leave Ã's column space: Ã·x̃ = b̃ decides
    if r < m and np.any((gen_matvec(t, xt) - bt) % f.p):
        return SolveResult(NO_SOLUTION, route=STRUCTURED)
    return SolveResult(OK, u2.apply(xt), STRUCTURED)


# ---------------------------------------------------------------------------
# the entry points, for any invertible operator


def _shift_core(gen: Generator):
    """Ã = Y_P^{e1}·A·Y_Q^{e2} on the basic operator, then its
    Toeplitz/Hankel-type core, compressed.  to_hankel raises
    SingularOperator for an operator that is not invertible."""
    basic, tf = to_basic(gen)
    hgen, ctx = to_hankel(basic)
    return tf, gen_compress(hgen), ctx


def _structured_inv_generator(gen: Generator, rng_seed: int) -> InvResult:
    """inv_generator's structured route: A through the shift core to _inv,
    back through from_hankel_inverse, and compressed once to canonical form."""
    f = gen.field
    tf, hgen, ctx = _shift_core(gen)
    res = _inv(f, hgen.G, hgen.H, rng_seed)
    if not res.ok:
        return res
    out = from_hankel_inverse(ctx, res.generator)
    # A⁻¹ = Y_Q^{e2}·Ã⁻¹·Y_P^{e1}
    G, H = compress_pair(f, tf.q_side(out.G), tf.p_side(out.H))
    return InvResult(OK, Generator._built(G, H, inverse_operator(gen.operator)), STRUCTURED)


def _structured_solve_generator(gen: Generator, b: np.ndarray, rng_seed: int) -> SolveResult:
    """solve_generator's structured route: the system through the shift
    core to _solve, and the solution back."""
    op = gen.operator
    tf, hgen, _ = _shift_core(gen)
    c = side_map(op.fam_p, tf.p_side(b))
    res = _solve(op.field, hgen.G, hgen.H, c, rng_seed)
    if not res.ok:
        return res
    y = res.x[::-1] if op.kind == STEIN else res.x
    return SolveResult(OK, tf.q_side(side_map_t(op.fam_q, y)), STRUCTURED)


def inv_generator(gen: Generator, rng_seed: int = 0) -> InvResult:
    """The generator of A⁻¹ under L′ = inverse_operator(op), for any
    invertible displacement operator op, or singular.

    The output is the canonical generator of D′ = L′(A⁻¹) (compress_pair):
    D′'s pivot columns and the nonzero rows of its reduced echelon form,
    of width rank(D′) = rank(L(A)).  It depends on A alone, not on the
    route, rng_seed or the input generator.  The route is decided once,
    on m and α + 6 (module docstring).  Dense: A is densified and [A | I]
    eliminated once, D′ is formed densely and factored once, with no shift
    core and no preconditioner; rng_seed is unused and failure cannot
    occur.  Structured: failure means the random preconditioning missed.
    """
    op = gen.operator
    if op.m != op.n:
        raise DimensionMismatch("inv_generator requires a square format")
    if _entry_is_dense(op.field, op.m, gen.alpha):
        return _dense_inv_generator(gen)
    return _structured_inv_generator(gen, rng_seed)


def solve_generator(gen: Generator, b, rng_seed: int = 0) -> SolveResult:
    """One solution of A·x = b for A under any invertible displacement
    operator.

    Rank-deficient consistent systems return a solution (a nonzero one
    when b = 0 and A has a kernel); inconsistent ones report no_solution.
    The right-hand side is checked first: any shape but (m,) is refused
    with a DimensionMismatch.  Then the route is decided once,
    on min(m, n) and α + 6 (module docstring).  Dense: A is densified
    (generators.densify) and [A | b] eliminated once, with no shift core
    and no preconditioner; the answer is deterministic, rng_seed is unused
    and failure cannot occur.  Structured: failure means the randomized
    rank-profile normalization missed.
    """
    op = gen.operator
    f = op.field
    b = _vector(f, b, op.m, "right-hand side")
    if _entry_is_dense(f, min(op.m, op.n), gen.alpha):
        return _dense_solve(f, densify(gen), b)
    return _structured_solve_generator(gen, b, rng_seed)
