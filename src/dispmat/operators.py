"""Displacement operators and matrix-free application of their building blocks.

An operator is assembled from two monic, pairwise-coprime polynomial families
P (row side) and Q (column side).  The Sylvester flavor maps A to M·A − A·N
and the Stein flavor to A − M·A·N, where M and N are the block-diagonal
companion matrices of the families (optionally transposed).  This module
holds what a structured algorithm needs from an operator beyond its
companion products (``generators._companion_rows``): the blockwise
symmetrizer products, the blockwise modular products (``modmul_apply``,
re-exported from poly), invertibility tests and the per-block modular
inverses of Q, all without materializing an m×m matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import PrimeField
from .poly import (
    DimensionMismatch,
    PolyFamily,
    _check_length,
    as_poly,
    family_build,
    frozen,
    modmul_apply,  # re-exported: the modular products live in poly
    poly_rev,
    poly_scale,
    red_family,
    trim,
)

SYLVESTER = "sylvester"
STEIN = "stein"


class SingularOperator(ValueError):
    """The displacement operator is not a bijection on F^{m×n}."""


@dataclass
class DisplacementOperator:
    kind: str  # SYLVESTER or STEIN
    fam_p: PolyFamily
    fam_q: PolyFamily
    transpose_p: bool = False
    transpose_q: bool = True
    _cache: dict = dc_field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in (SYLVESTER, STEIN):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.fam_p.field is not self.fam_q.field:
            raise DimensionMismatch("P and Q families live over different fields")

    @property
    def field(self) -> PrimeField:
        return self.fam_p.field

    @property
    def m(self) -> int:
        return self.fam_p.total_degree

    @property
    def n(self) -> int:
        return self.fam_q.total_degree

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def is_basic(self) -> bool:
        return not self.transpose_p and self.transpose_q

    def basic(self) -> DisplacementOperator:
        """The basic operator of the same kind on the same families.

        Transpose flags enter neither invertibility nor the inverse table,
        so every variant shares the table cached on this representative.
        """
        if self.is_basic:
            return self
        return self.cached("basic", lambda: DisplacementOperator(self.kind, self.fam_p, self.fam_q))

    def cached(self, key, fn):
        """fn(), computed on the first call for key and kept for later ones.
        The keys are a fixed set ("basic", "inverse", "transposed",
        "inverse_table"), so the cache is bounded and freed with the
        operator.  A stored None counts as computed."""
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]


def inverse_operator(op: DisplacementOperator) -> DisplacementOperator:
    """The operator under which A⁻¹ carries its generator: the same kind on
    the swapped families (Q, P) with the swapped transpose flags, for every
    variant.  One shared instance per operator, so products with inverses
    reuse its inverse table."""
    return op.cached("inverse", lambda: DisplacementOperator(
        op.kind, op.fam_q, op.fam_p,
        transpose_p=op.transpose_q, transpose_q=op.transpose_p))


def sylvester_op(fam_p: PolyFamily, fam_q: PolyFamily,
                 transpose_p: bool = False, transpose_q: bool = True) -> DisplacementOperator:
    return DisplacementOperator(SYLVESTER, fam_p, fam_q, transpose_p, transpose_q)


def stein_op(fam_p: PolyFamily, fam_q: PolyFamily,
             transpose_p: bool = False, transpose_q: bool = True) -> DisplacementOperator:
    return DisplacementOperator(STEIN, fam_p, fam_q, transpose_p, transpose_q)


# ---------------------------------------------------------------------------
# symmetrizers


def y_apply_family(fam: PolyFamily, v: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Blockwise symmetrizer product Y_P·v, or Y_P⁻¹·v, for a whole family,
    on a vector or a block of rows (…, m).  Entry (i, j) of a block's Y_P
    is p_{i+j+1} (0-indexed, zero past the degree); it links the companion
    matrix to its transpose, Y_P·M_Pᵗ = M_P·Y_P."""
    _check_length(fam, v)
    return fam.from_leaves(fam.levels[0].symmetrize(fam.to_leaves(v), inverse))


# ---------------------------------------------------------------------------
# modular inverses of Q against the blocks of P
#
# The table holding Q⁻¹ mod P_i (Sylvester) or rev(Q)⁻¹ mod P_i (Stein) is
# what makes reconstruction and fast products possible; it exists exactly
# when the operator is invertible.  Two routes, dispatched on the verified
# family flavors:
#   1. both sides a single binomial x^k − c: closed form, no gcd at all;
#   2. every other pair: reduce Q (rev(Q) for Stein) down the P-tree, one
#      small modular inverse per leaf.


def binomial_inverse(f: PrimeField, m: int, phi: int, n: int, psi: int):
    """1/(x^n − ψ) mod (x^m − φ), or None when the gcd is nontrivial.

    With y = x^n, g = gcd(n, m) and L = m/g one has y^L = φ^{n/g} =: ρ in
    the quotient ring, so (y − ψ)·Σ_{t<L} ψ^t y^{L−1−t} = ρ − ψ^L collapses
    to a scalar; invertibility is exactly ρ ≠ ψ^L, and the inverse is a sum
    of L distinct monomials.
    """
    import math

    g = math.gcd(n, m)
    L = m // g
    rho = f.pow(phi, n // g)
    den = (rho - f.pow(psi, L)) % f.p
    if den == 0:
        return None
    den_inv = f.inv(den)
    out = f.zeros(m)
    coeff = den_inv  # ψ^t · den⁻¹, t = 0, 1, ...
    for t in range(L):
        s = L - 1 - t
        e = n * s
        out[e % m] = (out[e % m] + coeff * f.pow(phi, e // m)) % f.p
        coeff = (coeff * psi) % f.p
    return out


def _inverse_mod_leaves(fam_p: PolyFamily, rhs: np.ndarray):
    """rhs⁻¹ mod P_i for every block, as rows, or None if some gcd is
    nontrivial."""
    table, ok = fam_p.levels[0].inverse(fam_p.to_leaves(red_family(fam_p, rhs)))
    return table if ok.all() else None


def _binomial_case(f: PrimeField, fam_p: PolyFamily, fam_q: PolyFamily, stein: bool):
    (phi,) = fam_p.flavor_params
    (psi,) = fam_q.flavor_params
    m, n = fam_p.total_degree, fam_q.total_degree
    if not stein:
        w = binomial_inverse(f, m, phi, n, psi)
        return None if w is None else trim(f, w)[None]
    # rev(x^n − ψ) = 1 − ψx^n; for ψ ≠ 0 this is −ψ·(x^n − ψ⁻¹)
    if psi == 0:
        return as_poly(f, [1])[None]
    psi_inv = f.inv(psi)
    w = binomial_inverse(f, m, phi, n, psi_inv)
    if w is None:
        return None
    return poly_scale(f, (-psi_inv) % f.p, w)[None]


def inverse_table(op: DisplacementOperator):
    """Per-block inverses Q⁻¹ mod P_i (Sylvester) / rev(Q)⁻¹ mod P_i (Stein).

    Returns the inverses as one frozen block of rows, row i for block i of
    P, or None when the operator is singular.  Cached on the operator's
    basic representative.
    """
    op = op.basic()

    def build():
        f = op.field
        fam_p, fam_q = op.fam_p, op.fam_q
        stein = op.kind == STEIN
        if fam_p.flavor == "single_power" and fam_q.flavor == "single_power":
            table = _binomial_case(f, fam_p, fam_q, stein)
        else:
            rhs = poly_rev(f, fam_q.product, fam_q.total_degree) if stein else fam_q.product
            table = _inverse_mod_leaves(fam_p, rhs)
        return None if table is None else frozen(table)

    return op.cached("inverse_table", build)


def op_invertible(op: DisplacementOperator) -> bool:
    """True iff the operator is a bijection on F^{m×n}.

    Sylvester: gcd(P, Q) = 1.  Stein: gcd(P, rev(Q)) = 1.  Transpose flags
    never matter (M_Pᵗ is similar to M_P through the symmetrizer).
    """
    return inverse_table(op) is not None


# ---------------------------------------------------------------------------
# serialization


def _family_to_dict(fam: PolyFamily) -> dict:
    return {
        "flavor": fam.flavor,
        "polys": [[str(int(c)) for c in P] for P in fam.polys],
    }


def _family_from_dict(f: PrimeField, d: dict) -> PolyFamily:
    fam = family_build(f, [[int(c) for c in P] for P in d["polys"]])
    want = d.get("flavor")
    if want is not None and want != fam.flavor:
        raise ValueError(f"family tagged {want!r} but detected {fam.flavor!r}")
    return fam


def op_to_dict(op: DisplacementOperator) -> dict:
    return {
        "kind": op.kind,
        "P": _family_to_dict(op.fam_p),
        "Q": _family_to_dict(op.fam_q),
        "transpose_P": op.transpose_p,
        "transpose_Q": op.transpose_q,
    }


def op_from_dict(f: PrimeField, d: dict) -> DisplacementOperator:
    return DisplacementOperator(
        d["kind"],
        _family_from_dict(f, d["P"]),
        _family_from_dict(f, d["Q"]),
        bool(d["transpose_P"]),
        bool(d["transpose_Q"]),
    )
