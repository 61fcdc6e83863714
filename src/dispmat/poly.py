"""Dense univariate polynomials over a prime field, plus the CRT toolkit
for families of pairwise-coprime monic moduli.

Representation: a polynomial is a numpy coefficient array in ascending
order, trimmed (no trailing zeros); the zero polynomial is the empty
array. All functions take the field context as first argument.

Array contract, followed by poly, polymat, structmul, operators, generators
and structsolve:

1. Inside the library an array has the field's dtype ``f.dtype`` and holds
   residues in [0, p), and a polynomial has no trailing zero.  A block of
   polynomials or vectors is a 2-D array, one per row along the last axis,
   each row padded with zeros to the block's width; a block of columns of a
   matrix enters as its transpose, so rows are the columns.
2. A function writes only into arrays it allocated itself: ``f.zeros``,
   ``.copy()``, or fresh ``conv``/``ntt``/ufunc output. Results may be
   views of inputs or of shared tables, and callers never write into them.
3. Anything kept for later is stored as an array of its own, never as a
   view into a larger temporary, and is marked read-only (``frozen``), so
   that a stray write raises instead of corrupting shared state. That
   covers a family's moduli, product, tree levels and their series, chirp
   tables and CRT units, an operator's inverse table, and a generator's
   store with its G and H.

``PrimeField.arr`` establishes rule 1, and runs only where outside data
enters: ``as_poly``/``family_build``, ``Generator``, ``struct_mul``,
``mulQ``, ``gen_matvec``, the solver entry points,
deserialization, the CLI (instance files and the Padé residue table) and
the oracle.  A generator the library builds from its own blocks goes
through ``Generator._built``, which takes them as they are.

The scalar helpers on single polynomials (``poly_add`` … ``poly_divrem``,
``poly_mod``, ``xgcd``, ``poly_gcd``) are reference arithmetic; no
product, reduction, inverse or gcd of the library runs through them, not
even the search for a shared factor when ``family_build`` rejects a
family.  Every job runs on a ``Moduli`` stack, whole: ``rem``, ``modmul``,
``inverse`` and ``symmetrize``, reached through the family maps below and,
for the symmetrizer, ``operators.y_apply_family``.

A ``PolyFamily`` bundles monic pairwise-coprime moduli P_1..P_d with their
subproduct tree, CRT units and a detected structure flavor ("general",
"single_power" for a lone binomial x^m - phi, "geometric" when the moduli
are x - u*q^i).  The tree is stored as levels, leaves first, built on
first use: each level is one ``Moduli`` stack, a padded 2-D array of its
node polynomials, and the nodes 2i and 2i+1 of a level multiply to node i
of the next (the last node of an odd level moves up alone).  Residues modulo a family are a vector of
length m = deg P in the joined layout of ``split_vector``: block i holds
the d_i coefficients of the residue mod P_i.  Reductions, Chinese
remaindering, the linear-combination map and their transposes take such a
vector or a block of them (…, m) and run one array step per tree level for
the whole block, with fast paths for the special flavors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .field import PrimeField

__all__ = [
    "DivisionByZero",
    "BoundTooSmall",
    "NonUnitConstantTerm",
    "NotMonic",
    "NotCoprime",
    "DimensionMismatch",
    "DegeneratePoints",
    "trim",
    "frozen",
    "as_poly",
    "is_zero",
    "degree",
    "padded",
    "stacked",
    "poly_add",
    "poly_sub",
    "poly_neg",
    "poly_scale",
    "poly_mul",
    "poly_divrem",
    "poly_mod",
    "poly_rev",
    "poly_eval",
    "series_inv",
    "xgcd",
    "poly_gcd",
    "Moduli",
    "modmul_apply",
    "PolyFamily",
    "family_build",
    "red_family",
    "crt_family",
    "comb_family",
    "comb_family_inv",
    "red_transposed",
    "geom_eval",
    "geom_interp",
]

class DivisionByZero(ZeroDivisionError):
    """Polynomial division by the zero polynomial."""


class BoundTooSmall(ValueError):
    """rev(a, d) called with d smaller than deg(a)."""


class NonUnitConstantTerm(ValueError):
    """Power-series inversion of a series with constant term 0."""


class NotMonic(ValueError):
    def __init__(self, index: int):
        super().__init__(f"family member {index} is not monic")
        self.index = index


class NotCoprime(ValueError):
    def __init__(self, i: int, j: int):
        super().__init__(f"family members {i} and {j} share a factor")
        self.pair = (i, j)


class DimensionMismatch(ValueError):
    """Residue/part vector does not match the family's block layout."""


class DegeneratePoints(ValueError):
    """Points are not distinct geometric ones (u=0, q=0, ord(q) too small,
    or a family of another flavor handed to geom_interp)."""


# ---------------------------------------------------------------------------
# basic arithmetic


def trim(f: PrimeField, a: np.ndarray) -> np.ndarray:
    """a without its trailing zeros, as a view (a itself when it has none)."""
    if not len(a) or a[-1]:
        return a
    nz = np.flatnonzero(a)
    return a[: nz[-1] + 1] if len(nz) else a[:0]


def frozen(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a: the form of every array kept for later."""
    a = a.copy()
    a.setflags(write=False)
    return a


def as_poly(f: PrimeField, coeffs: Sequence[int]) -> np.ndarray:
    return trim(f, f.arr(list(coeffs)))


def is_zero(a: np.ndarray) -> bool:
    return len(a) == 0


def degree(a: np.ndarray) -> int:
    """Degree with the convention deg(0) = -1."""
    return len(a) - 1


def poly_add(f: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) < len(b):
        a, b = b, a
    if not len(b):
        return trim(f, a)
    out = a.copy()
    out[: len(b)] = (out[: len(b)] + b) % f.p
    return trim(f, out)


def poly_neg(f: PrimeField, a: np.ndarray) -> np.ndarray:
    return (f.p - a) % f.p


def poly_sub(f: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return poly_add(f, a, poly_neg(f, b))


def poly_scale(f: PrimeField, c: int, a: np.ndarray) -> np.ndarray:
    c %= f.p
    if c == 0 or is_zero(a):
        return f.zeros(0)
    return trim(f, a * c % f.p)


def poly_mul(f: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if is_zero(a) or is_zero(b):
        return f.zeros(0)
    return trim(f, f.conv(a, b))


def poly_rev(f: PrimeField, a: np.ndarray, d: int) -> np.ndarray:
    """Coefficient reversal rev(a, d) = x^d * a(1/x); requires d >= deg(a)."""
    if degree(a) > d:
        raise BoundTooSmall(f"rev bound {d} < degree {degree(a)}")
    out = f.zeros(d + 1)
    if len(a):
        out[d - len(a) + 1:] = a[::-1]
    return trim(f, out)


def poly_eval(f: PrimeField, a: np.ndarray, x: int) -> int:
    acc = 0
    for c in reversed([int(v) for v in a]):
        acc = (acc * x + c) % f.p
    return acc


def padded(f: PrimeField, a: np.ndarray, n: int) -> np.ndarray:
    """A fresh copy of a with n entries along the last axis: cut, or
    zero-padded at the top."""
    out = f.zeros(a.shape[:-1] + (n,))
    k = min(n, a.shape[-1])
    out[..., :k] = a[..., :k]
    return out


def _degrees(A: np.ndarray) -> np.ndarray:
    """The degree of every row of A, -1 for a zero row."""
    nz = A != 0
    return np.where(nz.any(axis=-1), A.shape[-1] - 1 - np.argmax(nz[..., ::-1], axis=-1), -1)


def stacked(f: PrimeField, polys, rows: int, width: int, shift: int = 0) -> np.ndarray:
    """rows x width block whose row i holds polys[i] moved up by shift and
    cut at width; rows past the last polynomial stay zero."""
    out = f.zeros((rows, width))
    for i, p in enumerate(polys):
        k = min(len(p), width - shift)
        out[i, shift: shift + k] = p[:k]
    return out


def series_inv(f: PrimeField, a: np.ndarray, k: int) -> np.ndarray:
    """First k coefficients of 1/a, by Newton iteration.  For a block of
    series (…, len) every row is inverted at once and the result has k
    columns; a single series comes back trimmed."""
    if k <= 0:
        return f.zeros(a.shape[:-1] + (0,))
    if not a.shape[-1] or not np.all(a[..., 0]):
        raise NonUnitConstantTerm("series has no inverse: constant term is 0")
    if a.ndim == 1:
        x = np.array([f.inv(int(a[0]))], dtype=f.dtype)
    else:
        x = f.inv_array(a[..., :1])
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        ax = f.conv(a[..., :prec], x)[..., :prec]
        two_minus = f.zeros(ax.shape[:-1] + (prec,))
        two_minus[..., : ax.shape[-1]] = (f.p - ax) % f.p
        two_minus[..., 0] = (two_minus[..., 0] + 2) % f.p
        x = f.conv(x, two_minus)[..., :prec]
    return trim(f, x[:k]) if a.ndim == 1 else x[..., :k]


def poly_divrem(f: PrimeField, a: np.ndarray, b: np.ndarray):
    """Quotient and remainder, by Newton division on the reversed
    polynomials; the divisor must have an invertible leading coefficient
    (always true over a field unless b = 0)."""
    if is_zero(b):
        raise DivisionByZero("polynomial division by zero")
    a = trim(f, a)
    b = trim(f, b)
    lc = int(b[-1])
    if lc != 1:
        ilc = f.inv(lc)
        bm = trim(f, b * ilc % f.p)
        q, r = poly_divrem(f, a, bm)
        return poly_scale(f, ilc, q), r
    db = degree(b)
    if degree(a) < db:
        return f.zeros(0), a
    if db == 0:
        return a, f.zeros(0)
    n = degree(a) - db
    ra = poly_rev(f, a, degree(a))
    rq = f.conv(ra[: n + 1], series_inv(f, poly_rev(f, b, db), n + 1))[: n + 1]
    # rev-quotient may have trailing zeros as a series; rev back at fixed bound n
    rq_full = f.zeros(n + 1)
    rq_full[: len(rq)] = rq
    q = trim(f, rq_full[::-1])
    r = poly_sub(f, a, poly_mul(f, b, q))
    if degree(r) >= db:
        raise ArithmeticError(f"Newton division left a remainder of degree {degree(r)} >= {db}")
    return q, r


def poly_mod(f: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return poly_divrem(f, a, b)[1]


def xgcd(f: PrimeField, a: np.ndarray, b: np.ndarray):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g and g monic
    (classical quadratic remainder sequence)."""
    r0, r1 = trim(f, a), trim(f, b)
    s0, s1 = np.ones(1, dtype=f.dtype), f.zeros(0)
    t0, t1 = f.zeros(0), np.ones(1, dtype=f.dtype)
    while not is_zero(r1):
        q, r = poly_divrem(f, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(f, s0, poly_mul(f, q, s1))
        t0, t1 = t1, poly_sub(f, t0, poly_mul(f, q, t1))
    if is_zero(r0):
        return r0, s0, t0
    ilc = f.inv(int(r0[-1]))
    return (poly_scale(f, ilc, r0), poly_scale(f, ilc, s0), poly_scale(f, ilc, t0))


def poly_gcd(f: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return xgcd(f, a, b)[0]


# ---------------------------------------------------------------------------
# stacks of monic moduli: one level of a subproduct tree, or a lone modulus


class Moduli:
    """n monic moduli P_i as one read-only (n, w + 1) array, row i holding P_i
    padded with zeros (w the largest degree), with their degrees d_i and
    their reversals rev(P_i, d_i) in the same layout.

    Its operations take blocks (…, n, width) whose row i belongs to P_i and
    broadcast over the leading axes; residues mod P_i are padded to w.
    ``co`` and ``co_rev`` hold, for each node, the other node of its pair in
    the tree (or the polynomial 1 for the last node of an odd level), as
    polynomials and reversed.  The series 1/rev(P_i) grow on demand and are
    kept, so a family reduces with the same series every time.
    """

    def __init__(self, f: PrimeField, polys: np.ndarray, degs: Sequence[int]):
        self.field = f
        self.polys = frozen(polys)
        self.degs = frozen(np.asarray(degs, dtype=np.intp))
        self.width = w = polys.shape[1] - 1
        self.dmin = int(self.degs.min())
        # a lone binomial x^w - c reduces by a fold
        self.binomial = (f.neg(int(polys[0, 0])) if len(self.degs) == 1 and not np.any(polys[0, 1:w])
                         else None)
        self._series = f.zeros((len(self.degs), 0))

    @functools.cached_property
    def rev(self) -> np.ndarray:
        back = self.degs[:, None] - np.arange(self.width + 1)
        picked = np.take_along_axis(self.polys, np.maximum(back, 0), 1)
        return frozen(np.where(back >= 0, picked, 0).astype(self.field.dtype))

    @functools.cached_property
    def _own(self) -> tuple:
        """Index and mask reversing row i within its own degree: entry t
        reads entry d_i - 1 - t."""
        own = self.degs[:, None] - 1 - np.arange(self.width)
        return (np.arange(len(self))[:, None], np.maximum(own, 0)), frozen(
            (own >= 0).astype(self.field.dtype))

    @property
    def mask(self) -> np.ndarray:
        """1 at entry t of row i for t < d_i, else 0."""
        return self._own[1]

    def _siblings(self, rows: np.ndarray) -> np.ndarray:
        one = self.field.zeros((1, self.width + 1))
        one[0, 0] = 1
        sib = np.arange(len(self)) ^ 1
        if len(self) % 2:
            sib[-1] = len(self)
        return frozen(np.concatenate([rows, one])[sib])

    @functools.cached_property
    def co(self) -> np.ndarray:
        return self._siblings(self.polys)

    @functools.cached_property
    def co_rev(self) -> np.ndarray:
        return self._siblings(self.rev)

    @classmethod
    def of(cls, f: PrimeField, P: np.ndarray) -> Moduli:
        """The stack of one monic modulus."""
        P = trim(f, P)
        return cls(f, P[None], [degree(P)])

    def __len__(self) -> int:
        return len(self.degs)

    def series(self, k: int) -> np.ndarray:
        """(n, k): the first k terms of 1/rev(P_i), grown to at least the
        largest degree and kept at the largest precision asked for: one
        array, as long as the longest request."""
        if self._series.shape[1] < k:
            self._series = frozen(series_inv(self.field, self.rev, max(k, self.width)))
        return self._series[:, :k]

    def rem(self, A: np.ndarray) -> np.ndarray:
        """Row i of A (…, n, N) modulo P_i, padded to w.

        A binomial x^w − c folds, Σ_j c^j·A[jw:(j+1)w].  Otherwise the
        division is Newton's on the reversed rows, at the common length N:
        with R = rev(A, N − 1) and C = rev(P_i, d_i), the reversed quotient
        is R·C⁻¹ mod x^(N − d_i) (rows whose degree exceeds the smallest one
        are cut to their own N − d_i terms), and R − (R·C⁻¹)·C keeps the
        reversed remainder in its top d_i terms."""
        f = self.field
        w, N = self.width, A.shape[-1]
        if N <= self.dmin:
            return padded(f, A, w)
        if self.binomial is not None:
            out = padded(f, A, w)
            for j in range(1, -(-N // w)):
                part = A[..., j * w: (j + 1) * w]
                c = f.pow(self.binomial, j)
                out[..., : part.shape[-1]] += part if c == 1 else part * c % f.p
            out %= f.p
            return out
        if N < w:
            A, N = padded(f, A, w), w
        prec = N - self.dmin
        R = A[..., ::-1]
        Q = f.conv(R[..., :prec], self.series(prec))[..., :prec]
        if self.dmin < w:
            Q = np.where(np.arange(prec) < (N - self.degs)[:, None], Q, 0)
        T = f.conv(Q, self.rev)
        return ((R[..., N - w:] - T[..., N - w: N]) % f.p)[..., ::-1]

    def modmul(self, F: np.ndarray, X: np.ndarray) -> np.ndarray:
        """F_i·X_i mod P_i for rows F (n, ·) and residue rows X (…, n, ·)."""
        return self.rem(self.field.conv(X, F))

    def inverse(self, A: np.ndarray):
        """(X, ok): X_i = A_i⁻¹ mod P_i for residue rows A (n, ≤ w), padded to
        w, where ok_i says gcd(A_i, P_i) = 1 (X_i is zero otherwise).

        Extended Euclid on all rows in lockstep: one step divides every
        active remainder pair at once, by long division whose t-th round
        subtracts c_t·x^t·r1 from every row with a quotient of degree ≥ t,
        and carries only the cofactor of A."""
        f = self.field
        n, w = len(self), self.width
        r0, r1 = self.polys.copy(), padded(f, A, w + 1)
        s0, s1 = f.zeros((n, 1)), np.ones((n, 1), dtype=f.dtype)
        d0, d1 = self.degs.copy(), _degrees(r1)
        rows = np.arange(n)
        while np.any(d1 >= 0):
            live = d1 >= 0
            k = np.where(live, d0 - d1, -1)
            lead = f.inv_array(np.where(live, r1[rows, np.maximum(d1, 0)], 1))
            q = f.zeros((n, int(k.max()) + 1))
            for t in range(q.shape[1] - 1, -1, -1):
                c = np.where(t <= k, r0[rows, np.clip(d1 + t, 0, w)] * lead % f.p, 0)
                q[:, t] = c
                r0[:, t:] = (r0[:, t:] - c[:, None] * r1[:, : w + 1 - t]) % f.p
            qs = f.conv(q, s1)
            width = max(qs.shape[1], s0.shape[1])
            s2 = (padded(f, s0, width) - padded(f, qs, width)) % f.p
            keep = ~live[:, None]
            r0, r1 = np.where(keep, r0, r1), np.where(keep, r1, r0)
            s0, s1 = (np.where(keep, padded(f, s0, width), padded(f, s1, width)),
                      np.where(keep, padded(f, s1, width), s2))
            d0, d1 = np.where(live, d1, d0), np.where(live, _degrees(r1), d1)
        ok = d0 == 0
        scale = f.inv_array(np.where(ok, r0[:, 0], 1))
        return padded(f, s0, w) * np.where(ok, scale, 0)[:, None] % f.p, ok

    def symmetrize(self, X: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Y_{P_i}·X_i, or Y_{P_i}⁻¹·X_i, for residue rows X (…, n, w).

        Y_P has (i, j) entry p_{i+j+1} (0-indexed), so Y_P·v is a window of
        (P − P(0))·rev(v); reversing every row at the common width w shifts
        all of them by the same amount.  Y_P⁻¹·v is the first d terms of
        rev(v, d − 1)/rev(P, d).  For a lone binomial both are the reversal
        of v."""
        f = self.field
        w = self.width
        if self.binomial is not None:  # Y = Y⁻¹ is the reversal for x^w − c
            return X[..., ::-1]
        if inverse:
            own = X[(...,) + self._own[0]] * self.mask
            return f.conv(own, self.series(w))[..., :w] * self.mask
        return f.conv(self.polys[:, 1:], X[..., ::-1])[..., w - 1: 2 * w - 1]


# ---------------------------------------------------------------------------
# blockwise maps of a family's blocks
#
# v is a joined residue vector or a block of them (…, m), taken block by
# block on the family's leaf stack.


def modmul_apply(F: np.ndarray, fam: PolyFamily, v: np.ndarray) -> np.ndarray:
    """F_i·v_i mod P_i for every block i of the family, joined: F holds one
    multiplier per block, as rows (d, ·)."""
    _check_length(fam, v)
    return fam.from_leaves(fam.levels[0].modmul(F, fam.to_leaves(v)))


# ---------------------------------------------------------------------------
# subproduct tree and families


@dataclass
class PolyFamily:
    """Monic pairwise-coprime moduli with CRT infrastructure.

    flavor is one of "general", "single_power" (d = 1 and P_1 = x^m - phi;
    the constant phi may be zero), or "geometric" (all moduli linear with
    roots u, uq, uq^2, ...).
    """

    field: PrimeField
    polys: list[np.ndarray]
    degrees: list[int]
    offsets: list[int]
    total_degree: int
    flavor: str = "general"
    flavor_params: tuple = ()
    _cache: dict = dc_field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.polys)

    @functools.cached_property
    def levels(self) -> list[Moduli]:
        """The subproduct tree, leaves first and the product last, built on
        first use."""
        return _build_levels(self.field, self.polys, self.degrees)

    @functools.cached_property
    def product(self) -> np.ndarray:
        return self.polys[0] if len(self.polys) == 1 else frozen(self.levels[-1].polys[0])

    def cached(self, key, fn: Callable):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def split_vector(self, v: np.ndarray) -> list[np.ndarray]:
        if len(v) != self.total_degree:
            raise DimensionMismatch(
                f"vector length {len(v)} != family total degree {self.total_degree}")
        return [v[s: s + d] for s, d in zip(self.offsets, self.degrees)]

    def to_leaves(self, v: np.ndarray) -> np.ndarray:
        """Joined vectors (…, m) as leaf rows (…, d, w), block i in row i."""
        d, w = len(self), self.levels[0].width
        if d * w == self.total_degree:  # equal degrees: the layouts agree
            return v.reshape(v.shape[:-1] + (d, w))
        out = self.field.zeros(v.shape[:-1] + (d * w,))
        out[..., self._slots] = v
        return out.reshape(v.shape[:-1] + (d, w))

    def from_leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf rows (…, d, w) back to joined vectors (…, m)."""
        flat = X.reshape(X.shape[:-2] + (X.shape[-2] * X.shape[-1],))
        return flat if flat.shape[-1] == self.total_degree else flat[..., self._slots]

    @functools.cached_property
    def _slots(self) -> np.ndarray:
        """Position of each joined entry in the flattened leaf rows."""
        width = self.levels[0].width
        return frozen(np.concatenate([i * width + np.arange(d) for i, d in enumerate(self.degrees)]))

    # units: E_i = (P / P_i) mod P_i and F_i = E_i^{-1} mod P_i, as rows
    def crt_units(self):
        return self.cached("units", lambda: _compute_units(self))

    def rev_product_inverse(self, k: int) -> np.ndarray:
        """series_inv(rev(P, m), k), kept on the root of the tree at the
        largest precision seen."""
        return self.levels[-1].series(k)[0]


def _detect_flavor(f: PrimeField, polys: list[np.ndarray]):
    if len(polys) == 1:
        P = polys[0]
        m = degree(P)
        if m >= 1 and all(int(c) == 0 for c in P[1:m]):
            return "single_power", (f.neg(int(P[0])),)  # P = x^m - phi
    if len(polys) >= 2 and all(degree(P) == 1 for P in polys):
        roots = [f.neg(int(P[0])) for P in polys]
        u = roots[0]
        if u != 0 and roots[1] != 0:
            q = f.mul(roots[1], f.inv(u))
            if q != 0 and all(
                roots[i] == f.mul(roots[i - 1], q) for i in range(1, len(roots))
            ):
                return "geometric", (u, q)
    return "general", ()


def _build_levels(f: PrimeField, ps: list[np.ndarray], degs: list[int]) -> list[Moduli]:
    """The subproduct tree, one batched product per level."""
    level = Moduli(f, stacked(f, ps, len(ps), max(degs) + 1), degs)
    levels = [level]
    while len(level) > 1:
        n, half = len(level), len(level) // 2
        up = level.degs[: 2 * half: 2] + level.degs[1: 2 * half: 2]
        rows = f.conv(level.polys[: 2 * half: 2], level.polys[1: 2 * half: 2])
        if n % 2:
            up = np.append(up, level.degs[-1])
            rows = np.concatenate([rows, padded(f, level.polys[-1:], rows.shape[1])])
        level = Moduli(f, padded(f, rows, int(up.max()) + 1), up)
        levels.append(level)
    return levels


def family_build(f: PrimeField, polys: Sequence[Sequence[int]]) -> PolyFamily:
    """Validate moduli (monic, pairwise coprime) and assemble the family."""
    ps = [frozen(as_poly(f, p)) for p in polys]
    if not ps:
        raise DimensionMismatch("empty family")
    for i, p in enumerate(ps):
        if degree(p) < 1 or int(p[-1]) != 1:
            raise NotMonic(i)
    degs = [degree(p) for p in ps]
    offs = [0] * len(ps)
    for i in range(1, len(ps)):
        offs[i] = offs[i - 1] + degs[i - 1]
    flavor, params = _detect_flavor(f, ps)
    fam = PolyFamily(
        field=f, polys=ps, degrees=degs, offsets=offs, total_degree=sum(degs),
        flavor=flavor, flavor_params=params,
    )
    if flavor == "geometric":
        # distinct points are coprime moduli; units wait for a caller
        k = _geom_collision(f, params[1], len(ps))
        if k:
            raise NotCoprime(0, k)
    else:
        fam.crt_units()  # doubles as the pairwise-coprimality check
    return fam


def _compute_units(fam: PolyFamily):
    """The units (E_i), (F_i) as frozen rows, one per block."""
    f = fam.field
    if len(fam) == 1:
        one = frozen(np.ones((1, 1), dtype=f.dtype))
        return one, one
    if fam.flavor == "geometric":
        # E_i = P'(u·q^i) in closed form: one chirp evaluation of P'
        P = fam.product
        deriv = np.arange(1, len(P)).astype(f.dtype) * P[1:] % f.p
        es = _chirp(fam).eval(deriv, len(fam))
        return frozen(es.reshape(-1, 1)), frozen(f.inv_array(es).reshape(-1, 1))
    # P* = sum_i P/P_i reduces to E_i = (P/P_i) mod P_i at each leaf
    ones = f.zeros(fam.total_degree)
    ones[fam.offsets] = 1
    es = fam.to_leaves(red_family(fam, comb_family(fam, ones)))
    fs, ok = fam.levels[0].inverse(es)
    if not ok.all():
        raise NotCoprime(*_find_noncoprime_pair(fam, int(np.argmin(ok))))
    return frozen(es), frozen(fs)


def _find_noncoprime_pair(fam: PolyFamily, i: int):
    """The first member j ≠ i sharing a factor with P_i, when P_i shares one
    with P/P_i (so with some P_j), as a sorted pair: P_i reduced modulo
    every leaf and inverted there in one batch."""
    leaves = fam.levels[0]
    _, ok = leaves.inverse(leaves.rem(np.tile(fam.polys[i], (len(fam), 1))))
    j = next(j for j in range(len(fam)) if j != i and not ok[j])
    return (min(i, j), max(i, j))


def _check_length(fam: PolyFamily, v: np.ndarray):
    if v.shape[-1] != fam.total_degree:
        raise DimensionMismatch(
            f"vector length {v.shape[-1]} != family total degree {fam.total_degree}")


def _down(fam: PolyFamily, A: np.ndarray) -> np.ndarray:
    """Rows A (…, N) reduced down the tree: leaf rows (…, d, w)."""
    R = A[..., None, :]
    for level in reversed(fam.levels):
        R = level.rem(R[..., np.arange(len(level)) // 2, :])
    return R


def _up(fam: PolyFamily, X: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Leaf rows X (…, d, w) combined up the tree: at each level, the pair
    (a, b) under nodes (A, B) becomes a·B + b·A (a·rev(B) + b·rev(A) when
    reverse).  Returns the root's row (…, m)."""
    f = fam.field
    for level, parent in zip(fam.levels, fam.levels[1:]):
        half = len(level) // 2
        prod = f.conv(X, level.co_rev if reverse else level.co)
        pairs = prod[..., : 2 * half, :]
        X = pairs.reshape(pairs.shape[:-2] + (half, 2, pairs.shape[-1])).sum(axis=-2) % f.p
        if len(level) % 2:
            X = np.concatenate([X, prod[..., 2 * half:, :]], axis=-2)
        X = padded(f, X, parent.width)
    return X[..., 0, :]


def red_family(fam: PolyFamily, a: np.ndarray) -> np.ndarray:
    """Residues a mod P_i, joined (…, m), for a polynomial or a block of rows
    (…, N) of any length."""
    if fam.flavor == "geometric":
        return _chirp(fam).eval(a, len(fam))
    return fam.from_leaves(_down(fam, a))


def comb_family(fam: PolyFamily, parts: np.ndarray) -> np.ndarray:
    """The linear-combination map: sum_i parts_i * (P / P_i), for joined
    parts (…, m); the coefficients come padded to m."""
    _check_length(fam, parts)
    return _up(fam, fam.to_leaves(parts))


def comb_family_inv(fam: PolyFamily, a: np.ndarray) -> np.ndarray:
    """Inverse of comb_family on F[x]_m: scale residues by the units F_i."""
    return modmul_apply(fam.crt_units()[1], fam, red_family(fam, a))


def crt_family(fam: PolyFamily, parts: np.ndarray) -> np.ndarray:
    """Unique a in F[x]_m with a = parts_i mod P_i, for joined parts (…, m);
    the coefficients come padded to m."""
    _check_length(fam, parts)
    if fam.flavor == "geometric":
        return geom_interp(fam, parts)
    if len(fam) == 1:
        return parts
    leaves = fam.levels[0]
    return _up(fam, leaves.modmul(fam.crt_units()[1], fam.to_leaves(parts)))


# ---------------------------------------------------------------------------
# transposed reduction
#
# The stacked-reduction matrix W maps coefficients of a in F[x]_m to the
# concatenated residues (a mod P_i)_i. Its transpose admits a generating-
# series description: the block u_i contributes the first m terms of
# N_i / rev(P_i) where N_i = (u_i * rev(P_i)) mod y^{m_i}; summing over i
# with the common denominator rev(P) lets one combine numerators up the
# subproduct tree and finish with a single series division.
#
# The inverse-transpose (the transposed CRT map) runs the tree downwards
# instead: each node passes to a child the "transposed multiplication"
# (a windowed correlation) of its vector by the co-child's product, and the
# leaves finish with a transposed multiplication-mod-P_i by the unit F_i.


def red_transposed(fam: PolyFamily, u: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Wᵗ·u (W⁻ᵗ·u when inverse) for a vector or a block of rows (…, m)."""
    f = fam.field
    _check_length(fam, u)
    if inverse:
        return _crt_transposed(fam, u)
    leaves = fam.levels[0]
    num = f.conv(fam.to_leaves(u), leaves.rev)[..., : leaves.width] * leaves.mask
    m = fam.total_degree
    return f.conv(_up(fam, num, reverse=True), fam.rev_product_inverse(m))[..., :m]


def _crt_transposed(fam: PolyFamily, u: np.ndarray) -> np.ndarray:
    f = fam.field
    R = u[..., None, :]
    for level in reversed(fam.levels[:-1]):
        # (result)_t = sum_i c_i v_{t+i} for t < d: a window of the product
        # with the co-child reversed at the common width
        w = level.width
        V = R[..., np.arange(len(level)) // 2, :]
        R = f.conv(level.co[:, ::-1], V)[..., w: 2 * w] * level.mask
    leaves = fam.levels[0]
    units = fam.crt_units()[1]
    return fam.from_leaves(
        leaves.symmetrize(leaves.modmul(units, leaves.symmetrize(R)), inverse=True))


# ---------------------------------------------------------------------------
# geometric evaluation / interpolation (chirp transforms)


def _geom_collision(f: PrimeField, q: int, count: int) -> int:
    """The first k in [1, count) with q^k = 1, so that the points u and
    u·q^k coincide, or 0 when all count points are distinct."""
    acc = 1
    for k in range(1, count):
        acc = acc * q % f.p
        if acc == 1:
            return k
    return 0


def _geom_check(f: PrimeField, u: int, q: int, count: int):
    if count <= 0:
        return
    if u % f.p == 0 or q % f.p == 0:
        raise DegeneratePoints("u and q must be nonzero")
    k = _geom_collision(f, q, count)
    if k:
        raise DegeneratePoints(f"q has multiplicative order {k} < {count}")


def _tri_powers(f: PrimeField, q: int, n: int) -> np.ndarray:
    """T_k = q^(k(k-1)/2) for k = 0..n-1."""
    out = [1] * n
    step = 1
    for k in range(1, n):
        out[k] = out[k - 1] * step % f.p
        step = step * q % f.p
    return np.array(out, dtype=f.dtype)


class _Chirp:
    """Evaluation at the points u·q^i by one convolution, with its tables
    T_k = q^(k(k-1)/2), their inverses and the powers u^k, grown on demand."""

    def __init__(self, f: PrimeField, u: int, q: int):
        self.field, self.u, self.q = f, u, q
        self.tri = self.tri_inv = self.upow = np.ones(0, dtype=f.dtype)

    def eval(self, a: np.ndarray, count: int) -> np.ndarray:
        """a at the first count points, for a polynomial or a block of rows."""
        f = self.field
        n = a.shape[-1]
        if count == 0 or n == 0:
            return f.zeros(a.shape[:-1] + (count,))
        if len(self.tri) < n + count:
            size = max(n + count, 2 * len(self.tri))
            self.tri = frozen(_tri_powers(f, self.q, size))
            self.tri_inv = frozen(f.inv_array(self.tri))
            self.upow = frozen(f.powers(self.u, size))
        b = a * self.upow[:n] % f.p * self.tri_inv[:n] % f.p
        c = f.conv(b[..., ::-1], self.tri[: n + count])
        return c[..., n - 1: n - 1 + count] * self.tri_inv[:count] % f.p


def _chirp(fam: PolyFamily) -> _Chirp:
    """The chirp of a geometric family's points u·q^i."""
    return fam.cached("chirp", lambda: _Chirp(fam.field, *fam.flavor_params))


def geom_eval(f: PrimeField, a: np.ndarray, u: int, q: int, count: int) -> np.ndarray:
    """Evaluate a at the points u*q^i, i = 0..count-1, via one convolution;
    a may be a block of rows (…, n)."""
    _geom_check(f, u, q, count)
    return _Chirp(f, u, q).eval(a, count)


def geom_interp(fam: PolyFamily, values: np.ndarray) -> np.ndarray:
    """Interpolate the polynomial of degree < n through (u*q^i, values[i])
    for the n points of a geometric family, for a vector or a block of rows
    of values (…, n); the coefficients come padded to n.

    The master polynomial is the family's product P and the weights are its
    CRT units F_i = 1/P'(u*q^i); the interpolant is recovered as
    P(x) * S(x) mod x^n where S is the power-series expansion of the
    weighted partial-fraction sum.
    """
    f = fam.field
    if fam.flavor != "geometric":
        raise DegeneratePoints(f"geom_interp needs a geometric family, got a {fam.flavor} one")
    n = len(fam)
    if values.shape[-1] != n:
        raise DimensionMismatch(f"expected {n} values, got {values.shape[-1]}")
    # power sums sigma_s = sum_i w_i (u q^i)^-s = u^-s W(q^-s) for s = 1..n,
    # with W = sum_i w_i x^i evaluated at the geometric points q^-1 * q^-t
    chirp, upow = fam.cached("interp", lambda: _interp_tables(fam))
    weights = values * fam.crt_units()[1][:, 0] % f.p
    sigma = chirp.eval(weights, n) * upow % f.p
    return f.conv(fam.product, (f.p - sigma) % f.p)[..., :n]


def _interp_tables(fam: PolyFamily):
    """The chirp at the points q^-1·q^-t and the powers u^-s, s = 1..n."""
    f = fam.field
    u, q = fam.flavor_params
    zu, zq = f.inv(u), f.inv(q)
    return _Chirp(f, zq, zq), frozen(f.powers(zu, len(fam) + 1)[1:])
