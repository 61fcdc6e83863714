"""Dense univariate polynomials over a prime field, plus the CRT toolkit
for families of pairwise-coprime monic moduli.

Representation: a polynomial is a numpy coefficient array in ascending
order, trimmed (no trailing zeros); the zero polynomial is the empty
array. All functions take the field context as first argument.

Array contract, followed by poly, polymat, structmul, operators, generators
and structsolve:

1. Inside the library an array has the field's dtype ``f.dtype`` and holds
   residues in [0, p), and a polynomial has no trailing zero.
2. A function writes only into arrays it allocated itself: ``f.zeros``,
   ``.copy()``, or fresh ``conv``/``ntt``/ufunc output. Results may be
   views of inputs or of shared tables, and callers never write into them.
3. Anything kept for later is stored as an array of its own, never as a
   view into a larger temporary, and is marked read-only (``frozen``), so
   that a stray write raises instead of corrupting shared state. That
   covers the series-inverse memo, a family's moduli, subproduct tree,
   ``rev_inv`` and CRT units, and an operator's inverse table.

``PrimeField.arr`` establishes rule 1, and runs only where outside data
enters: ``as_poly``/``family_build``, ``Generator``, ``struct_mul``,
``gen_matvec``, ``reconstruct_dense``, the solver entry points, the
preconditioner, deserialization, the CLI and the oracle.

A ``PolyFamily`` bundles monic pairwise-coprime moduli P_1..P_d with their
subproduct tree, CRT units and a detected structure flavor ("general",
"single_power" for a lone binomial x^m - phi, "geometric" when the moduli
are x - u*q^i). Reductions, Chinese remaindering, the linear-combination
map and their transposes all run through the tree in quasi-linear time,
with fast paths for the special flavors.
"""

from __future__ import annotations

from collections import OrderedDict
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
    "poly_add",
    "poly_sub",
    "poly_neg",
    "poly_scale",
    "poly_shift",
    "poly_mul",
    "poly_divrem",
    "poly_mod",
    "poly_rev",
    "poly_eval",
    "series_inv",
    "xgcd",
    "poly_gcd",
    "poly_invmod",
    "symmetrize_apply",
    "symmetrize_solve",
    "modmul_apply",
    "modmul_apply_transposed",
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

# Switch from schoolbook long division to reverse/Newton division above
# this divisor degree.
DIVREM_NEWTON_THRESHOLD = 32


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


def poly_shift(f: PrimeField, a: np.ndarray, k: int) -> np.ndarray:
    """Multiply by x^k (k >= 0)."""
    if is_zero(a):
        return a
    out = f.zeros(len(a) + k)
    out[k:] = a
    return out


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


def series_inv(f: PrimeField, a: np.ndarray, k: int) -> np.ndarray:
    """First k coefficients of 1/a, by Newton iteration."""
    if k <= 0:
        return f.zeros(0)
    if is_zero(a) or int(a[0]) == 0:
        raise NonUnitConstantTerm("series has no inverse: constant term is 0")
    x = np.array([f.inv(int(a[0]))], dtype=f.dtype)
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        ax = f.conv(a[:prec], x)[:prec]
        two_minus = f.zeros(prec)
        two_minus[: len(ax)] = (f.p - ax) % f.p
        two_minus[0] = (two_minus[0] + 2) % f.p
        x = f.conv(x, two_minus)[:prec]
    return trim(f, x[:k])


_SERIES_INV_CACHE: OrderedDict = OrderedDict()
_SERIES_INV_CACHE_MAX = 512


def _series_inv_cached(f: PrimeField, a: np.ndarray, k: int) -> np.ndarray:
    """series_inv with a content-keyed memo, extended on demand.

    Inverting the same series comes up thousands of times in the evaluation
    paths (fast division by a family product, by subproduct-tree nodes, by a
    block's minimal polynomial, symmetrizer solves), so the Newton result is
    cached per content and regrown when a longer prefix is requested. The
    memo holds the most recently used entries and evicts the oldest one;
    its series are frozen, and callers get read-only views of them.
    """
    a = trim(f, a)
    if a.dtype == object:
        key = (f.p, tuple(int(v) for v in a))
    else:
        key = (f.p, a.tobytes())
    hit = _SERIES_INV_CACHE.get(key)
    if hit is None or hit[0] < k:
        have = max(k, 2 * hit[0]) if hit else k
        hit = (have, frozen(series_inv(f, a, have)))
        _SERIES_INV_CACHE[key] = hit
        if len(_SERIES_INV_CACHE) > _SERIES_INV_CACHE_MAX:
            _SERIES_INV_CACHE.popitem(last=False)
    _SERIES_INV_CACHE.move_to_end(key)
    return hit[1][:k]


def _divrem_school(f: PrimeField, a: np.ndarray, b: np.ndarray):
    r = a.copy()
    db = len(b) - 1
    q = f.zeros(len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = int(r[i + db])
        if c:
            q[i] = c
            r[i: i + db] = (r[i: i + db] - c * b[:db]) % f.p
            r[i + db] = 0
    return q, trim(f, r[:db])


def poly_divrem(f: PrimeField, a: np.ndarray, b: np.ndarray):
    """Quotient and remainder; the divisor must have an invertible leading
    coefficient (always true over a field unless b = 0)."""
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
    if db < DIVREM_NEWTON_THRESHOLD:
        return _divrem_school(f, a, b)
    ra = poly_rev(f, a, degree(a))
    rq = f.conv(ra[: n + 1], _series_inv_cached(f, poly_rev(f, b, db), n + 1))[: n + 1]
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


def poly_invmod(f: PrimeField, a: np.ndarray, P: np.ndarray) -> np.ndarray | None:
    """a⁻¹ mod P, or None when gcd(a, P) ≠ 1."""
    g, s, _ = xgcd(f, a, P)
    if degree(g) != 0:
        return None
    return poly_mod(f, s, P)


# ---------------------------------------------------------------------------
# triangular Hankel symmetrizer of a monic modulus
#
# For monic P of degree m the symmetrizer has (i,j) entry p_{i+j-1}
# (1-indexed, p_m = 1, p_t = 0 above m). It links multiplication matrices
# mod P to their transposes. Both the product and its inverse reduce to one
# convolution against a reversed vector.


def symmetrize_apply(f: PrimeField, P: np.ndarray, v: np.ndarray) -> np.ndarray:
    m = degree(P)
    if len(v) != m:
        raise DimensionMismatch(f"vector length {len(v)} != modulus degree {m}")
    if not np.count_nonzero(v):  # unit and sparse block columns skip the transform
        return f.zeros(m)
    a = f.zeros(m + 1)
    a[1:] = P[1:]
    return f.conv(a, v[::-1])[m: 2 * m]


def symmetrize_solve(f: PrimeField, P: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the inverse symmetrizer: flip the vector, then multiply by the
    inverse of the unit lower-triangular Toeplitz matrix whose symbol is
    rev(P) truncated to m terms."""
    m = degree(P)
    if len(v) != m:
        raise DimensionMismatch(f"vector length {len(v)} != modulus degree {m}")
    if not np.count_nonzero(v):
        return f.zeros(m)
    s = _series_inv_cached(f, poly_rev(f, P, m), m)
    return padded(f, f.conv(s, v[::-1]), m)


def modmul_apply(f: PrimeField, F: np.ndarray, P: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficients of F·pol(v) mod P, padded to deg P.

    v may have any length; the rectangular map M_{F,P,ℓ} = M_{F,P}·W_{P,ℓ}
    is realized by reducing pol(v) mod P first.
    """
    k = degree(P)
    r = poly_mod(f, trim(f, v), P)
    return padded(f, poly_mod(f, poly_mul(f, trim(f, F), r), P), k)


def modmul_apply_transposed(f: PrimeField, F: np.ndarray, P: np.ndarray,
                            v: np.ndarray) -> np.ndarray:
    """M_{F,P}ᵗ·v via the symmetrizer conjugation Y_P⁻¹·M_{F,P}·Y_P."""
    k = degree(P)
    if len(v) != k:
        raise DimensionMismatch(f"vector length {len(v)} != deg P = {k}")
    return symmetrize_solve(f, P, modmul_apply(f, F, P, symmetrize_apply(f, P, v)))


def padded(f: PrimeField, a: np.ndarray, n: int) -> np.ndarray:
    """A fresh length-n copy of a: cut, or zero-padded at the top."""
    out = f.zeros(n)
    k = min(n, len(a))
    out[:k] = a[:k]
    return out


# ---------------------------------------------------------------------------
# subproduct tree and families


@dataclass
class _TreeNode:
    poly: np.ndarray
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    leaf: int = -1  # index of the family member at a leaf


def _build_tree(f: PrimeField, polys: list[np.ndarray], lo: int, hi: int) -> _TreeNode:
    if hi - lo == 1:
        return _TreeNode(polys[lo], leaf=lo)
    total = sum(degree(p) for p in polys[lo:hi])
    acc, cut = 0, lo + 1
    for i in range(lo, hi - 1):
        acc += degree(polys[i])
        cut = i + 1
        if 2 * acc >= total:
            break
    left = _build_tree(f, polys, lo, cut)
    right = _build_tree(f, polys, cut, hi)
    return _TreeNode(frozen(poly_mul(f, left.poly, right.poly)), left, right)


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
    product: np.ndarray
    tree: _TreeNode
    flavor: str = "general"
    flavor_params: tuple = ()
    _cache: dict = dc_field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.polys)

    def cached(self, key, fn: Callable):
        v = self._cache.get(key)
        if v is None:
            v = fn()
            self._cache[key] = v
        return v

    def split_vector(self, v: np.ndarray) -> list[np.ndarray]:
        if len(v) != self.total_degree:
            raise DimensionMismatch(
                f"vector length {len(v)} != family total degree {self.total_degree}")
        return [v[s: s + d] for s, d in zip(self.offsets, self.degrees)]

    def join_parts(self, parts: list[np.ndarray]) -> np.ndarray:
        if len(parts) != len(self.polys):
            raise DimensionMismatch(f"expected {len(self.polys)} parts, got {len(parts)}")
        out = self.field.zeros(self.total_degree)
        for s, d, part in zip(self.offsets, self.degrees, parts):
            if len(part) > d:
                raise DimensionMismatch("part exceeds its block degree")
            if len(part):
                out[s: s + len(part)] = part
        return out

    # units: E_i = (P / P_i) mod P_i and F_i = E_i^{-1} mod P_i
    def crt_units(self):
        return self.cached("units", lambda: _compute_units(self))

    def rev_product_inverse(self, k: int) -> np.ndarray:
        """series_inv(rev(P, m), k), cached at the largest precision seen.
        The precision is kept beside the series, which may trim shorter."""
        prec, have = self._cache.get("rev_inv", (0, None))
        if prec < k:
            prec = max(k, self.total_degree)
            have = frozen(series_inv(self.field,
                                     poly_rev(self.field, self.product, self.total_degree), prec))
            self._cache["rev_inv"] = (prec, have)
        return have[:k]


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
    tree = _build_tree(f, ps, 0, len(ps))
    flavor, params = _detect_flavor(f, ps)
    fam = PolyFamily(
        field=f, polys=ps, degrees=degs, offsets=offs,
        total_degree=sum(degs), product=tree.poly, tree=tree,
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
    """The units (E_i), (F_i) as frozen arrays."""
    f = fam.field
    if len(fam) == 1:
        one = frozen(np.ones(1, dtype=f.dtype))
        return [one], [one]
    if fam.flavor == "geometric":
        # E_i = P'(u·q^i) in closed form: one chirp evaluation of P'
        u, q = fam.flavor_params
        P = fam.product
        deriv = trim(f, np.arange(1, len(P)).astype(f.dtype) * P[1:] % f.p)
        es = frozen(geom_eval(f, deriv, u, q, len(fam)))
        return list(es.reshape(-1, 1)), list(frozen(f.inv_array(es)).reshape(-1, 1))
    # P* = sum_i P/P_i reduces to E_i = (P/P_i) mod P_i at each leaf
    p_star = comb_family(fam, [np.ones(1, dtype=f.dtype)] * len(fam))
    es = [frozen(e) for e in _reduce_down(fam, p_star)]
    fs = []
    for i, (e, p) in enumerate(zip(es, fam.polys)):
        fi = poly_invmod(f, e, p)
        if fi is None:
            raise NotCoprime(*_find_noncoprime_pair(fam, i))
        fs.append(frozen(fi))
    return es, fs


def _find_noncoprime_pair(fam: PolyFamily, i: int):
    f = fam.field
    for j in range(len(fam)):
        if j != i and degree(poly_gcd(f, fam.polys[i], fam.polys[j])) > 0:
            return (min(i, j), max(i, j))
    return (i, i)  # shared factor spread across several members


def _reduce_down(fam: PolyFamily, a: np.ndarray) -> list[np.ndarray]:
    out: list[np.ndarray] = [None] * len(fam)  # type: ignore[list-item]

    def walk(node: _TreeNode, r: np.ndarray):
        r = poly_mod(fam.field, r, node.poly)
        if node.leaf >= 0:
            out[node.leaf] = r
            return
        walk(node.left, r)
        walk(node.right, r)

    walk(fam.tree, a)
    return out


def red_family(fam: PolyFamily, a: np.ndarray) -> list[np.ndarray]:
    """Residues a mod P_i for all i (input of any degree)."""
    if fam.flavor == "geometric":
        u, q = fam.flavor_params
        vals = geom_eval(fam.field, a, u, q, len(fam))
        return [trim(fam.field, vals[i: i + 1]) for i in range(len(fam))]
    return _reduce_down(fam, a)


def comb_family(fam: PolyFamily, parts: list[np.ndarray]) -> np.ndarray:
    """The linear-combination map: sum_i parts_i * (P / P_i)."""
    if len(parts) != len(fam):
        raise DimensionMismatch(f"expected {len(fam)} parts, got {len(parts)}")
    f = fam.field

    def walk(node: _TreeNode):
        if node.leaf >= 0:
            part = parts[node.leaf]
            if degree(part) >= degree(node.poly) and not is_zero(part):
                raise DimensionMismatch("part degree exceeds its modulus")
            return part
        lv = walk(node.left)
        rv = walk(node.right)
        return poly_add(f, poly_mul(f, lv, node.right.poly),
                        poly_mul(f, rv, node.left.poly))

    return walk(fam.tree)


def comb_family_inv(fam: PolyFamily, a: np.ndarray) -> list[np.ndarray]:
    """Inverse of comb_family on F[x]_m: scale residues by the units F_i."""
    f = fam.field
    _, fs = fam.crt_units()
    return [poly_mod(f, poly_mul(f, r, fi), p)
            for r, fi, p in zip(_reduce_down(fam, a), fs, fam.polys)]


def crt_family(fam: PolyFamily, parts: list[np.ndarray]) -> np.ndarray:
    """Unique a in F[x]_m with a = parts_i mod P_i."""
    if len(parts) != len(fam):
        raise DimensionMismatch(f"expected {len(fam)} parts, got {len(parts)}")
    f = fam.field
    if fam.flavor == "geometric":
        if any(len(p) > 1 for p in parts):
            raise DimensionMismatch("part degree exceeds its modulus")
        vals = np.array([p[0] if len(p) else 0 for p in parts], dtype=f.dtype)
        return geom_interp(fam, vals)
    if len(fam) == 1:
        return poly_mod(f, parts[0], fam.polys[0])
    _, fs = fam.crt_units()
    scaled = [poly_mod(f, poly_mul(f, part, fi), p)
              for part, fi, p in zip(parts, fs, fam.polys)]
    return comb_family(fam, scaled)


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
    f = fam.field
    if inverse:
        return _crt_transposed(fam, u)
    if len(u) != fam.total_degree:
        raise DimensionMismatch(
            f"vector length {len(u)} != family total degree {fam.total_degree}")

    def numerator(node: _TreeNode, blocks: np.ndarray) -> np.ndarray:
        if node.leaf >= 0:
            mi = fam.degrees[node.leaf]
            ui = blocks[:mi]
            ni = f.conv(ui, poly_rev(f, node.poly, mi))[:mi] if mi else f.zeros(0)
            return trim(f, ni)
        dl = degree(node.left.poly)
        nl = numerator(node.left, blocks[:dl])
        nr = numerator(node.right, blocks[dl:])
        dr = degree(node.right.poly)
        return poly_add(
            f,
            poly_mul(f, nl, poly_rev(f, node.right.poly, dr)),
            poly_mul(f, nr, poly_rev(f, node.left.poly, dl)),
        )

    m = fam.total_degree
    num = numerator(fam.tree, u)
    inv = fam.rev_product_inverse(m)
    return padded(f, f.conv(num, inv), m)


def _transposed_multiply(f: PrimeField, c: np.ndarray, u: np.ndarray, out_len: int) -> np.ndarray:
    """Transpose of 'multiply by the fixed polynomial c': a windowed
    correlation, (result)_k = sum_i c_i u_{k+i} for k < out_len."""
    dc = degree(c)
    corr = f.conv(poly_rev(f, c, dc), u)
    return padded(f, corr[dc:], out_len)


def _crt_transposed(fam: PolyFamily, u: np.ndarray) -> np.ndarray:
    f = fam.field
    if len(u) != fam.total_degree:
        raise DimensionMismatch(
            f"vector length {len(u)} != family total degree {fam.total_degree}")
    _, fs = fam.crt_units()
    out = f.zeros(fam.total_degree)

    def walk(node: _TreeNode, vec: np.ndarray):
        if node.leaf >= 0:
            i = node.leaf
            out[fam.offsets[i]: fam.offsets[i] + fam.degrees[i]] = \
                modmul_apply_transposed(f, fs[i], fam.polys[i], vec)
            return
        dl = degree(node.left.poly)
        dr = degree(node.right.poly)
        walk(node.left, _transposed_multiply(f, node.right.poly, vec, dl))
        walk(node.right, _transposed_multiply(f, node.left.poly, vec, dr))

    walk(fam.tree, u)
    return out


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


def geom_eval(f: PrimeField, a: np.ndarray, u: int, q: int, count: int) -> np.ndarray:
    """Evaluate a at the points u*q^i, i = 0..count-1, via one convolution."""
    _geom_check(f, u, q, count)
    if count == 0:
        return f.zeros(0)
    if is_zero(a):
        return f.zeros(count)
    n = len(a)
    tri = _tri_powers(f, q, n + count)
    tri_inv = f.inv_array(tri[: max(n, count)])
    b = a * f.powers(u, n) % f.p * tri_inv[:n] % f.p
    c = f.conv(b[::-1], tri)
    return c[n - 1: n - 1 + count] * tri_inv[:count] % f.p


def geom_interp(fam: PolyFamily, values: np.ndarray) -> np.ndarray:
    """Interpolate the polynomial of degree < n through (u*q^i, values[i])
    for the n points of a geometric family.

    The master polynomial is the family's product P and the weights are its
    CRT units F_i = 1/P'(u*q^i); the interpolant is recovered as
    P(x) * S(x) mod x^n where S is the power-series expansion of the
    weighted partial-fraction sum.
    """
    f = fam.field
    if fam.flavor != "geometric":
        raise DegeneratePoints(f"geom_interp needs a geometric family, got a {fam.flavor} one")
    u, q = fam.flavor_params
    n = len(fam)
    if len(values) != n:
        raise DimensionMismatch(f"expected {n} values, got {len(values)}")
    weights = trim(f, values * np.concatenate(fam.crt_units()[1]) % f.p)
    # power sums sigma_s = sum_i w_i (u q^i)^-s = u^-s W(q^-s) for s = 1..n,
    # with W = sum_i w_i x^i evaluated at the geometric points q^-1 * q^-t
    zu, zq = f.inv(u), f.inv(q)
    sigma = geom_eval(f, weights, zq, zq, n) * f.powers(zu, n + 1)[1:] % f.p
    return trim(f, f.conv(fam.product, (f.p - sigma) % f.p)[:n])
