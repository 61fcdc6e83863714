"""Word-size prime field arithmetic with vectorized numpy kernels.

Scalars are canonical Python ints in [0, p); bulk data lives in numpy
arrays (int64 when products of two residues fit in a signed 64-bit word,
Python-object arrays otherwise, e.g. for the 62-bit benchmark prime).
An int64 sum holds slack = ⌊2^63/p²⌋ such products (9 at 998244353, 1
above 2^31): every int64 kernel sizes its unreduced sums by it.

The int64 fields' matrix products run exactly through BLAS dgemm in
float64 (Dumas, Giorgi and Pernet 2008).  One operand is whole residues,
|x| < p; the other is stored as two 15-bit limbs, lo and 2^15·hi
(_limb_stack), with |lo| ≤ 2^14 and |hi| ≤ B = ⌊(p-1)/2^16⌋ + 1 ≤ 2^15.5.
A sum of at most room = ⌊2^52/(p·max(B, 2^14))⌋ such products (275 at
998244353, 31 at 3037000493) is an integer below 2^52, or 2^15 times one,
so every partial sum is exact, whatever the BLAS summation order or FMA.
The two sums are reduced by one routine (_settle): the high one modulo
2^15·p, then lo + hi modulo p (_reduce).  Three users multiply this way:

- the number-theoretic transform (NTT), along the last axis of an array
  of any shape, which lets polynomial-matrix code batch thousands of
  transforms into a handful of numpy calls.  It is a mixed-radix four-step
  transform (Bailey 1990) whose passes multiply by DFT matrices of size at
  most min(128, room).  Each length has one plan in one form: up to
  _NTT_MERGED_MAX one matrix product per pass, the twiddles folded into
  per-column matrices; longer lengths with twiddles and reductions between
  passes as float64 array operations.  Both run slab by slab, in blocks of
  rows small enough to stay in cache.  Object-dtype fields run a radix-2
  loop.
- ``points_mat_mul``, one small matrix product per evaluation point, the
  step between a polynomial-matrix product's transforms, slab by slab
  through _limb_mat_mul, the one general such product: one broadcast
  matmul with both limbs per room inner terms.
- block convolutions (_conv_toeplitz): each row times the Toeplitz matrix
  of the row it is convolved with, for a whole block in one _limb_mat_mul.

Convolution (``conv``) picks one of three routes by prime and shape:

- the limb kernel, for every prime: residues are cut into 16-bit int64
  limbs, or kept whole when the shorter factor has at most slack terms,
  and on object-dtype fields also when the whole product has at most
  _WHOLE_CONV_TERMS_OBJECT term products; each limb product is one
  ``np.convolve`` (for a block of rows, one matrix product of sliding
  windows), and the limb weights are recombined mod p.  It takes a factor
  of at most slack terms, one row of at most 1024 output terms, and
  everything else on primes without the transform length;
- on int64 fields, the Toeplitz route for a block of rows whose matrices
  hold at most _TOEPLITZ_FLOATS entries, whatever the prime's transform
  length;
- the NTT for longer products, when p - 1 has the 2-adic room for their
  transform length.

Like the NTT, ``conv`` works along the last axis and broadcasts over the
leading ones.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "ZeroInverse",
    "PrimeField",
    "DEFAULT_PRIME",
    "BENCH_PRIME",
    "NAMED_PRIMES",
    "get_field",
]

# 119 * 2^23 + 1, primitive root 3; the classic FFT prime just under 2^30.
DEFAULT_PRIME = 998244353
# 1073741806 * 2^32 + 1 (62 bits, two-adicity 33, primitive root 3); used
# for large-instance benchmarks where coefficient growth matters.
BENCH_PRIME = 4611685941117976577

NAMED_PRIMES = {"default": DEFAULT_PRIME, "p62": BENCH_PRIME}

# int64 products a*b with a,b < 2^31.5 stay below 2^63; primes above this
# bound switch to exact Python-int (object dtype) arithmetic.
_INT64_SAFE_BOUND = 3_037_000_499

# up to these output lengths the limb kernel wins over the transform, on int64
# and on object-dtype fields (the sweep is in BENCH_11.json)
_SPLIT_CONV_CUTOFF = 1024
_SPLIT_CONV_CUTOFF_OBJECT = 3072

# up to this many term products (rows × la × lb) an object-dtype product
# convolves whole residues; above it the 4-limb split wins (BENCH_14.json)
_WHOLE_CONV_TERMS_OBJECT = 3024

# the most float64 entries of the Toeplitz matrices a block convolution
# builds (1 MB): up to it the Toeplitz route read 0.32-1.12 of the NTT's time
# on blocks of 1-64 rows per matrix, beyond it 0.66-8.6, below 1 only with
# 16-64 rows per matrix (tools/route_sweep.py --part toeplitz, BENCH_31.json)
_TOEPLITZ_FLOATS = 1 << 17

# elements of a slab of rows that ntt transforms at once, so that its float64
# work arrays (4 × 8 bytes × slab) stay in a core's L2 cache
_NTT_SLAB = 1 << 14

# the longest transform length that takes ntt's one-slab form (at most two
# merged passes), slab by slab in a block of several slabs; longer ones take
# the slab form (tools/route_sweep.py, BENCH_20.json, BENCH_28.json)
_NTT_MERGED_MAX = 1024

# log2 of the largest DFT matrix a transform pass multiplies by
_NTT_RADIX_BITS = 7

# products per BLAS call of a slab-form pass (_dft).  OpenBLAS runs calls
# this small on the calling thread; larger ones it may spread over threads,
# and on a busy 2-core machine such a call stalled for 4-12 ms.  Calls this
# small also ran faster than one call per pass (BENCH_11.json).
_GEMM_MACS = 1 << 18

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


_LOSSY_FLOAT = "float entries must be integers below 2^53 in absolute value"


def _as_int(v) -> int:
    """int(v) for an entry of an object array, refusing a float that does not
    stand for one integer exactly: non-integral, non-finite or ≥ 2^53."""
    if type(v) is int:
        return v
    if isinstance(v, (float, np.floating)) and not (abs(v) < 2.0**53 and v == int(v)):
        raise ValueError(_LOSSY_FLOAT)
    return int(v)


class _Plan(NamedTuple):
    """An int64 field's transform of one length and direction in one of
    ntt's two forms, one entry of passes per pass: the one-slab form's
    matrices when merged, else the slab form's (DFT matrix, twiddles)."""

    merged: bool
    passes: tuple


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting 0 (or a multiple of p)."""


def _is_probable_prime(n: int) -> bool:
    # Miller-Rabin with the witnesses 2..41 is exact below 3317044064679887385961981,
    # the least strong pseudoprime to all of them (OEIS A014233); PrimeField
    # refuses larger moduli
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int) -> list[int]:
    """Distinct prime factors by trial division (fine for the sizes we see)."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


class PrimeField:
    """Arithmetic context for F_p.

    Instances are cheap to create and hashable by modulus.  Transform plans
    (twiddle tables) are cached per (size, direction) in _root_cache: the
    sizes are powers of two up to 2^two_adicity, so it holds at most
    2·(two_adicity + 1) plans.
    """

    def __init__(self, p: int):
        if p >= 3317044064679887385961981:
            raise ValueError(f"modulus {p} is not below 3317044064679887385961981, "
                             "the bound up to which primality is decided exactly")
        if p < 2 or not _is_probable_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.dtype = np.int64 if p <= _INT64_SAFE_BOUND else object
        d = p - 1
        t = 0
        while d % 2 == 0:
            d //= 2
            t += 1
        self.two_adicity = t
        self._generator: int | None = {DEFAULT_PRIME: 3, BENCH_PRIME: 3}.get(p)
        # ntt plans (int64 fields) or root powers (object fields) per (n, invert)
        self._root_cache: dict[tuple[int, bool], _Plan | np.ndarray] = {}
        # products of two residues an int64 sum holds; 1 on object arrays
        self._slack = max(1, (1 << 63) // (p * p))
        # products of a residue and a limb of _limb_stack a float64 sum holds
        # below 2^52 (see the module docstring); 0 on object arrays
        self._room = (1 << 52) // (p * max(1 << 14, ((p - 1) >> 16) + 1))
        # bit offsets of the 16-bit limbs of a residue, one row per limb
        limbs = -(-p.bit_length() // 16)
        self._limb_shifts = np.arange(0, 16 * limbs, 16).reshape(-1, 1)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    # -- scalar ops ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroInverse(f"0 is not invertible mod {self.p}")
        return pow(a, -1, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a % self.p, e, self.p)

    @property
    def generator(self) -> int:
        """A generator of the multiplicative group F_p^*."""
        if self._generator is None:
            factors = _factorize(self.p - 1)
            g = 1  # the generator of F_2^*; every larger p moves on to 2
            while True:
                if all(pow(g, (self.p - 1) // q, self.p) != 1 for q in factors):
                    self._generator = g
                    break
                g += 1
        return self._generator

    # -- array helpers ------------------------------------------------------

    def arr(self, values: Iterable[int] | np.ndarray) -> np.ndarray:
        """Canonical residue array (always a fresh copy).

        Raises ValueError for a float entry that is not an integer below
        2^53 in absolute value (non-integral, non-finite or rounded)."""
        if self.dtype is object:
            a = np.asarray(values, dtype=object)
            return np.array([_as_int(v) % self.p for v in a.ravel()], dtype=object).reshape(a.shape)
        a = np.asarray(values)
        if a.dtype == object:  # Python ints of any size
            return np.array([_as_int(v) % self.p for v in a.ravel()], dtype=np.int64).reshape(a.shape)
        if a.dtype.kind == "f" and not np.all((np.abs(a) < 2.0**53) & (a == np.rint(a))):
            raise ValueError(_LOSSY_FLOAT)
        if a.dtype == np.uint64:  # entries >= 2^63 would wrap in the int64 cast
            a = a % np.uint64(self.p)
        return np.mod(a.astype(np.int64, copy=True), self.p)

    def zeros(self, shape) -> np.ndarray:
        if self.dtype is object:
            z = np.empty(shape, dtype=object)
            z[...] = 0
            return z
        return np.zeros(shape, dtype=np.int64)

    def inv_array(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverse via one modexp (prefix-product trick)."""
        flat = [int(v) for v in np.asarray(a).ravel()]
        n = len(flat)
        pref = [1] * (n + 1)
        for i, v in enumerate(flat):
            pref[i + 1] = pref[i] * v % self.p
        if pref[n] == 0:
            raise ZeroInverse("array contains a non-invertible entry")
        run = self.inv(pref[n])
        out = [0] * n
        for i in range(n - 1, -1, -1):
            out[i] = pref[i] * run % self.p
            run = run * flat[i] % self.p
        res = np.array(out, dtype=self.dtype)
        return res.reshape(np.asarray(a).shape)

    def mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact (a @ b) % p with overflow-safe accumulation blocks."""
        if self.dtype is object:
            return np.mod(np.asarray(a, dtype=object) @ np.asarray(b, dtype=object), self.p)
        k = a.shape[-1]
        # an accumulator below p plus slack - 1 products stays below slack·p²
        step = max(1, self._slack - 1)
        if k <= step:
            return (a @ b) % self.p
        acc = (a[..., :step] @ b[..., :step, :]) % self.p
        for lo in range(step, k, step):
            acc = (acc + a[..., lo:lo + step] @ b[..., lo:lo + step, :]) % self.p
        return acc

    def points_mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum_k a[i, k, s]·b[k, j, s] mod p, one matrix product per point s,
        for int64 residues a (rows, k, points) and b given as the limb
        stack of its points-major form, _limb_stack(b.transpose(2, 0, 1))
        of shape (2, points, k, cols).  Returns int64 residues (rows, cols,
        points).

        The points run in slabs of _NTT_SLAB output entries, as ntt's rows
        do, so that the float64 work stays in cache.  A slab of a is copied
        once to float64 as (points, rows, k) and multiplied by one
        _limb_mat_mul.  The work arrays are allocated once per call."""
        rows, k, points = a.shape
        cols = b.shape[-1]
        step = max(1, min(points, _NTT_SLAB // (rows * cols)))
        x = np.empty((step, rows, k))
        work = np.empty((3, step, rows, cols))
        out = np.empty((rows, cols, points), np.int64)
        for s in range(0, points, step):
            n = min(step, points - s)
            xs = x[:n]
            xs[...] = a[:, :, s:s + n].transpose(2, 0, 1)
            acc = self._limb_mat_mul(xs, b[:, s:s + n], work[:2, :n], work[2, :n])
            out[:, :, s:s + n] = acc.transpose(1, 2, 0)
        return out

    def _limb_mat_mul(self, x: np.ndarray, y: np.ndarray, prod: np.ndarray,
                      acc: np.ndarray) -> np.ndarray:
        """x @ y mod p, in [0, p), into acc: the exact float64 product of the
        module docstring, for float64 operands of which one holds whole
        residues, |x| < p, and the other is a limb stack of _limb_stack (its
        first axis the two limbs), broadcast over the leading axes; prod is
        scratch of shape (2,) + acc.shape.

        Every room inner terms take one broadcast matmul with both limbs and
        one _settle, the settled sum of the slices before added to the low
        half (|lo| + p < 2^52 + 2^32 stays within _settle's bound); the sum
        lands in [0, p) with floor."""
        room = self._room
        for lo in range(0, x.shape[-1], room):
            np.matmul(x[..., lo:lo + room], y[..., lo:lo + room, :], out=prod)
            if lo:
                prod[0] += acc
            self._settle(prod, acc, out=acc)
        return self._reduce(acc, prod[0], np.floor)

    def row_reduce(self, M: np.ndarray):
        """Gauss–Jordan elimination: (R, pivots, order).

        R is the reduced row echelon form of M, pivots the pivot column of
        each nonzero row of R, and order[i] the row of M that became row i
        of R.  A column's pivot is its first nonzero entry at or below the
        current row, so the lowest row index wins.  A column without a pivot
        ends the elimination when the rows below the last pivot are all zero.
        M holds residues in [0, p).

        Reduction is delayed (Dumas, Giorgi and Pernet 2008).  A pivot step
        reduces only what the next steps read, its column (the pivot search
        and the multipliers) and the pivot row, and subtracts col·row from
        the columns right of it without % p.  Each subtraction takes less
        than p² off an entry, so after at most max(1, slack − 1) pending
        steps every entry lies in (−slack·p², p), within int64; the columns
        they changed are reduced then, before a column without a pivot tests
        the rows below for zero, and at the end.  Where slack ≤ 2 (object
        arrays, and int64 primes above about 1.75·10⁹ such as 2^31 − 1,
        2013265921 and 3037000493) that is after every step.  The pivot
        column is set exactly, 0 off the pivot and 1 on it, and the update
        stops at the pivot row's last nonzero entry: on [A | I] it leaves
        the part of I that no pivot row has reached yet untouched.
        """
        p = self.p
        R = np.array(M, dtype=self.dtype)
        rows, cols = R.shape
        order = np.arange(rows)
        pivots = []
        period = max(1, self._slack - 1)
        # pivot steps since the last reduction, and the end of the columns
        # they changed; the columns changed start right of the pivot column
        pending = end = 0
        r = 0
        for c in range(cols):
            if r == rows:
                break
            R[:, c] %= p
            nz = np.flatnonzero(R[r:, c])
            if not len(nz):
                if pending:
                    R[:, c + 1:end] %= p
                    pending = end = 0
                if not R[r:, c + 1:].any():  # rows r.. are zero: no pivot is left
                    break
                continue
            src = r + int(nz[0])
            if src != r:
                R[[r, src]] = R[[src, r]]
                order[[r, src]] = order[[src, r]]
            # rows r.. are zero left of c, so only columns c.. change, and
            # only up to the pivot row's last nonzero entry
            row = R[r, c:] % p * self.inv(int(R[r, c])) % p
            R[r, c:] = row
            stop = c + int(row.nonzero()[0][-1]) + 1
            col = R[:, c].copy()
            col[r] = 0
            R[:, c + 1:stop] -= col[:, None] * row[1:stop - c]
            R[:, c] = 0
            R[r, c] = 1
            pivots.append(c)
            r += 1
            pending += 1
            end = max(end, stop)
            if pending == period:
                R[:, c + 1:end] %= p
                pending = end = 0
        if pending:
            R[:, pivots[-1] + 1:end] %= p
        return R, pivots, order

    # -- number-theoretic transform ------------------------------------------

    def ntt_capacity(self) -> int:
        """Largest power-of-two transform length supported by this prime."""
        return 1 << self.two_adicity

    def powers(self, x: int, n: int) -> np.ndarray:
        """x^0, ..., x^(n-1), the table doubled by one array product per step."""
        out = np.ones(1, dtype=self.dtype)
        while len(out) < n:
            out = np.concatenate((out, out * self.pow(x, len(out)) % self.p))
        return out[:n]

    def _root(self, n: int, invert: bool) -> int:
        """The primitive n-th root of unity g^((p-1)/n), or its inverse."""
        w = self.pow(self.generator, (self.p - 1) // n)
        return self.inv(w) if invert else w

    def _limb_stack(self, v: np.ndarray) -> np.ndarray:
        """Residues v, an int64 array of any shape and strides, as float64
        limbs (lo, 2^15·hi) stacked on a new first axis, C-contiguous and
        read-only, with v ≡ lo + 2^15·hi, |lo| ≤ 2^14 and |hi| ≤
        ⌊(p-1)/2^16⌋ + 1: the limbed operand of every exact float64
        product (module docstring).  v is centred by _reduce, |c| ≤ p/2 + 2,
        and hi = rint(c/2^15), which keeps both bounds; every step is
        exact."""
        out = np.empty((2,) + v.shape)
        lo, hi = out
        lo[...] = v
        self._reduce(lo, hi)
        np.multiply(lo, 1.0 / 32768, hi)
        np.rint(hi, hi)
        hi *= 32768.0
        lo -= hi
        out.setflags(write=False)
        return out

    def _ntt_radices(self, n: int) -> list[int]:
        """The radices of the passes of a length-n transform: powers of two,
        balanced, largest first, each at most 2^_NTT_RADIX_BITS and at most
        the room of an exact float64 product (module docstring)."""
        bits = n.bit_length() - 1
        count = max(1, -(-bits // min(_NTT_RADIX_BITS, self._room.bit_length() - 1)))
        return [1 << (bits // count + (i < bits % count)) for i in range(count)]

    def _ntt_plan(self, n: int, invert: bool) -> _Plan:
        """The transform plan for length n on an int64 field, cached per
        (n, invert), in the one form ntt runs at that length: the one-slab
        form (_ntt_merged_form) when n ≤ _NTT_MERGED_MAX and n takes at most
        two passes, else the slab form (_ntt_slab_form).  Both hold every
        matrix and twiddle table as the limbs of _limb_stack.

        Longer lengths build no one-slab form: it lost to the slab form on
        one row of 4096 (a 4 MB first pass) and of 8192, and at 2048, a
        length toeplitz-mul transforms only in blocks of several slabs, it
        saved 1-18% for 1 MB per direction (BENCH_20.json).
        """
        key = (n, invert)
        plan = self._root_cache.get(key)
        if plan is None:
            one_slab = n <= _NTT_MERGED_MAX and len(self._ntt_radices(n)) <= 2
            plan = (self._ntt_merged_form if one_slab else self._ntt_slab_form)(n, invert)
            self._root_cache[key] = plan
        return plan

    def _ntt_slab_form(self, n: int, invert: bool) -> _Plan:
        """ntt's slab form for length n, one pass per radix of _ntt_radices.
        A pass of radix L over rows of length r = L·m holds the L-point DFT
        matrix, shape (2, 1, L, L), applied along the leading axis of each
        row seen as (L, m), and the twiddles w_r^(k·j), shape (2, L, m); the
        last pass (m = 1) holds its matrix, shape (2, L, L), applied along
        the last axis, and no twiddles.  n⁻¹ goes into the first pass's
        twiddles, or into the matrix of a one-pass length."""
        p = self.p
        scale = self.inv(n) if invert else 1
        passes, rest = [], n
        for L in self._ntt_radices(n):
            m = rest // L
            k = np.arange(L)
            dft = self.powers(self._root(L, invert), L)[np.outer(k, k) % L]
            if m == 1:
                passes.append((self._limb_stack(dft * scale % p), None))
            else:
                tw = self.powers(self._root(rest, invert), rest)[np.outer(k, np.arange(m))]
                passes.append((self._limb_stack(dft)[:, None], self._limb_stack(tw * scale % p)))
            scale, rest = 1, m
        return _Plan(False, tuple(passes))

    def _ntt_merged_form(self, n: int, invert: bool) -> _Plan:
        """ntt's one-slab form for a length n of one or two passes.  A
        one-pass length keeps its n×n matrix.  A two-pass length n = L·m,
        the smaller radix L first, keeps m first-pass matrices of L×L, one
        per column j2 of the rows seen as (L, m), with the twiddles
        w_n^(k1·j2) and n⁻¹ folded in, shape (2, m, L, L), and the m×m DFT
        matrix of the last pass, shape (2, m, m).  The first pass holds
        2·m·L² = 2·n·L floats, 512 KB at n = 1024 = _NTT_MERGED_MAX."""
        p = self.p
        w = self.powers(self._root(n, invert), n)
        scale = self.inv(n) if invert else 1
        radices = self._ntt_radices(n)
        if len(radices) == 1:
            k = np.arange(n)
            return _Plan(True, (self._limb_stack(w[np.outer(k, k) % n] * scale % p),))
        L = radices[-1]
        m = n // L
        # entry (j2, j1, k1) of the first pass: w_n^(j·k1) for j = m·j1 + j2
        j = m * np.arange(L)[None, :, None] + np.arange(m)[:, None, None]
        k = np.arange(m)
        return _Plan(True, (self._limb_stack(w[j * np.arange(L) % n] * scale % p),
                            self._limb_stack(w[L * np.outer(k, k) % n])))

    def _reduce(self, v: np.ndarray, s: np.ndarray, rounding=np.rint,
                out: np.ndarray | None = None) -> np.ndarray:
        """v - rounding(v·(1/p))·p into out (default v), for integer-valued
        float64 v with |v| < 2^52 + 2^47; s is scratch of v's shape.

        The quotient is the true one to within 2^53·2^-52/p = 2/p, so the
        product with p and the difference are exact integers below 2^53.
        rint leaves |v| ≤ p/2 + 2; from |v| < p, floor leaves [0, p)."""
        np.multiply(v, 1.0 / self.p, s)
        rounding(s, s)
        s *= float(self.p)
        return np.subtract(v, s, v if out is None else out)

    def _settle(self, prod: np.ndarray, s: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """lo + hi for prod = (lo, hi) on its first axis, the two halves of
        a product with the limbs of _limb_stack, reduced into (-p, p) and
        written into out (default hi); s is scratch of hi's shape, and prod
        is overwritten.  hi is 2^15 times an integer below 2^52 + 2^47, so
        it is reduced modulo 2^15·p as _reduce does modulo p: scaling by a
        power of two keeps that arithmetic exact and leaves it within
        2^15·(p/2 + 2).  Its sum with lo, below 2^52 + 2^46, is reduced by
        _reduce."""
        lo, hi = prod
        c = 32768.0 * self.p
        np.multiply(hi, 1.0 / c, s)
        np.rint(s, s)
        s *= c
        hi -= s
        hi += lo
        return self._reduce(hi, s, out=out)

    def _dft(self, x: np.ndarray, passes: tuple, out: np.ndarray,
             work: np.ndarray, t: np.ndarray) -> None:
        """Write the transform of each row of x into out by the slab form's
        passes, in canonical residues.

        x is a float64 (rows, n) array with integer entries |x| < p, which
        this overwrites; out has shape lead + (n,) with rows = prod(lead),
        and any strides; work (2·x.size) and t (x.size) are flat scratch.
        A pass of radix L splits j = m·j1 + j2 and k = k1 + L·k2: the
        L-point DFTs run over j1, the twiddles multiply by w_n^(k1·j2), and
        the m-point transform of row k1 is written straight into out's
        entries k1 + L·k2, so the digit reversal costs no pass of its own.
        """
        dft, tw = passes[0]
        rows, n = x.shape
        L = dft.shape[-1]
        step = max(1, _GEMM_MACS // (L * L))
        if tw is None:
            prod = work[:2 * x.size].reshape(2, rows, L)
            s = t[:x.size].reshape(rows, L)
            for r in range(0, rows, step):
                np.matmul(x[r:r + step], dft, out=prod[:, r:r + step])
            res = self._settle(prod, s)
            self._reduce(res, s, np.floor)
            np.copyto(out, res.reshape(out.shape), casting="unsafe")
            return
        m = n // L
        prod = work[:2 * x.size].reshape(2, rows, L, m)
        s = t[:x.size].reshape(rows, L, m)
        y = x.reshape(rows, L, m)
        for c in range(0, m, step):
            np.matmul(dft, y[..., c:c + step], out=prod[..., c:c + step])
        lo, hi = prod
        self._settle(prod, s)
        np.multiply(hi, tw[0], out=lo)
        np.multiply(hi, tw[1], out=hi)
        self._settle(prod, s, out=y)
        inner = out.reshape(out.shape[:-1] + (m, L)).swapaxes(-1, -2)
        self._dft(y.reshape(rows * L, m), passes[1:], inner, work, t)

    def _ntt_merged(self, src: np.ndarray, mats: tuple, out: np.ndarray,
                    scratch: np.ndarray) -> None:
        """Write the transform of each row of the int64 (rows, n) residues
        src into out by the one-slab form's matrices: per pass one matrix
        product and one _settle, whose scratch is the pass's float64 input,
        all in scratch[:, :rows] of a (3, ≥ rows, n) array.  A two-pass
        length n = L·m takes the rows as (L, m) blocks; the first pass
        multiplies column j2 of each block by its own L×L matrix, twiddles
        included, in one stacked product over the m columns, settled into
        its input; the last takes the m-point DFT of every row k1 of the
        result, which is output k1 + L·k2."""
        rows, n = src.shape
        x, prod = scratch[0, :rows], scratch[1:, :rows]
        if len(mats) == 1:
            x[...] = src
            res = self._settle(np.matmul(x, mats[0], prod), x)
            self._reduce(res, x, np.floor)
            out[...] = res
            return
        first, last = mats
        m, L = first.shape[1:3]
        x = x.reshape(m, rows, L)
        x[...] = src.reshape(rows, L, m).transpose(2, 0, 1)
        y = self._settle(np.matmul(x, first, prod.reshape(2, m, rows, L)), x, out=x)
        y = y.reshape(m, rows * L)
        res = self._settle(np.matmul(last, y, prod.reshape(2, m, rows * L)), y)
        self._reduce(res, y, np.floor)
        out.reshape(rows, m, L)[...] = res.reshape(m, rows, L).swapaxes(0, 1)

    def ntt(self, a: np.ndarray, invert: bool = False) -> np.ndarray:
        """In-order NTT along the last axis of residues in [0, p), for any
        leading shape and a power-of-two length within capacity, scaled by
        n⁻¹ when invert.  Returns a fresh C-contiguous array of canonical
        residues.

        On int64 fields (p < 2^31.5) this is a mixed-radix four-step
        transform (Bailey 1990) whose passes are exact float64 matrix
        products (module docstring): matrices and twiddles are the limbed
        operand, the data stays whole with |x| < p, and a pass of radix
        L ≤ room sums L products.  Each pass, and each twiddle product
        (limbs times data below 2^47), reduces its two sums through _settle;
        the last pass lands in [0, p) with floor.

        The length alone picks the form (_ntt_plan): up to _NTT_MERGED_MAX
        and two passes the one-slab form (_ntt_merged), one matrix product
        per pass with the twiddles folded into per-column matrices; beyond,
        the slab form (_dft), with twiddles and reductions between passes
        as float64 array operations.  Both run in slabs of _NTT_SLAB
        elements into one preallocated output (_ntt_run).  On a 2-core Xeon
        VM the one-slab form took 0.57-0.96 of the slab form's time on
        blocks of one slab at lengths up to 1024 (1.06-1.09 on 256 rows of
        64), and lost on one row of 4096 or 8192 (1.7-3.0x)
        (tools/route_sweep.py, BENCH_20.json, BENCH_28.json).

        Object-dtype fields run a radix-2 loop.
        """
        n = a.shape[-1]
        if n < 1 or n & (n - 1) or n > self.ntt_capacity():
            raise ValueError(f"transform length {n} unsupported for p={self.p}")
        if self.dtype is object:
            return self._ntt_object(a, invert)
        src = np.asarray(a).reshape(-1, n)
        return self._ntt_run(src, self._ntt_plan(n, invert)).reshape(a.shape)

    def _ntt_run(self, src: np.ndarray, plan: _Plan) -> np.ndarray:
        """The transform of each row of the int64 (rows, n) residues src by
        plan's form, in slabs of _NTT_SLAB elements (at least one row), each
        written into one preallocated output with float64 scratch that
        every slab reuses."""
        rows, n = src.shape
        out = np.empty(src.shape, np.int64)
        step = max(1, min(rows, _NTT_SLAB // n))
        scratch = np.empty((3, step, n))
        t = None if plan.merged else np.empty(step * n)
        for lo in range(0, rows, step):
            block = src[lo:lo + step]
            if plan.merged:
                self._ntt_merged(block, plan.passes, out[lo:lo + step], scratch)
                continue
            x = scratch[0, :len(block)]
            x[...] = block
            self._dft(x, plan.passes, out[lo:lo + step], scratch[1:].reshape(-1), t)
        return out

    def _ntt_object(self, a: np.ndarray, invert: bool) -> np.ndarray:
        """ntt on Python ints: a bit-reversed gather, then one radix-2
        butterfly stage per doubling, each reduced mod p.  The powers of
        the n-th root are cached per (n, invert); a stage of length l reads
        every (n/l)-th of them."""
        n = a.shape[-1]
        p = self.p
        tw = self._root_cache.get((n, invert))
        if tw is None:
            tw = self.powers(self._root(n, invert), n // 2)
            tw.setflags(write=False)
            self._root_cache[(n, invert)] = tw
        # over k+1 bits, i and i + 2^k reverse to 2·rev_k(i) and 2·rev_k(i)+1
        rev = np.zeros(1, dtype=np.intp)
        while len(rev) < n:
            rev = np.concatenate((2 * rev, 2 * rev + 1))
        out = np.take(np.asarray(a, dtype=object), rev, axis=-1)
        length = 2
        while length <= n:
            view = out.reshape(out.shape[:-1] + (n // length, 2, length // 2))
            lo, hi = view[..., 0, :], view[..., 1, :]
            t = hi * tw[::n // length] % p
            hi[...] = (lo - t) % p
            lo[...] = (lo + t) % p
            length *= 2
        return out * self.inv(n) % p if invert else out

    def _limbs(self, v: np.ndarray, split: bool) -> np.ndarray:
        """v's residues on a new first axis, low first: 16-bit int64 limbs if
        split, else whole."""
        r = np.asarray(v, dtype=self.dtype)
        if not split:
            return r[None]
        shifts = self._limb_shifts if r.ndim == 1 else self._limb_shifts.reshape((-1,) + (1,) * r.ndim)
        return ((r >> shifts) & 0xFFFF).astype(np.int64, copy=False)

    @staticmethod
    def _convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Exact integer convolution of x and y row by row, broadcast over the
        leading axes; a 1-D pair is one np.convolve.  A block takes one matrix
        product of the longer factor's sliding windows with the reversed
        shorter one, so no row runs a Python loop of its own.  The windows
        are one read-only strided view of the zero-padded rows: window t of
        a row starts at its entry t."""
        if x.ndim == 1 and y.ndim == 1:
            return np.convolve(x, y)
        if x.shape[-1] < y.shape[-1]:
            x, y = y, x
        la, lb = x.shape[-1], y.shape[-1]
        if lb == 1:
            return x * y
        pad = np.zeros(x.shape[:-1] + (la + 2 * (lb - 1),), dtype=x.dtype)
        pad[..., lb - 1: lb - 1 + la] = x
        windows = np.lib.stride_tricks.as_strided(
            pad, pad.shape[:-1] + (la + lb - 1, lb), pad.strides + pad.strides[-1:],
            writeable=False)
        return np.matmul(windows, y[..., ::-1, None])[..., 0]

    def _conv_limbs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact linear convolution of rows of limbs (_convolve).

        A term of the product sums min(len a, len b) products below p², so
        while that is at most slack = ⌊2^63/p²⌋ one convolution of the whole
        residues is exact in int64.  On an object-dtype field the whole
        residues are Python ints and exact at any length; there they stay
        whole while the product has at most _WHOLE_CONV_TERMS_OBJECT term
        products (rows × len a × len b), where one object convolution and one
        reduction mod p cost less than the limbs' fixed overhead.
        Otherwise residues are cut into k = ceil(bits(p) / 16) limbs of 16
        bits: 1 below 2^16, 2 up to 2^31.5, 4 for 62-bit primes.  Limb
        sequences multiply Karatsuba-style across the limb index: with
        D_i = a_i*b_i, the cross terms a_i*b_j + a_j*b_i of weight i + j come
        from one more convolution, (a_i + a_j)*(b_i + b_j) - D_i - D_j, so
        k limbs take k(k+1)/2 convolutions.  A term of that convolution is
        below 2^34 and a weight gathers at most k limb products per term, so
        for k <= 4 and a shorter input of fewer than 2^29 terms every partial
        sum fits an int64.  Horner's rule recombines the 2k - 1 weights mod p
        in the field's dtype: for a split object-dtype product that is the
        only Python-int work, O(len × k).
        """
        p = self.p
        la, lb = a.shape[-1], b.shape[-1]
        split = min(la, lb) > self._slack
        if split and self.dtype is object:
            rows = math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
            split = rows * la * lb > _WHOLE_CONV_TERMS_OBJECT
        A, B = self._limbs(a, split), self._limbs(b, split)
        k = len(A)
        diag = [self._convolve(A[i], B[i]) for i in range(k)]
        c = [None] * (2 * k - 1)
        c[::2] = diag
        for i in range(k):
            for j in range(i + 1, k):
                x = self._convolve(A[i] + A[j], B[i] + B[j]) - diag[i] - diag[j]
                c[i + j] = x if c[i + j] is None else c[i + j] + x
        res = c[-1].astype(self.dtype, copy=False) % p
        for cw in reversed(c[:-1]):
            res = ((res << 16) + cw) % p
        return res

    def conv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Linear convolution of residues in [0, p), the input contract of
        ntt, exactly mod p, along the last axis: row by row, broadcast over
        the leading axes, so a 1-D pair is the one-row case.

        A factor of at most slack terms takes the limb kernel with whole
        residues.  On int64 fields a block of rows whose Toeplitz matrices
        hold at most _TOEPLITZ_FLOATS entries, those of the factor whose
        matrices are the smaller (rows × length of the other factor ×
        output length), is one exact float64 product (_conv_toeplitz),
        built per call: the tree levels' products by their nodes, the
        reductions by one modulus row, and one-row factors broadcast over
        blocks.  In tools/route_sweep.py --part toeplitz that took 0.42-0.62
        of the NTT's time on families-mul's blocks (0.97 on an outer
        product at the bound), and 0.11-0.59 of the limb kernel's at
        2^31 - 1, which has no transform; larger blocks read up to 8.6x the
        NTT's time (BENCH_31.json).  One row of at most
        1024 output terms (3072 on object-dtype fields), and a block of rows
        on an object-dtype field, takes the limb kernel, which keeps the
        residues whole on object-dtype fields for a product of at most
        _WHOLE_CONV_TERMS_OBJECT term products in all.  The rest runs the
        NTT, or the limb kernel where the product is too long for the
        prime's transforms.
        """
        a, b = np.asarray(a), np.asarray(b)
        la, lb = a.shape[-1], b.shape[-1]
        lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) if a.ndim > 1 or b.ndim > 1 else ()
        if la == 0 or lb == 0:
            return self.zeros(lead + (0,))
        rows = math.prod(lead)
        if rows == 0:
            return self.zeros(lead + (la + lb - 1,))
        if lead and rows == 1:  # one row: the 1-D case, shaped back at the end
            return self._conv_rows(a.reshape(la), b.reshape(lb), ()).reshape(lead + (-1,))
        return self._conv_rows(a, b, lead)

    def _conv_rows(self, a: np.ndarray, b: np.ndarray, lead: tuple) -> np.ndarray:
        """conv of nonempty factors whose leading axes broadcast to lead: ()
        for one row, else a block of more than one row."""
        la, lb = a.shape[-1], b.shape[-1]
        need = la + lb - 1
        size = 1 << (need - 1).bit_length()
        cutoff = _SPLIT_CONV_CUTOFF_OBJECT if self.dtype is object else _SPLIT_CONV_CUTOFF
        short = need <= cutoff and (not lead or self.dtype is object)
        if short or min(la, lb) <= self._slack:
            return self._conv_limbs(a, b)
        ra, rb = math.prod(a.shape[:-1]), math.prod(b.shape[:-1])
        if lead and self.dtype is not object and min(ra * lb, rb * la) * need <= _TOEPLITZ_FLOATS:
            return self._conv_toeplitz(a, b, lead)
        if size > self.ntt_capacity():
            return self._conv_limbs(a, b)
        return self._conv_ntt(a, b)

    def _conv_toeplitz(self, a: np.ndarray, b: np.ndarray, lead: tuple) -> np.ndarray:
        """conv of int64 residue rows a and b whose leading axes broadcast to
        lead, as products by Toeplitz matrices.  Of the two factors, c is the
        one whose matrices hold fewer entries, and x the other: row x_r is
        multiplied by the lx × (lx + lc − 1) matrix T[i, t] = c[t − i] of
        the row of c it meets, one exact float64 product (_limb_mat_mul) for
        the whole block.  The matrices, whole residues, are one strided view
        of c's zero-padded rows made contiguous, built per call; x's rows,
        grouped by the row of c they meet, are the limb stack."""
        la, lb = a.shape[-1], b.shape[-1]
        x, c = (b, a) if math.prod(a.shape[:-1]) * lb < math.prod(b.shape[:-1]) * la else (a, b)
        lx, lc = x.shape[-1], c.shape[-1]
        need = lx + lc - 1
        n = len(lead)
        own = (1,) * (n + 1 - c.ndim) + c.shape[:-1]
        # c's own axes first, then those it is broadcast along
        perm = sorted(range(n), key=lambda i: own[i] == 1) + [n]
        nc = math.prod(own)
        if x.size != math.prod(lead) * lx:  # x is broadcast along some of c's axes
            x = np.broadcast_to(x, lead + (lx,))
        xs = self._limb_stack(x.reshape(lead + (lx,)).transpose(perm)).reshape(2, nc, -1, lx)
        pad = np.zeros((nc, 2 * lx - 2 + lc))
        pad[:, lx - 1: lx - 1 + lc] = c.reshape(nc, lc)
        # row i of a matrix is its row of pad from entry lx − 1 − i on
        step = pad.itemsize
        view = np.ndarray((nc, lx, need), buffer=pad, offset=step * (lx - 1),
                          strides=(pad.strides[0], -step, step))
        toeplitz = np.ascontiguousarray(view)
        work = np.empty((3,) + xs.shape[1:3] + (need,))
        acc = self._limb_mat_mul(xs, toeplitz, work[:2], work[2])
        out = np.empty(lead + (need,), np.int64)
        grouped = out.transpose(perm)
        np.copyto(grouped, acc.reshape(grouped.shape), casting="unsafe")
        return out

    def _conv_ntt(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """conv of residue rows through transforms of the next power of two
        at or above the output length, which must be within capacity."""
        la, lb = a.shape[-1], b.shape[-1]
        need = la + lb - 1
        size = 1 << (need - 1).bit_length()
        fa = self.zeros(a.shape[:-1] + (size,))
        fb = self.zeros(b.shape[:-1] + (size,))
        fa[..., :la] = a
        fb[..., :lb] = b
        prod = self.ntt(fa) * self.ntt(fb)
        prod %= self.p
        return self.ntt(prod, invert=True)[..., :need]


def get_field(p: int | str) -> PrimeField:
    """The shared field instance for a modulus, given as an int, a named prime
    ('default', 'p62') or a decimal string; one instance per prime, of which
    the 32 most recently used are kept (with their transform plans)."""
    if isinstance(p, str):
        named = NAMED_PRIMES.get(p)
        if named is None:
            try:
                named = int(p)
            except ValueError:
                raise ValueError(f"unknown prime {p!r}; use one of {sorted(NAMED_PRIMES)} "
                                 "or a prime as a decimal literal") from None
        p = named
    return _field(int(p))


@functools.lru_cache(maxsize=32)
def _field(p: int) -> PrimeField:
    """The field of p; the 32 most recently used are kept."""
    return PrimeField(p)
