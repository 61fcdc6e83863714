"""Word-size prime field arithmetic with vectorized numpy kernels.

Scalars are canonical Python ints in [0, p); bulk data lives in numpy
arrays (int64 when products of two residues fit in a signed 64-bit word,
Python-object arrays otherwise, e.g. for the 62-bit benchmark prime).
An int64 sum holds slack = ⌊2^63/p²⌋ such products (9 at 998244353, 1
above 2^31; object arrays take 1): every kernel sizes its unreduced sums by it.
The number-theoretic transform (NTT) operates along the last axis of an
array of any shape, which lets polynomial-matrix code batch thousands of
transforms into a handful of numpy calls.  Its radix-2 stages run in place
with lazy reduction (Harvey, JSC 2014): each stage reduces only its twiddle
products, and the whole array is reduced once every slack stages.

Convolution has one exact kernel for every prime: residues are cut into
16-bit int64 limbs, or kept whole when the shorter factor has at most slack
terms; each limb product is one ``np.convolve``, and the limb weights are
recombined mod p.  Long products go to the NTT instead when p - 1 has the
2-adic room for their transform length.
"""

from __future__ import annotations

import functools
from typing import Iterable

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

# below this output length, limb-split np.convolve wins over the transform
_SPLIT_CONV_CUTOFF = 1024

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting 0 (or a multiple of p)."""


def _is_probable_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3 * 10^24 with the fixed witness set
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

    Instances are cheap to create and hashable by modulus; NTT twiddle
    tables are cached per (field, size).
    """

    def __init__(self, p: int):
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
        self._root_cache: dict[tuple[int, bool], np.ndarray] = {}
        self._rev_cache: dict[int, np.ndarray] = {}
        # products of two residues an int64 sum holds; object arrays take 1,
        # so their Python ints stay below p²
        self._slack = max(1, (1 << 63) // (p * p))
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
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a % self.p, e, self.p)

    @property
    def generator(self) -> int:
        """A generator of the multiplicative group F_p^*."""
        if self._generator is None:
            factors = _factorize(self.p - 1)
            g = 2
            while True:
                if all(pow(g, (self.p - 1) // q, self.p) != 1 for q in factors):
                    self._generator = g
                    break
                g += 1
        return self._generator

    # -- array helpers ------------------------------------------------------

    def arr(self, values: Iterable[int] | np.ndarray) -> np.ndarray:
        """Canonical residue array (always a fresh copy)."""
        if self.dtype is object:
            a = np.asarray(values, dtype=object)
            return np.array([int(v) % self.p for v in a.ravel()], dtype=object).reshape(a.shape)
        a = np.asarray(values)
        if a.dtype == object:  # Python ints of any size
            return np.array([int(v) % self.p for v in a.ravel()], dtype=np.int64).reshape(a.shape)
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

    def row_reduce(self, M: np.ndarray):
        """Gauss–Jordan elimination: (R, pivots, order).

        R is the reduced row echelon form of M, pivots the pivot column of
        each nonzero row of R, and order[i] the row of M that became row i
        of R.  A column's pivot is its first nonzero entry at or below the
        current row, so the lowest row index wins.  Each pivot step updates
        the whole matrix in one array operation: col·row < p² stays within
        int64 below _INT64_SAFE_BOUND, and object arrays are exact above it.
        """
        R = np.array(M, dtype=self.dtype)
        rows, cols = R.shape
        order = np.arange(rows)
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = np.flatnonzero(R[r:, c])
            if not len(nz):
                continue
            src = r + int(nz[0])
            if src != r:
                R[[r, src]] = R[[src, r]]
                order[[r, src]] = order[[src, r]]
            # rows r.. are zero left of c, so only columns c.. change
            R[r, c:] = R[r, c:] * self.inv(int(R[r, c])) % self.p
            col = R[:, c].copy()
            col[r] = 0
            R[:, c:] = (R[:, c:] - col[:, None] * R[r, c:]) % self.p
            pivots.append(c)
            r += 1
        return R, pivots, order

    # -- number-theoretic transform ------------------------------------------

    def ntt_capacity(self) -> int:
        """Largest power-of-two transform length supported by this prime."""
        return 1 << self.two_adicity

    def _rev_idx(self, n: int) -> np.ndarray:
        idx = self._rev_cache.get(n)
        if idx is None:
            # over k+1 bits, i and i + 2^k reverse to 2·rev_k(i) and 2·rev_k(i)+1
            idx = np.zeros(1, dtype=np.intp)
            while len(idx) < n:
                idx = np.concatenate((2 * idx, 2 * idx + 1))
            idx.setflags(write=False)
            self._rev_cache[n] = idx
        return idx

    def _twiddles(self, length: int, invert: bool) -> np.ndarray:
        key = (length, invert)
        tw = self._root_cache.get(key)
        if tw is None:
            w = self.pow(self.generator, (self.p - 1) // length)
            if invert:
                w = self.inv(w)
            half = length // 2
            pw = [1] * half
            for i in range(1, half):
                pw[i] = pw[i - 1] * w % self.p
            tw = np.array(pw, dtype=self.dtype)
            tw.setflags(write=False)
            self._root_cache[key] = tw
        return tw

    def ntt(self, a: np.ndarray, invert: bool = False) -> np.ndarray:
        """In-order radix-2 NTT along the last axis of residues in [0, p),
        for any leading shape and a power-of-two length within capacity.
        Returns a fresh C-contiguous array of canonical residues.

        Butterflies run in place and keep |x| < bound·p: hi·tw is reduced,
        lo ± t is not, and the array is reduced when bound passes the slack,
        so that hi·tw and the final n⁻¹ scaling stay below 2^63."""
        n = a.shape[-1]
        if n & (n - 1) or n > self.ntt_capacity():
            raise ValueError(f"transform length {n} unsupported for p={self.p}")
        p = self.p
        out = np.take(np.asarray(a, dtype=self.dtype), self._rev_idx(n), axis=-1)
        scratch = np.empty(out.size // 2, dtype=self.dtype)
        bound = 1
        length = 2
        while length <= n:
            if bound > self._slack:
                np.remainder(out, p, out=out)
                bound = 1
            view = out.reshape(out.shape[:-1] + (n // length, 2, length // 2))
            lo, hi = view[..., 0, :], view[..., 1, :]
            t = scratch.reshape(hi.shape)
            np.multiply(hi, self._twiddles(length, invert), out=t)
            np.remainder(t, p, out=t)
            np.subtract(lo, t, out=hi)
            np.add(lo, t, out=lo)
            bound += 1
            length *= 2
        if invert:
            if bound > self._slack:
                np.remainder(out, p, out=out)
            np.multiply(out, self.inv(n), out=out)
        return np.remainder(out, p, out=out)

    def _limbs(self, v: np.ndarray, split: bool) -> np.ndarray:
        """v's residues as rows, low first: 16-bit int64 limbs if split, else whole."""
        r = np.asarray(v, dtype=self.dtype)
        return ((r >> self._limb_shifts) & 0xFFFF).astype(np.int64, copy=False) if split else r[None]

    def _conv_limbs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact linear convolution from np.convolve on limbs.

        A term of the product sums min(len a, len b) products below p², so
        while that is at most slack = ⌊2^63/p²⌋ one np.convolve of the whole
        residues is exact (in int64, or on Python ints that stay below p²).
        Otherwise residues are cut into k = ceil(bits(p) / 16) limbs of 16
        bits: 1 below 2^16, 2 up to 2^31.5, 4 for 62-bit primes.  Limb
        sequences multiply Karatsuba-style across the limb index: with
        D_i = a_i*b_i, the cross terms a_i*b_j + a_j*b_i of weight i + j come
        from one more convolution, (a_i + a_j)*(b_i + b_j) - D_i - D_j, so
        k limbs take k(k+1)/2 calls.  A term of that convolution is below
        2^34 and a weight gathers at most k limb products per term, so for
        k <= 4 and a shorter input of fewer than 2^29 terms every partial sum
        fits an int64.  Horner's rule recombines the 2k - 1 weights mod p in
        the field's dtype: for object-dtype primes that is the only Python-int
        work, O(len × k).
        """
        p = self.p
        split = min(len(a), len(b)) > self._slack
        A, B = self._limbs(a, split), self._limbs(b, split)
        k = len(A)
        diag = [np.convolve(A[i], B[i]) for i in range(k)]
        c = [None] * (2 * k - 1)
        c[::2] = diag
        for i in range(k):
            for j in range(i + 1, k):
                x = np.convolve(A[i] + A[j], B[i] + B[j]) - diag[i] - diag[j]
                c[i + j] = x if c[i + j] is None else c[i + j] + x
        res = c[-1].astype(self.dtype, copy=False) % p
        for cw in reversed(c[:-1]):
            res = ((res << 16) + cw) % p
        return res

    def conv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Linear convolution of two 1-D arrays of residues in [0, p), the
        input contract of ntt, exactly mod p.

        Short products, and products too long for the prime's transforms,
        run the limb kernel; the rest run the NTT.
        """
        la, lb = len(a), len(b)
        if la == 0 or lb == 0:
            return self.zeros(0)
        need = la + lb - 1
        size = 1 << (need - 1).bit_length()
        if need <= _SPLIT_CONV_CUTOFF or size > self.ntt_capacity():
            return self._conv_limbs(a, b)
        fa = self.zeros(size)
        fb = self.zeros(size)
        fa[:la] = a
        fb[:lb] = b
        fa = self.ntt(fa)
        fb = self.ntt(fb)
        prod = fa * fb % self.p
        return self.ntt(prod, invert=True)[:need]


def get_field(p: int | str) -> PrimeField:
    """The shared field instance for a modulus, given as an int, a named prime
    ('default', 'p62') or a decimal string; one instance per prime."""
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
    return PrimeField(p)
