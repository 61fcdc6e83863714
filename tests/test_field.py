import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispmat.field import (
    _NTT_MERGED_MAX,
    _NTT_SLAB,
    _TOEPLITZ_FLOATS,
    _WHOLE_CONV_TERMS_OBJECT,
    BENCH_PRIME,
    DEFAULT_PRIME,
    NAMED_PRIMES,
    PrimeField,
    ZeroInverse,
    get_field,
)


def test_named_primes():
    assert NAMED_PRIMES["default"] == DEFAULT_PRIME == 998244353
    assert NAMED_PRIMES["p62"] == BENCH_PRIME
    assert get_field("default").p == DEFAULT_PRIME
    assert get_field("p62").p == BENCH_PRIME
    with pytest.raises(ValueError):
        get_field("p61")


def test_get_field_keeps_one_instance_per_prime():
    assert get_field("p62") is get_field(BENCH_PRIME)
    assert get_field("default") is get_field(DEFAULT_PRIME) is get_field(str(DEFAULT_PRIME))
    with pytest.raises(ValueError):
        get_field("12")


# the last two: 399165290221 · 798330580441, the least strong pseudoprime
# to the bases 2..37, and the least one to 2..41 (OEIS A014233)
@pytest.mark.parametrize("bad", [0, 1, 4, 15, 2**31 - 2, 318665857834031151167461,
                                 3317044064679887385961981])
def test_rejects_composite_modulus(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)
    with pytest.raises(ValueError):
        get_field(bad)


def test_get_field_names_the_bound_of_exact_primality():
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        get_field(2**89 - 1)  # a Mersenne prime, beyond the bound


def test_dtype_switch():
    assert get_field(DEFAULT_PRIME).dtype == np.int64
    assert get_field(BENCH_PRIME).dtype == object
    assert get_field(2).dtype == np.int64


def test_scalar_ops_tiny():
    f = get_field(7)
    assert f.add(5, 4) == 2
    assert f.sub(2, 5) == 4
    assert f.mul(3, 5) == 1
    assert f.neg(3) == 4
    assert f.inv(3) == 5
    assert f.pow(3, 6) == 1
    assert f.pow(3, -1) == 5
    with pytest.raises(ZeroInverse):
        f.inv(0)
    with pytest.raises(ZeroInverse):
        f.inv(14)


@given(a=st.integers(min_value=1, max_value=DEFAULT_PRIME - 1))
def test_inverse_property(a):
    f = get_field(DEFAULT_PRIME)
    assert f.mul(a, f.inv(a)) == 1


def test_generator_has_full_order():
    for p in (DEFAULT_PRIME, BENCH_PRIME, 2, 7, 13):
        f = get_field(p)
        g = f.generator
        assert f.pow(g, p - 1) == 1
        # no proper divisor order: check the prime factors of p-1 for tiny p
        if p < 100:
            for d in range(1, p - 1):
                assert f.pow(g, d) != 1 or d == p - 1


def test_arr_normalizes():
    f = get_field(7)
    a = f.arr([-1, 7, 20])
    assert a.tolist() == [6, 0, 6]
    assert a.dtype == np.int64
    b = get_field(BENCH_PRIME).arr([-1])
    assert b.dtype == object
    assert int(b[0]) == BENCH_PRIME - 1


def test_arr_reduces_python_ints_beyond_int64():
    f = get_field(DEFAULT_PRIME)
    a = f.arr([2**70, -(2**70), 2**63, 5])
    assert a.dtype == np.int64
    assert a.tolist() == [2**70 % f.p, -(2**70) % f.p, 2**63 % f.p, 5]
    M = f.arr(np.array([[2**70, 1], [2, -(2**64)]], dtype=object))
    assert M.tolist() == [[2**70 % f.p, 1], [2, -(2**64) % f.p]]


def test_arr_reduces_uint64_beyond_int63():
    f = get_field(DEFAULT_PRIME)
    a = f.arr(np.array([2**64 - 1, 2**63, 3], dtype=np.uint64))
    assert a.dtype == np.int64
    assert a.tolist() == [932051909, 2**63 % f.p, 3]
    assert f.arr([2**64 - 1]).tolist() == [932051909]  # numpy reads it as uint64


@pytest.mark.parametrize("p", [DEFAULT_PRIME, BENCH_PRIME])
def test_arr_refuses_lossy_floats(p):
    f = get_field(p)
    for bad in ([2.5, 1e30], [2.5], [1e30], [float("nan")], [float("inf")],
                [2.0**53 + 1], np.array([[1.0, 2.5]]), np.array([7, 2.5], dtype=object)):
        with pytest.raises(ValueError):
            f.arr(bad)
    # floats that are integers below 2^53 name one residue exactly
    assert f.arr([2.0, -3.0, 2.0**53 - 1]).tolist() == [2, p - 3, (2**53 - 1) % p]
    assert f.arr(np.array([5.0], dtype=np.float32)).tolist() == [5]


def test_zeros_shapes():
    f = get_field(7)
    assert f.zeros(3).shape == (3,)
    assert f.zeros((2, 4)).shape == (2, 4)
    assert f.zeros((2, 4)).dtype == f.dtype


def test_inv_array_matches_scalar():
    f = get_field(998244353)
    rng = np.random.default_rng(0)
    a = f.arr(rng.integers(1, f.p, size=50))
    got = f.inv_array(a)
    for x, y in zip(a, got):
        assert f.mul(int(x), int(y)) == 1


_INT64_PRIMES = [7, DEFAULT_PRIME, 2**31 - 1, 2013265921, 2281701377, 3037000493]

# (a, b) shapes of mat_mul's operands for an inner dimension k: matrices,
# 1-D operands on either side and on both, and broadcast leading axes
_MAT_MUL_SHAPES = [lambda k: ((5, k), (k, 6)), lambda k: ((k,), (k, 6)),
                   lambda k: ((5, k), (k,)), lambda k: ((k,), (k,)),
                   lambda k: ((2, 5, k), (k, 6)), lambda k: ((3, k), (2, 1, k, 4))]


def test_mat_mul_matches_python_ints():
    """mat_mul against Python ints, with np.matmul's shapes, on inner
    dimensions of max(1, slack − 1) (one int64 matmul), slack, and the room
    of an exact float64 product (field module docstring), one past it and
    past two slices of it; random residues, all p − 1, and a right operand
    of the widest limbs, (p − 1)/2, by a left one of p − 1.  At 7 slack and
    room exceed any matrix, and the 62-bit prime has neither."""
    for p in _INT64_PRIMES + [BENCH_PRIME]:
        f = get_field(p)
        rng = np.random.default_rng(p % 1000)
        if p == 7 or f.dtype is object:
            inner = [4]
        else:
            step = max(1, f._slack - 1)
            inner = sorted({step, f._slack, f._room, f._room + 1, 2 * f._room + 3})
        for k, shapes in itertools.product(inner, _MAT_MUL_SHAPES):
            sa, sb = shapes(k)
            cases = [(f.arr(rng.integers(0, p, sa)), f.arr(rng.integers(0, p, sb))),
                     (np.full(sa, p - 1, f.dtype), np.full(sb, p - 1, f.dtype)),
                     (np.full(sa, p - 1, f.dtype), np.full(sb, (p - 1) // 2, f.dtype))]
            for A, B in cases:
                want = np.asarray(np.matmul(A.astype(object), B.astype(object)) % p)
                got = f.mat_mul(A, B)
                # 1-D by 1-D is a scalar, as np.matmul's
                assert np.ndim(got) == 0 or got.dtype == f.dtype, (p, k, sa, sb)
                assert np.shape(got) == want.shape, (p, k, sa, sb)
                assert np.asarray(got).tolist() == want.tolist(), (p, k, sa, sb, int(B.flat[0]))


def test_two_adicity_and_capacity():
    f = get_field(DEFAULT_PRIME)
    assert f.two_adicity == 23
    assert f.ntt_capacity() == 1 << 23
    f62 = get_field(BENCH_PRIME)
    assert (BENCH_PRIME - 1) % (1 << f62.two_adicity) == 0


def test_ntt_roundtrip():
    for p in (DEFAULT_PRIME, BENCH_PRIME):
        f = get_field(p)
        rng = np.random.default_rng(3)
        a = f.arr(rng.integers(0, p, size=16))
        fw = f.ntt(a.copy())
        back = f.ntt(fw, invert=True)
        assert np.array_equal(back, a)


def _naive_dft(f, rows, w):
    """sum_i a_i w^(ij) mod p for each row of the (rows, n) array: the DFT
    matrix as one exact mat_mul."""
    n = rows.shape[-1]
    k = np.arange(n)
    return f.mat_mul(rows, f.powers(w, n)[np.outer(k, k) % n])


def _horner_dft(f, rows, w):
    """The same by Horner's rule at every w^k, one numpy step per entry of
    a row, for lengths whose DFT matrix is too large to build."""
    n = rows.shape[-1]
    x = f.powers(w, n)
    acc = f.zeros(rows.shape)
    for j in range(n - 1, -1, -1):
        acc = (acc * x + rows[:, j:j + 1]) % f.p
    return acc


# The int64 transform runs in passes of radix at most 128, less near 2^31.5:
# 128 at 998244353, 64 at 2013265921 and 32 at 2281701377, the int64 NTT
# prime whose 2^52 bound on a pass's partial sums is the tightest; p62 runs
# the radix-2 loop on object arrays.  Lengths 512 and 2048 take two or three
# passes, and one row more than a slab leaves a partial last slab.  A length
# of at most _NTT_MERGED_MAX that takes at most two passes runs the one-slab
# form, slab by slab, every other length the slab form: the cases cover
# blocks of more than one slab at a one-pass length (32) and at two-pass
# ones, exactly one slab and one row more at the longest such length, and
# one row on both sides of the length cut.
@pytest.mark.parametrize("p", [DEFAULT_PRIME, 2013265921, 2281701377, BENCH_PRIME])
def test_ntt_matches_naive_dft(p, monkeypatch):
    f = get_field(p)
    rng = np.random.default_rng(23)
    cases = [(n, lead) for n in (1, 2, 8, 64, 256) for lead in ((), (3,))]
    if f.dtype is not object:
        cases += [(32, (_NTT_SLAB // 32 + 1,)),
                  (512, (_NTT_SLAB // 512 + 1,)), (2048, (_NTT_SLAB // 2048 + 1,)),
                  (_NTT_MERGED_MAX, (_NTT_SLAB // _NTT_MERGED_MAX,)),
                  (_NTT_MERGED_MAX, (_NTT_SLAB // _NTT_MERGED_MAX + 1,)),
                  (2 * _NTT_MERGED_MAX, ())]
    merged = []
    real = PrimeField._ntt_merged
    monkeypatch.setattr(PrimeField, "_ntt_merged",
                        lambda self, src, *rest: merged.append(src.shape) or real(self, src, *rest))
    for n, lead in cases:
        w = f.pow(f.generator, (p - 1) // n)
        size = int(np.prod(lead, dtype=int)) * n
        # random residues and random ones near p; all p - 1, the largest
        # data, transforms to n·(p - 1) at 0 and zeros, and back to p - 1
        blocks = [f.arr([low + int(v) % (p - low) for v in rng.integers(0, 2**62, size)])
                  for low in (0, p - 1000)]
        rows = np.stack(blocks).reshape(-1, n)
        top = f.arr(np.full(size, p - 1))
        for invert, root, scale in ((False, w, 1), (True, f.inv(w), f.inv(n))):
            wants = list((_naive_dft(f, rows, root) * scale % p).reshape(len(blocks), size))
            want_top = f.zeros((size // n, n))
            want_top[:, 0] = (p - 1) * (1 if invert else n) % p
            for vals, want in zip(blocks + [top], wants + [want_top.ravel()]):
                a = vals.reshape(lead + (n,))
                before = a.copy()
                merged.clear()
                got = f.ntt(a, invert=invert)
                assert got.dtype == f.dtype and got.shape == a.shape
                assert got.flags.c_contiguous
                assert got.ravel().tolist() == want.tolist()
                assert all(0 <= int(v) < p for v in got.ravel())
                assert np.array_equal(a, before)
                if f.dtype is not object:
                    one_slab = n <= _NTT_MERGED_MAX and len(f._ntt_plan(n, invert).passes) <= 2
                    step = _NTT_SLAB // n
                    slabs = [(min(step, size // n - lo), n) for lo in range(0, size // n, step)]
                    assert merged == (slabs if one_slab else []), (n, lead)


def _largest_radix(f):
    """The longest transform that takes a single pass."""
    n = 1
    while len(f._ntt_plan(2 * n, False).passes) == 1:
        n *= 2
    return n


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 2013265921, 2281701377])
def test_ntt_of_top_residues_at_the_largest_radix(p):
    """Entries p - 1 are the largest data a pass multiplies.  A constant c
    transforms to n·c at 0 and zeros, and back to c at 0 and zeros, in one
    pass of the largest radix R and in two (R·R), in blocks of three rows
    and of one row more than a slab, and at the longest length of the
    one-slab form.  The tightest hi-limb sums are checked in the one-slab
    form's one pass of radix R and its first pass at the longest length,
    and in a slab-form pass of radix R."""
    f = get_field(p)
    R = _largest_radix(f)
    assert R == {DEFAULT_PRIME: 128, 2013265921: 64, 2281701377: 32}[p]
    for n in (R, R * R, _NTT_MERGED_MAX):
        for rows in (3, _NTT_SLAB // n + 1):
            top = f.arr(np.full((rows, n), p - 1))
            want = f.zeros((rows, n))
            want[:, 0] = n * (p - 1) % p
            assert np.array_equal(f.ntt(top), want)
            want[:, 0] = p - 1
            assert np.array_equal(f.ntt(top, invert=True), want)
    # p - 1 where a row's hi limb is positive, 0 elsewhere: that row's
    # largest hi-limb sum, the tightest case of the 2^52 bound, in one row
    # and in a block of more than a slab
    w = f.pow(f.generator, (p - 1) // R)
    k = np.arange(R)
    dft = f.powers(w, R)[np.outer(k, k) % R]
    hi = (np.where(dft > p // 2, dft - p, dft) + (1 << 14)) >> 15
    a = np.where(hi > 0, p - 1, 0)
    assert np.array_equal(f.ntt(a), _naive_dft(f, a, w))
    block = np.tile(a, (_NTT_SLAB // (R * R) + 1, 1))
    assert np.array_equal(f.ntt(block), _naive_dft(f, block, w))
    # the same for the one-slab form's first pass at the longest two-pass
    # length: p - 1 where the hi limb of output 1's entry in its column's
    # matrix is positive
    n = min(_NTT_MERGED_MAX, R * R)
    plan = f._ntt_plan(n, False)
    assert plan.merged
    first = plan.passes[0]
    m, L = first.shape[1:3]
    a = np.where(first[1, :, :, 1].T.reshape(-1) > 0, p - 1, 0)  # entry m·j1 + j2
    w = f.pow(f.generator, (p - 1) // n)
    assert m * L == n
    assert np.array_equal(f.ntt(a), _naive_dft(f, a, w))
    # and for the slab form's first pass of radix R, at the shortest length
    # that has one: column j2 of a row seen as (R, m) is p - 1 where the hi
    # limb of row k1 = j2 mod R of the DFT matrix is positive, so the rows
    # cover every k1
    n = 2 * _NTT_MERGED_MAX
    while f._ntt_plan(n, False).passes[0][0].shape[-1] != R:
        n *= 2
    assert not f._ntt_plan(n, False).merged
    m = n // R
    k1 = np.arange(-(-R // m) * m).reshape(-1, m) % R
    a = np.where(hi[k1] > 0, p - 1, 0).swapaxes(1, 2).reshape(-1, n)
    assert np.array_equal(f.ntt(a), _horner_dft(f, a, f.pow(f.generator, (p - 1) // n)))


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 2013265921, 2281701377])
def test_ntt_conv_matches_limb_kernel(p, monkeypatch):
    f = get_field(p)
    taken = _routes_taken(monkeypatch)
    rng = np.random.default_rng(29)
    for la, lb in [(600, 1500), (1025, 1024), (2048, 2049), (5000, 3000), (8192, 8193)]:
        a = f.arr(rng.integers(0, p, la))
        b = f.arr(rng.integers(0, p, lb))
        taken.clear()
        got = f.conv(a, b)
        assert taken == ["ntt"], (la, lb, taken)
        assert np.array_equal(got, f._conv_limbs(a, b))


def test_one_ntt_call_is_one_method_call(monkeypatch):
    """The passes recurse through a private helper, so a tracer wrapping
    PrimeField.ntt sees one call per transform."""
    f = get_field(DEFAULT_PRIME)
    shapes = []
    ntt = PrimeField.ntt

    def counted(self, a, invert=False):
        shapes.append(a.shape)
        return ntt(self, a, invert)

    monkeypatch.setattr(PrimeField, "ntt", counted)
    a = f.arr(np.arange(3 << 16).reshape(3, 1 << 16))  # three passes: 64·32·32
    assert np.array_equal(f.ntt(f.ntt(a), invert=True), a)
    assert shapes == [a.shape, a.shape]


def _naive_conv(p, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + int(x) * int(y)) % p
    return out


@pytest.mark.parametrize("p", [DEFAULT_PRIME, BENCH_PRIME, 7])
def test_conv_matches_naive(p):
    f = get_field(p)
    rng = np.random.default_rng(11)
    for _ in range(10):
        la, lb = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        a = f.arr(rng.integers(0, p, size=la))
        b = f.arr(rng.integers(0, p, size=lb))
        assert f.conv(a, b).tolist() == _naive_conv(p, a, b)


def _python_int_conv(p, a, b):
    """Reference product on Python ints by Kronecker substitution: pack each
    sequence into one integer with slots wide enough for every coefficient
    of the product, multiply once, and read the slots back."""
    slot = 2 * p.bit_length() + min(len(a), len(b)).bit_length()
    pa = sum(int(c) << (slot * i) for i, c in enumerate(a))
    pb = sum(int(c) << (slot * i) for i, c in enumerate(b))
    prod, mask = pa * pb, (1 << slot) - 1
    return [((prod >> (slot * i)) & mask) % p for i in range(len(a) + len(b) - 1)]


# 2^31-1 and 2^62-57 have two-adicity 1, so every product runs the limb
# kernel; 3037000493 is the int64 edge; 2^64-59 has residues beyond int64.
# Output lengths straddle the Toeplitz bound on int64 fields and the 3072
# object-dtype cutoff.
# A shorter factor of at most floor(2^63/p^2) terms takes one unsplit
# np.convolve; the lengths in _UNSPLIT_EDGE sit on either side of that bound.
_UNSPLIT_EDGE = {DEFAULT_PRIME: (9, 10), 2013265921: (2, 3), 2281701377: (1, 2)}


@pytest.mark.parametrize("p", [7, 2**31 - 1, DEFAULT_PRIME, 2013265921, 2281701377,
                               3037000493, BENCH_PRIME, 2**62 - 57, 2**64 - 59])
def test_conv_matches_python_int_reference(p):
    f = get_field(p)
    rng = np.random.default_rng(17)
    for la, lb in [(1, 1), (1, 1024), (512, 513), (513, 513), (700, 1500), (1600, 1600)]:
        a = f.arr([int(v) % p for v in rng.integers(0, 2**63, la, dtype=np.uint64)])
        b = f.arr([int(v) % p for v in rng.integers(0, 2**63, lb, dtype=np.uint64)])
        assert f.conv(a, b).tolist() == _python_int_conv(p, a, b)
    # all entries p-1: the largest limbs, so the largest int64 partial sums
    top = f.arr([p - 1] * 1100)
    assert f.conv(top, top).tolist() == _python_int_conv(p, top, top)
    for short in _UNSPLIT_EDGE.get(p, ()):
        for a, b in [(top[:short], top[:700]), (top[:600], top[:short])]:
            assert f.conv(a, b).tolist() == _python_int_conv(p, a, b)


@settings(max_examples=30)
@given(data=st.data())
def test_conv_commutes(data):
    f = get_field(DEFAULT_PRIME)
    a = f.arr(data.draw(st.lists(st.integers(0, f.p - 1), min_size=1, max_size=12)))
    b = f.arr(data.draw(st.lists(st.integers(0, f.p - 1), min_size=1, max_size=12)))
    assert np.array_equal(f.conv(a, b), f.conv(b, a))


_OBJECT_PRIMES = [BENCH_PRIME, 2**64 - 59]
# lead shapes of a and b: 1-D, blocks of rows, one side broadcast, an outer
# product of leading axes
_LEADS = [lambda r, c: ((), ()), lambda r, c: ((r,), (r,)), lambda r, c: ((r,), ()),
          lambda r, c: ((), (r,)), lambda r, c: ((r, 1), (1, c))]


def _object_residues(f, rng, shape):
    """Residues of f drawn over the whole range, with 0 and p - 1 (the
    largest limbs) more likely."""
    draw = [int(v) % f.p for v in rng.integers(0, 2**64, int(np.prod(shape)), dtype=np.uint64)]
    edge = rng.integers(0, 8, len(draw))
    vals = [0 if e == 0 else f.p - 1 if e == 1 else v for v, e in zip(draw, edge)]
    return f.arr(vals).reshape(shape)


def _conv_reference(p, a, b):
    """_python_int_conv row by row over the broadcast leading axes."""
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    A = np.broadcast_to(a, lead + a.shape[-1:])
    B = np.broadcast_to(b, lead + b.shape[-1:])
    rows = [_python_int_conv(p, A[i], B[i]) for i in np.ndindex(lead)]
    return np.array(rows, dtype=object).reshape(lead + (-1,))


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(_OBJECT_PRIMES), lead=st.sampled_from(_LEADS),
       rows=st.integers(1, 9), cols=st.integers(1, 4), la=st.integers(1, 90),
       lb=st.integers(1, 90), zero_row=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_conv_on_object_primes_matches_python_ints(p, lead, rows, cols, la, lb, zero_row, seed):
    """Both sides of the whole-residue bound rows·la·lb <= C: 1-D pairs,
    blocks, broadcast leading axes, 1-term factors and all-zero rows."""
    f = get_field(p)
    rng = np.random.default_rng(seed)
    lead_a, lead_b = lead(rows, cols)
    a = _object_residues(f, rng, lead_a + (la,))
    b = _object_residues(f, rng, lead_b + (lb,))
    if zero_row and a.ndim > 1:
        a[0] = 0
    got = f.conv(a, b)
    assert got.dtype == object
    assert got.tolist() == _conv_reference(p, a, b).tolist()


@pytest.mark.parametrize("p", _OBJECT_PRIMES)
def test_conv_whole_residue_bound_on_object_primes(p, monkeypatch):
    """rows·la·lb = C convolves whole residues, C + 1 splits them into limbs."""
    assert _WHOLE_CONV_TERMS_OBJECT == 3024  # 56·54, and C + 1 = 55·55
    f = get_field(p)
    rng = np.random.default_rng(37)
    limbs = PrimeField._limbs
    splits = []
    monkeypatch.setattr(PrimeField, "_limbs",
                        lambda self, v, split: splits.append(split) or limbs(self, v, split))
    for lead, la, lb, split in [((), 56, 54, False), ((4,), 27, 28, False),
                                ((), 55, 55, True), ((25,), 11, 11, True)]:
        a = _object_residues(f, rng, lead + (la,))
        b = _object_residues(f, rng, lead + (lb,))
        splits.clear()
        assert f.conv(a, b).tolist() == _conv_reference(p, a, b).tolist()
        assert splits == [split, split], (lead, la, lb)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_convolve_windows_match_np_convolve_row_by_row(dtype):
    """_convolve's strided windows against one np.convolve per row: broadcast
    leading axes on either side, a 1-term factor, and la < lb (the factors
    swap)."""
    rng = np.random.default_rng(41)
    cases = [((24,), (24,), 40, 9), ((3, 1), (1, 4), 7, 5), ((5,), (), 6, 1),
             ((), (2, 3), 1, 8), ((4,), (4,), 3, 11), ((2, 3), (3,), 9, 9)]
    for lead_a, lead_b, la, lb in cases:
        a = rng.integers(0, 1000, lead_a + (la,)).astype(dtype)
        b = rng.integers(0, 1000, lead_b + (lb,)).astype(dtype)
        got = PrimeField._convolve(a, b)
        lead = np.broadcast_shapes(lead_a, lead_b)
        A, B = np.broadcast_to(a, lead + (la,)), np.broadcast_to(b, lead + (lb,))
        assert got.shape == lead + (la + lb - 1,)
        for i in np.ndindex(lead):
            assert got[i].tolist() == np.convolve(A[i], B[i]).tolist(), (lead_a, lead_b, la, lb, i)


def _toeplitz_patterns(n):
    """(a, b) leading shapes and lengths of the block convolutions the tree
    and the product chain make, with the limbed factor x of length n: a
    level's rows by its nodes, (r, nodes, n) by (nodes, n + 1); reductions
    of (r, q, 1, n) by one modulus row (1, n); a 1-D factor broadcast over
    a block, (n + 1,) by (r, n); the outer product of equal row counts,
    (r, n) by (r, 1, n); a row-by-row pairing, (r, n) by (r, n + 1); and
    one row, (n,) by (n + 1,)."""
    return [((2, 3), n, (3,), n + 1), ((2, 2, 1), n, (1,), n), ((), n + 1, (2,), n),
            ((2,), n, (2, 1), n), ((2,), n, (2,), n + 1), ((), n, (), n + 1)]


@pytest.mark.parametrize("p", _INT64_PRIMES)
def test_toeplitz_conv_is_exact_on_every_prime(p):
    """The Toeplitz route against Python ints: the limbed factor as long as
    the room of an exact float64 product (field module docstring) and one
    past it, against a factor at least as long, so one slice sums room
    products; random residues, all p − 1, and limbed rows of the widest
    limbs, (p − 1)/2, by matrices of p − 1.  At 7 the room exceeds any
    block."""
    f = get_field(p)
    rng = np.random.default_rng(p % 1013)
    for n in ((36, 37) if p == 7 else (f._room, f._room + 1)):
        for lead_a, la, lead_b, lb in _toeplitz_patterns(n):
            lead = np.broadcast_shapes(lead_a, lead_b)
            sa, sb = lead_a + (la,), lead_b + (lb,)
            # the limbed factor, as _conv_toeplitz picks it
            limbed_a = not math.prod(lead_a) * lb < math.prod(lead_b) * la
            assert (la if limbed_a else lb) == n
            wide = (p - 1) // 2
            cases = [(f.arr(rng.integers(0, 2**63, sa, dtype=np.uint64)),
                      f.arr(rng.integers(0, 2**63, sb, dtype=np.uint64))),
                     (np.full(sa, p - 1), np.full(sb, p - 1)),
                     (np.full(sa, wide if limbed_a else p - 1),
                      np.full(sb, p - 1 if limbed_a else wide))]
            for a, b in cases:
                got = f._conv_toeplitz(a, b, lead)
                assert got.dtype == np.int64
                want = _conv_reference(p, a, b)
                assert got.tolist() == want.tolist(), (n, sa, sb, int(a.flat[0]))


def _routes_taken(monkeypatch):
    """The list into which conv's three kernels, wrapped, append their
    names (toeplitz, ntt, limbs) as they are called."""
    taken = []
    for name in ("_conv_toeplitz", "_conv_ntt", "_conv_limbs"):
        kernel = getattr(PrimeField, name)
        monkeypatch.setattr(PrimeField, name, lambda self, *args, _k=kernel, _n=name:
                            taken.append(_n[6:]) or _k(self, *args))
    return taken


def test_conv_routes_by_prime_and_shape(monkeypatch):
    """Which kernel conv calls, one row and a block of rows alike: a factor
    of at most slack terms takes the limb kernel; on int64 fields a product
    whose Toeplitz matrices (those of the factor that makes the fewer
    entries) hold at most _TOEPLITZ_FLOATS entries takes the Toeplitz
    route, whatever the prime's transform length; a larger one takes the
    NTT, or the limb kernel where the prime has no transform that long;
    object-dtype fields never take the Toeplitz route."""
    taken = _routes_taken(monkeypatch)
    edge = _TOEPLITZ_FLOATS // 512  # (2, 256) by (257,) builds 256 × 512 entries
    cases = [(DEFAULT_PRIME, (4, 2, 64), (2, 65), "toeplitz"),
             (DEFAULT_PRIME, (4, 4, 1, 127), (1, 127), "toeplitz"),
             (DEFAULT_PRIME, (129,), (4, 128), "toeplitz"),
             (DEFAULT_PRIME, (1, 2, 64), (2, 65), "toeplitz"),
             (DEFAULT_PRIME, (4, 128), (4, 1, 128), "toeplitz"),
             (DEFAULT_PRIME, (2, edge), (edge + 1,), "toeplitz"),
             (DEFAULT_PRIME, (2, edge), (edge + 2,), "ntt"),
             (DEFAULT_PRIME, (4, 255), (383,), "ntt"),
             (DEFAULT_PRIME, (4, 16, 8), (16, 9), "limbs"),
             (DEFAULT_PRIME, (128,), (256,), "toeplitz"),
             (DEFAULT_PRIME, (255,), (383,), "ntt"),
             (DEFAULT_PRIME, (600,), (1500,), "ntt"),
             (2**31 - 1, (4, 2, 64), (2, 65), "toeplitz"),
             (2**31 - 1, (255,), (383,), "limbs"),
             (2**31 - 1, (4, 255), (383,), "limbs"),
             (3037000493, (4, 8, 16), (8, 17), "toeplitz"),
             (7, (4, 2, 64), (2, 65), "limbs"),
             (BENCH_PRIME, (4, 2, 64), (2, 65), "limbs"),
             (BENCH_PRIME, (2, 20), (3100,), "ntt")]
    rng = np.random.default_rng(43)
    for p, sa, sb, route in cases:
        f = get_field(p)
        a, b = f.arr(rng.integers(0, p, sa)), f.arr(rng.integers(0, p, sb))
        taken.clear()
        got = f.conv(a, b)
        assert taken[:1] == [route], (p, sa, sb, taken)
        if route != "limbs":
            assert np.array_equal(got, f._conv_limbs(a, b)), (p, sa, sb)
    # a block of no rows is empty
    f = get_field(DEFAULT_PRIME)
    assert f.conv(f.zeros((0, 64)), f.zeros((2, 1, 65))).shape == (2, 0, 128)


def test_field_identity_and_hash():
    assert get_field(7) == get_field(7)
    assert hash(PrimeField(7)) == hash(PrimeField(7))
    assert PrimeField(7) != PrimeField(13)


# 3037000493 is the largest prime below _INT64_SAFE_BOUND, the int64 edge of
# row_reduce's update: one pending col·row subtraction, below p² < 2^63, is
# all an int64 entry holds there, so it reduces after every pivot step
@pytest.mark.parametrize("p", [7, DEFAULT_PRIME, BENCH_PRIME, 3037000493])
def test_row_reduce_matches_oracle(p):
    from dispmat.oracle import _row_reduce, dense_rank

    f = get_field(p)
    rng = np.random.default_rng(13)
    for _ in range(12):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        k = int(rng.integers(0, min(rows, cols)))  # rank-deficient
        M = f.mat_mul(f.arr(rng.integers(0, p, (rows, k))),
                      f.arr(rng.integers(0, p, (k, cols))))
        M[:, int(rng.integers(cols))] = 0  # a column without a pivot
        R, pivots, order = f.row_reduce(M)
        want_R, want_pivots = _row_reduce(f, M)
        assert R.dtype == f.dtype
        assert R.tolist() == want_R.tolist()
        assert pivots == want_pivots and len(pivots) <= k
        assert sorted(order.tolist()) == list(range(rows))
        r = len(pivots)
        assert dense_rank(f, M[order[:r]]) == r


def _elimination_cases(f, rng, m=40):
    """[A | b] and [A | I] with m pivots or more: random A with a zero leading
    entry (rows swap), all-(p − 1) A (the largest col·row products), p − 1
    off a zero diagonal, and a rank-(m − 10) product whose column m/2 has
    no pivot."""
    p = f.p
    full = f.arr(rng.integers(0, p, (m, m)))
    full[0, 0] = 0
    worst = f.arr(np.full((m, m), p - 1, dtype=object))
    off_diagonal = worst.copy()
    np.fill_diagonal(off_diagonal, 0)
    low = f.mat_mul(f.arr(rng.integers(0, p, (m, m - 10))), f.arr(rng.integers(0, p, (m - 10, m))))
    low[:, m // 2] = 0
    eye = np.eye(m, dtype=f.dtype)
    for A in (full, worst, off_diagonal, low):
        yield np.concatenate([A, A[:, -1:]], axis=1)
        yield np.concatenate([A, f.arr(rng.integers(0, p, (m, 1)))], axis=1)
        yield np.concatenate([A, eye], axis=1)


# delayed reduction: 40 pivot steps span several periods of slack − 1 steps
# (8 at 998244353), one reduction per step at 2^31 − 1, 2013265921 and
# 3037000493 (slack ≤ 2) and on object arrays, and no periodic one at p = 7
@pytest.mark.parametrize("p", [7, DEFAULT_PRIME, 2**31 - 1, 2013265921, 3037000493, BENCH_PRIME])
def test_row_reduce_across_reduction_periods(p):
    from dispmat.oracle import _row_reduce, dense_rank

    f = get_field(p)
    rng = np.random.default_rng(29)
    for M in _elimination_cases(f, rng):
        R, pivots, order = f.row_reduce(M)
        want_R, want_pivots = _row_reduce(f, M)
        assert R.dtype == f.dtype
        assert R.tolist() == want_R.tolist()
        assert pivots == want_pivots
        assert sorted(order.tolist()) == list(range(M.shape[0]))
        r = len(pivots)
        assert dense_rank(f, M[order[:r]]) == r


@pytest.mark.parametrize("p", [DEFAULT_PRIME, BENCH_PRIME])
def test_row_reduce_stops_when_the_rows_left_are_zero(p, monkeypatch):
    """Once the rows below the last pivot are zero, the next column without
    a pivot ends the elimination: the column scans stop one past the last
    pivot column, so the 64×64 rank-6 matrix takes 7, not 64.  R and
    pivots match the oracle, and order puts rows of M of full rank first."""
    from dispmat.oracle import _row_reduce, dense_rank

    f = get_field(p)
    rng = np.random.default_rng(17)

    def rank_product(rows, cols, k):
        return f.mat_mul(f.arr(rng.integers(0, p, (rows, k))), f.arr(rng.integers(0, p, (k, cols))))

    last = rank_product(5, 6, 3)
    last[:, 2:] = 0
    last[:, 5] = rng.integers(1, p, 5)  # rank 3, last pivot in the last column
    cases = [(f.zeros((7, 9)), 0), (rank_product(6, 8, 1), 1), (last, 3),
             (rank_product(64, 64, 6), 6)]
    scans = []
    real = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: scans.append(1) or real(a))
    for M, rank in cases:
        scans.clear()
        R, pivots, order = f.row_reduce(M)
        count = len(scans)
        want_R, want_pivots = _row_reduce(f, M)
        assert R.tolist() == want_R.tolist() and pivots == want_pivots
        assert len(pivots) == rank
        assert count == min(M.shape[1], pivots[-1] + 2 if pivots else 1)
        assert sorted(order.tolist()) == list(range(M.shape[0]))
        assert dense_rank(f, M[order[:rank]]) == rank
    assert pivots == list(range(6))


def test_row_reduce_takes_the_first_nonzero_pivot():
    f = get_field(7)
    R, pivots, order = f.row_reduce(f.arr([[0, 1, 2], [0, 0, 3], [2, 4, 0]]))
    assert pivots == [0, 1, 2] and order.tolist() == [2, 0, 1]
    assert R.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
