import itertools

import numpy as np
import pytest

from dispmat import field
from dispmat.field import BENCH_PRIME, get_field
from dispmat.polymat import _pm_mul_conv, _pm_mul_points, pm_mul, points_operand, points_product

F = get_field(998244353)


def _naive_pm_mul(f, a, b, bound):
    """Entrywise schoolbook product, the reference for pm_mul."""
    out = f.zeros((a.shape[0], b.shape[1], bound))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = [0] * bound
            for k in range(a.shape[1]):
                u, v = a[i, k], b[k, j]
                for s, x in enumerate(u):
                    for t, y in enumerate(v):
                        if s + t < bound:
                            acc[s + t] = (acc[s + t] + int(x) * int(y)) % f.p
            out[i, j, :] = f.arr(acc)
    return out


@pytest.mark.parametrize("p", [998244353, BENCH_PRIME])
def test_mul_matches_naive(p):
    f = get_field(p)
    rng = np.random.default_rng(p % 97)
    for _ in range(6):
        r, k, c = (int(rng.integers(1, 4)) for _ in range(3))
        da, db = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = f.arr(rng.integers(0, p, size=(r, k, da)))
        b = f.arr(rng.integers(0, p, size=(k, c, db)))
        got = pm_mul(f, a, b)
        want = _naive_pm_mul(f, a, b, got.shape[2])
        assert np.array_equal(got, want)


def test_mul_out_bound_truncates():
    rng = np.random.default_rng(23)
    a = F.arr(rng.integers(0, F.p, size=(2, 2, 5)))
    b = F.arr(rng.integers(0, F.p, size=(2, 2, 5)))
    full = pm_mul(F, a, b)
    cut = pm_mul(F, a, b, out_bound=3)
    assert cut.shape[2] == 3
    assert np.array_equal(cut, full[:, :, :3])


def test_mul_point_and_entrywise_paths_agree():
    """Large bound forces the NTT point path; compare with a tiny-field run
    of the same shape that must take the convolution fallback."""
    rng = np.random.default_rng(31)
    a = F.arr(rng.integers(0, F.p, size=(3, 2, 16)))
    b = F.arr(rng.integers(0, F.p, size=(2, 3, 16)))
    got = pm_mul(F, a, b)
    want = _naive_pm_mul(F, a, b, got.shape[2])
    assert np.array_equal(got, want)


# p62 has transform room for these shapes, so both routes run; 2^64 - 59
# (capacity 4) and 2^31 - 1 (capacity 2) have it only for the shortest
# products, and beyond that pm_mul can take only the conv route
@pytest.mark.parametrize("p", [BENCH_PRIME, 2**64 - 59, 2**31 - 1])
def test_mul_conv_and_transform_routes_agree(p):
    f = get_field(p)
    rng = np.random.default_rng(41)

    def rand(*shape):
        return f.arr(rng.integers(0, 2**64, size=shape, dtype=np.uint64))

    for r, k, c in [(1, 1, 1), (1, 9, 1), (1, 3, 2), (2, 3, 1), (3, 2, 4)]:
        for da, db in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (13, 6), (24, 25)]:
            a, b = rand(r, k, da), rand(k, c, db)
            got = pm_mul(f, a, b)
            assert got.dtype == f.dtype
            assert np.array_equal(got, _naive_pm_mul(f, a, b, got.shape[2])), (r, k, c, da, db)
            assert np.array_equal(_pm_mul_conv(f, a, b), got)
            need = da + db - 1
            size = 1 << (need - 1).bit_length()
            if size <= f.ntt_capacity():
                assert np.array_equal(_pm_mul_points(f, a, b, size, need), got)


@pytest.mark.parametrize("p", [7, 998244353, 2**31 - 1, 2013265921, 2281701377, 3037000493,
                               BENCH_PRIME])
def test_points_product_is_exact_on_every_prime(p, monkeypatch):
    """points_product against a Python-int einsum, with the inner dimension
    at the room of an exact float64 product (field module docstring), one
    past it and past two slices of it, on random residues, on all p − 1,
    and on all p − 1 by a right operand of the widest limbs, (p − 1)/2, with
    three columns and with one, the shape of pm_mul's products by a
    column; the points run in slabs of two, the last one alone.  At 7 the room
    exceeds any block, and the object-dtype 62-bit prime has none."""
    f = get_field(p)
    rows, count = 2, 5
    if f.dtype is object:
        inner = (1, 2, 5)
    else:
        # the room is the largest count the docstring's 2^52 bound allows
        limb = max(1 << 14, ((p - 1) >> 16) + 1)
        assert f._room * p * limb <= 1 << 52 < (f._room + 1) * p * limb
        inner = (1, 2, 37) if p == 7 else (f._room, f._room + 1, 2 * f._room + 3)
    if p == 3037000493:
        assert f._room == 31
    rng = np.random.default_rng(p % 1009)
    for k, cols in itertools.product(inner, (3, 1)):
        monkeypatch.setattr(field, "_NTT_SLAB", 2 * rows * cols)
        top = np.full((rows, k, count), p - 1, dtype=f.dtype)
        cases = [(f.arr(rng.integers(0, 2**63, size=(rows, k, count), dtype=np.uint64)),
                  f.arr(rng.integers(0, 2**63, size=(k, cols, count), dtype=np.uint64))),
                 (top, np.full((k, cols, count), p - 1, dtype=f.dtype)),
                 (top, np.full((k, cols, count), (p - 1) // 2, dtype=f.dtype))]
        for va, vb in cases:
            want = np.einsum("iks,kjs->ijs", va.astype(object), vb.astype(object)) % p
            got = points_product(f, va, points_operand(f, vb))
            assert got.dtype == f.dtype and got.shape == (rows, cols, count)
            assert np.array_equal(got, want), (k, cols, int(vb[0, 0, 0]))
