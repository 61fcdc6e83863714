"""Every block form of the polynomial layer equals its column-by-column
application: the reduction, combination and CRT maps of a family, its
blockwise symmetrizer and modular products, on blocks of beta in {0, 1, 5}
rows, including all-zero rows, for general families with unequal and skewed
block degrees, geometric and single-power families, over an int64 prime,
the int64 edge prime and the 62-bit (object-dtype) prime.  Each row is also
checked against a reference built from one modulus at a time."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dispmat.field import BENCH_PRIME, DEFAULT_PRIME, get_field
from dispmat.operators import y_apply_family
from dispmat.poly import (
    Moduli,
    NotCoprime,
    comb_family,
    crt_family,
    family_build,
    modmul_apply,
    poly_mod,
    poly_mul,
    red_family,
    trim,
)

PRIMES = (DEFAULT_PRIME, 3037000493, BENCH_PRIME)
SHAPES = ("unequal", "skewed", "geometric", "single_power")


def _family(f, rng, shape):
    while True:
        if shape == "geometric":
            u, q = (int(x) for x in rng.integers(1, f.p, 2))
            moduli = [[(-u * pow(q, i, f.p)) % f.p, 1] for i in range(6)]
        elif shape == "single_power":
            moduli = [[int(rng.integers(0, f.p))] + [0] * 6 + [1]]
        else:
            degrees = [3, 1, 4, 2] if shape == "unequal" else [20, 1, 1, 1, 1]
            moduli = [[int(c) for c in rng.integers(0, f.p, d)] + [1] for d in degrees]
        try:
            fam = family_build(f, moduli)
        except NotCoprime:
            continue
        if fam.flavor == ("general" if shape in ("unequal", "skewed") else shape):
            return fam


def _block(f, rng, beta, width):
    X = f.arr(rng.integers(0, f.p, (beta, width)))
    if beta > 1:
        X[1] = 0
    return X


def _rows_agree(block_fn, X, row_fn):
    got = block_fn(X)
    assert got.shape[0] == X.shape[0]
    for i in range(X.shape[0]):
        want = row_fn(X[i])
        assert np.array_equal(got[i], want)
    return got


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), shape=st.sampled_from(SHAPES),
       beta=st.sampled_from((0, 1, 5)), seed=st.integers(0, 2**32 - 1))
def test_block_forms_match_rows(p, shape, beta, seed):
    f = get_field(p)
    rng = np.random.default_rng(seed)
    fam = _family(f, rng, shape)
    m = fam.total_degree
    split = fam.split_vector

    A = _block(f, rng, beta, 2 * m + 3)
    res = _rows_agree(lambda X: red_family(fam, X), A, lambda a: red_family(fam, a))
    for a, r in zip(A, res):
        for part, P in zip(split(r), fam.polys):
            assert np.array_equal(trim(f, part), poly_mod(f, trim(f, a), P))

    V = _block(f, rng, beta, m)
    comb = _rows_agree(lambda X: comb_family(fam, X), V, lambda v: comb_family(fam, v))
    for v, c in zip(V, comb):
        want = f.zeros(0)
        for part, P in zip(split(v), fam.polys):
            cofactor = _exact_quotient(f, fam.product, P)
            want = _add(f, want, poly_mul(f, trim(f, part), cofactor))
        assert np.array_equal(trim(f, c), want)

    crt = _rows_agree(lambda X: crt_family(fam, X), V, lambda v: crt_family(fam, v))
    for v, a in zip(V, crt):
        assert np.array_equal(red_family(fam, a), v)

    Y = _rows_agree(lambda X: y_apply_family(fam, X), V, lambda v: y_apply_family(fam, v))
    for v, y in zip(V, Y):
        for part, P, out in zip(split(v), fam.polys, split(y)):
            assert np.array_equal(out, Moduli.of(f, P).symmetrize(part[None])[0])
    back = _rows_agree(lambda X: y_apply_family(fam, X, inverse=True), Y,
                       lambda y: y_apply_family(fam, y, inverse=True))
    assert np.array_equal(back, V)

    table = np.stack([np.append(f.arr(rng.integers(0, f.p, d)),
                                f.zeros(fam.levels[0].width - d)) for d in fam.degrees])
    prods = _rows_agree(lambda X: modmul_apply(table, fam, X), V,
                        lambda v: modmul_apply(table, fam, v))
    for v, out in zip(V, prods):
        for part, P, F, o in zip(split(v), fam.polys, table, split(out)):
            want = poly_mod(f, poly_mul(f, trim(f, F), trim(f, part)), P)
            assert np.array_equal(trim(f, o), want)


def _add(f, a, b):
    n = max(len(a), len(b))
    out = f.zeros(n)
    out[: len(a)] = a
    out[: len(b)] = (out[: len(b)] + b) % f.p
    return trim(f, out)


def _exact_quotient(f, a, b):
    """a / b for a monic b dividing a, by long division."""
    a = a.copy()
    q = f.zeros(len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = a[i + len(b) - 1]
        a[i: i + len(b)] = (a[i: i + len(b)] - q[i] * b) % f.p
    return trim(f, q)
