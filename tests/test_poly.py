
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispmat import poly
from dispmat.field import BENCH_PRIME, PrimeField, get_field
from dispmat.poly import (
    Moduli,
    BoundTooSmall,
    DegeneratePoints,
    DimensionMismatch,
    DivisionByZero,
    NonUnitConstantTerm,
    NotCoprime,
    NotMonic,
    as_poly,
    comb_family,
    comb_family_inv,
    crt_family,
    degree,
    family_build,
    geom_eval,
    geom_interp,
    is_zero,
    poly_add,
    poly_divrem,
    poly_eval,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_rev,
    poly_sub,
    red_family,
    red_transposed,
    series_inv,
    trim,
    xgcd,
)

F7 = get_field(7)
F = get_field(998244353)

small_poly = st.lists(st.integers(0, 6), min_size=0, max_size=10)


def test_trim_degree_conventions():
    assert is_zero(trim(F7, F7.arr([0, 0, 7])))
    assert degree(as_poly(F7, [])) == -1
    assert degree(as_poly(F7, [5])) == 0
    assert degree(as_poly(F7, [0, 0, 3, 0])) == 2


@given(a=small_poly, b=small_poly)
def test_add_sub_roundtrip(a, b):
    pa, pb = as_poly(F7, a), as_poly(F7, b)
    assert np.array_equal(poly_sub(F7, poly_add(F7, pa, pb), pb), pa)


def test_mul_matches_eval():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = as_poly(F, rng.integers(0, F.p, size=rng.integers(1, 9)))
        b = as_poly(F, rng.integers(0, F.p, size=rng.integers(1, 9)))
        x = int(rng.integers(0, F.p))
        lhs = poly_eval(F, poly_mul(F, a, b), x)
        assert lhs == F.mul(poly_eval(F, a, x), poly_eval(F, b, x))


@settings(max_examples=60)
@given(a=small_poly, b=small_poly)
def test_divrem_invariant(a, b):
    pa, pb = as_poly(F7, a), as_poly(F7, b)
    if is_zero(pb):
        with pytest.raises(DivisionByZero):
            poly_divrem(F7, pa, pb)
        return
    q, r = poly_divrem(F7, pa, pb)
    assert degree(r) < degree(pb)
    back = poly_add(F7, poly_mul(F7, q, pb), r)
    assert np.array_equal(back, pa)


@settings(max_examples=60)
@given(a=small_poly, b=small_poly)
def test_xgcd_bezout(a, b):
    pa, pb = as_poly(F7, a), as_poly(F7, b)
    g, s, t = xgcd(F7, pa, pb)
    lhs = poly_add(F7, poly_mul(F7, s, pa), poly_mul(F7, t, pb))
    assert np.array_equal(lhs, g)
    if not is_zero(g):
        assert int(g[-1]) == 1  # monic
        assert is_zero(poly_mod(F7, pa, g)) and is_zero(poly_mod(F7, pb, g))


def test_gcd_frozen():
    # (x^2 - 1, x^2 - 3x + 2) = (x - 1)
    a = as_poly(F7, [6, 0, 1])
    b = as_poly(F7, [2, 4, 1])
    assert poly_gcd(F7, a, b).tolist() == [6, 1]


def test_moduli_inverse_inverts_or_reports_a_shared_factor():
    """One lockstep Euclid over a stack of moduli of mixed degrees: a row
    coprime to its modulus comes back inverted, a row sharing a factor with
    it (or zero) comes back zero with ok False."""
    x_sq = Moduli(F7, F7.arr([[0, 0, 1]]), [2])
    X, ok = x_sq.inverse(F7.arr([[0, 1]]))  # x | x^2
    assert not ok[0] and not np.any(X)
    rng = np.random.default_rng(53)
    for f in (F, get_field(BENCH_PRIME)):
        def monic(k):
            return np.append(f.arr(rng.integers(0, f.p, k)), f.arr([1]))

        for _ in range(3):
            degs = [int(k) for k in rng.integers(1, 40, 5)]
            polys, rows, coprime = [], [], []
            for i, k in enumerate(degs):
                if i % 2:  # a shared factor D: P = D·P0, a = D·a0 mod P
                    D = monic(int(rng.integers(1, min(k, 3) + 1)))
                    P = poly_mul(f, D, monic(k - degree(D)))
                    a = poly_mod(f, poly_mul(f, D, f.arr(rng.integers(1, f.p, k))), P)
                else:
                    P = monic(k)
                    a = poly_mod(f, f.arr(rng.integers(0, f.p, 2 * k + 1)), P)
                polys.append(P)
                rows.append(a)
                coprime.append(degree(poly_gcd(f, a, P)) == 0)
            stack = Moduli(f, poly.stacked(f, polys, len(polys), max(degs) + 1), degs)
            X, ok = stack.inverse(poly.stacked(f, rows, len(rows), max(degs)))
            assert ok.tolist() == coprime
            assert coprime[0] and not coprime[1]  # a random pair is coprime
            for P, a, x, good in zip(polys, rows, X, ok):
                if good:
                    assert poly_mod(f, poly_mul(f, a, trim(f, x)), P).tolist() == [1]
                else:
                    assert not np.any(x)


def test_series_inv():
    a = as_poly(F, [1, 1])  # 1 + x
    inv = series_inv(F, a, 6)
    prod = poly_mul(F, a, inv)
    assert np.array_equal(trim(F, prod[:6]), as_poly(F, [1]))
    # alternating signs: 1 - x + x^2 - ...
    want = [1 if i % 2 == 0 else F.p - 1 for i in range(len(inv))]
    assert inv.tolist() == want[: len(inv)]
    with pytest.raises(NonUnitConstantTerm):
        series_inv(F, as_poly(F, [0, 1]), 4)


def test_poly_rev_involution():
    a = as_poly(F7, [1, 2, 0, 3])
    r = poly_rev(F7, a, 3)
    assert r.tolist() == [3, 0, 2, 1]
    assert np.array_equal(poly_rev(F7, r, 3), a)


def test_symmetrizer_dense_agreement():
    """Y_P has (i, j) entry p_{i+j+1} (0-indexed); apply/solve must match."""
    rng = np.random.default_rng(1)
    for f in (F7, F):
        for m in (1, 2, 5, 8):
            P = f.arr(list(rng.integers(0, f.p, size=m)) + [1])
            Y = f.zeros((m, m))
            for i in range(m):
                for j in range(m):
                    if i + j + 1 <= m:
                        Y[i, j] = P[i + j + 1]
            v = f.arr(rng.integers(0, f.p, size=(1, m)))
            stack = Moduli.of(f, P)
            assert np.array_equal(stack.symmetrize(v), f.mat_mul(Y, v.T).T)
            assert np.array_equal(stack.symmetrize(stack.symmetrize(v), inverse=True), v)


def test_symmetrizer_power_is_antidiagonal():
    m = 4
    P = as_poly(F7, [0] * m + [1])  # x^4
    v = F7.arr([[1, 2, 3, 4]])
    assert Moduli.of(F7, P).symmetrize(v).tolist() == [[4, 3, 2, 1]]


def test_family_build_validation():
    with pytest.raises(DimensionMismatch):
        family_build(F7, [])
    with pytest.raises(NotMonic):
        family_build(F7, [[1, 2]])  # 2x + 1 is not monic
    with pytest.raises(NotMonic):
        family_build(F7, [[3]])  # constants not allowed
    # NotCoprime names the first failing member and its first partner
    for moduli, pair in (([[6, 1], [6, 1]], (0, 1)),                 # x-1 twice
                         ([[6, 0, 1], [6, 1]], (0, 1)),              # x^2-1 and x-1
                         ([[6, 1], [5, 1], [6, 0, 1]], (0, 2)),      # x-1, x-2, x^2-1
                         ([[4, 1], [6, 0, 1], [6, 1], [1, 1]], (1, 2))):  # x^2-1: x-1, x+1
        with pytest.raises(NotCoprime) as err:
            family_build(F7, moduli)
        assert err.value.pair == pair


def test_not_coprime_pair_shares_a_factor():
    """On random families the pair NotCoprime names shares a factor by the
    reference gcd."""
    rng = np.random.default_rng(11)
    rejected = 0
    for _ in range(60):
        polys = [[int(c) for c in rng.integers(0, 3, int(rng.integers(1, 4)))] + [1]
                 for _ in range(int(rng.integers(2, 6)))]
        try:
            family_build(F7, polys)
        except NotCoprime as e:
            i, j = e.pair
            rejected += 1
            assert i < j and degree(poly_gcd(F7, as_poly(F7, polys[i]),
                                              as_poly(F7, polys[j]))) > 0
    assert rejected >= 10


def test_flavor_detection():
    assert family_build(F, [[0, 0, 0, 1]]).flavor == "single_power"
    fam = family_build(F, [[F.p - 5, 0, 0, 1]])  # x^3 - 5
    assert fam.flavor == "single_power" and fam.flavor_params == (5,)
    # roots 2, 6 = 2*3 over F_7
    fam = family_build(F7, [[5, 1], [1, 1]])
    assert fam.flavor == "geometric" and fam.flavor_params == (2, 3)
    assert family_build(F7, [[0, 1], [6, 1]]).flavor == "general"  # root 0
    assert family_build(F, [[1, 1], [1, 1, 1]]).flavor == "general"


def test_split_join_vectors():
    fam = family_build(F7, [[1, 1], [2, 4, 1]])
    v = F7.arr([1, 2, 3])
    parts = fam.split_vector(v)
    assert [p.tolist() for p in parts] == [[1], [2, 3]]
    with pytest.raises(DimensionMismatch):
        fam.split_vector(F7.arr([1, 2]))


def _random_family(f, rng, total, blocks):
    blocks = min(blocks, total)
    while True:
        degs = rng.multinomial(total - blocks, [1 / blocks] * blocks) + 1
        polys = []
        for d in degs:
            c = f.arr(rng.integers(0, f.p, size=int(d) + 1))
            c[int(d)] = 1
            polys.append(c)
        try:
            return family_build(f, polys)
        except NotCoprime:
            continue


def test_red_crt_roundtrip():
    rng = np.random.default_rng(7)
    for f in (F, F7):
        for _ in range(15):
            blocks = int(rng.integers(1, 5))
            total = int(rng.integers(blocks, blocks + 12))
            fam = _random_family(f, rng, total, blocks)
            a = as_poly(f, rng.integers(0, f.p, size=fam.total_degree))
            parts = red_family(fam, a)
            assert np.array_equal(trim(f, crt_family(fam, parts)), a)
            for part, P in zip(fam.split_vector(parts), fam.polys):
                assert np.array_equal(trim(f, part), poly_mod(f, a, P))


def test_red_handles_large_degree():
    fam = family_build(F7, [[1, 1], [2, 4, 1]])
    a = as_poly(F7, [1, 2, 3, 4, 5, 6, 1, 2])
    for part, P in zip(fam.split_vector(red_family(fam, a)), fam.polys):
        assert np.array_equal(trim(F7, part), poly_mod(F7, a, P))


def test_comb_roundtrip_and_units():
    rng = np.random.default_rng(9)
    for _ in range(10):
        fam = _random_family(F, rng, int(rng.integers(3, 14)), int(rng.integers(1, 4)))
        parts = F.arr(rng.integers(0, F.p, size=fam.total_degree))
        a = comb_family(fam, parts)
        assert np.array_equal(comb_family_inv(fam, a), parts)
    es, fs = fam.crt_units()
    for e, fi, P in zip(es, fs, fam.polys):
        assert np.array_equal(poly_mod(F, poly_mul(F, e, fi), P), as_poly(F, [1]))


def test_single_block_units_are_one():
    fam = family_build(F, [[3, 2, 1, 1]])
    es, fs = fam.crt_units()
    assert es[0].tolist() == [1] and fs[0].tolist() == [1]


def _dense_reduction_matrix(fam):
    """Rows: stacked residues of the monomials 1, x, ..., x^(m-1)."""
    f = fam.field
    m = fam.total_degree
    R = f.zeros((m, m))
    for j in range(m):
        mono = f.zeros(j + 1)
        mono[j] = 1
        col = red_family(fam, trim(f, mono))
        R[:, j] = col
    return R


def test_transposed_reduction_matches_dense():
    rng = np.random.default_rng(13)
    for f in (F, F7):
        for _ in range(8):
            fam = _random_family(f, rng, int(rng.integers(2, 12)), int(rng.integers(1, 4)))
            R = _dense_reduction_matrix(fam)
            u = f.arr(rng.integers(0, f.p, size=fam.total_degree))
            want = f.mat_mul(R.T, u.reshape(-1, 1)).reshape(-1)
            assert np.array_equal(red_transposed(fam, u), want)
            # and the inverse transpose
            back = red_transposed(fam, red_transposed(fam, u), inverse=True)
            assert np.array_equal(back, u)


def test_geom_eval_matches_pointwise():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(1, 10))
        a = as_poly(F, rng.integers(0, F.p, size=n))
        u = int(rng.integers(1, F.p))
        q = int(rng.integers(2, F.p))
        count = int(rng.integers(1, 9))
        vals = geom_eval(F, a, u, q, count)
        pt = u
        for i in range(count):
            assert int(vals[i]) == poly_eval(F, a, pt)
            pt = F.mul(pt, q)


def _geometric_family(f, u, q, n):
    return family_build(f, [[f.neg(f.mul(u, f.pow(q, i))), 1] for i in range(n)])


def test_geom_interp_roundtrip():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        u = int(rng.integers(1, F.p))
        q = int(rng.integers(2, F.p))
        fam = _geometric_family(F, u, q, n)
        assert fam.flavor == "geometric"
        vals = F.arr(rng.integers(0, F.p, size=n))
        a = geom_interp(fam, vals)
        assert degree(a) < n
        assert np.array_equal(geom_eval(F, trim(F, a), u, q, n), vals)


@pytest.mark.parametrize("p", [998244353, BENCH_PRIME], ids=["default", "p62"])
def test_geom_interp_matches_horner(p):
    f = get_field(p)
    rng = np.random.default_rng(59)
    for n in (2, 5, 17, 40):
        u = int(rng.integers(1, f.p))
        q = int(rng.integers(2, f.p))
        fam = _geometric_family(f, u, q, n)
        vals = f.arr(rng.integers(0, f.p, size=n))
        a = geom_interp(fam, vals)
        assert degree(a) < n
        for i in range(n):
            assert poly_eval(f, a, u * pow(q, i, f.p) % f.p) == int(vals[i])


def test_geom_degenerate_points():
    with pytest.raises(DegeneratePoints):
        geom_eval(F7, as_poly(F7, [1, 1]), 0, 3, 2)
    with pytest.raises(DegeneratePoints):
        geom_eval(F7, as_poly(F7, [1, 1]), 1, 1, 2)  # ord(1) = 1 < 2
    with pytest.raises(NotCoprime):
        family_build(F7, [[5, 1], [2, 1], [5, 1]])  # roots 2·6^i, ord(6) = 2 < 3
    # only a geometric family carries the (u, q) that geom_interp needs
    for moduli in ([[6, 1], [5, 1], [1, 1]],   # roots 1, 2, 6: general
                   [[5, 0, 1]]):               # x² − 2: single_power
        fam = family_build(F7, moduli)
        assert fam.flavor != "geometric"
        with pytest.raises(DegeneratePoints, match="geometric family"):
            geom_interp(fam, F7.zeros(len(fam)))


def test_geometric_units_are_built_lazily():
    # roots 3·5^i: 64 distinct points over F
    fam = family_build(F, [[F.p - 3 * pow(5, i, F.p) % F.p, 1] for i in range(64)])
    assert fam.flavor == "geometric" and "units" not in fam._cache
    es, fs = fam.crt_units()
    roots = [3 * pow(5, i, F.p) % F.p for i in range(64)]
    for i, (e, fi) in enumerate(zip(es, fs)):
        # E_i = prod_{j != i} (r_i − r_j), the eager xgcd's F_i = E_i⁻¹
        want = 1
        for j, r in enumerate(roots):
            if j != i:
                want = want * (roots[i] - r) % F.p
        assert e.tolist() == [want] and fi.tolist() == [F.inv(want)]


def test_second_geometric_crt_reuses_the_family(monkeypatch):
    # the product and the units F_i = 1/P'(u·q^i) come from the family, so
    # a later interpolation builds no product tree
    fam = _geometric_family(F, 3, 5, 64)
    rng = np.random.default_rng(23)
    crt_family(fam, F.arr(rng.integers(0, F.p, 64)))
    calls = []
    conv = PrimeField.conv
    monkeypatch.setattr(PrimeField, "conv", lambda self, a, b: calls.append(1) or conv(self, a, b))
    vals = F.arr(rng.integers(0, F.p, 64))
    a = crt_family(fam, vals)
    assert len(calls) <= 3
    monkeypatch.undo()
    assert np.array_equal(geom_eval(F, a, 3, 5, 64), vals)


def test_geometric_collision_names_the_pair():
    # roots 2·2^i over F_7: 2 has order 3, so points 0 and 3 coincide
    with pytest.raises(NotCoprime) as exc:
        family_build(F7, [[5, 1], [3, 1], [6, 1], [5, 1]])
    assert exc.value.pair == (0, 3)


def test_rev_product_inverse_memo_hits_for_binomials(monkeypatch):
    # 1/rev(x^m − φ) starts 1, 0, …, 0 and trims to one coefficient, so the
    # memo must keep its precision beside the series to recognise a hit
    m = 64
    fam = family_build(F, [[F.p - 3] + [0] * (m - 1) + [1]])
    first = fam.rev_product_inverse(m)
    inverted = []
    real = poly.series_inv
    monkeypatch.setattr(poly, "series_inv",
                        lambda f, a, k: inverted.append(k) or real(f, a, k))
    assert np.array_equal(fam.rev_product_inverse(m), first)
    assert np.array_equal(fam.rev_product_inverse(m // 2), first[: m // 2])
    assert inverted == []
    fam.rev_product_inverse(2 * m)
    assert inverted == [2 * m]
