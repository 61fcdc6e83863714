"""Displacement operators: companion actions, symmetrizers, invertibility."""

import numpy as np
import pytest

from dispmat.field import BENCH_PRIME, get_field
from dispmat.cli import draw_family
from dispmat.generators import _companion_rows
from dispmat.poly import (
    DimensionMismatch,
    Moduli,
    as_poly,
    family_build,
    poly_mul,
)
from dispmat.operators import (
    STEIN,
    SYLVESTER,
    DisplacementOperator,
    inverse_operator,
    inverse_table,
    modmul_apply,
    op_from_dict,
    op_invertible,
    op_to_dict,
    stein_op,
    sylvester_op,
    y_apply_family,
)
from dispmat.oracle import dense_block_companion, dense_rank

from conftest import rand_family, rand_operator


def _dense_y(f, P):
    """Triangular Hankel symmetrizer of a single monic block, densely."""
    m = len(P) - 1
    Y = f.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i + j + 1 <= m:
                Y[i, j] = P[i + j + 1]
    return Y


def _dense_y_family(fam):
    f = fam.field
    Y = f.zeros((fam.total_degree, fam.total_degree))
    for s, k, P in zip(fam.offsets, fam.degrees, fam.polys):
        Y[s : s + k, s : s + k] = _dense_y(f, P)
    return Y


# ---------------------------------------------------------------------------
# constructor and basic attributes


def test_operator_shape_and_basic_flags(f):
    fam_p = family_build(f, [[f.p - 2, 0, 1]])  # x^2 - 2
    fam_q = family_build(f, [[f.p - 3, 0, 0, 1]])  # x^3 - 3
    op = DisplacementOperator(SYLVESTER, fam_p, fam_q)
    assert (op.m, op.n) == (2, 3)
    assert op.shape == (2, 3)
    assert op.is_basic
    assert op.field is f
    assert not DisplacementOperator(SYLVESTER, fam_p, fam_q, True, True).is_basic
    assert not DisplacementOperator(STEIN, fam_p, fam_q, False, False).is_basic


def test_operator_rejects_unknown_kind(f):
    fam = family_build(f, [[f.p - 1, 0, 1]])
    with pytest.raises(ValueError):
        DisplacementOperator("frobenius", fam, fam)


def test_operator_rejects_mixed_fields():
    f7 = get_field(7)
    f11 = get_field(11)
    fam7 = family_build(f7, [[6, 0, 1]])
    fam11 = family_build(f11, [[10, 0, 1]])
    with pytest.raises(DimensionMismatch):
        DisplacementOperator(SYLVESTER, fam7, fam11)


def test_operator_cache_memoizes(f):
    op = sylvester_op(
        family_build(f, [[f.p - 2, 0, 1]]), family_build(f, [[f.p - 3, 0, 1]])
    )
    calls = []

    def build():
        calls.append(1)
        return "value"

    assert op.cached("k", build) == "value"
    assert op.cached("k", build) == "value"
    assert len(calls) == 1
    # None is a value like any other, computed once
    assert op.cached("none", lambda: calls.append(1)) is None
    assert op.cached("none", lambda: calls.append(1)) is None
    assert len(calls) == 2


def test_singular_inverse_table_is_built_once(f, monkeypatch):
    from dispmat import operators

    calls = []
    build = operators._inverse_mod_leaves
    monkeypatch.setattr(operators, "_inverse_mod_leaves",
                        lambda *args: calls.append(1) or build(*args))
    fam = family_build(f, [[1, 0, 1], [2, 3, 1]])
    op = sylvester_op(fam, fam)  # P = Q: every gcd is nontrivial
    assert fam.flavor == "general"
    assert inverse_table(op) is None and not op_invertible(op)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", [SYLVESTER, STEIN])
@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("tq", [False, True])
def test_inverse_operator_swaps_families_and_flags(f, kind, tp, tq):
    fam_p = family_build(f, [[f.p - 2, 0, 1]])
    fam_q = family_build(f, [[f.p - 3, 0, 0, 1]])
    op = DisplacementOperator(kind, fam_p, fam_q, tp, tq)
    inv = inverse_operator(op)
    assert inverse_operator(op) is inv
    assert (inv.kind, inv.shape) == (kind, (3, 2))
    assert inv.fam_p is fam_q and inv.fam_q is fam_p
    assert (inv.transpose_p, inv.transpose_q) == (tq, tp)
    back = inverse_operator(inv)
    assert back.kind == kind
    assert back.fam_p is fam_p and back.fam_q is fam_q
    assert (back.transpose_p, back.transpose_q) == (tp, tq)


# ---------------------------------------------------------------------------
# companion action


def test_companion_of_power_binomial_frozen():
    f = get_field(7)
    fam = family_build(f, [[5, 0, 1]])  # x^2 - 2 over F_7
    M = dense_block_companion(f, fam)
    assert M.tolist() == [[0, 2], [1, 0]]


def test_block_companion_is_block_diagonal():
    f = get_field(7)
    fam = family_build(f, [[6, 1], [5, 0, 1]])  # (x - 1), (x^2 - 2)
    M = dense_block_companion(f, fam)
    assert M.tolist() == [[1, 0, 0], [0, 0, 2], [0, 1, 0]]


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("flavor", ["general", "geometric", "single_power"])
@pytest.mark.parametrize("p", [998244353, 7, "p62"])
def test_companion_rows_matches_dense(p, flavor, transposed):
    """_companion_rows, the library's one companion map, is M_P (M_Pᵗ) on
    every row of a block, for each flavour: geometric families have blocks
    of degree 1, and a block of degree 40 sums 40 feedback products."""
    f = get_field(p)
    rng = np.random.default_rng(11 + transposed)
    for total in (1, 2, 6, 40):
        if flavor == "geometric" and total >= f.p:
            continue
        fam = draw_family(f, rng, total, flavor)
        M = dense_block_companion(f, fam)
        if transposed:
            M = M.T
        X = f.arr(rng.integers(0, 2**62, (3, total)))
        got = _companion_rows(fam, transposed)(X)
        assert np.array_equal(got, f.mat_mul(M, X.T).T)


# ---------------------------------------------------------------------------
# multiplication modulo a block


def test_modmul_apply_reduces_long_input():
    f = get_field(7)
    fam = family_build(f, [[6, 0, 1]])  # x^2 - 1
    F = f.arr([[1, 1, 1, 1]])  # a multiplier longer than the block
    # x * (1 + x + x^2 + x^3) mod x^2 - 1 = x + x^2 + x^3 + x^4
    #   = x + 1 + x + 1 = 2 + 2x
    got = modmul_apply(F, fam, f.arr([0, 1]))
    assert got.tolist() == [2, 2]


def test_modmul_transposed_is_dense_transpose(any_field):
    """M_{F,P}ᵗ = Y_P⁻¹·M_{F,P}·Y_P on a Moduli stack: the leaf step of the
    transposed CRT map."""
    f = any_field
    rng = np.random.default_rng(23)
    for _ in range(8):
        k = int(rng.integers(1, 7))
        stack = Moduli.of(f, np.append(f.arr(rng.integers(0, f.p, k)), f.arr([1])))
        F = f.arr(rng.integers(0, f.p, (1, k)))
        M = stack.modmul(F, f.arr(np.eye(k, dtype=int))[:, None, :])[:, 0, :].T
        v = f.arr(rng.integers(0, f.p, (1, k)))
        got = stack.symmetrize(stack.modmul(F, stack.symmetrize(v)), inverse=True)
        assert np.array_equal(got[0], f.mat_mul(M.T, v.reshape(-1, 1)).ravel())


# ---------------------------------------------------------------------------
# symmetrizers


def test_y_apply_matches_dense_and_inverts(any_field):
    f = any_field
    rng = np.random.default_rng(31)
    for _ in range(10):
        k = int(rng.integers(1, 8))
        P = np.append(f.arr(rng.integers(0, f.p, k)), f.arr([1]))
        Y = _dense_y(f, P)
        fam = family_build(f, [P])
        v = f.arr(rng.integers(0, f.p, k))
        got = y_apply_family(fam, v)
        assert np.array_equal(got, f.mat_mul(Y, v.reshape(-1, 1)).ravel())
        assert np.array_equal(y_apply_family(fam, got, inverse=True), v)


def test_y_apply_family_blockwise(f):
    rng = np.random.default_rng(37)
    fam = rand_family(f, rng, 7)
    Y = _dense_y_family(fam)
    v = f.arr(rng.integers(0, f.p, 7))
    got = y_apply_family(fam, v)
    assert np.array_equal(got, f.mat_mul(Y, v.reshape(-1, 1)).ravel())
    assert np.array_equal(y_apply_family(fam, got, inverse=True), v)
    with pytest.raises(DimensionMismatch):
        y_apply_family(fam, f.zeros(6))


def test_symmetrizer_conjugates_companion_transpose(any_field):
    # Y_P · M_P^t = M_P · Y_P, the identity behind every transpose-flag
    # normalization.
    f = any_field
    rng = np.random.default_rng(41)
    for _ in range(8):
        fam = rand_family(f, rng, int(rng.integers(1, 8)))
        M = dense_block_companion(f, fam)
        Y = _dense_y_family(fam)
        assert np.array_equal(f.mat_mul(Y, M.T), f.mat_mul(M, Y))


# ---------------------------------------------------------------------------
# invertibility


def test_operator_accepts_families_from_any_spelling_of_the_prime():
    fam_p = family_build(get_field("p62"), [[1, 0, 1]])
    fam_q = family_build(get_field(BENCH_PRIME), [[2, 1]])
    op = DisplacementOperator(SYLVESTER, fam_p, fam_q)
    assert op.field is get_field(BENCH_PRIME) and op_invertible(op)


def test_sylvester_invertibility_is_coprimality():
    f = get_field(7)
    sq = family_build(f, [[6, 0, 1]])  # x^2 - 1
    other = family_build(f, [[5, 0, 1]])  # x^2 - 2 = (x-3)(x-4)
    assert not op_invertible(sylvester_op(sq, sq))
    assert op_invertible(sylvester_op(sq, other))
    # shared linear factor in a split family
    split = family_build(f, [[6, 1], [4, 1]])  # (x-1)(x-3)
    assert not op_invertible(sylvester_op(split, sq))


def test_stein_invertibility_uses_reversal():
    f = get_field(7)
    sq = family_build(f, [[6, 0, 1]])  # x^2 - 1; its reversal is 1 - x^2
    assert not op_invertible(stein_op(sq, sq))
    # rev(x^2) = 1, coprime to everything
    assert op_invertible(stein_op(sq, family_build(f, [[0, 0, 1]])))


def test_inverse_table_is_built_once_for_every_variant(f, monkeypatch):
    """The table lives on the basic representative, so a non-basic operator
    builds it once across op_invertible, struct_mul and gen_matvec."""
    from dispmat import operators
    from dispmat.generators import gen_matvec
    from dispmat.structmul import struct_mul

    from conftest import rand_family, rand_generator

    calls = []
    build = operators._inverse_mod_leaves
    monkeypatch.setattr(operators, "_inverse_mod_leaves",
                        lambda *args: calls.append(1) or build(*args))
    rng = np.random.default_rng(47)
    while True:
        op = DisplacementOperator(SYLVESTER, rand_family(f, rng, 8), rand_family(f, rng, 8),
                                  transpose_p=True, transpose_q=False)
        if op.fam_p.flavor == "general" and op_invertible(op):
            break
        calls.clear()
    gen = rand_generator(f, rng, op, 2)
    struct_mul(gen, f.arr(rng.integers(0, f.p, (8, 3))))
    gen_matvec(gen, f.arr(rng.integers(0, f.p, 8)))
    assert len(calls) == 1


def _binomial_p_operators(f, rng):
    """A binomial P against a general and against a geometric Q, for both
    kinds, up to degree 64: rand_family yields a binomial only at degree 1."""
    from dispmat.cli import draw_family

    for kind in (SYLVESTER, STEIN):
        for flavor in ("general", "geometric"):
            for m, n in ((1, 3), (7, 5), (64, 40)):
                op = DisplacementOperator(kind, draw_family(f, rng, m, "single_power"),
                                          draw_family(f, rng, n, flavor))
                assert (op.fam_p.flavor, op.fam_q.flavor) == ("single_power", flavor)
                yield op


def test_inverse_table_entries_are_modular_inverses(f):
    rng = np.random.default_rng(43)
    from dispmat.poly import poly_mod, poly_rev

    ops = [rand_operator(f, rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
           for _ in range(10)]
    ops += list(_binomial_p_operators(f, rng))
    for op in ops:
        table = inverse_table(op)
        assert table is not None
        rhs = op.fam_q.product
        if op.kind == STEIN:
            rhs = poly_rev(f, rhs, op.fam_q.total_degree)
        for w, P in zip(table, op.fam_p.polys):
            prod = poly_mod(f, poly_mul(f, w, rhs), P)
            assert prod.tolist() == [1]


def test_struct_mul_with_binomial_p_matches_oracle(f):
    from dispmat.generators import Generator
    from dispmat.oracle import dense_mul, dense_solve_displacement
    from dispmat.structmul import struct_mul

    rng = np.random.default_rng(59)
    for op in _binomial_p_operators(f, rng):
        if op.m * op.n > 64:
            continue
        gen = Generator(f.arr(rng.integers(0, f.p, (op.m, 2))),
                        f.arr(rng.integers(0, f.p, (op.n, 2))), op)
        A = dense_solve_displacement(op, f.mat_mul(gen.G, gen.H.T))
        B = f.arr(rng.integers(0, f.p, (op.n, 3)))
        assert np.array_equal(struct_mul(gen, B), dense_mul(f, A, B))


def _dense_operator_matrix(op):
    """The operator as one (m*n) x (m*n) matrix over the base field."""
    from dispmat.oracle import dense_apply_operator

    f = op.field
    m, n = op.shape
    cols = []
    for i in range(m):
        for j in range(n):
            E = f.zeros((m, n))
            E[i, j] = 1
            cols.append(dense_apply_operator(op, E).ravel())
    return np.stack(cols, axis=1)


def test_invertibility_agrees_with_dense_rank():
    f = get_field(7)
    rng = np.random.default_rng(47)
    seen = {True: 0, False: 0}
    for trial in range(40):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        kind = SYLVESTER if trial % 2 == 0 else STEIN
        fam_p = rand_family(f, rng, m)
        fam_q = rand_family(f, rng, n)
        op = DisplacementOperator(
            kind, fam_p, fam_q, bool(rng.integers(2)), bool(rng.integers(2))
        )
        L = _dense_operator_matrix(op)
        full = dense_rank(f, L) == m * n
        assert op_invertible(op) == full
        seen[full] += 1
    assert seen[True] > 0 and seen[False] > 0


# ---------------------------------------------------------------------------
# serialization


def test_op_dict_roundtrip_all_variants(f):
    rng = np.random.default_rng(53)
    for kind in (SYLVESTER, STEIN):
        for tp in (False, True):
            for tq in (False, True):
                op = DisplacementOperator(
                    kind, rand_family(f, rng, 5), rand_family(f, rng, 4), tp, tq
                )
                doc = op_to_dict(op)
                back = op_from_dict(f, doc)
                assert back.kind == op.kind
                assert back.transpose_p == op.transpose_p
                assert back.transpose_q == op.transpose_q
                assert [p.tolist() for p in back.fam_p.polys] == [
                    p.tolist() for p in op.fam_p.polys
                ]
                assert back.fam_q.flavor == op.fam_q.flavor


def test_op_from_dict_rejects_wrong_flavor_tag(f):
    op = sylvester_op(
        family_build(f, [[f.p - 2, 0, 1]]), family_build(f, [[f.p - 3, 0, 1]])
    )
    doc = op_to_dict(op)
    assert doc["P"]["flavor"] == "single_power"
    doc["P"]["flavor"] = "general"
    with pytest.raises(ValueError, match="tagged"):
        op_from_dict(f, doc)
