"""Generator pairs (G, H): reconstruction, products, and the operator
transformations.  The reference route everywhere is the dense one — apply the
operator with actual companion matrices and compare against G·Hᵗ."""

import numpy as np
import pytest

from dispmat.cli import draw_operator
from dispmat.field import BENCH_PRIME, get_field
from dispmat.poly import DimensionMismatch, family_build
from dispmat.operators import (
    STEIN,
    SYLVESTER,
    DisplacementOperator,
    SingularOperator,
    op_invertible,
    stein_op,
    sylvester_op,
)
from dispmat.generators import (
    Generator,
    _column_decompose,
    compress_pair,
    densify,
    displacement,
    from_hankel_inverse,
    gen_compress,
    gen_from_dict,
    gen_matvec,
    gen_to_dict,
    gen_transpose,
    hankel_inverse_operator,
    hankel_operator,
    reconstruct_dense,
    side_map,
    side_map_t,
    to_basic,
    to_hankel,
)
from dispmat.oracle import (
    dense_apply_operator,
    dense_inv,
    dense_mul,
    dense_rank,
    dense_solve_displacement,
)

from conftest import generator_zeros, rand_generator, rand_operator


def _dense_y_family(fam):
    f = fam.field
    Y = f.zeros((fam.total_degree, fam.total_degree))
    for s, k, P in zip(fam.offsets, fam.degrees, fam.polys):
        for i in range(k):
            for j in range(k):
                if i + j + 1 <= k:
                    Y[s + i, s + j] = P[i + j + 1]
    return Y


def _dense_from_closure(f, fn, size):
    e = f.zeros(size)
    cols = []
    for j in range(size):
        e[j] = 1
        cols.append(fn(e.copy()))
        e[j] = 0
    return f.arr(np.stack(cols, axis=1))


def _outer(gen):
    return dense_mul(gen.field, gen.G, gen.H.T)


# ---------------------------------------------------------------------------
# construction


def test_generator_validates_shapes(f):
    op = rand_operator(f, np.random.default_rng(0), 4, 3)
    with pytest.raises(DimensionMismatch):
        Generator(f.zeros((4, 2)), f.zeros((3, 3)), op)
    with pytest.raises(DimensionMismatch):
        Generator(f.zeros((5, 2)), f.zeros((3, 2)), op)


def test_generator_promotes_vectors_to_columns(f):
    op = rand_operator(f, np.random.default_rng(1), 4, 4)
    gen = Generator(f.arr([1, 2, 3, 4]), f.arr([5, 6, 0, 1]), op)
    assert gen.G.shape == (4, 1) and gen.H.shape == (4, 1)
    assert gen.alpha == 1


def test_generator_zeros_reconstructs_zero(f):
    op = rand_operator(f, np.random.default_rng(2), 3, 5)
    gen = generator_zeros(op, 2)
    assert not np.any(reconstruct_dense(gen))
    assert not np.any(gen_matvec(gen, f.arr([1, 2, 3, 4, 5])))


# ---------------------------------------------------------------------------
# reconstruction: closed-form chain vs dense companion arithmetic


def test_reconstruct_satisfies_displacement_equation(any_field):
    f = any_field
    rng = np.random.default_rng(7)
    for trial in range(16):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        op = rand_operator(f, rng, m, n)
        gen = rand_generator(f, rng, op, int(rng.integers(1, min(m, n) + 1)))
        a = reconstruct_dense(gen)
        assert np.array_equal(dense_apply_operator(op, a), _outer(gen))


def _skewed_family(f, rng, total):
    """A family with blocks of degrees total − 3, 2 and 1."""
    while True:
        try:
            return family_build(f, [list(rng.integers(0, f.p, d)) + [1]
                                    for d in (total - 3, 2, 1)])
        except ValueError:
            continue


def _drawn_operator(f, rng, m, n, kind, flavor, tp, tq):
    if flavor != "skewed" or min(m, n) < 4:
        return draw_operator(f, rng, m, n, kind, "general" if flavor == "skewed" else flavor,
                             tp, tq)
    while True:
        op = DisplacementOperator(kind, _skewed_family(f, rng, m),
                                  _skewed_family(f, rng, n), tp, tq)
        if op_invertible(op):
            return op


@pytest.mark.parametrize("p", [998244353, 2**31 - 1, 3037000493, BENCH_PRIME],
                         ids=["default", "2^31-1", "3037000493", "p62"])
def test_densify_matches_oracle(p):
    # every variant and flavour, tall and wide, families of 1-column blocks
    # (geometric) and of skewed degrees, and a 1-column format
    f = get_field(p)
    rng = np.random.default_rng(211)
    for kind in (SYLVESTER, STEIN):
        for tp in (False, True):
            for tq in (False, True):
                for flavor in ("general", "single_power", "geometric", "skewed"):
                    for m, n in ((7, 5), (5, 7), (6, 1)):
                        op = _drawn_operator(f, rng, m, n, kind, flavor, tp, tq)
                        gen = rand_generator(f, rng, op, int(rng.integers(1, min(m, n) + 1)))
                        want = dense_solve_displacement(op, dense_mul(f, gen.G, gen.H.T))
                        assert np.array_equal(densify(gen), want)
    assert not np.any(densify(generator_zeros(op, 0)))


@pytest.mark.parametrize("p", [998244353, 2**31 - 1, 3037000493, BENCH_PRIME],
                         ids=["default", "2^31-1", "3037000493", "p62"])
def test_densify_across_step_blocks(p):
    # densify takes the recurrence _DENSIFY_BLOCK = 8 columns at a time:
    # formats that cross one, two and five blocks for every variant and
    # flavour, and one 64×64 format per variant (flavours in turn).  L is
    # invertible, so L(A) = G·Hᵗ on residues of the field's dtype certifies A.
    f = get_field(p)
    rng = np.random.default_rng(212)
    flavors = ("general", "single_power", "geometric", "skewed")
    variants = [(kind, tp, tq) for kind in (SYLVESTER, STEIN)
                for tp in (False, True) for tq in (False, True)]
    for i, (kind, tp, tq) in enumerate(variants):
        cases = [(flavor, m, n) for flavor in flavors
                 for m, n in ((19, 17), (17, 19), (40, 40))]
        for flavor, m, n in cases + [(flavors[i % 4], 64, 64)]:
            op = _drawn_operator(f, rng, m, n, kind, flavor, tp, tq)
            gen = rand_generator(f, rng, op, int(rng.integers(1, 5)))
            A = densify(gen)
            assert A.shape == (m, n) and A.dtype == f.dtype
            assert np.all((A >= 0) & (A < p))
            assert np.array_equal(displacement(op, A), f.mat_mul(gen.G, gen.H.T))


def test_densify_refuses_a_singular_operator(f):
    fam = family_build(f, [[f.p - 1, 1]])  # x − 1 on both sides
    with pytest.raises(SingularOperator):
        densify(Generator(f.arr([[1]]), f.arr([[1]]), sylvester_op(fam, fam)))


@pytest.mark.parametrize("p", [998244353, 2**31 - 1, 3037000493, BENCH_PRIME],
                         ids=["default", "2^31-1", "3037000493", "p62"])
def test_displacement_matches_oracle(p):
    # L(A) on a dense A through the companion row maps, every variant and
    # flavour, tall, wide and 1-column formats
    f = get_field(p)
    rng = np.random.default_rng(213)
    for kind in (SYLVESTER, STEIN):
        for tp in (False, True):
            for tq in (False, True):
                for flavor in ("general", "single_power", "geometric", "skewed"):
                    for m, n in ((7, 5), (5, 7), (6, 1)):
                        op = _drawn_operator(f, rng, m, n, kind, flavor, tp, tq)
                        A = f.arr(rng.integers(0, f.p, (m, n)))
                        assert np.array_equal(displacement(op, A), dense_apply_operator(op, A))


def test_matvec_agrees_with_dense_product(any_field):
    f = any_field
    rng = np.random.default_rng(11)
    for _ in range(12):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        op = rand_operator(f, rng, m, n)
        gen = rand_generator(f, rng, op, int(rng.integers(1, min(m, n) + 1)))
        a = reconstruct_dense(gen)
        u = f.arr(rng.integers(0, f.p, n))
        want = f.mat_mul(a, u.reshape(-1, 1)).ravel()
        assert np.array_equal(gen_matvec(gen, u), want)


def test_matvec_rejects_wrong_length(f):
    op = rand_operator(f, np.random.default_rng(13), 4, 4)
    gen = rand_generator(f, np.random.default_rng(13), op, 2)
    with pytest.raises(DimensionMismatch):
        gen_matvec(gen, f.zeros(5))


# ---------------------------------------------------------------------------
# transposition, compression


def test_transpose_reconstructs_transpose(f):
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        op = rand_operator(f, rng, m, n)
        gen = rand_generator(f, rng, op, int(rng.integers(1, min(m, n) + 1)))
        a = reconstruct_dense(gen)
        tgen = gen_transpose(gen)
        assert tgen.operator.shape == (n, m)
        assert tgen.operator.transpose_p == (not op.transpose_q)
        assert tgen.operator.transpose_q == (not op.transpose_p)
        assert np.array_equal(reconstruct_dense(tgen), a.T)


def test_compress_reaches_exact_rank(f):
    rng = np.random.default_rng(19)
    for _ in range(10):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(2, 8))
        op = rand_operator(f, rng, m, n)
        # redundant generator: pad with columns that contribute nothing
        base = rand_generator(f, rng, op, int(rng.integers(1, min(m, n) + 1)))
        G = np.concatenate([base.G, base.G[:, :1], f.zeros((m, 1))], axis=1)
        H = np.concatenate([base.H, f.zeros((n, 1)), base.H[:, :1]], axis=1)
        fat = Generator(G, H, op)
        slim = gen_compress(fat)
        assert slim.alpha == dense_rank(f, _outer(fat))
        assert np.array_equal(_outer(slim), _outer(fat))
        assert np.array_equal(reconstruct_dense(slim), reconstruct_dense(base))


@pytest.mark.parametrize("p", [998244353, 2**31 - 1, 3037000493, BENCH_PRIME],
                         ids=["default", "2^31-1", "3037000493", "p62"])
def test_compress_gives_the_canonical_generator(p):
    # compress_pair's arrays depend on D = G·Hᵗ alone: D's pivot columns and
    # the nonzero rows of its reduced echelon form, whatever pair carries D
    f = get_field(p)
    rng = np.random.default_rng(23)

    def rand(*shape):
        return f.arr(rng.integers(0, f.p, shape))

    for _ in range(12):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        alpha = int(rng.integers(1, min(m, n) + 2))
        G, H = rand(m, alpha), rand(n, alpha)
        D = dense_mul(f, G, H.T)
        B, C = _column_decompose(f, D)
        while True:
            T = rand(alpha, alpha)
            if dense_rank(f, T) == alpha:
                break
        w, h = rand(alpha, 1), rand(n, 1)
        v, g = rand(alpha, 1), rand(m, 1)
        pairs = [
            (G, H),
            (dense_mul(f, G, T), dense_mul(f, H, dense_inv(f, T).T)),
            # a dependent column of G, and one of H
            (np.hstack([G, dense_mul(f, G, w)]), np.hstack([(H - dense_mul(f, h, w.T)) % f.p, h])),
            (np.hstack([(G - dense_mul(f, g, v.T)) % f.p, g]), np.hstack([H, dense_mul(f, H, v)])),
            # zero columns, each paired with a random one
            (np.hstack([f.zeros((m, 1)), G, rand(m, 1)]), np.hstack([rand(n, 1), H, f.zeros((n, 1))])),
        ]
        for Gv, Hv in pairs:
            G2, H2 = compress_pair(f, Gv, Hv)
            assert G2.shape[1] == H2.shape[1] == dense_rank(f, D)
            assert np.array_equal(G2, B) and np.array_equal(H2, C.T)
            assert np.array_equal(dense_mul(f, G2, H2.T), D)
        for Gv, Hv in ((G, f.zeros((n, alpha))), (f.zeros((m, alpha)), H),
                       (f.zeros((m, 0)), f.zeros((n, 0)))):
            G2, H2 = compress_pair(f, Gv, Hv)
            assert G2.shape == (m, 0) and H2.shape == (n, 0)


# ---------------------------------------------------------------------------
# conjugation into the basic variant


def test_to_basic_is_symmetrizer_conjugation(f):
    rng = np.random.default_rng(29)
    for _ in range(10):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        op = rand_operator(f, rng, m, n)
        gen = rand_generator(f, rng, op, int(rng.integers(1, min(m, n) + 1)))
        basic, tf = to_basic(gen)
        assert basic.operator.is_basic
        assert tf.is_identity == op.is_basic
        a = reconstruct_dense(gen)
        ab = reconstruct_dense(basic)
        yp = _dense_y_family(op.fam_p)
        yq = _dense_y_family(op.fam_q)
        want = a
        if tf.e1:
            want = dense_mul(f, yp, want)
        if tf.e2:
            want = dense_mul(f, want, yq)
        assert np.array_equal(ab, want)
        # the recorded sides undo the conjugation on products, for a vector
        # and for a block of columns
        v = f.arr(rng.integers(0, f.p, n))
        via_basic = tf.p_side(gen_matvec(basic, tf.q_side(v, inverse=True)), inverse=True)
        assert np.array_equal(via_basic, gen_matvec(gen, v))
        X = f.arr(rng.integers(0, f.p, (n, 2)))
        assert np.array_equal(tf.q_side(X), dense_mul(f, yq, X) if tf.e2 else X)
        assert np.array_equal(tf.q_side(tf.q_side(X), inverse=True), X)
        Xm = f.arr(rng.integers(0, f.p, (m, 2)))
        assert np.array_equal(tf.p_side(Xm), dense_mul(f, yp, Xm) if tf.e1 else Xm)


# ---------------------------------------------------------------------------
# reduction to the Toeplitz/Hankel-type operator


def test_hankel_operator_shapes(f):
    hop = hankel_operator(f, 5, 3)
    assert hop.shape == (5, 3) and hop.is_basic and hop.kind == SYLVESTER
    assert hop.fam_p.flavor == "single_power"
    iop = hankel_inverse_operator(f, 5, 3)
    assert iop.shape == (3, 5)
    assert iop.transpose_p and not iop.transpose_q


def test_hankel_context_closures_invert_and_transpose(f):
    rng = np.random.default_rng(31)
    for _ in range(6):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        op = rand_operator(f, rng, m, n, basic=True)
        L = _dense_from_closure(f, lambda v: side_map(op.fam_p, v), m)
        Lt = _dense_from_closure(f, lambda v: side_map_t(op.fam_p, v), m)
        assert np.array_equal(Lt, L.T)
        R = _dense_from_closure(f, lambda v: side_map_t(op.fam_q, v), n)
        Rt = _dense_from_closure(f, lambda v: side_map(op.fam_q, v), n)
        assert np.array_equal(Rt, R.T)
        assert dense_rank(f, L) == m and dense_rank(f, R) == n


def test_to_hankel_core_satisfies_hankel_displacement(f):
    rng = np.random.default_rng(37)
    for kind in (SYLVESTER, STEIN):
        for _ in range(8):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            op = rand_operator(f, rng, m, n, kind=kind, basic=True)
            gen = rand_generator(f, rng, op, int(rng.integers(1, min(m, n) + 1)))
            hgen, _ = to_hankel(gen)
            assert hgen.alpha == gen.alpha + 2
            a = reconstruct_dense(gen)
            L = _dense_from_closure(f, lambda v: side_map(op.fam_p, v), m)
            R = _dense_from_closure(f, lambda v: side_map_t(op.fam_q, v), n)
            core = dense_mul(f, dense_mul(f, L, a), R)
            if kind == STEIN:
                core = core[:, ::-1]  # B = A'·J
            hop = hankel_operator(f, m, n)
            assert np.array_equal(dense_apply_operator(hop, core), _outer(hgen))
            assert np.array_equal(reconstruct_dense(hgen), core)


def test_to_hankel_rejects_non_basic_and_singular(f):
    sq = family_build(f, [[f.p - 1, 0, 1]])
    other = family_build(f, [[f.p - 2, 0, 1]])
    skew = DisplacementOperator(SYLVESTER, sq, other, transpose_p=True)
    with pytest.raises(ValueError, match="basic"):
        to_hankel(generator_zeros(skew, 1))
    with pytest.raises(SingularOperator):
        to_hankel(generator_zeros(sylvester_op(sq, sq), 1))


def test_from_hankel_inverse_recovers_dense_inverse(f):
    rng = np.random.default_rng(41)
    done = 0
    while done < 8:
        m = int(rng.integers(2, 7))
        kind = SYLVESTER if done % 2 == 0 else STEIN
        op = rand_operator(f, rng, m, m, kind=kind, basic=True)
        gen = rand_generator(f, rng, op, int(rng.integers(1, 3)))
        a = reconstruct_dense(gen)
        if dense_rank(f, a) < m:
            continue
        hgen, ctx = to_hankel(gen)
        core = reconstruct_dense(hgen)
        core_inv = dense_inv(f, core)
        Y = (f.p - dense_mul(f, core_inv, hgen.G)) % f.p
        Z = dense_mul(f, core_inv.T, hgen.H)
        inv_gen = Generator(Y, Z, hankel_inverse_operator(f, m, m))
        out = from_hankel_inverse(ctx, inv_gen)
        assert np.array_equal(reconstruct_dense(out), dense_inv(f, a))
        assert out.operator.fam_p is op.fam_q and out.operator.fam_q is op.fam_p
        # uncompressed; rank L′(A⁻¹) = rank L(A), so compressed it is no wider
        assert compress_pair(f, out.G, out.H)[0].shape[1] <= gen.alpha
        done += 1


# ---------------------------------------------------------------------------
# serialization


def test_generator_dict_roundtrip(f):
    rng = np.random.default_rng(43)
    op = rand_operator(f, rng, 5, 4)
    gen = rand_generator(f, rng, op, 2)
    doc = gen_to_dict(gen)
    assert "last_row" not in doc
    back = gen_from_dict(f, doc)
    assert np.array_equal(back.G, gen.G)
    assert np.array_equal(back.H, gen.H)
    assert back.operator.kind == op.kind
