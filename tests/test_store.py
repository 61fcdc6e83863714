"""The generator store: the work of a product that depends on the generator
alone is done once and shared by every later product, without changing any
result, without letting a write reach kept data, and without a reference
cycle."""

import gc
import itertools
import weakref

import numpy as np
import pytest

from dispmat.cli import draw_operator
from dispmat.field import BENCH_PRIME, DEFAULT_PRIME, get_field
from dispmat.generators import Generator, gen_matvec, hankel_operator
from dispmat.operators import STEIN, SYLVESTER
from dispmat.structmul import struct_mul

M, N, ALPHA = 9, 7, 3
VARIANTS = [(kind, tp, tq) for kind in (SYLVESTER, STEIN)
            for tp, tq in itertools.product((False, True), repeat=2)]


def _rand(f, rng, *shape):
    return f.arr(rng.integers(0, f.p, shape))


def _toeplitz_generator(f, rng, m=16, alpha=ALPHA):
    return Generator(_rand(f, rng, m, alpha), _rand(f, rng, m, alpha), hankel_operator(f, m, m))


@pytest.mark.parametrize("flavor", ["general", "single_power", "geometric"])
@pytest.mark.parametrize("p", [DEFAULT_PRIME, BENCH_PRIME], ids=["default", "p62"])
def test_reused_generator_matches_a_fresh_copy(p, flavor):
    f = get_field(p)
    rng = np.random.default_rng(len(flavor))
    for (kind, tp, tq), beta in itertools.product(VARIANTS, (1, 4)):
        op = draw_operator(f, rng, M, N, kind, flavor, tp, tq)
        G, H = _rand(f, rng, M, ALPHA), _rand(f, rng, N, ALPHA)
        gen = Generator(G, H, op)
        B1, u, B2 = _rand(f, rng, N, beta), _rand(f, rng, N), _rand(f, rng, N, beta)
        reused = [struct_mul(gen, B1), gen_matvec(gen, u), struct_mul(gen, B2)]
        fresh = [struct_mul(Generator(G, H, op), B1), gen_matvec(Generator(G, H, op), u),
                 struct_mul(Generator(G, H, op), B2)]
        case = (kind, tp, tq, beta)
        assert all(np.array_equal(x, y) for x, y in zip(reused, fresh)), case


def test_writing_into_G_or_H_after_a_product_raises(f):
    gen = _toeplitz_generator(f, np.random.default_rng(1))
    gen.G[0, 0] = 1  # writable until the first product
    struct_mul(gen, _rand(f, np.random.default_rng(2), 16, 4))
    with pytest.raises(ValueError):
        gen.G[0, 0] = 2
    with pytest.raises(ValueError):
        gen.H[0, 0] = 2


def test_a_generator_on_a_view_keeps_a_copy(f):
    rng = np.random.default_rng(3)
    gen = _toeplitz_generator(f, rng)
    wide = _rand(f, rng, 16, 2 * ALPHA)
    gen.G = wide[:, :ALPHA]
    B = _rand(f, rng, 16, 4)
    first = struct_mul(gen, B)
    wide[:] = 0  # the view's owner stays writable; the store holds its own copy
    assert not np.shares_memory(gen.G, wide)
    assert np.array_equal(struct_mul(gen, B), first)


def test_rebinding_G_or_H_gives_the_new_generators_products(f):
    rng = np.random.default_rng(4)
    gen = _toeplitz_generator(f, rng)
    B, u = _rand(f, rng, 16, 4), _rand(f, rng, 16)
    struct_mul(gen, B)
    gen_matvec(gen, u)
    for side in ("G", "H"):
        setattr(gen, side, _rand(f, rng, 16, ALPHA))
        fresh = Generator(gen.G, gen.H, gen.operator)
        assert np.array_equal(struct_mul(gen, B), struct_mul(fresh, B)), side
        assert np.array_equal(gen_matvec(gen, u), gen_matvec(fresh, u)), side


def test_writing_into_a_product_leaves_the_next_unchanged(f):
    rng = np.random.default_rng(5)
    gen = _toeplitz_generator(f, rng)
    B, u = _rand(f, rng, 16, 4), _rand(f, rng, 16)
    for product, arg in ((struct_mul, B), (gen_matvec, u)):
        out = product(gen, arg)
        want = out.copy()
        out[...] = 0
        assert np.array_equal(product(gen, arg), want), product.__name__


def test_a_used_generator_is_freed_without_the_cycle_collector(f):
    rng = np.random.default_rng(6)
    for op in (hankel_operator(f, 16, 16),
               draw_operator(f, rng, M, N, STEIN, "general", True, False)):
        gen = Generator(_rand(f, rng, op.m, ALPHA), _rand(f, rng, op.n, ALPHA), op)
        gc.disable()
        try:
            struct_mul(gen, _rand(f, rng, op.n, 4))
            gen_matvec(gen, _rand(f, rng, op.n))
            ref = weakref.ref(gen)
            del gen
            assert ref() is None, op.kind
        finally:
            gc.enable()
