"""Shared randomized-instance builders for the test suite."""

import numpy as np
import pytest

from dispmat import structsolve
from dispmat.field import BENCH_PRIME, DEFAULT_PRIME, get_field
from dispmat.generators import Generator
from dispmat.operators import STEIN, SYLVESTER, DisplacementOperator, op_invertible
from dispmat.poly import family_build

TINY_PRIME = 7


@pytest.fixture(scope="session")
def f():
    return get_field(DEFAULT_PRIME)


@pytest.fixture(scope="session", params=[DEFAULT_PRIME, TINY_PRIME],
                ids=["default", "tiny"])
def any_field(request):
    return get_field(request.param)


@pytest.fixture(scope="session")
def f62():
    return get_field(BENCH_PRIME)


def rand_monic(f, rng, deg):
    c = f.arr(rng.integers(0, f.p, size=deg + 1))
    c[deg] = 1
    return c


def rand_family(f, rng, total, max_blocks=3):
    """Random monic pairwise-coprime family of the given total degree."""
    while True:
        blocks = int(rng.integers(1, min(max_blocks, total) + 1))
        if blocks > 1:
            cuts = sorted(rng.choice(range(1, total), size=blocks - 1,
                                     replace=False).tolist())
        else:
            cuts = []
        degs = np.diff([0, *cuts, total])
        try:
            return family_build(f, [rand_monic(f, rng, int(d)) for d in degs])
        except ValueError:
            continue


def rand_operator(f, rng, m, n, kind=None, basic=False):
    """Random invertible operator; all four transpose variants unless basic."""
    while True:
        k = kind if kind is not None else (SYLVESTER, STEIN)[int(rng.integers(2))]
        tp, tq = (False, True) if basic else (bool(rng.integers(2)),
                                              bool(rng.integers(2)))
        op = DisplacementOperator(k, rand_family(f, rng, m),
                                  rand_family(f, rng, n), tp, tq)
        if op_invertible(op):
            return op


def rand_generator(f, rng, op, alpha):
    return Generator(f.arr(rng.integers(0, f.p, size=(op.m, alpha))),
                     f.arr(rng.integers(0, f.p, size=(op.n, alpha))), op)


def generator_zeros(op, alpha):
    """The generator of length alpha whose G and H are zero, so A = 0."""
    f = op.field
    return Generator(f.zeros((op.m, alpha)), f.zeros((op.n, alpha)), op)


def force_structured(mp):
    """Patch both crossover constants to 1 on the monkeypatch mp: an entry
    point then stays dense only for min(m, n) < α + 6 or α = 0, α the
    generator's length (α + 6 is the widest triple the Las Vegas search
    receives), and largest_rec recurses down to min(m, n) < w on its own
    triple's width w, so every structured call splits at least once."""
    mp.setattr(structsolve, "DENSE_PER_WIDTH", 1)
    mp.setattr(structsolve, "DENSE_PER_WIDTH_OBJECT", 1)


def both_routes(monkeypatch):
    """Yield False for a run at the default crossover, then True for a run
    with the structured (Las Vegas) route forced (force_structured)."""
    yield False
    with monkeypatch.context() as mp:
        force_structured(mp)
        yield True


def expected_route(forced, q, alpha):
    """The route an entry point must report in a both_routes run, on
    min(m, n) = q and a generator of length alpha at the tests' sizes:
    dense at the default crossover, and structured when forced unless
    q < α + 6 or α = 0."""
    if forced and alpha and q >= alpha + 6:
        return structsolve.STRUCTURED
    return structsolve.DENSE
