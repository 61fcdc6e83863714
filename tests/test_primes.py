"""The entry points against the dense oracle on every kind of prime the CLI
accepts: int64 primes with 2-adic room for transforms (998244353,
2013265921, 2281701377), with none (2^31 − 1), at the int64 bound
(3037000493, where one product fills a word) and the 62-bit object-dtype
prime, over the eight operator variants in the three family flavours."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispmat.cli import FLAVORS, draw_operator
from dispmat.field import BENCH_PRIME, get_field
from dispmat.generators import Generator
from dispmat.operators import STEIN, SYLVESTER
from dispmat.oracle import dense_inv, dense_mul, dense_rank, dense_solve_displacement
from dispmat.structmul import struct_mul
from dispmat.structsolve import DENSE, FAILURE, OK, SINGULAR, inv_generator, solve_generator

from conftest import expected_route, force_structured

PRIMES = (998244353, 2**31 - 1, 2013265921, 2281701377, 3037000493, BENCH_PRIME)


def _oracle_dense(gen: Generator) -> np.ndarray:
    """The matrix of gen, from its displacement G·Hᵗ by the oracle alone."""
    f = gen.field
    return dense_solve_displacement(gen.operator, dense_mul(f, gen.G, gen.H.T))


def _check_entry_points(gen, A, B, x0, forced: bool) -> None:
    """struct_mul, solve_generator on b = A·x0 and inv_generator (square A)
    against the oracle.  The dense route is exact and never fails; the
    structured route is exact or reports failure."""
    f = gen.field
    m, n = A.shape
    route = expected_route(forced, min(m, n), gen.alpha)
    assert np.array_equal(struct_mul(gen, B), dense_mul(f, A, B))
    b = dense_mul(f, A, x0[:, None])[:, 0]
    res = solve_generator(gen, b, rng_seed=1)
    assert res.route == route and res.status in (OK, FAILURE)
    if res.ok:
        assert np.array_equal(dense_mul(f, A, res.x[:, None])[:, 0], b)
    else:
        assert route != DENSE
    if m != n:
        return
    res = inv_generator(gen, rng_seed=1)
    invertible = dense_rank(f, A) == m
    assert res.route == route
    assert res.status in ((OK if invertible else SINGULAR), FAILURE)
    if res.ok:
        assert np.array_equal(_oracle_dense(res.generator), dense_inv(f, A))
    elif res.status == FAILURE:
        assert route != DENSE


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=30, derandomize=True, deadline=None)
@given(variant=st.integers(0, 7), flavor=st.sampled_from(FLAVORS),
       m=st.sampled_from(range(10, 0, -1)), n=st.sampled_from(range(10, 0, -1)),
       rectangular=st.booleans(), alpha=st.sampled_from((1, 2, 3)),
       seed=st.integers(0, 2**32 - 1))
def test_entry_points_match_the_oracle_on_every_prime(p, variant, flavor, m, n, rectangular,
                                                       alpha, seed):
    # sizes are listed largest first, so that the draws hypothesis favours
    # are square and wide enough for the structured route (m ≥ α + 6)
    f = get_field(p)
    n = n if rectangular else m
    alpha = min(alpha, m, n)
    rng = np.random.default_rng(seed)
    kind = (SYLVESTER, STEIN)[variant & 1]
    op = draw_operator(f, rng, m, n, kind, flavor, bool(variant & 2), bool(variant & 4))
    gen = Generator(f.arr(rng.integers(0, p, (m, alpha))), f.arr(rng.integers(0, p, (n, alpha))),
                    op)
    A = _oracle_dense(gen)
    B = f.arr(rng.integers(0, p, (n, 3)))
    x0 = f.arr(rng.integers(0, p, n))
    _check_entry_points(gen, A, B, x0, forced=False)
    with pytest.MonkeyPatch.context() as mp:
        force_structured(mp)
        _check_entry_points(gen, A, B, x0, forced=True)
