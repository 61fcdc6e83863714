"""The array contract of the poly module docstring, checked at the public
entry points: inputs stay untouched, results share no memory with them and
do not depend on earlier calls, kept arrays are read-only, and
``PrimeField.arr`` runs a fixed number of times per product."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import dispmat
from dispmat.cli import draw_operator
from dispmat.field import BENCH_PRIME, DEFAULT_PRIME, PrimeField, get_field
from dispmat.generators import Generator, gen_matvec, reconstruct_dense
from dispmat.operators import STEIN, SYLVESTER, DisplacementOperator, inverse_table
from dispmat.poly import family_build
from dispmat.structmul import struct_mul
from dispmat.structsolve import inv_generator, solve_generator

from conftest import rand_monic

M = 6
VARIANTS = [(kind, tp, tq) for kind in (SYLVESTER, STEIN)
            for tp, tq in itertools.product((False, True), repeat=2)]


def _shares(results, inputs):
    return [i for i, r in enumerate(results)
            if any(np.shares_memory(r, x) for x in inputs)]


@pytest.mark.parametrize("flavor", ["general", "single_power", "geometric"])
@pytest.mark.parametrize("p", [DEFAULT_PRIME, BENCH_PRIME], ids=["default", "p62"])
def test_entry_points_keep_inputs_and_share_nothing(p, flavor):
    f = get_field(p)
    rng = np.random.Generator(np.random.Philox(len(flavor)))
    for kind, tp, tq in VARIANTS:
        op = draw_operator(f, rng, M, M, kind, flavor, tp, tq)
        gen = Generator(f.arr(rng.integers(0, f.p, (M, 2))),
                        f.arr(rng.integers(0, f.p, (M, 2))), op)
        B = f.arr(rng.integers(0, f.p, (M, 3)))
        b = f.arr(rng.integers(0, f.p, M))
        inputs = (gen.G, gen.H, B, b)
        before = [x.copy() for x in inputs]

        def run():
            sol = solve_generator(gen, b, rng_seed=5)
            inv = inv_generator(gen, rng_seed=5)
            out = [struct_mul(gen, B), gen_matvec(gen, b), reconstruct_dense(gen)]
            if sol.ok:
                out.append(sol.x)
            if inv.ok:
                out += [inv.generator.G, inv.generator.H]
            return out, (sol.status, inv.status)

        first, tags = run()
        second, tags_again = run()
        case = (kind, tp, tq)
        assert all(np.array_equal(x, y) for x, y in zip(inputs, before)), case
        assert not _shares(first, inputs), case
        assert tags == tags_again and len(first) == len(second), case
        assert all(np.array_equal(x, y) for x, y in zip(first, second)), case


def _arrays(value):
    """The arrays in a stored value, through nested tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for part in value:
            yield from _arrays(part)


def test_kept_arrays_are_read_only(f):
    rng = np.random.default_rng(3)
    general = family_build(f, [rand_monic(f, rng, 2), rand_monic(f, rng, 3)])
    geometric = family_build(f, [[f.p - 2, 1], [f.p - 6, 1], [f.p - 18, 1]])
    single = family_build(f, [rand_monic(f, rng, 4)])
    op = DisplacementOperator(SYLVESTER, general, single)
    kept = [inverse_table(op)[0]]
    for fam in (general, geometric, single):
        es, fs = fam.crt_units()
        kept += [fam.rev_product_inverse(3), es[0], fs[-1], fam.polys[0], fam.product]
        for level in fam.levels:
            kept += [level.polys, level.rev, level.series(3)]
    # a generator's store after products on both routes of a binomial Q
    binomial = family_build(f, [[f.p - 3, 0, 0, 0, 1]])
    gen = Generator(f.arr(rng.integers(0, f.p, (5, 2))), f.arr(rng.integers(0, f.p, (4, 2))),
                    DisplacementOperator(STEIN, general, binomial, transpose_p=True))
    struct_mul(gen, f.arr(rng.integers(0, f.p, (4, 3))))
    gen_matvec(gen, f.arr(rng.integers(0, f.p, 4)))
    stored = list(_arrays(tuple(gen._store[-1].values())))
    assert len(stored) == 4  # gamma, eta and the pieces' two float64 limb stacks
    kept += [gen.G, gen.H] + stored
    for a in kept:
        with pytest.raises(ValueError):
            a[0] = 1


def _block_family(f, rng, m, blocks=16):
    return family_build(f, [rand_monic(f, rng, m // blocks) for _ in range(blocks)])


def test_struct_mul_converts_a_fixed_number_of_arrays(monkeypatch):
    f = get_field(DEFAULT_PRIME)
    original = PrimeField.arr
    counts = []
    for m in (64, 128):
        rng = np.random.default_rng(m)
        op = DisplacementOperator(SYLVESTER, _block_family(f, rng, m),
                                  _block_family(f, rng, m), transpose_p=True)
        gen = Generator(f.arr(rng.integers(0, f.p, (m, 3))),
                        f.arr(rng.integers(0, f.p, (m, 3))), op)
        B = f.arr(rng.integers(0, f.p, (m, 4)))
        calls = []
        monkeypatch.setattr(PrimeField, "arr",
                            lambda self, values: calls.append(1) or original(self, values))
        struct_mul(gen, B)
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_library_has_no_assert():
    # assert statements vanish under python -O; checks must raise instead
    found = []
    for path in sorted(Path(dispmat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
