"""Print SHA-256 digests over the outputs of the library's products, solves
and inverses, to check that a refactor leaves every result bit-for-bit the
same.

    python3 tools/output_digest.py SRC_DIR [--labels]

SRC_DIR is the `src` directory of a checkout; `dispmat` is imported from
there, so two checkouts can be compared side by side.  With --labels, one
`label sha256` line per output follows the four digest lines (the third
digest's labels prefixed `reused:`), so that two checkouts can be diffed
label by label (the fourth digest's labels prefixed `las-vegas:`).  The
first digest covers
`struct_mul`, `gen_matvec`, `reconstruct_dense`, `solve_generator` and
`inv_generator` for four primes (998244353, 2281701377, 2^31 − 1 and the
62-bit prime), the eight operator variants in each of the three family
flavours (drawn by `cli.draw_operator`) and in a skewed general flavour
whose blocks have degrees m − 4, 1, 1, 1, 1, one square and one rectangular
format, products with 1, 4 and 9 columns, and the inverse tables of
mixed-flavour operators (a binomial family on one side, a general or
geometric one on the other).  Inverse-table entries are hashed without
trailing zeros, so versions that pad them differently agree.

The first line is that digest.  The second extends it with `cli.pade_solve`
on planted instances over the 62-bit prime (`cli.plant_pade`, with loose
and with tight degree bounds), and with `conv` and `pm_mul` over 2^64 − 59:
1-D products and blocks of rows on both sides of the object-dtype
whole-residue bound, broadcast leading axes, polynomial dot products and
small matrix products.  The third is a digest of its own over products on
generators that have been used before: after all the outputs above on a
generator, one more `struct_mul` with 4 columns and one more `gen_matvec`,
drawn from a random stream of their own, so the first two lines do not
depend on them.

Every case above is below the solver's crossover, so the three lines never
reach its Las Vegas route (`largest_rec`, `precond`, the Schur step).  The
fourth line is a digest of its own over that route, with both crossover
constants of `structsolve` set to 2 while it runs and restored after, so
that an entry point stays dense only for min(m, n) < 2(α + 6).  On the
four primes and the eight operator variants in the general, geometric and
single-power flavours, at 24×24 with α = 3, it covers `solve_generator` (planted right-hand side,
rng seeds 0 and 1) and `inv_generator` on a random generator, and
`solve_generator` with b = 0 (both seeds) and `inv_generator` on a
singular matrix of rank 23 carried by the canonical generator of its
displacement.  The Las Vegas cores on the shift format, `structsolve._inv`
and `_solve` (which the entry points call on a compressed shift core),
run on generators whose last column depends on the others: 24×24 (inverse
and planted right-hand side, then a singular matrix inverted and solved
with b = 0), 40×32 (planted and random right-hand side) and 32×40
(planted and b = 0).  Every result is hashed with its status and route.

Products, reconstructions, inverse tables and inverses are unique exact
values: `inv_generator` returns the canonical generator of A⁻¹, which
depends on neither the seed nor the route.  Solve outputs are not: on a
singular or non-unique system they depend on the seed and on the code path
(which solution).  So equal digests show that two versions compute the same
outputs; the digest is not an oracle for whether either is right.
"""

from __future__ import annotations

import hashlib
import itertools
import sys

import numpy as np

PRIMES = (998244353, 2281701377, 2**31 - 1, 4611685941117976577)
FORMATS = ((24, 24), (40, 32))
FLAVORS = ("general", "geometric", "single_power", "skewed")
ALPHA, BETAS = 3, (1, 4, 9)
# (degree bounds, moduli degrees) of the planted Pade instances over p62
PADE = (([9, 8, 8], [3] * 8), ([8, 8, 8], [3] * 8), ([13, 12], [5] * 5),
        ([4, 4, 4, 4], [2] * 7 + [1]), ([7, 6, 6, 6], [25]))
# (lead of a, lead of b, len a, len b) for conv over 2^64 - 59; 56·54 is the
# object-dtype whole-residue bound, 55·55 one past it
CONV = (((), (), 1, 1), ((), (), 24, 25), ((), (), 56, 54), ((), (), 55, 55),
        ((), (), 64, 64), ((), (), 2000, 1800), ((9,), (9,), 24, 24),
        ((4,), (4,), 25, 24), ((3, 1), (1, 4), 20, 13), ((6,), (), 40, 1))
# (rows, k, cols, bound a, bound b) for pm_mul over 2^64 - 59
PM_MUL = ((1, 9, 1, 24, 24), (1, 3, 1, 2, 2), (2, 3, 4, 2, 2), (3, 2, 2, 16, 9))
# the Las Vegas line: the variants' format, the rng seeds of each solve,
# and the formats of the shift-format solves
LV_FORMAT, LV_SEEDS = 24, (0, 1)
LV_SHIFT_FORMATS = ((24, 24), (40, 32), (32, 40))
# (P flavour, Q flavour, m, n) for the mixed-flavour inverse tables
MIXED = [(fp, fq, m, n)
         for fp, fq in (("single_power", "general"), ("single_power", "geometric"),
                        ("general", "single_power"), ("geometric", "single_power"))
         for m, n in ((5, 7), (24, 24), (64, 40))]


class Digest:
    """SHA-256 over labelled outputs, their count, and one SHA-256 per
    label, named with the given prefix."""

    def __init__(self, prefix: str = ""):
        self.sha = hashlib.sha256()
        self.count = 0
        self.prefix = prefix
        self.labels = []

    def feed(self, label, value):
        if value is None:
            text = "None"
        elif isinstance(value, str):
            text = value
        else:
            arr = np.asarray(value)
            text = f"{arr.shape}:" + ",".join(str(int(x)) for x in arr.ravel())
        self.sha.update(f"{label}={text};".encode())
        self.count += 1
        self.labels.append(f"{self.prefix}{label} {hashlib.sha256(text.encode()).hexdigest()}")

    def line(self, note: str) -> str:
        return f"{self.sha.hexdigest()}  ({self.count} outputs{note})"


def main(argv: list[str]) -> int:
    labels = argv[2:] == ["--labels"]
    if len(argv) != 2 and not labels:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, argv[1])
    from dispmat.cli import draw_family, draw_operator, pade_solve, plant_pade
    from dispmat.field import get_field
    from dispmat import structsolve
    from dispmat.generators import (
        Generator, compress_pair, displacement, gen_matvec, hankel_operator,
        reconstruct_dense)
    from dispmat.operators import (
        STEIN, SYLVESTER, DisplacementOperator, inverse_table, op_invertible)
    from dispmat.poly import NotCoprime, family_build, trim
    from dispmat.polymat import pm_mul
    from dispmat.structmul import struct_mul
    from dispmat.structsolve import _inv, _solve, inv_generator, solve_generator

    digest, reuse, lv = Digest(), Digest("reused:"), Digest("las-vegas:")
    feed = digest.feed

    def rand(f, rng, *shape):
        return f.arr(rng.integers(0, f.p, size=shape))

    def wide(f, rng, *shape):  # residues of a prime beyond 2^63
        return f.arr(rng.integers(0, 2**64, size=shape, dtype=np.uint64))

    def skewed_family(f, rng, m):
        while True:
            try:
                return family_build(f, [[int(c) for c in rng.integers(0, f.p, d)] + [1]
                                        for d in (m - 4, 1, 1, 1, 1)])
            except NotCoprime:
                continue

    def operator(f, rng, m, n, kind, flavor, tp, tq):
        if flavor != "skewed":
            return draw_operator(f, rng, m, n, kind, flavor, tp, tq)
        while True:
            op = DisplacementOperator(kind, skewed_family(f, rng, m),
                                      skewed_family(f, rng, n), tp, tq)
            if op_invertible(op):
                return op

    for pi, p in enumerate(PRIMES):
        f = get_field(p)
        cases = itertools.product((SYLVESTER, STEIN), (False, True), (False, True),
                                  FLAVORS, FORMATS)
        for ci, (kind, tp, tq, flavor, (m, n)) in enumerate(cases):
            label = f"{p}/{kind}/{int(tp)}{int(tq)}/{flavor}/{m}x{n}"
            rng = np.random.default_rng([pi, ci])
            op = operator(f, rng, m, n, kind, flavor, tp, tq)
            gen = Generator(rand(f, rng, m, ALPHA), rand(f, rng, n, ALPHA), op)
            for beta in BETAS:
                feed(f"{label}/mul{beta}", struct_mul(gen, rand(f, rng, n, beta)))
            feed(label + "/matvec", gen_matvec(gen, rand(f, rng, n)))
            feed(label + "/dense", reconstruct_dense(gen))
            sol = solve_generator(gen, gen_matvec(gen, rand(f, rng, n)), rng_seed=ci)
            feed(label + "/solve", sol.status)
            feed(label + "/solve.x", sol.x)
            if m == n:
                res = inv_generator(gen, rng_seed=ci)
                feed(label + "/inv", res.status)
                feed(label + "/inv.G", res.Y)
                feed(label + "/inv.H", res.Z)
            again = np.random.default_rng([pi, ci, 1])
            reuse.feed(label + "/mul4", struct_mul(gen, rand(f, again, n, 4)))
            reuse.feed(label + "/matvec", gen_matvec(gen, rand(f, again, n)))
        for ci, ((fp, fq, m, n), kind) in enumerate(
                itertools.product(MIXED, (SYLVESTER, STEIN))):
            rng = np.random.default_rng([pi, 1000 + ci])
            op = DisplacementOperator(kind, draw_family(f, rng, m, fp),
                                      draw_family(f, rng, n, fq))
            table = inverse_table(op)
            label = f"{p}/{kind}/table/{fp}-{fq}/{m}x{n}"
            feed(label, "singular" if table is None else str(len(table)))
            for j, w in enumerate([] if table is None else table):
                feed(f"{label}/{j}", trim(f, w))

    print(digest.line(""))

    f = get_field(4611685941117976577)
    for ci, (bounds, degrees) in enumerate(PADE):
        inst = plant_pade(f, bounds, block_degrees=degrees, seed=ci)
        label = f"pade/{bounds}/{degrees}"
        for i, (P, row) in enumerate(zip(inst.moduli, inst.residues)):
            feed(f"{label}/P{i}", P)
            for j, R in enumerate(row):
                feed(f"{label}/R{i},{j}", R)
        out = pade_solve(f, inst.moduli, inst.residues, inst.bounds, seed=ci)
        feed(label + "/tag", f"{out['tag']}:{out['attempts']}:{out.get('phi')}")
        for j, part in enumerate(out.get("f", [])):
            feed(f"{label}/f{j}", part)
    f = get_field(2**64 - 59)
    rng = np.random.default_rng(64)
    for lead_a, lead_b, la, lb in CONV:
        a, b = wide(f, rng, *lead_a, la), wide(f, rng, *lead_b, lb)
        feed(f"conv/{lead_a}x{la}/{lead_b}x{lb}", f.conv(a, b))
    for rows, k, cols, ba, bb in PM_MUL:
        a, b = wide(f, rng, rows, k, ba), wide(f, rng, k, cols, bb)
        feed(f"pm_mul/{rows},{k},{cols}/{ba},{bb}", pm_mul(f, a, b))
    print(digest.line(", extended"))
    print(reuse.line(", reused generators"))

    def feed_result(label, res):
        lv.feed(label, f"{res.status}:{res.route}")
        if hasattr(res, "x"):
            lv.feed(label + ".x", res.x)
        else:
            lv.feed(label + ".G", res.Y)
            lv.feed(label + ".H", res.Z)

    def singular(f, rng, gen):
        """A generator of A·(I − x·e₀ᵗ), x[0] = 1, which has x in its kernel."""
        x = rand(f, rng, gen.n)
        x[0] = 1
        A = reconstruct_dense(gen)
        A[:, 0] = (A[:, 0] - gen_matvec(gen, x)) % f.p
        G, H = compress_pair(f, displacement(gen.operator, A),
                             f.arr(np.eye(gen.n, dtype=np.int64)))
        return Generator(G, H, gen.operator)

    saved = structsolve.DENSE_PER_WIDTH, structsolve.DENSE_PER_WIDTH_OBJECT
    structsolve.DENSE_PER_WIDTH = structsolve.DENSE_PER_WIDTH_OBJECT = 2
    try:
        for pi, p in enumerate(PRIMES):
            f = get_field(p)
            m = LV_FORMAT
            cases = itertools.product((SYLVESTER, STEIN), (False, True), (False, True),
                                      FLAVORS[:-1])
            for ci, (kind, tp, tq, flavor) in enumerate(cases):
                label = f"{p}/{kind}/{int(tp)}{int(tq)}/{flavor}/{m}x{m}"
                rng = np.random.default_rng([pi, 2000 + ci])
                op = draw_operator(f, rng, m, m, kind, flavor, tp, tq)
                gen = Generator(rand(f, rng, m, ALPHA), rand(f, rng, m, ALPHA), op)
                low = singular(f, rng, gen)
                b = gen_matvec(gen, rand(f, rng, m))
                for seed in LV_SEEDS:
                    feed_result(f"{label}/solve{seed}", solve_generator(gen, b, rng_seed=seed))
                    feed_result(f"{label}/kernel{seed}",
                                solve_generator(low, f.zeros(m), rng_seed=seed))
                feed_result(label + "/inv", inv_generator(gen))
                feed_result(label + "/inv.singular", inv_generator(low))
            for ci, (m, n) in enumerate(LV_SHIFT_FORMATS):
                label = f"{p}/shift/{m}x{n}"
                rng = np.random.default_rng([pi, 3000 + ci])
                G, H = rand(f, rng, m, ALPHA + 1), rand(f, rng, n, ALPHA + 1)
                G[:, -1] = (G[:, 0] + 5 * G[:, 1]) % f.p
                gen = Generator(G, H, hankel_operator(f, m, n))
                b = gen_matvec(gen, rand(f, rng, n))
                if m == n:
                    low = singular(f, rng, gen)
                    feed_result(label + "/inv", _inv(f, G, H, ci))
                    feed_result(label + "/solve", _solve(f, G, H, b, ci))
                    feed_result(label + "/inv.singular", _inv(f, low.G, low.H, ci))
                    feed_result(label + "/kernel", _solve(f, low.G, low.H, f.zeros(m), ci))
                    continue
                for seed in LV_SEEDS:
                    feed_result(f"{label}/solve{seed}", _solve(f, G, H, b, seed))
                other = rand(f, rng, m) if m > n else f.zeros(m)
                feed_result(label + "/other", _solve(f, G, H, other, ci))
    finally:
        structsolve.DENSE_PER_WIDTH, structsolve.DENSE_PER_WIDTH_OBJECT = saved
    print(lv.line(", Las Vegas route"))
    if labels:
        print("\n".join(digest.labels + reuse.labels + lv.labels))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
