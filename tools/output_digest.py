"""Print SHA-256 digests over the outputs of the library's products, solves
and inverses, to check that a refactor leaves every result bit-for-bit the
same.

    python3 tools/output_digest.py SRC_DIR [--labels]

SRC_DIR is the `src` directory of a checkout; `dispmat` is imported from
there, so two checkouts can be compared side by side.  With --labels, one
`label sha256` line per output follows the three digest lines (the third
digest's labels prefixed `reused:`), so that two checkouts can be diffed
label by label.  The digest covers
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
    from dispmat.generators import Generator, gen_matvec, reconstruct_dense
    from dispmat.operators import (
        STEIN, SYLVESTER, DisplacementOperator, inverse_table, op_invertible)
    from dispmat.poly import NotCoprime, family_build, trim
    from dispmat.polymat import pm_mul
    from dispmat.structmul import struct_mul
    from dispmat.structsolve import inv_generator, solve_generator

    digest, reuse = Digest(), Digest("reused:")
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
    if labels:
        print("\n".join(digest.labels + reuse.labels))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
