"""The four benchmark workloads.

Each workload draws plain numpy / Python-int coefficients from a seeded
generator, hands them to the library's public functions, times one call per
operation, and checks every result with arithmetic of its own. Library
functions are reached through their modules (``structmul.struct_mul``), so
the tracer's patches apply to the benchmark's own calls too.
"""

from __future__ import annotations

import time

import numpy as np

from dispmat import cli, field, generators, operators, oracle, poly, structmul, structsolve

P_DEFAULT = field.DEFAULT_PRIME
P62 = field.BENCH_PRIME


class Mismatch(AssertionError):
    """A library result disagrees with the benchmark's own check."""


# ---------------------------------------------------------------------------
# the benchmark's own arithmetic (Python ints through object arrays)


def _rand(rng, p: int, shape) -> np.ndarray:
    return rng.integers(0, p, size=shape, dtype=np.int64)


def _mm(a, b, p: int) -> np.ndarray:
    """(a @ b) mod p exactly, whatever the dtypes."""
    return (np.asarray(a).astype(object) @ np.asarray(b).astype(object)) % p


def _same(a, b, p: int) -> bool:
    a = np.asarray(a).astype(object) % p
    b = np.asarray(b).astype(object) % p
    return a.shape == b.shape and bool(np.all(a == b))


def _binomial(m: int, c: int, p: int) -> list[int]:
    """Coefficients of x^m - c."""
    return [(-c) % p] + [0] * (m - 1) + [1]


def _distinct_pair(rng, p: int) -> tuple[int, int]:
    a = int(rng.integers(0, p))
    b = int(rng.integers(0, p))
    while b == a:
        b = int(rng.integers(0, p))
    return a, b


def _trim(a: list[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [v % p for v in out]


def _padd(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [(x + (b[i] if i < len(b) else 0)) % p for i, x in enumerate(a)]


def _pmod(a: list[int], P: list[int], p: int) -> list[int]:
    """a mod P for a monic P."""
    r = [v % p for v in a]
    k = len(P) - 1
    for top in range(len(r) - 1, k - 1, -1):
        c = r[top]
        if c:
            for t in range(k + 1):
                r[top - k + t] = (r[top - k + t] - c * P[t]) % p
    return _trim(r[:k])


def _dense_from_generator(gen) -> np.ndarray:
    """The dense matrix of a generator, from the oracle's brute-force solve
    of L(A) = G·Hᵗ."""
    p = gen.field.p
    return oracle.dense_solve_displacement(gen.operator, _mm(gen.G, gen.H.T, p))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


class Clock:
    """Seconds spent in the library construction calls it times."""

    def __init__(self):
        self.s = 0.0

    def time(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.s += time.perf_counter() - t0
        return out


def _build(f, kind, tp, tq, mp, mq, G, H):
    """The library's construction of an operator and its generator: both
    families, the operator, its invertibility test and the generator. None
    when the moduli are not coprime or the operator is not invertible."""
    try:
        fam_p = poly.family_build(f, mp)
        fam_q = poly.family_build(f, mq)
    except poly.NotCoprime:
        return None
    op = operators.DisplacementOperator(kind, fam_p, fam_q, tp, tq)
    if not operators.op_invertible(op):
        return None
    return generators.Generator(G, H, op)


# ---------------------------------------------------------------------------


class Workload:
    """One closed-loop workload.

    ``context`` builds what every operation of a run shares, ``prepare``
    builds one operation's inputs; both time the library's construction
    calls (program set-up) on the ``Clock`` they are given, and leave the
    benchmark's own input drawing untimed. ``call`` is the timed call and
    reports whether the result carries the ``failure`` tag, ``check``
    verifies a result outside the timed region. Timings are scaled by the
    speed index of the ``reference`` parts. Operations cycle through
    ``cycle`` kinds; a run makes at least ``min_ops`` of them and stops on
    a whole cycle.

    The warm-up call counts as set-up (``warmup_is_setup``) where an
    operation builds nothing of its own: there it is the first use of the
    shared context, and work moved from the context into a cache filled on
    first use stays in set-up. Where every operation builds its own
    operator, the warm-up is an operation like the others; counting it as
    set-up would cancel any work moved between the call and the
    construction.
    """

    name = ""
    why = ""
    cycle = 1
    # the tail rule needs more than stats.TAIL_BEYOND samples; 40 puts the
    # tail at the 75th percentile or above
    min_ops = 40
    trace_ops = 1
    # speed.py reference parts whose slowdown tracks this workload's, and the
    # power of their speed index that its latency moves with
    reference = ("python", "small_numpy", "wide_numpy", "object_ints")
    warmup_is_setup = False

    def context(self, rng, clock: Clock):
        return None

    def prepare(self, ctx, rng, i: int, clock: Clock):
        raise NotImplementedError

    def call(self, inst, seed: int):
        raise NotImplementedError

    def check(self, inst, result) -> None:
        raise NotImplementedError

    def oracle_check(self, rng) -> None:
        raise NotImplementedError


class _Mul:
    """One product instance: A given by gen, a block B, and the Freivalds
    vector r with B·r precomputed."""

    def __init__(self, gen, rng, beta: int):
        p = gen.field.p
        self.gen = gen
        self.B = _rand(rng, p, (gen.n, beta))
        self.r = _rand(rng, p, beta)
        self.Br = np.array(_mm(self.B, self.r, p), dtype=np.int64)


def _toeplitz_generator(f, rng, m: int, alpha: int, clock: Clock | None = None):
    """Generator under the Sylvester operator of x^m - phi and x^m - psi."""
    phi, psi = _distinct_pair(rng, f.p)
    G, H = _rand(rng, f.p, (m, alpha)), _rand(rng, f.p, (m, alpha))
    gen = (clock or Clock()).time(_build, f, operators.SYLVESTER, False, True,
                                  [_binomial(m, phi, f.p)], [_binomial(m, psi, f.p)], G, H)
    _require(gen is not None, "x^m - phi and x^m - psi must be coprime")
    return gen


def _check_mul_dense(inst: _Mul) -> None:
    gen = inst.gen
    p = gen.field.p
    A = _dense_from_generator(gen)
    _require(_same(structmul.struct_mul(gen, inst.B), _mm(A, inst.B, p), p),
             "struct_mul disagrees with the dense oracle")
    _require(_same(generators.gen_matvec(gen, inst.Br), _mm(A, inst.Br, p), p),
             "gen_matvec disagrees with the dense oracle")


class ToeplitzMul(Workload):
    name = "toeplitz-mul"
    why = ("one reused Toeplitz-like generator times fresh dense blocks: the "
           "transform-bound product path, where a per-generator cache would hit")
    m, alpha, beta = 2048, 8, 8
    trace_ops = 4
    reference = ("large_numpy",)
    warmup_is_setup = True

    def __init__(self):
        self.f = field.get_field(P_DEFAULT)

    def context(self, rng, clock):
        return _toeplitz_generator(self.f, rng, self.m, self.alpha, clock)

    def prepare(self, gen, rng, i, clock):
        return _Mul(gen, rng, self.beta)

    def call(self, inst, seed):
        return structmul.struct_mul(inst.gen, inst.B), False

    def check(self, inst, out):
        p = self.f.p
        # Freivalds: (A·B)·r == A·(B·r), with one matrix-vector product
        _require(_same(_mm(out, inst.r, p), generators.gen_matvec(inst.gen, inst.Br), p),
                 "struct_mul fails the Freivalds check")

    def oracle_check(self, rng):
        _check_mul_dense(_Mul(_toeplitz_generator(self.f, rng, 16, 8), rng, 8))


class _Solve:
    def __init__(self, gen, rng, kind: str):
        p = gen.field.p
        self.gen = gen
        self.kind = kind
        self.seed = int(rng.integers(0, 1 << 62))
        if kind == "solve":
            self.b = generators.gen_matvec(gen, _rand(rng, p, gen.n))  # planted: consistent
        else:
            self.r = _rand(rng, p, gen.n)


class ToeplitzSolve(Workload):
    name = "toeplitz-solve"
    why = ("fresh Toeplitz-like generators, alternating solve and inverse: "
           "recursion with many small products and dense base cases, no reuse")
    m, alpha = 64, 6
    cycle = 2
    trace_ops = 4

    def __init__(self):
        self.f = field.get_field(P_DEFAULT)

    def prepare(self, ctx, rng, i, clock):
        gen = _toeplitz_generator(self.f, rng, self.m, self.alpha, clock)
        return _Solve(gen, rng, "solve" if i % 2 == 0 else "inv")

    def call(self, inst, seed):
        if inst.kind == "solve":
            res = structsolve.solve_generator(inst.gen, inst.b, rng_seed=seed)
        else:
            res = structsolve.inv_generator(inst.gen, rng_seed=seed)
        return res, res.status == structsolve.FAILURE

    def check(self, inst, res):
        gen, p = inst.gen, self.f.p
        if inst.kind == "solve":
            _require(res.status == structsolve.OK, f"planted system returned {res.status}")
            _require(_same(generators.gen_matvec(gen, res.x), inst.b, p), "A·x != b")
            return
        if res.status == structsolve.SINGULAR:
            A = generators.reconstruct_dense(gen)
            _require(oracle.dense_rank(self.f, A) < gen.m, "inverse reported singular")
            return
        _require(res.status == structsolve.OK, f"inverse returned {res.status}")
        back = generators.gen_matvec(gen, generators.gen_matvec(res.generator, inst.r))
        _require(_same(back, inst.r, p), "A·(A⁻¹·r) != r")

    def oracle_check(self, rng):
        p = self.f.p
        gen = _toeplitz_generator(self.f, rng, 16, self.alpha)
        A = _dense_from_generator(gen)
        u = _rand(rng, p, gen.n)
        _require(_same(generators.gen_matvec(gen, u), _mm(A, u, p), p),
                 "gen_matvec disagrees with the dense oracle")
        x0 = _rand(rng, p, gen.n)
        b = np.array(_mm(A, x0, p), dtype=np.int64)
        res = structsolve.solve_generator(gen, b, rng_seed=int(rng.integers(0, 1 << 62)))
        _require(res.status == structsolve.OK and _same(_mm(A, res.x, p), b, p),
                 "solve_generator disagrees with the dense oracle")
        res = structsolve.inv_generator(gen, rng_seed=int(rng.integers(0, 1 << 62)))
        _require(res.status == structsolve.OK, f"small inverse returned {res.status}")
        _require(_same(_dense_from_generator(res.generator), oracle.dense_inv(self.f, A), p),
                 "inv_generator disagrees with the dense oracle")


VARIANTS = [(kind, tp, tq)
            for kind in (operators.SYLVESTER, operators.STEIN)
            for tp in (False, True) for tq in (False, True)]


def _geometric_moduli(rng, p: int, m: int) -> list[list[int]]:
    """x - u·q^j for j < m, with m distinct points."""
    while True:
        u = 1 + int(rng.integers(0, p - 1))
        q = 1 + int(rng.integers(0, p - 1))
        pts = [u * pow(q, j, p) % p for j in range(m)]
        if len(set(pts)) == m:
            return [[(-x) % p, 1] for x in pts]


def _general_moduli(rng, p: int, m: int, blocks: int) -> list[list[int]]:
    d = m // blocks
    return [[int(c) for c in _rand(rng, p, d)] + [1] for _ in range(blocks)]


def _family_generator(f, rng, m: int, alpha: int, shape: str, variant, blocks: int,
                      clock: Clock | None = None):
    clock = clock or Clock()
    while True:
        if shape == "geometric":
            mp, mq = _geometric_moduli(rng, f.p, m), _geometric_moduli(rng, f.p, m)
        else:
            mp, mq = (_general_moduli(rng, f.p, m, blocks),
                      _general_moduli(rng, f.p, m, blocks))
        G, H = _rand(rng, f.p, (m, alpha)), _rand(rng, f.p, (m, alpha))
        gen = clock.time(_build, f, *variant, mp, mq, G, H)
        if gen is not None:
            return gen


class FamiliesMul(Workload):
    """Each operation is one Sylvester and one Stein product, one on each
    family shape. Every transpose flag that differs from the basic variant
    costs a symmetrizer conjugation, which sets most of a product's cost, so
    the Stein product takes the opposite flags of the Sylvester one: every
    operation then makes two conjugations and costs about the same. The
    shapes swap every four operations, so a cycle of 8 covers every variant
    on both shapes."""

    name = "families-mul"
    why = ("a fresh operator per product over all 8 operator variants, geometric "
           "and 16-block families: tree, CRT and inverse-table work, no cache hits")
    m, alpha, beta, blocks = 128, 4, 4, 16
    shapes = ("geometric", "general")
    flags = [(tp, tq) for tp in (False, True) for tq in (False, True)]
    cycle = 2 * len(flags)
    # more operations, to average over more of the machine's slow and fast
    # stretches
    min_ops = 64
    trace_ops = cycle

    def __init__(self):
        self.f = field.get_field(P_DEFAULT)

    def prepare(self, ctx, rng, i, clock):
        tp, tq = self.flags[i % len(self.flags)]
        variants = ((operators.SYLVESTER, tp, tq), (operators.STEIN, not tp, not tq))
        shapes = self.shapes if i % self.cycle < len(self.flags) else self.shapes[::-1]
        return [_Mul(_family_generator(self.f, rng, self.m, self.alpha, shape, variant,
                                       self.blocks, clock), rng, self.beta)
                for variant, shape in zip(variants, shapes)]

    def call(self, insts, seed):
        return [(structmul.struct_mul(x.gen, x.B), generators.gen_matvec(x.gen, x.Br))
                for x in insts], False

    def check(self, insts, outs):
        p = self.f.p
        for x, (out, y) in zip(insts, outs):
            _require(_same(_mm(out, x.r, p), y, p), "struct_mul fails the Freivalds check")

    def oracle_check(self, rng):
        for variant in VARIANTS:
            for shape in self.shapes:
                gen = _family_generator(self.f, rng, 16, self.alpha, shape, variant, 4)
                _check_mul_dense(_Mul(gen, rng, self.beta))


def _near_split(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (i < extra) for i in range(parts)]


class _Pade:
    """Random monic moduli and residues; the degree bounds sum to one more
    than the moduli's total degree, so a nonzero solution always exists."""

    def __init__(self, rng, p: int, blocks: int, degree: int, alpha: int):
        self.p = p
        self.moduli = [[int(c) for c in _rand(rng, p, degree)] + [1] for _ in range(blocks)]
        self.residues = [[[int(c) for c in _rand(rng, p, degree)] for _ in range(alpha)]
                         for _ in range(blocks)]
        self.bounds = _near_split(blocks * degree + 1, alpha)
        self.seed = int(rng.integers(0, 1 << 62))


def _check_pade(inst: _Pade, out: dict) -> None:
    p = inst.p
    _require(out["tag"] == structsolve.OK, f"pade_solve returned {out['tag']}")
    parts = [_trim([int(c) % p for c in fj]) for fj in out["f"]]
    _require(any(parts), "pade_solve returned the zero solution")
    _require(all(len(fj) <= n for fj, n in zip(parts, inst.bounds)),
             "pade_solve exceeded a degree bound")
    for P, row in zip(inst.moduli, inst.residues):
        acc = []
        for fj, R in zip(parts, row):
            acc = _padd(acc, _pmul(fj, R, p), p)
        _require(not _pmod(acc, P, p), "sum_j f_j R_ij is not 0 mod P_i")


class PadeP62(Workload):
    name = "pade-p62"
    why = ("the Pade demo over the 62-bit prime: object-dtype field arithmetic, "
           "the Stein multi-block path and the rank-deficient solve in cli")
    blocks, degree, alpha = 8, 3, 3
    trace_ops = 4
    # cli.pade_solve builds its operator inside the call
    warmup_is_setup = True

    def __init__(self):
        self.f = field.get_field(P62)

    def prepare(self, ctx, rng, i, clock):
        return _Pade(rng, self.f.p, self.blocks, self.degree, self.alpha)

    def call(self, inst, seed):
        out = cli.pade_solve(self.f, inst.moduli, inst.residues, inst.bounds, seed=seed)
        return out, out["tag"] == structsolve.FAILURE

    def check(self, inst, out):
        _check_pade(inst, out)

    def oracle_check(self, rng):
        f, p = self.f, self.f.p
        inst = _Pade(rng, p, 4, 2, self.alpha)
        fam = poly.family_build(f, inst.moduli)
        # column (j, t) of the approximation matrix holds x^t R_ij mod P_i
        cols = []
        for j, n in enumerate(inst.bounds):
            for t in range(n):
                col = []
                for P, row in zip(inst.moduli, inst.residues):
                    r = _pmod([0] * t + row[j], P, p)
                    col += r + [0] * (len(P) - 1 - len(r))
                cols.append(col)
        dense = np.array(cols, dtype=object).T
        while True:
            phi = int(rng.integers(0, p))
            gen = cli.pade_generator(fam, inst.residues, inst.bounds, phi)
            if operators.op_invertible(gen.operator):
                break
        _require(_same(_dense_from_generator(gen), dense, p),
                 "pade_generator disagrees with the dense approximation matrix")
        _check_pade(inst, cli.pade_solve(f, inst.moduli, inst.residues, inst.bounds,
                                         seed=inst.seed))


WORKLOADS = {w.name: w for w in (ToeplitzMul, ToeplitzSolve, FamiliesMul, PadeP62)}
