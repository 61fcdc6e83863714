"""Command-line driver: instance generation, mul/inv/solve runs, and a
simultaneous Padé-type approximation demo.

Instances travel as JSON with every field element rendered as a decimal
string (the 62-bit prime does not fit in double-precision JSON numbers).
Exit codes: 0 ok, 1 verification mismatch, 2 bad input, 3 failure tag.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import oracle
from .field import PrimeField, get_field
from .generators import (
    Generator,
    gen_from_dict,
    gen_matvec,
    gen_to_dict,
    reconstruct_dense,
)
from .operators import (
    STEIN,
    SYLVESTER,
    DisplacementOperator,
    SingularOperator,
    op_invertible,
)
from .poly import NotCoprime, PolyFamily, family_build, padded, stacked, trim
from .structmul import struct_mul
from .structsolve import FAILURE, NO_SOLUTION, OK, inv_generator, solve_generator

__all__ = [
    "InfeasibleSpec",
    "BadDegreeProfile",
    "InstanceFile",
    "PadeInstance",
    "draw_family",
    "draw_operator",
    "pade_generator",
    "pade_solve",
    "plant_pade",
    "cmd_gen",
    "cmd_run",
    "cmd_pade",
    "build_parser",
    "main",
    "EXIT_OK",
    "EXIT_VERIFY",
    "EXIT_BAD_INPUT",
    "EXIT_FAILURE",
]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_BAD_INPUT = 2
EXIT_FAILURE = 3

# m*n cap for --verify dense cross-checks (the oracle's own generic limit).
VERIFY_LIMIT = oracle.GENERIC_SOLVE_LIMIT

_DRAW_TRIES = 64
_MAX_BLOCKS = 3  # moduli in a random "general" family, at most
_PADE_ATTEMPTS = 6  # draws of φ and solver seed in pade_solve, at most

TASKS = ("mul", "inv", "solve")
RHS_MODES = ("planted", "random", "zero", "inconsistent")
FLAVORS = ("general", "single_power", "geometric")


class InfeasibleSpec(ValueError):
    """Generation parameters that cannot be satisfied."""


class BadDegreeProfile(ValueError):
    """Padé degree bounds incompatible with the moduli."""


# ---------------------------------------------------------------------------
# JSON plumbing (decimal strings throughout)


def _mat_json(a: np.ndarray) -> list:
    return [[str(int(x)) for x in row] for row in a]


def _mat_parse(f: PrimeField, rows) -> np.ndarray:
    return f.arr(np.asarray([[int(x) for x in r] for r in rows], dtype=object))


def _vec_json(v: np.ndarray) -> list:
    return [str(int(x)) for x in v]


def _vec_parse(f: PrimeField, v) -> np.ndarray:
    return f.arr([int(x) for x in v])


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, doc: dict, line: str) -> None:
    """A run's result: the JSON document to --out if given, and on stdout
    the document with --json or else the one-line summary."""
    text = _dump(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json:
        sys.stdout.write(text)
    else:
        print(line)


@dataclass
class InstanceFile:
    """One self-contained problem instance.

    Carries the prime, the operator descriptor with flavor-tagged families,
    the generator columns, and the task payload (B for mul, b for solve).
    """

    prime: int
    seed: int
    task: str
    generator: Generator
    B: np.ndarray | None = None
    b: np.ndarray | None = None

    def to_json(self) -> str:
        doc = {"prime": str(self.prime), "seed": str(self.seed), "task": self.task}
        doc.update(gen_to_dict(self.generator))
        if self.B is not None:
            doc["B"] = _mat_json(self.B)
        if self.b is not None:
            doc["b"] = _vec_json(self.b)
        return _dump(doc)

    @staticmethod
    def from_json(text: str) -> "InstanceFile":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("instance file is not a JSON object")
        f = get_field(int(doc["prime"]))
        gen = gen_from_dict(f, doc)
        B = _mat_parse(f, doc["B"]) if "B" in doc else None
        b = _vec_parse(f, doc["b"]) if "b" in doc else None
        return InstanceFile(f.p, int(doc.get("seed", "0")), doc.get("task", ""), gen, B, b)


@dataclass
class PadeInstance:
    """Simultaneous approximation instance: moduli P_i, residues R_{i,j},
    and per-component degree bounds n_j (solutions have deg f_j < n_j)."""

    prime: int
    seed: int
    moduli: list
    residues: list
    bounds: list

    def to_json(self) -> str:
        doc = {
            "task": "pade",
            "prime": str(self.prime),
            "seed": str(self.seed),
            "moduli": [_vec_json(P) for P in self.moduli],
            "residues": [[_vec_json(R) for R in row] for row in self.residues],
            "bounds": [str(int(n)) for n in self.bounds],
        }
        return _dump(doc)

    @staticmethod
    def from_json(text: str) -> "PadeInstance":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("instance file is not a JSON object")
        f = get_field(int(doc["prime"]))
        moduli = [_vec_parse(f, P) for P in doc["moduli"]]
        residues = [[_vec_parse(f, R) for R in row] for row in doc["residues"]]
        bounds = [int(n) for n in doc["bounds"]]
        return PadeInstance(f.p, int(doc.get("seed", "0")), moduli, residues, bounds)


# ---------------------------------------------------------------------------
# random instance generation


def _rand_matrix(f: PrimeField, rng, rows: int, cols: int) -> np.ndarray:
    return f.arr(rng.integers(0, f.p, size=(rows, cols)))


def _rand_vector(f: PrimeField, rng, size: int) -> np.ndarray:
    return f.arr(rng.integers(0, f.p, size=size))


def _split_degrees(rng, total: int) -> list[int]:
    parts = []
    left = total
    for _ in range(int(rng.integers(1, _MAX_BLOCKS + 1)) - 1):
        if left <= 1:
            break
        take = int(rng.integers(1, left))
        parts.append(take)
        left -= take
    parts.append(left)
    return parts


def _draw_monic(f: PrimeField, rng, degrees) -> PolyFamily | None:
    """Random monic polynomials of the given degrees as a family, or None
    when they are not pairwise coprime."""
    polys = []
    for k in degrees:
        c = _rand_vector(f, rng, k + 1)
        c[k] = 1
        polys.append(c)
    try:
        return family_build(f, polys)
    except NotCoprime:
        return None


def draw_family(f: PrimeField, rng, total: int, flavor: str) -> PolyFamily:
    """Random monic family of the given total degree, per flavor."""
    if total < 1:
        raise InfeasibleSpec("family degree must be positive")
    if flavor == "single_power":
        coeffs = f.zeros(total + 1)
        coeffs[total] = 1
        coeffs[0] = f.neg(int(rng.integers(0, f.p)))
        return family_build(f, [coeffs])
    if flavor == "geometric":
        if total > f.p - 1:
            raise InfeasibleSpec(
                f"cannot place {total} distinct nonzero points mod {f.p}")
        if total == 1:
            pt = 1 + int(rng.integers(0, f.p - 1))
            return family_build(f, [[f.neg(pt), 1]])
        for _ in range(_DRAW_TRIES):
            u = 1 + int(rng.integers(0, f.p - 1))
            q = 1 + int(rng.integers(0, f.p - 1))
            pts, x = [], u
            for _ in range(total):
                pts.append(x)
                x = f.mul(x, q)
            if len(set(pts)) == total:
                return family_build(f, [[f.neg(pt), 1] for pt in pts])
        raise InfeasibleSpec(
            f"no geometric progression of length {total} found mod {f.p} "
            "(available ratios have small order)")
    if flavor != "general":
        raise InfeasibleSpec(f"unknown family flavor {flavor!r}")
    for _ in range(_DRAW_TRIES):
        fam = _draw_monic(f, rng, _split_degrees(rng, total))
        if fam is not None:
            return fam
    raise InfeasibleSpec("could not draw a pairwise-coprime family")


def draw_operator(f: PrimeField, rng, m: int, n: int, kind: str, flavor: str,
                  transpose_p: bool, transpose_q: bool) -> DisplacementOperator:
    """Random invertible displacement operator of the given format."""
    for _ in range(_DRAW_TRIES):
        fam_p = draw_family(f, rng, m, flavor)
        fam_q = draw_family(f, rng, n, flavor)
        op = DisplacementOperator(kind, fam_p, fam_q, transpose_p, transpose_q)
        if op_invertible(op):
            return op
    raise InfeasibleSpec(
        f"no invertible {kind} operator found for flavor {flavor!r}")


def cmd_gen(args) -> int:
    f = get_field(args.prime)
    m = args.m
    n = args.n if args.n is not None else m
    alpha = args.alpha
    if m < 1 or n < 1:
        raise InfeasibleSpec("matrix format must be positive")
    if alpha < 1 or alpha > min(m, n):
        raise InfeasibleSpec(f"generator length {alpha} not in 1..min({m},{n})")
    if args.task == "inv" and m != n:
        raise InfeasibleSpec("inv instances must be square")
    rng = np.random.Generator(np.random.Philox(args.seed))
    op = draw_operator(f, rng, m, n, args.kind, args.flavor,
                       args.transpose_p, args.transpose_q)
    gen = Generator._built(_rand_matrix(f, rng, m, alpha),
                           _rand_matrix(f, rng, n, alpha), op)
    B = b = None
    if args.task == "mul":
        if args.beta < 1:
            raise InfeasibleSpec("mul needs a positive block width")
        B = _rand_matrix(f, rng, n, args.beta)
    elif args.task == "solve":
        if args.rhs == "planted":
            b = gen_matvec(gen, _rand_vector(f, rng, n))
        elif args.rhs == "random":
            b = _rand_vector(f, rng, m)
        elif args.rhs == "zero":
            b = f.zeros(m)
        else:  # inconsistent
            if m <= n:
                raise InfeasibleSpec("inconsistent instances need m > n")
            if m * n > VERIFY_LIMIT:
                raise InfeasibleSpec("inconsistent instances need the dense check")
            A = reconstruct_dense(gen)
            for _ in range(_DRAW_TRIES):
                b = _rand_vector(f, rng, m)
                if oracle.dense_solve(f, A, b) is None:
                    break
            else:
                raise InfeasibleSpec("matrix has full row rank; every b is consistent")
    inst = InstanceFile(f.p, args.seed, args.task, gen, B, b)
    _emit(args, inst.to_json())
    return EXIT_OK


# ---------------------------------------------------------------------------
# running instances


def _dense_from_generator(gen: Generator) -> np.ndarray | None:
    """Oracle-side reconstruction, None when out of the brute-force range."""
    f = gen.field
    if gen.m * gen.n > VERIFY_LIMIT:
        return None
    try:
        return oracle.dense_solve_displacement(
            gen.operator, oracle.dense_mul(f, gen.G, gen.H.T))
    except (oracle.SizeLimit, SingularOperator):
        return None


def _verify_run(inst: InstanceFile, task: str, tag: str, result) -> str:
    f = inst.generator.field
    A = _dense_from_generator(inst.generator)
    if A is None or tag == FAILURE:
        return "skipped"
    if task == "mul":
        good = np.array_equal(oracle.dense_mul(f, A, inst.B), result)
    elif task == "inv":
        if tag == OK:
            Ainv = _dense_from_generator(result)
            if Ainv is None:
                return "skipped"
            eye = f.arr(np.eye(inst.generator.m, dtype=object))
            good = np.array_equal(oracle.dense_mul(f, A, Ainv), eye)
        else:  # singular
            good = oracle.dense_rank(f, A) < inst.generator.m
    else:  # solve
        if tag == OK:
            good = np.array_equal(
                oracle.dense_mul(f, A, result.reshape(-1, 1)).reshape(-1), inst.b)
        else:  # no_solution
            good = oracle.dense_solve(f, A, inst.b) is None
    return "ok" if good else "mismatch"


def cmd_run(args) -> int:
    with open(args.instance) as fh:
        inst = InstanceFile.from_json(fh.read())
    task = args.task or inst.task
    if task not in TASKS:
        raise ValueError(f"task {task!r} is not one of {TASKS}")
    seed = args.seed if args.seed is not None else inst.seed
    gen = inst.generator
    tag = OK
    result = route = None
    payload: dict = {}
    t0 = time.perf_counter_ns()
    if task == "mul":
        if inst.B is None:
            raise ValueError("instance carries no B block for mul")
        result = struct_mul(gen, inst.B)
        payload["product"] = _mat_json(result)
    elif task == "inv":
        res = inv_generator(gen, rng_seed=seed)
        tag, route = res.status, res.route
        if res.ok:
            result = res.generator
            payload["inverse_generator"] = gen_to_dict(result)
    else:
        if inst.b is None:
            raise ValueError("instance carries no right-hand side for solve")
        res = solve_generator(gen, inst.b, rng_seed=seed)
        tag, route = res.status, res.route
        if res.ok:
            result = res.x
            payload["x"] = _vec_json(result)
    wall_ns = time.perf_counter_ns() - t0

    verified = _verify_run(inst, task, tag, result) if args.verify else None
    doc = {
        "task": task,
        "tag": tag,
        "prime": str(gen.field.p),
        "m": gen.m,
        "n": gen.n,
        "alpha": gen.alpha,
        "seed": str(seed),
        "wall_ns": str(wall_ns),
        "verified": verified,
        "route": route,
    }
    doc.update(payload)
    line = f"{task}: tag={tag}"
    if verified is not None:
        line += f" verified={verified}"
    _report(args, doc, line)
    if verified == "mismatch":
        return EXIT_VERIFY
    if tag == FAILURE:
        return EXIT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# simultaneous Padé-type approximation
#
# Unknowns are the stacked coefficients of (f_1, ..., f_alpha) with
# deg f_j < n_j; the system matrix maps them to the stacked residues of
# sum_j f_j R_{i,j} mod P_i.  Column (j, t) holds x^t R_{i,j} mod P_i, so
# under the Stein operator with Q_1 = x^N - phi all columns except the
# alpha block boundaries cancel: the generator has length exactly alpha.


def pade_generator(fam: PolyFamily, residues, bounds: list[int], phi: int) -> Generator:
    """Length-alpha generator of the approximation matrix under the Stein
    operator paired with the single binomial x^N - phi.  residues is the
    table R_{i,j}, or the _ResidueBlock that pade_solve converts it to once
    for all its attempts."""
    f = fam.field
    alpha = len(bounds)
    N = sum(bounds)
    Q = f.zeros(N + 1)
    Q[0], Q[N] = f.neg(phi), 1
    op = DisplacementOperator(STEIN, fam, family_build(f, [Q]))
    leaves = fam.levels[0]
    w = leaves.width
    red = leaves.rem(_residue_block(f, residues))
    # column j is red_j − c_j·x^(n_{j−1})·red_{j−1} mod P_i, with j − 1 taken
    # cyclically, c_0 = φ and c_j = 1 otherwise
    carry = f.zeros((alpha, len(fam), w + max(bounds)))
    for j in range(alpha):
        carry[j, :, bounds[j - 1]: bounds[j - 1] + w] = red[j - 1] if j else phi * red[-1] % f.p
    G = leaves.rem((padded(f, red, carry.shape[-1]) - carry) % f.p)
    H = f.zeros((N, alpha))
    H[np.cumsum([0] + bounds[:-1]), np.arange(alpha)] = 1
    return Generator._built(fam.from_leaves(G).T, H, op)


@dataclass(frozen=True)
class _ResidueBlock:
    """The residue table R_{i,j} converted once, as rows (alpha, d, L):
    block j holds column j, one row per modulus, padded to the longest
    residue."""

    rows: np.ndarray


def _residue_block(f: PrimeField, residues) -> np.ndarray:
    """The rows of a _ResidueBlock, or those of the table R_{i,j} (row i per
    modulus, column j per component), zero-padded and converted by one
    f.arr call."""
    if isinstance(residues, _ResidueBlock):
        return residues.rows
    d, alpha = len(residues), len(residues[0])
    table = np.zeros((alpha, d, max(len(R) for row in residues for R in row)), dtype=object)
    for i, row in enumerate(residues):
        for j, R in enumerate(row):
            table[j, i, : len(R)] = list(R)
    return f.arr(table)


def _check_profile(fam: PolyFamily, residues, bounds) -> None:
    alpha = len(bounds)
    if alpha < 1 or any(n < 1 for n in bounds):
        raise BadDegreeProfile(f"degree bounds must be positive, got {bounds}")
    if len(residues) != len(fam) or any(len(row) != alpha for row in residues):
        raise BadDegreeProfile(
            f"residue table must be {len(fam)}x{alpha} to match moduli and bounds")
    if sum(bounds) < fam.total_degree:
        raise BadDegreeProfile(
            f"total bound {sum(bounds)} below the moduli degree {fam.total_degree}: "
            "the system is tall")


def _relation(fam: PolyFamily, residues, parts) -> np.ndarray:
    """sum_j parts_j·R_{i,j} mod P_i for every modulus, as leaf rows (d, w):
    one broadcast product of all pairs, summed over j, and one reduction."""
    f = fam.field
    if not parts:
        return f.zeros((len(fam), fam.levels[0].width))
    F = stacked(f, parts, len(parts), max(1, max(len(fj) for fj in parts)))
    terms = f.conv(_residue_block(f, residues), F[:, None, :])
    return fam.levels[0].rem(np.sum(terms, axis=0) % f.p)


def pade_solve(f: PrimeField, moduli, residues, bounds, seed: int = 0) -> dict:
    """Nonzero (f_1, ..., f_alpha) with sum_j f_j R_{i,j} = 0 mod P_i and
    deg f_j < n_j, or a no_solution / failure tag."""
    fam = family_build(f, moduli)
    _check_profile(fam, residues, bounds)
    m, N = fam.total_degree, sum(bounds)
    residues = _ResidueBlock(_residue_block(f, residues))
    rng = np.random.Generator(np.random.Philox(seed))
    for attempt in range(1, _PADE_ATTEMPTS + 1):
        phi = int(rng.integers(0, f.p))
        gen = pade_generator(fam, residues, bounds, phi)
        if not op_invertible(gen.operator):
            continue
        res = solve_generator(gen, f.zeros(m), rng_seed=int(rng.integers(0, 1 << 62)))
        if res.status == FAILURE:
            continue
        x = res.x
        if not np.any(x != 0):
            return {"tag": NO_SOLUTION, "attempts": attempt}
        parts = []
        pos = 0
        for n in bounds:
            parts.append(trim(f, x[pos: pos + n]))
            pos += n
        if np.any(_relation(fam, residues, parts)):
            continue
        return {"tag": OK, "f": parts, "phi": phi,
                "generator_length": gen.alpha, "attempts": attempt}
    return {"tag": FAILURE, "attempts": _PADE_ATTEMPTS}


def plant_pade(f: PrimeField, bounds, block_degrees=None, moduli=None,
               seed: int = 0) -> PadeInstance:
    """Instance with a planted solution: draw the f_j, draw all residues but
    the first column, then solve the first column from the relation (needs
    f_1 invertible modulo every P_i)."""
    bounds = [int(n) for n in bounds]
    if not bounds or any(n < 1 for n in bounds):
        raise BadDegreeProfile(f"degree bounds must be positive, got {bounds}")
    rng = np.random.Generator(np.random.Philox(seed))
    if moduli is not None:
        fam = family_build(f, moduli)
    else:
        if not block_degrees or any(k < 1 for k in block_degrees):
            raise BadDegreeProfile("moduli degrees must be positive")
        for _ in range(_DRAW_TRIES):
            fam = _draw_monic(f, rng, block_degrees)
            if fam is not None:
                break
        else:
            raise InfeasibleSpec("could not draw pairwise-coprime moduli")
    if sum(bounds) < fam.total_degree:
        raise BadDegreeProfile(
            f"total bound {sum(bounds)} below the moduli degree {fam.total_degree}")
    leaves = fam.levels[0]
    for _ in range(_DRAW_TRIES):
        f1 = trim(f, _rand_vector(f, rng, bounds[0]))
        f1_inv, ok = leaves.inverse(leaves.rem(np.broadcast_to(f1, (len(fam), len(f1)))))
        if ok.all():
            break
    else:
        raise InfeasibleSpec("could not plant a leading component invertible "
                             "modulo the product of moduli")
    parts = [trim(f, _rand_vector(f, rng, n)) for n in bounds[1:]]
    tails = [[trim(f, _rand_vector(f, rng, k)) for _ in bounds[1:]] for k in fam.degrees]
    # the first column solves f_1·R_{i,1} = −sum_{j>1} f_j·R_{i,j} mod P_i
    heads = leaves.modmul(f1_inv, (f.p - _relation(fam, tails, parts)) % f.p)
    residues = [[trim(f, head)] + tail for head, tail in zip(heads, tails)]
    return PadeInstance(f.p, seed, [np.asarray(P) for P in fam.polys], residues, bounds)


def cmd_pade(args) -> int:
    if args.plant:
        f = get_field(args.prime)
        if args.bounds:
            bounds = [int(s) for s in args.bounds.split(",") if s]
        else:
            bounds = _near_split(args.total_degree + 1, args.alpha)
        if args.block_degrees:
            degs = [int(s) for s in args.block_degrees.split(",") if s]
        else:
            degs = _near_split(args.total_degree, args.d)
        # an unseeded plant draws its seed here, so the file records the one used
        seed = args.seed if args.seed is not None else secrets.randbits(63)
        inst = plant_pade(f, bounds, block_degrees=degs, seed=seed)
        _emit(args, inst.to_json())
        return EXIT_OK
    if not args.instance:
        raise ValueError("pade needs --instance FILE (or --plant)")
    with open(args.instance) as fh:
        inst = PadeInstance.from_json(fh.read())
    f = get_field(inst.prime)
    seed = args.seed if args.seed is not None else inst.seed
    out = pade_solve(f, inst.moduli, inst.residues, inst.bounds, seed=seed)
    doc = {
        "task": "pade",
        "tag": out["tag"],
        "prime": str(f.p),
        "attempts": out["attempts"],
    }
    if out["tag"] == OK:
        doc["f"] = [_vec_json(fj) for fj in out["f"]]
        doc["phi"] = str(out["phi"])
        doc["generator_length"] = out["generator_length"]
    _report(args, doc, f"pade: tag={out['tag']}")
    return EXIT_FAILURE if out["tag"] == FAILURE else EXIT_OK


def _near_split(total: int, parts: int) -> list[int]:
    if parts < 1 or total < parts:
        raise BadDegreeProfile(f"cannot split degree {total} into {parts} parts")
    base, extra = divmod(total, parts)
    return [base + (i < extra) for i in range(parts)]


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dispmat",
        description="Structured matrices with small displacement rank over F_p.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="randomness seed (default: the instance's)")
        p.add_argument("--json", action="store_true", help="JSON on stdout")
        p.add_argument("--out", help="write the result file here")
        p.add_argument("--prime", default="default",
                       help="'default', 'p62', or a prime as a decimal literal")

    g = sub.add_parser("gen", help="generate a random instance file")
    common(g)
    g.set_defaults(func=cmd_gen, seed=0)
    g.add_argument("--task", choices=TASKS, default="mul")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, default=None, help="defaults to m")
    g.add_argument("--alpha", type=int, default=2)
    g.add_argument("--beta", type=int, default=2, help="mul block width")
    g.add_argument("--kind", choices=(SYLVESTER, STEIN), default=SYLVESTER)
    g.add_argument("--flavor", choices=FLAVORS, default="general")
    g.add_argument("--transpose-p", action=argparse.BooleanOptionalAction, default=False)
    g.add_argument("--transpose-q", action=argparse.BooleanOptionalAction, default=True)
    g.add_argument("--rhs", choices=RHS_MODES, default="planted",
                   help="right-hand-side style for solve instances")

    r = sub.add_parser("run", help="run a task on an instance file")
    common(r)
    r.set_defaults(func=cmd_run)
    r.add_argument("--instance", required=True)
    r.add_argument("--task", choices=TASKS, default=None,
                   help="defaults to the instance's task field")
    r.add_argument("--verify", action="store_true",
                   help="cross-check against the dense oracle (within its limits)")

    d = sub.add_parser("pade", help="simultaneous Padé-type approximation")
    common(d)
    d.set_defaults(func=cmd_pade)
    d.add_argument("--instance", help="instance file with moduli/residues/bounds")
    d.add_argument("--plant", action="store_true",
                   help="emit a planted instance instead of solving one")
    d.add_argument("--d", type=int, default=1, help="number of moduli (plant)")
    d.add_argument("--alpha", type=int, default=2, help="number of components (plant)")
    d.add_argument("--total-degree", type=int, default=8,
                   help="total moduli degree (plant)")
    d.add_argument("--bounds", help="comma-separated degree bounds (plant)")
    d.add_argument("--block-degrees", help="comma-separated moduli degrees (plant)")
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
