"""End-to-end driver tests: instance files, runs with oracle verification,
and the approximation subcommand.  Everything goes through
`main(argv)` exactly as a shell invocation would."""

import json

import numpy as np
import pytest

from dispmat import cli, oracle
from dispmat.cli import (
    EXIT_BAD_INPUT,
    EXIT_FAILURE,
    EXIT_OK,
    InstanceFile,
    main,
)
from dispmat.field import BENCH_PRIME, DEFAULT_PRIME, get_field
from dispmat.generators import Generator, _column_decompose, hankel_operator
from dispmat.poly import family_build, is_zero, poly_add, poly_mod, poly_mul, trim
from dispmat.structsolve import FAILURE, InvResult, SolveResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_deterministic_files(tmp_path, capsys):
    a, b, c = (str(tmp_path / name) for name in ("a.json", "b.json", "c.json"))
    base = ["gen", "--task", "mul", "--m", "6", "--n", "5", "--alpha", "2"]
    assert main(base + ["--seed", "9", "--out", a]) == EXIT_OK
    assert main(base + ["--seed", "9", "--out", b]) == EXIT_OK
    assert main(base + ["--seed", "10", "--out", c]) == EXIT_OK
    blob_a = open(a, "rb").read()
    assert blob_a == open(b, "rb").read()
    assert blob_a != open(c, "rb").read()
    inst = InstanceFile.from_json(blob_a.decode())
    assert inst.prime == DEFAULT_PRIME
    assert inst.generator.operator.shape == (6, 5)
    assert inst.B.shape == (5, 2)


def test_gen_accepts_full_rank_alpha(tmp_path, capsys):
    out = str(tmp_path / "full.json")
    code = main(["gen", "--task", "mul", "--m", "4", "--n", "6",
                 "--alpha", "4", "--out", out])
    assert code == EXIT_OK
    assert InstanceFile.from_json(open(out).read()).generator.alpha == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--task", "mul", "--m", "4", "--alpha", "0"],
        ["gen", "--task", "mul", "--m", "4", "--n", "3", "--alpha", "4"],
        ["gen", "--task", "inv", "--m", "4", "--n", "3"],
        ["gen", "--task", "mul", "--m", "0"],
        ["gen", "--task", "mul", "--m", "4", "--prime", "nosuch"],
        ["gen", "--task", "solve", "--m", "4", "--n", "5", "--rhs", "inconsistent"],
        # strong pseudoprimes to the bases 2..37 and to 2..41
        ["gen", "--task", "mul", "--m", "4", "--prime", "318665857834031151167461"],
        ["gen", "--task", "mul", "--m", "4", "--prime", "3317044064679887385961981"],
    ],
)
def test_gen_rejects_bad_specs(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:")


def test_gen_geometric_needs_enough_points(tmp_path, capsys):
    # ten distinct geometric points cannot exist in a field with six units
    code, _, err = run_cli(
        capsys, "gen", "--task", "mul", "--m", "10", "--alpha", "2",
        "--flavor", "geometric", "--prime", "7",
    )
    assert code == EXIT_BAD_INPUT
    assert "error" in err


@pytest.mark.parametrize("flavor", ["general", "single_power", "geometric"])
def test_gen_tags_families_with_flavor(tmp_path, capsys, flavor):
    out = str(tmp_path / "inst.json")
    code = main(["gen", "--task", "mul", "--m", "6", "--alpha", "2",
                 "--flavor", flavor, "--seed", "4", "--out", out])
    assert code == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["operator"]["P"]["flavor"] == flavor


# ---------------------------------------------------------------------------
# run


@pytest.mark.parametrize("task", ["mul", "inv", "solve"])
def test_gen_then_run_verifies(tmp_path, capsys, task):
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "--task", task, "--m", "8", "--alpha", "2",
                 "--seed", "2", "--out", inst]) == EXIT_OK
    code, doc = run_json(capsys, "run", "--instance", inst, "--verify")
    assert doc["task"] == task
    assert doc["tag"] == "ok"
    assert doc["verified"] == "ok"
    assert doc["route"] == (None if task == "mul" else "dense")
    assert code == EXIT_OK
    assert int(doc["wall_ns"]) > 0
    assert (doc["m"], doc["n"]) == (8, 8)


def test_run_solve_all_rhs_modes(tmp_path, capsys):
    for mode, want_tag in [("planted", "ok"), ("random", None), ("zero", "ok")]:
        inst = str(tmp_path / f"{mode}.json")
        assert main(["gen", "--task", "solve", "--m", "7", "--alpha", "2",
                     "--rhs", mode, "--seed", "3", "--out", inst]) == EXIT_OK
        code, doc = run_json(capsys, "run", "--instance", inst, "--verify")
        assert code == EXIT_OK
        assert doc["verified"] == "ok"
        if want_tag:
            assert doc["tag"] == want_tag


def test_run_reduces_entries_beyond_int64(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--task", "mul", "--m", "6", "--alpha", "2",
                 "--seed", "4", "--out", str(inst)]) == EXIT_OK
    docs = {}
    for name, entry in (("big", 2**70), ("residue", 2**70 % DEFAULT_PRIME)):
        doc = json.loads(inst.read_text())
        doc["G"][0][0] = str(entry)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, docs[name] = run_json(capsys, "run", "--instance", str(path), "--verify")
        assert code == EXIT_OK
        assert docs[name]["verified"] == "ok"
    assert docs["big"]["product"] == docs["residue"]["product"]


def test_run_inconsistent_reports_no_solution(tmp_path, capsys):
    inst = str(tmp_path / "bad.json")
    assert main(["gen", "--task", "solve", "--m", "8", "--n", "4",
                 "--alpha", "2", "--rhs", "inconsistent", "--seed", "6",
                 "--out", inst]) == EXIT_OK
    code, doc = run_json(capsys, "run", "--instance", inst, "--verify")
    assert doc["tag"] == "no_solution"
    assert doc["verified"] == "ok"
    assert code == EXIT_OK  # an honest negative answer is not a failure
    assert "x" not in doc


def test_run_frozen_cauchy_product(tmp_path, capsys):
    # 2x2 Cauchy-type matrix over F_7: row points {2, 3}, column points
    # {0, 1}, entries 1/(x_i - y_j); multiplied by I it returns itself.
    inst = {
        "prime": "7",
        "seed": "0",
        "task": "mul",
        "G": [["1"], ["1"]],
        "H": [["1"], ["1"]],
        "operator": {
            "kind": "sylvester",
            "P": {"flavor": "geometric", "polys": [["5", "1"], ["4", "1"]]},
            "Q": {"flavor": "general", "polys": [["0", "1"], ["6", "1"]]},
            "transpose_P": False,
            "transpose_Q": True,
        },
        "B": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "cauchy.json"
    path.write_text(json.dumps(inst))
    code, doc = run_json(capsys, "run", "--instance", str(path), "--verify")
    assert code == EXIT_OK
    assert doc["verified"] == "ok"
    assert doc["product"] == [["4", "1"], ["5", "4"]]


def test_run_frozen_identity_solve(tmp_path, capsys):
    # A = I_2 under the Sylvester operator for (x^2-2, x^2-3): its
    # displacement is M_P - M_Q^t, split into G = I, H as below.
    p = DEFAULT_PRIME
    inst = {
        "prime": str(p),
        "seed": "1",
        "task": "solve",
        "G": [["1", "0"], ["0", "1"]],
        "H": [["0", str(p - 2)], ["1", "0"]],
        "operator": {
            "kind": "sylvester",
            "P": {"flavor": "single_power", "polys": [[str(p - 2), "0", "1"]]},
            "Q": {"flavor": "single_power", "polys": [[str(p - 3), "0", "1"]]},
            "transpose_P": False,
            "transpose_Q": True,
        },
        "b": ["1", "0"],
    }
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(inst))
    code, doc = run_json(capsys, "run", "--instance", str(path), "--verify")
    assert code == EXIT_OK
    assert doc["tag"] == "ok"
    assert doc["verified"] == "ok"
    assert doc["x"] == ["1", "0"]


def test_run_singular_instance(tmp_path, capsys):
    # rank-2 matrix A[i,j] = 1 + 2i + 3j: inversion must answer "singular"
    f = get_field(DEFAULT_PRIME)
    m = 4
    A = f.arr([[1 + 2 * i + 3 * j for j in range(m)] for i in range(m)])
    D = f.zeros((m, m))
    D[1:] = A[:-1]
    D = (D - np.roll(A, 1, axis=1)) % f.p
    B, C = _column_decompose(f, D)
    gen = Generator(B, f.arr(C.T), hankel_operator(f, m, m))
    inst = InstanceFile(f.p, 0, "inv", gen)
    path = tmp_path / "singular.json"
    path.write_text(inst.to_json())
    code, doc = run_json(capsys, "run", "--instance", str(path), "--verify")
    assert code == EXIT_OK
    assert doc["tag"] == "singular"
    assert doc["verified"] == "ok"
    assert "inverse_generator" not in doc


def test_run_failure_tag_exits_3(tmp_path, capsys, monkeypatch):
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "--task", "inv", "--m", "6", "--seed", "5",
                 "--out", inst]) == EXIT_OK
    monkeypatch.setattr(cli, "inv_generator",
                        lambda gen, rng_seed=0: InvResult(FAILURE))
    code, doc = run_json(capsys, "run", "--instance", inst)
    assert code == EXIT_FAILURE
    assert doc["tag"] == "failure"

    assert main(["gen", "--task", "solve", "--m", "6", "--seed", "5",
                 "--out", inst]) == EXIT_OK
    monkeypatch.setattr(cli, "solve_generator",
                        lambda gen, b, rng_seed=0: SolveResult(FAILURE))
    code, doc = run_json(capsys, "run", "--instance", inst)
    assert code == EXIT_FAILURE


def test_run_verify_mismatch_exits_1(tmp_path, capsys, monkeypatch):
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "--task", "solve", "--m", "6", "--alpha", "2",
                 "--seed", "7", "--out", inst]) == EXIT_OK
    parsed = InstanceFile.from_json(open(inst).read())
    wrong = (parsed.generator.field.arr(parsed.b) + 1) % parsed.generator.field.p

    def bogus_solve(gen, b, rng_seed=0):
        return SolveResult("ok", x=gen.field.zeros(gen.n))

    monkeypatch.setattr(cli, "solve_generator", bogus_solve)
    code, doc = run_json(capsys, "run", "--instance", inst, "--verify")
    assert doc["verified"] == "mismatch"
    assert code == cli.EXIT_VERIFY


def test_run_bad_inputs(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--instance", str(tmp_path / "nope.json"))
    assert code == EXIT_BAD_INPUT

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run_cli(capsys, "run", "--instance", str(garbled))[0] == EXIT_BAD_INPUT

    # family flavor tag contradicting the polynomials
    inst = {
        "prime": "7", "seed": "0", "task": "inv",
        "G": [["1"], ["1"]], "H": [["1"], ["1"]],
        "operator": {
            "kind": "sylvester",
            "P": {"flavor": "geometric", "polys": [["5", "0", "1"]]},
            "Q": {"flavor": "general", "polys": [["0", "1"], ["6", "1"]]},
            "transpose_P": False, "transpose_Q": True,
        },
    }
    tagged = tmp_path / "tagged.json"
    tagged.write_text(json.dumps(inst))
    code, _, err = run_cli(capsys, "run", "--instance", str(tagged))
    assert code == EXIT_BAD_INPUT and "tagged" in err

    # mul without a B block
    missing = dict(inst)
    missing["operator"] = dict(inst["operator"])
    missing["operator"]["P"] = {"flavor": "single_power", "polys": [["5", "0", "1"]]}
    missing_path = tmp_path / "missing.json"
    missing_path.write_text(json.dumps(missing))
    code, _, err = run_cli(capsys, "run", "--instance", str(missing_path),
                           "--task", "mul")
    assert code == EXIT_BAD_INPUT and "B" in err


def test_run_human_readable_line(tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "--task", "mul", "--m", "5", "--seed", "8",
                 "--out", inst]) == EXIT_OK
    code, out, _ = run_cli(capsys, "run", "--instance", inst, "--verify")
    assert code == EXIT_OK
    assert out.strip() == "mul: tag=ok verified=ok"


# ---------------------------------------------------------------------------
# pade


def _pade_instance_doc(moduli, residues, bounds, prime=DEFAULT_PRIME, seed=0):
    return {
        "task": "pade",
        "prime": str(prime),
        "seed": str(seed),
        "moduli": moduli,
        "residues": residues,
        "bounds": [str(b) for b in bounds],
    }


def test_pade_frozen_power_series_example(tmp_path, capsys):
    # One modulus x^4 with residues (1/(1-x) mod x^4, -1): the solution
    # space is spanned by (1-x, 1), so any output is a scalar multiple.
    p = DEFAULT_PRIME
    doc = _pade_instance_doc(
        moduli=[["0", "0", "0", "0", "1"]],
        residues=[[["1", "1", "1", "1"], [str(p - 1)]]],
        bounds=[2, 3],
    )
    path = tmp_path / "pade.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "pade", "--instance", str(path), "--seed", "5")
    assert code == EXIT_OK
    assert out["tag"] == "ok"
    assert out["generator_length"] == 2
    f1 = [int(x) for x in out["f"][0]]
    f2 = [int(x) for x in out["f"][1]]
    c = f2[0]
    assert c != 0
    assert f1 == [c, p - c]
    assert all(x == 0 for x in f2[1:])


def test_pade_output_satisfies_residue_identity(tmp_path, capsys):
    inst_path = str(tmp_path / "planted.json")
    code = main(["pade", "--plant", "--d", "2", "--alpha", "3",
                 "--total-degree", "10", "--seed", "11", "--out", inst_path])
    assert code == EXIT_OK
    doc = json.loads(open(inst_path).read())
    code, out = run_json(capsys, "pade", "--instance", inst_path)
    assert code == EXIT_OK
    assert out["tag"] == "ok"
    f = get_field(int(doc["prime"]))
    parts = [f.arr([int(x) for x in fj]) for fj in out["f"]]
    bounds = [int(b) for b in doc["bounds"]]
    assert any(np.any(part) for part in parts)
    for part, bound in zip(parts, bounds):
        assert len(part) <= bound
    for i, P in enumerate(doc["moduli"]):
        P = f.arr([int(x) for x in P])
        acc = f.zeros(0)
        for j, part in enumerate(parts):
            R = f.arr([int(x) for x in doc["residues"][i][j]])
            acc = poly_add(f, acc, poly_mul(f, part, R))
        assert is_zero(trim(f, poly_mod(f, acc, P)))


def test_pade_two_point_instance(tmp_path, capsys):
    # classical two-point setup: moduli (x-1)^2 and (x+1)^2 prescribed
    # explicitly rather than drawn
    f = get_field(DEFAULT_PRIME)
    inst = cli.plant_pade(
        f, [3, 2], moduli=[[1, f.p - 2, 1], [1, 2, 1]], seed=21)
    path = tmp_path / "twopoint.json"
    path.write_text(inst.to_json())
    code, out = run_json(capsys, "pade", "--instance", str(path))
    assert code == EXIT_OK
    assert out["tag"] == "ok"
    parts = [f.arr([int(x) for x in fj]) for fj in out["f"]]
    doc = json.loads(inst.to_json())
    for i, P in enumerate(doc["moduli"]):
        P = f.arr([int(x) for x in P])
        acc = f.zeros(0)
        for j, part in enumerate(parts):
            R = f.arr([int(x) for x in doc["residues"][i][j]])
            acc = poly_add(f, acc, poly_mul(f, part, R))
        assert is_zero(trim(f, poly_mod(f, acc, P)))


def _approximation_matrix(f, fam, residues, bounds):
    """Column (j, t) of the Padé system: x^t·R_{i,j} mod P_i, block by block,
    by schoolbook arithmetic."""
    cols = []
    for j, n in enumerate(bounds):
        for t in range(n):
            xt = f.zeros(t + 1)
            xt[t] = 1
            col = f.zeros(fam.total_degree)
            for i, (s, P) in enumerate(zip(fam.offsets, fam.polys)):
                r = poly_mod(f, poly_mul(f, xt, trim(f, f.arr(residues[i][j]))), P)
                col[s: s + len(r)] = r
            cols.append(col)
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, BENCH_PRIME])
@pytest.mark.parametrize("degrees", [[3, 1, 2], [1] * 5, [6]])
def test_pade_generator_reconstructs_the_approximation_matrix(prime, degrees):
    """The generator's displacement, solved densely, is the approximation
    matrix, for φ = 0 and a random φ, with residues longer than their
    block's degree (and empty ones) among the inputs."""
    f = get_field(prime)
    rng = np.random.default_rng(len(degrees))
    fam = None
    while fam is None:
        fam = cli._draw_monic(f, rng, degrees)
    bounds = [3, 2, 2]
    # per block: a residue past its degree, an empty one in the first block,
    # and one of random length
    lengths = [[k + 3, 1 if i else 0, int(rng.integers(1, k + 5))] for i, k in enumerate(degrees)]
    residues = [[f.arr(rng.integers(0, f.p, n, dtype=np.uint64)) for n in row] for row in lengths]
    want = _approximation_matrix(f, fam, residues, bounds)
    for phi in (0, int(rng.integers(1, f.p, dtype=np.uint64))):
        gen = cli.pade_generator(fam, residues, bounds, phi)
        assert gen.alpha == len(bounds)
        A = oracle.dense_solve_displacement(gen.operator, f.mat_mul(gen.G, gen.H.T))
        assert np.array_equal(A, want), phi


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, BENCH_PRIME])
def test_pade_residue_table_refuses_a_float_that_is_no_integer(prime):
    """The residue table is converted in one step, which still refuses a
    non-integral float residue and reads an integral one as its integer."""
    f = get_field(prime)
    inst = cli.plant_pade(f, [3, 3], block_degrees=[2, 2], seed=3)
    fam = family_build(f, inst.moduli)
    table = [[[int(c) for c in R] for R in row] for row in inst.residues]
    for bad in (1.5, float("nan")):
        table[1][1] = [3, bad]
        with pytest.raises(ValueError):
            cli.pade_solve(f, inst.moduli, table, inst.bounds)
        with pytest.raises(ValueError):
            cli.pade_generator(fam, table, inst.bounds, 0)
    table[1][1] = [3, 2.0]
    floats = cli.pade_generator(fam, table, inst.bounds, 5)
    table[1][1] = [3, 2]
    ints = cli.pade_generator(fam, table, inst.bounds, 5)
    assert np.array_equal(floats.G, ints.G) and np.array_equal(floats.H, ints.H)


def test_pade_solve_rejects_a_perturbed_solution(monkeypatch):
    """The residue check catches a solver answer with one coefficient off:
    every attempt is rejected and the solve reports failure."""
    f = get_field(DEFAULT_PRIME)
    inst = cli.plant_pade(f, [4, 3, 3], block_degrees=[3, 2, 4], seed=7)
    solve = cli.solve_generator
    assert cli.pade_solve(f, inst.moduli, inst.residues, inst.bounds, seed=1)["tag"] == "ok"

    def perturbed(gen, b, rng_seed):
        res = solve(gen, b, rng_seed=rng_seed)
        if res.x is None:
            return res
        x = res.x.copy()
        x[1] = (x[1] + 1) % f.p
        return SolveResult(res.status, x)

    monkeypatch.setattr(cli, "solve_generator", perturbed)
    out = cli.pade_solve(f, inst.moduli, inst.residues, inst.bounds, seed=1)
    assert out["tag"] == FAILURE


def test_pade_plant_is_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    argv = ["pade", "--plant", "--d", "1", "--alpha", "2",
            "--total-degree", "6", "--seed", "3"]
    assert main(argv + ["--out", a]) == EXIT_OK
    assert main(argv + ["--out", b]) == EXIT_OK
    assert open(a, "rb").read() == open(b, "rb").read()


def test_pade_plant_without_seed_records_the_seed_it_used(tmp_path, capsys):
    first = str(tmp_path / "first.json")
    again = str(tmp_path / "again.json")
    argv = ["pade", "--plant", "--d", "2", "--alpha", "2", "--total-degree", "6"]
    assert main(argv + ["--out", first]) == EXIT_OK
    seed = json.loads(open(first).read())["seed"]
    assert int(seed) >= 0
    assert main(argv + ["--seed", seed, "--out", again]) == EXIT_OK
    assert open(first, "rb").read() == open(again, "rb").read()
    code, out = run_json(capsys, "pade", "--instance", first)
    assert code == EXIT_OK
    assert out["tag"] == "ok"


def test_pade_no_nonzero_solution(tmp_path, capsys):
    # f*1 = 0 mod x^2 with deg f < 2 forces f = 0: the honest answer is
    # "no solution", reported with a success exit code
    doc = _pade_instance_doc(
        moduli=[["0", "0", "1"]], residues=[[["1"]]], bounds=[2])
    path = tmp_path / "none.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "pade", "--instance", str(path))
    assert code == EXIT_OK
    assert out["tag"] == "no_solution"


@pytest.mark.parametrize(
    "moduli,residues,bounds",
    [
        ([["0", "0", "1"]], [[["1"]]], [0]),               # bound < 1
        ([["0", "0", "1"]], [[["1"], ["1"]]], [1]),        # table not d x alpha
        ([["0", "0", "0", "0", "1"]], [[["1"], ["1"]]], [1, 2]),  # tall system
    ],
)
def test_pade_rejects_bad_profiles(tmp_path, capsys, moduli, residues, bounds):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_pade_instance_doc(moduli, residues, bounds)))
    code, _, err = run_cli(capsys, "pade", "--instance", str(path))
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:")


def test_pade_requires_instance_or_plant(capsys):
    assert run_cli(capsys, "pade")[0] == EXIT_BAD_INPUT
