"""The benchmark's declared metrics and workloads match what it reports,
and its checks reject wrong results."""

import json
import os

import numpy as np
import pytest

import run
import workloads
from worker import PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_declared_names_match_the_code():
    b = bench()
    names = [w["name"] for w in b["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == PER_LAYER


def test_freivalds_check_rejects_a_wrong_product():
    wl = workloads.ToeplitzMul()
    rng = np.random.default_rng(3)
    gen = workloads._toeplitz_generator(wl.f, rng, 16, 4)
    inst = workloads._Mul(gen, rng, 3)
    out, _ = wl.call(inst, 0)
    wl.check(inst, out)
    out = out.copy()
    out[5, 1] = (out[5, 1] + 1) % wl.f.p
    with pytest.raises(workloads.Mismatch):
        wl.check(inst, out)


def test_pade_check_rejects_a_wrong_solution():
    wl = workloads.PadeP62()
    inst = workloads._Pade(np.random.default_rng(4), wl.f.p, 3, 2, 3)
    out, failed = wl.call(inst, inst.seed)
    assert not failed
    wl.check(inst, out)
    bad = dict(out, f=[np.array(fj, dtype=object) for fj in out["f"]])
    bad["f"][0][0] = (int(bad["f"][0][0]) + 1) % wl.f.p
    with pytest.raises(workloads.Mismatch):
        wl.check(inst, bad)
    with pytest.raises(workloads.Mismatch):
        wl.check(inst, dict(out, f=[np.zeros(n, dtype=object) for n in inst.bounds]))


def test_only_library_construction_is_timed_as_set_up():
    rng = np.random.default_rng(5)
    solve = workloads.ToeplitzSolve()
    clock = workloads.Clock()
    solve.prepare(None, rng, 0, clock)
    assert clock.s > 0
    # a toeplitz-mul operation only draws a block: nothing to construct
    mul = workloads.ToeplitzMul()
    gen = workloads._toeplitz_generator(mul.f, rng, 16, 4)
    clock = workloads.Clock()
    mul.prepare(gen, rng, 0, clock)
    assert clock.s == 0
