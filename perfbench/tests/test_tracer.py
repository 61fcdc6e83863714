import sys
import textwrap

import pytest

from tracer import Tracer, self_times


def test_self_time_without_children_is_the_duration():
    assert self_times([(0, 10, -1)]) == [10]


def test_self_time_subtracts_each_child_once():
    spans = [(0, 100, -1), (10, 30, 0), (40, 45, 0), (50, 90, 0), (60, 70, 3)]
    assert self_times(spans) == [100 - 20 - 5 - 40, 20, 5, 30, 10]


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [(0, 100, -1), (10, 50, 0), (30, 70, 0), (70, 80, 0)]
    assert self_times(spans)[0] == 100 - 70


def test_self_time_clips_children_to_the_parent():
    spans = [(10, 20, -1), (5, 15, 0), (18, 40, 0), (30, 35, 0)]
    assert self_times(spans)[0] == 10 - 5 - 2


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "low.py").write_text(textwrap.dedent("""
        import time

        def leaf(x):
            time.sleep(0.002)
            return x + 1
    """))
    (pkg / "high.py").write_text(textwrap.dedent("""
        from .low import leaf

        def outer(x):
            return leaf(leaf(x))
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.high
    import fakepkg.low
    yield fakepkg
    for name in [m for m in sys.modules if m.split(".")[0] == "fakepkg"]:
        del sys.modules[name]


def test_tracer_patches_every_module_binding(fakepkg):
    leaf = fakepkg.low.leaf
    targets = {"low.leaf": ("fakepkg.low", "leaf", None, True),
               "high.outer": ("fakepkg.high", "outer", None, True)}
    tracer = Tracer(targets, package="fakepkg")
    with tracer:
        # the copy imported into fakepkg.high is wrapped too
        assert fakepkg.high.leaf is not leaf and fakepkg.high.leaf is fakepkg.low.leaf
        tracer.op_id = 7
        assert fakepkg.high.outer(1) == 3
    assert fakepkg.high.leaf is leaf and fakepkg.low.leaf is leaf

    rows = tracer.summary()
    assert rows["low.leaf"]["calls"] == 2 and rows["high.outer"]["calls"] == 1
    names = [tracer.names[s[0]] for s in tracer.spans]
    outer = names.index("high.outer")
    assert [s[3] for s, n in zip(tracer.spans, names) if n == "low.leaf"] == [outer, outer]
    assert {s[4] for s in tracer.spans} == {7}
    span = tracer.spans[outer]
    children = sum(s[2] - s[1] for s in tracer.spans if s[3] == outer)
    assert rows["high.outer"]["self_s"] == pytest.approx((span[2] - span[1] - children) * 1e-9)


def test_tracer_counts_without_spans(fakepkg):
    calls = lambda args, kwargs, result: (("calls", 1), ("sum", result))  # noqa: E731
    tracer = Tracer({"low.leaf": ("fakepkg.low", "leaf", calls, False)}, package="fakepkg")
    with tracer:
        fakepkg.high.outer(1)
    assert tracer.spans == []
    assert dict(tracer.counts) == {"low.leaf.calls": 2, "low.leaf.sum": 5}


def test_tracer_reaches_imported_library_bindings():
    import numpy as np

    from dispmat import poly, structmul
    from workloads import Clock, ToeplitzMul

    wl = ToeplitzMul()
    gen = wl.context(np.random.default_rng(0), Clock())
    red_family = poly.red_family
    with Tracer() as tracer:
        assert structmul.red_family is poly.red_family is not red_family
        structmul.struct_mul(gen, np.ones((gen.n, 1), dtype=np.int64))
    assert structmul.red_family is red_family
    rows = tracer.summary()
    assert rows["structmul.struct_mul"]["calls"] == 1
    assert rows["poly.red_family"]["calls"] >= 1
    assert rows["field.ntt"]["calls"] >= 1 and tracer.counts["field.ntt.butterflies"] > 0
