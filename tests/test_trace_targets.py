"""The benchmark's tracer names library functions by module and attribute
path (``perfbench/tracer.py``, ``TARGETS``).  A deletion or rename in the
library would leave a target that no longer resolves, and the traced
benchmark run would break without any library test failing, so every target
is resolved here."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_trace_target_resolves_to_a_library_callable(name):
    module, path, _, _ = TARGETS[name]
    assert module.split(".")[0] == "dispmat"
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj), f"{name}: {module}.{path} is not callable"
