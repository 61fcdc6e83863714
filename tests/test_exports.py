"""Every name a module lists in ``__all__`` exists, so that a star import of
the public modules never fails on a name left behind by a removal."""

import importlib

import pytest

MODULES = ("dispmat", "dispmat.field", "dispmat.poly", "dispmat.polymat", "dispmat.cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
