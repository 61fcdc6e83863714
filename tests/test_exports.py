"""Every name a module lists in ``__all__`` exists, so that a star import of
the public modules never fails on a name left behind by a removal; and the
field's exact product kernels and their limb layout stay inside field.py."""

import importlib
import pathlib
import re

import pytest

from dispmat.field import PrimeField

MODULES = ("dispmat", "dispmat.field", "dispmat.poly", "dispmat.polymat", "dispmat.cli")
SRC = pathlib.Path(importlib.import_module("dispmat").__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_only_field_names_the_private_product_kernels():
    """No module but field.py names a private product method of PrimeField
    (the limb stack, the exact float64 product, the conv and ntt kernels and
    their reductions): other modules multiply through mat_mul, conv, ntt,
    points_operand and points_mat_mul."""
    private = sorted(name for name in vars(PrimeField)
                     if name.startswith(("_limb", "_conv", "_ntt", "_settle", "_reduce", "_dft")))
    assert {"_limb_stack", "_limb_mat_mul", "_conv_toeplitz", "_ntt_merged"} <= set(private)
    pattern = re.compile(r"\b(" + "|".join(private) + r")\b")
    found = [(path.name, m.group(1)) for path in sorted(SRC.glob("*.py")) if path.name != "field.py"
             for m in pattern.finditer(path.read_text(encoding="utf-8"))]
    assert not found, f"private field kernels named outside field.py: {found}"
