"""Matrices of polynomials with a shared degree bound.

A polynomial matrix is a single array of shape (rows, cols, bound): entry
(i, j) is the ascending coefficient vector data[i, j, :]. Products evaluate
both operands at a geometric progression of points (roots of unity via the
field's batch NTT) and multiply pointwise when the required transform
length is supported, falling back to entrywise convolutions otherwise.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField

__all__ = ["pm_mul"]


def pm_mul(f: PrimeField, a: np.ndarray, b: np.ndarray,
           out_bound: int | None = None) -> np.ndarray:
    """Product of a (rows, k, bound_a) and b (k, cols, bound_b), with entries
    of degree < bound_a + bound_b - 1, optionally cut to out_bound
    coefficients."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape[1]} vs {b.shape[0]}")
    need = a.shape[2] + b.shape[2] - 1
    size = 1 << max(0, (need - 1).bit_length())
    if size <= f.ntt_capacity():
        out = _pm_mul_points(f, a, b, size, need)
    else:
        out = _pm_mul_entrywise(f, a, b, need)
    return out if out_bound is None else out[:, :, :out_bound]


def _pm_mul_points(f: PrimeField, a: np.ndarray, b: np.ndarray, size: int,
                   need: int) -> np.ndarray:
    pa = f.zeros(a.shape[:2] + (size,))
    pa[:, :, : a.shape[2]] = a
    pb = f.zeros(b.shape[:2] + (size,))
    pb[:, :, : b.shape[2]] = b
    va = f.ntt(pa)
    vb = f.ntt(pb)
    # one matrix product per evaluation point
    prod = f.mat_mul(va.transpose(2, 0, 1), vb.transpose(2, 0, 1))
    vals = prod.transpose(1, 2, 0)
    coeffs = f.ntt(np.ascontiguousarray(vals), invert=True)
    return coeffs[:, :, :need]


def _pm_mul_entrywise(f: PrimeField, a: np.ndarray, b: np.ndarray, need: int) -> np.ndarray:
    out = f.zeros((a.shape[0], b.shape[1], need))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = f.zeros(need)
            for k in range(a.shape[1]):
                c = f.conv(a[i, k], b[k, j])
                acc[: len(c)] = (acc[: len(c)] + c) % f.p
            out[i, j] = acc
    return out
