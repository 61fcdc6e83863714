"""Matrices of polynomials with a shared degree bound.

A polynomial matrix is a single array of shape (rows, cols, bound): entry
(i, j) is the ascending coefficient vector data[i, j, :]. Products evaluate
both operands at a geometric progression of points (roots of unity via the
field's batch NTT) and take one matrix product per point.  A polynomial dot
product over an object-dtype field, and any product beyond the prime's
transform length, is instead one broadcast ``conv`` of all pairs at once,
summed over the inner index.  ``points_product`` is the per-point step
alone, for callers that keep their operands in evaluation form; its right
operand is first put in the form it takes (``points_operand``), which a
caller that reuses the operand keeps.  On int64 fields that is a float64
limb stack and the step is the field's exact BLAS product
(``PrimeField.points_mat_mul``); on object-dtype fields it is the residues
and one Python-int ``einsum``.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField
from .poly import frozen, padded

__all__ = ["pm_mul", "points_operand", "points_product"]


def pm_mul(f: PrimeField, a: np.ndarray, b: np.ndarray,
           out_bound: int | None = None) -> np.ndarray:
    """Product of a (rows, k, bound_a) and b (k, cols, bound_b), with entries
    of degree < bound_a + bound_b - 1, optionally cut to out_bound
    coefficients.

    A matrix product goes through transforms, which each entry of a and b
    takes once for all the pairs it meets.  A polynomial dot product
    (rows = cols = 1) on an object-dtype field shares no transform between
    its k pairs, and a product too long for the prime's transforms has none:
    both are one broadcast conv of every pair, summed over k."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape[1]} vs {b.shape[0]}")
    need = a.shape[2] + b.shape[2] - 1
    size = 1 << max(0, (need - 1).bit_length())
    dot = f.dtype is object and a.shape[0] * b.shape[1] == 1
    if size <= f.ntt_capacity() and not dot:
        out = _pm_mul_points(f, a, b, size, need)
    else:
        out = _pm_mul_conv(f, a, b)
    return out if out_bound is None else out[:, :, :out_bound]


def _pm_mul_conv(f: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a[i, k]·b[k, j] as one conv of the (rows, k, cols) pairs; the
    k residues of a sum stay below 2^63 on int64 fields for k < 2^31."""
    return np.sum(f.conv(a[:, :, None], b[None]), axis=1) % f.p


def _pm_mul_points(f: PrimeField, a: np.ndarray, b: np.ndarray, size: int,
                   need: int) -> np.ndarray:
    vb = points_operand(f, f.ntt(padded(f, b, size)))
    vals = points_product(f, f.ntt(padded(f, a, size)), vb)
    return f.ntt(vals, invert=True)[:, :, :need]


def points_operand(f: PrimeField, vb: np.ndarray) -> np.ndarray:
    """The (k, cols, points) residues vb as points_product's right operand,
    read-only: on int64 fields the float64 limb stack of its points-major
    form, shape (2, points, k, cols); on object-dtype fields a copy."""
    if f.dtype is object:
        return frozen(vb)
    return f._limb_stack(vb.transpose(2, 0, 1))


def points_product(f: PrimeField, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """One matrix product per evaluation point: sum_k va[i, k, s]·vb[k, j, s]
    mod p, for (rows, k, points) residues va and vb = points_operand(f, ·)
    of (k, cols, points) residues; returns (rows, cols, points) residues."""
    if f.dtype is object:
        return np.einsum("iks,kjs->ijs", va, vb) % f.p
    return f.points_mat_mul(va, vb)
