"""Dense exact linear algebra over F_p, used as ground truth.

Everything here is deliberately slow and simple: row-by-row Gaussian
elimination on object-dtype arrays, explicitly assembled Kronecker systems,
dense companion matrices built straight from the family coefficients.  The
structured modules are tested against this one, so it must stay obviously
correct and share no computational code with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import PrimeField
from .operators import DisplacementOperator, SYLVESTER, SingularOperator, op_invertible
from .poly import DimensionMismatch, degree

GENERIC_SOLVE_LIMIT = 1 << 16


class Singular(ValueError):
    """Matrix not invertible."""


class SizeLimit(ValueError):
    """Instance too large for the brute-force path."""


@dataclass
class DenseMatrix:
    """Row-major dense matrix exchange format (JSON boundary)."""

    rows: int
    cols: int
    entries: list  # row-major field elements

    def __post_init__(self):
        if self.rows * self.cols != len(self.entries):
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}")

    def to_array(self, f: PrimeField) -> np.ndarray:
        return f.arr(np.asarray(self.entries, dtype=object).reshape(self.rows, self.cols))

    @staticmethod
    def from_array(a: np.ndarray) -> "DenseMatrix":
        r, c = a.shape
        return DenseMatrix(r, c, [int(x) for x in a.reshape(-1)])


def _obj(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=object)


def dense_mul(f: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    return f.arr((_obj(a) @ _obj(b)) % f.p)


def _row_reduce(f: PrimeField, M: np.ndarray):
    """Reduced row echelon form with first-nonzero pivot scan.

    Returns (R, pivot_columns); R is a fresh object array.
    """
    R = _obj(M).copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        src = next((i for i in range(r, rows) if int(R[i, c]) % f.p != 0), None)
        if src is None:
            continue
        if src != r:
            R[[r, src]] = R[[src, r]]
        R[r] = (R[r] * f.inv(int(R[r, c]))) % f.p
        for i in range(rows):
            if i != r and int(R[i, c]) % f.p != 0:
                R[i] = (R[i] - R[i, c] * R[r]) % f.p
        pivots.append(c)
        r += 1
    return R, pivots


def dense_rank(f: PrimeField, a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    _, pivots = _row_reduce(f, a)
    return len(pivots)


def dense_inv(f: PrimeField, a: np.ndarray) -> np.ndarray:
    m, n = a.shape
    if m != n:
        raise DimensionMismatch("inverse of a non-square matrix")
    aug = np.concatenate([_obj(a), np.eye(m, dtype=object)], axis=1)
    R, pivots = _row_reduce(f, aug)
    rank = sum(1 for c in pivots if c < m)
    if rank < m:
        raise Singular(f"rank {rank} < {m}")
    return f.arr(R[:, m:])


def dense_solve(f: PrimeField, a: np.ndarray, b: np.ndarray):
    """Solve a·x = b.  Returns (particular x, nullspace basis list) or None
    when the system is inconsistent."""
    m, n = a.shape
    if len(b) != m:
        raise DimensionMismatch("right-hand side length mismatch")
    aug = np.concatenate([_obj(a), _obj(b).reshape(m, 1)], axis=1)
    R, pivots = _row_reduce(f, aug)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=object)
    for r, c in enumerate(pivots):
        x[c] = R[r, n]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(n, dtype=object)
        v[fc] = 1
        for r, c in enumerate(pivots):
            v[c] = (-int(R[r, fc])) % f.p
        basis.append(f.arr(v))
    return f.arr(x), basis


# ---------------------------------------------------------------------------
# displacement operators, densely


def _dense_companion(f: PrimeField, P: np.ndarray) -> np.ndarray:
    k = degree(P)
    M = np.zeros((k, k), dtype=object)
    for j in range(k - 1):
        M[j + 1, j] = 1
    for i in range(k):
        M[i, k - 1] = (-int(P[i])) % f.p
    return M


def dense_block_companion(f: PrimeField, fam) -> np.ndarray:
    M = np.zeros((fam.total_degree, fam.total_degree), dtype=object)
    for s, k, P in zip(fam.offsets, fam.degrees, fam.polys):
        M[s: s + k, s: s + k] = _dense_companion(f, P)
    return M


def _operator_sides(op: DisplacementOperator):
    f = op.field
    M = dense_block_companion(f, op.fam_p)
    N = dense_block_companion(f, op.fam_q)
    if op.transpose_p:
        M = M.T
    if op.transpose_q:
        N = N.T
    return M, N


def dense_apply_operator(op: DisplacementOperator, a: np.ndarray) -> np.ndarray:
    f = op.field
    if a.shape != (op.m, op.n):
        raise DimensionMismatch(f"matrix shape {a.shape} != operator format {(op.m, op.n)}")
    M, N = _operator_sides(op)
    A = _obj(a)
    if op.kind == SYLVESTER:
        return f.arr((M @ A - A @ N) % f.p)
    return f.arr((A - M @ A @ N) % f.p)


def _is_hankel_basic(op: DisplacementOperator) -> bool:
    return (op.kind == SYLVESTER and op.is_basic
            and op.fam_p.flavor == "single_power" and op.fam_p.flavor_params[0] == 0
            and op.fam_q.flavor == "single_power" and op.fam_q.flavor_params[0] == 1)


def _solve_hankel_recurrence(f: PrimeField, rhs: np.ndarray) -> np.ndarray:
    """Unique A with Z_{m,0}·A − A·Z_{n,1}ᵗ = rhs, row by row.

    Entrywise the relation reads rhs[i,j] = a[i−1,j] − a[i,j⊖1] with a cyclic
    right shift in j, so each row follows from the one above it.
    """
    m, n = rhs.shape
    A = np.zeros((m, n), dtype=object)
    prev = np.zeros(n, dtype=object)
    for i in range(m):
        # a[i, j⊖1] = prev[j] − rhs[i, j]  =>  a[i, :] = roll(prev − rhs_i, −1)
        A[i] = np.roll((prev - _obj(rhs[i])) % f.p, -1)
        prev = A[i]
    return f.arr(A)


def dense_solve_displacement(op: DisplacementOperator, rhs: np.ndarray) -> np.ndarray:
    """The unique A with L(A) = rhs, by brute force.

    Generic path: solve the vectorized (m·n)×(m·n) Kronecker system, capped
    at GENERIC_SOLVE_LIMIT unknowns.  The Toeplitz/Hankel-type operator gets
    an entrywise-recurrence path without the size cap.
    """
    f = op.field
    m, n = op.m, op.n
    if rhs.shape != (m, n):
        raise DimensionMismatch(f"rhs shape {rhs.shape} != operator format {(m, n)}")
    if not op_invertible(op):
        raise SingularOperator("displacement operator is singular")
    if _is_hankel_basic(op):
        return _solve_hankel_recurrence(f, rhs)
    if m * n > GENERIC_SOLVE_LIMIT:
        raise SizeLimit(f"vectorized system has {m * n} unknowns > {GENERIC_SOLVE_LIMIT}")
    M, N = _operator_sides(op)
    eye_m = np.eye(m, dtype=object)
    eye_n = np.eye(n, dtype=object)
    if op.kind == SYLVESTER:
        K = (np.kron(eye_n, M) - np.kron(N.T, eye_m)) % f.p
    else:
        K = (np.kron(eye_n, eye_m) - np.kron(N.T, M)) % f.p
    vec = _obj(rhs).T.reshape(-1)  # column-major vectorization
    sol = dense_solve(f, K, vec)
    if sol is None or sol[1]:
        raise ArithmeticError("an invertible operator must give a unique solution")
    return f.arr(sol[0].reshape(n, m).T)
