"""Dense complex linear algebra shared by all modules.

Matrices are plain numpy complex128 arrays in a fixed computational basis;
tensor factors are ordered with the first factor's index most significant
(row-major kron convention).
"""

from __future__ import annotations

import math

import numpy as np

# The tolerance ladder.  Every absolute-error check in the package compares
# against one of these rungs in a NaN-safe form, `not (err <= TOL)`, so a NaN
# error fails the check.  Double precision leaves ample headroom for the
# matrix sizes handled here (up to 4096 dims: a d^2 x d^2 operator under the
# CLI's 256 MiB array cap).
ATOL = 1e-10  # one identity: Hermiticity, unitarity, unit trace, PSD, support, probability range
SUM_ATOL = 1e-9  # sums of elements: POVM/PPOVM normalisation, success vs the (d+1)/(2d) bound
STRUCT_ATOL = 1e-6  # structural matches: optimal-form residuals, gap to a multiple of the identity


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes or subsystem dimensions."""


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2D complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


def tensor(a, b) -> np.ndarray:
    """Kronecker product A (x) B, A's indices major; equal to np.kron bit for bit."""
    return kron_stack(as_matrix(a)[None], as_matrix(b)[None])[0]


def kron_stack(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-slice Kronecker product U_k (x) V_k of two stacks of k matrices.

    Each slice equals np.kron(u[k], v[k]) bit for bit.
    """
    k, a, b = u.shape
    c, e = v.shape[1:]
    return (u[:, :, None, :, None] * v[:, None, :, None, :]).reshape(k, a * c, b * e)


def _conjugate_stack(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """K M K^dagger, broadcast over the leading axes, e.g. a state sent through the boxes."""
    return k @ m @ k.conj().swapaxes(-1, -2)


def max_abs(a) -> float:
    """Largest entrywise modulus."""
    return float(np.abs(np.asarray(a)).max())


def is_hermitian(a) -> bool:
    """Entrywise check of A against its conjugate transpose, within ATOL."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        return False
    diff = m.conj().T  # conj() copies; the difference overwrites that copy
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
        diff -= m
    return max_abs(diff) <= ATOL


def is_psd(a) -> bool:
    """True iff the Hermitian input A is PSD within ATOL: A + ATOL*I has a Cholesky factor.

    That is lambda_min(A) > -ATOL up to rounding of order n*eps*||A|| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed. 2002, ch. 10).
    One shifted copy of A is factored; the peak is that copy plus its factor.
    """
    m = as_matrix(a)
    if not is_hermitian(m):  # so is every input with an entry that is not finite: it meets NaN or inf - inf
        raise ValueError("is_psd requires a Hermitian matrix")
    n = m.shape[0]
    shifted = m.copy()
    shifted.ravel()[:: n + 1] += ATOL
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return math.isfinite(factor.trace().real)  # a LAPACK may return a NaN factor where it should raise


def matrix_to_json(a) -> dict:
    """Serialize to {"rows", "cols", "data"} with data a row-major [re, im] list."""
    m = as_matrix(a)
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of matrix_to_json; rows and cols must be JSON integers."""
    rows, cols = obj["rows"], obj["cols"]
    if type(rows) is not int or type(cols) is not int:  # no float truncation, no bool
        raise ValueError(f"rows and cols must be integers, got {rows!r} and {cols!r}")
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols = {rows * cols}")
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    if any(type(x) is bool for pair in data for x in pair):  # complex() reads true/false as 1/0
        raise ValueError("matrix entries must be numbers, not booleans")
    if not np.isfinite(flat).all():
        raise ValueError("matrix entries must be finite")
    return flat.reshape(rows, cols)
