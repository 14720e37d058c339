"""Dense complex linear algebra shared by all modules.

Matrices are plain numpy complex128 arrays in a fixed computational basis;
tensor factors are ordered with the first factor's index most significant
(row-major kron convention).
"""

from __future__ import annotations

import numpy as np

# The tolerance ladder.  Every absolute-error check in the package compares
# against one of these rungs in a NaN-safe form, `not (err <= TOL)`, so a NaN
# error fails the check.  Double precision leaves ample headroom for the
# matrix sizes handled here (up to 1296 dims).
ATOL = 1e-10  # one identity: Hermiticity, unitarity, unit trace, PSD, support, probability range
SUM_ATOL = 1e-9  # sums of elements: POVM/PPOVM normalisation, success vs the (d+1)/(2d) bound
CHOI_TRACE_ATOL = 1e-8  # trace of a Choi operator, which grows with the dimension
STRUCT_ATOL = 1e-6  # structural matches: optimal-form residuals, gap to a multiple of the identity


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes or subsystem dimensions."""


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2D complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


def tensor(*factors) -> np.ndarray:
    """Kronecker product of the factors, first factor's indices major."""
    if not factors:
        raise ValueError("tensor needs at least one factor")
    out = as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, as_matrix(f))
    return out


def kron_stack(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-slice Kronecker product U_k (x) V_k of two stacks of k matrices.

    Each slice equals np.kron(u[k], v[k]) bit for bit.
    """
    k, a, b = u.shape
    c, e = v.shape[1:]
    return (u[:, :, None, :, None] * v[:, None, :, None, :]).reshape(k, a * c, b * e)


def _conjugate_stack(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """K_j M K_j^dagger for every slice K_j of a stack, e.g. a state sent through the boxes."""
    return k @ m @ k.conj().transpose(0, 2, 1)


def max_abs(a) -> float:
    """Largest entrywise modulus."""
    return float(np.abs(np.asarray(a)).max())


def is_hermitian(a) -> bool:
    """Entrywise check of A against its conjugate transpose, within ATOL."""
    m = as_matrix(a)
    return m.shape[0] == m.shape[1] and max_abs(m - m.conj().T) <= ATOL


def is_psd(a) -> bool:
    """True iff the Hermitian input has minimum eigenvalue >= -ATOL."""
    m = as_matrix(a)
    if not is_hermitian(m):
        raise ValueError("is_psd requires a Hermitian matrix")
    return float(np.linalg.eigvalsh(m)[0]) >= -ATOL


def trace_product(a, b) -> complex:
    """tr(A B) without forming the product matrix, as a numpy complex scalar."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape[1] != mb.shape[0] or ma.shape[0] != mb.shape[1]:
        raise DimensionMismatchError(f"trace_product shapes {ma.shape} x {mb.shape}")
    return np.einsum("ij,ji->", ma, mb)


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
    if not np.isfinite(flat).all():
        raise ValueError("matrix entries must be finite")
    return flat.reshape(rows, cols)
