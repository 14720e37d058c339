"""Dense complex linear algebra shared by all modules.

Matrices are plain numpy complex128 arrays in a fixed computational basis;
tensor factors are ordered with the first factor's index most significant
(row-major kron convention).
"""

from __future__ import annotations

import numpy as np

# Default tolerance for algebraic identities such as Hermiticity.  Double
# precision leaves ample headroom for the matrix sizes handled here (up to
# 1296 dims).
ATOL_ALGEBRA = 1e-10


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


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def transpose_comp_basis(a) -> np.ndarray:
    """Entrywise transpose in the computational basis (no conjugation)."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"transpose expects a square matrix, got {m.shape}")
    return m.T.copy()


def max_abs(a) -> float:
    """Largest entrywise modulus."""
    return float(np.abs(np.asarray(a)).max())


def is_hermitian(a, tol: float = ATOL_ALGEBRA) -> bool:
    """Entrywise check of A against its conjugate transpose."""
    m = as_matrix(a)
    return m.shape[0] == m.shape[1] and max_abs(m - m.conj().T) <= tol


def eig_hermitian(a, tol: float = ATOL_ALGEBRA) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns real eigenvalues in ascending order and the matrix whose columns
    are the matching orthonormal eigenvectors.
    """
    m = as_matrix(a)
    if not is_hermitian(m, tol):
        raise ValueError("eig_hermitian requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs


def is_psd(a, tol: float) -> bool:
    """True iff the Hermitian input has minimum eigenvalue >= -tol."""
    m = as_matrix(a)
    if not is_hermitian(m, ATOL_ALGEBRA):
        raise ValueError("is_psd requires a Hermitian matrix")
    return float(np.linalg.eigvalsh(m)[0]) >= -tol


def trace_product(a, b) -> complex:
    """tr(A B) without forming the product matrix."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape[1] != mb.shape[0] or ma.shape[0] != mb.shape[1]:
        raise DimensionMismatchError(f"trace_product shapes {ma.shape} x {mb.shape}")
    return complex(np.einsum("ij,ji->", ma, mb))


def partial_trace(a, dims: list[int], keep: list[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in keep.

    dims lists the subsystem dimensions in tensor order; keep lists the
    (0-based) factor indices retained in the result, in their original order.
    """
    m = as_matrix(a)
    dims = [int(d) for d in dims]
    n = int(np.prod(dims))
    if m.shape != (n, n):
        raise DimensionMismatchError(f"matrix shape {m.shape} inconsistent with dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionMismatchError(f"keep indices {keep} out of range for {len(dims)} factors")
    if len(keep) == len(dims):
        return m.copy()

    k = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    if 2 * k > len(letters):
        raise ValueError("too many tensor factors")
    row = letters[:k]
    col = [letters[k + i] for i in range(k)]
    for i in range(k):
        if i not in keep:
            col[i] = row[i]  # repeated index contracts the traced factor
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    t = m.reshape(dims + dims)
    contracted = np.einsum(f"{row}{''.join(col)}->{out}", t)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return contracted.reshape(d_keep, d_keep)


def matrix_to_json(a) -> dict:
    """Serialize to {"rows", "cols", "data"} with data a row-major [re, im] list."""
    m = as_matrix(a)
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of matrix_to_json."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols = {rows * cols}")
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    if not np.isfinite(flat).all():
        raise ValueError("matrix entries must be finite")
    return flat.reshape(rows, cols)
