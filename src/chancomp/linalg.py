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
    """Kronecker product of the factors, first factor's indices major; equal to np.kron bit for bit."""
    if not factors:
        raise ValueError("tensor needs at least one factor")
    out = as_matrix(factors[0])
    for f in factors[1:]:
        out = kron_stack(out[None], as_matrix(f)[None])[0]
    return out


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


# Order of the diagonal blocks in _cholesky_in_place; an order up to it is one
# block.  np.linalg.cholesky copies its input to a work buffer and returns a
# new factor, so on the whole matrix it would hold three n x n arrays; by
# blocks it holds O(n b).
_CHOLESKY_BLOCK = 256


def _cholesky_in_place(a: np.ndarray) -> np.ndarray:
    """Overwrite a's lower triangle with its Cholesky factor, return a; LinAlgError if not positive definite.

    Right-looking block Cholesky (Golub & Van Loan, Matrix Computations, 4th
    ed., sec. 4.2) that reads only the lower triangle.
    """
    n, b = a.shape[0], _CHOLESKY_BLOCK
    for k in range(0, n, b):
        e = k + b
        lkk = np.linalg.cholesky(a[k:e, k:e])
        a[k:e, k:e] = lkk
        if e >= n:
            break
        panel = a[e:, k:e]
        panel[...] = np.linalg.solve(lkk.conj(), panel.T).T  # L_ik = A_ik L_kk^-dagger
        for j in range(e, n, b):
            a[j:, j:j + b] -= panel[j - e:] @ panel[j - e:j - e + b].conj().T
    return a


def is_psd(a) -> bool:
    """True iff the Hermitian input A is PSD within ATOL: A + ATOL*I has a Cholesky factor.

    That is lambda_min(A) > -ATOL up to rounding of order n*eps*||A|| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed. 2002, ch. 10).
    The factor overwrites the one shifted copy of A, block by block.
    """
    m = as_matrix(a)
    if not is_hermitian(m):  # so is every input with an entry that is not finite: it meets NaN or inf - inf
        raise ValueError("is_psd requires a Hermitian matrix")
    n = m.shape[0]
    shifted = m.copy()
    shifted.ravel()[:: n + 1] += ATOL
    try:
        factor = _cholesky_in_place(shifted)
    except np.linalg.LinAlgError:
        return False
    return math.isfinite(factor.trace().real)  # a LAPACK may return a NaN factor where it should raise


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
    if any(type(x) is bool for pair in data for x in pair):  # complex() reads true/false as 1/0
        raise ValueError("matrix entries must be numbers, not booleans")
    if not np.isfinite(flat).all():
        raise ValueError("matrix entries must be finite")
    return flat.reshape(rows, cols)
