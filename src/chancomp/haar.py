"""Haar-random unitaries and Monte Carlo versions of the group averages.

Sampling uses the QR decomposition of a complex Ginibre matrix with the
R-diagonal phase correction, which is exactly Haar distributed.  All samplers
take an explicit numpy Generator.  Every Monte Carlo average draws its
unitaries through _haar_chunks, the one place that decides the chunk size
and the stream order.  The CLI's twirl check estimates one object, the
twirl's Choi operator, and reads the twirl of every operator off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatchError, _conjugate_stack, as_matrix, kron_stack
from .qobj import UnitaryOp, _pair_output_vec
from .symmetry import _identity_swap_sum, qudit_dim

# Draws per stacked numpy expression in the Monte Carlo averages.  A chunk
# holds a few (k, d^2, d^2) arrays, so larger chunks cost peak memory for
# little speed.
_CHUNK = 64


@dataclass(frozen=True)
class McEstimate:
    """Empirical mean with its standard error (elementwise for matrices)."""

    mean: np.ndarray | float
    n_samples: int
    std_error: np.ndarray | float

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not np.all(np.asarray(self.std_error) >= 0):
            raise ValueError("std_error must be nonnegative")


def haar_sample(d: int, rng: np.random.Generator) -> UnitaryOp:
    """Draw a Haar-random d x d unitary."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    x = rng.normal(size=(2, d, d))
    # Complex division by sqrt(2) multiplies by this reciprocal, so z has the
    # bits of (re + 1j * im) / sqrt(2); a real division by sqrt(2) does not.
    x *= 1 / math.sqrt(2)
    z = np.empty((d, d), dtype=complex)
    z.real, z.imag = x
    q, r = np.linalg.qr(z)
    diag = r.diagonal()
    q *= diag / abs(diag)
    return UnitaryOp(q)


def _haar_chunks(d: int, n: int, rng: np.random.Generator, copies: int = 1):
    """n draws of `copies` Haar unitaries, as (copies, k, d, d) chunks of k <= _CHUNK draws.

    One haar_sample call per unitary, a draw's copies in a row: the stream
    is used as by n * copies calls in turn.  Unpack as `(u,)` or `u, v`.
    """
    for count in range(0, n, _CHUNK):
        k = min(_CHUNK, n - count)
        draws = np.stack([haar_sample(d, rng).mat for _ in range(k * copies)])
        yield draws.reshape(k, copies, d, d).swapaxes(0, 1)


def _mc_mean(chunks) -> McEstimate:
    """Mean of the draws in an iterable of stacked chunks, with its standard error.

    Elementwise for matrices.  Each chunk gets a two-pass mean and squared
    deviation, so the variance does not cancel when the spread is small
    against |x|, and the chunks are combined as in Chan, Golub & LeVeque,
    Am. Stat. 37 (1983).  The standard error takes the n - 1 denominator, so
    at least two draws are needed.  This is the one Monte Carlo estimator
    behind every Haar average in the package.
    """
    count = 0  # draws taken before this chunk
    for x in chunks:
        x_mean = x.mean(axis=0)
        x_sq = (abs(x - x_mean) ** 2).sum(axis=0)
        if count == 0:
            mean, sq = x_mean, x_sq
        else:
            weight = len(x) / (count + len(x))
            delta = x_mean - mean
            mean = mean + delta * weight
            sq = sq + x_sq + abs(delta) ** 2 * (count * weight)
        count += len(x)
    if count < 2:
        raise ValueError(f"n must be >= 2 for a standard error, got {count}")
    return McEstimate(mean=mean, n_samples=count, std_error=np.sqrt(sq / (count - 1) / count))


def _square(x) -> np.ndarray:
    m = as_matrix(x)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected square matrix, got {m.shape}")
    return m


def average_channel_exact(x) -> np.ndarray:
    """Haar average of U X U^dagger: tr(X)/d times the identity."""
    m = _square(x)
    d = m.shape[0]
    return np.trace(m) / d * np.eye(d, dtype=complex)


def average_channel_mc(x, n: int, rng: np.random.Generator) -> McEstimate:
    """Monte Carlo estimate of the Haar average of U X U^dagger."""
    m = _square(x)
    return _mc_mean(_conjugate_stack(u, m) for (u,) in _haar_chunks(m.shape[0], n, rng))


def twirl_exact(y) -> np.ndarray:
    """Haar average of (U (x) U) Y (U (x) U)^dagger in closed form.

    The image is w+ P+ + w- P- with w+- = tr(Y P+-)/d+-; the expression is
    linear, so it applies to arbitrary (not only selfadjoint) operators.
    With P+- = (I +- S) / 2, tr(Y P+-) = (tr Y +- tr(Y S)) / 2 and the image
    is (w+ + w-)/2 I + (w+ - w-)/2 S, filled from the swap's index map
    without forming a projector.
    """
    m = _square(y)
    d = qudit_dim(m.shape[0])
    tr_y, tr_ys = np.trace(m), np.einsum("jkkj->", m.reshape(d, d, d, d))  # tr(Y S) = sum_jk <jk|Y|kj>
    w_plus = (tr_y + tr_ys) / (d * (d + 1))
    w_minus = (tr_y - tr_ys) / (d * (d - 1))
    return _identity_swap_sum(d, (w_plus + w_minus) / 2, (w_plus - w_minus) / 2)


def twirl_mc(y, n: int, rng: np.random.Generator) -> McEstimate:
    """Monte Carlo estimate of the two-copy twirl of Y."""
    m = _square(y)
    d = qudit_dim(m.shape[0])
    return _mc_mean(_conjugate_stack(kron_stack(u, u), m) for (u,) in _haar_chunks(d, n, rng))


def _twirl_choi_mc(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo estimate of the twirl's Choi operator, the mean of |w><w| over identical pairs (U, U).

    Row k of W holds the pair-output vector of one draw, so each chunk adds
    its Gram matrix W^T conj(W).  Memory is O(chunk), whatever n.
    """
    total = np.zeros((d**4, d**4), dtype=complex)
    for (u,) in _haar_chunks(d, n, rng):
        w = _pair_output_vec(kron_stack(u, u))
        total += w.T @ w.conj()
    return total / n
