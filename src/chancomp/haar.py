"""Haar-random unitaries and Monte Carlo versions of the group averages.

Sampling uses the QR decomposition of a complex Ginibre matrix with the
R-diagonal phase correction, which is exactly Haar distributed.  All samplers
take an explicit numpy Generator.  Every Monte Carlo average, and the
identical-pair loop of the no-error check, draws its unitaries through
_haar_chunks, the one place that decides the chunk size and the stream
order.  One set of draws can serve several averages: the CLI's twirl check
evaluates its whole operator battery and the identical-pair Choi mean on
the same n unitaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatchError, _conjugate_stack, as_matrix, kron_stack, trace_product
from .qobj import UnitaryOp, _pair_output_vec
from .symmetry import build_split, qudit_dim

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
    re, im = rng.normal(size=(2, d, d))
    z = (re + 1j * im) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
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

    The image is tr(Y P+)/d+ P+ + tr(Y P-)/d- P-; the expression is linear,
    so it applies to arbitrary (not only selfadjoint) operators.
    """
    m = _square(y)
    split = build_split(qudit_dim(m.shape[0]))
    w_plus = trace_product(m, split.p_plus) / split.dim_plus
    w_minus = trace_product(m, split.p_minus) / split.dim_minus
    return w_plus * split.p_plus + w_minus * split.p_minus


def twirl_mc(y, n: int, rng: np.random.Generator) -> McEstimate:
    """Monte Carlo estimate of the two-copy twirl of Y."""
    m = _square(y)
    d = qudit_dim(m.shape[0])
    return _mc_mean(_conjugate_stack(kron_stack(u, u), m) for (u,) in _haar_chunks(d, n, rng))


def _twirl_battery_mc(ys: np.ndarray, n: int, rng: np.random.Generator) -> tuple[McEstimate, np.ndarray]:
    """Two-copy twirls of a stack of operators and the identical-pair Choi mean, on one set of n draws.

    Returns the estimate for the (m, d^2, d^2) stack ys (row j matches
    twirl_mc(ys[j], n, rng) from the same generator state) and the mean of
    the Choi operators |w><w| of (U, U), mean only: row k of W holds the
    pair-output vector of one draw, so each chunk adds its Gram matrix
    W^T conj(W).  Memory is O(chunk), whatever n.
    """
    d = qudit_dim(ys.shape[-1])
    choi_sum = np.zeros((d**4, d**4), dtype=complex)

    def chunks():
        for (u,) in _haar_chunks(d, n, rng):
            k = kron_stack(u, u)
            w = _pair_output_vec(k)
            choi_sum[...] += w.T @ w.conj()
            yield k[:, None] @ ys @ k.conj().transpose(0, 2, 1)[:, None]

    estimate = _mc_mean(chunks())  # runs the draws, filling choi_sum
    return estimate, choi_sum / n
