"""Haar-random unitaries and Monte Carlo versions of the group averages.

Sampling uses the QR decomposition of a complex Ginibre matrix with the
R-diagonal phase correction, which is exactly Haar distributed.  All samplers
take an explicit numpy Generator; use rng_streams to derive independent
per-worker streams from one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatchError, as_matrix, kron_stack
from .qobj import UnitaryOp
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


def rng_streams(seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators derived from (seed, stream index)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


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


def _haar_stack(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k Haar-random d x d unitaries stacked on axis 0, one haar_sample call each, in order."""
    return np.stack([haar_sample(d, rng).mat for _ in range(k)])


def _mc_mean(sample, n: int) -> McEstimate:
    """Mean of n draws with its standard error (elementwise for matrices).

    sample(k) returns k fresh draws stacked on axis 0; it is called on
    chunks of at most _CHUNK draws, in order.  Each chunk gets a two-pass
    mean and squared deviation, so the variance does not cancel when the
    spread is small against |x|, and the chunks are combined as in Chan,
    Golub & LeVeque, Am. Stat. 37 (1983).  The standard error takes the
    n - 1 denominator, so at least two draws are needed.  This is the one
    Monte Carlo estimator behind every Haar average in the package.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2 for a standard error, got {n}")
    for count in range(0, n, _CHUNK):  # draws taken before this chunk
        x = sample(min(_CHUNK, n - count))
        x_mean = x.mean(axis=0)
        x_sq = (abs(x - x_mean) ** 2).sum(axis=0)
        if count == 0:
            mean, sq = x_mean, x_sq
        else:
            weight = len(x) / (count + len(x))
            delta = x_mean - mean
            mean = mean + delta * weight
            sq = sq + x_sq + abs(delta) ** 2 * (count * weight)
    return McEstimate(mean=mean, n_samples=n, std_error=np.sqrt(sq / (n - 1) / n))


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
    d = m.shape[0]

    def sample(k):
        u = _haar_stack(d, k, rng)
        return u @ m @ u.conj().transpose(0, 2, 1)

    return _mc_mean(sample, n)


def twirl_exact(y) -> np.ndarray:
    """Haar average of (U (x) U) Y (U (x) U)^dagger in closed form.

    The image is tr(Y P+)/d+ P+ + tr(Y P-)/d- P-; the expression is linear,
    so it applies to arbitrary (not only selfadjoint) operators.
    """
    m = _square(y)
    split = build_split(qudit_dim(m.shape[0]))
    w_plus = np.einsum("ij,ji->", m, split.p_plus) / split.dim_plus
    w_minus = np.einsum("ij,ji->", m, split.p_minus) / split.dim_minus
    return w_plus * split.p_plus + w_minus * split.p_minus


def twirl_mc(y, n: int, rng: np.random.Generator) -> McEstimate:
    """Monte Carlo estimate of the two-copy twirl of Y."""
    m = _square(y)
    d = qudit_dim(m.shape[0])

    def sample(k):
        u = _haar_stack(d, k, rng)
        uu = kron_stack(u, u)
        return uu @ m @ uu.conj().transpose(0, 2, 1)

    return _mc_mean(sample, n)
