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

from .linalg import DimensionMismatchError, as_matrix
from .qobj import UnitaryOp
from .symmetry import build_split, qudit_dim


@dataclass(frozen=True)
class McEstimate:
    """Empirical mean with its standard error (elementwise for matrices)."""

    mean: np.ndarray | float
    n_samples: int
    std_error: np.ndarray | float

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if np.any(np.asarray(self.std_error) < 0):
            raise ValueError("std_error must be nonnegative")


def rng_streams(seed: int, n: int) -> list[np.random.Generator]:
    """n independent generators derived from (seed, stream index)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def haar_sample(d: int, rng: np.random.Generator) -> UnitaryOp:
    """Draw a Haar-random d x d unitary."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return UnitaryOp(q)


def _mc_mean(sample, n: int) -> McEstimate:
    """Mean of n draws of sample() with its standard error, streamed (elementwise for matrices).

    Keeps a running sum of x - x0 and of |x - x0|^2, with x0 the first draw,
    so the variance does not cancel when the spread is small against |x|;
    it takes the n - 1 denominator, so at least two draws are needed.
    Draws are shifted in place, so sample() must return a fresh value on
    each call.  This is the one Monte Carlo estimator behind every Haar
    average in the package.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2 for a standard error, got {n}")
    # Builtin abs is numpy's elementwise abs on arrays and avoids a ufunc call on scalars.
    shift = sample()
    total = sample()
    total -= shift
    total_sq = abs(total) ** 2
    for _ in range(n - 2):
        x = sample()
        x -= shift
        total += x
        total_sq += abs(x) ** 2
    mean = shift + total / n
    var = np.maximum(total_sq - abs(total) ** 2 / n, 0.0) / (n - 1)
    return McEstimate(mean=mean, n_samples=n, std_error=np.sqrt(var / n))


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

    def sample():
        u = haar_sample(d, rng).mat
        return u @ m @ u.conj().T

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

    def sample():
        u = haar_sample(d, rng).mat
        uu = np.kron(u, u)
        return uu @ m @ uu.conj().T

    return _mc_mean(sample, n)
