"""Quantum object types and the Choi / process-POVM representation layer.

Conventions, fixed once for the whole package:

* The unnormalized maximally entangled operator on H_D (x) H_D has trace D,
  so Choi operators of channels on H_D carry trace D as well.
* For a two-qudit channel (D = d*d) the four elementary legs are ordered
  (1,2,3,4) with legs (1,2) the reference copy and legs (3,4) the channel
  side; under the row-major kron convention the D-dimensional entangled
  pair then factorizes automatically as a pair of single-qudit entangled
  states on legs (1,3) and (2,4).
* Transposition is always taken entrywise in the computational basis, the
  same basis used to define the entangled pair.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .linalg import (
    ATOL,
    CHOI_TRACE_ATOL,
    SUM_ATOL,
    DimensionMismatchError,
    as_matrix,
    is_psd,
    max_abs,
    tensor,
    trace_product,
)


def _positive_operator(mat, n: int, name: str) -> np.ndarray:
    """mat as an n x n complex matrix, checked finite, Hermitian and PSD; errors name the operator."""
    m = as_matrix(mat)
    if m.shape != (n, n):
        raise DimensionMismatchError(f"{name} has shape {m.shape}, expected {(n, n)}")
    try:
        psd = is_psd(m)  # one Hermiticity pass, then one Cholesky factorisation
    except ValueError:  # is_psd rejects a non-Hermitian input, and so every non-finite one
        flaw = "is not Hermitian" if np.isfinite(m).all() else "has non-finite entries"
        raise ValueError(f"{name} {flaw}") from None
    if not psd:
        raise ValueError(f"{name} is not positive semidefinite")
    return m


def _dim_factor(f) -> int:
    """One tensor factor dimension as a Python int: an integer >= 1 (numpy ints too), not a bool."""
    try:
        k = operator.index(f)
    except TypeError:
        k = 0
    if isinstance(f, bool) or k < 1:
        raise DimensionMismatchError(f"dim_factors entries must be integers >= 1, got {f!r}")
    return k


class QState:
    """Density operator: Hermitian, unit trace, positive semidefinite.

    dim_factors records the tensor-product structure of the carrier space
    (defaults to a single factor): integers >= 1, not booleans, whose
    product is the dimension.
    """

    def __init__(self, mat, dim_factors: list[int] | None = None):
        m = as_matrix(mat)
        n = m.shape[0]
        factors = [_dim_factor(f) for f in ([n] if dim_factors is None else dim_factors)]
        if math.prod(factors) != n:
            raise DimensionMismatchError(f"dim_factors {factors} inconsistent with dim {n}")
        m = _positive_operator(m, n, "density operator")
        if not (abs(np.trace(m).real - 1.0) <= ATOL and abs(np.trace(m).imag) <= ATOL):
            raise ValueError(f"density operator has trace {np.trace(m)}, expected 1")
        self.mat = m
        self.dim_factors = factors

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


class UnitaryOp:
    """A d x d unitary operator."""

    def __init__(self, mat):
        m = as_matrix(mat)
        n = m.shape[0]
        if m.shape != (n, n) or n == 0:
            raise DimensionMismatchError(f"unitary must be a non-empty square matrix, got {m.shape}")
        gram = m.conj().T @ m
        gram.ravel()[:: n + 1] -= 1  # gram - I, in place
        if not (max_abs(gram) <= ATOL):
            raise ValueError("operator is not unitary within tolerance")
        self.mat = m

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


class ChoiOp:
    """Choi operator of a channel on a D-dimensional system (trace-D convention)."""

    def __init__(self, mat, d_sys: int):
        d_sys = int(d_sys)
        m = _positive_operator(mat, d_sys * d_sys, "Choi operator")
        if not (abs(np.trace(m).real - d_sys) <= CHOI_TRACE_ATOL):
            raise ValueError(f"Choi operator has trace {np.trace(m).real}, expected {d_sys}")
        self.mat = m
        self.d_sys = d_sys


class Ppovm:
    """Process POVM: labeled positive operators summing to rho^T (x) I.

    rho is a state on the reference side H_D; every element acts on
    H_D (x) H_D.
    """

    def __init__(self, elements: dict[str, np.ndarray], rho: QState):
        d = rho.dim
        elems = {label: _positive_operator(m, d * d, f"element {label!r}") for label, m in elements.items()}
        resid = tensor(rho.mat.T, np.eye(d))  # rho^T (x) I minus each element, in place
        for m in elems.values():
            resid -= m
        if not (max_abs(resid) <= SUM_ATOL):
            raise ValueError("elements do not sum to rho^T (x) identity")
        self.elements = elems
        self.rho = rho

    @property
    def d_sys(self) -> int:
        return self.rho.dim


def _pair_output_vec(k: np.ndarray) -> np.ndarray:
    """Vector (I (x) K) applied to the unnormalized entangled pair.

    With the pair written as the reshaped identity, the image is vec(K^T),
    avoiding the D^2 x D^2 operator.  A (n, D, D) stack gives one row per slice.
    """
    return k.swapaxes(-1, -2).reshape(*k.shape[:-2], -1)


def choi_of_unitary(u: UnitaryOp) -> ChoiOp:
    """Choi operator of the channel X -> U X U^dagger.

    The identity gives the maximally entangled pair; boxes (U, V) in parallel are U (x) V.
    """
    w = _pair_output_vec(u.mat)
    return ChoiOp(np.outer(w, w.conj()), u.dim)


def ppovm_from_experiment(xi: QState, effects: dict[str, np.ndarray]) -> Ppovm:
    """Process POVM of an ancilla-free experiment: test state xi, POVM effects.

    Every element takes the factorized form xi^T (x) F_j; the resulting
    outcome probabilities coincide with the physical ones, tr(E[xi] F_j),
    for every channel E.
    """
    d = xi.dim
    effects = {label: _positive_operator(f, d, f"effect {label!r}") for label, f in effects.items()}
    total = sum(effects.values(), np.zeros((d, d), dtype=complex))
    if not (max_abs(total - np.eye(d)) <= SUM_ATOL):
        raise ValueError("effects do not sum to the identity")
    return Ppovm({label: tensor(xi.mat.T, f) for label, f in effects.items()}, xi)


def clamp_probability(p: float) -> float:
    """A computed probability clamped to [0, 1].

    Raw values outside [-ATOL, 1 + ATOL], and NaN, indicate a construction
    bug rather than rounding noise and raise instead of clamping.
    """
    if not (-ATOL <= p <= 1.0 + ATOL):
        raise ValueError(f"probability {p} outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def outcome_probability(omega: ChoiOp, m) -> float:
    """Probability tr(omega M) of a process-POVM element, clamped to [0, 1]."""
    m = as_matrix(m)
    if m.shape != omega.mat.shape:
        raise DimensionMismatchError(f"element shape {m.shape} vs Choi shape {omega.mat.shape}")
    return clamp_probability(float(trace_product(omega.mat, m).real))
