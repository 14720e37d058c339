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

import numpy as np

from .linalg import (
    DimensionMismatchError,
    as_matrix,
    is_hermitian,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    tensor,
    trace_product,
)

HERM_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
CHOI_TRACE_ATOL = 1e-8
POVM_SUM_ATOL = 1e-9
PROB_ATOL = 1e-10


class QState:
    """Density operator: Hermitian, unit trace, positive semidefinite.

    dim_factors records the tensor-product structure of the carrier space
    (defaults to a single factor) and is used by callers that reshape or
    partially trace the state.
    """

    def __init__(self, mat, dim_factors: list[int] | None = None):
        m = as_matrix(mat)
        n = m.shape[0]
        if m.shape != (n, n):
            raise DimensionMismatchError(f"density operator must be square, got {m.shape}")
        if dim_factors is None:
            dim_factors = [n]
        if int(np.prod(dim_factors)) != n:
            raise DimensionMismatchError(f"dim_factors {dim_factors} inconsistent with dim {n}")
        if not is_hermitian(m, HERM_ATOL):
            raise ValueError("density operator is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_ATOL or abs(np.trace(m).imag) > TRACE_ATOL:
            raise ValueError(f"density operator has trace {np.trace(m)}, expected 1")
        if not is_psd(m, PSD_ATOL):
            raise ValueError("density operator is not positive semidefinite")
        self.mat = m
        self.dim_factors = [int(d) for d in dim_factors]

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


class UnitaryOp:
    """A d x d unitary operator."""

    def __init__(self, mat):
        m = as_matrix(mat)
        n = m.shape[0]
        if m.shape != (n, n):
            raise DimensionMismatchError(f"unitary must be square, got {m.shape}")
        if not (max_abs(m.conj().T @ m - np.eye(n)) <= HERM_ATOL):
            raise ValueError("operator is not unitary within tolerance")
        self.mat = m

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


class ChoiOp:
    """Choi operator of a channel on a D-dimensional system (trace-D convention)."""

    def __init__(self, mat, d_sys: int):
        m = as_matrix(mat)
        d_sys = int(d_sys)
        if m.shape != (d_sys * d_sys, d_sys * d_sys):
            raise DimensionMismatchError(
                f"Choi operator for D={d_sys} must be {d_sys * d_sys} dimensional, got {m.shape}"
            )
        if not is_hermitian(m, HERM_ATOL):
            raise ValueError("Choi operator is not Hermitian")
        if not is_psd(m, PSD_ATOL):
            raise ValueError("Choi operator is not positive semidefinite")
        if abs(np.trace(m).real - d_sys) > CHOI_TRACE_ATOL:
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
        elems: dict[str, np.ndarray] = {}
        total = np.zeros((d * d, d * d), dtype=complex)
        for label, m in elements.items():
            m = as_matrix(m)
            if m.shape != (d * d, d * d):
                raise DimensionMismatchError(
                    f"element {label!r} has shape {m.shape}, expected {(d * d, d * d)}"
                )
            if not is_psd(m, PSD_ATOL):
                raise ValueError(f"element {label!r} is not positive semidefinite")
            elems[label] = m
            total = total + m
        expected = tensor(rho.mat.T, np.eye(d))
        if max_abs(total - expected) > POVM_SUM_ATOL:
            raise ValueError("elements do not sum to rho^T (x) identity")
        self.elements = elems
        self.rho = rho

    @property
    def d_sys(self) -> int:
        return self.rho.dim

    def to_json(self) -> dict:
        return {
            "rho": matrix_to_json(self.rho.mat),
            "elements": {label: matrix_to_json(m) for label, m in self.elements.items()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Ppovm":
        rho = QState(matrix_from_json(obj["rho"]))
        elements = {label: matrix_from_json(m) for label, m in obj["elements"].items()}
        return cls(elements, rho)


def max_entangled_vec(dim: int) -> np.ndarray:
    """Unnormalized vector sum_j |j>|j> on H_dim (x) H_dim."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return np.eye(dim, dtype=complex).reshape(-1)


def max_entangled(dim: int) -> np.ndarray:
    """Rank-1 unnormalized projector onto the maximally entangled pair; trace dim."""
    v = max_entangled_vec(dim)
    return np.outer(v, v.conj())


def _pair_output_vec(k: np.ndarray) -> np.ndarray:
    """Vector (I (x) K) applied to the unnormalized entangled pair.

    With the pair written as the reshaped identity, the image is vec(K^T),
    avoiding the D^2 x D^2 operator.
    """
    return k.T.reshape(-1).copy()


def choi_of_unitary(u: UnitaryOp) -> ChoiOp:
    """Choi operator of the channel X -> U X U^dagger."""
    w = _pair_output_vec(u.mat)
    return ChoiOp(np.outer(w, w.conj()), u.dim)


def choi_of_unitary_pair(u: UnitaryOp, v: UnitaryOp) -> ChoiOp:
    """Choi operator of the product channel applying U and V to the two qudits.

    Rank 1 with trace d^2; the channel acts on legs (3,4) while legs (1,2)
    hold the reference copy.
    """
    if u.dim != v.dim:
        raise DimensionMismatchError(f"unitary dims {u.dim} and {v.dim} differ")
    w = _pair_output_vec(np.kron(u.mat, v.mat))
    return ChoiOp(np.outer(w, w.conj()), u.dim * v.dim)


def pair_output_vector(u: UnitaryOp, v: UnitaryOp) -> np.ndarray:
    """The pure output vector whose projector is choi_of_unitary_pair(u, v)."""
    if u.dim != v.dim:
        raise DimensionMismatchError(f"unitary dims {u.dim} and {v.dim} differ")
    return _pair_output_vec(np.kron(u.mat, v.mat))


def ppovm_from_experiment(xi: QState, effects: dict[str, np.ndarray]) -> Ppovm:
    """Process POVM of an ancilla-free experiment: test state xi, POVM effects.

    Every element takes the factorized form xi^T (x) F_j; the resulting
    outcome probabilities coincide with the physical ones, tr(E[xi] F_j),
    for every channel E.
    """
    d = xi.dim
    total = np.zeros((d, d), dtype=complex)
    for label, f in effects.items():
        f = as_matrix(f)
        if f.shape != (d, d):
            raise DimensionMismatchError(f"effect {label!r} has shape {f.shape}, expected {(d, d)}")
        if not is_psd(f, PSD_ATOL):
            raise ValueError(f"effect {label!r} is not positive semidefinite")
        total = total + f
    if max_abs(total - np.eye(d)) > POVM_SUM_ATOL:
        raise ValueError("effects do not sum to the identity")
    elements = {label: tensor(xi.mat.T, as_matrix(f)) for label, f in effects.items()}
    return Ppovm(elements, xi)


def clamp_probability(p: float) -> float:
    """A computed probability clamped to [0, 1].

    Raw values outside [-PROB_ATOL, 1 + PROB_ATOL], and NaN, indicate a
    construction bug rather than rounding noise and raise instead of clamping.
    """
    if not (-PROB_ATOL <= p <= 1.0 + PROB_ATOL):
        raise ValueError(f"probability {p} outside [0, 1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def outcome_probability(omega: ChoiOp, m) -> float:
    """Probability tr(omega M) of a process-POVM element, clamped to [0, 1]."""
    m = as_matrix(m)
    if m.shape != omega.mat.shape:
        raise DimensionMismatchError(f"element shape {m.shape} vs Choi shape {omega.mat.shape}")
    return clamp_probability(trace_product(omega.mat, m).real)
