"""Swap operator, symmetric/antisymmetric projectors, and subspace samplers.

The two-qudit space H_d (x) H_d splits into the symmetric and antisymmetric
eigenspaces of the swap, with dimensions d(d+1)/2 and d(d-1)/2.  Basis
vectors are the (anti)symmetrized computational pairs, enumerated in
lexicographic order so fixtures are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatchError
from .qobj import QState


@dataclass(frozen=True)
class SymmetrySplit:
    """Projectors and orthonormal bases of the two swap eigenspaces.

    basis_plus / basis_minus hold the basis vectors as columns, so each
    projector is reconstructed as B @ B^dagger.
    """

    d: int
    p_plus: np.ndarray
    p_minus: np.ndarray
    basis_plus: np.ndarray
    basis_minus: np.ndarray

    @property
    def dim_plus(self) -> int:
        return self.d * (self.d + 1) // 2

    @property
    def dim_minus(self) -> int:
        return self.d * (self.d - 1) // 2


def qudit_dim(n: int) -> int:
    """The qudit dimension d of a two-qudit space of dimension n = d*d, d >= 2."""
    d = math.isqrt(n)
    if d * d != n or d < 2:
        raise DimensionMismatchError(f"expected two qudits of dimension d >= 2 (n = d*d), got n={n}")
    return d


def swap_operator(d: int) -> np.ndarray:
    """Operator exchanging the two tensor factors of H_d (x) H_d."""
    s = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    return s.swapaxes(0, 1).reshape(d * d, d * d)


_SPLITS: dict[int, SymmetrySplit] = {}


def build_split(d: int) -> SymmetrySplit:
    """The symmetric/antisymmetric decomposition for qudit dimension d.

    Built once per d and shared by every caller, so its arrays are read-only.
    """
    if d in _SPLITS:
        return _SPLITS[d]
    if d < 2:
        raise ValueError(f"split needs d >= 2, got {d}")
    s = swap_operator(d)
    eye = np.eye(d * d, dtype=complex)
    p_plus = (eye + s) / 2
    p_minus = (eye - s) / 2

    def pair_vec(j: int, k: int, sign: int) -> np.ndarray:
        v = np.zeros(d * d, dtype=complex)
        if j == k:
            v[j * d + k] = 1.0
        else:
            v[j * d + k] = 1.0 / np.sqrt(2)
            v[k * d + j] = sign / np.sqrt(2)
        return v

    plus_cols = [pair_vec(j, k, +1) for j in range(d) for k in range(j, d)]
    minus_cols = [pair_vec(j, k, -1) for j in range(d) for k in range(j + 1, d)]
    split = SymmetrySplit(
        d=d,
        p_plus=p_plus,
        p_minus=p_minus,
        basis_plus=np.column_stack(plus_cols),
        basis_minus=np.column_stack(minus_cols),
    )
    for a in (split.p_plus, split.p_minus, split.basis_plus, split.basis_minus):
        a.flags.writeable = False
    _SPLITS[d] = split
    return split


def _subspace_state(basis: np.ndarray, purity: str, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix supported on the column span of basis."""
    dim_sub = basis.shape[1]
    if purity == "pure":
        c = rng.normal(size=dim_sub) + 1j * rng.normal(size=dim_sub)
        c /= np.linalg.norm(c)
        v = basis @ c
        return np.outer(v, v.conj())
    if purity == "mixed":
        g = rng.normal(size=(dim_sub, dim_sub)) + 1j * rng.normal(size=(dim_sub, dim_sub))
        w = g @ g.conj().T
        w /= np.trace(w).real
        return basis @ w @ basis.conj().T
    raise ValueError(f"purity must be 'pure' or 'mixed', got {purity!r}")


def random_antisymmetric_state(d: int, purity: str, rng: np.random.Generator) -> QState:
    """Random two-qudit state supported entirely on the antisymmetric subspace.

    For d=2 the subspace is one dimensional, so both variants return the
    singlet.  The mixed variant squares a Ginibre matrix on the subspace,
    giving full-rank coverage without any distributional claim.
    """
    split = build_split(d)
    return QState(_subspace_state(split.basis_minus, purity, rng), [d, d])


def random_symmetric_state(d: int, purity: str, rng: np.random.Generator) -> QState:
    """Random two-qudit state supported entirely on the symmetric subspace."""
    split = build_split(d)
    return QState(_subspace_state(split.basis_plus, purity, rng), [d, d])


def uniform_antisymmetric_state(d: int) -> QState:
    """Maximally mixed state on the antisymmetric subspace (the d=2 case is the singlet)."""
    split = build_split(d)
    return QState(split.p_minus / split.dim_minus, [d, d])


def uniform_symmetric_state(d: int) -> QState:
    """Maximally mixed state on the symmetric subspace."""
    split = build_split(d)
    return QState(split.p_plus / split.dim_plus, [d, d])
