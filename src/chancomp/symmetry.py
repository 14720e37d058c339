"""The swap as an index exchange: projectors, bases, uniform-state factors, support test and samplers.

The two-qudit space H_d (x) H_d splits into the symmetric and antisymmetric
eigenspaces of the swap S|jk> = |kj>, with dimensions d(d+1)/2 and
d(d-1)/2.  S is never stored as a matrix: the projectors and bases are
filled from the swapped index of each computational pair, and S x exchanges
the two row qudits of x.  Basis vectors are the (anti)symmetrized
computational pairs, enumerated in lexicographic order so fixtures are
reproducible.  projector fills a fresh d^4 array on every call, so none
outlives its reader; eigenbasis is cached per (d, s), read-only, since
every random_unambiguous_ppovm draw reads both bases.  The two-copy twirl's
Choi operator on the doubled space is filled the same way, from the swapped
index of each of its two pairs, with no tensor product of projectors.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import DimensionMismatchError, max_abs
from .qobj import QState


def qudit_dim(n: int) -> int:
    """The qudit dimension d of a two-qudit space of dimension n = d*d, d >= 2."""
    d = math.isqrt(n)
    if d * d != n or d < 2:
        raise DimensionMismatchError(f"expected two qudits of dimension d >= 2 (n = d*d), got n={n}")
    return d


def off_eigenspace(x: np.ndarray, s: int) -> float:
    """max_abs(x - P x) for P the projector onto the swap eigenspace of eigenvalue s = +-1; O(d^4).

    x - P x = (x - s S x) / 2 is the part of x's columns off the eigenspace,
    cross terms included.  S x exchanges the two row qudits of x.
    """
    d = qudit_dim(x.shape[0])
    rows = x.reshape(d, d, -1)
    resid = rows.swapaxes(0, 1) * -s  # the one d^4 copy; negation is exact
    resid += rows
    return max_abs(resid) / 2


def _fill_eigenbasis(rows: np.ndarray, d: int, sign: int) -> np.ndarray:
    """Write the basis of the swap eigenspace of eigenvalue sign into rows, zeroed (r, d, d); return rows.

    Row k is the k-th pair jk below its swap: 1 on |jj>, else 1/sqrt(2) on |jk>, sign/sqrt(2) on |kj>.
    """
    pair = np.arange(d * d)
    cols = pair[pair // d <= pair % d] if sign > 0 else pair[pair // d < pair % d]
    j, k = np.divmod(cols, d)
    at = np.arange(cols.size)
    rows[at, k, j] = sign / np.sqrt(2)
    rows[at, j, k] = np.where(j == k, 1.0, 1 / np.sqrt(2))
    return rows


def _identity_swap_sum(d: int, a, b) -> np.ndarray:
    """a I + b S as a fresh (d*d, d*d) complex array: a on the diagonal, plus b where the swap maps |jk> to |kj>."""
    pair = np.arange(d * d)
    out = np.zeros((d * d, d * d), dtype=complex)
    out[pair, pair] = a
    out[(pair % d) * d + pair // d, pair] += b
    return out


def _twirl_choi_fill(d: int) -> np.ndarray:
    """The two-copy twirl's Choi operator P+ (x) P+ / d+ + P- (x) P- / d- as a fresh (d^4, d^4) complex array.

    With P+- = (I +- S) / 2 it is alpha (I (x) I + S (x) S) + beta (I (x) S + S (x) I),
    alpha, beta = (1/d+ +- 1/d-) / 4: up to four entries per column, each term filled
    from the swap's index map on the two pairs of a doubled-space index.
    """
    if d < 2:
        raise ValueError(f"swap eigenspaces need d >= 2, got {d}")
    dd = d * d
    inv_plus, inv_minus = 1 / (d * (d + 1) // 2), 1 / (d * (d - 1) // 2)
    alpha, beta = (inv_plus + inv_minus) / 4, (inv_plus - inv_minus) / 4
    pair = np.arange(dd)
    p, q = pair[:, None], pair[None, :]  # the column (p, q), its row under each term below
    sp, sq = (p % d) * d + p // d, (q % d) * d + q // d
    out = np.zeros((dd, dd, dd, dd), dtype=complex)
    out[p, q, p, q] = alpha
    out[sp, sq, p, q] += alpha
    out[p, sq, p, q] += beta
    out[sp, q, p, q] += beta
    return out.reshape(dd * dd, dd * dd)


def projector(d: int, s: int) -> np.ndarray:
    """Projector (I + s S) / 2 onto the swap eigenspace of eigenvalue s = +-1, a fresh (d*d, d*d) array.

    Filled from the swap's index map: 1/2 on the diagonal, plus s/2 (so 1 or
    0 where j = k), each entry exact.
    """
    if d < 2:
        raise ValueError(f"swap eigenspaces need d >= 2, got {d}")
    return _identity_swap_sum(d, 0.5, s * 0.5)


@functools.cache
def eigenbasis(d: int, s: int) -> np.ndarray:
    """Orthonormal basis (d*d, d(d+s)/2) of the swap eigenspace of eigenvalue s, one column per vector.

    Built once per (d, s) and shared by every caller, so the array is read-only.
    """
    if d < 2:
        raise ValueError(f"swap eigenspaces need d >= 2, got {d}")
    b = np.zeros((d * d, d * (d + s) // 2), dtype=complex)
    _fill_eigenbasis(b.reshape(d, d, -1).transpose(2, 0, 1), d, s)
    b.flags.writeable = False
    return b


def _uniform_factor(d: int, sign: int) -> np.ndarray:
    """Factor stack (r, d, d) of the uniform state on the eigenspace of sign: basis row k times sqrt(1/r).

    Stored in (d, r, d) order, the layout a Strategy keeps, so it takes this stack without a copy.
    """
    r = d * (d + sign) // 2
    a = np.zeros((d, r, d), dtype=complex)
    _fill_eigenbasis(a.swapaxes(0, 1), d, sign)
    a *= math.sqrt(1 / r)
    return a.swapaxes(0, 1)


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
    return QState(_subspace_state(eigenbasis(d, -1), purity, rng), [d, d])


def random_symmetric_state(d: int, purity: str, rng: np.random.Generator) -> QState:
    """Random two-qudit state supported entirely on the symmetric subspace."""
    return QState(_subspace_state(eigenbasis(d, 1), purity, rng), [d, d])


def uniform_antisymmetric_state(d: int) -> QState:
    """Maximally mixed state on the antisymmetric subspace (the d=2 case is the singlet)."""
    return QState(projector(d, -1) / (d * (d - 1) // 2), [d, d])


def uniform_symmetric_state(d: int) -> QState:
    """Maximally mixed state on the symmetric subspace."""
    return QState(projector(d, 1) / (d * (d + 1) // 2), [d, d])
