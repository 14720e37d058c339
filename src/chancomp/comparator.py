"""Unambiguous comparison strategies for pairs of unknown unitary channels.

A comparison experiment is a process POVM {M_diff, M_inconclusive} normalized
to rho^T (x) I on the doubled two-qudit space.  Unambiguity forces M_same = 0
and confines M_diff to the orthocomplement of the two-copy twirl's Choi
support; the best achievable average success probability is (d+1)/(2d),
attained exactly by M_diff = xi^T (x) P+ with an antisymmetric test state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# haar_sample stays importable from here: the perfbench tracer wraps it under this module too.
from .haar import McEstimate, _haar_chunks, _mc_mean, haar_sample  # noqa: F401
from .linalg import (
    ATOL,
    STRUCT_ATOL,
    SUM_ATOL,
    DimensionMismatchError,
    kron_stack,
    max_abs,
    tensor,
    trace_product,
)
from .qobj import (
    ChoiOp,
    Ppovm,
    QState,
    UnitaryOp,
    _pair_output_vec,
    clamp_probability,
    ppovm_from_experiment,
)
from .symmetry import SymmetrySplit, build_split, qudit_dim

DIFF = "diff"
INCONCLUSIVE = "inconclusive"
SAME = "same"


def success_bound(d: int) -> float:
    """Largest average success probability of any unambiguous comparator."""
    return (d + 1) / (2 * d)


# Swap eigenvalue whose outcome reads 'diff', per strategy kind.  The test
# state lives on the other eigenspace; identical boxes U (x) U commute with the
# swap and keep it there, so they never fire 'diff'.
_DIFF_SWAP_SIGN = {"antisym_optimal": 1, "symmetric": -1}


@dataclass(frozen=True)
class Strategy:
    """A comparison strategy: send the test state xi through the two boxes, then measure the swap.

    kind picks the swap eigenspace that reads 'diff': P+ for
    'antisym_optimal', P- for 'symmetric'.  xi must lie on the other
    eigenspace; construction checks that and factors xi on it once.
    effects (P+ and P- per label) and ppovm (xi^T (x) F per label) are dense
    views built on demand.
    """

    xi: QState
    kind: str
    # Stack A of shape (r, d, d) with xi = sum_k vec(A_k) vec(A_k)^dagger
    # (row-major vec): xi's eigenvectors for the r eigenvalues above ATOL,
    # each scaled by the root of its eigenvalue.
    _factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _DIFF_SWAP_SIGN:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        split = build_split(self.d)
        support = split.basis_minus if self._sign > 0 else split.basis_plus
        leak, sx = _off_support(self.xi.mat, support)
        if not (leak <= ATOL):  # identical boxes must never fire 'diff'
            raise ValueError(f"test state has support outside the {self.kind} subspace "
                             f"(largest entry off it {leak:.1e} > {ATOL:.0e})")
        vals, vecs = np.linalg.eigh(sx @ support)  # xi on the block just checked to hold it
        keep = vals > ATOL
        a = support @ (vecs[:, keep] * np.sqrt(vals[keep]))
        object.__setattr__(self, "_factor", a.T.reshape(-1, self.d, self.d))

    @property
    def d(self) -> int:
        return qudit_dim(self.xi.dim)

    @property
    def _sign(self) -> int:
        return _DIFF_SWAP_SIGN[self.kind]

    @property
    def effects(self) -> dict[str, np.ndarray]:
        split = build_split(self.d)
        return dict(zip((DIFF, INCONCLUSIVE), (split.p_plus, split.p_minus)[::self._sign]))

    @property
    def ppovm(self) -> Ppovm:
        return ppovm_from_experiment(self.xi, self.effects)


def _off_support(x: np.ndarray, support: np.ndarray) -> tuple[float, np.ndarray]:
    """max_abs(x - support support^dagger x), cross terms included, and support^dagger x; O(d+- d^4)."""
    sx = support.conj().T @ x
    return max_abs(x - support @ sx), sx


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome probabilities for one channel pair plus one sampled verdict."""

    p_diff: float
    p_inconclusive: float
    verdict: str
    seed: int

    def to_json(self) -> dict:
        return {
            "p_diff": self.p_diff,
            "p_inconclusive": self.p_inconclusive,
            "verdict": self.verdict,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class NoErrorReport:
    """Residuals of the no-error conditions; all vanish for a sound comparator."""

    twirl_residual: float
    haar_max_residual: float
    same_residual: float | None
    n_samples: int

    @property
    def max_residual(self) -> float:
        worst = max(self.twirl_residual, self.haar_max_residual)
        if self.same_residual is not None:
            worst = max(worst, self.same_residual)
        return worst


@dataclass(frozen=True)
class UniquenessProbe:
    """Whether a PPOVM matches the unique optimal structure, and how far off it is."""

    optimal_form: bool
    deviation: float


def twirl_choi(d: int) -> ChoiOp:
    """Choi operator of the two-copy twirling channel.

    Equals P+ (x) P+ / d+  +  P- (x) P- / d- across the reference/output cut;
    it is also the Haar average of the Choi operators of identical pairs,
    which is what makes its orthocomplement the home of M_diff.
    """
    split = build_split(d)
    mat = (
        tensor(split.p_plus, split.p_plus) / split.dim_plus
        + tensor(split.p_minus, split.p_minus) / split.dim_minus
    )
    return ChoiOp(mat, d * d)


def make_strategy(kind: str, xi: QState) -> Strategy:
    """Build a named comparison strategy around the test state xi: Strategy(xi, kind).

    'antisym_optimal' takes an antisymmetric xi and reads 'diff' on P+;
    'symmetric' swaps the roles.  Raises ValueError for an unknown kind or an
    xi with support outside the matching subspace.
    """
    return Strategy(xi, kind)


def run_pair(strategy: Strategy, u: UnitaryOp, v: UnitaryOp, seed: int = 0) -> ComparisonReport:
    """Exact outcome probabilities for the pair (U, V) plus one sampled verdict.

    Each probability is tr(F (U (x) V) xi (U (x) V)^dagger), which equals
    tr(omega_{U,V} (xi^T (x) F)) on the doubled space.
    """
    if u.dim != strategy.d or v.dim != strategy.d:
        raise DimensionMismatchError(
            f"strategy is for d={strategy.d}, got unitaries of dim {u.dim}, {v.dim}"
        )
    p_diff, p_inc = (
        clamp_probability(float(p))
        for (p,) in _probabilities(strategy, u.mat[None], v.mat[None], (DIFF, INCONCLUSIVE))
    )
    verdict = "different" if np.random.default_rng(seed).random() < p_diff else "inconclusive"
    return ComparisonReport(p_diff=p_diff, p_inconclusive=p_inc, verdict=verdict, seed=seed)


def _probabilities(strategy: Strategy, u: np.ndarray, v: np.ndarray, outcomes: tuple[str, ...]) -> np.ndarray:
    """Probabilities of the named outcomes, one row each, for the pairs of the (n, d, d) stacks u, v.

    With xi = sum_k vec(A_k) vec(A_k)^dagger, the boxes map vec(A_k) to
    w_k = vec(W_k), W_k = U A_k V^T, and the swap maps w_k to vec(W_k^T).  So
    P+- = sum_k <w_k|(w_k +- S w_k)> / 2: O(r d^3) per pair and outcome for a
    rank-r xi instead of the d^6 of conjugating xi.
    """
    n = len(u)
    w = u[:, None] @ strategy._factor @ v[:, None].swapaxes(-1, -2)
    wt = w.swapaxes(-1, -2)
    rows = []
    for label in outcomes:
        sign = strategy._sign if label == DIFF else -strategy._sign  # the label's swap eigenvalue
        # conj(w +- S w) * w sums to 2 <w|P+-|w>; numpy reuses each temporary in place.
        rows.append(((w + wt if sign > 0 else w - wt).conj() * w).real.reshape(n, -1).sum(axis=1))
    return np.stack(rows) / 2


def average_success(strategy: Strategy) -> float:
    """Average probability of detecting a difference: tr(M_diff) / d^2 = dim_+- / d^2.

    tr(xi^T (x) F_diff) = tr(xi) tr(F_diff) with tr(xi) = 1, and F_diff
    projects onto a swap eigenspace of dimension d(d +- 1)/2.
    """
    d = strategy.d
    return d * (d + strategy._sign) // 2 / (d * d)


def average_success_mc(strategy: Strategy, n: int, rng: np.random.Generator) -> McEstimate:
    """Monte Carlo check of average_success over independent Haar pairs (U, V)."""
    return _mc_mean(
        _probabilities(strategy, u, v, (DIFF,))[0] for u, v in _haar_chunks(strategy.d, n, rng, copies=2)
    )


def overall_success(strategy: Strategy, eta_same: float) -> float:
    """Average success weighted by the prior (1 - eta_same) of actually differing."""
    if not 0.0 < eta_same < 1.0:
        raise ValueError(f"eta_same must lie strictly in (0, 1), got {eta_same}")
    return (1.0 - eta_same) * average_success(strategy)


def verify_no_error(ppovm: Ppovm, n_samples: int, rng: np.random.Generator) -> NoErrorReport:
    """Residuals of the no-error conditions for a claimed unambiguous comparator.

    Checks the overlap of M_diff with the twirl Choi operator, the sampled
    'diff' probability on n identical Haar pairs, and tr(M_same)/d^2 when a
    'same' element is present.  Reports rather than raises.
    """
    d = qudit_dim(ppovm.d_sys)
    m_diff = ppovm.elements[DIFF]
    omega_t = twirl_choi(d)
    twirl_residual = abs(float(trace_product(omega_t.mat, m_diff).real))
    haar_max = 0.0
    for (u,) in _haar_chunks(d, n_samples, rng):
        w = _pair_output_vec(kron_stack(u, u))  # tr(omega_{U,U} M) = <w|M|w>, one row per draw
        for p in ((w @ m_diff.T) * w.conj()).sum(axis=1).real:
            haar_max = max(haar_max, clamp_probability(float(p)))
    same_residual = None
    if SAME in ppovm.elements:
        same_residual = abs(float(np.trace(ppovm.elements[SAME]).real)) / (d * d)
    return NoErrorReport(
        twirl_residual=twirl_residual,
        haar_max_residual=haar_max,
        same_residual=same_residual,
        n_samples=n_samples,
    )


def max_psd_scale(base: np.ndarray, k: np.ndarray) -> float:
    """Largest s such that base - s*k stays PSD within ATOL, by bisection to width ATOL.

    k must have unit spectral norm and base spectral norm at most 1 so that
    s = 2 is always infeasible; the returned value was explicitly verified
    feasible.
    """
    lo, hi = 0.0, 2.0
    while not (hi - lo <= ATOL):
        mid = (lo + hi) / 2
        if float(np.linalg.eigvalsh(base - mid * k)[0]) >= -ATOL:
            lo = mid
        else:
            hi = mid
    return lo


def _cross_schur_complement(rho_t: np.ndarray, split: SymmetrySplit) -> np.ndarray:
    """Shorted operator of B = rho^T (x) I onto the cross subspace S, in the basis of S.

    S is spanned by the columns of [B+ (x) B-, B- (x) B+].  B commutes with
    I (x) P+-, so the generalised Schur complement splits into d^2-sized
    pieces: blockdiag(sh(rho^T; B+) (x) I_{d-}, sh(rho^T; B-) (x) I_{d+}) with
    sh(A; X) = X^dag A X - X^dag A Y (Y^dag A Y)^+ Y^dag A X, Y the other
    subspace's basis.  The pseudo-inverse drops eigenvalues <= ATOL.
    """

    def sh(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(y.conj().T @ rho_t @ y)
        keep = vals > ATOL
        xa = x.conj().T @ rho_t
        w = xa @ y @ vecs[:, keep]
        return xa @ x - (w / vals[keep]) @ w.conj().T

    bp, bm = split.basis_plus, split.basis_minus
    n = split.dim_plus * split.dim_minus
    sigma = np.zeros((2 * n, 2 * n), dtype=complex)
    sigma[:n, :n] = np.kron(sh(bp, bm), np.eye(split.dim_minus))
    sigma[n:, n:] = np.kron(sh(bm, bp), np.eye(split.dim_plus))
    return sigma


def random_unambiguous_ppovm(d: int, rng: np.random.Generator, rho: QState | None = None) -> Ppovm:
    """Random PPOVM satisfying every unambiguity constraint by construction.

    M_diff = lambda * K with K = C G C^dag a random PSD operator supported on
    the symmetric/antisymmetric cross subspace S (orthogonal to the twirl
    Choi support), C the isometry onto S and G an m x m Gram matrix,
    m = 2 d+ d-.  lambda is maximal under positivity of the inconclusive
    element rho^T (x) I - lambda K, which holds exactly when sigma - lambda G
    is PSD, sigma the m-dim Schur complement of rho^T (x) I onto S; the
    bisection runs on that pair.  The returned Ppovm re-checks every element
    on the full space.  rho defaults to a random full-rank two-qudit state; a
    rank-deficient rho misaligned with K degenerates to lambda = 0.
    """
    split = build_split(d)
    dd = d * d
    if rho is None:
        g = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
        mat = g @ g.conj().T
        rho = QState(mat / np.trace(mat).real, [d, d])
    elif rho.dim != dd:
        raise DimensionMismatchError(f"rho must live on two qudits of dim {d}")

    # Columns span {|s_j, a_n>, |a_n, s_j>}; kron acts columnwise.
    cross = np.hstack(
        [np.kron(split.basis_plus, split.basis_minus), np.kron(split.basis_minus, split.basis_plus)]
    )
    m = cross.shape[1]
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    gram = g @ g.conj().T
    gram /= float(np.linalg.eigvalsh(gram)[-1])

    lam = max_psd_scale(_cross_schur_complement(rho.mat.T, split), gram)
    m_diff = lam * (cross @ gram @ cross.conj().T)
    return Ppovm({DIFF: m_diff, INCONCLUSIVE: tensor(rho.mat.T, np.eye(dd)) - m_diff}, rho)


def uniqueness_probe(ppovm: Ppovm) -> UniquenessProbe:
    """Test whether a no-error PPOVM has the unique bound-saturating structure.

    Saturation forces M_diff = rho^T (x) P+ with rho supported on the
    antisymmetric subspace; the probe reports the largest of the success,
    structure and support residuals.  Callers should verify the no-error
    conditions first.
    """
    d = qudit_dim(ppovm.d_sys)
    split = build_split(d)
    m_diff = ppovm.elements[DIFF]
    rho_t = ppovm.rho.mat.T

    success_residual = abs(float(np.trace(m_diff).real) / (d * d) - success_bound(d))
    struct_residual = max_abs(m_diff - tensor(rho_t, split.p_plus))
    support_residual, _ = _off_support(rho_t, split.basis_minus)

    ok = success_residual <= SUM_ATOL and struct_residual <= STRUCT_ATOL and support_residual <= STRUCT_ATOL
    return UniquenessProbe(
        optimal_form=ok,
        deviation=max(success_residual, struct_residual, support_residual),
    )


def identity_phase_gap(r: UnitaryOp) -> float:
    """Frobenius distance from r to the nearest global-phase multiple of I."""
    d = r.dim
    return math.sqrt(max(0.0, 2.0 * (d - abs(np.trace(r.mat)))))


def sequential_witness(w: UnitaryOp, r: UnitaryOp) -> tuple[UnitaryOp, UnitaryOp]:
    """Unitaries U = W R and V = R^dagger W, both distinct from W, with U V = W^2.

    Sequential (one-after-the-other) use of the two boxes therefore cannot
    reveal whether they are equal: the composed channels of (U, V) and
    (W, W) coincide.  r may not be a global-phase multiple of the identity.
    """
    if w.dim != r.dim:
        raise DimensionMismatchError(f"dims {w.dim} and {r.dim} differ")
    if identity_phase_gap(r) <= STRUCT_ATOL:
        raise ValueError("r equals the identity up to a global phase")
    return UnitaryOp(w.mat @ r.mat), UnitaryOp(r.mat.conj().T @ w.mat)
