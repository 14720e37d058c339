"""Unambiguous comparison strategies for pairs of unknown unitary channels.

A comparison experiment is a process POVM {M_diff, M_inconclusive} normalized
to rho^T (x) I on the doubled two-qudit space.  Unambiguity forces M_same = 0
and confines M_diff to the orthocomplement of the two-copy twirl's Choi
support; the best achievable average success probability is (d+1)/(2d),
attained exactly by M_diff = xi^T (x) P+ with an antisymmetric test state.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .haar import _CHUNK, McEstimate, _mc_mean, haar_sample
from .linalg import ATOL, STRUCT_ATOL, SUM_ATOL, DimensionMismatchError, max_abs, tensor
from .qobj import ChoiOp, Ppovm, QState, UnitaryOp, clamp_probability
from .symmetry import _twirl_choi_fill, eigenbasis, off_eigenspace, projector, qudit_dim

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


# Entries (pairs x factors x d^2) per pass over a factor stack, each pass holding a few
# arrays this size.  Every call at d <= 6 with up to 64 pairs and r <= 21 takes one pass.
_CHUNK_ENTRIES = 2**16


@dataclass(frozen=True, init=False, eq=False)
class Strategy:
    """A comparison strategy: send the test state xi through the two boxes, then measure the swap.

    kind picks the swap eigenspace that reads 'diff': P+ for 'antisym_optimal', P- for
    'symmetric'.  xi, on the other one of swap eigenvalue s, is a QState, checked by
    (xi - s S xi) / 2 and factored on that eigenspace, or its factor stack A (r, d, d),
    xi = sum_k vec(A_k) vec(A_k)^dag, checked on itself: finite, sum_k ||A_k||_F^2 = 1 and
    (A_k - s A_k^T) / 2 = 0 within ATOL.  Only the factor is kept.  The dense process POVM,
    for general-PPOVM code and tests, is built from xi by ppovm_from_experiment with the
    effects {'diff': projector(d, -s), 'inconclusive': projector(d, s)}.
    """

    kind: str
    # A as given, or xi's eigenvectors scaled by root eigenvalues; a view of one (d, r, d) array
    _factor: np.ndarray = field(repr=False)

    def __init__(self, xi: QState | np.ndarray, kind: str):
        if kind not in _DIFF_SWAP_SIGN:
            raise ValueError(f"unknown strategy kind {kind!r}")
        sign = _DIFF_SWAP_SIGN[kind]
        if isinstance(xi, QState):
            leak = off_eigenspace(xi.mat, -sign)
            d = qudit_dim(xi.dim)
            support = eigenbasis(d, -sign)
            # xi on the eigenspace's block; keep the r eigenvalues above ATOL
            vals, vecs = np.linalg.eigh(support.conj().T @ xi.mat @ support)
            keep = vals > ATOL
            a = support @ (vecs[:, keep] * np.sqrt(vals[keep]))  # (d*d, r): A_k is column k
            # r is 0 for an xi wholly off the eigenspace, which the support check rejects below
            a = np.ascontiguousarray(a.reshape(d, d, a.shape[1]).transpose(0, 2, 1)).swapaxes(0, 1)
        else:
            a = np.asarray(xi, dtype=complex)
            if a.ndim != 3 or len(a) < 1 or a.shape[1] != a.shape[2] or a.shape[1] < 2:
                raise DimensionMismatchError(f"test state factor has shape {a.shape}, expected (r, d, d)")
            b = np.ascontiguousarray(a.swapaxes(0, 1))  # the (d, r, d) layout kept; no copy if so given
            norm = float(np.vdot(b, b).real)  # tr(xi), no temporary; NaN or inf if an entry is not finite
            a = b.swapaxes(0, 1)
            if not (abs(norm - 1.0) <= ATOL):
                raise ValueError(f"test state factor has trace {norm}, expected a finite 1")
            step = _CHUNK_ENTRIES // a[0].size or 1
            leak = max(max_abs(a[k:k + step] + sign * a[k:k + step].swapaxes(-1, -2))
                       for k in range(0, len(a), step)) / 2
        if not (leak <= ATOL):  # identical boxes must never fire 'diff'
            raise ValueError(f"test state has support outside the {kind} subspace "
                             f"(largest entry off it {leak:.1e} > {ATOL:.0e})")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_factor", a)

    @property
    def d(self) -> int:
        return self._factor.shape[-1]

    @property
    def _sign(self) -> int:
        return _DIFF_SWAP_SIGN[self.kind]


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome probabilities for one channel pair, which sum to 1, plus one sampled verdict."""

    p_diff: float
    p_inconclusive: float
    verdict: str
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class NoErrorReport:
    """Residuals of the no-error conditions; all vanish for a sound comparator.

    twirl_residual is |tr(omega_T M_diff)|; identical_pair_bound bounds p_diff(U, U)
    for every U, so it may exceed 1 for a comparator that errs.
    """

    twirl_residual: float
    identical_pair_bound: float
    same_residual: float | None

    @property
    def max_residual(self) -> float:
        worst = max(self.twirl_residual, self.identical_pair_bound)
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
    which is what makes its orthocomplement the home of M_diff.  Filled from
    the swap's index map, then validated as a ChoiOp: the checked oracle.
    """
    return ChoiOp(_twirl_choi_fill(d), d * d)


def make_strategy(kind: str, xi: QState | np.ndarray) -> Strategy:
    """Build a named comparison strategy around xi, a QState or its factor stack: Strategy(xi, kind).

    'antisym_optimal' takes an antisymmetric xi and reads 'diff' on P+;
    'symmetric' swaps the roles.  Only xi's factor is kept: a QState is
    factored once, here.  Raises ValueError for an unknown kind, a
    factor that is not finite or not of unit trace, or an xi with support
    outside the matching subspace.
    """
    return Strategy(xi, kind)


def run_pair(strategy: Strategy, u: UnitaryOp, v: UnitaryOp, seed: int = 0) -> ComparisonReport:
    """Exact outcome probabilities for the pair (U, V) plus one sampled verdict.

    p_diff is tr(F_diff (U (x) V) xi (U (x) V)^dagger) = tr(omega_{U,V} (xi^T (x) F_diff)).  The
    elements sum to xi^T (x) I and tr(xi) = 1 within ATOL, so p_inconclusive is 1 - p_diff.
    """
    d, um, vm = strategy._factor.shape[-1], u.mat, v.mat
    if len(um) != d or len(vm) != d:
        raise DimensionMismatchError(f"strategy is for d={d}, got unitaries of dim {len(um)}, {len(vm)}")
    p_diff = clamp_probability(float(_p_diff(strategy, um[None], vm[None])[0]))
    verdict = "different" if np.random.default_rng(seed).random() < p_diff else "inconclusive"
    return ComparisonReport(p_diff, 1.0 - p_diff, verdict, seed)


def _p_diff(strategy: Strategy, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """p_diff, shape (n,), for the pairs of the (n, d, d) stacks u, v.

    With xi = sum_k vec(A_k) vec(A_k)^dagger, the boxes map vec(A_k) to
    w_k = vec(W_k), W_k = U A_k V^T, and the swap maps w_k to vec(W_k^T).  So
    p_diff = sum_k ||W_k + s W_k^T||^2 / 4, s the swap eigenvalue that reads 'diff':
    O(r d^3) per pair for a rank-r xi instead of the d^6 of conjugating xi.  On the
    factor's (d, r, d) layout B = [A_0 | ... | A_{r-1}], a pass over some factors is two
    GEMMs: T = U B_s for all pairs at once, then W = T V^T, W[p, i, k, j] = (U_p A_k V_p^T)[i, j].
    """
    n, d = u.shape[:2]
    b = strategy._factor.swapaxes(0, 1)
    step = _CHUNK_ENTRIES // (n * d * d) or 1
    u, vt = u.reshape(n * d, d), v.swapaxes(-1, -2)
    total = np.zeros(n)
    for k in range(0, b.shape[1], step):  # temporaries of O(n step d^2) entries
        w = ((u @ b[:, k:k + step].reshape(d, -1)).reshape(n, -1, d) @ vt).reshape(n, d, -1, d)
        wt = w.transpose(0, 3, 2, 1)
        # W +- W^T is exactly (anti)symmetric, so identical boxes leave only rounding squared.
        x = (w + wt if strategy._sign > 0 else w - wt).reshape(n, -1).view(float)
        total += np.square(x, out=x).sum(axis=1)  # numpy's pairwise sum; a BLAS dot's is looser
    return total / 4


def average_success(strategy: Strategy) -> float:
    """Average probability of detecting a difference: tr(M_diff) / d^2 = dim_+- / d^2.

    tr(xi^T (x) F_diff) = tr(xi) tr(F_diff) with tr(xi) = 1, and F_diff
    projects onto a swap eigenspace of dimension d(d +- 1)/2.
    """
    d = strategy.d
    return d * (d + strategy._sign) // 2 / (d * d)


def average_success_mc(strategy: Strategy, n: int, rng: np.random.Generator) -> McEstimate:
    """Monte Carlo check of average_success over independent Haar pairs (U, V)."""
    d = strategy.d

    # One haar_sample call per unitary, not haar._haar_chunks: perfbench's
    # test_haar_sample_calls_are_four_per_pair_per_row counts these calls.  This loop
    # moves onto _haar_chunks once ROADMAP item 1 re-pins that test; until then it is
    # also the per-draw reference the batched chunks are held to, bit for bit.
    def chunks():
        for count in range(0, n, _CHUNK):
            k = min(_CHUNK, n - count)
            draws = np.stack([haar_sample(d, rng).mat for _ in range(2 * k)]).reshape(k, 2, d, d)
            yield _p_diff(strategy, draws[:, 0], draws[:, 1])

    return _mc_mean(chunks())


def overall_success(strategy: Strategy, eta_same: float) -> float:
    """Average success weighted by the prior (1 - eta_same) of actually differing."""
    if not 0.0 < eta_same < 1.0:
        raise ValueError(f"eta_same must lie strictly in (0, 1), got {eta_same}")
    return (1.0 - eta_same) * average_success(strategy)


def verify_no_error(ppovm: Ppovm) -> NoErrorReport:
    """Residuals of the no-error conditions for a claimed unambiguous comparator; reports, never raises.

    C = [B+ (x) B+, B- (x) B-] is an isometry onto the twirl Choi support, and
    omega_T = C diag(1/d+ .., 1/d- ..) C^dag.  The Choi vector w of every
    identical pair (U, U) lies in range(C) with |w|^2 = d^2.  So one compression
    K = C^dag M_diff C gives both tr(omega_T M_diff) = tr K_++ / d+ + tr K_-- / d-
    and p_diff(U, U) <= d^2 lambda_max(K) for every U.  tr(M_same)/d^2 is
    reported when a 'same' element is present.
    """
    d = qudit_dim(ppovm.d_sys)
    bp, bm = eigenbasis(d, 1), eigenbasis(d, -1)
    c = np.hstack([tensor(bp, bp), tensor(bm, bm)])
    k = c.conj().T @ ppovm.elements[DIFF] @ c
    d_plus, diag = bp.shape[1], np.diagonal(k).real
    twirl_residual = abs(float(diag[:d_plus**2].sum() / d_plus + diag[d_plus**2:].sum() / bm.shape[1]))
    same_residual = None
    if SAME in ppovm.elements:
        same_residual = abs(float(np.trace(ppovm.elements[SAME]).real)) / (d * d)
    return NoErrorReport(
        twirl_residual=twirl_residual,
        identical_pair_bound=max(0.0, d * d * float(np.linalg.eigvalsh(k)[-1])),
        same_residual=same_residual,
    )


def max_psd_scale(base: np.ndarray, k: np.ndarray) -> float:
    """Largest s such that base - s*k stays PSD within ATOL, by bisection to width ATOL.

    k must have unit spectral norm and base spectral norm at most 1 so that
    s = 2 is always infeasible.  A positive return value was checked feasible;
    0 is returned unchecked when no midpoint was, so base itself must be PSD.
    """
    lo, hi = 0.0, 2.0
    while not (hi - lo <= ATOL):
        mid = (lo + hi) / 2
        if float(np.linalg.eigvalsh(base - mid * k)[0]) >= -ATOL:
            lo = mid
        else:
            hi = mid
    return lo


def _cross_schur_complement(rho_t: np.ndarray, bp: np.ndarray, bm: np.ndarray) -> np.ndarray:
    """Shorted operator of B = rho^T (x) I onto the cross subspace S, in the basis of S.

    S is spanned by the columns of [B+ (x) B-, B- (x) B+], B+- = bp, bm.  B commutes with
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

    n = bp.shape[1] * bm.shape[1]
    sigma = np.zeros((2 * n, 2 * n), dtype=complex)
    sigma[:n, :n] = tensor(sh(bp, bm), np.eye(bm.shape[1]))
    sigma[n:, n:] = tensor(sh(bm, bp), np.eye(bp.shape[1]))
    return sigma


def _random_unambiguous_draw(d: int, rng: np.random.Generator,
                             rho: QState | None = None) -> tuple[QState, np.ndarray, float]:
    """(rho, G, lambda) of one random unambiguous PPOVM M_diff = lambda C G C^dag, not formed.

    C = [B+ (x) B-, B- (x) B+] is the isometry onto the cross subspace S, orthogonal to the twirl
    Choi support, and G a random m x m Gram matrix of unit spectral norm, m = 2 d+ d-, so
    tr M_diff = lambda tr G.  lambda is bisected to the largest scale with sigma - lambda G >= -ATOL,
    sigma the shorted operator of rho^T (x) I onto S.  That is positivity of rho^T (x) I - M_diff
    (Anderson & Trapp, SIAM J. Appl. Math. 28 (1975)) if sigma's pseudo-inverse drops no
    eigenvalue of Y^dag (rho^T (x) I) Y, Y onto S's complement.  Those are >= lambda_min(rho), so
    the default rho, drawn full rank, must have lambda_min(rho) > ATOL, else ValueError.  A given
    rho is not checked; a rank-deficient one misaligned with G gives lambda = 0.
    """
    bp, bm = eigenbasis(d, 1), eigenbasis(d, -1)
    dd = d * d
    if rho is None:
        g = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
        mat = g @ g.conj().T
        rho = QState(mat / np.trace(mat).real, [d, d])
        if not (np.linalg.eigvalsh(rho.mat)[0] > ATOL):
            raise ValueError(f"drawn reference state has lambda_min <= {ATOL:.0e}: not full rank")
    elif rho.dim != dd:
        raise DimensionMismatchError(f"rho must live on two qudits of dim {d}")

    m = 2 * bp.shape[1] * bm.shape[1]
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    gram = g @ g.conj().T
    gram /= float(np.linalg.eigvalsh(gram)[-1])
    return rho, gram, max_psd_scale(_cross_schur_complement(rho.mat.T, bp, bm), gram)


def random_unambiguous_ppovm(d: int, rng: np.random.Generator, rho: QState | None = None) -> Ppovm:
    """One _random_unambiguous_draw (see there, also for rho) as a dense Ppovm, both elements checked.

    The full-space oracle for the reduced certificate that bound-scan reads.
    """
    rho, gram, lam = _random_unambiguous_draw(d, rng, rho)
    bp, bm = eigenbasis(d, 1), eigenbasis(d, -1)
    # Columns span {|s_j, a_n>, |a_n, s_j>}; kron acts columnwise.
    cross = np.hstack([tensor(bp, bm), tensor(bm, bp)])
    m_diff = lam * (cross @ gram @ cross.conj().T)
    del cross  # (d^4, m), read no more: freed before the Ppovm checks' peak
    return Ppovm({DIFF: m_diff, INCONCLUSIVE: tensor(rho.mat.T, np.eye(d * d)) - m_diff}, rho)


def uniqueness_probe(ppovm: Ppovm) -> UniquenessProbe:
    """Test whether a no-error PPOVM has the unique bound-saturating structure.

    Saturation forces M_diff = rho^T (x) P+ with rho supported on the
    antisymmetric subspace; the probe reports the largest of the success,
    structure and support residuals.  Callers should verify the no-error
    conditions first.
    """
    d = qudit_dim(ppovm.d_sys)
    m_diff = ppovm.elements[DIFF]
    rho_t = ppovm.rho.mat.T

    success_residual = abs(float(np.trace(m_diff).real) / (d * d) - success_bound(d))
    struct_residual = max_abs(m_diff - tensor(rho_t, projector(d, 1)))
    support_residual = off_eigenspace(rho_t, -1)

    ok = success_residual <= SUM_ATOL and struct_residual <= STRUCT_ATOL and support_residual <= STRUCT_ATOL
    return UniquenessProbe(
        optimal_form=ok,
        deviation=max(success_residual, struct_residual, support_residual),
    )


def identity_phase_gap(r: UnitaryOp) -> float:
    """Frobenius distance from r to the nearest global-phase multiple of I."""
    d = r.dim
    return math.sqrt(max(0.0, 2.0 * (d - abs(np.trace(r.mat)))))


def sequential_witness(w: UnitaryOp, r: UnitaryOp) -> tuple[np.ndarray, np.ndarray]:
    """The matrices U = W R and V = R^dagger W, both distinct from W, with U V = W^2.

    Sequential (one-after-the-other) use of the two boxes therefore cannot
    reveal whether they are equal: the composed channels of (U, V) and
    (W, W) coincide.  r may not be a global-phase multiple of the identity.
    U and V are not checked again: a product of two unitaries that pass at
    ATOL can sit about twice as far from unitary, beyond ATOL.
    """
    if w.dim != r.dim:
        raise DimensionMismatchError(f"dims {w.dim} and {r.dim} differ")
    if identity_phase_gap(r) <= STRUCT_ATOL:
        raise ValueError("r equals the identity up to a global phase")
    return w.mat @ r.mat, r.mat.conj().T @ w.mat
