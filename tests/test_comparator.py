"""Tests for comparison strategies, bounds, uniqueness and witnesses."""

import numpy as np
import pytest

from chancomp import comparator, symmetry
from chancomp.comparator import (
    DIFF,
    INCONCLUSIVE,
    Strategy,
    _cross_schur_complement,
    _random_unambiguous_draw,
    average_success,
    average_success_mc,
    identity_phase_gap,
    make_strategy,
    max_psd_scale,
    overall_success,
    random_unambiguous_ppovm,
    run_pair,
    sequential_witness,
    success_bound,
    uniqueness_probe,
    verify_no_error,
)
from chancomp.haar import haar_sample
from chancomp.linalg import ATOL, STRUCT_ATOL, DimensionMismatchError, is_psd, max_abs, tensor
from chancomp.qobj import (
    Ppovm,
    QState,
    UnitaryOp,
    choi_of_unitary,
    outcome_probability,
    ppovm_from_experiment,
)
from chancomp.symmetry import (
    _uniform_factor,
    eigenbasis,
    off_eigenspace,
    projector,
    random_antisymmetric_state,
    random_symmetric_state,
    twirl_choi,
    uniform_antisymmetric_state,
    uniform_symmetric_state,
)
from dense_oracle import cross_isometry, dense_ppovm, swap_effects, twirl_choi_projector_form

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SINGLET_VEC = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
SINGLET = np.outer(SINGLET_VEC, SINGLET_VEC.conj())


def dense_probability(xi, f, u, v):
    """tr(F (U (x) V) xi (U (x) V)^dag) with the dense d^2 x d^2 matrices."""
    uv = np.kron(u, v)
    return np.trace(f @ uv @ xi @ uv.conj().T).real


def rank_two_state(basis, rng):
    """Random rank-2 mixed state on the column span of basis."""
    g = rng.normal(size=(basis.shape[1], 2)) + 1j * rng.normal(size=(basis.shape[1], 2))
    w = g @ g.conj().T
    return QState(basis @ (w / np.trace(w).real) @ basis.conj().T)


def leaking_state(basis, leak_basis, eps, rng):
    """Pure state sqrt(1 - eps) a + sqrt(eps) s, a and s random unit vectors on the two bases.

    Its block on the span of leak_basis is at most eps, while its cross terms
    are of order sqrt(eps).
    """

    def unit(b):
        c = rng.normal(size=b.shape[1]) + 1j * rng.normal(size=b.shape[1])
        return b @ c / np.linalg.norm(c)

    psi = np.sqrt(1 - eps) * unit(basis) + np.sqrt(eps) * unit(leak_basis)
    return QState(np.outer(psi, psi.conj()))


def basis_leak(x, basis):
    """Oracle for the support residual: max_abs(x - B B^dag x), B the eigenspace's basis."""
    return max_abs(x - basis @ (basis.conj().T @ x))


def factor_and_rebuild(strategy):
    """Factor stack A of the strategy and the xi it rebuilds, sum_k vec(A_k) vec(A_k)^dag."""
    a = strategy._factor
    vecs = a.reshape(len(a), -1)
    return a, vecs.T @ vecs.conj()


def test_twirl_choi_structure():
    for d in range(2, 7):
        omega = twirl_choi(d)
        # The index-map fill against the projector form: equal to rounding (bit for bit at d=4, 6).
        assert max_abs(omega - twirl_choi_projector_form(d)) <= 1e-15
        # A Choi operator of a channel on d^2 dimensions: trace d^2 and PSD, by construction.
        assert abs(np.trace(omega).real - d * d) <= 1e-10
        assert is_psd(omega)
    for d in (2, 3):
        dim_plus, dim_minus = d * (d + 1) // 2, d * (d - 1) // 2
        # support projector and rank d+^2 + d-^2
        rank = int(np.sum(np.linalg.eigvalsh(twirl_choi(d)) > 1e-10))
        assert rank == dim_plus ** 2 + dim_minus ** 2
    with pytest.raises(ValueError):
        twirl_choi(1)


def test_twirl_choi_support_projector_from_spectrum():
    d = 2
    p_plus, p_minus = projector(d, 1), projector(d, -1)
    omega = twirl_choi(d)
    vals, vecs = np.linalg.eigh(omega)
    support = (vecs[:, vals > 1e-10]) @ (vecs[:, vals > 1e-10]).conj().T
    direct = tensor(p_plus, p_plus) + tensor(p_minus, p_minus)
    assert max_abs(support - direct) <= 1e-10


def test_twirl_choi_is_mean_of_identical_pairs():
    rng = np.random.default_rng(40)
    d, n = 2, 5000
    acc = np.zeros((16, 16), dtype=complex)
    for _ in range(n):
        u = haar_sample(d, rng)
        acc += choi_of_unitary(UnitaryOp(np.kron(u.mat, u.mat)))
    assert max_abs(acc / n - twirl_choi(d)) <= 0.05


def test_identical_pair_choi_supported_inside_twirl_choi():
    rng = np.random.default_rng(41)
    for d in (2, 3):
        p_plus, p_minus = projector(d, 1), projector(d, -1)
        support = tensor(p_plus, p_plus) + tensor(p_minus, p_minus)
        comp = np.eye(support.shape[0]) - support
        for _ in range(5):
            u = haar_sample(d, rng)
            omega = choi_of_unitary(UnitaryOp(np.kron(u.mat, u.mat)))
            assert max_abs(comp @ omega @ comp) <= 1e-10


def test_make_strategy_qubit_optimal():
    xi = QState(SINGLET, [2, 2])
    assert max_abs(factor_and_rebuild(make_strategy("antisym_optimal", xi))[1] - SINGLET) <= 1e-12
    elements = dense_ppovm(xi, "antisym_optimal").elements
    assert max_abs(elements["diff"] - tensor(SINGLET.T, projector(2, 1))) <= 1e-12
    assert max_abs(elements["inconclusive"] - tensor(SINGLET.T, projector(2, -1))) <= 1e-12
    assert set(elements) == {"diff", "inconclusive"}  # no 'same' element


def test_make_strategy_symmetric_product_state():
    ket00 = np.zeros((4, 4), dtype=complex)
    ket00[0, 0] = 1.0
    strategy = make_strategy("symmetric", QState(ket00, [2, 2]))
    assert abs(average_success(strategy) - 0.25) <= 1e-12


def test_make_strategy_rejects_support_mismatch():
    ket00 = np.zeros((4, 4), dtype=complex)
    ket00[0, 0] = 1.0
    with pytest.raises(ValueError, match=r"outside the antisym_optimal subspace \(largest entry off it 1\.0e\+00 > 1e-10\)"):
        make_strategy("antisym_optimal", QState(ket00, [2, 2]))
    with pytest.raises(ValueError):
        make_strategy("symmetric", QState(SINGLET, [2, 2]))
    for kind in ("bogus", "", "Symmetric"):
        with pytest.raises(ValueError, match="unknown strategy kind"):
            make_strategy(kind, QState(SINGLET, [2, 2]))
        with pytest.raises(ValueError, match="unknown strategy kind"):
            Strategy(QState(SINGLET, [2, 2]), kind)


def test_make_strategy_rejects_cross_block_leakage():
    # A state whose block on the wrong subspace stays below ATOL still leaks
    # through its cross terms; the support test measures those too.
    rng = np.random.default_rng(69)
    for d in (2, 3, 4):
        bp, bm = eigenbasis(d, 1), eigenbasis(d, -1)
        for kind, basis, leak_basis, p_leak in (
            ("antisym_optimal", bm, bp, projector(d, 1)),
            ("symmetric", bp, bm, projector(d, -1)),
        ):
            xi = leaking_state(basis, leak_basis, 5e-11, rng)
            assert max_abs(p_leak @ xi.mat @ p_leak) <= 1e-10
            for build in (make_strategy, lambda kind, xi: Strategy(xi, kind)):
                with pytest.raises(ValueError, match=rf"outside the {kind} subspace \(largest entry off it .* > 1e-10\)"):
                    build(kind, xi)


def test_support_residual_matches_basis_oracle():
    # (x - s S x) / 2 against x - B B^dag x: states on the eigenspace, states
    # leaking out of it through cross terms, and random full-rank states.
    rng = np.random.default_rng(71)
    for d in range(2, 7):
        bp, bm = eigenbasis(d, 1), eigenbasis(d, -1)
        for s, basis, leak_basis, sample in (
            (-1, bm, bp, random_antisymmetric_state),
            (1, bp, bm, random_symmetric_state),
        ):
            g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            full_rank = g @ g.conj().T
            cases = [
                (sample(d, "pure", rng).mat, True),
                (sample(d, "mixed", rng).mat, True),
                (leaking_state(basis, leak_basis, 5e-11, rng).mat, False),
                (leaking_state(basis, leak_basis, 1e-7, rng).mat, False),
                (full_rank / np.trace(full_rank).real, False),
            ]
            for x, on_subspace in cases:
                for m in (x, x.T):
                    got, want = off_eigenspace(m, s), basis_leak(m, basis)
                    assert abs(got - want) <= 1e-14
                    assert (got <= ATOL) == (want <= ATOL) == on_subspace


def random_factor(d, s, r, rng):
    """Random unit-trace factor stack (r, d, d) on the swap eigenspace of eigenvalue s."""
    g = rng.normal(size=(r, d, d)) + 1j * rng.normal(size=(r, d, d))
    a = g + s * g.swapaxes(-1, -2)
    return a / np.sqrt(np.vdot(a, a).real)


def test_run_pair_no_error_on_identical_channels():
    # Both named strategies are unambiguous: identical channels, also up to
    # a global phase, never trigger the conclusive outcome.  W +- W^T is exactly
    # (anti)symmetric, so p_diff is rounding squared (the norm - overlap form
    # ||W||^2 - <W^T|W> would leave about 1e-16).
    rng = np.random.default_rng(42)
    for d in range(2, 9):
        strategies = []
        for kind, s, sampler in (("antisym_optimal", -1, random_antisymmetric_state),
                                 ("symmetric", 1, random_symmetric_state)):
            strategies += [make_strategy(kind, sampler(d, "mixed", rng)), make_strategy(kind, random_factor(d, s, 3, rng))]
        for strategy in strategies:
            for _ in range(50):
                u = haar_sample(d, rng)
                phased = UnitaryOp(np.exp(1j * rng.uniform(0, 2 * np.pi)) * u.mat)
                assert run_pair(strategy, u, u).p_diff <= 1e-24
                assert run_pair(strategy, u, phased).p_diff <= 1e-24


def test_run_pair_probabilities_sum_to_exactly_one():
    # The two elements sum to xi^T (x) I, so the swap is measured once and
    # p_inconclusive = 1 - p_diff: the pair sums to 1.0 exactly, not to rounding.
    rng = np.random.default_rng(78)
    for d in range(2, 9):
        for kind, s, sampler in (("antisym_optimal", -1, random_antisymmetric_state),
                                 ("symmetric", 1, random_symmetric_state)):
            strategies = [make_strategy(kind, sampler(d, "mixed", rng)), make_strategy(kind, sampler(d, "pure", rng)),
                          make_strategy(kind, random_factor(d, s, 2, rng)), make_strategy(kind, _uniform_factor(d, s))]
            for strategy in strategies:
                for _ in range(4):
                    u, v = haar_sample(d, rng), haar_sample(d, rng)
                    for pair in ((u, v), (u, u)):
                        report = run_pair(strategy, *pair)
                        assert report.p_diff + report.p_inconclusive == 1.0


def test_inconclusive_element_is_psd():
    # The complement rho^T (x) I - M_diff of the optimal strategy stays PSD.
    rng = np.random.default_rng(41)
    for d in (2, 3):
        xi = random_antisymmetric_state(d, "mixed", rng)
        elements = dense_ppovm(xi, "antisym_optimal").elements
        complement = tensor(xi.mat.T, np.eye(d * d)) - elements["diff"]
        assert np.linalg.eigvalsh(complement)[0] >= -1e-9
        assert max_abs(complement - elements["inconclusive"]) <= 1e-12


def test_run_pair_qubit_values():
    strategy = make_strategy("antisym_optimal", QState(SINGLET, [2, 2]))
    eye = UnitaryOp(np.eye(2))
    report = run_pair(strategy, eye, UnitaryOp(SX), seed=5)
    assert abs(report.p_diff - 1.0) <= 1e-12
    assert report.verdict == "different"
    assert report.seed == 5

    rng = np.random.default_rng(43)
    for _ in range(25):
        v = haar_sample(2, rng)
        report = run_pair(strategy, eye, v)
        closed_form = 1.0 - abs(np.trace(v.mat)) ** 2 / 4
        assert abs(report.p_diff - closed_form) <= 1e-10
        assert abs(report.p_diff + report.p_inconclusive - 1.0) <= 1e-9


def test_run_pair_closed_form_general_pairs():
    strategy = make_strategy("antisym_optimal", QState(SINGLET, [2, 2]))
    rng = np.random.default_rng(44)
    for _ in range(25):
        u, v = haar_sample(2, rng), haar_sample(2, rng)
        report = run_pair(strategy, u, v)
        closed_form = 1.0 - abs(np.trace(u.mat.conj().T @ v.mat)) ** 2 / 4
        assert abs(report.p_diff - closed_form) <= 1e-10
        expected = dense_probability(SINGLET, swap_effects(2, "antisym_optimal")[DIFF], u.mat, v.mat)
        assert abs(report.p_diff - expected) <= 1e-10


def test_run_pair_matches_explicit_choi_trace():
    # Differential test: the factorised probabilities against the dense
    # process-POVM elements built from the same xi.
    rng = np.random.default_rng(45)
    for d in (2, 3, 4):
        for kind, sampler in (("antisym_optimal", random_antisymmetric_state),
                              ("symmetric", random_symmetric_state)):
            for purity in ("pure", "mixed"):
                xi = sampler(d, purity, rng)
                strategy, elements = make_strategy(kind, xi), dense_ppovm(xi, kind).elements
                assert abs(average_success(strategy)
                           - np.trace(elements["diff"]).real / (d * d)) <= 1e-12
                for _ in range(3):
                    u, v = haar_sample(d, rng), haar_sample(d, rng)
                    omega = choi_of_unitary(UnitaryOp(np.kron(u.mat, v.mat)))
                    report = run_pair(strategy, u, v)
                    assert abs(report.p_diff - outcome_probability(omega, elements["diff"])) <= 1e-12
                    assert abs(report.p_inconclusive
                               - outcome_probability(omega, elements["inconclusive"])) <= 1e-12


def test_run_pair_matches_dense_state_oracle():
    # Differential test of the rank-factored evaluation against the state
    # sent through U (x) V densely, for pure, mixed, uniform and rank-2 xi.
    rng = np.random.default_rng(65)
    for d in (2, 3, 4, 5, 6, 8):
        for kind, sampler, uniform, basis in (
            ("antisym_optimal", random_antisymmetric_state, uniform_antisymmetric_state, eigenbasis(d, -1)),
            ("symmetric", random_symmetric_state, uniform_symmetric_state, eigenbasis(d, 1)),
        ):
            states = [sampler(d, "pure", rng), sampler(d, "mixed", rng), uniform(d)]
            if basis.shape[1] > 2:
                states.append(rank_two_state(basis, rng))
            for xi in states:
                strategy = make_strategy(kind, xi)
                for _ in range(2):
                    u, v = haar_sample(d, rng), haar_sample(d, rng)
                    for pair in ((u, v), (u, u)):
                        report = run_pair(strategy, *pair)
                        mats = [g.mat for g in pair]
                        for p, label in ((report.p_diff, DIFF), (report.p_inconclusive, INCONCLUSIVE)):
                            expected = dense_probability(xi.mat, swap_effects(d, kind)[label], *mats)
                            assert abs(p - expected) <= 1e-12


def test_rank_factor_rebuilds_xi_with_its_rank():
    rng = np.random.default_rng(66)
    for d in (2, 3, 5, 6):
        dim_plus, dim_minus = d * (d + 1) // 2, d * (d - 1) // 2
        cases = [
            ("antisym_optimal", random_antisymmetric_state(d, "pure", rng), 1),
            ("symmetric", random_symmetric_state(d, "pure", rng), 1),
            ("antisym_optimal", uniform_antisymmetric_state(d), dim_minus),
            ("symmetric", uniform_symmetric_state(d), dim_plus),
            ("symmetric", rank_two_state(eigenbasis(d, 1), rng), 2),
            ("antisym_optimal", random_antisymmetric_state(d, "mixed", rng), dim_minus),
        ]
        for kind, xi, rank in cases:
            a, rebuilt = factor_and_rebuild(make_strategy(kind, xi))
            assert a.shape == (rank, d, d)
            assert max_abs(rebuilt - xi.mat) <= 1e-10


def test_qstate_strategies_and_samplers_read_no_split(monkeypatch):
    # The QState factor and the subspace samplers read the eigenbasis alone; with
    # projector refused they give bit for bit what they give on the cached bases.
    refs = []
    for d in range(2, 7):
        for kind, sampler, basis in (("antisym_optimal", random_antisymmetric_state, eigenbasis(d, -1)),
                                     ("symmetric", random_symmetric_state, eigenbasis(d, 1))):
            for purity in ("pure", "mixed"):
                seed = 100 * d + len(refs)
                xi = QState(symmetry._subspace_state(basis, purity, np.random.default_rng(seed)), [d, d])
                vals, vecs = np.linalg.eigh(basis.conj().T @ xi.mat @ basis)
                keep = vals > ATOL
                factor = (basis @ (vecs[:, keep] * np.sqrt(vals[keep]))).T.reshape(-1, d, d)
                refs.append((d, kind, sampler, purity, seed, xi, factor))

    def refuse(d, s):
        raise AssertionError(f"projector({d}, {s}) called")

    monkeypatch.setattr(comparator, "projector", refuse)
    monkeypatch.setattr(symmetry, "projector", refuse)
    for d, kind, sampler, purity, seed, xi, factor in refs:
        assert np.array_equal(sampler(d, purity, np.random.default_rng(seed)).mat, xi.mat)
        assert np.array_equal(make_strategy(kind, xi)._factor, factor)


def factor_leak(a, kind):
    """Largest entry of (A_k - s A_k^T) / 2, the factor's part off xi's swap eigenspace of eigenvalue s."""
    diff_sign = 1 if kind == "antisym_optimal" else -1  # s = -diff_sign
    return max_abs(a + diff_sign * a.swapaxes(-1, -2)) / 2


def haar_stacks(d, n, rng):
    return (np.stack([haar_sample(d, rng).mat for _ in range(n)]) for _ in range(2))


def test_factor_and_state_strategies_agree():
    # On states of the eigenspace the factor's leak equals off_eigenspace of
    # the xi it rebuilds, and a strategy built from a factor gives the
    # probabilities of the one built from the QState.  The factor differs
    # from the QState path's: the closed form for the uniform states, an
    # ancilla rotation A'_k = sum_j W_kj A_j of the eigh factor otherwise.
    rng = np.random.default_rng(73)
    for d in range(2, 7):
        for kind, s, sampler, uniform in (
            ("antisym_optimal", -1, random_antisymmetric_state, uniform_antisymmetric_state),
            ("symmetric", 1, random_symmetric_state, uniform_symmetric_state),
        ):
            cases = [(uniform(d), _uniform_factor(d, s))]
            for purity in ("pure", "mixed"):
                xi = sampler(d, purity, rng)
                a = make_strategy(kind, xi)._factor
                w = haar_sample(len(a), rng).mat
                cases.append((xi, np.einsum("kj,jab->kab", w, a)))
            u, v = haar_stacks(d, 4, rng)
            for xi, a in cases:
                from_state, from_factor = make_strategy(kind, xi), Strategy(a, kind)
                rebuilt = factor_and_rebuild(from_factor)[1]
                assert abs(factor_leak(a, kind) - off_eigenspace(rebuilt, s)) <= 1e-14
                assert max_abs(rebuilt - xi.mat) <= 1e-14
                got, want = (comparator._p_diff(st, u, v) for st in (from_factor, from_state))
                assert max_abs(got - want) <= 1e-14


def test_factor_leak_brackets_dense_support_residual():
    # For a factor leaking out of the eigenspace, xi's leak (I - P) xi = L A^dag
    # with L the factor's off part: leak^2 <= off_eigenspace(xi) <= sqrt(r) leak.
    rng = np.random.default_rng(74)
    for d in (2, 3, 5):
        for kind, s in (("antisym_optimal", -1), ("symmetric", 1)):
            on = _uniform_factor(d, s)
            for eps in (1e-7, 1e-3, 0.3):
                g = rng.normal(size=on.shape) + 1j * rng.normal(size=on.shape)
                a = on + eps * (g + s * g.swapaxes(-1, -2))  # adds a part of the other symmetry
                a /= np.sqrt(np.vdot(a, a).real)
                leak = factor_leak(a, kind)
                vecs = a.reshape(len(a), -1)
                dense = off_eigenspace(vecs.T @ vecs.conj(), s)
                assert leak**2 * (1 - 1e-9) <= dense <= np.sqrt(len(a)) * leak * (1 + 1e-9)


def test_make_strategy_rejects_bad_factors():
    a = _uniform_factor(3, -1)
    leaking = a.copy()
    leaking[0, 0, 0] = 1e-7  # A_0 + A_0^T has 2e-7 on the diagonal
    with pytest.raises(ValueError, match=r"outside the antisym_optimal subspace \(largest entry off it 1\.0e-07 > 1e-10\)"):
        make_strategy("antisym_optimal", leaking / np.sqrt(np.vdot(leaking, leaking).real))
    with pytest.raises(ValueError, match="has trace"):
        make_strategy("antisym_optimal", a * np.sqrt(1 + 1e-9))
    nan = a.copy()
    nan[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="has trace nan"):
        make_strategy("antisym_optimal", nan)
    with pytest.raises(ValueError, match=r"outside the symmetric subspace"):
        make_strategy("symmetric", a)
    for shape in ((3, 3), (0, 3, 3), (2, 3, 2), (2, 1, 1)):
        with pytest.raises(DimensionMismatchError):
            make_strategy("antisym_optimal", np.ones(shape))
    make_strategy("antisym_optimal", a * np.sqrt(1 + 1e-11))  # within ATOL


def test_compare_closed_form_on_haar_pairs():
    # With t = tr(U^dag V), p_diff = (d^2 - |t|^2) / (2 d (d -+ 1)) for the
    # uniform antisymmetric (symmetric) test state.
    rng = np.random.default_rng(75)
    for d in (2, 3, 6, 16, 32):
        for kind, s, dim in (("antisym_optimal", -1, d - 1), ("symmetric", 1, d + 1)):
            strategy = make_strategy(kind, _uniform_factor(d, s))
            for _ in range(3):
                u, v = haar_sample(d, rng), haar_sample(d, rng)
                t = np.trace(u.mat.conj().T @ v.mat)
                report = run_pair(strategy, u, v)
                assert abs(report.p_diff - (d * d - abs(t) ** 2) / (2 * d * dim)) <= ATOL
                assert abs(report.p_inconclusive - (1 - report.p_diff)) <= ATOL


def test_probabilities_in_bounded_passes(monkeypatch):
    # Any pass size gives the single-pass probabilities to rounding.
    rng = np.random.default_rng(76)
    strategy = make_strategy("symmetric", random_symmetric_state(4, "mixed", rng))
    u, v = haar_stacks(4, 5, rng)
    whole = comparator._p_diff(strategy, u, v)
    for budget in (1, 16 * 5, 16 * 5 * 3):
        monkeypatch.setattr(comparator, "_CHUNK_ENTRIES", budget)
        assert max_abs(comparator._p_diff(strategy, u, v) - whole) <= 1e-15


def test_stacked_pairs_match_single_pairs(monkeypatch):
    # One call on n pairs gives each pair's own probabilities, for one to three
    # passes over the factor (the single-pair calls take fewer).
    rng = np.random.default_rng(77)
    n = 4
    for d in range(2, 7):
        for kind, s in (("antisym_optimal", -1), ("symmetric", 1)):
            full = d * (d + s) // 2
            for r in sorted({1, 2, full}):
                strategy = make_strategy(kind, random_factor(d, s, r, rng))
                u, v = haar_stacks(d, n, rng)
                for passes in range(1, min(r, 3) + 1):
                    monkeypatch.setattr(comparator, "_CHUNK_ENTRIES", -(-r // passes) * n * d * d)
                    stacked = comparator._p_diff(strategy, u, v)
                    singles = [comparator._p_diff(strategy, u[i:i + 1], v[i:i + 1]) for i in range(n)]
                    assert max_abs(stacked - np.hstack(singles)) <= 1e-15


def test_run_pair_dimension_mismatch():
    strategy = make_strategy("antisym_optimal", QState(SINGLET, [2, 2]))
    rng = np.random.default_rng(46)
    with pytest.raises(DimensionMismatchError):
        run_pair(strategy, haar_sample(3, rng), haar_sample(3, rng))


def test_run_pair_verdict_sampling_is_seeded():
    strategy = make_strategy("antisym_optimal", QState(SINGLET, [2, 2]))
    rng = np.random.default_rng(47)
    u, v = haar_sample(2, rng), haar_sample(2, rng)
    a = run_pair(strategy, u, v, seed=11)
    b = run_pair(strategy, u, v, seed=11)
    assert a == b
    # The verdict is the seed's first uniform draw against p_diff.
    verdicts = set()
    for seed in range(200):
        report = run_pair(strategy, u, v, seed=seed)
        assert report.verdict == ("different" if np.random.default_rng(seed).random() < report.p_diff else "inconclusive")
        verdicts.add(report.verdict)
    assert verdicts == {"different", "inconclusive"}


def test_average_success_values():
    assert abs(average_success(make_strategy("antisym_optimal", uniform_antisymmetric_state(2))) - 0.75) <= 1e-12
    assert abs(average_success(make_strategy("antisym_optimal", uniform_antisymmetric_state(3))) - 2 / 3) <= 1e-12
    assert abs(average_success(make_strategy("symmetric", uniform_symmetric_state(2))) - 0.25) <= 1e-12


def test_average_success_saturation_independent_of_test_state():
    rng = np.random.default_rng(48)
    for d in (2, 3, 4):
        for purity in ("pure", "mixed"):
            strategy = make_strategy("antisym_optimal", random_antisymmetric_state(d, purity, rng))
            assert abs(average_success(strategy) - success_bound(d)) <= 1e-12


def test_average_success_mc_agrees_with_analytic():
    rng = np.random.default_rng(49)
    strategy = make_strategy("antisym_optimal", uniform_antisymmetric_state(2))
    est = average_success_mc(strategy, 3000, rng)
    assert abs(est.mean - 0.75) <= 5 * est.std_error


def test_overall_success():
    optimal = make_strategy("antisym_optimal", uniform_antisymmetric_state(2))
    symmetric = make_strategy("symmetric", uniform_symmetric_state(2))
    assert abs(overall_success(optimal, 0.5) - 0.375) <= 1e-12
    assert abs(overall_success(symmetric, 0.5) - 0.125) <= 1e-12
    assert overall_success(optimal, 1 - 1e-12) <= 1e-9  # vanishes as the prior peaks
    for eta in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            overall_success(optimal, eta)


def test_verify_no_error_on_sound_strategies():
    rng = np.random.default_rng(50)
    for d in (2, 3):
        report = verify_no_error(dense_ppovm(random_antisymmetric_state(d, "mixed", rng), "antisym_optimal"))
        assert report.max_residual <= 1e-10
        assert report.identical_pair_bound <= 1e-10
        assert report.same_residual is None


def test_verify_no_error_flags_wrong_pairing():
    # Conclusive effect on P- with an antisymmetric test state is not
    # unambiguous: identical channels trigger it with certainty.
    rng = np.random.default_rng(51)
    xi = random_antisymmetric_state(3, "pure", rng)
    elements = {
        "diff": tensor(xi.mat.T, projector(3, -1)),
        "inconclusive": tensor(xi.mat.T, projector(3, 1)),
    }
    report = verify_no_error(Ppovm(elements, xi))
    assert report.twirl_residual > 0.5
    assert report.identical_pair_bound > 0.5


def test_verify_no_error_bounds_half_firing_ppovm():
    # A PPOVM that fires 'diff' on identical boxes half the time must not pass:
    # the bound covers every U, so it reads at least the sampled 1/2.
    xi = QState(SINGLET, [2, 2])
    half = tensor(xi.mat.T, np.eye(4) / 2)
    report = verify_no_error(Ppovm({DIFF: half, INCONCLUSIVE: half}, xi))
    assert report.identical_pair_bound >= 0.5
    assert report.max_residual >= 0.5


def test_verify_no_error_reports_elements_psd_within_tolerance():
    # M_diff - eps I with the inconclusive element + eps I is accepted by Ppovm
    # (both PSD within ATOL); the check must report it, not raise on a
    # slightly negative identical-pair probability.
    eps = 0.9e-10
    rng = np.random.default_rng(56)
    for d in (2, 3):
        sound = dense_ppovm(random_antisymmetric_state(d, "mixed", rng), "antisym_optimal")
        shift = eps * np.eye(d**4)
        ppovm = Ppovm({DIFF: sound.elements[DIFF] - shift,
                       INCONCLUSIVE: sound.elements[INCONCLUSIVE] + shift}, sound.rho)
        report = verify_no_error(ppovm)
        assert report.identical_pair_bound == 0.0
        assert abs(report.twirl_residual - d * d * eps) <= 1e-12  # tr(omega_T) = d^2


def test_verify_no_error_bounds_per_draw_oracle():
    # The bound d^2 lambda_max(C^dag M_diff C) against tr(omega_{U,U} M_diff) drawn
    # one pair at a time, for an effect whose score varies per draw; the twirl
    # residual against the dense twirl Choi operator; the bound against the same
    # compression on the twirl's eigenvectors, which does not use C.
    for d in (2, 3):
        rng = np.random.default_rng(54 + d)
        g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        rho = g @ g.conj().T
        xi = QState(rho / np.trace(rho).real, [d, d])
        ket00 = np.zeros((d * d, d * d), dtype=complex)
        ket00[0, 0] = 1.0
        ppovm = ppovm_from_experiment(xi, {"diff": ket00, "inconclusive": np.eye(d * d) - ket00})
        m_diff = ppovm.elements["diff"]
        report = verify_no_error(ppovm)
        oracle = []
        for _ in range(300):
            u = haar_sample(d, rng).mat
            omega = choi_of_unitary(UnitaryOp(np.kron(u, u)))
            oracle.append(outcome_probability(omega, m_diff))
        assert 0.0 < max(oracle) < 1.0
        assert max(oracle) <= report.identical_pair_bound + ATOL
        omega_t = twirl_choi(d)
        assert abs(report.twirl_residual - abs(np.trace(omega_t @ m_diff).real)) <= 1e-12
        vals, vecs = np.linalg.eigh(omega_t)
        q = vecs[:, vals > ATOL]
        spectrum = d * d * np.linalg.eigvalsh(q.conj().T @ m_diff @ q)[-1]
        assert abs(report.identical_pair_bound - spectrum) <= 1e-12


def test_verify_no_error_flags_same_element():
    xi = QState(SINGLET, [2, 2])
    elements = {
        "diff": tensor(xi.mat.T, projector(2, 1)),
        "same": 0.5 * tensor(xi.mat.T, projector(2, -1)),
        "inconclusive": 0.5 * tensor(xi.mat.T, projector(2, -1)),
    }
    report = verify_no_error(Ppovm(elements, xi))
    assert report.same_residual is not None and report.same_residual > 0.01
    assert report.max_residual >= report.same_residual


def test_checks_reading_m_diff_name_the_labels_of_a_ppovm_without_one():
    xi = QState(SINGLET, [2, 2])
    ppovm = ppovm_from_experiment(xi, {"plus": projector(2, 1), "minus": projector(2, -1)})
    for check in (verify_no_error, uniqueness_probe):
        with pytest.raises(ValueError, match=r"'diff' element, got labels \['minus', 'plus'\]"):
            check(ppovm)


def test_random_unambiguous_ppovm_properties():
    rng = np.random.default_rng(53)
    with pytest.raises(ValueError):
        random_unambiguous_ppovm(1, rng)
    for d in (2, 3):
        bound = success_bound(d)
        for _ in range(100):
            ppovm = random_unambiguous_ppovm(d, rng)
            success = np.trace(ppovm.elements["diff"]).real / (d * d)
            assert success <= bound + 1e-9
        report = verify_no_error(ppovm)
        assert report.max_residual <= 1e-9
        assert report.identical_pair_bound <= 1e-10


def test_random_unambiguous_ppovm_degenerate_rho():
    # A test state orthogonal to the conclusive operator's support forces
    # the scale to zero: the strategy is vacuous but still valid.
    rng = np.random.default_rng(54)
    ppovm = random_unambiguous_ppovm(2, rng, rho=QState(SINGLET, [2, 2]))
    assert max_abs(ppovm.elements["diff"]) <= 1e-9
    assert np.trace(ppovm.elements["diff"]).real / 4 <= 1e-9
    with pytest.raises(DimensionMismatchError):
        random_unambiguous_ppovm(2, rng, rho=QState(np.eye(9) / 9))


def test_default_draw_refuses_a_reference_state_without_full_rank():
    # The cross-subspace certificate needs lambda_min(rho) > ATOL.  A generator whose
    # normal draws are all ones makes the default rho = ones / d^2, of rank one.
    class AllOnes:
        def normal(self, size):
            return np.ones(size)

    for draw in (_random_unambiguous_draw, random_unambiguous_ppovm):
        with pytest.raises(ValueError, match="lambda_min"):
            draw(2, AllOnes())


def test_max_psd_scale_monotone_case():
    # base = I, k = diag(1, 1/2): the exact maximum is 1.
    base = np.eye(2, dtype=complex)
    k = np.diag([1.0, 0.5]).astype(complex)
    lam = max_psd_scale(base, k)
    assert abs(lam - 1.0) <= 1e-9


def _check_against_full_space_oracle(d, draws, seed, rho=None):
    # Differential test: the draw's bisection on the m-dim Schur complement against
    # the same bisection on the d^4-dim operator rho^T (x) I - s K, and the dense
    # PPOVM built from the same seed against lambda K.
    bp, bm = eigenbasis(d, 1), eigenbasis(d, -1)
    cross = cross_isometry(bp, bm)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        ppovm = random_unambiguous_ppovm(d, rng, rho=rho)
        drawn_rho, gram, lam = _random_unambiguous_draw(d, twin, rho)
        k = cross @ gram @ cross.conj().T
        oracle = max_psd_scale(tensor(drawn_rho.mat.T, np.eye(d * d)), k)
        assert lam <= oracle
        assert oracle - lam <= 1e-8
        assert max_abs(ppovm.elements["diff"] - lam * k) <= 1e-12
        assert np.linalg.eigvalsh(ppovm.elements["inconclusive"])[0] >= -1e-10


def test_reduced_bound_search_matches_full_space_oracle():
    _check_against_full_space_oracle(2, 200, 60)
    _check_against_full_space_oracle(3, 50, 61)


def test_reduced_bound_search_rank_deficient_and_ill_conditioned_rho():
    d = 3
    rng = np.random.default_rng(62)
    g = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    rank_two = g @ g.conj().T
    u = haar_sample(9, rng).mat
    spectrum = np.logspace(0, -8, 9)  # condition number 1e8
    ill_conditioned = u @ np.diag(spectrum / spectrum.sum()) @ u.conj().T
    for rho in (uniform_antisymmetric_state(d),
                QState(rank_two / np.trace(rank_two).real, [d, d]),
                QState(ill_conditioned, [d, d])):
        _check_against_full_space_oracle(d, 5, 63, rho=rho)


def test_cross_schur_complement_matches_dense_shorted_operator():
    # sigma = C^dag B C - C^dag B Y (Y^dag B Y)^+ Y^dag B C with B = rho^T (x) I,
    # C onto the cross subspace and Y onto its complement, built densely.
    rng = np.random.default_rng(64)
    for d in (2, 3):
        bp, bm = eigenbasis(d, 1), eigenbasis(d, -1)
        dd = d * d
        g = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
        rho_t = (g @ g.conj().T / np.trace(g @ g.conj().T).real).T
        b = tensor(rho_t, np.eye(dd))
        c = cross_isometry(bp, bm)
        y = np.hstack([np.kron(bp, bp), np.kron(bm, bm)])
        cb, yb = c.conj().T @ b, y.conj().T @ b
        dense = cb @ c - cb @ y @ np.linalg.pinv(yb @ y) @ yb @ c
        assert max_abs(_cross_schur_complement(rho_t, bp, bm) - dense) <= 1e-12


def test_uniqueness_probe_accepts_optimal():
    rng = np.random.default_rng(55)
    for d in (2, 3):
        for purity in ("pure", "mixed"):
            probe = uniqueness_probe(dense_ppovm(random_antisymmetric_state(d, purity, rng), "antisym_optimal"))
            assert probe.optimal_form
            assert probe.deviation <= 1e-9


def test_uniqueness_probe_rejects_symmetric_and_random():
    rng = np.random.default_rng(56)
    probe = uniqueness_probe(dense_ppovm(random_symmetric_state(3, "mixed", rng), "symmetric"))
    assert not probe.optimal_form
    assert probe.deviation > 1e-3

    for d in (2, 3):
        for _ in range(20):
            ppovm = random_unambiguous_ppovm(d, rng)
            probe = uniqueness_probe(ppovm)
            assert not probe.optimal_form
            # deviating PPOVMs sit measurably below the bound
            success = np.trace(ppovm.elements["diff"]).real / (d * d)
            assert success < success_bound(d) - 0.01
            assert probe.deviation > 1e-3


def test_uniqueness_probe_rejects_leaking_reference_state():
    # M_diff = rho^T (x) P+ at the bound, but rho leaks into the symmetric
    # subspace through cross terms while its symmetric block stays small.
    rng = np.random.default_rng(70)
    for d in (2, 3):
        p_plus, p_minus = projector(d, 1), projector(d, -1)
        rho = leaking_state(eigenbasis(d, -1), eigenbasis(d, 1), 1e-7, rng)
        rho_t = rho.mat.T
        assert max_abs(p_plus @ rho_t @ p_plus) <= STRUCT_ATOL
        ppovm = Ppovm({DIFF: tensor(rho_t, p_plus), INCONCLUSIVE: tensor(rho_t, p_minus)}, rho)
        probe = uniqueness_probe(ppovm)
        assert not probe.optimal_form
        assert probe.deviation > STRUCT_ATOL


def test_sequential_witness_identity_case():
    w = UnitaryOp(np.eye(2))
    r = UnitaryOp(SX)
    u, v = sequential_witness(w, r)
    assert max_abs(u - SX) <= 1e-12
    assert max_abs(v - SX) <= 1e-12
    assert max_abs(u @ v - np.eye(2)) <= 1e-12


def test_sequential_witness_random_pairs():
    rng = np.random.default_rng(57)
    for d in (2, 3):
        for _ in range(10):
            w, r = haar_sample(d, rng), haar_sample(d, rng)
            u, v = sequential_witness(w, r)
            assert max_abs(u @ v - w.mat @ w.mat) <= 1e-10
            # both factors genuinely differ from w (up to global phase)
            assert identity_phase_gap(UnitaryOp(w.mat.conj().T @ u)) > 1e-6
            assert identity_phase_gap(UnitaryOp(w.mat.conj().T @ v)) > 1e-6
            # and the composed channels are indistinguishable
            uv = UnitaryOp(u @ v)
            ww = UnitaryOp(w.mat @ w.mat)
            assert max_abs(choi_of_unitary(uv) - choi_of_unitary(ww)) <= 1e-10


def test_sequential_witness_does_not_recheck_its_products():
    # W sits 9.0e-11 from unitary, inside ATOL; W^2 and the products sit about
    # twice as far, and come back as plain arrays all the same.
    w = UnitaryOp(np.diag([1 + 4.5e-11, 1]))
    u, v = sequential_witness(w, UnitaryOp(np.diag([1.0, -1.0])))
    assert isinstance(u, np.ndarray) and isinstance(v, np.ndarray)
    assert max_abs(u @ v - w.mat @ w.mat) <= 1e-15
    r = UnitaryOp(np.diag([1 + 4.5e-11, -1]))
    u, v = sequential_witness(w, r)
    assert np.array_equal(u, w.mat @ r.mat) and np.array_equal(v, r.mat.conj().T @ w.mat)


def test_sequential_witness_rejects_identity_r():
    rng = np.random.default_rng(58)
    w = haar_sample(3, rng)
    with pytest.raises(ValueError):
        sequential_witness(w, UnitaryOp(np.eye(3)))
    with pytest.raises(ValueError):
        sequential_witness(w, UnitaryOp(np.exp(0.7j) * np.eye(3)))
    with pytest.raises(DimensionMismatchError):
        sequential_witness(w, UnitaryOp(np.eye(2)))
