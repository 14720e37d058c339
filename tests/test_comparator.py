"""Tests for comparison strategies, bounds, uniqueness and witnesses."""

import numpy as np
import pytest

from chancomp import comparator
from chancomp.comparator import (
    DIFF,
    INCONCLUSIVE,
    Strategy,
    _cross_schur_complement,
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
    twirl_choi,
    uniqueness_probe,
    verify_no_error,
)
from chancomp.haar import haar_sample
from chancomp.linalg import STRUCT_ATOL, DimensionMismatchError, max_abs, tensor
from chancomp.qobj import (
    Ppovm,
    QState,
    UnitaryOp,
    choi_of_unitary,
    clamp_probability,
    outcome_probability,
    ppovm_from_experiment,
)
from chancomp.symmetry import (
    build_split,
    random_antisymmetric_state,
    random_symmetric_state,
    uniform_antisymmetric_state,
    uniform_symmetric_state,
)

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


def factor_and_rebuild(strategy):
    """Factor stack A of the strategy and the xi it rebuilds, sum_k vec(A_k) vec(A_k)^dag."""
    a = strategy._factor
    vecs = a.reshape(len(a), -1)
    return a, vecs.T @ vecs.conj()


def test_twirl_choi_structure():
    for d in (2, 3):
        split = build_split(d)
        omega = twirl_choi(d)
        assert abs(np.trace(omega.mat).real - d * d) <= 1e-10
        expected = (
            tensor(split.p_plus, split.p_plus) / split.dim_plus
            + tensor(split.p_minus, split.p_minus) / split.dim_minus
        )
        assert max_abs(omega.mat - expected) <= 1e-12
        # support projector and rank d+^2 + d-^2
        rank = int(np.sum(np.linalg.eigvalsh(omega.mat) > 1e-10))
        assert rank == split.dim_plus ** 2 + split.dim_minus ** 2
    with pytest.raises(ValueError):
        twirl_choi(1)


def test_twirl_choi_support_projector_from_spectrum():
    d = 2
    split = build_split(d)
    omega = twirl_choi(d)
    vals, vecs = np.linalg.eigh(omega.mat)
    support = (vecs[:, vals > 1e-10]) @ (vecs[:, vals > 1e-10]).conj().T
    direct = tensor(split.p_plus, split.p_plus) + tensor(split.p_minus, split.p_minus)
    assert max_abs(support - direct) <= 1e-10


def test_twirl_choi_is_mean_of_identical_pairs():
    rng = np.random.default_rng(40)
    d, n = 2, 5000
    acc = np.zeros((16, 16), dtype=complex)
    for _ in range(n):
        u = haar_sample(d, rng)
        acc += choi_of_unitary(UnitaryOp(np.kron(u.mat, u.mat))).mat
    assert max_abs(acc / n - twirl_choi(d).mat) <= 0.05


def test_identical_pair_choi_supported_inside_twirl_choi():
    rng = np.random.default_rng(41)
    for d in (2, 3):
        split = build_split(d)
        support = tensor(split.p_plus, split.p_plus) + tensor(split.p_minus, split.p_minus)
        comp = np.eye(support.shape[0]) - support
        for _ in range(5):
            u = haar_sample(d, rng)
            omega = choi_of_unitary(UnitaryOp(np.kron(u.mat, u.mat))).mat
            assert max_abs(comp @ omega @ comp) <= 1e-10


def test_make_strategy_qubit_optimal():
    strategy = make_strategy("antisym_optimal", QState(SINGLET, [2, 2]))
    split = build_split(2)
    elements = strategy.ppovm.elements
    assert max_abs(elements["diff"] - tensor(SINGLET.T, split.p_plus)) <= 1e-12
    assert max_abs(elements["inconclusive"] - tensor(SINGLET.T, split.p_minus)) <= 1e-12
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
        split = build_split(d)
        for kind, basis, leak_basis, p_leak in (
            ("antisym_optimal", split.basis_minus, split.basis_plus, split.p_plus),
            ("symmetric", split.basis_plus, split.basis_minus, split.p_minus),
        ):
            xi = leaking_state(basis, leak_basis, 5e-11, rng)
            assert max_abs(p_leak @ xi.mat @ p_leak) <= 1e-10
            for build in (make_strategy, lambda kind, xi: Strategy(xi, kind)):
                with pytest.raises(ValueError, match=rf"outside the {kind} subspace \(largest entry off it .* > 1e-10\)"):
                    build(kind, xi)


def test_run_pair_no_error_on_identical_channels():
    # Both named strategies are unambiguous: identical channels, also up to
    # a global phase, never trigger the conclusive outcome.
    rng = np.random.default_rng(42)
    for d in (2, 3, 4, 5, 6):
        strategies = [
            make_strategy("antisym_optimal", random_antisymmetric_state(d, "mixed", rng)),
            make_strategy("symmetric", random_symmetric_state(d, "mixed", rng)),
        ]
        for strategy in strategies:
            for _ in range(50):
                u = haar_sample(d, rng)
                phased = UnitaryOp(np.exp(1j * rng.uniform(0, 2 * np.pi)) * u.mat)
                assert run_pair(strategy, u, u).p_diff <= 1e-10
                assert run_pair(strategy, u, phased).p_diff <= 1e-10


def test_inconclusive_element_is_psd():
    # The complement rho^T (x) I - M_diff of the optimal strategy stays PSD.
    rng = np.random.default_rng(41)
    for d in (2, 3):
        strategy = make_strategy("antisym_optimal", random_antisymmetric_state(d, "mixed", rng))
        elements = strategy.ppovm.elements
        complement = tensor(strategy.xi.mat.T, np.eye(d * d)) - elements["diff"]
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
        expected = dense_probability(strategy.xi.mat, strategy.effects[DIFF], u.mat, v.mat)
        assert abs(report.p_diff - expected) <= 1e-10


def test_run_pair_matches_explicit_choi_trace():
    # Differential test: the factorised probabilities against the dense
    # process-POVM elements built by strategy.ppovm.
    rng = np.random.default_rng(45)
    for d in (2, 3, 4):
        for kind, sampler in (("antisym_optimal", random_antisymmetric_state),
                              ("symmetric", random_symmetric_state)):
            for purity in ("pure", "mixed"):
                strategy = make_strategy(kind, sampler(d, purity, rng))
                elements = strategy.ppovm.elements
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
        split = build_split(d)
        for kind, sampler, uniform, basis in (
            ("antisym_optimal", random_antisymmetric_state, uniform_antisymmetric_state, split.basis_minus),
            ("symmetric", random_symmetric_state, uniform_symmetric_state, split.basis_plus),
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
                            expected = dense_probability(xi.mat, strategy.effects[label], *mats)
                            assert abs(p - expected) <= 1e-12


def test_rank_factor_rebuilds_xi_with_its_rank():
    rng = np.random.default_rng(66)
    for d in (2, 3, 5, 6):
        split = build_split(d)
        cases = [
            ("antisym_optimal", random_antisymmetric_state(d, "pure", rng), 1),
            ("symmetric", random_symmetric_state(d, "pure", rng), 1),
            ("antisym_optimal", uniform_antisymmetric_state(d), split.dim_minus),
            ("symmetric", uniform_symmetric_state(d), split.dim_plus),
            ("symmetric", rank_two_state(split.basis_plus, rng), 2),
            ("antisym_optimal", random_antisymmetric_state(d, "mixed", rng), split.dim_minus),
        ]
        for kind, xi, rank in cases:
            a, rebuilt = factor_and_rebuild(make_strategy(kind, xi))
            assert a.shape == (rank, d, d)
            assert max_abs(rebuilt - xi.mat) <= 1e-10


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
        strategy = make_strategy("antisym_optimal", random_antisymmetric_state(d, "mixed", rng))
        report = verify_no_error(strategy.ppovm, 25, rng)
        assert report.max_residual <= 1e-10
        assert report.same_residual is None


def test_verify_no_error_flags_wrong_pairing():
    # Conclusive effect on P- with an antisymmetric test state is not
    # unambiguous: identical channels trigger it with certainty.
    rng = np.random.default_rng(51)
    xi = random_antisymmetric_state(3, "pure", rng)
    split = build_split(3)
    elements = {
        "diff": tensor(xi.mat.T, split.p_minus),
        "inconclusive": tensor(xi.mat.T, split.p_plus),
    }
    report = verify_no_error(Ppovm(elements, xi), 10, rng)
    assert report.twirl_residual > 0.5
    assert report.haar_max_residual > 0.5


def test_verify_no_error_matches_per_draw_oracle(monkeypatch):
    # The stacked identical-pair scores against tr(omega_{U,U} M_diff) drawn one
    # by one from the same seed, for an effect whose score varies per draw, with
    # n on both sides of chunk boundaries; every draw's score is range-checked.
    clamped = []

    def counted(p):
        clamped.append(p)
        return clamp_probability(p)

    monkeypatch.setattr(comparator, "clamp_probability", counted)
    for d in (2, 3):
        rng = np.random.default_rng(54 + d)
        g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        rho = g @ g.conj().T
        xi = QState(rho / np.trace(rho).real, [d, d])
        ket00 = np.zeros((d * d, d * d), dtype=complex)
        ket00[0, 0] = 1.0
        ppovm = ppovm_from_experiment(xi, {"diff": ket00, "inconclusive": np.eye(d * d) - ket00})
        for n in (1, 63, 64, 65, 130):
            clamped.clear()
            report = verify_no_error(ppovm, n, np.random.default_rng(n))
            assert len(clamped) == n
            rng = np.random.default_rng(n)
            oracle = []
            for _ in range(n):
                u = haar_sample(d, rng).mat
                omega = choi_of_unitary(UnitaryOp(np.kron(u, u)))
                oracle.append(outcome_probability(omega, ppovm.elements["diff"]))
            assert report.n_samples == n
            assert 0.0 < max(oracle) < 1.0
            assert abs(report.haar_max_residual - max(oracle)) <= 1e-12


def test_verify_no_error_flags_same_element():
    rng = np.random.default_rng(52)
    xi = QState(SINGLET, [2, 2])
    split = build_split(2)
    elements = {
        "diff": tensor(xi.mat.T, split.p_plus),
        "same": 0.5 * tensor(xi.mat.T, split.p_minus),
        "inconclusive": 0.5 * tensor(xi.mat.T, split.p_minus),
    }
    report = verify_no_error(Ppovm(elements, xi), 5, rng)
    assert report.same_residual is not None and report.same_residual > 0.01
    assert report.max_residual >= report.same_residual


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
        report = verify_no_error(ppovm, 10, rng)
        assert report.max_residual <= 1e-9


def test_random_unambiguous_ppovm_degenerate_rho():
    # A test state orthogonal to the conclusive operator's support forces
    # the scale to zero: the strategy is vacuous but still valid.
    rng = np.random.default_rng(54)
    ppovm = random_unambiguous_ppovm(2, rng, rho=QState(SINGLET, [2, 2]))
    assert max_abs(ppovm.elements["diff"]) <= 1e-9
    assert np.trace(ppovm.elements["diff"]).real / 4 <= 1e-9


def test_max_psd_scale_monotone_case():
    # base = I, k = diag(1, 1/2): the exact maximum is 1.
    base = np.eye(2, dtype=complex)
    k = np.diag([1.0, 0.5]).astype(complex)
    lam = max_psd_scale(base, k)
    assert abs(lam - 1.0) <= 1e-9


def _cross_isometry(split):
    return np.hstack(
        [np.kron(split.basis_plus, split.basis_minus), np.kron(split.basis_minus, split.basis_plus)]
    )


def _redraw_inputs(d, rng, rho=None):
    """The rho and normalised Gram matrix random_unambiguous_ppovm draws from rng."""
    split = build_split(d)
    dd = d * d
    if rho is None:
        g = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
        mat = g @ g.conj().T
        rho = QState(mat / np.trace(mat).real, [d, d])
    m = 2 * split.dim_plus * split.dim_minus
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    gram = g @ g.conj().T
    return rho, gram / np.linalg.eigvalsh(gram)[-1]


def _check_against_full_space_oracle(d, draws, seed, rho=None):
    # Differential test: the bisection on the m-dim Schur complement against
    # the same bisection on the d^4-dim operator rho^T (x) I - s K.
    split = build_split(d)
    cross = _cross_isometry(split)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        ppovm = random_unambiguous_ppovm(d, rng, rho=rho)
        drawn_rho, gram = _redraw_inputs(d, twin, rho)
        k = cross @ gram @ cross.conj().T
        oracle = max_psd_scale(tensor(drawn_rho.mat.T, np.eye(d * d)), k)
        lam = max_psd_scale(_cross_schur_complement(drawn_rho.mat.T, split), gram)
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
        split = build_split(d)
        dd = d * d
        g = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
        rho_t = (g @ g.conj().T / np.trace(g @ g.conj().T).real).T
        b = tensor(rho_t, np.eye(dd))
        c = _cross_isometry(split)
        y = np.hstack([np.kron(split.basis_plus, split.basis_plus),
                       np.kron(split.basis_minus, split.basis_minus)])
        cb, yb = c.conj().T @ b, y.conj().T @ b
        dense = cb @ c - cb @ y @ np.linalg.pinv(yb @ y) @ yb @ c
        assert max_abs(_cross_schur_complement(rho_t, split) - dense) <= 1e-12


def test_uniqueness_probe_accepts_optimal():
    rng = np.random.default_rng(55)
    for d in (2, 3):
        for purity in ("pure", "mixed"):
            strategy = make_strategy("antisym_optimal", random_antisymmetric_state(d, purity, rng))
            probe = uniqueness_probe(strategy.ppovm)
            assert probe.optimal_form
            assert probe.deviation <= 1e-9


def test_uniqueness_probe_rejects_symmetric_and_random():
    rng = np.random.default_rng(56)
    symmetric = make_strategy("symmetric", random_symmetric_state(3, "mixed", rng))
    probe = uniqueness_probe(symmetric.ppovm)
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
        split = build_split(d)
        rho = leaking_state(split.basis_minus, split.basis_plus, 1e-7, rng)
        rho_t = rho.mat.T
        assert max_abs(split.p_plus @ rho_t @ split.p_plus) <= STRUCT_ATOL
        ppovm = Ppovm({DIFF: tensor(rho_t, split.p_plus), INCONCLUSIVE: tensor(rho_t, split.p_minus)}, rho)
        probe = uniqueness_probe(ppovm)
        assert not probe.optimal_form
        assert probe.deviation > STRUCT_ATOL


def test_sequential_witness_identity_case():
    w = UnitaryOp(np.eye(2))
    r = UnitaryOp(SX)
    u, v = sequential_witness(w, r)
    assert max_abs(u.mat - SX) <= 1e-12
    assert max_abs(v.mat - SX) <= 1e-12
    assert max_abs(u.mat @ v.mat - np.eye(2)) <= 1e-12


def test_sequential_witness_random_pairs():
    rng = np.random.default_rng(57)
    for d in (2, 3):
        for _ in range(10):
            w, r = haar_sample(d, rng), haar_sample(d, rng)
            u, v = sequential_witness(w, r)
            assert max_abs(u.mat @ v.mat - w.mat @ w.mat) <= 1e-10
            # both factors genuinely differ from w (up to global phase)
            assert identity_phase_gap(UnitaryOp(w.mat.conj().T @ u.mat)) > 1e-6
            assert identity_phase_gap(UnitaryOp(w.mat.conj().T @ v.mat)) > 1e-6
            # and the composed channels are indistinguishable
            uv = UnitaryOp(u.mat @ v.mat)
            ww = UnitaryOp(w.mat @ w.mat)
            assert max_abs(choi_of_unitary(uv).mat - choi_of_unitary(ww).mat) <= 1e-10


def test_sequential_witness_rejects_identity_r():
    rng = np.random.default_rng(58)
    w = haar_sample(3, rng)
    with pytest.raises(ValueError):
        sequential_witness(w, UnitaryOp(np.eye(3)))
    with pytest.raises(ValueError):
        sequential_witness(w, UnitaryOp(np.exp(0.7j) * np.eye(3)))
    with pytest.raises(DimensionMismatchError):
        sequential_witness(w, UnitaryOp(np.eye(2)))
