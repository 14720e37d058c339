"""Tests for quantum object types and the Choi / process-POVM layer."""

import numpy as np
import pytest

from chancomp.haar import haar_sample
from chancomp.linalg import DimensionMismatchError, max_abs, partial_trace, tensor
from chancomp.qobj import (
    ChoiOp,
    Ppovm,
    QState,
    UnitaryOp,
    choi_of_unitary,
    choi_of_unitary_pair,
    max_entangled,
    max_entangled_vec,
    outcome_probability,
    ppovm_from_experiment,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)

SINGLET_VEC = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
SINGLET = np.outer(SINGLET_VEC, SINGLET_VEC.conj())
# Hand-built qubit exchange projectors: P- is the singlet, P+ the rest.
P_MINUS_2 = SINGLET.copy()
P_PLUS_2 = np.eye(4) - P_MINUS_2


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_povm(rng, n, outcomes):
    """Random POVM via symmetrized Ginibre effects."""
    raw = []
    for _ in range(outcomes):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [inv_sqrt @ e @ inv_sqrt for e in raw]


def test_qstate_validation():
    rho = QState(np.eye(2) / 2)
    assert rho.dim == 2 and rho.dim_factors == [2]
    with pytest.raises(ValueError):
        QState(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        QState(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        QState(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(DimensionMismatchError):
        QState(np.eye(4) / 4, dim_factors=[2, 3])


def test_unitary_validation():
    UnitaryOp(np.eye(3))
    with pytest.raises(ValueError):
        UnitaryOp(np.diag([1.0, 0.5]))


def test_max_entangled_basics():
    vec = max_entangled_vec(2)
    assert np.array_equal(vec, np.array([1, 0, 0, 1], dtype=complex))  # |00> + |11>
    for big_d in (4, 9):
        proj = max_entangled(big_d)
        assert abs(np.trace(proj).real - big_d) <= 1e-12
        marginal = partial_trace(proj / big_d, [big_d, big_d], [0])
        assert max_abs(marginal - np.eye(big_d) / big_d) <= 1e-12
        marginal = partial_trace(proj / big_d, [big_d, big_d], [1])
        assert max_abs(marginal - np.eye(big_d) / big_d) <= 1e-12
    with pytest.raises(ValueError):
        max_entangled(0)


def test_max_entangled_four_leg_factorization():
    # For D=d^2 the pair must factorize over legs (1,3) and (2,4): the
    # amplitude at (i1,i2,i3,i4) is delta(i1,i3) * delta(i2,i4).
    d = 2
    vec = max_entangled_vec(d * d)
    expected = np.zeros(d ** 4, dtype=complex)
    for i1 in range(d):
        for i2 in range(d):
            for i3 in range(d):
                for i4 in range(d):
                    if i1 == i3 and i2 == i4:
                        expected[((i1 * d + i2) * d + i3) * d + i4] = 1.0
    assert np.array_equal(vec, expected)


def test_choi_of_unitary_pair():
    eye = UnitaryOp(np.eye(2))
    omega = choi_of_unitary_pair(eye, eye)
    assert max_abs(omega.mat - max_entangled(4)) <= 1e-12

    rng = np.random.default_rng(10)
    u, v = haar_sample(2, rng), haar_sample(2, rng)
    omega = choi_of_unitary_pair(u, v)
    assert abs(np.trace(omega.mat).real - 4.0) <= 1e-10
    vals = np.linalg.eigvalsh(omega.mat)
    assert np.sum(vals > 1e-10) == 1  # rank one
    with pytest.raises(DimensionMismatchError):
        choi_of_unitary_pair(haar_sample(2, rng), haar_sample(3, rng))


def test_choi_of_unitary_single_channel():
    rng = np.random.default_rng(11)
    u = haar_sample(3, rng)
    omega = choi_of_unitary(u)
    assert omega.d_sys == 3
    assert abs(np.trace(omega.mat).real - 3.0) <= 1e-10
    # Physical check: tr(omega (rho^T (x) F)) = tr(U rho U^dagger F).
    rho = random_density(rng, 3)
    f = random_povm(rng, 3, 2)[0]
    lhs = np.trace(omega.mat @ tensor(rho.T, f)).real
    rhs = np.trace(u.mat @ rho @ u.mat.conj().T @ f).real
    assert abs(lhs - rhs) <= 1e-10


def test_ppovm_from_experiment_singlet_strategy():
    xi = QState(SINGLET, [2, 2])
    ppovm = ppovm_from_experiment(xi, {"diff": P_PLUS_2, "inconclusive": P_MINUS_2})
    assert set(ppovm.elements) == {"diff", "inconclusive"}
    assert max_abs(ppovm.elements["diff"] - tensor(SINGLET.T, P_PLUS_2)) <= 1e-12
    assert ppovm.rho is xi


def test_ppovm_from_experiment_identity_effect():
    rng = np.random.default_rng(12)
    xi = QState(random_density(rng, 3))
    ppovm = ppovm_from_experiment(xi, {"only": np.eye(3)})
    assert max_abs(ppovm.elements["only"] - tensor(xi.mat.T, np.eye(3))) <= 1e-12


def test_ppovm_from_experiment_rejects_bad_effects():
    xi = QState(SINGLET, [2, 2])
    with pytest.raises(ValueError):
        ppovm_from_experiment(xi, {"a": P_PLUS_2})  # does not sum to identity
    with pytest.raises(ValueError):
        ppovm_from_experiment(xi, {"a": -P_PLUS_2, "b": np.eye(4) + P_PLUS_2})


def test_probability_equivalence_identity():
    # Physical path tr(E[xi] F_j) vs process-POVM path tr(omega_E M_j)
    # for random ancilla-free experiments with unitary channels.
    rng = np.random.default_rng(13)
    for n, outcomes in ((3, 2), (4, 3)):
        for _ in range(10):
            xi = QState(random_density(rng, n))
            effects = random_povm(rng, n, outcomes)
            labels = [str(i) for i in range(outcomes)]
            ppovm = ppovm_from_experiment(xi, dict(zip(labels, effects)))
            w = haar_sample(n, rng)
            omega = choi_of_unitary(w)
            out = w.mat @ xi.mat @ w.mat.conj().T
            for label, f in zip(labels, effects):
                physical = np.trace(out @ f).real
                via_ppovm = outcome_probability(omega, ppovm.elements[label])
                assert abs(physical - via_ppovm) <= 1e-10


def test_outcome_probability_no_error_and_flip():
    xi = QState(SINGLET, [2, 2])
    ppovm = ppovm_from_experiment(xi, {"diff": P_PLUS_2, "inconclusive": P_MINUS_2})
    eye = UnitaryOp(np.eye(2))
    omega_same = choi_of_unitary_pair(eye, eye)
    assert outcome_probability(omega_same, ppovm.elements["diff"]) <= 1e-12

    # State-vector oracle: (I (x) sx)|singlet> = (|00> - |11>)/sqrt(2),
    # symmetric, so the P+ outcome fires with certainty.
    out_vec = tensor(np.eye(2), SX) @ SINGLET_VEC
    oracle = np.vdot(out_vec, P_PLUS_2 @ out_vec).real
    assert abs(oracle - 1.0) <= 1e-12
    omega_flip = choi_of_unitary_pair(eye, UnitaryOp(SX))
    assert abs(outcome_probability(omega_flip, ppovm.elements["diff"]) - oracle) <= 1e-10


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(14)
    xi = QState(SINGLET, [2, 2])
    ppovm = ppovm_from_experiment(xi, {"diff": P_PLUS_2, "inconclusive": P_MINUS_2})
    for _ in range(10):
        omega = choi_of_unitary_pair(haar_sample(2, rng), haar_sample(2, rng))
        ps = [outcome_probability(omega, m) for m in ppovm.elements.values()]
        assert all(p >= 0.0 for p in ps)
        assert abs(sum(ps) - 1.0) <= 1e-9


def test_outcome_probability_rejects_out_of_range():
    eye = UnitaryOp(np.eye(2))
    omega = choi_of_unitary_pair(eye, eye)
    with pytest.raises(ValueError):
        outcome_probability(omega, -0.5 * np.eye(16))
    with pytest.raises(ValueError):
        outcome_probability(omega, np.full((16, 16), np.nan))
    with pytest.raises(DimensionMismatchError):
        outcome_probability(omega, np.eye(4))


def test_choi_validation():
    with pytest.raises(ValueError):
        ChoiOp(np.eye(4), 2)  # trace 4, expected 2
    with pytest.raises(ValueError):
        ChoiOp(-max_entangled(2), 2)


def test_ppovm_validation_and_json_roundtrip():
    xi = QState(SINGLET, [2, 2])
    good = {"diff": tensor(SINGLET.T, P_PLUS_2), "inconclusive": tensor(SINGLET.T, P_MINUS_2)}
    ppovm = Ppovm(good, xi)
    restored = Ppovm.from_json(ppovm.to_json())
    for label in good:
        assert max_abs(restored.elements[label] - ppovm.elements[label]) <= 1e-12

    with pytest.raises(ValueError):
        Ppovm({"diff": good["diff"]}, xi)  # wrong sum
    bad = {"diff": -good["diff"], "inconclusive": good["inconclusive"] + 2 * good["diff"]}
    with pytest.raises(ValueError):
        Ppovm(bad, xi)
