"""Tests for quantum object types and the Choi / process-POVM layer."""

import numpy as np
import pytest

from chancomp.haar import haar_sample
from chancomp.linalg import DimensionMismatchError, max_abs, tensor
from chancomp.qobj import (
    ChoiOp,
    Ppovm,
    QState,
    UnitaryOp,
    choi_of_unitary,
    outcome_probability,
    ppovm_from_experiment,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)

PAIR_VEC_2 = np.array([1, 0, 0, 1], dtype=complex)  # |00> + |11>
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


def test_qstate_dim_factors_are_integers():
    state = QState(np.eye(4) / 4, dim_factors=[np.int64(2), 2])
    assert state.dim_factors == [2, 2] and all(type(f) is int for f in state.dim_factors)
    assert QState(np.eye(4) / 4, dim_factors=(1, 4, 1)).dim_factors == [1, 4, 1]


@pytest.mark.parametrize(
    "factors",
    [[2, 0.5, 4], [2, 2.0], [-2, -2], [0, 4], [True, 4], [4, np.True_], ["2", "2"]],
    ids=["fraction", "float", "negative", "zero", "bool", "numpy_bool", "string"],
)
def test_qstate_rejects_non_integer_dim_factors(factors):
    with pytest.raises(DimensionMismatchError, match="integers >= 1"):
        QState(np.eye(4) / 4, dim_factors=factors)


def test_unitary_validation():
    UnitaryOp(np.eye(3))
    with pytest.raises(ValueError):
        UnitaryOp(np.diag([1.0, 0.5]))
    # An off-diagonal defect alone: U^dag U - I has 2e-10 (or 5e-11) off its diagonal
    # and 4e-20 (or 2.5e-21) on it, so a check of the diagonal only accepts both.
    UnitaryOp([[1, 5e-11], [0, 1]])
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryOp([[1, 2e-10], [0, 1]])
    # inf * 0 in U^dag U raises numpy's "invalid" flag; the CLI builds gates from
    # matrix files under this errstate, and the check must still reject them.
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not unitary"):
            UnitaryOp(m)
    for shape in ((2, 3), (3, 2), (0, 0), (0, 2)):
        with pytest.raises(DimensionMismatchError, match="non-empty square"):
            UnitaryOp(np.zeros(shape))


def choi_of_pair(u, v):
    """Choi operator of the product channel applying U and V to the two qudits."""
    return choi_of_unitary(UnitaryOp(np.kron(u.mat, v.mat)))


def test_max_entangled_basics():
    omega = choi_of_unitary(UnitaryOp(np.eye(2)))
    assert np.array_equal(omega.mat, np.outer(PAIR_VEC_2, PAIR_VEC_2))
    for big_d in (4, 9):
        proj = choi_of_unitary(UnitaryOp(np.eye(big_d))).mat
        pair = sum(np.kron(e, e) for e in np.eye(big_d))  # sum_j |jj>
        assert np.array_equal(proj, np.outer(pair, pair))
        assert abs(np.trace(proj).real - big_d) <= 1e-12
        legs = (proj / big_d).reshape(big_d, big_d, big_d, big_d)
        assert max_abs(np.einsum("ijkj->ik", legs) - np.eye(big_d) / big_d) <= 1e-12  # trace out factor 2
        assert max_abs(np.einsum("jijk->ik", legs) - np.eye(big_d) / big_d) <= 1e-12  # trace out factor 1


def test_max_entangled_four_leg_factorization():
    # For D=d^2 the pair must factorize over legs (1,3) and (2,4): the
    # amplitude at (i1,i2,i3,i4) is delta(i1,i3) * delta(i2,i4).
    d = 2
    expected = np.zeros(d ** 4, dtype=complex)
    for i1 in range(d):
        for i2 in range(d):
            for i3 in range(d):
                for i4 in range(d):
                    if i1 == i3 and i2 == i4:
                        expected[((i1 * d + i2) * d + i3) * d + i4] = 1.0
    eye = UnitaryOp(np.eye(d))
    assert np.array_equal(choi_of_pair(eye, eye).mat, np.outer(expected, expected))


def test_choi_of_unitary_pair():
    eye = UnitaryOp(np.eye(2))
    pair = sum(np.kron(e, e) for e in np.eye(4))  # sum_j |jj>
    assert max_abs(choi_of_pair(eye, eye).mat - np.outer(pair, pair)) <= 1e-12

    rng = np.random.default_rng(10)
    u, v = haar_sample(2, rng), haar_sample(2, rng)
    omega = choi_of_pair(u, v)
    assert abs(np.trace(omega.mat).real - 4.0) <= 1e-10
    vals = np.linalg.eigvalsh(omega.mat)
    assert np.sum(vals > 1e-10) == 1  # rank one
    # Physical check: tr(omega (rho^T (x) F)) = tr((U (x) V) rho (U (x) V)^dagger F).
    rho = random_density(rng, 4)
    f = random_povm(rng, 4, 2)[0]
    uv = tensor(u.mat, v.mat)
    lhs = np.trace(omega.mat @ tensor(rho.T, f)).real
    rhs = np.trace(uv @ rho @ uv.conj().T @ f).real
    assert abs(lhs - rhs) <= 1e-10


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
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError, match="effect 'a' is not Hermitian"):
        ppovm_from_experiment(xi, {"a": P_PLUS_2 + skew, "b": P_MINUS_2 - skew})


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
    omega_same = choi_of_pair(eye, eye)
    assert outcome_probability(omega_same, ppovm.elements["diff"]) <= 1e-12

    # State-vector oracle: (I (x) sx)|singlet> = (|00> - |11>)/sqrt(2),
    # symmetric, so the P+ outcome fires with certainty.
    out_vec = tensor(np.eye(2), SX) @ SINGLET_VEC
    oracle = np.vdot(out_vec, P_PLUS_2 @ out_vec).real
    assert abs(oracle - 1.0) <= 1e-12
    omega_flip = choi_of_pair(eye, UnitaryOp(SX))
    assert abs(outcome_probability(omega_flip, ppovm.elements["diff"]) - oracle) <= 1e-10


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(14)
    xi = QState(SINGLET, [2, 2])
    ppovm = ppovm_from_experiment(xi, {"diff": P_PLUS_2, "inconclusive": P_MINUS_2})
    for _ in range(10):
        omega = choi_of_pair(haar_sample(2, rng), haar_sample(2, rng))
        ps = [outcome_probability(omega, m) for m in ppovm.elements.values()]
        assert all(p >= 0.0 for p in ps)
        assert abs(sum(ps) - 1.0) <= 1e-9


def test_outcome_probability_rejects_out_of_range():
    eye = UnitaryOp(np.eye(2))
    omega = choi_of_pair(eye, eye)
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
        ChoiOp(-np.outer(PAIR_VEC_2, PAIR_VEC_2), 2)
    with pytest.raises(DimensionMismatchError):
        ChoiOp(np.eye(3), 2)


def with_entry(m, value):
    """Copy of m with one off-diagonal entry replaced."""
    out = np.array(m, dtype=complex)
    out[0, 1] = value
    return out


def test_positive_operators_reject_non_finite_entries_by_name():
    xi = QState(SINGLET, [2, 2])
    diff, inconclusive = tensor(SINGLET.T, P_PLUS_2), tensor(SINGLET.T, P_MINUS_2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="density operator has non-finite entries"):
            QState(with_entry(np.eye(2) / 2, bad))
        with pytest.raises(ValueError, match="Choi operator has non-finite entries"):
            ChoiOp(with_entry(np.outer(PAIR_VEC_2, PAIR_VEC_2), bad), 2)
        with pytest.raises(ValueError, match="effect 'a' has non-finite entries"):
            ppovm_from_experiment(xi, {"a": with_entry(P_PLUS_2, bad), "b": P_MINUS_2})
        with pytest.raises(ValueError, match="element 'diff' has non-finite entries"):
            Ppovm({"diff": with_entry(diff, bad), "inconclusive": inconclusive}, xi)


def test_ppovm_validation_and_json_roundtrip():
    xi = QState(SINGLET, [2, 2])
    good = {"diff": tensor(SINGLET.T, P_PLUS_2), "inconclusive": tensor(SINGLET.T, P_MINUS_2)}
    Ppovm(good, xi)

    with pytest.raises(ValueError):
        Ppovm({"diff": good["diff"]}, xi)  # wrong sum
    # The sum may miss rho^T (x) I by SUM_ATOL = 1e-9 per entry, and no more.
    for off, ok in ((5e-10, True), (2e-9, False)):
        shifted = {"diff": good["diff"], "inconclusive": good["inconclusive"] + off * np.eye(16)}
        if ok:
            Ppovm(shifted, xi)
        else:
            with pytest.raises(ValueError, match="do not sum"):
                Ppovm(shifted, xi)
    bad = {"diff": -good["diff"], "inconclusive": good["inconclusive"] + 2 * good["diff"]}
    with pytest.raises(ValueError):
        Ppovm(bad, xi)
    skew = np.zeros((16, 16), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError, match="element 'diff' is not Hermitian"):
        Ppovm({"diff": good["diff"] + skew, "inconclusive": good["inconclusive"] - skew}, xi)
