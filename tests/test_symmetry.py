"""Tests for the swap/symmetric/antisymmetric machinery and subspace samplers."""

import gc
import tracemalloc

import numpy as np
import pytest

from chancomp.comparator import make_strategy
from chancomp.haar import haar_sample, twirl_exact
from chancomp.linalg import max_abs, tensor
from chancomp.symmetry import (
    eigenbasis,
    projector,
    random_antisymmetric_state,
    random_symmetric_state,
    uniform_antisymmetric_state,
    uniform_symmetric_state,
)

SINGLET_VEC = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def swap_operator(d):
    """Dense oracle for the swap |jk> -> |kj> on H_d (x) H_d."""
    s = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    return s.swapaxes(0, 1).reshape(d * d, d * d)


def pair_vec_bases(d):
    """Oracle for both bases: one column per (anti)symmetrized pair j <= k (j < k), lexicographic."""

    def pair_vec(j, k, sign):
        v = np.zeros(d * d, dtype=complex)
        if j == k:
            v[j * d + k] = 1.0
        else:
            v[j * d + k] = 1.0 / np.sqrt(2)
            v[k * d + j] = sign / np.sqrt(2)
        return v

    plus_cols = [pair_vec(j, k, +1) for j in range(d) for k in range(j, d)]
    minus_cols = [pair_vec(j, k, -1) for j in range(d) for k in range(j + 1, d)]
    return np.column_stack(plus_cols), np.column_stack(minus_cols)


def top_schmidt_sq(vec, d):
    """Largest squared Schmidt coefficient of a pure two-qudit state."""
    return float(np.linalg.svd(vec.reshape(d, d), compute_uv=False)[0] ** 2)


def test_split_dimensions():
    assert abs(np.trace(projector(2, 1)).real - 3) <= 1e-12
    assert abs(np.trace(projector(2, -1)).real - 1) <= 1e-12
    assert abs(np.trace(projector(3, -1)).real - 3) <= 1e-12
    for d in (2, 3, 4, 5):
        dim_plus, dim_minus = d * (d + 1) // 2, d * (d - 1) // 2
        assert eigenbasis(d, 1).shape == (d * d, dim_plus)
        assert eigenbasis(d, -1).shape == (d * d, dim_minus)
        assert abs(np.trace(projector(d, 1)).real - dim_plus) <= 1e-12
        assert abs(np.trace(projector(d, -1)).real - dim_minus) <= 1e-12


def test_qubit_antisymmetric_projector_is_singlet():
    singlet_proj = np.outer(SINGLET_VEC, SINGLET_VEC.conj())
    assert max_abs(projector(2, -1) - singlet_proj) <= 1e-12


def test_projector_algebra():
    for d in (2, 3, 4):
        p_plus, p_minus, swap = projector(d, 1), projector(d, -1), swap_operator(d)
        eye = np.eye(d * d)
        assert max_abs(swap @ swap - eye) <= 1e-12
        assert max_abs(p_plus - (eye + swap) / 2) <= 1e-12
        assert max_abs(p_minus - (eye - swap) / 2) <= 1e-12
        assert max_abs(p_plus + p_minus - eye) <= 1e-12
        assert max_abs(p_plus @ p_minus) <= 1e-12
        # every entry is 0, 1/2 or 1, so the fill is exact
        assert np.array_equal(p_plus, (eye + swap) / 2) and np.array_equal(p_minus, (eye - swap) / 2)


def test_swap_action_on_product_vectors():
    rng = np.random.default_rng(20)
    for d in (2, 3, 5):
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        ab = np.kron(a, b)
        ba = np.kron(b, a)
        assert max_abs(swap_operator(d) @ ab - ba) <= 1e-12


def test_bases_orthonormal_and_reconstruct():
    for d in (2, 3, 4):
        for s in (1, -1):
            basis, proj = eigenbasis(d, s), projector(d, s)
            gram = basis.conj().T @ basis
            assert max_abs(gram - np.eye(basis.shape[1])) <= 1e-10
            assert max_abs(basis @ basis.conj().T - proj) <= 1e-10


def test_bases_match_pair_vector_oracle_bitwise():
    for d in (2, 3, 4, 5, 6, 7, 8, 9, 17):
        plus, minus = pair_vec_bases(d)
        assert eigenbasis(d, 1).shape == plus.shape and eigenbasis(d, -1).shape == minus.shape
        assert eigenbasis(d, 1).tobytes() == plus.tobytes()
        assert eigenbasis(d, -1).tobytes() == minus.tobytes()


def test_basis_minus_spans_kernel_of_p_plus():
    for d in (2, 3, 4):
        assert max_abs(projector(d, 1) @ eigenbasis(d, -1)) <= 1e-12
        # dimension count closes the span argument
        assert eigenbasis(d, -1).shape[1] == d * d - d * (d + 1) // 2


def test_projectors_commute_with_collective_unitaries():
    rng = np.random.default_rng(21)
    for d in (2, 3, 4):
        p_plus, p_minus = projector(d, 1), projector(d, -1)
        for _ in range(5):
            u = haar_sample(d, rng).mat
            uu = np.kron(u, u)
            assert max_abs(p_plus @ uu - uu @ p_plus) <= 1e-10
            assert max_abs(p_minus @ uu - uu @ p_minus) <= 1e-10


def test_projector_and_eigenbasis_reject_small_d():
    for d in (1, 0):
        for s in (1, -1):
            for build in (projector, eigenbasis):
                with pytest.raises(ValueError, match=f"d >= 2, got {d}"):
                    build(d, s)
    cached = eigenbasis.cache_info().currsize
    for s in (0, 2, -3):
        for build in (projector, eigenbasis):
            with pytest.raises(ValueError, match=f"must be \\+1 or -1, got {s}"):
                build(3, s)
    assert eigenbasis.cache_info().currsize == cached


def test_eigenbasis_is_cached_read_only_and_projector_fresh():
    for s in (1, -1):
        basis = eigenbasis(4, s)
        assert eigenbasis(4, s) is basis
        assert eigenbasis(np.int64(4), s) is basis
        assert eigenbasis(3, s) is not basis and eigenbasis(4, -s) is not basis
        with pytest.raises(ValueError):
            basis[0, 0] = 2.0
        with pytest.raises(ValueError):
            basis += 1.0
        p = projector(4, s)
        q = projector(4, s)
        assert p is not q and np.array_equal(p, q)
        p[0, 0] = 2.0
        p += 1.0
        assert np.array_equal(projector(4, s), q)


def test_dropped_strategy_and_twirl_hold_no_projector():
    # Only the eigenbasis cache may outlive its readers.  At a d no other test
    # uses, the cached B- is half of one d^2 x d^2 complex array; a projector
    # left behind would be a whole one more.
    d = 31
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        strategy = make_strategy("antisym_optimal", uniform_antisymmetric_state(d))
        twirled = twirl_exact(np.eye(d * d))
        del strategy, twirled
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held <= (d * d) ** 2 * 16


def test_antisymmetric_sampler_qubit_is_singlet():
    rng = np.random.default_rng(22)
    singlet_proj = np.outer(SINGLET_VEC, SINGLET_VEC.conj())
    for purity in ("pure", "mixed"):
        xi = random_antisymmetric_state(2, purity, rng)
        assert max_abs(xi.mat - singlet_proj) <= 1e-10


def test_sampler_support():
    rng = np.random.default_rng(23)
    for d in (3, 4):
        p_plus, p_minus = projector(d, 1), projector(d, -1)
        for purity in ("pure", "mixed"):
            anti = random_antisymmetric_state(d, purity, rng)
            assert max_abs(p_plus @ anti.mat @ p_plus) <= 1e-10
            assert max_abs(anti.mat - p_minus @ anti.mat @ p_minus) <= 1e-10
            sym = random_symmetric_state(d, purity, rng)
            assert max_abs(p_minus @ sym.mat @ p_minus) <= 1e-10
            assert max_abs(sym.mat - p_plus @ sym.mat @ p_plus) <= 1e-10


def test_antisymmetric_pure_states_are_entangled():
    # Entanglement witness: the reshaped amplitude matrix of an antisymmetric
    # vector is antisymmetric, so its singular values pair up and no squared
    # Schmidt coefficient can exceed 1/2.
    rng = np.random.default_rng(24)
    for d in (3, 4):
        for _ in range(25):
            xi = random_antisymmetric_state(d, "pure", rng)
            vals, vecs = np.linalg.eigh(xi.mat)
            vec = vecs[:, -1]
            assert vals[-1] > 1 - 1e-10
            assert top_schmidt_sq(vec, d) <= 0.5 + 1e-10


def test_symmetric_product_state_and_rank():
    rng = np.random.default_rng(25)
    for d in (2, 3):
        phi = rng.normal(size=d) + 1j * rng.normal(size=d)
        phi /= np.linalg.norm(phi)
        prod = np.kron(phi, phi)
        assert max_abs(projector(d, -1) @ prod) <= 1e-12

    mixed = random_symmetric_state(2, "mixed", rng)
    rank = int(np.sum(np.linalg.eigvalsh(mixed.mat) > 1e-10))
    assert rank <= 3


def test_uniform_subspace_states():
    for d in (2, 3):
        anti = uniform_antisymmetric_state(d)
        assert max_abs(anti.mat - projector(d, -1) / (d * (d - 1) // 2)) <= 1e-12
        sym = uniform_symmetric_state(d)
        assert max_abs(sym.mat - projector(d, 1) / (d * (d + 1) // 2)) <= 1e-12


def test_sampler_argument_validation():
    rng = np.random.default_rng(26)
    for sampler in (random_antisymmetric_state, random_symmetric_state):
        with pytest.raises(ValueError, match="d >= 2, got 1"):
            sampler(1, "pure", rng)
    with pytest.raises(ValueError):
        random_antisymmetric_state(3, "rank1", rng)


def test_samplers_reproducible_from_seed():
    a = random_antisymmetric_state(3, "mixed", np.random.default_rng(99))
    b = random_antisymmetric_state(3, "mixed", np.random.default_rng(99))
    assert np.array_equal(a.mat, b.mat)


def test_swap_under_tensor_convention():
    # tensor() and kron agree on ordering, so swapping via the operator or
    # by argument order must coincide.
    rng = np.random.default_rng(27)
    d = 3
    swap = swap_operator(d)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    lhs = swap @ tensor(a, b) @ swap
    assert max_abs(lhs - tensor(b, a)) <= 1e-12
