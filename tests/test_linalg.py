"""Tests for the dense linear-algebra layer."""

import numpy as np
import pytest

from chancomp.linalg import (
    is_psd,
    kron_stack,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    tensor,
    trace_product,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def swap_by_hand(d):
    """Independent swap construction: S|a,b> = |b,a> via explicit index loops."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            s[b * d + a, a * d + b] = 1.0
    return s


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_tensor_identities():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))
    got = tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.array_equal(got, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_tensor_sigma_x_pair_maps_00_to_11():
    # Hand expansion of the 4x4 product: (sx (x) sx)|00> = |11>.
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    expected = np.array([0, 0, 0, 1], dtype=complex)
    assert np.array_equal(tensor(SX, SX) @ ket00, expected)


def test_tensor_associative_exact_on_integer_entries():
    rng = np.random.default_rng(0)
    a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
    assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))
    assert np.array_equal(tensor(a, b, c), tensor(a, tensor(b, c)))


def test_kron_stack_equals_kron_per_slice():
    rng = np.random.default_rng(8)
    for shape_u, shape_v in (((5, 2, 2), (5, 2, 2)), ((3, 3, 3), (3, 3, 3)), ((4, 2, 3), (4, 3, 1))):
        u = rng.normal(size=shape_u) + 1j * rng.normal(size=shape_u)
        v = rng.normal(size=shape_v) + 1j * rng.normal(size=shape_v)
        got = kron_stack(u, v)
        for k in range(len(u)):
            assert np.array_equal(got[k], np.kron(u[k], v[k]))


def test_transpose_preserves_antisymmetric_support():
    # Antisymmetric projector built by hand; support condition P X P = X.
    d = 3
    p_minus = (np.eye(d * d) - swap_by_hand(d)) / 2
    rng = np.random.default_rng(3)
    c = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    v = p_minus @ c
    v /= np.linalg.norm(v)
    x = np.outer(v, v.conj())
    assert max_abs(p_minus @ x @ p_minus - x) <= 1e-12
    xt = x.T
    assert max_abs(p_minus @ xt @ p_minus - xt) <= 1e-12


def test_is_psd():
    p_plus = (np.eye(4) + swap_by_hand(2)) / 2
    assert is_psd(p_plus)
    assert not is_psd(-np.eye(3))
    with pytest.raises(ValueError):
        is_psd(np.array([[0, 1], [0, 0]], dtype=complex))


def test_trace_identities():
    rng = np.random.default_rng(5)
    x, y = random_matrix(rng, 5), random_matrix(rng, 5)
    assert abs(np.trace(x @ y) - np.trace(y @ x)) <= 1e-10
    assert abs(trace_product(x, y) - np.trace(x @ y)) <= 1e-10
    a, b = random_matrix(rng, 2), random_matrix(rng, 3)
    assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) <= 1e-10


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(7)
    m = random_matrix(rng, 3)
    obj = matrix_to_json(m)
    assert obj["rows"] == 3 and obj["cols"] == 3 and len(obj["data"]) == 9
    assert np.array_equal(matrix_from_json(obj), m)
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
