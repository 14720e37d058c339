"""Tests for the dense linear-algebra layer."""

import tracemalloc

import numpy as np
import pytest

from chancomp import linalg
from chancomp.comparator import random_unambiguous_ppovm
from chancomp.haar import haar_sample
from chancomp.linalg import (
    ATOL,
    is_psd,
    kron_stack,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    tensor,
    trace_product,
)
from chancomp.qobj import choi_of_unitary
from chancomp.symmetry import projector

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
    with pytest.raises(ValueError, match="at least one factor"):
        tensor()
    with pytest.raises(ValueError, match="expected a matrix"):
        tensor(np.zeros(3))


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


def test_tensor_equals_kron_bit_for_bit():
    # Complex, real and mixed factors of unequal shapes, as np.kron takes them.
    rng = np.random.default_rng(9)
    for shape_a, shape_b in (((2, 2), (2, 2)), ((3, 1), (2, 4)), ((6, 15), (1, 15)), ((4, 4), (3, 3))):
        a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
        b = rng.normal(size=shape_b)
        for x, y in ((a, b), (b, a), (a, a.conj()), (b, b)):
            assert np.array_equal(tensor(x, y), np.kron(x, y))
    c = random_matrix(rng, 2)
    assert np.array_equal(tensor(c, SX, c), np.kron(np.kron(c, SX), c))


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
    assert not linalg.is_hermitian(np.zeros((2, 3)))


def eigvalsh_is_psd(m):
    """Oracle for is_psd: the full spectrum's smallest eigenvalue against -ATOL."""
    return float(np.linalg.eigvalsh(m)[0]) >= -ATOL


def hermitian_with_spectrum(rng, vals):
    n = len(vals)
    q, _ = np.linalg.qr(random_matrix(rng, n))
    m = (q * vals) @ q.conj().T
    return (m + m.conj().T) / 2


# 16 splits every n above it into blocks; the default factors n <= 256 as
# one block.
BLOCKS = (16, linalg._CHOLESKY_BLOCK)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n", (4, 16, 81, 256))
def test_is_psd_matches_eigvalsh_oracle_at_the_atol_boundary(monkeypatch, n, block):
    # Smallest eigenvalue 1% beyond -ATOL on either side, half the spectrum at
    # zero: the shifted matrix is 1e-12 away from singular on both sides,
    # while rounding is of order n * eps * ||A|| <= 6e-14.
    monkeypatch.setattr(linalg, "_CHOLESKY_BLOCK", block)
    rng = np.random.default_rng(n)
    for lam_min, expected in ((-ATOL * (1 + 1e-2), False), (-ATOL * (1 - 1e-2), True)):
        vals = np.concatenate(([lam_min], np.zeros(n // 2), rng.uniform(0, 1, n - 1 - n // 2)))
        m = hermitian_with_spectrum(rng, vals)
        assert eigvalsh_is_psd(m) is expected
        assert is_psd(m) is expected


def rank_deficient_psd_inputs():
    for d in range(2, 7):
        yield f"p_minus/d- d={d}", projector(d, -1) / (d * (d - 1) // 2)
        yield f"p_plus/d+ d={d}", projector(d, 1) / (d * (d + 1) // 2)
    rng = np.random.default_rng(21)
    for n in (4, 16, 81, 256):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        yield f"pure n={n}", np.outer(v, v.conj())
    for big_d in (16, 24):  # n = 256 and 576: one block and three at the default size
        yield f"choi D={big_d}", choi_of_unitary(haar_sample(big_d, rng)).mat
    for label, m in random_unambiguous_ppovm(4, rng).elements.items():
        yield f"ppovm d=4 {label}", m


@pytest.mark.parametrize("block", BLOCKS)
def test_is_psd_accepts_rank_deficient_psd_inputs(monkeypatch, block):
    monkeypatch.setattr(linalg, "_CHOLESKY_BLOCK", block)
    for name, m in rank_deficient_psd_inputs():
        assert eigvalsh_is_psd(m), name
        assert is_psd(m), name


def test_is_psd_rejects_non_finite_input():
    for bad in (np.nan, np.inf, -np.inf):
        for n, where in ((3, (2, 2)), (3, (0, 2)), (300, (299, 299))):
            m = np.eye(n, dtype=complex)
            m[where] = bad
            with pytest.raises(ValueError):
                is_psd(m)


def test_is_psd_rejects_a_factor_with_non_finite_diagonal(monkeypatch):
    # A LAPACK that returns NaN factors without flagging them must still reject.
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.full_like(a, np.nan))
    assert not is_psd(np.eye(3))


def test_is_psd_holds_one_copy_beside_the_hermiticity_pass():
    # numpy's own n x n arrays peak at the Hermiticity pass (a conjugate copy
    # and its real moduli: 1.5 input sizes); the factorisation runs in the
    # shifted copy, with block-sized temporaries, and stays below that.  A
    # separate factor array would reach 2.
    n = 1024
    rng = np.random.default_rng(4)
    g = random_matrix(rng, n)
    m = g @ g.conj().T / n
    tracemalloc.start()
    try:
        assert is_psd(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * m.nbytes


def test_trace_identities():
    rng = np.random.default_rng(5)
    x, y = random_matrix(rng, 5), random_matrix(rng, 5)
    assert abs(np.trace(x @ y) - np.trace(y @ x)) <= 1e-10
    assert abs(trace_product(x, y) - np.trace(x @ y)) <= 1e-10
    with pytest.raises(linalg.DimensionMismatchError):
        trace_product(np.eye(2), np.eye(3))
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
