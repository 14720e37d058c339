"""Tests for Haar sampling and the Monte Carlo / exact group averages."""

import numpy as np
import pytest

from chancomp import comparator
from chancomp.comparator import average_success_mc, make_strategy
from chancomp.haar import (
    McEstimate,
    _haar_chunks,
    _mc_mean,
    _twirl_choi_mc,
    average_channel_exact,
    average_channel_mc,
    haar_sample,
    twirl_exact,
    twirl_mc,
)
from chancomp.linalg import DimensionMismatchError, max_abs
from chancomp.symmetry import uniform_antisymmetric_state, uniform_symmetric_state
from dense_oracle import swap_effects


def swap_by_hand(d):
    s = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            s[b * d + a, a * d + b] = 1.0
    return s


def test_haar_sample_unitarity():
    rng = np.random.default_rng(30)
    for d in (1, 2, 3, 6):
        u = haar_sample(d, rng).mat
        assert max_abs(u.conj().T @ u - np.eye(d)) <= 1e-10
        assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-10)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        haar_sample(0, rng)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        next(_haar_chunks(0, 1, rng))


def test_haar_sample_d1_is_phase():
    rng = np.random.default_rng(31)
    phases = [haar_sample(1, rng).mat[0, 0] for _ in range(8)]
    assert all(abs(abs(p) - 1.0) <= 1e-12 for p in phases)
    assert len({round(np.angle(p), 6) for p in phases}) > 1


def test_haar_sample_is_the_textbook_construction_bit_for_bit():
    # Complex Ginibre matrix, QR, R-diagonal phase fix (Mezzadri, Notices AMS
    # 54 (2007)), written plainly; the generator must also end where
    # rng.normal(size=(2, d, d)) per draw leaves it, the stream _haar_chunks relies on.
    for d in range(1, 7):
        rng, ref = np.random.default_rng(40 + d), np.random.default_rng(40 + d)
        for _ in range(200):
            re, im = ref.normal(size=(2, d, d))
            q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2))
            diag = np.diagonal(r)
            expected = q * (diag / np.abs(diag))
            assert haar_sample(d, rng).mat.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_haar_chunks_are_per_draw_haar_sample_stacks_bit_for_bit():
    # One normal draw, one stacked QR and one stacked check per chunk give the
    # unitaries of k * copies haar_sample calls in turn, a draw's copies in a
    # row, and leave the generator where those calls leave it.
    for d in (1, 2, 3, 4, 6, 16):
        for copies in (1, 2):
            for n in (1, 63, 64, 65, 130):
                rng, ref = np.random.default_rng(d * 1000 + n), np.random.default_rng(d * 1000 + n)
                chunks = list(_haar_chunks(d, n, rng, copies))
                assert [c.shape for c in chunks] == [(copies, min(64, n - i), d, d) for i in range(0, n, 64)]
                want = np.stack([haar_sample(d, ref).mat for _ in range(n * copies)])
                got = np.concatenate(chunks, axis=1).swapaxes(0, 1).reshape(n * copies, d, d)
                assert got.tobytes() == want.tobytes(), (d, copies, n)
                assert rng.bit_generator.state == ref.bit_generator.state


def test_average_success_mc_is_the_batched_chunks_estimate_bit_for_bit():
    # average_success_mc still draws per haar_sample call; on the same seed the
    # batched chunks give the same pairs, so the same estimate to the bit.
    for d in (2, 3):
        for kind, state in (("antisym_optimal", uniform_antisymmetric_state), ("symmetric", uniform_symmetric_state)):
            strategy = make_strategy(kind, state(d))
            for n in (2, 65, 130):
                got = average_success_mc(strategy, n, np.random.default_rng(n))
                chunks = _haar_chunks(d, n, np.random.default_rng(n), copies=2)
                want = _mc_mean(comparator._p_diff(strategy, u, v) for u, v in chunks)
                assert (got.mean, got.std_error) == (want.mean, want.std_error)


def test_haar_chunks_reject_a_chunk_with_one_non_unitary_slice(monkeypatch):
    # The stacked unitarity check is live: one slice off by 1e-9 in scale fails it.
    qr = np.linalg.qr

    def skewed(a):
        q, r = qr(a)
        q[len(q) // 2] *= 1 + 1e-9
        return q, r

    monkeypatch.setattr(np.linalg, "qr", skewed)
    for copies in (1, 2):
        with pytest.raises(ValueError, match="not unitary within tolerance"):
            next(_haar_chunks(3, 10, np.random.default_rng(0), copies))


def test_trace_second_moment():
    # E |tr U|^2 = 1 on the unitary group; checked against the sampler's own
    # spread (the average-channel tests pin the distribution independently).
    rng = np.random.default_rng(32)
    est = _mc_mean(abs(np.trace(u, axis1=1, axis2=2)) ** 2 for (u,) in _haar_chunks(3, 10000, rng))
    assert abs(est.mean - 1.0) <= 5 * est.std_error


def test_haar_invariance_proxy():
    # Left multiplication by a fixed unitary must not move the average.
    rng = np.random.default_rng(33)
    d, n = 2, 4000
    w = haar_sample(d, rng).mat
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = (g + g.conj().T) / 2

    plain = np.zeros((d, d), dtype=complex)
    shifted = np.zeros((d, d), dtype=complex)
    plain_sq = np.zeros((d, d))
    shifted_sq = np.zeros((d, d))
    for _ in range(n):
        u = haar_sample(d, rng).mat
        a = u @ x @ u.conj().T
        wu = w @ u
        b = wu @ x @ wu.conj().T
        plain += a
        shifted += b
        plain_sq += np.abs(a) ** 2
        shifted_sq += np.abs(b) ** 2
    plain /= n
    shifted /= n
    se = np.sqrt(
        np.maximum(plain_sq / n - np.abs(plain) ** 2, 0.0) / n
        + np.maximum(shifted_sq / n - np.abs(shifted) ** 2, 0.0) / n
    )
    assert np.all(np.abs(plain - shifted) <= 5 * se + 1e-12)


def test_average_channel_exact():
    assert max_abs(average_channel_exact(np.eye(3)) - np.eye(3)) == 0.0
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    assert max_abs(average_channel_exact(ket0) - np.eye(2) / 2) <= 1e-15
    off = np.zeros((2, 2), dtype=complex)
    off[0, 1] = 1.0
    assert max_abs(average_channel_exact(off)) <= 1e-15


def test_average_channel_mc():
    rng = np.random.default_rng(34)
    est = average_channel_mc(np.eye(2), 50, rng)
    assert max_abs(est.mean - np.eye(2)) <= 1e-12  # exact for every sample
    assert max_abs(est.std_error) <= 1e-12

    ket0 = np.diag([1.0, 0.0]).astype(complex)
    est = average_channel_mc(ket0, 10000, rng)
    assert max_abs(est.mean - np.eye(2) / 2) <= 0.05

    off = np.zeros((2, 2), dtype=complex)
    off[0, 1] = 1.0
    est = average_channel_mc(off, 10000, rng)
    assert max_abs(est.mean) <= 0.05


def test_std_error_matches_numpy_ddof1_at_small_n():
    # The draws are recomputed from an identically seeded generator; the
    # streamed estimator must agree with numpy's two-pass ddof=1 spread.
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    state = uniform_antisymmetric_state(2)
    strategy = make_strategy("antisym_optimal", state)
    xi, f_diff = state.mat, swap_effects(2, "antisym_optimal")["diff"]

    def channel_draw(rng):
        u = haar_sample(2, rng).mat
        return u @ ket0 @ u.conj().T

    def success_draw(rng):
        uv = np.kron(haar_sample(2, rng).mat, haar_sample(2, rng).mat)
        return np.trace(f_diff @ uv @ xi @ uv.conj().T).real

    for n in (2, 3, 8):
        for estimate, draw in ((lambda rng: average_channel_mc(ket0, n, rng), channel_draw),
                               (lambda rng: average_success_mc(strategy, n, rng), success_draw)):
            est = estimate(np.random.default_rng(40 + n))
            rng = np.random.default_rng(40 + n)
            samples = np.array([draw(rng) for _ in range(n)])
            expected = np.std(samples, axis=0, ddof=1) / np.sqrt(n)
            assert est.n_samples == n
            assert np.all(expected > 0)
            assert np.all(np.abs(est.std_error - expected) <= 1e-12 * expected)
            assert np.all(np.abs(est.mean - samples.mean(axis=0)) <= 1e-12)


def test_estimators_match_per_draw_values_across_chunk_boundaries():
    # The stacked chunks must reproduce the per-draw formulas on the same
    # draws, recomputed one by one from an identically seeded generator.
    ket01 = np.zeros((2, 2), dtype=complex)
    ket01[0, 1] = 1.0
    y = np.zeros((4, 4), dtype=complex)
    y[1, 1] = y[1, 2] = 1.0
    state = uniform_antisymmetric_state(2)
    strategy = make_strategy("antisym_optimal", state)
    xi, f_diff = state.mat, swap_effects(2, "antisym_optimal")["diff"]

    def channel_draw(rng):
        u = haar_sample(2, rng).mat
        return u @ ket01 @ u.conj().T

    def twirl_draw(rng):
        u = haar_sample(2, rng).mat
        uu = np.kron(u, u)
        return uu @ y @ uu.conj().T

    def success_draw(rng):
        uv = np.kron(haar_sample(2, rng).mat, haar_sample(2, rng).mat)
        return np.trace(f_diff @ uv @ xi @ uv.conj().T).real

    cases = (
        (lambda n, rng: average_channel_mc(ket01, n, rng), channel_draw),
        (lambda n, rng: twirl_mc(y, n, rng), twirl_draw),
        (lambda n, rng: average_success_mc(strategy, n, rng), success_draw),
    )
    for n in (63, 64, 65, 200):
        for estimate, draw in cases:
            est = estimate(n, np.random.default_rng(50 + n))
            rng = np.random.default_rng(50 + n)
            samples = np.array([draw(rng) for _ in range(n)])
            mean = samples.mean(axis=0)
            expected = np.std(samples, axis=0, ddof=1) / np.sqrt(n)
            assert est.n_samples == n
            assert np.all(np.abs(est.mean - mean) <= 1e-12 * np.abs(mean))
            assert np.all(np.abs(est.std_error - expected) <= 1e-12 * expected)


def test_std_error_vanishes_for_a_constant_input():
    # Every draw of U I U^dagger is the identity up to rounding, so the
    # standard error must stay at rounding level instead of cancelling.
    for seed in range(20):
        est = average_channel_mc(np.eye(3), 100, np.random.default_rng(seed))
        assert np.max(est.std_error) <= 1e-15, seed


def test_average_channel_commutant():
    rng = np.random.default_rng(35)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = (g + g.conj().T) / 2
    est = average_channel_mc(x, 10000, rng)
    for _ in range(10):
        w = haar_sample(2, rng).mat
        assert max_abs(est.mean @ w - w @ est.mean) <= 0.1


def test_twirl_exact_frozen_value():
    # Direct evaluation for |01><01| at d=2: overlaps with both projectors
    # equal 1/2, so the image is P+/6 + P-/2 (projectors built by hand).
    p_minus = np.zeros((4, 4), dtype=complex)
    p_minus[1:3, 1:3] = [[0.5, -0.5], [-0.5, 0.5]]
    p_plus = np.eye(4) - p_minus
    y = np.zeros((4, 4), dtype=complex)
    y[1, 1] = 1.0
    expected = p_plus / 6 + p_minus / 2
    assert max_abs(twirl_exact(y) - expected) <= 1e-12


def test_twirl_exact_identities():
    for d in (2, 3):
        n = d * d
        assert max_abs(twirl_exact(np.eye(n)) - np.eye(n)) <= 1e-12
        s = swap_by_hand(d)
        assert max_abs(twirl_exact(s) - s) <= 1e-12
        rng = np.random.default_rng(36 + d)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        y = (g + g.conj().T) / 2
        out = twirl_exact(y)
        assert abs(np.trace(out) - np.trace(y)) <= 1e-12
        assert max_abs(twirl_exact(out) - out) <= 1e-12


def test_twirl_exact_linearity_on_general_operators():
    rng = np.random.default_rng(37)
    y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = (y + y.conj().T) / 2
    anti = (y - y.conj().T) / 2
    assert max_abs(twirl_exact(y) - twirl_exact(herm) - twirl_exact(anti)) <= 1e-12


def test_twirl_mc_invariant_inputs_exact():
    rng = np.random.default_rng(38)
    p_minus = np.zeros((4, 4), dtype=complex)
    p_minus[1:3, 1:3] = [[0.5, -0.5], [-0.5, 0.5]]
    p_plus = np.eye(4) - p_minus
    for y in (p_plus, swap_by_hand(2)):
        est = twirl_mc(y, 100, rng)
        assert max_abs(est.mean - y) <= 1e-10


def test_twirl_mc_converges_to_exact():
    rng = np.random.default_rng(39)
    n = 10000
    y = np.zeros((4, 4), dtype=complex)
    y[1, 1] = 1.0
    est = twirl_mc(y, n, rng)
    assert max_abs(est.mean - twirl_exact(y)) <= 0.05
    # bounded operators converge at the 1/sqrt(n) rate
    assert max_abs(est.mean - twirl_exact(y)) <= 5 / np.sqrt(n)


def test_twirl_battery_rows_match_twirl_mc_on_the_same_seed():
    # The Choi action T(Y)_ab = sum_ij Y_ij C_(ia),(jb) on the pair-Choi
    # estimate gives each operator's single-operator mean from the same
    # generator state.
    for d, n in ((2, 65), (3, 130)):
        dd = d * d
        rng = np.random.default_rng(70 + d)
        g = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
        ket = np.zeros((dd, dd), dtype=complex)
        ket[1, d] = 1.0
        choi = _twirl_choi_mc(d, n, np.random.default_rng(80 + d)).reshape(dd, dd, dd, dd)
        for y in (np.eye(dd, dtype=complex), swap_by_hand(d), ket, g, (g + g.conj().T) / 2):
            single = twirl_mc(y, n, np.random.default_rng(80 + d))
            assert max_abs(np.einsum("ij,iajb->ab", y, choi) - single.mean) <= 1e-12


def test_twirl_dimension_validation():
    with pytest.raises(DimensionMismatchError):
        twirl_exact(np.eye(6))  # 6 is not a perfect square
    with pytest.raises(DimensionMismatchError):
        twirl_mc(np.eye(3), 10, np.random.default_rng(0))


def test_mc_estimate_validation():
    with pytest.raises(ValueError):
        McEstimate(mean=0.0, n_samples=0, std_error=0.0)
    for bad in (-1e-300, np.nan, np.array([0.0, np.nan])):
        with pytest.raises(ValueError):
            McEstimate(mean=0.0, n_samples=2, std_error=bad)
    for n in (0, 1):
        with pytest.raises(ValueError):
            average_channel_mc(np.eye(2), n, np.random.default_rng(0))
    for average in (average_channel_exact, lambda x: average_channel_mc(x, 5, np.random.default_rng(0))):
        with pytest.raises(DimensionMismatchError):
            average(np.ones((2, 3)))
