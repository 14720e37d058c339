"""Acceptance suite: one test per headline claim, at its stated tolerance.

Run with -s to see one pass/fail line per criterion.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from chancomp.cli import main
from chancomp.comparator import (
    average_success,
    make_strategy,
    random_unambiguous_ppovm,
    run_pair,
    sequential_witness,
    success_bound,
    twirl_choi,
    uniqueness_probe,
)
from chancomp.haar import average_channel_exact, average_channel_mc, haar_sample, twirl_exact
from chancomp.linalg import max_abs, trace_product
from chancomp.qobj import QState, UnitaryOp, choi_of_unitary, outcome_probability, ppovm_from_experiment
from chancomp.symmetry import random_antisymmetric_state, random_symmetric_state
from dense_oracle import dense_ppovm, twirl_mc

SINGLET_VEC = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
P_MINUS_2 = np.outer(SINGLET_VEC, SINGLET_VEC.conj())
P_PLUS_2 = np.eye(4) - P_MINUS_2


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    print(f"criterion {number:2d}: PASS - {description}")


@pytest.fixture(scope="module")
def success_table(tmp_path_factory):
    """One success-table row per d in 2..6 at n=10^4, with per-d wall time."""
    out_dir = tmp_path_factory.mktemp("tables")
    rows, elapsed = {}, {}
    for d in range(2, 7):
        out = out_dir / f"row{d}.json"
        t0 = time.perf_counter()
        rc = main(
            ["success-table", "--d-min", str(d), "--d-max", str(d),
             "--n", "10000", "--seed", str(100 + d), "--out", str(out)]
        )
        elapsed[d] = time.perf_counter() - t0
        assert rc == 0
        rows[d] = json.loads(out.read_text())["rows"][0]
    return rows, elapsed


def test_criterion_1_optimal_success(success_table):
    rows, elapsed = success_table
    expected = {2: 0.75, 3: 2 / 3, 4: 0.625, 5: 0.6, 6: 7 / 12}
    with criterion(1, "optimal success probability (d+1)/(2d), analytic + MC"):
        for d in range(2, 7):
            row = rows[d]
            assert abs(row["optimal_analytic"] - (d + 1) / (2 * d)) <= 1e-12
            assert abs(row["optimal_analytic"] - expected[d]) <= 1e-12
            assert abs(row["optimal_mc"] - row["optimal_analytic"]) <= 5 * row["optimal_mc_stderr"]
            assert elapsed[d] < 60.0


def test_criterion_2_symmetric_success(success_table):
    rows, _ = success_table
    with criterion(2, "symmetric-strategy probability (d-1)/(2d), analytic"):
        for d in range(2, 7):
            assert abs(rows[d]["symmetric_analytic"] - (d - 1) / (2 * d)) <= 1e-12


def test_criterion_3_no_error_conditions():
    rng = np.random.default_rng(300)
    with criterion(3, "no-error conditions on identical channels and the twirl Choi"):
        for d in (2, 3, 4):
            xi = random_antisymmetric_state(d, "mixed", rng)
            strategy = make_strategy("antisym_optimal", xi)
            m_diff = dense_ppovm(xi, "antisym_optimal").elements["diff"]
            assert abs(trace_product(twirl_choi(d).mat, m_diff).real) <= 1e-10
            for _ in range(100):
                u = haar_sample(d, rng)
                assert run_pair(strategy, u, u).p_diff <= 1e-10


def test_criterion_4_success_bound(tmp_path):
    with criterion(4, "success bound holds over 10^3 random unambiguous PPOVMs per d"):
        for d in (2, 3):
            out = tmp_path / f"scan{d}.json"
            rc = main(["bound-scan", "--d", str(d), "--n", "1000",
                       "--seed", str(400 + d), "--out", str(out)])
            assert rc == 0
            row = json.loads(out.read_text())["rows"][0]
            assert row["violations"] == 0
            assert row["max_success"] <= success_bound(d) + 1e-9


def test_criterion_5_uniqueness_structure():
    rng = np.random.default_rng(500)
    with criterion(5, "bound saturation implies the unique optimal structure"):
        for d in (2, 3):
            for purity in ("pure", "mixed"):
                for _ in range(5):
                    xi = random_antisymmetric_state(d, purity, rng)
                    strategy = make_strategy("antisym_optimal", xi)
                    assert abs(average_success(strategy) - success_bound(d)) <= 1e-9
                    probe = uniqueness_probe(dense_ppovm(xi, "antisym_optimal"))
                    assert probe.optimal_form
                    assert probe.deviation <= 1e-6

            symmetric = dense_ppovm(random_symmetric_state(d, "mixed", rng), "symmetric")
            assert not uniqueness_probe(symmetric).optimal_form

            for _ in range(20):
                ppovm = random_unambiguous_ppovm(d, rng)
                success = np.trace(ppovm.elements["diff"]).real / (d * d)
                assert success < success_bound(d) - 1e-9
                assert not uniqueness_probe(ppovm).optimal_form


def test_criterion_6_appendix_formulas():
    rng = np.random.default_rng(600)
    n = 10000
    with criterion(6, "average channel and twirl: MC within 0.05 of exact; exact twirl ideal"):
        for d in (2, 3):
            ket0 = np.zeros((d, d), dtype=complex)
            ket0[0, 0] = 1.0
            off = np.zeros((d, d), dtype=complex)
            off[0, 1] = 1.0
            for x in (ket0, off):
                est = average_channel_mc(x, n, rng)
                assert max_abs(est.mean - average_channel_exact(x)) <= 0.05

            proj01 = np.zeros((d * d, d * d), dtype=complex)
            proj01[1, 1] = 1.0
            g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            herm = (g + g.conj().T) / 2
            herm /= np.abs(np.linalg.eigvalsh(herm)).max()
            for y in (proj01, herm):
                est = twirl_mc(y, n, rng)
                assert max_abs(est.mean - twirl_exact(y)) <= 0.05

            once = twirl_exact(herm)
            assert abs(np.trace(once) - np.trace(herm)) <= 1e-12
            assert max_abs(twirl_exact(once) - once) <= 1e-12


def test_criterion_7_framework_identity():
    rng = np.random.default_rng(700)
    with criterion(7, "physical-path and process-POVM probabilities coincide"):
        for n_sys in (3, 4):
            for _ in range(10):
                g = rng.normal(size=(n_sys, n_sys)) + 1j * rng.normal(size=(n_sys, n_sys))
                xi_mat = g @ g.conj().T
                xi = QState(xi_mat / np.trace(xi_mat).real)

                raw = []
                for _ in range(3):
                    g = rng.normal(size=(n_sys, n_sys)) + 1j * rng.normal(size=(n_sys, n_sys))
                    raw.append(g @ g.conj().T)
                total = sum(raw)
                vals, vecs = np.linalg.eigh(total)
                inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
                effects = {str(i): inv_sqrt @ e @ inv_sqrt for i, e in enumerate(raw)}

                ppovm = ppovm_from_experiment(xi, effects)
                w = haar_sample(n_sys, rng)
                omega = choi_of_unitary(w)
                out = w.mat @ xi.mat @ w.mat.conj().T
                for label, f in effects.items():
                    physical = np.trace(out @ f).real
                    assert abs(physical - outcome_probability(omega, ppovm.elements[label])) <= 1e-10


def test_criterion_8_qubit_closed_form():
    rng = np.random.default_rng(800)
    strategy = make_strategy("antisym_optimal", QState(P_MINUS_2, [2, 2]))
    with criterion(8, "qubit detection probability equals 1 - |tr(U^dag V)|^2 / 4"):
        for _ in range(100):
            u, v = haar_sample(2, rng), haar_sample(2, rng)
            p = run_pair(strategy, u, v).p_diff
            closed_form = 1.0 - abs(np.trace(u.mat.conj().T @ v.mat)) ** 2 / 4
            assert abs(p - closed_form) <= 1e-10
            # independent state-vector simulation of the same experiment
            out = np.kron(u.mat, v.mat) @ SINGLET_VEC
            assert abs(p - np.vdot(out, P_PLUS_2 @ out).real) <= 1e-10


def test_criterion_9_entanglement_witness():
    rng = np.random.default_rng(900)
    with criterion(9, "antisymmetric pure test states have top Schmidt weight <= 1/2"):
        for d in (3, 4):
            for _ in range(50):
                xi = random_antisymmetric_state(d, "pure", rng)
                vals, vecs = np.linalg.eigh(xi.mat)
                vec = vecs[:, -1]
                top_sq = float(np.linalg.svd(vec.reshape(d, d), compute_uv=False)[0] ** 2)
                assert top_sq <= 0.5 + 1e-10


def test_criterion_10_sequential_witness():
    rng = np.random.default_rng(1000)
    with criterion(10, "sequential composition admits indistinguishable factorizations"):
        for d in (2, 3):
            for _ in range(10):
                w, r = haar_sample(d, rng), haar_sample(d, rng)
                u, v = sequential_witness(w, r)
                uv = UnitaryOp(u @ v)
                ww = UnitaryOp(w.mat @ w.mat)
                assert max_abs(choi_of_unitary(uv).mat - choi_of_unitary(ww).mat) <= 1e-10
