"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import chancomp
from chancomp import cli, haar, qobj
from chancomp.cli import main, resolve_gate
from chancomp.comparator import ComparisonReport, sequential_witness, twirl_choi
from chancomp.haar import _twirl_choi_mc, haar_sample, twirl_exact, twirl_mc
from chancomp.linalg import DimensionMismatchError, matrix_to_json, max_abs
from chancomp.qobj import UnitaryOp, choi_of_unitary
from chancomp.symmetry import _twirl_choi_fill, projector


def run_json(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, (json.loads(out.read_text()) if out.exists() else None)


def test_gate_registry():
    for d in (2, 3, 5):
        f = resolve_gate("fourier-d", d)
        assert f.dim == d
        assert max_abs(f.mat.conj().T @ f.mat - np.eye(d)) <= 1e-10
    assert max_abs(resolve_gate("identity", 3).mat - np.eye(3)) <= 1e-12
    h = resolve_gate("hadamard", 2).mat
    assert max_abs(h - np.array([[1, 1], [1, -1]]) / np.sqrt(2)) <= 1e-12


def test_compare_named_gates(tmp_path):
    rc, payload = run_json(tmp_path, ["compare", "--d", "2", "--u", "identity", "--v", "pauli-x"])
    assert rc == 0
    assert abs(payload["report"]["p_diff"] - 1.0) <= 1e-12
    assert payload["meta"]["version"]

    rc, payload = run_json(tmp_path, ["compare", "--d", "2", "--u", "identity", "--v", "identity"])
    assert rc == 0
    assert payload["report"]["p_diff"] <= 1e-12

    rc, payload = run_json(tmp_path, ["compare", "--d", "2", "--u", "hadamard", "--v", "hadamard"])
    assert rc == 0
    assert payload["report"]["p_diff"] <= 1e-12


def test_compare_probabilities_sum_to_exactly_one(tmp_path):
    # p_inconclusive is 1 - p_diff, not a second swap projection that leaves the sum a rounding off 1.
    for argv in (["--d", "2", "--u", "hadamard", "--v", "pauli-x"], ["--d", "3", "--u", "fourier-d", "--v", "identity"],
                 ["--d", "6", "--u", "fourier-d", "--v", "fourier-d"]):
        rc, payload = run_json(tmp_path, ["compare"] + argv)
        assert rc == 0
        report = payload["report"]
        assert report["p_diff"] + report["p_inconclusive"] == 1.0, argv


def test_compare_matrix_file(tmp_path):
    mat_path = tmp_path / "gate.json"
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    mat_path.write_text(json.dumps(matrix_to_json(h)))
    rc, payload = run_json(tmp_path, ["compare", "--d", "2", "--u", f"@{mat_path}", "--v", "hadamard"])
    assert rc == 0
    assert payload["report"]["p_diff"] <= 1e-12


def test_compare_exit_codes(tmp_path):
    assert main(["compare", "--d", "2", "--u", "no-such-gate", "--v", "identity"]) == 2
    assert main(["compare", "--d", "3", "--u", "pauli-x", "--v", "identity"]) == 3
    assert main(["compare", "--d", "1", "--u", "identity", "--v", "identity"]) == 2
    for command in ("bound-scan", "twirl-verify"):
        assert main([command, "--d", "2", "--n", "0"]) == 2, command

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["compare", "--d", "2", "--u", f"@{bad}", "--v", "identity"]) == 2

    wrong_dim = tmp_path / "wrong.json"
    wrong_dim.write_text(json.dumps(matrix_to_json(np.eye(3))))
    assert main(["compare", "--d", "2", "--u", f"@{wrong_dim}", "--v", "identity"]) == 3

    non_unitary = tmp_path / "nonunitary.json"
    non_unitary.write_text(json.dumps(matrix_to_json(np.diag([1.0, 0.5]))))
    assert main(["compare", "--d", "2", "--u", f"@{non_unitary}", "--v", "identity"]) == 2

    assert main(["no-such-command"]) == 2
    assert main(["compare", "--d", "2", "--u", "identity"]) == 2  # missing --v


def test_compare_d64_matches_closed_form(tmp_path):
    # p_diff = (d^2 - |tr(U^dag V)|^2) / (2 d (d-1)) for the uniform antisymmetric state.
    d = 64
    u = haar_sample(d, np.random.default_rng(81)).mat
    gate = tmp_path / "u.json"
    gate.write_text(json.dumps(matrix_to_json(u)))
    rc, payload = run_json(tmp_path, ["compare", "--d", str(d), "--u", f"@{gate}", "--v", "fourier-d"])
    assert rc == 0
    t = np.trace(u.conj().T @ resolve_gate("fourier-d", d).mat)
    assert abs(payload["report"]["p_diff"] - (d * d - abs(t) ** 2) / (2 * d * (d - 1))) <= 1e-10


def traced_peak(argv, d):
    """Peak traced allocation, in bytes, of one main(argv + ["--d", d]) call after a d=2 warm-up.

    The warm-up builds the parser first.  tracemalloc sees numpy's array
    buffers, not the work arrays LAPACK allocates inside a factorisation.
    """
    argv = argv + ["--out", os.devnull, "--d"]
    assert main(argv + ["2"]) == 0
    tracemalloc.start()
    try:
        assert main(argv + [str(d)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compare_builds_no_d2_by_d2_array():
    # Peak traced allocation of compare at d=32 stays below one d^2 x d^2
    # complex array (16.8 MB).
    assert traced_peak(["compare", "--u", "fourier-d", "--v", "identity"], 32) < 32**4 * 16


def test_one_parser_serves_interleaved_calls(capsys):
    # Every main() call parses with the one parser built by the first; a
    # usage error, --version or a failed gate lookup leaves it as it was.
    good = ["compare", "--d", "3", "--u", "fourier-d", "--v", "identity", "--seed", "9"]
    calls = [
        (good, 0),
        (["compare", "--d", "3", "--u", "identity"], 2),
        (["--version"], 0),
        (["compare", "--d", "3", "--u", "no-such-gate", "--v", "identity"], 2),
        (good, 0),
    ]
    outputs = []
    for argv, code in calls:
        assert main(argv) == code, argv
        outputs.append(capsys.readouterr())
    assert outputs[0].out and outputs[0].err == ""
    assert outputs[4].out == outputs[0].out and outputs[4].err == ""
    assert outputs[1].out == "" and "required: --v" in outputs[1].err
    assert outputs[2].out == f"chancomp {chancomp.__version__}\n"
    assert outputs[3].out == "" and outputs[3].err.startswith("error: unknown gate spec")
    assert cli.build_parser() is cli.build_parser()


def test_parser_not_built_at_import():
    src = str(Path(chancomp.__file__).resolve().parents[1])
    code = "from chancomp import cli; print(cli.build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=os.environ | {"PYTHONPATH": src})
    assert proc.stdout.strip() == "0", proc.stderr


def test_non_finite_gate_files_rejected(tmp_path, capsys):
    # Also dimensions and entries that are not JSON numbers proper: a float
    # would be truncated and a bool read as 1.  An entry of 1e308 overflows
    # U^dagger U and must still exit 2 with no numpy warning.
    for name, entry, rows, cols in (("nan", float("nan"), 2, 2), ("inf", float("inf"), 2, 2),
                                    ("inf_rows", 1.0, float("inf"), 2), ("float_dims", 1.0, 2.7, 2.2),
                                    ("whole_float_rows", 1.0, 2.0, 2), ("bool_rows", 1.0, True, 4),
                                    ("bool_entry", True, 2, 2), ("huge_entry", 1e308, 2, 2)):
        mat = matrix_to_json(np.eye(2))
        mat["data"][0] = [entry, 0.0]
        mat["rows"], mat["cols"] = rows, cols
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(mat))  # writes the NaN / Infinity literals
        for argv in (["compare", "--d", "2", "--u", f"@{path}", "--v", "identity"],
                     ["witness", "--d", "2", "--w", f"@{path}", "--r", "pauli-z"]):
            assert main(argv) == 2, (name, argv[0])
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error:") and "Traceback" not in err


def test_deeply_nested_gate_file_rejected(tmp_path, capsys):
    # json.load recurses once per bracket and raises RecursionError, not ValueError.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["compare", "--d", "2", "--u", f"@{path}", "--v", "identity"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot load matrix") and "Traceback" not in err


def test_oversized_d_rejected_before_allocating(capsys):
    # Only sizes far past the limit: a large case is never run.
    for argv in (["compare", "--u", "identity", "--v", "identity"],
                 ["witness", "--w", "identity", "--r", "fourier-d"],
                 ["bound-scan", "--n", "5"], ["twirl-verify", "--n", "5"]):
        for d in ("100000", "10000000000"):
            assert main(argv + ["--d", d]) == 2, (argv[0], d)
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error:") and "--d" in err and "Traceback" not in err


def test_negative_seed_rejected(capsys):
    for argv in (["compare", "--d", "2", "--u", "identity", "--v", "pauli-x"],
                 ["success-table", "--d-min", "2", "--d-max", "2", "--n", "5"],
                 ["bound-scan", "--d", "2", "--n", "5"],
                 ["twirl-verify", "--d", "2", "--n", "5"]):
        assert main(argv + ["--seed", "-1"]) == 2, argv[0]
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "--seed" in err and "Traceback" not in err


def test_single_sample_rejected_where_a_standard_error_is_reported(capsys):
    assert main(["success-table", "--d-min", "2", "--d-max", "2", "--n", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: success-table needs --n >= 2 for a standard error, got 1\n"
    assert main(["bound-scan", "--d", "2", "--n", "1"]) == 0


def test_twirl_verify_takes_a_single_sample(capsys):
    # twirl-verify reports residuals, no standard error, and a pair-Choi mean over one draw is defined.
    for d in (2, 3):
        assert main(["twirl-verify", "--d", str(d), "--n", "1"]) == 0
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert err == "" and payload["meta"]["n_samples"] == 1 and len(payload["rows"]) == 10


def test_unwritable_out_rejected(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.json"
    assert main(["compare", "--d", "2", "--u", "identity", "--v", "pauli-x", "--out", str(out_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write") and "Traceback" not in err
    assert not out_path.exists()


def test_eta_same_only_on_success_table(capsys):
    assert main(["compare", "--d", "2", "--u", "identity", "--v", "pauli-x", "--eta-same", "0.5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--eta-same" in err


def test_options_a_command_does_not_read_are_rejected(capsys):
    # compare computes exact probabilities (no --n); witness draws nothing (no --n, no --seed).
    for argv in (["compare", "--d", "2", "--u", "identity", "--v", "pauli-x", "--n", "5"],
                 ["witness", "--d", "2", "--w", "hadamard", "--r", "pauli-z", "--n", "5"],
                 ["witness", "--d", "2", "--w", "hadamard", "--r", "pauli-z", "--seed", "1"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and argv[-2] in err and "Traceback" not in err


def test_meta_records_the_options_a_command_reads(tmp_path):
    # Every option but --out and --format, under its dest name, plus the command and the version.
    cases = {
        "compare": (["--d", "2", "--u", "identity", "--v", "pauli-x"], {"d", "seed", "u", "v"}),
        "success-table": (["--d-min", "2", "--d-max", "2", "--n", "5"], {"n_samples", "seed", "eta_same", "d_min", "d_max"}),
        "bound-scan": (["--d", "2", "--n", "2"], {"d", "n_samples", "seed"}),
        "twirl-verify": (["--d", "2", "--n", "2"], {"d", "n_samples", "seed"}),
        "witness": (["--d", "2", "--w", "hadamard", "--r", "pauli-z"], {"d", "w", "r"}),
    }
    for command, (argv, options) in cases.items():
        rc, payload = run_json(tmp_path, [command] + argv)
        assert rc == 0, command
        assert set(payload["meta"]) == options | {"command", "version"}, command
        assert payload["meta"]["command"] == command
    rc, payload = run_json(tmp_path, ["compare", "--d", "3", "--u", "fourier-d", "--v", "identity", "--seed", "7"])
    assert payload["meta"] == {"command": "compare", "d": 3, "seed": 7, "u": "fourier-d", "v": "identity",
                               "version": chancomp.__version__}


def test_bound_scan_violation_writes_nothing(monkeypatch, tmp_path, capsys):
    # A scan whose draws beat the bound fails like every other command: exit 4, no report anywhere.
    monkeypatch.setattr(cli, "success_bound", lambda d: 0.0)
    assert main(["bound-scan", "--d", "2", "--n", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation: 3 draw(s) exceeded the success bound") and "Traceback" not in err
    out_path = tmp_path / "scan.json"
    assert main(["bound-scan", "--d", "2", "--n", "3", "--out", str(out_path)]) == 4
    assert not out_path.exists()


def test_library_value_error_exits_4(monkeypatch, capsys):
    # A failed construction-time check inside a command is a broken
    # invariant: exit 4 with one line, no traceback, nothing on stdout.
    def broken_ppovm(d, rng, rho=None):
        raise ValueError("element 'inconclusive' is not positive semidefinite")

    monkeypatch.setattr(cli, "random_unambiguous_ppovm", broken_ppovm)
    assert main(["bound-scan", "--d", "2", "--n", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation:") and "Traceback" not in err

    def mismatched_ppovm(d, rng, rho=None):
        raise DimensionMismatchError("rho must live on two qudits of dim 2")

    monkeypatch.setattr(cli, "random_unambiguous_ppovm", mismatched_ppovm)
    assert main(["bound-scan", "--d", "2", "--n", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("dimension error:")


def test_non_finite_json_payload_exits_4(monkeypatch, capsys, tmp_path):
    def nan_report(strategy, u, v, seed=0):
        return ComparisonReport(p_diff=float("nan"), p_inconclusive=0.5, verdict="inconclusive", seed=seed)

    monkeypatch.setattr(cli, "run_pair", nan_report)
    argv = ["compare", "--d", "2", "--u", "identity", "--v", "pauli-x"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation:") and "Traceback" not in err
    out_path = tmp_path / "out.json"
    assert main(argv + ["--out", str(out_path)]) == 4
    assert not out_path.exists()


def test_success_table_values(tmp_path):
    rc, payload = run_json(
        tmp_path,
        ["success-table", "--d-min", "2", "--d-max", "4", "--n", "1500", "--seed", "3"],
    )
    assert rc == 0
    rows = payload["rows"]
    assert [row["d"] for row in rows] == [2, 3, 4]
    for row in rows:
        d = row["d"]
        assert abs(row["optimal_analytic"] - (d + 1) / (2 * d)) <= 1e-12
        assert abs(row["symmetric_analytic"] - (d - 1) / (2 * d)) <= 1e-12
        assert abs(row["optimal_mc"] - row["optimal_analytic"]) <= 5 * row["optimal_mc_stderr"]
        assert abs(row["symmetric_mc"] - row["symmetric_analytic"]) <= 5 * row["symmetric_mc_stderr"]


def test_success_table_eta_and_range_check(tmp_path):
    rc, payload = run_json(
        tmp_path,
        ["success-table", "--d-min", "2", "--d-max", "2", "--n", "10", "--eta-same", "0.5"],
    )
    assert rc == 0
    row = payload["rows"][0]
    assert abs(row["overall_optimal"] - 0.375) <= 1e-12
    assert abs(row["overall_symmetric"] - 0.125) <= 1e-12

    assert main(["success-table", "--d-min", "2", "--d-max", "7", "--n", "10"]) == 2
    assert main(["success-table", "--d-min", "3", "--d-max", "2", "--n", "10"]) == 2
    assert main(["success-table", "--d-min", "2", "--d-max", "2", "--eta-same", "1.5"]) == 2


def test_csv_output_format(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(
        ["success-table", "--d-min", "2", "--d-max", "3", "--n", "200", "--seed", "9",
         "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#") and "seed=9" in lines[0] and "version=" in lines[0]
    header = lines[1].split(",")
    assert header[0] == "d" and "optimal_analytic" in header
    first = dict(zip(header, lines[2].split(",")))
    assert first["optimal_analytic"] == "0.75"
    # plain decimal point, no locale separators
    assert "," not in first["optimal_mc"] and float(first["optimal_mc"]) > 0


def test_outputs_byte_identical_for_same_seed(tmp_path):
    args = ["success-table", "--d-min", "2", "--d-max", "3", "--n", "300", "--seed", "21"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    c = tmp_path / "c.json"
    assert main(["success-table", "--d-min", "2", "--d-max", "3", "--n", "300",
                 "--seed", "22", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_bound_scan(tmp_path):
    args = ["bound-scan", "--d", "2", "--n", "60", "--seed", "4"]
    rc, payload = run_json(tmp_path, args)
    assert rc == 0
    row = payload["rows"][0]
    assert row["violations"] == 0
    assert row["max_success"] <= row["bound"] + 1e-9
    assert row["margin"] >= -1e-9

    a, b = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_twirl_verify(tmp_path):
    rc, payload = run_json(tmp_path, ["twirl-verify", "--d", "2", "--n", "2000", "--seed", "6"])
    assert rc == 0
    residuals = {row["check"]: row["residual"] for row in payload["rows"]}
    assert residuals["mc_vs_exact[p_plus]"] <= 1e-10
    assert residuals["mc_vs_exact[p_minus]"] <= 1e-10
    assert residuals["mc_vs_exact[swap]"] <= 1e-10
    assert residuals["exact_idempotent"] <= 1e-12
    assert residuals["exact_trace_preserving"] <= 1e-12
    for name, value in residuals.items():
        assert value <= 0.2, name


def battery(d, herm):
    """twirl-verify's seven battery operators, herm the random Hermitian one."""
    p_plus, p_minus = projector(d, 1), projector(d, -1)
    ops = {"identity": np.eye(d * d), "swap": p_plus - p_minus, "p_plus": p_plus, "p_minus": p_minus,
           "random_hermitian": herm}
    for name, (row, col) in (("ket01_proj", (1, 1)), ("ket01_bra10", (1, d))):
        ops[name] = np.zeros((d * d, d * d), dtype=complex)
        ops[name][row, col] = 1.0
    return ops


def test_twirl_choi_fill_acts_as_twirl_exact():
    # twirl-verify reads each mc_vs_exact row off the one residual against the filled
    # Choi operator C, so the Choi action T(Y)_ab = sum_ij Y_ij C_(ia),(jb) of the fill
    # must be twirl_exact(Y): on the battery and on a random complex Y.
    rng = np.random.default_rng(61)
    for d in range(2, 7):
        dd = d * d
        h = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
        ops = battery(d, (h + h.conj().T) / 2)
        ops["random_complex"] = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
        choi = _twirl_choi_fill(d).reshape(dd, dd, dd, dd)
        for name, y in ops.items():
            action = np.tensordot(y, choi, axes=([0, 1], [0, 2]))
            assert max_abs(action - twirl_exact(y)) <= 1e-14 * max(1.0, max_abs(y)), (d, name)


def test_twirl_verify_draws_n_unitaries(tmp_path, monkeypatch):
    # After the herm draw, twirl-verify uses the stream exactly as n haar_sample
    # calls in turn: it leaves its generator where a reference generator stands
    # after those calls, and every row is the per-draw recomputation on them.
    seen = []

    def recorded(d, n, rng):
        seen.append(rng)
        return _twirl_choi_mc(d, n, rng)

    monkeypatch.setattr(cli, "_twirl_choi_mc", recorded)
    for d, n in ((2, 130), (3, 65)):
        seen.clear()
        rc, payload = run_json(tmp_path, ["twirl-verify", "--d", str(d), "--n", str(n), "--seed", "5"])
        assert rc == 0
        assert len(payload["rows"]) == 10
        rng = np.random.default_rng(5)
        h = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        ops = battery(d, (h + h.conj().T) / 2)
        twirled = {name: np.zeros((d * d, d * d), dtype=complex) for name in ops}
        choi = np.zeros((d**4, d**4), dtype=complex)
        for _ in range(n):
            k = np.kron(*[haar_sample(d, rng).mat] * 2)
            for name, y in ops.items():
                twirled[name] += k @ y @ k.conj().T
            choi += choi_of_unitary(UnitaryOp(k)).mat
        assert len(seen) == 1 and seen[0].bit_generator.state == rng.bit_generator.state
        residuals = {row["check"]: row["residual"] for row in payload["rows"]}
        for name, y in ops.items():
            assert abs(residuals[f"mc_vs_exact[{name}]"] - max_abs(twirled[name] / n - twirl_exact(y))) <= 1e-12, name
        assert abs(residuals["pair_choi_mc_vs_twirl_choi"] - max_abs(choi / n - twirl_choi(d).mat)) <= 1e-12


def test_twirl_verify_reads_every_row_off_the_pair_choi_estimate(tmp_path, monkeypatch):
    # The battery twirls come from the one Choi estimate, with no per-draw
    # conjugation and no streamed estimator, and each row is the residual of
    # twirl_mc on the same draws (the generator state after the herm draw).
    def after_herm(d):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        return rng, (h + h.conj().T) / 2

    def refuse(*args, **kwargs):
        raise AssertionError("twirl-verify ran a second Monte Carlo path")

    for d in (2, 3):
        ops = {"identity": np.eye(d * d, dtype=complex), "random_hermitian": after_herm(d)[1]}
        for name, (row, col) in (("ket01_proj", (1, 1)), ("ket01_bra10", (1, d))):
            ops[name] = np.zeros((d * d, d * d), dtype=complex)
            ops[name][row, col] = 1.0
        want = {name: max_abs(twirl_mc(y, 130, after_herm(d)[0]).mean - twirl_exact(y)) for name, y in ops.items()}
        with monkeypatch.context() as patched:
            patched.setattr(haar, "_conjugate_stack", refuse)
            patched.setattr(haar, "_mc_mean", refuse)
            rc, payload = run_json(tmp_path, ["twirl-verify", "--d", str(d), "--n", "130", "--seed", "5"])
        assert rc == 0
        assert len(payload["rows"]) == 10
        residuals = {row["check"]: row["residual"] for row in payload["rows"]}
        for name, value in want.items():
            assert abs(residuals[f"mc_vs_exact[{name}]"] - value) <= 1e-12, name


def test_pair_choi_mean_matches_per_draw_outer_products():
    # The chunked Gram sum against the per-draw |w><w| sum on the same
    # draws, with n on both sides of chunk boundaries.
    for d in (2, 3):
        for n in (63, 64, 65, 130):
            got = _twirl_choi_mc(d, n, np.random.default_rng(60 + d))
            rng = np.random.default_rng(60 + d)
            total = np.zeros((d**4, d**4), dtype=complex)
            for _ in range(n):
                u = haar_sample(d, rng)
                total += choi_of_unitary(UnitaryOp(np.kron(u.mat, u.mat))).mat
            assert max_abs(got - total / n) <= 1e-12


def test_twirl_verify_holds_at_most_two_and_a_half_doubled_space_arrays():
    # At d=6 the pair-Choi estimate is held with one more d^4 x d^4 complex array
    # (26.9 MB each) at a time: first the exact twirl Choi operator, filled, subtracted in
    # place and freed, never validated; then the tensordot's transposed copy of the
    # residual.  So the peak stays below 2.5.
    assert traced_peak(["twirl-verify", "--n", "2", "--seed", "5"], 6) <= 2.5 * 6**8 * 16


def test_bound_scan_holds_at_most_four_and_three_quarter_doubled_space_arrays():
    # A d=4 draw holds its two elements (1 MiB each), each formed in place, and the
    # shifted copy and Cholesky factor of one PSD check at a time; the (256, 120)
    # cross-subspace isometry is freed once M_diff is formed, and the one
    # normalisation residual comes after both checks.
    assert traced_peak(["bound-scan", "--n", "1", "--seed", "5"], 4) <= 4.75 * 4**8 * 16


def test_witness(tmp_path):
    rc, payload = run_json(tmp_path, ["witness", "--d", "2", "--w", "hadamard", "--r", "pauli-z"])
    assert rc == 0
    assert payload["product_residual"] <= 1e-10
    assert payload["choi_residual"] <= 1e-10
    assert payload["u"]["rows"] == 2

    rc, payload = run_json(tmp_path, ["witness", "--d", "3", "--w", "fourier-d", "--r", "fourier-d"])
    assert rc == 0
    assert payload["choi_residual"] <= 1e-10

    assert main(["witness", "--d", "2", "--w", "hadamard", "--r", "identity"]) == 2


def test_witness_accepts_gates_that_resolve_gate_accepts(tmp_path):
    # W and R each sit 9.0e-11 from unitary, inside ATOL, so resolve_gate takes them.
    # W^2, W R and R^dag W sit about twice as far; they are products of checked
    # gates and are not checked again.
    paths = {}
    for name, mat in (("w", np.diag([1 + 4.5e-11, 1])), ("r", np.diag([1 + 4.5e-11, -1]))):
        assert max_abs(mat.conj().T @ mat - np.eye(2)) <= 1e-10
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(matrix_to_json(mat)))
    rc, payload = run_json(tmp_path, ["witness", "--d", "2", "--w", f"@{paths['w']}", "--r", "pauli-z"])
    assert rc == 0
    assert payload["product_residual"] <= 1e-15
    assert payload["choi_residual"] <= 1e-15
    rc, payload = run_json(tmp_path, ["witness", "--d", "2", "--w", f"@{paths['w']}", "--r", f"@{paths['r']}"])
    assert rc == 0


def test_witness_builds_no_d2_by_d2_array():
    # Peak traced allocation of witness at d=32 stays below one d^2 x d^2
    # complex array (16 MiB).
    assert traced_peak(["witness", "--w", "fourier-d", "--r", "fourier-d"], 32) < 32**4 * 16


def test_witness_validates_no_choi_operator(monkeypatch, tmp_path):
    # Both Choi operators are rank one and PSD by construction; the residual reads their vectors.
    def refuse(*args, **kwargs):
        raise AssertionError("witness validated a dense operator")

    monkeypatch.setattr(qobj.ChoiOp, "__init__", refuse)
    monkeypatch.setattr(qobj, "is_psd", refuse)
    rc, payload = run_json(tmp_path, ["witness", "--d", "3", "--w", "fourier-d", "--r", "fourier-d"])
    assert rc == 0
    assert payload["choi_residual"] <= 1e-10


def test_witness_choi_residual_matches_dense_choi_oracle(tmp_path):
    # Bit for bit the residual of the two validated Choi operators, for the
    # Fourier gate and for random gates, whose largest entry can lie in any row block.
    rng = np.random.default_rng(12)
    specs = [(d, "fourier-d", "fourier-d") for d in (2, 3, 16)]
    for k in range(6):
        d, paths = 2 + k % 2, []
        for name in "wr":
            path = tmp_path / f"{name}{k}.json"
            path.write_text(json.dumps(matrix_to_json(haar_sample(d, rng).mat)))
            paths.append(f"@{path}")
        specs.append((d, *paths))
    for d, w_spec, r_spec in specs:
        rc, payload = run_json(tmp_path, ["witness", "--d", str(d), "--w", w_spec, "--r", r_spec])
        assert rc == 0
        w = resolve_gate(w_spec, d)
        u, v = sequential_witness(w, resolve_gate(r_spec, d))
        uv, ww = UnitaryOp(u @ v), UnitaryOp(w.mat @ w.mat)
        assert payload["choi_residual"] == max_abs(choi_of_unitary(uv).mat - choi_of_unitary(ww).mat)


def test_console_entry_point():
    # The child imports the same chancomp as this process, installed or not.
    src = str(Path(chancomp.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "chancomp.cli", "compare", "--d", "2", "--u", "identity", "--v", "pauli-y"],
        capture_output=True,
        text=True,
        env=os.environ | {"PYTHONPATH": src},
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(payload["report"]["p_diff"] - 1.0) <= 1e-12


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "compare" in capsys.readouterr().out
