"""Self-tests of the benchmark harness at tiny sizes.

Run from the repository root:  python -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import contextlib
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import chancomp  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from chancomp import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
EIGVALSH = np.linalg.eigvalsh


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    env = os.environ | {"PERFBENCH_SIZES": "tiny"}
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env, timeout=600, check=False)


def run_tiny(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, detail, summary = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(summary)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(workload, trace):
    detail, summary = run_tiny(workload, 1, trace)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1, detail["problems"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for m in summary["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in summary["metrics"].values())
        assert detail["determinism"]["byte_identical"] is True
        assert detail["environment"]["threads_effective"]["OPENBLAS_NUM_THREADS"] == "1"


def test_seed_changes_inputs(monkeypatch):
    monkeypatch.setenv("PERFBENCH_SIZES", "tiny")
    assert workloads.round_seeds(1, 0, 4) != workloads.round_seeds(2, 0, 4)
    assert workloads.round_seeds(1, 0, 4) != workloads.round_seeds(1, 1, 4)
    assert workloads.round_seeds(1, 0, 4) == workloads.round_seeds(1, 0, 4)
    a = workloads.setup("dense_large_d", 1, HERE_TMP())
    b = workloads.setup("dense_large_d", 2, HERE_TMP())
    assert not np.allclose(a.gate, b.gate)
    assert not np.allclose(a.xi["pure"], b.xi["pure"])
    digests = {seed: run_tiny("bound_search", seed, 0)[0]["output_digest"] for seed in (1, 2)}
    assert digests[1] != digests[2]


def HERE_TMP():
    path = os.path.join(ROOT, ".perfbench_work", f"test-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def teardown_module():
    shutil.rmtree(os.path.join(ROOT, ".perfbench_work", f"test-{os.getpid()}"), ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.join(ROOT, ".perfbench_work"))


def traced_cli(argv):
    tracer = spans.Tracer()
    with contextlib.redirect_stdout(io.StringIO()) as out, spans.installed(tracer, chancomp, np):
        assert cli.main(argv) == 0
    return tracer.spans, spans.summarize(tracer.spans), out.getvalue()


def test_haar_sample_calls_are_four_per_pair_per_row():
    n = 7
    argv = ["success-table", "--d-min", "2", "--d-max", "3", "--n", str(n), "--seed", "5"]
    _, table, traced_out = traced_cli(argv)
    rows = 2
    assert table["haar.haar_sample"]["calls"] == 4 * n * rows
    assert table["qobj.UnitaryOp"]["calls"] == 4 * n * rows
    assert table["comparator.average_success_mc"]["samples"] == 2 * n * rows
    # Tracing changes nothing the program prints, and the wrappers are gone afterwards.
    assert workloads.call_cli(argv)[1] == traced_out
    assert chancomp.comparator.haar_sample is chancomp.haar.haar_sample
    assert np.linalg.eigvalsh is EIGVALSH


def test_max_psd_scale_bisection_takes_35_eigensolves():
    span_list, table, _ = traced_cli(["bound-scan", "--d", "2", "--n", "3", "--seed", "4"])
    calls = table["comparator.max_psd_scale"]["calls"]
    assert calls == 3
    assert spans.child_calls(span_list, "comparator.max_psd_scale", "numpy.eigvalsh") == 35 * calls


def test_self_time_excludes_children():
    span_list = [["outer", 0.0, 10.0, -1, None], ["inner", 1.0, 4.0, 0, None], ["inner", 5.0, 6.0, 0, None]]
    table = spans.summarize(span_list)
    assert table["outer"]["self_s"] == 6.0 and table["outer"]["busy_s"] == 10.0
    assert table["inner"]["calls"] == 2 and table["inner"]["busy_s"] == 4.0


def test_checks_catch_wrong_outputs():
    check = workloads.check_success_table((2,))
    good = {"rows": [{"d": 2, "optimal_analytic": 0.75, "optimal_mc": 0.75, "optimal_mc_stderr": 0.01,
                      "symmetric_analytic": 0.25, "symmetric_mc": 0.25, "symmetric_mc_stderr": 0.01}]}
    assert check(good) == []
    bad = json.loads(json.dumps(good))
    bad["rows"][0]["optimal_mc"] = 0.75 + 0.06
    assert len(check(bad)) == 1
    scan = workloads.check_bound_scan(2, 10)
    row = {"d": 2, "n_draws": 10, "max_success": 0.75 + 1e-6, "bound": 0.75, "margin": -1e-6, "violations": 0}
    assert len(scan({"rows": [row]})) == 1


def test_sampled_call_excludes_kernel_time_and_restores_handler():
    ref = reference.Reference(("small",))
    ref.interval = 0.01
    handler = signal.getsignal(signal.SIGALRM)

    def busy():  # pure Python, so the handler gets bytecode boundaries to run at
        return sum(i * i for i in range(2_000_000))

    start = time.perf_counter()
    result, seconds, samples = ref.sampled_call(busy)
    total = time.perf_counter() - start
    assert result == busy() and samples
    assert seconds < total and abs(total - seconds - sum(s["small"] for s in samples)) < 0.01
    assert signal.getsignal(signal.SIGALRM) is handler
    nominal = reference.NOMINAL_S["small"]
    assert ref.rescale(2.0, [{"small": nominal / 2}, {"small": nominal / 2}]) == 4.0


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "haar_mc", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
