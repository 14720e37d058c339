#!/usr/bin/env python3
"""chancomp benchmark: closed-loop workloads with checked outputs and layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload haar_mc --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 makes
a separate traced run: it alternates untraced and traced rounds on the same
inputs and reports the per-layer metrics of BENCHMARK.json, including the
tracing overhead.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
details (environment, sample statistics, workload figures, output digest).

The library is imported from src/ of the checkout; the run fails with exit
code 2 when src/chancomp is missing.  BLAS runs single-threaded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spans  # stdlib only; the modules that import numpy load after the thread pin

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "chancomp")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

# Set-ups per run, reported as their median.  Each imports chancomp afresh and
# builds the inputs; dense_large_d builds d=6 strategies, so it does fewer.
SETUP_REPEATS = {"haar_mc": 25, "bound_search": 25, "dense_large_d": 3}


def pin_blas_threads() -> dict:
    """Run BLAS/OpenMP single-threaded; return the variables as found.

    One thread is within the at-most-nproc limit and is what keeps runs
    comparable on a small shared machine: with two BLAS threads on two vCPUs
    the d=7 compare varied by 30% between consecutive calls, with one by 5%.
    """
    as_set = {var: os.environ.get(var) for var in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return as_set


def pin_cpu() -> tuple[int, int]:
    """Keep the process on one vCPU; return it and the number of vCPUs allowed before.

    The reference kernel (reference.py) measures the speed of the vCPU it
    runs on, and the host's vCPUs slow down independently, so the kernel
    and the operations it rescales must share one.  In five-seed sets of
    haar_mc the rescaled spreads were 0.04-0.06 pinned and 0.06-0.12 not.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return min(allowed), len(allowed)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def stats(samples: list[float]) -> dict:
    """Median plus the highest standard percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(samples), "samples": len(samples), "p_hi": None, "p_hi_pct": None}
    for pct in (99.9, 99, 95, 90, 75):
        if len(samples) * (1 - pct / 100) >= 10:
            ordered = sorted(samples)
            out["p_hi"] = ordered[min(len(ordered) - 1, math.ceil(pct / 100 * len(ordered)) - 1)]
            out["p_hi_pct"] = pct
            break
    return out


def line_counts() -> dict[str, int]:
    """Non-blank lines per library module."""
    counts = {}
    for layer in spans.LAYERS:
        with open(os.path.join(PACKAGE, f"{layer}.py"), encoding="utf-8") as fh:
            counts[layer] = sum(1 for line in fh if line.strip())
    return counts


def source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """Commit of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):  # do not report an enclosing repository's commit
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
                              timeout=10, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(np, threads_as_set: dict) -> dict:
    import platform

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads_as_set": threads_as_set,
        # numpy (and with it OpenBLAS) loads after the pin and reads these once.
        "threads_effective": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "loc": line_counts(),
    }


class Ledger:
    """Checked-operation counts, problems, round-0 outputs and the determinism probe."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_outputs: list[tuple[str, bytes]] = []

    def record(self, op, result, keep_output: bool) -> None:
        if isinstance(result, BaseException):
            out, checked, problems = b"", 1, [f"raised {type(result).__name__}: {result}"]
        else:
            try:
                out, checked, problems = op.check(result)
            except Exception as exc:  # a malformed output counts as a failed operation
                out, checked, problems = b"", 1, [f"check raised {type(exc).__name__}: {exc}"]
        self.attempted += checked
        self.failed += min(checked, len(problems))
        self.problems += [f"{op.label}: {p}" for p in problems]
        if keep_output:
            self.first_outputs.append((op.label, out))

    def digest(self) -> str:
        h = hashlib.sha256()
        for label, out in self.first_outputs:
            h.update(label.encode() + b"\0" + hashlib.sha256(out).digest())
        return h.hexdigest()


def call_op(op):
    """Call an operation; an exception becomes its result, recorded later as a failed operation."""
    try:
        return op.call()
    except Exception as exc:  # the loop goes on
        traceback.print_exc(file=sys.stderr)
        return exc


def run_round(ops, reference=None) -> tuple[float, list]:
    """Run one round closed-loop; return its wall time and (op, result, seconds, kernel times) per op.

    With a reference, its kernel runs before the first operation, during
    each (see Reference.sampled_call) and after each, and an operation's
    seconds exclude the kernel's.  Its kernel times are those of the runs
    just before, during and just after it; without a reference they are
    None.
    """
    timed = []
    clock = time.perf_counter
    start = clock()
    before = reference.time() if reference else None
    for op in ops:
        if reference is None:
            t = clock()
            result = call_op(op)
            timed.append((op, result, clock() - t, None))
            continue
        result, seconds, during = reference.sampled_call(lambda: call_op(op))
        after = reference.time()
        timed.append((op, result, seconds, [before, *during, after]))
        before = after
    return clock() - start, timed


def determinism_probe(workload, ledger: Ledger) -> dict:
    """Repeat round 0's first operation and require byte-identical output."""
    op = workload.ops(0)[0]
    first_label, first_out = ledger.first_outputs[0]
    try:
        again, _, _ = op.check(op.call())
    except Exception as exc:
        again = repr(exc).encode()
    same = again == first_out
    ledger.attempted += 1
    if not same:
        ledger.failed += 1
        ledger.problems.append(f"{first_label}: output differs when repeated with the same seed")
    return {"op": first_label, "byte_identical": same}


def build(args, workdir: str, reference):
    """Import chancomp afresh and build the workload's inputs.

    Returns (raw seconds, rescaled seconds, workloads module, workload); the
    reference kernel runs before, during and after the build, as around an
    operation.
    """
    for name in [m for m in sys.modules if m in ("chancomp", "workloads") or m.startswith("chancomp.")]:
        del sys.modules[name]

    def build_once():
        workloads = importlib.import_module("workloads")  # imports chancomp
        return workloads, workloads.setup(args.workload, args.seed, workdir)

    before = reference.time()
    (workloads, workload), seconds, during = reference.sampled_call(build_once)
    return seconds, reference.rescale(seconds, [before, *during, reference.time()]), workloads, workload


def run(args) -> dict | None:
    threads_as_set = pin_blas_threads()
    cpu, nproc = pin_cpu()
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no chancomp sources at {os.path.relpath(PACKAGE)}", file=sys.stderr)
        return None
    sys.path.insert(0, SRC)
    import numpy as np  # a dependency, imported once; set-up times chancomp's own import

    import reference as reference_kernel  # imports numpy

    reference = reference_kernel.for_workload(args.workload)
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_samples, workload = {"raw": [], "rescaled": []}, None
        for _ in range(SETUP_REPEATS[args.workload]):
            workload = None  # free the previous inputs before building the next
            raw, rescaled, workloads, workload = build(args, workdir, reference)
            setup_samples["raw"].append(raw)
            setup_samples["rescaled"].append(rescaled)
        chancomp = sys.modules["chancomp"]
        if os.path.dirname(os.path.abspath(chancomp.__file__)) != PACKAGE:
            print(f"error: imported chancomp from {chancomp.__file__}, not {PACKAGE}", file=sys.stderr)
            return None
        if args.trace:
            result = traced_run(args, workload, np, chancomp)
        else:
            result = untraced_run(args, workload, reference, setup_samples, workloads)
        result["detail"]["environment"] = environment(np, threads_as_set) | {"nproc": nproc, "pinned_cpu": cpu}
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def untraced_run(args, workload, reference, setup_samples, workloads) -> dict:
    ledger = Ledger()
    walls, rounds = [], []
    kernels = {part: [] for part in reference.parts}
    raw = {"round": [], "a": [], "b": [], "c": []}
    rescaled = {key: [] for key in raw}
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
        wall, timed = run_round(workload.ops(r), reference)
        walls.append(wall)
        for *_, samples in timed:
            for sample in samples:
                for part, seconds in sample.items():
                    kernels[part].append(seconds)
        for key in raw:
            chosen = [(op, dt, samples) for op, _, dt, samples in timed if key in ("round", op.part)]
            raw[key].append(sum(dt for _, dt, _ in chosen))
            rescaled[key].append(sum(reference.rescale(dt, samples, op.kernel) for op, dt, samples in chosen))
        rounds.append([(op, dt) for op, _, dt, _ in timed])
        for op, result, _, _ in timed:
            ledger.record(op, result, keep_output=r == 0)
        r += 1
    determinism = determinism_probe(workload, ledger)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB

    samples = {
        "setup_s": setup_samples["rescaled"],
        "round_s": rescaled["round"],
        "peak_rss_mb": [peak_rss_mb],
        "part_a_s": rescaled["a"],
        "part_b_s": rescaled["b"],
        "part_c_s": rescaled["c"],
    }
    raw_samples = {
        "setup_s": setup_samples["raw"],
        "round_s": raw["round"],
        "part_a_s": raw["a"],
        "part_b_s": raw["b"],
        "part_c_s": raw["c"],
        "round_with_kernel_s": walls,
    } | {f"kernel_{part}_s": seconds for part, seconds in kernels.items()}
    figures = {name: {"unit": unit} | stats(values) for name, (unit, values) in workloads.named_metrics(rounds).items()}
    figures["error_rate"] = {"unit": "1", "median": ledger.failed / ledger.attempted, "samples": 1}
    detail = {
        "rounds": r,
        "end_to_end": {name: stats(values) for name, values in samples.items()},
        "raw_seconds": {name: stats(values) for name, values in raw_samples.items()},
        "figures": figures,
        "parts": {part: sorted({op.label for op, _ in rounds[0] if op.part == part}) for part in "abc"},
        "determinism": determinism,
        "output_digest": ledger.digest(),
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return finish(args, ledger, metrics, detail)


def traced_run(args, workload, np, chancomp) -> dict:
    ledger = Ledger()
    tracer = spans.Tracer()
    untraced_walls, traced_walls, tables, out_bytes = [], [], [], []
    first_spans = None
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start + statistics.median(traced_walls) + statistics.median(
        untraced_walls
    ) <= args.seconds:
        wall, timed = run_round(workload.ops(r))
        untraced_walls.append(wall)
        for op, result, *_ in timed:
            ledger.record(op, result, keep_output=r == 0)
        tracer.reset()
        with spans.installed(tracer, chancomp, np):
            wall, timed = run_round(workload.ops(r))
        traced_walls.append(wall)
        tables.append(spans.summarize(tracer.spans))
        if first_spans is None:
            first_spans = list(tracer.spans)
        # CLI operations return (exit code, stdout, stderr); library ones return objects.
        out_bytes.append(sum(len(res[1].encode()) for _, res, *_ in timed if isinstance(res, tuple)))
        for op, result, *_ in timed:
            ledger.record(op, result, keep_output=False)
        r += 1

    first = tables[0]
    psd = first.get("comparator.max_psd_scale", {}).get("calls", 0)
    derived = {
        "comparator.max_psd_scale.eigvalsh_per_call":
            spans.child_calls(first_spans, "comparator.max_psd_scale", "numpy.eigvalsh") / psd if psd else 0.0,
        "cli.out_bytes": out_bytes[0],
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
    } | {f"{layer}.loc": count for layer, count in line_counts().items()}

    metrics = {}
    for name in (m["name"] for m in load_spec()["per_layer"]):
        if name in derived:
            metrics[name] = derived[name]
            continue
        span, field = name.rsplit(".", 1)
        values = [table.get(span, {}).get(field, 0) for table in tables]
        # Counts repeat exactly from round to round; times are medians over traced rounds.
        metrics[name] = statistics.median(values) if field.endswith("_s") else values[0]
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "attrs"], "spans": first_spans}, fh)
    detail = {
        "rounds": r,
        "untraced_wall_s": stats(untraced_walls),
        "traced_wall_s": stats(traced_walls),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "span_table": first,
    }
    return finish(args, ledger, metrics, detail)


def finish(args, ledger: Ledger, values: dict, detail: dict) -> dict:
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  sizes=os.environ.get("PERFBENCH_SIZES", "full"), problems=ledger.problems[:50])
    return {
        "detail": detail,
        "summary": {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        },
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("haar_mc", "bound_search", "dense_large_d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    if result is None:
        return 2
    print(json.dumps(result["detail"], sort_keys=True, default=str))
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
