"""The three benchmark workloads: seeded inputs, closed-loop operations, checks.

Every workload is a list of operations that one caller runs in order, each
starting after the previous one returns (a closed loop with one client).
One pass over the list is a round.  Inputs are made here from the workload
seed with the benchmark's own numpy code, so a change to chancomp's samplers
cannot change what chancomp is asked to do; chancomp receives only the
generated CLI arguments, gate files and library arguments.

Each operation has a timed ``call`` and an untimed ``check`` that returns the
output bytes (for the determinism digest), the number of checked operations
it contains and the list of problems found.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import chancomp
from chancomp import cli
from reference import haar_unitary

ANALYTIC_TOL = 1e-12  # analytic success vs (d +- 1)/(2d)
MC_SIGMAS = 5.0  # Monte Carlo estimate vs analytic value, in standard errors
BOUND_SLACK = 1e-9  # bound-scan max_success vs (d+1)/(2d)
NO_ERROR_TOL = 1e-10  # p_diff for identical channels, normalisation, oracle match


@dataclass(frozen=True)
class Sizes:
    """Per-round work.  'full' is what the benchmark measures; 'tiny' is for self-tests."""

    table_n: int  # haar_mc: success-table samples per row (d = 2..4), per call
    table_calls: int  # haar_mc: success-table calls per round
    twirl_n: int  # haar_mc: twirl-verify samples (d = 2, 3)
    channel_n: int  # haar_mc: average_channel_mc samples per operator
    scan: tuple[tuple[int, int, int], ...]  # bound_search: (d, draws per call, calls) for parts a, b, c
    dense_d: int  # dense_large_d: qudit dimension
    pairs: int  # dense_large_d: Haar pairs per run_pair operation
    pair_batches: int  # dense_large_d: run_pair operations per strategy per round


PROFILES = {
    "full": Sizes(
        table_n=250, table_calls=2, twirl_n=300, channel_n=1000, scan=((2, 50, 4), (3, 10, 3), (4, 1, 1)),
        dense_d=6, pairs=20, pair_batches=4,
    ),
    "tiny": Sizes(
        table_n=40, table_calls=2, twirl_n=30, channel_n=40, scan=((2, 6, 2), (3, 2, 2), (4, 1, 1)),
        dense_d=3, pairs=3, pair_batches=2,
    ),
}


@dataclass
class Op:
    """One closed-loop operation of a round.

    part is the end-to-end metric slot ('a', 'b' or 'c') its time adds to;
    figures names the workload-specific figures it feeds, with units of work
    for a rate (units == 0 means each figure is a time in seconds).  kernel
    names the reference kernel parts its time is rescaled by (see
    reference.py); None means all parts of the workload's kernel.
    """

    label: str
    part: str
    figures: tuple[str, ...]
    units: int
    call: Callable[[], object]
    check: Callable[[object], tuple[bytes, int, list[str]]]
    kernel: tuple[str, ...] | None = None


# ---------------------------------------------------------------- inputs


def round_seeds(seed: int, round_index: int, count: int) -> list[int]:
    """Seeds for the CLI calls of one round, distinct per round and per workload seed."""
    return [int(s) for s in np.random.SeedSequence([seed, round_index]).generate_state(count)]


def fourier(d: int) -> np.ndarray:
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d)


def write_gate(path: str, m: np.ndarray) -> str:
    """Write m in chancomp's matrix JSON format and return the @path gate spec."""
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rows": m.shape[0], "cols": m.shape[1], "data": data}, fh)
    return "@" + path


def projectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric and antisymmetric projectors on two qudits, built independently of chancomp."""
    swap = np.eye(d * d).reshape(d, d, d, d).swapaxes(0, 1).reshape(d * d, d * d)
    eye = np.eye(d * d)
    return (eye + swap) / 2, (eye - swap) / 2


def pure_antisymmetric(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random pure two-qudit state on the antisymmetric subspace (rank 1)."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    v = (a - a.T).reshape(-1)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def p_diff_oracle(xi: np.ndarray, p_plus: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """tr(P+ (U x V) xi (U x V)^dag): the physical 'different' probability."""
    uv = np.kron(u, v)
    return float(np.einsum("ij,ji->", uv @ xi @ uv.conj().T, p_plus).real)


# ---------------------------------------------------------------- checks


def call_cli(argv: list[str]):
    """Run chancomp's CLI in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_check(validate: Callable[[dict], list[str]]):
    """Check that a CLI call exited 0 with JSON output, then validate the payload."""

    def check(result) -> tuple[bytes, int, list[str]]:
        rc, text, err = result
        if rc != 0:
            return text.encode(), 1, [f"exit code {rc}: {err.strip()[:200]}"]
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return text.encode(), 1, [f"output is not JSON: {exc}"]
        return text.encode(), 1, validate(payload)

    return check


def _within_sigmas(label: str, mc: float, se: float, exact: float) -> list[str]:
    if not abs(mc - exact) <= MC_SIGMAS * se:
        return [f"{label}: MC {mc} +- {se} is more than {MC_SIGMAS} standard errors from {exact}"]
    return []


def check_success_table(d_values):
    def validate(payload: dict) -> list[str]:
        rows = payload.get("rows", [])
        problems = []
        if [row.get("d") for row in rows] != list(d_values):
            return [f"success-table rows cover {[row.get('d') for row in rows]}, expected {list(d_values)}"]
        for row in rows:
            d = row["d"]
            for kind, exact in (("optimal", (d + 1) / (2 * d)), ("symmetric", (d - 1) / (2 * d))):
                analytic = row[f"{kind}_analytic"]
                if not abs(analytic - exact) <= ANALYTIC_TOL:
                    problems.append(f"d={d} {kind}_analytic {analytic} != {exact}")
                problems += _within_sigmas(f"d={d} {kind}", row[f"{kind}_mc"], row[f"{kind}_mc_stderr"], exact)
        return problems

    return validate


# The twirl-verify battery entries with unit operator norm: every entry of a
# conjugated unit-norm operator has modulus <= 1, so its sample standard
# deviation is <= 1 and 5/sqrt(n) bounds 5 standard errors.  The battery's
# random_hermitian operator is drawn inside the CLI with unknown norm and is
# not checked.
UNIT_NORM_TWIRL_CHECKS = (
    "mc_vs_exact[identity]", "mc_vs_exact[swap]", "mc_vs_exact[p_plus]", "mc_vs_exact[p_minus]",
    "mc_vs_exact[ket01_proj]", "mc_vs_exact[ket01_bra10]", "pair_choi_mc_vs_twirl_choi",
)


def check_twirl_verify(n: int):
    def validate(payload: dict) -> list[str]:
        residuals = {row["check"]: row["residual"] for row in payload.get("rows", [])}
        problems = []
        for name in UNIT_NORM_TWIRL_CHECKS:
            if not residuals.get(name, math.inf) <= MC_SIGMAS / math.sqrt(n):
                problems.append(f"{name} residual {residuals.get(name)} > {MC_SIGMAS}/sqrt({n})")
        for name in ("exact_idempotent", "exact_trace_preserving"):
            if not residuals.get(name, math.inf) <= ANALYTIC_TOL:
                problems.append(f"{name} residual {residuals.get(name)} > {ANALYTIC_TOL}")
        return problems

    return validate


def check_bound_scan(d: int, n: int):
    def validate(payload: dict) -> list[str]:
        (row,) = payload["rows"]
        bound = (d + 1) / (2 * d)
        problems = []
        if row["violations"] != 0:
            problems.append(f"bound-scan d={d}: {row['violations']} violations")
        if not row["max_success"] <= bound + BOUND_SLACK:
            problems.append(f"bound-scan d={d}: max_success {row['max_success']} > bound {bound}")
        if not abs(row["bound"] - bound) <= ANALYTIC_TOL or row["n_draws"] != n:
            problems.append(f"bound-scan d={d}: reported bound {row['bound']}, n_draws {row['n_draws']}")
        return problems

    return validate


def _pair_problems(label: str, p_diff: float, p_inc: float, expected: float) -> list[str]:
    problems = []
    if not abs(p_diff - expected) <= NO_ERROR_TOL:
        problems.append(f"{label}: p_diff {p_diff} vs independent value {expected}")
    if not abs(p_diff + p_inc - 1.0) <= NO_ERROR_TOL:
        problems.append(f"{label}: p_diff + p_inconclusive = {p_diff + p_inc}")
    return problems


def check_compare(d: int, u: np.ndarray, v: np.ndarray):
    p_plus, p_minus = projectors(d)
    expected = p_diff_oracle(p_minus / np.trace(p_minus).real, p_plus, u, v)

    def validate(payload: dict) -> list[str]:
        report = payload["report"]
        problems = _pair_problems(f"compare d={d}", report["p_diff"], report["p_inconclusive"], expected)
        if report["verdict"] not in ("different", "inconclusive"):
            problems.append(f"compare d={d}: verdict {report['verdict']!r}")
        return problems

    return validate


def check_pair_batch(xi: np.ndarray, p_plus: np.ndarray, pairs):
    """run_pair results against the oracle; identical pairs must give p_diff <= 1e-10."""
    expected = []
    for u, v in pairs:
        expected.append(p_diff_oracle(xi, p_plus, u.mat, v.mat))
        expected.append(p_diff_oracle(xi, p_plus, u.mat, u.mat))

    def check(reports) -> tuple[bytes, int, list[str]]:
        problems = []
        for i, (report, want) in enumerate(zip(reports, expected)):
            label = f"run_pair #{i // 2} {'(U, U)' if i % 2 else '(U, V)'}"
            found = _pair_problems(label, report.p_diff, report.p_inconclusive, want)
            if i % 2 and not report.p_diff <= NO_ERROR_TOL:
                found.append(f"{label}: p_diff {report.p_diff} > {NO_ERROR_TOL} for identical channels")
            if found:  # one failed evaluation, however many of its checks failed
                problems.append("; ".join(found))
        if len(reports) != len(expected):
            problems.append(f"run_pair batch returned {len(reports)} of {len(expected)} reports")
        out = json.dumps([r.to_json() for r in reports], sort_keys=True).encode()
        return out, len(expected), problems

    return check


def check_average_channel(xs):
    def check(estimates) -> tuple[bytes, int, list[str]]:
        problems = []
        for (label, x), est in zip(xs, estimates):
            exact = np.trace(x) / x.shape[0] * np.eye(x.shape[0])
            z = np.abs(est.mean - exact) - MC_SIGMAS * np.asarray(est.std_error)
            if not z.max() <= ANALYTIC_TOL:
                problems.append(f"average_channel_mc {label}: an entry is more than {MC_SIGMAS} SE from exact")
        out = b"".join(est.mean.tobytes() + np.asarray(est.std_error).tobytes() for est in estimates)
        return out, len(xs), problems

    return check


# ---------------------------------------------------------------- workloads


class HaarMc:
    """Per-draw Haar loops at d <= 4: scalar reduction vs matrix accumulation."""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed, self.sizes = seed, sizes
        self.channel_inputs = []
        for d in (2, 3):
            ket0 = np.zeros((d, d), dtype=complex)
            ket0[0, 0] = 1.0
            off = np.zeros((d, d), dtype=complex)
            off[0, 1] = 1.0
            self.channel_inputs += [(f"d={d} |0><0|", ket0), (f"d={d} |0><1|", off)]

    def ops(self, r: int) -> list[Op]:
        s = self.sizes
        *tables, twirl2, twirl3, channel = round_seeds(self.seed, r, s.table_calls + 3)
        ops = []
        for i, seed in enumerate(tables):
            argv = ["success-table", "--d-min", "2", "--d-max", "4", "--n", str(s.table_n), "--seed", str(seed)]
            ops.append(Op(f"success-table d=2..4 #{i}", "a", ("mc_pairs_per_s",), 3 * 2 * s.table_n,
                          lambda argv=argv: call_cli(argv), cli_check(check_success_table((2, 3, 4)))))
        for d, seed in ((2, twirl2), (3, twirl3)):
            argv = ["twirl-verify", "--d", str(d), "--n", str(s.twirl_n), "--seed", str(seed)]
            # 7 battery operators through twirl_mc plus the pair-Choi loop, n draws each.
            ops.append(Op(f"twirl-verify d={d}", "b", ("twirl_samples_per_s",), 8 * s.twirl_n,
                          lambda argv=argv: call_cli(argv), cli_check(check_twirl_verify(s.twirl_n))))

        def channels():
            rng = np.random.default_rng(channel)
            return [chancomp.average_channel_mc(x, s.channel_n, rng) for _, x in self.channel_inputs]

        ops.append(Op("average_channel_mc d=2,3", "c", ("twirl_samples_per_s",),
                      len(self.channel_inputs) * s.channel_n, channels, check_average_channel(self.channel_inputs)))
        return ops


class BoundSearch:
    """Random unambiguous PPOVMs: bisection eigensolves, no Haar draws."""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed, self.sizes = seed, sizes

    def ops(self, r: int) -> list[Op]:
        seeds = iter(round_seeds(self.seed, r, sum(calls for _, _, calls in self.sizes.scan)))
        ops = []
        for (d, n, calls), part in zip(self.sizes.scan, "abc"):
            for i in range(calls):
                argv = ["bound-scan", "--d", str(d), "--n", str(n), "--seed", str(next(seeds))]
                # At d=2 the eigensolves are 16 x 16 and per-draw Python work dominates.
                ops.append(Op(f"bound-scan d={d} #{i}", part, (f"ppovm_draws_per_s.d{d}",), n,
                              lambda argv=argv: call_cli(argv), cli_check(check_bound_scan(d, n)),
                              kernel=("small",) if d == 2 else None))
        return ops


class DenseLargeD:
    """Dense d^4 construction, validation and evaluation at d = 6."""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed, self.sizes = seed, sizes
        d = sizes.dense_d
        rng = np.random.default_rng(seed)
        self.gate = haar_unitary(d, rng)
        self.gate_spec = write_gate(os.path.join(workdir, f"haar_d{d}.json"), self.gate)

        # Prebuilt strategies: full-rank (uniform) and pure antisymmetric xi.
        self.p_plus, p_minus = projectors(d)
        self.xi = {"full_rank": p_minus / np.trace(p_minus).real, "pure": pure_antisymmetric(d, rng)}
        self.strategies = {
            "full_rank": chancomp.make_strategy("antisym_optimal", chancomp.uniform_antisymmetric_state(d)),
            "pure": chancomp.make_strategy("antisym_optimal", chancomp.QState(self.xi["pure"], [d, d])),
        }
        self.pairs = [
            (chancomp.UnitaryOp(haar_unitary(d, rng)), chancomp.UnitaryOp(haar_unitary(d, rng)))
            for _ in range(sizes.pairs * sizes.pair_batches)
        ]

    def _pair_batch(self, kind: str, part: str, b: int) -> Op:
        """run_pair over batch b of the prebuilt pairs, (U, V) and (U, U), with one strategy."""
        strategy = self.strategies[kind]
        first = b * self.sizes.pairs
        pairs = self.pairs[first:first + self.sizes.pairs]

        def batch():
            reports = []
            for i, (u, v) in enumerate(pairs, start=first):
                reports.append(chancomp.run_pair(strategy, u, v, seed=i))
                reports.append(chancomp.run_pair(strategy, u, u, seed=i))
            return reports

        # Each run_pair reads two 27 MB strategy elements.
        return Op(f"run_pair {kind} xi #{b}", part, ("pair_evals_per_s", f"pair_evals_per_s.{kind}"),
                  2 * len(pairs), batch, check_pair_batch(self.xi[kind], self.p_plus, pairs), kernel=("memory",))

    def ops(self, r: int) -> list[Op]:
        d = self.sizes.dense_d
        (compare_seed,) = round_seeds(self.seed, r, 1)
        # compare mixes a seeded Haar gate file with a registry gate.
        compare_argv = ["compare", "--d", str(d), "--u", self.gate_spec, "--v", "fourier-d", "--seed", str(compare_seed)]
        # Part a builds a strategy inside the CLI call; parts b and c evaluate
        # the prebuilt full-rank and pure strategies, in alternating batches.
        ops = [Op(f"compare d={d}", "a", (f"compare_s.d{d}",), 0, lambda: call_cli(compare_argv),
                  cli_check(check_compare(d, self.gate, fourier(d))), kernel=("small", "dense"))]
        for b in range(self.sizes.pair_batches):
            ops += [self._pair_batch("full_rank", "b", b), self._pair_batch("pure", "c", b)]
        return ops


CLASSES = {"haar_mc": HaarMc, "bound_search": BoundSearch, "dense_large_d": DenseLargeD}
WORKLOADS = tuple(CLASSES)


def setup(name: str, seed: int, workdir: str):
    """Build a workload's inputs; the returned object yields each round's operations.

    PERFBENCH_SIZES=tiny selects the self-test sizes.
    """
    return CLASSES[name](seed, PROFILES[os.environ.get("PERFBENCH_SIZES", "full")], workdir)


def named_metrics(ops_by_round: list[list[tuple[Op, float]]]) -> dict[str, tuple[str, list[float]]]:
    """Per-round samples of each workload-specific figure: {name: (unit, samples)}.

    A figure with work units is a rate (units per second over the summed op
    time); one without is the summed op time in seconds.
    """
    figures: dict[str, tuple[str, list[float]]] = {}
    for timed in ops_by_round:
        totals: dict[str, list[float]] = {}
        for op, dt in timed:
            for key in op.figures:
                acc = totals.setdefault(key, [0.0, 0])
                acc[0] += dt
                acc[1] += op.units
        for key, (seconds, units) in totals.items():
            unit, value = ("1/s", units / seconds) if units else ("s", seconds)
            figures.setdefault(key, (unit, []))[1].append(value)
    return figures
