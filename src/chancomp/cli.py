"""Command-line front end producing seeded, reproducible JSON/CSV reports.

Commands
--------
compare        exact outcome probabilities for one named/loaded gate pair
success-table  analytic and Monte Carlo success probabilities over a d range
bound-scan     stress the success bound with random unambiguous PPOVMs
twirl-verify   Monte Carlo vs exact twirl on a battery of operators
witness        sequential-use witness: U V = W^2 with U, V != W

Gate specs are registry names (identity, pauli-x/y/z, hadamard, fourier-d)
or @path pointing to a matrix JSON file.  Each command takes only the options
it reads and returns its report body and CSV rows; main() writes them, under a
meta block of the parsed options, only once the command has returned, so a
failed command writes nothing.  Exit codes: 0 ok, 2 usage, 3 dimension error,
4 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .comparator import (
    DIFF,
    average_success,
    average_success_mc,
    make_strategy,
    overall_success,
    random_unambiguous_ppovm,
    run_pair,
    sequential_witness,
    success_bound,
)
from .haar import _twirl_choi_mc, twirl_exact
from .linalg import SUM_ATOL, DimensionMismatchError, matrix_from_json, matrix_to_json, max_abs
from .qobj import UnitaryOp, _pair_output_vec
from .symmetry import _twirl_choi_fill, _uniform_factor, projector


class UsageError(Exception):
    """Malformed command input; maps to exit code 2."""


class InvariantViolation(Exception):
    """A checked invariant failed at runtime; maps to exit code 4."""


# Bytes allowed for a d^2 x d^2 complex array under compare and witness (compare's largest array,
# its (d(d-1)/2, d, d) factor, is half that), d^4 x d^4 under bound-scan and twirl-verify.
_MAX_ARRAY_BYTES = 2**28


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def resolve_gate(spec: str, d: int) -> UnitaryOp:
    """Turn a gate spec (registry name or @path) into a unitary of dimension d.

    Either kind of spec gives a matrix, which then meets one shape check (exit 3)
    and one unitarity check (exit 2).
    """
    qubit_gates = {
        "pauli-x": np.array([[0, 1], [1, 0]], dtype=complex),
        "pauli-y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "pauli-z": np.array([[1, 0], [0, -1]], dtype=complex),
        "hadamard": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    }
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                mat = matrix_from_json(json.load(fh))
        except (OSError, KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise UsageError(f"cannot load matrix from {spec[1:]!r}: {exc}") from exc
    elif spec == "identity":
        mat = np.eye(d, dtype=complex)
    elif spec == "fourier-d":
        j = np.arange(d)
        mat = np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d)
    elif spec in qubit_gates:
        mat = qubit_gates[spec]
    else:
        raise UsageError(f"unknown gate spec {spec!r}")
    if mat.shape != (d, d):
        raise DimensionMismatchError(f"matrix {spec} has shape {mat.shape}, expected ({d}, {d})")
    try:
        # Huge entries overflow U^dag U to inf; the unitarity check is NaN-safe.
        with np.errstate(over="ignore", invalid="ignore"):
            return UnitaryOp(mat)
    except ValueError as exc:
        raise UsageError(f"matrix {spec} is not unitary: {exc}") from exc


def _meta(args) -> dict:
    """The parsed options, the command among them, less func, --out and --format, plus the version."""
    meta = {k: v for k, v in vars(args).items() if k not in ("func", "out", "format")}
    meta["version"] = __version__
    return meta


def _emit(payload: dict, rows: list[dict], args) -> None:
    """Write the payload as JSON or CSV to --out (stdout by default)."""
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        meta = payload["meta"]
        buf.write("# " + ",".join(f"{k}={meta[k]}" for k in sorted(meta)) + "\n")
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(v) if isinstance(v, float) else v for k, v in row.items()})
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_compare(args) -> tuple[dict, list[dict]]:
    d = args.d
    u = resolve_gate(args.u, d)
    v = resolve_gate(args.v, d)
    strategy = make_strategy("antisym_optimal", _uniform_factor(d, -1))
    report = run_pair(strategy, u, v, seed=args.seed).to_json()
    return {"report": report}, [{"d": d, **report}]


def cmd_success_table(args) -> tuple[dict, list[dict]]:
    if not (2 <= args.d_min <= args.d_max <= 6):
        raise UsageError(f"need 2 <= d-min <= d-max <= 6, got {args.d_min}..{args.d_max}")
    rng = np.random.default_rng(args.seed)
    rows = []
    for d in range(args.d_min, args.d_max + 1):
        optimal = make_strategy("antisym_optimal", _uniform_factor(d, -1))
        symmetric = make_strategy("symmetric", _uniform_factor(d, 1))
        opt_mc = average_success_mc(optimal, args.n_samples, rng)
        sym_mc = average_success_mc(symmetric, args.n_samples, rng)
        row = {
            "d": d,
            "optimal_analytic": average_success(optimal),
            "optimal_mc": opt_mc.mean,
            "optimal_mc_stderr": opt_mc.std_error,
            "symmetric_analytic": average_success(symmetric),
            "symmetric_mc": sym_mc.mean,
            "symmetric_mc_stderr": sym_mc.std_error,
        }
        if args.eta_same is not None:
            row["overall_optimal"] = overall_success(optimal, args.eta_same)
            row["overall_symmetric"] = overall_success(symmetric, args.eta_same)
        rows.append(row)
    return {"rows": rows}, rows


def cmd_bound_scan(args) -> tuple[dict, list[dict]]:
    d = args.d
    rng = np.random.default_rng(args.seed)
    bound = success_bound(d)
    max_success = 0.0
    violations = 0
    for _ in range(args.n_samples):
        ppovm = random_unambiguous_ppovm(d, rng)
        success = float(np.trace(ppovm.elements[DIFF]).real) / (d * d)
        max_success = max(max_success, success)
        if not (success <= bound + SUM_ATOL):
            violations += 1
    rows = [
        {
            "d": d,
            "n_draws": args.n_samples,
            "max_success": max_success,
            "bound": bound,
            "margin": bound - max_success,
            "violations": violations,
        }
    ]
    if violations:
        raise InvariantViolation(
            f"{violations} draw(s) exceeded the success bound {bound} by more than {SUM_ATOL}"
        )
    return {"rows": rows}, rows


def cmd_twirl_verify(args) -> tuple[dict, list[dict]]:
    d = args.d
    rng = np.random.default_rng(args.seed)
    p_plus, p_minus = projector(d, 1), projector(d, -1)
    dd = d * d

    def basis_op(row: int, col: int) -> np.ndarray:
        m = np.zeros((dd, dd), dtype=complex)
        m[row, col] = 1.0
        return m

    herm = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
    herm = (herm + herm.conj().T) / 2
    battery = {
        "identity": np.eye(dd, dtype=complex),
        "swap": p_plus - p_minus,
        "p_plus": p_plus,
        "p_minus": p_minus,
        "ket01_proj": basis_op(1, 1),
        "ket01_bra10": basis_op(1, d),
        "random_hermitian": herm,
    }
    # D = C_mc - C, the Monte Carlo twirl Choi estimate less the exact C (filled, PSD by
    # construction, never validated here).  The Choi action T(Y)_ab = sum_ij Y_ij D_(ia),(jb)
    # is then each battery twirl's Monte Carlo error, since on C it is twirl_exact(Y).
    resid = _twirl_choi_mc(d, args.n_samples, rng)
    resid -= _twirl_choi_fill(d)
    devs = np.tensordot(np.stack(list(battery.values())), resid.reshape(dd, dd, dd, dd), axes=([1, 2], [0, 2]))
    rows = [{"check": f"mc_vs_exact[{name}]", "residual": max_abs(dev)} for name, dev in zip(battery, devs)]
    once = twirl_exact(herm)
    rows += [{"check": "pair_choi_mc_vs_twirl_choi", "residual": max_abs(resid)},
             {"check": "exact_idempotent", "residual": max_abs(twirl_exact(once) - once)},
             {"check": "exact_trace_preserving", "residual": float(abs(np.trace(once) - np.trace(herm)))}]
    return {"rows": rows}, rows


def cmd_witness(args) -> tuple[dict, list[dict]]:
    d = args.d
    w = resolve_gate(args.w, d)
    r = resolve_gate(args.r, d)
    try:
        u, v = sequential_witness(w, r)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # U V and W^2 are products of checked gates, not checked again; their Choi operators |x><x|, |y><y|
    # are rank one and PSD by construction, compared d rows at a time, so no d^2 x d^2 array is held.
    uv, w_sq = u @ v, w.mat @ w.mat
    product_residual = max_abs(uv - w_sq)
    x, y = _pair_output_vec(uv), _pair_output_vec(w_sq)
    xc, yc = x.conj(), y.conj()
    choi_residual = max(max_abs(np.outer(x[i:i + d], xc) - np.outer(y[i:i + d], yc)) for i in range(0, d * d, d))
    body = {"u": matrix_to_json(u), "v": matrix_to_json(v),
            "product_residual": product_residual, "choi_residual": choi_residual}
    return body, [{"d": d, "product_residual": product_residual, "choi_residual": choi_residual}]


@functools.cache  # built on the first main() call, not at import, then shared
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chancomp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"chancomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    gate = dict(required=True, help="gate name or @matrix.json")
    options = {
        "--d": dict(type=int, default=2, help="qudit dimension (>= 2)"),
        "--n": dict(dest="n_samples", type=int, default=10000, help="Monte Carlo sample count"),
        "--seed": dict(type=int, default=0, help="RNG seed recorded in the output (>= 0)"),
        "--u": gate, "--v": gate, "--w": gate,
        "--r": dict(gate, help="gate name or @matrix.json (not identity)"),
        "--eta-same": dict(type=float, help="prior probability that the channels are the same, in (0, 1)"),
        "--d-min": dict(type=int, default=2),
        "--d-max": dict(type=int, default=6),
        "--out": dict(help="output path (default: stdout)"),
        "--format": dict(choices=("json", "csv"), default="json"),
    }
    for name, func, help_text, names in (
        ("compare", cmd_compare, "compare one pair of gates with the optimal strategy", "--d --seed --u --v"),
        ("success-table", cmd_success_table, "success probabilities for a range of dimensions",
         "--n --seed --eta-same --d-min --d-max"),
        ("bound-scan", cmd_bound_scan, "random unambiguous PPOVMs vs the success bound", "--d --n --seed"),
        ("twirl-verify", cmd_twirl_verify, "Monte Carlo vs exact twirl diagnostics", "--d --n --seed"),
        ("witness", cmd_witness, "sequential-use witness U V = W^2", "--d --w --r"),
    ):
        p = sub.add_parser(name, help=help_text)
        for option in names.split() + ["--out", "--format"]:
            p.add_argument(option, **options[option])
        p.set_defaults(func=func)
    return parser


def _validate_common(args) -> None:
    d = getattr(args, "d", 2)
    if d < 2:
        raise UsageError(f"--d must be >= 2, got {d}")
    side = d ** (4 if args.command in ("bound-scan", "twirl-verify") else 2)
    if side * side * 16 > _MAX_ARRAY_BYTES:
        raise UsageError(f"--d {d} needs a {side} x {side} complex array "
                         f"({side * side * 16 / 2**20:.3g} MiB), over the {_MAX_ARRAY_BYTES >> 20} MiB limit")
    n, seed = getattr(args, "n_samples", 1), getattr(args, "seed", 0)
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    if n < 2 and args.command == "success-table":
        raise UsageError(f"success-table needs --n >= 2 for a standard error, got {n}")
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")
    if getattr(args, "eta_same", None) is not None and not 0.0 < args.eta_same < 1.0:
        raise UsageError(f"--eta-same must lie strictly in (0, 1), got {args.eta_same}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        _validate_common(args)
        body, rows = args.func(args)
        _emit({"meta": _meta(args), **body}, rows, args)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DimensionMismatchError as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return 3
    except (InvariantViolation, ValueError) as exc:
        # Checked after DimensionMismatchError, a ValueError subclass: any other
        # ValueError from the library, or a non-finite value in a JSON payload,
        # is a broken invariant rather than bad input.
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
