"""Command-line front end producing seeded, reproducible JSON/CSV reports.

Commands
--------
compare        exact outcome probabilities for one named/loaded gate pair
success-table  analytic and Monte Carlo success probabilities over a d range
bound-scan     stress the success bound with random unambiguous PPOVMs
twirl-verify   Monte Carlo vs exact twirl on a battery of operators
witness        sequential-use witness: U V = W^2 with U, V != W

Gate specs are registry names (identity, pauli-x/y/z, hadamard, fourier-d)
or @path pointing to a matrix JSON file.  Exit codes: 0 ok, 2 usage,
3 dimension error, 4 invariant violation.
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
    twirl_choi,
)
from .haar import _twirl_choi_mc, twirl_exact
from .linalg import SUM_ATOL, DimensionMismatchError, matrix_from_json, matrix_to_json, max_abs
from .qobj import UnitaryOp, _pair_output_vec
from .symmetry import _uniform_factor, projector


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
    """Turn a gate spec (registry name or @path) into a unitary of dimension d."""
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                mat = matrix_from_json(json.load(fh))
        except (OSError, KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise UsageError(f"cannot load matrix from {spec[1:]!r}: {exc}") from exc
        if mat.shape != (d, d):
            raise DimensionMismatchError(f"matrix {spec} has shape {mat.shape}, expected ({d}, {d})")
        try:
            # Huge entries overflow U^dag U to inf; the unitarity check is NaN-safe.
            with np.errstate(over="ignore", invalid="ignore"):
                return UnitaryOp(mat)
        except ValueError as exc:
            raise UsageError(f"matrix {spec} is not unitary: {exc}") from exc

    qubit_gates = {
        "pauli-x": np.array([[0, 1], [1, 0]], dtype=complex),
        "pauli-y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "pauli-z": np.array([[1, 0], [0, -1]], dtype=complex),
        "hadamard": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    }
    if spec == "identity":
        return UnitaryOp(np.eye(d, dtype=complex))
    if spec == "fourier-d":
        j = np.arange(d)
        return UnitaryOp(np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d))
    if spec in qubit_gates:
        if d != 2:
            raise DimensionMismatchError(f"gate {spec!r} is a qubit gate, requested d={d}")
        return UnitaryOp(qubit_gates[spec])
    raise UsageError(f"unknown gate spec {spec!r}")


def _meta(args, **extra) -> dict:
    meta = {
        "command": args.command,
        "seed": args.seed,
        "n_samples": getattr(args, "n", None),
        "version": __version__,
    }
    meta.update(extra)
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


def cmd_compare(args) -> int:
    d = args.d
    u = resolve_gate(args.u, d)
    v = resolve_gate(args.v, d)
    strategy = make_strategy("antisym_optimal", _uniform_factor(d, -1))
    report = run_pair(strategy, u, v, seed=args.seed)
    payload = {"meta": _meta(args, d=d, u=args.u, v=args.v), "report": report.to_json()}
    rows = [{"d": d, **report.to_json()}]
    _emit(payload, rows, args)
    return 0


def cmd_success_table(args) -> int:
    if not (2 <= args.d_min <= args.d_max <= 6):
        raise UsageError(f"need 2 <= d-min <= d-max <= 6, got {args.d_min}..{args.d_max}")
    rng = np.random.default_rng(args.seed)
    rows = []
    for d in range(args.d_min, args.d_max + 1):
        optimal = make_strategy("antisym_optimal", _uniform_factor(d, -1))
        symmetric = make_strategy("symmetric", _uniform_factor(d, 1))
        opt_mc = average_success_mc(optimal, args.n, rng)
        sym_mc = average_success_mc(symmetric, args.n, rng)
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
    payload = {"meta": _meta(args, d_min=args.d_min, d_max=args.d_max, eta_same=args.eta_same), "rows": rows}
    _emit(payload, rows, args)
    return 0


def cmd_bound_scan(args) -> int:
    d = args.d
    rng = np.random.default_rng(args.seed)
    bound = success_bound(d)
    max_success = 0.0
    violations = 0
    for _ in range(args.n):
        ppovm = random_unambiguous_ppovm(d, rng)
        success = float(np.trace(ppovm.elements[DIFF]).real) / (d * d)
        max_success = max(max_success, success)
        if not (success <= bound + SUM_ATOL):
            violations += 1
    rows = [
        {
            "d": d,
            "n_draws": args.n,
            "max_success": max_success,
            "bound": bound,
            "margin": bound - max_success,
            "violations": violations,
        }
    ]
    payload = {"meta": _meta(args, d=d), "rows": rows}
    _emit(payload, rows, args)
    if violations:
        raise InvariantViolation(
            f"{violations} draw(s) exceeded the success bound {bound} by more than {SUM_ATOL}"
        )
    return 0


def cmd_twirl_verify(args) -> int:
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
    # One estimate, the twirl's Choi operator C = E |w><w| with w = vec(K^T), K = U (x) U,
    # gives every battery twirl by the Choi action T(Y)_ab = sum_ij Y_ij C_(ia),(jb).
    pair_choi = _twirl_choi_mc(d, args.n, rng)
    means = np.tensordot(np.stack(list(battery.values())), pair_choi.reshape(dd, dd, dd, dd), axes=([1, 2], [0, 2]))
    rows = []
    for (name, op), mean in zip(battery.items(), means):
        dev = max_abs(mean - twirl_exact(op))
        rows.append({"check": f"mc_vs_exact[{name}]", "residual": float(dev)})
    dev = max_abs(pair_choi - twirl_choi(d).mat)
    rows.append({"check": "pair_choi_mc_vs_twirl_choi", "residual": float(dev)})

    once = twirl_exact(herm)
    rows.append({"check": "exact_idempotent", "residual": float(max_abs(twirl_exact(once) - once))})
    rows.append(
        {"check": "exact_trace_preserving", "residual": float(abs(np.trace(once) - np.trace(herm)))}
    )
    payload = {"meta": _meta(args, d=d), "rows": rows}
    _emit(payload, rows, args)
    return 0


def cmd_witness(args) -> int:
    d = args.d
    w = resolve_gate(args.w, d)
    r = resolve_gate(args.r, d)
    try:
        u, v = sequential_witness(w, r)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    w_sq = UnitaryOp(w.mat @ w.mat)
    uv = UnitaryOp(u.mat @ v.mat)
    product_residual = float(max_abs(uv.mat - w_sq.mat))
    # The Choi operators |x><x| and |y><y| of the two composites, unchecked: rank one and PSD by
    # construction.  Compared d rows at a time, so no d^2 x d^2 array is held.
    x, y = _pair_output_vec(uv.mat), _pair_output_vec(w_sq.mat)
    xc, yc = x.conj(), y.conj()
    choi_residual = max(max_abs(np.outer(x[i:i + d], xc) - np.outer(y[i:i + d], yc)) for i in range(0, d * d, d))
    payload = {
        "meta": _meta(args, d=d, w=args.w, r=args.r),
        "u": matrix_to_json(u.mat),
        "v": matrix_to_json(v.mat),
        "product_residual": product_residual,
        "choi_residual": choi_residual,
    }
    rows = [{"d": d, "product_residual": product_residual, "choi_residual": choi_residual}]
    _emit(payload, rows, args)
    return 0


@functools.cache  # built on the first main() call, not at import, then shared
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chancomp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"chancomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_d=True):
        if with_d:
            p.add_argument("--d", type=int, default=2, help="qudit dimension (>= 2)")
        p.add_argument("--n", type=int, default=10000, help="Monte Carlo sample count")
        p.add_argument("--seed", type=int, default=0, help="RNG seed recorded in the output (>= 0)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("compare", help="compare one pair of gates with the optimal strategy")
    add_common(p)
    p.add_argument("--u", required=True, help="gate name or @matrix.json")
    p.add_argument("--v", required=True, help="gate name or @matrix.json")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("success-table", help="success probabilities for a range of dimensions")
    add_common(p, with_d=False)
    p.add_argument("--eta-same", dest="eta_same", type=float, default=None,
                   help="prior probability that the channels are the same, in (0, 1)")
    p.add_argument("--d-min", dest="d_min", type=int, default=2)
    p.add_argument("--d-max", dest="d_max", type=int, default=6)
    p.set_defaults(func=cmd_success_table)

    p = sub.add_parser("bound-scan", help="random unambiguous PPOVMs vs the success bound")
    add_common(p)
    p.set_defaults(func=cmd_bound_scan)

    p = sub.add_parser("twirl-verify", help="Monte Carlo vs exact twirl diagnostics")
    add_common(p)
    p.set_defaults(func=cmd_twirl_verify)

    p = sub.add_parser("witness", help="sequential-use witness U V = W^2")
    add_common(p)
    p.add_argument("--w", required=True, help="gate name or @matrix.json")
    p.add_argument("--r", required=True, help="gate name or @matrix.json (not identity)")
    p.set_defaults(func=cmd_witness)
    return parser


def _validate_common(args) -> None:
    d = getattr(args, "d", 2)
    if d < 2:
        raise UsageError(f"--d must be >= 2, got {d}")
    side = d ** (4 if args.command in ("bound-scan", "twirl-verify") else 2)
    if side * side * 16 > _MAX_ARRAY_BYTES:
        raise UsageError(f"--d {d} needs a {side} x {side} complex array "
                         f"({side * side * 16 / 2**20:.3g} MiB), over the {_MAX_ARRAY_BYTES >> 20} MiB limit")
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if args.n < 2 and args.command in ("success-table", "twirl-verify"):
        raise UsageError(f"{args.command} needs --n >= 2 for a standard error, got {args.n}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
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
        return args.func(args)
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
