"""Seeded contract fuzzer for the command-line interface.

A fixed budget of random commands, options and gate files goes through main()
in-process, with every numpy floating-point error raised and every warning an
error (the suite's filterwarnings).  Whatever the input, main() must return 0,
2, 3 or 4, raise nothing and print no traceback; a failed command writes
nothing to stdout, and a JSON success is valid JSON.
"""

import json
import random

import numpy as np

from chancomp.cli import main
from chancomp.haar import haar_sample
from chancomp.linalg import matrix_to_json

CASES = 300
COMMANDS = ("compare", "success-table", "bound-scan", "twirl-verify", "witness")
DIMS = (1, 2, 3, 4, 5, 9, 65)
# A bound-scan draw takes about 50 ms at d=4 and 0.46 s at d=5 on one BLAS thread, so
# bound-scan runs at most two of them at d=4 and none at d=5 (CI's seeded scan5 runs one).
BOUND_SCAN_DIMS = (1, 2, 3, 4, 9, 65)
SAMPLES = (0, 1, 2, 5, 20)
SEEDS = (0, 5, 2**40)
ETA_SAME = ("0.3", "0", "1", "nan", "-2")
# Each option's values and the share of cases that pass it to a command that reads it.
OPTIONS = {"--n": (SAMPLES, 1.0), "--seed": (SEEDS, 1.0), "--eta-same": (ETA_SAME, 0.5)}
READS = {
    "compare": ("--seed",),
    "success-table": ("--n", "--seed", "--eta-same"),
    "bound-scan": ("--n", "--seed"),
    "twirl-verify": ("--n", "--seed"),
    "witness": (),
}
FOREIGN = 0.05  # share of cases that pass an option the command does not read (argparse exits 2)
NAMED_GATES = ("identity", "pauli-x", "hadamard", "fourier-d", "no-such-gate")


def _with_entry(mat, re):
    """mat with the real part of its first entry replaced."""
    data = [list(pair) for pair in mat["data"]]
    data[0][0] = re
    return {**mat, "data": data}


# Each maps the matrix JSON of a Haar gate to the payload of a gate file.
GATE_PAYLOADS = {
    "nan": lambda mat: _with_entry(mat, float("nan")),
    "inf": lambda mat: _with_entry(mat, float("inf")),
    "huge": lambda mat: _with_entry(mat, 1e308),
    "bool_entry": lambda mat: _with_entry(mat, True),
    "string_entry": lambda mat: _with_entry(mat, "1"),
    "float_rows": lambda mat: {**mat, "rows": float(mat["rows"])},
    "negative_rows": lambda mat: {**mat, "rows": -mat["rows"], "cols": -mat["cols"]},
    "missing_data": lambda mat: {"rows": mat["rows"], "cols": mat["cols"]},
    "bare_list": lambda mat: mat["data"],
    "empty": lambda mat: {},
    "non_unitary": lambda mat: matrix_to_json(np.diag(np.linspace(0.5, 1.0, mat["rows"]))),
    "off_by_5e-11": lambda mat: _with_entry(mat, mat["data"][0][0] + 5e-11),
    "off_by_1e-3": lambda mat: _with_entry(mat, mat["data"][0][0] + 1e-3),
    "haar": lambda mat: mat,
}


def _argv(rng, gate):
    command = rng.choice(COMMANDS)
    d = rng.choice(BOUND_SCAN_DIMS if command == "bound-scan" else DIMS)
    argv = [command, "--format", rng.choice(("json", "csv"))]
    argv += ["--d-max", str(d)] if command == "success-table" else ["--d", str(d)]
    if command == "compare":
        argv += ["--u", gate(d), "--v", gate(d)]
    elif command == "witness":
        argv += ["--w", gate(d), "--r", gate(d)]
    for option, (values, share) in OPTIONS.items():
        if rng.random() < (share if option in READS[command] else FOREIGN):
            value = rng.choice(values)
            if option == "--n" and command == "bound-scan" and d == 4:
                value = min(value, 2)
            argv += [option, str(value)]
    return argv


def test_cli_contract_holds_on_random_input(tmp_path, capsys):
    rng, gate_rng = random.Random(23), np.random.default_rng(23)
    paths = {}

    def gate(d):
        if rng.random() < 0.5:
            return rng.choice(NAMED_GATES)
        # a good gate half the time, so that both gates of a pair are often good
        kind = "haar" if rng.random() < 0.5 else rng.choice(sorted(GATE_PAYLOADS))
        dim = d if rng.random() < 0.9 else 2
        if (kind, dim) not in paths:
            paths[kind, dim] = tmp_path / f"{kind}-{dim}.json"
            payload = GATE_PAYLOADS[kind](matrix_to_json(haar_sample(dim, gate_rng).mat))
            paths[kind, dim].write_text(json.dumps(payload))  # writes the NaN / Infinity literals
        return f"@{paths[kind, dim]}"

    violations, succeeded = [], set()
    for _ in range(CASES):
        argv = _argv(rng, gate)
        try:
            with np.errstate(all="raise"):
                rc = main(argv)
        except Exception as exc:  # any exception out of main() is a violation
            violations.append(f"{argv}: raised {exc!r}")
            capsys.readouterr()
            continue
        out, err = capsys.readouterr()
        if rc not in (0, 2, 3, 4):
            violations.append(f"{argv}: exit {rc}")
        if "Traceback" in err:
            violations.append(f"{argv}: traceback on stderr")
        if rc != 0 and out:
            violations.append(f"{argv}: exit {rc} with stdout {out[:80]!r}")
        if rc == 0:
            succeeded.add(argv[0])
        if rc == 0 and "json" in argv:
            try:
                json.loads(out)
            except ValueError as exc:
                violations.append(f"{argv}: invalid JSON ({exc})")
    assert not violations, "\n".join(violations)
    # Every command got past argparse and its checks at least once, so every one was exercised.
    assert succeeded == set(COMMANDS)
