"""In-memory span tracer that wraps chancomp's public callables from outside.

The library has no tracing of its own, so the traced run installs wrappers
around the public functions and class constructors of every chancomp module
and around ``numpy.linalg.eigvalsh``.  Each call records a span (name, start,
end, parent) plus per-call attributes such as sample counts or matrix sizes.

chancomp modules bind each other's functions at import time
(``from .haar import haar_sample``), so a wrapper is installed under every
module attribute that refers to the original object, not only in the
defining module.  Class constructors are patched on the class itself, which
every importer shares.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "comparator", "haar", "linalg", "qobj", "symmetry")

# The command handlers and parser builder run inside cli.main; leaving them
# unwrapped keeps their work in cli.main's self time, the CLI layer's own cost.
UNWRAPPED_PREFIXES = ("cli.cmd_", "cli.build_parser", "cli.entry")


def _samples(args, kwargs, result):
    # twirl_mc, average_channel_mc and average_success_mc all take n second.
    return {"samples": int(kwargs["n"] if "n" in kwargs else args[1])}


def _ppovm_dim(args, kwargs, result):
    rho = kwargs["rho"] if "rho" in kwargs else args[2]
    return {"dim": int(rho.dim) ** 2}


def _matrix_dim(args, kwargs, result):
    return {"dim": int(len(args[0]))}


def _bytes_out(args, kwargs, result):
    return {"bytes_out": int(result.size) * int(result.itemsize)}


# Per-call attributes recorded for the spans the layer metrics need.
ATTRIBUTES = {
    "haar.twirl_mc": _samples,
    "haar.average_channel_mc": _samples,
    "comparator.average_success_mc": _samples,
    "qobj.Ppovm": _ppovm_dim,
    "linalg.is_psd": _matrix_dim,
    "linalg.tensor": _bytes_out,
}


class Tracer:
    """Records one span per wrapped call; spans stay in memory until read."""

    def __init__(self):
        # Each span is [name, start, end, parent index (-1 for a root), attrs].
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        attrs = ATTRIBUTES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def reset(self):
        self.spans.clear()
        self._stack.clear()


def _public_callables(module):
    """(qualified name, object) for the functions and constructors a module defines."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        name = f"{layer}.{attr}"
        constructor = (
            inspect.isclass(obj)
            and "__init__" in vars(obj)
            and not dataclasses.is_dataclass(obj)
            and not issubclass(obj, BaseException)
        )
        if (inspect.isfunction(obj) or constructor) and not name.startswith(UNWRAPPED_PREFIXES):
            found.append((name, obj))
    return found


@contextlib.contextmanager
def installed(tracer: Tracer, package, numpy_module):
    """Install the tracer's wrappers for the duration of the block, then restore."""
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    modules = [package] + [getattr(package, layer) for layer in LAYERS]
    try:
        for module in modules[1:]:
            for name, obj in _public_callables(module):
                if inspect.isclass(obj):
                    patch(obj, "__init__", tracer.wrap(name, obj.__init__))
                    continue
                wrapper = tracer.wrap(name, obj)
                for user in modules:
                    for attr, value in list(vars(user).items()):
                        if value is obj:
                            patch(user, attr, wrapper)
        patch(numpy_module.linalg, "eigvalsh", tracer.wrap("numpy.eigvalsh", numpy_module.linalg.eigvalsh))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def summarize(spans) -> dict[str, dict]:
    """Per-name calls, busy time, self time and aggregated attributes.

    busy_s sums the spans of a name that are not nested inside another span
    of the same name; self_s subtracts the time covered by direct children.
    """
    children_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            children_time[span[3]] += span[2] - span[1]
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "samples": 0, "dim_max": 0, "bytes_out": 0}
    )
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - children_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["busy_s"] += end - start
        if attrs:
            row["samples"] += attrs.get("samples", 0)
            row["bytes_out"] += attrs.get("bytes_out", 0)
            row["dim_max"] = max(row["dim_max"], attrs.get("dim", 0))
    return dict(table)


def child_calls(spans, parent_name: str, child_name: str) -> int:
    """Number of child_name spans whose direct parent is a parent_name span."""
    return sum(1 for s in spans if s[0] == child_name and s[3] >= 0 and spans[s[3]][0] == parent_name)
