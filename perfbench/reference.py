"""Reference kernel: fixed numpy work timed next to every measured operation.

The benchmark's host is a small shared VM whose speed changes by 20-40%
within seconds, independently on each vCPU (timings of one kernel on the
two vCPUs are uncorrelated).  Raw round times therefore spread by up to
0.25 between 30 s runs of the same code.  So the runner times this kernel
on the same thread just before and just after every operation, and every
``interval`` seconds during it (from a SIGALRM handler), and reports each
operation's own time rescaled to the kernel's nominal speed:

    seconds * nominal seconds / mean(kernel seconds before, during and after)

The kernel uses only numpy and the benchmark's own code, so a change to
chancomp cannot change it.  Its inputs come from a fixed seed, not the
workload seed, so every run times the same work.  It has up to three
parts, timed apart, because slow phases of the host slow different kinds
of work by different amounts:

- small: per-draw Python work (Haar draws by QR, 16 x 16 eigensolves),
  like ``haar_mc`` and the d=2 bound scan;
- dense: a 300 x 300 eigensolve and a 256 x 256 complex product, like the
  larger eigensolves of ``bound_search`` and ``compare``;
- memory: one product of a 1296 x 1296 complex matrix (27 MB) with a
  vector, like ``run_pair``, which reads a strategy's 27 MB elements.

Each operation is rescaled by the parts whose work it resembles
(``Op.kernel``); a workload's kernel has only the parts its operations use.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Median seconds of each kernel part on the baseline machine in README.md.
NOMINAL_S = {"small": 0.008, "dense": 0.0105, "memory": 0.0027}
# The kernel runs once per this many nominal kernel times inside an
# operation, so it adds about 1/20 to a run's time.
INTERVAL_KERNELS = 20
# The kernel parts of each workload.
PARTS = {"haar_mc": ("small",), "bound_search": ("small", "dense"), "dense_large_d": ("small", "dense", "memory")}


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary by QR with phase fix (independent of chancomp.haar)."""
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


class Reference:
    """The kernel of one workload; a kernel time maps each of its parts to seconds."""

    def __init__(self, parts: tuple[str, ...]):
        rng = np.random.default_rng(0)
        self.parts = parts
        self.small = [_hermitian(16, rng) for _ in range(40)]
        self.big = _hermitian(300, rng).real.copy()
        self.product = _hermitian(256, rng)
        self.stream = _hermitian(1296, rng) if "memory" in parts else None
        self.vector = np.ones(1296, dtype=complex)
        self.interval = INTERVAL_KERNELS * sum(NOMINAL_S[part] for part in parts)

    def _small(self) -> None:
        rng = np.random.default_rng(1)
        for _ in range(120):
            haar_unitary(3, rng)
        for m in self.small:
            np.linalg.eigvalsh(m)

    def _dense(self) -> None:
        np.linalg.eigvalsh(self.big)
        self.product @ self.product

    def _memory(self) -> None:
        self.stream @ self.vector

    def time(self) -> dict[str, float]:
        """Seconds each part of the kernel takes now."""
        seconds = {}
        for part in self.parts:
            start = time.perf_counter()
            getattr(self, "_" + part)()
            seconds[part] = time.perf_counter() - start
        return seconds

    def sampled_call(self, fn):
        """Call fn, running the kernel on this thread every ``interval`` seconds meanwhile.

        Returns (fn's result, fn's own seconds, kernel times of the runs
        during the call).  A signal handler runs between Python bytecodes,
        so a run due inside a long numpy call starts when that call returns.
        The timer is re-armed after each run, so runs never nest.
        """
        samples, spent = [], 0.0

        def tick(signum, frame):
            nonlocal spent
            start = time.perf_counter()
            samples.append(self.time())
            spent += time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, self.interval)

        previous = signal.signal(signal.SIGALRM, tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start - spent
            signal.signal(signal.SIGALRM, previous)
        return result, seconds, samples

    def rescale(self, seconds: float, samples: list[dict[str, float]], parts: tuple[str, ...] | None = None) -> float:
        """seconds measured next to the kernel times in samples, at the nominal speed of the given parts.

        parts defaults to all of the kernel's parts.
        """
        parts = parts or self.parts
        nominal = sum(NOMINAL_S[part] for part in parts)
        return seconds * nominal / statistics.fmean(sum(sample[part] for part in parts) for sample in samples)


def for_workload(name: str) -> Reference:
    return Reference(PARTS[name])
