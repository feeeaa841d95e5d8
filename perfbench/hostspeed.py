"""Host speed sampling: a fixed reference kernel timed while an experiment runs.

A shared host runs the same code at different speeds from one moment to the
next: other tenants come and go and the clock boost changes, within a second
and over minutes.  While an experiment runs, a timer interrupts it every
fifth of a second and times two chunks of a fixed kernel.  The experiment's
wall time, less the probes, is then scaled by the mean probe speed over
``1 / REFERENCE_CHUNK_S``, so a time metric reads as seconds at one fixed host
speed.

The kernel is frozen here and never calls the program, so a change to the
program moves the scaled times exactly as much as the wall times.  Its mix
(small-matrix numpy calls in a power iteration, plus plain interpreter
arithmetic) is the mix of the pipeline's hot path.  The two CPUs of a host
change speed independently, so the probes run in the experiment's own
process, on its CPU.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Median chunk time on a quiet 2-vCPU x86-64 VM (Intel Xeon, Python 3.11.7,
# numpy 2.4.6).  Only ratios of scaled times matter; this constant just keeps
# scaled times near wall seconds on that machine.
REFERENCE_CHUNK_S = 0.0070

# A probe of two chunks every 0.2 s takes about 7% of the wall time and gives
# 30 probes in even the shortest experiment.
PROBE_INTERVAL_S = 0.2
PROBE_CHUNKS = 2

_DIM = 6
_MATS = 32
_ITERS = 24
_PY_LOOP = 30000


def _grams() -> list[np.ndarray]:
    rng = np.random.default_rng(20231215)
    return [m.T @ m for m in rng.standard_normal((_MATS, _DIM, _DIM))]


_GRAMS = _grams()


def _chunk() -> float:
    total = 0.0
    for gram in _GRAMS:
        v = np.ones(_DIM)
        for _ in range(_ITERS):
            w = gram @ v
            v = w / math.sqrt(float(w @ w))
        total += float(v @ (gram @ v))
    acc = 0
    for i in range(_PY_LOOP):
        acc += i * i % 7
    return total + acc


class Sampler:
    """Probes the host speed at even intervals of wall time while code runs.

    Inside the ``with`` block a SIGALRM timer interrupts the main thread
    every ``PROBE_INTERVAL_S`` seconds, and the handler times
    ``PROBE_CHUNKS`` kernel chunks.  Many short probes spread over a run
    estimate its mean speed far better than a long probe before and after
    it.  ``probe_s`` is the wall
    time the probes took, to be taken out of the timed code's wall time.
    """

    def __init__(self):
        self.speeds: list[float] = []  # chunks per second, one per probe
        self.probe_s = 0.0
        self._old_handler = None

    def _probe(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        for _ in range(PROBE_CHUNKS):
            _chunk()
        t1 = time.perf_counter()
        self.speeds.append(PROBE_CHUNKS / (t1 - t0))
        self.probe_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._old_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def scale(self) -> float:
        """Factor that turns wall seconds under this sampler into reference seconds."""
        return statistics.fmean(self.speeds) * REFERENCE_CHUNK_S
