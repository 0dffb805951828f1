"""Host speed, from a fixed piece of work that does not touch isodist.

The benchmark runs on small shared machines whose speed drifts by up to a
factor of two within minutes as neighbours come and go, and every
operation kind slows with it.  A run is too short to average that out, so
the timed worker calibrates between blocks of operations and run.py
divides each latency by the host's slowdown around it: end-to-end
timings are given at the reference host speed, the speed at which one
kernel call takes REFERENCE_MS.  The raw figures stay in the run record.

No one kind of work tracks every operation: over a few minutes on the
reference VM the lemma and analytic operations followed many small numpy
calls closely in one stretch and an interpreted loop with LAPACK calls in
another.  The kernel therefore does both, in about equal time.

The kernel lives in the benchmark, so a change to isodist cannot speed it
up or slow it down.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 5.7   # median kernel time on a 2-vCPU Xeon VM, one BLAS thread
CALLS = 3            # kernel calls per calibration; their median is kept
WINDOW = 2           # blocks on each side whose calibrations set a block's speed

_MATRIX = np.random.default_rng(20230131).standard_normal((60, 20))
_POINT = np.abs(np.random.default_rng(20230132).standard_normal(8))


def kernel() -> float:
    # many numpy calls on tiny arrays from a Python loop, the shape of the
    # lemma checks' per-point loops and of quadrature integrands
    acc = 0.0
    for i in range(240):
        step = np.zeros(8)
        step[i % 8] = 1e-6
        y = _POINT + step
        acc += float(np.clip(2.0 - np.linalg.norm(np.atleast_2d(y), axis=1), 0.0, 1.0)[0])
        acc += float(np.abs(y).sum())
    # an interpreted integer loop and small LAPACK calls, the shape of
    # lattice counting and of the samplers' per-chunk work
    for i in range(20_000):
        acc += i * i % 7
    for _ in range(20):
        np.linalg.svd(_MATRIX, compute_uv=False)
    return acc


def sample() -> float:
    """One calibration: the median milliseconds of CALLS kernel calls."""
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def warm_up() -> None:
    for _ in range(3):
        sample()


def slowdowns(calibrations: list[float], blocks: int) -> list[float]:
    """Each block's host slowdown against the reference speed.

    calibrations[b] is taken just before block b and calibrations[blocks]
    after the last one.  A block's slowdown is the median of the
    calibrations from WINDOW blocks before it to WINDOW blocks after it,
    over REFERENCE_MS: one calibration alone is a few milliseconds and
    noisy, the host's drift takes seconds."""
    return [statistics.median(calibrations[max(0, b - WINDOW):b + WINDOW + 2]) / REFERENCE_MS
            for b in range(blocks)]
