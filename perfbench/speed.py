"""The host's current speed, from a fixed calibration loop.

The benchmark was sized on a shared 2-vCPU host whose speed drifts by up to
~40% over minutes: a whole 40-second run can fall into a slow or a fast
stretch, and no statistic over one run's repetitions removes that. So the
benchmark times this loop, which runs no rankcert code, after every CLI
command, and scales the run's median wall times to the
reference speed at which the loop takes :data:`REFERENCE_S`:

    wall at reference speed = median wall / slowdown
    slowdown = median loop time / REFERENCE_S

One pass of the loop is short and noisy, so only the run's median of them
is used. A change to rankcert moves the scaled figure as it moves the raw
one; the host's drift moves it much less. The raw figures are printed and
kept too.

The loop mixes the kinds of work rankcert's hot path does: seeding and
spawning NumPy generators, small integer draws, Python loops over tuples
of strings with dict look-ups, and small matrix-vector products.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.15
"""Seconds the loop takes at the reference speed (about this host's fast
stretches). Scaled times are stated at that speed."""
_ROUNDS = 240
_WORDS = tuple(f"w{i:04d}" for i in range(64))
_TABLE = {w: i for i, w in enumerate(_WORDS)}


def calibration_s() -> float:
    """Wall time of one pass of the fixed calibration loop."""
    matrix = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)
    start = time.perf_counter()
    acc = 0.0
    for r in range(_ROUNDS):
        streams = [np.random.default_rng(s) for s in np.random.SeedSequence(r).spawn(8)]
        sizes = np.full(len(_WORDS), 4)
        for rng in streams:
            picks = rng.integers(0, sizes)
            acc += sum(_TABLE[w] * int(p) for w, p in zip(_WORDS, picks))
        vec = matrix[r % 48]
        for _ in range(20):
            vec = matrix @ vec
            vec /= float(np.abs(vec).max()) or 1.0
        acc += float(vec[0])
    elapsed = time.perf_counter() - start
    if acc != acc:  # keeps the work from being optimised away
        raise RuntimeError("calibration loop produced NaN")
    return elapsed


def slowdown(calibrations_s: list[float]) -> float:
    """How many times slower than the reference speed the host ran, from
    the loop's times over one run. Divide a wall time by it, or multiply a
    rate by it, to state the figure at the reference speed."""
    return statistics.median(calibrations_s) / REFERENCE_S
