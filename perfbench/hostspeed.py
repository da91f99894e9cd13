"""Host speed from a fixed reference computation, to scale measured times by.

On a shared host the speed of interpreter-bound code drifts by up to 1.7x
over minutes: the same call's CPU time moves with it, on both vCPUs at
once, and the drift is slower than one run.  So each timed op is preceded
by reference_work, and its time is scaled to the host speed at which the
reference takes REF_NOMINAL_S, using the median of the REF_WINDOW = 5
reference times nearest it (about 5 s of a mc_short_block run).  The reference shares no code with the package, so a change to
the package moves scaled times as it moves raw ones; records keep both.
"""

from __future__ import annotations

import statistics

import numpy as np

REF_ITERS = 1200
REF_NOMINAL_S = 0.040
REF_WINDOW = 5


def reference_work() -> float:
    """Fixed interpreter-bound work: generator set-up, small arrays, branching."""
    acc = 0.0
    for i in range(REF_ITERS):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, i))))
        x = rng.normal(0.0, 0.7, size=4) + 1j * rng.normal(0.0, 0.7, size=4)
        y = np.abs(x) ** 2
        acc += float(y.max()) if i % 3 else -float(y.sum())
        acc += int(np.count_nonzero(x.real > 0))
    return acc


def host_speed(ref_s: list[float]) -> list[float]:
    """Per sample, the median speed over the REF_WINDOW reference times nearest it."""
    half = REF_WINDOW // 2
    lo = [min(max(i - half, 0), max(len(ref_s) - REF_WINDOW, 0)) for i in range(len(ref_s))]
    return [REF_NOMINAL_S / statistics.median(ref_s[j:j + REF_WINDOW]) for j in lo]
