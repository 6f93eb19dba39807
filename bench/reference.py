"""Fixed reference work that measures the machine's current speed.

On a shared host the same experiment can take 0.35 s in one minute and
0.75 s in the next, and the slow spells last minutes, so no run length
averages them out. Everything running on the core slows together,
though. The benchmark therefore times this loop between experiments and
reports each experiment's time rescaled to the speed at which the loop
takes REF_NOMINAL_S:

    normalised = measured * REF_NOMINAL_S / (median of the two loop times
                                             before it and the two after)

A single pass of the loop is short and now and then caught by a burst of
interference; the median of four ignores such a pass, and still follows
a change of speed that lasts a few seconds.

Set-up follows a different speed: it is spent mostly loading numpy's and
scipy's shared libraries and modules, whose cost drifts apart from the
speed of computation, so the loop does not follow it. For
set-up the reference is a fresh interpreter that imports the third-party
modules opinion_limits imports (SETUP_REF_ARGS), timed the same way as a
set-up probe and rescaled to SETUP_REF_NOMINAL_S.

The loop mixes the kinds of work the package does: a Python loop over
floats with math.erf and list indexing (as in the ABM's per-step loop),
small numpy calls on 50-element arrays (the DEM and proportional
selection at N=50), and elementwise numpy on a 256 x 256 matrix (the
pairwise kernel matrices). It uses only the standard library and numpy,
never opinion_limits, so no change to the package can move it, and no
BLAS call, so it runs on one thread whatever the BLAS thread settings.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The loop's median wall time on the 2-vCPU Intel Xeon VM the baseline
# was measured on; normalised times read as seconds at that speed.
REF_NOMINAL_S = 0.03

# Interpreter arguments of the set-up reference, and its median time on
# the same VM.
SETUP_REF_ARGS = ("-c", "import numpy, scipy.special")
SETUP_REF_NOMINAL_S = 0.5

_rng = np.random.default_rng(0)
_SMALL = _rng.uniform(-1.0, 1.0, 50)
_SMALL_LIST = _SMALL.tolist()
_LARGE = _rng.uniform(-1.0, 1.0, 256)


def _work() -> float:
    acc = 0.0
    x = _SMALL_LIST
    for k in range(40_000):
        d = x[(7 * k) % 50] - x[k % 50]
        acc += math.erf(4.0 * d) if abs(d) < 0.5 else 0.0
    for k in range(1_500):
        w = np.exp(-np.abs(_SMALL - _SMALL[k % 50]))
        acc += float(np.searchsorted(np.cumsum(w), 0.5 * w.sum()))
    for _ in range(4):
        m = np.subtract.outer(_LARGE, _LARGE)
        acc += float(np.exp(-m * m).sum())
    return acc


def measure() -> tuple[float, float]:
    """Wall and CPU time of one pass of the reference loop."""
    w0, c0 = time.perf_counter(), time.process_time()
    _work()
    return time.perf_counter() - w0, time.process_time() - c0


def normalise(values: list[float], refs: list[float], nominal: float) -> list[float]:
    """Rescale values[i], measured between refs[i] and refs[i + 1], to the
    speed at which the reference takes `nominal`, by the median of the two
    reference times on each side of it (fewer at the ends)."""
    if len(refs) != len(values) + 1:
        raise ValueError("need one reference time before and after each value")
    return [
        v * nominal / statistics.median(refs[max(0, i - 1):i + 3])
        for i, v in enumerate(values)
    ]
