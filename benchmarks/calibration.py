"""A fixed piece of work that measures how fast the machine is right now.

The benchmark was built on a 2-vCPU virtual machine whose speed drifts by
up to a third over minutes with the load of its neighbours: the same
round took 23 to 31 CPU seconds.  Each round therefore also times
`calibrate()` before every operation, and reports its timings scaled to
the machine speed at which `calibrate()` takes REFERENCE_S:

    reported = measured CPU seconds * REFERENCE_S / median(calibrate() times)

`calibrate()` mixes the three kinds of work the package does (interpreted
Python with a callback per point, QUADPACK through `scipy.integrate.quad`,
and numpy elementwise arrays), and it never calls the package, so a change
to the package moves the reported figures in the same proportion as
the measured ones.  The report prints the measured figures and the factor too.
"""

from __future__ import annotations

import math
import time

import numpy as np

# bound here, at import, so that a traced round's wrapper around
# scipy.integrate.quad neither counts nor slows the calibration
from scipy.integrate import quad

# median calibrate() CPU time on the reference machine (README, "Reference figures")
REFERENCE_S = 0.0125

_POINTS = np.linspace(0.0, 4.0, 4096)  # small enough to stay in cache
_WORK = np.empty_like(_POINTS)  # reused, so the allocator's state plays no part


def _integrand(u: float) -> float:
    return math.exp(-u - 0.3 * u**1.75)


def calibrate() -> float:
    """CPU seconds of one fixed unit of mixed work."""
    start = time.process_time()
    total = 0.0
    for i in range(20_000):
        total += math.exp(-1e-4 * i) * 0.5
    for k in range(64):
        total += quad(_integrand, 0.0, math.inf, epsrel=1e-10 / (k % 4 + 1))[0]
    for _ in range(200):
        np.multiply(_POINTS, _POINTS, out=_WORK)
        np.add(_WORK, 0.25, out=_WORK)
        np.sqrt(_WORK, out=_WORK)
        np.negative(_WORK, out=_WORK)
        np.exp(_WORK, out=_WORK)
        total += float(_WORK.sum())
    elapsed = time.process_time() - start
    if not math.isfinite(total):
        raise RuntimeError("calibration work went wrong")
    return elapsed


def speed_factor(samples) -> float:
    """REFERENCE_S over the median calibration time: >1 on a faster machine."""
    ordered = sorted(samples)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return REFERENCE_S / median
