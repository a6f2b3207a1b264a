"""A fixed loop, apart from the program, that gauges the machine's speed.

The machine the benchmark was built on ran the same code up to 1.8 times
as fast in one minute as in another, as the load of its shared host
comes and goes.  The benchmark times this loop next to every solve and
every set-up, and reports each time scaled by ``REFERENCE_S`` over the
loop's time: seconds at the speed where the loop takes ``REFERENCE_S``.
The loop is small dense conjugate-gradient work in NumPy, the kind of work
that dominates most solves, and it never calls the program, so a change to
the program moves the scaled times as much as the raw ones.
"""

import time

import numpy as np

#: Seconds the loop takes at the speed reported times are scaled to.
REFERENCE_S = 0.2
_REPEATS = 2000
_SIZE = 60
_STEPS = 12


def reference_s() -> float:
    """Seconds the loop takes now."""
    rng = np.random.default_rng(0)
    a = rng.random((_SIZE, _SIZE))
    matrix = a @ a.T + _SIZE * np.eye(_SIZE)
    b = rng.random(_SIZE)
    start = time.perf_counter()
    for _ in range(_REPEATS):
        x = np.zeros(_SIZE)
        r = b.copy()
        p = r.copy()
        rs = float(r @ r)
        for _ in range(_STEPS):
            ap = matrix @ p
            alpha = rs / float(p @ ap)
            x += alpha * p
            r -= alpha * ap
            rs_next = float(r @ r)
            p = r + (rs_next / rs) * p
            rs = rs_next
    return time.perf_counter() - start
