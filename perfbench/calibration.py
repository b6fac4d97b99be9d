"""A fixed loop that measures how fast the host runs this process right now.

On a shared host the same code can take 1.4-1.8x longer for spells of
seconds to minutes, in CPU time as well as wall time, because other tenants
share the physical core and its caches.  The benchmark times this loop just
before and just after every timed block and scales the block's CPU time by
``REFERENCE_S / loop time``.  A scaled time is the block's CPU time on a
host where the loop takes exactly ``REFERENCE_S``; it moves with the
program and not with the host's spells.

The loop mixes the three kinds of work cloudgraph does: a numpy distance
matrix and partial sort (the O(n^2) kernels), many small numpy calls (the
per-point and per-graph overhead) and plain interpreter work (CSV rows,
dict and list handling).  It uses no cloudgraph code, so no change to the
program can change it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.02  # loop CPU time that scaled times are expressed against
_REPEATS = 4

_rng = np.random.default_rng(20240531)
_POINTS = _rng.random((256, 3))
_ROWS = [_rng.random(32) for _ in range(200)]


def _work() -> float:
    acc = 0.0
    d = ((_POINTS[:, None, :] - _POINTS[None, :, :]) ** 2).sum(axis=2)
    acc += float(np.argpartition(d, 20, axis=1)[:, :20].sum())
    for row in _ROWS:
        acc += float(row.max() - row.min())
    table: dict = {}
    for i in range(5000):
        table[i % 101] = table.get(i % 101, 0.0) + i * 0.5
    return acc + sum(table.values())


def loop_cpu_s() -> float:
    """CPU seconds of one run of the calibration loop."""
    start = time.process_time()
    for _ in range(_REPEATS):
        _work()
    return time.process_time() - start
