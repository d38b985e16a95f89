"""A fixed pure-Python reference loop that tracks the host's speed.

The benchmark runs on shared 2-vCPU virtual machines whose speed drifts
by up to a third for minutes at a time, so a whole 30-second run can
read slow. ``reference_s`` times a fixed graph workload, an iterative
DFS over adjacency lists and dict lookups, that uses no joinreach code,
so no change to the library moves it; only the host does. Its data
spans some megabytes, since the library's slow spells follow contention
for caches and memory as much as for the CPU. The run scales its
end-to-end times by ``host_scale`` of the fastest reference time of the
run, which offsets most of a host that is slow for the whole run.

The data is built before the clock starts and dropped after it stops.
The run calls this while it holds no inputs, so the reference adds
nothing to the run's peak RSS. The timed loop makes no objects that outlive it and
runs with GC paused, so the size of the library's live heap does not
enter the reference time.
"""

from __future__ import annotations

import gc
import random
import time

# The reference loop's usual fastest time on the 2-vCPU VM (Python
# 3.11.7) the benchmark was written on. It only sets the scale of the
# scaled times and must not change between the runs being compared.
NOMINAL_S = 0.018

_N = 30000

# How strongly the library's times follow the reference loop's. Over
# sets of 30-second runs on that VM, fitting log(library time) against
# log(reference time) gave slopes from 0.15 to 0.98 across the three
# workloads' set-up, build and read times. The full ratio overcorrected
# where the slope was low (index-sweep spreads 0.15 -> 0.21 in one set).
# The square root kept the widest build or read spread of a ten-run set
# at 0.17, against 0.29 unscaled, though it widened some narrow ones.
ELASTICITY = 0.5


def host_scale(reference_s):
    """Factor taking times measured while the reference loop's fastest
    pass took ``reference_s`` towards the nominal host speed."""
    return (NOMINAL_S / reference_s) ** ELASTICITY


def _build():
    rng = random.Random(0)
    adj = [[] for _ in range(_N)]
    for _ in range(3 * _N):
        adj[rng.randrange(_N)].append(rng.randrange(_N))
    pos = {v: rng.random() for v in range(_N)}
    return adj, pos, bytearray(_N), [0] * _N, []


def reference_s():
    """Seconds one pass of the reference loop takes."""
    adj, pos, seen, order, stack = _build()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        k = 0
        for s in range(_N):
            if seen[s]:
                continue
            seen[s] = 1
            stack.append(s)
            while stack:
                u = stack.pop()
                order[k] = u
                k += 1
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = 1
                        stack.append(v)
        total = 0.0
        for u in order:
            total += pos[u]
        return time.perf_counter() - t0
    finally:
        gc.enable()
