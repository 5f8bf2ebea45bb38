"""A fixed unit of pure-Python work that tracks how fast the host runs right now.

On a shared machine the speed of a vCPU swings by a quarter or more over
tens of seconds, as neighbours come and go; timings taken minutes apart
then differ more than any change worth detecting. The probe is a few
milliseconds of integer elimination, hashing of frozenset keys and churn of
small objects, the same kinds of work as treecount's, written here so that
no change to the program can change it. Timed next to each op, it gives
the local slowdown, and a timing scaled by REFERENCE_S / probe reads as it
would at the reference speed. The garbage collector is paused while the probe runs, so the probe
never pays for garbage the program left behind.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

from inputs import determinant, random_edges, weighted_tree_sum

# About the median probe time on an idle 2-vCPU Intel Xeon VM under
# CPython 3.11; the scaled timings of any host are expressed at this speed.
REFERENCE_S = 0.003

# Probes on each side of an op whose median sets its scale: 17 probes span
# 0.8 to 2 seconds on these workloads, shorter than the host's swings and
# long enough to smooth a single probe's jitter.
HALF_WINDOW = 8

_rng = random.Random(0)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(9)] for _ in range(9)]
_SETS = [frozenset(_rng.sample(range(40), 8)) for _ in range(60)]


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b


def probe() -> float:
    """Seconds one fixed unit of work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        determinant(_MATRIX)
        counts: dict[frozenset, int] = {}
        for a in _SETS:
            for b in _SETS:
                key = a & b
                counts[key] = counts.get(key, 0) + 1
        rng = random.Random(1)
        for _ in range(4):
            edges = random_edges(rng, 7, 12)
            weighted_tree_sum(7, edges)
            sorted((_Cell(a, b) for a, b in edges for _ in range(5)), key=lambda c: (c.b, c.a))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def local_scales(probes: list[float]) -> list[float]:
    """REFERENCE_S over the median probe within HALF_WINDOW places of each position."""
    return [
        REFERENCE_S / statistics.median(probes[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1])
        for i in range(len(probes))
    ]
