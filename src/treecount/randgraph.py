"""Seeded random multigraph generation for cross-validation suites."""

from __future__ import annotations

import heapq
import random
from collections import namedtuple

from .errors import InvalidSpecError
from .graph import MAX_VERTICES, Multigraph


class RandomSpec(namedtuple("RandomSpec", "n m parallel_prob seed require_connected")):
    """Exact vertex and edge counts, parallel-edge bias, seed, connectivity.

    n and m must be plain ints; anything else, bool included, raises
    TypeError naming the field.
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, parallel_prob: float = 0.3, seed: int = 0,
                require_connected: bool = True) -> RandomSpec:
        self = super().__new__(cls, n, m, parallel_prob, seed, require_connected)
        for name, value in (("n", self.n), ("m", self.m)):
            if type(value) is not int:  # as in Multigraph: no bool, no float
                raise TypeError(f"random graph {name} must be an int, got {value!r}")
        if self.n < 1:
            raise InvalidSpecError("random graph needs n >= 1")
        if self.n > MAX_VERTICES:
            raise InvalidSpecError(f"random graph capped at {MAX_VERTICES} vertices")
        if self.m < 0:
            raise InvalidSpecError("random graph needs m >= 0")
        if self.n == 1 and self.m > 0:
            raise InvalidSpecError("a single vertex admits no loopless edges")
        if self.require_connected and self.m < self.n - 1:
            raise InvalidSpecError(
                f"connectivity needs m >= n-1, got m={self.m}, n={self.n}"
            )
        if not 0.0 <= self.parallel_prob <= 1.0:
            raise InvalidSpecError("parallel probability must lie in [0, 1]")
        return self

    @classmethod
    def _make(cls, iterable) -> RandomSpec:  # so that _replace checks too
        return cls(*iterable)


def _random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    # decode a uniform random code sequence into a uniform labeled tree
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        u = heapq.heappop(leaves)
        edges.append((u, v) if u < v else (v, u))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    a, b = sorted(leaves)
    edges.append((a, b))
    return edges


def random_multigraph(spec: RandomSpec) -> Multigraph:
    """Deterministic per-seed multigraph with exactly spec.n vertices and spec.m edges.

    When connectivity is required, a uniform spanning-tree skeleton comes
    first; every further edge duplicates an existing endpoint pair with
    probability `parallel_prob`, otherwise it joins a fresh uniform pair.
    """
    rng = random.Random(spec.seed)
    edges: list[tuple[int, int]] = []
    if spec.require_connected and spec.n >= 2:
        edges.extend(_random_tree_edges(rng, spec.n))
    while len(edges) < spec.m:
        if edges and rng.random() < spec.parallel_prob:
            edges.append(edges[rng.randrange(len(edges))])
        else:
            a = rng.randrange(spec.n)
            b = rng.randrange(spec.n - 1)
            if b >= a:
                b += 1
            edges.append((a, b) if a < b else (b, a))
    return Multigraph(spec.n, tuple(edges))
