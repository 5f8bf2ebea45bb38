"""Immutable loopless multigraph and its structural operations.

Vertices are integers 0..n-1. Edges are unordered endpoint pairs indexed
0..m-1 in construction order; parallel edges keep distinct indices, which
is what lets weights and polynomial variables attach to individual edges.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property

from .errors import (
    EdgeOutOfRangeError,
    EmptySetError,
    GraphTooLargeError,
    LengthMismatchError,
    LoopEdgeError,
    ParseError,
    VertexOutOfRangeError,
)

MAX_VERTICES = 64


class Multigraph:
    """Loopless undirected multigraph with positionally indexed edges.

    The vertex count, every endpoint and every vertex argument must be a
    plain int; anything else, bool included, raises TypeError naming `n`,
    the edge index or the vertex. Instances are immutable and compare and
    hash by `(n, edges)`.
    """

    n: int
    edges: tuple[tuple[int, int], ...]  # (low, high) pairs

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        # `type(...) is int` rather than isinstance, which lets bool through
        if type(n) is not int:
            raise TypeError(f"vertex count n must be an int, got {n!r}")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if n > MAX_VERTICES:
            raise GraphTooLargeError(
                f"at most {MAX_VERTICES} vertices supported, got {n}"
            )
        norm = []
        for j, (a, b) in enumerate(edges):
            if type(a) is not int or type(b) is not int:
                raise TypeError(f"edge {j} endpoints must be ints, got ({a!r}, {b!r})")
            # one ordering test finds loops and orients the edge, so the
            # type checks above leave the per-edge cost flat
            if a < b:
                lo, hi = a, b
            elif b < a:
                lo, hi = b, a
            else:
                raise LoopEdgeError(f"edge {j} is a loop at vertex {a}")
            if lo < 0 or hi >= n:
                raise VertexOutOfRangeError(
                    f"edge {j} endpoint out of range: ({a}, {b})"
                )
            norm.append((lo, hi))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(n={self.n!r}, edges={self.edges!r})"

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _incidence(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for j, (a, b) in enumerate(self.edges):
            inc[a].append(j)
            inc[b].append(j)
        return tuple(tuple(js) for js in inc)

    @cached_property
    def _classes(self) -> tuple[tuple[tuple[int, int], tuple[int, ...]], ...]:
        # the one grouping of the edges by endpoint pair: each parallel class's
        # (lo, hi) pair and ascending edge indices, in first-edge order
        members: dict[tuple[int, int], list[int]] = {}
        for j, pair in enumerate(self.edges):
            members.setdefault(pair, []).append(j)
        return tuple((pair, tuple(js)) for pair, js in members.items())

    def _class_sums(self, weights: Sequence[int]) -> tuple[tuple[tuple[int, int], ...], ...]:
        # per vertex, ascending (neighbour, weight sum) pairs, one per parallel
        # class; a class whose sum is 0 is kept, so every class is listed
        self._check_weights(weights)
        at = weights.__getitem__
        rows: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for (a, b), js in self._classes:
            w = sum(map(at, js))
            rows[a].append((b, w))
            rows[b].append((a, w))
        return tuple(tuple(sorted(row)) for row in rows)

    @cached_property
    def _class_table(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # the class sums at unit weights: (neighbour, multiplicity) pairs
        return self._class_sums((1,) * self.m)

    @cached_property
    def _neighbor_masks(self) -> tuple[int, ...]:
        # bit w of entry v is set iff v and w are adjacent
        masks = [0] * self.n
        for (a, b), _ in self._classes:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return tuple(masks)

    def _check_vertex(self, v: int) -> None:
        if type(v) is not int:
            raise TypeError(f"vertex must be an int, got {v!r}")
        if not (0 <= v < self.n):
            span = f"0..{self.n - 1}" if self.n else "the empty graph"
            raise VertexOutOfRangeError(f"vertex {v} not in {span}")

    def _check_weights(self, weights: Sequence[int]) -> None:
        # one weight per edge, by position
        if len(weights) != self.m:
            raise LengthMismatchError(f"expected {self.m} weights, got {len(weights)}")

    def degree(self, v: int) -> int:
        """Endpoint count at v; parallel edges count separately."""
        self._check_vertex(v)
        return len(self._incidence[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(js) for js in self._incidence)

    def incident_edges(self, v: int) -> frozenset[int]:
        """Indices of all edges having v as an endpoint."""
        self._check_vertex(v)
        return frozenset(self._incidence[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Distinct adjacent vertices in ascending order."""
        self._check_vertex(v)
        return tuple(w for w, _ in self._class_table[v])

    def is_connected(self) -> bool:
        """True iff every vertex is reachable from vertex 0; n <= 1 counts as connected."""
        return not self.n or _connected(self._neighbor_masks)

    def has_isolated_vertex(self) -> bool:
        return any(len(js) == 0 for js in self._incidence)


def _connected(nbr: Sequence[int]) -> bool:
    # every vertex reachable from vertex 0 over the neighbour masks; needs n >= 1
    seen = stack = 1
    while stack:
        low = stack & -stack
        stack ^= low
        new = nbr[low.bit_length() - 1] & ~seen
        seen |= new
        stack |= new
    return seen == (1 << len(nbr)) - 1


def _blocks(nbr: Sequence[int], root: int) -> list[int]:
    # the vertex mask of each biconnected block of the connected graph over
    # the neighbour masks, by a Hopcroft-Tarjan DFS from `root`. A block is
    # closed at the vertex v whose DFS child w has no back edge above v.
    # Parallel edges share one mask bit, so a bridge class is a 2-vertex
    # block; a lone vertex has no block
    order = [0] * len(nbr)
    blocks: list[int] = []
    count = 0

    def visit(v: int) -> tuple[int, int]:
        # (lowest order number reached from v's subtree by one back edge,
        # the subtree's vertices left in no closed block)
        nonlocal count
        count += 1
        order[v] = low = count
        open_ = 1 << v
        rest = nbr[v]
        while rest:
            bit = rest & -rest
            rest ^= bit
            w = bit.bit_length() - 1
            if order[w]:
                low = min(low, order[w])
                continue
            child_low, child = visit(w)
            if child_low >= order[v]:
                blocks.append(child | 1 << v)
            else:
                low = min(low, child_low)
                open_ |= child
        return low, open_

    try:
        visit(root)
    finally:
        del visit  # free the closure cycle through which visit recurses
    return blocks


def build(n: int, endpoint_pairs: Iterable[tuple[int, int]]) -> Multigraph:
    """Construct a multigraph; edge indices follow the input order."""
    return Multigraph(n, tuple((a, b) for a, b in endpoint_pairs))


class InducedSubgraph(namedtuple("InducedSubgraph", "graph vertex_map edge_origin")):
    """A vertex-deletion result: the relabeled graph plus maps back to the original."""

    __slots__ = ()


def delete_vertices(g: Multigraph, drop: Iterable[int]) -> InducedSubgraph:
    """Induced multigraph on the complement of `drop`.

    Survivors are relabeled to 0..k-1 in ascending original order;
    `vertex_map` maps old labels to new ones and `edge_origin` maps each new
    edge index to the original index it came from.
    """
    dropped = frozenset(drop)
    for v in dropped:
        g._check_vertex(v)
    keep = [v for v in range(g.n) if v not in dropped]
    vmap = {v: i for i, v in enumerate(keep)}
    new_edges = []
    origin = []
    for j, (a, b) in enumerate(g.edges):
        if a in vmap and b in vmap:
            new_edges.append((vmap[a], vmap[b]))
            origin.append(j)
    return InducedSubgraph(Multigraph(len(keep), tuple(new_edges)), vmap, tuple(origin))


def induced(g: Multigraph, keep: Iterable[int]) -> InducedSubgraph:
    """Induced multigraph on a nonempty vertex set, relabeled as in delete_vertices."""
    kept = frozenset(keep)
    if not kept:
        raise EmptySetError("induced subgraph needs at least one vertex")
    for v in kept:
        g._check_vertex(v)
    return delete_vertices(g, (v for v in range(g.n) if v not in kept))


def contract_edge(g: Multigraph, j: int) -> Multigraph:
    """Merge the endpoints of edge j, dropping j and every edge parallel to it.

    Parallel edges would become loops under the merge, and loops never enter
    spanning trees, so they are removed. All other edges survive with
    remapped endpoints; the merged vertex takes the lower endpoint's slot and
    higher labels shift down by one.
    """
    if not (0 <= j < g.m):
        raise EdgeOutOfRangeError(f"edge {j} not in 0..{g.m - 1}")
    a, b = g.edges[j]

    def relabel(v: int) -> int:
        if v == b:
            v = a
        return v - 1 if v > b else v

    new_edges = [
        (relabel(x), relabel(y)) for (x, y) in g.edges if (x, y) != (a, b)
    ]
    return Multigraph(g.n - 1, tuple(new_edges))


def serialize(g: Multigraph) -> str:
    """Emit the line-oriented text format; edge order defines the edge index."""
    lines = [f"n {g.n}"]
    lines.extend(f"e {a} {b}" for a, b in g.edges)
    return "\n".join(lines) + "\n"


def parse(text: str) -> Multigraph:
    """Parse the text graph format ('#' starts a comment)."""
    n: int | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate vertex-count line")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'n <count>'")
            n = _parse_int(parts[1], lineno)
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge line before vertex count")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'e <a> <b>'")
            pairs.append((_parse_int(parts[1], lineno), _parse_int(parts[2], lineno)))
        else:
            raise ParseError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise ParseError("missing 'n <count>' line")
    try:
        return Multigraph(n, tuple(pairs))
    except (LoopEdgeError, VertexOutOfRangeError, GraphTooLargeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: not an integer: {token!r}") from None
