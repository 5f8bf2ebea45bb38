"""Classical spanning-tree counts and graph families with known formulas.

Three independent routes to tau(G): a Laplacian minor determinant
(unweighted and weighted), the delete/contract recursion over parallel
classes, and plain enumeration for small graphs.

The determinants and the enumeration kernel read one per-vertex table of
(neighbour, class value) pairs, one per parallel class: multiplicities
count tau, class weight sums give the weighted tree sum. `_laplacian_minor`
builds any vertex set's minor from it; `_tree_sum` walks the spanning trees
of the simple graph underlying a vertex set, one class per edge, over int
masks (bit v for vertex v, one bit per class), each tree contributing the
product of its class values (a class valued 0 is skipped). It grows its
trees from the set's sparsest vertex, taking the sparsest vertices' classes
first, so fewer branches end without a tree. The degree
routes count the leafless core of each set their walk cannot carry with
one of the two: the grouped formula and the identity by its minor's
determinant (`_minor_det`), the direct formula by walking its trees.
Enumeration walks the whole graph. The table is built from
`Multigraph._classes`, the graph's one grouping of its edges by endpoint
pair. Delete/contract reads that grouping, not the table, so a fault in
the table shows up as a disagreement between methods;
`enumerate_spanning_trees`, the public reference walk with one edge-index
set per tree, reads the raw edges, so a fault in the grouping does too.
Both walks are sized by one rule (`_walk_size`) on the trees they would
visit (the simple graph's for the class walk, tau for the reference walk):
a disconnected graph returns without walking, and the degree product at
the best root, an upper bound, admits the walk within ENUM_TREE_BUDGET;
only past that is the minor's determinant taken, and more than
ENUM_TREE_BUDGET trees are refused before the walk starts.

Delete/contract holds a fresh (lo, hi) -> multiplicity dict, one entry
per class of `g._classes`, and recurses on contractions only: a vertex v
with one or two distinct neighbours is deleted in place by one rule, which
recurses once on (G - v)/ab, a minor of n - 2 vertices, only when v has
two neighbours a and b, and deleted classes are dropped in place. Each minor
it counts is memoized, for the rest of one call, under its vertex count
and its sorted classes, each packed into one int (c << 12 | lo << 6 | hi,
labels being below 64); more than DEL_CON_NODE_BUDGET of them raise
BudgetExceededError.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import combinations

from .algebra import bareiss_determinant
from .errors import (
    BudgetExceededError,
    EmptyGraphError,
    InvalidSpecError,
    LengthMismatchError,
)
from .graph import MAX_VERTICES, Multigraph, _connected

EdgeWeights = Sequence[int]
# per vertex, ascending (neighbour, class value) pairs, one per parallel class
_ClassTable = Sequence[Sequence[tuple[int, int]]]


def _members(mask: int) -> list[int]:
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def _laplacian_minor(s: int, links: _ClassTable) -> list[list[int]]:
    # Laplacian of the classes inside vertex mask s, valued by `links`, minus
    # the highest vertex's row and column; any choice gives the same count
    kept = _members(s)[:-1]
    index = {v: i for i, v in enumerate(kept)}
    minor = [[0] * len(kept) for _ in kept]
    for i, a in enumerate(kept):
        for w, c in links[a]:
            if s >> w & 1:
                minor[i][i] += c
                if w in index:
                    minor[i][index[w]] = -c
    return minor


def _minor_det(s: int, links: _ClassTable) -> int:
    # G[S]'s tree sum over `links`: its Laplacian minor's determinant
    return bareiss_determinant(_laplacian_minor(s, links))


def _spanning_minor_det(g: Multigraph, links: _ClassTable) -> int:
    # g's tree sum over `links`
    if g.n == 0:
        raise EmptyGraphError("tau needs at least one vertex")
    return _minor_det((1 << g.n) - 1, links)


def tau_matrix_tree(g: Multigraph) -> int:
    """Spanning-tree count as a principal minor determinant of the Laplacian."""
    return _spanning_minor_det(g, g._class_table)


def tau_weighted_matrix_tree(g: Multigraph, weights: EdgeWeights) -> int:
    """Sum over spanning trees of the product of edge weights.

    Exact for any integer weights, negative ones included; the all-ones
    point recovers the plain count.
    """
    if len(weights) != g.m:
        raise LengthMismatchError(f"expected {g.m} weights, got {len(weights)}")
    return _spanning_minor_det(g, g._class_sums(weights))


# (lo, hi) -> multiplicity, one entry per parallel class, in the order in
# which each pair first appears among the edges
_Classes = dict[tuple[int, int], int]

# Distinct minors delete/contract may count in one call. Each stays in the
# memo until the call returns, so the budget bounds memory as well as time:
# K11 (4,535 minors), Q4 (8,976; 5,571 under "first-edge") and K12 (16,811)
# fit, K13 (66,899) and larger complete graphs do not.
DEL_CON_NODE_BUDGET = 50_000
_Pick = Callable[[_Classes, list[int]], tuple[int, int]]


def _pick_min_degree(classes: _Classes, nbr: list[int]) -> tuple[int, int]:
    degrees = [0] * len(nbr)
    for (a, b), c in classes.items():
        degrees[a] += c
        degrees[b] += c
    v = min(range(len(degrees)), key=degrees.__getitem__)  # lowest label on ties
    w = (nbr[v] & -nbr[v]).bit_length() - 1
    return (v, w) if v < w else (w, v)


def _pick_first_edge(classes: _Classes, nbr: list[int]) -> tuple[int, int]:
    return next(iter(classes))


DELETION_CONTRACTION_HEURISTICS: dict[str, _Pick] = {
    "min-degree": _pick_min_degree,
    "first-edge": _pick_first_edge,
}


def tau_deletion_contraction(g: Multigraph, heuristic: str = "min-degree") -> int:
    """Spanning-tree count by the delete/contract recursion.

    Works on the parallel classes of `g._classes`, a whole class per
    step: tau(G) equals tau(G without the class) plus multiplicity times
    tau(G with the class contracted). One rule goes first, at the lowest
    vertex v of fewest distinct neighbours a <= b when it has one or two,
    by classes of multiplicity p and q (a = b and q = 0 for a pendant): a
    tree takes one of v's classes or both, so tau(G) = (p + q) * tau(G - v)
    + pq * tau((G - v)/ab). G - v is counted in place and only (G - v)/ab
    recurses, when a < b. The rule does not divide, so it holds at any
    integer class values. Otherwise the heuristic picks a class to delete
    and contract; "min-degree" sums the weighted degrees itself.
    Disconnection short-circuits to 0 and graphs of at most 3 vertices are
    closed out directly. Deletion and contraction keep vertices labelled in
    order of their least original vertex, so a minor reached twice has one
    key, and its count is memoized for the rest of the call (cf. Haggard,
    Pearce & Royle, ACM TOMS 37(3), 2010). More than DEL_CON_NODE_BUDGET
    memoized minors raises BudgetExceededError. The choice of class never
    changes the result; `heuristic` exists so tests can run two orders and
    compare.
    """
    if g.n == 0:
        raise EmptyGraphError("tau needs at least one vertex")
    try:
        pick = DELETION_CONTRACTION_HEURISTICS[heuristic]
    except KeyError:
        raise ValueError(f"unknown heuristic {heuristic!r}") from None
    return _tau_dc(g.n, {pair: len(js) for pair, js in g._classes}, pick, {})


def _contract(classes: _Classes, a: int, b: int) -> _Classes:
    # merge b into a < b and shift higher labels down, as `contract_edge`
    # does; the (a, b) class goes and classes that now coincide add up
    merged: _Classes = {}
    for (x, y), c in classes.items():
        if y == b:
            if x == a:
                continue
            x, y = (x, a) if x < a else (a, x)
        elif y > b:
            y -= 1
            if x == b:
                x = a
            elif x > b:
                x -= 1
        merged[x, y] = merged.get((x, y), 0) + c
    return merged


def _tau_dc(n: int, classes: _Classes, pick: _Pick, memo: dict) -> int:
    # tau of the minor `classes` on n vertices, which this call consumes.
    # It is total + scale * tau(current graph) throughout: vertices with one
    # or two distinct neighbours and deleted classes change the graph in
    # place and only contraction recurses, so the depth stays below n
    key = (n, tuple(sorted(c << 12 | lo << 6 | hi for (lo, hi), c in classes.items())))
    known = memo.get(key)
    if known is not None:
        return known
    if len(memo) >= DEL_CON_NODE_BUDGET:
        raise BudgetExceededError(
            f"delete/contract exceeded the {DEL_CON_NODE_BUDGET}-node budget "
            f"after counting {len(memo)} minors"
        )
    total, scale = 0, 1
    while True:
        if n <= 3:
            if n == 3:
                c01, c02, c12 = (classes.get(p, 0) for p in ((0, 1), (0, 2), (1, 2)))
                scale *= c01 * c02 + c01 * c12 + c02 * c12
            elif n == 2:
                scale *= classes.get((0, 1), 0)
            total += scale
            break
        nbr = [0] * n
        for a, b in classes:
            nbr[a] |= 1 << b
            nbr[b] |= 1 << a
        if not _connected(nbr):
            break
        distinct = [mask.bit_count() for mask in nbr]
        fewest = min(distinct)
        if fewest <= 2:
            # v with neighbours a <= b by classes p and q (q = 0 and a == b
            # for a pendant): a tree of G takes one of v's classes and a tree
            # of G - v, or both and a tree of (G - v)/ab; only the last recurses
            v = distinct.index(fewest)
            a, b = (nbr[v] & -nbr[v]).bit_length() - 1, nbr[v].bit_length() - 1
            p = classes[(a, v) if a < v else (v, a)]
            q = classes[(v, b) if v < b else (b, v)] if a < b else 0
            classes = {
                (x - (x > v), y - (y > v)): c for (x, y), c in classes.items() if x != v != y
            }
            n -= 1
            if a < b:
                joined = _contract(classes, a - (a > v), b - (b > v))
                total += scale * p * q * _tau_dc(n - 1, joined, pick, memo)
            scale *= p + q
            continue
        pair = pick(classes, nbr)
        c = classes.pop(pair)  # the delete branch: the loop goes on without it
        total += scale * c * _tau_dc(n - 1, _contract(classes, *pair), pick, memo)
    memo[key] = total
    return total


def _tree_sum(s: int, links: _ClassTable) -> int:
    # Sum over the spanning trees of the simple graph underlying G[S] of the
    # product of their class values; `links` holds each vertex's ascending
    # (neighbour, value) pairs, and classes leaving S are ignored. S's
    # vertices are ordered by how many nonzero classes each has inside S,
    # ties by label, and the classes are numbered in that order, each at its
    # earlier endpoint. The walk (Gabow & Myers, SIAM J. Comput. 7(3), 1978)
    # grows a tree from the first vertex of that order, so the classes of the
    # sparsest vertices, the ones most often forced, are decided first; the
    # order changes which branches are tried, not the sum. The lowest
    # frontier class is either included, which recurses with its outer
    # vertex added, or excluded, which loops in place, so the recursion depth
    # stays below |S|. The tree's vertex mask, its frontier class mask and
    # the excluded class mask carry the state; once an excluded class's outer
    # vertex has no class left, no tree remains and the branch stops.
    if not s & (s - 1):
        return 1
    # a class valued 0 adds no tree
    near = {v: [(w, c) for w, c in links[v] if c and s >> w & 1] for v in _members(s)}
    inc = [0] * len(links)
    ends: list[int] = []
    values: list[int] = []
    order = sorted(near, key=lambda v: len(near[v]) << 6 | v)
    placed = 0
    for v in order:
        placed |= 1 << v
        for w, c in near[v]:
            if not placed >> w & 1:
                bit = 1 << len(values)
                inc[v] |= bit
                inc[w] |= bit
                ends.append(1 << v | 1 << w)
                values.append(c)

    def walk(tree: int, frontier: int, excluded: int) -> int:
        total = 0
        while frontier:
            low = frontier & -frontier
            x = low.bit_length() - 1
            outer = ends[x] & ~tree
            y = outer.bit_length() - 1
            grown = tree | outer
            if grown == s:
                total += values[x]
            else:
                total += values[x] * walk(grown, (frontier ^ inc[y]) & ~excluded, excluded)
            excluded |= low
            frontier ^= low
            if not inc[y] & ~excluded:
                break
        return total

    root = order[0]
    try:
        return walk(1 << root, inc[root], 0)
    finally:
        del walk  # free the closure cycle through which walk recurses


# Spanning trees of the underlying simple graph that enumeration may walk:
# K9 (4,782,969) fits, K10 (10^8) and larger complete graphs do not.
ENUM_TREE_BUDGET = 10**7


def _walk_size(g: Multigraph, links: _ClassTable, walk: str) -> int:
    # at most ENUM_TREE_BUDGET and at least the trees a walk of g would
    # visit, g's tree sum over `links`: 0 when g is disconnected, else the
    # degree product at the best root (the row sums of `links` multiplied
    # over every vertex but the largest). Only past the budget is the sum
    # itself taken, as a determinant, and refused if it passes too
    if g.n == 0:
        raise EmptyGraphError("spanning trees need at least one vertex")
    if not g.is_connected():
        return 0
    trees = math.prod(sorted(sum(c for _, c in row) for row in links)[:-1])
    if trees <= ENUM_TREE_BUDGET:
        return trees
    trees = _spanning_minor_det(g, links)
    if trees > ENUM_TREE_BUDGET:
        raise BudgetExceededError(
            f"{walk} exceeds the {ENUM_TREE_BUDGET}-tree budget: "
            f"the walk would visit {trees} trees"
        )
    return trees


def count_spanning_trees(g: Multigraph) -> int:
    """Spanning-tree count by enumeration.

    Walks the spanning trees of the simple graph underlying g, each parallel
    class standing for all its edges, and adds up the products of their
    class multiplicities: one leaf of the walk per simple spanning tree.
    The number of leaves grows superexponentially, so it is bounded first:
    a disconnected g counts 0 with no walk; otherwise the simple graph's
    degree product at its best root (the distinct-neighbour counts
    multiplied over every vertex but the one with most) bounds the leaves
    from above and admits the walk when it is within ENUM_TREE_BUDGET. Only
    past that is the number itself taken, as the simple graph's Laplacian
    minor (every class valued 1), and more than ENUM_TREE_BUDGET raise
    BudgetExceededError before the walk starts. These figures only decide
    whether the walk runs.
    """
    unit = [[(w, 1) for w, _ in row] for row in g._class_table]
    if not _walk_size(g, unit, "enumeration"):
        return 0
    return _tree_sum((1 << g.n) - 1, g._class_table)


def enumerate_spanning_trees(g: Multigraph) -> Iterator[frozenset[int]]:
    """Yield every spanning tree as an edge-index set, exactly once.

    Order is lexicographic on the sorted index sequence. The walk visits
    tau(G) trees. A disconnected g yields nothing and walks nothing;
    otherwise the degree product at the best root (degrees multiplied over
    every vertex but the one of highest degree), at least tau, admits the
    walk when it is within ENUM_TREE_BUDGET. Only past that is tau taken, as
    the Laplacian minor, and past ENUM_TREE_BUDGET it raises
    BudgetExceededError before the first tree.
    """
    if not _walk_size(g, g._class_table, "reference enumeration"):
        return
    need = g.n - 1
    edges = g.edges
    m = g.m
    chosen: list[int] = []

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def extend(start: int, parent: list[int], count: int) -> Iterator[frozenset[int]]:
        if count == need:
            yield frozenset(chosen)
            return
        for j in range(start, m - (need - count) + 1):
            a, b = edges[j]
            ra, rb = find(parent, a), find(parent, b)
            if ra == rb:
                continue
            child = parent.copy()
            child[ra] = rb
            chosen.append(j)
            yield from extend(j + 1, child, count + 1)
            chosen.pop()

    try:
        yield from extend(0, list(range(g.n)), 0)
    finally:
        del extend  # free the closure cycle through which extend recurses


FAMILY_KINDS = ("complete", "multipartite", "hypercube", "wheel", "multiwheel")


class FamilySpec(namedtuple("FamilySpec", "kind sizes")):
    """A parameterized graph family.

    kinds: complete(n), multipartite(n1..nk), hypercube(d), wheel(r),
    multiwheel(r). Wheels put the hub at the last vertex index; the
    multiwheel doubles every hub-rim edge. `sizes` is stored as a tuple.
    Every size must be a plain int; anything else, bool included, raises
    TypeError naming `sizes`.
    """

    __slots__ = ()

    def __new__(cls, kind: str, sizes: Iterable[int]) -> FamilySpec:
        self = super().__new__(cls, kind, tuple(sizes))
        if any(type(s) is not int for s in self.sizes):
            raise TypeError(f"family sizes must be ints, got {self.sizes!r}")
        if self.kind not in FAMILY_KINDS:
            raise InvalidSpecError(f"unknown family kind {self.kind!r}")
        if not self.sizes:
            raise InvalidSpecError("family needs at least one size parameter")
        if any(s < 1 for s in self.sizes):
            raise InvalidSpecError("family size parameters must be >= 1")
        if self.kind != "multipartite" and len(self.sizes) != 1:
            raise InvalidSpecError(f"{self.kind} takes exactly one size parameter")
        if self.kind in ("wheel", "multiwheel") and self.sizes[0] < 3:
            raise InvalidSpecError("wheel rim needs at least 3 vertices")
        if self.kind == "hypercube" and self.sizes[0] > 6:
            # Q_6 is the largest cube within MAX_VERTICES; 2**d is never built
            # for a d that could be too large to compute or print
            raise InvalidSpecError(
                f"family would have 2^{self.sizes[0]} vertices, maximum is {MAX_VERTICES}"
            )
        if self.vertex_count() > MAX_VERTICES:
            raise InvalidSpecError(
                f"family would have {self.vertex_count()} vertices, "
                f"maximum is {MAX_VERTICES}"
            )
        return self

    @classmethod
    def _make(cls, iterable) -> FamilySpec:  # so that _replace checks too
        return cls(*iterable)

    def vertex_count(self) -> int:
        if self.kind == "complete":
            return self.sizes[0]
        if self.kind == "multipartite":
            return sum(self.sizes)
        if self.kind == "hypercube":
            return 2 ** self.sizes[0]
        return self.sizes[0] + 1


def generate_family(spec: FamilySpec) -> Multigraph:
    """Build the concrete multigraph for a family spec."""
    if spec.kind == "complete":
        n = spec.sizes[0]
        return Multigraph(n, tuple(combinations(range(n), 2)))
    if spec.kind == "multipartite":
        n = sum(spec.sizes)
        part = []
        for i, size in enumerate(spec.sizes):
            part.extend([i] * size)
        pairs = tuple(
            (a, b) for a, b in combinations(range(n), 2) if part[a] != part[b]
        )
        return Multigraph(n, pairs)
    if spec.kind == "hypercube":
        d = spec.sizes[0]
        n = 2**d
        pairs = tuple(
            (v, v ^ (1 << bit))
            for v in range(n)
            for bit in range(d)
            if v < v ^ (1 << bit)
        )
        return Multigraph(n, pairs)
    r = spec.sizes[0]
    hub = r
    rim = [(i, (i + 1) % r) for i in range(r)]
    spokes = [(i, hub) for i in range(r)]
    if spec.kind == "multiwheel":
        spokes = [pair for pair in spokes for _ in range(2)]
    return Multigraph(r + 1, tuple(rim + spokes))


def closed_form_tau(spec: FamilySpec) -> int | None:
    """Known closed-form count for the family, or None when there is none.

    complete: n^(n-2); multipartite K_{n1..nk} with n = sum(ni):
    n^(k-2) * prod (n - ni)^(ni - 1); hypercube Q_d:
    2^(2^d - d - 1) * prod_{k=2..d} k^C(d,k). Wheels have no closed form here.
    """
    if spec.kind == "complete":
        n = spec.sizes[0]
        return 1 if n <= 2 else n ** (n - 2)
    if spec.kind == "multipartite":
        sizes = spec.sizes
        n = sum(sizes)
        k = len(sizes)
        if k == 1:
            return 1 if n == 1 else 0
        value = n ** (k - 2)
        for ni in sizes:
            value *= (n - ni) ** (ni - 1)
        return value
    if spec.kind == "hypercube":
        d = spec.sizes[0]
        value = 2 ** (2**d - d - 1)
        for k in range(2, d + 1):
            value *= k ** math.comb(d, k)
        return value
    return None
