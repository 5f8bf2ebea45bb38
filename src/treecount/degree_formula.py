"""Counting spanning trees from vertex degrees.

The degree-product bound over the non-root vertices overshoots tau(G) by
exactly one correction term per non-spanning subtree through the root:
the degree product of what is left after deleting the subtree's vertices.
Two evaluations of that correction are provided. The direct form walks
every rooted non-spanning subtree; the grouped form buckets subtrees by
their vertex set S, replacing each bucket with tau(G[S]) times the degree
product outside S.

Both, and the weighted identity, walk one private kernel, a plain
recursion that returns the sum of its correction terms. Vertex sets are
int masks (bit v for vertex v), with a neighbour mask and (neighbour, class
value) pairs per vertex: multiplicities, or weight sums in the identity.
The walk keeps the remainder's value sums as S grows and shrinks, and
carries their product down each join: the joining vertex's factor leaves
and each outside neighbour's factor drops by its class value, with zero
factors counted apart, since a sum can cancel to 0 and a later join can
make it nonzero again. It adds in each set whose remainder has no isolated
vertex (read off the masks), since the others contribute a zero factor,
and shows each such set to an optional visitor, which is how the sets are
listed. It tries candidates in ascending order and bans each one after its
branch, so sets come in `enumerate_connected_sets` order; once a banned
vertex is isolated in the remainder it can never join S, and the branch is
cut. More than CORRECTION_SET_BUDGET sets in one walk is a budget error.
It also carries G[S]'s tree sum: a vertex joining S at one distinct
neighbour lies on that class in every tree, so the sum is the parent's
times the class value, and only a set whose last vertex closed a cycle, or
whose parent's sum was never taken, is counted afresh. The grouped form
counts it with a memoized counter, without building a subgraph: it strips
one vertex with a single neighbour inside the set at a time, multiplying by
its class value, and takes a Laplacian minor of the leafless core left
over, once per core within one call. One routine takes that correction
at one class table: at the multiplicities it is the grouped count, at a
weight point's class sums the identity's subtree sums, each point its own
walk. The direct form, the one route here without a determinant, counts a
set afresh by walking its spanning trees one parallel class per step
(`counting._tree_sum`).
`enumerate_connected_sets` and `enumerate_nst` remain the public reference
walks.

The two tau routes multiply the formula over the biconnected blocks of G,
since tau(G) is the product of tau over them, and the sets a walk visits
roughly multiply across cut vertices. Each block is rooted at its vertex
nearest u: the block holding u keeps u, and every other block takes the
cut vertex through which it hangs off u's side (`graph._blocks`). A graph
of one block runs the whole-graph walk on itself, a 2-vertex block is one
parallel class and gives its multiplicity, and any other block is counted
on its induced subgraph; the set budget holds per block walk. `c_pieces`,
`direct_formula_value` (the disconnected probe) and the identity's
`_grouped_correction` stay on the whole-graph walk, since their terms
depend on the root and on all of G.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence

from .algebra import bareiss_determinant
from .counting import (
    _ClassTable, _laplacian_minor, _members, _tree_sum, enumerate_spanning_trees
)
from .errors import BudgetExceededError, DisconnectedError
from .graph import Multigraph, _blocks, induced


class SubTree(namedtuple("SubTree", "root vertices edges")):
    """A connected acyclic subgraph anchored at a root vertex: the root, and
    frozensets of its vertices and edge indices."""

    __slots__ = ()


class InducedPiece(namedtuple("InducedPiece", "vertices tau_inside outside_degree_product")):
    """One grouped correction term: a connected vertex set through the root
    (a frozenset) whose remainder keeps every outside vertex covered, with
    the spanning-tree count inside it and the remainder's degree product."""

    __slots__ = ()


def enumerate_connected_sets(
    g: Multigraph, u: int, max_size: int
) -> Iterator[frozenset[int]]:
    """Yield every vertex set S with u in S, G[S] connected and |S| <= max_size.

    Each set appears exactly once, in a deterministic depth-first order:
    at every level the candidate neighbors are tried in ascending order and
    earlier candidates are forbidden in later branches, so no seen-set
    bookkeeping is needed. max_size below 1 yields nothing; values above n
    behave like n.
    """
    g._check_vertex(u)
    if max_size <= 0:
        return
    adj = [set(g.neighbors(v)) for v in range(g.n)]

    def grow(
        current: frozenset[int], banned: frozenset[int]
    ) -> Iterator[frozenset[int]]:
        yield current
        if len(current) >= max_size:
            return
        frontier: set[int] = set()
        for v in current:
            frontier |= adj[v]
        candidates = sorted(frontier - current - banned)
        for i, v in enumerate(candidates):
            yield from grow(current | {v}, banned | frozenset(candidates[:i]))

    try:
        yield from grow(frozenset([u]), frozenset())
    finally:
        del grow  # free the closure cycle through which grow recurses


# Sets one correction walk may visit, kept or not: RandomSpec(n=30, m=48,
# seed=5), the largest graph in the tests, keeps 334,933 and fits
CORRECTION_SET_BUDGET = 1_000_000


def _correction_walk(
    g: Multigraph, u: int, links: _ClassTable, inside: Callable[[int], int],
    visit: Callable[[int, int, int], object] | None = None,
) -> int:
    # Sum of outside * tree over every connected S through u whose remainder
    # has no isolated vertex; `visit(S mask, outside, tree)` sees each in
    # enumerate_connected_sets order. `outside` is the product over G - S of
    # each vertex's `links` values leaving S (with weight sums, the
    # remainder's incidence product), `tree` G[S]'s tree sum over `links`. A
    # set of n-1 vertices leaves one isolated vertex and all n is no
    # correction, so |S| stops at n-2. The sums follow S on join and undo;
    # the product of the nonzero ones and the count of zero ones go down each
    # join. `iso` masks the remainder vertices with no neighbour left; a
    # banned isolated remainder vertex never joins S, so its branch is cut.
    # A tree sum not carried down a join at one neighbour (None) comes from
    # `inside(S)`.
    max_size = g.n - 2
    if max_size <= 0:
        return 0
    nbr = g._neighbor_masks
    rdeg = [sum(c for _, c in pairs) for pairs in links]
    start = 1 << u
    iso = 0
    for w, c in links[u]:
        rdeg[w] -= c
    for w in range(g.n):
        if w != u and not nbr[w] & ~start:
            iso |= 1 << w
    # a vertex without edges never joins S: banned from the start
    banned = iso & ~nbr[u]
    if iso & banned:
        return 0
    visited = 0

    def grow(
        s: int, banned: int, frontier: int, iso: int, size: int,
        tree: int | None, product: int, zeros: int,
    ) -> int:
        nonlocal visited
        if visited == CORRECTION_SET_BUDGET:
            raise BudgetExceededError(
                f"correction walk exceeded the {CORRECTION_SET_BUDGET}-set budget "
                f"after visiting {visited} sets"
            )
        visited += 1
        total = 0
        if not iso:
            if tree is None:
                tree = inside(s)
            outside = 0 if zeros else product
            if visit is not None:
                visit(s, outside, tree)
            total = outside * tree
        if size == max_size:
            return total
        candidates = frontier & ~banned
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            grown = s | low
            child_iso = iso & ~low
            # the one neighbour v joins at, whose class value carries the sum
            joint = nbr[v] & s
            joint = -1 if tree is None or joint & (joint - 1) else joint.bit_length() - 1
            child_tree = None
            # v's own factor leaves; each outside neighbour's drops by its
            # class value. Zeros are counted, not multiplied in: a sum can
            # cancel to 0 with neighbours left, and a later join can undo that
            old = rdeg[v]
            child_product, child_zeros = product // (old or 1), zeros - (not old)
            for w, c in links[v]:
                old = rdeg[w]
                rdeg[w] = new = old - c
                if s >> w & 1:
                    if w == joint:
                        child_tree = tree * c
                elif old and new:
                    child_product = child_product // old * new
                else:
                    child_product = child_product // (old or 1) * (new or 1)
                    child_zeros += (not new) - (not old)
                    if not new and not nbr[w] & ~grown:
                        child_iso |= 1 << w
            if not child_iso & banned:
                total += grow(
                    grown, banned, (frontier | nbr[v]) & ~grown, child_iso, size + 1,
                    child_tree, child_product, child_zeros,
                )
            for w, c in links[v]:
                rdeg[w] += c
            if iso & low:
                # v is isolated here and banned in every later sibling
                return total
            banned |= low
            candidates ^= low
        return total

    factors = rdeg[:u] + rdeg[u + 1:]
    try:
        return grow(
            start, banned, nbr[u], iso, 1, 1, math.prod(filter(None, factors)), factors.count(0)
        )
    finally:
        del grow  # free the closure cycle through which grow recurses


def _correction_sets(
    g: Multigraph, u: int, links: _ClassTable, inside: Callable[[int], int]
) -> list[tuple[int, int, int]]:
    # (S mask, outside, tree) for each set `_correction_walk` adds in
    sets: list[tuple[int, int, int]] = []
    _correction_walk(g, u, links, inside, lambda *kept: sets.append(kept))
    return sets


def _tree_counter(nbr: Sequence[int], links: _ClassTable) -> Callable[[int], int]:
    # G[S]'s tree sum over `links` for a vertex mask S (tau(G[S]) for
    # multiplicities), memoized per mask. A vertex with one distinct
    # neighbour inside S lies on that class in every tree, so it goes and
    # its class value multiplies; a set with none gets its Laplacian minor,
    # so each leafless core takes one determinant per counter. A lone vertex
    # gives 1, and a larger set with an isolated vertex 0.
    memo: dict[int, int] = {}

    def count(s: int) -> int:
        # strip leaves until a set is known or settles, then fill in the
        # stripped sets on the way back: a loop, so no closure cycle
        stripped: list[tuple[int, int]] = []
        while (value := memo.get(s)) is None:
            rest = s
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                inner = nbr[v] & s
                if not inner & (inner - 1):
                    break
            else:
                value = bareiss_determinant(_laplacian_minor(s, links))
                break
            if not inner:
                value = 0 if s ^ low else 1
                break
            w = inner.bit_length() - 1
            for x, factor in links[v]:
                if x == w:
                    break
            if not factor:
                value = 0
                break
            stripped.append((s, factor))
            s ^= low
        memo[s] = value
        for s, factor in reversed(stripped):
            value = memo[s] = value * factor
        return value

    return count


def _grouped_correction(g: Multigraph, u: int, links: _ClassTable) -> int:
    # The grouped correction over `links` (multiplicities, or one weight
    # point's class sums): a tree sum the walk does not carry comes from a
    # memoized counter, one determinant per leafless core
    return _correction_walk(g, u, links, _tree_counter(g._neighbor_masks, links))


def c_pieces(g: Multigraph, u: int) -> Iterator[InducedPiece]:
    """Yield the grouped correction terms for root u.

    Covers connected sets S with u in S and 1 <= |S| <= n-2 whose deletion
    leaves no isolated vertex, in enumerate_connected_sets order.
    """
    if not g.is_connected():
        raise DisconnectedError("grouped formula needs a connected graph")
    g._check_vertex(u)
    links = g._class_table
    for s, outside, tree in _correction_sets(g, u, links, _tree_counter(g._neighbor_masks, links)):
        yield InducedPiece(frozenset(_members(s)), tree, outside)


def thomassen_bound(g: Multigraph, u: int) -> int:
    """Product of degrees over all vertices except u; 1 when n == 1.

    Always an upper bound for the spanning-tree count.
    """
    g._check_vertex(u)
    bound = 1
    for v in range(g.n):
        if v != u:
            bound *= g.degree(v)
    return bound


def best_thomassen_bound(g: Multigraph) -> tuple[int, int]:
    """The root minimizing the degree-product bound, with its value.

    Ties go to the smallest vertex index. Needs n >= 1.
    """
    best_u = 0
    best = thomassen_bound(g, 0)
    for u in range(1, g.n):
        value = thomassen_bound(g, u)
        if value < best:
            best_u, best = u, value
    return best_u, best


def _block_product(g: Multigraph, u: int, formula: Callable[[Multigraph, int], int]) -> int:
    # tau(G) as the product of `formula` over G's blocks, each at its vertex
    # nearest u. One block is g itself; a bridge class gives its
    # multiplicity; any other block is counted on its induced subgraph
    blocks = _blocks(g._neighbor_masks, u)
    if len(blocks) == 1:
        return formula(g, u)
    value = 1
    for block, root in blocks:
        if block.bit_count() == 2:
            w = (block ^ 1 << root).bit_length() - 1
            value *= next(c for x, c in g._class_table[root] if x == w)
        else:
            sub = induced(g, _members(block))
            value *= formula(sub.graph, sub.vertex_map[root])
    return value


def _grouped_value(g: Multigraph, u: int) -> int:
    return thomassen_bound(g, u) - _grouped_correction(g, u, g._class_table)


def tau_via_grouped_formula(g: Multigraph, u: int) -> int:
    """Spanning-tree count from degrees, correction grouped by vertex set.

    Multiplies the formula over the blocks of g, each rooted at its vertex
    nearest u.
    """
    if not g.is_connected():
        raise DisconnectedError("grouped formula needs a connected graph")
    g._check_vertex(u)
    return _block_product(g, u, _grouped_value)


def enumerate_nst(g: Multigraph, u: int) -> Iterator[SubTree]:
    """Yield every non-spanning subtree of g containing u, exactly once.

    Includes the single-vertex tree ({u}, no edges); spanning trees are
    excluded. Deterministic order: vertex sets in enumeration order, trees
    within a set in lexicographic edge order.
    """
    if not g.is_connected():
        raise DisconnectedError("subtree enumeration needs a connected graph")
    g._check_vertex(u)
    for s in enumerate_connected_sets(g, u, g.n - 1):
        sub = induced(g, s)
        for tree in enumerate_spanning_trees(sub.graph):
            yield SubTree(u, s, frozenset(sub.edge_origin[j] for j in tree))


def _tree_correction(g: Multigraph, u: int, links: _ClassTable) -> int:
    # Sum over kept sets S through u of S's tree sum times the remainder
    # product, both over `links`; a tree sum the walk does not carry is
    # walked tree by tree, so no determinant is taken
    return _correction_walk(g, u, links, lambda s: _tree_sum(s, links))


def direct_formula_value(g: Multigraph, u: int) -> int:
    """Raw value of the direct degree expression at root u.

    No connectivity requirement; exposed so the behavior on disconnected
    input can be probed empirically. Equals tau(G) on connected graphs.
    """
    g._check_vertex(u)
    return thomassen_bound(g, u) - _tree_correction(g, u, g._class_table)


def tau_via_direct_formula(g: Multigraph, u: int) -> int:
    """Spanning-tree count from degrees, one correction term per subtree.

    Multiplies the formula over the blocks of g, each rooted at its vertex
    nearest u.
    """
    if not g.is_connected():
        raise DisconnectedError("direct formula needs a connected graph")
    g._check_vertex(u)
    return _block_product(g, u, direct_formula_value)
