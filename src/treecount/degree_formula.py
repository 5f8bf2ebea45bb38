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
whose parent's sum was never taken, is counted afresh. Every route counts
it with one memoized counter, without building a subgraph: it strips one
vertex with a single neighbour inside the set at a time, multiplying by
its class value, and counts the leafless core left over once per call.
The routes differ only in that core counter. The grouped form and the
identity take the core's Laplacian minor (`counting._minor_det`), at the
multiplicities for the grouped count and at a weight point's class sums
for the identity's subtree sums, each point its own walk. The direct form,
the one route here without a determinant, walks the core's spanning trees
one parallel class per step (`counting._tree_sum`).
`enumerate_connected_sets` and `enumerate_nst` remain the public reference
walks.

The two tau routes first shrink G, since the formula holds for any class
values and the walk's cost grows with the number of connected sets. A
vertex with one, two or three distinct neighbours goes by the star-mesh
rule (Kennelly's Y-Delta transform, a Schur complement of the Laplacian):
with class values summing to s, tau gains a factor s and each pair of its
neighbours gains w_a w_b / s on their class, a new class if they had none.
One neighbour (a pendant) makes no pair, and two are the series rule. Each
value is an exact reduced fraction while vertices go, so a step touches
only the removed vertex's classes, and s is tallied in a numerator and a
denominator. Once none goes, the values are put on one integer scale (the
lcm of their denominators over the gcd of the results), tallied too, and
the tallies divide exactly at the end. The routes then multiply the
formula over the biconnected blocks of what is left (`graph._blocks`),
since tau is the product of tau over them, and the sets a walk visits
roughly multiply across cut vertices. Each block is rooted at its vertex
with the fewest distinct neighbours in it (the lowest on ties), where the
walk branches least, so the root u the routes take is only validated.
Every block is walked on the reduced neighbour masks inside its vertex
mask, on a class table that keeps only the classes inside the block; the
set budget holds per block walk. `c_pieces`, `direct_formula_value` (the
disconnected probe) and the identity walk the whole vertex mask of G
unreduced, since their terms are per set through the given root and depend
on all of G. One guard, `_require_rooted`, opens every walk through a root
of a connected G (both tau routes, `c_pieces`, `enumerate_nst`,
`identity_rhs`): it refuses the empty graph, then a disconnected one, then
a bad root.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from itertools import combinations

from .counting import _ClassTable, _members, _minor_det, _tree_sum, enumerate_spanning_trees
from .errors import BudgetExceededError, DisconnectedError, EmptyGraphError
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


# Sets one correction walk may visit, kept or not. Unreduced, the block
# walks of RandomSpec(n=30, m=48, seed=5) keep 111,795 sets and fit, and
# those of RandomSpec(n=40, m=64, seed=12) do not; star-mesh-reduced, each
# keeps 49, and those of seeds 0 and 3 of RandomSpec(n=40, m=64) 4,978 and
# 5,457
CORRECTION_SET_BUDGET = 1_000_000


def _correction_walk(
    nbr: Sequence[int], u: int, links: _ClassTable, within: int,
    inside: Callable[[int], int], visit: Callable[[int, int, int], object] | None = None,
) -> int:
    # Sum of outside * tree over every connected S through u inside the
    # vertex mask `within` of the graph over the neighbour masks `nbr` whose
    # remainder there has no isolated vertex; `visit(S mask, outside, tree)`
    # sees each in enumerate_connected_sets order. No row of `links` in
    # `within` has a pair leaving it. `outside` is the product over
    # `within` - S of each vertex's `links` values leaving S (with weight
    # sums, the remainder's incidence product), `tree` G[S]'s tree sum over
    # `links`. S stops two vertices short of `within`: one left out is
    # isolated, and all of it is no correction. The sums follow S on join
    # and undo; the product of the nonzero ones and the count of zero ones
    # go down each join. `iso` masks the remainder vertices with no
    # neighbour left; a banned isolated one never joins S, so its branch is
    # cut. A tree sum not carried down a join at one neighbour (None) comes
    # from `inside(S)`.
    max_size = within.bit_count() - 2
    if max_size <= 0:
        return 0
    nbr = [mask & within for mask in nbr]
    rdeg = [sum(c for _, c in pairs) for pairs in links]
    start = 1 << u
    rest = _members(within ^ start)
    for w, c in links[u]:
        rdeg[w] -= c
    iso = sum(1 << w for w in rest if not nbr[w] & ~start)
    # a vertex without edges never joins S: banned from the start, and
    # isolated in every remainder, so no set is kept
    banned = iso & ~nbr[u]
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

    factors = [rdeg[w] for w in rest]
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
    _correction_walk(
        g._neighbor_masks, u, links, (1 << g.n) - 1, inside, lambda *kept: sets.append(kept)
    )
    return sets


# counts the tree sum over a class table inside a leafless vertex mask:
# `_minor_det` by a determinant, `_tree_sum` tree by tree
_Core = Callable[[int, _ClassTable], int]


def _tree_counter(nbr: Sequence[int], links: _ClassTable, core: _Core) -> Callable[[int], int]:
    # G[S]'s tree sum over `links` for a vertex mask S (tau(G[S]) for
    # multiplicities), memoized per mask. A vertex with one distinct
    # neighbour inside S lies on that class in every tree, so it goes and
    # its class value multiplies; a set with none is counted by
    # `core(S, links)`, once per leafless core per counter. A lone vertex
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
                value = core(s, links)
                break
            if not inner:
                value = 0 if s ^ low else 1
                break
            w = inner.bit_length() - 1
            for x, factor in links[v]:
                if x == w:
                    break
            stripped.append((s, factor))
            s ^= low
        memo[s] = value
        for s, factor in reversed(stripped):
            value = memo[s] = value * factor
        return value

    return count


def _correction(
    nbr: Sequence[int], u: int, links: _ClassTable, within: int, core: _Core
) -> int:
    # The correction over `links` (multiplicities, one weight point's class
    # sums, or a star-mesh-reduced table) inside `within`: a tree sum the walk
    # does not carry comes from a memoized counter whose leafless cores
    # `core` counts
    return _correction_walk(nbr, u, links, within, _tree_counter(nbr, links, core))


def _require_rooted(g: Multigraph, u: int, walk: str) -> None:
    # the entry checks of every rooted walk (see the module docstring);
    # `walk` names it in the connectivity error
    if g.n == 0:
        raise EmptyGraphError("tau needs at least one vertex")
    if not g.is_connected():
        raise DisconnectedError(f"{walk} needs a connected graph")
    g._check_vertex(u)


def c_pieces(g: Multigraph, u: int) -> Iterator[InducedPiece]:
    """Yield the grouped correction terms for root u.

    Covers connected sets S with u in S and 1 <= |S| <= n-2 whose deletion
    leaves no isolated vertex, in enumerate_connected_sets order.
    """
    _require_rooted(g, u, "grouped formula")
    links = g._class_table
    count = _tree_counter(g._neighbor_masks, links, _minor_det)
    for s, outside, tree in _correction_sets(g, u, links, count):
        yield InducedPiece(frozenset(_members(s)), tree, outside)


def thomassen_bound(g: Multigraph, u: int) -> int:
    """Product of degrees over all vertices except u; 1 when n == 1.

    Always an upper bound for the spanning-tree count.
    """
    g._check_vertex(u)
    degrees = g.degrees()
    return math.prod(degrees[:u] + degrees[u + 1 :])


def best_thomassen_bound(g: Multigraph) -> tuple[int, int]:
    """The root minimizing the degree-product bound, with its value.

    Ties go to the smallest vertex index. Needs n >= 1.
    """
    g._check_vertex(0)
    degrees = g.degrees()
    bounds = [math.prod(degrees[:v] + degrees[v + 1 :]) for v in range(g.n)]
    best = min(bounds)
    return bounds.index(best), best


def _block_product(nbr: Sequence[int], links: _ClassTable, core: _Core) -> int:
    # The tree sum over `links` of the connected graph over the neighbour
    # masks `nbr` (vertices without a neighbour left out; 1 if none has
    # one), as the product over its blocks. Each block is walked inside its
    # mask, with only its own classes, at its vertex with the fewest
    # distinct neighbours in it (the lowest on ties): its row sums' product
    # off that root, less its correction, whose cores `core` counts
    value = 1
    for block in _blocks(nbr, next((v for v, mask in enumerate(nbr) if mask), 0)):
        members = _members(block)
        root = min(members, key=lambda v: (nbr[v] & block).bit_count())
        inner: list[tuple[tuple[int, int], ...]] = [()] * len(nbr)
        for v in members:
            inner[v] = tuple(pair for pair in links[v] if block >> pair[0] & 1)
        bound = math.prod(sum(c for _, c in inner[v]) for v in members if v != root)
        value *= bound - _correction(nbr, root, inner, block, core)
    return value


def _star_mesh_reduce(
    links: _ClassTable,
) -> tuple[list[int], list[tuple[tuple[int, int], ...]], int, int]:
    # (neighbour masks, table, num, den) such that the connected graph's
    # tree sum over `links` is num * (the tree sum over the returned table)
    # / den. The lowest vertex with one, two or three distinct neighbours
    # goes by the star-mesh rule until none is left or one vertex remains;
    # a removed vertex keeps no neighbour. With class values summing to s,
    # its trees number s times those of the rest with w_a w_b / s added to
    # the class of each pair a, b of its neighbours, which gain a class if
    # they had none (a Schur complement of the Laplacian). Class values are
    # positive multiplicities, so s > 0: a zero-sum vertex has no Schur
    # complement and must not reach this rule. Each value is kept as a
    # reduced fraction (p, q), so a step touches only the removed vertex's
    # classes: s's numerator goes into num and its denominator into den.
    # Once no vertex goes, the values are put on one integer scale, times
    # the lcm L of their denominators and over the gcd d of the results:
    # the gcd-1 integer table of the same values, whose tree sum over the
    # k' vertices left is (L / d)^(k'-1) times theirs, so d^(k'-1) goes
    # into num and L^(k'-1) into den. If no vertex went, the values stay
    # as given
    rows = [{w: (c, 1) for w, c in pairs} for pairs in links]
    left = len(rows)
    num = den = 1
    while left > 1:
        for v, row in enumerate(rows):
            if 0 < len(row) <= 3:
                break
        else:
            break
        rows[v] = {}
        left -= 1
        for w in row:
            del rows[w][v]
        # s = p / q, in lowest terms
        p, q = 0, 1
        for c, e in row.values():
            p, q = p * e + c * q, q * e
        d = math.gcd(p, q)
        p, q = p // d, q // d
        num *= p
        den *= q
        # each pair gains w_a w_b / s = pa pb q / (qa qb p), one gcd per pair
        for (a, (pa, qa)), (b, (pb, qb)) in combinations(row.items(), 2):
            x, y = pa * pb * q, qa * qb * p
            if b in rows[a]:
                c, e = rows[a][b]
                x, y = x * e + c * y, y * e
            d = math.gcd(x, y)
            rows[a][b] = rows[b][a] = x // d, y // d
    # one integer scale L / d; a table as given keeps its values
    scale = math.lcm(*(q for row in rows for _, q in row.values()))
    d = 1
    if left < len(rows):
        d = math.gcd(*(p * (scale // q) for row in rows for p, q in row.values()))
    num *= d ** (left - 1)
    den *= scale ** (left - 1)
    masks, table = [0] * len(rows), [()] * len(rows)
    for v, row in enumerate(rows):
        if row:
            masks[v] = sum(1 << w for w in row)
            table[v] = tuple(sorted((w, p * (scale // q) // d) for w, (p, q) in row.items()))
    return masks, table, num, den


def _reduced_block_product(g: Multigraph, core: _Core) -> int:
    # tau(g) by the block product on g's star-mesh-reduced table; the
    # division is exact, so a remainder is a fault in the reduction
    nbr, links, num, den = _star_mesh_reduce(g._class_table)
    value, rest = divmod(num * _block_product(nbr, links, core), den)
    if rest:
        raise ArithmeticError("the star-mesh reduction left a remainder")
    return value


def tau_via_grouped_formula(g: Multigraph, u: int) -> int:
    """Spanning-tree count from degrees, correction grouped by vertex set.

    Removes vertices of three or fewer distinct neighbours first, one at a
    time by the star-mesh rule, then multiplies the formula over the blocks
    of the reduced graph, each rooted at its vertex with the fewest distinct
    neighbours in it. u is only validated: tau does not depend on it.
    """
    _require_rooted(g, u, "grouped formula")
    return _reduced_block_product(g, _minor_det)


def enumerate_nst(g: Multigraph, u: int) -> Iterator[SubTree]:
    """Yield every non-spanning subtree of g containing u, exactly once.

    Includes the single-vertex tree ({u}, no edges); spanning trees are
    excluded. Deterministic order: vertex sets in enumeration order, trees
    within a set in lexicographic edge order.
    """
    _require_rooted(g, u, "subtree enumeration")
    for s in enumerate_connected_sets(g, u, g.n - 1):
        sub = induced(g, s)
        for tree in enumerate_spanning_trees(sub.graph):
            yield SubTree(u, s, frozenset(sub.edge_origin[j] for j in tree))


def direct_formula_value(g: Multigraph, u: int) -> int:
    """Raw value of the direct degree expression at root u.

    No connectivity requirement; exposed so the behavior on disconnected
    input can be probed empirically. Equals tau(G) on connected graphs.
    """
    g._check_vertex(u)
    correction = _correction(g._neighbor_masks, u, g._class_table, (1 << g.n) - 1, _tree_sum)
    return thomassen_bound(g, u) - correction


def tau_via_direct_formula(g: Multigraph, u: int) -> int:
    """Spanning-tree count from degrees, one correction term per subtree.

    Removes vertices of three or fewer distinct neighbours first, one at a
    time by the star-mesh rule, then multiplies the formula over the blocks
    of the reduced graph, each rooted at its vertex with the fewest distinct
    neighbours in it. u is only validated: tau does not depend on it.
    """
    _require_rooted(g, u, "direct formula")
    return _reduced_block_product(g, _tree_sum)
