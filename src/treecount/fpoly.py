"""Expansion of the vertex-incidence product and what it encodes.

Expanding the product over all vertices of their incident edge-variable
sums yields monomials whose squared variables form a matching and whose
support is an edge cover; reading extremal statistics off the expansion
gives the matching number (largest squared part) and the edge-cover number
(fewest distinct edges), and the all-squared terms are exactly the perfect
matchings. Exhaustive searches are provided as independent oracles for
both numbers; they read the distinct endpoint pairs off the raw edges, not
the graph's grouping of them, so a fault in that grouping shows up as a
disagreement with them.

The forms are multiplied smallest first, ties by vertex, which gives the
same monomials from smaller intermediate expansions. Each monomial has
degree n, so its squared part D and single part S satisfy 2|D| + |S| = n:
Gallai's nu + rho = n (Ann. Univ. Sci. Budapest 2, 1959), term by term.

`expansion_summary` expands the product with one variable per parallel
class of `Multigraph._classes`, whose multiplicity c is its coefficient at
both endpoints, so its budget counts class monomials. A class at exponent
1 stands for c edge monomials, and at exponent 2 for c(c+1)/2: c squares
and C(c, 2) pairs. The summary counts the edge terms from those numbers,
sums the class coefficients, reads rho, the least support, off the packed
monomials of `algebra.multiply_forms` in one pass, sets nu = n - rho, and
lists perfect matchings only when 2 rho == n, one per choice of an edge in
each class of an all-squared class term of support rho. Each listed
matching is an edge monomial, so the listing is held to the budget too: it
is sized first, by the product of the class sizes of each such term, and
never built past the budget.

`expand_f` keeps one variable per edge, each vertex's row read off
`g._incidence`, and its budget counts edge monomials. It turns the
monomials into a sorted `CoverTerm` list, which the `*_from_f` readers
work on; it serves a full listing of the terms, which expands the product
once more after the summary, and callers that want the terms themselves.
It numbers the edges from the top, edge j as variable m - 1 - j, so that
a part mask's integer value carries the order of its index tuple:
ascending index tuples, a prefix first, are the masks by descending
r + (r & -r), with the empty mask first. Each kind of part, squared and
single, is ranked by one integer sort of its distinct masks, and each
distinct mask is decoded once, into one frozenset shared by every term
that has it; the terms are then sorted on one integer each, the squared
part's rank times the number of single parts plus the single part's rank,
and built in one pass.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import partial
from itertools import combinations, product
from math import prod

from .algebra import DEFAULT_TERM_BUDGET, Monomial, multiply_forms
from .counting import _members
from .errors import BudgetExceededError, EmptyExpansionError, IsolatedVertexError
from .graph import Multigraph

DEFAULT_MAX_VERTICES = 14


class CoverTerm(namedtuple("CoverTerm", "doubled single coefficient")):
    """One expansion monomial: frozensets of its squared and single edges,
    and its multiplicity."""

    __slots__ = ()


class ExpansionSummary(
    namedtuple(
        "ExpansionSummary",
        "terms coefficient_sum matching_number edge_cover_number perfect_matchings",
    )
):
    """The expansion's size and the statistics read off it.

    `terms`, `coefficient_sum`, `matching_number` and `edge_cover_number`
    are ints. `perfect_matchings` is a tuple holding, for each perfect
    matching, its sorted edge indices as a tuple, in ascending order of
    those index tuples.
    """

    __slots__ = ()


def _incidence_poly(
    g: Multigraph, budget: int, rows: Sequence[Sequence[int]], coefficients: Sequence[int] | None = None
) -> dict[Monomial, int] | None:
    # The product over the vertices of the sums of the variables in their
    # rows: one per edge (`g._incidence`), or one per parallel class with its
    # size in `coefficients`. None when some vertex is isolated: its empty
    # form zeroes the product. The vertex guard is the brute-force oracles'
    # own, since a graph they refuse could not be checked anyway
    if g.n > DEFAULT_MAX_VERTICES:
        raise BudgetExceededError(
            f"expansion guarded at {DEFAULT_MAX_VERTICES} vertices, graph has {g.n}"
        )
    if g.has_isolated_vertex():
        return None
    # the same monomials, with smaller steps: smallest forms first, ties by vertex
    return multiply_forms(sorted(rows, key=len), budget=budget, coefficients=coefficients)


def _squared_bits(m: int) -> int:
    # the high bit of each of the m fields, set exactly where a variable is squared
    return int("10" * m, 2) if m else 0


def expansion_summary(g: Multigraph, budget: int = DEFAULT_TERM_BUDGET) -> ExpansionSummary:
    """Term count, coefficient sum, matching and edge-cover numbers, and the
    perfect matchings, read in one pass over the class expansion.

    Agrees with the `*_from_f` readers applied to `expand_f`, without
    decoding or sorting the terms. The product is expanded with one
    variable per parallel class, so `budget` counts class monomials, where
    `expand_f`'s counts edge monomials; it also bounds the number of
    perfect matchings listed. Raises EmptyExpansionError when some
    vertex is isolated, and has the same vertex guard as `expand_f`.
    """
    classes = [edges for _, edges in g._classes]
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for k, ((a, b), _) in enumerate(g._classes):
        rows[a].append(k)
        rows[b].append(k)
    poly = _incidence_poly(g, budget, rows, list(map(len, classes)))
    if poly is None:
        raise EmptyExpansionError("an isolated vertex makes the expansion empty")
    # A class of c edges at exponent 1 stands for its c edges, and at
    # exponent 2 for c squares and C(c, 2) pairs: that many edge monomials
    # per field, so the terms are counted per distinct multi-edge part
    stands_for: dict[int, int] = {}
    for k, edges in enumerate(classes):
        c = len(edges)
        if c > 1:
            stands_for[1 << 2 * k] = c
            stands_for[2 << 2 * k] = c * (c + 1) // 2
    multi = sum(stands_for)
    terms = 0
    for part, count in Counter(map(multi.__and__, poly)).items():
        while part:
            low = part & -part
            count *= stands_for[low]
            part ^= low
        terms += count
    # Each monomial has degree n, so 2|D| + |S| = n for its squared part D
    # and single part S, and its support is n - |D|: nu = n - rho (Gallai's
    # nu + rho = n). A squared class stands for a square of each of its
    # edges, so the least support is the same over classes as over edges.
    # Perfect matchings need 2 rho == n, and are then exactly the class
    # terms of support rho, each a choice of one edge per class
    rho = min(map(int.bit_count, poly))
    perfect = []
    if 2 * rho == g.n:
        # every set bit is a squared class's high bit, 2k + 1 for class k;
        # each listed matching is one edge monomial, so the listing is held
        # to the budget before it is built
        chosen = [[classes[b >> 1] for b in _members(mono)] for mono in poly if mono.bit_count() == rho]
        if sum(prod(map(len, picks)) for picks in chosen) > budget:
            raise BudgetExceededError(f"perfect matchings exceeded the {budget}-monomial budget")
        perfect = sorted(
            tuple(sorted(choice)) for picks in chosen for choice in product(*picks)
        )
    return ExpansionSummary(terms, sum(poly.values()), g.n - rho, rho, tuple(perfect))


def expand_f(g: Multigraph, budget: int = DEFAULT_TERM_BUDGET) -> list[CoverTerm]:
    """All distinct monomials of the incidence product, deterministically ordered.

    Returns an empty list when some vertex is isolated (the product is
    identically zero then). The expansion is inherently exponential, so
    graphs above DEFAULT_MAX_VERTICES vertices raise BudgetExceededError.
    """
    # edge j is variable m - 1 - j, so that a part mask's integer value
    # carries the order of its index tuple (see `_ranked`)
    top = g.m - 1
    poly = _incidence_poly(g, budget, [[top - j for j in row] for row in g._incidence])
    return [] if poly is None else _cover_terms(poly, g.m)


_cover_term = partial(tuple.__new__, CoverTerm)


def _cover_terms(poly: dict[Monomial, int], m: int) -> list[CoverTerm]:
    squared = _squared_bits(m)
    single = squared >> 1
    drank, dsets = _ranked({mono & squared for mono in poly}, m)
    srank, ssets = _ranked({mono & single for mono in poly}, m)
    # each (doubled, single) pair occurs once, so these keys are distinct and
    # their order is that of the (doubled, single) index tuples
    width = len(ssets)
    keyed = {
        drank[mono & squared] * width + srank[mono & single]: coef
        for mono, coef in poly.items()
    }
    keys = sorted(keyed)
    # CoverTerm(dsets[key // width], ssets[key % width], keyed[key]) for each
    # key, built without a Python frame per term
    return list(map(_cover_term, zip(
        map(dsets.__getitem__, map(width.__rfloordiv__, keys)),
        map(ssets.__getitem__, map(width.__rmod__, keys)),
        map(keyed.__getitem__, keys),
    )))


def _ranked(masks: set[int], m: int) -> tuple[dict[int, int], list[frozenset[int]]]:
    # Each distinct mask ranked in the order of its index tuple and decoded
    # once, into the one frozenset every term with that mask shares. Edge j
    # is variable m - 1 - j, so lower indices weigh more: of two sets whose
    # least differing index is i, the one holding i has the larger mask,
    # since all the fields past i weigh less than a third of i's. A prefix
    # must come first all the same, and adding its lowest set field puts it
    # there: that field weighs more than all the longer set adds, plus that
    # set's own lowest field.
    # So the masks go by descending r + (r & -r), and the empty mask, a
    # prefix of all with key 0, goes first by hand
    keyed = {r + (r & -r): r for r in masks}
    order = [keyed[key] for key in sorted(keyed, reverse=True)]
    if not order[-1]:
        order.insert(0, order.pop())
    top = m - 1
    return dict(zip(order, range(len(order)))), [_edge_set(r, top) for r in order]


def _edge_set(bits: int, top: int) -> frozenset[int]:
    # the edges of a part mask in which edge j is variable top - j; a field
    # holds one set bit at most
    found = []
    while bits:
        low = bits & -bits
        found.append(top - ((low.bit_length() - 1) >> 1))
        bits ^= low
    return frozenset(found)


def matching_number_from_f(terms: Sequence[CoverTerm]) -> int:
    """Largest squared-part size over the expansion."""
    if not terms:
        raise EmptyExpansionError("no expansion terms to read a matching from")
    return max(len(t.doubled) for t in terms)


def edge_cover_number_from_f(terms: Sequence[CoverTerm]) -> int:
    """Smallest distinct-edge count over the expansion."""
    if not terms:
        raise EmptyExpansionError("no expansion terms to read a cover from")
    return min(len(t.doubled) + len(t.single) for t in terms)


def perfect_matchings_from_f(terms: Sequence[CoverTerm]) -> list[frozenset[int]]:
    """The squared parts of all-squared terms, i.e. the perfect matchings."""
    if not terms:
        raise EmptyExpansionError("no expansion terms to read matchings from")
    return [t.doubled for t in terms if not t.single]


def _distinct_pairs(g: Multigraph) -> list[tuple[int, int]]:
    # parallel edges are interchangeable for matchings and covers; the pairs
    # come off the raw edges, not `g._classes`, so the oracles check that grouping
    return sorted(set(g.edges))


def brute_force_matching(g: Multigraph) -> int:
    """Maximum matching size by exhaustive search with pruning."""
    if g.n > DEFAULT_MAX_VERTICES:
        raise BudgetExceededError(
            f"brute-force matching guarded at {DEFAULT_MAX_VERTICES} vertices"
        )
    pairs = _distinct_pairs(g)
    best = 0

    def search(start: int, used: frozenset[int], size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        # even a perfect pairing of untouched vertices cannot beat `best`
        if size + (g.n - len(used)) // 2 <= best:
            return
        for k in range(start, len(pairs)):
            a, b = pairs[k]
            if a in used or b in used:
                continue
            search(k + 1, used | {a, b}, size + 1)

    try:
        search(0, frozenset(), 0)
    finally:
        del search  # free the closure cycle through which search recurses
    return best


def brute_force_edge_cover(g: Multigraph) -> int:
    """Minimum edge-cover size by exhaustive search over subset sizes."""
    if g.has_isolated_vertex():
        raise IsolatedVertexError("no edge cover exists with an isolated vertex")
    if g.n > DEFAULT_MAX_VERTICES:
        raise BudgetExceededError(
            f"brute-force cover guarded at {DEFAULT_MAX_VERTICES} vertices"
        )
    pairs = _distinct_pairs(g)
    # with no isolated vertex all the pairs together cover, so the loop returns
    for k in range((g.n + 1) // 2, len(pairs) + 1):
        for chosen in combinations(pairs, k):
            covered = set()
            for a, b in chosen:
                covered.add(a)
                covered.add(b)
            if len(covered) == g.n:
                return k
