"""Expansion of the vertex-incidence product and what it encodes.

Expanding the product over all vertices of their incident edge-variable
sums yields monomials whose squared variables form a matching and whose
support is an edge cover; reading extremal statistics off the expansion
gives the matching number (largest squared part) and the edge-cover number
(fewest distinct edges), and the all-squared terms are exactly the perfect
matchings. Exhaustive searches are provided as independent oracles for
both numbers.

The forms are multiplied smallest first, ties by vertex, which gives the
same monomials from smaller intermediate expansions. Each monomial has
degree n, so its squared part D and single part S satisfy 2|D| + |S| = n:
Gallai's nu + rho = n (Ann. Univ. Sci. Budapest 2, 1959), term by term.
`expansion_summary` therefore reads rho, the least support, off the packed
monomials of `algebra.multiply_forms` in one pass, sets nu = n - rho, and
decodes perfect matchings only when 2 rho == n. `expand_f` turns the monomials
into a sorted `CoverTerm` list, which the `*_from_f` readers work on; it
serves a full listing of the terms and callers that want the terms
themselves; `summary_and_terms` gives both from one expansion. It
decodes each distinct squared part and each distinct single part once,
into one frozenset shared by every term that has it, and ranks each kind
in the order of its index tuples; the terms are then sorted on one
integer each, the squared part's rank times the number of single parts
plus the single part's rank.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import combinations

from .algebra import DEFAULT_TERM_BUDGET, Monomial, multiply_forms
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


def _incidence_poly(g: Multigraph, budget: int) -> dict[Monomial, int] | None:
    # None when some vertex is isolated: its empty form zeroes the product.
    # The vertex guard is the brute-force oracles' own, since a graph they
    # refuse could not be checked anyway
    if g.n > DEFAULT_MAX_VERTICES:
        raise BudgetExceededError(
            f"expansion guarded at {DEFAULT_MAX_VERTICES} vertices, graph has {g.n}"
        )
    if g.has_isolated_vertex():
        return None
    # the same monomials, with smaller steps: smallest forms first, ties by vertex
    forms = sorted((g.incident_edges(v) for v in range(g.n)), key=len)
    return multiply_forms(forms, budget=budget)


def _squared_bits(m: int) -> int:
    # the high bit of each of the m fields, set exactly where a variable is squared
    return int("10" * m, 2) if m else 0


def _fields(bits: int) -> tuple[int, ...]:
    # ascending variable indices of the set bits; a field holds one set bit at most
    found = []
    while bits:
        low = bits & -bits
        found.append((low.bit_length() - 1) >> 1)
        bits ^= low
    return tuple(found)


def expansion_summary(g: Multigraph, budget: int = DEFAULT_TERM_BUDGET) -> ExpansionSummary:
    """Term count, coefficient sum, matching and edge-cover numbers, and the
    perfect matchings, read in one pass over the expansion.

    Agrees with the `*_from_f` readers applied to `expand_f`, without
    decoding or sorting the terms. Raises EmptyExpansionError when some
    vertex is isolated, and has the same vertex guard as `expand_f`.
    """
    return _summarize(_nonempty_poly(g, budget), g.n)


def summary_and_terms(
    g: Multigraph, budget: int = DEFAULT_TERM_BUDGET
) -> tuple[ExpansionSummary, list[CoverTerm]]:
    """`expansion_summary(g)` and `expand_f(g)` from one expansion, with the
    errors of `expansion_summary`."""
    poly = _nonempty_poly(g, budget)
    return _summarize(poly, g.n), _cover_terms(poly, g.m)


def _nonempty_poly(g: Multigraph, budget: int) -> dict[Monomial, int]:
    poly = _incidence_poly(g, budget)
    if poly is None:
        raise EmptyExpansionError("an isolated vertex makes the expansion empty")
    return poly


def _summarize(poly: dict[Monomial, int], n: int) -> ExpansionSummary:
    # Each monomial has degree n, so 2|D| + |S| = n for its squared part D
    # and single part S, and its support is n - |D|: nu = n - rho (Gallai's
    # nu + rho = n). Perfect matchings need 2 rho == n, and are then exactly
    # the terms of support rho
    rho = min(map(int.bit_count, poly))
    perfect = []
    if 2 * rho == n:
        perfect = sorted(_fields(mono) for mono in poly if mono.bit_count() == rho)
    return ExpansionSummary(len(poly), sum(poly.values()), n - rho, rho, tuple(perfect))


def expand_f(g: Multigraph, budget: int = DEFAULT_TERM_BUDGET) -> list[CoverTerm]:
    """All distinct monomials of the incidence product, deterministically ordered.

    Returns an empty list when some vertex is isolated (the product is
    identically zero then). The expansion is inherently exponential, so
    graphs above DEFAULT_MAX_VERTICES vertices raise BudgetExceededError.
    """
    poly = _incidence_poly(g, budget)
    return [] if poly is None else _cover_terms(poly, g.m)


def _cover_terms(poly: dict[Monomial, int], m: int) -> list[CoverTerm]:
    squared = _squared_bits(m)
    single = squared >> 1
    drank, dsets = _ranked({mono & squared for mono in poly})
    srank, ssets = _ranked({mono & single for mono in poly})
    # each (doubled, single) pair occurs once, so these keys are distinct and
    # their order is that of the (doubled, single) index tuples
    width = len(ssets)
    keyed = {
        drank[mono & squared] * width + srank[mono & single]: coef
        for mono, coef in poly.items()
    }
    return [
        CoverTerm(dsets[key // width], ssets[key % width], keyed[key])
        for key in sorted(keyed)
    ]


def _ranked(masks: set[int]) -> tuple[dict[int, int], list[frozenset[int]]]:
    # each distinct mask decoded once: its rank in index-tuple order, and by
    # rank the one frozenset every term with that mask shares
    decoded = sorted((_fields(mask), mask) for mask in masks)
    rank = {mask: r for r, (_, mask) in enumerate(decoded)}
    return rank, [frozenset(fields) for fields, _ in decoded]


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
    # parallel edges are interchangeable for matchings and covers
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
    if g.n == 0:
        return 0
    pairs = _distinct_pairs(g)
    for k in range((g.n + 1) // 2, len(pairs) + 1):
        for chosen in combinations(pairs, k):
            covered = set()
            for a, b in chosen:
                covered.add(a)
                covered.add(b)
            if len(covered) == g.n:
                return k
    # unreachable: with no isolated vertex, taking every pair is a cover
    return len(pairs)
