"""Exhaustive census: every route on every small multigraph, once each.

The hypothesis properties draw graphs at random, so a fault that needs a
rare shape can hide from them. This file lists every multigraph up to
isomorphism with at most 4 vertices and at most 3 parallel edges per pair,
and every simple graph on 5 vertices, and runs each route on all of them.
A graph is written as its multiplicity vector, one entry per vertex pair
in lexicographic order, and listed when that vector is its own least image
over all vertex permutations. The listing's size is checked against
Burnside's count, so it is complete without committed data.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations, permutations, product

import pytest

from oracles import perfect_matchings_brute, pieces_by_choices, star_mesh_reduce_by_scaling
from treecount import (
    best_thomassen_bound,
    brute_force_edge_cover,
    brute_force_matching,
    build,
    c_pieces,
    check_identity,
    count_spanning_trees,
    direct_formula_value,
    edge_cover_number_from_f,
    enumerate_spanning_trees,
    expand_f,
    expansion_summary,
    matching_number_from_f,
    perfect_matchings_from_f,
    tau_deletion_contraction,
    tau_matrix_tree,
    tau_via_direct_formula,
    tau_via_grouped_formula,
    thomassen_bound,
)
from treecount.counting import _minor_det, _tree_sum
from treecount.degree_formula import _block_product, _star_mesh_reduce

# (vertex count, largest multiplicity) of each census, with its size
CENSUSES = {(1, 3): 1, (2, 3): 4, (3, 3): 20, (4, 3): 276, (5, 1): 34}


def _pair_images(n: int) -> list[list[int]]:
    # per vertex permutation, the index of each pair's image
    pairs = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    return [
        [index[min(p[a], p[b]), max(p[a], p[b])] for a, b in pairs]
        for p in permutations(range(n))
    ]


def _burnside(n: int, top: int) -> int:
    # orbits of the multiplicity vectors: the mean over the permutations of
    # (top + 1) to the number of cycles they split the pairs into
    total = 0
    for image in _pair_images(n):
        seen = [False] * len(image)
        cycles = 0
        for start in range(len(image)):
            if not seen[start]:
                cycles += 1
                i = start
                while not seen[i]:
                    seen[i] = True
                    i = image[i]
        total += (top + 1) ** cycles
    return total // math.factorial(n)


@cache
def _census(n: int, top: int) -> tuple:
    # every multigraph on n vertices with multiplicities at most `top`, up
    # to isomorphism: the vectors that are their own least image
    pairs = list(combinations(range(n), 2))
    sources = []
    for image in _pair_images(n):
        source = [0] * len(image)
        for i, t in enumerate(image):
            source[t] = i
        sources.append(source)
    graphs = []
    for vec in product(range(top + 1), repeat=len(pairs)):
        if all(vec <= tuple(map(vec.__getitem__, source)) for source in sources):
            graphs.append(build(n, [pair for pair, c in zip(pairs, vec) for _ in range(c)]))
    return tuple(graphs)


def _every_graph():
    return [g for n, top in CENSUSES for g in _census(n, top)]


def _weight_points(m: int) -> list[list[int]]:
    # two fixed points, one with zero and negative weights
    return [[(5 * j + 2) % 7 - 3 for j in range(m)], [j + 1 for j in range(m)]]


@pytest.mark.parametrize("n,top", list(CENSUSES))
def test_census_size_is_burnsides_count(n, top):
    assert len(_census(n, top)) == _burnside(n, top) == CENSUSES[n, top]


def test_every_tau_route_agrees_on_every_graph():
    for g in _every_graph():
        tau = tau_matrix_tree(g)
        assert tau_deletion_contraction(g) == tau, g
        assert tau_deletion_contraction(g, "first-edge") == tau, g
        assert count_spanning_trees(g) == tau, g
        assert sum(1 for _ in enumerate_spanning_trees(g)) == tau, g
        assert (tau > 0) == g.is_connected(), g


def test_degree_routes_and_the_identity_at_every_root():
    for g in _every_graph():
        if not g.is_connected():
            assert all(direct_formula_value(g, u) == 0 for u in range(g.n)), g
            continue
        tau = tau_matrix_tree(g)
        nbr, links = g._neighbor_masks, g._class_table
        assert _block_product(nbr, links, _minor_det) == _block_product(nbr, links, _tree_sum) == tau, g
        for u in range(g.n):
            assert tau_via_grouped_formula(g, u) == tau_via_direct_formula(g, u) == tau, (g, u)
            assert direct_formula_value(g, u) == tau, (g, u)
            for w in _weight_points(g.m):
                assert check_identity(g, u, w).holds, (g, u, w)


def test_star_mesh_reduction_matches_the_integer_scaling_reference():
    # the same masks and table as the reference, num / den the same ratio,
    # and a table of gcd 1 once a vertex went
    for g in _every_graph():
        if not g.is_connected():
            continue
        masks, table, num, den = _star_mesh_reduce(g._class_table)
        ref_masks, ref_table, ref_num, ref_den = star_mesh_reduce_by_scaling(g._class_table)
        assert (masks, table) == (ref_masks, ref_table), g
        assert num * ref_den == ref_num * den, g
        if any(table) and masks != list(g._neighbor_masks):
            assert math.gcd(*(c for row in table for _, c in row)) == 1, g


def test_best_thomassen_bound_is_the_least_bound_at_its_least_root():
    for g in _every_graph():
        u = min(range(g.n), key=lambda v: thomassen_bound(g, v))
        assert best_thomassen_bound(g) == (u, thomassen_bound(g, u)), g


def test_grouped_pieces_count_the_edge_picks_on_every_connected_graph():
    for g in _every_graph():
        if not g.is_connected():
            continue
        for u in range(g.n):
            picks = pieces_by_choices(g, u)
            assert picks.pop(frozenset(range(g.n))) == tau_matrix_tree(g), (g, u)
            pieces = {p.vertices: p.tau_inside * p.outside_degree_product for p in c_pieces(g, u)}
            assert picks == pieces, (g, u)


def test_expansion_summary_agrees_with_the_terms_and_the_oracles():
    for g in _every_graph():
        if g.has_isolated_vertex():
            assert expand_f(g) == [], g
            continue
        summary = expansion_summary(g)
        terms = expand_f(g)
        assert summary.terms == len(terms), g
        assert summary.coefficient_sum == sum(t.coefficient for t in terms) == math.prod(g.degrees()), g
        assert summary.matching_number == matching_number_from_f(terms) == brute_force_matching(g), g
        cover = edge_cover_number_from_f(terms)
        assert summary.edge_cover_number == cover == brute_force_edge_cover(g), g
        perfect = sorted(tuple(sorted(pm)) for pm in perfect_matchings_from_f(terms))
        assert list(summary.perfect_matchings) == perfect, g
        assert set(map(frozenset, perfect)) == perfect_matchings_brute(g), g
