from __future__ import annotations

import math
from collections import Counter
from itertools import product

import pytest

from conftest import seeded_suite
from oracles import (
    expand_f_by_decoding,
    max_matching_brute,
    min_edge_cover_brute,
    multiply_forms_by_tuples,
    perfect_matchings_brute,
)
from treecount import fpoly
from treecount import (
    CoverTerm,
    ExpansionSummary,
    Multigraph,
    brute_force_edge_cover,
    brute_force_matching,
    build,
    edge_cover_number_from_f,
    expand_f,
    expansion_summary,
    matching_number_from_f,
    multiply_forms,
    perfect_matchings_from_f,
)
from treecount.errors import (
    BudgetExceededError,
    EmptyExpansionError,
    IsolatedVertexError,
)


def cycle(n):
    return build(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    return build(leaves + 1, [(0, i + 1) for i in range(leaves)])


def test_expand_figure_one_perfect_matching_terms(figure_one):
    terms = expand_f(figure_one)
    doubles = {t.doubled for t in terms if not t.single}
    assert doubles == {frozenset({0, 4}), frozenset({1, 5})}


def test_expand_single_edge():
    terms = expand_f(build(2, [(0, 1)]))
    assert terms == [CoverTerm(frozenset({0}), frozenset(), 1)]


def test_expand_path3_by_hand(path3):
    # (y0)(y0+y1)(y1) = y0^2 y1 + y0 y1^2
    terms = expand_f(path3)
    assert len(terms) == 2
    assert {(t.doubled, t.single, t.coefficient) for t in terms} == {
        (frozenset({0}), frozenset({1}), 1),
        (frozenset({1}), frozenset({0}), 1),
    }
    assert all(t.single for t in terms), "odd order admits no all-squared term"


def test_expand_returns_empty_for_isolated_vertex():
    assert expand_f(build(3, [(0, 1)])) == []


def test_expand_vertex_guard():
    with pytest.raises(BudgetExceededError, match="expansion guarded at 14 vertices, graph has 15"):
        expand_f(Multigraph(15))


def test_expand_term_structure_on_suite():
    for g in seeded_suite(25, seed=31415, max_n=8, max_m=14):
        terms = expand_f(g)
        assert terms, "connected graphs past one vertex have no isolated vertex"
        for t in terms:
            assert t.coefficient > 0
            assert not (t.doubled & t.single)
            assert len(t.single) + 2 * len(t.doubled) == g.n
            # squared edges form a matching
            used = set()
            for j in t.doubled:
                a, b = g.edges[j]
                assert a not in used and b not in used
                used.update((a, b))
            # support covers every vertex
            covered = set()
            for j in t.doubled | t.single:
                covered.update(g.edges[j])
            assert covered == set(range(g.n))
        assert sum(t.coefficient for t in terms) == math.prod(g.degrees())


def test_expand_is_deterministic(figure_one):
    assert expand_f(figure_one) == expand_f(figure_one)


def test_expand_past_64_bits_matches_the_tuple_reference():
    # 40 parallel edges: (x0 + ... + x39)^2 has 40 squares and 780 products,
    # and the packed monomials run to 80 bits
    g = build(2, [(0, 1)] * 40)
    reference = sorted(
        (
            tuple(i for i, e in mono if e == 2),
            tuple(i for i, e in mono if e == 1),
            coef,
        )
        for mono, coef in multiply_forms_by_tuples([g.incident_edges(0), g.incident_edges(1)]).items()
    )
    terms = expand_f(g)
    assert len(terms) == 820
    assert [
        (tuple(sorted(t.doubled)), tuple(sorted(t.single)), t.coefficient) for t in terms
    ] == reference


def test_expand_orders_terms_sharing_a_doubled_part_by_their_single_part():
    # vertex 0 is a leaf, so every term where vertex 1 takes edge 0 squares it;
    # vertices 2 and 3 then pick two distinct edges: edges 1 and 2, one of
    # them with a parallel edge, or two parallel edges: 1 + 4 + 4 + 6 = 15 terms
    g = build(4, [(0, 1), (1, 2), (1, 3)] + [(2, 3)] * 4)
    terms = expand_f(g)
    assert terms == expand_f_by_decoding(g)
    shared = [k for k, t in enumerate(terms) if t.doubled == {0}]
    assert len(shared) == 15
    assert shared == list(range(shared[0], shared[0] + 15)), "one run of terms"
    run = [terms[k] for k in shared]
    assert [sorted(t.single) for t in run] == sorted(sorted(t.single) for t in run)
    assert all(t.doubled is run[0].doubled for t in run), "one frozenset per mask"


def test_expand_decodes_each_distinct_mask_once(figure_one, monkeypatch):
    decoded = []

    def spy(bits, top):
        decoded.append(bits)
        return edge_set(bits, top)

    edge_set = fpoly._edge_set
    monkeypatch.setattr(fpoly, "_edge_set", spy)
    # expand_f numbers edge j as variable m - 1 - j, so its part masks are
    # those of the product over the rows numbered that way
    top = figure_one.m - 1
    poly = multiply_forms([{top - j for j in figure_one.incident_edges(v)} for v in range(figure_one.n)])
    squared = int("10" * figure_one.m, 2)
    terms = expand_f(figure_one)
    assert len(terms) == len(poly) == 51
    # 0 is both a doubled mask (no squares) and a single mask (a perfect
    # matching), and is decoded once as each
    doubled = {mono & squared for mono in poly}
    single = {mono & (squared >> 1) for mono in poly}
    assert 0 in doubled and 0 in single
    assert Counter(decoded) == Counter(doubled) + Counter(single)


def _reversed_mask(indices, m, offset):
    # the part mask of an index set when edge j is variable m - 1 - j
    return sum(1 << 2 * (m - 1 - j) + offset for j in indices)


@pytest.mark.parametrize("offset", [0, 1], ids=["single", "doubled"])
def test_ranked_orders_masks_as_their_index_tuples(offset):
    # ascending index tuples, a prefix before its extensions: the empty set
    # first, {0} < {0, 3} < {1}, and sets whose masks run past bit 64
    m = 40
    ordered = [(), (0,), (0, 3), (0, 3, 39), (0, 4), (1,), (1, 2, 3), (1, 38),
               (2,), (33, 39), (34,), (38,), (38, 39), (39,)]
    assert ordered == sorted(ordered)
    masks = [_reversed_mask(s, m, offset) for s in ordered]
    assert max(masks).bit_length() > 64
    rank, sets = fpoly._ranked(set(masks), m)
    assert sets == [frozenset(s) for s in ordered]
    assert rank == {mask: r for r, mask in enumerate(masks)}


def test_expansion_summary_figure_one(figure_one):
    assert expansion_summary(figure_one) == ExpansionSummary(
        terms=51,
        coefficient_sum=64,
        matching_number=2,
        edge_cover_number=2,
        perfect_matchings=((0, 4), (1, 5)),
    )


def test_expansion_summary_small_cases(path3, triangle):
    assert expansion_summary(build(2, [(0, 1)])) == ExpansionSummary(1, 1, 1, 1, ((0,),))
    assert expansion_summary(path3) == ExpansionSummary(2, 2, 1, 2, ())
    assert expansion_summary(triangle).perfect_matchings == ()
    assert expansion_summary(cycle(4)).perfect_matchings == ((0, 2), (1, 3))
    # the empty product: one constant term, the empty matching is perfect
    assert expansion_summary(Multigraph(0)) == ExpansionSummary(1, 1, 0, 0, ((),))


def test_expansion_summary_counts_a_class_of_40_parallel_edges_as_one_monomial():
    # one class variable y with coefficient 40 at both ends: the expansion
    # is 1600 y^2 at every step, one monomial, and y^2 stands for 40
    # squares and C(40, 2) = 780 pairs of edge variables. The 40 listed
    # perfect matchings fit a 40-monomial budget; the 820 edge terms do not
    summary = expansion_summary(build(2, [(0, 1)] * 40), budget=40)
    assert summary == ExpansionSummary(820, 1600, 1, 1, tuple((j,) for j in range(40)))
    with pytest.raises(BudgetExceededError):
        expand_f(build(2, [(0, 1)] * 40), budget=40)


def test_expansion_summary_holds_the_perfect_matching_listing_to_the_budget():
    # one all-squared class monomial stands for 4 * 4 perfect matchings
    g = build(4, [(0, 1)] * 4 + [(2, 3)] * 4)
    with pytest.raises(BudgetExceededError, match="perfect matchings exceeded the 15-monomial"):
        expansion_summary(g, budget=15)
    summary = expansion_summary(g, budget=16)
    assert summary.perfect_matchings == tuple(product(range(4), range(4, 8)))


def test_expansion_summary_of_a_4_cycle_with_multi_edge_classes():
    # classes {0, 1}, {2}, {3, 4, 5}, {6}: each perfect matching of the
    # 4-cycle picks one edge of each of its two classes
    g = build(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (2, 3), (3, 0)])
    assert expansion_summary(g) == ExpansionSummary(
        98, 144, 2, 2, ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 6))
    )
    assert len(expand_f(g)) == 98


def test_expansion_summary_guards(figure_one):
    with pytest.raises(EmptyExpansionError):
        expansion_summary(build(3, [(0, 1)]))
    with pytest.raises(BudgetExceededError, match="expansion guarded at 14 vertices, graph has 15"):
        expansion_summary(Multigraph(15))
    with pytest.raises(BudgetExceededError):
        expansion_summary(figure_one, budget=3)


def test_expansion_summary_matches_the_term_readers_on_suite():
    for g in seeded_suite(25, seed=4242, max_n=8, max_m=14):
        terms = expand_f(g)
        summary = expansion_summary(g)
        assert summary.terms == len(terms)
        assert summary.coefficient_sum == math.prod(g.degrees())
        assert summary.matching_number == matching_number_from_f(terms)
        assert summary.edge_cover_number == edge_cover_number_from_f(terms)
        assert summary.perfect_matchings == tuple(
            tuple(sorted(pm)) for pm in perfect_matchings_from_f(terms)
        )


def test_matching_number_from_f(figure_one, path3):
    assert matching_number_from_f(expand_f(figure_one)) == 2
    assert matching_number_from_f(expand_f(path3)) == 1
    assert matching_number_from_f(expand_f(build(2, [(0, 1)]))) == 1
    with pytest.raises(EmptyExpansionError):
        matching_number_from_f([])


def test_edge_cover_number_from_f(figure_one, path3):
    assert edge_cover_number_from_f(expand_f(figure_one)) == 2
    assert edge_cover_number_from_f(expand_f(path3)) == 2
    assert edge_cover_number_from_f(expand_f(build(2, [(0, 1)]))) == 1
    with pytest.raises(EmptyExpansionError):
        edge_cover_number_from_f([])


def test_perfect_matchings_from_f(figure_one, triangle):
    assert perfect_matchings_from_f(expand_f(figure_one)) == [
        frozenset({0, 4}),
        frozenset({1, 5}),
    ]
    assert perfect_matchings_from_f(expand_f(triangle)) == []
    assert len(perfect_matchings_from_f(expand_f(cycle(4)))) == 2
    with pytest.raises(EmptyExpansionError):
        perfect_matchings_from_f([])


def test_perfect_matchings_match_brute_force():
    for g in seeded_suite(20, seed=2024, max_n=8, max_m=12):
        got = set(perfect_matchings_from_f(expand_f(g)))
        assert got == perfect_matchings_brute(g)


def test_brute_force_matching_values(figure_one):
    assert brute_force_matching(figure_one) == 2
    assert brute_force_matching(star(4)) == 1
    assert brute_force_matching(cycle(6)) == 3
    assert brute_force_matching(build(3, [])) == 0


def test_brute_force_matching_guard():
    with pytest.raises(BudgetExceededError):
        brute_force_matching(Multigraph(15))


def test_brute_force_edge_cover_values(path3):
    assert brute_force_edge_cover(build(2, [(0, 1)])) == 1
    assert brute_force_edge_cover(path3) == 2
    assert brute_force_edge_cover(star(4)) == 4
    assert brute_force_edge_cover(Multigraph(0)) == 0


def test_brute_force_edge_cover_guard():
    with pytest.raises(BudgetExceededError, match="^brute-force cover guarded at 14 vertices$"):
        brute_force_edge_cover(cycle(15))


def test_brute_force_edge_cover_rejects_isolated_vertex():
    with pytest.raises(IsolatedVertexError):
        brute_force_edge_cover(build(3, [(0, 1)]))


def test_brute_force_oracles_match_subset_search():
    for g in seeded_suite(20, seed=97531, max_n=6, max_m=9, connected=False):
        assert brute_force_matching(g) == max_matching_brute(g)
        if not g.has_isolated_vertex():
            assert brute_force_edge_cover(g) == min_edge_cover_brute(g)


def test_expansion_statistics_match_oracles():
    for g in seeded_suite(30, seed=8080, max_n=8, max_m=14):
        terms = expand_f(g)
        assert matching_number_from_f(terms) == brute_force_matching(g)
        assert edge_cover_number_from_f(terms) == brute_force_edge_cover(g)
