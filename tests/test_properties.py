from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    c_pieces_by_frozensets,
    direct_value_by_frozensets,
    expand_f_by_decoding,
    identity_rhs_by_subtrees,
    multiply_forms_by_tuples,
    pieces_by_choices,
    star_mesh_reduce_by_scaling,
    tau_dc_by_edges,
    tree_sum_by_induced,
    tree_sum_by_stripping,
)
from treecount import (
    Multigraph,
    build,
    c_pieces,
    check_identity,
    contract_edge,
    count_spanning_trees,
    delete_vertices,
    direct_formula_value,
    edge_cover_number_from_f,
    enumerate_spanning_trees,
    expand_f,
    expansion_summary,
    f_value,
    identity_lhs,
    identity_rhs,
    induced,
    matching_number_from_f,
    multiply_forms,
    parse,
    perfect_matchings_from_f,
    serialize,
    tau_deletion_contraction,
    tau_matrix_tree,
    tau_via_direct_formula,
    tau_via_grouped_formula,
    tau_weighted_matrix_tree,
    thomassen_bound,
)
import treecount.degree_formula as degree_formula
from treecount.counting import _minor_det, _pick_first_edge, _pick_min_degree, _tau_dc, _tree_sum
from treecount.degree_formula import (
    _block_product,
    _correction,
    _correction_sets,
    _correction_walk,
    _members,
    _star_mesh_reduce,
    _tree_counter,
)
from treecount.errors import (
    BudgetExceededError,
    DisconnectedError,
    EmptyExpansionError,
    ExponentOverflowError,
)
from treecount.graph import _blocks


@st.composite
def multigraphs(draw, min_n=1, max_n=6, max_m=10):
    n = draw(st.integers(min_n, max_n))
    if n < 2:
        return Multigraph(n)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda t: t[0] != t[1]
    )
    pairs = draw(st.lists(pair, max_size=max_m))
    return build(n, pairs)


@st.composite
def parallel_multigraphs(draw, max_n=6, max_m=10, connected=False):
    """Multigraphs in which some edges are repeated, at shuffled indices.
    With `connected`, the distinct pairs start from a random spanning tree."""
    n = draw(st.integers(2, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda t: t[0] != t[1]
    )
    if connected:
        order = draw(st.permutations(range(n)))
        tree = [(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, n)]
        base = tree + draw(st.lists(pair, max_size=(max_m - len(tree)) // 2))
    else:
        base = draw(st.lists(pair, min_size=1, max_size=max_m // 2))
    copies = draw(st.lists(st.sampled_from(base), min_size=1, max_size=max_m - len(base)))
    return build(n, draw(st.permutations(base + copies)))


def connected_multigraphs(**kwargs):
    return multigraphs(**kwargs).filter(lambda g: g.is_connected())


@given(multigraphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degrees()) == 2 * g.m


@given(multigraphs())
def test_round_trip_preserves_indexing(g):
    assert parse(serialize(g)) == g


@given(multigraphs())
def test_deleting_nothing_changes_nothing(g):
    assert delete_vertices(g, set()).graph == g


@given(multigraphs(min_n=2), st.data())
def test_induced_equals_deleting_the_complement(g, data):
    keep = data.draw(
        st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n), label="keep"
    )
    drop = set(range(g.n)) - keep
    assert induced(g, keep).graph == delete_vertices(g, drop).graph


@given(multigraphs(min_n=2).filter(lambda g: g.m > 0), st.data())
def test_contraction_never_leaves_a_loop(g, data):
    j = data.draw(st.integers(0, g.m - 1), label="edge")
    contracted = contract_edge(g, j)  # the constructor rejects loops
    assert contracted.n == g.n - 1
    assert all(a != b for a, b in contracted.edges)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        parallel_multigraphs(max_n=7, max_m=12),
        parallel_multigraphs(max_n=7, max_m=12, connected=True),
    )
)
def test_class_level_deletion_contraction_matches_the_edge_route(g):
    # the memoized recursion over classes against the rebuilt-graph one it
    # replaced, under both heuristics, on connected and disconnected graphs
    reference = tau_matrix_tree(g)
    for heuristic in ("min-degree", "first-edge"):
        assert tau_deletion_contraction(g, heuristic) == reference
        assert tau_dc_by_edges(g, heuristic) == reference


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        parallel_multigraphs(max_n=8, max_m=12),
        parallel_multigraphs(max_n=8, max_m=12, connected=True),
    ).flatmap(
        lambda g: st.tuples(st.just(g), st.lists(st.integers(-3, 3), min_size=g.m, max_size=g.m))
    )
)
# the doubled 0-1 class's weights 2 and -2 cancel: its ends stay adjacent
# at class value 0
@example((build(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (0, 1)]), [2, 1, 3, 1, -1, -2]))
# vertex 0 is a series vertex whose class values 2 and -2 sum to 0
@example((build(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]), [2, 1, 3, -2, 1]))
# vertex 0 is pendant to 4 by a class whose weights 2 and -2 sum to 0
@example((build(5, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (0, 4), (0, 4)]), [1, 2, 1, 3, 1, 2, -2]))
# vertex 4 is pendant to 3 by a class whose weights 1 and -3 sum to -2
@example((build(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (3, 4), (3, 4)]), [2, 1, 3, 1, 2, 1, -3]))
def test_deletion_contraction_at_class_weight_sums_is_the_weighted_tree_sum(case):
    # delete/contract reads only each class's value, so run at the class
    # weight sums, added up here from the raw edges, it gives the weighted
    # tree sum, zero and negative class values included, under both picks
    g, w = case
    sums = {}
    for pair, x in zip(g.edges, w):
        sums[pair] = sums.get(pair, 0) + x
    expected = tau_weighted_matrix_tree(g, w)
    for pick in (_pick_min_degree, _pick_first_edge):
        assert _tau_dc(g.n, dict(sums), pick, {}) == expected


@settings(max_examples=60)
@given(multigraphs(max_n=5, max_m=8))
def test_counting_methods_agree(g):
    reference = tau_matrix_tree(g)
    assert tau_deletion_contraction(g) == reference
    assert sum(1 for _ in enumerate_spanning_trees(g)) == reference


@settings(max_examples=60)
@given(connected_multigraphs(max_n=5, max_m=8), st.data())
def test_degree_formulas_agree(g, data):
    u = data.draw(st.integers(0, g.n - 1), label="root")
    reference = tau_matrix_tree(g)
    assert tau_via_grouped_formula(g, u) == reference
    assert tau_via_direct_formula(g, u) == reference


@settings(max_examples=60)
@given(multigraphs(max_n=5, max_m=8))
def test_weighted_count_at_ones_and_bound(g):
    tau = tau_matrix_tree(g)
    assert tau_weighted_matrix_tree(g, [1] * g.m) == tau
    for u in range(g.n):
        assert tau <= thomassen_bound(g, u)


@settings(max_examples=40, deadline=None)
@given(connected_multigraphs(max_n=5, max_m=8), st.data())
def test_identity_holds_at_arbitrary_integer_points(g, data):
    u = data.draw(st.integers(0, g.n - 1), label="root")
    w = data.draw(
        st.lists(
            st.integers(-1000, 1000), min_size=g.m, max_size=g.m
        ),
        label="weights",
    )
    assert check_identity(g, u, w).holds


@settings(max_examples=40)
@given(multigraphs(max_n=5, max_m=8))
def test_f_value_at_ones_is_the_degree_product(g):
    assert f_value(g, [1] * g.m) == math.prod(g.degrees())


@settings(max_examples=80, deadline=None)
@given(parallel_multigraphs(max_n=7, max_m=12))
def test_grouped_pieces_match_the_frozenset_route(g):
    for u in range(g.n):
        if not g.is_connected():
            with pytest.raises(DisconnectedError):
                list(c_pieces(g, u))
            with pytest.raises(DisconnectedError):
                list(c_pieces_by_frozensets(g, u))
            continue
        # same pieces in the same order: vertices, tau inside and product
        assert list(c_pieces(g, u)) == list(c_pieces_by_frozensets(g, u))


@settings(max_examples=80, deadline=None)
@given(parallel_multigraphs(max_n=7, max_m=12))
def test_direct_value_matches_the_frozenset_route(g):
    # disconnected graphs included: `verify --allow-disconnected` probes them
    for u in range(g.n):
        assert direct_formula_value(g, u) == direct_value_by_frozensets(g, u)


def _unpack(mono, m):
    # packed monomial -> the sorted (index, exponent) tuple of the reference
    return tuple(
        (i, (mono >> 2 * i) & 3) for i in range(m) if (mono >> 2 * i) & 3
    )


def _incidence_forms(g):
    return [g.incident_edges(v) for v in range(g.n)]


@settings(max_examples=80, deadline=None)
@given(parallel_multigraphs())
def test_packed_expansion_matches_the_tuple_reference(g):
    forms = _incidence_forms(g)
    packed = multiply_forms(forms)
    assert {_unpack(k, g.m): c for k, c in packed.items()} == multiply_forms_by_tuples(forms)


@st.composite
def permuted_incidence_forms(draw):
    """A graph's incidence forms in vertex order, and a drawn order of them."""
    forms = _incidence_forms(draw(parallel_multigraphs()))
    return forms, draw(st.permutations(range(len(forms))))


def _expansion_or_overflow(route, forms):
    try:
        return route(forms)
    except ExponentOverflowError:
        return "overflow"


def _raises_at(forms, budget):
    try:
        multiply_forms(forms, budget=budget)
    except BudgetExceededError:
        return True
    return False


@settings(max_examples=80, deadline=None)
@given(permuted_incidence_forms(), st.integers(0, 200))
# the overflow check counts occurrences, so it must not fire on the third
# {0} once an empty form has emptied the product, and must fire without one
@example(([frozenset({0}), frozenset({0}), frozenset(), frozenset({0})], (2, 0, 1, 3)), 9)
@example(([frozenset({0}), frozenset({0}), frozenset({0})], (1, 2, 0)), 9)
def test_expansion_does_not_depend_on_form_order(case, budget):
    forms, order = case
    permuted = [forms[i] for i in order]
    packed = _expansion_or_overflow(multiply_forms, permuted)
    assert packed == _expansion_or_overflow(multiply_forms, forms)
    tuples = _expansion_or_overflow(multiply_forms_by_tuples, permuted)
    if packed == "overflow":
        assert tuples == "overflow"
        return
    assert {_unpack(k, k.bit_length()): c for k, c in packed.items()} == tuples
    if all(forms):
        # with no empty form every step's expansion only grows, so the budget
        # raises exactly below the final size in either order
        size = len(packed)
        for b in (budget, size - 1, size):
            assert _raises_at(forms, b) == _raises_at(permuted, b) == (b < size)


@settings(max_examples=60, deadline=None)
@given(parallel_multigraphs().filter(lambda g: not g.has_isolated_vertex()), st.data())
def test_both_expansions_overflow_on_a_third_occurrence(g, data):
    j = data.draw(st.integers(0, g.m - 1), label="edge")
    forms = _incidence_forms(g)
    forms.insert(data.draw(st.integers(0, len(forms)), label="at"), frozenset({j}))
    with pytest.raises(ExponentOverflowError):
        multiply_forms(forms)
    with pytest.raises(ExponentOverflowError):
        multiply_forms_by_tuples(forms)


@settings(max_examples=80, deadline=None)
@given(parallel_multigraphs(max_n=7, max_m=12))
@example(Multigraph(0))
@example(Multigraph(1))
def test_expand_f_matches_the_per_monomial_decode(g):
    # the whole list: order, both parts and coefficients
    assert expand_f(g) == expand_f_by_decoding(g)


@settings(max_examples=80, deadline=None)
@given(parallel_multigraphs())
# both sides of the summary's 2 rho == n branch: perfect matchings or none
@example(Multigraph(0))
@example(build(2, [(0, 1)] * 3))
@example(build(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
@example(build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
@example(build(3, [(0, 1), (1, 2)]))
@example(build(3, [(0, 1), (0, 2), (1, 2)]))
@example(build(4, [(0, 1), (1, 2), (0, 2), (0, 2), (2, 3), (0, 3)]))
# class terms standing for many edge terms: squares and pairs of one class,
# and perfect matchings through multi-edge classes
@example(build(2, [(0, 1)] * 40))
@example(build(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (2, 3), (3, 0)]))
def test_expansion_summary_matches_the_term_readers(g):
    terms = expand_f(g)
    if not terms:
        with pytest.raises(EmptyExpansionError):
            expansion_summary(g)
        return
    summary = expansion_summary(g)
    assert summary.terms == len(terms)
    assert summary.coefficient_sum == sum(t.coefficient for t in terms)
    assert summary.matching_number == matching_number_from_f(terms)
    assert summary.edge_cover_number == edge_cover_number_from_f(terms)
    assert summary.perfect_matchings == tuple(
        tuple(sorted(pm)) for pm in perfect_matchings_from_f(terms)
    )


@settings(max_examples=80, deadline=None)
@given(parallel_multigraphs(max_n=7, max_m=12))
@example(Multigraph(0))
def test_every_incidence_monomial_squares_n_minus_its_support(g):
    # each monomial has degree n, so 2|D| + |S| = n: its squared part D has
    # n - |D| - |S| edges, which is the summary's nu = n - rho term by term
    squared = int("10" * g.m, 2) if g.m else 0
    for mono in multiply_forms(_incidence_forms(g)):
        assert (mono & squared).bit_count() == g.n - mono.bit_count()


# small weights make zero weights and class sums that cancel common
small_signed_weights = st.one_of(st.integers(-2, 2), st.integers(-1000, 1000))


def on_a_cycle(g, v):
    """True iff two of v's neighbours are joined in G - v."""
    nbr = g._neighbor_masks
    seen = 1 << v
    for a, _ in g._class_table[v]:
        if seen >> a & 1:
            return True
        reached = stack = 1 << a
        while stack:
            low = stack & -stack
            stack ^= low
            new = nbr[low.bit_length() - 1] & ~reached & ~(1 << v)
            reached |= new
            stack |= new
        seen |= reached
    return False


@st.composite
def cancelling_weights(draw, g):
    """Signed weights for g's edges, with one of three plants. Within a
    class: one parallel pair gets k and -k and the rest of its class 0, so
    that class sums to 0 while its ends stay adjacent. Across classes: at a
    vertex on a cycle with at least three classes, two classes sum to k and
    -k (k on each one's first edge, the rest 0), so once a set takes the
    vertex's other neighbours its remainder sum is 0 with two neighbours
    left. Or none."""
    w = draw(st.lists(small_signed_weights, min_size=g.m, max_size=g.m))
    classes = {}
    for j, pair in enumerate(g.edges):
        classes.setdefault(pair, []).append(j)
    plant = draw(st.sampled_from(["none", "within", "across"]))
    k = draw(st.integers(1, 1000))
    if plant == "within":
        parallel = [js for js in classes.values() if len(js) > 1]
        if parallel:
            first, second, *rest = draw(st.sampled_from(parallel))
            w[first], w[second] = k, -k
            for j in rest:
                w[j] = 0
    elif plant == "across":
        hubs = [v for v in range(g.n) if len(g._class_table[v]) >= 3 and on_a_cycle(g, v)]
        if hubs:
            v = draw(st.sampled_from(hubs))
            ends = [x for x, _ in g._class_table[v]]
            pair = draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2, unique=True))
            for x, value in zip(pair, (k, -k)):
                first, *rest = classes[min(v, x), max(v, x)]
                w[first] = value
                for j in rest:
                    w[j] = 0
    return w


@settings(max_examples=80, deadline=None)
@given(
    parallel_multigraphs(max_n=6, max_m=10, connected=True).flatmap(
        lambda g: st.tuples(st.just(g), st.integers(0, g.n - 1), cancelling_weights(g))
    )
)
# rooted at 2, once 1 joins, vertex 3's classes to 0 and 4 (-1 and 1) cancel
# while both ends remain; once 0 joins too, 3's sum is 1 and {0, 1, 2} counts
@example((build(5, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 3)]), 2, [-1, -2, -1, 1, -1]))
def test_identity_rhs_matches_the_per_subtree_route(case):
    # cancelling class sums and small weights make remainders vanish, or a
    # vertex's sum reach 0, without an isolated vertex
    g, u, w = case
    assert identity_rhs(g, u, w) == identity_rhs_by_subtrees(g, u, w)


@settings(max_examples=200, deadline=None)
@given(
    parallel_multigraphs(max_n=7, max_m=12, connected=True).flatmap(
        lambda g: st.tuples(
            st.just(g),
            st.integers(0, g.n - 1),
            st.lists(cancelling_weights(g), min_size=1, max_size=3),
        )
    )
)
# rooted at 0, once 1 joins, vertex 2 keeps its classes to 3 and 4, which
# cancel (5 and -5) while 3 and 4 stay covered by the 3-4 edge
@example((build(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4), (0, 3)]), 0, [[2, 3, 5, -5, 7, 1], [1] * 6]))
def test_identity_points_match_the_subtree_and_tree_walk_routes(case):
    # each point's set walk against two routes: per subtree, and each kept
    # set's trees walked on its class sums
    g, u, points = case
    reports = [check_identity(g, u, w) for w in points]
    assert [r.weight_point for r in reports] == [tuple(w) for w in points]
    for report, w in zip(reports, points):
        assert (report.tau_term, report.nst_sum) == identity_rhs_by_subtrees(g, u, w)
        links = g._class_sums(w)
        assert report.nst_sum == _correction(g._neighbor_masks, u, links, (1 << g.n) - 1, _tree_sum)
        assert report.holds


@settings(max_examples=80, deadline=None)
@given(parallel_multigraphs(max_n=7, max_m=12))
def test_class_walk_counts_the_enumerated_trees(g):
    assert count_spanning_trees(g) == sum(1 for _ in enumerate_spanning_trees(g))


@settings(max_examples=80, deadline=None)
@given(parallel_multigraphs(max_n=7, max_m=12), st.data())
def test_class_walk_weighted_sum_matches_the_matrix_tree(g, data):
    w = data.draw(st.lists(small_signed_weights, min_size=g.m, max_size=g.m), label="weights")
    full = (1 << g.n) - 1
    expected = tau_weighted_matrix_tree(g, w)
    assert _tree_sum(full, g._class_sums(w)) == expected


@settings(max_examples=100, deadline=None)
@given(
    parallel_multigraphs(max_n=7, max_m=12).flatmap(
        lambda g: st.tuples(st.just(g), cancelling_weights(g))
    )
)
# once 1 joins the root, vertex 2 keeps only the 2-3 pair, whose sum is 0
@example((build(4, [(0, 1), (1, 2), (2, 3), (2, 3)]), [7, 11, 5, -5]))
def test_weighted_set_walk_yields_the_same_sets_and_the_remainder_values(case):
    # cancelling class sums leave a vertex at value 0 with neighbours left:
    # the sets must not change, only the products that come with them
    g, w = case
    weight_sums = g._class_sums(w)
    assert [[v for v, _ in row] for row in weight_sums] == [
        [v for v, _ in row] for row in g._class_table
    ]
    nbr = g._neighbor_masks
    for u in range(g.n):
        walked = list(_correction_sets(g, u, weight_sums, _tree_counter(nbr, weight_sums, _minor_det)))
        counted = _correction_sets(g, u, g._class_table, _tree_counter(nbr, g._class_table, _minor_det))
        assert [s for s, _, _ in walked] == [s for s, _, _ in counted]
        for s, outside, _ in walked:
            rest = delete_vertices(g, _members(s))
            assert outside == f_value(rest.graph, [w[j] for j in rest.edge_origin])


@settings(max_examples=60, deadline=None)
@given(parallel_multigraphs(max_n=7, max_m=12), st.data())
def test_class_walk_matches_the_induced_route_on_every_vertex_set(g, data):
    # disconnected sets included: every route gives 0 there. The grouped
    # form's inside count reads multiplicities and weight sums alike; one
    # counter per table, so later masks hit sets memoized by earlier ones
    w = data.draw(cancelling_weights(g), label="weights")
    nbr = g._neighbor_masks
    multiplicities = g._class_table
    weight_sums = g._class_sums(w)
    count_trees = _tree_counter(nbr, multiplicities, _minor_det)
    sum_trees = _tree_counter(nbr, weight_sums, _minor_det)
    for s in range(1, 1 << g.n):
        vertices = [v for v in range(g.n) if s >> v & 1]
        count = tree_sum_by_induced(g, vertices)
        weighted = tree_sum_by_induced(g, vertices, w)
        assert _tree_sum(s, multiplicities) == count
        assert count_trees(s) == count
        assert _tree_sum(s, weight_sums) == weighted
        assert sum_trees(s) == weighted


@settings(max_examples=150, deadline=None)
@given(
    parallel_multigraphs(max_n=7, max_m=12).flatmap(
        lambda g: st.tuples(st.just(g), cancelling_weights(g))
    )
)
# rooted at 0, vertex 2's classes to 1 and 3 (5 and -5) cancel: {0} has a
# zero factor, which 1's join turns into -5 for {0, 1}
@example((build(4, [(0, 1), (1, 2), (1, 3), (2, 3)]), [7, 5, 3, -5]))
def test_walk_sum_and_carried_products_match_the_listed_sets(case):
    # the sum the walk returns against its listed sets, and each product
    # carried down the joins against one taken afresh, at every root, at
    # multiplicities and at cancelling class sums
    g, w = case
    nbr = g._neighbor_masks
    for links, weights in ((g._class_table, [1] * g.m), (g._class_sums(w), w)):
        for u in range(g.n):
            sets = _correction_sets(g, u, links, _tree_counter(nbr, links, _minor_det))
            total = _correction(nbr, u, links, (1 << g.n) - 1, _minor_det)
            assert total == sum(outside * tree for _, outside, tree in sets)
            for s, outside, _ in sets:
                rest = delete_vertices(g, _members(s))
                assert outside == f_value(rest.graph, [weights[j] for j in rest.edge_origin])


# rooted at 0, vertex 2 closes the triangle 0-1-2 and leaves 3, whose one
# neighbour is 2, isolated: {0, 1, 2} is not kept and its sum is never
# taken, so {0, 1, 2, 3}, which 3 joins at one neighbour, is counted afresh
CYCLE_UNDER_AN_UNKEPT_SET = build(6, [(0, 1), (0, 2), (1, 2), (2, 3), (0, 4), (1, 5), (4, 5), (4, 5)])


@settings(max_examples=150, deadline=None)
@given(
    parallel_multigraphs(max_n=7, max_m=12, connected=True).flatmap(
        lambda g: st.tuples(st.just(g), st.integers(0, g.n - 1), cancelling_weights(g))
    )
)
@example((CYCLE_UNDER_AN_UNKEPT_SET, 0, [1, 2, 3, 4, 5, 6, 7, -7]))
def test_walk_tree_sums_match_the_induced_and_stripping_routes(case):
    # the tree sum carried down the set walk, or counted where it cannot be
    # carried, against a fresh per-set route at multiplicities and at
    # cancelling class sums: every kept set, every table
    g, u, w = case
    nbr = g._neighbor_masks
    for links, weights in ((g._class_table, None), (g._class_sums(w), w)):
        by_core = {}
        for s, _, tree in _correction_sets(g, u, links, _tree_counter(nbr, links, _minor_det)):
            assert tree == tree_sum_by_induced(g, _members(s), weights)
            assert tree == tree_sum_by_stripping(s, nbr, links, by_core)


@st.composite
def glued_multigraphs(draw):
    """Two or three connected parallel multigraphs, each glued by one of its
    vertices onto a vertex of those before it, then up to two pendant
    parallel classes, at shuffled edge indices: graphs with cut vertices."""
    count = draw(st.integers(2, 3))
    pieces = [draw(parallel_multigraphs(max_n=4, max_m=7, connected=True)) for _ in range(count)]
    n, edges = pieces[0].n, list(pieces[0].edges)
    for piece in pieces[1:]:
        glue = draw(st.integers(0, n - 1))
        at = draw(st.integers(0, piece.n - 1))
        labels = {v: n + v - (v > at) for v in range(piece.n)}
        labels[at] = glue
        edges += [(labels[a], labels[b]) for a, b in piece.edges]
        n += piece.n - 1
    for _ in range(draw(st.integers(0, 2))):
        edges += [(draw(st.integers(0, n - 1)), n)] * draw(st.integers(1, 3))
        n += 1
    return build(n, draw(st.permutations(edges)))


@settings(max_examples=60, deadline=None)
@given(glued_multigraphs())
@example(build(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (2, 4)]))
def test_block_products_match_the_whole_graph_walk(g):
    # the block routes against the whole-graph walk c_pieces lists, at every
    # root: the block holding it, a cut vertex, a pendant leaf. Each block's
    # walk inside its mask, at its vertex with the fewest distinct
    # neighbours in it (the lowest on ties), lists the sets, outside
    # products and tree sums that the whole-graph walk lists on the block's
    # induced subgraph
    tau = tau_matrix_tree(g)
    nbr = g._neighbor_masks
    for u in range(g.n):
        whole = thomassen_bound(g, u) - sum(
            p.tau_inside * p.outside_degree_product for p in c_pieces(g, u)
        )
        assert tau_via_grouped_formula(g, u) == tau_via_direct_formula(g, u) == whole == tau
    walked = []

    def listed(masks, root, links, block, core):
        sets = []
        count = _tree_counter(masks, links, core)
        total = _correction_walk(masks, root, links, block, count, lambda *kept: sets.append(kept))
        walked.append((block, root, sets))
        return total

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(degree_formula, "_correction", listed)
        assert _block_product(nbr, g._class_table, _minor_det) == tau
    assert sorted(block for block, _, _ in walked) == sorted(_blocks(nbr, 0))
    for block, root, sets in walked:
        inner = {v: (nbr[v] & block).bit_count() for v in _members(block)}
        assert root == min(v for v, count in inner.items() if count == min(inner.values()))
        sub = induced(g, _members(block))
        h, labels = sub.graph, sorted(sub.vertex_map)
        count = _tree_counter(h._neighbor_masks, h._class_table, _minor_det)
        induced_sets = _correction_sets(h, sub.vertex_map[root], h._class_table, count)
        assert sets == [
            (sum(1 << labels[v] for v in _members(s)), outside, tree)
            for s, outside, tree in induced_sets
        ]


@st.composite
def series_chain_multigraphs(draw):
    """Connected parallel multigraphs with up to three of their edges each
    subdivided into a path of 2 to 5 edges, at shuffled edge indices:
    graphs with series chains, which the tau routes reduce away."""
    g = draw(parallel_multigraphs(max_n=6, max_m=9, connected=True))
    chains = draw(st.lists(st.integers(0, g.m - 1), max_size=3, unique=True))
    n, edges = g.n, []
    for j, (a, b) in enumerate(g.edges):
        inner = draw(st.integers(1, 4)) if j in chains else 0
        path = [a, *range(n, n + inner), b]
        n += inner
        edges += zip(path, path[1:])
    return build(n, draw(st.permutations(edges)))


@st.composite
def cored_multigraphs(draw):
    """A K5 or K6 of classes of 1 to 3 edges, with one to four more
    vertices each joined by classes of 1 to 3 edges to one to three
    vertices before it, at shuffled labels and edge indices: graphs the
    star-mesh rule leaves a core of, with fractional values on it."""
    k = draw(st.integers(5, 6))
    edges = [pair for pair in combinations(range(k), 2) for _ in range(draw(st.integers(1, 3)))]
    n = k
    for _ in range(draw(st.integers(1, 4))):
        for w in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)):
            edges += [(w, n)] * draw(st.integers(1, 3))
        n += 1
    label = draw(st.permutations(range(n)))
    return build(n, draw(st.permutations([(label[a], label[b]) for a, b in edges])))


# two vertices joined by three paths of 2, 3 and 3 edges
THETA = build(7, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 1)])


@settings(max_examples=60, deadline=None)
@given(st.one_of(series_chain_multigraphs(), glued_multigraphs(), cored_multigraphs()))
@example(build(6, [(v, (v + 1) % 6) for v in range(6)]))
@example(THETA)
# a doubled K4: every vertex meshes away by the star-mesh rule
@example(build(4, [(a, b) for a in range(4) for b in range(a + 1, 4)] * 2))
# a triangle with a pendant triple class
@example(build(4, [(0, 1), (1, 2), (0, 2)] + [(2, 3)] * 3))
def test_series_reduced_routes_match_the_unreduced_block_products(g):
    # the reduced grouped and direct routes at every root, against the
    # block product on the unreduced table with either core counter. The
    # reduction leaves one vertex, or only vertices with four or more
    # distinct neighbours
    tau = tau_matrix_tree(g)
    nbr, links = g._neighbor_masks, g._class_table
    assert _block_product(nbr, links, _minor_det) == _block_product(nbr, links, _tree_sum) == tau
    for u in range(g.n):
        assert tau_via_grouped_formula(g, u) == tau_via_direct_formula(g, u) == tau
    masks = _star_mesh_reduce(links)[0]
    assert not any(masks) or all(mask.bit_count() >= 4 for mask in masks if mask)


# vertex 0 is in series between 1 (a double class) and 2, so its step
# leaves 1-2 a class of 2/3, an arm of vertex 1's three-neighbour step
FRACTIONAL_ARM = build(5, [(0, 1), (0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(
        st.one_of(
            parallel_multigraphs(max_n=8, max_m=20, connected=True),
            series_chain_multigraphs(),
            glued_multigraphs(),
            cored_multigraphs(),
        ),
        st.integers(1, 3),
    ).map(lambda case: build(case[0].n, list(case[0].edges) * case[1]))
)
@example(FRACTIONAL_ARM)
# the same series vertex ahead of a K5 whose vertex 2 meshes away
@example(build(7, [(a, b) for a in range(2, 7) for b in range(a + 1, 7)]
               + [(1, 3), (1, 4), (0, 1), (0, 1), (0, 2)]))
# a doubled K5 with a double pendant class: the K5's values of 2 go to 1
@example(build(6, [(a, b) for a in range(5) for b in range(a + 1, 5)] * 2 + [(0, 5)] * 2))
def test_star_mesh_reduction_matches_the_integer_scaling_reference(g):
    # the per-class fractions against the reference that scales every value
    # at every step: the same masks and table, num / den the same ratio,
    # and a table of gcd 1 once a vertex went. Every class may be repeated
    # up to three times, so the values left can share a factor
    masks, table, num, den = _star_mesh_reduce(g._class_table)
    ref_masks, ref_table, ref_num, ref_den = star_mesh_reduce_by_scaling(g._class_table)
    assert (masks, table) == (ref_masks, ref_table)
    assert num * ref_den == ref_num * den
    if any(table) and masks != list(g._neighbor_masks):
        assert math.gcd(*(c for row in table for _, c in row)) == 1


@settings(max_examples=80, deadline=None)
@given(parallel_multigraphs(max_n=6, max_m=10, connected=True))
def test_grouped_pieces_count_the_edge_picks_they_group(g):
    # the paper's bijection: picks whose walks reach u from exactly S number
    # tau(G[S]) times the degree product of G - S, term by term
    for u in range(g.n):
        picks = pieces_by_choices(g, u)
        assert picks.pop(frozenset(range(g.n))) == tau_matrix_tree(g)
        assert picks == {p.vertices: p.tau_inside * p.outside_degree_product for p in c_pieces(g, u)}


@settings(max_examples=80, deadline=None)
@given(
    parallel_multigraphs(max_n=6, max_m=10, connected=True).flatmap(
        lambda g: st.tuples(st.just(g), cancelling_weights(g))
    )
)
# rooted at 0, vertex 2's classes to 1 and 3 (5 and -5) cancel
@example((build(4, [(0, 1), (1, 2), (1, 3), (2, 3)]), [7, 5, 3, -5]))
def test_weighted_picks_match_the_identity_terms_at_the_class_sums(case):
    # the bijection at weights: each set's pick weights sum to its term of
    # the walk at the class sums, S = V to the weighted tree sum, and all
    # picks to the identity's left side. Terms are compared where nonzero,
    # since a cancelling weight can zero a set either side keeps
    g, w = case
    sums = g._class_sums(w)
    nbr = g._neighbor_masks
    for u in range(g.n):
        picks = pieces_by_choices(g, u, w)
        assert sum(picks.values()) == identity_lhs(g, u, w)
        assert picks.pop(frozenset(range(g.n))) == tau_weighted_matrix_tree(g, w)
        terms = {
            frozenset(_members(s)): outside * tree
            for s, outside, tree in _correction_sets(g, u, sums, _tree_counter(nbr, sums, _minor_det))
        }
        assert {s: v for s, v in picks.items() if v} == {s: v for s, v in terms.items() if v}
