from __future__ import annotations

import gc
import random
from collections import Counter

import pytest

from conftest import seeded_suite
import treecount.degree_formula as degree_formula
from oracles import (
    c_pieces_by_frozensets,
    connected_sets_brute,
    direct_value_by_frozensets,
    is_tree_on,
    outside_degree_product,
    star_mesh_reduce_by_scaling,
    subtrees_brute,
)
from treecount import (
    FamilySpec,
    Multigraph,
    best_thomassen_bound,
    brute_force_matching,
    build,
    c_pieces,
    check_identity,
    count_spanning_trees,
    direct_formula_value,
    enumerate_connected_sets,
    enumerate_nst,
    enumerate_spanning_trees,
    generate_family,
    identity_rhs,
    induced,
    tau_deletion_contraction,
    tau_matrix_tree,
    tau_via_direct_formula,
    tau_via_grouped_formula,
    thomassen_bound,
)
from treecount.errors import (
    BudgetExceededError,
    DisconnectedError,
    EmptyGraphError,
    VertexOutOfRangeError,
)
from treecount.randgraph import RandomSpec, random_multigraph


def test_connected_sets_along_a_path(path3):
    got = list(enumerate_connected_sets(path3, 0, 3))
    assert got == [frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})]


def test_connected_sets_wheel_counts(wheel4):
    sizes = Counter(len(s) for s in enumerate_connected_sets(wheel4, 4, 3))
    assert sizes == {1: 1, 2: 4, 3: 6}


def test_connected_sets_trivial_cases():
    k2 = build(2, [(0, 1)])
    assert list(enumerate_connected_sets(k2, 0, 1)) == [frozenset({0})]
    assert list(enumerate_connected_sets(k2, 0, 0)) == []


def test_connected_sets_out_of_range(path3):
    with pytest.raises(VertexOutOfRangeError):
        list(enumerate_connected_sets(path3, 5, 2))


def test_connected_sets_match_brute_force():
    for g in seeded_suite(30, seed=2718, max_n=7, max_m=12, connected=False):
        for u in range(0, g.n, 2):
            for cap in (1, 3, g.n):
                got = list(enumerate_connected_sets(g, u, cap))
                assert len(got) == len(set(got)), "duplicate set emitted"
                assert set(got) == connected_sets_brute(g, u, cap)


def test_connected_sets_deterministic(wheel4):
    first = list(enumerate_connected_sets(wheel4, 4, 4))
    second = list(enumerate_connected_sets(wheel4, 4, 4))
    assert first == second


def test_c_pieces_wheel(wheel4):
    pieces = list(c_pieces(wheel4, 4))
    sizes = Counter(len(p.vertices) for p in pieces)
    assert sizes == {1: 1, 2: 4, 3: 4}
    hub_only = next(p for p in pieces if len(p.vertices) == 1)
    assert hub_only.tau_inside == 1
    # the remainder is the 4-cycle rim: four degree-2 vertices
    assert hub_only.outside_degree_product == 16


def test_c_pieces_multiwheel(multiwheel4):
    pieces = list(c_pieces(multiwheel4, 4))
    by_size = {}
    for p in pieces:
        by_size.setdefault(len(p.vertices), set()).add(p.tau_inside)
    assert by_size[2] == {2}
    assert by_size[3] == {8}


@pytest.mark.parametrize(
    "route, message",
    [
        (tau_matrix_tree, "tau needs at least one vertex"),
        (tau_deletion_contraction, "tau needs at least one vertex"),
        (count_spanning_trees, "spanning trees need at least one vertex"),
        (lambda g: tau_via_grouped_formula(g, 0), "tau needs at least one vertex"),
        (lambda g: tau_via_grouped_formula(g, None), "tau needs at least one vertex"),
        (lambda g: tau_via_direct_formula(g, 0), "tau needs at least one vertex"),
        (lambda g: tau_via_direct_formula(g, None), "tau needs at least one vertex"),
        (lambda g: list(c_pieces(g, 0)), "tau needs at least one vertex"),
        (lambda g: list(enumerate_nst(g, 0)), "tau needs at least one vertex"),
    ],
    ids=[
        "matrix-tree", "del-con", "enum", "grouped", "grouped-no-root", "direct",
        "direct-no-root", "c-pieces", "nst",
    ],
)
def test_every_route_rejects_the_empty_graph(route, message):
    # the empty graph counts as connected, so the rooted walks test for it first
    with pytest.raises(EmptyGraphError, match=f"^{message}$"):
        route(Multigraph(0))


@pytest.mark.parametrize(
    "call",
    [
        lambda g: thomassen_bound(g, 0),
        best_thomassen_bound,
        lambda g: direct_formula_value(g, 0),
        lambda g: list(enumerate_connected_sets(g, 0, 1)),
        lambda g: check_identity(g, 0, []),
        lambda g: g.degree(0),
        lambda g: g.incident_edges(0),
        lambda g: g.neighbors(0),
    ],
    ids=[
        "bound", "best-bound", "direct-value", "connected-sets", "identity", "degree",
        "incident-edges", "neighbors",
    ],
)
def test_vertex_check_names_the_empty_graph(call):
    with pytest.raises(VertexOutOfRangeError, match="^vertex 0 not in the empty graph$"):
        call(Multigraph(0))


@pytest.mark.parametrize("v", [True, False, 1.5, None, "0"], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        thomassen_bound,
        direct_formula_value,
        lambda g, v: list(enumerate_connected_sets(g, v, 1)),
        lambda g, v: check_identity(g, v, [1]),
        lambda g, v: identity_rhs(g, v, [1]),
        tau_via_grouped_formula,
        tau_via_direct_formula,
        lambda g, v: list(c_pieces(g, v)),
        lambda g, v: list(enumerate_nst(g, v)),
        Multigraph.degree,
        Multigraph.incident_edges,
        Multigraph.neighbors,
        lambda g, v: induced(g, [v]),
    ],
    ids=[
        "bound", "direct-value", "connected-sets", "identity", "identity-rhs", "grouped",
        "direct", "c-pieces", "nst", "degree", "incident-edges", "neighbors", "induced",
    ],
)
def test_a_vertex_that_is_not_an_int_is_a_type_error(call, v):
    # bool included: True is not taken as vertex 1
    with pytest.raises(TypeError) as caught:
        call(build(2, [(0, 1)]), v)
    assert str(caught.value) == f"vertex must be an int, got {v!r}"


def test_c_pieces_two_vertices_is_empty():
    assert list(c_pieces(build(2, [(0, 1)]), 0)) == []


def test_c_pieces_requires_connected():
    with pytest.raises(DisconnectedError):
        list(c_pieces(build(3, [(0, 1)]), 0))


def test_c_pieces_excludes_isolating_sets(wheel4):
    # removing the hub with two opposite rim vertices isolates the other two
    pieces = {p.vertices for p in c_pieces(wheel4, 4)}
    assert frozenset({0, 2, 4}) not in pieces
    assert frozenset({0, 1, 4}) in pieces


def test_c_pieces_partition_the_small_connected_sets():
    # a connected set through u of size <= n-2 either becomes a piece or its
    # remainder has an isolated vertex, never both
    for g in seeded_suite(15, seed=321321, max_n=7, max_m=12):
        for u in range(g.n):
            pieces = {p.vertices for p in c_pieces(g, u)}
            small = set(enumerate_connected_sets(g, u, g.n - 2))
            assert pieces <= small
            for s in small - pieces:
                rest = induced(g, set(range(g.n)) - s).graph if len(s) < g.n else None
                assert rest is not None and rest.has_isolated_vertex()


def _piece(g, u, vertices):
    return next(p for p in c_pieces(g, u) if p.vertices == frozenset(vertices))


def test_pendant_class_multiplies_by_its_multiplicity():
    # triangle 0-1-2 with vertex 3 hanging off 0 by a class of 3 parallel
    # edges; 4-5 keeps the remainder covered
    g = build(6, [(0, 1), (1, 2), (0, 2)] + [(0, 3)] * 3 + [(1, 4), (4, 5)])
    piece = _piece(g, 0, {0, 1, 2, 3})
    assert piece.tau_inside == 3 * 3
    assert piece.tau_inside == tau_matrix_tree(induced(g, piece.vertices).graph)


def test_tree_shaped_set_gives_the_product_of_its_multiplicities():
    # path 0 =2= 1 =3= 2, then a covered tail 3-4
    g = build(5, [(0, 1)] * 2 + [(1, 2)] * 3 + [(2, 3), (3, 4)])
    assert _piece(g, 0, {0, 1, 2}).tau_inside == 2 * 3
    assert _piece(g, 1, {0, 1}).tau_inside == 2


def test_zero_pendant_class_value_zeroes_every_set_through_it():
    # triangle 0-1-2 and a class 2-3 of two edges weighted 2 and -2: every set
    # holding both 2 and 3 sums to 0, the triangle left after the strip included
    g = build(4, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 3)])
    count = degree_formula._tree_counter(
        g._neighbor_masks, g._class_sums([1, 1, 1, 2, -2]), degree_formula._minor_det
    )
    assert count(0b1111) == 0
    assert count(0b0111) == 3
    assert count(0b1100) == 0
    assert count(0b1000) == 1


def test_core_cache_hit_equals_a_fresh_determinant(monkeypatch):
    # K4 on 0..3 with pendant 4 (double edge) off 1 and pendant 5 off 2;
    # {0..4} and {0..3, 5} strip to the same core, counted once
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    g = build(8, k4 + [(1, 4)] * 2 + [(2, 5), (4, 6), (5, 7), (6, 7)])
    calls = []
    real = degree_formula._minor_det
    monkeypatch.setattr(
        degree_formula, "_minor_det", lambda s, links: calls.append(s) or real(s, links)
    )
    pieces = {p.vertices: p.tau_inside for p in c_pieces(g, 0)}
    assert pieces[frozenset({0, 1, 2, 3, 4})] == 16 * 2
    assert pieces[frozenset({0, 1, 2, 3, 5})] == 16
    for vertices, tau_inside in pieces.items():
        assert tau_inside == tau_matrix_tree(induced(g, vertices).graph)
    # the cache lives for one call: the K4 minor is evaluated once in it
    assert calls.count(0b1111) == 1


@pytest.mark.parametrize(
    "g",
    [
        build(1, []),
        build(2, [(0, 1)] * 3),
        build(3, [(0, 1)] * 2 + [(1, 2)]),
        build(3, [(0, 1), (1, 2), (0, 2), (0, 2)]),
    ],
)
def test_grouped_terms_on_one_to_three_vertices(g):
    for u in range(g.n):
        assert list(c_pieces(g, u)) == list(c_pieces_by_frozensets(g, u))
        assert tau_via_grouped_formula(g, u) == tau_matrix_tree(g)
        assert direct_formula_value(g, u) == direct_value_by_frozensets(g, u)


@pytest.mark.parametrize("pendant", [1, 3, 5])
def test_pruned_walk_yields_the_reference_sets(pendant):
    # the pendant vertex hangs off root 0, so once it is banned it is
    # isolated and the whole branch is cut
    others = [v for v in range(1, 7) if v != pendant]
    ring = list(zip(others, others[1:] + others[:1]))
    g = build(7, [(0, pendant), (0, others[0]), (0, others[2])] + ring + [ring[1]])
    count = degree_formula._tree_counter(g._neighbor_masks, g._class_table, degree_formula._minor_det)
    got = [
        (frozenset(degree_formula._members(s)), product, tree)
        for s, product, tree in degree_formula._correction_sets(g, 0, g._class_table, count)
    ]
    reference = [
        (t, outside_degree_product(g, t), tau_matrix_tree(induced(g, t).graph))
        for t in enumerate_connected_sets(g, 0, g.n - 2)
    ]
    assert got == [(t, product, tree) for t, product, tree in reference if product]
    assert all(pendant in s for s, _, _ in got)
    assert list(c_pieces(g, 0)) == list(c_pieces_by_frozensets(g, 0))
    assert direct_formula_value(g, 0) == direct_value_by_frozensets(g, 0)


DISCONNECTED = build(4, [(0, 1), (2, 3)])
CONNECTED = build(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "route, g, u, error",
    [
        (lambda g, u: list(c_pieces(g, u)), DISCONNECTED, 9, DisconnectedError),
        (lambda g, u: list(c_pieces(g, u)), CONNECTED, 3, VertexOutOfRangeError),
        (tau_via_grouped_formula, DISCONNECTED, 9, DisconnectedError),
        (tau_via_grouped_formula, CONNECTED, -1, VertexOutOfRangeError),
        (tau_via_direct_formula, DISCONNECTED, 9, DisconnectedError),
        (tau_via_direct_formula, CONNECTED, 3, VertexOutOfRangeError),
        # the raw direct value has no connectivity requirement
        (direct_formula_value, DISCONNECTED, 9, VertexOutOfRangeError),
        (direct_formula_value, CONNECTED, -1, VertexOutOfRangeError),
        (lambda g, u: identity_rhs(g, u, [1] * g.m), DISCONNECTED, 9, DisconnectedError),
        (lambda g, u: identity_rhs(g, u, [1] * g.m), CONNECTED, 3, VertexOutOfRangeError),
    ],
)
def test_error_order_is_disconnected_then_vertex_range(route, g, u, error):
    with pytest.raises(error):
        route(g, u)


def test_grouped_formula_paper_wheels(wheel4, multiwheel4, multiwheel5):
    assert tau_via_grouped_formula(wheel4, 4) == 45
    assert tau_via_grouped_formula(multiwheel4, 4) == 192
    assert tau_via_grouped_formula(multiwheel5, 5) == 722


def test_grouped_formula_small_cases(triangle):
    assert tau_via_grouped_formula(triangle, 2) == 3
    assert tau_via_grouped_formula(build(1, []), 0) == 1
    assert tau_via_grouped_formula(build(2, [(0, 1)] * 4), 1) == 4


def test_grouped_formula_requires_connected():
    with pytest.raises(DisconnectedError):
        tau_via_grouped_formula(build(3, [(0, 1)]), 0)


def test_enumerate_nst_triangle(triangle):
    got = list(enumerate_nst(triangle, 2))
    assert len(got) == 3
    assert {(t.vertices, t.edges) for t in got} == {
        (frozenset({2}), frozenset()),
        (frozenset({0, 2}), frozenset({1})),
        (frozenset({1, 2}), frozenset({2})),
    }
    assert all(t.root == 2 for t in got)


def test_enumerate_nst_path(path3):
    got = {(t.vertices, t.edges) for t in enumerate_nst(path3, 2)}
    assert got == {
        (frozenset({2}), frozenset()),
        (frozenset({1, 2}), frozenset({1})),
    }


def test_enumerate_nst_two_vertices():
    got = list(enumerate_nst(build(2, [(0, 1)]), 0))
    assert [(t.vertices, t.edges) for t in got] == [(frozenset({0}), frozenset())]


def test_enumerate_nst_matches_brute_force():
    for g in seeded_suite(15, seed=1234, max_n=6, max_m=9):
        for u in range(g.n):
            got = {(t.vertices, t.edges) for t in enumerate_nst(g, u)}
            assert got == subtrees_brute(g, u)


def test_enumerate_nst_yields_valid_subtrees():
    for g in seeded_suite(10, seed=888, max_n=7, max_m=12):
        seen = set()
        for t in enumerate_nst(g, 0):
            assert t.root == 0
            assert 0 in t.vertices
            assert len(t.vertices) < g.n
            assert len(t.edges) == len(t.vertices) - 1
            assert is_tree_on(g, t.vertices, t.edges)
            key = (t.vertices, t.edges)
            assert key not in seen
            seen.add(key)


def test_nst_buckets_count_induced_trees(figure_one):
    buckets = Counter(t.vertices for t in enumerate_nst(figure_one, 3))
    for s, count in buckets.items():
        assert count == tau_matrix_tree(induced(figure_one, s).graph)


def test_direct_formula_small_cases(triangle, path3):
    assert tau_via_direct_formula(triangle, 2) == 3
    assert tau_via_direct_formula(path3, 2) == 1
    assert tau_via_direct_formula(build(2, [(0, 1)] * 3), 1) == 3
    assert tau_via_direct_formula(build(1, []), 0) == 1


def test_direct_formula_requires_connected():
    with pytest.raises(DisconnectedError):
        tau_via_direct_formula(build(3, [(0, 1)]), 0)


def test_direct_and_grouped_agree_with_matrix_tree():
    for g in seeded_suite(40, seed=9090, max_n=7, max_m=14):
        expected = tau_matrix_tree(g)
        for u in range(g.n):
            assert tau_via_grouped_formula(g, u) == expected
            assert tau_via_direct_formula(g, u) == expected


def test_direct_value_on_disconnected_inputs_probes_zero():
    # no theorem backs this; record what the expression does empirically
    for g in seeded_suite(25, seed=446688, max_n=7, max_m=10, connected=False):
        if g.is_connected():
            continue
        for u in range(g.n):
            assert direct_formula_value(g, u) == 0


def test_direct_value_with_an_edgeless_vertex_keeps_no_set_through_the_rest():
    # vertex 3 has no edge: it stays isolated in every remainder, so a walk
    # rooted elsewhere keeps no set, and one rooted at it keeps only {3}
    g = build(4, [(0, 1), (1, 2)])
    count = degree_formula._tree_counter(g._neighbor_masks, g._class_table, degree_formula._minor_det)
    for u in range(g.n):
        assert direct_formula_value(g, u) == 0
        kept = degree_formula._correction_sets(g, u, g._class_table, count)
        assert kept == ([(0b1000, 2, 1)] if u == 3 else [])


def test_thomassen_bound_values(wheel4, multiwheel4, triangle):
    assert thomassen_bound(wheel4, 4) == 81
    assert thomassen_bound(multiwheel4, 4) == 256
    assert thomassen_bound(triangle, 0) == 4
    assert thomassen_bound(build(1, []), 0) == 1


def test_thomassen_bound_dominates_tau():
    for g in seeded_suite(40, seed=5566, max_n=8, max_m=16):
        tau = tau_matrix_tree(g)
        for u in range(g.n):
            assert tau <= thomassen_bound(g, u)


def test_best_thomassen_bound():
    star = build(4, [(0, 1), (0, 2), (0, 3)])
    assert best_thomassen_bound(star) == (0, 1)
    triangle = build(3, [(0, 1), (0, 2), (1, 2)])
    assert best_thomassen_bound(triangle) == (0, 4)
    wheel = build(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
    assert best_thomassen_bound(wheel) == (4, 81)
    with pytest.raises(VertexOutOfRangeError):
        best_thomassen_bound(Multigraph(0))


@pytest.mark.parametrize(
    "kind, size, determinants",
    [("hypercube", 4, 3308), ("complete", 9, 238), ("wheel", 12, 0), ("multiwheel", 8, 0)],
)
def test_grouped_formula_determinant_count_is_pinned(monkeypatch, kind, size, determinants):
    # one determinant per distinct leafless core of a kept set, with the
    # block rooted at a vertex with the fewest neighbours: vertex 0 of Q4
    # and K9, which have no vertex of three or fewer neighbours to reduce.
    # A wheel's rim vertices have three, so the reduction takes the whole
    # wheel and no walk is left
    g = generate_family(FamilySpec(kind, (size,)))
    calls = []
    real = degree_formula._minor_det
    monkeypatch.setattr(
        degree_formula, "_minor_det", lambda s, links: calls.append(s) or real(s, links)
    )
    u, _ = best_thomassen_bound(g)
    assert tau_via_grouped_formula(g, u) == tau_matrix_tree(g)
    assert len(calls) == determinants


def test_walk_counts_only_the_sets_it_cannot_carry():
    # rooted at 0: 2 closes the triangle 0-1-2 and isolates 3, so {0, 1, 2}
    # is not kept and its sum is never taken; 3 then joins at one neighbour,
    # but with no sum to carry, so {0, 1, 2, 3} is counted. 5 closes the
    # square 0-1-5-4, so {0, 1, 4, 5} is counted too; every other kept set
    # grows at one neighbour from a known sum
    g = build(6, [(0, 1), (0, 2), (1, 2), (2, 3), (0, 4), (1, 5), (4, 5), (4, 5)])
    count = degree_formula._tree_counter(g._neighbor_masks, g._class_table, degree_formula._minor_det)
    asked = []
    walked = list(
        degree_formula._correction_sets(g, 0, g._class_table, lambda s: asked.append(s) or count(s))
    )
    assert asked == [0b1111, 0b110011]
    assert 0b111 not in [s for s, _, _ in walked]
    for s, _, tree in walked:
        assert tree == tau_matrix_tree(induced(g, degree_formula._members(s)).graph)


def test_correction_walk_stops_at_its_set_budget(monkeypatch):
    # in K5 every connected set of at most 3 vertices through the root is
    # kept, so the walk visits 1 + 4 + 6 = 11 sets and no other
    g = generate_family(FamilySpec("complete", (5,)))
    assert len(list(c_pieces(g, 0))) == 11
    monkeypatch.setattr(degree_formula, "CORRECTION_SET_BUDGET", 11)
    assert tau_via_grouped_formula(g, 0) == tau_via_direct_formula(g, 0) == 125
    monkeypatch.setattr(degree_formula, "CORRECTION_SET_BUDGET", 10)
    message = "^correction walk exceeded the 10-set budget after visiting 10 sets$"
    for walk in (
        lambda: tau_via_grouped_formula(g, 0),
        lambda: tau_via_direct_formula(g, 0),
        lambda: list(c_pieces(g, 0)),
        lambda: identity_rhs(g, 0, [1] * g.m),
    ):
        with pytest.raises(BudgetExceededError, match=message):
            walk()


def _glued_cliques(k, copies):
    # `copies` K_k's in a chain, each sharing one vertex with the next
    step = k - 1
    return build(
        step * copies + 1,
        [
            (i * step + a, i * step + b)
            for i in range(copies)
            for a in range(k)
            for b in range(a + 1, k)
        ],
    )


BOWTIE = build(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


@pytest.mark.parametrize(
    "g, tau",
    [
        (build(1, []), 1),
        (build(2, [(0, 1)] * 3), 3),
        (build(4, [(0, 1), (1, 2), (2, 3)]), 1),
        (build(4, [(0, 1)] * 2 + [(0, 2), (0, 3)] * 3), 18),
        (BOWTIE, 9),
        (_glued_cliques(4, 3), 16**3),
        # a triangle with a double edge, a pendant triple class and a square
        (build(7, [(0, 1), (1, 2), (0, 2), (0, 2), (2, 3), (2, 3), (2, 3),
                   (3, 4), (4, 5), (5, 6), (3, 6)]), 5 * 3 * 4),
    ],
)
def test_block_product_at_every_root(g, tau):
    for u in range(g.n):
        assert tau_via_grouped_formula(g, u) == tau
        assert tau_via_direct_formula(g, u) == tau


def test_block_product_walks_each_block_inside_its_mask_on_g(monkeypatch):
    # one correction per block, bridges included, each over g's neighbour
    # masks at the block's vertex with the fewest distinct neighbours in it
    # (the lowest on ties), over the block's mask and its own classes:
    # neither tau route builds an induced subgraph or any other graph
    wheel = generate_family(FamilySpec("wheel", (4,)))
    hub_first = build(5, [(0, v) for v in range(1, 5)] + [(1, 2), (2, 3), (3, 4), (1, 4)])
    star = build(4, [(0, 1)] * 2 + [(0, 2), (0, 3)] * 3)

    def refuse(*args):
        raise AssertionError("the block product built a graph")

    monkeypatch.setattr(degree_formula, "induced", refuse)
    monkeypatch.setattr(Multigraph, "__init__", refuse)
    calls = []
    real = degree_formula._correction

    def correction(nbr, root, links, block, core):
        assert all(not row for v, row in enumerate(links) if not block >> v & 1)
        assert all(block >> w & 1 for row in links for w, _ in row)
        calls.append((root, block, nbr))
        return real(nbr, root, links, block, core)

    monkeypatch.setattr(degree_formula, "_correction", correction)

    for g, tau, blocks in [
        # one block: the whole vertex mask, at the lowest rim vertex
        (wheel, 45, [(0, 0b11111)]),
        # the hub 0 has four neighbours, the rim vertices three
        (hub_first, 45, [(1, 0b11111)]),
        # three bridge classes, each a 2-vertex block whose walk is empty
        (star, 18, [(0, 0b11), (0, 0b101), (0, 0b1001)]),
        # two triangles glued at 2, each at its lowest vertex
        (BOWTIE, 9, [(0, 0b111), (2, 0b11100)]),
    ]:
        calls.clear()
        nbr, links = g._neighbor_masks, g._class_table
        assert degree_formula._block_product(nbr, links, degree_formula._minor_det) == tau
        assert all(nbr is g._neighbor_masks for _, _, nbr in calls)
        assert sorted((root, block) for root, block, _ in calls) == blocks
        # the tau routes walk the series-reduced masks, still building no graph
        for u in range(g.n):
            assert tau_via_grouped_formula(g, u) == tau_via_direct_formula(g, u) == tau


def test_chain_of_cliques_counts_fast_by_blocks():
    # 8 K4s glued at cut vertices, n = 25: the whole-graph direct walk takes
    # minutes here, each 4-vertex block a handful of sets
    g = _glued_cliques(4, 8)
    assert g.n == 25
    for u in (0, 12, 24):
        assert tau_via_direct_formula(g, u) == tau_via_grouped_formula(g, u) == 16**8


def test_direct_routes_take_no_determinant(monkeypatch, figure_one):
    # the direct form counts every leafless core by walking its trees
    graphs = [
        generate_family(FamilySpec("wheel", (6,))),
        generate_family(FamilySpec("complete", (5,))),
        figure_one,
        _glued_cliques(4, 3),
    ]
    taus = [tau_matrix_tree(g) for g in graphs]

    def refuse(*args):
        raise AssertionError("a direct route took a determinant")

    monkeypatch.setattr(degree_formula, "_minor_det", refuse)
    monkeypatch.setattr("treecount.counting.bareiss_determinant", refuse)
    for g, tau in zip(graphs, taus):
        for u in range(g.n):
            assert tau_via_direct_formula(g, u) == direct_formula_value(g, u) == tau


def test_direct_counter_walks_each_core_once(monkeypatch):
    # the graph of test_core_cache_hit_equals_a_fresh_determinant: at every
    # root, each set the walk cannot carry is stripped to its leafless core
    # before its trees are walked, and the K4 core is walked once per call
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    g = build(8, k4 + [(1, 4)] * 2 + [(2, 5), (4, 6), (5, 7), (6, 7)])
    nbr = g._neighbor_masks
    real = degree_formula._tree_sum
    walked = []
    monkeypatch.setattr(
        degree_formula, "_tree_sum", lambda s, links: walked.append(s) or real(s, links)
    )
    for u in range(g.n):
        for route in (tau_via_direct_formula, direct_formula_value):
            walked.clear()
            assert route(g, u) == 160
            # the tau route walks the series-reduced graph, a weighted K4,
            # whose sets stop two vertices short of the K4
            assert walked.count(0b1111) == (route is direct_formula_value)
            assert len(set(walked)) == len(walked)
            for s in walked:
                inner = [nbr[v] & s for v in degree_formula._members(s)]
                assert all(mask & (mask - 1) for mask in inner)


def test_set_budget_holds_per_block_walk(monkeypatch):
    # two K5s sharing vertex 0: each block's walk visits 11 sets, the
    # whole-graph walk that c_pieces lists many more
    g = _glued_cliques(5, 2)
    monkeypatch.setattr(degree_formula, "CORRECTION_SET_BUDGET", 11)
    assert tau_via_grouped_formula(g, 0) == tau_via_direct_formula(g, 0) == 125**2
    message = "^correction walk exceeded the 11-set budget after visiting 11 sets$"
    with pytest.raises(BudgetExceededError, match=message):
        list(c_pieces(g, 0))


@pytest.mark.parametrize(
    "g, tau",
    [
        (build(2, [(0, 1)] * 3), 3),
        (build(6, [(v, (v + 1) % 6) for v in range(6)]), 6),
        # K_{2,3}: vertices 0 and 1 joined by three paths of two edges
        (build(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]), 12),
        # a square of double edges: the first step, s = 4, gives the
        # opposite corners a class of 2 * 2 / 4 = 1
        (build(4, [(0, 1), (1, 2), (2, 3), (0, 3)] * 2), 32),
        # a triangle with a pendant triple class
        (build(4, [(0, 1), (1, 2), (0, 2)] + [(2, 3)] * 3), 9),
        # three pendant classes: tau is the product of their sums
        (build(4, [(0, 1)] * 2 + [(0, 2), (0, 3)] * 3), 18),
    ],
)
def test_series_reduction_leaves_one_vertex_of_a_series_parallel_graph(g, tau):
    # pendants and series vertices go until one vertex is left, whose tree
    # sum is 1, so num / den is tau itself
    nbr, links, num, den = degree_formula._star_mesh_reduce(g._class_table)
    assert not any(nbr) and not any(links)
    assert num == tau * den


def test_series_reduction_keeps_a_weighted_core():
    # a K5, whose vertices all keep four or more neighbours, with a path
    # from 1 to 2: the double class 1-5 and the single classes 5-7, 7-8,
    # 8-6 and 6-2 are in series, worth 1 / (1/2 + 4) = 2/9 of an edge,
    # which joins the K5's 1-2 class: the K5 is left with that class at
    # 11/9 of the others
    k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    g = build(9, k5 + [(1, 5)] * 2 + [(2, 6), (5, 7), (6, 8), (7, 8)])
    tau = tau_matrix_tree(g)
    nbr, links, num, den = degree_formula._star_mesh_reduce(g._class_table)
    assert [v for v, mask in enumerate(nbr) if mask] == [0, 1, 2, 3, 4]
    values = {(v, w): value for v in range(5) for w, value in links[v]}
    unit = values[0, 1]
    assert 9 * values[1, 2] == 11 * unit
    assert all(value == unit for pair, value in values.items() if set(pair) != {1, 2})
    assert num * degree_formula._minor_det(0b11111, links) == tau * den
    for core in (degree_formula._minor_det, degree_formula._tree_sum):
        assert num * degree_formula._block_product(nbr, links, core) == tau * den


def test_star_mesh_step_meshes_a_three_neighbour_vertex():
    # vertex 6 has classes of value 1, 2 and 3 to 0, 1 and 2, in a K6
    # without 0-2 and 1-2: 0-1 has a class and 0-2 and 1-2 do not. With
    # s = 6, 0-1 gains 1 * 2 / 6 = 1/3, and 0-2 and 1-2 gain classes of
    # 1 * 3 / 6 and 2 * 3 / 6. On the scale 6 the values are 8, 3 and 6
    # there and 6 elsewhere, of gcd 1, and every vertex left has five
    # neighbours, so nothing else goes
    k6 = [(a, b) for a in range(6) for b in range(a + 1, 6) if (a, b) not in ((0, 2), (1, 2))]
    g = build(7, k6 + [(6, 0)] + [(6, 1)] * 2 + [(6, 2)] * 3)
    nbr, links, num, den = degree_formula._star_mesh_reduce(g._class_table)
    assert (nbr[6], links[6]) == (0, ())
    assert all(mask == 0b111111 ^ 1 << v for v, mask in enumerate(nbr[:6]))
    values = {(v, w): value for v in range(6) for w, value in links[v]}
    assert [values.pop(pair) for pair in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))] == [
        8, 8, 3, 3, 6, 6,
    ]
    assert len(values) == 24 and set(values.values()) == {6}
    assert (num, den) == (6, 6**5)
    assert num * degree_formula._minor_det(0b111111, links) == tau_matrix_tree(g) * den
    assert tau_via_grouped_formula(g, 0) == tau_via_direct_formula(g, 0) == tau_matrix_tree(g)


def test_star_mesh_step_meshes_a_fractional_arm():
    # a K5 on 2..6 with vertex 1 joined to 3 and 4, and vertex 0 in series
    # between 1 (a double class) and 2. Vertex 0 goes first, s = 3, leaving
    # 1-2 a class of 2 * 1 / 3 = 2/3; vertex 1 then has three neighbours
    # with arms 2/3, 1 and 1, s = 8/3, so 2-3 and 2-4 gain 1/4 and 3-4 gains
    # 3/8. The K5 is left with 5/4, 5/4 and 11/8 there and 1 elsewhere: on
    # the scale 8, values 10, 10, 11 and 8 of gcd 1
    k5 = [(a, b) for a in range(2, 7) for b in range(a + 1, 7)]
    g = build(7, k5 + [(1, 3), (1, 4)] + [(0, 1)] * 2 + [(0, 2)])
    nbr, links, num, den = degree_formula._star_mesh_reduce(g._class_table)
    assert nbr[:2] == [0, 0] and links[:2] == [(), ()]
    values = {(v, w): value for v in range(2, 7) for w, value in links[v]}
    assert [values.pop(pair) for pair in ((2, 3), (2, 4), (3, 4))] == [10, 10, 11]
    assert [values.pop(pair) for pair in ((3, 2), (4, 2), (4, 3))] == [10, 10, 11]
    assert len(values) == 14 and set(values.values()) == {8}
    # num 3 * 8 from the two sums, den 3 from the second and 8^4 for the scale
    assert (num, den) == (24, 3 * 8**4)
    assert num * degree_formula._minor_det(0b1111100, links) == tau_matrix_tree(g) * den
    assert tau_via_grouped_formula(g, 0) == tau_via_direct_formula(g, 0) == tau_matrix_tree(g)


def test_star_mesh_reduction_scales_the_table_once_a_vertex_went():
    # a doubled K5 keeps every vertex and its values as given; with a
    # double pendant class the pendant goes, s = 2, and the K5's values
    # of 2 are put on the scale 1/2: num 2 * 2^4
    k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)] * 2
    nbr, links, num, den = degree_formula._star_mesh_reduce(build(5, k5)._class_table)
    assert {value for row in links for _, value in row} == {2}
    assert (num, den) == (1, 1)
    g = build(6, k5 + [(0, 5)] * 2)
    nbr, links, num, den = degree_formula._star_mesh_reduce(g._class_table)
    assert (nbr[5], links[5]) == (0, ())
    assert {value for row in links for _, value in row} == {1}
    assert (num, den) == (2 * 2**4, 1)
    assert num * degree_formula._minor_det(0b11111, links) == tau_matrix_tree(g) * den


_K5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
_OCTAHEDRON = [(a, b) for a in range(6) for b in range(a + 1, 6) if b - a != 3]


@pytest.mark.parametrize(
    "n, edges, kept, num, den",
    [
        # K5 with 0-1 subdivided by 5 and a pendant path 2-6-7: 5 goes by
        # the series rule (0-1 becomes 1/2), 6 by the series rule (2-7
        # becomes 1/2) and 7 as a pendant of value 1/2, so num 2 * 2 and den
        # 2; the K5 is left with 0-1 at half the others, on the scale 2:
        # values 1 and 2, den 2 * 2^4
        (8, [e for e in _K5 if e != (0, 1)] + [(0, 5), (5, 1), (2, 6), (6, 7)],
         0b11111, 4, 2 * 2**4),
        # the octahedron (K6 less 0-3, 1-4 and 2-5) with 0-1 subdivided by 6
        # and a vertex 7 with classes of value 1, 1 and 2 to 0, 3 and 5: 6
        # goes by the series rule (s = 2, 0-1 becomes 1/2), then 7 by the
        # star-mesh rule (s = 4), which gives 0-3 a class of 1/4 where the
        # octahedron has none and 0-5 and 3-5 3/2 each; every vertex left
        # has four or five neighbours. num 2 * 4; on the scale 4 the values
        # are 2, 1, 6 and 6 there and 4 elsewhere, den 4^5
        (8, [e for e in _OCTAHEDRON if e != (0, 1)] + [(0, 6), (6, 1), (7, 0), (7, 3)]
         + [(7, 5)] * 2, 0b111111, 8, 4**5),
    ],
    ids=["k5-subdivided-with-a-pendant-path", "octahedron-with-a-series-and-a-wye-vertex"],
)
def test_star_mesh_reduction_keeps_a_core_after_some_vertices_go(n, edges, kept, num, den):
    # a partial reduction, which no census graph reaches: it matches the
    # integer-scaling reference and keeps the tree count
    g = build(n, edges)
    tau = tau_matrix_tree(g)
    nbr, links, got_num, got_den = degree_formula._star_mesh_reduce(g._class_table)
    ref_nbr, ref_links, ref_num, ref_den = star_mesh_reduce_by_scaling(g._class_table)
    assert sum(1 << v for v, mask in enumerate(nbr) if mask) == kept
    assert (list(nbr), list(links)) == (list(ref_nbr), list(ref_links))
    assert (got_num, got_den) == (num, den)
    assert got_num * ref_den == ref_num * got_den
    assert num * degree_formula._minor_det(kept, links) == tau * den
    assert tau_via_grouped_formula(g, 0) == tau_via_direct_formula(g, 0) == tau


def test_a_remainder_after_the_reduction_is_an_error(monkeypatch):
    # num * value == tau * den, so 2 * den leaves a remainder at an odd tau
    # (the wheel on 4 rim vertices has 45 trees). A raise, not an assert,
    # so python -O keeps the check
    real = degree_formula._star_mesh_reduce

    def doubled_den(links):
        nbr, links, num, den = real(links)
        return nbr, links, num, 2 * den

    monkeypatch.setattr(degree_formula, "_star_mesh_reduce", doubled_den)
    g = generate_family(FamilySpec("wheel", (4,)))
    for route in (tau_via_grouped_formula, tau_via_direct_formula):
        with pytest.raises(ArithmeticError, match="^the star-mesh reduction left a remainder$"):
            route(g, 0)


def test_series_reduction_answers_where_the_set_budget_fired(monkeypatch):
    # unreduced, the grouped route's walk on this draw passes the
    # 10^6-set budget after several seconds; its 40 vertices reduce to 7,
    # whose walk visits a few sets
    g = random_multigraph(RandomSpec(n=40, m=64, seed=12))
    nbr = degree_formula._star_mesh_reduce(g._class_table)[0]
    assert sum(1 for mask in nbr if mask) == 7
    monkeypatch.setattr(degree_formula, "CORRECTION_SET_BUDGET", 10_000)
    u, _ = best_thomassen_bound(g)
    assert tau_via_grouped_formula(g, u) == tau_via_direct_formula(g, u) == tau_matrix_tree(g)


def test_star_mesh_reduction_answers_where_the_series_rule_left_the_set_budget():
    # with pendants and series vertices removed only, this draw keeps 24
    # vertices and its grouped walk passes the 10^6-set budget; meshing the
    # three-neighbour vertices leaves 14. The direct route is left out: it
    # walks the trees of cores of up to 12 vertices, over a minute here
    g = random_multigraph(RandomSpec(n=40, m=64, seed=3))
    nbr = degree_formula._star_mesh_reduce(g._class_table)[0]
    assert sum(1 for mask in nbr if mask) == 14
    assert tau_via_grouped_formula(g, 0) == tau_matrix_tree(g)


def _random_cubic(n, seed):
    # a simple connected graph with three distinct neighbours at every
    # vertex: 3n half-edges paired at random until the pairing is one
    rng = random.Random(seed)
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        edges = list(zip(ends[::2], ends[1::2]))
        if all(a != b for a, b in edges) and len({frozenset(e) for e in edges}) == len(edges):
            g = build(n, edges)
            if g.is_connected():
                return g


def test_star_mesh_reduction_shrinks_a_random_cubic_graph():
    # no vertex has one or two distinct neighbours, so the series rule
    # alone leaves all 30, and the grouped walk passes the 10^6-set budget
    # there; meshing leaves 13. The grouped route only: the direct route
    # walks the trees of the meshed cores, about 3 s here
    g = _random_cubic(30, 2)
    assert all(mask.bit_count() == 3 for mask in g._neighbor_masks)
    nbr = degree_formula._star_mesh_reduce(g._class_table)[0]
    assert sum(1 for mask in nbr if mask) == 13
    assert tau_via_grouped_formula(g, 0) == tau_matrix_tree(g)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: tau_via_grouped_formula(g, 0),
        lambda g: tau_via_direct_formula(g, 0),
        lambda g: [
            check_identity(g, 0, w) for w in ([1] * g.m, [j % 3 - 1 for j in range(g.m)])
        ],
        lambda g: list(enumerate_connected_sets(g, 0, g.n)),
        lambda g: list(enumerate_spanning_trees(g)),
        brute_force_matching,
    ],
    ids=["grouped", "direct", "identity", "connected_sets", "spanning_trees", "matching"],
)
def test_degree_routes_leave_no_cycle_to_the_collector(call):
    # the recursive walks, and the reference walks and matching search,
    # call themselves through closure cells; each cell must be emptied when
    # its call returns, or every call leaves a function -> cell -> function
    # cycle holding its walk state and memo
    g = generate_family(FamilySpec("wheel", (8,)))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call(g)
        gc.collect()
        left = [
            obj.__qualname__
            for obj in gc.garbage
            if callable(obj) and getattr(obj, "__module__", "").startswith("treecount")
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []
