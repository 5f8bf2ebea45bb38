from __future__ import annotations

import pytest

from conftest import seeded_suite
from treecount import (
    FamilySpec,
    Multigraph,
    build,
    contract_edge,
    delete_vertices,
    generate_family,
    induced,
    parse,
    serialize,
    tau_deletion_contraction,
)
from treecount import counting
from treecount.counting import _members
from treecount.errors import (
    EdgeOutOfRangeError,
    EmptySetError,
    GraphTooLargeError,
    LoopEdgeError,
    ParseError,
    VertexOutOfRangeError,
)
from treecount.graph import _blocks


def test_build_figure_one_shape(figure_one):
    assert figure_one.n == 4
    assert figure_one.m == 6
    assert figure_one.edges == ((0, 1), (1, 2), (0, 2), (0, 2), (2, 3), (0, 3))


def test_equality_with_another_type_is_left_to_the_other_side(figure_one):
    pair = (figure_one.n, figure_one.edges)
    assert figure_one.__eq__(pair) is NotImplemented
    assert not figure_one == pair


def test_build_single_vertex():
    g = build(1, [])
    assert g.n == 1 and g.m == 0


def test_build_normalizes_endpoint_order():
    g = build(3, [(2, 0), (1, 0)])
    assert g.edges == ((0, 2), (0, 1))


def test_build_rejects_loop():
    with pytest.raises(LoopEdgeError):
        build(2, [(0, 0)])


@pytest.mark.parametrize("pair", [(0, 2), (2, 0), (-1, 0), (0, -1)])
def test_build_rejects_out_of_range(pair):
    with pytest.raises(VertexOutOfRangeError):
        build(2, [pair])


def test_build_rejects_negative_vertex_count():
    with pytest.raises(ValueError):
        build(-1, [])


@pytest.mark.parametrize(
    "pairs, named",
    [
        ([(0, 1.0), (True, 2)], "edge 0"),
        ([(0, 1.0)], "edge 0"),
        ([(0, 1), (True, 2)], "edge 1"),
        ([(0, 1), (2, False)], "edge 1"),
    ],
)
def test_build_rejects_non_int_endpoints(pairs, named):
    with pytest.raises(TypeError, match=named):
        build(3, pairs)


@pytest.mark.parametrize("n", [2.0, True, "3"])
def test_constructor_rejects_non_int_vertex_count(n):
    with pytest.raises(TypeError, match="vertex count n"):
        Multigraph(n)


def test_build_rejects_oversized_graph():
    with pytest.raises(GraphTooLargeError):
        build(65, [])


def test_degree_counts_parallel_edges(figure_one):
    assert figure_one.degree(0) == 4
    assert figure_one.degree(1) == 2
    assert figure_one.degree(2) == 4
    assert figure_one.degree(3) == 2
    assert build(1, []).degree(0) == 0


def test_degree_out_of_range(figure_one):
    with pytest.raises(VertexOutOfRangeError):
        figure_one.degree(4)


def test_degree_sum_is_twice_edge_count(figure_one):
    assert sum(figure_one.degrees()) == 2 * figure_one.m


def test_incident_edges(figure_one):
    assert figure_one.incident_edges(3) == frozenset({4, 5})
    assert figure_one.incident_edges(2) == frozenset({1, 2, 3, 4})
    assert build(2, [(0, 1)]).incident_edges(0) == frozenset({0})


def test_incident_edges_isolated_vertex():
    g = build(3, [(0, 1)])
    assert g.incident_edges(2) == frozenset()
    assert g.has_isolated_vertex()


def test_neighbors_sorted_and_distinct(figure_one):
    assert figure_one.neighbors(0) == (1, 2, 3)
    assert figure_one.neighbors(2) == (0, 1, 3)


@pytest.mark.parametrize(
    "g,classes",
    [
        # figure one: the 0-2 class holds edges 2 and 3
        (
            build(4, [(0, 1), (1, 2), (0, 2), (0, 2), (2, 3), (0, 3)]),
            (((0, 1), (0,)), ((1, 2), (1,)), ((0, 2), (2, 3)), ((2, 3), (4,)), ((0, 3), (5,))),
        ),
        # the multiwheel on a 4-rim: every spoke doubled
        (
            generate_family(FamilySpec("multiwheel", (4,))),
            (((0, 1), (0,)), ((1, 2), (1,)), ((2, 3), (2,)), ((0, 3), (3,)),
             ((0, 4), (4, 5)), ((1, 4), (6, 7)), ((2, 4), (8, 9)), ((3, 4), (10, 11))),
        ),
        # a class's edges need not be adjacent, nor the first class the lowest pair
        (
            build(4, [(3, 2), (0, 1), (1, 2), (0, 3), (0, 2), (2, 1), (1, 0)]),
            (((2, 3), (0,)), ((0, 1), (1, 6)), ((1, 2), (2, 5)), ((0, 3), (3,)), ((0, 2), (4,))),
        ),
    ],
    ids=["figure-one", "multiwheel-4", "interleaved"],
)
def test_classes_list_each_pair_with_its_edges_in_first_edge_order(monkeypatch, g, classes):
    assert g._classes == classes
    # the neighbour masks, the class table and delete/contract's starting
    # multiplicities are all read off that one grouping
    masks = [0] * g.n
    rows = [[] for _ in range(g.n)]
    for (a, b), edges in classes:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
        rows[a].append((b, len(edges)))
        rows[b].append((a, len(edges)))
    assert g._neighbor_masks == tuple(masks)
    assert g._class_table == tuple(tuple(sorted(row)) for row in rows)
    started = []
    real = counting._tau_dc

    def spy(n, minor, pick, memo):
        started.append(list(minor.items()))
        return real(n, minor, pick, memo)

    monkeypatch.setattr(counting, "_tau_dc", spy)
    tau_deletion_contraction(g)
    assert started[0] == [(pair, len(edges)) for pair, edges in classes]


def test_delete_vertex_from_figure_one(figure_one):
    result = delete_vertices(figure_one, {1})
    assert result.graph.n == 3
    assert result.graph.edges == ((0, 1), (0, 1), (1, 2), (0, 2))
    assert result.graph.degrees() == (3, 3, 2)
    assert result.vertex_map == {0: 0, 2: 1, 3: 2}
    assert result.edge_origin == (2, 3, 4, 5)


def test_delete_nothing_is_identity(figure_one):
    result = delete_vertices(figure_one, set())
    assert result.graph == figure_one
    assert result.vertex_map == {v: v for v in range(4)}
    assert result.edge_origin == tuple(range(6))


def test_delete_everything_gives_empty_graph(figure_one):
    result = delete_vertices(figure_one, range(4))
    assert result.graph.n == 0
    assert result.graph.m == 0
    assert result.vertex_map == {}


def test_delete_out_of_range(figure_one):
    with pytest.raises(VertexOutOfRangeError):
        delete_vertices(figure_one, {9})


def test_induced_keeps_parallel_edges(figure_one):
    result = induced(figure_one, {0, 2})
    assert result.graph.n == 2
    assert result.graph.edges == ((0, 1), (0, 1))
    assert result.edge_origin == (2, 3)


def test_induced_on_all_vertices_is_identity(figure_one):
    assert induced(figure_one, range(4)).graph == figure_one


def test_induced_single_vertex(figure_one):
    assert induced(figure_one, {1}).graph == Multigraph(1)


def test_induced_rejects_empty_set(figure_one):
    with pytest.raises(EmptySetError):
        induced(figure_one, set())


def test_induced_matches_deleting_complement(figure_one):
    for keep in [{0}, {0, 1}, {1, 3}, {0, 2, 3}]:
        drop = set(range(4)) - keep
        assert induced(figure_one, keep).graph == delete_vertices(figure_one, drop).graph


def test_contract_parallel_class_collapses_to_point():
    g = build(2, [(0, 1), (0, 1), (0, 1)])
    got = contract_edge(g, 0)
    assert got.n == 1 and got.m == 0


def test_contract_triangle_edge(triangle):
    got = contract_edge(triangle, 0)
    assert got.n == 2
    assert got.edges == ((0, 1), (0, 1))


def test_contract_figure_one_first_edge(figure_one):
    # merged vertex keeps endpoints' non-class edges: 3 from vertex 0, 1 from vertex 1
    got = contract_edge(figure_one, 0)
    assert got.n == 3
    assert got.m == 5
    assert got.degree(0) == 4


def test_contract_out_of_range(figure_one):
    with pytest.raises(EdgeOutOfRangeError):
        contract_edge(figure_one, 6)


def test_is_connected(figure_one):
    assert figure_one.is_connected()
    assert not build(2, []).is_connected()
    assert build(1, []).is_connected()
    assert Multigraph(0).is_connected()
    assert not build(4, [(0, 1), (2, 3)]).is_connected()


def test_serialize_exact_format(path3):
    assert serialize(path3) == "n 3\ne 0 1\ne 1 2\n"


def test_round_trip(figure_one, path3, triangle):
    for g in (figure_one, path3, triangle, Multigraph(0), build(5, [])):
        assert parse(serialize(g)) == g


def test_parse_accepts_comments_and_blanks():
    text = "# header\n\nn 3\ne 0 1  # inline note\n# trailing\ne 1 2\n"
    assert parse(text) == build(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "e 0 1\n",
        "n\n",
        "n x\n",
        "n 2\nn 2\n",
        "n 2\ne 0\n",
        "n 2\ne 0 1 2\n",
        "n 2\nv 0 1\n",
        "n 2\ne 0 a\n",
        "n 2\ne 0 0\n",
        "n 2\ne 0 5\n",
        "n -2\n",
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse(text)


def _block_sets(g, root):
    return sorted(sorted(_members(block)) for block in _blocks(g._neighbor_masks, root))


BOWTIE = build(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


# each graph's block masks, whichever vertex the search starts from
@pytest.mark.parametrize(
    "g, root, blocks",
    [
        (build(1, []), 0, []),
        (build(2, [(0, 1)] * 3), 0, [[0, 1]]),
        (build(2, [(0, 1)] * 3), 1, [[0, 1]]),
        (build(4, [(0, 1), (1, 2), (2, 3)]), 0, [[0, 1], [1, 2], [2, 3]]),
        (build(4, [(0, 1), (1, 2), (2, 3)]), 3, [[0, 1], [1, 2], [2, 3]]),
        (build(4, [(0, 1), (0, 2), (0, 3)]), 0, [[0, 1], [0, 2], [0, 3]]),
        (build(4, [(0, 1), (0, 2), (0, 3)]), 2, [[0, 1], [0, 2], [0, 3]]),
        (BOWTIE, 0, [[0, 1, 2], [2, 3, 4]]),
        (BOWTIE, 2, [[0, 1, 2], [2, 3, 4]]),
        (BOWTIE, 4, [[0, 1, 2], [2, 3, 4]]),
        (build(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]), 1, [[0, 1, 2, 3]]),
    ],
)
def test_blocks_and_their_roots(g, root, blocks):
    assert _block_sets(g, root) == blocks


def _distances(nbr, root):
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in _members(nbr[v]):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _connected_within(nbr, within):
    seen = stack = within & -within
    while stack:
        low = stack & -stack
        stack ^= low
        new = nbr[low.bit_length() - 1] & within & ~seen
        seen |= new
        stack |= new
    return seen == within


@pytest.mark.parametrize("g", seeded_suite(25, 17, 9, 12, parallel_prob=0.3))
def test_blocks_split_the_edges_into_2_connected_pieces_rooted_nearest(g):
    nbr = g._neighbor_masks
    reference = None
    for root in range(g.n):
        masks = sorted(_blocks(nbr, root))
        # the blocks do not depend on where the search starts
        assert reference is None or masks == reference
        reference = masks
        dist = _distances(nbr, root)
        for block in masks:
            # each block has one vertex nearest the search root: the root
            # itself, or the cut vertex that separates the block from it
            near = min(dist[v] for v in _members(block))
            assert sum(1 for v in _members(block) if dist[v] == near) == 1
            if block.bit_count() > 2:
                # no vertex of a block of 3 or more disconnects it
                for v in _members(block):
                    assert _connected_within(nbr, block & ~(1 << v))
        # each adjacent pair lies in exactly one block
        for a, b in {tuple(e) for e in g.edges}:
            pair = 1 << a | 1 << b
            assert sum(1 for block in masks if block & pair == pair) == 1
