from __future__ import annotations

import pytest

from treecount import (
    Multigraph,
    build,
    contract_edge,
    delete_vertices,
    induced,
    parse,
    serialize,
)
from treecount.errors import (
    EdgeOutOfRangeError,
    EmptySetError,
    GraphTooLargeError,
    LoopEdgeError,
    ParseError,
    VertexOutOfRangeError,
)


def test_build_figure_one_shape(figure_one):
    assert figure_one.n == 4
    assert figure_one.m == 6
    assert figure_one.edges == ((0, 1), (1, 2), (0, 2), (0, 2), (2, 3), (0, 3))


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
