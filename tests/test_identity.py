from __future__ import annotations

import random

import pytest

import treecount.degree_formula
import treecount.identity
from conftest import seeded_suite
from oracles import evaluate_poly, identity_rhs_by_subtrees
from treecount import (
    Multigraph,
    SubTree,
    build,
    check_identity,
    direct_formula_value,
    f_value,
    identity_lhs,
    identity_rhs,
    multiply_forms,
    tau_matrix_tree,
    thomassen_bound,
    tree_weight,
)
from treecount.counting import _minor_det
from treecount.degree_formula import _correction_sets, _tree_counter
from treecount.errors import (
    DisconnectedError,
    EmptyGraphError,
    LengthMismatchError,
    VertexOutOfRangeError,
)


def _count_tree_calls(monkeypatch):
    # records each tree counter's top-level calls, one list per counter in
    # the order the counters are made (one per weight point); a counter's
    # own leaf-stripping recursion is not recorded
    calls = []
    real = treecount.degree_formula._tree_counter

    def spying(nbr, links, core):
        count, seen = real(nbr, links, core), []
        calls.append(seen)
        return lambda s: seen.append(s) or count(s)

    monkeypatch.setattr(treecount.degree_formula, "_tree_counter", spying)
    return calls


def test_f_value_figure_one_all_ones(figure_one):
    assert f_value(figure_one, [1] * 6) == 64


def test_f_value_empty_graph():
    assert f_value(Multigraph(0), []) == 1


def test_f_value_isolated_vertex_is_zero():
    g = build(3, [(0, 1)])
    assert f_value(g, [7]) == 0


def test_f_value_rejects_bad_length(figure_one):
    with pytest.raises(LengthMismatchError):
        f_value(figure_one, [1, 1])


def test_f_value_matches_expansion_route():
    for g in seeded_suite(20, seed=654, max_n=6, max_m=10, connected=False):
        forms = [g.incident_edges(v) for v in range(g.n)]
        poly = multiply_forms(forms)
        rng = random.Random(g.m)
        for _ in range(3):
            w = [rng.randint(-9, 9) for _ in range(g.m)]
            assert f_value(g, w) == evaluate_poly(poly, w)


def test_tree_weight():
    single = SubTree(0, frozenset({0}), frozenset())
    assert tree_weight(single, [5, 5]) == 1
    one_edge = SubTree(0, frozenset({0, 1}), frozenset({0}))
    assert tree_weight(one_edge, [7]) == 7
    two_edges = SubTree(0, frozenset({0, 1, 2}), frozenset({0, 1}))
    assert tree_weight(two_edges, [2, 3]) == 6
    with pytest.raises(LengthMismatchError):
        tree_weight(two_edges, [2])


def test_identity_lhs_at_ones_is_the_degree_bound(figure_one, wheel4):
    for g in (figure_one, wheel4):
        for u in range(g.n):
            assert identity_lhs(g, u, [1] * g.m) == thomassen_bound(g, u)


def test_identity_lhs_single_edge():
    g = build(2, [(0, 1)])
    assert identity_lhs(g, 1, [5]) == 5
    assert identity_lhs(build(1, []), 0, []) == 1


def test_identity_lhs_triangle_weights(triangle):
    # vertex 0 carries edges 0,1; vertex 1 carries edges 0,2
    assert identity_lhs(triangle, 2, [1, 2, 3]) == (1 + 2) * (1 + 3)


def test_identity_rhs_single_edge():
    g = build(2, [(0, 1)])
    assert identity_rhs(g, 1, [5]) == (5, 0)


def test_identity_rhs_at_ones_splits_the_bound(figure_one, wheel4):
    for g in (figure_one, wheel4):
        u = g.n - 1
        tau_term, nst_sum = identity_rhs(g, u, [1] * g.m)
        assert tau_term == tau_matrix_tree(g)
        assert nst_sum == thomassen_bound(g, u) - tau_term
    # at all ones the weighted correction is the direct formula's correction
    for g in seeded_suite(20, seed=97531, max_n=7, max_m=13):
        for u in range(g.n):
            correction = thomassen_bound(g, u) - direct_formula_value(g, u)
            assert identity_rhs(g, u, [1] * g.m)[1] == correction


def test_identity_rhs_requires_connected():
    with pytest.raises(DisconnectedError):
        identity_rhs(build(3, [(0, 1)]), 0, [1])


def test_check_identity_multiwheel_ones(multiwheel4):
    report = check_identity(multiwheel4, 4, [1] * 12)
    assert (report.lhs, report.tau_term, report.nst_sum) == (256, 192, 64)
    assert report.holds
    assert report.root == 4
    assert report.weight_point == (1,) * 12


def test_check_identity_figure_one_random_points(figure_one):
    rng = random.Random(321)
    for _ in range(5):
        w = [rng.randint(1, 10**6) for _ in range(6)]
        assert check_identity(figure_one, 3, w).holds


def test_check_identity_triangle_by_hand(triangle):
    w = [1, 2, 3]
    report = check_identity(triangle, 2, w)
    # lhs (1+2)(1+3) = 12; tau = 2 + 6 + 3 = 11; lone surviving subtree is {2}
    # whose remainder is the single edge 0 with value w0^2
    assert report.lhs == 12
    assert report.tau_term == 11
    assert report.nst_sum == 1
    assert report.holds


def test_identity_holds_at_signed_random_points():
    rng = random.Random(20240808)
    for g in seeded_suite(30, seed=13579, max_n=7, max_m=14):
        u = rng.randrange(g.n)
        for _ in range(5):
            w = [rng.randint(-1000, 1000) for _ in range(g.m)]
            report = check_identity(g, u, w)
            assert report.holds, (g, u, w)


def test_identity_rhs_one_and_two_vertices():
    cases = [
        (build(1, []), 0, []),
        (build(2, [(0, 1)]), 0, [-4]),
        (build(2, [(0, 1), (0, 1)]), 1, [3, -3]),
        (build(2, [(0, 1), (0, 1), (1, 0)]), 0, [0, 2, 5]),
    ]
    for g, u, w in cases:
        assert identity_rhs(g, u, w) == identity_rhs_by_subtrees(g, u, w)
        assert identity_rhs(g, u, w)[1] == 0


def test_identity_rhs_vanishing_remainder_without_isolated_vertex(monkeypatch):
    # root 0: the sets {0} and {0, 1} leave vertex 3 joined to 2 by a parallel
    # pair weighted 5 and -5, so their remainder products are 0; both sets
    # grow along a path, so their tree sums are carried and never counted
    g = build(4, [(0, 1), (1, 2), (2, 3), (2, 3)])
    w = [7, 11, 5, -5]
    calls = _count_tree_calls(monkeypatch)
    assert identity_rhs(g, 0, w) == identity_rhs_by_subtrees(g, 0, w) == (0, 0)
    assert calls == [[]]
    assert check_identity(g, 0, w).holds


def test_check_identity_builds_the_class_sums_once_per_point(monkeypatch, multiwheel4):
    # the weighted tree sum and the correction read one table of class sums
    built = []
    real = Multigraph._class_sums

    def spy(g, weights):
        built.append(tuple(weights))
        return real(g, weights)

    monkeypatch.setattr(Multigraph, "_class_sums", spy)
    rng = random.Random(5)
    for _ in range(3):
        w = [rng.randint(-5, 5) for _ in range(multiwheel4.m)]
        assert check_identity(multiwheel4, 4, w).holds
        assert built == [tuple(w)]
        built.clear()


def test_identity_rhs_walks_only_sets_with_a_covered_remainder(monkeypatch):
    # rooted at the centre of a star every remainder has an isolated leaf
    star = build(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    calls = _count_tree_calls(monkeypatch)
    assert identity_rhs(star, 0, [2, 3, 4, 5]) == (120, 0)
    assert calls == [[]]


def test_identity_counts_only_uncarried_sets_at_every_point(monkeypatch, figure_one, wheel4):
    # each point's walk carries its tree sum down every join at one
    # neighbour, so each point's counter sees only the sets whose last
    # vertex closed a cycle, whatever the weights. Rooted at 3, figure one
    # keeps three sets, each grown along a path
    count = _tree_counter(figure_one._neighbor_masks, figure_one._class_table, _minor_det)
    kept = _correction_sets(figure_one, 3, figure_one._class_table, count)
    assert [s for s, _, _ in kept] == [0b1000, 0b1001, 0b1100]
    calls = _count_tree_calls(monkeypatch)
    reports = [check_identity(figure_one, 3, w) for w in ([1] * 6, [2, 3, 4, 5, 6, 7])]
    assert all(r.holds for r in reports)
    assert calls == [[], []]
    calls.clear()
    # rooted at the hub 4, the four rim-hub triangles close a cycle
    points = [[1] * 8, [2, 3, 4, 5, 6, 7, 8, 9]]
    reports = [check_identity(wheel4, 4, w) for w in points]
    assert all(r.holds for r in reports)
    assert [(r.tau_term, r.nst_sum) for r in reports] == [
        identity_rhs_by_subtrees(wheel4, 4, w) for w in points
    ]
    cycles = [0b10011, 0b11001, 0b10110, 0b11100]
    assert calls == [cycles, cycles]


def test_identity_carries_a_set_whose_remainder_vanishes_at_one_point_only(monkeypatch):
    # the sets {0} and {0, 1} leave the 2-3 pair, weighted 5 and -5 at the
    # first point only; both points carry both sums down the path, so
    # neither counts a set
    g = build(4, [(0, 1), (1, 2), (2, 3), (2, 3)])
    calls = _count_tree_calls(monkeypatch)
    points = ([7, 11, 5, -5], [7, 11, 5, 5])
    reports = [check_identity(g, 0, w) for w in points]
    assert [(r.tau_term, r.nst_sum) for r in reports] == [
        identity_rhs_by_subtrees(g, 0, w) for w in points
    ]
    assert calls == [[], []]


def test_check_identity_checks_the_point_before_its_walk(monkeypatch, figure_one):
    def walk(g, u, weights):
        raise AssertionError("the walk ran on a point its left side rejects")

    monkeypatch.setattr(treecount.identity, "identity_rhs", walk)
    with pytest.raises(LengthMismatchError, match="expected 6 weights, got 5"):
        check_identity(figure_one, 3, [1] * 5)
    with pytest.raises(VertexOutOfRangeError):
        check_identity(figure_one, 4, [1] * 6)


@pytest.mark.parametrize(
    "g, u, w, error",
    [
        (build(0, []), 0, [1], LengthMismatchError),
        (build(3, [(0, 1)]), 5, [1, 2], LengthMismatchError),
        (build(0, []), 0, [], EmptyGraphError),
        (build(3, [(0, 1)]), 5, [1], DisconnectedError),
        (build(3, [(0, 1), (1, 2)]), 3, [1, 1], VertexOutOfRangeError),
        (build(1, []), -1, [], VertexOutOfRangeError),
    ],
)
def test_identity_rhs_error_order_is_unchanged(g, u, w, error):
    with pytest.raises(error):
        identity_rhs(g, u, w)
    with pytest.raises(error):
        identity_rhs_by_subtrees(g, u, w)


@pytest.mark.parametrize(
    "g, u, w, error",
    [
        (build(3, [(0, 1)]), 0, [1], DisconnectedError),
        (build(3, [(0, 1), (1, 2)]), 3, [1, 1], VertexOutOfRangeError),
    ],
)
def test_identity_rhs_refuses_its_input_before_the_determinant(monkeypatch, g, u, w, error):
    def det(g, links):
        raise AssertionError("the determinant was taken on input the guard refuses")

    monkeypatch.setattr(treecount.identity, "_spanning_minor_det", det)
    with pytest.raises(error):
        identity_rhs(g, u, w)


def test_identity_rhs_matches_the_subtree_route_with_zeros_and_parallel_edges(
    figure_one, multiwheel4
):
    rng = random.Random(4242)
    suite = seeded_suite(25, seed=2468, max_n=7, max_m=13, parallel_prob=0.6)
    for g in [figure_one, multiwheel4] + suite:
        u = rng.randrange(g.n)
        w = [rng.choice([0, 0, 1, -1, rng.randint(-9, 9)]) for _ in range(g.m)]
        assert identity_rhs(g, u, w) == identity_rhs_by_subtrees(g, u, w)
