from __future__ import annotations

import random
import sys
from itertools import permutations

import pytest

from conftest import seeded_suite
from oracles import spanning_tree_count_brute
from treecount import (
    FamilySpec,
    Multigraph,
    RandomSpec,
    build,
    closed_form_tau,
    count_spanning_trees,
    enumerate_spanning_trees,
    generate_family,
    random_multigraph,
    tau_deletion_contraction,
    tau_matrix_tree,
    tau_weighted_matrix_tree,
)
from treecount import counting
from treecount.counting import (
    _minor_det,
    _pick_first_edge,
    _pick_min_degree,
    _tau_dc,
    _tree_sum,
)
from treecount.errors import (
    BudgetExceededError,
    EmptyGraphError,
    InvalidSpecError,
    LengthMismatchError,
)


def complete(n):
    return generate_family(FamilySpec("complete", (n,)))


def test_matrix_tree_cayley():
    assert tau_matrix_tree(complete(5)) == 125


def test_matrix_tree_figure_one(figure_one):
    assert tau_matrix_tree(figure_one) == 12


def test_matrix_tree_disconnected_is_zero():
    assert tau_matrix_tree(build(4, [(0, 1), (2, 3)])) == 0
    assert tau_matrix_tree(build(2, [])) == 0


def test_matrix_tree_single_vertex():
    assert tau_matrix_tree(build(1, [])) == 1


def test_matrix_tree_rejects_empty_graph():
    with pytest.raises(EmptyGraphError):
        tau_matrix_tree(Multigraph(0))


def test_weighted_all_ones_recovers_count(figure_one, wheel4):
    for g in (figure_one, wheel4, complete(5)):
        assert tau_weighted_matrix_tree(g, [1] * g.m) == tau_matrix_tree(g)


def test_weighted_parallel_pair():
    g = build(2, [(0, 1), (0, 1)])
    assert tau_weighted_matrix_tree(g, [2, 3]) == 5


def test_weighted_triangle(triangle):
    # trees are the three edge pairs: 1*2 + 2*3 + 1*3
    assert tau_weighted_matrix_tree(triangle, [1, 2, 3]) == 11


def test_weighted_accepts_negative_weights(triangle):
    assert tau_weighted_matrix_tree(triangle, [-1, 2, -3]) == (-2) + (-6) + 3


def test_weighted_rejects_bad_length(triangle):
    with pytest.raises(LengthMismatchError):
        tau_weighted_matrix_tree(triangle, [1, 2])
    # the class sums check the point themselves: a short one is no IndexError,
    # a long one is not cut to its first m weights
    for w in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(LengthMismatchError, match=f"expected 3 weights, got {len(w)}"):
            triangle._class_sums(w)


def test_weighted_matches_explicit_tree_sum():
    for g in seeded_suite(25, seed=5150, max_n=6, max_m=12):
        w = [((j * 7919) % 13) - 6 for j in range(g.m)]
        explicit = 0
        for tree in enumerate_spanning_trees(g):
            product = 1
            for j in tree:
                product *= w[j]
            explicit += product
        assert tau_weighted_matrix_tree(g, w) == explicit


def test_deletion_contraction_parallel_edges():
    assert tau_deletion_contraction(build(2, [(0, 1)] * 3)) == 3


def test_deletion_contraction_wheel(wheel4):
    assert tau_deletion_contraction(wheel4) == 45


def test_deletion_contraction_path(path3):
    assert tau_deletion_contraction(path3) == 1


def test_deletion_contraction_disconnected():
    assert tau_deletion_contraction(build(3, [(0, 1)])) == 0


def test_deletion_contraction_rejects_empty_graph():
    with pytest.raises(EmptyGraphError):
        tau_deletion_contraction(Multigraph(0))


def test_deletion_contraction_rejects_unknown_heuristic(triangle):
    with pytest.raises(ValueError):
        tau_deletion_contraction(triangle, heuristic="bogus")


def test_deletion_contraction_heuristics_agree():
    for g in seeded_suite(40, seed=777, max_n=7, max_m=14, connected=False):
        a = tau_deletion_contraction(g, "min-degree")
        b = tau_deletion_contraction(g, "first-edge")
        assert a == b == tau_matrix_tree(g)


class CountingMemo(dict):
    """A delete/contract memo that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_deletion_contraction_reuses_minors_of_k5():
    # different delete/contract sequences reach the same labelled minor, so
    # the memo is asked more often than it stores a count
    k5 = complete(5)
    memo = CountingMemo()
    assert _tau_dc(5, {pair: len(js) for pair, js in k5._classes}, _pick_min_degree, memo) == 125
    assert memo.lookups > len(memo)


def test_deletion_contraction_deletes_a_pendant_chain_in_place():
    # a triangle with a 6-vertex tail of doubled classes: every tail vertex is
    # pendant in turn and deleted, so only the root minor is counted, with no
    # recursion
    edges = [(0, 1), (1, 2), (0, 2)] + [(v, v + 1) for v in range(2, 8)] * 2
    g = build(9, edges)
    memo = {}
    assert _tau_dc(9, {pair: len(js) for pair, js in g._classes}, _pick_min_degree, memo) == 3 * 2**6
    assert len(memo) == 1
    assert tau_deletion_contraction(g, "first-edge") == tau_matrix_tree(g) == 192


def test_deletion_contraction_deletes_a_series_vertex_in_place():
    # a 6-cycle of classes 1, 2, 3, 1, 2, 3 with a 0-3 chord. Vertex 1 goes
    # by the series rule with p = 1 and q = 2: G - 1 is counted in place and
    # only (G - 1)/02, on 4 vertices, recurses, where the 0-3 chord and the
    # 2-3 class merge into one class of 4. Vertex 4 goes the same way in
    # each, so three minors are counted: G, (G - 1)/02 and one of 2 vertices
    edges = [(0, 1)] + [(1, 2)] * 2 + [(2, 3)] * 3 + [(3, 4)] + [(4, 5)] * 2 + [(5, 0)] * 3 + [(0, 3)]
    g = build(6, edges)
    for pick in (_pick_min_degree, _pick_first_edge):
        memo = {}
        assert _tau_dc(6, {pair: len(js) for pair, js in g._classes}, pick, memo) == 253
        assert sorted(n for n, _ in memo) == [2, 4, 6]
        # (G - 1)/02, classes 1-2 of 1, 2-3 of 2, 0-3 of 3 and 0-1 of 4, as keyed
        assert memo[4, (1 << 12 | 1 << 6 | 2, 2 << 12 | 2 << 6 | 3, 3 << 12 | 3, 4 << 12 | 1)] == 50
    assert tau_matrix_tree(g) == 253


def _unpacked(memo):
    # each memo key as its vertex count and its (c, lo, hi) classes
    return sorted((n, [(k >> 12, k >> 6 & 63, k & 63) for k in key]) for n, key in memo)


@pytest.mark.parametrize(
    "pick,minors",
    [
        (_pick_min_degree, [
            (2, [(2, 0, 1)]),
            (3, [(1, 0, 1), (1, 1, 2), (2, 0, 2)]),
            (3, [(2, 0, 2), (2, 1, 2), (3, 0, 1)]),
            (4, [(1, 0, 2), (1, 0, 3), (1, 1, 2), (1, 2, 3), (2, 0, 1), (2, 1, 3)]),
        ]),
        (_pick_first_edge, [
            (2, [(2, 0, 1)]),
            (3, [(1, 0, 1), (1, 0, 2), (2, 1, 2)]),
            (3, [(1, 1, 2), (2, 0, 1), (3, 0, 2)]),
            (4, [(1, 0, 1), (1, 0, 2), (1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 0, 3)]),
        ]),
    ],
    ids=["min-degree", "first-edge"],
)
def test_deletion_contraction_deletes_a_pendant_below_its_neighbour(pick, minors):
    # vertex 0 hangs off hub 5 of a wheel on 1..5 (rim 1-2-3-4, 1-2 doubled)
    # by a class of 3. Deleting 0 relabels the wheel 0..4 with the hub last;
    # contracting 0-5 would have put the hub at 0, keying every minor below
    # differently. The pendant recurses on nothing, so the minors past the
    # root are those of the wheel alone
    edges = [(0, 5)] * 3 + [(1, 2)] * 2 + [(2, 3), (3, 4), (1, 4)] + [(v, 5) for v in range(1, 5)]
    g = build(6, edges)
    root = (6, [(1, 1, 4), (1, 1, 5), (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5),
                (2, 1, 2), (3, 0, 5)])
    memo = {}
    assert _tau_dc(6, {pair: len(js) for pair, js in g._classes}, pick, memo) == 3 * 69
    assert _unpacked(memo) == sorted(minors + [root])
    assert tau_matrix_tree(g) == 207


@pytest.mark.parametrize(
    "spec,heuristic,minors",
    [
        (FamilySpec("complete", (11,)), "min-degree", 4_535),
        (FamilySpec("hypercube", (4,)), "min-degree", 8_976),
        (FamilySpec("hypercube", (4,)), "first-edge", 5_571),
    ],
    ids=["K11", "Q4", "Q4-first-edge"],
)
def test_deletion_contraction_counts_the_documented_minors(spec, heuristic, minors):
    # the minor counts that DEL_CON_NODE_BUDGET's comment and the README quote
    g = generate_family(spec)
    memo = {}
    pick = counting.DELETION_CONTRACTION_HEURISTICS[heuristic]
    assert _tau_dc(g.n, {pair: len(js) for pair, js in g._classes}, pick, memo) == closed_form_tau(spec)
    assert len(memo) == minors


@pytest.mark.parametrize(
    "edges,tau",
    [
        ([(v, v + 1) for v in range(63)], 1),
        ([(v, (v + 1) % 64) for v in range(64)], 64),
    ],
    ids=["path", "cycle"],
)
def test_deletion_contraction_depth_stays_below_the_vertex_count(edges, tau):
    # only contraction recurses: the 64-cycle needs at most 61 nested calls
    g = build(64, edges)
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 72)
    try:
        for heuristic in ("min-degree", "first-edge"):
            assert tau_deletion_contraction(g, heuristic) == tau
    finally:
        sys.setrecursionlimit(limit)


def test_deletion_contraction_multiplicity_three_class():
    # a 4-cycle whose 0-1 class has 3 edges: 1 tree avoids it, 3 * 3 use it
    g = build(4, [(0, 1)] * 3 + [(1, 2), (2, 3), (0, 3)])
    assert tau_deletion_contraction(g) == tau_deletion_contraction(g, "first-edge") == 10
    # K4 with one tripled class, contracted and deleted alike
    k4 = build(4, list(complete(4).edges) + [(1, 3)] * 2)
    assert tau_deletion_contraction(k4) == tau_matrix_tree(k4) == 32


def test_first_edge_takes_the_class_of_edge_zero():
    # edge 0 is the 2-3 pair, not the lowest pair 0-1
    g = build(4, [(3, 2), (0, 1), (1, 2), (0, 3), (0, 2), (1, 2)])
    classes = {pair: len(js) for pair, js in g._classes}
    assert list(classes) == [(2, 3), (0, 1), (1, 2), (0, 3), (0, 2)]
    assert classes[1, 2] == 2
    assert _pick_first_edge(classes, []) == (2, 3)


def test_deletion_contraction_budget_names_its_limit(monkeypatch):
    monkeypatch.setattr(counting, "DEL_CON_NODE_BUDGET", 3)
    with pytest.raises(
        BudgetExceededError,
        match="delete/contract exceeded the 3-node budget after counting 3 minors",
    ):
        tau_deletion_contraction(complete(6))
    # a path is closed out by pendant deletion alone: one node
    assert tau_deletion_contraction(build(10, [(v, v + 1) for v in range(9)] * 2)) == 2**9


def _count_determinants(monkeypatch):
    taken = []
    real = counting._spanning_minor_det

    def spy(g, links):
        taken.append(g.n)
        return real(g, links)

    monkeypatch.setattr(counting, "_spanning_minor_det", spy)
    return taken


def test_enumeration_refuses_k10_before_walking(monkeypatch):
    # K10 has 10^8 spanning trees: refused with the exact figure, no walk
    walked = []
    monkeypatch.setattr(counting, "_tree_sum", lambda s, links: walked.append(s))
    with pytest.raises(
        BudgetExceededError,
        match="enumeration exceeds the 10000000-tree budget: the walk would visit 100000000 trees",
    ):
        count_spanning_trees(complete(10))
    assert walked == []


def test_enumeration_budget_admits_k9(monkeypatch):
    # K9's degree product 8^8 = 16,777,216 passes the budget, so its
    # 9^7 = 4,782,969 trees are counted by one determinant; they fit, so
    # the walk is reached
    assert counting.ENUM_TREE_BUDGET == 10**7
    taken = _count_determinants(monkeypatch)
    monkeypatch.setattr(counting, "_tree_sum", lambda s, links: ("walked", s))
    assert count_spanning_trees(complete(9)) == ("walked", (1 << 9) - 1)
    assert taken == [9]


def test_enumeration_of_a_disconnected_graph_does_not_walk(monkeypatch):
    # the count is 0 before any walk or determinant: K8 plus an isolated
    # vertex, two parallel components, a lone edge, and two components whose
    # degree products are nonzero (the reference walk yields nothing there)
    taken = _count_determinants(monkeypatch)
    walked = []
    monkeypatch.setattr(counting, "_tree_sum", lambda s, links: walked.append(s))
    k8 = complete(8).edges
    two = build(5, [(0, 1), (0, 1), (2, 3), (3, 4), (2, 4)])
    for g in (build(9, k8), build(4, [(0, 1), (2, 3), (2, 3)]), build(3, [(0, 1)]), two):
        assert count_spanning_trees(g) == 0
    assert list(enumerate_spanning_trees(two)) == []
    assert (walked, taken) == ([], [])
    assert count_spanning_trees(build(1, [])) is None  # a connected graph is walked
    assert walked == [1]


def test_enumeration_budget_counts_the_simple_trees(monkeypatch):
    # the walk has one leaf per tree of the underlying simple graph: a triangle
    # with every edge doubled has 12 trees but 3 leaves, and its value comes
    # from the walk, not from the figure
    monkeypatch.setattr(counting, "ENUM_TREE_BUDGET", 3)
    doubled = build(3, [(0, 1), (0, 2), (1, 2)] * 2)
    assert count_spanning_trees(doubled) == 12
    with pytest.raises(
        BudgetExceededError,
        match="enumeration exceeds the 3-tree budget: the walk would visit 16 trees",
    ):
        count_spanning_trees(complete(4))


def test_walk_size_of_a_pool_sized_graph_takes_no_determinant(monkeypatch):
    # n = 10, m = 18: the degrees sum to 36, so both degree products are at
    # most 4^9 = 262,144, far inside the budget
    g = random_multigraph(RandomSpec(n=10, m=18, seed=1))
    tau = tau_matrix_tree(g)
    taken = _count_determinants(monkeypatch)
    assert count_spanning_trees(g) == tau
    assert next(enumerate_spanning_trees(g))
    assert taken == []


def test_walk_size_bound_leaves_out_the_largest_row(monkeypatch):
    # K4 less 2-3 has distinct-neighbour counts 3, 3, 2, 2: its bound is
    # 3 * 2 * 2 = 12, with no determinant at a budget of 12 and one below
    taken = _count_determinants(monkeypatch)
    g = build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    monkeypatch.setattr(counting, "ENUM_TREE_BUDGET", 12)
    assert count_spanning_trees(g) == 8
    assert taken == []
    monkeypatch.setattr(counting, "ENUM_TREE_BUDGET", 11)
    assert count_spanning_trees(g) == 8
    assert taken == [4]


def test_reference_walk_refuses_k10_before_its_first_tree():
    with pytest.raises(
        BudgetExceededError,
        match="^reference enumeration exceeds the 10000000-tree budget: "
        "the walk would visit 100000000 trees$",
    ):
        next(enumerate_spanning_trees(complete(10)))


def test_reference_walk_is_sized_by_tau(monkeypatch, figure_one):
    # figure one has tau = 12 but 8 trees in its underlying simple graph; the
    # reference walk visits every edge set, so tau is its size
    monkeypatch.setattr(counting, "ENUM_TREE_BUDGET", 11)
    with pytest.raises(
        BudgetExceededError,
        match="^reference enumeration exceeds the 11-tree budget: the walk would visit 12 trees$",
    ):
        next(enumerate_spanning_trees(figure_one))
    monkeypatch.setattr(counting, "ENUM_TREE_BUDGET", 12)
    assert len(list(enumerate_spanning_trees(figure_one))) == 12


def test_reference_walk_of_a_disconnected_graph_does_not_walk():
    # K8 plus an isolated vertex has tau = 0: nothing is yielded, and the
    # walk's recursive `extend` is never entered
    entered = 0

    def probe(frame, event, arg):
        nonlocal entered
        code = frame.f_code
        if event == "call" and code.co_name == "extend" and code.co_filename == counting.__file__:
            entered += 1

    g = build(9, complete(8).edges)
    sys.setprofile(probe)
    try:
        trees = list(enumerate_spanning_trees(g))
    finally:
        sys.setprofile(None)
    assert (trees, entered) == ([], 0)


def test_enumeration_triangle_order(triangle):
    assert list(enumerate_spanning_trees(triangle)) == [
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    ]


def test_enumeration_counts_figure_one(figure_one):
    trees = list(enumerate_spanning_trees(figure_one))
    assert len(trees) == 12
    assert len(set(trees)) == 12


def test_enumeration_disconnected_is_empty():
    assert list(enumerate_spanning_trees(build(3, [(0, 1)]))) == []


def test_enumeration_rejects_the_empty_graph():
    trees = enumerate_spanning_trees(Multigraph(0))
    with pytest.raises(EmptyGraphError, match="^spanning trees need at least one vertex$"):
        next(trees)


def test_enumeration_single_vertex():
    assert list(enumerate_spanning_trees(build(1, []))) == [frozenset()]


def test_enumeration_is_lexicographic(figure_one):
    trees = [tuple(sorted(t)) for t in enumerate_spanning_trees(figure_one)]
    assert trees == sorted(trees)


def test_enumeration_matches_brute_force_on_suite():
    for g in seeded_suite(30, seed=31337, max_n=6, max_m=10, connected=False):
        got = list(enumerate_spanning_trees(g))
        assert len(got) == spanning_tree_count_brute(g)
        assert len(set(got)) == len(got)


def test_cross_method_agreement_on_suite():
    for g in seeded_suite(60, seed=4242, max_n=8, max_m=18):
        expected = tau_matrix_tree(g)
        assert tau_deletion_contraction(g) == expected
        assert sum(1 for _ in enumerate_spanning_trees(g)) == expected
        assert count_spanning_trees(g) == expected


def test_class_walk_single_vertex_is_one(figure_one):
    assert count_spanning_trees(build(1, [])) == 1
    links = figure_one._class_table
    assert [_tree_sum(1 << v, links) for v in range(4)] == [1, 1, 1, 1]


def test_class_walk_disconnected_set_is_zero(figure_one):
    # {1, 3} has no class inside; {0, 1, 3} is joined through 0
    links = figure_one._class_table
    assert _tree_sum(0b1010, links) == 0
    assert _tree_sum(0b1011, links) == 1
    assert count_spanning_trees(build(4, [(0, 1), (2, 3), (2, 3)])) == 0


@pytest.mark.parametrize("k", [1, 2, 5])
def test_class_walk_parallel_pair_gives_its_multiplicity(k):
    assert count_spanning_trees(build(2, [(0, 1)] * k)) == k


def test_class_walk_complete_four():
    assert count_spanning_trees(complete(4)) == 16


def test_class_walk_weighs_each_tree_by_its_class_sums(figure_one):
    # the simple graph is K4 less the 1-3 edge: 8 trees, 4 of them through
    # the 0-2 class, which carries 5 + 6
    w = [1, 1, 5, 6, 1, 1]
    assert _tree_sum(0b1111, figure_one._class_sums(w)) == 4 * 1 + 4 * 11
    assert tau_weighted_matrix_tree(figure_one, w) == 48


def _relabelled(g, perm):
    return build(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def test_class_walk_value_does_not_depend_on_the_labels():
    # the walk starts at the sparsest vertex and numbers the classes in that
    # order, so relabelling changes its branches but not its sum: under all
    # 24 labellings of this multigraph, whose 1-2 class sums to 0 at the
    # signed weights, every sub-mask agrees with its minor's determinant
    g = build(4, [(0, 1), (0, 1), (0, 2), (1, 2), (1, 2), (1, 2), (2, 3), (1, 3)])
    w = [2, -1, 3, 0, 2, -2, 4, -3]
    for perm in permutations(range(4)):
        h = _relabelled(g, perm)
        assert count_spanning_trees(h) == 25
        weighted = h._class_sums(w)
        assert _tree_sum(0b1111, weighted) == -45
        for s in range(1, 16):
            assert _tree_sum(s, h._class_table) == _minor_det(s, h._class_table)
            assert _tree_sum(s, weighted) == _minor_det(s, weighted)


def test_class_walk_value_does_not_depend_on_the_labels_of_n8_draws():
    rng = random.Random(8)
    for seed in range(4):
        g = random_multigraph(RandomSpec(n=8, m=14, seed=seed))
        w = [rng.randint(-3, 3) for _ in range(g.m)]
        tau, weighted = tau_matrix_tree(g), tau_weighted_matrix_tree(g, w)
        for _ in range(6):
            perm = list(range(8))
            rng.shuffle(perm)
            h = _relabelled(g, perm)
            assert count_spanning_trees(h) == tau
            assert _tree_sum(0xFF, h._class_sums(w)) == weighted


def test_class_walk_roots_a_sub_mask_at_its_sparsest_vertex():
    # S = {1, ..., 5} leaves out vertex 0. Inside S vertex 3 has one nonzero
    # class, -2 to 1 (its classes to 2 and 5 are valued 0, its 7 to 0 leaves
    # S), so the walk roots at 3, not at 1; 2, 4 and 5 have three classes
    # each and 1 has four. Every tree takes 1-3, so the sum is -2 times the
    # tree sum of the signed K4 on {1, 2, 4, 5}, which is -16
    classes = {
        (0, 1): 5, (0, 3): 7, (1, 2): 3, (1, 3): -2, (1, 4): -1, (1, 5): 2,
        (2, 3): 0, (2, 4): 4, (2, 5): -3, (3, 5): 0, (4, 5): 1,
    }
    links = [[] for _ in range(6)]
    for (a, b), c in sorted(classes.items()):
        links[a].append((b, c))
        links[b].append((a, c))
    assert _minor_det(0b110110, links) == -16
    assert _tree_sum(0b111110, links) == _minor_det(0b111110, links) == 32


def test_class_walk_depth_stays_below_the_vertex_count():
    # only inclusion recurses: the 64-cycle needs under 64 nested walk
    # frames, far fewer than a walk that recursed on exclusion too
    cycle = build(64, [(v, (v + 1) % 64) for v in range(64)])
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    # a line tracer's call runs on top of the deepest walk frame: one that
    # adds (file, line) pairs to a set needs 3 more levels (least passing
    # headroom under `python -m pytest`: 72 untraced, 75 traced)
    sys.setrecursionlimit(depth + 72 + (3 if sys.gettrace() else 0))
    try:
        assert count_spanning_trees(cycle) == 64
    finally:
        sys.setrecursionlimit(limit)


def test_class_walk_rejects_the_empty_graph():
    with pytest.raises(EmptyGraphError, match="spanning trees need at least one vertex"):
        count_spanning_trees(Multigraph(0))


def test_wheel_shape(wheel4):
    assert wheel4.n == 5 and wheel4.m == 8
    assert wheel4.degree(4) == 4
    assert wheel4.degrees()[:4] == (3, 3, 3, 3)


def test_multiwheel_shape(multiwheel4):
    assert multiwheel4.n == 5 and multiwheel4.m == 12
    assert multiwheel4.degree(4) == 8
    assert multiwheel4.degrees()[:4] == (4, 4, 4, 4)


def test_hypercube_two_is_a_square():
    q2 = generate_family(FamilySpec("hypercube", (2,)))
    assert q2.n == 4 and q2.m == 4
    assert q2.degrees() == (2, 2, 2, 2)
    assert tau_matrix_tree(q2) == 4


def test_multipartite_shape():
    k23 = generate_family(FamilySpec("multipartite", (2, 3)))
    assert k23.n == 5 and k23.m == 6
    assert k23.degrees() == (3, 3, 2, 2, 2)


@pytest.mark.parametrize(
    "kind,sizes",
    [
        ("wheel", (2,)),
        ("multiwheel", (1,)),
        ("complete", (0,)),
        ("complete", (1, 2)),
        ("hypercube", (7,)),
        ("nonsense", (3,)),
        ("multipartite", ()),
    ],
)
def test_invalid_family_specs(kind, sizes):
    with pytest.raises(InvalidSpecError):
        FamilySpec(kind, sizes)


def test_family_over_the_vertex_cap_names_its_size():
    with pytest.raises(InvalidSpecError, match="^family would have 65 vertices, maximum is 64$"):
        FamilySpec("complete", (65,))


@pytest.mark.parametrize(
    "kind, sizes",
    [
        ("complete", (2.5,)),
        ("complete", (True,)),
        ("hypercube", (3.0,)),
        ("multipartite", (2, "3")),
        ("wheel", (None,)),
    ],
)
def test_non_int_family_sizes_are_rejected_at_construction(kind, sizes):
    # these used to pass the constructor and fail inside generate_family
    with pytest.raises(TypeError, match="family sizes must be ints"):
        FamilySpec(kind, sizes)


@pytest.mark.parametrize(
    "spec,expected",
    [
        (FamilySpec("complete", (1,)), 1),
        (FamilySpec("complete", (2,)), 1),
        (FamilySpec("complete", (6,)), 1296),
        (FamilySpec("multipartite", (2, 3)), 12),
        (FamilySpec("multipartite", (2, 2, 2)), 384),
        (FamilySpec("multipartite", (3,)), 0),
        (FamilySpec("multipartite", (1,)), 1),
        (FamilySpec("hypercube", (1,)), 1),
        (FamilySpec("hypercube", (2,)), 4),
        (FamilySpec("hypercube", (3,)), 384),
        (FamilySpec("hypercube", (4,)), 42467328),
        (FamilySpec("wheel", (4,)), None),
        (FamilySpec("multiwheel", (5,)), None),
    ],
)
def test_closed_forms(spec, expected):
    assert closed_form_tau(spec) == expected


def test_closed_forms_match_matrix_tree():
    specs = [
        FamilySpec("complete", (n,)) for n in range(2, 8)
    ] + [
        FamilySpec("multipartite", (2, 3)),
        FamilySpec("multipartite", (2, 2, 2)),
        FamilySpec("multipartite", (1, 1, 4)),
        FamilySpec("hypercube", (2,)),
        FamilySpec("hypercube", (3,)),
    ]
    for spec in specs:
        assert closed_form_tau(spec) == tau_matrix_tree(generate_family(spec))
