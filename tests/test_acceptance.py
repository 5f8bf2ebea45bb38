"""Acceptance suite.

Each test prints one [PASS]/[FAIL] line (run with `pytest -s` to see them
on success). Every expected number here is either a hand-checkable closed
form or cross-validated against an independent route inside the test.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from functools import lru_cache

from treecount import (
    FamilySpec,
    RandomSpec,
    build,
    brute_force_edge_cover,
    brute_force_matching,
    closed_form_tau,
    edge_cover_number_from_f,
    enumerate_connected_sets,
    enumerate_nst,
    enumerate_spanning_trees,
    expand_f,
    generate_family,
    induced,
    matching_number_from_f,
    perfect_matchings_from_f,
    random_multigraph,
    tau_deletion_contraction,
    tau_matrix_tree,
    tau_via_direct_formula,
    tau_via_grouped_formula,
    best_thomassen_bound,
    check_identity,
    thomassen_bound,
)
from treecount.cli import main

FIGURE_ONE_EDGES = [(0, 1), (1, 2), (0, 2), (0, 2), (2, 3), (0, 3)]


def _report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")


@lru_cache(maxsize=None)
def cross_method_suite() -> tuple:
    """200 seeded connected multigraphs with n <= 8, m <= 18, parallel bias 0.3."""
    rng = random.Random(882018)
    graphs = []
    for _ in range(200):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, 18)
        graphs.append(
            random_multigraph(
                RandomSpec(n=n, m=m, parallel_prob=0.3, seed=rng.randrange(2**31))
            )
        )
    return tuple(graphs)


def test_criterion_1_paper_fixtures():
    fixtures = [
        (FamilySpec("wheel", (4,)), 45),
        (FamilySpec("multiwheel", (4,)), 192),
        (FamilySpec("multiwheel", (5,)), 722),
    ]
    ok = True
    for spec, expected in fixtures:
        g = generate_family(spec)
        hub = g.n - 1
        for method in (
            tau_matrix_tree,
            tau_deletion_contraction,
            lambda h: tau_via_grouped_formula(h, hub),
            lambda h: tau_via_direct_formula(h, hub),
        ):
            start = time.perf_counter()
            value = method(g)
            elapsed = time.perf_counter() - start
            ok = ok and value == expected and elapsed < 1.0
    _report("criterion 1: wheel fixtures 45/192/722 by all four methods", ok)
    assert ok


def test_criterion_2_closed_form_families():
    start = time.perf_counter()
    ok = True
    for n in range(2, 9):
        spec = FamilySpec("complete", (n,))
        ok = ok and closed_form_tau(spec) == n ** (n - 2)
        ok = ok and closed_form_tau(spec) == tau_matrix_tree(generate_family(spec))
    for sizes, expected in [((2, 3), 12), ((2, 2, 2), 384)]:
        spec = FamilySpec("multipartite", sizes)
        ok = ok and closed_form_tau(spec) == expected
        ok = ok and tau_matrix_tree(generate_family(spec)) == expected
    for d, expected in [(2, 4), (3, 384), (4, 42467328)]:
        spec = FamilySpec("hypercube", (d,))
        ok = ok and closed_form_tau(spec) == expected
        ok = ok and tau_matrix_tree(generate_family(spec)) == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report("criterion 2: closed-form families match matrix-tree", ok)
    assert ok


def test_criterion_3_cross_method_agreement():
    start = time.perf_counter()
    disagreements = 0
    for g in cross_method_suite():
        root = best_thomassen_bound(g)[0]
        values = {
            tau_matrix_tree(g),
            tau_deletion_contraction(g, "min-degree"),
            tau_deletion_contraction(g, "first-edge"),
            sum(1 for _ in enumerate_spanning_trees(g)),
            tau_via_grouped_formula(g, root),
            tau_via_direct_formula(g, root),
        }
        if len(values) != 1:
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 120.0
    _report(
        f"criterion 3: 200 random multigraphs, all methods bit-identical "
        f"({elapsed:.1f}s)",
        ok,
    )
    assert ok


def test_criterion_4_thomassen_bound():
    violations = 0
    for g in cross_method_suite():
        tau = tau_matrix_tree(g)
        for u in range(g.n):
            if tau > thomassen_bound(g, u):
                violations += 1
    ok = violations == 0
    _report("criterion 4: degree-product bound dominates tau at every root", ok)
    assert ok


def test_criterion_5_weighted_identity():
    start = time.perf_counter()
    rng = random.Random(55018)
    failures = 0
    for _ in range(50):
        n = rng.randint(2, 7)
        m = rng.randint(n - 1, 14)
        g = random_multigraph(
            RandomSpec(n=n, m=m, parallel_prob=0.3, seed=rng.randrange(2**31))
        )
        root = rng.randrange(g.n)
        for _ in range(5):
            w = [rng.randint(-1000, 1000) for _ in range(g.m)]
            if not check_identity(g, root, w).holds:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 120.0
    _report(
        f"criterion 5: weighted identity exact at 250 signed points ({elapsed:.1f}s)",
        ok,
    )
    assert ok


def test_criterion_6_f_polynomial_extraction():
    rng = random.Random(66018)
    discrepancies = 0
    for _ in range(50):
        n = rng.randint(2, 10)
        m = rng.randint(n - 1, 16)
        g = random_multigraph(
            RandomSpec(n=n, m=m, parallel_prob=0.3, seed=rng.randrange(2**31))
        )
        terms = expand_f(g)
        if matching_number_from_f(terms) != brute_force_matching(g):
            discrepancies += 1
        if edge_cover_number_from_f(terms) != brute_force_edge_cover(g):
            discrepancies += 1
    figure_one = build(4, FIGURE_ONE_EDGES)
    matchings = perfect_matchings_from_f(expand_f(figure_one))
    ok = discrepancies == 0 and matchings == [frozenset({0, 4}), frozenset({1, 5})]
    _report("criterion 6: expansion statistics match brute force everywhere", ok)
    assert ok


def test_criterion_7_grouping_equivalence():
    bad_buckets = 0
    total_mismatches = 0
    for g in cross_method_suite():
        root = best_thomassen_bound(g)[0]
        buckets = Counter(t.vertices for t in enumerate_nst(g, root))
        expected_sets = set(enumerate_connected_sets(g, root, g.n - 1))
        if set(buckets) != expected_sets:
            bad_buckets += 1
            continue
        for s, count in buckets.items():
            if count != tau_matrix_tree(induced(g, s).graph):
                bad_buckets += 1
        if tau_via_direct_formula(g, root) != tau_via_grouped_formula(g, root):
            total_mismatches += 1
    ok = bad_buckets == 0 and total_mismatches == 0
    _report(
        "criterion 7: subtree buckets reproduce per-set counts; direct and "
        "grouped totals agree",
        ok,
    )
    assert ok


def test_criterion_8_determinism(capsys, tmp_path):
    from treecount import serialize

    graph_file = tmp_path / "fig1.graph"
    graph_file.write_text(serialize(build(4, FIGURE_ONE_EDGES)))
    argv_sets = [
        ["verify", "--n", "6", "--m", "10", "--trials", "5", "--seed", "13"],
        ["verify", "--n", "5", "--m", "8", "--trials", "4", "--seed", "99", "--json"],
        ["identity", str(graph_file), "--weights", "random:21", "--trials", "4"],
        ["fpoly", str(graph_file), "--dump"],
        ["count", str(graph_file)],
        ["count", str(graph_file), "--json"],
        ["bound", str(graph_file)],
    ]
    ok = True
    for argv in argv_sets:
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        ok = ok and first == second and len(first) > 0
    with capsys.disabled():
        _report("criterion 8: seeded commands are byte-identical on rerun", ok)
    assert ok


def test_acceptance_suite_sanity():
    # the shared suite really honors its size contract
    suite = cross_method_suite()
    assert len(suite) == 200
    assert all(2 <= g.n <= 8 and g.m <= 18 and g.is_connected() for g in suite)
    assert any(len(set(g.edges)) < g.m for g in suite), "parallel edges exercised"
    deg_products = [math.prod(g.degrees()) for g in suite]
    assert all(p > 0 for p in deg_products)
