"""Mutation suite: one-place faults that named tests must catch.

Each mutant replaces one anchor text, which occurs exactly once in its
file, with faulty code, and names the tests expected to fail on it.

    python tests/mutants.py

copies src/, tests/ and pyproject.toml to a temporary directory, applies
each mutant there in turn, runs only its killing tests, and prints it as
killed or survived. It exits 1 if any mutant survived or its tests could
not run. Hypothesis draws from a fixed seed, so a run is repeatable.
`tests/test_mutants.py` checks that every anchor text still occurs once,
so a refactor that moves one must carry its mutant along.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path old new tests")

DF = "src/treecount/degree_formula.py"
DF_TESTS = "tests/test_degree_formula.py"
CLI = "src/treecount/cli.py"
CLI_TESTS = "tests/test_cli.py"
PROPS = "tests/test_properties.py"
DC_SERIES = "tests/test_counting.py::test_deletion_contraction_deletes_a_series_vertex_in_place"
DC_PENDANT = "tests/test_counting.py::test_deletion_contraction_deletes_a_pendant_below_its_neighbour"
DC_CHAIN = "tests/test_counting.py::test_deletion_contraction_deletes_a_pendant_chain_in_place"

MUTANTS = (
    Mutant(
        "block rooted at its least vertex",
        DF,
        "        root = min(members, key=lambda v: (nbr[v] & block).bit_count())\n",
        "        root = members[0]\n",
        (f"{DF_TESTS}::test_block_product_walks_each_block_inside_its_mask_on_g",),
    ),
    Mutant(
        "bridge class counted as 1",
        DF,
        "        value *= bound - _correction(nbr, root, inner, block, core)\n",
        "        value *= 1 if block.bit_count() == 2 else bound - _correction(nbr, root, inner, block, core)\n",
        (f"{DF_TESTS}::test_block_product_walks_each_block_inside_its_mask_on_g",),
    ),
    Mutant(
        "final scale put into the denominator one power short",
        DF,
        "    den *= scale ** (left - 1)\n",
        "    den *= scale ** (left - 2)\n",
        (f"{DF_TESTS}::test_star_mesh_step_meshes_a_three_neighbour_vertex",
         f"{DF_TESTS}::test_star_mesh_step_meshes_a_fractional_arm"),
    ),
    Mutant(
        "gcd multiplied back one power too many",
        DF,
        "    num *= d ** (left - 1)\n",
        "    num *= d**left\n",
        (f"{DF_TESTS}::test_star_mesh_reduction_scales_the_table_once_a_vertex_went",),
    ),
    Mutant(
        "table put on one scale when no vertex went",
        DF,
        "    if left < len(rows):\n",
        "    if True:\n",
        (f"{DF_TESTS}::test_star_mesh_reduction_scales_the_table_once_a_vertex_went",),
    ),
    Mutant(
        "pendant class value dropped",
        DF,
        "        num *= p\n",
        "        num *= p if len(row) > 1 else 1\n",
        (f"{DF_TESTS}::test_series_reduction_leaves_one_vertex_of_a_series_parallel_graph",
         f"{DF_TESTS}::test_block_product_at_every_root"),
    ),
    Mutant(
        "star-mesh sum's denominator left out of den",
        DF,
        "        den *= q\n",
        "        den *= 1\n",
        (f"{DF_TESTS}::test_star_mesh_step_meshes_a_fractional_arm",),
    ),
    Mutant(
        "meshed pair drops the arms' denominators",
        DF,
        "            x, y = pa * pb * q, qa * qb * p\n",
        "            x, y = pa * pb * q, p\n",
        (f"{DF_TESTS}::test_star_mesh_step_meshes_a_fractional_arm",),
    ),
    Mutant(
        "star-mesh step skips a neighbour pair with no class yet",
        DF,
        "            rows[a][b] = rows[b][a] = x // d, y // d\n",
        "            if b in rows[a]:\n"
        "                rows[a][b] = rows[b][a] = x // d, y // d\n",
        (f"{DF_TESTS}::test_star_mesh_step_meshes_a_three_neighbour_vertex",),
    ),
    Mutant(
        "reduction takes no three-neighbour vertex",
        DF,
        "            if 0 < len(row) <= 3:\n",
        "            if 0 < len(row) <= 2:\n",
        (f"{DF_TESTS}::test_star_mesh_step_meshes_a_three_neighbour_vertex",),
    ),
    Mutant(
        "star-mesh sum leaves out the third class value",
        DF,
        "        for c, e in row.values():\n",
        "        for c, e in list(row.values())[:2]:\n",
        (f"{DF_TESTS}::test_star_mesh_step_meshes_a_three_neighbour_vertex",),
    ),
    Mutant(
        "vertex sets of two grouped terms swapped",
        DF,
        "    for s, outside, tree in _correction_sets(g, u, links, count):\n",
        "    kept = _correction_sets(g, u, links, count)\n"
        "    if len(kept) > 1:\n"
        "        (a, *x), (b, *y) = kept[:2]\n"
        "        kept[:2] = [(b, *x), (a, *y)]\n"
        "    for s, outside, tree in kept:\n",
        (f"{DF_TESTS}::test_c_pieces_wheel",
         f"{PROPS}::test_grouped_pieces_count_the_edge_picks_they_group"),
    ),
    Mutant(
        "direct route counts its cores by determinant",
        DF,
        "    return _reduced_block_product(g, _tree_sum)\n",
        "    return _reduced_block_product(g, _minor_det)\n",
        (f"{DF_TESTS}::test_direct_routes_take_no_determinant",),
    ),
    Mutant(
        "overflow check fires on an emptied product",
        "src/treecount/algebra.py",
        "            if terms and seen.get(var) == 2:\n",
        "            if seen.get(var) == 2:\n",
        (f"{PROPS}::test_expansion_does_not_depend_on_form_order",),
    ),
    Mutant(
        "overflow check never fires",
        "src/treecount/algebra.py",
        "            if terms and seen.get(var) == 2:\n",
        "            if terms and seen.get(var) == 2 and False:\n",
        ("tests/test_algebra.py::test_three_occurrences_overflow",
         f"{PROPS}::test_expansion_does_not_depend_on_form_order"),
    ),
    Mutant(
        "summary lists least-support terms without the 2 rho == n test",
        "src/treecount/fpoly.py",
        "    if 2 * rho == g.n:\n",
        "    if 2 * rho >= g.n:\n",
        ("tests/test_fpoly.py::test_expansion_summary_small_cases",
         f"{PROPS}::test_expansion_summary_matches_the_term_readers"),
    ),
    Mutant(
        "C(c, 2) pairs left out of the term count",
        "src/treecount/fpoly.py",
        "            stands_for[2 << 2 * k] = c * (c + 1) // 2\n",
        "            stands_for[2 << 2 * k] = c\n",
        ("tests/test_fpoly.py::test_expansion_summary_counts_a_class_of_40_parallel_edges_as_one_monomial",
         "tests/test_fpoly.py::test_expansion_summary_of_a_4_cycle_with_multi_edge_classes"),
    ),
    Mutant(
        "a class exponent of 1 counted as one edge monomial",
        "src/treecount/fpoly.py",
        "            stands_for[1 << 2 * k] = c\n",
        "            stands_for[1 << 2 * k] = 1\n",
        ("tests/test_fpoly.py::test_expansion_summary_of_a_4_cycle_with_multi_edge_classes",),
    ),
    Mutant(
        "perfect-matching listing not held to the budget",
        "src/treecount/fpoly.py",
        "        if sum(prod(map(len, picks)) for picks in chosen) > budget:\n",
        "        if sum(1 for picks in chosen) > budget:\n",
        ("tests/test_fpoly.py::test_expansion_summary_holds_the_perfect_matching_listing_to_the_budget",),
    ),
    Mutant(
        "tree sum carried as tree * abs(c)",
        DF,
        "                        child_tree = tree * c\n",
        "                        child_tree = tree * abs(c)\n",
        ("tests/test_cli.py::test_identity_random_points",
         f"{PROPS}::test_weighted_picks_match_the_identity_terms_at_the_class_sums"),
    ),
    # the general paths that serve the inputs of removed special cases
    Mutant(
        "summary of an isolated vertex's empty expansion does not raise",
        "src/treecount/fpoly.py",
        "    poly = _incidence_poly(g, budget, rows, list(map(len, classes)))\n    if poly is None:\n        raise",
        "    poly = _incidence_poly(g, budget, rows, list(map(len, classes))) or {}\n    if poly is None:\n        raise",
        ("tests/test_fpoly.py::test_expansion_summary_guards",),
    ),
    Mutant(
        "fpoly --dump decodes terms for --json and --quiet",
        CLI,
        "    if args.dump and not (args.json or args.quiet):\n",
        "    if args.dump:\n",
        ("tests/test_cli.py::test_fpoly_dump_decodes_no_terms_for_json_or_quiet",),
    ),
    Mutant(
        "fpoly --dump lists the terms out of order",
        CLI,
        "        for t in expand_f(g, budget=args.budget):\n",
        "        for t in reversed(expand_f(g, budget=args.budget)):\n",
        ("tests/test_cli.py::test_fpoly_dump_lists_the_expansion_under_its_summary",),
    ),
    Mutant(
        "walk keeps the root set beside a banned isolated vertex",
        DF,
        "        if not iso:\n",
        "        if not iso & ~banned:\n",
        (f"{DF_TESTS}::test_direct_value_with_an_edgeless_vertex_keeps_no_set_through_the_rest",),
    ),
    Mutant(
        "tree counter skips a zero class value on a stripped leaf",
        DF,
        "            value = memo[s] = value * factor\n",
        "            value = memo[s] = value * (factor or 1)\n",
        (f"{DF_TESTS}::test_zero_pendant_class_value_zeroes_every_set_through_it",),
    ),
    Mutant(
        "spanning-tree enumeration stops only after an edge",
        "src/treecount/counting.py",
        "        if count == need:\n",
        "        if count == need > 0:\n",
        ("tests/test_counting.py::test_enumeration_single_vertex",),
    ),
    Mutant(
        "edge cover of no vertex counted as one edge",
        "src/treecount/fpoly.py",
        "                return k\n",
        "                return max(k, 1)\n",
        ("tests/test_fpoly.py::test_brute_force_edge_cover_values",),
    ),
    Mutant(
        "empty code sequence draws from the generator",
        "src/treecount/randgraph.py",
        "    seq = [rng.randrange(n) for _ in range(n - 2)]\n",
        "    seq = [rng.randrange(n) for _ in range(n - 2)] or [rng.randrange(n)][:0]\n",
        ("tests/test_randgraph.py::test_two_vertex_tree_draws_nothing",),
    ),
    Mutant(
        "empty code sequence decodes to no edge",
        "src/treecount/randgraph.py",
        "    edges.append((a, b))\n",
        "    edges.extend([(a, b)] if seq else [])\n",
        ("tests/test_randgraph.py::test_two_vertex_tree_draws_nothing",),
    ),
    # the identity report, the degree routes on the empty graph, and the
    # input guards no other test reaches
    Mutant(
        "identity holds when the left side equals the tree sum alone",
        "src/treecount/identity.py",
        "        holds=lhs == tau_term + nst_sum,\n",
        "        holds=lhs == tau_term,\n",
        ("tests/test_identity.py::test_check_identity_figure_one_random_points",),
    ),
    Mutant(
        "identity walks the right side before it checks the point",
        "src/treecount/identity.py",
        "    lhs = identity_lhs(g, u, weights)\n    tau_term, nst_sum = identity_rhs(g, u, weights)\n",
        "    tau_term, nst_sum = identity_rhs(g, u, weights)\n    lhs = identity_lhs(g, u, weights)\n",
        ("tests/test_identity.py::test_check_identity_checks_the_point_before_its_walk",),
    ),
    Mutant(
        "degree routes let the empty graph through",
        DF,
        "    if g.n == 0:\n        raise EmptyGraphError(\"tau needs at least one vertex\")\n"
        "    if not g.is_connected():\n        raise DisconnectedError(f\"{walk}",
        "    if not g.is_connected():\n        raise DisconnectedError(f\"{walk}",
        (f"{DF_TESTS}::test_every_route_rejects_the_empty_graph",
         f"{CLI_TESTS}::test_count_on_the_empty_graph_keeps_one_error_per_route"),
    ),
    Mutant(
        "`identity_rhs` takes its determinant before the guard",
        "src/treecount/identity.py",
        "    _require_rooted(g, u, \"subtree enumeration\")\n"
        "    links = g._class_sums(weights)\n    tau = _spanning_minor_det(g, links)\n",
        "    links = g._class_sums(weights)\n    tau = _spanning_minor_det(g, links)\n"
        "    _require_rooted(g, u, \"subtree enumeration\")\n",
        ("tests/test_identity.py::test_identity_rhs_refuses_its_input_before_the_determinant",),
    ),
    Mutant(
        "incident weight sums skip the length check",
        "src/treecount/identity.py",
        "    if len(weights) != g.m:\n"
        "        raise LengthMismatchError(f\"expected {g.m} weights, got {len(weights)}\")\n"
        "    return [sum(",
        "    return [sum(",
        ("tests/test_identity.py::test_f_value_rejects_bad_length",
         "tests/test_identity.py::test_check_identity_checks_the_point_before_its_walk"),
    ),
    Mutant(
        "count names a root it does not have",
        CLI,
        "    if name in _DEGREE_METHODS and root is not None:\n",
        "    if name in _DEGREE_METHODS:\n",
        (f"{CLI_TESTS}::test_count_on_the_empty_graph_keeps_one_error_per_route",),
    ),
    Mutant(
        "weights file skips a line that is not an integer",
        CLI,
        "            except ValueError:\n                raise ParseError(\n",
        "            except ValueError:\n                continue\n                raise ParseError(\n",
        (f"{CLI_TESTS}::test_identity_weights_file_names_its_non_integer_line",),
    ),
    Mutant(
        "bad random weight seed read as 0",
        CLI,
        "            raise ParseError(f\"bad random weight seed in {source!r}\") from None\n",
        "            seed = 0\n",
        (f"{CLI_TESTS}::test_identity_bad_random_seed_is_parse_error",),
    ),
    Mutant(
        "spanning-tree enumeration lets the empty graph through",
        "src/treecount/counting.py",
        "    # itself taken, as a determinant, and refused if it passes too\n    if g.n == 0:\n",
        "    # itself taken, as a determinant, and refused if it passes too\n    if g.n < 0:\n",
        ("tests/test_counting.py::test_enumeration_rejects_the_empty_graph",
         "tests/test_counting.py::test_class_walk_rejects_the_empty_graph"),
    ),
    Mutant(
        "walk size takes the determinant when the degree product fits",
        "src/treecount/counting.py",
        "    if trees <= ENUM_TREE_BUDGET:\n",
        "    if trees > ENUM_TREE_BUDGET:\n",
        ("tests/test_counting.py::test_walk_size_of_a_pool_sized_graph_takes_no_determinant",
         "tests/test_counting.py::test_walk_size_bound_leaves_out_the_largest_row"),
    ),
    Mutant(
        "walk size drops the connectivity test",
        "src/treecount/counting.py",
        "    if not g.is_connected():\n        return 0\n",
        "",
        ("tests/test_counting.py::test_enumeration_of_a_disconnected_graph_does_not_walk",),
    ),
    Mutant(
        "degree product keeps the largest row",
        "src/treecount/counting.py",
        "for row in links)[:-1])\n",
        "for row in links))\n",
        ("tests/test_counting.py::test_walk_size_bound_leaves_out_the_largest_row",),
    ),
    Mutant(
        "class walk numbers each class at both endpoints",
        "src/treecount/counting.py",
        "            if not placed >> w & 1:\n",
        "            if w != v:\n",
        ("tests/test_counting.py::test_class_walk_roots_a_sub_mask_at_its_sparsest_vertex",
         "tests/test_counting.py::test_class_walk_value_does_not_depend_on_the_labels"),
    ),
    Mutant(
        "reference walk not held to the tree budget",
        "src/treecount/counting.py",
        "    if trees > ENUM_TREE_BUDGET:\n",
        "    if walk == \"enumeration\" and trees > ENUM_TREE_BUDGET:\n",
        ("tests/test_counting.py::test_reference_walk_refuses_k10_before_its_first_tree",
         "tests/test_counting.py::test_reference_walk_is_sized_by_tau"),
    ),
    Mutant(
        "reference walk entered on a zero count",
        "src/treecount/counting.py",
        "    if not _walk_size(g, g._class_table, \"reference enumeration\"):\n        return\n",
        "    _walk_size(g, g._class_table, \"reference enumeration\")\n",
        ("tests/test_counting.py::test_reference_walk_of_a_disconnected_graph_does_not_walk",),
    ),
    Mutant(
        "series vertex scales by pq, not p + q",
        "src/treecount/counting.py",
        "            scale *= p + q\n",
        "            scale *= p * q\n",
        (DC_SERIES,),
    ),
    Mutant(
        "series rule drops the pq term",
        "src/treecount/counting.py",
        "                total += scale * p * q * _tau_dc(n - 1, joined, pick, memo)\n",
        "                pass\n",
        (DC_SERIES,),
    ),
    Mutant(
        "series rule contracts at the labels before the deletion",
        "src/treecount/counting.py",
        "                joined = _contract(classes, a - (a > v), b - (b > v))\n",
        "                joined = _contract(classes, a, b)\n",
        (DC_SERIES,),
    ),
    Mutant(
        "series vertex's second class read as its first",
        "src/treecount/counting.py",
        "            q = classes[(v, b) if v < b else (b, v)] if a < b else 0\n",
        "            q = p if a < b else 0\n",
        (DC_SERIES,),
    ),
    Mutant(
        "pendant vertex counts its one class twice",
        "src/treecount/counting.py",
        "            q = classes[(v, b) if v < b else (b, v)] if a < b else 0\n",
        "            q = classes[(v, b) if v < b else (b, v)]\n",
        (DC_PENDANT, DC_CHAIN),
    ),
    Mutant(
        "pendant vertex also recurses",
        "src/treecount/counting.py",
        "            if a < b:\n                joined",
        "            if True:\n                joined",
        (DC_PENDANT, DC_CHAIN),
    ),
    Mutant(
        "pendant vertex left to the pick",
        "src/treecount/counting.py",
        "        if fewest <= 2:\n",
        "        if fewest == 2:\n",
        (DC_PENDANT, DC_CHAIN),
    ),
    Mutant(
        "family vertex cap off by one",
        "src/treecount/counting.py",
        "        if self.vertex_count() > MAX_VERTICES:\n",
        "        if self.vertex_count() > MAX_VERTICES + 1:\n",
        ("tests/test_counting.py::test_family_over_the_vertex_cap_names_its_size",
         f"{CLI_TESTS}::test_family_over_the_vertex_cap_is_one_line"),
    ),
    Mutant(
        "cover search guarded one vertex late",
        "src/treecount/fpoly.py",
        "    if g.n > DEFAULT_MAX_VERTICES:\n        raise BudgetExceededError(\n"
        "            f\"brute-force cover",
        "    if g.n > DEFAULT_MAX_VERTICES + 1:\n        raise BudgetExceededError(\n"
        "            f\"brute-force cover",
        ("tests/test_fpoly.py::test_brute_force_edge_cover_guard",),
    ),
    Mutant(
        "graph equality with another type answers False itself",
        "src/treecount/graph.py",
        "            return NotImplemented\n",
        "            return False\n",
        ("tests/test_graph.py::test_equality_with_another_type_is_left_to_the_other_side",),
    ),
    Mutant(
        "vertex check lets bool through",
        "src/treecount/graph.py",
        "        if type(v) is not int:\n            raise TypeError(f\"vertex must",
        "        if not isinstance(v, int):\n            raise TypeError(f\"vertex must",
        (f"{DF_TESTS}::test_a_vertex_that_is_not_an_int_is_a_type_error",),
    ),
    Mutant(
        "best degree-product root breaks ties to the highest vertex",
        DF,
        "    return bounds.index(best), best\n",
        "    return len(bounds) - 1 - bounds[::-1].index(best), best\n",
        ("tests/test_census.py::test_best_thomassen_bound_is_the_least_bound_at_its_least_root",),
    ),
    Mutant(
        "`_classes` keeps only a class's first edge",
        "src/treecount/graph.py",
        "            members.setdefault(pair, []).append(j)\n",
        "            members.setdefault(pair, [j])\n",
        ("tests/test_graph.py::test_classes_list_each_pair_with_its_edges_in_first_edge_order",
         "tests/test_fpoly.py::test_expansion_summary_of_a_4_cycle_with_multi_edge_classes"),
    ),
)


def _run(mutant: Mutant, work: Path) -> str:
    target = work / mutant.path
    original = target.read_text()
    target.write_text(original.replace(mutant.old, mutant.new, 1))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.tests],
            cwd=work, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        )
    finally:
        target.write_text(original)
    # pytest exits 1 when a test failed, 0 when all passed, higher when none could run
    statuses = {0: "survived", 1: "killed"}
    return statuses.get(proc.returncode, f"error (pytest exit {proc.returncode})")


def main() -> int:
    start = time.perf_counter()
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work)
        for mutant in MUTANTS:
            if (work / mutant.path).read_text().count(mutant.old) != 1:
                status = "error (anchor text does not occur exactly once)"
            else:
                status = _run(mutant, work)
            failed += status != "killed"
            print(f"{status}: {mutant.name}", flush=True)
    print(
        f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
        f"in {time.perf_counter() - start:.1f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
