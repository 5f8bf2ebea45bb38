"""Independent brute-force oracles used only by the tests.

Everything here favors obviousness over speed and deliberately avoids the
library's own algorithms: determinants by cofactor expansion, subset
enumeration by powerset filtering, tree checks by explicit union-find.
The exceptions are the library's earlier routes, kept as references for
the faster ones: `identity_rhs_by_subtrees`, the per-subtree route to the
identity; `multiply_forms_by_tuples`, the expansion on sorted
(index, exponent) tuple monomials; `expand_f_by_decoding`, the sorted
term list decoded monomial by monomial, which decoding each distinct
field mask once replaced; `c_pieces_by_frozensets` and
`direct_value_by_frozensets`, the degree formulas' corrections over
frozenset vertex sets with a relabelled subgraph per set;
`tree_sum_by_induced`, the per-set tree sum the class walk replaced;
`star_mesh_reduce_by_scaling`, the star-mesh reduction on one integer
scale for the whole table, which the per-class fractions replaced;
`tree_sum_by_stripping`, each kept set leaf-stripped anew, which
the tree sums carried down the set walk replaced; and `tau_dc_by_edges`,
delete/contract on rebuilt `Multigraph`s with no memo and no series rule,
the reference for both the memo and that rule. `pieces_by_choices`
counts the degree formula's terms, or the weighted identity's, from the
edge picks its proof counts. `evaluate_poly` evaluates a `multiply_forms`
result at an integer point, monomial by monomial.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from treecount import (
    CoverTerm,
    InducedPiece,
    Multigraph,
    contract_edge,
    delete_vertices,
    enumerate_connected_sets,
    enumerate_nst,
    enumerate_spanning_trees,
    f_value,
    induced,
    tau_matrix_tree,
    tau_weighted_matrix_tree,
    thomassen_bound,
    tree_weight,
)
from treecount.counting import _laplacian_minor
from treecount.errors import (
    BudgetExceededError,
    DisconnectedError,
    ExponentOverflowError,
    LengthMismatchError,
)
from treecount.fpoly import _incidence_poly


def naive_determinant(matrix) -> int:
    d = len(matrix)
    if d == 0:
        return 1
    if d == 1:
        return matrix[0][0]
    total = 0
    sign = 1
    for col in range(d):
        minor = [
            [row[c] for c in range(d) if c != col] for row in matrix[1:]
        ]
        total += sign * matrix[0][col] * naive_determinant(minor)
        sign = -sign
    return total


def _components(n, pairs):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(n)})


def is_connected_subset(g, subset) -> bool:
    verts = sorted(subset)
    index = {v: i for i, v in enumerate(verts)}
    pairs = [
        (index[a], index[b])
        for a, b in g.edges
        if a in index and b in index
    ]
    return _components(len(verts), pairs) <= 1


def connected_sets_brute(g, u, max_size):
    """All vertex sets S with u in S, G[S] connected, |S| <= max_size."""
    found = set()
    others = [v for v in range(g.n) if v != u]
    for k in range(0, max(0, max_size - 1) + 1):
        if k + 1 > max_size:
            break
        for extra in combinations(others, k):
            s = frozenset((u,) + extra)
            if is_connected_subset(g, s):
                found.add(s)
    return found


def is_tree_on(g, vertices, edge_indices) -> bool:
    """True iff the given original edges form a spanning tree of `vertices`."""
    verts = sorted(vertices)
    if len(edge_indices) != len(verts) - 1:
        return False
    index = {v: i for i, v in enumerate(verts)}
    touched = set()
    pairs = []
    for j in edge_indices:
        a, b = g.edges[j]
        if a not in index or b not in index:
            return False
        touched.add(a)
        touched.add(b)
        pairs.append((index[a], index[b]))
    if len(verts) > 1 and touched != set(verts):
        return False
    return _components(len(verts), pairs) == 1


def subtrees_brute(g, u):
    """All non-spanning subtrees containing u, as (vertexset, edgeset) pairs."""
    found = set()
    for s in connected_sets_brute(g, u, g.n - 1):
        inside = [j for j, (a, b) in enumerate(g.edges) if a in s and b in s]
        for chosen in combinations(inside, len(s) - 1):
            if is_tree_on(g, s, chosen):
                found.add((s, frozenset(chosen)))
    return found


def spanning_tree_count_brute(g) -> int:
    if g.n == 1:
        return 1
    count = 0
    for chosen in combinations(range(g.m), g.n - 1):
        if is_tree_on(g, range(g.n), chosen):
            count += 1
    return count


def max_matching_brute(g) -> int:
    pairs = sorted(set(g.edges))
    best = 0
    for k in range(1, g.n // 2 + 1):
        hit = False
        for chosen in combinations(pairs, k):
            used = set()
            ok = True
            for a, b in chosen:
                if a in used or b in used:
                    ok = False
                    break
                used.add(a)
                used.add(b)
            if ok:
                hit = True
                break
        if hit:
            best = k
        else:
            break
    return best


def min_edge_cover_brute(g) -> int:
    pairs = sorted(set(g.edges))
    for k in range(0, len(pairs) + 1):
        for chosen in combinations(pairs, k):
            covered = {v for pair in chosen for v in pair}
            if len(covered) == g.n:
                return k
    raise AssertionError("no cover exists (isolated vertex)")


def perfect_matchings_brute(g):
    """All perfect matchings as frozensets of edge indices (per-index, so
    parallel edges give distinct matchings)."""
    if g.n % 2 != 0:
        return set()
    found = set()
    for chosen in combinations(range(g.m), g.n // 2):
        used = set()
        ok = True
        for j in chosen:
            a, b = g.edges[j]
            if a in used or b in used:
                ok = False
                break
            used.add(a)
            used.add(b)
        if ok and len(used) == g.n:
            found.add(frozenset(chosen))
    return found


def identity_rhs_by_subtrees(g, u, weights):
    """identity_rhs the slow way: every non-spanning subtree through u, each
    with its own remainder graph, zero remainders included."""
    if len(weights) != g.m:
        raise LengthMismatchError(f"expected {g.m} weights, got {len(weights)}")
    tau_term = tau_weighted_matrix_tree(g, weights)
    nst_sum = 0
    for subtree in enumerate_nst(g, u):
        rest = delete_vertices(g, subtree.vertices)
        fv = f_value(rest.graph, [weights[j] for j in rest.edge_origin])
        nst_sum += tree_weight(subtree, weights) * fv
    return tau_term, nst_sum


def outside_degree_product(g, inside):
    # degree product of G - inside; an isolated remainder vertex gives 0
    product = 1
    for v in range(g.n):
        if v in inside:
            continue
        d = sum(1 for j in g._incidence[v] if sum(g.edges[j]) - v not in inside)
        if d == 0:
            return 0
        product *= d
    return product


def c_pieces_by_frozensets(g, u):
    """c_pieces the slow way: every connected set through u of size <= n-2,
    its remainder's degree product, and tau of a relabelled induced graph."""
    if not g.is_connected():
        raise DisconnectedError("grouped formula needs a connected graph")
    g._check_vertex(u)
    for s in enumerate_connected_sets(g, u, g.n - 2):
        product = outside_degree_product(g, s)
        if product:
            yield InducedPiece(s, tau_matrix_tree(induced(g, s).graph), product)


def direct_value_by_frozensets(g, u):
    """direct_formula_value the slow way: one correction term per spanning
    tree of a relabelled induced graph, over every connected set through u
    of size <= n-1."""
    g._check_vertex(u)
    if g.n == 1:
        return 1
    correction = 0
    for s in enumerate_connected_sets(g, u, g.n - 1):
        product = outside_degree_product(g, s)
        if product:
            trees = sum(1 for _ in enumerate_spanning_trees(induced(g, s).graph))
            correction += trees * product
    return thomassen_bound(g, u) - correction


PICKS_BUDGET = 200_000


def pieces_by_choices(g, u, weights=None):
    """The degree formula's bijection, pick by pick: every way to give each
    vertex but u one incident edge, counted by the set S of vertices whose
    walk along their picks reaches u. Those picks are a spanning tree of
    G[S] directed to u, and every other vertex picks an edge outside S, so
    S gets tau(G[S]) times the degree product of G - S; S = V gets tau(G).
    With `weights`, each pick adds the product of its edges' weights instead
    of 1, so S gets G[S]'s weighted tree sum times the incidence product of
    G - S: the weighted identity's terms. Returns {S: picks, or their weight
    sum}; raises BudgetExceededError past PICKS_BUDGET picks."""
    g._check_vertex(u)
    others = [v for v in range(g.n) if v != u]
    incident = [[j for j, e in enumerate(g.edges) if v in e] for v in others]
    total = 1
    for edges in incident:
        total *= len(edges)
    if total > PICKS_BUDGET:
        raise BudgetExceededError(f"{total} picks exceed the {PICKS_BUDGET}-pick budget")
    counts = {}
    for picks in product(*incident):
        # who points at whom, then every vertex reached backwards from u
        pointed_by = {v: [] for v in range(g.n)}
        for v, j in zip(others, picks):
            pointed_by[sum(g.edges[j]) - v].append(v)
        reached = {u}
        stack = [u]
        while stack:
            for v in pointed_by[stack.pop()]:
                reached.add(v)
                stack.append(v)
        value = 1
        if weights is not None:
            for j in picks:
                value *= weights[j]
        key = frozenset(reached)
        counts[key] = counts.get(key, 0) + value
    return counts


def tree_sum_by_induced(g, vertices, weights=None):
    """The sum over the spanning trees of G[vertices] of their edge-weight
    products (the tree count when weights is None), the old way: a
    relabelled induced subgraph and one step per tree of the multigraph."""
    piece = induced(g, vertices)
    total = 0
    for tree in enumerate_spanning_trees(piece.graph):
        product = 1
        if weights is not None:
            for j in tree:
                product *= weights[piece.edge_origin[j]]
        total += product
    return total


def tree_sum_by_stripping(s, nbr, links, by_core):
    """G[S]'s tree sum over `links` by the per-set strip that the tree sums
    carried down the set walk replaced. Each vertex with one distinct
    neighbour inside S lies on that class in every tree, so it goes and its
    class value multiplies; a vertex's inside degree only falls, so each
    leaf is queued once. The core left over gets its Laplacian minor, here
    by cofactor expansion, counted once per core in `by_core`."""
    leaves = []
    rest = s
    while rest:
        low = rest & -rest
        rest ^= low
        inside = nbr[low.bit_length() - 1] & s
        if inside and not inside & (inside - 1):
            leaves.append(low.bit_length() - 1)
    core = s
    value = 1
    while leaves:
        v = leaves.pop()
        inside = nbr[v] & core
        if not inside:
            # the last vertex of a tree
            continue
        w = inside.bit_length() - 1
        value *= next(c for x, c in links[v] if x == w)
        core ^= 1 << v
        inside = nbr[w] & core
        if inside and not inside & (inside - 1):
            leaves.append(w)
    if not value or not core & (core - 1):
        return value
    count = by_core.get(core)
    if count is None:
        count = by_core[core] = naive_determinant(_laplacian_minor(core, links))
    return value * count


def star_mesh_reduce_by_scaling(links):
    """`_star_mesh_reduce` the old way, kept verbatim below: each step with
    a pair scales every class value by s and every step divides out the
    gcd of them all, so the values stay integers throughout."""
    # (neighbour masks, table, num, den) such that the connected graph's
    # tree sum over `links` is num * (the tree sum over the returned table)
    # / den. The lowest vertex with one, two or three distinct neighbours
    # goes by the star-mesh rule until none is left or one vertex remains;
    # a removed vertex keeps no neighbour. With class values summing to s,
    # its trees number s times those of the rest with w_a w_b / s added to
    # the class of each pair a, b of its neighbours, which gain a class if
    # they had none (a Schur complement of the Laplacian). A pendant vertex
    # has no pair: s goes as a factor and nothing is scaled. Otherwise all
    # values are scaled by s to stay integers, which scales the tree sum of
    # the k' vertices left by s^(k'-1): s goes into num and s^(k'-1) into
    # den. After each step the values' gcd d is divided out and d^(k'-1)
    # goes into num, so they do not outgrow the savings
    rows = [dict(pairs) for pairs in links]
    left = len(rows)
    num = den = 1
    while left > 1:
        for v, row in enumerate(rows):
            if 0 < len(row) <= 3:
                break
        else:
            break
        rows[v] = {}
        left -= 1
        for w in row:
            del rows[w][v]
        s = sum(row.values())
        num *= s
        if len(row) > 1:
            for other in rows:
                for w in other:
                    other[w] *= s
            for (a, p), (b, q) in combinations(row.items(), 2):
                rows[a][b] = rows[b][a] = rows[a].get(b, 0) + p * q
            den *= s ** (left - 1)
        d = math.gcd(*(c for other in rows for c in other.values()))
        if d > 1:
            for other in rows:
                for w in other:
                    other[w] //= d
            num *= d ** (left - 1)
    masks = [sum(1 << w for w in row) for row in rows]
    return masks, [tuple(sorted(row.items())) for row in rows], num, den


def evaluate_poly(p, weights) -> int:
    """A packed-monomial polynomial at an integer point, weights[i] being
    the value of variable i."""
    total = 0
    for mono, coef in p.items():
        value = coef
        idx = 0
        while mono:
            exp = mono & 3
            if exp:
                if idx >= len(weights):
                    raise LengthMismatchError(
                        f"monomial uses variable {idx} but only "
                        f"{len(weights)} weights were given"
                    )
                value *= weights[idx] ** exp
            mono >>= 2
            idx += 1
        total += value
    return total


def _raise_power(mono, var):
    items = list(mono)
    for pos, (idx, exp) in enumerate(items):
        if idx == var:
            if exp >= 2:
                raise ExponentOverflowError(
                    f"variable {var} would exceed exponent 2"
                )
            items[pos] = (idx, 2)
            return tuple(items)
        if idx > var:
            items.insert(pos, (var, 1))
            return tuple(items)
    items.append((var, 1))
    return tuple(items)


def multiply_forms_by_tuples(forms, budget=10_000_000):
    """multiply_forms on sorted (index, exponent) tuple monomials: a dict
    from each monomial tuple to its coefficient, same errors."""
    terms = {(): 1}
    if len(terms) > budget:
        raise BudgetExceededError(f"expansion exceeded the {budget}-monomial budget")
    for form in forms:
        nxt = {}
        variables = sorted(form)
        for mono, coef in terms.items():
            for var in variables:
                key = _raise_power(mono, var)
                nxt[key] = nxt.get(key, 0) + coef
        if len(nxt) > budget:
            raise BudgetExceededError(
                f"expansion exceeded the {budget}-monomial budget"
            )
        terms = nxt
    return terms


def _decode_fields(bits):
    # ascending variable indices of the set bits, one per 2-bit field
    return tuple(i >> 1 for i in range(bits.bit_length()) if bits >> i & 1)


def expand_f_by_decoding(g, budget=10_000_000):
    """expand_f the old way: both parts of every monomial decoded anew, the
    (doubled, single, coefficient) tuples sorted, and two frozensets built
    per term."""
    poly = _incidence_poly(g, budget, g._incidence)
    if poly is None:
        return []
    squared = int("10" * g.m, 2) if g.m else 0
    decoded = sorted(
        (_decode_fields(mono & squared), _decode_fields(mono & (squared >> 1)), coef)
        for mono, coef in poly.items()
    )
    return [
        CoverTerm(frozenset(doubled), frozenset(single), coef)
        for doubled, single, coef in decoded
    ]


def _pick_min_degree_edge(g):
    v = min(
        (v for v in range(g.n) if g.degree(v) > 0),
        key=lambda v: (g.degree(v), v),
    )
    return min(g.incident_edges(v))


def _pick_first_edge(g):
    return 0


def tau_dc_by_edges(g, heuristic="min-degree"):
    """tau_deletion_contraction the old way: a whole parallel class per
    step on a rebuilt Multigraph, a connectivity test and a degree-1 scan
    at every step, no series rule (a two-neighbour vertex is deleted and
    contracted like any other) and no memo. `heuristic` picks an edge index: the lowest
    one at a vertex of least degree, or edge 0."""
    pick = {"min-degree": _pick_min_degree_edge, "first-edge": _pick_first_edge}[heuristic]

    def count(g):
        total = 0
        while True:
            if g.n == 1:
                return total + 1
            if not g.is_connected():
                return total
            pendant = next((v for v in range(g.n) if g.degree(v) == 1), None)
            if pendant is not None:
                g = contract_edge(g, min(g.incident_edges(pendant)))
                continue
            j = pick(g)
            pair = g.edges[j]
            total += g.edges.count(pair) * count(contract_edge(g, j))
            g = Multigraph(g.n, tuple(e for e in g.edges if e != pair))

    return count(g)
