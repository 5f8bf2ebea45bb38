"""Exact evaluation of the weighted counting identity.

With one integer weight per edge, the product over non-root vertices of
their incident weight sums equals the weighted spanning-tree sum plus, for
every non-spanning subtree through the root, the subtree's weight product
times the incidence product of what remains after deleting it. Both sides
are evaluated independently here so random integer points can expose any
implementation error exactly.

This is the grouped degree formula with every degree replaced by an
incident weight sum, and it runs on the same routine as the grouped count.
Each weight point first sums the weights of every parallel class, zero
sums kept, once: the weighted tree sum is the Laplacian minor of those
sums, and the correction is the grouped correction at that class table,
one walk of the kept vertex sets with its own cache of inside sums, the
walk `degree` runs (see `degree_formula`). Neither a remainder graph nor
an induced subgraph is built, and no tree is walked. Both sides check the
point's length by `Multigraph._check_weights`: `identity_rhs` through the
class sums, then graph and root by the degree walks' guard, before any
determinant or walk; `check_identity` takes the left side, which checks the
point's length and root, before the right side; k points are k calls.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .counting import _minor_det, _spanning_minor_det
from .degree_formula import SubTree, _correction, _require_rooted
from .errors import LengthMismatchError
from .graph import Multigraph


class IdentityReport(namedtuple("IdentityReport", "lhs tau_term nst_sum holds weight_point root")):
    """One evaluation of the identity at a concrete weight point (a tuple of ints)."""

    __slots__ = ()


def _weight_sums(g: Multigraph, weights: Sequence[int]) -> list[int]:
    # each vertex's incident weight sum, added up edge by edge from the raw
    # weights: the left side reads no class table, so a fault in the one
    # `identity_rhs` reads breaks the identity instead of cancelling out
    g._check_weights(weights)
    return [sum(weights[j] for j in edges) for edges in g._incidence]


def f_value(g: Multigraph, weights: Sequence[int]) -> int:
    """Product over all vertices of the sum of incident edge weights.

    The empty graph gives 1; any isolated vertex forces 0.
    """
    return math.prod(_weight_sums(g, weights))


def tree_weight(t: SubTree, weights: Sequence[int]) -> int:
    """Product of weights over the subtree's edges; 1 for the edgeless tree."""
    product = 1
    for j in t.edges:
        if j >= len(weights):
            raise LengthMismatchError(
                f"subtree uses edge {j} but only {len(weights)} weights were given"
            )
        product *= weights[j]
    return product


def identity_lhs(g: Multigraph, u: int, weights: Sequence[int]) -> int:
    """Product over vertices other than u of their incident weight sums."""
    g._check_vertex(u)
    sums = _weight_sums(g, weights)
    return math.prod(sums[:u] + sums[u + 1 :])


def identity_rhs(g: Multigraph, u: int, weights: Sequence[int]) -> tuple[int, int]:
    """The two right-hand aggregates: weighted tree sum and subtree correction.

    The correction restricts weights to each deleted remainder by original
    edge identity. Vertex sets whose remainder has an isolated vertex, or
    whose remainder product is 0 at these weights, contribute nothing and
    their subtrees are never counted. Needs a connected graph.
    """
    links = g._class_sums(weights)
    _require_rooted(g, u, "subtree enumeration")
    tau = _spanning_minor_det(g, links)
    return tau, _correction(g._neighbor_masks, u, links, (1 << g.n) - 1, _minor_det)


def check_identity(g: Multigraph, u: int, weights: Sequence[int]) -> IdentityReport:
    """Evaluate both sides at one weight point and report, never assert."""
    lhs = identity_lhs(g, u, weights)
    tau_term, nst_sum = identity_rhs(g, u, weights)
    return IdentityReport(
        lhs=lhs,
        tau_term=tau_term,
        nst_sum=nst_sum,
        holds=lhs == tau_term + nst_sum,
        weight_point=tuple(weights),
        root=u,
    )
