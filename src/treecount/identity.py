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
an induced subgraph is built, and no tree is walked. `check_identity` is
the one-point case of `check_identity_points`, which checks every point's
left side and then takes `identity_rhs` point by point.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .counting import _spanning_minor_det
from .degree_formula import SubTree, _grouped_correction
from .errors import DisconnectedError, LengthMismatchError
from .graph import Multigraph


class IdentityReport(namedtuple("IdentityReport", "lhs tau_term nst_sum holds weight_point root")):
    """One evaluation of the identity at a concrete weight point (a tuple of ints)."""

    __slots__ = ()


def f_value(g: Multigraph, weights: Sequence[int]) -> int:
    """Product over all vertices of the sum of incident edge weights.

    The empty graph gives 1; any isolated vertex forces 0.
    """
    if len(weights) != g.m:
        raise LengthMismatchError(f"expected {g.m} weights, got {len(weights)}")
    product = 1
    for v in range(g.n):
        product *= sum(weights[j] for j in g._incidence[v])
    return product


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
    if len(weights) != g.m:
        raise LengthMismatchError(f"expected {g.m} weights, got {len(weights)}")
    product = 1
    for v in range(g.n):
        if v != u:
            product *= sum(weights[j] for j in g._incidence[v])
    return product


def identity_rhs(g: Multigraph, u: int, weights: Sequence[int]) -> tuple[int, int]:
    """The two right-hand aggregates: weighted tree sum and subtree correction.

    The correction restricts weights to each deleted remainder by original
    edge identity. Vertex sets whose remainder has an isolated vertex, or
    whose remainder product is 0 at these weights, contribute nothing and
    their subtrees are never counted. Needs a connected graph.
    """
    if len(weights) != g.m:
        raise LengthMismatchError(f"expected {g.m} weights, got {len(weights)}")
    links = g._class_sums(weights)
    tau = _spanning_minor_det(g, links)
    if not g.is_connected():
        raise DisconnectedError("subtree enumeration needs a connected graph")
    g._check_vertex(u)
    return tau, _grouped_correction(g, u, links)


def check_identity_points(
    g: Multigraph, u: int, points: Sequence[Sequence[int]]
) -> list[IdentityReport]:
    """Evaluate both sides at each weight point and report, never assert.

    Every point's left side is taken, and so checked, before any right side.
    """
    lhs = [identity_lhs(g, u, weights) for weights in points]
    rhs = [identity_rhs(g, u, weights) for weights in points]
    return [
        IdentityReport(
            lhs=left,
            tau_term=tau_term,
            nst_sum=nst_sum,
            holds=left == tau_term + nst_sum,
            weight_point=tuple(weights),
            root=u,
        )
        for left, (tau_term, nst_sum), weights in zip(lhs, rhs, points)
    ]


def check_identity(g: Multigraph, u: int, weights: Sequence[int]) -> IdentityReport:
    """Evaluate both sides at one weight point and report, never assert."""
    return check_identity_points(g, u, [weights])[0]
