"""Exact spanning-tree counting for loopless multigraphs.

Several independent routes to the count (Laplacian determinant, deletion
contraction, explicit enumeration, and degree-product formulas) built to
cross-check each other bit-exactly, plus the weighted identity and the
vertex-incidence expansion those formulas rest on.

The record types are namedtuple subclasses, `Multigraph` is a plain class
and no module imports `dataclasses` or `typing`: importing those and building
frozen dataclasses would take more than half of every CLI start (Python 3.11).
"""

from .algebra import bareiss_determinant, evaluate_poly, multiply_forms
from .counting import (
    FamilySpec,
    closed_form_tau,
    count_spanning_trees,
    enumerate_spanning_trees,
    generate_family,
    tau_deletion_contraction,
    tau_matrix_tree,
    tau_weighted_matrix_tree,
)
from .degree_formula import (
    InducedPiece,
    SubTree,
    best_thomassen_bound,
    c_pieces,
    direct_formula_value,
    enumerate_connected_sets,
    enumerate_nst,
    tau_via_direct_formula,
    tau_via_grouped_formula,
    thomassen_bound,
)
from .fpoly import (
    CoverTerm,
    ExpansionSummary,
    brute_force_edge_cover,
    brute_force_matching,
    edge_cover_number_from_f,
    expand_f,
    expansion_summary,
    matching_number_from_f,
    perfect_matchings_from_f,
)
from .graph import (
    MAX_VERTICES,
    InducedSubgraph,
    Multigraph,
    build,
    contract_edge,
    delete_vertices,
    induced,
    parse,
    serialize,
)
from .identity import (
    IdentityReport,
    check_identity,
    check_identity_points,
    f_value,
    identity_lhs,
    identity_rhs,
    tree_weight,
)
from .randgraph import RandomSpec, random_multigraph

__all__ = [
    "CoverTerm",
    "ExpansionSummary",
    "FamilySpec",
    "IdentityReport",
    "InducedPiece",
    "InducedSubgraph",
    "MAX_VERTICES",
    "Multigraph",
    "RandomSpec",
    "SubTree",
    "bareiss_determinant",
    "best_thomassen_bound",
    "brute_force_edge_cover",
    "brute_force_matching",
    "build",
    "c_pieces",
    "check_identity",
    "check_identity_points",
    "closed_form_tau",
    "contract_edge",
    "count_spanning_trees",
    "delete_vertices",
    "direct_formula_value",
    "edge_cover_number_from_f",
    "enumerate_connected_sets",
    "enumerate_nst",
    "enumerate_spanning_trees",
    "evaluate_poly",
    "expand_f",
    "expansion_summary",
    "f_value",
    "generate_family",
    "identity_lhs",
    "identity_rhs",
    "induced",
    "matching_number_from_f",
    "multiply_forms",
    "parse",
    "perfect_matchings_from_f",
    "random_multigraph",
    "serialize",
    "tau_deletion_contraction",
    "tau_matrix_tree",
    "tau_via_direct_formula",
    "tau_via_grouped_formula",
    "tau_weighted_matrix_tree",
    "thomassen_bound",
    "tree_weight",
]
