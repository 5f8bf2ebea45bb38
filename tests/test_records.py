"""The public record types: construction, immutability, equality, hash and repr."""

from __future__ import annotations

import copy
import pickle

import pytest

from treecount import (
    CoverTerm,
    ExpansionSummary,
    FamilySpec,
    IdentityReport,
    InducedPiece,
    InducedSubgraph,
    Multigraph,
    RandomSpec,
    SubTree,
)
from treecount.errors import InvalidSpecError

EDGE = Multigraph(2, ((0, 1),))

# (type, positional args, the same values by keyword, other values, repr text)
RECORDS = [
    (Multigraph, (2, ((0, 1),)), {"n": 2, "edges": ((0, 1),)}, (2, ((0, 1), (0, 1))),
     "Multigraph(n=2, edges=((0, 1),))"),
    (InducedSubgraph, (EDGE, {0: 0, 1: 1}, (0,)),
     {"graph": EDGE, "vertex_map": {0: 0, 1: 1}, "edge_origin": (0,)},
     (EDGE, {0: 1, 1: 0}, (0,)),
     "InducedSubgraph(graph=Multigraph(n=2, edges=((0, 1),)), "
     "vertex_map={0: 0, 1: 1}, edge_origin=(0,))"),
    (RandomSpec, (5, 6, 0.3, 0, True), {"n": 5, "m": 6}, (5, 6, 0.3, 1, True),
     "RandomSpec(n=5, m=6, parallel_prob=0.3, seed=0, require_connected=True)"),
    (FamilySpec, ("multipartite", (2, 3)), {"kind": "multipartite", "sizes": [2, 3]},
     ("multipartite", (3, 2)), "FamilySpec(kind='multipartite', sizes=(2, 3))"),
    (SubTree, (0, frozenset({0, 1}), frozenset({0})),
     {"root": 0, "vertices": frozenset({0, 1}), "edges": frozenset({0})},
     (1, frozenset({0, 1}), frozenset({0})),
     "SubTree(root=0, vertices=frozenset({0, 1}), edges=frozenset({0}))"),
    (InducedPiece, (frozenset({0}), 1, 4),
     {"vertices": frozenset({0}), "tau_inside": 1, "outside_degree_product": 4},
     (frozenset({0}), 1, 5),
     "InducedPiece(vertices=frozenset({0}), tau_inside=1, outside_degree_product=4)"),
    (CoverTerm, (frozenset({1}), frozenset(), 2),
     {"doubled": frozenset({1}), "single": frozenset(), "coefficient": 2},
     (frozenset(), frozenset({1}), 2),
     "CoverTerm(doubled=frozenset({1}), single=frozenset(), coefficient=2)"),
    (IdentityReport, (6, 3, 3, True, (1, 2), 0),
     {"lhs": 6, "tau_term": 3, "nst_sum": 3, "holds": True, "weight_point": (1, 2),
      "root": 0},
     (6, 3, 3, True, (1, 2), 1),
     "IdentityReport(lhs=6, tau_term=3, nst_sum=3, holds=True, weight_point=(1, 2), "
     "root=0)"),
    (ExpansionSummary, (3, 8, 1, 2, ((0,),)),
     {"terms": 3, "coefficient_sum": 8, "matching_number": 1, "edge_cover_number": 2,
      "perfect_matchings": ((0,),)},
     (3, 8, 1, 2, ()),
     "ExpansionSummary(terms=3, coefficient_sum=8, matching_number=1, "
     "edge_cover_number=2, perfect_matchings=((0,),))"),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, other, text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_behaviour_is_pinned(cls, args, kwargs, other, text):
    record = cls(*args)
    assert cls(**kwargs) == record
    assert repr(record) == repr(cls(**kwargs)) == text
    assert record != cls(*other)
    for value in (record, copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert value == record
    if cls is not InducedSubgraph:  # its vertex_map is a dict
        assert hash(cls(**kwargs)) == hash(record)
        assert len({record, cls(*args)}) == 1
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*args) and repr(record) == text


def test_multigraph_caches_leave_equality_and_hash_alone():
    g = Multigraph(3, [(1, 0), (2, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.degrees() == (1, 2, 1) and g.is_connected()
    fresh = Multigraph(3, ((0, 1), (1, 2)))
    assert g == fresh and hash(g) == hash(fresh)
    assert pickle.loads(pickle.dumps(g)).degrees() == (1, 2, 1)


def test_spec_defaults_and_sizes():
    spec = RandomSpec(4, 5)
    assert (spec.parallel_prob, spec.seed, spec.require_connected) == (0.3, 0, True)
    assert RandomSpec(4, 5, seed=2).seed == 2
    assert FamilySpec("multipartite", [2, 3]).sizes == (2, 3)
    with pytest.raises(TypeError, match="sizes"):
        FamilySpec("complete", (True,))
    with pytest.raises(TypeError, match="n must be an int"):
        RandomSpec(True, 2)


def test_spec_replace_runs_the_checks():
    assert RandomSpec(4, 5)._replace(seed=3) == RandomSpec(4, 5, seed=3)
    assert FamilySpec("complete", (4,))._replace(sizes=[5]).sizes == (5,)
    with pytest.raises(InvalidSpecError):
        RandomSpec(4, 5)._replace(m=2)
    with pytest.raises(TypeError, match="sizes"):
        FamilySpec("complete", (4,))._replace(sizes=(False,))
    assert RandomSpec(4, 5)._asdict()["m"] == 5
