from __future__ import annotations

import random

import pytest

from treecount import RandomSpec, random_multigraph
from treecount.errors import InvalidSpecError
from treecount.randgraph import _random_tree_edges


def test_exact_counts_and_connectivity():
    for seed in range(30):
        spec = RandomSpec(n=7, m=12, parallel_prob=0.4, seed=seed)
        g = random_multigraph(spec)
        assert g.n == 7
        assert g.m == 12
        assert g.is_connected()


def test_same_seed_same_graph():
    spec = RandomSpec(n=6, m=10, parallel_prob=0.5, seed=42)
    assert random_multigraph(spec) == random_multigraph(spec)


def test_different_seeds_usually_differ():
    graphs = {
        random_multigraph(RandomSpec(n=6, m=10, seed=s)).edges for s in range(8)
    }
    assert len(graphs) > 1


def test_parallel_probability_one_only_duplicates():
    g = random_multigraph(RandomSpec(n=5, m=12, parallel_prob=1.0, seed=3))
    assert len(set(g.edges)) == 4, "all edges beyond the tree skeleton duplicate it"


def test_unconnected_mode_allows_sparse_graphs():
    g = random_multigraph(
        RandomSpec(n=6, m=2, parallel_prob=0.0, seed=1, require_connected=False)
    )
    assert g.n == 6 and g.m == 2


@pytest.mark.parametrize("m", [1, 3])
def test_two_vertices_pinned(m):
    for seed in range(6):
        assert random_multigraph(RandomSpec(n=2, m=m, seed=seed)).edges == ((0, 1),) * m


def test_two_vertex_tree_draws_nothing():
    # the empty code sequence decodes to the one edge, with no draw
    rng = random.Random(7)
    state = rng.getstate()
    assert _random_tree_edges(rng, 2) == [(0, 1)]
    assert rng.getstate() == state


def test_single_vertex():
    g = random_multigraph(RandomSpec(n=1, m=0, seed=0))
    assert g.n == 1 and g.m == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, m=0),
        dict(n=5, m=3),
        dict(n=1, m=2),
        dict(n=5, m=-1, require_connected=False),
        dict(n=5, m=6, parallel_prob=1.5),
        dict(n=65, m=70),
    ],
)
def test_invalid_specs(kwargs):
    with pytest.raises(InvalidSpecError):
        RandomSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(n=4, m=3.5), "m"),
        (dict(n=4.0, m=3), "n"),
        (dict(n=True, m=0), "n"),
        (dict(n=4, m=False, require_connected=False), "m"),
        (dict(n="4", m=3), "n"),
    ],
)
def test_non_int_counts_are_rejected_at_construction(kwargs, field):
    # a float m used to build a graph with more edges than asked for
    with pytest.raises(TypeError, match=f"random graph {field} must be an int"):
        RandomSpec(**kwargs)
