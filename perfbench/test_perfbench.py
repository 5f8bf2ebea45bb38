"""Tests of the benchmark itself: seeded inputs, answer checks and tracer hygiene.

Run with ``python3 -m pytest perfbench``; each test makes only a few CLI calls.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

cli = run.import_cli()


def module_globals() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "treecount" or name.startswith("treecount.")
        for attr, value in vars(mod).items()
    }


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_seed_fixes_inputs_and_fingerprint(tmp_path, workload):
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    a, b = (inputs.build_pool(workload, 3, 6, d) for d in dirs[:2])
    other = inputs.build_pool(workload, 4, 6, dirs[2])
    assert a.fingerprint == b.fingerprint
    assert [op.argv[1:] for op in a.ops] != [op.argv[1:] for op in other.ops]
    assert a.fingerprint != other.fingerprint
    for d in dirs[:2]:
        assert sorted(p.name for p in d.iterdir()) == sorted(p.name for p in dirs[0].iterdir())
        for p in d.iterdir():
            assert p.read_bytes() == (dirs[0] / p.name).read_bytes()


def test_no_labelled_graph_repeats(tmp_path):
    inputs.build_pool("count", 0, 400, tmp_path)
    keys = []
    for path in tmp_path.iterdir():
        lines = path.read_text().split("\n")
        n = int(lines[0].split()[1])
        edges = [tuple(map(int, line.split()[1:])) for line in lines[1:] if line]
        keys.append(inputs.labelled_key(n, edges))
    assert len(keys) == 400 and len(set(keys)) == 400


def test_independent_oracle_matches_library():
    from treecount import RandomSpec, random_multigraph, tau_matrix_tree, tau_weighted_matrix_tree

    assert inputs.weighted_tree_sum(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]) == 16
    for seed in range(20):
        g = random_multigraph(RandomSpec(n=8, m=13, seed=seed))
        weights = [(3 * j) % 7 - 3 for j in range(g.m)]
        assert inputs.weighted_tree_sum(g.n, g.edges) == tau_matrix_tree(g)
        assert inputs.weighted_tree_sum(g.n, g.edges, weights) == tau_weighted_matrix_tree(g, weights)


@pytest.mark.parametrize("workload, key", [("count", "tau"), ("expand", "coefficient_sum")])
def test_wrong_expected_value_is_a_failed_op(tmp_path, workload, key):
    pool = inputs.build_pool(workload, 5, 3, tmp_path)
    pool.ops[1].expected[key] += 1
    samples = run.run_ops(cli, pool.ops, 60)
    assert [s.failure is not None for s in samples] == [False, True, False]
    stats = run.latency_stats(samples, "seconds")
    assert stats["ops_per_s"] * sum(s.seconds for s in samples) == pytest.approx(2)
    assert stats["p90_s"] == float("inf")


def test_traced_run_restores_module_attributes(tmp_path):
    pool = inputs.build_pool("verify", 6, 4, tmp_path)
    before = module_globals()
    tracer = spans.Tracer()
    samples = run.run_ops(cli, pool.ops, 60, tracer, 1)
    after = module_globals()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert [s.traced for s in samples] == [False, True, False, True]
    assert all(s.failure is None for s in samples)
    assert tracer.ops == 2 and tracer.totals["cli.main"].calls == 2
    assert tracer.totals["identity.check_identity"].calls == 6
    assert tracer.violations == 0
    values, claims = run.layer_metrics(tracer, samples, "verify")
    assert claims["cover"]["ok"] and values["trace.traced_ops"] == 2


def test_installed_restores_on_error():
    before = module_globals()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert cli.main is not before[("treecount.cli", "main")]
            raise RuntimeError("boom")
    after = module_globals()
    assert all(before[k] is after[k] for k in before)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
