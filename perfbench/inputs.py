"""Seeded op pools for the treecount benchmark, with their expected answers.

An op is one argv for ``treecount.cli.main``. Every graph file is drawn by
this module's own generator from the workload seed, so the program only
ever sees the generated inputs, and every expected value is computed here
by code that shares nothing with the library. The one exception is
``verify``, which generates its graphs inside the CLI from a per-op seed;
those graphs are regenerated with ``treecount.randgraph`` only to fingerprint
them and to prove that no labelled graph repeats.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

COUNT_METHODS = ("matrix-tree", "del-con", "degree", "degree-direct", "enum")
IDENTITY_TRIALS = 4
PARALLEL_PROB = 0.3

# Op kinds per workload, issued in rotation, with the graph size each draws.
WORKLOADS = {
    "verify": (("verify", 7, 12),),
    "count": (("count-all", 10, 18), ("count-degree", 16, 28)),
    "expand": (("identity", 9, 15), ("fpoly", 9, 14)),
}

# Difficulty strata per op kind. Odd, so that traced runs, which alternate
# blocks of ops, trace every stratum as often as they leave it untraced.
STRATA = 9
STRATA_REFERENCE = 40 * STRATA

# Pool size per measured second: about ten times the seed commit's rate, so
# a much faster program still runs the whole window on fresh inputs.
POOL_OPS_PER_S = {"verify": 200, "count": 100, "expand": 70}


@dataclass
class Op:
    """One CLI call and what its JSON answer must say."""

    index: int
    kind: str
    argv: list[str]
    expected: dict = field(default_factory=dict)


@dataclass
class Pool:
    ops: list[Op]
    fingerprint: str


def pool_size(workload: str, seconds: float) -> int:
    return max(16, math.ceil(seconds * POOL_OPS_PER_S[workload]))


def random_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A connected loopless multigraph on n vertices with exactly m edges.

    A random recursive tree on shuffled labels comes first; each further
    edge repeats an existing pair with probability PARALLEL_PROB, otherwise
    joins a uniform pair. The edge order is shuffled at the end.
    """
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [(labels[rng.randrange(i)], labels[i]) for i in range(1, n)]
    while len(edges) < m:
        if rng.random() < PARALLEL_PROB:
            edges.append(rng.choice(edges))
        else:
            a, b = rng.sample(range(n), 2)
            edges.append((a, b))
    rng.shuffle(edges)
    return edges


def graph_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"n {n}\n" + "".join(f"e {a} {b}\n" for a, b in edges)


def labelled_key(n: int, edges) -> tuple:
    return n, tuple(sorted((min(a, b), max(a, b)) for a, b in edges))


def determinant(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = [row[:] for row in matrix]
    d = len(a)
    sign, prev = 1, 1
    for k in range(d):
        pivot_row = next((i for i in range(k, d) if a[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * (a[d - 1][d - 1] if d else 1)


def weighted_tree_sum(n: int, edges, weights=None) -> int:
    """Kirchhoff: the Laplacian minor that drops vertex 0."""
    lap = [[0] * n for _ in range(n)]
    for j, (a, b) in enumerate(edges):
        w = 1 if weights is None else weights[j]
        lap[a][a] += w
        lap[b][b] += w
        lap[a][b] -= w
        lap[b][a] -= w
    return determinant([row[1:] for row in lap[1:]])


def degree_product(n: int, edges) -> int:
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return math.prod(deg)


def identity_points(weight_seed: int, m: int) -> list[list[int]]:
    # the documented meaning of `identity --weights random:<seed> --trials k`
    rng = random.Random(weight_seed)
    return [[rng.randint(-1000, 1000) for _ in range(m)] for _ in range(IDENTITY_TRIALS)]


def build_pool(workload: str, seed: int, size: int, workdir: Path) -> Pool:
    """Draw `size` ops for `workload` from `seed`, writing graph files to workdir.

    Op kinds rotate, and each kind cycles through STRATA equally likely
    difficulty strata, so every run of a given length meets the same mix of
    easy and hard graphs whatever the seed. The graphs within a stratum are
    independent draws, and the pool as a whole keeps the generator's
    distribution, up to the error of the strata boundaries. A draw that
    repeats an op seed or a labelled graph is discarded. The same
    (workload, seed, size) always gives the same argv and file bytes, hence
    the same fingerprint.
    """
    kinds = WORKLOADS[workload]
    rng = random.Random(f"treecount-bench:{workload}:{seed}")
    digest = hashlib.sha256(f"{workload}\0{seed}\0{size}\0".encode())
    bounds = {kind: _strata_bounds(kind, n, m) for kind, n, m in kinds}
    queues = {kind: [[] for _ in range(STRATA)] for kind, _, _ in kinds}
    seen: set[tuple] = set()
    used_seeds: set[int] = set()
    ops = []
    for i in range(size):
        kind, n, m = kinds[i % len(kinds)]
        queue = queues[kind][(i // len(kinds)) % STRATA]
        while not queue:
            op_seed, edges, value, tiebreak = _draw(kind, n, m, rng)
            key = labelled_key(n, edges)
            if op_seed in used_seeds or key in seen:
                continue
            seen.add(key)
            used_seeds.add(op_seed)
            stratum = bisect.bisect(bounds[kind], (value, tiebreak))
            queues[kind][stratum].append((op_seed, edges, value))
        op_seed, edges, value = queue.pop(0)
        op, payload = _make_op(i, kind, n, edges, op_seed, value, workdir)
        digest.update(json.dumps(_relative_argv(op.argv, workdir)).encode())
        digest.update(payload)
        ops.append(op)
    return Pool(ops, digest.hexdigest())


def _draw(kind: str, n: int, m: int, rng: random.Random) -> tuple[int, list, int, float]:
    """One candidate op: its seed, its graph, its difficulty and a tie-breaker.

    Difficulty is the degree product for fpoly, whose expansion size it
    tracks, and the spanning-tree count for every other kind; both are also
    the op's expected answer where it has one. The uniform tie-breaker makes
    the strata equally likely.
    """
    op_seed = rng.randrange(2**31)
    edges = _verify_graph_edges(op_seed, n, m) if kind == "verify" else random_edges(rng, n, m)
    value = degree_product(n, edges) if kind == "fpoly" else weighted_tree_sum(n, edges)
    return op_seed, edges, value, rng.random()


def _strata_bounds(kind: str, n: int, m: int) -> list[tuple]:
    # difficulty quantiles of a fixed reference sample, the same for every seed
    rng = random.Random(f"treecount-bench:strata:{kind}")
    ref = sorted(_draw(kind, n, m, rng)[2:] for _ in range(STRATA_REFERENCE))
    return [ref[j * STRATA_REFERENCE // STRATA] for j in range(1, STRATA)]


def _verify_graph_edges(op_seed: int, n: int, m: int) -> list[tuple[int, int]]:
    from treecount.randgraph import RandomSpec, random_multigraph

    g = random_multigraph(RandomSpec(n=n, m=m, parallel_prob=PARALLEL_PROB, seed=op_seed))
    return list(g.edges)


def _make_op(i: int, kind: str, n: int, edges, op_seed: int, value: int, workdir: Path) -> tuple[Op, bytes]:
    if kind == "verify":
        argv = ["verify", "--n", str(n), "--m", str(len(edges)), "--points", "3",
                "--trials", "1", "--seed", str(op_seed), "--json"]
        return Op(i, kind, argv), graph_text(n, edges).encode()
    text = graph_text(n, edges).encode()
    path = workdir / f"op{i:05d}.graph"
    path.write_bytes(text)
    if kind == "count-all":
        argv = ["count", str(path), "--json"]
        expected = {"tau": value}
    elif kind == "count-degree":
        argv = ["count", str(path), "--method", "degree", "--json"]
        expected = {"tau": value}
    elif kind == "identity":
        argv = ["identity", str(path), "--weights", f"random:{op_seed}",
                "--trials", str(IDENTITY_TRIALS), "--json"]
        points = identity_points(op_seed, len(edges))
        expected = {"points": points, "taus": [weighted_tree_sum(n, edges, w) for w in points]}
    else:
        argv = ["fpoly", str(path), "--json"]
        expected = {"coefficient_sum": value}
    return Op(i, kind, argv, expected), text


def _relative_argv(argv: list[str], workdir: Path) -> list[str]:
    prefix = str(workdir) + "/"
    return [a[len(prefix):] if a.startswith(prefix) else a for a in argv]


def check(op: Op, code, stdout: str) -> str | None:
    """None when the op's answer is right, else the reason it is wrong."""
    if code != 0:
        return f"exit code {code!r}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    exp = op.expected
    if op.kind == "verify":
        return None if doc.get("violations") == 0 else f"violations={doc.get('violations')}"
    if op.kind in ("count-all", "count-degree"):
        names = COUNT_METHODS if op.kind == "count-all" else ("degree",)
        methods = doc.get("methods", {})
        if set(methods) != set(names):
            return f"methods {sorted(methods)}"
        wrong = {k: v for k, v in methods.items() if v.get("value") != exp["tau"]}
        if wrong or doc.get("agreement") is not True:
            return f"expected tau={exp['tau']}, got {wrong or 'agreement false'}"
        return None
    if op.kind == "identity":
        reports = doc.get("reports", [])
        got = [(r.get("weights"), r.get("tau")) for r in reports]
        want = list(zip(exp["points"], exp["taus"]))
        if doc.get("all_hold") is not True or got != want:
            return "identity does not hold or tau differs from the weighted matrix-tree sum"
        return None
    if doc.get("oracle_agreement") is not True:
        return "fpoly disagrees with its oracles"
    if doc.get("coefficient_sum") != exp["coefficient_sum"]:
        return f"coefficient_sum {doc.get('coefficient_sum')} != {exp['coefficient_sum']}"
    return None
