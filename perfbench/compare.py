"""Spread and comparison of benchmark result files.

    python3 perfbench/compare.py RESULTS.json... [--against RESULTS.json...]

Groups the files by workload and trace mode and prints, for every metric
of BENCHMARK.json, the median, the quartiles and the spread, that is the
distance between the quartiles as a share of the median. With
``--against``, it also prints the second set's median and its change from
the first, flagging a change worse than the metric's bound as a regression
and a spread wider than the bound as unresolved.

Runs are only compared on identical inputs: two files with the same
workload, seed and run length must carry the same input fingerprint, or the
comparison is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def fingerprint_conflicts(runs: list[dict]) -> list[str]:
    seen: dict[tuple, str] = {}
    conflicts = []
    for r in runs:
        key = (r["workload"], r["seed"], r["seconds"])
        if seen.setdefault(key, r["fingerprint"]) != r["fingerprint"]:
            conflicts.append(f"{key[0]} seed {key[1]} ({key[2]} s)")
    return conflicts


def metric_values(run: dict) -> dict[str, float]:
    if run["trace"]:
        return dict(run["layers"])
    return {name: m["value"] for name, m in run["metrics"].items()}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def grouped(runs: list[dict]) -> dict[tuple, dict[str, list[float]]]:
    groups: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for r in runs:
        for name, v in metric_values(r).items():
            groups[(r["workload"], r["trace"])][name].append(v)
    return groups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/compare.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.results), load(args.against)
    conflicts = fingerprint_conflicts(base + new)
    if conflicts:
        print("refusing to compare runs on different inputs: " + ", ".join(conflicts), file=sys.stderr)
        return 2
    base_groups, new_groups = grouped(base), grouped(new)
    for (workload, trace), by_name in sorted(base_groups.items()):
        print(f"# {workload} trace={trace}")
        for name, values in by_name.items():
            if name not in metrics:
                continue
            s = summarize(values)
            line = (f"{workload:<8} {name:<44} n={s['n']:<3} median={s['median']:<12.6g} "
                    f"q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} spread={s['spread']:.4f}")
            other = new_groups.get((workload, trace), {}).get(name)
            if other:
                line += "  " + verdict(metrics[name], s, summarize(other))
            print(line)
    return 0


def verdict(metric: dict, base: dict, new: dict) -> str:
    change = (new["median"] - base["median"]) / base["median"] if base["median"] else 0.0
    text = f"against={new['median']:.6g} change={change:+.4f}"
    bound = metric.get("bound")
    if bound is None:
        return text
    worse = change if metric["better"] == "lower" else -change
    if worse > bound:
        return text + " REGRESSED"
    if max(base["spread"], new["spread"]) > bound:
        return text + " unresolved"
    return text + " ok"


if __name__ == "__main__":
    sys.exit(main())
