"""End-to-end and per-layer benchmark of the treecount CLI.

    python3 perfbench/run.py --workload {verify,count,expand,all} [--seed N]
                             [--seconds S] [--trace 0|1]

An op is one in-process call of ``treecount.cli.main(argv)`` with ``--json``
and stdout captured: argparse, file load, compute and rendering. A workload
runs as a closed loop, one client in this one process and no threads, over
a pool of ops drawn from the seed at set-up (see inputs.py), never repeating
a labelled graph, so a cache shared across calls cannot show a gain that a
CLI user, who pays one process per call, would never see. Every answer is
checked outside the op's timed span; a wrong answer, a nonzero exit or an
exception counts as a failed op.

Times are reported at the reference speed of probe.py: each latency and
each import time is scaled by the probe timed next to it, which removes
most of a shared host's drift. The unscaled figures are in the results
file too.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed.
With ``--trace 1`` every other block of ops, one op of each kind, runs with
spans around each layer's public functions (see spans.py); the per-layer metrics come from
those ops, and the untraced ops in between give the tracing overhead.

The full results, with the input fingerprint, the environment and sample
counts, go to perfbench/out/<workload>-seed<seed>-trace<t>.json; the last
stdout line is the one-object summary. ``--workload all`` runs each
workload in a fresh process and prints every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import inputs
import probe
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / ".work"

# Import-time samples taken before and again after the measured loop, so
# that they span two moments of a shared machine's load.
SETUP_SAMPLES = 10
IMPORT_PROBE = (
    "import statistics, sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import treecount.cli; took = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "import probe; print(took, statistics.median(probe.probe() for _ in range(5)))"
)

# Spans that must not occur on a workload, as name prefixes: the workload
# is the bypass case for changes to those layers.
FORBIDDEN_SPANS = {
    "count": ("identity.", "fpoly.", "algebra.multiply_forms"),
    "expand": ("counting.tau_deletion_contraction", "degree_formula.c_pieces"),
}
# Spans whose inclusive time must cover more than half the op time on verify.
COVER_SPANS = ("identity.check_identity", "fpoly.expand_f")
COVER_WORKLOAD = "verify"


@dataclass
class Sample:
    kind: str
    seconds: float
    traced: bool
    failure: str | None
    probe_s: float
    scaled: float = 0.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_cli():
    if not (SRC / "treecount" / "__init__.py").is_file():
        raise ImportError(f"no treecount sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import treecount.cli

    if Path(treecount.cli.__file__).resolve().parent != SRC / "treecount":
        raise ImportError(f"treecount was imported from {treecount.cli.__file__}, not {SRC}")
    return treecount.cli


def measure_setup(samples: int = SETUP_SAMPLES) -> list[tuple[float, float]]:
    """(import seconds, probe seconds) of treecount.cli, in each of `samples` fresh interpreters."""
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(BENCH_DIR)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        took, probe_s = map(float, done.stdout.split())
        times.append((took, probe_s))
    return times


def call(cli, argv: list[str]) -> tuple[float, object, str]:
    """One op: (seconds, exit code or exception text, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crashing op is a failed op, not the end of the run
        code = f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, code, out.getvalue()


def run_ops(cli, ops, seconds: float, tracer=None, group: int = 1) -> list[Sample]:
    """Closed loop over `ops` until `seconds` of wall time have passed.

    A probe runs before each op, outside its timed span; each sample's
    `scaled` time is its latency at the probe's reference speed. With a
    tracer, ops alternate in blocks of `group` (one block per rotation of
    op kinds) between untraced and traced; the tracer is installed only
    around traced calls, so untraced ops run the plain program.
    """
    samples = []
    deadline = perf_counter() + seconds
    for op in ops:
        if samples and perf_counter() >= deadline:
            break
        traced = tracer is not None and (op.index // group) % 2 == 1
        probe_s = probe.probe()
        if traced:
            with tracer.installed():
                latency, code, out = call(cli, op.argv)
            tracer.end_op(latency)
        else:
            latency, code, out = call(cli, op.argv)
        samples.append(Sample(op.kind, latency, traced, inputs.check(op, code, out), probe_s))
    for s, scale in zip(samples, probe.local_scales([s.probe_s for s in samples])):
        s.scaled = s.seconds * scale
    return samples


def latency_stats(samples: list[Sample], field: str = "scaled") -> dict:
    """Rate and percentiles of `field`; a failed op counts as missing every latency limit."""
    if not samples:
        return {"ops_per_s": 0.0, "p50_s": 0.0, "p90_s": 0.0, "beyond_p90": 0}
    times = [getattr(s, field) if s.failure is None else float("inf") for s in samples]
    good = [s for s in samples if s.failure is None]
    busy = sum(getattr(s, field) for s in samples)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return {
        "ops_per_s": len(good) / busy if busy else 0.0,
        "p50_s": statistics.median(times),
        "p90_s": p90,
        "beyond_p90": sum(t > p90 for t in times),
    }


def layer_metrics(tracer, samples: list[Sample], workload: str) -> tuple[dict, dict]:
    """Values of every `<layer>.<function>.<stat>` and `trace.*` metric, and the claims."""
    ops = max(tracer.ops, 1)
    traced = latency_stats([s for s in samples if s.traced])["ops_per_s"]
    untraced = latency_stats([s for s in samples if not s.traced])["ops_per_s"]
    forbidden = {
        name: t.calls
        for name, t in tracer.totals.items()
        if t.calls and name.startswith(FORBIDDEN_SPANS.get(workload, ()))
    }
    covered = sum(tracer.totals[name].inclusive_s for name in COVER_SPANS)
    share = covered / tracer.op_seconds if tracer.op_seconds else 0.0
    values = {
        "trace.untraced_ops_per_s": untraced,
        "trace.traced_ops_per_s": traced,
        "trace.slowdown": untraced / traced if traced else 0.0,
        "trace.traced_ops": tracer.ops,
        "trace.forbidden_spans": sum(forbidden.values()),
        "trace.cover_share": share,
        "trace.self_time_violations": tracer.violations,
    }
    for name, t in tracer.totals.items():
        values[f"{name}.calls"] = t.calls / ops
        values[f"{name}.items"] = t.items / ops
        values[f"{name}.terms"] = t.terms / ops
        values[f"{name}.self_s"] = t.self_s / ops
        consumed = tracer.items_consumed_by(name)
        values[f"{name}.useful_ratio"] = t.items / consumed if consumed else 0.0
    claims = {
        "forbidden_spans": {
            "prefixes": list(FORBIDDEN_SPANS.get(workload, ())),
            "found": forbidden,
            "ok": not forbidden,
        },
        "self_times_within_op": tracer.violations == 0,
    }
    if workload == COVER_WORKLOAD:
        claims["cover"] = {"spans": list(COVER_SPANS), "share": share, "ok": share > 0.5}
    return values, claims


def environment(attempted: int) -> dict:
    program = hashlib.sha256()
    for path in sorted((SRC / "treecount").glob("*.py")):
        program.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
        "commit": git_commit(),
        "program_sha256": program.hexdigest(),
        "ops_per_run": attempted,
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args, spec: dict) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (results, summary line)."""
    cli = import_cli()
    setup = []
    if not args.trace:
        measure_setup(1)  # discarded: on a fresh checkout it also writes the bytecode cache
        setup = measure_setup()
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=WORK_DIR) as workdir:
        pool = inputs.build_pool(
            args.workload, args.seed, inputs.pool_size(args.workload, args.seconds), Path(workdir)
        )
        tracer = spans.Tracer() if args.trace else None
        group = len(inputs.WORKLOADS[args.workload])
        samples = run_ops(cli, pool.ops, args.seconds, tracer, group)
    if setup:
        setup += measure_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(samples)
    failures = [(i, s.kind, s.failure) for i, s in enumerate(samples) if s.failure]
    stats, raw = latency_stats(samples), latency_stats(samples, "seconds")
    metrics = {
        "ops_per_s": {"value": stats["ops_per_s"], "unit": "ops/s", "samples": attempted},
        "op_p50_ms": {"value": stats["p50_s"] * 1000, "unit": "ms", "samples": attempted},
        "op_p90_ms": {"value": stats["p90_s"] * 1000, "unit": "ms", "samples": attempted},
        "error_rate": {"value": len(failures) / attempted, "unit": "ratio", "samples": attempted},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "samples": 1},
    }
    raw_metrics = {
        "ops_per_s": raw["ops_per_s"],
        "op_p50_ms": raw["p50_s"] * 1000,
        "op_p90_ms": raw["p90_s"] * 1000,
        "probe_median_ms": statistics.median(s.probe_s for s in samples) * 1000,
    }
    if setup:
        scaled = [took * probe.REFERENCE_S / probe_s for took, probe_s in setup]
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s", "samples": len(setup)}
        raw_metrics["setup_s"] = statistics.median(took for took, _ in setup)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": pool.fingerprint,
        "pool_ops": len(pool.ops),
        "pool_exhausted": attempted == len(pool.ops),
        "env": environment(attempted),
        "ops": {
            "attempted": attempted,
            "failed": len(failures),
            "by_kind": {k: sum(s.kind == k for s in samples) for k in dict.fromkeys(s.kind for s in samples)},
            "beyond_p90": stats["beyond_p90"],
        },
        "failures": failures[:20],
        "setup_samples_s": setup,
        "metrics": metrics,
        "unscaled_metrics": raw_metrics,
    }
    correct = not failures
    if tracer is None:
        wanted = spec["end_to_end"]
    else:
        values, claims = layer_metrics(tracer, samples, args.workload)
        results["layers"] = values
        results["claims"] = claims
        correct = correct and tracer.violations == 0
        wanted = spec["per_layer"]
        metrics = {name: {"value": v} for name, v in values.items()}
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in wanted},
    }
    return results, summary


def print_table(workload: str, results: dict) -> None:
    ops = results["ops"]
    print(f"# {workload}: seed {results['seed']}, {ops['attempted']} ops "
          f"({ops['failed']} failed, {ops['beyond_p90']} beyond p90), "
          f"fingerprint {results['fingerprint'][:16]}")
    for name, m in results["metrics"].items():
        print(f"{workload:<8} {name:<14} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    for name, ok in sorted(results.get("claims", {}).items()):
        print(f"{workload:<8} claim {name}: {ok}")


def run_all(args, spec: dict) -> int:
    """Each workload in its own fresh process; prints every metric of each."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"treecount bench: workload {w['name']} printed no result", file=sys.stderr)
            return 2
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"treecount bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, spec)
    try:
        results, summary = run_workload(args, spec)
    except (ImportError, subprocess.SubprocessError) as exc:
        print(f"treecount bench: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print_table(args.workload, results)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
