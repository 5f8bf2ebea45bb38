"""Command-line interface.

Subcommands: count (run the counting methods on a graph file), family
(emit a family graph with its closed-form count when known), verify
(seeded randomized cross-validation of every method and invariant),
identity (evaluate the weighted identity at chosen weight points), fpoly
(incidence-product expansion report), bound (degree-product bound vs the
actual count).

Each command returns a report: an exit code, a JSON document, its text
lines and its --quiet lines. `main` renders it and is the one place errors
are reported: a deliberate library error becomes one stderr line,
`treecount <command>: <message>`, with `parse error: ` before the message
for exit 2. Exit codes: 0 success, 1 usage error, 2 unparseable or
unreadable graph or weights file, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from collections.abc import Iterator, Sequence

from .algebra import DEFAULT_TERM_BUDGET
from .counting import (
    ENUM_TREE_BUDGET,
    FAMILY_KINDS,
    FamilySpec,
    closed_form_tau,
    count_spanning_trees,
    enumerate_spanning_trees,
    generate_family,
    tau_deletion_contraction,
    tau_matrix_tree,
)
from .degree_formula import (
    best_thomassen_bound,
    direct_formula_value,
    tau_via_direct_formula,
    tau_via_grouped_formula,
    thomassen_bound,
)
from .errors import (
    BudgetExceededError,
    DisconnectedError,
    EmptyGraphError,
    ParseError,
    TreecountError,
)
from .fpoly import (
    brute_force_edge_cover,
    brute_force_matching,
    edge_cover_number_from_f,
    expand_f,
    expansion_summary,
    matching_number_from_f,
    summary_and_terms,
)
from .graph import Multigraph, parse, serialize
from .identity import check_identity, check_identity_points
from .randgraph import RandomSpec, random_multigraph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VIOLATION = 3

ENUM_VERTEX_CAP = 12
FPOLY_VERIFY_CAP = 10

COUNT_METHODS = ("matrix-tree", "del-con", "degree", "degree-direct", "enum")


# what a command returns for `main` to render: exit code, JSON document, text
# lines and --quiet lines
_Report = tuple[int, dict, list[str], list[str]]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here reserves 2 for
    # unparseable graph files, so remap usage errors to 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# built on the first `main` call, not at import, and reused by every later
# call in the same process: parsing leaves the parser as it was
@functools.cache
def _build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit one JSON document")
    shared.add_argument("--quiet", action="store_true", help="only the essential lines")

    parser = _Parser(prog="treecount", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", parents=[shared], help="count spanning trees")
    p_count.add_argument("file", help="graph file")
    p_count.add_argument(
        "--method",
        choices=COUNT_METHODS + ("all",),
        default="all",
        help="counting method (default: all)",
    )
    p_count.add_argument("--root", type=int, default=None, help="root vertex for degree methods")

    p_family = sub.add_parser("family", parents=[shared], help="generate a family graph")
    p_family.add_argument("kind", choices=FAMILY_KINDS)
    p_family.add_argument("sizes", type=int, nargs="+", help="size parameters")
    p_family.add_argument("-o", "--output", default=None, help="write the graph here instead of stdout")

    p_verify = sub.add_parser("verify", parents=[shared], help="randomized cross-validation")
    p_verify.add_argument("--n", type=int, default=7, help="vertices per trial graph")
    p_verify.add_argument("--m", type=int, default=12, help="edges per trial graph")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--parallel-prob", type=float, default=0.3)
    p_verify.add_argument("--points", type=int, default=3, help="weight points per identity check")
    p_verify.add_argument(
        "--allow-disconnected",
        action="store_true",
        help="drop the connectivity requirement and probe the degree expression on disconnected graphs",
    )

    p_identity = sub.add_parser("identity", parents=[shared], help="check the weighted identity")
    p_identity.add_argument("file", help="graph file")
    p_identity.add_argument("--root", type=int, default=None)
    weights = p_identity.add_mutually_exclusive_group()
    weights.add_argument(
        "--weights",
        default="ones",
        help="'ones', 'random:<seed>', or a comma list like 1,2,3",
    )
    weights.add_argument("--weights-file", default=None, help="file with one integer per line")
    p_identity.add_argument("--trials", type=int, default=1, help="points to draw when weights are random")

    p_fpoly = sub.add_parser("fpoly", parents=[shared], help="expand the incidence product")
    p_fpoly.add_argument("file", help="graph file")
    p_fpoly.add_argument("--dump", action="store_true", help="print every term")

    p_bound = sub.add_parser("bound", parents=[shared], help="degree-product bound report")
    p_bound.add_argument("file", help="graph file")
    p_bound.add_argument("--root", type=int, default=None, help="default: the root with the smallest bound")
    for p in (p_verify, p_fpoly):
        p.add_argument(
            "--budget", type=int, default=DEFAULT_TERM_BUDGET, help="monomial budget for polynomial expansion"
        )

    return parser


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> Multigraph:
    return parse(_read_text(path))


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise TreecountError(f"{flag} must be >= 1")


def _require_root(g: Multigraph) -> None:
    # `count --root`, `identity` and `bound` all need a vertex to root at
    if g.n == 0:
        raise EmptyGraphError("the empty graph has no vertices to root at")


# ---------------------------------------------------------------- count


def _run_method(name: str, g: Multigraph, root: int | None) -> dict:
    entry: dict = {}
    start = time.perf_counter()
    try:
        if name == "matrix-tree":
            entry["value"] = tau_matrix_tree(g)
        elif name == "del-con":
            entry["value"] = tau_deletion_contraction(g)
        elif name == "enum":
            entry["value"] = count_spanning_trees(g)
        else:
            if g.n == 0:
                raise EmptyGraphError("tau needs at least one vertex")
            entry["root"] = root
            if name == "degree":
                entry["value"] = tau_via_grouped_formula(g, root)
            else:
                entry["value"] = tau_via_direct_formula(g, root)
    except TreecountError as exc:
        entry["error"] = str(exc)
    entry["ms"] = round((time.perf_counter() - start) * 1000, 3)
    return entry


def cmd_count(args: argparse.Namespace) -> _Report:
    g = _load_graph(args.file)
    if args.root is not None:
        # checked once here rather than per degree method, whose errors are output
        _require_root(g)
        g._check_vertex(args.root)
    root, bound = best_thomassen_bound(g) if g.n >= 1 else (None, None)
    u = root if args.root is None else args.root
    names = COUNT_METHODS if args.method == "all" else (args.method,)
    methods = {name: _run_method(name, g, u) for name in names}
    values = {e["value"] for e in methods.values() if "value" in e}
    agreement = len(values) <= 1
    doc = {
        "graph": {"n": g.n, "m": g.m, "connected": g.is_connected()},
        "methods": methods,
        "agreement": agreement,
        "bound": {"root": root, "value": bound},
    }
    lines = [f"graph: n={g.n} m={g.m} connected={'yes' if doc['graph']['connected'] else 'no'}"]
    quiet_lines = []
    for name in names:
        entry = methods[name]
        if "value" in entry:
            extra = f"  root={entry['root']}" if "root" in entry else ""
            lines.append(f"{name:<14} {entry['value']}   {entry['ms']} ms{extra}")
            quiet_lines.append(f"{name} {entry['value']}")
        else:
            lines.append(f"{name:<14} error: {entry['error']}")
            quiet_lines.append(f"{name} error")
    lines.append(f"agreement: {'yes' if agreement else 'NO'}")
    if bound is not None:
        lines.append(f"thomassen: root={root} bound={bound}")
    return (EXIT_OK if agreement else EXIT_VIOLATION), doc, lines, quiet_lines


# ---------------------------------------------------------------- family


def cmd_family(args: argparse.Namespace) -> _Report:
    spec = FamilySpec(args.kind, tuple(args.sizes))
    g = generate_family(spec)
    closed = closed_form_tau(spec)
    closed_text = "unavailable" if closed is None else str(closed)
    doc = {
        "kind": spec.kind,
        "sizes": list(spec.sizes),
        "n": g.n,
        "m": g.m,
        "closed_form": closed,
        "output": args.output,
    }
    if not args.output:
        lines = serialize(g).splitlines() + [f"# closed form: {closed_text}"]
        return EXIT_OK, doc, lines, lines
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(serialize(g))
    except OSError as exc:
        raise TreecountError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    closed_line = f"closed form: {closed_text}"
    lines = [f"wrote {args.output} (n={g.n}, m={g.m})", closed_line]
    return EXIT_OK, doc, lines, [closed_line]


# ---------------------------------------------------------------- verify


def _method_values(g: Multigraph, root: int | None) -> dict[str, int]:
    # tau by every route that applies; a disconnected graph gets no degree root
    values = {
        "matrix-tree": tau_matrix_tree(g),
        "del-con": tau_deletion_contraction(g),
        "del-con-alt": tau_deletion_contraction(g, "first-edge"),
    }
    if g.n <= ENUM_VERTEX_CAP:
        # beside the class walk of `count --method enum`, the reference walk
        # builds one edge set per tree, so it is held to the tree budget
        if values["matrix-tree"] > ENUM_TREE_BUDGET:
            raise BudgetExceededError(
                f"reference enumeration exceeds the {ENUM_TREE_BUDGET}-tree budget: "
                f"the walk would visit {values['matrix-tree']} trees"
            )
        values["enum"] = sum(1 for _ in enumerate_spanning_trees(g))
        values["enum-classes"] = count_spanning_trees(g)
    if root is not None:
        values["degree"] = tau_via_grouped_formula(g, root)
        values["degree-direct"] = tau_via_direct_formula(g, root)
    return values


def _trial_checks(
    args: argparse.Namespace, seed: int, g: Multigraph
) -> Iterator[tuple[str, bool, str]]:
    # yields (check, ok, detail) for each check that applies to the trial graph
    root = best_thomassen_bound(g)[0] if g.is_connected() else None
    values = _method_values(g, root)
    yield "cross_method", len(set(values.values())) == 1, f"values={values}"

    tau = values["matrix-tree"]
    yield "thomassen", all(tau <= thomassen_bound(g, u) for u in range(g.n)), f"tau={tau}"

    if root is not None and g.n >= 2:
        rng_w = random.Random(seed + 10_000_019)
        ok = all(
            check_identity(g, root, [rng_w.randint(-1000, 1000) for _ in range(g.m)]).holds
            for _ in range(args.points)
        )
        yield "identity", ok, f"root={root}"

    if not g.has_isolated_vertex() and 2 <= g.n <= FPOLY_VERIFY_CAP:
        terms = expand_f(g, budget=args.budget)
        ok = (
            matching_number_from_f(terms) == brute_force_matching(g)
            and edge_cover_number_from_f(terms) == brute_force_edge_cover(g)
            and sum(t.coefficient for t in terms) == math.prod(g.degrees())
        )
        yield "fpoly", ok, "expansion vs oracles"

    if args.allow_disconnected and root is None:
        probe_ok = all(direct_formula_value(g, u) == 0 for u in range(g.n))
        yield "disconnected_probe", probe_ok, "degree expression vs tau=0"


def cmd_verify(args: argparse.Namespace) -> _Report:
    _require_positive("--trials", args.trials)
    _require_positive("--points", args.points)
    checks = ("cross_method", "thomassen", "identity", "fpoly", "disconnected_probe")
    counters = {check: [0, 0] for check in checks}
    clean_trials = 0
    failures: list[str] = []
    for t in range(args.trials):
        trial_seed = args.seed + t
        g = random_multigraph(
            RandomSpec(
                n=args.n,
                m=args.m,
                parallel_prob=args.parallel_prob,
                seed=trial_seed,
                require_connected=not args.allow_disconnected,
            )
        )
        trial_ok = True
        for check, ok, detail in _trial_checks(args, trial_seed, g):
            counters[check][0] += ok
            counters[check][1] += 1
            if not ok:
                trial_ok = False
                failures.append(
                    f"violation[{check}] {detail} "
                    f"(reproduce: treecount verify --n {args.n} --m {args.m} "
                    f"--parallel-prob {args.parallel_prob} --trials 1 --seed {trial_seed}"
                    f"{' --allow-disconnected' if args.allow_disconnected else ''})"
                )
        clean_trials += trial_ok

    violations = len(failures)
    summary = f"{clean_trials}/{args.trials} agreements, {violations} violations"
    doc = {
        "spec": {
            "n": args.n,
            "m": args.m,
            "parallel_prob": args.parallel_prob,
            "seed": args.seed,
            "trials": args.trials,
            "points": args.points,
            "allow_disconnected": args.allow_disconnected,
        },
        "checks": {
            name: {"ok": ok, "total": total}
            for name, (ok, total) in counters.items()
            if total
        },
        "clean_trials": clean_trials,
        "violations": violations,
    }
    lines = [
        f"verify: n={args.n} m={args.m} trials={args.trials} seed={args.seed} "
        f"parallel-prob={args.parallel_prob} "
        f"connected={'optional' if args.allow_disconnected else 'required'}"
    ]
    lines.extend(failures)
    for name, (ok, total) in counters.items():
        if total:
            lines.append(f"{name.replace('_', '-')}: {ok}/{total} ok")
    lines.append(summary)
    return (EXIT_VIOLATION if violations else EXIT_OK), doc, lines, [summary]


# ---------------------------------------------------------------- identity


def _weight_points(args: argparse.Namespace, m: int) -> list[list[int]]:
    if args.weights_file is not None:
        values = []
        text = _read_text(args.weights_file)
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise ParseError(
                    f"{args.weights_file}:{lineno}: not an integer: {line!r}"
                ) from None
        return [values]
    source = args.weights
    if source == "ones":
        return [[1] * m]
    if source.startswith("random:"):
        try:
            seed = int(source.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad random weight seed in {source!r}") from None
        rng = random.Random(seed)
        return [
            [rng.randint(-1000, 1000) for _ in range(m)] for _ in range(args.trials)
        ]
    try:
        return [[int(tok) for tok in source.split(",")]]
    except ValueError:
        raise ParseError(f"bad weight list {source!r}") from None


def cmd_identity(args: argparse.Namespace) -> _Report:
    _require_positive("--trials", args.trials)
    # --weights-file leaves --weights at its default, so this covers it too
    if args.trials != 1 and not args.weights.startswith("random:"):
        raise TreecountError("--trials needs --weights random:<seed>")
    g = _load_graph(args.file)
    _require_root(g)
    if not g.is_connected():
        raise DisconnectedError("graph must be connected")
    root = best_thomassen_bound(g)[0] if args.root is None else args.root
    reports = check_identity_points(g, root, _weight_points(args, g.m))
    all_hold = all(r.holds for r in reports)
    doc = {
        "graph": {"n": g.n, "m": g.m},
        "root": root,
        "reports": [
            {
                "lhs": r.lhs,
                "tau": r.tau_term,
                "nst": r.nst_sum,
                "holds": r.holds,
                "weights": list(r.weight_point),
            }
            for r in reports
        ],
        "all_hold": all_hold,
    }
    lines = [f"graph: n={g.n} m={g.m} root={root}"]
    for i, r in enumerate(reports, start=1):
        lines.append(
            f"point {i}: weights={list(r.weight_point)} lhs={r.lhs} "
            f"tau={r.tau_term} nst={r.nst_sum} holds={'yes' if r.holds else 'NO'}"
        )
    verdict = f"{sum(r.holds for r in reports)}/{len(reports)} points hold"
    lines.append(verdict)
    return (EXIT_OK if all_hold else EXIT_VIOLATION), doc, lines, [verdict]


# ---------------------------------------------------------------- fpoly


def cmd_fpoly(args: argparse.Namespace) -> _Report:
    g = _load_graph(args.file)
    estimate = math.prod(g.degrees())
    if g.has_isolated_vertex():
        doc = {
            "graph": {"n": g.n, "m": g.m},
            "isolated_vertex": True,
            "terms": 0,
        }
        line = "isolated vertex present: the incidence product is identically 0"
        return EXIT_OK, doc, [line], [line]
    # only the listing needs the decoded, sorted terms
    if args.dump:
        summary, terms = summary_and_terms(g, budget=args.budget)
    else:
        summary, terms = expansion_summary(g, budget=args.budget), []
    nu_oracle = brute_force_matching(g)
    rho_oracle = brute_force_edge_cover(g)
    nu = summary.matching_number
    rho = summary.edge_cover_number
    matchings = summary.perfect_matchings
    agree = nu == nu_oracle and rho == rho_oracle
    doc = {
        "graph": {"n": g.n, "m": g.m},
        "cost_estimate": estimate,
        "terms": summary.terms,
        "coefficient_sum": summary.coefficient_sum,
        "matching_number": nu,
        "edge_cover_number": rho,
        "matching_oracle": nu_oracle,
        "edge_cover_oracle": rho_oracle,
        "perfect_matchings": [list(pm) for pm in matchings],
        "oracle_agreement": agree,
    }
    lines = [
        f"graph: n={g.n} m={g.m}",
        f"cost estimate: {estimate} (degree product)",
        f"terms: {summary.terms} (coefficient sum {summary.coefficient_sum})",
        f"matching number: {nu} (brute force {nu_oracle})",
        f"edge cover number: {rho} (brute force {rho_oracle})",
        "perfect matchings: "
        + (" ".join("{" + ",".join(map(str, pm)) + "}" for pm in matchings) or "none"),
        f"oracle agreement: {'yes' if agree else 'NO'}",
    ]
    for t in terms:
        lines.append(
            "2:{" + ",".join(map(str, sorted(t.doubled))) + "} "
            "1:{" + ",".join(map(str, sorted(t.single))) + "} "
            f"c:{t.coefficient}"
        )
    quiet_lines = [f"nu={nu} rho={rho} agree={'yes' if agree else 'NO'}"]
    return (EXIT_OK if agree else EXIT_VIOLATION), doc, lines, quiet_lines


# ---------------------------------------------------------------- bound


def cmd_bound(args: argparse.Namespace) -> _Report:
    g = _load_graph(args.file)
    _require_root(g)
    if args.root is not None:
        root, bound = args.root, thomassen_bound(g, args.root)
    else:
        root, bound = best_thomassen_bound(g)
    tau = tau_matrix_tree(g)
    gap = bound - tau
    doc = {
        "graph": {"n": g.n, "m": g.m},
        "root": root,
        "bound": bound,
        "tau": tau,
        "gap": gap,
    }
    line = f"root {root}: bound={bound} tau={tau} gap={gap}"
    return EXIT_OK, doc, [f"graph: n={g.n} m={g.m}", line], [line]


# ---------------------------------------------------------------- main


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "count": cmd_count,
        "family": cmd_family,
        "verify": cmd_verify,
        "identity": cmd_identity,
        "fpoly": cmd_fpoly,
        "bound": cmd_bound,
    }
    try:
        code, doc, lines, quiet_lines = handlers[args.command](args)
    except TreecountError as exc:
        parse_error = isinstance(exc, ParseError)
        prefix = "parse error: " if parse_error else ""
        print(f"treecount {args.command}: {prefix}{exc}", file=sys.stderr)
        return EXIT_PARSE if parse_error else EXIT_USAGE
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in quiet_lines if args.quiet else lines:
            print(line)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
