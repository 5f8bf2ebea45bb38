from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import treecount
import treecount.cli
from treecount import FamilySpec, Multigraph, build, generate_family, parse, serialize
from treecount.cli import COUNT_METHODS, main
from treecount.counting import FAMILY_KINDS
from treecount.fpoly import expand_f, expansion_summary


@pytest.fixture
def wheel4_file(tmp_path):
    path = tmp_path / "w4.graph"
    path.write_text(serialize(generate_family(FamilySpec("wheel", (4,)))))
    return str(path)


@pytest.fixture
def multiwheel4_file(tmp_path):
    path = tmp_path / "w4p.graph"
    path.write_text(serialize(generate_family(FamilySpec("multiwheel", (4,)))))
    return str(path)


@pytest.fixture
def figure_one_file(tmp_path, figure_one):
    path = tmp_path / "fig1.graph"
    path.write_text(serialize(figure_one))
    return str(path)


@pytest.fixture
def disconnected_file(tmp_path):
    path = tmp_path / "disc.graph"
    path.write_text("n 4\ne 0 1\ne 2 3\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_all_methods_agree(capsys, wheel4_file):
    code, out, _ = run(capsys, ["count", wheel4_file])
    assert code == 0
    assert out.count(" 45 ") >= 1 or " 45" in out
    assert "agreement: yes" in out
    assert "thomassen: root=4 bound=81" in out


def test_count_json_round_trips(capsys, wheel4_file):
    code, out, _ = run(capsys, ["count", wheel4_file, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"] == {"n": 5, "m": 8, "connected": True}
    assert doc["agreement"] is True
    for name in ("matrix-tree", "del-con", "degree", "degree-direct", "enum"):
        assert doc["methods"][name]["value"] == 45
    assert doc["bound"] == {"root": 4, "value": 81}


def test_count_looks_each_route_up_when_it_runs(capsys, monkeypatch, wheel4_file):
    # a counter rebound on the cli module, as a tracer wrapping module
    # globals does, is the one `count` calls, once per method
    routes = (
        "tau_matrix_tree",
        "tau_deletion_contraction",
        "tau_via_grouped_formula",
        "tau_via_direct_formula",
        "count_spanning_trees",
    )
    called = []
    for name in routes:
        real = getattr(treecount.cli, name)
        monkeypatch.setattr(
            treecount.cli, name, lambda *args, real=real, name=name: called.append(name) or real(*args)
        )
    assert run(capsys, ["count", wheel4_file, "--quiet"])[0] == 0
    assert sorted(called) == sorted(routes)


def test_count_single_method_with_root(capsys, tmp_path):
    path = tmp_path / "w5p.graph"
    path.write_text(serialize(generate_family(FamilySpec("multiwheel", (5,)))))
    code, out, _ = run(capsys, ["count", str(path), "--method", "degree", "--root", "5", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["methods"]["degree"] == {"value": 722, "root": 5}


def test_count_disconnected_reports_errors_honestly(capsys, disconnected_file):
    code, out, _ = run(capsys, ["count", disconnected_file, "--json"])
    doc = json.loads(out)
    assert doc["methods"]["matrix-tree"]["value"] == 0
    assert doc["methods"]["del-con"]["value"] == 0
    assert doc["methods"]["enum"]["value"] == 0
    assert "error" in doc["methods"]["degree"]
    assert "error" in doc["methods"]["degree-direct"]
    assert doc["agreement"] is True
    assert code == 0


@pytest.mark.parametrize("root", ["5", "-1"])
@pytest.mark.parametrize(
    "extra", [[], ["--json"], ["--method", "degree"], ["--method", "degree", "--json"]]
)
def test_count_rejects_an_out_of_range_root(capsys, wheel4_file, root, extra):
    code, out, err = run(capsys, ["count", wheel4_file, "--root", root, *extra])
    assert code == 1
    assert out == ""
    assert err == f"treecount count: vertex {root} not in 0..4\n"
    # the line `bound` prints for the same root
    bound = run(capsys, ["bound", wheel4_file, "--root", root])
    assert bound[::2] == (1, f"treecount bound: vertex {root} not in 0..4\n")


def test_count_rejects_a_root_on_the_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.graph"
    path.write_text("n 0\n")
    code, out, err = run(capsys, ["count", str(path), "--root", "0"])
    assert (code, out) == (1, "")
    assert err == "treecount count: the empty graph has no vertices to root at\n"
    # without a root the empty graph still reports one error per method
    assert run(capsys, ["count", str(path)])[0] == 0


def test_count_enum_on_the_empty_graph_keeps_its_error_entry(capsys, tmp_path):
    path = tmp_path / "empty.graph"
    path.write_text("n 0\n")
    code, out, _ = run(capsys, ["count", str(path), "--method", "enum", "--json"])
    assert code == 0
    entry = json.loads(out)["methods"]["enum"]
    assert entry.keys() == {"error"}
    assert entry["error"] == "spanning trees need at least one vertex"


def test_count_on_the_empty_graph_keeps_one_error_per_route(capsys, tmp_path):
    # every route raises the same error type itself; no degree entry names a root
    path = tmp_path / "empty.graph"
    path.write_text("n 0\n")
    code, out, _ = run(capsys, ["count", str(path), "--json"])
    assert code == 0
    methods = json.loads(out)["methods"]
    assert {name: (entry.keys(), entry["error"]) for name, entry in methods.items()} == {
        "matrix-tree": ({"error"}, "tau needs at least one vertex"),
        "del-con": ({"error"}, "tau needs at least one vertex"),
        "enum": ({"error"}, "spanning trees need at least one vertex"),
        "degree": ({"error"}, "tau needs at least one vertex"),
        "degree-direct": ({"error"}, "tau needs at least one vertex"),
    }


def test_count_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("nonsense\n")
    code, _, err = run(capsys, ["count", str(bad)])
    assert code == 2
    assert "parse error" in err


def test_count_missing_file_is_parse_error(capsys):
    code, _, err = run(capsys, ["count", "/nonexistent/x.graph"])
    assert code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["count"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["definitely-not-a-command"])
    assert info.value.code == 1


def test_family_to_file(capsys, tmp_path):
    out_path = tmp_path / "k5.graph"
    code, out, _ = run(capsys, ["family", "complete", "5", "-o", str(out_path)])
    assert code == 0
    assert "closed form: 125" in out
    g = parse(out_path.read_text())
    assert g.n == 5 and g.m == 10


def test_family_unwritable_output_is_one_line(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    for extra in ([], ["--json"], ["--quiet"]):
        code, out, err = run(capsys, ["family", "complete", "4", "-o", str(target)] + extra)
        assert code == 1
        assert out == ""
        assert err == f"treecount family: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_family_stdout_keeps_format_parseable(capsys):
    code, out, _ = run(capsys, ["family", "multiwheel", "4"])
    assert code == 0
    assert "# closed form: unavailable" in out
    g = parse(out)
    assert g.n == 5 and g.m == 12


def test_family_hypercube_closed_form(capsys, tmp_path):
    out_path = tmp_path / "q3.graph"
    code, out, _ = run(capsys, ["family", "hypercube", "3", "-o", str(out_path)])
    assert code == 0
    assert "closed form: 384" in out


def test_family_invalid_spec(capsys):
    code, _, err = run(capsys, ["family", "wheel", "2"])
    assert code == 1
    assert "rim" in err


def test_verify_reports_all_clean(capsys):
    code, out, _ = run(
        capsys, ["verify", "--n", "6", "--m", "9", "--trials", "8", "--seed", "42"]
    )
    assert code == 0
    assert "8/8 agreements, 0 violations" in out


def test_verify_is_deterministic(capsys):
    argv = ["verify", "--n", "6", "--m", "10", "--trials", "6", "--seed", "7"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_verify_json(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--n", "5", "--m", "8", "--trials", "5", "--seed", "1", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0
    assert doc["clean_trials"] == 5
    assert doc["checks"]["cross_method"] == {"ok": 5, "total": 5}


def test_verify_allow_disconnected_probes(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify",
            "--n", "6",
            "--m", "5",
            "--trials", "10",
            "--seed", "3",
            "--allow-disconnected",
        ],
    )
    assert code == 0
    assert "disconnected-probe:" in out


def test_verify_rejects_bad_spec(capsys):
    code, _, err = run(capsys, ["verify", "--n", "5", "--m", "2", "--trials", "2"])
    assert code == 1


def test_identity_ones_decomposition(capsys, multiwheel4_file):
    code, out, _ = run(
        capsys, ["identity", multiwheel4_file, "--root", "4", "--weights", "ones"]
    )
    assert code == 0
    assert "lhs=256 tau=192 nst=64 holds=yes" in out


def test_identity_random_points(capsys, figure_one_file):
    code, out, _ = run(
        capsys,
        ["identity", figure_one_file, "--weights", "random:7", "--trials", "5"],
    )
    assert code == 0
    assert "5/5 points hold" in out


def test_identity_seeded_rerun_is_byte_identical(capsys, figure_one_file):
    argv = ["identity", figure_one_file, "--weights", "random:11", "--trials", "4"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_identity_inline_weights(capsys, figure_one_file):
    code, out, _ = run(
        capsys,
        ["identity", figure_one_file, "--root", "3", "--weights", "1,1,1,1,1,1", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["lhs"] == 32
    assert doc["reports"][0]["tau"] == 12
    assert doc["reports"][0]["nst"] == 20
    assert doc["all_hold"] is True


def test_identity_weights_file(capsys, figure_one_file, tmp_path):
    wfile = tmp_path / "w.txt"
    wfile.write_text("# weights\n3\n1\n1\n1\n2\n1\n")
    code, out, _ = run(
        capsys, ["identity", figure_one_file, "--weights-file", str(wfile), "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["weights"] == [3, 1, 1, 1, 2, 1]
    assert doc["all_hold"] is True


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_identity_rejects_the_empty_graph(capsys, tmp_path, extra):
    path = tmp_path / "empty.graph"
    path.write_text("n 0\n")
    code, out, err = run(capsys, ["identity", str(path), *extra])
    assert (code, out) == (1, "")
    assert err == "treecount identity: the empty graph has no vertices to root at\n"


def test_verify_checks_the_class_walk_against_enumeration(capsys, monkeypatch):
    argv = ["verify", "--n", "5", "--m", "8", "--trials", "2", "--seed", "1"]
    assert run(capsys, argv)[0] == 0
    real = treecount.cli.count_spanning_trees
    monkeypatch.setattr(treecount.cli, "count_spanning_trees", lambda g: real(g) + 1)
    code, out, _ = run(capsys, argv)
    assert code == 3
    assert out.count("violation[cross_method]") == 2
    assert "'enum-classes': " in out


def test_identity_rejects_disconnected(capsys, disconnected_file):
    code, _, err = run(capsys, ["identity", disconnected_file])
    assert code == 1
    assert "connected" in err


@pytest.mark.parametrize("points", ["0", "-1"])
def test_verify_rejects_non_positive_points(capsys, points):
    code, out, err = run(
        capsys, ["verify", "--n", "5", "--m", "8", "--trials", "2", "--points", points]
    )
    assert code == 1
    assert out == ""
    assert err == "treecount verify: --points must be >= 1\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_identity_rejects_non_positive_trials(capsys, figure_one_file, trials):
    code, out, err = run(
        capsys,
        ["identity", figure_one_file, "--weights", "random:3", "--trials", trials],
    )
    assert code == 1
    assert out == ""
    assert err == "treecount identity: --trials must be >= 1\n"


@pytest.mark.parametrize(
    "weights", [[], ["--weights", "ones"], ["--weights", "1,1,1,1,1,1"], ["--weights-file", "w.txt"]]
)
def test_identity_rejects_trials_without_random_weights(capsys, figure_one_file, tmp_path, weights):
    # only random:<seed> draws more than one point
    (tmp_path / "w.txt").write_text("1\n" * 6)
    weights = [str(tmp_path / w) if w == "w.txt" else w for w in weights]
    code, out, err = run(capsys, ["identity", figure_one_file, "--trials", "5", *weights])
    assert (code, out) == (1, "")
    assert err == "treecount identity: --trials needs --weights random:<seed>\n"


def test_identity_weights_and_weights_file_are_exclusive(capsys, figure_one_file, tmp_path):
    wfile = tmp_path / "w.txt"
    wfile.write_text("1\n" * 6)
    with pytest.raises(SystemExit) as exc:
        main(["identity", figure_one_file, "--weights", "random:1", "--weights-file", str(wfile)])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --weights-file: not allowed with argument --weights" in captured.err


def test_identity_weights_file_names_its_non_integer_line(capsys, figure_one_file, tmp_path):
    wfile = tmp_path / "w.txt"
    wfile.write_text("# weights\n1\n1\n1\nx\n1\n1\n1\n")
    code, out, err = run(capsys, ["identity", figure_one_file, "--weights-file", str(wfile)])
    assert (code, out) == (2, "")
    assert err == f"treecount identity: parse error: {wfile}:5: not an integer: 'x'\n"


def test_identity_bad_random_seed_is_parse_error(capsys, figure_one_file):
    code, out, err = run(capsys, ["identity", figure_one_file, "--weights", "random:x"])
    assert (code, out) == (2, "")
    assert err == "treecount identity: parse error: bad random weight seed in 'random:x'\n"


def test_identity_missing_weights_file_is_parse_error(capsys, figure_one_file, tmp_path):
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(capsys, ["identity", figure_one_file, "--weights-file", missing])
    assert code == 2
    assert out == ""
    assert f"cannot read {missing}" in err


def test_undecodable_files_are_parse_errors(capsys, figure_one_file, tmp_path):
    binary = tmp_path / "bin.dat"
    binary.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, ["count", str(binary)])
    assert code == 2
    assert f"cannot read {binary}" in err
    code, _, err = run(capsys, ["identity", figure_one_file, "--weights-file", str(binary)])
    assert code == 2
    assert f"cannot read {binary}" in err


def test_identity_bad_weight_list(capsys, figure_one_file):
    code, _, err = run(capsys, ["identity", figure_one_file, "--weights", "1,x,3"])
    assert code == 2


def test_fpoly_figure_one(capsys, figure_one_file):
    code, out, _ = run(capsys, ["fpoly", figure_one_file])
    assert code == 0
    assert "matching number: 2 (brute force 2)" in out
    assert "edge cover number: 2 (brute force 2)" in out
    assert "{0,4} {1,5}" in out
    assert "oracle agreement: yes" in out


def test_fpoly_star(capsys, tmp_path):
    path = tmp_path / "star.graph"
    path.write_text("n 5\ne 0 1\ne 0 2\ne 0 3\ne 0 4\n")
    code, out, _ = run(capsys, ["fpoly", str(path), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["matching_number"] == 1
    assert doc["edge_cover_number"] == 4
    assert doc["perfect_matchings"] == []


def test_fpoly_dump_format(capsys, tmp_path):
    path = tmp_path / "k2.graph"
    path.write_text("n 2\ne 0 1\n")
    code, out, _ = run(capsys, ["fpoly", str(path), "--dump"])
    assert code == 0
    assert "2:{0} 1:{} c:1" in out


def test_fpoly_isolated_vertex(capsys, tmp_path):
    path = tmp_path / "iso.graph"
    path.write_text("n 3\ne 0 1\n")
    code, out, _ = run(capsys, ["fpoly", str(path)])
    assert code == 0
    assert "identically 0" in out


def test_fpoly_beyond_the_oracle_cap_is_usage_error(capsys, tmp_path):
    path = tmp_path / "c16.graph"
    path.write_text(serialize(build(16, [(i, (i + 1) % 16) for i in range(16)])))
    code, out, err = run(capsys, ["fpoly", str(path)])
    assert code == 1
    assert out == ""
    assert err == "treecount fpoly: expansion guarded at 14 vertices, graph has 16\n"


# fpoly output of the tuple-monomial expansion, which the packed one must
# reproduce byte for byte; the --dump listings are pinned by their sha256
FPOLY_TEXT = {
    "figure-one": (
        "graph: n=4 m=6\n"
        "cost estimate: 64 (degree product)\n"
        "terms: 51 (coefficient sum 64)\n"
        "matching number: 2 (brute force 2)\n"
        "edge cover number: 2 (brute force 2)\n"
        "perfect matchings: {0,4} {1,5}\n"
        "oracle agreement: yes\n"
    ),
    "wheel-5": (
        "graph: n=6 m=10\n"
        "cost estimate: 1215 (degree product)\n"
        "terms: 1010 (coefficient sum 1215)\n"
        "matching number: 3 (brute force 3)\n"
        "edge cover number: 3 (brute force 3)\n"
        "perfect matchings: {0,2,9} {0,3,7} {1,3,5} {1,4,8} {2,4,6}\n"
        "oracle agreement: yes\n"
    ),
    "multiwheel-4": (
        "graph: n=5 m=12\n"
        "cost estimate: 2048 (degree product)\n"
        "terms: 1448 (coefficient sum 2048)\n"
        "matching number: 2 (brute force 2)\n"
        "edge cover number: 3 (brute force 3)\n"
        "perfect matchings: none\n"
        "oracle agreement: yes\n"
    ),
}
FPOLY_JSON = {
    "figure-one": (
        '{"coefficient_sum": 64, "cost_estimate": 64, "edge_cover_number": 2, '
        '"edge_cover_oracle": 2, "graph": {"m": 6, "n": 4}, "matching_number": 2, '
        '"matching_oracle": 2, "oracle_agreement": true, '
        '"perfect_matchings": [[0, 4], [1, 5]], "terms": 51}\n'
    ),
    "wheel-5": (
        '{"coefficient_sum": 1215, "cost_estimate": 1215, "edge_cover_number": 3, '
        '"edge_cover_oracle": 3, "graph": {"m": 10, "n": 6}, "matching_number": 3, '
        '"matching_oracle": 3, "oracle_agreement": true, '
        '"perfect_matchings": [[0, 2, 9], [0, 3, 7], [1, 3, 5], [1, 4, 8], [2, 4, 6]], '
        '"terms": 1010}\n'
    ),
    "multiwheel-4": (
        '{"coefficient_sum": 2048, "cost_estimate": 2048, "edge_cover_number": 3, '
        '"edge_cover_oracle": 3, "graph": {"m": 12, "n": 5}, "matching_number": 2, '
        '"matching_oracle": 2, "oracle_agreement": true, "perfect_matchings": [], '
        '"terms": 1448}\n'
    ),
}
FPOLY_QUIET = {
    "figure-one": "nu=2 rho=2 agree=yes\n",
    "wheel-5": "nu=3 rho=3 agree=yes\n",
    "multiwheel-4": "nu=2 rho=3 agree=yes\n",
}
FPOLY_DUMP = {
    "figure-one": (51, "eb0a1da970ea9a6c4c56fbe6d1f080cb851e7500e07194b3fd5f47147afbb9c4"),
    "wheel-5": (1010, "8e7234baca01b0b3b2353970f01b93a47d79b0f43ec4df3a2d9ad770cb302e24"),
    "multiwheel-4": (1448, "6acd5b5493ce7e34ebfeaa2c3b8209a1a382fc17cf1bed68b635a67c9b281ca4"),
}


@pytest.fixture
def pinned_graph_file(request, tmp_path, figure_one):
    graphs = {
        "figure-one": figure_one,
        "wheel-5": generate_family(FamilySpec("wheel", (5,))),
        "multiwheel-4": generate_family(FamilySpec("multiwheel", (4,))),
    }
    path = tmp_path / f"{request.param}.graph"
    path.write_text(serialize(graphs[request.param]))
    return request.param, str(path)


@pytest.mark.parametrize("pinned_graph_file", list(FPOLY_TEXT), indirect=True)
def test_fpoly_output_is_pinned(capsys, pinned_graph_file):
    name, path = pinned_graph_file
    assert run(capsys, ["fpoly", path]) == (0, FPOLY_TEXT[name], "")
    assert run(capsys, ["fpoly", path, "--json"]) == (0, FPOLY_JSON[name], "")
    assert run(capsys, ["fpoly", path, "--quiet"]) == (0, FPOLY_QUIET[name], "")
    code, out, err = run(capsys, ["fpoly", path, "--dump"])
    terms, digest = FPOLY_DUMP[name]
    assert (code, err) == (0, "")
    assert out.startswith(FPOLY_TEXT[name])
    assert len(out.splitlines()) == 7 + terms
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("pinned_graph_file", ["figure-one", "wheel-5"], indirect=True)
def test_fpoly_dump_lists_the_expansion_under_its_summary(capsys, pinned_graph_file):
    # the header is the one-pass summary, the listing every term of expand_f in order
    _, path = pinned_graph_file
    g = parse(Path(path).read_text())
    summary = expansion_summary(g)
    code, out, _ = run(capsys, ["fpoly", path, "--dump"])
    lines = out.splitlines()
    assert code == 0
    assert lines[2:6] == [
        f"terms: {summary.terms} (coefficient sum {summary.coefficient_sum})",
        f"matching number: {summary.matching_number} (brute force {summary.matching_number})",
        f"edge cover number: {summary.edge_cover_number} "
        f"(brute force {summary.edge_cover_number})",
        "perfect matchings: " + " ".join(
            "{" + ",".join(map(str, pm)) + "}" for pm in summary.perfect_matchings
        ),
    ]
    assert lines[7:] == [
        f"2:{{{','.join(map(str, sorted(t.doubled)))}}} "
        f"1:{{{','.join(map(str, sorted(t.single)))}}} c:{t.coefficient}"
        for t in expand_f(g)
    ]


def test_fpoly_dump_decodes_no_terms_for_json_or_quiet(capsys, monkeypatch, figure_one_file):
    # neither the JSON document nor the quiet line lists terms
    def refuse(*args, **kwargs):
        raise AssertionError("expand_f called")

    monkeypatch.setattr(treecount.cli, "expand_f", refuse)
    for flag in ("--json", "--quiet"):
        expected = run(capsys, ["fpoly", figure_one_file, flag])
        assert expected[0] == 0
        assert run(capsys, ["fpoly", figure_one_file, "--dump", flag]) == expected


def test_fpoly_budget_exceeded_prints_only_the_message(capsys, tmp_path):
    path = tmp_path / "w5.graph"
    path.write_text(serialize(generate_family(FamilySpec("wheel", (5,)))))
    code, out, err = run(capsys, ["fpoly", str(path), "--budget", "3"])
    assert code == 1
    assert out == ""
    assert err == "treecount fpoly: expansion exceeded the 3-monomial budget\n"


def test_fpoly_budget_counts_class_monomials_and_dump_edge_monomials(capsys, tmp_path):
    # three parallel edges are one class: the summary's expansion is one
    # monomial at every step and lists 3 perfect matchings, while the edge
    # expansion --dump lists has 6 terms
    path = tmp_path / "triple.graph"
    path.write_text("n 2\ne 0 1\ne 0 1\ne 0 1\n")
    code, out, err = run(capsys, ["fpoly", str(path), "--budget", "3", "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["terms"] == 6
    code, out, err = run(capsys, ["fpoly", str(path), "--dump", "--budget", "3"])
    assert (code, out) == (1, "")
    assert err == "treecount fpoly: expansion exceeded the 3-monomial budget\n"


def test_fpoly_holds_the_empty_product_to_the_budget(capsys, tmp_path):
    # the empty graph's expansion is the constant 1: one monomial
    path = tmp_path / "empty.graph"
    path.write_text("n 0\n")
    code, out, err = run(capsys, ["fpoly", str(path), "--budget", "0"])
    assert (code, out) == (1, "")
    assert err == "treecount fpoly: expansion exceeded the 0-monomial budget\n"
    assert run(capsys, ["fpoly", str(path), "--budget", "1"])[0] == 0


def test_bound_wheel(capsys, wheel4_file):
    code, out, _ = run(capsys, ["bound", wheel4_file, "--root", "4"])
    assert code == 0
    assert "root 4: bound=81 tau=45 gap=36" in out


def test_bound_best_root(capsys, tmp_path):
    path = tmp_path / "k3.graph"
    path.write_text("n 3\ne 0 1\ne 0 2\ne 1 2\n")
    code, out, _ = run(capsys, ["bound", str(path)])
    assert code == 0
    assert "root 0: bound=4 tau=3 gap=1" in out


def test_every_option_is_read():
    # an option that no command reads is a setting that silently does nothing
    parser = treecount.cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {
        action.dest
        for p in (parser, *commands.choices.values())
        for action in p._actions
        if not isinstance(action, argparse._HelpAction)
    }
    source = ast.parse(Path(treecount.cli.__file__).read_text(encoding="utf-8"))
    read = {
        node.attr
        for node in ast.walk(source)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
        and isinstance(node.ctx, ast.Load)
    }
    assert "trials" in dests and "command" in dests
    assert dests - read == set()


# runs each argv of a JSON list through `main` in this one process and prints,
# as JSON, whether importing the CLI built a parser, how many parsers the
# calls built, and each call's (exit code, stdout, stderr)
MAIN_CALLS = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
import treecount.cli as cli
at_import = cli._build_parser.cache_info().currsize
calls = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    calls.append([code, out.getvalue(), err.getvalue()])
print(json.dumps([at_import, cli._build_parser.cache_info().misses, calls]))
"""


def test_one_parser_serves_every_call_in_a_process(argv_paths):
    # a usage error, a valid call and --help in one process print what each
    # prints in a process of its own; the parser is built on the first call
    sequence = [
        ["count", argv_paths["@good"], "--method", "nope"],
        ["identity", argv_paths["@good"], "--weights", "random:3", "--trials", "2"],
        ["count", "--help"],
    ]
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(Path(treecount.__file__).parent.parent)}

    def in_one_process(argvs):
        done = subprocess.run(
            [sys.executable, "-c", MAIN_CALLS, json.dumps(argvs)],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        return json.loads(done.stdout)

    at_import, built, together = in_one_process(sequence)
    assert (at_import, built) == (0, 1)
    alone = [in_one_process([argv])[2][0] for argv in sequence]
    assert together == alone
    assert [code for code, _, _ in together] == [1, 0, 0]
    assert "invalid choice: 'nope'" in together[0][2]
    assert "2/2 points hold" in together[1][1]
    assert together[2][1].startswith("usage: treecount count")


def test_python_m_treecount_runs_the_cli(wheel4_file, tmp_path):
    # `python -m treecount` is the `treecount` script: its exit codes, its stdout
    env = {**os.environ, "PYTHONPATH": str(Path(treecount.__file__).parent.parent)}

    def python_m(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "treecount", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        return done.returncode, done.stdout

    assert python_m("count", wheel4_file, "--method", "matrix-tree", "--quiet") == (
        0, "matrix-tree 45\n"
    )
    assert python_m("count", str(tmp_path / "missing.graph")) == (2, "")


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # these three cost most of a cold start; -S keeps site .pth files from
    # importing typing first, and -I ignores PYTHONPATH, so src goes in argv
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import treecount.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    src = str(Path(treecount.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == []


def test_count_reports_the_enum_budget_as_its_entry(capsys, tmp_path):
    path = tmp_path / "k10.graph"
    path.write_text(serialize(generate_family(FamilySpec("complete", (10,)))))
    code, out, err = run(capsys, ["count", str(path), "--method", "enum", "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["methods"]["enum"]["error"] == (
        "enumeration exceeds the 10000000-tree budget: the walk would visit 100000000 trees"
    )



def test_count_enum_has_no_vertex_cap(capsys, tmp_path):
    # 13 vertices; the tree budget is the one limit on `count --method enum`
    path = tmp_path / "w12.graph"
    path.write_text(serialize(generate_family(FamilySpec("wheel", (12,)))))
    for method in ("enum", "matrix-tree"):
        assert run(capsys, ["count", str(path), "--method", method, "--quiet"]) == (
            0, f"{method} 103680\n", ""
        )


def test_verify_holds_the_reference_walk_to_the_tree_budget(capsys, monkeypatch):
    # the trial graph has tau = 245; the reference walk, which builds one edge
    # set per tree, sizes itself by tau and refuses before its first tree
    monkeypatch.setattr(treecount.counting, "ENUM_TREE_BUDGET", 3)
    code, out, err = run(capsys, ["verify", "--trials", "1", "--seed", "0"])
    assert (code, out) == (1, "")
    assert err == (
        "treecount verify: reference enumeration exceeds the 3-tree budget: "
        "the walk would visit 245 trees\n"
    )

@pytest.mark.parametrize(
    "argv, flag",
    [(["bound", "@good", "--best"], "--best"), (["fpoly", "@good", "--max-vertices", "16"], "--max-vertices 16")],
    ids=["bound-best", "fpoly-max-vertices"],
)
def test_removed_flags_are_unrecognized(capsys, argv_paths, argv, flag):
    # bound picks the smallest-bound root without --root, and the expansion
    # has one fixed vertex guard
    with pytest.raises(SystemExit) as exc:
        main([argv_paths.get(arg, arg) for arg in argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


def test_bound_multiwheel(capsys, multiwheel4_file):
    code, out, _ = run(capsys, ["bound", multiwheel4_file, "--root", "4", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "graph": {"n": 5, "m": 12},
        "root": 4,
        "bound": 256,
        "tau": 192,
        "gap": 64,
    }


def test_quiet_mode_is_terse(capsys, wheel4_file):
    code, out, _ = run(capsys, ["count", wheel4_file, "--quiet"])
    assert code == 0
    assert "matrix-tree 45" in out
    assert "thomassen" not in out


COUNT_OUT = {
    (): (
        "graph: n=5 m=8 connected=yes\n"
        "matrix-tree    45\n"
        "del-con        45\n"
        "degree         45  root=4\n"
        "degree-direct  45  root=4\n"
        "enum           45\n"
        "agreement: yes\n"
        "thomassen: root=4 bound=81\n"
    ),
    ("--json",): (
        '{"agreement": true, "bound": {"root": 4, "value": 81}, '
        '"graph": {"connected": true, "m": 8, "n": 5}, "methods": {'
        '"degree": {"root": 4, "value": 45}, "degree-direct": {"root": 4, "value": 45}, '
        '"del-con": {"value": 45}, "enum": {"value": 45}, "matrix-tree": {"value": 45}}}\n'
    ),
    ("--quiet",): "matrix-tree 45\ndel-con 45\ndegree 45\ndegree-direct 45\nenum 45\n",
}
BOUND_OUT = {
    (): "graph: n=5 m=8\nroot 4: bound=81 tau=45 gap=36\n",
    ("--json",): '{"bound": 81, "gap": 36, "graph": {"m": 8, "n": 5}, "root": 4, "tau": 45}\n',
    ("--quiet",): "root 4: bound=81 tau=45 gap=36\n",
}
IDENTITY_OUT = {
    (): (
        "graph: n=4 m=6 root=0\n"
        "point 1: weights=[-513, 213, 114, -733, -243, 875] "
        "lhs=123050400 tau=112091892 nst=10958508 holds=yes\n"
        "point 2: weights=[236, -30, 281, 189, -866, 240] "
        "lhs=54935256 tau=-98992280 nst=153927536 holds=yes\n"
        "2/2 points hold\n"
    ),
    ("--json",): (
        '{"all_hold": true, "graph": {"m": 6, "n": 4}, "reports": ['
        '{"holds": true, "lhs": 123050400, "nst": 10958508, "tau": 112091892, '
        '"weights": [-513, 213, 114, -733, -243, 875]}, '
        '{"holds": true, "lhs": 54935256, "nst": 153927536, "tau": -98992280, '
        '"weights": [236, -30, 281, 189, -866, 240]}], "root": 0}\n'
    ),
    ("--quiet",): "2/2 points hold\n",
}
WHEEL4_TEXT = "n 5\ne 0 1\ne 1 2\ne 2 3\ne 0 3\ne 0 4\ne 1 4\ne 2 4\ne 3 4\n"
FAMILY_OUT = {
    (): WHEEL4_TEXT + "# closed form: unavailable\n",
    ("--json",): (
        '{"closed_form": null, "kind": "wheel", "m": 8, "n": 5, "output": null, '
        '"sizes": [4]}\n'
    ),
    ("--quiet",): WHEEL4_TEXT + "# closed form: unavailable\n",
}
FAMILY_TO_FILE_OUT = {
    (): "wrote {path} (n=5, m=8)\nclosed form: unavailable\n",
    ("--json",): (
        '{{"closed_form": null, "kind": "wheel", "m": 8, "n": 5, "output": "{path}", '
        '"sizes": [4]}}\n'
    ),
    ("--quiet",): "closed form: unavailable\n",
}
VERIFY_OUT = {
    (): (
        "verify: n=7 m=12 trials=5 seed=1 parallel-prob=0.3 connected=required\n"
        "cross-method: 5/5 ok\n"
        "thomassen: 5/5 ok\n"
        "identity: 5/5 ok\n"
        "fpoly: 5/5 ok\n"
        "5/5 agreements, 0 violations\n"
    ),
    ("--json",): (
        '{"checks": {"cross_method": {"ok": 5, "total": 5}, '
        '"fpoly": {"ok": 5, "total": 5}, "identity": {"ok": 5, "total": 5}, '
        '"thomassen": {"ok": 5, "total": 5}}, "clean_trials": 5, '
        '"spec": {"allow_disconnected": false, "m": 12, "n": 7, "parallel_prob": 0.3, '
        '"points": 3, "seed": 1, "trials": 5}, "violations": 0}\n'
    ),
    ("--quiet",): "5/5 agreements, 0 violations\n",
}


@pytest.mark.parametrize("mode", [(), ("--json",), ("--quiet",)])
def test_command_outputs_are_pinned(capsys, wheel4_file, figure_one_file, tmp_path, mode):
    assert run(capsys, ["count", wheel4_file, *mode]) == (0, COUNT_OUT[mode], "")
    assert run(capsys, ["bound", wheel4_file, *mode]) == (0, BOUND_OUT[mode], "")
    argv = ["identity", figure_one_file, "--weights", "random:3", "--trials", "2", *mode]
    assert run(capsys, argv) == (0, IDENTITY_OUT[mode], "")
    assert run(capsys, ["family", "wheel", "4", *mode]) == (0, FAMILY_OUT[mode], "")
    path = tmp_path / "out.graph"
    argv = ["family", "wheel", "4", "-o", str(path), *mode]
    assert run(capsys, argv) == (0, FAMILY_TO_FILE_OUT[mode].format(path=path), "")
    assert path.read_text() == WHEEL4_TEXT
    argv = ["verify", "--trials", "5", "--seed", "1", *mode]
    assert run(capsys, argv) == (0, VERIFY_OUT[mode], "")


_REPRODUCE = (
    " (reproduce: treecount verify --n 4 --m 4 --parallel-prob 0.3 --trials 1 "
    "--seed {} --allow-disconnected)\n"
)
VERIFY_FAILURE_OUT = (
    "verify: n=4 m=4 trials=2 seed=0 parallel-prob=0.3 connected=optional\n"
    "violation[cross_method] values={'matrix-tree': 0, 'del-con': 0, 'del-con-alt': 0, "
    "'enum': 0, 'enum-classes': 1}" + _REPRODUCE.format(0)
    + "violation[thomassen] tau=0" + _REPRODUCE.format(0)
    + "violation[disconnected_probe] degree expression vs tau=0" + _REPRODUCE.format(0)
    + "violation[cross_method] values={'matrix-tree': 2, 'del-con': 2, 'del-con-alt': 2, "
    "'enum': 2, 'enum-classes': 3, 'degree': 2, 'degree-direct': 2, "
    "'degree-unreduced': 2, 'degree-direct-unreduced': 2}" + _REPRODUCE.format(1)
    + "violation[thomassen] tau=2" + _REPRODUCE.format(1)
    + "violation[identity] root=0" + _REPRODUCE.format(1)
    + "violation[fpoly] expansion vs oracles" + _REPRODUCE.format(1)
    + "cross-method: 0/2 ok\n"
    "thomassen: 0/2 ok\n"
    "identity: 0/1 ok\n"
    "fpoly: 0/1 ok\n"
    "disconnected-probe: 0/1 ok\n"
    "0/2 agreements, 7 violations\n"
)
VERIFY_FAILURE_JSON = {
    "checks": {
        "cross_method": {"ok": 0, "total": 2},
        "disconnected_probe": {"ok": 0, "total": 1},
        "fpoly": {"ok": 0, "total": 1},
        "identity": {"ok": 0, "total": 1},
        "thomassen": {"ok": 0, "total": 2},
    },
    "clean_trials": 0,
    "spec": {
        "allow_disconnected": True,
        "m": 4,
        "n": 4,
        "parallel_prob": 0.3,
        "points": 3,
        "seed": 0,
        "trials": 2,
    },
    "violations": 7,
}


def test_verify_failure_output_is_pinned(capsys, monkeypatch):
    # every check fails: trial 0 is disconnected (the probe runs), trial 1 is
    # connected (identity and fpoly run); this pins the order of failures
    # within a trial, the reproduce line and the counter lines
    real = treecount.cli.count_spanning_trees
    monkeypatch.setattr(treecount.cli, "count_spanning_trees", lambda g: real(g) + 1)
    monkeypatch.setattr(treecount.cli, "thomassen_bound", lambda g, u: -1)
    failed = argparse.Namespace(holds=False)
    monkeypatch.setattr(treecount.cli, "check_identity", lambda g, u, w: failed)
    monkeypatch.setattr(treecount.cli, "brute_force_matching", lambda g: -1)
    monkeypatch.setattr(treecount.cli, "direct_formula_value", lambda g, u: 1)
    argv = ["verify", "--allow-disconnected", "--n", "4", "--m", "4", "--trials", "2", "--seed", "0"]
    assert run(capsys, argv) == (3, VERIFY_FAILURE_OUT, "")
    code, out, err = run(capsys, [*argv, "--json"])
    assert (code, json.loads(out), err) == (3, VERIFY_FAILURE_JSON, "")
    assert run(capsys, [*argv, "--quiet"]) == (3, "0/2 agreements, 7 violations\n", "")


def test_family_hypercube_beyond_the_vertex_cap_is_one_line(capsys):
    # 2**1000000 has too many digits to format; the dimension is refused first
    for d in ("7", "1000000"):
        code, out, err = run(capsys, ["family", "hypercube", d])
        assert (code, out) == (1, "")
        assert err == f"treecount family: family would have 2^{d} vertices, maximum is 64\n"


def test_family_over_the_vertex_cap_is_one_line(capsys):
    code, out, err = run(capsys, ["family", "complete", "65"])
    assert (code, out) == (1, "")
    assert err == "treecount family: family would have 65 vertices, maximum is 64\n"


def test_budget_errors_in_verify_are_one_line(capsys):
    code, out, err = run(capsys, ["verify", "--budget", "0", "--trials", "2"])
    assert (code, out) == (1, "")
    assert err == "treecount verify: expansion exceeded the 0-monomial budget\n"


def test_del_con_budget_is_an_error_entry_in_count(capsys, monkeypatch, wheel4_file):
    monkeypatch.setattr(treecount.counting, "DEL_CON_NODE_BUDGET", 3)
    message = "delete/contract exceeded the 3-node budget after counting 3 minors"
    code, out, err = run(capsys, ["count", wheel4_file, "--json"])
    doc = json.loads(out)
    assert (code, err) == (0, "")
    assert doc["methods"]["del-con"]["error"] == message
    assert doc["agreement"] is True
    assert {e["value"] for k, e in doc["methods"].items() if k != "del-con"} == {45}
    code, out, err = run(capsys, ["count", wheel4_file])
    assert (code, err) == (0, "")
    assert f"del-con        error: {message}" in out.splitlines()
    assert "agreement: yes" in out


def test_correction_walk_budget_is_an_error_entry_in_count(capsys, monkeypatch, tmp_path):
    # K5 has no vertex of three or fewer neighbours, so the reduction leaves
    # it whole and both degree routes walk it
    path = tmp_path / "k5.graph"
    path.write_text(serialize(generate_family(FamilySpec("complete", (5,)))))
    monkeypatch.setattr(treecount.degree_formula, "CORRECTION_SET_BUDGET", 2)
    message = "correction walk exceeded the 2-set budget after visiting 2 sets"
    code, out, err = run(capsys, ["count", str(path), "--json"])
    doc = json.loads(out)
    assert (code, err) == (0, "")
    for name in ("degree", "degree-direct"):
        assert doc["methods"][name]["error"] == message
    assert doc["agreement"] is True
    assert {e.get("value") for e in doc["methods"].values()} == {125, None}
    code, out, err = run(capsys, ["count", str(path), "--method", "degree"])
    assert (code, err) == (0, "")
    assert f"degree         error: {message}" in out.splitlines()


def test_degree_direct_on_a_chain_of_k4_blocks(capsys, tmp_path):
    # 8 K4s glued at cut vertices: the direct route multiplies 8 small walks
    edges = [(3 * i + a, 3 * i + b) for i in range(8) for a in range(4) for b in range(a + 1, 4)]
    path = tmp_path / "chain.graph"
    path.write_text(serialize(build(25, edges)))
    values = []
    for method in ("degree-direct", "matrix-tree"):
        code, out, err = run(capsys, ["count", str(path), "--method", method, "--json"])
        assert (code, err) == (0, "")
        values.append(json.loads(out)["methods"][method]["value"])
    assert values == [16**8, 16**8]


def test_correction_walk_budget_in_identity_is_one_line(capsys, monkeypatch, wheel4_file):
    monkeypatch.setattr(treecount.degree_formula, "CORRECTION_SET_BUDGET", 2)
    code, out, err = run(capsys, ["identity", wheel4_file])
    assert (code, out) == (1, "")
    assert err == (
        "treecount identity: correction walk exceeded the 2-set budget after visiting 2 sets\n"
    )


def test_del_con_budget_errors_in_verify_are_one_line(capsys, monkeypatch):
    monkeypatch.setattr(treecount.counting, "DEL_CON_NODE_BUDGET", 3)
    code, out, err = run(capsys, ["verify", "--trials", "2"])
    assert (code, out) == (1, "")
    assert err == (
        "treecount verify: delete/contract exceeded the 3-node budget after counting 3 minors\n"
    )


def test_every_parse_error_names_its_command(capsys, figure_one_file, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("nonsense\n")
    code, out, err = run(capsys, ["bound", str(bad), "--json"])
    assert (code, out) == (2, "")
    assert err == "treecount bound: parse error: line 1: unknown directive 'nonsense'\n"
    code, out, err = run(capsys, ["identity", figure_one_file, "--weights", "1,x"])
    assert (code, out) == (2, "")
    assert err == "treecount identity: parse error: bad weight list '1,x'\n"


# random argv: file arguments are drawn as @-names, resolved to real paths
ARGV_FILES = ("@good", "@empty", "@disconnected", "@loop", "@missing", "@non-utf8")
SMALL_INTS = st.integers(-3, 8).map(str)
TRIALS = st.integers(-3, 3).map(str)


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    texts = {
        "@good": serialize(generate_family(FamilySpec("wheel", (4,)))),
        "@empty": "n 0\n",
        "@disconnected": "n 4\ne 0 1\ne 2 3\n",
        "@loop": "n 2\ne 1 1\n",
    }
    paths = {name: root / name[1:] for name in ARGV_FILES + ("@out", "@unwritable")}
    for name, text in texts.items():
        paths[name].write_text(text)
    paths["@non-utf8"].write_bytes(b"\xff\xfe\x00")
    paths["@unwritable"] = paths["@missing"] / "out.graph"
    return {name: str(path) for name, path in paths.items()}


@st.composite
def cli_argv(draw):
    def flag(name, values):
        return [name, draw(values)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["count", "family", "verify", "identity", "fpoly", "bound"]))
    file = draw(st.sampled_from(ARGV_FILES))
    if command == "count":
        argv = [file, *flag("--root", SMALL_INTS), *flag("--method", st.sampled_from(COUNT_METHODS))]
    elif command == "family":
        argv = [draw(st.sampled_from(FAMILY_KINDS)), *draw(st.lists(SMALL_INTS, min_size=1, max_size=3))]
        argv += flag("-o", st.sampled_from(["@out", "@unwritable"]))
    elif command == "verify":
        # --trials defaults to 100, so it is always drawn
        argv = ["--trials", draw(TRIALS), *flag("--n", SMALL_INTS), *flag("--m", SMALL_INTS)]
        argv += flag("--seed", SMALL_INTS) + flag("--points", TRIALS)
        argv += draw(st.sampled_from([[], ["--allow-disconnected"]])) + flag("--budget", SMALL_INTS)
    elif command == "identity":
        argv = [file, *flag("--root", SMALL_INTS), *flag("--trials", TRIALS)]
        argv += flag("--weights-file", st.sampled_from(ARGV_FILES))
        weights = st.text(max_size=12) | st.from_regex(r"random:-?\d{1,3}|-?\d(,-?\d){0,9}", fullmatch=True)
        argv += [f"--weights={w}" for w in draw(st.lists(weights, max_size=1))]
    elif command == "fpoly":
        argv = [file, *draw(st.sampled_from([[], ["--dump"]]))]
        argv += flag("--budget", SMALL_INTS)
    else:
        argv = [file, *flag("--root", SMALL_INTS)]
    argv += draw(st.sampled_from([[], ["--json"], ["--quiet"]]))
    return [command, *argv]


@settings(max_examples=150, deadline=None)
@given(cli_argv())
@example(["verify", "--budget", "0", "--trials", "2"])
def test_random_argv_exits_with_a_documented_code(argv_paths, argv):
    argv = [argv_paths.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse's usage path, remapped to exit 1
            assert exc.code == 1
            return
    assert code in {0, 1, 2, 3}
    if code in (1, 2):
        prefix = f"treecount {argv[0]}: " + ("parse error: " if code == 2 else "")
        assert out.getvalue() == ""
        assert err.getvalue().startswith(prefix)
        assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["count", "@good"], ["identity", "@good"], ["bound", "@good"], ["family", "wheel", "4"]]
)
def test_budget_is_rejected_where_nothing_reads_it(capsys, argv_paths, argv):
    # only fpoly and verify expand the incidence product
    with pytest.raises(SystemExit) as exc:
        main([argv_paths.get(arg, arg) for arg in argv] + ["--budget", "0"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --budget 0" in capsys.readouterr().err


def test_count_builds_the_class_tables_once_per_graph(capsys, monkeypatch, wheel4_file):
    # matrix-tree, enum, degree and degree-direct all read the parsed graph's
    # class table
    built = []
    real = Multigraph.__dict__["_class_table"].func

    def spy(g):
        built.append("_class_table")
        return real(g)

    prop = cached_property(spy)
    prop.__set_name__(Multigraph, "_class_table")
    monkeypatch.setattr(Multigraph, "_class_table", prop)
    assert run(capsys, ["count", wheel4_file, "--root", "4"])[0] == 0
    assert built == ["_class_table"]


# sha256 of "<exit code>\n<stdout>"; "@<kind>-<size>" names a family graph file
SEEDED_OUTPUT_SHA256 = [
    (
        ["verify", "--n", "7", "--m", "12", "--trials", "100", "--seed", "42"],
        "1c490ae9210372aecc2972fa89b448b061eb8b0d1e389f900295724d61fcd48f",
    ),
    (
        ["verify", "--n", "7", "--m", "12", "--trials", "100", "--seed", "42", "--json"],
        "cfcfc404b0e2f5c9d3de9c8143f405911850a3ffb83370f32bdafbeb2041d012",
    ),
    (
        ["identity", "@multiwheel-8", "--weights", "random:7", "--trials", "3", "--json"],
        "e79921dc6aa30b0fa6bd4e6ea2012167495d5f4fb1dd44a3663ad24b19c77e84",
    ),
    (
        ["count", "@complete-9", "--method", "degree", "--quiet"],
        "3e28568e75841cef938815eceec8e8cc16ff98c2f1745fa14cd743afe6511a0e",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", SEEDED_OUTPUT_SHA256, ids=[" ".join(argv) for argv, _ in SEEDED_OUTPUT_SHA256]
)
def test_seeded_outputs_are_pinned(capsys, tmp_path, argv, digest):
    # a change to any count, value or seeded draw moves these digests
    paths = {}
    for arg in argv:
        if arg.startswith("@"):
            kind, size = arg[1:].split("-")
            path = tmp_path / f"{kind}{size}.graph"
            path.write_text(serialize(generate_family(FamilySpec(kind, (int(size),)))))
            paths[arg] = str(path)
    code, out, err = run(capsys, [paths.get(arg, arg) for arg in argv])
    assert err == ""
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest
