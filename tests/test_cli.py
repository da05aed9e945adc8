"""Command line interface: outputs, exit codes, file round trips."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest.mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flipforge
from flipforge import analysis, cli
from flipforge.analysis import verify_flip
from flipforge.cli import main
from flipforge.construct import ColouredConnectingSet, cayley_build, merge_connecting_sets
from flipforge.ecgraph import EdgeColouredGraph
from flipforge.group import parse_group_text

C4_JSON = json.dumps({
    "vertices": 4, "colours": 2,
    "edges": [[0, 1, 1], [1, 2, 2], [2, 3, 1], [0, 3, 2]],
})


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_construct_br_verify_output(capsys):
    rc, out, err = run(capsys, "construct-br", "--b", "4", "--r", "5", "--verify")
    assert rc == 0
    assert err == ""
    assert out == "order 40\ndeg=(4,5)\ne=(7,5)\nPASS\n"


def test_construct_br_plain(capsys):
    rc, out, _ = run(capsys, "construct-br", "--b", "6", "--r", "7")
    assert rc == 0
    assert out == "order 56\n"


def test_construct_br_bad_range(capsys):
    rc, out, err = run(capsys, "construct-br", "--b", "3", "--r", "4")
    assert rc == 2
    assert "error:" in err
    assert "b >= 4" in err


def test_construct_br_files(tmp_path, capsys):
    out_path = tmp_path / "g.json"
    plan_path = tmp_path / "plan.json"
    dot_path = tmp_path / "g.dot"
    rc, _, _ = run(
        capsys, "construct-br", "--b", "4", "--r", "5",
        "--out", str(out_path), "--plan-out", str(plan_path), "--dot", str(dot_path))
    assert rc == 0
    graph = EdgeColouredGraph.from_json(out_path.read_text())
    assert graph.vertex_count == 40
    plan = json.loads(plan_path.read_text())
    assert plan["blue_set"] == [[9], [18], [22], [31]]
    assert dot_path.read_text().startswith("graph G {")
    # byte determinism across runs
    first = out_path.read_bytes()
    run(capsys, "construct-br", "--b", "4", "--r", "5", "--out", str(out_path))
    assert out_path.read_bytes() == first


def test_construct_br_out_stdout(capsys):
    rc, out, _ = run(capsys, "construct-br", "--b", "4", "--r", "5", "--out", "-")
    assert rc == 0
    graph = EdgeColouredGraph.from_json(out[: out.rindex("}") + 1])
    assert graph.vertex_count == 40


def outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``, argparse's own exits included."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def argv_corpus(tmp_path):
    """(argv, exit code): help, usage errors and one valid call per subcommand."""
    graph = tmp_path / "c4.json"
    graph.write_text(C4_JSON)
    k2 = tmp_path / "k2.json"
    k2.write_text(json.dumps({"vertices": 2, "colours": 2, "edges": [[0, 1, 1]]}))
    blue, red = tmp_path / "blue.json", tmp_path / "red.json"
    blue.write_text(json.dumps({"group": "z:40", "classes": {"1": [[9], [18], [22], [31]]}}))
    red.write_text(json.dumps({"group": "z:40", "classes": {"2": [[6], [7], [20], [33], [34]]}}))
    g, k2, blue, red = map(str, (graph, k2, blue, red))
    return [
        (["-h"], 0),
        ([], 2),
        (["bogus"], 2),
        (["--bogus", "verify"], 2),
        (["verify", "--help"], 0),
        (["verify"], 2),
        (["construct-br", "--b", "x", "--r", "5"], 2),
        (["search-sumfree", "--group", "z:7", "--mode", "fast"], 2),
        (["bounds", "--b", "4", "--extra"], 2),
        (["bounds", "--b", "4", "x", "y"], 2),
        (["bounds", "--b", "4", "--", "x"], 2),
        (["bounds", "--he"], 0),
        (["search-sumfree", "--group", "z:7", "-h"], 0),
        (["bounds", "--b", "3", "--b", "4,5"], 0),
        (["bounds", "--b=4"], 0),
        (["construct-br", "--b", "4", "--r", "5", "--verify"], 0),
        (["verify", "--in", g], 1),
        (["product", "--kind", "cartesian", "--left", k2, "--right", k2], 0),
        (["cayley", "--group", "z:7", "--class", "1=1;6", "--class", "2=2;5"], 0),
        (["pack", "--first", blue, "--second", red], 0),
        (["merge", "--in", g, "--partition", "1,2"], 0),
        (["bounds", "--b", "4,5"], 0),
        (["gaps-plan", "--q", "2", "--k", "40", "--prefix-e", "140,135",
          "--prefix-deg", "42,135"], 0),
        (["search-sumfree", "--group", "z:2,4"], 0),
    ]


def full_tree(argv):
    """``argv`` parsed by the top-level parser with all nine subcommands, the
    reference for ``cli._parse_args``."""
    return cli._build_parser().parse_args(argv)


def test_every_output_matches_the_parser_with_all_subcommands(tmp_path, capsys, monkeypatch):
    """Parsing with the named subcommand's parser alone changes no exit code
    and no byte of stdout or stderr, help and argparse's usage errors included."""
    corpus = argv_corpus(tmp_path)
    got = [outcome(capsys, argv) for argv, _ in corpus]
    monkeypatch.setattr(cli, "_parse_args", full_tree)
    full = [outcome(capsys, argv) for argv, _ in corpus]
    for (argv, code), mine, reference in zip(corpus, got, full):
        assert mine == reference, argv
        assert mine[0] == code, argv


@pytest.mark.parametrize("argv, calls, built", [
    (["verify", "--in", "F"], 1, 1), (["--help"], 1, 10),
    (["bounds", "--b", "4", "--extra"], 1, 11), (["verify", "--in", "F"], 2, 1),
], ids=["named", "help", "left-over", "repeated"])
def test_main_builds_the_full_tree_only_when_needed(capsys, monkeypatch, argv, calls, built):
    """One parser for a named subcommand that takes every argument, built on
    its first call in a process and reused; the top level and all nine
    subcommands for help, and for arguments left over. The count starts from
    an empty cache, so it does not depend on which tests ran before."""
    cli._command_parser.cache_clear()
    parsers = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kw: parsers.append(self) or init(self, *args, **kw))
    monkeypatch.setattr(sys, "argv", ["flipforge", *argv])
    for _ in range(calls):
        outcome(capsys, None)
    assert len(parsers) == built


def test_a_reused_parser_keeps_nothing_from_earlier_calls(capsys):
    """Each argv gives the same exit code, stdout and stderr on every call:
    twice in one order, then again from an empty cache in reverse order.
    The repeated --class checks that 'append' starts from an empty list."""
    one_class = ["cayley", "--group", "z:7", "--class", "1=1;6"]
    sequence = [
        one_class, [*one_class, "--class", "2=2;5"], one_class,
        ["bounds", "--b", "x"], ["bounds", "--b", "4,5"], ["bounds", "--b", "4,5", "--extra"],
        ["verify", "--help"], ["verify", "--in"],
        ["search-sumfree", "--group", "z:7", "--mode", "nope"], ["search-sumfree", "--group", "z:7"],
    ]
    results = {}

    def run_all(argvs):
        for argv in argvs:
            results.setdefault(tuple(argv), []).append(outcome(capsys, argv))

    run_all(sequence)
    run_all(sequence)
    cli._command_parser.cache_clear()
    run_all(sequence[::-1])
    codes = [0, 0, 2, 0, 2, 0, 2, 2, 0]
    for (argv, got), code in zip(results.items(), codes, strict=True):
        assert got == [got[0]] * len(got), argv
        assert got[0][0] == code, argv


def test_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(capsys, "construct-br", "--b", "4", "--r", "5", "--out", str(path))
    rc, out, _ = run(capsys, "verify", "--in", str(path), "--sequence", "4,5")
    assert rc == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["e_chain"] == [7, 5]


def test_verify_failing_graph(tmp_path, capsys):
    path = tmp_path / "c4.json"
    path.write_text(C4_JSON)
    rc, out, _ = run(capsys, "verify", "--in", str(path))
    assert rc == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert ["", "degrees-not-increasing"][1] in [v[1] for v in report["violations"]]


def test_verify_empty_sequence_is_a_usage_error(tmp_path, capsys):
    """An empty --sequence is an empty list, malformed, not no expectation."""
    path = tmp_path / "c4.json"
    path.write_text(C4_JSON)
    rc, out, err = run(capsys, "verify", "--in", str(path), "--sequence", "")
    assert (rc, out, err) == (2, "", "error: --sequence expects comma-separated integers, got ''\n")


@pytest.mark.parametrize("argv, flag, text", [
    (["bounds", "--b", "4,,5"], "--b", "4,,5"),
    (["verify", "--in", "{tmp}/g.json", "--sequence", "4,,5"], "--sequence", "4,,5"),
    (["verify", "--in", "{tmp}/g.json", "--sequence", "4,5,"], "--sequence", "4,5,"),
    (["verify", "--in", "{tmp}/g.json", "--sequence", "4, ,5"], "--sequence", "4, ,5"),
], ids=["bounds-double-comma", "sequence-double-comma", "sequence-trailing-comma",
        "sequence-blank-part"])
def test_integer_list_with_an_empty_part_exits_2(tmp_path, capsys, argv, flag, text):
    run(capsys, "construct-br", "--b", "4", "--r", "5", "--out", str(tmp_path / "g.json"))
    rc, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (rc, out, err) == (2, "", f"error: {flag} expects comma-separated integers, got {text!r}\n")


@pytest.mark.parametrize("text", ["1_1", "\u0664,5"], ids=["underscore", "non-ascii-digit"])
def test_integer_list_takes_ascii_integers_only(capsys, text):
    """int() would read these as 11 and 4; a list part is a sign and ASCII digits."""
    rc, out, err = run(capsys, "bounds", "--b", text)
    assert (rc, out, err) == (2, "", f"error: --b expects comma-separated integers, got {text!r}\n")


# Every integer flag: the command's other required flags, the flag, its dest.
INT_FLAGS = [
    (["construct-br", "--r", "5"], "--b", "b"),
    (["construct-br", "--b", "4"], "--r", "r"),
    (["gaps-plan", "--k", "9"], "--q", "q"),
    (["gaps-plan", "--q", "2"], "--k", "k"),
    (["gaps-plan", "--q", "2", "--k", "9"], "--t", "t"),
    (["gaps-plan", "--q", "2", "--k", "9"], "--materialize-limit", "materialize_limit"),
    (["cayley", "--group", "z:6", "--class", "1=1;5"], "--colours", "colours"),
    (["search-sumfree", "--group", "z:6"], "--budget", "budget"),
]


@pytest.mark.parametrize("argv, flag, dest", INT_FLAGS, ids=[flag for _, flag, _ in INT_FLAGS])
@pytest.mark.parametrize("text", ["0_4", "\u0665"], ids=["underscore", "non-ascii-digit"])
def test_integer_flags_take_ascii_integers_only(capsys, argv, flag, dest, text):
    """int() would read these as 4 and 5; a flag is a sign and ASCII digits,
    and argparse still names the type int."""
    with pytest.raises(SystemExit) as info:
        main([*argv, flag, text])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {flag}: invalid int value: {text!r}\n")


@pytest.mark.parametrize("argv, flag, dest", INT_FLAGS, ids=[flag for _, flag, _ in INT_FLAGS])
def test_integer_flags_may_be_padded(argv, flag, dest):
    argv = [*argv, flag, " 4 "]
    assert getattr(cli._parse_args(argv), dest) == 4


def test_bounds_without_b_values_exits_2(capsys):
    """An empty --b is no table at all, not a header with no rows."""
    rc, out, err = run(capsys, "bounds", "--b", "")
    assert (rc, out, err) == (2, "", "error: --b expects comma-separated integers, got ''\n")


NO_FILE = "[Errno 2] No such file or directory: ''"
GAPS_PREFIX = ["gaps-plan", "--q", "2", "--k", "9", "--prefix-e", "140,135", "--prefix-deg", "42,135"]


def empty_value_cases():
    """(argv, stderr line): an empty path, list or list part in every flag
    that can hold one, but for ``--sequence ""`` and ``--b ""``, which have
    their own tests above. An empty DOT path fails with the graph sent to a
    file and with it sent to stdout, as does an empty --out after a plan sent
    to stdout: every file is written before stdout, so stdout stays empty."""
    graph_out = ["--out", "{tmp}/g.json"]
    emitters = [
        ["product", "--kind", "strong", "--left", "{tmp}/c4.json", "--right", "{tmp}/c4.json"],
        ["cayley", "--group", "z:7", "--class", "1=1;6"],
        ["pack", "--first", "{tmp}/blue.json", "--second", "{tmp}/red.json"],
        ["merge", "--in", "{tmp}/c4.json", "--partition", "1,2"],
    ]
    cases = [(["construct-br", "--b", "4", "--r", "5", flag, ""], NO_FILE)
             for flag in ("--out", "--plan-out", "--dot")]
    for argv in emitters:
        cases += [([*argv, "--out", ""], NO_FILE), ([*argv, *graph_out, "--dot", ""], NO_FILE),
                  ([*argv, "--dot", ""], NO_FILE)]
    cases += [(["construct-br", "--b", "4", "--r", "5", *flags], NO_FILE)
              for flags in (["--out", "-", "--dot", ""], ["--plan-out", "-", "--out", ""])]
    cases += [
        (["bounds", "--b", "4,5", "--out", ""], NO_FILE),
        ([*GAPS_PREFIX, "--out", ""], NO_FILE),
        (["verify", "--in", ""], f"cannot read : {NO_FILE}"),
        (["product", "--kind", "strong", "--left", "", "--right", "{tmp}/c4.json"],
         f"cannot read : {NO_FILE}"),
        (["pack", "--first", "{tmp}/blue.json", "--second", ""], f"cannot read : {NO_FILE}"),
        (["gaps-plan", "--q", "2", "--k", "9", "--from-br", ""],
         "--from-br expects comma-separated integers, got ''"),
        (["gaps-plan", "--q", "2", "--k", "9", "--prefix-e", "", "--prefix-deg", "42,135"],
         "--prefix-e expects comma-separated integers, got ''"),
        (["gaps-plan", "--q", "2", "--k", "9", "--prefix-e", "140,135", "--prefix-deg", ""],
         "--prefix-deg expects comma-separated integers, got ''"),
    ]
    cases += [(["merge", "--in", "{tmp}/c4.json", "--partition", text],
               "--partition expects comma-separated integers, got ''") for text in ("", "1||2", "1|2|")]
    cases += [(["cayley", "--group", "z:7", "--class", text], "--class residues must be integers, got ''")
              for text in ("1=1;;6", "1=1;6;")]
    return cases


EMPTY_VALUE_CASES = empty_value_cases()


@pytest.mark.parametrize("argv, message", EMPTY_VALUE_CASES,
                         ids=[" ".join(argv).replace("{tmp}/", "") for argv, _ in EMPTY_VALUE_CASES])
def test_empty_value_exits_2(tmp_path, capsys, argv, message):
    """An empty path, list or list part is malformed, never absent or skipped."""
    (tmp_path / "c4.json").write_text(C4_JSON)
    (tmp_path / "blue.json").write_text(json.dumps({"group": "z:7", "classes": {"1": [[1], [6]]}}))
    (tmp_path / "red.json").write_text(json.dumps({"group": "z:7", "classes": {"2": [[2], [5]]}}))
    rc, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_files_are_written_in_flag_order_before_stdout(tmp_path, capsys):
    """A file named before a failing path is already written; stdout gets its
    texts, in flag order and then the status lines, only once every file is."""
    plan, graph = tmp_path / "plan.json", tmp_path / "g.json"
    br = ["construct-br", "--b", "4", "--r", "5", "--verify"]
    rc, out, err = run(capsys, *br, "--plan-out", str(plan), "--out", "")
    assert (rc, out, err) == (2, "", f"error: {NO_FILE}\n")
    assert json.loads(plan.read_text())["blue_set"] == [[9], [18], [22], [31]]
    assert run(capsys, *br, "--out", str(graph))[0] == 0
    rc, out, err = run(capsys, *br, "--out", "-", "--plan-out", "-")
    assert (rc, err) == (0, "")
    assert out == plan.read_text() + graph.read_text() + "order 40\ndeg=(4,5)\ne=(7,5)\nPASS\n"


@pytest.mark.parametrize("prefix", [
    ["--prefix-e", "265,155"], ["--prefix-deg", "42,135"],
    ["--prefix-e", "265,155", "--prefix-deg", "42,135"], ["--prefix-e", ""], ["--prefix-deg", ""],
], ids=["prefix-e", "prefix-deg", "both", "empty-prefix-e", "empty-prefix-deg"])
@pytest.mark.parametrize("from_br", ["42,135", ""], ids=["from-br", "empty-from-br"])
def test_gaps_plan_from_br_excludes_prefix_vectors(capsys, monkeypatch, from_br, prefix):
    """--from-br builds its own prefix, so a prefix vector beside it, empty or
    not, is refused before the prefix is built."""
    monkeypatch.setattr(cli, "build_br", None)
    rc, out, err = run(capsys, "gaps-plan", "--q", "2", "--k", "11", "--from-br", from_br, *prefix)
    assert (rc, out, err) == (2, "", "error: --from-br and --prefix-e/--prefix-deg are mutually exclusive\n")


def test_integer_list_parts_may_be_padded(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(capsys, "construct-br", "--b", "4", "--r", "5", "--out", str(path))
    assert run(capsys, "verify", "--in", str(path), "--sequence", " 4, 5 ")[0] == 0
    assert run(capsys, "bounds", "--b", "4, 5") == run(capsys, "bounds", "--b", "4,5")


def test_verify_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": 4')
    rc, _, err = run(capsys, "verify", "--in", str(path))
    assert rc == 2
    assert "error:" in err
    rc, _, err = run(capsys, "verify", "--in", str(tmp_path / "missing.json"))
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--in", "{deep}"],
    ["pack", "--first", "{deep}", "--second", "{deep}"],
], ids=["verify", "pack"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    """A document nested past the parser's recursion limit is malformed input."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    rc, out, err = run(capsys, *(a.format(deep=deep) for a in argv))
    assert (rc, out) == (2, "")
    assert err == f"error: JSON in {deep} is nested too deeply\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--in", "{path}"],
    ["product", "--kind", "strong", "--left", "{path}", "--right", "{path}"],
    ["merge", "--in", "{path}", "--partition", "1,2"],
], ids=["verify", "product", "merge"])
def test_graph_file_over_edge_limit_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(flipforge.ecgraph, "EDGE_LIMIT", 3)
    path = tmp_path / "c4.json"
    path.write_text(C4_JSON)
    rc, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert (rc, out) == (2, "")
    assert err == "error: graph JSON would have 4 edges, over the limit 3\n"


@pytest.mark.parametrize("edges", ["abcd", {"a": 1, "b": 2, "c": 3, "d": 4}],
                         ids=["string", "object"])
def test_non_list_edges_over_edge_limit_exit_2(tmp_path, capsys, monkeypatch, edges):
    """A string or object in place of the edge list is refused before it is
    counted or read."""
    monkeypatch.setattr(flipforge.ecgraph, "EDGE_LIMIT", 3)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": 4, "colours": 2, "edges": edges}))
    rc, out, err = run(capsys, "verify", "--in", str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: malformed graph JSON: edges must be a list, got {type(edges).__name__}\n"


@pytest.mark.parametrize("argv, edges, kind", [
    (["verify", "--in", "{path}"], {}, "dict"),
    (["merge", "--in", "{path}", "--partition", "1", "--out", "{tmp}/merged.json"], "", "str"),
], ids=["verify-object", "merge-string"])
def test_non_list_edges_exit_2(tmp_path, capsys, argv, edges, kind):
    """An empty object is not a graph with no edges, nor an empty string an
    empty edge list: verify refuses the one, and merge the other and writes
    no file."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": 4, "colours": 1, "edges": edges}))
    rc, out, err = run(capsys, *(a.format(path=path, tmp=tmp_path) for a in argv))
    assert (rc, out, err) == (2, "", f"error: malformed graph JSON: edges must be a list, got {kind}\n")
    assert not (tmp_path / "merged.json").exists()


@pytest.mark.parametrize("row, message", [
    ([0, 9, 1], "edge endpoint out of range: (0, 9, 1)"),
    ([2, 2, 1], "loop edges are not allowed: (2, 2, 1)"),
    ([0, 2, 3], "colour 3 outside 1..2: (0, 2, 3)"),
    ([0, 1, 2], "vertex pair (0, 1) carries two colours: 1 and 2"),
    ([0, 2], "malformed edge entry (0, 2)"),
    (7, "malformed graph JSON: 'int' object is not iterable"),
])
def test_bad_graph_file_stderr(tmp_path, capsys, row, message):
    data = json.loads(C4_JSON)
    data["edges"].append(row)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, "verify", "--in", str(path))
    assert (rc, out, err) == (2, "", f"error: {message}\n")

def test_bounds_over_row_limit_exits_2(capsys):
    rc, out, err = run(capsys, "bounds", "--b", "20000")
    assert (rc, out) == (2, "")
    assert err == "error: bounds table would have 22217777 rows, over the limit 1000000\n"


VERIFY_G = ["verify", "--in", "{tmp}/g.json"]


@pytest.mark.parametrize("graph, argv", [
    ({"vertices": "3", "colours": 1, "edges": []}, VERIFY_G),
    ({"vertices": 3, "colours": 1, "edges": [[0, 1.0, 1]]}, VERIFY_G),
    ({"vertices": 3, "colours": 1, "edges": [[0, "1", 1]]}, VERIFY_G),
    (None, ["bounds", "--b", "4", "--out", "{tmp}"]),
    (None, ["construct-br", "--b", "4", "--r", "5", "--out", "{tmp}/missing/x.json"]),
    (None, ["gaps-plan", "--q", "0", "--k", "9", "--prefix-e", ",", "--prefix-deg", ","]),
], ids=["string-vertices", "float-endpoint", "string-endpoint", "out-is-dir", "out-dir-missing",
        "empty-prefix"])
def test_bad_input_or_output_exits_2(tmp_path, capsys, graph, argv):
    """Malformed graph JSON or an unwritable --out is a usage error, never exit 1."""
    (tmp_path / "g.json").write_text(json.dumps(graph))
    rc, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert rc == 2
    assert err.startswith("error:")


RED_SET = {"group": "z:40", "colour_count": 2, "classes": {"2": [[6], [7], [20], [33], [34]]}}


@pytest.mark.parametrize("change", [
    {"classes": [[1, 6]]},
    {"group": 7},
    {"colour_count": "3"},
    {"classes": {"2": [[2.5], [37.5]]}},
    {"classes": {"2": [[6], [34]], "02": [[7], [33]]}},
], ids=["classes-list", "group-int", "colour-count-string", "float-residues",
        "colour-named-twice"])
def test_pack_malformed_connecting_set_exits_2(tmp_path, capsys, change):
    (tmp_path / "first.json").write_text(json.dumps(
        {"group": "z:40", "colour_count": 2, "classes": {"1": [[9], [18], [22], [31]]}}))
    (tmp_path / "second.json").write_text(json.dumps({**RED_SET, **change}))
    rc, _, err = run(capsys, "pack", "--first", str(tmp_path / "first.json"),
                     "--second", str(tmp_path / "second.json"))
    assert rc == 2
    assert err.startswith("error:")


def test_pack_non_integer_class_key_names_the_key(tmp_path, capsys):
    (tmp_path / "first.json").write_text(json.dumps(
        {"group": "z:40", "colour_count": 2, "classes": {"x": [[9], [31]]}}))
    (tmp_path / "second.json").write_text(json.dumps(RED_SET))
    rc, out, err = run(capsys, "pack", "--first", str(tmp_path / "first.json"),
                       "--second", str(tmp_path / "second.json"))
    assert (rc, out) == (2, "")
    assert err == "error: class key 'x' is not an integer colour\n"


def test_product_command(tmp_path, capsys):
    left = tmp_path / "k2_blue.json"
    right = tmp_path / "k2_red.json"
    left.write_text(json.dumps({"vertices": 2, "colours": 2, "edges": [[0, 1, 1]]}))
    right.write_text(json.dumps({"vertices": 2, "colours": 2, "edges": [[0, 1, 2]]}))
    out_path = tmp_path / "prod.json"
    rc, out, _ = run(
        capsys, "product", "--kind", "strong",
        "--left", str(left), "--right", str(right), "--out", str(out_path))
    assert rc == 0
    assert out == ""  # graph goes to the file, nothing else is printed
    graph = EdgeColouredGraph.from_json(out_path.read_text())
    assert graph.vertex_profile(0).e_closed == (4, 2)
    # without --out the JSON lands on stdout
    rc, out, _ = run(
        capsys, "product", "--kind", "cartesian",
        "--left", str(left), "--right", str(right))
    assert rc == 0
    cart = EdgeColouredGraph.from_json(out)
    assert len(cart.edges) == 4


def test_cayley_command(tmp_path, capsys):
    out_path = tmp_path / "cay.json"
    rc, out, _ = run(
        capsys, "cayley", "--group", "z:7",
        "--class", "1=1;6", "--class", "2=2;5", "--out", str(out_path))
    assert rc == 0
    graph = EdgeColouredGraph.from_json(out_path.read_text())
    assert graph.vertex_count == 7
    assert verify_flip(graph).colour_degrees == (2, 2)


def test_cayley_multi_factor_group(capsys):
    # residues inside an element join with commas, elements with semicolons
    rc, out, _ = run(
        capsys, "cayley", "--group", "z:2,6", "--class", "1=1,0;0,3", "--colours", "2")
    assert rc == 0
    graph = EdgeColouredGraph.from_json(out)
    assert graph.vertex_count == 12
    assert verify_flip(graph).colour_degrees == (2, 0)


def test_cayley_invalid_class(capsys):
    rc, _, err = run(capsys, "cayley", "--group", "z:7", "--class", "1=1")
    assert rc == 2  # {1} is not inverse-closed in Z_7
    rc, _, err = run(capsys, "cayley", "--group", "z:7", "--class", "bogus")
    assert rc == 2


@pytest.mark.parametrize("group, token", [("z:6", "a"), ("z:2,6", "1,a")])
def test_cayley_non_integer_residue_names_flag_and_token(capsys, group, token):
    rc, out, err = run(capsys, "cayley", "--group", group, "--class", f"1={token}")
    assert (rc, out) == (2, "")
    assert err == f"error: --class residues must be integers, got {token!r}\n"


@pytest.mark.parametrize("argv, message", [
    (["cayley", "--group", "z:7", "--class", "0_1=1;6"], "--class colour must be an integer, got '0_1'"),
    (["cayley", "--group", "z:7", "--class", "1=\u0661;\u0666"],
     "--class residues must be integers, got '\u0661'"),
    (["cayley", "--group", "z:\u0667", "--class", "1=1;6"], "malformed group spec 'z:\u0667'"),
    (["search-sumfree", "--group", "z:1_2"], "malformed group spec 'z:1_2'"),
    (["search-sumfree", "--group", "z2xz:\u00b2"], "malformed group spec 'z2xz:\u00b2'"),
], ids=["class-colour-underscore", "class-residue-non-ascii", "group-non-ascii",
        "group-underscore", "z2xz-superscript"])
def test_group_and_class_text_take_ascii_integers_only(capsys, argv, message):
    """int() would read 0_1 as colour 1, the residues as 1 and 6 and the groups
    as Z_7 and Z_12; every integer in group or class text follows the flags' rule."""
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_pack_class_key_takes_ascii_integers_only(tmp_path, capsys):
    """int() would read the key 1_0 as colour 10."""
    (tmp_path / "first.json").write_text(json.dumps(
        {"group": "z:40", "colour_count": 2, "classes": {"1_0": [[9], [31]]}}))
    (tmp_path / "second.json").write_text(json.dumps(RED_SET))
    rc, out, err = run(capsys, "pack", "--first", str(tmp_path / "first.json"),
                       "--second", str(tmp_path / "second.json"))
    assert (rc, out, err) == (2, "", "error: class key '1_0' is not an integer colour\n")


def test_pack_command(tmp_path, capsys):
    first = tmp_path / "blue.json"
    second = tmp_path / "red.json"
    first.write_text(json.dumps({
        "group": "z:40", "colour_count": 2,
        "classes": {"1": [[9], [18], [22], [31]]}}))
    second.write_text(json.dumps({
        "group": "z:40", "colour_count": 2,
        "classes": {"2": [[6], [7], [20], [33], [34]]}}))
    out_path = tmp_path / "packed.json"
    rc, out, _ = run(
        capsys, "pack", "--first", str(first), "--second", str(second),
        "--out", str(out_path))
    assert rc == 0
    packed = EdgeColouredGraph.from_json(out_path.read_text())
    assert packed.vertex_profile(0).e_closed == (7, 5)

    # same classes on both sides: the merge must refuse
    rc, _, err = run(capsys, "pack", "--first", str(first), "--second", str(first))
    assert rc == 2


def run_capped(*argv):
    """Run ``main(argv)`` in a child whose address space is capped at 1 GiB.

    Only the child is capped. A command that allocates a huge input before
    checking its size dies there with MemoryError instead of exhausting the
    host that runs the tests.
    """
    child = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
             "from flipforge.cli import main; sys.exit(main(sys.argv[1:]))")
    src = os.path.dirname(os.path.dirname(flipforge.__file__))
    return subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})


def test_pack_empty_classes_over_huge_group_exits_2(tmp_path):
    """Empty classes pass every set check, so only the size check stops the
    build of the 10^9 vertices."""
    for name, colour in (("first", "1"), ("second", "2")):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"group": "z:1000000000", "classes": {colour: []}}))
    proc = run_capped("pack", "--first", str(tmp_path / "first.json"),
                      "--second", str(tmp_path / "second.json"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: group order 1000000000 exceeds enumeration limit 1000000\n")


HUGE_GROUP_ERROR = "error: group order 1000000000000 exceeds enumeration limit 1000000\n"


def test_cayley_class_over_huge_group_exits_2():
    """A bitset over 10^12 elements would take 125 GB, so the group's size is
    checked before the class sets any bit."""
    proc = run_capped("cayley", "--group", "z:1000000000000", "--class", "1=1;-1")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == HUGE_GROUP_ERROR


def test_cayley_over_edge_limit_exits_2():
    """20,000,000 edges would not fit the child's 1 GiB, so the count is
    checked before any edge is listed."""
    classes = ";".join(str(x) for i in range(1, 21) for x in (i, -i))
    proc = run_capped("cayley", "--group", "z:1000000", "--class", f"1={classes}")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: Cayley graph would have 20000000 edges, over the limit 1000000\n")


def test_strong_product_over_edge_limit_exits_2(tmp_path):
    k100 = EdgeColouredGraph(100, 1, [(u, v, 1) for u in range(100) for v in range(u + 1, 100)])
    path = tmp_path / "k100.json"
    path.write_text(k100.to_json())
    proc = run_capped("product", "--kind", "strong", "--left", str(path), "--right", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: product would have 49995000 edges, over the limit 1000000\n"


def test_pack_classes_over_huge_group_exits_2(tmp_path):
    for name, colour, x in (("first", "1", 1), ("second", "2", 2)):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"group": "z:1000000000000", "classes": {colour: [[x], [-x]]}}))
    proc = run_capped("pack", "--first", str(tmp_path / "first.json"),
                      "--second", str(tmp_path / "second.json"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == HUGE_GROUP_ERROR


def test_construct_br_over_limit_exits_2_before_planning():
    """(99999, 299999) needs a group of order 2,666,704: refused before any
    interval or set is built, not after seconds of set algebra."""
    proc = run_capped("construct-br", "--b", "99999", "--r", "299999")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: group order 2666704 exceeds enumeration limit 1000000\n"


def test_verify_huge_vertex_count_exits_2(tmp_path):
    """A 60-byte file must not make the graph allocate 10^12 adjacency lists."""
    path = tmp_path / "huge.json"
    path.write_text('{"vertices": 1000000000000, "colours": 1, "edges": []}')
    proc = run_capped("verify", "--in", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: vertex count 1000000000000 exceeds enumeration limit 1000000\n")


@pytest.mark.parametrize("vertices, colours, message", [
    (3, 10**12, "colour count 1000000000000 exceeds enumeration limit 1000000"),
    (2000, 2 * 10**6, "colour count 2000000 exceeds enumeration limit 1000000"),
], ids=["three-vertices", "count-table"])
def test_verify_huge_colour_count_exits_2(tmp_path, vertices, colours, message):
    """Profiles hold one counter per colour: a huge colour count is refused
    before the graph allocates them, not met by MemoryError in the profile pass."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": vertices, "colours": colours, "edges": [[0, 1, 1]]}))
    proc = run_capped("verify", "--in", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_gaps_plan_huge_k_exits_2():
    """The plan's per-colour lists are O(k) long, so k is bounded before they are built."""
    proc = run_capped("gaps-plan", "--q", "2", "--k", "10000000",
                      "--prefix-e", "5000,4000", "--prefix-deg", "100,200")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: colour count k=10000000 exceeds enumeration limit 1000000\n"


def test_merge_command(tmp_path, capsys):
    path = tmp_path / "g.json"
    run(capsys, "construct-br", "--b", "4", "--r", "5", "--out", str(path))
    out_path = tmp_path / "merged.json"
    rc, out, _ = run(
        capsys, "merge", "--in", str(path), "--partition", "1,2", "--out", str(out_path))
    assert rc == 0
    merged = EdgeColouredGraph.from_json(out_path.read_text())
    assert merged.colour_count == 1
    assert merged.vertex_profile(0).deg == (9,)
    assert merged.vertex_profile(0).e_closed == (12,)
    rc, _, err = run(capsys, "merge", "--in", str(path), "--partition", "1|1,2")
    assert rc == 2


def test_bounds_command(capsys):
    rc, out, _ = run(capsys, "bounds", "--b", "11,25")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "b,r,old_bound,new_bound"
    assert lines[1] == "11,12,160,80"
    assert lines[2] == "11,13,168,160"
    assert len(lines) == 39
    rc, _, err = run(capsys, "bounds", "--b", "11", "--format", "yaml")
    assert rc == 2
    rc, _, err = run(capsys, "bounds", "--b", "x")
    assert rc == 2


@pytest.mark.parametrize("b_values, digest", [
    (",".join(map(str, range(3, 61))),
     "21395be12568a07ffbf8d535d6d54ce4a5a6807ce0002588ad9fb4573e047c4f"),
    ("3", "fae7affbe1827a1ab95e53ca726767a7bc42240b1a1336c98b5602a08c48a007"),
], ids=["b3-60", "b3"])
def test_bounds_bytes_are_pinned(capsys, b_values, digest):
    """The 3,965-row table of b = 3..60 (the benchmark's reference digest)
    and the b = 3 fallback, byte for byte."""
    rc, out, err = run(capsys, "bounds", "--b", b_values)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bounds_unsupported_format_builds_no_table(capsys, monkeypatch):
    def refuse(b_values):
        raise AssertionError("bounds table built for an unsupported format")

    monkeypatch.setattr(cli, "bounds_table", refuse)
    rc, out, err = run(capsys, "bounds", "--b", "11", "--format", "yaml")
    assert (rc, out, err) == (2, "", "error: unsupported format 'yaml'\n")


def test_cli_import_leaves_fractions_and_csv_unloaded(tmp_path):
    """Starting the CLI imports neither module, since bounds CSV is written
    directly, and writing a gaps plan's part_ratio does not import fractions."""
    child = (
        "import sys, flipforge.cli\n"
        "print(sorted({'csv', 'fractions'} & set(sys.modules)))\n"
        "rc = flipforge.cli.main(['gaps-plan', '--q', '2', '--k', '9', '--prefix-e', '140,135',\n"
        "                         '--prefix-deg', '42,135', '--out', sys.argv[1]])\n"
        "print(rc, 'fractions' in sys.modules, file=sys.stderr)\n")
    out_path = tmp_path / "plan.json"
    src = os.path.dirname(os.path.dirname(flipforge.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", child, str(out_path)], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stderr == "0 False\n"
    assert json.loads(out_path.read_text())["part_ratio"] == [813, 791]


def test_gaps_plan_valid(tmp_path, capsys):
    out_path = tmp_path / "plan.json"
    rc, out, _ = run(
        capsys, "gaps-plan", "--q", "2", "--k", "9",
        "--prefix-e", "140,135", "--prefix-deg", "42,135", "--out", str(out_path))
    assert rc == 0
    assert "plan valid" in out
    assert "materialization feasible: estimated order 129920 <= limit 200000" in out
    plan = json.loads(out_path.read_text())
    assert plan["t"] == 113
    assert plan["gap_slack"] == 19
    assert plan["part_ratio"] == [813, 791]


def test_gaps_plan_from_br_reports_failure(capsys):
    """The flagship prefix violates the gap condition; the plan is still emitted."""
    rc, out, _ = run(capsys, "gaps-plan", "--q", "2", "--k", "9", "--from-br", "42,135")
    assert rc == 1
    assert "materialization skipped: estimated order 109007360 > limit 200000" in out
    assert "plan invalid: gap condition fails with slack -171" in out
    assert "plan invalid: predicted e chain breaks between colours 2 and 3" in out
    plan = json.loads(out[: out.rindex("}") + 1])
    assert plan["prefix_e"] == [265, 155]
    assert plan["prefix_order"] == 616
    assert plan["t"] == plan["t_min"] == 155


def test_gaps_plan_t_below_minimum(capsys):
    rc, out, _ = run(
        capsys, "gaps-plan", "--q", "2", "--k", "9",
        "--prefix-e", "140,135", "--prefix-deg", "42,135", "--t", "50")
    assert rc == 1
    assert "plan invalid: t=50 below minimum 113" in out


def test_gaps_plan_needs_prefix(capsys):
    rc, _, err = run(capsys, "gaps-plan", "--q", "2", "--k", "9")
    assert rc == 2
    assert "prefix" in err


def test_gaps_plan_materialize_limit_flag(capsys):
    args = ("gaps-plan", "--q", "2", "--k", "9",
            "--prefix-e", "140,135", "--prefix-deg", "42,135")
    rc, out, _ = run(capsys, *args, "--materialize-limit", "1000")
    assert rc == 0
    assert "materialization skipped: estimated order 129920 > limit 1000" in out
    rc, out, _ = run(capsys, *args)
    assert "materialization feasible: estimated order 129920 <= limit 200000" in out


@pytest.mark.parametrize("argv, message", [
    (["search-sumfree", "--group", "z:7", "--mode", "greedy", "--budget", "-1"],
     "budget must be >= 0, got -1"),
    (["search-sumfree", "--group", "z:7", "--mode", "exhaustive", "--budget", "-1"],
     "budget must be >= 0, got -1"),
    (["gaps-plan", "--q", "2", "--k", "9", "--prefix-e", "140,135", "--prefix-deg", "42,135",
      "--materialize-limit", "-1"], "--materialize-limit must be >= 0, got -1"),
    (["gaps-plan", "--q", "2", "--k", "5", "--from-br", "4,5", "--materialize-limit", "-7"],
     "--materialize-limit must be >= 0, got -7"),
])
def test_negative_limit_exits_2(tmp_path, capsys, argv, message):
    """A negative --budget or --materialize-limit is refused in every mode,
    before a plan file is written."""
    out_file = tmp_path / "plan.json"
    if argv[0] == "gaps-plan":
        argv = [*argv, "--out", str(out_file)]
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    assert not out_file.exists()


def test_search_sumfree_command(capsys):
    rc, out, _ = run(capsys, "search-sumfree", "--group", "z:8")
    assert rc == 0
    data = json.loads(out)
    assert data["size"] == 4
    assert data["optimal"] is True
    assert data["subset"] == [[1], [3], [5], [7]]
    rc, out, _ = run(capsys, "search-sumfree", "--group", "z:30", "--mode", "greedy")
    assert rc == 0
    assert json.loads(out)["optimal"] is False
    rc, _, err = run(capsys, "search-sumfree", "--group", "z:30")
    assert rc == 2  # exhaustive mode order cap


@pytest.mark.parametrize("group, order", [("z:25", 25), ("z:1000001", 1000001)])
def test_search_exhaustive_refuses_order_before_listing_atoms(capsys, monkeypatch, group, order):
    """The order cap is checked before the group's elements are enumerated."""
    def refuse(spec):
        raise AssertionError("atoms listed for a group over the exhaustive cap")

    monkeypatch.setattr(analysis, "_atoms", refuse)
    rc, out, err = run(capsys, "search-sumfree", "--group", group)
    assert (rc, out) == (2, "")
    assert err == f"error: exhaustive mode needs group order <= 24, got {order}\n"


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_search_lists_atoms_through_the_patched_name(capsys, monkeypatch, mode):
    """The test above patches analysis._atoms, so that name must be what lists
    the atoms of a group the search accepts."""
    calls = []
    listed = analysis._atoms
    monkeypatch.setattr(analysis, "_atoms", lambda spec: calls.append(spec) or listed(spec))
    rc, out, _ = run(capsys, "search-sumfree", "--group", "z:24", "--mode", mode)
    assert rc == 0 and json.loads(out)["size"] > 0
    assert calls == [parse_group_text("z:24")]


def test_verification_failure_exit_code(tmp_path, capsys, monkeypatch):
    """Internal audit failures surface as exit 1, not a traceback."""
    import flipforge.cli as cli_mod
    from flipforge.pipelines import VerificationError

    def boom(plan):
        raise VerificationError("synthetic audit failure")

    monkeypatch.setattr(cli_mod, "build_br", boom)
    rc, _, err = run(capsys, "construct-br", "--b", "4", "--r", "5")
    assert rc == 1
    assert "verification failure: synthetic audit failure" in err


# ------------------------------------------------------ input contract fuzzing

SMALL_INT = st.integers(-2, 9)
JSON_SCALAR = (st.none() | st.booleans() | SMALL_INT | st.sampled_from([10**12, 2**63, -(10**9)])
               | st.floats() | st.text(max_size=3))
JSON_VALUE = st.recursive(
    JSON_SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


def corrupt(draw, doc, items):
    """Leave a well-formed document alone about half the time; otherwise drop
    or replace one field, or add a junk entry to one of its lists ``items``."""
    how = draw(st.sampled_from(["none", "none", "none", "drop", "field", "item"]))
    key = draw(st.sampled_from(sorted(doc)))
    if how == "drop":
        del doc[key]
    elif how == "field":
        doc[key] = draw(JSON_VALUE)
    elif how == "item":
        entries = draw(st.sampled_from(items))
        entries.insert(draw(st.integers(0, len(entries))),
                       draw(JSON_VALUE | st.lists(SMALL_INT, min_size=1, max_size=3)))
    return doc


def as_file_text(draw, doc):
    """A document as JSON text, or now and then raw text that may not be JSON."""
    if draw(st.sampled_from(["json"] * 9 + ["raw"])) == "raw":
        return draw(st.text(max_size=12))
    return json.dumps(doc)


@st.composite
def graph_files(draw):
    n = draw(st.integers(0, 8))
    k = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rows = [[u, v, draw(st.integers(1, k))]
            for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
            ] if pairs else []
    return as_file_text(draw, corrupt(draw, {"vertices": n, "colours": k, "edges": rows}, [rows]))


@st.composite
def connecting_set_files(draw):
    """Two connecting sets over one small group, with colours 1-2 and 3-4,
    each class a union of inverse pairs, then each possibly corrupted."""
    text = draw(st.sampled_from(["z:7", "z:8", "z:2,4", "z2xz:3"]))
    spec = parse_group_text(text)
    owner = {}
    for x in spec.elements():
        if x != (0,) * len(spec.factors):
            owner.setdefault(min(x, tuple(-y % n for y, n in zip(x, spec.factors))),
                             draw(st.integers(0, 4)))
    texts = []
    for colours in ((1, 2), (3, 4)):
        classes = {str(c): [] for c in colours}
        for x, c in owner.items():
            minus_x = tuple(-y % n for y, n in zip(x, spec.factors))
            if str(c) in classes:
                classes[str(c)] += [list(x), list(minus_x)] if x != minus_x else [list(x)]
        doc = {"group": text, "classes": classes}
        if draw(st.booleans()):
            doc["colour_count"] = draw(st.integers(1, 5))
        texts.append(as_file_text(draw, corrupt(draw, doc, list(classes.values()))))
    return texts


def run_on_files(argv, texts):
    """``main`` on files holding the given texts, with its exit code and output.

    Files go to a temporary directory of their own, since pytest's per-test
    fixtures are shared by every Hypothesis example."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            path = os.path.join(tmp, f"in{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            paths.append(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([a.format(*paths) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def parsed_or_none(text, parse):
    """``parse`` applied to the JSON object in text, or None where either step fails."""
    try:
        data = json.loads(text)
        return parse(data) if isinstance(data, dict) else None
    except ValueError:
        return None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graph_files())
def test_verify_input_contract(text):
    """Exit 2 exactly when the file is not a graph, else 0 or 1 by the verdict;
    never an exception."""
    rc, out, err = run_on_files(["verify", "--in", "{0}"], [text])
    graph = parsed_or_none(text, EdgeColouredGraph.from_json_dict)
    if graph is None:
        assert rc == 2 and out == "" and err.startswith("error:"), (rc, err)
    else:
        assert rc == (0 if verify_flip(graph).passed else 1), (rc, err)
        assert err == ""
        assert json.loads(out)["verdict"] == ("pass" if rc == 0 else "fail")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(connecting_set_files())
def test_pack_input_contract(texts):
    """Exit 2 exactly when either file is not a connecting set or the two do
    not pack, else 0 with the packed graph; never exit 1 or an exception."""
    rc, out, err = run_on_files(["pack", "--first", "{0}", "--second", "{1}"], texts)
    a, b = (parsed_or_none(t, ColouredConnectingSet.from_json_dict) for t in texts)
    try:
        packed = None if a is None or b is None else cayley_build(merge_connecting_sets(a, b))
    except ValueError:
        packed = None
    if packed is None:
        assert rc == 2 and out == "" and err.startswith("error:"), (rc, err)
    else:
        assert rc == 0 and err == "", (rc, err)
        assert EdgeColouredGraph.from_json(out) == packed


# -------------------------------------------------------- argv contract fuzzing

NON_ASCII_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
# Texts int() would read but the integer rule refuses, drawn for every valued flag.
ODD_TOKENS = st.sampled_from(["z:1_2", "z:\u0667", "z2xz:\u00b2", "1_0=1;6"])


def mangled(token):
    """``token`` padded, with a sign on its first number, underscored, with
    non-ASCII digits or with its first number made huge."""
    def first_number(replacement):
        return re.sub(r"[0-9]+", replacement, token, count=1)
    return st.sampled_from([
        f" {token} ", first_number(r"+\g<0>"), first_number(r"-\g<0>"),
        re.sub(r"([0-9])([0-9])", r"\1_\2", token, count=1), token.translate(NON_ASCII_DIGITS),
        first_number("9" * 20)])


def emptied(token):
    """``token`` with an empty part, its outermost separator doubled or
    appended (``1||2``, ``1=1;6;``), or empty."""
    separator = next((sep for sep in "|;," if sep in token), ",")
    return st.sampled_from([token.replace(separator, separator * 2, 1), token + separator, ""])


def values(valid):
    """A flag's value: a valid one four times in seven, else a valid one
    mangled or emptied, or an odd token."""
    return st.integers(0, 6).flatmap(
        lambda i: valid if i < 4 else valid.flatmap(mangled) if i == 4
        else valid.flatmap(emptied) if i == 5 else ODD_TOKENS)


def ints(lo, hi):
    return values(st.integers(lo, hi).map(str))


def int_lists(lo, hi, order=None):
    """One to three integers, comma-separated, sorted when ``order`` says so."""
    lists = st.lists(st.integers(lo, hi), min_size=1, max_size=3, unique=order is not None)
    return lists.map(lambda xs: ",".join(map(str, sorted(xs, reverse=order == "down") if order else xs)))


def inverse_pairs(element):
    """Elements followed by their negatives, so a class is inverse-closed in any group."""
    return st.lists(element, min_size=1, max_size=2).map(
        lambda xs: ";".join(f"{x};{'-' + x.replace(',', ',-')}" for x in xs))


CYCLIC_CLASSES = st.builds("{}={}".format, st.integers(1, 3), inverse_pairs(st.integers(1, 5).map(str)))
PAIR_CLASSES = st.builds("{}={}".format, st.integers(1, 3), inverse_pairs(
    st.tuples(st.integers(0, 1), st.integers(1, 3)).map("{0[0]},{0[1]}".format)))
PARTITIONS = st.sampled_from(["1,2", "1|2", "2|1", "1,2,3", "1|2,3", "3|1,2"])
# File flags draw a good file most of the time, else a bad, missing or empty path.
BAD_FILES = ["{dir}/junk.json", "{dir}/missing.json", ""]
GRAPH_IN = st.sampled_from(["{dir}/c4.json", "{dir}/z7.json", "{dir}/three-colours.json"] * 2 + BAD_FILES)
OUT = st.sampled_from(["{dir}/out"] * 4 + ["-", ""])


def set_files(good):
    return st.sampled_from([f"{{dir}}/{good}"] * 4 + ["{dir}/key-1_0.json"] + BAD_FILES)


def cayley_flags(groups, classes):
    return [("--group", values(st.sampled_from(groups)), True), ("--class", values(classes), True),
            ("--class", values(classes), False), ("--colours", ints(1, 4), False),
            ("--out", OUT, False), ("--dot", OUT, False)]


FROM_BR = st.builds("{},{}".format, st.integers(10, 12), st.integers(13, 17))
PREFIX_E = int_lists(20, 300, "down")
PREFIX_DEG = int_lists(1, 20, "up")


def empty_or(valid):
    """An empty value half the time, else ``values(valid)``."""
    return st.just("") | values(valid)


GAPS_PLAN_FLAGS = [("--k", ints(4, 14), True), ("--t", ints(1, 5), False),
                   ("--materialize-limit", ints(0, 10**6), False), ("--out", OUT, False)]

# Every flag of every command: (flag, values or None for a switch, required).
# A command whose flags depend on each other appears once per consistent choice.
COMMAND_FLAGS = [
    ("construct-br", [("--b", ints(10, 12), True), ("--r", ints(11, 17), True),
                      ("--out", OUT, False), ("--plan-out", OUT, False), ("--dot", OUT, False),
                      ("--verify", None, False)]),
    ("verify", [("--in", GRAPH_IN, True), ("--sequence", values(int_lists(0, 6)), False)]),
    ("product", [("--kind", values(st.sampled_from(["strong", "cartesian"])), True),
                 ("--left", GRAPH_IN, True), ("--right", GRAPH_IN, True),
                 ("--out", OUT, False), ("--dot", OUT, False)]),
    ("cayley", cayley_flags(["z:7", "z:12"], CYCLIC_CLASSES)),
    ("cayley", cayley_flags(["z:2,4", "z2xz:3"], PAIR_CLASSES)),
    ("pack", [("--first", set_files("blue.json"), True), ("--second", set_files("red.json"), True),
              ("--out", OUT, False), ("--dot", OUT, False)]),
    ("merge", [("--in", GRAPH_IN, True), ("--partition", values(PARTITIONS), True),
               ("--out", OUT, False), ("--dot", OUT, False)]),
    ("bounds", [("--b", values(int_lists(3, 20)), True), ("--format", values(st.just("csv")), False),
                ("--out", OUT, False)]),
    ("gaps-plan", [("--q", ints(2, 3), True), ("--from-br", values(FROM_BR), True), *GAPS_PLAN_FLAGS]),
    ("gaps-plan", [("--q", ints(1, 3), True), ("--prefix-e", values(PREFIX_E), True),
                   ("--prefix-deg", values(PREFIX_DEG), True), *GAPS_PLAN_FLAGS]),
    # Both prefix sources, often empty: an empty --from-br still excludes the vectors.
    ("gaps-plan", [("--q", ints(2, 3), True), ("--from-br", empty_or(FROM_BR), True),
                   ("--prefix-e", empty_or(PREFIX_E), False), ("--prefix-deg", empty_or(PREFIX_DEG), False),
                   *GAPS_PLAN_FLAGS]),
    ("search-sumfree", [("--group", values(st.sampled_from(["z:7", "z:12", "z:2,4", "z2xz:3"])), True),
                        ("--mode", values(st.sampled_from(["exhaustive", "greedy"])), False),
                        ("--budget", ints(0, 10**4), False)]),
]


@st.composite
def command_lines(draw):
    """A command and its flags: a required flag is left out one time in eight,
    an optional one half the time."""
    command, flags = draw(st.sampled_from(COMMAND_FLAGS))
    argv = [command]
    for flag, value, required in flags:
        if draw(st.integers(0, 7)) < (7 if required else 4):
            argv += [flag] if value is None else [flag, draw(value)]
    return argv


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    """The input files that command lines name, shared by every example."""
    path = tmp_path_factory.mktemp("argv")
    main(["cayley", "--group", "z:7", "--class", "1=1;6", "--class", "2=2;5",
          "--out", str(path / "z7.json")])
    for name, text in [
        ("c4.json", C4_JSON),
        ("three-colours.json", json.dumps({"vertices": 2, "colours": 3, "edges": [[0, 1, 3]]})),
        ("junk.json", "not JSON"),
        ("blue.json", json.dumps({"group": "z:7", "colour_count": 2, "classes": {"1": [[1], [6]]}})),
        ("red.json", json.dumps({"group": "z:7", "colour_count": 2, "classes": {"2": [[2], [5]]}})),
        ("key-1_0.json", json.dumps({"group": "z:7", "classes": {"1_0": [[3], [4]]}})),
    ]:
        (path / name).write_text(text)
    return str(path)


def redirected_main(argv):
    """Exit code, stdout, stderr and whether argparse exited, for ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
            by_argparse = False
        except SystemExit as exc:
            rc, by_argparse = exc.code, True
    return rc, out.getvalue(), err.getvalue(), by_argparse


@settings(derandomize=True, deadline=None, max_examples=400)
@given(argv=command_lines())
@example(argv=["search-sumfree", "--group", "z:7", "--mode", "greedy", "--budget", "-1"])
@example(argv=["gaps-plan", "--q", "2", "--prefix-e", "200,100", "--prefix-deg", "4,5",
               "--k", "5", "--materialize-limit", "-1"])
def test_argv_contract(argv_dir, argv):
    """Any command line gives exit 0, 1 or 2, never another exception; an exit
    2 names its problem on stderr, from main or from argparse, and leaves
    stdout empty, also when it fails on a path after a graph or plan bound
    for stdout ('-' or no --out); an exit 0 or 1 read no underscored or
    non-ASCII number, no empty value, no empty list part and no negative
    --budget or --materialize-limit. The drawn values are rarely negative, so
    the two examples pin a negative limit on each.

    Valid values come from ranges that keep every graph small (at most a few
    hundred vertices), so each example is cheap. That hides no rejected value:
    each flag also draws its values padded, signed, underscored, with non-ASCII
    digits, huge, with an empty part and empty, and the odd tokens above."""
    argv = [arg.replace("{dir}", argv_dir) for arg in argv]
    rc, out, err, by_argparse = redirected_main(argv)
    assert rc in (0, 1, 2), (argv, rc, err)
    assert rc != 2 or out == "", (argv, out[:200])
    if by_argparse:
        assert rc == 2 and re.search(r"^flipforge.*: error: \S", err, re.M), (argv, err)
    elif rc == 2:
        assert re.fullmatch(r"error: \S[^\n]*\n", err), (argv, err)
    else:
        assert rc == 1 or err == "", (argv, err)
        # Nothing outside the integer rule was read as a number.
        texts = [arg for arg in argv if not arg.startswith(argv_dir)]
        assert not re.search(r"[0-9]_[0-9]|[^\x00-\x7f]", " ".join(texts)), argv
        # Nor was an empty value or list part skipped or read as absent.
        assert all(part.strip() for arg in texts for part in re.split(r"[|;,=]", arg)), argv
        # Nor was a negative limit read as a limit.
        assert all(int(value) >= 0 for flag, value in zip(argv, argv[1:])
                   if flag in ("--budget", "--materialize-limit")), argv


# Tokens that a subcommand's parser leaves over, or reads as help or '--'.
TAILS = st.lists(st.sampled_from(["x", "--", "--extra", "--he", "-h", "--b=4", "--out"]), max_size=2)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(argv=command_lines(), tail=TAILS)
def test_argv_parses_as_the_full_tree_does(argv_dir, argv, tail):
    """Any command line, with or without tokens left over, gives the exit
    code, stdout and stderr that parsing it with all nine subcommands gives."""
    argv = [arg.replace("{dir}", argv_dir) for arg in argv + tail]
    mine = redirected_main(argv)
    with unittest.mock.patch.object(cli, "_parse_args", full_tree):
        assert redirected_main(argv) == mine, argv
