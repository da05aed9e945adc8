"""Tests of the benchmark's own logic: self-time arithmetic, a tracer that
changes no output, and corrupted outputs counted as failed operations."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import flipforge  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

EXTRA = {"pipelines": (workloads.RELAXED_PLAN_ENTRY,)}


def test_self_time_of_nested_spans():
    ticks = iter([0, 10, 20, 30, 60, 70, 80, 100])
    t = tr.Tracer(clock=lambda: next(ticks))
    t.enter("op")
    t.enter("a.f")
    t.enter("b.g", span=False)
    t.exit()
    t.exit()
    t.enter("a.h")
    t.exit()
    t.exit()
    assert t.stats == {"b.g": [1, 10, 10], "a.f": [1, 50, 40], "a.h": [1, 10, 10],
                       "op": [1, 100, 40]}
    assert sum(s[2] for s in t.stats.values()) == 100
    assert t.module_self_s("a") == 50 / 1e9
    # b.g keeps no span; the others name their enclosing span as parent.
    assert sorted(t.spans) == [(0, "op", 0, 100, None), (1, "a.f", 10, 60, 0),
                               (2, "a.h", 70, 80, 0)]


def _bindings():
    modules = [flipforge] + [getattr(flipforge, m) for m in tr.MODULES]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_tracer_changes_no_output_and_restores_bindings(tmp_path):
    argvs = [
        ["construct-br", "--b", "4", "--r", "5", "--verify", "--out", "-"],
        ["cayley", "--group", "z:7", "--class", "1=1;6", "--class", "2=2;5"],
        ["gaps-plan", "--q", "2", "--k", "40", "--prefix-e", "140,135", "--prefix-deg", "42,135"],
        ["search-sumfree", "--group", "z:2,4"],
        ["bounds", "--b", "4,5"],
    ]
    amplify = workloads.Amplify(k=4, expected={})
    inp = amplify.inputs(0)
    before = _bindings()
    plain = [workloads.cli_call(a) for a in argvs]
    plain_amp = amplify.run(inp, tmp_path)

    t = tr.Tracer()
    undo = tr.install(t, flipforge, EXTRA)
    try:
        t.enter("op")
        traced = [workloads.cli_call(a) for a in argvs]
        traced_amp = amplify.run(inp, tmp_path)
        t.exit()
    finally:
        tr.uninstall(undo)

    assert traced == plain
    assert (amplify.summary(traced_amp, amplify.graphs(traced_amp))
            == amplify.summary(plain_amp, amplify.graphs(plain_amp)))
    assert _bindings() == before
    assert t.calls("cli.main") == len(argvs)
    # cli binds cayley_build by name; construct-br reaches it inside construct.
    assert t.calls("construct.cayley_build") >= 3
    assert t.calls("pipelines._make_gaps_plan") == 2

    m = tr.layer_metrics(t, "op")
    layers = sum(m[f"{mod}.self_s"] for mod in tr.MODULES)
    assert abs(layers + m["trace.unattributed_s"] - m["trace.wall_s"]) < 1e-9
    assert 0 < m["ecgraph.profile.useful_ratio"] < 1
    assert m["analysis.search.examined"] == json.loads(plain[3][1])["examined"]


def test_corrupted_output_is_a_failed_operation(tmp_path):
    w = workloads.BrFlagship(b=4, r=5, expected={})
    inp = w.inputs(3)
    out = w.run(inp, tmp_path)
    w.expected = json.loads(json.dumps(w.summary(out, w.graphs(out))))
    problems, digest = w.check(inp, out)
    assert problems == []
    good = ("plain", {"digest": digest, "problems": problems}, problems)
    assert run.tally([good, good]) == (0, [])

    reference = w.expected["graph_sha256"]
    w.expected["graph_sha256"] = "0" * 64
    problems, _ = w.check(inp, out)
    assert problems and run.tally([good, ("plain", {"digest": digest}, problems)])[0] == 1
    w.expected["graph_sha256"] = reference

    data = json.loads(out["path"].read_text())
    u, v, c = data["edges"][0]
    data["edges"][0] = [u, v, 3 - c]
    out["path"].write_text(json.dumps(data))
    problems, changed = w.check(inp, out)
    assert any(p.startswith("graph_sha256") for p in problems)
    assert changed != digest
    failed, _ = run.tally([good, ("plain", {"digest": changed}, problems)])
    assert failed == 1


def test_a_differing_digest_alone_fails_the_operation():
    ops = [("plain", {"digest": "a"}, []), ("traced", {"digest": "b"}, [])]
    assert run.tally(ops) == (1, ["traced: output differs from the first operation's output"])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    produced = set(tr.layer_metrics(tr.Tracer(), "op")) | {"trace.overhead_ratio"}
    produced |= set(workloads.Workload(expected={}).byte_counts({}))
    assert {m["name"] for m in spec["per_layer"]} <= produced
