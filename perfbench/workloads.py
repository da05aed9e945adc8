"""The benchmark's workloads: inputs from a seed, the timed operation, the checks.

A workload runs once per fresh interpreter (see ``worker.py``), because
command-line users pay the cold start on every call. ``inputs`` is the
set-up, ``run`` is the timed operation, and ``check`` runs afterwards,
outside the timed region. ``check`` compares a summary of the outputs
(exit codes, verdicts, digests) with ``reference.json`` and re-checks a
seeded sample of vertices of every materialised graph with the independent
edge-scan oracle ``profile_by_edge_scan``; it returns the problems found.

Functions are always looked up on their module at call time, so the traced
run's patches apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from pathlib import Path

import flipforge.cli as cli
import flipforge.ecgraph as ecgraph
import flipforge.pipelines as pipelines

REFERENCE_PATH = Path(__file__).with_name("reference.json")
ORACLE_SAMPLE = 4  # random vertices per graph, besides vertex 0

# The benchmark's one call into a private name. The relaxed plan (q = 2 with
# k = 5 breaks 1 < q < k/4) is only reachable through it; ROADMAP item 4
# plans a public replacement for this entry point.
RELAXED_PLAN_ENTRY = "_make_gaps_plan"


def relaxed_gaps_plan(q, k, prefix_e, prefix_deg, t, prefix_order):
    return getattr(pipelines, RELAXED_PLAN_ENTRY)(
        q, k, prefix_e, prefix_deg, t, prefix_order, enforce=False)


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def cli_call(argv: list) -> tuple[int, str]:
    """Run ``flipforge`` in-process; return its exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def profile_at(graph, v: int) -> list:
    p = graph.profile_by_edge_scan(v)
    return [list(p.deg), list(p.e_closed)]


def oracle_problems(label: str, graph, expected: list, rng: random.Random) -> list[str]:
    """Every vertex of these graphs has one profile: re-check a sample by edge scan."""
    n = graph.vertex_count
    sample = sorted(rng.sample(range(n), min(ORACLE_SAMPLE, n)))
    return [f"{label}: oracle profile at vertex {v} is {got}, expected {expected}"
            for v in sample if (got := profile_at(graph, v)) != expected]


def diff(got, expected, path: str = "") -> list[str]:
    if isinstance(got, dict) and isinstance(expected, dict):
        out = []
        for key in sorted(set(got) | set(expected)):
            out += diff(got.get(key), expected.get(key), f"{path}.{key}" if path else key)
        return out
    if got != expected:
        return [f"{path}: got {str(got)[:120]}, expected {str(expected)[:120]}"]
    return []


class Workload:
    name = ""

    def __init__(self, expected=None):
        if expected is None:
            expected = json.loads(REFERENCE_PATH.read_text())[self.name]
        self.expected = expected

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def run(self, inp: dict, workdir: Path) -> dict:
        raise NotImplementedError

    def graphs(self, out: dict) -> dict:
        """Every graph the operation materialised, by label."""
        return {}

    def summary(self, out: dict, graphs: dict) -> dict:
        """Seed-independent facts about the outputs, compared with the reference."""
        raise NotImplementedError

    def extra_problems(self, inp: dict, out: dict) -> list[str]:
        return []

    def byte_counts(self, out: dict) -> dict[str, int]:
        """Bytes of graph JSON written and read, and bytes the CLI wrote."""
        return {"ecgraph.json.bytes": 0, "cli.bytes_out": 0}

    def check(self, inp: dict, out: dict) -> tuple[list[str], str]:
        """Problems found (empty when correct) and a digest of the output summary."""
        graphs = self.graphs(out)
        observed = json.loads(json.dumps(self.summary(out, graphs)))
        problems = diff(observed, self.expected) + self.extra_problems(inp, out)
        rng = random.Random(inp["seed"])
        for label, graph in graphs.items():
            problems += oracle_problems(label, graph, self.expected["profiles"][label], rng)
        return problems, sha256(json.dumps(observed, sort_keys=True))


class BrFlagship(Workload):
    """``construct-br --verify --out F`` then ``verify --in F``: the paper's flagship prefix."""

    name = "br-flagship"

    def __init__(self, b: int = 42, r: int = 135, expected=None):
        self.b, self.r = b, r
        super().__init__(expected)

    def inputs(self, seed):
        return {"seed": seed, "b": self.b, "r": self.r, "file": f"flagship-{seed}.json"}

    def run(self, inp, workdir):
        path = workdir / inp["file"]
        b, r = inp["b"], inp["r"]
        built = cli_call(["construct-br", "--b", b, "--r", r, "--verify", "--out", path])
        checked = cli_call(["verify", "--in", path, "--sequence", f"{b},{r}"])
        return {"calls": [built, checked], "path": path}

    def graphs(self, out):
        return {"graph": ecgraph.EdgeColouredGraph.from_json(out["path"].read_text())}

    def summary(self, out, graphs):
        (code1, text1), (code2, text2) = out["calls"]
        graph = graphs["graph"]
        return {
            "exit_codes": [code1, code2],
            "construct_stdout": text1,
            "verify_stdout": text2,
            "graph_sha256": sha256(out["path"].read_bytes()),
            "vertices": graph.vertex_count,
            "edges": len(graph.edges),
            "profiles": {"graph": profile_at(graph, 0)},
        }

    def byte_counts(self, out):
        size = out["path"].stat().st_size
        stdout = sum(len(text.encode()) for _, text in out["calls"])
        return {"ecgraph.json.bytes": 2 * size, "cli.bytes_out": size + stdout}


class Amplify(Workload):
    """The (b, r) prefix, the relaxed plan (q, k, t), then a materialised ``build_gaps``."""

    name = "amplify"

    def __init__(self, b: int = 4, r: int = 5, q: int = 2, k: int = 5, t: int = 1,
                 expected=None):
        self.params = {"b": b, "r": r, "q": q, "k": k, "t": t}
        super().__init__(expected)

    def inputs(self, seed):
        return {"seed": seed, **self.params}

    def run(self, inp, workdir):
        prefix, report = pipelines.build_br(pipelines.plan_br(inp["b"], inp["r"]))
        plan = relaxed_gaps_plan(inp["q"], inp["k"], report.uniform_e_chain,
                                 report.colour_degrees, inp["t"], prefix.vertex_count)
        return {"prefix": prefix, "plan": plan, "result": pipelines.build_gaps(plan, prefix)}

    def graphs(self, out):
        """The layer is row 0 of the Cartesian core."""
        prefix, core = out["prefix"], out["result"].core
        n = core.vertex_count // prefix.vertex_count
        layer = ecgraph.EdgeColouredGraph(
            n, core.colour_count, [e for e in core.edges if e[1] < n])
        return {"prefix": prefix, "layer": layer, "core": core, "amplified": out["result"].graph}

    def summary(self, out, graphs):
        plan, result = out["plan"], out["result"]
        report = result.flip_report
        graph = result.graph
        return {
            "materialized": result.materialized,
            "g_order": result.g_order,
            "edges": None if graph is None else len(graph.edges),
            "deg_at_t": list(plan.deg_at_t),
            "e_at_t": list(plan.e_at_t),
            "uniform_e_chain": None if report is None else list(report.uniform_e_chain or []),
            "verdict": None if report is None else report.verdict,
            "violations": None if report is None else dict(Counter(r for _, r in report.violations)),
            "plan_sha256": sha256(json.dumps(plan.to_json_dict(), sort_keys=True)),
            "graph_sha256": {k: sha256(json.dumps(g.edges)) for k, g in graphs.items()},
            "profiles": {k: profile_at(g, 0) for k, g in graphs.items()},
        }

    def extra_problems(self, inp, out):
        plan, report = out["plan"], out["result"].flip_report
        if list(report.uniform_e_chain or []) != list(plan.e_at_t):
            return [f"verified e-chain {report.uniform_e_chain} != plan {plan.e_at_t}"]
        return []


def abelian_groups(max_order: int) -> list[tuple[int, ...]]:
    """One representative per isomorphism class: invariant factors n1 | n2 | ... ."""
    out = []

    def extend(prefix: tuple, order: int) -> None:
        if prefix:
            out.append(prefix)
        last = prefix[-1] if prefix else 1
        m = max(2, last)
        while order * m <= max_order:
            if m % last == 0:
                extend(prefix + (m,), order * m)
            m += 1
    extend((), 1)
    return out


def _sum_free_inverse_closed(factors: tuple, members: list) -> bool:
    """Independent of flipforge: residue arithmetic on the subset as printed."""
    s = {tuple(x) for x in members}
    neg = {tuple(-a % n for a, n in zip(x, factors)) for x in s}
    sums = {tuple((a + b) % n for a, b, n in zip(x, y, factors)) for x in s for y in s}
    return neg == s and not (sums & s)


class PlanSearch(Workload):
    """``gaps-plan`` at large k, exhaustive ``search-sumfree`` on small groups, ``bounds``."""

    name = "plan-search"

    def __init__(self, k: int = 700, prefix_e: str = "5000,4000", prefix_deg: str = "100,200",
                 max_order: int = 24, b_max: int = 60, expected=None):
        self.k, self.prefix_e, self.prefix_deg = k, prefix_e, prefix_deg
        self.max_order, self.b_max = max_order, b_max
        super().__init__(expected)

    def inputs(self, seed):
        groups = ["z:" + ",".join(map(str, g)) for g in abelian_groups(self.max_order)]
        random.Random(seed).shuffle(groups)  # same total cost in any order
        return {"seed": seed, "groups": groups, "file": f"plan-{seed}.json",
                "b": ",".join(str(b) for b in range(3, self.b_max + 1))}

    def run(self, inp, workdir):
        path = workdir / inp["file"]
        plan = cli_call(["gaps-plan", "--q", 2, "--k", self.k, "--prefix-e", self.prefix_e,
                         "--prefix-deg", self.prefix_deg, "--out", path])
        searches = {g: cli_call(["search-sumfree", "--group", g, "--mode", "exhaustive"])
                    for g in inp["groups"]}
        bounds = cli_call(["bounds", "--b", inp["b"]])
        return {"plan": plan, "path": path, "searches": searches, "bounds": bounds}

    def summary(self, out, graphs):
        searches = {}
        for group in sorted(out["searches"]):
            code, text = out["searches"][group]
            result = json.loads(text) if code == 0 else {}
            searches[group] = {"exit": code, "size": result.get("size"),
                               "examined": result.get("examined"), "sha256": sha256(text)}
        code, text = out["bounds"]
        return {
            "plan_exit": out["plan"][0],
            "plan_stdout": out["plan"][1],
            "plan_sha256": sha256(out["path"].read_bytes()),
            "search": searches,
            "examined_total": sum(s["examined"] or 0 for s in searches.values()),
            "bounds_exit": code,
            "bounds_rows": text.count("\n") - 1,
            "bounds_sha256": sha256(text),
        }

    def extra_problems(self, inp, out):
        problems = []
        plan = json.loads(out["path"].read_text())
        deg, e = plan["deg_at_t"], plan["e_at_t"]
        if not (all(x < y for x, y in zip(deg, deg[1:])) and all(x > y for x, y in zip(e, e[1:]))
                and plan["gap_slack"] > 0 and plan["t"] >= plan["t_min"]):
            problems.append("plan JSON breaks a validity invariant")
        for group, (code, text) in out["searches"].items():
            factors = tuple(int(n) for n in group[2:].split(","))
            if code != 0 or not _sum_free_inverse_closed(factors, json.loads(text)["subset"]):
                problems.append(f"{group}: search result is not sum-free and inverse-closed")
        return problems

    def byte_counts(self, out):
        texts = [out["plan"][1], out["bounds"][1]] + [t for _, t in out["searches"].values()]
        return {"ecgraph.json.bytes": 0,
                "cli.bytes_out": out["path"].stat().st_size + sum(len(t.encode()) for t in texts)}


WORKLOADS = {w.name: w for w in (BrFlagship, Amplify, PlanSearch)}
