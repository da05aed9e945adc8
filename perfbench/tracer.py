"""Outside-in tracer for the traced benchmark run.

The tracer patches flipforge's functions from the outside: every public
function and method of the package's modules (plus the few names listed in
``extra``) is replaced by a timing wrapper at every module binding that holds
it, so ``cli`` and ``pipelines`` calling ``cayley_build`` through their own
imported names are traced too. Nothing inside ``src/flipforge`` changes.

Each call is a frame on one stack. When a frame ends, its duration is added
to its parent's child time, so a function's self time is its duration minus
the time its traced callees took, and the self times of all frames under a
root add up exactly to the root's duration. Inclusive time assumes a traced
function does not call itself; none in flipforge does.

Functions called per element, per subset or per vertex are counted and timed
in aggregate only. Every other call also keeps a span (id, name, start, end,
parent id) in memory, to be written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time

MODULES = ("group", "setalg", "ecgraph", "construct", "pipelines", "analysis", "cli")

# Layers whose functions run per element or per subset: aggregate only.
HOT_MODULES = {"group", "setalg"}
# Per-vertex and per-row functions in the other layers: aggregate only.
HOT_NAMES = {
    "ecgraph.EdgeColouredGraph.vertex_profile",
    "ecgraph.EdgeColouredGraph.profile_by_edge_scan",
    "ecgraph.EdgeColouredGraph.degree_vector",
    "ecgraph.EdgeColouredGraph.neighbours",
    "ecgraph.EdgeColouredGraph.closed_neighbourhood",
    "ecgraph.EdgeColouredGraph.count_coloured_edges",
    "ecgraph.EdgeColouredGraph.edge_colour",
    "construct.product_vertex",
    "analysis.old_bound",
    "analysis.new_bound",
    "analysis.new_bound_cap",
    "analysis.parity_factor",
    "analysis.check_br_range",
}
# Dunder methods are left alone except graph construction, a layer of its own.
TRACED_DUNDERS = {"EdgeColouredGraph.__init__"}

PROFILE = "ecgraph.EdgeColouredGraph.vertex_profile"


class Tracer:
    """Stack of open frames plus per-function call counts, inclusive and self time."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list[list] = []  # [name, start_ns, child_ns, span_id, parent_span_id]
        self.open_spans: list[int] = []
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id)
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.profiled: dict[int, object] = {}  # id -> graph, kept alive so ids stay unique
        self.profiled_pairs: set[tuple[int, int]] = set()
        self._next_span = 0

    def enter(self, name: str, span: bool = True) -> None:
        parent = self.open_spans[-1] if self.open_spans else None
        sid = None
        if span:
            sid = self._next_span
            self._next_span += 1
            self.open_spans.append(sid)
        self.stack.append([name, self.clock(), 0, sid, parent])

    def exit(self) -> None:
        end = self.clock()
        name, start, child, sid, parent = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if sid is not None:
            self.open_spans.pop()
            self.spans.append((sid, name, start, end, parent))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def total_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(s[2] for n, s in self.stats.items() if n.startswith(prefix)) / 1e9

    def caller(self) -> str:
        """Name of the innermost open frame, or '' outside any frame."""
        return self.stack[-1][0] if self.stack else ""


def _observe_profile(tracer: Tracer, args, result) -> None:
    graph, vertex = args[0], args[1]
    tracer.profiled.setdefault(id(graph), graph)
    tracer.profiled_pairs.add((id(graph), vertex))
    if tracer.caller().startswith("pipelines."):
        tracer.count("pipelines.audit.vertices")


def _edges_of_result(counter: str):
    def observe(tracer: Tracer, args, result) -> None:
        tracer.count(counter, len(result.edges))
    return observe


OBSERVERS = {
    PROFILE: _observe_profile,
    "ecgraph.EdgeColouredGraph.__init__":
        lambda t, args, result: t.count("ecgraph.build.edges", len(args[0].edges)),
    "construct.cayley_build": _edges_of_result("construct.cayley.edges"),
    "construct.strong_product": _edges_of_result("construct.product.edges"),
    "construct.cartesian_product": _edges_of_result("construct.product.edges"),
    "analysis.verify_flip":
        lambda t, args, result: t.count("analysis.verify.vertices", args[0].vertex_count),
    "analysis.search_sumfree_inverse_closed":
        lambda t, args, result: t.count("analysis.search.examined", result.examined),
}


def _wrap(tracer: Tracer, name: str, fn):
    span = name.split(".", 1)[0] not in HOT_MODULES and name not in HOT_NAMES
    enter, exit_ = tracer.enter, tracer.exit
    if inspect.isgeneratorfunction(fn):
        items = name + ".items"

        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            # Each step is a frame, so enumeration time lands in this function.
            it = fn(*args, **kwargs)
            while True:
                enter(name, span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_()
                tracer.count(items)
                yield item
        return generator_wrapper

    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name, span)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if observe is not None:
            observe(tracer, args, result)
        return result
    return wrapper


def _targets(package, extra: dict[str, tuple[str, ...]]):
    """(holder, attribute, raw value, function, traced name) for every function to wrap."""
    out = []
    for short in MODULES:
        module = getattr(package, short)
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__ and (
                    not attr.startswith("_") or attr in extra.get(short, ())):
                out.append((module, attr, value, value, f"{short}.{attr}"))
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for method, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    qual = f"{attr}.{method}"
                    if inspect.isfunction(fn) and (
                            not method.startswith("_") or qual in TRACED_DUNDERS):
                        out.append((value, method, raw, fn, f"{short}.{qual}"))
    return out


def install(tracer: Tracer, package, extra: dict[str, tuple[str, ...]]):
    """Patch every target, plus the private names in ``extra`` (module -> names),
    at every module binding; return the undo list for ``uninstall``."""
    wrappers: dict[int, object] = {}
    undo = []
    for holder, attr, raw, fn, name in _targets(package, extra):
        wrapper = _wrap(tracer, name, fn)
        wrappers[id(fn)] = wrapper
        setattr(holder, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
        undo.append((holder, attr, raw))
    # Modules that imported a function by name hold their own binding of it.
    for module in [package] + [getattr(package, m) for m in MODULES]:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and inspect.isfunction(value):
                setattr(module, attr, wrapper)
                undo.append((module, attr, value))
    return undo


def uninstall(undo) -> None:
    for holder, attr, raw in reversed(undo):
        setattr(holder, attr, raw)


def layer_metrics(tracer: Tracer, root: str) -> dict[str, float]:
    """Per-layer metrics of one traced operation whose outermost frame is ``root``."""
    g = "ecgraph.EdgeColouredGraph."
    calls = tracer.calls(PROFILE)
    group_ops = [f"group.GroupSpec.{m}" for m in ("element", "add", "neg", "sub")]
    metrics = {
        "ecgraph.profile_s": tracer.total_s(PROFILE),
        "ecgraph.profile.calls": calls,
        "ecgraph.profile.useful_ratio": len(tracer.profiled_pairs) / calls if calls else 0.0,
        "ecgraph.build_s": tracer.total_s(g + "__init__"),
        "ecgraph.build.edges": tracer.counts.get("ecgraph.build.edges", 0),
        "ecgraph.degree_s": tracer.total_s(g + "degree_vector"),
        # Conversion only: the graph built from parsed JSON counts in build_s.
        "ecgraph.json_s": tracer.self_s(*(g + m for m in (
            "to_json", "to_json_dict", "from_json", "from_json_dict"))),
        "group.calls": sum(tracer.calls(n) for n in group_ops),
        "group.enumerated": tracer.counts.get("group.GroupSpec.elements.items", 0),
        "setalg.calls": sum(s[0] for n, s in tracer.stats.items() if n.startswith("setalg.")),
        "setalg.disjoint_checks": tracer.calls("setalg.GroupSubset.is_disjoint"),
        "construct.cayley_s": tracer.total_s("construct.cayley_build"),
        "construct.cayley.edges": tracer.counts.get("construct.cayley.edges", 0),
        "construct.ccs_s": tracer.total_s("construct.ColouredConnectingSet.of"),
        "construct.product_s": tracer.total_s(
            "construct.strong_product", "construct.cartesian_product"),
        "construct.product.edges": tracer.counts.get("construct.product.edges", 0),
        "pipelines.plan_br_s": tracer.total_s("pipelines.plan_br"),
        "pipelines.build_br_s": tracer.total_s("pipelines.build_br"),
        "pipelines.plan_gaps_s": tracer.total_s("pipelines._make_gaps_plan"),
        "pipelines.build_gaps_s": tracer.total_s("pipelines.build_gaps"),
        "pipelines.audit.vertices": tracer.counts.get("pipelines.audit.vertices", 0),
        "analysis.verify_s": tracer.total_s("analysis.verify_flip"),
        "analysis.verify.vertices": tracer.counts.get("analysis.verify.vertices", 0),
        "analysis.search_s": tracer.total_s("analysis.search_sumfree_inverse_closed"),
        "analysis.search.examined": tracer.counts.get("analysis.search.examined", 0),
        "trace.wall_s": tracer.total_s(root),
        "trace.unattributed_s": tracer.self_s(root),
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = tracer.module_self_s(module)
    return metrics
