"""Command-line front-end.

Subcommands wrap the library one-to-one and stay deterministic: identical
flags produce byte-identical JSON and CSV. Exit codes: 0 success or verdict
pass, 1 verdict fail, 2 usage or domain error, malformed input (an empty
path, list or list part included) and files that cannot be read or written
included. Each command returns its exit code and its outputs, (path, render)
pairs with a path of None or '-' for stdout; ``main`` alone writes them,
every file (--plan-out, --out, --dot, in that order) and then stdout, so an
exit 2 leaves stdout empty. A call whose first argument names a subcommand
parses the rest with that subcommand's parser alone, ``flipforge NAME``, the
prog the full tree gives it, so its help and its own errors read the same.
Each subcommand's parser is built on its first call in a process and reused
by every later call that names it, so a caller that runs ``main`` many times
builds it once. The full tree, the top-level parser with all nine
subcommands, is built only for argv that names none (help, no command, an
unknown command, an option first) and for argv that leaves arguments over,
whose usage and 'unrecognized arguments' text the top-level parser prints;
it is built anew on every such call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Sequence

from .analysis import bounds_table, bounds_to_csv, search_sumfree_inverse_closed, verify_flip
from .construct import (
    ColouredConnectingSet,
    cartesian_product,
    cayley_build,
    merge_connecting_sets,
    strong_product,
)
from .ecgraph import EdgeColouredGraph
from .group import _int, parse_group_text
from .pipelines import (
    DEFAULT_MATERIALIZE_LIMIT,
    VerificationError,
    _make_gaps_plan,
    build_br,
    colour_merge,
    plan_br,
)
from .setalg import GroupSubset, json_value


def _dump_json(data: dict) -> str:
    """``json.dumps(data, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    from ``_json_text``. ``indent`` makes ``json.dumps`` fall back to its
    pure-Python encoder, which makes several calls per list item."""
    return _json_text(data, "") + "\n"


def _json_text(value: object, indent: str) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` lays it out when
    it starts at a line indented by ``indent``. Each list, tuple or dict is
    one ``str.join`` of its items at the next indent; an int item is written
    in place with ``int.__repr__``, with no call. Strings and dict keys go
    through the C string encoder, which refuses a key that is not a str, and
    other scalars through ``json.dumps``. Lists come first: a plan holds
    hundreds of two-item lists and few other values."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join([
            int.__repr__(x) if type(x) is int else _json_text(x, inner) for x in value]), indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join([
            _quote(k) + ": " + (int.__repr__(v) if type(v) is int else _json_text(v, inner))
            for k, v in sorted(value.items())]), indent)
    if type(value) is str:
        return _quote(value)
    return json.dumps(value)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"JSON in {path} is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object in {path}")
    return data


def _load_graph(path: str) -> EdgeColouredGraph:
    return EdgeColouredGraph.from_json_dict(_load_json(path))


def _int_list(text: str, flag: str) -> list[int]:
    """Every part is read by ``_int``, so an empty or blank part, and the
    empty string, are refused."""
    try:
        return [_int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _format_vector(values: Sequence[int]) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _parse_class_flag(spec_text: str, flag: str) -> tuple[int, list]:
    """Parse ``colour=e;e;...`` where an element is ``r`` or ``r1,r2,...``."""
    head, sep, tail = spec_text.partition("=")
    if not sep or not head.strip() or not tail.strip():
        raise ValueError(f"{flag} expects 'colour=elem;elem;...', got {spec_text!r}")
    try:
        colour = _int(head)
    except ValueError:
        raise ValueError(f"{flag} colour must be an integer, got {head!r}") from None
    elements: list = []
    for token in tail.split(";"):
        try:
            elements.append(tuple(map(_int, token.split(","))) if "," in token else _int(token))
        except ValueError:
            raise ValueError(f"{flag} residues must be integers, got {token.strip()!r}") from None
    return colour, elements


def _graph_result(graph: EdgeColouredGraph, args: argparse.Namespace) -> tuple[int, list]:
    """JSON to ``--out`` (stdout when absent), then DOT to ``--dot`` if given."""
    outputs = [(args.out, graph.to_json)]
    if args.dot is not None:
        outputs.append((args.dot, graph.to_dot))
    return 0, outputs


def _cmd_construct_br(args: argparse.Namespace) -> tuple[int, list]:
    plan = plan_br(args.b, args.r)
    graph, report = build_br(plan)
    status = f"order {graph.vertex_count}\n"
    if args.verify:
        # build_br raises VerificationError unless the report passed.
        status += (f"deg={_format_vector(report.colour_degrees)}\n"
                   f"e={_format_vector(report.uniform_e_chain)}\nPASS\n")
    files = [(args.plan_out, lambda: _dump_json(plan.to_json_dict())),
             (args.out, graph.to_json), (args.dot, graph.to_dot)]
    return 0, [pair for pair in files if pair[0] is not None] + [(None, lambda: status)]


def _cmd_verify(args: argparse.Namespace) -> tuple[int, list]:
    graph = _load_graph(args.infile)
    expected = _int_list(args.sequence, "--sequence") if args.sequence is not None else None
    report = verify_flip(graph, expected=expected)
    return (0 if report.passed else 1), [(None, lambda: _dump_json(report.to_json_dict()))]


def _cmd_product(args: argparse.Namespace) -> tuple[int, list]:
    left = _load_graph(args.left)
    right = _load_graph(args.right)
    build = strong_product if args.kind == "strong" else cartesian_product
    return _graph_result(build(left, right), args)


def _cmd_cayley(args: argparse.Namespace) -> tuple[int, list]:
    spec = parse_group_text(args.group)
    classes: dict[int, GroupSubset] = {}
    for class_text in args.colour_class:
        colour, elements = _parse_class_flag(class_text, "--class")
        if colour in classes:
            raise ValueError(f"--class repeats colour {colour}")
        classes[colour] = GroupSubset.of(spec, elements)
    ccs = ColouredConnectingSet.of(spec, classes, args.colours)
    return _graph_result(cayley_build(ccs), args)


def _cmd_pack(args: argparse.Namespace) -> tuple[int, list]:
    first = ColouredConnectingSet.from_json_dict(_load_json(args.first))
    second = ColouredConnectingSet.from_json_dict(_load_json(args.second))
    return _graph_result(cayley_build(merge_connecting_sets(first, second)), args)


def _cmd_merge(args: argparse.Namespace) -> tuple[int, list]:
    graph = _load_graph(args.infile)
    parts = [_int_list(chunk, "--partition") for chunk in args.partition.split("|")]
    return _graph_result(colour_merge(graph, parts), args)


def _cmd_bounds(args: argparse.Namespace) -> tuple[int, list]:
    if args.format != "csv":
        raise ValueError(f"unsupported format {args.format!r}")
    rows = bounds_table(_int_list(args.b, "--b"))
    return 0, [(args.out, lambda: bounds_to_csv(rows))]


def _cmd_gaps_plan(args: argparse.Namespace) -> tuple[int, list]:
    if args.materialize_limit < 0:
        raise ValueError(f"--materialize-limit must be >= 0, got {args.materialize_limit}")
    q, k = args.q, args.k
    prefix_order = None
    if args.from_br is not None:
        if args.prefix_e is not None or args.prefix_deg is not None:
            raise ValueError("--from-br and --prefix-e/--prefix-deg are mutually exclusive")
        br = _int_list(args.from_br, "--from-br")
        if len(br) != 2:
            raise ValueError(f"--from-br expects 'b,r', got {args.from_br!r}")
        if q != 2:
            raise ValueError("--from-br supplies a two-colour prefix, so --q must be 2")
        graph, report = build_br(plan_br(br[0], br[1]))
        prefix_e = report.uniform_e_chain
        prefix_deg = report.colour_degrees
        prefix_order = graph.vertex_count
    else:
        if args.prefix_e is None or args.prefix_deg is None:
            raise ValueError("need either --from-br or both --prefix-e and --prefix-deg")
        prefix_e = _int_list(args.prefix_e, "--prefix-e")
        prefix_deg = _int_list(args.prefix_deg, "--prefix-deg")

    plan = _make_gaps_plan(q, k, prefix_e, prefix_deg, args.t, prefix_order, enforce=False)
    estimate, limit = plan.order_estimate, args.materialize_limit
    if estimate > limit:
        status = f"materialization skipped: estimated order {estimate} > limit {limit}\n"
    else:
        status = f"materialization feasible: estimated order {estimate} <= limit {limit}\n"
    status += "".join(f"plan invalid: {problem}\n" for problem in plan.problems) or "plan valid\n"
    return (1 if plan.problems else 0), [(args.out, lambda: _dump_json(plan.to_json_dict())),
                                         (None, lambda: status)]


def _cmd_search_sumfree(args: argparse.Namespace) -> tuple[int, list]:
    spec = parse_group_text(args.group)
    result = search_sumfree_inverse_closed(spec, mode=args.mode, budget=args.budget)
    return 0, [(None, lambda: _dump_json(json_value(result) | {"group": spec.to_text()}))]


def _configure_construct_br(p: argparse.ArgumentParser) -> None:
    p.add_argument("--b", type=_int, required=True)
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--out", help="graph JSON path ('-' for stdout)")
    p.add_argument("--plan-out", dest="plan_out", help="plan JSON path")
    p.add_argument("--dot", help="DOT export path")
    p.add_argument("--verify", action="store_true", help="print the verified profile")
    p.set_defaults(func=_cmd_construct_br)


def _configure_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--sequence", help="expected degree sequence, e.g. 4,5")
    p.set_defaults(func=_cmd_verify)


def _configure_product(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=("strong", "cartesian"), required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out")
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_product)


def _configure_cayley(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", required=True, help="e.g. z:40 or z:2,28")
    p.add_argument("--class", dest="colour_class", action="append", required=True,
                   metavar="SPEC", help="colour=elem;elem;... (residues comma-separated)")
    p.add_argument("--colours", type=_int, help="total colour count (default: largest class colour)")
    p.add_argument("--out")
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_cayley)


def _configure_pack(p: argparse.ArgumentParser) -> None:
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--out")
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_pack)


def _configure_merge(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--partition", required=True, help="parts separated by '|', e.g. 1,2|3")
    p.add_argument("--out")
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_merge)


def _configure_bounds(p: argparse.ArgumentParser) -> None:
    p.add_argument("--b", required=True, help="comma-separated b values")
    p.add_argument("--format", default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)


def _configure_gaps_plan(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--from-br", dest="from_br", help="b,r: build the two-colour prefix and use its profile")
    p.add_argument("--prefix-e", dest="prefix_e", help="closed counts on colours 1..q")
    p.add_argument("--prefix-deg", dest="prefix_deg", help="degrees on colours 1..q")
    p.add_argument("--t", type=_int, help="matching multiplicity override")
    p.add_argument("--materialize-limit", dest="materialize_limit", type=_int,
                   default=DEFAULT_MATERIALIZE_LIMIT)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gaps_plan)


def _configure_search_sumfree(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", required=True)
    p.add_argument("--mode", choices=("exhaustive", "greedy"), default="exhaustive")
    p.add_argument("--budget", type=_int)
    p.set_defaults(func=_cmd_search_sumfree)


# name: (help line, configure), in the order of the top-level usage and help.
_COMMANDS = {
    "construct-br": ("two-colour Cayley construction for degrees (b, r)", _configure_construct_br),
    "verify": ("run the flip verifier on a graph JSON file", _configure_verify),
    "product": ("coloured strong or Cartesian product", _configure_product),
    "cayley": ("Cayley graph from colour classes", _configure_cayley),
    "pack": ("pack two connecting-set JSON files into one Cayley graph", _configure_pack),
    "merge": ("merge colour classes of a graph", _configure_merge),
    "bounds": ("order-bound table rows for given b values", _configure_bounds),
    "gaps-plan": ("plan the amplified construction and certify its chains", _configure_gaps_plan),
    "search-sumfree": ("search sum-free inverse-closed subsets", _configure_search_sumfree),
}


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser with all nine subcommands."""
    parser = argparse.ArgumentParser(
        prog="flipforge",
        description="Build, verify and tabulate flip-coloured graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, configure) in _COMMANDS.items():
        configure(sub.add_parser(name, help=help_text))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand ``name``'s parser alone, with the prog the full tree gives
    it. It is built on the first call in a process and then reused: parsing
    leaves a parser unchanged and writes only to the namespace it returns."""
    parser = argparse.ArgumentParser(prog="flipforge " + name)
    _COMMANDS[name][1](parser)
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``argv`` parsed by the subcommand's parser alone when ``argv[0]`` names
    one and it takes every argument, else by the full tree. Each subcommand's
    parser is built once per process (``_command_parser``); the full tree is
    built anew on every call that needs it."""
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return _build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    try:
        code, outputs = args.func(args)
        # Every file first, then stdout, so a path that cannot be written
        # leaves stdout empty. Each text is made as it is written.
        for path, render in outputs:
            if path is not None and path != "-":
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(render())
        for path, render in outputs:
            if path is None or path == "-":
                sys.stdout.write(render())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
