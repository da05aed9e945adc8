"""Graph constructions: Cayley graphs, coloured products, connecting-set packing.

Colour handling in the strong product follows the convention that an edge
between (u, v) and (u', v') inherits the colour of {v, v'} when u = u', and
the colour of {u, u'} in the first factor otherwise (in particular on the
diagonal pairs where both coordinates move).

Every builder checks its closed-form edge count, then hands
``EdgeColouredGraph`` a stream of edges: ``zip`` and ``compress`` iterators
over vertex lists and ranges, made one at a time as the constructor reaches
them and chained. No builder keeps a per-edge list or a per-edge iterator.
"""

from __future__ import annotations

from itertools import chain, combinations, compress, repeat
from operator import itemgetter, lt
from typing import Iterator, Mapping, Optional, Sequence

from .ecgraph import Edge, EdgeColouredGraph, _check_edge_count
from .group import GroupSpec, _Record, _check_limit, _int, parse_group_text
from .setalg import GroupSubset, is_inverse_closed, sumset

__all__ = ["ColouredConnectingSet", "PackingDeltaReport", "bipartite_matching_graph",
           "cartesian_product", "cayley_build", "merge_connecting_sets", "packing_delta",
           "strong_product"]


class ColouredConnectingSet(_Record):
    """Disjoint inverse-closed identity-free connecting classes, one per colour."""

    spec: GroupSpec
    classes: tuple[tuple[int, GroupSubset], ...]
    colour_count: int

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("connecting set needs at least one colour class")
        items = tuple(sorted(self.classes, key=itemgetter(0)))
        self.__dict__["classes"] = items
        top = 0
        for colour, subset in items:
            if not isinstance(colour, int) or colour < 1:
                raise ValueError(f"colour must be a positive integer, got {colour!r}")
            if colour == top:
                raise ValueError(f"colour {colour} has two classes")
            top = colour
            if subset.spec != self.spec:
                raise ValueError(f"class {colour} lives in {subset.spec}, expected {self.spec}")
            if subset.contains_identity():
                raise ValueError(f"class {colour} contains the identity")
            if not is_inverse_closed(subset):
                raise ValueError(f"class {colour} is not inverse-closed")
        if len(self.union_elements()) != sum(len(subset) for _, subset in items):
            # Some pair overlaps: find the first in colour order to name it.
            for (first, a), (second, b) in combinations(items, 2):
                if not a.is_disjoint(b):
                    raise ValueError(f"classes {first} and {second} overlap")
        if self.colour_count < top:
            raise ValueError(f"colour count {self.colour_count} below largest class colour {top}")

    @staticmethod
    def of(
        spec: GroupSpec,
        classes: Mapping[int, GroupSubset],
        colour_count: Optional[int] = None,
    ) -> "ColouredConnectingSet":
        if colour_count is None:
            colour_count = max(classes, default=0)
        return ColouredConnectingSet(spec, tuple(classes.items()), colour_count)

    def union_elements(self) -> GroupSubset:
        out = self.classes[0][1]
        for _, subset in self.classes:
            out = out.union(subset)
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "ColouredConnectingSet":
        try:
            group = data["group"]
            raw = data["classes"]
            colour_count = data.get("colour_count")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed connecting set JSON: {exc}") from None
        if type(group) is not str:
            raise ValueError(f"group must be a string, got {group!r}")
        if type(raw) is not dict:
            raise ValueError(f"classes must be an object keyed by colour, got {raw!r}")
        if colour_count is not None and type(colour_count) is not int:
            raise ValueError(f"colour_count must be an integer, got {colour_count!r}")
        spec = parse_group_text(group)
        classes = {}
        for colour, elems in raw.items():
            if type(elems) is not list:
                raise ValueError(f"class {colour} must be a list of elements, got {elems!r}")
            for e in elems:
                if type(e) is not list or any(type(x) is not int for x in e):
                    raise ValueError(f"malformed element {e!r} in class {colour}")
            try:
                c = _int(colour)
            except ValueError:
                raise ValueError(f"class key {colour!r} is not an integer colour") from None
            if c in classes:
                raise ValueError(f"class key {colour!r} repeats colour {c}")
            classes[c] = GroupSubset.of(spec, [tuple(e) for e in elems])
        return ColouredConnectingSet.of(spec, classes, colour_count)


def cayley_build(ccs: ColouredConnectingSet) -> EdgeColouredGraph:
    """Cayley graph on the whole group, one edge {g, g+s} per connecting element.

    Vertex i is the i-th element in enumeration order, that is the element's
    mixed-radix value with the first factor most significant. The table of
    g + s is the vertex list translated by s (``GroupSpec._translate_list``).
    Every class is inverse-closed, so each edge is listed twice, from s and
    from -s (from s twice when s = -s); only the copy with g < g + s is kept.
    """
    spec = ccs.spec
    spec.check_enumerable()
    # S, the union of the disjoint classes, is inverse-closed and identity-free,
    # so every vertex has degree |S|.
    degree = sum(len(subset) for _, subset in ccs.classes)
    _check_edge_count(spec.order * degree // 2, "Cayley graph")
    return EdgeColouredGraph(spec.order, ccs.colour_count, chain.from_iterable(_cayley_edges(ccs)))


def _cayley_edges(ccs: ColouredConnectingSet) -> Iterator[Iterator[Edge]]:
    """Per connecting element s, the triples (g, g + s, colour) with g < g + s.
    Every triple holds the same int object per vertex; the tables rearrange it."""
    spec = ccs.spec
    vertices = list(range(spec.order))
    for colour, subset in ccs.classes:
        for s in subset.elements:
            table = spec._translate_list(vertices, s)
            yield compress(zip(vertices, table, repeat(colour)), map(lt, vertices, table))


def merge_connecting_sets(
    first: ColouredConnectingSet, second: ColouredConnectingSet
) -> ColouredConnectingSet:
    """Union the colour classes of two connecting sets over the same group.

    All classes across both inputs must be pairwise disjoint, otherwise the
    packed graph would need two colours on one edge.
    """
    if first.spec != second.spec:
        raise ValueError(f"connecting sets live in different groups: {first.spec} vs {second.spec}")
    a = first.union_elements()
    b = second.union_elements()
    if not a.is_disjoint(b):
        overlap = sorted(a.elements & b.elements)[:4]
        raise ValueError(f"packing undefined, classes overlap at {overlap}")
    merged: dict[int, GroupSubset] = dict(first.classes)
    for colour, subset in second.classes:
        if colour in merged:
            merged[colour] = merged[colour].union(subset)
        else:
            merged[colour] = subset
    return ColouredConnectingSet.of(
        first.spec, merged, max(first.colour_count, second.colour_count))


def _product(g: EdgeColouredGraph, h: EdgeColouredGraph, strong: bool) -> EdgeColouredGraph:
    """Strong or Cartesian product, its size checked before any stream is made."""
    if g.colour_count != h.colour_count:
        raise ValueError(
            f"factors must share a colour count, got {g.colour_count} and {h.colour_count}")
    order = g.vertex_count * h.vertex_count
    _check_limit(order, "product vertex count {}")
    mg, mh = g._edge_count(), h._edge_count()
    diagonal_edges = 2 * mg * mh if strong else 0
    _check_edge_count(mg * h.vertex_count + mh * g.vertex_count + diagonal_edges, "product")
    return EdgeColouredGraph(order, g.colour_count,
                             chain.from_iterable(_product_edges(g, h, strong)))


def _product_edges(g: EdgeColouredGraph, h: EdgeColouredGraph,
                   strong: bool) -> Iterator[Iterator[Edge]]:
    """The product's edge streams, made one at a time as the constructor reads
    them: per row u, the edges of ``h`` inside it; per edge {u, u2} of ``g``,
    the pairs ((u, v), (u2, v)); then, for the strong product, per edge of
    ``g`` its diagonals. Each edge takes its factor's colour. The factors'
    edges are read from their adjacency, with no sorted copy of either's.

    Vertex (u, v) is ``vertices[u * nh + v]``, one int object per vertex
    shared by every edge that touches it. A stream slices the rows it reads,
    so the vertex list is all that outlives one."""
    nh = h.vertex_count
    vertices = list(range(g.vertex_count * nh))

    def row(u: int) -> list[int]:
        return vertices[u * nh:(u + 1) * nh]

    # h's edge columns; with no edge in h, the rows and the diagonals would
    # give empty streams.
    hu, hv, hc = list(zip(*h._edge_stream())) or ((), (), ())
    if hu:
        for u in range(g.vertex_count):
            r = row(u)
            yield zip(map(r.__getitem__, hu), map(r.__getitem__, hv), hc)
    for u, u2, c in g._edge_stream():
        yield zip(row(u), row(u2), repeat(c))
    if strong and hu:
        # Each edge {v, v2} of h gives the diagonals ((u, v), (u2, v2)) and
        # ((u, v2), (u2, v)), in that order: left and right hold them interleaved.
        left = list(chain.from_iterable(zip(hu, hv)))
        right = list(chain.from_iterable(zip(hv, hu)))
        for u, u2, c in g._edge_stream():
            yield zip(map(row(u).__getitem__, left), map(row(u2).__getitem__, right), repeat(c))


def strong_product(g: EdgeColouredGraph, h: EdgeColouredGraph) -> EdgeColouredGraph:
    """Strong product; moved-first-coordinate edges take the first factor's colour.
    Vertex (u, v) is numbered row-major, u * h.vertex_count + v."""
    return _product(g, h, strong=True)


def cartesian_product(g: EdgeColouredGraph, h: EdgeColouredGraph) -> EdgeColouredGraph:
    """Cartesian product; edges move in exactly one coordinate.
    Vertex (u, v) is numbered row-major, u * h.vertex_count + v."""
    return _product(g, h, strong=False)


class PackingDeltaReport(_Record):
    """Exact closed-count difference at the identity of a two-set packing.

    delta_direct counts e_1 - e_2 in the packed graph. delta_formula evaluates
    the factor-side expression (e1_blue_closed - e2_red_closed) plus
    (red_edges_in_blue_nbhd - blue_edges_in_red_nbhd). The two must agree.
    """

    packed: EdgeColouredGraph
    delta_direct: int
    delta_formula: int
    e1_blue_closed: int
    e2_red_closed: int
    red_edges_in_blue_nbhd: int
    blue_edges_in_red_nbhd: int
    product_condition: bool
    dominance: bool
    flip_at_identity: bool


def packing_delta(spec: GroupSpec, blue: GroupSubset, red: GroupSubset) -> PackingDeltaReport:
    """Pack blue as colour 1 and red as colour 2, then audit e_1 - e_2 at identity."""
    blue_only = ColouredConnectingSet.of(spec, {1: blue}, colour_count=2)
    red_only = ColouredConnectingSet.of(spec, {2: red}, colour_count=2)
    g_blue = cayley_build(blue_only)
    h_red = cayley_build(red_only)
    packed = cayley_build(merge_connecting_sets(blue_only, red_only))

    # identity element is vertex 0 in enumeration order
    packed_profile = packed.vertex_profile(0)
    delta_direct = packed_profile.e_closed[0] - packed_profile.e_closed[1]

    e1_blue = g_blue.vertex_profile(0).e_closed[0]
    e2_red = h_red.vertex_profile(0).e_closed[1]
    red_in_blue = h_red.count_coloured_edges(g_blue.closed_neighbourhood(0), 2)
    blue_in_red = g_blue.count_coloured_edges(h_red.closed_neighbourhood(0), 1)
    delta_formula = (e1_blue - e2_red) + (red_in_blue - blue_in_red)

    product_condition = sumset(red, blue).is_disjoint(red)
    return PackingDeltaReport(
        packed=packed,
        delta_direct=delta_direct,
        delta_formula=delta_formula,
        e1_blue_closed=e1_blue,
        e2_red_closed=e2_red,
        red_edges_in_blue_nbhd=red_in_blue,
        blue_edges_in_red_nbhd=blue_in_red,
        product_condition=product_condition,
        dominance=e1_blue > e2_red,
        flip_at_identity=packed_profile.e_closed[0] > packed_profile.e_closed[1],
    )


def bipartite_matching_graph(colour_count: int, assignments: Sequence[int]) -> EdgeColouredGraph:
    """K_{p,p} decomposed into cyclic-shift matchings, matching d coloured assignments[d].

    p = len(assignments). Parts are {0..p-1} and {p..2p-1}; matching d joins
    i to p + ((i + d) mod p). The graph is bipartite, hence triangle-free, so
    every closed count equals the matching count of its colour.
    """
    p = len(assignments)
    if p < 1:
        raise ValueError("need at least one matching assignment")
    _check_edge_count(p * p, "matching graph")
    # Matching d joins 0..p-d-1 to p+d..2p-1, then wraps to join the rest to p..p+d-1.
    return EdgeColouredGraph(2 * p, colour_count, chain.from_iterable(
        zip(range(p), chain(range(p + d, 2 * p), range(p, p + d)), repeat(colour))
        for d, colour in enumerate(assignments)))
