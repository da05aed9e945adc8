"""Edge-coloured simple graphs with per-vertex colour profiles.

Vertices are 0-based integers, colours are 1-based. A profile records, for
each colour j, the degree deg_j(v) and the number of colour-j edges induced
by the closed neighbourhood of v: the degree plus the open count, which
counts the colour-j edges among v's neighbours.

A graph keeps one {neighbour: colour} dict per vertex, holding only the
neighbours above it, so each edge is stored once, at its lower endpoint,
and nothing else per edge. The constructor reads its edges once, from any
iterable of (u, v, colour) rows, with one dict insert per row; every builder
in ``construct`` hands it a stream and keeps no per-edge list. The sorted
edge tuple ``edges`` is a copy made from the dicts on each read and kept by
no graph; nothing in the package reads it.

The profiles of every vertex come from one whole-graph pass of the forward
triangle-listing algorithm (Schank & Wagner, WEA 2005), with edges oriented
by vertex index: the forward neighbours of a vertex are exactly its stored
dict, so the pass ranks nothing and copies no adjacency. Each triangle is
listed exactly once and credits its opposite edge's colour to each of its
three corners, and each edge credits its colour to both endpoints' degrees.
Index order keeps the O(m^1.5) bound because each intersection costs no
more than its smaller side (Chiba & Nishizeki, SIAM J. Comput. 1985; see
``EdgeColouredGraph._count_open``). A dense graph's pass intersects one
integer bitset row per vertex with ``&``; a sparse graph's intersects the
key views of the graph's own dicts, and allocates nothing per edge. The rows
are used only when a bound on their size, worked out from the vertex and
edge counts before any row is built, is no larger than those dicts. The pass
runs the first time any vertex of a graph is profiled, and its degree and
closed-count rows are cached on the graph; a profile is two of those
immutable rows. ``profile_by_edge_scan`` never reads that cache; it is the
independent oracle the pass is checked against.
"""

from __future__ import annotations

import json
import struct
import sys
from itertools import chain, compress, repeat
from operator import add, contains
from typing import Callable, Iterable, Iterator

from .group import ENUMERATION_LIMIT, _Record, _check_limit

__all__ = ["EdgeColouredGraph", "VertexColourProfile"]

Edge = tuple[int, int, int]

# Most edges a builder lists or a graph file holds. Building takes about
# 0.2-1.5 us per edge (CPython 3.11), and its peak memory is mostly the
# finished graph's per-vertex dicts, which hold each edge once. Peak bytes per
# edge (tracemalloc): 35-46 on Cayley graphs of degree 40 to 400 and 148 at
# degree 4; 68 on the strong and 137 on the Cartesian product of two
# 300-cycles; 109-182 on a path times K2 and 272 on a path times K1, which has
# about one edge per vertex, so that the dicts' fixed cost dominates. So the
# largest allowed graph builds in about 1.5 s, and in under 150 MB when its
# vertices have several edges each (under 300 MB at worst). Each builder
# checks its closed-form edge count before it lists any edge, and a graph
# file its row count before it converts any row.
EDGE_LIMIT = 10**6


def _check_edge_count(count: int, what: str) -> None:
    if count > EDGE_LIMIT:
        raise ValueError(f"{what} would have {count} edges, over the limit {EDGE_LIMIT}")


# The interpreter's storage sizes that pick the open-count kernel (see
# EdgeColouredGraph._count_open): int digits, and a dict entry's hash, key
# pointer and value pointer.
_DIGIT_BITS = sys.int_info.bits_per_digit
_DIGIT_BYTES = sys.int_info.sizeof_digit
_DICT_ENTRY_BYTES = 3 * struct.calcsize("P")

DOT_PALETTE = (
    "blue", "red", "green3", "orange", "purple",
    "brown", "cyan3", "magenta", "olive", "teal",
)


def _dot_tail(c: int) -> str:
    """What follows v in a DOT edge line (see EdgeColouredGraph._edge_rows)."""
    return ' [color="%s", label="%d"];' % (DOT_PALETTE[(c - 1) % len(DOT_PALETTE)], c)


class VertexColourProfile(_Record):
    deg: tuple[int, ...]
    e_closed: tuple[int, ...]


class EdgeColouredGraph:
    """Immutable simple graph whose edges each carry one colour in 1..k."""

    __slots__ = ("vertex_count", "colour_count", "_adj", "_rows")

    def __init__(self, vertex_count: int, colour_count: int, edges: Iterable[Edge]):
        if vertex_count < 0:
            raise ValueError(f"vertex count must be >= 0, got {vertex_count}")
        _check_limit(vertex_count, "vertex count {}")
        if colour_count < 1:
            raise ValueError(f"colour count must be >= 1, got {colour_count}")
        # Profiles hold k counters per vertex and the profile pass two rows of k per vertex.
        _check_limit(colour_count, "colour count {}")
        if vertex_count * colour_count > 16 * ENUMERATION_LIMIT:
            raise ValueError(
                f"vertex count {vertex_count} times colour count {colour_count} is "
                f"{vertex_count * colour_count}, over the limit {16 * ENUMERATION_LIMIT}")
        # One {higher neighbour: colour} dict per vertex, so each edge is kept
        # once, at its lower endpoint; it also collapses repeated edges.
        adj: list[dict[int, int]] = [{} for _ in range(vertex_count)]
        # Unpacking in the for target lets a zip stream reuse one row tuple throughout.
        for u, v, c in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge endpoint out of range: {(u, v, c)}")
            if u == v:
                raise ValueError(f"loop edges are not allowed: {(u, v, c)}")
            if not (1 <= c <= colour_count):
                raise ValueError(f"colour {c} outside 1..{colour_count}: {(u, v, c)}")
            seen = adj[u].setdefault(v, c) if u < v else adj[v].setdefault(u, c)
            if seen != c:
                key = (u, v) if u < v else (v, u)
                raise ValueError(f"vertex pair {key} carries two colours: {seen} and {c}")
        self.vertex_count = vertex_count
        self.colour_count = colour_count
        self._adj = tuple(adj)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge once as (u, v, colour) with u < v, sorted: a new copy on each read."""
        return tuple((u, v, nbrs[v]) for u, nbrs in enumerate(self._adj) for v in sorted(nbrs))

    def _edge_stream(self) -> Iterator[Edge]:
        """Every edge once as (u, v, colour) with u < v, in adjacency order,
        not sorted: per vertex u, C-level iterators over its dict. Builders
        and counts read this, so no sorted copy of the edges is made for them."""
        return chain.from_iterable(
            zip(repeat(u), nbrs, nbrs.values()) for u, nbrs in enumerate(self._adj))

    def _edge_count(self) -> int:
        """len(edges), from the adjacency sizes, without building the edges."""
        return sum(map(len, self._adj))

    def __setattr__(self, name, value):
        if hasattr(self, "_adj"):
            raise AttributeError("graph is immutable")
        object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeColouredGraph):
            return NotImplemented
        return (self.vertex_count, self.colour_count, self._adj) == (
            other.vertex_count, other.colour_count, other._adj)

    def __repr__(self) -> str:
        return (f"EdgeColouredGraph(vertices={self.vertex_count}, "
                f"colours={self.colour_count}, edges={self._edge_count()})")

    def closed_neighbourhood(self, v: int) -> frozenset[int]:
        """v and its neighbours: the higher ones are its dict's keys, the lower
        ones the vertices below v whose dicts hold v, found by a scan."""
        self._check_vertex(v)
        adj = self._adj
        return frozenset(chain((v,), adj[v], compress(range(v), map(contains, adj[:v], repeat(v)))))

    def count_coloured_edges(self, vertices: Iterable[int], colour: int) -> int:
        """Number of colour-j edges with both endpoints in the given set."""
        if not (1 <= colour <= self.colour_count):
            raise ValueError(f"colour {colour} outside 1..{self.colour_count}")
        s = set(vertices)
        for v in s:
            self._check_vertex(v)
        return sum(1 for u, v, c in self._edge_stream() if c == colour and u in s and v in s)

    def vertex_profile(self, v: int) -> VertexColourProfile:
        """Profile of v: its degree and closed-count rows from the graph's
        triangle-listing pass, which runs on the first call only."""
        self._check_vertex(v)
        try:
            deg, closed = self._rows
        except AttributeError:
            object.__setattr__(self, "_rows", self._count_open())
            deg, closed = self._rows
        return VertexColourProfile(deg[v], closed[v])

    def profiles(self) -> Iterator[VertexColourProfile]:
        """Every vertex's profile in vertex order, each made as it is read:
        the one loop over all vertices that audits and verification share."""
        return map(self.vertex_profile, range(self.vertex_count))

    def _count_open(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per-vertex degree rows and closed-count rows, from one pass that
        lists each triangle once (forward algorithm) and reads each edge once.

        Edges are oriented by vertex index, so the forward neighbours of u
        are exactly the keys of its stored dict ``adj[u]``. A triangle
        u < w < x is found only from the edge u->w, as a neighbour x common
        to u and w; the edge opposite each corner then adds one to that
        corner's open count. Each edge also adds one to both endpoints'
        degree in its colour, and a closed count is the degree plus the open
        count. Any vertex order keeps the O(m^1.5) bound as long as each
        intersection costs no more than its smaller side: the edge u->w then
        costs at most min(deg u, deg w), and those minima sum to O(m^1.5)
        over all edges (Chiba & Nishizeki, SIAM J. Comput. 1985). A key-view
        ``&`` walks the smaller view. The forward neighbours are read in one
        of two forms:

        - bitset rows (``_open_by_bitsets``): one int per vertex, with bit
          n-1-x set for each forward neighbour x. The row of vertex u has
          bits below n-1-u only, so the n rows hold at most n(n-1)/2 bits.
          In 30-bit digits of 4 bytes (``sys.int_info`` on 64-bit CPython)
          that is at most n(n-1)/15 bytes.
        - the graph's own dicts (``_open_by_dicts``), read as they are: no
          forward structure is allocated. They hold each of the m edges once,
          and each entry takes at least 24 bytes (hash, key and value
          pointers), so at least 24m bytes.

        The rows are built only when their bound is no larger than the
        dicts' floor, n(n-1)/15 <= 24m, that is n(n-1) <= 360m on 64-bit
        CPython: an average degree of at least (n-1)/180. So the rows never
        add more than the graph already holds per edge. Object headers are
        left out on both sides; an int's is smaller than a dict's. The check
        uses n and m alone and runs before any row is built. Bits are made
        by shifting, with no table of powers of two, which would take
        O(n^2) bits of its own.
        """
        adj = self._adj
        n = self.vertex_count
        # Both tables are indexed by colour; slot 0 is unused.
        degrees, counts = ([[0] * (self.colour_count + 1) for _ in adj] for _ in range(2))
        if n * (n - 1) * _DIGIT_BYTES <= 2 * _DIGIT_BITS * _DICT_ENTRY_BYTES * self._edge_count():
            _open_by_bitsets(adj, degrees, counts)
        else:
            _open_by_dicts(adj, degrees, counts)
        deg = [tuple(row[1:]) for row in degrees]
        return tuple(deg), tuple([tuple(map(add, row[1:], d)) for row, d in zip(counts, deg)])

    def profile_by_edge_scan(self, v: int) -> VertexColourProfile:
        """Same profile computed independently by scanning the full edge list."""
        self._check_vertex(v)
        nb = self.closed_neighbourhood(v)
        deg = [0] * self.colour_count
        closed = [0] * self.colour_count
        for u, w, c in self._edge_stream():
            if u in nb and w in nb:
                closed[c - 1] += 1
                if u == v or w == v:
                    deg[c - 1] += 1
        return VertexColourProfile(tuple(deg), tuple(closed))

    def with_colour_count(self, colour_count: int) -> "EdgeColouredGraph":
        """Same edges, wider colour range."""
        if colour_count < self.colour_count:
            raise ValueError(f"cannot shrink colour count {self.colour_count} to {colour_count}")
        return EdgeColouredGraph(self.vertex_count, colour_count, self._edge_stream())

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise ValueError(f"vertex {v} outside 0..{self.vertex_count - 1}")

    def to_json(self) -> str:
        """{"colours": k, "edges": [[u, v, c], ...], "vertices": n}, byte for byte as
        ``json.dumps(..., indent=2, sort_keys=True) + "\\n"`` lays it out, written directly.

        ``indent`` makes ``json.dumps`` fall back to its pure-Python encoder,
        which makes several calls per edge entry. Here each vertex u writes
        all its rows with one C-level join: every row of u is the same head
        holding u, then the neighbour v, then a tail holding the colour (see
        ``_edge_rows``). The rows come from the adjacency, so no sorted copy
        of the edges is made.
        """
        # Each row as json.dumps(indent=2) lays it out, two levels deep.
        rows = self._edge_rows("    [\n      %d,\n      ", ",\n", ",\n      %d\n    ]".__mod__)
        edges = f"[\n{rows}\n  ]" if rows else "[]"
        return ('{\n  "colours": %d,\n  "edges": %s,\n  "vertices": %d\n}\n'
                % (self.colour_count, edges, self.vertex_count))

    def _edge_rows(self, head: str, sep: str, tail_of: Callable[[int], str]) -> str:
        """One row per edge u < v in ``edges`` order, rows joined by ``sep``:
        ``head % u``, then ``str(v)``, then ``tail_of(colour)``.

        Each vertex sorts its higher neighbours once and joins all its rows
        in one call, with ``sep + head % u`` between them. Neighbour strings
        and tails are made once for each vertex and colour that occurs in an
        edge, so the cost follows the edges, not ``vertex_count`` or
        ``colour_count``.
        """
        adj = self._adj
        used = set(chain.from_iterable(adj))
        name = dict(zip(used, map(str, used))).__getitem__
        colours = set(chain.from_iterable(map(dict.values, adj)))
        tail = dict(zip(colours, map(tail_of, colours))).__getitem__
        blocks = []
        for u, nbrs in enumerate(adj):
            if nbrs:
                higher = sorted(nbrs)
                h = head % u
                blocks.append(h + (sep + h).join(
                    map(add, map(name, higher), map(tail, map(nbrs.__getitem__, higher)))))
        return sep.join(blocks)

    @staticmethod
    def from_json_dict(data: dict) -> "EdgeColouredGraph":
        """The graph of a parsed graph file.

        ``edges`` must be a list, whose rows are counted against
        ``EDGE_LIMIT`` before any is read.
        One pass checks that every entry is an int; a list of such rows goes
        to the constructor as it is, which rejects a row of the wrong length.
        If that pass or the constructor fails, the first malformed row, if
        any, is named before any other error.
        """
        try:
            vertices = data["vertices"]
            colours = data["colours"]
            edges = data["edges"]
            if type(edges) is not list:
                raise ValueError(f"malformed graph JSON: edges must be a list, "
                                 f"got {type(edges).__name__}")
            _check_edge_count(len(edges), "graph JSON")
            int_entries = set(map(type, chain.from_iterable(edges))) <= {int}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed graph JSON: {exc}") from None
        if type(vertices) is not int or type(colours) is not int:
            raise ValueError(
                f"vertices and colours must be integers, got {vertices!r} and {colours!r}")
        if int_entries:
            try:
                return EdgeColouredGraph(vertices, colours, edges)
            except ValueError as exc:
                error = exc
        # A row with an entry that is not an int always stops this scan.
        for e in edges:
            if len(e) != 3 or any(type(x) is not int for x in e):
                raise ValueError(f"malformed edge entry {tuple(e)!r}")
        raise error

    @staticmethod
    def from_json(text: str) -> "EdgeColouredGraph":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed graph JSON: {exc}") from None
        except RecursionError:
            raise ValueError("malformed graph JSON: nested too deeply") from None
        return EdgeColouredGraph.from_json_dict(data)

    def to_dot(self) -> str:
        """GraphViz text for a graph named G, one edge per line, colour from a fixed palette."""
        rows = self._edge_rows("  %d -- ", "\n", _dot_tail)
        return f"graph G {{\n{rows}\n}}\n" if rows else "graph G {\n}\n"


def _open_by_bitsets(adj, degrees, counts) -> None:
    """Add degrees and open counts into ``degrees`` and ``counts``, one row
    per vertex indexed by colour: the common forward neighbours of an edge
    u->w are the bits of ``rows[u] & rows[w]``, taken from the top bit down,
    so the lowest vertex first."""
    top = len(adj) - 1
    rows = []
    for nbrs in adj:
        row = 0
        for x in nbrs:
            row |= 1 << (top - x)
        rows.append(row)
    for u, au in enumerate(adj):
        bu = rows[u]
        du = degrees[u]
        cu = counts[u]
        for w, c in au.items():
            du[c] += 1
            degrees[w][c] += 1
            common = bu & rows[w]
            if not common:
                continue
            aw = adj[w]
            cw = counts[w]
            while common:
                p = common.bit_length() - 1
                common ^= 1 << p
                x = top - p
                counts[x][c] += 1
                cw[au[x]] += 1
                cu[aw[x]] += 1


def _open_by_dicts(adj, degrees, counts) -> None:
    """Add degrees and open counts into ``degrees`` and ``counts``, as
    ``_open_by_bitsets`` does: the common forward neighbours of an edge u->w
    are the keys that ``adj[u]`` and ``adj[w]`` share."""
    for u, au in enumerate(adj):
        du = degrees[u]
        cu = counts[u]
        for w, c in au.items():
            du[c] += 1
            degrees[w][c] += 1
            aw = adj[w]
            cw = counts[w]
            for x in au.keys() & aw.keys():
                counts[x][c] += 1
                cw[au[x]] += 1
                cu[aw[x]] += 1
