"""Edge-coloured simple graphs with per-vertex colour profiles.

Vertices are 0-based integers, colours are 1-based. A profile records, for
each colour j, the degree deg_j(v) and the number of colour-j edges induced
by the closed neighbourhood of v: the degree plus the open count, which
counts the colour-j edges among v's neighbours.

The open counts of every vertex come from one whole-graph pass of the
forward triangle-listing algorithm (Schank & Wagner, WEA 2005): each
triangle is listed exactly once and credits its opposite edge's colour to
each of its three corners, in O(m^1.5) time. The pass keeps each vertex's
higher-ranked neighbours in one of two forms. A dense graph gets one integer
bitset row per vertex and intersects rows with ``&``; a sparse graph gets
one dict per vertex and intersects key views, in O(m) memory. The rows are
used only when a bound on their size, worked out from the vertex and edge
counts before any row is built, is no larger than the dicts they replace
(see ``EdgeColouredGraph._count_open``). The pass runs the first time any
vertex of a graph is profiled, and its counts are cached on the graph as
the pass's internal table, which no profile hands out.
``profile_by_edge_scan`` never reads that cache; it is the independent
oracle the pass is checked against.

The constructor reads its edges once, from any iterable of (u, v, colour)
rows; every builder in ``construct`` hands it a stream and keeps no per-edge
list. A graph keeps one {neighbour: colour} dict per vertex and nothing
else per edge. Its sorted edge tuple ``edges`` is a copy made from those
dicts on each read and kept by no graph; nothing in the package reads it.
"""

from __future__ import annotations

import json
import struct
import sys
from itertools import chain, compress, repeat
from operator import add
from typing import Callable, Iterable, Iterator

from .group import ENUMERATION_LIMIT, _Record, _check_limit

__all__ = ["EdgeColouredGraph", "VertexColourProfile"]

Edge = tuple[int, int, int]

# Most edges a builder lists or a graph file holds. Building takes about
# 0.3-1.2 us per edge (CPython 3.11), and its peak memory is mostly the
# finished graph's per-vertex dicts: 100-140 bytes per edge on Cayley graphs
# and products of cycles, 110-180 on a path times K2 and up to 340 on a path
# times K1, which has about one edge per vertex. So the largest allowed graph
# builds in about 1 s, and in under 150 MB when its vertices have several
# edges each (under 350 MB at worst). Each builder checks its closed-form edge
# count before it lists any edge, and a graph file its row count before it
# converts any row.
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

    __slots__ = ("vertex_count", "colour_count", "_adj", "_open")

    def __init__(self, vertex_count: int, colour_count: int, edges: Iterable[Edge]):
        if vertex_count < 0:
            raise ValueError(f"vertex count must be >= 0, got {vertex_count}")
        _check_limit(vertex_count, "vertex count {}")
        if colour_count < 1:
            raise ValueError(f"colour count must be >= 1, got {colour_count}")
        # Profiles hold k counters per vertex and the open-count pass one row of k per vertex.
        _check_limit(colour_count, "colour count {}")
        if vertex_count * colour_count > 16 * ENUMERATION_LIMIT:
            raise ValueError(
                f"vertex count {vertex_count} times colour count {colour_count} is "
                f"{vertex_count * colour_count}, over the limit {16 * ENUMERATION_LIMIT}")
        # One {neighbour: colour} dict per vertex; it also collapses repeated edges.
        adj: list[dict[int, int]] = [{} for _ in range(vertex_count)]
        # Unpacking in the for target lets a zip stream reuse one row tuple throughout.
        for u, v, c in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge endpoint out of range: {(u, v, c)}")
            if u == v:
                raise ValueError(f"loop edges are not allowed: {(u, v, c)}")
            if not (1 <= c <= colour_count):
                raise ValueError(f"colour {c} outside 1..{colour_count}: {(u, v, c)}")
            seen = adj[u].setdefault(v, c)
            if seen != c:
                key = (u, v) if u < v else (v, u)
                raise ValueError(f"vertex pair {key} carries two colours: {seen} and {c}")
            adj[v][u] = c
        self.vertex_count = vertex_count
        self.colour_count = colour_count
        self._adj = tuple(adj)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge once as (u, v, colour) with u < v, sorted: a new copy on each read."""
        return tuple((u, v, nbrs[v]) for u, nbrs in enumerate(self._adj)
                     for v in sorted(nbrs) if v > u)

    def _edge_stream(self) -> Iterator[Edge]:
        """Every edge once as (u, v, colour) with u < v, in adjacency order,
        not sorted: per vertex u, C-level iterators over its dict. Builders
        and counts read this, so no sorted copy of the edges is made for them."""
        return chain.from_iterable(
            compress(zip(repeat(u), nbrs, nbrs.values()), map(u.__lt__, nbrs))
            for u, nbrs in enumerate(self._adj))

    def _edge_count(self) -> int:
        """len(edges), from the adjacency sizes, without building the edges."""
        return sum(map(len, self._adj)) // 2

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
        self._check_vertex(v)
        return frozenset([v, *self._adj[v]])

    def count_coloured_edges(self, vertices: Iterable[int], colour: int) -> int:
        """Number of colour-j edges with both endpoints in the given set."""
        if not (1 <= colour <= self.colour_count):
            raise ValueError(f"colour {colour} outside 1..{self.colour_count}")
        s = set(vertices)
        for v in s:
            self._check_vertex(v)
        return sum(1 for u, v, c in self._edge_stream() if c == colour and u in s and v in s)

    def vertex_profile(self, v: int) -> VertexColourProfile:
        """Profile of v: degrees from its adjacency; closed counts add the open
        counts of the graph's triangle-listing pass, which runs on the first call only."""
        self._check_vertex(v)
        deg = [0] * (self.colour_count + 1)  # indexed by colour; slot 0 is dropped
        for c in self._adj[v].values():
            deg[c] += 1
        del deg[0]
        try:
            open_counts = self._open[v]
        except AttributeError:
            object.__setattr__(self, "_open", self._count_open())
            open_counts = self._open[v]
        return VertexColourProfile(tuple(deg), tuple(map(add, open_counts, deg)))

    def profiles(self) -> Iterator[VertexColourProfile]:
        """Every vertex's profile in vertex order, each made as it is read:
        the one loop over all vertices that audits and verification share."""
        return map(self.vertex_profile, range(self.vertex_count))

    def _count_open(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex open counts, listing each triangle once (forward algorithm).

        Vertices are ranked by (degree, index). A triangle u < w < x in rank
        order is found only from the forward edge u->w, as a higher-ranked
        neighbour x common to u and w; the edge opposite each corner then adds
        one to that corner's count. The higher-ranked neighbours of each
        vertex are kept in one of two forms:

        - bitset rows (``_open_by_bitsets``): one int per vertex, with bit
          n-1-r set for each higher-ranked neighbour of rank r. The row of the
          vertex of rank r has bits below n-1-r only, so the n rows hold at
          most n(n-1)/2 bits. In 30-bit digits of 4 bytes (``sys.int_info``
          on 64-bit CPython) that is at most n(n-1)/15 bytes.
        - forward dicts (``_open_by_dicts``): one {neighbour: colour} dict per
          vertex, holding each of the m edges once. Each entry takes at least
          24 bytes (hash, key and value pointers), so at least 24m bytes.

        The rows are built only when their bound is no larger than the dicts'
        floor, n(n-1)/15 <= 24m, that is n(n-1) <= 360m on 64-bit CPython: an
        average degree of at least (n-1)/180. Object headers are left out on
        both sides; an int's is smaller than a dict's. The check uses n and m
        alone and runs before either form is built. Bits are made by
        shifting, with no table of powers of two, which would take O(n^2)
        bits of its own.
        """
        adj = self._adj
        n = self.vertex_count
        order = sorted(range(n), key=lambda v: (len(adj[v]), v))
        rank = [0] * n
        for r, v in enumerate(order):
            rank[v] = r
        counts = [[0] * (self.colour_count + 1) for _ in adj]  # indexed by colour; slot 0 unused
        if n * (n - 1) * _DIGIT_BYTES <= 2 * _DIGIT_BITS * _DICT_ENTRY_BYTES * self._edge_count():
            _open_by_bitsets(adj, order, rank, counts)
        else:
            _open_by_dicts(adj, rank, counts)
        # Tuple rows without slot 0: each is 24 bytes smaller than its kernel row.
        return tuple([tuple(row[1:]) for row in counts])

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
            higher = sorted([v for v in nbrs if v > u])
            if higher:
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


def _open_by_bitsets(adj, order, rank, counts) -> None:
    """Add open counts from bitset rows into ``counts``, one row per vertex
    indexed by colour: the common higher-ranked neighbours of a forward edge
    u->w are the bits of ``rows[u] & rows[w]``, taken from the top bit down,
    so the lowest-ranked first."""
    top = len(order) - 1
    bit_of = [top - r for r in rank]
    rows = []
    for nbrs, below in zip(adj, bit_of):
        row = 0
        for w in nbrs:
            p = bit_of[w]
            if p < below:
                row |= 1 << p
        rows.append(row)
    by_bit = order[::-1]
    for u, au in enumerate(adj):
        bu = rows[u]
        if not bu:
            continue
        below = bit_of[u]
        cu = counts[u]
        for w, c in au.items():
            if bit_of[w] >= below:
                continue
            common = bu & rows[w]
            if not common:
                continue
            aw = adj[w]
            cw = counts[w]
            while common:
                p = common.bit_length() - 1
                common ^= 1 << p
                x = by_bit[p]
                counts[x][c] += 1
                cw[au[x]] += 1
                cu[aw[x]] += 1


def _open_by_dicts(adj, rank, counts) -> None:
    """Add open counts from forward dicts into ``counts``, as
    ``_open_by_bitsets`` does: the common higher-ranked neighbours of a
    forward edge u->w are the keys both dicts share."""
    fwd = [{w: c for w, c in nbrs.items() if rank[w] > rank[v]} for v, nbrs in enumerate(adj)]
    for u, fu in enumerate(fwd):
        cu = counts[u]
        for w, c in fu.items():
            fw = fwd[w]
            cw = counts[w]
            for x in fu.keys() & fw.keys():
                counts[x][c] += 1
                cw[fu[x]] += 1
                cu[fw[x]] += 1
