"""Edge-coloured graph container: profiles, serialization, invariants.

The profile routines are the measurement instrument for everything else in
the package, so they get a dual-implementation cross-check here.
"""

import contextlib
import json
import random
import struct
import sys
import tracemalloc
from operator import add

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flipforge import ecgraph
from flipforge.analysis import verify_flip
from flipforge.ecgraph import EdgeColouredGraph


def random_graph(rng, max_vertices=10, max_colours=4):
    n = rng.randint(1, max_vertices)
    k = rng.randint(1, max_colours)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.45:
                edges.append((u, v, rng.randint(1, k)))
    return EdgeColouredGraph(n, k, edges)


C4_ALTERNATING = EdgeColouredGraph(4, 2, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)])


@contextlib.contextmanager
def edges_unread():
    """While open, every read of ``EdgeColouredGraph.edges`` fails, so a flow
    run inside makes no sorted copy of any graph's edges, kept or transient."""
    def refuse(self):
        raise AssertionError("EdgeColouredGraph.edges was read")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EdgeColouredGraph, "edges", property(refuse))
        yield


def test_constructor_validation():
    with pytest.raises(ValueError):
        EdgeColouredGraph(-1, 1, [])
    with pytest.raises(ValueError):
        EdgeColouredGraph(2, 0, [])
    with pytest.raises(ValueError):
        EdgeColouredGraph(2, 1, [(0, 2, 1)])
    with pytest.raises(ValueError):
        EdgeColouredGraph(2, 1, [(0, 0, 1)])
    with pytest.raises(ValueError):
        EdgeColouredGraph(2, 1, [(0, 1, 2)])
    with pytest.raises(ValueError):
        EdgeColouredGraph(2, 2, [(0, 1, 1), (1, 0, 2)])  # one pair, two colours


@pytest.mark.parametrize("n, k, message", [
    (3, 10**12, "colour count 1000000000000 exceeds enumeration limit 1000000"),
    (2000, 2 * 10**6, "colour count 2000000 exceeds enumeration limit 1000000"),
    (17, 10**6, "vertex count 17 times colour count 1000000 is 17000000, over the limit 16000000"),
    (10**6, 17, "vertex count 1000000 times colour count 17 is 17000000, over the limit 16000000"),
])
def test_colour_count_limits(n, k, message):
    """Profiles and the open-count pass hold k counters per vertex, so k and
    n * k are bounded before anything is allocated."""
    with pytest.raises(ValueError) as info:
        EdgeColouredGraph(n, k, [(0, 1, 1)])
    assert str(info.value) == message


def test_colour_count_limits_are_inclusive():
    g = EdgeColouredGraph(16, 10**6, [(0, 1, 10**6)])
    assert g.colour_count * g.vertex_count == 16 * 10**6


@pytest.mark.parametrize("edges, message", [
    ([(0, 1, 1), (1, 0, 2)], "vertex pair (0, 1) carries two colours: 1 and 2"),
    ([(1, 0, 2), (0, 1, 1)], "vertex pair (0, 1) carries two colours: 2 and 1"),
    ([(2, 1, 1), (1, 2, 1), (2, 1, 3)], "vertex pair (1, 2) carries two colours: 1 and 3"),
])
def test_two_colours_on_one_pair_message(edges, message):
    with pytest.raises(ValueError) as info:
        EdgeColouredGraph(3, 3, edges)
    assert str(info.value) == message


def reference_build(vertex_count, edges):
    """The pair-dict constructor the adjacency dicts replaced: one dict entry
    per vertex pair, then sorted edges, sorted (higher neighbour, colour)
    lists and sorted neighbour lists."""
    pair = {}
    for u, v, c in edges:
        key = (u, v) if u < v else (v, u)
        seen = pair.get(key)
        if seen is not None and seen != c:
            raise ValueError(f"vertex pair {key} carries two colours: {seen} and {c}")
        pair[key] = c
    upper = [[] for _ in range(vertex_count)]
    neighbours = [[] for _ in range(vertex_count)]
    for (u, v), c in pair.items():
        upper[u].append((v, c))
        neighbours[u].append(v)
        neighbours[v].append(u)
    edges = tuple(sorted((u, v, c) for (u, v), c in pair.items()))
    return edges, [sorted(nbrs) for nbrs in upper], [sorted(nbrs) for nbrs in neighbours]


@st.composite
def edge_lists(draw):
    """Edges in any order and orientation, some repeated, over vertices that
    include isolated ones; in about a quarter of the lists one pair is
    repeated with a second colour."""
    n = draw(st.integers(2, 30))
    k = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    kept = {}
    for u, v, c in draw(st.lists(st.tuples(vertex, vertex, st.integers(1, k)), max_size=120)):
        if u != v:
            kept.setdefault((min(u, v), max(u, v)), c)
    flips = draw(st.lists(st.booleans(), min_size=len(kept), max_size=len(kept)))
    edges = [(v, u, c) if flip else (u, v, c) for ((u, v), c), flip in zip(kept.items(), flips)]
    if edges:
        repeats = draw(st.lists(st.sampled_from(edges), max_size=20))
        edges += [(v, u, c) for u, v, c in repeats[::2]] + repeats[1::2]
        if k > 1 and draw(st.integers(0, 3)) == 0:
            u, v, c = draw(st.sampled_from(edges))
            edges.append((u, v, draw(st.integers(1, k).filter(lambda x: x != c))))
    return n + draw(st.integers(0, 5)), k, draw(st.permutations(edges))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(edge_lists())
def test_constructor_matches_pair_dict_reference(case):
    n, k, edges = case
    try:
        expected_edges, expected_upper, expected_neighbours = reference_build(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            EdgeColouredGraph(n, k, edges)
        assert str(info.value) == str(exc)
        return
    g = EdgeColouredGraph(n, k, edges)
    assert g.edges == expected_edges
    assert [sorted(g._adj[v].items()) for v in range(n)] == expected_upper
    assert [sorted(g.closed_neighbourhood(v) - {v}) for v in range(n)] == expected_neighbours


@settings(derandomize=True, deadline=None, max_examples=200)
@given(edge_lists())
def test_each_edge_is_stored_once_at_its_lower_endpoint(case):
    """Whatever the orientation and repetition of the rows, each distinct
    pair is one dict entry, keyed by the higher endpoint."""
    n, k, edges = case
    pairs = {(min(u, v), max(u, v)) for u, v, _ in edges}
    assume(len({(min(u, v), max(u, v), c) for u, v, c in edges}) == len(pairs))  # one colour a pair
    g = EdgeColouredGraph(n, k, edges)
    assert all(v > u for u, nbrs in enumerate(g._adj) for v in nbrs)
    assert sum(map(len, g._adj)) == len(g.edges) == len(pairs)


def test_duplicate_edges_collapse():
    g = EdgeColouredGraph(2, 1, [(0, 1, 1), (1, 0, 1)])
    assert g.edges == ((0, 1, 1),)


def test_edges_canonical_and_equal():
    g1 = EdgeColouredGraph(3, 2, [(2, 1, 2), (1, 0, 1)])
    g2 = EdgeColouredGraph(3, 2, [(0, 1, 1), (1, 2, 2)])
    assert g1 == g2
    assert g1.edges == ((0, 1, 1), (1, 2, 2))


def test_neighbours_and_edge_colour():
    g = C4_ALTERNATING
    assert sorted(g._adj[0].items()) == [(1, 1), (3, 2)]
    assert g.closed_neighbourhood(0) == frozenset({0, 1, 3})


def test_count_coloured_edges():
    g = C4_ALTERNATING
    assert g.count_coloured_edges(range(4), 1) == 2
    assert g.count_coloured_edges([0, 1, 3], 2) == 1
    assert g.count_coloured_edges([0, 2], 1) == 0
    with pytest.raises(ValueError):
        g.count_coloured_edges(range(4), 3)
    with pytest.raises(ValueError):
        g.count_coloured_edges([5], 1)


def test_profile_cross_check():
    """vertex_profile (triangle-listing pass) and profile_by_edge_scan must always agree."""
    rng = random.Random(4242)
    for _ in range(50):
        g = random_graph(rng)
        for v in range(g.vertex_count):
            fast = g.vertex_profile(v)
            slow = g.profile_by_edge_scan(v)
            assert fast == slow, f"profile mismatch at {v} of {g!r}"


def test_profiles_yield_vertex_profiles_in_order():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng)
        profiles = g.profiles()
        assert iter(profiles) is profiles  # made as they are read, not held in a list
        assert list(profiles) == [g.vertex_profile(v) for v in range(g.vertex_count)]
    assert list(EdgeColouredGraph(0, 1, []).profiles()) == []


@st.composite
def graphs_with_query_order(draw):
    """Random edges plus a coloured clique, padded with isolated vertices.

    A clique of up to 40 vertices makes bitset rows wider than one 30-bit
    digit; graphs with few edges spread over many vertices are sparse.
    """
    n = draw(st.integers(0, 50))
    k = draw(st.integers(1, 6))
    edges = []
    if n >= 2:
        vertex = st.integers(0, n - 1)
        for u, v, c in draw(st.lists(st.tuples(vertex, vertex, st.integers(1, k)), max_size=400)):
            if u != v:
                edges.append((u, v, c))
        size = min(n, draw(st.integers(0, 40)))
        clique = draw(st.lists(vertex, unique=True, min_size=size, max_size=size))
        pairs = [(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]]
        colours = draw(st.lists(st.integers(1, k), min_size=len(pairs), max_size=len(pairs)))
        edges += [(u, v, c) for (u, v), c in zip(pairs, colours)]
    kept = {}
    for u, v, c in edges:  # first colour drawn for a pair wins
        kept.setdefault((min(u, v), max(u, v)), c)
    total = n + draw(st.integers(0, 10))
    g = EdgeColouredGraph(total, k, [(u, v, c) for (u, v), c in kept.items()])
    return g, draw(st.permutations(range(total)))


def kernel_profiles(g, kernel):
    """(deg, closed) per vertex from one kernel run on the graph's own dicts,
    each table indexed by colour with slot 0 unused."""
    degrees, counts = ([[0] * (g.colour_count + 1) for _ in g._adj] for _ in range(2))
    kernel(g._adj, degrees, counts)
    return [(tuple(d[1:]), tuple(map(add, o[1:], d[1:]))) for d, o in zip(degrees, counts)]


def scan_profiles(g):
    return [(p.deg, p.e_closed) for p in map(g.profile_by_edge_scan, range(g.vertex_count))]


KERNELS = (ecgraph._open_by_bitsets, ecgraph._open_by_dicts)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(graphs_with_query_order())
def test_profile_matches_edge_scan_in_any_query_order(case):
    g, order = case
    for v in order:
        assert g.vertex_profile(v) == g.profile_by_edge_scan(v), f"vertex {v} of {g!r}"
    # Both kernels, whichever one the size rule picks, on the graph relabelled
    # by the drawn permutation: each triangle has one lowest and one middle
    # corner under any vertex order, and the kernels orient edges by index.
    relabelled = EdgeColouredGraph(g.vertex_count, g.colour_count,
                                   [(order[u], order[v], c) for u, v, c in g._edge_stream()])
    expected = scan_profiles(relabelled)
    assert [expected[order[v]] for v in range(g.vertex_count)] == scan_profiles(g)
    for kernel in KERNELS:
        assert kernel_profiles(relabelled, kernel) == expected, kernel.__name__


def skewed_graph(shape, n=600, m=950):
    """A sparse graph whose high-degree vertices sit at one end of the index
    range, so that index orientation gives them all or none of their edges:
    a hub at 0 or at n-1 joined to every other vertex, or a 25-clique on
    0..24, then a perfect matching and random chords up to m edges."""
    rng = random.Random(shape)
    if shape == "clique-low":
        pairs = [(u, v) for u in range(25) for v in range(u + 1, 25)]
    else:
        hub = 0 if shape == "hub-low" else n - 1
        pairs = [(min(hub, v), max(hub, v)) for v in range(n) if v != hub]
    kept = dict.fromkeys(pairs + [(u, u + 1) for u in range(0, n, 2)])
    while len(kept) < m:
        kept.setdefault(tuple(sorted(rng.sample(range(n), 2))))
    return EdgeColouredGraph(n, 3, [(u, v, rng.randint(1, 3)) for u, v in kept])


@pytest.mark.parametrize("shape", ["hub-low", "hub-high", "clique-low"])
def test_skewed_sparse_graphs_through_both_kernels(monkeypatch, shape):
    """The size rule picks the dicts here; both kernels, and the profiles,
    agree with the edge-scan oracle at every vertex."""
    g = skewed_graph(shape)
    expected = scan_profiles(g)
    assert any(closed != deg for deg, closed in expected)  # some vertex is in a triangle
    for kernel in KERNELS:
        assert kernel_profiles(g, kernel) == expected, kernel.__name__
    ran = record_kernels(monkeypatch)
    assert [(p.deg, p.e_closed) for p in g.profiles()] == expected
    assert ran == ["_open_by_dicts"]


def count_passes(monkeypatch):
    """Count runs of the graph-wide triangle-listing pass."""
    passes = []
    count_open = EdgeColouredGraph._count_open

    def counting(self):
        passes.append(self)
        return count_open(self)

    monkeypatch.setattr(EdgeColouredGraph, "_count_open", counting)
    return passes


def record_kernels(monkeypatch):
    """Record which open-count kernel each pass runs."""
    ran = []
    for name in ("_open_by_bitsets", "_open_by_dicts"):
        kernel = getattr(ecgraph, name)

        def recording(*args, _name=name, _kernel=kernel):
            ran.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(ecgraph, name, recording)
    return ran


# The pass builds bitset rows when n(n-1) * digit bytes <= 2 * digit bits *
# dict entry bytes * m, that is n(n-1) <= BREAK_EVEN * m (360 on 64-bit CPython).
BREAK_EVEN = 2 * sys.int_info.bits_per_digit * 3 * struct.calcsize("P") // sys.int_info.sizeof_digit


@pytest.mark.parametrize("extra, kernel", [
    ([(1, 2, 1)], "_open_by_bitsets"),
    ([], "_open_by_dicts"),
], ids=["just-inside", "just-outside"])
def test_size_rule_picks_the_kernel(monkeypatch, extra, kernel):
    """n = BREAK_EVEN + 1 vertices: n - 1 edges (a fan from vertex 0) is just
    outside the bitset rule, and one more edge (closing a triangle) just inside."""
    ran = record_kernels(monkeypatch)
    n = BREAK_EVEN + 1
    g = EdgeColouredGraph(n, 2, [(0, v, 1 + v % 2) for v in range(1, n)] + extra)
    assert [g.vertex_profile(v) for v in range(n)] == [g.profile_by_edge_scan(v) for v in range(n)]
    assert ran == [kernel]


def test_sparse_graph_pass_memory(monkeypatch):
    """On a sparse graph the pass reads the graph's own dicts, O(m) memory:
    about 18 MB of peak allocation here, where bitset rows could take up to
    n(n-1)/15 bytes, about 167 MB."""
    ran = record_kernels(monkeypatch)
    rng = random.Random(50_000)
    n, m = 50_000, 150_000
    kept = {}
    while len(kept) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            kept.setdefault((min(u, v), max(u, v)), rng.randint(1, 3))
    g = EdgeColouredGraph(n, 3, [(u, v, c) for (u, v), c in kept.items()])
    tracemalloc.start()
    try:
        degrees, closed = g._count_open()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ran == ["_open_by_dicts"]
    assert peak < 40_000_000, peak
    assert len(degrees) == len(closed) == n


def test_profile_pass_runs_once_per_graph(monkeypatch):
    passes = count_passes(monkeypatch)
    g = EdgeColouredGraph(5, 2, [(0, 1, 1), (1, 2, 2), (0, 2, 1), (2, 3, 2), (3, 4, 1)])
    first = verify_flip(g)
    second = verify_flip(g)
    assert first == second
    assert passes == [g]
    # an equal graph built separately has its own cache
    twin = EdgeColouredGraph(5, 2, g.edges)
    twin.vertex_profile(4)
    assert len(passes) == 2 and passes[1] is twin


def test_edge_scan_never_runs_the_pass(monkeypatch):
    passes = count_passes(monkeypatch)
    g = EdgeColouredGraph(4, 2, C4_ALTERNATING.edges + ((0, 2, 1),))
    scanned = [g.profile_by_edge_scan(v) for v in range(g.vertex_count)]
    assert passes == []
    assert [g.vertex_profile(v) for v in range(g.vertex_count)] == scanned
    assert passes == [g]


def test_degree_handshake():
    rng = random.Random(4244)
    for _ in range(30):
        g = random_graph(rng)
        for c in range(1, g.colour_count + 1):
            total = sum(g.vertex_profile(v).deg[c - 1] for v in range(g.vertex_count))
            assert total == 2 * sum(1 for e in g.edges if e[2] == c)


def test_with_colour_count():
    g = C4_ALTERNATING.with_colour_count(4)
    assert g.colour_count == 4
    assert g.vertex_profile(0).deg == (1, 1, 0, 0)
    with pytest.raises(ValueError):
        g.with_colour_count(1)


def test_with_colour_count_leaves_the_edges_unbuilt():
    g = EdgeColouredGraph(4, 2, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)])
    with edges_unread():
        wide = g.with_colour_count(3)
    assert wide.edges == g.edges


def test_json_round_trip():
    rng = random.Random(4246)
    for _ in range(20):
        g = random_graph(rng)
        assert EdgeColouredGraph.from_json(g.to_json()) == g
    text = C4_ALTERNATING.to_json()
    assert text == C4_ALTERNATING.to_json()  # deterministic bytes
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["vertices"] == 4
    assert data["colours"] == 2
    assert data["edges"][0] == [0, 1, 1]


def test_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        EdgeColouredGraph.from_json("{not json")
    with pytest.raises(ValueError):
        EdgeColouredGraph.from_json('{"vertices": 2, "edges": []}')
    with pytest.raises(ValueError):
        EdgeColouredGraph.from_json_dict({"vertices": 2, "colours": 1, "edges": [[0, 1]]})
    with pytest.raises(ValueError, match="^malformed graph JSON: nested too deeply$"):
        EdgeColouredGraph.from_json("[" * 100_000)


@st.composite
def json_graphs(draw):
    """Up to 12 colours, vertex ids of up to four digits, possibly no edges or no vertices."""
    n = draw(st.integers(0, 2000))
    k = draw(st.integers(1, 12))
    kept = {}
    if n >= 2:
        # Ids from both ends of the range, so wide ones are common.
        vertex = st.integers(0, n - 1) | st.integers(0, n - 1).map(lambda x: n - 1 - x)
        for u, v, c in draw(st.lists(st.tuples(vertex, vertex, st.integers(1, k)), max_size=60)):
            if u != v:
                kept.setdefault((min(u, v), max(u, v)), c)
    return EdgeColouredGraph(n, k, [(u, v, c) for (u, v), c in kept.items()])


def indent_2_layout(g):
    """The reference bytes for ``to_json``, built from the graph's public
    fields alone and laid out by ``json.dumps``."""
    data = {"vertices": g.vertex_count, "colours": g.colour_count,
            "edges": [list(e) for e in g.edges]}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(json_graphs())
def test_to_json_is_the_indent_2_layout(g):
    text = g.to_json()
    assert text == indent_2_layout(g)
    assert EdgeColouredGraph.from_json(text) == g


@settings(derandomize=True, deadline=None, max_examples=100)
@given(json_graphs())
def test_edge_count_is_the_edge_tuple_length(g):
    assert g._edge_count() == len(g.edges)
    assert repr(g).endswith(f"edges={len(g.edges)})")


def test_from_json_counts_rows_before_reading_any(monkeypatch):
    monkeypatch.setattr(ecgraph, "EDGE_LIMIT", 3)
    row = [0, 1, "not read"]
    with pytest.raises(ValueError) as info:
        EdgeColouredGraph.from_json_dict({"vertices": 2, "colours": 1, "edges": [row] * 4})
    assert str(info.value) == "graph JSON would have 4 edges, over the limit 3"
    g = EdgeColouredGraph.from_json_dict(
        {"vertices": 3, "colours": 1, "edges": [[0, 1, 1], [1, 2, 1], [0, 1, 1]]})
    assert g.edges == ((0, 1, 1), (1, 2, 1))


def test_malformed_row_is_named_after_an_earlier_constructor_error():
    """The constructor meets the bad endpoint, colour or pair first; the
    malformed row after it is still the one reported."""
    for bad in ([0, 9, 1], [2, 2, 1], [0, 2, 3], [0, 1, 2]):
        data = {"vertices": 3, "colours": 2, "edges": [[0, 1, 1], bad, [0, 1, 2, 1], [1, 2]]}
        with pytest.raises(ValueError) as info:
            EdgeColouredGraph.from_json_dict(data)
        assert str(info.value) == "malformed edge entry (0, 1, 2, 1)"


@pytest.mark.parametrize("edges, kind", [
    ({}, "dict"), ({"a": [0, 1, 1]}, "dict"), ("", "str"), ("abc", "str"), (5, "int"),
    (None, "NoneType"), (((0, 1, 1),), "tuple"),
], ids=["empty-object", "object", "empty-string", "string", "int", "null", "tuple"])
def test_from_json_dict_refuses_edges_that_are_not_a_list(monkeypatch, edges, kind):
    """Only a list is an edge list: an object or string is not read as no rows
    or as rows of characters, and a tuple from Python does not get past the
    row count."""
    monkeypatch.setattr(ecgraph, "EDGE_LIMIT", 0)
    with pytest.raises(ValueError) as info:
        EdgeColouredGraph.from_json_dict({"vertices": 2, "colours": 1, "edges": edges})
    assert str(info.value) == f"malformed graph JSON: edges must be a list, got {kind}"


def three_pass_from_json_dict(data):
    """Reference reader: every row's type, length and entries are checked in
    whole-file passes before the constructor sees any row."""
    try:
        vertices = data["vertices"]
        colours = data["colours"]
        edges = data["edges"]
        if type(edges) is not list:
            raise ValueError(f"malformed graph JSON: edges must be a list, got {type(edges).__name__}")
        ecgraph._check_edge_count(len(edges), "graph JSON")
        if not set(map(type, edges)) <= {list}:
            edges = [tuple(e) for e in edges]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from None
    if type(vertices) is not int or type(colours) is not int:
        raise ValueError(
            f"vertices and colours must be integers, got {vertices!r} and {colours!r}")
    for e in edges:
        if len(e) != 3 or any(type(x) is not int for x in e):
            raise ValueError(f"malformed edge entry {tuple(e)!r}")
    return EdgeColouredGraph(vertices, colours, edges)


def outcome(read, data):
    try:
        return read(data)
    except ValueError as exc:
        return str(exc)


# JSON values a graph file may hold where an edge row or entry belongs.
json_scalars = st.sampled_from([None, True, False, 1.0, "1", "ab", 7, -1, 3])
json_rows = (st.lists(st.integers(-1, 4), min_size=3, max_size=3)
             | st.lists(st.integers(-1, 4) | json_scalars, min_size=3, max_size=3)
             | st.lists(st.integers(-1, 4), max_size=5)
             | json_scalars
             | st.dictionaries(st.sampled_from("abc"), st.integers(0, 3), max_size=3))


@settings(derandomize=True, deadline=None, max_examples=400)
@example(vertices=3, colours=1, edges=[[0, 1, True]])
@given(vertices=st.integers(-1, 4) | st.just("3"), colours=st.integers(0, 3) | st.just(None),
       edges=st.lists(json_rows, max_size=6) | json_scalars | st.dictionaries(
           st.sampled_from("xyz"), st.integers(0, 3), max_size=3))
def test_from_json_dict_matches_the_three_pass_reader(vertices, colours, edges):
    """Same graph or the same message as checking every row before building."""
    data = {"vertices": vertices, "colours": colours, "edges": edges}
    expected = outcome(three_pass_from_json_dict, data)
    assert outcome(EdgeColouredGraph.from_json_dict, data) == expected


@pytest.mark.parametrize("row, message", [
    ([0, 3, 1], "edge endpoint out of range: (0, 3, 1)"),
    ([1, 1, 1], "loop edges are not allowed: (1, 1, 1)"),
    ([0, 1, 2], "colour 2 outside 1..1: (0, 1, 2)"),
])
def test_constructor_names_a_list_row_as_a_tuple(row, message):
    """File rows reach the constructor as lists; its errors name them as tuples."""
    with pytest.raises(ValueError) as info:
        EdgeColouredGraph(3, 1, [row])
    assert str(info.value) == message


@pytest.mark.parametrize("row, message", [
    ((0, 3, 1), "edge endpoint out of range: (0, 3, 1)"),
    ((1, 1, 1), "loop edges are not allowed: (1, 1, 1)"),
    ((0, 1, 2), "colour 2 outside 1..1: (0, 1, 2)"),
])
def test_constructor_names_an_iterator_row(row, message):
    """A row that can be read only once is still named in full."""
    with pytest.raises(ValueError) as info:
        EdgeColouredGraph(3, 1, [iter(row)])
    assert str(info.value) == message


@pytest.mark.parametrize("first", range(4))
def test_from_json_names_the_first_malformed_row(first):
    bad = [[0, 1], [0, 1, True], [0, "1", 1], [0, 1, 1.0]]
    rows = [[0, 1, 1], *bad[first:], [1, 2, 1], *bad[:first]]
    text = json.dumps({"vertices": 3, "colours": 1, "edges": rows})
    expected = ["(0, 1)", "(0, 1, True)", "(0, '1', 1)", "(0, 1, 1.0)"][first]
    with pytest.raises(ValueError) as info:
        EdgeColouredGraph.from_json(text)
    assert str(info.value) == f"malformed edge entry {expected}"


def test_to_dot():
    dot = C4_ALTERNATING.to_dot()
    assert dot.startswith("graph G {")
    assert '0 -- 1 [color="blue", label="1"];' in dot
    assert '1 -- 2 [color="red", label="2"];' in dot
    assert dot.endswith("}\n")
    # palette wraps around after ten colours
    big = EdgeColouredGraph(2, 11, [(0, 1, 11)])
    assert 'color="blue"' in big.to_dot()


def per_edge_dot(g):
    """The reference bytes for ``to_dot``: one f-string per edge of ``edges``."""
    lines = ["graph G {"]
    for u, v, c in g.edges:
        colour = ecgraph.DOT_PALETTE[(c - 1) % len(ecgraph.DOT_PALETTE)]
        lines.append(f'  {u} -- {v} [color="{colour}", label="{c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(json_graphs())
def test_to_dot_is_the_per_edge_layout(g):
    """``json_graphs`` draws up to 12 colours, so the palette wraps."""
    assert g.to_dot() == per_edge_dot(g)


def test_writers_build_no_edge_tuple():
    g = EdgeColouredGraph(4, 2, [(2, 3, 1), (0, 1, 1), (1, 2, 2), (0, 3, 2)])
    with edges_unread():
        g.to_json()
        g.to_dot()


def test_edges_is_a_copy_made_per_read():
    """A graph keeps no sorted edge tuple: each read makes a new one, and
    dropping it frees it, but for the few thousand row tuples the interpreter
    keeps on its free list. The copy is measured before any other read, and
    the cycle is long, so that free list cannot hide it."""
    n = 20000
    g = EdgeColouredGraph(n, 2, [(i, (i + 1) % n, 1 + i % 2) for i in range(n)])
    tracemalloc.start()
    try:
        edges = g.edges
        held = tracemalloc.get_traced_memory()[0]
        del edges
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held > 50 * n and kept < held / 4


@pytest.mark.parametrize("write", [EdgeColouredGraph.to_json, EdgeColouredGraph.to_dot])
def test_writers_cost_follows_the_edges(write):
    """One edge over a million colours: nothing is made per colour."""
    g = EdgeColouredGraph(2, 10**6, [(0, 1, 1)])
    tracemalloc.start()
    try:
        write(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_immutability():
    g = EdgeColouredGraph(3, 1, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    with pytest.raises(AttributeError):
        g.vertex_count = 5
    # filling the profile cache leaves the graph read-only
    assert g.vertex_profile(0).e_closed == (3,)
    for name in ("vertex_count", "edges", "_adj", "_rows"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    assert g.vertex_profile(2).e_closed == (3,)


def test_empty_graph():
    g = EdgeColouredGraph(0, 1, [])
    assert g.edges == ()
    assert EdgeColouredGraph.from_json(g.to_json()) == g
    with pytest.raises(ValueError):
        g.vertex_profile(0)
