"""Cayley builds, graph products, packing arithmetic, matching amplifiers."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipforge import construct
from flipforge.analysis import verify_flip
from flipforge.construct import (
    ColouredConnectingSet,
    bipartite_matching_graph,
    cartesian_product,
    cayley_build,
    merge_connecting_sets,
    packing_delta,
    strong_product,
)
from flipforge.ecgraph import EDGE_LIMIT, EdgeColouredGraph
from flipforge.group import GroupSpec, cyclic, parse_group_text
from flipforge.pipelines import _layer_classes
from flipforge.setalg import GroupSubset, inverses, sumset
from test_ecgraph import edges_unread

Z7 = cyclic(7)
Z40 = cyclic(40)

K2_BLUE = EdgeColouredGraph(2, 2, [(0, 1, 1)])
K2_RED = EdgeColouredGraph(2, 2, [(0, 1, 2)])


def symmetric_subset(rng, spec, max_pairs=3):
    """Random inverse-closed identity-free subset."""
    members = set()
    pool = [x for x in spec.elements() if x != (0,) * len(spec.factors)]
    for _ in range(rng.randint(1, max_pairs)):
        x = rng.choice(pool)
        members.add(x)
        members.add(tuple(-y % n for y, n in zip(x, spec.factors)))
    return GroupSubset.of(spec, members)


def random_coloured_graph(rng, max_vertices=8, colours=3):
    n = rng.randint(1, max_vertices)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append((u, v, rng.randint(1, colours)))
    return EdgeColouredGraph(n, colours, edges)


# ---------------------------------------------------------------- connecting sets


def test_connecting_set_validation():
    good = GroupSubset.of(Z7, [1, 6])
    with pytest.raises(ValueError):
        ColouredConnectingSet.of(Z7, {})
    with pytest.raises(ValueError):
        ColouredConnectingSet.of(Z7, {0: good})
    with pytest.raises(ValueError):
        ColouredConnectingSet.of(Z7, {1: GroupSubset.of(Z7, [0, 1, 6])})
    with pytest.raises(ValueError):
        ColouredConnectingSet.of(Z7, {1: GroupSubset.of(Z7, [1])})  # not inverse-closed
    with pytest.raises(ValueError):
        ColouredConnectingSet.of(Z7, {1: good, 2: GroupSubset.of(Z7, [2, 5, 6, 1])})
    with pytest.raises(ValueError):
        ColouredConnectingSet.of(Z7, {3: good}, colour_count=2)
    with pytest.raises(ValueError):
        ColouredConnectingSet.of(cyclic(8), {1: good})  # subset lives elsewhere


def test_connecting_set_checks_every_construction():
    """The record's own checks run without ``of``, and again on ``replace``."""
    one_way = ((1, GroupSubset.of(Z7, [6])),)
    with pytest.raises(ValueError, match="^class 1 is not inverse-closed$"):
        ColouredConnectingSet(Z7, one_way, 1)
    good = ColouredConnectingSet.of(Z7, {1: GroupSubset.of(Z7, [1, 6])})
    with pytest.raises(ValueError, match="^class 1 is not inverse-closed$"):
        good.replace(classes=one_way)
    with pytest.raises(ValueError, match="^colour 1 has two classes$"):
        good.replace(classes=good.classes + ((1, GroupSubset.of(Z7, [2, 5])),))
    # Classes are kept in colour order however they are given.
    pairs = ((2, GroupSubset.of(Z7, [2, 5])), (1, GroupSubset.of(Z7, [1, 6])))
    assert ColouredConnectingSet(Z7, pairs, 2).classes == pairs[::-1]


def test_connecting_set_disjointness_without_pairwise_checks(monkeypatch):
    """Disjoint classes are accepted by one size comparison, not c(c-1)/2 pair tests."""
    calls = []
    is_disjoint = GroupSubset.is_disjoint

    def counting_is_disjoint(self, other):
        calls.append(1)
        return is_disjoint(self, other)

    monkeypatch.setattr(GroupSubset, "is_disjoint", counting_is_disjoint)
    ccs = _layer_classes(300, 2)
    assert len(ccs.classes) == 297
    assert calls == []


def test_connecting_set_overlap_names_first_pair():
    z13 = cyclic(13)
    classes = {
        5: GroupSubset.of(z13, [1, 12, 5, 8]),
        4: GroupSubset.of(z13, [2, 11, 4, 9]),
        3: GroupSubset.of(z13, [3, 10]),
        2: GroupSubset.of(z13, [2, 11]),
        1: GroupSubset.of(z13, [1, 12]),
    }
    with pytest.raises(ValueError, match="^classes 1 and 5 overlap$"):
        ColouredConnectingSet.of(z13, classes)


def test_connecting_set_accessors():
    ccs = ColouredConnectingSet.of(
        Z7, {1: GroupSubset.of(Z7, [1, 6]), 2: GroupSubset.of(Z7, [2, 5])})
    assert ccs.colour_count == 2
    assert dict(ccs.classes)[2].elements == ((2,), (5,))
    assert ccs.union_elements().elements == ((1,), (2,), (5,), (6,))


def test_connecting_set_json_round_trip():
    """The file format that ``pack`` reads, pinned as a literal document."""
    ccs = ColouredConnectingSet.of(
        GroupSpec((2, 6)),
        {1: GroupSubset.of(GroupSpec((2, 6)), [(1, 0)]),
         3: GroupSubset.of(GroupSpec((2, 6)), [(0, 1), (0, 5)])},
        colour_count=4)
    document = {"group": "z:2,6", "colour_count": 4,
                "classes": {"1": [[1, 0]], "3": [[0, 1], [0, 5]]}}
    assert ColouredConnectingSet.from_json_dict(document) == ccs
    with pytest.raises(ValueError):
        ColouredConnectingSet.from_json_dict({"group": "z:7"})
    # keys "1" and "01" both mean colour 1; neither class may replace the other
    with pytest.raises(ValueError, match="^class key '01' repeats colour 1$"):
        ColouredConnectingSet.from_json_dict(
            {"group": "z:7", "classes": {"1": [[1], [6]], "01": [[2], [5]]}})


def test_cayley_build_small():
    ccs = ColouredConnectingSet.of(
        Z7, {1: GroupSubset.of(Z7, [1, 6]), 2: GroupSubset.of(Z7, [2, 5])})
    g = cayley_build(ccs)
    assert g.vertex_count == 7
    assert len(g.edges) == 14
    assert verify_flip(g).colour_degrees == (2, 2)
    # neighbours of the identity vertex are exactly the connecting elements
    assert sorted(g._adj[0].items()) == [(1, 1), (2, 2), (5, 2), (6, 1)]
    # vertex transitivity: every profile matches the identity's
    base = g.vertex_profile(0)
    for v in range(1, 7):
        p = g.vertex_profile(v)
        assert (p.deg, p.e_closed) == (base.deg, base.e_closed)


def test_cayley_build_limit():
    big = GroupSpec((1001, 1000))
    with pytest.raises(ValueError, match="exceeds enumeration limit"):
        cayley_build(ColouredConnectingSet.of(big, {1: GroupSubset.of(big, [(0, 1), (0, 999)])}))


def refused_before_listing(build, *args):
    """The ValueError ``build`` raises, checking that it allocated next to
    nothing first: no edge list was started."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    return str(info.value)


def test_cayley_build_edge_limit():
    """|G| |S| / 2 edges: 10^6 * 40 / 2 in z:1000000, over the limit."""
    big = cyclic(10**6)
    members = [x for i in range(1, 21) for x in (i, -i)]
    ccs = ColouredConnectingSet.of(big, {1: GroupSubset.of(big, members[:20]),
                                         2: GroupSubset.of(big, members[20:])})
    assert refused_before_listing(cayley_build, ccs) == (
        f"Cayley graph would have 20000000 edges, over the limit {EDGE_LIMIT}")


def complete_graph(n):
    return EdgeColouredGraph(n, 1, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])


@pytest.mark.parametrize("product, left, right, edges", [
    # |E_G| |H| + |E_H| |G| = 4950 * 101 + 5050 * 100, just over the limit
    (cartesian_product, 100, 101, 1_004_950),
    # the Cartesian 990,000 fit, and 2 |E_G| |E_H| diagonal edges do not
    (strong_product, 100, 100, 990_000 + 2 * 4950 * 4950),
])
def test_product_edge_limit(product, left, right, edges):
    message = refused_before_listing(product, complete_graph(left), complete_graph(right))
    assert message == f"product would have {edges} edges, over the limit {EDGE_LIMIT}"


def test_matching_graph_edge_limit():
    """p^2 edges for p assignments: 1001 assignments are over the limit."""
    assert refused_before_listing(bipartite_matching_graph, 2, [1, 2] * 500 + [1]) == (
        f"matching graph would have 1002001 edges, over the limit {EDGE_LIMIT}")


def cayley_edges_by_group_law(ccs):
    """Oracle: the edge tuple from an element-index dict and one group
    addition per edge, deduplicated in a set."""
    spec = ccs.spec
    index = {g: i for i, g in enumerate(spec.elements())}
    edges = set()
    for colour, subset in ccs.classes:
        for s in subset.elements:
            for g, gi in index.items():
                hi = index[tuple((a + b) % n for a, b, n in zip(g, s, spec.factors))]
                edges.add((min(gi, hi), max(gi, hi), colour))
    return tuple(sorted(edges))


@st.composite
def connecting_sets(draw):
    """Disjoint symmetric classes over 1 to 3 cyclic factors, involutions included."""
    factors = tuple(draw(st.lists(st.integers(2, 12), min_size=1, max_size=3)))
    spec = GroupSpec(factors)
    element = st.tuples(*(st.integers(0, n - 1) for n in factors))
    picks = draw(st.lists(element, min_size=2, max_size=10))
    # An element whose residues are all 0 or n/2 is its own inverse.
    halves = st.tuples(*(st.sampled_from((0, n // 2)) if n % 2 == 0 else st.just(0)
                         for n in factors))
    picks += draw(st.lists(halves, max_size=2))
    colour_count = draw(st.integers(1, 4))
    classes = {c: set() for c in range(1, colour_count + 1)}
    used = {(0,) * len(spec.factors)}
    for x in picks:
        if x not in used:
            pair = {x, tuple(-y % n for y, n in zip(x, spec.factors))}
            used |= pair
            classes[draw(st.integers(1, colour_count))] |= pair
    return ColouredConnectingSet.of(
        spec, {c: GroupSubset.of(spec, members) for c, members in classes.items()})


@settings(derandomize=True, deadline=None, max_examples=150)
@given(connecting_sets())
def test_cayley_build_matches_group_law(ccs):
    g = cayley_build(ccs)
    assert (g.vertex_count, g.colour_count) == (ccs.spec.order, ccs.colour_count)
    assert g.edges == cayley_edges_by_group_law(ccs)


@pytest.mark.parametrize("group", ["z:2,6", "z:2,2,4", "z:7", "z:2,2,2,2", "z:3,6"])
def test_cayley_build_lists_each_edge_once(monkeypatch, group):
    """Every non-identity element connects, involutions included where the
    group has them (not in z:7; every element of z:2,2,2,2 is one); the
    constructor gets no repeated edge."""
    spec = parse_group_text(group)
    classes, used = {1: set(), 2: set()}, set()
    for x in spec.elements():
        if any(x) and x not in used:
            pair = {x, tuple(-y % n for y, n in zip(x, spec.factors))}
            used |= pair
            classes[1 + len(used) % 2] |= pair
    ccs = ColouredConnectingSet.of(
        spec, {c: GroupSubset.of(spec, members) for c, members in classes.items()})
    triples = []

    def counting(vertex_count, colour_count, edges):
        edges = list(edges)
        triples.append(len(edges))
        return EdgeColouredGraph(vertex_count, colour_count, edges)

    monkeypatch.setattr(construct, "EdgeColouredGraph", counting)
    g = cayley_build(ccs)
    assert triples == [len(g.edges)]
    assert g.edges == cayley_edges_by_group_law(ccs)


def test_merge_connecting_sets():
    a = ColouredConnectingSet.of(Z7, {1: GroupSubset.of(Z7, [1, 6])})
    b = ColouredConnectingSet.of(Z7, {1: GroupSubset.of(Z7, [2, 5])})
    c = ColouredConnectingSet.of(Z7, {2: GroupSubset.of(Z7, [2, 5])})
    merged = merge_connecting_sets(a, b)  # same colour, disjoint: union
    assert dict(merged.classes)[1].elements == ((1,), (2,), (5,), (6,))
    merged2 = merge_connecting_sets(a, c)
    assert sorted(dict(merged2.classes)) == [1, 2]
    with pytest.raises(ValueError):
        merge_connecting_sets(b, c)  # same elements on two colours


@pytest.mark.parametrize("shared, named", [
    ([(1, 3), (0, 1), (1, 1), (0, 3)], "[(0, 1), (0, 3), (1, 1), (1, 3)]"),
    ([(1, 3), (1, 1), (1, 0), (0, 3), (0, 2), (0, 1)], "[(0, 1), (0, 2), (0, 3), (1, 0)]"),
])
def test_merge_names_the_four_lowest_shared_elements(shared, named):
    spec = GroupSpec((2, 4))
    first = ColouredConnectingSet.of(spec, {1: GroupSubset.of(spec, shared)})
    second = ColouredConnectingSet.of(spec, {2: GroupSubset.of(spec, shared + [(1, 2)])})
    with pytest.raises(ValueError) as info:
        merge_connecting_sets(first, second)
    assert str(info.value) == "packing undefined, classes overlap at " + named


# ---------------------------------------------------------------------- products


def test_product_colour_count_mismatch():
    with pytest.raises(ValueError):
        strong_product(K2_BLUE, EdgeColouredGraph(2, 3, [(0, 1, 2)]))
    with pytest.raises(ValueError):
        cartesian_product(K2_BLUE, EdgeColouredGraph(2, 3, [(0, 1, 2)]))


@pytest.mark.parametrize("product", [strong_product, cartesian_product])
def test_product_vertex_count_limit(product):
    """Checked before any product edge or vertex is listed."""
    g = EdgeColouredGraph(1001, 1, [])
    h = EdgeColouredGraph(1000, 1, [])
    with pytest.raises(ValueError) as info:
        product(g, h)
    assert str(info.value) == "product vertex count 1001000 exceeds enumeration limit 1000000"


def cycle(n, colours=2):
    return EdgeColouredGraph(n, colours, [(i, (i + 1) % n, 1 + i % colours) for i in range(n)])


def path(n, colours=2):
    return EdgeColouredGraph(n, colours, [(i, i + 1, 1 + i % colours) for i in range(n - 1)])


@pytest.mark.parametrize("product", [strong_product, cartesian_product])
def test_product_leaves_the_factors_edges_unbuilt(product):
    """The products read their factors' adjacency, so no sorted copy of
    either factor's edges is made."""
    g, h = cycle(20), cycle(30)
    with edges_unread():
        product(g, h)


@pytest.mark.parametrize("product", [strong_product, cartesian_product])
def test_product_shares_one_int_per_vertex(product):
    """600 vertices, so most ids are past the interpreter's small-int cache."""
    g = product(cycle(20), cycle(30))
    keys = {id(v) for nbrs in g._adj for v in nbrs}
    assert len(keys) <= g.vertex_count == 600


def test_cayley_build_shares_one_int_per_vertex():
    """Two factors, 600 vertices: the translation tables hold the vertex ints."""
    spec = GroupSpec((2, 300))
    g = cayley_build(ColouredConnectingSet.of(spec, {
        1: GroupSubset.of(spec, [(0, 1), (0, 299)]),
        2: GroupSubset.of(spec, [(1, 0)]),
        3: GroupSubset.of(spec, [(1, 7), (1, 293)])}))
    keys = {id(v) for nbrs in g._adj for v in nbrs}
    assert len(keys) <= g.vertex_count == 600
    assert g._edge_count() == 600 * 5 // 2


def test_verify_never_builds_the_edge_tuple():
    """The profile pass reads the adjacency; only a reader of ``edges`` sorts
    it, and gets a new copy on each read."""
    ccs = ColouredConnectingSet.of(Z40, {1: GroupSubset.of(Z40, [9, 18, 22, 31]),
                                         2: GroupSubset.of(Z40, [6, 7, 20, 33, 34])})
    for g in (cayley_build(ccs), strong_product(cycle(6), cycle(8))):
        with edges_unread():
            verify_flip(g)
            assert repr(g).endswith(f"edges={sum(map(len, g._adj))})")
        assert g.edges == g.edges and g.edges is not g.edges


def test_strong_product_k2_k2():
    """K2 x K2 strong: red perfect matching inside an otherwise blue K4."""
    g = strong_product(K2_BLUE, K2_RED)
    assert g.vertex_count == 4
    assert sorted(e for e in g.edges if e[2] == 2) == [(0, 1, 2), (2, 3, 2)]
    assert sorted(e for e in g.edges if e[2] == 1) == [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)]
    for v in range(4):
        p = g.vertex_profile(v)
        assert p.deg == (2, 1)
        assert p.e_closed == (4, 2)


@st.composite
def factor_pairs(draw):
    """Two coloured graphs of 1 to 6 vertices sharing a colour count."""
    k = draw(st.integers(1, 3))

    def factor():
        n = draw(st.integers(1, 6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        colours = draw(st.lists(st.integers(0, k), min_size=len(pairs), max_size=len(pairs)))
        return EdgeColouredGraph(n, k, [(u, v, c) for (u, v), c in zip(pairs, colours) if c])

    return factor(), factor()


def product_edges_by_coordinates(g, h, strong):
    """Oracle from the module docstring: (u, v) ~ (u2, v2) with colour h(v, v2)
    when u = u2, else colour g(u, u2) when v = v2 or (strong only) v ~ v2."""
    colour_g = {frozenset(e[:2]): e[2] for e in g.edges}
    colour_h = {frozenset(e[:2]): e[2] for e in h.edges}
    nh = h.vertex_count
    cells = [(u, v) for u in range(g.vertex_count) for v in range(nh)]
    edges = set()
    for i, (u, v) in enumerate(cells):
        for u2, v2 in cells[i + 1:]:
            if u == u2:
                c = colour_h.get(frozenset((v, v2)))
            elif v == v2 or (strong and frozenset((v, v2)) in colour_h):
                c = colour_g.get(frozenset((u, u2)))
            else:
                c = None
            if c is not None:
                edges.add((u * nh + v, u2 * nh + v2, c))
    return tuple(sorted(edges))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(factor_pairs())
def test_products_match_the_coordinate_definition(factors):
    g, h = factors
    assert strong_product(g, h).edges == product_edges_by_coordinates(g, h, strong=True)
    assert cartesian_product(g, h).edges == product_edges_by_coordinates(g, h, strong=False)


@pytest.mark.parametrize("product, shape, edges", [
    (strong_product, "cycles", 48_000),
    (cartesian_product, "cycles", 24_000),
    (strong_product, "path-by-K2", 99_996),
    (cartesian_product, "path-by-K2", 59_998),
])
def test_product_streams_its_edges(product, shape, edges):
    """The builders list no edge: building a product peaks under 16 bytes per
    edge above the finished graph, where a list of edge tuples would take 64.
    The path of 20,000 vertices times K2 gives a short stream per row and per
    edge of the path; only one exists at a time."""
    g, h = (cycle(60), cycle(200)) if shape == "cycles" else (path(20_000), K2_BLUE)
    tracemalloc.start()
    try:
        graph = product(g, h)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph._edge_count() == edges
    assert peak - retained < 16 * edges


def test_cartesian_product_k2_k2():
    g = cartesian_product(K2_BLUE, K2_RED)
    assert g.vertex_count == 4
    assert len(g.edges) == 4
    for v in range(4):
        assert g.vertex_profile(v).deg == (1, 1)
        assert g.vertex_profile(v).e_closed == (1, 1)


def strong_profile_prediction(gp, hp, colours):
    """Expected profile of a strong product vertex from its factor profiles."""
    h_deg_total = sum(hp.deg)
    h_e_total = sum(hp.e_closed)
    deg = tuple(
        hp.deg[j] + gp.deg[j] * (1 + h_deg_total) for j in range(colours))
    e_closed = tuple(
        hp.e_closed[j] * (1 + sum(gp.deg))
        + gp.e_closed[j] * (1 + h_deg_total + 2 * h_e_total)
        for j in range(colours))
    return deg, e_closed


def assert_sample_matches_edge_scan(rng, graph, size=6):
    """The product predictions read vertex_profile; check a seeded sample of
    the product's vertices against the independent edge scan as well."""
    for w in rng.sample(range(graph.vertex_count), min(size, graph.vertex_count)):
        assert graph.vertex_profile(w) == graph.profile_by_edge_scan(w), w


def test_strong_product_profile_arithmetic():
    """Degrees and closed counts of the strong product from factor data alone."""
    rng = random.Random(220)
    sample_rng = random.Random(222)
    for _ in range(60):
        g = random_coloured_graph(rng)
        h = random_coloured_graph(rng)
        prod = strong_product(g, h)
        for u in range(g.vertex_count):
            gp = g.vertex_profile(u)
            for v in range(h.vertex_count):
                hp = h.vertex_profile(v)
                want_deg, want_e = strong_profile_prediction(gp, hp, g.colour_count)
                got = prod.vertex_profile(u * h.vertex_count + v)
                assert got.deg == want_deg, (u, v)
                assert got.e_closed == want_e, (u, v)
        assert_sample_matches_edge_scan(sample_rng, prod)


def test_cartesian_product_profile_arithmetic():
    """Cartesian products add profiles componentwise."""
    rng = random.Random(221)
    sample_rng = random.Random(223)
    for _ in range(60):
        g = random_coloured_graph(rng)
        h = random_coloured_graph(rng)
        prod = cartesian_product(g, h)
        for u in range(g.vertex_count):
            gp = g.vertex_profile(u)
            for v in range(h.vertex_count):
                hp = h.vertex_profile(v)
                got = prod.vertex_profile(u * h.vertex_count + v)
                assert got.deg == tuple(a + b for a, b in zip(gp.deg, hp.deg))
                assert got.e_closed == tuple(a + b for a, b in zip(gp.e_closed, hp.e_closed))
        assert_sample_matches_edge_scan(sample_rng, prod)


# ----------------------------------------------------------------------- packing


def test_packing_delta_landmark():
    blue = GroupSubset.of(Z40, [9, 18, 22, 31])
    red = GroupSubset.of(Z40, [6, 7, 20, 33, 34])
    report = packing_delta(Z40, blue, red)
    assert report.delta_direct == report.delta_formula
    assert report.delta_direct == 2
    assert report.e1_blue_closed == 7
    assert report.e2_red_closed == 5
    assert report.product_condition
    assert report.dominance
    assert report.flip_at_identity
    assert report.delta_formula == 2


def test_packing_delta_identity_random():
    """The two-sided difference formula agrees with direct counting."""
    rng = random.Random(222)
    cases = 0
    while cases < 40:
        spec = cyclic(rng.randint(8, 30))
        blue = symmetric_subset(rng, spec)
        red = symmetric_subset(rng, spec)
        if not blue.is_disjoint(red):
            continue
        report = packing_delta(spec, blue, red)
        assert report.delta_direct == report.delta_formula, (spec, blue, red)
        assert report.flip_at_identity == (report.delta_direct > 0)
        assert report.product_condition == sumset(red, blue).is_disjoint(red)
        # disjoint product condition plus factor dominance forces the flip sign
        if report.product_condition and report.dominance:
            assert report.flip_at_identity
        cases += 1


def test_packing_delta_rejects_overlap():
    blue = GroupSubset.of(Z7, [1, 6])
    with pytest.raises(ValueError):
        packing_delta(Z7, blue, blue)


# --------------------------------------------------------------------- matchings


def test_matching_plan_validation():
    """The part size is the number of assignments, so at least one is needed,
    and every assigned colour must lie in 1..k."""
    assert bipartite_matching_graph(2, (1, 2, 2)).vertex_count == 6
    with pytest.raises(ValueError, match="at least one matching assignment"):
        bipartite_matching_graph(1, ())
    with pytest.raises(ValueError, match=r"colour 3 outside 1\.\.2"):
        bipartite_matching_graph(2, (1, 2, 3))
    with pytest.raises(ValueError, match=r"colour 0 outside 1\.\.2"):
        bipartite_matching_graph(2, (0, 1))


def test_matching_graph_landmark():
    g = bipartite_matching_graph(4, (3, 3, 4, 4, 4))
    assert g.vertex_count == 10
    assert len(g.edges) == 25  # all of K_{5,5}
    for v in range(10):
        p = g.vertex_profile(v)
        assert p.deg == (0, 0, 2, 3)
        assert p.e_closed == (0, 0, 2, 3)


def test_matching_graph_structure():
    rng = random.Random(223)
    for _ in range(20):
        p = rng.randint(1, 7)
        k = rng.randint(1, 5)
        assignments = tuple(rng.randint(1, k) for _ in range(p))
        g = bipartite_matching_graph(k, assignments)
        # bipartite on parts {0..p-1} and {p..2p-1}
        assert all((u < p) != (v < p) for u, v, _ in g.edges)
        assert len(g.edges) == p * p
        for v in range(2 * p):
            prof = g.vertex_profile(v)
            # triangle-free, so closed counts collapse to degrees
            assert prof.e_closed == prof.deg
            assert prof.deg == tuple(
                sum(1 for c in assignments if c == j) for j in range(1, k + 1))
        assert g.vertex_count == 2 * p


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.integers(1, k), min_size=1, max_size=12))))
def test_matching_graph_edges_are_the_cyclic_shifts(case):
    k, assignments = case
    p = len(assignments)
    g = bipartite_matching_graph(k, assignments)
    assert set(g.edges) == {(i, p + (i + d) % p, colour)
                            for d, colour in enumerate(assignments) for i in range(p)}
