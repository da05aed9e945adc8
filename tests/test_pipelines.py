"""End-to-end construction pipelines: two-colour builds, layers, amplification."""

import random
import tracemalloc
from fractions import Fraction

import pytest

import flipforge.pipelines as pipelines
from flipforge.analysis import new_bound, parity_factor
from flipforge.construct import ColouredConnectingSet
from flipforge.ecgraph import EdgeColouredGraph
from flipforge.group import GroupSpec, cyclic
from flipforge.pipelines import (
    VerificationError,
    _layer_classes,
    _layer_sizes,
    _make_gaps_plan,
    build_br,
    build_gaps,
    build_sumfree_layer,
    colour_merge,
    plan_br,
    plan_gaps,
)
from flipforge.setalg import GroupSubset, is_inverse_closed, is_sum_free, sumset
from test_ecgraph import edges_unread, indent_2_layout


# ------------------------------------------------------------- two-colour plans


def test_plan_br_4_5():
    plan = plan_br(4, 5)
    assert plan.n == 40
    assert plan.parity_case == "one-odd"
    assert plan.parity_factor == 1
    assert plan.group == cyclic(40)
    assert (plan.red_base.lo, plan.red_base.hi) == (6, 7)
    assert (plan.blue_base.lo, plan.blue_base.hi) == (9, 9)
    assert (plan.blue_double.lo, plan.blue_double.hi) == (9, 9)
    assert sorted(plan.blue_set.elements) == [(9,), (18,), (22,), (31,)]
    assert sorted(plan.red_set.elements) == [(6,), (7,), (20,), (33,), (34,)]


def test_plan_br_6_7():
    plan = plan_br(6, 7)
    assert plan.n == 56
    assert sorted(plan.blue_set.elements) == [(12,), (13,), (26,), (30,), (43,), (44,)]
    assert sorted(plan.red_set.elements) == [(8,), (9,), (10,), (28,), (46,), (47,), (48,)]
    # the doubling interval is the top of the blue base
    assert (plan.blue_base.lo, plan.blue_base.hi) == (12, 13)
    assert (plan.blue_double.lo, plan.blue_double.hi) == (13, 13)


def test_plan_br_parity_cases():
    assert plan_br(10, 12).parity_case == "both-even"
    assert plan_br(10, 12).group == cyclic(80)
    assert plan_br(10, 11).parity_case == "one-odd"
    assert plan_br(11, 12).parity_case == "one-odd"
    both = plan_br(11, 13)
    assert both.parity_case == "both-odd"
    assert both.group == GroupSpec((2, 80))
    assert both.parity_factor == 2
    # the doubling adds the involution (0, n/2) to blue and (1, 0) to red
    assert (0, 40) in both.blue_set.elements
    assert (1, 0) in both.red_set.elements


def test_plan_br_set_invariants():
    """Replay the structural requirements on the final sets directly."""
    for b, r in [(4, 5), (6, 7), (9, 10), (11, 13), (14, 20)]:
        plan = plan_br(b, r)
        blue, red = plan.blue_set, plan.red_set
        assert len(blue) == b and len(red) == r
        assert blue.is_disjoint(red)
        assert not blue.contains_identity() and not red.contains_identity()
        assert is_inverse_closed(blue) and is_inverse_closed(red)
        assert is_sum_free(red)
        assert sumset(red, blue).is_disjoint(red)
        # interval placement: gap of exactly 2 between red top and blue bottom
        assert plan.blue_base.lo - plan.red_base.hi == 2


def test_plan_br_order_arithmetic():
    for b in range(4, 21):
        for r in range(b + 1, b + 2 * ((b + 2) // 6) ** 2):
            plan = plan_br(b, r)
            base = 2 + r // 2 + (b + 2) // 2 - 2 * ((b + 2) // 6)
            assert plan.n == 8 * base
            assert plan.parity_factor == parity_factor(b, r)
            assert plan.parity_factor * plan.n == new_bound(b, r)


def test_plan_br_range_errors():
    with pytest.raises(ValueError, match="b >= 4"):
        plan_br(3, 4)
    with pytest.raises(ValueError, match="r > b"):
        plan_br(4, 4)
    with pytest.raises(ValueError, match="r <"):
        plan_br(4, 6)


# ------------------------------------------------------------ two-colour builds


def test_build_br_4_5():
    graph, report = build_br(plan_br(4, 5))
    assert graph.vertex_count == 40
    assert report.passed
    assert report.colour_degrees == (4, 5)
    assert report.uniform_e_chain == (7, 5)


def test_build_br_landmarks():
    for b, r, order, chain in [
        (6, 7, 56, (9, 7)),
        (10, 11, 72, (22, 11)),
        (13, 15, 192, (31, 15)),
        (14, 21, 128, (32, 21)),
    ]:
        graph, report = build_br(plan_br(b, r))
        assert graph.vertex_count == order == new_bound(b, r)
        assert report.passed
        assert report.colour_degrees == (b, r)
        assert report.uniform_e_chain == chain


def assert_indent_2_layout(graph):
    """Compared as lists of lines: a failure then names the first differing
    line at once, where pytest's text diff of megabytes takes minutes."""
    assert graph.to_json().split("\n") == indent_2_layout(graph).split("\n")


def test_build_br_big_case():
    graph, report = build_br(plan_br(42, 135))
    assert graph.vertex_count == 616
    assert report.passed
    assert report.uniform_e_chain == (265, 155)
    assert_indent_2_layout(graph)


def test_build_br_e2_above_small_range():
    """e_2 can exceed r once red sums start landing inside neighbourhoods."""
    for b, r, excess in [(16, 17, 2), (16, 33, 2), (20, 21, 0), (42, 135, 20)]:
        _, report = build_br(plan_br(b, r))
        assert report.uniform_e_chain[1] - r == excess


def test_build_br_rejects_tampered_plan():
    plan = plan_br(4, 5)
    bad = plan.replace(blue_set=plan.red_set, red_set=plan.blue_set)
    with pytest.raises((ValueError, VerificationError)):
        build_br(bad)


def test_build_br_builds_one_connecting_set(monkeypatch):
    """plan_br has audited both sets, so build_br checks them as one connecting set once."""
    calls = []
    of = ColouredConnectingSet.of

    def counting_of(*args, **kwargs):
        calls.append(args)
        return of(*args, **kwargs)

    monkeypatch.setattr(ColouredConnectingSet, "of", staticmethod(counting_of))
    build_br(plan_br(4, 5))
    assert len(calls) == 1


def test_plan_json():
    data = plan_br(4, 5).to_json_dict()
    assert data["n"] == 40
    assert data["parity_case"] == "one-odd"
    assert data["blue_set"] == [[9], [18], [22], [31]]
    assert data["group"] == "z:40"


# ------------------------------------------------------------------ layer graphs


def test_layer_sizes():
    assert _layer_sizes(9, 2) == [6, 5, 4, 3, 2, 1]
    assert _layer_sizes(13, 3) == [9, 8, 7, 6, 5, 4, 3, 2, 1]


def test_layer_classes_9_2():
    ccs = _layer_classes(9, 2)
    assert ccs.spec == GroupSpec((2, 2, 20))
    assert ccs.colour_count == 8
    got = {c: sorted(subset.elements) for c, subset in ccs.classes}
    assert got[3] == [(0, 0, 7), (0, 0, 8), (0, 0, 9), (0, 0, 11), (0, 0, 12), (0, 0, 13)]
    assert got[8] == [(1, 0, 10)]
    # odd-sized classes end on an involution
    assert got[4][0] == (0, 0, 10)
    last = got[6][-1]
    double = tuple((a + b) % n for a, b, n in zip(last, last, ccs.spec.factors))
    minus_last = tuple(-y % n for y, n in zip(last, ccs.spec.factors))
    assert last != minus_last or double == (0,) * len(ccs.spec.factors)


def test_build_sumfree_layer_9_2():
    g = build_sumfree_layer(9, 2)
    assert g.vertex_count == 80
    assert g.colour_count == 8
    expected = (0, 0, 6, 5, 4, 3, 2, 1)
    for v in range(0, 80, 7):
        p = g.vertex_profile(v)
        assert p.deg == expected
        assert p.e_closed == expected
        assert p.e_closed == p.deg


def test_build_sumfree_layer_growth():
    for k, q, group_text in [(10, 2, "z:2,2,20"), (13, 3, "z:2,2,2,20"), (15, 3, "z:2,2,2,26")]:
        ccs = _layer_classes(k, q)
        assert ccs.spec.to_text() == group_text
        union = ccs.union_elements()
        assert is_sum_free(union)
        assert len(union) == sum(_layer_sizes(k, q))


def test_build_sumfree_layer_range():
    with pytest.raises(ValueError, match="q > 1"):
        build_sumfree_layer(6, 1)
    with pytest.raises(ValueError, match="q < k/4"):
        build_sumfree_layer(7, 2)
    with pytest.raises(ValueError, match="q < k/4"):
        build_sumfree_layer(8, 2)


def test_build_sumfree_layer_checks_group_size_first(monkeypatch):
    """k = 819 is the least q = 2 layer over the limit; k = 818 fits."""
    def refuse(spec, items):
        raise AssertionError("the layer's classes must not be built past the limit")

    monkeypatch.setattr(GroupSubset, "of", staticmethod(refuse))
    with pytest.raises(ValueError, match="^group order 1002496 exceeds enumeration limit 1000000$"):
        build_sumfree_layer(819, 2)
    group, _ = pipelines._layer_shape(818, 2)
    assert group.order == 999_424


# ------------------------------------------------------------------- gaps plans


SYNTH = dict(q=2, k=9, prefix_e=(140, 135), prefix_deg=(42, 135))


def test_plan_gaps_synthetic():
    plan = plan_gaps(**SYNTH)
    assert plan.gap_slack == 19
    assert plan.t == plan.t_min == 113
    assert plan.part_size == 812
    assert plan.core_degree == 198
    assert plan.prefix_gap == 5
    assert plan.layer_group == GroupSpec((2, 2, 20))
    assert plan.layer_sizes == (6, 5, 4, 3, 2, 1)
    assert plan.deg_at_t == (42, 135, 22493, 22691, 22889, 23087, 23285, 23483, 23681)
    assert plan.e_at_t == (
        113820, 109755, 94261, 94239, 94217, 94195, 94173, 94151, 94129)
    assert plan.deg_chain_ok and plan.e_chain_ok
    assert plan.first_chain_violation is None
    assert plan.order_estimate == 2 * 812 * 80


def test_plan_gaps_affine_consistency():
    """Profiles at t must come from the affine coefficients, and the chains
    stay monotone for every larger t as well."""
    plan = plan_gaps(**SYNTH)
    for coeffs, values in ((plan.deg_affine, plan.deg_at_t), (plan.e_affine, plan.e_at_t)):
        assert values == tuple(c0 + c1 * plan.t for c0, c1 in coeffs)
    for t in (plan.t + 1, plan.t + 7, plan.t + 1000):
        deg = [c0 + c1 * t for c0, c1 in plan.deg_affine]
        e = [c0 + c1 * t for c0, c1 in plan.e_affine]
        assert all(deg[i] < deg[i + 1] for i in range(8))
        assert all(e[i] > e[i + 1] for i in range(8))
    # the last colour's degree grows strictly with t
    assert plan.deg_affine[-1][1] > 0


def test_plan_gaps_t_min_replay():
    plan = plan_gaps(**SYNTH)
    chain = list(plan.prefix_e) + [9 - i for i in range(3, 9)] + [0]
    cross = 1 + plan.core_degree + 2 * sum(chain)
    assert plan.t_min == -(-cross // (9 - 2))  # minimal tail gap is 1


def test_plan_gaps_t_override():
    plan = plan_gaps(**SYNTH, t_override=200)
    assert plan.t == 200
    assert plan.t_min == 113
    assert plan.part_size == 7 * 200 + 21
    with pytest.raises(
            ValueError,
            match=r"^t=100 below minimum 113; predicted e chain breaks between colours 3 and 4$"):
        plan_gaps(**SYNTH, t_override=100)


def test_plan_gaps_matching_assignments():
    plan = plan_gaps(**SYNTH)
    a = plan.matching_assignments
    assert len(a) == plan.part_size
    assert a[:3] == (3, 3, 3)
    assert a[-3:] == (9, 9, 9)
    # colour q+j receives t+j-1 matchings
    for j in range(1, 8):
        assert a.count(2 + j) == plan.t + j - 1


def test_plan_part_size_counts_matchings_and_ratio_is_reduced():
    """part_size is the amplifier's part size, one vertex per matching, and the
    plan JSON's part_ratio is (part_size + 1) / ((k - q) t) in lowest terms."""
    reducible = set()
    for q in (1, 2, 3):
        for k in range(q + 2, q + 9):
            for t in (1, 2, 3, 7, 113):
                plan = _make_gaps_plan(q, k, tuple(100 - i for i in range(q)),
                                       tuple(range(1, q + 1)), t, None, enforce=False)
                assert len(plan.matching_assignments) == plan.part_size, (q, k, t)
                ratio = Fraction(plan.part_size + 1, (k - q) * t)
                assert plan.to_json_dict()["part_ratio"] == [ratio.numerator, ratio.denominator]
                reducible.add(ratio.denominator != (k - q) * t)
    assert reducible == {False, True}
    assert plan_gaps(**SYNTH).to_json_dict()["part_ratio"] == [813, 791]  # 813 / (7 * 113)
    relaxed = _make_gaps_plan(**SYNTH, t=2, prefix_order=None, enforce=False)
    assert relaxed.to_json_dict()["part_ratio"] == [18, 7]  # 36 / (7 * 2)


def test_plan_gaps_gap_condition_failure():
    with pytest.raises(ValueError, match=r"slack -105"):
        plan_gaps(2, 9, (7, 5), (4, 5))


def test_plan_gaps_relaxed_keeps_violation():
    plan = _make_gaps_plan(2, 9, (7, 5), (4, 5), None, None, enforce=False)
    assert plan.gap_slack == -105
    assert not plan.e_chain_ok
    # equal closed counts on neighbouring colours break the chain too
    tie = _make_gaps_plan(2, 5, (11, 10), (1, 3), 1, None, enforce=False)
    assert tie.e_at_t[:3] == (77, 70, 70)
    assert tie.deg_chain_ok and not tie.e_chain_ok
    assert tie.first_chain_violation == ("e", 2)


def test_plan_gaps_prefix_validation():
    with pytest.raises(ValueError, match="length q=2"):
        plan_gaps(2, 9, (140,), (42, 135))
    with pytest.raises(ValueError, match="decrease strictly"):
        plan_gaps(2, 9, (135, 140), (42, 135))
    with pytest.raises(ValueError, match="increase strictly"):
        plan_gaps(2, 9, (140, 135), (135, 42))
    with pytest.raises(ValueError, match="exceeds closed count"):
        plan_gaps(2, 9, (140, 130), (42, 135))
    with pytest.raises(ValueError, match="q > 1"):
        plan_gaps(1, 9, (140,), (42,))
    with pytest.raises(ValueError, match="q < k/4"):
        plan_gaps(2, 8, (140, 135), (42, 135))
    with pytest.raises(ValueError, match="q must be >= 1, got q=0"):
        plan_gaps(0, 9, (), ())


@pytest.mark.parametrize("prefix_e, prefix_deg", [
    ((265.9, "155"), ("42", 135.5)),
    ((265, 155), (True, 135)),
], ids=["floats-and-strings", "bool"])
def test_plan_gaps_prefix_vectors_take_ints_only(prefix_e, prefix_deg):
    """int() would read the first pair as the valid (265, 155) / (42, 135);
    a prefix vector is a profile, so its entries are ints as they stand."""
    with pytest.raises(ValueError) as info:
        plan_gaps(2, 11, prefix_e, prefix_deg)
    assert str(info.value) == f"prefix vectors must hold integers, got {prefix_e} and {prefix_deg}"


@pytest.mark.parametrize("keywords, name", [
    ({"q": 2.0}, "q"), ({"q": True}, "q"), ({"k": 11.0}, "k"), ({"k": "11"}, "k"),
    ({"t_override": 200.5}, "t"), ({"t_override": True}, "t"),
    ({"prefix_order": 2.5}, "prefix_order"), ({"prefix_order": True}, "prefix_order"),
], ids=["q-float", "q-bool", "k-float", "k-str", "t-float", "t-bool", "order-float", "order-bool"])
def test_plan_gaps_scalars_take_ints_only(keywords, name):
    """The prefix vectors' rule holds for q, k, t and the prefix order: a
    float order would give a float order estimate, True would read as 1."""
    arguments = {"q": 2, "k": 11, "prefix_e": (265, 155), "prefix_deg": (42, 135)} | keywords
    (value,) = keywords.values()
    with pytest.raises(ValueError) as info:
        plan_gaps(**arguments)
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("order", [0, -5])
def test_plan_gaps_prefix_order_is_positive(order):
    """A prefix graph has at least one vertex: 0 is not read as absent and a
    negative order gives no negative order estimate, enforced or not."""
    with pytest.raises(ValueError) as info:
        plan_gaps(2, 11, (265, 155), (42, 135), prefix_order=order)
    assert str(info.value) == f"prefix_order must be >= 1, got {order}"
    with pytest.raises(ValueError) as info:
        _make_gaps_plan(2, 11, (265, 155), (42, 135), None, order, enforce=False)
    assert str(info.value) == f"prefix_order must be >= 1, got {order}"


def test_plan_gaps_never_builds_the_layer(monkeypatch):
    def refuse(k, q):
        raise AssertionError("planning must not build the layer connecting set")

    monkeypatch.setattr(pipelines, "_layer_classes", refuse)
    assert plan_gaps(**SYNTH).layer_group == GroupSpec((2, 2, 20))
    big = _make_gaps_plan(2, 700, (5000, 4000), (100, 200), None, None, enforce=False)
    assert big.layer_group.to_text() == "z:2,2,2,2,2,2,2,2,2,1430"
    assert big.order_estimate == 1451886458880


def test_layer_shape_is_the_least_group_that_fits():
    """The closed form against a direct search: the fewest Z_2 factors that
    give every odd class its own involution, then the smallest even m whose
    window m/3 < x < m/2 holds enough inverse pairs (x, m - x) per copy."""
    for k in range(4, 60):
        for q in range(1, k - 1):
            sizes = _layer_sizes(k, q)
            a = 0
            while 2**a < sum(s % 2 for s in sizes):
                a += 1
            m = 4
            while 2**a * len(range(m // 3 + 1, m // 2)) < sum(s // 2 for s in sizes):
                m += 2
            assert pipelines._layer_shape(k, q) == (GroupSpec((2,) * a + (m,)), m // 3 + 1), (k, q)


def test_plan_layer_group_matches_built_layer():
    for k in range(4, 40):
        for q in range(2, k - 1):
            plan = _make_gaps_plan(q, k, tuple(10**6 - i for i in range(q)), tuple(range(1, q + 1)),
                                   None, None, enforce=False)
            assert plan.layer_group == _layer_classes(k, q).spec, (k, q)


def test_plan_gaps_prefix_gap_uses_largest():
    plan = plan_gaps(3, 14, (500, 440, 430), (10, 30, 400))
    assert plan.prefix_gap == 60


def test_plan_gaps_json():
    data = plan_gaps(**SYNTH).to_json_dict()
    assert data["part_ratio"] == [813, 791]
    assert data["t"] == 113
    assert data["first_chain_violation"] is None


# ------------------------------------------------------------------ gaps builds


def small_relaxed_case():
    prefix, _ = build_br(plan_br(4, 5))
    plan = _make_gaps_plan(2, 4, (7, 5), (4, 5), 1, 40, enforce=False)
    return prefix, plan


def test_build_gaps_small_materialized():
    """A deliberately tiny relaxed plan, materialised and audited in full."""
    prefix, plan = small_relaxed_case()
    assert plan.deg_at_t == (4, 5, 12, 22)
    assert plan.e_at_t == (28, 20, 41, 74)
    assert plan.first_chain_violation == ("e", 2)
    result = build_gaps(plan, prefix)
    assert result.materialized
    assert result.g_order == result.graph.vertex_count == 960
    assert result.core.vertex_count == 160
    # per-vertex audit already ran inside build_gaps; spot-check anyway
    rng = random.Random(9)
    for v in rng.sample(range(960), 12):
        p = result.graph.vertex_profile(v)
        assert p.deg == plan.deg_at_t
        assert p.e_closed == plan.e_at_t
    # the predicted violation is the only reason the flip check fails
    assert not result.flip_report.passed
    assert {reason for _, reason in result.flip_report.violations} == {"chain-not-strict"}


def test_amplified_graph_json_is_the_indent_2_layout():
    """The (4, 5) prefix amplified by the relaxed q = 2, k = 5, t = 1 plan."""
    prefix, report = build_br(plan_br(4, 5))
    plan = _make_gaps_plan(2, 5, report.uniform_e_chain, report.colour_degrees, 1,
                           prefix.vertex_count, enforce=False)
    graph = build_gaps(plan, prefix).graph
    assert graph.vertex_count == 3840
    assert_indent_2_layout(graph)


def test_build_gaps_respects_limit():
    prefix, plan = small_relaxed_case()
    result = build_gaps(plan, prefix, materialize_limit=100)
    assert not result.materialized
    assert result.graph is None
    assert result.flip_report is None
    assert result.g_order == 960
    assert result.core.vertex_count == 160


def test_build_gaps_refuses_a_negative_limit(monkeypatch):
    """Refused before the prefix is verified or anything is built; 0 is a limit."""
    prefix, plan = small_relaxed_case()
    assert build_gaps(plan, prefix, materialize_limit=0).materialized is False

    def refuse(*args):
        raise AssertionError("built before the limit was checked")

    monkeypatch.setattr(pipelines, "_verify_prefix_graph", refuse)
    with pytest.raises(ValueError) as info:
        build_gaps(plan, prefix, materialize_limit=-1)
    assert str(info.value) == "materialize_limit must be >= 0, got -1"


def test_build_gaps_sizes_the_product_before_building_it(monkeypatch):
    """Over the limit, neither the amplifier nor the product is built."""
    prefix, report = build_br(plan_br(4, 5))
    plan = _make_gaps_plan(2, 5, report.uniform_e_chain, report.colour_degrees, 2000,
                           prefix.vertex_count, enforce=False)

    def refuse(colour_count, assignments):
        raise AssertionError("amplifier built over the limit")

    monkeypatch.setattr(pipelines, "bipartite_matching_graph", refuse)
    result = build_gaps(plan, prefix)
    assert result.materialized is False
    assert result.g_order == 3_841_920
    assert result.graph is None


def test_build_gaps_sizes_the_amplifier_before_its_assignments():
    """Within the order limit but past the edge limit, the matching graph is
    refused before the plan's p-entry assignment tuple is made: t = 2,000,000
    gives p = 6,000,003 and p^2 edges."""
    prefix, report = build_br(plan_br(4, 5))
    plan = _make_gaps_plan(2, 5, report.uniform_e_chain, report.colour_degrees, 2_000_000,
                           prefix.vertex_count, enforce=False)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            build_gaps(plan, prefix, materialize_limit=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "matching graph would have 36000036000009 edges, over the limit 1000000"
    assert peak < 5 * 10**6, peak


def test_amplify_peak_memory():
    """The (4, 5) prefix, the relaxed q = 2, k = 5, t = 1 plan and its build:
    every graph keeps each edge once and the profile pass copies no
    adjacency, so the whole chain peaks near 9 MB; keeping each edge at both
    endpoints takes it near 20 MB. The largest graph is the 3,840-vertex,
    172,800-edge amplified product."""
    tracemalloc.start()
    try:
        prefix, report = build_br(plan_br(4, 5))
        plan = _make_gaps_plan(2, 5, report.uniform_e_chain, report.colour_degrees, 1,
                               prefix.vertex_count, enforce=False)
        result = build_gaps(plan, prefix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.graph.vertex_count, result.graph._edge_count()) == (3840, 172_800)
    assert peak < 12 * 10**6, peak


def test_build_gaps_profiles_each_vertex_once(monkeypatch):
    """Prefix, layer and core are audited once each; the amplified graph's
    audit reads verify_flip's pass instead of profiling every vertex again."""
    prefix, plan = small_relaxed_case()
    calls = []
    profile = EdgeColouredGraph.vertex_profile

    def counting_profile(self, v):
        calls.append(v)
        return profile(self, v)

    monkeypatch.setattr(EdgeColouredGraph, "vertex_profile", counting_profile)
    build_gaps(plan, prefix)
    assert len(calls) == 40 + 4 + 160 + 960


def test_build_gaps_runs_one_profile_pass_per_audited_graph(monkeypatch):
    """The triangle-listing pass runs once for each of the prefix, layer, core
    and amplified graphs, however many of their vertices are profiled. The
    prefix is rebuilt so that its cache is empty: build_br profiled it."""
    built, plan = small_relaxed_case()
    prefix = EdgeColouredGraph(built.vertex_count, built.colour_count, built.edges)
    passes = []
    count_open = EdgeColouredGraph._count_open

    def counting(self):
        passes.append(self.vertex_count)
        return count_open(self)

    monkeypatch.setattr(EdgeColouredGraph, "_count_open", counting)
    build_gaps(plan, prefix)
    assert sorted(passes) == [4, 40, 160, 960]
    build_gaps(plan, built)
    assert len(passes) == 7


def test_build_gaps_amplified_mismatch_names_vertex(monkeypatch):
    prefix, plan = small_relaxed_case()
    product = pipelines.strong_product

    def lossy_product(g, h):
        full = product(g, h)
        return EdgeColouredGraph(full.vertex_count, full.colour_count, full.edges[1:])

    monkeypatch.setattr(pipelines, "strong_product", lossy_product)
    with pytest.raises(VerificationError, match="amplified profile mismatch at vertex 0:"):
        build_gaps(plan, prefix)


def test_build_gaps_prefix_mismatch():
    prefix, _ = build_br(plan_br(4, 5))
    plan = _make_gaps_plan(2, 4, (9, 7), (6, 7), 1, None, enforce=False)
    with pytest.raises(ValueError, match="profile mismatch"):
        build_gaps(plan, prefix)
    plan45 = _make_gaps_plan(2, 4, (7, 5), (4, 5), 1, 56, enforce=False)
    with pytest.raises(ValueError, match="plan recorded 56"):
        build_gaps(plan45, prefix)
    thin = EdgeColouredGraph(2, 1, [(0, 1, 1)])
    with pytest.raises(ValueError, match="need at least q=2"):
        build_gaps(plan45, thin)


def test_build_gaps_prefix_mismatch_names_the_failing_vertex():
    """Vertices 0..39 match the plan; vertex 40, the first one added, does not."""
    built, _ = build_br(plan_br(4, 5))
    prefix = EdgeColouredGraph(42, 2, [*built.edges, (40, 41, 1)])
    plan = _make_gaps_plan(2, 5, (7, 5), (4, 5), 1, None, enforce=False)
    with pytest.raises(ValueError) as info:
        build_gaps(plan, prefix)
    assert str(info.value) == ("prefix graph profile mismatch at vertex 40: "
                               "deg=(1, 0) e=(1, 0), expected deg=(4, 5) e=(7, 5)")


# ----------------------------------------------------------------- colour merge


def test_colour_merge_two_to_one():
    graph, _ = build_br(plan_br(4, 5))
    merged = colour_merge(graph, [(1, 2)])
    assert merged.colour_count == 1
    assert merged.vertex_profile(0).deg == (9,)
    assert merged.vertex_profile(0).e_closed == (12,)


def test_colour_merge_identity_and_swap():
    graph, _ = build_br(plan_br(4, 5))
    assert colour_merge(graph, [(1,), (2,)]) == graph
    swapped = colour_merge(graph, [(2,), (1,)])
    assert swapped.vertex_profile(0).deg == (5, 4)


def test_colour_merge_leaves_the_edges_unbuilt():
    graph, _ = build_br(plan_br(4, 5))
    with edges_unread():
        merged = colour_merge(graph, [(1, 2)])
    assert merged.edges == tuple((u, v, 1) for u, v, _ in graph.edges)


def test_colour_merge_additivity_random():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 9)
        k = rng.randint(2, 5)
        edges = [
            (u, v, rng.randint(1, k))
            for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = EdgeColouredGraph(n, k, edges)
        colours = list(range(1, k + 1))
        rng.shuffle(colours)
        cut = rng.randint(1, k)
        partition = [colours[:cut]] + ([colours[cut:]] if cut < k else [])
        merged = colour_merge(g, partition)
        for v in range(n):
            old = g.vertex_profile(v)
            new = merged.vertex_profile(v)
            for i, part in enumerate(partition):
                assert new.deg[i] == sum(old.deg[c - 1] for c in part)
                assert new.e_closed[i] == sum(old.e_closed[c - 1] for c in part)


def test_colour_merge_audit_names_vertex(monkeypatch):
    graph, _ = build_br(plan_br(4, 5))

    def lossy_graph(vertex_count, colour_count, edges):
        return EdgeColouredGraph(vertex_count, colour_count, list(edges)[1:])

    monkeypatch.setattr(pipelines, "EdgeColouredGraph", lossy_graph)
    with pytest.raises(VerificationError, match=(
            r"^merged profile mismatch at vertex 0: deg=\(8,\) e=\(\d+,\), "
            r"expected deg=\(9,\) e=\(12,\)$")):
        colour_merge(graph, [(1, 2)])


def test_colour_merge_partition_validation():
    g = EdgeColouredGraph(2, 2, [(0, 1, 1)])
    with pytest.raises(ValueError, match="non-empty"):
        colour_merge(g, [(1, 2), ()])
    with pytest.raises(ValueError, match="two parts"):
        colour_merge(g, [(1,), (1, 2)])
    with pytest.raises(ValueError, match="cover colours"):
        colour_merge(g, [(1,)])
    with pytest.raises(ValueError, match="cover colours"):
        colour_merge(g, [(1, 2, 3)])

