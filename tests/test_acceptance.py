"""Acceptance suite: one test per release criterion, one verdict line each.

Each criterion records PASS or FAIL into the shared registry; the conftest
hook prints the table after the run. Criterion 7a plans amplification from
the built flagship prefix, whose exact chain is (265, 155): at k = 9 the gap
condition fails with slack -171 and no choice of t gives a monotone e chain,
while k = 11 is the smallest k the planner accepts (slack 64, t = 126).
"""

import itertools
import random
from contextlib import contextmanager

import pytest

import acceptance_log
from flipforge.analysis import (
    bounds_table,
    new_bound,
    new_bound_cap,
    old_bound,
    parity_factor,
    qk_bounds,
    search_sumfree_inverse_closed,
    verify_flip,
)
from flipforge.construct import (
    bipartite_matching_graph,
    cartesian_product,
    packing_delta,
    strong_product,
)
from flipforge.ecgraph import EdgeColouredGraph
from flipforge.group import cyclic
from flipforge.pipelines import (
    _layer_classes,
    _make_gaps_plan,
    build_br,
    build_gaps,
    build_sumfree_layer,
    colour_merge,
    plan_br,
    plan_gaps,
)
from flipforge.setalg import (
    GroupSubset,
    ResidueInterval,
    interval_sumset_check,
    is_inverse_closed,
    is_sum_free,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        acceptance_log.record(number, "FAIL", description)
        raise
    acceptance_log.record(number, "PASS", description)


def random_coloured_graph(rng, max_vertices=8, max_colours=3):
    n = rng.randint(1, max_vertices)
    k = rng.randint(1, max_colours)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append((u, v, rng.randint(1, k)))
    return EdgeColouredGraph(n, k, edges)


def symmetric_subset(rng, spec, max_pairs=4):
    members = set()
    pool = [x for x in spec.elements() if x != (0,) * len(spec.factors)]
    for _ in range(rng.randint(1, max_pairs)):
        x = rng.choice(pool)
        members.add(x)
        members.add(tuple(-y % n for y, n in zip(x, spec.factors)))
    return GroupSubset.of(spec, members)


def test_criterion_01_two_colour_sweep():
    with criterion("1", "two-colour sweep 4<=b<=14: order formula, profile, chain"):
        built = 0
        for b in range(4, 15):
            for r in range(b + 1, new_bound_cap(b)):
                graph, report = build_br(plan_br(b, r))
                base = 2 + r // 2 + (b + 2) // 2 - 2 * ((b + 2) // 6)
                assert graph.vertex_count == 8 * parity_factor(b, r) * base
                assert report.passed, (b, r)
                assert report.colour_degrees == (b, r)
                e1, e2 = report.uniform_e_chain
                assert e1 >= new_bound_cap(b) > r == e2, (b, r)
                built += 1
        assert built == 41


def test_criterion_02_landmark_56():
    with criterion("2", "degrees (6,7) build has exactly 56 vertices"):
        graph, report = build_br(plan_br(6, 7))
        assert graph.vertex_count == 56
        assert report.passed


def test_criterion_03_product_counting_oracle():
    with criterion("3", "product profile formulas match brute force on 100 random pairs"):
        rng = random.Random(303)
        for _ in range(100):
            g = random_coloured_graph(rng)
            h = random_coloured_graph(rng)
            k = max(g.colour_count, h.colour_count)
            g, h = g.with_colour_count(k), h.with_colour_count(k)
            strong = strong_product(g, h)
            cart = cartesian_product(g, h)
            for u in range(g.vertex_count):
                gp = g.vertex_profile(u)
                for v in range(h.vertex_count):
                    hp = h.vertex_profile(v)
                    w = u * h.vertex_count + v
                    sp = strong.vertex_profile(w)
                    h_deg = sum(hp.deg)
                    h_e = sum(hp.e_closed)
                    assert sp.deg == tuple(
                        hp.deg[j] + gp.deg[j] * (1 + h_deg) for j in range(k))
                    assert sp.e_closed == tuple(
                        hp.e_closed[j] * (1 + sum(gp.deg))
                        + gp.e_closed[j] * (1 + h_deg + 2 * h_e)
                        for j in range(k))
                    cp = cart.vertex_profile(w)
                    assert cp.deg == tuple(a + b for a, b in zip(gp.deg, hp.deg))
                    assert cp.e_closed == tuple(
                        a + b for a, b in zip(gp.e_closed, hp.e_closed))


def test_criterion_04_packing_identity():
    with criterion("4", "packing difference identity and sign rule on 100 random set pairs"):
        rng = random.Random(404)
        cases = 0
        while cases < 100:
            spec = cyclic(rng.randint(8, 60))
            blue = symmetric_subset(rng, spec)
            red = symmetric_subset(rng, spec)
            if not blue.is_disjoint(red):
                continue
            report = packing_delta(spec, blue, red)
            assert report.delta_direct == report.delta_formula, (spec, blue, red)
            # vertex-transitivity: the same difference at 5 random vertices
            packed = report.packed
            for v in rng.sample(range(packed.vertex_count), 5):
                p = packed.vertex_profile(v)
                assert p.e_closed[0] - p.e_closed[1] == report.delta_direct
            if report.product_condition and report.dominance:
                assert report.flip_at_identity
            cases += 1


def test_criterion_05_interval_check_replay():
    with criterion("5", "interval disjointness clauses over n = 16..400 in steps of 16"):
        rng = random.Random(505)
        checked = 0
        for n in range(16, 401, 16):
            pool = list(range(n // 8 + 1, n // 4))
            if len(pool) < 2:
                continue  # n = 16 offers a single residue: no valid pair exists
            for _ in range(8):
                cut = rng.randint(1, len(pool) - 1)
                a_hi = rng.randint(0, cut - 1)
                b_lo = rng.randint(cut, len(pool) - 1)
                a0 = ResidueInterval(n, pool[rng.randint(0, a_hi)], pool[a_hi])
                b0 = ResidueInterval(n, pool[b_lo], pool[rng.randint(b_lo, len(pool) - 1)])
                b1_lo = rng.randint(b0.lo, b0.hi)
                b1 = ResidueInterval(n, b1_lo, rng.randint(b1_lo, b0.hi))
                report = interval_sumset_check(n, a0, b0, b1)
                assert report.ab_avoids_a, (n, a0, b0, b1)
                assert report.half_shift_avoids_a, (n, a0, b0, b1)
                if report.b1_hypothesis_met:
                    assert report.half_plus_b_avoids_a, (n, a0, b0, b1)
                assert report.all_asserted_hold
                checked += 1
        assert checked == 8 * 24


def test_criterion_06_bound_dominance():
    with criterion("6", "new order bound beats the old one on every table row"):
        rows = bounds_table([11])
        assert [r for _, r, _, _ in rows] == list(range(12, 19))
        rows += bounds_table([25])
        assert len(rows) == 38
        for b, r, old, new in rows:
            assert new < old, (b, r)
        assert old_bound(6, 7) == 80
        assert new_bound(6, 7) == 56


def test_criterion_07a_amplification_at_flagship_scale():
    with criterion("7a", "flagship prefix (42,135): no q=2, k=9 plan; the k=11 plan is valid"):
        prefix, report = build_br(plan_br(42, 135))
        assert report.uniform_e_chain == (265, 155)
        args = (report.uniform_e_chain, report.colour_degrees)

        # k = 9: the gap condition fails, and no choice of t gives a monotone
        # e chain. Colour 2 grows more slowly in t than colour 3, so the chain
        # breaks between them from the crossover on; every t below the
        # crossover breaks it somewhere as well.
        with pytest.raises(ValueError, match=(
                r"^gap condition fails with slack -171; "
                r"predicted e chain breaks between colours 2 and 3$")):
            plan_gaps(2, 9, *args, prefix_order=prefix.vertex_count)
        relaxed = _make_gaps_plan(2, 9, *args, None, prefix.vertex_count, enforce=False)
        assert relaxed.first_chain_violation == ("e", 2)
        (c2, s2), (c3, s3) = relaxed.e_affine[1:3]
        assert s2 == 1085 < s3 == 1123
        crossover = (c2 - c3) // (s3 - s2) + 1
        for t in range(1, crossover):
            assert _make_gaps_plan(
                2, 9, *args, t, prefix.vertex_count, enforce=False
            ).first_chain_violation is not None, t

        # k = 10 still fails the gap condition; k = 11 is the first valid plan.
        with pytest.raises(ValueError, match=r"^gap condition fails with slack -51$"):
            plan_gaps(2, 10, *args, prefix_order=prefix.vertex_count)
        plan = plan_gaps(2, 11, *args, prefix_order=prefix.vertex_count)
        assert plan.gap_slack == 64
        assert plan.t == plan.t_min == 126
        assert plan.problems == ()
        assert plan.deg_chain_ok and plan.e_chain_ok
        assert plan.deg_affine[-1][1] > 0

        # a_1, a_2 stay at the prefix degrees while a_k grows with t.
        for t, top in ((1_260, 271_352), (126_000, 26_965_712)):
            big = plan_gaps(2, 11, *args, t_override=t, prefix_order=prefix.vertex_count)
            assert big.deg_at_t[:2] == (42, 135)
            assert big.deg_at_t[-1] == top
            assert big.deg_chain_ok and big.e_chain_ok and big.problems == ()


def test_criterion_07b_amplification_small_scale():
    with criterion("7b", "small materialized amplification equals its symbolic profile"):
        prefix, _ = build_br(plan_br(4, 5))
        plan = _make_gaps_plan(2, 4, (7, 5), (4, 5), 1, 40, enforce=False)
        result = build_gaps(plan, prefix)
        assert result.materialized and result.g_order == 960
        amplifier = bipartite_matching_graph(plan.k, plan.matching_assignments)
        core = result.core
        graph = result.graph
        k = plan.k
        for u in range(amplifier.vertex_count):
            up = amplifier.vertex_profile(u)
            for v in range(core.vertex_count):
                vp = core.vertex_profile(v)
                w = u * core.vertex_count + v
                got = graph.vertex_profile(w)
                v_deg = sum(vp.deg)
                v_e = sum(vp.e_closed)
                assert got.deg == tuple(
                    vp.deg[j] + up.deg[j] * (1 + v_deg) for j in range(k))
                assert got.e_closed == tuple(
                    vp.e_closed[j] * (1 + sum(up.deg))
                    + up.e_closed[j] * (1 + v_deg + 2 * v_e)
                    for j in range(k))
                assert got.deg == plan.deg_at_t
                assert got.e_closed == plan.e_at_t


def test_criterion_08_layer_certification():
    with criterion("8", "sum-free layer for q=2, k=9: class sizes and flat profiles"):
        ccs = _layer_classes(9, 2)
        sizes = tuple(len(subset) for _, subset in ccs.classes)
        assert sizes == (6, 5, 4, 3, 2, 1)
        assert is_sum_free(ccs.union_elements())
        for _, subset in ccs.classes:
            assert is_inverse_closed(subset)
        graph = build_sumfree_layer(9, 2)
        for v in range(graph.vertex_count):
            p = graph.vertex_profile(v)
            for j in range(1, 7):
                assert p.deg[2 + j - 1] == 9 - 2 - j
                assert p.e_closed[2 + j - 1] == 9 - 2 - j
            assert p.deg[:2] == (0, 0)


def test_criterion_09_colour_merge_additivity():
    with criterion("9", "colour merge adds degrees and closed counts on 100 random graphs"):
        rng = random.Random(909)
        for _ in range(100):
            g = random_coloured_graph(rng, max_vertices=9, max_colours=5)
            colours = list(range(1, g.colour_count + 1))
            rng.shuffle(colours)
            parts = []
            while colours:
                take = rng.randint(1, len(colours))
                parts.append(tuple(colours[:take]))
                colours = colours[take:]
            merged = colour_merge(g, parts)
            for v in range(g.vertex_count):
                old = g.vertex_profile(v)
                new = merged.vertex_profile(v)
                for i, part in enumerate(parts):
                    assert new.deg[i] == sum(old.deg[c - 1] for c in part)
                    assert new.e_closed[i] == sum(old.e_closed[c - 1] for c in part)


def test_criterion_10_preserved_prefix_bounds():
    with criterion("10", "preserved-prefix bound pairs for k = 6, 8, 9"):
        assert qk_bounds(9) == (2, 3)
        assert qk_bounds(6) == (1, 2)
        assert qk_bounds(8) == (1, 4)


def test_criterion_11_search_maxima():
    with criterion("11", "exhaustive sum-free search maxima match independent enumeration"):
        for n, expected in ((7, 2), (8, 4)):
            spec = cyclic(n)
            result = search_sumfree_inverse_closed(spec)
            assert result.optimal
            assert result.size == expected
            assert is_sum_free(result.subset) and is_inverse_closed(result.subset)
            # independent enumeration over all subsets of the group
            best = 0
            for size in range(n, 0, -1):
                for combo in itertools.combinations(list(spec.elements()), size):
                    s = GroupSubset.of(spec, combo)
                    if is_inverse_closed(s) and is_sum_free(s):
                        best = size
                        break
                if best:
                    break
            assert best == expected


def test_flip_verdicts_back_the_criteria():
    """The verifier itself agrees with the sweep it certifies."""
    graph, report = build_br(plan_br(10, 11))
    assert verify_flip(graph, expected=(10, 11)).passed
    assert report.uniform_e_chain == (22, 11)
