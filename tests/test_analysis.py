"""Flip verification, order bound tables, and the sum-free subset search."""

import itertools
import math

import pytest

from flipforge import analysis
from flipforge.analysis import (
    EXHAUSTIVE_ORDER_CAP,
    VIOLATION_JSON_CAP,
    bounds_table,
    bounds_to_csv,
    check_br_range,
    new_bound,
    new_bound_cap,
    old_bound,
    parity_factor,
    qk_bounds,
    search_sumfree_inverse_closed,
    verify_flip,
)
from flipforge.ecgraph import EdgeColouredGraph
from flipforge.group import GroupSpec, cyclic
from flipforge.pipelines import build_br, plan_br
from flipforge.setalg import GroupSubset, is_inverse_closed, is_sum_free

C4_ALTERNATING = EdgeColouredGraph(4, 2, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)])


# ----------------------------------------------------------------- flip reports


def test_verify_flip_passes_on_construction():
    graph, _ = build_br(plan_br(4, 5))
    report = verify_flip(graph, expected=(4, 5))
    assert report.passed
    assert report.verdict == "pass"
    assert report.colour_degrees == (4, 5)
    assert report.uniform_e_chain == (7, 5)
    assert report.violations == ()


def test_verify_flip_expected_mismatch():
    graph, _ = build_br(plan_br(4, 5))
    report = verify_flip(graph, expected=(4, 6))
    assert not report.passed
    assert (None, "degrees-not-expected") in report.violations


def test_verify_flip_expected_length():
    with pytest.raises(ValueError):
        verify_flip(C4_ALTERNATING, expected=(1,))


def test_verify_flip_alternating_cycle():
    """Equal colour degrees and a flat chain: two distinct failure reasons."""
    report = verify_flip(C4_ALTERNATING)
    assert report.verdict == "fail"
    assert report.colour_degrees == (1, 1)
    assert report.uniform_e_chain == (1, 1)
    assert report.violations[0] == (None, "degrees-not-increasing")
    assert [v for v, reason in report.violations if reason == "chain-not-strict"] == [0, 1, 2, 3]


def test_verify_flip_irregular():
    path = EdgeColouredGraph(3, 1, [(0, 1, 1), (1, 2, 1)])
    report = verify_flip(path)
    assert not report.passed
    assert (1, "not-regular") in report.violations
    assert report.colour_degrees is None
    assert report.uniform_e_chain is None  # per-vertex chains differ


def test_verify_flip_degenerate_graphs():
    # an empty multi-coloured graph is vacuously regular with flat degrees
    empty = verify_flip(EdgeColouredGraph(0, 2, []))
    assert empty.violations == ((None, "degrees-not-increasing"),)
    assert empty.e_chain is None
    assert verify_flip(EdgeColouredGraph(0, 1, [])).passed
    single = verify_flip(EdgeColouredGraph(1, 1, []))
    assert single.passed
    assert single.uniform_e_chain == (0,)


def test_flip_report_json_caps_violations():
    cycle = 2 * (VIOLATION_JSON_CAP + 4)
    edges = [(i, (i + 1) % cycle, 1 + i % 2) for i in range(cycle)]
    report = verify_flip(EdgeColouredGraph(cycle, 2, edges))
    data = report.to_json_dict()
    assert data["violation_count"] == len(report.violations) > VIOLATION_JSON_CAP
    assert len(data["violations"]) == VIOLATION_JSON_CAP
    assert data["verdict"] == "fail"


def test_flip_report_json_uniform_chain():
    graph, report = build_br(plan_br(4, 5))
    data = report.to_json_dict()
    assert data["e_chain"] == [7, 5]
    assert data["colour_degrees"] == [4, 5]


# ------------------------------------------------------------------ order bounds


def test_old_bound_values():
    assert old_bound(3, 4) == 32
    assert old_bound(4, 5) == 48
    assert old_bound(6, 7) == 80
    assert old_bound(11, 12) == 160
    assert old_bound(11, 13) == 168
    assert old_bound(25, 26) == 384


def test_old_bound_range():
    with pytest.raises(ValueError):
        old_bound(2, 3)
    with pytest.raises(ValueError):
        old_bound(4, 4)
    with pytest.raises(ValueError):
        old_bound(4, 10)  # above b(b+1)/2 - 1
    old_bound(4, 9)  # the cap itself is fine


def test_parity_factor():
    assert parity_factor(4, 5) == 1
    assert parity_factor(4, 6) == 1
    assert parity_factor(11, 13) == 2


def test_new_bound_cap_and_range():
    assert new_bound_cap(4) == 6
    assert new_bound_cap(10) == 18
    assert new_bound_cap(42) == 140
    check_br_range(42, 135)
    with pytest.raises(ValueError, match="b >= 4"):
        check_br_range(3, 5)
    with pytest.raises(ValueError, match="r > b"):
        check_br_range(5, 5)
    with pytest.raises(ValueError, match="2\\*floor"):
        check_br_range(4, 6)


def test_new_bound_values():
    assert new_bound(4, 5) == 40
    assert new_bound(6, 7) == 56
    assert new_bound(11, 12) == 80
    assert new_bound(11, 13) == 160
    assert new_bound(25, 26) == 160


def test_new_bound_dominates_old():
    for b in range(4, 31):
        for r in range(b + 1, new_bound_cap(b)):
            assert new_bound(b, r) < old_bound(b, r), (b, r)


def test_qk_bounds():
    assert qk_bounds(6) == (1, 2)
    assert qk_bounds(8) == (1, 4)
    assert qk_bounds(9) == (2, 3)
    assert qk_bounds(12) == (2, 4)
    with pytest.raises(ValueError):
        qk_bounds(3)
    for k in range(4, 61):
        lower, upper = qk_bounds(k)
        assert 1 <= lower < upper


# ------------------------------------------------------------------ bound tables


def test_bounds_table_ranges():
    rows = bounds_table([11])
    assert [r for _, r, _, _ in rows] == list(range(12, 19))
    assert all(old is not None and new is not None for _, _, old, new in rows)
    assert len(bounds_table([25])) == 31
    assert len(bounds_table([11, 25])) == 38


def test_bounds_table_b3_fallback():
    rows = bounds_table([3])
    assert [r for _, r, _, _ in rows] == [4, 5]
    assert all(new is None for _, _, _, new in rows)
    assert rows[0][2] == 32
    with pytest.raises(ValueError):
        bounds_table([2])


def test_bounds_table_row_limit(monkeypatch):
    """Rows are counted in closed form before any is built: 7 for b = 11, 31
    for b = 25, 2 for b = 3. The limit is inclusive."""
    assert len(bounds_table(range(3, 61))) == 3965
    with pytest.raises(ValueError, match="^bounds table would have 22217777 rows, over the limit 1000000$"):
        bounds_table([20000])
    monkeypatch.setattr(analysis, "ENUMERATION_LIMIT", 40)
    assert len(bounds_table([11, 25, 3])) == 40
    with pytest.raises(ValueError, match="^bounds table would have 41 rows, over the limit 40$"):
        bounds_table([11, 25, 3, 4])


def test_bounds_table_rows_match_the_checked_bounds():
    """Each row is (b, r, old, new) as the checked public functions give them:
    old_bound up to r = b(b+1)/2 - 1, new_bound from b = 4, None elsewhere."""
    rows = bounds_table(range(3, 61))
    assert len(rows) == 3965
    for b, r, old, new in rows:
        assert old == (old_bound(b, r) if r <= b * (b + 1) // 2 - 1 else None), (b, r)
        assert new == (new_bound(b, r) if b >= 4 else None), (b, r)
    assert all(type(row) is tuple for row in rows)


def test_bounds_table_old_bound_matches_its_definition():
    """old = 2 (r + b + 1 - s) s, s the largest integer with (s - 2)(s - 3)/2 <= r - b,
    found by counting up rather than by the closed form's square root."""
    rows = bounds_table(range(3, 61))
    assert len(rows) == 3965
    for b, r, old, _ in rows:
        s = 3
        while (s - 1) * (s - 2) // 2 <= r - b:
            s += 1
        assert old == 2 * (r + b + 1 - s) * s, (b, r)


def test_bounds_csv():
    text = bounds_to_csv(bounds_table([11, 25]))
    lines = text.splitlines()
    assert lines[0] == "b,r,old_bound,new_bound"
    assert lines[1] == "11,12,160,80"
    assert lines[2] == "11,13,168,160"
    assert len(lines) == 39
    assert text.endswith("\n")
    # empty cells where the construction does not apply
    b3 = bounds_to_csv(bounds_table([3])).splitlines()
    assert b3[1] == "3,4,32,"


# ----------------------------------------------------------------------- search


def brute_force_maximum(spec):
    """Reference search over every subset of the group."""
    elements = list(spec.elements())
    best = 0
    for size in range(len(elements), 0, -1):
        for combo in itertools.combinations(elements, size):
            s = GroupSubset.of(spec, combo)
            if is_inverse_closed(s) and is_sum_free(s):
                return size
    return best


def test_search_exhaustive_z7():
    result = search_sumfree_inverse_closed(cyclic(7))
    assert result.size == 2
    assert result.subset.elements == ((1,), (6,))
    assert result.optimal
    assert result.examined == 8  # three atoms
    assert result.size == brute_force_maximum(cyclic(7))


def test_search_exhaustive_z8():
    result = search_sumfree_inverse_closed(cyclic(8))
    assert result.size == 4
    assert result.subset.elements == ((1,), (3,), (5,), (7,))
    assert result.examined == 16
    assert result.size == brute_force_maximum(cyclic(8))


def test_search_exhaustive_z2():
    result = search_sumfree_inverse_closed(cyclic(2))
    assert result.size == 1
    assert result.subset.elements == ((1,),)


def test_search_found_sets_are_valid():
    # the non-cyclic groups mix involution atoms with {x, -x} atoms
    specs = [cyclic(n) for n in range(2, 17)] + [
        GroupSpec(f) for f in ((2, 4), (2, 2, 2), (2, 6), (3, 3), (2, 2, 3))]
    for spec in specs:
        result = search_sumfree_inverse_closed(spec)
        assert is_sum_free(result.subset)
        assert is_inverse_closed(result.subset)
        assert result.size == brute_force_maximum(spec), spec


def test_search_exhaustive_order_cap():
    with pytest.raises(ValueError):
        search_sumfree_inverse_closed(cyclic(EXHAUSTIVE_ORDER_CAP + 1))


def test_search_exhaustive_budget_exceeded():
    with pytest.raises(ValueError, match="budget"):
        search_sumfree_inverse_closed(cyclic(8), budget=5)


def test_search_exhaustive_budget_boundary():
    """Z_8 has four atoms, so a budget of 16 masks is exactly enough."""
    assert search_sumfree_inverse_closed(cyclic(8), budget=16).examined == 16
    for budget in (15, 0):
        with pytest.raises(ValueError, match=(
                f"^exhaustive search budget {budget} exceeded after {budget} candidates$")):
            search_sumfree_inverse_closed(cyclic(8), budget=budget)


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_search_refuses_a_negative_budget(mode):
    """Both modes refuse it the same way, before any candidate is examined."""
    with pytest.raises(ValueError, match="^budget must be >= 0, got -1$"):
        search_sumfree_inverse_closed(cyclic(7), mode=mode, budget=-1)


def test_search_greedy():
    result = search_sumfree_inverse_closed(cyclic(8), mode="greedy")
    assert result.subset.elements == ((1,), (3,), (5,), (7,))
    assert not result.optimal
    assert not result.budget_exhausted
    assert result.examined == 4


def test_search_greedy_budget():
    result = search_sumfree_inverse_closed(cyclic(8), mode="greedy", budget=2)
    assert result.budget_exhausted
    assert result.examined == 2
    assert result.subset.elements == ((1,), (7,))


def test_search_greedy_large_group():
    # greedy has no order cap; it just stays maximal, not maximum
    result = search_sumfree_inverse_closed(cyclic(100), mode="greedy")
    assert is_sum_free(result.subset)
    assert is_inverse_closed(result.subset)


def abelian_groups(max_order):
    """One group per isomorphism class, as invariant factors n1 | n2 | ... ."""
    out = []

    def extend(prefix, order):
        if prefix:
            out.append(GroupSpec(prefix))
        last = prefix[-1] if prefix else 1
        for m in range(max(2, last), max_order // order + 1):
            if m % last == 0:
                extend(prefix + (m,), order * m)
    extend((), 1)
    return out


def residue_atoms(spec):
    """The atoms {x, -x} in element order, by residue arithmetic."""
    atoms, seen = [], set()
    for x in itertools.product(*map(range, spec.factors)):
        neg = tuple(-p % n for p, n in zip(x, spec.factors))
        if any(x) and x not in seen:
            seen.update((x, neg))
            atoms.append((x,) if neg == x else (x, neg))
    return atoms


def residue_sum_free(spec, members):
    return not any(tuple((p + q) % n for p, q, n in zip(x, y, spec.factors)) in members
                   for x in members for y in members)


def reference_exhaustive(spec):
    """The mask loop the search replaced: the least atom mask of the largest size."""
    atoms = residue_atoms(spec)
    best = frozenset()
    for mask in range(1 << len(atoms)):
        members = frozenset(x for i, atom in enumerate(atoms) if mask >> i & 1 for x in atom)
        if len(members) > len(best) and residue_sum_free(spec, members):
            best = members
    return best, len(best), 1 << len(atoms)


def reference_greedy(spec, budget):
    """Each atom in order, kept when the set stays sum-free; (subset, examined, exhausted)."""
    members, examined = frozenset(), 0
    for atom in residue_atoms(spec):
        if budget is not None and examined >= budget:
            return members, examined, True
        examined += 1
        if residue_sum_free(spec, members | set(atom)):
            members |= set(atom)
    return members, examined, False


SMALL_GROUPS = abelian_groups(EXHAUSTIVE_ORDER_CAP)


def direct_atoms(spec):
    """(x, bitset of x and -x) per element, the index of -x looked up from its
    negated residues; each atom once, at its first element, the identity left out."""
    elements = list(itertools.product(*map(range, spec.factors)))
    index = {x: i for i, x in enumerate(elements)}
    atoms = []
    for i, x in enumerate(elements):
        j = index[tuple(-y % f for y, f in zip(x, spec.factors))]
        if 0 < i <= j:
            atoms.append((x, 1 << i | 1 << j))
    return atoms


def test_atoms_match_the_negated_residues():
    groups = [*SMALL_GROUPS, GroupSpec((2,) * 10), GroupSpec((3, 9)), cyclic(1000)]
    for spec in groups:
        assert list(analysis._atoms(spec)) == direct_atoms(spec), spec


def test_search_exhaustive_matches_the_mask_loop():
    assert len(SMALL_GROUPS) == 36
    for spec in SMALL_GROUPS:
        result = search_sumfree_inverse_closed(spec)
        assert (set(result.subset.elements), result.size, result.examined) == \
            reference_exhaustive(spec), spec


@pytest.mark.parametrize("budget", [None, 0, 1, 2])
def test_search_greedy_matches_the_residue_loop(budget):
    groups = abelian_groups(60)
    assert len(groups) == 101
    for spec in groups:
        result = search_sumfree_inverse_closed(spec, mode="greedy", budget=budget)
        assert (set(result.subset.elements), result.examined, result.budget_exhausted) == \
            reference_greedy(spec, budget), spec


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_search_encodes_no_atom_through_a_subset(monkeypatch, mode):
    """Each atom's bits come from its element indices in the enumeration, so
    the search builds no per-atom GroupSubset."""
    groups = [GroupSpec((2, 12)), cyclic(23)]
    expected = [search_sumfree_inverse_closed(spec, mode=mode) for spec in groups]

    def refuse(spec, items):
        raise AssertionError("an atom was encoded through GroupSubset.of")

    monkeypatch.setattr(GroupSubset, "of", staticmethod(refuse))
    assert [search_sumfree_inverse_closed(spec, mode=mode) for spec in groups] == expected


def test_search_greedy_checks_the_order_before_its_masks(monkeypatch):
    """Greedy mode has no order cap, so the enumeration limit is checked before
    any translation builds its |G|-bit masks."""
    def refuse(spec, bits, x):
        raise AssertionError("translation run for a group over the enumeration limit")

    monkeypatch.setattr(GroupSpec, "_translate_bits", refuse)
    with pytest.raises(ValueError, match="exceeds enumeration limit"):
        search_sumfree_inverse_closed(cyclic(10**6 + 1), mode="greedy")


def test_search_greedy_z3000_by_modular_arithmetic():
    n = 3000
    result = search_sumfree_inverse_closed(cyclic(n), mode="greedy")
    s = {x for (x,) in result.subset.elements}
    assert (result.size, result.examined, result.budget_exhausted) == (n // 2, n // 2, False)
    assert s == set(range(1, n, 2))
    assert s == {-x % n for x in s}
    assert not any((x + y) % n in s for x in s for y in s)


def green_ruzsa_mu(spec):
    """Largest sum-free set in a finite Abelian group (Green & Ruzsa, 2005)."""
    order = spec.order
    primes = [p for p in range(2, order + 1)
              if order % p == 0 and all(p % d for d in range(2, p))]
    p = next((p for p in primes if p % 3 == 2), None)
    if p is not None:
        return order * (p + 1) // (3 * p)
    if order % 3 == 0:
        return order // 3
    m = math.lcm(*spec.factors)
    return order * (m - 1) // (3 * m)


def test_search_exhaustive_under_the_green_ruzsa_bound():
    """Every inverse-closed sum-free set is sum-free, so mu(G) bounds the
    search. Equality holds except in four groups, pinned here."""
    below = {}
    for spec in SMALL_GROUPS:
        size, mu = search_sumfree_inverse_closed(spec).size, green_ruzsa_mu(spec)
        assert size <= mu, spec
        if size < mu:
            below[spec.factors] = (size, mu)
    assert below == {(3,): (0, 1), (3, 3): (0, 3), (9,): (2, 3), (21,): (6, 7)}


def test_search_mode_validation():
    with pytest.raises(ValueError):
        search_sumfree_inverse_closed(cyclic(8), mode="annealing")
