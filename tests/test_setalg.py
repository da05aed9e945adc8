"""Subset algebra and the symmetrised interval disjointness check."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipforge.group import GroupSpec, cyclic
from flipforge.setalg import (
    GroupSubset,
    IntervalSumsetReport,
    ResidueInterval,
    interval_elements,
    interval_sumset_check,
    inverses,
    is_inverse_closed,
    is_sum_free,
    json_value,
    sumset,
)


def random_subset(rng, spec, max_size=8):
    pool = list(spec.elements())
    size = rng.randint(0, min(max_size, len(pool)))
    return GroupSubset.of(spec, rng.sample(pool, size))


def test_subset_of_reduces_and_dedups():
    s = GroupSubset.of(cyclic(10), [3, 13, -7])
    assert len(s) == 1
    assert s.elements == ((3,),)


def test_subset_operations():
    spec = cyclic(9)
    a = GroupSubset.of(spec, [1, 2])
    b = GroupSubset.of(spec, [2, 3])
    assert a.union(b).elements == ((1,), (2,), (3,))
    assert not a.is_disjoint(b)
    assert a.is_disjoint(GroupSubset.of(spec, [4]))
    assert not a.contains_identity()
    assert GroupSubset.of(spec, [0]).contains_identity()


def test_subset_bits_stay_inside_the_group():
    spec = cyclic(5)
    for bad in (1 << 5, -2):
        with pytest.raises(ValueError, match=r"^subset bits must lie in 0 <= bits < 2\*\*5$"):
            GroupSubset(spec, bad)
    top = GroupSubset(spec, 1 << 4)
    assert len(top) == 1
    assert top.elements == ((4,),)
    assert top == GroupSubset.of(spec, [4])
    assert len(GroupSubset(spec, 0)) == 0


def test_subset_spec_mismatch():
    a = GroupSubset.of(cyclic(8), [1])
    b = GroupSubset.of(cyclic(9), [1])
    with pytest.raises(ValueError):
        a.union(b)
    with pytest.raises(ValueError):
        sumset(a, b)


@st.composite
def subset_pairs(draw):
    """1-3 cyclic factors in 2..12 and two random subsets as sets of residue tuples."""
    spec = GroupSpec(tuple(draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))))
    elements = list(spec.elements())
    return (spec, draw(st.sets(st.sampled_from(elements), max_size=40)),
            draw(st.sets(st.sampled_from(elements), max_size=40)))


@settings(derandomize=True, deadline=None)
@given(subset_pairs())
def test_sumset_against_direct_enumeration(case):
    """Every bitset operation agrees with the same operation on residue tuples."""
    spec, a, b = case

    def add(x, y):
        return tuple((p + q) % n for p, q, n in zip(x, y, spec.factors))

    def neg(x):
        return tuple(-p % n for p, n in zip(x, spec.factors))

    sa, sb = GroupSubset.of(spec, a), GroupSubset.of(spec, b)
    assert sa.elements == tuple(sorted(a)) and sb.elements == tuple(sorted(b))
    assert len(sa) == len(a)
    assert sa.union(sb).elements == tuple(sorted(a | b))
    assert sa.is_disjoint(sb) == (not a & b)
    assert sa.contains_identity() == ((0,) * len(spec.factors) in a)
    assert sumset(sa, sb).elements == tuple(sorted({add(x, y) for x in a for y in b}))
    minus_a = {neg(x) for x in a}
    assert inverses(sa).elements == tuple(sorted(minus_a))
    assert is_inverse_closed(sa) == (a == minus_a)
    assert is_inverse_closed(GroupSubset.of(spec, a | minus_a))
    assert is_sum_free(sa) == (not {add(x, y) for x in a for y in a} & a)


@st.composite
def small_group_subsets(draw):
    """2-4 cyclic factors of order <= 200 and a random subset of the group."""
    factors = []
    for left in reversed(range(draw(st.integers(2, 4)))):
        # Leave at least 2 for each factor still to be drawn.
        factors.append(draw(st.integers(2, 200 // math.prod(factors) // 2 ** left)))
    spec = GroupSpec(tuple(factors))
    return spec, GroupSubset(spec, draw(st.integers(0, 2 ** spec.order - 1)))


@settings(derandomize=True, deadline=None)
@given(small_group_subsets())
def test_elements_come_in_index_order_and_negation_follows_the_residues(case):
    """Members are listed strictly increasing and encode back to the subset;
    entry i of the negation table is the index of -x_i, as -{x_i} finds it."""
    spec, s = case
    assert all(x < y for x, y in zip(s.elements, s.elements[1:]))
    assert GroupSubset.of(spec, s.elements) == s
    elements = list(spec.elements())
    index = {x: i for i, x in enumerate(elements)}
    negation = spec._negation()
    for i, x in enumerate(elements):
        j = index[tuple(-y % f for y, f in zip(x, spec.factors))]
        assert negation[i] == j
        assert spec._negate_bits(1 << i) == 1 << j


def test_inverses_and_closure():
    rng = random.Random(78)
    for _ in range(40):
        spec = cyclic(rng.randint(3, 20))
        a = random_subset(rng, spec)
        assert inverses(inverses(a)) == a
        assert len(inverses(a)) == len(a)
        assert is_inverse_closed(a.union(inverses(a)))


def test_is_sum_free_allows_equal_summands():
    # x + x = z counts as a violation, so {0} is never sum-free
    assert not is_sum_free(GroupSubset.of(cyclic(5), [0]))
    assert not is_sum_free(GroupSubset.of(cyclic(5), [1, 2]))
    assert is_sum_free(GroupSubset.of(cyclic(6), [2]))
    assert is_sum_free(GroupSubset.of(cyclic(8), [1, 3, 5, 7]))
    assert is_sum_free(GroupSubset.of(cyclic(8), []))


@pytest.mark.parametrize("spec, members, sum_free", [
    (cyclic(1000000), [1, 999999], True),
    (GroupSpec((2, 500000)), [(1, 3), (0, 6)], False),  # (1,3) + (1,3) = (0,6)
])
def test_small_subset_of_a_large_group_never_lists_the_group(monkeypatch, spec, members, sum_free):
    """Encoding, decoding and the sum-free test cost what the subset holds."""
    def refuse(self):
        raise AssertionError("the whole group was listed")

    monkeypatch.setattr(GroupSpec, "elements", refuse)
    s = GroupSubset.of(spec, members)
    assert s.elements == tuple(sorted(spec.element(x) for x in members))
    assert is_sum_free(s) == sum_free


def test_middle_third_is_sum_free():
    """The open middle third of Z_m, the pool the layer classes draw from."""
    for m in range(4, 40, 2):
        lo = m // 3 + 1
        hi = (2 * m - 1) // 3
        assert is_sum_free(interval_elements(ResidueInterval(m, lo, hi)))


def test_residue_interval_validation():
    with pytest.raises(ValueError):
        ResidueInterval(0, 0, 0)
    with pytest.raises(ValueError):
        ResidueInterval(10, 5, 4)
    with pytest.raises(ValueError):
        ResidueInterval(10, -1, 4)
    with pytest.raises(ValueError):
        ResidueInterval(10, 4, 10)


def test_interval_elements():
    got = interval_elements(ResidueInterval(40, 6, 8))
    assert got.elements == ((6,), (7,), (8,))
    assert got.spec == cyclic(40)


def test_interval_check_landmark_configs():
    r56 = interval_sumset_check(
        56,
        ResidueInterval(56, 8, 10),
        ResidueInterval(56, 12, 13),
        ResidueInterval(56, 13, 13),
    )
    assert r56.ab_avoids_a
    assert r56.half_shift_avoids_a
    assert r56.b1_hypothesis_met
    assert r56.half_plus_b_avoids_a
    assert r56.all_asserted_hold

    r40 = interval_sumset_check(
        40,
        ResidueInterval(40, 6, 7),
        ResidueInterval(40, 9, 9),
        ResidueInterval(40, 9, 9),
    )
    assert r40.all_asserted_hold and r40.b1_hypothesis_met


def test_interval_check_hypothesis_not_met():
    """min(B1) below 3n/16 drops the third clause without failing the report."""
    report = interval_sumset_check(
        40,
        ResidueInterval(40, 6, 6),
        ResidueInterval(40, 7, 8),
        ResidueInterval(40, 7, 7),
    )
    assert not report.b1_hypothesis_met
    assert report.half_plus_b_avoids_a is None
    assert report.ab_avoids_a and report.half_shift_avoids_a
    assert report.all_asserted_hold


def test_interval_check_brute_force_replay():
    """Recompute the n=56 clauses with raw modular arithmetic."""
    n = 56
    a0 = set(range(8, 11))
    b0 = set(range(12, 14))
    b1 = set(range(13, 14))
    a = a0 | {(-x) % n for x in a0}
    two_b1 = {(x + y) % n for x in b1 for y in b1}
    b = b0 | {(-x) % n for x in b0} | two_b1 | {(-x) % n for x in two_b1}

    report = interval_sumset_check(
        n,
        ResidueInterval(n, 8, 10),
        ResidueInterval(n, 12, 13),
        ResidueInterval(n, 13, 13),
    )
    assert {x[0] for x in report.a_set.elements} == a
    assert {x[0] for x in report.b_set.elements} == b
    assert report.ab_avoids_a == (not {(x + y) % n for x in a for y in b} & a)
    assert report.half_shift_avoids_a == (not {(x + n // 2) % n for x in a} & a)
    assert report.half_plus_b_avoids_a == (not {(x + n // 2) % n for x in b} & a)


def test_interval_check_preconditions():
    iv = ResidueInterval
    with pytest.raises(ValueError):
        interval_sumset_check(42, iv(42, 7, 8), iv(42, 9, 9), iv(42, 9, 9))
    # endpoints n/8 and n/4 are excluded
    with pytest.raises(ValueError):
        interval_sumset_check(40, iv(40, 5, 6), iv(40, 8, 9), iv(40, 8, 8))
    with pytest.raises(ValueError):
        interval_sumset_check(40, iv(40, 6, 7), iv(40, 9, 10), iv(40, 9, 9))
    # A0 must sit entirely below B0
    with pytest.raises(ValueError):
        interval_sumset_check(40, iv(40, 6, 9), iv(40, 9, 9), iv(40, 9, 9))
    # B1 must be a sub-interval of B0
    with pytest.raises(ValueError):
        interval_sumset_check(40, iv(40, 6, 7), iv(40, 9, 9), iv(40, 6, 6))
    # all intervals share the modulus
    with pytest.raises(ValueError):
        interval_sumset_check(40, iv(48, 7, 8), iv(40, 9, 9), iv(40, 9, 9))


def test_interval_check_random_sweep():
    """Every admissible configuration should satisfy the asserted clauses."""
    rng = random.Random(56)
    checked = 0
    for n in (40, 48, 56, 64, 72):
        lo, hi = n // 8 + 1, n // 4 - 1
        for _ in range(40):
            points = sorted(rng.sample(range(lo, hi + 1), 2))
            split = rng.randint(points[0], points[1] - 1) if points[1] > points[0] else None
            if split is None:
                continue
            a0 = ResidueInterval(n, points[0], split)
            b0 = ResidueInterval(n, split + 1, points[1])
            b1_lo = rng.randint(b0.lo, b0.hi)
            b1 = ResidueInterval(n, b1_lo, rng.randint(b1_lo, b0.hi))
            report = interval_sumset_check(n, a0, b0, b1)
            assert report.ab_avoids_a, (n, a0, b0)
            assert report.half_shift_avoids_a, (n, a0, b0)
            if report.b1_hypothesis_met:
                assert report.half_plus_b_avoids_a, (n, a0, b0, b1)
            checked += 1
    assert checked > 100


def test_interval_report_json():
    report = interval_sumset_check(
        40,
        ResidueInterval(40, 6, 7),
        ResidueInterval(40, 9, 9),
        ResidueInterval(40, 9, 9),
    )
    data = json_value(report)
    assert data == {
        "a_set": [[6], [7], [33], [34]],
        "b_set": [[9], [18], [22], [31]],
        "ab_avoids_a": True,
        "half_shift_avoids_a": True,
        "b1_hypothesis_met": True,
        "half_plus_b_avoids_a": True,
    }
    assert isinstance(report, IntervalSumsetReport)


def test_json_value_encodes_nested_values():
    z = GroupSpec((2, 4))
    assert json_value(GroupSubset.of(z, [(1, 3), (0, 2)])) == [[0, 2], [1, 3]]
    assert json_value(z) == "z:2,4"
    assert json_value(ResidueInterval(8, 2, 3)) == {"n": 8, "lo": 2, "hi": 3}
    assert json_value(((1, (2, 3)), [None, "x", True])) == [[1, [2, 3]], [None, "x", True]]


@st.composite
def translate_cases(draw):
    """1-3 cyclic factors in 2..12, a random subset and a random element."""
    spec = GroupSpec(tuple(draw(st.lists(st.integers(2, 12), min_size=1, max_size=3))))
    elements = list(spec.elements())
    members = draw(st.sets(st.sampled_from(elements), max_size=40))
    return spec, elements, members, draw(st.sampled_from(elements))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(translate_cases())
def test_translate_is_residue_addition(case):
    """The bitset rotation and the list rotation agree with adding residue
    tuples, over the enumeration order that numbers the bits; the index and
    its decoding agree with that order."""
    spec, elements, members, x = case
    index = {e: i for i, e in enumerate(elements)}
    plus_x = [tuple((p + q) % n for p, q, n in zip(e, x, spec.factors)) for e in elements]
    moved = {plus_x[index[e]] for e in members}
    translate = spec._translate_bits
    assert translate(sum(1 << index[e] for e in members), x) == sum(1 << index[e] for e in moved)
    assert translate(1, x) == 1 << index[x]
    assert spec._translate_list(list(range(spec.order)), x) == [index[e] for e in plus_x]
    assert spec._index(x) == index[x]
    assert list(spec._elements_at([spec._index(x)])) == [x]
    assert list(spec._elements_at(list(range(spec.order)))) == elements


@pytest.mark.parametrize("call", [lambda a: sumset(a, a), inverses, is_sum_free, is_inverse_closed],
                         ids=["sumset", "inverses", "is_sum_free", "is_inverse_closed"])
def test_set_algebra_checks_the_order_before_allocating(call):
    """A subset built directly skips GroupSubset.of's check, so the translation
    checks the order before building its |G|-bit repunits or digit string."""
    a = GroupSubset(GroupSpec((10**6 + 1,)), 0b110)
    with pytest.raises(ValueError, match=r"^group order 1000001 exceeds enumeration limit 1000000$"):
        call(a)
