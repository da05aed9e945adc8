"""The immutable record base behind every plan, report and value class."""

import pytest

from flipforge.group import GroupSpec, _Record
from flipforge.pipelines import plan_gaps
from flipforge.setalg import GroupSubset, json_value


class Pair(_Record):
    left: int
    right: object


class Twin(_Record):
    left: int
    right: object


def test_fields_follow_declaration_order():
    assert Pair._fields == ("left", "right")
    assert GroupSubset._fields == ("spec", "bits")


def test_construction_by_position_and_keyword():
    assert vars(Pair(1, 2)) == {"left": 1, "right": 2}
    assert Pair(1, right=2) == Pair(right=2, left=1) == Pair(1, 2)


@pytest.mark.parametrize("args, kwargs, message", [
    ((1,), {}, r"missing field\(s\): right"),
    ((), {}, r"missing field\(s\): left, right"),
    ((1, 2, 3), {}, r"takes 2 fields, got 3 positional"),
    ((1, 2), {"middle": 3}, r"unexpected field 'middle'"),
    ((1,), {"left": 2}, r"got field 'left' twice"),
])
def test_bad_construction_raises_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)


def test_fields_cannot_be_assigned_or_deleted():
    pair = Pair(1, 2)
    with pytest.raises(AttributeError, match="cannot assign to field 'left'"):
        pair.left = 5
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        pair.extra = 5
    with pytest.raises(AttributeError, match="cannot delete field 'right'"):
        del pair.right
    assert vars(pair) == {"left": 1, "right": 2}


def test_equality_and_hash_follow_the_field_tuple():
    values = [(1, 2), (1, (2, 3)), (2, 1), (1, 2)]
    for a in values:
        for b in values:
            assert (Pair(*a) == Pair(*b)) == (a == b)
            assert (Pair(*a) != Pair(*b)) == (a != b)
        assert hash(Pair(*a)) == hash(a)
    assert len({Pair(1, 2), Pair(1, 2), Pair(2, 1)}) == 2


def test_classes_with_equal_values_differ():
    assert Pair(1, 2) != Twin(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert Pair(1, 2).__eq__((1, 2)) is NotImplemented


def test_repr_names_every_field():
    assert repr(Pair(1, "x")) == "Pair(left=1, right='x')"
    assert repr(GroupSpec((2, 3))) == "GroupSpec(factors=(2, 3))"


def test_replace_changes_only_the_named_fields():
    pair = Pair(1, 2)
    assert pair.replace(right=5) == Pair(1, 5)
    assert pair == Pair(1, 2)
    with pytest.raises(TypeError, match="unexpected field 'middle'"):
        pair.replace(middle=3)


def test_post_init_still_runs():
    listed, tupled = GroupSpec([2, 3]), GroupSpec((2, 3))
    assert listed == tupled and hash(listed) == hash(tupled)
    with pytest.raises(ValueError, match="subset bits"):
        GroupSubset(GroupSpec((5,)), 1 << 5)
    with pytest.raises(ValueError, match="subset bits"):
        GroupSubset(spec=GroupSpec((5,)), bits=-2)


def test_cached_blocks_are_computed_once_per_spec(monkeypatch):
    spec = GroupSpec((4, 6))
    calls = []
    blocks = GroupSpec.__dict__["_blocks"]
    compute = blocks.func

    def counting(self):
        calls.append(self)
        return compute(self)

    monkeypatch.setattr(blocks, "func", counting)
    first = spec._blocks
    assert spec._blocks is first
    assert len(calls) == 1
    # The cached value sits beside the fields and leaves equality alone.
    assert spec == GroupSpec((4, 6)) and hash(spec) == hash(GroupSpec((4, 6)))


def test_json_value_keys_follow_declaration_order():
    plan = plan_gaps(q=2, k=9, prefix_e=(140, 135), prefix_deg=(42, 135))
    assert list(json_value(plan)) == [
        "q", "k", "prefix_e", "prefix_deg", "prefix_gap", "core_degree", "gap_slack",
        "t", "t_min", "part_size", "layer_sizes", "layer_group", "deg_affine",
        "e_affine", "deg_at_t", "e_at_t", "deg_chain_ok", "e_chain_ok",
        "first_chain_violation", "prefix_order", "order_estimate"]
    assert plan.problems == ()  # a property, not a field
    assert json_value(Pair(GroupSpec((4,)), (Twin(1, None),))) == {
        "left": "z:4", "right": [{"left": 1, "right": None}]}
