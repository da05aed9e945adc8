"""Group arithmetic sanity checks."""

import random

import pytest

from flipforge.group import GroupSpec, cyclic, format_elements, parse_group_text
from flipforge.setalg import GroupSubset, sumset


def plus(spec, x, y):
    """The group law as literal residue arithmetic."""
    return tuple((a + b) % n for a, b, n in zip(x, y, spec.factors))


def test_order_and_identity():
    assert cyclic(40).order == 40
    assert next(cyclic(40).elements()) == (0,)
    spec = GroupSpec((2, 2, 20))
    assert spec.order == 80
    assert next(spec.elements()) == (0, 0, 0)


def test_factor_validation():
    with pytest.raises(ValueError):
        GroupSpec(())
    with pytest.raises(ValueError):
        GroupSpec((1,))
    with pytest.raises(ValueError):
        GroupSpec((2, 0))


def test_factors_given_as_a_list_are_kept_as_a_tuple():
    listed, tupled = GroupSpec([2, 3]), GroupSpec((2, 3))
    assert listed.factors == (2, 3)
    assert listed == tupled
    assert hash(listed) == hash(tupled)
    subsets = GroupSubset.of(listed, [(1, 1)]), GroupSubset.of(tupled, [(0, 1)])
    assert sumset(*subsets).elements == {(1, 2)}


def test_element_coercion():
    spec = cyclic(12)
    assert spec.element(5) == (5,)
    assert spec.element(-1) == (11,)
    assert spec.element([17]) == (5,)
    two = GroupSpec((2, 12))
    assert two.element((3, 25)) == (1, 1)
    with pytest.raises(ValueError):
        two.element(3)  # bare int only makes sense with a single factor
    with pytest.raises(ValueError):
        two.element((1, 2, 3))


def test_arithmetic():
    spec = GroupSpec((2, 28))
    assert spec.element((-1, -5)) == (1, 23)
    assert spec.element((-0, -0)) == (0, 0)
    assert plus(spec, (0, 3), spec.element((0, -5))) == (0, 26)


def test_group_axioms_random():
    """Identity and inverses on random elements of random groups."""
    rng = random.Random(1812)
    for _ in range(200):
        factors = tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 3)))
        spec = GroupSpec(factors)
        x = tuple(rng.randrange(n) for n in factors)
        identity = (0,) * len(spec.factors)
        assert plus(spec, x, identity) == spec.element(x)
        assert plus(spec, x, spec.element([-y for y in x])) == identity


def test_elements_enumeration():
    spec = GroupSpec((2, 3))
    got = list(spec.elements())
    assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert got[0] == (0,) * len(spec.factors)
    assert got == sorted(got)
    assert len(set(got)) == spec.order


def test_elements_limit():
    with pytest.raises(ValueError, match="exceeds enumeration limit"):
        list(GroupSpec((1001, 1000)).elements())


def test_parse_group_text():
    assert parse_group_text("z:40") == cyclic(40)
    assert parse_group_text("z:2,28") == GroupSpec((2, 28))
    assert parse_group_text("z2xz:28") == GroupSpec((2, 28))
    assert parse_group_text(" Z:6 ") == cyclic(6)


def test_parse_group_text_rejects_garbage():
    for text in ("", "q:4", "z:", "z:a", "z:4,", "z2xz:x", "40"):
        with pytest.raises(ValueError):
            parse_group_text(text)


@pytest.mark.parametrize("text", ["z:1_2", "z:\u0667", "z2xz:\u00b2", "z:2,\u0661\u0664"])
def test_parse_group_text_takes_ascii_integers_only(text):
    """int() would read these; every factor of either form is a sign and ASCII digits."""
    with pytest.raises(ValueError) as info:
        parse_group_text(text)
    assert str(info.value) == f"malformed group spec {text!r}"


def test_parse_group_text_reads_both_forms_alike():
    assert parse_group_text("z2xz: +14 ") == parse_group_text("z: 2, +14") == GroupSpec((2, 14))


def test_to_text_round_trip():
    for spec in (cyclic(7), GroupSpec((2, 80)), GroupSpec((2, 2, 20))):
        assert parse_group_text(spec.to_text()) == spec
        assert str(spec) == spec.to_text()


def test_format_elements_sorted():
    out = format_elements({(1, 0), (0, 2), (0, 1)})
    assert out == [[0, 1], [0, 2], [1, 0]]
