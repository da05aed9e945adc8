"""Subset algebra over finite Abelian groups: sumsets, inverses, sum-freeness.

Also hosts the interval disjointness checker used by the two-colour
construction: given intervals A0 < B0 inside (n/8, n/4) and B1 inside B0,
the symmetrised sets A and B satisfy (A+B) and A disjoint, plus two further
disjointness facts involving the involution n/2.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .group import ElementLike, GroupElement, GroupSpec, _Record, cyclic, format_elements

__all__ = ["GroupSubset", "IntervalSumsetReport", "ResidueInterval", "interval_sumset_check",
           "inverses", "is_inverse_closed", "is_sum_free", "json_value", "sumset"]


class GroupSubset(_Record):
    """Immutable subset of a fixed group: bit i of ``bits`` is the i-th element of
    ``spec.elements()``, numbered and translated by the spec, so set operations are integer operations."""

    spec: GroupSpec
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits.bit_length() > self.spec.order:  # O(1), not O(|G|)
            raise ValueError(f"subset bits must lie in 0 <= bits < 2**{self.spec.order}")

    @staticmethod
    def of(spec: GroupSpec, items: Iterable[ElementLike]) -> "GroupSubset":
        spec.check_enumerable()  # the bitset takes |G| / 8 bytes
        octets = bytearray((spec.order + 7) // 8)
        for x in items:
            index = spec._index(spec.element(x))
            octets[index >> 3] |= 1 << (index & 7)
        return GroupSubset(spec, int.from_bytes(octets, "little"))

    @property
    def elements(self) -> frozenset[GroupElement]:
        """The members as residue tuples, decoded from the set bits alone."""
        digits = bin(self.bits)[:1:-1]  # digits[i] is bit i
        indices = []
        index = digits.find("1")
        while index >= 0:
            indices.append(index)
            index = digits.find("1", index + 1)
        return frozenset(self.spec._elements_at(indices))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def union(self, other: "GroupSubset") -> "GroupSubset":
        _check_same_spec(self, other)
        return GroupSubset(self.spec, self.bits | other.bits)

    def is_disjoint(self, other: "GroupSubset") -> bool:
        _check_same_spec(self, other)
        return not self.bits & other.bits

    def contains_identity(self) -> bool:
        return bool(self.bits & 1)


def json_value(obj: object) -> object:
    """The JSON form of a plan, report or value: a record as {field name: value}
    in field declaration order (properties are not fields, so they are left
    out), tuples and lists as lists, a GroupSpec as its text, a GroupSubset as
    its sorted residue arrays. Anything else is returned as it is."""
    return _json_value(obj)


def _json_value(obj: object) -> object:
    # The recursion lives here, so that the public name never calls itself.
    if isinstance(obj, (tuple, list)):
        # Ints, nearly every item of a plan's per-colour vectors, skip the call.
        return [x if type(x) is int else _json_value(x) for x in obj]
    if isinstance(obj, GroupSubset):
        return format_elements(obj.elements)
    if isinstance(obj, GroupSpec):
        return obj.to_text()
    if isinstance(obj, _Record):
        return {f: _json_value(v) for f, v in zip(obj._fields, obj._values())}
    return obj


def _check_same_spec(a: GroupSubset, b: GroupSubset) -> None:
    if a.spec != b.spec:
        raise ValueError(f"subsets live in different groups: {a.spec} vs {b.spec}")


def sumset(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    """All pairwise sums x + y for x in a, y in b: a translated by each y."""
    _check_same_spec(a, b)
    translate = a.spec._translate_bits
    bits = 0
    for y in b.elements:
        bits |= translate(a.bits, y)
    return GroupSubset(a.spec, bits)


def inverses(a: GroupSubset) -> GroupSubset:
    """-S, the negation of every member."""
    return GroupSubset(a.spec, a.spec._negate_bits(a.bits))


def is_sum_free(a: GroupSubset) -> bool:
    """No x, y, z in the set with x + y = z (x = y allowed)."""
    return sumset(a, a).is_disjoint(a)


def is_inverse_closed(a: GroupSubset) -> bool:
    return a == inverses(a)


class ResidueInterval(_Record):
    """Integer interval {lo, ..., hi} of residues mod n, 0 <= lo <= hi < n."""

    n: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"modulus must be positive, got {self.n}")
        if not (0 <= self.lo <= self.hi < self.n):
            raise ValueError(f"interval needs 0 <= lo <= hi < n, got lo={self.lo} hi={self.hi} n={self.n}")


def interval_elements(interval: ResidueInterval) -> GroupSubset:
    spec = cyclic(interval.n)
    return GroupSubset.of(spec, range(interval.lo, interval.hi + 1))


class IntervalSumsetReport(_Record):
    """Outcome of the interval disjointness check.

    half_plus_b_avoids_a is None when the min(B1) >= 3n/16 hypothesis is not
    met, in which case that clause is not asserted.
    """

    a_set: GroupSubset
    b_set: GroupSubset
    ab_avoids_a: bool
    half_shift_avoids_a: bool
    b1_hypothesis_met: bool
    half_plus_b_avoids_a: Optional[bool]

    @property
    def all_asserted_hold(self) -> bool:
        if not (self.ab_avoids_a and self.half_shift_avoids_a):
            return False
        if self.b1_hypothesis_met:
            return bool(self.half_plus_b_avoids_a)
        return True


def interval_sumset_check(
    n: int,
    a0: ResidueInterval,
    b0: ResidueInterval,
    b1: ResidueInterval,
) -> IntervalSumsetReport:
    """Build A = A0 u A0^-1 and B = B0 u B0^-1 u 2B1 u 2B1^-1, then test disjointness.

    Preconditions: n divisible by 8 (so the open interval (n/8, n/4) has integer
    endpoints, both excluded); A0 and B0 non-empty disjoint sub-intervals of that
    open interval with A0 entirely below B0; B1 a sub-interval of B0.
    Every reported boolean is computed by direct sumset evaluation.
    """
    if n % 8 != 0:
        raise ValueError(f"modulus must be divisible by 8, got {n}")
    for name, iv in (("A0", a0), ("B0", b0), ("B1", b1)):
        if iv.n != n:
            raise ValueError(f"{name} has modulus {iv.n}, expected {n}")
    eighth = n // 8
    quarter = n // 4
    for name, iv in (("A0", a0), ("B0", b0)):
        if iv.lo <= eighth or iv.hi >= quarter:
            raise ValueError(f"{name} must lie strictly inside (n/8, n/4) = ({eighth}, {quarter})")
    if a0.hi >= b0.lo:
        raise ValueError(f"A0 must lie entirely below B0, got A0 hi {a0.hi} >= B0 lo {b0.lo}")
    if not (b0.lo <= b1.lo and b1.hi <= b0.hi):
        raise ValueError(f"B1 must be a sub-interval of B0, got [{b1.lo},{b1.hi}] vs [{b0.lo},{b0.hi}]")

    spec = cyclic(n)
    a_base = interval_elements(a0)
    b_base = interval_elements(b0)
    b1_base = interval_elements(b1)
    a_set = a_base.union(inverses(a_base))
    two_b1 = sumset(b1_base, b1_base)
    b_set = b_base.union(inverses(b_base)).union(two_b1).union(inverses(two_b1))

    half = GroupSubset.of(spec, [n // 2])
    ab_avoids_a = sumset(a_set, b_set).is_disjoint(a_set)
    half_shift_avoids_a = sumset(a_set, half).is_disjoint(a_set)
    hypothesis = 16 * b1.lo >= 3 * n
    half_plus_b = sumset(half, b_set).is_disjoint(a_set) if hypothesis else None

    return IntervalSumsetReport(
        a_set=a_set,
        b_set=b_set,
        ab_avoids_a=ab_avoids_a,
        half_shift_avoids_a=half_shift_avoids_a,
        b1_hypothesis_met=hypothesis,
        half_plus_b_avoids_a=half_plus_b,
    )
