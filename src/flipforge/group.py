"""Finite Abelian groups given as direct products of cyclic factors.

Elements are tuples of residues, one per factor, always stored reduced.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

GroupElement = tuple[int, ...]
ElementLike = Union[int, Sequence[int]]

ENUMERATION_LIMIT = 10**6


@dataclass(frozen=True)
class GroupSpec:
    """Direct product of cyclic groups Z_{n1} x ... x Z_{nk}."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))  # a list is unhashable
        if not self.factors:
            raise ValueError("group needs at least one cyclic factor")
        for n in self.factors:
            if not isinstance(n, int) or n < 2:
                raise ValueError(f"cyclic factor must be an integer >= 2, got {n!r}")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def identity(self) -> GroupElement:
        return (0,) * len(self.factors)

    def element(self, value: ElementLike) -> GroupElement:
        """Coerce an int (single factor only) or residue sequence, reducing mod factors."""
        if isinstance(value, int):
            if len(self.factors) != 1:
                raise ValueError(f"bare integer element needs a single factor group, this one has {len(self.factors)}")
            return (value % self.factors[0],)
        residues = tuple(value)
        if len(residues) != len(self.factors):
            raise ValueError(f"element length {len(residues)} does not match {len(self.factors)} factors")
        return tuple(x % n for x, n in zip(residues, self.factors))

    def add(self, x: ElementLike, y: ElementLike) -> GroupElement:
        a = self.element(x)
        b = self.element(y)
        return tuple((p + q) % n for p, q, n in zip(a, b, self.factors))

    def neg(self, x: ElementLike) -> GroupElement:
        a = self.element(x)
        return tuple((-p) % n for p, n in zip(a, self.factors))

    @functools.cached_property
    def _blocks(self) -> tuple[tuple[int, int, int], ...]:
        """(factor f, inner size, repunit) per factor: in enumeration order the
        factor's residue is constant on runs of ``inner`` elements, f runs to a
        block, and the repunit has one bit at the start of each block. Index
        bitset translation (``setalg._translator``) masks with the repunits, so
        they are computed once per spec and kept as long as it is."""
        blocks = []
        inner = self.order
        for f in self.factors:
            inner //= f
            # Built from its binary digits, in time linear in |G|: dividing the
            # all-ones int by (1 << block) - 1 took about 1 s for z:2,500000.
            block = f * inner
            blocks.append((f, inner, int("1".rjust(block, "0") * (self.order // block), 2)))
        return tuple(blocks)

    def check_enumerable(self) -> None:
        """Raise when the group is too large to list; run before any per-element allocation."""
        if self.order > ENUMERATION_LIMIT:
            raise ValueError(
                f"group order {self.order} exceeds enumeration limit {ENUMERATION_LIMIT}")

    def elements(self) -> Iterator[GroupElement]:
        """Enumerate all elements in lexicographic order, identity first."""
        self.check_enumerable()
        yield from itertools.product(*map(range, self.factors))

    def to_text(self) -> str:
        return "z:" + ",".join(str(n) for n in self.factors)

    def __str__(self) -> str:
        return self.to_text()


def cyclic(n: int) -> GroupSpec:
    return GroupSpec((n,))


def parse_group_text(text: str) -> GroupSpec:
    """Parse forms like ``z:40``, ``z:2,28`` and the alias ``z2xz:28``."""
    body = text.strip().lower()
    if body.startswith("z2xz:"):
        tail = body[len("z2xz:"):]
        if not tail.isdigit():
            raise ValueError(f"malformed group spec {text!r}")
        return GroupSpec((2, int(tail)))
    if body.startswith("z:"):
        tail = body[len("z:"):]
        parts = tail.split(",")
        try:
            factors = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"malformed group spec {text!r}") from None
        return GroupSpec(factors)
    raise ValueError(f"malformed group spec {text!r}, expected 'z:n', 'z:a,b,...' or 'z2xz:n'")


def format_elements(elements: Iterable[GroupElement]) -> list[list[int]]:
    """Serialize elements as sorted integer arrays."""
    return [list(e) for e in sorted(elements)]
