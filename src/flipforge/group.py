"""Finite Abelian groups given as direct products of cyclic factors.

Elements are tuples of residues, one per factor, always stored reduced.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Iterable, Iterator, Sequence, Union

__all__ = ["GroupSpec", "cyclic", "parse_group_text"]

GroupElement = tuple[int, ...]
ElementLike = Union[int, Sequence[int]]

ENUMERATION_LIMIT = 10**6

# An integer in text: an optional sign and ASCII digits. int() alone would
# also read underscores and non-ASCII digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int(text: str) -> int:
    """The one reader of integers in text (group specs, class keys and every
    CLI integer): padding stripped, an optional sign and ASCII digits."""
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


# The CLI passes _int to argparse as a type, and argparse names the type in its
# error: "invalid int value: '...'".
_int.__name__ = "int"


def _check_limit(count: int, label: str) -> None:
    """Raise when ``count`` exceeds the enumeration limit; ``label`` is the
    message's subject with ``{}`` where the count goes."""
    if count > ENUMERATION_LIMIT:
        raise ValueError(f"{label.format(count)} exceeds enumeration limit {ENUMERATION_LIMIT}")


class _Record:
    """Immutable value record, the base of every plan, report and value class.

    A subclass's fields are its own annotations, in declaration order, and
    that order is the JSON key order (``setalg.json_value``). Fields are set
    by position or keyword, then ``__post_init__`` runs in a class that
    defines or inherits one (its checks and coercions); equality and hash
    follow the field tuple, and assignment or deletion raises. Instances keep
    a ``__dict__``, so a ``functools.cached_property`` can store its value.
    Unlike the ``dataclasses`` decorator, this costs no ``inspect`` import
    and no generated source per class at import time.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls._fields = tuple(cls.__annotations__)  # the class's own, in order
        post_init = getattr(cls, "__post_init__", None)

        # One __init__ per class, with its fields and its __post_init__ (or
        # none, so no call) bound in the closure rather than looked up.
        def __init__(self: _Record, *args: object, **kwargs: object) -> None:
            if len(args) == len(fields) and not kwargs:
                self.__dict__.update(zip(fields, args))
            else:
                self.__dict__.update(self._bind(args, kwargs))
            if post_init is not None:
                post_init(self)

        cls.__init__ = __init__  # type: ignore[method-assign]

    def _bind(self, args: tuple, kwargs: dict) -> dict[str, object]:
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)} positional")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected field {key!r}")
            if key in values:
                raise TypeError(f"{name}() got field {key!r} twice")
            values[key] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing field(s): {', '.join(missing)}")
        return values

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def replace(self, **changes: object) -> "_Record":
        """A copy with the named fields changed, checked like a new record."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GroupSpec(_Record):
    """Direct product of cyclic groups Z_{n1} x ... x Z_{nk}."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        self.__dict__["factors"] = tuple(self.factors)  # a list is unhashable
        if not self.factors:
            raise ValueError("group needs at least one cyclic factor")
        for n in self.factors:
            if not isinstance(n, int) or n < 2:
                raise ValueError(f"cyclic factor must be an integer >= 2, got {n!r}")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

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

    @functools.cached_property
    def _blocks(self) -> tuple[tuple[int, int, int], ...]:
        """(factor f, inner size, repunit) per factor: in enumeration order the
        factor's residue is constant on runs of ``inner`` elements, f runs to a
        block, and adding residue y rotates every block by y runs. Each repunit
        (one bit at each block's start) has |G| bits, so the order is checked first."""
        self.check_enumerable()
        blocks = []
        inner = self.order
        for f in self.factors:
            inner //= f
            # Built from its binary digits, in time linear in |G|: dividing the
            # all-ones int by (1 << block) - 1 took about 1 s for z:2,500000.
            block = f * inner
            blocks.append((f, inner, int("1".rjust(block, "0") * (self.order // block), 2)))
        return tuple(blocks)

    def _index(self, x: Iterable[int]) -> int:
        """Reduced element x's position in enumeration order: mixed radix, first factor first."""
        index = 0
        for y, n in zip(x, self.factors):
            index = index * n + y
        return index

    def _elements_at(self, indices: list[int]) -> Iterator[GroupElement]:
        """The elements at these positions, decoded one residue column per factor."""
        columns = []
        inner = self.order
        for f in self.factors:
            inner //= f
            columns.append([i // inner % f for i in indices])
        return zip(*columns)

    def _translate_bits(self, bits: int, x: GroupElement) -> int:
        """S + x on an index bitset S (bit i is the i-th element): each residue y rotates
        its factor's blocks, ``((S & lo) << y*inner) | ((S & hi) >> (f-y)*inner)``,
        the low mask being the block pattern times the repunit, so no mask is kept."""
        for y, (f, inner, repunit) in zip(x, self._blocks):
            if y:
                low = bits & ((repunit << (f - y) * inner) - repunit)
                bits = (low << y * inner) | ((bits ^ low) >> (f - y) * inner)
        return bits

    def _negate_bits(self, bits: int) -> int:
        """-S: reversing the |G| bits sends each residue y to f-1-y; adding 1 to each gives -y."""
        ones = (1,) * len(self._blocks)  # the order is checked before the |G|-digit string
        return self._translate_bits(int(bin(bits)[2:].zfill(self.order)[::-1], 2), ones)

    def _negation(self) -> list[int]:
        """Entry i is the index of -x, x the i-th element: as in ``_negate_bits``, the reversed
        index list holds at residue y the index of f-1-y, so translated by f-1 it holds that of -y."""
        self.check_enumerable()  # before the |G|-entry list
        return self._translate_list(list(range(self.order - 1, -1, -1)),
                                    tuple(f - 1 for f in self.factors))

    def _translate_list(self, items: list, x: GroupElement) -> list:
        """Entry i becomes items[index of element i + x]: each factor's blocks rotated by its residue."""
        for y, (f, inner, _) in zip(x, self._blocks):
            if y:
                block, shift = f * inner, y * inner
                rotated = []
                for start in range(0, len(items), block):
                    rotated += items[start + shift:start + block]
                    rotated += items[start:start + shift]
                items = rotated
        return items

    def check_enumerable(self) -> None:
        """Raise when the group is too large to list; run before any per-element allocation."""
        _check_limit(self.order, "group order {}")

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
    """Parse forms like ``z:40``, ``z:2,28`` and the alias ``z2xz:28``; every
    factor is read by ``_int``."""
    body = text.strip().lower()
    if body.startswith("z2xz:"):
        head, parts = (2,), [body[len("z2xz:"):]]
    elif body.startswith("z:"):
        head, parts = (), body[len("z:"):].split(",")
    else:
        raise ValueError(f"malformed group spec {text!r}, expected 'z:n', 'z:a,b,...' or 'z2xz:n'")
    try:
        factors = tuple(map(_int, parts))
    except ValueError:
        raise ValueError(f"malformed group spec {text!r}") from None
    return GroupSpec(head + factors)
