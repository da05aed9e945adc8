"""Flip verification, order bounds, and sum-free connecting-set search.

A graph is flip-coloured for (a_1, ..., a_k) when it is colour-regular with
strictly increasing colour degrees while the closed per-colour edge counts
e_1[v] > e_2[v] > ... > e_k[v] decrease strictly at every vertex.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Optional, Sequence, Union

from .ecgraph import EdgeColouredGraph
from .group import ENUMERATION_LIMIT, GroupElement, GroupSpec, _Record
from .setalg import GroupSubset, json_value

__all__ = ["FlipReport", "SearchResult", "bounds_table", "bounds_to_csv", "check_br_range",
           "new_bound", "new_bound_cap", "old_bound", "parity_factor", "qk_bounds",
           "search_sumfree_inverse_closed", "verify_flip"]

VIOLATION_JSON_CAP = 20


class FlipReport(_Record):
    """Verdict plus the evidence gathered while checking the flip conditions.

    e_chain is the shared closed-count vector when it is uniform across
    vertices, otherwise the full per-vertex matrix. Violations pair a vertex
    (None for graph-level facts) with a reason tag.
    """

    verdict: str
    colour_degrees: Optional[tuple[int, ...]]
    e_chain: Union[tuple[int, ...], tuple[tuple[int, ...], ...], None]
    violations: tuple[tuple[Optional[int], str], ...]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def uniform_e_chain(self) -> Optional[tuple[int, ...]]:
        if self.e_chain and isinstance(self.e_chain[0], int):
            return self.e_chain  # type: ignore[return-value]
        return None

    def to_json_dict(self) -> dict:
        capped = self.replace(violations=self.violations[:VIOLATION_JSON_CAP])
        return json_value(capped) | {"violation_count": len(self.violations)}


def verify_flip(
    g: EdgeColouredGraph,
    expected: Optional[Sequence[int]] = None,
) -> FlipReport:
    """Brute-force flip check: colour regularity, increasing degrees, strict chains.

    Makes a single pass over the vertices: degrees and closed counts both come
    from each vertex's profile, so callers that audit a graph against a
    predicted uniform profile can read it from the report without profiling
    the graph again.
    """
    if expected is not None and len(expected) != g.colour_count:
        raise ValueError(
            f"expected degree vector has length {len(expected)}, graph has {g.colour_count} colours")
    violations: list[tuple[Optional[int], str]] = []

    degrees = []
    chains = []
    for profile in g.profiles():
        degrees.append(profile.deg)
        chains.append(profile.e_closed)
    base = degrees[0] if degrees else tuple([0] * g.colour_count)
    regular = True
    for v, d in enumerate(degrees):
        if d != base:
            regular = False
            violations.append((v, "not-regular"))
    if regular and any(base[i] >= base[i + 1] for i in range(len(base) - 1)):
        violations.append((None, "degrees-not-increasing"))
    if regular and expected is not None and base != tuple(expected):
        violations.append((None, "degrees-not-expected"))

    uniform = all(e == chains[0] for e in chains)
    for v, e in enumerate(chains):
        if any(e[i] <= e[i + 1] for i in range(len(e) - 1)):
            violations.append((v, "chain-not-strict"))

    e_chain: Union[tuple[int, ...], tuple[tuple[int, ...], ...], None]
    if not chains:
        e_chain = None
    elif uniform:
        e_chain = chains[0]
    else:
        e_chain = tuple(chains)
    return FlipReport(
        verdict="pass" if not violations else "fail",
        colour_degrees=base if regular else None,
        e_chain=e_chain,
        violations=tuple(violations),
    )


def old_bound(b: int, r: int) -> int:
    """Order bound from the classification of small difference r - b."""
    if b < 3:
        raise ValueError(f"b >= 3 required, got b={b}")
    if r <= b:
        raise ValueError(f"r > b required, got b={b} r={r}")
    cap = b * (b + 1) // 2 - 1
    if r > cap:
        raise ValueError(f"r <= b(b+1)/2 - 1 = {cap} required, got r={r}")
    return _bound_rows(b, (r,))[0][2]


def parity_factor(b: int, r: int) -> int:
    """1 unless both colour degrees are odd, then 2."""
    return max(1, (b % 2) + (r % 2))


def new_bound_cap(b: int) -> int:
    """Exclusive upper limit on r for the two-colour Cayley construction,
    and the floor that build_br checks e_1 against."""
    return b + 2 * ((b + 2) // 6) ** 2


def check_br_range(b: int, r: int) -> None:
    if b < 4:
        raise ValueError(f"b >= 4 required, got b={b}")
    if r <= b:
        raise ValueError(f"r > b required, got b={b} r={r}")
    cap = new_bound_cap(b)
    if r >= cap:
        raise ValueError(f"r < b + 2*floor((b+2)/6)^2 = {cap} required, got r={r}")


def new_bound(b: int, r: int) -> int:
    """Order of the two-colour Cayley construction for degrees (b, r)."""
    check_br_range(b, r)
    return _bound_rows(b, (r,))[0][3]  # type: ignore[return-value]


def _bound_rows(b: int, r_values: Iterable[int]) -> list[tuple[int, int, int, Optional[int]]]:
    """One unchecked (b, r, old, new) row per r: the one home of both bounds.

    old = 2 (r + b + 1 - s) s, s the largest integer with (s - 2)(s - 3)/2 <= r - b.
    new = 8 p (r // 2 + half), half worked out once per b and the parity factor
    p = 2 when b and r are both odd, else 1; None for b = 3, below the
    construction's range. Its r cap, new_bound_cap(b), is also build_br's e_1 floor.
    """
    half = 2 + (b + 2) // 2 - 2 * ((b + 2) // 6)
    return [(b, r, 2 * (r + b + 1 - s) * s,
             8 * (1 + (b & r & 1)) * (r // 2 + half) if b > 3 else None)
            for r in r_values
            for s in [(5 + math.isqrt(1 + 8 * (r - b))) // 2]]


def qk_bounds(k: int) -> tuple[int, int]:
    """(lower, exclusive upper) bounds on the largest feasible preserved prefix q(k)."""
    if k < 4:
        raise ValueError(f"k >= 4 required, got k={k}")
    ceil_quarter = -(-k // 4)
    lower = max(1, ceil_quarter - 1)
    if k % 3 == 0:
        upper = k // 3
    else:
        upper = -(-k // 2)
    return lower, upper


def bounds_table(b_values: Sequence[int]) -> list[tuple[int, int, Optional[int], Optional[int]]]:
    """One (b, r, old, new) row per (b, r), r running over the two-colour
    construction's range, with None where a bound does not apply.

    For b >= 4 the rows cover b < r < b + 2*floor((b+2)/6)^2, where both
    bounds are defined.  b = 3 falls back to the classical range with the
    new-bound cell left empty, since the construction needs b >= 4. Tables
    over 10^6 rows are refused before any row is built. Each b is checked
    once and r visits only valid pairs, so each b's rows come from one call
    of _bound_rows.
    """
    for b in b_values:
        if b < 3:
            raise ValueError(f"b >= 3 required in bounds table, got b={b}")
    row_count = sum(new_bound_cap(b) - b - 1 if b >= 4 else 2 for b in b_values)
    if row_count > ENUMERATION_LIMIT:
        raise ValueError(
            f"bounds table would have {row_count} rows, over the limit {ENUMERATION_LIMIT}")
    rows: list[tuple[int, int, Optional[int], Optional[int]]] = []
    for b in b_values:
        # The new cap, b + 2 floor((b + 2) / 6)^2, is at most
        # b + (b + 2)^2 / 18 <= b (b + 1) / 2, so the old bound holds on every row.
        rows += _bound_rows(b, range(b + 1, new_bound_cap(b)) if b > 3 else (4, 5))
    return rows


def bounds_to_csv(rows: Sequence[tuple[int, int, Optional[int], Optional[int]]]) -> str:
    """CSV with header b,r,old_bound,new_bound; absent values are empty cells.
    Every cell is an integer or empty, so none needs quoting."""
    return "b,r,old_bound,new_bound\n" + "".join([
        f"{b},{r},{'' if old is None else old},{'' if new is None else new}\n"
        for b, r, old, new in rows])


EXHAUSTIVE_ORDER_CAP = 24


class SearchResult(_Record):
    """Largest sum-free inverse-closed subset found, with search provenance."""

    subset: GroupSubset
    size: int
    mode: str
    optimal: bool
    budget_exhausted: bool
    examined: int


def _atoms(spec: GroupSpec) -> Iterator[tuple[GroupElement, int]]:
    """Inverse-closed building blocks {x, -x} as (x, index bitset), in element
    order, involutions as singletons and the identity left out. x is the i-th
    element and -x the j-th; each atom is listed once, at its first element.
    j is read from one list, as ``_negate_bits`` finds -S: the reversed index
    list holds at residue y the index of f-1-y, so translated by f-1 (read at
    y-1) it holds the index of -y."""
    spec.check_enumerable()  # before the |G|-entry list
    negated = spec._translate_list(list(range(spec.order - 1, -1, -1)),
                                   tuple(f - 1 for f in spec.factors))
    for i, (x, j) in enumerate(zip(spec.elements(), negated)):
        if 0 < i <= j:
            yield x, 1 << i | 1 << j


def search_sumfree_inverse_closed(
    spec: GroupSpec,
    mode: str = "exhaustive",
    budget: Optional[int] = None,
) -> SearchResult:
    """Search for a maximum (exhaustive) or maximal (greedy) sum-free inverse-closed subset.

    Candidates are unions of atoms A = {x, -x}, so every one is inverse-closed;
    each is a bitset over element indices. A sum-free S may take A exactly when
    t = S u A misses t + x, so one translate decides each atom. For then
    t - x = -(t + x) misses t as well, and S + S misses A, since s + s' = a
    would put s = a + (-s') in t + a. So t + t = (S + S) u (t + A) misses t.
    Atom order is deterministic, so repeated runs return identical subsets.
    The winning bitset is returned as the subset itself, so no member list
    is built.

    Exhaustive mode returns the least atom mask of the largest size (bit i
    is the i-th atom in element order). It runs depth first from the highest
    atom, leaving each atom out before taking it, and cuts a branch once its
    set is not sum-free (then no superset is) or cannot outgrow the best.
    No set outgrows |G|/2: a sum-free S misses s + S for s in S, so 2|S| <= |G|
    (Green and Ruzsa, 2005). A branch's reach is capped there, so every branch
    after the first set of that size is cut, and being first it is the least.
    ``examined`` is 2^atoms, the candidate space covered, pruned masks
    included. Greedy mode keeps each atom, in order, that leaves the set
    sum-free; each try is a few operations on |G|-bit integers, so a run
    costs about |G|^2 bit operations.
    """
    if mode not in ("exhaustive", "greedy"):
        raise ValueError(f"mode must be 'exhaustive' or 'greedy', got {mode!r}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if mode == "exhaustive" and spec.order > EXHAUSTIVE_ORDER_CAP:
        raise ValueError(
            f"exhaustive mode needs group order <= {EXHAUSTIVE_ORDER_CAP}, got {spec.order}")
    spec.check_enumerable()  # before the translation's |G|-bit masks
    translate = spec._translate_bits
    examined, exhausted = 0, False
    if mode == "exhaustive":
        atoms = list(_atoms(spec))
        examined = 1 << len(atoms)
        if budget is not None and budget < examined:
            raise ValueError(
                f"exhaustive search budget {budget} exceeded after {budget} candidates")
        sizes = [bits.bit_count() for _, bits in atoms]
        room = list(itertools.accumulate(sizes, initial=0))
        best = [0, 0]  # bitset, size
        ceiling = spec.order // 2

        def leave_or_take(i: int, s: int, size: int) -> None:
            # Atoms i and up are decided; leaving atom i - 1 out first visits masks in order.
            if min(size + room[i], ceiling) <= best[1]:
                return
            if i == 0:
                best[:] = s, size
                return
            i -= 1
            leave_or_take(i, s, size)
            x, bits = atoms[i]
            t = s | bits
            if not translate(t, x) & t:  # t is sum-free: see the docstring
                leave_or_take(i, t, size + sizes[i])

        leave_or_take(len(atoms), 0, 0)
        s = best[0]
    else:
        s = 0
        for x, bits in _atoms(spec):
            if budget is not None and examined >= budget:
                exhausted = True
                break
            examined += 1
            t = s | bits
            if not translate(t, x) & t:
                s = t
    subset = GroupSubset(spec, s)
    return SearchResult(
        subset=subset,
        size=len(subset),
        mode=mode,
        optimal=mode == "exhaustive",
        budget_exhausted=exhausted,
        examined=examined,
    )
