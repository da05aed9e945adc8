"""End-to-end builders for flip-coloured graphs.

Two families are covered. The two-colour family packs a symmetrised interval
pair into a cyclic (or doubled cyclic) group and is verified exhaustively.
The arbitrary-gaps family amplifies a small verified prefix graph through a
sum-free Cayley layer, a Cartesian product, and a strong product with a
coloured complete bipartite graph; at realistic sizes only the plan and the
intermediate product are materialised, with the final profile predicted by
exact integer arithmetic.
"""

from __future__ import annotations

import math
from itertools import product, repeat
from typing import Iterable, Optional, Sequence

from .analysis import FlipReport, new_bound, new_bound_cap, parity_factor, verify_flip
from .construct import (
    ColouredConnectingSet,
    bipartite_matching_graph,
    cartesian_product,
    cayley_build,
    strong_product,
)
from .ecgraph import EdgeColouredGraph, _check_edge_count
from .group import GroupSpec, _Record, _check_limit, cyclic
from .setalg import (
    GroupSubset,
    ResidueInterval,
    interval_elements,
    interval_sumset_check,
    inverses,
    is_inverse_closed,
    is_sum_free,
    json_value,
    sumset,
)

__all__ = ["DEFAULT_MATERIALIZE_LIMIT", "BrPlan", "GapsPlan", "GapsResult", "VerificationError",
           "build_br", "build_gaps", "build_sumfree_layer", "colour_merge", "plan_br", "plan_gaps"]

DEFAULT_MATERIALIZE_LIMIT = 200_000


class VerificationError(RuntimeError):
    """A built object failed its own post-construction audit."""


class BrPlan(_Record):
    """Fully resolved parameters of the two-colour construction for degrees (b, r).

    Colour 1 is the blue class of size b, colour 2 the red class of size r.
    Intervals live in Z_n; the final sets live in the construction group,
    which doubles to Z_2 x Z_n when both degrees are odd.
    """

    b: int
    r: int
    n: int
    parity_factor: int
    parity_case: str
    red_base: ResidueInterval
    blue_base: ResidueInterval
    blue_double: ResidueInterval
    red_symmetric: GroupSubset
    blue_symmetric: GroupSubset
    blue_core: GroupSubset
    group: GroupSpec
    blue_set: GroupSubset
    red_set: GroupSubset

    def to_json_dict(self) -> dict:
        return json_value(self)


def plan_br(b: int, r: int) -> BrPlan:
    """Resolve interval placement and parity handling for the (b, r) construction.

    The red base interval sits at the bottom of the open interval (n/8, n/4),
    the blue base at the top, and the doubled blue sub-interval at the top of
    the blue base, which keeps its minimum at least 3n/16. Every set-level
    invariant is re-checked here on the sets themselves. Groups over the
    enumeration limit are refused before any set is built.
    """
    order = new_bound(b, r)
    _check_limit(order, "group order {}")
    blue_double_size = (b + 2) // 6
    blue_base_size = (b + 2) // 2 - 2 * blue_double_size
    red_base_size = r // 2
    n = 8 * (2 + red_base_size + blue_base_size)
    eighth, quarter = n // 8, n // 4

    red_base = ResidueInterval(n, eighth + 1, eighth + red_base_size)
    blue_base = ResidueInterval(n, quarter - blue_base_size, quarter - 1)
    blue_double = ResidueInterval(n, quarter - blue_double_size, quarter - 1)

    report = interval_sumset_check(n, red_base, blue_base, blue_double)
    if not (report.b1_hypothesis_met and report.all_asserted_hold):
        raise VerificationError(
            f"interval disjointness audit failed for b={b} r={r}: {json_value(report)}")

    base_spec = cyclic(n)
    red_sym = report.a_set
    blue_base_set = interval_elements(blue_base)
    blue_sym = blue_base_set.union(inverses(blue_base_set))
    blue_core = report.b_set
    if len(blue_core) != b - b % 2:
        raise VerificationError(
            f"blue core has {len(blue_core)} elements, expected {b - b % 2}")
    if len(red_sym) != r - r % 2:
        raise VerificationError(
            f"red symmetric set has {len(red_sym)} elements, expected {r - r % 2}")

    if b % 2 == 0 and r % 2 == 0:
        case = "both-even"
        group = base_spec
        blue_set = blue_core
        red_set = red_sym
    elif b % 2 == 1 and r % 2 == 1:
        case = "both-odd"
        group = GroupSpec((2, n))
        blue_set = GroupSubset.of(group, [(0, x) for (x,) in blue_core.elements] + [(0, n // 2)])
        red_set = GroupSubset.of(group, [(0, x) for (x,) in red_sym.elements] + [(1, 0)])
    else:
        case = "one-odd"
        group = base_spec
        if b % 2 == 1:
            blue_set = blue_core.union(GroupSubset.of(base_spec, [n // 2]))
            red_set = red_sym
        else:
            blue_set = blue_core
            red_set = red_sym.union(GroupSubset.of(base_spec, [n // 2]))

    _audit_final_sets(b, r, blue_set, red_set)
    return BrPlan(
        b=b,
        r=r,
        n=n,
        parity_factor=parity_factor(b, r),
        parity_case=case,
        red_base=red_base,
        blue_base=blue_base,
        blue_double=blue_double,
        red_symmetric=red_sym,
        blue_symmetric=blue_sym,
        blue_core=blue_core,
        group=group,
        blue_set=blue_set,
        red_set=red_set,
    )


def _audit_final_sets(b: int, r: int, blue: GroupSubset, red: GroupSubset) -> None:
    if len(blue) != b:
        raise VerificationError(f"blue set has {len(blue)} elements, expected {b}")
    if len(red) != r:
        raise VerificationError(f"red set has {len(red)} elements, expected {r}")
    if blue.contains_identity() or red.contains_identity():
        raise VerificationError("connecting sets must not contain the identity")
    if not blue.is_disjoint(red):
        raise VerificationError("blue and red sets overlap")
    if not (is_inverse_closed(blue) and is_inverse_closed(red)):
        raise VerificationError("connecting sets must be inverse-closed")
    if not is_sum_free(red):
        raise VerificationError("red set is not sum-free")
    if not sumset(red, blue).is_disjoint(red):
        raise VerificationError("red + blue meets red")


def build_br(plan: BrPlan) -> tuple[EdgeColouredGraph, FlipReport]:
    """Build the packed Cayley graph for a plan and verify it exhaustively.

    Hard-verified: uniform profile with degrees (b, r), strict chain
    e_1 > e_2, e_1 >= b + 2*floor((b+2)/6)^2, order parity_factor * n.
    e_2 equals r for every b <= 14 (the doubled blue interval is then too
    short to throw red differences back into the neighbourhood); for larger b
    the excess e_2 - r is visible in the returned report, and the flip
    property still holds, so the equality is reported rather than enforced.
    """
    graph = cayley_build(ColouredConnectingSet.of(plan.group, {1: plan.blue_set, 2: plan.red_set}))

    expected_order = plan.parity_factor * plan.n
    if graph.vertex_count != expected_order:
        raise VerificationError(
            f"built order {graph.vertex_count}, expected {expected_order}")
    if expected_order != new_bound(plan.b, plan.r):
        raise VerificationError(
            f"order {expected_order} does not match the bound {new_bound(plan.b, plan.r)}")

    report = verify_flip(graph, expected=(plan.b, plan.r))
    if not report.passed:
        raise VerificationError(
            f"flip verification failed for b={plan.b} r={plan.r}: {report.violations[:5]}")
    chain = report.uniform_e_chain
    if chain is None:
        raise VerificationError(
            f"closed counts are not uniform across vertices for b={plan.b} r={plan.r}")
    floor_e1 = new_bound_cap(plan.b)
    if chain[0] < floor_e1:
        raise VerificationError(
            f"e_1 = {chain[0]} below guaranteed floor {floor_e1} for b={plan.b} r={plan.r}")
    if chain[1] < plan.r:
        # e_2 counts at least the r red edges at the vertex itself
        raise VerificationError(
            f"e_2 = {chain[1]} below r = {plan.r} for b={plan.b}")
    return graph, report


def _layer_sizes(k: int, q: int) -> list[int]:
    return [k - q - j for j in range(1, k - q)]  # sizes k-q-1 down to 1


def _core_vector(k: int, q: int, prefix: Sequence[int]) -> tuple[int, ...]:
    """The core's degrees or closed counts: the prefix's, then the layer's k-q-1 down to 1, then 0.

    The layer's degrees and closed counts are both its class sizes.
    """
    return tuple(prefix) + tuple(_layer_sizes(k, q)) + (0,)


def _layer_shape(k: int, q: int) -> tuple[GroupSpec, int]:
    """(Z_2^a x Z_m, lo): the layer group and its window's start, in closed form.

    Every connecting element's last residue lies in the open middle third
    lo..(2m-1)//3 of Z_m, which forces the union to be sum-free. Odd-sized
    classes consume one involution (eps, m/2) each, so 2^a is the smallest
    power of two covering them. An even m >= 4 leaves (m - 2) // 6 inverse
    pairs (x, m - x) in the middle third beside m/2, in each of the 2^a
    copies, and m is the least such m that holds every pair.
    """
    n = k - q - 1  # the classes have sizes n, n-1, ..., 1
    if n < 1:
        raise ValueError(f"no layer classes for k={k} q={q}")
    a = ((n - 1) // 2).bit_length()  # 2^a >= (n + 1) // 2, the odd sizes
    pairs_needed = (n // 2) * ((n + 1) // 2)  # sum of s // 2 over the sizes
    m = max(4, 6 * -(-pairs_needed // (1 << a)) + 2)
    return GroupSpec((2,) * a + (m,)), m // 3 + 1


def _layer_classes(k: int, q: int) -> ColouredConnectingSet:
    """Disjoint inverse-closed classes of sizes k-q-1, ..., 1 on colours q+1, ..., k-1.

    Pairs (eps, x), (eps, m-x) from _layer_shape's window fill each class;
    an involution (eps, m/2) completes each odd-sized one.
    """
    sizes = _layer_sizes(k, q)
    spec, lo = _layer_shape(k, q)
    spec.check_enumerable()
    *twos, m = spec.factors
    eps_list = list(product((0, 1), repeat=len(twos)))
    pair_pool = [
        (eps + (x,), eps + (m - x,))
        for eps in eps_list
        for x in range(lo, (m + 1) // 2)
    ]
    involution_pool = [eps + (m // 2,) for eps in eps_list]

    classes = {}
    pair_i = 0
    inv_i = 0
    for j, size in enumerate(sizes, start=1):
        members = []
        for _ in range(size // 2):
            members.extend(pair_pool[pair_i])
            pair_i += 1
        if size % 2:
            members.append(involution_pool[inv_i])
            inv_i += 1
        classes[q + j] = GroupSubset.of(spec, members)
    return ColouredConnectingSet.of(spec, classes, colour_count=k - 1)


def _expect_profile(
    g: EdgeColouredGraph,
    expected: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
    label: str,
    error: type[Exception] = VerificationError,
) -> None:
    """Raise unless each vertex of g, in vertex order, has the degree vector
    and closed counts of its (deg, e) pair in expected."""
    for v, (profile, (deg, e)) in enumerate(zip(g.profiles(), expected)):
        if profile.deg != deg or profile.e_closed != e:
            raise error(
                f"{label} profile mismatch at vertex {v}: "
                f"deg={profile.deg} e={profile.e_closed}, expected deg={deg} e={e}")


def _build_layer(k: int, q: int) -> EdgeColouredGraph:
    """The layer Cayley graph, sum-free check and per-vertex audit included; no range check."""
    ccs = _layer_classes(k, q)
    if not is_sum_free(ccs.union_elements()):
        raise VerificationError(f"layer connecting set for k={k} q={q} is not sum-free")
    graph = cayley_build(ccs)
    expected = (0,) * q + tuple(_layer_sizes(k, q))
    _expect_profile(graph, repeat((expected, expected)), "layer")
    return graph


def build_sumfree_layer(k: int, q: int) -> EdgeColouredGraph:
    """Cayley graph whose colour q+j is (k-q-j)-regular with e_{q+j}[v] = k-q-j.

    Requires 1 < q < k/4. The sum-free check on the full connecting set and
    the per-vertex profile equalities are verified exhaustively.
    """
    if problem := _gaps_range_problem(k, q):
        raise ValueError(problem)
    return _build_layer(k, q)


def _gaps_range_problem(k: int, q: int) -> str:
    """Why (k, q) falls outside 1 < q < k/4; empty when it does not."""
    if q <= 1:
        return f"q > 1 required, got q={q}"
    return f"q < k/4 required, got q={q} k={k}" if 4 * q >= k else ""


class GapsPlan(_Record):
    """Resolved parameters for the arbitrary-gaps amplification.

    prefix_e and prefix_deg are the exact closed counts and degrees of the
    prefix graph on colours 1..q. Affine profiles are (constant, slope) pairs
    in the matching multiplicity t; *_at_t are their values at this plan's t.
    order_estimate is the full product's order, 2 * part_size * |layer group|
    * prefix_order; with no prefix_order (a profile given without a graph, as
    by gaps-plan's --prefix-e/--prefix-deg) it is the order per prefix vertex.
    """

    q: int
    k: int
    prefix_e: tuple[int, ...]
    prefix_deg: tuple[int, ...]
    prefix_gap: int
    core_degree: int
    gap_slack: int
    t: int
    t_min: int
    part_size: int
    layer_sizes: tuple[int, ...]
    layer_group: GroupSpec
    deg_affine: tuple[tuple[int, int], ...]
    e_affine: tuple[tuple[int, int], ...]
    deg_at_t: tuple[int, ...]
    e_at_t: tuple[int, ...]
    deg_chain_ok: bool
    e_chain_ok: bool
    first_chain_violation: Optional[tuple[str, int]]
    prefix_order: Optional[int]
    order_estimate: int

    @property
    def matching_assignments(self) -> tuple[int, ...]:
        out = []
        for j in range(1, self.k - self.q + 1):
            out.extend([self.q + j] * (self.t + j - 1))
        return tuple(out)

    @property
    def problems(self) -> tuple[str, ...]:
        """Every condition this plan fails; empty when the plan is valid."""
        out = []
        if range_problem := _gaps_range_problem(self.k, self.q):
            out.append(range_problem)
        if self.gap_slack <= 0:
            out.append(f"gap condition fails with slack {self.gap_slack}")
        if self.t < self.t_min:
            out.append(f"t={self.t} below minimum {self.t_min}")
        if self.first_chain_violation is not None:
            kind, colour = self.first_chain_violation
            out.append(f"predicted {kind} chain breaks between colours {colour} and {colour + 1}")
        return tuple(out)

    def to_json_dict(self) -> dict:
        """json_value of the fields, plus part_ratio: (part_size + 1) / ((k - q) t)
        as [numerator, denominator] in lowest terms. Both are positive."""
        num, den = self.part_size + 1, (self.k - self.q) * self.t
        g = math.gcd(num, den)
        return json_value(self) | {"part_ratio": [num // g, den // g]}


def _make_gaps_plan(
    q: int,
    k: int,
    prefix_e: Sequence[int],
    prefix_deg: Sequence[int],
    t: Optional[int],
    prefix_order: Optional[int],
    enforce: bool,
) -> GapsPlan:
    for name, value in (("q", q), ("k", k), ("t", t), ("prefix_order", prefix_order)):
        if type(value) is not int and (value is not None or name in ("q", "k")):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got q={q}")
    if prefix_order is not None and prefix_order < 1:
        raise ValueError(f"prefix_order must be >= 1, got {prefix_order}")
    _check_limit(k, "colour count k={}")
    prefix_e, prefix_deg = tuple(prefix_e), tuple(prefix_deg)
    if any(type(x) is not int for x in prefix_e + prefix_deg):
        raise ValueError(f"prefix vectors must hold integers, got {prefix_e} and {prefix_deg}")
    if len(prefix_e) != q or len(prefix_deg) != q:
        raise ValueError(f"prefix vectors must have length q={q}")
    if any(prefix_e[i] <= prefix_e[i + 1] for i in range(q - 1)):
        raise ValueError(f"prefix closed counts must decrease strictly, got {prefix_e}")
    if any(prefix_deg[i] >= prefix_deg[i + 1] for i in range(q - 1)):
        raise ValueError(f"prefix degrees must increase strictly, got {prefix_deg}")
    if prefix_deg[-1] > prefix_e[-1]:
        raise ValueError(
            f"prefix degree a_q={prefix_deg[-1]} exceeds closed count D_q={prefix_e[-1]}")
    if k - q < 2:
        raise ValueError(f"need at least two amplified colours, got q={q} k={k}")

    prefix_gap = max(
        (prefix_e[j] - prefix_e[j + 1] for j in range(q - 1)), default=0)
    spread = k - q
    layer_pairs = spread * (spread - 1) // 2  # C(k-q, 2)
    # the gap condition D_q*(k-4q) > 1 + gap*q*(q-1) + 5*C(k-q,2)
    gap_slack = prefix_e[-1] * (k - 4 * q) - (1 + prefix_gap * q * (q - 1) + 5 * layer_pairs)

    core_deg = _core_vector(k, q, prefix_deg)
    chain = _core_vector(k, q, prefix_e)
    core_degree = sum(core_deg)
    cross = 1 + core_degree + 2 * sum(chain)
    # Every gap in the core's closed counts after colour q is 1.
    t_min = -(-cross // spread)
    if t is None:
        t = t_min
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")

    part_size = spread * t + layer_pairs

    deg_affine = []
    e_affine = []
    for j in range(1, k + 1):
        if j <= q:
            deg_affine.append((core_deg[j - 1], 0))
            e_affine.append((chain[j - 1] * (layer_pairs + 1), chain[j - 1] * spread))
        else:
            deg_affine.append((core_deg[j - 1] + (j - q - 1) * (1 + core_degree), 1 + core_degree))
            e_affine.append((
                chain[j - 1] * (layer_pairs + 1) + (j - q - 1) * cross,
                chain[j - 1] * spread + cross,
            ))
    deg_at_t = tuple(c0 + c1 * t for c0, c1 in deg_affine)
    e_at_t = tuple(c0 + c1 * t for c0, c1 in e_affine)

    # colour i (1-based) where each chain first fails to be strictly monotone
    deg_break = next((i for i in range(1, k) if deg_at_t[i - 1] >= deg_at_t[i]), None)
    e_break = next((i for i in range(1, k) if e_at_t[i - 1] <= e_at_t[i]), None)
    violation: Optional[tuple[str, int]] = (
        ("deg", deg_break) if deg_break is not None
        else ("e", e_break) if e_break is not None
        else None)

    layer_group, _ = _layer_shape(k, q)
    plan = GapsPlan(
        q=q,
        k=k,
        prefix_e=prefix_e,
        prefix_deg=prefix_deg,
        prefix_gap=prefix_gap,
        core_degree=core_degree,
        gap_slack=gap_slack,
        t=t,
        t_min=t_min,
        part_size=part_size,
        layer_sizes=tuple(_layer_sizes(k, q)),
        layer_group=layer_group,
        deg_affine=tuple(deg_affine),
        e_affine=tuple(e_affine),
        deg_at_t=deg_at_t,
        e_at_t=e_at_t,
        deg_chain_ok=deg_break is None,
        e_chain_ok=e_break is None,
        first_chain_violation=violation,
        prefix_order=prefix_order,
        order_estimate=(2 * part_size * layer_group.order
                        * (1 if prefix_order is None else prefix_order)),
    )
    if enforce and plan.problems:
        raise ValueError("; ".join(plan.problems))
    return plan


def plan_gaps(
    q: int,
    k: int,
    prefix_e: Sequence[int],
    prefix_deg: Sequence[int],
    t_override: Optional[int] = None,
    prefix_order: Optional[int] = None,
) -> GapsPlan:
    """Resolve the amplification parameters and prove the predicted chains monotone.

    The three chain regions (colours up to q, the q boundary, and the
    amplified tail) are all checked with exact integers at the chosen t.
    A plan with problems (q outside 1 < q < k/4, a gap condition without
    positive slack, t_override below t_min, a chain that is not strictly
    monotone) raises one ValueError that lists every entry of
    GapsPlan.problems, joined by "; ". Malformed input (q, k, t_override or
    prefix_order not an int, a bool included, prefix_order below 1, k above
    the enumeration limit, prefix vectors of the wrong type, length or order,
    fewer than two amplified colours, or t < 1) raises on its own.
    """
    return _make_gaps_plan(q, k, prefix_e, prefix_deg, t_override, prefix_order, enforce=True)


class GapsResult(_Record):
    """Outcome of the amplification build: the materialised graph, or, when it
    is not built, the prediction held in the plan's deg_at_t and e_at_t."""

    materialized: bool
    g_order: int
    graph: Optional[EdgeColouredGraph]
    core: EdgeColouredGraph
    flip_report: Optional[FlipReport]


def _verify_prefix_graph(prefix: EdgeColouredGraph, plan: GapsPlan) -> None:
    if prefix.colour_count < plan.q:
        raise ValueError(
            f"prefix graph has {prefix.colour_count} colours, need at least q={plan.q}")
    if plan.prefix_order is not None and prefix.vertex_count != plan.prefix_order:
        raise ValueError(
            f"prefix graph has {prefix.vertex_count} vertices, plan recorded {plan.prefix_order}")
    padding = (0,) * (prefix.colour_count - plan.q)
    expected = (plan.prefix_deg + padding, plan.prefix_e + padding)
    _expect_profile(prefix, repeat(expected), "prefix graph", ValueError)


def build_gaps(
    plan: GapsPlan,
    prefix: EdgeColouredGraph,
    materialize_limit: int = DEFAULT_MATERIALIZE_LIMIT,
) -> GapsResult:
    """Amplify the verified prefix graph according to plan.

    Always verifies the prefix against the plan profile and builds the
    Cartesian core (prefix times layer), auditing the core's profile at every
    vertex. The amplifier and the full strong product are built only when the
    product's order, 2 * part_size * |core|, fits within materialize_limit;
    the product's audit reads the single per-vertex profile pass of
    verify_flip, whose report must show the predicted degrees and a uniform
    closed-count chain equal to the predicted one. The limit counts vertices
    only: a product within it is still refused by the edge limit when its
    edges pass 10^6, as the relaxed (4, 5), q = 2, k = 5 plan's is at t = 5
    (11,520 vertices, 1,416,960 edges).
    """
    if materialize_limit < 0:
        raise ValueError(f"materialize_limit must be >= 0, got {materialize_limit}")
    q, k = plan.q, plan.k
    _verify_prefix_graph(prefix, plan)
    layer = _build_layer(k, q)

    core = cartesian_product(prefix.with_colour_count(k), layer.with_colour_count(k))
    expected = (_core_vector(k, q, plan.prefix_deg), _core_vector(k, q, plan.prefix_e))
    _expect_profile(core, repeat(expected), "core")

    g_order = 2 * plan.part_size * core.vertex_count
    if g_order > materialize_limit:
        return GapsResult(
            materialized=False,
            g_order=g_order,
            graph=None,
            core=core,
            flip_report=None,
        )

    # p = part_size = len(matching_assignments); refuse before the p-entry tuple is built.
    _check_edge_count(plan.part_size ** 2, "matching graph")
    amplifier = bipartite_matching_graph(k, plan.matching_assignments)
    graph = strong_product(amplifier, core)
    report = verify_flip(graph)
    if report.colour_degrees != plan.deg_at_t or report.uniform_e_chain != plan.e_at_t:
        # Profile again only to name the first vertex that breaks the prediction.
        _expect_profile(graph, repeat((plan.deg_at_t, plan.e_at_t)), "amplified")
    return GapsResult(
        materialized=True,
        g_order=g_order,
        graph=graph,
        core=core,
        flip_report=report,
    )


def colour_merge(g: EdgeColouredGraph, partition: Sequence[Sequence[int]]) -> EdgeColouredGraph:
    """Collapse colour classes; part i (1-based) becomes the new colour i.

    The partition must cover 1..k with pairwise disjoint non-empty parts.
    Degree and closed-count additivity over each part is asserted at every
    vertex before the merged graph is returned.
    """
    parts = [tuple(sorted(set(p))) for p in partition]
    if any(not p for p in parts):
        raise ValueError("partition parts must be non-empty")
    seen: set[int] = set()
    for p in parts:
        for c in p:
            if c in seen:
                raise ValueError(f"colour {c} appears in two parts")
            seen.add(c)
    if seen != set(range(1, g.colour_count + 1)):
        raise ValueError(
            f"partition must cover colours 1..{g.colour_count} exactly, got {sorted(seen)}")

    colour_map = {c: i + 1 for i, p in enumerate(parts) for c in p}
    merged = EdgeColouredGraph(
        g.vertex_count, len(parts),
        ((u, v, colour_map[c]) for u, v, c in g._edge_stream()))
    sums = ((tuple(sum(old.deg[c - 1] for c in p) for p in parts),
             tuple(sum(old.e_closed[c - 1] for c in p) for p in parts))
            for old in g.profiles())
    _expect_profile(merged, sums, "merged")
    return merged
