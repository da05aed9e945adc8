"""Construction and verification toolkit for flip-coloured graphs.

A k-edge-coloured graph is flip-coloured for a degree sequence a_1 < ... < a_k
when every vertex v has deg_j(v) = a_j while the closed-neighbourhood colour
counts run the opposite way, e_1[v] > ... > e_k[v]. The package builds such
graphs from Cayley constructions over finite Abelian groups, certifies them by
exhaustive counting, and evaluates the associated order bounds.
"""

from .analysis import (
    BoundRow,
    FlipReport,
    SearchResult,
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
from .construct import (
    ColouredConnectingSet,
    PackingDeltaReport,
    bipartite_matching_graph,
    cartesian_product,
    cayley_build,
    merge_connecting_sets,
    packing_delta,
    strong_product,
)
from .ecgraph import EdgeColouredGraph, VertexColourProfile
from .group import GroupSpec, cyclic, parse_group_text
from .pipelines import (
    DEFAULT_MATERIALIZE_LIMIT,
    BrPlan,
    GapsPlan,
    GapsResult,
    VerificationError,
    build_br,
    build_gaps,
    build_sumfree_layer,
    colour_merge,
    plan_br,
    plan_gaps,
)
from .setalg import (
    GroupSubset,
    IntervalSumsetReport,
    ResidueInterval,
    interval_sumset_check,
    inverses,
    is_inverse_closed,
    is_sum_free,
    json_value,
    sumset,
)

__version__ = "0.1.0"

__all__ = [
    "BoundRow",
    "BrPlan",
    "ColouredConnectingSet",
    "DEFAULT_MATERIALIZE_LIMIT",
    "EdgeColouredGraph",
    "FlipReport",
    "GapsPlan",
    "GapsResult",
    "GroupSpec",
    "GroupSubset",
    "IntervalSumsetReport",
    "PackingDeltaReport",
    "ResidueInterval",
    "SearchResult",
    "VerificationError",
    "VertexColourProfile",
    "bipartite_matching_graph",
    "bounds_table",
    "bounds_to_csv",
    "build_br",
    "build_gaps",
    "build_sumfree_layer",
    "cartesian_product",
    "cayley_build",
    "check_br_range",
    "colour_merge",
    "cyclic",
    "interval_sumset_check",
    "inverses",
    "is_inverse_closed",
    "is_sum_free",
    "json_value",
    "merge_connecting_sets",
    "new_bound",
    "new_bound_cap",
    "old_bound",
    "packing_delta",
    "parity_factor",
    "parse_group_text",
    "plan_br",
    "plan_gaps",
    "qk_bounds",
    "search_sumfree_inverse_closed",
    "strong_product",
    "sumset",
    "verify_flip",
]
