"""Construction and verification toolkit for flip-coloured graphs.

A k-edge-coloured graph is flip-coloured for a degree sequence a_1 < ... < a_k
when every vertex v has deg_j(v) = a_j while the closed-neighbourhood colour
counts run the opposite way, e_1[v] > ... > e_k[v]. The package builds such
graphs from Cayley constructions over finite Abelian groups, certifies them by
exhaustive counting, and evaluates the associated order bounds.
"""

from .analysis import *
from .construct import *
from .ecgraph import *
from .group import *
from .pipelines import *
from .setalg import *

# Each module's __all__ is its public surface; the package re-exports them all.
__all__ = sorted(analysis.__all__ + construct.__all__ + ecgraph.__all__
                 + group.__all__ + pipelines.__all__ + setalg.__all__)

__version__ = "0.1.0"
