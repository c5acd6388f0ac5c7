"""Edge-coloured complete graphs where every vertex sees large cliques.

A complete graph on n vertices with r-coloured edges is (k1, ..., kr)-
enabling when every vertex lies in a monochromatic size-k_i clique of each
colour i.  This package builds the known extremal examples, verifies the
property by exact search, certifies optimal vertex measures with exact
rational linear programming, evaluates the resulting size bounds, and
decides small cases exhaustively.

Each library module lists its public names in its own ``__all__``, in the
module that defines them; the package re-exports all of them.
"""

from . import bounds, certificates, cliques, constructions, graphs, lp, search
from .bounds import *
from .certificates import *
from .cliques import *
from .constructions import *
from .graphs import *
from .lp import *
from .search import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (bounds, certificates, cliques, constructions,
                                     graphs, lp, search) for name in module.__all__)
