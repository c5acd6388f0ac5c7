"""Edge-coloured complete graphs where every vertex sees large cliques.

A complete graph on n vertices with r-coloured edges is (k1, ..., kr)-
enabling when every vertex lies in a monochromatic size-k_i clique of each
colour i.  This package builds the known extremal examples, verifies the
property by exact search, certifies optimal vertex measures with exact
rational linear programming, evaluates the resulting size bounds, and
decides small cases exhaustively.
"""

from .bounds import (
    BoundReport,
    f_eval,
    f_max,
    improved_inequality,
    max_enabling_level,
    multicolour_lower,
    multicolour_report,
    multicolour_upper,
    two_colour_lower,
    two_colour_report,
)
from .certificates import (
    CertificationResult,
    ColourCertificate,
    FamilyMeasure,
    LemmaViolation,
    NotEnabling,
    VertexMeasure,
    certify,
    check_certificate,
    check_pairwise_intersections,
    compute_delta,
    construct_mu,
    mu_vertex_masses,
    support_clique_check,
    two_colour_bound,
)
from .cliques import (
    ALL_CLIQUES,
    PER_VERTEX_LEX,
    CliqueFamily,
    EnablingReport,
    choose_family,
    enumerate_cliques,
    find_clique_containing,
    verify_enabling,
)
from .constructions import (
    integer_extremal_pairs,
    multicolour_blocks,
    p4_blowup,
    prime_slope,
    two_colour_extremal,
)
from .graphs import EdgeColouredGraph, build, from_simple_graph, monochromatic_complete
from .lp import AuditFailure, LPError, LPSolution, Unbounded, solve_lp_exact
from .search import SearchReport, exists_enabling, min_n

__version__ = "0.1.0"

__all__ = [
    "ALL_CLIQUES",
    "PER_VERTEX_LEX",
    "AuditFailure",
    "BoundReport",
    "CertificationResult",
    "CliqueFamily",
    "ColourCertificate",
    "EdgeColouredGraph",
    "EnablingReport",
    "FamilyMeasure",
    "LPError",
    "LPSolution",
    "LemmaViolation",
    "NotEnabling",
    "SearchReport",
    "Unbounded",
    "VertexMeasure",
    "build",
    "certify",
    "check_certificate",
    "check_pairwise_intersections",
    "choose_family",
    "compute_delta",
    "construct_mu",
    "enumerate_cliques",
    "exists_enabling",
    "f_eval",
    "f_max",
    "find_clique_containing",
    "from_simple_graph",
    "improved_inequality",
    "integer_extremal_pairs",
    "max_enabling_level",
    "min_n",
    "monochromatic_complete",
    "mu_vertex_masses",
    "multicolour_blocks",
    "multicolour_lower",
    "multicolour_report",
    "multicolour_upper",
    "p4_blowup",
    "prime_slope",
    "solve_lp_exact",
    "support_clique_check",
    "two_colour_bound",
    "two_colour_extremal",
    "two_colour_lower",
    "two_colour_report",
    "verify_enabling",
]
