"""Hypergraph optimum densities over the simplex and crossed-blowup constructions.

The package computes edge-polynomial maxima of small uniform hypergraphs
exactly where possible, builds the crossed blowups whose optima live on
segments rather than points, and verifies the resulting identities with
exact rational arithmetic.
"""

from .common import (
    AsymmetryError,
    BudgetExceededError,
    InvalidArgumentError,
    ParseError,
    PreconditionError,
    SizeLimitError,
    SplitMismatchError,
    TuranError,
    UnsupportedUniformityError,
    effective_budget,
)
from .constructions import (
    BlowupSpec,
    ExtremalProfiles,
    FeasiblePoint,
    blowup,
    blowup_edge_count,
    count_extremal_profiles,
    crossed_blowup,
    double_vertex,
    extremal_blowup_search,
    feasible_limit,
    feasible_point,
    gamma,
    gamma_lagrangian,
    gamma_permutation,
    k_crossed_blowup,
    tight_cycle,
)
from .homomorphism import (
    HomSearchResult,
    VertexMap,
    are_isomorphic,
    enumerate_endomorphisms,
    enumerate_homomorphisms,
    find_homomorphism,
    in_family_FM,
    is_colorable,
    partial_embedding_check,
    search_homomorphism,
)
from .hypergraph import (
    Codegree,
    Hypergraph,
    read_hypergraph,
    write_hypergraph,
)
from .lagrangian import (
    GridResult,
    LagrangianResult,
    SegmentCertificate,
    SimplexPoint,
    grid_oracle,
    maximize,
    predicted_segment,
    symmetrize_point,
    verify_segment,
)
from .polynomial import MultilinearPoly, SymmetricDecomposition

__version__ = "0.1.0"
