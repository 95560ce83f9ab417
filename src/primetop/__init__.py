"""Topology of divisibility graphs and the Morse theory of counting.

Builds the graphs on squarefree (or all) integers joined by divisibility,
recognizes discrete spheres, computes exact cohomology, and machine-checks the
number-theoretic identities the construction satisfies (Mertens-Euler,
Poincare-Hopf, Morse inequalities, counting-function formulas).
"""

__version__ = "0.1.0"

from .arithmetic import (
    FactorSieve,
    divisor_moebius_sum,
    kummer_number,
    mertens,
    moebius,
    pi_k,
    prime_pi,
    primorial,
)
from .cohomology import (
    BettiVector,
    ChainComplex,
    SimplicialComplex,
    betti_numbers,
    boundary_matrices,
    euler_characteristic,
    hodge_nullity,
    lefschetz_number,
    whitney_complex,
    witten_nullity,
    wu_characteristic,
)
from .errors import (
    ClassificationError,
    InternalConsistencyError,
    InvalidArgumentError,
    RankDiscrepancyError,
    ResourceLimitError,
)
from .graphs import (
    Graph,
    GraphKind,
    barycentric_refinement,
    build_graph,
    components,
    graph_product,
    heteroclinic,
    induced_subgraph,
    kummer_involution,
)
from .morse import (
    Filtration,
    FiltrationEvent,
    MorseComplex,
    barycentric_morse_complex,
    betti_timeline,
    chi_timeline,
    classify_vertex,
    critical_counts,
    divisor_sphere,
    morse_betti,
    morse_inequality_check,
    stable_sphere,
)
from .topology import (
    SphereVerdict,
    inductive_dimension,
    is_contractible,
    sphere_dimension,
)
