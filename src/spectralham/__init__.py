"""Spectral sufficient conditions for Hamiltonicity, at desk scale.

A library for constructing the extremal families behind the spectral
Erdos/Moon-Moser-type Hamiltonicity theorems, computing adjacency and
signless-Laplacian spectral radii (with closed forms and bound inequalities),
running the theorem cascade that certifies Hamiltonicity/traceability, and
verifying every statement against an exact Hamilton oracle over exhaustive or
randomized graph spaces.
"""

from .graphs import (
    BipartiteGraph,
    Graph,
    Graph6Error,
    as_graph,
    bipartite_from_graph,
    bipartition,
    build_bipartite,
    build_graph,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degree_profile,
    disjoint_union,
    empty_graph,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    is_isomorphic,
    join,
    k_copies,
    parse_edge_list,
    path_graph,
    quasi_complement,
)
from .spectral import (
    BoundReport,
    ConvergenceError,
    SpectralResult,
    bound_report,
    closed_form,
    q_radius,
    spectral_radius,
)
from .transforms import bc_closure, bipartite_closure, is_b_closed, is_closed, kelmans
from .oracle import (
    OracleResult,
    clique_number,
    contains_biclique,
    is_hamiltonian,
    is_traceable,
    is_valid_cycle,
    is_valid_path,
)
from .families import (
    FamilySpec,
    construct,
    recognize,
    recognize_h_family,
    spanning_subgraph_of,
)
from .certifier import (
    Certificate,
    certify_bipartite_hamiltonicity,
    certify_hamiltonicity,
    certify_traceability,
)
from .harness import (
    SearchSpace,
    VerificationReport,
    enumerate_space,
    extremal_search,
    random_model,
    verify_theorem,
)

__version__ = "0.1.0"
