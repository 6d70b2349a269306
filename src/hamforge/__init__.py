"""hamforge: extremal and quasi-random r-graph constructions, exact tight
Hamiltonian cycle counting, and seeded Monte Carlo estimators."""

from .hypercore import (
    CanonicalCycle,
    CyclicWindowSet,
    Hypergraph,
    canonicalize,
    read_hypergraph,
    window_set,
    write_hypergraph,
)
from .counting import (
    CountResult,
    TwoFactorProfile,
    alon_upper_bound_h2,
    bregman_bound,
    brute_force_ham_count,
    exact_ham_count,
    expectation_value,
    log2_expectation_value,
    permanent,
    two_factor_profile,
)
from .constructions import (
    count_admissible_words,
    count_placements_crown,
    crown_graph,
    extend_to_good_word,
    multipartite_rgraph,
    sample_good_cycles,
    turan_graph,
)
from .geometry import FieldCtx, SteinerSystem, build_spherical_steiner, verify_steiner
from .packing import (
    Packing,
    PackingParams,
    PartitionedFamily,
    build_random_packing,
    family_from_design,
    family_from_packing,
    partition_into_disjoint_groups,
    validate_packing,
)
from .randmodels import (
    AuditReport,
    DensitySpec,
    audit_quasirandomness,
    build_quasirandom_from_partition,
    sample_exact_density_subgraph,
    sample_gnm,
    sample_gnp,
)
from .estimators import (
    Classification,
    EstimateReport,
    classify,
    mc_expected_H,
    mc_fbar_and_bound,
)

__version__ = "0.1.0"
