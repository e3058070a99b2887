"""Colorings of graphs from random color lists.

A library for studying when a graph admits a proper coloring drawn from
random per-vertex color lists: deterministic graph generators, a seeded
uniform list sampler, an exact solver with critical-core extraction,
structural certificates of non-colorability, log-space analytic bounds, and
a reproducible Monte Carlo sweep harness.
"""

from .bounds import (
    BoundReport,
    LogValue,
    alternating_path_expectation,
    bad_triple_expectation_sum,
    bad_triple_probability_bound,
    chebyshev_lower_bound,
    expected_identical_cliques_bound,
    expected_identical_cliques_exact,
    girth_regime_bounds,
    pair_count_bound,
    pair_expectation_sum,
    pair_probability_bound,
    pi_bound_clique_union,
    proper_triple_count_bound,
    tree_bad_expectation_bound,
)
from .certificates import (
    OrderedSeq,
    ProperPair,
    ProperTriple,
    RootedProperTree,
    alternating_chain,
    certificate_to_json,
    find_2bad_pair,
    find_bad_triple,
    find_tree_bad,
    is_2bad_pair,
    is_bad_triple,
    is_tree_bad,
    proper_tree_size,
)
from .corpus import small_connected_graphs
from .errors import (
    CertificateError,
    ConfigError,
    GraphParseError,
    GuardExceededError,
    InvalidParameterError,
    ListColorError,
    ListParseError,
    RegimeError,
    SolveTimeout,
)
from .graphs import (
    INFINITE_GIRTH,
    Graph,
    clique_union,
    complete_multipartite,
    connected_components,
    girth,
    induced_subgraph,
    petersen,
    power_cycle,
    read_graph,
    write_graph,
)
from .harness import (
    CorpusSpec,
    ExperimentConfig,
    GraphFamily,
    LemmaReport,
    PointResult,
    SweepResult,
    TrialRecord,
    p_half_crossing,
    run_point,
    sweep,
    verify_lemmas,
    wilson_interval,
)
from .lists import (
    ListAssignment,
    SeedSpec,
    derive_seed,
    prob_identical_lists,
    read_lists,
    sample_assignment,
    write_lists,
)
from .scaling import ScalingExpr, ScalingEvalError, ScalingParseError, parse_scaling
from .solver import (
    COLORABLE,
    UNCOLORABLE,
    SolveResult,
    SolveStats,
    brute_force_colorable,
    extract_critical,
    solve,
    verify_coloring,
)

__version__ = "0.1.0"
