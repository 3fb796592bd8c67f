"""regenmc: regenerative Markov chains, block Rademacher complexity, and
their applications to kernel density estimation and Metropolis-Hastings."""

__version__ = "0.1.0"

from .chains import (
    ChainModel,
    CircleMinorization,
    FiniteKernel,
    FiniteMinorization,
    Trajectory,
    WrappedMixtureKernel,
    exact_stationary,
    finite_atom_chain,
    finite_doeblin_chain,
    simulate,
    two_state_chain,
    wrapped_doeblin_chain,
)
from .function_classes import (
    BlockMeasure,
    CoveringCheck,
    EmpiricalMeasure,
    EvaluableClass,
    LiftedClass,
    check_lifted_covering_bound,
    check_truncated_covering_bound,
    covering_checks,
    covering_number,
    covering_numbers,
    halfline_class,
    kernel_class,
    lift_measure,
    lift_second_moment_gap,
    table_class,
)
from .kde import (
    KDEConfig,
    Kernel,
    RateReport,
    box_kernel,
    epanechnikov_kernel,
    kde_evaluate,
    rate_experiment,
    uniform_deviation,
    uniform_smoothed_target,
)
from .metropolis import (
    MAX_DIM,
    Box,
    GaussianStep,
    MHKernel,
    MHMinorization,
    QuantileReport,
    QuantileSeries,
    Target,
    UniformStep,
    bimodal_target,
    build_minorization,
    check_ball_chaining_geometry,
    credible_interval_experiment,
    empirical_quantiles,
    mh_chain_regen,
    run_mh,
    truncated_gaussian_target,
    uniform_target,
)
from .rademacher import (
    BoundReport,
    RademacherEstimate,
    block_rademacher_bound_em,
    block_rademacher_bound_pm,
    compare_bound_vs_empirical,
    empirical_block_rademacher,
    empirical_rademacher_iid,
    excess_probability_bound,
    exhaustive_signed_sup,
    expected_supremum_bound,
    high_probability_level,
    iid_rademacher_bound,
    optimize_block_bound,
    supremum_growth_experiment,
)
from .regeneration import (
    BlockSet,
    RegenStats,
    block_bootstrap_se,
    extract_blocks,
    pitman_estimate,
    regen_stats,
    simulate_split_retrospective,
)
from .rng import child_seed, stream
