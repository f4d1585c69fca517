"""Adaptive MCMC mean estimation driven by inter-trace variance.

The package bundles four layers: generic chain machinery (`chains`), an exact
dense spectral oracle for small instances (`spectral`), the paired-chain
estimators with their concentration closed forms (`estimators`), and the
adaptive estimation stack (`adaptive`), plus Glauber-dynamics coloring
counting (`coloring`) and planted-partition generation (`planted`).  The
`dynamite` console script exposes the experiment harness.
"""

from .adaptive import (
    EstimateReport,
    Schedule,
    build_schedule,
    dynamite,
    mcmc_pro,
    select_trace_length,
    static_estimate,
    uniform_mixing_steps,
    warm_start,
)
from .chains import (
    ScalarFunction,
    TransitionKernel,
    indicator_function,
    make_cycle,
    make_cycle_function,
    make_two_state_uniform,
    matrix_kernel,
)
from .coloring import (
    CountResult,
    Graph,
    brute_force_count,
    ergodicity_floor,
    exact_glauber_matrix,
    exact_phase_ratios,
    glauber_kernel,
    greedy_coloring,
    is_proper,
    jvv_count,
)
from .errors import GuardError, NotErgodicError, StatisticalFailure
from .estimators import (
    PairedEvaluations,
    bernstein_radius,
    bernstein_sample_complexity,
    empirical_mean,
    hoeffding_sample_complexity,
    two_chain_variance,
    variance_upper_bound,
)
from .planted import PartitionedGraph, PlantedParams, cut_set, generate
from .spectral import (
    SandwichVerdict,
    SpectralSummary,
    VarianceProfile,
    check_sandwich,
    cycle_separation_profile,
    exact_trace_variance,
    summarize,
)

__version__ = "0.1.0"
