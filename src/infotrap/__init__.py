"""Sequential information acquisition from correlated Gaussian sources.

Core pieces: exact posterior-variance computation (`gaussian`), minimal spanning
set analysis and trap priors (`spanning`), the greedy acquisition engine with
interventions (`dynamics`), exhaustive optimal-design oracles (`oracle`), and
scenario-file execution (`scenarios`, `cli`).
"""

from .gaussian import (
    DimensionError,
    DivisionVector,
    Environment,
    FrequencyVector,
    GaussianPrior,
    NonDifferentiableError,
    NotPositiveDefiniteError,
    asymptotic_variance,
    grad_asymptotic_variance,
    grad_posterior_variance,
    posterior_variance,
    variance_reduction,
)
from .spanning import (
    AssumptionReport,
    SpanError,
    SpanningSetReport,
    beta_phi_lambda,
    best_set,
    check_assumptions,
    construct_trap_prior,
    enumerate_minimal_spanning_sets,
    fit_perturbation_eta,
    is_subspace_optimal,
    subspace_closure,
)
from .dynamics import (
    AutoFreeSignals,
    BatchAllocate,
    Classification,
    FreeSignals,
    NoIntervention,
    PrecisionReplicate,
    SearchBoundError,
    SimulationTrace,
    TieBreak,
    design_free_signals,
    escalate_gamma,
    greedy_step,
    simulate,
)
from .oracle import (
    ComparisonRow,
    ConvergenceError,
    OptimalDivisionResult,
    greedy_vs_optimal,
    optimal_division,
    optimal_frequency_numeric,
    optimal_trajectory,
    round_to_total,
    trajectory_deviations,
)
from .scenarios import (
    Scenario,
    ScenarioError,
    SweepSpec,
    bundled_scenario,
    bundled_scenario_names,
    emit_scenario,
    parse_scenario,
    parse_scenario_file,
    run_scenario,
    scenario_to_dict,
    sweep,
    write_report_json,
    write_trace_csv,
)

__version__ = "0.1.0"
