"""Aging-control toolkit: optimal update policies for content that goes stale
over intermittent WiFi and always-on 3G, publisher bonus optimization and
learning, and trace-driven evaluation.
"""
from .model import (
    Action,
    Policy,
    SystemParams,
    UtilityFunction,
    instantaneous_reward,
    load_params,
    next_age,
    normalize_utility,
    params_from_mapping,
)
from .chain import (
    ChainSummary,
    chain_summary,
    expected_age,
    expected_age_3g_only,
    expected_reward_3g_only,
    expected_reward_threshold,
    expected_reward_two_threshold,
    steady_state_exact,
    steady_state_threshold,
    summary_for_threshold,
    threshold_reward_curve,
    transition_matrix,
)
from .solver import (
    ConvergenceError,
    SolveReport,
    StructureViolation,
    ValueFunction,
    bellman_values,
    greedy_policy,
    relative_value_iteration,
    solve_user_problem,
    verify_threshold_structure,
)
from .thresholds import (
    MonotonicityReport,
    ThresholdResult,
    TwoThresholdResult,
    always_active,
    always_inactive,
    enumerate_optimal_thresholds,
    lambert_w,
    monotonicity_check,
    multi_optimum_condition,
    optimal_threshold,
    optimal_two_thresholds,
    step_utility_threshold,
    threshold_response,
)
from .publisher import (
    BonusSolution,
    PublisherInstance,
    bonus_range_for_threshold,
    message_rate,
    optimal_bonus,
    target_threshold,
)
from .learning import (
    LearningConfig,
    LearningTrajectory,
    chain_sim_env,
    convergence_report,
    expected_rate_env,
    learning_step,
    preset,
    run_learning,
    run_population_drop,
)
from .tracesim import (
    MASK_POLICY,
    ContactTrace,
    SimResult,
    TraceFormatError,
    UserAssignment,
    best_trace_threshold,
    comparison_table,
    consecutive_stats,
    estimate_p,
    generate_corpus,
    iid_trace,
    load_traces,
    parse_trace_text,
    simulate_policy,
    simulate_population,
    trace_env,
)

__version__ = "0.1.0"
