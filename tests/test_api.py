"""The public API exported from ``agectl``: every name, and the signature of
every function and class, pinned so that a change to either fails here and
has to be made, and announced, on purpose."""
import enum
import inspect
import types

import agectl

#: str(inspect.signature(obj)) of every exported function and class but the enum
SIGNATURES = {
    "BonusSolution":
        "(threshold: 'int', bonus_lo: 'float', bonus_hi: 'float', rate: 'float', age: 'float') -> None",
    "ChainSummary":
        "(gain: 'float', age: 'float', update_rate: 'float') -> None",
    "ContactTrace":
        "(shift_id: 'str', slots: 'tuple[int, ...]', mask: 'tuple[int, ...] | None' = None) -> None",
    "ConvergenceError":
        "(iterations: 'int', residual: 'float')",
    "LearningConfig":
        "(max_bonus: 'float', target_rate: 'float', round_slots: 'int', learning_rate: 'float' = 1.0, tolerance: 'float' = 1e-09, initial_bonus: 'float' = 0.0, max_rounds: 'int' = 500) -> None",
    "LearningTrajectory":
        "(rounds: 'list[Round]' = <factory>, converged: 'bool' = False, final_bonus: 'float' = 0.0) -> None",
    "MonotonicityReport":
        "(parameter: 'str', grid: 'tuple[float, ...]', thresholds: 'tuple[int, ...]', violation: 'tuple[int, int, int] | None') -> None",
    "Policy":
        "(actions: 'tuple[Action, ...]') -> None",
    "PublisherInstance":
        "(params: 'SystemParams', n_users: 'int', rate_cap: 'float') -> None",
    "SimResult":
        "(total_reward: 'float', slots: 'int', average_reward: 'float', updates: 'int', update_slots: 'UpdateSlots', updates_wifi: 'int', updates_3g: 'int', energy_spent: 'float', fees_paid: 'float') -> None",
    "SolveReport":
        "(value: 'ValueFunction', policy: 'Policy', iterations: 'int', residual: 'float') -> None",
    "StructureViolation":
        "(age: 'int', action: 'Action', next_action: 'Action')",
    "SystemParams":
        "(contact_prob: 'float', max_age: 'int', utility: 'UtilityFunction', scan_cost: 'float' = 0.0, wifi_price: 'float' = 0.0, price_3g: 'float | None' = None, bonus: 'float' = 0.0) -> None",
    "ThresholdResult":
        "(s_star: 'int', reward: 'float', all_optima: 'tuple[int, ...]', always_active: 'bool', always_inactive: 'bool', fallback_sweep: 'bool' = False) -> None",
    "TraceFormatError":
        "(line_no: 'int', message: 'str')",
    "TwoThresholdResult":
        "(s_wifi: 'int', s_3g: 'int', reward: 'float') -> None",
    "UserAssignment":
        "(trace: 'ContactTrace', phase: 'int' = 0, start_age: 'int' = 1) -> None",
    "UtilityFunction":
        "(values: 'tuple[float, ...]', form: 'str' = 'tabular', offset: 'float' = 0.0, step_value: 'float | None' = None, step_cutoff: 'int | None' = None) -> None",
    "ValueFunction":
        "(values: 'np.ndarray', gain: 'float') -> None",
    "always_active":
        "(params: 'SystemParams') -> 'bool'",
    "always_inactive":
        "(params: 'SystemParams') -> 'bool'",
    "bellman_values":
        "(x: 'int', value: 'ValueFunction', params: 'SystemParams') -> 'tuple[float, float, float | None]'",
    "best_trace_threshold":
        "(trace: 'ContactTrace', params: 'SystemParams', replications: 'int' = 40, start_age: 'int' = 1) -> 'tuple[int, float]'",
    "bonus_range_for_threshold":
        "(instance: 'PublisherInstance', s: 'int') -> 'tuple[float, float] | None'",
    "chain_sim_env":
        "(params: 'SystemParams', n_users: 'int', round_slots: 'int', rng: 'np.random.Generator') -> 'RoundEnv'",
    "chain_summary":
        "(policy: 'Policy', params: 'SystemParams') -> 'ChainSummary'",
    "comparison_table":
        "(traces: 'Sequence[ContactTrace]', params: 'SystemParams', replications: 'int' = 40) -> 'list[tuple]'",
    "consecutive_stats":
        "(trace: 'ContactTrace') -> 'ConsecutiveStats'",
    "convergence_report":
        "(traj: 'LearningTrajectory', bonus_range: 'tuple[float, float]') -> 'ConvergenceReport'",
    "enumerate_optimal_thresholds":
        "(params: 'SystemParams') -> 'tuple[tuple[int, ...], bool]'",
    "estimate_p":
        "(trace: 'ContactTrace') -> 'float'",
    "expected_age":
        "(s: 'int', p: 'float', max_age: 'int') -> 'float'",
    'expected_age_3g_only':
        "(s_3g: 'int', max_age: 'int') -> 'float'",
    "expected_rate_env":
        "(params: 'SystemParams', n_users: 'int', round_slots: 'int') -> 'RoundEnv'",
    'expected_reward_3g_only':
        "(params: 'SystemParams', s_3g: 'int') -> 'float'",
    "expected_reward_threshold":
        "(params: 'SystemParams', s: 'int') -> 'float'",
    "expected_reward_two_threshold":
        "(params: 'SystemParams', s_wifi: 'int', s_3g: 'int') -> 'float'",
    "generate_corpus":
        "(n_shifts: 'int', seed: 'int', median_p: 'float' = 0.53) -> 'list[ContactTrace]'",
    "greedy_policy":
        "(value: 'ValueFunction', params: 'SystemParams') -> 'Policy'",
    "iid_trace":
        "(p: 'float', n_slots: 'int', seed: 'int | np.random.Generator', shift_id: 'str' = 'iid') -> 'ContactTrace'",
    "instantaneous_reward":
        "(params: 'SystemParams', age: 'int', action: 'Action', contact: 'int') -> 'float'",
    "lambert_w":
        "(x: 'float') -> 'float'",
    "learning_step":
        "(round_index: 'int', bonus: 'float', rate: 'float', config: 'LearningConfig') -> 'float'",
    "load_params":
        "(path: 'str | Path') -> 'SystemParams'",
    "load_traces":
        "(path: 'str | Path') -> 'list[ContactTrace]'",
    "message_rate":
        "(params: 'SystemParams', n_users: 'int') -> 'float'",
    "monotonicity_check":
        "(params: 'SystemParams', parameter: 'str', grid: 'tuple[float, ...] | list[float]') -> 'MonotonicityReport'",
    "multi_optimum_condition":
        "(params: 'SystemParams') -> 'bool'",
    "next_age":
        "(age: 'int', action: 'Action', contact: 'int', max_age: 'int') -> 'int'",
    "normalize_utility":
        "(utility: 'UtilityFunction') -> 'UtilityFunction'",
    "optimal_bonus":
        "(instance: 'PublisherInstance') -> 'BonusSolution | None'",
    "optimal_threshold":
        "(params: 'SystemParams') -> 'ThresholdResult'",
    "optimal_two_thresholds":
        "(params: 'SystemParams') -> 'TwoThresholdResult'",
    "params_from_mapping":
        "(mapping: 'Mapping[str, str]') -> 'SystemParams'",
    "parse_trace_text":
        "(text: 'str') -> 'list[ContactTrace]'",
    "preset":
        "(name: 'str') -> 'ExperimentPreset'",
    "relative_value_iteration":
        "(params: 'SystemParams', tol: 'float' = 1e-10, max_iter: 'int' = 1000000) -> 'SolveReport'",
    "run_learning":
        "(env: 'RoundEnv', config: 'LearningConfig') -> 'LearningTrajectory'",
    "run_population_drop":
        "(exp: 'ExperimentPreset', env_factory: 'Callable[[int], RoundEnv]', initial_bonus: 'float | None' = None) -> 'tuple[LearningTrajectory, LearningTrajectory]'",
    "simulate_policy":
        "(trace: 'ContactTrace', params: 'SystemParams', policy: 'Policy | MaskPolicy', start_age: 'int' = 1) -> 'SimResult'",
    "simulate_population":
        "(users: 'Sequence[UserAssignment]', params: 'SystemParams', rounds: 'int', round_slots: 'int', controller: 'learning.LearningConfig | None' = None, record_ages: 'bool' = False) -> 'PopulationResult'",
    "solve_user_problem":
        "(params: 'SystemParams', tol: 'float' = 1e-10, max_iter: 'int' = 1000000) -> 'SolveReport'",
    "steady_state_exact":
        "(policy: 'Policy', params: 'SystemParams') -> 'np.ndarray'",
    "steady_state_threshold":
        "(s: 'int', p: 'float', max_age: 'int') -> 'np.ndarray'",
    "step_utility_threshold":
        "(params: 'SystemParams') -> 'ThresholdResult'",
    "summary_for_threshold":
        "(params: 'SystemParams', s: 'int') -> 'ChainSummary'",
    "target_threshold":
        "(n_users: 'int', rate_cap: 'float', p: 'float', max_age: 'int') -> 'int'",
    "threshold_response":
        "(params: 'SystemParams', bonuses: 'np.ndarray | list[float]') -> 'np.ndarray'",
    "threshold_reward_curve":
        "(params: 'SystemParams') -> 'np.ndarray'",
    "trace_env":
        "(users: 'Sequence[UserAssignment]', params: 'SystemParams', round_slots: 'int') -> 'learning.RoundEnv'",
    "transition_matrix":
        "(policy: 'Policy', params: 'SystemParams') -> 'np.ndarray'",
    "verify_threshold_structure":
        "(policy: 'Policy') -> 'tuple[int, int]'",
}

#: the exported names that have no signature to pin
OTHER_NAMES = {"Action", "MASK_POLICY", "__version__"}


def test_exported_names_are_pinned():
    exported = {
        name for name, obj in vars(agectl).items()
        if (not name.startswith("_") or name == "__version__")
        and not isinstance(obj, types.ModuleType)
    }
    assert exported == SIGNATURES.keys() | OTHER_NAMES


def test_exported_signatures_are_pinned():
    got = {name: str(inspect.signature(getattr(agectl, name))) for name in SIGNATURES}
    assert got == SIGNATURES


def test_action_codes_are_pinned():
    assert issubclass(agectl.Action, enum.IntEnum)
    assert {a.name: int(a) for a in agectl.Action} == {"INACTIVE": 0, "WIFI": 1, "WIFI_THEN_3G": 2}
