"""Mutant catalogue: each entry breaks the package on purpose in one place, and
the tests named with it must catch the break.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py

For each entry the runner copies ``src/``, ``tests/``, ``bench/`` (whose
oracles some tests import), ``README.md`` and ``pyproject.toml`` to a
temporary directory, replaces the entry's source
fragment, which must occur exactly once in its file, and runs only the
entry's tests there under ``-W error::RuntimeWarning``.  The mutant is killed
when they fail and alive when they pass.  An entry marked ``survives`` is a
control: its edit changes nothing a test can see, so it must stay alive,
which shows that the named tests pass on an unbroken copy.  The runner exits
1 when a mutant that should die lives or a control dies, and 2 when an
entry cannot run (a fragment not found once, or tests that error or are not
collected).  pytest does not collect this file: its name has no ``test_``
prefix; ``test_mutants.py`` checks each entry's fragment and tests in the
tier-1 suite.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
THRESHOLDS = "src/agectl/thresholds.py"
SOLVER = "src/agectl/solver.py"
CHAIN = "src/agectl/chain.py"
TRACESIM = "src/agectl/tracesim.py"
LEARNING = "src/agectl/learning.py"
MODEL = "src/agectl/model.py"
CLI = "src/agectl/cli.py"
PUBLISHER = "src/agectl/publisher.py"
REPLAY = "src/agectl/replay.py"
STREAM = "tests/test_thresholds.py::TestTwoThresholdStream::"
PI = "tests/test_solver.py::TestPolicyIteration::"
RVI = "tests/test_solver.py::TestAgainstReferenceIteration::"
COUNTS = "tests/test_replay.py::test_counts_from_codes_equal_slot_tallies"
MODULO = "tests/test_replay.py::test_population_rounds_match_modulo_indexing"
PUB_OPT = "tests/test_publisher.py::TestOptimalBonus::"
TWO_G = "tests/test_chain.py::TestTwoThreshold::"
GRID = "tests/test_chain.py::TestTwoThresholdGrid::"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                 # relative to the repository root
    fragment: str             # exact source text, found exactly once in path
    replacement: str
    tests: tuple[str, ...]    # pytest node ids that must fail on the mutant
    survives: bool = False    # a control: the edit must leave the tests passing


MUTANTS = (
    # the floor g without the cells' rounding: at the M = 36 draw every cell
    # rounds above u(1), and no row is read past span 0
    Mutant("margin-dropped", THRESHOLDS,
           "g = best - tie - 2 * M * math.ulp(1.0) * scale", "g = best - tie",
           (STREAM + "test_a_pick_one_ulp_above_the_exact_best_is_within_the_bound_of_it",
            STREAM + "test_cheap_3g_matches_dense_pick")),
    # the 3G marginal without its price term: A(g) off the rows' peaks
    Mutant("worth-without-3g-price", THRESHOLDS,
           "worth = u - params.scan_cost + params.contact_prob * (params.price_3g - params.wifi_price)",
           "worth = u - params.scan_cost",
           (STREAM + "test_reads_rows_up_to_their_3g_marginal",
            STREAM + "test_matches_dense_pick_at_block_edges")),
    # a nan g, from an inf best, bounds every row at span 0
    Mutant("nan-bound-reads-no-row", THRESHOLDS,
           "last = int(np.count_nonzero(~(worth <= g)))", "last = int(np.count_nonzero(worth > g))",
           (STREAM + "test_an_inf_best_reads_every_row_whole",)),
    # the row s_wifi = A(g) - 1 left unread when a block starts on it
    Mutant("blocks-one-row-short", THRESHOLDS,
           "while r0 < last - 1:", "while r0 < last - 2:",
           (STREAM + "test_matches_dense_pick_at_block_edges", STREAM + "test_matches_dense_pick")),
    Mutant("tie", THRESHOLDS,
           "r = M - 1 - int(np.argmax(((row_top >= floor) | (wifi_only >= floor))[::-1]))",
           "r = int(np.argmax((row_top >= floor) | (wifi_only >= floor)))",
           (STREAM + "test_exact_tie_across_a_block_boundary",)),
    # the floor set by the grid's cells alone: a WiFi-only best loses to a
    # later row within the tie of the grid's best, or to never activating
    Mutant("top-without-wifi-only", THRESHOLDS,
           "top = max(float(row_top.max()), float(wifi_only.max()))", "top = float(row_top.max())",
           ("tests/test_thresholds.py::TestTwoThresholds::test_huge_3g_price_reduces_to_wifi_only",
            STREAM + "test_matches_dense_pick_at_block_edges")),
    Mutant("utility-slack", MODEL,
           "            if b > a:", "            if b > a + SLACK_TOL:",
           ("tests/test_model.py::TestToleranceHome"
            "::test_utility_rise_rejected_at_any_slack_and_bonus_cap_slack",
            "tests/test_cli.py::TestSolve::test_a_rise_under_the_slack_exits_2_naming_both_ages")),
    Mutant("no-keep-on-tie", SOLVER,
           "switch = top > fs[codes, ages] + margin", "switch = top > fs[codes, ages]",
           (PI + "test_steps_equal_reference_exactly",)),
    Mutant("all-3g-start", SOLVER,
           "codes = np.full(M, int(Action.WIFI))",
           "codes = np.full(M, int(Action.WIFI_THEN_3G))",
           (PI + "test_steps_equal_reference_exactly", PI + "test_step_counts")),
    # b(x) read one age off, in each back-substitution pass; the first pass's
    # rewards only set the Newton step's start, so a shift there is
    # invisible up to rounding
    Mutant("slope-pass-off-by-one", SOLVER,
           "for c, b in zip((r[-2 - start::-1] - r[-1]).tolist(), stay[start:]):",
           "for c, b in zip((r[-2 - start::-1] - r[-1]).tolist(), (stay[1:] + stay[-1:])[start:]):",
           (PI + "test_evaluation_is_the_exact_gain_of_any_policy",)),
    Mutant("value-pass-off-by-one", SOLVER,
           "for c, b in zip((r[-2::-1] - gain).tolist(), stay):",
           "for c, b in zip((r[-2::-1] - gain).tolist(), stay[1:] + stay[-1:]):",
           (PI + "test_evaluation_is_the_exact_gain_of_any_policy",)),
    # the first pass resumed one age too low, past the highest changed action
    Mutant("resume-off-by-one", SOLVER,
           "keep = max(M - 1 - int(changed[-1]), 1)", "keep = max(M - int(changed[-1]), 1)",
           (PI + "test_steps_equal_reference_exactly",)),
    # F0 written over the V(x+1) row before F1 reads it
    Mutant("action-values-order", SOLVER,
           "    np.multiply(q, vnext, out=fs[1])\n"
           "    np.add(terms[1], fs[1], out=fs[1])\n"
           "    np.add(terms[0], vnext, out=fs[0])\n",
           "    np.add(terms[0], vnext, out=fs[0])\n"
           "    np.multiply(q, vnext, out=fs[1])\n"
           "    np.add(terms[1], fs[1], out=fs[1])\n",
           (RVI + "test_sweep_equals_reference_exactly",
            PI + "test_steps_equal_reference_exactly")),
    Mutant("rvi-damping", SOLVER,
           "v = v + 0.5 * delta", "v = v + 0.25 * delta",
           (RVI + "test_sweep_equals_reference_exactly",
            RVI + "test_non_convergence_equals_reference")),
    Mutant("rvi-no-gauge", SOLVER,
           "            v = v - v[0]\n", "",
           (RVI + "test_sweep_equals_reference_exactly",
            RVI + "test_non_convergence_equals_reference")),
    # the closed forms: the WiFi cycle cost G·p, not G/p
    Mutant("scan-cost-times-p", CHAIN,
           "fixed = params.scan_cost / p + params.wifi_price",
           "fixed = params.scan_cost * p + params.wifi_price",
           ("tests/test_chain.py::TestExpectedReward::test_matches_oracle_gain",
            "tests/test_solver.py::TestRouteAgreement::test_optimal_threshold",
            "tests/test_tracesim.py::TestSimulatePolicy::test_ergodic_agreement_smoke")),
    # the closed forms' reach (1 - q^(j + 1)) / p, which cancels as p -> 0
    Mutant("reach-without-expm1", CHAIN,
           "-np.expm1(np.arange(1, M + 1) * np.log1p(-p)) / p", "(1.0 - q ** np.arange(1, M + 1)) / p",
           ("tests/test_chain.py::TestTwoThresholdGrid::test_exact_at_tiny_p[1e-12]",
            "tests/test_cli.py::TestSolve::test_two_threshold_grid_at_tiny_p")),
    # the WiFi curve's tails recurrence with one term dropped: u(1) left out of
    # the tail at threshold 1
    Mutant("tails-drop-a-term", CHAIN,
           "        tail = u[s] + q * tail\n", "        tail = (u[s] if s else 0.0) + q * tail\n",
           ("tests/test_chain.py::TestRewardTails::test_within_the_stated_bound_of_the_exact_sums[0.5]",
            "tests/test_chain.py::TestExpectedReward::test_matches_oracle_gain")),
    # always_active's running power advanced before the product: u(x) q^x
    # in place of u(x) q^(x-1)
    Mutant("always-active-power-first", THRESHOLDS,
           "        discounted += ux * power\n        power *= q\n",
           "        power *= q\n        discounted += ux * power\n",
           ("tests/test_thresholds.py::TestBoundaryConditions::test_always_active_matches_the_curve",
            "tests/test_thresholds.py::TestOptimalThreshold::test_boundary_flags_imply_extreme_thresholds")),
    # always_inactive's utility sum raises past the float range, where sum() gave inf
    Mutant("always-inactive-sum-overflow-raises", THRESHOLDS,
           "    except OverflowError:\n        total = math.inf\n",
           "    except ZeroDivisionError:\n        total = math.inf\n",
           ("tests/test_thresholds.py::TestBoundaryConditions::test_utility_sum_past_the_float_range_is_inf",)),
    # the two-threshold cells: the WiFi fees added, not subtracted
    Mutant("panel-fees-sign", CHAIN,
           "cells -= self.fees", "cells += self.fees",
           (TWO_G + "test_matches_oracle_gain", GRID + "test_matches_exact_oracle")),
    # the two-threshold cells' pi1 read one age late: 1 / (s_wifi + reach)
    Mutant("panel-pi1-one-age-late", CHAIN,
           "np.add(self.first_age[lo:hi], self.reach",
           "np.add(self.first_age[lo:hi] + 1.0, self.reach",
           (TWO_G + "test_matches_oracle_gain", GRID + "test_matches_exact_oracle")),
    # the 3G escalation priced at q^j, where the fee is paid with probability q^(j+1)
    Mutant("panel-escalation-power-early", CHAIN,
           "powers[1:]", "powers[:-1]",
           (TWO_G + "test_matches_oracle_gain", GRID + "test_matches_exact_oracle",
            GRID + "test_matches_exact_oracle_across_row_blocks[257]")),
    # a panel's cells past max_age masked from one row later: the first is left finite
    Mutant("panel-past-one-row-late", CHAIN,
           "self.max_age - lo - width + 1)", "self.max_age - lo - width + 2)",
           (GRID + "test_row_blocks_hold_the_grid_bits",)),
    # the matrix oracle: WiFi renews with probability 1 - p, not p
    Mutant("matrix-contact-swapped", CHAIN,
           "            mat[age - 1, 0] += p\n            mat[age - 1, nxt - 1] += 1.0 - p\n",
           "            mat[age - 1, 0] += 1.0 - p\n            mat[age - 1, nxt - 1] += p\n",
           ("tests/test_chain.py::TestExactOracle::test_matrix_route",
            "tests/test_acceptance.py::test_criterion_1_closed_forms_vs_chain_oracle",
            "tests/test_solver.py::TestRouteAgreement::test_two_threshold_optimum")),
    # the replay tally: 3G updates priced as WiFi ones and the reverse
    Mutant("tally-updates-swapped", TRACESIM,
           "tally = np.column_stack((by_age, active, updates - updates_3g, updates_3g))",
           "tally = np.column_stack((by_age, active, updates_3g, updates - updates_3g))",
           ("tests/test_tracesim.py::TestSimulatePolicy::test_agrees_with_reference_oracle",
            "tests/test_replay.py::test_rotation_tallies_count_the_reference_parts",
            "tests/test_tracesim.py::TestSimulatePolicy::test_two_threshold_ergodic_agreement")),
    # the WiFi fee charged on every active slot, with a contact or without
    Mutant("wifi-fee-without-contact", TRACESIM,
           "active, updates - updates_3g,", "active, active - updates_3g,",
           ("tests/test_tracesim.py::TestSimulatePolicy::test_two_threshold_ergodic_agreement",
            "tests/test_tracesim.py::TestSimulatePolicy::test_agrees_with_reference_oracle")),
    # each update recorded at the slot after its own
    Mutant("update-slots-one-late", TRACESIM,
           "slots += 1   # the 1-based slot", "slots += 2   # the 1-based slot",
           ("tests/test_tracesim.py::TestSimulatePolicy::test_hand_stepped_example",
            "tests/test_acceptance.py::test_criterion_9_trace_ergodicity")),
    # the exact sums over the smallest denominator: finer values truncate to 0
    Mutant("sums-smallest-denominator", TRACESIM,
           "scale = max(den for _, den in ratios)", "scale = min(den for _, den in ratios)",
           ("tests/test_replay.py::test_exact_sums_of_counts_past_the_count_split",
            "tests/test_acceptance.py::test_criterion_9_trace_ergodicity")),
    # the controller: no projection into [0, B-hat], and a step that never shrinks
    Mutant("learning-no-projection", LEARNING,
           "return min(config.max_bonus, max(0.0, bonus + step))", "return bonus + step",
           ("tests/test_learning.py::TestLearningStep::test_upper_clamp",
            "tests/test_learning.py::TestLearningStep::test_lower_clamp",
            "tests/test_learning.py::TestRunLearning::test_projection_invariant")),
    Mutant("learning-step-without-1/t", LEARNING,
           "(config.target_rate - rate) / round_index", "(config.target_rate - rate)",
           ("tests/test_learning.py::TestLearningStep::test_step_arithmetic",
            "tests/test_learning.py::TestLearningStep::test_corrections_shrink_like_one_over_t")),
    # the controller's step on a 1/(t + 1) clock
    Mutant("learning-step-1/(t+1)", LEARNING,
           "(config.target_rate - rate) / round_index", "(config.target_rate - rate) / (round_index + 1)",
           ("tests/test_learning.py::TestLearningStep::test_step_arithmetic",
            "tests/test_learning.py::TestConvergence::test_deterministic_env_reaches_optimal_interval")),
    # --b read as G = b * M, not b * (M - 1)
    Mutant("b-times-M", CLI,
           'str(args.b * (parse_param("M", mapping["M"], int) - 1))', 'str(args.b * parse_param("M", mapping["M"], int))',
           ("tests/test_cli.py::TestConfigOverlay::test_b_uses_M_from_the_config",
            "tests/test_cli.py::test_replay_outputs_are_byte_stable")),
    # the publisher's target with no snap: float noise above an integer raises it one step
    Mutant("target-threshold-no-snap", PUBLISHER,
           "max(raw, 0) - Fraction(1e-9)", "max(raw, 0)",
           ("tests/test_publisher.py::TestTargetThreshold"
            "::test_a_rate_on_the_budget_up_to_its_rounding_is_feasible",)),
    # the publisher's threshold read at the low end of the bonuses that keep the target
    Mutant("bonus-threshold-at-low-end", PUBLISHER,
           "_threshold_at(edges, keeps_target[1])", "_threshold_at(edges, keeps_target[0])",
           (PUB_OPT + "test_fifty_users_needs_threshold_four",
            PUB_OPT + "test_matches_grid_scan_on_random_instances",
            PUB_OPT + "test_property_against_brute_force_grid")),
    # no None when even a zero bonus leaves users updating too often: the zero bonus's answer
    Mutant("bonus-never-infeasible", PUBLISHER,
           "    if keeps_target is None:\n        return None\n",
           "    if keeps_target is None:\n        keeps_target = (0.0, 0.0)\n",
           (PUB_OPT + "test_infeasible_when_zero_bonus_already_exceeds_cap",
            PUB_OPT + "test_matches_grid_scan_on_random_instances",
            PUB_OPT + "test_property_against_brute_force_grid")),
    # the optimal bonus interval's upper end read as its lower end
    Mutant("bonus-interval-low-for-high", PUBLISHER,
           "bonus_lo=lo, bonus_hi=hi", "bonus_lo=lo, bonus_hi=lo",
           (PUB_OPT + "test_reference_instance_sponsors_full_price",
            "tests/test_publisher.py::TestBonusRange::test_interval_ends_are_the_rational_edges")),
    # the message rate read off the next threshold's cycle
    Mutant("message-rate-next-cycle", PUBLISHER,
           "params.max_age)[s - 1])", "params.max_age)[s])",
           ("tests/test_publisher.py::TestMessageRate::test_formula",
            "tests/test_publisher.py::test_every_threshold_answer_reads_one_rule")),
    # Halley's step on the unscaled residual w e^w - x, whose terms overflow near the largest x
    Mutant("lambert-unscaled-step", THRESHOLDS,
           "        f = w - x / ew   # the residual over e^w, which stays finite up to the largest x\n"
           "        if abs(f) * ew <= target:\n"
           "            return w\n"
           "        wp1 = w + 1.0\n"
           "        w -= f / (wp1 - (w + 2.0) * f / (2.0 * wp1))\n",
           "        f = w * ew - x\n"
           "        if abs(f) <= target:\n"
           "            return w\n"
           "        wp1 = w + 1.0\n"
           "        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))\n",
           ("tests/test_thresholds.py::TestLambertW::test_largest_arguments",)),
    # the envs' s*(B): a bonus on an edge counted as above it
    Mutant("response-bisect-left", THRESHOLDS,
           "bisect.bisect_right(ascending, bonus)", "bisect.bisect_left(ascending, bonus)",
           ("tests/test_learning.py::TestEnvironments::test_env_response_is_threshold_response_at_every_edge",
            "tests/test_thresholds.py::test_routes_agree_at_every_bonus_edge")),
    # the end ages read past the last step's slots, in its padding
    Mutant("round-end-full-step", REPLAY,
           "[:, r - 1]   # the age after its r-th slot", "[:, -1]",
           ("tests/test_replay.py::test_chain_env_draws_one_number_per_user_slot",
            "tests/test_replay.py::test_round_reader_reads_the_end_ages_and_updates_of_the_replay",
            "tests/test_replay.py::test_chain_rounds_are_the_replay_of_their_draws[30-7]",
            "tests/test_replay.py::test_trace_rounds_are_the_replay_of_their_windows[300-7]")),
    # a trace round's last-step codes not masked to its r slots: updates on the slots after the round
    Mutant("round-pattern-unmasked", REPLAY,
           "np.concatenate((patterns, patterns & mask))", "np.concatenate((patterns, patterns))",
           (MODULO + "[phases past the length]",
            "tests/test_replay.py::test_population_totals_equal_parts_at_each_rounds_bonus",
            "tests/test_replay.py::test_trace_rounds_are_the_replay_of_their_windows[30-7]")),
    # a trace round's codes gathered one slot late
    Mutant("round-pattern-one-late", TRACESIM,
           "self.codes.take(self.pos + self.index)", "self.codes.take(self.pos + 1 + self.index)",
           (MODULO + "[one shared trace]",
            "tests/test_replay.py::test_recorded_ages_match_modulo_indexing",
            "tests/test_replay.py::test_trace_rounds_are_the_replay_of_their_windows[30-1]")),
    # an env that keeps the first threshold's step table after the threshold changes
    Mutant("round-table-stale", LEARNING,
           "steps = self[s] = replay._tables(self.ages[None] >= s)",
           "steps = self.setdefault(0, replay._tables(self.ages[None] >= s))",
           ("tests/test_replay.py::test_chain_rounds_are_the_replay_of_their_draws[300-8]",
            "tests/test_replay.py::test_trace_rounds_are_the_replay_of_their_windows[30-8]",
            MODULO + "[one shared trace]")),
    # the step summaries: a row's histogram over the k ages after its slots
    Mutant("histogram-after-slots", REPLAY,
           "self.cells % M   # the age before", "(self.table - 1)   # the age after",
           (COUNTS + "[12-per-age-13-by histogram]",
            "tests/test_replay.py::test_rotation_tallies_count_the_reference_parts")),
    # 3G updates counted at the slots with a contact
    Mutant("3g-at-contacts", TRACESIM,
           "np.count_nonzero(block > contacts)", "np.count_nonzero(block & (contacts == 1))",
           ("tests/test_replay.py::test_rotation_tallies_count_the_reference_parts",
            "tests/test_replay.py::test_simulate_policy_equals_reference_replay")),
    # update slots read where the age after the slot is 2, not 1
    Mutant("update-slots-read-at-age-2", TRACESIM,
           "updated = replay._after(steps, code, len(trace)) == 1",
           "updated = replay._after(steps, code, len(trace)) == 2",
           ("tests/test_tracesim.py::TestSimulatePolicy::test_hand_stepped_example",)),
    # each policy's codes offset by 1, not by its block of the step table
    Mutant("policy-offset-by-one", REPLAY,
           "np.repeat(policy * (M << k), parts)", "np.repeat(policy, parts)",
           ("tests/test_replay.py::test_threshold_means_equal_reference_averages",
            "tests/test_replay.py::test_rotation_tallies_count_the_reference_parts")),
    # replay rows longer than CHUNK_SLOTS walked whole over codes laid out as chunks
    Mutant("long-rows-walked-whole", REPLAY,
           "(_walk_codes if parts == 1 else _walk_chunks)", "_walk_codes",
           ("tests/test_replay.py::test_long_replay_matches_reference",
            "tests/test_replay.py::test_chunks_without_updates_settle_over_several_passes")),
    # a replay's ages counted by table row without the first row its steps use
    Mutant("count-ages-drops-a-used-row", REPLAY,
           "rows = np.flatnonzero(used)", "rows = np.flatnonzero(used)[1:]",
           (COUNTS + "[12-per-age-13-by table row]",
            COUNTS + "[260-late-257-no histogram]")),
    # a population round's active slots read from one age above its threshold
    Mutant("population-active-one-age-late", TRACESIM,
           "tally[:, s - 1:]", "tally[:, s:]",
           ("tests/test_replay.py::test_trace_rounds_are_the_replay_of_their_windows[30-7]",
            "tests/test_replay.py::test_population_totals_equal_parts_at_each_rounds_bonus")),
    # a population round's slots tallied by the age after the slot
    Mutant("population-tally-after-slots", TRACESIM,
           "replay._before(steps, code, round_slots)", "replay._after(steps, code, round_slots) - 1",
           ("tests/test_replay.py::test_trace_rounds_are_the_replay_of_their_windows[300-7]",
            "tests/test_replay.py::test_single_user_population_equals_simulate_policy")),
    # the cells before each slot not cut to the round's slots: a padded last step counts whole
    Mutant("before-uncut", REPLAY,
           'steps.cells.take(code.T, axis=0, mode="clip").reshape(code.shape[1], -1)[:, :n]',
           'steps.cells.take(code.T, axis=0, mode="clip").reshape(code.shape[1], -1)',
           ("tests/test_replay.py::test_trace_rounds_are_the_replay_of_their_windows[30-7]",
            "tests/test_replay.py::test_trace_rounds_are_the_replay_of_their_windows[300-19]")),
    # a row's contacts packed big-endian: each step's slots read in reverse
    Mutant("patterns-big-endian", REPLAY,
           'np.packbits(np.ascontiguousarray(contacts), axis=1, bitorder="little")',
           'np.packbits(np.ascontiguousarray(contacts), axis=1, bitorder="big")',
           ("tests/test_replay.py::test_replay_ages_on_every_contact_layout",
            "tests/test_tracesim.py::TestSimulatePolicy::test_hand_stepped_example")),
    # a step's pattern not cut to its k bits: the later steps of its byte leak in
    Mutant("patterns-unmasked", REPLAY,
           " & ((1 << k) - 1)", "",
           ("tests/test_replay.py::test_replay_ages_on_every_contact_layout",
            "tests/test_replay.py::test_chain_env_at_short_steps_draws_one_number_per_user_slot[300-4]")),
    # a chain round's codes cut to its whole steps: a last step of fewer than k slots is lost
    Mutant("round-codes-whole-steps", REPLAY,
           "packed[:-(-n // k)]", "packed[:n // k]",
           ("tests/test_replay.py::test_chain_rounds_are_the_replay_of_their_draws[30-7]",
            "tests/test_replay.py::test_chain_rounds_are_the_replay_of_their_draws[300-7]")),
)
# a control: every entry's tests pass on an unbroken copy
MUTANTS += (Mutant("comment-only", THRESHOLDS,
                   "# only WiFi-only reaches the floor in row r",
                   "# no grid cell reaches the floor in row r",
                   tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests)),
                   survives=True),)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=skip)
        else:
            shutil.copy2(source, dest / name)


def run(mutant: Mutant) -> int:
    """0 when the mutant lives, 1 when its tests kill it, else an error."""
    with tempfile.TemporaryDirectory(prefix="agectl-mutant-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        target = work / mutant.path
        text = target.read_text()
        found = text.count(mutant.fragment)
        if found != 1:
            print(f"{mutant.name}: fragment found {found} times in {mutant.path}, not once")
            return 2
        target.write_text(text.replace(mutant.fragment, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(work / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-W", "error::RuntimeWarning", *mutant.tests],
            cwd=work, env=env, capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            print(proc.stdout[-2000:] + proc.stderr[-2000:])
        return proc.returncode


def main() -> int:
    status = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        code = run(mutant)
        seconds = time.perf_counter() - start
        if code not in (0, 1):
            verdict, status = "error", 2
        else:
            verdict = "killed" if code else "alive"
            if (code == 0) != mutant.survives:
                verdict += ", expected " + ("alive" if mutant.survives else "killed")
                status = status or 1
        print(f"{mutant.name}: {verdict} ({seconds:.1f} s)", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
