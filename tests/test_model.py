"""Core model: utilities, rewards, transitions, policies, config loading, and
the one home of the tie and slack tolerances."""
import copy
import inspect
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from agectl import (
    Action,
    Policy,
    SystemParams,
    UtilityFunction,
    ValueFunction,
    bellman_values,
    enumerate_optimal_thresholds,
    greedy_policy,
    instantaneous_reward,
    lambert_w,
    load_params,
    multi_optimum_condition,
    next_age,
    normalize_utility,
    optimal_threshold,
    optimal_two_thresholds,
    params_from_mapping,
    step_utility_threshold,
    threshold_reward_curve,
)
from agectl import chain, model, solver, tracesim
from agectl.cli import main
from agectl.model import read_mapping
from agectl.thresholds import bonus_edges

from conftest import threshold_action


def linear_params(max_age=12, p=0.54, **kw):
    return SystemParams(
        contact_prob=p, max_age=max_age, utility=UtilityFunction.linear(max_age), **kw
    )


class TestUtility:
    def test_normalize_tabular_shifts_to_zero_tail(self):
        u = normalize_utility(UtilityFunction.tabular([5, 3, 1]))
        assert u.values == (4, 2, 0)
        assert u.offset == 1

    def test_normalize_linear_is_identity(self):
        u = UtilityFunction.linear(12)
        assert normalize_utility(u) is u
        assert u.values[-1] == 0.0

    def test_normalize_step_below_max_age_is_identity(self):
        u = UtilityFunction.step(12, 3, 21)
        assert normalize_utility(u) is u

    def test_increasing_utility_rejected(self):
        with pytest.raises(ValueError, match="non-increasing"):
            UtilityFunction.tabular([1, 2, 3])

    def test_linear_values(self):
        u = UtilityFunction.linear(12)
        assert u(1) == 11 and u(6) == 6 and u(12) == 0

    def test_age_domain_checked(self):
        u = UtilityFunction.linear(5)
        with pytest.raises(ValueError):
            u(0)
        with pytest.raises(ValueError):
            u(6)

    @pytest.mark.parametrize("utility", [UtilityFunction.linear(4), UtilityFunction.step(2.5, 2, 4),
                                         UtilityFunction.tabular([7, 3.25, 3.25, -1e300]),
                                         UtilityFunction((3, 2, 0), offset=0.5)],
                             ids=["linear", "step", "tabular", "int values"])
    def test_stored_values_are_a_read_only_array_outside_equality_repr_and_pickles(self, utility):
        array = utility.value_array
        assert array.dtype == np.float64 and array.tolist() == [float(v) for v in utility.values]
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
        fields = (utility.values, utility.form, utility.offset, utility.step_value, utility.step_cutoff)
        twin = UtilityFunction(*fields)
        assert twin == utility and hash(twin) == hash(utility) == hash(fields)
        assert twin.value_array is not array
        assert repr(utility) == (f"UtilityFunction(values={utility.values!r}, form={utility.form!r}, "
                                 f"offset={utility.offset!r}, step_value={utility.step_value!r}, "
                                 f"step_cutoff={utility.step_cutoff!r})")
        assert "value_array" not in pickle.dumps(utility).decode("latin-1")
        for clone in (pickle.loads(pickle.dumps(utility)), copy.deepcopy(utility), copy.copy(utility)):
            assert clone == utility and clone.value_array.tolist() == array.tolist()
            assert not clone.value_array.flags.writeable
        shifted = normalize_utility(utility)   # a normalized copy holds its own values
        assert shifted.value_array.tolist() == list(shifted.values)

    @given(st.integers(min_value=2, max_value=30), st.floats(0.1, 50))
    def test_constant_shift_absorbed_into_offset(self, max_age, shift):
        base = UtilityFunction.linear(max_age)
        shifted = UtilityFunction.tabular([v + shift for v in base.values])
        norm = normalize_utility(shifted)
        assert norm.values == pytest.approx(base.values)
        assert norm.offset == pytest.approx(shift)


class TestSystemParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            linear_params(p=0.0)
        with pytest.raises(ValueError):
            linear_params(p=1.0)
        with pytest.raises(ValueError):
            SystemParams(contact_prob=0.5, max_age=1, utility=UtilityFunction.linear(1))

    def test_bonus_capped_by_cheapest_price(self):
        with pytest.raises(ValueError):
            linear_params(wifi_price=2.0, bonus=3.0)
        with pytest.raises(ValueError):
            linear_params(wifi_price=10.0, price_3g=2.0, bonus=3.0)
        linear_params(wifi_price=10.0, price_3g=12.0, bonus=10.0)

    def test_infinite_3g_price_means_unavailable(self):
        params = linear_params(price_3g=math.inf)
        assert params.price_3g is None and not params.has_3g

    def test_utility_normalized_on_construction(self):
        params = SystemParams(
            contact_prob=0.5, max_age=3, utility=UtilityFunction.tabular([5, 3, 1])
        )
        assert params.utility.values == (4, 2, 0)
        assert params.utility.offset == 1

    @pytest.mark.parametrize(
        "field,value",
        [("scan_cost", math.nan), ("scan_cost", math.inf), ("wifi_price", math.nan),
         ("wifi_price", math.inf), ("price_3g", math.nan)],
    )
    def test_non_finite_costs_rejected(self, field, value):
        with pytest.raises(ValueError):
            linear_params(**{field: value})

    def test_non_finite_or_cutoff_free_utility_rejected(self):
        with pytest.raises(ValueError):
            UtilityFunction.tabular([3, math.nan, 1, 0])
        with pytest.raises(ValueError):
            UtilityFunction.step(math.nan, 3, 8)
        with pytest.raises(ValueError):
            UtilityFunction.step(1.0, 0, 8)


class TestReward:
    def test_inactive_pays_nothing(self):
        params = linear_params(scan_cost=5.0, wifi_price=9.0)
        assert instantaneous_reward(params, 1, Action.INACTIVE, 0) == 11
        assert instantaneous_reward(params, 1, Action.INACTIVE, 1) == 11

    def test_wifi_with_contact(self):
        params = linear_params(scan_cost=0.99)
        assert instantaneous_reward(params, 2, Action.WIFI, 1) == pytest.approx(10 - 0.99)

    def test_wifi_without_contact_costs_scan_only(self):
        params = linear_params(scan_cost=0.99, wifi_price=40.0)
        assert instantaneous_reward(params, 2, Action.WIFI, 0) == pytest.approx(10 - 0.99)

    def test_3g_fallback_pays_bonus_reduced_3g_price(self):
        params = linear_params(
            scan_cost=0.99, wifi_price=40.0, price_3g=60.0, bonus=40.0
        )
        assert instantaneous_reward(params, 5, Action.WIFI_THEN_3G, 0) == pytest.approx(
            7 - 0.99 - (60 - 40)
        )

    def test_action_2_rejected_without_3g(self):
        with pytest.raises(ValueError, match="3G"):
            instantaneous_reward(linear_params(), 3, Action.WIFI_THEN_3G, 0)

    def test_bonus_never_turns_price_into_income(self):
        params = linear_params(wifi_price=1.0, price_3g=1.0, bonus=1.0)
        assert instantaneous_reward(params, 1, Action.WIFI, 1) == 11  # fee exactly zero

    @given(st.integers(1, 12), st.integers(1, 12), st.sampled_from([0, 1]))
    def test_reward_non_increasing_in_age(self, x1, x2, contact):
        params = linear_params(scan_cost=0.5, wifi_price=2.0)
        if x1 > x2:
            x1, x2 = x2, x1
        for action in (Action.INACTIVE, Action.WIFI):
            assert instantaneous_reward(params, x1, action, contact) >= instantaneous_reward(
                params, x2, action, contact
            )


class TestNextAge:
    @pytest.mark.parametrize(
        "age,action,contact,expected",
        [
            (12, Action.INACTIVE, 0, 12),   # saturates
            (3, Action.WIFI, 1, 1),         # reset on update
            (3, Action.WIFI_THEN_3G, 0, 1), # 3G always updates
            (3, Action.WIFI, 0, 4),
            (1, Action.INACTIVE, 1, 2),
        ],
    )
    def test_transitions(self, age, action, contact, expected):
        assert next_age(age, action, contact, 12) == expected

    @given(
        st.integers(1, 20),
        st.sampled_from([Action.INACTIVE, Action.WIFI, Action.WIFI_THEN_3G]),
        st.sampled_from([0, 1]),
    )
    def test_range_preserved(self, age, action, contact):
        assert 1 <= next_age(age, action, contact, 20) <= 20


class TestPolicy:
    def test_two_threshold_layout(self):
        pol = Policy.from_thresholds(3, 5, 6)
        assert [int(a) for a in pol.actions] == [0, 0, 1, 1, 2, 2]

    def test_always_inactive_encoding(self):
        pol = Policy.from_thresholds(7, 7, 6)
        assert all(a is Action.INACTIVE for a in pol.actions)

    def test_no_3g(self):
        pol = Policy.from_thresholds(2, None, 4)
        assert not pol.uses_3g()
        assert [int(a) for a in pol.actions] == [0, 1, 1, 1]

    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError):
            Policy.from_thresholds(5, 3, 6)

    def test_from_thresholds_equals_the_per_age_rule(self):
        for M in range(2, 21):
            for s in range(1, M + 2):
                for s_3g in [None, *range(s, M + 2)]:
                    rule = threshold_action(s, s_3g)
                    expected = tuple(rule(age) for age in range(1, M + 1))
                    actions = Policy.from_thresholds(s, s_3g, M).actions
                    assert actions == expected
                    assert all(type(a) is Action for a in actions)

    def test_action_codes_checked(self):
        assert Policy((0, True, np.int64(2), Action.WIFI)).actions == (
            Action.INACTIVE, Action.WIFI, Action.WIFI_THEN_3G, Action.WIFI)
        for bad in (3, -1, "1", None, [1]):
            with pytest.raises(ValueError):
                Policy((0, bad))


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text(
            "# reference setup\np = 0.54\nM = 12\nG = 0.99\nP = 0\nP3G = inf\nB = 0\n"
            "utility.form = linear\n"
        )
        params = load_params(cfg)
        assert params.contact_prob == 0.54
        assert params.max_age == 12
        assert params.scan_cost == 0.99
        assert not params.has_3g

    def test_step_form_and_finite_3g(self):
        params = params_from_mapping(
            {"p": "0.5", "M": "21", "G": "6", "P": "10", "P3G": "12", "B": "2",
             "utility.form": "step", "utility.v": "12", "utility.k": "3"}
        )
        assert params.utility.values[2] == 12 and params.utility.values[3] == 0
        assert params.price_3g == 12.0

    def test_missing_key_reported(self):
        with pytest.raises(ValueError, match="'p'"):
            params_from_mapping({"M": "12"})

    def test_readme_example_config_solves(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```[^\n]*\n(.*?)```", readme, re.S)
        example = next(b for b in blocks if b.startswith("# params.cfg"))
        cfg = tmp_path / "params.cfg"
        cfg.write_text(example)
        assert main(["solve", "--config", str(cfg)]) == 0
        assert "s,1" in capsys.readouterr().out


class TestToleranceHome:
    """Every tie and slack rule reads its tolerance from ``model`` when it runs:
    each instance below has a gap g with 0 < g < the tolerance, so it ties at
    the default and splits once the tolerance is patched below g."""

    def test_threshold_optima_tie(self, monkeypatch):
        # 3e-9 below the never-activate boundary G = 33 of Linear(12) at p = 0.5
        params = linear_params(p=0.5, scan_cost=33.0 - 3e-9)
        rewards = threshold_reward_curve(params)
        gaps = rewards.max() - rewards[10:]
        assert 0 < gaps[gaps > 0].min() <= gaps.max() < model.TIE_TOL
        assert optimal_threshold(params).all_optima == (11, 12, 13)
        assert enumerate_optimal_thresholds(params) == ((11, 12, 13), True)
        monkeypatch.setattr(model, "TIE_TOL", gaps[gaps > 0].min() / 2)
        assert optimal_threshold(params).all_optima == (11,)
        assert enumerate_optimal_thresholds(params) == ((11,), False)

    def test_bonus_edge_merge(self, monkeypatch):
        params = SystemParams(contact_prob=0.5, max_age=8, scan_cost=0.5, wifi_price=4.0,
                              utility=UtilityFunction.tabular([1, 1, 2**-33, 0, 0, 0, 0, 0]))
        base, slope = chain.threshold_reward_affine(params)
        drops = -np.diff(np.minimum.accumulate(np.diff(base) / -np.diff(slope)))
        gap = drops[drops < model.TIE_TOL].max()   # about 2**-32; a smaller one is float noise
        assert 0 < gap
        merged = bonus_edges(params)
        assert np.unique(merged).size == 4   # inf, 4.5, 3 and -inf
        monkeypatch.setattr(model, "TIE_TOL", gap / 2)
        assert np.unique(bonus_edges(params)).size == 5

    def test_two_threshold_pick(self, monkeypatch):
        # 3G-only family: s_3G = 1 earns 2**-32 more than s_3G = 2
        params = SystemParams(contact_prob=0.5, max_age=4, wifi_price=10.0, price_3g=9.0,
                              utility=UtilityFunction.tabular([10.5, 1 - 2**-31, 0, 0]))
        only_3g = chain.reward_curve_3g_only(params)
        assert 0 < only_3g[0] - only_3g[1] < model.TIE_TOL
        assert optimal_two_thresholds(params).s_3g == 2
        monkeypatch.setattr(model, "TIE_TOL", (only_3g[0] - only_3g[1]) / 2)
        assert optimal_two_thresholds(params).s_3g == 1

    def test_greedy_action_tie(self, monkeypatch):
        params = linear_params(p=0.5)
        value = ValueFunction(values=np.append(0.0, np.full(11, -(2.0**-31))), gain=0.0)
        f0, f1, _ = bellman_values(1, value, params)
        assert 0 < f1 - f0 < model.TIE_TOL
        assert greedy_policy(value, params).actions == (Action.INACTIVE,) * 12
        monkeypatch.setattr(model, "TIE_TOL", (f1 - f0) / 2)
        assert greedy_policy(value, params).actions == (Action.WIFI,) * 12

    def test_trace_threshold_slack(self, monkeypatch):
        means = [1.0, 1.0 + 2**-42, 0.5]
        assert 0 < means[1] - means[0] < model.SLACK_TOL
        assert tracesim._best_threshold(means) == (1, 1.0)
        monkeypatch.setattr(model, "SLACK_TOL", 2**-43)
        assert tracesim._best_threshold(means) == (2, means[1])

    def test_utility_rise_rejected_at_any_slack_and_bonus_cap_slack(self, monkeypatch):
        # a utility takes no slack: a rise of one ulp is rejected whatever
        # SLACK_TOL is, while a bonus past its cap by less than it passes
        rise, over = [1.0, float(np.nextafter(1.0, 2.0)), 0.0], 1.0 + 2**-44
        assert 0 < over - 1.0 < model.SLACK_TOL
        linear_params(wifi_price=1.0, bonus=over)
        for slack in (model.SLACK_TOL, 1.0):
            monkeypatch.setattr(model, "SLACK_TOL", slack)
            with pytest.raises(ValueError, match=r"non-increasing: u\(2\) = 1\.0000000000000002 > "):
                UtilityFunction.tabular(rise)
        monkeypatch.setattr(model, "SLACK_TOL", 2**-45)
        with pytest.raises(ValueError, match="bonus"):
            linear_params(wifi_price=1.0, bonus=over)

    def test_no_rule_takes_its_own_tolerance(self):
        for rule in (optimal_threshold, step_utility_threshold, enumerate_optimal_thresholds,
                     multi_optimum_condition, optimal_two_thresholds, greedy_policy):
            assert "tie_tol" not in inspect.signature(rule).parameters
        assert list(inspect.signature(lambert_w).parameters) == ["x"]
        assert not hasattr(chain, "TIE_TOL") and not hasattr(solver, "ACTION_TIE_TOL")


FIVE = SystemParams(contact_prob=0.5, max_age=5, utility=UtilityFunction.linear(5))


def costs(**fields):
    return SystemParams(**{"contact_prob": 0.5, "max_age": 5, "utility": UtilityFunction.linear(5),
                           "scan_cost": 0.5, "wifi_price": 1.0, **fields})


def unparsable(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text("M = 5\np 0.5\n")
    return read_mapping(path)


@pytest.mark.parametrize("call, message", [
    (lambda tmp: UtilityFunction(values=()), "utility needs at least one age, got ()"),
    (lambda tmp: UtilityFunction.step(-1.0, 3, 5), "step value must be nonnegative, got -1.0"),
    (lambda tmp: costs(scan_cost=-1.0), "costs must be nonnegative, got G=-1.0, P=1.0"),
    (lambda tmp: costs(price_3g=-2.0), "3G price must be nonnegative, got -2.0"),
    (lambda tmp: SystemParams(contact_prob=0.5, max_age=5, utility=UtilityFunction.linear(4)),
     "utility covers ages 1..4, expected 1..5"),
    (lambda tmp: instantaneous_reward(FIVE, 0, Action.WIFI, 1), "age 0 outside [1, 5]"),
    (lambda tmp: instantaneous_reward(FIVE, 1, Action.WIFI, 2), "contact indicator must be 0 or 1, got 2"),
    (lambda tmp: next_age(6, Action.WIFI, 1, 5), "age 6 outside [1, 5]"),
    (lambda tmp: Policy.from_thresholds(2, None, 5).action_at(6), "age 6 outside [1, 5]"),
    (lambda tmp: Policy.from_thresholds(0, None, 5), "WiFi threshold 0 outside [1, 6]"),
    (lambda tmp: params_from_mapping({"M": "5", "p": "0.5", "utility.form": "cubic"}),
     "unknown utility form 'cubic'"),
    (unparsable, "params.txt:2: expected 'key = value', got 'p 0.5'"),
], ids=["no-ages", "step-value", "costs", "3g-price", "utility-ages", "reward-age", "contact", "next-age",
        "action-age", "wifi-threshold", "utility-form", "mapping-line"])
def test_input_checks_name_the_bad_value(tmp_path, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tmp_path)
