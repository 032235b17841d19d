"""Core model: utilities, rewards, transitions, policies, config loading."""
import math
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
    instantaneous_reward,
    load_params,
    next_age,
    normalize_utility,
    params_from_mapping,
)
from agectl.cli import main

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

    def test_scaled_scan_cost(self):
        assert linear_params(scan_cost=0.99).scaled_scan_cost == pytest.approx(0.09)

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
