"""Closed-form chain analytics against the exact matrix oracles, the exact
rational oracle ``reference_exact`` and a seeded Monte Carlo oracle."""
import inspect
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agectl import (
    Action,
    Policy,
    SystemParams,
    UtilityFunction,
    chain_summary,
    expected_age,
    expected_age_3g_only,
    expected_reward_3g_only,
    expected_reward_threshold,
    expected_reward_two_threshold,
    instantaneous_reward,
    optimal_two_thresholds,
    steady_state_exact,
    steady_state_threshold,
    summary_for_threshold,
    threshold_reward_curve,
    transition_matrix,
)
from agectl.chain import (
    BLOCK_CELLS, _Panels, cycle_lengths, expected_reward_vector, reward_curve_3g_only, threshold_ages,
    threshold_reward_affine, two_threshold_reward_grid,
)
from agectl import chain
from agectl.model import TIE_TOL

from conftest import (
    C_CLOSED, C_MATRIX, EPS, make_rng, random_3g_params, random_wifi_params, reference_exact,
    reference_replay, reward_bound, system_params, threshold_action, tie_heavy_params,
    ulp_step_params,
)

#: numpy's AVX-512 dispatch groups, as ``NPY_DISABLE_CPU_FEATURES`` names them
AVX512_GROUPS = "X86_V4 AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR"


def linear_params(max_age=12, p=0.54, **kw):
    return SystemParams(
        contact_prob=p, max_age=max_age, utility=UtilityFunction.linear(max_age), **kw
    )


class TestSteadyState:
    def test_simple_value(self):
        pi = steady_state_threshold(1, 0.5, 4)
        assert pi[0] == pytest.approx(0.5)  # 1/(1 + (1-p)/p) with (1-p)/p = 1

    def test_closed_form_solves_balance_equations(self):
        rng = make_rng(101)
        for _ in range(100):
            M = int(rng.integers(2, 40))
            s = int(rng.integers(1, M + 1))
            p = float(rng.uniform(0.05, 0.95))
            pi = steady_state_threshold(s, p, M)
            pol = Policy.from_thresholds(s, None, M)
            params = SystemParams(contact_prob=p, max_age=M, utility=UtilityFunction.linear(M))
            mat = transition_matrix(pol, params)
            assert np.max(np.abs(pi @ mat - pi)) < 1e-12
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pi >= 0)

    def test_matches_linear_solve(self):
        params = linear_params()
        pi = steady_state_threshold(4, 0.54, 12)
        exact = steady_state_exact(Policy.from_thresholds(4, None, 12), params)
        assert np.max(np.abs(pi - exact)) < 1e-12
        assert pi[0] == pytest.approx(0.20610687022900762)

    def test_geometric_tail_shape(self):
        s, p, M = 2, 0.9, 6
        pi = steady_state_threshold(s, p, M)
        assert pi[0] == pi[1]
        assert pi[2] == pytest.approx(pi[1] * 0.1)
        assert pi[M - 1] == pytest.approx(pi[M - 2] * 0.1 / 0.9)

    def test_always_inactive_rejected(self):
        with pytest.raises(ValueError):
            steady_state_threshold(13, 0.54, 12)


class TestExpectedReward:
    def test_always_inactive_is_zero(self):
        assert expected_reward_threshold(linear_params(), 13) == 0.0

    def test_matches_oracle_gain(self):
        rng = make_rng(202)
        for _ in range(100):
            params = random_wifi_params(rng)
            s = int(rng.integers(1, params.max_age + 2))
            pol = Policy.from_thresholds(s, None, params.max_age)
            oracle = chain_summary(pol, params)
            assert expected_reward_threshold(params, s) == pytest.approx(
                oracle.gain, abs=1e-10
            )

    def test_step_tie_fixture(self):
        params = SystemParams(
            contact_prob=0.5, max_age=21, utility=UtilityFunction.step(12, 3, 21),
            scan_cost=6.0,
        )
        assert expected_reward_threshold(params, 2) == pytest.approx(6.0)
        assert expected_reward_threshold(params, 3) == pytest.approx(6.0)

    def test_monte_carlo_agreement(self):
        # seeded Monte Carlo oracle: independent replay of a long iid string
        params = linear_params(scan_cost=0.99)
        rng = make_rng(303)
        slots = (rng.random(10**6) < params.contact_prob).astype(int)
        rewards = np.asarray(reference_replay(slots, params, threshold_action(1)))
        se = rewards.std() / np.sqrt(len(rewards))
        assert abs(rewards.mean() - expected_reward_threshold(params, 1)) < 3 * se

    def test_decreasing_in_costs_increasing_in_bonus(self):
        rng = make_rng(404)
        for _ in range(30):
            params = random_wifi_params(rng)
            if params.wifi_price == 0:
                continue
            s = int(rng.integers(1, params.max_age + 1))
            base = expected_reward_threshold(params, s)
            from dataclasses import replace

            assert expected_reward_threshold(replace(params, scan_cost=params.scan_cost + 1), s) < base
            assert expected_reward_threshold(replace(params, wifi_price=params.wifi_price + 1), s) < base
            shrunk = replace(params, bonus=params.bonus / 2)
            assert expected_reward_threshold(shrunk, s) <= base

    def test_affine_decomposition_in_bonus(self):
        rng = make_rng(505)
        for _ in range(20):
            params = random_wifi_params(rng)
            base, slope = threshold_reward_affine(params)
            got = base + params.bonus * slope
            assert np.allclose(got, threshold_reward_curve(params), atol=1e-12)

    def test_curve_matches_oracle_gain(self):
        # the matrix oracle's gain at every threshold, never activating included,
        # within an absolute 1e-10; the worst gap on these draws is 2.3e-13 at
        # rewards up to 54
        rng = make_rng(507)
        for _ in range(40):
            params = random_wifi_params(rng, m_range=(2, 60))
            M = params.max_age
            oracle = [chain_summary(Policy.from_thresholds(s, None, M), params).gain
                      for s in range(1, M + 2)]
            assert np.allclose(threshold_reward_curve(params), oracle, rtol=0.0, atol=1e-10)

    def test_unimodality_over_random_instances(self):
        rng = make_rng(606)
        for _ in range(200):
            params = random_wifi_params(rng)
            curve = threshold_reward_curve(params)
            s_star = int(np.argmax(curve)) + 1
            diffs = np.diff(curve)
            assert np.all(diffs[: s_star - 1] >= -1e-9)
            assert np.all(diffs[s_star - 1 :] <= 1e-9)


def exact_tails_in_ulps(u, q, tails):
    """|tails[s-1] - sum_i u(s+i) q^i| in ulps of tails[s-1] for every s, the
    exact sums by integer Horner: with q = a / 2^e and u = U / D over one
    denominator, T_s = t_s / (D 2^(e (M - s))) where t_s = U_s 2^(e (M - s)) +
    a t_(s+1)."""
    a, b = q.as_integer_ratio()
    e = b.bit_length() - 1
    fracs = [Fraction(x) for x in u]
    D = math.lcm(*(f.denominator for f in fracs))
    U = [f.numerator * (D // f.denominator) for f in fracs]
    M, t, errors = len(u), 0, []
    for s in range(M - 1, -1, -1):
        den = D << (e * (M - 1 - s))
        t = U[s] * (den // D) + a * t
        got = float(tails[s])
        got_num, got_den = got.as_integer_ratio()
        gap = abs(got_num * den - t * got_den)
        errors.append(gap / (got_den * den) / math.ulp(got) if gap else 0.0)
    return errors[::-1]


#: the measured worst error of the tails, in ulps, at 1,000 ages: the pins of
#: ``chain._tails``' docstring
TAILS_ULPS = {0.95: 1.0, 0.5: 1.0, 0.05: 44.0, 1e-3: 44.0, 1e-6: 44.0}


class TestRewardTails:
    @pytest.mark.parametrize("p", TAILS_ULPS)
    def test_within_the_stated_bound_of_the_exact_sums(self, p):
        # Horner's rule over nonnegative terms: the relative error of a tail
        # of n terms is at most gamma_2n = 2n u / (1 - 2n u), u = EPS / 2
        M, q = 1000, 1.0 - p
        rng = make_rng(4601)
        values = np.append(np.sort(rng.uniform(0.0, 10.0, M - 1))[::-1], 0.0)
        for utility in (UtilityFunction.linear(M), UtilityFunction.step(7.3, 400, M),
                        UtilityFunction.tabular(values)):
            tails = chain._tails(utility.values, q)
            ulps = exact_tails_in_ulps(utility.values, q, tails)
            assert max(ulps) <= TAILS_ULPS[p], (utility.form, max(ulps))
            for s, (tail, err) in enumerate(zip(tails, ulps), start=1):
                n = M - s + 1
                assert err * math.ulp(tail) <= n * EPS / (1 - n * EPS) * tail, (utility.form, s)


def curve_digest(draws=1200, seed=4602):
    """sha-256 of the bytes of the WiFi curve's base and slope and of its bonus
    edges over seeded draws: M log-uniform in [8, 1000], p in [0.05, 0.95],
    the three utility forms in turn, and a bonus on every other draw.  Needs
    only numpy and agectl, so a child interpreter can run its source."""
    import hashlib
    import math

    import numpy as np

    from agectl import SystemParams, UtilityFunction
    from agectl.chain import threshold_reward_affine
    from agectl.thresholds import bonus_edges

    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for i in range(draws):
        M = int(round(math.exp(rng.uniform(math.log(8), math.log(1000)))))
        if i % 3 == 0:
            utility = UtilityFunction.linear(M)
        elif i % 3 == 1:
            utility = UtilityFunction.step(float(rng.uniform(0.5, 10.0)), int(rng.integers(1, M + 1)), M)
        else:
            utility = UtilityFunction.tabular(np.sort(rng.uniform(0.0, 10.0, M))[::-1])
        scale = max(utility.values[0] / 10.0, 0.1)
        price = float(rng.uniform(0.0, 5.0)) * scale
        params = SystemParams(
            contact_prob=float(rng.uniform(0.05, 0.95)), max_age=M, utility=utility,
            scan_cost=float(rng.uniform(0.0, 3.0)) * scale, wifi_price=price,
            bonus=float(rng.uniform(0.0, price)) if i % 2 else 0.0,
        )
        for part in (*threshold_reward_affine(params), bonus_edges(params)):
            digest.update(part.tobytes())
    return digest.hexdigest()


def test_curve_bits_do_not_depend_on_numpy_cpu_dispatch():
    """The WiFi curve and its bonus edges have the same bytes with numpy's
    AVX-512 kernels on and off: the tails are a fixed-order recurrence, and the
    heads' cumsum, the slope and the edges are elementwise or sequential.
    Kernels that still follow the dispatch, and so are not hashed here:
    ``np.expm1``/``np.log1p`` in ``chain.threshold_ages`` and in
    ``chain._Panels``' reach, and numpy's ``**`` in ``_Panels``' powers of q.
    On a CPU without AVX-512 the two runs match trivially."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:   # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("AVX512_SKX"):
        warnings.warn("no AVX-512 on this CPU: the dispatch runs match trivially", UserWarning)
    script = "\n".join((inspect.getsource(curve_digest), "print(curve_digest())"))
    src = str(Path(chain.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_GROUPS,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, "-W", "ignore::ImportWarning", "-c", script], env=env,
                           capture_output=True, text=True, check=True)
    assert child.stdout.strip() == curve_digest()


class TestExpectedAge:
    def test_high_p_limit_is_half_cycle(self):
        # near-deterministic contacts: age cycles 1..s, mean (s+1)/2
        for s in (1, 3, 7):
            assert expected_age(s, 0.999999, 20) == pytest.approx((s + 1) / 2, abs=1e-4)

    def test_matches_pi_weighted_age(self):
        rng = make_rng(707)
        for _ in range(100):
            M = int(rng.integers(2, 40))
            s = int(rng.integers(1, M + 1))
            p = float(rng.uniform(0.05, 0.95))
            pi = steady_state_threshold(s, p, M)
            ages = np.arange(1, M + 1)
            assert expected_age(s, p, M) == pytest.approx(float(pi @ ages), abs=1e-10)

    def test_strictly_increasing_in_threshold(self):
        ages = [expected_age(s, 0.5, 21) for s in range(1, 22)]
        assert all(a < b for a, b in zip(ages, ages[1:]))

    @pytest.mark.parametrize("p", [0.5, 1e-3, 1e-9, 1e-20, 1e-300, 1 - 2**-53])
    def test_matches_exact_stationary_mean_at_any_p(self, p):
        # 1 - q^(M-s) cancels as p -> 0 unless taken through expm1/log1p
        for M in (2, 7, 12):
            params = linear_params(max_age=M, p=p)
            for s in range(1, M + 2):
                exact = reference_exact(Policy.from_thresholds(s, None, M), params).age
                assert abs(Fraction(expected_age(s, p, M)) - exact) <= exact * Fraction(1e-15), (s, M)


class TestTwoThreshold:
    def g3_params(self, **kw):
        defaults = dict(
            contact_prob=0.5, max_age=10, utility=UtilityFunction.linear(10),
            scan_cost=1.0, wifi_price=2.0, price_3g=20.0,
        )
        defaults.update(kw)
        return SystemParams(**defaults)

    def test_collapsed_band_equals_3g_only_form(self):
        params = self.g3_params()
        for s in range(1, 11):
            assert expected_reward_two_threshold(params, s, s) == pytest.approx(
                expected_reward_3g_only(params, s), abs=1e-12
            )

    def test_3g_only_curve_matches_oracle_gain(self):
        # the matrix route solves the periodic chain; on these draws (rewards up
        # to about 55) it agrees to 1e-14, and 1e-10 absolute leaves room for
        # the linear solve's rounding over M <= 60 states
        rng = make_rng(807)
        for _ in range(20):
            params = random_3g_params(rng, m_range=(2, 60))
            M = params.max_age
            oracle = [chain_summary(Policy.from_thresholds(s, s, M), params).gain
                      for s in range(1, M + 1)]
            assert np.allclose(reward_curve_3g_only(params), oracle, rtol=0.0, atol=1e-10)

    def test_matches_oracle_gain(self):
        rng = make_rng(808)
        params = self.g3_params()
        for _ in range(50):
            s3 = int(rng.integers(1, 11))
            sw = int(rng.integers(1, s3 + 1))
            pol = Policy.from_thresholds(sw, s3, 10)
            assert expected_reward_two_threshold(params, sw, s3) == pytest.approx(
                chain_summary(pol, params).gain, abs=1e-10
            )

    def test_monte_carlo_agreement(self):
        params = self.g3_params()
        rng = make_rng(909)
        slots = (rng.random(10**6) < params.contact_prob).astype(int)
        rewards = np.asarray(reference_replay(slots, params, threshold_action(3, 7)))
        se = rewards.std() / np.sqrt(len(rewards))
        assert abs(rewards.mean() - expected_reward_two_threshold(params, 3, 7)) < 3 * se

    def test_escalation_term_vanishes_at_pivot(self):
        # price_3g = G/p + P kills the (P3G - P - G/p) coefficient
        params = self.g3_params(price_3g=1.0 / 0.5 + 2.0)
        for sw, s3 in ((1, 1), (2, 5), (4, 9)):
            policy = Policy.from_thresholds(sw, s3, 10)
            exact = reference_exact(policy, params)
            error = abs(Fraction(expected_reward_two_threshold(params, sw, s3)) - exact.gain)
            assert error <= reward_bound(C_CLOSED, exact, params), (sw, s3)

    def test_s3g_beyond_max_age_rejected(self):
        with pytest.raises(ValueError):
            expected_reward_two_threshold(self.g3_params(), 2, 11)

    def test_3g_only_age(self):
        assert expected_age_3g_only(1, 12) == 1.0
        assert expected_age_3g_only(5, 12) == 3.0
        assert expected_age_3g_only(13, 12) == 12.0


def grid_pairs(params):
    """Every (s_wifi, s_3g) pair up to M = 12.  Above that a seeded sample,
    plus the first and last row of every row block, each at its diagonal and
    at the last column, and the search's pick."""
    M = params.max_age
    if M <= 12:
        return [(sw, s3) for s3 in range(1, M + 1) for sw in range(1, s3 + 1)]
    rows = max(1, BLOCK_CELLS // M)
    edges = {r for r0 in range(1, M + 1, rows) for r in (r0, min(r0 + rows, M + 1) - 1)}
    pairs = {(sw, s3) for sw in edges for s3 in (sw, M)}
    pick = optimal_two_thresholds(params)
    if pick.s_3g <= M:
        pairs.add((pick.s_wifi, pick.s_3g))
    rng = make_rng(M)
    for s3 in rng.integers(1, M + 1, size=8).tolist():
        pairs.add((int(rng.integers(1, s3 + 1)), s3))
    return sorted(pairs)


class TestTwoThresholdGrid:
    """The grid, assembled from its row blocks, against the exact oracle."""

    @staticmethod
    def assert_matches_exact(params):
        M = params.max_age
        grid = two_threshold_reward_grid(params)
        assert grid.shape == (M, M)
        assert np.all(grid[np.tril_indices(M, -1)] == -np.inf)
        for sw, s3 in grid_pairs(params):
            policy = Policy.from_thresholds(sw, s3, M)
            exact = reference_exact(policy, params)
            error = abs(Fraction(grid[sw - 1, s3 - 1]) - exact.gain)
            assert error <= reward_bound(C_CLOSED, exact, params), (sw, s3)

    @given(system_params(with_3g=True))
    def test_matches_exact_oracle(self, params):
        self.assert_matches_exact(params)

    @pytest.mark.parametrize("M", [257, 300])
    def test_matches_exact_oracle_across_row_blocks(self, M):
        assert BLOCK_CELLS // M < M, "the grid must span more than one row block"
        rng = make_rng(M)
        values = sorted(rng.uniform(0.0, 10.0, size=M).tolist(), reverse=True)
        params = SystemParams(
            contact_prob=0.05, max_age=M, utility=UtilityFunction.tabular(values),
            scan_cost=0.3, wifi_price=1.0, price_3g=12.0, bonus=0.25,
        )
        self.assert_matches_exact(params)

    @pytest.mark.parametrize("p", [1e-3, 1e-6, 1e-9, 1e-12, 1e-20])
    def test_exact_at_tiny_p(self, p):
        # (1 - q^(j + 1)) / p cancelled as p -> 0: 2.2e-5 relative at 1e-12, a
        # division by zero at 1e-20
        params = linear_params(max_age=10, p=p, scan_cost=0.3 * p, wifi_price=0.2,
                               price_3g=5.0, bonus=0.1)
        self.assert_matches_exact(params)

    @pytest.mark.parametrize("p", [1e-3, 1e-6, 1e-9, 1e-12, 1e-20])
    def test_relative_error_does_not_grow_with_scan_cost_over_p(self, p):
        # the cells subtracted G/p twice and added it back times q^(j + 1):
        # 7.9e-6 relative at p = 1e-12 with G = 1, inside a bound that grows
        # with G/p; G times the expected active slots keeps them relatively
        # exact, here within 3 eps
        params = linear_params(max_age=10, p=p, scan_cost=1.0, wifi_price=0.2,
                               price_3g=5.0, bonus=0.1)
        grid = two_threshold_reward_grid(params)
        for sw, s3 in grid_pairs(params):
            exact = reference_exact(Policy.from_thresholds(sw, s3, 10), params)
            error = abs(Fraction(grid[sw - 1, s3 - 1]) - exact.gain)
            assert error <= C_CLOSED * 10 * EPS * abs(exact.gain), (sw, s3)

    @given(system_params(with_3g=True), st.integers(1, 9), st.integers(1, 12), st.data())
    def test_row_blocks_hold_the_grid_bits(self, params, rows, spans, data):
        # any rows x spans panel from any first row on holds the dense grid's
        # bytes, -inf past max_age: walked block by block from span 0, the
        # panels cover each cell of those rows once; narrowed to fewer rows
        # from one panel to the next, as the search reads them, they carry
        # each row's running sum across panels
        M = params.max_age
        first = data.draw(st.integers(0, M - 1))
        grid = np.column_stack((two_threshold_reward_grid(params), np.full((M, M), -np.inf)))
        panels = _Panels(params)

        def read(lo, hi, j0):   # the panel, checked against R[lo + k, lo + k + j0 + t] at [t, k]
            panel = panels(lo, hi, j0, min(spans, M - lo - j0))
            k = lo + np.arange(panel.shape[1])
            cells = k + j0 + np.arange(len(panel))[:, None]
            assert panel.tobytes() == grid[k, cells].tobytes()
            return k, cells, len(panel)

        covered = np.zeros((M, 2 * M), int)
        for r0 in range(first, M, rows):
            for j0 in range(0, M - r0, spans):
                k, cells, _ = read(r0, min(r0 + rows, M - j0), j0)
                covered[k, cells] += 1
        assert np.array_equal(covered[first:, :M], np.triu(np.ones((M, M), int))[first:])

        lo, hi, j0 = first, M, 0
        while lo < hi:
            j0 += read(lo, hi, j0)[2]
            lo = data.draw(st.integers(lo, hi - 1))
            hi = min(data.draw(st.integers(lo + 1, hi)), M - j0)

    @given(system_params(with_3g=True), st.integers(1, 80))
    def test_3g_only_curve_is_the_grids_diagonal(self, params, block_cells):
        # one one-span panel over every row, whatever the cap: the buffer
        # holds a whole column, and the curve is copied out of it
        with mock.patch.object(chain, "BLOCK_CELLS", block_cells):
            curve = reward_curve_3g_only(params)
        assert curve.flags.owndata
        assert curve.tobytes() == np.diag(two_threshold_reward_grid(params)).tobytes()

    @settings(max_examples=134)   # the quarter on one-ulp utilities comes on top
    @given(st.one_of(system_params(with_3g=True), system_params(max_age=300, with_3g=True),
                     tie_heavy_params(), ulp_step_params()))
    def test_rows_are_quasi_concave(self, params):
        # the search retires a row at its first panel that brings no new
        # strict maximum; no cell after the row's first one that fails to rise
        # may top the cells before it by more than TIE_TOL
        grid = two_threshold_reward_grid(params)
        for r, row in enumerate(grid):
            row = row[r:]
            best = np.maximum.accumulate(row)
            stalls = np.flatnonzero(row[1:] <= best[:-1])
            if stalls.size:
                k = stalls[0] + 1
                assert row[k:].max() <= best[k - 1] + TIE_TOL, (r, k)


class TestDegenerateSummary:
    def test_always_inactive_summary(self):
        summary = summary_for_threshold(linear_params(), 13)
        assert summary.gain == 0.0
        assert summary.age == 12.0
        assert summary.update_rate == 0.0

    def test_matches_oracle_at_every_threshold(self):
        rng = make_rng(808)
        for _ in range(20):
            params = random_wifi_params(rng, m_range=(2, 40))
            M = params.max_age
            for s in range(1, M + 2):
                summary = summary_for_threshold(params, s)
                oracle = chain_summary(Policy.from_thresholds(s, None, M), params)
                assert summary.gain == pytest.approx(oracle.gain, rel=0.0, abs=1e-10), s
                assert summary.age == pytest.approx(oracle.age, rel=1e-10), s
                assert summary.update_rate == pytest.approx(oracle.update_rate, rel=0.0, abs=1e-12), s

    @pytest.mark.parametrize("s", [0, -1, 14])
    def test_threshold_outside_range_rejected(self, s):
        # a negative index would read the vector forms from the end
        params = linear_params()
        with pytest.raises(ValueError):
            summary_for_threshold(params, s)
        with pytest.raises(ValueError):
            expected_reward_threshold(params, s)
        with pytest.raises(ValueError):
            expected_age(s, params.contact_prob, params.max_age)

    def test_update_rate_equals_pi1(self):
        params = linear_params()
        summary = summary_for_threshold(params, 4)
        assert summary.update_rate == pytest.approx(0.20610687022900762)
        oracle = chain_summary(Policy.from_thresholds(4, None, 12), params)
        assert summary.update_rate == pytest.approx(oracle.update_rate, abs=1e-12)


P_RANGES = ((0.001, 0.05), (0.05, 0.95), (0.95, 0.999))


class TestExactOracle:
    """``reference_exact`` checked against the transition law, then each float
    route held to its rounding bound against it at M <= 60."""

    def test_law_balances_the_transition_law(self):
        # any policy, threshold-shaped or not, 3G below an inactive M included
        rng = make_rng(1001)
        for _ in range(150):
            params = random_3g_params(rng, m_range=(2, 12), p_range=P_RANGES[1])
            M, p = params.max_age, Fraction(params.contact_prob)
            policy = Policy(tuple(rng.integers(0, 3, size=M).tolist()))
            exact = reference_exact(policy, params)
            pi = exact.pi
            inflow = [Fraction(0)] * M
            for x, (mass, a) in enumerate(zip(pi, policy.actions), start=1):
                reset = {Action.INACTIVE: 0, Action.WIFI: p, Action.WIFI_THEN_3G: 1}[a]
                inflow[0] += mass * reset
                inflow[min(x + 1, M) - 1] += mass * (1 - reset)
            assert inflow == list(pi) and sum(pi) == 1
            assert exact.age == sum(x * m for x, m in enumerate(pi, start=1))
            wifi = [m for m, a in zip(pi, policy.actions) if a is not Action.INACTIVE]
            assert exact.wifi_rate == p * sum(wifi)
            escalating = [m for m, a in zip(pi, policy.actions) if a is Action.WIFI_THEN_3G]
            assert exact.rate_3g == (1 - p) * sum(escalating)
            slot = [float(p) * instantaneous_reward(params, x, a, 1)
                    + float(1 - p) * instantaneous_reward(params, x, a, 0)
                    for x, a in enumerate(policy.actions, start=1)]
            assert float(exact.gain) == pytest.approx(float(np.dot(pi, slot)), rel=1e-12, abs=1e-12)

    def test_threshold_forms(self):
        # reward curve, age and update rate at every threshold, never included
        rng = make_rng(1002)
        for i in range(12):
            params = random_wifi_params(rng, m_range=(2, 60), p_range=P_RANGES[i % 3])
            M, p = params.max_age, params.contact_prob
            curve, ages = threshold_reward_curve(params), threshold_ages(p, M)
            rates = 1.0 / cycle_lengths(p, M)
            relative = C_CLOSED * M * EPS
            for s in range(1, M + 2):
                policy = Policy.from_thresholds(s, None, M)
                exact = reference_exact(policy, params)
                bound = reward_bound(C_CLOSED, exact, params)
                assert abs(Fraction(curve[s - 1]) - exact.gain) <= bound, (i, s)
                assert abs(Fraction(ages[s - 1]) - exact.age) <= relative * exact.age, (i, s)
                assert abs(Fraction(rates[s - 1]) - exact.wifi_rate) <= relative * exact.wifi_rate

    def test_3g_only_forms(self):
        rng = make_rng(1003)
        for i in range(12):
            params = random_3g_params(rng, m_range=(2, 60), p_range=P_RANGES[i % 3])
            M = params.max_age
            curve = reward_curve_3g_only(params)
            for s in range(1, M + 1):
                policy = Policy.from_thresholds(s, s, M)
                exact = reference_exact(policy, params)
                bound = reward_bound(C_CLOSED, exact, params)
                assert abs(Fraction(curve[s - 1]) - exact.gain) <= bound, (i, s)
                assert Fraction(expected_age_3g_only(s, M)) == exact.age

    def test_matrix_route(self):
        # chain_summary solves pi P = pi by LU, whose rounding grows with the
        # chain's conditioning; hence its looser c
        rng = make_rng(1004)
        for i in range(12):
            params = random_3g_params(rng, m_range=(2, 60), p_range=P_RANGES[i % 3])
            M = params.max_age
            relative = C_MATRIX * M * EPS
            for s3 in rng.integers(1, M + 2, size=8).tolist():
                policy = Policy.from_thresholds(int(rng.integers(1, s3 + 1)), s3, M)
                exact = reference_exact(policy, params)
                summary = chain_summary(policy, params)
                bound = reward_bound(C_MATRIX, exact, params)
                assert abs(Fraction(summary.gain) - exact.gain) <= bound, (i, policy)
                assert abs(Fraction(summary.age) - exact.age) <= relative * exact.age
                rate = exact.wifi_rate + exact.rate_3g
                assert abs(Fraction(summary.update_rate) - rate) <= relative * rate


NO_3G = SystemParams(contact_prob=0.5, max_age=5, utility=UtilityFunction.linear(5), scan_cost=0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: steady_state_threshold(2, 1.0, 5), "p must be in (0, 1), got 1.0"),
    (lambda: expected_age(2, 0.0, 5), "p must be in (0, 1), got 0.0"),
    (lambda: reward_curve_3g_only(NO_3G), "3G-only policy needs a finite 3G price"),
    (lambda: expected_reward_two_threshold(NO_3G, 2, 3), "two-threshold policy needs a finite 3G price"),
    (lambda: two_threshold_reward_grid(NO_3G), "two-threshold grid needs a finite 3G price"),
    (lambda: transition_matrix(Policy.from_thresholds(2, None, 4), NO_3G),
     "policy and params disagree on max_age: 4 != 5"),
    (lambda: expected_reward_vector(Policy.from_thresholds(2, 3, 5), NO_3G),
     "policy uses action 2 but 3G is unavailable"),
], ids=["steady-state-p", "age-p", "3g-only", "two-threshold", "grid", "max-age", "action-2"])
def test_input_checks_name_the_bad_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
