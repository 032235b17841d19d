"""The register of open defects: one strict expected failure per wrong answer
the package still gives.  Each test names the CHANGES.md FOUND line it
expresses by its first words, runs the input through ``cli.main`` or the
public API, and asserts the right answer, which comes from exact arithmetic
(``reference_exact`` over ``Fraction``s of the float inputs), never from the
program's output.  Each is marked ``xfail(strict=True, raises=AssertionError)``: a crash of another kind
is not taken for the known failure, and a fix that makes a test pass fails
the suite until the same change removes its marker.  Never mark an existing
test xfail, or move one here.

Open correctness FOUND lines that no test here expresses yet:

- "agectl solve --M 12 --p 0.54 --utility tabular --values (eleven 1e308,
  then 0) --P3G 4 exits 3 now": all-3G earns 1e308 - 1.84;
  ``test_cli``'s ``test_values_past_the_float_range_exit_3`` pins that exit.
- "in thresholds.optimal_two_thresholds, the grid-branch pick can miss the
  dense grid's pick": no entry, as the exact rewards show no wrong answer.
  M = 58, p = 6.841885299867121e-252, u = 2.091882089507471e300 at ages
  1-57 then 0, G = 1.963779157062056e120, P = 0.1561772480238904,
  P3G = 1.4718313058586867e28: the search gives (57, 57) at
  0x1.8fd3905aa812ap+997, the dense grid (4, 57) one ulp higher.  The
  exact best is (57, 57), the search's pick; (4, 57) trails it by 1.8e120,
  9e-181 of the reward and far inside the relative rounding bound of
  C_CLOSED * M roundings, 5.4e286 (``reward_bound``'s G/p, 2.9e371, is past
  the float range).  So the line is about the order in which float rewards
  within rounding are read, not about the answer.
- "float bonus edges (thresholds._edges) can be off the exact edge", at
  instances other than the two below.
"""
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest

from agectl import Policy, SystemParams, UtilityFunction, optimal_threshold, optimal_two_thresholds
from agectl.cli import _shared_parser, build_params, main

from conftest import C_CLOSED, EPS, reference_exact, reward_bound

open_defect = pytest.mark.xfail(strict=True, raises=AssertionError)


STEP_SWEEP = ["sweep", "--M", "40", "--p", "0.9", "--G", "3", "--P", "12", "--utility", "step",
              "--v", "1e308", "--k", "3", "--grid", "G=1e15,0.01,0"]
HUGE_SCAN_COST = {
    "M12": ["solve", "--M", "12", "--p", "0.54", "--G", "1e308"],
    "M2-tiny-p": ["solve", "--M", "2", "--p", "1e-9", "--G", "1e308", "--P", "3", "--B", "5e-324"],
}
SUBNORMAL_SWEEP = ["sweep", "--M", "3", "--p", "5e-324", "--G", "0.4", "--P", "40", "--grid", "B=0,1e-300,3"]
EXIT_3 = {
    # FOUND "agectl solve --utility tabular --values 1100000,...": one ulp of
    # values near 1e6 is above the absolute --tol
    "linear-times-1e5": ["solve", "--M", "12", "--p", "0.54", "--utility", "tabular", "--values",
                         "1100000,1000000,900000,800000,700000,600000,500000,400000,300000,200000,100000,0",
                         "--G", "99000"],
    # FOUND "agectl solve --M 12 --p 0.3 --G 1e-300 ... exits 3"
    "step-1e308": ["solve", "--M", "12", "--p", "0.3", "--utility", "step", "--v", "1e308", "--k", "3",
                   "--G", "1e-300"],
    # FOUND "agectl solve --M 2 --p 0.9999999999999999 ... exits 3"
    "p-near-1-huge-costs": ["solve", "--M", "2", "--p", "0.9999999999999999", "--G", "1e308", "--P", "1e308"],
}
HUGE_3G_ONLY = SystemParams(contact_prob=1e-300, max_age=7, utility=UtilityFunction.tabular([1e308] * 6 + [0.0]),
                            scan_cost=1e308, wifi_price=3.0, price_3g=1e308)
#: draws next to a float bonus edge off the exact one: ROADMAP's seed-1 and
#: seed-2 draws; the second bonus is the float edge 0x1.0624dd2f1a9e1p-10,
#: 27 ulps below P
EDGES = {
    "seed-1": SystemParams(contact_prob=1 / 128, max_age=2, utility=UtilityFunction.tabular([1.0, 0.0]),
                           scan_cost=1 / 128, wifi_price=0.65625, bonus=0.6562499999999929),
    "seed-2": SystemParams(contact_prob=1 / 64, max_age=2, utility=UtilityFunction.tabular([0.0, 0.0]),
                           scan_cost=0.0, wifi_price=0.001, bonus=float.fromhex("0x1.0624dd2f1a9e1p-10")),
}


def read_params(argv):
    return build_params(_shared_parser().parse_args(argv))


def run(capsys, argv):
    """``cli.main`` on ``argv``: its exit code, its data rows split at commas
    (no header comments, no column names), the RuntimeWarnings it raised and
    the params it read."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        code = main(argv)
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
    return code, rows, caught, read_params(argv)


def exact_gains(params, policies):
    return [reference_exact(policy, params).gain for policy in policies]


def thresholds_of(M):
    return [Policy.from_thresholds(s, None, M) for s in range(1, M + 2)]


def pairs_of(M):
    """Every two-threshold policy of M ages, (s_wifi, s_3g) in order."""
    return {(s, s_3g): Policy.from_thresholds(s, s_3g, M) for s in range(1, M + 2) for s_3g in range(s, M + 2)}


def exact_s_star(params):
    """The threshold of the largest exact reward, ties to the smaller one."""
    gains = exact_gains(params, thresholds_of(params.max_age))
    return gains.index(max(gains)) + 1


@open_defect
def test_step_1e308_sweep_picks_the_exact_threshold_at_zero_scan_cost(capsys):
    # FOUND "chain.threshold_reward_affine overflows in np.cumsum":
    # the heads' cumsum of 1e308 steps overflows, and s_star reads 2 at every
    # G, where the exact answer is 1
    code, rows, caught, params = run(capsys, STEP_SWEEP)
    assert code == 0 and rows[-1] == ["0", "1"]
    assert [int(s) for _, s in rows] == [exact_s_star(replace(params, scan_cost=float(g))) for g, _ in rows]
    assert not caught


@open_defect
@pytest.mark.parametrize("argv", HUGE_SCAN_COST.values(), ids=HUGE_SCAN_COST)
def test_closed_form_best_at_a_huge_scan_cost_is_the_exact_best(capsys, argv):
    # no FOUND line; ROADMAP's Baseline rows: G/p overflows and the closed
    # form reads -inf, but never activating earns exactly 0, the best reward
    code, rows, _, params = run(capsys, argv)
    fields = dict(rows)
    assert code == 0 and fields["s"] == str(params.max_age + 1)
    assert float(fields["closed_form_best"]) == 0.0 and float(fields["crosscheck_gain_minus_closed"]) == 0.0


@open_defect
def test_subnormal_p_sweep_never_activates_at_any_bonus(capsys):
    # FOUND "at p = 5e-324 every reward of the WiFi curve but s = M + 1 is
    # nan": s_star reads 1 at every B, where never activating is right
    code, rows, _, params = run(capsys, SUBNORMAL_SWEEP)
    assert code == 0 and [int(s) for _, s in rows] == [exact_s_star(replace(params, bonus=float(b)))
                                                      for b, _ in rows]


@open_defect
def test_subnormal_p_reward_curve_is_finite_and_exact(capsys):
    # FOUND "at p = 5e-324 every reward of the WiFi curve ...": the curve
    # prints nan for s <= 12
    argv = ["sweep", "--M", "12", "--p", "5e-324", "--G", "12", "--P", "1e-9", "--B", "-0"]
    code, rows, _, params = run(capsys, argv)
    assert code == 0 and len(rows) == params.max_age + 1
    rewards = [float(reward) for _, reward, _ in rows]
    assert all(math.isfinite(r) for r in rewards), rewards
    for policy, r in zip(thresholds_of(params.max_age), rewards):
        exact = reference_exact(policy, params)
        assert abs(Fraction(r) - exact.gain) <= Fraction(reward_bound(C_CLOSED, exact, params))


@open_defect
@pytest.mark.parametrize("argv", EXIT_3.values(), ids=EXIT_3)
def test_valid_solves_answer_the_exact_argmax_policy(capsys, argv):
    # none of these has 3G, so the optimal policy is a WiFi threshold policy
    code, rows, _, params = run(capsys, argv)
    best = thresholds_of(params.max_age)[exact_s_star(params) - 1]
    assert code == 0
    assert dict(rows)["policy"] == "".join(str(int(a)) for a in best.actions)


@open_defect
@pytest.mark.parametrize("edge", EDGES.values(), ids=EDGES)
def test_threshold_next_to_a_bonus_edge_is_within_rounding_of_the_best(edge):
    # FOUND "float bonus edges (thresholds._edges) can be off the exact
    # edge": between the float and the exact edge the float s* = 1 trails
    # the exact argmax 3 by more than the two rewards' rounding bounds; by
    # 5.55e-17 in the seed-1 draw, and in the seed-2 draw by 9.1e-20, 3.3
    # times the bounds, as 0 against -27/295147905179352825856
    exact = [reference_exact(policy, edge) for policy in thresholds_of(2)]
    gains = [e.gain for e in exact]
    best = max(gains)
    s_exact = gains.index(best) + 1
    s = optimal_threshold(edge).s_star
    bounds = [Fraction(reward_bound(C_CLOSED, e, edge)) for e in exact]
    assert s == s_exact or best - gains[s - 1] <= bounds[s - 1] + bounds[s_exact - 1], (s, s_exact)


@open_defect
def test_3g_only_pick_at_huge_costs_is_the_exact_best_pair():
    # FOUND "the 3G-only branch of thresholds.optimal_two_thresholds returns
    # a pair whose reward is nan": the grid's cumsums overflow to inf, less
    # an inf cost is nan, and so is every WiFi-only reward below M + 1, as
    # G/p is inf; no cell reaches the floor, and the pick is (7, 8) at nan,
    # where (6, 6) earns the most, 6.67e307 exactly
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = optimal_two_thresholds(HUGE_3G_ONLY)
    gains = {pair: reference_exact(policy, HUGE_3G_ONLY).gain for pair, policy in pairs_of(7).items()}
    best = max(gains, key=gains.get)
    assert (result.s_wifi, result.s_3g) == best and math.isfinite(result.reward)
    # reward_bound's G/p is 1e608, past the float range: the bound is the
    # relative one of C_CLOSED * M roundings
    assert abs(Fraction(result.reward) - gains[best]) <= gains[best] * Fraction(C_CLOSED * 7 * EPS)
    assert not caught


def test_the_register_answers_are_exact_and_unique():
    # not a defect: the exact answers the entries above assert, each the one
    # largest exact reward, so that an entry fails only on the program's answer
    def argmax(params):
        gains = exact_gains(params, thresholds_of(params.max_age))
        assert gains.count(max(gains)) == 1
        return gains.index(max(gains)) + 1

    params = read_params(STEP_SWEEP)
    assert [argmax(replace(params, scan_cost=g)) for g in (1e15, 0.01, 0.0)] == [1, 1, 1]
    for argv in HUGE_SCAN_COST.values():
        params = read_params(argv)
        assert argmax(params) == params.max_age + 1
        assert reference_exact(thresholds_of(params.max_age)[-1], params).gain == 0
    params = read_params(SUBNORMAL_SWEEP)
    assert [argmax(replace(params, bonus=b)) for b in (0.0, 1e-300, 3.0)] == [4, 4, 4]
    assert [argmax(read_params(argv)) for argv in EXIT_3.values()] == [1, 1, 3]
    assert [argmax(edge) for edge in EDGES.values()] == [3, 3]
    gains = {pair: reference_exact(policy, HUGE_3G_ONLY).gain for pair, policy in pairs_of(7).items()}
    assert [pair for pair, gain in gains.items() if gain == max(gains.values())] == [(6, 6)]
