"""Independent answer checks used by the benchmark.

Nothing here calls the agectl route it checks.  The replay band comes from
the renewal structure of (two-)threshold policies on i.i.d. contacts.  The
bonus oracle is acceptance criterion 7's fine grid over the bonus range.
"""
from __future__ import annotations

import math

import numpy as np

#: a correct replay leaves the band with normal-tail probability 2e-9; the
#: margin over the 1e-6 target absorbs the CLT's error at 1e6 slots
REPLAY_Z = 6.0
#: smallest geometric tail mass kept when enumerating renewal cycles
CYCLE_TAIL = 1e-30
#: grid of criterion 7: bonuses 0, P/1e4, ..., P
BONUS_GRID = 10_001
#: bonuses per threshold_response call, so the oracle's memory stays small
BONUS_CHUNK = 256


def cycle_law(params, s_wifi: int, s_3g: int | None):
    """Renewal cycles of a (two-)threshold policy on i.i.d. contacts.

    A cycle starts at age 1 and ends with the slot that updates.  Returns
    (lengths, rewards, probabilities), one entry per possible cycle.  WiFi-only
    policies have unbounded cycles; their geometric tail is cut below
    ``CYCLE_TAIL``.  Requires s_wifi <= max_age.
    """
    M = params.max_age
    p = params.contact_prob
    q = 1.0 - p
    u = np.asarray(params.utility.values)
    scan = params.scan_cost
    fee_wifi = max(params.wifi_price - params.bonus, 0.0)
    head = float(u[: s_wifi - 1].sum())
    if s_3g is None:
        k_max = max(1, math.ceil(math.log(CYCLE_TAIL) / math.log(q)))
    else:
        k_max = s_3g - s_wifi + 1
    k = np.arange(1, k_max + 1)
    ages = np.minimum(s_wifi - 1 + k, M)                      # age of the k-th active slot
    band = np.cumsum(u[ages - 1])
    lengths = (s_wifi - 1 + k).astype(float)
    rewards = head + band - scan * k - fee_wifi
    probs = q ** (k - 1) * p
    if s_3g is not None:
        # the slot at age s_3g always updates: WiFi on a contact, else 3G
        fee_3g = max(params.price_3g - params.bonus, 0.0)
        probs[-1] = q ** (k_max - 1) * p
        lengths = np.append(lengths, lengths[-1])
        rewards = np.append(rewards, rewards[-1] + fee_wifi - fee_3g)
        probs = np.append(probs, q**k_max)
    return lengths, rewards, probs


def open_segment_reward(params, s_wifi: int, length: int) -> float:
    """Reward of ``length`` slots after an update (or the start) with no update
    in them: the age ramps from 1 and saturates at max_age."""
    u = np.asarray(params.utility.values)
    M = params.max_age
    ramp = float(u[: min(length, M)].sum()) + max(0, length - M) * float(u[-1])
    return ramp - params.scan_cost * max(0, length - s_wifi + 1)


def replay_band_failures(params, s_wifi, s_3g, closed_form, result) -> list[str]:
    """Check one replay from age 1 on an i.i.d. trace against the closed form.

    The renewal-reward CLT gives sqrt(n) (mean - g) -> N(0, sigma^2) with
    sigma^2 = E[(R - g L)^2] / E[L] over cycles.  The open segment after the
    last update is a deterministic ramp; its exact share is added to the band.
    """
    failures = []
    n = result.slots
    last = result.update_slots[-1] if result.update_slots else 0
    tail = n - last
    if s_wifi > params.max_age:   # never active: no cycle ever closes
        gain, sigma = 0.0, 0.0
    else:
        lengths, rewards, probs = cycle_law(params, s_wifi, s_3g)
        gain = float(probs @ rewards / (probs @ lengths))
        sigma = math.sqrt(float(probs @ (rewards - gain * lengths) ** 2 / (probs @ lengths)))
    scale = max(1.0, abs(gain))
    if abs(gain - closed_form) > 1e-9 * scale:
        failures.append(f"closed form {closed_form!r} != renewal gain {gain!r}")
    bias = abs(open_segment_reward(params, s_wifi, tail) - gain * tail) / n
    band = REPLAY_Z * sigma / math.sqrt(n) + bias + 1e-12 * scale
    err = abs(result.average_reward - closed_form)
    if err > band:
        failures.append(f"replay mean off the closed form by {err:.3g} > band {band:.3g}")
    return failures


def bonus_oracle_threshold(threshold_response, instance, extra_bonuses=()) -> int | None:
    """Smallest threshold any bonus on the criterion-7 grid (plus
    ``extra_bonuses``) induces within the rate cap; None when none does."""
    params = instance.params
    p = params.contact_prob
    bonuses = np.concatenate(
        [np.linspace(0.0, params.wifi_price, BONUS_GRID), np.asarray(extra_bonuses, float)]
    )
    best = None
    for start in range(0, bonuses.size, BONUS_CHUNK):
        response = np.asarray(threshold_response(params, bonuses[start : start + BONUS_CHUNK]))
        rates = np.where(
            response == params.max_age + 1, 0.0, instance.n_users / (response + (1 - p) / p)
        )
        feasible = response[rates <= instance.rate_cap + 1e-9]
        if feasible.size:
            low = int(feasible.min())
            best = low if best is None else min(best, low)
    return best
