"""The benchmark workloads: seeded inputs, the timed calls into agectl, and
the checks every answer must pass.

An op is one user-visible job.  A workload builds its inputs once (the
set-up) and then hands out numbered cycles of ops.  The sequence of cycles
has the same composition on every seed, so equally long runs do the same mix
of work.  Calls go through module attributes at call time, so the traced run
can wrap them.
"""
from __future__ import annotations

import math
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import agectl
from agectl import cli, learning, tracesim

import oracles

#: the checkout the benchmark runs in; scratch files stay inside it
CHECKOUT = Path(__file__).resolve().parent.parent
#: the solver tests compare gains within this absolute tolerance
GAIN_TOL = 1e-6
#: RVI needs ~(2/pi^2) L^2 ln(1/tol) sweeps for a cycle of L slots, and a step
#: utility puts s* near its cutoff: at M = 1000 a cutoff of 500 costs 80 s a solve
STEP_CUTOFF_MAX = 24


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]                  # the timed calls
    check: Callable[[Any], list[str]]       # failure messages; empty means correct
    count: Callable[[Any], dict] = lambda answer: {}   # work units: slots, bytes_out
    render: Callable[[Any], Any] = lambda answer: answer  # what a rerun must reproduce


def _seed(*parts: int) -> np.random.Generator:
    return np.random.default_rng([int(x) for x in parts])


# --- instances --------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    params: Any       # SystemParams, bonus set for the user problem
    publisher: Any    # PublisherInstance on the same model with bonus 0


@dataclass
class InstanceAnswer:
    threshold: Any
    gain: float
    actions: tuple
    structure: tuple[int, int]
    two: Any
    bonus: Any


FORMS = ("linear", "step", "tabular")


def random_instance(cell, rng: np.random.Generator, m_range: tuple[int, int]) -> Instance:
    """One user and publisher instance, drawn like ``random_3g_params`` in the
    test suite, with costs scaled to the utility so large M keeps interior
    thresholds.  ``cell(dim)`` gives a uniform draw in [0, 1) for each input."""
    lo, hi = (math.log(m) for m in m_range)
    max_age = int(round(math.exp(lo + cell("M") * (hi - lo))))
    U = agectl.UtilityFunction
    form = FORMS[int(cell("form") * len(FORMS))]
    if form == "linear":
        utility = U.linear(max_age)
    elif form == "step":
        cutoff = 1 + int(cell("cutoff") * min(max_age, STEP_CUTOFF_MAX))
        utility = U.step(0.5 + 9.5 * cell("shape"), cutoff, max_age)
    else:
        utility = U.tabular(np.sort(rng.uniform(0.0, 10.0, size=max_age))[::-1])
    scale = max((utility.values[0] - utility.values[-1]) / 10.0, 0.1)
    p = 0.05 + 0.9 * cell("p")
    scan = 3.0 * cell("scan") * scale
    price = 5.0 * cell("price") * scale
    params = agectl.SystemParams(
        contact_prob=p, max_age=max_age, utility=utility, scan_cost=scan,
        wifi_price=price, bonus=price * cell("bonus"),
    )
    if cell("3g") < 0.5:
        pivot = scan / p + price
        price_3g = max((0.2 + 2.8 * cell("price_3g")) * max(pivot, 0.5 * scale), params.bonus)
        params = replace(params, price_3g=price_3g)
    publisher = agectl.PublisherInstance(
        params=replace(params, bonus=0.0),
        n_users=2 + int(118 * cell("users")),
        rate_cap=0.5 + 24.5 * cell("cap"),
    )
    return Instance(params=params, publisher=publisher)


def answer_instance(inst: Instance) -> InstanceAnswer:
    params = inst.params
    if params.utility.form == "step":
        threshold = agectl.step_utility_threshold(params)
    else:
        threshold = agectl.optimal_threshold(params)
    report = agectl.solve_user_problem(params)
    structure = agectl.verify_threshold_structure(report.policy)
    two = agectl.optimal_two_thresholds(params) if params.has_3g else None
    bonus = agectl.optimal_bonus(inst.publisher)
    return InstanceAnswer(
        threshold=threshold, gain=report.value.gain, actions=report.policy.actions,
        structure=structure, two=two, bonus=bonus,
    )


def check_instance(inst: Instance, ans: InstanceAnswer) -> list[str]:
    failures = []
    best = ans.two.reward if ans.two is not None else ans.threshold.reward
    if not abs(ans.gain - best) <= GAIN_TOL:
        failures.append(f"RVI gain {ans.gain!r} vs closed-form best {best!r}")
    acts = np.asarray([int(a) for a in ans.actions])
    never = acts.size + 1
    if np.any(np.diff(acts) < 0):
        failures.append("policy actions decrease with age")
    switches = tuple(
        int(np.argmax(acts >= level)) + 1 if np.any(acts >= level) else never for level in (1, 2)
    )
    if tuple(ans.structure) != switches:
        failures.append(f"structure {ans.structure} != switch points {switches}")

    pub = inst.publisher
    sol = ans.bonus
    extra = () if sol is None else (sol.bonus_lo, sol.bonus_hi)
    oracle = oracles.bonus_oracle_threshold(agectl.threshold_response, pub, extra)
    got = None if sol is None else sol.threshold
    if got != oracle:
        failures.append(f"optimal_bonus threshold {got} != grid oracle {oracle}")
    if sol is not None:
        if sol.rate > pub.rate_cap + 1e-9:
            failures.append(f"rate {sol.rate} above cap {pub.rate_cap}")
        if not 0.0 <= sol.bonus_lo <= sol.bonus_hi <= pub.params.wifi_price:
            failures.append(f"bonus interval [{sol.bonus_lo}, {sol.bonus_hi}] outside [0, P]")
    return failures


class Instances:
    """A seeded stream of random instances, each answered by every route.

    Each cycle is one block of ``BLOCK`` instances laid out as a stratified
    design: every input is split into ``BLOCK`` strata, instance j takes
    stratum (j * MIX[input]) mod BLOCK of each, and the seed draws uniformly
    inside the strata.  Every block therefore covers log-uniform M over
    [8, 1000] and every other range the same way, so the O(M^2) tail costs
    about the same on every seed and a run's throughput does not hinge on a
    few lucky draws.
    """

    name = "instances"
    CYCLE_SECONDS = 6.5
    BLOCK = 24
    M_RANGE = (8, 1000)
    #: stratum multipliers; the continuous ones are coprime to BLOCK, and "form"
    #: and "3g" pick from 3 and 2 choices, so each (form, 3G) pair shows 4 times
    MIX = {"M": 1, "form": 8, "3g": 12, "p": 5, "scan": 7, "price": 11, "bonus": 13,
           "price_3g": 17, "users": 19, "cap": 23, "cutoff": 5, "shape": 7}

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.m_range = (8, 40) if small else self.M_RANGE

    def cycle(self, index: int) -> list[Op]:
        rng = _seed(self.seed, index)
        ops = []
        for j in rng.permutation(self.BLOCK):
            def cell(dim, j=int(j)):
                return ((j * self.MIX[dim]) % self.BLOCK + rng.random()) / self.BLOCK
            inst = random_instance(cell, rng, self.m_range)
            ops.append(Op("instance", lambda inst=inst: answer_instance(inst),
                          lambda ans, inst=inst: check_instance(inst, ans)))
        return ops


# --- traces -----------------------------------------------------------------------------

LONG_P = (0.3, 0.54, 0.7)        # criterion 9's contact probabilities
TRACE_M = 12
TWO_THRESHOLD_PAIRS = ((1, 6), (3, 9), (5, 12), (2, 4), (4, 7))
KINDS = ("threshold", "two_threshold", "mask")


def _trace_params(p: float) -> Any:
    return agectl.SystemParams(
        contact_prob=p, max_age=TRACE_M, utility=agectl.UtilityFunction.linear(TRACE_M),
        scan_cost=0.99, wifi_price=0.5, price_3g=4.0,
    )


def check_counters(res) -> list[str]:
    if not res.updates == res.updates_wifi + res.updates_3g == len(res.update_slots):
        return [
            f"updates {res.updates} != wifi {res.updates_wifi} + 3g {res.updates_3g}"
            f" != {len(res.update_slots)} update slots"
        ]
    return []


class Traces:
    """Slot-by-slot replays: long i.i.d. traces and comparison-table rows.

    A cycle replays one long trace, then answers ``ROWS`` comparison-table rows
    over the corpus.  The trace and the policy kind rotate with the cycle and
    meet in all nine pairings every nine cycles.
    """

    name = "traces"
    CYCLE_SECONDS = 3.3
    LONG_SLOTS = 1_000_000
    SHIFTS = 60
    ROWS = 10
    MASK_SHARE = 0.1

    def __init__(self, seed: int, small: bool = False):
        n = 20_000 if small else self.LONG_SLOTS
        self.rows = 2 if small else self.ROWS
        self.long = []
        for j, p in enumerate(LONG_P):
            trace = agectl.iid_trace(p, n, seed=_seed(seed, 1, j), shift_id=f"iid{p}")
            mask = _seed(seed, 2, j).random(n) < self.MASK_SHARE
            masked = agectl.ContactTrace(
                shift_id=trace.shift_id, slots=trace.slots, mask=tuple(int(b) for b in mask)
            )
            self.long.append((_trace_params(p), masked, np.asarray(trace.slots), mask))
        self.corpus = agectl.generate_corpus(6 if small else self.SHIFTS, seed=seed)
        self.row_params = agectl.SystemParams(
            contact_prob=0.5, max_age=TRACE_M, utility=agectl.UtilityFunction.linear(TRACE_M),
            scan_cost=0.2 * (TRACE_M - 1),
        )

    def cycle(self, index: int) -> list[Op]:
        kind = KINDS[index % len(KINDS)]
        params, trace, slots, mask = self.long[(index + index // len(KINDS)) % len(self.long)]
        ops = [self._replay_op(kind, index, params, trace, slots, mask)]
        for r in range(self.rows):
            shift = self.corpus[(index * self.rows + r) % len(self.corpus)]
            ops.append(self._row_op(shift))
        return ops

    def _replay_op(self, kind, turn, params, trace, slots, mask) -> Op:
        n = len(slots)
        count = lambda res: {"slots": n}
        render = lambda res: (res.total_reward, res.average_reward, res.updates_wifi,
                              res.updates_3g, res.energy_spent, res.fees_paid,
                              hash(res.update_slots))
        if kind == "mask":
            def check(res):
                failures = check_counters(res)
                wifi = int(np.count_nonzero(mask & (slots == 1)))
                if res.updates_wifi != wifi or res.updates_3g != 0:
                    failures.append(f"mask updates {res.updates_wifi}/{res.updates_3g} != {wifi}/0")
                energy = params.scan_cost * int(np.count_nonzero(mask))
                if not math.isclose(res.energy_spent, energy, rel_tol=1e-9):
                    failures.append(f"energy {res.energy_spent} != {energy}")
                return failures

            return Op("replay_mask", lambda: tracesim.simulate_policy(
                trace, params, tracesim.MASK_POLICY), check, count, render)

        M = params.max_age
        if kind == "threshold":
            s_wifi, s_3g = 1 + (5 * turn) % (M + 1), None
            closed = agectl.expected_reward_threshold(params, s_wifi)
        else:
            s_wifi, s_3g = TWO_THRESHOLD_PAIRS[turn % len(TWO_THRESHOLD_PAIRS)]
            closed = agectl.expected_reward_two_threshold(params, s_wifi, s_3g)
        policy = agectl.Policy.from_thresholds(s_wifi, s_3g, M)

        def check(res):
            return check_counters(res) + oracles.replay_band_failures(
                params, s_wifi, s_3g, closed, res
            )

        return Op(f"replay_{kind}", lambda: tracesim.simulate_policy(trace, params, policy),
                  check, count, render)

    def _row_op(self, shift) -> Op:
        params = self.row_params
        reps = 40
        n_slots = len(shift) * (params.max_age + 2) * reps

        def check(rows):
            (row,) = rows
            shift_id, p_hat, s_trace, s_model, reward_trace, _, on_trace = row
            failures = []
            if shift_id != shift.shift_id or p_hat != sum(shift.slots) / len(shift):
                failures.append(f"row {shift_id} p_hat {p_hat} does not match the shift")
            never = params.max_age + 1
            if not (1 <= s_trace <= never and 1 <= s_model <= never):
                failures.append(f"thresholds {s_trace}, {s_model} outside [1, {never}]")
            if reward_trace < on_trace - 1e-12:
                failures.append(f"trace optimum {reward_trace} below model policy {on_trace}")
            return failures

        return Op("comparison_row",
                  lambda: tracesim.comparison_table([shift], params, replications=reps),
                  check, lambda rows: {"slots": n_slots})


# --- control ----------------------------------------------------------------------------

ENVS = ("chain", "trace", "analytic")


def _bounds_failures(rounds, n_users: int, round_slots: int, max_bonus: float) -> list[str]:
    failures = []
    for r in rounds:
        if not 0.0 <= r.bonus <= max_bonus:
            failures.append(f"round {r.index}: bonus {r.bonus} outside [0, {max_bonus}]")
        if r.served > n_users * round_slots:
            failures.append(f"round {r.index}: served {r.served} > N*tau = {n_users * round_slots}")
    return failures


class Control:
    """The online bonus controller through a population drop on every preset
    and environment, plus one closed-loop population run.

    A segment ends early when a round's rate hits the target exactly, so an
    op's work depends on its random numbers.  Each cycle therefore draws its
    users from its own slice of the corpus, which keeps the cycles' early stops
    independent and lets them average out.  Every run of an op uses the same
    seeds, so each rerun must reproduce the first one's ``to_csv()`` byte for
    byte.
    """

    name = "control"
    CYCLE_SECONDS = 3.3
    SHIFTS = 400
    SHIFTS_PER_CYCLE = 40
    POP_USERS, POP_ROUNDS, POP_SLOTS = 50, 60, 20

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.corpus = agectl.generate_corpus(self.SHIFTS, seed=seed)

    def _users(self, n: int, cycle: int, rng: np.random.Generator) -> list:
        """Users on the cycle's own slice of the corpus, at random phases."""
        first = cycle * self.SHIFTS_PER_CYCLE
        shifts = [self.corpus[(first + i % self.SHIFTS_PER_CYCLE) % len(self.corpus)]
                  for i in range(n)]
        return [
            tracesim.UserAssignment(trace=t, phase=int(rng.integers(len(t)))) for t in shifts
        ]

    def _drop_op(self, preset_index: int, env: str, cycle: int) -> Op:
        exp = learning.preset(learning.PRESET_NAMES[preset_index])
        tau = exp.config.round_slots

        def run():
            rng = _seed(self.seed, cycle, preset_index)
            if env == "chain":
                factory = lambda n: learning.chain_sim_env(exp.params, n, tau, rng)
            elif env == "trace":
                factory = lambda n: tracesim.trace_env(self._users(n, cycle, rng), exp.params, tau)
            else:
                factory = lambda n: learning.expected_rate_env(exp.params, n, tau)
            return learning.run_population_drop(exp, factory)

        def check(answer):
            first, second = answer
            return (
                _bounds_failures(first.rounds, exp.n_initial, tau, exp.config.max_bonus)
                + _bounds_failures(second.rounds, exp.n_after, tau, exp.config.max_bonus)
            )

        def count(answer):
            if env == "analytic":
                return {}
            first, second = answer
            return {"slots": tau * (len(first.rounds) * exp.n_initial
                                    + len(second.rounds) * exp.n_after)}

        return Op(f"drop_{env}", run, check, count, self._csv)

    def _population_op(self, cycle: int) -> Op:
        exp = learning.preset("long-rounds")

        def run():
            users = self._users(self.POP_USERS, cycle, _seed(self.seed, cycle, 9))
            return tracesim.simulate_population(
                users, exp.params, self.POP_ROUNDS, self.POP_SLOTS, controller=exp.config
            )

        def check(res):
            return _bounds_failures(res.rounds, self.POP_USERS, self.POP_SLOTS,
                                    exp.config.max_bonus)

        slots = self.POP_USERS * self.POP_ROUNDS * self.POP_SLOTS
        return Op("population", run, check, lambda res: {"slots": slots}, self._csv)

    @staticmethod
    def _csv(answer) -> str:
        if isinstance(answer, tuple):
            return "".join(traj.to_csv() for traj in answer)
        rounds = learning.LearningTrajectory(rounds=answer.rounds).to_csv()
        return rounds + "".join(f"{u.updates},{u.total_reward!r},{u.final_age}\n"
                                for u in answer.users)

    def cycle(self, index: int) -> list[Op]:
        return [
            self._drop_op(k, env, index)
            for k in range(len(learning.PRESET_NAMES)) for env in ENVS
        ] + [self._population_op(index)]


# --- cli --------------------------------------------------------------------------------

#: the README's params.cfg without its trailing comment on the P3G line, which
#: load_params reads as part of the value (exit 2)
PARAMS_CFG = """\
# params.cfg
p = 0.54
M = 12
G = 0.99
P = 0
P3G = inf
B = 0
utility.form = linear
"""


class Cli:
    """In-process ``agectl.cli.main`` for all six subcommands on the README
    examples, each writing to a file in a scratch directory.

    A rerun of an argv must exit 0 again and write the same bytes.  The trace
    file is written by the benchmark, not by agectl.
    """

    name = "cli"
    CYCLE_SECONDS = 2.6
    SHIFTS = 12

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.dir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=CHECKOUT))
        (self.dir / "params.cfg").write_text(PARAMS_CFG)
        rng = _seed(seed, 3)
        lines = ["# synthetic shifts for the cli workload"]
        for i in range(self.SHIFTS):
            n = int(rng.integers(40, 120))
            slots = "".join("1" if b else "0" for b in rng.random(n) < 0.5)
            mask = "".join("1" if j % 12 == 0 else "0" for j in range(n))
            lines.append(f"shift{i:03d} {slots} {mask}")
        self.traces = self.dir / "traces.txt"
        self.traces.write_text("\n".join(lines) + "\n")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def argvs(self, cycle: int) -> list[list[str]]:
        # fixed inputs: the seeds the subcommands get are the cycle number, so
        # only the trace file changes with the workload seed
        s = str(cycle)
        d = self.dir
        return [
            ["solve", "--utility", "linear", "--M", "12", "--p", "0.54", "--G", "0.99",
             "--P", "0", "--B", "0"],
            ["solve", "--utility", "step", "--v", "12", "--k", "3", "--M", "21", "--p", "0.5",
             "--G", "6"],
            ["solve", "--config", str(d / "params.cfg"), "--P3G", "3.0", "--format", "table"],
            ["sweep", "--M", "12", "--p", "0.54", "--G", "0.99"],
            ["sweep", "--M", "12", "--p", "0.54", "--grid", "G=0.99,7.92,17.82,34.98"],
            ["publisher", "--N", "20", "--T", "11", "--p", "0.54", "--M", "30", "--G", "0.4",
             "--P", "40"],
            ["learn", "--preset", "long-rounds", "--env", "analytic", "--seed", s],
            ["learn", "--preset", "long-rounds", "--env", "chain", "--drop", "20@200",
             "--seed", s],
            ["learn", "--preset", "short-rounds", "--env", "trace", "--traces",
             str(self.traces), "--seed", s],
            ["gen-traces", "--shifts", "88", "--seed", s],
            ["simulate", "--traces", str(self.traces), "--utility", "linear", "--M", "12",
             "--b", "0.2", "--replications", "10"],
        ]

    def _op(self, argv: list[str], out: Path) -> Op:
        full = argv + ["--output", str(out)]

        def output() -> bytes:
            return out.read_bytes() if out.exists() else b""

        def check(code):
            if code != 0:
                return [f"{argv[0]}: exit code {code}"]
            if not output().startswith(f"# agectl {argv[0]}\n".encode()):
                return [f"{argv[0]}: output lacks its '#' header"]
            return []

        return Op(argv[0], lambda: cli.main(full), check,
                  lambda code: {"bytes_out": len(output())}, lambda code: (code, output()))

    def cycle(self, index: int) -> list[Op]:
        return [self._op(argv, self.dir / f"out{k}.txt")
                for k, argv in enumerate(self.argvs(index))]


WORKLOADS = {w.name: w for w in (Instances, Traces, Control, Cli)}
