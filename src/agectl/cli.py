"""Command-line front end: solve / sweep / publisher / learn / simulate /
gen-traces, with seeded reproducible runs and CSV plot-data output.

Exit codes: 0 success (including "infeasible" analysis outcomes), 1 usage
error, 2 input error, 3 numerical non-convergence.

In-process use: ``main(argv)`` returns the exit code, and a usage error raises
``SystemExit(1)``.  The parser is built on the first ``main`` call and reused
for the rest of the process; ``main`` finds the ``cmd_<name>`` function of the
chosen subcommand when it runs.  ``python -m agectl`` runs the same front end
without the console script.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import chain, learning, publisher, thresholds, tracesim
from .model import SystemParams, params_from_mapping, parse_param, read_mapping
from .solver import DEFAULT_TOL, ConvergenceError, solve_user_problem, verify_threshold_structure

USAGE_ERROR, INPUT_ERROR, NO_CONVERGENCE = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_ERROR)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _write(args: argparse.Namespace, command: str, settings: dict, columns: Sequence[str],
           rows: Iterable[Sequence], fmt: str | None = None, footer: str = "") -> None:
    """Write '#' header lines recording the full parameterization, then the
    rows as CSV (default) or an aligned table, then ``footer``, to --output or
    stdout in one write; identical headers reproduce identical columns."""
    lines = [f"# agectl {command}"]
    lines += [f"# {key}={_fmt(settings[key])}" for key in sorted(settings)]
    table = [list(columns), *([_fmt(v) for v in row] for row in rows)]
    if (fmt or args.format) == "table":
        widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
        lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in table]
    else:
        lines += [",".join(r) for r in table]
    _emit(args.output, "\n".join(lines) + "\n" + footer)


#: the parameter flags: name, the config-file key it replaces, and its
#: argparse keywords; --b has no key, it sets G = b*(M-1) after the merge
_PARAM_FLAGS = (
    ("p", "p", dict(type=float, help="useful-contact probability per slot")),
    ("M", "M", dict(type=int, help="maximum age")),
    ("G", "G", dict(type=float, help="activation cost per active slot")),
    ("b", None, dict(type=float, help="scaled activation cost; sets G = b*(M-1)")),
    ("P", "P", dict(type=float, help="WiFi price per update")),
    ("P3G", "P3G", dict(help="3G price per update, or 'inf' for no 3G")),
    ("B", "B", dict(type=float, help="bonus level")),
    ("utility", "utility.form",
     dict(choices=("linear", "step", "tabular"), help="utility form")),
    ("v", "utility.v", dict(type=float, help="step utility height")),
    ("k", "utility.k", dict(type=int, help="step utility cutoff age")),
    ("values", "utility.values", dict(help="comma-separated tabular utility values")),
)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value parameter file; flags override it")
    for name, _, kwargs in _PARAM_FLAGS:
        p.add_argument("--" + name, **kwargs)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write to this file instead of stdout")
    p.add_argument("--format", choices=("csv", "table"), default="csv")


def build_params(args: argparse.Namespace, base: Mapping[str, str] | None = None) -> SystemParams:
    """Read the parameters as ``params_from_mapping`` reads a config file:
    the --config file's keys over ``base``, each given flag over its key, and
    --b setting G = b*(M-1) last.  ``str(float)`` round-trips exactly."""
    mapping = dict(base or {})
    if args.config:
        mapping.update(read_mapping(args.config))
    for name, key, _ in _PARAM_FLAGS:
        value = getattr(args, name)
        if key is not None and value is not None:
            mapping[key] = str(value)
    if "M" not in mapping:
        raise ValueError("maximum age required (--M or config file)")
    if args.b is not None:
        mapping["G"] = str(args.b * (parse_param("M", mapping["M"], int) - 1))
    if "p" not in mapping:
        raise ValueError("contact probability required (--p or config file)")
    return params_from_mapping(mapping)


def _param_settings(params: SystemParams) -> dict:
    return {
        "p": params.contact_prob,
        "M": params.max_age,
        "G": params.scan_cost,
        "P": params.wifi_price,
        "P3G": "inf" if params.price_3g is None else params.price_3g,
        "B": params.bonus,
        "utility": params.utility.form,
    }


# --- subcommands ---------------------------------------------------------------------

def cmd_solve(args: argparse.Namespace) -> int:
    params = build_params(args)
    report = solve_user_problem(params, tol=args.tol)
    s_wifi, s_3g = verify_threshold_structure(report.policy)
    if params.has_3g:
        grid = thresholds.optimal_two_thresholds(params)
        closed_best, optima = grid.reward, (grid.s_wifi,)
        aa = ai = ""
    else:
        res = thresholds.optimal_threshold(params)
        closed_best, optima = res.reward, res.all_optima
        aa, ai = res.always_active, res.always_inactive
    rows = [
        ("policy", "".join(str(int(a)) for a in report.policy.actions)),
        ("s", s_wifi),
        ("s_3G", s_3g),
        ("gain", report.value.gain),
        ("iterations", report.iterations),
        ("residual", report.residual),
        ("always_active", aa),
        ("always_inactive", ai),
        ("all_optima", " ".join(map(str, optima))),
        ("closed_form_best", closed_best),
        ("crosscheck_gain_minus_closed", report.value.gain - closed_best),
    ]
    _write(args, "solve", {**_param_settings(params), "tol": args.tol}, ("field", "value"), rows)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    params = build_params(args)
    footer = ""
    if args.grid:
        name, _, values = args.grid.partition("=")
        name = name.strip()
        try:
            grid = [float(x) for x in values.split(",")]
        except ValueError:
            raise ValueError(
                f"--grid takes NAME=V1,V2,…, e.g. 'G=0.99,7.92', got {args.grid!r}"
            ) from None
        rep = thresholds.monotonicity_check(params, name, grid)
        settings = {**_param_settings(params), "grid": args.grid}
        columns, rows = (name, "s_star"), list(zip(rep.grid, rep.thresholds))
        if not rep.ok:
            i, a, b = rep.violation
            footer = f"# monotonicity violated at grid index {i}: {a} -> {b}\n"
    else:
        settings = _param_settings(params)
        rewards = chain.threshold_reward_curve(params).tolist()
        ages = chain.threshold_ages(params.contact_prob, params.max_age).tolist()
        columns, rows = ("s", "reward", "age"), list(zip(range(1, params.max_age + 2), rewards, ages))
    _write(args, "sweep", settings, columns, rows, footer=footer)
    return 0


def cmd_publisher(args: argparse.Namespace) -> int:
    params = build_params(args)
    inst = publisher.PublisherInstance(params=params, n_users=args.N, rate_cap=args.T)
    target = publisher.target_threshold(args.N, args.T, params.contact_prob, params.max_age)
    solution = publisher.optimal_bonus(inst)
    rows = [("target_threshold", target)]
    if solution is None:
        rows.append(("feasible", False))
    else:
        rows += [
            ("feasible", True),
            ("threshold", solution.threshold),
            ("bonus_lo", solution.bonus_lo),
            ("bonus_hi", solution.bonus_hi),
            ("rate", solution.rate),
            ("age", solution.age),
        ]
    settings = {**_param_settings(params), "N": args.N, "T": args.T}
    _write(args, "publisher", settings, ("field", "value"), rows)
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    exp = learning.preset(args.preset)
    if args.alpha is not None:
        exp = replace(exp, config=replace(exp.config, learning_rate=args.alpha))
    if args.N is not None:
        exp = replace(exp, n_initial=args.N)
    if args.drop is not None:
        try:
            n_after, at_round = map(int, args.drop.split("@"))
        except ValueError:
            raise ValueError(f"--drop takes N@ROUND, e.g. '20@200', got {args.drop!r}") from None
        exp = replace(exp, n_after=n_after, drop_round=at_round)
    if args.rounds is not None:
        exp = replace(exp, total_rounds=args.rounds)
    if not 1 <= exp.drop_round < exp.total_rounds:
        raise ValueError(f"need 1 <= --drop round ({exp.drop_round}) < --rounds ({exp.total_rounds})")

    rng = np.random.default_rng(args.seed)
    if args.env == "analytic":
        def env_factory(n: int) -> learning.RoundEnv:
            return learning.expected_rate_env(exp.params, n, exp.config.round_slots)
    elif args.env == "chain":
        def env_factory(n: int) -> learning.RoundEnv:
            return learning.chain_sim_env(exp.params, n, exp.config.round_slots, rng)
    else:  # trace
        if not args.traces:
            raise ValueError("--env trace needs --traces")
        corpus = tracesim.load_traces(args.traces)
        if not corpus:
            raise ValueError(f"no traces in {args.traces}")
        for n, flag in ((exp.n_initial, "--N"), (exp.n_after, "--drop")):
            _check_round_memory(n, exp.config.round_slots, flag)

        def env_factory(n: int) -> learning.RoundEnv:
            # half the population starts at the trace head, half mid-trace
            users = [
                tracesim.UserAssignment(
                    trace=corpus[i % len(corpus)],
                    phase=0 if i < n // 2 else len(corpus[i % len(corpus)]) // 2,
                )
                for i in range(n)
            ]
            return tracesim.trace_env(users, exp.params, exp.config.round_slots)

    first, second = learning.run_population_drop(exp, env_factory)

    settings = {
        **_param_settings(exp.params),
        "preset": exp.name, "env": args.env, "seed": args.seed,
        "alpha": exp.config.learning_rate, "tau": exp.config.round_slots,
        "T": exp.config.target_rate, "B_hat": exp.config.max_bonus,
        "N": exp.n_initial, "drop": f"{exp.n_after}@{exp.drop_round}",
        "rounds": exp.total_rounds,
    }
    if args.env == "trace":
        settings["traces"] = args.traces
    rows = [(r.index, r.bonus, r.served, r.rate) for r in first.rounds]
    rows += [(r.index + exp.drop_round, r.bonus, r.served, r.rate) for r in second.rounds]
    _write(args, "learn", settings, ("round", "bonus", "requests", "rate"), rows, fmt="csv")
    return 0


def _check_round_memory(n_users: int, round_slots: int, flag: str) -> None:
    """MemoryError naming ``flag`` when one round of ``n_users`` users on
    traces cannot fit in this machine's memory.  A trace round holds for
    each user its gather index into its population's step codes and the
    codes it gathers (``replay._tile_codes``), 8 bytes for each step of at
    most 8 slots and so each at least round_slots bytes, and its carried
    age, at least 1 byte: at least 2 * round_slots + 1 bytes, so the check
    runs before any user is built.  Without a physical memory size to read
    it checks nothing."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    need = n_users * (2 * round_slots + 1)
    if need > memory:
        raise MemoryError(f"{flag} {n_users}: a {round_slots}-slot round of that many users needs at least"
                          f" {need} bytes, more than the {memory} of this machine")


def cmd_simulate(args: argparse.Namespace) -> int:
    params = build_params(args, base={"p": "0.5"})  # per-shift estimates replace p anyway
    traces = tracesim.load_traces(args.traces)
    rows = tracesim.comparison_table(traces, params, replications=args.replications)
    settings = {**_param_settings(params), "traces": args.traces, "replications": args.replications}
    _write(args, "simulate", settings, tracesim.COMPARISON_COLUMNS, rows)
    return 0


def cmd_gen_traces(args: argparse.Namespace) -> int:
    corpus = tracesim.generate_corpus(args.shifts, seed=args.seed, median_p=args.median_p)
    header = (
        f"# agectl gen-traces\n# shifts={args.shifts}\n# seed={args.seed}\n"
        f"# median_p={_fmt(args.median_p)}\n"
    )
    _emit(args.output, header + tracesim.dump_traces(corpus))
    return 0


def make_parser() -> _Parser:
    # the shell help describes the commands, not the in-process notes; under
    # python -OO there is no docstring and no description, as before
    description = __doc__ and __doc__.partition("\n\nIn-process use:")[0]
    parser = _Parser(prog="agectl", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the user problem (MDP + closed form)")
    _add_param_flags(p_solve)
    _add_output_flags(p_solve)
    p_solve.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p_sweep = sub.add_parser("sweep", help="reward/age per threshold, or a parameter sweep")
    _add_param_flags(p_sweep)
    _add_output_flags(p_sweep)
    p_sweep.add_argument("--grid", help="e.g. 'G=0.99,7.92,17.82,34.98' to sweep s* over G")

    p_pub = sub.add_parser("publisher", help="optimal bonus under complete information")
    _add_param_flags(p_pub)
    _add_output_flags(p_pub)
    p_pub.add_argument("--N", type=int, required=True, help="population size")
    p_pub.add_argument("--T", type=float, required=True, help="message budget per slot")

    p_learn = sub.add_parser("learn", help="run the online bonus controller")
    p_learn.add_argument("--preset", choices=learning.PRESET_NAMES, default="long-rounds")
    p_learn.add_argument("--env", choices=("analytic", "chain", "trace"), default="analytic")
    p_learn.add_argument("--traces", help="trace file for --env trace")
    p_learn.add_argument("--N", type=int, help="override initial population size")
    p_learn.add_argument("--drop", help="population change, e.g. '20@200'")
    p_learn.add_argument("--rounds", type=int, help="override total rounds")
    p_learn.add_argument("--alpha", type=float, help="override learning rate")
    p_learn.add_argument("--seed", type=int, default=0)
    p_learn.add_argument("--output")

    p_sim = sub.add_parser("simulate", help="model-vs-trace comparison over a trace file")
    _add_param_flags(p_sim)
    _add_output_flags(p_sim)
    p_sim.add_argument("--traces", required=True)
    p_sim.add_argument("--replications", type=int, default=40)

    p_gen = sub.add_parser("gen-traces", help="generate a calibrated synthetic corpus")
    p_gen.add_argument("--shifts", type=int, default=88)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--median-p", type=float, default=0.53, dest="median_p")
    p_gen.add_argument("--output")

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    # Parsing writes only to each call's fresh namespace, never to the parser,
    # so one parser serves every main() call in the process.
    return make_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    # looked up at call time, so a replaced or wrapped cmd_* takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ConvergenceError as exc:
        print(f"agectl: {exc}", file=sys.stderr)
        return NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"agectl: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except MemoryError as exc:   # an input too large to hold, such as a huge --N
        print("agectl: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
