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
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import chain, learning, publisher, thresholds, tracesim
from .model import SystemParams, UtilityFunction, load_params
from .solver import ConvergenceError, solve_user_problem, verify_threshold_structure

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


class Output:
    """CSV (default) or aligned-table writer with '#' header lines recording
    the full parameterization; identical headers reproduce identical columns."""

    def __init__(self, path: str | None, fmt: str):
        self.stream = open(path, "w") if path else sys.stdout
        self.owns = path is not None
        self.fmt = fmt

    def header(self, command: str, settings: dict) -> None:
        self.stream.write(f"# agectl {command}\n")
        for key in sorted(settings):
            self.stream.write(f"# {key}={_fmt(settings[key])}\n")

    def table(self, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
        rows = [[_fmt(v) for v in row] for row in rows]
        if self.fmt == "table":
            widths = [
                max(len(col), *(len(r[i]) for r in rows)) if rows else len(col)
                for i, col in enumerate(columns)
            ]
            self.stream.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
            for r in rows:
                self.stream.write("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")
        else:
            self.stream.write(",".join(columns) + "\n")
            for r in rows:
                self.stream.write(",".join(r) + "\n")

    def close(self) -> None:
        if self.owns:
            self.stream.close()


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value parameter file; flags override it")
    p.add_argument("--p", type=float, help="useful-contact probability per slot")
    p.add_argument("--M", type=int, help="maximum age")
    p.add_argument("--G", type=float, help="activation cost per active slot")
    p.add_argument("--b", type=float, help="scaled activation cost; sets G = b*(M-1)")
    p.add_argument("--P", type=float, help="WiFi price per update")
    p.add_argument("--P3G", help="3G price per update, or 'inf' for no 3G")
    p.add_argument("--B", type=float, help="bonus level")
    p.add_argument("--utility", choices=("linear", "step", "tabular"), help="utility form")
    p.add_argument("--v", type=float, help="step utility height")
    p.add_argument("--k", type=int, help="step utility cutoff age")
    p.add_argument("--values", help="comma-separated tabular utility values")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write to this file instead of stdout")
    p.add_argument("--format", choices=("csv", "table"), default="csv")


def build_params(args: argparse.Namespace) -> SystemParams:
    base = load_params(args.config) if args.config else None

    max_age = args.M if args.M is not None else (base.max_age if base else None)
    if max_age is None:
        raise ValueError("maximum age required (--M or config file)")
    if max_age < 2:
        raise ValueError(f"M must be >= 2, got {max_age}")

    form = args.utility or (base.utility.form if base else "linear")
    overridden = any(v is not None for v in (args.M, args.v, args.k, args.values))
    if overridden or base is None or form != base.utility.form:
        if form == "linear":
            utility = UtilityFunction.linear(max_age)
        elif form == "step":
            v = args.v if args.v is not None else (base.utility.step_value if base else None)
            k = args.k if args.k is not None else (base.utility.step_cutoff if base else None)
            if v is None or k is None:
                raise ValueError("step utility needs --v and --k")
            utility = UtilityFunction.step(v, k, max_age)
        else:
            if args.values is None:
                raise ValueError("tabular utility needs --values")
            utility = UtilityFunction.tabular([float(x) for x in args.values.split(",")])
    else:
        utility = base.utility

    p = args.p if args.p is not None else (base.contact_prob if base else None)
    if p is None:
        raise ValueError("contact probability required (--p or config file)")

    scan = args.G if args.G is not None else (base.scan_cost if base else 0.0)
    if args.b is not None:
        scan = args.b * (max_age - 1)
    price = args.P if args.P is not None else (base.wifi_price if base else 0.0)
    if args.P3G is not None:
        p3g = None if args.P3G.lower() in ("inf", "none") else float(args.P3G)
    else:
        p3g = base.price_3g if base else None
    bonus = args.B if args.B is not None else (base.bonus if base else 0.0)

    return SystemParams(
        contact_prob=p, max_age=max_age, utility=utility,
        scan_cost=scan, wifi_price=price, price_3g=p3g, bonus=bonus,
    )


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

    out = Output(args.output, args.format)
    try:
        out.header("solve", {**_param_settings(params), "tol": args.tol})
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
        out.table(("field", "value"), rows)
    finally:
        out.close()
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    params = build_params(args)
    footer = ""
    if args.grid:
        name, _, values = args.grid.partition("=")
        name = name.strip()
        grid = [float(x) for x in values.split(",")]
        rep = thresholds.monotonicity_check(params, name, grid)
        settings = {**_param_settings(params), "grid": args.grid}
        columns, rows = (name, "s_star"), list(zip(rep.grid, rep.thresholds))
        if not rep.ok:
            i, a, b = rep.violation
            footer = f"# monotonicity violated at grid index {i}: {a} -> {b}\n"
    else:
        settings = _param_settings(params)
        columns, rows = ("s", "reward", "age"), []
        for s in range(1, params.max_age + 2):
            summary = chain.summary_for_threshold(params, s)
            rows.append((s, summary.gain, summary.age))

    out = Output(args.output, args.format)
    try:
        out.header("sweep", settings)
        out.table(columns, rows)
        out.stream.write(footer)
    finally:
        out.close()
    return 0


def cmd_publisher(args: argparse.Namespace) -> int:
    params = build_params(args)
    inst = publisher.PublisherInstance(params=params, n_users=args.N, rate_cap=args.T)
    target = publisher.target_threshold(args.N, args.T, params.contact_prob, params.max_age)
    solution = publisher.optimal_bonus(inst)

    out = Output(args.output, args.format)
    try:
        out.header("publisher", {**_param_settings(params), "N": args.N, "T": args.T})
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
        out.table(("field", "value"), rows)
    finally:
        out.close()
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    exp = learning.preset(args.preset)
    if args.alpha is not None:
        exp = replace(exp, config=replace(exp.config, learning_rate=args.alpha))
    if args.N is not None:
        exp = replace(exp, n_initial=args.N)
    if args.drop is not None:
        n_after, _, at_round = args.drop.partition("@")
        exp = replace(exp, n_after=int(n_after), drop_round=int(at_round))
    if args.rounds is not None:
        exp = replace(exp, total_rounds=args.rounds)

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

    out = Output(args.output, "csv")
    try:
        out.header(
            "learn",
            {
                **_param_settings(exp.params),
                "preset": exp.name, "env": args.env, "seed": args.seed,
                "alpha": exp.config.learning_rate, "tau": exp.config.round_slots,
                "T": exp.config.target_rate, "B_hat": exp.config.max_bonus,
                "N": exp.n_initial, "drop": f"{exp.n_after}@{exp.drop_round}",
            },
        )
        rows = []
        for r in first.rounds:
            rows.append((r.index, r.bonus, r.served, r.rate))
        for r in second.rounds:
            rows.append((r.index + exp.drop_round, r.bonus, r.served, r.rate))
        out.table(("round", "bonus", "requests", "rate"), rows)
    finally:
        out.close()
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.p is None and not args.config:
        args.p = 0.5  # per-shift estimates replace it anyway
    params = build_params(args)
    traces = tracesim.load_traces(args.traces)
    rows = tracesim.comparison_table(traces, params, replications=args.replications)
    out = Output(args.output, args.format)
    try:
        out.header(
            "simulate",
            {**_param_settings(params), "traces": args.traces, "replications": args.replications},
        )
        out.table(tracesim.COMPARISON_COLUMNS, rows)
    finally:
        out.close()
    return 0


def cmd_gen_traces(args: argparse.Namespace) -> int:
    corpus = tracesim.generate_corpus(args.shifts, seed=args.seed, median_p=args.median_p)
    text = tracesim.dump_traces(corpus)
    header = (
        f"# agectl gen-traces\n# shifts={args.shifts}\n# seed={args.seed}\n"
        f"# median_p={_fmt(args.median_p)}\n"
    )
    if args.output:
        Path(args.output).write_text(header + text)
    else:
        sys.stdout.write(header + text)
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
    p_solve.add_argument("--tol", type=float, default=1e-10)

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


if __name__ == "__main__":
    sys.exit(main())
