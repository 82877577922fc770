"""Command-line front end. One subcommand per library capability.

Exit codes: 0 success, 1 semantic verdict (not an equilibrium, infeasible
flow), 2 usage or input error. All output is deterministic given the inputs
and the seed.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .capacity import map_state_to_split, split_capacities
from .equilibria import (
    DEFAULT_PATH_BUDGET,
    DEFAULT_STATE_BUDGET,
    enumerate_equilibria,
    is_ufr_equilibrium,
    parse_policy,
    sequential_equilibrium,
)
from .flows import check_flow_feasible, flow_to_dict, state_to_flow
from .instances import SIMULATION_CAP, lower_bound_row
from .loading import LoadingResult, arrival_sweep, load, trace_rows
from .model import (
    FifoRouteError,
    Game,
    game_to_dict,
    json_int_rows,
    load_game_file,
    load_state_file,
    state_to_dict,
    write_json,
)
from .optimum import min_horizon, optimal_state

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

LOWERBOUND_COLUMNS = [
    "i",
    "k",
    "l",
    "n",
    "eq_makespan",
    "eq_source",
    "opt_horizon",
    "ratio_exact",
    "ratio_decimal",
    "limit_bound",
]


def _emit(data: dict | list) -> None:
    write_json(data, sys.stdout)


def _simulable_game(path: str) -> Game:
    """The game in a file, refused before any per-player column is built when
    it has more players than `lowerbound --mode simulate` would simulate."""
    game = load_game_file(path)
    if game.n > SIMULATION_CAP:
        raise FifoRouteError(f"n = {game.n} exceeds the simulation cap {SIMULATION_CAP}")
    return game


def _trace_csv(result) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["time", "edge", "event", "player"])
    writer.writerows(trace_rows(result))


def cmd_load(args: argparse.Namespace) -> int:
    game = load_game_file(args.game)
    state = load_state_file(args.state)
    result = load(game, state)
    if args.format == "csv":
        if not args.trace:
            raise FifoRouteError("csv output for load requires --trace")
        _trace_csv(result)
        return EXIT_OK
    sys.stdout.write(_load_report(result, args.trace))
    return EXIT_OK


def _load_report(result: LoadingResult, trace: bool) -> str:
    """json.dumps of {"arrivals", "completions", "makespan"[, "trace"]} and a newline.

    Every arrival lies in 0..makespan, since arrivals never fall along a
    path, so json_int_rows encodes the rows. The completions are the last
    row, and its text serves for both keys.
    """
    rows = json_int_rows(result.arrivals, result.makespan)
    parts = ['{"arrivals": [', ", ".join(rows), '], "completions": ', rows[-1]]
    parts += [', "makespan": ', str(result.makespan)]
    if trace:
        parts += [', "trace": ', json.dumps(list(trace_rows(result)))]
    parts.append("}\n")
    return "".join(parts)


def cmd_eq(args: argparse.Namespace) -> int:
    game = _simulable_game(args.game)
    policy = parse_policy(args.policy, default_seed=args.seed)
    state = sequential_equilibrium(game, policy)
    result = load(game, state)
    _emit(
        {
            "policy": str(policy),
            "paths": [p.edge_indices for p in state.paths],
            "makespan": result.makespan,
        }
    )
    return EXIT_OK


def cmd_opt(args: argparse.Namespace) -> int:
    game = _simulable_game(args.game)
    plan = optimal_state(game)
    _emit(
        {
            "horizon": plan.horizon,
            "paths": [p.edge_indices for p in plan.paths],
            "counts": plan.counts,
            "deltas": plan.deltas,
            "certificate": plan.certificate,
        }
    )
    return EXIT_OK


def cmd_poa(args: argparse.Namespace) -> int:
    game = _simulable_game(args.game)
    state = sequential_equilibrium(game)
    worst = load(game, state).makespan
    horizon = min_horizon(game)
    ratio = Fraction(worst, horizon)
    _emit(
        {
            "worst_eq_makespan": worst,
            "opt_horizon": horizon,
            "ratio": str(ratio),
            "ratio_decimal": float(ratio),
        }
    )
    return EXIT_OK


def cmd_lowerbound(args: argparse.Namespace) -> int:
    indices = [args.i] if args.i is not None else list(args.i_range)
    rows = [lower_bound_row(i, mode=args.mode, cap=args.cap) for i in indices]
    if args.format == "json":
        _emit(rows)
        return EXIT_OK
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(LOWERBOUND_COLUMNS)
    for row in rows:
        writer.writerow([row[c] for c in LOWERBOUND_COLUMNS])
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    game = _simulable_game(args.game)
    states = enumerate_equilibria(game, state_budget=args.state_budget)
    _emit(
        {
            "count": len(states),
            "equilibria": [
                {
                    "paths": [p.edge_indices for p in st.paths],
                    "makespan": max(arrival_sweep(game, st.paths)[-1]),
                }
                for st in states
            ],
        }
    )
    return EXIT_OK


def cmd_check_ufr(args: argparse.Namespace) -> int:
    game = load_game_file(args.game)
    state = load_state_file(args.state)
    verdict = is_ufr_equilibrium(game, state, path_budget=args.path_budget)
    if verdict is True:
        _emit({"equilibrium": True})
        return EXIT_OK
    _emit(
        {
            "equilibrium": False,
            "witness": {
                "player": verdict.player,
                "node": f"v_{verdict.node}",
                "deviation": list(verdict.deviation.edge_indices),
                "improved_arrival": verdict.improved_arrival,
            },
        }
    )
    return EXIT_VIOLATION


def cmd_flow(args: argparse.Namespace) -> int:
    game = load_game_file(args.game)
    state = load_state_file(args.state)
    result = load(game, state)
    flow = state_to_flow(game, result)
    report = flow_to_dict(flow)
    if not args.check:
        _emit(report)
        return EXIT_OK
    violations = check_flow_feasible(game.graph, flow, expected_value=game.n)
    report["feasible"] = not violations
    report["violations"] = violations
    _emit(report)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_split(args: argparse.Namespace) -> int:
    game = load_game_file(args.game)
    split_game, mapping = split_capacities(game)
    report = {
        "game": game_to_dict(split_game),
        "mapping": {f"{layer}:{index}": list(copies) for (layer, index), copies in sorted(mapping.items())},
    }
    if args.state is not None:
        state = load_state_file(args.state)
        result = load(game, state)
        mapped = map_state_to_split(game, state, result)
        report["state"] = state_to_dict(mapped)
        report["makespan"] = result.makespan
        report["split_makespan"] = load(split_game, mapped).makespan
    _emit(report)
    return EXIT_OK


def _parse_i_range(text: str) -> range:
    first, sep, last = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected a..b")
    try:
        a, b = int(first), int(last)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected a..b with integers") from exc
    if a < 1 or b < a:
        raise argparse.ArgumentTypeError("need 1 <= a <= b")
    return range(a, b + 1)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiforoute",
        description="Simulate, verify and bound FIFO packet routing games on layered multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load", help="run the loading loop on a game and a state")
    p.add_argument("game")
    p.add_argument("state")
    p.add_argument("--trace", action="store_true", help="include the per-event trace")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("eq", help="construct an equilibrium by sequential insertion")
    p.add_argument("game")
    p.add_argument(
        "--policy",
        default="greedy-queue",
        help="greedy-queue | lowest-index | shortest-queue | seeded:<u64>",
    )
    p.add_argument("--seed", type=int, default=None, help="seed for the bare 'seeded' policy")
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("opt", help="compute an optimal release schedule")
    p.add_argument("game")
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser("poa", help="worst equilibrium makespan versus optimal horizon")
    p.add_argument("game")
    p.set_defaults(func=cmd_poa)

    p = sub.add_parser("lowerbound", help="price-of-stability table rows for the lower-bound family")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--i", type=_positive, default=None, help="single family index")
    group.add_argument("--i-range", type=_parse_i_range, default=None, help="inclusive range a..b")
    p.add_argument("--mode", choices=["simulate", "analytic"], default="simulate")
    p.add_argument("--cap", type=_positive, default=SIMULATION_CAP, help="max players to simulate")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("enumerate", help="enumerate all equilibria of a small game")
    p.add_argument("game")
    p.add_argument("--state-budget", type=_positive, default=DEFAULT_STATE_BUDGET,
                   help="refuse games of more profiles (num_paths^n) than this (default: %(default)s)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check-ufr", help="verify a state is a uniformly fastest route equilibrium")
    p.add_argument("game")
    p.add_argument("state")
    p.add_argument("--path-budget", type=_positive, default=DEFAULT_PATH_BUDGET,
                   help="refuse games of more paths per player (num_paths) than this (default: %(default)s)")
    p.set_defaults(func=cmd_check_ufr)

    p = sub.add_parser("flow", help="embed a loaded state as a flow over time")
    p.add_argument("game")
    p.add_argument("state")
    p.add_argument("--check", action="store_true", help="verify feasibility, exit 1 on violation")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("split", help="split capacitated edges into unit-capacity copies")
    p.add_argument("game")
    p.add_argument("state", nargs="?", default=None)
    p.set_defaults(func=cmd_split)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FifoRouteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
