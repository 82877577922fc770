"""The three workloads: inputs from a seed, one timed item at a time, checks.

Each workload has ``setup(seed, workdir)`` returning its items, ``run(item)``
doing the timed library calls of one item, and ``check(item, output)``
returning a Tally of the item's operations and the item's exact counts.
Checks run on the first pass's outputs, each right after its item and
outside the item's timing.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass

import numpy as np

import fiforoute as fr
from fiforoute import cli, instances

import corpora
from checks import (
    Tally,
    choice_array,
    compare_load,
    naive_is_equilibrium,
    sim_stats,
    unit_arrivals,
    verify_witness,
)
from spans import patched

STAT_KEYS = (
    "loading.event_times",
    "loading.peak_queue_sum",
    "loading.total_wait",
    "loading.makespan_sum",
    "equilibria.enumerate_found",
    "equilibria.check_witnesses",
    "equilibria.witness_player_sum",
    "cli.out_bytes",
)
STAT_UNITS = {"cli.out_bytes": "bytes"}  # the rest are counts


def _enumerable(game) -> bool:
    return game.num_paths() ** game.n <= fr.equilibria.DEFAULT_STATE_BUDGET


def _judge(game, state, verdict):
    """Whether `state` is an equilibrium, and what `verdict` got wrong about it.

    A witness is reloaded with naive_load. A True verdict, or a witness that
    does not hold, is settled by reloading every single-player deviation with
    naive_load.
    """
    if verdict is not True:
        problems = verify_witness(game, state, verdict)
        if not problems:
            return False, []  # a verified witness settles it
    truth = naive_is_equilibrium(game, state)
    if verdict is True:
        return truth, [] if truth else ["accepted a profile that has an improving deviation"]
    return truth, problems


def _judge_all(game, judged, states) -> dict:
    """Extend `judged` (state -> is an equilibrium) by the library's verdict on each new state."""
    for state in states:
        if state not in judged:
            judged[state] = _judge(game, state, fr.is_ufr_equilibrium(game, state))[0]
    return judged


def _check_enumeration(tally, game, eqs, judged, sample) -> int:
    """The enumeration must list every judged equilibrium and no judged non-equilibrium.

    One member, picked by `sample`, is judged too.
    """
    if eqs is None:
        return 0
    members = set(eqs)
    if eqs:
        _judge_all(game, judged, [eqs[sample % len(eqs)]])
    problems = [f"misses equilibrium {st.paths}" for st, eq in judged.items() if eq and st not in members]
    problems += [f"lists non-equilibrium {st.paths}" for st, eq in judged.items() if not eq and st in members]
    tally.op("enumerate", problems)
    return len(eqs)


# ---------------------------------------------------------------- lowerbound-i3

LB_INDEX = 3
LB_EQ_MAKESPANS = (4, 243, 90_725)  # the paper's table, i = 1..3
LB_HORIZON = 60_663  # optimal makespan of game i = 3


@dataclass(frozen=True)
class LowerBoundItem:
    command: str
    argv: tuple[str, ...]
    game: fr.Game
    opt_state: fr.State


class LowerBound:
    """The paper's table through the CLI, then a load of the optimal profile."""

    name = "lowerbound-i3"

    def setup(self, seed, workdir):
        # the lower-bound instance has no random part; the seed is unused
        game = fr.gen_lower_bound_game(LB_INDEX)
        plan = fr.optimal_state(game)
        game_path, opt_path = workdir / "game.json", workdir / "opt.json"
        fr.save_game_file(game, str(game_path))
        fr.save_state_file(plan.state, str(opt_path))
        argvs = {
            "lowerbound": ("lowerbound", "--i-range", f"1..{LB_INDEX}", "--mode", "simulate", "--format", "json"),
            "load": ("load", str(game_path), str(opt_path)),
        }
        return [LowerBoundItem(cmd, argv, game, plan.state) for cmd, argv in argvs.items()]

    def run(self, item):
        captured = []
        original = instances.sequential_equilibrium

        def capture(game, policy=fr.GREEDY_QUEUE):
            state = original(game, policy)
            captured.append(state)
            return state

        out = io.StringIO()
        with patched(fr, original, capture), contextlib.redirect_stdout(out):
            code = cli.main(list(item.argv))
        return code, out.getvalue(), tuple(captured)

    def check(self, item, output):
        code, text, states = output
        tally = Tally()
        stats = dict.fromkeys(STAT_KEYS, 0)
        stats["cli.out_bytes"] = len(text.encode())
        if item.command == "lowerbound":
            tally.op("lowerbound", [f"exit code {code}"] if code else self._rows(json.loads(text), states))
            return tally, stats
        if code:
            tally.op("load", [f"exit code {code}"])
            return tally, stats
        report = json.loads(text)
        arrivals = np.array(report["arrivals"], dtype=np.int64)
        choice = choice_array(item.opt_state)
        problems = []
        if not np.array_equal(arrivals, unit_arrivals(item.game, choice)):
            problems.append("arrivals differ from the layer-sweep oracle")
        if report["makespan"] != LB_HORIZON or report["completions"] != report["arrivals"][-1]:
            problems.append(f"makespan {report['makespan']} != {LB_HORIZON}")
        taus = [np.array([e.transit for e in layer]) for layer in item.game.graph.layers]
        for j in range(1, len(taus)):
            if np.any(arrivals[j + 1] - arrivals[j] != taus[j][choice[:, j]]):
                problems.append(f"optimal profile waits on layer {j + 1}")
        tally.op("load", problems)
        stats.update(sim_stats(item.game, choice, arrivals))
        return tally, stats

    @staticmethod
    def _rows(rows, states) -> list[str]:
        problems = []
        expected = [fr.lower_bound_row(i, mode="analytic") for i in range(1, LB_INDEX + 1)]
        for row, want in zip(rows, expected):
            want = dict(want, eq_source="sim")
            if row != want:
                problems.append(f"row i={want['i']} is {row}, analytic {want}")
        if [r["eq_makespan"] for r in rows] != list(LB_EQ_MAKESPANS) or rows[-1]["opt_horizon"] != LB_HORIZON:
            problems.append("table differs from 4 / 243 / 90725 with horizon 60663")
        if len(states) != LB_INDEX:
            return problems + [f"{len(states)} equilibria constructed, expected {LB_INDEX}"]
        for i, state in enumerate(states, start=1):
            special = fr.special_edge_indices(fr.LowerBoundParams.for_index(i))
            choice = choice_array(state) + 1
            for layer, indices in special.items():
                if np.isin(choice[:, layer - 1], list(indices)).any():
                    problems.append(f"equilibrium of game i={i} uses a special edge on layer {layer}")
        return problems


# ---------------------------------------------------------------- fuzz-unit

class FuzzUnit:
    """Thousands of tiny unit-capacity games through every equilibrium routine."""

    name = "fuzz-unit"

    def setup(self, seed, workdir):
        return corpora.fuzz_unit(seed)

    def run(self, item):
        game = item.game
        policies = (fr.GREEDY_QUEUE, fr.LOWEST_INDEX, fr.SHORTEST_QUEUE, fr.seeded(item.policy_seed))
        states = tuple(fr.sequential_equilibrium(game, p) for p in policies)
        result = fr.load(game, states[0])
        on_greedy = fr.is_ufr_equilibrium(game, states[0])
        on_random = fr.is_ufr_equilibrium(game, item.random_state)
        eqs = fr.enumerate_equilibria(game) if _enumerable(game) else None
        return states, result, on_greedy, on_random, eqs

    def check(self, item, output):
        states, result, on_greedy, on_random, eqs = output
        game, tally = item.game, Tally()
        greedy_eq, problems = _judge(game, states[0], on_greedy)
        tally.op("check:greedy", problems)
        random_eq, problems = _judge(game, item.random_state, on_random)
        tally.op("check:random", problems)
        judged = _judge_all(game, {states[0]: greedy_eq, item.random_state: random_eq}, states)
        for policy, st in zip(("greedy", "lowest", "shortest", "seeded"), states):
            fits = not fr.validate_state(game, st)
            tally.op(f"construct:{policy}", [] if fits and judged[st] else ["not an equilibrium of the game"])
        tally.op("load", compare_load(game, states[0], result))
        found = _check_enumeration(tally, game, eqs, judged, item.policy_seed)
        stats = dict.fromkeys(STAT_KEYS, 0)
        stats.update(sim_stats(game, choice_array(states[0]), result.arrivals))
        stats["equilibria.enumerate_found"] = found
        stats["equilibria.check_witnesses"] = (on_greedy is not True) + (on_random is not True)
        stats["equilibria.witness_player_sum"] = sum(v.player for v in (on_greedy, on_random) if v is not True)
        return tally, stats


# ---------------------------------------------------------------- fuzz-cap

class FuzzCap:
    """Small capacitated games through construction, loading, splitting and flows.

    Enumeration is left out: on a game with a capacity above 1 it gives wrong
    answers (ROADMAP, "Fix first"), and it is timed on ``fuzz-unit``.
    """

    name = "fuzz-cap"

    def setup(self, seed, workdir):
        return corpora.fuzz_cap(seed)

    def run(self, item):
        game = item.game
        greedy = fr.sequential_equilibrium(game)
        result = fr.load(game, item.random_state)
        split_game, mapping = fr.split_capacities(game)
        mapped = fr.map_state_to_split(game, item.random_state, result)
        split_result = fr.load(split_game, mapped)
        flow = fr.state_to_flow(game, result)
        violations = fr.check_flow_feasible(game.graph, flow, expected_value=game.n)
        return greedy, result, split_game, mapping, mapped, split_result.arrivals, flow, violations

    def check(self, item, output):
        greedy, result, split_game, mapping, mapped, split_arrivals, flow, violations = output
        game, state, tally = item.game, item.random_state, Tally()
        judged = _judge_all(game, {}, [greedy, state])
        fits = not fr.validate_state(game, greedy)
        tally.op("construct", [] if fits and judged[greedy] else ["constructed profile is not an equilibrium"])
        tally.op("load", compare_load(game, state, result))
        tally.op("split", self._split_problems(game, split_game, mapping))
        copies_ok = not fr.validate_state(split_game, mapped) and all(
            c in mapping[(j, idx)]
            for old, new in zip(state.paths, mapped.paths)
            for j, (idx, c) in enumerate(zip(old.edge_indices, new.edge_indices), start=1)
        )
        tally.op("map", [] if copies_ok else ["mapped profile leaves the copies of its edges"])
        tally.op("split_load", [] if split_arrivals == result.arrivals else ["split game arrivals differ"])
        value = fr.flow_value(game.graph, flow)
        tally.op("to_flow", [] if value == game.n and flow.horizon == result.makespan + 1 else [f"flow value {value}"])
        tally.op("check_flow", violations)
        stats = dict.fromkeys(STAT_KEYS, 0)
        stats.update(sim_stats(game, choice_array(state), result.arrivals))
        return tally, stats

    @staticmethod
    def _split_problems(game, split_game, mapping) -> list[str]:
        problems = []
        if not split_game.graph.all_unit_capacity():
            problems.append("split game keeps a wide edge")
        if split_game.n != game.n or split_game.start_times() != game.start_times():
            problems.append("split game changes the players")
        for layer in game.graph.layers:
            for e in layer:
                copies = mapping.get((e.layer, e.index_in_layer), ())
                if len(copies) != e.capacity or any(
                    split_game.graph.edge(e.layer, c).transit != e.transit for c in copies
                ):
                    problems.append(f"edge {e.layer}:{e.index_in_layer} has copies {copies}")
        return problems


WORKLOADS = {w.name: w for w in (LowerBound(), FuzzUnit(), FuzzCap())}
