"""Minimal horizon, packet counting and the optimal release schedule."""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

from fiforoute import (
    Game,
    LinearMultigraph,
    ModelError,
    PathChoice,
    PlanError,
    State,
    gen_lower_bound_game,
    load,
    max_packets,
    min_horizon,
    optimal_state,
    optimality_certificate,
    sequential_equilibrium,
)
from conftest import random_game


def test_max_packets_counts_slots():
    g = LinearMultigraph.from_transits([[1, 1, 3], [1, 2, 3]])
    # path lengths 2, 3, 6
    assert max_packets(g, 1) == 0
    assert max_packets(g, 2) == 1
    assert max_packets(g, 3) == 2 + 1
    assert max_packets(g, 6) == 5 + 4 + 1
    assert max_packets(g, -1) == 0


def test_max_packets_refuses_a_capacitated_graph():
    wide = LinearMultigraph.from_transits([[1, 2], [3]], [[1, 2], [1]])
    with pytest.raises(ModelError, match="graph has capacities > 1; split capacities first"):
        max_packets(wide, 5)


def test_max_packets_monotone():
    rng = random.Random(13)
    for _ in range(100):
        g = random_game(rng).graph
        values = [max_packets(g, c) for c in range(0, 15)]
        assert values == sorted(values)


def test_min_horizon_is_tight():
    rng = random.Random(14)
    for _ in range(300):
        game = random_game(rng)
        c = min_horizon(game)
        assert max_packets(game.graph, c - 1) < game.n <= max_packets(game.graph, c)


def test_min_horizon_worked_example(two_layer_game):
    assert min_horizon(two_layer_game) == 5


def test_lower_bound_game_horizons():
    assert min_horizon(gen_lower_bound_game(1)) == 4
    g2 = gen_lower_bound_game(2)
    assert max_packets(g2.graph, 169) == 714
    assert max_packets(g2.graph, 170) == 720
    assert min_horizon(g2) == 170


def test_optimal_state_counts_and_certificate():
    g1 = gen_lower_bound_game(1)
    plan = optimal_state(g1)
    assert plan.horizon == 4
    assert plan.counts == (3, 3, 0)
    assert plan.deltas == (1, 0)
    assert sum(plan.counts) == g1.n
    assert plan.certificate == (4, 7)
    assert optimality_certificate(plan, g1) == []


def test_certificate_names_every_tampered_claim():
    g1 = gen_lower_bound_game(1)
    plan = optimal_state(g1)
    assert optimality_certificate(replace(plan, certificate=(4, 8)), g1) == [
        "stored certificate (4, 8) != recomputed (4, 7)"
    ]
    assert optimality_certificate(replace(plan, counts=(3, 3, 1)), g1) == ["counts sum to 7, not n = 6"]
    assert optimality_certificate(replace(plan, horizon=5), g1) == [
        "horizon not minimal: max_packets(4) = 7 >= n = 6",
        "stored certificate (4, 7) != recomputed (7, 10)",
        "loading the plan gives makespan 4, not 5",
    ]
    assert optimality_certificate(replace(plan, horizon=3), g1) == [
        "horizon infeasible: max_packets(3) = 4 < n = 6",
        "stored certificate (4, 7) != recomputed (2, 4)",
        "loading the plan gives makespan 4, not 3",
    ]
    # waits after layer 1, listed by player and then layer: player 2 waits
    # on layer 3 only, player 3 on layers 2 and 3
    game = Game(LinearMultigraph.from_transits([[1, 1, 1], [1, 1], [1]]), 3)
    state = State(tuple(PathChoice(p) for p in [(1, 1, 1), (2, 2, 1), (3, 1, 1)]))
    assert optimality_certificate(replace(optimal_state(game), state=state), game) == [
        "player 2 waits 1 steps on layer 3",
        "player 3 waits 1 steps on layer 2",
        "player 3 waits 1 steps on layer 3",
    ]


def test_optimal_state_orders_players_by_release_then_path(fuzz_corpus):
    # fuzz_corpus holds only zero-start unit games
    for game in [*fuzz_corpus, *(gen_lower_bound_game(i) for i in (1, 2, 3))]:
        plan = optimal_state(game)
        slots = sorted((release, j) for j, c in enumerate(plan.counts) for release in range(c))
        assert plan.state.paths == tuple(plan.paths[j] for _, j in slots)
        # players on one path share the plan's PathChoice object
        assert all(p is plan.paths[j] for p, (_, j) in zip(plan.state.paths, slots))
        assert len({id(p) for p in plan.state.paths}) == sum(c > 0 for c in plan.counts)


def test_optimal_state_loads_to_horizon_with_no_late_waits():
    rng = random.Random(15)
    for _ in range(250):
        game = random_game(rng)
        plan = optimal_state(game)
        res = load(game, plan.state)
        assert res.makespan == plan.horizon
        for per_player in res.waiting:
            assert all(w == 0 for w in per_player[1:])
        assert optimality_certificate(plan, game) == []


def test_optimum_never_beaten_by_exhaustive_search():
    from fiforoute import State, all_paths

    rng = random.Random(16)
    done = 0
    while done < 30:
        game = random_game(rng, max_players=3, max_edges=3, max_layers=2)
        if game.num_paths() ** game.n > 700:
            continue
        done += 1
        plan = optimal_state(game)
        paths = all_paths(game.graph)
        best = None
        def rec(prefix, remaining):
            nonlocal best
            if not remaining:
                c = load(game, State(tuple(prefix))).makespan
                best = c if best is None else min(best, c)
                return
            for p in paths:
                rec(prefix + [p], remaining - 1)
        rec([], game.n)
        assert plan.horizon == best


def test_optimal_state_rejects_patterns_and_capacities():
    g = Game(LinearMultigraph.from_transits([[1]]), 2, (0, 1))
    with pytest.raises(PlanError):
        optimal_state(g)
    from fiforoute import Edge

    cap = Game(LinearMultigraph(((Edge(1, 1, 1, 2),),)), 2)
    with pytest.raises(PlanError, match="split capacities first"):
        optimal_state(cap)


def test_greedy_within_twice_optimal():
    rng = random.Random(18)
    for _ in range(300):
        game = random_game(rng)
        eq = sequential_equilibrium(game)
        worst = load(game, eq).makespan
        assert worst <= 2 * min_horizon(game)
