"""Capacity splitting: unit-copy construction and arrival-time preservation."""
import random

import pytest

from fiforoute import (
    Edge,
    FifoRouteError,
    Game,
    LinearMultigraph,
    ModelError,
    PathChoice,
    State,
    load,
    map_state_to_split,
    split_capacities,
)

from fiforoute import capacity
from conftest import random_capacitated_game, random_state


def test_split_one_wide_edge():
    graph = LinearMultigraph(((Edge(1, 1, 1, 2),),))
    game = Game(graph, 2, None)
    split, mapping = split_capacities(game)
    assert [e.transit for e in split.graph.layers[0]] == [1, 1]
    assert split.graph.all_unit_capacity()
    assert mapping == {(1, 1): (1, 2)}


def test_split_unit_game_is_identity():
    graph = LinearMultigraph.from_transits([[1, 2], [2]])
    game = Game(graph, 3, None)
    split, mapping = split_capacities(game)
    assert split.graph == graph
    assert split.n == game.n
    assert mapping == {(1, 1): (1,), (1, 2): (2,), (2, 1): (1,)}


def test_split_keeps_layer_sorted_and_copies_adjacent():
    graph = LinearMultigraph(
        ((Edge(1, 1, 1, 3), Edge(1, 2, 2, 1), Edge(1, 3, 2, 2)),)
    )
    game = Game(graph, 4, None)
    split, mapping = split_capacities(game)
    transits = [e.transit for e in split.graph.layers[0]]
    assert transits == [1, 1, 1, 2, 2, 2]
    assert mapping == {(1, 1): (1, 2, 3), (1, 2): (4,), (1, 3): (5, 6)}


def test_wide_edge_serves_two_players_at_once():
    graph = LinearMultigraph(((Edge(1, 1, 1, 2),),))
    game = Game(graph, 2, None)
    state = State((PathChoice((1,)), PathChoice((1,))))
    result = load(game, state)
    assert result.completions == (1, 1)

    split_game, _ = split_capacities(game)
    split_state = map_state_to_split(game, state, result)
    assert split_state.paths == (PathChoice((1,)), PathChoice((2,)))
    assert load(split_game, split_state).completions == (1, 1)


def test_mapping_ranks_players_by_fifo_order_not_index():
    # layer-1 arrivals are (3, 1, 2), so the wide edge serves players 2, 3, 1
    graph = LinearMultigraph(((Edge(1, 1, 1), Edge(1, 2, 3)), (Edge(2, 1, 1, 2),)))
    game = Game(graph, 3, None)
    state = State((PathChoice((2, 1)), PathChoice((1, 1)), PathChoice((1, 1))))
    result = load(game, state)
    assert result.arrivals[1] == (3, 1, 2)
    split_game, _ = split_capacities(game)
    split_state = map_state_to_split(game, state, result)
    assert split_state.paths == (PathChoice((2, 1)), PathChoice((1, 1)), PathChoice((1, 2)))
    assert load(split_game, split_state).arrivals == result.arrivals


def test_mapping_rejects_foreign_loading():
    graph = LinearMultigraph(((Edge(1, 1, 1, 2),),))
    game = Game(graph, 2, None)
    state = State((PathChoice((1,)), PathChoice((1,))))
    result = load(game, state)
    other = State((PathChoice((1,)), PathChoice((1,)),))
    wrong_game = Game(graph, 2, (0, 1))
    with pytest.raises(FifoRouteError, match="does not belong"):
        map_state_to_split(wrong_game, state, result)
    # equal-by-value objects are accepted even when not identical
    assert map_state_to_split(game, other, result) == map_state_to_split(game, state, result)


def test_split_preserves_arrivals_on_random_games():
    rng = random.Random(0xCA9)
    for _ in range(300):
        game = random_capacitated_game(rng)
        state = random_state(rng, game)
        result = load(game, state)
        split_game, mapping = split_capacities(game)
        for (layer, idx), copies in mapping.items():
            assert len(copies) == game.graph.edge(layer, idx).capacity
            assert list(copies) == sorted(copies)
        split_state = map_state_to_split(game, state, result)
        split_result = load(split_game, split_state)
        assert split_result.arrivals == result.arrivals
        assert split_result.completions == result.completions
        assert split_result.makespan == result.makespan


def test_split_refuses_more_edges_than_the_simulation_cap(monkeypatch):
    # the library call, not only the CLI, refuses before it builds a copy;
    # a capacity of 2**70 used to raise OverflowError from the copy list
    huge = Game(LinearMultigraph.from_transits([[1, 2]], [[1, 2**70]]), 2)
    with pytest.raises(ModelError) as err:
        split_capacities(huge)
    assert str(err.value) == f"the split game would have {2**70 + 1} edges, over the simulation cap 1000000"
    # the bound itself: a split of exactly the cap is built, one more edge is not
    monkeypatch.setattr(capacity, "SIMULATION_CAP", 6)
    at_cap = Game(LinearMultigraph.from_transits([[1, 2], [3]], [[2, 3], [1]]), 2)
    split, _ = split_capacities(at_cap)
    assert split.graph.layer_sizes == (5, 1)
    over = Game(LinearMultigraph.from_transits([[1, 2], [3]], [[2, 3], [2]]), 2)
    with pytest.raises(ModelError, match=r"^the split game would have 7 edges, over the simulation cap 6$"):
        split_capacities(over)
