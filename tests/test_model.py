"""Graph/game construction, validation and serialization."""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

import fiforoute
from fiforoute import (
    GREEDY_QUEUE,
    LOWEST_INDEX,
    SHORTEST_QUEUE,
    Edge,
    Game,
    LinearMultigraph,
    ModelError,
    PathChoice,
    State,
    all_paths,
    enumerate_equilibria,
    game_from_dict,
    game_to_dict,
    gen_lower_bound_game,
    is_ufr_equilibrium,
    kth_cheapest_path,
    load,
    load_game_file,
    min_horizon,
    path_length,
    save_game_file,
    save_state_file,
    load_state_file,
    optimal_state,
    seeded,
    sequential_equilibrium,
    state_from_dict,
    state_to_dict,
    validate_game,
    validate_state,
)
from conftest import random_game, random_state


def test_from_transits_sorts_layers_and_records_input_order():
    g = LinearMultigraph.from_transits([[3, 1, 2], [5, 5]])
    assert [e.transit for e in g.layers[0]] == [1, 2, 3]
    assert g.input_order[0] == (2, 3, 1)
    assert g.input_order[1] == (1, 2)
    assert g.edge(1, 1).transit == 1
    assert g.edge(2, 2).transit == 5


def test_edge_lookup_rejects_out_of_range():
    g = LinearMultigraph.from_transits([[1, 2]])
    with pytest.raises(ModelError, match="no such edge"):
        g.edge(1, 3)
    with pytest.raises(ModelError, match="no such edge"):
        g.edge(2, 1)
    with pytest.raises(ModelError, match="no such edge"):
        g.edge(0, 1)


def test_validate_game_flags_unsorted_layer():
    layers = (
        (Edge(1, 1, 2, 1), Edge(1, 2, 1, 1)),
    )
    with pytest.raises(ModelError, match="layer 1 not sorted"):
        Game(LinearMultigraph(layers), 2)


def test_validate_game_flags_decreasing_pattern():
    with pytest.raises(ModelError, match="starting pattern not non-decreasing"):
        Game(LinearMultigraph.from_transits([[1]]), 2, (3, 1))


def test_validate_game_checks_sizes():
    with pytest.raises(ModelError, match="starting pattern"):
        Game(LinearMultigraph.from_transits([[1]]), 2, (0,))
    with pytest.raises(ModelError, match="invalid game: player count must be >= 1"):
        Game(LinearMultigraph.from_transits([[1]]), 0)


def test_game_stores_a_list_pattern_as_a_tuple():
    pattern = [0, 0, 1]
    g = Game(LinearMultigraph.from_transits([[1]]), 3, pattern)
    pattern[0] = 5  # a later change to the list cannot unsort the game's pattern
    assert g.starting_pattern == (0, 0, 1)
    assert g == Game(LinearMultigraph.from_transits([[1]]), 3, (0, 0, 1))
    assert hash(g) == hash(Game(LinearMultigraph.from_transits([[1]]), 3, (0, 0, 1)))


def test_a_game_is_validated_once_when_built(monkeypatch, two_layer_state):
    calls = []

    def counted(game):
        calls.append(game)
        return validate_game(game)

    for name, module in list(sys.modules.items()):  # under every name a module imported it as
        if name.split(".")[0] == "fiforoute" and getattr(module, "validate_game", None) is validate_game:
            monkeypatch.setattr(module, "validate_game", counted)
    game = Game(LinearMultigraph.from_transits([[1, 2], [2]]), 3)
    assert calls == [game]
    wide = Game(LinearMultigraph.from_transits([[1, 2], [2]], [[2, 1], [1]]), 3, [0, 1, 1])
    assert calls == [game, wide]
    calls.clear()
    for g, st in ((game, two_layer_state), (wide, State((PathChoice((1, 1)),) * 3))):
        load(g, st)
        for policy in (GREEDY_QUEUE, LOWEST_INDEX, SHORTEST_QUEUE, seeded(7)):
            sequential_equilibrium(g, policy)
        is_ufr_equilibrium(g, st)
        enumerate_equilibria(g)
    min_horizon(game)
    optimal_state(game)
    assert calls == []


def test_validate_state_checks_indices_and_count():
    g = Game(LinearMultigraph.from_transits([[1, 2], [1]]), 2)
    ok = State((PathChoice((1, 1)), PathChoice((2, 1))))
    assert validate_state(g, ok) == []
    bad_count = State((PathChoice((1, 1)),))
    assert validate_state(g, bad_count)
    bad_index = State((PathChoice((3, 1)), PathChoice((1, 1))))
    assert validate_state(g, bad_index)
    bad_len = State((PathChoice((1,)), PathChoice((1, 1))))
    assert validate_state(g, bad_len)


def test_validate_state_reports_every_player_of_a_shared_path():
    g = Game(LinearMultigraph.from_transits([[1, 2], [1]]), 4)
    bad, short, ok = PathChoice((3, 1)), PathChoice((1,)), PathChoice((1, 1))
    assert validate_state(g, State((bad, ok, bad, short))) == [
        "player 1: layer 1 has no edge 3",
        "player 3: layer 1 has no edge 3",
        "player 4: path has 1 layers, graph has 2",
    ]
    assert validate_state(g, State((short, short, ok, ok))) == [
        "player 1: path has 1 layers, graph has 2",
        "player 2: path has 1 layers, graph has 2",
    ]


def test_state_from_dict_shares_rows_only_in_a_file_of_plain_ints():
    plain = state_from_dict({"paths": [[1, 2], [2, 1], [1, 2]]})
    assert plain.paths[0] is plain.paths[2] and plain.paths[0] is not plain.paths[1]
    mixed = state_from_dict({"paths": [[1, 2], [True, 2], [1, 2], [1.0, 2]]})
    assert len(set(map(id, mixed.paths))) == 4
    assert [type(p.edge_indices[0]) for p in mixed.paths] == [int, bool, int, float]


def test_path_length_sums_transits():
    g = LinearMultigraph.from_transits([[1, 4], [2]])
    assert path_length(g, PathChoice((2, 1))) == 6
    with pytest.raises(ModelError, match="no such edge"):
        path_length(g, PathChoice((3, 1)))


def test_kth_cheapest_path_uses_rank_per_layer():
    g = LinearMultigraph.from_transits([[1, 2, 3], [1, 5, 9]])
    assert kth_cheapest_path(g, 1).edge_indices == (1, 1)
    assert kth_cheapest_path(g, 3).edge_indices == (3, 3)
    with pytest.raises(ModelError, match="decomposition exhausted"):
        kth_cheapest_path(g, 4)


def test_kth_cheapest_lengths_non_decreasing():
    rng = random.Random(7)
    for _ in range(200):
        g = random_game(rng).graph
        k = min(len(layer) for layer in g.layers)
        lengths = [path_length(g, kth_cheapest_path(g, j)) for j in range(1, k + 1)]
        assert lengths == sorted(lengths)


def test_all_paths_lexicographic():
    g = LinearMultigraph.from_transits([[1, 2], [1, 1]])
    assert [p.edge_indices for p in all_paths(g)] == [
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    ]


def test_game_json_round_trip_bit_exact(tmp_path):
    rng = random.Random(11)
    for _ in range(300):
        game = random_game(rng, with_pattern=rng.random() < 0.5)
        blob = json.dumps(game_to_dict(game), sort_keys=True)
        again = game_from_dict(json.loads(blob))
        # an all-zero pattern canonicalizes to the omitted form, so compare
        # the semantic content plus the serialized bytes
        assert again.graph == game.graph
        assert again.n == game.n
        assert again.start_times() == game.start_times()
        assert json.dumps(game_to_dict(again), sort_keys=True) == blob


def test_state_json_round_trip(tmp_path):
    rng = random.Random(12)
    for _ in range(200):
        game = random_game(rng)
        state = random_state(rng, game)
        assert state_from_dict(state_to_dict(state)) == state


def test_game_file_round_trip_preserves_input_order(tmp_path):
    g = Game(LinearMultigraph.from_transits([[3, 1, 2]]), 2)
    path = tmp_path / "game.json"
    save_game_file(g, str(path))
    data = json.loads(path.read_text())
    assert data["layers"] == [[3, 1, 2]]
    assert load_game_file(str(path)) == g


def test_state_file_round_trip(tmp_path):
    st = State((PathChoice((1, 2)), PathChoice((2, 1))))
    path = tmp_path / "state.json"
    save_state_file(st, str(path))
    assert load_state_file(str(path)) == st


def test_file_writers_write_dumps_of_the_dict_form(tmp_path):
    # pins the bytes: a file is json.dumps of game_to_dict / state_to_dict and a newline
    graph = LinearMultigraph.from_transits([[3, 1, 2], [2, 2]], [[2, 1, 1], [1, 3]])
    game = Game(graph, 4, (0, 0, 1, 5))
    path = tmp_path / "game.json"
    save_game_file(game, str(path))
    assert path.read_bytes() == (json.dumps(game_to_dict(game)) + "\n").encode()
    a, b = PathChoice((1, 2)), PathChoice((2, 1))
    for st in (optimal_state(gen_lower_bound_game(2)).state, State((a, b, a, a, b))):
        path = tmp_path / "state.json"
        save_state_file(st, str(path))
        assert path.read_bytes() == (json.dumps(state_to_dict(st)) + "\n").encode()


def test_load_game_file_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ModelError, match="invalid JSON"):
        load_game_file(str(path))


def test_game_from_dict_rejects_missing_fields():
    with pytest.raises(ModelError):
        game_from_dict({"layers": [[1]]})
    with pytest.raises(ModelError):
        game_from_dict({"n": 2})


def test_capacities_survive_round_trip():
    layers = ((Edge(1, 1, 1, 2), Edge(1, 2, 3, 1)),)
    g = Game(LinearMultigraph(layers), 2, (0, 1))
    data = game_to_dict(g)
    assert data["capacities"] == [[2, 1]]
    assert game_from_dict(data) == g


def test_import_leaves_numpy_unloaded():
    # the package has no runtime dependencies; numpy serves the tests and perfbench only
    src = os.path.dirname(os.path.dirname(fiforoute.__file__))
    code = "import fiforoute, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True)
