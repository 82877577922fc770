"""Graph/game construction, validation and serialization."""
from __future__ import annotations

import json
import os
import pickle
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


def test_from_transits_names_a_layer_whose_transits_do_not_compare():
    # used to raise TypeError from the sort, before Game could name the entry
    for transits in ([[1, "a"]], [[1], [2, None, 1]]):
        with pytest.raises(ModelError, match=rf"^layer {len(transits)}: transits must be integers$"):
            LinearMultigraph.from_transits(transits)
    # values that do compare are sorted, and Game names the one of the wrong type
    with pytest.raises(ModelError, match=r"invalid game: layer 1 edge 2: transit must be an integer >= 1$"):
        Game(LinearMultigraph.from_transits([[2.5, 1]]), 1)


def test_from_transits_rejects_rows_that_are_not_sequences():
    # used to raise TypeError from len or enumerate
    cases = [
        (([[1], 5],), "layer 2: transits must be a list"),
        (([[1]], [5]), "layer 1: capacities must be a list as long as its transits"),
        (([[1], [1, 2]], [[1], [1]]), "layer 2: capacities must be a list as long as its transits"),
        ((5,), "transits must be a sequence of per-layer lists"),
        (([[1]], 5), "capacities must have one list per layer"),
    ]
    for args, message in cases:
        with pytest.raises(ModelError, match=rf"^{message}$"):
            LinearMultigraph.from_transits(*args)


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
    for n in (2.5, 2.0, True, "3"):
        with pytest.raises(ModelError, match="invalid game: player count must be an integer$"):
            Game(LinearMultigraph.from_transits([[1, 2]]), n)


def test_game_reports_values_of_the_wrong_type():
    # every value of the wrong type gets a ModelError naming it; no order
    # test compares it and no table hashes it
    for transit in ("x", None):
        with pytest.raises(ModelError, match=r"invalid game: layer 1 edge 1: transit must be an integer >= 1$"):
            Game(LinearMultigraph(((Edge(1, 1, transit), Edge(1, 2, 1)),)), 1)
    g = LinearMultigraph.from_transits([[1, 2]])
    for pattern in ([0, None], (0, "a")):
        with pytest.raises(ModelError, match=r"invalid game: starting pattern entries must be integers >= 0$"):
            Game(g, 2, pattern)
    with pytest.raises(ModelError, match=r"invalid game: starting pattern must be a sequence of integers$"):
        Game(g, 2, 5)
    with pytest.raises(ModelError, match=r"invalid game: layer 1 edge 1: capacity must be an integer >= 1$"):
        Game(LinearMultigraph(((Edge(1, 1, 1, [2]),),)), 1)


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


def _sharing(state: State) -> list[int]:
    """For each player, the first player holding the same PathChoice object."""
    first: dict[int, int] = {}
    return [first.setdefault(id(p), i) for i, p in enumerate(state.paths)]


def _read_through_json_load(path: str) -> State:
    with open(path, encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))


def _read_both_ways(path) -> tuple:
    """load_state_file and state_from_dict(json.load(...)) of one file, each
    as (repr, sharing), "invalid JSON" or the ModelError message."""
    results = []
    for read in (load_state_file, _read_through_json_load):
        try:
            state = read(str(path))
        except ValueError:
            results.append("invalid JSON")
        except ModelError as err:
            results.append("invalid JSON" if "invalid JSON" in str(err) else str(err))
        else:
            results.append((repr(state), _sharing(state)))
    return tuple(results)


ROWS = [[1, 2], [2, 1], [1, 2], [1, 2]]


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"paths": ROWS}) + "\n",
        json.dumps({"paths": ROWS}, separators=(",", ":")),
        json.dumps({"paths": ROWS}, indent=2),
        json.dumps({"paths": ROWS}).replace("], [", "],\r\n [") + "  \r\n",
        json.dumps({"paths": ROWS}) + " \t \r\n  ",
        json.dumps({"paths": ROWS}) + "\x0c",
        " " + json.dumps({"paths": ROWS}),
        json.dumps({"paths": ROWS})[:-1],
        '{"paths": [[1, 2], [ 1, 2 ], [1,2], [2, 1], [1, 2], [1, 2], [ 1, 2 ], [1,2]]}',
        '{"paths": [[1], [1], [1], [1], [2],[3], [4]]}',
        '{"paths": [[1, 2], [1, [2]], [1, 2], [1, 2], [1, 2]]}',
        '{"paths": [[1, 2], [1, 2], [1, 2], [1, 2]], "x": [[1, 2]]}',
        '{"x": 1, "paths": [[1, 2], [1, 2]]}',
        '{"paths": [[9, 9]], "paths": [[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], [2, 1]]}',
        '{"paths": [[1]], "paths": [2, [3]]}',
        '{"paths": [[1, 2], [true, 2], [1, 2], [1.0, 2], [1, 2], [true, 2], [1, 2]]}',
        '{"paths": [[-1, 2], [3, 1], [-1, 2], [3, 1]]}',
        '{"paths": [[1, 2], [2, 1], [2, 2], [1, 2]]}',
        '{"paths": [[12345678901234567890, 1], [12345678901234567890, 1]]}',
        '{"paths": []}',
        '{"paths": [[]]}',
        '{"paths": [[], [1, 2], [], []]}',
    ],
    ids=[
        "writer", "compact", "indent-2", "crlf-between-rows", "trailing-whitespace",
        "trailing-form-feed", "leading-space", "unclosed", "spaced-rows",
        "bracket-in-a-row", "nested-entry", "extra-key-after", "extra-key-before", "duplicate-key",
        "duplicate-key-not-rows", "true-and-float", "negative-and-out-of-range", "mostly-distinct", "long-int",
        "no-paths", "one-empty-path", "empty-paths",
    ],
)
def test_load_state_file_reads_like_state_from_dict(tmp_path, text):
    # the writer's form takes its own path; every text must still read as
    # state_from_dict reads the JSON, down to types and shared PathChoices
    path = tmp_path / "state.json"
    path.write_bytes(text.encode())
    fast, reference = _read_both_ways(path)
    assert fast == reference


def test_load_state_file_shares_equal_rows_and_keeps_per_player_messages(tmp_path):
    game = Game(LinearMultigraph.from_transits([[1, 2], [1, 2]]), 5)
    path = tmp_path / "state.json"
    path.write_text('{"paths": [[1, 2], [ 1, 2 ], [1,2], [2, 1], [1, 2], [1, 2], [1, 2], [1, 2]]}')
    state = load_state_file(str(path))
    assert _sharing(state) == [0, 0, 0, 3, 0, 0, 0, 0]
    path.write_text('{"paths": [[-1, 2], [3, 1], [-1, 2], [true, 2], [1.0, 2]]}')
    assert validate_state(game, load_state_file(str(path))) == [
        "player 1: layer 1 has no edge -1",
        "player 2: layer 1 has no edge 3",
        "player 3: layer 1 has no edge -1",
        "player 4: layer 1 has no edge True",
        "player 5: layer 1 has no edge 1.0",
    ]


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
    states = (
        optimal_state(gen_lower_bound_game(2)).state,
        State((a, b, a, a, b)),
        State(tuple(PathChoice((1, 2)) for _ in range(3)) + (b, PathChoice(()))),  # equal, unshared
        State((a,) * 6 + (PathChoice((1, 2)), PathChoice((1, 2)), PathChoice(()), PathChoice(()))),
        sequential_equilibrium(gen_lower_bound_game(2), GREEDY_QUEUE),
        State(()),
        State((a, a, a, a, PathChoice((True, 2)), PathChoice((1.0, 2)))),
        State((a, a, a, a, PathChoice(((1,), (2,))), PathChoice(('], [',)))),
    )
    for st in states:
        path = tmp_path / "state.json"
        save_state_file(st, str(path))
        assert path.read_bytes() == (json.dumps(state_to_dict(st)) + "\n").encode()


def test_unit_capacity_is_a_field_computed_when_the_graph_is_built():
    unit = LinearMultigraph.from_transits([[1, 2], [3]])
    wide = LinearMultigraph.from_transits([[1, 2], [3]], [[1, 2], [1]])
    assert unit.all_unit_capacity() is unit.unit_capacity is True
    assert wide.all_unit_capacity() is wide.unit_capacity is False
    again = LinearMultigraph(unit.layers)
    assert again == unit and hash(again) == hash(unit)
    # not in the repr, and in the pickle whether or not it was read
    assert "unit_capacity" not in repr(wide)
    fresh = pickle.dumps(LinearMultigraph(wide.layers, wide.input_order))
    assert pickle.dumps(wide) == fresh
    assert pickle.loads(fresh).unit_capacity is False


def test_transit_and_capacity_tables_are_fields_computed_when_the_graph_is_built():
    unsorted = LinearMultigraph.from_transits([[3, 1, 2], [5]], [[1, 2, 3], [4]])
    direct = LinearMultigraph(((Edge(1, 1, 1, 2), Edge(1, 2, 2, 3), Edge(1, 3, 3, 1)), (Edge(2, 1, 5, 4),)))
    for g in (unsorted, direct):
        assert g.transits == ((1, 2, 3), (5,))
        assert g.capacities == ((2, 3, 1), (4,))
        assert g.layer_sizes == (3, 1) and type(g.layer_sizes) is tuple
        assert g.transits == tuple(tuple(e.transit for e in layer) for layer in g.layers)
        assert g.capacities == tuple(tuple(e.capacity for e in layer) for layer in g.layers)
        # tuples all the way down, so no kernel can change them between calls
        assert all(type(row) is tuple for table in (g.transits, g.capacities) for row in (table, *table))
    # not in the repr, and no part of == or hash
    assert "transits" not in repr(direct) and "capacities" not in repr(direct) and "layer_sizes" not in repr(direct)
    other = LinearMultigraph(direct.layers)
    object.__setattr__(other, "transits", ())
    object.__setattr__(other, "capacities", ())
    object.__setattr__(other, "layer_sizes", ())
    assert other == direct and hash(other) == hash(direct)
    # in the pickle whether or not they were read, and whole after unpickling
    untouched = pickle.dumps(LinearMultigraph(unsorted.layers, unsorted.input_order))
    assert unsorted.transits and unsorted.capacities
    assert pickle.dumps(unsorted) == untouched
    back = pickle.loads(untouched)
    assert (back.transits, back.capacities) == (((1, 2, 3), (5,)), ((2, 3, 1), (4,)))
    assert back.layer_sizes == (3, 1)
    assert back.unit_capacity is False


def test_padded_capacities_are_a_field_computed_when_the_game_is_built():
    graph = LinearMultigraph.from_transits([[2, 1, 3], [1, 1], [4]], [[2**70, 1, 3], [1, 1], [2]])
    padded = {n: Game(graph, n).padded_capacities for n in (1, 2, 3, 4)}
    # None on a layer of unit edges, min(c, n) in sorted edge order on any other;
    # at n = 1 a wide layer stays wide, its capacities all 1
    assert padded[4] == ((1, 4, 3), None, (2,))
    assert padded[3] == ((1, 3, 3), None, (2,))
    assert padded[2] == ((1, 2, 2), None, (2,))
    assert padded[1] == ((1, 1, 1), None, (1,))
    assert Game(LinearMultigraph.from_transits([[1, 2], [3]]), 5).padded_capacities == (None, None)
    game = Game(graph, 3, (0, 1, 1))
    # tuples all the way down, so no kernel can change them between calls
    assert all(type(row) is tuple for row in (game.padded_capacities, *filter(None, game.padded_capacities)))
    # not in the repr, and no part of == or hash
    assert "padded_capacities" not in repr(game)
    other = Game(graph, 3, (0, 1, 1))
    object.__setattr__(other, "padded_capacities", ())
    assert other == game and hash(other) == hash(game)
    # in the pickle, and whole after unpickling
    back = pickle.loads(pickle.dumps(game))
    assert back.padded_capacities == ((1, 3, 3), None, (2,))


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
