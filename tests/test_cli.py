"""Command-line interface: output shapes, exit codes, argument validation."""
import json

import pytest

from fiforoute import (
    Edge,
    Game,
    LinearMultigraph,
    PathChoice,
    State,
    enumerate_equilibria,
    gen_lower_bound_game,
    load,
    optimal_state,
    save_game_file,
    save_state_file,
    sequential_equilibrium,
    trace_rows,
)
from fiforoute.cli import LOWERBOUND_COLUMNS, main


@pytest.fixture
def two_layer_files(tmp_path, two_layer_game, two_layer_state):
    g = tmp_path / "game.json"
    s = tmp_path / "state.json"
    save_game_file(two_layer_game, str(g))
    save_state_file(two_layer_state, str(s))
    return str(g), str(s)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TWO_LAYER = {"layers": [[1, 2], [2]], "n": 3}
TWO_LAYER_PATHS = {"paths": [[1, 1], [2, 1], [1, 1]]}
HUGE_START = {"layers": [[1]], "n": 2, "starting_pattern": [2**63 - 1, 2**63 - 1]}
HUGE_N = {"layers": [[1, 2]], "n": 10**11}  # refused before one column of n entries is built
ZERO_CAPACITY = dict(TWO_LAYER, capacities=[[1, 0], [1]])


@pytest.mark.parametrize(
    "command, game, state, message",
    [
        ("load", {"layers": [[1, "2"], [2]], "n": 3}, TWO_LAYER_PATHS, "'layers'"),
        ("load", TWO_LAYER, {"paths": [[1, 1], ["2", 1], [1, 1]]}, "has no edge '2'"),
        ("load", dict(TWO_LAYER, starting_pattern=[0, "1", 2]), TWO_LAYER_PATHS, "'starting_pattern'"),
        ("eq", {"layers": [[1, "2"], [2]], "n": 3}, None, "'layers'"),
        ("eq", dict(TWO_LAYER, starting_pattern=[0, "1", 2]), None, "'starting_pattern'"),
        ("opt", {"layers": [[1, "2"], [2]], "n": 3}, None, "'layers'"),
        ("opt", dict(TWO_LAYER, starting_pattern=[0, "1", 2]), None, "'starting_pattern'"),
        ("split", ZERO_CAPACITY, None, "capacity must be an integer >= 1"),
        ("load", HUGE_START, {"paths": [[1], [1]]}, "int64"),
        ("eq", HUGE_START, None, "int64"),
        ("enumerate", HUGE_START, None, "int64"),
        ("check-ufr", HUGE_START, {"paths": [[1], [1]]}, "int64"),
        ("check-ufr", TWO_LAYER, {"paths": [[3, 1], [2, 1], [1, 1]]}, "has no edge 3"),
        ("enumerate", {"layers": [[1, 1, 1]], "n": 10_000}, None, "budget"),
        ("check-ufr", {"layers": [[1, 1, 1]] * 10_000, "n": 1}, {"paths": [[1] * 10_000]}, "budget"),
        # True and 1.0 equal 1 but are not edge indices, and a list is not hashable
        ("load", TWO_LAYER, {"paths": [[1, 1], [True, 1], [1.0, 1]]},
         "game: player 2: layer 1 has no edge True; player 3: layer 1 has no edge 1.0"),
        ("load", TWO_LAYER, {"paths": [[1, 1], [[1], 1], [1, 1]]}, "game: player 2: layer 1 has no edge [1]"),
        ("eq", HUGE_N, None, "n = 100000000000 exceeds the simulation cap 1000000"),
        ("opt", HUGE_N, None, "n = 100000000000 exceeds the simulation cap 1000000"),
        ("poa", HUGE_N, None, "n = 100000000000 exceeds the simulation cap 1000000"),
        ("enumerate", {"layers": [[1]], "n": 10**11}, None, "n = 100000000000 exceeds the simulation cap 1000000"),
        ("enumerate", ZERO_CAPACITY, None, "capacity must be an integer >= 1"),
        ("check-ufr", ZERO_CAPACITY, TWO_LAYER_PATHS, "capacity must be an integer >= 1"),
        ("flow", ZERO_CAPACITY, TWO_LAYER_PATHS, "capacity must be an integer >= 1"),
        ("poa", ZERO_CAPACITY, None, "capacity must be an integer >= 1"),
    ],
    ids=[
        "load-layers", "load-paths", "load-pattern", "eq-layers", "eq-pattern", "opt-layers", "opt-pattern",
        "split-capacity", "load-huge-start", "eq-huge-start", "enumerate-huge-start",
        "check-ufr-huge-start", "check-ufr-paths", "enumerate-many-states", "check-ufr-many-paths",
        "load-paths-equal-to-1", "load-paths-list-entry", "eq-huge-n", "opt-huge-n", "poa-huge-n",
        "enumerate-huge-n", "enumerate-capacity", "check-ufr-capacity", "flow-capacity", "poa-capacity",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, command, game, state, message):
    g = tmp_path / "game.json"
    g.write_text(json.dumps(game))
    argv = [command, str(g)]
    if state is not None:
        s = tmp_path / "state.json"
        s.write_text(json.dumps(state))
        argv.append(str(s))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "content",
    [
        b'{"layers": [[1, 2], [2]], "n": 3, "note": "\xff"}',
        b"[" * 100_000 + b"]" * 100_000,
        b'{"layers": [[1, 2], [2]], "n": 1' + b"0" * 5_000 + b"}",
    ],
    ids=["not-utf8", "nested-100000-deep", "integer-of-5000-digits"],
)
def test_unreadable_json_exits_2(tmp_path, two_layer_files, capsys, content):
    # as a game file and as a state file
    g, s = two_layer_files
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for argv in (("eq", str(bad)), ("load", g, str(bad))):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "invalid JSON" in err


def test_load_reports_arrivals(two_layer_files, capsys):
    g, s = two_layer_files
    code, out, _ = run(capsys, "load", g, s)
    assert code == 0
    report = json.loads(out)
    # arrivals are per node: row j holds every player's arrival time at v_j
    assert report["arrivals"] == [[0, 0, 0], [1, 2, 2], [3, 4, 5]]
    assert report["completions"] == [3, 4, 5]
    assert report["makespan"] == 5
    assert "trace" not in report


def test_load_trace_json_and_csv(two_layer_files, capsys):
    g, s = two_layer_files
    code, out, _ = run(capsys, "load", g, s, "--trace")
    assert code == 0
    trace = json.loads(out)["trace"]
    assert [0, "1:1", "depart", 1] in trace
    assert [3, "2:1", "arrive", 1] in trace

    code, out, _ = run(capsys, "load", g, s, "--trace", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "time,edge,event,player"
    assert len(lines) == len(trace) + 1
    assert lines[1] == "0,1:1,enqueue,1"


def test_load_csv_without_trace_is_an_error(two_layer_files, capsys):
    g, s = two_layer_files
    code, out, err = run(capsys, "load", g, s, "--format", "csv")
    assert code == 2
    assert out == ""
    assert "csv output for load requires --trace" in err


def test_bad_input_files(tmp_path, two_layer_files, capsys):
    g, s = two_layer_files
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    code, _, err = run(capsys, "load", str(junk), s)
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "load", g, str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("error:")


def test_eq_policies(two_layer_files, capsys):
    g, _ = two_layer_files
    code, out, _ = run(capsys, "eq", g)
    assert code == 0
    report = json.loads(out)
    assert report["policy"] == "greedy-queue"
    assert report["paths"] == [[1, 1], [1, 1], [2, 1]]
    assert report["makespan"] == 5

    code, out, _ = run(capsys, "eq", g, "--policy", "seeded:7")
    assert json.loads(out)["policy"] == "seeded:7"
    code, out, _ = run(capsys, "eq", g, "--policy", "seeded", "--seed", "9")
    assert json.loads(out)["policy"] == "seeded:9"


def test_opt_reports_plan(two_layer_files, capsys):
    g, _ = two_layer_files
    code, out, _ = run(capsys, "opt", g)
    assert code == 0
    report = json.loads(out)
    assert report["horizon"] == 5
    assert report["paths"] == [[1, 1]]
    assert report["counts"] == [3]
    assert report["deltas"] == []
    assert report["certificate"] == [2, 3]


def test_poa_on_second_family_game(tmp_path, capsys):
    g = tmp_path / "family2.json"
    save_game_file(gen_lower_bound_game(2), str(g))
    code, out, _ = run(capsys, "poa", str(g))
    assert code == 0
    report = json.loads(out)
    assert report["worst_eq_makespan"] == 243
    assert report["opt_horizon"] == 170
    assert report["ratio"] == "243/170"
    assert report["ratio_decimal"] == pytest.approx(243 / 170)


def test_lowerbound_single_row_csv(capsys):
    code, out, _ = run(capsys, "lowerbound", "--i", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(LOWERBOUND_COLUMNS)
    fields = lines[1].split(",")
    assert fields[: 4] == ["1", "3", "1", "6"]
    assert fields[4] == "4"
    assert fields[7] == "1/1"


def test_lowerbound_range_json(capsys):
    code, out, _ = run(
        capsys, "lowerbound", "--i-range", "1..3", "--mode", "analytic", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["i"] for r in rows] == [1, 2, 3]
    assert all(r["eq_source"] == "formula" for r in rows)
    assert rows[1]["ratio_exact"] == "243/170"
    assert rows[2]["n"] == 362880


def test_lowerbound_argument_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lowerbound"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lowerbound", "--i", "1", "--i-range", "1..2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lowerbound", "--i-range", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lowerbound", "--i-range", "3..1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_lowerbound_simulation_cap(capsys):
    code, _, err = run(capsys, "lowerbound", "--i", "2", "--cap", "100")
    assert code == 2
    assert "use analytic mode" in err


def test_enumerate_lists_both_equilibria(two_layer_files, capsys):
    g, _ = two_layer_files
    code, out, _ = run(capsys, "enumerate", g)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 2
    assert report["equilibria"][0]["paths"] == [[1, 1], [1, 1], [2, 1]]
    assert {e["makespan"] for e in report["equilibria"]} == {5}


def test_enumerate_state_budget(two_layer_files, capsys):
    g, _ = two_layer_files
    code, _, err = run(capsys, "enumerate", g, "--state-budget", "2")
    assert code == 2
    assert err.startswith("error:")


def test_reports_are_dumps_of_the_library_results(nine_player_game, nine_player_state, tmp_path, capsys):
    # pins stdout to json.dumps of each report built from the library with lists, and a newline
    game, state = nine_player_game, nine_player_state
    g, s = str(tmp_path / "nine.json"), str(tmp_path / "nine_state.json")
    save_game_file(game, g)
    save_state_file(state, s)
    budget = game.num_paths() ** game.n

    def lists(paths):
        return [list(p.edge_indices) for p in paths]

    result = load(game, state)
    loaded = {
        "arrivals": [list(row) for row in result.arrivals],
        "completions": list(result.completions),
        "makespan": result.makespan,
    }
    eq = sequential_equilibrium(game)
    plan = optimal_state(game)
    states = enumerate_equilibria(game, state_budget=budget)
    reports = [
        (("load", g, s), loaded),
        (("load", g, s, "--trace"), dict(loaded, trace=[list(row) for row in trace_rows(result)])),
        (("eq", g), {"policy": "greedy-queue", "paths": lists(eq.paths), "makespan": load(game, eq).makespan}),
        (
            ("opt", g),
            {
                "horizon": plan.horizon,
                "paths": lists(plan.paths),
                "counts": list(plan.counts),
                "deltas": list(plan.deltas),
                "certificate": list(plan.certificate),
            },
        ),
        (
            ("enumerate", g, "--state-budget", str(budget)),
            {
                "count": len(states),
                "equilibria": [{"paths": lists(st.paths), "makespan": load(game, st).makespan} for st in states],
            },
        ),
    ]
    for argv, report in reports:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert out == json.dumps(report) + "\n", argv


def test_check_ufr_verdicts(two_layer_files, nine_player_game, nine_player_state, tmp_path, capsys):
    g, s = two_layer_files
    code, out, _ = run(capsys, "check-ufr", g, s)
    assert code == 0
    assert json.loads(out) == {"equilibrium": True}

    g9 = tmp_path / "nine.json"
    s9 = tmp_path / "nine_state.json"
    save_game_file(nine_player_game, str(g9))
    save_state_file(nine_player_state, str(s9))
    code, out, _ = run(capsys, "check-ufr", str(g9), str(s9))
    assert code == 1
    report = json.loads(out)
    assert report["equilibrium"] is False
    assert report["witness"] == {
        "player": 8,
        "node": "v_1",
        "deviation": [2, 1, 1],
        "improved_arrival": 3,
    }


def test_flow_command(two_layer_files, capsys):
    g, s = two_layer_files
    code, out, _ = run(capsys, "flow", g, s)
    assert code == 0
    report = json.loads(out)
    assert report["horizon"] == 6
    assert "feasible" not in report

    code, out, _ = run(capsys, "flow", g, s, "--check")
    assert code == 0
    report = json.loads(out)
    assert report["feasible"] is True
    assert report["violations"] == []


def test_split_command(tmp_path, capsys):
    graph = LinearMultigraph(((Edge(1, 1, 1, 2),),))
    game = Game(graph, 2, None)
    state = State((PathChoice((1,)), PathChoice((1,))))
    g = tmp_path / "wide.json"
    s = tmp_path / "wide_state.json"
    save_game_file(game, str(g))
    save_state_file(state, str(s))

    code, out, _ = run(capsys, "split", str(g))
    assert code == 0
    report = json.loads(out)
    assert report["mapping"] == {"1:1": [1, 2]}
    assert "state" not in report

    code, out, _ = run(capsys, "split", str(g), str(s))
    assert code == 0
    report = json.loads(out)
    assert report["state"]["paths"] == [[1], [2]]
    assert report["makespan"] == 1
    assert report["split_makespan"] == 1
