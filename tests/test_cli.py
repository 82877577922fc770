"""Command-line interface: output shapes, exit codes, argument validation."""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

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
    lower_bound_row,
    optimal_state,
    save_game_file,
    save_state_file,
    sequential_equilibrium,
    trace_rows,
)
from fiforoute.cli import _load_report, main


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


def assert_same_text(got: str, expected: str, what) -> None:
    """Require got == expected. On a mismatch fail at once with the first
    differing offset and a short window around it, rather than leave a
    report of megabytes to the assertion rewriter's diff."""
    if got == expected:
        return
    lo, hi = 0, min(len(got), len(expected))  # the common prefix is lo..hi long
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if got[:mid] == expected[:mid]:
            lo = mid
        else:
            hi = mid - 1
    window = slice(max(lo - 40, 0), lo + 40)
    pytest.fail(
        f"{what}: first difference at offset {lo} (lengths {len(got)} and {len(expected)}):\n"
        f"  got      {got[window]!r}\n  expected {expected[window]!r}",
        pytrace=False,
    )


def test_assert_same_text_points_at_the_first_difference():
    assert_same_text("[1, 2]", "[1, 2]", "equal")
    for got, expected, offset in (("[1, 2, 3]", "[1, 5, 3]", 4), ("[1, 2]", "[1, 2]\n", 6), ("x", "", 0)):
        with pytest.raises(pytest.fail.Exception, match=f"first difference at offset {offset} "):
            assert_same_text(got, expected, "case")


TWO_LAYER = {"layers": [[1, 2], [2]], "n": 3}
TWO_LAYER_PATHS = {"paths": [[1, 1], [2, 1], [1, 1]]}
HUGE_START = {"layers": [[1]], "n": 2, "starting_pattern": [2**63 - 1, 2**63 - 1]}
# a start of 4301 digits, one more than Python reads from text: the one bound on starts
START_PAST_READING = '{"layers": [[1]], "n": 2, "starting_pattern": [1' + "0" * 4300 + ', 0]}'
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
        ("load", START_PAST_READING, {"paths": [[1], [1]]}, "invalid JSON"),
        ("eq", START_PAST_READING, None, "invalid JSON"),
        ("enumerate", START_PAST_READING, None, "invalid JSON"),
        ("check-ufr", START_PAST_READING, {"paths": [[1], [1]]}, "invalid JSON"),
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
    g.write_text(game if isinstance(game, str) else json.dumps(game))
    argv = [command, str(g)]
    if state is not None:
        s = tmp_path / "state.json"
        s.write_text(json.dumps(state))
        argv.append(str(s))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_starts_past_int64_shift_every_output_time(tmp_path, capsys):
    # HUGE_START is the zero-start game moved by 2**63 - 1: each time in the
    # output moves by as much, and everything else stays the same
    shift = 2**63 - 1
    s = tmp_path / "state.json"
    s.write_text(json.dumps({"paths": [[1], [1]]}))
    outputs = {}
    for name, game in (("zero", {"layers": [[1]], "n": 2}), ("huge", HUGE_START)):
        g = tmp_path / f"{name}.json"
        g.write_text(json.dumps(game))
        commands = (["load", g, s], ["eq", g], ["enumerate", g], ["check-ufr", g, s])
        outputs[name] = [run(capsys, *map(str, argv)) for argv in commands]
    assert [(code, err) for code, _, err in outputs["zero"]] == [(0, "")] * 4
    loaded, eq, enumerated, verdict = (json.loads(out) for _, out, _ in outputs["zero"])
    loaded["arrivals"] = [[t + shift for t in row] for row in loaded["arrivals"]]
    loaded["completions"] = loaded["arrivals"][-1]
    loaded["makespan"] += shift
    eq["makespan"] += shift
    for found in enumerated["equilibria"]:
        found["makespan"] += shift
    assert verdict == {"equilibrium": True}
    expected = [(0, json.dumps(report) + "\n", "") for report in (loaded, eq, enumerated, verdict)]
    assert outputs["huge"] == expected


BIG_TRANSITS = {"layers": [[9 * 10**4299], [9 * 10**4299]], "n": 1}  # 4300 digits each, the most JSON reads


@pytest.mark.parametrize(
    "argv, game, state",
    [
        (["opt"], BIG_TRANSITS, None),
        (["eq"], BIG_TRANSITS, None),
        (["load"], {"layers": [[1]], "n": 1, "starting_pattern": [10**4300 - 1]}, {"paths": [[1]]}),
        (["lowerbound", "--i", "574", "--mode", "analytic"], None, None),
        (
            ["load", "--trace", "--format", "csv"],
            {"layers": [[1]], "n": 2, "starting_pattern": [10**4300 - 1] * 2},
            {"paths": [[1], [1]]},
        ),
    ],
    ids=["opt", "eq", "load", "lowerbound-574", "load-trace-csv"],
)
def test_results_too_long_to_print_exit_2(tmp_path, capsys, argv, game, state):
    # each result holds an int of 4301 digits, which Python refuses to print;
    # nothing is printed before it, not even the trace rows of 4300 digits
    for content, name in ((game, "game.json"), (state, "state.json")):
        if content is not None:
            (tmp_path / name).write_text(json.dumps(content))
            argv = [*argv, str(tmp_path / name)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    digits = sys.get_int_max_str_digits()
    assert err == f"error: a result has an integer of over {digits} digits, Python's limit for printing one\n"


@pytest.mark.parametrize("capacity", [2**70, 10**15], ids=["2**70", "10**15"])
def test_huge_capacities_give_the_results_of_capacity_n(tmp_path, capsys, capacity):
    # n = 2: a capacity of 2 or more serves both players at once, so every
    # command answers as for capacity 2; split, which builds one unit copy per
    # unit of capacity, is refused
    s = tmp_path / "state.json"
    s.write_text(json.dumps({"paths": [[2], [2]]}))
    results = {}
    for c in (2, capacity):
        g = tmp_path / f"game{c}.json"
        g.write_text(json.dumps({"layers": [[1, 2]], "n": 2, "capacities": [[1, c]]}))
        commands = (["load", g, s], ["eq", g], ["enumerate", g], ["check-ufr", g, s], ["flow", g, s], ["poa", g])
        results[c] = [run(capsys, *map(str, argv)) for argv in commands]
    assert results[capacity] == results[2]
    assert [code for code, _, _ in results[2]] == [0, 0, 0, 1, 0, 2]
    code, out, err = run(capsys, "split", str(tmp_path / f"game{capacity}.json"), str(s))
    assert (code, out) == (2, "")
    assert err == f"error: the split game would have {capacity + 1} edges, over the simulation cap 1000000\n"


UNREADABLE = [
    b'{"layers": [[1, 2], [2]], "n": 3, "note": "\xff"}',
    b"[" * 100_000 + b"]" * 100_000,
    b'{"layers": [[1, 2], [2]], "n": 1' + b"0" * 5_000 + b"}",
]


@pytest.mark.parametrize(
    "content",
    UNREADABLE + [b'{"paths": [[1], [1], [1], [' + content + b"]]}" for content in UNREADABLE],
    ids=["not-utf8", "nested-100000-deep", "integer-of-5000-digits"]
    + ["paths-not-utf8", "paths-nested-100000-deep", "paths-integer-of-5000-digits"],
)
def test_unreadable_json_exits_2(tmp_path, two_layer_files, capsys, content):
    # as a game file and as a state file; the paths- cases have the state
    # writer's frame and a repeated row, so the reader's per-row parse meets
    # them first
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
    code, out, _ = run(capsys, "eq", g, "--policy", "seeded")
    assert json.loads(out)["policy"] == "seeded:0"
    assert run(capsys, "eq", g, "--policy", "seeded:x") == (2, "", "error: bad seed in policy 'seeded:x'\n")
    with pytest.raises(SystemExit) as exc:  # a seed goes in the policy name only
        main(["eq", g, "--policy", "seeded", "--seed", "9"])
    assert exc.value.code == 2


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
    assert lines[0] == ",".join(lower_bound_row(1))
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
    for argv, message in [
        (["--i-range", "a..b"], "argument --i-range: expected a..b with integers"),
        (["--i", "0"], "argument --i: must be positive"),
        (["--i", "1", "--cap", "0"], "argument --cap: must be positive"),
    ]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["lowerbound", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_lowerbound_simulation_cap(capsys):
    code, _, err = run(capsys, "lowerbound", "--i", "2", "--cap", "100")
    assert code == 2
    assert "use analytic mode" in err


def test_exit_codes_through_a_real_process(tmp_path, capsys):
    # python -m fiforoute.cli, so that sys.exit(main()) sets the exit status
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "fiforoute.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )

    done = cli("lowerbound", "--i", "1", "--format", "json")
    assert done.returncode == 0
    assert done.stdout == run(capsys, "lowerbound", "--i", "1", "--format", "json")[1]
    missing = cli("load", str(tmp_path / "game.json"), str(tmp_path / "state.json"))
    assert missing.returncode == 2
    assert missing.stderr.startswith("error:") and "Traceback" not in missing.stderr
    assert cli("lowerbound", "--i", "0").returncode == 2


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
        assert_same_text(out, json.dumps(report) + "\n", argv)


def _load_stdout_is_dumps(capsys, tmp_path, game, state, *flags):
    # stdout of load is json.dumps of the report built from the library with lists, and a newline
    g, s = str(tmp_path / "game.json"), str(tmp_path / "state.json")
    save_game_file(game, g)
    save_state_file(state, s)
    result = load(game, state)
    report = {
        "arrivals": [list(row) for row in result.arrivals],
        "completions": list(result.completions),
        "makespan": result.makespan,
    }
    if "--trace" in flags:
        report["trace"] = [list(row) for row in trace_rows(result)]
    code, out, _ = run(capsys, "load", g, s, *flags)
    assert code == 0
    assert_same_text(out, json.dumps(report) + "\n", ("load", *flags))
    return result


def test_load_report_bytes_on_small_games(two_layer_game, two_layer_state, nine_player_game, nine_player_state,
                                          tmp_path, capsys):
    _load_stdout_is_dumps(capsys, tmp_path, two_layer_game, two_layer_state, "--trace")
    _load_stdout_is_dumps(capsys, tmp_path, nine_player_game, nine_player_state)
    # a makespan of 10**6 + 4 against 9 arrival values: each row goes through json.dumps
    late = Game(LinearMultigraph.from_transits([[1, 2], [3]]), 3, (0, 0, 10**6))
    result = _load_stdout_is_dumps(capsys, tmp_path, late, State((PathChoice((1, 1)),) * 3))
    assert result.makespan + 1 > sum(map(len, result.arrivals))


def test_load_report_bytes_and_time_at_i3(tmp_path, capsys):
    # the optimal profile of game i = 3: 7 rows of 362 880 arrivals in 0..60663;
    # json.dumps of the report took 0.25-0.40 s on 2 cores
    game = gen_lower_bound_game(3)
    result = _load_stdout_is_dumps(capsys, tmp_path, game, optimal_state(game).state)
    seconds = []
    for _ in range(3):
        t0 = time.perf_counter()
        _load_report(result, False)
        seconds.append(time.perf_counter() - t0)
    assert min(seconds) < 0.25, f"encoding the report took {min(seconds):.2f}s"


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
