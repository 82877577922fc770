"""Self-tests for the benchmark: its oracles, its checker and its span recorders.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import pytest  # noqa: E402

import fiforoute as fr  # noqa: E402
import corpora  # noqa: E402
from checks import compare_load, sim_stats, unit_arrivals, verify_witness, choice_array  # noqa: E402
from reference import naive_load  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402
from speed import REFERENCE_S, TABLE_SIZE, SpeedProbe, probe_loop  # noqa: E402
from workloads import FuzzCap, FuzzUnit, LowerBound  # noqa: E402


def _unit_games(count, seed=7):
    rng = random.Random(seed)
    for _ in range(count):
        transits = [sorted(rng.randint(1, 5) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(1, 3))]
        n = rng.randint(1, 8)
        pattern = corpora.random_pattern(rng, n) if rng.random() < 0.5 else None
        game = fr.Game(fr.LinearMultigraph.from_transits(transits), n, pattern)
        yield game, corpora.random_state(rng, game)


def _failed_ops(tally):
    return {f.op for f in tally.failures}


def test_unit_arrivals_matches_naive_load():
    for game, state in _unit_games(300):
        expected = naive_load(game, state)[0]
        assert unit_arrivals(game, choice_array(state)).tolist() == [list(row) for row in expected]


def test_sim_stats_match_the_library_queue_series():
    items = corpora.fuzz_cap(3, count=200) + corpora.fuzz_unit(3, count=200)
    for item in items:
        result = fr.load(item.game, item.random_state)
        stats = sim_stats(item.game, choice_array(item.random_state), result.arrivals)
        assert stats["loading.event_times"] == len(result.queue_sum_times)
        assert stats["loading.peak_queue_sum"] == max(result.queue_sum_values)
        assert stats["loading.total_wait"] == sum(map(sum, result.waiting))
        assert stats["loading.makespan_sum"] == result.makespan


def test_corpora_follow_the_seed():
    assert corpora.fuzz_unit(5, count=50) == corpora.fuzz_unit(5, count=50)
    assert corpora.fuzz_unit(5, count=50) != corpora.fuzz_unit(6, count=50)
    cap = corpora.fuzz_cap(5, count=400)
    assert sum(item.game.starting_pattern is not None for item in cap) == 200
    unit = corpora.fuzz_unit(5, count=1000)
    single = sum(item.game.graph.num_layers == 1 for item in unit)
    assert abs(single - 1000 * (0.34 + 0.66 / 3)) <= 2
    assert all(item.game.graph.all_unit_capacity() and item.game.starting_pattern is None for item in unit)


def test_load_check_rejects_makespan_off_by_one():
    game, state = next(_unit_games(1))
    result = fr.load(game, state)
    assert compare_load(game, state, result) == []
    bad = dataclasses.replace(result, makespan=result.makespan + 1)
    assert compare_load(game, state, bad)


def test_lowerbound_rows_reject_makespan_off_by_one():
    rows = [dict(fr.lower_bound_row(i, mode="analytic"), eq_source="sim") for i in (1, 2, 3)]
    assert not [p for p in LowerBound._rows(rows, ()) if p.startswith(("row", "table"))]
    rows[1]["eq_makespan"] += 1
    problems = LowerBound._rows(rows, ())
    assert any(p.startswith("row i=2") for p in problems)
    assert any(p.startswith("table") for p in problems)


def test_enumeration_check_rejects_a_dropped_equilibrium():
    workload = FuzzUnit()
    item = next(it for it in corpora.fuzz_unit(2, count=200) if it.game.n >= 2 and it.game.num_paths() >= 2)
    states, result, on_greedy, on_random, eqs = workload.run(item)
    tally, _ = workload.check(item, (states, result, on_greedy, on_random, eqs))
    assert tally.failures == []
    dropped = [st for st in eqs if st != states[0]]
    tally, _ = workload.check(item, (states, result, on_greedy, on_random, dropped))
    assert _failed_ops(tally) == {"enumerate"}


def test_witness_check_rejects_a_bogus_witness():
    workload = FuzzUnit()
    for item in corpora.fuzz_unit(2, count=200):
        output = workload.run(item)
        if output[3] is not True and item.game.graph.num_layers >= 2:
            break
    states, result, on_greedy, witness, eqs = output
    game, state = item.game, item.random_state
    assert verify_witness(game, state, witness) == []
    assert workload.check(item, output)[0].failures == []
    for bogus in (
        dataclasses.replace(witness, improved_arrival=witness.improved_arrival - 1),
        dataclasses.replace(witness, deviation=state.paths[witness.player - 1]),
        dataclasses.replace(witness, player=game.n + 1),
    ):
        assert verify_witness(game, state, bogus)
        tally = workload.check(item, (states, result, on_greedy, bogus, eqs))[0]
        assert _failed_ops(tally) == {"check:random"}


def test_construction_check_rejects_a_non_equilibrium():
    workload = FuzzUnit()
    for item in corpora.fuzz_unit(2, count=200):
        output = workload.run(item)
        if output[3] is not True and output[4] is None:
            break
    states, result, on_greedy, on_random, eqs = output
    swapped = (states[0], item.random_state, states[2], states[3])
    assert _failed_ops(workload.check(item, (swapped, result, on_greedy, on_random, eqs))[0]) == {
        "construct:lowest"
    }


def test_fuzz_items_pass_every_check():
    for workload, items in ((FuzzCap(), corpora.fuzz_cap(1, count=200)), (FuzzUnit(), corpora.fuzz_unit(1, count=200))):
        for item in items:
            assert workload.check(item, workload.run(item))[0].failures == []


def test_spans_return_what_the_function_returns_and_restore_it():
    originals = {key: getattr(__import__(f"fiforoute.{key[0]}", fromlist=[key[1]]), key[1]) for key in SPANS}
    item = corpora.fuzz_cap(4, count=1)[0]
    game, state = item.game, item.random_state
    plain = FuzzCap().run(item)
    tracer = Tracer()
    with tracer.installed(fr):
        assert fr.load is not originals[("loading", "load")]
        assert fr.equilibria.load is fr.load and fr.equilibria.validate_game is fr.loading.validate_game
        traced = FuzzCap().run(item)
        assert fr.enumerate_equilibria(game) == fr.equilibria.enumerate_equilibria(game)
    assert traced == plain
    for (module, name), fn in originals.items():
        assert getattr(__import__(f"fiforoute.{module}", fromlist=[name]), name) is fn
    assert fr.load is originals[("loading", "load")]
    metrics = tracer.metrics()
    assert metrics["loading.calls"] == (2, "count") and metrics["loading.load_s"][0] > 0
    assert metrics["loading.player_layers"][0] == 2 * game.n * game.graph.num_layers
    marker = object()

    def identity(x):
        return x

    assert tracer.wrap("flows.check_s", identity)(marker) is marker


def test_span_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("model.validate_s", lambda: __import__("time").sleep(0.02))

    def outer_body():
        inner()
        return 5

    outer = tracer.wrap("optimum.min_horizon_s", outer_body)
    with pytest.raises(IndexError):
        tracer.wrap("model.parse_s", lambda: [][1])()
    assert outer() == 5
    assert tracer.seconds["model.validate_s"] >= 0.02
    assert tracer.seconds["optimum.min_horizon_s"] < 0.01


def test_speed_probe_scales_by_the_loop_time_around_an_interval():
    probe = SpeedProbe()
    with probe.running():
        start = probe.stamp()
        while probe.stamp() - start < 2.0:
            probe_loop(probe.table)
        end = probe.stamp()
    assert len(probe.loops) >= 3 and probe.spent > 0
    assert probe.scaled(start, end) == pytest.approx((end - start) * REFERENCE_S / probe.loop_time(start, end))
    assert probe.stamps == sorted(probe.stamps)
    j, seen = 0, set()
    for _ in range(TABLE_SIZE):
        seen.add(j)
        j = probe.table[j]
    assert j == 0 and len(seen) == TABLE_SIZE  # the hops run through every entry
