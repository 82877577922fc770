"""Loading semantics against worked values and the reference loaders."""
from __future__ import annotations

import hashlib
import itertools
import pickle
import random
from dataclasses import fields

import pytest

from fiforoute import (
    GREEDY_QUEUE,
    LOWEST_INDEX,
    SHORTEST_QUEUE,
    EdgeLog,
    Game,
    LinearMultigraph,
    LoadingError,
    PathChoice,
    State,
    all_paths,
    enumerate_equilibria,
    gen_lower_bound_game,
    is_ufr_equilibrium,
    load,
    optimal_state,
    queue_length,
    queue_sum,
    seeded,
    sequential_equilibrium,
    trace_rows,
    workload,
)
from fiforoute import loading
from fiforoute.loading import arrival_sweep
from conftest import random_capacitated_game, random_deep_game, random_game, random_pattern, random_state
from reference import (
    HeapLoading,
    heap_load,
    naive_load,
    non_decreasing,
    reload_check,
    replay_construct,
    table_enumerate,
)

LOADING_FIELDS = [f.name for f in fields(HeapLoading)]


def test_worked_example_arrivals_and_waits(two_layer_game, two_layer_state):
    res = load(two_layer_game, two_layer_state)
    assert res.arrivals[0] == (0, 0, 0)
    assert res.arrivals[1] == (1, 2, 2)
    assert res.arrivals[2] == (3, 4, 5)
    assert res.completions == (3, 4, 5)
    assert res.makespan == 5
    assert res.waiting == ((0, 0), (0, 0), (1, 1))
    assert res.latency == ((1, 2), (2, 2), (2, 3))


def test_worked_example_workloads(two_layer_game, two_layer_state):
    res = load(two_layer_game, two_layer_state)
    e11 = two_layer_game.graph.edge(1, 1)
    e21 = two_layer_game.graph.edge(1, 2)
    e12 = two_layer_game.graph.edge(2, 1)
    assert workload(res, e11, 0) == 3
    assert workload(res, e21, 0) == 3
    assert [workload(res, e12, t) for t in (0, 1, 2, 3)] == [2, 3, 4, 3]


def test_worked_example_queue_trace(two_layer_game, two_layer_state):
    res = load(two_layer_game, two_layer_state)
    rows = list(trace_rows(res))
    assert rows[0] == (0, "1:1", "enqueue", 1)
    assert (3, "2:1", "depart", 3) in rows
    assert (5, "2:1", "arrive", 3) in rows
    events = {r[2] for r in rows}
    assert events == {"enqueue", "depart", "arrive"}
    # every player enqueues, departs and arrives exactly once per layer
    for player in (1, 2, 3):
        for kind in ("enqueue", "depart", "arrive"):
            assert sum(1 for r in rows if r[3] == player and r[2] == kind) == 2


def test_derived_values_do_not_change_the_pickle(two_layer_game, two_layer_state):
    res = load(two_layer_game, two_layer_state)
    before = pickle.dumps(res)
    assert res.edge_logs and res.waiting and res.latency and res.queue_sum_times and res.trace and res.queue_trace
    assert pickle.dumps(res) == before
    again = pickle.loads(before)
    assert again == res
    assert again.edge_logs == res.edge_logs
    assert again.waiting == res.waiting and again.queue_sum_values == res.queue_sum_values
    assert again.trace == res.trace and again.queue_trace == res.queue_trace


def test_nine_player_completions(nine_player_game, nine_player_state):
    res = load(nine_player_game, nine_player_state)
    assert res.completions == (3, 4, 5, 6, 7, 8, 9, 11, 10)
    assert res.makespan == 11
    assert sorted(res.completions) == list(range(3, 12))


def test_queue_sum_matches_reference(two_layer_game, two_layer_state):
    res = load(two_layer_game, two_layer_state)
    _, _, _, ref_sums = naive_load(two_layer_game, two_layer_state)
    for t, expected in ref_sums.items():
        assert queue_sum(res, t) == expected


def test_queue_sum_before_first_event_is_zero():
    game = random_game(random.Random(3), with_pattern=True)
    state = random_state(random.Random(4), game)
    res = load(game, state)
    assert queue_sum(res, -1) == 0


def test_same_step_pass_through_does_not_queue():
    # one player, empty network: enqueue and depart at the same t
    from fiforoute import Game, LinearMultigraph

    g = Game(LinearMultigraph.from_transits([[4]]), 1)
    res = load(g, State((PathChoice((1,)),)))
    assert res.completions == (4,)
    assert res.waiting == ((0,),)
    log = res.edge_log(1, 1)
    assert list(log.entries) == [0] and list(log.departs) == [0]


def test_unused_edge_log_is_new_on_every_call():
    # the empty log of an unused edge cannot be changed by a caller, so a
    # later loading still reports an empty queue on its unused edges
    game = Game(LinearMultigraph.from_transits([[1, 2]]), 1)
    state = State((PathChoice((1,)),))
    unused = game.graph.layers[0][1]
    log = load(game, state).edge_log(1, 2)
    with pytest.raises(AttributeError):
        log.entries.append(0)
    fresh = load(game, state)
    assert queue_length(fresh, unused, 0) == 0
    assert workload(fresh, unused, 0) == 2
    assert fresh.edge_log(1, 2) == EdgeLog((), (), ())


def test_fifo_departures_follow_entries():
    rng = random.Random(99)
    for _ in range(200):
        game = random_game(rng, with_pattern=rng.random() < 0.5)
        state = random_state(rng, game)
        res = load(game, state)
        for log in res.edge_logs.values():
            assert list(log.entries) == sorted(log.entries)
            assert list(log.departs) == sorted(log.departs)
            # a queue never releases a player before they entered
            for entry, depart in zip(log.entries, log.departs):
                assert depart >= entry


def test_load_matches_naive_reference_small_sweep():
    rng = random.Random(1234)
    for _ in range(400):
        game = random_game(rng, with_pattern=rng.random() < 0.4)
        state = random_state(rng, game)
        res = load(game, state)
        arr, completions, makespan, ref_sums = naive_load(game, state)
        assert res.arrivals == arr
        assert res.completions == completions
        assert res.makespan == makespan
        for t, expected in ref_sums.items():
            assert queue_sum(res, t) == expected


def test_load_matches_naive_reference_capacitated():
    rng = random.Random(4321)
    for _ in range(300):
        game = random_capacitated_game(rng)
        state = random_state(rng, game)
        res = load(game, state)
        arr, completions, makespan, ref_sums = naive_load(game, state)
        assert res.arrivals == arr
        assert res.completions == completions
        assert res.makespan == makespan
        for t, expected in ref_sums.items():
            assert queue_sum(res, t) == expected


@pytest.mark.parametrize("corpus", ["fuzz_corpus", "cap_corpus"])
def test_load_matches_reference_loaders_on_corpus(corpus, request):
    # every LoadingResult field against the event-heap loop, and the
    # arrivals and queue sums against the step-by-step loop
    rng = random.Random(2024)
    for game in request.getfixturevalue(corpus):
        state = random_state(rng, game)
        res = load(game, state)
        ref = heap_load(game, state, trace=True, queue_trace=True)
        for name in LOADING_FIELDS:
            assert getattr(res, name) == getattr(ref, name), (game, state, name)
        arr, completions, makespan, ref_sums = naive_load(game, state)
        assert (res.arrivals, res.completions, res.makespan) == (arr, completions, makespan)
        for t, expected in ref_sums.items():
            assert queue_sum(res, t) == expected, (game, state, t)


def test_load_matches_naive_reference_at_deep_queues():
    # up to 200 players on few edges: long unit-edge ready chains and wide-edge head lists
    rng = random.Random(200)
    for k in range(200):
        game = random_deep_game(rng, 200, capacitated=k % 2 == 1, with_pattern=k % 4 >= 2)
        state = random_state(rng, game)
        res = load(game, state)
        arr, completions, makespan, ref_sums = naive_load(game, state)
        assert (res.arrivals, res.completions, res.makespan) == (arr, completions, makespan), (game, state)
        for t, expected in ref_sums.items():
            assert queue_sum(res, t) == expected, (game, state, t)


def test_sweep_matches_naive_load_on_ordered_layers(fuzz_corpus):
    # sequential equilibria are ordered at every node, so every layer of
    # these unit games takes the sweep's branch without a sort: every fourth
    # corpus game with zero starts, with random starts (ties among them)
    # and with one start shared by all players
    rng = random.Random(13)
    for game in fuzz_corpus[::4]:
        graph, n = game.graph, game.n
        for pattern in (None, random_pattern(rng, n), (3,) * n):
            g = Game(graph, n, pattern)
            state = sequential_equilibrium(g)
            arrivals = arrival_sweep(g, state.paths)
            assert all(map(non_decreasing, arrivals)), (g, state)
            assert arrivals == naive_load(g, state)[0], (g, state)


def test_sweep_matches_naive_load_when_order_breaks_after_layer_1(fuzz_corpus):
    # random profiles on zero-start corpus games of two or three layers:
    # layer 1 is swept in index order, the later layers of many are not
    rng = random.Random(14)
    broken = 0
    for game in fuzz_corpus[3400::3]:
        state = random_state(rng, game)
        arrivals = arrival_sweep(game, state.paths)
        assert arrivals == naive_load(game, state)[0], (game, state)
        broken += not all(map(non_decreasing, arrivals[1:-1]))
    assert broken > 100


@pytest.mark.parametrize("capacitated", [False, True], ids=["unit", "capacitated"])
def test_sweep_matches_naive_load_at_200_players(capacitated):
    # random and sequentially built profiles, so unit games meet both the
    # ordered and the sorted branch at deep queues
    rng = random.Random(15)
    for k in range(60):
        game = random_deep_game(rng, 200, capacitated=capacitated, with_pattern=k % 2 == 1)
        for state in (random_state(rng, game), sequential_equilibrium(game)):
            assert arrival_sweep(game, state.paths) == naive_load(game, state)[0], (game, state)


def test_lower_bound_arrivals_at_i3_are_pinned():
    # sha256 of repr(arrivals) of the greedy equilibrium (ordered on every
    # layer) and of the optimal profile (ordered on layers 1 and 2 only) of
    # game i = 3, as the sweep that sorted every layer computed them
    game = gen_lower_bound_game(3)
    digests = {
        "greedy": "2741588de0a34fa1df87f3215ef89e62fb2ec2a32ac047bf20ed0449d06f4909",
        "optimal": "0f12abae1858ef112a67c7bf494fd10e4ca5e3382464c20632e25951d40c46b8",
    }
    states = {"greedy": sequential_equilibrium(game), "optimal": optimal_state(game).state}
    for name, state in states.items():
        arrivals = arrival_sweep(game, state.paths)
        assert hashlib.sha256(repr(arrivals).encode()).hexdigest() == digests[name], name


def _no_sort(*args, **kwargs):
    raise AssertionError("arrival_sweep sorted a layer")


def test_sweep_skips_the_sort_when_each_edge_sees_its_entrants_in_order(monkeypatch, fuzz_corpus):
    # a module-level sorted shadows the builtin inside loading and raises:
    # on these profiles every edge's entrants reach its tail in index order,
    # though for some profiles a node as a whole does not
    monkeypatch.setattr(loading, "sorted", _no_sort, raising=False)
    for i in (1, 2):
        game = gen_lower_bound_game(i)
        state = optimal_state(game).state
        assert arrival_sweep(game, state.paths) == naive_load(game, state)[0], i
    test_lower_bound_arrivals_at_i3_are_pinned()  # i = 3 against the digests of the sorting sweep
    # w blocks of k players: player b*k + r takes edge b+1 of layer 1 and
    # reaches v_1 at r + 1, so v_1 is out of order; on layer 2 it takes edge
    # r+1, which all w players of rank r reach at once and queue on
    for w, k in ((2, 2), (3, 4), (5, 40)):
        game = Game(LinearMultigraph.from_transits([[1] * w, [2] * k, [1] * w]), w * k)
        state = State(tuple(PathChoice((b + 1, r + 1, b + 1)) for b in range(w) for r in range(k)))
        arrivals = arrival_sweep(game, state.paths)
        assert arrivals == naive_load(game, state)[0], (w, k)
        assert not non_decreasing(arrivals[1]) and max(row[1] for row in load(game, state).waiting) == w - 1
    unordered = 0
    for game in fuzz_corpus:  # every game there is a plain zero-start unit game
        state = optimal_state(game).state
        arrivals = arrival_sweep(game, state.paths)
        assert arrivals == naive_load(game, state)[0], (game, state)
        unordered += not all(map(non_decreasing, arrivals[1:-1]))
    assert unordered > 50
    for game in fuzz_corpus[::4]:
        for policy in (GREEDY_QUEUE, LOWEST_INDEX, SHORTEST_QUEUE, seeded(4)):
            state = sequential_equilibrium(game, policy)
            assert arrival_sweep(game, state.paths) == naive_load(game, state)[0], (game, state, policy)


def _first_out_of_order(arr, column):
    """The first player whose tail arrival is below that of the previous
    entrant of its edge in index order, or None."""
    last = {}
    for i, (a, e) in enumerate(zip(arr, column)):
        if a < last.get(e, a):
            return i
        last[e] = a
    return None


def _slot_sorted_state(rng, game):
    # a few paths with a count each, players handed the release slots in
    # (release, path) order, as optimal_state hands them out
    paths = rng.sample(all_paths(game.graph), min(game.num_paths(), rng.randint(1, 4)))
    cuts = sorted(rng.randint(0, game.n) for _ in range(len(paths) - 1))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, game.n])]
    slots = sorted((release, j) for j, c in enumerate(counts) for release in range(c))
    return State(tuple(paths[j] for _, j in slots))


def _counting_sorted(monkeypatch):
    sorts = []

    def counted_sorted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(loading, "sorted", counted_sorted, raising=False)
    return sorts


def test_sweep_falls_back_to_the_sort_when_an_edge_sees_its_entrants_out_of_order(monkeypatch):
    sorts = _counting_sorted(monkeypatch)
    # player k is the first whose layer-2 edge saw a later tail arrival
    # before it: players 0..k-1 take the slow edge of layer 1 and edge 1 of
    # layer 2, player k the fast edge of layer 1 and edge 1 of layer 2, and
    # the rest random paths; k is the second player, a middle one or the last
    rng = random.Random(16)
    for n in (2, 5, 40, 200):
        game = Game(LinearMultigraph.from_transits([[1, n + 2], [1, 1, 2], [1, 2]]), n)
        for k in sorted({1, n // 2, n - 1}):
            rows = [(2, 1, rng.randint(1, 2))] * k + [(1, 1, rng.randint(1, 2))]
            rows += [tuple(rng.randint(1, s) for s in (2, 3, 2)) for _ in range(n - k - 1)]
            state = State(tuple(PathChoice(r) for r in rows))
            before = len(sorts)
            arrivals = arrival_sweep(game, state.paths)
            assert arrivals == naive_load(game, state)[0], (n, k, rows)
            assert _first_out_of_order(arrivals[1], [r[1] for r in rows]) == k
            assert len(sorts) > before, (n, k)
    # slot-sorted profiles on random unit games, with zero and random starts
    sort_free = fallbacks = 0
    for t in range(600):
        game = random_deep_game(rng, 60, capacitated=False, with_pattern=t % 2 == 1)
        state = _slot_sorted_state(rng, game)
        before = len(sorts)
        arrivals = arrival_sweep(game, state.paths)
        assert arrivals == naive_load(game, state)[0], (game, state)
        unordered = sum(not non_decreasing(a) for a in arrivals[:-1])
        fallbacks += len(sorts) - before
        sort_free += unordered - (len(sorts) - before)
    assert sort_free > 50 and fallbacks > 50, (sort_free, fallbacks)


@pytest.mark.parametrize("with_pattern", [False, True], ids=["zero-start", "pattern"])
def test_sweep_sorts_wide_layers_and_unit_layers_seen_out_of_order(monkeypatch, with_pattern):
    # on capacitated games the sweep sorts each layer with a wider edge, and
    # a unit layer exactly when some edge sees its entrants out of index order
    sorts = _counting_sorted(monkeypatch)
    rng = random.Random(17 + with_pattern)
    wide = unit_sorted = unit_free = 0
    for _ in range(600):
        game = random_deep_game(rng, 60, capacitated=True, with_pattern=with_pattern)
        for state in (random_state(rng, game), _slot_sorted_state(rng, game), sequential_equilibrium(game)):
            before = len(sorts)
            arrivals = arrival_sweep(game, state.paths)
            assert arrivals == naive_load(game, state)[0], (game, state)
            expected = 0
            for j, layer in enumerate(game.graph.layers):
                if max(e.capacity for e in layer) > 1:
                    wide += 1
                elif _first_out_of_order(arrivals[j], [p.edge_indices[j] for p in state.paths]) is not None:
                    unit_sorted += 1
                else:
                    unit_free += 1
                    continue
                expected += 1
            assert len(sorts) - before == expected, (game, state)
    assert wide > 2000 and unit_sorted > 40 and unit_free > 200, (wide, unit_sorted, unit_free)


def test_head_lists_padded_with_capacity_zeros_never_bind(monkeypatch):
    # layer 1 has a transit-1 edge of capacity 3, so a player entering it at
    # time 0 reaches its head at 1, one above the padding; the fourth such
    # player is the first whose c-th last head binds. Layer 2 is a unit layer
    # that takes the sorted loop whenever its edge 1 sees a later tail
    # arrival (from layer-1 edge 2, transit 2) before an earlier one
    sorts = _counting_sorted(monkeypatch)
    graph = LinearMultigraph.from_transits([[1, 2], [1, 1]], [[3, 1], [1, 1]])
    fallbacks = 0
    for n in (2, 3, 4):
        game = Game(graph, n)
        paths = all_paths(graph)
        for rows in itertools.product(paths, repeat=n):
            state = State(rows)
            before = len(sorts)
            assert arrival_sweep(game, state.paths) == naive_load(game, state)[0], state
            fallbacks += len(sorts) - before - 1  # layer 1 is always sorted
            assert is_ufr_equilibrium(game, state) == reload_check(game, state), state
        assert enumerate_equilibria(game) == table_enumerate(game), n
        for policy in (GREEDY_QUEUE, LOWEST_INDEX, SHORTEST_QUEUE, seeded(5)):
            assert sequential_equilibrium(game, policy) == replay_construct(game, policy), (n, policy)
    assert fallbacks > 0


def test_load_is_deterministic():
    rng = random.Random(77)
    game = random_game(rng)
    state = random_state(rng, game)
    a = load(game, state)
    b = load(game, state)
    assert a.arrivals == b.arrivals
    assert list(trace_rows(a)) == list(trace_rows(b))


def test_load_rejects_invalid_state(two_layer_game):
    bad = State((PathChoice((1, 1)), PathChoice((9, 1)), PathChoice((1, 1))))
    with pytest.raises(LoadingError):
        load(two_layer_game, bad)


@pytest.mark.parametrize(
    "paths, entry",
    [
        ((PathChoice(5), PathChoice((1, 1))), "player 1: PathChoice(edge_indices=5)"),
        ((PathChoice((1, 1)), None), "player 2: None"),
    ],
)
def test_load_rejects_a_malformed_profile_entry(paths, entry):
    game = Game(LinearMultigraph.from_transits([[1, 2], [2]]), 2)
    for check in (load, is_ufr_equilibrium):
        with pytest.raises(LoadingError) as err:
            check(game, State(paths))
        assert str(err.value) == f"state does not fit game: {entry} is not a PathChoice of a sequence of edge indices"


def test_load_rejects_a_state_that_is_not_a_state():
    # used to raise AttributeError from validate_state
    game = Game(LinearMultigraph.from_transits([[1, 2], [2]]), 2)
    for check in (load, is_ufr_equilibrium):
        for state in ("abc", None, (PathChoice((1, 1)), PathChoice((1, 1)))):
            with pytest.raises(LoadingError) as err:
                check(game, state)
            assert str(err.value) == f"state does not fit game: {state!r} is not a State"


def test_load_rejects_state_paths_that_are_not_a_sequence():
    # used to raise TypeError from validate_state, which read state.n first
    game = Game(LinearMultigraph.from_transits([[1, 2], [2]]), 2)
    for check in (load, is_ufr_equilibrium):
        for paths in (None, 5):
            with pytest.raises(LoadingError) as err:
                check(game, State(paths))
            assert str(err.value) == f"state does not fit game: {paths!r} is not a sequence of paths"


def test_workload_counts_only_present_players():
    # after all players leave an edge, its workload falls back to the transit
    from fiforoute import Game, LinearMultigraph

    g = Game(LinearMultigraph.from_transits([[1, 1]]), 3)
    st = State((PathChoice((1,)),) * 3)
    res = load(g, st)
    e = g.graph.edge(1, 1)
    assert workload(res, e, 0) == 1 + 3
    assert workload(res, e, 2) == 1 + 1
    assert workload(res, e, 3) == 1
    assert queue_length(res, e, 0) == 3
    assert queue_length(res, e, 5) == 0


def test_starting_pattern_shifts_releases():
    from fiforoute import Game, LinearMultigraph

    g = Game(LinearMultigraph.from_transits([[2]]), 3, (0, 0, 4))
    st = State((PathChoice((1,)),) * 3)
    res = load(g, st)
    # players 1,2 queue at 0; player 3 arrives after the queue drained
    assert res.completions == (2, 3, 6)
    assert res.waiting == ((0,), (1,), (0,))
