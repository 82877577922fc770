"""Sequential construction, exact verification, enumeration and policies."""
from __future__ import annotations

import hashlib
import random
import re
import time
from collections import Counter
from itertools import product
from math import factorial

import pytest

from fiforoute import (
    GREEDY_QUEUE,
    LOWEST_INDEX,
    SHORTEST_QUEUE,
    BudgetError,
    ConstructionError,
    Edge,
    FifoRouteError,
    Game,
    LinearMultigraph,
    PathChoice,
    State,
    TieBreakPolicy,
    UfrWitness,
    all_paths,
    enumerate_equilibria,
    gen_gkl,
    gen_lower_bound_game,
    is_ufr_equilibrium,
    load,
    parse_policy,
    seeded,
    sequential_equilibrium,
)
from fiforoute import equilibria
from conftest import random_capacitated_game, random_deep_game, random_game, random_pattern, random_state
from reference import naive_load, non_decreasing, reload_check, replay_construct, replay_enumerate, table_enumerate


def test_policy_names_round_trip():
    assert str(parse_policy("greedy-queue")) == "greedy-queue"
    assert str(parse_policy("lowest-index")) == "lowest-index"
    assert str(parse_policy("shortest-queue")) == "shortest-queue"
    assert str(parse_policy("seeded:42")) == "seeded:42"
    assert parse_policy("seeded") == seeded(0)
    with pytest.raises(Exception):
        parse_policy("fastest")
    with pytest.raises(FifoRouteError, match=r"^bad seed in policy 'seeded:x'$"):
        parse_policy("seeded:x")


def test_policy_rejects_unknown_kinds_and_bad_seeds():
    with pytest.raises(ConstructionError, match="unknown policy kind 'fastest'"):
        TieBreakPolicy("fastest")
    for seed in (None, 2**64, -1, "7", True):
        with pytest.raises(FifoRouteError, match="seed must fit in 64 bits"):
            TieBreakPolicy("seeded", seed)
    assert TieBreakPolicy("seeded", 2**64 - 1) == seeded(2**64 - 1)


def test_policy_equals_the_parse_of_its_name():
    # a seed on a kind that ignores it would print away and break equality
    for policy in (GREEDY_QUEUE, LOWEST_INDEX, SHORTEST_QUEUE, seeded(42)):
        assert parse_policy(str(policy)) == policy
    with pytest.raises(FifoRouteError, match="policy lowest-index takes no seed"):
        TieBreakPolicy("lowest-index", 3)


def test_greedy_on_worked_example(two_layer_game):
    st = sequential_equilibrium(two_layer_game, GREEDY_QUEUE)
    assert [p.edge_indices for p in st.paths] == [(1, 1), (1, 1), (2, 1)]
    assert load(two_layer_game, st).makespan == 5
    assert is_ufr_equilibrium(two_layer_game, st) is True


def test_policies_can_differ_on_ties(two_layer_game):
    greedy = sequential_equilibrium(two_layer_game, GREEDY_QUEUE)
    shortest = sequential_equilibrium(two_layer_game, SHORTEST_QUEUE)
    assert greedy != shortest
    assert is_ufr_equilibrium(two_layer_game, shortest) is True


def test_greedy_equals_lowest_index_on_sorted_layers():
    # tied workloads put the longest queue on the lowest index, so the two
    # tie-break rules coincide on sorted layers; pinned here as a regression
    rng = random.Random(2024)
    for _ in range(400):
        game = random_game(rng, with_pattern=rng.random() < 0.3)
        assert sequential_equilibrium(game, GREEDY_QUEUE) == sequential_equilibrium(
            game, LOWEST_INDEX
        )


def test_seeded_policy_is_deterministic():
    rng = random.Random(5)
    for _ in range(50):
        game = random_game(rng)
        a = sequential_equilibrium(game, seeded(123))
        b = sequential_equilibrium(game, seeded(123))
        assert a == b


def test_seeded_policy_yields_equilibria():
    rng = random.Random(6)
    for _ in range(60):
        game = random_game(rng, max_players=4)
        st = sequential_equilibrium(game, seeded(rng.randrange(2**64)))
        assert is_ufr_equilibrium(game, st) is True


def test_constructed_states_are_equilibria_all_policies():
    rng = random.Random(8)
    policies = [GREEDY_QUEUE, LOWEST_INDEX, SHORTEST_QUEUE, seeded(99)]
    for _ in range(80):
        game = random_game(rng, max_players=4)
        for policy in policies:
            st = sequential_equilibrium(game, policy)
            assert is_ufr_equilibrium(game, st) is True


def test_constructor_matches_replay_oracle(cap_corpus, fuzz_corpus):
    # every capacitated game, every fourth unit game and lower-bound game i = 2
    # (n = 720), under all four policies; about 1 s on 2 cores
    policies = [GREEDY_QUEUE, LOWEST_INDEX, SHORTEST_QUEUE, seeded(2024)]
    differ = {GREEDY_QUEUE: 0, SHORTEST_QUEUE: 0}
    for game in cap_corpus + fuzz_corpus[::4] + [gen_lower_bound_game(2)]:
        states = {policy: sequential_equilibrium(game, policy) for policy in policies}
        for policy, state in states.items():
            assert state == replay_construct(game, policy), (game, policy)
        for policy in differ:
            differ[policy] += states[policy] != states[LOWEST_INDEX]
    # greedy-queue can leave lowest-index only by counting queues on a layer
    # with a wider edge: both differences show the queue tie rules ran
    assert differ[GREEDY_QUEUE] > 0 and differ[SHORTEST_QUEUE] > 0


def test_constructor_matches_replay_oracle_at_deep_queues():
    # up to 60 players on up to 5 edges per layer with transits 1..3: queues
    # build up and drain between the players' arrivals
    policies = [GREEDY_QUEUE, LOWEST_INDEX, SHORTEST_QUEUE, seeded(7)]
    rng = random.Random(60)
    waits = 0
    for k in range(300):
        game = random_deep_game(rng, 60, capacitated=k % 4 >= 2, with_pattern=k % 2 == 1)
        for policy in policies:
            state = sequential_equilibrium(game, policy)
            assert state == replay_construct(game, policy), (game, policy)
            assert len(set(map(id, state.paths))) == len(set(state.paths))  # one object per path
        waits += max(map(max, load(game, state).waiting)) >= 5
    assert waits > 100  # games in which some player waits 5 steps or more


def _block_pattern(rng: random.Random, n: int) -> tuple[int, ...]:
    """n start times in blocks of c players at each of up to 300 consecutive
    times, c from 1 to 8, with gaps between the blocks."""
    pattern: list[int] = []
    t = 0
    while len(pattern) < n:
        c = rng.randint(1, 8)
        t += rng.choice([0, 1, rng.randint(2, 80)])
        for _ in range(rng.randint(1, 300)):
            pattern += [t] * c
            t += 1
    return tuple(pattern[:n])


def test_run_length_path_matches_replay_oracle(monkeypatch):
    # unit games fed in constant-count blocks, and gen_gkl(k, l) at n = k!
    # with the lower-bound family's special transits moved by -2..2: queues
    # grow, hold and drain, and the run-length path jumps whole periods;
    # about 3 s on 2 cores
    jumps = Counter()  # (sign of the shift, cut short by a bound)
    periods = equilibria._periods

    def spy(period, shift, m, marks):
        got = periods(period, shift, m, marks)
        if got:
            jumps[(shift > 0) - (shift < 0), got < m] += 1
        return got

    monkeypatch.setattr(equilibria, "_periods", spy)
    rng = random.Random(88)
    games = []
    for _ in range(24):
        layers = [
            sorted(rng.choice([1, 1, 2, 3, rng.randint(4, 150)]) for _ in range(rng.randint(2, 5)))
            for _ in range(rng.randint(1, 3))
        ]
        n = rng.randint(200, 1500)
        games.append(Game(LinearMultigraph.from_transits(layers), n, _block_pattern(rng, n)))
    for k in range(2, 7):
        n = factorial(k)
        for l in range(k):
            tau = {j: n // (k - j + 1) - n // (k - j + 2) + 2 + rng.randint(-2, 2) for j in range(2, k - l + 1)}
            games.append(Game(gen_gkl(k, l, tau), n))
    for game in games:
        for policy in (GREEDY_QUEUE, LOWEST_INDEX):
            assert sequential_equilibrium(game, policy) == replay_construct(game, policy), (game, policy)
    # periods with growing, steady and draining queues; growing and
    # draining ones also cut short by their bounds
    assert all(jumps[sign, cut] for sign in (1, -1) for cut in (False, True)) and jumps[0, False]


def test_walk_gives_the_run_length_columns_where_the_first_tied_edge_wins(fuzz_corpus):
    # on unit edges the first tied edge has the longest queue, so greedy-queue
    # may take the run-length path; both constructors return per-layer columns
    rng = random.Random(31)
    games = fuzz_corpus[::20] + [random_deep_game(rng, 60, False, k % 2 == 1) for k in range(100)]
    for game in games:
        columns = equilibria._fill_columns(game)
        assert len(columns) == game.graph.num_layers and all(len(c) == game.n for c in columns)
        for policy in (GREEDY_QUEUE, LOWEST_INDEX):
            assert equilibria._walk(game, policy) == (game.n, columns), (game, policy)


def test_lower_bound_equilibria_at_i3_are_pinned():
    # sha256 of every player's edge indices, one byte each, player by player:
    # the states the player-by-player constructor built for game i = 3
    game = gen_lower_bound_game(3)
    for policy in (GREEDY_QUEUE, LOWEST_INDEX):
        state = sequential_equilibrium(game, policy)
        digest = hashlib.sha256(bytes(i for p in state.paths for i in p.edge_indices)).hexdigest()
        assert digest == "9da32dd0132c65d3c73d1549f01684d29d285e1151c2346525b8017c15f162ae", policy


def _time_ordered_runs(rng: random.Random, t: int, count: int) -> list[tuple[int, int, int]]:
    """count runs (t, c, length), each starting at the previous run's last
    time or up to two steps after it."""
    runs = []
    for _ in range(count):
        length = rng.randint(1, 3)
        runs.append((t, rng.randint(1, 3), length))
        t += length - 1 + rng.randint(0, 2)
    return runs


def _merged(runs) -> list[list[int]]:
    blocks: list[list[int]] = []
    for run in runs:
        equilibria._merge_run(blocks, *run)
    return blocks


def test_merge_run_matches_a_per_time_count():
    # runs that start at the last block's last time, of one time and of
    # several: the blocks must count the same players at each time, in
    # increasing time order, with no two adjacent blocks left mergeable
    rng = random.Random(19)
    for _ in range(3000):
        runs = _time_ordered_runs(rng, rng.randint(0, 5), rng.randint(1, 8))
        counts = Counter()
        for t, c, length in runs:
            for x in range(t, t + length):
                counts[x] += c
        blocks = _merged(runs)
        assert [(t + i, c) for t, c, length in blocks for i in range(length)] == sorted(counts.items())
        assert all(c > 0 and length > 0 for _, c, length in blocks)
        for (t0, c0, n0), (t1, c1, _) in zip(blocks, blocks[1:]):
            assert not (t1 == t0 + n0 and c1 == c0), blocks


def test_repeat_runs_equals_the_merge_of_shifted_copies():
    # a window of runs from time a to time b, after some earlier runs, and
    # m copies of it shifted by i * step, step >= b - a: a copy's first time
    # may meet the one before's last time
    rng = random.Random(23)
    for _ in range(5000):
        runs = _time_ordered_runs(rng, 0, rng.randint(0, 2))
        a = runs[-1][0] + runs[-1][2] - 1 + rng.randint(0, 1) if runs else rng.randint(0, 3)
        start = len(runs)
        window = _time_ordered_runs(rng, a, rng.randint(1, 5))
        runs += window
        b = max(t + length - 1 for t, _, length in window)
        step, m = max(1, b - a + rng.randint(0, 2)), rng.randint(1, 5)
        copies = [(t + i * step, c, length) for i in range(1, m + 1) for t, c, length in window]
        expected = _merged(runs + copies)
        equilibria._repeat_runs(runs, start, step, m)
        assert _merged(runs) == expected, (window, step, m)


def test_nine_player_profile_is_not_an_equilibrium(nine_player_game, nine_player_state):
    w = is_ufr_equilibrium(nine_player_game, nine_player_state)
    assert isinstance(w, UfrWitness)
    assert w.player == 8
    assert w.node == 1
    assert w.deviation.edge_indices == (2, 1, 1)
    assert w.improved_arrival == 3


def test_witness_is_first_in_scan_order(nine_player_game, nine_player_state):
    # player 8's cheaper detours (1,*,*) do not improve any node arrival, so
    # the scan settles on (2,1,1)
    w = is_ufr_equilibrium(nine_player_game, nine_player_state)
    base = load(nine_player_game, nine_player_state)
    paths = list(nine_player_state.paths)
    for alt in [(1, 1, 1), (1, 2, 1)]:
        paths[7] = PathChoice(alt)
        res = load(nine_player_game, State(tuple(paths)))
        assert all(
            res.arrivals[j][7] >= base.arrivals[j][7]
            for j in range(1, 4)
        )
    assert w.deviation.edge_indices == (2, 1, 1)


@pytest.mark.parametrize("corpus, step", [("cap_corpus", 1), ("fuzz_corpus", 4)])
def test_check_matches_reload_oracle_on_corpus(corpus, step, request):
    # the greedy state and one random state per game, witness fields included;
    # every fourth fuzz game: both cases take about 7 s on 2 cores, of a 10 s budget
    rng = random.Random(808)
    for game in request.getfixturevalue(corpus)[::step]:
        for state in (sequential_equilibrium(game), random_state(rng, game)):
            assert is_ufr_equilibrium(game, state) == reload_check(game, state), (game, state)


def test_check_matches_reload_oracle_on_unordered_moves():
    # greedy states with one player moved, on unit and capacitated deep games with
    # and without patterns, kept when the load is out of player order and the
    # replay's first miss is after player 1: the witness is that player's
    rng = random.Random(21)
    kept = tried = 0
    while kept < 150:
        tried += 1
        game = random_deep_game(rng, 10, tried % 2 == 1, tried % 4 >= 2)
        paths = list(sequential_equilibrium(game).paths)
        paths[rng.randrange(game.n)] = rng.choice(all_paths(game.graph))
        state = State(tuple(paths))
        first = equilibria._walk(game, state)[0]
        if not 0 < first < game.n or all(map(non_decreasing, load(game, state).arrivals)):
            continue
        w = is_ufr_equilibrium(game, state)
        assert w == reload_check(game, state), (game, state)
        assert w.player == first + 1, (game, state)
        kept += 1
    assert tried < 1000


def test_check_wall_clock_gate():
    # a player late in a 600-player greedy state moved to the slowest path: the
    # witness is found by sweeping the first player that misses, not every
    # player before it (about 11 s), in well under a second on a 2-core box
    game = Game(LinearMultigraph.from_transits([[1, 1, 2, 3], [1, 2, 2, 5], [1, 3, 4, 4]]), 600)
    paths = list(sequential_equilibrium(game).paths)
    paths[590] = PathChoice((4, 4, 4))
    t0 = time.perf_counter()
    w = is_ufr_equilibrium(game, State(tuple(paths)))
    elapsed = time.perf_counter() - t0
    assert w == UfrWitness(593, 1, PathChoice((2, 1, 1)), 149)
    assert elapsed < 1.0, f"check took {elapsed:.3f} s"
    # a one-path game's one profile, built and checked without walking its
    # 10**6 players (0.1-0.9 s and 0.8-1.3 s CPU walking them on a 2-core box)
    for capacities in (None, [[10**9]]):
        game = Game(LinearMultigraph.from_transits([[1]], capacities), 10**6)
        t0 = time.perf_counter()
        state = sequential_equilibrium(game)
        built = time.perf_counter() - t0
        assert state == State((PathChoice((1,)),) * 10**6)
        t0 = time.perf_counter()
        assert is_ufr_equilibrium(game, state) is True
        checked = time.perf_counter() - t0
        assert built < 0.05, f"one-path construction with capacities {capacities} took {built:.3f} s"
        assert checked < 0.4, f"one-path check with capacities {capacities} took {checked:.3f} s"


def test_true_verdicts_load_and_sweep_nothing(monkeypatch, fuzz_corpus, cap_corpus):
    # the replay alone decides a True verdict: no load, no arrival sweep
    games = [*fuzz_corpus, *cap_corpus, gen_lower_bound_game(2)]
    states = [sequential_equilibrium(game) for game in games]

    def refuse(*args):
        raise AssertionError("a True verdict loaded the profile")

    monkeypatch.setattr(equilibria, "load", refuse)
    monkeypatch.setattr(equilibria, "arrival_sweep", refuse)
    for game, state in zip(games, states):
        assert is_ufr_equilibrium(game, state) is True, game


def test_seeded_walk_seeds_its_generator_at_the_first_tie(monkeypatch):
    made = []

    class Counting(random.Random):
        def __init__(self, seed):
            made.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(equilibria, "random", type("Module", (), {"Random": Counting}))
    # distinct transits on every layer: no tie, so no generator
    free = Game(LinearMultigraph.from_transits([[1, 5], [2]]), 4)
    assert sequential_equilibrium(free, seeded(3)) == replay_construct(free, seeded(3))
    assert made == []
    tied = Game(LinearMultigraph.from_transits([[1, 1, 1], [2, 2]]), 7)
    assert sequential_equilibrium(tied, seeded(3)) == replay_construct(tied, seeded(3))
    assert made == [3]


def _capacities_at_least_n(game: Game, capacity: int) -> Game:
    """The game with every capacity of n or more set to `capacity`."""
    layers = tuple(
        tuple(Edge(e.layer, e.index_in_layer, e.transit, capacity if e.capacity >= game.n else e.capacity)
              for e in layer)
        for layer in game.graph.layers
    )
    return Game(LinearMultigraph(layers), game.n, game.starting_pattern)


@pytest.mark.parametrize("capacity", [2**70, 10**15], ids=["2**70", "10**15"])
def test_capacities_of_n_or_more_act_as_n(capacity):
    # every kernel pads an edge by min(capacity, n): a huge capacity neither
    # allocates its padding nor changes any arrival, state, verdict or equilibrium
    rng = random.Random(70)
    seen = 0
    for _ in range(300):
        game = random_capacitated_game(rng)
        huge = _capacities_at_least_n(game, capacity)
        if huge == game:  # no capacity of n or more
            continue
        seen += 1
        state = random_state(rng, game)
        assert load(huge, state).arrivals == load(game, state).arrivals
        assert is_ufr_equilibrium(huge, state) == is_ufr_equilibrium(game, state)
        for policy in (GREEDY_QUEUE, LOWEST_INDEX, SHORTEST_QUEUE, seeded(11)):
            assert sequential_equilibrium(huge, policy) == sequential_equilibrium(game, policy), policy
        if game.num_paths() ** game.n <= 10_000:
            assert enumerate_equilibria(huge) == enumerate_equilibria(game)
    assert seen > 100


def test_capacities_around_n_match_the_unpadded_oracles():
    # capacities n - 1, n and n + 1, and n = 1 with capacity 2, against
    # oracles that keep every capacity as it is: a padding bound one too low
    # makes the n-th entrant of a capacity-n edge wait
    rng = random.Random(0xC0DE)
    games = [
        Game(LinearMultigraph.from_transits([[1, 2]], [[2, 1]]), 1),
        Game(LinearMultigraph.from_transits([[1], [1, 1]], [[2], [1, 2]]), 1, (3,)),
    ]
    while len(games) < 160:
        n = rng.randint(2, 5)
        layers = [sorted(rng.randint(1, 2) for _ in range(rng.randint(1, 2))) for _ in range(rng.randint(1, 3))]
        caps = [[rng.choice((1, n - 1, n, n + 1)) for _ in layer] for layer in layers]
        pattern = random_pattern(rng, n, 2) if rng.random() < 0.3 else None
        games.append(Game(LinearMultigraph.from_transits(layers, caps), n, pattern))
    full_queues = 0  # profiles that put all n players into one capacity-n edge at once
    enumerated = 0
    for game in games:
        greedy = sequential_equilibrium(game)
        for state in (greedy, random_state(rng, game), random_state(rng, game)):
            result = load(game, state)
            assert result.arrivals == naive_load(game, state)[0], (game, state)
            assert is_ufr_equilibrium(game, state) == reload_check(game, state), (game, state)
            full_queues += any(
                len(log) == game.n == game.graph.edge(*key).capacity and len(set(log.entries)) == 1
                for key, log in result.edge_logs.items()
            )
        for policy in (GREEDY_QUEUE, LOWEST_INDEX, SHORTEST_QUEUE, seeded(5)):
            assert sequential_equilibrium(game, policy) == replay_construct(game, policy), (game, policy)
        if game.num_paths() ** game.n <= 2_000:
            assert enumerate_equilibria(game) == replay_enumerate(game), game
            enumerated += 1
    assert full_queues > 40 and enumerated > 120


@pytest.mark.parametrize("corpus, step", [("cap_corpus", 2), ("fuzz_corpus", 8)])
def test_enumerate_matches_table_oracle(corpus, step, request):
    # every enumerable game of the slice, whole lists in order; the table
    # oracle takes about 3 s per case on 2 cores
    checked = found = 0
    for game in request.getfixturevalue(corpus)[::step]:
        if game.num_paths() ** game.n > 100_000:
            continue
        eqs = enumerate_equilibria(game)
        assert eqs == table_enumerate(game), game
        checked += 1
        found += len(eqs)
    assert checked > 400 and found > 5_000


def test_enumerate_matches_replay_oracle_on_tie_heavy_games(nine_player_game):
    # whole lists in order, and one PathChoice per distinct path: the nine-player
    # example (6 912 equilibria of 8^9 profiles, over the default budget), a
    # capacitated game with a starting pattern, and random games with transits
    # in {1, 2}, half of them capacitated and half with patterns
    wide = Game(LinearMultigraph.from_transits([[1, 1, 2], [1, 1]], [[2, 1, 1], [1, 2]]), 7, (0, 0, 1, 1, 1, 2, 3))
    games = [nine_player_game, wide]
    rng = random.Random(12)
    while len(games) < 152:
        layers = [sorted(rng.choice((1, 2)) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 3))]
        caps = [[rng.randint(1, 2) for _ in layer] for layer in layers] if rng.random() < 0.5 else None
        n = rng.randint(1, 5)
        pattern = random_pattern(rng, n, 2) if rng.random() < 0.5 else None
        games.append(Game(LinearMultigraph.from_transits(layers, caps), n, pattern))
    counts = []
    for game in games:
        eqs = enumerate_equilibria(game, state_budget=game.num_paths() ** game.n)
        assert eqs == replay_enumerate(game), game
        assert len({id(p) for st in eqs for p in st.paths}) == len({p for st in eqs for p in st.paths}), game
        counts.append(len(eqs))
    assert counts[:2] == [6912, 1296] and sum(c > 1 for c in counts[2:]) > 100


def test_enumerate_wall_clock_gates(nine_player_game):
    # the nine-player example with the budget raised, and one-path games whose
    # 200 000 players have one profile; each well above its time on a 2-core box
    def best(game, repeats, **budget):
        seconds = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            eqs = enumerate_equilibria(game, **budget)
            seconds.append(time.perf_counter() - t0)
        return min(seconds), eqs

    elapsed, eqs = best(nine_player_game, 3, state_budget=8**9)
    assert len(eqs) == 6912 and elapsed < 1.0, f"nine-player enumeration took {elapsed:.3f} s"
    for capacities in (None, [[10**9]]):  # one profile at any capacity, with no walk of the players
        elapsed, eqs = best(Game(LinearMultigraph.from_transits([[1]], capacities), 200_000), 2)
        assert eqs == [State((PathChoice((1,)),) * 200_000)], eqs[:1]
        assert elapsed < 2.0, f"one-path game with capacities {capacities} took {elapsed:.3f} s"


def test_budgets_must_be_ints_of_at_least_one(two_layer_game, two_layer_state):
    # a string used to raise TypeError, and 1.5 passed and then read "over 1.5 states"
    for budget in ("x", 1.5, 2.0, True, None, 0, -1):
        shown = re.escape(repr(budget))
        with pytest.raises(BudgetError, match=rf"^state budget must be an integer >= 1, not {shown}$"):
            enumerate_equilibria(two_layer_game, state_budget=budget)
        with pytest.raises(BudgetError, match=rf"^path budget must be an integer >= 1, not {shown}$"):
            is_ufr_equilibrium(two_layer_game, two_layer_state, path_budget=budget)
    # the least budgets that cover the game: 2**3 profiles, 2 paths per player
    assert enumerate_equilibria(two_layer_game, state_budget=8) == enumerate_equilibria(two_layer_game)
    assert is_ufr_equilibrium(two_layer_game, two_layer_state, path_budget=2) is True


def test_path_budget_guard(nine_player_game):
    with pytest.raises(BudgetError, match="instance too large for exact check"):
        is_ufr_equilibrium(
            nine_player_game,
            sequential_equilibrium(nine_player_game),
            path_budget=3,
        )


def test_state_budget_guard(two_layer_game):
    with pytest.raises(BudgetError, match="budget"):
        enumerate_equilibria(two_layer_game, state_budget=5)


def test_enumerate_worked_example(two_layer_game):
    eqs = enumerate_equilibria(two_layer_game)
    assert len(eqs) == 2
    assert [p.edge_indices for p in eqs[0].paths] == [(1, 1), (1, 1), (2, 1)]
    assert [p.edge_indices for p in eqs[1].paths] == [(1, 1), (2, 1), (1, 1)]
    # lexicographic order by flattened path choices
    flat = [tuple(i for p in st.paths for i in p.edge_indices) for st in eqs]
    assert flat == sorted(flat)


def test_enumerate_agrees_with_direct_check():
    rng = random.Random(31)
    done = 0
    while done < 40:
        game = random_game(rng, max_players=3, max_edges=3, max_layers=2)
        if game.num_paths() ** game.n > 800:
            continue
        done += 1
        expected = set(enumerate_equilibria(game))
        from fiforoute import all_paths

        found = set()
        def states(prefix, remaining):
            if not remaining:
                found.add(State(tuple(prefix)))
                return
            for p in all_paths(game.graph):
                states(prefix + [p], remaining - 1)
        states([], game.n)
        direct = {st for st in found if is_ufr_equilibrium(game, st) is True}
        assert direct == expected


def test_enumerate_agrees_with_direct_check_on_capacitated_corpus(cap_corpus):
    # every game of the corpus with at most 256 states, capacities up to 3
    checked = 0
    for game in cap_corpus:
        if game.num_paths() ** game.n > 256:
            continue
        expected = set(enumerate_equilibria(game))
        for combo in product(all_paths(game.graph), repeat=game.n):
            state = State(combo)
            assert (is_ufr_equilibrium(game, state) is True) == (state in expected), (game, state)
        checked += 1
    assert checked > 700


def test_start_times_shifted_by_2_pow_60():
    # every arrival moves by exactly the shift and the equilibria stay the same,
    # with and without capacities; a step-by-step loader could not run this
    rng = random.Random(60)
    shift = 2**60
    for k in range(60):
        game = random_capacitated_game(rng) if k % 2 else random_game(rng, with_pattern=rng.random() < 0.5)
        if game.num_paths() ** game.n > 1000:
            continue
        far = Game(game.graph, game.n, tuple(t + shift for t in game.start_times()))
        state = random_state(rng, game)
        near_rows = load(game, state).arrivals
        far_rows = load(far, state).arrivals
        assert far_rows == tuple(tuple(t + shift for t in row) for row in near_rows), game
        assert enumerate_equilibria(far) == enumerate_equilibria(game), game


def test_arrival_order_matches_player_order():
    rng = random.Random(17)
    for _ in range(150):
        game = random_game(rng, with_pattern=rng.random() < 0.5)
        st = sequential_equilibrium(game)
        res = load(game, st)
        for row in res.arrivals:
            assert all(a <= b for a, b in zip(row, row[1:]))
        assert res.makespan == res.completions[-1]


def test_single_edge_chain():
    g = Game(LinearMultigraph.from_transits([[2], [3]]), 4)
    st = sequential_equilibrium(g)
    res = load(g, st)
    assert res.completions == (5, 6, 7, 8)
