"""End-to-end acceptance checks.

One test per headline guarantee: worked-example fidelity, the nine-player
witness, the equilibrium invariant suite at corpus scale, greedy-equals-worst,
the price-of-anarchy bound of 2 on every small game, optimality certificates,
the lower-bound family at desk scale, the exact limit computation, capacity
splitting, and the flow embedding. Each test prints a one-line summary with
its measured numbers.
"""
import hashlib
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from fiforoute import (
    GREEDY_QUEUE,
    LOWEST_INDEX,
    SHORTEST_QUEUE,
    Game,
    LinearMultigraph,
    LowerBoundParams,
    PathChoice,
    State,
    UfrWitness,
    check_flow_feasible,
    cumulative_flow,
    enumerate_equilibria,
    eq_completion_closed_form,
    gen_lower_bound_game,
    is_ufr_equilibrium,
    limit_bound,
    load,
    load_state_file,
    map_state_to_split,
    max_packets,
    min_horizon,
    optimal_state,
    pos_ratio,
    queue_sum,
    save_state_file,
    seeded,
    sequential_equilibrium,
    special_edge_indices,
    split_capacities,
    state_to_flow,
    workload,
)
from fiforoute.loading import arrival_sweep

from conftest import random_pattern, random_state

ENUM_BUDGET = 100_000

# shared per-corpus-index caches so later tests reuse earlier sweeps
_greedy_state: dict[int, State] = {}
_greedy_makespan: dict[int, int] = {}
_enum_worst: dict[int, int] = {}


def _num_states(game: Game) -> int:
    per = 1
    for layer in game.graph.layers:
        per *= len(layer)
    return per**game.n


def _greedy(idx: int, game: Game) -> tuple[State, int]:
    if idx not in _greedy_state:
        state = sequential_equilibrium(game, GREEDY_QUEUE)
        _greedy_state[idx] = state
        _greedy_makespan[idx] = load(game, state).makespan
    return _greedy_state[idx], _greedy_makespan[idx]


def _assert_ordered(result) -> None:
    # arrivals at every node are non-decreasing in player index; the last
    # player's completion is the makespan
    for row in result.arrivals:
        assert all(row[i] <= row[i + 1] for i in range(len(row) - 1)), row
    assert result.makespan == result.completions[-1]


def _assert_inflow_bound(game: Game, result) -> int:
    checked = 0
    for j in range(1, game.graph.num_layers + 1):
        prev = result.arrivals[j - 1]
        biggest_wave = max(Counter(prev).values())
        layer = game.graph.layers[j - 1]
        if biggest_wave > len(layer):
            continue
        bound = layer[biggest_wave - 1].transit
        for i in range(game.n):
            latency = result.arrivals[j][i] - prev[i]
            assert latency <= bound, (game, j, i, latency, bound)
        checked += 1
    return checked


def test_worked_example_exact_and_fast(two_layer_game, two_layer_state):
    result = load(two_layer_game, two_layer_state)
    graph = two_layer_game.graph
    assert result.arrivals[1] == (1, 2, 2)
    assert result.arrivals[2] == (3, 4, 5)
    assert result.completions == (3, 4, 5)
    assert result.makespan == 5
    assert workload(result, graph.edge(1, 1), 0) == 3
    assert workload(result, graph.edge(1, 2), 0) == 3
    assert [workload(result, graph.edge(2, 1), t) for t in range(4)] == [2, 3, 4, 3]
    best = min(_timed_load(two_layer_game, two_layer_state) for _ in range(5))
    assert best < 1e-3, f"load took {best * 1e3:.3f} ms"
    print(f"\nworked example: arrivals/completions/workloads exact, load {best * 1e6:.0f} us")


def _timed_load(game, state):
    t0 = time.perf_counter()
    load(game, state)
    return time.perf_counter() - t0


def test_nine_player_profile_and_witness(nine_player_game, nine_player_state):
    result = load(nine_player_game, nine_player_state)
    assert result.completions == (3, 4, 5, 6, 7, 8, 9, 11, 10)
    assert sorted(result.completions) == list(range(3, 12))
    verdict = is_ufr_equilibrium(nine_player_game, nine_player_state)
    assert isinstance(verdict, UfrWitness)
    assert verdict.player == 8
    assert verdict.node == 1
    assert verdict.deviation == PathChoice((2, 1, 1))
    assert verdict.improved_arrival == 3

    def once() -> float:
        t0 = time.perf_counter()
        load(nine_player_game, nine_player_state)
        is_ufr_equilibrium(nine_player_game, nine_player_state)
        return time.perf_counter() - t0

    best = min(once() for _ in range(5))
    assert best < 10e-3, f"load + deviation check took {best * 1e3:.2f} ms"
    print(f"\nnine-player profile: completions and witness exact, check {best * 1e3:.2f} ms")


def test_equilibrium_invariants_on_corpus(fuzz_corpus):
    t0 = time.perf_counter()

    # ordering in every constructed equilibrium (three fixed policies plus a
    # per-instance seeded one)
    constructed = 0
    for idx, game in enumerate(fuzz_corpus):
        for policy in (GREEDY_QUEUE, LOWEST_INDEX, SHORTEST_QUEUE, seeded(idx)):
            state = sequential_equilibrium(game, policy)
            result = load(game, state)
            _assert_ordered(result)
            constructed += 1
            if policy is GREEDY_QUEUE:
                _greedy_state[idx] = state
                _greedy_makespan[idx] = result.makespan

    # ordering and the inflow latency bound in every enumerated equilibrium
    enumerated = inflow_layers = 0
    for idx, game in enumerate(fuzz_corpus):
        if _num_states(game) > ENUM_BUDGET:
            continue
        worst = 0
        for st in enumerate_equilibria(game):
            result = load(game, st)
            _assert_ordered(result)
            inflow_layers += _assert_inflow_bound(game, result)
            worst = max(worst, result.makespan)
            enumerated += 1
        _enum_worst[idx] = worst

    # single-layer invariants, on the corpus instances and one starting-pattern
    # variant each: workload gap, greedy dominance, queue-sum maximality
    single = [g for g in fuzz_corpus if g.graph.num_layers == 1]
    vary = random.Random(0x5EED_A11)
    gap_events = dominated = 0
    for game in single:
        variants = [game, Game(game.graph, game.n, random_pattern(vary, game.n))]
        for variant in variants:
            state = sequential_equilibrium(variant, GREEDY_QUEUE)
            hat = load(variant, state)
            gap_events += _check_workload_gaps(variant, hat)
            for eq_state in enumerate_equilibria(variant):
                res = load(variant, eq_state)
                assert all(
                    h >= c for h, c in zip(hat.completions, res.completions)
                ), (variant, eq_state)
                for t in range(max(hat.makespan, res.makespan) + 2):
                    assert queue_sum(hat, t) >= queue_sum(res, t), (variant, eq_state, t)
                dominated += 1

    # pointwise-larger starting patterns never help any player
    pattern_pairs = 0
    pairs_rng = random.Random(0x5EED_D03)
    for game in single:
        a = random_pattern(pairs_rng, game.n)
        b: list[int] = []
        for value in a:
            lifted = value + pairs_rng.randint(0, 2)
            b.append(max(b[-1], lifted) if b else lifted)
        early = Game(game.graph, game.n, a)
        late = Game(game.graph, game.n, tuple(b))
        ca = load(early, sequential_equilibrium(early)).completions
        cb = load(late, sequential_equilibrium(late)).completions
        assert all(x <= y for x, y in zip(ca, cb)), (game.graph, a, b)
        pattern_pairs += 1
    assert pattern_pairs >= 1000

    # deleting a random edge never speeds up the greedy loading
    del_rng = random.Random(0x5EED_DE1)
    deletions = 0
    for idx, game in enumerate(fuzz_corpus):
        transits = [[e.transit for e in layer] for layer in game.graph.layers]
        wide = [j for j, row in enumerate(transits) if len(row) >= 2]
        if not wide:
            continue
        row = transits[del_rng.choice(wide)]
        del row[del_rng.randrange(len(row))]
        reduced = Game(LinearMultigraph.from_transits(transits), game.n)
        reduced_makespan = load(reduced, sequential_equilibrium(reduced)).makespan
        assert reduced_makespan >= _greedy_makespan[idx], (game, reduced)
        deletions += 1

    elapsed = time.perf_counter() - t0
    assert constructed == 4 * len(fuzz_corpus)
    assert enumerated > 50_000
    assert gap_events > 2000
    assert dominated > 5000
    assert deletions > 5000
    assert inflow_layers > 1000
    assert elapsed < 300, f"invariant suite took {elapsed:.0f}s"
    print(
        f"\ninvariant suite: {constructed} constructed + {enumerated} enumerated equilibria ordered, "
        f"{gap_events} workload-gap events, {dominated} dominance checks, "
        f"{pattern_pairs} pattern pairs, {deletions} deletions, "
        f"{inflow_layers} inflow-bounded layers in {elapsed:.1f}s"
    )


def _check_workload_gaps(game: Game, result) -> int:
    # whenever two edges both release a player at time t, the lower-index
    # edge's workload is the weakly larger one, by at most 1
    layer = game.graph.layers[0]
    departs = {
        e.index_in_layer: set(result.edge_log(1, e.index_in_layer).departs) for e in layer
    }
    events = 0
    for lo, hi in combinations(layer, 2):
        for t in departs[lo.index_in_layer] & departs[hi.index_in_layer]:
            l_lo = workload(result, lo, t)
            l_hi = workload(result, hi, t)
            assert l_hi <= l_lo <= l_hi + 1, (game, lo, hi, t)
            events += 1
    return events


def test_greedy_matches_worst_enumerated_equilibrium(fuzz_corpus):
    t0 = time.perf_counter()
    checked = 0
    for idx, game in enumerate(fuzz_corpus):
        if _num_states(game) > ENUM_BUDGET:
            continue
        worst = _enum_worst.get(idx)
        if worst is None:
            worst = max(
                load(game, st).makespan
                for st in enumerate_equilibria(game)
            )
        _, greedy_makespan = _greedy(idx, game)
        assert greedy_makespan == worst, (game, greedy_makespan, worst)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked > 9000
    print(f"\ngreedy = worst equilibrium on {checked} small instances in {elapsed:.1f}s")


def test_paper_bound_on_every_small_game():
    # every unit-capacity game with at most 2 layers of at most 3 edges,
    # transits 1..3 and n <= 5, all starting at 0: 1 900 games
    t0 = time.perf_counter()
    layers = [list(c) for k in (1, 2, 3) for c in combinations_with_replacement((1, 2, 3), k)]
    graphs = [[a] for a in layers] + [[a, b] for a in layers for b in layers]
    games = found = 0
    largest = Fraction(0)
    for transits in graphs:
        graph = LinearMultigraph.from_transits(transits)
        for n in range(1, 6):
            game = Game(graph, n)
            eqs = enumerate_equilibria(game)
            worst = max(max(arrival_sweep(game, st.paths)[-1]) for st in eqs)
            opt = min_horizon(game)
            assert worst <= 2 * opt, (transits, n, worst, opt)
            assert load(game, sequential_equilibrium(game, GREEDY_QUEUE)).makespan == worst, (transits, n)
            largest = max(largest, Fraction(worst, opt))
            games += 1
            found += len(eqs)
    elapsed = time.perf_counter() - t0
    assert games == 1900
    print(
        f"\nevery small game: {games} games, {found} equilibria, worst/optimal <= {largest} "
        f"= {float(largest):.3f} (bound 2, family limit e/(e-1) = {math.e / (math.e - 1):.3f}) in {elapsed:.1f}s"
    )


def test_optimal_schedules_are_certified(fuzz_corpus):
    t0 = time.perf_counter()
    worst_ratio = Fraction(0)
    for idx, game in enumerate(fuzz_corpus):
        plan = optimal_state(game)
        below = max_packets(game.graph, plan.horizon - 1)
        at = max_packets(game.graph, plan.horizon)
        assert plan.certificate == (below, at)
        assert below < game.n <= at, (game, plan.horizon)
        result = load(game, plan.state)
        assert result.makespan == plan.horizon
        for (layer, _), log in result.edge_logs.items():
            if layer > 1:
                assert list(log.entries) == list(log.departs), (game, layer)
        _, greedy_makespan = _greedy(idx, game)
        assert greedy_makespan <= 2 * plan.horizon, (game, greedy_makespan, plan.horizon)
        worst_ratio = max(worst_ratio, Fraction(greedy_makespan, plan.horizon))
    elapsed = time.perf_counter() - t0
    print(
        f"\noptimal schedules: {len(fuzz_corpus)} certificates tight, waits confined to layer 1, "
        f"greedy/optimal <= {float(worst_ratio):.3f} in {elapsed:.1f}s"
    )


def test_lower_bound_family_at_desk_scale(tmp_path):
    params = {i: LowerBoundParams.for_index(i) for i in (1, 2, 3)}
    expected = {1: 4, 2: 243, 3: 90725}
    # closed form first, simulation second
    for i in (1, 2, 3):
        assert eq_completion_closed_form(params[i]) == expected[i]

    for i in (1, 2):
        game = gen_lower_bound_game(i)
        specials = special_edge_indices(params[i])
        for policy in (GREEDY_QUEUE, LOWEST_INDEX, SHORTEST_QUEUE, seeded(40 + i)):
            state = sequential_equilibrium(game, policy)
            _assert_no_special(state, specials)
            assert load(game, state).makespan == expected[i], (i, str(policy))

    game3 = gen_lower_bound_game(3)
    specials3 = special_edge_indices(params[3])
    t0 = time.perf_counter()
    state3 = sequential_equilibrium(game3, GREEDY_QUEUE)
    makespan3 = load(game3, state3).makespan
    sim_seconds = time.perf_counter() - t0
    assert makespan3 == expected[3]
    assert sim_seconds < 60, f"full simulation took {sim_seconds:.0f}s"
    _assert_no_special(state3, specials3)
    # sha256 of every player's edge indices, one byte each, player by player,
    # as in test_lower_bound_equilibria_at_i3_are_pinned
    greedy_digest = "9da32dd0132c65d3c73d1549f01684d29d285e1151c2346525b8017c15f162ae"
    digests = {
        LOWEST_INDEX: greedy_digest,
        SHORTEST_QUEUE: greedy_digest,
        seeded(43): "abf67836285e3f7a78c6d6dfaaf26036742eb1f985cb58066390c1b943a782a9",
    }
    for policy, digest in digests.items():
        state = sequential_equilibrium(game3, policy)
        _assert_no_special(state, specials3)
        assert load(game3, state).makespan == expected[3], str(policy)
        edges = bytes(i for p in state.paths for i in p.edge_indices)
        assert hashlib.sha256(edges).hexdigest() == digest, str(policy)

    r1, r2 = pos_ratio(1), pos_ratio(2)
    r3 = Fraction(makespan3, min_horizon(game3))
    assert r1 == 1
    assert r2 == Fraction(243, 170)
    assert r1 < r2 < r3

    # the writer runs json's C encoder; json.dump's pure-Python one took 1.2-2.0 s on 2 cores
    opt3 = optimal_state(game3).state
    save_seconds = min(_timed_save(opt3, tmp_path / "opt.json") for _ in range(3))
    assert save_seconds < 0.8, f"save_state_file took {save_seconds:.2f}s"
    # the reader parses the file's 9 distinct rows once each; json.load of all
    # 362 880 rows and state_from_dict took 0.75-0.84 s on 2 cores
    read_seconds = min(_timed_read(opt3, tmp_path / "opt.json") for _ in range(3))
    assert read_seconds < 0.4, f"load_state_file took {read_seconds:.2f}s"
    print(
        f"\nlower-bound family: makespans 4/243/90725 under every policy, no special edges, "
        f"ratios 1 < 243/170 < {float(r3):.4f}, full simulation {sim_seconds:.1f}s, "
        f"optimal profile saved in {save_seconds:.2f}s, read in {read_seconds:.2f}s"
    )


def _timed_save(state: State, path) -> float:
    t0 = time.perf_counter()
    save_state_file(state, str(path))
    return time.perf_counter() - t0


def _timed_read(state: State, path) -> float:
    t0 = time.perf_counter()
    again = load_state_file(str(path))
    seconds = time.perf_counter() - t0
    assert again == state
    return seconds


def _assert_no_special(state: State, specials: dict[int, range]) -> None:
    for path in state.paths:
        for layer, index in enumerate(path.edge_indices, start=1):
            assert index not in specials.get(layer, ()), (path, layer)


def test_limit_convergence_with_exact_arithmetic():
    t0 = time.perf_counter()
    euler_ratio = math.e / (math.e - 1)
    bound = limit_bound(10**4)
    assert abs(float(bound) - euler_ratio) < 3e-3
    ratios = [pos_ratio(i, mode="analytic") for i in range(1, 51)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(float(r) < euler_ratio + 1e-9 for r in ratios)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"convergence checks took {elapsed:.0f}s"
    print(
        f"\nlimit: bound(10^4) = {float(bound):.10f} (|diff| {abs(float(bound) - euler_ratio):.2e}), "
        f"50 ratios strictly increasing below e/(e-1) in {elapsed:.1f}s"
    )


def test_capacity_split_preserves_arrivals(cap_corpus):
    t0 = time.perf_counter()
    states_rng = random.Random(0xCA9A_57A7)
    checked = 0
    for game in cap_corpus:
        for state in (
            random_state(states_rng, game),
            sequential_equilibrium(game, GREEDY_QUEUE),
        ):
            result = load(game, state)
            split_game, _ = split_capacities(game)
            mapped = map_state_to_split(game, state, result)
            assert load(split_game, mapped).arrivals == result.arrivals, (game, state)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 2 * len(cap_corpus)
    print(f"\ncapacity split: {checked} loadings arrival-identical in {elapsed:.1f}s")


def test_equilibrium_flows_are_feasible(fuzz_corpus):
    t0 = time.perf_counter()
    for idx, game in enumerate(fuzz_corpus):
        state, _ = _greedy(idx, game)
        result = load(game, state)
        flow = state_to_flow(game, result)
        assert check_flow_feasible(game.graph, flow, expected_value=game.n) == [], game

    game2 = gen_lower_bound_game(2)
    result2 = load(game2, sequential_equilibrium(game2))
    flow2 = state_to_flow(game2, result2)
    assert check_flow_feasible(game2.graph, flow2, expected_value=720) == []
    specials = special_edge_indices(LowerBoundParams.for_index(2))
    for layer, indices in specials.items():
        for index in indices:
            assert flow2.rates.get((layer, index), ()) == (), (layer, index)
    for layer, edges in enumerate(game2.graph.layers, start=1):
        standard = [
            e.index_in_layer
            for e in edges
            if e.index_in_layer not in specials.get(layer, ())
        ]
        for t in range(flow2.horizon + 1):
            values = {cumulative_flow(flow2, layer, index, t) for index in standard}
            assert len(values) == 1, (layer, t, values)
    elapsed = time.perf_counter() - t0
    print(
        f"\nflows: {len(fuzz_corpus)} equilibrium flows feasible with value n; "
        f"family game uses no special edge and loads standard edges equally in {elapsed:.1f}s"
    )
