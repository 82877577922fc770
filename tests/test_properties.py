"""Property-based checks; hypothesis shrinks any counterexample to a tiny game."""
from hypothesis import given, settings
from hypothesis import strategies as st

from fiforoute import (
    GREEDY_QUEUE,
    LOWEST_INDEX,
    SHORTEST_QUEUE,
    Edge,
    Game,
    LinearMultigraph,
    PathChoice,
    State,
    check_flow_feasible,
    game_from_dict,
    game_to_dict,
    is_ufr_equilibrium,
    load,
    map_state_to_split,
    optimal_state,
    queue_sum,
    seeded,
    sequential_equilibrium,
    split_capacities,
    state_from_dict,
    state_to_dict,
    state_to_flow,
    workload,
)

from reference import naive_load


@st.composite
def games(draw, max_layers=3, with_pattern=True, with_capacities=False):
    m = draw(st.integers(1, max_layers))
    layers = []
    for j in range(1, m + 1):
        width = draw(st.integers(1, 3))
        transits = sorted(draw(st.lists(st.integers(1, 4), min_size=width, max_size=width)))
        caps = (
            [draw(st.integers(1, 3)) for _ in range(width)]
            if with_capacities
            else [1] * width
        )
        layers.append(
            tuple(
                Edge(j, i + 1, tr, cap)
                for i, (tr, cap) in enumerate(zip(transits, caps))
            )
        )
    n = draw(st.integers(1, 5))
    pattern = None
    if with_pattern and draw(st.booleans()):
        pattern = tuple(sorted(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))))
    return Game(LinearMultigraph(tuple(layers)), n, pattern)


@st.composite
def games_with_state(draw, **kwargs):
    game = draw(games(**kwargs))
    paths = tuple(
        PathChoice(tuple(draw(st.integers(1, len(layer))) for layer in game.graph.layers))
        for _ in range(game.n)
    )
    return game, State(paths)


@settings(max_examples=200, deadline=None)
@given(games_with_state(with_capacities=True))
def test_loading_matches_step_by_step_reference(gs):
    game, state = gs
    result = load(game, state)
    arrivals, completions, makespan, sums = naive_load(game, state)
    assert result.arrivals == arrivals
    assert result.completions == completions
    assert result.makespan == makespan
    for t in range(makespan + 2):
        assert queue_sum(result, t) == sums.get(t, 0)


@settings(max_examples=200, deadline=None)
@given(games_with_state(with_capacities=True))
def test_fifo_histories_are_sorted(gs):
    game, state = gs
    result = load(game, state)
    for log in result.edge_logs.values():
        entries, departs = list(log.entries), list(log.departs)
        assert entries == sorted(entries)
        assert departs == sorted(departs)
        # a player never departs before it entered
        assert all(d >= e for e, d in zip(entries, departs))


@settings(max_examples=150, deadline=None)
@given(games_with_state(max_layers=1, with_capacities=True), st.integers(0, 12))
def test_workload_equals_replayed_newcomer_latency(gs, t):
    game, state = gs
    result = load(game, state)
    starts = list(game.start_times())
    pos = len([s for s in starts if s <= t])
    for edge in game.graph.layers[0]:
        expected = workload(result, edge, t)
        # replay with one extra player entering that edge's queue at time t
        pattern = tuple(starts[:pos] + [t] + starts[pos:])
        paths = list(state.paths)
        paths.insert(pos, PathChoice((edge.index_in_layer,)))
        bigger = Game(game.graph, game.n + 1, pattern)
        replay = load(bigger, State(tuple(paths)))
        assert replay.completions[pos] == t + expected


tie_policies = st.one_of(
    st.sampled_from([GREEDY_QUEUE, LOWEST_INDEX, SHORTEST_QUEUE]),
    st.integers(0, 2**64 - 1).map(seeded),
)


@settings(max_examples=150, deadline=None)
@given(games(with_capacities=True), tie_policies)
def test_constructed_profile_is_always_an_equilibrium(game, policy):
    state = sequential_equilibrium(game, policy)
    assert is_ufr_equilibrium(game, state) is True


@settings(max_examples=150, deadline=None)
@given(games_with_state(with_capacities=True))
def test_split_game_preserves_every_arrival(gs):
    game, state = gs
    result = load(game, state)
    split_game, _ = split_capacities(game)
    split_state = map_state_to_split(game, state, result)
    assert load(split_game, split_state).arrivals == result.arrivals


@settings(max_examples=150, deadline=None)
@given(games_with_state(with_capacities=True))
def test_embedded_flow_is_feasible(gs):
    game, state = gs
    flow = state_to_flow(game, load(game, state))
    assert check_flow_feasible(game.graph, flow, expected_value=game.n) == []


@settings(max_examples=150, deadline=None)
@given(games(with_pattern=False))
def test_optimal_plan_meets_its_horizon(game):
    plan = optimal_state(game)
    result = load(game, plan.state)
    assert result.makespan == plan.horizon


@settings(max_examples=150, deadline=None)
@given(games_with_state(with_capacities=True))
def test_serialization_round_trip(gs):
    game, state = gs
    back = game_from_dict(game_to_dict(game))
    assert back.graph == game.graph
    assert back.n == game.n
    assert back.start_times() == game.start_times()
    assert state_from_dict(state_to_dict(state)) == state
