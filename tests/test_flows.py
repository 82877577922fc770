"""Flow embedding: breakpoint construction, cumulative integrals, feasibility."""
import random
import time

import pytest

from fiforoute import (
    Edge,
    FifoRouteError,
    FlowOverTime,
    Game,
    LinearMultigraph,
    PathChoice,
    State,
    check_flow_feasible,
    cumulative_flow,
    flow_to_dict,
    flow_value,
    load,
    sequential_equilibrium,
    state_to_flow,
)

from conftest import random_deep_game, random_game, random_pattern, random_state
from reference import naive_check_flow


def chain_game(transit: int, n: int) -> Game:
    return Game(LinearMultigraph.from_transits([[transit]]), n, None)


def test_single_edge_flow_breakpoints():
    game = chain_game(2, 3)
    state = State((PathChoice((1,)),) * 3)
    result = load(game, state)
    flow = state_to_flow(game, result)
    # departures at 0, 1, 2: one run of rate 1 on [0, 3)
    assert flow.horizon == result.makespan + 1
    assert flow.rates[(1, 1)] == ((0, 1), (3, 0))
    assert flow.rate_at(1, 1, 0) == 1
    assert flow.rate_at(1, 1, 3) == 0
    assert cumulative_flow(flow, 1, 1, 3) == 3
    assert flow_value(game.graph, flow) == 3
    assert check_flow_feasible(game.graph, flow, expected_value=3) == []


def test_worked_example_flow(two_layer_game, two_layer_state):
    result = load(two_layer_game, two_layer_state)
    flow = state_to_flow(two_layer_game, result)
    assert flow.horizon == 6
    # edge 1:1 serves players 1 and 3 in consecutive steps; edge 2:1 drains one per step
    assert flow.rates[(1, 1)] == ((0, 1), (2, 0))
    assert flow.rates[(1, 2)] == ((0, 1), (1, 0))
    assert flow.rates[(2, 1)] == ((1, 1), (4, 0))
    assert flow_value(two_layer_game.graph, flow) == 3
    assert check_flow_feasible(two_layer_game.graph, flow, expected_value=3) == []


def test_rate_above_capacity_detected():
    graph = LinearMultigraph.from_transits([[1]])
    flow = FlowOverTime(3, {(1, 1): ((0, 2), (1, 0))})
    msgs = check_flow_feasible(graph, flow)
    assert any("exceeds capacity" in m for m in msgs)


def test_support_past_cutoff_detected():
    graph = LinearMultigraph.from_transits([[2]])
    # horizon 3, transit 2: anything flowing at or after time 1 cannot finish
    flow = FlowOverTime(3, {(1, 1): ((0, 1), (2, 0))})
    msgs = check_flow_feasible(graph, flow)
    assert any("past cutoff" in m for m in msgs)


def test_conservation_violation_detected():
    graph = LinearMultigraph.from_transits([[1], [1]])
    flow = FlowOverTime(
        4,
        {
            (1, 1): ((0, 1), (1, 0)),
            (2, 1): ((0, 1), (2, 0)),  # leaves v_1 before anything arrived
        },
    )
    msgs = check_flow_feasible(graph, flow)
    assert any(m.startswith("conservation violated at node v_1") for m in msgs)
    # the rates into v_1 change at time 2 by +1 and -1, so time 2 is still checked
    graph = LinearMultigraph.from_transits([[1, 1], [1]])
    flow = FlowOverTime(
        4, {(1, 1): ((0, 1), (1, 0)), (1, 2): ((1, 1), (2, 0)), (2, 1): ((0, 1), (3, 0))}
    )
    assert check_flow_feasible(graph, flow) == [
        "conservation violated at node v_1 by time 1: out 1 > in 0",
        "conservation violated at node v_1 by time 2: out 2 > in 1",
        "conservation violated at node v_1 by time 3: out 3 > in 2",
        "conservation violated at node v_1 by time 4: out 3 > in 2",
    ]
    # a breakpoint that keeps the rate still marks a checked time
    graph = LinearMultigraph.from_transits([[1], [1]])
    flow = FlowOverTime(4, {(1, 1): ((0, 1), (2, 0)), (2, 1): ((0, 1), (2, 1), (3, 0))})
    assert check_flow_feasible(graph, flow) == [
        "conservation violated at node v_1 by time 1: out 1 > in 0",
        "conservation violated at node v_1 by time 2: out 2 > in 1",
        "conservation violated at node v_1 by time 3: out 3 > in 2",
        "conservation violated at node v_1 by time 4: out 3 > in 2",
    ]


def test_unknown_edge_and_bad_breakpoints_detected():
    graph = LinearMultigraph.from_transits([[1]])
    flow = FlowOverTime(3, {(1, 2): ((0, 1), (1, 0))})
    assert check_flow_feasible(graph, flow) == ["edge 1:2 not in graph"]
    flow = FlowOverTime(3, {(1, 1): ((1, 1), (0, 0))})
    msgs = check_flow_feasible(graph, flow)
    assert msgs == ["edge 1:1 breakpoints not strictly increasing"]
    flow = FlowOverTime(3, {(1, 1): ((0, -1), (1, 1))})
    assert check_flow_feasible(graph, flow) == [
        "edge 1:1 does not end at rate 0",
        "edge 1:1 negative rate -1 at time 0",
        "edge 1:1 active on [1,3) past cutoff 2",
    ]
    # a rate-0 breakpoint past the horizon: the conservation sweep stops at the horizon
    graph = LinearMultigraph.from_transits([[1], [1]])
    flow = FlowOverTime(4, {(1, 1): ((0, 1), (1, 0), (9, 0)), (2, 1): ((1, 1), (2, 0))})
    assert check_flow_feasible(graph, flow, expected_value=1) == []


def test_flow_before_time_zero_detected():
    graph = LinearMultigraph.from_transits([[1]])
    flow = FlowOverTime(3, {(1, 1): ((-2, 1), (0, 0))})
    assert check_flow_feasible(graph, flow, expected_value=2) == [
        "edge 1:1 starts at negative time -2"
    ]
    # inflow sent on [-2, 0) would cover the outflow of layer 2 at v_1
    graph = LinearMultigraph.from_transits([[1], [1]])
    flow = FlowOverTime(4, {(1, 1): ((-2, 1), (0, 0)), (2, 1): ((0, 1), (2, 0))})
    assert check_flow_feasible(graph, flow) == ["edge 1:1 starts at negative time -2"]


def test_flow_value_mismatch_detected():
    game = chain_game(1, 2)
    state = State((PathChoice((1,)),) * 2)
    flow = state_to_flow(game, load(game, state))
    msgs = check_flow_feasible(game.graph, flow, expected_value=5)
    assert msgs == ["flow value 2 != expected 5"]


def test_flow_rejects_foreign_loading():
    game = chain_game(1, 2)
    other = chain_game(2, 2)
    state = State((PathChoice((1,)),) * 2)
    result = load(game, state)
    with pytest.raises(FifoRouteError, match="does not belong"):
        state_to_flow(other, result)


def test_flow_dict_shape():
    game = chain_game(2, 1)
    state = State((PathChoice((1,)),))
    flow = state_to_flow(game, load(game, state))
    assert flow_to_dict(flow) == {"horizon": 3, "edges": {"1:1": [[0, 1], [1, 0]]}}


def test_random_equilibrium_flows_are_feasible():
    rng = random.Random(0xF10)
    for _ in range(300):
        game = random_game(rng, with_pattern=rng.random() < 0.5)
        state = sequential_equilibrium(game)
        result = load(game, state)
        flow = state_to_flow(game, result)
        assert check_flow_feasible(game.graph, flow, expected_value=game.n) == []
        # cumulative inflow over the full horizon counts every player once per layer
        for j in range(1, len(game.graph.layers) + 1):
            total = sum(
                cumulative_flow(flow, j, e.index_in_layer, flow.horizon)
                for e in game.graph.layers[j - 1]
            )
            assert total == game.n


def test_random_states_embed_feasibly():
    rng = random.Random(0xF11)
    for _ in range(200):
        game = random_game(rng)
        state = random_state(rng, game)
        flow = state_to_flow(game, load(game, state))
        assert check_flow_feasible(game.graph, flow, expected_value=game.n) == []


def _perturbed(rng: random.Random, game: Game, flow: FlowOverTime) -> list[FlowOverTime]:
    """One breakpoint moved earlier, one rate raised past capacity, one
    layer-2 edge dropped: each a copy of the flow."""
    out = []
    keys = sorted(flow.rates)
    if not keys:
        return out
    key = rng.choice(keys)
    bps = list(flow.rates[key])
    pos = rng.randrange(len(bps))
    bps[pos] = (bps[pos][0] - rng.randint(1, 3), bps[pos][1])
    out.append(FlowOverTime(flow.horizon, {**flow.rates, key: tuple(bps)}))
    key = rng.choice(keys)
    bps = list(flow.rates[key])
    pos = rng.randrange(len(bps) - 1)
    capacity = game.graph.edge(*key).capacity
    bps[pos] = (bps[pos][0], capacity + 1)
    out.append(FlowOverTime(flow.horizon, {**flow.rates, key: tuple(bps)}))
    layer2 = [k for k in keys if k[0] == 2]
    if layer2:
        dropped = rng.choice(layer2)
        out.append(FlowOverTime(flow.horizon, {k: v for k, v in flow.rates.items() if k != dropped}))
    return out


def test_check_matches_naive_oracle(cap_corpus):
    rng = random.Random(0xF12)
    cases = []
    for game in cap_corpus:
        for state in (sequential_equilibrium(game), random_state(rng, game)):
            cases.append((game, state_to_flow(game, load(game, state))))
    for _ in range(300):
        game = random_deep_game(rng, 40, capacitated=True, with_pattern=True)
        cases.append((game, state_to_flow(game, load(game, random_state(rng, game)))))
    cases += [(game, p) for game, flow in list(cases) for p in _perturbed(rng, game, flow)]
    cases += [(game, FlowOverTime(0, {})) for game in cap_corpus[:20]]
    violating = 0
    for game, flow in cases:
        got = check_flow_feasible(game.graph, flow, expected_value=game.n)
        assert got == naive_check_flow(game.graph, flow, expected_value=game.n), flow
        violating += any(m.startswith("conservation") for m in got)
    assert len(cases) > 8000
    assert violating >= 200


def test_check_scales_to_thousands_of_players():
    # 3 layers of 4 edges, n = 4 000: the flow has about 10^4 breakpoints
    rng = random.Random(0xF13)
    layers = tuple(
        tuple(
            Edge(j, r + 1, tau, rng.randint(1, 3))
            for r, tau in enumerate(sorted(rng.randint(1, 5) for _ in range(4)))
        )
        for j in (1, 2, 3)
    )
    n = 4000
    game = Game(LinearMultigraph(layers), n, random_pattern(rng, n, high=n // 2))
    flow = state_to_flow(game, load(game, random_state(rng, game)))
    t0 = time.perf_counter()
    assert check_flow_feasible(game.graph, flow, expected_value=n) == []
    assert time.perf_counter() - t0 < 0.5
