"""Reference loaders used as independent oracles in tests.

`naive_load` steps through every integer time unit with plain dict/list
queues, no event scheduling, no incremental bookkeeping. Slow but obviously
correct. `heap_load` is the event-driven loop the library shipped before the
layer sweep: it records every `LoadingResult` field while simulating, so it
pins the sweep's derived logs, traces and queue series field by field.
`reload_check` is the deviation check as a plain loop over `heap_load`
reloads. `replay_construct` is the sequential constructor by the workload
rule, counting every edge's queue afresh from a plain list of departures;
`replay_enumerate` branches that rule over every tied edge instead.
`table_enumerate` finds every equilibrium from one int64 arrival table over
all num_paths**n states, without the ordering argument the library uses.
`non_decreasing` tells whether the arrivals at a node are in player order.
`naive_check_flow` is the flow feasibility check with the conservation loop
the library shipped before its sweep: at every critical time it integrates
each edge's rate from time 0 again.
"""
from __future__ import annotations

import heapq
import random
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import islice, product
from operator import le

import numpy as np

from fiforoute import (
    EdgeLog,
    FifoRouteError,
    FlowOverTime,
    Game,
    LinearMultigraph,
    PathChoice,
    State,
    TieBreakPolicy,
    TraceEvent,
    UfrWitness,
    all_paths,
    cumulative_flow,
    flow_value,
)


def non_decreasing(values) -> bool:
    """Whether values never fall from one index to the next. For the arrivals
    at a node this means the FIFO order (arrival, player index) is index order."""
    return all(map(le, values, islice(values, 1, None)))


def naive_load(game: Game, state: State):
    """Returns (arrivals, completions, makespan, queue_sums).

    arrivals[j][i] = arrival time of player i at node v_j (node 0 = release),
    queue_sums[t] = total queued players after the removal step at time t,
    for every t from 0 through the last event.
    """
    n = game.n
    m = game.graph.num_layers
    starts = list(game.start_times())
    routes = [list(p.edge_indices) for p in state.paths]
    arrivals = [[None] * n for _ in range(m + 1)]
    arrivals[0] = starts[:]

    queues: dict[tuple[int, int], list[int]] = {
        (e.layer, e.index_in_layer): [] for layer in game.graph.layers for e in layer
    }
    caps = {k: game.graph.edge(*k).capacity for k in queues}
    taus = {k: game.graph.edge(*k).transit for k in queues}
    # player -> (edge key, time transit ends); None while queued or done
    in_transit: dict[int, tuple[tuple[int, int], int]] = {}
    done = [False] * n
    horizon = max(starts, default=0) + n * max(
        (sum(taus[(j + 1, r)] for j, r in enumerate(route)) for route in routes),
        default=0,
    )
    queue_sums: dict[int, int] = {}
    last_event = 0
    for t in range(horizon + 2):
        # 1. join step: players whose transit ends now, then fresh releases,
        #    grouped per edge and ordered by player index
        joiners: dict[tuple[int, int], list[int]] = {}
        for i in range(n):
            if starts[i] == t:
                key = (1, routes[i][0])
                joiners.setdefault(key, []).append(i)
        ended = [i for i, te in in_transit.items() if te[1] == t]
        for i in sorted(ended):
            key, _ = in_transit.pop(i)
            layer = key[0]
            arrivals[layer][i] = t
            if layer == m:
                done[i] = True
            else:
                nxt = (layer + 1, routes[i][layer])
                joiners.setdefault(nxt, []).append(i)
        for key, players in joiners.items():
            queues[key].extend(sorted(players))
        if any(joiners.values()):
            last_event = max(last_event, t)
        # 2. removal step: each non-empty queue releases up to capacity players
        for key, q in queues.items():
            take = min(caps[key], len(q))
            for _ in range(take):
                i = q.pop(0)
                in_transit[i] = (key, t + taus[key])
        queue_sums[t] = sum(len(q) for q in queues.values())
        if queue_sums[t]:
            last_event = max(last_event, t)
        if all(done):
            break
    assert all(done), "reference loader ran out of horizon"
    completions = tuple(arrivals[m])
    queue_sums = {t: v for t, v in queue_sums.items() if t <= last_event + 1}
    return (
        tuple(tuple(row) for row in arrivals),
        completions,
        max(completions),
        queue_sums,
    )


@dataclass(frozen=True)
class HeapLoading:
    """Every field of a LoadingResult, as recorded by the event loop."""

    waiting: tuple[tuple[int, ...], ...]
    latency: tuple[tuple[int, ...], ...]
    arrivals: tuple[tuple[int, ...], ...]
    completions: tuple[int, ...]
    makespan: int
    edge_logs: dict[tuple[int, int], EdgeLog]
    queue_sum_times: tuple[int, ...]
    queue_sum_values: tuple[int, ...]
    trace: tuple[TraceEvent, ...] | None
    queue_trace: dict[tuple[int, int], dict[int, tuple[int, ...]]] | None


def heap_load(game: Game, state: State, *, trace: bool = False, queue_trace: bool = False) -> HeapLoading:
    """Event-heap loading loop: enqueue released players, then serve queues.

    At every event time t, players released from their previous edge at
    t - transit(previous) join their next edge's queue (players starting at t
    join their first edge), ordered by (arrival time at the edge, player
    index); then every non-empty queue releases its first min(capacity, len)
    players, each reaching the edge head at t + transit. The heap holds only
    times at which someone joins or a queue is still non-empty.
    """
    graph = game.graph
    m = graph.num_layers
    n = game.n

    offsets = []
    total = 0
    for layer in graph.layers:
        offsets.append(total)
        total += len(layer)
    taus = array("q", (e.transit for layer in graph.layers for e in layer))
    caps = array("q", (e.capacity for layer in graph.layers for e in layer))
    keys = [(e.layer, e.index_in_layer) for layer in graph.layers for e in layer]
    routes = [
        array("q", (offsets[j] + idx - 1 for j, idx in enumerate(p.edge_indices)))
        for p in state.paths
    ]

    starts = game.start_times()
    waiting = [[0] * m for _ in range(n)]
    arrivals: list[list[int]] = [[0] * n for _ in range(m + 1)]
    arrivals[0] = list(starts)

    log_entries = [array("q") for _ in range(total)]
    log_departs = [array("q") for _ in range(total)]
    log_players = [array("q") for _ in range(total)]

    queues: list[deque] = [deque() for _ in range(total)]
    entry_at: list[int] = [0] * n  # time the player joined its current queue
    layer_of: list[int] = [0] * n  # 0-based layer the player currently queues on

    joiners: dict[int, dict[int, list[int]]] = {}
    for i, t0 in enumerate(starts):
        joiners.setdefault(t0, {}).setdefault(routes[i][0], []).append(i)

    heap = sorted(joiners)
    heapq.heapify(heap)
    scheduled = set(heap)

    qsum = 0
    qsum_times: list[int] = []
    qsum_values: list[int] = []
    live: set[int] = set()
    rows: list[TraceEvent] = []
    qtrace: dict[int, dict[int, tuple[int, ...]]] = {}

    while heap:
        t = heapq.heappop(heap)
        scheduled.discard(t)

        touched: set[int] = set()
        js = joiners.pop(t, None)
        if js is not None:
            for eid in sorted(js):
                group = sorted(js[eid])  # same arrival time: lower player index first
                q = queues[eid]
                for i in group:
                    q.append(i)
                    entry_at[i] = t
                    log_entries[eid].append(t)
                if trace:
                    layer, idx = keys[eid]
                    rows.extend(TraceEvent(t, layer, idx, "enqueue", i + 1) for i in group)
                qsum += len(group)
                live.add(eid)
                touched.add(eid)

        for eid in sorted(live):
            q = queues[eid]
            served = min(caps[eid], len(q))
            head = t + taus[eid]
            for _ in range(served):
                i = q.popleft()
                j = layer_of[i]
                waiting[i][j] = t - entry_at[i]
                arrivals[j + 1][i] = head
                log_departs[eid].append(t)
                log_players[eid].append(i)
                if trace:
                    layer, idx = keys[eid]
                    rows.append(TraceEvent(t, layer, idx, "depart", i + 1))
                    rows.append(TraceEvent(head, layer, idx, "arrive", i + 1))
                if j + 1 < m:
                    layer_of[i] = j + 1
                    joiners.setdefault(head, {}).setdefault(routes[i][j + 1], []).append(i)
                    if head not in scheduled:
                        heapq.heappush(heap, head)
                        scheduled.add(head)
            qsum -= served
            if served:
                touched.add(eid)
        live = {eid for eid in live if queues[eid]}
        if live and t + 1 not in scheduled:
            heapq.heappush(heap, t + 1)
            scheduled.add(t + 1)

        qsum_times.append(t)
        qsum_values.append(qsum)
        if queue_trace:
            for eid in touched:
                qtrace.setdefault(eid, {})[t] = tuple(i + 1 for i in queues[eid])

    assert not any(queues), "reference loader ended with players still queued"
    completions = tuple(arrivals[m])
    return HeapLoading(
        waiting=tuple(tuple(row) for row in waiting),
        latency=tuple(tuple(waiting[i][j] + taus[routes[i][j]] for j in range(m)) for i in range(n)),
        arrivals=tuple(tuple(row) for row in arrivals),
        completions=completions,
        makespan=max(completions),
        edge_logs={
            keys[eid]: EdgeLog(log_entries[eid], log_departs[eid], log_players[eid])
            for eid in range(total)
            if len(log_players[eid])
        },
        queue_sum_times=tuple(qsum_times),
        queue_sum_values=tuple(qsum_values),
        trace=tuple(sorted(rows, key=lambda r: r.time)) if trace else None,
        queue_trace={keys[eid]: snap for eid, snap in qtrace.items()} if queue_trace else None,
    )


def reload_check(game: Game, state: State):
    """True, or the first improving deviation in (player, path, node) order.

    Paths are tried in lexicographic order of their edge indices. Every
    profile, the base one included, is loaded from scratch by `heap_load`.
    """
    base = heap_load(game, state).arrivals
    m = game.graph.num_layers
    alternatives = [PathChoice(c) for c in product(*(range(1, len(layer) + 1) for layer in game.graph.layers))]
    for i, own in enumerate(state.paths):
        for alt in alternatives:
            if alt == own:
                continue
            paths = list(state.paths)
            paths[i] = alt
            arrivals = heap_load(game, State(tuple(paths))).arrivals
            for j in range(1, m + 1):
                if arrivals[j][i] < base[j][i]:
                    return UfrWitness(player=i + 1, node=j, deviation=alt, improved_arrival=arrivals[j][i])
    return True


def replay_construct(game: Game, policy: TieBreakPolicy) -> State:
    """Players in index order, each entering an edge of least workload per layer.

    At the tail of a layer at time t, an edge's workload is
    transit + queued // capacity, where queued counts the edge's departures
    at or after t. Ties go to the lowest index (lowest-index), the longest
    queue (greedy-queue) or the shortest queue (shortest-queue), each then
    to the lowest index; seeded draws one randrange over the tied edges in
    index order whenever more than one edge ties. The player departs at t,
    or at d[-c] + 1 when c players entered before it and the c-th last of
    them departs at or after t.
    """
    rng = random.Random(policy.seed) if policy.kind == "seeded" else None
    departs = [[[] for _ in layer] for layer in game.graph.layers]
    paths = []
    for i in range(game.n):
        t = game.start_time(i)
        choice = []
        for layer, logs in zip(game.graph.layers, departs):
            scored = []
            for e, d in zip(layer, logs):
                queued = sum(1 for out in d if out >= t)
                scored.append((e.transit + queued // e.capacity, queued, e))
            least = min(w for w, _, _ in scored)
            tied = [(queued, e) for w, queued, e in scored if w == least]
            if policy.kind == "greedy-queue":
                _, edge = max(tied, key=lambda qe: qe[0])
            elif policy.kind == "shortest-queue":
                _, edge = min(tied, key=lambda qe: qe[0])
            elif rng is not None and len(tied) > 1:
                _, edge = tied[rng.randrange(len(tied))]
            else:
                _, edge = tied[0]
            d = logs[edge.index_in_layer - 1]
            c = edge.capacity
            out = max(t, d[-c] + 1) if len(d) >= c else t
            d.append(out)
            t = out + edge.transit
            choice.append(edge.index_in_layer)
        paths.append(PathChoice(tuple(choice)))
    return State(tuple(paths))


def replay_enumerate(game: Game) -> list[State]:
    """Every profile replay_construct's least-workload rule can build, in
    lexicographic order: each player, layer by layer, takes every edge of
    least workload in index order, depth first, on its own copy of every
    edge's departures. No two choices share a subgame, so each is replayed
    from scratch; slow, but it needs no bound on num_paths**n.
    """
    m = game.graph.num_layers
    found = []

    def step(s: int, t: int, departs: list[list[list[int]]], edges: tuple[int, ...]) -> None:
        if s == game.n * m:
            found.append(State(tuple(PathChoice(edges[i:i + m]) for i in range(0, len(edges), m))))
            return
        i, j = divmod(s, m)
        if j == 0:
            t = game.start_time(i)
        layer = game.graph.layers[j]
        scored = [e.transit + sum(1 for out in d if out >= t) // e.capacity for e, d in zip(layer, departs[j])]
        for e, w in zip(layer, scored):
            if w == min(scored):
                d = departs[j][e.index_in_layer - 1]
                out = max(t, d[-e.capacity] + 1) if len(d) >= e.capacity else t
                branch = [[list(log) for log in logs] for logs in departs]
                branch[j][e.index_in_layer - 1].append(out)
                step(s + 1, out + e.transit, branch, edges + (e.index_in_layer,))

    step(0, 0, [[[] for _ in layer] for layer in game.graph.layers], ())
    return found


def table_enumerate(game: Game) -> list[State]:
    """All equilibria of a tiny game, lexicographically ordered by path choices.

    Every deviation profile is itself a state, so one arrival table over the
    full mixed-radix state space answers all deviation queries: player i's
    state is an equilibrium iff its arrival row is the componentwise minimum
    of the num_paths rows that differ only in i's digit.
    """
    n = game.n
    m = game.graph.num_layers
    paths = all_paths(game.graph)
    num_paths = len(paths)
    total = num_paths**n
    rows = _arrival_tables(game, paths)

    good = np.ones(total, dtype=bool)
    weight = 1  # num_paths ** (n - 1 - i), player n-1 least significant
    for i in range(n - 1, -1, -1):
        block = weight * num_paths
        view = np.ascontiguousarray(rows[:, i, :]).reshape(total // block, num_paths, weight, m)
        best = view.min(axis=1, keepdims=True)
        good &= (view == best).all(axis=3).reshape(total)
        weight = block

    found = []
    for sid in np.flatnonzero(good):
        digits = []
        rem = int(sid)
        for _ in range(n):
            rem, d = divmod(rem, num_paths)
            digits.append(d)
        found.append(State(tuple(paths[d] for d in reversed(digits))))
    return found


def _arrival_tables(game: Game, paths: list[PathChoice]) -> np.ndarray:
    """Arrivals of every player at every node, for all num_paths**n states at once.

    rows[sid, i, j] is player i's arrival at node v_{j+1} in state sid. Within
    one FIFO queue the entrant of rank q departs at q + max_{r <= q}(a_r - r),
    so sorting players by (arrival, index) and taking a per-edge running
    maximum over the sorted axis yields a whole layer in a few array passes.
    A capacity-c edge serves as c unit copies, the entrant of FIFO rank q
    taking copy q mod c, so the same recursion runs inside each copy with
    the rank counted among that copy's entrants.
    """
    n = game.n
    m = game.graph.num_layers
    num_paths = len(paths)
    total = num_paths**n
    choice = np.array([[idx - 1 for idx in p.edge_indices] for p in paths], dtype=np.int64)
    weights = num_paths ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(total, dtype=np.int64)[:, None] // weights) % num_paths

    rows = np.empty((total, n, m), dtype=np.int64)
    arr = np.broadcast_to(np.array(game.start_times(), dtype=np.int64), (total, n)).copy()
    low = np.iinfo(np.int64).min // 4
    for j in range(m):
        edge = choice[digits, j]
        order = np.argsort(arr, axis=1, kind="stable")  # FIFO: arrival time, then index
        arr_s = np.take_along_axis(arr, order, axis=1)
        edge_s = np.take_along_axis(edge, order, axis=1)
        depart = np.empty_like(arr_s)
        for e, props in enumerate(game.graph.layers[j]):
            on_e = edge_s == e
            rank = np.cumsum(on_e, axis=1)
            c = props.capacity
            if c == 1:
                copies = (on_e,)
            else:
                slot = (rank - 1) % c
                copies = (on_e & (slot == g) for g in range(min(c, n)))
                rank = (rank - 1) // c + 1
            for on_copy in copies:
                head = np.maximum.accumulate(np.where(on_copy, arr_s - rank, low), axis=1)
                np.copyto(depart, rank + head + props.transit, where=on_copy)
        np.put_along_axis(arr, order, depart, axis=1)
        rows[:, :, j] = arr
    return rows


def naive_check_flow(
    graph: LinearMultigraph, flow: FlowOverTime, expected_value: int | None = None
) -> list[str]:
    """`check_flow_feasible` with a `cumulative_flow` call per edge at every
    critical time; the messages and their order are the library's."""
    violations: list[str] = []
    T = flow.horizon
    for key, bps in sorted(flow.rates.items()):
        layer, index = key
        name = f"{layer}:{index}"
        try:
            edge = graph.edge(layer, index)
        except FifoRouteError:
            violations.append(f"edge {name} not in graph")
            continue
        times = [t for t, _ in bps]
        if times != sorted(set(times)):
            violations.append(f"edge {name} breakpoints not strictly increasing")
            continue
        if bps and bps[0][0] < 0:
            violations.append(f"edge {name} starts at negative time {bps[0][0]}")
        if bps and bps[-1][1] != 0:
            violations.append(f"edge {name} does not end at rate 0")
        cutoff = T - edge.transit
        for pos, (t, r) in enumerate(bps):
            if r < 0:
                violations.append(f"edge {name} negative rate {r} at time {t}")
            if r > edge.capacity:
                violations.append(
                    f"edge {name} rate {r} exceeds capacity {edge.capacity} at time {t}"
                )
            if r > 0:
                end = bps[pos + 1][0] if pos + 1 < len(bps) else T
                if end > cutoff:
                    violations.append(
                        f"edge {name} active on [{t},{end}) past cutoff {cutoff}"
                    )
    if violations:
        return violations

    m = len(graph.layers)
    for j in range(1, m):
        into = graph.layers[j - 1]
        out_of = graph.layers[j]
        critical = {0, T}
        for e in into:
            for t, _ in flow.rates.get((e.layer, e.index_in_layer), ()):
                critical.add(t + e.transit)
        for e in out_of:
            for t, _ in flow.rates.get((e.layer, e.index_in_layer), ()):
                critical.add(t)
        for theta in sorted(c for c in critical if 0 <= c <= T):
            arrived = sum(
                cumulative_flow(flow, e.layer, e.index_in_layer, theta - e.transit)
                for e in into
                if theta >= e.transit
            )
            left = sum(
                cumulative_flow(flow, e.layer, e.index_in_layer, theta) for e in out_of
            )
            if left > arrived:
                violations.append(
                    f"conservation violated at node v_{j} by time {theta}:"
                    f" out {left} > in {arrived}"
                )
    if expected_value is not None:
        value = flow_value(graph, flow)
        if value != expected_value:
            violations.append(f"flow value {value} != expected {expected_value}")
    return violations
