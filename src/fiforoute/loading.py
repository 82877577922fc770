"""Discrete-time FIFO network loading: map a strategy profile to its full timeline."""
from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate
from operator import itemgetter, sub
from typing import Iterator, Sequence

# validate_game is unused here; perfbench's span self-test reads loading.validate_game
from .model import Edge, FifoRouteError, Game, PathChoice, State, validate_game, validate_state


class LoadingError(FifoRouteError):
    """A game/state mismatch, or times beyond the int64 range."""


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One row of the event trace; player indices are 1-based."""

    time: int
    layer: int
    edge_index: int
    event: str  # enqueue | depart | arrive
    player: int


@dataclass(frozen=True)
class EdgeLog:
    """FIFO history of one edge: i-th queue entry/departure and who it was."""

    entries: array  # entry times, non-decreasing
    departs: array  # departure times, non-decreasing
    players: array  # 0-based player per slot, in FIFO order

    def __len__(self) -> int:
        return len(self.players)


@dataclass(frozen=True)
class LoadingResult:
    """Complete deterministic timeline of one network loading.

    arrivals[j][i] is the time player i reaches node v_j (node 0 holds the
    starting pattern); completions mirror the last node. Everything else is
    derived on first use: waiting[i][j] / latency[i][j] (0-based player i on
    the j-th layer of its path) and the per-edge logs from the arrivals and
    the state, and the queue sum series, the event trace and the per-edge
    queue snapshots from the logs. The queue sum series is sparse over event
    times; use the queue_sum() helper for lookups.
    """

    game: Game
    state: State
    arrivals: tuple[tuple[int, ...], ...]
    completions: tuple[int, ...]
    makespan: int

    def edge_log(self, layer: int, index: int) -> EdgeLog:
        """The edge's log, or a new empty one for an edge nobody used."""
        log = self.edge_logs.get((layer, index))
        return EdgeLog(array("q"), array("q"), array("q")) if log is None else log

    def __getstate__(self) -> dict:
        # the fields only: reading a derived value must not change what a
        # pickle of the result holds; it is derived again after unpickling
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def edge_logs(self) -> dict[tuple[int, int], EdgeLog]:
        """Per used edge, its FIFO log: players in (tail arrival, index) order,
        entering at the tail arrival, departing a transit before the head arrival."""
        logs = {}
        for j, transits in enumerate(self.game.graph.transits):
            a, b = self.arrivals[j], self.arrivals[j + 1]
            players = [array("q") for _ in transits]
            for i in sorted(range(self.game.n), key=a.__getitem__):  # stable: ties by index
                players[self.state.paths[i].edge_indices[j] - 1].append(i)
            for idx, (tau, on) in enumerate(zip(transits, players), start=1):
                if on:
                    entries = array("q", [a[i] for i in on])
                    departs = array("q", [b[i] - tau for i in on])
                    logs[(j + 1, idx)] = EdgeLog(entries, departs, on)
        return logs

    @cached_property
    def latency(self) -> tuple[tuple[int, ...], ...]:
        """Time each player spends on each layer: waiting plus transit."""
        arr = self.arrivals
        return tuple(zip(*(map(sub, b, a) for a, b in zip(arr, arr[1:]))))

    @cached_property
    def waiting(self) -> tuple[tuple[int, ...], ...]:
        """Time each player spends queued on each layer."""
        return tuple(zip(*self.wait_columns()))

    def wait_columns(self) -> Iterator[Iterator[int]]:
        """Per layer, the time each player spends queued on it, in player order."""
        arr = self.arrivals
        rows = [p.edge_indices for p in self.state.paths]
        for j, transits in enumerate(self.game.graph.transits):
            tau = (0, *transits)  # indexed by the 1-based edge indices
            own = map(tau.__getitem__, map(itemgetter(j), rows))
            yield map(sub, map(sub, arr[j + 1], arr[j]), own)

    @cached_property
    def trace(self) -> tuple[TraceEvent, ...]:
        """The event trace in time order. Within one time come first the
        arrivals at edge heads (by departure time, edge, FIFO rank), then the
        enqueues (by edge, player), then the departures (by edge, FIFO rank)."""
        transits = self.game.graph.transits
        rows = []
        for (layer, idx), log in self.edge_logs.items():
            tau = transits[layer - 1][idx - 1]
            for rank, (a, d, i) in enumerate(zip(log.entries, log.departs, log.players)):
                p = i + 1
                rows.append(((d + tau, 0, d, layer, idx, rank), TraceEvent(d + tau, layer, idx, "arrive", p)))
                rows.append(((a, 1, layer, idx, p), TraceEvent(a, layer, idx, "enqueue", p)))
                rows.append(((d, 2, layer, idx, rank), TraceEvent(d, layer, idx, "depart", p)))
        rows.sort(key=itemgetter(0))
        return tuple(event for _, event in rows)

    @cached_property
    def queue_trace(self) -> dict[tuple[int, int], dict[int, tuple[int, ...]]]:
        """Per edge, its queue (1-based players in FIFO order) after the
        removal step at every time someone joins or leaves it."""
        out = {}
        for key, log in self.edge_logs.items():
            snaps = {}
            for t in sorted(set(log.entries) | set(log.departs)):
                lo = bisect_right(log.departs, t)
                hi = bisect_right(log.entries, t)
                snaps[t] = tuple(i + 1 for i in log.players[lo:hi])
            out[key] = snaps
        return out

    @property
    def queue_sum_times(self) -> tuple[int, ...]:
        """Event times: every t at which some player is in a queue after joining."""
        return self._queue_series[0]

    @property
    def queue_sum_values(self) -> tuple[int, ...]:
        """Players queued anywhere after the removal step, at each event time."""
        return self._queue_series[1]

    @cached_property
    def _queue_series(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # A non-empty queue releases someone at every step, so the times at
        # which anyone is queued are exactly the entry and departure times.
        joins: Counter = Counter()
        leaves: Counter = Counter()
        for log in self.edge_logs.values():
            joins.update(log.entries)
            leaves.update(log.departs)
        times = sorted(joins.keys() | leaves.keys())
        return tuple(times), tuple(accumulate(joins[t] - leaves[t] for t in times))


def check_times_fit_int64(game: Game) -> None:
    """Raise LoadingError unless every time of every profile fits in int64.

    Edge logs hold times as int64, and enumeration keeps the same limit. A
    player waits fewer than n steps per layer, so no arrival exceeds the
    last player's start (the game is valid, so starts are non-decreasing)
    plus, per layer, the largest transit and n. That bound must stay below
    2**62, half the int64 range, which also covers intermediate sums.
    """
    graph = game.graph
    bound = game.start_time(game.n - 1) + sum(map(max, graph.transits)) + game.n * graph.num_layers
    if bound >= 2**62:
        raise LoadingError(f"times may reach {bound}, beyond the 2**62 limit of int64 time tables")


def check_profile(game: Game, state: State) -> None:
    """Raise LoadingError unless the game's times fit int64 and the profile
    fits the game, as load requires before it sweeps."""
    check_times_fit_int64(game)
    bad = validate_state(game, state)
    if bad:
        raise LoadingError("state does not fit game: " + "; ".join(bad))


def arrival_sweep(game: Game, paths: Sequence[PathChoice]) -> tuple[tuple[int, ...], ...]:
    """Arrival times of a valid profile, one network layer at a time.

    At every integer time, the players that reach an edge's tail join its
    queue, ordered by (arrival time, player index), and the queue then
    releases its first `capacity` players, each reaching the edge's head one
    transit later. On a chain, arrivals at v_j depend only on arrivals at
    v_{j-1} and the choices on layer j, so each layer is one sweep over its
    players in that FIFO order: the q-th entrant of a capacity-c edge, who
    arrives at a_q, departs at d_q = max(a_q, d_{q-c} + 1) (Lindley's
    recursion, with the c servers of a wide edge taken by FIFO rank mod c).
    In head-time terms the entrant reaches the head at h = a_q + transit_e,
    or at h_{q-c} + 1 if that is later.

    Each edge serves its own entrants only, so a layer of unit edges is first
    swept in player index order, with one ready time h + 1 per edge: restricted
    to one edge, index order is the FIFO order while that edge's tail arrivals
    never fall with the player index. The sweep keeps each edge's last tail
    arrival and checks each entrant against it; one that arrived earlier
    would find the edge still busy, so only a queued entrant is checked. The
    equilibria of sequential_equilibrium and the optimal profiles of
    optimal_state pass the check on every layer. A layer with a wider edge,
    or a unit layer with an entrant that fails the check, is swept in
    (arrival, index) order instead. There each edge keeps its head times in
    a list that starts with `capacity` zeros, so h_{q-c} is always the c-th
    last entry; the zeros never bind, as every head time is at least 1. A
    capacity c >= n is padded as n: no entrant has n others ahead of it, so
    h_{q-c} never exists and the n-th last entry is always a zero.

    Returns arrivals[j][i], the time player i reaches node v_j. Nothing is
    validated: callers pass a valid game and one valid path per player.
    """
    n = game.n
    arr = game.start_times()
    arrivals = [arr]
    rows = [p.edge_indices for p in paths]
    unit = game.graph.unit_capacity
    for j, (transits, caps) in enumerate(zip(game.graph.transits, game.graph.capacities)):
        tau = (0, *transits)  # indexed by the 1-based edge indices
        nxt = []
        if unit or max(caps) == 1:
            ready = [0] * len(tau)
            last = [0] * len(tau)  # each edge's latest tail arrival; starts are >= 0
            append = nxt.append
            for a, e in zip(arr, map(itemgetter(j), rows)):
                h = a + tau[e]
                if ready[e] > h:
                    if a < last[e]:  # only a queued entrant can come before the last one
                        break
                    h = ready[e]
                last[e] = a
                ready[e] = h + 1
                append(h)
        if len(nxt) < n:  # a wider edge, or an edge that saw its entrants out of order
            back = [-1]  # minus each capacity: hs[back[e]] is the head time c entrants back
            back += [-min(c, n) for c in caps]
            heads = [[0] * -k for k in back]
            col = list(map(itemgetter(j), rows))
            nxt = [0] * n
            for i in sorted(range(n), key=arr.__getitem__):  # stable: ties by index
                e = col[i]
                hs = heads[e]
                h = arr[i] + tau[e]
                x = hs[back[e]]
                if x >= h:
                    h = x + 1
                hs.append(h)
                nxt[i] = h
        arr = tuple(nxt)
        arrivals.append(arr)
    return tuple(arrivals)


def load(game: Game, state: State) -> LoadingResult:
    """Validate a profile against its game, then load it with arrival_sweep.

    The game is valid since it was built. A profile that does not fit it
    raises LoadingError, and so does a game whose times could exceed int64.
    The result stores the arrivals; edge logs, queues and traces are derived
    from them on first read.
    """
    check_profile(game, state)
    arrivals = arrival_sweep(game, state.paths)
    return LoadingResult(game, state, arrivals, completions=arrivals[-1], makespan=max(arrivals[-1]))


def workload(result: LoadingResult, edge: Edge, t: int) -> int:
    """Latency a fictional lowest-priority player entering edge's queue at t would face.

    Equals transit + floor(p / capacity) where p counts players that entered
    by t and depart at t or later: exactly the ones the newcomer stands
    behind, drained at `capacity` per step. Beyond the simulated horizon the
    queue is empty and the workload is the bare transit time.
    """
    return edge.transit + queue_length(result, edge, t) // edge.capacity


def queue_length(result: LoadingResult, edge: Edge, t: int) -> int:
    """Players in edge's queue at time t, counted after the join step."""
    log = result.edge_log(edge.layer, edge.index_in_layer)
    return bisect_right(log.entries, t) - bisect_left(log.departs, t)


def queue_sum(result: LoadingResult, t: int) -> int:
    """Total players queued anywhere at time t, after the removal step."""
    times = result.queue_sum_times
    pos = bisect_right(times, t)
    if pos == 0:
        return 0
    return result.queue_sum_values[pos - 1]


def trace_rows(result: LoadingResult) -> Iterator[tuple[int, str, str, int]]:
    """Trace rows as (time, "layer:index", event, player) tuples for CSV export."""
    for ev in result.trace:
        yield ev.time, f"{ev.layer}:{ev.edge_index}", ev.event, ev.player
