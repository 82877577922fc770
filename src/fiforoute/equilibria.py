"""Construct, verify, and enumerate uniformly-fastest-route equilibria."""
from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat
from typing import Union

import numpy as np

from .loading import arrival_sweep, check_times_fit_int64, load
from .model import (
    FifoRouteError,
    Game,
    PathChoice,
    State,
    all_paths,
    validate_game,
)


class BudgetError(FifoRouteError):
    """An exact check was asked to cover more states/paths than its budget."""


class ConstructionError(FifoRouteError):
    """The sequential constructor's ordering invariant failed."""


@dataclass(frozen=True, slots=True)
class TieBreakPolicy:
    """How a deciding player picks among minimum-workload edges.

    greedy-queue: longest queue first, then lowest edge index.
    lowest-index: lowest edge index.
    shortest-queue: shortest queue first, then lowest edge index.
    seeded: uniform among tied edges via a deterministic PRNG.
    """

    kind: str
    seed: int | None = None

    def __str__(self) -> str:
        if self.kind == "seeded":
            return f"seeded:{self.seed}"
        return self.kind


GREEDY_QUEUE = TieBreakPolicy("greedy-queue")
LOWEST_INDEX = TieBreakPolicy("lowest-index")
SHORTEST_QUEUE = TieBreakPolicy("shortest-queue")

_KINDS = ("greedy-queue", "lowest-index", "shortest-queue", "seeded")


def seeded(seed: int) -> TieBreakPolicy:
    if not 0 <= seed < 2**64:
        raise FifoRouteError("seed must fit in 64 bits")
    return TieBreakPolicy("seeded", seed)


def parse_policy(text: str, default_seed: int | None = None) -> TieBreakPolicy:
    """Parse a policy name: greedy-queue, lowest-index, shortest-queue, seeded:<u64>."""
    if text in ("greedy-queue", "lowest-index", "shortest-queue"):
        return TieBreakPolicy(text)
    if text == "seeded":
        return seeded(default_seed if default_seed is not None else 0)
    if text.startswith("seeded:"):
        try:
            return seeded(int(text.split(":", 1)[1]))
        except ValueError:
            raise FifoRouteError(f"bad seed in policy {text!r}") from None
    raise FifoRouteError(f"unknown policy {text!r}")


@dataclass(frozen=True)
class UfrWitness:
    """Proof that a state is not an equilibrium: a strictly improving deviation.

    `player` is 1-based; `node` is the index j of the node v_j the player
    reaches strictly earlier (at `improved_arrival`) by switching to
    `deviation` while everyone else stays put.
    """

    player: int
    node: int
    deviation: PathChoice
    improved_arrival: int


def sequential_equilibrium(game: Game, policy: TieBreakPolicy = GREEDY_QUEUE) -> State:
    """Insert players in index order, each walking a currently-fastest route.

    Each player moves layer by layer. At the tail of a layer at time t it
    enters the edge of least head arrival max(t + tau_e, ready_e), where
    ready_e is the earliest time a newcomer can reach e's head given all
    lower-index players' fixed behavior (d[-c] + 1 + tau_e once e has had c
    entrants, 0 before). Every earlier entrant entered by t, so this is t
    plus the edge's workload. Ties in head arrival go to the policy:
    lowest-index keeps the first tied edge; greedy-queue and shortest-queue
    compare queue lengths; seeded draws uniformly among the tied edges. On
    a layer of unit edges a tied edge's queue is H - t - tau_e, so the first
    tied edge (least transit) has the longest queue and greedy-queue keeps
    it, while shortest-queue takes a later tied edge of larger transit.

    The ordering invariant (no player reaches any node before an
    earlier-indexed player) is asserted at every step, and the returned
    state is an equilibrium. The default greedy-queue policy gives the
    equilibrium of largest makespan.
    """
    return State(_construct(game, policy))


def _construct(game: Game, policy: TieBreakPolicy) -> tuple[PathChoice, ...]:
    """Core sequential construction; returns one path per player."""
    bad = validate_game(game)
    if bad:
        raise ConstructionError("invalid game: " + "; ".join(bad))
    kind = policy.kind
    if kind not in _KINDS:
        raise ConstructionError(f"unknown policy kind {kind!r}")
    rng = random.Random(policy.seed) if kind == "seeded" else None
    greedy = kind == "greedy-queue"

    # Per layer: transits, each edge's ready time (d[-c] + 1 + tau once c
    # players entered, 0 before), and whether ties need a second look. A
    # player at the tail at time t reaches e's head at H = max(t + tau, ready)
    # and departs at H - tau, the rule arrival_sweep uses; on a unit edge the
    # new ready time is H + 1. Ties: lowest-index keeps the first tied edge.
    # On a unit layer a tied edge's queue is H - t - tau, so the first tied
    # edge (least transit) has the longest queue: greedy-queue keeps it and
    # shortest-queue moves to a tied edge of larger transit. A layer with a
    # wider edge keeps each edge's departures (for d[-c]) and a head pointer
    # to the first departure >= t, for queue counts; entry times on a layer
    # are arrivals at its tail, which the invariant below keeps
    # non-decreasing, so the pointers only move forward.
    layers = []
    for layer in game.graph.layers:
        caps = [e.capacity for e in layer]
        wide = max(caps) > 1
        layers.append((
            [e.transit for e in layer],
            [0] * len(layer),
            caps if wide else None,
            [[] for _ in layer] if wide else None,
            [0] * len(layer) if wide else None,
            kind != "lowest-index" and (wide or not greedy),
        ))

    front = [-1] * (len(layers) + 1)  # latest arrival so far at each node
    paths: list[PathChoice] = []
    for i in range(game.n):
        t = game.start_time(i)
        if t < front[0]:
            raise ConstructionError(f"player {i + 1} starts before player {i}")
        front[0] = t
        choice: list[int] = []
        for j, (taus, ready, caps, departs, heads, ties) in enumerate(layers, 1):
            best = 0
            best_h = t + taus[0]
            if ready[0] > best_h:
                best_h = ready[0]
            if not ties:
                for idx in range(1, len(taus)):
                    h = t + taus[idx]
                    if h >= best_h:
                        break  # layer sorted by transit: nothing earlier follows
                    r = ready[idx]
                    if r < best_h:
                        best = idx
                        best_h = h if h > r else r
            else:
                tied = [0] if rng is not None else None
                best_q = -1
                for idx in range(1, len(taus)):
                    tau = taus[idx]
                    h = t + tau
                    if h > best_h:
                        break
                    r = ready[idx]
                    if r > h:
                        h = r
                    if h < best_h:
                        best, best_h, best_q = idx, h, -1
                        if rng is not None:
                            tied = [idx]
                    elif h == best_h:
                        if rng is not None:
                            tied.append(idx)
                        elif caps is None:  # shortest-queue: larger transit, shorter queue
                            if tau > taus[best]:
                                best = idx
                        else:
                            if best_q < 0:
                                best_q = _queued(departs, heads, best, t)
                            q = _queued(departs, heads, idx, t)
                            if q > best_q if greedy else q < best_q:
                                best, best_q = idx, q
                if rng is not None and len(tied) > 1:
                    best = tied[rng.randrange(len(tied))]

            if caps is None:
                ready[best] = best_h + 1
            else:
                tau = taus[best]
                d = departs[best]
                d.append(best_h - tau)
                c = caps[best]
                if len(d) >= c:
                    ready[best] = d[-c] + 1 + tau
            t = best_h
            if t < front[j]:
                raise ConstructionError(
                    f"player {i + 1} reaches node {j} at {t}, before the previous front at {front[j]}"
                )
            front[j] = t
            choice.append(best + 1)
        paths.append(PathChoice(tuple(choice)))

    return tuple(paths)


def _queued(departs: list[list[int]], heads: list[int], e: int, t: int) -> int:
    """Players on edge e that depart at or after t, moving its head pointer forward."""
    d = departs[e]
    h = heads[e]
    while h < len(d) and d[h] < t:
        h += 1
    heads[e] = h
    return len(d) - h


DEFAULT_PATH_BUDGET = 10_000
DEFAULT_STATE_BUDGET = 100_000


def is_ufr_equilibrium(
    game: Game, state: State, path_budget: int = DEFAULT_PATH_BUDGET
) -> Union[bool, UfrWitness]:
    """Exact deviation check: True, or the first witness in (player, path, node) order.

    The game and the state are validated once, by the base load. Then, for
    every player and every alternative path, the profile with only that
    player's path replaced is swept again (arrival_sweep) and the player's
    arrival times at every node are compared; any strictly earlier arrival
    disproves equilibrium.
    """
    if path_budget < 1:
        raise BudgetError("path budget must be positive")
    if _capped_product(game.graph.layer_sizes, path_budget) > path_budget:
        raise BudgetError(
            f"instance too large for exact check: over the path budget of {path_budget} paths per player"
        )
    base = load(game, state).arrivals
    alternatives = all_paths(game.graph)
    m = game.graph.num_layers
    paths = list(state.paths)
    for i in range(game.n):
        own = state.paths[i]
        for alt in alternatives:
            if alt == own:
                continue
            paths[i] = alt
            arrivals = arrival_sweep(game, paths)
            for j in range(1, m + 1):
                if arrivals[j][i] < base[j][i]:
                    return UfrWitness(
                        player=i + 1,
                        node=j,
                        deviation=alt,
                        improved_arrival=arrivals[j][i],
                    )
        paths[i] = own
    return True


def enumerate_equilibria(game: Game, state_budget: int = DEFAULT_STATE_BUDGET) -> list[State]:
    """All equilibria of a tiny game, lexicographically ordered by path choices.

    Every deviation profile is itself a state, so one arrival table over the
    full mixed-radix state space answers all deviation queries: player i's
    state is an equilibrium iff its arrival row is the componentwise minimum
    of the num_paths rows that differ only in i's digit. The table is built
    in int64 for every capacity; a game whose times could exceed that range
    raises LoadingError.
    """
    if state_budget < 1:
        raise BudgetError("state budget must be positive")
    bad = validate_game(game)
    if bad:
        raise FifoRouteError("invalid game: " + "; ".join(bad))
    n = game.n
    num_paths = _capped_product(game.graph.layer_sizes, state_budget)
    # one path means one state for any n, without n multiplications
    total = _capped_product(repeat(num_paths, n), state_budget) if num_paths > 1 else 1
    if total > state_budget:
        raise BudgetError(f"budget exceeded: {n} players have over {state_budget} states")
    paths = all_paths(game.graph)

    check_times_fit_int64(game)
    m = game.graph.num_layers
    rows = _arrival_tables(game, paths)

    good = np.ones(total, dtype=bool)
    weight = 1  # num_paths ** (n - 1 - i), player n-1 least significant
    for i in range(n - 1, -1, -1):
        block = weight * num_paths
        view = np.ascontiguousarray(rows[:, i, :]).reshape(
            total // block, num_paths, weight, m
        )
        best = view.min(axis=1, keepdims=True)
        good &= (view == best).all(axis=3).reshape(total)
        weight = block

    found: list[State] = []
    for sid in np.flatnonzero(good):
        digits: list[int] = []
        rem = int(sid)
        for _ in range(n):
            rem, d = divmod(rem, num_paths)
            digits.append(d)
        found.append(State(tuple(paths[d] for d in reversed(digits))))
    return found


def _capped_product(factors: Iterable[int], cap: int) -> int:
    """The product of factors, or cap + 1 as soon as a partial product exceeds cap."""
    total = 1
    for f in factors:
        total *= f
        if total > cap:
            return cap + 1
    return total


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
