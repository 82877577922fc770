"""Construct, verify, and enumerate uniformly-fastest-route equilibria."""
from __future__ import annotations

import random
from dataclasses import dataclass
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

    Each player moves layer by layer, always entering an edge whose workload
    at the player's arrival time is minimal given all lower-index players'
    fixed behavior; ties go to the policy. The ordering invariant (no player
    reaches any node before an earlier-indexed player) is asserted at every
    step, and the returned state is an equilibrium. The default greedy-queue
    policy gives the equilibrium of largest makespan.
    """
    return State(_construct(game, policy))


def _construct(game: Game, policy: TieBreakPolicy) -> tuple[PathChoice, ...]:
    """Core sequential construction; returns one path per player."""
    bad = validate_game(game)
    if bad:
        raise ConstructionError("invalid game: " + "; ".join(bad))
    if policy.kind not in _KINDS:
        raise ConstructionError(f"unknown policy kind {policy.kind!r}")

    graph = game.graph
    m = graph.num_layers
    n = game.n
    rng = random.Random(policy.seed) if policy.kind == "seeded" else None

    # Per edge, the departure times so far (non-decreasing) and a head pointer
    # to the first one >= the current entry time. Entry times on a layer are
    # arrivals at its tail node, which the invariant below keeps
    # non-decreasing in player index, so every head only moves forward and
    # the queue a player finds is len(departs) - head. Departures follow
    # arrival_sweep's rule: max(t, d[-c] + 1) once c players entered before.
    layer_taus = [[e.transit for e in layer] for layer in graph.layers]
    layer_caps = [[e.capacity for e in layer] for layer in graph.layers]
    departs: list[list[list[int]]] = [[[] for _ in layer] for layer in graph.layers]
    heads: list[list[int]] = [[0] * len(layer) for layer in graph.layers]

    last_node_arrival = [-1] * (m + 1)
    kind = policy.kind
    paths: list[PathChoice] = []

    for i in range(n):
        t = game.start_time(i)
        if t < last_node_arrival[0]:
            raise ConstructionError(f"player {i + 1} starts before player {i}")
        last_node_arrival[0] = t
        choice: list[int] = []
        for j in range(m):
            taus = layer_taus[j]
            caps = layer_caps[j]
            dep = departs[j]
            head = heads[j]
            best = -1
            best_w = -1
            best_q = 0
            ties: list[int] = []
            for idx in range(len(taus)):
                tau = taus[idx]
                if best >= 0 and tau > best_w:
                    break  # layer sorted by transit: nothing better follows
                d = dep[idx]
                h = head[idx]
                size = len(d)
                while h < size and d[h] < t:
                    h += 1
                head[idx] = h
                queued = size - h
                w = tau + queued // caps[idx]
                if best < 0 or w < best_w:
                    best, best_w, best_q = idx, w, queued
                    if rng is not None:
                        ties = [idx]
                elif w == best_w:
                    if rng is not None:
                        ties.append(idx)
                    elif kind == "greedy-queue":
                        if queued > best_q:
                            best, best_q = idx, queued
                    elif kind == "shortest-queue":
                        if queued < best_q:
                            best, best_q = idx, queued
                    # lowest-index: keep the earlier edge
            if rng is not None and len(ties) > 1:
                best = ties[rng.randrange(len(ties))]

            d = dep[best]
            c = caps[best]
            out = t
            if len(d) >= c and d[-c] >= t:
                out = d[-c] + 1
            d.append(out)
            t = out + taus[best]
            if t < last_node_arrival[j + 1]:
                raise ConstructionError(
                    f"player {i + 1} reaches node {j + 1} at {t}, "
                    f"before the previous front at {last_node_arrival[j + 1]}"
                )
            last_node_arrival[j + 1] = t
            choice.append(best + 1)
        paths.append(PathChoice(tuple(choice)))

    return tuple(paths)


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
    num_paths = game.num_paths()
    if num_paths > path_budget:
        raise BudgetError(
            f"instance too large for exact check: {num_paths} paths per player, budget {path_budget}"
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
    paths = all_paths(game.graph)
    num_paths = len(paths)
    n = game.n
    total = num_paths**n
    if total > state_budget:
        raise BudgetError(f"budget exceeded: {num_paths}^{n} = {total} states, budget {state_budget}")

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
