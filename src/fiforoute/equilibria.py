"""Construct, verify, and enumerate uniformly-fastest-route equilibria."""
from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from itertools import repeat
from typing import Union

from .loading import arrival_sweep, check_times_fit_int64, load
from .model import FifoRouteError, Game, PathChoice, State, all_paths, validate_game


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

    Tail times never decrease: a head arrival max(t + tau_e, ready_e) only
    grows with t and with ready_e, and ready times only grow, so no player
    reaches any node before an earlier-indexed player. This ordering
    invariant is asserted at every step, and the returned state is an
    equilibrium. Where the first tied edge wins (lowest-index, and
    greedy-queue on a layer of unit edges) it lets each run of equal
    transit keep its edges in two heaps instead of scanning them: `free`,
    by index, for the edges already ready by t + tau, which all reach the
    head at t + tau; and `busy`, by (ready time, index), for the rest. An
    edge moves from busy to free once t + tau reaches its ready time and
    never back, until it is picked. Players who take the same path share
    one PathChoice. The default greedy-queue policy gives the equilibrium
    of largest makespan.
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

    # A player reaching e's head at H departs at H - tau, the rule
    # arrival_sweep uses; a unit edge is then ready at H + 1, a wider one at
    # d[-c] + 1 + tau from its departures d. Where the first tied edge wins,
    # a layer is its runs of equal transit, each (tau, free, busy) with the
    # heaps of the docstring: a run's pick is free[0], else busy[0], and a
    # later run must reach the head strictly earlier. Elsewhere ties need
    # every edge's ready time and, on a layer with a wider edge, a head
    # pointer to its first departure >= t, for queue counts; as tail times
    # never decrease, the pointers only move forward.
    layers = []
    for layer in game.graph.layers:
        caps = [e.capacity for e in layer]
        wide = max(caps) > 1
        departs = [[] for _ in layer] if wide else None
        if kind == "lowest-index" or (greedy and not wide):
            runs, tau = [], 0
            for idx, e in enumerate(layer):
                if e.transit != tau:
                    tau, free = e.transit, []  # ready 0: every edge, in index order (a heap)
                    runs.append((tau, free, []))
                free.append(idx)
            layers.append((None, None, caps if wide else None, departs, None, runs))
        else:
            taus = [e.transit for e in layer]
            heads = [0] * len(layer) if wide else None
            layers.append((taus, [0] * len(layer), caps if wide else None, departs, heads, None))

    front = [-1] * (len(layers) + 1)  # latest arrival so far at each node
    path_of: dict[tuple[int, ...], PathChoice] = {}
    paths: list[PathChoice] = []
    for i, t in enumerate(game.start_times()):
        if t < front[0]:
            raise ConstructionError(f"player {i + 1} starts before player {i}")
        front[0] = t
        choice: list[int] = []
        for j, (taus, ready, caps, departs, heads, runs) in enumerate(layers, 1):
            if runs:
                pick = None
                for run in runs:
                    tau, free, busy = run
                    h = t + tau
                    if pick is not None and h >= best_h:
                        break  # runs ascend in transit: nothing earlier follows
                    while busy and busy[0][0] <= h:
                        heappush(free, heappop(busy)[1])
                    if free:
                        best, best_h, pick = free[0], h, run
                        break
                    if pick is None or busy[0][0] < best_h:
                        (best_h, best), pick = busy[0], run
                tau, free, busy = pick
                if caps is None:
                    r = best_h + 1
                else:
                    d = departs[best]
                    d.append(best_h - tau)
                    c = caps[best]
                    r = d[-c] + 1 + tau if len(d) >= c else 0
                if best_h > t + tau:
                    heapreplace(busy, (r, best))
                else:  # back to free at the next look if still ready by then
                    heappop(free)
                    heappush(busy, (r, best))
            else:
                best = 0
                best_h = t + taus[0]
                if ready[0] > best_h:
                    best_h = ready[0]
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
        key = tuple(choice)
        path = path_of.get(key)
        if path is None:
            path = path_of[key] = PathChoice(key)
        paths.append(path)

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

    The base load validates the game and the state. If it is ordered (at
    every node, arrivals non-decreasing in player index), each player's
    arrivals depend only on the lower-index players, whom it queues behind.
    Replaying players in index order through _least_head then decides: one
    that reaches the least head arrival on every layer cannot gain (a
    deviation never reaches a node earlier, so it overtakes no lower-index
    player and those stay put); one that misses it gains on a faster edge.
    From the first that misses (player 1 if unordered), every alternative
    path is swept (arrival_sweep) and a strictly earlier arrival is a witness.
    """
    if path_budget < 1:
        raise BudgetError("path budget must be positive")
    if _capped_product(game.graph.layer_sizes, path_budget) > path_budget:
        raise BudgetError(
            f"instance too large for exact check: over the path budget of {path_budget} paths per player"
        )
    base = load(game, state).arrivals
    first = _first_to_miss(game, state, base)
    if first == game.n:
        return True
    alternatives = all_paths(game.graph)
    paths = list(state.paths)
    for i in range(first, game.n):
        own = state.paths[i]
        for alt in alternatives:
            if alt == own:
                continue
            paths[i] = alt
            arrivals = arrival_sweep(game, paths)
            for j in range(1, game.graph.num_layers + 1):
                if arrivals[j][i] < base[j][i]:
                    return UfrWitness(i + 1, j, alt, arrivals[j][i])
        paths[i] = own
    return True


def _first_to_miss(game: Game, state: State, base: tuple[tuple[int, ...], ...]) -> int:
    """First player of an ordered loading to miss a least head arrival (n if none); 0 if unordered."""
    if any(a > b for row in base for a, b in zip(row, row[1:])):
        return 0
    layers = _layers(game)
    for i, path in enumerate(state.paths):
        for j, (idx, (taus, caps, departs)) in enumerate(zip(path.edge_indices, layers)):
            h = base[j + 1][i]
            if h != _least_head(base[j][i], taus, caps, departs)[0]:
                return i
            departs[idx - 1].append(h - taus[idx - 1])
    return game.n


def enumerate_equilibria(game: Game, state_budget: int = DEFAULT_STATE_BUDGET) -> list[State]:
    """All equilibria of a tiny game, lexicographically ordered by path choices.

    In an equilibrium no player reaches a node before a lower-index one: the
    lower one could take the overtaker's edge and arrive no later. So each
    player's arrivals depend only on lower-index players, and the equilibria
    are the ordered profiles in which every player enters an edge of least
    head arrival on every layer (see is_ufr_equilibrium): the sequential
    constructions over every tie choice. A depth-first walk, player by
    player and layer by layer, branches over tied edges in index order,
    which gives lexicographic order. The budget counts all num_paths**n
    states; a game whose times could exceed int64 raises LoadingError.
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
    check_times_fit_int64(game)

    m = game.graph.num_layers
    layers = _layers(game)
    starts = game.start_times()
    path_of = {p.edge_indices: p for p in all_paths(game.graph)}
    steps = n * m  # step s puts player s // m on layer s % m
    choice = [0] * steps  # the 1-based edge index taken at each step
    found: list[State] = []

    def walk(s: int, t: int) -> None:
        # Step on from s while one edge is fastest, recurse at a tie (depth
        # below log2(len(found))), then pop the departures appended here.
        first = s
        while s < steps:
            j = s % m
            if j == 0:
                t = starts[s // m]
            taus, caps, departs = layers[j]
            t, tied = _least_head(t, taus, caps, departs)
            if len(tied) > 1:
                for e in tied:
                    choice[s] = e + 1
                    departs[e].append(t - taus[e])
                    walk(s + 1, t)
                    departs[e].pop()
                break
            e = tied[0]
            choice[s] = e + 1
            departs[e].append(t - taus[e])
            s += 1
        else:
            found.append(State(tuple(path_of[tuple(choice[k:k + m])] for k in range(0, steps, m))))
        for q in range(first, s):
            layers[q % m][2][choice[q] - 1].pop()

    walk(0, 0)
    return found


def _layers(game: Game) -> list[tuple[list[int], list[int], list[list[int]]]]:
    """Per layer: transits, capacities and an empty departure list per edge."""
    return [
        ([e.transit for e in layer], [e.capacity for e in layer], [[] for _ in layer])
        for layer in game.graph.layers
    ]


def _least_head(t: int, taus: list[int], caps: list[int], departs: list[list[int]]) -> tuple[int, list[int]]:
    """The least head arrival from tail time t on a layer, and the 0-based
    edges reaching it in index order. departs[e] holds the departures of the
    lower-index players on edge e; a newcomer queues behind them all, so by
    the rule of arrival_sweep it reaches e's head at t + tau_e, or at
    d[-c] + 1 + tau_e if later once c of them entered."""
    best, tied = 0, []
    for e, tau in enumerate(taus):
        h = t + tau
        if tied and h > best:
            break  # layer sorted by transit: nothing earlier follows
        d = departs[e]
        if len(d) >= caps[e] and d[-caps[e]] + 1 + tau > h:
            h = d[-caps[e]] + 1 + tau
        if not tied or h < best:
            best, tied = h, [e]
        elif h == best:
            tied.append(e)
    return best, tied


def _capped_product(factors: Iterable[int], cap: int) -> int:
    """The product of factors, or cap + 1 as soon as a partial product exceeds cap."""
    total = 1
    for f in factors:
        total *= f
        if total > cap:
            return cap + 1
    return total
