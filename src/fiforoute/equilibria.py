"""Construct, verify, and enumerate uniformly-fastest-route equilibria."""
from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate, groupby, product, repeat
from typing import Union

# load and validate_game are unused here; perfbench's span self-test reads
# equilibria.load and equilibria.validate_game
from .loading import arrival_sweep, check_profile, check_times_fit_int64, load
from .model import FifoRouteError, Game, PathChoice, State, all_paths, validate_game


class BudgetError(FifoRouteError):
    """An exact check was asked to cover more states/paths than its budget."""


class ConstructionError(FifoRouteError):
    """A policy of unknown kind, or a failed ordering invariant of the walk or
    the enumeration: a player reached a node before a lower-index one."""


# the policy kinds, and what a tie in head arrival does under each in the walk: on a
# layer of unit edges and on one with a wider edge. The check takes the profile's own edge.
_FIRST, _EVERY, _SLOWEST, _LONGEST_QUEUE, _SHORTEST_QUEUE = range(5)
_RULES = {
    "greedy-queue": (_FIRST, _LONGEST_QUEUE),
    "lowest-index": (_FIRST, _FIRST),
    "shortest-queue": (_SLOWEST, _SHORTEST_QUEUE),
    "seeded": (_EVERY, _EVERY),
}


@dataclass(frozen=True, slots=True)
class TieBreakPolicy:
    """How a deciding player picks among minimum-workload edges.

    greedy-queue: longest queue first, then lowest edge index.
    lowest-index: lowest edge index.
    shortest-queue: shortest queue first, then lowest edge index.
    seeded: uniform among tied edges via a deterministic PRNG.

    Only the seeded kind takes a seed, an int in [0, 2^64).
    """

    kind: str
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _RULES:
            raise ConstructionError(f"unknown policy kind {self.kind!r}")
        if self.kind == "seeded":
            if type(self.seed) is not int or not 0 <= self.seed < 2**64:
                raise FifoRouteError("seed must fit in 64 bits")
        elif self.seed is not None:
            raise FifoRouteError(f"policy {self.kind} takes no seed")

    def __str__(self) -> str:
        if self.kind == "seeded":
            return f"seeded:{self.seed}"
        return self.kind


GREEDY_QUEUE = TieBreakPolicy("greedy-queue")
LOWEST_INDEX = TieBreakPolicy("lowest-index")
SHORTEST_QUEUE = TieBreakPolicy("shortest-queue")


def seeded(seed: int) -> TieBreakPolicy:
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
    enters an edge of least head arrival max(t + tau_e, ready_e), ready_e
    being the earliest a newcomer can reach e's head behind all lower-index
    players. Ties go to the policy: lowest-index keeps the first tied edge,
    greedy-queue and shortest-queue compare queue lengths, seeded draws
    uniformly. Head arrivals only grow with t and ready times, so no player
    reaches a node before a lower-index one: the state is an equilibrium,
    and the default greedy-queue policy gives the one of largest makespan.
    Players who take the same path share one PathChoice.

    A game of unit edges under a policy whose unit-layer rule in _RULES is
    the first tied edge is built one run of equal tail time at a time.
    The c players who reach a layer's tail at t take the c least head slots
    max(t + tau_e, ready_e) + 0, 1, ... in (time, edge index) order, and
    their head times, in order, are the next layer's runs, so the ordering
    invariant holds by construction. While c stays the same from one tail
    time to the next, each step notes the shape of the edges: a queued edge
    (ready_e >= t + tau_e) by its ready time less the least such, a free one
    by a mark. Once a shape recurs after p steps, with that least ready time
    moved by p + s, the next m periods repeat the last one shifted: the
    column grows by the period's slice m times and each queued ready time
    by m (p + s). For s > 0, m stops before the water level passes a free
    edge's head t + tau_e; for s < 0, before a queued edge's ready time
    falls below t + tau_e. Every other game goes player by player through _walk.
    """
    if _RULES[policy.kind][0] == _FIRST and game.graph.unit_capacity:
        keys: Iterable[tuple[int, ...]] = zip(*_fill_columns(game))
    else:
        choice = _walk(game, policy)[1]
        keys = zip(*[iter(choice)] * game.graph.num_layers)  # m edges per player
    path_of: dict[tuple[int, ...], PathChoice] = {}
    paths = []
    for key in keys:
        path = path_of.get(key)
        if path is None:
            path = path_of[key] = PathChoice(key)
        paths.append(path)
    return State(tuple(paths))


def _fill_columns(game: Game) -> list[list[int]]:
    """Per layer, every player's 1-based edge, on a game of unit edges where
    the first tied edge wins: the run-length path of sequential_equilibrium.
    Every layer's head arrivals come out as runs, merged into the blocks fed
    to the next layer; nothing reads the last layer's yet."""
    # a layer's players come in blocks [t, c, length]: c players reach its
    # tail at each of the times t, t + 1, ..., t + length - 1
    blocks: list[list[int]] = []
    if game.starting_pattern is None:
        blocks.append([0, game.n, 1])
    else:
        for t, group in groupby(game.starting_pattern):
            _merge_run(blocks, t, sum(1 for _ in group), 1)
    columns = []
    for taus in game.graph.transits:
        # head arrivals as runs (t, c, length) in order, a step's first run
        # possibly at the previous run's last time
        runs: list[tuple[int, int, int]] = []
        if len(taus) == 1:  # one edge: a block's players follow each other from its head
            column = [1] * game.n
            x = 0
            for t, c, length in blocks:
                x = max(x, t + taus[0])
                runs.append((x, 1, c * length))
                x += c * length
        else:
            ready = [0] * len(taus)
            column = []
            watch = 2 * len(taus)  # see _fill_block
            for t, c, length in blocks:
                if length <= watch:
                    for t in range(t, t + length):
                        _water_fill(t, c, taus, ready, column, runs)
                else:
                    _fill_block(t, c, t + length, taus, ready, column, runs)
        columns.append(column)
        blocks = []
        for run in runs:
            _merge_run(blocks, *run)
    return columns


def _fill_block(
    t: int, c: int, end: int, taus: tuple[int, ...], ready: list[int], column: list[int], runs: list
) -> None:
    """Water-fill c players at each tail time from t to end - 1, jumping
    whole periods once the shape of the edges recurs. Every step is noted;
    a shape that recurs with less than a whole period left jumps none, as
    _periods gets m = 0.

    Blocks of up to twice the layer's width k go step by step instead: k
    edges of equal transit fed c players a step repeat with a period of at
    most k steps once their queues have formed, so a shorter block leaves
    no whole period to jump.
    """
    seen: dict[tuple, tuple[int, int, int, int, int]] = {}  # shape -> its last step
    marks: list[tuple[int | None, int | None]] = []  # per step since the last jump: (reach, slack)
    while t < end:
        shape = []
        base = slack = free = None
        for tau, r in zip(taus, ready):
            if r >= t + tau:
                shape.append(r)
                if base is None or r < base:
                    base = r
                if slack is None or r - t - tau < slack:
                    slack = r - t - tau
            else:
                shape.append(None)
                if free is None:
                    free = tau  # least: the layer ascends in transit
        if base is None:
            base = t
        key = tuple(None if r is None else r - base for r in shape)
        prev = seen.get(key)
        if prev is not None:
            t0, offset, col0, run0, mark0 = prev
            period, shift = t - t0, base - t - offset
            m = _periods(period, shift, (end - t) // period, marks[mark0:])
            if m:
                d = m * (period + shift)
                column += column[col0:] * m
                _repeat_runs(runs, run0, period + shift, m)
                for e, r in enumerate(key):
                    if r is not None:
                        ready[e] += d
                t += m * period
                seen.clear()
                marks.clear()
                continue
        seen[key] = (t, base - t, len(column), len(runs), len(marks))
        level = _water_fill(t, c, taus, ready, column, runs)
        marks.append((None if free is None else free - (level - t), slack))
        t += 1


def _periods(period: int, shift: int, m: int, marks: list[tuple[int | None, int | None]]) -> int:
    """How many of the m whole periods left in a block repeat the last one
    shifted, from the (reach, slack) of each of its steps.

    reach is how far the least free head t + tau_f lies above the water
    level, slack how far the queued edges' ready times lie above t + tau_e
    at least. A step repeats with the queued ready times moved by delta
    (relative to t) while no free edge's head lies below the water level
    (reach >= delta) and every queued edge stays queued (slack + delta >= 0).
    A free edge at the level is never taken: queued edges precede free ones
    in index order, as an edge taken at H leaves every lower-index edge
    (no slower) ready by H + 1 or later. So growing queues (shift > 0) are
    cut by reach, draining ones by slack. An edge free at the period's start
    and taken during it is queued with slack 0 before it is free again, so
    draining queues need no reach. With shift 0 every period repeats.
    """
    if not shift or not m:
        return m
    if shift > 0:
        reach = [g for g, _ in marks if g is not None]
        return max(0, min(m, min(reach) // shift)) if reach else m
    return min(m, min(s for _, s in marks if s is not None) // -shift)


def _repeat_runs(runs: list[tuple[int, int, int]], start: int, step: int, m: int) -> None:
    """Append the head runs of m more periods: runs[start:] shifted by
    i * step for i = 1 .. m.

    A period's first time a may be shared with the period before it, and
    a + step with the next (its last time b is at most a + step, as head
    times never decrease). So the m periods go out as the first time
    a + step, then m - 1 units, each the rest of a period (a + 1 .. b) and
    the first time of the next, then the rest of the last period. A unit
    with one count at each of its step times is one run for all m - 1.
    """
    window: list[list[int]] = []
    for run in runs[start:]:
        _merge_run(window, *run)
    a, c, n = window[0]
    rest = [[a + 1, c, n - 1]] + window[1:] if n > 1 else window[1:]
    unit = [list(block) for block in rest]
    _merge_run(unit, a + step, c, 1)
    runs.append((a + step, c, 1))
    if len(unit) == 1 and unit[0][2] == step:
        if m > 1:
            runs.append((unit[0][0] + step, unit[0][1], (m - 1) * step))
    else:
        for i in range(step, m * step, step):
            runs.extend((t + i, count, length) for t, count, length in unit)
    runs.extend((t + m * step, count, length) for t, count, length in rest)


def _water_fill(
    t: int, c: int, taus: tuple[int, ...], ready: list[int], column: list[int], runs: list
) -> int:
    """Give c players at the tail at t the c least head slots in (time, edge)
    order; returns the time of the last slot taken."""
    heads = [r if r > t + tau else t + tau for tau, r in zip(taus, ready)]
    if c == 1:  # one player: the first edge of least head arrival
        x = min(heads)
        e = heads.index(x)
        column.append(e + 1)
        runs.append((x, 1, 1))
        ready[e] = x + 1
        return x
    active: list[int] = []  # the edges with a slot at x, by index
    x = None
    for h, e in sorted(zip(heads, range(1, len(heads) + 1))):
        if h != x and active:  # the active edges fill the times x .. h - 1
            a = len(active)
            span = h - x
            if c <= a * span:
                break
            column += active * span
            runs.append((x, a, span))
            c -= a * span
        x = h
        insort(active, e)
    q, r = divmod(c, len(active))
    top = x + q
    if q:
        column += active * q
        runs.append((x, len(active), q))
    if r:
        column += active[:r]
        runs.append((top, r, 1))
        for e in active:
            if heads[e - 1] < top:
                ready[e - 1] = top
        for e in active[:r]:
            ready[e - 1] = top + 1
        return top
    for e in active:
        ready[e - 1] = top
    return top - 1


def _merge_run(blocks: list[list[int]], t: int, c: int, length: int) -> None:
    """Append c players at each of `length` times from t to blocks, adding
    them to the last block's last time if t is that time and extending the
    last block if it ends just before t with the same count."""
    if blocks:
        block = blocks[-1]
        t0, c0, n0 = block
        if t == t0 + n0 - 1:  # count them at that time, then merge the rest
            if n0 > 1:
                block[2] -= 1
            else:
                blocks.pop()
            _merge_run(blocks, t, c0 + c, 1)
            if length > 1:
                _merge_run(blocks, t + 1, c, length - 1)
            return
        if t == t0 + n0 and c == c0:
            block[2] += length
            return
    blocks.append([t, c, length])


def _walk(game: Game, settle: TieBreakPolicy | State) -> tuple[int, list[int]]:
    """Walk the players in index order, layer by layer, each into an edge of
    least head arrival; returns how many players it passed and the 1-based
    edge of each step, player by player.

    From tail time t, edge e's head arrival is max(t + tau_e, ready_e): a
    newcomer queues behind the lower-index entrants (arrival_sweep's rule),
    so on a wide layer ready_e is h[-c] + 1 for their head times h at e,
    listed after c zeros that never bind, c from the game's padded_capacities.
    Layers ascend in transit, so the scan stops at the first edge whose
    transit alone is too slow. `settle` decides ties:
    - a policy takes one tied edge. On a layer of unit edges a tied edge's
      queue is H - t - tau_e, so greedy-queue keeps the first and
      shortest-queue the one of largest transit; on other layers both
      count the entrants that reach e's head at t + tau_e or later.
    - a State takes the profile's own edge and stops at the first player
      whose edge's head arrival is later than the least, returning its index.
    The seeded policy's generator is made at its first tie of two or more
    edges, so a walk without one never seeds it; the draws are the same.
    Each step asserts that the player reaches the layer's head no earlier
    than the latest head arrival there, the previous player's.
    """
    kind = settle.kind if isinstance(settle, TieBreakPolicy) else None
    rng = None  # seeded: made at the first tie of two or more edges
    layers = []
    for taus, caps in zip(game.graph.transits, game.padded_capacities):
        hits = None if caps is None else [[0] * c for c in caps]  # wide layers: ready times, queue counts
        rule = _RULES[kind][caps is not None] if kind else _FIRST
        layers.append((taus, range(1, len(taus)), caps, [0] * len(taus), hits, rule))

    front = [0] * game.graph.num_layers  # each layer's latest head arrival
    choice = []  # the 1-based edge of each step
    for i, t in enumerate(game.start_times()):
        for j, (taus, rest, caps, ready, hits, rule) in enumerate(layers):
            best, best_h = 0, t + taus[0]
            if ready[0] > best_h:
                best_h = ready[0]
            tied = [0] if rule == _EVERY else None
            for e in rest:
                tau = taus[e]
                h = t + tau
                if h > best_h:
                    break
                if ready[e] > h:
                    h = ready[e]
                if h < best_h:
                    best, best_h = e, h
                    if tied is not None:
                        tied = [e]
                elif h == best_h and rule:
                    if rule == _EVERY:
                        tied.append(e)
                    elif rule == _SLOWEST:
                        if tau > taus[best]:
                            best = e
                    else:
                        q = len(hits[e]) - bisect_left(hits[e], t + tau)
                        q_best = len(hits[best]) - bisect_left(hits[best], t + taus[best])
                        if q > q_best if rule == _LONGEST_QUEUE else q < q_best:
                            best = e
            if kind is None:
                best = settle.paths[i].edge_indices[j] - 1
                if max(t + taus[best], ready[best]) > best_h:
                    return i, choice
            elif tied is not None and len(tied) > 1:
                if rng is None:
                    rng = random.Random(settle.seed)
                best = tied[rng.randrange(len(tied))]

            if hits is None:
                ready[best] = best_h + 1
            else:
                hits[best].append(best_h)
                ready[best] = hits[best][-caps[best]] + 1
            if best_h < front[j]:
                raise ConstructionError(f"player {i + 1} reaches node {j + 1} before player {i}")
            front[j] = t = best_h
            choice.append(best + 1)
    return game.n, choice


DEFAULT_PATH_BUDGET = 10_000
DEFAULT_STATE_BUDGET = 100_000


def is_ufr_equilibrium(
    game: Game, state: State, path_budget: int = DEFAULT_PATH_BUDGET
) -> Union[bool, UfrWitness]:
    """Exact deviation check: True, or the first witness in (player, path, node) order.

    The state is validated as load validates it (check_profile); the game is
    valid since it was built. Nothing is loaded before the verdict is known.
    The constructor's walk replays the profile's own edges, each player
    queueing behind the lower-index ones only, and stops at the first player
    p whose edge is not one of least head arrival on some layer. Then:
    (a) In any profile where the players before p keep their paths, they
        arrive as in the replay and none can gain. By induction over the
        layers: player p - 1 enters an edge of least head arrival from a
        tail time no later than any player >= p, who faces every entrant it
        faced, so no edge gives them an earlier head. None of them reaches
        a node before p - 1, and ties go by index, so only lower-index
        players are ever ahead of a player q < p. A deviation by q, from a
        tail time no earlier than its replay one, meets the same entrants
        and so never reaches a node before its replay arrival.
    (b) Player p gains. Up to the layer where it misses, the argument of (a)
        puts only lower-index players ahead of it, so that layer's edge of
        least head arrival takes it to the layer's node strictly earlier.
    So the verdict is True exactly when the replay passes every player, and
    otherwise the first witness is player p's: the profile is swept once
    (arrival_sweep), then p's alternative paths one at a time in all_paths
    order, each built only when its turn comes, and the first strictly
    earlier arrival is the witness.
    """
    if type(path_budget) is not int or path_budget < 1:
        raise BudgetError(f"path budget must be an integer >= 1, not {path_budget!r}")
    if _capped_product(game.graph.layer_sizes, path_budget) > path_budget:
        raise BudgetError(
            f"instance too large for exact check: over the path budget of {path_budget} paths per player"
        )
    check_profile(game, state)
    i = _walk(game, state)[0]
    if i == game.n:
        return True
    base = arrival_sweep(game, state.paths)
    own = state.paths[i].edge_indices
    paths = list(state.paths)
    for indices in product(*[range(1, size + 1) for size in game.graph.layer_sizes]):  # all_paths order
        if indices == own:
            continue
        paths[i] = alt = PathChoice(indices)
        arrivals = arrival_sweep(game, paths)
        for j in range(1, game.graph.num_layers + 1):
            if arrivals[j][i] < base[j][i]:
                return UfrWitness(i + 1, j, alt, arrivals[j][i])
    raise AssertionError(f"unreachable: player {i + 1} misses an edge of least head arrival")


def enumerate_equilibria(game: Game, state_budget: int = DEFAULT_STATE_BUDGET) -> list[State]:
    """All equilibria of a tiny game, lexicographically ordered by path choices.

    In an equilibrium no player reaches a node before a lower-index one, so
    the equilibria are the ordered profiles in which every player enters an
    edge of least head arrival on every layer (see is_ufr_equilibrium), and
    a player's moves depend only on the state the lower-index ones leave:
    per edge, their last c head arrivals, c from the game's padded_capacities
    (1 on a unit layer). A forward pass lists each player's moves from each
    distinct state, depth first over the tied edges as _walk scans them: a
    path and the state it leaves. Equal states merge, so each subgame is
    solved once, and each profile prefix grows by its state's moves in
    order. The budget, an int >= 1, counts all num_paths**n profiles; a game
    whose times could exceed int64 raises LoadingError.
    """
    if type(state_budget) is not int or state_budget < 1:
        raise BudgetError(f"state budget must be an integer >= 1, not {state_budget!r}")
    num_paths = _capped_product(game.graph.layer_sizes, state_budget)
    # one path means one state for any n, without n multiplications
    total = _capped_product(repeat(num_paths, game.n), state_budget) if num_paths > 1 else 1
    if total > state_budget:
        raise BudgetError(f"budget exceeded: {game.n} players have over {state_budget} states")
    check_times_fit_int64(game)

    m = game.graph.num_layers
    paths = all_paths(game.graph)
    # a state: each edge's last c head arrivals plus one, oldest first, then each layer's latest head
    layers = []
    size = 0
    weight = len(paths)  # of an edge in the index of a path in all_paths
    for taus, caps in zip(game.graph.transits, game.padded_capacities):
        weight //= len(taus)
        caps = caps or (1,) * len(taus)
        layers.append((taus, range(1, len(taus)), caps, list(accumulate(caps[:-1], initial=size)), weight))
        size += sum(caps)
    states = [[0] * (size + m)]
    pending = []  # the moves from a state left to finish: (layer, tail time, state, path index)
    forced = []  # the paths of the players since the last with a choice, each with one move
    profiles = [((), 0)]  # prefixes of the profiles, in lexicographic order, each with its state's index
    for i, start in enumerate(game.start_times()):
        found = []  # the player's moves: (its state, path index, next state)
        for k, st in enumerate(states):
            j, t, p = 0, start, 0
            while True:
                while j < m:
                    taus, rest, caps, offsets, weight = layers[j]
                    best, best_h = 0, t + taus[0]
                    if st[offsets[0]] > best_h:
                        best_h = st[offsets[0]]
                    tied = None  # the tied edges, once there are two
                    for e in rest:
                        h = t + taus[e]
                        if h > best_h:
                            break
                        if st[offsets[e]] > h:
                            h = st[offsets[e]]
                        if h < best_h:
                            best, best_h, tied = e, h, None
                        elif h == best_h:
                            tied = [best, e] if tied is None else [*tied, e]
                    if best_h < st[size + j]:  # the layer's latest head arrival
                        raise ConstructionError(f"player {i + 1} reaches node {j + 1} before player {i}")
                    st[size + j] = t = best_h
                    j += 1
                    if tied:
                        for e in tied[:0:-1]:  # the other tied edges, last first, each on a copy
                            o, c, alt = offsets[e], caps[e], st[:]
                            alt[o:o + c] = st[o + 1:o + c] + [t + 1]
                            pending.append((j, t, alt, p + e * weight))
                    if caps[best] == 1:
                        st[offsets[best]] = t + 1
                    else:
                        o, c = offsets[best], caps[best]
                        st[o:o + c] = st[o + 1:o + c] + [t + 1]
                    p += best * weight
                found.append((k, p, st))
                if not pending:
                    break
                j, t, st, p = pending.pop()
        if len(found) == 1:  # one state, changed in place, and one move p: every profile takes it
            forced.append(paths[p])
            continue
        rows = [[] for _ in states]  # per state, its moves
        index: dict[tuple[int, ...], int] = {}  # each next state, to its index
        for k, p, st in found:
            rows[k].append((paths[p], index.setdefault(tuple(st), len(index))))
        profiles = [((*prefix, *forced, path), x) for prefix, k in profiles for path, x in rows[k]]
        states = list(map(list, index))
        forced.clear()
    return [State(prefix + tuple(forced)) for prefix, _ in profiles]


def _capped_product(factors: Iterable[int], cap: int) -> int:
    """The product of factors, or cap + 1 as soon as a partial product exceeds cap."""
    total = 1
    for f in factors:
        total *= f
        if total > cap:
            return cap + 1
    return total
