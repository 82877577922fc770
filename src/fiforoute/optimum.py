"""Minimum-makespan schedules: horizon search, packet allocation, certificates."""
from __future__ import annotations

from dataclasses import dataclass

from .loading import load
from .model import (
    FifoRouteError,
    Game,
    LinearMultigraph,
    PathChoice,
    State,
    kth_cheapest_path,
    path_length,
)


class PlanError(FifoRouteError):
    """Optimal-schedule machinery asked about an unsupported game."""


@dataclass(frozen=True)
class OptimalPlan:
    """A minimum-makespan schedule over edge-disjoint cheapest paths.

    counts[0] = horizon + 1 - length(paths[0]); for later paths
    counts[j] = horizon + deltas[j-1] - length(paths[j]). The realized state
    front-loads every player onto its path's first edge at time 0; FIFO then
    releases them one per step. certificate holds
    (max_packets(horizon - 1), max_packets(horizon)).
    """

    paths: tuple[PathChoice, ...]
    horizon: int
    counts: tuple[int, ...]
    deltas: tuple[int, ...]
    state: State
    certificate: tuple[int, int]


def _usable_path_count(graph: LinearMultigraph) -> int:
    return min(graph.layer_sizes)


def _path_lengths(graph: LinearMultigraph) -> list[int]:
    """Lengths of the 1st..kth cheapest pairwise edge-disjoint paths (non-decreasing)."""
    k = _usable_path_count(graph)
    return [path_length(graph, kth_cheapest_path(graph, j)) for j in range(1, k + 1)]


def max_packets(graph: LinearMultigraph, horizon: int) -> int:
    """Most packets that can reach the destination by `horizon`.

    Sum over the disjoint cheapest paths of (horizon - length + 1), counting
    only paths that fit; monotone non-decreasing in the horizon and exact for
    arbitrarily large integers.
    """
    if horizon < 0:
        return 0
    return sum(horizon - length + 1 for length in _path_lengths(graph) if length <= horizon)


def _require_plain(game: Game, what: str) -> None:
    if not game.graph.all_unit_capacity():
        raise PlanError(f"{what} requires unit capacities; split capacities first")
    if game.starting_pattern is not None and any(t != 0 for t in game.starting_pattern):
        raise PlanError(f"{what} requires the all-zero starting pattern")


def min_horizon(game: Game) -> int:
    """Smallest horizon admitting all n players; equals the optimal makespan.

    Scans path counts in increasing order: with the t cheapest paths usable,
    the horizon must satisfy t*C >= n + sum(lengths) - t, and the first path
    count whose solution stays below the next path length wins. Exact integer
    arithmetic throughout, so astronomic player counts are fine.
    """
    _require_plain(game, "min_horizon")
    lengths = _path_lengths(game.graph)
    n = game.n
    prefix = 0
    k = len(lengths)
    for t, length in enumerate(lengths, start=1):
        prefix += length
        need = n + prefix - t
        candidate = max(length, -(-need // t))
        if t == k or candidate < lengths[t]:
            return candidate
    raise AssertionError("unreachable: last bracket is unbounded")


def optimal_state(game: Game) -> OptimalPlan:
    """Build a minimum-makespan plan and its realized strategy profile.

    Packet counts follow the disjoint-path structure; the leftover packets
    (the 0/1 adjustments) go to usable paths in increasing path order. The
    realized state assigns players, in index order, to path release slots
    sorted by (release time, path index); loading it meets the horizon with
    no queueing anywhere past the first layer.
    """
    _require_plain(game, "optimal_state")
    graph = game.graph
    horizon = min_horizon(game)
    lengths = _path_lengths(graph)
    used = [j for j, length in enumerate(lengths) if length <= horizon]
    k_used = len(used)
    assert used == list(range(k_used)), "cheapest paths are length-sorted"

    n = game.n
    leftover = n - k_used * horizon - 1 + sum(lengths[:k_used])
    if not 0 <= leftover <= k_used - 1 or (k_used == 1 and leftover != 0):
        raise AssertionError(f"leftover {leftover} outside 0..{k_used - 1}")
    deltas = tuple(1 if j <= leftover else 0 for j in range(1, k_used))
    counts = [horizon + 1 - lengths[0]]
    counts.extend(horizon + deltas[j - 1] - lengths[j] for j in range(1, k_used))
    assert sum(counts) == n and all(c >= 0 for c in counts)

    paths = tuple(kth_cheapest_path(graph, j + 1) for j in range(k_used))
    slots = sorted(
        (release, j) for j, c in enumerate(counts) for release in range(c)
    )
    player_paths = tuple(paths[j] for _, j in slots)
    plan = OptimalPlan(
        paths=paths,
        horizon=horizon,
        counts=tuple(counts),
        deltas=deltas,
        state=State(player_paths),
        certificate=(max_packets(graph, horizon - 1), max_packets(graph, horizon)),
    )
    return plan


def optimality_certificate(plan: OptimalPlan, game: Game) -> list[str]:
    """Re-derive every optimality claim of a plan; returns [] when verified.

    Checks the horizon is tight (max_packets pinches n), the stored
    certificate pair is honest, the bookkeeping adds up, and that actually
    loading the realized state meets the horizon with zero waiting beyond the
    first layer.
    """
    problems: list[str] = []
    graph = game.graph
    below = max_packets(graph, plan.horizon - 1)
    at = max_packets(graph, plan.horizon)
    if not below < game.n:
        problems.append(f"horizon not minimal: max_packets({plan.horizon - 1}) = {below} >= n = {game.n}")
    if not game.n <= at:
        problems.append(f"horizon infeasible: max_packets({plan.horizon}) = {at} < n = {game.n}")
    if plan.certificate != (below, at):
        problems.append(f"stored certificate {plan.certificate} != recomputed {(below, at)}")
    if sum(plan.counts) != game.n:
        problems.append(f"counts sum to {sum(plan.counts)}, not n = {game.n}")
    result = load(game, plan.state)
    if result.makespan != plan.horizon:
        problems.append(f"loading the plan gives makespan {result.makespan}, not {plan.horizon}")
    for i, row in enumerate(result.waiting):
        for j, w in enumerate(row[1:], start=2):
            if w > 0:
                problems.append(f"player {i + 1} waits {w} steps on layer {j}")
    return problems
