"""Output checks against oracles independent of the library's loader and checker.

Loads are compared with ``tests/reference.py::naive_load``, a step-by-step
loader. Lower-bound game i = 3 is too large for it, so its loading is
recomputed with ``unit_arrivals``, an array form of the Lindley recursion
that the self-tests pin to ``naive_load``. Simulated statistics are derived
from arrival times alone, so they do not depend on how the library keeps
its queue series.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fiforoute import Game, State, UfrWitness, all_paths
from reference import naive_load


@dataclass
class Failure:
    op: str
    detail: str


@dataclass
class Tally:
    """Checked operations of one item: how many ran, and which ones failed."""

    attempted: int = 0
    failures: list[Failure] = field(default_factory=list)

    def op(self, name: str, problems) -> None:
        """Count one operation; `problems` is a list of strings, empty when right."""
        self.attempted += 1
        if problems:
            self.failures.append(Failure(name, "; ".join(problems)))


def choice_array(state: State) -> np.ndarray:
    """The profile as an (n, m) array of 0-based edge indices."""
    return np.array([p.edge_indices for p in state.paths], dtype=np.int64) - 1


def sim_stats(game: Game, choice: np.ndarray, arrivals) -> dict[str, int]:
    """Exact statistics of one loading, read off its arrival table.

    A player joins layer j's queue when it reaches node v_{j-1} and leaves it
    transit time before reaching v_j. Event times are the times anyone joins
    or leaves a queue; the queue sum after the removal step at t is joins up
    to t minus departures up to t.
    """
    arr = np.asarray(arrivals, dtype=np.int64)
    taus = np.stack(
        [np.array([e.transit for e in layer])[choice[:, j]] for j, layer in enumerate(game.graph.layers)],
        axis=1,
    )
    joins = arr[:-1].T
    departs = arr[1:].T - taus
    events = np.union1d(joins.ravel(), departs.ravel())
    joined = np.searchsorted(np.sort(joins.ravel()), events, side="right")
    left = np.searchsorted(np.sort(departs.ravel()), events, side="right")
    return {
        "loading.event_times": int(len(events)),
        "loading.peak_queue_sum": int((joined - left).max()),
        "loading.total_wait": int((departs - joins).sum()),
        "loading.makespan_sum": int(arr[-1].max()),
    }


def unit_arrivals(game: Game, choice: np.ndarray) -> np.ndarray:
    """Arrival table of a unit-capacity game, one layer at a time.

    On one edge, the entrant of FIFO rank q departs at q + max_{r<=q}(a_r - r);
    the running maximum restarts at each edge by lifting every edge's keys
    above all keys of the edges sorted before it.
    """
    if not game.graph.all_unit_capacity():
        raise ValueError("unit_arrivals needs unit capacities")
    n = game.n
    pos = np.arange(n)
    arr = np.array(game.start_times(), dtype=np.int64)
    rows = [arr]
    for j, layer in enumerate(game.graph.layers):
        tau = np.array([e.transit for e in layer], dtype=np.int64)
        edge = choice[:, j]
        order = np.lexsort((pos, arr, edge))
        e_s, a_s = edge[order], arr[order]
        first = np.r_[True, e_s[1:] != e_s[:-1]]
        group = np.cumsum(first) - 1
        rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
        key = a_s - rank
        lift = int(key.max() - key.min()) + 1
        head = np.maximum.accumulate(key + group * lift) - group * lift
        arr = np.empty_like(arr)
        arr[order] = rank + head + tau[e_s]
        rows.append(arr)
    return np.stack(rows)


def compare_load(game: Game, state: State, result) -> list[str]:
    """Problems with a library LoadingResult, judged by naive_load."""
    arrivals, completions, makespan, queue_sums = naive_load(game, state)
    problems = []
    if result.arrivals != arrivals:
        problems.append("arrivals differ from naive_load")
    if result.completions != completions or result.makespan != makespan:
        problems.append(f"makespan {result.makespan} != naive {makespan}")
    times, values = result.queue_sum_times, result.queue_sum_values
    k, current = 0, 0
    for t in sorted(queue_sums):
        while k < len(times) and times[k] <= t:
            current = values[k]
            k += 1
        if current != queue_sums[t]:
            problems.append(f"queue sum at t={t} is {current}, naive {queue_sums[t]}")
            break
    stats = sim_stats(game, choice_array(state), result.arrivals)
    if stats["loading.event_times"] != len(times):
        problems.append(f"{len(times)} event times, arrivals imply {stats['loading.event_times']}")
    if values and stats["loading.peak_queue_sum"] != max(values):
        problems.append("peak queue sum disagrees with the arrivals")
    return problems


def verify_witness(game: Game, state: State, witness) -> list[str]:
    """Reload the deviated profile with naive_load; the witness must improve."""
    if not isinstance(witness, UfrWitness):
        return [f"expected a witness, got {witness!r}"]
    n, m = game.n, game.graph.num_layers
    i, node = witness.player - 1, witness.node
    if not (0 <= i < n and 1 <= node <= m):
        return [f"witness names player {witness.player}, node {node}"]
    own = state.paths[i]
    if witness.deviation == own or witness.deviation not in all_paths(game.graph):
        return [f"witness deviation {witness.deviation} is not an alternative path"]
    base_arrivals = naive_load(game, state)[0]
    paths = list(state.paths)
    paths[i] = witness.deviation
    deviated = naive_load(game, State(tuple(paths)))[0]
    got = deviated[node][i]
    if got != witness.improved_arrival:
        return [f"witness claims arrival {witness.improved_arrival}, reload gives {got}"]
    if not got < base_arrivals[node][i]:
        return [f"witness arrival {got} does not beat {base_arrivals[node][i]}"]
    return []


def naive_is_equilibrium(game: Game, state: State) -> bool:
    """Every single-player deviation, reloaded with naive_load."""
    base = naive_load(game, state)[0]
    m = game.graph.num_layers
    paths = list(state.paths)
    for i, own in enumerate(state.paths):
        for alt in all_paths(game.graph):
            if alt == own:
                continue
            paths[i] = alt
            dev = naive_load(game, State(tuple(paths)))[0]
            if any(dev[j][i] < base[j][i] for j in range(1, m + 1)):
                return False
        paths[i] = own
    return True

