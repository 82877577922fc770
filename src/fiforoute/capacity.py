"""Reduce capacitated games to unit-capacity games without changing any arrival time."""
from __future__ import annotations

from itertools import accumulate

from .loading import LoadingResult
from .model import SIMULATION_CAP, Edge, FifoRouteError, Game, LinearMultigraph, ModelError, State, share_paths

EdgeMapping = dict[tuple[int, int], tuple[int, ...]]


def split_capacities(game: Game) -> tuple[Game, EdgeMapping]:
    """Replace every capacity-v edge by v unit-capacity copies of equal transit.

    Returns the split game and a mapping from each original (layer, index)
    to the 1-based indices of its adjacent copies; each layer stays sorted.
    Over SIMULATION_CAP copies in all raise ModelError before any is built.
    """
    edges = sum(map(sum, game.graph.capacities))
    if edges > SIMULATION_CAP:
        raise ModelError(f"the split game would have {edges} edges, over the simulation cap {SIMULATION_CAP}")
    mapping: EdgeMapping = {}
    layers = []
    for j, (transits, caps) in enumerate(zip(game.graph.transits, game.graph.capacities), start=1):
        row: list[int] = []
        for i, (tau, c) in enumerate(zip(transits, caps), start=1):
            mapping[(j, i)] = tuple(range(len(row) + 1, len(row) + c + 1))
            row.extend([tau] * c)
        layers.append(tuple(Edge(j, i, tau) for i, tau in enumerate(row, start=1)))
    return Game(LinearMultigraph(tuple(layers)), game.n, game.starting_pattern), mapping


def map_state_to_split(game: Game, state: State, loading: LoadingResult) -> State:
    """Translate a profile of the capacitated game onto the split game.

    Player i's edge becomes copy ((q-1) mod capacity) + 1, where q is i's
    1-based FIFO rank on that edge in the capacity-aware loading: split index
    1 + (capacities of the lower edges of its layer) + ((q-1) mod capacity).
    Loading the translated profile on the split game reproduces every
    arrival time. Players on one translated path share one PathChoice.
    """
    if loading.game is not game or loading.state is not state:
        if loading.game != game or loading.state != state:
            raise FifoRouteError("loading result does not belong to this game/state")
    offsets = [list(accumulate(caps, initial=0)) for caps in game.graph.capacities]
    columns = [[0] * game.n for _ in offsets]  # columns[j-1][i]: player i's copy on layer j
    for (layer, idx), log in loading.edge_logs.items():  # players in FIFO order
        below = offsets[layer - 1]  # capacity below each edge of the layer
        first, c = 1 + below[idx - 1], below[idx] - below[idx - 1]
        column = columns[layer - 1]
        for rank, i in enumerate(log.players):
            column[i] = first + rank % c
    return share_paths(zip(*columns))
