"""Reduce capacitated games to unit-capacity games without changing any arrival time."""
from __future__ import annotations

from itertools import accumulate

from .loading import LoadingResult
from .model import FifoRouteError, Game, LinearMultigraph, PathChoice, State

EdgeMapping = dict[tuple[int, int], tuple[int, ...]]


def split_capacities(game: Game) -> tuple[Game, EdgeMapping]:
    """Replace every capacity-v edge by v unit-capacity copies of equal transit.

    Returns the unit-capacity game plus a mapping from each original
    (layer, index) to the 1-based indices of its copies in the new layer.
    Copies of one edge are adjacent and the layer stays transit-sorted.
    """
    mapping: EdgeMapping = {}
    transits: list[list[int]] = []
    for layer_edges in game.graph.layers:
        row: list[int] = []
        for e in layer_edges:
            first = len(row) + 1
            row.extend([e.transit] * e.capacity)
            mapping[(e.layer, e.index_in_layer)] = tuple(range(first, first + e.capacity))
        transits.append(row)
    graph = LinearMultigraph.from_transits(transits)
    return Game(graph, game.n, game.starting_pattern), mapping


def map_state_to_split(game: Game, state: State, loading: LoadingResult) -> State:
    """Translate a profile of the capacitated game onto the split game.

    Player i's edge becomes copy ((q-1) mod capacity) + 1, where q is i's
    1-based FIFO rank on that edge in the capacity-aware loading: split index
    1 + (capacities of the lower edges of its layer) + ((q-1) mod capacity).
    Loading the translated profile on the split game reproduces every
    arrival time.
    """
    if loading.game is not game or loading.state is not state:
        if loading.game != game or loading.state != state:
            raise FifoRouteError("loading result does not belong to this game/state")
    offsets = [list(accumulate(caps, initial=0)) for caps in game.graph.capacities]
    ranks: dict[tuple[int, int], dict[int, int]] = {  # 0-based FIFO ranks
        key: {player: pos for pos, player in enumerate(log.players)}
        for key, log in loading.edge_logs.items()
    }
    new_paths: list[PathChoice] = []
    for i, path in enumerate(state.paths):
        indices: list[int] = []
        for layer, idx in enumerate(path.edge_indices, start=1):
            below = offsets[layer - 1]  # capacity below each edge of the layer
            rank = ranks[(layer, idx)][i]
            indices.append(1 + below[idx - 1] + rank % (below[idx] - below[idx - 1]))
        new_paths.append(PathChoice(tuple(indices)))
    return State(tuple(new_paths))
