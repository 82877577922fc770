"""Domain types for layered routing games: graphs, games, states, serialization."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from math import prod
from operator import countOf
from typing import Iterable, Sequence, TextIO


class FifoRouteError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(FifoRouteError):
    """Invalid graph/game/state data or an impossible structural request."""


@dataclass(frozen=True, slots=True)
class Edge:
    """One edge of a layered network.

    Edges run between consecutive nodes; `layer` and `index_in_layer` are
    1-based. `transit` is the time spent on the edge after leaving its queue,
    `capacity` the number of players the queue may release per time step.
    """

    layer: int
    index_in_layer: int
    transit: int
    capacity: int = 1


@dataclass(frozen=True)
class LinearMultigraph:
    """A source-to-destination chain of layers, each a bundle of parallel edges.

    Nodes are v_0 (source) .. v_m (destination) with m = len(layers); every
    edge of layer j goes from v_{j-1} to v_j. Within a layer, edges are kept
    sorted by non-decreasing transit time; `input_order[j-1][i-1]` remembers
    which 1-based position of the constructor input became sorted index i, so
    reports can refer back to the caller's ordering.
    """

    layers: tuple[tuple[Edge, ...], ...]
    input_order: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.input_order:
            ident = tuple(tuple(range(1, len(layer) + 1)) for layer in self.layers)
            object.__setattr__(self, "input_order", ident)

    @classmethod
    def from_transits(
        cls,
        transits: Sequence[Sequence[int]],
        capacities: Sequence[Sequence[int]] | None = None,
    ) -> "LinearMultigraph":
        """Build a graph from per-layer transit time lists, sorting each layer.

        The sort is stable, so equal transit times keep their input order.
        """
        if capacities is not None and len(capacities) != len(transits):
            raise ModelError("capacities must have one list per layer")
        layers = []
        orders = []
        for j, layer_transits in enumerate(transits):
            caps = capacities[j] if capacities is not None else [1] * len(layer_transits)
            if len(caps) != len(layer_transits):
                raise ModelError(f"layer {j + 1}: capacity list length mismatch")
            ranked = sorted(range(len(layer_transits)), key=lambda p: layer_transits[p])
            edges = tuple(
                Edge(j + 1, i + 1, layer_transits[p], caps[p])
                for i, p in enumerate(ranked)
            )
            layers.append(edges)
            orders.append(tuple(p + 1 for p in ranked))
        return cls(tuple(layers), tuple(orders))

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    def edge(self, layer: int, index: int) -> Edge:
        """Return the edge at 1-based (layer, index); raises on bad indices."""
        if not 1 <= layer <= len(self.layers):
            raise ModelError(f"no such edge: layer {layer} does not exist")
        row = self.layers[layer - 1]
        if not 1 <= index <= len(row):
            raise ModelError(f"no such edge: layer {layer} has no edge {index}")
        return row[index - 1]

    def all_unit_capacity(self) -> bool:
        return {e.capacity for layer in self.layers for e in layer} <= {1}


@dataclass(frozen=True, slots=True)
class PathChoice:
    """A source-to-destination path: one 1-based edge index per layer."""

    edge_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edge_indices)


@dataclass(frozen=True, slots=True)
class State:
    """A strategy profile: one path per player, indexed by player."""

    paths: tuple[PathChoice, ...]

    @property
    def n(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class Game:
    """A routing game: a graph, n players, and their release times at the source.

    `starting_pattern` lists each player's release time, non-decreasing in
    player index; None means everyone starts at time 0 (kept symbolic so that
    games with astronomically many players stay representable). A game checks
    itself when built: it stores the pattern as a tuple and raises ModelError
    with every problem validate_game finds, so every Game is valid.
    """

    graph: LinearMultigraph
    n: int
    starting_pattern: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.starting_pattern is not None:  # a list could change after the check
            object.__setattr__(self, "starting_pattern", tuple(self.starting_pattern))
        problems = validate_game(self)
        if problems:
            raise ModelError("invalid game: " + "; ".join(problems))

    def start_time(self, player: int) -> int:
        """Release time of a 0-based player index."""
        if self.starting_pattern is None:
            return 0
        return self.starting_pattern[player]

    def start_times(self) -> tuple[int, ...]:
        if self.starting_pattern is None:
            return (0,) * self.n
        return self.starting_pattern

    def num_paths(self) -> int:
        """Size of the common strategy space (product of layer sizes)."""
        return prod(self.graph.layer_sizes)


def validate_game(game: Game) -> list[str]:
    """Check every structural invariant; returns [] when the game is valid.

    Violations come back as human-readable strings with their location, one
    per problem, instead of raising. Game runs it once, when it is built.
    """
    problems: list[str] = []
    graph = game.graph
    if graph.num_layers == 0:
        problems.append("graph has no layers")
    for j, layer in enumerate(graph.layers, start=1):
        if len(layer) == 0:
            problems.append(f"layer {j} is empty")
            continue
        for i, e in enumerate(layer, start=1):
            if e.layer != j or e.index_in_layer != i:
                problems.append(f"layer {j} edge {i}: mislabeled as ({e.layer},{e.index_in_layer})")
            if not isinstance(e.transit, int) or isinstance(e.transit, bool) or e.transit < 1:
                problems.append(f"layer {j} edge {i}: transit must be an integer >= 1")
            if not isinstance(e.capacity, int) or isinstance(e.capacity, bool) or e.capacity < 1:
                problems.append(f"layer {j} edge {i}: capacity must be an integer >= 1")
        transits = [e.transit for e in layer]
        if any(a > b for a, b in zip(transits, transits[1:])):
            problems.append(f"layer {j} not sorted")
    if game.n < 1:
        problems.append("player count must be >= 1")
    pattern = game.starting_pattern
    if pattern is not None:
        if len(pattern) != game.n:
            problems.append(f"starting pattern has length {len(pattern)}, expected {game.n}")
        if any(not isinstance(t, int) or isinstance(t, bool) or t < 0 for t in pattern):
            problems.append("starting pattern entries must be integers >= 0")
        if any(a > b for a, b in zip(pattern, pattern[1:])):
            problems.append("starting pattern not non-decreasing")
    return problems


def validate_state(game: Game, state: State) -> list[str]:
    """Check that a strategy profile fits the game; returns [] when valid.

    Players who share one PathChoice object share its check; every problem
    is still reported for each of them, in player order.
    """
    problems: list[str] = []
    if state.n != game.n:
        problems.append(f"state has {state.n} paths, game has {game.n} players")
    sizes = game.graph.layer_sizes
    bad: dict[int, list[str]] = {}  # id of a PathChoice -> its problems
    for key, path in dict(zip(map(id, state.paths), state.paths)).items():
        indices = path.edge_indices
        if len(indices) != len(sizes):
            bad[key] = [f"path has {len(indices)} layers, graph has {len(sizes)}"]
            continue
        for j, idx in enumerate(indices):
            if type(idx) is not int or not 1 <= idx <= sizes[j]:  # plain ints only, no bools
                bad.setdefault(key, []).append(f"layer {j + 1} has no edge {idx!r}")
    if bad:
        for i, path in enumerate(state.paths, start=1):
            problems.extend(f"player {i}: {problem}" for problem in bad.get(id(path), ()))
    return problems


def path_length(graph: LinearMultigraph, path: PathChoice) -> int:
    """Total transit time along a path (queueing not included)."""
    if len(path.edge_indices) != graph.num_layers:
        raise ModelError(
            f"no such edge: path covers {len(path.edge_indices)} layers, graph has {graph.num_layers}"
        )
    return sum(graph.edge(j, idx).transit for j, idx in enumerate(path.edge_indices, start=1))


def kth_cheapest_path(graph: LinearMultigraph, j: int) -> PathChoice:
    """The j-th cheapest source-destination path: edge index j in every layer.

    Because layers are sorted and path length decomposes layer-wise, picking
    the j-th edge everywhere realizes the j-th shortest path after the j-1
    cheaper ones are deleted; the paths for j = 1..k are pairwise
    edge-disjoint and non-decreasing in length. Requires unit capacities
    (split capacitated graphs first).
    """
    if j < 1:
        raise ModelError(f"path rank must be >= 1, got {j}")
    if not graph.all_unit_capacity():
        raise ModelError("graph has capacities > 1; split capacities first")
    for layer_num, layer in enumerate(graph.layers, start=1):
        if len(layer) < j:
            raise ModelError(
                f"decomposition exhausted: layer {layer_num} has {len(layer)} edges, need {j}"
            )
    return PathChoice((j,) * graph.num_layers)


# ---------------------------------------------------------------------------
# JSON serialization
#
# Game file: {"layers": [[int,...],...], "capacities": [[int,...],...]?,
#             "n": int, "starting_pattern": [int,...]?}
# State file: {"paths": [[int,...],...]}   (1-based edge indices)
# Omitted starting_pattern means all zeros; omitted capacities means all ones.
# ---------------------------------------------------------------------------

def game_to_dict(game: Game) -> dict:
    """Serialize a game; layer lists come out in the constructor's input order."""
    graph = game.graph
    transits: list[list[int]] = []
    caps: list[list[int]] = []
    for layer, order in zip(graph.layers, graph.input_order):
        row_t = [0] * len(layer)
        row_c = [0] * len(layer)
        for sorted_pos, input_pos in enumerate(order):
            row_t[input_pos - 1] = layer[sorted_pos].transit
            row_c[input_pos - 1] = layer[sorted_pos].capacity
        transits.append(row_t)
        caps.append(row_c)
    out: dict = {"layers": transits, "n": game.n}
    if any(c != 1 for row in caps for c in row):
        out["capacities"] = caps
    if game.starting_pattern is not None and any(t != 0 for t in game.starting_pattern):
        out["starting_pattern"] = list(game.starting_pattern)
    return out


def game_from_dict(data: dict) -> Game:
    if not isinstance(data, dict):
        raise ModelError("game file must hold a JSON object")
    try:
        transits = data["layers"]
        n = data["n"]
    except KeyError as missing:
        raise ModelError(f"game file missing key {missing}") from None
    if not _is_int_rows(transits):
        raise ModelError("'layers' must be a list of integer lists")
    if not _is_int(n):
        raise ModelError("'n' must be an integer")
    capacities = data.get("capacities")
    if capacities is not None and not _is_int_rows(capacities):
        raise ModelError("'capacities' must be a list of integer lists")
    graph = LinearMultigraph.from_transits(transits, capacities)
    pattern = data.get("starting_pattern")
    if pattern is not None and (not isinstance(pattern, list) or not all(map(_is_int, pattern))):
        raise ModelError("'starting_pattern' must be a list of integers")
    return Game(graph, n, pattern)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_rows(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(row, list) and all(map(_is_int, row)) for row in value
    )


def state_to_dict(state: State) -> dict:
    return {"paths": [list(p.edge_indices) for p in state.paths]}


def state_from_dict(data: dict) -> State:
    if not isinstance(data, dict) or "paths" not in data:
        raise ModelError("state file must hold a JSON object with a 'paths' key")
    paths = data["paths"]
    if not isinstance(paths, list) or not all(isinstance(row, list) for row in paths):
        raise ModelError("'paths' must be a list of integer lists")
    if countOf(map(type, chain.from_iterable(paths)), int) != sum(map(len, paths)):
        # True and 1.0 equal 1 and a list has no hash: share nothing, so
        # validate_state names every bad entry
        return State(tuple(PathChoice(tuple(row)) for row in paths))
    rows = list(map(tuple, paths))
    shared = {row: PathChoice(row) for row in dict.fromkeys(rows)}  # one per distinct path
    return State(tuple(map(shared.__getitem__, rows)))


def _read_json(path: str):
    """The JSON document in a file; ModelError if it is not UTF-8, not JSON,
    nested too deeply or holds an integer too long to convert."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as err:  # ValueError: JSON, UTF-8 and int-digit errors
            raise ModelError(f"{path}: invalid JSON ({err})") from None


def load_game_file(path: str) -> Game:
    return game_from_dict(_read_json(path))


def load_state_file(path: str) -> State:
    return state_from_dict(_read_json(path))


def write_json(data: dict | list, fh: TextIO) -> None:
    """Write data as one line of JSON; dumps, unlike dump, runs the C encoder."""
    fh.write(json.dumps(data))
    fh.write("\n")


def save_game_file(game: Game, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(game_to_dict(game), fh)


def save_state_file(state: State, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # the shared tuples themselves: JSON writes a tuple as a list
        write_json({"paths": [p.edge_indices for p in state.paths]}, fh)


def all_paths(graph: LinearMultigraph) -> list[PathChoice]:
    """Every strategy, ordered lexicographically by edge indices."""
    choices: list[tuple[int, ...]] = [()]
    for size in graph.layer_sizes:
        choices = [prefix + (i,) for prefix in choices for i in range(1, size + 1)]
    return [PathChoice(c) for c in choices]
