"""Domain types for layered routing games: graphs, games, states, serialization."""
from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, product
from math import prod
from operator import countOf
from typing import TextIO


# the most players, or split edges, the library simulates: larger work is refused before it is built
SIMULATION_CAP = 10**6


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
    reports can refer back to the caller's ordering. The kernels read the
    layers as tables: `transits[j-1][i-1]` and `capacities[j-1][i-1]` are the
    transit and capacity of edge i of layer j, one tuple per layer in sorted
    order, `layer_sizes[j-1]` is the number of edges of layer j, and
    `unit_capacity` says whether every capacity is 1. All four are computed
    when the graph is built, so every pickle of it holds them.
    """

    layers: tuple[tuple[Edge, ...], ...]
    input_order: tuple[tuple[int, ...], ...] = field(default=())
    unit_capacity: bool = field(init=False, repr=False, compare=False)
    transits: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    capacities: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    layer_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.input_order:
            ident = tuple(tuple(range(1, len(layer) + 1)) for layer in self.layers)
            object.__setattr__(self, "input_order", ident)
        capacities = tuple([tuple([e.capacity for e in layer]) for layer in self.layers])
        object.__setattr__(self, "transits", tuple([tuple([e.transit for e in layer]) for layer in self.layers]))
        object.__setattr__(self, "capacities", capacities)
        object.__setattr__(self, "layer_sizes", tuple(map(len, self.layers)))
        # count compares with ==, which no capacity makes raise; a set cannot hold a list
        object.__setattr__(self, "unit_capacity", all(row.count(1) == len(row) for row in capacities))

    @classmethod
    def from_transits(
        cls,
        transits: Sequence[Sequence[int]],
        capacities: Sequence[Sequence[int]] | None = None,
    ) -> "LinearMultigraph":
        """Build a graph from per-layer transit time lists, sorting each layer.

        The sort is stable, so equal transit times keep their input order.
        """
        if not isinstance(transits, Sequence):
            raise ModelError("transits must be a sequence of per-layer lists")
        if capacities is not None and (not isinstance(capacities, Sequence) or len(capacities) != len(transits)):
            raise ModelError("capacities must have one list per layer")
        layers = []
        orders = []
        for j, layer_transits in enumerate(transits):
            if not isinstance(layer_transits, Sequence):
                raise ModelError(f"layer {j + 1}: transits must be a list")
            caps = capacities[j] if capacities is not None else [1] * len(layer_transits)
            if not isinstance(caps, Sequence) or len(caps) != len(layer_transits):
                raise ModelError(f"layer {j + 1}: capacities must be a list as long as its transits")
            try:
                ranked = sorted(range(len(layer_transits)), key=lambda p: layer_transits[p])
            except TypeError:  # values that do not compare; Game names any other wrong type by edge
                raise ModelError(f"layer {j + 1}: transits must be integers") from None
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

    def edge(self, layer: int, index: int) -> Edge:
        """Return the edge at 1-based (layer, index); raises on bad indices."""
        if not 1 <= layer <= len(self.layers):
            raise ModelError(f"no such edge: layer {layer} does not exist")
        row = self.layers[layer - 1]
        if not 1 <= index <= len(row):
            raise ModelError(f"no such edge: layer {layer} has no edge {index}")
        return row[index - 1]

    def all_unit_capacity(self) -> bool:
        return self.unit_capacity


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


def share_paths(rows: Iterable[tuple[int, ...]]) -> State:
    """The State of per-player rows of plain ints, the players of one row
    sharing one PathChoice."""
    shared: dict[tuple[int, ...], PathChoice] = {}
    paths = []
    for key in rows:
        path = shared.get(key)
        if path is None:
            path = shared[key] = PathChoice(key)
        paths.append(path)
    return State(tuple(paths))


@dataclass(frozen=True)
class Game:
    """A routing game: a graph, n players, and their release times at the source.

    `starting_pattern` lists each player's release time, non-decreasing in
    player index; None means everyone starts at time 0 (kept symbolic so that
    games with astronomically many players stay representable). A game checks
    itself when built: it stores the pattern as a tuple and raises ModelError
    with every problem validate_game finds, so every Game is valid. Then it
    computes `padded_capacities`, kept out of repr, == and hash: per layer,
    None if every capacity is 1, else min(c, n) per capacity c in edge order.
    The kernels pad wide layers by it, since an edge releases its first c
    queued players per step and no entrant has n others ahead of it.
    """

    graph: LinearMultigraph
    n: int
    starting_pattern: tuple[int, ...] | None = None
    padded_capacities: tuple[tuple[int, ...] | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.starting_pattern, Sequence):  # a list could change after the check
            object.__setattr__(self, "starting_pattern", tuple(self.starting_pattern))
        problems = validate_game(self)
        if problems:
            raise ModelError("invalid game: " + "; ".join(problems))
        caps = self.graph.capacities
        pads = [None if row.count(1) == len(row) else tuple([min(c, self.n) for c in row]) for row in caps]
        object.__setattr__(self, "padded_capacities", tuple(pads))

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
    # each order test runs only on values that passed their type test
    for j, (layer, transits) in enumerate(zip(graph.layers, graph.transits), start=1):
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
        if all(map(_is_int, transits)) and any(a > b for a, b in zip(transits, transits[1:])):
            problems.append(f"layer {j} not sorted")
    if not _is_int(game.n):
        problems.append("player count must be an integer")
    elif game.n < 1:
        problems.append("player count must be >= 1")
    pattern = game.starting_pattern
    if pattern is not None and not isinstance(pattern, tuple):  # Game stores a sequence as a tuple
        problems.append("starting pattern must be a sequence of integers")
    elif pattern is not None:
        if len(pattern) != game.n:
            problems.append(f"starting pattern has length {len(pattern)}, expected {game.n}")
        if any(not isinstance(t, int) or isinstance(t, bool) or t < 0 for t in pattern):
            problems.append("starting pattern entries must be integers >= 0")
        if all(map(_is_int, pattern)) and any(a > b for a, b in zip(pattern, pattern[1:])):
            problems.append("starting pattern not non-decreasing")
    return problems


def validate_state(game: Game, state: State) -> list[str]:
    """Check that a strategy profile fits the game; returns [] when valid.

    Players who share one PathChoice object share its check; every problem
    is still reported for each of them, in player order.
    """
    if not isinstance(state, State):
        return [f"{state!r} is not a State"]
    if not isinstance(state.paths, Sequence):
        return [f"{state.paths!r} is not a sequence of paths"]
    problems: list[str] = []
    if state.n != game.n:
        problems.append(f"state has {state.n} paths, game has {game.n} players")
    sizes = game.graph.layer_sizes
    bad: dict[int, list[str]] = {}  # id of a PathChoice -> its problems
    for key, path in dict(zip(map(id, state.paths), state.paths)).items():
        try:
            indices = path.edge_indices
            count = len(indices)
        except (AttributeError, TypeError):  # not a PathChoice, or indices without a length
            bad[key] = [f"{path!r} is not a PathChoice of a sequence of edge indices"]
            continue
        if count != len(sizes):
            bad[key] = [f"path has {count} layers, graph has {len(sizes)}"]
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
    # per layer, the sorted position of each input position
    at = [sorted(range(len(order)), key=order.__getitem__) for order in graph.input_order]
    out: dict = {"layers": [[row[p] for p in ps] for row, ps in zip(graph.transits, at)], "n": game.n}
    if not graph.unit_capacity:
        out["capacities"] = [[row[p] for p in ps] for row, ps in zip(graph.capacities, at)]
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


def _plain_int_rows(rows: list, row_type: type) -> bool:
    """Whether every row is a row_type of plain ints: no bools, floats or nesting."""
    return countOf(map(type, rows), row_type) == len(rows) and countOf(
        map(type, chain.from_iterable(rows)), int
    ) == sum(map(len, rows))


def state_to_dict(state: State) -> dict:
    return {"paths": [list(p.edge_indices) for p in state.paths]}


def state_from_dict(data: dict) -> State:
    if not isinstance(data, dict) or "paths" not in data:
        raise ModelError("state file must hold a JSON object with a 'paths' key")
    paths = data["paths"]
    if not isinstance(paths, list) or not all(isinstance(row, list) for row in paths):
        raise ModelError("'paths' must be a list of integer lists")
    if not _plain_int_rows(paths, list):
        # True and 1.0 equal 1 and a list has no hash: share nothing, so
        # validate_state names every bad entry
        return State(tuple(PathChoice(tuple(row)) for row in paths))
    return share_paths(map(tuple, paths))


# The state writer's form: _PATHS_HEAD + _ROW_SEP.join(rows) + _PATHS_TAIL,
# each row its ints joined by ", ", which is json.dumps of the dict form
_PATHS_HEAD, _ROW_SEP, _PATHS_TAIL = '{"paths": [[', "], [", "]]}"


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except ValueError as err:  # not UTF-8
            raise ModelError(f"{path}: invalid JSON ({err})") from None


def _parse_json(text: str, path: str):
    """The JSON document in a file's text; ModelError if it is not JSON,
    nested too deeply or holds an integer too long to convert."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:  # ValueError: JSON and int-digit errors
        raise ModelError(f"{path}: invalid JSON ({err})") from None


def _state_from_writer_text(text: str) -> State | None:
    """The state in a text of the writer's form, each distinct row parsed once.

    None for any other text, for a text with more than half of its rows
    distinct, and for rows that do not parse or are not flat lists of plain
    ints, so that such files meet state_from_dict's rules.
    """
    body = text.rstrip(" \t\n\r")  # JSON whitespace
    if not (body.startswith(_PATHS_HEAD) and body.endswith(_PATHS_TAIL)):
        return None
    pieces = body[len(_PATHS_HEAD) : -len(_PATHS_TAIL)].split(_ROW_SEP)
    texts = list(dict.fromkeys(pieces))
    if 2 * len(texts) > len(pieces):  # few repeats: parsing the whole text is faster
        return None
    try:
        rows = json.loads("[[" + _ROW_SEP.join(texts) + "]]")
    except (ValueError, RecursionError):
        return None
    # one flat int list per text proves that no text holds a bracket, so the
    # file is the JSON {"paths": [...]} of these rows
    if len(rows) != len(texts) or not _plain_int_rows(rows, list):
        return None
    by_text = dict(zip(texts, state_from_dict({"paths": rows}).paths))
    return State(tuple(map(by_text.__getitem__, pieces)))


def load_game_file(path: str) -> Game:
    return game_from_dict(_parse_json(_read_text(path), path))


def load_state_file(path: str) -> State:
    """Read a state file; the writer's form takes a fast path, any other JSON
    goes through json.loads and state_from_dict."""
    text = _read_text(path)
    state = _state_from_writer_text(text)
    if state is None:
        state = state_from_dict(_parse_json(text, path))
    return state


def write_json(data: dict | list, fh: TextIO) -> None:
    """Write data as one line of JSON; dumps, unlike dump, runs the C encoder."""
    fh.write(json.dumps(data))
    fh.write("\n")


def json_int_rows(rows: Sequence[Sequence[int]], top: int) -> list[str]:
    """json.dumps of each row, for rows of plain ints in 0..top.

    When the rows hold more values than there are ints in 0..top, each int is
    turned into text once and every row joins the texts of its values.
    """
    if top + 1 > sum(map(len, rows)):
        return list(map(json.dumps, rows))
    text = list(map(str, range(top + 1)))
    return ["[" + ", ".join(map(text.__getitem__, row)) + "]" for row in rows]


def save_game_file(game: Game, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(game_to_dict(game), fh)


def save_state_file(state: State, path: str) -> None:
    """Write json.dumps(state_to_dict(state)) and a newline, encoding each
    distinct PathChoice object once when at most half the players hold
    distinct objects."""
    paths = state.paths
    distinct = dict(zip(map(id, paths), paths))
    rows = [p.edge_indices for p in distinct.values()]
    with open(path, "w", encoding="utf-8") as fh:
        if not rows or 2 * len(rows) > len(paths) or not _plain_int_rows(rows, tuple):
            # the tuples themselves: JSON writes a tuple as a list
            write_json({"paths": [p.edge_indices for p in paths]}, fh)
            return
        # rows of plain ints encode as "[[" + _ROW_SEP.join(row texts) + "]]"
        texts = dict(zip(distinct, json.dumps(rows)[2:-2].split(_ROW_SEP)))
        fh.write(_PATHS_HEAD)
        fh.write(_ROW_SEP.join(map(texts.__getitem__, map(id, paths))))
        fh.write(_PATHS_TAIL + "\n")


def path_indices(layer_sizes: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The edge indices of every path through layers of these sizes, in
    lexicographic order: the library's one order of paths."""
    return product(*[range(1, size + 1) for size in layer_sizes])


def all_paths(graph: LinearMultigraph) -> list[PathChoice]:
    """Every strategy, ordered lexicographically by edge indices."""
    return list(map(PathChoice, path_indices(graph.layer_sizes)))
