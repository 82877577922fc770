"""Shared fixtures: worked examples and seeded fuzz corpora.

Corpora are built once per session from fixed seeds so every run sees the
same instances. Shapes are capped small; the value is in the count.
"""
from __future__ import annotations

import random

import pytest

from fiforoute import Edge, Game, LinearMultigraph, PathChoice, State

CORPUS_SEED = 0x5EED_F1F0
CAP_CORPUS_SEED = 0xCA9A_C17F


@pytest.fixture(scope="session")
def two_layer_game() -> Game:
    return Game(LinearMultigraph.from_transits([[1, 2], [2]]), 3)


@pytest.fixture(scope="session")
def two_layer_state() -> State:
    return State((PathChoice((1, 1)), PathChoice((2, 1)), PathChoice((1, 1))))


@pytest.fixture(scope="session")
def nine_player_game() -> Game:
    return Game(LinearMultigraph.from_transits([[1, 1, 1, 4], [1, 1], [1]]), 9)


@pytest.fixture(scope="session")
def nine_player_state() -> State:
    rows = [
        (1, 1, 1),
        (2, 2, 1),
        (3, 1, 1),
        (1, 2, 1),
        (2, 1, 1),
        (3, 2, 1),
        (1, 1, 1),
        (4, 2, 1),
        (2, 2, 1),
    ]
    return State(tuple(PathChoice(r) for r in rows))


def random_pattern(rng: random.Random, n: int, high: int = 4) -> tuple[int, ...]:
    pattern = sorted(rng.randint(0, high) for _ in range(n))
    return tuple(pattern)


def random_game(
    rng: random.Random,
    max_layers: int = 3,
    max_edges: int = 4,
    max_players: int = 6,
    max_transit: int = 5,
    single_layer: bool = False,
    with_pattern: bool = False,
) -> Game:
    layers = 1 if single_layer else rng.randint(1, max_layers)
    # favor narrow layers so enumeration stays affordable at corpus scale
    weights = [5, 4, 2, 1][:max_edges]
    transits = [
        sorted(rng.randint(1, max_transit) for _ in range(rng.choices(range(1, max_edges + 1), weights)[0]))
        for _ in range(layers)
    ]
    n = rng.randint(1, max_players)
    pattern = random_pattern(rng, n) if with_pattern else None
    return Game(LinearMultigraph.from_transits(transits), n, pattern)


def random_state(rng: random.Random, game: Game) -> State:
    sizes = [len(layer) for layer in game.graph.layers]
    return State(
        tuple(
            PathChoice(tuple(rng.randint(1, s) for s in sizes))
            for _ in range(game.n)
        )
    )


def random_capacitated_game(rng: random.Random) -> Game:
    layers = []
    for j in range(1, rng.randint(1, 3) + 1):
        width = rng.choices([1, 2, 3, 4], [4, 4, 2, 1])[0]
        transits = sorted(rng.randint(1, 5) for _ in range(width))
        layers.append(
            tuple(
                Edge(j, r + 1, tau, rng.randint(1, 3))
                for r, tau in enumerate(transits)
            )
        )
    n = rng.randint(1, 6)
    pattern = random_pattern(rng, n) if rng.random() < 0.5 else None
    return Game(LinearMultigraph(tuple(layers)), n, pattern)


def random_deep_game(rng: random.Random, max_players: int, capacitated: bool, with_pattern: bool) -> Game:
    """Up to 3 layers of up to 5 edges with transits 1..3: long runs of equal
    transit, and with many players deep queues. Capacities 1..3 if capacitated."""
    layers = []
    for j in range(1, rng.randint(1, 3) + 1):
        transits = sorted(rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
        layers.append(
            tuple(
                Edge(j, r + 1, tau, rng.randint(1, 3) if capacitated else 1)
                for r, tau in enumerate(transits)
            )
        )
    n = rng.randint(1, max_players)
    pattern = random_pattern(rng, n, high=n // 2) if with_pattern else None
    return Game(LinearMultigraph(tuple(layers)), n, pattern)


@pytest.fixture(scope="session")
def fuzz_corpus() -> list[Game]:
    """10^4 small unit-capacity zero-pattern games; first ~third single layer."""
    rng = random.Random(CORPUS_SEED)
    games = [random_game(rng, single_layer=True) for _ in range(3400)]
    games += [random_game(rng) for _ in range(6600)]
    return games


@pytest.fixture(scope="session")
def cap_corpus() -> list[Game]:
    """10^3 games with edge capacities up to 3, half with starting patterns."""
    rng = random.Random(CAP_CORPUS_SEED)
    return [random_capacitated_game(rng) for _ in range(1000)]
