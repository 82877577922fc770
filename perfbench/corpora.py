"""Seeded workload inputs, built without pytest.

The fuzz corpora mirror the shape distributions of ``tests/conftest.py``
(``random_game`` and ``random_capacitated_game``) but draw shapes by
systematic sampling: one stratified uniform per game walks the exact shape
distribution, so every seed gets nearly the same mix of (layer widths, n).
Enumeration and check cost depend on the shape far more than on transit
times, so this keeps per-pass time comparable across seeds while the seed
still picks every transit, capacity, start time, random state and tie-break
seed.
"""
from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass

from fiforoute import Edge, Game, LinearMultigraph, PathChoice, State

FUZZ_UNIT_GAMES = 1000
FUZZ_CAP_GAMES = 2000

# tests/conftest.py: favour narrow layers so enumeration stays affordable
UNIT_WIDTH_WEIGHTS = (5, 4, 2, 1)
CAP_WIDTH_WEIGHTS = (4, 4, 2, 1)
MAX_PLAYERS = 6
MAX_TRANSIT = 5
MAX_CAPACITY = 3
PATTERN_HIGH = 4


def _shape_table(width_weights, single_layer_share: float):
    """All (widths, n) shapes with their probabilities, in a fixed order."""
    total = sum(width_weights)
    p_width = [w / total for w in width_weights]
    p_layers = {
        m: single_layer_share * (m == 1) + (1 - single_layer_share) / 3 for m in (1, 2, 3)
    }
    shapes, probs = [], []
    for m in (1, 2, 3):
        for widths in itertools.product(range(1, len(width_weights) + 1), repeat=m):
            p_w = p_layers[m]
            for w in widths:
                p_w *= p_width[w - 1]
            for n in range(1, MAX_PLAYERS + 1):
                shapes.append((widths, n))
                probs.append(p_w / MAX_PLAYERS)
    return shapes, probs


def _systematic_shapes(rng: random.Random, count: int, width_weights, single_layer_share: float):
    shapes, probs = _shape_table(width_weights, single_layer_share)
    cumulative = list(itertools.accumulate(probs))
    offset = rng.random()
    picked = [
        shapes[min(bisect_right(cumulative, (k + offset) / count), len(shapes) - 1)]
        for k in range(count)
    ]
    rng.shuffle(picked)
    return picked


def random_pattern(rng: random.Random, n: int, high: int = PATTERN_HIGH) -> tuple[int, ...]:
    return tuple(sorted(rng.randint(0, high) for _ in range(n)))


def random_state(rng: random.Random, game: Game) -> State:
    sizes = game.graph.layer_sizes
    return State(tuple(PathChoice(tuple(rng.randint(1, s) for s in sizes)) for _ in range(game.n)))


@dataclass(frozen=True)
class FuzzItem:
    """One fuzz game plus the random inputs its item needs."""

    game: Game
    random_state: State
    policy_seed: int


def fuzz_unit(seed: int, count: int = FUZZ_UNIT_GAMES) -> list[FuzzItem]:
    """Unit-capacity, zero-start games shaped like ``conftest.random_game``.

    As in ``conftest.fuzz_corpus``, 34 % of games are single-layer and the
    rest have 1 to 3 layers.
    """
    rng = random.Random(seed)
    items = []
    for widths, n in _systematic_shapes(rng, count, UNIT_WIDTH_WEIGHTS, 0.34):
        transits = [sorted(rng.randint(1, MAX_TRANSIT) for _ in range(w)) for w in widths]
        game = Game(LinearMultigraph.from_transits(transits), n)
        items.append(FuzzItem(game, random_state(rng, game), rng.getrandbits(64)))
    return items


def fuzz_cap(seed: int, count: int = FUZZ_CAP_GAMES) -> list[FuzzItem]:
    """Games shaped like ``conftest.random_capacitated_game``.

    Capacities are 1 to 3 per edge, and half the games (alternating, so the
    share is exact) carry a random starting pattern.
    """
    rng = random.Random(seed)
    items = []
    shapes = _systematic_shapes(rng, count, CAP_WIDTH_WEIGHTS, 0.0)
    for k, (widths, n) in enumerate(shapes):
        layers = []
        for j, w in enumerate(widths, start=1):
            transits = sorted(rng.randint(1, MAX_TRANSIT) for _ in range(w))
            layers.append(
                tuple(Edge(j, r + 1, tau, rng.randint(1, MAX_CAPACITY)) for r, tau in enumerate(transits))
            )
        pattern = random_pattern(rng, n) if k % 2 else None
        game = Game(LinearMultigraph(tuple(layers)), n, pattern)
        items.append(FuzzItem(game, random_state(rng, game), rng.getrandbits(64)))
    return items

