"""Span recorders wrapped around the library's public functions, from outside.

Modules call each other through names they import (``equilibria`` calls its
own ``load``, ``loading`` its own ``validate_game``), so a function is
replaced under every name that refers to it, in the package and in each
module, and put back afterwards. Each span's self time is its duration
minus the durations of the spans it directly contains.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import ExitStack, contextmanager

MODULES = ("model", "loading", "equilibria", "optimum", "instances", "capacity", "flows", "cli")

# (module, function) -> the per-layer metric its self time adds to
SPANS = {
    ("loading", "load"): "loading.load_s",
    ("model", "validate_game"): "model.validate_s",
    ("model", "validate_state"): "model.validate_s",
    ("model", "load_game_file"): "model.parse_s",
    ("model", "load_state_file"): "model.parse_s",
    ("model", "game_from_dict"): "model.parse_s",
    ("model", "state_from_dict"): "model.parse_s",
    ("model", "all_paths"): "model.paths_s",
    ("equilibria", "sequential_equilibrium"): "equilibria.construct_s",
    ("equilibria", "is_ufr_equilibrium"): "equilibria.check_s",
    ("equilibria", "enumerate_equilibria"): "equilibria.enumerate_s",
    ("optimum", "min_horizon"): "optimum.min_horizon_s",
    ("optimum", "optimal_state"): "optimum.optimal_state_s",
    ("instances", "lower_bound_row"): "instances.row_self_s",
    ("capacity", "split_capacities"): "capacity.split_s",
    ("capacity", "map_state_to_split"): "capacity.map_s",
    ("flows", "state_to_flow"): "flows.to_flow_s",
    ("flows", "check_flow_feasible"): "flows.check_s",
    ("cli", "main"): "cli.self_s",
}

TIME_METRICS = sorted(set(SPANS.values())) + ["equilibria.check_sweep_s", "equilibria.check_witness_s"]
COUNT_METRICS = [
    "loading.calls",
    "loading.player_layers",
    "equilibria.construct_player_layers",
    "equilibria.check_loads",
    "equilibria.enumerate_states",
    "equilibria.enumerate_loads",
]


def _modules(package):
    return [package] + [importlib.import_module(f"{package.__name__}.{name}") for name in MODULES]


@contextmanager
def patched(package, original, replacement):
    """Replace `original` by `replacement` under every package/module name."""
    undo = [
        (mod, name)
        for mod in _modules(package)
        for name, value in list(vars(mod).items())
        if value is original
    ]
    for mod, name in undo:
        setattr(mod, name, replacement)
    try:
        yield
    finally:
        for mod, name in undo:
            setattr(mod, name, original)


class Tracer:
    """Self time per metric, plus the work counts recorded at the same spans."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []

    def wrap(self, metric: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [metric, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                own = elapsed - frame[1]
                self.seconds[metric] += own
            self._count(metric, parent, own, args, result)
            return result

        return span

    def _count(self, metric, parent, own, args, result) -> None:
        c = self.counts
        if metric == "loading.load_s":
            game = args[0]
            c["loading.calls"] += 1
            c["loading.player_layers"] += game.n * game.graph.num_layers
            if parent == "equilibria.check_s":
                c["equilibria.check_loads"] += 1
            elif parent == "equilibria.enumerate_s":
                c["equilibria.enumerate_loads"] += 1
        elif metric == "equilibria.construct_s":
            game = args[0]
            c["equilibria.construct_player_layers"] += game.n * game.graph.num_layers
        elif metric == "equilibria.check_s":
            kind = "sweep" if result is True else "witness"
            self.seconds[f"equilibria.check_{kind}_s"] += own
        elif metric == "equilibria.enumerate_s":
            game = args[0]
            c["equilibria.enumerate_states"] += game.num_paths() ** game.n

    @contextmanager
    def installed(self, package):
        """Wrap every function in SPANS for the duration of the block."""
        with ExitStack() as stack:
            for (mod, fn), metric in SPANS.items():
                original = getattr(importlib.import_module(f"{package.__name__}.{mod}"), fn)
                stack.enter_context(patched(package, original, self.wrap(metric, original)))
            yield self

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of the spans, as (value, unit)."""
        out = {name: (float(self.seconds[name]), "s") for name in TIME_METRICS}
        out.update({name: (self.counts[name], "count") for name in COUNT_METRICS})
        layers = self.counts["loading.player_layers"]
        out["loading.ns_per_player_layer"] = (1e9 * self.seconds["loading.load_s"] / layers if layers else 0.0, "ns")
        return out
