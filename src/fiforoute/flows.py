"""Embed discrete loadings into piecewise-constant flows over time."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .loading import LoadingResult
from .model import FifoRouteError, Game, LinearMultigraph

# (time, rate) pairs: rate holds from time until the next breakpoint, the
# last pair always carries rate 0. Rate is 0 before the first breakpoint.
Breakpoints = tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class FlowOverTime:
    """Edge inflow rates on [0, horizon), keyed by (layer, index)."""

    horizon: int
    rates: dict[tuple[int, int], Breakpoints]

    def rate_at(self, layer: int, index: int, t: int) -> int:
        bps = self.rates.get((layer, index), ())
        r = 0
        for bt, br in bps:
            if bt > t:
                break
            r = br
        return r


def state_to_flow(game: Game, loading: LoadingResult) -> FlowOverTime:
    """Send each departure at time t into the edge at rate 1 on [t, t+1).

    The horizon is makespan + 1 so the final hop, a departure at the
    makespan itself, still fits inside the flow's support.
    """
    if loading.game is not game and loading.game != game:
        raise FifoRouteError("loading result does not belong to this game")
    horizon = loading.makespan + 1
    rates: dict[tuple[int, int], Breakpoints] = {}
    for key, log in loading.edge_logs.items():
        counts = Counter(log.departs)
        bps: list[tuple[int, int]] = []
        current = 0
        for t in sorted(counts):
            if counts[t] != current:
                bps.append((t, counts[t]))
                current = counts[t]
            end = t + 1
            if end not in counts:
                bps.append((end, 0))
                current = 0
        rates[key] = tuple(bps)
    return FlowOverTime(horizon, rates)


def cumulative_flow(flow: FlowOverTime, layer: int, index: int, x: int) -> int:
    """Integral of the edge's rate over [0, x]. Exact for integer x."""
    total = 0
    bps = flow.rates.get((layer, index), ())
    for pos, (t, r) in enumerate(bps):
        if t >= x:
            break
        end = bps[pos + 1][0] if pos + 1 < len(bps) else flow.horizon
        total += r * (min(end, x) - t)
    return total


def flow_value(graph: LinearMultigraph, flow: FlowOverTime) -> int:
    """Total flow reaching the destination: inflow of the last layer, shifted by transit."""
    m = graph.num_layers
    return sum(
        cumulative_flow(flow, m, i, flow.horizon - tau)
        for i, tau in enumerate(graph.transits[m - 1], start=1)
    )


def _rate_changes(flow: FlowOverTime, layer: int, shifts: tuple[int, ...]) -> dict[int, int]:
    """Map each breakpoint time of the layer's edges, plus the edge's shift,
    to the summed change of rate there; a change of 0 still keeps its time."""
    changes: dict[int, int] = {}
    for i, shift in enumerate(shifts, start=1):
        prev = 0
        for t, r in flow.rates.get((layer, i), ()):
            changes[t + shift] = changes.get(t + shift, 0) + r - prev
            prev = r
    return changes


def check_flow_feasible(
    graph: LinearMultigraph, flow: FlowOverTime, expected_value: int | None = None
) -> list[str]:
    """Return all feasibility violations, empty when the flow is valid.

    Checks per-edge rate bounds and support, weak conservation at every
    internal node (cumulative outflow never exceeds cumulative inflow from
    the previous layer), and optionally the total flow value. The flow must
    live on [0, horizon): a breakpoint before time 0 is a violation, and a
    positive rate must stop by the edge's cutoff, horizon - transit.

    Conservation at v_j is checked at its critical times: the horizon,
    every breakpoint of layer j shifted by its transit and every breakpoint
    of layer j + 1, up to the horizon. Both cumulative sums are 0 at time 0
    and linear between two critical times, so outflow exceeds inflow
    somewhere only if it does at one of them. One sweep per node walks
    those times in order with running integrals and rates, so the check
    costs O(B log B) for B breakpoints.
    """
    violations: list[str] = []
    T = flow.horizon
    for key, bps in sorted(flow.rates.items()):
        layer, index = key
        name = f"{layer}:{index}"
        try:
            edge = graph.edge(layer, index)
        except FifoRouteError:
            violations.append(f"edge {name} not in graph")
            continue
        times = [t for t, _ in bps]
        if times != sorted(set(times)):
            violations.append(f"edge {name} breakpoints not strictly increasing")
            continue
        if bps and bps[0][0] < 0:
            violations.append(f"edge {name} starts at negative time {bps[0][0]}")
        if bps and bps[-1][1] != 0:
            violations.append(f"edge {name} does not end at rate 0")
        cutoff = T - edge.transit
        for pos, (t, r) in enumerate(bps):
            if r < 0:
                violations.append(f"edge {name} negative rate {r} at time {t}")
            if r > edge.capacity:
                violations.append(
                    f"edge {name} rate {r} exceeds capacity {edge.capacity} at time {t}"
                )
            if r > 0:
                end = bps[pos + 1][0] if pos + 1 < len(bps) else T
                if end > cutoff:
                    violations.append(
                        f"edge {name} active on [{t},{end}) past cutoff {cutoff}"
                    )
    if violations:
        return violations

    for j in range(1, graph.num_layers):
        inflow = _rate_changes(flow, j, graph.transits[j - 1])
        inflow.setdefault(T, 0)
        outflow = _rate_changes(flow, j + 1, (0,) * len(graph.transits[j]))
        arrived = left = in_rate = out_rate = last = 0
        for theta in sorted(inflow.keys() | outflow.keys()):
            if theta > T:
                break
            arrived += in_rate * (theta - last)
            left += out_rate * (theta - last)
            last = theta
            if left > arrived:
                violations.append(
                    f"conservation violated at node v_{j} by time {theta}:"
                    f" out {left} > in {arrived}"
                )
            in_rate += inflow.get(theta, 0)
            out_rate += outflow.get(theta, 0)
    if expected_value is not None:
        value = flow_value(graph, flow)
        if value != expected_value:
            violations.append(f"flow value {value} != expected {expected_value}")
    return violations


def flow_to_dict(flow: FlowOverTime) -> dict:
    return {
        "horizon": flow.horizon,
        "edges": {
            f"{layer}:{index}": [[t, r] for t, r in bps]
            for (layer, index), bps in sorted(flow.rates.items())
        },
    }
