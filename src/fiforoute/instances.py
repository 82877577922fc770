"""The narrowing-layer instance family and its exact price-of-stability arithmetic."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .equilibria import sequential_equilibrium
from .loading import arrival_sweep
from .model import SIMULATION_CAP, FifoRouteError, Game, LinearMultigraph
from .optimum import min_horizon_for


class InstanceError(FifoRouteError):
    """Bad family parameters, or a simulation request beyond the packet cap."""


# Euler's number as an exact rational bracket: _E_NUM/_E_DEN < e < (_E_NUM+1)/_E_DEN.
# Sixty decimal digits; every ceiling computed from it cross-checks both bounds.
_E_NUM = 2718281828459045235360287471352662497757247093699959574966967
_E_DEN = 10**60


def ceil_e_times(i: int) -> int:
    """ceil(e * i), provably exact: both rational bounds must agree."""
    if i < 1:
        raise InstanceError(f"index must be >= 1, got {i}")
    lo = -((-_E_NUM * i) // _E_DEN)
    hi = -((-(_E_NUM + 1) * i) // _E_DEN)
    if lo != hi:  # pragma: no cover - would need i ~ 1e59
        raise InstanceError(f"embedded constant too coarse for ceil(e*{i})")
    return lo


def harmonic_range(a: int, b: int) -> Fraction:
    """Exact sum of 1/j for a <= j <= b (zero when empty, InstanceError if it holds 0), via pair merging.

    Divide and conquer keeps the intermediate numerators balanced, so the
    big-integer work stays near-linear instead of quadratic for ranges with
    tens of thousands of terms.
    """
    if a > b:
        return Fraction(0)
    if a <= 0 <= b:
        raise InstanceError(f"harmonic range {a}..{b} contains 0")
    num, den = _harmonic_pair(a, b)
    return Fraction(num, den)


def _harmonic_pair(a: int, b: int) -> tuple[int, int]:
    if a == b:
        return 1, a
    mid = (a + b) // 2
    n1, d1 = _harmonic_pair(a, mid)
    n2, d2 = _harmonic_pair(mid + 1, b)
    return n1 * d2 + n2 * d1, d1 * d2


@dataclass(frozen=True)
class LowerBoundParams:
    """Exact parameters of the i-th lower-bound game.

    k = ceil(e*i) edges per layer, l = i truncated layers, n = k! players,
    and per-layer transit times for the deliberately slow special edges,
    chosen so the factorial player count divides evenly.
    """

    i: int
    k: int
    l: int
    n: int
    tau_special: dict[int, int]

    @classmethod
    def for_index(cls, i: int) -> "LowerBoundParams":
        k = ceil_e_times(i)
        l = i
        n = factorial(k)
        tau: dict[int, int] = {}
        for j in range(2, k - l + 1):
            q1, r1 = divmod(n, k - j + 1)
            q2, r2 = divmod(n, k - j + 2)
            if r1 or r2:  # pragma: no cover - k! divides by construction
                raise InstanceError(f"transit for layer {j} is not integral")
            tau[j] = q1 - q2 + 2
        return cls(i=i, k=k, l=l, n=n, tau_special=tau)


def gen_gkl(k: int, l: int, tau: dict[int, int] | None = None) -> LinearMultigraph:
    """The k-wide, (k-l)-deep family: layer j has j-1 slow special edges.

    Layer j holds k-(j-1) standard edges of transit 1 at the lowest indices
    and j-1 special edges of transit tau[j] at the highest indices.
    """
    return LinearMultigraph.from_transits(_gkl_transits(k, l, tau))


def _gkl_transits(k: int, l: int, tau: dict[int, int] | None) -> list[list[int]]:
    """gen_gkl's transits per layer, each layer already sorted."""
    if not (isinstance(k, int) and isinstance(l, int)) or k < 1 or l < 0 or l >= k:
        raise InstanceError(f"need 0 <= l < k, got k={k}, l={l}")
    tau = tau or {}
    layers: list[list[int]] = []
    for j in range(1, k - l + 1):
        special = j - 1
        row = [1] * (k - special)
        if special:
            if j not in tau:
                raise InstanceError(f"missing special transit for layer {j}")
            if not isinstance(tau[j], int) or tau[j] < 1:
                raise InstanceError(f"special transit for layer {j} must be an integer >= 1")
            row += [tau[j]] * special
        layers.append(row)
    return layers


def gen_lower_bound_game(i: int) -> Game:
    """The i-th lower-bound game: k! players, zero starting pattern."""
    params = LowerBoundParams.for_index(i)
    graph = gen_gkl(params.k, params.l, params.tau_special)
    return Game(graph, params.n, None)


def eq_completion_closed_form(params: LowerBoundParams) -> int:
    """Makespan shared by every equilibrium of the lower-bound game: (k-l-1) + n/(l+1)."""
    q, r = divmod(params.n, params.l + 1)
    if r:  # pragma: no cover - k! divides by construction
        raise InstanceError("player count not divisible by l+1")
    return params.k - params.l - 1 + q


def opt_upper_bound_closed_form(params: LowerBoundParams) -> Fraction:
    """Exact rational upper bound on the optimal makespan of the lower-bound game."""
    k, l, n = params.k, params.l, params.n
    head = Fraction(3 * k * k - 4 * k * l - k + l * l + l, 2 * k)
    tail = Fraction(k - l - 1, (l + 1) * k) + Fraction(1, k) - harmonic_range(l + 2, k) / k
    return head + n * tail


def special_edge_indices(params: LowerBoundParams) -> dict[int, range]:
    """Per layer, the 1-based edge indices that are special (slow) edges."""
    return {
        j: range(params.k - (j - 1) + 1, params.k + 1)
        for j in range(2, params.k - params.l + 1)
    }


def pos_ratio(i: int, mode: str = "simulate", cap: int = SIMULATION_CAP) -> Fraction:
    """Equilibrium makespan over optimal makespan for the i-th lower-bound game,
    as an exact rational: the ratio of lower_bound_row(i, mode, cap)."""
    row = lower_bound_row(i, mode, cap)
    return Fraction(row["eq_makespan"], row["opt_horizon"])


def limit_bound(l: int) -> Fraction:
    """The exact limit expression at truncation l; tends to e/(e-1) ~ 1.58198."""
    if l < 1:
        raise InstanceError(f"truncation must be >= 1, got {l}")
    k = ceil_e_times(l)
    inner = Fraction(l + 1, k) * harmonic_range(l + 2, k)
    return 1 / (1 - inner)


def lower_bound_row(i: int, mode: str = "simulate", cap: int = SIMULATION_CAP) -> dict:
    """One table row of the convergence report; exact fields plus decimal echoes.
    simulate builds the game and sweeps its greedy-queue equilibrium (player
    count capped), analytic takes the closed form and builds no game; the
    optimum is min_horizon, from the cheapest paths' lengths."""
    if mode not in ("simulate", "analytic"):
        raise InstanceError(f"unknown mode {mode!r} (expected simulate or analytic)")
    params = LowerBoundParams.for_index(i)
    if mode == "simulate" and params.n > cap:  # before building k - i layers of k edges
        raise InstanceError(f"n = {params.n} exceeds the simulation cap {cap}; use analytic mode")
    transits = _gkl_transits(params.k, params.l, params.tau_special)
    if mode == "simulate":
        game = Game(LinearMultigraph.from_transits(transits), params.n)
        state = sequential_equilibrium(game)
        eq_makespan, source = max(arrival_sweep(game, state.paths)[-1]), "sim"
    else:
        eq_makespan, source = eq_completion_closed_form(params), "formula"
    # every layer is sorted, so path j takes edge j of each: the column sums
    opt = min_horizon_for(list(map(sum, zip(*transits))), params.n)
    ratio = Fraction(eq_makespan, opt)
    return {
        "i": params.i,
        "k": params.k,
        "l": params.l,
        "n": params.n,
        "eq_makespan": eq_makespan,
        "eq_source": source,
        "opt_horizon": opt,
        "ratio_exact": f"{ratio.numerator}/{ratio.denominator}",
        "ratio_decimal": f"{float(ratio):.10f}",
        "limit_bound": f"{float(limit_bound(params.i)):.10f}",
    }
