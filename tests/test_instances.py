"""Lower-bound family: parameters, closed forms, and exact arithmetic helpers."""
from fractions import Fraction
from math import factorial

import pytest

from fiforoute import (
    InstanceError,
    LowerBoundParams,
    ceil_e_times,
    eq_completion_closed_form,
    gen_gkl,
    gen_lower_bound_game,
    harmonic_range,
    limit_bound,
    load,
    lower_bound_row,
    min_horizon,
    opt_upper_bound_closed_form,
    pos_ratio,
    sequential_equilibrium,
    special_edge_indices,
)
from fiforoute import instances


def test_params_first_three_indices():
    p1 = LowerBoundParams.for_index(1)
    assert (p1.k, p1.l, p1.n) == (3, 1, 6)
    assert p1.tau_special == {2: 3}

    p2 = LowerBoundParams.for_index(2)
    assert (p2.k, p2.l, p2.n) == (6, 2, 720)
    assert p2.tau_special == {2: 26, 3: 38, 4: 62}

    p3 = LowerBoundParams.for_index(3)
    assert (p3.k, p3.l, p3.n) == (9, 3, 362880)
    assert p3.tau_special == {2: 5042, 3: 6482, 4: 8642, 5: 12098, 6: 18146}


def test_params_reject_bad_index():
    with pytest.raises(InstanceError, match="index must be >= 1"):
        LowerBoundParams.for_index(0)


def test_ceil_e_times_against_series_bracket():
    # Bracket e by a partial factorial series: lo < e < lo + 1/(60! * 60).
    lo = sum(Fraction(1, factorial(j)) for j in range(61))
    hi = lo + Fraction(1, factorial(60) * 60)

    def frac_ceil(x: Fraction) -> int:
        return -((-x.numerator) // x.denominator)

    for i in list(range(1, 101)) + [10**6, 10**18, 10**30]:
        lo_ceil = frac_ceil(lo * i)
        hi_ceil = frac_ceil(hi * i)
        assert lo_ceil == hi_ceil, f"series bracket too coarse at i={i}"
        assert ceil_e_times(i) == lo_ceil

    with pytest.raises(InstanceError, match="index must be >= 1"):
        ceil_e_times(0)


def test_harmonic_range_matches_naive_sum():
    for a, b in [(1, 1), (1, 10), (2, 3), (5, 40), (100, 137)]:
        naive = sum(Fraction(1, j) for j in range(a, b + 1))
        assert harmonic_range(a, b) == naive
    assert harmonic_range(7, 6) == 0


def test_gkl_layer_shapes():
    g = gen_gkl(3, 1, {2: 3})
    assert [[e.transit for e in row] for row in g.layers] == [[1, 1, 1], [1, 1, 3]]
    g2 = gen_gkl(6, 2, {2: 26, 3: 38, 4: 62})
    assert g2.layer_sizes == (6, 6, 6, 6)
    assert [e.transit for e in g2.layers[0]] == [1] * 6
    assert [e.transit for e in g2.layers[3]] == [1, 1, 1, 62, 62, 62]
    # layer j carries j-1 special edges at the top indices
    specials = special_edge_indices(LowerBoundParams.for_index(2))
    assert {j: list(r) for j, r in specials.items()} == {2: [6], 3: [5, 6], 4: [4, 5, 6]}


def test_gkl_rejects_bad_parameters():
    with pytest.raises(InstanceError, match="need 0 <= l < k"):
        gen_gkl(3, 3)
    with pytest.raises(InstanceError, match="missing special transit for layer 2"):
        gen_gkl(3, 1)
    with pytest.raises(InstanceError, match="must be an integer >= 1"):
        gen_gkl(3, 1, {2: 0})


def test_closed_form_matches_simulated_makespan():
    for i in (1, 2):
        params = LowerBoundParams.for_index(i)
        game = gen_lower_bound_game(i)
        state = sequential_equilibrium(game)
        assert load(game, state).makespan == eq_completion_closed_form(params)
    assert eq_completion_closed_form(LowerBoundParams.for_index(1)) == 4
    assert eq_completion_closed_form(LowerBoundParams.for_index(2)) == 243


def test_optimum_upper_bound_dominates_horizon():
    for i in (1, 2):
        params = LowerBoundParams.for_index(i)
        game = gen_lower_bound_game(i)
        assert opt_upper_bound_closed_form(params) >= min_horizon(game)


def test_pos_ratio_small_indices():
    assert pos_ratio(1) == 1
    assert pos_ratio(2) == Fraction(243, 170)
    assert pos_ratio(1, mode="analytic") == 1
    assert pos_ratio(2, mode="analytic") == Fraction(243, 170)


def test_pos_ratio_guards():
    with pytest.raises(InstanceError, match="unknown mode"):
        pos_ratio(1, mode="exact")
    with pytest.raises(InstanceError, match="use analytic mode"):
        pos_ratio(2, cap=100)


def test_lower_bound_row_refuses_over_the_cap_before_building_the_game(monkeypatch):
    # game i = 300 would have 516 layers of 816 edges; the refusal needs only n
    def unbuilt(i):
        raise AssertionError(f"game {i} built")

    monkeypatch.setattr(instances, "gen_lower_bound_game", unbuilt)
    for i, cap in ((2, 100), (300, instances.SIMULATION_CAP)):
        with pytest.raises(InstanceError, match="use analytic mode"):
            lower_bound_row(i, cap=cap)
    with pytest.raises(InstanceError, match="use analytic mode"):
        pos_ratio(300)


def test_limit_bound_values():
    assert limit_bound(1) == Fraction(9, 7)
    vals = [limit_bound(l) for l in range(1, 7)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    e_ratio = Fraction(
        sum(Fraction(1, factorial(j)) for j in range(61))
    )
    assert all(v < e_ratio / (e_ratio - 1) for v in vals)
    with pytest.raises(InstanceError, match="truncation must be >= 1"):
        limit_bound(0)


def test_lower_bound_row_fields():
    row = lower_bound_row(1)
    assert list(row) == [
        "i", "k", "l", "n", "eq_makespan", "eq_source",
        "opt_horizon", "ratio_exact", "ratio_decimal", "limit_bound",
    ]
    assert (row["eq_makespan"], row["opt_horizon"]) == (4, 4)
    assert row["eq_source"] == "sim"
    assert row["ratio_exact"] == "1/1"

    analytic = lower_bound_row(2, mode="analytic")
    assert analytic["eq_source"] == "formula"
    assert analytic["ratio_exact"] == "243/170"
    assert analytic["ratio_decimal"] == f"{243 / 170:.10f}"
    with pytest.raises(InstanceError, match="unknown mode"):
        lower_bound_row(1, mode="table")
