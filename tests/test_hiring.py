"""Hiring market: score regimes, sequential hiring, deferred acceptance."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolab.hiring import (
    REGIMES,
    UNMATCHED,
    deferred_acceptance,
    generate_market,
    generate_prefs,
    normalized_performance,
    score_regime,
    sequential_hire,
    simulate_run,
)
from monolab.streams import derive_stream

from oracles import (
    brute_force_stable_matchings,
    deferred_acceptance_list_scan,
    is_stable,
    pick_in_order_sort_scan,
    random_small_instance,
    sequential_hire_mask_scan,
    serial_dictatorship,
)


def test_market_deterministic_and_standard_normal():
    m1 = generate_market(50_000, derive_stream(1, 0))
    m2 = generate_market(50_000, derive_stream(1, 0))
    assert np.array_equal(m1, m2)
    assert abs(m1.mean()) < 3 / np.sqrt(len(m1))
    assert abs(m1.var(ddof=1) - 1.0) < 0.02
    with pytest.raises(ValueError):
        generate_market(0, derive_stream(1, 0))


def test_mono_rows_identical():
    # every mono firm shares the one-firm table's row: one noise draw per candidate
    market = generate_market(40, derive_stream(2, 0))
    _, mono = score_regime(market, 1, derive_stream(2, 1).gaussians(40, 0.0, 0.5))
    assert mono.shape == (40,)
    assert np.array_equal(mono, market + derive_stream(2, 1).gaussians(40, 0.0, 0.5))


def test_ensemble_is_mean_of_paired_poly_table():
    market = generate_market(30, derive_stream(3, 0))
    poly, ens = score_regime(market, 8, derive_stream(3, 1).gaussians(30 * 8, 0.0, 0.5))
    assert poly.shape == (8, 30)
    assert ens.shape == (30,)  # the one row every firm shares
    assert np.allclose(ens, poly.mean(axis=0), rtol=0, atol=0)


def test_single_firm_poly_equals_ensemble():
    market = generate_market(20, derive_stream(4, 0))
    poly, ens = score_regime(market, 1, derive_stream(4, 1).gaussians(20, 0.0, 0.5))
    assert poly.shape == (1, 20)
    assert np.array_equal(poly[0], ens)


def test_regimes_share_market_at_same_stream_key():
    # a re-derived stream draws the same market first
    markets = []
    for _ in ("mono", "poly", "ensemble"):
        stream = derive_stream(5, 9)
        markets.append(generate_market(100, stream))
    assert np.array_equal(markets[0], markets[1])
    assert np.array_equal(markets[0], markets[2])


def test_score_regime_validation():
    # the noise sd is checked where the block is drawn, by check_market (see
    # test_simulate_run_rejects_before_any_draw)
    market = generate_market(5, derive_stream(6, 0))
    noise = derive_stream(6, 1).gaussians(10, 0.0, 0.5)
    with pytest.raises(ValueError):
        score_regime(market, 0, noise)
    with pytest.raises(ValueError, match=re.escape("at least 15 normals, got shape (10,)")):
        score_regime(market, 3, noise)
    with pytest.raises(ValueError, match=re.escape("at least 10 normals, got shape (5, 2)")):
        score_regime(market, 2, noise.reshape(5, 2))


def test_ensemble_noise_variance_shrinks_with_firm_count():
    # averaging 25 independent sd-0.5 noises leaves variance 0.25/25 = 0.01
    n, firms, sd = 100_000, 25, 0.5
    market = generate_market(n, derive_stream(7, 0))
    _, ens = score_regime(market, firms, derive_stream(7, 1).gaussians(n * firms, 0.0, sd))
    residual_var = (ens - market).var(ddof=1)
    assert abs(residual_var - sd**2 / firms) < 0.05 * (sd**2 / firms)


def test_sequential_hire_hand_case():
    scores = np.array([[3.0, 1.0, 2.0], [3.0, 2.0, 1.0]])
    out = sequential_hire(scores, [0, 1])
    assert out.tolist() == [0, 1, UNMATCHED]
    out = sequential_hire(scores, [1, 0])
    # firm 1 takes candidate 0 first, firm 0 then takes candidate 2
    assert out.tolist() == [1, UNMATCHED, 0]


def test_sequential_hire_tie_goes_to_lowest_index():
    scores = np.array([[1.0, 1.0, 1.0]])
    out = sequential_hire(scores, [0])
    assert out.tolist() == [0, UNMATCHED, UNMATCHED]


def test_sequential_hire_capacity():
    scores = np.array([[5.0, 4.0, 3.0, 2.0, 1.0], [5.0, 4.0, 3.0, 2.0, 1.0]])
    out = sequential_hire(scores, [0, 1], capacity=2)
    assert out.tolist() == [0, 0, 1, 1, UNMATCHED]


def test_sequential_hire_validation():
    scores = np.zeros((2, 3))
    with pytest.raises(ValueError):
        sequential_hire(scores, [0, 0])
    with pytest.raises(ValueError):
        sequential_hire(scores, [0])
    with pytest.raises(ValueError):
        sequential_hire(scores, [0, 1], capacity=0)
    with pytest.raises(ValueError):
        sequential_hire(np.zeros((2, 3)), [0, 1], capacity=2)  # 3 < 2*2


def test_sequential_hire_shared_row_and_shape_validation():
    row = np.array([1.0, 3.0, 2.0, 0.0])
    out = sequential_hire(row, [1, 0])
    assert out.tolist() == [UNMATCHED, 1, 0, UNMATCHED]
    with pytest.raises(ValueError):
        sequential_hire(row, [0, 2])  # not a permutation of range(2)
    with pytest.raises(ValueError):
        sequential_hire(np.zeros((2, 2, 3)), [0, 1])


MOVES = np.array([[0.9, 0.1, 0.5], [0.2, 0.8, 0.4]])


@pytest.mark.parametrize("order", [[0.9, 1.2], [True, False], np.array([1.0, 0.0]),
                                   [0, True], [np.True_, 0]],
                         ids=["fraction", "bool", "float-array", "int-and-bool",
                              "numpy-bool-and-int"])
def test_sequential_hire_refuses_a_non_integer_firm_order(order):
    # a fractional order was once truncated to [0, 1], [True, False] read as
    # [1, 0], and [0, True] as [0, 1]
    with pytest.raises(ValueError, match="firm_order must be an integer permutation"):
        sequential_hire(MOVES, order)


def test_sequential_hire_takes_any_integer_order_and_an_empty_one():
    assert sequential_hire(MOVES, np.array([1, 0], dtype=np.uint8)).tolist() == [0, 1, UNMATCHED]
    assert sequential_hire(MOVES[0], []).tolist() == [UNMATCHED] * 3


PREFS = np.array([[0, 1], [1, 0], [0, 1]])


@pytest.mark.parametrize("forms", [
    [PREFS.astype(float), PREFS.astype(float).tolist()],
    [PREFS.astype(bool), PREFS.astype(bool).tolist()],
    [[[0, True], [1, 0], [0, 1]]],
], ids=["float", "bool", "int-and-bool"])
def test_deferred_acceptance_refuses_non_integer_preferences(forms):
    # a float matrix once failed inside the proposal loop, a bool one read as
    # 0 and 1, and a bool among a list's integers read as 1
    for prefs in (PREFS, PREFS.tolist()):
        assert deferred_acceptance(MOVES, prefs, capacity=1).tolist() == [0, 1, UNMATCHED]
    for prefs in forms:
        with pytest.raises(ValueError, match="must be an integer permutation"):
            deferred_acceptance(MOVES, prefs, capacity=1)


def test_matchers_reject_non_finite_scores():
    # -inf everywhere once let a second firm re-hire candidate 0, and a NaN
    # candidate was hired first
    with pytest.raises(ValueError, match="finite"):
        sequential_hire(np.full((2, 3), -np.inf), [0, 1], 1)
    with pytest.raises(ValueError, match="finite"):
        sequential_hire(np.array([[np.nan, 1.0, 2.0]] * 2), [0, 1], 1)
    prefs = np.array([[0, 1], [1, 0], [0, 1]])
    for bad in (np.nan, np.inf, -np.inf):
        scores = np.array([[bad, 1.0, 2.0], [0.5, 1.0, 2.0]])
        with pytest.raises(ValueError, match="finite"):
            sequential_hire(scores, [0, 1])
        with pytest.raises(ValueError, match="finite"):
            sequential_hire(scores[0], [0, 1])
        with pytest.raises(ValueError, match="finite"):
            deferred_acceptance(scores, prefs, capacity=1)
        with pytest.raises(ValueError, match="finite"):
            deferred_acceptance(scores[0], prefs, capacity=1)


@st.composite
def hiring_tables(draw):
    """Scores on a coarse grid (many ties), 1-16 firms, capacity 1-4,
    sometimes one row shared by every firm."""
    n_firms = draw(st.integers(1, 16))
    capacity = draw(st.integers(1, 4))
    n_candidates = draw(st.integers(n_firms * capacity, n_firms * capacity + 6))
    row = st.lists(
        st.integers(-3, 3).map(lambda v: v / 2),
        min_size=n_candidates, max_size=n_candidates,
    )
    if draw(st.booleans()):
        scores = np.tile(draw(row), (n_firms, 1))
    else:
        scores = np.array([draw(row) for _ in range(n_firms)])
    return scores, draw(st.permutations(range(n_firms))), capacity


@given(hiring_tables())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_sequential_hire_matches_mask_scan_reference(market):
    # a second reference sorts each row once and walks it past hired columns
    scores, order, capacity = market
    before = scores.copy()
    expected = sequential_hire_mask_scan(scores, order, capacity)
    shared = bool((scores == scores[0]).all())
    for ranked in [scores, scores[0]][: 1 + shared]:  # the table, then a row all firms share
        assert sequential_hire(ranked, order, capacity).tolist() == expected
        picks = pick_in_order_sort_scan(ranked, order, capacity)
        sort_scan = np.full(scores.shape[1], UNMATCHED)
        sort_scan[picks] = np.repeat(order, capacity)  # the firm behind each pick
        assert sort_scan.tolist() == expected
    assert np.array_equal(scores, before)  # the caller's table is not masked


def test_score_regime_ensemble_averages_a_given_poly_table():
    # the table and its mean row read the prefix of a larger block that one
    # candidate-major draw of the table's own shape gives
    market = generate_market(30, derive_stream(13, 0))
    block = derive_stream(13, 1).gaussians(30 * 9, 0.0, 0.5)
    poly, ens = score_regime(market, 6, block)
    noise = derive_stream(13, 1).gaussians((30, 6), 0.0, 0.5)
    assert np.array_equal(poly, (market[:, None] + noise).T)
    assert np.array_equal(ens, poly.mean(axis=0))


def test_zero_noise_every_regime_hires_the_best():
    market = generate_market(60, derive_stream(8, 0))
    noise = derive_stream(8, 1).gaussians(60 * 4, 0.0, 0.0)
    _, mono = score_regime(market, 1, noise)
    for scores in (mono, *score_regime(market, 4, noise)):
        out = sequential_hire(scores, derive_stream(8, 2).permutation(4))
        assert abs(normalized_performance(out, market) - 1.0) < 1e-9
        prefs = generate_prefs(60, 4, derive_stream(8, 3))
        table = np.broadcast_to(scores, (4, 60))  # mono and ensemble share a row
        out = deferred_acceptance(table, prefs, capacity=5)
        assert abs(normalized_performance(out, market) - 1.0) < 1e-9


def test_deferred_acceptance_hand_case():
    scores = np.array([[3.0, 2.0, 1.0], [1.0, 3.0, 2.0]])
    prefs = np.array([[1, 0], [1, 0], [0, 1]])
    out = deferred_acceptance(scores, prefs, capacity=1)
    assert out.tolist() == [0, 1, UNMATCHED]


def test_deferred_acceptance_score_tie_prefers_lower_index():
    scores = np.array([[0.5, 0.5]])
    prefs = np.array([[0], [0]])
    out = deferred_acceptance(scores, prefs, capacity=1)
    assert out.tolist() == [0, UNMATCHED]


def test_deferred_acceptance_respects_capacity_and_prefs():
    stream = derive_stream(9, 0)
    scores = stream.gaussians((3, 12))
    prefs = generate_prefs(12, 3, stream)
    out = deferred_acceptance(scores, prefs, capacity=2)
    for f in range(3):
        assert np.count_nonzero(out == f) <= 2
    assert np.count_nonzero(out != UNMATCHED) == 6
    assert is_stable(out.tolist(), scores, prefs, capacity=2)


def test_deferred_acceptance_validation():
    scores = np.zeros((2, 3))
    good = np.array([[0, 1], [1, 0], [0, 1]])
    with pytest.raises(ValueError):
        deferred_acceptance(scores, good[:2], capacity=1)  # row count mismatch
    with pytest.raises(ValueError):
        deferred_acceptance(scores, np.array([[0, 0], [1, 0], [0, 1]]), capacity=1)
    with pytest.raises(ValueError):
        deferred_acceptance(scores, good, capacity=0)


def test_deferred_acceptance_shared_row_validation():
    # One shared row, tiled to every firm's table.
    shared = np.tile([2.0, 1.0, 0.0], (2, 1))
    good = np.array([[1, 0], [0, 1], [1, 0]])
    out = deferred_acceptance(shared, good.tolist(), capacity=1)
    assert out.tolist() == [1, 0, UNMATCHED]  # list prefs accepted
    with pytest.raises(ValueError, match="shape"):  # row count mismatch
        deferred_acceptance(shared, good[:2], capacity=1)
    with pytest.raises(ValueError, match="permutation"):
        deferred_acceptance(shared, np.array([[0, 0], [1, 0], [0, 1]]), capacity=1)
    with pytest.raises(ValueError, match="matrix"):  # 1-D prefs
        deferred_acceptance(shared, np.array([0, 1, 0]), capacity=1)
    with pytest.raises(ValueError, match="capacity"):
        deferred_acceptance(shared, good, capacity=0)
    with pytest.raises(ValueError, match="finite"):
        deferred_acceptance(np.tile([2.0, np.nan, 0.0], (2, 1)), good, capacity=1)
    with pytest.raises(ValueError, match="at least one firm"):
        deferred_acceptance(np.zeros((0, 3)), np.zeros((3, 0), dtype=int), capacity=1)


def test_deferred_acceptance_rejects_a_shared_row():
    # The hiring driver hires a shared row's top seats with sequential_hire.
    row = np.array([2.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="table"):
        deferred_acceptance(row, [[1, 0], [0, 1], [1, 0]], capacity=1)


def test_deferred_acceptance_stable_on_random_instances():
    stream = derive_stream(10, 0)
    for _ in range(150):
        scores, prefs = random_small_instance(stream)
        out = deferred_acceptance(scores, prefs, capacity=1)
        stable_set = brute_force_stable_matchings(scores, prefs, capacity=1)
        assert tuple(out.tolist()) in stable_set


def test_mono_deferred_acceptance_is_serial_dictatorship():
    stream = derive_stream(11, 0)
    for _ in range(150):
        scores, prefs = random_small_instance(stream)
        shared = scores[0]
        n_firms = scores.shape[0]
        capacity = 1 + int(stream.gen.integers(3))
        mono = np.tile(shared, (n_firms, 1))
        sd = serial_dictatorship(shared, prefs, capacity)
        assert np.array_equal(deferred_acceptance(mono, prefs, capacity), sd)


@st.composite
def small_markets(draw):
    """Scores on a coarse grid (many ties), capacity 1-4; a table, sometimes
    one row tiled to every firm."""
    n_firms = draw(st.integers(1, 4))
    n_candidates = draw(st.integers(1, 12))
    capacity = draw(st.integers(1, 4))
    row = st.lists(
        st.integers(-3, 3).map(lambda v: v / 2),
        min_size=n_candidates, max_size=n_candidates,
    )
    if draw(st.booleans()):
        scores = np.tile(draw(row), (n_firms, 1))
    else:
        scores = np.array([draw(row) for _ in range(n_firms)])
    prefs = np.array(
        [draw(st.permutations(range(n_firms))) for _ in range(n_candidates)]
    ).reshape(n_candidates, n_firms)
    return scores, prefs, capacity


@given(small_markets())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_deferred_acceptance_matches_list_scan_reference(market):
    scores, prefs, capacity = market
    out = deferred_acceptance(scores, prefs, capacity)
    if (scores == scores[0]).all():  # every firm reads one row
        assert serial_dictatorship(scores[0], prefs, capacity).tolist() == out.tolist()
    assert out.tolist() == deferred_acceptance_list_scan(
        scores, prefs, capacity
    )
    assert is_stable(out.tolist(), scores, prefs, capacity)


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_shared_row_hires_its_top_seats_under_any_order_or_prefs(data):
    # When every firm reads one row, the hired set is the row's stable top
    # n_firms x capacity, whatever the firm order or the preferences.  So the
    # hiring driver hires mono's and ensemble's rows with sequential_hire on
    # the row alone.
    n_firms = data.draw(st.integers(1, 4))
    capacity = data.draw(st.integers(1, 3))
    seats = n_firms * capacity
    n_candidates = data.draw(st.integers(seats, seats + 5))
    # few distinct values, so ties are common
    row = np.array(
        data.draw(st.lists(st.integers(-2, 2), min_size=n_candidates,
                           max_size=n_candidates)),
        dtype=float,
    )
    top = sorted(np.argsort(-row, kind="stable")[:seats].tolist())
    order = data.draw(st.permutations(range(n_firms)))
    prefs = np.array(
        [data.draw(st.permutations(range(n_firms))) for _ in range(n_candidates)]
    ).reshape(n_candidates, n_firms)
    table = np.tile(row, (n_firms, 1))
    for assignment in (sequential_hire(row, order, capacity),
                       sequential_hire(table, order, capacity),
                       deferred_acceptance(table, prefs, capacity)):
        assert np.flatnonzero(assignment != UNMATCHED).tolist() == top
        assert np.bincount(assignment[assignment != UNMATCHED],
                           minlength=n_firms).tolist() == [capacity] * n_firms


def test_normalized_performance_anchor_values():
    market = np.array([0.0, 1.0, 2.0, 3.0])
    best = np.array([UNMATCHED, UNMATCHED, UNMATCHED, 0])
    worst = np.array([0, UNMATCHED, UNMATCHED, UNMATCHED])
    middle = np.array([UNMATCHED, 0, UNMATCHED, UNMATCHED])
    assert normalized_performance(best, market) == 1.0
    assert normalized_performance(worst, market) == 0.0
    assert normalized_performance(middle, market) == pytest.approx(1.0 / 3.0)


def test_normalized_performance_is_the_mean_formula_bit_for_bit():
    # the reference reads the three group means with np.mean; the CSV bytes
    # rest on the two agreeing exactly, not to a tolerance
    rng = np.random.default_rng(7)
    for _ in range(300):
        market = rng.standard_normal(int(rng.integers(2, 400)))
        assignment = np.where(rng.random(len(market)) < rng.random(), 0, UNMATCHED)
        hired, left = rng.permutation(len(market))[:2]  # neither empty nor everyone
        assignment[hired], assignment[left] = 0, UNMATCHED
        n = int(np.count_nonzero(assignment >= 0))
        ordered = np.sort(market)
        actual, worst, best = (market[assignment >= 0].mean(), ordered[:n].mean(),
                               ordered[-n:].mean())
        assert normalized_performance(assignment, market) == (actual - worst) / (best - worst)


def test_normalized_performance_errors():
    market = np.array([1.0, 2.0])
    nobody = np.array([UNMATCHED, UNMATCHED])
    with pytest.raises(ValueError):
        normalized_performance(nobody, market)
    flat = np.ones(4)
    one = np.array([0, UNMATCHED, UNMATCHED, UNMATCHED])
    with pytest.raises(ValueError):
        normalized_performance(one, flat)
    # in a stack, any row raises as it would alone
    with pytest.raises(ValueError, match="no candidate was matched"):
        normalized_performance(np.array([[0, UNMATCHED], nobody]), market)
    with pytest.raises(ValueError, match="degenerate market"):
        normalized_performance(np.array([one, [0, 1, UNMATCHED, UNMATCHED]]), flat)
    with pytest.raises(ValueError, match="a row or a stack of rows"):
        normalized_performance(np.zeros((1, 1, 4), dtype=int), flat)


def test_stacked_normalized_performance_equals_its_rows_bit_for_bit():
    # rows that hire as many share the best and worst groups; rows that hire
    # fewer or more must read their own
    rng = np.random.default_rng(11)
    for _ in range(200):
        market = rng.standard_normal(int(rng.integers(2, 300)))
        stack = np.where(rng.random((int(rng.integers(1, 6)), len(market)))
                         < rng.random(), 0, UNMATCHED)
        stack[:, 0], stack[:, -1] = 0, UNMATCHED  # no row is empty or hires everyone
        if len(stack) > 1:
            stack[1] = rng.permutation(stack[0])  # two rows with one hire count
        values = normalized_performance(stack, market)
        assert values.shape == (len(stack),)
        assert values.tolist() == [normalized_performance(row, market) for row in stack]


def test_prefs_shape_and_rows_are_permutations():
    prefs = generate_prefs(40, 6, derive_stream(12, 0))
    assert prefs.shape == (40, 6)
    expected = list(range(6))
    for row in prefs:
        assert sorted(row.tolist()) == expected


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_mono_hires_at_f_firms_are_the_largest_counts_firms_below_f(data):
    # simulate_run hires mono's row once, at its largest firm count, and reads
    # each smaller count f as the hires of the firms below f
    most = data.draw(st.integers(1, 8))
    capacity = data.draw(st.integers(1, 3))
    n_candidates = data.draw(st.integers(most * capacity, most * capacity + 6))
    row = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n_candidates,
                                      max_size=n_candidates)), dtype=float)  # many ties
    hires = sequential_hire(row, np.arange(most), capacity)
    for f in range(1, most + 1):
        assert np.array_equal(np.where(hires < f, hires, UNMATCHED),
                              sequential_hire(row, np.arange(f), capacity)), f


@pytest.mark.parametrize("make", [lambda: {2, 3}, lambda: {2: 1, 3: 1},
                                  lambda: (f for f in (2, 3))],
                         ids=["set", "dict", "generator"])
def test_simulate_run_refuses_an_unordered_or_one_pass_grid(make):
    # a set's rows once came back in set order
    stream = derive_stream(48, 0)
    before = stream.state()
    with pytest.raises(ValueError, match="firms grid must be a sequence of sizes"):
        simulate_run(30, make(), 0.5, 1, False, [stream])
    assert stream.state() == before


@pytest.mark.parametrize("simultaneous", [False, True])
def test_simulate_run_plays_each_replicate_alone(simultaneous):
    market = (40, (3, 1, 5), 0.7, 2, simultaneous)
    together = simulate_run(*market, [derive_stream(47, r) for r in range(5)])
    assert together.shape == (3, len(REGIMES), 5)
    for r in range(5):
        alone = simulate_run(*market, [derive_stream(47, r)])
        assert np.array_equal(together[:, :, r], alone[:, :, 0]), r


def test_simulate_run_rejects_before_any_draw():
    for market, message in [
        ((10, (2, 4), 0.5, 3, False), "sequential mode needs candidates > firms x capacity"),
        ((20, (2,), 1e308, 1, True), "noise_sd = 1e+308 is too large"),
        ((10**11, (2,), 0.5, 1, False), "market too large: 100000000000 candidates"),
        ((30, (2,), -1.0, 1, False), "noise_sd must be >= 0, got -1.0"),
        ((30, (2,), float("nan"), 1, False), "noise_sd must be >= 0, got nan"),
        ((30, (2,), 0.5, 0, False), "capacity must be >= 1, got 0"),
        ((30, (), 0.5, 1, False), "firms grid must not be empty"),
        ((30, (2, 0), 0.5, 1, True), "firms grid entries must be positive integers, got (2, 0)"),
    ]:
        stream = derive_stream(48, 0)
        before = stream.state()
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_run(*market, [stream])
        assert stream.state() == before, market


@pytest.mark.parametrize("simultaneous, capacity", [(False, 1), (False, 3), (True, 4)])
def test_simulate_run_regimes_agree_at_one_firm(simultaneous, capacity):
    # at one firm, mono, poly and ensemble read one table
    values = simulate_run(30, (1, 2, 5), 0.5, capacity, simultaneous,
                          [derive_stream(49, r) for r in range(20)])
    assert np.array_equal(values[0, 0], values[0, 1])
    assert np.array_equal(values[0, 0], values[0, 2])
    assert not np.array_equal(values[2, 0], values[2, 1])  # at 5 firms they part


def test_simultaneous_simulate_run_matches_deferred_acceptance_for_every_regime():
    # simulate_run hires the row mono and ensemble firms share by its top
    # seats, without a match, so deferred acceptance on the tiled table checks
    # it; the tight market (28 seats for 30 candidates at 7 firms) forces long
    # rejection chains.  Each expected cell draws its table alone, in its own
    # shape, not as a prefix of a larger block.
    n_candidates, firm_grid, noise_sd, capacity, seed, n_runs = 30, (7, 1, 4, 4), 0.5, 4, 45, 6
    values = simulate_run(n_candidates, firm_grid, noise_sd, capacity, True,
                          [derive_stream(seed, r) for r in range(n_runs)])
    for r in range(n_runs):
        for i, f in enumerate(firm_grid):
            for j, regime in enumerate(REGIMES):
                stream = derive_stream(seed, r)
                market = generate_market(n_candidates, stream)
                n_firms = 1 if regime == "mono" else f
                noise = stream.gaussians((n_candidates, n_firms), 0.0, noise_sd)
                poly, row = score_regime(market, n_firms, noise.ravel())
                # mono's and ensemble's firms share a row
                scores = poly if regime == "poly" else np.tile(row, (f, 1))
                prefs = generate_prefs(n_candidates, f, stream)
                assignment = deferred_acceptance(scores, prefs, capacity)
                expected = normalized_performance(assignment, market)
                assert values[i, j, r] == expected, (r, f, regime)


def test_sequential_simulate_run_matches_rederived_cells():
    # simulate_run draws one market and one noise block per replicate and
    # restores stream snapshots; every cell must equal a fresh derivation, its
    # table drawn alone in its own shape, with the per-seat mask scan
    n_candidates, firm_grid, noise_sd, capacity, seed, n_runs = 30, (7, 1, 4, 4), 0.5, 3, 46, 6
    values = simulate_run(n_candidates, firm_grid, noise_sd, capacity, False,
                          [derive_stream(seed, r) for r in range(n_runs)])
    for r in range(n_runs):
        for i, f in enumerate(firm_grid):
            for j, regime in enumerate(REGIMES):
                stream = derive_stream(seed, r)
                market = generate_market(n_candidates, stream)
                n_firms = 1 if regime == "mono" else f
                noise = stream.gaussians((n_candidates, n_firms), 0.0, noise_sd)
                poly, row = score_regime(market, n_firms, noise.ravel())
                # mono's and ensemble's firms share a row
                scores = poly if regime == "poly" else np.tile(row, (f, 1))
                order = stream.permutation(f)
                assignment = sequential_hire_mask_scan(scores, order, capacity)
                expected = normalized_performance(np.array(assignment), market)
                assert values[i, j, r] == expected, (r, f, regime)
