"""Exact enumeration oracles and their internal consistency."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from monolab.exact import (
    enumerate_sequential_outcomes,
    hiring_order_sensitivity,
    veil_group_exclusion,
)
from monolab.hiring import sequential_hire
from monolab.streams import derive_stream


def test_three_candidates_two_firms_mono():
    probs = enumerate_sequential_outcomes(3, 2, "mono")
    assert probs == [Fraction(1, 3)] * 3


def test_three_candidates_two_firms_poly():
    probs = enumerate_sequential_outcomes(3, 2, "poly")
    # 12 of the 36 ranking pairs leave any given candidate jobless
    assert probs == [Fraction(12, 36)] * 3
    assert probs[0].denominator == 3  # stored reduced


def test_jobs_equal_candidates_means_nobody_jobless():
    for regime in ("mono", "poly"):
        assert enumerate_sequential_outcomes(2, 2, regime) == [Fraction(0)] * 2


@pytest.mark.parametrize(
    "n_candidates,n_firms,regime",
    [(4, 2, "mono"), (4, 2, "poly"), (4, 3, "poly"), (5, 2, "mono"), (5, 3, "poly")],
)
def test_exchangeability_and_total_mass(n_candidates, n_firms, regime):
    probs = enumerate_sequential_outcomes(n_candidates, n_firms, regime)
    # uniform rankings make candidates exchangeable
    assert len(set(probs)) == 1
    # exactly n_candidates - n_firms candidates are jobless in every outcome
    assert sum(probs) == n_candidates - n_firms


def test_enumeration_guard_and_validation():
    with pytest.raises(ValueError, match="too large"):
        enumerate_sequential_outcomes(7, 2, "mono")
    with pytest.raises(ValueError, match="too large"):
        enumerate_sequential_outcomes(5, 5, "poly")
    with pytest.raises(ValueError):
        enumerate_sequential_outcomes(2, 3, "mono")  # more firms than candidates
    with pytest.raises(ValueError):
        enumerate_sequential_outcomes(3, 2, "ensemble")


def test_veil_large_market_group():
    assert veil_group_exclusion(100, 90, 10) == Fraction(1, comb(100, 10))


def test_veil_edge_cases():
    assert veil_group_exclusion(17, 5, 0) == 1
    assert veil_group_exclusion(3, 2, 1) == Fraction(1, 3)
    # group larger than the jobless set can never be fully excluded
    assert veil_group_exclusion(10, 8, 3) == 0
    assert veil_group_exclusion(10, 10, 1) == 0
    # a size outside [0, n_candidates], or one that is not an integer (a bool
    # included), is refused before any arithmetic
    for args in [(10, 11, 1), (10, 5, 11), (5, 1.5, 1), (5, 2, 1.5), (5, True, 1),
                 (5, 2, True)]:
        with pytest.raises(ValueError):
            veil_group_exclusion(*args)


def test_veil_matches_enumeration_single_candidate():
    # a single candidate is a group of size one; exchangeability ties the two oracles
    for n, f in [(3, 2), (4, 2), (4, 3), (5, 3)]:
        probs = enumerate_sequential_outcomes(n, f, "poly")
        assert probs[0] == veil_group_exclusion(n, f, 1)


def test_order_sensitivity_disagreeing_example():
    by_order, sensitive = hiring_order_sensitivity([("A", "B", "C"), ("A", "C", "B")])
    assert by_order[(0, 1)] == frozenset({"B"})
    assert by_order[(1, 0)] == frozenset({"C"})
    assert sensitive


def test_order_sensitivity_reversal_example():
    by_order, sensitive = hiring_order_sensitivity([("A", "B", "C"), ("C", "B", "A")])
    assert by_order[(0, 1)] == frozenset({"B"})
    assert by_order[(1, 0)] == frozenset({"B"})
    assert not sensitive


def test_order_sensitivity_shared_ranking_is_invariant():
    ranking = ("C", "A", "D", "B")
    by_order, sensitive = hiring_order_sensitivity([ranking, ranking, ranking])
    assert not sensitive
    assert set(by_order.values()) == {frozenset({"B"})}


def test_order_sensitivity_validation():
    with pytest.raises(ValueError):
        hiring_order_sensitivity([])
    with pytest.raises(ValueError):
        hiring_order_sensitivity([("A", "B"), ("A", "C")])
    with pytest.raises(ValueError):
        hiring_order_sensitivity([("A", "B", "B"), ("A", "B", "B")])
    with pytest.raises(ValueError):
        hiring_order_sensitivity([("A",)] * 2)  # two firms, one candidate
    with pytest.raises(ValueError):
        hiring_order_sensitivity([tuple("ABCDEFG")] * 7)


def test_monte_carlo_agrees_with_poly_enumeration():
    # continuous i.i.d. scores induce uniform independent rankings, so the
    # sequential-hire engine must converge on the exact poly probabilities
    n, f, samples = 3, 2, 100_000
    stream = derive_stream(2024, 0)
    jobless0 = 0
    for _ in range(samples):
        scores = stream.gaussians((f, n))
        outcome = sequential_hire(scores, range(f))
        if outcome[0] == -1:
            jobless0 += 1
    exact_p = float(enumerate_sequential_outcomes(n, f, "poly")[0])
    se = np.sqrt(exact_p * (1 - exact_p) / samples)
    assert abs(jobless0 / samples - exact_p) < 3 * se
