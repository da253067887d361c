"""Exact exclusion probabilities by exhaustive enumeration.

Everything here returns `fractions.Fraction`, never floats: these are the
small closed-form anchors the Monte Carlo engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

# Exhaustive enumeration of ranking profiles is factorial in the candidate
# count and, under poly, exponential in the firm count; keep it tiny.
MAX_CANDIDATES = 6
MAX_FIRMS = 4


def check_enumeration_size(n_candidates: int, n_firms: int) -> None:
    """Reject a market that enumeration cannot fill or cannot finish."""
    if n_candidates < 1 or n_firms < 1:
        raise ValueError("need at least one candidate and one firm")
    if n_firms > n_candidates:
        raise ValueError("more firms than candidates leaves firms unfilled")
    if n_candidates > MAX_CANDIDATES or n_firms > MAX_FIRMS:
        raise ValueError(
            f"instance too large for enumeration "
            f"(max {MAX_CANDIDATES} candidates, {MAX_FIRMS} firms)"
        )


def check_rankings(rankings) -> set:
    """Reject anything but 1-6 strict rankings of one candidate set; return the set."""
    if not rankings:
        raise ValueError("need at least one firm ranking")
    if len(rankings) > 6:
        raise ValueError("order sensitivity enumerates firm orders; max 6 firms")
    labels = set(rankings[0])
    for r in rankings:
        if set(r) != labels or len(r) != len(labels):
            raise ValueError("every ranking must be a strict order over the same candidates")
    if len(rankings) > len(labels):
        raise ValueError("more firms than candidates leaves firms unfilled")
    return labels


def _hire_one_each(rankings, candidates) -> set:
    """Firms in list order each hire the top remaining candidate of their ranking."""
    remaining = set(candidates)
    for ranking in rankings:
        for cand in ranking:
            if cand in remaining:
                remaining.discard(cand)
                break
    return remaining


def enumerate_sequential_outcomes(
    n_candidates: int,
    n_firms: int,
    regime: str,
) -> list[Fraction]:
    """Exact joblessness probability per candidate under uniform rankings.

    Under ``mono`` all firms share one uniformly random ranking; under
    ``poly`` each firm draws an independent one.  Firms hire sequentially
    in fixed order, one candidate each.
    """
    if regime not in ("mono", "poly"):
        raise ValueError(f"enumeration is defined for 'mono' and 'poly', got {regime!r}")
    check_enumeration_size(n_candidates, n_firms)

    rankings_pool = list(permutations(range(n_candidates)))
    if regime == "mono":
        profiles = ((r,) * n_firms for r in rankings_pool)
        total = factorial(n_candidates)
    else:
        profiles = product(rankings_pool, repeat=n_firms)
        total = factorial(n_candidates) ** n_firms

    jobless_counts = [0] * n_candidates
    for profile in profiles:
        for cand in _hire_one_each(profile, range(n_candidates)):
            jobless_counts[cand] += 1
    return [Fraction(count, total) for count in jobless_counts]


def veil_group_exclusion(n_candidates: int, n_jobs: int, group_size: int) -> Fraction:
    """Probability that an entire group of given size ends up jobless.

    Candidates are exchangeable (a veil-of-ignorance draw): the jobless set
    is a uniformly random subset of size n_candidates - n_jobs, and the
    group is excluded exactly when it sits inside that subset.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    if not 0 <= n_jobs <= n_candidates:
        raise ValueError(f"jobs must lie in [0, {n_candidates}], got {n_jobs}")
    if not 0 <= group_size <= n_candidates:
        raise ValueError(f"group size must lie in [0, {n_candidates}], got {group_size}")
    jobless = n_candidates - n_jobs
    if group_size > jobless:
        return Fraction(0)
    return Fraction(
        comb(n_candidates - group_size, jobless - group_size),
        comb(n_candidates, jobless),
    )


@dataclass(frozen=True)
class OrderSensitivity:
    """Unmatched set for every firm order, plus whether the sets differ."""

    unmatched_by_order: dict
    sensitive: bool


def hiring_order_sensitivity(rankings) -> OrderSensitivity:
    """Which candidates stay unmatched under every possible firm order.

    ``rankings`` holds one strict ranking per firm, each a sequence over the
    same candidate labels.  Firms hire one candidate each.
    """
    rankings = [tuple(r) for r in rankings]
    labels = check_rankings(rankings)
    by_order = {
        order: frozenset(_hire_one_each([rankings[f] for f in order], labels))
        for order in permutations(range(len(rankings)))
    }
    sensitive = len(set(by_order.values())) > 1
    return OrderSensitivity(by_order, sensitive)
