"""Exact exclusion probabilities by exhaustive enumeration.

Everything here returns `fractions.Fraction`, never floats: these are the
small closed-form anchors the Monte Carlo engine is checked against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

from .streams import check_count

# Poly enumerates all (n!)^f ranking profiles of n candidates and f firms;
# (5, 3) has 1.7e6 of them and takes about 2 s.
MAX_PROFILES = 2_000_000

# Enumeration's regimes: all firms share one ranking, or each firm draws its own.
REGIMES = ("mono", "poly")


def check_enumeration_size(n_candidates: int, n_firms: int) -> None:
    """Reject a market that enumeration cannot fill or cannot finish."""
    check_count(n_candidates, "candidates")
    check_count(n_firms, "firms")
    if n_firms > n_candidates:
        raise ValueError("more firms than candidates leaves firms unfilled")
    profiles = 1  # (n!)^f, multiplied out only until it passes the bound
    for factor in range(2, n_candidates + 1):
        for _ in range(n_firms):
            profiles *= factor
            if profiles > MAX_PROFILES:
                raise ValueError(
                    f"instance too large for enumeration (({n_candidates}!)^{n_firms} "
                    f"ranking profiles, max {MAX_PROFILES:,})"
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
    if regime not in REGIMES:
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
    check_count(n_candidates, "candidates")
    check_count(n_jobs, "jobs", 0)
    check_count(group_size, "group size", 0)
    if n_jobs > n_candidates:
        raise ValueError(f"jobs must lie in [0, {n_candidates}], got {n_jobs}")
    if group_size > n_candidates:
        raise ValueError(f"group size must lie in [0, {n_candidates}], got {group_size}")
    jobless = n_candidates - n_jobs
    if group_size > jobless:
        return Fraction(0)
    return Fraction(
        comb(n_candidates - group_size, jobless - group_size),
        comb(n_candidates, jobless),
    )


def hiring_order_sensitivity(rankings) -> tuple[dict, bool]:
    """Which candidates stay unmatched under every possible firm order.

    ``rankings`` holds one strict ranking per firm, each a sequence over the
    same candidate labels.  Firms hire one candidate each.  Returns
    ``(by_order, sensitive)``: the unmatched set for every firm order, and
    whether those sets differ.
    """
    rankings = [tuple(r) for r in rankings]
    labels = check_rankings(rankings)
    by_order = {
        order: frozenset(_hire_one_each([rankings[f] for f in order], labels))
        for order in permutations(range(len(rankings)))
    }
    return by_order, len(set(by_order.values())) > 1
