"""Hiring-market simulation: score tables, sequential hiring, deferred acceptance.

A market is a vector of objective candidate values.  Firms never see the
values directly; they see noisy scores arranged in a firm-by-candidate
table whose structure encodes the decision regime:

* ``mono``      - one shared noise draw per candidate, so every firm row
                  is identical and all firms agree on the ranking.
* ``poly``      - independent noise per (firm, candidate) cell.
* ``ensemble``  - every firm row equals the per-candidate mean of the poly
                  rows drawn from the same stream state, i.e. the firms
                  average the polyculture's independent estimates.

Stream consumption inside one simulated run is fixed: market values first,
then noise in candidate-major order, then preference or firm-order draws.
Because of that, regimes starting from the same stream state share the
market, and ``ensemble`` is the exact mean of the ``poly`` table drawn at
that state, so it can average poly's table instead of drawing it again.
Under mono and ensemble every firm row is the same, so ``score_regime``
returns that one shared row, and both matchers, ``sequential_hire`` and
``deferred_acceptance``, take it in place of a table.  Every matcher returns
the assignment as an int64 array indexed by candidate: the firm that hired
the candidate, or ``UNMATCHED``.

Sequential hiring takes its picks from ``take_in_order``, the one pick rule
that the claim game in ``hiring_bandit`` uses too: movers go in turn and
each takes its best remaining columns.  Deferred acceptance, the one
simultaneous matcher, takes proposers strongest first and stops at the
first one no full firm would take, so on a shared row it does serial
dictatorship's work.  Tie-breaks are deterministic everywhere: when scores
are equal, the lowest candidate index wins.
"""

from __future__ import annotations

import heapq

import numpy as np

from .streams import RngStream

UNMATCHED = -1

REGIMES = ("mono", "poly", "ensemble")


def generate_market(n_candidates: int, stream: RngStream) -> np.ndarray:
    """Objective candidate values, i.i.d. standard normal."""
    if n_candidates < 1:
        raise ValueError(f"need at least one candidate, got {n_candidates}")
    return stream.gaussians(n_candidates, 0.0, 1.0)


def score_regime(
    market: np.ndarray,
    n_firms: int,
    noise_sd: float,
    regime: str,
    stream: RngStream,
    poly: np.ndarray | None = None,
) -> np.ndarray:
    """Noisy scores for one regime.

    ``poly`` returns the (n_firms, n_candidates) table; ``mono`` and
    ``ensemble`` return the one (n_candidates,) row every firm shares.
    ``ensemble`` averages the ``poly`` table drawn at the current stream
    state.  Passing that table as ``poly`` averages it without drawing it
    again, and leaves the stream where it is.
    """
    if n_firms < 1:
        raise ValueError(f"need at least one firm, got {n_firms}")
    if noise_sd < 0:
        raise ValueError(f"noise sd must be >= 0, got {noise_sd}")
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    n = len(market)
    if poly is not None and (regime != "ensemble" or poly.shape != (n_firms, n)):
        raise ValueError(f"a poly table of shape {(n_firms, n)} only serves ensemble")
    if regime == "mono":
        return market + stream.gaussians(n, 0.0, noise_sd)
    if poly is None:
        noise = stream.gaussians((n, n_firms), 0.0, noise_sd)  # candidate-major
        poly = (market[:, None] + noise).T
    if regime == "poly":
        return poly
    return poly.mean(axis=0)


def _check_matcher_input(scores, capacity: int) -> np.ndarray:
    """``scores`` as a finite float row or table; rejects a capacity below one."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim not in (1, 2):
        raise ValueError(f"scores must be a row or a table, got shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite (no NaN or infinity)")
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    return scores


def take_in_order(scores: np.ndarray, order, capacity: int = 1) -> np.ndarray:
    """Columns taken in move order when each mover takes its best remaining ones.

    Every mover in ``order`` takes the ``capacity`` best columns of its row
    that no earlier mover took, ties to the lowest index.  ``scores`` is one
    row every mover shares (then the picks are its top ``len(order) *
    capacity``) or a table with one row per mover, read through one copy in
    which every taken column is set to -inf.  Callers check the sizes.
    """
    if scores.ndim == 1:
        return np.argsort(-scores, kind="stable")[: len(order) * capacity]
    remaining = np.array(scores, dtype=float)
    columns = remaining.T  # columns[c] is column c in every row
    picks = []
    for mover in np.asarray(order).tolist():
        row = remaining[mover]
        for _ in range(capacity):
            pick = row.argmax()  # the first (lowest) index on ties
            picks.append(pick)
            columns[pick] = -np.inf
    return np.array(picks, dtype=np.int64)


def sequential_hire(
    scores: np.ndarray,
    firm_order,
    capacity: int = 1,
) -> np.ndarray:
    """Firms move in the given order; each takes its top remaining candidates.

    ``scores`` is a (n_firms, n_candidates) table, or one row of candidate
    scores that every firm shares (the mono and ensemble regimes), in which
    case ``firm_order`` alone fixes the firm count.  With the default
    capacity of one, every firm hires exactly one candidate.  The picks are
    ``take_in_order``'s, so score ties go to the lowest candidate index.
    """
    scores = _check_matcher_input(scores, capacity)
    order = [int(f) for f in firm_order]
    n_firms = len(order) if scores.ndim == 1 else scores.shape[0]
    n_candidates = scores.shape[-1]
    if sorted(order) != list(range(n_firms)):
        raise ValueError("firm_order must be a permutation of all firm indices")
    if n_candidates < n_firms * capacity:
        raise ValueError(
            f"{n_candidates} candidates cannot fill {n_firms} firms "
            f"with capacity {capacity}"
        )
    assignment = np.full(n_candidates, UNMATCHED, dtype=np.int64)
    assignment[take_in_order(scores, order, capacity)] = np.repeat(order, capacity)
    return assignment


def generate_prefs(n_candidates: int, n_firms: int, stream: RngStream) -> np.ndarray:
    """Per-candidate uniform random preference order over firms, best first.

    Drawn as one block, in the same stream order as one permutation per
    candidate in candidate order.
    """
    if n_candidates < 1 or n_firms < 1:
        raise ValueError("need at least one candidate and one firm")
    return stream.permutations(n_candidates, n_firms)


def deferred_acceptance(
    scores: np.ndarray,
    prefs: np.ndarray,
    capacity: int,
) -> np.ndarray:
    """Candidate-proposing deferred acceptance with per-firm capacity.

    Candidates propose down their preference lists; a firm holds its best
    proposers so far, ranked by score with ties to the lowest candidate
    index, and rejects the excess.  The result is the candidate-optimal
    stable matching and does not depend on the proposal processing order
    (Gale & Shapley 1962; McVitie & Wilson 1971; Roth & Sotomayor 1990).
    ``scores`` is a (n_firms, n_candidates) table, or one row of candidate
    scores that every firm shares (the mono and ensemble regimes), in which
    case ``prefs`` alone fixes the firm count.

    Each firm keeps its held candidates in a min-heap keyed on that
    desirability, so the candidate to evict is always at the root.  Fresh
    proposers go strongest first, by descending ``(best score over firms,
    -index)``.  Once every firm is full, the roots only rise and every later
    proposer is weaker, so the first fresh proposer whose key is below every
    root stops the loop: it and all after it stay unmatched.  On a shared
    row this is serial dictatorship: each candidate in score order takes
    their most preferred firm with a free seat.
    """
    scores = _check_matcher_input(scores, capacity)
    prefs = np.asarray(prefs)
    if prefs.ndim != 2:
        raise ValueError(f"preferences must be a matrix, got shape {prefs.shape}")
    n_firms = prefs.shape[1] if scores.ndim == 1 else scores.shape[0]
    n_candidates = scores.shape[-1]
    if n_firms < 1 or prefs.shape != (n_candidates, n_firms):
        raise ValueError(
            f"preference matrix must have shape ({n_candidates}, {n_firms}) "
            f"with at least one firm, got {prefs.shape}"
        )
    if not (np.sort(prefs, axis=1) == np.arange(n_firms)).all():
        raise ValueError("each preference row must be a permutation of all firm indices")

    if scores.ndim == 1:
        score_rows, best = [scores.tolist()] * n_firms, scores
    else:
        score_rows, best = scores.tolist(), scores.max(axis=0)
    order = np.lexsort((np.arange(n_candidates), -best)).tolist()
    best = best.tolist()
    pref_rows = prefs.tolist()
    assignment = [UNMATCHED] * n_candidates
    next_choice = [0] * n_candidates
    # Desirability key: higher score wins, equal scores prefer the lower index.
    held: list[list[tuple[float, int]]] = [[] for _ in range(n_firms)]
    full = 0  # firms holding `capacity` candidates

    for proposer in order:
        if full == n_firms and (best[proposer], -proposer) < min(h[0] for h in held):
            break  # no firm takes this proposer or any weaker one
        c = proposer
        # c proposes until held or out of firms; an evicted candidate
        # takes over as the proposer.
        while next_choice[c] < n_firms:
            f = pref_rows[c][next_choice[c]]
            next_choice[c] += 1
            key = (score_rows[f][c], -c)
            heap = held[f]
            if len(heap) < capacity:
                heapq.heappush(heap, key)
                full += len(heap) == capacity
                assignment[c] = f
                break
            if key > heap[0]:
                assignment[c] = f
                c = -heapq.heapreplace(heap, key)[1]
                assignment[c] = UNMATCHED
    return np.array(assignment, dtype=np.int64)


def normalized_performance(assignment: np.ndarray, market: np.ndarray) -> float:
    """(actual - worst) / (best - worst) over mean objective value of hires.

    Best and worst are the highest- and lowest-value groups of the same size
    as the actually hired set, so 1.0 means the hired set was the best
    possible and 0.0 the worst possible.
    """
    market = np.asarray(market, dtype=float)
    matched = np.asarray(assignment) >= 0
    n = int(np.count_nonzero(matched))
    if n == 0:
        raise ValueError("no candidate was matched; performance is undefined")
    actual = float(market[matched].mean())
    ordered = np.sort(market)
    worst = float(ordered[:n].mean())
    best = float(ordered[-n:].mean())
    if best == worst:
        raise ValueError("degenerate market: best and worst groups coincide")
    return (actual - worst) / (best - worst)
