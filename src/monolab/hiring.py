"""Hiring-market simulation: score tables, sequential hiring, deferred acceptance.

A market is a vector of objective candidate values.  Firms never see the
values directly; they see noisy scores.  ``score_regime`` draws one
firm-by-candidate table of them, with independent noise per (firm,
candidate) cell, and returns it with its per-candidate mean row.  Every
regime reads such a draw:

* ``mono``      - the row of a one-firm table, which every firm shares, so
                  all firms agree on the ranking.
* ``poly``      - the table: each firm reads its own row.
* ``ensemble``  - the table's mean row, which every firm shares: the firms
                  average the polyculture's independent estimates.

``simulate_run`` plays every regime at every firm count over a block of
replicates, each alone from its own stream, which it reads in a fixed order:
the market values, mono's one-firm table, then for each firm count, from
the state after the market, that count's table and poly's firm order or
preference block.  So the regimes and firm counts of a replicate share its
market, and at one firm all three regimes read the same table.  On the row
that mono's or ensemble's firms share, any matcher hires the row's stable
top n_firms x capacity, and ``sequential_hire`` takes that set directly
from a row; ``deferred_acceptance`` takes a table only.  Every matcher
returns the assignment as an int64 array indexed by candidate: the firm
that hired the candidate, or ``UNMATCHED``.

Sequential hiring runs its own pick loop: firms go in turn and each takes
its best remaining candidates.  The claim game in ``hiring_bandit`` plays
the same rule with arms for candidates in its own loop, ``play_round``.
Deferred acceptance, the one simultaneous matcher, takes proposers
strongest first and stops at the first one no full firm would take.
Tie-breaks are deterministic everywhere: when scores are equal, the
lowest candidate index wins.
"""

from __future__ import annotations

import heapq
import sys

import numpy as np

from .streams import RngStream, check_count, check_grid, check_replicate_bytes, is_int

UNMATCHED = -1

REGIMES = ("mono", "poly", "ensemble")


def replicate_bytes(n_candidates: int, n_firms: int, simultaneous: bool) -> int:
    """A bound on the bytes one hiring replicate's arrays take, at n_firms firms.

    Counted in 8-byte words, summed over the arrays ``simulate_run`` makes
    for the largest firm count, though not all of them are alive at once.
    Per (candidate, firm) cell, sequential hiring makes 4: the poly table,
    the noise it is drawn from, the last firm count's table (alive until
    the new one is made) and ``sequential_hire``'s masked copy.  Simultaneous
    hiring makes 15: the same first three, the preference block as tiled,
    as permuted and the last one, and ``deferred_acceptance``'s list copies
    of the table (4: a float and its pointer) and of the preferences (5: a
    pointer and, for a firm index above 256, an int).  Both add 32 per
    candidate: the market, the shared rows, their rankings, and the
    matcher's per-candidate lists and heaps.
    """
    per_cell = 15 if simultaneous else 4
    return 8 * (per_cell * n_firms + 32) * n_candidates


def check_market(n_candidates: int, firm_grid, noise_sd: float, capacity: int,
                 simultaneous: bool) -> None:
    """Reject bad sizes, a negative or NaN noise sd, or a market, at its largest firm
    count, that hires every candidate (normalized performance is then undefined), whose
    scores could overflow a float, or whose replicate needs over ``MAX_REPLICATE_BYTES``."""
    check_count(n_candidates, "candidates")
    check_grid(firm_grid, "firms")
    check_count(capacity, "capacity")
    n_firms = max(firm_grid)
    if not noise_sd >= 0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    seats = n_firms * capacity
    if n_candidates <= seats:
        mode = "simultaneous" if simultaneous else "sequential"
        raise ValueError(f"{mode} mode needs candidates > firms x capacity = "
                         f"{n_firms} x {capacity} = {seats}, got candidates {n_candidates}")
    # numpy's ziggurat normal draws |z| < 13.71 (its tail returns r - ln(u)/r,
    # r = 3.654, u a 53-bit uniform), so a score is below 13.71 x (1 + noise_sd)
    # in size and ensemble's sum over n_firms rows below n_firms times that.
    if (1 + noise_sd) * n_firms > sys.float_info.max / 13.71:
        raise ValueError(f"noise_sd = {noise_sd} is too large: the scores of "
                         f"{n_firms} firms would overflow a float")
    check_replicate_bytes(replicate_bytes(n_candidates, n_firms, simultaneous),
                          f"market too large: {n_candidates} candidates and {n_firms} firms")


def generate_market(n_candidates: int, stream: RngStream) -> np.ndarray:
    """Objective candidate values, i.i.d. standard normal."""
    check_count(n_candidates, "candidates")
    return stream.gaussians(n_candidates, 0.0, 1.0)


def score_regime(market: np.ndarray, n_firms: int, noise_sd: float,
                 stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Noisy scores of ``n_firms`` firms from one draw: the (n_firms,
    n_candidates) table poly reads and its per-candidate mean row, the row
    ensemble's firms share.  At one firm the row is the table's one row,
    mono's shared row.

    The noise is drawn candidate-major and the table is its transpose, a
    view.  The mean is summed on that view: numpy sums a C-ordered copy in
    another order from 8 firms up, which would round some means apart.
    """
    check_count(n_firms, "firms")
    if not noise_sd >= 0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    noise = stream.gaussians((len(market), n_firms), 0.0, noise_sd)  # candidate-major
    table = (market[:, None] + noise).T
    return table, table.mean(axis=0)


def _check_matcher_input(scores, capacity: int) -> np.ndarray:
    """``scores`` as a finite float row or table; rejects a capacity below one."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim not in (1, 2):
        raise ValueError(f"scores must be a row or a table, got shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite (no NaN or infinity)")
    check_count(capacity, "capacity")
    return scores


def sequential_hire(
    scores: np.ndarray,
    firm_order,
    capacity: int = 1,
) -> np.ndarray:
    """Firms move in the given order; each takes its top remaining candidates.

    ``scores`` is a (n_firms, n_candidates) table, or one row of candidate
    scores that every firm shares (the mono and ensemble regimes), in which
    case ``firm_order`` alone fixes the firm count.  With the default
    capacity of one, every firm hires exactly one candidate.  Score ties go
    to the lowest candidate index.  A shared row's firms hire its stable top
    n_firms x capacity, the first ``capacity`` to the first mover and so on.
    A table is read through one copy in which every hired candidate is set
    to -inf, so each firm's ``argmax`` is its best remaining candidate.
    """
    scores = _check_matcher_input(scores, capacity)
    order = np.asarray(firm_order)  # an integer dtype, unless empty: no float or bool
    n_firms = len(order) if scores.ndim == 1 else scores.shape[0]
    n_candidates = scores.shape[-1]
    # numpy reads a bool among a list's integers as 0 or 1, so the entries of
    # an input that is not an array are tested one by one
    if (order.size and not np.issubdtype(order.dtype, np.integer)
            or not isinstance(firm_order, np.ndarray) and not all(map(is_int, firm_order))
            or sorted(order.tolist()) != list(range(n_firms))):
        raise ValueError(f"firm_order must be an integer permutation of the firms, got {order}")
    if n_candidates < n_firms * capacity:
        raise ValueError(
            f"{n_candidates} candidates cannot fill {n_firms} firms "
            f"with capacity {capacity}"
        )
    assignment = np.full(n_candidates, UNMATCHED, dtype=np.int64)
    if scores.ndim == 1:  # the k-th firm to move hires row k of the stable top
        top = np.argsort(-scores, kind="stable")[: n_firms * capacity]
        assignment[top.reshape(n_firms, capacity)] = order[:, None]
        return assignment
    remaining = np.array(scores)
    columns = remaining.T  # columns[c] is candidate c in every row
    for firm in order.tolist():
        row = remaining[firm]  # a view: it sees every hired candidate
        for _ in range(capacity):
            pick = row.argmax()  # the first (lowest) index on ties
            assignment[pick] = firm
            columns[pick] = -np.inf
    return assignment


def generate_prefs(n_candidates: int, n_firms: int, stream: RngStream) -> np.ndarray:
    """Per-candidate uniform random preference order over firms, best first.

    Drawn as one block, in the same stream order as one permutation per
    candidate in candidate order.
    """
    check_count(n_candidates, "candidates")
    check_count(n_firms, "firms")
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
    ``scores`` is a (n_firms, n_candidates) table; a 1-D row is rejected.

    Each firm keeps its held candidates in a min-heap keyed on that
    desirability, so the candidate to evict is always at the root.  Fresh
    proposers go strongest first, by descending ``(best score over firms,
    -index)``.  Once every firm is full, the roots only rise and every later
    proposer is weaker, so the first fresh proposer whose key is below every
    root stops the loop: it and all after it stay unmatched.
    """
    scores = _check_matcher_input(scores, capacity)
    if scores.ndim != 2:
        raise ValueError(f"scores must be a (firms, candidates) table, got {scores.shape}")
    rows = prefs  # kept: numpy reads a bool among a list's integers as 0 or 1
    prefs = np.asarray(prefs)
    if prefs.ndim != 2:
        raise ValueError(f"preferences must be a matrix, got shape {prefs.shape}")
    n_firms, n_candidates = scores.shape
    if n_firms < 1 or prefs.shape != (n_candidates, n_firms):
        raise ValueError(
            f"preference matrix must have shape ({n_candidates}, {n_firms}) "
            f"with at least one firm, got {prefs.shape}"
        )
    if not (np.issubdtype(prefs.dtype, np.integer)
            and (isinstance(rows, np.ndarray) or all(is_int(v) for row in rows for v in row))
            and (np.sort(prefs, axis=1) == np.arange(n_firms)).all()):
        raise ValueError("each preference row must be an integer permutation of all firm indices")

    score_rows, best = scores.tolist(), scores.max(axis=0)
    order = np.argsort(-best, kind="stable").tolist()
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
    # sum / n is np.mean's own arithmetic, without its per-call overhead
    actual = float(market[matched].sum() / n)
    ordered = np.sort(market)
    worst = float(ordered[:n].sum() / n)
    best = float(ordered[-n:].sum() / n)
    if best == worst:
        raise ValueError("degenerate market: best and worst groups coincide")
    return (actual - worst) / (best - worst)


def simulate_run(n_candidates: int, firm_grid, noise_sd: float, capacity: int,
                 simultaneous: bool, streams) -> np.ndarray:
    """Normalized performance of shape ``(len(firm_grid), len(REGIMES), R)``
    over R streams, one per replicate, each read as the module docstring says.

    A market ``check_market`` rejects raises before any draw.
    """
    check_market(n_candidates, firm_grid, noise_sd, capacity, simultaneous)
    streams = list(streams)
    out = np.empty((len(firm_grid), len(REGIMES), len(streams)))
    for r, stream in enumerate(streams):
        market = generate_market(n_candidates, stream)
        after_market = stream.state()
        _, mono = score_regime(market, 1, noise_sd, stream)
        for i, f in enumerate(firm_grid):
            stream.restore(after_market)
            poly, ensemble = score_regime(market, f, noise_sd, stream)
            draw = (generate_prefs(n_candidates, f, stream) if simultaneous
                    else stream.permutation(f))
            for j, scores in enumerate((mono, poly, ensemble)):
                # On the row mono and ensemble firms share, either matcher hires
                # the row's stable top f x capacity, the only set normalized
                # performance reads; sequential_hire takes it without a match.
                if scores.ndim == 1:
                    assignment = sequential_hire(scores, np.arange(f), capacity)
                elif simultaneous:
                    assignment = deferred_acceptance(scores, draw, capacity)
                else:
                    assignment = sequential_hire(scores, draw, capacity)
                out[i, j, r] = normalized_performance(assignment, market)
    return out
