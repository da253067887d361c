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

``simulate_run`` plays every regime at every firm count over a block of
replicates, each alone from its own stream, which it reads in a fixed order:
the market values, mono's noise, then for each firm count, from the state
after the market, poly's noise in candidate-major order and poly's firm
order or preference block.  So the regimes and firm counts of a replicate
share its market, and ``ensemble``, the exact mean of the ``poly`` table
drawn at that state, averages poly's table instead of drawing it again.
Under mono and ensemble every firm row is the same, so ``score_regime``
returns that one shared row.  On it any matcher hires the row's stable top
n_firms x capacity, and ``sequential_hire`` takes that set directly from a
row; ``deferred_acceptance`` takes a table only.  Every matcher returns the
assignment as an int64 array indexed by candidate: the firm that hired the
candidate, or ``UNMATCHED``.

Sequential hiring takes its picks from ``take_in_order``, the one pick rule
that the claim game in ``hiring_bandit`` uses too: movers go in turn and
each takes its best remaining columns.  Deferred acceptance, the one
simultaneous matcher, takes proposers strongest first and stops at the
first one no full firm would take.  Tie-breaks are deterministic
everywhere: when scores are equal, the lowest candidate index wins.
"""

from __future__ import annotations

import heapq
import sys

import numpy as np

from .streams import RngStream, check_replicate_bytes

UNMATCHED = -1

REGIMES = ("mono", "poly", "ensemble")


def replicate_bytes(n_candidates: int, n_firms: int, simultaneous: bool) -> int:
    """A bound on the bytes one hiring replicate's arrays take, at n_firms firms.

    Counted in 8-byte words, summed over the arrays ``simulate_run`` makes
    for the largest firm count, though not all of them are alive at once.
    Per (candidate, firm) cell, sequential hiring makes 4: the poly table,
    the noise it is drawn from, the last firm count's table (alive until
    the new one is made) and ``take_in_order``'s masked copy.  Simultaneous
    hiring makes 15: the same first three, the preference block as tiled,
    as permuted and the last one, and ``deferred_acceptance``'s list copies
    of the table (4: a float and its pointer) and of the preferences (5: a
    pointer and, for a firm index above 256, an int).  Both add 32 per
    candidate: the market, the shared rows, their rankings, and the
    matcher's per-candidate lists and heaps.
    """
    per_cell = 15 if simultaneous else 4
    return 8 * (per_cell * n_firms + 32) * n_candidates


def check_market(n_candidates: int, n_firms: int, noise_sd: float, capacity: int,
                 simultaneous: bool) -> None:
    """Reject a capacity below 1, a negative or NaN noise sd, or a market, at
    its largest firm count, that hires every candidate (then the best and
    worst groups of the hired size coincide and normalized performance is
    undefined), whose scores could overflow a float, or whose one replicate
    needs more than ``MAX_REPLICATE_BYTES``."""
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if not noise_sd >= 0:
        raise ValueError(f"noise sd must be >= 0, got {noise_sd}")
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

    A leading game axis plays many independent games at once: ``order`` of
    shape ``(games, movers)`` with ``scores`` of shape ``(games, columns)``
    (one shared row per game) or ``(games, rows, columns)`` (one table per
    game), and the result has shape ``(games, movers * capacity)``.  Row
    ``g`` of it equals the call on game ``g`` alone.
    """
    order = np.asarray(order)
    if scores.ndim == order.ndim:  # one shared row (per game)
        ranking = np.argsort(-scores, axis=-1, kind="stable")
        return ranking[..., : order.shape[-1] * capacity]
    remaining = np.array(scores, dtype=float)
    picks = []
    if order.ndim == 1:
        columns = remaining.T  # columns[c] is column c in every row
        for mover in order.tolist():
            row = remaining[mover]  # a view: it sees every taken column
            for _ in range(capacity):
                pick = row.argmax()  # the first (lowest) index on ties
                picks.append(pick)
                columns[pick] = -np.inf
        return np.array(picks, dtype=np.int64)
    games = np.arange(len(order))
    columns = remaining.transpose(2, 0, 1)  # columns[c, g] is column c in game g
    for movers in order.T:
        for _ in range(capacity):
            # a gathered copy, so it is read again after every pick
            pick = remaining[games, movers].argmax(-1)
            picks.append(pick)
            columns[pick, games] = -np.inf
    return np.array(picks, dtype=np.int64).T


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
    prefs = np.asarray(prefs)
    if prefs.ndim != 2:
        raise ValueError(f"preferences must be a matrix, got shape {prefs.shape}")
    n_firms, n_candidates = scores.shape
    if n_firms < 1 or prefs.shape != (n_candidates, n_firms):
        raise ValueError(
            f"preference matrix must have shape ({n_candidates}, {n_firms}) "
            f"with at least one firm, got {prefs.shape}"
        )
    if not (np.sort(prefs, axis=1) == np.arange(n_firms)).all():
        raise ValueError("each preference row must be a permutation of all firm indices")

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
    actual = float(market[matched].mean())
    ordered = np.sort(market)
    worst = float(ordered[:n].mean())
    best = float(ordered[-n:].mean())
    if best == worst:
        raise ValueError("degenerate market: best and worst groups coincide")
    return (actual - worst) / (best - worst)


def simulate_run(n_candidates: int, firm_grid, noise_sd: float, capacity: int,
                 simultaneous: bool, streams) -> np.ndarray:
    """Normalized performance of shape ``(len(firm_grid), len(REGIMES), R)``
    over R streams, one per replicate, each read as the module docstring says.

    A market ``check_market`` rejects at the largest firm count raises
    before any draw.
    """
    check_market(n_candidates, max(firm_grid), noise_sd, capacity, simultaneous)
    streams = list(streams)
    out = np.empty((len(firm_grid), len(REGIMES), len(streams)))
    for r, stream in enumerate(streams):
        market = generate_market(n_candidates, stream)
        after_market = stream.state()
        mono = score_regime(market, 1, noise_sd, "mono", stream)
        for i, f in enumerate(firm_grid):
            stream.restore(after_market)
            poly = score_regime(market, f, noise_sd, "poly", stream)
            draw = (generate_prefs(n_candidates, f, stream) if simultaneous
                    else stream.permutation(f))
            ensemble = score_regime(market, f, noise_sd, "ensemble", stream, poly=poly)
            for j, scores in enumerate((mono, poly, ensemble)):
                # On the row mono and ensemble firms share, either matcher hires
                # the row's stable top f x capacity, the only set normalized
                # performance reads; sequential_hire takes it without a match.
                if scores.ndim == 1:
                    assignment = sequential_hire(scores, range(f), capacity)
                elif simultaneous:
                    assignment = deferred_acceptance(scores, draw, capacity)
                else:
                    assignment = sequential_hire(scores, draw, capacity)
                out[i, j, r] = normalized_performance(assignment, market)
    return out
