"""Independent reference implementations used only by the tests.

These deliberately use different algorithms from the library (exhaustive
search instead of deferred acceptance, a list scan for each firm's worst
held candidate instead of a heap, serial dictatorship on a shared row
instead of proposals and rejections, a freshly masked row per seat instead of
one score copy with taken columns set to -inf, a stable sort per row and a
scan past the taken columns instead of the first maximum of a masked row,
per-agent belief matrices instead of one public count vector, a per-step
greedy loop over one group at a time instead of one lockstep walk over
every group of every replicate) so agreement is evidence, not tautology.
``lock_in_time`` scans backward and ``lock_in_forward_scan`` forward, so
the two check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from monolab.bandit2 import group_sizes


def firm_prefers(scores, f: int, c_new: int, c_old: int) -> bool:
    """Firm f strictly prefers c_new to c_old (score, then lower index)."""
    return (scores[f, c_new], -c_new) > (scores[f, c_old], -c_old)


def candidate_prefers(prefs, c: int, f_new: int, f_cur: int) -> bool:
    """Candidate c strictly prefers firm f_new to current firm f_cur (-1 = unmatched)."""
    if f_cur == -1:
        return True
    ranks = {int(f): i for i, f in enumerate(prefs[c])}
    return ranks[f_new] < ranks[f_cur]


def is_stable(assignment, scores, prefs, capacity: int) -> bool:
    """No blocking (firm, candidate) pair, scanned directly."""
    n_firms, n_candidates = scores.shape
    load = [0] * n_firms
    for c in range(n_candidates):
        if assignment[c] >= 0:
            load[assignment[c]] += 1
    for f in range(n_firms):
        held = [c for c in range(n_candidates) if assignment[c] == f]
        for c in range(n_candidates):
            if assignment[c] == f:
                continue
            if not candidate_prefers(prefs, c, f, int(assignment[c])):
                continue
            if load[f] < capacity:
                return False
            if any(firm_prefers(scores, f, c, held_c) for held_c in held):
                return False
    return True


def sequential_hire_mask_scan(scores, firm_order, capacity: int = 1):
    """Sequential hiring on a (n_firms, n_candidates) table; the assignment list.

    For every seat the firm's row is masked afresh with an availability
    vector, and the seat goes to the argmax (lowest index on ties).
    """
    n_candidates = scores.shape[1]
    assignment = [-1] * n_candidates
    available = np.ones(n_candidates, dtype=bool)
    for firm in firm_order:
        for _ in range(capacity):
            pick = int(np.argmax(np.where(available, scores[firm], -np.inf)))
            assignment[pick] = int(firm)
            available[pick] = False
    return assignment


def take_in_order_sort_scan(scores, order, capacity: int = 1):
    """Columns taken in move order, as a list; a shared row serves every mover.

    Each mover's row is stably sorted by descending score once, and the
    mover walks it, taking the first ``capacity`` columns not yet claimed.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim == 1:
        scores = np.tile(scores, (max(order) + 1, 1))
    rows = np.argsort(-scores, axis=1, kind="stable").tolist()
    claimed = set()
    picks = []
    for mover in order:
        wanted = capacity
        for col in rows[mover]:
            if wanted and col not in claimed:
                claimed.add(col)
                picks.append(col)
                wanted -= 1
    return picks


def deferred_acceptance_list_scan(scores, prefs, capacity: int):
    """Candidate-proposing deferred acceptance; returns the assignment list.

    Each firm holds a plain list and finds its worst held candidate by a
    linear scan on every full-firm proposal.
    """
    n_firms, n_candidates = scores.shape
    assignment = [-1] * n_candidates
    next_choice = [0] * n_candidates
    held: list[list[int]] = [[] for _ in range(n_firms)]

    def key(f, c):
        return (scores[f, c], -c)

    pending = list(range(n_candidates - 1, -1, -1))
    while pending:
        c = pending.pop()
        if next_choice[c] >= n_firms:
            continue  # exhausted every firm, stays unmatched
        f = int(prefs[c, next_choice[c]])
        next_choice[c] += 1
        if len(held[f]) < capacity:
            held[f].append(c)
            assignment[c] = f
            continue
        worst = min(held[f], key=lambda x: key(f, x))
        if key(f, c) > key(f, worst):
            held[f].remove(worst)
            assignment[worst] = -1
            pending.append(worst)
            held[f].append(c)
            assignment[c] = f
        else:
            pending.append(c)
    return assignment


def serial_dictatorship(shared_scores, prefs, capacity: int):
    """Candidates pick firms in descending shared-score order.

    Each candidate takes their most preferred firm with spare capacity.
    Under a shared ranking (every firm row identical, as in the mono and
    ensemble regimes) this reproduces the deferred acceptance outcome.
    """
    shared_scores = np.asarray(shared_scores, dtype=float)
    n_candidates = len(shared_scores)
    prefs = np.asarray(prefs)
    n_firms = prefs.shape[-1]
    assignment = np.full(n_candidates, -1, dtype=np.int64)
    spare = [capacity] * n_firms
    seats = n_firms * capacity
    pref_rows = prefs.tolist()
    # Descending score; equal scores give the lower index the earlier turn.
    order = np.lexsort((np.arange(n_candidates), -shared_scores))
    for c in order.tolist():
        for f in pref_rows[c]:
            if spare[f]:
                assignment[c] = f
                spare[f] -= 1
                seats -= 1
                break
        if not seats:
            break  # every firm is full; the rest stay unmatched
    return assignment


def brute_force_stable_matchings(scores, prefs, capacity: int = 1):
    """Every stable assignment, found by filtering all feasible assignments."""
    n_firms, n_candidates = scores.shape
    options = list(range(-1, n_firms))
    stable = []
    for assignment in product(options, repeat=n_candidates):
        load = [0] * n_firms
        ok = True
        for f in assignment:
            if f >= 0:
                load[f] += 1
                if load[f] > capacity:
                    ok = False
                    break
        if ok and is_stable(assignment, scores, prefs, capacity):
            stable.append(tuple(assignment))
    return stable


def lock_in_forward_scan(choices) -> int | None:
    """Lock-in time by scanning forward for the last switch (1-indexed)."""
    choices = list(choices)
    if not choices:
        return None
    t = 1
    for i in range(1, len(choices)):
        if choices[i] != choices[i - 1]:
            t = i + 1
    return t


@dataclass(frozen=True)
class BanditTrace:
    """One group's run: chosen arm (1 or 2) and realized reward per step."""

    choices: np.ndarray
    rewards: np.ndarray
    n1: int
    z1: int
    n2: int
    z2: int

    def __len__(self) -> int:
        return len(self.choices)

    def prefix_means(self, h0):
        """Empirical means of both arms after t = 0..T steps (arrays of length T+1).

        ``h0`` is the shared initial history ``(n0, s1, s2)``.
        """
        n0, s1, s2 = h0
        is1 = self.choices == 1
        n1 = np.concatenate(([0], np.cumsum(is1)))
        z1 = np.concatenate(([0], np.cumsum(np.where(is1, self.rewards, 0))))
        n2 = np.concatenate(([0], np.cumsum(~is1)))
        z2 = np.concatenate(([0], np.cumsum(np.where(is1, 0, self.rewards))))
        hat1 = (s1 + z1) / (n0 + n1)
        hat2 = (s2 + z2) / (n0 + n2)
        return hat1, hat2


def _greedy_choice(n0: int, s1: int, z1: int, n1: int, s2: int, z2: int, n2: int) -> int:
    # (s1+z1)/(n0+n1) >= (s2+z2)/(n0+n2), cross-multiplied to stay exact.
    if (s1 + z1) * (n0 + n2) >= (s2 + z2) * (n0 + n1):
        return 1
    return 2


def greedy_step(trace: BanditTrace, h0) -> int:
    """Arm the greedy rule pulls next given the trace so far (ties go to arm 1)."""
    n0, s1, s2 = h0
    return _greedy_choice(n0, s1, trace.z1, trace.n1, s2, trace.z2, trace.n2)


def run_group(env, h0, horizon: int, stream) -> BanditTrace:
    """One greedy group for `horizon` steps, one Python step at a time.

    ``env`` holds the arm means ``(mu1, mu2)`` and ``h0`` the shared initial
    history ``(n0, s1, s2)``.  Consumes the stream in a fixed order: the
    arm-1 reward schedule, then the arm-2 schedule, each ``horizon``
    Bernoulli draws long.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    mu1, mu2 = env
    n0, s1, s2 = h0
    sched1 = (stream.uniforms(horizon) < mu1).astype(np.int64)
    sched2 = (stream.uniforms(horizon) < mu2).astype(np.int64)
    choices = np.empty(horizon, dtype=np.int8)
    rewards = np.empty(horizon, dtype=np.int8)
    n1 = z1 = n2 = z2 = 0
    for t in range(horizon):
        arm = _greedy_choice(n0, s1, z1, n1, s2, z2, n2)
        if arm == 1:
            r = int(sched1[n1])
            n1 += 1
            z1 += r
        else:
            r = int(sched2[n2])
            n2 += 1
            z2 += r
        choices[t] = arm
        rewards[t] = r
    return BanditTrace(choices, rewards, n1, z1, n2, z2)


def run_regime(env, h0, total_agents: int, k_groups: int, stream) -> list[BanditTrace]:
    """k independent greedy groups sharing h0, simulated in group order."""
    return [run_group(env, h0, size, stream) for size in group_sizes(total_agents, k_groups)]


def pooled_failure(h0, traces: list[BanditTrace]) -> bool:
    """True when the pooled record ranks arm 2 strictly above arm 1.

    Pooled means count the shared initial history ``(n0, s1, s2)`` once and
    sum pulls and rewards over all traces.  Exact ties are not failures.
    """
    n0, s1, s2 = h0
    n1 = sum(t.n1 for t in traces)
    z1 = sum(t.z1 for t in traces)
    n2 = sum(t.n2 for t in traces)
    z2 = sum(t.z2 for t in traces)
    return (s2 + z2) * (n0 + n1) > (s1 + z1) * (n0 + n2)


def lock_in_time(trace: BanditTrace) -> int | None:
    """First timestep (1-indexed) from which the chosen arm never changes.

    None for an empty trace.  A constant trace locks in at 1; a trace whose
    last switch lands at step t locks in at t.
    """
    horizon = len(trace.choices)
    if horizon == 0:
        return None
    t = horizon
    while t > 1 and trace.choices[t - 2] == trace.choices[t - 1]:
        t -= 1
    return t


def random_small_instance(stream, max_firms: int = 4, max_candidates: int = 4):
    """A random tiny market: scores, prefs, drawn sizes; capacity 1."""
    n_firms = 1 + int(stream.gen.integers(max_firms))
    n_candidates = 1 + int(stream.gen.integers(max_candidates))
    scores = stream.gaussians((n_firms, n_candidates))
    if stream.uniforms(()) < 0.2:
        # inject exact score ties so the index tie-break is exercised
        scores = np.round(scores)
    prefs = np.vstack([stream.permutation(n_firms) for _ in range(n_candidates)])
    return scores, prefs


def claim_game_reference(regime, n_agents, n_arms, n_rounds, n0, stream):
    """The claim game with per-agent alpha/beta matrices; (regret, misclassification).

    Every agent holds its own ``(n_arms,)`` Beta counts, rewritten for every
    public pull; each agent claims by ``argmax`` over its row with claimed
    arms masked out; logs are ``(agent, arm, reward)`` tuples; regret and
    the observer's reward counts are summed in Python loops.  Consumes the
    stream in the library's documented order.
    """
    n, k = n_agents, n_arms
    true_means = stream.betas(k, 2.0, 2.0)
    heads = stream.binomials(n0, np.broadcast_to(true_means, (n, k)))
    if regime == "mono":
        agent_heads = np.repeat(heads[:1], n, axis=0)
        per_agent_total = n0
        observer_heads, observer_total = heads[0].copy(), n0
    elif regime == "ensemble":
        pooled = heads.sum(axis=0)
        agent_heads = np.tile(pooled, (n, 1))
        per_agent_total = n * n0
        observer_heads, observer_total = pooled, n * n0
    else:
        agent_heads = heads
        per_agent_total = n0
        observer_heads, observer_total = heads.sum(axis=0), n * n0
    alpha = 2 + agent_heads.astype(np.int64)
    beta = 2 + per_agent_total - agent_heads.astype(np.int64)

    logs = []
    for _ in range(n_rounds):
        if regime == "poly_random":
            order = stream.permutation(n)
        else:
            order = np.arange(n)
        means = alpha / (alpha + beta)
        claimed = np.zeros(k, dtype=bool)
        pulls = []
        for agent in order:
            arm = int(np.argmax(np.where(claimed, -1.0, means[agent])))
            claimed[arm] = True
            pulls.append((int(agent), arm))
        draws = stream.uniforms(len(pulls))
        round_log = [
            (agent, arm, int(draws[i] < true_means[arm]))
            for i, (agent, arm) in enumerate(pulls)
        ]
        for _, arm, reward in round_log:
            if reward:
                alpha[:, arm] += 1
            else:
                beta[:, arm] += 1
        logs.append(round_log)

    best = np.sort(true_means)[-n:].sum()
    actual = 0.0
    for round_log in logs:
        for _, arm, _ in round_log:
            actual += float(true_means[arm])
    regret = n_rounds * float(best) - actual

    reward_heads = np.zeros(k, dtype=np.int64)
    reward_total = np.zeros(k, dtype=np.int64)
    for round_log in logs:
        for _, arm, reward in round_log:
            reward_heads[arm] += reward
            reward_total[arm] += 1
    obs_alpha = 2 + observer_heads + reward_heads
    obs_beta = 2 + (observer_total - observer_heads) + (reward_total - reward_heads)

    def top_n(values):
        order = np.lexsort((np.arange(len(values)), -np.asarray(values, dtype=float)))
        return set(int(i) for i in order[:n])

    misclassification = len(top_n(obs_alpha / (obs_alpha + obs_beta)) - top_n(true_means))
    return regret, misclassification
