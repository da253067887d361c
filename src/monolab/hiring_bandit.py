"""Many-arm bandit with hiring externalities: agents claim distinct arms.

n_agents repeatedly choose among n_arms > n_agents arms whose true means
are drawn Beta(2, 2).  Each round the agents move in sequence and take the
unclaimed arm with the highest posterior mean (Beta-Bernoulli beliefs,
ties to the lowest arm index); an arm claimed earlier in the round is gone
for everyone after.  That is sequential hiring's rule with arms for
candidates, and both take their picks from ``hiring.take_in_order``.  Pull
results are public: at the end of each round all agents update on every
pull.  So a belief is a prior ``(alpha0, total0)`` of initial counts plus
the one public ``heads``/``pulls`` record of its game, and under mono and
ensemble, where the initial counts are shared, all agents hold one
posterior and a round is the top-n arms of one ranking.  The impartial
observer is one more shared prior: it counts every distinct initial sample
set once and reads the same public record, so under mono and ensemble it
is the agents' own prior.

Regimes differ only in the initial n0 samples per arm and the move order:

* ``mono``         - every agent starts from the same sample set (agent 0's)
* ``poly_fixed``   - independent samples per agent, fixed order 0..n-1
* ``poly_random``  - independent samples per agent, order redrawn each round
* ``ensemble``     - every agent starts from the union of all agents' samples

``simulate_run(agent_grid, n_arms, n_rounds, n0, streams)`` plays all four
regimes at every agent count over a block of replicates, one stream per
replicate, and returns ``(regret, misclassification)`` arrays of shape
``(len(agent_grid), len(REGIMES), replicates)``.  At each agent count every
(regime, replicate) pair is one game, the games play in lockstep, and every
stage function works on a leading game axis.  The draws never depend on the
play, so each replicate takes them all before round 0, from its stream in
this order: the arm means, once, then per agent count, from the snapshot
taken after them, the per-agent initial sample tensor and one
``(n_rounds, n_agents)`` uniform block for the rewards.  Mono, poly_fixed
and ensemble share that block: each reads one ``uniforms(n_agents)`` per
round at the same stream positions, and one block call returns the same
values.  Poly_random restores the snapshot taken before the block and
draws, per round, an order permutation and then ``uniforms(n_agents)``.
So each agent count reads the stream as a fresh derive would, and the four
regimes of a replicate share its arm means and sample tensor: cross-regime
comparisons at one replicate index are paired.
"""

from __future__ import annotations

import numpy as np

from .hiring import take_in_order
from .streams import check_count, check_grid, check_replicate_bytes

REGIMES = ("mono", "poly_fixed", "poly_random", "ensemble")

# Games are laid out regime-major in this order: the shared-row games first.
_LAYOUT = ("mono", "ensemble", "poly_fixed", "poly_random")


def replicate_bytes(n_agents: int, n_arms: int, n_rounds: int) -> int:
    """A bound on one replicate's array bytes in ``simulate_run`` at up to n_agents agents.

    Counted in 8-byte numbers over the replicate's four games: 9 per agent
    and arm (the sample tensor, the poly games' priors, and each round
    their summed counts, posterior means and ``take_in_order``'s masked
    copy), 12 per agent and round (the uniform block as drawn and as kept,
    poly_random's uniforms and orders, the arm log and its realized means)
    and 32 per arm (arm means, priors, public records and the rankings'
    temporaries).
    """
    return 8 * (9 * n_agents * n_arms + 12 * n_agents * n_rounds + 32 * n_arms)


def check_game(agent_grid, n_arms: int, n_rounds: int, n0: int) -> None:
    """Reject bad sizes (n0 may be 0), or a claim game, at its largest agent count, with
    no spare arm, whose pull counts (an arm's reaches 4 + n_agents * n0 + n_rounds, prior
    included) overflow int64, or whose replicate needs over ``MAX_REPLICATE_BYTES``."""
    check_grid(agent_grid, "agents")
    check_count(n_arms, "arms")
    check_count(n_rounds, "rounds")
    check_count(n0, "n0", 0)
    n_agents = max(agent_grid)
    if n_arms <= n_agents:
        raise ValueError(f"need more arms than agents, got {n_arms} arms for {n_agents} agents")
    if 4 + n_agents * n0 + n_rounds >= 2**63:
        raise ValueError(f"n0 = {n0} is too large: 4 + {n_agents} agents x n0 + "
                         f"{n_rounds} rounds must stay below 2**63")
    check_replicate_bytes(replicate_bytes(n_agents, n_arms, n_rounds), f"game too large: "
                          f"{n_agents} agents, {n_arms} arms and {n_rounds} rounds")


def draw_arm_means(n_arms: int, streams) -> np.ndarray:
    """True arm means, i.i.d. Beta(2, 2): one ``(n_arms,)`` row per stream."""
    check_count(n_arms, "arms")
    means = np.empty((len(streams), n_arms))
    for row, stream in zip(means, streams):
        row[:] = stream.betas(n_arms, 2.0, 2.0)
    return means


def init_beliefs(true_means: np.ndarray, n_agents: int, n0: int, streams):
    """Draw each replicate's initial sample tensor; return the games' priors.

    A prior is a pair ``(alpha0, total0)``: Beta(2, 2) plus the initial
    samples, as int64 ``alpha0`` (2 plus the initial successes) and
    ``total0`` (4 plus the initial pulls per arm).  ``true_means`` is
    ``(R, n_arms)``, one row per stream; each stream draws its full
    per-agent tensor (one binomial block, agent-major).  Returns three
    priors over the games of ``_LAYOUT``:

    * ``shared``: mono's and ensemble's 2R games, one row each (mono takes
      agent 0's samples, ensemble pools all agents'), ``alpha0`` of shape
      ``(2R, n_arms)`` and ``total0`` of shape ``(2R, 1)``;
    * ``per_agent``: poly_fixed's and poly_random's 2R games, one row per
      agent, ``alpha0`` of shape ``(2R, n_agents, n_arms)`` and the int
      ``total0``;
    * ``observer``: all 4R games, ``(4R, n_arms)`` and ``(4R, 1)``.  It
      counts the distinct sample sets once: mono's one set, otherwise the
      pool, so under mono and ensemble it is the agents' prior.
    """
    n, (reps, k) = n_agents, true_means.shape
    heads = np.empty((reps, n, k), dtype=np.int64)
    for tensor, means, stream in zip(heads, true_means, streams):
        tensor[:] = stream.binomials(n0, np.broadcast_to(means, (n, k)))
    mono, pooled = 2 + heads[:, 0], 2 + heads.sum(axis=1)
    # total0 of each game of _LAYOUT: mono's games count one sample set, the rest the pool
    totals = np.where(np.arange(4 * reps) < reps, 4 + n0, 4 + n * n0)[:, None]
    shared = (np.concatenate((mono, pooled)), totals[: 2 * reps])
    per_agent = (np.tile(2 + heads, (2, 1, 1)), 4 + n0)
    observer = (np.concatenate((mono, pooled, pooled, pooled)), totals)
    return shared, per_agent, observer


def draw_rounds(n_agents: int, n_rounds: int, streams) -> tuple[np.ndarray, np.ndarray]:
    """Every round's draws, taken after the initial tensor; ``(uniforms, orders)``.

    ``uniforms`` is ``(2R, n_rounds, n_agents)``: row i is stream i's one
    block, which mono, poly_fixed and ensemble share, and row R + i is
    poly_random's per-round ``uniforms(n_agents)``, drawn after restoring
    the snapshot taken before the block, each after that round's order
    permutation.  ``orders`` is ``(R, n_rounds, n_agents)``, those
    permutations.
    """
    reps = len(streams)
    uniforms = np.empty((2 * reps, n_rounds, n_agents))
    orders = np.empty((reps, n_rounds, n_agents), dtype=np.int64)
    for i, stream in enumerate(streams):
        before = stream.state()
        uniforms[i] = stream.uniforms((n_rounds, n_agents))
        stream.restore(before)
        for order, draws in zip(orders[i], uniforms[reps + i]):
            order[:] = stream.permutation(n_agents)
            draws[:] = stream.uniforms(n_agents)
    return uniforms, orders


def posterior_means(prior: tuple, heads: np.ndarray, pulls: np.ndarray) -> np.ndarray:
    """Posterior means of a prior after the public ``heads`` of ``pulls``."""
    alpha0, total0 = prior
    # Named, the int64 sum is not reused as the float output buffer: numpy
    # does that for an unnamed temporary, and the in-place cast is slower.
    successes = alpha0 + heads
    return successes / (total0 + pulls)


def play_round(shared: tuple, per_agent: tuple, heads, pulls, order) -> np.ndarray:
    """Claimed arms of every game for one round, ``(games, n_agents)`` in move order.

    The first ``s = len(shared[0])`` games hold one shared posterior row
    each, and their round is the top-n arms of that row, whatever the order.
    The rest hold one row per agent and move in ``order``, one row per game:
    agent ``order[g, i]`` claims ``arms[s + g, i]``.  Each agent takes the
    unclaimed arm with the highest posterior mean; exact ties go to the
    lowest arm index (``hiring.take_in_order``).  Beliefs are read, not
    updated: information propagates only between rounds.
    """
    s, n = len(shared[0]), order.shape[-1]
    rows = posterior_means(shared, heads[:s], pulls[:s])
    tables = posterior_means(per_agent, heads[s:, None], pulls[s:, None])
    return np.concatenate((
        take_in_order(rows, np.broadcast_to(np.arange(n), (s, n))),
        take_in_order(tables, order),
    ))


def realize_rewards(arms: np.ndarray, true_means: np.ndarray, draws) -> np.ndarray:
    """Bernoulli reward per claim: its uniform draw below the arm's true mean.

    ``arms`` and ``draws`` are ``(games, n_agents)`` in pull order and
    ``true_means`` is ``(games, n_arms)``.
    """
    return (draws < np.take_along_axis(true_means, arms, axis=-1)).astype(np.int64)


def observe_and_update(heads: np.ndarray, pulls: np.ndarray, arms, rewards) -> None:
    """Public information: the round's pulls enter each game's record in place.

    The arms of one game's round are distinct, so fancy-index increments
    are safe.
    """
    games = np.arange(len(arms))[:, None]
    heads[games, arms] += rewards
    pulls[games, arms] += 1


def total_bayesian_regret(true_means: np.ndarray, arm_log: np.ndarray) -> np.ndarray:
    """Per game, the shortfall of realized true means against the top n arms.

    ``true_means`` is ``(games, n_arms)`` and ``arm_log`` ``(games,
    n_rounds, n_agents)`` in pull order.  A game's realized means are added
    one at a time in pull order (``cumsum``): numpy's pairwise ``sum``
    rounds differently and would change the CSV bytes.
    """
    n_games, n_rounds, n_agents = arm_log.shape
    best = np.sort(true_means, axis=-1)[:, -n_agents:].sum(axis=-1)
    realized = np.take_along_axis(true_means, arm_log.reshape(n_games, n_rounds * n_agents),
                                  axis=-1)
    actual = np.cumsum(realized, axis=-1, out=realized)[:, -1] if realized.size else 0.0
    return n_rounds * best - actual


def impartial_observer_misclassification(
    true_means: np.ndarray,
    observer_means: np.ndarray,
    n_agents: int,
) -> np.ndarray:
    """Per game, how many of the observer's top-n arms are not truly top-n.

    Both arguments are ``(games, n_arms)``; ``observer_means`` are the
    observer's posterior means: its prior from ``init_beliefs`` after every
    public pull.  Arms rank by them with ties to the lower index.
    """
    games = np.arange(len(true_means))[:, None]
    movers = np.broadcast_to(np.arange(n_agents), (len(true_means), n_agents))
    truly_top = np.zeros(true_means.shape, dtype=bool)
    truly_top[games, take_in_order(true_means, movers)] = True
    observed = take_in_order(observer_means, movers)
    return n_agents - truly_top[games, observed].sum(axis=-1)


def simulate_run(agent_grid, n_arms: int, n_rounds: int, n0: int,
                 streams) -> tuple[np.ndarray, np.ndarray]:
    """All four regimes at each agent count over one stream per replicate;
    (regret, misclassification), each of shape ``(len(agent_grid),
    len(REGIMES), R)`` for R streams, in ``REGIMES`` order.

    A game ``check_game`` rejects raises before any draw.  The streams are
    read as the module docstring says, by ``draw_arm_means`` and then, per
    agent count, ``init_beliefs`` and ``draw_rounds``; then that count's 4R
    games play their rounds in lockstep on one ``(4R, n_arms)`` public record.
    """
    check_game(agent_grid, n_arms, n_rounds, n0)
    streams = list(streams)
    reps = len(streams)
    true_means = draw_arm_means(n_arms, streams)
    after_means = [stream.state() for stream in streams]
    regret, mis = [], []
    game_means = np.tile(true_means, (len(_LAYOUT), 1))
    # each game's row of `uniforms`: the shared block, or poly_random's own
    source = np.tile(np.arange(reps), len(_LAYOUT))
    source[_LAYOUT.index("poly_random") * reps:] += reps
    for n_agents in agent_grid:
        for stream, state in zip(streams, after_means):
            stream.restore(state)
        shared, per_agent, observer = init_beliefs(true_means, n_agents, n0, streams)
        uniforms, orders = draw_rounds(n_agents, n_rounds, streams)
        fixed = np.broadcast_to(np.arange(n_agents), (reps, n_agents))
        heads, pulls = np.zeros((2, len(game_means), n_arms), dtype=np.int64)  # public records
        arm_log = np.empty((len(game_means), n_rounds, n_agents), dtype=np.int64)
        for t in range(n_rounds):
            order = np.concatenate((fixed, orders[:, t]))  # poly_fixed, then poly_random
            arms = play_round(shared, per_agent, heads, pulls, order)
            rewards = realize_rewards(arms, game_means, uniforms[source, t])
            observe_and_update(heads, pulls, arms, rewards)
            arm_log[:, t] = arms
        observer_means = posterior_means(observer, heads, pulls)
        regret.append(total_bayesian_regret(game_means, arm_log))
        mis.append(impartial_observer_misclassification(game_means, observer_means, n_agents))
    shape = (len(agent_grid), len(_LAYOUT), reps)
    by_regime = [_LAYOUT.index(regime) for regime in REGIMES]
    return np.reshape(regret, shape)[:, by_regime], np.reshape(mis, shape)[:, by_regime]
