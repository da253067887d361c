"""Many-arm bandit with hiring externalities: agents claim distinct arms.

n_agents repeatedly choose among n_arms > n_agents arms whose true means
are drawn Beta(2, 2).  Each round the agents move in sequence and take the
unclaimed arm with the highest posterior mean (Beta-Bernoulli beliefs,
ties to the lowest arm index); an arm claimed earlier in the round is gone
for everyone after.  That is sequential hiring's rule with arms for
candidates; ``play_round`` runs its own loop of it on a leading game axis.
The greedy claim rule follows Bayati et al., "Unreasonable effectiveness
of greedy algorithms in multi-armed bandit with many arms" (NeurIPS 2020).
Pull results are public: at the end of each round all agents update on
every pull.  So a belief is a prior row ``alpha0`` with its ``total0``,
plus the one public ``heads``/``pulls`` record of its game, and an agent
is the index of its prior row in one stack.  Under mono every agent of a
game points at agent 0's row, under ensemble at the pooled row, and under
poly each at its own.  The impartial observer is one more prior row and
total per game: it counts every distinct initial sample set once, so it
reads agent 0's row under mono and the pooled row otherwise.

Regimes differ only in the initial n0 samples per arm and the move order:

* ``mono``         - every agent starts from the same sample set (agent 0's)
* ``poly_fixed``   - independent samples per agent, fixed order 0..n-1
* ``poly_random``  - independent samples per agent, order redrawn each round
* ``ensemble``     - every agent starts from the union of all agents' samples

``simulate_run(agent_grid, n_arms, n_rounds, n0, streams)`` plays all four
regimes at every agent count over a block of replicates, one stream per
replicate, and returns ``(regret, misclassification)`` arrays of shape
``(len(agent_grid), len(REGIMES), replicates)``.  Every (agent count,
regime, replicate) triple is one game, all games play one lockstep of
``n_rounds`` rounds, and every stage function works on a leading game
axis; a game with fewer agents than the grid's largest count leaves the
rest of its row of claims empty (-1).  The draws never depend on the play,
so ``init_beliefs`` takes them all before round 0, in one pass over each
replicate's stream, in this order: the arm means, then per agent count,
from the snapshot taken after them, the per-agent initial sample tensor
and one ``(n_rounds, n_agents)`` uniform block for the rewards.  Mono,
poly_fixed and ensemble share that block: each reads one
``uniforms(n_agents)`` per round at the same stream positions, and one
block call returns the same values.  Poly_random restores the snapshot
taken before the block and draws, per round, an order permutation and
then ``uniforms(n_agents)``.  So each agent count reads the stream as a
fresh derive would, and the four regimes of a replicate share its arm
means and sample tensor: cross-regime comparisons at one replicate index
are paired.
"""

from __future__ import annotations

import numpy as np

from .streams import check_count, check_grid, check_replicate_bytes

REGIMES = ("mono", "poly_fixed", "poly_random", "ensemble")


def replicate_bytes(agent_grid, n_arms: int, n_rounds: int) -> int:
    """A bound on one replicate's array bytes in ``simulate_run`` over ``agent_grid``.

    Every agent count's draws and priors are alive at once.  Counted in
    8-byte numbers, for N agents over the grid, m counts and n agents at
    the largest count: 3 per agent and round (the uniform block and
    poly_random's uniforms and orders) and 1 more at the largest count (a
    block as the stream returns it); 2 per agent and arm and 2 more at the
    largest count (the agents' prior rows, and one replicate's sample
    tensor as the stream returns it, with room to spare); 40 per count and
    arm (its pooled prior row and the arm means and public records of its
    four games; each round's float records, totals and two steps'
    posteriors, then the observer's rows and posteriors; and the final
    metrics' sorts and rankings) and 40 per count and agent at the largest
    count (each round's movers, claims, draws, rewards and realized means).
    """
    total, counts, widest = sum(agent_grid), len(agent_grid), max(agent_grid)
    return 8 * ((3 * total + widest) * n_rounds + 2 * (total + widest) * n_arms
                + 40 * counts * n_arms + 40 * counts * widest)


def check_game(agent_grid, n_arms: int, n_rounds: int, n0: int) -> None:
    """Reject bad sizes (n0 may be 0), or a claim game, at its largest agent count, with
    no spare arm, whose pull counts (an arm's reaches 4 + n_agents * n0 + n_rounds, prior
    included) reach 2**53, past which a float prior would round, or whose replicate
    needs over ``MAX_REPLICATE_BYTES``."""
    check_grid(agent_grid, "agents")
    check_count(n_arms, "arms")
    check_count(n_rounds, "rounds")
    check_count(n0, "n0", 0)
    n_agents = max(agent_grid)
    if n_arms <= n_agents:
        raise ValueError(f"need more arms than agents, got {n_arms} arms for {n_agents} agents")
    if 4 + n_agents * n0 + n_rounds >= 2**53:
        raise ValueError(f"n0 = {n0} is too large: 4 + {n_agents} agents x n0 + "
                         f"{n_rounds} rounds must stay below 2**53")
    check_replicate_bytes(replicate_bytes(agent_grid, n_arms, n_rounds), f"game too large: "
                          f"{n_agents} agents, {n_arms} arms and {n_rounds} rounds")


def init_beliefs(counts, n_arms: int, n_rounds: int, n0: int, streams):
    """Every draw of each agent count of ``counts``, in one pass over each stream in
    the module docstring's order; ``(true_means, alpha0, rounds)``.

    ``true_means`` is ``(R, n_arms)``, one row per stream.  ``alpha0`` stacks
    the prior rows, per count in ``counts`` order and per replicate: its
    agents' rows, then its pooled row of all their samples.  A row is 2 plus
    its initial successes per arm, as floats (exact below 2**53), and its
    ``total0`` is 4 + n0, or 4 + n_agents * n0 pooled.  ``rounds`` holds one
    ``(uniforms, orders)`` per count: ``uniforms`` is ``(2R, n_rounds,
    n_agents)``, stream i's shared block in row i and poly_random's uniforms
    in row R + i, and ``orders`` is ``(R, n_rounds, n_agents)``, poly_random's
    permutations.  A game ``check_game`` rejects raises before any draw.
    """
    check_game(counts, n_arms, n_rounds, n0)
    reps = len(streams)
    true_means = np.empty((reps, n_arms))
    alpha0 = np.empty((reps * (sum(counts) + len(counts)), n_arms))
    priors = [rows.reshape(reps, n + 1, n_arms) for rows, n in zip(
        np.split(alpha0, np.cumsum([reps * (n + 1) for n in counts])[:-1]), counts)]
    rounds = [(np.empty((2 * reps, n_rounds, n)), np.empty((reps, n_rounds, n), dtype=np.int64))
              for n in counts]
    for r, stream in enumerate(streams):
        true_means[r] = stream.betas(n_arms, 2.0, 2.0)
        snapshot = stream.state()
        for n, rows, (uniforms, orders) in zip(counts, priors, rounds):
            stream.restore(snapshot)
            rows[r, :n] = stream.binomials(n0, np.broadcast_to(true_means[r], (n, n_arms)))
            rows[r, n] = rows[r, :n].sum(axis=0)
            before = stream.state()
            uniforms[r] = stream.uniforms((n_rounds, n))
            stream.restore(before)
            for order, draws in zip(orders[r], uniforms[reps + r]):
                order[:] = stream.permutation(n)
                draws[:] = stream.uniforms(n)
    alpha0 += 2.0
    return true_means, alpha0, rounds


def posterior_means(prior: tuple, heads: np.ndarray, pulls: np.ndarray) -> np.ndarray:
    """Posterior means of a prior after the public ``heads`` of ``pulls``."""
    alpha0, total0 = prior
    return (alpha0 + heads) / (total0 + pulls)


def play_round(alpha0, total0, heads, pulls, movers) -> np.ndarray:
    """Claimed arms of every game for one round, ``movers``' shape, in move order.

    ``alpha0`` is a stack of prior rows, and ``movers[g, i]`` is the row of
    the agent that moves i-th in game g, or -1 past the game's agent count;
    the claim there is -1 too.  A mono or ensemble game's movers all point
    at one row.  ``total0`` is ``(games, 1)``, each game's agents' prior
    pulls per arm.  The games are sorted by agent count, largest first, so
    the games still moving at step i are a prefix.  Each agent takes the
    unclaimed arm with the highest posterior mean, ties to the lowest arm
    index; its row is formed only when it moves.  Beliefs are read, not
    updated: information propagates only between rounds.  ``heads`` and ``pulls``
    may carry spare columns past the priors' arms; they are not read.
    """
    k = alpha0.shape[-1]
    arms = np.full(movers.shape, -1)
    # each game's heads as floats, with every arm claimed so far set to
    # -inf: a mover's posterior of a claimed arm is then -inf
    unclaimed = heads[:, :k].astype(float)
    totals = total0 + pulls[:, :k]
    cells, starts = unclaimed.reshape(-1), np.arange(0, unclaimed.size, k)
    steps = movers.T.copy()  # steps[i]: every game's i-th mover
    for i, n_games in enumerate((steps >= 0).sum(axis=1).tolist()):
        means = alpha0.take(steps[i, :n_games], axis=0)
        means += unclaimed[:n_games]
        means /= totals[:n_games]
        pick = means.argmax(axis=-1)  # the first (lowest) index on ties
        cells[starts[:n_games] + pick] = -np.inf
        arms[:n_games, i] = pick
    return arms


def realize_rewards(claimed_means: np.ndarray, draws) -> np.ndarray:
    """Bernoulli reward per claim: its uniform draw below the arm's true mean.

    ``claimed_means`` and ``draws`` are ``(games, n_agents)`` in pull order:
    the true mean of each claimed arm and its uniform.
    """
    return (draws < claimed_means).astype(np.int64)


def observe_and_update(heads: np.ndarray, pulls: np.ndarray, cells, rewards) -> None:
    """Public information: the round's pulls enter each game's record in place.

    ``cells`` are the claims' flat indices into the C-ordered ``(games,
    n_arms + 1)`` records: game g's arm a is ``(n_arms + 1) * g + a``, so an
    empty claim (-1) lands on the spare last column of the previous game
    (of the last game for game 0), whose count is not kept.  A game's arms
    in a round are distinct, so fancy-index increments are safe.
    """
    heads.reshape(-1)[cells] += rewards
    pulls.reshape(-1)[cells] += 1


def total_bayesian_regret(true_means: np.ndarray, realized: np.ndarray, n_agents: int,
                          n_rounds: int) -> np.ndarray:
    """Per game, the shortfall of its realized true means against the top n arms.

    ``true_means`` is ``(games, n_arms)`` and ``realized`` is, per game, the
    sum of the true means of its pulls, added one at a time in pull order:
    numpy's pairwise ``sum`` rounds differently and would change the CSV
    bytes.
    """
    best = np.sort(true_means, axis=-1)[:, -n_agents:].sum(axis=-1)
    return n_rounds * best - realized


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
    truly_top = np.zeros(true_means.shape, dtype=bool)
    truly_top[games, np.argsort(-true_means, axis=-1, kind="stable")[:, :n_agents]] = True
    observed = np.argsort(-observer_means, axis=-1, kind="stable")[:, :n_agents]
    return n_agents - truly_top[games, observed].sum(axis=-1)


def simulate_run(agent_grid, n_arms: int, n_rounds: int, n0: int,
                 streams) -> tuple[np.ndarray, np.ndarray]:
    """All four regimes at each agent count over one stream per replicate;
    (regret, misclassification), each of shape ``(len(agent_grid),
    len(REGIMES), R)`` for R streams, in ``REGIMES`` order.

    A game ``check_game`` rejects raises before any draw.  ``init_beliefs``
    takes every draw, for the grid's counts largest first.  Then the 4R
    games of every count play one lockstep on one public record, laid out by
    count, largest first, then by regime and replicate, over its stack of
    every count's prior rows.  The record and the arm means carry one
    spare last column with a mean of 0, on which an empty claim's flat cell
    lands, as ``observe_and_update`` says.
    """
    check_game(agent_grid, n_arms, n_rounds, n0)
    streams = list(streams)
    reps, width, n_counts = len(streams), max(agent_grid), len(agent_grid)
    by_size = sorted(range(n_counts), key=lambda i: -agent_grid[i])
    sizes = [agent_grid[i] for i in by_size]
    true_means, alpha0, rounds = init_beliefs(sizes, n_arms, n_rounds, n0, streams)
    # game g's place: (count by size, regime, replicate)
    games = np.arange(n_counts * len(REGIMES) * reps).reshape(n_counts, len(REGIMES), reps)
    n_games = games.size
    # per game: its agents' total0, and the observer's prior row and total0
    total0, observer_total = np.empty((2, n_games, 1))
    observer = np.empty(n_games, dtype=np.int64)
    movers = np.full((n_games, width), -1)
    first = 0  # each count's first prior row
    for p, (n_agents, (_, orders)) in enumerate(zip(sizes, rounds)):
        agent0 = first + (n_agents + 1) * np.arange(reps)[:, None]  # per replicate
        first += reps * (n_agents + 1)
        pooled, one, pool = agent0 + n_agents, 4.0 + n0, 4.0 + n_agents * n0
        mono, poly_fixed, _, ensemble = games[p]
        movers[mono, :n_agents] = agent0
        movers[poly_fixed, :n_agents] = agent0 + np.arange(n_agents)
        movers[ensemble, :n_agents] = pooled
        orders += agent0[:, :, None]
        total0[games[p]], total0[ensemble] = one, pool
        # the observer counts mono's one sample set, otherwise the pool
        observer[games[p]], observer_total[games[p]] = pooled[:, 0], pool
        observer[mono], observer_total[mono] = agent0[:, 0], one
    game_means = np.zeros((n_games, n_arms + 1))
    game_means[:, :n_arms] = np.tile(true_means, (n_counts * len(REGIMES), 1))
    heads, pulls = np.zeros((2, n_games, n_arms + 1), dtype=np.int64)  # public records
    draws = np.zeros((n_games, width))
    # each game's realized means, summed in pull order: column 0 holds the total
    realized = np.zeros((n_games, width + 1))
    first_cell = (n_arms + 1) * np.arange(n_games)[:, None]  # each game's arm 0
    count_draws = draws.reshape(n_counts, len(REGIMES), reps, width)
    random = REGIMES.index("poly_random")
    random_movers = movers.reshape(count_draws.shape)[:, random]
    for t in range(n_rounds):
        for p, (uniforms, orders) in enumerate(rounds):
            n_agents = orders.shape[-1]
            count_draws[p, :, :, :n_agents] = uniforms[:reps, t]
            count_draws[p, random, :, :n_agents] = uniforms[reps:, t]
            random_movers[p, :, :n_agents] = orders[:, t]
        cells = first_cell + play_round(alpha0, total0, heads, pulls, movers)
        realized[:, 1:] = game_means.take(cells)
        rewards = realize_rewards(realized[:, 1:], draws)
        observe_and_update(heads, pulls, cells, rewards)
        np.cumsum(realized, axis=-1, out=realized)
        realized[:, 0] = realized[:, -1]
    observer_means = posterior_means((alpha0[observer], observer_total),
                                     heads[:, :n_arms], pulls[:, :n_arms])
    regret = np.empty((n_counts, len(REGIMES), reps))
    mis = np.empty(regret.shape, dtype=np.int64)
    for p, i in enumerate(by_size):
        n_agents, own = agent_grid[i], games[p].ravel()
        means = game_means[own, :n_arms]
        regret[i] = total_bayesian_regret(means, realized[own, 0], n_agents,
                                          n_rounds).reshape(len(REGIMES), reps)
        mis[i] = impartial_observer_misclassification(means, observer_means[own],
                                                      n_agents).reshape(len(REGIMES), reps)
    return regret, mis
