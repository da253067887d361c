"""Many-arm bandit with hiring externalities: agents claim distinct arms.

n_agents repeatedly choose among n_arms > n_agents arms whose true means
are drawn Beta(2, 2).  Each round the agents move in sequence and take the
unclaimed arm with the highest posterior mean (Beta-Bernoulli beliefs,
ties to the lowest arm index); an arm claimed earlier in the round is gone
for everyone after.  That is sequential hiring's rule with arms for
candidates, and both take their picks from ``hiring.take_in_order``.  Pull
results are public: at the end of each round all agents update on every
pull.  So a belief is a prior ``(alpha0, total0)`` of initial counts plus
the one public ``heads``/``pulls`` pair of arrays that ``simulate_run``
owns, and under mono and ensemble, where the initial counts are shared,
all agents hold one posterior and a round is the top-n arms of one ranking.
The impartial observer is one more shared prior: it counts every distinct
initial sample set once and reads the same public arrays, so under mono
and ensemble it is the agents' own prior.

Regimes differ only in the initial n0 samples per arm and the move order:

* ``mono``         - every agent starts from the same sample set (agent 0's)
* ``poly_fixed``   - independent samples per agent, fixed order 0..n-1
* ``poly_random``  - independent samples per agent, order redrawn each round
* ``ensemble``     - every agent starts from the union of all agents' samples

All four regimes draw the same arm means and the same per-agent sample
tensor when run from identically derived streams, so cross-regime
comparisons at one replicate index are paired.

``simulate_run(regime, n_agents, n_arms, n_rounds, n0, stream)`` plays one
regime on plain arguments and returns ``(regret, misclassification)``.
"""

from __future__ import annotations

import numpy as np

from .hiring import take_in_order
from .streams import RngStream

REGIMES = ("mono", "poly_fixed", "poly_random", "ensemble")


def check_game(n_agents: int, n_arms: int, n_rounds: int, n0: int) -> None:
    """Reject a claim game without agents or rounds, with no spare arm, with
    n0 < 0, or whose pull counts an int64 cannot hold: an arm's count, prior
    included, reaches 4 + n_agents * n0 + n_rounds."""
    if n_agents < 1:
        raise ValueError(f"need at least one agent, got {n_agents}")
    if n_arms <= n_agents:
        raise ValueError(
            f"need more arms than agents, got {n_arms} arms for {n_agents} agents"
        )
    if n_rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {n_rounds}")
    if n0 < 0:
        raise ValueError(f"n0 must be >= 0, got {n0}")
    if 4 + n_agents * n0 + n_rounds >= 2**63:
        raise ValueError(f"n0 = {n0} is too large: 4 + {n_agents} agents x n0 + "
                         f"{n_rounds} rounds must stay below 2**63")


def draw_arm_means(n_arms: int, stream: RngStream) -> np.ndarray:
    """True arm means, i.i.d. Beta(2, 2)."""
    if n_arms < 1:
        raise ValueError(f"need at least one arm, got {n_arms}")
    return stream.betas(n_arms, 2.0, 2.0)


def init_beliefs(
    true_means: np.ndarray,
    regime: str,
    n_agents: int,
    n0: int,
    stream: RngStream,
) -> tuple[tuple[np.ndarray, int], tuple[np.ndarray, int]]:
    """Draw the per-agent initial sample tensor; return agent and observer priors.

    A prior is a pair ``(alpha0, total0)``: Beta(2, 2) plus the initial
    samples, as int64 ``alpha0`` (2 plus the initial successes) and int
    ``total0`` (4 plus the initial pulls per arm).  The full per-agent
    tensor is drawn under every regime (one binomial block, agent-major),
    which keeps identically derived streams aligned: mono takes agent 0's
    row, ensemble the pool of all rows (both one ``(n_arms,)`` ``alpha0``),
    poly keeps one row per agent (``(n_agents, n_arms)``).  The observer
    counts the distinct sample sets once (mono's one set, otherwise the
    pool); under mono and ensemble it is the agents' prior.
    """
    n, k = n_agents, len(true_means)
    p = np.broadcast_to(np.asarray(true_means, dtype=float), (n, k))
    heads = stream.binomials(n0, p).astype(np.int64, copy=False)
    if regime == "mono":
        shared = (2 + heads[0], 4 + n0)
        return shared, shared
    pooled = (2 + heads.sum(axis=0), 4 + n * n0)
    if regime == "ensemble":
        return pooled, pooled
    return (2 + heads, 4 + n0), pooled


def posterior_means(prior: tuple, heads: np.ndarray, pulls: np.ndarray) -> np.ndarray:
    """Posterior means of a prior after the public ``heads`` of ``pulls``."""
    alpha0, total0 = prior
    return (alpha0 + heads) / (total0 + pulls)


def play_round(prior: tuple, heads: np.ndarray, pulls: np.ndarray, order) -> np.ndarray:
    """Claimed arms for one round, in move order (``order[i]`` takes ``arms[i]``).

    Each agent takes the unclaimed arm with the highest posterior mean;
    exact ties go to the lowest arm index (``hiring.take_in_order``).
    Beliefs are read, not updated: information propagates only between
    rounds.  Under a shared posterior the round is the top-n arms of one
    ranking, whatever the order.
    """
    return take_in_order(posterior_means(prior, heads, pulls), order)


def realize_rewards(arms: np.ndarray, true_means: np.ndarray, stream: RngStream) -> np.ndarray:
    """Bernoulli reward per claim, drawn as one uniform block in pull order."""
    draws = stream.uniforms(len(arms))
    return (draws < true_means[arms]).astype(np.int64)


def observe_and_update(heads: np.ndarray, pulls: np.ndarray, arms, rewards) -> None:
    """Public information: the round's pulls enter the public record in place.

    The arms of one round are distinct, so fancy-index increments are safe.
    """
    heads[arms] += rewards
    pulls[arms] += 1


def total_bayesian_regret(true_means: np.ndarray, arm_log: np.ndarray) -> float:
    """Shortfall of realized true means against always claiming the top n arms.

    ``arm_log`` is ``(n_rounds, n_agents)`` in pull order.  The realized means
    are added one at a time in pull order (``cumsum``): numpy's pairwise
    ``sum`` rounds differently and would change the CSV bytes.
    """
    true_means = np.asarray(true_means, dtype=float)
    n_rounds, n_agents = arm_log.shape
    best = np.sort(true_means)[-n_agents:].sum()
    realized = true_means[arm_log].ravel()
    actual = float(np.cumsum(realized)[-1]) if realized.size else 0.0
    return n_rounds * float(best) - actual


def impartial_observer_misclassification(
    true_means: np.ndarray,
    observer_means: np.ndarray,
    n_agents: int,
) -> int:
    """How many of the observer's top-n arms are not truly top-n.

    ``observer_means`` are the observer's posterior means: its prior from
    ``init_beliefs`` after every public pull.  Arms rank by them with ties
    to the lower index.
    """
    movers = range(n_agents)
    observed = set(take_in_order(np.asarray(observer_means, dtype=float), movers).tolist())
    truth = set(take_in_order(np.asarray(true_means, dtype=float), movers).tolist())
    return len(observed - truth)


def simulate_run(
    regime: str,
    n_agents: int,
    n_arms: int,
    n_rounds: int,
    n0: int,
    stream: RngStream,
) -> tuple[float, int]:
    """One full run of one regime from a fresh stream; (regret, misclassification).

    An unknown regime or a game ``check_game`` rejects raises before any
    draw.  Stream consumption order: arm means, initial sample tensor, then
    per round an order permutation (poly_random only) followed by one
    uniform block for the round's rewards.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    check_game(n_agents, n_arms, n_rounds, n0)
    true_means = draw_arm_means(n_arms, stream)
    prior, observer = init_beliefs(true_means, regime, n_agents, n0, stream)
    heads, pulls = np.zeros((2, n_arms), dtype=np.int64)  # the one public pull record
    fixed_order = np.arange(n_agents)
    arm_log = np.empty((n_rounds, n_agents), dtype=np.int64)
    for t in range(n_rounds):
        if regime == "poly_random":
            order = stream.permutation(n_agents)
        else:
            order = fixed_order
        arms = play_round(prior, heads, pulls, order)
        rewards = realize_rewards(arms, true_means, stream)
        observe_and_update(heads, pulls, arms, rewards)
        arm_log[t] = arms
    regret = total_bayesian_regret(true_means, arm_log)
    observer_means = posterior_means(observer, heads, pulls)
    mis = impartial_observer_misclassification(true_means, observer_means, n_agents)
    return regret, mis
