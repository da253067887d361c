"""Many-arm bandit with hiring externalities: agents claim distinct arms.

n_agents repeatedly choose among n_arms > n_agents arms whose true means
are drawn Beta(2, 2).  Each round the agents move in sequence and take the
unclaimed arm with the highest posterior mean (Beta-Bernoulli beliefs,
ties to the lowest arm index); an arm claimed earlier in the round is gone
for everyone after.  That is sequential hiring's rule with arms for
candidates, and both take their picks from ``hiring.take_in_order``.  Pull
results are public: at the end of each round all agents update on every
pull.  So a belief is the agent's initial counts plus one public count
vector, and under mono and ensemble, where the initial counts are shared,
all agents hold one posterior and a round is the top-n arms of one ranking.
The impartial observer is one more shared belief: it counts every distinct
initial sample set once and reads the same public vectors, so under mono
and ensemble it is the agents' own belief.

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

from dataclasses import dataclass

import numpy as np

from .hiring import take_in_order
from .streams import RngStream

REGIMES = ("mono", "poly_fixed", "poly_random", "ensemble")


def check_game(n_agents: int, n_arms: int, n_rounds: int, n0: int) -> None:
    """Reject a claim game without agents or rounds, with no spare arm, or with n0 < 0."""
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


@dataclass
class BeliefState:
    """Beta-Bernoulli beliefs: initial counts plus the public pull record.

    Every pull is public, so agent i's posterior on arm j is
    Beta(alpha0[i, j] + heads[j], beta0[i, j] + pulls[j] - heads[j]).  The
    initial counts are ``(n_arms,)`` when every agent holds the same ones
    (mono, ensemble) and ``(n_agents, n_arms)`` otherwise (poly).
    """

    alpha0: np.ndarray  # Beta(2, 2) prior plus initial successes, int64
    beta0: np.ndarray  # Beta(2, 2) prior plus initial failures, int64
    heads: np.ndarray  # shape (n_arms,), int64 successes among public pulls
    pulls: np.ndarray  # shape (n_arms,), int64 public pulls

    def posterior_means(self) -> np.ndarray:
        return (self.alpha0 + self.heads) / (self.alpha0 + self.beta0 + self.pulls)


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
) -> tuple[BeliefState, BeliefState]:
    """Draw the per-agent initial sample tensor; return agent and observer beliefs.

    The full independent-per-agent tensor is drawn under every regime (one
    binomial block, agent-major), which keeps identically derived streams
    aligned: mono shares agent 0's row, ensemble shares the pool of all rows
    (both as one ``(n_arms,)`` row of counts), poly keeps one row per agent.
    The observer holds Beta(2, 2) plus the distinct sample sets counted once
    (mono's one set, otherwise the pool) and shares the agents' public
    ``heads`` and ``pulls``; under mono and ensemble it is the agents' belief.
    """
    n, k = n_agents, len(true_means)
    p = np.broadcast_to(np.asarray(true_means, dtype=float), (n, k))
    heads = stream.binomials(n0, p).astype(np.int64, copy=False)
    public = (np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64))

    def counted(sample_heads: np.ndarray, total: int) -> BeliefState:
        """Beta(2, 2) plus ``total`` initial pulls per arm, ``sample_heads`` won."""
        return BeliefState(2 + sample_heads, 2 + total - sample_heads, *public)

    if regime == "mono":
        shared = counted(heads[0], n0)
        return shared, shared
    pooled = counted(heads.sum(axis=0), n * n0)
    if regime == "ensemble":
        return pooled, pooled
    return counted(heads, n0), pooled


def play_round(beliefs: BeliefState, order: np.ndarray) -> np.ndarray:
    """Claimed arms for one round, in move order (``order[i]`` takes ``arms[i]``).

    Each agent takes the unclaimed arm with the highest posterior mean;
    exact ties go to the lowest arm index (``hiring.take_in_order``).
    Beliefs are read, not updated: information propagates only between
    rounds.  Under a shared posterior the round is the top-n arms of one
    ranking, whatever the order.
    """
    return take_in_order(beliefs.posterior_means(), order)


def realize_rewards(arms: np.ndarray, true_means: np.ndarray, stream: RngStream) -> np.ndarray:
    """Bernoulli reward per claim, drawn as one uniform block in pull order."""
    draws = stream.uniforms(len(arms))
    return (draws < true_means[arms]).astype(np.int64)


def observe_and_update(beliefs: BeliefState, arms: np.ndarray, rewards: np.ndarray) -> None:
    """Public information: the round's pulls enter every agent's posterior.

    The arms of one round are distinct, so fancy-index increments are safe.
    """
    beliefs.heads[arms] += rewards
    beliefs.pulls[arms] += 1


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
    observer: BeliefState,
    n_agents: int,
) -> int:
    """How many of the observer's top-n arms are not truly top-n.

    ``observer`` is the shared belief from ``init_beliefs``: the initial
    samples plus every public pull.  It ranks arms by posterior mean with
    ties to the lower index.
    """
    movers = range(n_agents)
    observed = set(take_in_order(observer.posterior_means(), movers).tolist())
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
    beliefs, observer = init_beliefs(true_means, regime, n_agents, n0, stream)
    fixed_order = np.arange(n_agents)
    arm_log = np.empty((n_rounds, n_agents), dtype=np.int64)
    for t in range(n_rounds):
        if regime == "poly_random":
            order = stream.permutation(n_agents)
        else:
            order = fixed_order
        arms = play_round(beliefs, order)
        rewards = realize_rewards(arms, true_means, stream)
        observe_and_update(beliefs, arms, rewards)
        arm_log[t] = arms
    regret = total_bayesian_regret(true_means, arm_log)
    mis = impartial_observer_misclassification(true_means, observer, n_agents)
    return regret, mis
