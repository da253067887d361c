"""Tests for the many-arm claim game and its impartial-observer metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolab import experiments
from monolab.experiments import HiringBanditConfig
from monolab.hiring_bandit import (
    REGIMES,
    BeliefState,
    draw_arm_means,
    impartial_observer_misclassification,
    init_beliefs,
    observe_and_update,
    play_round,
    realize_rewards,
    simulate_run,
    total_bayesian_regret,
)
from monolab.streams import derive_stream

from oracles import claim_game_reference


def run_for(regime, stream, n_agents=4, n_arms=12, n_rounds=3, n0=5):
    return simulate_run(regime, n_agents, n_arms, n_rounds, n0, stream)


def beliefs_from(alpha0, beta0):
    """Beliefs before any public pull."""
    k = np.shape(alpha0)[-1]
    return BeliefState(
        np.asarray(alpha0, dtype=np.int64), np.asarray(beta0, dtype=np.int64),
        np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64),
    )


def best_unclaimed_in_move_order(beliefs, order, arms):
    """Each agent in move order took its best unclaimed arm (ties low)."""
    means = np.broadcast_to(beliefs.posterior_means(), (len(order), len(beliefs.heads)))
    for i, agent in enumerate(order):
        row = np.where(np.isin(np.arange(means.shape[1]), arms[:i]), -1.0, means[agent])
        if arms[i] != int(np.argmax(row)):
            return False
    return True


def test_simulate_run_rejects_before_any_draw():
    for regime, game, message in [
        ("duopoly", {}, "unknown regime 'duopoly'"),
        ("mono", {"n_agents": 0}, "need at least one agent"),
        ("mono", {"n_agents": 5, "n_arms": 5}, "need more arms than agents"),
        ("mono", {"n_rounds": 0}, "rounds must be >= 1"),
        ("mono", {"n0": -1}, "n0 must be >= 0"),
    ]:
        stream = derive_stream(30, 0)
        before = stream.state()
        with pytest.raises(ValueError, match=message):
            run_for(regime, stream, **game)
        assert stream.state() == before, (regime, game)


def test_draw_arm_means_range_and_validation():
    means = draw_arm_means(200, derive_stream(31, 0))
    assert means.shape == (200,)
    assert np.all((means > 0) & (means < 1))
    with pytest.raises(ValueError):
        draw_arm_means(0, derive_stream(31, 0))


def test_init_beliefs_pairs_regimes_on_one_tensor():
    means = draw_arm_means(12, derive_stream(32, 0))
    results = {}
    for regime in ("mono", "poly_fixed", "poly_random", "ensemble"):
        stream = derive_stream(32, 1)  # same key: same tensor under every regime
        results[regime] = init_beliefs(means, regime, 4, 5, stream)

    poly_beliefs, poly_obs = results["poly_fixed"]
    mono_beliefs, mono_obs = results["mono"]
    ens_beliefs, ens_obs = results["ensemble"]

    # mono shares the first independent sample row among all agents
    assert mono_beliefs.alpha0.ndim == 1 and poly_beliefs.alpha0.ndim == 2
    assert poly_beliefs.alpha0.shape == (4, 12)
    assert np.array_equal(mono_beliefs.alpha0, poly_beliefs.alpha0[0])
    assert np.array_equal(mono_obs.alpha0 - 2, poly_beliefs.alpha0[0] - 2)
    assert np.all(mono_obs.alpha0 + mono_obs.beta0 == 4 + 5)

    # ensemble pools all rows; observer sees the same pool as under poly
    pooled = (poly_beliefs.alpha0 - 2).sum(axis=0)
    assert ens_beliefs.alpha0.ndim == 1
    assert np.array_equal(ens_beliefs.alpha0 - 2, pooled)
    assert np.array_equal(ens_obs.alpha0 - 2, pooled)
    assert np.array_equal(poly_obs.alpha0 - 2, pooled)
    assert np.all(ens_obs.alpha0 + ens_obs.beta0 == 4 + 4 * 5)
    assert np.all(poly_obs.alpha0 + poly_obs.beta0 == 4 + 4 * 5)

    # the observer is one shared belief reading the agents' public vectors;
    # under mono and ensemble it is the agents' own belief
    assert mono_obs is mono_beliefs and ens_obs is ens_beliefs
    assert poly_obs.alpha0.ndim == 1
    assert poly_obs.heads is poly_beliefs.heads and poly_obs.pulls is poly_beliefs.pulls

    # Beta(2, 2) prior plus per-agent sample budget
    assert np.all(mono_beliefs.alpha0 + mono_beliefs.beta0 == 4 + 5)
    assert np.all(poly_beliefs.alpha0 + poly_beliefs.beta0 == 4 + 5)
    assert np.all(ens_beliefs.alpha0 + ens_beliefs.beta0 == 4 + 4 * 5)

    # poly_random shares poly_fixed's initial state exactly
    assert np.array_equal(results["poly_random"][0].alpha0, poly_beliefs.alpha0)

    # no public pull yet
    for beliefs, _ in results.values():
        assert beliefs.heads.shape == beliefs.pulls.shape == (12,)
        assert not beliefs.heads.any() and not beliefs.pulls.any()


def test_init_beliefs_zero_samples():
    means = draw_arm_means(6, derive_stream(33, 0))
    beliefs, observer = init_beliefs(means, "poly_fixed", 2, 0, derive_stream(33, 1))
    assert np.all(beliefs.alpha0 == 2) and np.all(beliefs.beta0 == 2)
    assert np.all(observer.alpha0 == 2) and np.all(observer.beta0 == 2)


def test_play_round_takes_best_then_next_best():
    alpha = np.full(10, 2, dtype=np.int64)
    alpha[3] = 50  # clear best arm
    alpha[7] = 20  # clear runner-up
    beta = np.full(10, 2, dtype=np.int64)
    per_agent = beliefs_from(np.tile(alpha, (2, 1)), np.tile(beta, (2, 1)))
    shared = beliefs_from(alpha, beta)
    for beliefs in (per_agent, shared):
        assert play_round(beliefs, np.array([0, 1])).tolist() == [3, 7]
        assert play_round(beliefs, np.array([1, 0])).tolist() == [3, 7]


def test_play_round_breaks_ties_toward_lower_arm():
    per_agent = beliefs_from(np.full((3, 5), 2), np.full((3, 5), 2))
    shared = beliefs_from(np.full(5, 2), np.full(5, 2))
    for beliefs in (per_agent, shared):
        # agents 2, 0, 1 move in that order and take arms 0, 1, 2
        assert play_round(beliefs, np.array([2, 0, 1])).tolist() == [0, 1, 2]
    # a public record that ties two arms again also resolves to the lower one
    tied = beliefs_from(np.full((2, 4), 2), np.full((2, 4), 2))
    tied.heads[:] = [0, 3, 3, 0]
    tied.pulls[:] = [0, 3, 3, 0]
    assert play_round(tied, np.array([1, 0])).tolist() == [1, 2]


def test_play_round_claims_distinct_arms():
    gen = np.random.default_rng(5)
    for _ in range(25):
        alpha = gen.integers(2, 30, size=(5, 9)).astype(np.int64)
        beta = gen.integers(2, 30, size=(5, 9)).astype(np.int64)
        order = gen.permutation(5)
        beliefs = beliefs_from(alpha, beta)
        arms = play_round(beliefs, order)
        assert arms.shape == (5,)
        assert len(set(arms.tolist())) == 5
        # arms[i] belongs to order[i]: agents claim in move order
        assert best_unclaimed_in_move_order(beliefs, order, arms)


def test_identical_beliefs_claim_same_arm_set_in_any_order():
    gen = np.random.default_rng(6)
    row_alpha = gen.integers(2, 40, size=8).astype(np.int64)
    row_beta = gen.integers(2, 40, size=8).astype(np.int64)
    per_agent = beliefs_from(np.tile(row_alpha, (4, 1)), np.tile(row_beta, (4, 1)))
    shared = beliefs_from(row_alpha, row_beta)
    base = play_round(per_agent, np.arange(4)).tolist()
    assert play_round(shared, np.arange(4)).tolist() == base
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(4)
        assert set(play_round(per_agent, order).tolist()) == set(base)
        assert play_round(shared, order).tolist() == base


def test_observe_and_update_is_public_and_keeps_shared_rows_shared():
    beliefs = beliefs_from(np.full((3, 6), 4), np.full((3, 6), 4))
    observe_and_update(beliefs, np.array([2, 5, 0]), np.array([1, 0, 1]))
    observe_and_update(beliefs, np.array([2]), np.array([1]))
    assert beliefs.heads.tolist() == [1, 0, 2, 0, 0, 0]
    assert beliefs.pulls.tolist() == [1, 0, 2, 0, 0, 1]
    # every agent's posterior moved: arm 2 is Beta(6, 4), arm 5 Beta(4, 5)
    means = beliefs.posterior_means()
    assert np.all(means[:, 2] == 6 / 10)
    assert np.all(means[:, 5] == 4 / 9)
    for row in means[1:]:
        assert np.array_equal(row, means[0])
    # the initial counts are left alone
    assert np.all(beliefs.alpha0 == 4) and np.all(beliefs.beta0 == 4)


def test_realize_rewards_degenerate_means():
    means = np.array([1.0, 0.0, 1.0])
    rewards = realize_rewards(np.array([0, 1, 2]), means, derive_stream(34, 0))
    assert rewards.tolist() == [1, 0, 1]
    rewards = realize_rewards(np.array([1, 2, 0]), means, derive_stream(34, 0))
    assert rewards.tolist() == [0, 1, 1]


def test_total_bayesian_regret_zero_when_top_arms_always_claimed():
    means = np.array([0.9, 0.7, 0.3, 0.1])
    arm_log = np.array([[0, 1], [0, 1]])
    assert total_bayesian_regret(means, arm_log) == pytest.approx(0.0)
    worse = np.array([[0, 2], [0, 1]])
    assert total_bayesian_regret(means, worse) == pytest.approx(0.4)


def test_total_bayesian_regret_adds_in_pull_order():
    gen = np.random.default_rng(1)
    means = gen.random(40)
    arm_log = gen.integers(0, 40, size=(10, 4))
    realized = 0.0
    for arm in arm_log.ravel().tolist():
        realized += float(means[arm])
    # numpy's pairwise sum rounds differently on this log, so it is no substitute
    assert realized != float(np.sum(means[arm_log]))
    best = float(np.sort(means)[-4:].sum())
    assert total_bayesian_regret(means, arm_log) == 10 * best - realized
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 round differently
    means = np.array([0.1, 0.2, 0.3, 0.0])
    assert total_bayesian_regret(means, np.array([[0, 1, 2]])) == 0.0
    assert total_bayesian_regret(means, np.array([[2, 1, 0]])) != 0.0


def test_regret_nonnegative_on_random_runs():
    for r in range(20):
        regret, _ = run_for("poly_random", derive_stream(35, r))
        assert regret >= 0.0


def observer_from(heads, total, reward_heads, reward_pulls):
    """Beta(2, 2) plus ``heads`` of ``total`` initial pulls, then the rewards."""
    heads = np.asarray(heads, dtype=np.int64)
    return BeliefState(2 + heads, 2 + total - heads, reward_heads, reward_pulls)


def test_observer_misclassification_hand_cases():
    means = np.array([0.9, 0.5, 0.1])
    none = np.zeros(3, dtype=np.int64)
    sharp = observer_from([45, 25, 5], 50, none, none)
    assert impartial_observer_misclassification(means, sharp, 1) == 0
    fooled = observer_from([5, 25, 45], 50, none, none)
    assert impartial_observer_misclassification(means, fooled, 1) == 1
    # round rewards enter the posterior: arm 0 redeemed by ten straight wins
    wins = np.array([10, 0, 0])
    fooled = observer_from([5, 25, 45], 50, wins, wins)
    assert impartial_observer_misclassification(means, fooled, 1) == 1
    wins = np.array([500, 0, 0])
    fooled = observer_from([5, 25, 45], 50, wins, wins)
    assert impartial_observer_misclassification(means, fooled, 1) == 0


def test_observer_full_slate_never_misclassifies():
    means = np.array([0.8, 0.6, 0.4])
    none = np.zeros(3, dtype=np.int64)
    observer = observer_from([0, 3, 1], 4, none, none)
    assert impartial_observer_misclassification(means, observer, 3) == 0


def test_single_agent_regimes_coincide():
    results = {}
    for regime in ("mono", "poly_fixed", "ensemble"):
        results[regime] = simulate_run(regime, 1, 20, 10, 5, derive_stream(36, 0))
    assert results["mono"] == results["poly_fixed"] == results["ensemble"]


def test_simulate_run_deterministic():
    a = run_for("poly_random", derive_stream(37, 4))
    b = run_for("poly_random", derive_stream(37, 4))
    assert a == b
    c = run_for("poly_random", derive_stream(37, 5))
    assert a != c


@settings(max_examples=150, deadline=None)
@given(
    regime=st.sampled_from(REGIMES),
    n_agents=st.integers(1, 8),
    extra_arms=st.integers(1, 12),
    n_rounds=st.integers(1, 30),
    n0=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulate_run_matches_reference(regime, n_agents, extra_arms, n_rounds, n0, seed):
    # n0 = 0 starts every agent at Beta(2, 2): round one is all ties.
    game = (regime, n_agents, n_agents + extra_arms, n_rounds, n0)
    regret, misclassification = simulate_run(*game, derive_stream(seed, 0))
    assert (regret, misclassification) == claim_game_reference(*game, derive_stream(seed, 0))
    assert isinstance(regret, float) and isinstance(misclassification, int)


def test_run_experiment_aggregates():
    cfg = HiringBanditConfig(
        n_arms=6, n_rounds=4, agent_grid=(2,), n0=2, n_runs=50, master_seed=38
    )
    rows, again_rows = experiments.run(cfg), experiments.run(cfg)
    values = experiments._collect(experiments._hiring_bandit_range, cfg)
    again_values = experiments._collect(experiments._hiring_bandit_range, cfg)
    assert rows == again_rows
    assert values.keys() == again_values.keys()
    assert all(np.array_equal(values[key], again_values[key]) for key in values)
    by = {(r.regime, r.metric): r for r in rows}
    regret = by[("mono", "total_bayesian_regret")]
    assert regret.n_runs == 50
    regrets = np.array(
        [simulate_run("mono", 2, 6, 4, 2, derive_stream(38, r))[0] for r in range(50)]
    )
    assert np.array_equal(values[("mono", 2, "total_bayesian_regret")], regrets)
    assert regret.value == pytest.approx(regrets.mean())
    assert regret.stderr == pytest.approx(regrets.std(ddof=1) / np.sqrt(50))
    with pytest.raises(ValueError):
        HiringBanditConfig(n_runs=0)
