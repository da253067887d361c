"""Tests for the many-arm claim game and its impartial-observer metrics."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolab import experiments
from monolab.experiments import HiringBanditConfig
from monolab.hiring_bandit import (
    REGIMES,
    draw_arm_means,
    draw_rounds,
    impartial_observer_misclassification,
    init_beliefs,
    observe_and_update,
    play_round,
    posterior_means,
    realize_rewards,
    replicate_bytes,
    simulate_run,
    total_bayesian_regret,
)
from monolab.streams import derive_stream

from oracles import claim_game_reference


def streams_for(seed, n_reps):
    return [derive_stream(seed, r) for r in range(n_reps)]


def run_for(streams, agent_grid=(4,), n_arms=12, n_rounds=3, n0=5):
    return simulate_run(agent_grid, n_arms, n_rounds, n0, streams)


def no_pulls(games, k):
    """Empty public records: ``heads`` and ``pulls`` of ``games`` games of ``k`` arms."""
    return np.zeros((games, k), dtype=np.int64), np.zeros((games, k), dtype=np.int64)


def shared_prior(rows, totals):
    """A prior of one shared row per game: ``alpha0`` rows and their ``total0``."""
    return np.asarray(rows), np.asarray(totals).reshape(len(rows), -1)


def best_unclaimed_in_move_order(means, order, arms):
    """Each agent in move order took its best unclaimed arm (ties low)."""
    means = np.broadcast_to(means, (len(order), means.shape[-1]))
    for i, agent in enumerate(order):
        row = np.where(np.isin(np.arange(means.shape[1]), arms[:i]), -1.0, means[agent])
        if arms[i] != int(np.argmax(row)):
            return False
    return True


def test_simulate_run_rejects_before_any_draw():
    for game, message in [
        # every agent count of the grid is checked before the first plays
        ({"agent_grid": (4, 0)}, "need at least one agent"),
        ({"agent_grid": (2, 5), "n_arms": 5}, "need more arms than agents"),
        ({"n_rounds": 0}, "rounds must be >= 1"),
        ({"n0": -1}, "n0 must be >= 0"),
        # 4 + 4 agents x n0 + 3 rounds reaches 2**63: the counts overflow int64
        ({"n0": 2**61 - 1}, "n0 = 2305843009213693951 is too large"),
        ({"n0": 10**20}, "n0 = 100000000000000000000 is too large"),
        # one replicate's arrays would not fit the bound
        ({"n_arms": 10**11}, "game too large: 4 agents, 100000000000 arms and 3 rounds"),
        ({"n_rounds": 10**10}, "game too large: 4 agents, 12 arms and 10000000000 rounds"),
    ]:
        streams = streams_for(30, 2)
        before = [stream.state() for stream in streams]
        with pytest.raises(ValueError, match=message):
            run_for(streams, **game)
        assert [stream.state() for stream in streams] == before, game


def test_draw_arm_means_range_and_validation():
    means = draw_arm_means(200, streams_for(31, 3))
    assert means.shape == (3, 200)
    assert np.all((means > 0) & (means < 1))
    # row r is stream r's own draw
    assert np.array_equal(means[2], derive_stream(31, 2).betas(200, 2.0, 2.0))
    with pytest.raises(ValueError):
        draw_arm_means(0, streams_for(31, 1))


def test_init_beliefs_pairs_regimes_on_one_tensor():
    reps, n, k, n0 = 3, 4, 12, 5
    streams = streams_for(32, reps)
    means = draw_arm_means(k, streams)
    shared, per_agent, observer = init_beliefs(means, n, n0, streams)
    (shared_alpha, shared_total), (poly_alpha, poly_total) = shared, per_agent
    obs_alpha, obs_total = observer
    assert shared_alpha.shape == (2 * reps, k) and shared_total.shape == (2 * reps, 1)
    assert poly_alpha.shape == (2 * reps, n, k) and isinstance(poly_total, int)
    assert obs_alpha.shape == (4 * reps, k) and obs_total.shape == (4 * reps, 1)
    for prior in (shared, per_agent, observer):
        assert prior[0].dtype == np.int64

    for r in range(reps):
        # replicate r's tensor is drawn from its stream, after its arm means
        stream = derive_stream(32, r)
        stream.betas(k, 2.0, 2.0)
        tensor = stream.binomials(n0, np.broadcast_to(means[r], (n, k)))
        pooled = tensor.sum(axis=0)
        # games run mono, ensemble, poly_fixed, poly_random, each over the replicates
        mono, ensemble, poly_fixed, poly_random = (r + g * reps for g in range(4))
        # mono shares the first independent sample row among all agents
        assert np.array_equal(shared_alpha[mono] - 2, tensor[0])
        assert shared_total[mono, 0] == 4 + n0
        # ensemble pools all rows
        assert np.array_equal(shared_alpha[ensemble] - 2, pooled)
        assert shared_total[ensemble, 0] == 4 + n * n0
        # both poly regimes keep one row per agent, from the same tensor
        assert np.array_equal(poly_alpha[poly_fixed - 2 * reps] - 2, tensor)
        assert np.array_equal(poly_alpha[poly_random - 2 * reps] - 2, tensor)
        assert poly_total == 4 + n0
        # the observer counts mono's one set, otherwise the pool: under mono
        # and ensemble it is the agents' own prior
        assert np.array_equal(obs_alpha[mono], shared_alpha[mono])
        assert np.array_equal(obs_alpha[ensemble], shared_alpha[ensemble])
        for game in (ensemble, poly_fixed, poly_random):
            assert np.array_equal(obs_alpha[game] - 2, pooled)
            assert obs_total[game, 0] == 4 + n * n0
        assert obs_total[mono, 0] == 4 + n0


def test_init_beliefs_zero_samples():
    means = draw_arm_means(6, streams_for(33, 2))
    shared, (alpha, total), observer = init_beliefs(means, 2, 0, streams_for(33, 2))
    assert np.all(alpha == 2) and total == 4
    for prior_alpha, prior_total in (shared, observer):
        assert np.all(prior_alpha == 2) and np.all(prior_total == 4)


def test_draw_rounds_reads_each_stream_in_the_documented_order():
    n, n_rounds, reps = 3, 5, 2
    uniforms, orders = draw_rounds(n, n_rounds, streams_for(34, reps))
    assert uniforms.shape == (2 * reps, n_rounds, n)
    assert orders.shape == (reps, n_rounds, n)
    for r in range(reps):
        # the shared block equals one uniforms(n) per round ...
        stream = derive_stream(34, r)
        assert np.array_equal(uniforms[r], [stream.uniforms(n) for _ in range(n_rounds)])
        # ... and poly_random replays from the same state: order, then uniforms
        stream = derive_stream(34, r)
        for t in range(n_rounds):
            assert np.array_equal(orders[r, t], stream.permutation(n))
            assert np.array_equal(uniforms[reps + r, t], stream.uniforms(n))


def test_play_round_takes_best_then_next_best():
    alpha = np.full(10, 2, dtype=np.int64)
    alpha[3] = 50  # clear best arm
    alpha[7] = 20  # clear runner-up
    total = alpha + 2
    shared = (alpha[None], total[None])
    per_agent = (np.tile(alpha, (2, 2, 1)), np.tile(total, (2, 2, 1)))
    # one shared game, then two per-agent games moving in either order
    arms = play_round(shared, per_agent, *no_pulls(3, 10), np.array([[0, 1], [1, 0]]))
    assert arms.tolist() == [[3, 7]] * 3


def test_play_round_breaks_ties_toward_lower_arm():
    shared = shared_prior(np.full((1, 5), 2), [4])
    per_agent = (np.full((1, 3, 5), 2), 4)
    # agents 2, 0, 1 move in that order and take arms 0, 1, 2
    arms = play_round(shared, per_agent, *no_pulls(2, 5), np.array([[2, 0, 1]]))
    assert arms.tolist() == [[0, 1, 2], [0, 1, 2]]
    # a public record that ties two arms again also resolves to the lower one
    heads = np.array([[0, 3, 3, 0]] * 2)
    pulls = np.array([[0, 3, 3, 0]] * 2)
    shared = shared_prior(np.full((1, 4), 2), [4])
    tied = (np.full((1, 2, 4), 2), 4)
    arms = play_round(shared, tied, heads, pulls, np.array([[1, 0]]))
    assert arms.tolist() == [[1, 2]] * 2


def test_play_round_claims_distinct_arms():
    gen = np.random.default_rng(5)
    games, n, k = 25, 5, 9
    alpha = gen.integers(2, 30, size=(games, n, k)).astype(np.int64)
    beta = gen.integers(2, 30, size=(games, n, k)).astype(np.int64)
    order = np.array([gen.permutation(n) for _ in range(games)])
    heads = gen.integers(0, 4, size=(games + 1, k))
    pulls = heads + gen.integers(0, 4, size=(games + 1, k))
    shared = shared_prior(alpha[:1, 0], [4])
    per_agent = (alpha, alpha + beta)
    arms = play_round(shared, per_agent, heads, pulls, order)
    assert arms.shape == (games + 1, n)
    means = posterior_means(per_agent, heads[1:, None], pulls[1:, None])
    for g in range(games):
        assert len(set(arms[g + 1].tolist())) == n
        # arms[g, i] belongs to order[g, i]: agents claim in move order
        assert best_unclaimed_in_move_order(means[g], order[g], arms[g + 1])
        # each game plays as it would alone
        alone = play_round(shared, (alpha[g:g + 1], (alpha + beta)[g:g + 1]),
                           heads[[0, g + 1]], pulls[[0, g + 1]], order[g:g + 1])
        assert np.array_equal(alone[1], arms[g + 1])
        assert np.array_equal(alone[0], arms[0])


def test_identical_beliefs_claim_same_arm_set_in_any_order():
    gen = np.random.default_rng(6)
    row_alpha = gen.integers(2, 40, size=8).astype(np.int64)
    row_beta = gen.integers(2, 40, size=8).astype(np.int64)
    orders = np.array([np.arange(4)] + [np.random.default_rng(s).permutation(4)
                                        for s in range(5)])
    per_agent = (np.tile(row_alpha, (6, 4, 1)), np.tile(row_alpha + row_beta, (6, 4, 1)))
    shared = (row_alpha[None], (row_alpha + row_beta)[None])
    arms = play_round(shared, per_agent, *no_pulls(7, 8), orders)
    base = arms[0].tolist()
    assert arms[1].tolist() == base  # the fixed order reproduces the shared ranking
    for game in arms[2:]:
        assert set(game.tolist()) == set(base)


def test_observe_and_update_is_public_and_keeps_shared_rows_shared():
    alpha0 = np.full((2, 3, 6), 4)
    prior = (alpha0, 8)
    heads, pulls = no_pulls(2, 6)
    observe_and_update(heads, pulls, np.array([[2, 5, 0], [1, 3, 4]]),
                       np.array([[1, 0, 1], [0, 0, 1]]))
    observe_and_update(heads, pulls, np.array([[2], [4]]), np.array([[1], [1]]))
    # each game's record takes only its own pulls
    assert heads.tolist() == [[1, 0, 2, 0, 0, 0], [0, 0, 0, 0, 2, 0]]
    assert pulls.tolist() == [[1, 0, 2, 0, 0, 1], [0, 1, 0, 1, 2, 0]]
    # every agent's posterior moved: arm 2 is Beta(6, 4), arm 5 Beta(4, 5)
    means = posterior_means(prior, heads[:, None], pulls[:, None])
    assert np.all(means[0, :, 2] == 6 / 10)
    assert np.all(means[0, :, 5] == 4 / 9)
    for game in means:
        for row in game[1:]:
            assert np.array_equal(row, game[0])
    # the initial counts are left alone
    assert np.all(alpha0 == 4) and prior[1] == 8


def test_realize_rewards_degenerate_means():
    means = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    draws = derive_stream(34, 0).uniforms((2, 3))
    rewards = realize_rewards(np.array([[0, 1, 2], [1, 2, 0]]), means, draws)
    assert rewards.tolist() == [[1, 0, 1], [0, 1, 1]]
    # a claim pays when its draw is below the claimed arm's mean
    means = np.array([[0.5, 0.2]])
    rewards = realize_rewards(np.array([[0, 1]]), means, np.array([[0.4, 0.2]]))
    assert rewards.tolist() == [[1, 0]]


def test_total_bayesian_regret_zero_when_top_arms_always_claimed():
    means = np.array([[0.9, 0.7, 0.3, 0.1]] * 2)
    arm_log = np.array([[[0, 1], [0, 1]], [[0, 2], [0, 1]]])
    regret = total_bayesian_regret(means, arm_log)
    assert regret[0] == pytest.approx(0.0)
    assert regret[1] == pytest.approx(0.4)


def test_total_bayesian_regret_adds_in_pull_order():
    gen = np.random.default_rng(1)
    means = gen.random((3, 40))
    arm_log = gen.integers(0, 40, size=(3, 10, 4))
    regret = total_bayesian_regret(means, arm_log)
    for g in range(3):
        realized = 0.0
        for arm in arm_log[g].ravel().tolist():
            realized += float(means[g, arm])
        best = float(np.sort(means[g])[-4:].sum())
        assert regret[g] == 10 * best - realized
    # numpy's pairwise sum rounds differently on this log, so it is no substitute
    assert realized != float(np.sum(means[2][arm_log[2]]))
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 round differently
    means = np.array([[0.1, 0.2, 0.3, 0.0]] * 2)
    regret = total_bayesian_regret(means, np.array([[[0, 1, 2]], [[2, 1, 0]]]))
    assert regret[0] == 0.0 and regret[1] != 0.0


def test_total_bayesian_regret_best_sum_matches_one_game_at_a_time():
    # the top-n sum of many games at once rounds like the sum of one game's
    # top n, across numpy's pairwise block sizes
    gen = np.random.default_rng(2)
    for n_agents in (1, 7, 8, 9, 16, 130):
        means = gen.random((5, n_agents + 3))
        arm_log = np.zeros((5, 1, n_agents), dtype=np.int64)
        regret = total_bayesian_regret(means, arm_log)
        for g in range(5):
            best = float(np.sort(means[g])[-n_agents:].sum())
            assert regret[g] == best - float(np.cumsum(means[g, arm_log[g].ravel()])[-1])


def test_regret_nonnegative_on_random_runs():
    regret, _ = run_for(streams_for(35, 20))
    assert np.all(regret[:, REGIMES.index("poly_random")] >= 0.0)
    # a game that claims the top n arms every round can read a rounding error
    # below zero: the best sum runs in sorted order, the realized one in pull order
    assert np.all(regret >= -1e-12)


def observer_means(heads, total, reward_heads, reward_pulls):
    """Beta(2, 2) plus ``heads`` of ``total`` initial pulls, then the rewards."""
    prior = (2 + np.asarray(heads, dtype=np.int64), 4 + total)
    return posterior_means(prior, reward_heads, reward_pulls)


def test_observer_misclassification_hand_cases():
    means = np.array([[0.9, 0.5, 0.1]] * 4)
    none = np.zeros(3, dtype=np.int64)
    # round rewards enter the posterior: arm 0 redeemed by enough straight wins
    wins, more_wins = np.array([10, 0, 0]), np.array([500, 0, 0])
    observed = np.array([
        observer_means([45, 25, 5], 50, none, none),  # sharp
        observer_means([5, 25, 45], 50, none, none),  # fooled
        observer_means([5, 25, 45], 50, wins, wins),  # still fooled
        observer_means([5, 25, 45], 50, more_wins, more_wins),  # redeemed
    ])
    misclassified = impartial_observer_misclassification(means, observed, 1)
    assert misclassified.tolist() == [0, 1, 1, 0]


def test_observer_full_slate_never_misclassifies():
    means = np.array([[0.8, 0.6, 0.4]])
    none = np.zeros(3, dtype=np.int64)
    observer = observer_means([0, 3, 1], 4, none, none)[None]
    assert impartial_observer_misclassification(means, observer, 3).tolist() == [0]


def test_single_agent_regimes_coincide():
    regret, mis = simulate_run((1,), 20, 10, 5, streams_for(36, 3))
    # one agent: no move order, and mono, poly and ensemble hold the same samples
    for row in range(1, len(REGIMES)):
        assert np.array_equal(regret[0, row], regret[0, 0])
        assert np.array_equal(mis[0, row], mis[0, 0])


def test_simulate_run_deterministic():
    a = run_for(streams_for(37, 4))
    b = run_for(streams_for(37, 4))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = run_for([derive_stream(37, r) for r in range(4, 8)])
    assert not np.array_equal(a[0], c[0])


@settings(max_examples=150, deadline=None)
@given(
    agent_grid=st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True),
    extra_arms=st.integers(1, 12),
    n_rounds=st.integers(1, 30),
    n0=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    n_reps=st.integers(1, 4),
)
def test_simulate_run_matches_reference(agent_grid, extra_arms, n_rounds, n0, seed, n_reps):
    # n0 = 0 starts every agent at Beta(2, 2): round one is all ties.  Each
    # agent count of the grid, in any order, plays as the reference does on
    # a fresh stream.
    game = (max(agent_grid) + extra_arms, n_rounds, n0)
    regret, misclassification = simulate_run(agent_grid, *game, streams_for(seed, n_reps))
    assert regret.shape == misclassification.shape == (len(agent_grid), len(REGIMES), n_reps)
    assert regret.dtype == np.float64 and misclassification.dtype == np.int64
    for i, n_agents in enumerate(agent_grid):
        for j, regime in enumerate(REGIMES):
            for r in range(n_reps):
                expected = claim_game_reference(regime, n_agents, *game, derive_stream(seed, r))
                assert (regret[i, j, r], misclassification[i, j, r]) == expected, (regime, r)


@pytest.mark.parametrize("n_agents, n_arms, n_rounds, n_reps", [
    (8, 40, 60, 4),
    (3, 500, 5, 3),
    (16, 20, 100, 2),
    (2, 3, 400, 5),
])
def test_replicate_bytes_bounds_what_simulate_run_allocates(
    n_agents, n_arms, n_rounds, n_reps
):
    # numpy reports its array buffers to tracemalloc; a fixed 64 KiB per call
    # covers the array headers and Python objects of a small game.  Over a
    # grid, the bound at its largest agent count holds: the arrays of one
    # count are let go as the next count's replace them.
    for agent_grid in ((n_agents,), (n_agents, 1), (1, n_agents)):
        streams = streams_for(39, n_reps)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate_run(agent_grid, n_arms, n_rounds, 2, streams)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= n_reps * replicate_bytes(n_agents, n_arms, n_rounds) + 64 * 1024


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
    regrets = simulate_run((2,), 6, 4, 2, streams_for(38, 50))[0][0, REGIMES.index("mono")]
    assert np.array_equal(values[("mono", 2, "total_bayesian_regret")], regrets)
    assert regret.value == pytest.approx(regrets.mean())
    assert regret.stderr == pytest.approx(regrets.std(ddof=1) / np.sqrt(50))
    with pytest.raises(ValueError):
        HiringBanditConfig(n_runs=0)


def test_replicate_blocks_do_not_change_the_values():
    # 5 MiB or so per replicate: the 16 MiB block budget holds three replicates,
    # so the driver plays eight replicates in ranges [0, 2), [2, 5) and [5, 8)
    agents, n_arms, n_rounds = (1, 2), 13000, 2
    cfg = HiringBanditConfig(n_arms=n_arms, n_rounds=n_rounds, agent_grid=agents, n0=1,
                             n_runs=8, master_seed=40)
    assert experiments._BLOCK_BYTES // cfg.replicate_bytes == 3
    ranges = []

    def simulate(cfg, start, stop):
        ranges.append((start, stop))
        return experiments._hiring_bandit_range(cfg, start, stop)

    whole = experiments._collect(simulate, cfg)
    assert ranges == [(0, 2), (2, 5), (5, 8)]
    for a in agents:
        for regime in REGIMES:
            expected = [claim_game_reference(regime, a, n_arms, n_rounds, 1,
                                             derive_stream(40, r)) for r in range(8)]
            regret, mis = (np.array(column, dtype=float) for column in zip(*expected))
            assert np.array_equal(whole[(regime, a, "total_bayesian_regret")], regret)
            assert np.array_equal(whole[(regime, a, "misclassification")], mis)
