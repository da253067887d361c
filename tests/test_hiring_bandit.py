"""Tests for the many-arm claim game and its impartial-observer metrics."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monolab import experiments, hiring_bandit
from monolab.experiments import HiringBanditConfig
from monolab.hiring_bandit import (
    REGIMES,
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

from oracles import claim_game_reference, pick_in_order_sort_scan


def streams_for(seed, n_reps):
    return [derive_stream(seed, r) for r in range(n_reps)]


def run_for(streams, agent_grid=(4,), n_arms=12, n_rounds=3, n0=5):
    return simulate_run(agent_grid, n_arms, n_rounds, n0, streams)


def no_pulls(games, k):
    """Empty public records: ``heads`` and ``pulls`` of ``games`` games of ``k`` arms."""
    return np.zeros((games, k), dtype=np.int64), np.zeros((games, k), dtype=np.int64)


def stacked(tables, orders):
    """Games given as an ``alpha0`` table and a move order of its rows each,
    largest first: the tables, stacked, and the games' ``movers``, in which
    each agent is its row of the stack and -1 fills a shorter game's row.
    A shared-row game is a one-row table whose movers are all 0."""
    movers = np.full((len(tables), max(map(len, orders))), -1)
    start = 0
    for row, table, order in zip(movers, tables, orders):
        row[: len(order)] = start + np.asarray(order)
        start += len(table)
    return np.concatenate(tables).astype(float), movers


def flat_cells(arms, width):
    """Each claim's flat index into ``(games, width)`` records; an empty
    claim (-1) is the cell before its game's first."""
    arms = np.asarray(arms)
    return width * np.arange(len(arms))[:, None] + arms


def totals(games, total):
    """``total0``: one column of ``total`` prior pulls per arm for ``games`` games."""
    return np.full((games, 1), float(total))


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
        ({"agent_grid": (4, 0)}, r"agents grid entries must be positive integers, got \(4, 0\)"),
        ({"agent_grid": ()}, "agents grid must not be empty"),
        ({"agent_grid": (2, 5), "n_arms": 5}, "need more arms than agents"),
        ({"n_rounds": 0}, "rounds must be >= 1"),
        ({"n0": -1}, "n0 must be >= 0"),
        # 4 + 4 agents x n0 + 3 rounds reaches 2**53: a float prior would round
        ({"n0": 2**51 - 1}, "n0 = 2251799813685247 is too large"),
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


@pytest.mark.parametrize("make", [lambda: {2, 4}, lambda: {2: 1, 4: 1},
                                  lambda: (n for n in (2, 4))],
                         ids=["set", "dict", "generator"])
def test_simulate_run_refuses_an_unordered_or_one_pass_grid(make):
    # a set once failed with a TypeError that named no flag
    streams = streams_for(30, 2)
    before = [stream.state() for stream in streams]
    with pytest.raises(ValueError, match="agents grid must be a sequence of sizes"):
        run_for(streams, agent_grid=make())
    assert [stream.state() for stream in streams] == before


def test_init_beliefs_arm_means_range_and_validation():
    means, _, _ = init_beliefs((1,), 200, 1, 0, streams_for(31, 3))
    assert means.shape == (3, 200)
    assert np.all((means > 0) & (means < 1))
    # row r is stream r's own draw
    assert np.array_equal(means[2], derive_stream(31, 2).betas(200, 2.0, 2.0))
    with pytest.raises(ValueError):
        init_beliefs((1,), 0, 1, 0, streams_for(31, 1))
    # a negative n0 is refused by name, before the stream moves
    streams = streams_for(31, 1)
    before = streams[0].state()
    with pytest.raises(ValueError, match="n0 must be >= 0, got -1"):
        init_beliefs((1,), 2, 1, -1, streams)
    assert streams[0].state() == before


def test_init_beliefs_pairs_regimes_on_one_tensor(monkeypatch):
    reps, k, n0 = 3, 12, 5
    streams = streams_for(32, reps)
    _, alpha0, _ = init_beliefs((4,), k, 1, n0, streams)
    rows = alpha0.reshape(reps, 4 + 1, k)  # per replicate: its agents' rows, then the pool's
    agents, pooled = rows[:, :4], rows[:, 4]
    # float rows: their counts stay below 2**53, so they are exact
    assert agents.shape == (reps, 4, k) and pooled.shape == (reps, k)
    assert agents.dtype == pooled.dtype == np.float64
    # the pooled row counts every agent's samples over one Beta(2, 2)
    assert np.array_equal(pooled, agents.sum(axis=1) - 2 * (4 - 1))

    # simulate_run points each regime's movers and observer at those rows
    seen, play, posterior = {}, hiring_bandit.play_round, hiring_bandit.posterior_means

    def first_round(alpha0, total0, heads, pulls, movers):
        seen.setdefault("round", (alpha0.copy(), total0.copy(), movers.copy()))
        return play(alpha0, total0, heads, pulls, movers)

    def observed(prior, heads, pulls):
        seen["observer"] = prior
        return posterior(prior, heads, pulls)

    monkeypatch.setattr(hiring_bandit, "play_round", first_round)
    monkeypatch.setattr(hiring_bandit, "posterior_means", observed)
    simulate_run((2, 4), k, 3, n0, streams_for(32, reps))
    (alpha0, total0, movers), (observer, observer_total) = seen["round"], seen["observer"]
    # the games run by agent count, largest first, then by regime and replicate
    for p, n in enumerate((4, 2)):
        for r in range(reps):
            # replicate r's tensor is drawn from its stream, after its arm means,
            # and round 0's poly_random order after the tensor
            stream = derive_stream(32, r)
            tensor = stream.binomials(n0, np.broadcast_to(stream.betas(k, 2.0, 2.0), (n, k)))
            order = stream.permutation(n)
            games = [(p * len(REGIMES) + j) * reps + r for j in range(len(REGIMES))]
            mono, poly_fixed, poly_random, ensemble = games
            assert np.all(movers[games, n:] == -1)
            # mono's agents share agent 0's row, ensemble's the pooled row
            assert np.array_equal(alpha0[movers[mono, :n]] - 2, [tensor[0]] * n)
            assert np.array_equal(alpha0[movers[poly_fixed, :n]] - 2, tensor)
            assert np.array_equal(alpha0[movers[poly_random, :n]] - 2, tensor[order])
            assert np.array_equal(alpha0[movers[ensemble, :n]] - 2, [tensor.sum(axis=0)] * n)
            assert total0[games, 0].tolist() == [4 + n0, 4 + n0, 4 + n0, 4 + n * n0]
            # the observer counts mono's one sample set, otherwise the pool
            assert np.array_equal(observer[mono] - 2, tensor[0])
            assert observer_total[mono, 0] == 4 + n0
            for game in (poly_fixed, poly_random, ensemble):
                assert np.array_equal(observer[game] - 2, tensor.sum(axis=0))
                assert observer_total[game, 0] == 4 + n * n0


def test_init_beliefs_zero_samples():
    _, alpha0, _ = init_beliefs((2,), 6, 1, 0, streams_for(33, 2))
    assert alpha0.shape == (2 * (2 + 1), 6) and np.all(alpha0 == 2)


def test_init_beliefs_reads_each_stream_in_the_documented_order():
    counts, k, n0, n_rounds, reps = (3, 1, 2), 5, 4, 5, 2
    means, alpha0, rounds = init_beliefs(counts, k, n_rounds, n0, streams_for(34, reps))
    assert len(rounds) == len(counts)
    first = 0
    for n, (uniforms, orders) in zip(counts, rounds):
        assert uniforms.shape == (2 * reps, n_rounds, n)
        assert orders.shape == (reps, n_rounds, n)
        rows = alpha0[first : first + reps * (n + 1)].reshape(reps, n + 1, k)
        first += reps * (n + 1)
        for r in range(reps):
            # the arm means, then, for each count as from a fresh derive, the
            # sample tensor ...
            stream = derive_stream(34, r)
            assert np.array_equal(means[r], stream.betas(k, 2.0, 2.0))
            tensor = stream.binomials(n0, np.broadcast_to(means[r], (n, k)))
            assert np.array_equal(rows[r], np.vstack((tensor, tensor.sum(axis=0))) + 2)
            after_tensor = stream.state()
            # ... then the shared block, equal to one uniforms(n) per round ...
            assert np.array_equal(uniforms[r], [stream.uniforms(n) for _ in range(n_rounds)])
            # ... and poly_random replays from the same state: order, then uniforms
            stream.restore(after_tensor)
            for t in range(n_rounds):
                assert np.array_equal(orders[r, t], stream.permutation(n))
                assert np.array_equal(uniforms[reps + r, t], stream.uniforms(n))
    assert first == len(alpha0)


def test_play_round_takes_best_then_next_best():
    alpha = np.full(10, 2.0)
    alpha[3] = 50  # clear best arm
    alpha[7] = 20  # clear runner-up
    # one shared-row game, then two per-agent games moving in either order
    alpha0, movers = stacked([alpha[None]] + [np.tile(alpha, (2, 1))] * 2,
                             [[0, 0], [0, 1], [1, 0]])
    arms = play_round(alpha0, totals(3, 60), *no_pulls(3, 10), movers)
    assert arms.tolist() == [[3, 7]] * 3


def test_play_round_breaks_ties_toward_lower_arm():
    # a shared row, then agents 2, 0, 1 moving in that order: arms 0, 1, 2
    alpha0, movers = stacked([np.full((1, 5), 2), np.full((3, 5), 2)], [[0] * 3, [2, 0, 1]])
    arms = play_round(alpha0, totals(2, 4), *no_pulls(2, 5), movers)
    assert arms.tolist() == [[0, 1, 2], [0, 1, 2]]
    # a public record that ties two arms again also resolves to the lower one
    heads = np.array([[0, 3, 3, 0]] * 2)
    pulls = np.array([[0, 3, 3, 0]] * 2)
    alpha0, movers = stacked([np.full((1, 4), 2), np.full((2, 4), 2)], [[0, 0], [1, 0]])
    arms = play_round(alpha0, totals(2, 4), heads, pulls, movers)
    assert arms.tolist() == [[1, 2]] * 2


def test_play_round_claims_distinct_arms():
    gen = np.random.default_rng(5)
    counts, k = [5] * 10 + [3] * 10 + [1] * 5, 9
    tables = [gen.integers(2, 30, size=(n, k)) for n in counts]
    orders = [gen.permutation(n) for n in counts]
    heads = gen.integers(0, 4, size=(len(counts) + 1, k))
    pulls = heads + gen.integers(0, 4, size=(len(counts) + 1, k))
    alpha0, movers = stacked([tables[0][:1]] + tables, [[0] * 5] + orders)
    arms = play_round(alpha0, totals(len(counts) + 1, 60), heads, pulls, movers)
    assert arms.shape == (len(counts) + 1, 5)
    for g, (table, order) in enumerate(zip(tables, orders), start=1):
        n, claims = len(order), arms[g]
        assert len(set(claims[:n].tolist())) == n
        assert np.all(claims[n:] == -1)  # a shorter game claims nothing past its agents
        # claims[i] belongs to order[i]: agents claim in move order
        means = posterior_means((table, 60), heads[g], pulls[g])
        assert best_unclaimed_in_move_order(means, order, claims)
        # each game plays as it would alone
        one_alpha, one_movers = stacked([tables[0][:1], table], [[0] * n, order])
        alone = play_round(one_alpha, totals(2, 60), heads[[0, g]], pulls[[0, g]], one_movers)
        assert np.array_equal(alone[1], claims[:n])
        assert np.array_equal(alone[0], arms[0, :n])


@st.composite
def claim_rounds(draw):
    """1-4 games of 1-5 agents each, largest first, each a poly game or a
    shared-row one, and their public records: small counts, so that
    posterior means tie often."""
    counts = sorted(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)), reverse=True)
    k = draw(st.integers(counts[0] + 1, counts[0] + 4))
    row = st.lists(st.integers(2, 5), min_size=k, max_size=k)
    shared = [draw(st.booleans()) for _ in counts]
    tables = [np.array([draw(row) for _ in range(1 if one else n)])
              for n, one in zip(counts, shared)]
    orders = [[0] * n if one else draw(st.permutations(range(n)))
              for n, one in zip(counts, shared)]
    pulls = np.array([draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
                      for _ in counts])
    heads = np.array([[draw(st.integers(0, p)) for p in row] for row in pulls.tolist()])
    return tables, orders, heads, pulls


@given(claim_rounds())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_play_round_picks_as_the_sort_scan_on_each_games_own_table(game):
    # each mover's row is formed as it moves; a game's claims are still those
    # of a sort-scan on that game's posterior table, or on its one shared row
    tables, orders, heads, pulls = game
    alpha0, movers = stacked(tables, orders)
    # a spare column that is not read
    records = [np.hstack((x, np.full((len(x), 1), 99))) for x in (heads, pulls)]
    arms = play_round(alpha0, totals(len(tables), 6), *records, movers)
    for claims, table, order, game_heads, game_pulls in zip(arms, tables, orders,
                                                          heads, pulls):
        posterior = posterior_means((table, 6), game_heads, game_pulls)
        n = len(order)
        if len(table) < n:  # a shared row, which every mover reads
            posterior, order = posterior[0], list(range(n))
        assert claims[:n].tolist() == pick_in_order_sort_scan(posterior, list(order))
        assert np.all(claims[n:] == -1)


def test_identical_beliefs_claim_same_arm_set_in_any_order():
    gen = np.random.default_rng(6)
    row = gen.integers(2, 40, size=8)
    orders = [np.arange(4)] + [np.random.default_rng(s).permutation(4) for s in range(5)]
    # one shared-row game, then six whose agents hold copies of that row
    alpha0, movers = stacked([row[None]] + [np.tile(row, (4, 1))] * 6, [[0] * 4] + orders)
    arms = play_round(alpha0, totals(7, 80), *no_pulls(7, 8), movers)
    base = arms[0].tolist()
    assert arms[1].tolist() == base  # the fixed order reproduces the shared ranking
    for game in arms[2:]:
        assert set(game.tolist()) == set(base)


def test_observe_and_update_is_public_and_keeps_shared_rows_shared():
    alpha0 = np.full((2, 3, 6), 4)
    prior = (alpha0, 8)
    records = no_pulls(2, 7)  # six arms and the spare column
    heads, pulls = (x[:, :6] for x in records)
    observe_and_update(*records, flat_cells([[2, 5, 0], [1, 3, 4]], 7),
                       np.array([[1, 0, 1], [0, 0, 1]]))
    observe_and_update(*records, flat_cells([[2], [4]], 7), np.array([[1], [1]]))
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
    # an empty claim (-1) lands on a spare column, the previous game's or,
    # for game 0, the last game's, and on no arm
    spare_heads, spare_pulls = no_pulls(2, 7)
    observe_and_update(spare_heads, spare_pulls, flat_cells([[2, -1], [-1, -1]], 7),
                       np.array([[1, 0], [0, 1]]))
    assert spare_heads[:, :6].tolist() == [[0, 0, 1, 0, 0, 0], [0] * 6]
    assert spare_pulls[:, :6].tolist() == [[0, 0, 1, 0, 0, 0], [0] * 6]
    assert spare_pulls[:, 6].tolist() == [1, 1]


def claimed(means, arms):
    """The true means of the claimed arms, read through their flat cells."""
    return means.take(flat_cells(arms, means.shape[1]))


def test_realize_rewards_degenerate_means():
    means = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    draws = derive_stream(34, 0).uniforms((2, 3))
    rewards = realize_rewards(claimed(means, [[0, 1, 2], [1, 2, 0]]), draws)
    assert rewards.tolist() == [[1, 0, 1], [0, 1, 1]]
    # a claim pays when its draw is below the claimed arm's mean
    means = np.array([[0.5, 0.2]])
    rewards = realize_rewards(claimed(means, [[0, 1]]), np.array([[0.4, 0.2]]))
    assert rewards.tolist() == [[1, 0]]
    # an empty claim reads a spare column, the previous game's or, for game
    # 0, the last game's, a mean of 0: it never pays
    means = np.array([[0.5, 0.2, 0.0], [0.9, 0.8, 0.0]])
    rewards = realize_rewards(claimed(means, [[0, -1], [-1, -1]]), np.zeros((2, 2)))
    assert rewards.tolist() == [[1, 0], [0, 0]]


def test_total_bayesian_regret_zero_when_top_arms_always_claimed():
    means = np.array([[0.9, 0.7, 0.3, 0.1]] * 2)
    # two rounds of two agents: the top two arms each round, or arms 0, 2 then 0, 1
    realized = np.array([0.9 + 0.7 + 0.9 + 0.7, 0.9 + 0.3 + 0.9 + 0.7])
    regret = total_bayesian_regret(means, realized, 2, 2)
    assert regret[0] == pytest.approx(0.0)
    assert regret[1] == pytest.approx(0.4)


def test_total_bayesian_regret_adds_in_pull_order(monkeypatch):
    # simulate_run keeps one running total per game, onto which each round's
    # realized means go one at a time in pull order
    logs, play = [], hiring_bandit.play_round

    def logged(*args):
        logs.append(play(*args))
        return logs[-1]

    monkeypatch.setattr(hiring_bandit, "play_round", logged)
    n_agents, n_arms, n_rounds, reps = 4, 40, 10, 3
    means, _, _ = init_beliefs((n_agents,), n_arms, n_rounds, 2, streams_for(1, reps))
    regret, _ = simulate_run((n_agents,), n_arms, n_rounds, 2, streams_for(1, reps))
    assert len(logs) == n_rounds
    arm_log = np.stack(logs, axis=1)  # (games, rounds, agents), regime-major
    pairwise = []
    for g, game_log in enumerate(arm_log):
        row = means[g % reps]
        realized = 0.0
        for arm in game_log.ravel().tolist():
            realized += float(row[arm])
        best = float(np.sort(row)[-n_agents:].sum())
        assert regret[0, g // reps, g % reps] == n_rounds * best - realized
        pairwise.append(realized == float(np.sum(row[game_log])))
    # numpy's pairwise sum rounds differently on some of these logs, so it is
    # no substitute
    assert not all(pairwise)


def test_total_bayesian_regret_best_sum_matches_one_game_at_a_time():
    # the top-n sum of many games at once rounds like the sum of one game's
    # top n, across numpy's pairwise block sizes
    gen = np.random.default_rng(2)
    for n_agents in (1, 7, 8, 9, 16, 130):
        means = gen.random((5, n_agents + 3))
        realized = gen.random(5)
        regret = total_bayesian_regret(means, realized, n_agents, 3)
        for g in range(5):
            best = float(np.sort(means[g])[-n_agents:].sum())
            assert regret[g] == 3 * best - realized[g]


def test_regret_nonnegative_on_random_runs():
    regret, _ = run_for(streams_for(35, 20))
    assert np.all(regret[:, REGIMES.index("poly_random")] >= 0.0)
    # a game that claims the top n arms every round can read a rounding error
    # below zero: the best sum runs in sorted order, the realized one in pull order
    assert np.all(regret >= -1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_regret_nonnegative_at_the_claim_game_workload_config():
    # the known rounding defect: a game that claims the top n arms every round
    # reads about -1.2e-11 here; regret of a real game is never below zero
    regret, _ = simulate_run((5, 10, 20), 50, 100, 5, streams_for(24, 3))
    assert np.all(regret >= 0.0)


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
    # ties among 40 arms, past the 16 numpy sorts by insertion, go to the
    # lowest arms: a flat observer ranks arms 0..4 on top, and one that ties
    # arms 20..39 ranks arms 20..24 (numpy's default sort takes 24..27 and 31)
    means = np.linspace(0.9, 0.1, 40)[None].repeat(3, axis=0)
    means[1], means[2], means[2, 20:25] = means[1, ::-1], 0.1, 0.9
    observed = np.full((3, 40), 0.5)
    observed[2, :20] = 0.4
    assert impartial_observer_misclassification(means, observed, 5).tolist() == [0, 5, 0]


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


def test_each_count_of_an_unsorted_grid_plays_as_it_would_alone():
    # every count plays in one lockstep: the one-agent games move only at the
    # first step of a round, and the five-agent games' claims stop at five
    grid, game = (20, 5, 10, 1), (50, 100, 5)
    regret, mis = simulate_run(grid, *game, streams_for(43, 3))
    for i, n_agents in enumerate(grid):
        alone_regret, alone_mis = simulate_run((n_agents,), *game, streams_for(43, 3))
        assert np.array_equal(regret[i], alone_regret[0]), n_agents
        assert np.array_equal(mis[i], alone_mis[0]), n_agents


def test_simulate_run_deterministic():
    a = run_for(streams_for(37, 4))
    b = run_for(streams_for(37, 4))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = run_for([derive_stream(37, r) for r in range(4, 8)])
    assert not np.array_equal(a[0], c[0])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    agent_grid=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    extra_arms=st.integers(1, 12),
    n_rounds=st.integers(1, 30),
    n0=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    n_reps=st.integers(1, 4),
)
@example(agent_grid=[3, 1, 6], extra_arms=2, n_rounds=8, n0=2, seed=43, n_reps=3)
@example(agent_grid=[4, 2], extra_arms=1, n_rounds=5, n0=0, seed=44, n_reps=2)
@example(agent_grid=[3, 1, 3], extra_arms=2, n_rounds=6, n0=1, seed=45, n_reps=2)
@example(agent_grid=[2, 2], extra_arms=1, n_rounds=4, n0=2, seed=46, n_reps=2)
@example(agent_grid=[1, 1], extra_arms=1, n_rounds=3, n0=1, seed=47, n_reps=2)
def test_simulate_run_matches_reference(agent_grid, extra_arms, n_rounds, n0, seed, n_reps):
    # n0 = 0 starts every agent at Beta(2, 2): round one is all ties, also
    # among the agents of a shared row.  Each agent count of the grid, in any
    # order and repeated or not, plays as the reference does on a fresh stream.
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
    # covers the array headers and Python objects of a small game.  Every
    # count of a grid plays at once, so the bound is the grid's.
    for agent_grid in ((n_agents,), (n_agents, 1), (1, n_agents),
                       (n_agents, n_agents - 1, 1)):
        streams = streams_for(39, n_reps)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate_run(agent_grid, n_arms, n_rounds, 2, streams)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= n_reps * replicate_bytes(agent_grid, n_arms, n_rounds) + 64 * 1024


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
    # 5 MB or so per replicate: the 16 MiB block budget holds three replicates,
    # so the driver plays eight replicates in ranges [0, 2), [2, 5) and [5, 8)
    agents, n_arms, n_rounds = (1, 2), 6000, 2
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
