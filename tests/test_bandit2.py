"""Tests for the greedy two-arm bandit, its scalar oracle and the failure sweep."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from monolab import experiments
from monolab.bandit2 import (
    draw_environment,
    draw_initial_history,
    group_sizes,
    simulate_failures,
)
from monolab.experiments import Bandit2Config
from monolab.streams import derive_stream

from oracles import (
    BanditTrace,
    greedy_step,
    lock_in_forward_scan,
    lock_in_time,
    pooled_failure,
    run_group,
    run_regime,
)


def make_trace(choices, rewards):
    choices = np.asarray(choices, dtype=np.int8)
    rewards = np.asarray(rewards, dtype=np.int8)
    is1 = choices == 1
    return BanditTrace(
        choices,
        rewards,
        int(is1.sum()),
        int(rewards[is1].sum()),
        int((~is1).sum()),
        int(rewards[~is1].sum()),
    )


def test_draw_environment_orders_arms():
    for r in range(200):
        mu1, mu2 = draw_environment(derive_stream(11, r))
        assert 0.0 <= mu2 < mu1 <= 1.0
    assert draw_environment(derive_stream(11, 7)) == draw_environment(derive_stream(11, 7))


def test_better_arm_mean_matches_quadrature():
    # E[max of two Beta(2,2)] = int x * 2 f(x) F(x) dx, checked two ways
    pdf = lambda x: 6.0 * x * (1.0 - x)
    cdf = lambda x: 3.0 * x**2 - 2.0 * x**3
    target, quad_err = integrate.quad(lambda x: x * 2.0 * pdf(x) * cdf(x), 0.0, 1.0)
    assert quad_err < 1e-10
    assert abs(target - 22.0 / 35.0) < 1e-12
    mus = np.array([draw_environment(derive_stream(12, r))[0] for r in range(20000)])
    se = mus.std(ddof=1) / np.sqrt(len(mus))
    assert abs(mus.mean() - target) < 3 * se


def test_draw_initial_history_bounds_and_degenerate():
    for r in range(20):
        assert draw_initial_history(1.0, 0.0, 4, derive_stream(13, r)) == (4, 0)
    with pytest.raises(ValueError):
        draw_initial_history(1.0, 0.0, 0, derive_stream(13, 0))


def test_draw_initial_history_binomial_mean():
    s1 = np.array(
        [draw_initial_history(0.7, 0.2, 10, derive_stream(14, r))[0] for r in range(5000)]
    )
    se = np.sqrt(10 * 0.7 * 0.3 / len(s1))
    assert abs(s1.mean() - 7.0) < 3 * se


def test_greedy_step_rigged_counts():
    h0 = (2, 1, 1)
    # arm 2 ahead: 1/3 vs 2/3
    assert greedy_step(make_trace([1, 2], [0, 1]), h0) == 2
    # arm 1 ahead: 2/3 vs 1/3
    assert greedy_step(make_trace([1, 2], [1, 0]), h0) == 1


def test_greedy_step_exact_tie_goes_to_arm_one():
    h0 = (2, 1, 1)
    assert greedy_step(make_trace([1, 2], [1, 1]), h0) == 1  # 2/3 == 2/3
    assert greedy_step(make_trace([], []), h0) == 1  # 1/2 == 1/2


def test_run_group_counts_match_trace():
    for r in range(30):
        stream = derive_stream(15, r)
        env = draw_environment(stream)
        h0 = (3, *draw_initial_history(*env, 3, stream))
        trace = run_group(env, h0, 50, stream)
        is1 = trace.choices == 1
        assert trace.n1 == is1.sum()
        assert trace.n2 == (~is1).sum()
        assert trace.z1 == trace.rewards[is1].sum()
        assert trace.z2 == trace.rewards[~is1].sum()
        assert len(trace) == 50


def test_run_group_replays_greedy_rule():
    # each choice must equal the greedy decision given the prefix before it
    for r in range(20):
        stream = derive_stream(16, r)
        env = draw_environment(stream)
        h0 = (2, *draw_initial_history(*env, 2, stream))
        trace = run_group(env, h0, 40, stream)
        for t in range(40):
            prefix = make_trace(trace.choices[:t], trace.rewards[:t])
            assert greedy_step(prefix, h0) == trace.choices[t]


def test_run_group_reads_reward_schedules_in_order():
    stream = derive_stream(17, 0)
    env = draw_environment(stream)
    h0 = (3, *draw_initial_history(*env, 3, stream))
    trace = run_group(env, h0, 60, stream)
    replay = derive_stream(17, 0)
    draw_environment(replay)
    draw_initial_history(*env, 3, replay)
    mu1, mu2 = env
    sched1 = (replay.uniforms(60) < mu1).astype(np.int64)
    sched2 = (replay.uniforms(60) < mu2).astype(np.int64)
    k1 = k2 = 0
    for arm, reward in zip(trace.choices, trace.rewards):
        if arm == 1:
            assert reward == sched1[k1]
            k1 += 1
        else:
            assert reward == sched2[k2]
            k2 += 1


def test_run_group_degenerate_env_locks_instantly():
    env = (1.0, 0.0)
    h0 = (1, 1, 0)
    trace = run_group(env, h0, 25, derive_stream(18, 0))
    assert np.all(trace.choices == 1)
    assert np.all(trace.rewards == 1)
    assert lock_in_time(trace) == 1


def test_run_group_validation():
    env = (0.6, 0.4)
    h0 = (1, 1, 0)
    with pytest.raises(ValueError):
        run_group(env, h0, -1, derive_stream(19, 0))


def test_prefix_means_match_direct_recount():
    stream = derive_stream(21, 0)
    env = draw_environment(stream)
    h0 = (4, *draw_initial_history(*env, 4, stream))
    trace = run_group(env, h0, 30, stream)
    hat1, hat2 = trace.prefix_means(h0)
    n0, s1, s2 = h0
    assert len(hat1) == 31 and len(hat2) == 31
    assert hat1[0] == s1 / n0
    assert hat2[0] == s2 / n0
    for t in range(31):
        prefix = make_trace(trace.choices[:t], trace.rewards[:t])
        assert hat1[t] == (s1 + prefix.z1) / (n0 + prefix.n1)
        assert hat2[t] == (s2 + prefix.z2) / (n0 + prefix.n2)


def test_group_sizes():
    assert group_sizes(10, 3) == [4, 3, 3]
    assert group_sizes(8, 4) == [2, 2, 2, 2]
    assert group_sizes(7, 1) == [7]
    with pytest.raises(ValueError):
        group_sizes(3, 4)
    with pytest.raises(ValueError):
        group_sizes(3, 0)


def test_run_regime_single_group_matches_run_group():
    stream_a = derive_stream(22, 0)
    env = draw_environment(stream_a)
    h0 = (2, *draw_initial_history(*env, 2, stream_a))
    traces = run_regime(env, h0, 100, 1, stream_a)
    stream_b = derive_stream(22, 0)
    draw_environment(stream_b)
    draw_initial_history(*env, 2, stream_b)
    alone = run_group(env, h0, 100, stream_b)
    assert len(traces) == 1
    assert np.array_equal(traces[0].choices, alone.choices)
    assert np.array_equal(traces[0].rewards, alone.rewards)


def test_run_regime_split_sizes():
    stream = derive_stream(23, 0)
    env = draw_environment(stream)
    h0 = (2, *draw_initial_history(*env, 2, stream))
    traces = run_regime(env, h0, 10, 3, stream)
    assert [len(t) for t in traces] == [4, 3, 3]


def test_pooled_failure_hand_cases():
    h0 = (1, 0, 1)
    good = make_trace([1, 1], [1, 1])  # pooled: arm1 2/3, arm2 1/1
    assert pooled_failure(h0, [good]) is True
    h0 = (2, 2, 0)
    bad = make_trace([2, 2], [1, 1])  # pooled: arm1 2/2, arm2 1/2
    assert pooled_failure(h0, [bad]) is False
    # exact ties are not failures
    h0 = (1, 1, 0)
    assert pooled_failure(h0, [make_trace([2], [1])]) is False  # 1/1 vs 1/2
    h0 = (2, 1, 1)
    assert pooled_failure(h0, [make_trace([], [])]) is False  # 1/2 == 1/2


def test_pooled_failure_counts_history_once():
    # fuzz against an exact Fraction oracle over random count tuples
    rng = np.random.default_rng(99)
    for _ in range(500):
        n0 = int(rng.integers(1, 6))
        s1, s2 = int(rng.integers(0, n0 + 1)), int(rng.integers(0, n0 + 1))
        h0 = (n0, s1, s2)
        traces = []
        for _ in range(int(rng.integers(1, 4))):
            m = int(rng.integers(0, 5))
            choices = rng.integers(1, 3, size=m)
            rewards = rng.integers(0, 2, size=m)
            traces.append(make_trace(choices, rewards))
        n1 = sum(t.n1 for t in traces)
        z1 = sum(t.z1 for t in traces)
        n2 = sum(t.n2 for t in traces)
        z2 = sum(t.z2 for t in traces)
        expect = Fraction(s2 + z2, n0 + n2) > Fraction(s1 + z1, n0 + n1)
        assert pooled_failure(h0, traces) is expect


def test_lock_in_time_pinned_examples():
    assert lock_in_time(make_trace([1, 1, 1], [0, 0, 0])) == 1
    assert lock_in_time(make_trace([2, 1, 1], [0, 0, 0])) == 2
    assert lock_in_time(make_trace([1, 2, 1, 2], [0, 0, 0, 0])) == 4
    assert lock_in_time(make_trace([], [])) is None


def test_lock_in_time_matches_forward_scan():
    rng = np.random.default_rng(101)
    for _ in range(300):
        m = int(rng.integers(0, 12))
        choices = rng.integers(1, 3, size=m)
        trace = make_trace(choices, np.zeros(m, dtype=np.int8))
        assert lock_in_time(trace) == lock_in_forward_scan(choices)


def test_lock_in_becomes_permanent_at_long_horizons():
    locks = []
    for r in range(500):
        stream = derive_stream(77, r)
        env = draw_environment(stream)
        h0 = (5, *draw_initial_history(*env, 5, stream))
        trace = run_group(env, h0, 1000, stream)
        t = lock_in_time(trace)
        assert 1 <= t <= 1000
        locks.append(t)
    locks = np.array(locks)
    # greedy settles on one arm well before the horizon in almost every run
    assert (locks <= 101).mean() > 0.9
    assert (locks <= 501).mean() > 0.98


def _scalar_failures(n0, k_grid, total_agents, seed, start, stop):
    out = np.zeros((len(k_grid), stop - start), dtype=np.int64)
    for i, r in enumerate(range(start, stop)):
        for row, k in enumerate(k_grid):
            stream = derive_stream(seed, r)
            env = draw_environment(stream)
            h0 = (n0, *draw_initial_history(*env, n0, stream))
            traces = run_regime(env, h0, total_agents, k, stream)
            out[row, i] = int(pooled_failure(h0, traces))
    return out


def test_simulate_failures_matches_scalar_route():
    for n0 in (1, 5, 10):
        vec = simulate_failures(n0, (1, 4, 2, 3), 40, 55, 0, 100)
        assert vec.shape == (4, 100) and vec.dtype == np.int64
        assert np.array_equal(vec, _scalar_failures(n0, (1, 4, 2, 3), 40, 55, 0, 100))


@given(
    n0=st.integers(1, 10),
    total_agents=st.integers(1, 60),
    data=st.data(),
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**20),
    n_reps=st.integers(0, 12),
)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_simulate_failures_rows_match_scalar_route(n0, total_agents, data, seed, start, n_reps):
    # distinct group counts in any order, always including one agent per group
    ks = data.draw(st.sets(st.integers(1, total_agents), max_size=4))
    k_grid = data.draw(st.permutations(sorted(ks | {total_agents})))
    vec = simulate_failures(n0, k_grid, total_agents, seed, start, start + n_reps)
    assert vec.shape == (len(k_grid), n_reps)
    scalar = _scalar_failures(n0, k_grid, total_agents, seed, start, start + n_reps)
    assert np.array_equal(vec, scalar)


def test_simulate_failures_exact_up_to_its_n0_bound():
    # (n0 + 50) * (2 * n0 + 50) < 2**63 holds up to n0 = 2,147,483,610; above it
    # the int64 count products would wrap, so the model and the config refuse it.
    n0 = 2_147_483_610
    vec = simulate_failures(n0, (1, 2, 7, 50), 50, 58, 0, 100)
    assert np.array_equal(vec, _scalar_failures(n0, (1, 2, 7, 50), 50, 58, 0, 100))
    for n0 in (n0 + 1, 4 * 10**9, 10**20):
        with pytest.raises(ValueError, match=f"n0 = {n0} is too large for 50 agents"):
            simulate_failures(n0, (1, 2), 50, 58, 0, 100)
        with pytest.raises(ValueError, match=f"n0 = {n0} is too large"):
            Bandit2Config(total_agents=50, n0_grid=(1, n0), k_grid=(1, 2))


def test_simulate_failures_chunk_invariant():
    whole = simulate_failures(5, (2, 1, 7), 30, 56, 0, 90)
    parts = np.concatenate(
        [
            simulate_failures(5, (2, 1, 7), 30, 56, 0, 37),
            simulate_failures(5, (2, 1, 7), 30, 56, 37, 90),
        ],
        axis=1,
    )
    assert np.array_equal(whole, parts)
    assert simulate_failures(5, (2, 1, 7), 30, 56, 10, 10).shape == (3, 0)
    # one k at a time gives the same rows as the whole grid
    for row, k in enumerate((2, 1, 7)):
        assert np.array_equal(simulate_failures(5, (k,), 30, 56, 0, 90)[0], whole[row])


def test_failure_rate_sweep_shape_and_determinism():
    cfg = Bandit2Config(
        total_agents=20, n0_grid=(1, 5), k_grid=(1, 2), n_runs=200, master_seed=57
    )
    rows, again = experiments.run(cfg), experiments.run(cfg)
    values = experiments._collect(experiments._bandit2_range, cfg)
    assert [(r.param_value, r.regime) for r in rows] == [
        (1, "k=1"), (1, "k=2"), (5, "k=1"), (5, "k=2")
    ]
    assert list(values) == [(r.regime, r.param_value, r.metric) for r in rows]
    assert rows == again
    for row in rows:
        assert 0.0 <= row.value <= 1.0
        assert row.stderr == pytest.approx(
            np.sqrt(row.value * (1 - row.value) / row.n_runs)
        )
    with pytest.raises(ValueError):
        Bandit2Config(total_agents=20, n0_grid=(1,), k_grid=(1,), n_runs=0)
