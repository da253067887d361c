"""Tests for the greedy two-arm bandit, its scalar oracle and the failure sweep."""

from __future__ import annotations

import tracemalloc
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
    replicate_bytes,
    simulate_failures,
)
from monolab.experiments import Bandit2Config
from monolab.streams import RngStream, derive_stream

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
    # the agent count is checked by its flag too: a float once raised a
    # TypeError, and a bool was read as one agent
    with pytest.raises(ValueError, match="agents must be an integer, got 10.5"):
        group_sizes(10.5, 2)
    with pytest.raises(ValueError, match="agents must be an integer, got True"):
        group_sizes(True, 1)


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


def _streams(seed, start, stop):
    """The replicate streams the bandit2 sweep passes for replicates start..stop-1."""
    return (derive_stream(seed, r) for r in range(start, stop))


def _scalar_failures(n0, k_grid, total_agents, seed, start, stop):
    """One n0's failure indicators by the scalar oracle, from a fresh stream per (replicate, k)."""
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
    n0_grid = (5, 1, 10)
    vec = simulate_failures(n0_grid, (1, 4, 2, 3), 40, _streams(55, 0, 100))
    assert vec.shape == (3, 4, 100) and vec.dtype == np.int64
    for row, n0 in enumerate(n0_grid):
        assert np.array_equal(vec[row], _scalar_failures(n0, (1, 4, 2, 3), 40, 55, 0, 100))


@given(
    total_agents=st.integers(1, 60),
    data=st.data(),
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**20),
    n_reps=st.integers(0, 12),
)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_simulate_failures_rows_match_scalar_route(total_agents, data, seed, start, n_reps):
    # distinct n0 and group counts in any order, k always including one agent per group
    n0_grid = data.draw(st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True))
    ks = data.draw(st.sets(st.integers(1, total_agents), max_size=4))
    k_grid = data.draw(st.permutations(sorted(ks | {total_agents})))
    vec = simulate_failures(n0_grid, k_grid, total_agents, _streams(seed, start, start + n_reps))
    assert vec.shape == (len(n0_grid), len(k_grid), n_reps)
    for row, n0 in enumerate(n0_grid):
        scalar = _scalar_failures(n0, k_grid, total_agents, seed, start, start + n_reps)
        assert np.array_equal(vec[row], scalar)


def test_simulate_failures_exact_up_to_its_n0_bound():
    # (n0 + 50) * (2 * n0 + 50) < 2**63 holds up to n0 = 2,147,483,610; above it
    # the int64 count products would wrap, so the model and the config refuse it.
    n0 = 2_147_483_610
    vec = simulate_failures((n0,), (1, 2, 7, 50), 50, _streams(58, 0, 100))
    assert np.array_equal(vec[0], _scalar_failures(n0, (1, 2, 7, 50), 50, 58, 0, 100))
    for n0 in (n0 + 1, 4 * 10**9, 10**20):
        # refused before any draw: the given stream is not advanced
        stream = derive_stream(58, 0)
        before = stream.state()
        with pytest.raises(ValueError, match=f"n0 = {n0} is too large for 50 agents"):
            simulate_failures((1, n0), (1, 2), 50, [stream])
        assert stream.state() == before
        with pytest.raises(ValueError, match=f"n0 = {n0} is too large"):
            Bandit2Config(total_agents=50, n0_grid=(1, n0), k_grid=(1, 2))


# at n0 = 1, 46,339 agents is the largest count whose walk counts in int32
@pytest.mark.parametrize("agents", [46_339, 46_340])
def test_simulate_failures_matches_scalar_route_on_each_side_of_the_int32_bound(agents):
    k_grid = (460, 463)  # walks of about 100 steps
    vec = simulate_failures((1,), k_grid, agents, _streams(64, 0, 30))
    assert vec.dtype == np.int64
    assert np.array_equal(vec[0], _scalar_failures(1, k_grid, agents, 64, 0, 30))


@pytest.mark.parametrize("agents, n0_grid, k_grid, too_large", [
    (3 * 10**9, (1,), (1,), True),  # 96 GB, half of it the uniforms
    # 25 bytes per agent would pass, but 368 per group of every k do not
    (2 * 10**6, (1,), (2 * 10**6, 10**6), True),
    (50, (1, 4 * 10**9), (1, 2), False),  # refused for its n0 instead
    (40, (1, 5), (1, 2, 4, 8), False),
    (3, (1,), (4,), False),  # refused for its k: 3 agents make no 4 groups
])
def test_bandit2_config_and_model_reject_the_same_sweeps(agents, n0_grid, k_grid, too_large):
    def error(build):
        try:
            build()
        except ValueError as err:
            return str(err)
        return None

    stream = derive_stream(0, 0)
    before = stream.state()
    model = error(lambda: simulate_failures(n0_grid, k_grid, agents, [stream]))
    if model is not None:
        assert stream.state() == before  # refused before any draw
    config = error(lambda: Bandit2Config(total_agents=agents, n0_grid=n0_grid, k_grid=k_grid))
    assert model == config
    assert (config is not None and "sweep too large" in config) == too_large


@pytest.mark.parametrize("agents, k_grid, n_reps", [
    (1000, (1, 2, 4, 8), 50),
    (50_000, (500,), 1),  # a short walk: 500 groups of 100 agents
    (10, (1, 2, 4, 8), 500),
    (2000, tuple(range(1, 200)), 2),
])
def test_replicate_bytes_bounds_what_simulate_failures_allocates(agents, k_grid, n_reps):
    # numpy reports its array buffers to tracemalloc; a fixed 64 KiB per call
    # covers the array headers and Python objects of a small sweep
    for n0_grid in ((1,), (5, 1, 10)):
        streams = [derive_stream(59, r) for r in range(n_reps)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate_failures(n0_grid, k_grid, agents, streams)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= n_reps * replicate_bytes(agents, k_grid, len(n0_grid)) + 64 * 1024


def test_replicate_blocks_bound_what_a_sweep_allocates(monkeypatch):
    # 500 groups of 2 agents keep about 100 bytes per group, n0 and replicate
    # alive through the walk, so one call over all 30 replicates would peak
    # near 3 MB; experiments._collect's blocks of 3 stay within 3 replicates' bound
    cfg = Bandit2Config(
        total_agents=1000, n0_grid=(1, 2), k_grid=(500,), n_runs=30, master_seed=60
    )
    block = 3
    monkeypatch.setattr(experiments, "_BLOCK_BYTES", block * cfg.replicate_bytes)
    assert len(experiments._split_ranges(cfg.n_runs, cfg.workers, block)) == 10
    whole = experiments._bandit2_range(cfg, 0, cfg.n_runs)  # also warms numpy up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        values = experiments._collect(experiments._bandit2_range, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= block * cfg.replicate_bytes + 64 * 1024
    assert values.keys() == whole.keys()
    assert all(np.array_equal(values[key], whole[key]) for key in whole)


def test_simulate_failures_chunk_invariant():
    n0_grid, k_grid = (5, 1, 10), (2, 1, 7)
    whole = simulate_failures(n0_grid, k_grid, 30, _streams(56, 0, 90))
    parts = np.concatenate(
        [
            simulate_failures(n0_grid, k_grid, 30, _streams(56, 0, 37)),
            simulate_failures(n0_grid, k_grid, 30, _streams(56, 37, 90)),
        ],
        axis=2,
    )
    assert np.array_equal(whole, parts)
    assert simulate_failures(n0_grid, k_grid, 30, _streams(56, 10, 10)).shape == (3, 3, 0)
    # one (n0, k) at a time, on fresh streams, gives the same rows as the whole grid
    for i, n0 in enumerate(n0_grid):
        assert np.array_equal(whole[i], _scalar_failures(n0, k_grid, 30, 56, 0, 90))
        for j, k in enumerate(k_grid):
            alone = simulate_failures((n0,), (k,), 30, _streams(56, 0, 90))
            assert np.array_equal(alone[0, 0], whole[i, j])


class CountingStream(RngStream):
    """A real stream that counts its ``uniforms`` calls."""

    def __init__(self, master_seed, stream_id):
        super().__init__(master_seed, stream_id)
        self.uniform_calls = 0

    def uniforms(self, shape):
        self.uniform_calls += 1
        return super().uniforms(shape)


def test_histories_that_leave_equal_states_share_one_uniform_block():
    # Here the binomial sampler reads one raw draw per arm whatever n0 is, so
    # all three histories leave the stream in one state and each replicate
    # draws a single block of reward uniforms for all of them.
    n0_grid, k_grid = (1, 5, 10), (1, 2, 4, 8)
    streams = [CountingStream(65, r) for r in range(20)]
    vec = simulate_failures(n0_grid, k_grid, 1000, streams)
    assert [stream.uniform_calls for stream in streams] == [1] * 20
    for row, n0 in enumerate(n0_grid):
        assert np.array_equal(vec[row], _scalar_failures(n0, k_grid, 1000, 65, 0, 20))


# Sorted by size, largest first, the groups of k = (4, 3) at 10 agents read
# 4 (k = 3), 3, 3 (k = 4), 3, 3 (k = 3), 2, 2 (k = 4), so a k cell's groups
# need not be consecutive; those of k = (3, 4) and (1, 3, 4) happen to be.
@pytest.mark.parametrize("k_grid", [(3, 4), (4, 3), (1, 3, 4), (4, 1, 3)],
                         ids=["3,4", "4,3", "1,3,4", "4,1,3"])
def test_pooling_when_k_cells_groups_interleave_after_the_size_sort(k_grid):
    n0_grid = (1, 3)
    vec = simulate_failures(n0_grid, k_grid, 10, _streams(66, 0, 200))
    for row, n0 in enumerate(n0_grid):
        assert np.array_equal(vec[row], _scalar_failures(n0, k_grid, 10, 66, 0, 200))


def test_simulate_failures_reads_the_streams_one_at_a_time_in_order():
    # stream r must have been drawn from before stream r + 1 is taken, so a
    # range never holds more than one replicate's uniform block
    def streams():
        for r in range(40):
            stream = derive_stream(63, r)
            yield stream
            assert stream.state() != derive_stream(63, r).state(), f"stream {r} unread"

    n0_grid, k_grid = (5, 1), (1, 3, 2)
    vec = simulate_failures(n0_grid, k_grid, 12, streams())
    assert np.array_equal(vec, simulate_failures(n0_grid, k_grid, 12, list(_streams(63, 0, 40))))


class FixedStream:
    """The ``RngStream`` calls of ``simulate_failures`` and the scalar oracle,
    answered from fixed draws: betas in turn, n successes in n samples, and
    uniforms read in order from ``uniforms``, repeated as needed."""

    def __init__(self, betas, uniforms):
        self._betas, self._uniforms = betas, np.asarray(uniforms, dtype=np.float64)
        self._beta_pos = self._uniform_pos = 0

    def state(self):
        return self._beta_pos, self._uniform_pos

    def restore(self, state):
        self._beta_pos, self._uniform_pos = state

    def betas(self, shape, a, b):
        self._beta_pos += 1
        return self._betas[self._beta_pos - 1]

    def binomials(self, n, p):
        return n

    def uniforms(self, n):
        taken = np.arange(self._uniform_pos, self._uniform_pos + n) % len(self._uniforms)
        self._uniform_pos += n
        return self._uniforms[taken]


def test_a_uniform_equal_to_an_arm_mean_pays_nothing_on_that_arm():
    # Both arms start from a perfect history, so the first rewards decide
    # which arm leads.  Each replicate's uniforms are one rotation of a
    # pattern with entries exactly equal to mu1 and to mu2, so across the
    # replicates both arms' schedules read such entries in every group layout
    # of the grid: u == mu1 pays neither arm and u == mu2 pays arm 1 only, so
    # the scalar oracle's strict u < mu pins both arms' codes.
    mu1, mu2 = 0.625, 0.25
    pattern = [mu1, mu2, mu2, 0.0, mu1, 0.9, mu2, mu1, mu1, 0.5, mu2]
    n0_grid, k_grid, agents = (1, 2, 4), (1, 2, 3, 5, 12), 12

    def stubs(r):
        return FixedStream((mu2, mu1), pattern[r:] + pattern[:r])

    vec = simulate_failures(n0_grid, k_grid, agents, [stubs(r) for r in range(len(pattern))])
    for i, n0 in enumerate(n0_grid):
        for j, k in enumerate(k_grid):
            for r in range(len(pattern)):
                stream = stubs(r)
                env = draw_environment(stream)
                assert env == (mu1, mu2)
                h0 = (n0, *draw_initial_history(*env, n0, stream))
                traces = run_regime(env, h0, agents, k, stream)
                assert vec[i, j, r] == pooled_failure(h0, traces), (n0, k, r)


class DivergingStream(FixedStream):
    """A ``FixedStream`` whose n samples read the next n uniforms, so that
    histories of different n0 leave the stream at different positions."""

    def binomials(self, n, p):
        return int(np.count_nonzero(self.uniforms(n) < p))


def test_histories_that_leave_different_states_each_draw_their_own_block():
    # Each n0's block starts 2 n0 uniforms into the pattern, so a block shared
    # across n0 would give other schedules than the oracle reads.
    pattern = list(np.random.default_rng(67).random(17))
    n0_grid, k_grid, agents = (1, 2, 4), (1, 2, 3, 5, 12), 12

    def stubs(r):
        return DivergingStream((0.65, 0.2 + r / 40), pattern[r:] + pattern[:r])

    vec = simulate_failures(n0_grid, k_grid, agents, [stubs(r) for r in range(len(pattern))])
    for i, n0 in enumerate(n0_grid):
        for j, k in enumerate(k_grid):
            for r in range(len(pattern)):
                stream = stubs(r)
                env = draw_environment(stream)
                h0 = (n0, *draw_initial_history(*env, n0, stream))
                traces = run_regime(env, h0, agents, k, stream)
                assert vec[i, j, r] == pooled_failure(h0, traces), (n0, k, r)


# (n0 + agents) * (2 n0 + agents) just below 2**31, where the walk counts in
# int32, and just above it, where it counts in int64
_WIDTH_BOUNDARY = [(1, 46_339), (1, 46_340), (32_693, 100), (32_694, 100)]


@pytest.mark.parametrize("n0, agents", _WIDTH_BOUNDARY)
def test_paying_uniforms_drive_a_group_to_its_largest_counts(n0, agents):
    # A perfect history and uniforms that pay both arms tie every comparison,
    # so a group pulls arm 1 to its last step: its comparison then multiplies
    # counts of n0 + agents - 1 and 2 n0 + agents - 1, next to the bound.
    def stub():
        return FixedStream((0.25, 0.75), [0.0])

    k_grid = (1, 2)
    vec = simulate_failures((n0,), k_grid, agents, [stub()])
    assert vec.dtype == np.int64
    for j, k in enumerate(k_grid):
        stream = stub()
        env = draw_environment(stream)
        h0 = (n0, *draw_initial_history(*env, n0, stream))
        traces = run_regime(env, h0, agents, k, stream)
        assert sum(t.n1 for t in traces) == agents
        assert vec[0, j, 0] == pooled_failure(h0, traces)


def test_a_product_of_two_to_the_31_still_decides_a_pull():
    # n0 = 32896 and s1 = s2 = 32640.  Arm 1 fails its first pull, so arm 2
    # leads, (n0 + 1) * 2 s1 >= 2**31 against s1 * (2 n0 + 1) < 2**31, a
    # product that int32 would wrap.  Arm 2 then fails too, which ties the
    # pooled record; a second pull of arm 1, which pays, would rank arm 2 first.
    # Here (n0 + agents) * (2 n0 + agents) exceeds 2**31 by under 1%.
    class Stub(FixedStream):
        def binomials(self, n, p):
            return 32_640

    def stub():
        return Stub((0.25, 0.5), [0.9, 0.0, 0.9, 0.9])

    n0, agents = 32_896, 2
    stream = stub()
    env = draw_environment(stream)
    h0 = (n0, *draw_initial_history(*env, n0, stream))
    traces = run_regime(env, h0, agents, 1, stream)
    assert [t.n2 for t in traces] == [1] and not pooled_failure(h0, traces)
    assert simulate_failures((n0,), (1,), agents, [stub()]).tolist() == [[[0]]]


def test_simulate_failures_rejects_before_any_draw():
    for n0_grid, k_grid, message in [
        ((1, 0), (1,), r"n0 grid entries must be positive integers, got \(1, 0\)"),
        ((1,), (1, 11), "cannot split 10 agents into 11 non-empty groups"),
        ((1,), (0,), r"k grid entries must be positive integers, got \(0,\)"),
        ((), (1,), "n0 grid must not be empty"),
        ((1,), (), "k grid must not be empty"),
    ]:
        stream = derive_stream(61, 0)
        before = stream.state()
        with pytest.raises(ValueError, match=message):
            simulate_failures(n0_grid, k_grid, 10, [stream])
        assert stream.state() == before


@pytest.mark.parametrize("make", [lambda: {1, 5}, lambda: {1: 1, 5: 1},
                                  lambda: (n for n in (1, 5))],
                         ids=["set", "dict", "generator"])
def test_simulate_failures_refuses_an_unordered_or_one_pass_grid(make):
    # a set once failed with a TypeError that named no flag
    for n0_grid, k_grid, flag in [(make(), (1,), "n0"), ((1,), make(), "k")]:
        stream = derive_stream(61, 0)
        before = stream.state()
        with pytest.raises(ValueError, match=f"{flag} grid must be a sequence of sizes"):
            simulate_failures(n0_grid, k_grid, 10, [stream])
        assert stream.state() == before


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
