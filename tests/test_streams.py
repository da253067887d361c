"""Determinism and distribution checks for the random stream layer."""

from __future__ import annotations

import numpy as np
import pytest

from monolab import bandit2, hiring, hiring_bandit
from monolab.streams import RngStream, check_count, check_grid, derive_stream, is_int


def test_same_key_same_sequence():
    a = derive_stream(42, 0)
    b = derive_stream(42, 0)
    xs = [float(a.gaussians((), 0.0, 1.0)) for _ in range(100)]
    ys = [float(b.gaussians((), 0.0, 1.0)) for _ in range(100)]
    assert xs == ys


def test_different_stream_ids_diverge():
    a = derive_stream(42, 0)
    b = derive_stream(42, 1)
    assert a.gaussians(10).tolist() != b.gaussians(10).tolist()


def test_different_master_seeds_diverge():
    a = derive_stream(1, 7)
    b = derive_stream(2, 7)
    assert a.gaussians(10).tolist() != b.gaussians(10).tolist()


def test_mixed_draw_kinds_stay_deterministic():
    def consume(stream: RngStream):
        return (
            float(stream.gaussians((), 1.0, 2.0)),
            float(stream.betas((), 2.0, 2.0)),
            float(stream.uniforms(())),
            tuple(stream.permutation(5).tolist()),
            int(stream.binomials(10, 0.5)),
        )

    assert consume(derive_stream(7, 3)) == consume(derive_stream(7, 3))


def test_zero_sd_returns_mean_exactly():
    s = derive_stream(0, 0)
    assert s.gaussians((), 0.0, 0.0) == 0.0
    assert s.gaussians((), 5.0, 0.0) == 5.0


def test_invalid_parameters_rejected():
    s = derive_stream(0, 0)
    with pytest.raises(ValueError):
        s.gaussians((), 0.0, -1.0)
    with pytest.raises(ValueError):
        s.betas((), 0.0, 1.0)
    with pytest.raises(ValueError):
        s.betas((), 1.0, -2.0)
    with pytest.raises(ValueError):
        s.permutation(-1)
    with pytest.raises(ValueError):
        s.binomials(-1, 0.5)
    # numpy itself rejects a probability outside [0, 1] or NaN
    for p in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            s.binomials(3, p)


def test_seed_bounds_enforced():
    with pytest.raises(ValueError):
        derive_stream(-1, 0)


def test_size_rule():
    # a bool is not a stream key, though Python counts it as an int
    for key in ((True, 0), (0, False), (1.0, 0)):
        with pytest.raises(TypeError, match="must be an integer"):
            derive_stream(*key)
    assert is_int(3) and is_int(np.int64(3)) and is_int(np.uint8(0))
    assert not any(map(is_int, (True, np.bool_(True), 3.0, np.float64(3), "3", None)))
    check_count(0, "n0", 0)
    check_count(np.int64(2), "arms")
    for value, message in [(1.5, "arms must be an integer, got 1.5"),
                           (True, "arms must be an integer, got True"),
                           (0, "arms must be >= 1, got 0")]:
        with pytest.raises(ValueError, match=message):
            check_count(value, "arms")
    check_grid((1, np.int64(2)), "k")
    with pytest.raises(ValueError, match="k grid must not be empty"):
        check_grid((), "k")
    for grid in (4, np.int64(4), np.array(4), None):
        with pytest.raises(ValueError, match="k grid must be a sequence of sizes, got "):
            check_grid(grid, "k")
    for grid in ((1, 0), (2.0,), (True,), (1, -3)):
        with pytest.raises(ValueError, match="k grid entries must be positive integers"):
            check_grid(grid, "k")


# Each model's size arguments: (model, argument, its flag, its minimum, a grid?)
MODELS = {
    "hiring": (hiring.simulate_run, dict(n_candidates=30, firm_grid=(2,), noise_sd=0.5,
                                         capacity=2, simultaneous=True)),
    "bandit2": (bandit2.simulate_failures, dict(n0_grid=(2,), k_grid=(2,), total_agents=10)),
    "hiring_bandit": (hiring_bandit.simulate_run,
                      dict(agent_grid=(2,), n_arms=5, n_rounds=2, n0=2)),
}
SIZES = [
    ("hiring", "n_candidates", "candidates", 1, False),
    ("hiring", "firm_grid", "firms", 1, True),
    ("hiring", "capacity", "capacity", 1, False),
    ("bandit2", "n0_grid", "n0", 1, True),
    ("bandit2", "k_grid", "k", 1, True),
    ("bandit2", "total_agents", "agents", 1, False),
    ("hiring_bandit", "agent_grid", "agents", 1, True),
    ("hiring_bandit", "n_arms", "arms", 1, False),
    ("hiring_bandit", "n_rounds", "rounds", 1, False),
    ("hiring_bandit", "n0", "n0", 0, False),
]

# A grid is also refused as a scalar: its good entry given without the tuple.
BAD_SIZES = [(*size, bad) for size in SIZES
             for bad in ("fraction", "bool", "below") + (("scalar",) if size[4] else ())]


@pytest.mark.parametrize("model, name, flag, minimum, grid, bad", BAD_SIZES,
                         ids=[f"{model}-{flag}-{bad}" for model, _, flag, _, _, bad in BAD_SIZES])
def test_models_refuse_a_bad_size_by_its_flag_before_any_draw(model, name, flag, minimum,
                                                              grid, bad):
    simulate, args = MODELS[model]
    good = args[name][0] if grid else args[name]
    value = {"fraction": good + 0.5, "bool": True, "below": minimum - 1, "scalar": good}[bad]
    streams = [derive_stream(71, r) for r in range(2)]
    before = [stream.state() for stream in streams]
    simulate(**args, streams=streams)  # the arguments as given are accepted
    for stream, state in zip(streams, before):
        stream.restore(state)
    with pytest.raises(ValueError) as err:
        simulate(**{**args, name: (value,) if grid and bad != "scalar" else value},
                 streams=streams)
    assert str(err.value).startswith(f"{flag} "), str(err.value)
    assert [stream.state() for stream in streams] == before
    with pytest.raises(ValueError):
        derive_stream(0, 2**64)
    with pytest.raises(TypeError):
        derive_stream(1.5, 0)
    # the extremes are valid keys
    derive_stream(2**64 - 1, 2**64 - 1)


def test_gaussian_moments():
    s = derive_stream(11, 0)
    n = 100_000
    xs = s.gaussians(n, 2.0, 3.0)
    # mean SE = 3/sqrt(n); var of sample variance ~ 2 sd^4 / n
    assert abs(xs.mean() - 2.0) < 3 * 3.0 / np.sqrt(n)
    assert abs(xs.var(ddof=1) - 9.0) < 3 * np.sqrt(2 * 81.0 / n)


def test_beta_2_2_moments():
    s = derive_stream(12, 0)
    n = 100_000
    xs = s.betas(n, 2.0, 2.0)
    # Beta(2,2): mean 1/2, variance ab/((a+b)^2 (a+b+1)) = 4/80 = 0.05
    assert abs(xs.mean() - 0.5) < 3 * np.sqrt(0.05 / n)
    assert abs(xs.var(ddof=1) - 0.05) < 0.005


def test_permutations_uniform():
    s = derive_stream(14, 0)
    n_draws = 60_000
    counts = {}
    for _ in range(n_draws):
        key = tuple(s.permutation(3).tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    p = 1.0 / 6.0
    se = np.sqrt(p * (1 - p) / n_draws)
    for key, count in counts.items():
        assert abs(count / n_draws - p) < 3 * se, key


def test_permutation_is_permutation():
    s = derive_stream(15, 0)
    for n in (0, 1, 2, 17):
        assert sorted(s.permutation(n).tolist()) == list(range(n))


def test_streams_uncorrelated():
    n = 100_000
    xs = derive_stream(16, 0).gaussians(n)
    ys = derive_stream(16, 1).gaussians(n)
    r = np.corrcoef(xs, ys)[0, 1]
    assert abs(r) < 3.0 / np.sqrt(n)


def test_permutation_block_matches_successive_draws():
    for n_rows, n in [(0, 3), (1, 1), (5, 0), (300, 2), (40, 16)]:
        block_stream = derive_stream(17, n_rows)
        row_stream = derive_stream(17, n_rows)
        block = block_stream.permutations(n_rows, n)
        rows = [row_stream.permutation(n) for _ in range(n_rows)]
        assert block.shape == (n_rows, n)
        assert block.tolist() == [row.tolist() for row in rows]
        # the stream is left in the same state: the next draw agrees too
        assert block_stream.uniforms(4).tolist() == row_stream.uniforms(4).tolist()
    with pytest.raises(ValueError):
        derive_stream(17, 0).permutations(-1, 3)
    with pytest.raises(ValueError):
        derive_stream(17, 0).permutations(3, -1)


def test_restored_snapshot_replays_draws_and_final_state():
    def draws(stream):
        return (
            stream.gaussians((6, 3), 0.0, 0.5).tolist(),
            stream.permutation(5).tolist(),
            stream.permutations(4, 7).tolist(),
        )

    for prefix in range(4):
        stream = derive_stream(18, prefix)
        fresh = derive_stream(18, prefix)
        for s in (stream, fresh):
            s.gaussians(prefix)
            s.permutation(3 * prefix)  # may leave half of a 64-bit word buffered
        snapshot = stream.state()
        first = draws(stream)
        end = stream.state()
        stream.restore(snapshot)
        assert draws(stream) == first == draws(fresh)
        assert stream.state() == end == fresh.state()
        assert stream.uniforms(3).tolist() == fresh.uniforms(3).tolist()
