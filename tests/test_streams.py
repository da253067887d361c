"""Determinism and distribution checks for the random stream layer."""

from __future__ import annotations

import numpy as np
import pytest

from monolab.streams import RngStream, derive_stream


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
