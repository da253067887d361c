"""Deterministic, splittable random streams.

Every simulation in this package draws randomness through an `RngStream`,
which is fully determined by a pair of unsigned 64-bit integers
``(master_seed, stream_id)``.  Two streams derived from the same pair
produce identical draw sequences; streams derived from different pairs are
statistically independent.  This is what makes replicate-level parallelism
safe: worker processes re-derive their streams from the pair instead of
sharing generator state.

The backing generator is NumPy's PCG64 keyed through
``SeedSequence([master_seed, stream_id])``, whose seeding mix is stable
across platforms and processes for a fixed NumPy build.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_U64_MAX = 2**64 - 1

# The most one replicate's arrays may take in any model: each model bounds
# them by its ``replicate_bytes`` and rejects a larger replicate.
MAX_REPLICATE_BYTES = 2**30


def check_replicate_bytes(size: int, what: str) -> None:
    """Reject a replicate of ``size`` bytes, named by ``what``, above the maximum."""
    if size > MAX_REPLICATE_BYTES:
        raise ValueError(f"{what} need {size:,} bytes of arrays per replicate, "
                         f"max {MAX_REPLICATE_BYTES:,}")


def is_int(v) -> bool:
    """True for an int or a numpy integer, false for a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_count(value, name: str, minimum: int = 1) -> None:
    """Reject a size, named by its flag, that is not an integer of at least ``minimum``."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_grid(grid, name: str) -> None:
    """Reject a grid of sizes that is not a sequence or a 1-D array, an empty one, or
    one with an entry ``check_count`` rejects.

    A scalar, such as 4 given for (4,), is refused, and so is an unordered or
    one-pass collection (a set, a dict, a generator): each model reads its grid
    more than once and returns its results in grid order.
    """
    if not (isinstance(grid, Sequence) or isinstance(grid, np.ndarray) and grid.ndim == 1):
        raise ValueError(f"{name} grid must be a sequence of sizes, got {grid!r}")
    if len(grid) == 0:
        raise ValueError(f"{name} grid must not be empty")
    if not all(is_int(v) and v >= 1 for v in grid):
        raise ValueError(f"{name} grid entries must be positive integers, got {grid}")


def _check_u64(value: int, name: str) -> int:
    if not is_int(value):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if not 0 <= value <= _U64_MAX:
        raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value}")
    return int(value)


class RngStream:
    """A named random stream keyed by (master_seed, stream_id).

    The stream is stateful: every sampling call advances it.  Re-deriving a
    stream from the same key restarts the identical sequence, and restoring
    a snapshot taken with ``state`` replays the draws that followed it.  Each
    model draws what its grid shares once and restores a snapshot per grid
    point: ``hiring.simulate_run`` per firm count, ``hiring_bandit.init_beliefs``
    per agent count, in its one pass over each stream, and
    ``bandit2.simulate_failures`` per n0, where the n0 whose histories leave
    equal states share one block of reward uniforms.
    """

    __slots__ = ("master_seed", "stream_id", "gen")

    def __init__(self, master_seed: int, stream_id: int):
        self.master_seed = _check_u64(master_seed, "master_seed")
        self.stream_id = _check_u64(stream_id, "stream_id")
        self.gen = np.random.default_rng(
            np.random.SeedSequence([self.master_seed, self.stream_id])
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"

    # -- snapshots ---------------------------------------------------------

    def state(self) -> dict:
        """A snapshot of the generator state, for ``restore`` and comparison.

        Streams in equal states make equal draws, so two snapshots that
        compare equal replay the same sequence.  A snapshot includes the
        32-bit half of a 64-bit PCG64 output that a 32-bit draw (such as a
        short ``permutation``) may leave buffered for the next one
        (``has_uint32`` and ``uinteger``): two states that differ only there
        compare unequal, as their next 32-bit draws differ.
        """
        return self.gen.bit_generator.state

    def restore(self, state: dict) -> None:
        """Return to a snapshot taken by ``state``; the draws after it replay."""
        self.gen.bit_generator.state = state

    # -- draws -------------------------------------------------------------

    def gaussians(self, shape, mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        return self.gen.normal(mean, sd, size=shape)

    def betas(self, shape, a: float, b: float) -> np.ndarray:
        return self.gen.beta(a, b, size=shape)

    def binomials(self, n: int, p: float | np.ndarray) -> np.ndarray:
        return self.gen.binomial(n, p)

    def uniforms(self, shape) -> np.ndarray:
        return self.gen.random(shape)

    def permutation(self, n: int) -> np.ndarray:
        check_count(n, "permutation length", 0)
        return self.gen.permutation(n)

    def permutations(self, n_rows: int, n: int) -> np.ndarray:
        """``n_rows`` permutations of 0..n-1, one per row.

        Row i and the stream state afterwards equal those of the i-th of
        ``n_rows`` successive ``permutation(n)`` calls.
        """
        check_count(n_rows, "permutation rows", 0)
        check_count(n, "permutation length", 0)
        return self.gen.permuted(np.tile(np.arange(n), (n_rows, 1)), axis=1)


def derive_stream(master_seed: int, stream_id: int) -> RngStream:
    """Derive the stream keyed by (master_seed, stream_id)."""
    return RngStream(master_seed, stream_id)

