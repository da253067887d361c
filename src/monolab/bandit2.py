"""Greedy two-arm bandit: monoculture vs. split exploration groups.

An environment draws two arm means i.i.d. Beta(2, 2) and relabels them so
arm 1 is the better arm.  All decision makers share an initial history of
n0 samples per arm, then follow the greedy rule: pull the arm with the
higher empirical mean, where the empirical mean pools the initial history
with the agent's own observed rewards.

A "regime" splits a budget of total_agents one-per-timestep decisions into
k independent groups that share only the initial history.  The failure
event asks whether the pooled record of all groups ranks the worse arm
strictly above the better one: pooled means count the initial history once
and sum every group's pulls.

Rewards are realized through per-arm pre-drawn schedules (the j-th pull of
an arm reads the j-th entry of that arm's schedule), which is
distributionally identical to drawing per pull.  Empirical-mean comparisons
use exact integer cross-multiplication, so ties are exact and always go to
arm 1.

``simulate_failures`` computes the failure indicators for a whole grid of
k at once, one replicate per stream its caller derives: the schedules of
every group of every k are slices of one block of ``2 * total_agents``
uniforms per (n0, replicate), kept as 2-bit codes (bit 0: u < mu1, bit 1:
u < mu2), and all groups of all replicates walk the greedy rule in one
lockstep.  The tests compare it with a scalar reference in
``tests/oracles.py`` that walks one group one step at a time.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .streams import RngStream, check_replicate_bytes


def draw_environment(stream: RngStream) -> tuple[float, float]:
    """Two i.i.d. Beta(2, 2) means ``(mu1, mu2)``, larger first; ties redrawn."""
    while True:
        a = float(stream.betas((), 2.0, 2.0))
        b = float(stream.betas((), 2.0, 2.0))
        if a != b:
            return max(a, b), min(a, b)


def draw_initial_history(
    mu1: float, mu2: float, n0: int, stream: RngStream
) -> tuple[int, int]:
    """Successes ``(s1, s2)`` in n0 Bernoulli samples of each arm, arm 1 first."""
    if n0 < 1:
        raise ValueError(f"initial history needs n0 >= 1, got {n0}")
    return int(stream.binomials(n0, mu1)), int(stream.binomials(n0, mu2))


def group_sizes(total_agents: int, k_groups: int) -> list[int]:
    """Split total_agents into k_groups near-equal sizes, remainder first."""
    if k_groups < 1:
        raise ValueError(f"need at least one group, got {k_groups}")
    if total_agents < k_groups:
        raise ValueError(
            f"cannot split {total_agents} agents into {k_groups} non-empty groups"
        )
    base, rem = divmod(total_agents, k_groups)
    return [base + 1] * rem + [base] * (k_groups - rem)


def replicate_bytes(total_agents: int, k_grid: Sequence[int]) -> int:
    """A bound on the bytes one replicate's arrays take in ``simulate_failures``.

    32 per agent: the ``2 * total_agents`` uniforms (16), the comparison
    that makes their two reward bits (about 11 under tracemalloc: 4 for the
    bools and numpy's working buffers), and the packed codes as made,
    copied and kept (1.5).  352 per group of every k in the grid: the group
    list, its sort keys and its size arrays (256), and the walk's five int64
    rows and their temporaries (96).  256 for the replicate's own numbers.
    """
    return 32 * total_agents + 352 * sum(k_grid) + 256


def check_sweep(n0: int, k_grid: Sequence[int], total_agents: int) -> None:
    """Reject an n0 at which a greedy or pooled comparison, a count of at most
    n0 + total_agents times one of at most 2 n0 + total_agents, overflows int64,
    or a sweep whose one replicate needs more than ``MAX_REPLICATE_BYTES``."""
    if (n0 + total_agents) * (2 * n0 + total_agents) >= 2**63:
        raise ValueError(f"n0 = {n0} is too large for {total_agents} agents: (n0 + agents)"
                         " x (2 n0 + agents) must stay below 2**63")
    check_replicate_bytes(replicate_bytes(total_agents, k_grid), f"sweep too large: "
                          f"{total_agents} agents and k = {', '.join(map(str, k_grid))}")


def simulate_failures(
    n0: int,
    k_grid: Sequence[int],
    total_agents: int,
    streams: Iterable[RngStream],
) -> np.ndarray:
    """Pooled-failure indicators per k in k_grid, one replicate per stream.

    Returns a ``(len(k_grid), n_streams)`` int64 array whose row i belongs
    to ``k = k_grid[i]`` and whose column j reads the j-th stream.  Each
    entry equals the per-step greedy loop of ``tests/oracles.py``, group
    after group, on that stream alone, so the result does not depend on how
    replicates are batched across calls or worker processes.  The streams
    are read one at a time, in order.  A sweep that ``check_sweep`` rejects
    raises before any draw.

    Draws: after the environment and the initial history, the groups read
    consecutive uniforms whatever k is, so one block of
    ``2 * total_agents`` uniforms per replicate serves every k.  Group g of
    size m_g starts at ``o_g = 2 * sum(sizes[:g])``; its arm-1 schedule is
    ``block[o_g : o_g + m_g] < mu1`` and its arm-2 schedule
    ``block[o_g + m_g : o_g + 2 m_g] < mu2``.  Each uniform u is kept as a
    2-bit code, bit 0 = (u < mu1) and bit 1 = (u < mu2): the reward it pays
    to either arm.  As mu2 < mu1 the code is 0 (neither arm), 1 (arm 1
    only) or 3 (both), and the codes are packed four to a byte.

    Walk: every (k, group, replicate) triple is one row, and the rows are
    ordered by group size, largest first, so the rows still walking at step
    t are a prefix.  The whole grid takes total_agents lockstep steps; each
    step makes one greedy comparison and one gather of the pulled arm's next
    code bit per row.  The rows' counts are then pooled per (k, replicate).
    """
    check_sweep(n0, k_grid, total_agents)
    groups = []  # (size, k row, first uniform) of every group of every k cell
    for row, k in enumerate(k_grid):
        first = 0
        for m in group_sizes(total_agents, k):
            groups.append((m, row, first))
            first += 2 * m
    groups.sort(key=lambda group: -group[0])

    width = 2 * total_agents
    row_bits = 8 * -(-2 * width // 8)  # 2 bits per uniform, whole bytes per replicate
    # The replicate count is known only once the streams run out, so the
    # codes grow in one buffer, which the walk then reads without a copy.
    s1, s2, codes = [], [], bytearray()
    for stream in streams:
        mu1, mu2 = draw_environment(stream)
        successes1, successes2 = draw_initial_history(mu1, mu2, n0, stream)
        s1.append(successes1)
        s2.append(successes2)
        hits = stream.uniforms(width)[:, None] < (mu1, mu2)
        codes += np.packbits(hits, bitorder="little").tobytes()
    n_reps = len(s1)
    if n_reps == 0 or not k_grid:
        return np.zeros((len(k_grid), n_reps), dtype=np.int64)
    s1, s2 = np.array(s1, dtype=np.int64), np.array(s2, dtype=np.int64)
    codes = np.frombuffer(codes, dtype=np.uint8)
    size, krow, first = (np.array(column) for column in zip(*groups))

    # Per row, replicate-major within each group slot: successes of arm 1
    # and of both arms and pulls of arm 1, each with the history included,
    # and the code bit of the next arm-1 and arm-2 reward.  After t steps
    # arm 2 has 2 * n0 + t - b1 pulls, so the greedy rule pulls arm 2 when
    # (at - a1) * b1 > a1 * (2 * n0 + t - b1), i.e. at * b1 > a1 * (2 * n0 + t).
    n_groups = len(groups)
    a1 = np.tile(s1, n_groups)
    at = np.tile(s1 + s2, n_groups)
    b1 = np.full(n_groups * n_reps, n0, dtype=np.int64)
    rep_bit = np.arange(n_reps) * row_bits
    p1 = (2 * first[:, None] + rep_bit).reshape(-1)
    p2 = (2 * (first + size)[:, None] + 1 + rep_bit).reshape(-1)
    stops = [*size.tolist(), 0]
    for j in range(n_groups, 0, -1):
        # The j largest groups walk steps stops[j] .. stops[j - 1] - 1;
        # A1 .. P2 are views of their rows.
        A1, AT, B1, P1, P2 = (x[: j * n_reps] for x in (a1, at, b1, p1, p2))
        for t in range(stops[j], stops[j - 1]):
            pick2 = B1 * AT > A1 * (2 * n0 + t)
            pick1 = ~pick2
            pos = np.where(pick2, P2, P1)
            reward = (codes.take(pos >> 3) >> (pos & 7)) & 1
            AT += reward
            A1 += reward & pick1
            B1 += pick1
            P1 += 2 * pick1
            P2 += 2 * pick2

    # Pool each k cell's groups; its arm 2 has the rest of the pulls and wins.
    shape = (n_groups, n_reps)
    n1, z1, z = (np.zeros((len(k_grid), n_reps), dtype=np.int64) for _ in range(3))
    np.add.at(n1, krow, b1.reshape(shape) - n0)
    np.add.at(z1, krow, a1.reshape(shape) - s1)
    np.add.at(z, krow, at.reshape(shape) - (s1 + s2))
    n2 = total_agents - n1
    z2 = z - z1
    return ((s2 + z2) * (n0 + n1) > (s1 + z1) * (n0 + n2)).astype(np.int64)
