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
distributionally identical to drawing per pull.  A schedule entry is one
uniform u, kept as a byte that counts the arms it pays; arm a pays when
u < mu_a.  Empirical-mean comparisons use exact integer
cross-multiplication, so ties are exact and always go to arm 1.

``simulate_failures`` computes the failure indicators for a whole grid of
n0 and k at once, one replicate per stream its caller derives.  A
replicate draws its environment once and snapshots the stream; each n0
restores the snapshot, so it reads the stream as a fresh derive would.
All groups of all n0 and replicates walk the greedy rule in one lockstep,
in int32 counts when the sweep's largest product and code index stay
below 2**31 and in int64 otherwise.  The tests compare it with a scalar
reference in ``tests/oracles.py`` that walks one group one step at a time.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .streams import RngStream, check_count, check_grid, check_replicate_bytes


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
    check_count(n0, "n0")
    return int(stream.binomials(n0, mu1)), int(stream.binomials(n0, mu2))


def group_sizes(total_agents: int, k_groups: int) -> list[int]:
    """Split total_agents into k_groups near-equal sizes, remainder first."""
    check_count(total_agents, "agents")
    check_count(k_groups, "k")
    if total_agents < k_groups:
        raise ValueError(
            f"cannot split {total_agents} agents into {k_groups} non-empty groups"
        )
    base, rem = divmod(total_agents, k_groups)
    return [base + 1] * rem + [base] * (k_groups - rem)


def replicate_bytes(total_agents: int, k_grid: Sequence[int], n0_count: int) -> int:
    """A bound on the bytes one replicate's arrays take in ``simulate_failures``
    over ``n0_count`` initial sample counts.

    22 per agent for one n0's ``2 * total_agents`` uniforms (16), the two
    comparisons that make their reward codes (2 and 2) and the codes as made
    (2), and 256 per group of every k for the group list, its sort keys and
    size arrays.  Per n0, 3 per agent for the codes kept (2, and up to an
    eighth more as their buffer grows), 112 per group for the walk's six
    int64 rows and their temporaries (about 68 under tracemalloc), and 256
    for the replicate's own numbers.  The 112 stays the int64 bound when the
    walk counts in int32, so the sweeps ``check_sweep`` refuses do not
    depend on the width.
    """
    groups = sum(k_grid)
    return 22 * total_agents + 256 * groups + n0_count * (3 * total_agents + 112 * groups + 256)


def check_sweep(n0_grid: Sequence[int], k_grid: Sequence[int], total_agents: int) -> None:
    """Reject bad sizes; an n0 at which a greedy or pooled comparison, a count of at
    most n0 + total_agents times one of at most 2 n0 + total_agents, overflows int64;
    a sweep whose replicate needs over ``MAX_REPLICATE_BYTES``; or a k above total_agents."""
    check_grid(n0_grid, "n0")
    check_grid(k_grid, "k")
    check_count(total_agents, "agents")
    for n0 in n0_grid:
        if (n0 + total_agents) * (2 * n0 + total_agents) >= 2**63:
            raise ValueError(f"n0 = {n0} is too large for {total_agents} agents: (n0 + agents)"
                             " x (2 n0 + agents) must stay below 2**63")
    check_replicate_bytes(replicate_bytes(total_agents, k_grid, len(n0_grid)), f"sweep too "
                          f"large: {total_agents} agents and k = {', '.join(map(str, k_grid))}")
    for k in k_grid:
        group_sizes(total_agents, k)


def simulate_failures(n0_grid: Sequence[int], k_grid: Sequence[int], total_agents: int,
                      streams: Iterable[RngStream]) -> np.ndarray:
    """Pooled-failure indicators per (n0, k) in the grids, one replicate per stream.

    Returns a ``(len(n0_grid), len(k_grid), n_streams)`` int64 array whose
    entry ``[i, j, r]`` belongs to ``n0 = n0_grid[i]`` and ``k = k_grid[j]``
    and reads the r-th stream.  Each entry equals the per-step greedy loop
    of ``tests/oracles.py``, group after group, on that stream alone, so the
    result does not depend on how replicates are batched across calls or
    worker processes.  The streams are read one at a time, in order.  A
    sweep that ``check_sweep`` rejects raises before any draw.

    Draws: after its history, each n0 draws one block of ``2 * total_agents``
    uniforms, which serves every k, as the groups read consecutive uniforms
    whatever k is.  Group g of size m_g starts at
    ``o_g = 2 * sum(sizes[:g])``; its arm-1 schedule is
    ``block[o_g : o_g + m_g] < mu1`` and its arm-2 schedule
    ``block[o_g + m_g : o_g + 2 m_g] < mu2``.  Each uniform u is kept as a
    one-byte code, ``(u < mu1) + (u < mu2)``: the number of arms it pays.
    As mu2 < mu1 the code is 0 (neither arm), 1 (arm 1 only) or 2 (both),
    so arm a pays exactly when the code is at least a.

    Walk: every (k, group, replicate, n0) is one row, and the rows are
    ordered by group size, largest first, so the rows still walking at step
    t are a prefix.  The whole grid takes total_agents lockstep steps, cut
    where that prefix shrinks, at each distinct group size; each step makes
    one greedy comparison and one gather of the pulled arm's next code per
    row; pulling arm 2 pays when the code exceeds 1, arm 1 when it exceeds 0.
    The walk counts in int32 when (max(n0_grid) + total_agents) *
    (2 max(n0_grid) + total_agents), which bounds every count and product,
    and the number of codes, which bounds every code index, are both below
    2**31; otherwise in int64.  The rows' counts are then pooled per
    (n0, k, replicate) in int64.
    """
    check_sweep(n0_grid, k_grid, total_agents)
    groups = []  # (size, k row, first uniform) of every group of every k cell
    for row, k in enumerate(k_grid):
        first = 0
        for m in group_sizes(total_agents, k):
            groups.append((m, row, first))
            first += 2 * m
    groups.sort(key=lambda group: -group[0])

    width = 2 * total_agents
    # Cells are (replicate, n0) pairs, replicate-major.  Their count is known
    # only once the streams run out, so the codes grow in one buffer, which
    # the walk then reads without a copy.
    history, codes, n_reps = [], bytearray(), 0  # history: (s1, s2) per cell
    for n_reps, stream in enumerate(streams, 1):
        mu1, mu2 = draw_environment(stream)
        after_environment = stream.state()
        for n0 in n0_grid:
            stream.restore(after_environment)
            history.append(draw_initial_history(mu1, mu2, n0, stream))
            u = stream.uniforms(width)
            codes.extend(np.add(u < mu1, u < mu2, dtype=np.uint8))
            del u  # so that the next block is not drawn while this one is alive
    n_cells = len(history)
    big = max(n0_grid)
    fits = (big + total_agents) * (2 * big + total_agents) < 2**31 and n_cells * width < 2**31
    count = np.int32 if fits else np.int64
    s1, s2 = np.array(history, dtype=count).reshape(-1, 2).T
    n0 = np.tile(np.array(n0_grid, dtype=count), n_reps)
    codes = np.frombuffer(codes, dtype=np.uint8)
    size, krow, first = np.array(groups, dtype=count).reshape(-1, 3).T

    # Per row, cell-major within each group slot: successes of arm 1 and of
    # both arms and pulls of arm 1 and of both arms, each with the history
    # included, and the code index of the next arm-1 and arm-2 reward.  The
    # greedy rule pulls arm 2 when (at - a1) * b1 > a1 * (bt - b1), i.e.
    # at * b1 > a1 * bt.
    n_groups = len(groups)
    a1 = np.tile(s1, n_groups)
    at = np.tile(s1 + s2, n_groups)
    b1 = np.tile(n0, n_groups)
    bt = 2 * b1
    cell_first = np.arange(n_cells, dtype=count) * width
    p1 = (first[:, None] + cell_first).reshape(-1)
    p2 = ((first + size)[:, None] + cell_first).reshape(-1)
    sizes = sorted({m for m, _, _ in groups})
    for start, m in zip([0, *sizes], sizes):
        # Steps start .. m - 1 walk the groups of at least m agents;
        # A1 .. P2 are views of their rows.
        live = np.count_nonzero(size >= m) * n_cells
        A1, AT, B1, BT, P1, P2 = (x[:live] for x in (a1, at, b1, bt, p1, p2))
        for _ in range(start, m):
            pick2 = B1 * AT > A1 * BT
            pick1 = ~pick2
            reward = codes.take(np.where(pick2, P2, P1)) > pick2
            AT += reward
            A1 += reward & pick1
            B1 += pick1
            BT += 1
            P1 += pick1
            P2 += pick2

    # Pool each k cell's groups; its arm 2 has the rest of the pulls and wins.
    shape = (n_groups, n_cells)
    n1, z1, z = (np.zeros((len(k_grid), n_cells), dtype=np.int64) for _ in range(3))
    np.add.at(n1, krow, b1.reshape(shape) - n0)
    np.add.at(z1, krow, a1.reshape(shape) - s1)
    np.add.at(z, krow, at.reshape(shape) - (s1 + s2))
    n2 = total_agents - n1
    z2 = z - z1
    failed = (s2 + z2) * (n0 + n1) > (s1 + z1) * (n0 + n2)
    return failed.astype(np.int64).reshape(len(k_grid), n_reps, len(n0_grid)).transpose(2, 0, 1)
