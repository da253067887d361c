"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every Monte Carlo criterion is pinned to one master seed; ordering
claims are asserted in units of pooled standard errors, exact claims as
rational equalities, and each criterion enforces its own runtime budget.
"""

from __future__ import annotations

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np

from monolab import bandit2, exact, hiring
from monolab.experiments import (
    Bandit2Config,
    EnumerateConfig,
    HiringBanditConfig,
    HiringConfig,
    rows_to_csv_text,
    run,
)
from monolab.streams import derive_stream

from oracles import is_stable, random_small_instance, run_group, serial_dictatorship

SEED = 20260814

# criteria that emit CSVs cache their workers=1 text for the invariance check
_CSV_CACHE: dict[str, tuple[object, str]] = {}

CSV_CONFIGS = {
    "sequential-hiring": HiringConfig(
        mode="sequential", n_candidates=200, firm_grid=(4, 16, 64), noise_sd=0.5,
        capacity=1, n_runs=500, master_seed=SEED, workers=1,
    ),
    "simultaneous-hiring": HiringConfig(
        mode="simultaneous", n_candidates=300, firm_grid=(2, 8, 16), noise_sd=0.5,
        capacity=10, n_runs=300, master_seed=SEED, workers=1,
    ),
    "failure-sweep": Bandit2Config(
        total_agents=1000, n0_grid=(1, 5, 10), k_grid=(1, 2, 4, 8),
        n_runs=10000, master_seed=SEED, workers=1,
    ),
    "claim-game": HiringBanditConfig(
        n_arms=50, n_rounds=100, agent_grid=(5, 10, 20), n0=5,
        n_runs=200, master_seed=SEED, workers=1,
    ),
}


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _gap_z(hi, lo) -> float:
    return (hi.value - lo.value) / math.hypot(hi.stderr, lo.stderr)


def _baseline_csv(name: str) -> str:
    if name not in _CSV_CACHE:
        cfg = CSV_CONFIGS[name]
        _CSV_CACHE[name] = (cfg, rows_to_csv_text(run(cfg)))
    return _CSV_CACHE[name][1]


def test_criterion_1_exact_exclusion_probabilities():
    start = time.monotonic()
    mono = exact.enumerate_sequential_outcomes(3, 2, "mono")
    poly = exact.enumerate_sequential_outcomes(3, 2, "poly")
    veil = exact.veil_group_exclusion(100, 90, 10)
    elapsed = time.monotonic() - start
    ok = (
        list(mono) == [Fraction(1, 3)] * 3
        and list(poly) == [Fraction(12, 36)] * 3
        and veil == Fraction(1, math.comb(100, 10))
        and elapsed < 1.0
    )
    _report(
        1, ok,
        f"mono=1/3 each, poly=12/36 each, group exclusion 1/C(100,10); "
        f"{elapsed:.3f}s < 1s",
    )


def test_criterion_2_order_sensitivity_examples():
    start = time.monotonic()
    disagree, disagree_sensitive = exact.hiring_order_sensitivity(
        [("A", "B", "C"), ("A", "C", "B")])
    reversal, reversal_sensitive = exact.hiring_order_sensitivity(
        [("A", "B", "C"), ("C", "B", "A")])
    elapsed = time.monotonic() - start
    ok = (
        disagree[(0, 1)] == frozenset({"B"})
        and disagree[(1, 0)] == frozenset({"C"})
        and disagree_sensitive
        and reversal[(0, 1)] == frozenset({"B"})
        and reversal[(1, 0)] == frozenset({"B"})
        and not reversal_sensitive
        and elapsed < 1.0
    )
    _report(
        2, ok,
        f"disagreeing rankings leave B then C jobless (order-sensitive), "
        f"reversed rankings leave B either way; {elapsed:.3f}s < 1s",
    )


def _hiring_ordering_z(name: str) -> float:
    """Smallest pairwise gap (in pooled SEs) of ensemble > poly > mono."""
    cfg = CSV_CONFIGS[name]
    rows = run(cfg)
    _CSV_CACHE[name] = (cfg, rows_to_csv_text(rows))
    by = {(r.regime, r.param_value): r for r in rows}
    worst = math.inf
    for firms in cfg.firm_grid:
        ens = by[("ensemble", float(firms))]
        poly = by[("poly", float(firms))]
        mono = by[("mono", float(firms))]
        worst = min(worst, _gap_z(ens, poly), _gap_z(poly, mono))
    return worst


def test_criterion_3_sequential_hiring_ordering():
    start = time.monotonic()
    worst_z = _hiring_ordering_z("sequential-hiring")
    elapsed = time.monotonic() - start
    ok = worst_z > 3.0 and elapsed < 120.0
    _report(
        3, ok,
        f"sequential hires, 200 candidates, firms (4,16,64), 500 runs: "
        f"ensemble > poly > mono, min gap {worst_z:.1f} pooled SE (need >3); "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_4_deferred_acceptance_ordering():
    start = time.monotonic()
    worst_z = _hiring_ordering_z("simultaneous-hiring")
    elapsed = time.monotonic() - start
    ok = worst_z > 3.0 and elapsed < 300.0
    _report(
        4, ok,
        f"deferred acceptance, 300 candidates, capacity 10, firms (2,8,16), "
        f"300 runs: ensemble > poly > mono, min gap {worst_z:.1f} pooled SE "
        f"(need >3); {elapsed:.1f}s < 300s",
    )


def test_criterion_5_stability_and_dictatorship_oracles():
    start = time.monotonic()
    stable_ok = mono_ok = True
    for i in range(1000):
        stream = derive_stream(SEED, 500_000 + i)
        scores, prefs = random_small_instance(stream)
        outcome = hiring.deferred_acceptance(scores, prefs, 1)
        stable_ok &= is_stable(outcome, scores, prefs, 1)
        shared = np.tile(scores[0], (scores.shape[0], 1))
        matched = hiring.deferred_acceptance(shared, prefs, 1)
        picked = serial_dictatorship(scores[0], prefs, 1)
        mono_ok &= bool(np.array_equal(matched, picked))
    elapsed = time.monotonic() - start
    ok = stable_ok and mono_ok and elapsed < 30.0
    _report(
        5, ok,
        f"1000 random small markets: deferred acceptance stable "
        f"({'yes' if stable_ok else 'NO'}), shared scores reproduce serial "
        f"dictatorship ({'yes' if mono_ok else 'NO'}); {elapsed:.1f}s < 30s",
    )


def test_criterion_6_split_exploration_failure_rates():
    start = time.monotonic()
    cfg = CSV_CONFIGS["failure-sweep"]
    rows = run(cfg)
    _CSV_CACHE["failure-sweep"] = (cfg, rows_to_csv_text(rows))
    by = {(r.regime, r.param_value): r for r in rows}
    min_gap = math.inf
    monotone = True
    for n0 in cfg.n0_grid:
        cells = [by[(f"k={k}", float(n0))] for k in cfg.k_grid]
        for cell in cells[1:]:
            min_gap = min(min_gap, _gap_z(cells[0], cell))
        for prev, nxt in zip(cells, cells[1:]):
            slack = 2.0 * math.hypot(prev.stderr, nxt.stderr)
            monotone &= nxt.value <= prev.value + slack
    elapsed = time.monotonic() - start
    ok = min_gap > 3.0 and monotone and elapsed < 600.0
    _report(
        6, ok,
        f"1000-agent budget, 10000 replicates: one group fails more than any "
        f"split (min gap {min_gap:.1f} pooled SE, need >3), rates non-increasing "
        f"in k within 2 SE ({'yes' if monotone else 'NO'}); {elapsed:.1f}s < 600s",
    )


def _greedy_min_violations() -> tuple[int, int]:
    violations = 0
    timesteps = 0
    for r in range(1000):
        stream = derive_stream(SEED, 300_000 + r)
        env = bandit2.draw_environment(stream)
        s1, s2 = bandit2.draw_initial_history(*env, 5, stream)
        trace = run_group(env, (5, s1, s2), 1000, stream)
        hat1, hat2 = trace.prefix_means((5, s1, s2))
        bound = min(s1, s2) / 5
        violations += int((np.minimum(hat1, hat2) > bound).sum())
        timesteps += len(trace)
    return violations, timesteps


def _mediant_violations() -> tuple[int, int]:
    gen = derive_stream(SEED, 310_000).gen
    cases = violations = 0
    while cases < 100_000:
        m = 200_000
        a = gen.integers(0, 1001, m)
        b = gen.integers(1, 1001, m)
        c = gen.integers(0, 1001, m)
        d = gen.integers(1, 1001, m)
        q = gen.integers(2, 1001, m)
        p = gen.integers(1, q)  # alpha = p/q in (0, 1)
        keep = a * d >= c * b
        lhs = (p * a + q * c) * (b + d)
        rhs = (a + c) * (p * b + q * d)
        violations += int((lhs[keep] > rhs[keep]).sum())
        cases += int(keep.sum())
    return violations, cases


def _running_mean_dip_frequencies() -> list[tuple[float, float, int, float, float]]:
    """(theta, delta, t0, frequency, binomial SE) per grid point, shared draws per theta."""
    horizon, n_runs, batch = 5000, 10_000, 1000
    combos = [(delta, t0) for delta in (0.1, 0.05) for t0 in (20, 50)]
    out = []
    for idx, theta in enumerate((0.3, 0.5, 0.7)):
        stream = derive_stream(SEED, 320_000 + idx)
        hits = {combo: 0 for combo in combos}
        for _ in range(n_runs // batch):
            draws = (stream.uniforms((batch, horizon)) < theta).astype(np.float64)
            means = np.cumsum(draws, axis=1) / np.arange(1, horizon + 1)
            suffix_min = np.minimum.accumulate(means[:, ::-1], axis=1)[:, ::-1]
            for delta, t0 in combos:
                threshold = theta - math.sqrt(2.0 * math.log(1.0 / delta) / t0)
                hits[(delta, t0)] += int((suffix_min[:, t0] <= threshold).sum())
        for delta, t0 in combos:
            freq = hits[(delta, t0)] / n_runs
            se = math.sqrt(freq * (1.0 - freq) / n_runs)
            out.append((theta, delta, t0, freq, se))
    return out


def test_criterion_7_mean_estimate_properties():
    start = time.monotonic()
    greedy_viol, timesteps = _greedy_min_violations()
    mediant_viol, mediant_cases = _mediant_violations()
    dip_ok = True
    worst_margin = math.inf
    for theta, delta, t0, freq, se in _running_mean_dip_frequencies():
        bound = delta + 3.0 * se
        dip_ok &= freq <= bound
        worst_margin = min(worst_margin, bound - freq)
    elapsed = time.monotonic() - start
    ok = (
        greedy_viol == 0
        and timesteps >= 1_000_000
        and mediant_viol == 0
        and mediant_cases >= 100_000
        and dip_ok
        and elapsed < 300.0
    )
    _report(
        7, ok,
        f"running-mean properties: greedy min bound 0/{timesteps} violations, "
        f"mediant inequality 0/{mediant_cases} violations, dip frequency within "
        f"bound at all 12 grid points (min margin {worst_margin:.3f}); "
        f"{elapsed:.1f}s < 300s",
    )


def test_criterion_8_claim_game_regret_and_observer():
    start = time.monotonic()
    cfg = CSV_CONFIGS["claim-game"]
    rows = run(cfg)
    _CSV_CACHE["claim-game"] = (cfg, rows_to_csv_text(rows))
    by = {(r.regime, r.param_value, r.metric): r for r in rows}
    regret_z = math.inf
    mis_z = math.inf
    cluster_max = 0.0
    for agents in cfg.agent_grid:
        a = float(agents)
        regret = {reg: by[(reg, a, "total_bayesian_regret")] for reg in
                  ("mono", "poly_fixed", "poly_random", "ensemble")}
        for poly in ("poly_fixed", "poly_random"):
            regret_z = min(regret_z, _gap_z(regret[poly], regret["ensemble"]))
            regret_z = min(regret_z, _gap_z(regret["mono"], regret[poly]))
        mis = {reg: by[(reg, a, "misclassification")] for reg in
               ("mono", "poly_fixed", "poly_random", "ensemble")}
        for poly in ("poly_fixed", "poly_random"):
            mis_z = min(mis_z, _gap_z(mis["mono"], mis[poly]))
        cluster = ("poly_fixed", "poly_random", "ensemble")
        for i, first in enumerate(cluster):
            for second in cluster[i + 1:]:
                gap = abs(mis[first].value - mis[second].value)
                pooled = math.hypot(mis[first].stderr, mis[second].stderr)
                cluster_max = max(cluster_max, gap / pooled)
    elapsed = time.monotonic() - start
    ok = regret_z > 3.0 and mis_z > 3.0 and cluster_max < 2.0 and elapsed < 900.0
    _report(
        8, ok,
        f"50 arms, 100 rounds, 200 runs: regret ensemble < poly < mono "
        f"(min gap {regret_z:.1f} SE), observer error mono > poly "
        f"(min gap {mis_z:.1f} SE), poly/ensemble cluster within 2 SE "
        f"(max {cluster_max:.2f}); {elapsed:.1f}s < 900s",
    )


def test_criterion_9_worker_count_invariance():
    mismatches = []
    for name in CSV_CONFIGS:
        baseline = _baseline_csv(name)
        cfg = dataclasses.replace(CSV_CONFIGS[name], workers=3)
        if rows_to_csv_text(run(cfg)) != baseline:
            mismatches.append(name)
    enum_rows = run(EnumerateConfig(n_candidates=3, n_firms=2, master_seed=SEED))
    if rows_to_csv_text(enum_rows) != rows_to_csv_text(
        run(EnumerateConfig(n_candidates=3, n_firms=2, master_seed=SEED))
    ):
        mismatches.append("enumerate")
    ok = not mismatches
    _report(
        9, ok,
        "workers=3 reruns reproduce workers=1 CSVs byte for byte"
        + ("" if ok else f" (mismatch: {', '.join(mismatches)})"),
    )
