"""Tests for experiment drivers, CSV I/O, figures, and the CLI."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monolab import bandit2, cli, experiments, hiring, hiring_bandit
from monolab.experiments import (
    Bandit2Config,
    EnumerateConfig,
    HiringBanditConfig,
    HiringConfig,
    OrderSensitivityConfig,
    PlotConfig,
    ResultRow,
    read_csv,
    rows_to_csv_text,
    run,
    write_csv,
)
from monolab.streams import derive_stream
from monolab.svg import Series, render_line_chart

SMALL_HIRING = HiringConfig(
    mode="sequential", n_candidates=30, firm_grid=(2, 4), n_runs=12, master_seed=41
)
SMALL_DA = HiringConfig(
    mode="simultaneous", n_candidates=24, firm_grid=(2, 3), capacity=2,
    n_runs=8, master_seed=42,
)
SMALL_BANDIT2 = Bandit2Config(
    total_agents=20, n0_grid=(1, 5), k_grid=(1, 2), n_runs=30, master_seed=43
)
SMALL_HB = HiringBanditConfig(
    n_arms=8, n_rounds=3, agent_grid=(2, 3), n0=2, n_runs=12, master_seed=44
)


def with_workers(cfg, workers):
    return type(cfg)(**{**cfg.__dict__, "workers": workers})


@pytest.mark.parametrize("cfg", [SMALL_HIRING, SMALL_DA, SMALL_BANDIT2, SMALL_HB])
def test_results_do_not_depend_on_worker_count(cfg):
    baseline = rows_to_csv_text(run(cfg))
    for workers in (2, 3):
        assert rows_to_csv_text(run(with_workers(cfg, workers))) == baseline


def test_split_ranges_cover_all_replicates():
    for n_runs, workers in [(1, 1), (7, 1), (7, 3), (100, 4), (3, 16)]:
        for block in (1, 2, 3, 36, 10**9):
            ranges = experiments._split_ranges(n_runs, workers, block)
            rebuilt = [r for a, b in ranges for r in range(a, b)]
            assert rebuilt == list(range(n_runs))
            assert all(0 < b - a <= block for a, b in ranges)
            # as few ranges as the block allows, but one per worker
            assert len(ranges) == max(min(n_runs, workers), -(-n_runs // block))
            if workers <= 1 and block >= n_runs:
                assert ranges == [(0, n_runs)]


def test_pool_size_follows_the_replicate_chunks(monkeypatch):
    requested = []

    class SerialPool:
        """Records the requested worker count and maps in this process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cfg = Bandit2Config(
        total_agents=10, n0_grid=(1,), k_grid=(1,), n_runs=3, master_seed=45, workers=8
    )
    serial = rows_to_csv_text(run(with_workers(cfg, 1)))
    assert requested == []  # one worker runs its chunks in this process
    assert rows_to_csv_text(run(cfg)) == serial
    # three replicates make three chunks, so eight workers would idle five
    assert requested == [3]
    # and the pool never outgrows the CPUs, however many workers are asked for
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert rows_to_csv_text(run(with_workers(cfg, 100_000))) == serial
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert rows_to_csv_text(run(cfg)) == serial
    assert requested == [3, 2]  # one CPU (or an unknown count) runs in this process


def test_row_aggregation_matches_kept_values():
    rows = run(SMALL_HIRING)
    values = experiments._collect(experiments._hiring_range, SMALL_HIRING)
    assert len(rows) == 2 * 3  # firm grid x regimes
    for row in rows:
        vals = values[(row.regime, row.param_value, row.metric)]
        assert len(vals) == SMALL_HIRING.n_runs
        assert row.value == pytest.approx(vals.mean())
        assert row.stderr == pytest.approx(vals.std(ddof=1) / np.sqrt(len(vals)))
        assert row.kind == "hiring-seq"
        assert row.metric == "normalized_performance"


def test_bandit2_rows_use_binomial_stderr():
    rows = run(SMALL_BANDIT2)
    values = experiments._collect(experiments._bandit2_range, SMALL_BANDIT2)
    assert len(rows) == 2 * 2
    for row in rows:
        vals = values[(row.regime, row.param_value, row.metric)]
        rate = vals.mean()
        assert row.value == pytest.approx(rate)
        assert row.stderr == pytest.approx(np.sqrt(rate * (1 - rate) / len(vals)))


def test_hiring_bandit_rows_cover_both_metrics():
    rows = run(SMALL_HB)
    assert len(rows) == 2 * 4 * 2  # agent grid x regimes x metrics
    metrics = {(r.regime, r.metric) for r in rows}
    assert ("mono", "total_bayesian_regret") in metrics
    assert ("poly_random", "misclassification") in metrics


def test_config_validation_messages():
    with pytest.raises(ValueError, match="mode"):
        HiringConfig(mode="parallel")
    with pytest.raises(ValueError, match="sequential mode needs"):
        HiringConfig(mode="sequential", n_candidates=10, firm_grid=(16,))
    # every candidate hired (candidates == firms x capacity) is rejected up front
    with pytest.raises(ValueError, match="sequential mode needs"):
        HiringConfig(mode="sequential", n_candidates=4, firm_grid=(4,))
    with pytest.raises(ValueError, match=r"simultaneous mode needs candidates > "
                       r"firms x capacity = 2 x 10 = 20, got candidates 20"):
        HiringConfig(mode="simultaneous", n_candidates=20, firm_grid=(1, 2), capacity=10)
    HiringConfig(mode="sequential", n_candidates=5, firm_grid=(4,))
    HiringConfig(mode="simultaneous", n_candidates=21, firm_grid=(2,), capacity=10)
    with pytest.raises(ValueError, match="runs"):
        Bandit2Config(n_runs=0)
    with pytest.raises(ValueError, match="grid"):
        Bandit2Config(k_grid=())
    with pytest.raises(ValueError, match="k grid entries must be distinct"):
        Bandit2Config(k_grid=(1, 2, 1))
    with pytest.raises(ValueError, match="cannot split"):
        Bandit2Config(total_agents=4, k_grid=(8,))
    # grid entries must be ints: an integral float or a bool is not one
    with pytest.raises(ValueError, match="firms grid entries must be positive integers"):
        HiringConfig(n_candidates=20, firm_grid=(2.0,), n_runs=2)
    with pytest.raises(ValueError, match="n0 grid entries must be positive integers"):
        Bandit2Config(total_agents=10, n0_grid=(1.0,), k_grid=(2.0,), n_runs=2)
    with pytest.raises(ValueError, match="k grid entries must be positive integers"):
        Bandit2Config(total_agents=10, k_grid=(2.0,), n_runs=2)
    with pytest.raises(ValueError, match="agents grid entries must be positive integers"):
        HiringBanditConfig(agent_grid=(True, 2))
    assert run(Bandit2Config(total_agents=10, k_grid=(np.int64(2),), n_runs=2))
    with pytest.raises(ValueError, match="more arms than agents"):
        HiringBanditConfig(n_arms=8, agent_grid=(8,))
    with pytest.raises(ValueError, match=r"rounds must be >= 1, got 0"):
        HiringBanditConfig(n_rounds=0)
    with pytest.raises(ValueError, match=r"rounds must be >= 1, got -3"):
        HiringBanditConfig(n_rounds=-3)
    HiringBanditConfig(n_rounds=1)
    # int fields take ints only, float fields any real number but a bool
    with pytest.raises(ValueError, match=r"runs must be an integer, got 2\.5"):
        Bandit2Config(total_agents=10, k_grid=(1,), n0_grid=(1,), n_runs=2.5)
    with pytest.raises(ValueError, match="capacity must be an integer, got True"):
        HiringConfig(capacity=True)
    with pytest.raises(ValueError, match=r"arms must be an integer, got 10\.0"):
        HiringBanditConfig(n_arms=10.0)
    with pytest.raises(ValueError, match="seed must be an integer, got '3'"):
        EnumerateConfig(master_seed="3")
    with pytest.raises(ValueError, match="seed must be an integer, got False"):
        OrderSensitivityConfig(rankings=(("A",),), master_seed=False)
    with pytest.raises(ValueError, match="noise_sd must be a number, got True"):
        HiringConfig(noise_sd=True)
    assert HiringConfig(noise_sd=1, n_runs=np.int64(3)).n_runs == 3
    # a seed must be a stream key, and noise must be finite, before any replicate runs
    for bad in (-1, 2**64):
        message = rf"seed must fit in an unsigned 64-bit integer, got {bad}"
        with pytest.raises(ValueError, match=message):
            HiringConfig(master_seed=bad)
        with pytest.raises(ValueError, match="seed must fit"):
            EnumerateConfig(master_seed=bad)
    assert HiringConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1
    for bad in (float("nan"), float("inf"), -float("inf"), np.float32("inf"), 10**400):
        with pytest.raises(ValueError, match="noise_sd must be finite"):
            HiringConfig(noise_sd=bad)
    with pytest.raises(TypeError):
        run(object())


# Every (command, field) whose metadata sets a minimum.
MINIMUM_FIELDS = [
    (command, f)
    for command, (config_cls, _, _) in cli.COMMANDS.items()
    for f in dataclasses.fields(config_cls)
    if f.metadata["minimum"] is not None
]


def test_minimum_fields_are_declared():
    declared = {(command, f.metadata["flag"]) for command, f in MINIMUM_FIELDS}
    assert {("hiring", "noise_sd"), ("hiring", "capacity"), ("hiring", "candidates"),
            ("bandit2", "runs"), ("hiring-bandit", "workers")} <= declared


@pytest.mark.parametrize(
    "command, f", MINIMUM_FIELDS,
    ids=[f"{command}-{f.metadata['flag']}" for command, f in MINIMUM_FIELDS],
)
def test_every_minimum_rejects_one_below(command, f, capsys):
    # built from the library and from the command line, every other field at
    # its default: the field's own check fires first, with its flag's name
    flag, below = f.metadata["flag"], f.metadata["minimum"] - 1
    message = f"{flag} must be >= {f.metadata['minimum']}, got"
    config_cls = cli.COMMANDS[command][0]
    with pytest.raises(ValueError, match=re.escape(f"{message} {below}")):
        config_cls(**{f.name: below})
    assert cli.main([command, f"--{flag.replace('_', '-')}={below}"]) == 2
    assert message in capsys.readouterr().err


def _error(build) -> str | None:
    try:
        build()
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("agents, arms, rounds, n0", [
    (2, 2, 5, 1),  # no more arms than agents
    (3, 2, 5, 1),
    (2, 8, 0, 1),  # no round
    (2, 8, -3, 1),
    (2, 8, 5, -1),  # negative initial sample count
    (2, 3, 1, 0),  # the smallest playable game
    (31, 100, 200, 5),
    # an arm's count, 4 + agents x n0 + rounds, must stay below 2**63
    (2, 8, 5, 2**62 - 5),
    (2, 8, 5, 2**62 - 4),
    (3, 8, 5, 10**20),
    # one replicate's arrays, by hiring_bandit.replicate_bytes, must stay
    # within streams.MAX_REPLICATE_BYTES
    (2, 10**11, 1, 0),
    (2, 3, 10**10, 1),
    (2000, 10000, 1, 1),
    (32, 100, 10**6, 5),
])
def test_claim_game_config_and_model_reject_the_same_games(agents, arms, rounds, n0):
    model = _error(lambda: hiring_bandit.simulate_run(
        (1, agents), arms, rounds, n0, [derive_stream(0, 0)]
    ))
    config = _error(lambda: HiringBanditConfig(
        n_arms=arms, n_rounds=rounds, agent_grid=(1, agents), n0=n0
    ))
    assert model == config


HIRING_MARKETS = [
    # (mode, candidates, firms, rejected, noise sd)
    # one replicate's arrays, by hiring.replicate_bytes, must stay within
    # streams.MAX_REPLICATE_BYTES: 8 x (4 f + 32) bytes per candidate for
    # sequential hiring, 8 x (15 f + 32) for simultaneous
    ("sequential", 10**11, 2, True, 0.5),
    ("simultaneous", 10**11, 2, True, 0.5),
    ("sequential", 10**6, 25, False, 0.5),
    ("sequential", 10**6, 30, True, 0.5),
    ("simultaneous", 10**5, 64, False, 0.5),
    ("simultaneous", 10**5, 100, True, 0.5),
    ("simultaneous", 1000, 64, False, 0.5),
    # candidates > firms x capacity (1 sequential, 10 simultaneous)
    ("sequential", 64, 64, True, 0.5),
    ("simultaneous", 640, 64, True, 0.5),
    ("simultaneous", 641, 64, False, 0.5),
    # a score, or ensemble's sum over the firms' rows, must not overflow a float
    ("sequential", 20, 2, True, 1e308),
    ("sequential", 200, 64, True, 1e307),
    ("sequential", 200, 64, False, 1e305),
]


def _first_draw(n_candidates, stream):
    raise ValueError("first draw")


# The ids leave out the default noise sd.
@pytest.mark.parametrize("mode, candidates, firms, rejected, noise_sd", HIRING_MARKETS, ids=[
    "-".join(map(str, market[:4 if market[4] == 0.5 else 5])) for market in HIRING_MARKETS
])
def test_hiring_config_and_model_reject_the_same_markets(
    mode, candidates, firms, rejected, noise_sd, monkeypatch
):
    # A market the model accepts stops at its first draw instead of playing:
    # at 10**6 candidates one replicate takes 1 GiB.
    monkeypatch.setattr(hiring, "generate_market", _first_draw)
    capacity = experiments.DEFAULT_CAPACITY[mode]
    model = _error(lambda: hiring.simulate_run(
        candidates, (1, firms), noise_sd, capacity, mode == "simultaneous",
        [derive_stream(0, 0)]
    ))
    config = _error(lambda: HiringConfig(
        mode=mode, n_candidates=candidates, firm_grid=(1, firms), noise_sd=noise_sd
    ))
    assert model == (config or "first draw")
    assert (config is not None) == rejected


def test_noise_sd_within_the_bound_runs_without_overflow():
    # 1e305 x 13.71 x 64 rows stays below the largest float; 1e307 is rejected
    # (see HIRING_MARKETS), and an overflow warning would raise here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run(HiringConfig(n_candidates=200, firm_grid=(64,), noise_sd=1e305, n_runs=1))
    assert all(np.isfinite(row.value) for row in rows)


@pytest.mark.parametrize("mode, candidates, firm_grid, capacity", [
    ("sequential", 2000, (63, 64), 1),
    ("sequential", 700, (300, 299), 2),
    ("sequential", 30, (2, 7), 4),
    ("simultaneous", 2000, (63, 64), 10),
    ("simultaneous", 700, (300, 299), 2),
    ("simultaneous", 300, (3,), 99),
])
def test_hiring_replicate_bytes_bounds_what_a_replicate_allocates(
    mode, candidates, firm_grid, capacity
):
    # numpy reports its array buffers to tracemalloc; a fixed 64 KiB covers
    # the array headers and Python objects of a small market.  Replicates
    # run one after another, so the whole range stays within one replicate.
    cfg = HiringConfig(mode=mode, n_candidates=candidates, firm_grid=firm_grid,
                       capacity=capacity, n_runs=2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        experiments._hiring_range(cfg, 0, cfg.n_runs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = hiring.replicate_bytes(candidates, max(firm_grid), mode == "simultaneous")
    assert peak <= size + 64 * 1024


def test_bandit2_config_uses_the_model_split_rule():
    with pytest.raises(ValueError) as err:
        bandit2.group_sizes(4, 8)
    with pytest.raises(ValueError, match=re.escape(str(err.value))):
        Bandit2Config(total_agents=4, k_grid=(8,))
    with pytest.raises(ValueError, match=re.escape(str(err.value))):
        Bandit2Config(total_agents=4, k_grid=(1, 8, 2))
    assert Bandit2Config(total_agents=8, k_grid=(8,)).total_agents == 8


def test_exact_configs_are_validated_when_built():
    with pytest.raises(ValueError, match="too large for enumeration"):
        EnumerateConfig(n_candidates=9)
    for n_candidates, n_firms in [(6, 4), (6, 3), (5, 4), (10, 1), (10**400, 1)]:
        with pytest.raises(ValueError, match="too large for enumeration"):
            EnumerateConfig(n_candidates=n_candidates, n_firms=n_firms)
    # every size up to 2,000,000 ranking profiles is accepted
    for n_candidates, n_firms in [(5, 3), (6, 2), (4, 4), (9, 1)]:
        assert EnumerateConfig(n_candidates=n_candidates, n_firms=n_firms).n_firms == n_firms
    with pytest.raises(ValueError, match="more firms than candidates"):
        EnumerateConfig(n_candidates=2, n_firms=3)
    with pytest.raises(ValueError, match="strict order"):
        OrderSensitivityConfig(rankings=(("A", "B"), ("A", "A")))
    with pytest.raises(ValueError, match="at least one firm ranking"):
        OrderSensitivityConfig(rankings=())


def test_hiring_config_defaults_by_mode():
    assert HiringConfig().mode == "sequential"
    assert HiringConfig().capacity == 1
    assert HiringConfig(mode="simultaneous").capacity == 10
    assert HiringConfig(mode="simultaneous", capacity=3).capacity == 3
    assert HiringConfig(mode="sequential", capacity=2).capacity == 2


def test_kind_is_fixed_by_the_config_type():
    configs = [SMALL_HIRING, SMALL_BANDIT2, SMALL_HB, EnumerateConfig(),
               OrderSensitivityConfig(rankings=(("A",),))]
    for cfg in configs:
        with pytest.raises(TypeError):
            type(cfg)(**cfg.__dict__, kind="relabelled")


def test_csv_header_is_pinned():
    # the header is read from ResultRow's fields, so reordering them would
    # change the file format: pin the text here, not from CSV_HEADER
    header = "kind,regime,param_name,param_value,metric,value,stderr,n_runs,seed,exact"
    assert ",".join(experiments.CSV_HEADER) == header
    assert rows_to_csv_text([]) == header + "\n"


def test_csv_round_trip(tmp_path):
    rows = run(SMALL_BANDIT2)
    path = tmp_path / "out.csv"
    write_csv(rows, str(path))
    assert read_csv(str(path)) == rows
    text = path.read_text()
    assert text.startswith(",".join(experiments.CSV_HEADER) + "\n")
    assert text == rows_to_csv_text(rows)


def test_csv_round_trip_preserves_floats_exactly(tmp_path):
    row = ResultRow("bandit2", "k=1", "n0", 1.0, "failure_rate",
                    0.1 + 0.2, 1e-17, 3, 9, "")
    path = tmp_path / "tiny.csv"
    write_csv([row], str(path))
    back = read_csv(str(path))[0]
    assert back.value == row.value
    assert back.stderr == row.stderr


_LABELS = st.text(st.characters(blacklist_categories=("Cs",)))


@given(kind=_LABELS, regime=_LABELS, param_name=_LABELS, metric=_LABELS, exact=_LABELS)
@settings(
    deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_csv_round_trip_any_labels(tmp_path, kind, regime, param_name, metric, exact):
    row = ResultRow(kind, regime, param_name, 2.0, metric, 0.25, 0.0, 1, 7, exact)
    path = tmp_path / "labels.csv"
    write_csv([row], str(path))
    assert read_csv(str(path)) == [row]


def test_read_csv_reports_line_numbers(tmp_path):
    header = ",".join(experiments.CSV_HEADER)
    good = "bandit2,k=1,n0,1.0,failure_rate,0.5,0.1,10,0,"

    path = tmp_path / "short.csv"
    path.write_text(header + "\n" + good + "\n" + "bandit2,k=1,n0\n")
    with pytest.raises(ValueError, match=r"line 3: expected 10 fields"):
        read_csv(str(path))

    path = tmp_path / "badfloat.csv"
    path.write_text(header + "\n" + good.replace("0.5", "xx") + "\n")
    with pytest.raises(ValueError, match=r"line 2"):
        read_csv(str(path))

    path = tmp_path / "badheader.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match=r"line 1: bad header"):
        read_csv(str(path))

    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        read_csv(str(path))


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "data.txt"
    experiments.atomic_write_text("hello\n", str(target))
    assert target.read_text() == "hello\n"
    # failed replace (target is a directory) must clean up its temp file
    blocked = tmp_path / "adir"
    blocked.mkdir()
    with pytest.raises(OSError):
        experiments.atomic_write_text("x", str(blocked))
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


def test_output_files_get_the_mode_of_a_new_file(tmp_path):
    # a CSV or SVG written through a temp file gets 0666 less the umask, as
    # open() would give it, not mkstemp's private 0600
    csv_path, svg_path = tmp_path / "perm.csv", tmp_path / "perm.svg"
    old = os.umask(0o022)
    try:
        assert cli.main(["enumerate", "--out", str(csv_path)]) == 0
        assert cli.main(["plot", "--csv", str(csv_path), "--out", str(svg_path)]) == 0
        os.umask(0o027)
        experiments.atomic_write_text("x", str(tmp_path / "other.txt"))
    finally:
        os.umask(old)
    assert (csv_path.stat().st_mode & 0o777) == 0o644
    assert (svg_path.stat().st_mode & 0o777) == 0o644
    assert ((tmp_path / "other.txt").stat().st_mode & 0o777) == 0o640


def test_one_process_run_does_not_load_multiprocessing(tmp_path):
    out = tmp_path / "bandit2.csv"
    argv = ["bandit2", "--agents", "10", "--runs", "4", "--workers", "1", "--out", str(out)]
    script = (
        "import sys\n"
        "import monolab.cli as cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "loaded = [m for m in ('concurrent.futures.process', 'multiprocessing')\n"
        "          if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def _range_failing_in_worker(cfg, start, stop):
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("replicate range failed in a worker")
    return experiments._bandit2_range(cfg, start, stop)


def test_failed_worker_leaves_no_output(tmp_path, monkeypatch):
    table = dict(experiments._RUNNERS)
    table[Bandit2Config] = functools.partial(
        experiments.run_monte_carlo, _range_failing_in_worker, "n0", experiments._binomial_se
    )
    monkeypatch.setattr(experiments, "_RUNNERS", table)
    out = tmp_path / "bandit2.csv"
    with pytest.raises(RuntimeError, match="failed in a worker"):
        cli.main(["bandit2", "--agents", "10", "--runs", "4", "--workers", "2",
                  "--out", str(out)])
    assert os.listdir(tmp_path) == []


def test_enumerate_rows_carry_exact_fractions():
    rows = run(EnumerateConfig(n_candidates=3, n_firms=2))
    mono = [r for r in rows if r.regime == "mono"]
    poly = [r for r in rows if r.regime == "poly"]
    assert [r.exact for r in mono] == ["1/3", "1/3", "1/3"]
    assert [r.exact for r in poly] == ["1/3", "1/3", "1/3"]
    assert all(r.value == pytest.approx(1 / 3) for r in rows)


def test_order_sensitivity_rows():
    cfg = OrderSensitivityConfig(rankings=(("A", "B", "C"), ("A", "C", "B")))
    rows = run(cfg)
    by_order = {r.regime: r.exact for r in rows if r.regime != "all"}
    assert by_order == {"0-1": "B", "1-0": "C"}
    summary = [r for r in rows if r.regime == "all"]
    assert len(summary) == 1
    assert summary[0].metric == "sensitive"
    assert summary[0].value == 1.0


def test_plot_pipeline(tmp_path):
    csv_path = tmp_path / "b2.csv"
    svg_path = tmp_path / "b2.svg"
    write_csv(run(SMALL_BANDIT2), str(csv_path))
    experiments.plot_csv(PlotConfig(csv=str(csv_path), out=str(svg_path)))
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert "<polyline" in svg
    assert "k=1" in svg and "k=2" in svg
    assert "failure_rate" in svg


def test_plot_rejects_empty_selection(tmp_path):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text(",".join(experiments.CSV_HEADER) + "\n")
    out = tmp_path / "fig.svg"
    with pytest.raises(ValueError, match="empty.csv: no rows to plot"):
        experiments.plot_csv(PlotConfig(csv=str(csv_path), out=str(out)))
    assert not out.exists()
    csv_path = tmp_path / "b2.csv"
    write_csv(run(SMALL_BANDIT2), str(csv_path))
    with pytest.raises(ValueError, match="b2.csv: no rows with metric='regret'"):
        experiments.plot_csv(PlotConfig(csv=str(csv_path), out=str(out), metric="regret"))
    assert not out.exists()
    assert [f.name for f in dataclasses.fields(PlotConfig)] == ["csv", "out", "metric"]


# One small config per plottable kind.
_PLOTTABLE = {cfg.kind: cfg for cfg in (
    SMALL_HIRING, SMALL_DA, SMALL_BANDIT2, SMALL_HB, EnumerateConfig())}


@pytest.mark.parametrize("kind, metric", [
    *((kind, None) for kind in experiments.DEFAULT_PLOT_METRIC),
    ("hiring-bandit", "misclassification"),
])
def test_plot_takes_its_kind_from_the_file(tmp_path, kind, metric):
    # the figure is the chart of the file's rows of the metric, one series
    # per regime with +/-2 SE bars, titled with the file's kind
    csv_path, svg_path = tmp_path / "res.csv", tmp_path / "fig.svg"
    write_csv(run(_PLOTTABLE[kind]), str(csv_path))
    args = ["plot", "--csv", str(csv_path), "--out", str(svg_path)]
    assert cli.main(args + (["--metric", metric] if metric else [])) == 0
    metric = metric or experiments.DEFAULT_PLOT_METRIC[kind]
    rows = [r for r in read_csv(str(csv_path)) if r.metric == metric]
    series = []
    for regime in dict.fromkeys(r.regime for r in rows):
        points = sorted((r.param_value, r.value, 2.0 * r.stderr)
                        for r in rows if r.regime == regime)
        series.append(Series(regime, *zip(*points)))
    expected = render_line_chart(series, rows[0].param_name, metric, kind)
    assert svg_path.read_text() == expected


def test_plot_refuses_a_file_it_cannot_title(tmp_path, capsys, monkeypatch):
    # no rows, rows of two kinds, or a kind with no figure: a usage error
    # that names the file, and no SVG is written
    monkeypatch.chdir(tmp_path)
    header = ",".join(experiments.CSV_HEADER)
    (tmp_path / "header.csv").write_text(f"{header}\n")
    (tmp_path / "two.csv").write_text(
        f"{header}\nbandit2,k=1,n0,1.0,failure_rate,0.5,0.1,4,0,\n"
        "enumerate,mono,candidate,0.0,jobless_probability,0.5,0.0,1,0,1/2\n"
    )
    write_csv(run(OrderSensitivityConfig(rankings=(("A", "B"), ("B", "A")))), "order.csv")
    for name, message in [
        ("header.csv", "header.csv: no rows to plot"),
        ("two.csv", "two.csv: rows of 2 kinds ('bandit2', 'enumerate'), "
                    "but a figure plots one"),
        ("order.csv", "order.csv: cannot plot kind 'order-sensitivity'"),
    ]:
        assert cli.main(["plot", "--csv", name, "--out", "x.svg"]) == 2, name
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["header.csv", "order.csv", "two.csv"]


# ---------------------------------------------------------------------------
# CLI


def test_plot_extreme_finite_ranges(tmp_path, capsys, monkeypatch):
    # read_csv accepts every finite value; plot draws it or names the problem
    monkeypatch.chdir(tmp_path)
    header = ",".join(experiments.CSV_HEADER)
    for name, lo, hi in [
        ("underflow", "0.0", "5e-324"),  # a tick step that underflows to 0
        ("one-ulp", "1.0", "1.0000000000000002"),  # a tick step below one ulp
        ("tiny", "0.0", "1e-300"),
    ]:
        (tmp_path / f"{name}.csv").write_text(
            f"{header}\nbandit2,k=1,n0,1.0,failure_rate,{lo},0.0,4,0,\n"
            f"bandit2,k=1,n0,5.0,failure_rate,{hi},0.0,4,0,\n"
        )
        args = ["plot", "--csv", f"{name}.csv", "--out", f"{name}.svg"]
        assert cli.main(args) == 0, name
        root = ET.fromstring((tmp_path / f"{name}.svg").read_text())
        coords = [float(value) for el in root.iter() for key, value in el.attrib.items()
                  if key in ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy")]
        coords += [float(v) for el in root.iter("{http://www.w3.org/2000/svg}polyline")
                   for v in re.split("[ ,]", el.attrib["points"])]
        assert coords and all(np.isfinite(coords)), name
        # the tick labels are distinct
        ticks = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")
                 if el.attrib.get("text-anchor") == "end"]
        assert len(ticks) == len(set(ticks)) >= 2, (name, ticks)
    capsys.readouterr()
    (tmp_path / "overflow.csv").write_text(
        f"{header}\nbandit2,k=1,n0,1.0,failure_rate,-1e308,0.0,4,0,\n"
        f"bandit2,k=1,n0,5.0,failure_rate,1e308,0.0,4,0,\n"
    )
    args = ["plot", "--csv", "overflow.csv", "--out", "overflow.svg"]
    assert cli.main(args) == 2
    assert ("cannot plot failure_rate from -1e+308 to 1e+308: the range overflows a float"
            in capsys.readouterr().err)
    assert not (tmp_path / "overflow.svg").exists()


def test_cli_writes_csv_and_reports(tmp_path, capsys):
    out = tmp_path / "res.csv"
    code = cli.main(
        ["bandit2", "--agents", "20", "--n0", "1", "--k", "1,2",
         "--runs", "25", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    assert f"wrote {out}" in capsys.readouterr().out
    rows = read_csv(str(out))
    assert {r.regime for r in rows} == {"k=1", "k=2"}
    assert all(r.n_runs == 25 and r.seed == 5 for r in rows)


def test_cli_stdout_matches_library(capsys):
    code = cli.main(["enumerate", "--candidates", "3", "--firms", "2"])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed == rows_to_csv_text(run(EnumerateConfig(3, 2)))
    assert "1/3" in printed


def test_cli_order_sensitivity(capsys):
    code = cli.main(["order-sensitivity", "--rankings", "A>B>C;A>C>B"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "sensitive" in printed
    assert ",B" in printed and ",C" in printed


def test_cli_order_sensitivity_labels_with_commas_read_back(tmp_path):
    out = tmp_path / "order.csv"
    code = cli.main(
        ["order-sensitivity", "--rankings", "w>z>x,y;z>w>x,y", "--out", str(out)]
    )
    assert code == 0
    cfg = OrderSensitivityConfig(rankings=(("w", "z", "x,y"), ("z", "w", "x,y")))
    assert read_csv(str(out)) == run(cfg)


def test_cli_usage_errors_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["bandit2", "--runs", "0", "--agents", "10", "--n0", "1", "--k", "1"]) == 2
    assert "runs" in capsys.readouterr().err
    assert cli.main(["bandit2", "--k", "2,a"]) == 2
    err = capsys.readouterr().err
    assert "integer list" in err
    assert "k: expected a comma-separated integer list, got '2,a'" in err
    assert cli.main(["plot", "--csv", "x.csv"]) == 2
    assert "--out" in capsys.readouterr().err
    # the figure's kind comes from the file: plot has no --kind
    assert cli.main(["plot", "--csv", "x.csv", "--kind", "bandit2", "--out", "x.svg"]) == 2
    assert "unrecognized arguments: --kind bandit2" in capsys.readouterr().err
    assert cli.main(["enumerate", "--candidates", "9", "--firms", "2"]) == 2
    assert "enumeration" in capsys.readouterr().err
    # (n!)^f ranking profiles above the bound, refused before any is enumerated
    for candidates, firms in [(6, 4), (6, 3), (5, 4), (1000000000, 1)]:
        args = ["enumerate", "--candidates", str(candidates), "--firms", str(firms)]
        assert cli.main(args) == 2, args
        assert "too large for enumeration" in capsys.readouterr().err
    args = ["hiring", "--mode", "simultaneous", "--candidates", "20", "--firms", "2",
            "--capacity", "10", "--runs", "1"]
    assert cli.main(args) == 2
    assert "candidates > firms x capacity" in capsys.readouterr().err
    # rejected when the config is built, before any pool worker starts
    args = ["hiring-bandit", "--rounds", "0", "--arms", "8", "--agents", "2",
            "--runs", "4", "--workers", "2"]
    assert cli.main(args) == 2
    assert "rounds must be >= 1, got 0" in capsys.readouterr().err
    # counts that would overflow int64 are refused before any replicate runs
    for args, n0 in [
        (["bandit2", "--agents", "50", "--k", "1,2", "--n0", "4000000000"], 4000000000),
        (["bandit2", "--n0", f"1,{10**20}"], 10**20),
        (["hiring-bandit", "--n0", "4611686018427387904"], 2**62),
        (["hiring-bandit", "--n0", str(10**20), "--runs", "4", "--workers", "2"], 10**20),
    ]:
        assert cli.main(args) == 2, args
        captured = capsys.readouterr()
        assert f"n0 = {n0} is too large" in captured.err
        assert captured.out == ""
    # a game too large for memory is refused by size, before any array is made
    args = ["hiring-bandit", "--arms", "100000000000", "--rounds", "1", "--agents", "1",
            "--runs", "1"]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert "game too large: 1 agents, 100000000000 arms and 1 rounds need" in captured.err
    assert captured.out == ""
    # so are a hiring market and a bandit2 sweep (44.7 GiB of uniforms)
    for args, message in [
        (["hiring", "--candidates", "100000000000", "--firms", "2", "--runs", "1"],
         "market too large: 100000000000 candidates and 2 firms need"),
        (["hiring", "--mode", "simultaneous", "--candidates", "100000000000",
          "--firms", "2", "--runs", "1"],
         "market too large: 100000000000 candidates and 2 firms need"),
        (["bandit2", "--agents", "3000000000", "--n0", "1", "--k", "1", "--runs", "1"],
         "sweep too large: 3000000000 agents and k = 1 need"),
    ]:
        assert cli.main(args) == 2, args
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
    assert cli.main(["hiring", "--seed", "-1", "--runs", "4", "--workers", "2"]) == 2
    assert "seed must fit in an unsigned 64-bit integer" in capsys.readouterr().err
    assert cli.main(["hiring", "--noise-sd", "nan", "--runs", "4"]) == 2
    assert "noise_sd must be finite, got nan" in capsys.readouterr().err
    # a noise sd at which the scores of 64 firms could overflow a float
    args = ["hiring", "--candidates", "200", "--firms", "64", "--runs", "1",
            "--noise-sd", "1e307"]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert "noise_sd = 1e+307 is too large" in captured.err
    assert captured.out == ""
    assert cli.main(["order-sensitivity"]) == 2
    assert "rankings" in capsys.readouterr().err
    assert cli.main(["no-such-command"]) == 2
    # an empty string flag is a usage error, not a missing file, stdout or the default
    for args, flag in [
        (["plot", "--csv", "", "--out", "x.svg"], "csv"),
        (["enumerate", "--out", ""], "out"),
        (["plot", "--csv", "x.csv", "--out", "x.svg", "--metric", ""], "metric"),
        (["enumerate", "--config", ""], "config"),
    ]:
        assert cli.main(args) == 2, args
        captured = capsys.readouterr()
        assert f"{flag} must not be empty" in captured.err
        assert captured.out == ""
    # typed config-file values reach the config as they are: no int() or float()
    config = tmp_path / "cfg.json"
    small = {"agents": 10, "n0": "1", "k": "1", "runs": 2}
    for command, data, message in [
        ("bandit2", {**small, "k": [2.5, 1]}, "k grid entries must be positive integers"),
        ("bandit2", {**small, "n0": [True]}, "n0 grid entries must be positive integers"),
        ("bandit2", {**small, "runs": 2.7}, "runs must be an integer, got 2.7"),
        ("bandit2", {**small, "runs": True}, "runs must be an integer, got True"),
        # a value that fails to parse names its key
        ("bandit2", {**small, "runs": "abc"}, "runs: invalid literal for int()"),
        ("bandit2", {**small, "k": "1,x"}, "k: expected a comma-separated integer list"),
        ("order-sensitivity", {"rankings": "A>B;;B>A"}, "rankings: empty ranking"),
        ("hiring", {"candidates": 20, "firms": "2", "runs": 1, "noise_sd": True},
         "noise_sd must be a number, got True"),
        # a ranking is a list of labels, not "A>B" text inside a JSON list
        ("order-sensitivity", {"rankings": ["A>B", "B>A"]}, "rankings: expected a string"),
        ("order-sensitivity", {"rankings": [["A", 1]]}, "rankings: expected a string"),
        ("order-sensitivity", {"rankings": 5}, "rankings: expected a string"),
        # a string field takes a string: no file named "True", no str(list)
        ("enumerate", {"out": True}, "out must be a string, got True"),
        ("plot", {"csv": "x.csv", "out": 7}, "out must be a string, got 7"),
        ("plot", {"csv": "x.csv", "kind": "bandit2", "out": "x.svg"},
         "unknown config key 'kind' for command 'plot'"),
        ("hiring", {"mode": ["sequential"]}, "mode must be a string, got ['sequential']"),
        ("enumerate", {"out": ""}, "out must not be empty"),
    ]:
        config.write_text(json.dumps(data))
        assert cli.main([command, "--config", str(config)]) == 2, data
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
    # a non-finite param_value, value or stderr is a usage error, and no SVG is written
    header = ",".join(experiments.CSV_HEADER)
    first = "bandit2,k=1,n0,1.0,failure_rate,0.5,0.1,4,0,"
    for name, second in [
        ("inf.csv", "bandit2,k=1,n0,5.0,failure_rate,inf,0.1,4,0,"),
        ("nan.csv", "bandit2,k=1,n0,5.0,failure_rate,nan,0.1,4,0,"),
        ("x-nan.csv", "bandit2,k=1,n0,nan,failure_rate,0.25,0.1,4,0,"),
        ("se-inf.csv", "bandit2,k=1,n0,5.0,failure_rate,0.25,-inf,4,0,"),
    ]:
        (tmp_path / name).write_text(f"{header}\n{first}\n{second}\n")
        assert cli.main(["plot", "--csv", name, "--out", "x.svg"]) == 2
        captured = capsys.readouterr()
        assert f"{name}: line 3: expected a finite number" in captured.err, name
        assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == [
        "cfg.json", "inf.csv", "nan.csv", "se-inf.csv", "x-nan.csv"]


def test_cli_config_file_precedence(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"runs": 5, "seed": 3, "k": "1", "n0": "1", "agents": "12"}))
    code = cli.main(["bandit2", "--config", str(config), "--runs", "7"])
    assert code == 0
    rows = [line for line in capsys.readouterr().out.splitlines()[1:] if line]
    for line in rows:
        fields = line.split(",")
        assert fields[7] == "7"  # flag beats file
        assert fields[8] == "3"  # file beats default

    # null in the file counts as unset: the default applies
    config.write_text(json.dumps({"runs": 5, "seed": None, "k": "1", "n0": "1",
                                  "agents": "12", "workers": None}))
    assert cli.main(["bandit2", "--config", str(config)]) == 0
    assert capsys.readouterr().out == rows_to_csv_text(
        run(Bandit2Config(total_agents=12, n0_grid=(1,), k_grid=(1,), n_runs=5))
    )


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"horizon": 9}))
    assert cli.main(["bandit2", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "horizon" in err and "allowed" in err

    config.write_text("{not json")
    assert cli.main(["bandit2", "--config", str(config)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# Per command: a config file setting every key the command accepts except
# "out", each away from its default, and the config it stands for.
CLI_FILE_CASES = {
    "hiring": (
        {"mode": "simultaneous", "candidates": 25, "firms": "2,3", "noise_sd": 0.25,
         "capacity": 2, "runs": 5, "seed": 9, "workers": 2},
        HiringConfig(mode="simultaneous", n_candidates=25, firm_grid=(2, 3),
                     noise_sd=0.25, capacity=2, n_runs=5, master_seed=9, workers=2),
    ),
    "bandit2": (
        {"agents": 12, "n0": [1, 3], "k": "1,2", "runs": 20, "seed": 9, "workers": 2},
        Bandit2Config(total_agents=12, n0_grid=(1, 3), k_grid=(1, 2), n_runs=20,
                      master_seed=9, workers=2),
    ),
    "hiring-bandit": (
        {"arms": 6, "rounds": 3, "agents": "2,3", "n0": 1, "runs": 4, "seed": 9,
         "workers": 2},
        HiringBanditConfig(n_arms=6, n_rounds=3, agent_grid=(2, 3), n0=1, n_runs=4,
                           master_seed=9, workers=2),
    ),
    "enumerate": (
        {"candidates": 4, "firms": 3, "seed": 9},
        EnumerateConfig(n_candidates=4, n_firms=3, master_seed=9),
    ),
    "order-sensitivity": (
        {"rankings": [["A", "B", "C"], ["C", "A", "B"]], "seed": 9},
        OrderSensitivityConfig(rankings=(("A", "B", "C"), ("C", "A", "B")), master_seed=9),
    ),
}


@pytest.mark.parametrize("command", list(CLI_FILE_CASES))
def test_cli_config_file_with_every_key_matches_library(command, tmp_path, capsys):
    data, cfg = CLI_FILE_CASES[command]
    assert cli.main([command, "--help"]) == 0
    flags = set(re.findall(r"--([a-z0-9-]+)", capsys.readouterr().out))
    assert flags - {"help", "config"} == {key.replace("_", "-") for key in data} | {"out"}
    for f in dataclasses.fields(cfg):
        if f.name != "out":
            assert getattr(cfg, f.name) != f.default, f.name
    out = tmp_path / "res.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**data, "out": str(out)}))
    assert cli.main([command, "--config", str(config)]) == 0
    assert out.read_text() == rows_to_csv_text(run(cfg))


# Per command: the fewest flags that keep a run quick (or that are required),
# and the config holding the same values, every other field at its default.
CLI_DEFAULT_CASES = {
    "hiring": (["--runs", "2"], HiringConfig(n_runs=2)),
    "bandit2": (["--runs", "10"], Bandit2Config(n_runs=10)),
    "hiring-bandit": (["--runs", "1"], HiringBanditConfig(n_runs=1)),
    "enumerate": ([], EnumerateConfig()),
    "order-sensitivity": (
        ["--rankings", "A>B;B>A"], OrderSensitivityConfig(rankings=(("A", "B"), ("B", "A")))
    ),
}


@pytest.mark.parametrize("command", list(CLI_DEFAULT_CASES))
def test_cli_defaults_are_the_config_defaults(command, monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_WORKERS, raising=False)
    flags, cfg = CLI_DEFAULT_CASES[command]
    assert cli.main([command, *flags]) == 0
    assert capsys.readouterr().out == rows_to_csv_text(run(cfg))


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_cli_help_shows_every_field_default(command, capsys):
    assert cli.main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for f in dataclasses.fields(cli.COMMANDS[command][0]):
        if f.default is None or f.default is dataclasses.MISSING:
            continue
        shown = ",".join(map(str, f.default)) if isinstance(f.default, tuple) else f.default
        assert f"(default {shown})" in text, f.name
    if command in ("hiring", "bandit2", "hiring-bandit"):
        assert "$" + cli.ENV_WORKERS in text


def test_cli_missing_config_file_exits_3(tmp_path, capsys):
    assert cli.main(["bandit2", "--config", str(tmp_path / "nope.json")]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_env_workers(monkeypatch, capsys):
    args = ["bandit2", "--agents", "10", "--n0", "1", "--k", "1", "--runs", "4"]
    monkeypatch.setenv(cli.ENV_WORKERS, "not-a-number")
    assert cli.main(args) == 2
    assert cli.ENV_WORKERS in capsys.readouterr().err
    # explicit flag wins so the bad env value is never consulted
    assert cli.main(args + ["--workers", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setenv(cli.ENV_WORKERS, "0")
    assert cli.main(args) == 2
    capsys.readouterr()
    monkeypatch.setenv(cli.ENV_WORKERS, "2")
    assert cli.main(args) == 0


def test_cli_plot_end_to_end(tmp_path):
    csv_path = tmp_path / "hb.csv"
    write_csv(run(SMALL_HB), str(csv_path))
    out = tmp_path / "hb.svg"
    code = cli.main(
        ["plot", "--csv", str(csv_path), "--metric", "misclassification", "--out", str(out)]
    )
    assert code == 0
    assert "misclassification" in out.read_text()
    # an empty output path names no file: a usage error
    assert cli.main(["plot", "--csv", str(csv_path), "--out", ""]) == 2
    assert sorted(os.listdir(tmp_path)) == ["hb.csv", "hb.svg"]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "monolab.cli", "enumerate", "--candidates", "2", "--firms", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "jobless_probability" in proc.stdout
