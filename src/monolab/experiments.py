"""Experiment drivers: seeded sweeps, replicate parallelism, CSV results.

Replicate r of any experiment derives its randomness from
``(master_seed, r)`` and nothing else, so results do not depend on the
worker count: workers only decide which process replays which replicate
range, and the reduction always assembles per-replicate values in
replicate order before aggregating.  Every family runs its replicates in
ranges that fit a fixed memory budget by the config's ``replicate_bytes``,
at least one range per worker.  A range derives one stream per replicate
and passes them, in replicate order, with the config's whole parameter
grid, to its model (``hiring.simulate_run``, ``hiring_bandit.simulate_run``,
``bandit2.simulate_failures``), which reads each stream as its module
docstring says, so each replicate's stream is derived once per run.

CSV schema (one metric per row): the fields of ``ResultRow``, in order,
    kind, regime, param_name, param_value, metric, value, stderr, n_runs,
    seed, exact
where ``exact`` carries a num/den rational string for exact results and is
empty for Monte Carlo rows.  Files are written to a temporary name and
renamed into place, so an interrupted run never leaves a partial CSV.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import ClassVar

import numpy as np

from . import bandit2, exact, hiring, hiring_bandit
from .streams import _check_u64, derive_stream
from .svg import Series, render_line_chart

# Hires per firm when no capacity is given, by hiring mode; its keys are the modes.
DEFAULT_CAPACITY = {"sequential": 1, "simultaneous": 10}


# ---------------------------------------------------------------------------
# configs


def _param(flag: str, default=MISSING, help: str | None = None, choices=None, minimum=None):
    """A field set by ``--flag`` on the command line or ``flag`` in a config file."""
    return field(default=default, metadata=dict(
        flag=flag, help=help, choices=choices, minimum=minimum))


def _runs(default: int):
    return _param("runs", default, "replicates per cell", minimum=1)


def _seed():
    return _param("seed", 0, "master seed")


def _workers():
    return _param("workers", 1, "worker processes; $MONOLAB_WORKERS overrides the default",
                  minimum=1)


def _out():
    return _param("out", None, "output CSV path (default: stdout)")


@dataclass(frozen=True)
class HiringConfig:
    mode: str = _param(
        "mode", "sequential", "sequential picks or deferred acceptance",
        choices=tuple(DEFAULT_CAPACITY),
    )
    n_candidates: int = _param("candidates", 1000, minimum=1)
    firm_grid: tuple[int, ...] = _param(
        "firms", (2, 4, 8, 16, 32, 64), "comma-separated firm counts"
    )
    noise_sd: float = _param("noise_sd", 0.5, minimum=0)
    capacity: int | None = _param("capacity", None, "hires per firm (default {})".format(
        ", ".join(f"{n} {mode}" for mode, n in DEFAULT_CAPACITY.items())), minimum=1)
    n_runs: int = _runs(1000)
    master_seed: int = _seed()
    workers: int = _workers()
    out: str | None = _out()

    def __post_init__(self):
        _check_fields(self)
        if self.capacity is None:
            object.__setattr__(self, "capacity", DEFAULT_CAPACITY[self.mode])
        hiring.check_market(self.n_candidates, max(self.firm_grid), self.noise_sd,
                            self.capacity, self.mode == "simultaneous")

    @property
    def kind(self) -> str:
        return "hiring-seq" if self.mode == "sequential" else "hiring-sim"

    @property
    def replicate_bytes(self) -> int:
        return hiring.replicate_bytes(
            self.n_candidates, max(self.firm_grid), self.mode == "simultaneous")


@dataclass(frozen=True)
class Bandit2Config:
    total_agents: int = _param("agents", 1000, "total decision budget")
    n0_grid: tuple[int, ...] = _param(
        "n0", (1, 5, 10), "comma-separated initial sample counts"
    )
    k_grid: tuple[int, ...] = _param("k", (1, 2, 4, 8), "comma-separated group counts")
    n_runs: int = _runs(10000)
    master_seed: int = _seed()
    workers: int = _workers()
    out: str | None = _out()
    kind: ClassVar[str] = "bandit2"

    def __post_init__(self):
        _check_fields(self)
        bandit2.check_sweep(self.n0_grid, self.k_grid, self.total_agents)

    @property
    def replicate_bytes(self) -> int:
        return bandit2.replicate_bytes(self.total_agents, self.k_grid, len(self.n0_grid))


@dataclass(frozen=True)
class HiringBanditConfig:
    n_arms: int = _param("arms", 100)
    n_rounds: int = _param("rounds", 200)
    agent_grid: tuple[int, ...] = _param(
        "agents", (2, 4, 8, 16, 32), "comma-separated agent counts"
    )
    n0: int = _param("n0", 5, "initial samples per arm")
    n_runs: int = _runs(1000)
    master_seed: int = _seed()
    workers: int = _workers()
    out: str | None = _out()
    kind: ClassVar[str] = "hiring-bandit"

    def __post_init__(self):
        _check_fields(self)
        hiring_bandit.check_game(self.agent_grid, self.n_arms, self.n_rounds, self.n0)

    @property
    def replicate_bytes(self) -> int:
        return hiring_bandit.replicate_bytes(max(self.agent_grid), self.n_arms, self.n_rounds)


@dataclass(frozen=True)
class EnumerateConfig:
    n_candidates: int = _param("candidates", 3)
    n_firms: int = _param("firms", 2)
    master_seed: int = _seed()
    out: str | None = _out()
    kind: ClassVar[str] = "enumerate"

    def __post_init__(self):
        _check_fields(self)
        exact.check_enumeration_size(self.n_candidates, self.n_firms)


@dataclass(frozen=True)
class OrderSensitivityConfig:
    # one ranking per firm over shared candidate labels, best first
    rankings: tuple[tuple[str, ...], ...] = _param(
        "rankings", help="per-firm rankings, e.g. 'A>B>C;A>C>B'"
    )
    master_seed: int = _seed()
    out: str | None = _out()
    kind: ClassVar[str] = "order-sensitivity"

    def __post_init__(self):
        _check_fields(self)
        exact.check_rankings(self.rankings)


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A real number a float holds: not NaN, not infinite, no int beyond float range."""
    return abs(v) <= sys.float_info.max if _is_int(v) else math.isfinite(v)


def _check_grid(grid, flag: str) -> None:
    if not grid:
        raise ValueError(f"{flag} grid must not be empty")
    if any(not _is_int(v) or v < 1 for v in grid):
        raise ValueError(f"{flag} grid entries must be positive integers, got {grid}")
    if len(set(grid)) != len(grid):
        raise ValueError(f"{flag} grid entries must be distinct, got {grid}")


def _check_fields(cfg) -> None:
    """Check each field that is set, in order: its annotated type (no bool as a
    number, finite floats, non-empty strings, grids of distinct positive ints),
    its ``choices`` and ``minimum``, and that a seed is a stream key (an
    unsigned 64-bit int)."""
    for f in fields(cfg):
        value, flag = getattr(cfg, f.name), f.metadata["flag"]
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        if kind == "int" and not _is_int(value):
            raise ValueError(f"{flag} must be an integer, got {value!r}")
        if kind == "float":
            if not (_is_int(value) or isinstance(value, (float, np.floating))):
                raise ValueError(f"{flag} must be a number, got {value!r}")
            if not _is_finite(value):
                raise ValueError(f"{flag} must be finite, got {value!r}")
        if kind == "str":
            if not isinstance(value, str):
                raise ValueError(f"{flag} must be a string, got {value!r}")
            if not value:
                raise ValueError(f"{flag} must not be empty")
        if kind == "tuple[int, ...]":
            _check_grid(value, flag)
        choices, minimum = f.metadata["choices"], f.metadata["minimum"]
        if choices is not None and value not in choices:
            raise ValueError(
                f"{flag} must be one of {', '.join(map(repr, choices))}, got {value!r}"
            )
        if minimum is not None and value < minimum:
            raise ValueError(f"{flag} must be >= {minimum}, got {value}")
        if f.name == "master_seed":
            _check_u64(value, flag)


# ---------------------------------------------------------------------------
# result rows


@dataclass(frozen=True)
class ResultRow:
    kind: str
    regime: str
    param_name: str
    param_value: float
    metric: str
    value: float
    stderr: float
    n_runs: int
    seed: int
    exact: str = ""


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# The CSV columns are ResultRow's fields, in order.  A field's annotation
# picks how its column is written and read back; repr keeps floats exact,
# and a float read back must be finite, as every float the tool writes is.
_COLUMNS = fields(ResultRow)
CSV_HEADER = tuple(f.name for f in _COLUMNS)
_FORMAT = {"str": str, "float": lambda v: repr(float(v)), "int": str}
_PARSE = {"str": str, "float": _finite_float, "int": int}


def _sample_se(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(len(values)))


def _binomial_se(values: np.ndarray) -> float:
    rate = float(values.mean())
    return float(np.sqrt(rate * (1.0 - rate) / len(values)))


# ---------------------------------------------------------------------------
# replicate-range simulators (top level so worker processes can import them)
#
# Each maps (cfg, start, stop) to {(regime, param_value, metric): values of
# replicates start..stop-1}, with keys in CSV row order.


def _hiring_range(cfg: HiringConfig, start: int, stop: int) -> dict:
    streams = [derive_stream(cfg.master_seed, r) for r in range(start, stop)]
    perf = hiring.simulate_run(cfg.n_candidates, cfg.firm_grid, cfg.noise_sd, cfg.capacity,
                               cfg.mode == "simultaneous", streams)
    return {(regime, f, "normalized_performance"): row
            for f, rows in zip(cfg.firm_grid, perf) for regime, row in zip(hiring.REGIMES, rows)}


def _bandit2_range(cfg: Bandit2Config, start: int, stop: int) -> dict:
    streams = (derive_stream(cfg.master_seed, r) for r in range(start, stop))
    failures = bandit2.simulate_failures(cfg.n0_grid, cfg.k_grid, cfg.total_agents, streams)
    return {(f"k={k}", n0, "failure_rate"): row.astype(float)
            for n0, rows in zip(cfg.n0_grid, failures) for k, row in zip(cfg.k_grid, rows)}


def _hiring_bandit_range(cfg: HiringBanditConfig, start: int, stop: int) -> dict:
    streams = [derive_stream(cfg.master_seed, r) for r in range(start, stop)]
    regret, mis = hiring_bandit.simulate_run(cfg.agent_grid, cfg.n_arms, cfg.n_rounds,
                                             cfg.n0, streams)
    metrics = {"total_bayesian_regret": regret, "misclassification": mis.astype(float)}
    return {(regime, agents, metric): values[i, j]
            for i, agents in enumerate(cfg.agent_grid)
            for j, regime in enumerate(hiring_bandit.REGIMES)
            for metric, values in metrics.items()}


# The most memory one replicate range may take, by its config's
# replicate_bytes: a range holds as many replicates as fit (at least one).
_BLOCK_BYTES = 16 * 2**20


def _split_ranges(n_runs: int, workers: int, block: int) -> list[tuple[int, int]]:
    # As few near-equal chunks as keep each within block replicates, at least
    # one per worker: each chunk repeats a lockstep simulator's per-call cost.
    n_chunks = max(min(n_runs, workers), -(-n_runs // block))
    bounds = [n_runs * i // n_chunks for i in range(n_chunks + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _collect(simulate, cfg) -> dict:
    """Run all replicates in bounded ranges, maybe across processes, in order."""
    block = max(1, _BLOCK_BYTES // cfg.replicate_bytes)
    ranges = _split_ranges(cfg.n_runs, cfg.workers, block)
    processes = min(cfg.workers, len(ranges), os.cpu_count() or 1)
    if processes == 1:
        parts = [simulate(cfg, start, stop) for start, stop in ranges]
    else:
        # Imported here: a one-process run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        starts, stops = zip(*ranges)
        with ProcessPoolExecutor(max_workers=processes) as pool:
            try:
                parts = list(pool.map(simulate, [cfg] * len(ranges), starts, stops))
            except BaseException:
                # A failed chunk or an interrupt: drop the chunks not yet started.
                pool.shutdown(cancel_futures=True)
                raise
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


# ---------------------------------------------------------------------------
# experiment entry points


def run_enumerate(cfg: EnumerateConfig):
    rows = []
    for regime in ("mono", "poly"):
        probs = exact.enumerate_sequential_outcomes(
            cfg.n_candidates, cfg.n_firms, regime
        )
        for cand, prob in enumerate(probs):
            rows.append(
                ResultRow(
                    cfg.kind, regime, "candidate", float(cand),
                    "jobless_probability", float(prob), 0.0, 1, cfg.master_seed,
                    exact=f"{prob.numerator}/{prob.denominator}",
                )
            )
    return rows


def run_order_sensitivity(cfg: OrderSensitivityConfig):
    by_order, sensitive = exact.hiring_order_sensitivity(cfg.rankings)
    rows = []
    for i, (order, unmatched) in enumerate(sorted(by_order.items())):
        rows.append(
            ResultRow(
                cfg.kind,
                "-".join(str(f) for f in order),
                "order_index",
                float(i),
                "n_unmatched",
                float(len(unmatched)),
                0.0,
                1,
                cfg.master_seed,
                exact="+".join(sorted(str(c) for c in unmatched)),
            )
        )
    rows.append(
        ResultRow(
            cfg.kind, "all", "order_index", -1.0, "sensitive",
            float(sensitive), 0.0, 1, cfg.master_seed,
        )
    )
    return rows


def run_monte_carlo(simulate, param_name: str, stderr, cfg):
    """One row per ``simulate`` key: the mean of its replicate values and ``stderr``."""
    return [
        ResultRow(
            cfg.kind, regime, param_name, float(param_value), metric,
            float(vals.mean()), stderr(vals), cfg.n_runs, cfg.master_seed,
        )
        for (regime, param_value, metric), vals in _collect(simulate, cfg).items()
    ]


# config type -> the runner that turns it into result rows
_RUNNERS = {
    HiringConfig: partial(run_monte_carlo, _hiring_range, "firms", _sample_se),
    Bandit2Config: partial(run_monte_carlo, _bandit2_range, "n0", _binomial_se),
    HiringBanditConfig: partial(run_monte_carlo, _hiring_bandit_range, "agents", _sample_se),
    EnumerateConfig: run_enumerate,
    OrderSensitivityConfig: run_order_sensitivity,
}


def run(config):
    """Run a config's experiment and return its result rows."""
    if type(config) not in _RUNNERS:
        raise TypeError(f"unknown config type {type(config).__name__}")
    return _RUNNERS[type(config)](config)


# ---------------------------------------------------------------------------
# CSV and figures


def _csv_field(text: str) -> str:
    """Quote a field that holds a comma, quote or line break (RFC 4180).

    Unlike ``csv.writer`` with a ``"\\n"`` line terminator, this also quotes
    a bare carriage return, which ``csv.reader`` would otherwise split on.
    """
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def rows_to_csv_text(rows: list[ResultRow]) -> str:
    lines = [",".join(CSV_HEADER)]
    for row in rows:
        texts = (_FORMAT[f.type](getattr(row, f.name)) for f in _COLUMNS)
        lines.append(",".join(_csv_field(text) for text in texts))
    return "\n".join(lines) + "\n"


def atomic_write_text(text: str, path: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partials."""
    if not path:
        raise ValueError("output path must not be empty")
    directory = os.path.dirname(os.path.abspath(path))
    # os.replace keeps the temp file's mode, so create it as open() would
    # (0666 less the umask), not private as tempfile.mkstemp does.
    tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(rows: list[ResultRow], path: str) -> None:
    atomic_write_text(rows_to_csv_text(rows), path)


def read_csv(path: str) -> list[ResultRow]:
    """Parse a results CSV, reporting the line number of any malformed row."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        if tuple(header) != CSV_HEADER:
            raise ValueError(
                f"{path}: line 1: bad header {header!r}, expected {list(CSV_HEADER)}"
            )
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(CSV_HEADER):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(CSV_HEADER)} fields, "
                    f"got {len(record)}"
                )
            try:
                rows.append(ResultRow(*(_PARSE[f.type](t) for f, t in zip(_COLUMNS, record))))
            except ValueError as err:
                raise ValueError(f"{path}: line {lineno}: {err}") from None
    return rows


DEFAULT_PLOT_METRIC = {
    "hiring-seq": "normalized_performance",
    "hiring-sim": "normalized_performance",
    "bandit2": "failure_rate",
    "hiring-bandit": "total_bayesian_regret",
    "enumerate": "jobless_probability",
}


@dataclass(frozen=True)
class PlotConfig:
    csv: str = _param("csv", help="input results CSV")
    out: str = _param("out", help="output SVG path")
    metric: str | None = _param(
        "metric", None, "metric column to plot (default: the file kind's main metric)"
    )

    def __post_init__(self):
        _check_fields(self)


def plot_csv(cfg: PlotConfig) -> None:
    """Render one figure from a results CSV: one series per regime, +/-2 SE bars.

    The figure's kind is the file's one ``kind``, which must be one of
    ``DEFAULT_PLOT_METRIC``; it picks the default metric and is the title.
    """
    rows = read_csv(cfg.csv)
    if not rows:
        raise ValueError(f"{cfg.csv}: no rows to plot")
    kinds = dict.fromkeys(r.kind for r in rows)  # in order of first appearance
    if len(kinds) > 1:
        raise ValueError(
            f"{cfg.csv}: rows of {len(kinds)} kinds ({', '.join(map(repr, kinds))}), "
            "but a figure plots one"
        )
    kind = rows[0].kind
    if kind not in DEFAULT_PLOT_METRIC:
        raise ValueError(
            f"{cfg.csv}: cannot plot kind {kind!r} "
            f"(plottable: {', '.join(DEFAULT_PLOT_METRIC)})"
        )
    metric = cfg.metric or DEFAULT_PLOT_METRIC[kind]
    rows = [r for r in rows if r.metric == metric]
    if not rows:
        raise ValueError(f"{cfg.csv}: no rows with metric={metric!r}")
    regimes = dict.fromkeys(r.regime for r in rows)  # in order of first appearance
    series = []
    for regime in regimes:
        mine = [r for r in rows if r.regime == regime]
        mine.sort(key=lambda r: r.param_value)
        series.append(
            Series(
                regime,
                tuple(r.param_value for r in mine),
                tuple(r.value for r in mine),
                tuple(2.0 * r.stderr for r in mine),
            )
        )
    x_label = rows[0].param_name
    svg_text = render_line_chart(series, x_label, metric, kind)
    atomic_write_text(svg_text, cfg.out)
