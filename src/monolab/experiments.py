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

A config checks itself when it is built: ``check_field`` on each field in
order (its type, then the ``choices`` and ``minimum`` in its metadata),
each error naming the field's flag, then the rules that tie its fields
together.  Those rules belong to the model module, which calls them again
before any draw: ``hiring.check_market``, ``bandit2.check_sweep``,
``hiring_bandit.check_game``, ``exact.check_enumeration_size`` and
``exact.check_rankings``.  A size is checked by ``streams.check_count`` or
``streams.check_grid``, named by its flag.

Each command's runner returns its cells in row order, as
``{(regime, param_value, metric): (value, stderr, n_runs, exact)}``, and
``run`` alone builds the ``ResultRow``s, with the config's kind and seed.
An exact cell draws nothing, and holds stderr 0 and n_runs 1.

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
from .streams import _check_u64, check_grid, derive_stream, is_int
from .svg import render_line_chart

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
        hiring.check_market(self.n_candidates, self.firm_grid, self.noise_sd,
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
        return hiring_bandit.replicate_bytes(self.agent_grid, self.n_arms, self.n_rounds)


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


def _is_finite(v) -> bool:
    """A real number a float holds: not NaN, not infinite, no int beyond float range."""
    return abs(v) <= sys.float_info.max if is_int(v) else math.isfinite(v)


def check_field(f, value) -> None:
    """Check one field's value, unless it is an optional field left unset: its
    annotated type (no bool as a number, finite floats, non-empty strings, grids of
    distinct positive ints), its ``choices`` and ``minimum``, and that a seed is a
    stream key (an unsigned 64-bit int)."""
    flag = f.metadata["flag"]
    kind = f.type.removesuffix(" | None")
    if value is None and kind != f.type:
        return
    if kind == "int" and not is_int(value):
        raise ValueError(f"{flag} must be an integer, got {value!r}")
    if kind == "float":
        if not (is_int(value) or isinstance(value, (float, np.floating))):
            raise ValueError(f"{flag} must be a number, got {value!r}")
        if not _is_finite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    if kind == "str":
        if not isinstance(value, str):
            raise ValueError(f"{flag} must be a string, got {value!r}")
        if not value:
            raise ValueError(f"{flag} must not be empty")
    if kind == "tuple[int, ...]":
        check_grid(value, flag)
        if len(set(value)) != len(value):  # they would collide as CSV keys
            raise ValueError(f"{flag} grid entries must be distinct, got {value}")
    choices, minimum = f.metadata["choices"], f.metadata["minimum"]
    if choices is not None and value not in choices:
        raise ValueError(
            f"{flag} must be one of {', '.join(map(repr, choices))}, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise ValueError(f"{flag} must be >= {minimum}, got {value}")
    if f.name == "master_seed":
        _check_u64(value, flag)


def _check_fields(cfg) -> None:
    """``check_field`` on each field of a config, in order."""
    for f in fields(cfg):
        check_field(f, getattr(cfg, f.name))


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
    """Run all replicates in bounded ranges, maybe across processes, in order.

    A range holds as many replicates as fit ``_BLOCK_BYTES`` by the config's
    ``replicate_bytes`` (at least one); the run is cut into as few
    near-equal ranges as that allows, at least one per worker.  A pool of
    min(workers, ranges, CPUs) processes plays them; when that is 1 they
    run in order in the calling process.
    """
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


def run_enumerate(cfg: EnumerateConfig) -> dict:
    cells = {}
    for regime in exact.REGIMES:
        probs = exact.enumerate_sequential_outcomes(cfg.n_candidates, cfg.n_firms, regime)
        for cand, prob in enumerate(probs):
            cells[regime, cand, "jobless_probability"] = (
                prob, 0.0, 1, f"{prob.numerator}/{prob.denominator}")
    return cells


def run_order_sensitivity(cfg: OrderSensitivityConfig) -> dict:
    by_order, sensitive = exact.hiring_order_sensitivity(cfg.rankings)
    cells = {}
    for i, (order, unmatched) in enumerate(sorted(by_order.items())):
        cells["-".join(str(f) for f in order), i, "n_unmatched"] = (
            len(unmatched), 0.0, 1, "+".join(sorted(str(c) for c in unmatched)))
    cells["all", -1, "sensitive"] = (sensitive, 0.0, 1, "")
    return cells


def run_monte_carlo(simulate, stderr, cfg) -> dict:
    """One cell per ``simulate`` key: the mean of its replicate values and ``stderr``."""
    return {key: (vals.mean(), stderr(vals), cfg.n_runs, "")
            for key, vals in _collect(simulate, cfg).items()}


# config type -> (its param_name column, the runner that returns its cells)
_RUNNERS = {
    HiringConfig: ("firms", partial(run_monte_carlo, _hiring_range, _sample_se)),
    Bandit2Config: ("n0", partial(run_monte_carlo, _bandit2_range, _binomial_se)),
    HiringBanditConfig: ("agents", partial(run_monte_carlo, _hiring_bandit_range, _sample_se)),
    EnumerateConfig: ("candidate", run_enumerate),
    OrderSensitivityConfig: ("order_index", run_order_sensitivity),
}


def run(config):
    """Run a config's experiment and return its result rows, one per cell in order."""
    if type(config) not in _RUNNERS:
        raise TypeError(f"unknown config type {type(config).__name__}")
    param_name, runner = _RUNNERS[type(config)]
    return [ResultRow(config.kind, regime, param_name, float(param_value), metric,
                      float(value), float(se), n_runs, config.master_seed, text)
            for (regime, param_value, metric), (value, se, n_runs, text)
            in runner(config).items()]


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


def check_out_path(path: str) -> None:
    """Refuse a directory, or a path in none, by an ``OSError`` that names it."""
    if not path:
        raise ValueError("output path must not be empty")
    if os.path.isdir(path):
        raise IsADirectoryError(f"--out {path} is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(f"--out {path}: its directory does not exist")


def atomic_write_text(text: str, path: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partials;
    an ``OSError`` names ``path``, not the temp file."""
    check_out_path(path)
    # os.replace keeps the temp file's mode, so create it as open() would
    # (0666 less the umask), not private as tempfile.mkstemp does.
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(6).hex()}~")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from None


def write_csv(rows: list[ResultRow], path: str) -> None:
    atomic_write_text(rows_to_csv_text(rows), path)


def read_csv(path: str) -> list[ResultRow]:
    """Parse a results CSV, reporting the line number of any malformed row.

    A float field must be finite, as every float the tool writes is, and a
    file that is not UTF-8 is refused by its path.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
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
        except UnicodeDecodeError as err:  # the reader decodes as it reads
            raise ValueError(f"{path}: not UTF-8 text: {err}") from None
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
    ``DEFAULT_PLOT_METRIC``; it picks the default metric and is the title,
    and ``metric`` picks another column of a kind that reports several
    (``misclassification`` under ``hiring-bandit``).  A file with no rows,
    with rows of more than one kind or of a kind with no figure
    (``order-sensitivity``) is refused by a ``ValueError`` that names it, and
    no SVG is written.  An ``out`` that is the ``csv`` file, by any path, is
    refused before either is touched.  ``svg.render_line_chart`` draws the
    figure; ``svg._axis_range`` says which values it draws as one level and
    which ranges it refuses.
    """
    if os.path.exists(cfg.out) and os.path.samefile(cfg.csv, cfg.out):
        raise ValueError(f"--out {cfg.out} is the --csv file: plot would overwrite its input")
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
    series = {r.regime: [] for r in rows}  # legend in order of first appearance
    for r in sorted(rows, key=lambda r: r.param_value):  # stable: ties keep file order
        series[r.regime].append((r.param_value, r.value, 2.0 * r.stderr))
    x_label = rows[0].param_name
    svg_text = render_line_chart(series, x_label, metric, kind)
    atomic_write_text(svg_text, cfg.out)
