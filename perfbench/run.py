"""monolab sweep benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload seq-hiring --seed 1 --seconds 30 --trace 0

Each workload is one Monte Carlo CLI family at a fixed replicate count,
run through ``monolab.cli.main`` with ``--workers 1`` in a fresh
interpreter per execution (see ``child.py``).  ``--trace 0`` repeats the
workload for ``--seconds`` and reports the end-to-end metrics;
``--trace 1`` mixes traced, untraced and ``--workers 2`` executions and
reports the per-layer metrics.  Every execution's CSV is checked (see
``Runner.check``); a failed check counts as a failed operation and makes
``correct`` false.

The last line of stdout is the result object; the line before it records
the environment, the replicate count and every execution's CSV digest.
Metric names and units come from ``BENCHMARK.json``; ``README.md`` in this
directory explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass

from spans import ROOT_SPAN

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 20260814  # SEED in tests/test_acceptance.py
MIN_REPS = 5  # untraced executions per --trace 0 run, even past --seconds
RUN_LIMIT_S = 150  # a run stops starting executions and kills a stuck one here
MIN_COVERAGE = 0.9  # share of the traced wall the named spans must cover
# Nominal duration of child.reference_s; see adjusted().
REFERENCE_S = 0.025


@dataclass(frozen=True)
class Workload:
    argv: tuple  # monolab argv without --runs/--seed/--workers/--out
    runs: int  # replicates per cell; fixes the stderr in the CSV
    rows: int  # CSV rows the sweep writes
    walk_steps: int = 0  # bandit2 agents x cells, per replicate


WORKLOADS = {
    "seq-hiring": Workload(
        ("hiring", "--mode", "sequential", "--candidates", "200",
         "--firms", "4,16,64", "--noise-sd", "0.5", "--capacity", "1"),
        runs=100, rows=9),
    "sim-hiring": Workload(
        ("hiring", "--mode", "simultaneous", "--candidates", "300",
         "--firms", "2,8,16", "--capacity", "10"),
        runs=3, rows=9),
    "bandit2-sweep": Workload(
        ("bandit2", "--agents", "1000", "--n0", "1,5,10", "--k", "1,2,4,8"),
        runs=200, rows=12, walk_steps=1000 * 3 * 4),
    "claim-game": Workload(
        ("hiring-bandit", "--arms", "50", "--rounds", "100",
         "--agents", "5,10,20", "--n0", "5"),
        runs=3, rows=24),
}

CSV_HEADER = ["kind", "regime", "param_name", "param_value", "metric",
              "value", "stderr", "n_runs", "seed", "exact"]
VALUE_RANGE = {
    "normalized_performance": (0.0, 1.0),
    "failure_rate": (0.0, 1.0),
    "total_bayesian_regret": (0.0, math.inf),
    "misclassification": (0.0, math.inf),
}


def workload_argv(workload: Workload) -> list[str]:
    """The argv the pinned digests belong to, less seed, workers and output."""
    return [*workload.argv, "--runs", str(workload.runs)]


def load_pins(name: str) -> dict:
    with open(DIGESTS) as fh:
        entry = json.load(fh)["workloads"].get(name, {})
    if entry and entry["argv"] != workload_argv(WORKLOADS[name]):
        raise SystemExit(f"{DIGESTS}: {name} digests were pinned for another argv")
    return entry.get("sha256", {})


class Runner:
    """Starts one child execution at a time and checks its output.

    Every execution's CSV must carry the digest pinned for this workload
    and seed, or, for an unpinned seed, the digest of the run's first
    execution; that covers workers=2 against workers=1 as well.
    """

    def __init__(self, name: str, seed: int, pinned: str | None, workdir: str):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.reference = pinned
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.ops: list[dict] = []
        self.proc: subprocess.Popen | None = None

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline

    def execute(self, workers: int = 1, trace: bool = False) -> dict:
        n = len(self.ops)
        csv_path = os.path.join(self.workdir, f"out-{n}.csv")
        result_path = os.path.join(self.workdir, f"result-{n}.json")
        cmd = [sys.executable, CHILD, result_path, "1" if trace else "0", "--",
               *workload_argv(self.workload), "--seed", str(self.seed),
               "--workers", str(workers), "--out", csv_path]
        op = {"workers": workers, "trace": trace, "ok": False}
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            _, err = self.proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            op["reason"] = "timed out"
        else:
            op["returncode"] = self.proc.returncode
            if self.proc.returncode != 0:
                op["reason"] = f"exit {self.proc.returncode}: {err.strip()[-500:]}"
            else:
                with open(result_path) as fh:
                    op.update(json.load(fh))
                op["reason"] = self.check(op, csv_path)
                op["ok"] = op["reason"] is None
        self.proc = None
        for path in (csv_path, result_path):
            if os.path.exists(path):
                os.unlink(path)
        if not op["ok"]:
            print(f"perfbench: {self.name} execution {n} failed: {op['reason']}",
                  file=sys.stderr)
        self.ops.append(op)
        return op

    def check(self, op: dict, csv_path: str) -> str | None:
        """None when the CSV is right, else the reason it is not."""
        if "sha256" not in op:
            return "no CSV result"
        if not op["roundtrip_ok"]:
            return "experiments.read_csv did not read back the rows run() returned"
        if self.reference is None:
            self.reference = op["sha256"]
        if op["sha256"] != self.reference:
            return f"sha256 {op['sha256']} != expected {self.reference}"
        with open(csv_path, newline="") as fh:
            header, *body = list(csv.reader(fh))
        if header != CSV_HEADER:
            return f"bad header {header}"
        if len(body) != self.workload.rows:
            return f"{len(body)} rows, expected {self.workload.rows}"
        for record in body:
            row = dict(zip(header, record))
            lo, hi = VALUE_RANGE.get(row["metric"], (-math.inf, math.inf))
            value, stderr = float(row["value"]), float(row["stderr"])
            if not (lo <= value <= hi and math.isfinite(value)):
                return f"{row['metric']} value {value} outside [{lo}, {hi}]"
            if not (math.isfinite(stderr) and stderr >= 0):
                return f"bad stderr {stderr}"
            if int(row["n_runs"]) != self.workload.runs or int(row["seed"]) != self.seed:
                return f"n_runs/seed columns {row['n_runs']}/{row['seed']}"
        return None

    def kill(self) -> None:
        """Kill the running child with its pool workers, and reap it."""
        if self.proc is not None and self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate()


def adjusted(ops: list[dict], key: str) -> float:
    """Median over executions of a time scaled to the host's speed.

    On a shared host, load from other tenants slows every execution by up
    to about 2x, in phases of seconds to minutes, longer than a run.  Each
    execution therefore also times a fixed reference task just after the
    workload, and its time is scaled by REFERENCE_S / that reference time:
    seconds at the speed at which the reference takes REFERENCE_S.
    """
    return statistics.median(o[key] * REFERENCE_S / o["reference_s"] for o in ops)


def timed_ops(ops: list[dict], workers: int = 1, trace: bool = False) -> list[dict]:
    return [o for o in ops
            if "wall_s" in o and o["workers"] == workers and o["trace"] == trace]


def end_to_end(runner: Runner, seconds: float) -> dict:
    start = time.monotonic()
    durations = []
    while not runner.out_of_time():
        began = time.monotonic()
        runner.execute()
        durations.append(time.monotonic() - began)
        projected = time.monotonic() - start + statistics.median(durations)
        if len(durations) >= MIN_REPS and projected > seconds:
            break
    timed = timed_ops(runner.ops)
    if not timed:
        return {}
    return {
        "wall_s": adjusted(timed, "wall_s"),
        "setup_s": adjusted(timed, "setup_s"),
        "peak_rss_mb": statistics.median(o["peak_rss_kb"] / 1024 for o in timed),
    }


def span_totals(records: list) -> tuple[dict, dict, dict]:
    """Per-span inclusive seconds, self seconds and calls, over all parents."""
    total, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for span, parent, tot, slf, n in records:
        if parent != span:  # a span nested in itself is inside the outer call
            total[span] += tot
        self_s[span] += slf
        calls[span] += n
    return total, self_s, calls


def layer_metrics(records: list, wall: float, workload: Workload) -> dict:
    total, self_s, calls = span_totals(records)
    # Time inside the layers' calls: everything below the dispatcher, plus
    # the CSV write.  The rest of the wall is the dispatcher's own loops.
    covered = sum(
        tot for span, parent, tot, _, _ in records
        if parent == "experiments.run"
        or (parent == ROOT_SPAN and span not in ("experiments.run", "experiments.csv_read"))
    )
    walk = self_s["bandit2.simulate_failures"]
    rounds = calls["hiring_bandit.play_round"]
    round_s = (total["hiring_bandit.simulate_run"] - total["hiring_bandit.init"]
               - total["hiring_bandit.final_metrics"])
    steps = workload.runs * workload.walk_steps
    return {
        "streams.derive_s": total["streams.derive"],
        "streams.derive_calls": calls["streams.derive"],
        "streams.draw_s": total["streams.draw"],
        "streams.draw_calls": calls["streams.draw"],
        "hiring.sequential_hire_s": total["hiring.sequential_hire"],
        "hiring.deferred_acceptance_s": total["hiring.deferred_acceptance"],
        "hiring.deferred_acceptance_calls": calls["hiring.deferred_acceptance"],
        "hiring.serial_dictatorship_s": total["hiring.serial_dictatorship"],
        "hiring.serial_dictatorship_calls": calls["hiring.serial_dictatorship"],
        "hiring.prefs_s": total["hiring.prefs"],
        "hiring.score_s": total["hiring.score"],
        "hiring.market_s": total["hiring.market"],
        "hiring.performance_s": total["hiring.performance"],
        "bandit2.simulate_failures_s": total["bandit2.simulate_failures"],
        "bandit2.draw_phase_s": total["bandit2.simulate_failures"] - walk,
        "bandit2.walk_s": walk,
        "bandit2.walk_ns_per_rep_step": walk / steps * 1e9 if steps else 0.0,
        "hiring_bandit.simulate_run_s": total["hiring_bandit.simulate_run"],
        "hiring_bandit.init_s": total["hiring_bandit.init"],
        "hiring_bandit.play_round_s": total["hiring_bandit.play_round"],
        "hiring_bandit.rewards_s": total["hiring_bandit.rewards"],
        "hiring_bandit.observe_s": total["hiring_bandit.observe"],
        "hiring_bandit.final_metrics_s": total["hiring_bandit.final_metrics"],
        "hiring_bandit.round_calls": rounds,
        "hiring_bandit.round_us": round_s / rounds * 1e6 if rounds else 0.0,
        "experiments.run_self_s": self_s["experiments.run"],
        "experiments.csv_write_s": total["experiments.csv_write"],
        "experiments.csv_read_s": total["experiments.csv_read"],
        "trace.unattributed_frac": 1.0 - covered / wall,
    }


def traced(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    """Per-layer metrics, and the self-check failures (empty when it passes)."""
    start = time.monotonic()
    plan = [(1, False), (1, True), (1, True), (2, False)]
    cycle = [(1, True), (1, False), (2, False)]
    durations = []
    while not runner.out_of_time():
        workers, trace = plan.pop(0) if plan else cycle[len(durations) % 3]
        began = time.monotonic()
        runner.execute(workers, trace)
        durations.append(time.monotonic() - began)
        projected = time.monotonic() - start + statistics.median(durations)
        if not plan and projected > seconds:
            break

    untraced, pooled = timed_ops(runner.ops), timed_ops(runner.ops, workers=2)
    spanned = timed_ops(runner.ops, trace=True)
    if not (untraced and pooled and spanned):
        return {}, ["too few executions completed"]
    per_op = [layer_metrics(o["spans"], o["wall_s"], runner.workload) for o in spanned]
    # Call counts are equal across executions (checked below); times vary.
    metrics = {key: per_op[0][key] if key.endswith("_calls")
               else statistics.median(m[key] for m in per_op) for key in per_op[0]}
    untraced_wall = adjusted(untraced, "wall_s")
    metrics["trace.overhead_frac"] = adjusted(spanned, "wall_s") / untraced_wall - 1.0
    metrics["experiments.pool_speedup"] = untraced_wall / adjusted(pooled, "wall_s")

    problems = []
    counts = [{(s, p): n for s, p, _, _, n in o["spans"]} for o in spanned]
    if len(counts) < 2:
        problems.append("fewer than two traced executions to compare call counts")
    elif any(c != counts[0] for c in counts[1:]):
        problems.append("span call counts differ between traced executions")
    worst = max(m["trace.unattributed_frac"] for m in per_op)
    if worst > 1.0 - MIN_COVERAGE:
        problems.append(f"named spans leave {worst:.1%} of the traced wall unattributed")
    return metrics, problems


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "monolab", "cli.py")):
        print(f"perfbench: no monolab sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    # A terminated run still kills its child and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    pinned = load_pins(args.workload).get(str(args.seed))
    runner = Runner(args.workload, args.seed, pinned, workdir)
    try:
        if args.trace:
            measured, problems = traced(runner, args.seconds)
        else:
            measured, problems = end_to_end(runner, args.seconds), []
    finally:
        runner.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.ops)
    failed = sum(not o["ok"] for o in runner.ops)
    measured["error_rate"] = failed / attempted if attempted else 1.0
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"perfbench: nothing measured for {missing}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"perfbench: self-check failed: {problem}", file=sys.stderr)

    timed = [o for o in runner.ops if "numpy" in o]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "argv": workload_argv(runner.workload),
        "replicates": runner.workload.runs,
        "pinned_sha256": pinned,
        "env": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": timed[0]["numpy"] if timed else None,
            "commit": git_commit(),
        },
        "executions": [
            {k: o.get(k) for k in ("workers", "trace", "ok", "sha256", "wall_s",
                                   "setup_s", "reference_s", "reason")}
            for o in runner.ops
        ],
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
