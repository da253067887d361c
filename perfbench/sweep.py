"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 perfbench/sweep.py --seeds 1-10 [--workloads seq-hiring,claim-game]
        [--traced] [--out perfbench/trajectory/NAME.json]

For every workload it makes one ``run.py --trace 0`` run per seed, one
after another, and prints for each end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
spread as a share of the median, next to a third of the metric's bound
in ``BENCHMARK.json``, the spread the benchmark aims to stay under.
``--traced`` adds one ``--trace 1`` run per workload at the first seed.
``--out`` writes the whole summary, with the environment of the first
run, as one JSON document: that is how trajectory entries are made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run as the driver makes it: (record line, result line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, record, result = proc.stdout.splitlines()
    return json.loads(record), json.loads(result)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(run.SPEC) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {"seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    all_steady = True
    for workload in args.workloads.split(","):
        values, runs = {name: [] for name in bounds}, []
        for seed in seeds:
            record, result = bench(workload, seed, spec["run_seconds"], 0)
            summary.setdefault("env", record["env"])
            runs.append({"seed": seed, **{k: result[k] for k in
                                          ("correct", "attempted", "failed")},
                         "sha256": sorted({e["sha256"] for e in record["executions"]
                                           if e["sha256"]}),
                         "walls": [e["wall_s"] for e in record["executions"]]})
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"replicates": run.WORKLOADS[workload].runs, "runs": runs,
                 "end_to_end": {name: spread(v) for name, v in values.items()}}
        for name, s in entry["end_to_end"].items():
            steady = s["spread"] < bounds[name] / 3
            all_steady &= steady or name == "setup_s"
            print(f"  {name:12s} median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f}"
                  f" spread {s['spread']:.3f} (bound/3 {bounds[name] / 3:.3f})"
                  f"{'' if steady else '  NOT STEADY'}", flush=True)
        if args.traced:
            _, result = bench(workload, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {"seed": seeds[0], "correct": result["correct"],
                                  **{k: v["value"] for k, v in result["metrics"].items()}}
            print(f"  traced: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if v["value"]),
                flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
