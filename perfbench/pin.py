"""Pin the sha256 of each workload's CSV for a set of seeds.

Usage (from the repository root):

    python3 perfbench/pin.py --seeds 0-31,20260814 [--workloads sim-hiring]

Runs each workload once per seed at ``--workers 1`` and writes the digests
to ``digests.json``, keyed by the workload argv they belong to.  The CSV
bytes are a contract of the program (a fixed seed gives byte-identical
output whatever the worker count), so re-pin only when a workload's argv
changes or a change to the program is meant to change its output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from sweep import parse_seeds  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args(argv)

    with open(run.DIGESTS) as fh:
        digests = json.load(fh)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        for name in args.workloads.split(","):
            argv_ = run.workload_argv(run.WORKLOADS[name])
            entry = digests["workloads"].get(name)
            if entry is None or entry["argv"] != argv_:
                entry = digests["workloads"][name] = {"argv": argv_, "sha256": {}}
            for seed in parse_seeds(args.seeds):
                runner = run.Runner(name, seed, None, workdir)
                op = runner.execute()
                if not op["ok"]:
                    raise SystemExit(f"{name} seed {seed}: {op['reason']}")
                entry["sha256"][str(seed)] = op["sha256"]
                print(f"{name} seed {seed}: {op['sha256']}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
