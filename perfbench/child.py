"""One workload execution in a fresh interpreter.

Usage: python3 child.py RESULT_JSON TRACE -- MONOLAB_ARGV...

Imports monolab from the checkout's ``src``, runs ``monolab.cli.main`` on
the given argv (which names the output CSV with ``--out``), and writes a
JSON result: set-up and wall seconds, peak RSS, the CSV's sha256, whether
``experiments.read_csv`` reads back the rows ``experiments.run`` returned,
the time of a fixed reference task run right after (see ``reference_s``),
and with TRACE=1 the collapsed span tree.  Exits with the CLI's exit code.
"""

import hashlib
import json
import math
import os
import resource
import sys
import time

T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def reference_s() -> float:
    """Fastest of three passes of a fixed task: numpy draws, sorts and masks
    on small arrays, and a Python loop, the kinds of work monolab does.

    Timed in the same process just after the workload, it tells how fast the
    host was running at that moment.  It touches nothing of monolab.
    """
    import numpy as np

    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        gen = np.random.default_rng(0)
        for _ in range(800):
            a = gen.normal(size=200)
            np.argsort(a)
            np.where(a > 0, a, -1.0).max()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def main(argv: list[str]) -> int:
    result_path, trace = argv[0], argv[1] == "1"
    cli_argv = argv[argv.index("--") + 1:]
    csv_path = cli_argv[cli_argv.index("--out") + 1]

    sys.path.insert(0, SRC)
    import monolab.cli as cli
    from monolab import experiments

    if not os.path.abspath(experiments.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"monolab imported from {experiments.__file__}, not {SRC}")

    tracer = None
    if trace:
        sys.path.insert(0, HERE)
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    marks = {}
    run = experiments.run

    def timed_run(config, *args, **kwargs):
        # Entered once the CLI has parsed and validated the config.
        marks["start"] = time.perf_counter()
        rows = run(config, *args, **kwargs)
        marks["rows"] = rows
        return rows

    experiments.run = timed_run
    code = cli.main(cli_argv)
    end = time.perf_counter()
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    out = {}
    if code == 0 and "start" in marks:
        import numpy

        with open(csv_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        read_back = experiments.read_csv(csv_path)
        out.update(
            setup_s=marks["start"] - T0,
            wall_s=end - marks["start"],
            peak_rss_kb=max(usage),
            sha256=digest,
            roundtrip_ok=read_back == list(marks["rows"]),
            reference_s=reference_s(),
            numpy=numpy.__version__,
        )
    if tracer is not None:
        out["spans"] = tracer.records()
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
