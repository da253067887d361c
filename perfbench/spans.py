"""Span recording for the traced benchmark pass.

Spans are recorded from outside the program: ``install`` replaces the
public functions of each monolab module with timing wrappers, at the
module attribute where their callers look them up.  A module that imports
a function by name (``from .streams import derive_stream``) holds its own
reference, so that reference is wrapped in that module too.

The bandit2 and claim-game workloads make 10^5 to 10^6 boundary calls, so
the tracer keeps a collapsed call tree in memory instead of one record per
call: for each (span, parent) pair, the total time, the self time (total
minus the time of child spans) and the call count.
"""

from __future__ import annotations

import functools
import time

ROOT_SPAN = "<root>"

# (module name, attribute, span).  Several attributes may share a span.
MODULE_SPANS = (
    ("experiments", "run", "experiments.run"),
    ("experiments", "write_csv", "experiments.csv_write"),
    ("experiments", "read_csv", "experiments.csv_read"),
    ("experiments", "derive_stream", "streams.derive"),
    ("bandit2", "derive_stream", "streams.derive"),
    ("hiring_bandit", "derive_stream", "streams.derive"),
    ("streams", "derive_stream", "streams.derive"),
    ("hiring", "generate_market", "hiring.market"),
    ("hiring", "score_regime", "hiring.score"),
    ("hiring", "sequential_hire", "hiring.sequential_hire"),
    ("hiring", "generate_prefs", "hiring.prefs"),
    ("hiring", "deferred_acceptance", "hiring.deferred_acceptance"),
    ("hiring", "serial_dictatorship", "hiring.serial_dictatorship"),
    ("hiring", "normalized_performance", "hiring.performance"),
    ("bandit2", "simulate_failures", "bandit2.simulate_failures"),
    ("bandit2", "draw_environment", "bandit2.environment"),
    ("bandit2", "draw_initial_history", "bandit2.history"),
    ("hiring_bandit", "simulate_run", "hiring_bandit.simulate_run"),
    ("hiring_bandit", "draw_arm_means", "hiring_bandit.init"),
    ("hiring_bandit", "init_beliefs", "hiring_bandit.init"),
    ("hiring_bandit", "play_round", "hiring_bandit.play_round"),
    ("hiring_bandit", "realize_rewards", "hiring_bandit.rewards"),
    ("hiring_bandit", "observe_and_update", "hiring_bandit.observe"),
    ("hiring_bandit", "total_bayesian_regret", "hiring_bandit.final_metrics"),
    ("hiring_bandit", "impartial_observer_misclassification",
     "hiring_bandit.final_metrics"),
)

# Every public method of RngStream draws from the generator.
DRAW_SPAN = "streams.draw"


class Tracer:
    """Collapsed call tree: (span, parent) -> [total_s, self_s, calls]."""

    def __init__(self):
        self.tree: dict[tuple[str, str], list] = {}
        # One [span, child_seconds] frame per open call.
        self._stack = [[ROOT_SPAN, 0.0]]

    def wrap(self, span: str, fn):
        stack = self._stack
        tree = self.tree
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                node = tree.get((span, parent[0]))
                if node is None:
                    tree[(span, parent[0])] = [elapsed, elapsed - frame[1], 1]
                else:
                    node[0] += elapsed
                    node[1] += elapsed - frame[1]
                    node[2] += 1

        return wrapper

    def records(self) -> list[list]:
        """The tree as [span, parent, total_s, self_s, calls] rows."""
        return [[s, p, *node] for (s, p), node in sorted(self.tree.items())]


def install(tracer: Tracer) -> None:
    """Wrap monolab's public functions in place.

    An attribute a later version no longer has is skipped, so its span
    reads zero instead of breaking the benchmark.
    """
    import importlib

    for module_name, attr, span in MODULE_SPANS:
        module = importlib.import_module(f"monolab.{module_name}")
        fn = getattr(module, attr, None)
        if callable(fn):
            setattr(module, attr, tracer.wrap(span, fn))
    rng_stream = importlib.import_module("monolab.streams").RngStream
    for name, fn in list(vars(rng_stream).items()):
        if not name.startswith("_") and callable(fn):
            setattr(rng_stream, name, tracer.wrap(DRAW_SPAN, fn))
