"""Span tracer that times basopt's public functions from outside the package.

Nothing under ``src/`` knows about it: ``instrument`` swaps module
attributes (and the objective handed out by ``basopt.cli.lookup_objective``)
for timing wrappers, and ``Tracer.restore`` puts every original back. Spans
stay in memory as ``[name, start, end, parent, trial]`` lists; the parent is
the index of the enclosing span (-1 at top level), which is exact because
the benchmark is single-threaded.
"""

from __future__ import annotations

import gzip
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Collects spans; patched attributes are undone by ``restore``."""

    def __init__(self):
        self.spans = []
        self.trial = -1          # index of the current core.run call in this op
        self.batch_points = 0    # points passed to Objective.batch in this op
        self.results = []        # RunResult of every core.run call in this op
        self.first_op = None     # spans of the first traced op, kept for writing out
        self._stack = []
        self._patched = []

    def reset(self) -> None:
        """Start a new operation; the wrappers keep the same list objects."""
        self.spans.clear()
        self.results.clear()
        self.trial = -1
        self.batch_points = 0

    def traced(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trial]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class TracedObjective:
    """Stands in for an ``Objective``: same attributes, timed calls."""

    def __init__(self, objective, tracer: Tracer):
        self._objective = objective
        self._tracer = tracer
        self._call = tracer.traced(objective.__call__, "objectives.call")
        self._batch = tracer.traced(objective.batch, "objectives.batch")

    def __getattr__(self, name):
        return getattr(self._objective, name)

    def __call__(self, x):
        return self._call(x)

    def batch(self, points):
        self._tracer.batch_points += len(points)
        return self._batch(points)


def targets():
    """(owner, attribute, span name) for every plainly wrapped public name.

    ``run_campaign`` reaches core through names bound in ``basopt.cli``, and
    ``bas_iterate`` reaches its steps through ``basopt.core`` globals, so each
    function is patched where its caller looks it up.
    """
    import basopt.cli as cli
    import basopt.core as core
    import basopt.oracle as oracle
    return [
        (cli, "run_campaign", "cli.run_campaign"),
        (cli, "emit_trajectory", "cli.emit_trajectory"),
        (cli, "emit_summary", "cli.emit_summary"),
        (cli, "derive_trial_seed", "core.derive_trial_seed"),
        (core, "bas_iterate", "core.bas_iterate"),
        (core, "sample_direction", "core.sample_direction"),
        (core, "antenna_probe", "core.antenna_probe"),
        (core, "detect_step", "core.detect_step"),
        (core, "advance_schedule", "core.advance_schedule"),
        (oracle, "grid_search", "oracle.grid_search"),
    ]


def patch_points():
    """Every (owner, attribute) that ``instrument`` replaces."""
    import basopt.cli as cli
    return [(owner, attr) for owner, attr, _ in targets()] + [
        (cli, "run"), (cli, "lookup_objective")]


def instrument(tracer: Tracer) -> Tracer:
    import basopt.cli as cli
    for owner, attr, name in targets():
        tracer.patch(owner, attr, tracer.traced(getattr(owner, attr), name))

    traced_run = tracer.traced(cli.run, "core.run")

    def run(config, objective):
        tracer.trial += 1
        result = traced_run(config, objective)
        tracer.results.append(result)
        return result

    traced_lookup = tracer.traced(cli.lookup_objective, "objectives.lookup_objective")

    def lookup_objective(name, dimension):
        return TracedObjective(traced_lookup(name, dimension), tracer)

    tracer.patch(cli, "run", run)
    tracer.patch(cli, "lookup_objective", lookup_objective)
    return tracer


def write_spans(path, spans) -> None:
    with gzip.open(path, "wt") as fh:
        fh.write("name,start,end,parent,trial\n")
        for name, start, end, parent, trial in spans:
            fh.write(f"{name},{start!r},{end!r},{parent},{trial}\n")


def aggregate(spans):
    """Per span name: inclusive seconds, self seconds and call count.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because calls nest on one thread.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        inclusive[name] += end - start
        self_s[name] += end - start - child[i]
        calls[name] += 1
    return inclusive, self_s, calls


def useful_iterations(result) -> int:
    """Iterations up to and including the last improvement of ``f_bst``.

    ``f_bst`` only changes on an improvement, so the first record holding
    the final value marks the last one. At t=1 it may also be the start
    value carried over; then the new point did not reach it and the trial
    never improved.
    """
    for r in result.records:
        if r.f_bst == result.f_bst:
            return r.t if (r.t > 1 or r.f_x == r.f_bst) else 0
    return 0
