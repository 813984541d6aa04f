"""Spans and call counts for the traced benchmark run.

The traced run wraps functions of ``qperceptron`` at the module attribute
their caller looks up: ``run_experiment`` calls ``train`` through
``qperceptron.harness.train``, so that attribute is the one replaced.  The
package itself is never edited.  Timed runs never install the wrappers.

Spans are kept in memory and written out once, when the run ends.  A span is
``(id, name, tag, start, end, parent, thread, run)``; ``parent`` is the span
open on the same thread, or, for a worker thread of ``run_experiment``'s
pool, the span open on the calling thread.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Iterable

# (module, attribute, layer name, kind).  "span" records one span per call;
# "count" only counts calls, for per-row kernels where a span per call would
# cost more than the call.  A missing attribute is skipped, so a metric whose
# call site a refactor removed reads 0 instead of crashing the run.
WRAPPERS = (
    ("qperceptron.harness", "run_experiment", "harness.run_experiment", "span"),
    ("qperceptron.harness", "emit_cost_curve_csv", "harness.emit", "span"),
    ("qperceptron.harness", "emit_summary", "harness.emit", "span"),
    ("qperceptron.harness", "resolve_task", "tasks.resolve_task", "span"),
    ("qperceptron.harness", "initialize_network", "training.initialize_network", "span"),
    ("qperceptron.harness", "train", "training.train", "span"),
    ("qperceptron.harness", "detect_plateau", "training.detect_plateau", "span"),
    ("qperceptron.harness", "check_exact_representability", "tasks.oracle", "span"),
    ("qperceptron.tasks", "check_exact_representability", "tasks.oracle", "span"),
    ("qperceptron.tasks", "verify_truth_table", "tasks.verify", "span"),
    ("qperceptron.tasks", "forward_statevector", "dynamics.forward_statevector", "span"),
    ("qperceptron.dynamics", "_propagate_grid", "dynamics.propagate", "span"),
    ("qperceptron.dynamics", "apply_perceptron_gate", "dynamics.apply_perceptron_gate", "count"),
    ("qperceptron.training", "activation", "core.activation", "count"),
    ("qperceptron.dynamics", "activation", "core.activation", "count"),
    ("qperceptron.training", "evaluate_potential", "core.evaluate_potential", "count"),
    ("qperceptron.dynamics", "evaluate_potential", "core.evaluate_potential", "count"),
)

class Recorder:
    """In-memory spans and call counts of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._counters: dict[str, itertools.count] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._caller_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counter(self, name: str) -> itertools.count:
        """A call counter; ``next()`` on it is one C call, so no update is lost."""
        return self._counters.setdefault(name, itertools.count())

    def counts(self) -> dict[str, int]:
        """Calls so far per counter (reading advances each counter once)."""
        return {name: next(c) for name, c in self._counters.items()}

    @contextlib.contextmanager
    def span(self, name: str, tag: str = ""):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._caller_stack:
            parent = self._caller_stack[-1]
        else:
            parent = 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, tag, start, end, parent, threading.get_ident(), self.run_id)
            )

    def write(self, path: Path) -> None:
        """Write every span, one JSON list per line, then the counts."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": self.counts()}) + "\n")


def read(path: Path) -> tuple[list[tuple], dict[str, int]]:
    spans, counts = [], {}
    with open(path) as fh:
        for line in fh:
            item = json.loads(line)
            if isinstance(item, dict):
                counts = item["counts"]
            else:
                spans.append(tuple(item))
    return spans, counts


def _wrap(fn: Callable, recorder: Recorder, name: str, kind: str) -> Callable:
    if kind == "count":
        counter = recorder.counter(name)

        def counted(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)
        return counted
    def timed(*args, **kwargs):
        # the tag is the engine a verification used; the benchmark passes it by keyword
        with recorder.span(name, kwargs.get("engine", "")):
            return fn(*args, **kwargs)
    return timed


def install(recorder: Recorder) -> Callable[[], None]:
    """Replace every call site in WRAPPERS; return the function that restores them."""
    restore = []
    for module_name, attr, name, kind in WRAPPERS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        setattr(module, attr, _wrap(fn, recorder, name, kind))
        restore.append((module, attr, fn))

    def uninstall() -> None:
        for module, attr, fn in restore:
            setattr(module, attr, fn)
    return uninstall


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children_cover(span: tuple, children: list[tuple]) -> float:
    start, end = span[3], span[4]
    return union_length((max(c[3], start), min(c[4], end)) for c in children)


def layer_metrics(
    spans: list[tuple],
    counts: dict[str, int],
    rounds: int,
    tally: dict[str, float],
) -> dict[str, float]:
    """Per-layer numbers per round of the workload, from ``rounds`` traced rounds.

    ``tally`` holds the workload's own totals over those rounds, read from
    the program's outputs: ``epochs``, ``rows.scalar``, ``rows.statevector``,
    ``point_steps``, ``emit_bytes``, ``oracle_outputs``, ``oracle_feasible``.
    """
    by_name: dict[str, list[tuple]] = {}
    children: dict[int, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
        children.setdefault(span[5], []).append(span)

    def total_s(name: str, tag: str | None = None) -> float:
        return sum(
            s[4] - s[3] for s in by_name.get(name, ()) if tag is None or s[2] == tag
        )

    def per_round(value: float) -> float:
        return value / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def ms_p50(name: str) -> float:
        durations = [s[4] - s[3] for s in by_name.get(name, ())]
        return 1e3 * statistics.median(durations) if durations else 0.0

    def coverage(name: str) -> float:
        parents = by_name.get(name, ())
        covered = sum(_children_cover(p, children.get(p[0], [])) for p in parents)
        return ratio(covered, sum(p[4] - p[3] for p in parents))

    experiments = by_name.get("harness.run_experiment", ())
    train_busy = total_s("training.train")
    train_union = sum(
        union_length(
            (c[3], c[4]) for c in children.get(e[0], []) if c[1] == "training.train"
        )
        for e in experiments
    )
    experiment_self = sum(
        (e[4] - e[3]) - _children_cover(e, children.get(e[0], [])) for e in experiments
    )
    epochs = tally.get("epochs", 0.0)
    point_steps = tally.get("point_steps", 0.0)
    return {
        "core.activation.calls": per_round(counts.get("core.activation", 0)),
        "core.evaluate_potential.calls": per_round(counts.get("core.evaluate_potential", 0)),
        "training.train.calls": per_round(len(by_name.get("training.train", ()))),
        "training.train.busy_s": per_round(train_busy),
        "training.epochs": per_round(epochs),
        "training.us_per_epoch": 1e6 * ratio(train_union, epochs),
        "training.concurrency": ratio(train_busy, train_union),
        "training.initialize_network.s": per_round(total_s("training.initialize_network")),
        "training.detect_plateau.s": per_round(total_s("training.detect_plateau")),
        "tasks.resolve_task.s": per_round(total_s("tasks.resolve_task")),
        "tasks.oracle.calls": per_round(len(by_name.get("tasks.oracle", ()))),
        "tasks.oracle.ms_p50": ms_p50("tasks.oracle"),
        "tasks.oracle.s": per_round(total_s("tasks.oracle")),
        "tasks.oracle.feasible_ratio": ratio(
            tally.get("oracle_feasible", 0.0), tally.get("oracle_outputs", 0.0)
        ),
        "tasks.verify.scalar.ms_per_row": 1e3
        * ratio(total_s("tasks.verify", "scalar"), tally.get("rows.scalar", 0.0)),
        "tasks.verify.statevector.ms_per_row": 1e3
        * ratio(total_s("tasks.verify", "statevector"), tally.get("rows.statevector", 0.0)),
        "dynamics.forward_statevector.calls": per_round(
            len(by_name.get("dynamics.forward_statevector", ()))
        ),
        "dynamics.forward_statevector.ms_p50": ms_p50("dynamics.forward_statevector"),
        "dynamics.apply_perceptron_gate.calls": per_round(
            counts.get("dynamics.apply_perceptron_gate", 0)
        ),
        "dynamics.propagate.s": per_round(total_s("dynamics.propagate")),
        "dynamics.point_steps": per_round(point_steps),
        "dynamics.ns_per_point_step": 1e9 * ratio(total_s("dynamics.propagate"), point_steps),
        "harness.run_experiment.self_s": per_round(experiment_self),
        "harness.run_experiment.child_coverage": coverage("harness.run_experiment"),
        "harness.emit.s": per_round(total_s("harness.emit")),
        "harness.emit.bytes": per_round(tally.get("emit_bytes", 0.0)),
        "bench.op.child_coverage": coverage("bench.op"),
    }
