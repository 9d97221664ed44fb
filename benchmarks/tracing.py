"""Span tracing of biaslab's layers, installed from outside the package.

``experiment`` and the closed-form modules call their collaborators through
names bound in their own module namespaces (``from .dgp import generate``
and so on). :class:`Tracer` replaces those names with timing wrappers while
it is installed and puts the originals back when it is removed, so the
library itself is not edited and an untraced grid runs the original code.

Each call becomes a :class:`Span` with a name, start, end, parent id and the
(cell, replication) it belongs to. Spans stay in memory; the caller writes
them out once, after the measurement.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from biaslab import analytic_linear, analytic_probit, experiment


def _rows_out(args, out):
    return {"rows": len(out)}


def _rows_first_arg(args, out):
    return {"rows": len(args[0])}


def _generated_rows(args, out):
    return {"rows": out.n}


def _forest_shape(args, out):
    return {"trees": len(out.forest), "nodes": sum(t.feature.shape[0] for t in out.forest)}


def _newton_iters(args, out):
    return {"newton_iters": out.diagnostics.iterations}


def _cell_errors(args, out):
    return {"errors": int(out.verdict == "error")}


# (module, name looked up in it, span name, counts taken from (args, result))
TARGETS = (
    (experiment, "load_config", "experiment.load_config", None),
    (experiment, "run_cell", "experiment.run_cell", _cell_errors),
    (experiment, "run_replication", "experiment.run_replication", None),
    (experiment, "generate", "dgp.generate", _generated_rows),
    (experiment, "fit_ols", "estimators.fit_ols", None),
    (experiment, "fit_probit", "estimators.fit_probit", _newton_iters),
    (experiment, "fit_logit", "estimators.fit_logit", _newton_iters),
    (experiment, "fit_forest", "estimators.fit_forest", _forest_shape),
    (experiment, "predict", "estimators.predict", _rows_out),
    (experiment, "error_report", "audit.error_report", _rows_first_arg),
    (experiment, "aggregate", "experiment.aggregate", None),
    (experiment, "analytic_for_cell", "experiment.analytic_for_cell", None),
    (experiment, "compare", "audit.compare", None),
    (experiment, "omitted_group_errors", "analytic_linear.omitted_group_errors", None),
    (
        experiment,
        "omitted_group_errors_probit",
        "analytic_probit.omitted_group_errors_probit",
        None,
    ),
    (experiment, "render", "experiment.render", None),
    (analytic_linear, "group_moments", "moments.group_moments", None),
    (analytic_linear, "pooled_moments", "moments.pooled_moments", None),
    (analytic_probit, "group_moments", "moments.group_moments", None),
    (analytic_probit, "pooled_moments", "moments.pooled_moments", None),
)


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "cell", "rep", "counts", "reps_seen")

    def __init__(self, span_id, name, parent, cell, rep):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.cell = cell
        self.rep = rep
        self.start = self.end = 0.0
        self.counts = {}
        self.reps_seen = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, origin: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "cell": self.cell,
            "rep": self.rep,
            "start": self.start - origin,
            "end": self.end - origin,
            **self.counts,
        }


class Tracer:
    """Collects spans from the wrapped layer functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.origin = time.perf_counter()
        self._stack: list[Span] = []

    def _open(self, name: str, args: tuple) -> Span:
        parent = self._stack[-1] if self._stack else None
        cell = parent.cell if parent else None
        rep = parent.rep if parent else None
        if name == "experiment.run_cell":
            cell, rep = args[1], None  # run_cell(cell, cell_index, config, ...)
        elif name == "experiment.run_replication" and parent is not None:
            # run_cell runs its replications in index order
            rep = parent.reps_seen
            parent.reps_seen += 1
        span = Span(len(self.spans), name, parent.id if parent else None, cell, rep)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A root or intermediate span opened by the caller itself."""
        span = self._open(name, ())
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, args)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counts = count(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in its importing module; restore on exit."""
        saved = []
        try:
            for module, attr, name, count in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(self.origin)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (inclusive), self_s and summed counts."""
    selfs = self_times(spans)
    totals = defaultdict(lambda: defaultdict(float))
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["busy_s"] += span.duration
        entry["self_s"] += selfs[span.id]
        for key, value in span.counts.items():
            entry[key] += value
    return totals
