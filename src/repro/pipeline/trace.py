"""Structured per-stage tracing for the decision pipeline.

Every stage run — a parse, an encode, one simulation obligation — is
recorded as a :class:`TraceEvent` carrying the stage name, wall time,
cache outcome, and free-form metadata (artifact sizes, search-counter
deltas).  Events nest: a ``check`` span opened by
:meth:`ContainmentEngine.contains` holds the prepare/obligation/
simulation spans it caused, giving a per-check trace *tree*.

The :class:`Tracer` is also the **single writer of the engine's
per-stage timers**: when a span closes, its duration is added to the
bound :class:`repro.engine.stats.EngineStats` timer of the same name
(for the stages in :data:`TIMED_STAGES`).  ``EngineStats.timers`` is
therefore a view over the trace — the two can never disagree, and the
reconciliation ``sum of span durations per stage == stats.time(stage)``
holds by construction.

Exports: :meth:`Tracer.as_dict` (plain JSON tree) and
:meth:`Tracer.chrome_trace` — the Chrome ``trace_event`` format
(``chrome://tracing`` / Perfetto ``X`` complete events), written by the
CLI's ``--trace-out``.

Retention is optional: a ``Tracer(retain=False)`` still feeds the stats
timers and the per-stage rollup of :meth:`Tracer.stage_summary` but
keeps no event objects, which is what parallel workers and ``repro
serve`` use so a long-lived process never accumulates trace memory.
"""

import json
import os
from contextlib import contextmanager
from time import perf_counter

__all__ = ["TraceEvent", "Tracer", "TIMED_STAGES"]

#: Stage names whose span durations feed ``EngineStats`` timers.  The
#: top-level ``check`` span is excluded: it *contains* the stage spans,
#: so timing it too would double-count every second.
TIMED_STAGES = frozenset({
    "parse",
    "typecheck",
    "normalize",
    "encode",
    "obligations",
    "simulation",
    "analysis",
    "minimize",
})


class TraceEvent:
    """One stage run (a span) in the trace tree.

    Attributes:
        stage: the stage name (``parse``, ``simulation``, ``check``, ...).
        label: optional human label (e.g. the query role).
        start: ``perf_counter`` timestamp at span entry.
        duration: wall seconds (filled when the span closes).
        cache: ``"hit"``, ``"miss"``, or None for uncached stages.
        meta: free-form ``{str: json-able}`` metadata.
        children: nested spans, in start order.
    """

    __slots__ = ("stage", "label", "start", "duration", "cache", "meta",
                 "children")

    def __init__(self, stage, label=None):
        self.stage = stage
        self.label = label
        self.start = perf_counter()
        self.duration = 0.0
        self.cache = None
        self.meta = {}
        self.children = []

    def annotate(self, cache=None, **meta):
        """Attach a cache outcome and/or metadata to the span."""
        if cache is not None:
            self.cache = cache
        self.meta.update(meta)
        return self

    def walk(self):
        """This event and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self):
        out = {"stage": self.stage, "duration_s": self.duration}
        if self.label is not None:
            out["label"] = self.label
        if self.cache is not None:
            out["cache"] = self.cache
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [child.as_dict() for child in self.children]
        return out

    def __repr__(self):
        extra = " cache=%s" % self.cache if self.cache else ""
        return "TraceEvent(%s, %.6fs, children=%d%s)" % (
            self.stage, self.duration, len(self.children), extra)


class Tracer:
    """Collects a forest of :class:`TraceEvent` spans.

    :param stats: the :class:`EngineStats` whose per-stage timers this
        tracer maintains (None = trace only).
    :param retain: keep event objects for export (True) or feed the
        timers and the stage rollup and drop them (False, the mode of
        the parallel workers and the service).
    """

    def __init__(self, stats=None, retain=True):
        self._stats = stats
        self._retain = retain
        self._roots = []
        self._stack = []
        self._summary = {}
        self._epoch = perf_counter()

    @contextmanager
    def span(self, stage, label=None, **meta):
        """Open a span; yields the :class:`TraceEvent` for annotation."""
        event = TraceEvent(stage, label)
        if meta:
            event.meta.update(meta)
        if self._retain:
            if self._stack:
                self._stack[-1].children.append(event)
            else:
                self._roots.append(event)
        self._stack.append(event)
        try:
            yield event
        finally:
            self._stack.pop()
            event.duration = perf_counter() - event.start
            if self._stats is not None and stage in TIMED_STAGES:
                self._stats.add_time(stage, event.duration)
            row = self._summary.get(stage)
            if row is None:
                row = self._summary[stage] = {
                    "runs": 0, "seconds": 0.0, "hits": 0, "misses": 0,
                }
            row["runs"] += 1
            row["seconds"] += event.duration
            if event.cache == "hit":
                row["hits"] += 1
            elif event.cache == "miss":
                row["misses"] += 1

    def bind_stats(self, stats):
        """Re-point the timer sink (used when stats objects are swapped)."""
        self._stats = stats

    # -- reading -------------------------------------------------------

    def roots(self):
        """The retained top-level spans (per-check trace trees)."""
        return tuple(self._roots)

    def events(self):
        """Every retained span, pre-order across all roots."""
        for root in self._roots:
            yield from root.walk()

    def clear(self):
        """Drop every retained span and the stage rollup (open spans
        keep recording)."""
        del self._roots[:]
        self._summary.clear()

    def stage_summary(self):
        """Per-stage rollup: ``{stage: {runs, seconds, hits, misses}}``.

        The per-stage breakdown behind the CLI's ``--stats`` report,
        tallied as spans close, so it needs no retained events;
        ``seconds`` sums span durations, so for the stages of
        :data:`TIMED_STAGES` it reconciles exactly with the
        ``EngineStats`` timers this tracer maintains.
        """
        return {stage: dict(row) for stage, row in self._summary.items()}

    # -- exports -------------------------------------------------------

    def as_dict(self):
        """The trace forest as a plain JSON-able dictionary."""
        return {"version": 1, "checks": [r.as_dict() for r in self._roots]}

    def chrome_trace(self):
        """The trace in Chrome ``trace_event`` JSON (complete events).

        Load the written file in ``chrome://tracing`` or Perfetto.  One
        ``X`` (complete) event per span: ``ts``/``dur`` in microseconds
        relative to the tracer's creation, cache outcome and metadata
        under ``args``.
        """
        trace_events = []
        pid = os.getpid()
        for event in self.events():
            args = dict(event.meta)
            if event.label is not None:
                args["label"] = event.label
            if event.cache is not None:
                args["cache"] = event.cache
            trace_events.append({
                "name": event.stage,
                "cat": "pipeline",
                "ph": "X",
                "ts": (event.start - self._epoch) * 1e6,
                "dur": event.duration * 1e6,
                "pid": pid,
                "tid": 0,
                "args": args,
            })
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path):
        """Write :meth:`chrome_trace` to *path* as JSON."""
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def __repr__(self):
        return "Tracer(checks=%d, retain=%s)" % (
            len(self._roots), self._retain)
