"""Instrumentation for the containment engine.

:class:`EngineStats` aggregates everything a :class:`repro.engine.core.\
ContainmentEngine` observes while deciding containment questions:

* **cache counters** — ``prepare_hits``/``prepare_misses``,
  ``obligation_cache_hits``/``obligation_cache_misses``,
  ``nonempty_hits``/``nonempty_misses``;
* **obligation counters** — ``obligations_checked`` (simulation
  subproblems actually decided) and ``obligations_skipped_implied``
  (truncation patterns never materialized because they prune a provably
  non-empty node and are therefore implied by a larger pattern);
* **search effort** — homomorphism search nodes, backtracks, domain
  wipeouts and components solved, reported by
  :class:`repro.cq.homomorphism.SearchCounters`, plus
  ``certificate_searches`` (searches over a simulation target; a
  value-pinning refutation runs none), ``witness_escalations`` (checks
  under inclusion dependencies only: an unconstrained check decides
  with one witness copy) and
  ``target_cache_hits``/``target_cache_misses`` (compiled
  simulation-target reuse) from :mod:`repro.grouping.simulation`;
* **per-stage wall time** — seconds spent in ``parse``, ``typecheck``,
  ``normalize``, ``encode``, ``obligations`` (pattern enumeration,
  including the provably-non-empty tests) and ``simulation``.

The per-stage timers are a **view over the pipeline trace**: the only
writer of :meth:`add_time` in the library is
:class:`repro.pipeline.trace.Tracer`, which adds each closing span's
duration to the timer of the same stage name.  Summing a tracer's span
durations per stage therefore reconciles exactly with these timers —
there is no second, separately maintained timing path to drift.

The object is cheap, mutable, and additive: engines keep one for their
lifetime; :meth:`snapshot` / :meth:`as_dict` produce plain dictionaries
for logging, the CLI ``--stats`` flag, and the benchmark harness.
Aggregation is exhaustive by construction: the homomorphism tallies are
folded via :func:`dataclasses.fields` introspection of
:class:`SearchCounters`, so a counter field added there is merged and
reported without touching this module (the round-trip test in
``tests/test_engine.py`` pins this).
"""

from dataclasses import fields

from repro.cq.homomorphism import SearchCounters

__all__ = ["EngineStats"]


class EngineStats:
    """Counters and timers accumulated by a containment engine."""

    __slots__ = ("counters", "timers", "search", "diagnostics")

    def __init__(self):
        self.counters = {}
        self.timers = {}
        self.search = SearchCounters()
        self.diagnostics = []

    # -- recording -----------------------------------------------------

    def tally(self, name, amount=1):
        """Add *amount* to the counter *name* (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, stage, seconds):
        """Add wall time to the *stage* timer."""
        self.timers[stage] = self.timers.get(stage, 0.0) + seconds

    def add_diagnostics(self, diagnostics):
        """Record :class:`repro.analysis.Diagnostic` findings.

        The engine's opt-in pre-check (``ContainmentEngine(analyze=
        True)``) attaches what the analyzer found to the stats, so batch
        callers can collect lint findings alongside verdicts without a
        second pass over the queries.
        """
        self.diagnostics.extend(diagnostics)

    def reset(self):
        """Zero every counter and timer (the engine's caches survive)."""
        self.counters.clear()
        self.timers.clear()
        self.search.reset()
        del self.diagnostics[:]

    def merge(self, other):
        """Add every tally of *other* into this object; return ``self``.

        Counters and search tallies add; timers add (they are cumulative
        wall time, so merging worker stats yields total CPU-seconds
        across processes, which can exceed elapsed wall time).  Used by
        the parallel engine to fold worker-side stats back into the
        parent's — additive on every field, so no counter introduced by
        a worker is ever silently dropped.
        """
        if not isinstance(other, EngineStats):
            raise TypeError(
                "can only merge EngineStats, got %r" % (type(other).__name__,)
            )
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for stage, seconds in other.timers.items():
            self.timers[stage] = self.timers.get(stage, 0.0) + seconds
        self.search.merge(other.search)
        self.diagnostics.extend(other.diagnostics)
        return self

    # -- reading -------------------------------------------------------

    def counter(self, name):
        """The current value of counter *name* (0 when never tallied)."""
        return self.counters.get(name, 0)

    def time(self, stage):
        """Accumulated seconds in *stage* (0.0 when never timed)."""
        return self.timers.get(stage, 0.0)

    def as_dict(self):
        """Everything as one flat ``{name: number}`` dictionary.

        Timers are prefixed ``time_``; the homomorphism tallies appear
        as ``homomorphism_nodes``, ``homomorphism_backtracks``,
        ``homomorphism_domain_wipeouts`` and
        ``homomorphism_components_solved``.
        """
        out = dict(self.counters)
        for field in fields(SearchCounters):
            out["homomorphism_" + field.name] = getattr(
                self.search, field.name
            )
        if self.diagnostics:
            out["analysis_diagnostics"] = len(self.diagnostics)
        for stage in sorted(self.timers):
            out["time_" + stage] = self.timers[stage]
        return out

    snapshot = as_dict

    def format(self):
        """A human-readable multi-line report (used by ``--stats``)."""
        lines = []
        data = self.as_dict()
        width = max((len(k) for k in data), default=0)
        for name in sorted(data):
            value = data[name]
            if isinstance(value, float):
                lines.append("%-*s  %.6fs" % (width, name, value))
            else:
                lines.append("%-*s  %d" % (width, name, value))
        return "\n".join(lines)

    def __repr__(self):
        return (
            "EngineStats(obligations_checked=%d, cache_hits=%d, "
            "hom_nodes=%d)"
            % (
                self.counter("obligations_checked"),
                self.counter("obligation_cache_hits"),
                self.search.nodes,
            )
        )
