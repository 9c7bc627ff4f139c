"""Per-layer spans recorded from harness code.

The traced run (``run.py --trace 1``) rebinds the program's public entry
points to wrappers that record one span per call: name, start, end, the
span that caused it, and the benchmark operation it belongs to.  Nothing
in ``src/`` changes; the wrappers sit at the module boundaries a caller
would use.

* Every ``sys.modules`` attribute that *is* an original function is
  rebound, so call sites that did ``from repro.x import f`` are covered
  as well as ``repro.x.f``.
* Only the outermost call of a recursive function is recorded (a
  re-entrancy guard per thread), so self time is never counted twice.
* Generator functions (the kernel's ``propagating_search``) are timed
  across every resume; coroutine functions (the service's batcher) get a
  wall-clock span that does not take part in the parent stack, because
  coroutines interleave on one thread.
* Self time aggregates as spans close; the first :data:`KEEP_SPANS`
  spans are also kept in memory for the Chrome trace written at exit.
"""

import importlib
import inspect
import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

#: (span name, module, attribute) for every wrapped entry point.
#: ``union_branches`` stands for the family stage: it is what the engine
#: and the semantic cache call (``family_of`` is a thin wrapper over it).
ENTRY_POINTS = (
    ("coql.parse", "repro.coql.parser", "parse_coql"),
    ("coql.typecheck", "repro.coql.typecheck", "typecheck"),
    ("coql.normalize", "repro.coql.normalize", "normalize"),
    ("coql.encode", "repro.coql.encode", "encode_query"),
    ("coql.family", "repro.coql.family", "union_branches"),
    ("fingerprint.artifact_key", "repro.pipeline.fingerprint",
     "artifact_key"),
    ("fingerprint.fingerprint", "repro.pipeline.fingerprint", "fingerprint"),
    ("store.lookup", "repro.pipeline.store", "ArtifactStore.lookup"),
    ("store.store", "repro.pipeline.store", "ArtifactStore.store"),
    ("persist.tiered_lookup", "repro.pipeline.persist", "TieredStore.lookup"),
    ("persist.tiered_store", "repro.pipeline.persist", "TieredStore.store"),
    ("persist.flush", "repro.pipeline.persist", "TieredStore.flush"),
    ("persist.store_many", "repro.pipeline.persist",
     "PersistentStore.store_many"),
    ("persist.disk_lookup", "repro.pipeline.persist",
     "PersistentStore.lookup"),
    ("stages.prepare", "repro.pipeline.stages", "Pipeline.prepare"),
    ("stages.obligations", "repro.pipeline.stages",
     "Pipeline.enumerate_obligations"),
    ("stages.decide", "repro.pipeline.stages", "Pipeline.decide_obligation"),
    ("simulation.target", "repro.grouping.simulation",
     "build_simulation_target"),
    ("simulation.certificate", "repro.grouping.simulation",
     "simulation_certificate"),
    ("kernel.compile", "repro.cq.propagation", "compile_target"),
    ("kernel.search", "repro.cq.propagation", "propagating_search"),
    ("engine.contains", "repro.engine.core", "ContainmentEngine.contains"),
    ("engine.pairwise_matrix", "repro.engine.parallel",
     "ParallelContainmentEngine.pairwise_matrix"),
    ("engine.contains_many", "repro.engine.parallel",
     "ParallelContainmentEngine.contains_many"),
    ("service.submit", "repro.service.batching", "MicroBatcher.submit"),
    ("service.window", "repro.service.batching", "MicroBatcher._close_window"),
    ("service.batch", "repro.service.batching", "MicroBatcher._run"),
    ("semcache.lookup", "repro.semcache.cache", "SemanticCache.lookup"),
    ("semcache.classify", "repro.semcache.cache", "SemanticCache.classify"),
    ("semcache.residual", "repro.semcache.residual", "residual_plan"),
    ("semcache.evaluate", "repro.coql.eval", "evaluate_coql"),
)

_FRONT_END = ("coql.parse", "coql.typecheck", "coql.normalize",
              "coql.encode", "coql.family")
_DECISION = ("fingerprint.artifact_key", "fingerprint.fingerprint",
             "store.lookup", "store.store", "stages.prepare",
             "stages.obligations", "stages.decide", "simulation.target",
             "simulation.certificate", "kernel.compile", "kernel.search",
             "engine.contains")

#: The spans each workload's traced phase must emit.  A wrapper that
#: never fires means an entry point was renamed or bypassed, and the
#: traced run fails.  Warm matrix checks are store hits end to end, so
#: the front end and the kernel are expected to stay silent there.
EXPECTED = {
    "matrix_cold": _FRONT_END + _DECISION + ("engine.pairwise_matrix",),
    "matrix_warm": ("coql.family", "fingerprint.artifact_key",
                    "fingerprint.fingerprint", "store.lookup",
                    "stages.prepare", "stages.obligations", "stages.decide",
                    "engine.contains"),
    "adversary": _FRONT_END + _DECISION,
    "service_mixed": _FRONT_END + _DECISION + (
        "persist.tiered_lookup", "persist.tiered_store", "persist.flush",
        "persist.store_many", "persist.disk_lookup", "engine.contains_many",
        "service.submit", "service.window", "service.batch",
    ),
    "semcache_zipf": _FRONT_END + _DECISION + (
        "semcache.lookup", "semcache.classify", "semcache.residual",
        "semcache.evaluate",
    ),
}

#: Spans kept for the Chrome trace; self time is aggregated for all.
KEEP_SPANS = 50000


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.spans = []
        self.epoch = perf_counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.active = Counter()
        return stack

    def open(self, name):
        """Push a span; None when *name* is already open on this thread."""
        stack = self._stack()
        active = self._local.active
        if active[name]:
            return None
        active[name] += 1
        span_id = next(self._ids)
        parent = stack[-1][3] if stack else None
        # Spans of one operation share the id of its outermost span.
        root = stack[0][3] if stack else span_id
        frame = [name, perf_counter(), 0.0, span_id, parent, root]
        stack.append(frame)
        return frame

    def close(self, frame, count=True):
        end = perf_counter()
        stack = self._local.stack
        stack.pop()
        self._local.active[frame[0]] -= 1
        name, start, child, span_id, parent, root = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            if count:
                self.calls[name] += 1
            self.self_s[name] += duration - child
            self.inclusive_s[name] += duration
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((name, start, end, span_id, parent, root,
                                   threading.get_ident()))

    def record_async(self, name, start, end):
        """A coroutine span: wall time only, outside the parent stack."""
        span_id = next(self._ids)
        with self._lock:
            self.calls[name] += 1
            self.self_s[name] += end - start
            self.inclusive_s[name] += end - start
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((name, start, end, span_id, None, span_id,
                                   threading.get_ident()))

    @classmethod
    def from_summary(cls, summary):
        """A recorder holding the aggregates of another process's
        :meth:`summary` (no kept spans)."""
        recorder = cls()
        for name, row in summary.items():
            recorder.calls[name] = row["calls"]
            recorder.self_s[name] = row["self_s"]
            recorder.inclusive_s[name] = row["inclusive_s"]
        return recorder

    def summary(self):
        return {
            name: {"calls": self.calls[name], "self_s": self.self_s[name],
                   "inclusive_s": self.inclusive_s[name]}
            for name in sorted(self.calls)
        }

    def chrome_trace(self):
        pid = os.getpid()
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"name": name, "cat": name.split(".")[0], "ph": "X",
                 "ts": (start - self.epoch) * 1e6,
                 "dur": (end - start) * 1e6, "pid": pid, "tid": tid,
                 "args": {"id": span_id, "parent": parent, "op": op}}
                for name, start, end, span_id, parent, op, tid in self.spans
            ],
        }


def _wrap(recorder, name, original):
    if inspect.isgeneratorfunction(original):
        def wrapper(*args, **kwargs):
            generator = original(*args, **kwargs)
            first = True
            try:
                while True:
                    frame = recorder.open(name)
                    try:
                        item = next(generator)
                    except StopIteration as stop:
                        if frame is not None:
                            recorder.close(frame, count=first)
                        return stop.value
                    except BaseException:
                        if frame is not None:
                            recorder.close(frame, count=first)
                        raise
                    if frame is not None:
                        recorder.close(frame, count=first)
                        first = False
                    yield item
            finally:
                generator.close()
    elif inspect.iscoroutinefunction(original):
        async def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                recorder.record_async(name, start, perf_counter())
    else:
        def wrapper(*args, **kwargs):
            frame = recorder.open(name)
            if frame is None:
                return original(*args, **kwargs)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(frame)
    wrapper.__name__ = getattr(original, "__name__", name)
    wrapper.__qualname__ = getattr(original, "__qualname__", name)
    wrapper.__doc__ = original.__doc__
    wrapper.__wrapped__ = original
    return wrapper


def install(recorder):
    """Wrap every entry point; returns a callable that restores them."""
    restores = []
    functions = {}
    for name, module_name, attribute in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(recorder, name, original))
            restores.append((owner, attr, original))
        else:
            original = getattr(module, attr)
            functions[id(original)] = (original,
                                       _wrap(recorder, name, original))
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            entry = functions.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                restores.append((module, attr, value))

    def restore():
        for owner, attr, original in reversed(restores):
            setattr(owner, attr, original)

    return restore


def silent_entry_points(recorder, workload):
    """Expected spans of *workload* that never fired."""
    return sorted(n for n in EXPECTED[workload] if not recorder.calls[n])


def write_outputs(recorder, stem, extra):
    """``STEM.trace.json`` (Chrome trace) and ``STEM.layers.json`` (the
    self-time summary plus *extra*)."""
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    with open(stem + ".trace.json", "w") as handle:
        json.dump(recorder.chrome_trace(), handle)
    summary = {"spans": recorder.summary(), **extra}
    with open(stem + ".layers.json", "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True, default=str)
