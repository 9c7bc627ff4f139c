"""Parallel sharded batch containment.

Simulation of grouping queries is NP-complete (Theorem 5.1), so a batch
of containment checks — a view catalog's N×N matrix, a workload sweep —
can contain individual checks that are pathologically slow while the
rest are milliseconds.  :class:`ParallelContainmentEngine` scales the
batch entry points of :class:`repro.engine.core.ContainmentEngine`
across a :class:`concurrent.futures.ProcessPoolExecutor` and bounds
every check with a wall-clock budget:

* **sharding** — a batch is split into index-tagged chunks (size
  configurable via *chunk_size*; by default ~4 chunks per worker so
  slow chunks rebalance), dispatched to the pool, and reassembled in
  submission order, so results are **deterministic**: the verdict list
  is identical to the sequential engine's regardless of scheduling;
* **per-check timeouts** — inside a worker each check runs under a
  ``SIGALRM`` deadline of *timeout_s* seconds; a check that exceeds it
  is abandoned and reported as the :data:`UNDECIDED` verdict instead of
  hanging the whole batch;
* **worker-side memo tables** — every worker process owns a full
  :class:`ContainmentEngine`, so prepared queries, obligation verdicts
  and compiled simulation targets are cached *within* a worker for the
  lifetime of the pool (warm across chunks and across batches; shards
  sharing a subquery reuse its compiled target); each chunk's
  :class:`EngineStats` delta is shipped back and folded into the
  parent's stats via :meth:`EngineStats.merge`, with batch-level
  counters on top (``tasks_dispatched``, ``chunks_dispatched``,
  ``timeouts``, ``worker_cache_hits``, ``pool_failures``);
* **graceful degradation** — with ``jobs=1``, on platforms without
  ``SIGALRM``-capable process pools, or after a pool failure
  (:class:`BrokenProcessPool`), batches fall back to the in-process
  sequential engine with the same timeout semantics, so callers never
  need a platform case-split.

Pickling constraints: queries cross the process boundary, so inputs
must be query *text*, :class:`repro.coql.ast.Expr` trees, or (for
:meth:`simulated_many`) :class:`repro.grouping.query.GroupingQuery`
objects — all picklable via :class:`repro.pickling.PicklableSlots`.
Timeout enforcement needs ``signal.SIGALRM`` (POSIX); elsewhere checks
run to completion and *timeout_s* is advisory only.
"""

import os
import signal
import threading
from time import monotonic
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

from repro.errors import (
    ContainmentTimeout,
    IncomparableQueriesError,
    UnsupportedQueryError,
)
from repro.engine.core import ContainmentEngine
from repro.engine.stats import EngineStats

__all__ = ["ParallelContainmentEngine", "UNDECIDED", "Undecided"]


class Undecided:
    """The verdict of a timed-out check (singleton :data:`UNDECIDED`).

    Falsy — treating it as a boolean errs on the safe side (containment
    *not proven*) — but distinguishable from False with an identity
    test, and from None (the pairwise-matrix marker for incomparable
    pairs).
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self):
        return False

    def __repr__(self):
        return "UNDECIDED"

    def __reduce__(self):
        return (Undecided, ())


#: The singleton verdict reported for checks that hit their timeout.
UNDECIDED = Undecided()


@contextmanager
def _deadline(seconds):
    """Raise :class:`ContainmentTimeout` after *seconds* of wall time.

    Enforcement uses ``SIGALRM`` and therefore only works on POSIX and
    in a process's main thread (true for pool workers, which execute
    tasks in their main thread).  Where unavailable the body simply runs
    to completion.

    Deadlines nest: entering a deadline while an ``ITIMER_REAL`` is
    already armed (an outer batch deadline around a per-check one) runs
    the body under the *tighter* of the two budgets, and on exit
    re-arms the outer timer with its remaining time minus what the body
    consumed — an outer deadline is never silently cancelled, only
    deferred to its original expiry.  An outer timer that should have
    fired mid-body fires immediately on exit.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expire(signum, frame):
        raise ContainmentTimeout(
            "containment check exceeded %gs" % (seconds,)
        )

    previous = signal.signal(signal.SIGALRM, _expire)
    # setitimer returns the time the pre-existing timer had left; an
    # outer deadline tighter than ours bounds the body instead of ours.
    budget = seconds
    outer_remaining, _ = signal.setitimer(signal.ITIMER_REAL, budget)
    if outer_remaining and outer_remaining < budget:
        budget = outer_remaining
        signal.setitimer(signal.ITIMER_REAL, budget)
    started = monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_remaining:
            # Restore the outer deadline where it would have been: its
            # remaining time minus the body's elapsed time, clamped to
            # "fire now" when the body overran it (setitimer(0) would
            # disarm, so the floor must stay positive).
            left = outer_remaining - (monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-6))


# -- worker side -------------------------------------------------------
#
# Each pool worker holds one module-global ContainmentEngine whose memo
# tables persist for the pool's lifetime.  A chunk resets the worker's
# stats, decides its pairs, and returns (index, outcomes, stats delta);
# outcomes are ("ok", verdict) / ("error", exc) / ("timeout", exc)
# tuples so every policy decision stays in the parent.

_worker_engine = None


def _init_worker(engine_options):
    global _worker_engine
    options = dict(engine_options)
    # Pool workers are long-lived; they feed the per-stage timers but
    # must never accumulate per-check trace trees.
    options.setdefault("retain_trace", False)
    # A store_path gives every worker its own TieredStore over the one
    # shared SQLite database: artifacts prepared by any worker (or by
    # the parent, or by an earlier process) are read through, and each
    # chunk's write-back buffer is flushed when the chunk returns.
    _worker_engine = ContainmentEngine(**options)


def _flush_store(engine):
    store = engine.store()
    flush = getattr(store, "flush", None)
    if flush is not None:
        flush()


def _decide_one(engine, kind, pair, schema, constraints, timeout_s):
    try:
        with _deadline(timeout_s):
            if kind == "contains":
                sup, sub = pair
                return (
                    "ok",
                    engine.contains(sup, sub, schema, constraints=constraints),
                )
            sub, sup = pair  # kind == "simulate": grouping queries
            return ("ok", engine.simulated(sub, sup))
    except ContainmentTimeout as exc:
        return ("timeout", exc)
    except (IncomparableQueriesError, UnsupportedQueryError) as exc:
        return ("error", exc)


def _run_chunk(chunk_index, kind, pairs, schema, constraints, timeout_s):
    engine = _worker_engine
    if engine is None:  # pool built without initializer (executor=)
        _init_worker({})
        engine = _worker_engine
    engine.reset_stats()
    engine.clear_trace()
    outcomes = [
        _decide_one(engine, kind, pair, schema, constraints, timeout_s)
        for pair in pairs
    ]
    _flush_store(engine)
    return chunk_index, outcomes, engine.stats()


# -- parent side -------------------------------------------------------

_UNSET = object()


class ParallelContainmentEngine:
    """Batch containment sharded across worker processes.

    Drop-in for the batch/check API of :class:`ContainmentEngine`
    (``contains``, ``contains_many``, ``pairwise_matrix`` — same
    arguments, same verdict ordering) plus per-check timeouts and the
    grouping-level :meth:`simulated_many`.  Single checks and fallback
    paths run on an in-process sequential engine (pass *engine* to share
    one, e.g. a :class:`repro.coql.views.ViewCatalog`'s).

    :param jobs: worker processes (None = ``os.cpu_count()``; ``1``
        never forks and runs everything in-process).
    :param timeout_s: default per-check wall-clock budget in seconds
        (None = unbounded).
    :param chunk_size: pairs per dispatched chunk (None = automatic,
        ~4 chunks per worker).
    :param engine: the in-process sequential engine to use for single
        checks, degraded batches, and stats aggregation (a fresh one is
        created otherwise).  Worker engines decide by the certificate
        method, with this engine's cache sizes.
    :param executor: inject a pre-built executor (tests); the engine
        then never shuts it down.
    :param store: a shared store for the in-process engine (see
        :class:`ContainmentEngine`); worker processes cannot share an
        in-memory store — use *store_path* for that.
    :param store_path: SQLite path for the persistent cross-process
        tier: the in-process engine *and every pool worker* layer their
        memory LRU over this one database
        (:class:`repro.pipeline.persist.TieredStore`), so prepared
        encodings and verdicts flow between workers, across batches,
        and across process restarts.  Workers flush their write-back
        buffers at the end of every chunk.
    :param constraints: tuple of
        :class:`repro.constraints.InclusionDependency` declarations
        every check holds under, whether it runs in-process (also when
        *engine* has other default constraints) or in a pool worker,
        which receives them with each chunk (they are picklable value
        objects); classification labels are keyed under them.  Since
        chase artifacts are content-addressed, sequential and parallel
        runs share them through a *store_path* tier.
    """

    def __init__(self, jobs=None, timeout_s=None, chunk_size=None,
                 engine=None, executor=None, prepare_cache_size=512,
                 verdict_cache_size=8192, target_cache_size=1024,
                 store=None, store_path=None, constraints=()):
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise UnsupportedQueryError("jobs must be >= 1, got %r" % (jobs,))
        if chunk_size is not None and chunk_size < 1:
            raise UnsupportedQueryError(
                "chunk_size must be >= 1, got %r" % (chunk_size,)
            )
        self._jobs = jobs
        self._timeout_s = timeout_s
        self._chunk_size = chunk_size
        self._constraints = tuple(constraints)
        self._worker_options = {
            "prepare_cache_size": prepare_cache_size,
            "verdict_cache_size": verdict_cache_size,
            "target_cache_size": target_cache_size,
        }
        if store_path is not None:
            self._worker_options["store_path"] = store_path
        if engine is None:
            engine = ContainmentEngine(
                prepare_cache_size=prepare_cache_size,
                verdict_cache_size=verdict_cache_size,
                target_cache_size=target_cache_size,
                store=store,
                store_path=store_path,
                constraints=constraints,
            )
        self._engine = engine
        self._executor = executor
        self._owns_executor = executor is None
        self._pool_broken = False

    # -- lifecycle -----------------------------------------------------

    @property
    def jobs(self):
        """Configured worker-process count."""
        return self._jobs

    def engine(self):
        """The in-process sequential engine (single checks, fallback)."""
        return self._engine

    def stats(self):
        """Aggregated :class:`EngineStats`: local work plus every merged
        worker delta plus the batch-level parallel counters."""
        return self._engine.stats()

    def tracer(self):
        """The in-process engine's :class:`repro.pipeline.trace.Tracer`.

        Only locally decided checks appear in it (worker processes run
        with trace retention off and ship back stats, not spans) — but
        worker time still lands in the merged per-stage timers."""
        return self._engine.tracer()

    def reset_stats(self):
        self._engine.reset_stats()

    def close(self):
        """Shut down the worker pool (idempotent; the engine remains
        usable — the next batch degrades to in-process execution unless
        a new pool can be created).  A persistent-tier write-back
        buffer on the in-process engine is flushed."""
        if self._executor is not None and self._owns_executor:
            self._executor.shutdown(wait=True)
        self._executor = None
        _flush_store(self._engine)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return "ParallelContainmentEngine(jobs=%d, timeout_s=%r, pool=%s)" % (
            self._jobs,
            self._timeout_s,
            "broken" if self._pool_broken
            else ("up" if self._executor is not None else "idle"),
        )

    def _pool(self):
        if self._jobs <= 1 or self._pool_broken:
            return None
        if self._executor is None:
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=self._jobs,
                    initializer=_init_worker,
                    initargs=(self._worker_options,),
                )
            except (OSError, ValueError):
                self._mark_pool_broken()
        return self._executor

    def _mark_pool_broken(self):
        self.stats().tally("pool_failures")
        self._pool_broken = True
        if self._executor is not None and self._owns_executor:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None

    # -- batch machinery -----------------------------------------------

    def _chunks(self, count):
        if self._chunk_size is not None:
            size = self._chunk_size
        else:
            size = max(1, -(-count // (self._jobs * 4)))
        return [(start, min(start + size, count))
                for start in range(0, count, size)]

    def _merge_worker_stats(self, worker_stats):
        if not isinstance(worker_stats, EngineStats):  # defensive: wire data
            return
        hits = (
            worker_stats.counter("prepare_hits")
            + worker_stats.counter("obligation_cache_hits")
            + worker_stats.counter("nonempty_hits")
            + worker_stats.counter("target_cache_hits")
        )
        stats = self.stats()
        stats.merge(worker_stats)
        stats.tally("worker_cache_hits", hits)

    def _run_batch(self, kind, pairs, schema, timeout_s):
        """Decide every pair; returns outcome tuples in input order."""
        stats = self.stats()
        stats.tally("batch_calls")
        stats.tally("tasks_dispatched", len(pairs))
        spans = self._chunks(len(pairs))
        stats.tally("chunks_dispatched", len(spans))
        pool = self._pool()
        if pool is not None:
            try:
                futures = [
                    pool.submit(
                        _run_chunk, index, kind, pairs[start:stop],
                        schema, self._constraints, timeout_s,
                    )
                    for index, (start, stop) in enumerate(spans)
                ]
                by_index = {}
                for future in futures:
                    index, outcomes, worker_stats = future.result()
                    by_index[index] = outcomes
                    self._merge_worker_stats(worker_stats)
                return [
                    outcome
                    for index in range(len(spans))
                    for outcome in by_index[index]
                ]
            except BrokenProcessPool:
                self._mark_pool_broken()  # fall through: decide in-process
        outcomes = [
            _decide_one(
                self._engine, kind, pair, schema, self._constraints, timeout_s
            )
            for pair in pairs
        ]
        _flush_store(self._engine)
        return outcomes

    def _resolve(self, outcomes, on_error):
        """Verdicts in deterministic pair order: a timed-out check is
        :data:`UNDECIDED`, an error raises or is captured per
        *on_error*."""
        results = []
        for tag, value in outcomes:
            if tag == "ok":
                results.append(value)
            elif tag == "timeout":
                self.stats().tally("timeouts")
                results.append(UNDECIDED)
            elif on_error == "raise":
                raise value
            else:  # a captured error
                results.append(value)
        return results

    def _timeout(self, timeout_s):
        return self._timeout_s if timeout_s is _UNSET else timeout_s

    # -- public decisions ----------------------------------------------

    def contains(self, sup, sub, schema, timeout_s=_UNSET):
        """``sub ⊑ sup``, decided in-process under the timeout budget.

        A single check never pays pool dispatch; it runs on the local
        engine (sharing its caches) with the same timeout semantics as
        the batch paths.
        """
        outcome = _decide_one(
            self._engine, "contains", (sup, sub), schema, self._constraints,
            self._timeout(timeout_s),
        )
        return self._resolve([outcome], "raise")[0]

    def contains_many(self, pairs, schema, on_error="raise",
                      timeout_s=_UNSET):
        """Decide ``sub ⊑ sup`` for every ``(sup, sub)`` pair, sharded.

        Same contract as :meth:`ContainmentEngine.contains_many` — in
        particular the result list order matches the input order exactly
        — plus timeouts: timed-out entries become :data:`UNDECIDED`.  Under
        ``on_error="raise"`` the earliest failing pair's exception is
        raised, after the batch has been fully decided.
        """
        if on_error not in ("raise", "capture"):
            raise UnsupportedQueryError(
                "on_error must be 'raise' or 'capture', got %r" % (on_error,)
            )
        outcomes = self._run_batch(
            "contains", list(pairs), schema, self._timeout(timeout_s)
        )
        return self._resolve(outcomes, on_error)

    def pairwise_matrix(self, queries, schema, timeout_s=_UNSET):
        """The N×N containment matrix of *queries*, sharded.

        ``matrix[i][j]`` is True iff ``queries[j] ⊑ queries[i]``, None
        when the pair is incomparable or outside the decidable fragment,
        and :data:`UNDECIDED` when the check timed out.
        """
        queries = list(queries)
        pairs = [(sup, sub) for sup in queries for sub in queries]
        outcomes = self._run_batch(
            "contains", pairs, schema, self._timeout(timeout_s)
        )
        flat = [
            None if isinstance(verdict, Exception) else verdict
            for verdict in self._resolve(outcomes, "capture")
        ]
        size = len(queries)
        return [flat[row * size:(row + 1) * size] for row in range(size)]

    def classify_many(self, query, candidates, schema, timeout_s=_UNSET):
        """Label every candidate view's usability for *query*, sharded.

        Same contract and label caching as
        :meth:`ContainmentEngine.classify_many`, with the parallel
        engine's timeout semantics on the underlying checks: a timed-out
        direction is :data:`UNDECIDED`, which
        :func:`repro.engine.core.classification_of` never counts as
        proven — an undecided pair degrades to ``contained`` or
        ``irrelevant``, never to ``subsuming``/``equivalent``, and a
        label derived from any undecided direction is *not* cached (the
        next, possibly luckier, run re-decides it).
        """
        from repro.engine.core import resolve_classifications

        self.stats().tally("classify_calls")
        return resolve_classifications(
            self._engine, query, list(candidates), schema,
            lambda pairs: self.contains_many(
                pairs, schema, on_error="capture", timeout_s=timeout_s,
            ),
            constraints=self._constraints,
        )

    def simulated_many(self, pairs, on_error="raise", timeout_s=_UNSET):
        """Batch grouping-query simulation: one verdict per ``(sub,
        sup)`` :class:`GroupingQuery` pair (Theorem 5.1's relation,
        ``sub ≼ sup``), sharded with the same chunking, ordering, and
        timeout machinery as :meth:`contains_many`.

        This is the engine's lowest decision layer, exposed for
        differential testing against :func:`repro.grouping.simulation.\
is_simulated` and the brute-force canonical-database check.
        """
        if on_error not in ("raise", "capture"):
            raise UnsupportedQueryError(
                "on_error must be 'raise' or 'capture', got %r" % (on_error,)
            )
        outcomes = self._run_batch(
            "simulate", list(pairs), None, self._timeout(timeout_s)
        )
        return self._resolve(outcomes, on_error)
