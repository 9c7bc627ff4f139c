"""The five workloads: set-up, warm-up, measurement and oracles.

Each ``run_<workload>(run)`` fills ``run.metrics`` (the end-to-end
metrics, or with ``run.trace`` the per-layer ones), ``run.attempted``
and ``run.failed``.  Oracles run after the timed phase and are never
timed; a wrong verdict or answer makes the run incorrect.

In-process operation times are scaled to the reference host speed
(``speed.py``).  For the service everything but the batch window is
scaled: see :func:`run_service_mixed`.

Traced runs do a fixed amount of work twice, first untraced and then
with the wrappers of ``layers.py`` installed, so counts repeat exactly
for a seed and the ratio of the two wall times is the tracing overhead.
"""

import gc
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter, sleep

import inputs
import layers
import service_load
import speed

#: The CPUs this process may run on (what ``nproc`` prints); the host
#: may have more.
NPROC = len(os.sched_getaffinity(0))
CATALOG_SIZE = inputs.MATRIX_PER_DEPTH * len(inputs.MATRIX_DEPTHS)
SEMCACHE_CHUNK = 1000
SEMCACHE_WARMUP = 2000
NEGATIVE_SAMPLE = 64
BATCH_WINDOW_MS = 2
#: Server spawns per service run; ``setup_s`` is their median.
SERVICE_SETUPS = 5
#: Open-loop requests per latency segment: two schedule blocks, so each
#: segment holds exactly two heavy requests.  The service's p50 and p99
#: are medians over segments, so a host stall of a second or two moves
#: one segment, not the run.
SERVICE_SEGMENT = 2 * inputs.SERVICE_BLOCK
#: Modules a user of each in-process path imports (cold-start cost).
IMPORTS = {
    "matrix": ("repro.engine", "repro.workloads"),
    "semcache": ("repro.engine", "repro.semcache", "repro.workloads"),
}


class Run:
    """One benchmark run: options, results and correctness problems."""

    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = os.path.join(root, "benchmarks", "e2e", "out")
        self.work_dir = os.path.join(
            self.out_dir, "run-%s-%d-%d" % (workload, seed, os.getpid()))
        self.metrics = {}
        self.notes = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def fail(self, message, ops=1):
        self.problems.append(message)
        self.failed += ops


# -- measurement helpers ---------------------------------------------------


def percentile(samples, fraction):
    """Nearest-rank percentile of *samples* (any order)."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def latency_metrics(samples):
    return {
        "p50_ms": percentile(samples, 0.50) * 1e3,
        "p99_ms": percentile(samples, 0.99) * 1e3,
    }


def median_metrics(per_chunk):
    """Each metric's median over the chunks' metric dicts."""
    return {name: statistics.median(chunk[name] for chunk in per_chunk)
            for name in per_chunk[0]}


def chunk_metrics(chunks):
    """Medians over fixed-size chunks of scaled operation durations."""
    return median_metrics([dict(latency_metrics(chunk),
                                throughput_ops_s=len(chunk) / sum(chunk))
                           for chunk in chunks])


def timed_setup(build, repeats=3):
    """Run *build* several times; ``(median scaled seconds, result)``."""
    times = []
    for __ in range(repeats):
        result = None  # free the previous build before the next one
        result, seconds = speed.scaled_call(build)
        times.append(seconds)
    return statistics.median(times), result


def cold_import_s(run, modules, repeats=3):
    """Median time of a fresh interpreter importing *modules*."""
    env = dict(os.environ, PYTHONPATH=os.path.join(run.root, "src"))
    command = [sys.executable, "-c", "import " + ", ".join(modules)]
    return statistics.median(
        speed.scaled_call(lambda: subprocess.run(
            command, cwd=run.root, env=env, check=True))[1]
        for __ in range(repeats))


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_units(run, per_second, minimum=1):
    """A fixed work size for the traced phase, scaled by ``--seconds``."""
    return max(minimum, int(round(per_second * run.seconds)))


# -- per-layer metrics -----------------------------------------------------

#: Workload-specific per-layer metrics, zero where the layer is idle.
SPECIFIC = (
    "engine.parallel.matrix_s", "engine.parallel.speedup",
    "engine.parallel.efficiency",
    "persist.flushes", "persist.flush_ms_per_batch", "persist.rows_written",
    "persist.db_bytes_per_row",
    "service.http_ms", "service.batch_wait_ms", "service.engine_ms",
    "service.batch_size_mean", "service.largest_batch", "service.queue_ms",
    "service.generator_late_ms", "service.deadline_misses",
    "service.engine_busy_share", "service.easy_p99_ms",
    "semcache.hit_rate", "semcache.exact_hits", "semcache.residual_hits",
    "semcache.misses", "semcache.admitted", "semcache.evicted",
    "semcache.lookup.self_s", "semcache.classify.self_s",
    "semcache.residual.self_s", "semcache.evaluate.self_s",
)

STORE_KINDS = ("prepare", "obligation_verdicts", "nonempty", "targets",
               "classification")


def _sum_dicts(dicts):
    total = {}
    for entry in dicts:
        for name, value in entry.items():
            if isinstance(value, (int, float)):
                total[name] = total.get(name, 0) + value
    return total


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(recorder, ops, traced_wall, untraced_wall, stats, store,
                  entries, stages_seen, incomparable=0):
    """The per-layer metrics common to every workload.

    *stats* is a flat ``EngineStats.as_dict()`` total, *store* the
    per-kind store tallies, *stages_seen* the stage names the program's
    own tracer emitted.
    """
    own = recorder.self_s
    calls = recorder.calls
    fingerprint_s = own["fingerprint.artifact_key"] + \
        own["fingerprint.fingerprint"]
    target_lookups = (stats.get("target_cache_hits", 0)
                      + stats.get("target_cache_misses", 0))
    metrics = {
        "coql.parse.calls": calls["coql.parse"],
        "coql.parse.self_s": own["coql.parse"],
        "coql.typecheck.self_s": own["coql.typecheck"],
        "coql.normalize.calls": calls["coql.normalize"],
        "coql.normalize.self_s": own["coql.normalize"],
        "coql.encode.self_s": own["coql.encode"],
        "coql.family.self_s": own["coql.family"],
        "fingerprint.calls_per_op": _ratio(
            calls["fingerprint.fingerprint"], ops),
        "fingerprint.self_s": fingerprint_s,
        "fingerprint.share": _ratio(fingerprint_s, traced_wall),
        "store.lookups_per_op": _ratio(calls["store.lookup"], ops),
        "store.lookup.self_s": own["store.lookup"],
        "store.evictions": sum(t.get("evictions", 0) for t in store.values()),
        "store.entries": entries,
        "persist.flush.self_s": own["persist.flush"]
        + own["persist.store_many"],
        "persist.lookup.self_s": own["persist.tiered_lookup"]
        + own["persist.disk_lookup"],
        "stages.prepare.self_s": own["stages.prepare"],
        "stages.obligations.self_s": own["stages.obligations"],
        "stages.obligations_checked": stats.get("obligations_checked", 0),
        "stages.obligations_skipped_implied": stats.get(
            "obligations_skipped_implied", 0),
        "stages.decide.self_s": own["stages.decide"],
        "simulation.target.self_s": own["simulation.target"],
        "simulation.target_hit_rate": _ratio(
            stats.get("target_cache_hits", 0), target_lookups),
        "simulation.certificate.self_s": own["simulation.certificate"],
        "simulation.witness_escalations": stats.get(
            "witness_escalations", 0),
        "kernel.compile.self_s": own["kernel.compile"],
        "kernel.search.self_s": own["kernel.search"],
        "kernel.nodes": stats.get("homomorphism_nodes", 0),
        "kernel.backtracks": stats.get("homomorphism_backtracks", 0),
        "kernel.domain_wipeouts": stats.get(
            "homomorphism_domain_wipeouts", 0),
        "kernel.mask_intersections": stats.get(
            "homomorphism_mask_intersections", 0),
        "kernel.nodes_per_ms": _ratio(stats.get("homomorphism_nodes", 0),
                                      own["kernel.search"] * 1e3),
        "engine.contains.self_s": own["engine.contains"],
        "engine.unattributed_share": _ratio(
            own["engine.contains"], recorder.inclusive_s["engine.contains"]),
        "engine.incomparable_ratio": _ratio(incomparable, ops),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
        "trace.silent_stages": len(silent_stage_names(stages_seen)),
    }
    for kind in STORE_KINDS:
        tally = store.get(kind, {})
        metrics["store.hit_rate." + kind] = _ratio(
            tally.get("hits", 0),
            tally.get("hits", 0) + tally.get("misses", 0))
    for name in SPECIFIC:
        metrics.setdefault(name, 0)
    return metrics


def silent_stage_names(stages_seen):
    """``STAGES`` entries none of whose declared spans was emitted."""
    from repro.pipeline.stages import STAGES

    return [stage.name for stage in STAGES
            if not any(span in stages_seen for span in stage.spans)]


def traced_twice(run, work):
    """Run *work* untraced, then traced.

    *work* returns what the metrics need and must do the same work both
    times.  Returns ``(recorder, untraced result, traced result, traced
    wall, untraced wall)``.
    """
    gc.collect()
    start = perf_counter()
    reference = work()
    untraced = perf_counter() - start
    recorder = layers.SpanRecorder()
    restore = layers.install(recorder)
    try:
        gc.collect()
        start = perf_counter()
        result = work()
        traced = perf_counter() - start
    finally:
        restore()
    check_entry_points(run, recorder)
    return recorder, reference, result, traced, untraced


def check_entry_points(run, recorder):
    """A listed entry point that never fired was renamed or bypassed."""
    for name in layers.silent_entry_points(recorder, run.workload):
        run.fail("traced run: entry point %s never fired" % name, ops=0)


def engine_report(engines):
    """Summed stats, per-kind store tallies, store entries and the stage
    names the engines' own tracers emitted."""
    stats = _sum_dicts(engine.stats().as_dict() for engine in engines)
    store = {}
    entries = 0
    stages = set()
    for engine in engines:
        for kind, tally in engine.store().counters().items():
            store[kind] = _sum_dicts([store.get(kind, {}), tally])
        entries += sum(engine.store().sizes().values())
        stages.update(engine.tracer().stage_summary())
    return stats, store, entries, stages


def _trace_stem(run):
    """Path prefix of the traced run's ``.trace.json``/``.layers.json``."""
    return os.path.join(run.out_dir, "%s-seed%d" % (run.workload, run.seed))


def finish_traced(run, recorder, stages):
    layers.write_outputs(recorder, _trace_stem(run),
                         {"silent_stages": silent_stage_names(stages)})


# -- the matrix workloads --------------------------------------------------


def _decide_all(run, engine, catalog, timer=None):
    """Every ordered pair of *catalog* through ``engine.contains``.

    Returns the verdict vector: True/False, None for incomparable pairs
    (as ``pairwise_matrix`` reports them), "error" for anything else.
    """
    from repro.errors import IncomparableQueriesError, UnsupportedQueryError
    from repro.workloads.generators import COQL_SCHEMA

    verdicts = []
    for sup in catalog:
        for sub in catalog:
            start = perf_counter()
            try:
                verdict = engine.contains(sup, sub, COQL_SCHEMA)
            except (IncomparableQueriesError, UnsupportedQueryError):
                verdict = None
            except Exception as exc:
                verdict = "error"
                run.fail("contains raised %r" % (exc,))
            if timer is not None:
                timer.add(perf_counter() - start)
            verdicts.append(verdict)
    return verdicts


def _parallel_matrix(catalog, jobs):
    from repro.engine import ParallelContainmentEngine
    from repro.workloads.generators import COQL_SCHEMA

    with ParallelContainmentEngine(jobs=jobs) as parallel:
        matrix = parallel.pairwise_matrix(catalog, COQL_SCHEMA)
    return [cell for row in matrix for cell in row]


def check_vectors(run, reference, vectors, label):
    """Every verdict vector must equal *reference*, cell by cell."""
    for vector in vectors:
        wrong = sum(1 for a, b in zip(reference, vector) if a is not b)
        if wrong or len(vector) != len(reference):
            run.fail("%s verdicts differ in %d cell(s)" % (label, wrong),
                     ops=wrong)


def check_matrix_oracles(run, catalog, verdicts, databases, repeats):
    """Positive verdicts hold on random databases; a sample of negative
    verdicts is re-decided by the canonical (brute-force) method."""
    from repro.coql import evaluate_coql, parse_coql
    from repro.engine import ContainmentEngine
    from repro.objects.order import dominated
    from repro.workloads.generators import COQL_SCHEMA

    size = len(catalog)
    answers = [[evaluate_coql(parse_coql(text), db) for db in databases]
               for text in catalog]
    negatives = []
    for cell, verdict in enumerate(verdicts):
        sup, sub = divmod(cell, size)
        if verdict is True:
            if not all(dominated(answers[sub][d], answers[sup][d])
                       for d in range(len(databases))):
                run.fail("q%d ⊑ q%d reported but refuted on a database"
                         % (sub, sup), ops=repeats)
        elif verdict is False:
            negatives.append(cell)
    random.Random("negatives:%d" % run.seed).shuffle(negatives)
    canonical = ContainmentEngine(method="canonical")
    decided = skipped = 0
    for cell in negatives:
        if decided == NEGATIVE_SAMPLE:
            break
        sup, sub = divmod(cell, size)
        try:
            verdict = canonical.contains(catalog[sup], catalog[sub],
                                         COQL_SCHEMA)
        except TypeError:
            # grouping.bruteforce sorts index values of mixed types
            # (generic strings next to integer constants) and raises;
            # the oracle cannot judge such pairs.
            skipped += 1
            continue
        decided += 1
        if verdict is not False:
            run.fail("q%d ⊑ q%d: certificate says False, canonical %r"
                     % (sub, sup, verdict), ops=repeats)
    run.notes["negatives_checked"] = decided
    run.notes["negatives_oracle_skipped"] = skipped


def _matrix_setup(run):
    from repro.engine import ContainmentEngine

    def build():
        return {
            "catalog": inputs.matrix_catalog(run.seed),
            "warmup": inputs.matrix_catalog(run.seed, label="matrix-warmup"),
            "databases": inputs.oracle_databases(run.seed),
            "engine": ContainmentEngine(),
        }

    if run.trace:
        return 0.0, build()
    import_s = cold_import_s(run, IMPORTS["matrix"])
    setup_s, data = timed_setup(build)
    return import_s + setup_s, data


def run_matrix_cold(run):
    from repro.engine import ContainmentEngine

    setup_s, data = _matrix_setup(run)
    catalog = data["catalog"]
    _decide_all(run, ContainmentEngine(), data["warmup"])
    if run.trace:
        return _matrix_cold_traced(run, catalog)
    chunks, vectors = [], []
    gc.collect()
    timer = speed.ScaledTimer()
    deadline = perf_counter() + run.seconds
    while not chunks or perf_counter() < deadline:
        engine = ContainmentEngine()
        vectors.append(_decide_all(run, engine, catalog, timer))
        chunks.append(timer.take())
    rss = peak_rss_mb()
    run.attempted = CATALOG_SIZE ** 2 * len(chunks)
    warm = _decide_all(run, engine, catalog)
    parallel = _parallel_matrix(catalog, NPROC)
    check_vectors(run, vectors[0], vectors[1:], "jobs=1 cold")
    check_vectors(run, vectors[0], [warm], "warm")
    check_vectors(run, vectors[0], [parallel], "jobs=%d" % NPROC)
    check_matrix_oracles(run, catalog, vectors[0], data["databases"],
                         len(vectors))
    run.metrics = dict(chunk_metrics(chunks), setup_s=setup_s,
                       peak_rss_mb=rss)


def _matrix_cold_traced(run, catalog):
    from repro.engine import ContainmentEngine, ParallelContainmentEngine
    from repro.workloads.generators import COQL_SCHEMA

    matrices = traced_units(run, 0.25, minimum=2)

    def work():
        engines, times = [], []
        incomparable = 0
        for index in range(matrices):
            start = perf_counter()
            if index == matrices - 1:
                # The last matrix goes through the parallel engine at
                # jobs=1, the in-process form of `repro matrix`.
                parallel = ParallelContainmentEngine(jobs=1)
                rows = parallel.pairwise_matrix(catalog, COQL_SCHEMA)
                verdicts = [cell for row in rows for cell in row]
                engines.append(parallel.engine())
            else:
                engines.append(ContainmentEngine())
                verdicts = _decide_all(run, engines[-1], catalog)
            times.append(perf_counter() - start)
            incomparable += verdicts.count(None)
        return engines, times, incomparable

    parallel_times = []
    for __ in range(3):
        start = perf_counter()
        _parallel_matrix(catalog, NPROC)
        parallel_times.append(perf_counter() - start)
    recorder, reference, result, traced, untraced = traced_twice(run, work)
    engines, __, incomparable = result
    ops = matrices * CATALOG_SIZE ** 2
    run.attempted = ops
    stats, store, entries, stages = engine_report(engines)
    run.metrics = layer_metrics(recorder, ops, traced, untraced, stats,
                                store, entries, stages, incomparable)
    matrix_s = statistics.median(parallel_times)
    # The untraced pass's fresh-engine matrices are the jobs=1 reference.
    speedup = statistics.median(reference[1][:-1]) / matrix_s
    run.metrics.update({
        "engine.parallel.matrix_s": matrix_s,
        "engine.parallel.speedup": speedup,
        "engine.parallel.efficiency": speedup / NPROC,
    })
    finish_traced(run, recorder, stages)


def run_matrix_warm(run):
    setup_s, data = _matrix_setup(run)
    catalog, engine = data["catalog"], data["engine"]
    cold = _decide_all(run, engine, catalog)
    _decide_all(run, engine, catalog)
    stages = set(engine.tracer().stage_summary())
    # The engine keeps a trace tree per check; dropping it between passes
    # (untimed) lets every pass measure the same warm state.
    engine.clear_trace()
    if run.trace:
        return _matrix_warm_traced(run, engine, catalog, stages)
    chunks, vectors = [], []
    gc.collect()
    timer = speed.ScaledTimer()
    deadline = perf_counter() + run.seconds
    while not chunks or perf_counter() < deadline:
        vectors.append(_decide_all(run, engine, catalog, timer))
        chunks.append(timer.take())
        engine.clear_trace()
    rss = peak_rss_mb()
    run.attempted = CATALOG_SIZE ** 2 * len(chunks)
    check_vectors(run, cold, vectors, "warm")
    check_matrix_oracles(run, catalog, cold, data["databases"], len(vectors))
    run.metrics = dict(chunk_metrics(chunks), setup_s=setup_s,
                       peak_rss_mb=rss)


def _matrix_warm_traced(run, engine, catalog, stages):
    passes = traced_units(run, 0.5, minimum=2)

    def work():
        engine.reset_stats()
        incomparable = 0
        for __ in range(passes):
            incomparable += _decide_all(run, engine, catalog).count(None)
            engine.clear_trace()
        return incomparable

    recorder, __, incomparable, traced, untraced = traced_twice(run, work)
    ops = passes * CATALOG_SIZE ** 2
    run.attempted = ops
    stats, store, entries, __ = engine_report([engine])
    run.metrics = layer_metrics(recorder, ops, traced, untraced, stats,
                                store, entries, stages, incomparable)
    finish_traced(run, recorder, stages)


# -- adversary -------------------------------------------------------------


def _cycle(run, pairs, timer=None, engines=None):
    from repro.engine import ContainmentEngine

    for sup, sub, expected in pairs:
        engine = ContainmentEngine()
        start = perf_counter()
        verdict = engine.contains(sup, sub, inputs.CLIQUE_SCHEMA)
        elapsed = perf_counter() - start
        if timer is not None:
            timer.add(elapsed)
        if engines is not None:
            engines.append(engine)
        if verdict is not expected:
            run.fail("clique pair answered %r, expected %r"
                     % (verdict, expected))


def run_adversary(run):
    from repro.engine import ContainmentEngine

    def build():
        return inputs.clique_pairs(run.seed), ContainmentEngine()

    if run.trace:
        pairs = build()[0]
    else:
        import_s = cold_import_s(run, IMPORTS["matrix"])
        setup_s, (pairs, __) = timed_setup(build)
    _cycle(run, pairs)
    if run.trace:
        return _adversary_traced(run, pairs)
    chunks = []
    gc.collect()
    timer = speed.ScaledTimer()
    deadline = perf_counter() + run.seconds
    while not chunks or perf_counter() < deadline:
        _cycle(run, pairs, timer)
        chunks.append(timer.take())
    rss = peak_rss_mb()
    run.attempted = len(pairs) * len(chunks)
    run.metrics = dict(chunk_metrics(chunks), setup_s=import_s + setup_s,
                       peak_rss_mb=rss)


def _adversary_traced(run, pairs):
    cycles = traced_units(run, 0.2)

    def work():
        engines = []
        for __ in range(cycles):
            _cycle(run, pairs, engines=engines)
        return engines

    recorder, __, engines, traced, untraced = traced_twice(run, work)
    ops = cycles * len(pairs)
    run.attempted = ops
    stats, store, entries, stages = engine_report(engines)
    run.metrics = layer_metrics(recorder, ops, traced, untraced, stats,
                                store, entries, stages)
    finish_traced(run, recorder, stages)


# -- semantic cache --------------------------------------------------------


def _caches(data):
    from repro.semcache import SemanticCache

    return [SemanticCache(t["schema"], t["database"],
                          max_views=inputs.SEMCACHE_MAX_VIEWS)
            for t in data["tenants"]]


def _replay(data, caches, start, count, timer=None, served=None):
    """Lookups ``start .. start+count`` of the (cyclic) stream."""
    stream = data["stream"]
    pools = [t["pool"] for t in data["tenants"]]
    for step in range(start, start + count):
        which, index, churn = stream[step % len(stream)]
        cache = caches[which]
        begin = perf_counter()
        answer = cache.lookup(pools[which][index][1])
        if timer is not None:
            timer.add(perf_counter() - begin)
        if served is not None:
            entry = served.setdefault((which, index, answer.value),
                                      [answer, 0])
            entry[1] += 1
        if churn is not None:
            victims = [name for name in cache.views()
                       if not cache.view(name).pinned]
            if victims:
                cache.evict(victims[int(churn * len(victims))])


def check_semcache_oracle(run, data, served):
    from repro.workloads.simulator import oracle_mismatch

    for (which, index, __), (answer, count) in served.items():
        tenant = data["tenants"][which]
        mismatch = oracle_mismatch(tenant["pool"][index][1], answer,
                                   tenant["database"])
        if mismatch is not None:
            run.fail("semcache served a wrong answer: %r" % (mismatch,),
                     ops=count)


def run_semcache_zipf(run):
    def build():
        data = inputs.semcache_inputs(run.seed)
        return data, _caches(data)

    if run.trace:
        return _semcache_traced(run, build()[0])
    import_s = cold_import_s(run, IMPORTS["semcache"])
    setup_s, (data, caches) = timed_setup(build)
    # Warm the measured caches: the first lookups of a cache's life decide
    # fresh view pairs, and how many depends on the seed.
    _replay(data, caches, 0, SEMCACHE_WARMUP)
    chunks, served = [], {}
    gc.collect()
    timer = speed.ScaledTimer()
    deadline = perf_counter() + run.seconds
    while not chunks or perf_counter() < deadline:
        _replay(data, caches, SEMCACHE_WARMUP + len(chunks) * SEMCACHE_CHUNK,
                SEMCACHE_CHUNK, timer, served)
        chunks.append(timer.take())
        for cache in caches:
            cache.engine().clear_trace()
    rss = peak_rss_mb()
    run.attempted = SEMCACHE_CHUNK * len(chunks)
    check_semcache_oracle(run, data, served)
    run.metrics = dict(chunk_metrics(chunks), setup_s=import_s + setup_s,
                       peak_rss_mb=rss)


def _semcache_traced(run, data):
    lookups = traced_units(run, 600)

    def work():
        caches = _caches(data)
        _replay(data, caches, 0, lookups)
        return caches

    recorder, __, caches, traced, untraced = traced_twice(run, work)
    run.attempted = lookups
    engines = [cache.engine() for cache in caches]
    stats, store, entries, stages = engine_report(engines)
    run.metrics = layer_metrics(recorder, lookups, traced, untraced, stats,
                                store, entries, stages)
    counters = _sum_dicts(cache.counters for cache in caches)
    hits = counters["exact_hits"] + counters["residual_hits"]
    run.metrics.update({
        "semcache.hit_rate": hits / counters["lookups"],
        "semcache.exact_hits": counters["exact_hits"],
        "semcache.residual_hits": counters["residual_hits"],
        "semcache.misses": counters["misses"],
        "semcache.admitted": counters["admitted"],
        "semcache.evicted": counters["evicted"],
        "semcache.lookup.self_s": recorder.self_s["semcache.lookup"],
        "semcache.classify.self_s": recorder.self_s["semcache.classify"],
        "semcache.residual.self_s": recorder.self_s["semcache.residual"],
        "semcache.evaluate.self_s": recorder.self_s["semcache.evaluate"],
    })
    finish_traced(run, recorder, stages)


# -- service ---------------------------------------------------------------


def _service_schemas():
    from repro.workloads.generators import COQL_SCHEMA

    coql = {name: list(attrs) for name, attrs in COQL_SCHEMA.items()}
    clique = {name: list(attrs)
              for name, attrs in inputs.CLIQUE_SCHEMA.items()}
    return {"hot": coql, "novel": coql, "heavy": clique}


def _service_command(run, traced):
    store = os.path.join(run.work_dir, "store.sqlite")
    serve = ["serve", "--port", "0", "--store-path", store, "--jobs", "1",
             "--batch-window-ms", str(BATCH_WINDOW_MS)]
    if traced:
        return [os.path.join("benchmarks", "e2e", "traced_serve.py"),
                _trace_stem(run)] + serve
    return ["-m", "repro"] + serve


def _start_server(run, cpu, traced=False):
    shutil.rmtree(run.work_dir, ignore_errors=True)
    server = service_load.Server(run.root, run.work_dir,
                                 _service_command(run, traced), cpu)
    return server.start()


def check_service_answers(run, entries, records):
    """Every response against the in-process engine's verdict."""
    from repro.engine import ContainmentEngine
    from repro.errors import IncomparableQueriesError, UnsupportedQueryError
    from repro.workloads.generators import COQL_SCHEMA

    engine = ContainmentEngine()
    expected = {}
    for (kind, sup, sub), record in zip(entries, records):
        status, payload = record[3], record[4]
        if kind == "heavy":
            want = False
        else:
            if (sup, sub) not in expected:
                try:
                    expected[(sup, sub)] = engine.contains(sup, sub,
                                                           COQL_SCHEMA)
                except (IncomparableQueriesError, UnsupportedQueryError):
                    expected[(sup, sub)] = "incomparable"
            want = expected[(sup, sub)]
        if want == "incomparable":
            ok = status == 422
        else:
            ok = status == 200 and payload.get("verdict") is want
        if not ok:
            run.fail("service answered %s %r for a %s pair, expected %r"
                     % (status, payload, kind, want))


def run_service_mixed(run):
    schemas = _service_schemas()
    # The server gets a CPU of its own; the client threads use the rest.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = cpus[-1]
    service_load.pin(0, set(cpus[:-1]) or {server_cpu})

    def build():
        data = inputs.service_inputs(run.seed)
        data["bodies"] = service_load.encode_requests(data["requests"],
                                                      schemas)
        data["server"] = _start_server(run, server_cpu, traced=run.trace)
        return data

    server = None
    try:
        if run.trace:
            data = build()
            server = data["server"]
        else:
            # Scaled by the reference on the server's CPU, where the spawn
            # runs, as the in-process workloads scale their set-up.
            times = []
            with speed.CpuSampler(server_cpu) as sampler:
                for __ in range(SERVICE_SETUPS):
                    if server is not None:
                        server.stop()
                    start = perf_counter()
                    data = build()
                    end = perf_counter()
                    server = data["server"]
                    times.append((end - start) * sampler.factor(start, end))
            setup_s = statistics.median(times)
        warmup = service_load.encode_requests(data["warmup"], schemas)
        service_load.send(server.port, warmup)
        if run.trace:
            return _service_traced(run, data, server)
        # Whole blocks, so every phase carries the exact request mix.
        rung = _blocks(inputs.SERVICE_RATE * 0.8 * run.seconds,
                       SERVICE_SEGMENT)
        capacity = _blocks(60 * run.seconds)
        gc.collect()
        with speed.CpuSampler(server_cpu) as sampler:
            open_loop = service_load.send(
                server.port, data["bodies"][:rung], data["offsets"][:rung])
            closed = service_load.send(server.port,
                                       data["bodies"][rung:rung + capacity])
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(run.work_dir, ignore_errors=True)
    run.attempted = rung + capacity
    check_service_answers(run, data["requests"][:rung + capacity],
                          open_loop + closed)
    # The batch window is a timer wait, which does not slow down with the
    # host; the rest of a request's latency is interpreter work (HTTP,
    # JSON, the engine), so only that part is scaled.
    window = BATCH_WINDOW_MS / 1e3

    def scaled(start, done):
        return window + (done - start - window) * sampler.factor(start, done)

    latencies = [scaled(due, done) for due, __, done, ___, ____ in open_loop]
    # Capacity: requests per second of connection busy time.
    busy = sum(scaled(sent, done) for __, sent, done, ___, ____ in closed)
    run.metrics = dict(
        median_metrics([latency_metrics(latencies[i:i + SERVICE_SEGMENT])
                        for i in range(0, rung, SERVICE_SEGMENT)]),
        throughput_ops_s=capacity * service_load.CONNECTIONS / busy,
        setup_s=setup_s, peak_rss_mb=peak_rss_mb(resource.RUSAGE_CHILDREN))


def _blocks(requests, block=inputs.SERVICE_BLOCK):
    """*requests* rounded to whole blocks (at least one)."""
    return max(1, int(round(requests / block))) * block


def _service_traced(run, data, server):
    count = _blocks(40 * run.seconds)
    phases, stats = [], []
    for phase in range(2):
        if phase:
            server.send_signal(signal.SIGUSR1)
            sleep(0.2)
        stats.append(server.get("/v1/stats"))
        first = phase * count
        offsets = [t - data["offsets"][first]
                   for t in data["offsets"][first:first + count]]
        start = perf_counter()
        records = service_load.send(
            server.port, data["bodies"][first:first + count], offsets)
        phases.append((records, perf_counter() - start))
    stats.append(server.get("/v1/stats"))
    store_path = os.path.join(run.work_dir, "store.sqlite")
    db_bytes = sum(os.path.getsize(store_path + suffix)
                   for suffix in ("", "-wal")
                   if os.path.exists(store_path + suffix))
    code = server.stop(signal.SIGTERM)
    dump_path = _trace_stem(run) + ".layers.json"
    if code != 0 or not os.path.exists(dump_path):
        run.fail("traced server exited with %r and no span dump" % (code,))
        return
    with open(dump_path) as handle:
        dump = json.load(handle)
    recorder = layers.SpanRecorder.from_summary(dump["spans"])
    check_entry_points(run, recorder)

    records, wall = phases[1]
    entries = data["requests"][count:2 * count]
    run.attempted = count
    check_service_answers(run, entries, records)
    before, after = stats[1], stats[2]
    engine = {name: value - before["engine"].get(name, 0)
              for name, value in after["engine"].items()
              if isinstance(value, (int, float))}
    store = {kind: {name: value - before["store"]["counters"].get(
                        kind, {}).get(name, 0)
                    for name, value in tally.items()}
             for kind, tally in after["store"]["counters"].items()}
    stages = set(dump["stage_summary"])
    # Request latency is set by the arrival schedule, so the overhead is
    # the ratio of median latencies; the fingerprint share is taken over
    # the engine's busy time.
    run.metrics = layer_metrics(
        recorder, count,
        statistics.median(r[2] - r[0] for r in records),
        statistics.median(r[2] - r[0] for r in phases[0][0]),
        engine, store, sum(after["store"]["sizes"].values()), stages,
        sum(1 for r in records if r[3] == 422))

    inclusive, calls = recorder.inclusive_s, recorder.calls
    batches = calls["service.batch"]
    engine_s = inclusive["engine.contains_many"]
    flush_s = inclusive["persist.flush"]
    flushes = after["store"]["flushes"] - before["store"]["flushes"]
    service_before, service_after = before["service"], after["service"]
    easy = [r[2] - r[0] for r, e in zip(records, entries) if e[0] != "heavy"]
    run.metrics.update({
        "fingerprint.share": _ratio(
            recorder.self_s["fingerprint.artifact_key"]
            + recorder.self_s["fingerprint.fingerprint"], engine_s + flush_s),
        "persist.flushes": flushes,
        "persist.flush_ms_per_batch": _ratio(
            run.metrics["persist.flush.self_s"] * 1e3, flushes),
        "persist.rows_written": sum(tally.get("disk_stores", 0)
                                    for tally in store.values()),
        "persist.db_bytes_per_row": _ratio(
            db_bytes, sum(after["store"]["persistent"]["sizes"].values())),
        "service.http_ms": statistics.mean(r[2] - r[1] for r in records) * 1e3
        - _ratio(inclusive["service.submit"] * 1e3, calls["service.submit"]),
        "service.batch_wait_ms": _ratio(inclusive["service.window"] * 1e3,
                                        calls["service.window"]),
        "service.engine_ms": _ratio(engine_s * 1e3, batches),
        "service.queue_ms": _ratio(
            (inclusive["service.batch"] - engine_s - flush_s) * 1e3, batches),
        "service.batch_size_mean": _ratio(
            service_after["batched_requests"]
            - service_before["batched_requests"],
            service_after["batches"] - service_before["batches"]),
        "service.largest_batch": service_after["largest_batch"],
        "service.generator_late_ms": percentile(
            [r[1] - r[0] for r in records], 0.99) * 1e3,
        "service.deadline_misses": (service_after["deadline_misses"]
                                    - service_before["deadline_misses"]),
        "service.engine_busy_share": _ratio(engine_s + flush_s, wall),
        "service.easy_p99_ms": percentile(easy, 0.99) * 1e3,
    })
    run.notes["silent_stages"] = silent_stage_names(stages)


WORKLOADS = {
    "matrix_cold": run_matrix_cold,
    "matrix_warm": run_matrix_warm,
    "adversary": run_adversary,
    "service_mixed": run_service_mixed,
    "semcache_zipf": run_semcache_zipf,
}
