"""The staged decision pipeline (pass manager).

The paper's decision procedure is inherently staged: parse COQL,
typecheck against the flat schema (Section 3), rewrite to comprehension
normal form and encode as a grouping-query tree (Section 5), enumerate
truncation obligations, and decide each by the simulation certificate
(Theorem 4.1).  :class:`Pipeline` makes that structure explicit: each
stage declares what it consumes and produces (:data:`STAGES`), every
run is traced (:mod:`repro.pipeline.trace`), and every cacheable
artifact lives in one content-addressed
:class:`repro.pipeline.store.ArtifactStore` under a deterministic,
process-portable key (:mod:`repro.pipeline.fingerprint`).

The same pipeline serves every entry point: the sequential
:class:`repro.engine.ContainmentEngine`, the parallel engine's worker
processes, :class:`repro.coql.views.ViewCatalog`, the static analyzer's
pre-check, and the CLI all construct (or share) a pipeline rather than
carrying private memo tables.  A pipeline with ``store=None`` is the
uncached reference path — :func:`repro.coql.containment.prepare` runs
exactly this, so the module-level and engine prepare paths can never
drift again.
"""

from repro.errors import TypeCheckError
from repro.pipeline.fingerprint import artifact_key, identity
from repro.pipeline.store import MISSING, ArtifactStore, KindView
from repro.pipeline.trace import Tracer

__all__ = ["Stage", "STAGES", "Pipeline", "stage_table"]


class Stage:
    """One declared stage of the decision DAG.

    Attributes:
        name: the stage name (the DAG vertex).
        consumes / produces: artifact type names (documentation of the
            DAG edges; the driver enforces them by construction).
        cache_kind: the :class:`ArtifactStore` segment the stage's
            artifact is cached under (None = never cached).
        cache_key: human description of the store key.
        spans: the :class:`TraceEvent` stage names this stage emits.
        paper: the paper section the stage implements.
    """

    __slots__ = ("name", "consumes", "produces", "cache_kind", "cache_key",
                 "spans", "paper")

    def __init__(self, name, consumes, produces, cache_kind=None,
                 cache_key=None, spans=(), paper=""):
        self.name = name
        self.consumes = tuple(consumes)
        self.produces = produces
        self.cache_kind = cache_kind
        self.cache_key = cache_key
        self.spans = tuple(spans) or (name,)
        self.paper = paper

    def __repr__(self):
        return "Stage(%s: %s -> %s%s)" % (
            self.name, " x ".join(self.consumes), self.produces,
            ", cached=%s" % self.cache_kind if self.cache_kind else "",
        )


#: The decision procedure as an explicit DAG of typed stages.  The
#: ``prepare`` artifact covers parse → typecheck → encode →
#: build_grouping (one cache entry for the whole front half, so
#: re-preparing a query replays nothing).  ``id(...)`` in a key is
#: :func:`repro.pipeline.fingerprint.identity`: a parsed query's text
#: key, a built query's content digest, a schema's digest.
STAGES = (
    Stage("parse", ("coql_text",), "coql_ast", cache_kind="parse",
          cache_key="sha256(coql_text)",
          spans=("parse",), paper="Sec. 3 (COQL syntax)"),
    Stage("typecheck", ("coql_ast", "schema"), "output_type",
          spans=("typecheck",), paper="Sec. 3 (type system)"),
    Stage("analyze", ("coql_ast", "schema"), "diagnostics",
          spans=("analysis",), paper="Sec. 3/5 (optional pre-check)"),
    Stage("encode", ("coql_ast",), "normal_form",
          spans=("normalize",), paper="Sec. 5.1 (normal form)"),
    Stage("build_grouping", ("normal_form", "schema", "role"),
          "encoded_query", cache_kind="prepare",
          cache_key="sha256(id(coql_ast), id(schema), role)",
          spans=("encode",), paper="Sec. 5.1 (grouping encoding)"),
    Stage("minimize", ("coql_ast", "schema"), "coql_ast",
          spans=("minimize",), paper="Sec. 1 (redundant subgoals)"),
    Stage("expand_family", ("coql_ast",), "query_family",
          spans=("family",),
          paper="Sagiv–Yannakakis [36] (union distribution)"),
    Stage("chase", ("simulation_target", "constraints"), "chased_atoms",
          cache_kind="chase",
          cache_key="sha256(atoms, constraints, id(schema))",
          spans=("chase",),
          paper="inclusion dependencies (chase saturation)"),
    Stage("enumerate_obligations", ("grouping_query",),
          "truncation_patterns", cache_kind="nonempty",
          cache_key="sha256(grouping_query, path) per non-empty test",
          spans=("obligations",), paper="Sec. 5 (truncation patterns)"),
    Stage("compile_target", ("grouping_query",),
          "simulation_target", cache_kind="targets",
          cache_key="sha256(grouping_query, witness copies)",
          spans=("simulation",), paper="Thm. 4.1 (canonical database)"),
    Stage("decide", ("obligation",), "verdict",
          cache_kind="obligation_verdicts",
          cache_key="sha256(sub_t, sup_t, method, constraints)",
          spans=("decide", "simulation"), paper="Thm. 4.1 (simulation)"),
    Stage("reduce_union", ("query_family", "query_family"), "verdict",
          cache_kind="branch_verdict",
          cache_key="sha256(id(sub_branch), id(sup_branch), id(schema), "
                    "method, constraints)",
          spans=("reduce_union",),
          paper="Sagiv–Yannakakis [36] (all/any reduction)"),
    Stage("analyze_cost", ("grouping_query", "grouping_query"),
          "cost_certificate", cache_kind="cost_certificate",
          cache_key="sha256(sub_query, sup_query)",
          spans=("analyze_cost",),
          paper="Thm. 5.1 (search-space bound)"),
)


def stage_table():
    """``{stage name: Stage}`` for the declared DAG."""
    return {stage.name: stage for stage in STAGES}


#: Default per-kind bounds when a pipeline builds its own store.  The
#: ``classification`` kind holds the view-vs-query labels of
#: :meth:`repro.engine.ContainmentEngine.classify_many` — derived from
#: two containment verdicts, so it sits above the stage DAG but shares
#: the store (and the persistent tier) like any other artifact.
DEFAULT_LIMITS = {
    "parse": 1024,
    "prepare": 512,
    "obligation_verdicts": 8192,
    "nonempty": 8192,
    "targets": 1024,
    "classification": 8192,
    "cost_certificate": 1024,
    "branch_verdict": 8192,
    "chase": 1024,
}


def _check_query(query):
    from repro.coql.ast import Expr

    if not isinstance(query, Expr):
        raise TypeCheckError("not a COQL query: %r" % (query,))


def _prepare_key(query, schema, name):
    """The ``prepare`` key of a parsed *query* over a normalized
    *schema*: the one derivation behind :meth:`Pipeline.prepare_key`
    and the key :meth:`Pipeline.prepare` stores under."""
    return artifact_key("prepare", identity(query), identity(schema), name)


class Pipeline:
    """Drives the staged decision procedure over one artifact store.

    :param store: the shared :class:`ArtifactStore` (None = uncached
        reference run: every stage recomputes, nothing is stored).
    :param stats: optional :class:`repro.engine.stats.EngineStats`; the
        pipeline tallies the cache counters (``prepare_hits``, ...) and
        its tracer maintains the per-stage timers.
    :param tracer: optional :class:`Tracer` to record spans into (a
        fresh one bound to *stats* is created otherwise).
    """

    def __init__(self, store=None, stats=None, tracer=None):
        self.store = store
        self.stats = stats
        self.tracer = tracer if tracer is not None else Tracer(stats)

    @classmethod
    def with_default_store(cls, stats=None, tracer=None, limits=None):
        """A pipeline over a fresh store with the stock per-kind bounds."""
        bounds = dict(DEFAULT_LIMITS)
        bounds.update(limits or {})
        return cls(ArtifactStore(limits=bounds), stats=stats, tracer=tracer)

    def _tally(self, name, amount=1):
        if self.stats is not None:
            self.stats.tally(name, amount)

    def _lookup(self, kind, key):
        if self.store is None or key is None:
            return MISSING
        return self.store.lookup(kind, key)

    def _store(self, kind, key, value):
        if self.store is not None and key is not None:
            self.store.store(kind, key, value)

    # -- front half: parse .. build_grouping ---------------------------

    def parse(self, text):
        """Stage ``parse``: COQL text → AST.

        Cached under the digest of the raw text (kind ``parse``).  Every
        AST returned, fresh, from memory or loaded from disk, carries
        that key as its name in later keys (its ``_source``, see
        :func:`repro.pipeline.fingerprint.identity`), so the text is
        keyed once and the tree is never digested.  Safe to share: ASTs
        are immutable.
        """
        from repro.coql.parser import parse_coql

        key = None
        if self.store is not None:
            key = artifact_key("parse", text)
            cached = self._lookup("parse", key)
            if cached is not MISSING:
                # A copy loaded from disk lost its stamp to the pickle.
                object.__setattr__(cached, "_source", key)
                return cached
        with self.tracer.span("parse", chars=len(text)):
            ast = parse_coql(text)
        if key is not None:
            object.__setattr__(ast, "_source", key)
        self._store("parse", key, ast)
        return ast

    def prepare_key(self, query, schema, name="q"):
        """The store key of a ``prepare`` artifact: derived from the
        query's and the schema's :func:`~repro.pipeline.fingerprint.\
identity` and the role *name*.

        Deterministic across processes: the parallel engine's workers
        compute bit-identical keys for the pairs the parent dispatched.
        *query* may be text (parsed here, untraced) or an AST.
        """
        from repro.coql.containment import as_schema
        from repro.coql.parser import parse_coql

        if isinstance(query, str):
            query = parse_coql(query)
        _check_query(query)
        return _prepare_key(query, as_schema(schema), name)

    def prepare(self, query, schema, name="q"):
        """Stages ``parse → typecheck → encode → build_grouping``.

        Returns the :class:`repro.coql.encode.EncodedQuery` artifact,
        cached under kind ``prepare`` when the pipeline has a store.
        """
        from repro.coql.containment import as_schema
        from repro.coql.encode import encode_query
        from repro.coql.normalize import normalize
        from repro.coql.typecheck import typecheck

        schema = as_schema(schema)
        with self.tracer.span("prepare", label=name) as span:
            if isinstance(query, str):
                query = self.parse(query)
            _check_query(query)
            key = None
            if self.store is not None:
                key = _prepare_key(query, schema, name)
                cached = self._lookup("prepare", key)
                if cached is not MISSING:
                    self._tally("prepare_hits")
                    span.annotate(cache="hit")
                    return cached
                self._tally("prepare_misses")
                span.annotate(cache="miss")
            with self.tracer.span("typecheck"):
                typecheck(query, schema)
            with self.tracer.span("normalize"):
                nf = normalize(query)
            with self.tracer.span("encode"):
                encoded = encode_query(nf, schema, name)
            span.annotate(
                paths=0 if encoded.is_empty else len(encoded.query.paths()),
            )
            self._store("prepare", key, encoded)
            return encoded

    # -- obligation half: enumerate .. decide --------------------------

    def provably_nonempty(self, query, path):
        """The memoized provably-non-empty test (cache kind ``nonempty``)."""
        from repro.coql.containment import _provably_nonempty

        key = None
        if self.store is not None:
            key = artifact_key("nonempty", query, path)
            cached = self._lookup("nonempty", key)
            if cached is not MISSING:
                self._tally("nonempty_hits")
                return cached
            self._tally("nonempty_misses")
        verdict = _provably_nonempty(query, path)
        self._store("nonempty", key, verdict)
        return verdict

    def enumerate_obligations(self, sub_query):
        """Stage ``enumerate_obligations``: the non-implied truncation
        patterns of *sub_query*, with the skipped-as-implied tally."""
        from repro.coql.containment import _obligation_patterns

        with self.tracer.span("obligations") as span:
            patterns = list(
                _obligation_patterns(
                    sub_query, is_nonempty=self.provably_nonempty
                )
            )
            nonroot = sum(1 for p in sub_query.paths() if p)
            skipped = 2 ** nonroot - len(patterns)
            self._tally("obligations_skipped_implied", skipped)
            span.annotate(patterns=len(patterns), skipped_implied=skipped)
        return patterns

    def decide_obligation(self, sub_query, sup_query, pattern, decide,
                          decision):
        """Stage ``decide``: one truncation obligation's verdict.

        Cached under kind ``obligation_verdicts`` keyed on the truncated
        pair plus *decision*, the tuple naming what *decide* computes:
        the engine's method, then the inclusion dependencies the verdict
        holds under when there are any.  *decide* runs the simulation
        search on a miss.
        """
        sub_t = sub_query.truncate(pattern)
        sup_t = sup_query.truncate(pattern)
        with self.tracer.span(
            "decide", paths=len(pattern), method=decision[0]
        ) as span:
            key = None
            if self.store is not None:
                key = artifact_key(
                    "obligation_verdicts", sub_t, sup_t, *decision
                )
                cached = self._lookup("obligation_verdicts", key)
                if cached is not MISSING:
                    self._tally("obligation_cache_hits")
                    span.annotate(cache="hit", verdict=cached)
                    return cached
                self._tally("obligation_cache_misses")
                span.annotate(cache="miss")
            with self.tracer.span("simulation"):
                verdict = decide(sub_t, sup_t)
            self._tally("obligations_checked")
            span.annotate(verdict=verdict)
            self._store("obligation_verdicts", key, verdict)
            return verdict

    # -- static analysis: cost certificates ----------------------------

    def analyze_cost(self, sub_query, sup_query):
        """Stage ``analyze_cost``: the pair's :class:`CostCertificate`.

        Cached under kind ``cost_certificate`` keyed on the aligned
        grouping pair; the certificate bounds the default witness
        schedule (one copy, then the completeness bound).  Its own
        non-emptiness tests go through :meth:`provably_nonempty`, so the
        enumerated obligation patterns are exactly the ones
        :meth:`enumerate_obligations` would produce for the same pair.
        """
        from repro.analysis.interp import pair_certificate

        with self.tracer.span("analyze_cost") as span:
            key = None
            if self.store is not None:
                key = artifact_key("cost_certificate", sub_query, sup_query)
                cached = self._lookup("cost_certificate", key)
                if cached is not MISSING:
                    self._tally("cost_certificate_hits")
                    span.annotate(cache="hit")
                    return cached
                self._tally("cost_certificate_misses")
                span.annotate(cache="miss")
            certificate = pair_certificate(
                sub_query, sup_query, is_nonempty=self.provably_nonempty
            )
            span.annotate(
                patterns=certificate.patterns,
                total_bound=str(certificate.total_bound),
            )
            self._store("cost_certificate", key, certificate)
            return certificate

    # -- schema constraints: the chase ---------------------------------

    def chase(self, atoms, constraints, schema):
        """Stage ``chase``: saturate ground *atoms* under the linear
        inclusion dependencies *constraints* declared on *schema*.

        Returns a :class:`repro.constraints.chase.ChaseResult`, cached
        under kind ``chase`` keyed on the atoms, the dependency tuple,
        and the normalized schema's identity (the schema fixes the
        attribute→position layout of the flat encoding).  The key is
        process-portable, so the Ontop-style memoization extends across
        engines, worker processes, and the persistent store tier.
        """
        from repro.constraints.chase import chase_atoms, resolve_dependencies

        atoms = tuple(atoms)
        constraints = tuple(constraints)
        with self.tracer.span("chase", deps=len(constraints)) as span:
            key = None
            if self.store is not None:
                key = artifact_key(
                    "chase", atoms, constraints, identity(schema)
                )
                cached = self._lookup("chase", key)
                if cached is not MISSING:
                    self._tally("chase_hits")
                    span.annotate(cache="hit", added=len(cached.added))
                    return cached
                self._tally("chase_misses")
                span.annotate(cache="miss")
            resolved = resolve_dependencies(constraints, schema)
            result = chase_atoms(atoms, resolved)
            if result.truncated:
                self._tally("chase_truncations")
            span.annotate(
                added=len(result.added), rounds=result.rounds,
                truncated=result.truncated,
            )
            self._store("chase", key, result)
            return result

    # -- back half: compiled simulation targets ------------------------

    def target_cache(self):
        """Stage ``compile_target``'s cache: a content-addressed view of
        kind ``targets``, in the ``get``/``__setitem__`` protocol of
        :func:`repro.grouping.simulation.simulation_target` (None when
        the pipeline is uncached)."""
        if self.store is None:
            return None
        return KindView(self.store, "targets")

    def __repr__(self):
        return "Pipeline(store=%r)" % (self.store,)
