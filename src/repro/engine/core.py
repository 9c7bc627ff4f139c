"""The containment engine: a memoized, instrumented decision pipeline.

Every module-level call to :func:`repro.coql.contains` re-parses,
re-typechecks, re-normalizes and re-encodes both queries, and the
exponential truncation-obligation loop re-decides identical simulation
subproblems.  :class:`ContainmentEngine` drives the staged pipeline of
:mod:`repro.pipeline` over one content-addressed
:class:`repro.pipeline.store.ArtifactStore`, putting a caching layer at
exactly those boundaries:

* ``prepare`` artifacts (parse → typecheck → encode → build_grouping)
  are memoized per *(query, schema, role)*, where a query parsed from
  text is named by its text's key and a query built in code by its
  content digest — so a query text and ``parse_coql`` of it share one
  entry, and so do two equal trees built in code;
* simulation verdicts (``obligation_verdicts``) are memoized per
  truncated *(sub, sup)* obligation pair (plus the engine's method and
  the inclusion dependencies, if any), so obligations shared across
  truncation patterns — and across both directions of an equivalence
  check, or across the N×N matrix of a view catalog — are decided once;
* the provably-non-empty test (``nonempty``) is memoized per *(grouping
  query, path)*, shared between obligation enumeration and
  :meth:`empty_set_free`;
* compiled simulation targets (``targets``, the witness-augmented
  canonical database plus its inverted index, see
  :class:`repro.grouping.simulation.SimulationTarget`) are memoized per
  *(grouping query, witness copies)* — constrained witness escalation,
  repeated checks against one side, ``pairwise_matrix`` rows and the
  weak-equivalence truncation sweep all reuse the compiled target
  instead of rebuilding and re-indexing it.

Keys are SHA-256 digests (:mod:`repro.pipeline.fingerprint`), not
object identities or ``hash()`` values: the same query text and schema
name the same artifact in every process, which is what lets the
parallel engine's workers and the parent agree on cache entries, and
what makes the store shareable between engines (pass ``store=`` to
share one across a :class:`repro.coql.views.ViewCatalog`, the linter,
and ad-hoc checks).  The keys that name a query or a schema
(``prepare``, ``branch_verdict``, ``classification``, ``chase``) are
derived from the input's key (:func:`repro.pipeline.fingerprint.\
identity`), so a fresh check keys each text once and digests no AST;
the keys over grouping queries stay content digests, so equal
truncations of different pairs share one verdict.

Memoization safety: every cached object (:class:`Expr`,
:class:`EncodedQuery`'s :class:`GroupingQuery`, verdict booleans) is
immutable, so cached results may be returned to any number of callers.

Every stage run is traced (:class:`repro.pipeline.trace.Tracer`): each
public decision opens a ``check`` span whose children are the stage
spans it caused, giving a per-check trace tree exportable as Chrome
``trace_event`` JSON (the CLI's ``--trace-out``).  The
:class:`repro.engine.stats.EngineStats` per-stage timers are maintained
by that tracer — a view over the trace, never a second timing path.

Batch entry points (:meth:`contains_many`, :meth:`pairwise_matrix`) feed
the view-reuse analysis and the workload scenarios; everything the
engine does is tallied in an :class:`EngineStats` available via
:meth:`stats`.
"""

from contextlib import contextmanager

from repro.errors import (
    IncomparableQueriesError,
    UnsupportedQueryError,
)
from repro.coql.parser import parse_coql
from repro.coql.containment import as_schema
from repro.coql.encode import paired_encoding, shapes_compatible
from repro.coql.family import contains_union, union_branches
from repro.grouping.simulation import is_simulated
from repro.cq import homomorphism
from repro.engine.stats import EngineStats
from repro.pipeline.fingerprint import artifact_key, identity
from repro.pipeline.stages import Pipeline
from repro.pipeline.store import MISSING, ArtifactStore
from repro.pipeline.trace import Tracer

__all__ = ["ContainmentEngine", "CLASSIFICATIONS", "classification_of"]

#: The view-usability labels of :meth:`ContainmentEngine.classify_many`,
#: most useful first.  For a query Q and a candidate view V:
#:
#: * ``equivalent`` — ``Q ⊑ V`` and ``V ⊑ Q`` (weakly equivalent);
#: * ``subsuming``  — ``Q ⊑ V`` only: V's answer dominates Q's, so Q can
#:   be served from V's materialization by evaluating a residual;
#: * ``contained``  — ``V ⊑ Q`` only: V is a partial answer (a prefetch
#:   hint, never a serving source);
#: * ``irrelevant`` — neither direction is *proven* (this includes
#:   incomparable pairs, fragment errors, and timed-out checks).
CLASSIFICATIONS = ("equivalent", "subsuming", "contained", "irrelevant")


def classification_of(forward, backward):
    """The label for one (query, view) pair from its two verdicts.

    :param forward: the verdict of ``query ⊑ view``.
    :param backward: the verdict of ``view ⊑ query``.

    Only a literal True counts as proven: ``UNDECIDED`` (falsy, a timed
    out check), captured exceptions, and False all fail the identity
    test, so an undecided direction can never produce ``subsuming`` or
    ``equivalent`` — serving from an unproven view would be unsound,
    while demoting to ``contained``/``irrelevant`` merely loses a cache
    hit.
    """
    forward_proven = forward is True
    backward_proven = backward is True
    if forward_proven and backward_proven:
        return "equivalent"
    if forward_proven:
        return "subsuming"
    if backward_proven:
        return "contained"
    return "irrelevant"


def _verdict_is_stable(verdict):
    """True when a verdict may back a cached classification label.

    Booleans and domain exceptions are deterministic; anything else
    (the parallel engine's UNDECIDED) depends on a wall clock and must
    be re-decided next time instead of poisoning the cache.
    """
    return verdict is True or verdict is False or isinstance(
        verdict, Exception
    )


def resolve_classifications(engine, query, candidates, schema,
                            decide_pairs, constraints=()):
    """Label every candidate view against *query*, cache-first.

    The shared machinery behind :meth:`ContainmentEngine.classify_many`
    and :meth:`repro.engine.parallel.ParallelContainmentEngine.\
classify_many`: labels are cached in *engine*'s store under the
    ``classification`` artifact kind (keyed on both queries' and the
    schema's :func:`~repro.pipeline.fingerprint.identity`, the engine's
    method and *constraints* — the dependencies *decide_pairs* decides
    under — so they flow through a
    :class:`~repro.pipeline.persist.TieredStore` to other processes),
    and only the missing pairs reach *decide_pairs* — one batch of
    interleaved ``(candidate, query), (query, candidate)`` containment
    checks with errors captured.
    """
    pipeline = engine.pipeline()
    schema = as_schema(schema)
    # The pairs keep the caller's texts, so a pool worker names each
    # query by its text's key as this process does; a pickled AST would
    # lose that name.
    given, given_query = candidates, query
    if isinstance(query, str):
        query = pipeline.parse(query)
    candidates = [
        pipeline.parse(candidate) if isinstance(candidate, str) else candidate
        for candidate in given
    ]
    store = pipeline.store
    labels = [None] * len(candidates)
    keys = [None] * len(candidates)
    missing = []
    constraints = tuple(constraints)
    for index, candidate in enumerate(candidates):
        if store is not None:
            keys[index] = artifact_key(
                "classification", identity(query), identity(candidate),
                identity(schema), *engine._decision(constraints),
            )
            cached = store.lookup("classification", keys[index])
            if cached is not MISSING:
                pipeline._tally("classification_hits")
                labels[index] = cached
                continue
            pipeline._tally("classification_misses")
        missing.append(index)
    if missing:
        pairs = []
        for index in missing:
            pairs.append((given[index], given_query))  # query ⊑ candidate
            pairs.append((given_query, given[index]))  # candidate ⊑ query
        verdicts = decide_pairs(pairs)
        for slot, index in enumerate(missing):
            forward = verdicts[2 * slot]
            backward = verdicts[2 * slot + 1]
            labels[index] = classification_of(forward, backward)
            if (
                store is not None
                and _verdict_is_stable(forward)
                and _verdict_is_stable(backward)
            ):
                store.store("classification", keys[index], labels[index])
    return labels

#: Legacy cache names, mapped onto the store's artifact kinds, in the
#: order :meth:`ContainmentEngine.cache_sizes` reports them.
_CACHE_KINDS = (
    ("prepare", "prepare"),
    ("obligation_verdicts", "obligation_verdicts"),
    ("nonempty", "nonempty"),
    ("targets", "targets"),
    ("cost_certificate", "cost_certificate"),
    ("branch_verdict", "branch_verdict"),
    ("chase", "chase"),
)


class ContainmentEngine:
    """Memoized containment, equivalence, and emptiness decisions.

    Drop-in superset of the module-level API of
    :mod:`repro.coql.containment` (which delegates to a process-wide
    default instance): same arguments, same verdicts, same exceptions —
    plus caching across calls, :meth:`stats`, and :meth:`tracer`.

    Every check searches one witness copy per node, which decides an
    unconstrained check (the retraction lemma, DESIGN.md §2); a check
    under *constraints* escalates to the completeness bound when one
    copy fails.

    :param method: the decision method, ``"certificate"`` (the NP
        certificate search) or ``"canonical"`` (semantic evaluation of
        the simulation condition over the canonical database family —
        a brute-force reference for tests, which rejects *constraints*).
        Checked here: any other value raises
        :class:`UnsupportedQueryError`.
    :param prepare_cache_size: entries in the ``prepare`` artifact
        segment (0 disables, None unbounded).
    :param verdict_cache_size: entries in the ``obligation_verdicts``
        and ``nonempty`` segments (0 disables, None unbounded).
    :param target_cache_size: entries in the compiled
        simulation-target segment (0 disables, None unbounded).
    :param store: a shared :class:`ArtifactStore` (or any object with
        its ``lookup``/``store`` interface, e.g. a
        :class:`repro.pipeline.persist.TieredStore`) to use instead of
        building a private one (the ``*_cache_size`` knobs are then
        ignored — the store's own limits apply).  Sharing a store shares
        every artifact kind across the engines attached to it.
    :param store_path: convenience for the cross-process tier: build a
        :class:`~repro.pipeline.persist.TieredStore` over the SQLite
        database at this path (the ``*_cache_size`` knobs bound its
        memory tier).  Mutually exclusive with *store*.  Artifacts
        prepared by any process pointed at the same path are reused;
        call ``engine.store().flush()`` (or close the store) to push
        this process's write-back buffer to disk.
    :param retain_trace: keep per-check trace trees for export (True);
        the parallel engine's workers and ``repro serve`` pass False so
        a long-lived process only feeds the timers and the stage summary
        and never accumulates trace memory.
    :param analyze: opt-in static-analysis pre-check: every
        :meth:`contains` call first runs :func:`repro.analysis.analyze`
        over both queries (cheap rules only, sharing this engine's
        store), attaches the findings to :meth:`stats` (labelled
        ``sub`` / ``sup``), and short-circuits to True when the
        subquery's body is unsatisfiable (a constant-empty subquery is
        contained in everything).
    :param analysis_config: the :class:`repro.analysis.AnalysisConfig`
        the pre-check uses (default: stock knobs with expensive rules
        off).
    :param constraints: default tuple of
        :class:`repro.constraints.InclusionDependency` declarations —
        every ``certificate``-method decision then holds on databases
        *satisfying the dependencies* (the sub-side canonical witnesses
        are saturated by the memoized ``chase`` stage before the
        simulation search).  Per-call ``constraints=`` overrides the
        default.
    """

    def __init__(self, method="certificate", prepare_cache_size=512,
                 verdict_cache_size=8192, target_cache_size=1024,
                 store=None, store_path=None, retain_trace=True,
                 analyze=False, analysis_config=None, constraints=()):
        if method not in ("certificate", "canonical"):
            raise UnsupportedQueryError("unknown method %r" % (method,))
        self._method = method
        self._constraints = tuple(constraints)
        if store is not None and store_path is not None:
            raise UnsupportedQueryError(
                "pass store= or store_path=, not both"
            )
        if store is None:
            limits = {
                "prepare": prepare_cache_size,
                "obligation_verdicts": verdict_cache_size,
                "nonempty": verdict_cache_size,
                "targets": target_cache_size,
                "classification": verdict_cache_size,
                "cost_certificate": target_cache_size,
                "branch_verdict": verdict_cache_size,
                "chase": target_cache_size,
            }
            if store_path is not None:
                from repro.pipeline.persist import TieredStore

                store = TieredStore(path=store_path, limits=limits)
            else:
                store = ArtifactStore(limits=limits)
        self._stats = EngineStats()
        self._tracer = Tracer(self._stats, retain=retain_trace)
        self._pipeline = Pipeline(
            store=store, stats=self._stats, tracer=self._tracer
        )
        self._analyze = bool(analyze)
        self._analysis_config = analysis_config

    # -- instrumentation ----------------------------------------------

    def stats(self):
        """The engine's :class:`EngineStats` (live, cumulative)."""
        return self._stats

    def tracer(self):
        """The engine's :class:`repro.pipeline.trace.Tracer` — one
        retained root span (``check``) per public decision, with the
        stage spans it caused as children."""
        return self._tracer

    def pipeline(self):
        """The engine's :class:`repro.pipeline.Pipeline` pass manager."""
        return self._pipeline

    def store(self):
        """The engine's :class:`repro.pipeline.store.ArtifactStore`."""
        return self._pipeline.store

    def reset_stats(self):
        """Zero all counters, timers, and store hit-rate tallies; cached
        artifacts are kept."""
        self._stats.reset()
        self._pipeline.store.reset_counters()

    def clear_trace(self):
        """Drop every retained per-check trace tree (stats are kept)."""
        self._tracer.clear()

    def clear_caches(self):
        """Drop every memoized artifact (stats and hit tallies kept)."""
        self._pipeline.store.clear()

    def cache_sizes(self):
        """Current entry counts: ``{cache name: entries}``."""
        sizes = self._pipeline.store.sizes()
        return {name: sizes.get(kind, 0) for name, kind in _CACHE_KINDS}

    @contextmanager
    def _instrumented(self):
        previous = homomorphism.install_search_counters(self._stats.search)
        try:
            yield
        finally:
            homomorphism.install_search_counters(previous)

    @contextmanager
    def _check(self, kind):
        """One public decision: a root ``check`` trace span plus search
        counter installation."""
        with self._instrumented():
            with self._tracer.span("check", label=kind):
                yield

    # -- the pipeline --------------------------------------------------

    def prepare(self, query, schema, name="q"):
        """Parse, type-check, normalize, and encode *query* — memoized.

        One pipeline invocation (stages ``parse`` →  ``typecheck`` →
        ``encode`` → ``build_grouping``), cached under a key derived
        from the query's identity, the normalized schema's digest and
        the role *name* given to the resulting grouping query.  A query
        parsed from text is named by the text's key, so a text and
        ``parse_coql`` of it share one entry; an :class:`Expr` built in
        code is named by its content digest, so equal trees share one.
        """
        return self._pipeline.prepare(query, schema, name)

    def _provably_nonempty(self, query, path):
        return self._pipeline.provably_nonempty(query, path)

    def _resolve_constraints(self, constraints):
        """The effective dependency tuple for one decision."""
        if constraints is None:
            return self._constraints
        return tuple(constraints)

    def _chase_hook(self, constraints, schema):
        """The memoized saturation hook for *constraints*, or None."""
        if not constraints:
            return None
        schema = as_schema(schema)
        pipeline = self._pipeline
        return lambda atoms: pipeline.chase(atoms, constraints, schema)

    def _decision(self, constraints):
        """What this engine's verdicts under *constraints* are decided
        by, as store-key components: the method, then the dependency
        tuple when there is one."""
        if constraints:
            return (self._method, tuple(constraints))
        return (self._method,)

    def _decider(self, constraints=(), schema=None):
        if self._method == "canonical":
            if constraints:
                raise UnsupportedQueryError(
                    "the canonical (brute-force) method does not support "
                    "inclusion dependencies; use method='certificate'"
                )
            from repro.grouping.bruteforce import check_simulation_on_canonical

            return check_simulation_on_canonical
        cache = self._pipeline.target_cache()
        chase = self._chase_hook(constraints, schema)
        chase_key = tuple(constraints) if constraints else None
        return lambda a, b: is_simulated(
            a, b, stats=self._stats, cache=cache, chase=chase,
            chase_key=chase_key,
        )

    def _contains_encoded(self, sup_encoded, sub_encoded, constraints=(),
                          schema=None):
        if not sub_encoded.is_empty and not sup_encoded.is_empty:
            if not shapes_compatible(sub_encoded.shape, sup_encoded.shape):
                raise IncomparableQueriesError(
                    "queries have different output shapes: %r vs %r"
                    % (sub_encoded.shape, sup_encoded.shape)
                )
        sub_query, sup_query, verdict = paired_encoding(
            sub_encoded, sup_encoded
        )
        if verdict is not None:
            return verdict
        if sub_query is None:
            raise IncomparableQueriesError(
                "queries have incompatible nested structure"
            )
        decide = self._decider(constraints=constraints, schema=schema)
        decision = self._decision(constraints)
        patterns = self._pipeline.enumerate_obligations(sub_query)
        for pattern in patterns:
            if not self._pipeline.decide_obligation(
                sub_query, sup_query, pattern, decide, decision
            ):
                return False
        return True

    # -- public decisions ----------------------------------------------

    def _pre_analyze(self, sup, sub, schema):
        """The opt-in lint pre-check; returns ``(verdict, sup, sub)``.

        Runs the cheap analysis rules over both queries against this
        engine's store, labels the findings ``sub``/``sup``, and
        records them on :meth:`stats`.  When the subquery is found to
        be the constant empty set (error-severity COQL002) the
        containment verdict is True regardless of the superquery's
        content — the superquery is still prepared first so malformed
        superqueries raise exactly as without the pre-check.

        Query texts are parsed once here and the parsed forms are
        returned, so :meth:`contains` does not parse a second time and
        the pre-check's marginal cost is the rule passes alone.
        """
        from repro.analysis import ERROR, AnalysisConfig, analyze

        config = self._analysis_config
        if config is None:
            config = AnalysisConfig(expensive=False)
        if isinstance(sup, str):
            with self._tracer.span("parse"):
                sup = parse_coql(sup)
        if isinstance(sub, str):
            with self._tracer.span("parse"):
                sub = parse_coql(sub)
        if contains_union(sup) or contains_union(sub):
            # Per-branch analysis happens through the family reduction;
            # whole-query rules assume union-free normal forms.
            return None, sup, sub
        found = []
        with self._tracer.span("analysis"):
            for role, query in (("sub", sub), ("sup", sup)):
                found.extend(
                    d.with_target(role)
                    for d in analyze(query, schema, engine=self, config=config)
                )
        self._stats.tally("analysis_runs")
        self._stats.add_diagnostics(found)
        sub_is_empty = any(
            d.code == "COQL002" and d.severity == ERROR and d.target == "sub"
            for d in found
        )
        if sub_is_empty:
            self.prepare(sup, schema)
            self._stats.tally("analysis_short_circuits")
            return True, sup, sub
        return None, sup, sub

    def _family(self, query):
        """Parse (via the memoized parse stage) and expand to union-free
        branches; union-free queries come back as the one-element tuple
        holding the *same* AST object, so the singleton path prepares
        and caches exactly what it did before families existed."""
        if isinstance(query, str):
            query = self._pipeline.parse(query)
        return union_branches(query)

    def _branch_verdict(self, sup_branch, sub_branch, schema, constraints):
        """One ``sub_branch ⊑ sup_branch`` verdict of the Sagiv–
        Yannakakis reduction, memoized under kind ``branch_verdict``.

        Captured :class:`IncomparableQueriesError` instances are
        verdicts too (a sub branch may be incomparable with one sup
        branch yet covered by another) and are cached like booleans —
        both are deterministic.  UNDECIDED never reaches this layer
        (the sequential engine has no timeouts).
        """
        store = self._pipeline.store
        key = None
        if store is not None:
            key = artifact_key(
                "branch_verdict", identity(sub_branch), identity(sup_branch),
                identity(schema), self._method, constraints,
            )
            cached = store.lookup("branch_verdict", key)
            if cached is not MISSING:
                self._stats.tally("branch_verdict_hits")
                return cached
            self._stats.tally("branch_verdict_misses")
        try:
            verdict = self._contains_encoded(
                self.prepare(sup_branch, schema),
                self.prepare(sub_branch, schema),
                constraints=constraints, schema=schema,
            )
        except IncomparableQueriesError as exc:
            verdict = exc
        self._stats.tally("union_branches_decided")
        if store is not None and _verdict_is_stable(verdict):
            store.store("branch_verdict", key, verdict)
        return verdict

    def _contains_family(self, sup_branches, sub_branches, schema,
                         constraints):
        """The Sagiv–Yannakakis all/any reduction over two families.

        ``⋃ᵢ subᵢ ⊑ ⋃ⱼ supⱼ`` holds when every sub branch is contained
        in *some* sup branch — sound for the Hoare order, complete for
        flat single-level unions [36].  Branches are visited in family
        (source) order and the inner loop short-circuits on the first
        covering sup branch, so sequential and parallel engines decide
        the same branch pairs in the same order.  A sub branch that is
        incomparable with *every* sup branch re-raises the first
        incomparability; one that is merely not contained returns
        False.
        """
        with self.tracer().span(
            "reduce_union", sub_branches=len(sub_branches),
            sup_branches=len(sup_branches),
        ):
            for sub_branch in sub_branches:
                covered = False
                errors = []
                for sup_branch in sup_branches:
                    verdict = self._branch_verdict(
                        sup_branch, sub_branch, schema, constraints,
                    )
                    if isinstance(verdict, Exception):
                        errors.append(verdict)
                        continue
                    if verdict is True:
                        covered = True
                        break
                if not covered:
                    if len(errors) == len(sup_branches):
                        # errors[0] may be the instance cached under
                        # branch_verdict: raising it would grow its
                        # traceback (and pin the frames) on every repeat.
                        cached = errors[0]
                        raise type(cached)(*cached.args, span=cached.span)
                    return False
            return True

    def contains(self, sup, sub, schema, constraints=None):
        """True iff ``sub ⊑ sup`` on every database (Theorem 4.1).

        Union bodies are expanded to query families and decided by the
        Sagiv–Yannakakis all/any reduction; *constraints* (inclusion
        dependencies, default the engine's) make the verdict relative
        to databases satisfying them.
        """
        constraints = self._resolve_constraints(constraints)
        # One dict per check rather than one per prepare.
        schema = as_schema(schema)
        with self._check("contains"):
            self._stats.tally("contains_calls")
            if self._analyze:
                verdict, sup, sub = self._pre_analyze(sup, sub, schema)
                if verdict is not None:
                    return verdict
            sub_branches = self._family(sub)
            sup_branches = self._family(sup)
            if len(sub_branches) == 1 and len(sup_branches) == 1:
                sub_encoded = self.prepare(sub_branches[0], schema)
                sup_encoded = self.prepare(sup_branches[0], schema)
                return self._contains_encoded(
                    sup_encoded, sub_encoded,
                    constraints=constraints, schema=schema,
                )
            return self._contains_family(
                sup_branches, sub_branches, schema, constraints
            )

    def weakly_equivalent(self, q1, q2, schema, constraints=None):
        """True iff ``Q1 ⊑ Q2`` and ``Q2 ⊑ Q1`` (decidable in general).

        Both directions share the engine's obligation cache, so a
        self-equivalence check decides each obligation once.  Union
        queries compare family-wise (both directions of the
        Sagiv–Yannakakis reduction).
        """
        constraints = self._resolve_constraints(constraints)
        schema = as_schema(schema)
        with self._check("weakly_equivalent"):
            self._stats.tally("equivalence_calls")
            first_branches = self._family(q1)
            second_branches = self._family(q2)
            if len(first_branches) == 1 and len(second_branches) == 1:
                first = self.prepare(first_branches[0], schema)
                second = self.prepare(second_branches[0], schema)
                return self._contains_encoded(
                    second, first, constraints=constraints, schema=schema,
                ) and self._contains_encoded(
                    first, second, constraints=constraints, schema=schema,
                )
            return self._contains_family(
                second_branches, first_branches, schema, constraints
            ) and self._contains_family(
                first_branches, second_branches, schema, constraints
            )

    def empty_set_free(self, query, schema):
        """True when the query provably never produces an empty set.

        A union query is empty-set free when every branch of its family
        is: an element of ``⋃ᵢ Qᵢ(D)`` is an element of one ``Qᵢ(D)``,
        so its inner sets come from that branch.  A constant-empty
        branch answers False, like a constant-empty query.
        """
        with self._check("empty_set_free"):
            return all(
                self._branch_empty_set_free(branch, schema)
                for branch in self._family(query)
            )

    def _branch_empty_set_free(self, branch, schema):
        encoded = self.prepare(branch, schema)
        if encoded.is_empty or encoded.empty_paths:
            return False
        with self._tracer.span("obligations"):
            return all(
                self._provably_nonempty(encoded.query, p)
                for p in encoded.query.paths()
                if p
            )

    def provably_nonempty(self, query, path):
        """True when the group at *path* is non-empty for every parent row.

        Memoized public wrapper over the sufficient syntactic test of
        :func:`repro.coql.containment._provably_nonempty`; *query* is a
        :class:`GroupingQuery` (e.g. ``prepare(...).query``).  Shared
        with obligation enumeration, :meth:`empty_set_free`, and the
        COQL004/COQL007 analysis rules, so asking never repeats work.
        """
        return self._provably_nonempty(query, path)

    def simulated(self, sub, sup):
        """True iff ``sub ⊴ sup`` for :class:`GroupingQuery` arguments.

        An instrumented, target-cached wrapper over
        :func:`repro.grouping.simulation.is_simulated`: search effort
        lands in :meth:`stats` and the compiled simulation target for
        *sub* is reused across calls.
        The parallel engine's workers decide their shards through this
        entry point so every shard sharing a subquery compiles its
        target once.
        """
        with self._check("simulated"):
            with self._tracer.span("simulation"):
                return is_simulated(
                    sub, sup, stats=self._stats,
                    cache=self._pipeline.target_cache(),
                )

    def cq_contains(self, sup, sub):
        """Chandra–Merlin containment for flat conjunctive queries.

        ``cq_contains(Q2, Q1)`` is True iff ``Q1 ⊑ Q2`` for
        :class:`repro.cq.query.ConjunctiveQuery` arguments — the same
        verdict as :func:`repro.cq.containment.contains`, but
        instrumented (search effort lands in :meth:`stats`) and
        memoized under the ``branch_verdict`` artifact kind, which is
        what :func:`repro.cq.unions.union_contains` and
        :meth:`repro.cq.unions.UnionQuery.minimize` route through.
        """
        from repro.cq.containment import containment_mapping

        with self._check("cq_contains"):
            self._stats.tally("cq_contains_calls")
            store = self._pipeline.store
            key = None
            if store is not None:
                key = artifact_key("branch_verdict", "cq", sub, sup)
                cached = store.lookup("branch_verdict", key)
                if cached is not MISSING:
                    self._stats.tally("branch_verdict_hits")
                    return cached
                self._stats.tally("branch_verdict_misses")
            with self._tracer.span("simulation"):
                verdict = containment_mapping(sub, sup) is not None
            if store is not None:
                store.store("branch_verdict", key, verdict)
            return verdict

    def cost_certificate(self, query, schema, against=None, stats=None):
        """The static :class:`repro.analysis.interp.CostCertificate` for
        checking *query* against *against* (default: itself).

        One traced ``check`` span of kind ``analyze_cost``; the core
        pair certificate is cached under the ``cost_certificate``
        artifact kind, and the certificate's non-emptiness tests share
        this engine's memoized ``nonempty`` cache — so a later
        :meth:`contains` on the same pair replays them for free.
        *stats* is an optional
        :class:`repro.analysis.interp.DatabaseStatistics` sharpening the
        AST-level cardinality facts.
        """
        from repro.analysis.interp import cost_certificate

        with self._check("analyze_cost"):
            self._stats.tally("analyze_cost_calls")
            return cost_certificate(
                query, schema, against=against, engine=self, stats=stats,
            )

    def minimize(self, query, schema):
        """Remove redundant generators/conditions (weak-equivalence
        preserving), deciding candidate equivalences on this engine.

        A traced ``minimize`` stage over
        :func:`repro.coql.minimize.minimize_coql`; every candidate's
        weak-equivalence checks share this engine's store, so repeated
        minimization of similar queries is incremental.
        """
        from repro.coql.minimize import minimize_coql

        with self._tracer.span("minimize"):
            return minimize_coql(query, schema, engine=self)

    def equivalent(self, q1, q2, schema):
        """Decide equivalence for empty-set-free queries (else raise).

        A union is decided only when every branch on both sides is
        flat: there the Hoare order is ``⊆`` and the Sagiv–Yannakakis
        reduction is complete.  A union with a set-valued branch raises,
        because it absorbs a branch whose inner sets are smaller than
        another branch's: weakly equivalent to the larger one alone,
        yet not equal to it.
        """
        if not self.empty_set_free(q1, schema) or not self.empty_set_free(
            q2, schema
        ):
            raise UnsupportedQueryError(
                "equivalence is decided for empty-set-free queries only "
                "(weak equivalence is decidable in general: use "
                "weakly_equivalent)"
            )
        families = (self._family(q1), self._family(q2))
        if any(len(family) > 1 for family in families) and not all(
            self._is_flat(branch, schema)
            for family in families for branch in family
        ):
            raise UnsupportedQueryError(
                "equivalence of a union is decided for flat branches only: "
                "a union absorbs a branch with smaller inner sets, so weak "
                "equivalence does not imply equality (use weakly_equivalent)"
            )
        return self.weakly_equivalent(q1, q2, schema)

    def _is_flat(self, branch, schema):
        """True when the (non-empty) *branch* has no set-valued path."""
        return not self.prepare(branch, schema).query.root.children

    # -- batch entry points --------------------------------------------

    def contains_many(self, pairs, schema, on_error="raise",
                      constraints=None):
        """Decide ``sub ⊑ sup`` for every ``(sup, sub)`` pair.

        :param pairs: iterable of ``(sup, sub)`` queries.
        :param on_error: ``"raise"`` propagates
            :class:`IncomparableQueriesError` /
            :class:`UnsupportedQueryError`; ``"capture"`` places the
            exception instance in the result list instead, so one bad
            pair does not abort the batch.
        :returns: a list of verdicts (and, under ``"capture"``,
            exception instances), one per pair, in order.
        """
        if on_error not in ("raise", "capture"):
            raise UnsupportedQueryError(
                "on_error must be 'raise' or 'capture', got %r" % (on_error,)
            )
        self._stats.tally("batch_calls")
        out = []
        for sup, sub in pairs:
            try:
                out.append(
                    self.contains(sup, sub, schema, constraints=constraints)
                )
            except (IncomparableQueriesError, UnsupportedQueryError) as exc:
                if on_error == "raise":
                    raise
                out.append(exc)
        return out

    def classify_many(self, query, candidates, schema, constraints=None):
        """Label every candidate view's usability for *query*.

        For each candidate V the pair of checks ``query ⊑ V`` and
        ``V ⊑ query`` is decided (errors captured, so one incomparable
        view cannot abort the batch) and folded into one of the
        :data:`CLASSIFICATIONS` labels by :func:`classification_of`.
        Labels are memoized under the ``classification`` artifact kind,
        so a warm lookup answers without touching the decision procedure
        at all — this is the semantic cache's admission fast path.

        :returns: a list of labels, one per candidate, in order.
        """
        constraints = self._resolve_constraints(constraints)
        self._stats.tally("classify_calls")
        return resolve_classifications(
            self, query, list(candidates), schema,
            lambda pairs: self.contains_many(
                pairs, schema, on_error="capture", constraints=constraints,
            ),
            constraints=constraints,
        )

    def pairwise_matrix(self, queries, schema, constraints=None):
        """The N×N containment matrix of *queries*.

        ``matrix[i][j]`` is True iff ``queries[j] ⊑ queries[i]``, and
        None when the pair is incomparable or outside the decidable
        fragment.  Thanks to the prepare and obligation caches each
        query is encoded once and shared obligations are decided once
        across the whole matrix.
        """
        queries = list(queries)
        self._stats.tally("batch_calls")
        matrix = []
        for sup in queries:
            row = []
            for sub in queries:
                try:
                    row.append(
                        self.contains(sup, sub, schema, constraints=constraints)
                    )
                except (IncomparableQueriesError, UnsupportedQueryError):
                    row.append(None)
            matrix.append(row)
        return matrix

    def __repr__(self):
        sizes = self.cache_sizes()
        return (
            "ContainmentEngine(prepared=%d, verdicts=%d, nonempty=%d, "
            "targets=%d)"
            % (
                sizes["prepare"],
                sizes["obligation_verdicts"],
                sizes["nonempty"],
                sizes["targets"],
            )
        )
