"""View catalogues: answering nested queries from materialized views.

The paper's introduction motivates containment with "rewriting queries
using views [12, 27]".  This module provides the planner-facing side: a
:class:`ViewCatalog` of named COQL views, and an analysis that reports,
for a query Q, which views V satisfy ``Q ⊑ V`` (V's answer dominates
Q's on every database, so a rewriting only needs to refine V), which are
weakly equivalent to Q (V answers Q exactly, up to the Hoare preorder),
and which are unusable — with counterexample evidence on request.
"""

from repro.errors import ReproError
from repro.coql.containment import as_schema
from repro.coql.explain import explain_containment

__all__ = ["ViewCatalog", "ViewReport"]


class ViewReport:
    """The usability analysis of one view for one query.

    Attributes:
        view: the view name.
        usable: True when ``query ⊑ view``.
        exact: True when additionally ``view ⊑ query`` (weakly
            equivalent — the view answers the query up to the Hoare
            preorder).
        comparable: False when the output shapes differ (then *usable*
            is False and the remaining fields are meaningless).
        counterexample: when requested and usable is False, a database
            witnessing the failure (or None when the search found none).
    """

    __slots__ = ("view", "usable", "exact", "comparable", "counterexample")

    def __init__(self, view, usable, exact, comparable, counterexample=None):
        self.view = view
        self.usable = usable
        self.exact = exact
        self.comparable = comparable
        self.counterexample = counterexample

    def __repr__(self):
        if not self.comparable:
            return "ViewReport(%s: incomparable)" % self.view
        status = "exact" if self.exact else ("usable" if self.usable else "unusable")
        return "ViewReport(%s: %s)" % (self.view, status)


class ViewCatalog:
    """A named collection of COQL views over one flat schema.

    Each catalog owns a :class:`repro.engine.ContainmentEngine` (or
    shares the one passed as *engine*): views are parsed and encoded
    once no matter how many queries are analyzed, and simulation
    obligations shared across queries are decided once.

    Pass *store* (a :class:`repro.pipeline.ArtifactStore`) to attach the
    catalog's engine to a shared artifact store instead — every prepare,
    verdict, and compiled simulation target is then shared with whatever
    else uses that store (other catalogs, the linter, ad-hoc engines).
    *store* is ignored when *engine* is given (the engine brings its
    own).

    Pass *constraints* (a tuple of
    :class:`repro.constraints.InclusionDependency`) to analyze every
    query under the declared dependencies: usability and classification
    then hold on databases satisfying them (None inherits the engine's
    own default constraints).
    """

    def __init__(self, schema, views=None, engine=None, store=None,
                 constraints=None):
        if engine is None:
            from repro.engine import ContainmentEngine

            engine = ContainmentEngine(
                store=store, constraints=tuple(constraints or ())
            )
        self._engine = engine
        if constraints is None:
            constraints = getattr(engine, "_constraints", ())
        self._constraints = tuple(constraints)
        self._schema = as_schema(schema)
        self._views = {}
        for name, text in (views or {}).items():
            self.add(name, text)

    def add(self, name, query):
        """Register a view (text or Expr)."""
        self._views[name] = query

    def remove(self, name):
        """Deregister a view; True when it was present.

        Cached artifacts about the view (its prepared encoding, its
        classification against past queries) stay in the engine's store
        — they are keyed by content, so re-adding the same view text
        warm-starts, and they can never be confused with another view's.
        """
        return self._views.pop(name, None) is not None

    def names(self):
        return tuple(sorted(self._views))

    def schema(self):
        return dict(self._schema)

    def engine(self):
        """The catalog's containment engine (for stats and cache control)."""
        return self._engine

    def lint(self, select=None, ignore=None, config=None):
        """Run the static analyzer over every registered view.

        A catalog full of views is exactly where lint findings pay off:
        an unsatisfiable view is unusable for every query (it is the
        constant empty set), a cartesian-product view makes every
        ``analyze``/matrix call against it slow, and empty-set hazards
        decide whether :meth:`ViewReport.exact` can ever be trusted as
        true equivalence.  Shares the catalog's engine, so linting warms
        the same caches :meth:`analyze` uses.

        :param select / ignore: rule-code filters, as in
            :func:`repro.analysis.analyze`.
        :param config: an :class:`repro.analysis.AnalysisConfig`.
        :returns: ``{view name: [Diagnostic, ...]}`` with each finding's
            ``target`` set to the view name; views with no findings map
            to empty lists.
        """
        from repro.analysis import analyze as analyze_query

        out = {}
        for name in self.names():
            out[name] = [
                diagnostic.with_target(name)
                for diagnostic in analyze_query(
                    self._views[name], self._schema, engine=self._engine,
                    config=config, select=select, ignore=ignore,
                )
            ]
        return out

    def analyze(self, query, with_counterexamples=False):
        """Report every view's usability for *query*.

        :returns: ``{view name: ViewReport}``.
        """
        names = self.names()
        usable_verdicts = self._engine.contains_many(
            [(self._views[name], query) for name in names],
            self._schema,
            on_error="capture",
            constraints=self._constraints,
        )
        reports = {}
        for name, usable in zip(names, usable_verdicts):
            if isinstance(usable, ReproError):
                reports[name] = ViewReport(name, False, False, False)
                continue
            exact = False
            if usable:
                exact = self._engine.contains(
                    query, self._views[name], self._schema,
                    constraints=self._constraints,
                )
            counterexample = None
            if not usable and with_counterexamples:
                explanation = explain_containment(
                    self._views[name], query, self._schema
                )
                counterexample = explanation.counterexample
            reports[name] = ViewReport(name, usable, exact, True, counterexample)
        return reports

    def containment_matrix(self, jobs=None, timeout_s=None):
        """The pairwise containment matrix of the registered views.

        :param jobs: when given (> 1), shard the matrix across a
            :class:`repro.engine.ParallelContainmentEngine` worker pool
            (sharing this catalog's engine for in-process work and
            stats); *timeout_s* bounds each check, and timed-out entries
            appear as :data:`repro.engine.UNDECIDED`.
        :returns: ``(names, matrix)`` with ``matrix[i][j]`` True iff
            ``views[names[j]] ⊑ views[names[i]]`` (None when the pair is
            incomparable or outside the decidable fragment).
        """
        names = self.names()
        queries = [self._views[name] for name in names]
        if jobs is not None or timeout_s is not None:
            from repro.engine import ParallelContainmentEngine

            with ParallelContainmentEngine(
                jobs=jobs, timeout_s=timeout_s, engine=self._engine,
                constraints=self._constraints,
            ) as parallel:
                matrix = parallel.pairwise_matrix(queries, self._schema)
        else:
            matrix = self._engine.pairwise_matrix(
                queries, self._schema, constraints=self._constraints,
            )
        return names, matrix

    def classify(self, query, jobs=None, timeout_s=None):
        """Classify every registered view against *query*.

        The semantic-cache entry point: each view is labelled with one
        of :data:`repro.engine.CLASSIFICATIONS` (``equivalent`` /
        ``subsuming`` / ``contained`` / ``irrelevant``) via the engine's
        batched, label-cached
        :meth:`~repro.engine.ContainmentEngine.classify_many`.

        :param jobs: when given (> 1), shard across a
            :class:`repro.engine.ParallelContainmentEngine` sharing this
            catalog's engine; *timeout_s* bounds each direction, and a
            timed-out direction can only demote a label (an UNDECIDED
            check never classifies as ``subsuming``).
        :returns: ``{view name: label}``.
        """
        names = self.names()
        queries = [self._views[name] for name in names]
        if jobs is not None or timeout_s is not None:
            from repro.engine import ParallelContainmentEngine

            with ParallelContainmentEngine(
                jobs=jobs, timeout_s=timeout_s, engine=self._engine,
                constraints=self._constraints,
            ) as parallel:
                labels = parallel.classify_many(query, queries, self._schema)
        else:
            labels = self._engine.classify_many(
                query, queries, self._schema, constraints=self._constraints,
            )
        return dict(zip(names, labels))

    def usable_views(self, query):
        """The names of views that can answer *query*, sorted."""
        return tuple(
            name
            for name, report in sorted(self.analyze(query).items())
            if report.usable
        )

    def best_views(self, query):
        """Usable views, exact ones first (the cheapest rewritings)."""
        reports = self.analyze(query)
        exact = [n for n, r in sorted(reports.items()) if r.exact]
        merely_usable = [
            n for n, r in sorted(reports.items()) if r.usable and not r.exact
        ]
        return tuple(exact + merely_usable)
