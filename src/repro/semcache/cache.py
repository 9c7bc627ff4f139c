"""The semantic view-cache: containment-driven answering from views.

:class:`SemanticCache` is the flagship use of the decision procedure —
answering queries using views in the sense of the paper's introduction
("rewriting queries using views"): each incoming COQL query is checked
against a :class:`repro.coql.views.ViewCatalog` of materialized views,
every view is classified (``equivalent`` / ``subsuming`` / ``contained``
/ ``irrelevant``, see :data:`repro.engine.CLASSIFICATIONS`), and the
answer is served from the best usable view:

* **exact** — the query's normal form is literally a registered view's
  (O(1), no containment work at all: normalization canonicalizes
  alpha-renaming and generator inlining), or the query is weakly
  equivalent to a view with a set-free output (where mutual Hoare
  domination forces value equality);
* **residual** — a subsuming (or equivalent) view admits a
  :class:`repro.semcache.residual.ResidualPlan`: the answer is computed
  from the view's materialized rows by filtering and head-rebuilding,
  never touching the base database;
* **miss** — no sound plan exists: the query is evaluated directly
  (:func:`repro.coql.eval.evaluate_coql`) and *admitted* as a new
  materialized view (LRU-bounded by *max_views*), so the next
  equivalent or refining query hits.

Views classified ``contained`` are reported as *prefetch hints* (their
materializations are partial answers), never used for serving.

Union queries (top-level ``union`` bodies) are first-class but serve
only through **provably exact** plans: the normal-form identity key is
the *set* of branch normal forms (order- and duplicate-insensitive),
and the weak-equivalence shortcut requires every branch head to be
set-free.  Residual plans are per-conjunctive-branch machinery and are
never attempted when either side is a union — a filter over one
branch's rows would silently drop the other branches' answers.

Classification verdicts flow through the engine's artifact store under
the ``classification`` kind — attach the cache to a
:class:`repro.pipeline.persist.TieredStore` (``store=``) and warm
traffic skips the decision procedure across process restarts too.
"""

from collections import OrderedDict

from repro.coql.eval import evaluate_coql
from repro.coql.normalize import NFEmpty, normalize
from repro.objects.values import CSet
from repro.semcache.residual import head_is_set_free, residual_plan

__all__ = ["SemanticCache", "CacheAnswer", "MaterializedView"]


class MaterializedView:
    """One registered view: query, normal form, and materialized value."""

    __slots__ = ("name", "ast", "nf", "value", "pinned")

    def __init__(self, name, ast, nf, value, pinned=False):
        self.name = name
        self.ast = ast
        self.nf = nf
        self.value = value
        self.pinned = pinned

    def __repr__(self):
        return "MaterializedView(%s, %d row(s)%s)" % (
            self.name, len(self.value), ", pinned" if self.pinned else "",
        )


class CacheAnswer:
    """One :meth:`SemanticCache.lookup` result.

    Attributes:
        value: the query's answer (a :class:`repro.objects.values.CSet`).
        source: ``"exact"`` (served verbatim), ``"residual"`` (computed
            from a subsuming view's rows), or ``"miss"`` (evaluated on
            the base database).
        view: the serving view's name (for a miss: the name the query
            was admitted under, or None when admission is disabled).
        classification: the serving view's label (None on a miss).
        prefetch: names of views classified ``contained`` — partial
            answers worth prefetching, never serving sources.
    """

    __slots__ = ("value", "source", "view", "classification", "prefetch")

    def __init__(self, value, source, view, classification, prefetch=()):
        self.value = value
        self.source = source
        self.view = view
        self.classification = classification
        self.prefetch = tuple(prefetch)

    @property
    def hit(self):
        return self.source != "miss"

    def __repr__(self):
        return "CacheAnswer(%s%s, %d row(s))" % (
            self.source,
            " via %s" % self.view if self.view else "",
            len(self.value),
        )


class SemanticCache:
    """A containment-driven cache over one base database.

    :param schema: the flat schema (as for the engines).
    :param database: the base :class:`repro.objects.database.Database`
        misses are evaluated against.
    :param engine: a :class:`repro.engine.ContainmentEngine` to share
        (one is created otherwise; *store* as for
        :class:`~repro.coql.views.ViewCatalog`).
    :param max_views: bound on registered views; admission beyond it
        evicts the least recently *used* unpinned view (0 disables
        admission entirely — the cache then serves only preloaded
        views).
    :param jobs, timeout_s: when given, classification batches shard
        across a :class:`repro.engine.ParallelContainmentEngine`
        (sharing the cache's engine) with per-check deadlines; an
        undecided check can only demote a view's label, never promote
        it to a serving source.
    """

    def __init__(self, schema, database, engine=None, store=None,
                 max_views=32, jobs=None, timeout_s=None):
        from repro.coql.views import ViewCatalog

        self._catalog = ViewCatalog(schema, engine=engine, store=store)
        self._engine = self._catalog.engine()
        self._database = database
        self._max_views = max_views
        self._jobs = jobs
        self._timeout_s = timeout_s
        self._views = OrderedDict()
        self._by_nf = {}
        self._admitted_count = 0
        self.counters = {
            "lookups": 0,
            "exact_hits": 0,
            "residual_hits": 0,
            "misses": 0,
            "admitted": 0,
            "evicted": 0,
            "prefetch_hints": 0,
        }

    # -- catalog management --------------------------------------------

    def engine(self):
        """The underlying containment engine (stats, caches)."""
        return self._engine

    def catalog(self):
        """The underlying :class:`~repro.coql.views.ViewCatalog`."""
        return self._catalog

    def views(self):
        """Registered view names, in recency order (oldest first)."""
        return tuple(self._views)

    def view(self, name):
        """The :class:`MaterializedView` registered under *name*."""
        return self._views[name]

    def _parse(self, query):
        if isinstance(query, str):
            return self._engine.pipeline().parse(query)
        return query

    @staticmethod
    def _query_nf(ast):
        """The NF-identity key: a branch NF, or a frozenset for unions.

        A union keys on the *set* of its branches' normal forms, so
        branch order and duplicates never split identical queries;
        always-empty branches contribute nothing and are dropped (a
        union that collapses to one live branch keys exactly like that
        branch written without ``union``).
        """
        from repro.coql.family import union_branches

        branches = union_branches(ast)
        if len(branches) == 1:
            return normalize(ast)
        live = frozenset(
            nf for nf in (normalize(branch) for branch in branches)
            if not isinstance(nf, NFEmpty)
        )
        if not live:
            return normalize(branches[0])  # the constant empty set
        if len(live) == 1:
            return next(iter(live))
        return live

    @staticmethod
    def _set_free(nf):
        """Every head (all branches, for a union key) is set-free."""
        if isinstance(nf, frozenset):
            return all(head_is_set_free(branch.head) for branch in nf)
        return head_is_set_free(nf.head)

    def add_view(self, name, query, pinned=False):
        """Register and materialize a view over the base database.

        Pinned views survive LRU eviction (catalog staples); unpinned
        ones compete with admitted queries for the *max_views* budget.
        """
        ast = self._parse(query)
        nf = self._query_nf(ast)
        value = evaluate_coql(ast, self._database)
        self._register(MaterializedView(name, ast, nf, value, pinned))
        return name

    def _register(self, view):
        if view.name in self._views:
            self.evict(view.name)
        self._views[view.name] = view
        self._views.move_to_end(view.name)
        self._by_nf.setdefault(view.nf, view.name)
        self._catalog.add(view.name, view.ast)
        self._shrink()

    def evict(self, name):
        """Drop one view from every structure; True when present."""
        view = self._views.pop(name, None)
        if view is None:
            return False
        if self._by_nf.get(view.nf) == name:
            del self._by_nf[view.nf]
            # A surviving duplicate (same normal form under another
            # name) inherits the NF-identity fast path.
            for other, candidate in self._views.items():
                if candidate.nf == view.nf:
                    self._by_nf[view.nf] = other
                    break
        self._catalog.remove(name)
        self.counters["evicted"] += 1
        return True

    def _shrink(self):
        if self._max_views is None:
            return
        while len(self._views) > max(self._max_views, 0):
            for name in self._views:  # oldest unpinned first
                if not self._views[name].pinned:
                    self.evict(name)
                    break
            else:
                return  # everything pinned: nothing evictable

    def _touch(self, name):
        self._views.move_to_end(name)
        return self._views[name]

    # -- the lookup path -----------------------------------------------

    def classify(self, query):
        """``{view name: label}`` for *query* over the current catalog."""
        return self._catalog.classify(
            self._parse(query), jobs=self._jobs, timeout_s=self._timeout_s,
        )

    def lookup(self, query):
        """Answer *query*, preferring the cache (see the module doc).

        :returns: a :class:`CacheAnswer`.
        """
        self.counters["lookups"] += 1
        ast = self._parse(query)
        nf = self._query_nf(ast)
        if isinstance(nf, NFEmpty):
            # The constant empty set: nothing to cache or admit.
            return CacheAnswer(CSet(), "exact", None, "equivalent")

        name = self._by_nf.get(nf)
        if name is not None and name in self._views:
            view = self._touch(name)
            self.counters["exact_hits"] += 1
            return CacheAnswer(view.value, "exact", name, "equivalent")

        labels = self.classify(ast) if self._views else {}
        prefetch = tuple(sorted(
            vname for vname, label in labels.items() if label == "contained"
        ))
        self.counters["prefetch_hints"] += len(prefetch)

        union_query = isinstance(nf, frozenset)
        for vname in self._serving_order(labels, self._views):
            view = self._views.get(vname)
            if view is None:
                continue
            label = labels.get(vname)
            if label == "equivalent" and self._set_free(nf):
                # Weak equivalence + set-free output forces equality
                # (for a union: every branch head must be set-free).
                self._touch(vname)
                self.counters["exact_hits"] += 1
                return CacheAnswer(view.value, "exact", vname, label,
                                   prefetch)
            if union_query or isinstance(view.nf, frozenset):
                # Union heads serve only through provably exact plans;
                # a residual filter over one branch would drop the rest.
                continue
            plan = residual_plan(nf, view.nf)
            if plan is not None:
                # The plan's preconditions prove Q ⊑ V syntactically,
                # so a view the engine could not compare (a narrower
                # head makes the pair incomparable, hence "irrelevant")
                # still serves soundly through the residual.
                self._touch(vname)
                self.counters["residual_hits"] += 1
                if label not in ("equivalent", "subsuming"):
                    label = "subsuming"
                return CacheAnswer(plan.evaluate(view.value), "residual",
                                   vname, label, prefetch)

        value = evaluate_coql(ast, self._database)
        self.counters["misses"] += 1
        admitted = self._admit(ast, nf, value)
        return CacheAnswer(value, "miss", admitted, None, prefetch)

    @staticmethod
    def _serving_order(labels, views):
        """Equivalent views first, then subsuming, then the rest (a
        shape-incomparable view can still carry a syntactic residual
        plan); sorted for determinism within each class."""
        equivalent = sorted(n for n, l in labels.items() if l == "equivalent")
        subsuming = sorted(n for n, l in labels.items() if l == "subsuming")
        ranked = set(equivalent) | set(subsuming)
        rest = sorted(n for n in views if n not in ranked)
        return equivalent + subsuming + rest

    def _admit(self, ast, nf, value):
        if not self._max_views:
            return None
        name = "~q%d" % self._admitted_count
        self._admitted_count += 1
        self._register(MaterializedView(name, ast, nf, value, pinned=False))
        self.counters["admitted"] += 1
        return name

    # -- maintenance ----------------------------------------------------

    def minimize(self):
        """Prune mutually redundant views via
        :class:`repro.semcache.minimize.CatalogMinimizer`; evicted
        views' materializations are dropped (their kept equivalent
        keeps serving through the sound plans).

        :returns: the minimizer's report.
        """
        from repro.semcache.minimize import CatalogMinimizer

        report = CatalogMinimizer(self._catalog).plan(
            jobs=self._jobs, timeout_s=self._timeout_s
        )
        for name in report.removed:
            self.evict(name)
        return report

    def hit_rate(self):
        """Served-from-cache fraction of all lookups (None before any)."""
        lookups = self.counters["lookups"]
        if not lookups:
            return None
        hits = self.counters["exact_hits"] + self.counters["residual_hits"]
        return hits / lookups

    def __repr__(self):
        return "SemanticCache(views=%d, lookups=%d, hit_rate=%s)" % (
            len(self._views), self.counters["lookups"],
            "%.2f" % self.hit_rate() if self.counters["lookups"] else "-",
        )
