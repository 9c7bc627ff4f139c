"""The shared context one analysis run hands to every rule.

:class:`AnalysisContext` owns the parsed query, the normalized schema,
the :class:`repro.engine.ContainmentEngine` whose memo tables the rules
share (prepared encodings and provably-non-empty verdicts are decided
once per engine, no matter how many rules ask), and the
:class:`AnalysisConfig` knobs.

The encoding is computed lazily and at most once: rules that need the
grouping-tree view (COQL004, COQL007) call :meth:`AnalysisContext.encoded`,
which returns None when the query falls outside the encodable fragment
(the front-end failure is reported separately as ``COQL000``).
"""

from repro.coql.ast import Select, VarRef

__all__ = ["AnalysisConfig", "AnalysisContext", "walk_selects", "base_var"]


class AnalysisConfig:
    """Tunable knobs for one analysis run.

    :param complexity_budget: COQL007 warns when the estimated
        homomorphism search space of a containment check against a
        same-shaped query exceeds this many candidate assignments.
    :param expensive: run rules flagged expensive (COQL005, which calls
        the minimizer and therefore the containment oracle itself).  The
        engine's opt-in pre-check passes False so analysis stays a
        cheap companion to the check it precedes.
    :param stats: optional
        :class:`repro.analysis.interp.DatabaseStatistics` sampled from a
        witness database; sharpens the interpreter's cardinality
        intervals and enables COQL009's value-set refutations.
    :param constraints: tuple of
        :class:`repro.constraints.InclusionDependency` declarations the
        analyzed queries hold under; containment-backed rules (COQL005,
        COQL012) decide their oracle calls with the chase enabled.
    """

    __slots__ = ("complexity_budget", "expensive", "stats", "constraints")

    def __init__(self, complexity_budget=10**8, expensive=True, stats=None,
                 constraints=()):
        self.complexity_budget = complexity_budget
        self.expensive = expensive
        self.stats = stats
        self.constraints = tuple(constraints)

    def __repr__(self):
        return "AnalysisConfig(budget=%d, expensive=%s)" % (
            self.complexity_budget, self.expensive)


_UNSET = object()


class AnalysisContext:
    """Everything a query rule may consult.

    Attributes:
        query: the parsed :class:`repro.coql.ast.Expr`.
        schema: normalized ``{relation: RecordType}``.
        engine: the :class:`ContainmentEngine` sharing memo tables.
        config: the :class:`AnalysisConfig`.
        front_end_error: the :class:`ReproError` raised while encoding
            the query, when there was one (rules needing the encoding
            skip themselves; the analyzer reports it as COQL000).
    """

    def __init__(self, query, schema, engine, config):
        self.query = query
        self.schema = schema
        self.engine = engine
        self.config = config
        self.front_end_error = None
        self._encoded = _UNSET

    def encoded(self):
        """The query's :class:`EncodedQuery`, or None when unavailable.

        A union body has no single encoding — the engine decides it per
        branch — so for union queries this returns None *without* a
        front-end error as long as the union typechecks and every branch
        encodes.  Union shape mismatches are left to COQL013, which
        owns that wording; any other branch failure still surfaces as
        COQL000.
        """
        from repro.errors import ReproError, TypeCheckError

        if self._encoded is _UNSET:
            from repro.coql.family import contains_union, union_branches

            if contains_union(self.query):
                self._encoded = None
                try:
                    from repro.coql.typecheck import typecheck

                    typecheck(self.query, self.schema)
                    for branch in union_branches(self.query):
                        self.engine.prepare(branch, self.schema)
                except TypeCheckError as exc:
                    if not str(exc).startswith("union branch"):
                        self.front_end_error = exc
                except ReproError as exc:
                    self.front_end_error = exc
                return self._encoded
            try:
                self._encoded = self.engine.prepare(self.query, self.schema)
            except ReproError as exc:
                self.front_end_error = exc
                self._encoded = None
        return self._encoded

    def selects(self):
        """Every Select node: ``(select, ast_path, inherited_conditions)``.

        *inherited_conditions* are the ``where`` equalities of enclosing
        selects that still constrain this node — conditions mentioning a
        variable this select rebinds are dropped, so structural equality
        of variable references never conflates distinct bindings.
        """
        return tuple(walk_selects(self.query))


def walk_selects(expr, path="$", inherited=()):
    """Yield ``(select, path, inherited_conditions)`` in pre-order.

    Conditions are inherited down the *head* only: after normalization
    (generator unnesting) every surviving nested subquery lives in the
    head, and a head-nested subquery's group is computed per outer row,
    so the outer equalities genuinely constrain it.  Generator sources
    are walked with no inheritance — their sets exist before the outer
    ``where`` filters the joined rows.
    """
    if isinstance(expr, Select):
        rebound = {var for var, __ in expr.generators}
        kept = tuple(
            cond for cond in inherited
            if not (_names(cond[0]) | _names(cond[1])) & rebound
        )
        yield expr, path, kept
        for position, (__, source) in enumerate(expr.generators):
            sub_path = "%s.from[%d]" % (path, position)
            for found in walk_selects(source, sub_path, ()):
                yield found
        for position, (left, right) in enumerate(expr.conditions):
            sub_path = "%s.where[%d]" % (path, position)
            for side in (left, right):
                for found in walk_selects(side, sub_path, ()):
                    yield found
        head_inherited = kept + expr.conditions
        for found in walk_selects(expr.head, path + ".head", head_inherited):
            yield found
        return
    for position, child in enumerate(expr.children()):
        sub_path = "%s[%d]" % (path, position)
        for found in walk_selects(child, sub_path, inherited):
            yield found


def base_var(expr):
    """The variable name at the root of a projection chain, or None.

    ``x.a.b`` → ``"x"``; constants and relation-rooted paths → None.
    """
    from repro.coql.ast import Proj

    while isinstance(expr, Proj):
        expr = expr.expr
    if isinstance(expr, VarRef):
        return expr.name
    return None


def _names(expr):
    return set(expr.free_vars())
