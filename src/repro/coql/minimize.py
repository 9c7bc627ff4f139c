"""Minimization of COQL queries (redundant-subgoal elimination).

The paper's introduction motivates containment with exactly this: "query
containment can be used to find redundant subgoals in a query and to
test whether two formulations of a query are equivalent."  This module
lifts classical conjunctive-query minimization to COQL: drop a generator
(together with the conditions that mention only its variable) or drop a
condition, keep the result when it is *weakly equivalent* to the
original, repeat to a fixed point.

Weak equivalence is the right invariant here: it is the decidable notion
the paper provides in general, and for empty-set-free queries it
coincides with equivalence.
"""

from repro.errors import ReproError, UnsupportedQueryError, IncomparableQueriesError
from repro.coql.ast import Select, Expr
from repro.coql.parser import parse_coql
from repro.coql.containment import weakly_equivalent, as_schema

__all__ = ["minimize_coql"]


def minimize_coql(query, schema, engine=None):
    """Return a weakly equivalent query with redundant parts removed.

    Greedy fixpoint: repeatedly try to drop one generator or one
    condition of any ``Select`` (outer or nested); a candidate is kept
    when it parses, type-checks, and is weakly equivalent to the current
    query.  The result is not guaranteed to be a globally minimum core,
    but no single generator/condition of it is removable.

    :param query: COQL text or :class:`Expr`.
    :param engine: a :class:`repro.engine.ContainmentEngine` to decide
        the candidate equivalences on (default: the process-wide
        engine).  The fixpoint re-checks heavily overlapping queries, so
        a warm artifact store makes minimization incremental — the
        analyzer's COQL005 rule and :meth:`ContainmentEngine.minimize`
        pass their own engine for exactly this reason.
    :returns: the minimized :class:`Expr`.
    """
    schema = as_schema(schema)
    if isinstance(query, str):
        query = parse_coql(query)
    if not isinstance(query, Expr):
        raise ReproError("not a COQL query: %r" % (query,))

    current = query
    changed = True
    while changed:
        changed = False
        for candidate in _candidates(current):
            if _equivalent_safely(current, candidate, schema, engine):
                current = candidate
                changed = True
                break
    return current


def _equivalent_safely(original, candidate, schema, engine=None):
    decide = (
        engine.weakly_equivalent if engine is not None else weakly_equivalent
    )
    try:
        return decide(original, candidate, schema)
    except (UnsupportedQueryError, IncomparableQueriesError, ReproError):
        return False


def _candidates(expr):
    """Yield copies of *expr* with one generator or condition removed
    from some Select node (anywhere in the tree)."""
    yield from _rewrite(expr, _select_variants)


def _select_variants(select):
    # Drop one condition.
    for index in range(len(select.conditions)):
        conditions = (
            select.conditions[:index] + select.conditions[index + 1:]
        )
        yield Select(select.head, select.generators, conditions)
    # Drop one generator (only when its variable is unused elsewhere,
    # otherwise the candidate would not even type-check).
    for index in range(len(select.generators)):
        var, __ = select.generators[index]
        generators = (
            select.generators[:index] + select.generators[index + 1:]
        )
        if not generators:
            continue  # a Select needs at least one generator
        candidate = Select(select.head, generators, select.conditions)
        if var in candidate.free_vars():
            continue
        yield candidate


def _rewrite(expr, variants):
    """Yield copies of *expr* with one node replaced by a variant."""
    from repro.coql.ast import (
        Proj,
        RecordExpr,
        Singleton,
        Flatten,
        Select,
    )

    if isinstance(expr, Select):
        for variant in variants(expr):
            yield variant
        for i, (var, source) in enumerate(expr.generators):
            for replaced in _rewrite(source, variants):
                generators = (
                    expr.generators[:i]
                    + ((var, replaced),)
                    + expr.generators[i + 1:]
                )
                yield Select(expr.head, generators, expr.conditions)
        for replaced in _rewrite(expr.head, variants):
            yield Select(replaced, expr.generators, expr.conditions)
        return
    if isinstance(expr, Proj):
        for replaced in _rewrite(expr.expr, variants):
            yield Proj(replaced, expr.attr)
        return
    if isinstance(expr, RecordExpr):
        for name, component in expr.fields:
            for replaced in _rewrite(component, variants):
                fields = dict(expr.fields)
                fields[name] = replaced
                yield RecordExpr(fields)
        return
    if isinstance(expr, Singleton):
        for replaced in _rewrite(expr.expr, variants):
            yield Singleton(replaced)
        return
    if isinstance(expr, Flatten):
        for replaced in _rewrite(expr.expr, variants):
            yield Flatten(replaced)
        return
    # Leaves: no variants.
    return
