"""Direct interpreter for COQL over (possibly nested) databases.

The reference semantics (following [7]): ``Select`` iterates generator
bindings left to right, filters with the atomic equalities, and collects
the head values into a set.  This interpreter is the ground truth the
decision procedures are validated against.
"""

from repro.errors import EvaluationError
from repro.objects.values import Record, CSet, is_atom
from repro.coql.ast import (
    Const,
    VarRef,
    RelRef,
    Proj,
    RecordExpr,
    Singleton,
    EmptySet,
    Flatten,
    Select,
    UnionBody,
)

__all__ = ["evaluate_coql"]


def evaluate_coql(expr, database, env=None):
    """Evaluate a COQL expression against *database*.

    :param env: optional ``{var name: value}`` for free variables.
    :returns: a complex-object value.
    """
    return _eval(expr, database, dict(env or {}))


def _eval(expr, database, env):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, VarRef):
        if expr.name not in env:
            raise EvaluationError("unbound variable %s" % expr.name)
        return env[expr.name]
    if isinstance(expr, RelRef):
        return database[expr.name].rows
    if isinstance(expr, Proj):
        record = _eval(expr.expr, database, env)
        if not isinstance(record, Record):
            raise EvaluationError(
                "projection .%s applied to non-record %r" % (expr.attr, record)
            )
        try:
            return record[expr.attr]
        except KeyError:
            raise EvaluationError("record %r has no attribute %s" % (record, expr.attr))
    if isinstance(expr, RecordExpr):
        return Record({k: _eval(e, database, env) for k, e in expr.fields})
    if isinstance(expr, Singleton):
        return CSet([_eval(expr.expr, database, env)])
    if isinstance(expr, EmptySet):
        return CSet()
    if isinstance(expr, Flatten):
        outer = _eval(expr.expr, database, env)
        if not isinstance(outer, CSet):
            raise EvaluationError("flatten applied to non-set %r" % (outer,))
        members = []
        for inner in outer:
            if not isinstance(inner, CSet):
                raise EvaluationError(
                    "flatten: element %r is not a set" % (inner,)
                )
            members.extend(inner)
        return CSet(members)
    if isinstance(expr, Select):
        return CSet(_select(expr, database, env))
    if isinstance(expr, UnionBody):
        members = []
        for branch in expr.branches:
            value = _eval(branch, database, env)
            if not isinstance(value, CSet):
                raise EvaluationError(
                    "union branch evaluated to non-set %r" % (value,)
                )
            members.extend(value)
        return CSet(members)
    raise EvaluationError("unknown COQL expression %r" % (expr,))


def _select(expr, database, env):
    out = []

    def loop(position, scope):
        if position == len(expr.generators):
            for left, right in expr.conditions:
                lv = _eval(left, database, scope)
                rv = _eval(right, database, scope)
                if not is_atom(lv) or not is_atom(rv):
                    raise EvaluationError(
                        "COQL conditions compare atomic values only, got "
                        "%r = %r" % (lv, rv)
                    )
                if lv != rv:
                    return
            out.append(_eval(expr.head, database, scope))
            return
        var, source = expr.generators[position]
        collection = _eval(source, database, scope)
        if not isinstance(collection, CSet):
            raise EvaluationError(
                "generator %s ranges over non-set %r" % (var, collection)
            )
        for member in collection:
            scope[var] = member
            loop(position + 1, scope)
        scope.pop(var, None)

    loop(0, dict(env))
    return out
