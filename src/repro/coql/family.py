"""Query families: distributing COQL union bodies to the top.

The decision procedure works on *union-free* grouping-query trees, so a
COQL query with ``union`` bodies is first rewritten into a **family of
union-free branches** whose union it equals.  Containment then reduces
to the Sagiv–Yannakakis condition over the family (see
:mod:`repro.cq.unions` for the flat baseline): ``⋃ᵢ Qᵢ ⊑ ⋃ⱼ Q'ⱼ`` holds
whenever every branch ``Qᵢ`` is contained in *some* branch ``Q'ⱼ``.
For the Hoare order this all/any reduction is always *sound* (each
``Q'ⱼ`` is dominated by the union); for flat single-level unions it is
also complete [36] — completeness for the nested case is not claimed
(DESIGN.md §7).

Union distributes out of exactly the *linear* positions — those where
the surrounding context is a homomorphism of sets:

* the top level: ``a union b`` is already a family;
* ``flatten``: ``flatten(a union b) = flatten(a) union flatten(b)``;
* generator sources: ``select h from x in (a union b), …`` is the union
  over the branch choices (one branch combination per family member,
  the cross product when several generators carry unions) — sets are
  duplicate-free, so the rewrite is exact.

A union anywhere else (a select head, a singleton, a record field, a
condition side) changes *element-level* values, not the outer set, and
cannot be distributed; :func:`union_branches` raises a spanned
:class:`UnsupportedQueryError` for those rather than risking a wrong
verdict.
"""

import itertools

from repro.errors import UnsupportedQueryError
from repro.coql.ast import (
    Flatten,
    Select,
    UnionBody,
)

__all__ = ["QueryFamily", "union_branches", "family_of", "contains_union"]


def contains_union(expr):
    """True when *expr* mentions a ``union`` anywhere."""
    if isinstance(expr, UnionBody):
        return True
    return any(contains_union(child) for child in expr.children())


def _reject_nonlinear(expr, where):
    """Raise (spanned) on the first union in a non-distributable spot."""
    if isinstance(expr, UnionBody):
        raise UnsupportedQueryError(
            "union in a %s is not distributable: it changes element-level "
            "set values, not the outer union of branches; only top-level "
            "unions, flatten arguments, and generator sources are "
            "supported" % where,
            span=expr.span,
        )
    for child in expr.children():
        _reject_nonlinear(child, where)


#: The ``_family`` memo of a union-free query.  Storing ``(expr,)``
#: instead would make the AST reference itself, so every dropped query
#: would wait for the cyclic collector.
_UNION_FREE = object()


def union_branches(expr):
    """The union-free branches whose union equals *expr*, in
    deterministic (source) order, duplicates removed first-wins.

    Union-free queries expand to the one-element family ``(expr,)`` —
    the same object, so the singleton path through the engine prepares
    and caches exactly what it did before families existed.  A single
    branch skips the duplicate filter, whose set would hash the whole
    tree.

    The result is memoized in the AST's ``_family`` slot, so asking
    again never re-walks the tree; an expansion that raises memoizes
    nothing and raises afresh on every call.
    """
    family = getattr(expr, "_family", None)
    if family is None:
        family = _family(expr)
        # Racing threads store equal families: the expansion is a pure
        # function of the immutable tree.
        object.__setattr__(expr, "_family", family)
    if family is _UNION_FREE:
        return (expr,)
    return family


def _family(expr):
    branches = _expand(expr)
    if len(branches) == 1:
        # Only a union makes new nodes, so a lone branch is expr itself.
        return _UNION_FREE
    seen = set()
    out = []
    for branch in branches:
        if branch in seen:
            continue
        seen.add(branch)
        out.append(branch)
    return tuple(out)


def _expand(expr):
    if isinstance(expr, UnionBody):
        out = []
        for branch in expr.branches:
            out.extend(_expand(branch))
        return out
    if isinstance(expr, Flatten):
        inner = _expand(expr.expr)
        if len(inner) == 1 and inner[0] is expr.expr:
            return [expr]
        return [Flatten(branch).with_span(expr.span) for branch in inner]
    if isinstance(expr, Select):
        _reject_nonlinear(expr.head, "select head")
        for left, right in expr.conditions:
            _reject_nonlinear(left, "condition")
            _reject_nonlinear(right, "condition")
        alternatives = []
        changed = False
        for var, source in expr.generators:
            choices = _expand(source)
            if len(choices) != 1 or choices[0] is not source:
                changed = True
            alternatives.append([(var, choice) for choice in choices])
        if not changed:
            return [expr]
        return [
            Select(expr.head, combination, expr.conditions).with_span(
                expr.span
            )
            for combination in itertools.product(*alternatives)
        ]
    # Leaves and element-level constructors: any union below here is
    # non-distributable.
    for child in expr.children():
        _reject_nonlinear(child, "nested value position")
    return [expr]


class QueryFamily:
    """One COQL query as a family of union-free branch ASTs.

    Attributes:
        source: the original :class:`~repro.coql.ast.Expr`.
        branches: the union-free branches, in deterministic expansion
            order (the branch-decision order of the engines — sequential
            and parallel agree because both read this tuple).
    """

    __slots__ = ("source", "branches")

    def __init__(self, source, branches):
        self.source = source
        self.branches = tuple(branches)

    @property
    def is_singleton(self):
        return len(self.branches) == 1

    def __len__(self):
        return len(self.branches)

    def __iter__(self):
        return iter(self.branches)

    def __repr__(self):
        return "QueryFamily(%d branch(es))" % len(self.branches)


def family_of(expr):
    """The :class:`QueryFamily` of *expr* (singleton when union-free)."""
    return QueryFamily(expr, union_branches(expr))
