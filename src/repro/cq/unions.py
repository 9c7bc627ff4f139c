"""Unions of conjunctive queries (the Sagiv–Yannakakis baseline [36]).

The paper's related-work baseline for flat relational expressions with
union: ``⋃ᵢ Qᵢ ⊑ ⋃ⱼ Q'ⱼ`` iff every disjunct ``Qᵢ`` is contained in
*some* disjunct ``Q'ⱼ`` — so containment and equivalence of unions of
conjunctive queries reduce to quadratically many classical tests.

COQL deliberately drops union from *element positions* (else set
difference becomes expressible [7]); top-level ``union`` bodies are the
COQL counterpart of this module, decided by the same reduction at the
engine level (:meth:`repro.engine.ContainmentEngine.contains` over
:mod:`repro.coql.family` families).

The per-disjunct tests route through
:meth:`repro.engine.ContainmentEngine.cq_contains`: same verdicts as
the legacy :func:`repro.cq.containment.contains`, but with
:class:`SearchCounters` instrumentation and memoized under the
``branch_verdict`` artifact kind.
"""

from repro.errors import (
    ReproError,
    IncomparableQueriesError,
    union_arity_mismatch,
)
from repro.cq.query import ConjunctiveQuery
from repro.cq.evaluate import evaluate

__all__ = ["UnionQuery", "union_contains", "union_equivalent"]


def _engine_or_default(engine):
    if engine is not None:
        return engine
    from repro.engine import default_engine

    return default_engine()


class UnionQuery:
    """A finite union of conjunctive queries with equal head arity."""

    __slots__ = ("disjuncts", "name")

    def __init__(self, disjuncts, name="u"):
        disjuncts = tuple(disjuncts)
        if not disjuncts:
            raise ReproError("a union query needs at least one disjunct")
        arities = {len(q.head) for q in disjuncts}
        if len(arities) != 1:
            raise IncomparableQueriesError(union_arity_mismatch(arities))
        for q in disjuncts:
            if not isinstance(q, ConjunctiveQuery):
                raise ReproError("disjuncts must be conjunctive queries")
        object.__setattr__(self, "disjuncts", disjuncts)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("UnionQuery is immutable")

    @property
    def arity(self):
        return len(self.disjuncts[0].head)

    def evaluate(self, database):
        """The union of the disjuncts' answers."""
        answer = frozenset()
        for disjunct in self.disjuncts:
            answer |= evaluate(disjunct, database)
        return answer

    def minimize(self, engine=None):
        """Drop disjuncts contained in other disjuncts.

        :param engine: the :class:`repro.engine.ContainmentEngine` to
            decide the pairwise tests on (default: the process-wide
            default engine), so repeated minimization shares its
            ``branch_verdict`` memo table.
        """
        engine = _engine_or_default(engine)
        kept = list(self.disjuncts)
        changed = True
        while changed:
            changed = False
            for i, candidate in enumerate(kept):
                rest = kept[:i] + kept[i + 1:]
                if rest and any(
                    engine.cq_contains(other, candidate)
                    for other in rest
                ):
                    kept = rest
                    changed = True
                    break
        return UnionQuery(kept, self.name)

    def __repr__(self):
        return "UnionQuery(%s; %d disjuncts)" % (self.name, len(self.disjuncts))


def union_contains(sup, sub, engine=None):
    """``sub ⊑ sup`` for union queries (Sagiv–Yannakakis).

    Each disjunct of *sub* must be contained in some disjunct of *sup*.
    Disjunct pairs are visited in declaration order with the inner
    ``any`` short-circuiting, and each pair is decided through
    :meth:`~repro.engine.ContainmentEngine.cq_contains` (see module
    docstring), so verdicts are deterministic and memoized.
    """
    sub = _as_union(sub)
    sup = _as_union(sup)
    if sub.arity != sup.arity:
        raise IncomparableQueriesError(
            union_arity_mismatch((sub.arity, sup.arity))
        )
    engine = _engine_or_default(engine)
    return all(
        any(
            engine.cq_contains(candidate, disjunct)
            for candidate in sup.disjuncts
        )
        for disjunct in sub.disjuncts
    )


def union_equivalent(first, second, engine=None):
    """Equivalence of union queries (containment both ways)."""
    return union_contains(first, second, engine=engine) and union_contains(
        second, first, engine=engine
    )


def _as_union(query):
    if isinstance(query, UnionQuery):
        return query
    if isinstance(query, ConjunctiveQuery):
        return UnionQuery((query,))
    from repro.grouping.query import GroupingQuery

    if isinstance(query, GroupingQuery):
        raise ReproError(
            "grouping queries are not flat unions; decide COQL-level "
            "unions with repro.engine.ContainmentEngine.contains (or "
            "repro.coql.family for the branch expansion)"
        )
    raise ReproError("not a (union of) conjunctive queries: %r" % (query,))
