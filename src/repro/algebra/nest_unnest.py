"""Equivalence of nest/unnest sequences — the question of [24].

Gyssens, Paredaens and Van Gucht ask whether equivalence of two
sequences of ``nest``/``unnest`` operations is decidable.  The paper
answers: **NP-complete**, provided every ``nest`` is governed by atomic
attributes (footnote 3), because such pipelines are COQL queries that
never produce empty sets — where weak equivalence (decidable) coincides
with equivalence.

:class:`Pipeline` models a sequence applied to one base relation;
:func:`pipelines_equivalent` is the decision procedure (translate to
COQL, check empty-set freedom, decide via simulation both ways).
"""

from repro.errors import ReproError, UnsupportedQueryError
from repro.algebra.expr import BaseRel, Nest, Unnest, evaluate_algebra, infer_algebra_type
from repro.algebra.to_coql import algebra_to_coql
from repro.coql.containment import (
    weakly_equivalent,
    empty_set_free,
    contains as coql_contains,
    as_schema,
)

__all__ = ["Pipeline", "pipelines_equivalent", "pipeline_contained"]


class Pipeline:
    """A sequence of nest/unnest steps over a base relation.

    >>> p = Pipeline("r", [("nest", ("b",), "grp"), ("unnest", "grp")])
    """

    __slots__ = ("base", "steps")

    def __init__(self, base, steps):
        checked = []
        for step in steps:
            if step[0] == "nest":
                __, attrs, label = step
                checked.append(("nest", tuple(attrs), label))
            elif step[0] == "unnest":
                __, label = step
                checked.append(("unnest", label))
            else:
                raise ReproError("unknown pipeline step %r" % (step,))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "steps", tuple(checked))

    def __setattr__(self, name, value):
        raise AttributeError("Pipeline is immutable")

    def to_algebra(self):
        expr = BaseRel(self.base)
        for step in self.steps:
            if step[0] == "nest":
                expr = Nest(expr, step[1], step[2])
            else:
                expr = Unnest(expr, step[1])
        return expr

    def to_coql(self, schema):
        return algebra_to_coql(self.to_algebra(), as_schema(schema))

    def output_type(self, schema):
        return infer_algebra_type(self.to_algebra(), as_schema(schema))

    def evaluate(self, database):
        return evaluate_algebra(self.to_algebra(), database)

    def __repr__(self):
        return "Pipeline(%s; %s)" % (
            self.base,
            "; ".join(
                "ν[%s→%s]" % (",".join(s[1]), s[2])
                if s[0] == "nest"
                else "μ[%s]" % s[1]
                for s in self.steps
            ),
        )


def pipelines_equivalent(first, second, schema):
    """Decide equivalence of two nest/unnest pipelines (NP-complete).

    Raises :class:`UnsupportedQueryError` when a pipeline falls outside
    the atomic-nesting fragment, mirroring the paper's partial answer.
    """
    resolved = as_schema(schema)
    q1 = first.to_coql(resolved)
    q2 = second.to_coql(resolved)
    for query, pipe in ((q1, first), (q2, second)):
        if not empty_set_free(query, resolved):
            raise UnsupportedQueryError(
                "pipeline %r is not provably empty-set-free; equivalence "
                "falls back to the open general case" % (pipe,)
            )
    # Empty-set-free: equivalence coincides with weak equivalence.
    return weakly_equivalent(q1, q2, resolved)


def pipeline_contained(sup, sub, schema):
    """Decide ``sub ⊑ sup`` (Hoare order) for two pipelines."""
    resolved = as_schema(schema)
    return coql_contains(
        sup.to_coql(resolved), sub.to_coql(resolved), resolved
    )
