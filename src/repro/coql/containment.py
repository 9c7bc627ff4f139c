"""Containment and equivalence of COQL queries (Theorems 4.1 and 4.2).

Containment ``Q ⊑ Q'`` is the Hoare order on answers, on every database:
``Q(D) ⊑ Q'(D)`` where ``S ⊑ S' iff ∀x∈S ∃y∈S'. x ⊑ y`` recursively.

The decision procedure (Section 5):

1. normalize both queries and encode them as grouping-query trees;
2. an element whose inner set is empty is dominated by any element with
   a matching atomic part, so each *truncation pattern* (a prefix-closed
   pruning of the subquery's set nodes) yields one simulation
   obligation: ``sub.truncate(P) ⊴ sup.truncate(P)``;
3. containment holds iff every obligation does.  Patterns that prune a
   *provably non-empty* component are implied by larger patterns and are
   skipped — for queries that provably produce no empty sets only the
   unpruned obligation remains, which is the paper's observation that
   the exponential component disappears in that case.

``weak equivalence`` is containment both ways; by the paper's theorem it
coincides with equivalence whenever both queries are empty-set free,
which is what :func:`equivalent` decides (the general equivalence
question is the open problem the paper answers only partially).

The module-level entry points delegate to the process-wide
:class:`repro.engine.ContainmentEngine` (see :mod:`repro.engine`), which
memoizes prepared queries and simulation verdicts; the uncached
reference pipeline (:func:`prepare`, :func:`_contains_encoded`) is kept
here both as the specification the engine must agree with and for
callers that need a cold path.
"""

import functools
import itertools

from repro.errors import IncomparableQueriesError
from repro.objects.types import RecordType, ATOM
from repro.cq.homomorphism import find_homomorphism, ground_atoms_of_query
from repro.cq.query import frozen_constant, ConjunctiveQuery
from repro.grouping.simulation import is_simulated
from repro.coql.encode import paired_encoding, shapes_compatible

__all__ = [
    "contains",
    "weakly_equivalent",
    "equivalent",
    "empty_set_free",
    "prepare",
    "as_schema",
]


def as_schema(schema):
    """Normalize schema specs: ``{name: RecordType}`` or ``{name:
    iterable of attribute names}`` (attributes then atomic) or a
    Database (its schema is used).

    Returns a fresh dict on every call, but the atomic ``RecordType``
    built for an attribute tuple is shared process-wide, so every key
    derived over the schema reuses that type's memoized digest.
    """
    from repro.objects.database import Database

    if isinstance(schema, Database):
        return schema.schema()
    out = {}
    for name, spec in schema.items():
        if isinstance(spec, RecordType):
            out[name] = spec
        else:
            out[name] = _atomic_record_type(tuple(spec))
    return out


@functools.lru_cache(maxsize=1024)
def _atomic_record_type(attrs):
    """The record type with atomic attributes *attrs*, built once per
    distinct tuple (bounded: schemas are few, and an evicted type is
    merely rebuilt)."""
    return RecordType({attr: ATOM for attr in attrs})


def prepare(query, schema, name="q"):
    """Parse (if textual), type-check, normalize, and encode a query.

    The *uncached reference run* of the staged pipeline: one
    :class:`repro.pipeline.Pipeline` invocation with no artifact store,
    so every stage recomputes.  The engine's memoized ``prepare`` drives
    the very same stage code over a store — there is exactly one
    implementation of the front half, and it lives in
    :mod:`repro.pipeline.stages`.
    """
    from repro.pipeline.stages import Pipeline

    return Pipeline(store=None).prepare(query, schema, name)


def contains(sup, sub, schema):
    """True iff ``sub ⊑ sup`` on every database (Theorem 4.1).

    :param sup: the containing query (text or :class:`Expr`).
    :param sub: the contained query.
    :param schema: flat input schema (``{name: attrs}``/RecordTypes/DB).
    """
    from repro.engine import default_engine

    return default_engine().contains(sup, sub, schema)


def _contains_encoded(sup_encoded, sub_encoded):
    if not sub_encoded.is_empty and not sup_encoded.is_empty:
        if not shapes_compatible(sub_encoded.shape, sup_encoded.shape):
            raise IncomparableQueriesError(
                "queries have different output shapes: %r vs %r"
                % (sub_encoded.shape, sup_encoded.shape)
            )
    sub_query, sup_query, verdict = paired_encoding(sub_encoded, sup_encoded)
    if verdict is not None:
        return verdict
    if sub_query is None:
        raise IncomparableQueriesError(
            "queries have incompatible nested structure"
        )
    # After paired_encoding the two queries have identical path sets, so
    # patterns derived from sub_query are valid truncations of sup_query
    # as well; GroupingQuery.truncate rejects any pattern that is not.
    for pattern in _obligation_patterns(sub_query):
        sub_t = sub_query.truncate(pattern)
        sup_t = sup_query.truncate(pattern)
        if not is_simulated(sub_t, sup_t):
            return False
    return True


def _obligation_patterns(query, is_nonempty=None):
    """Yield the truncation patterns whose simulation obligations are not
    implied by a larger pattern.

    A pattern may prune a set node only when the node is *not* provably
    non-empty (pruning a provably non-empty node is implied by keeping
    it).  Patterns are prefix-closed path sets containing the root.

    :param is_nonempty: optional ``(query, path) -> bool`` replacing
        :func:`_provably_nonempty` (the engine injects its memoized
        version here).
    """
    if is_nonempty is None:
        is_nonempty = _provably_nonempty
    paths = [p for p in query.paths() if p]
    optional = [p for p in paths if not is_nonempty(query, p)]
    all_paths = set(query.paths())
    seen = set()
    for pruned in _subsets(optional):
        pruned_closure = {
            p for p in all_paths if any(p[: len(q)] == q for q in pruned)
        }
        kept = frozenset(all_paths - pruned_closure)
        if kept in seen:
            continue
        seen.add(kept)
        yield kept


def _subsets(items):
    for size in range(len(items) + 1):
        yield from itertools.combinations(items, size)


def _provably_nonempty(query, path):
    """True when the group at *path* is non-empty for every parent row.

    Sufficient syntactic test: a homomorphism from the node's full body
    into the parent's full body that fixes every parent variable — then
    any parent assignment extends to a child assignment.
    """
    parent_body = query.full_body(path[:-1])
    child_body = query.full_body(path)
    parent_vars = {v for atom in parent_body for v in atom.variables()}
    carrier = ConjunctiveQuery((), parent_body, "parent")
    target = ground_atoms_of_query(carrier)
    fixed = {v: frozen_constant(v) for v in parent_vars}
    return find_homomorphism(child_body, target, fixed=fixed) is not None


def weakly_equivalent(q1, q2, schema):
    """True iff ``Q1 ⊑ Q2`` and ``Q2 ⊑ Q1`` (decidable in general)."""
    from repro.engine import default_engine

    return default_engine().weakly_equivalent(q1, q2, schema)


def empty_set_free(query, schema):
    """True when the query provably never produces an empty set.

    Sufficient syntactic condition: no always-empty components, and every
    nested set node is provably non-empty for each parent row.  A union
    query qualifies when every branch of its family does.
    """
    from repro.engine import default_engine

    return default_engine().empty_set_free(query, schema)


def equivalent(q1, q2, schema):
    """Decide equivalence for empty-set-free queries.

    By the paper's theorem, weak equivalence coincides with equivalence
    when both queries are guaranteed not to produce empty sets (e.g. all
    ``nest``/``unnest`` pipelines).  For queries without that guarantee
    the general equivalence question is the open problem the paper
    answers only partially, and this function raises
    :class:`UnsupportedQueryError` — use :func:`weakly_equivalent`.
    A union is decided only when every branch on both sides is flat.
    """
    from repro.engine import default_engine

    return default_engine().equivalent(q1, q2, schema)
