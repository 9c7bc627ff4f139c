"""Explanations for containment verdicts: witnesses and counterexamples.

``contains`` answers yes/no; this module answers *why*:

* for a **negative** verdict, :func:`explain_containment` searches the
  canonical database family of the failing obligation for a concrete
  counterexample database on which the Hoare domination fails, and
  returns it together with both evaluated answers (so the user can see
  the undominated element);
* for a **positive** verdict it returns the simulation certificates
  (one per truncation obligation) — the paper's extended containment
  mappings, made inspectable.

The counterexample search is complete relative to the procedure: a
failing simulation obligation fails semantically on some member of the
canonical family (that is the completeness direction of the certificate
construction), except for elements whose inner sets are empty, where the
canonical family is augmented with its sub-databases.
"""

from repro.errors import IncomparableQueriesError
from repro.objects.values import CSet
from repro.objects.order import dominated
from repro.coql.containment import prepare, _obligation_patterns, as_schema
from repro.coql.encode import paired_encoding, reconstruct_value, shapes_compatible
from repro.grouping.simulation import simulation_certificate
from repro.grouping.bruteforce import canonical_databases
from repro.grouping.semantics import node_groups

__all__ = ["explain_containment", "ContainmentExplanation"]


class ContainmentExplanation:
    """The result of :func:`explain_containment`.

    Attributes:
        holds: the containment verdict.
        certificates: ``{pattern: SimulationCertificate}`` for positive
            verdicts (one per truncation obligation).
        failing_pattern: the truncation obligation that failed (negative
            verdicts).
        counterexample: a :class:`Database` on which domination fails,
            or None when the canonical search found none (the verdict is
            still negative — the refuting database can require the
            truncation semantics the canonical family approximates).
        sub_answer / sup_answer: both answers on the counterexample.
    """

    __slots__ = (
        "holds",
        "certificates",
        "failing_pattern",
        "counterexample",
        "sub_answer",
        "sup_answer",
    )

    def __init__(self, holds, certificates=None, failing_pattern=None,
                 counterexample=None, sub_answer=None, sup_answer=None):
        self.holds = holds
        self.certificates = certificates or {}
        self.failing_pattern = failing_pattern
        self.counterexample = counterexample
        self.sub_answer = sub_answer
        self.sup_answer = sup_answer

    def __repr__(self):
        if self.holds:
            return "ContainmentExplanation(holds=True, obligations=%d)" % len(
                self.certificates
            )
        return (
            "ContainmentExplanation(holds=False, failing_pattern=%r, "
            "counterexample=%s)"
            % (
                sorted(self.failing_pattern or ()),
                "found" if self.counterexample is not None else "not-found",
            )
        )


def explain_containment(sup, sub, schema):
    """Like ``coql.contains(sup, sub, schema)`` but with evidence.

    :returns: a :class:`ContainmentExplanation`.
    """
    schema = as_schema(schema)
    sub_encoded = prepare(sub, schema, "sub")
    sup_encoded = prepare(sup, schema, "sup")
    if not sub_encoded.is_empty and not sup_encoded.is_empty:
        if not shapes_compatible(sub_encoded.shape, sup_encoded.shape):
            raise IncomparableQueriesError(
                "queries have different output shapes"
            )
    sub_query, sup_query, verdict = paired_encoding(sub_encoded, sup_encoded)
    if verdict is not None:
        return ContainmentExplanation(holds=verdict)
    _schema = schema

    certificates = {}
    for pattern in _obligation_patterns(sub_query):
        sub_t = sub_query.truncate(pattern)
        sup_t = sup_query.truncate(pattern)
        certificate = simulation_certificate(sub_t, sup_t)
        if certificate is not None:
            certificates[pattern] = certificate
            continue
        counterexample, sub_ans, sup_ans = _find_counterexample(
            sub_encoded, sup_encoded, sub_t, sup_t, _schema
        )
        return ContainmentExplanation(
            holds=False,
            failing_pattern=pattern,
            counterexample=counterexample,
            sub_answer=sub_ans,
            sup_answer=sup_ans,
        )
    return ContainmentExplanation(holds=True, certificates=certificates)


def _find_counterexample(sub_encoded, sup_encoded, sub_t, sup_t, schema):
    """Search the canonical family of the failing obligation (and its
    sub-databases) for a database where domination fails."""
    for __, database in canonical_databases(sub_t, sup_t):
        named = _rename_to_schema(database, schema)
        for candidate in _with_subdatabases(named):
            sub_ans = _answer(sub_encoded, candidate)
            sup_ans = _answer(sup_encoded, candidate)
            if not dominated(sub_ans, sup_ans):
                return candidate, sub_ans, sup_ans
    return None, None, None


def _rename_to_schema(database, schema):
    """Rename canonical positional columns to the schema's attribute
    names (sorted order on both sides, matching the encoding), so the
    counterexample is directly usable with the COQL interpreter."""
    from repro.objects.database import Database, Relation
    from repro.objects.values import Record

    relations = []
    for name in database.names():
        rel = database[name]
        if name not in schema:
            relations.append(rel)
            continue
        attrs = schema[name].keys()
        cols = rel.attributes()
        if len(cols) != len(attrs):
            relations.append(rel)
            continue
        mapping = dict(zip(cols, attrs))
        rows = [
            Record({mapping[c]: row[c] for c in cols}) for row in rel
        ]
        relations.append(Relation(name, CSet(rows)))
    # Complete the database: schema relations absent from the canonical
    # database are empty (the interpreter needs them to exist).
    present = {rel.name for rel in relations}
    for name, row_type in schema.items():
        if name not in present:
            relations.append(Relation(name, CSet(), row_type))
    return Database(relations)


def _with_subdatabases(database):
    """The database itself plus its single-relation-restricted variants
    (cheap witnesses for the truncated obligations: removing a child
    relation empties the corresponding groups)."""
    from repro.objects.database import Database, Relation

    yield database
    names = database.names()
    for dropped in names:
        relations = []
        for name in names:
            rel = database[name]
            if name == dropped:
                relations.append(Relation(name, CSet(), rel.row_type))
            else:
                relations.append(rel)
        yield Database(relations)


def _answer(encoded, database):
    groups = node_groups(encoded.query, database)
    return reconstruct_value(encoded, groups)
