"""Conjunctive queries over flat relations.

A :class:`ConjunctiveQuery` is ``q(t̄) :- a1, ..., am`` with head terms
``t̄`` (variables or constants) and body atoms ``ai``.  Queries are safe:
every head variable must occur in the body.

:func:`freeze` builds the canonical database of a query (each variable
frozen to a fresh atomic value), the basic tool of the Chandra–Merlin
containment test [11].
"""

from repro.errors import ReproError, SchemaError
from repro.cq.terms import Var, Const, Atom, is_var
from repro.pickling import PicklableSlots

__all__ = ["ConjunctiveQuery", "freeze", "frozen_constant", "is_frozen_constant"]

#: Prefix marking frozen-variable constants in canonical databases; chosen
#: so it cannot collide with ordinary constants used in queries (queries
#: written via the parser cannot produce strings with this prefix).
_FROZEN_PREFIX = "⟨"  # "⟨"
_FROZEN_SUFFIX = "⟩"  # "⟩"


def frozen_constant(var, tag=""):
    """The atomic value a variable freezes to in a canonical database."""
    return "%s%s%s%s" % (_FROZEN_PREFIX, var.name, tag, _FROZEN_SUFFIX)


def is_frozen_constant(value):
    """True when *value* is a frozen-variable constant."""
    return (
        isinstance(value, str)
        and value.startswith(_FROZEN_PREFIX)
        and value.endswith(_FROZEN_SUFFIX)
    )


class ConjunctiveQuery(PicklableSlots):
    """``q(t̄) :- body``.

    >>> from repro.cq.parser import parse_query
    >>> q = parse_query("q(X) :- r(X, Y)")
    >>> q.head
    (X,)
    """

    __slots__ = ("name", "head", "body", "_hash", "_digest")

    def __init__(self, head, body, name="q"):
        head = tuple(head)
        body = tuple(body)
        for term in head:
            if not isinstance(term, (Var, Const)):
                raise ReproError("head terms must be terms, got %r" % (term,))
        for atom in body:
            if not isinstance(atom, Atom):
                raise ReproError("body members must be atoms, got %r" % (atom,))
        body_vars = {v for atom in body for v in atom.variables()}
        for term in head:
            if is_var(term) and term not in body_vars:
                raise ReproError(
                    "unsafe query: head variable %r not in body" % (term,)
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash(self._hash_key()))

    def __setattr__(self, name, value):
        raise AttributeError("ConjunctiveQuery is immutable")

    def _hash_key(self):
        return (self.name, self.head, self.body)

    def variables(self):
        """All variables of the query (head + body), sorted by name."""
        seen = {v for atom in self.body for v in atom.variables()}
        seen.update(t for t in self.head if is_var(t))
        return tuple(sorted(seen))

    def head_vars(self):
        """The head variables, in head order, without duplicates."""
        out = []
        for term in self.head:
            if is_var(term) and term not in out:
                out.append(term)
        return tuple(out)

    def existential_vars(self):
        """Body variables that do not occur in the head."""
        head = set(self.head_vars())
        return tuple(v for v in self.variables() if v not in head)

    def predicates(self):
        """(pred, arity) pairs used in the body, sorted."""
        return tuple(sorted({(a.pred, a.arity) for a in self.body}))

    def rename_apart(self, suffix):
        """Return a copy with every variable renamed ``X -> X<suffix>``."""
        mapping = {v: Var(v.name + suffix) for v in self.variables()}
        return self.substitute(mapping)

    def substitute(self, mapping):
        """Apply a {Var: term} mapping to head and body."""
        from repro.cq.terms import substitute_term

        head = tuple(substitute_term(t, mapping) for t in self.head)
        body = tuple(atom.substitute(mapping) for atom in self.body)
        return ConjunctiveQuery(head, body, self.name)

    def with_head(self, head):
        """Return a copy with a different head."""
        return ConjunctiveQuery(head, self.body, self.name)

    def with_body(self, body):
        """Return a copy with a different body."""
        return ConjunctiveQuery(self.head, body, self.name)

    def __eq__(self, other):
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            self.name == other.name
            and self.head == other.head
            and self.body == other.body
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        head = ", ".join(repr(t) for t in self.head)
        body = ", ".join(repr(a) for a in self.body)
        return "%s(%s) :- %s" % (self.name, head, body or "true")


def freeze(query, tag=""):
    """Build the canonical database of *query*.

    Every variable is replaced by the fresh constant
    :func:`frozen_constant(var, tag)`; the body atoms become the database
    facts.  Returns ``(database, frozen_head)`` where *frozen_head* is the
    tuple of head values under the freezing.

    The optional *tag* keeps canonical databases of several query copies
    disjoint (used by the witness-copy constructions in
    ``repro.grouping``).
    """
    from repro.objects.database import Database, Relation
    from repro.objects.values import Record, CSet

    mapping = {v: Const(frozen_constant(v, tag)) for v in query.variables()}
    facts = {}
    arities = {}
    for atom in query.body:
        ground = atom.substitute(mapping)
        prev = arities.setdefault(ground.pred, ground.arity)
        if prev != ground.arity:
            raise SchemaError(
                "predicate %s used with arities %d and %d"
                % (ground.pred, prev, ground.arity)
            )
        facts.setdefault(ground.pred, set()).add(
            tuple(term.value for term in ground.args)
        )
    relations = []
    for pred, rows in facts.items():
        records = [
            Record({_col(i): v for i, v in enumerate(row)}) for row in rows
        ]
        relations.append(Relation(pred, CSet(records)))
    frozen_head = tuple(
        mapping[t].value if is_var(t) else t.value for t in query.head
    )
    return Database(relations), frozen_head


def _col(i):
    """Positional column name used for relations built from atoms.

    Zero-padded so that the sorted attribute order of the relation matches
    the positional order (up to 100 columns).
    """
    return "c%02d" % i


def positional_columns(arity):
    """Column names a relation built from an arity-*n* atom uses."""
    return tuple(_col(i) for i in range(arity))


def atoms_to_database(atoms):
    """Build a database from ground atoms (args must all be constants)."""
    from repro.objects.database import Database, Relation
    from repro.objects.values import Record, CSet

    facts = {}
    for atom in atoms:
        row = []
        for term in atom.args:
            if is_var(term):
                raise ReproError("atoms_to_database: non-ground atom %r" % (atom,))
            row.append(term.value)
        facts.setdefault(atom.pred, set()).add(tuple(row))
    relations = []
    for pred, rows in facts.items():
        records = [Record({_col(i): v for i, v in enumerate(r)}) for r in rows]
        relations.append(Relation(pred, CSet(records)))
    return Database(relations)
