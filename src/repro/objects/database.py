"""Databases of named (possibly nested) relations.

A :class:`Database` maps relation names to :class:`Relation` values.  A
relation is a set of records; records may themselves contain sets, so
nested relations are supported throughout.  The decision procedures of
the paper assume *flat* input relations (Section 5.1 reduces the nested
case to the flat case via the index encoding in ``objects.encoding``);
:meth:`Database.is_flat` and :meth:`Database.require_flat` make that
assumption checkable.
"""

from repro.errors import SchemaError
from repro.pickling import PicklableSlots
from repro.objects.values import Record, CSet
from repro.objects.types import (
    AtomType,
    infer_type,
    join_types,
    conforms,
)

__all__ = ["Relation", "Database"]


class Relation(PicklableSlots):
    """A named set of records with a record schema.

    >>> r = Relation.from_rows("r", [{"a": 1, "b": 2}])
    >>> len(r)
    1
    """

    __slots__ = ("name", "rows", "row_type")

    def __init__(self, name, rows, row_type=None):
        if not isinstance(rows, CSet):
            rows = CSet(rows)
        for row in rows:
            if not isinstance(row, Record):
                raise SchemaError(
                    "relation %s: rows must be records, got %r" % (name, row)
                )
        if row_type is None:
            row_type = _infer_row_type(name, rows)
        else:
            for row in rows:
                if not conforms(row, row_type):
                    raise SchemaError(
                        "relation %s: row %r does not conform to %r"
                        % (name, row, row_type)
                    )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "row_type", row_type)

    def __setattr__(self, name, value):
        raise AttributeError("Relation is immutable")

    @classmethod
    def from_rows(cls, name, dict_rows, row_type=None):
        """Build a relation from an iterable of plain dicts."""
        return cls(name, CSet([_to_record(d) for d in dict_rows]), row_type)

    def attributes(self):
        """The attribute names of the row type, sorted."""
        return self.row_type.keys()

    def is_flat(self):
        """True when every attribute is atomic."""
        return all(
            isinstance(self.row_type[a], AtomType) for a in self.row_type.keys()
        )

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return self.name == other.name and self.rows == other.rows

    def __hash__(self):
        return hash((self.name, self.rows))

    def __repr__(self):
        return "Relation(%s, %d rows)" % (self.name, len(self.rows))


def _to_record(value):
    if isinstance(value, Record):
        return value
    if isinstance(value, dict):
        return Record({k: _convert(v) for k, v in value.items()})
    raise SchemaError("cannot convert %r to a record" % (value,))


def _convert(value):
    if isinstance(value, dict):
        return _to_record(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return CSet([_convert(v) for v in value])
    return value


def _infer_row_type(name, rows):
    row_type = None
    for row in rows:
        inferred = infer_type(row)
        try:
            row_type = inferred if row_type is None else join_types(row_type, inferred)
        except Exception as exc:
            raise SchemaError(
                "relation %s: rows have incompatible types (%s)" % (name, exc)
            )
    if row_type is None:
        raise SchemaError(
            "relation %s: cannot infer schema of an empty relation; "
            "pass row_type explicitly" % name
        )
    return row_type


class Database(PicklableSlots):
    """A mapping from relation names to relations.

    >>> db = Database.from_dict({"r": [{"a": 1}]})
    >>> db["r"].attributes()
    ('a',)
    """

    __slots__ = ("_relations",)

    def __init__(self, relations):
        by_name = {}
        for rel in relations:
            if not isinstance(rel, Relation):
                raise SchemaError("not a Relation: %r" % (rel,))
            if rel.name in by_name:
                raise SchemaError("duplicate relation name: %s" % rel.name)
            by_name[rel.name] = rel
        object.__setattr__(self, "_relations", by_name)

    def __setattr__(self, name, value):
        raise AttributeError("Database is immutable")

    @classmethod
    def from_dict(cls, tables, schema=None):
        """Build a database from ``{name: [row-dict, ...]}``.

        *schema*, when given, maps names to :class:`RecordType` row types
        (required for empty relations).
        """
        schema = schema or {}
        relations = []
        for name, rows in tables.items():
            relations.append(Relation.from_rows(name, rows, schema.get(name)))
        for name, row_type in schema.items():
            if name not in tables:
                relations.append(Relation(name, CSet(), row_type))
        return cls(relations)

    def __getitem__(self, name):
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError("no relation named %s" % name)

    def __contains__(self, name):
        return name in self._relations

    def names(self):
        """Relation names, sorted."""
        return tuple(sorted(self._relations))

    def relations(self):
        """The relations, in name order."""
        return tuple(self._relations[n] for n in self.names())

    def schema(self):
        """Mapping of relation name to row type."""
        return {name: self._relations[name].row_type for name in self.names()}

    def is_flat(self):
        """True when every relation is flat."""
        return all(rel.is_flat() for rel in self._relations.values())

    def require_flat(self):
        """Raise :class:`SchemaError` unless the database is flat."""
        for rel in self._relations.values():
            if not rel.is_flat():
                raise SchemaError(
                    "relation %s is nested; apply objects.encoding.encode_database "
                    "first (the paper's Section 5.1 reduction)" % rel.name
                )

    def active_domain(self):
        """All atomic values appearing anywhere in the database, sorted."""
        atoms = set()
        for rel in self._relations.values():
            for row in rel:
                _collect_atoms(row, atoms)
        return tuple(sorted(atoms, key=lambda a: (type(a).__name__, repr(a))))

    def with_relation(self, relation):
        """Return a copy with *relation* added or replaced."""
        updated = dict(self._relations)
        updated[relation.name] = relation
        return Database(updated.values())

    def __eq__(self, other):
        if not isinstance(other, Database):
            return NotImplemented
        return self._relations == other._relations

    def __repr__(self):
        inner = ", ".join(
            "%s(%d)" % (n, len(self._relations[n])) for n in self.names()
        )
        return "Database(%s)" % inner


def _collect_atoms(value, out):
    from repro.objects.values import is_atom

    if is_atom(value):
        out.add(value)
    elif isinstance(value, Record):
        for component in value.values():
            _collect_atoms(component, out)
    elif isinstance(value, CSet):
        for member in value:
            _collect_atoms(member, out)
