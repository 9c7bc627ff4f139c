"""Types for complex objects: atoms, records, and sets.

Types mirror the value constructors: :data:`ATOM` (a singleton
:class:`AtomType`), :class:`RecordType` with named component types, and
:class:`SetType` with an element type.  :func:`infer_type` computes the
type of a value; because the empty set carries no element type, type
inference uses a bottom element :data:`EMPTY_SET` joined with
:func:`join_types`.
"""

from repro.errors import TypeCheckError, ValueConstructionError
from repro.objects.values import Record, CSet, is_atom
from repro.pickling import PicklableSlots

__all__ = [
    "AtomType",
    "RecordType",
    "SetType",
    "EmptySetType",
    "ATOM",
    "EMPTY_SET",
    "infer_type",
    "conforms",
    "join_types",
]


class AtomType:
    """The type of atomic values (a single base type, per the paper)."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return isinstance(other, AtomType)

    def __hash__(self):
        return hash("AtomType")

    def __repr__(self):
        return "atom"


#: The unique atom type.
ATOM = AtomType()


class RecordType(PicklableSlots):
    """The type of records; maps attribute names to component types."""

    __slots__ = ("_fields", "_hash", "_digest")

    def __init__(self, fields):
        items = tuple(sorted(dict(fields).items()))
        for name, component in items:
            if not isinstance(name, str):
                raise TypeCheckError("attribute names must be strings: %r" % (name,))
            if not _is_type(component):
                raise TypeCheckError("not a type: %r" % (component,))
        object.__setattr__(self, "_fields", items)
        object.__setattr__(self, "_hash", hash(self._hash_key()))

    def __setattr__(self, name, value):
        raise AttributeError("RecordType is immutable")

    def _hash_key(self):
        return self._fields

    def __getitem__(self, name):
        for key, value in self._fields:
            if key == name:
                return value
        raise KeyError(name)

    def __contains__(self, name):
        return any(key == name for key, __ in self._fields)

    def keys(self):
        return tuple(key for key, __ in self._fields)

    def items(self):
        return self._fields

    def atomic_attrs(self):
        """Names of attributes with atomic type, sorted."""
        return tuple(k for k, t in self._fields if isinstance(t, AtomType))

    def set_attrs(self):
        """Names of attributes with set type, sorted."""
        return tuple(
            k for k, t in self._fields if isinstance(t, (SetType, EmptySetType))
        )

    def __eq__(self, other):
        if not isinstance(other, RecordType):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join("%s: %r" % (k, v) for k, v in self._fields)
        return "[%s]" % inner


class SetType(PicklableSlots):
    """The type of finite sets with a given element type."""

    __slots__ = ("element", "_hash", "_digest")

    def __init__(self, element):
        if not _is_type(element):
            raise TypeCheckError("not a type: %r" % (element,))
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "_hash", hash(self._hash_key()))

    def __setattr__(self, name, value):
        raise AttributeError("SetType is immutable")

    def _hash_key(self):
        return ("SetType", self.element)

    def __eq__(self, other):
        if not isinstance(other, SetType):
            return NotImplemented
        return self.element == other.element

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "{%r}" % (self.element,)


class EmptySetType:
    """The type of ``{}`` — a set whose element type is unknown.

    Acts as a bottom element under :func:`join_types`: it joins with any
    :class:`SetType` (and with itself).
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return isinstance(other, EmptySetType)

    def __hash__(self):
        return hash("EmptySetType")

    def __repr__(self):
        return "{?}"


#: The unique empty-set type.
EMPTY_SET = EmptySetType()


def _is_type(candidate):
    return isinstance(candidate, (AtomType, RecordType, SetType, EmptySetType))


def infer_type(value):
    """Infer the type of a complex-object value.

    Raises :class:`TypeCheckError` when set elements have incompatible
    types (e.g. ``{1, [A: 2]}``).
    """
    if is_atom(value):
        return ATOM
    if isinstance(value, Record):
        return RecordType({k: infer_type(v) for k, v in value.items()})
    if isinstance(value, CSet):
        element = EMPTY_SET
        first = True
        for member in value:
            member_type = SetType(infer_type(member))
            element = member_type if first else join_types(element, member_type)
            first = False
        if first:
            return EMPTY_SET
        return element
    raise ValueConstructionError("not a complex object: %r" % (value,))


def join_types(left, right):
    """Least upper bound of two types, treating ``{}`` as bottom set type.

    Raises :class:`TypeCheckError` when the types are incompatible.
    """
    if isinstance(left, EmptySetType) and isinstance(right, (SetType, EmptySetType)):
        return right
    if isinstance(right, EmptySetType) and isinstance(left, SetType):
        return left
    if isinstance(left, AtomType) and isinstance(right, AtomType):
        return ATOM
    if isinstance(left, RecordType) and isinstance(right, RecordType):
        if left.keys() != right.keys():
            raise TypeCheckError(
                "record types have different attributes: %r vs %r" % (left, right)
            )
        return RecordType(
            {name: join_types(left[name], right[name]) for name in left.keys()}
        )
    if isinstance(left, SetType) and isinstance(right, SetType):
        return SetType(join_types(left.element, right.element))
    raise TypeCheckError("incompatible types: %r vs %r" % (left, right))


def conforms(value, expected):
    """Return True when *value* has type *expected* (empty sets conform
    to every set type)."""
    if isinstance(expected, AtomType):
        return is_atom(value)
    if isinstance(expected, RecordType):
        if not isinstance(value, Record) or value.keys() != expected.keys():
            return False
        return all(conforms(value[name], expected[name]) for name in expected.keys())
    if isinstance(expected, SetType):
        if not isinstance(value, CSet):
            return False
        return all(conforms(member, expected.element) for member in value)
    if isinstance(expected, EmptySetType):
        return isinstance(value, CSet) and len(value) == 0
    raise TypeCheckError("not a type: %r" % (expected,))
