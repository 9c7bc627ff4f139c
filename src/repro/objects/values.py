"""Immutable complex-object values: atoms, records, and sets.

Following the paper (Section 3.1, after [1, 7]) a complex object is

1. an atomic value ``d`` from an infinite domain ``D``, or
2. a record ``[A1: x1, ..., Ak: xk]`` whose components are complex
   objects, or
3. a finite set ``{x1, ..., xn}`` of complex objects.

Atoms are represented by plain Python scalars (``str``, ``int``, ``bool``,
``float``); records by :class:`Record` and sets by :class:`CSet`.  All
values are immutable and hashable so that sets of records of sets (etc.)
work without ceremony.
"""

from repro.errors import ValueConstructionError
from repro.pickling import PicklableSlots

__all__ = ["Record", "CSet", "is_atom", "is_complex_object", "sort_key"]

#: Python types accepted as atomic values.  ``bool`` is a subclass of
#: ``int`` but is listed for clarity.
_ATOM_TYPES = (str, int, float, bool)


def is_atom(value):
    """Return True when *value* is an atomic complex-object value."""
    return isinstance(value, _ATOM_TYPES)


def is_complex_object(value):
    """Return True when *value* is a well-formed complex object."""
    if is_atom(value):
        return True
    if isinstance(value, Record):
        return all(is_complex_object(v) for v in value.values())
    if isinstance(value, CSet):
        return all(is_complex_object(v) for v in value)
    return False


class Record(PicklableSlots):
    """An immutable record ``[A1: x1, ..., Ak: xk]``.

    Components are accessed with ``record["A"]`` or :meth:`get`.  Records
    compare equal iff they have the same attribute names and equal
    component values; attribute order is irrelevant (components are stored
    sorted by name).

    >>> r = Record(name="ann", age=7)
    >>> r["name"]
    'ann'
    >>> r == Record(age=7, name="ann")
    True
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, _fields=None, **kwargs):
        fields = dict(_fields) if _fields is not None else {}
        fields.update(kwargs)
        for name, value in fields.items():
            if not isinstance(name, str):
                raise ValueConstructionError(
                    "record attribute names must be strings, got %r" % (name,)
                )
            if not _is_valid_component(value):
                raise ValueConstructionError(
                    "record component %s=%r is not a complex object" % (name, value)
                )
        object.__setattr__(self, "_items", tuple(sorted(fields.items())))
        object.__setattr__(self, "_hash", hash(self._hash_key()))

    def __setattr__(self, name, value):
        raise AttributeError("Record is immutable")

    def _hash_key(self):
        return self._items

    def __getitem__(self, name):
        for key, value in self._items:
            if key == name:
                return value
        raise KeyError(name)

    def get(self, name, default=None):
        """Return component *name*, or *default* when absent."""
        for key, value in self._items:
            if key == name:
                return value
        return default

    def __contains__(self, name):
        return any(key == name for key, __ in self._items)

    def keys(self):
        """Attribute names, sorted."""
        return tuple(key for key, __ in self._items)

    def values(self):
        """Component values, in attribute-name order."""
        return tuple(value for __, value in self._items)

    def items(self):
        """(name, value) pairs, in attribute-name order."""
        return self._items

    def replace(self, **changes):
        """Return a copy with the given components replaced or added."""
        fields = dict(self._items)
        fields.update(changes)
        return Record(fields)

    def project(self, names):
        """Return a record restricted to the attributes in *names*."""
        return Record({name: self[name] for name in names})

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self.keys())

    def __eq__(self, other):
        if not isinstance(other, Record):
            return NotImplemented
        return self._items == other._items

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join("%s: %r" % (k, v) for k, v in self._items)
        return "[%s]" % inner


class CSet(PicklableSlots):
    """An immutable finite set of complex objects.

    Iteration follows :func:`sort_key` order under any hash seed; a set
    sorts itself once, on its first iteration, and keeps that order.

    >>> s = CSet([1, 2, 2])
    >>> len(s)
    2
    >>> CSet([Record(a=1)]) == CSet([Record(a=1)])
    True
    """

    __slots__ = ("_elements", "_hash", "_order")

    def __init__(self, elements=()):
        checked = []
        for value in elements:
            if not _is_valid_component(value):
                raise ValueConstructionError(
                    "set element %r is not a complex object" % (value,)
                )
            checked.append(value)
        object.__setattr__(self, "_elements", frozenset(checked))
        object.__setattr__(self, "_hash", hash(self._hash_key()))

    def __setattr__(self, name, value):
        raise AttributeError("CSet is immutable")

    def _hash_key(self):
        return self._elements

    def __iter__(self):
        # Deterministic iteration order (stable output and tests): the
        # sort_key order, computed on the first iteration and memoized.
        # Racing threads store equal tuples.
        try:
            return iter(self._order)
        except AttributeError:
            order = tuple(sorted(self._elements, key=sort_key))
            object.__setattr__(self, "_order", order)
            return iter(order)

    def __len__(self):
        return len(self._elements)

    def __contains__(self, value):
        return value in self._elements

    def __eq__(self, other):
        if not isinstance(other, CSet):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self):
        return self._hash

    def __or__(self, other):
        if not isinstance(other, CSet):
            return NotImplemented
        return CSet(self._elements | other._elements)

    def __and__(self, other):
        if not isinstance(other, CSet):
            return NotImplemented
        return CSet(self._elements & other._elements)

    def __le__(self, other):
        """Plain subset test (not the Hoare order; see ``objects.order``)."""
        if not isinstance(other, CSet):
            return NotImplemented
        return self._elements <= other._elements

    def elements(self):
        """The underlying frozenset."""
        return self._elements

    def __repr__(self):
        inner = ", ".join(repr(v) for v in self)
        return "{%s}" % inner


def _is_valid_component(value):
    return is_atom(value) or isinstance(value, (Record, CSet))


def sort_key(value):
    """A total-order key over complex objects, for deterministic output.

    Orders by kind (atoms, then records, then sets), then structurally.
    Atoms of different Python types are ordered by type name then repr, so
    mixed-type sets sort deterministically.
    """
    if is_atom(value):
        return (0, type(value).__name__, repr(value))
    if isinstance(value, Record):
        return (1, tuple((k, sort_key(v)) for k, v in value.items()))
    if isinstance(value, CSet):
        return (2, tuple(sort_key(v) for v in value))
    raise ValueConstructionError("not a complex object: %r" % (value,))
