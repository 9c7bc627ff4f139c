"""Terms and atoms for conjunctive queries.

A term is a :class:`Var` or a :class:`Const`; an :class:`Atom` is a
predicate name applied to a tuple of terms.  All are immutable and
hashable.
"""

from repro.errors import ReproError
from repro.objects.values import is_atom as _is_atomic_value
from repro.pickling import PicklableSlots

__all__ = ["Var", "Const", "Atom", "is_var", "is_const", "substitute_term"]


class Var(PicklableSlots):
    """A query variable, identified by name.

    A variable hashes as its name: ``str`` caches its own hash, so
    hashing needs no memo slot (unlike :class:`Atom`) and builds no
    tuple.

    >>> Var("X") == Var("X")
    True
    """

    __slots__ = ("name",)

    def __init__(self, name):
        if not isinstance(name, str) or not name:
            raise ReproError("variable names must be non-empty strings")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("Var is immutable")

    def __eq__(self, other):
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __lt__(self, other):
        if not isinstance(other, Var):
            return NotImplemented
        return self.name < other.name

    def __repr__(self):
        return self.name


class Const(PicklableSlots):
    """A constant (an atomic complex-object value).

    >>> Const(3) == Const(3)
    True
    """

    __slots__ = ("value",)

    def __init__(self, value):
        if not _is_atomic_value(value):
            raise ReproError("constants must be atomic values, got %r" % (value,))
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Const is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Const)
            and type(other.value) == type(self.value)
            and other.value == self.value
        )

    def __hash__(self):
        return hash(("Const", type(self.value).__name__, self.value))

    def __repr__(self):
        return repr(self.value)


def is_var(term):
    """True when *term* is a :class:`Var`."""
    return isinstance(term, Var)


def is_const(term):
    """True when *term* is a :class:`Const`."""
    return isinstance(term, Const)


class Atom(PicklableSlots):
    """A relational atom ``pred(t1, ..., tn)``.

    >>> Atom("r", (Var("X"), Const(1))).pred
    'r'
    """

    __slots__ = ("pred", "args", "_hash", "_digest")

    def __init__(self, pred, args):
        if not isinstance(pred, str) or not pred:
            raise ReproError("predicate names must be non-empty strings")
        args = tuple(args)
        for term in args:
            if not isinstance(term, (Var, Const)):
                raise ReproError("atom arguments must be terms, got %r" % (term,))
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash(self._hash_key()))

    def __setattr__(self, name, value):
        raise AttributeError("Atom is immutable")

    def _hash_key(self):
        return (self.pred, self.args)

    @property
    def arity(self):
        return len(self.args)

    def variables(self):
        """The variables occurring in the atom, in argument order."""
        return tuple(t for t in self.args if isinstance(t, Var))

    def substitute(self, mapping):
        """Apply a {Var: term} mapping to the arguments."""
        return Atom(self.pred, tuple(substitute_term(t, mapping) for t in self.args))

    def __eq__(self, other):
        if not isinstance(other, Atom):
            return NotImplemented
        return self.pred == other.pred and self.args == other.args

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "%s(%s)" % (self.pred, ", ".join(repr(a) for a in self.args))


def substitute_term(term, mapping):
    """Apply a {Var: term} mapping to one term (constants pass through)."""
    if isinstance(term, Var):
        return mapping.get(term, term)
    return term
