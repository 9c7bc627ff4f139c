"""The COQL expression AST.

Expressions (paper, Appendix A — the conjunctive idealized OQL):

* ``Const(d)`` — an atomic constant;
* ``VarRef(x)`` — a variable bound by an enclosing ``Select`` generator;
* ``RelRef(R)`` — an input relation;
* ``Proj(e, A)`` — record projection ``e.A``;
* ``RecordExpr([A1: e1, …])`` — record construction;
* ``Singleton(e)`` — ``{e}``;
* ``EmptySet()`` — ``{}``;
* ``Flatten(e)`` — union of a set of sets;
* ``Select(head, generators, conditions)`` — ``select head from x1 in
  e1, … where a1 = b1 and …``; conditions compare *atomic* expressions
  only (allowing set equality would express set difference [7], leaving
  the conjunctive fragment).
* ``UnionBody([e1, …, ek])`` — ``e1 union … union ek``, the UCQ
  extension: a set-valued query body that is the union of its branches.
  The paper's COQL deliberately omits union from the *conjunctive*
  fragment; we admit it only at *linear* positions (top level,
  ``flatten`` arguments, generator sources), where
  :mod:`repro.coql.family` distributes it to the top and the decision
  procedure reduces to Sagiv–Yannakakis over the branch family.

All nodes are immutable and hashable.
"""

from repro.errors import ReproError
from repro.objects.values import is_atom
from repro.pickling import PicklableSlots

__all__ = [
    "Expr",
    "Const",
    "VarRef",
    "RelRef",
    "Proj",
    "RecordExpr",
    "Singleton",
    "EmptySet",
    "Flatten",
    "Select",
    "UnionBody",
]


class Expr(PicklableSlots):
    """Base class for COQL expressions.

    Besides the parser's ``_span``, three metadata slots never take part
    in equality, hashing, fingerprints or pickles: the memos
    ``_digest`` (:mod:`repro.pipeline.fingerprint`) and ``_family``
    (:func:`repro.coql.family.union_branches`), filled on first use,
    and ``_source``, the key of the text a parsed root came from (see
    :func:`repro.pipeline.fingerprint.identity`).
    """

    __slots__ = ("_span", "_digest", "_family", "_source")

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @property
    def span(self):
        """``(line, column)`` of the expression's first token (1-based).

        Only the parser fills this in; programmatically built nodes
        report None.  The span never participates in equality or
        hashing, so positioned and unpositioned copies of one query
        share caches.
        """
        try:
            return object.__getattribute__(self, "_span")
        except AttributeError:
            return None

    def with_span(self, span):
        """Attach a ``(line, column)`` source position; returns ``self``.

        Used by :mod:`repro.coql.parser`; safe on the otherwise
        immutable nodes because the span is metadata, invisible to
        ``__eq__``/``__hash__``.
        """
        object.__setattr__(self, "_span", span)
        return self

    def children(self):
        """Immediate sub-expressions (for generic traversals)."""
        return ()

    def free_vars(self):
        """Names of free variables of the expression."""
        out = set()
        _free_vars(self, out, set())
        return frozenset(out)

    def relations(self):
        """Names of input relations mentioned anywhere."""
        out = set()

        def walk(expr):
            if isinstance(expr, RelRef):
                out.add(expr.name)
            for child in expr.children():
                walk(child)

        walk(self)
        return frozenset(out)


def _free_vars(expr, out, bound):
    if isinstance(expr, VarRef):
        if expr.name not in bound:
            out.add(expr.name)
        return
    if isinstance(expr, Select):
        inner_bound = set(bound)
        for var, source in expr.generators:
            _free_vars(source, out, inner_bound)
            inner_bound.add(var)
        for left, right in expr.conditions:
            _free_vars(left, out, inner_bound)
            _free_vars(right, out, inner_bound)
        _free_vars(expr.head, out, inner_bound)
        return
    for child in expr.children():
        _free_vars(child, out, bound)


class Const(Expr):
    """An atomic constant."""

    __slots__ = ("value",)

    def __init__(self, value):
        if not is_atom(value):
            raise ReproError("COQL constants must be atomic, got %r" % (value,))
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self):
        return hash(("coql.Const", self.value))

    def __repr__(self):
        return repr(self.value)


class VarRef(Expr):
    """A bound variable occurrence."""

    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        return isinstance(other, VarRef) and other.name == self.name

    def __hash__(self):
        return hash(("coql.VarRef", self.name))

    def __repr__(self):
        return self.name


class RelRef(Expr):
    """A reference to an input relation."""

    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        return isinstance(other, RelRef) and other.name == self.name

    def __hash__(self):
        return hash(("coql.RelRef", self.name))

    def __repr__(self):
        return self.name


class Proj(Expr):
    """Record projection ``e.A``."""

    __slots__ = ("expr", "attr")

    def __init__(self, expr, attr):
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "attr", attr)

    def children(self):
        return (self.expr,)

    def __eq__(self, other):
        return (
            isinstance(other, Proj)
            and other.expr == self.expr
            and other.attr == self.attr
        )

    def __hash__(self):
        return hash(("coql.Proj", self.expr, self.attr))

    def __repr__(self):
        return "%r.%s" % (self.expr, self.attr)


class RecordExpr(Expr):
    """Record construction ``[A1: e1, ..., Ak: ek]``."""

    __slots__ = ("fields",)

    def __init__(self, fields):
        object.__setattr__(self, "fields", tuple(sorted(dict(fields).items())))

    def children(self):
        return tuple(e for __, e in self.fields)

    def keys(self):
        return tuple(k for k, __ in self.fields)

    def __getitem__(self, name):
        for key, value in self.fields:
            if key == name:
                return value
        raise KeyError(name)

    def __eq__(self, other):
        return isinstance(other, RecordExpr) and other.fields == self.fields

    def __hash__(self):
        return hash(("coql.RecordExpr", self.fields))

    def __repr__(self):
        return "[%s]" % ", ".join("%s: %r" % (k, v) for k, v in self.fields)


class Singleton(Expr):
    """``{e}``."""

    __slots__ = ("expr",)

    def __init__(self, expr):
        object.__setattr__(self, "expr", expr)

    def children(self):
        return (self.expr,)

    def __eq__(self, other):
        return isinstance(other, Singleton) and other.expr == self.expr

    def __hash__(self):
        return hash(("coql.Singleton", self.expr))

    def __repr__(self):
        return "{%r}" % (self.expr,)


class EmptySet(Expr):
    """``{}``."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, EmptySet)

    def __hash__(self):
        return hash("coql.EmptySet")

    def __repr__(self):
        return "{}"


class Flatten(Expr):
    """``flatten(e)`` — union of a set of sets."""

    __slots__ = ("expr",)

    def __init__(self, expr):
        object.__setattr__(self, "expr", expr)

    def children(self):
        return (self.expr,)

    def __eq__(self, other):
        return isinstance(other, Flatten) and other.expr == self.expr

    def __hash__(self):
        return hash(("coql.Flatten", self.expr))

    def __repr__(self):
        return "flatten(%r)" % (self.expr,)


def check_generator_names(names):
    """Raise :class:`ReproError` if a select binds a variable twice."""
    if len(set(names)) != len(names):
        raise ReproError("duplicate generator variables: %r" % (names,))


class Select(Expr):
    """``select head from x1 in e1, … where l1 = r1 and …``."""

    __slots__ = ("head", "generators", "conditions")

    def __init__(self, head, generators, conditions=()):
        generators = tuple((str(v), e) for v, e in generators)
        conditions = tuple(conditions)
        check_generator_names([v for v, __ in generators])
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "conditions", conditions)

    def children(self):
        out = [e for __, e in self.generators]
        for left, right in self.conditions:
            out.extend((left, right))
        out.append(self.head)
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, Select)
            and other.head == self.head
            and other.generators == self.generators
            and other.conditions == self.conditions
        )

    def __hash__(self):
        return hash(("coql.Select", self.head, self.generators, self.conditions))

    def __repr__(self):
        gens = ", ".join("%s in %r" % (v, e) for v, e in self.generators)
        conds = " and ".join(
            "%r = %r" % (lhs, rhs) for lhs, rhs in self.conditions
        )
        text = "select %r from %s" % (self.head, gens)
        if conds:
            text += " where " + conds
        return "(%s)" % text


class UnionBody(Expr):
    """``e1 union … union ek`` — a union of set-valued branches.

    Union is associative, so nested :class:`UnionBody` branches are
    spliced flat at construction: ``UnionBody([UnionBody([a, b]), c])``
    equals ``UnionBody([a, b, c])``, which is what makes the
    pretty-printer round-trip (``a union b union c`` parses flat) hold
    for programmatically nested unions too.  Branch order is preserved —
    it is the deterministic decision order of the Sagiv–Yannakakis
    reduction — and duplicates are kept (COQL012 flags redundancy; the
    constructor must not silently change what the user wrote).
    """

    __slots__ = ("branches",)

    def __init__(self, branches):
        spliced = []
        for branch in branches:
            if isinstance(branch, UnionBody):
                spliced.extend(branch.branches)
            else:
                spliced.append(branch)
        if len(spliced) < 2:
            raise ReproError(
                "a union body needs at least two branches, got %d"
                % len(spliced)
            )
        object.__setattr__(self, "branches", tuple(spliced))

    def children(self):
        return self.branches

    def __eq__(self, other):
        return isinstance(other, UnionBody) and other.branches == self.branches

    def __hash__(self):
        return hash(("coql.UnionBody", self.branches))

    def __repr__(self):
        return "(%s)" % " union ".join(repr(b) for b in self.branches)
