"""Pretty-printer for COQL expressions.

``to_text`` renders an AST back into the concrete syntax accepted by
:func:`repro.coql.parser.parse_coql`; the round-trip
``parse(to_text(e)) == e`` holds for every expression it renders
(property-tested).  A constant with no concrete syntax raises
:class:`ReproError` instead: a boolean, a non-finite float, or a string
the parser's quote escapes cannot spell, such as one that ends in a
backslash or has a backslash before a quote.
"""

import math
from decimal import Decimal

from repro.errors import ParseError, ReproError
from repro.coql.ast import (
    Const,
    VarRef,
    RelRef,
    Proj,
    RecordExpr,
    Singleton,
    EmptySet,
    Flatten,
    Select,
    UnionBody,
)
from repro.coql.parser import parse_coql

__all__ = ["to_text"]


def to_text(expr):
    """Render a COQL expression as parseable concrete syntax.

    Raises :class:`ReproError` on a constant that has no concrete
    syntax (see the module docstring).
    """
    return _render(expr, top=True)


def _render(expr, top=False):
    if isinstance(expr, Const):
        return _const(expr.value)
    if isinstance(expr, (VarRef, RelRef)):
        return expr.name
    if isinstance(expr, Proj):
        base = _render(expr.expr)
        if isinstance(expr.expr, (Select, Flatten)):
            base = "(%s)" % base
        return "%s.%s" % (base, expr.attr)
    if isinstance(expr, RecordExpr):
        inner = ", ".join(
            "%s: %s" % (name, _render(component))
            for name, component in expr.fields
        )
        return "[%s]" % inner
    if isinstance(expr, Singleton):
        return "{%s}" % _render(expr.expr)
    if isinstance(expr, EmptySet):
        return "{}"
    if isinstance(expr, Flatten):
        return "flatten(%s)" % _render(expr.expr)
    if isinstance(expr, Select):
        head = _render(expr.head)
        if isinstance(expr.head, Select):
            head = "(%s)" % head
        generators = ", ".join(
            "%s in %s" % (var, _paren_source(source))
            for var, source in expr.generators
        )
        text = "select %s from %s" % (head, generators)
        if expr.conditions:
            text += " where " + " and ".join(
                "%s = %s" % (_render(left), _render(right))
                for left, right in expr.conditions
            )
        return text if top else "(%s)" % text
    if isinstance(expr, UnionBody):
        # `union` binds loosest, so branches (selects included) need no
        # parentheses of their own; a union in operand position does.
        text = " union ".join(
            _render(branch, top=True) for branch in expr.branches
        )
        return text if top else "(%s)" % text
    raise ReproError("unknown COQL expression %r" % (expr,))


def _paren_source(source):
    rendered = _render(source)
    if isinstance(source, Select):
        return rendered  # already parenthesized by _render
    return rendered


def _const(value):
    if isinstance(value, bool):
        raise ReproError(
            "boolean constants have no concrete syntax; use 0/1"
        )
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ReproError("float constant %r has no concrete syntax" % (value,))
        # Positional digits of the shortest repr: a float token (never
        # an exponent, which does not tokenize) that reads back exactly.
        text = format(Decimal(repr(value)), "f")
        return text if "." in text else text + ".0"
    if isinstance(value, str):
        text = '"%s"' % value.replace('"', '\\"')
        try:
            parsed = parse_coql(text)
        except ParseError:
            parsed = None
        if parsed != Const(value):
            raise ReproError(
                "string constant %r has no concrete syntax: the parser's "
                "quote escapes cannot spell it" % (value,)
            )
        return text
    return repr(value)
