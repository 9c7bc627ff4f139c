# The two-pass COQL parser that repro.coql.parser replaced, kept
# unchanged as the oracle of tests/test_parser_differential.py: it
# parses every select head twice, so it is exponential in the nesting
# of selects in heads.  Do not edit it to follow the new parser.
"""Parser for a concrete COQL syntax.

Grammar (OQL-flavoured)::

    expr     := operand ("union" operand)*
    operand  := select | flatten | primary
    select   := "select" operand "from" gen ("," gen)*
                ["where" cond ("and" cond)*]
    gen      := IDENT "in" operand
    flatten  := "flatten" "(" expr ")"
    primary  := record | setlit | path | const | "(" expr ")"
    record   := "[" IDENT ":" operand ("," IDENT ":" operand)* "]"
    setlit   := "{" [operand] "}"
    path     := IDENT ("." IDENT)*
    cond     := operand "=" operand

``union`` binds loosest: ``select h from x in r union select h from y
in s`` is a union of two selects; parenthesize (``x in (a union b)``)
to range a generator over a union.  A leading identifier is a variable
when bound by an enclosing generator and an input-relation name
otherwise.

>>> q = parse_coql("select [a: x.a] from x in r where x.b = 3")
"""

import re

from repro.errors import ParseError
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

__all__ = ["parse_coql"]

_KEYWORDS = {"select", "from", "where", "in", "and", "flatten", "union"}

_TOKEN_RE = re.compile(
    r"""
    \s*(
        [(){}\[\],.=:]              |
        -?\d+\.\d+                  |
        -?\d+                       |
        "(?:[^"\\]|\\.)*"          |
        '(?:[^'\\]|\\.)*'          |
        [A-Za-z_][A-Za-z_0-9]*
    )
    """,
    re.VERBOSE,
)


def _line_col(text, offset):
    """1-based ``(line, column)`` of a character *offset* into *text*."""
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return (line, col)


def _tokenize(text):
    tokens = []
    positions = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:]
            if not rest.strip():
                break
            bad = pos + (len(rest) - len(rest.lstrip()))
            where = _line_col(text, bad)
            raise ParseError(
                "cannot tokenize COQL at %r (line %d, col %d)"
                % ((rest.strip()[:25],) + where),
                span=where,
            )
        tokens.append(match.group(1))
        positions.append(_line_col(text, match.start(1)))
        pos = match.end()
    return tokens, positions


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens, self.positions = _tokenize(text)
        self.index = 0

    def span_at(self, index=None):
        """``(line, col)`` of the token at *index* (default: current)."""
        if index is None:
            index = self.index
        if index < len(self.positions):
            return self.positions[index]
        return self.positions[-1] if self.positions else (1, 1)

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self):
        token = self.peek()
        if token is None:
            raise ParseError(
                "unexpected end of COQL input in %r" % self.text,
                span=self.span_at(),
            )
        self.index += 1
        return token

    def expect(self, token):
        at = self.index
        got = self.next()
        if got != token:
            raise ParseError(
                "expected %r, got %r (in %r)" % (token, got, self.text),
                span=self.span_at(at),
            )

    def done(self):
        return self.index >= len(self.tokens)

    # -- grammar -----------------------------------------------------------

    def expr(self, bound):
        start = self.span_at()
        branch = self.operand(bound)
        if self.peek() != "union":
            return branch
        branches = [branch]
        while self.peek() == "union":
            self.next()
            branches.append(self.operand(bound))
        return UnionBody(branches).with_span(start)

    def operand(self, bound):
        token = self.peek()
        if token == "select":
            return self.select(bound)
        if token == "flatten":
            start = self.span_at()
            self.next()
            self.expect("(")
            inner = self.expr(bound)
            self.expect(")")
            return Flatten(inner).with_span(start)
        return self.primary(bound)

    def select(self, bound):
        select_span = self.span_at()
        self.expect("select")
        head_start = self.index
        # First pass over the head: variable-vs-relation resolution never
        # affects the token structure, so parsing with the outer bound set
        # just locates the head's extent; the head is re-parsed below once
        # the generator variables are known.
        self.operand(bound)
        self.expect("from")
        generators = []
        inner_bound = set(bound)
        while True:
            var_at = self.index
            var = self.next()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", var) or var in _KEYWORDS:
                raise ParseError(
                    "bad generator variable %r" % var,
                    span=self.span_at(var_at),
                )
            self.expect("in")
            source = self.operand(frozenset(inner_bound))
            generators.append((var, source))
            inner_bound.add(var)
            if self.peek() == ",":
                self.next()
                continue
            break
        conditions = []
        if self.peek() == "where":
            self.next()
            while True:
                left = self.operand(frozenset(inner_bound))
                self.expect("=")
                right = self.operand(frozenset(inner_bound))
                conditions.append((left, right))
                if self.peek() == "and":
                    self.next()
                    continue
                break
        # Re-parse the head now that generator variables are known.
        end = self.index
        self.index = head_start
        head = self.operand(frozenset(inner_bound))
        if self.peek() != "from":
            raise ParseError(
                "malformed select head in %r" % self.text, span=select_span
            )
        self.index = end
        return Select(head, generators, conditions).with_span(select_span)

    def primary(self, bound):
        start = self.span_at()
        token = self.next()
        if token == "(":
            inner = self.expr(bound)
            self.expect(")")
            return inner
        if token == "[":
            fields = {}
            while True:
                name = self.next()
                self.expect(":")
                fields[name] = self.operand(bound)
                nxt_at = self.index
                nxt = self.next()
                if nxt == "]":
                    return RecordExpr(fields).with_span(start)
                if nxt != ",":
                    raise ParseError(
                        "expected ',' or ']' in record, got %r" % nxt,
                        span=self.span_at(nxt_at),
                    )
        if token == "{":
            if self.peek() == "}":
                self.next()
                return EmptySet().with_span(start)
            inner = self.operand(bound)
            self.expect("}")
            return Singleton(inner).with_span(start)
        if token.startswith(("'", '"')):
            value = token[1:-1].replace('\\"', '"').replace("\\'", "'")
            return Const(value).with_span(start)
        if re.fullmatch(r"-?\d+", token):
            return Const(int(token)).with_span(start)
        if re.fullmatch(r"-?\d+\.\d+", token):
            return Const(float(token)).with_span(start)
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", token) and token not in _KEYWORDS:
            base = VarRef(token) if token in bound else RelRef(token)
            return self._path(base.with_span(start))
        raise ParseError(
            "unexpected token %r in %r" % (token, self.text), span=start
        )

    def _path(self, base):
        expr = base
        while self.peek() == ".":
            dot_span = self.span_at()
            self.next()
            attr_at = self.index
            attr = self.next()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", attr):
                raise ParseError(
                    "bad attribute name %r" % attr, span=self.span_at(attr_at)
                )
            expr = Proj(expr, attr).with_span(dot_span)
        return expr


def parse_coql(text):
    """Parse a COQL expression from its concrete syntax.

    Every AST node carries the ``(line, column)`` of its first token in
    its :attr:`~repro.coql.ast.Expr.span`, and :class:`ParseError`\\ s
    carry the failure position in their ``span`` attribute — both are
    1-based and used by :mod:`repro.analysis` to point diagnostics at
    real source locations.
    """
    parser = _Parser(text)
    expr = parser.expr(frozenset())
    if not parser.done():
        raise ParseError(
            "trailing tokens %r in %r" % (parser.tokens[parser.index:], text),
            span=parser.span_at(),
        )
    return expr
