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

Parsing takes time linear in the input.  The tokenizer classifies each
token once and computes every ``(line, column)`` in one scan.  The
syntax pass then reads each token once, in source order, and returns a
*builder* per construct: a function of the enclosing scope (the set of
bound generator variables) that makes the construct's node.  A select's
head precedes the generators that bind its names, so the head is only
built once its select's builder has added them to the scope; the
syntax is never re-read, and every node is built exactly once.

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
    check_generator_names,
)

__all__ = ["parse_coql"]

_KEYWORDS = {"select", "from", "where", "in", "and", "flatten", "union"}

# One named group per token kind.  Only ``float`` must precede ``int``
# (the other kinds start with distinct characters, and identifiers, the
# commonest, come first); ``bad`` catches any other non-space character,
# so ``finditer`` never skips text.
_TOKEN_RE = re.compile(
    r"""
    (?P<ident>[A-Za-z_][A-Za-z_0-9]*)                   |
    (?P<punct>[(){}\[\],.=:])                           |
    (?P<float>-?\d+\.\d+)                               |
    (?P<int>-?\d+)                                      |
    (?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')     |
    (?P<bad>\S)
    """,
    re.VERBOSE,
)


def _line_col(text, offset):
    """1-based ``(line, column)`` of a character *offset* into *text*."""
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return (line, col)


def _tokenize(text):
    """``(tokens, kinds, positions)``: token texts, their ``_TOKEN_RE``
    group names, and their 1-based ``(line, column)`` starts."""
    matches = list(_TOKEN_RE.finditer(text))
    kinds = [match.lastgroup for match in matches]
    if "bad" in kinds:
        bad = matches[kinds.index("bad")].start()
        where = _line_col(text, bad)
        raise ParseError(
            "cannot tokenize COQL at %r (line %d, col %d)"
            % ((text[bad:].rstrip()[:25],) + where),
            span=where,
        )
    tokens = [match.group() for match in matches]
    positions = []
    line, line_start, previous = 1, 0, 0
    for match in matches:
        start = match.start()
        newlines = text.count("\n", previous, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", previous, start) + 1
        positions.append((line, start - line_start + 1))
        previous = start
    return tokens, kinds, positions


class _Parser:
    """The syntax pass: recursive descent over the token list.

    Each grammar method consumes its construct's tokens and returns a
    builder ``build(scope) -> Expr``.  Syntax errors are raised as the
    tokens are read, in source order; identifiers are resolved to
    :class:`VarRef` or :class:`RelRef` only when their builder runs.
    """

    def __init__(self, text):
        self.text = text
        self.tokens, self.kinds, self.positions = _tokenize(text)
        # A None sentinel past the last token: peeking needs no bounds test.
        self.tokens.append(None)
        self.kinds.append(None)
        self.index = 0

    def span_at(self, index=None):
        """``(line, col)`` of the token at *index* (default: current)."""
        if index is None:
            index = self.index
        if index < len(self.positions):
            return self.positions[index]
        return self.positions[-1] if self.positions else (1, 1)

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        token = self.tokens[self.index]
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
        return self.tokens[self.index] is None

    # -- grammar -----------------------------------------------------------

    def expr(self):
        start = self.span_at()
        branch = self.operand()
        if self.peek() != "union":
            return branch
        branches = [branch]
        while self.peek() == "union":
            self.next()
            branches.append(self.operand())

        def build(scope):
            return UnionBody([b(scope) for b in branches]).with_span(start)

        return build

    def operand(self):
        token = self.peek()
        if token == "select":
            return self.select()
        if token == "flatten":
            start = self.span_at()
            self.next()
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return lambda scope: Flatten(inner(scope)).with_span(start)
        return self.primary()

    def select(self):
        select_span = self.positions[self.index]
        self.expect("select")
        head = self.operand()
        self.expect("from")
        generators = []
        while True:
            var_at = self.index
            var = self.next()
            if self.kinds[var_at] != "ident" or var in _KEYWORDS:
                raise ParseError(
                    "bad generator variable %r" % var,
                    span=self.span_at(var_at),
                )
            self.expect("in")
            generators.append((var, self.operand()))
            if self.peek() != ",":
                break
            self.next()
        conditions = []
        if self.peek() == "where":
            self.next()
            while True:
                left = self.operand()
                self.expect("=")
                conditions.append((left, self.operand()))
                if self.peek() != "and":
                    break
                self.next()
        check_generator_names([var for var, __ in generators])

        def build(scope):
            inner = set(scope)
            built = []
            for var, source in generators:
                built.append((var, source(inner)))
                inner.add(var)
            where = [(left(inner), right(inner)) for left, right in conditions]
            return Select(head(inner), built, where).with_span(select_span)

        return build

    def primary(self):
        token = self.next()
        start = self.positions[self.index - 1]
        kind = self.kinds[self.index - 1]
        if kind == "ident" and token not in _KEYWORDS:
            return self._path(token, start)
        if kind == "string":
            value = token[1:-1].replace('\\"', '"').replace("\\'", "'")
            return self._const(value, start)
        if kind == "int":
            return self._const(int(token), start)
        if kind == "float":
            return self._const(float(token), start)
        if token == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if token == "[":
            fields = {}
            while True:
                name = self.next()
                self.expect(":")
                fields[name] = self.operand()
                nxt_at = self.index
                nxt = self.next()
                if nxt == "]":
                    break
                if nxt != ",":
                    raise ParseError(
                        "expected ',' or ']' in record, got %r" % nxt,
                        span=self.span_at(nxt_at),
                    )
            return lambda scope: RecordExpr(
                {name: field(scope) for name, field in fields.items()}
            ).with_span(start)
        if token == "{":
            if self.peek() == "}":
                self.next()
                return lambda scope: EmptySet().with_span(start)
            inner = self.operand()
            self.expect("}")
            return lambda scope: Singleton(inner(scope)).with_span(start)
        raise ParseError(
            "unexpected token %r in %r" % (token, self.text), span=start
        )

    @staticmethod
    def _const(value, start):
        node = Const(value).with_span(start)
        return lambda scope: node

    def _path(self, name, start):
        attrs = []
        while self.tokens[self.index] == ".":
            dot_span = self.positions[self.index]
            self.index += 1
            attr_at = self.index
            attr = self.next()
            if self.kinds[attr_at] != "ident":
                raise ParseError(
                    "bad attribute name %r" % attr, span=self.span_at(attr_at)
                )
            attrs.append((attr, dot_span))

        def build(scope):
            expr = (VarRef(name) if name in scope else RelRef(name)).with_span(
                start
            )
            for attr, dot_span in attrs:
                expr = Proj(expr, attr).with_span(dot_span)
            return expr

        return build


def parse_coql(text):
    """Parse a COQL expression from its concrete syntax.

    Every AST node carries the ``(line, column)`` of its first token (a
    projection: of its ``.``) in its :attr:`~repro.coql.ast.Expr.span`,
    and :class:`ParseError`\\ s carry the failure position in their
    ``span`` attribute — both are 1-based and used by
    :mod:`repro.analysis` to point diagnostics at real source locations.
    Input nested too deeply for the interpreter stack raises
    :class:`ParseError` too, at the token the parser had reached.

    The root is named by the key of *text* in every store key
    (:func:`repro.pipeline.fingerprint.identity`), so the tree and the
    text share one ``prepare`` entry.  It carries the key's parts,
    hashed on first use.
    """
    parser = _Parser(text)
    try:
        build = parser.expr()
        if not parser.done():
            raise ParseError(
                "trailing tokens %r in %r"
                % (parser.tokens[parser.index:-1], text),
                span=parser.span_at(),
            )
        root = build(frozenset())
        object.__setattr__(root, "_source", ("parse", text))
        return root
    except RecursionError:
        where = parser.span_at()
        raise ParseError(
            "COQL input nested too deeply (line %d, col %d)" % where,
            span=where,
        ) from None
