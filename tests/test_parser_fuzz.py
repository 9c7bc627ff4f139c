"""Fuzz tests: parsers must reject garbage with ParseError, never crash.

Also grammar round-trips: printing then re-parsing is the identity for
both the datalog CQ syntax and COQL (the COQL case also lives in
test_unions_pretty_json; here the inputs are adversarial).
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.errors import ParseError, ReproError
from repro.cq.parser import parse_query, parse_atom
from repro.coql import parser as coql_parser
from repro.coql.parser import parse_coql

# Characters that appear in the grammars, to bias the fuzzer toward
# almost-valid inputs (pure noise rarely exercises deep paths).
_ALPHABET = list("qrsxyzXYZ()[]{},.=:123\"' infromselectwher")

garbage = st.text(alphabet=_ALPHABET, min_size=0, max_size=40)


class TestCqParserFuzz:
    @given(garbage)
    @settings(max_examples=300, deadline=None)
    def test_never_crashes(self, text):
        try:
            parse_query(text)
        except (ParseError, ReproError):
            pass  # rejection is the expected outcome

    @given(garbage)
    @settings(max_examples=200, deadline=None)
    def test_atom_never_crashes(self, text):
        try:
            parse_atom(text)
        except (ParseError, ReproError):
            pass

    def test_specific_near_misses(self):
        for text in [
            "q(X) :-",
            "q(X) :- r(X,)",
            "q(X) :- r(X))",
            "(X) :- r(X)",
            "q(X) r(X)",
            "q(X) :- R(X)",  # uppercase predicate
        ]:
            with pytest.raises((ParseError, ReproError)):
                parse_query(text)


class TestCoqlParserFuzz:
    @given(garbage)
    @settings(max_examples=300, deadline=None)
    def test_never_crashes(self, text):
        try:
            parse_coql(text)
        except (ParseError, ReproError):
            pass

    def test_specific_near_misses(self):
        for text in [
            "select",
            "select x from",
            "select [v: x.a] from x",
            "select [v: x.a] from x in",
            "select [v x.a] from x in r",
            "select [v: x.a] from x in r where",
            "select [v: x.a] from x in r where x.a",
            "{",
            "[a: 1",
            "flatten(",
        ]:
            with pytest.raises((ParseError, ReproError)):
                parse_coql(text)

    def test_deeply_nested_input(self):
        text = "select [v: x.a] from x in r"
        for __ in range(12):
            text = "select [w: (%s)] from y in r" % text
        parse_coql(text)  # must parse without blowing the stack

    def test_each_nested_head_is_built_once(self, monkeypatch):
        # A select's head precedes the generators that bind its names;
        # re-parsing it once they are known would build the select at
        # nesting level k 2**k times (1023 nodes for these 10 levels).
        built = []

        class CountingSelect(coql_parser.Select):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(coql_parser, "Select", CountingSelect)
        text = "select [v: x9.a] from x9 in r"
        for level in range(8, -1, -1):
            text = "select [v: x%d.a, w: (%s)] from x%d in r" % (
                level, text, level)
        query = parse_coql(text)
        assert len(built) == 10
        assert isinstance(query, CountingSelect)

    def test_nesting_past_the_stack_is_a_parse_error(self):
        text = "r"
        for level in range(999, -1, -1):
            text = "select x%d from x%d in (%s)" % (level, level, text)
        with pytest.raises(ParseError, match="nested too deeply") as info:
            parse_coql(text)
        line, col = info.value.span
        assert line == 1 and 1 < col < len(text)
