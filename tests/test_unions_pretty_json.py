"""Tests for union queries, the COQL pretty-printer, and JSON I/O."""

import re

import pytest

from hypothesis import example, given, settings, strategies as st

from repro.errors import ReproError, IncomparableQueriesError, ValueConstructionError
from repro.cq import parse_query
from repro.cq.unions import UnionQuery, union_contains, union_equivalent
from repro.coql import parse_coql
from repro.coql.ast import Const, RecordExpr, RelRef, Select
from repro.coql.pretty import to_text
from repro.pipeline.fingerprint import fingerprint
from repro.objects import Record, CSet, Database
from repro.objects.json_io import (
    dumps_value,
    loads_value,
    dumps_database,
    loads_database,
)
from repro.workloads import random_flat_database, random_coql


class TestUnionQueries:
    def q(self, text):
        return parse_query(text)

    def test_disjunct_containment(self):
        u1 = UnionQuery([self.q("q(X) :- r(X, Y), s(Y)")])
        u2 = UnionQuery([self.q("q(X) :- r(X, Y)"), self.q("q(X) :- t(X)")])
        assert union_contains(u2, u1)
        assert not union_contains(u1, u2)

    def test_union_equivalence(self):
        u1 = UnionQuery(
            [self.q("q(X) :- r(X, Y)"), self.q("q(X) :- r(X, Y), s(Y)")]
        )
        u2 = UnionQuery([self.q("q(X) :- r(X, Y)")])
        assert union_equivalent(u1, u2)

    def test_minimize_drops_redundant_disjuncts(self):
        u = UnionQuery(
            [self.q("q(X) :- r(X, Y)"), self.q("q(X) :- r(X, Y), s(Y)")]
        )
        assert len(u.minimize().disjuncts) == 1

    def test_evaluate_unions_answers(self):
        u = UnionQuery([self.q("q(X) :- r(X, Y)"), self.q("q(Y) :- r(X, Y)")])
        db = Database.from_dict({"r": [{"c00": 1, "c01": 2}]})
        assert u.evaluate(db) == frozenset({(1,), (2,)})

    def test_semantic_soundness(self):
        u1 = UnionQuery([self.q("q(X) :- r(X, Y), s(Y)")])
        u2 = UnionQuery([self.q("q(X) :- r(X, Y)"), self.q("q(X) :- t(X)")])
        assert union_contains(u2, u1)
        for seed in range(6):
            db = random_flat_database({"r": 2, "s": 1, "t": 1}, rows=4,
                                      domain=3, seed=seed)
            assert u1.evaluate(db) <= u2.evaluate(db)

    def test_arity_checks(self):
        with pytest.raises(IncomparableQueriesError):
            UnionQuery([self.q("q(X) :- r(X, Y)"), self.q("q(X, Y) :- r(X, Y)")])
        with pytest.raises(ReproError):
            UnionQuery([])

    def test_bare_cqs_accepted(self):
        assert union_contains(
            self.q("q(X) :- r(X, Y)"), self.q("q(X) :- r(X, Y), s(Y)")
        )


class TestPrettyPrinter:
    ROUND_TRIPS = [
        "select [v: x.a] from x in r",
        "select [v: x.a] from x in r where x.b = 2",
        'select [v: x.a, w: "blue"] from x in r, y in s where x.a = y.k',
        "select [a: x.a, kids: select [b: y.b] from y in s where y.k = x.a]"
        " from x in r",
        "flatten(select {x.a} from x in r)",
        "{3}",
        "{}",
        "select (select {y.b} from y in s) from x in r",
        "select [v: z.w] from z in (select [w: x.a] from x in r)",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_round_trip(self, text):
        expr = parse_coql(text)
        assert parse_coql(to_text(expr)) == expr

    @given(st.integers(0, 2000), st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, seed, depth):
        expr = parse_coql(random_coql(seed=seed, depth=depth))
        assert parse_coql(to_text(expr)) == expr

    def test_string_escaping(self):
        expr = parse_coql('select [v: "say \\"hi\\""] from x in r')
        assert parse_coql(to_text(expr)) == expr

    @staticmethod
    def _with_constant(value):
        return Select(RecordExpr({"v": Const(value)}), [("x", RelRef("r"))])

    @given(st.one_of(st.floats(), st.text()))
    @example(float("inf"))
    @example(float("nan"))
    @example(1e20)
    @example("x\\")
    @example('x\\"y')
    @example("a\\'b")
    @settings(max_examples=300, deadline=None)
    def test_constants_round_trip_or_raise(self, value):
        expr = self._with_constant(value)
        try:
            text = to_text(expr)
        except ReproError:
            return
        parsed = parse_coql(text)
        assert parsed == expr
        # Equal fingerprints also rule out 1e20 coming back as an int.
        assert fingerprint(parsed) == fingerprint(expr)

    @pytest.mark.parametrize("value", [1e20, 1e-07, -0.0, 5e-324, 0.1])
    def test_floats_render_positionally(self, value):
        text = to_text(self._with_constant(value))
        literal = text[len("select [v: "):text.index("]")]
        assert re.fullmatch(r"-?\d+\.\d+", literal), literal
        assert float(literal) == value


class TestJsonIO:
    values_strategy = st.recursive(
        st.one_of(st.integers(0, 5), st.sampled_from(["x", "y"])),
        lambda inner: st.one_of(
            st.dictionaries(
                st.sampled_from(["a", "b"]), inner, min_size=1, max_size=2
            ).map(Record),
            st.lists(inner, max_size=3).map(CSet),
        ),
        max_leaves=6,
    )

    @given(values_strategy)
    @settings(max_examples=80, deadline=None)
    def test_value_round_trip(self, value):
        assert loads_value(dumps_value(value)) == value

    def test_database_round_trip(self):
        db = Database.from_dict(
            {
                "emp": [
                    {"name": "ann", "kids": [{"k": "bo"}]},
                    {"name": "dan", "kids": []},
                ]
            }
        )
        assert loads_database(dumps_database(db)) == db

    def test_null_rejected(self):
        with pytest.raises(ValueConstructionError):
            loads_value("null")
        with pytest.raises(ValueConstructionError):
            loads_value('{"a": null}')

    def test_duplicates_collapse(self):
        assert loads_value("[1, 1, 2]") == CSet([1, 2])

    def test_non_object_rows_rejected(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            loads_database('{"r": [1, 2]}')
