"""Tests for the abstract interpreter (:mod:`repro.analysis.interp`).

Three layers, mirroring the module:

* the abstract domains (cardinality intervals, sampled statistics) and
  their algebra;
* :func:`interpret` — total on arbitrary ASTs, sound facts on real
  queries (dead conditions, fan-out, generator cardinalities);
* the certificates — ``component_node_bound`` / ``pair_certificate`` /
  ``cost_certificate`` must *dominate* the measured
  ``SearchCounters.nodes`` of the searches they budget.
"""

import json
import pickle

import pytest

from hypothesis import given, settings, strategies as st

from repro.analysis.interp import (
    INF,
    PATTERN_ENUMERATION_CAP,
    ColumnStats,
    CostCertificate,
    DatabaseStatistics,
    Interval,
    component_node_bound,
    cost_certificate,
    format_bound,
    interpret,
    pair_certificate,
    target_row_bounds,
)
from repro.coql.ast import (
    EmptySet,
    Flatten,
    Proj,
    RecordExpr,
    RelRef,
    Select,
    Singleton,
    VarRef,
)
from repro.coql.parser import parse_coql
from repro.cq.homomorphism import SearchCounters, install_search_counters
from repro.engine import ContainmentEngine
from repro.errors import ParseError, ReproError
from repro.cq.terms import Atom, Var
from repro.grouping import GroupingNode, GroupingQuery, is_simulated
from repro.objects import Database
from repro.workloads import chain_grouping_query


def clique_grouping(n, rays, name):
    """The E11 pigeonhole adversary (single node, so any two instances
    are shape-comparable)."""
    atoms = tuple(
        Atom("e", (Var("V%d" % i), Var("V%d" % j)))
        for i in range(n)
        for j in range(n)
        if i != j
    ) + tuple(
        Atom("p", (Var("U0"), Var("U%d" % i))) for i in range(1, rays + 1)
    )
    return GroupingQuery(
        GroupingNode("", atoms, {"c0": Var("V0")}, (), ()), name
    )

SCHEMA = {"r": ("a", "b"), "s": ("b", "c")}

DB = Database.from_dict({
    "r": [{"a": 1, "b": 2}, {"a": 2, "b": 3}],
    "s": [{"b": 2, "c": 10}],
})


@pytest.fixture
def counters():
    sink = SearchCounters()
    previous = install_search_counters(sink)
    yield sink
    install_search_counters(previous)


# -- the interval domain -----------------------------------------------


class TestInterval:
    def test_constructors_and_predicates(self):
        assert Interval.top() == Interval(0, INF)
        assert Interval.point(3) == Interval(3, 3)
        assert Interval.point(1).is_singleton
        assert not Interval.point(2).is_singleton
        assert Interval.top().is_unbounded
        assert Interval.point(0).is_empty
        assert not Interval(0, 1).is_empty

    def test_times_is_cross_join_cardinality(self):
        assert Interval(1, 2).times(Interval(3, 4)) == Interval(3, 8)
        assert Interval.point(0).times(Interval.top()) == Interval.point(0)
        assert Interval(1, INF).times(Interval(2, 5)) == Interval(2, INF)

    def test_join_is_interval_hull(self):
        assert Interval(1, 2).join(Interval(4, 5)) == Interval(1, 5)
        assert Interval(0, INF).join(Interval(3, 3)) == Interval(0, INF)

    def test_with_zero_widens_only_the_floor(self):
        assert Interval(2, 7).with_zero() == Interval(0, 7)
        top = Interval.top()
        assert top.with_zero() is top

    def test_str(self):
        assert str(Interval(0, INF)) == "[0, inf]"
        assert str(Interval.point(4)) == "[4, 4]"


class TestFormatBound:
    def test_rendering_tiers(self):
        assert format_bound(INF) == "inf"
        assert format_bound(42) == "42"
        assert format_bound(10**7) == "~1.00e+07"
        assert format_bound(19004963774880799438808).startswith("~1.90e+22")


# -- sampled statistics ------------------------------------------------


class TestDatabaseStatistics:
    def test_sample_pins_cardinalities(self):
        stats = DatabaseStatistics.sample(DB)
        assert stats.relation_cardinality("r") == Interval.point(2)
        assert stats.relation_cardinality("s") == Interval.point(1)
        assert stats.relation_cardinality("missing") is None

    def test_sample_collects_complete_value_sets(self):
        stats = DatabaseStatistics.sample(DB)
        assert stats.column_values("r", "a") == frozenset({1, 2})
        assert stats.column_values("s", "c") == frozenset({10})
        assert stats.column_values("r", "nope") is None

    def test_truncated_columns_cannot_refute(self):
        wide = Database.from_dict(
            {"t": [{"k": i} for i in range(10)]}
        )
        stats = DatabaseStatistics.sample(wide, max_values=4)
        assert stats.column_values("t", "k") is None
        # ... but the row count is still exact.
        assert stats.relation_cardinality("t") == Interval.point(10)
        column = stats.relations["t"].columns["k"]
        assert column == ColumnStats(10, None)

    def test_as_dict_reports_completeness(self):
        payload = DatabaseStatistics.sample(DB).as_dict()
        assert payload["r"]["rows"] == 2
        assert payload["r"]["columns"]["a"] == {
            "distinct": 2, "complete": True,
        }
        json.dumps(payload)  # JSON-safe


# -- interpret: facts on real queries ----------------------------------


class TestInterpret:
    def test_flat_select_facts(self):
        facts = interpret(parse_coql("select [v: x.a] from x in r"))
        (gen,) = facts.generators
        assert gen.var == "x" and gen.relation == "r"
        assert gen.card == Interval.top()
        (sel,) = facts.selects
        assert not sel.nested
        assert facts.card == Interval.top()
        assert facts.fanout() == ()

    def test_stats_sharpen_cardinalities(self):
        stats = DatabaseStatistics.sample(DB)
        facts = interpret(
            parse_coql("select [v: x.a] from x in r"), stats=stats
        )
        assert facts.card == Interval.point(2)
        (gen,) = facts.generators
        assert gen.card == Interval.point(2)

    def test_conditions_widen_the_floor(self):
        facts = interpret(
            parse_coql("select [v: x.a] from x in r where x.a = 1"),
            stats=DatabaseStatistics.sample(DB),
        )
        assert facts.card == Interval(0, 2)

    def test_universal_contradiction_is_dead_everywhere(self):
        facts = interpret(parse_coql(
            "select [v: x.a] from x in r where x.a = 1 and x.a = 2"
        ))
        (dead,) = facts.dead_conditions
        assert dead.universal
        assert facts.card.is_empty

    def test_transitive_contradiction_through_union_find(self):
        facts = interpret(parse_coql(
            "select [v: x.a] from x in r "
            "where x.a = 1 and x.b = x.a and x.b = 2"
        ))
        assert any(d.universal for d in facts.dead_conditions)
        assert facts.card.is_empty

    def test_stats_refute_disjoint_value_sets(self):
        stats = DatabaseStatistics.sample(DB)
        facts = interpret(
            parse_coql("select [v: x.a] from x in r where x.a = 5"),
            stats=stats,
        )
        (dead,) = facts.dead_conditions
        assert not dead.universal  # dead on THIS database only
        assert facts.card.is_empty

    def test_stats_refute_disjoint_columns(self):
        stats = DatabaseStatistics.sample(DB)
        facts = interpret(
            parse_coql(
                "select [v: x.a] from x in r, y in s where x.a = y.c"
            ),
            stats=stats,  # r.a = {1,2}, s.c = {10}: disjoint
        )
        assert len(facts.dead_conditions) == 1

    def test_satisfiable_conditions_stay_alive(self):
        stats = DatabaseStatistics.sample(DB)
        facts = interpret(
            parse_coql(
                "select [v: x.a] from x in r, y in s where x.b = y.b"
            ),
            stats=stats,  # r.b = {2,3}, s.b = {2}: overlap
        )
        assert facts.dead_conditions == ()

    def test_no_stats_no_value_refutation(self):
        facts = interpret(
            parse_coql("select [v: x.a] from x in r where x.a = 5")
        )
        assert facts.dead_conditions == ()

    def test_singleton_generator_card(self):
        facts = interpret(
            parse_coql("select [v: x.a] from x in {[a: 1]}")
        )
        (gen,) = facts.generators
        assert gen.card.is_singleton

    def test_nested_select_fanout(self):
        facts = interpret(parse_coql(
            "select [a: x.a, ys: select y.c from y in s where y.b = x.b]"
            " from x in r"
        ))
        nested = [s for s in facts.selects if s.nested]
        assert len(nested) == 1
        ((path, hi),) = facts.fanout()
        assert ".ys" in path and hi == INF

    def test_stats_bound_the_fanout(self):
        facts = interpret(
            parse_coql(
                "select [a: x.a, ys: select y.c from y in s"
                " where y.b = x.b] from x in r"
            ),
            stats=DatabaseStatistics.sample(DB),
        )
        ((__, hi),) = facts.fanout()
        assert hi == 1  # s has one row

    def test_spans_point_into_multiline_source(self):
        source = (
            "select [v: x.a,\n"
            "        w: x.b]\n"
            "from x in r\n"
            "where x.a = 1\n"
            "  and x.a = 2"
        )
        facts = interpret(parse_coql(source))
        (dead,) = facts.dead_conditions
        assert dead.span is not None
        line, __ = dead.span
        assert line >= 4  # the conditions live on lines 4-5
        (gen,) = facts.generators
        assert gen.span is not None and gen.span[0] == 3

    def test_facts_as_dict_is_json_safe(self):
        facts = interpret(parse_coql(
            "select [a: x.a, ys: select y.c from y in s where y.b = x.b]"
            " from x in r"
        ))
        payload = json.loads(json.dumps(facts.as_dict()))
        assert payload["card"] == {"lo": 0, "hi": "inf"}
        assert any(s["nested"] for s in payload["selects"])


class TestInterpretTotality:
    """interpret() must be total: garbage in, sound trivial facts out."""

    def _check(self, facts):
        assert facts.card.lo >= 0
        assert facts.card.lo <= facts.card.hi
        for fact in facts.selects:
            assert fact.out_card.lo >= 0
            assert fact.out_card.lo <= fact.out_card.hi
        for gen in facts.generators:
            assert gen.card.lo >= 0

    @given(st.text(
        alphabet=list("qrsxyzXYZ()[]{},.=:123\"' infromselectwher"),
        min_size=0, max_size=40,
    ))
    @settings(max_examples=200, deadline=None)
    def test_never_crashes_on_fuzzed_parses(self, text):
        """Whatever the parser accepts, the interpreter abstracts."""
        try:
            query = parse_coql(text)
        except (ParseError, ReproError):
            return
        self._check(interpret(query))

    def test_non_ast_garbage_yields_top(self):
        for garbage in [None, 42, "not an ast", object(), [1, 2]]:
            facts = interpret(garbage)
            assert facts.card == Interval.top()
            assert facts.selects == ()

    def test_ill_typed_asts_survive(self):
        # A select nested inside a condition is ill-typed but must not
        # crash the interpreter.
        inner = Select(RecordExpr({"v": Proj(VarRef("y"), "a")}),
                       [("y", RelRef("r"))])
        query = Select(
            RecordExpr({"v": Proj(VarRef("x"), "a")}),
            [("x", RelRef("r"))],
            [(inner, inner)],
        )
        self._check(interpret(query))

    def test_exotic_shapes(self):
        for query in [
            EmptySet(),
            Singleton(Singleton(EmptySet())),
            Flatten(RelRef("r")),
            Flatten(Flatten(VarRef("free"))),
            Proj(Proj(VarRef("x"), "a"), "b"),
        ]:
            self._check(interpret(query))

    def test_deeply_nested_does_not_blow_the_stack(self):
        text = "select [v: x.a] from x in r"
        for __ in range(12):
            text = "select [w: (%s)] from y in r" % text
        self._check(interpret(parse_coql(text)))


# -- search-node bounds ------------------------------------------------


class TestComponentNodeBound:
    def test_algebra(self):
        assert component_node_bound([]) == 0
        assert component_node_bound([1]) == 1
        assert component_node_bound([1, 1]) == 3
        assert component_node_bound([2, 3]) == 11
        assert component_node_bound([0, 5]) == 5

    def test_counts_nonempty_partial_assignments(self):
        # prod(1 + c_i) enumerates each atom's "absent or one row"
        # choice; minus one for the all-absent root.
        counts = [2, 1, 3]
        expected = (1 + 2) * (1 + 1) * (1 + 3) - 1
        assert component_node_bound(counts) == expected


class TestTargetRowBounds:
    def test_chain_counts_match_target_construction(self):
        sub = chain_grouping_query(3)
        rows = target_row_bounds(sub, witnesses=1)
        assert rows  # at least the root atoms
        for count in rows.values():
            assert count > 0
        # More witnesses mean more (never fewer) target rows.
        more = target_row_bounds(sub, witnesses=3)
        assert all(more[key] >= rows[key] for key in rows)


# -- certificates: soundness against measured searches -----------------


def measured_nodes(counters, fn):
    counters.reset()
    result = fn()
    return result, counters.nodes


class TestPairCertificate:
    def test_dominates_reflexive_simulation(self, counters):
        sub = chain_grouping_query(3)
        sup = chain_grouping_query(3).rename_apart("_p")
        certificate = pair_certificate(sub, sup)
        verdict, nodes = measured_nodes(
            counters, lambda: is_simulated(sub, sup)
        )
        assert verdict is True
        assert nodes <= certificate.total_bound

    def test_dominates_the_clique_refutation(self, counters):
        sub = clique_grouping(3, 2, "k3")
        sup = clique_grouping(4, 2, "k4")
        certificate = pair_certificate(sub, sup, witnesses=1)
        verdict, nodes = measured_nodes(
            counters, lambda: is_simulated(sub, sup, witnesses=1)
        )
        assert verdict is False
        assert nodes <= certificate.total_bound

    def test_pinned_witnesses_collapse_stages(self):
        sub = chain_grouping_query(2)
        sup = chain_grouping_query(2).rename_apart("_p")
        pinned = pair_certificate(sub, sup, witnesses=2)
        assert pinned.witness_stages == (2,)
        escalating = pair_certificate(sub, sup)
        assert escalating.witness_stages[0] == 1
        assert escalating.total_bound >= pinned.total_bound or (
            len(escalating.witness_stages) == 1
        )

    def test_enumerates_patterns_under_the_cap(self):
        sub = chain_grouping_query(2)
        sup = chain_grouping_query(2).rename_apart("_p")
        certificate = pair_certificate(
            sub, sup, witnesses=1, is_nonempty=lambda q, path: False
        )
        assert certificate.patterns_enumerated
        # One optional path -> full + truncated pattern.
        assert certificate.patterns == 2

    def test_cap_falls_back_to_exponential_envelope(self):
        sub = chain_grouping_query(PATTERN_ENUMERATION_CAP + 2)
        sup = chain_grouping_query(PATTERN_ENUMERATION_CAP + 2)
        certificate = pair_certificate(
            sub, sup, witnesses=1, is_nonempty=lambda q, path: False
        )
        assert not certificate.patterns_enumerated
        assert certificate.patterns == 2 ** (PATTERN_ENUMERATION_CAP + 1)

    def test_as_dict_handles_astronomical_bounds(self):
        sub = chain_grouping_query(4)
        sup = chain_grouping_query(4).rename_apart("_p")
        payload = pair_certificate(sub, sup).as_dict()
        json.dumps(payload)  # big ints are valid JSON
        assert payload["total_bound"] == (
            pair_certificate(sub, sup).total_bound
        )


class TestCostCertificate:
    NESTED = (
        "select [a: x.a, ys: select y.c from y in s where y.b = x.b]"
        " from x in r"
    )

    def test_dominates_full_engine_check(self, counters):
        certificate = ContainmentEngine().cost_certificate(
            self.NESTED, SCHEMA, against=self.NESTED
        )
        engine = ContainmentEngine()
        verdict, nodes = measured_nodes(
            counters,
            lambda: engine.contains(self.NESTED, self.NESTED, SCHEMA),
        )
        assert verdict is True
        assert nodes <= certificate.total_bound

    def test_carries_ast_facts(self):
        certificate = cost_certificate(
            self.NESTED, SCHEMA, engine=ContainmentEngine()
        )
        assert certificate.facts is not None
        assert certificate.output_cardinality is not None
        assert certificate.fanout  # the nested select shows up

    def test_statically_settled_pair_skips_the_search(self):
        empty = (
            "select [v: x.a] from x in r where x.a = 1 and x.a = 2"
        )
        certificate = cost_certificate(
            empty, SCHEMA, against="select [v: x.a] from x in r",
            engine=ContainmentEngine(),
        )
        assert certificate.settled is True
        assert certificate.total_bound == 0
        assert "settled statically" in certificate.explain()

    def test_explain_is_self_contained(self):
        text = cost_certificate(
            self.NESTED, SCHEMA, engine=ContainmentEngine()
        ).explain()
        assert "total node bound" in text
        assert "witness stages" in text
        assert "atom(s), rows" in text
        assert "strategy" not in text

    def test_certificate_is_picklable(self):
        certificate = cost_certificate(
            self.NESTED, SCHEMA, engine=ContainmentEngine()
        )
        clone = pickle.loads(pickle.dumps(certificate))
        assert clone.total_bound == certificate.total_bound

    def test_engine_caches_the_pair_core(self):
        engine = ContainmentEngine()
        first = engine.cost_certificate(self.NESTED, SCHEMA)
        second = engine.cost_certificate(self.NESTED, SCHEMA)
        assert first.total_bound == second.total_bound
        assert engine.stats().counter("cost_certificate_hits") > 0
