"""The containment engine: memoization, instrumentation, batch APIs,
and the API-consistency bugfixes that rode along with it (method
threading through equivalence, truncate validation, shared
provably-non-empty verdicts)."""

import pytest

from repro.errors import (
    ReproError,
    IncomparableQueriesError,
    UnsupportedQueryError,
)
from repro.coql import contains, weakly_equivalent, equivalent, ViewCatalog
from repro.coql.containment import (
    prepare,
    _contains_encoded,
    _provably_nonempty,
    empty_set_free,
)
from repro.engine import ContainmentEngine, EngineStats, default_engine
from repro.workloads import company_scenario, orders_scenario
from repro.workloads.generators import (
    random_coql,
    random_coql_deep,
    chain_grouping_query,
)

SCHEMA = {"r": ("a", "b"), "s": ("k", "b")}

LINKED = (
    "select [a: x.a, kids: select [b: y.b] from y in r where y.a = x.a]"
    " from x in r"
)
UNLINKED = (
    "select [a: x.a, kids: select [b: y.b] from y in s where y.k = x.a]"
    " from x in r"
)
WIDER = "select [a: x.a, kids: select [b: y.b] from y in s] from x in r"
FLAT = "select [v: x.a] from x in r"
FLAT_RESTRICTED = "select [v: x.a] from x in r, y in s where y.b = x.b"


class TestEngineAgreesWithReferencePipeline:
    def pairs(self):
        queries = [LINKED, UNLINKED, WIDER, FLAT]
        queries += [random_coql(seed=s) for s in range(6)]
        return [(a, b) for a in queries for b in queries]

    def test_verdicts_match_uncached_path(self):
        engine = ContainmentEngine()
        for sup, sub in self.pairs():
            try:
                expected = _contains_encoded(
                    prepare(sup, SCHEMA, "sup"), prepare(sub, SCHEMA, "sub")
                )
            except (IncomparableQueriesError, UnsupportedQueryError) as exc:
                with pytest.raises(type(exc)):
                    engine.contains(sup, sub, SCHEMA)
                continue
            assert engine.contains(sup, sub, SCHEMA) == expected, (sup, sub)

    def test_module_level_functions_delegate(self):
        assert contains(WIDER, UNLINKED, SCHEMA)
        assert not contains(UNLINKED, WIDER, SCHEMA)
        assert weakly_equivalent(LINKED, LINKED, SCHEMA)
        assert default_engine().stats().counter("contains_calls") > 0


class TestMemoization:
    def test_repeated_check_hits_all_caches(self):
        engine = ContainmentEngine()
        assert engine.contains(WIDER, UNLINKED, SCHEMA)
        stats = engine.stats()
        misses = stats.counter("obligation_cache_misses")
        assert misses > 0
        assert stats.counter("prepare_misses") == 2
        assert engine.contains(WIDER, UNLINKED, SCHEMA)
        assert stats.counter("prepare_hits") == 2
        assert stats.counter("obligation_cache_hits") == misses
        assert stats.counter("obligation_cache_misses") == misses

    def test_equivalence_shares_obligations_across_directions(self):
        engine = ContainmentEngine()
        assert engine.weakly_equivalent(UNLINKED, UNLINKED, SCHEMA)
        stats = engine.stats()
        # Both directions pose the same truncated (sub, sup) pairs: the
        # second direction must be answered entirely from cache.
        assert stats.counter("obligation_cache_hits") == stats.counter(
            "obligation_cache_misses"
        )
        assert stats.counter("obligations_checked") == stats.counter(
            "obligation_cache_misses"
        )

    def test_cache_disabled_engine_recomputes(self):
        engine = ContainmentEngine(
            prepare_cache_size=0, verdict_cache_size=0
        )
        assert engine.contains(WIDER, UNLINKED, SCHEMA)
        assert engine.contains(WIDER, UNLINKED, SCHEMA)
        stats = engine.stats()
        assert stats.counter("prepare_hits") == 0
        assert stats.counter("obligation_cache_hits") == 0
        assert stats.counter("prepare_misses") == 4

    def test_text_and_ast_share_one_prepare_entry(self):
        from repro.coql import parse_coql

        engine = ContainmentEngine()
        engine.prepare(FLAT, SCHEMA)
        engine.prepare(parse_coql(FLAT), SCHEMA)
        stats = engine.stats()
        assert stats.counter("prepare_misses") == 1
        assert stats.counter("prepare_hits") == 1

    def test_clear_caches_and_reset_stats(self):
        engine = ContainmentEngine()
        engine.contains(WIDER, UNLINKED, SCHEMA)
        assert engine.cache_sizes()["prepare"] == 2
        engine.clear_caches()
        assert engine.cache_sizes() == {
            "prepare": 0,
            "obligation_verdicts": 0,
            "nonempty": 0,
            "targets": 0,
            "cost_certificate": 0,
            "branch_verdict": 0,
            "chase": 0,
        }
        engine.reset_stats()
        assert engine.stats().as_dict()["homomorphism_nodes"] == 0
        assert engine.stats().counter("contains_calls") == 0
        assert engine.contains(WIDER, UNLINKED, SCHEMA)


class TestInstrumentation:
    def test_homomorphism_counters_tick(self):
        engine = ContainmentEngine()
        engine.contains(WIDER, UNLINKED, SCHEMA)
        stats = engine.stats()
        assert stats.search.nodes > 0
        assert stats.counter("obligations_checked") > 0
        assert stats.counter("certificate_searches") > 0

    def test_stage_timers_cover_pipeline(self):
        engine = ContainmentEngine()
        engine.contains(WIDER, UNLINKED, SCHEMA)
        data = engine.stats().as_dict()
        for stage in ("parse", "typecheck", "normalize", "encode",
                      "obligations", "simulation"):
            assert data["time_" + stage] >= 0.0

    def test_skipped_implied_obligations_counted(self):
        # UNLINKED has one possibly-empty child: 2 patterns, 0 skipped.
        # LINKED's child is provably non-empty: 1 pattern, 1 skipped.
        engine = ContainmentEngine()
        engine.contains(LINKED, LINKED, SCHEMA)
        assert engine.stats().counter("obligations_skipped_implied") == 1

    def test_counters_do_not_leak_outside_engine_calls(self):
        from repro.cq.homomorphism import SearchCounters
        from repro.cq.propagation import active_counters

        assert active_counters() is None or isinstance(
            active_counters(), SearchCounters
        )
        engine = ContainmentEngine()
        before = active_counters()
        engine.contains(WIDER, UNLINKED, SCHEMA)
        assert active_counters() is before

    def test_stats_format_is_textual(self):
        engine = ContainmentEngine()
        engine.contains(WIDER, UNLINKED, SCHEMA)
        text = engine.stats().format()
        assert "obligations_checked" in text
        assert "homomorphism_nodes" in text


class TestWitnessSchedule:
    """Unconstrained checks decide with one witness copy (the retraction
    lemma, DESIGN.md §2), after a value-pinning pass that builds no
    target."""

    def test_cold_matrix_never_escalates(self):
        engine = ContainmentEngine()
        catalog = [random_coql_deep(seed=s, depth=2 + s % 2) for s in range(12)]
        engine.pairwise_matrix(catalog, SCHEMA)
        stats = engine.stats()
        assert stats.counter("witness_escalations") == 0
        assert stats.counter("obligations_checked") == 81

    def test_pinning_refutation_builds_no_target(self):
        # sup's x.a must equal both of sub's columns a and b: no
        # certificate exists, whatever the target.
        engine = ContainmentEngine()
        sub = prepare("select [v: x.a, w: x.b] from x in r", SCHEMA).query
        sup = prepare("select [v: x.a, w: x.a] from x in r", SCHEMA).query
        assert engine.simulated(sub, sup) is False
        stats = engine.stats()
        assert stats.counter("target_cache_misses") == 0
        assert stats.counter("certificate_searches") == 0


class TestEngineStatsMerge:
    def test_merge_adds_every_field(self):
        left = EngineStats()
        left.tally("obligations_checked", 3)
        left.tally("only_left", 1)
        left.add_time("simulation", 0.25)
        left.search.nodes = 10
        left.search.backtracks = 2
        right = EngineStats()
        right.tally("obligations_checked", 4)
        right.tally("only_right", 7)
        right.add_time("simulation", 0.5)
        right.add_time("parse", 0.125)
        right.search.nodes = 5
        right.search.backtracks = 1
        result = left.merge(right)
        assert result is left
        assert left.counter("obligations_checked") == 7
        assert left.counter("only_left") == 1
        assert left.counter("only_right") == 7  # worker-only counters kept
        assert left.time("simulation") == 0.75
        assert left.time("parse") == 0.125
        assert left.search.nodes == 15
        assert left.search.backtracks == 3

    def test_merge_leaves_other_untouched(self):
        left, right = EngineStats(), EngineStats()
        right.tally("x", 2)
        left.merge(right)
        left.tally("x", 100)
        assert right.counter("x") == 2

    def test_merge_rejects_non_stats(self):
        with pytest.raises(TypeError):
            EngineStats().merge({"x": 1})

    def test_merge_of_real_engine_stats_matches_sum(self):
        one, two = ContainmentEngine(), ContainmentEngine()
        one.contains(WIDER, UNLINKED, SCHEMA)
        two.contains(FLAT, FLAT_RESTRICTED, SCHEMA)
        expected_obligations = (
            one.stats().counter("obligations_checked")
            + two.stats().counter("obligations_checked")
        )
        expected_nodes = one.stats().search.nodes + two.stats().search.nodes
        one.stats().merge(two.stats())
        assert one.stats().counter("obligations_checked") == expected_obligations
        assert one.stats().search.nodes == expected_nodes


class TestStatsAggregationExhaustiveness:
    """Round-trip guarantee: every SearchCounters field survives
    merge/as_dict/reset, by dataclass-fields introspection — a counter
    added to SearchCounters can never be silently dropped from the
    aggregation paths again."""

    def _distinct(self, offset):
        from dataclasses import fields

        from repro.cq.homomorphism import SearchCounters

        counters = SearchCounters()
        for index, field in enumerate(fields(SearchCounters)):
            setattr(counters, field.name, offset + index)
        return counters

    def test_search_counters_is_introspectable(self):
        from dataclasses import fields, is_dataclass

        from repro.cq.homomorphism import SearchCounters

        assert is_dataclass(SearchCounters)
        names = [field.name for field in fields(SearchCounters)]
        assert set(names) >= {
            "nodes", "backtracks", "domain_wipeouts", "components_solved",
        }

    def test_merge_covers_every_field(self):
        from dataclasses import fields

        from repro.cq.homomorphism import SearchCounters

        left, right = self._distinct(100), self._distinct(1000)
        result = left.merge(right)
        assert result is left
        for index, field in enumerate(fields(SearchCounters)):
            assert getattr(left, field.name) == 1100 + 2 * index, field.name

    def test_as_dict_covers_every_field(self):
        from dataclasses import fields

        from repro.cq.homomorphism import SearchCounters

        counters = self._distinct(7)
        as_dict = counters.as_dict()
        assert set(as_dict) == {f.name for f in fields(SearchCounters)}
        for index, field in enumerate(fields(SearchCounters)):
            assert as_dict[field.name] == 7 + index

    def test_reset_covers_every_field(self):
        from dataclasses import fields

        from repro.cq.homomorphism import SearchCounters

        counters = self._distinct(3)
        counters.reset()
        for field in fields(SearchCounters):
            assert getattr(counters, field.name) == 0, field.name

    def test_engine_stats_round_trip_exposes_every_field(self):
        from dataclasses import fields

        from repro.cq.homomorphism import SearchCounters

        one, two = EngineStats(), EngineStats()
        one.search = self._distinct(10)
        two.search = self._distinct(20)
        one.merge(two)
        as_dict = one.as_dict()
        for index, field in enumerate(fields(SearchCounters)):
            key = "homomorphism_" + field.name
            assert key in as_dict, key
            assert as_dict[key] == 30 + 2 * index


class TestMethodThreadingBugfix:
    """`weakly_equivalent`/`equivalent` used to ignore method=."""

    def test_weakly_equivalent_canonical_end_to_end(self):
        engine = ContainmentEngine()
        assert engine.weakly_equivalent(
            UNLINKED, UNLINKED, SCHEMA, method="canonical"
        )
        # The canonical path never runs the NP certificate search.
        assert engine.stats().counter("certificate_searches") == 0

    def test_equivalent_canonical_end_to_end(self):
        engine = ContainmentEngine()
        assert engine.equivalent(FLAT, FLAT, SCHEMA, method="canonical")
        assert not engine.equivalent(
            FLAT, FLAT_RESTRICTED, SCHEMA, method="canonical"
        )
        assert engine.stats().counter("certificate_searches") == 0

    def test_module_level_regression(self):
        assert weakly_equivalent(LINKED, LINKED, SCHEMA, method="canonical")
        assert equivalent(FLAT, FLAT, SCHEMA, method="canonical")

    def test_unknown_method_now_rejected_everywhere(self):
        with pytest.raises(UnsupportedQueryError):
            contains(FLAT, FLAT, SCHEMA, method="nope")
        with pytest.raises(UnsupportedQueryError):
            weakly_equivalent(FLAT, FLAT, SCHEMA, method="nope")
        with pytest.raises(UnsupportedQueryError):
            equivalent(FLAT, FLAT, SCHEMA, method="nope")

    def test_methods_agree_on_mixed_verdicts(self):
        engine = ContainmentEngine()
        for sup, sub in [(WIDER, UNLINKED), (UNLINKED, WIDER),
                         (FLAT, FLAT_RESTRICTED), (FLAT_RESTRICTED, FLAT)]:
            assert engine.contains(
                sup, sub, SCHEMA, method="certificate"
            ) == engine.contains(sup, sub, SCHEMA, method="canonical")


class TestTruncateValidationBugfix:
    """truncate used to drop unknown / orphaned paths silently."""

    def test_unknown_path_raises(self):
        query = prepare(UNLINKED, SCHEMA).query
        with pytest.raises(ReproError, match="absent from query"):
            query.truncate({(), ("kids",), ("nope",)})

    def test_non_prefix_closed_raises(self):
        chain = chain_grouping_query(3)
        with pytest.raises(ReproError, match="prefix-closed"):
            chain.truncate({(), ("n1", "n2")})

    def test_valid_truncations_still_work(self):
        chain = chain_grouping_query(3)
        assert chain.truncate({()}).depth() == 1
        assert chain.truncate({(), ("n1",)}).depth() == 2
        assert chain.truncate({(), ("n1",), ("n1", "n2")}).depth() == 3


class TestNonemptyMemoBugfix:
    """The provably-non-empty test is decided once per (query, path)."""

    def test_memoized_verdicts_match_reference(self):
        engine = ContainmentEngine()
        corpus = [LINKED, UNLINKED, WIDER] + [
            random_coql(seed=s) for s in range(8)
        ]
        for text in corpus:
            encoded = prepare(text, SCHEMA)
            if encoded.is_empty:
                continue
            for path in encoded.query.paths():
                if not path:
                    continue
                assert engine._provably_nonempty(
                    encoded.query, path
                ) == _provably_nonempty(encoded.query, path), (text, path)

    def test_empty_set_free_matches_module_and_hits_cache(self):
        engine = ContainmentEngine()
        assert engine.empty_set_free(LINKED, SCHEMA)
        assert not engine.empty_set_free(UNLINKED, SCHEMA)
        assert empty_set_free(LINKED, SCHEMA)
        assert not empty_set_free(UNLINKED, SCHEMA)
        # The same (query, path) pairs recur between empty_set_free and
        # the obligation enumeration of a containment check.
        engine.contains(LINKED, LINKED, SCHEMA)
        engine.contains(UNLINKED, UNLINKED, SCHEMA)
        assert engine.stats().counter("nonempty_hits") > 0


class TestBatchAPIs:
    def test_contains_many_orders_and_verdicts(self):
        engine = ContainmentEngine()
        verdicts = engine.contains_many(
            [(WIDER, UNLINKED), (UNLINKED, WIDER), (FLAT, FLAT)], SCHEMA
        )
        assert verdicts == [True, False, True]

    def test_contains_many_capture_mode(self):
        engine = ContainmentEngine()
        verdicts = engine.contains_many(
            [(FLAT, FLAT), (FLAT, UNLINKED), (WIDER, UNLINKED)],
            SCHEMA,
            on_error="capture",
        )
        assert verdicts[0] is True
        assert isinstance(verdicts[1], IncomparableQueriesError)
        assert verdicts[2] is True

    def test_contains_many_raise_mode_propagates(self):
        engine = ContainmentEngine()
        with pytest.raises(IncomparableQueriesError):
            engine.contains_many([(FLAT, UNLINKED)], SCHEMA)
        with pytest.raises(UnsupportedQueryError):
            engine.contains_many([(FLAT, FLAT)], SCHEMA, on_error="bad")

    def test_pairwise_matrix(self):
        engine = ContainmentEngine()
        queries = [FLAT, FLAT_RESTRICTED, UNLINKED]
        matrix = engine.pairwise_matrix(queries, SCHEMA)
        assert matrix[0][0] is True
        assert matrix[0][1] is True  # restricted ⊑ flat
        assert matrix[1][0] is False
        assert matrix[0][2] is None  # incomparable shapes
        assert matrix[2][2] is True

    def test_matrix_reuses_prepared_queries(self):
        engine = ContainmentEngine()
        engine.pairwise_matrix([FLAT, FLAT_RESTRICTED, WIDER], SCHEMA)
        assert engine.stats().counter("prepare_misses") == 3
        assert engine.stats().counter("prepare_hits") > 0

    def test_scenario_containment_matrix(self):
        scenario = company_scenario()
        names, matrix = scenario.containment_matrix()
        assert len(names) == len(scenario.queries)
        assert len(matrix) == len(names)
        by = {n: i for i, n in enumerate(names)}
        # Every named query is self-contained.
        for name in names:
            assert matrix[by[name]][by[name]] is True
        # staffed ⊑ staff_by_dept but not conversely.
        assert matrix[by["staff_by_dept"]][by["staffed_depts_only"]] is True
        assert matrix[by["staffed_depts_only"]][by["staff_by_dept"]] is False


class TestViewCatalogEngine:
    def test_catalog_shares_one_engine_across_queries(self):
        scenario = orders_scenario()
        catalog = ViewCatalog(scenario.schema, scenario.queries)
        engine = catalog.engine()
        for text in scenario.queries.values():
            catalog.analyze(text)
        stats = engine.stats()
        # Views are prepared once, then re-served from cache.
        assert stats.counter("prepare_hits") > stats.counter(
            "prepare_misses"
        )
        assert stats.counter("obligation_cache_hits") > 0

    def test_catalog_accepts_external_engine(self):
        engine = ContainmentEngine()
        scenario = orders_scenario()
        catalog = ViewCatalog(scenario.schema, scenario.queries, engine=engine)
        assert catalog.engine() is engine
        reports = catalog.analyze(scenario.queries["basket_per_customer"])
        assert reports["basket_per_customer"].exact
        assert engine.stats().counter("contains_calls") > 0

    def test_catalog_reports_unchanged_by_caching(self):
        scenario = orders_scenario()
        catalog = ViewCatalog(scenario.schema, scenario.queries)
        first = catalog.analyze(scenario.queries["gold_baskets"])
        second = catalog.analyze(scenario.queries["gold_baskets"])
        for name in catalog.names():
            assert first[name].usable == second[name].usable
            assert first[name].exact == second[name].exact
        assert first["basket_per_customer"].usable
        assert not first["basket_per_customer"].exact

    def test_view_containment_matrix(self):
        scenario = orders_scenario()
        catalog = ViewCatalog(scenario.schema, scenario.queries)
        names, matrix = catalog.containment_matrix()
        assert names == catalog.names()
        by = {n: i for i, n in enumerate(names)}
        assert matrix[by["basket_per_customer"]][by["gold_baskets"]] is True


class TestDepth3CrossValidation:
    """Depth-3 queries with possibly-empty inner sets: the certificate
    and canonical procedures must agree, and repeated checks must be
    served from the obligation cache."""

    def test_certificate_vs_canonical(self):
        engine = ContainmentEngine()
        compared = 0
        for seed in range(6):
            q1 = random_coql_deep(seed=seed, depth=3)
            q2 = random_coql_deep(seed=seed + 500, depth=3)
            for sup, sub in [(q1, q1), (q1, q2)]:
                try:
                    certificate = engine.contains(
                        sup, sub, SCHEMA, method="certificate"
                    )
                    canonical = engine.contains(
                        sup, sub, SCHEMA, method="canonical"
                    )
                except (IncomparableQueriesError, UnsupportedQueryError):
                    continue
                assert certificate == canonical, (sup, sub)
                compared += 1
        assert compared >= 6

    def test_repeated_depth3_checks_hit_cache(self):
        engine = ContainmentEngine()
        queries = [random_coql_deep(seed=s, depth=3) for s in range(4)]
        for __ in range(2):
            for text in queries:
                assert engine.weakly_equivalent(text, text, SCHEMA)
        stats = engine.stats()
        assert stats.counter("obligation_cache_hits") > 0
        assert stats.counter("prepare_hits") > 0
        assert stats.counter("nonempty_hits") > 0
        # Second pass decided nothing anew.
        assert stats.counter("obligations_checked") == stats.counter(
            "obligation_cache_misses"
        )

    def test_possibly_empty_inner_sets_expand_obligations(self):
        engine = ContainmentEngine()
        found_multi = False
        for seed in range(12):
            text = random_coql_deep(seed=seed, depth=3)
            try:
                engine.contains(text, text, SCHEMA)
            except (IncomparableQueriesError, UnsupportedQueryError):
                continue
            if engine.stats().counter("obligations_checked") > 1:
                found_multi = True
                break
        assert found_multi
