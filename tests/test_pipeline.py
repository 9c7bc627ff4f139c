"""The staged compilation pipeline: content-addressed artifact store,
process-portable fingerprints, per-stage tracing, and the single-prepare
guarantee (module-level prepare == the engine's pipeline, uncached)."""

import json
import multiprocessing
import pickle
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import TypeCheckError
from repro.coql.containment import as_schema, prepare
from repro.coql.parser import parse_coql
from repro.engine import ContainmentEngine
from repro.grouping.query import GroupingNode
from repro.objects.types import ATOM, RecordType, SetType
from repro.pipeline import (
    MISSING,
    STAGES,
    TIMED_STAGES,
    ArtifactStore,
    KindView,
    Pipeline,
    artifact_key,
    fingerprint,
    stage_table,
)
from repro.pipeline.fingerprint import identity

SCHEMA = {"r": ("a", "b"), "s": ("k", "b")}

LINKED = (
    "select [a: x.a, kids: select [b: y.b] from y in r where y.a = x.a]"
    " from x in r"
)
WIDER = "select [a: x.a, kids: select [b: y.b] from y in s] from x in r"
FLAT = "select [v: x.a] from x in r"

DEPTH3 = (
    "select [a: x.a,"
    " mids: select [k: y.k,"
    "  leaves: select [b: z.b] from z in s where z.k = y.k]"
    " from y in s where y.k = x.a]"
    " from x in r"
)
DEPTH3_SUP = (
    "select [a: x.a,"
    " mids: select [k: y.k,"
    "  leaves: select [b: z.b] from z in s]"
    " from y in s]"
    " from x in r"
)

#: Store keys computed by the encoder before the per-object digest memo
#: existed.  Persisted SQLite rows are found under these exact bytes, so
#: any change here orphans every durable artifact.  The
#: ``obligation_verdicts`` entry was re-recorded at ``FORMAT_VERSION`` 3,
#: when verdict keys lost their witness-count component, and the
#: ``prepare`` entry at ``FORMAT_VERSION`` 4, when a parsed query came to
#: be named by its text's key and a schema by its own digest.
GOLDEN_KEYS = {
    "ast": "f68fa57c9fa26596a84fe1c22712e9aa3604f4373634837080cc5a4c9a532dd3",
    "prepare":
        "da05daa8d53b5b76aaae97b183ef347f58edcbc2c5ec625abcab760b1e21b904",
    "grouping":
        "c4b646e503fb276ce9202f9904ae5c63886307d9c831877f3ad0c3b42b81397f",
    "flat_cq":
        "558e38effac11c297c358b2b21b70f7559acbf07870537b404db0f66a0790a9a",
    "set_type":
        "e5b4210fe6d0e21e36c705a569e4d671798b36abb9458510543219572d11f4aa",
    "nonempty":
        "c27c250d4868ca0a9cb50d7bad3fc7983789095dc1b4b247eb8ec5db236a9ed1",
    "obligation_verdicts":
        "c1646b9bb19122d17251f34dcf574f60dd38dc91e1030a486e22c9fdadba7c02",
    "negative_zero":
        "eca064bd913f4c9c66a99f201d9f10bcbfeeeee3682e977c120427e6b23fc291",
    "nan": "3c9cc96fa5bccbc9ac2c972e856d95f253ec4054a42f1cf9743dffbb5d0c8b32",
    "tuple":
        "1212773f0742b17f6c3926d2f06ec2d3fb304b44f88d4b9e1f554d2bd5250e6e",
    "list": "c5bb29821d57b13087914ae3a49a665c177637a44edab5ee901dec6a2459bb8c",
    "dict": "d3d3ff88ecd12aa193a94dad4e5c9942bf12f42eb1326122d399e7fa23f47f57",
    "frozenset":
        "55df4b1dbe6a4c440fca3516fa18e219dba8eea097d3b98701b207e84d38173a",
}


def _golden_corpus():
    """Freshly built inputs for every :data:`GOLDEN_KEYS` entry."""
    ast = parse_coql(DEPTH3)
    sub = prepare(DEPTH3, SCHEMA, "sub").query
    sup = prepare(DEPTH3_SUP, SCHEMA, "sup").query
    partial = {(), ("mids",)}
    nested = SetType(RecordType({
        "a": ATOM, "s": SetType(RecordType({"b": ATOM})),
    }))
    return {
        "ast": lambda: artifact_key("ast", ast),
        "prepare": lambda: Pipeline().prepare_key(ast, SCHEMA, "q"),
        "grouping": lambda: artifact_key("grouping", sub),
        "flat_cq": lambda: artifact_key(
            "flat_cq", sub.to_flat_cq(("mids",))
        ),
        "set_type": lambda: artifact_key("type", nested),
        "nonempty": lambda: artifact_key("nonempty", sub, ("mids",)),
        "obligation_verdicts": lambda: artifact_key(
            "obligation_verdicts", sub.truncate(partial),
            sup.truncate(partial), "certificate",
        ),
        "negative_zero": lambda: artifact_key("k", -0.0),
        "nan": lambda: artifact_key("k", float("nan")),
        "tuple": lambda: artifact_key("k", ("a", 1)),
        "list": lambda: artifact_key("k", ["a", 1]),
        "dict": lambda: artifact_key("k", {"b": 2, "a": 1.5}),
        "frozenset": lambda: artifact_key("k", frozenset({"x", 3, None})),
    }


# -- ArtifactStore semantics (the old _LRUCache contract) ---------------


class TestArtifactStore:
    def test_lookup_miss_then_hit(self):
        store = ArtifactStore()
        assert store.lookup("prepare", "k") is MISSING
        store.store("prepare", "k", "artifact")
        assert store.lookup("prepare", "k") == "artifact"
        counters = store.counters()["prepare"]
        assert counters == {"hits": 1, "misses": 1, "evictions": 0}

    def test_none_and_false_are_storable_values(self):
        store = ArtifactStore()
        store.store("verdicts", "k1", None)
        store.store("verdicts", "k2", False)
        assert store.lookup("verdicts", "k1") is None
        assert store.lookup("verdicts", "k2") is False

    def test_maxsize_zero_disables(self):
        store = ArtifactStore(limits={"prepare": 0})
        store.store("prepare", "k", "artifact")
        assert store.lookup("prepare", "k") is MISSING
        assert store.sizes()["prepare"] == 0
        # Other kinds are unaffected.
        store.store("targets", "k", "t")
        assert store.lookup("targets", "k") == "t"

    def test_maxsize_none_is_unbounded(self):
        store = ArtifactStore(limits={"nonempty": None}, default_maxsize=2)
        for i in range(50):
            store.store("nonempty", i, i)
        assert store.sizes()["nonempty"] == 50
        assert store.counters()["nonempty"]["evictions"] == 0

    def test_lru_eviction_order(self):
        store = ArtifactStore(limits={"prepare": 2})
        store.store("prepare", "a", 1)
        store.store("prepare", "b", 2)
        assert store.lookup("prepare", "a") == 1  # refresh a
        store.store("prepare", "c", 3)  # evicts b, the LRU entry
        assert store.lookup("prepare", "b") is MISSING
        assert store.lookup("prepare", "a") == 1
        assert store.lookup("prepare", "c") == 3
        assert store.counters()["prepare"]["evictions"] == 1

    def test_per_kind_isolation(self):
        # A flood of one kind must never evict another kind's entries.
        store = ArtifactStore(limits={"prepare": 4, "verdicts": 2})
        store.store("prepare", "p", "enc")
        for i in range(20):
            store.store("verdicts", i, bool(i % 2))
        assert store.lookup("prepare", "p") == "enc"
        assert store.sizes() == {"prepare": 1, "verdicts": 2}

    def test_clear_keeps_tallies(self):
        store = ArtifactStore()
        store.store("prepare", "k", "v")
        store.lookup("prepare", "k")
        store.lookup("prepare", "absent")
        store.clear()
        assert store.sizes()["prepare"] == 0
        assert len(store) == 0
        counters = store.counters()["prepare"]
        assert (counters["hits"], counters["misses"]) == (1, 1)

    def test_clear_single_kind(self):
        store = ArtifactStore()
        store.store("prepare", "k", "v")
        store.store("targets", "k", "v")
        store.clear("prepare")
        assert store.sizes() == {"prepare": 0, "targets": 1}

    def test_reset_counters_keeps_entries(self):
        store = ArtifactStore()
        store.store("prepare", "k", "v")
        store.lookup("prepare", "k")
        store.reset_counters()
        assert store.counters()["prepare"] == {
            "hits": 0, "misses": 0, "evictions": 0,
        }
        assert store.lookup("prepare", "k") == "v"  # entry survived

    def test_hit_rates_none_before_any_lookup(self):
        store = ArtifactStore(limits={"prepare": 8})
        assert store.hit_rates()["prepare"] is None
        store.lookup("prepare", "absent")
        assert store.hit_rates()["prepare"] == 0.0
        store.store("prepare", "k", "v")
        store.lookup("prepare", "k")
        assert store.hit_rates()["prepare"] == 0.5

    def test_limit_is_non_mutating(self):
        # Regression: limit() used to materialize an empty segment for
        # a never-used kind, polluting sizes()/counters()/hit_rates()
        # (and every JSON stats consumer downstream).
        store = ArtifactStore(default_maxsize=7)
        assert store.limit("never_used") == 7
        assert store.sizes() == {}
        assert store.counters() == {}
        assert store.hit_rates() == {}

    def test_clear_unknown_kind_is_non_mutating(self):
        store = ArtifactStore()
        store.store("prepare", "k", "v")
        store.clear("never_used")
        assert set(store.sizes()) == {"prepare"}
        assert set(store.counters()) == {"prepare"}

    def test_accounting_reports_only_used_kinds(self):
        # Configured kinds are reported from construction (their bounds
        # were explicitly set); everything else appears only after a
        # store or a lookup.
        store = ArtifactStore(limits={"prepare": 4})
        assert set(store.sizes()) == {"prepare"}
        store.limit("targets")
        store.clear("targets")
        assert set(store.sizes()) == {"prepare"}
        store.lookup("targets", "k")  # a miss is real usage
        assert set(store.sizes()) == {"prepare", "targets"}
        assert store.counters()["targets"]["misses"] == 1

    def test_limit_reports_configured_bounds(self):
        store = ArtifactStore(limits={"prepare": 4, "off": 0,
                                      "wide": None})
        assert store.limit("prepare") == 4
        assert store.limit("off") == 0
        assert store.limit("wide") is None
        assert store.limit("other") == 1024

    def test_kind_view_mapping_protocol(self):
        store = ArtifactStore()
        view = KindView(store, "targets")
        key = ("structural", ("key", 3))
        assert view.get(key) is None
        assert view.get(key, "default") == "default"
        view[key] = "compiled"
        assert view.get(key) == "compiled"
        assert len(view) == 1


class TestEngineStoreSemantics:
    """The engine-level cache contract, now routed through the store."""

    def test_cache_sizes_keys_are_stable(self):
        engine = ContainmentEngine()
        assert set(engine.cache_sizes()) == {
            "prepare", "obligation_verdicts", "nonempty", "targets",
            "cost_certificate", "branch_verdict", "chase",
        }

    def test_reset_stats_keeps_entries_and_zeroes_store_tallies(self):
        engine = ContainmentEngine()
        engine.contains(WIDER, LINKED, SCHEMA)
        sizes = engine.cache_sizes()
        assert sizes["prepare"] == 2
        engine.reset_stats()
        assert engine.cache_sizes() == sizes
        assert all(
            tally == {"hits": 0, "misses": 0, "evictions": 0}
            for tally in engine.store().counters().values()
        )
        engine.contains(WIDER, LINKED, SCHEMA)
        assert engine.stats().counter("prepare_hits") == 2

    def test_clear_caches_drops_entries_keeps_stats(self):
        engine = ContainmentEngine()
        engine.contains(WIDER, LINKED, SCHEMA)
        before = engine.stats().counter("prepare_misses")
        engine.clear_caches()
        assert sum(engine.cache_sizes().values()) == 0
        assert engine.stats().counter("prepare_misses") == before
        engine.contains(WIDER, LINKED, SCHEMA)
        assert engine.stats().counter("prepare_misses") == before + 2

    def test_disabled_caches_still_decide_correctly(self):
        engine = ContainmentEngine(
            prepare_cache_size=0, verdict_cache_size=0, target_cache_size=0
        )
        reference = ContainmentEngine()
        for sup, sub in [(WIDER, LINKED), (LINKED, WIDER), (FLAT, FLAT)]:
            assert engine.contains(sup, sub, SCHEMA) == reference.contains(
                sup, sub, SCHEMA
            )
        assert sum(engine.cache_sizes().values()) == 0

    def test_shared_store_shares_prepared_artifacts(self):
        store = ArtifactStore()
        first = ContainmentEngine(store=store)
        second = ContainmentEngine(store=store)
        first.contains(WIDER, LINKED, SCHEMA)
        second.contains(WIDER, LINKED, SCHEMA)
        assert second.stats().counter("prepare_hits") == 2
        assert second.stats().counter("prepare_misses") == 0
        assert second.stats().counter("obligation_cache_hits") >= 1

    def test_view_catalog_accepts_shared_store(self):
        from repro.coql import ViewCatalog

        store = ArtifactStore()
        engine = ContainmentEngine(store=store)
        engine.contains(WIDER, LINKED, SCHEMA)
        catalog = ViewCatalog(SCHEMA, views={"wide": WIDER}, store=store)
        catalog.analyze(LINKED)
        assert catalog.engine().stats().counter("prepare_hits") >= 2


# -- fingerprints: deterministic, structural, process-portable ----------


def _key_in_subprocess(query, schema, name):
    return Pipeline().prepare_key(query, schema, name)


class TestFingerprint:
    def test_equal_structures_equal_digests(self):
        from repro.coql import parse_coql

        assert fingerprint(parse_coql(LINKED)) == fingerprint(
            parse_coql(LINKED)
        )
        assert fingerprint(parse_coql(LINKED)) != fingerprint(
            parse_coql(WIDER)
        )

    def test_spans_do_not_participate(self):
        # The same query with different surface placement parses to ASTs
        # with different source spans; the fingerprint must not see them.
        from repro.coql import parse_coql

        shifted = "   " + FLAT.replace(" from", "  from")
        assert fingerprint(parse_coql(FLAT)) == fingerprint(
            parse_coql(shifted)
        )

    def test_unordered_containers_are_canonicalized(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint(
            {"b": 2, "a": 1}
        )
        assert fingerprint(frozenset({1, 2, 3})) == fingerprint(
            frozenset({3, 2, 1})
        )

    def test_type_distinctions_survive(self):
        assert fingerprint((1, 2)) != fingerprint((1, "2"))
        assert fingerprint(True) != fingerprint(1)
        assert fingerprint(()) != fingerprint(frozenset())

    def test_tuple_and_list_never_collide(self):
        # Regression: tuples and lists shared the T tag, so ("a",) and
        # ["a"] fingerprinted identically and one artifact could alias
        # across kinds keying on either sequence shape.
        assert fingerprint(("a",)) != fingerprint(["a"])
        assert fingerprint(()) != fingerprint([])
        assert fingerprint((1, (2, 3))) != fingerprint((1, [2, 3]))
        assert artifact_key("k", ("a",)) != artifact_key("k", ["a"])

    def test_float_policy_structural_equality(self):
        # Pinned policy: structurally equal floats share a digest.
        assert fingerprint(-0.0) == fingerprint(0.0)
        assert fingerprint(float("nan")) == fingerprint(float("nan"))
        assert fingerprint(float("nan")) == fingerprint(-float("nan"))
        # ...but numeric equality across types still does not unify.
        assert fingerprint(1.0) != fingerprint(1)
        assert fingerprint(0.5) != fingerprint(0.25)
        assert fingerprint(float("inf")) != fingerprint(float("-inf"))

    def test_sequence_collision_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        atoms = st.one_of(
            st.none(), st.booleans(), st.integers(),
            st.floats(allow_nan=False), st.text(max_size=8),
        )
        nested = st.recursive(
            atoms,
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.tuples(inner), st.tuples(inner, inner),
            ),
            max_leaves=10,
        )

        @settings(max_examples=200, deadline=None)
        @given(st.lists(nested, max_size=4))
        def check(items):
            # A sequence as a tuple vs. as a list must never collide,
            # and converting any nested list level changes the digest.
            assert fingerprint(tuple(items)) != fingerprint(list(items))

        check()

    def test_fingerprint_matches_structural_equality_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        scalars = st.one_of(
            st.none(), st.booleans(), st.integers(min_value=-99,
                                                  max_value=99),
            st.sampled_from([0.0, -0.0, 1.5, float("nan")]),
            st.sampled_from(["a", "b", ""]),
        )

        @settings(max_examples=200, deadline=None)
        @given(st.tuples(scalars, scalars), st.tuples(scalars, scalars))
        def check(left, right):
            def canon(v):
                # The documented policy's notion of structural equality:
                # type-tagged, with -0.0≡0.0 and all NaNs identified.
                def one(x):
                    if isinstance(x, float):
                        if x != x:
                            return ("float", "nan")
                        return ("float", x + 0.0)
                    return (type(x).__name__, x)
                return tuple(one(x) for x in v)

            same = canon(left) == canon(right)
            assert (fingerprint(left) == fingerprint(right)) == same

        check()

    def test_artifact_key_separates_kinds(self):
        assert artifact_key("prepare", "q") != artifact_key("targets", "q")

    def test_rejects_unencodable_objects(self):
        with pytest.raises(TypeError):
            fingerprint(object())

    def test_keys_are_identical_across_processes(self):
        # Spawned workers start a fresh interpreter with its own hash
        # salt — content-addressed keys must come out bit-identical
        # anyway, or the parallel engine's workers and the parent would
        # never agree on cache entries.
        parent_keys = [
            Pipeline().prepare_key(text, SCHEMA, "q")
            for text in (LINKED, WIDER, DEPTH3)
        ]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            worker_keys = [
                pool.submit(_key_in_subprocess, text, SCHEMA, "q").result()
                for text in (LINKED, WIDER, DEPTH3)
            ]
        assert parent_keys == worker_keys
        assert len(set(parent_keys)) == 3

    def test_worker_computed_key_hits_parent_store(self):
        # The cross-process cache-hit guarantee: an artifact prepared in
        # the parent is found under the key a worker computes.
        engine = ContainmentEngine()
        engine.prepare(DEPTH3, SCHEMA)
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            key = pool.submit(
                _key_in_subprocess, DEPTH3, SCHEMA, "q"
            ).result()
        assert engine.store().lookup("prepare", key) is not MISSING

    def test_golden_keys_are_stable(self):
        # Each key twice: the first derivation fills the digest memos of
        # the freshly built objects, the second reads them back.
        corpus = _golden_corpus()
        assert sorted(corpus) == sorted(GOLDEN_KEYS)
        for name, derive in corpus.items():
            assert derive() == GOLDEN_KEYS[name], name
            assert derive() == GOLDEN_KEYS[name], name

    def test_pickles_never_carry_the_digest_memo(self):
        def corpus():
            query = prepare(DEPTH3, SCHEMA).query
            return [
                parse_coql(DEPTH3),
                query,
                query.root,
                query.root.own_atoms[0],
                query.to_flat_cq(("mids",)),
                RecordType({"a": ATOM, "b": ATOM}),
                SetType(RecordType({"b": ATOM})),
            ]

        used = corpus()
        for obj in used:
            fingerprint(obj)
        # Resolve the parsed tree's stamp: its copy in the fresh corpus
        # still holds the key's parts, so a pickled stamp would differ.
        identity(used[0])
        for seen, fresh in zip(used, corpus()):
            assert pickle.dumps(seen) == pickle.dumps(fresh), seen

    def test_full_truncation_is_the_query_itself(self):
        query = prepare(DEPTH3, SCHEMA).query
        assert query.truncate(query.paths()) is query
        assert query.truncate({(), ("mids",)}) is not query

    def test_warm_full_pattern_check_builds_no_grouping_nodes(
        self, monkeypatch
    ):
        # LINKED's nested set is provably non-empty, so its only
        # obligation pattern keeps every path.
        engine = ContainmentEngine()
        query = engine.prepare(LINKED, SCHEMA).query
        patterns = engine.pipeline().enumerate_obligations(query)
        assert patterns == [frozenset(query.paths())]
        assert engine.contains(LINKED, LINKED, SCHEMA) is True
        built = []
        init = GroupingNode.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0] if args else kwargs.get("label"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(GroupingNode, "__init__", counting_init)
        for __ in range(3):
            assert engine.contains(LINKED, LINKED, SCHEMA) is True
        assert built == []

    def test_warm_check_rebuilds_no_schema_type_and_no_family(
        self, monkeypatch
    ):
        from repro.coql import family

        engine = ContainmentEngine()
        verdict = engine.contains(WIDER, LINKED, SCHEMA)
        built = []
        expanded = []
        init = RecordType.__init__
        expand = family._expand

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def counting_expand(expr):
            expanded.append(expr)
            return expand(expr)

        monkeypatch.setattr(RecordType, "__init__", counting_init)
        monkeypatch.setattr(family, "_expand", counting_expand)
        for __ in range(3):
            assert engine.contains(WIDER, LINKED, SCHEMA) is verdict
        assert built == []
        assert expanded == []

    def test_concurrent_first_fingerprints_agree(self):
        from repro.workloads.generators import random_coql_deep

        texts = [random_coql_deep(seed=seed, depth=4) for seed in range(6)]
        texts += [LINKED, WIDER, DEPTH3]

        def build():
            encoded = [prepare(text, SCHEMA) for text in texts]
            return [parse_coql(text) for text in texts] + [
                item.query for item in encoded if not item.is_empty
            ]

        expected = [fingerprint(obj) for obj in build()]
        shared = build()
        workers = 8
        results = [None] * workers
        barrier = threading.Barrier(workers, timeout=30)

        def work(slot):
            order = list(range(len(shared)))
            if slot % 2:
                order.reverse()
            barrier.wait()
            digests = {index: fingerprint(shared[index]) for index in order}
            results[slot] = [digests[i] for i in range(len(shared))]

        threads = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(workers)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * workers


class TestSchemaIntern:
    def test_equal_specs_share_record_types_in_fresh_dicts(self):
        first = as_schema(SCHEMA)
        second = as_schema({"r": ["a", "b"], "s": ["k", "b"]})
        assert first is not second
        assert first["r"] is second["r"] and first["s"] is second["s"]
        first["r"] = None
        assert as_schema(SCHEMA)["r"] is second["r"]

    @pytest.mark.parametrize("spec, error, message", [
        ({"r": [1]}, TypeCheckError, "attribute names must be strings: 1"),
        ({"r": [["a"]]}, TypeError, "unhashable type: 'list'"),
        ({"r": None}, TypeError, "'NoneType' object is not iterable"),
    ])
    def test_malformed_specs_raise_as_before(self, spec, error, message):
        with pytest.raises(error) as excinfo:
            as_schema(spec)
        assert str(excinfo.value) == message


# -- one prepare implementation -----------------------------------------


class TestSinglePrepare:
    def test_module_prepare_is_the_uncached_pipeline(self):
        reference = prepare(LINKED, SCHEMA)
        engine = ContainmentEngine()
        cached = engine.prepare(LINKED, SCHEMA)
        assert fingerprint(reference.query) == fingerprint(cached.query)
        assert reference.shape == cached.shape

    def test_module_prepare_never_caches(self):
        first = prepare(LINKED, SCHEMA)
        second = prepare(LINKED, SCHEMA)
        assert first is not second
        engine = ContainmentEngine()
        assert engine.prepare(LINKED, SCHEMA) is engine.prepare(
            LINKED, SCHEMA
        )

    def test_uncached_pipeline_stores_nothing(self):
        pipeline = Pipeline(store=None)
        pipeline.prepare(LINKED, SCHEMA)
        assert pipeline.store is None


# -- stage declarations --------------------------------------------------


class TestStageDeclarations:
    def test_dag_covers_the_decision_procedure(self):
        names = [stage.name for stage in STAGES]
        assert names == [
            "parse", "typecheck", "analyze", "encode", "build_grouping",
            "minimize", "expand_family", "chase", "enumerate_obligations",
            "compile_target", "decide", "reduce_union", "analyze_cost",
        ]
        assert set(stage_table()) == set(names)

    def test_every_stage_cites_the_paper(self):
        assert all(stage.paper for stage in STAGES)

    def test_cached_stages_declare_their_keys(self):
        for stage in STAGES:
            if stage.cache_kind is not None:
                assert stage.cache_key, stage.name

    def test_cache_kinds_match_engine_cache_names(self):
        kinds = {s.cache_kind for s in STAGES if s.cache_kind}
        # The four legacy engine caches plus the text-keyed parse memo
        # (internal to the pipeline; not surfaced by cache_sizes()).
        assert kinds == {
            "parse", "prepare", "obligation_verdicts", "nonempty", "targets",
            "cost_certificate", "branch_verdict", "chase",
        }

    def test_parse_stage_returns_shared_ast_on_hit(self):
        pipeline = Pipeline.with_default_store()
        first = pipeline.parse(LINKED)
        second = pipeline.parse(LINKED)
        assert first is second
        assert Pipeline(store=None).parse(LINKED) is not first


# -- tracing: the timers are a view over the trace -----------------------


class TestTracing:
    def _worked_engine(self, retain_trace=True):
        engine = ContainmentEngine(retain_trace=retain_trace)
        engine.contains(WIDER, LINKED, SCHEMA)
        engine.contains(WIDER, LINKED, SCHEMA)  # warm: cache-hit spans
        engine.contains(DEPTH3, DEPTH3, SCHEMA)  # depth-3 workload
        engine.weakly_equivalent(LINKED, LINKED, SCHEMA)
        return engine

    def test_one_root_span_per_public_decision(self):
        engine = self._worked_engine()
        roots = engine.tracer().roots()
        assert [r.stage for r in roots] == ["check"] * 4
        assert [r.label for r in roots] == [
            "contains", "contains", "contains", "weakly_equivalent",
        ]

    def test_span_durations_reconcile_with_stats_timers(self):
        # The acceptance invariant: summing span durations per stage
        # reproduces the EngineStats timers exactly, because the tracer
        # is the only writer of add_time.
        engine = self._worked_engine()
        stats = engine.stats()
        summed = {}
        for event in engine.tracer().events():
            if event.stage in TIMED_STAGES:
                summed[event.stage] = (
                    summed.get(event.stage, 0.0) + event.duration
                )
        assert summed  # the workload exercised timed stages
        for stage, seconds in summed.items():
            assert stats.time(stage) == pytest.approx(seconds, rel=1e-9)
        for stage, seconds in stats.timers.items():
            assert seconds == pytest.approx(summed.get(stage, 0.0))

    def test_stage_summary_counts_cache_outcomes(self):
        engine = self._worked_engine()
        summary = engine.tracer().stage_summary()
        assert summary["prepare"]["hits"] >= 2
        assert summary["prepare"]["misses"] >= 2
        assert summary["check"]["runs"] == 4

    def test_stage_summary_needs_no_retained_events(self):
        def counts(engine):
            return {
                stage: (row["runs"], row["hits"], row["misses"])
                for stage, row in engine.tracer().stage_summary().items()
            }

        retained = self._worked_engine()
        dropped = self._worked_engine(retain_trace=False)
        assert dropped.tracer().roots() == ()
        assert counts(dropped) == counts(retained)
        for stage, seconds in dropped.stats().timers.items():
            assert dropped.tracer().stage_summary()[stage][
                "seconds"] == pytest.approx(seconds)
        dropped.clear_trace()
        assert dropped.tracer().stage_summary() == {}

    def test_chrome_trace_is_valid_and_complete(self, tmp_path):
        engine = self._worked_engine()
        path = tmp_path / "trace.json"
        engine.tracer().write_chrome_trace(str(path))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
            assert event["ts"] >= 0.0
            assert isinstance(event["pid"], int)
            assert event["name"]
        # Chrome times are microseconds: the per-stage totals match the
        # stats timers (and therefore the trace tree) to float precision.
        stats = engine.stats()
        by_stage = {}
        for event in events:
            by_stage[event["name"]] = (
                by_stage.get(event["name"], 0.0) + event["dur"] / 1e6
            )
        for stage in TIMED_STAGES:
            if stage in by_stage:
                assert by_stage[stage] == pytest.approx(
                    stats.time(stage), rel=1e-6
                )

    def test_trace_tree_nests_stages_under_checks(self):
        engine = ContainmentEngine()
        engine.contains(WIDER, LINKED, SCHEMA)
        (root,) = engine.tracer().roots()
        child_stages = [child.stage for child in root.children]
        assert child_stages.count("prepare") == 2
        assert "obligations" in child_stages
        prepare_span = next(
            c for c in root.children if c.stage == "prepare"
        )
        assert prepare_span.cache == "miss"
        assert {c.stage for c in prepare_span.children} >= {
            "typecheck", "normalize", "encode",
        }

    def test_clear_trace_keeps_stats(self):
        engine = self._worked_engine()
        stats_before = engine.stats().as_dict()
        engine.clear_trace()
        assert engine.tracer().roots() == ()
        assert engine.stats().as_dict() == stats_before

    def test_unretained_tracer_still_feeds_timers(self):
        engine = ContainmentEngine(retain_trace=False)
        engine.contains(WIDER, LINKED, SCHEMA)
        assert engine.tracer().roots() == ()
        assert engine.stats().time("encode") > 0.0

    def test_trace_export_shape(self):
        engine = self._worked_engine()
        tree = engine.tracer().as_dict()
        assert tree["version"] == 1
        assert len(tree["checks"]) == 4
        json.dumps(tree)  # JSON-able throughout


class TestParallelEngineTracing:
    def test_parallel_engine_exposes_local_tracer(self):
        from repro.engine import ParallelContainmentEngine

        with ParallelContainmentEngine(jobs=1) as parallel:
            parallel.contains(WIDER, LINKED, SCHEMA)
            roots = parallel.tracer().roots()
        assert [r.stage for r in roots] == ["check"]
