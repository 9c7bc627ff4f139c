"""Differential test oracle for the parallel containment engine.

Parallelism must never change a verdict: for seeded random pairs from
every generator family (:func:`random_coql` / :func:`random_coql_deep`
at the COQL layer, :func:`random_cq` and :func:`random_grouping_query`
at the grouping-simulation layer), the sharded
:class:`ParallelContainmentEngine` must agree exactly with the
sequential :class:`ContainmentEngine`, and — at small depth — with the
brute-force canonical-database decision procedure
(:mod:`repro.grouping.bruteforce`).  Together the sweeps below cover
230+ seeded pairs with a zero-mismatch requirement.

Metamorphic properties harden the oracle further: ``contains(q, q)`` is
always True, and the pairwise matrix of a query list with duplicates
must assign identical verdicts to cells whose (sup, sub) queries are
equal — a scheduling- or chunking-dependent result would break both.
"""

import pytest

from repro.errors import ReproError
from repro.engine import ContainmentEngine, ParallelContainmentEngine
from repro.grouping.query import GroupingNode, GroupingQuery
from repro.grouping.simulation import is_simulated
from repro.grouping.bruteforce import check_simulation_on_canonical
from repro.workloads import (
    random_coql,
    random_coql_deep,
    random_cq,
    random_grouping_query,
)

SCHEMA = {"r": ("a", "b"), "s": ("k", "b")}
CQ_SCHEMA = {"r": 2, "s": 1}


@pytest.fixture(scope="module")
def parallel():
    """One shared two-worker engine: pool reuse across the module keeps
    worker caches warm and the suite fast."""
    engine = ParallelContainmentEngine(jobs=2, chunk_size=8)
    yield engine
    engine.close()


def same_verdicts(expected, got):
    """Zero-mismatch assertion: booleans must match exactly; captured
    exceptions compare by type (pickling rebuilds the instance)."""
    assert len(expected) == len(got)
    mismatches = [
        (index, e, g)
        for index, (e, g) in enumerate(zip(expected, got))
        if (
            type(e) is not type(g)
            if isinstance(e, ReproError) or isinstance(g, ReproError)
            else e != g
        )
    ]
    assert not mismatches, "verdict mismatches: %r" % (mismatches[:5],)


def flat_grouping(cq, name):
    """A conjunctive query as a one-node grouping query (its head
    becomes the value columns), the shape-preserving embedding the
    paper uses for the flat fragment."""
    values = {"c%d" % i: term for i, term in enumerate(cq.head)}
    return GroupingQuery(GroupingNode("", cq.body, values, (), ()), name)


class TestCoqlDifferentialOracle:
    """COQL pairs: parallel vs sequential engine (120 seeded pairs)."""

    def _pairs(self):
        pairs = [
            (random_coql(seed=seed), random_coql(seed=seed + 3000))
            for seed in range(80)
        ]
        pairs += [
            (
                random_coql_deep(seed=seed, depth=3),
                random_coql_deep(seed=seed + 900, depth=3),
            )
            for seed in range(40)
        ]
        return pairs

    def test_parallel_matches_sequential(self, parallel):
        pairs = self._pairs()
        expected = ContainmentEngine().contains_many(
            pairs, SCHEMA, on_error="capture"
        )
        got = parallel.contains_many(pairs, SCHEMA, on_error="capture")
        same_verdicts(expected, got)

    def test_parallel_matches_bruteforce_canonical(self, parallel):
        """At depth <= 2 the canonical-database method is affordable:
        the certificate verdicts (sharded) must match it pairwise."""
        pairs = [
            (random_coql(seed=seed), random_coql(seed=seed + 3000))
            for seed in range(30)
        ]
        got = parallel.contains_many(pairs, SCHEMA, on_error="capture")
        canonical = ContainmentEngine(method="canonical").contains_many(
            pairs, SCHEMA, on_error="capture"
        )
        same_verdicts(canonical, got)

    def test_scenario_matrix_keeps_its_engine_constraints(self):
        from repro.constraints import parse_constraint
        from repro.workloads.scenarios import Scenario

        scenario = Scenario(
            "staff", {"employee": ("name",), "manager": ("name",)},
            {"managers": "select [n: m.name] from m in manager",
             "employees": "select [n: e.name] from e in employee"},
            generator=None,
        )
        engine = ContainmentEngine(
            constraints=(parse_constraint("manager[name] -> employee[name]"),)
        )
        sequential = scenario.containment_matrix(engine=engine)
        # managers ⊑ employees holds only under the dependency.
        assert sequential[1] == [[True, True], [False, True]]
        for jobs in (1, 2):
            assert scenario.containment_matrix(
                engine=engine, jobs=jobs
            ) == sequential


class TestSimulationDifferentialOracle:
    """Grouping-simulation pairs: parallel vs sequential vs brute force
    (50 flat CQ embeddings + 30 random depth-2 trees + 30 at depth 1)."""

    def _cq_pairs(self):
        return [
            (
                flat_grouping(
                    random_cq(
                        CQ_SCHEMA, atoms=3, variables=4, head_arity=1,
                        seed=seed,
                    ),
                    "a%d" % seed,
                ),
                flat_grouping(
                    random_cq(
                        CQ_SCHEMA, atoms=3, variables=4, head_arity=1,
                        seed=seed + 5000,
                    ),
                    "b%d" % seed,
                ),
            )
            for seed in range(50)
        ]

    def _tree_pairs(self, depth, count, offset):
        return [
            (
                random_grouping_query(
                    CQ_SCHEMA, seed=seed, depth=depth, atoms_per_node=2,
                    variables=4,
                ),
                random_grouping_query(
                    CQ_SCHEMA, seed=seed + offset, depth=depth,
                    atoms_per_node=2, variables=4,
                ),
            )
            for seed in range(count)
        ]

    @pytest.mark.parametrize(
        "family",
        ["flat_cq", "tree_depth1", "tree_depth2"],
    )
    def test_three_way_agreement(self, parallel, family):
        if family == "flat_cq":
            pairs = self._cq_pairs()
        elif family == "tree_depth1":
            pairs = self._tree_pairs(depth=1, count=30, offset=9000)
        else:
            pairs = self._tree_pairs(depth=2, count=30, offset=7000)
        got = parallel.simulated_many(pairs, on_error="capture")
        for index, (sub, sup) in enumerate(pairs):
            try:
                sequential = is_simulated(sub, sup)
            except ReproError as exc:
                sequential = exc
            try:
                brute = check_simulation_on_canonical(sub, sup)
            except ReproError as exc:
                brute = exc
            same_verdicts([sequential], [got[index]])
            same_verdicts([brute], [got[index]])


class TestMetamorphic:
    def test_self_containment_always_true(self, parallel):
        queries = [random_coql(seed=seed) for seed in range(20)]
        queries += [random_coql_deep(seed=seed, depth=3) for seed in range(10)]
        verdicts = parallel.contains_many(
            [(query, query) for query in queries], SCHEMA
        )
        assert verdicts == [True] * len(queries)

    def test_matrix_of_duplicates_is_consistent(self, parallel):
        base = [random_coql(seed=seed) for seed in range(3)]
        queries = base + base  # every query appears twice
        matrix = parallel.pairwise_matrix(queries, SCHEMA)
        size = len(base)
        for i in range(len(queries)):
            assert matrix[i][i] is True  # diagonal: q ⊑ q
        for i in range(len(queries)):
            for j in range(len(queries)):
                # the duplicate's row/column must be cell-identical
                assert matrix[i][j] == matrix[(i + size) % (2 * size)][j]
                assert matrix[i][j] == matrix[i][(j + size) % (2 * size)]

    def test_matrix_matches_singles(self, parallel):
        queries = [random_coql(seed=seed) for seed in range(4)]
        matrix = parallel.pairwise_matrix(queries, SCHEMA)
        engine = ContainmentEngine()
        for i, sup in enumerate(queries):
            for j, sub in enumerate(queries):
                try:
                    expected = engine.contains(sup, sub, SCHEMA)
                except ReproError:
                    expected = None
                assert matrix[i][j] == expected


class TestPicklingBoundary:
    def test_typed_schema_crosses_the_pool(self):
        """ViewCatalog-style typed schemas (RecordType/SetType values)
        must survive the worker boundary — a pickling failure would
        silently degrade every batch to in-process."""
        import pickle

        from repro.objects.types import ATOM, EMPTY_SET, RecordType, SetType

        typed = {
            "r": RecordType({"a": ATOM, "kids": SetType(RecordType({"b": ATOM}))}),
            "s": RecordType({"k": ATOM, "b": ATOM}),
        }
        for value in (ATOM, EMPTY_SET, typed["r"], SetType(ATOM)):
            assert pickle.loads(pickle.dumps(value)) == value
        pairs = [
            (random_coql(seed=seed), random_coql(seed=seed + 3000))
            for seed in range(6)
        ]
        schema = {
            "r": RecordType({"a": ATOM, "b": ATOM}),
            "s": RecordType({"k": ATOM, "b": ATOM}),
        }
        expected = ContainmentEngine().contains_many(
            pairs, schema, on_error="capture"
        )
        with ParallelContainmentEngine(jobs=2) as engine:
            got = engine.contains_many(pairs, schema, on_error="capture")
            assert engine.stats().counter("pool_failures") == 0
        same_verdicts(expected, got)

    def test_view_catalog_matrix_does_not_degrade(self):
        """Regression: the catalog's normalized RecordType schema used
        to fail worker unpickling, silently falling back in-process."""
        from repro.coql import ViewCatalog

        catalog = ViewCatalog(
            SCHEMA, {"v%d" % i: random_coql(seed=i) for i in range(3)}
        )
        sequential = catalog.containment_matrix()
        assert catalog.containment_matrix(jobs=2) == sequential
        assert (
            catalog.engine().stats().counter("pool_failures") == 0
        )


class TestDeterminismAndDegradation:
    def test_chunking_does_not_change_order(self):
        pairs = [
            (random_coql(seed=seed), random_coql(seed=seed + 3000))
            for seed in range(17)  # deliberately not a chunk multiple
        ]
        expected = ContainmentEngine().contains_many(
            pairs, SCHEMA, on_error="capture"
        )
        for chunk_size in (1, 3, 17, 100):
            with ParallelContainmentEngine(
                jobs=2, chunk_size=chunk_size
            ) as engine:
                same_verdicts(
                    expected,
                    engine.contains_many(pairs, SCHEMA, on_error="capture"),
                )

    def test_jobs_one_runs_in_process(self):
        engine = ParallelContainmentEngine(jobs=1)
        pairs = [
            (random_coql(seed=seed), random_coql(seed=seed + 3000))
            for seed in range(5)
        ]
        expected = ContainmentEngine().contains_many(
            pairs, SCHEMA, on_error="capture"
        )
        same_verdicts(
            expected, engine.contains_many(pairs, SCHEMA, on_error="capture")
        )
        assert engine._executor is None  # never forked
        engine.close()

    def test_worker_stats_merge_back(self, parallel):
        parallel.reset_stats()
        pairs = [
            (random_coql(seed=seed), random_coql(seed=seed + 3000))
            for seed in range(12)
        ]
        parallel.contains_many(pairs, SCHEMA, on_error="capture")
        stats = parallel.stats()
        assert stats.counter("tasks_dispatched") == 12
        assert stats.counter("chunks_dispatched") >= 2
        assert stats.counter("batch_calls") == 1
        # the actual decision work happened in workers and was merged;
        # with the module-scoped pool the workers' memo tables may be
        # warm, in which case obligations resolve as worker cache hits
        assert stats.counter("contains_calls") == 12
        assert (
            stats.counter("obligations_checked")
            + stats.counter("obligation_cache_hits")
        ) > 0
