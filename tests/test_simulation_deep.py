"""Deeper cross-validation: branching trees, depth 3, and the second
decision path (canonical-family method) against the certificate search."""

import pytest

from repro.errors import IncomparableQueriesError
from repro.grouping import (
    is_simulated,
    semantic_simulates,
    check_simulation_on_canonical,
)
from repro.workloads import (
    random_grouping_query,
    random_flat_database,
    random_coql,
    random_coql_deep,
)
from repro.coql import contains
from repro.engine import ContainmentEngine

SCHEMA = {"r": 2, "s": 2}


class TestBranchingTrees:
    def _pairs(self, count):
        for seed in range(count):
            q1 = random_grouping_query(
                SCHEMA, seed=seed, depth=2, branching=2, variables=4
            )
            q2 = random_grouping_query(
                SCHEMA, seed=seed + 4000, depth=2, branching=2, variables=4
            )
            if q1.shape() == q2.shape():
                yield q1, q2
            if seed % 3 == 0:
                yield q1, q1.rename_apart("_p")

    def test_reflexive(self):
        for seed in range(10):
            q = random_grouping_query(SCHEMA, seed=seed, depth=2, branching=2)
            assert is_simulated(q, q)

    def test_certificate_agrees_with_canonical(self):
        compared = 0
        for q1, q2 in self._pairs(30):
            expected = check_simulation_on_canonical(q1, q2)
            assert is_simulated(q1, q2) is expected, (q1, q2)
            compared += 1
        assert compared >= 5

    def test_soundness_on_random_databases(self):
        checked = 0
        for q1, q2 in self._pairs(30):
            if not is_simulated(q1, q2):
                continue
            for db_seed in range(4):
                db = random_flat_database(SCHEMA, rows=3, domain=3, seed=db_seed)
                assert semantic_simulates(q1, q2, db), (q1, q2, db_seed)
            checked += 1
        assert checked >= 2


class TestDepthThree:
    def _pairs(self, count):
        for seed in range(count):
            q1 = random_grouping_query(
                SCHEMA, seed=seed, depth=3, variables=4, atoms_per_node=1
            )
            yield q1, q1.rename_apart("_p")
            q2 = random_grouping_query(
                SCHEMA, seed=seed + 9000, depth=3, variables=4, atoms_per_node=1
            )
            if q1.shape() == q2.shape():
                yield q1, q2

    def test_certificate_agrees_with_canonical(self):
        compared = 0
        for q1, q2 in self._pairs(6):
            expected = check_simulation_on_canonical(q1, q2, max_witnesses=2)
            assert is_simulated(q1, q2, witnesses=2) is expected, (q1, q2)
            compared += 1
        assert compared >= 4

    def test_soundness_on_random_databases(self):
        checked = 0
        for q1, q2 in self._pairs(8):
            if not is_simulated(q1, q2):
                continue
            for db_seed in range(3):
                db = random_flat_database(SCHEMA, rows=3, domain=2, seed=db_seed)
                assert semantic_simulates(q1, q2, db), (q1, q2, db_seed)
            checked += 1
        assert checked >= 3


class TestCanonicalMethod:
    """``ContainmentEngine(method="canonical")`` agrees with the
    certificate."""

    COQL_SCHEMA = {"r": ("a", "b"), "s": ("k", "b")}

    #: (sub, sup) pairs whose index keys mix generic values with integer
    #: constants, which the oracle once failed to sort: a depth-2 pair
    #: and a depth-3 ``random_coql_deep`` pair.
    CONSTANT_PAIRS = (
        (
            "select [v0: r1.a, inner0: (select [v1: r2.a] from r2 in r"
            " where r2.b = 1)] from r1 in r",
            "select [v0: r1.a, inner0: (select [v1: r2.b] from r2 in r"
            " where r2.b = r1.b)] from r1 in r",
        ),
        (
            random_coql_deep(seed=2, depth=3),
            random_coql_deep(seed=3002, depth=3),
        ),
    )

    @pytest.mark.parametrize("inputs", [1, 2, "constants"])
    def test_methods_agree(self, inputs):
        if inputs == "constants":
            pairs, least = self.CONSTANT_PAIRS, len(self.CONSTANT_PAIRS)
        else:
            pairs = [
                (random_coql(seed=seed, depth=inputs),
                 random_coql(seed=seed + 3000, depth=inputs))
                for seed in range(12)
            ]
            least = 6
        canonical = ContainmentEngine(method="canonical")
        compared = 0
        for q1, q2 in pairs:
            try:
                by_certificate = contains(q2, q1, self.COQL_SCHEMA)
            except IncomparableQueriesError:
                continue
            by_canonical = canonical.contains(q2, q1, self.COQL_SCHEMA)
            assert by_certificate is by_canonical, (q1, q2)
            compared += 1
        assert compared >= least

    def test_unknown_method_rejected(self):
        from repro.errors import UnsupportedQueryError

        with pytest.raises(UnsupportedQueryError):
            ContainmentEngine(method="zen")
