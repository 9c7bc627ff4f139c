"""Differential guarantees of the bitset homomorphism kernel.

The kernel must enumerate exactly the homomorphism set of the naive
source-order backtracker in ``tests/naive_homomorphism.py`` (an
independent oracle sharing none of its pruning), in a deterministic
order: the engine guarantees hash-seed-independent enumeration.  These
tests pin the set equality over a hypothesis family, the node counts
of the padded pigeonhole refutation, and the incremental-cardinality
expansion order the ``min(remaining, key=...)`` heuristic commits to.
"""

from hypothesis import given, settings, strategies as st

from repro.cq.terms import Var, Const, Atom
from repro.cq.homomorphism import (
    find_all_homomorphisms,
    ground_atoms_of_query,
    SearchCounters,
    install_search_counters,
)
from repro.workloads.generators import random_cq

from tests.naive_homomorphism import NaiveBacktrackHomomorphismAlgorithm

ORACLE = NaiveBacktrackHomomorphismAlgorithm.instance()

SCHEMA = {"r": 2, "s": 2, "t": 3}


def _pair_for_seed(seed):
    """One (source, target) instance; half the family is satisfiable."""
    source_q = random_cq(SCHEMA, atoms=3, variables=4, seed=seed, constants=1)
    target_q = random_cq(
        SCHEMA, atoms=4, variables=3, seed=seed + 10_000, constants=1
    )
    target = ground_atoms_of_query(target_q)
    if seed % 2:
        target = target + ground_atoms_of_query(source_q)
    return source_q.body, target


def _run(search, source, target):
    """(homomorphism list, counters) for one run of *search*."""
    sink = SearchCounters()
    previous = install_search_counters(sink)
    try:
        found = list(search(source, target))
    finally:
        install_search_counters(previous)
    return found, sink


def _mapping_set(mappings):
    return {frozenset(m.items()) for m in mappings}


def padded_pigeonhole(n, rays, leaves):
    """K_n into frozen K_{n-1} padded with an independent star (the
    adversary family of test_propagation / benchmarks E11)."""
    source = tuple(
        Atom("e", (Var("V%d" % i), Var("V%d" % j)))
        for i in range(n)
        for j in range(n)
        if i != j
    ) + tuple(
        Atom("p", (Var("U0"), Var("U%d" % i))) for i in range(1, rays + 1)
    )
    target = tuple(
        Atom("e", (Const("c%d" % i), Const("c%d" % j)))
        for i in range(n - 1)
        for j in range(n - 1)
        if i != j
    ) + tuple(
        Atom("p", (Const("hub"), Const("leaf%d" % j))) for j in range(leaves)
    )
    return source, target


class TestHypothesisDifferential:
    @given(seed=st.integers(min_value=0, max_value=99_999))
    @settings(max_examples=250, deadline=None)
    def test_kernel_matches_oracle(self, seed):
        source, target = _pair_for_seed(seed)
        found, __ = _run(find_all_homomorphisms, source, target)
        reference, __ = _run(ORACLE.compute_homomorphisms, source, target)
        assert _mapping_set(found) == _mapping_set(reference)
        # A homomorphism is enumerated once, never repeated.
        assert len(found) == len(reference)


class TestAdversaryDifferential:
    def test_kernel_counts_on_padded_pigeonhole(self):
        # The E11 adversary instance: the clique component is refuted
        # once, after which the padding component is never searched.
        source, target = padded_pigeonhole(5, 2, 4)
        found, counters = _run(find_all_homomorphisms, source, target)
        assert found == []
        assert counters.nodes == 396
        assert counters.backtracks == 396
        assert counters.domain_wipeouts == 132
        assert counters.components_solved == 1
        assert counters.mask_intersections == 902

    def test_kernel_and_oracle_enumerate_pigeonhole(self):
        # K_4 into frozen K_4: satisfiable, many homomorphisms — the
        # order-sensitive half of the adversary family.
        source, target = padded_pigeonhole(4, 2, 3)
        target = target + tuple(
            Atom("e", (Const("c3"), Const("c%d" % j))) for j in range(3)
        ) + tuple(
            Atom("e", (Const("c%d" % j), Const("c3"))) for j in range(3)
        )
        found, __ = _run(find_all_homomorphisms, source, target)
        reference, __ = _run(ORACLE.compute_homomorphisms, source, target)
        assert _mapping_set(found) == _mapping_set(reference)
        assert len(found) == len(reference) > 0


class TestExpansionOrderRegression:
    """The ``min(remaining, key=lambda p: (counts[p], p))`` heuristic on
    incrementally maintained cardinalities: the atom with the fewest
    candidates is expanded first, source position breaking ties."""

    SOURCE = (
        Atom("r", (Var("X"), Var("Y"))),
        Atom("s", (Var("Y"),)),
    )
    TARGET = (
        Atom("r", (Const(1), Const(10))),
        Atom("r", (Const(2), Const(20))),
        Atom("r", (Const(3), Const(10))),
        Atom("s", (Const(20),)),
        Atom("s", (Const(10),)),
    )
    # s(Y) holds 2 candidate rows to r(X, Y)'s 3, so it is expanded
    # first and its insertion order (20 before 10) drives enumeration.
    EXPECTED = [
        {Var("X"): 2, Var("Y"): 20},
        {Var("X"): 1, Var("Y"): 10},
        {Var("X"): 3, Var("Y"): 10},
    ]
    # A source-order expansion would enumerate X ascending instead.
    STATIC_ORDER = [
        {Var("X"): 1, Var("Y"): 10},
        {Var("X"): 2, Var("Y"): 20},
        {Var("X"): 3, Var("Y"): 10},
    ]

    def test_fewest_candidates_first(self):
        found, __ = _run(find_all_homomorphisms, self.SOURCE, self.TARGET)
        assert found == self.EXPECTED

    def test_static_control_differs(self):
        # The pin above is only meaningful if the heuristic actually
        # changed the order relative to naive source-order expansion.
        found, __ = _run(ORACLE.compute_homomorphisms, self.SOURCE, self.TARGET)
        assert found == self.STATIC_ORDER
        assert found != self.EXPECTED
