"""The constraint-propagating homomorphism core: compiled targets,
deterministic enumeration, agreement with the naive oracle, component
decomposition, adversarial node-count separation, and the engine's
simulation-target cache."""

import pytest

from repro.errors import ReproError
from repro.cq import parse_atom
from repro.cq.terms import Var, Const, Atom
from repro.cq.homomorphism import (
    find_homomorphism,
    find_all_homomorphisms,
    count_homomorphisms,
    ground_atoms_of_query,
    compile_target,
    CompiledTarget,
    SearchCounters,
    install_search_counters,
)
from repro.cq.propagation import active_counters
from repro.engine import ContainmentEngine
from repro.workloads.generators import random_cq, chain_grouping_query

from tests.naive_homomorphism import NaiveBacktrackHomomorphismAlgorithm

ORACLE = NaiveBacktrackHomomorphismAlgorithm.instance()

SCHEMA = {"r": 2, "s": 2, "t": 3}


def atoms(*texts):
    return tuple(parse_atom(t) for t in texts)


def mapping_set(mappings):
    return {frozenset(m.items()) for m in mappings}


@pytest.fixture
def counters():
    sink = SearchCounters()
    previous = install_search_counters(sink)
    yield sink
    install_search_counters(previous)


# -- the adversarial family -------------------------------------------------
#
# K_n source into frozen K_{n-1}: the pigeonhole refutation, padded with
# an independent star p(U0, U_i) whose target has `leaves` rows per ray.
# A search that does not decompose components re-discovers the clique
# refutation once per padding assignment (multiplicative, leaves^rays);
# the propagating search refutes the clique component once (additive).


def clique_source(n):
    return tuple(
        Atom("e", (Var("V%d" % i), Var("V%d" % j)))
        for i in range(n)
        for j in range(n)
        if i != j
    )


def clique_target(n):
    return tuple(
        Atom("e", (Const("c%d" % i), Const("c%d" % j)))
        for i in range(n)
        for j in range(n)
        if i != j
    )


def padded_pigeonhole(n, rays, leaves):
    source = clique_source(n) + tuple(
        Atom("p", (Var("U0"), Var("U%d" % i))) for i in range(1, rays + 1)
    )
    target = clique_target(n - 1) + tuple(
        Atom("p", (Const("hub"), Const("leaf%d" % j))) for j in range(leaves)
    )
    return source, target


class TestCompileTarget:
    def test_idempotent_passthrough(self):
        compiled = compile_target(atoms("r(1, 2)", "s(2, 3)"))
        assert isinstance(compiled, CompiledTarget)
        assert compile_target(compiled) is compiled

    def test_rejects_non_ground_atoms(self):
        with pytest.raises(ReproError):
            compile_target(atoms("r(1, X)"))

    def test_rows_deduplicate_in_insertion_order(self):
        compiled = compile_target(
            atoms("r(2, 1)", "r(1, 2)", "r(2, 1)", "r(1, 2)")
        )
        assert compiled.rows[("r", 2)] == ((2, 1), (1, 2))

    def test_inverted_index_and_domains(self):
        compiled = compile_target(atoms("r(1, 2)", "r(1, 3)", "r(4, 2)"))
        masks = compiled.masks[("r", 2)]
        assert masks[0][1] == 0b011
        assert masks[0][4] == 0b100
        assert masks[1][2] == 0b101
        assert compiled.full_masks[("r", 2)] == 0b111
        assert compiled.domains[("r", 2)] == (
            frozenset({1, 4}),
            frozenset({2, 3}),
        )

    def test_entry_points_accept_compiled_targets(self):
        compiled = compile_target(atoms("r(1, 2)", "r(2, 3)"))
        source = atoms("r(X, Y)")
        assert find_homomorphism(source, compiled) is not None
        assert count_homomorphisms(source, compiled) == 2


class TestDeterminism:
    def test_enumeration_order_is_insertion_order(self):
        source = atoms("r(X, Y)")
        target = atoms("r(3, 0)", "r(1, 0)", "r(2, 0)")
        rows = [m[Var("X")] for m in find_all_homomorphisms(source, target)]
        assert rows == [3, 1, 2]

    def test_repeated_calls_enumerate_identically(self):
        source = atoms("r(X, Y)", "s(Y, Z)", "r(Z, W)")
        target = atoms(
            "r(1, 2)", "r(2, 1)", "r(3, 1)", "s(2, 3)", "s(1, 3)", "s(2, 1)"
        )
        first = list(find_all_homomorphisms(source, target))
        second = list(find_all_homomorphisms(source, target))
        assert first == second
        assert first

    def test_duplicate_target_atoms_do_not_duplicate_homomorphisms(self):
        source = atoms("r(X, Y)")
        target = atoms("r(1, 2)", "r(1, 2)", "r(1, 2)")
        assert count_homomorphisms(source, target) == 1


class TestFixedAndAllowed:
    SOURCE = atoms("r(X, Y)", "s(Y, Z)")
    TARGET = atoms("r(1, 2)", "r(1, 3)", "s(2, 4)", "s(3, 4)", "s(3, 5)")

    def test_fixed_pins_and_is_echoed(self):
        found = mapping_set(
            find_all_homomorphisms(
                self.SOURCE, self.TARGET, fixed={Var("Y"): 3}
            )
        )
        assert found == {
            frozenset({(Var("X"), 1), (Var("Y"), 3), (Var("Z"), 4)}),
            frozenset({(Var("X"), 1), (Var("Y"), 3), (Var("Z"), 5)}),
        }

    def test_fixed_variable_absent_from_source_is_echoed(self):
        found = list(
            find_all_homomorphisms(
                atoms("r(X, Y)"), atoms("r(1, 2)"), fixed={Var("Q"): 9}
            )
        )
        assert found == [{Var("X"): 1, Var("Y"): 2, Var("Q"): 9}]

    def test_allowed_restricts_every_occurrence(self):
        found = mapping_set(
            find_all_homomorphisms(
                self.SOURCE, self.TARGET, allowed={Var("Y"): {2}}
            )
        )
        assert found == {
            frozenset({(Var("X"), 1), (Var("Y"), 2), (Var("Z"), 4)})
        }

    def test_fixed_outside_allowed_yields_nothing(self):
        assert (
            count_homomorphisms(
                self.SOURCE, self.TARGET,
                fixed={Var("Y"): 3}, allowed={Var("Y"): {2}},
            )
            == 0
        )

    def test_fixed_and_allowed_interact_across_shared_atoms(self):
        # Pinning X forces Y through r; allowed on Z then decides between
        # the two s-rows reachable from that Y.
        found = mapping_set(
            find_all_homomorphisms(
                self.SOURCE, self.TARGET,
                fixed={Var("X"): 1}, allowed={Var("Z"): {5}},
            )
        )
        assert found == {
            frozenset({(Var("X"), 1), (Var("Y"), 3), (Var("Z"), 5)})
        }

    def test_empty_allowed_set_refutes_without_search(self, counters):
        assert (
            find_homomorphism(
                self.SOURCE, self.TARGET, allowed={Var("Y"): set()}
            )
            is None
        )
        assert counters.nodes == 0
        assert counters.domain_wipeouts >= 1


class TestComponentDecomposition:
    def test_independent_atoms_solved_componentwise(self, counters):
        source = atoms("r(X, Y)", "s(A, B)")
        target = atoms("r(1, 2)", "r(3, 4)", "s(5, 6)", "s(7, 8)", "s(9, 0)")
        found = list(find_all_homomorphisms(source, target))
        assert len(found) == 2 * 3
        assert counters.components_solved == 2
        assert mapping_set(found) == mapping_set(
            ORACLE.compute_homomorphisms(source, target)
        )

    def test_cross_product_nodes_are_additive(self, counters):
        source = atoms("r(X, Y)", "s(A, B)")
        target = atoms(
            "r(1, 2)", "r(3, 4)", "r(5, 6)", "s(5, 6)", "s(7, 8)", "s(9, 0)"
        )
        assert find_homomorphism(source, target) is not None
        # One row per component suffices for the first solution: the
        # cross product is enumerated lazily.
        assert counters.nodes == 2

    def test_failing_component_short_circuits(self, counters):
        source = atoms("r(X, X)", "s(A, B)")
        target = atoms("r(1, 2)", "s(5, 6)", "s(7, 8)")
        assert find_homomorphism(source, target) is None
        # The r-component admits no homomorphism; the s-component's
        # solutions must not be enumerated at all.
        assert counters.nodes == 0

    def test_ground_source_atoms_form_singleton_components(self):
        source = atoms("r(1, 2)", "r(X, Y)")
        target = atoms("r(1, 2)", "r(3, 4)")
        found = mapping_set(find_all_homomorphisms(source, target))
        assert found == mapping_set(
            ORACLE.compute_homomorphisms(source, target)
        )
        assert len(found) == 2

    def test_ground_source_atom_absent_from_target_refutes(self):
        source = atoms("r(9, 9)", "r(X, Y)")
        target = atoms("r(1, 2)")
        assert find_homomorphism(source, target) is None

    def test_empty_source_yields_fixed_binding(self):
        found = list(
            find_all_homomorphisms((), atoms("r(1, 2)"), fixed={Var("X"): 7})
        )
        assert found == [{Var("X"): 7}]


class TestAdversary:
    def test_kernel_and_oracle_refute_pigeonhole(self):
        # Both the kernel and the naive source-order oracle refute it.
        source, target = padded_pigeonhole(4, 2, 3)
        assert find_homomorphism(source, target) is None
        assert not ORACLE.exist_homomorphism(source, target)

    def test_kernel_visits_at_most_half_the_oracle_nodes(self, counters):
        source, target = padded_pigeonhole(5, 2, 4)
        assert find_homomorphism(source, target) is None
        kernel_nodes = counters.nodes
        counters.reset()
        assert not ORACLE.exist_homomorphism(source, target)
        naive_nodes = counters.nodes
        # The component argument makes the padded refutation additive,
        # not multiplicative: at least the 2x bar of experiment E11.
        assert kernel_nodes * 2 <= naive_nodes

    def test_propagation_counters_tick_on_refutation(self, counters):
        source, target = padded_pigeonhole(5, 2, 4)
        assert find_homomorphism(source, target) is None
        assert counters.domain_wipeouts > 0
        assert counters.components_solved >= 1

    def test_kernel_and_oracle_find_satisfiable_clique(self):
        # K_4 into K_4 has homomorphisms; the kernel and the oracle
        # agree on the set.
        source = clique_source(4)
        target = clique_target(4)
        found = mapping_set(find_all_homomorphisms(source, target))
        assert found == mapping_set(
            ORACLE.compute_homomorphisms(source, target)
        )
        assert len(found) == 24  # the 4! vertex permutations


class TestDifferentialEquivalence:
    """The kernel's most-constrained-first search against the oracle's
    source-order expansion."""

    def pairs(self):
        out = []
        for seed in range(100):
            source_q = random_cq(
                SCHEMA, atoms=3, variables=4, seed=seed, constants=1
            )
            target_q = random_cq(
                SCHEMA, atoms=4, variables=3, seed=seed + 10_000, constants=1
            )
            target = ground_atoms_of_query(target_q)
            if seed % 2:
                # Mix in a frozen copy of the source so half the family
                # is satisfiable (the identity homomorphism exists).
                target = target + ground_atoms_of_query(source_q)
            out.append((source_q.body, target))
        return out

    def test_kernel_and_oracle_enumerate_the_same_set(self):
        compared = 0
        nonempty = 0
        for source, target in self.pairs():
            found = mapping_set(find_all_homomorphisms(source, target))
            assert found == mapping_set(
                ORACLE.compute_homomorphisms(source, target)
            ), source
            compared += 1
            nonempty += bool(found)
        assert compared == 100
        assert nonempty >= 25  # the family is not vacuously unsatisfiable

    def test_kernel_and_oracle_agree_with_fixed_allowed(self):
        compared = 0
        for source, target in self.pairs()[:50]:
            variables = sorted(
                {v for atom in source for v in atom.variables()}, key=repr
            )
            if not variables:
                continue
            compiled = compile_target(target)
            values = sorted(
                {v for rows in compiled.rows.values() for r in rows for v in r},
                key=repr,
            )
            fixed = {variables[0]: values[0]} if values else {}
            allowed = (
                {variables[-1]: set(values[: max(1, len(values) // 2)])}
                if len(variables) > 1 and values
                else {}
            )
            found = mapping_set(
                find_all_homomorphisms(
                    source, target, fixed=fixed, allowed=allowed
                )
            )
            assert found == mapping_set(
                ORACLE.compute_homomorphisms(
                    source, target, fixed=fixed, allowed=allowed
                )
            ), (source, fixed, allowed)
            compared += 1
        assert compared >= 40


class TestEngineTargetCache:
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

    def test_simulated_reuses_compiled_targets(self):
        engine = ContainmentEngine()
        sub = chain_grouping_query(2)
        sup = chain_grouping_query(2)
        assert engine.simulated(sub, sup)
        assert engine.simulated(sub, sup)
        stats = engine.stats()
        assert stats.counter("target_cache_hits") >= 1
        assert stats.counter("target_cache_misses") >= 1
        assert engine.cache_sizes()["targets"] >= 1

    def test_pairwise_matrix_hits_the_target_cache(self):
        engine = ContainmentEngine()
        engine.pairwise_matrix(
            [self.LINKED, self.UNLINKED, self.WIDER], self.SCHEMA
        )
        assert engine.stats().counter("target_cache_hits") > 0

    def test_weak_equivalence_sweep_hits_the_target_cache(self):
        # With verdict memoization off, every obligation re-decides and
        # the compiled target is the only thing saving recompilation.
        engine = ContainmentEngine(verdict_cache_size=0)
        assert engine.weakly_equivalent(self.LINKED, self.LINKED, self.SCHEMA)
        assert engine.stats().counter("target_cache_hits") > 0

    def test_target_cache_can_be_disabled(self):
        engine = ContainmentEngine(target_cache_size=0)
        sub = chain_grouping_query(2)
        assert engine.simulated(sub, sub)
        assert engine.simulated(sub, sub)
        stats = engine.stats()
        assert stats.counter("target_cache_hits") == 0
        assert engine.cache_sizes()["targets"] == 0

    def test_search_counters_flow_into_engine_stats(self):
        engine = ContainmentEngine()
        assert engine.contains(self.WIDER, self.UNLINKED, self.SCHEMA)
        data = engine.stats().as_dict()
        assert data["homomorphism_nodes"] > 0
        assert data["homomorphism_components_solved"] > 0
        assert "homomorphism_domain_wipeouts" in data

    def test_counters_do_not_leak_outside_the_fixture(self):
        assert active_counters() is None
