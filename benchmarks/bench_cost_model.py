"""E15 — abstract-interpretation cost certificates (soundness).

For every case that records both, the certificate's
``predicted_nodes`` (the sound per-component ``prod(1 + rows) - 1``
bound composed over obligation patterns and witness stages) must be at
least the actual ``SearchCounters.nodes`` of the corresponding fresh
check.  ``check_regression.py`` fails hard on any violation — an
unsound bound is a bug in the abstract interpreter, not noise.

Cases span the three regimes the certificate must cover: a benign
nested containment through the full engine (patterns, witness
escalation, non-emptiness tests), a truncation-pattern case split
(optional nested component), and the pigeonhole simulation adversary
where the bound is astronomically loose but must still dominate.
"""

import pytest

from repro.analysis.interp import cost_certificate, pair_certificate
from repro.cq.terms import Atom, Var
from repro.engine import ContainmentEngine
from repro.grouping import GroupingNode, GroupingQuery, is_simulated
from repro.workloads import chain_grouping_query

from conftest import record, record_effort

SCHEMA = {"r": ("a", "b"), "s": ("b", "c")}

#: A nested pair decided through the whole engine (sub ⊑ sup holds).
NESTED_SUB = (
    "select [a: x.a, ys: select y.c from y in s where y.b = x.b] from x in r"
)
NESTED_SUP = (
    "select [a: x.a, ys: select y.c from y in s where y.b = x.b] from x in r"
)

#: The nested component is not provably non-empty (the extra equality
#: to the outer row blocks the syntactic test), so obligation
#: enumeration case-splits over truncation patterns.
TRUNCATED = (
    "select [a: x.a, ys: select y.c from y in s "
    "where y.b = x.b and y.c = x.a] from x in r"
)


def padded_clique_grouping(n, rays, name):
    """The E11 pigeonhole adversary (see bench_simulation)."""
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


# -- soundness: predicted bound vs measured nodes ----------------------


ENGINE_CASES = {
    "nested_contained": (NESTED_SUP, NESTED_SUB, True),
    "nested_vs_truncated": (NESTED_SUP, TRUNCATED, True),
    "truncated_vs_nested": (TRUNCATED, NESTED_SUB, False),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_certificate_sound_on_engine_checks(benchmark, case):
    """Full ``engine.contains`` (patterns + escalation + non-emptiness
    tests) never exceeds the certificate's bound."""
    sup, sub, expected = ENGINE_CASES[case]
    certificate = ContainmentEngine().cost_certificate(
        sub, SCHEMA, against=sup
    )

    def run():
        engine = ContainmentEngine()
        verdict = engine.contains(sup, sub, SCHEMA)
        return verdict, engine.stats().search.nodes

    (verdict, nodes) = benchmark(run)
    assert verdict is expected
    assert nodes <= certificate.total_bound, (
        "UNSOUND: %d nodes > bound %d" % (nodes, certificate.total_bound)
    )
    record(
        benchmark,
        experiment="E15",
        case=case,
        verdict=verdict,
        nodes=nodes,
        predicted_nodes=certificate.total_bound,
        patterns=certificate.patterns,
        witness_stages=list(certificate.witness_stages),
    )


SIMULATION_CASES = {
    "chain_reflexive": lambda: (
        chain_grouping_query(3),
        chain_grouping_query(3).rename_apart("_p"),
        None,
        True,
    ),
    "clique_adversary": lambda: (
        padded_clique_grouping(4, 2, "k4"),
        padded_clique_grouping(5, 2, "k5"),
        1,
        False,
    ),
}


@pytest.mark.parametrize("case", sorted(SIMULATION_CASES))
def test_certificate_sound_on_simulation(benchmark, case, search_effort):
    """Bare ``is_simulated`` stays under the pair certificate's bound
    (the certificate also budgets pattern and non-emptiness searches the
    bare call never runs — dominance must hold regardless)."""
    sub, sup, witnesses, expected = SIMULATION_CASES[case]()
    certificate = pair_certificate(sub, sup, witnesses=witnesses)

    def run():
        return is_simulated(sub, sup, witnesses=witnesses)

    verdict, effort = search_effort(run)
    benchmark(run)
    assert verdict is expected
    assert effort.nodes <= certificate.total_bound
    record(
        benchmark,
        experiment="E15",
        case=case,
        verdict=verdict,
        predicted_nodes=certificate.total_bound,
    )
    record_effort(benchmark, effort)


# -- the analyzer itself ------------------------------------------------


def test_certificate_construction_cold(benchmark):
    """Building a certificate from COQL text on a fresh engine — the
    price of asking before checking."""

    def run():
        return cost_certificate(TRUNCATED, SCHEMA, engine=ContainmentEngine())

    certificate = benchmark(run)
    record(
        benchmark,
        experiment="E15",
        patterns=certificate.patterns,
        total_bound=certificate.total_bound,
    )
    assert certificate.total_bound > 0


def test_certificate_construction_warm(benchmark):
    """Re-asking on a warm engine hits the ``cost_certificate`` artifact
    kind (the pair core is cached; only AST facts recompute)."""
    engine = ContainmentEngine()
    engine.cost_certificate(TRUNCATED, SCHEMA)

    certificate = benchmark(
        lambda: engine.cost_certificate(TRUNCATED, SCHEMA)
    )
    hits = engine.stats().counter("cost_certificate_hits")
    record(
        benchmark,
        experiment="E15",
        total_bound=certificate.total_bound,
        cache_hits=hits,
    )
    assert hits > 0
