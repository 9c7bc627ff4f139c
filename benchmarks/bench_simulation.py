"""E3 — simulation of conjunctive queries with grouping (NP-complete).

Measures:

* scaling over nesting depth (the d+1 quantifier alternations);
* scaling over body size at fixed depth;
* the witness-copy ablation (k = 1 vs the completeness bound);
* the exponential wall on 3-colorability reductions — the hardness side
  of the theorem (simulation generalizes containment);
* E11 — the search kernel on a benign reflexive check and on the
  padded pigeonhole adversary, where component decomposition refutes
  the clique once instead of once per padding assignment; the
  deterministic node counts are gated against the committed seed.
"""

import pytest

from repro.cq.terms import Var, Atom
from repro.grouping import (
    GroupingNode,
    GroupingQuery,
    is_simulated,
    simulation_certificate,
)
from repro.workloads import chain_grouping_query, random_grouping_query
from repro.complexity import coloring_to_simulation, random_graph

from conftest import record, record_effort


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_depth_scaling(benchmark, depth):
    """Reflexive simulation of a depth-d chain grouping query."""
    query = chain_grouping_query(depth)
    other = query.rename_apart("_p")
    verdict = benchmark(lambda: is_simulated(query, other))
    record(benchmark, experiment="E3", depth=depth, verdict=verdict)
    assert verdict


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
def test_body_size_scaling(benchmark, atoms):
    schema = {"r": 2, "s": 2}
    query = random_grouping_query(
        schema, seed=atoms, depth=2, atoms_per_node=atoms
    )
    other = query.rename_apart("_p")
    verdict = benchmark(lambda: is_simulated(query, other))
    record(benchmark, experiment="E3", atoms_per_node=atoms, verdict=verdict)
    assert verdict


@pytest.mark.parametrize("witnesses", [1, 2, 4, None])
def test_witness_ablation(benchmark, witnesses):
    """Certificate search with few witness copies vs the completeness
    bound (None).  Fewer witnesses: smaller target, may miss certificates
    in general (not on this instance)."""
    query = chain_grouping_query(2)
    other = query.rename_apart("_p")
    verdict = benchmark(
        lambda: is_simulated(query, other, witnesses=witnesses)
    )
    record(
        benchmark,
        experiment="E3-ablation",
        witnesses="bound" if witnesses is None else witnesses,
        verdict=verdict,
    )


@pytest.mark.parametrize("nodes,edges", [(5, 7), (7, 11), (9, 15), (11, 19)])
def test_coloring_hardness(benchmark, nodes, edges):
    """3-colorability as simulation: the NP-hard core.  Verdicts vary
    with the instance; times grow sharply with graph size on non-
    colorable instances."""
    graph = random_graph(nodes, edges, seed=nodes)
    sub, sup = coloring_to_simulation(graph)
    verdict = benchmark(lambda: is_simulated(sub, sup, witnesses=1))
    record(benchmark, experiment="E3", nodes=nodes, edges=len(graph),
           colorable=verdict)


def padded_clique_grouping(n, rays, name):
    """A flat grouping query whose body is the K_n clique padded with an
    independent star — the E11 adversary lifted to the simulation
    setting (K_{n+1} ⊴ K_n is pigeonhole-refuted)."""
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


def test_kernel_reflexive(benchmark, search_effort):
    """E11 — a benign reflexive simulation."""
    query = chain_grouping_query(3)
    other = query.rename_apart("_p")

    def run():
        return is_simulated(query, other)

    verdict, effort = search_effort(run)
    benchmark(run)
    record(benchmark, experiment="E11", suite="reflexive", verdict=verdict)
    record_effort(benchmark, effort)
    assert verdict


def test_kernel_adversary(benchmark, search_effort):
    """E11 — the padded pigeonhole adversary as a simulation check."""
    # K6 ⊴? K5: large enough that search (not pipeline overhead)
    # dominates, so the node gate measures the kernel.
    sub = padded_clique_grouping(5, 2, "k5")
    sup = padded_clique_grouping(6, 2, "k6")

    def run():
        return is_simulated(sub, sup, witnesses=1)

    verdict, effort = search_effort(run)
    benchmark(run)
    record(benchmark, experiment="E11", suite="adversary", verdict=verdict)
    record_effort(benchmark, effort)
    assert not verdict


def test_certificate_construction(benchmark):
    """End-to-end certificate object construction (not just the verdict)."""
    query = chain_grouping_query(3)
    other = query.rename_apart("_p")
    certificate = benchmark(lambda: simulation_certificate(query, other))
    record(benchmark, experiment="E3",
           witnesses=certificate.witnesses if certificate else None)
    assert certificate is not None
