"""E9 — the classical baseline: Chandra–Merlin containment.

The paper positions simulation as "more complex than containment of
conjunctive queries"; this module measures the baseline so E3/E4 have a
reference curve.  Also runs the homomorphism kernel alone (E11) on a
chain folding and on the padded pigeonhole adversary, where component
decomposition turns a multiplicative refutation into an additive one;
the deterministic node counts are gated against the committed seed.
"""

import pytest

from repro.cq import contains, minimize
from repro.cq.terms import Var, Const, Atom
from repro.cq.homomorphism import find_homomorphism, ground_atoms_of_query
from repro.workloads import chain_query, star_query, random_cq

from conftest import record, record_effort


@pytest.mark.parametrize("length", [2, 4, 8, 16, 32])
def test_chain_containment(benchmark, length):
    """Containment of a 2k-chain in a k-chain: verdict False, search
    explores the chain's foldings."""
    short = chain_query(length)
    long = chain_query(length * 2)
    verdict = benchmark(lambda: contains(short, long))
    record(benchmark, experiment="E9", length=length, verdict=verdict)


@pytest.mark.parametrize("points", [2, 4, 8, 16])
def test_star_containment(benchmark, points):
    """Stars collapse homomorphically: verdict True, found quickly."""
    small = star_query(points)
    big = star_query(points * 2)
    verdict = benchmark(lambda: contains(small, big))
    record(benchmark, experiment="E9", points=points, verdict=verdict)
    assert verdict


@pytest.mark.parametrize("atoms", [3, 5, 7, 9])
def test_random_containment(benchmark, atoms):
    schema = {"r": 2, "s": 2, "t": 1}
    pairs = [
        (
            random_cq(schema, atoms=atoms, variables=4, head_arity=1, seed=s),
            random_cq(schema, atoms=atoms, variables=4, head_arity=1, seed=s + 100),
        )
        for s in range(10)
    ]

    def run():
        return sum(1 for q1, q2 in pairs if contains(q2, q1))

    positives = benchmark(run)
    record(benchmark, experiment="E9", atoms=atoms, positives=positives)


def test_chain_folding(benchmark, search_effort):
    """The 12-chain body into the frozen 6-chain: refuted by
    propagation before any search node."""
    short = chain_query(6)
    long = chain_query(12)
    target = ground_atoms_of_query(short)

    def run():
        return find_homomorphism(long.body, target)

    result, effort = search_effort(run)
    benchmark(run)
    record(benchmark, experiment="E9", found=result is not None)
    record_effort(benchmark, effort)


def padded_pigeonhole(n, rays, leaves):
    """K_n source into frozen K_{n-1}, padded with an independent star.

    The clique component is pigeonhole-refuted; a search that does not
    decompose components re-proves the refutation once per padding
    assignment (``leaves`` choices per ray), the kernel refutes it
    exactly once (E11's adversarial family).
    """
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


def test_pigeonhole_adversary(benchmark, search_effort):
    """E11 — the padded pigeonhole refutation."""
    source, target = padded_pigeonhole(5, 2, 4)

    def run():
        return find_homomorphism(source, target)

    result, effort = search_effort(run)
    benchmark(run)
    record(benchmark, experiment="E11", n=5, rays=2, leaves=4,
           found=result is not None)
    record_effort(benchmark, effort)
    assert result is None


@pytest.mark.parametrize("atoms", [4, 8])
def test_minimization(benchmark, atoms):
    query = random_cq({"e": 2}, atoms=atoms, variables=3, head_arity=1, seed=5)
    minimized = benchmark(lambda: minimize(query))
    record(benchmark, experiment="E9", atoms=atoms,
           kept=len(minimized.body))
