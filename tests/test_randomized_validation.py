"""Randomized end-to-end validation sweeps.

Each sweep pits a decision procedure against semantics on randomized
instances: positive verdicts must hold on every sampled database;
negative verdicts are probed for witnesses.

Set ``REPRO_SLOW_TESTS=1`` to widen every sweep (more seeds, deeper
queries) — batches are cheap now that the engine shards them, so the
extended sweeps run in CI's nightly/slow legs while the default case
counts keep ordinary runs fast.
"""

import itertools
import os
import random
import re

import pytest

from repro.errors import IncomparableQueriesError, UnsupportedQueryError
from repro.cq.terms import Var
from repro.objects import Database
from repro.objects.types import RecordType, ATOM
from repro.aggregates import (
    AggregateQuery,
    aggregate_contained,
    evaluate_symbolic,
)
from repro.algebra import Pipeline, pipelines_equivalent
from repro.coql import contains
from repro.grouping import is_simulated
from repro.workloads import (
    random_coql,
    random_coql_deep,
    random_flat_database,
    random_grouping_query,
)

#: Sweep-width multiplier: 1 by default, larger under REPRO_SLOW_TESTS=1.
SWEEP = 4 if os.environ.get("REPRO_SLOW_TESTS") == "1" else 1


def seeds(count, start=0):
    """``count`` seeds by default, ``SWEEP * count`` in slow mode."""
    return range(start, start + SWEEP * count)


class TestAggregateContainmentRandomized:
    BODIES = [
        ("r(G, V)",),
        ("r(G, V)", "r(G, W)"),
        ("r(G, V)", "s(G)"),
        ("r(G, V)", "s(V)"),
        ("r(G, V)", "r(W, V)", "s(W)"),
        ("r(G, V)", "t(G, V)"),
    ]

    def _query(self, body_texts):
        from repro.cq.parser import parse_atom

        return AggregateQuery(
            tuple(parse_atom(t) for t in body_texts), (Var("G"),), "f", Var("V")
        )

    @pytest.mark.parametrize("seed", seeds(15))
    def test_containment_soundness(self, seed):
        rng = random.Random(seed)
        q1 = self._query(rng.choice(self.BODIES))
        q2 = self._query(rng.choice(self.BODIES))
        if not aggregate_contained(q2, q1):
            return
        # q1 ⊑ q2: q1's symbolic result rows must appear in q2's.
        for db_seed in range(8):
            db = random_flat_database(
                {"r": 2, "s": 1, "t": 2}, rows=5, domain=3, seed=db_seed
            )
            assert evaluate_symbolic(q1, db) <= evaluate_symbolic(q2, db), (
                q1,
                q2,
                db_seed,
            )

    @pytest.mark.parametrize("seed", seeds(10))
    def test_refutations_witnessed(self, seed):
        rng = random.Random(seed + 500)
        q1 = self._query(rng.choice(self.BODIES))
        q2 = self._query(rng.choice(self.BODIES))
        if aggregate_contained(q2, q1):
            return
        witnessed = any(
            not (
                evaluate_symbolic(q1, db) <= evaluate_symbolic(q2, db)
            )
            for db in (
                random_flat_database(
                    {"r": 2, "s": 1, "t": 2}, rows=5, domain=2, seed=s
                )
                for s in range(30)
            )
        )
        assert witnessed, (q1, q2)


class TestNestUnnestRandomized:
    SCHEMA = {"r": RecordType({"a": ATOM, "b": ATOM, "c": ATOM})}

    def _random_pipeline(self, seed, steps):
        """A random valid nest/unnest pipeline over r(a,b,c).

        Tracks flat attributes and live set labels.  A nest must include
        every live label among the nested attributes (otherwise a
        set-valued attribute would govern the grouping — the footnote-3
        restriction); an unnest re-exposes the label's contents.
        """
        rng = random.Random(seed)
        flat = ["a", "b", "c"]
        live = {}  # label -> (flat attrs inside, labels inside)
        out = []
        counter = 0
        for __ in range(steps):
            if live and (rng.random() < 0.5 or len(flat) < 2):
                label = rng.choice(sorted(live))
                inner_flat, inner_labels = live.pop(label)
                out.append(("unnest", label))
                flat.extend(inner_flat)
                live.update(inner_labels)
            elif len(flat) >= 2:
                count = rng.randint(1, len(flat) - 1)
                chosen = sorted(rng.sample(flat, count))
                attrs = tuple(chosen) + tuple(sorted(live))
                label = "g%d" % counter
                counter += 1
                for attr in chosen:
                    flat.remove(attr)
                nested_labels = dict(live)
                live = {label: (chosen, nested_labels)}
                out.append(("nest", attrs, label))
        return Pipeline("r", out)

    def _random_db(self, seed):
        rng = random.Random(seed)
        rows = [
            {"a": rng.randrange(2), "b": rng.randrange(2), "c": rng.randrange(2)}
            for __ in range(rng.randint(1, 5))
        ]
        return Database.from_dict({"r": rows})

    @pytest.mark.parametrize("seed", seeds(15))
    def test_equivalence_matches_evaluation(self, seed):
        p1 = self._random_pipeline(seed, steps=3)
        p2 = self._random_pipeline(seed + 700, steps=3)
        try:
            verdict = pipelines_equivalent(p1, p2, self.SCHEMA)
        except (IncomparableQueriesError, UnsupportedQueryError):
            return
        agree = all(
            p1.evaluate(self._random_db(s)) == p2.evaluate(self._random_db(s))
            for s in range(10)
        )
        if verdict:
            assert agree, (p1, p2)
        else:
            # probe harder for a witness before accepting a refutation
            witnessed = any(
                p1.evaluate(self._random_db(s)) != p2.evaluate(self._random_db(s))
                for s in range(40)
            )
            assert witnessed, (p1, p2)

    @pytest.mark.parametrize("seed", seeds(10))
    def test_self_equivalence(self, seed):
        pipeline = self._random_pipeline(seed, steps=4)
        assert pipelines_equivalent(pipeline, pipeline, self.SCHEMA)


class TestBatchedCoqlSweep:
    """Batch-path validation: the engine's sharded batch must agree with
    per-pair module-level decisions on a seeded random sweep.  Depth and
    pair counts widen under REPRO_SLOW_TESTS=1 (the parallel engine
    makes wide sweeps cheap on multi-core machines)."""

    SCHEMA = {"r": ("a", "b"), "s": ("k", "b")}

    def _pairs(self):
        from repro.workloads import random_coql_deep

        depths = (2, 3) if SWEEP == 1 else (2, 3, 4)
        pairs = []
        for depth in depths:
            pairs.extend(
                (
                    random_coql_deep(seed=seed, depth=depth),
                    random_coql_deep(seed=seed + 12345, depth=depth),
                )
                for seed in seeds(10)
            )
        return pairs

    def test_batch_agrees_with_singles(self):
        from repro.engine import ParallelContainmentEngine
        from repro.errors import ReproError

        pairs = self._pairs()
        with ParallelContainmentEngine(jobs=2) as engine:
            batch = engine.contains_many(pairs, self.SCHEMA, on_error="capture")
        for (sup, sub), verdict in zip(pairs, batch):
            try:
                expected = contains(sup, sub, self.SCHEMA)
            except ReproError as exc:
                expected = exc
            if isinstance(expected, ReproError):
                assert type(verdict) is type(expected)
            else:
                assert verdict == expected, (sup, sub)


class TestCertificateMatchesOracleWithConstants:
    """On queries whose conditions compare a path with a constant, the
    certificate verdict equals the brute-force oracle's
    (``method="canonical"``) on every ordered pair of the pool.  Pairs
    of distinct queries are almost all non-contained, so the reflexive
    pairs supply the positive verdicts."""

    SCHEMA = {"r": ("a", "b"), "s": ("k", "b")}
    #: Constant-bearing ``random_coql_deep`` queries at depths 2 and 3.
    POOL = tuple(
        text
        for seed in seeds(10)
        for depth in (2, 3)
        for text in (random_coql_deep(seed=seed, depth=depth),)
        if re.search(r"= \d", text)
    )

    def test_certificate_matches_oracle(self):
        verdicts = set()
        for sub, sup in itertools.product(self.POOL, repeat=2):
            try:
                by_certificate = contains(sup, sub, self.SCHEMA)
            except IncomparableQueriesError:
                continue
            by_canonical = contains(sup, sub, self.SCHEMA, method="canonical")
            assert by_certificate is by_canonical, (sub, sup)
            verdicts.add(by_certificate)
        assert verdicts == {True, False}


class TestCoqlContainmentTransitivity:
    SCHEMA = {"r": ("a", "b"), "s": ("k", "b")}

    @pytest.mark.parametrize("seed", seeds(8))
    def test_transitive(self, seed):
        qs = [
            random_coql(seed=seed + i * 1111, depth=2) for i in range(3)
        ]
        a, b, c = qs
        try:
            ab = contains(b, a, self.SCHEMA)
            bc = contains(c, b, self.SCHEMA)
            if ab and bc:
                assert contains(c, a, self.SCHEMA), (a, b, c)
        except IncomparableQueriesError:
            return


class TestWitnessRetraction:
    """One witness copy decides an unconstrained simulation check (the
    retraction lemma, DESIGN.md §2): whether a certificate exists is the
    same at k = 1, at k = 3, at the completeness bound, and under the
    default schedule."""

    SCHEMA = {"r": 2, "s": 2}
    COQL_SCHEMA = {"r": ("a", "b"), "s": ("k", "b")}

    def _verdict(self, sub, sup):
        bound = max(1, len(sup.variables()))
        verdicts = {
            k: is_simulated(sub, sup, witnesses=k) for k in (1, 3, bound)
        }
        verdicts["default"] = is_simulated(sub, sup)
        assert len(set(verdicts.values())) == 1, (sub, sup, verdicts)
        return verdicts[1]

    @pytest.mark.parametrize("seed", seeds(25))
    def test_random_trees(self, seed):
        # Certificates need a witness copy most often in trees without
        # value columns: no pin fixes their variables.
        for depth, branching, values in itertools.product(
            (2, 3), (1, 2), (0, 1)
        ):
            q1, q2 = (
                random_grouping_query(
                    self.SCHEMA, seed=seed + offset, depth=depth,
                    branching=branching, variables=4, values_per_node=values,
                )
                for offset in (0, 7000)
            )
            self._verdict(q1, q2)
            self._verdict(q2, q1)

    def test_catalog_obligations(self):
        from repro.coql.containment import prepare
        from repro.coql.encode import paired_encoding, shapes_compatible
        from repro.pipeline import Pipeline as StagePipeline

        catalog = [
            prepare(random_coql_deep(seed=seed, depth=2 + seed % 2),
                    self.COQL_SCHEMA)
            for seed in seeds(10)
        ]
        pipeline = StagePipeline(store=None)
        verdicts = []
        for sub, sup in itertools.permutations(catalog, 2):
            if sub.is_empty or sup.is_empty:
                continue
            if not shapes_compatible(sub.shape, sup.shape):
                continue
            sub_query, sup_query, __ = paired_encoding(sub, sup)
            if sub_query is None:
                continue
            for pattern in pipeline.enumerate_obligations(sub_query):
                verdicts.append(self._verdict(
                    sub_query.truncate(pattern), sup_query.truncate(pattern)
                ))
        assert len(verdicts) >= 20
        assert True in verdicts and False in verdicts
