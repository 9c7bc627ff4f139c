"""Union queries end-to-end: COQL syntax through engines and persistence.

Covers the family pipeline the way a user crosses it: concrete-syntax
round-trips, the typechecker's branch-join diagnostics (and their
wording unification with the flat cq layer), family expansion,
evaluation, Sagiv–Yannakakis verdicts on both engines with
``branch_verdict`` memoization, chase-enabled verdict flips, and the
persistence of the new artifact kinds through the SQLite tier.
"""

import pickle
import sys
import threading
import traceback

import pytest

from repro.coql import (
    evaluate_coql,
    normalize,
    parse_coql,
    typecheck,
)
from repro.coql.containment import as_schema
from repro.coql.family import contains_union, family_of, union_branches
from repro.coql.pretty import to_text
from repro.constraints import parse_constraint
from repro.cq.parser import parse_query
from repro.cq.unions import UnionQuery
from repro.engine import ContainmentEngine, ParallelContainmentEngine
from repro.errors import (
    IncomparableQueriesError,
    TypeCheckError,
    UnsupportedQueryError,
    union_arity_mismatch,
)
from repro.objects.database import Database
from repro.pipeline import fingerprint

SCHEMA = as_schema({
    "r": {"a": "atom", "b": "atom"},
    "s": {"a": "atom", "b": "atom"},
})

R_BRANCH = "select [a: x.a] from x in r"
S_BRANCH = "select [a: y.a] from y in s"
UNION_RS = "(%s) union (%s)" % (R_BRANCH, S_BRANCH)


class TestSyntax:
    def test_round_trip(self):
        query = parse_coql(UNION_RS)
        text = to_text(query)
        assert "union" in text
        assert to_text(parse_coql(text)) == text

    def test_nested_unions_splice_flat(self):
        third = "select [a: z.b] from z in r"
        nested = parse_coql("((%s) union (%s)) union (%s)"
                            % (R_BRANCH, S_BRANCH, third))
        flat = parse_coql("(%s) union (%s) union (%s)"
                          % (R_BRANCH, S_BRANCH, third))
        assert len(union_branches(nested)) == 3
        assert to_text(nested) == to_text(flat)

    def test_branches_carry_spans(self):
        query = parse_coql(UNION_RS)
        branches = union_branches(query)
        assert all(branch.span is not None for branch in branches)
        assert branches[0].span != branches[1].span

    def test_typecheck_joins_branch_types(self):
        assert repr(typecheck(parse_coql(UNION_RS), SCHEMA)) == "{[a: atom]}"

    def test_arity_mismatch_is_spanned(self):
        bad = "(%s) union (select [a: y.a, b: y.b] from y in s)" % R_BRANCH
        with pytest.raises(TypeCheckError) as excinfo:
            typecheck(parse_coql(bad), SCHEMA)
        assert str(excinfo.value).startswith(union_arity_mismatch((1, 2)))
        assert excinfo.value.span is not None

    def test_wording_unified_with_cq_layer(self):
        # The flat Sagiv–Yannakakis layer and the COQL typechecker
        # report arity mismatches with one shared wording.
        with pytest.raises(IncomparableQueriesError) as excinfo:
            UnionQuery([
                parse_query("q(X) :- r(X, Y)"),
                parse_query("q(X, Y) :- r(X, Y)"),
            ])
        assert str(excinfo.value) == union_arity_mismatch((1, 2))
        assert "1, 2" in str(excinfo.value)


class TestFamily:
    def test_duplicate_branches_collapse(self):
        dup = parse_coql("(%s) union (%s)" % (R_BRANCH, R_BRANCH))
        assert len(union_branches(dup)) == 1
        assert len(family_of(dup).branches) == 1

    def test_union_free_query_is_its_own_branch(self):
        query = parse_coql(R_BRANCH)
        assert not contains_union(query)
        assert union_branches(query)[0] is query

    def test_generator_source_union_distributes(self):
        query = parse_coql("select [a: x.a] from x in (r union s)")
        branches = union_branches(query)
        assert len(branches) == 2
        assert {to_text(b) for b in branches} == {
            "select [a: x.a] from x in r",
            "select [a: x.a] from x in s",
        }

    def test_head_union_raises_spanned(self):
        query = parse_coql("select ({x.a} union {x.b}) from x in r")
        with pytest.raises(UnsupportedQueryError) as excinfo:
            family_of(query)
        assert "not distributable" in str(excinfo.value)
        assert excinfo.value.span is not None

    def test_family_is_memoized_on_the_ast(self):
        query = parse_coql("select [a: x.a] from x in (r union s)")
        first = union_branches(query)
        assert union_branches(query) is first

    def test_memo_is_invisible(self):
        for text in (UNION_RS, R_BRANCH):
            query = parse_coql(text)
            union_branches(query)
            fresh = parse_coql(text)
            assert query == fresh and hash(query) == hash(fresh)
            assert fingerprint(query) == fingerprint(fresh)
            assert pickle.dumps(query) == pickle.dumps(fresh)

    def test_union_free_memo_holds_no_self_reference(self):
        query = parse_coql(R_BRANCH)
        before = sys.getrefcount(query)
        assert union_branches(query) == (query,)
        assert sys.getrefcount(query) == before

    def test_non_distributable_union_raises_fresh_every_call(self):
        query = parse_coql("select ({x.a} union {x.b}) from x in r")
        raised = []
        depths = set()
        for __ in range(3):
            with pytest.raises(UnsupportedQueryError) as excinfo:
                union_branches(query)
            raised.append(excinfo.value)
            depths.add(len(traceback.extract_tb(excinfo.tb)))
        assert len(depths) == 1, depths
        assert len({id(exc) for exc in raised}) == len(raised)
        assert all(exc.span == (1, 9) for exc in raised)

    def test_threads_racing_on_fresh_asts_agree(self):
        texts = [
            UNION_RS,
            R_BRANCH,
            "select [a: x.a] from x in (r union s), y in (s union r)",
            "flatten(select {x.a} from x in r union select {y.b} from y in s)",
        ]
        expected = [union_branches(parse_coql(text)) for text in texts]
        shared = [parse_coql(text) for text in texts] * 4
        workers = 8
        results = [None] * workers
        barrier = threading.Barrier(workers, timeout=30)

        def work(slot):
            barrier.wait()
            results[slot] = [union_branches(query) for query in shared]

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
        assert results == [expected * 4] * workers
        # Whichever thread published last, the memo now answers alone.
        assert all(
            union_branches(query) is union_branches(query)
            for query in shared if contains_union(query)
        )

    def test_raw_union_normalize_raises_spanned(self):
        with pytest.raises(UnsupportedQueryError) as excinfo:
            normalize(parse_coql(UNION_RS))
        assert "per branch" in str(excinfo.value)
        assert excinfo.value.span == (1, 1)


class TestEvaluation:
    def test_union_is_answer_concatenation(self):
        db = Database.from_dict({
            "r": [{"a": 1, "b": 2}],
            "s": [{"a": 3, "b": 4}, {"a": 1, "b": 5}],
        })
        answer = evaluate_coql(parse_coql(UNION_RS), db)
        left = evaluate_coql(parse_coql(R_BRANCH), db)
        right = evaluate_coql(parse_coql(S_BRANCH), db)
        assert set(answer) == set(left) | set(right)
        assert len(set(answer)) == 2  # a:1 appears in both branches once


class TestEngineVerdicts:
    def test_sagiv_yannakakis_reduction(self):
        engine = ContainmentEngine()
        assert engine.contains(UNION_RS, R_BRANCH, SCHEMA) is True
        assert engine.contains(UNION_RS, S_BRANCH, SCHEMA) is True
        assert engine.contains(UNION_RS, UNION_RS, SCHEMA) is True
        assert engine.contains(R_BRANCH, UNION_RS, SCHEMA) is False

    def test_weak_equivalence_is_branch_order_insensitive(self):
        engine = ContainmentEngine()
        flipped = "(%s) union (%s)" % (S_BRANCH, R_BRANCH)
        assert engine.weakly_equivalent(UNION_RS, flipped, SCHEMA) is True

    def test_strict_equivalence_decides_unions(self):
        # Flat branches never build a set, so both families are
        # empty-set free and weak equivalence is equivalence.
        engine = ContainmentEngine()
        flipped = "(%s) union (%s)" % (S_BRANCH, R_BRANCH)
        assert engine.empty_set_free(UNION_RS, SCHEMA) is True
        assert engine.equivalent(UNION_RS, flipped, SCHEMA) is True
        assert engine.equivalent(UNION_RS, R_BRANCH, SCHEMA) is False
        # One branch whose inner set may be empty spoils the family.
        linked = (
            "select [a: x.a, k: select [b: y.b] from y in r"
            " where y.a = x.a] from x in r"
        )
        unlinked = "select [a: x.a, k: select [b: y.b] from y in s] from x in r"
        assert engine.empty_set_free(linked, SCHEMA) is True
        assert engine.empty_set_free(unlinked, SCHEMA) is False
        mixed = "(%s) union (%s)" % (linked, unlinked)
        assert engine.empty_set_free(mixed, SCHEMA) is False
        with pytest.raises(UnsupportedQueryError):
            engine.equivalent(mixed, mixed, SCHEMA)

    def test_strict_equivalence_refuses_absorbing_unions(self):
        # Both branches are empty-set free and NARROW ⊑ WIDE, so the
        # union is weakly equivalent to WIDE alone.  It is not equal:
        # the union keeps NARROW's smaller inner sets as extra elements.
        wide = (
            "select [a: x.a, k: select [b: y.b] from y in r"
            " where y.a = x.a] from x in r"
        )
        narrow = (
            "select [a: x.a, k: select [b: y.b] from y in r"
            " where y.a = x.a and y.b = x.b] from x in r"
        )
        both = "(%s) union (%s)" % (narrow, wide)
        db = Database.from_dict({"r": [{"a": 1, "b": 1}, {"a": 1, "b": 2}]})
        union_answer = evaluate_coql(parse_coql(both), db)
        wide_answer = evaluate_coql(parse_coql(wide), db)
        assert len(union_answer) == 3 and len(wide_answer) == 1
        engine = ContainmentEngine()
        assert engine.empty_set_free(both, SCHEMA) is True
        assert engine.weakly_equivalent(both, wide, SCHEMA) is True
        with pytest.raises(UnsupportedQueryError, match="flat branches"):
            engine.equivalent(both, wide, SCHEMA)

    def test_branch_verdicts_are_memoized(self):
        engine = ContainmentEngine()
        assert engine.contains(UNION_RS, UNION_RS, SCHEMA) is True
        stats = engine.stats()
        decided = stats.counter("union_branches_decided")
        assert decided >= 2
        misses = stats.counter("branch_verdict_misses")
        assert misses >= 2
        assert engine.cache_sizes().get("branch_verdict", 0) >= 2
        # The second identical check answers from the memo table.
        assert engine.contains(UNION_RS, UNION_RS, SCHEMA) is True
        assert stats.counter("branch_verdict_hits") >= 2
        assert stats.counter("branch_verdict_misses") == misses

    def test_parallel_engine_agrees(self):
        with ParallelContainmentEngine(jobs=2, timeout_s=120.0) as engine:
            assert engine.contains(UNION_RS, R_BRANCH, SCHEMA) is True
            assert engine.contains(R_BRANCH, UNION_RS, SCHEMA) is False

    def test_cached_incomparability_is_raised_fresh(self):
        # Every sub branch is incomparable with the only sup branch, so
        # the reduction raises the incomparability cached under
        # branch_verdict.  Raising that cached instance itself grew its
        # traceback on every repeat and kept the frames alive.
        wide = "select [a: x.a, b: x.b] from x in r"
        schema = {"r": ("a", "b"), "s": ("a", "b")}
        with ParallelContainmentEngine(jobs=1) as parallel:
            for contains in (ContainmentEngine().contains, parallel.contains):
                raised = []
                depths = set()
                for __ in range(5):
                    with pytest.raises(IncomparableQueriesError) as excinfo:
                        contains(wide, UNION_RS, schema)
                    raised.append(excinfo.value)
                    depths.add(len(traceback.extract_tb(excinfo.tb)))
                assert len(depths) == 1, depths
                assert len({str(exc) for exc in raised}) == 1
                assert len({exc.span for exc in raised}) == 1
                assert len({id(exc) for exc in raised}) == len(raised)


class TestChaseFlip:
    DEP = parse_constraint("r[a] -> s[a]")
    FLIP_SCHEMA = as_schema({"r": {"a": "atom"}, "s": {"a": "atom"}})
    SUP = "select [a: y.a] from y in s"
    SUB = "select [a: x.a] from x in r"

    def test_per_call_constraints_flip_the_verdict(self):
        engine = ContainmentEngine()
        assert engine.contains(self.SUP, self.SUB, self.FLIP_SCHEMA) is False
        assert engine.contains(
            self.SUP, self.SUB, self.FLIP_SCHEMA, constraints=(self.DEP,)
        ) is True
        stats = engine.stats()
        assert stats.counter("chase_misses") >= 1
        assert engine.cache_sizes().get("chase", 0) >= 1

    def test_engine_default_constraints(self):
        engine = ContainmentEngine(constraints=(self.DEP,))
        assert engine.contains(self.SUP, self.SUB, self.FLIP_SCHEMA) is True
        # constraints=() per call opts back out of the engine default.
        assert engine.contains(
            self.SUP, self.SUB, self.FLIP_SCHEMA, constraints=()
        ) is False

    def test_parallel_engine_flips_too(self):
        with ParallelContainmentEngine(
            jobs=2, timeout_s=120.0, constraints=(self.DEP,)
        ) as engine:
            assert engine.contains(
                self.SUP, self.SUB, self.FLIP_SCHEMA
            ) is True


class TestPersistence:
    def test_new_kinds_survive_the_sqlite_tier(self, tmp_path):
        dep = TestChaseFlip.DEP
        path = str(tmp_path / "artifacts.sqlite")
        first = ContainmentEngine(store_path=path, constraints=(dep,))
        # Verdicts and compiled targets stay in memory, so the second
        # engine rebuilds the target and its chase hook runs again.
        first.store().set_persisted("obligation_verdicts", False)
        first.store().set_persisted("targets", False)
        assert first.contains(
            TestChaseFlip.SUP, TestChaseFlip.SUB, TestChaseFlip.FLIP_SCHEMA
        ) is True
        assert first.contains(UNION_RS, R_BRANCH, SCHEMA) is True
        store = first.store()
        store.flush()
        on_disk = store.disk.sizes()
        assert on_disk.get("chase", 0) >= 1
        assert on_disk.get("branch_verdict", 0) >= 1
        store.close()

        second = ContainmentEngine(store_path=path, constraints=(dep,))
        # The chase artifact is read back from disk.
        assert second.contains(
            TestChaseFlip.SUP, TestChaseFlip.SUB, TestChaseFlip.FLIP_SCHEMA
        ) is True
        assert second.contains(UNION_RS, R_BRANCH, SCHEMA) is True
        counters = second.store().disk.counters()
        assert counters["chase"]["hits"] >= 1
        assert counters["branch_verdict"]["hits"] >= 1
        second.store().close()


class TestCli:
    def test_contain_with_constraints_flips(self, capsys):
        from repro.cli import main

        base = ["contain", "--schema", "r:a;s:a",
                TestChaseFlip.SUP, TestChaseFlip.SUB]
        assert main(base) == 1
        assert capsys.readouterr().out.strip() == "NOT contained"
        assert main(base + ["--constraints", "r[a] -> s[a]"]) == 0
        assert capsys.readouterr().out.strip() == "contained"

    def test_contain_union_queries(self, capsys):
        from repro.cli import main

        assert main(["contain", "--schema", "r:a,b;s:a,b",
                     UNION_RS, R_BRANCH]) == 0
        assert capsys.readouterr().out.strip() == "contained"

    def test_stats_show_the_new_kinds(self, capsys):
        from repro.cli import main

        assert main(["contain", "--schema", "r:a;s:a",
                     "--constraints", "r[a] -> s[a]", "--stats",
                     TestChaseFlip.SUP, TestChaseFlip.SUB]) == 0
        err = capsys.readouterr().err
        assert "chase_misses" in err
        assert "chase" in err
