"""Timeout enforcement and graceful degradation of the parallel engine.

Simulation of grouping queries is NP-complete (Theorem 5.1), so the
parallel engine must survive pathological checks.  The adversarial pair
here is a pigeonhole instance built by joining stars
(:func:`repro.workloads.generators.star_query`) into complete graphs:
deciding whether the K\\ :sub:`n` clique query is simulated by the
K\\ :sub:`n-1` one forces the homomorphism search to exhaust an
(n-1)!-shaped refutation — seconds at n=7, minutes beyond — while the
chain-into-star checks around it stay microseconds.  A bounded batch
must finish, report the hard entry per policy, and count the timeout.

Degradation: when no worker pool can be created (or it breaks
mid-batch), batches fall back to the in-process sequential engine with
identical verdicts.
"""

import pickle
import signal

import pytest

from repro.errors import ContainmentTimeout, ReproError
from repro.engine import ContainmentEngine, ParallelContainmentEngine, UNDECIDED
from repro.engine.parallel import Undecided
from repro.grouping.query import GroupingNode, GroupingQuery
from repro.grouping.simulation import is_simulated
from repro.workloads import chain_query, random_coql, star_query

SCHEMA = {"r": ("a", "b"), "s": ("k", "b")}

needs_sigalrm = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"),
    reason="per-check timeouts need SIGALRM (POSIX)",
)


def flat(cq, name):
    values = {"c%d" % i: term for i, term in enumerate(cq.head)}
    return GroupingQuery(GroupingNode("", cq.body, values, (), ()), name)


def clique(size, name):
    """The K_size clique query: the join of *size* stars, one centered
    at each variable (star_query's shape with the rays identified)."""
    star = star_query(size - 1)
    variables = sorted(
        {v for atom in star.body for v in atom.variables()}, key=repr
    )
    center = star.head[0]
    rays = [v for v in variables if v != center]
    atoms = []
    for i in range(size):
        others = [j for j in range(size) if j != i]
        renaming = {center: star.head[0].__class__("V%d" % i)}
        renaming.update(
            (ray, star.head[0].__class__("V%d" % j))
            for ray, j in zip(rays, others)
        )
        atoms.extend(
            atom.__class__(
                atom.pred, tuple(renaming.get(t, t) for t in atom.args)
            )
            for atom in star.body
        )
    return GroupingQuery(
        GroupingNode(
            "", tuple(atoms), {"c0": center.__class__("V0")}, (), ()
        ),
        name,
    )


HARD_SUB = clique(8, "k8_target")  # K9 -> K8: pigeonhole, no simulation
HARD_SUP = clique(9, "k9")

EASY_PAIRS = [
    (flat(chain_query(6, head_arity=1), "chain6"),
     flat(star_query(6), "star6")),
    (flat(star_query(5), "star5"),
     flat(chain_query(5, head_arity=1), "chain5")),
]
EASY_EXPECTED = [is_simulated(sub, sup) for sub, sup in EASY_PAIRS]


@needs_sigalrm
class TestTimeoutPath:
    def test_batch_completes_around_hard_pair(self):
        batch = [EASY_PAIRS[0], (HARD_SUB, HARD_SUP), EASY_PAIRS[1]]
        with ParallelContainmentEngine(
            jobs=2, timeout_s=0.4, chunk_size=1
        ) as engine:
            verdicts = engine.simulated_many(batch)
            stats = engine.stats()
        assert verdicts[0] == EASY_EXPECTED[0]
        assert verdicts[1] is UNDECIDED
        assert verdicts[2] == EASY_EXPECTED[1]
        assert stats.counter("timeouts") == 1
        assert stats.counter("tasks_dispatched") == 3

    def test_in_process_timeout_without_pool(self):
        """jobs=1 never forks: the deadline fires in the main thread."""
        engine = ParallelContainmentEngine(jobs=1, timeout_s=0.4)
        verdicts = engine.simulated_many([EASY_PAIRS[0], (HARD_SUB, HARD_SUP)])
        assert verdicts == [EASY_EXPECTED[0], UNDECIDED]
        assert engine._executor is None
        assert engine.stats().counter("timeouts") == 1

    def test_timeout_does_not_poison_later_checks(self):
        """After a timed-out check the worker (and its caches) keep
        answering correctly — the alarm is always cleared."""
        with ParallelContainmentEngine(
            jobs=2, timeout_s=0.4, chunk_size=1
        ) as engine:
            first = engine.simulated_many([(HARD_SUB, HARD_SUP)])
            second = engine.simulated_many(EASY_PAIRS)
        assert first == [UNDECIDED]
        assert second == EASY_EXPECTED


@needs_sigalrm
class TestNestedDeadlines:
    """``_deadline`` must preserve a pre-existing ``ITIMER_REAL``.

    The regression: an inner deadline's exit used to zero the timer
    outright, so an outer batch deadline wrapped around a per-check
    deadline (the in-process degradation path) silently lost its
    timeout and the batch could run forever.
    """

    def test_outer_deadline_survives_inner_exit(self):
        from time import sleep

        from repro.engine.parallel import _deadline

        with pytest.raises(ContainmentTimeout):
            with _deadline(0.3):
                with _deadline(5.0):
                    sleep(0.05)  # inner body completes well under budget
                # pre-fix: the inner exit zeroed ITIMER_REAL here and
                # the outer deadline never fired
                sleep(2.0)

    def test_inner_deadline_bounded_by_tighter_outer(self):
        from time import monotonic, sleep

        from repro.engine.parallel import _deadline

        start = monotonic()
        with pytest.raises(ContainmentTimeout):
            with _deadline(0.2):
                with _deadline(10.0):
                    sleep(2.0)
        assert monotonic() - start < 1.5

    def test_exit_rearms_remaining_not_original(self):
        from time import sleep

        from repro.engine.parallel import _deadline

        # The outer budget is 0.5s; the inner body consumes 0.3s of it.
        # On exit the outer timer must be re-armed with ~0.2s, so a
        # 2.0s follow-up still times out — and quickly.
        from time import monotonic

        start = monotonic()
        with pytest.raises(ContainmentTimeout):
            with _deadline(0.5):
                with _deadline(5.0):
                    sleep(0.3)
                sleep(2.0)
        assert monotonic() - start < 1.5

    def test_timer_cleared_after_outermost_exit(self):
        from repro.engine.parallel import _deadline

        with _deadline(5.0):
            pass
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0.0)
        assert remaining == 0.0


class TestUndecidedVerdict:
    def test_falsy_singleton(self):
        assert not UNDECIDED
        assert Undecided() is UNDECIDED
        assert repr(UNDECIDED) == "UNDECIDED"

    def test_identity_survives_pickling(self):
        assert pickle.loads(pickle.dumps(UNDECIDED)) is UNDECIDED

    def test_distinguishable_from_false_and_none(self):
        assert UNDECIDED is not False and UNDECIDED is not None
        assert isinstance(UNDECIDED, Undecided)


class TestDegradation:
    PAIRS = [
        (random_coql(seed=seed), random_coql(seed=seed + 3000))
        for seed in range(8)
    ]

    def test_unavailable_pool_falls_back_in_process(self, monkeypatch):
        from repro.engine import parallel as parallel_module

        def refuse(*args, **kwargs):
            raise OSError("no fork for you")

        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor", refuse
        )
        engine = ParallelContainmentEngine(jobs=4)
        expected = ContainmentEngine().contains_many(
            self.PAIRS, SCHEMA, on_error="capture"
        )
        got = engine.contains_many(self.PAIRS, SCHEMA, on_error="capture")
        assert [type(v) for v in got] == [type(v) for v in expected]
        assert [v for v in got if not isinstance(v, ReproError)] == [
            v for v in expected if not isinstance(v, ReproError)
        ]
        assert engine.stats().counter("pool_failures") == 1
        # a second batch does not retry pool construction endlessly
        engine.contains_many(self.PAIRS, SCHEMA, on_error="capture")
        assert engine.stats().counter("pool_failures") == 1
        engine.close()

    def test_broken_pool_mid_batch_recomputes_locally(self):
        from concurrent.futures.process import BrokenProcessPool

        class ExplodingExecutor:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("worker died")

            def shutdown(self, **kwargs):  # pragma: no cover
                raise AssertionError("injected executors are never shut down")

        engine = ParallelContainmentEngine(
            jobs=2, executor=ExplodingExecutor()
        )
        expected = ContainmentEngine().contains_many(
            self.PAIRS, SCHEMA, on_error="capture"
        )
        got = engine.contains_many(self.PAIRS, SCHEMA, on_error="capture")
        assert [
            v for v in got if not isinstance(v, ReproError)
        ] == [v for v in expected if not isinstance(v, ReproError)]
        assert engine.stats().counter("pool_failures") == 1

    def test_timeout_semantics_identical_after_degradation(self, monkeypatch):
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("needs SIGALRM")
        from repro.engine import parallel as parallel_module

        monkeypatch.setattr(
            parallel_module,
            "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(OSError("refused")),
        )
        engine = ParallelContainmentEngine(jobs=4, timeout_s=0.4)
        verdicts = engine.simulated_many([EASY_PAIRS[0], (HARD_SUB, HARD_SUP)])
        assert verdicts == [EASY_EXPECTED[0], UNDECIDED]
        assert engine.stats().counter("timeouts") == 1
