"""The containment service: protocol, batching, deadlines, and the
warm-restart contract (a restarted service answers from the persistent
tier)."""

import asyncio
import json
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection
from time import monotonic, sleep

import pytest

from repro.engine import UNDECIDED
from repro.service import (
    BackgroundService,
    ContainmentService,
    MicroBatcher,
    ServiceClient,
    ServiceError,
)

SCHEMA = {"r": ["a", "b"], "s": ["k", "b"]}
WIDER = "select [a: x.a, kids: select [b: y.b] from y in s] from x in r"
UNLINKED = (
    "select [a: x.a, kids: select [b: y.b] from y in s where y.k = x.a]"
    " from x in r"
)
FLAT = "select [v: x.a] from x in r"
FLAT_RESTRICTED = "select [v: x.a] from x in r, y in s where y.b = x.b"


@pytest.fixture(scope="module")
def service():
    with BackgroundService(timeout_s=30.0) as svc:
        yield svc


@pytest.fixture()
def client(service):
    with ServiceClient(service.host, service.port) as c:
        yield c


class TestProtocol:
    def test_health(self, client):
        assert client.health() is True

    def test_contain_verdicts(self, client):
        assert client.contain(WIDER, UNLINKED, SCHEMA) is True
        assert client.contain(UNLINKED, WIDER, SCHEMA) is False

    def test_contain_string_schema(self, client):
        assert client.contain(FLAT, FLAT, "r:a,b;s:k,b") is True

    def test_equiv(self, client):
        assert client.equiv(FLAT, FLAT, SCHEMA) is True
        assert client.equiv(FLAT, FLAT_RESTRICTED, SCHEMA) is False
        # Strict equivalence is only decided for empty-set-free queries
        # (UNLINKED is not); weak equivalence is decidable in general.
        assert client.equiv(WIDER, UNLINKED, SCHEMA, weak=True) is False
        with pytest.raises(ServiceError) as info:
            client.equiv(WIDER, UNLINKED, SCHEMA)
        assert info.value.status == 422
        assert info.value.kind == "UnsupportedQueryError"

    def test_equiv_decides_unions(self, client):
        union_rs = "select [v: x.a] from x in r union select [v: y.k] from y in s"
        union_sr = "select [v: y.k] from y in s union select [v: x.a] from x in r"
        assert client.equiv(union_rs, union_sr, SCHEMA) is True
        assert client.equiv(union_rs, FLAT, SCHEMA) is False
        # A union whose branches build sets stays refused, though both
        # are empty-set free: it keeps the narrower branch's smaller
        # inner sets, which weak equivalence cannot see.
        wide = (
            "select [a: x.a, kids: select [b: y.b] from y in r"
            " where y.a = x.a] from x in r"
        )
        narrow = wide.replace("y.a = x.a", "y.a = x.a and y.b = x.b")
        both = "(%s) union (%s)" % (narrow, wide)
        assert client.equiv(both, wide, SCHEMA, weak=True) is True
        with pytest.raises(ServiceError) as info:
            client.equiv(both, wide, SCHEMA)
        assert info.value.status == 422
        assert info.value.kind == "UnsupportedQueryError"
        assert "flat branches" in info.value.message

    def test_matrix(self, client):
        matrix = client.matrix([WIDER, UNLINKED, FLAT], SCHEMA)
        assert matrix[0][1] is True      # UNLINKED ⊑ WIDER
        assert matrix[1][0] is False
        assert matrix[0][2] is None      # incomparable with FLAT
        assert all(matrix[i][i] is True for i in range(3))

    def test_lint_report_shape(self, client):
        report = client.lint(query=FLAT, schema=SCHEMA)
        assert report["version"] == 1
        assert report["summary"]["targets"] == 1
        assert report["targets"][0]["target"] == FLAT
        report = client.lint(
            queries=[FLAT, WIDER], schema=SCHEMA, select=["COQL001"]
        )
        assert report["summary"]["targets"] == 2

    def test_classify(self, client):
        labels = client.classify(
            FLAT_RESTRICTED,
            {"flat": FLAT, "same": FLAT_RESTRICTED, "nested": WIDER},
            SCHEMA,
        )
        assert labels == {
            "flat": "subsuming",
            "same": "equivalent",
            "nested": "irrelevant",
        }

    def test_classify_bad_views_is_400(self, client):
        for views in ({}, {"v": 7}):
            with pytest.raises(ServiceError) as info:
                client.classify(FLAT, views, SCHEMA)
            assert info.value.status == 400

    def test_incomparable_is_422_with_type(self, client):
        with pytest.raises(ServiceError) as info:
            client.contain(FLAT, UNLINKED, SCHEMA)
        assert info.value.status == 422
        assert info.value.kind == "IncomparableQueriesError"

    def test_missing_schema_is_400(self, client):
        with pytest.raises(ServiceError) as info:
            client.contain(FLAT, FLAT)
        assert info.value.status == 400

    def test_method_field_is_ignored(self, client):
        # The service decides by one method; "method" is an unknown
        # field like any other.
        assert client.contain(FLAT, FLAT, SCHEMA, method="oracle") is True

    def test_witnesses_field_cannot_change_the_verdict(self, client):
        # Zero witness copies once turned this containment into False.
        sup = (
            "select [v0: r1.b, inner0: (select [v1: r2.b] from r2 in r"
            " where r2.a = r1.a)] from r1 in r"
        )
        sub = (
            "select [v0: r1.b, inner0: (select [v1: s2.k] from s2 in s"
            " where s2.k = r1.b)] from r1 in r"
        )
        for witnesses in (0, 1, 2, None):
            assert client.contain(
                sup, sub, "r:a,b;s:k,b", witnesses=witnesses
            ) is True, witnesses

    def test_unknown_route_is_404(self, service):
        conn = HTTPConnection(service.host, service.port, timeout=10)
        conn.request("POST", "/v1/nope", body=b"{}")
        assert conn.getresponse().status == 404
        conn.close()

    def test_invalid_json_body_is_400(self, service):
        conn = HTTPConnection(service.host, service.port, timeout=10)
        conn.request("POST", "/v1/contain", body=b"not json")
        response = conn.getresponse()
        assert response.status == 400
        payload = json.loads(response.read())
        assert "error" in payload
        conn.close()

    def test_stats_shape(self, client):
        client.contain(WIDER, UNLINKED, SCHEMA)
        stats = client.stats()
        assert stats["service"]["requests"]["contain"] >= 1
        assert stats["service"]["batches"] >= 1
        assert "prepare_hits" in stats["engine"]
        assert "hit_rates" in stats["store"]

    def test_concurrent_requests_all_answered(self, service):
        expected = {WIDER: True, UNLINKED: False}
        results = {}
        errors = []

        def hit(sup, sub):
            try:
                with ServiceClient(service.host, service.port) as c:
                    results[(sup, sub)] = c.contain(sup, sub, SCHEMA)
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=hit, args=(sup, sub))
            for sup in (WIDER, UNLINKED)
            for sub in (WIDER, UNLINKED)
            for __ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors
        assert results[(WIDER, UNLINKED)] is True
        assert results[(UNLINKED, WIDER)] is False
        assert results[(WIDER, WIDER)] is True


def clique_coql(size):
    """K_size over ``node``/``e`` as a COQL query.  ``K_n ⊑ K_(n+1)`` is
    a pigeonhole refutation: seconds at n=8, far longer at n=9."""
    gens = ["v%d in node" % i for i in range(size)]
    conds = []
    for i in range(size):
        for j in range(size):
            if i != j:
                gens.append("e%d_%d in e" % (i, j))
                conds.append("e%d_%d.a = v%d.id" % (i, j, i))
                conds.append("e%d_%d.b = v%d.id" % (i, j, j))
    return "select [c: v0.id] from %s where %s" % (
        ", ".join(gens), " and ".join(conds))


def wait_pending(svc, count):
    """Wait until *count* requests wait in the service's batcher (read on
    its loop)."""
    async def pending():
        buckets = svc.service._batcher._pending.values()
        return sum(len(bucket.entries) for bucket in buckets)

    deadline = monotonic() + 10
    while asyncio.run_coroutine_threadsafe(
        pending(), svc._loop
    ).result(10) < count:
        assert monotonic() < deadline, "requests never reached the batcher"
        sleep(0.005)


def one_batch(svc, requests, schema, holder, **knobs):
    """Send the ``{name: (sup, sub)}`` requests concurrently, each on its
    own connection, while the service's first batch (the *holder* pair)
    is held on the engine thread; the held batch is released once every
    request waits in the batcher.  Their verdicts or
    :class:`ServiceError` exceptions, and the service's stats once every
    request is answered."""
    batcher = svc.service._batcher
    gate = batcher._run_batch = GatedBatches(batcher._run_batch)
    results = {}

    def hit(client, name, pair):
        try:
            results[name] = client.contain(*pair, schema, **knobs)
        except ServiceError as exc:
            results[name] = exc

    requests = dict(requests, holder=holder)
    clients = [ServiceClient(svc.host, svc.port) for __ in requests]
    threads = [
        threading.Thread(target=hit, args=(client,) + item)
        for client, item in zip(clients, requests.items())
    ]
    try:
        threads[-1].start()
        assert gate.held.wait(10)
        for thread in threads[:-1]:
            thread.start()
        wait_pending(svc, len(threads) - 1)
    finally:
        gate.release.set()
    for thread in threads:
        thread.join(30)
        assert not thread.is_alive()
    stats = clients[0].stats()
    for client in clients:
        client.close()
    return results, stats


def parse_error_message(error):
    """The message of a 422 ``ParseError`` response."""
    assert isinstance(error, ServiceError), error
    assert (error.status, error.kind) == (422, "ParseError")
    return error.message


class TestBatchIsolation:
    def test_rejected_query_fails_only_its_own_request(self):
        truncated = "select [v: x.a] from x in"
        deep = "r"
        for level in range(999, -1, -1):
            deep = "select x%d from x%d in (%s)" % (level, level, deep)
        requests = {
            "good": (FLAT, FLAT),
            "truncated": (truncated, FLAT),
            "deep": (deep, FLAT),
        }
        # A window longer than the test: only the held batch finishing
        # dispatches the requests waiting behind it.
        with BackgroundService(timeout_s=30.0, batch_window_s=30.0) as svc:
            results, stats = one_batch(
                svc, requests, "r:a,b;s:k,b", (FLAT, FLAT_RESTRICTED)
            )
        # All three requests shared the micro-batch after the held one.
        assert stats["service"]["batches"] == 2
        assert stats["service"]["largest_batch"] == 3
        assert results["holder"] is True
        assert results["good"] is True
        assert parse_error_message(results["truncated"]) == (
            "unexpected end of COQL input in %r" % truncated
        )
        assert "nested too deeply" in parse_error_message(results["deep"])

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"),
        reason="per-check timeouts need SIGALRM (POSIX)",
    )
    def test_pool_keeps_deadlines_around_a_rejected_query(self):
        """Under ``jobs=2`` a batch holding a rejected query is decided
        again in the pool: the heavy pair still times out in a worker,
        rather than running to completion on the engine thread until
        the response deadline gives up on it."""
        heavy = (clique_coql(10), clique_coql(9))
        truncated = "select [c: v0.id] from v0 in"
        requests = {"heavy": heavy, "truncated": (truncated, heavy[1])}
        node = "select [c: v0.id] from v0 in node"
        # The pool takes the lone holder when its window closes and the
        # two requests, a full group of two, when the holder finishes.
        # The response deadline stays 0.5 + 2.0 + 1.3 = 3.8 s.
        with BackgroundService(
            jobs=2, batch_window_s=2.0, deadline_grace_s=1.3
        ) as svc:
            results, stats = one_batch(
                svc, requests, "node:id;e:a,b", (node, node), timeout_s=0.5
            )
        assert stats["service"]["batches"] == 2
        assert stats["service"]["largest_batch"] == 2
        assert results["holder"] is True
        assert results["heavy"] == "undecided"
        assert stats["service"]["deadline_misses"] == 0
        assert stats["engine"]["timeouts"] == 1
        assert parse_error_message(results["truncated"]) == (
            "unexpected end of COQL input in %r" % truncated
        )


class TestPoolBatching:
    def test_lone_request_waits_for_a_partner(self):
        # With jobs=2 an idle engine holds a lone request (here for up to
        # 30 s) until a second one arrives, then sends both as one batch
        # to its workers.
        results = {}

        def hit(index, client):
            results[index] = client.contain(FLAT, FLAT, "r:a,b;s:k,b")

        with BackgroundService(jobs=2, batch_window_s=30.0) as svc:
            clients = [ServiceClient(svc.host, svc.port) for __ in range(2)]
            threads = [threading.Thread(target=hit, args=item)
                       for item in enumerate(clients)]
            threads[0].start()
            wait_pending(svc, 1)
            threads[1].start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
            stats = clients[0].stats()
            for client in clients:
                client.close()
        assert results == {0: True, 1: True}
        assert stats["service"]["batches"] == 1
        assert stats["service"]["largest_batch"] == 2


class TestMicroBatcher:
    def test_coalesces_concurrent_submits(self):
        calls = []

        def run_batch(group, items):
            calls.append((group, list(items)))
            return [item * 10 for item in items]

        async def main():
            batcher = MicroBatcher(run_batch, window_s=0.01)
            results = await asyncio.gather(
                batcher.submit("knobs", 1),
                batcher.submit("knobs", 2),
                batcher.submit("knobs", 3),
            )
            return results, batcher

        results, batcher = asyncio.run(main())
        assert results == [10, 20, 30]
        assert len(calls) == 1
        assert calls[0] == ("knobs", [1, 2, 3])
        assert batcher.batches == 1
        assert batcher.largest_batch == 3

    def test_incompatible_groups_never_share_a_batch(self):
        calls = []

        def run_batch(group, items):
            calls.append(group)
            return list(items)

        async def main():
            batcher = MicroBatcher(run_batch, window_s=0.01)
            await asyncio.gather(
                batcher.submit("knobs-a", 1),
                batcher.submit("knobs-b", 2),
            )
            return batcher

        batcher = asyncio.run(main())
        assert sorted(calls) == ["knobs-a", "knobs-b"]
        assert batcher.batches == 2

    def test_max_batch_dispatches_early(self):
        calls = []

        def run_batch(group, items):
            calls.append(list(items))
            return list(items)

        async def main():
            batcher = MicroBatcher(run_batch, window_s=30.0, max_batch=2)
            return await asyncio.gather(
                batcher.submit("k", 1),
                batcher.submit("k", 2),
                batcher.submit("k", 3),
                batcher.submit("k", 4),
            )

        assert asyncio.run(main()) == [1, 2, 3, 4]
        assert calls == [[1, 2], [3, 4]]

    def test_batch_failure_fails_every_member(self):
        def run_batch(group, items):
            raise RuntimeError("engine fell over")

        async def main():
            batcher = MicroBatcher(run_batch, window_s=0.0)
            return await asyncio.gather(
                batcher.submit("k", 1),
                batcher.submit("k", 2),
                return_exceptions=True,
            )

        results = asyncio.run(main())
        assert all(isinstance(r, RuntimeError) for r in results)

    # Work conservation.  The windows below are far longer than any
    # test waits, so a request that resolves was dispatched by an idle
    # engine, a finished batch, or a short window, never by a 30 s one.

    def test_idle_batcher_dispatches_a_lone_request_at_once(self):
        async def main():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(
                    lambda group, items: list(items), executor=executor,
                    window_s=30.0,
                )
                return await asyncio.wait_for(batcher.submit("k", 1), 1)

        assert asyncio.run(main()) == 1

    def test_requests_behind_a_running_batch_share_the_next(self):
        run_batch = GatedBatches()

        async def main():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(
                    run_batch, executor=executor, window_s=30.0
                )
                try:
                    first = asyncio.ensure_future(batcher.submit("k", 1))
                    await run_batch.wait_held()
                    rest = [
                        asyncio.ensure_future(batcher.submit("k", item))
                        for item in (2, 3)
                    ]
                    await asyncio.sleep(0)  # both join one waiting group
                    assert batcher.batches == 1
                finally:
                    run_batch.release.set()
                results = await asyncio.wait_for(
                    asyncio.gather(first, *rest), 10
                )
                return results, batcher

        results, batcher = asyncio.run(main())
        assert results == [10, 20, 30]
        assert run_batch.calls == [[1], [2, 3]]
        assert batcher.batches == 2

    def test_window_bounds_the_wait_behind_a_held_batch(self):
        run_batch = GatedBatches()

        async def main():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(
                    run_batch, executor=executor, window_s=0.01
                )
                try:
                    first = asyncio.ensure_future(batcher.submit("k", 1))
                    await run_batch.wait_held()
                    second = asyncio.ensure_future(batcher.submit("k", 2))
                    # The window, not the held batch, dispatches it.
                    await until(lambda: batcher.batches == 2)
                    assert run_batch.calls == [[1]]
                finally:
                    run_batch.release.set()
                return await asyncio.wait_for(
                    asyncio.gather(first, second), 10
                )

        assert asyncio.run(main()) == [10, 20]
        assert run_batch.calls == [[1], [2]]

    def test_failed_batch_leaves_the_batcher_idle(self):
        def run_batch(group, items):
            if items == [1]:
                raise RuntimeError("engine fell over")
            return list(items)

        async def main():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(
                    run_batch, executor=executor, window_s=30.0
                )
                with pytest.raises(RuntimeError):
                    await asyncio.wait_for(batcher.submit("k", 1), 1)
                return await asyncio.wait_for(batcher.submit("k", 2), 1)

        assert asyncio.run(main()) == 2

    # A pool (workers=2): an idle engine waits for a group of two.

    def test_pool_holds_a_lone_request_for_a_partner(self):
        run_batch = GatedBatches()
        run_batch.release.set()

        async def main():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(
                    run_batch, executor=executor, window_s=30.0, workers=2
                )
                first = asyncio.ensure_future(batcher.submit("k", 1))
                for __ in range(3):
                    await asyncio.sleep(0)
                assert batcher.batches == 0
                second = batcher.submit("k", 2)
                return await asyncio.wait_for(
                    asyncio.gather(first, second), 1
                )

        assert asyncio.run(main()) == [10, 20]
        assert run_batch.calls == [[1, 2]]

    def test_pool_window_bounds_a_lone_request(self):
        async def main():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(
                    lambda group, items: list(items), executor=executor,
                    window_s=0.01, workers=2,
                )
                return await asyncio.wait_for(batcher.submit("k", 1), 1)

        assert asyncio.run(main()) == 1

    def test_pool_hand_off_takes_only_full_groups(self):
        run_batch = GatedBatches()

        async def main():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = MicroBatcher(
                    run_batch, executor=executor, window_s=30.0, workers=2
                )
                try:
                    held = [asyncio.ensure_future(batcher.submit("k", item))
                            for item in (1, 2)]
                    await run_batch.wait_held()
                    full = [asyncio.ensure_future(batcher.submit("k", item))
                            for item in (3, 4)]
                    lone = asyncio.ensure_future(batcher.submit("j", 5))
                    await asyncio.sleep(0)
                finally:
                    run_batch.release.set()
                results = await asyncio.wait_for(
                    asyncio.gather(*held, *full), 10
                )
                assert not lone.done() and batcher.batches == 2
                await batcher.drain()
                return results + [await asyncio.wait_for(lone, 10)]

        assert asyncio.run(main()) == [10, 20, 30, 40, 50]
        assert run_batch.calls == [[1, 2], [3, 4], [5]]


class GatedBatches:
    """A ``run_batch`` that records every batch, holds the first on the
    executor thread until :attr:`release` is set, and answers through
    *decide* (default: ten times each item)."""

    def __init__(self, decide=None):
        self.calls = []
        self.held = threading.Event()
        self.release = threading.Event()
        self._decide = decide or (lambda group, items: [
            item * 10 for item in items
        ])

    def __call__(self, group, items):
        self.calls.append(list(items))
        if not self.held.is_set():
            self.held.set()
            assert self.release.wait(30)
        return self._decide(group, items)

    async def wait_held(self):
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self.held.wait, 10)


async def until(condition, timeout=10):
    """Poll *condition* on the loop until it holds (at most *timeout* s)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not condition():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.001)


class TestDeadlines:
    def test_response_deadline_answers_undecided(self):
        async def main():
            service = ContainmentService(
                port=0, batch_window_s=0.0, deadline_grace_s=0.05
            )
            try:

                async def stuck():
                    await asyncio.sleep(60)

                verdict, missed = await service._with_deadline(
                    stuck(), 0.01
                )
                assert verdict is UNDECIDED
                assert missed
                assert service._deadline_misses == 1
                # No deadline: the value passes straight through.
                async def quick():
                    return True

                verdict, missed = await service._with_deadline(quick(), None)
                assert verdict is True
                assert not missed
            finally:
                await service.stop()

        asyncio.run(main())

    def test_contain_with_budget_still_decides_fast_checks(self, client):
        # A generous per-request deadline must not disturb verdicts.
        assert client.contain(
            WIDER, UNLINKED, SCHEMA, timeout_s=30.0
        ) is True


class TestTraceRetention:
    def test_service_keeps_no_trace_tree(self, service, client):
        assert client.contain(WIDER, UNLINKED, SCHEMA) is True
        assert client.matrix([WIDER, UNLINKED], SCHEMA)
        tracer = service.service.engine().tracer()
        assert tracer.roots() == ()
        # The per-stage rollup survives without the trees.
        assert tracer.stage_summary()["check"]["runs"] >= 1


class TestWarmRestart:
    def test_restarted_service_hits_persistent_tier(self, tmp_path):
        path = str(tmp_path / "service.db")
        with BackgroundService(store_path=path, timeout_s=30.0) as svc:
            with ServiceClient(svc.host, svc.port) as c:
                assert c.contain(WIDER, UNLINKED, SCHEMA) is True
                c.flush()
                cold = c.stats()
        assert sum(cold["store"]["persistent"]["sizes"].values()) > 0

        # Fresh service process state over the same database file: the
        # first answer comes from artifacts the dead service prepared.
        with BackgroundService(
            store_path=path, timeout_s=30.0, preload=True
        ) as svc:
            assert svc.service.preloaded > 0
            with ServiceClient(svc.host, svc.port) as c:
                assert c.contain(WIDER, UNLINKED, SCHEMA) is True
                warm = c.stats()
        # Every artifact of the repeated check comes from the dead
        # service's rows: the parse stage names the loaded ASTs by their
        # texts' keys again, so their prepare keys match the stored ones.
        rates = warm["store"]["hit_rates"]
        for kind in ("parse", "prepare", "obligation_verdicts"):
            assert rates[kind] == 1.0, (kind, rates)

    def test_matrix_and_lint_share_the_tier(self, tmp_path):
        path = str(tmp_path / "service.db")
        with BackgroundService(store_path=path, timeout_s=30.0) as svc:
            with ServiceClient(svc.host, svc.port) as c:
                c.matrix([WIDER, UNLINKED], SCHEMA)
                c.flush()
        with BackgroundService(store_path=path, timeout_s=30.0) as svc:
            with ServiceClient(svc.host, svc.port) as c:
                report = c.lint(query=WIDER, schema=SCHEMA)
                assert report["summary"]["errors"] == 0
                stats = c.stats()
        counters = stats["store"]["persistent"]["counters"]
        assert sum(
            tally["hits"] for tally in counters.values()
        ) > 0
