"""Micro-batching of concurrent containment requests.

At service load, many clients ask ``contains`` at once.  Deciding each
request alone wastes the batch machinery the engine already has:
:meth:`contains_many` amortizes chunk dispatch and lets shards share
compiled targets, and the content-addressed store means concurrent
requests over overlapping queries hit each other's artifacts.

:class:`MicroBatcher` coalesces requests into one ``contains_many`` call
per compatible *group* — requests can only share a batch when their
schema and per-check timeout agree, so the group key is exactly that
pair.  Batching is work-conserving, as a database's group commit is: a
group is *full* once it holds *workers* requests, as many checks as the
engine decides at once (one in-process, one per worker for a pool), and

* a full group on an idle engine is dispatched on the next loop turn,
  together with any request already queued on the loop;
* any other group waits for company until its *window* closes or it
  reaches *max_batch*, or, once full, until the batches in flight
  finish;
* when the last batch in flight finishes, every full group is
  dispatched.

Batches run one at a time, so a request cannot join a batch that has
started.  With ``workers=1`` a lone request to an idle engine therefore
pays no window, and a group collects what arrives while the engine is
busy; a pool's lone request waits up to the window for partners, which
then run beside it on the pool's workers instead of behind it.  The
window is the upper bound on any request's wait in the batcher.

The batcher is event-loop-confined (no locks): ``submit`` must be
awaited on the loop that created the batcher, the in-flight count is
only touched there, and the sync *run_batch* callable is pushed to
*executor* so the loop never blocks on a decision.
"""

import asyncio

__all__ = ["MicroBatcher"]


class _Bucket:
    __slots__ = ("group", "entries", "timer", "deadline")

    def __init__(self, group, deadline):
        self.group = group
        self.entries = []
        self.timer = None
        self.deadline = deadline


class MicroBatcher:
    """Coalesce awaitable requests into batched synchronous calls.

    :param run_batch: sync callable ``(group, items) -> results`` (one
        result per item, in order) — run on *executor*.
    :param executor: the executor decisions run on (None = the loop's
        default).  The service passes a single-threaded executor so
        engine access is serialized.
    :param window_s: the longest a group waits for company before it is
        dispatched; a full group on an idle batcher waits one loop turn.
    :param max_batch: dispatch immediately once a group holds this many
        requests.
    :param workers: how many requests make a group full: the checks the
        engine decides at once (the service passes its engine's
        ``jobs``).
    """

    def __init__(self, run_batch, executor=None, window_s=0.002,
                 max_batch=64, workers=1):
        self._run_batch = run_batch
        self._executor = executor
        self._window_s = max(0.0, window_s)
        self._max_batch = max(1, max_batch)
        self._workers = max(1, workers)
        self._pending = {}
        self._in_flight = 0
        self.batches = 0
        self.batched_items = 0
        self.largest_batch = 0

    async def submit(self, group, item):
        """The result of *item*, decided inside its group's next batch.

        *group* must be hashable: requests with equal groups are batched
        together, and *run_batch* is handed that group.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        bucket = self._pending.get(group)
        if bucket is None:
            bucket = self._pending[group] = _Bucket(
                group, loop.time() + self._window_s
            )
        bucket.entries.append((item, future))
        size = len(bucket.entries)
        if size >= self._max_batch:
            self._dispatch(group)
        elif size == 1 or size == self._workers:
            # A new group, or one that just became full: its timer looks
            # again on the next loop turn (the deadline stays put).
            if bucket.timer is not None:
                bucket.timer.cancel()
            bucket.timer = loop.create_task(self._close_window(bucket))
        return await future

    async def _close_window(self, bucket):
        # Yield once, so requests already queued on the loop join.  An
        # idle engine then takes a full group; any other group waits out
        # its window, unless the hand-off in _run or max_batch dispatches
        # it first.
        await asyncio.sleep(0)
        if self._in_flight or len(bucket.entries) < self._workers:
            loop = asyncio.get_running_loop()
            await asyncio.sleep(bucket.deadline - loop.time())
        self._dispatch(bucket.group)

    def _dispatch(self, group):
        bucket = self._pending.pop(group, None)
        if bucket is None:  # max_batch or a hand-off got there first
            return
        if bucket.timer is not None and bucket.timer is not (
            asyncio.current_task()
        ):
            bucket.timer.cancel()
        self._in_flight += 1
        self.batches += 1
        self.batched_items += len(bucket.entries)
        self.largest_batch = max(self.largest_batch, len(bucket.entries))
        asyncio.get_running_loop().create_task(self._run(bucket))

    def _dispatch_all(self, least=1):
        """Dispatch every waiting group of at least *least* requests."""
        for group, bucket in list(self._pending.items()):
            if len(bucket.entries) >= least:
                self._dispatch(group)

    async def _run(self, bucket):
        loop = asyncio.get_running_loop()
        items = [item for item, __ in bucket.entries]
        try:
            results = await loop.run_in_executor(
                self._executor, self._run_batch, bucket.group, items
            )
        except Exception as exc:  # engine-level failure: fail the batch
            for __, future in bucket.entries:
                if not future.done():
                    future.set_exception(exc)
        else:
            for (__, future), result in zip(bucket.entries, results):
                if not future.done():
                    future.set_result(result)
        finally:
            self._in_flight -= 1
            if not self._in_flight:  # hand-off: the engine fell idle
                self._dispatch_all(self._workers)

    async def drain(self):
        """Dispatch every open window now and wait for loop turnover
        (tests and shutdown; results still resolve via the futures)."""
        self._dispatch_all()
        await asyncio.sleep(0)
