"""Micro-batching of concurrent containment requests.

At service load, many clients ask ``contains`` at once.  Deciding each
request alone wastes the batch machinery the engine already has:
:meth:`contains_many` amortizes chunk dispatch and lets shards share
compiled targets, and the content-addressed store means concurrent
requests over overlapping queries hit each other's artifacts.

:class:`MicroBatcher` coalesces requests that arrive within one batching
*window* (a few milliseconds) into one ``contains_many`` call per
compatible *group* — requests can only share a batch when their schema
and per-check timeout agree, so the group key is exactly that pair.
The first request of a group opens the window; the batch is
dispatched when the window closes or when the group reaches
*max_batch*, whichever comes first.  A lone request therefore pays at
most the window in added latency, and a burst pays one engine dispatch
for the whole group.

The batcher is event-loop-confined (no locks): ``submit`` must be
awaited on the loop that created the batcher, and the sync *run_batch*
callable is pushed to *executor* so the loop never blocks on a
decision.
"""

import asyncio

__all__ = ["MicroBatcher"]


class _Bucket:
    __slots__ = ("group", "entries", "timer")

    def __init__(self, group):
        self.group = group
        self.entries = []
        self.timer = None


class MicroBatcher:
    """Coalesce awaitable requests into batched synchronous calls.

    :param run_batch: sync callable ``(group, items) -> results`` (one
        result per item, in order) — run on *executor*.
    :param executor: the executor decisions run on (None = the loop's
        default).  The service passes a single-threaded executor so
        engine access is serialized.
    :param window_s: how long the first request of a group waits for
        company before the batch is dispatched.
    :param max_batch: dispatch immediately once a group holds this many
        requests.
    """

    def __init__(self, run_batch, executor=None, window_s=0.002,
                 max_batch=64):
        self._run_batch = run_batch
        self._executor = executor
        self._window_s = max(0.0, window_s)
        self._max_batch = max(1, max_batch)
        self._pending = {}
        self.batches = 0
        self.batched_items = 0
        self.largest_batch = 0

    async def submit(self, key, group, item):
        """The result of *item*, decided inside its group's next batch.

        *key* must hash-identify *group* (requests with equal keys are
        batched together and handed one *group* value).
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        bucket = self._pending.get(key)
        if bucket is None:
            bucket = self._pending[key] = _Bucket(group)
            bucket.timer = loop.create_task(self._close_window(key))
        bucket.entries.append((item, future))
        if len(bucket.entries) >= self._max_batch:
            self._dispatch(key)
        return await future

    async def _close_window(self, key):
        if self._window_s:
            await asyncio.sleep(self._window_s)
        else:
            # Even a zero window yields once, so requests already queued
            # on the loop join the batch.
            await asyncio.sleep(0)
        self._dispatch(key)

    def _dispatch(self, key):
        bucket = self._pending.pop(key, None)
        if bucket is None:  # window closed and max_batch raced: done
            return
        if bucket.timer is not None and bucket.timer is not (
            asyncio.current_task()
        ):
            bucket.timer.cancel()
        self.batches += 1
        self.batched_items += len(bucket.entries)
        self.largest_batch = max(self.largest_batch, len(bucket.entries))
        asyncio.get_running_loop().create_task(self._run(bucket))

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
            return
        for (__, future), result in zip(bucket.entries, results):
            if not future.done():
                future.set_result(result)

    async def drain(self):
        """Dispatch every open window now and wait for loop turnover
        (tests and shutdown; results still resolve via the futures)."""
        for key in list(self._pending):
            self._dispatch(key)
        await asyncio.sleep(0)
